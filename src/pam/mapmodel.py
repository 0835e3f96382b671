"""Construction and validation of the bundled piecewise affine map.

The map acts on the parallelogram Q with corners E(3/2, 1), N(0, 2),
W(-3/2, 1) and S(0, 0).  Its partition vertices sit on a few horizontal
lines: a base row on y = 1, plus rows obtained from it by homotheties
centered at S or at N, the center being whichever keeps the row inside
Q.  The dynamics is pinned down by one exact image point per partition
vertex; each triangle of the partition then carries the unique affine
map interpolating its three vertex images.

Because all vertex images are single-valued, any edge-to-edge
triangulation of the vertex set yields a *globally continuous* map.
The triangulation is not uniquely determined by the vertex table, so
the bundled definition (`standard.map`) fixes it, and `build_map`
validation is the authority on whether a definition is acceptable; the
build report's `deviations` list records where it departs from the
usual drawing.

`build_map` validates everything with zero tolerance: pieces and their
images lie in Q, no two pieces overlap with positive area, and the
piece areas sum to the area of Q.  Continuity is checked at the corners
alone: each piece interpolates its own corner images exactly, and a
boundary segment shared by two pieces ends at a corner of one of them,
so the map is continuous iff every piece whose closed domain holds a
corner maps that corner to the corner's image.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .geometry import (
    AffineMap,
    ConvexPolygon,
    GeometryError,
    Point,
    SlabIndex,
    _hpoint_of,
    _to_fraction,
    affine_from_point_pairs,
    clip,
    format_rational,
    parse_rational,
)

__all__ = [
    "MapModelError",
    "MapDefinitionError",
    "OutsideDomain",
    "ContinuityViolation",
    "CoverageViolation",
    "ImageOutsideDomain",
    "NonInvertiblePiece",
    "UnknownLabel",
    "VertexTable",
    "AffinePiece",
    "PiecewiseAffineMap",
    "MapData",
    "generate_vertices",
    "build_map",
    "parse_definition",
    "serialize_definition",
    "standard_definition_text",
    "standard_map",
    "parse_vertex_names",
    "EXPECTED_TRIANGLE_COUNT",
]


class MapModelError(Exception):
    """Base class for construction/validation failures."""


class MapDefinitionError(MapModelError):
    """Definition text does not parse or is incomplete."""


class OutsideDomain(MapModelError):
    """A point handed to the map lies outside Q."""


class ContinuityViolation(MapModelError):
    """Two pieces disagree somewhere on a shared boundary segment."""


class CoverageViolation(MapModelError):
    """Piece domains fail to tile Q (gap or interior overlap)."""


class ImageOutsideDomain(MapModelError):
    """Some piece maps part of Q outside Q."""


class NonInvertiblePiece(MapModelError):
    """A degenerate piece blocks an exact preimage computation."""


class UnknownLabel(MapModelError):
    """A named vertex or corner set is not part of this map (a user map
    need not use the bundled map's names)."""


# --------------------------------------------------------------------------
# vertex tables

_BASE_X: Dict[str, Fraction] = {
    "W": Fraction(-3, 2),
    "A": Fraction(-1),
    "B": Fraction(-9, 10),
    "O": Fraction(0),
    "C": Fraction(9, 10),
    "D": Fraction(1),
    "E": Fraction(3, 2),
}
_BASE_ORDER = "WABOCDE"

# auxiliary rows: height, and which base letters exist there
_LINES: Dict[str, Tuple[Fraction, str]] = {
    "u": (Fraction(3, 2), "WADE"),
    "t": (Fraction(4, 5), "WABO"),
    "c": (Fraction(1, 2), "WABOCDE"),
    "b": (Fraction(1, 4), "AD"),
}

_N = Point(Fraction(0), Fraction(2))
_S = Point(Fraction(0), Fraction(0))

# the partition is usually drawn with 26 triangles; an edge-to-edge
# triangulation on every table vertex forces 31 (Euler count), which the
# build report records as a deviation rather than an error
EXPECTED_TRIANGLE_COUNT = 26

_NAME_TOKEN = re.compile(r"([A-Z])(\^[a-z])?")


def parse_vertex_names(compact: str) -> List[str]:
    """Split a compact region label like ``'WW^tOO^t'`` into vertex names."""
    names = []
    pos = 0
    while pos < len(compact):
        m = _NAME_TOKEN.match(compact, pos)
        if not m:
            raise ValueError(f"cannot parse vertex names from {compact!r}")
        names.append(m.group(0))
        pos = m.end()
    return names


@dataclass(frozen=True)
class VertexTable:
    """Named partition vertices plus the auxiliary-row heights."""

    points: Dict[str, Point]
    line_heights: Dict[str, Fraction]

    def __getitem__(self, name: str) -> Point:
        return self.points[name]

    def polygon(self, names: Iterable[str]) -> ConvexPolygon:
        return ConvexPolygon([self.points[n] for n in names])


def _domain_polygon() -> ConvexPolygon:
    return ConvexPolygon([Point.of("3/2", 1), _N, Point.of("-3/2", 1), _S])


def generate_vertices() -> VertexTable:
    """Build the full vertex table from the base row by homotheties.

    For each auxiliary row the homothety center (S or N) is chosen by
    containment: the S-centered copy is used unless it would push some
    vertex of the row outside Q, in which case the whole row comes from
    the N-centered homothety instead (that happens only for y = 3/2,
    where the S-centered copy of W would land at x = -9/4).
    """
    q = _domain_polygon()
    points: Dict[str, Point] = {"N": _N, "S": _S}
    for letter in _BASE_ORDER:
        points[letter] = Point(_BASE_X[letter], Fraction(1))
    for tag, (height, members) in _LINES.items():
        row = {m: points[m].scaled(height) for m in members}
        if not all(q.contains(p) for p in row.values()):
            scale = 2 - height
            row = {
                m: Point(scale * points[m].x, 2 - scale * (2 - points[m].y))
                for m in members
            }
        for m, p in row.items():
            assert p.y == height and q.contains(p)
            points[f"{m}^{tag}"] = p
    return VertexTable(points, {tag: h for tag, (h, _) in _LINES.items()})


# --------------------------------------------------------------------------
# pieces and the assembled map


class AffinePiece:
    """A triangular domain together with the affine map acting on it."""

    __slots__ = ("name", "corner_names", "domain", "map", "_image")

    def __init__(
        self,
        name: str,
        corner_names: Tuple[str, str, str],
        domain: ConvexPolygon,
        map: AffineMap,
    ):
        self.name = name
        self.corner_names = tuple(corner_names)
        self.domain = domain
        self.map = map
        self._image: Optional[ConvexPolygon] = None

    @property
    def image(self) -> ConvexPolygon:
        if self._image is None:
            self._image = self.domain.transformed(self.map)
        return self._image

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffinePiece):
            return NotImplemented
        return (
            self.name == other.name
            and self.domain == other.domain
            and self.map == other.map
        )

    def __hash__(self) -> int:
        return hash((self.name, self.domain, self.map))

    def __repr__(self) -> str:
        return f"AffinePiece({self.name})"


class PiecewiseAffineMap:
    """A validated, globally continuous piecewise affine map on Q.

    Pieces keep their construction order; where a point lies on a shared
    boundary, `evaluate`/`piece_at` deterministically pick the
    lowest-index containing piece (continuity makes the value unique, so
    the tie-break is observationally irrelevant).
    """

    def __init__(
        self,
        domain: ConvexPolygon,
        pieces: Sequence[AffinePiece],
        vertices: Dict[str, Point],
        images: Dict[str, Point],
        image_names: Dict[str, Optional[str]],
        domain_names: Tuple[str, ...],
        deviations: Sequence[str] = (),
    ):
        self.domain = domain
        self.pieces = tuple(pieces)
        self.vertices = dict(vertices)
        self.images = dict(images)
        self.image_names = dict(image_names)
        self.domain_names = tuple(domain_names)
        self.deviations = tuple(deviations)
        self._index = {p.name: i for i, p in enumerate(self.pieces)}
        self._slabs = SlabIndex(p.domain for p in self.pieces)

    # -- point lookup -------------------------------------------------------

    def piece(self, name: str) -> AffinePiece:
        try:
            return self.pieces[self._index[name]]
        except KeyError:
            raise UnknownLabel(f"the map has no piece {name}") from None

    def vertex(self, name: str) -> Point:
        """The named partition vertex; UnknownLabel if the map lacks it."""
        try:
            return self.vertices[name]
        except KeyError:
            raise UnknownLabel(f"the map has no vertex {name}") from None

    def piece_with_corners(self, corners) -> AffinePiece:
        """Look a piece up by its corner set; accepts a compact label
        like ``'A^cB^cS'`` or an iterable of vertex names."""
        if isinstance(corners, str):
            corners = parse_vertex_names(corners)
        want = frozenset(corners)
        for p in self.pieces:
            if frozenset(p.corner_names) == want:
                return p
        raise UnknownLabel(f"the map has no piece with corners {' '.join(sorted(want))}")

    def piece_at(self, point: Point) -> Tuple[int, AffinePiece]:
        """``(index, piece)`` for the lowest-index piece whose closed domain
        contains `point`; OutsideDomain when no piece does.

        A y-slab index built in ``__init__`` from the pieces' own vertex
        heights (so user maps get one too) narrows the half-plane tests
        to the pieces whose height range meets the point's height: for
        the bundled map 6, 12, 12 and 6 of the 31 pieces in its four
        slabs, and 6 for every point of a drift orbit.  The point is
        converted once to a homogeneous integer triple; its height is
        bisected and its half-plane tests run on that triple.  `evaluate`
        and the orbit builders of `pam.symbolic` and `pam.entropy` locate
        the same way, through `_step`."""
        return self._piece_at(_hpoint_of(point))

    def _piece_at(self, h) -> Tuple[int, AffinePiece]:
        i = self._slabs._locate(h)
        if i is None:
            raise OutsideDomain(f"point {_to_fraction(h)} is not in the domain")
        return i, self.pieces[i]

    def _step(self, h):
        """The image of the homogeneous point `h`, as a reduced triple."""
        return self._piece_at(h)[1].map._apply(h)

    def evaluate(self, point: Point) -> Point:
        return _to_fraction(self._step(_hpoint_of(point)))

    def __call__(self, point: Point) -> Point:
        return self.evaluate(point)

    # -- regions -------------------------------------------------------------

    def region(self, compact: str) -> ConvexPolygon:
        """Polygon spanned by named vertices, e.g. ``'NWE'``, ``'WW^tOO^t'``."""
        return ConvexPolygon([self.vertex(n) for n in parse_vertex_names(compact)])

    def piece_image(self, name: str) -> ConvexPolygon:
        return self.piece(name).image

    def region_image(self, region: ConvexPolygon) -> List[ConvexPolygon]:
        """Exact image of ``region`` ⊆ Q as a list of convex pieces."""
        out = []
        for piece in self.pieces:
            part = clip(piece.domain, region)
            if part is not None:
                if not piece.map.is_invertible():
                    raise NonInvertiblePiece(piece.name)
                out.append(part.transformed(piece.map))
        return out

    def region_preimage(self, region: ConvexPolygon) -> List[ConvexPolygon]:
        """Exact preimage of ``region`` as a list of convex pieces."""
        out = []
        for piece in self.pieces:
            if not piece.map.is_invertible():
                raise NonInvertiblePiece(piece.name)
            pulled = region.transformed(piece.map.inverse())
            part = clip(piece.domain, pulled)
            if part is not None:
                out.append(part)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseAffineMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.pieces == other.pieces
            and self.vertices == other.vertices
        )

    def __repr__(self) -> str:
        return f"PiecewiseAffineMap({len(self.pieces)} pieces)"


# --------------------------------------------------------------------------
# definition data


@dataclass
class MapData:
    """Parsed form of a map definition (vertices, triangles, images)."""

    vertices: Dict[str, Point]
    triangles: List[Tuple[str, Tuple[str, str, str]]]
    images: Dict[str, Point]
    image_names: Dict[str, Optional[str]] = field(default_factory=dict)
    domain_names: Tuple[str, ...] = ("E", "N", "W", "S")

    def domain_polygon(self) -> ConvexPolygon:
        missing = [n for n in self.domain_names if n not in self.vertices]
        if missing:
            raise MapDefinitionError(f"domain vertices undefined: {missing}")
        try:
            return ConvexPolygon([self.vertices[n] for n in self.domain_names])
        except GeometryError as exc:
            raise MapDefinitionError(f"domain {' '.join(self.domain_names)}: {exc}") from exc


def _assemble(data: MapData, deviations: Sequence[str] = ()) -> PiecewiseAffineMap:
    domain = data.domain_polygon()
    pieces = []
    for name, corner_names in data.triangles:
        missing = [n for n in corner_names if n not in data.images]
        if missing:
            raise MapDefinitionError(
                f"triangle {name}: no image given for {', '.join(missing)}"
            )
        corners = [data.vertices[n] for n in corner_names]
        try:
            fmap = affine_from_point_pairs(
                [(c, data.images[n]) for c, n in zip(corners, corner_names)]
            )
            polygon = ConvexPolygon(corners)
        except GeometryError as exc:
            raise MapDefinitionError(f"triangle {name}: {exc}") from exc
        pieces.append(AffinePiece(name, corner_names, polygon, fmap))
    return PiecewiseAffineMap(
        domain,
        pieces,
        data.vertices,
        data.images,
        data.image_names,
        data.domain_names,
        deviations,
    )


# --------------------------------------------------------------------------
# validation


def build_map(data: MapData) -> PiecewiseAffineMap:
    """Assemble and fully validate a piecewise affine map.

    Raises CoverageViolation / ContinuityViolation / ImageOutsideDomain
    (each naming a concrete witness) when the data does not define a
    globally continuous self-map of Q tiled by the given triangles.

    Q is convex, so a piece and its image lie in Q iff their corners do.
    Pieces inside Q without a positive-area overlap tile Q iff their
    areas sum to the area of Q.  Each piece interpolates the images of
    its own corners, and two pieces with disjoint interiors meet in a
    point or segment whose ends are corners of one of them; so the map
    is continuous iff every piece whose closed domain holds a corner
    maps that corner to the corner's image.
    """
    deviations: List[str] = []
    if len(data.triangles) != EXPECTED_TRIANGLE_COUNT:
        deviations.append(
            f"piece count is {len(data.triangles)}, usually drawn as "
            f"{EXPECTED_TRIANGLE_COUNT}: an edge-to-edge triangulation on the "
            f"full vertex table forces the larger count"
        )
    candidate = _assemble(data, deviations)
    domain = candidate.domain
    pieces = candidate.pieces

    for piece in pieces:
        for corner in piece.domain.vertices:
            if not domain.contains(corner):
                raise CoverageViolation(f"piece {piece.name} leaves the domain")
            if not domain.contains(piece.map(corner)):
                raise ImageOutsideDomain(
                    f"piece {piece.name} maps outside the domain"
                )

    for i, pi in enumerate(pieces):
        for pj in pieces[i + 1 :]:
            if clip(pi.domain, pj.domain) is not None:
                raise CoverageViolation(
                    f"pieces {pi.name} and {pj.name} overlap with positive area"
                )
    if sum(p.domain.area for p in pieces) != domain.area:
        raise CoverageViolation("pieces do not tile the domain")

    for piece in pieces:
        for name in piece.corner_names:
            corner, target = data.vertices[name], data.images[name]
            for other in pieces:
                if (
                    other is not piece
                    and other.domain.contains(corner)
                    and other.map(corner) != target
                ):
                    raise ContinuityViolation(
                        f"pieces {piece.name} and {other.name} disagree at "
                        f"{corner} on their shared edge"
                    )
    return candidate


# --------------------------------------------------------------------------
# text format

def parse_definition(text: str) -> MapData:
    """Parse the one-statement-per-line map definition format.

    Directives: ``vertex <name> <x> <y>``, ``triangle <name> <v1> <v2>
    <v3>``, ``image <vertex> (<target-vertex> | <x> <y>)``, ``domain
    <v1> <v2> <v3> <v4>``; ``#`` starts a comment.  Raises
    MapDefinitionError carrying a line number on any problem.
    """
    vertices: Dict[str, Point] = {}
    triangles: List[Tuple[str, Tuple[str, str, str]]] = []
    images: Dict[str, Point] = {}
    image_names: Dict[str, Optional[str]] = {}
    domain_names: Optional[Tuple[str, ...]] = None

    def fail(lineno: int, message: str):
        raise MapDefinitionError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "vertex":
            if len(args) != 3:
                fail(lineno, "vertex needs: name x y")
            name = args[0]
            if name in vertices:
                fail(lineno, f"vertex {name} redefined")
            try:
                vertices[name] = Point(parse_rational(args[1]), parse_rational(args[2]))
            except ValueError as exc:
                fail(lineno, str(exc))
        elif directive == "triangle":
            if len(args) != 4:
                fail(lineno, "triangle needs: name v1 v2 v3")
            unknown = [v for v in args[1:] if v not in vertices]
            if unknown:
                fail(lineno, f"unknown vertices: {', '.join(unknown)}")
            triangles.append((args[0], (args[1], args[2], args[3])))
        elif directive == "image":
            if len(args) == 2:
                src, target = args
                if src not in vertices:
                    fail(lineno, f"unknown vertex {src}")
                if target not in vertices:
                    fail(lineno, f"unknown image vertex {target}")
                images[src] = vertices[target]
                image_names[src] = target
            elif len(args) == 3:
                src = args[0]
                if src not in vertices:
                    fail(lineno, f"unknown vertex {src}")
                try:
                    images[src] = Point(parse_rational(args[1]), parse_rational(args[2]))
                except ValueError as exc:
                    fail(lineno, str(exc))
                image_names[src] = None
            else:
                fail(lineno, "image needs: vertex (target | x y)")
        elif directive == "domain":
            if len(args) != 4:
                fail(lineno, "domain needs exactly 4 vertex names")
            unknown = [v for v in args if v not in vertices]
            if unknown:
                fail(lineno, f"unknown vertices: {', '.join(unknown)}")
            domain_names = tuple(args)
        else:
            fail(lineno, f"unknown directive {directive!r}")

    if not vertices:
        raise MapDefinitionError("line 0: empty definition (no vertex lines)")
    if domain_names is None:
        raise MapDefinitionError("line 0: missing domain line")
    if not triangles:
        raise MapDefinitionError("line 0: no triangles defined")
    return MapData(vertices, triangles, images, image_names, domain_names)


def serialize_definition(mapping: PiecewiseAffineMap) -> str:
    """Render a map back into definition text (stable order, exact)."""
    lines = ["# piecewise affine map definition"]
    for name, p in mapping.vertices.items():
        lines.append(
            f"vertex {name} {format_rational(p.x)} {format_rational(p.y)}"
        )
    lines.append("domain " + " ".join(mapping.domain_names))
    for piece in mapping.pieces:
        lines.append(f"triangle {piece.name} " + " ".join(piece.corner_names))
    for name, target in mapping.images.items():
        alias = mapping.image_names.get(name)
        if alias is not None:
            lines.append(f"image {name} {alias}")
        else:
            lines.append(
                f"image {name} {format_rational(target.x)} "
                f"{format_rational(target.y)}"
            )
    return "\n".join(lines) + "\n"


def standard_definition_text() -> str:
    """The bundled map definition, verbatim."""
    return (
        resources.files("pam").joinpath("data/standard.map").read_text("utf-8")
    )


@lru_cache(maxsize=1)
def standard_map() -> PiecewiseAffineMap:
    """Parse, build and fully validate the bundled map (cached)."""
    return build_map(parse_definition(standard_definition_text()))
