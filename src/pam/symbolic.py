"""Orbits, itinerary coding, cylinder sets, and the vertical drift law.

Coding uses two triangles hanging off S: letter 0 for the left one,
letter 1 for the right one.  The operational default ("corrected" mode)
takes them as A^tB^tS and C^cD^cS — the triangles on which the Markov
and cone properties actually hold; "literal" mode uses the base-row
triangles ABS and CDS instead.  Both are exposed because the two
readings genuinely differ and picking silently would hide that.

Cylinders C_n = ⋂_{k≤n} T^{-k}(P_{w_k}) are computed by exact clipping
in the image frame.  A cylinder is generally *not* convex — the map
folds — so each level is a list of convex cells, each with the single
affine branch g of T^n defined on it.  The descent carries the image
g(cell) rather than the cell: it lies inside a coding triangle, so its
coordinates stay small, and one step is branch(clip(g(cell), part)),
exact because clip(g⁻¹X, g⁻¹Y) = g⁻¹clip(X, Y).  Horizontal widths
contract by at least 4 per level, which is the mechanism behind the
coding.  `census` walks the whole word tree once, sharing prefixes and
repeated image cells, and returns the number of nonempty cylinders at
every depth together with the widest fiber at the deepest one.  It
measures a fiber in the image frame too: g carries the horizontal to
an integer direction d, and the widest horizontal chord of the cell is
the widest chord of g(cell) along d, rescaled exactly.

On the two bottom coding pieces the map is linear with vertical
multipliers exactly 1/2 and 2, giving the exact drift identity
y_n = y_0 · 2^(Σ sign(x_k)); `confined_start` builds points realizing
any prescribed word inside that linear regime via the sector coordinate
r = x/y, on which the two branches act as r ↦ 20r + 19 and
r ↦ 19 − 20r, both onto [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .geometry import (
    AffineMap,
    ConvexPolygon,
    Point,
    _cmp_pow2,
    _hpoint_of,
    _rat,
    _to_fraction,
    clip,
)
from .mapmodel import NonInvertiblePiece, OutsideDomain, PiecewiseAffineMap, UnknownLabel

__all__ = [
    "SymbolicError",
    "OrbitLeftRegion",
    "CodingTriangles",
    "coding_triangles",
    "OrbitRecord",
    "iterate",
    "CylinderChain",
    "cylinder",
    "fiber_width",
    "CylinderCensus",
    "census",
    "max_fiber_width",
    "DriftVerdict",
    "drift_check",
    "confined_start",
    "CODING_MODES",
]


class SymbolicError(Exception):
    """Base class for symbolic-dynamics failures."""


class OrbitLeftRegion(SymbolicError):
    """An orbit handed to drift_check leaves the coding region.

    `index` is the first offending step.
    """

    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index


CODING_MODES = ("corrected", "literal")


@dataclass(frozen=True)
class CodingTriangles:
    """The two coding triangles (letter 0 on the left, 1 on the right)."""

    mode: str
    label0: str
    label1: str
    p0: ConvexPolygon
    p1: ConvexPolygon

    def classify(self, p: Point) -> Optional[int]:
        return self._classify(_hpoint_of(p))

    def _classify(self, h) -> Optional[int]:
        if self.p0._contains(h):
            return 0
        if self.p1._contains(h):
            return 1
        return None


def coding_triangles(
    t: PiecewiseAffineMap, mode: str = "corrected"
) -> CodingTriangles:
    if mode == "corrected":
        labels = ("A^tB^tS", "C^cD^cS")
    elif mode == "literal":
        labels = ("ABS", "CDS")
    else:
        raise ValueError(f"unknown coding mode {mode!r}; pick from {CODING_MODES}")
    return CodingTriangles(mode, *labels, t.region(labels[0]), t.region(labels[1]))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class OrbitRecord:
    """An exact orbit segment with per-step signs and coding letters.

    coding[k] is 0/1 when the k-th point lies in the corresponding
    coding triangle and None otherwise.
    """

    points: Tuple[Point, ...]
    signs: Tuple[int, ...]
    coding: Tuple[Optional[int], ...]

    def __len__(self) -> int:
        return len(self.points)


def iterate(
    t: PiecewiseAffineMap,
    p: Point,
    n: int,
    triangles: Optional[CodingTriangles] = None,
) -> OrbitRecord:
    """Exact orbit p, T(p), ..., T^n(p) with signs and coding letters.

    `triangles` defaults to the corrected coding triangles of `t`; a map
    that does not name their vertices codes every point as None.  The
    orbit runs on reduced homogeneous integer triples (X, Y, W), W > 0:
    the start is converted once, and Fractions are built once per point
    for the record.
    """
    if n < 0:
        raise ValueError("orbit length must be nonnegative")
    if triangles is None:
        try:
            triangles = coding_triangles(t)
        except UnknownLabel:
            pass
    h = _hpoint_of(p)
    if not t.domain._contains(h):
        raise OutsideDomain(f"point {_to_fraction(h)} is not in the domain")
    hs = [h]
    for _ in range(n):
        hs.append(t._step(hs[-1]))
    if triangles is None:
        coding = (None,) * len(hs)
    else:
        coding = tuple(map(triangles._classify, hs))
    signs = tuple(_sign(x) for x, _, _ in hs)
    return OrbitRecord(tuple(map(_to_fraction, hs)), signs, coding)


# ---------------------------------------------------------------------------
# cylinders


def _as_word(word) -> Tuple[int, ...]:
    letters = tuple(int(c) for c in word)
    if any(c not in (0, 1) for c in letters):
        raise ValueError(f"word must be over {{0,1}}, got {word!r}")
    return letters


class _Branches:
    """Per-letter list of (part, branch) pairs, in the image frame.

    `part` is the part of a piece whose next image lands in the requested
    coding triangle, so stepping an image cell J one level keeps
    branch(clip(J, part)) for each pair that meets it.
    """

    def __init__(self, t: PiecewiseAffineMap, triangles: CodingTriangles):
        self.per_letter = []
        for target in (triangles.p0, triangles.p1):
            pairs = []
            for piece in t.pieces:
                if not piece.map.is_invertible():
                    raise NonInvertiblePiece(piece.name)
                # the part of this piece whose *next* image lands in the
                # requested coding triangle
                pulled = target.transformed(piece.map.inverse())
                part = clip(piece.domain, pulled)
                if part is not None:
                    pairs.append((part, piece.map))
            self.per_letter.append(pairs)

    def step(self, cell: ConvexPolygon, letter: int):
        """The children of image cell `cell` under `letter`, as
        (image, branch) pairs."""
        out = []
        for part, branch in self.per_letter[letter]:
            kept = clip(cell, part)
            if kept is not None:
                out.append((kept.transformed(branch), branch))
        return out


@dataclass(frozen=True)
class CylinderChain:
    """Nested exact cylinders of one itinerary word.

    levels[n] lists the convex cells whose union is C_n; the cells of a
    level refine those of the previous one, so nesting holds by
    construction.
    """

    word: Tuple[int, ...]
    levels: Tuple[Tuple[ConvexPolygon, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def polygons(self, n: int) -> List[ConvexPolygon]:
        return list(self.levels[n])

    def is_empty(self, n: int) -> bool:
        return not self.levels[n]


def cylinder(
    t: PiecewiseAffineMap,
    word,
    triangles: Optional[CodingTriangles] = None,
) -> CylinderChain:
    """Exact cylinder chain C_0 ⊇ C_1 ⊇ ... for the given word."""
    letters = _as_word(word)
    if not letters:
        raise ValueError("word must be nonempty")
    if triangles is None:
        triangles = coding_triangles(t)
    branches = _Branches(t, triangles)
    target0 = triangles.p0 if letters[0] == 0 else triangles.p1
    # (image cell, composite branch carrying the cylinder cell onto it)
    cells = [(target0, AffineMap.identity())]
    levels = [(target0,)]
    for letter in letters[1:]:
        cells = [
            (image, branch.compose(g))
            for cell, g in cells
            for image, branch in branches.step(cell, letter)
        ]
        levels.append(tuple(image.transformed(g.inverse()) for image, g in cells))
    return CylinderChain(letters, tuple(levels))


def _max_chord(cell: ConvexPolygon, d: Tuple[int, int] = (1, 0)) -> Fraction:
    """Longest chord of a convex polygon along the integer direction d,
    in units of d, exactly; for d = (1, 0) the longest horizontal chord.

    Chord length is a concave piecewise-linear function of the offset
    across d, so the maximum is attained on the line along d through some
    vertex; it suffices to scan those lines.  The scan runs on the
    homogeneous integer vertices read in the coordinates (d·p, d⊥·p),
    d⊥ = (−d_y, d_x), and builds one Fraction: a chord t·d spans t|d|²
    in the first coordinate, so its length in units of d is that extent
    over |d|², with no square root.
    """
    dx, dy = d
    verts = cell._h
    if d != (1, 0):
        verts = [(dx * x + dy * y, dx * y - dy * x, w) for x, y, w in verts]
    m = len(verts)
    best_num, best_den = 0, 1
    for _, y, w in verts:
        # the sign of each vertex's offset across d from this vertex
        sides = [p[1] * w - y * p[2] for p in verts]
        # where the boundary meets that line, as (numerator, W > 0):
        # one vertex, or two ends, since the polygon is convex
        ends = []
        for i in range(m):
            si, sj = sides[i], sides[i + 1 - m]
            a = verts[i]
            if si == 0:
                ends.append((a[0], a[2]))
            elif (si > 0 > sj) or (si < 0 < sj):
                b = verts[i + 1 - m]
                num, den = sj * a[0] - si * b[0], sj * a[2] - si * b[2]
                ends.append((num, den) if den > 0 else (-num, -den))
        (n1, d1), (n2, d2) = ends[0], ends[-1]
        num, den = abs(n1 * d2 - n2 * d1), d1 * d2
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den * (dx * dx + dy * dy))


def _carry(branch: AffineMap, d: Tuple[int, int]) -> Tuple[Tuple[int, int], Fraction]:
    """(d', s/|p|) with branch.linear · d = (p/s)·d', s > 0 and d' the
    primitive integer direction whose first nonzero entry is positive.

    A chord along d of length μ, in units of d, goes to a chord along d'
    of length μ|p|/s in units of d', so widths measured along d' below
    the branch come back multiplied by s/|p|.
    """
    a, b, _, c, e, _, s = branch._m  # linear part [[a, b], [c, e]] / s
    u, v = a * d[0] + b * d[1], c * d[0] + e * d[1]
    p = math.gcd(u, v)
    if u < 0 or (u == 0 and v < 0):
        p = -p
    return (u // p, v // p), Fraction(s, abs(p))


def fiber_width(chain: CylinderChain, n: int) -> Fraction:
    """Length of the longest horizontal chord across the cells of C_n.

    Horizontal chords are what the inverse branches contract (each step
    divides them by the upper-left matrix entry, at least 4 in absolute
    value).  Bounding boxes would not do: every cylinder tapers into the
    fixed corner S between two lines x = κ·y, so its x-extent stays
    macroscopic at every depth even as the chords collapse.
    """
    cells = chain.levels[n]
    best = Fraction(0)
    for cell in cells:
        width = _max_chord(cell)
        if width > best:
            best = width
    return best


@dataclass(frozen=True)
class CylinderCensus:
    """What one walk of the word tree to depth n establishes.

    counts[k-1] is the number of length-k words with a nonempty
    cylinder, for k = 1..n; widths maps each first letter to the widest
    horizontal chord over the nonempty length-n cylinders below it.
    """

    counts: Tuple[int, ...]
    widths: Dict[int, Fraction]


class _Descent:
    """The memo tables of one census, keyed by image cells.

    Identical image cells recur across words, and what grows below a
    word depends only on the set of its image cells, so each entry is
    computed once per census.  Every word is still decided by exact
    clipping; the tables only avoid repeating one.  The tables form no
    reference cycle, so they are freed as soon as census returns.

    Widths carry one primitive integer direction d along each word: the
    direction into which the word's composite branch carries the
    horizontal, so the widest horizontal chord of a cylinder cell is the
    widest chord of its image along d, rescaled by the branches crossed.
    On the bundled map every coding branch keeps horizontals (c = 0), so
    d stays (1, 0); a branch that shears them turns d, and the width
    stays exact without pulling any cell back.
    """

    def __init__(self, branches: _Branches):
        self.branches = branches
        self._children: dict = {}  # (cell, letter) -> branches.step(cell, letter)
        self._counts: dict = {}  # (frozenset of cells, depth) -> counts
        self._widths: dict = {}  # (cell, depth, d) -> widest chord along d, in units of d
        self._carries: dict = {}  # (branch, d) -> _carry(branch, d)

    def children(self, cell: ConvexPolygon, letter: int):
        key = (cell, letter)
        got = self._children.get(key)
        if got is None:
            got = self._children[key] = self.branches.step(cell, letter)
        return got

    def count(self, cells: frozenset, depth: int) -> Tuple[int, ...]:
        """Nonempty words of each length 0..depth extending a word whose
        image cells are `cells`."""
        key = (cells, depth)
        got = self._counts.get(key)
        if got is None:
            total = [1] + [0] * depth
            if depth:
                for letter in (0, 1):
                    nxt = frozenset(
                        image for cell in cells for image, _ in self.children(cell, letter)
                    )
                    if nxt:
                        for k, c in enumerate(self.count(nxt, depth - 1), 1):
                            total[k] += c
            got = self._counts[key] = tuple(total)
        return got

    def widest(self, cell: ConvexPolygon, depth: int, d: Tuple[int, int]) -> Fraction:
        """Widest chord along d, in units of d, over the leaf cells `depth`
        levels below `cell`, each pulled back into the frame of `cell`."""
        key = (cell, depth, d)
        got = self._widths.get(key)
        if got is None:
            if depth == 0:
                got = _max_chord(cell, d)
            else:
                got = Fraction(0)
                for letter in (0, 1):
                    for image, branch in self.children(cell, letter):
                        carry = self._carries.get((branch, d))
                        if carry is None:
                            carry = self._carries[branch, d] = _carry(branch, d)
                        carried, scale = carry
                        width = self.widest(image, depth - 1, carried) * scale
                        if width > got:
                            got = width
            self._widths[key] = got
        return got


def census(
    t: PiecewiseAffineMap,
    n: int,
    triangles: Optional[CodingTriangles] = None,
) -> CylinderCensus:
    """Count the nonempty cylinders at every depth up to n and measure
    the widest fiber at depth n, in one shared-prefix descent.

    Full Markov branching makes counts[k-1] = 2^k; the counts are
    established by exhaustive exact clipping, not assumed.  Each width
    is a maximum over *every* leaf cylinder, so comparing it against a
    bound checks every cylinder at depth n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if triangles is None:
        triangles = coding_triangles(t)
    descent = _Descent(_Branches(t, triangles))
    counts = [0] * n
    widths = {}
    for letter, target in ((0, triangles.p0), (1, triangles.p1)):
        for k, c in enumerate(descent.count(frozenset((target,)), n - 1)):
            counts[k] += c
        widths[letter] = descent.widest(target, n - 1, (1, 0))
    return CylinderCensus(tuple(counts), widths)


def max_fiber_width(
    t: PiecewiseAffineMap,
    n: int,
    triangles: Optional[CodingTriangles] = None,
) -> dict:
    """Widest fiber among all depth-n cylinders, keyed by first letter."""
    return census(t, n, triangles).widths


# ---------------------------------------------------------------------------
# vertical drift


@dataclass(frozen=True)
class DriftVerdict:
    """Outcome of the drift law on one orbit segment."""

    steps: int
    exponent: int  # Σ sign(x_k) over the first `steps` steps
    identity_holds: Optional[bool]  # exact law; None when not applicable
    inequality_holds: bool  # y_{k+1} >= 2^(sign x_k) · y_k at every step


def drift_check(
    t: PiecewiseAffineMap,
    record: OrbitRecord,
    region: str = "core",
) -> DriftVerdict:
    """Check the drift law y_n = y_0 · 2^(Σ sign x_k) on an orbit.

    region="core" demands the orbit stay in A^cB^cS ∪ C^cD^cS (where the
    law is an exact identity); region="wide" only demands
    A^tB^tS ∪ C^cD^cS and checks the one-sided inequality.  Raises
    OrbitLeftRegion when the orbit leaves the requested region or
    touches the coding boundary x = 0 before its last step.
    """
    if region == "core":
        zones = (t.region("A^cB^cS"), t.region("C^cD^cS"))
    elif region == "wide":
        zones = (t.region("A^tB^tS"), t.region("C^cD^cS"))
    else:
        raise ValueError(f"unknown region {region!r}")
    n = len(record.points) - 1
    if n < 1:
        raise ValueError("need at least one step")
    for k in range(n):
        p = record.points[k]
        if record.signs[k] == 0:
            raise OrbitLeftRegion(k, f"point {p} sits on the coding boundary x = 0")
        h = _hpoint_of(p)
        if not (zones[0]._contains(h) or zones[1]._contains(h)):
            raise OrbitLeftRegion(k, f"point {p} left the {region} coding region")

    ys = [(p.y.numerator, p.y.denominator) for p in record.points]
    exponent = sum(record.signs[:n])
    inequality = all(_cmp_pow2(ys[k + 1], ys[k], record.signs[k]) >= 0 for k in range(n))
    identity: Optional[bool]
    if region == "core":
        identity = _cmp_pow2(ys[n], ys[0], exponent) == 0
    else:
        identity = None
    return DriftVerdict(n, exponent, identity, inequality)


def confined_start(word, r_end: Fraction = Fraction(1, 3)) -> Point:
    """Exact point whose orbit realizes `word` inside the linear coding
    pieces A^cB^cS and C^cD^cS.

    Works backwards in the sector coordinate r = x/y: branch 0 acts as
    r ↦ 20r + 19 (from [-1, -9/10] onto [-1, 1]) and branch 1 as
    r ↦ 19 − 20r (from [9/10, 1] onto [-1, 1]), so pulling any interior
    r_end back through the word pins the itinerary.  The height y_0 is
    then chosen small enough that every intermediate level stays below
    the y^c line, keeping the whole orbit in the linear regime.
    """
    letters = _as_word(word)
    if not letters:
        raise ValueError("word must be nonempty")
    r = _rat(r_end)
    if not -1 < r < 1:
        raise ValueError("r_end must be strictly inside (-1, 1)")
    # r stays num/den, den = r_end's denominator times 20^k after k letters
    num, den = r.numerator, r.denominator
    for letter in reversed(letters):
        num = num - 19 * den if letter == 0 else 19 * den - num
        den *= 20
    increments = [1 if letter else -1 for letter in letters]
    peak = 0
    drift = 0
    for inc in increments[:-1]:
        drift += inc
        peak = max(peak, drift)
    # y0 = (1/2)·2^-(peak + 1): no level before the last rises above 1/4
    shift = peak + 2
    return Point(Fraction(num, den << shift), Fraction(1, 1 << shift))
