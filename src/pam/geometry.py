"""Exact rational planar geometry.

Points, 2x2 matrices, affine maps, convex polygons, clipping, y-slab
point location, region differences and eigenanalysis.  Nothing in this
module ever rounds: every predicate is decided by integer arithmetic.
One sweep, `convex_difference`, carries every region identity: union
areas and symmetric differences are sums of the areas it leaves.

One integer layer carries the work: a polygon keeps its vertices as
reduced homogeneous integer triples ``(X, Y, W)``, ``W > 0``, and an
affine map is one reduced homogeneous integer 3x3 matrix, so clipping,
composition, inversion and affine images need one gcd per result
instead of one per arithmetic operation.  Polygons are canonicalized
(counter-clockwise, no repeated or collinear vertices), so equality and
hashing behave like value semantics.  Fractions appear only on the
public surface (points, areas, `AffineMap.linear`/`translation`).
`ConvexPolygon.contains` and `AffineMap.apply` are thin wrappers that
convert a point once (`_hpoint_of`) and call their triple forms
`_contains` and `_apply`.  The orbit paths of `pam.mapmodel`,
`pam.symbolic` and `pam.entropy` call the triple forms directly, and
locate pieces with `SlabIndex._locate`, which takes a triple too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Union

__all__ = [
    "GeometryError",
    "CollinearSources",
    "Rational",
    "RationalLike",
    "parse_rational",
    "format_rational",
    "Point",
    "Matrix2",
    "AffineMap",
    "ConvexPolygon",
    "clip",
    "region_area",
    "symdiff_area",
    "convex_difference",
    "region_difference",
    "Surd",
    "Eigen2Result",
    "eigen2",
    "affine_from_point_pairs",
    "SlabIndex",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]


class GeometryError(ValueError):
    """Invalid geometric input (degenerate polygon, singular matrix, ...)."""


class CollinearSources(GeometryError):
    """The three source points of an affine solve are collinear."""


def _rat(value: RationalLike) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: this module is exact, pass Fraction/int/str"
        )
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse ``'p/q'`` or ``'p'`` into a Fraction (whitespace tolerated)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q`` (or ``p`` when integral), no spaces."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Point(NamedTuple):
    x: Fraction
    y: Fraction

    @staticmethod
    def of(x: RationalLike, y: RationalLike) -> "Point":
        return Point(_rat(x), _rat(y))

    def __add__(self, other: "Point") -> "Point":  # type: ignore[override]
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, k: RationalLike) -> "Point":
        k = _rat(k)
        return Point(self.x * k, self.y * k)

    def __str__(self) -> str:
        return f"({format_rational(self.x)}, {format_rational(self.y)})"


# --------------------------------------------------------------------------
# homogeneous integer layer
#
# A point (x, y) is stored as integers (X, Y, W) with x = X/W, y = Y/W,
# W > 0 and gcd(X, Y, W) = 1 — a *unique* representation, so tuple
# equality is point equality.  A directed line through homogeneous points
# p, q is their cross product L; L . r is then det[p q r], i.e. (up to a
# positive factor) twice the signed area of the triangle (p, q, r), so
# "r weakly left of p->q" is simply L . r >= 0.

_HPoint = tuple  # (X, Y, W)


def _hpoint(x: Fraction, y: Fraction) -> _HPoint:
    w = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w)


def _hpoint_of(point) -> _HPoint:
    """The triple of a public point: the one conversion into the integer
    layer (TypeError on floats, like `Point.of`)."""
    return _hpoint(_rat(point[0]), _rat(point[1]))


def _hreduce(*v: int) -> tuple:
    """The unique representative of a homogeneous integer vector: gcd 1
    and a positive last entry (the weight W of a point, G of a map)."""
    g = math.gcd(*v)
    if v[-1] < 0:
        g = -g
    if g != 1:
        return tuple([c // g for c in v])
    return v


def _cmp_pow2(a: tuple, b: tuple, e: int) -> int:
    """The sign of a − 2^e·b for rationals given as (num, den), den > 0:
    one cross-multiplication and one shift, no Fraction."""
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    if e >= 0:
        rhs <<= e
    else:
        lhs <<= -e
    return (lhs > rhs) - (lhs < rhs)


def _hcross(p: _HPoint, q: _HPoint) -> tuple:
    # line through p and q; also used as the homogeneous cross product
    a = p[1] * q[2] - p[2] * q[1]
    b = p[2] * q[0] - p[0] * q[2]
    c = p[0] * q[1] - p[1] * q[0]
    g = math.gcd(a, b, c)
    if g > 1:
        return (a // g, b // g, c // g)
    return (a, b, c)


def _hside(line: tuple, p: _HPoint) -> int:
    return line[0] * p[0] + line[1] * p[1] + line[2] * p[2]


def _hdet3(p: _HPoint, q: _HPoint, r: _HPoint) -> int:
    return _hside(_hcross(p, q), r)


def _inside(lines: tuple, x: int, y: int, w: int) -> bool:
    """Whether the homogeneous point (x, y, w) is weakly left of every line."""
    for a, b, c in lines:
        if a * x + b * y + c * w < 0:
            return False
    return True


def _to_fraction(p: _HPoint) -> Point:
    return Point(Fraction(p[0], p[2]), Fraction(p[1], p[2]))


def _clip_halfplane(verts: Sequence[_HPoint], line: tuple) -> list:
    """One Sutherland–Hodgman pass; keeps the side where line . p >= 0."""
    sides = [_hside(line, v) for v in verts]
    out: list = []
    n = len(verts)
    for i in range(n):
        j = (i + 1) % n
        si, sj = sides[i], sides[j]
        if si >= 0:
            out.append(verts[i])
        if (si > 0 > sj) or (si < 0 < sj):
            pi, pj = verts[i], verts[j]
            # sj*pi - si*pj lies on the line and strictly between pi, pj
            out.append(
                _hreduce(
                    sj * pi[0] - si * pj[0],
                    sj * pi[1] - si * pj[1],
                    sj * pi[2] - si * pj[2],
                )
            )
    return out


def _dedupe_cyclic(verts: list) -> list:
    out = [v for i, v in enumerate(verts) if v != verts[i - 1]]
    return out


def _drop_collinear(verts: list) -> list:
    changed = True
    while changed and len(verts) >= 3:
        changed = False
        kept = []
        n = len(verts)
        for i in range(n):
            if _hdet3(verts[i - 1], verts[i], verts[(i + 1) % n]) == 0:
                changed = True
            else:
                kept.append(verts[i])
        verts = kept
    return verts


class ConvexPolygon:
    """Immutable convex polygon with exact rational vertices.

    Construction validates convexity and normalizes the vertex cycle:
    counter-clockwise, no duplicate or collinear vertices.  Clockwise
    input is accepted and reversed.
    """

    __slots__ = ("_h", "_verts", "_area", "_lines", "_canon")

    def __init__(self, points: Iterable):
        hverts = [_hpoint(_rat(x), _rat(y)) for x, y in points]
        hverts = _dedupe_cyclic(hverts)
        hverts = _drop_collinear(hverts)
        if len(hverts) < 3:
            raise GeometryError("polygon needs >= 3 non-collinear vertices")
        n = len(hverts)
        signs = {
            1 if _hdet3(hverts[i - 1], hverts[i], hverts[(i + 1) % n]) > 0 else -1
            for i in range(n)
        }
        if len(signs) != 1:
            raise GeometryError("polygon is not convex")
        if signs == {-1}:
            hverts.reverse()
        self._init_from_h(tuple(hverts))

    def _init_from_h(self, hverts: tuple) -> None:
        self._h = hverts
        self._verts: Optional[tuple] = None
        self._area: Optional[Fraction] = None
        self._lines: Optional[tuple] = None
        self._canon = None

    @classmethod
    def _from_h(cls, hverts: tuple) -> "ConvexPolygon":
        # internal fast path: caller guarantees a CCW convex cycle
        self = object.__new__(cls)
        self._init_from_h(hverts)
        return self

    @property
    def vertices(self) -> tuple:
        if self._verts is None:
            self._verts = tuple(_to_fraction(v) for v in self._h)
        return self._verts

    @property
    def area(self) -> Fraction:
        if self._area is None:
            total = Fraction(0)
            h = self._h
            n = len(h)
            for i in range(n):
                p, q = h[i], h[(i + 1) % n]
                total += Fraction(p[0] * q[1] - q[0] * p[1], p[2] * q[2])
            self._area = total / 2
        return self._area

    def _edge_lines(self) -> tuple:
        if self._lines is None:
            h = self._h
            n = len(h)
            self._lines = tuple(_hcross(h[i], h[(i + 1) % n]) for i in range(n))
        return self._lines

    def contains(self, point: Point) -> bool:
        """Closed-set membership (boundary counts as inside)."""
        return self._contains(_hpoint_of(point))

    def _contains(self, h: _HPoint) -> bool:
        return _inside(self._edge_lines(), *h)

    def edges(self):
        """Yield vertex pairs (p_i, p_{i+1}) around the boundary."""
        vs = self.vertices
        n = len(vs)
        for i in range(n):
            yield vs[i], vs[(i + 1) % n]

    def transformed(self, f: "AffineMap") -> "ConvexPolygon":
        a, b, e, c, d, t, g = f._m
        out = [
            _hreduce(a * x + b * y + e * w, c * x + d * y + t * w, g * w)
            for (x, y, w) in self._h
        ]
        if a * d < b * c:
            out.reverse()
        out = _drop_collinear(_dedupe_cyclic(out))
        if len(out) < 3:
            raise GeometryError("affine image is degenerate (singular linear part)")
        return ConvexPolygon._from_h(tuple(out))

    def _canonical(self) -> tuple:
        """(hash, canonical vertex cycle), computed once: cells are
        hashed over and over as memo keys."""
        if self._canon is None:
            h = self._h
            k = min(range(len(h)), key=lambda i: h[i])
            cycle = h[k:] + h[:k]
            self._canon = (hash(cycle), cycle)
        return self._canon

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return self._canonical()[0]

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self.vertices)
        return f"ConvexPolygon[{inner}]"


def clip(p: ConvexPolygon, q: ConvexPolygon) -> Optional[ConvexPolygon]:
    """Exact intersection of two convex polygons.

    Returns None when the intersection is empty *or* has zero area
    (polygons that merely touch along boundaries do not intersect in any
    sense this package cares about).
    """
    verts = list(p._h)
    for line in q._edge_lines():
        verts = _clip_halfplane(verts, line)
        if len(verts) < 3:
            return None
    verts = _drop_collinear(_dedupe_cyclic(verts))
    if len(verts) < 3:
        return None
    return ConvexPolygon._from_h(tuple(verts))


class SlabIndex:
    """Point location in a fixed sequence of convex polygons.

    The distinct heights of the polygons' vertices cut the plane into
    horizontal lines and the open slabs between them.  Each line and
    each slab keeps, in ascending order, the indices of the polygons
    whose closed y-range meets it.  A query bisects its height once and
    runs the closed half-plane test on that list only, so `_locate`
    returns what a scan of every polygon would: the lowest index whose
    closed polygon contains the point, or None.  Heights are kept as
    integer (numerator, denominator) pairs and compared with a query's
    triple by cross-multiplication.
    """

    __slots__ = ("_heights", "_cells")

    def __init__(self, polygons: Iterable[ConvexPolygon]):
        ranges = []
        heights = set()
        for poly in polygons:
            ys = [Fraction(y, w) for _, y, w in poly._h]
            heights.update(ys)
            ranges.append((min(ys), max(ys), poly._edge_lines()))
        ordered = sorted(heights)
        self._heights = tuple((h.numerator, h.denominator) for h in ordered)

        def meeting(lo, hi):
            return tuple(
                (i, lines) for i, (y0, y1, lines) in enumerate(ranges) if y0 <= lo and hi <= y1
            )

        # cell 2k + 1 is the line y = heights[k], cell 2k the open slab
        # just below it; nothing lies below the lowest or above the highest
        cells = [()]
        for k, h in enumerate(ordered):
            if k:
                cells.append(meeting(ordered[k - 1], h))
            cells.append(meeting(h, h))
        cells.append(())
        self._cells = tuple(cells)

    def _locate(self, h: _HPoint) -> Optional[int]:
        _, y, w = h
        heights = self._heights
        # bisect_left: k is the number of heights below y = Y/W
        k, hi = 0, len(heights)
        while k < hi:
            mid = (k + hi) // 2
            num, den = heights[mid]
            if num * w < y * den:
                k = mid + 1
            else:
                hi = mid
        on_line = k < len(heights) and heights[k][0] * w == y * heights[k][1]
        for i, lines in self._cells[2 * k + on_line]:
            if _inside(lines, *h):
                return i
        return None


def convex_difference(
    minuend: ConvexPolygon, subtrahend: ConvexPolygon
) -> List[ConvexPolygon]:
    """Decompose minuend ∖ subtrahend into interior-disjoint convex pieces.

    Standard sweep over the subtrahend's edges: the part of the minuend
    strictly outside edge i (but inside edges 0..i-1) is convex; what
    survives all edges lies inside the subtrahend and is discarded.
    Pieces of zero area are dropped, so the result is empty exactly when
    the difference has measure zero.
    """
    pieces: List[ConvexPolygon] = []
    remaining = list(minuend._h)
    for line in subtrahend._edge_lines():
        flipped = (-line[0], -line[1], -line[2])
        outside = _drop_collinear(_dedupe_cyclic(_clip_halfplane(remaining, flipped)))
        if len(outside) >= 3:
            pieces.append(ConvexPolygon._from_h(tuple(outside)))
        remaining = _clip_halfplane(remaining, line)
        if len(remaining) < 3:
            break
    return pieces


def region_difference(
    minuend: Sequence[ConvexPolygon], subtrahend: Sequence[ConvexPolygon]
) -> List[ConvexPolygon]:
    """(union of minuend) ∖ (union of subtrahend) as convex pieces."""
    pieces = list(minuend)
    for s in subtrahend:
        pieces = [frag for p in pieces for frag in convex_difference(p, s)]
    return pieces


def region_area(regions: Sequence[ConvexPolygon]) -> Fraction:
    """Exact area of the union of convex polygons (overlaps counted once).

    Each polygon contributes the area of what `region_difference` leaves
    of it once its predecessors are removed; those fragments are
    interior-disjoint, so their areas add.  A predecessor that `clip`
    shows to miss the polygon is not removed: that changes no area, but
    the sweep would still cut the polygon into more fragments.
    """
    regions = list(regions)
    total = Fraction(0)
    for i, r in enumerate(regions):
        meeting = [s for s in regions[:i] if clip(r, s) is not None]
        for frag in region_difference([r], meeting):
            total += frag.area
    return total


def symdiff_area(a: Sequence[ConvexPolygon], b: Sequence[ConvexPolygon]) -> Fraction:
    """Area of the symmetric difference of two unions of convex polygons,
    as area(a ∖ b) + area(b ∖ a).

    Zero iff the unions agree up to measure zero — the equality oracle
    for region identities.
    """
    return region_area(region_difference(a, b)) + region_area(region_difference(b, a))


@dataclass(frozen=True)
class Matrix2:
    """2x2 rational matrix, row-major: [[a, b], [c, d]]."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def of(a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike) -> "Matrix2":
        return Matrix2(_rat(a), _rat(b), _rat(c), _rat(d))

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Fraction:
        return self.a + self.d

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __str__(self) -> str:
        f = format_rational
        return f"({f(self.a)}, {f(self.b)}; {f(self.c)}, {f(self.d)})"


class AffineMap:
    """x ↦ L·x + t with rational L and t, held as the reduced homogeneous
    integer matrix [[A, B, E], [C, D, F], [0, 0, G]] in the tuple
    ``(A, B, E, C, D, F, G)``, G > 0 and gcd 1, so tuple equality is map
    equality: (x, y) ↦ ((Ax+By+E)/G, (Cx+Dy+F)/G)."""

    __slots__ = ("_m",)

    def __init__(self, linear: Matrix2, translation):
        tx, ty = translation
        entries = [_rat(v) for v in (linear.a, linear.b, tx, linear.c, linear.d, ty)]
        g = math.lcm(*(v.denominator for v in entries))
        self._m = _hreduce(*(v.numerator * (g // v.denominator) for v in entries), g)

    @classmethod
    def _of(cls, m: tuple) -> "AffineMap":
        # internal fast path: caller guarantees a reduced 7-tuple
        self = object.__new__(cls)
        self._m = m
        return self

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap._of((1, 0, 0, 0, 1, 0, 1))

    @property
    def linear(self) -> Matrix2:
        a, b, _, c, d, _, g = self._m
        return Matrix2(Fraction(a, g), Fraction(b, g), Fraction(c, g), Fraction(d, g))

    @property
    def translation(self) -> tuple:
        _, _, e, _, _, f, g = self._m
        return (Fraction(e, g), Fraction(f, g))

    def apply(self, p: Point) -> Point:
        return _to_fraction(self._apply(_hpoint_of(p)))

    def _apply(self, h: _HPoint) -> _HPoint:
        x, y, w = h
        a, b, e, c, d, f, g = self._m
        return _hreduce(a * x + b * y + e * w, c * x + d * y + f * w, g * w)

    def __call__(self, p: Point) -> Point:
        return self.apply(p)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """The map "apply `inner` first, then self"."""
        a1, b1, e1, c1, d1, f1, g1 = self._m
        a2, b2, e2, c2, d2, f2, g2 = inner._m
        return AffineMap._of(
            _hreduce(
                a1 * a2 + b1 * c2,
                a1 * b2 + b1 * d2,
                a1 * e2 + b1 * f2 + e1 * g2,
                c1 * a2 + d1 * c2,
                c1 * b2 + d1 * d2,
                c1 * e2 + d1 * f2 + f1 * g2,
                g1 * g2,
            )
        )

    def inverse(self) -> "AffineMap":
        # the adjugate of the 3x3 matrix; its last row is (0, 0, AD - BC)
        a, b, e, c, d, f, g = self._m
        det = a * d - b * c
        if det == 0:
            raise GeometryError("matrix is singular")
        return AffineMap._of(
            _hreduce(d * g, -b * g, b * f - d * e, -c * g, a * g, c * e - a * f, det)
        )

    def is_invertible(self) -> bool:
        a, b, _, c, d, _, _ = self._m
        return a * d != b * c

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return self._m == other._m

    def __hash__(self) -> int:
        return hash(self._m)

    def __repr__(self) -> str:
        f = format_rational
        tx, ty = self.translation
        return f"AffineMap({self.linear}, t=({f(tx)}, {f(ty)}))"


def _frame(o, u, v) -> AffineMap:
    """The affine map sending 0, e1, e2 to the points o, u, v."""
    hs = [_hpoint(_rat(x), _rat(y)) for x, y in (o, u, v)]
    g = math.lcm(*(w for _, _, w in hs))
    (ox, oy), (ux, uy), (vx, vy) = ((x * (g // w), y * (g // w)) for x, y, w in hs)
    return AffineMap._of(_hreduce(ux - ox, vx - ox, ox, uy - oy, vy - oy, oy, g))


def affine_from_point_pairs(pairs) -> AffineMap:
    """The unique affine map sending three given points to three targets.

    `pairs` is three (source, target) point pairs.  Raises
    CollinearSources when the source points do not span the plane.
    """
    (p1, q1), (p2, q2), (p3, q3) = pairs
    try:
        back = _frame(p1, p2, p3).inverse()
    except GeometryError:
        raise CollinearSources(
            f"source points are collinear: {p1}, {p2}, {p3}"
        ) from None
    return _frame(q1, q2, q3).compose(back)


# --------------------------------------------------------------------------
# exact eigenanalysis of 2x2 rational matrices


def _squarefree(n: int):
    """n = s^2 * r with r squarefree; returns (s, r).  Sign stays on r."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, r, p = 1, 1, 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                r *= p
        p += 1 if p == 2 else 2
    return s, sign * r * n


def _exact_sqrt(value: Fraction):
    """sqrt of a nonnegative Fraction as (rational factor, squarefree radicand)."""
    num, den = value.numerator, value.denominator
    s, r = _squarefree(num * den)
    return Fraction(s, den), r


@dataclass(frozen=True)
class Surd:
    """Exact quadratic irrational p + q*sqrt(r), r a squarefree integer.

    r < 0 encodes a complex pair; float() then refuses.
    """

    p: Fraction
    q: Fraction
    r: int

    def __float__(self) -> float:
        if self.r < 0:
            raise ValueError("complex surd has no float value")
        return float(self.p) + float(self.q) * math.sqrt(self.r)

    def __str__(self) -> str:
        f = format_rational
        sign = "+" if self.q >= 0 else "-"
        return f"{f(self.p)} {sign} {f(abs(self.q))}*sqrt({self.r})"


@dataclass(frozen=True)
class Eigen2Result:
    """Spectrum of a rational 2x2 matrix.

    `eigenvalues` lists distinct roots of the characteristic polynomial
    (Fractions when rational, Surds otherwise) with matching
    `multiplicities`; `eigenvectors` holds a primitive integer direction
    for each rational eigenvalue and None for irrational ones.
    """

    eigenvalues: tuple
    multiplicities: tuple
    eigenvectors: tuple

    def rational_pairs(self):
        """(eigenvalue, eigenvector) for the rational part of the spectrum."""
        return [
            (lam, vec)
            for lam, vec in zip(self.eigenvalues, self.eigenvectors)
            if isinstance(lam, Fraction)
        ]


def _primitive_direction(x: Fraction, y: Fraction):
    scale = math.lcm(x.denominator, y.denominator)
    ix, iy = int(x * scale), int(y * scale)
    g = math.gcd(ix, iy)
    ix, iy = ix // g, iy // g
    if ix < 0 or (ix == 0 and iy < 0):
        ix, iy = -ix, -iy
    return (ix, iy)


def _eigenvector(m: Matrix2, lam: Fraction):
    k = (m.a - lam, m.b, m.c, m.d - lam)
    if k[0] == 0 and k[1] == 0:
        if k[2] == 0 and k[3] == 0:
            return None  # scalar matrix: every direction works
        return _primitive_direction(k[3], -k[2])
    return _primitive_direction(k[1], -k[0])


def eigen2(m: Matrix2) -> Eigen2Result:
    """Exact eigenvalues (and eigenvectors where rational) of a Matrix2."""
    tr, det = m.trace(), m.det()
    disc = tr * tr - 4 * det
    if disc == 0:
        lam = tr / 2
        vec = _eigenvector(m, lam)
        return Eigen2Result((lam,), (2,), (vec if vec else (1, 0),))
    num, den = disc.numerator, disc.denominator
    if num > 0 and math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
        root = Fraction(math.isqrt(num), math.isqrt(den))
        lams = sorted(((tr + root) / 2, (tr - root) / 2), reverse=True)
        vecs = tuple(_eigenvector(m, lam) for lam in lams)
        return Eigen2Result(tuple(lams), (1, 1), vecs)
    factor, radicand = _exact_sqrt(abs(disc))
    if disc < 0:
        radicand = -radicand
    q = factor / 2
    return Eigen2Result(
        (Surd(tr / 2, q, radicand), Surd(tr / 2, -q, radicand)),
        (1, 1),
        (None, None),
    )
