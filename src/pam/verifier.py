"""Machine checks of the structural properties of the bundled map.

Every check works on exact rational geometry.  Region identities are
decided by exact region differences: a containment holds when nothing
of positive area is left of the parts once the cover is removed, an
equality when the symmetric difference has area 0, and "misses
entirely" when no part clips the region.  Matrices are compared by
equality and spectra come from the exact eigensolver.  Each `verify_*`
operation returns a `PropertyReport` whose witnesses pin the claim to
concrete polygons, points and matrices, so a failure is always
reproducible from the report alone.

`verify_map` runs the whole battery and returns the reports sorted by
their (stable) ids; `serialize_reports` renders them as deterministic
key-value text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .geometry import (
    ConvexPolygon,
    Matrix2,
    Point,
    clip,
    eigen2,
    format_rational,
    region_area,
    region_difference,
    symdiff_area,
    _primitive_direction,
)
from .mapmodel import NonInvertiblePiece, PiecewiseAffineMap, standard_map

__all__ = [
    "VerifierError",
    "ZeroUpperLeftEntry",
    "ConeSpec",
    "ConeCertificate",
    "PropertyReport",
    "cone_certificate",
    "verify_fixed_points",
    "verify_top_attraction",
    "verify_markov",
    "verify_y_factors",
    "verify_cone_stability",
    "verify_horizontal_expansion",
    "verify_preimage_NEW",
    "verify_folding",
    "verify_left_right",
    "analyze_WAS",
    "verify_map",
    "serialize_reports",
    "TABLE_PIECES",
]


class VerifierError(Exception):
    """Base class for verifier failures that are not check outcomes."""


class ZeroUpperLeftEntry(VerifierError):
    """Cone certificate undefined: the matrix kills the horizontal."""


# the four distinguished pieces whose matrices drive properties 3-7,
# in fixed reporting order
TABLE_PIECES = ("A^cB^cS", "A^tB^tA^c", "A^cB^tB^c", "C^cD^cS")

# expected cone data for those pieces (gamma1, gamma2) at C = 2
_EXPECTED_GAMMAS = {
    "A^cB^cS": (Fraction(0), Fraction(21, 40)),
    "A^tB^tA^c": (Fraction(0), Fraction(11, 20)),
    "A^cB^tB^c": (Fraction(0), Fraction(33, 40)),
    "C^cD^cS": (Fraction(0), Fraction(21, 40)),
}


@dataclass(frozen=True)
class ConeSpec:
    """The vertical cone |x| <= C * |y| of tangent directions."""

    bound: Fraction = Fraction(2)

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("cone bound must be positive")


@dataclass(frozen=True)
class ConeCertificate:
    """Sufficient-condition data for invariance of a vertical cone.

    gamma2 is None when the denominator |a| - C|c| is nonpositive, in
    which case the certificate cannot hold.
    """

    gamma1: Fraction
    gamma2: Optional[Fraction]
    holds: bool


def cone_certificate(m: Matrix2, cone: ConeSpec = ConeSpec()) -> ConeCertificate:
    """Exact invariance certificate for the cone |x| <= C|y| under m.

    The inverse of m maps the cone into itself whenever
    gamma1 = C|c/a| < 1 and gamma2 = (|d| + |b|/C) / (|a| - C|c|) <= 1.
    """
    if m.a == 0:
        raise ZeroUpperLeftEntry("certificate needs a nonzero upper-left entry")
    c = cone.bound
    gamma1 = c * abs(m.c / m.a)
    denominator = abs(m.a) - c * abs(m.c)
    if denominator <= 0:
        return ConeCertificate(gamma1, None, False)
    gamma2 = (abs(m.d) + abs(m.b) / c) / denominator
    return ConeCertificate(gamma1, gamma2, gamma1 < 1 and gamma2 <= 1)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one verified property, with exact witnesses."""

    property_id: str
    title: str
    status: str  # "pass" | "fail"
    witnesses: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status != "fail"


class _Check:
    """Accumulates witness lines and an overall verdict."""

    def __init__(self):
        self.witnesses: List[str] = []
        self.notes: List[str] = []
        self.failed = False

    def expect(self, ok: bool, witness: str, counterexample: str = ""):
        if ok:
            self.witnesses.append(witness)
        else:
            self.failed = True
            suffix = f" [{counterexample}]" if counterexample else ""
            self.witnesses.append(f"FAIL: {witness}{suffix}")

    def info(self, witness: str):
        self.witnesses.append(witness)

    def note(self, text: str):
        self.notes.append(text)

    def report(self, property_id: str, title: str) -> PropertyReport:
        return PropertyReport(
            property_id,
            title,
            "fail" if self.failed else "pass",
            tuple(self.witnesses),
            tuple(self.notes),
        )


# (property id, public check), one entry per @_property; verify_map
# reads it at call time
_VERIFIERS: List[Tuple[str, Callable]] = []


def _property(property_id: str, title: str):
    """Make a check body ``body(t, chk)`` into ``verify(t) -> PropertyReport``
    reported under `property_id` and `title`, and register it in
    `_VERIFIERS`.

    A flattened piece has no exact inverse, so the images and preimages
    a property is stated in cannot be formed: the property then fails,
    naming the piece after the witnesses already gathered.
    """

    def decorate(body: Callable) -> Callable:
        def verify(t: PiecewiseAffineMap) -> PropertyReport:
            chk = _Check()
            try:
                body(t, chk)
            except NonInvertiblePiece as exc:
                chk.expect(False, "every piece is invertible", f"NonInvertiblePiece: {exc}")
            return chk.report(property_id, title)

        # not functools.wraps: its __wrapped__ would show body's signature
        verify.__name__ = verify.__qualname__ = body.__name__
        verify.__doc__ = body.__doc__
        _VERIFIERS.append((property_id, verify))
        return verify

    return decorate


def _decimal(value: Fraction) -> str:
    """Exact decimal string for fractions with 2- and 5-smooth
    denominators; anything else falls back to p/q."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return format_rational(value)
    k = max(twos, fives)
    if k == 0:
        return str(value.numerator)
    digits = str(abs(int(value * 10**k))).rjust(k + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _contained(
    parts: Sequence[ConvexPolygon], cover: Sequence[ConvexPolygon]
) -> bool:
    """union(parts) ⊆ union(cover), up to measure zero."""
    return not region_difference(parts, cover)


def _poly_str(poly: ConvexPolygon) -> str:
    return " ".join(str(v) for v in poly.vertices)


def _pieces_inside(t: PiecewiseAffineMap, region: ConvexPolygon):
    """The pieces whose domain lies in `region`, up to measure zero."""
    return [p for p in t.pieces if _contained([p.domain], [region])]


def _table_pieces(t: PiecewiseAffineMap):
    return [(label, t.piece_with_corners(label)) for label in TABLE_PIECES]


# ---------------------------------------------------------------------------
# the ten checks


def _segment_interval(
    domain: ConvexPolygon, a: Point, b: Point
) -> Optional[Tuple[Fraction, Fraction]]:
    """The parameters s in [0, 1] with a + s(b − a) in `domain`, as an
    interval (lo, hi) with lo < hi; None when the segment meets the
    domain in at most one point."""
    lo, hi = Fraction(0), Fraction(1)
    for u, v in domain.edges():
        # signed side of the CCW edge u -> v, linear along the segment
        fa, fb = ((v.x - u.x) * (p.y - u.y) - (v.y - u.y) * (p.x - u.x) for p in (a, b))
        if fa < 0 and fb < 0:
            return None
        if fa < 0:
            lo = max(lo, fa / (fa - fb))
        elif fb < 0:
            hi = min(hi, fa / (fa - fb))
    return (lo, hi) if lo < hi else None


@_property("01-fixed-points", "poles and the fixed segment")
def verify_fixed_points(t: PiecewiseAffineMap, chk: _Check) -> None:
    """N and S are fixed, and the whole segment from W^c to S is fixed.

    The segment is certified piece by piece: an affine map that fixes
    both ends of a sub-segment fixes all of it, so it suffices that each
    piece fixes the ends of its part of [W^c S] and that those parts
    cover the segment.
    """
    for name in ("N", "S"):
        p = t.vertex(name)
        chk.expect(t.evaluate(p) == p, f"T({name}) = {name} = {p}")
    w_c, s = t.vertex("W^c"), t.vertex("S")
    intervals = []
    for piece in t.pieces:
        interval = _segment_interval(piece.domain, w_c, s)
        if interval is None:
            continue
        intervals.append(interval)
        ends = [w_c + (s - w_c).scaled(k) for k in interval]
        moved = [p for p in ends if piece.map(p) != p]
        chk.expect(
            not moved,
            f"{piece.name} fixes both ends of its part [{ends[0]} {ends[1]}] "
            f"of [W^c S], hence all of it",
            ", ".join(f"T({p}) = {piece.map(p)}" for p in moved),
        )
    reach = Fraction(0)
    for lo, hi in sorted(intervals):
        if lo > reach:
            break
        reach = max(reach, hi)
    chk.expect(
        reach == 1,
        f"these parts cover [W^c S] = [{w_c} {s}]",
        f"first gap at {w_c + (s - w_c).scaled(reach)}",
    )


@_property("02-top-attraction", "absorption into the top triangle")
def verify_top_attraction(t: PiecewiseAffineMap, chk: _Check) -> None:
    """The top triangle is forward invariant and contracts onto N.

    The certificate is read from the matrices: the pieces tiling NWE all
    send y to 1 + y/2, so 2 − y halves exactly at every step, and NWE
    sits in the wedge |x| <= (3/2)(2 − y) below N with 2 − y <= 1.
    Together with forward invariance this bounds every orbit of NWE by
    ‖Tᵏp − N‖∞ <= (3/2)·2⁻ᵏ.
    """
    top = t.region("NWE")
    base_images_up = True
    for name in "WABOCDE":
        image = t.evaluate(t.vertex(name))
        if image.y != Fraction(3, 2):
            base_images_up = False
    chk.expect(
        base_images_up,
        "every vertex of the base row maps onto the line y = 3/2 (above y = 1)",
    )
    n, w = t.vertex("N"), t.vertex("W")
    w_img = t.evaluate(w)
    on_nw = (w.x - n.x) * (w_img.y - n.y) == (w_img.x - n.x) * (w.y - n.y)
    chk.expect(on_nw, f"T(W) = {w_img} lies on the edge [N W]")
    chk.expect(
        _contained(t.region_image(top), [top]),
        "T(NWE) ⊆ NWE (forward invariance, exact)",
    )

    inside = _pieces_inside(t, top)
    chk.expect(
        symdiff_area([p.domain for p in inside], [top]) == 0,
        f"NWE is tiled by {len(inside)} pieces (symmetric difference 0): "
        + ", ".join(p.name for p in inside),
    )
    for piece in inside:
        m = piece.map
        chk.expect(
            (m.linear.c, m.linear.d, m.translation[1]) == (0, Fraction(1, 2), 1),
            f"{piece.name}: bottom row (0, 1/2), y-translation 1, "
            f"so 2 − y halves exactly",
            f"bottom row ({format_rational(m.linear.c)}, "
            f"{format_rational(m.linear.d)}), y-translation "
            f"{format_rational(m.translation[1])}",
        )
    # NWE and both bounds are convex, so the corners decide
    wedge = [v for v in top.vertices if abs(v.x) > Fraction(3, 2) * (2 - v.y)]
    chk.expect(
        not wedge and all(v.y >= 1 for v in top.vertices),
        "NWE ⊆ {|x| <= (3/2)(2 − y)} and 2 − y <= 1 on NWE",
        f"corners outside: {', '.join(str(v) for v in wedge)}",
    )
    chk.expect(
        not chk.failed,
        "‖Tᵏp − N‖∞ <= (3/2)·2⁻ᵏ for every p ∈ NWE and k >= 0",
    )


@_property("03-markov", "coding triangles cover ADS exactly")
def verify_markov(t: PiecewiseAffineMap, chk: _Check) -> None:
    """Both coding triangles map exactly onto the triangle A D S."""
    big = t.region("ADS")
    chk.expect(big.area == 1, f"area(ADS) = {format_rational(big.area)}")
    for label in ("A^tB^tS", "C^cD^cS"):
        diff = symdiff_area(t.region_image(t.region(label)), [big])
        chk.expect(
            diff == 0,
            f"T({label}) = ADS exactly (symmetric difference 0)",
            f"symdiff area {format_rational(diff)}",
        )


@_property("04-y-factors", "vertical factors on the coding pieces")
def verify_y_factors(t: PiecewiseAffineMap, chk: _Check) -> None:
    """Vertical scaling factors of the pieces inside the left coding
    triangle, and the exact factor 2 on the right one."""
    region = t.region("A^tB^tS")
    inside = _pieces_inside(t, region)
    chk.expect(
        len(inside) == 3,
        f"A^tB^tS is tiled by {len(inside)} pieces: "
        + ", ".join(p.name for p in inside),
    )
    for piece in inside:
        m = piece.map.linear
        ok = m.c == 0 and Fraction(1, 2) <= m.d <= Fraction(5, 2)
        chk.expect(
            ok,
            f"{piece.name}: bottom row (0, {format_rational(m.d)}), "
            f"1/2 <= factor <= 5/2",
            f"bottom row ({format_rational(m.c)}, {format_rational(m.d)})",
        )
    low = t.piece_with_corners("A^cB^cS").map.linear
    chk.expect(low.d == Fraction(1, 2), "A^cB^cS contracts y exactly by 1/2")
    right = t.piece_with_corners("C^cD^cS").map.linear
    chk.expect(
        (right.c, right.d) == (0, 2), "C^cD^cS bottom row is exactly (0, 2)"
    )
    chk.note(
        "the two upper pieces expand y by 5/2 even though the informal "
        "one-line description of this property says y shrinks by a factor "
        "of at most 2; both the per-piece factors and that description are "
        "recorded here without reconciling them"
    )


@_property("05-cone-stability", "stability of the vertical cone")
def verify_cone_stability(t: PiecewiseAffineMap, chk: _Check) -> None:
    """The vertical cone |x| <= 2|y| is stable for all coding matrices,
    singly and under every ordered product."""
    cone = ConeSpec(Fraction(2))
    mats = []
    for label, piece in _table_pieces(t):
        m = piece.map.linear
        mats.append(m)
        cert = cone_certificate(m, cone)
        want1, want2 = _EXPECTED_GAMMAS[label]
        ok = cert.holds and cert.gamma1 == want1 and cert.gamma2 == want2
        gamma2 = "-" if cert.gamma2 is None else _decimal(cert.gamma2)
        chk.expect(
            ok,
            f"{label}: gamma = {_decimal(cert.gamma1)}, {gamma2}",
            f"expected {_decimal(want1)}, {_decimal(want2)}",
        )
    products_ok = 0
    first_bad = None
    for m1 in mats:
        for m2 in mats:
            if cone_certificate(m1 @ m2, cone).holds:
                products_ok += 1
            elif first_bad is None:
                first_bad = (m1, m2)
    chk.expect(
        products_ok == len(mats) ** 2,
        f"closure under composition: all {len(mats) ** 2} ordered products "
        f"keep the cone",
        f"first failing product {first_bad}",
    )


@_property("06-horizontal-expansion", "horizontal expansion by >= 4")
def verify_horizontal_expansion(t: PiecewiseAffineMap, chk: _Check) -> None:
    """Coding matrices preserve the horizontal and expand it by >= 4."""
    for label, piece in _table_pieces(t):
        m = piece.map.linear
        chk.expect(
            m.c == 0 and abs(m.a) >= 4,
            f"{label}: horizontal preserved (c = 0), |a| = "
            f"{format_rational(abs(m.a))} >= 4",
            f"matrix {m}",
        )


def _preimage_parts(t: PiecewiseAffineMap):
    """Preimage of the top triangle, its three predicted components, and
    the residual pieces left over after removing them."""
    top = t.region("NEW")
    preimage = t.region_preimage(top)
    predicted = [t.region("NWE"), t.region("WW^tO^tO"), t.region("C^cE^cEC")]
    residual = region_difference(preimage, predicted)
    return top, preimage, predicted, residual


@_property("07-preimage-new", "preimage of the top triangle")
def verify_preimage_NEW(t: PiecewiseAffineMap, chk: _Check) -> None:
    """T^{-1}(NEW) decomposes into the three predicted regions plus a
    residual confined to the central quadrilateral O O^c C^c C."""
    top, preimage, predicted, residual = _preimage_parts(t)
    for label, region in zip(("NWE", "WW^tO^tO", "C^cE^cEC"), predicted):
        chk.expect(
            _contained([region], preimage),
            f"{label} ⊆ T⁻¹(NEW)",
        )
    central = t.region("OO^cC^cC")
    chk.expect(
        _contained(residual, [central]),
        "residual Δ := T⁻¹(NEW) minus the three regions lies in OO^cC^cC",
        f"residual area {format_rational(region_area(residual))}",
    )
    left_coding = t.piece_with_corners("A^cB^cS").domain
    chk.expect(
        all(clip(part, left_coding) is None for part in preimage),
        "T⁻¹(NEW) misses the piece A^cB^cS entirely",
    )
    images = [img for frag in residual for img in t.region_image(frag)]
    chk.expect(
        _contained(images, [top]),
        "T(Δ) ⊆ NEW (points of Δ arrive in the top triangle in one step)",
    )
    chk.info(f"area(T⁻¹(NEW)) = {format_rational(region_area(preimage))}")
    chk.info(f"area(Δ) = {format_rational(region_area(residual))}")
    for frag in residual:
        chk.info(f"Δ fragment: {_poly_str(frag)}")


@_property("08-folding", "central sectors fold to the right")
def verify_folding(t: PiecewiseAffineMap, chk: _Check) -> None:
    """The two central bottom sectors fold into the right half plus the
    top triangle."""
    top, _, _, residual = _preimage_parts(t)
    right_half = t.region("DES")
    for label in ("BOS", "OSC"):
        image = t.region_image(t.region(label))
        strict = _contained(image, [right_half, top])
        with_residual = strict or _contained(image, [right_half, top] + residual)
        chk.expect(
            with_residual,
            f"T({label}) ⊆ DES ∪ NEW" + ("" if strict else " ∪ Δ"),
        )
        if strict and label == "OSC":
            chk.note(
                "the Δ allowance for OSC is not needed: its image already "
                "fits in DES ∪ NEW"
            )
    images = [img for frag in residual for img in t.region_image(frag)]
    chk.expect(_contained(images, [top]), "T(Δ) ⊆ NEW")


@_property("09-left-right", "hand-off between the two halves")
def verify_left_right(t: PiecewiseAffineMap, chk: _Check) -> None:
    """Both halves hand their points to the left half or the top, and the
    small left triangle W^cA^cS is invariant."""
    cover = [t.region("WAS"), t.region("NEW")]
    for label in ("DES", "WAS"):
        chk.expect(
            _contained(t.region_image(t.region(label)), cover),
            f"T({label}) ⊆ WAS ∪ NEW",
        )
    small = t.region("W^cA^cS")
    chk.expect(
        _contained(t.region_image(small), [small]),
        "T(W^cA^cS) ⊆ W^cA^cS",
    )


@_property("10-was-analysis", "spectral analysis on the left half")
def analyze_WAS(t: PiecewiseAffineMap, chk: _Check) -> None:
    """Spectral picture on the left-half pieces: expansion, the neutral
    direction, the pointwise-fixed segment, and the two pieces swallowed
    by the top triangle."""
    expanding = t.piece_with_corners("W^tW^cA^t")
    eig = eigen2(expanding.map.linear)
    # str gives p/q for a Fraction, as format_rational does, and a surd
    # for an irrational eigenvalue
    values = ", ".join(str(v) for v in eig.eigenvalues)
    chk.expect(
        set(eig.eigenvalues) == {Fraction(5, 3), Fraction(5, 4)},
        f"{expanding.name}: eigenvalues {values}, both > 1 (expanding)",
        f"matrix {expanding.map.linear}",
    )

    neutral = t.piece_with_corners("W^cA^cA^t")
    eig = eigen2(neutral.map.linear)
    values = ", ".join(str(v) for v in eig.eigenvalues)
    pairs = dict(eig.rational_pairs())
    chk.expect(
        set(eig.eigenvalues) == {Fraction(5, 2), Fraction(1)}
        and pairs.get(Fraction(1)) == (1, 2),
        f"{neutral.name}: eigenvalues {values}; eigenvector (1, 2) for 1",
        f"matrix {neutral.map.linear}, pairs {pairs}",
    )

    segment_piece = t.piece_with_corners("W^cA^cS")
    eig = eigen2(segment_piece.map.linear)
    pairs = dict(eig.rational_pairs())
    w_c = t.vertex("W^c")
    along = _primitive_direction(w_c.x, w_c.y)
    a_c = t.vertex("A^c")
    transverse = _primitive_direction(a_c.x, a_c.y)
    ok = (
        pairs.get(Fraction(1)) == along
        and Fraction(1, 2) in pairs
        and abs(Fraction(1, 2)) < 1
        and pairs[Fraction(1, 2)] == transverse
    )
    chk.expect(
        ok,
        f"{segment_piece.name}: eigenvalue 1 along [W^c S] (direction "
        f"{along}), transverse eigenvalue 1/2 with direction {transverse}",
        f"pairs {pairs}",
    )
    midpoint = Point(w_c.x / 2, w_c.y / 2)
    chk.expect(
        t.evaluate(midpoint) == midpoint,
        f"midpoint of [W^c S] = {midpoint} is fixed",
    )

    preimage = t.region_preimage(t.region("NEW"))
    pocket = t.region("WW^tA^tA")
    swallowed = _pieces_inside(t, pocket)
    names = ", ".join(p.name for p in swallowed)
    chk.expect(
        len(swallowed) == 2,
        f"the pocket W W^t A^t A splits into 2 pieces: {names}",
    )
    for piece in swallowed:
        chk.expect(
            _contained([piece.domain], preimage),
            f"{piece.name} ⊆ T⁻¹(NEW) (leaves for the top in one step)",
        )


def verify_map(t: Optional[PiecewiseAffineMap] = None) -> List[PropertyReport]:
    """Run every check against `t` (default: the bundled map).

    A property that needs the inverse of a flattened piece is reported
    as failed, naming the piece; the others are still checked.
    """
    if t is None:
        t = standard_map()
    return sorted((fn(t) for _, fn in _VERIFIERS), key=lambda r: r.property_id)


def serialize_reports(reports: Sequence[PropertyReport]) -> str:
    """Deterministic key-value rendering of a report list."""
    blocks = []
    for r in reports:
        lines = [
            f"property: {r.property_id}",
            f"title: {r.title}",
            f"status: {r.status}",
        ]
        lines.extend(f"witness: {w}" for w in r.witnesses)
        lines.extend(f"note: {n}" for n in r.notes)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
