from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from pam.geometry import (
    AffineMap,
    CollinearSources,
    ConvexPolygon,
    GeometryError,
    Matrix2,
    Point,
    SlabIndex,
    Surd,
    affine_from_point_pairs,
    clip,
    convex_difference,
    eigen2,
    format_rational,
    parse_rational,
    region_area,
    region_difference,
    symdiff_area,
    _hpoint,
)


def poly(*pts):
    return ConvexPolygon([Point.of(x, y) for x, y in pts])


UNIT_SQUARE = poly((0, 0), (1, 0), (1, 1), (0, 1))


class TestRationalText:
    def test_roundtrip(self):
        assert parse_rational("-9/20") == F(-9, 20)
        assert parse_rational(" 3 ") == 3
        assert format_rational(F(3, 2)) == "3/2"
        assert format_rational(F(4, 2)) == "2"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")
        with pytest.raises(ValueError):
            parse_rational("a/b")


class TestConvexPolygon:
    def test_normalizes_orientation_and_collinear(self):
        cw = poly((0, 0), (0, 1), (1, 1), (1, 0))
        assert cw == UNIT_SQUARE
        padded = poly((0, 0), ("1/2", 0), (1, 0), (1, 1), (0, 1))
        assert padded == UNIT_SQUARE
        assert len(padded.vertices) == 4

    def test_rejects_degenerate(self):
        with pytest.raises(GeometryError):
            poly((0, 0), (1, 1), (2, 2))
        with pytest.raises(GeometryError):
            poly((0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            poly((0.5, 0), (1, 0), (1, 1))

    def test_area_and_bounds(self):
        q = poly(("3/2", 1), (0, 2), ("-3/2", 1), (0, 0))
        assert q.area == 3

    def test_contains_is_closed(self):
        assert UNIT_SQUARE.contains(Point.of("1/2", "1/2"))
        assert UNIT_SQUARE.contains(Point.of(0, 0))
        assert UNIT_SQUARE.contains(Point.of(1, "1/2"))
        assert not UNIT_SQUARE.contains(Point.of("1001/1000", "1/2"))


class TestClip:
    def test_self_intersection_is_identity(self):
        assert clip(UNIT_SQUARE, UNIT_SQUARE) == UNIT_SQUARE

    def test_shared_edge_only_is_empty(self):
        shifted = poly((1, 0), (2, 0), (2, 1), (1, 1))
        assert clip(UNIT_SQUARE, shifted) is None

    def test_shared_corner_only_is_empty(self):
        diagonal = poly((1, 1), (2, 1), (2, 2), (1, 2))
        assert clip(UNIT_SQUARE, diagonal) is None
        assert clip(diagonal, UNIT_SQUARE) is None

    def test_triangle_by_half_square(self):
        tri = poly((0, 0), (2, 0), (0, 2))
        half = poly((0, 0), (1, 0), (1, 2), (0, 2))
        expected = poly((0, 0), (1, 0), (1, 1), (0, 2))
        assert clip(tri, half) == expected
        assert clip(half, tri) == expected

    def test_disjoint(self):
        far = poly((5, 5), (6, 5), (6, 6))
        assert clip(UNIT_SQUARE, far) is None


class TestRegionArea:
    def test_single_and_duplicate(self):
        assert region_area([UNIT_SQUARE]) == 1
        assert region_area([UNIT_SQUARE, UNIT_SQUARE]) == 1

    def test_parallelogram_domain(self):
        q = poly((0, 2), ("-3/2", 1), (0, 0), ("3/2", 1))
        assert region_area([q]) == 3

    def test_partial_overlap(self):
        shifted = poly(("1/2", 0), ("3/2", 0), ("3/2", 1), ("1/2", 1))
        assert region_area([UNIT_SQUARE, shifted]) == F(3, 2)
        assert clip(UNIT_SQUARE, shifted).area == F(1, 2)

    def test_permutation_invariance(self):
        a = poly((0, 0), (2, 0), (2, 2), (0, 2))
        b = poly((1, 1), (3, 1), (3, 3), (1, 3))
        c = poly((0, 0), (1, 0), (1, 1), (0, 1))
        assert region_area([a, b, c]) == region_area([c, b, a]) == region_area([b, a, c, a])


class TestSymdiffArea:
    def test_identical_unions(self):
        assert symdiff_area([UNIT_SQUARE], [UNIT_SQUARE]) == 0

    def test_against_empty(self):
        assert symdiff_area([UNIT_SQUARE], []) == 1

    def test_split_versus_whole(self):
        left = poly((0, 0), ("1/2", 0), ("1/2", 1), (0, 1))
        right = poly(("1/2", 0), (1, 0), (1, 1), ("1/2", 1))
        assert symdiff_area([left, right], [UNIT_SQUARE]) == 0

    def test_detects_difference(self):
        bigger = poly((0, 0), (2, 0), (2, 1), (0, 1))
        assert symdiff_area([UNIT_SQUARE], [bigger]) == 1


class TestAffineSolve:
    def test_contraction_piece_matrix(self):
        f = affine_from_point_pairs(
            [
                (Point.of("-1/2", "1/2"), Point.of("-1/4", "1/4")),
                (Point.of("-9/20", "1/2"), Point.of("1/4", "1/4")),
                (Point.of(0, 0), Point.of(0, 0)),
            ]
        )
        assert f.linear == Matrix2.of(10, "19/2", 0, "1/2")
        assert f.translation == (0, 0)

    def test_expansion_piece_matrix(self):
        f = affine_from_point_pairs(
            [
                (Point.of("9/20", "1/2"), Point.of(1, 1)),
                (Point.of("1/2", "1/2"), Point.of(-1, 1)),
                (Point.of(0, 0), Point.of(0, 0)),
            ]
        )
        assert f.linear == Matrix2.of(-40, 38, 0, 2)
        assert f.translation == (0, 0)

    def test_identity_pairs(self):
        pts = [Point.of(0, 0), Point.of(1, 0), Point.of(0, 1)]
        f = affine_from_point_pairs([(p, p) for p in pts])
        assert f == AffineMap.identity()

    def test_collinear_sources_rejected(self):
        with pytest.raises(CollinearSources):
            affine_from_point_pairs(
                [
                    (Point.of(0, 0), Point.of(0, 0)),
                    (Point.of(1, 1), Point.of(2, 2)),
                    (Point.of(2, 2), Point.of(4, 4)),
                ]
            )

    def test_compose_and_inverse(self):
        f = AffineMap(Matrix2.of(2, 1, 0, 3), (F(1), F(-2)))
        g = AffineMap(Matrix2.of(1, 0, 1, 1), (F(0), F(5)))
        p = Point.of("3/7", "-2/5")
        assert f.compose(g)(p) == f(g(p))
        assert f.inverse()(f(p)) == p

    def test_equal_maps_written_differently(self):
        f = AffineMap(Matrix2.of("2/4", 3, 0, "6/8"), ("10/20", -2))
        g = AffineMap(Matrix2.of("1/2", 3, 0, "3/4"), ("1/2", -2))
        assert f == g and hash(f) == hash(g)
        # the product of x -> 2x and x -> x/2 carries the common factor 2
        double = AffineMap(Matrix2.of(2, 0, 0, 2), (0, 0))
        half = AffineMap(Matrix2.of("1/2", 0, 0, "1/2"), (0, 0))
        assert double.compose(half) == AffineMap.identity()
        assert hash(double.compose(half)) == hash(AffineMap.identity())
        assert AffineMap.identity() == AffineMap(Matrix2.identity(), (0, 0))

    def test_singular_inverse_rejected(self):
        for linear in (Matrix2.of(1, 2, 2, 4), Matrix2.of(0, 0, 0, 0)):
            f = AffineMap(linear, (1, "1/3"))
            assert not f.is_invertible()
            with pytest.raises(GeometryError):
                f.inverse()


class TestEigen2:
    def test_rational_pair_with_eigenvector(self):
        res = eigen2(Matrix2.of(2, "-1/2", -1, "3/2"))
        assert res.eigenvalues == (F(5, 2), F(1))
        assert res.multiplicities == (1, 1)
        assert res.eigenvectors[1] == (1, 2)

    def test_upper_triangular(self):
        res = eigen2(Matrix2.of("5/4", "5/8", 0, "5/3"))
        assert set(res.eigenvalues) == {F(5, 3), F(5, 4)}

    def test_identity_double(self):
        res = eigen2(Matrix2.identity())
        assert res.eigenvalues == (F(1),)
        assert res.multiplicities == (2,)

    def test_characteristic_polynomial_root(self):
        m = Matrix2.of(3, "1/3", "1/7", -2)
        for lam, vec in eigen2(m).rational_pairs():
            assert lam * lam - m.trace() * lam + m.det() == 0
            if vec is not None:
                vx, vy = F(vec[0]), F(vec[1])
                assert (m.a * vx + m.b * vy, m.c * vx + m.d * vy) == (lam * vx, lam * vy)

    def test_surd_case(self):
        res = eigen2(Matrix2.of(0, 2, 1, 0))
        lam = res.eigenvalues[0]
        assert isinstance(lam, Surd)
        assert (lam.p, lam.q, lam.r) == (0, 1, 2)
        assert res.eigenvectors == (None, None)

    def test_complex_pair(self):
        res = eigen2(Matrix2.of(0, -1, 1, 0))
        lam = res.eigenvalues[0]
        assert isinstance(lam, Surd) and lam.r == -1
        with pytest.raises(ValueError):
            float(lam)

    def test_surd_radicand_squarefree(self):
        # disc = 8: sqrt must come out as 1*sqrt(2) scaled, radicand 2
        res = eigen2(Matrix2.of(1, 2, 1, -1))
        lam = res.eigenvalues[0]
        assert lam.r == 3  # tr=0, det=-3, disc=12 -> sqrt(12)=2*sqrt(3)
        assert lam.q == 1


# ---------------------------------------------------------------------------
# property tests


def _zigzag_rational(den, k):
    # k = 0, 1, 2, 3, 4, ... gives numerators 0, 1, -1, 2, -2, ..., so
    # shrinking heads to 0 and to denominator 1
    k %= 16 * den + 1
    return F((k + 1) // 2 if k % 2 else -(k // 2), den)


# every p/q with |p/q| <= 8 and q <= 12, without st.fractions' costly validation
rationals = st.builds(_zigzag_rational, st.integers(1, 12), st.integers(0, 16 * 12))


def _points(n):
    return st.lists(
        st.tuples(rationals, rationals).map(lambda t: Point(t[0], t[1])),
        min_size=n,
        max_size=n,
    )


def _triangle_or_none(pts):
    try:
        return ConvexPolygon(pts)
    except GeometryError:
        return None


triangles = _points(3).map(_triangle_or_none).filter(lambda t: t is not None)


@given(triangles, triangles)
def test_clip_contained_in_both(t1, t2):
    c = clip(t1, t2)
    if c is not None:
        assert c.area <= min(t1.area, t2.area)
        for v in c.vertices:
            assert t1.contains(v) and t2.contains(v)


@given(triangles)
def test_clip_idempotent(t):
    assert clip(t, t) == t


@given(triangles, triangles)
def test_clip_commutes(t1, t2):
    a, b = clip(t1, t2), clip(t2, t1)
    assert a == b


@given(st.lists(triangles, min_size=1, max_size=4), st.randoms())
def test_region_area_permutation_invariant(ts, rng):
    shuffled = list(ts)
    rng.shuffle(shuffled)
    assert region_area(ts) == region_area(shuffled)
    assert region_area(ts) == region_area(ts + [ts[0]])


def _union_area_reference(polys):
    """Union area by incremental inclusion–exclusion: each polygon adds its
    area minus the union of its overlaps with its predecessors."""
    total = F(0)
    seen = []
    for p in polys:
        overlaps = [c for c in (clip(p, s) for s in seen) if c is not None]
        total += p.area - _union_area_reference(overlaps)
        seen.append(p)
    return total


def _symdiff_area_reference(a, b):
    meet = [c for pa in a for c in (clip(pa, pb) for pb in b) if c is not None]
    return _union_area_reference(a) + _union_area_reference(b) - 2 * _union_area_reference(meet)


@given(st.lists(triangles, min_size=1, max_size=3), st.lists(triangles, max_size=2))
def test_areas_match_inclusion_exclusion(ts, us):
    # ts, then each pairwise overlap (nested in both parents), then the
    # first triangle again: the same union, with nesting and duplicates
    nested = ts + [c for i, a in enumerate(ts) for b in ts[:i] if (c := clip(a, b)) is not None]
    nested += ts[:1]
    assert region_area(nested) == _union_area_reference(nested)
    assert symdiff_area(nested, ts) == 0
    b = us + ts[:1]
    assert symdiff_area(ts, b) == _symdiff_area_reference(ts, b)
    assert region_area(region_difference(ts, b)) == _union_area_reference(ts + b) - _union_area_reference(b)


@given(st.lists(triangles, min_size=1, max_size=4), _points(2))
def test_slab_index_finds_the_lowest_containing_polygon(ts, pts):
    # vertices and edge midpoints sit on the index's slab lines and on
    # polygon boundaries, where an off-by-one in the bisection shows
    probes = pts + [p for t in ts for a, b in t.edges() for p in (a, (a + b).scaled(F(1, 2)))]
    index = SlabIndex(ts)
    for p in probes:
        want = next((i for i, t in enumerate(ts) if t.contains(p)), None)
        assert index._locate(_hpoint(p.x, p.y)) == want


# Fraction references for AffineMap: entries (a, b, c, d, e, f) stand for
# x -> (a x + b y + e, c x + d y + f), computed the way the map was
# computed before it was held as one integer matrix

affine_entries = st.tuples(*[rationals] * 6)


def _affine(v):
    a, b, c, d, e, f = v
    return AffineMap(Matrix2(a, b, c, d), (e, f))


def _entries(m):
    lin = m.linear
    return (lin.a, lin.b, lin.c, lin.d, *m.translation)


def _ref_apply(v, p):
    a, b, c, d, e, f = v
    return Point(a * p.x + b * p.y + e, c * p.x + d * p.y + f)


def _ref_compose(v, w):
    a, b, c, d, e, f = v
    a2, b2, c2, d2, e2, f2 = w
    return (
        a * a2 + b * c2, a * b2 + b * d2, c * a2 + d * c2, c * b2 + d * d2,
        a * e2 + b * f2 + e, c * e2 + d * f2 + f,
    )


def _ref_inverse(v):
    a, b, c, d, e, f = v
    det = a * d - b * c
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    return (ia, ib, ic, id_, -(ia * e + ib * f), -(ic * e + id_ * f))


def _cramer(src, dst):
    """Entries of the map sending src to dst by Cramer's rule, or None."""
    (x1, y1), (x2, y2), (x3, y3) = src
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if det == 0:
        return None

    def row(v1, v2, v3):
        d1, d2 = v2 - v1, v3 - v1
        m = (d1 * (y3 - y1) - d2 * (y2 - y1)) / det
        n = ((x2 - x1) * d2 - (x3 - x1) * d1) / det
        return m, n, v1 - m * x1 - n * y1

    a, b, e = row(*(q.x for q in dst))
    c, d, f = row(*(q.y for q in dst))
    return (a, b, c, d, e, f)


@given(affine_entries, affine_entries, _points(1))
def test_affine_map_matches_fraction_reference(v, w, pts):
    f, g = _affine(v), _affine(w)
    assert _entries(f) == v
    assert f(pts[0]) == _ref_apply(v, pts[0])
    assert _entries(f.compose(g)) == _ref_compose(v, w)
    if f.is_invertible():
        assert _entries(f.inverse()) == _ref_inverse(v)
    else:
        assert v[0] * v[3] == v[1] * v[2]
        with pytest.raises(GeometryError):
            f.inverse()


@given(_points(3), _points(3))
def test_affine_solve_hits_targets(src, dst):
    try:
        f = affine_from_point_pairs(list(zip(src, dst)))
    except CollinearSources:
        assert _cramer(src, dst) is None
        return
    for p, q in zip(src, dst):
        assert f(p) == q
    assert _entries(f) == _cramer(src, dst)


@given(triangles, affine_entries)
def test_transformed_is_the_counter_clockwise_image(tri, v):
    a, b, c, d, e, f = v
    assume(a * d != b * c)
    # negating the first row flips the sign of det L
    for m in (_affine(v), _affine((-a, -b, c, d, e, f))):
        image = tri.transformed(m)
        assert image == ConvexPolygon([m(p) for p in tri.vertices])
        assert image.area == abs(m.linear.det()) * tri.area
        vs = image.vertices
        for i in range(len(vs)):
            (ux, uy), (wx, wy) = vs[i] - vs[i - 1], vs[(i + 1) % len(vs)] - vs[i]
            assert ux * wy - uy * wx > 0


@given(triangles, triangles, affine_entries)
def test_clip_commutes_with_invertible_maps(t1, t2, v):
    # the step of the cylinder descent rests on clip(hX, hY) = h clip(X, Y)
    a, b, c, d, e, f = v
    assume(a * d != b * c)
    inner = clip(t1, t2)
    # negating the first row flips the sign of det L
    for h in (_affine(v), _affine((-a, -b, c, d, e, f))):
        outer = clip(t1.transformed(h), t2.transformed(h))
        if inner is None:
            assert outer is None
        else:
            assert outer == inner.transformed(h)


class TestConvexDifference:
    def test_punches_hole_into_ring_pieces(self):
        sq = poly((0, 0), (4, 0), (4, 4), (0, 4))
        inner = poly((1, 1), (3, 1), (3, 3), (1, 3))
        d = convex_difference(sq, inner)
        assert region_area(d) == 12
        assert all(clip(piece, inner) is None for piece in d)

    def test_disjoint_subtrahend_changes_nothing(self):
        sq = poly((0, 0), (4, 0), (4, 4), (0, 4))
        far = poly((10, 10), (11, 10), (10, 11))
        assert symdiff_area(convex_difference(sq, far), [sq]) == 0

    def test_covered_minuend_vanishes(self):
        sq = poly((0, 0), (4, 0), (4, 4), (0, 4))
        inner = poly((1, 1), (3, 1), (3, 3), (1, 3))
        assert convex_difference(inner, sq) == []


@given(triangles, triangles)
def test_difference_complements_intersection(t1, t2):
    d = convex_difference(t1, t2)
    inter = clip(t1, t2)
    inter_area = inter.area if inter is not None else F(0)
    assert region_area(d) == t1.area - inter_area
    assert all(clip(piece, t2) is None for piece in d)
    parts = d + ([inter] if inter is not None else [])
    assert symdiff_area(parts, [t1]) == 0
