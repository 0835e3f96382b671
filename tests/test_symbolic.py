"""Tests for itinerary coding, cylinders, and the vertical drift law."""

import gc
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from pam.geometry import AffineMap, ConvexPolygon, Matrix2, Point, clip, region_difference, symdiff_area
from pam.mapmodel import OutsideDomain, UnknownLabel, build_map, parse_definition, standard_map
from pam.symbolic import (
    CODING_MODES,
    CodingTriangles,
    CylinderChain,
    OrbitLeftRegion,
    OrbitRecord,
    census,
    coding_triangles,
    confined_start,
    cylinder,
    drift_check,
    fiber_width,
    iterate,
    max_fiber_width,
    _Branches,
    _max_chord,
    _sign,
)
from test_geometry import triangles
from test_mapmodel import LOCATION_MAPS, _scan, probes

T = standard_map()
TRI = coding_triangles(T)

S = Point(F(0), F(0))

# frozen level-0 chord widths of the two coding triangles: both are
# sectors capped at a horizontal line, so the widest chord sits at the
# cap (y = 4/5 gives 2/25 on the left, y = 1/2 gives 1/20 on the right)
WIDTH0_LEFT = F(2, 25)
WIDTH0_RIGHT = F(1, 20)


def words(rng: random.Random, count: int, lo: int, hi: int):
    for _ in range(count):
        n = rng.randint(lo, hi)
        yield tuple(rng.randint(0, 1) for _ in range(n))


# ---------------------------------------------------------------------------
# coding triangles


def test_corrected_triangles_are_the_markov_pair():
    assert TRI.mode == "corrected"
    assert (TRI.label0, TRI.label1) == ("A^tB^tS", "C^cD^cS")
    assert symdiff_area([TRI.p0], [T.region("A^tB^tS")]) == 0
    assert symdiff_area([TRI.p1], [T.region("C^cD^cS")]) == 0


def test_literal_triangles_reach_the_base_row():
    lit = coding_triangles(T, mode="literal")
    assert (lit.label0, lit.label1) == ("ABS", "CDS")
    # the literal pair rises to y = 1; the corrected pair stops earlier
    assert max(v.y for v in lit.p0.vertices) == 1
    assert max(v.y for v in TRI.p0.vertices) == F(4, 5)
    assert "literal" in CODING_MODES and "corrected" in CODING_MODES
    with pytest.raises(ValueError):
        coding_triangles(T, mode="markov")


def test_classify():
    assert TRI.classify(Point(F(-19, 40), F(1, 2))) == 0  # interior of left sector
    assert TRI.classify(Point(F(19, 40), F(1, 2))) == 1
    assert TRI.classify(Point(F(0), F(2))) is None  # N
    # S belongs to both closed triangles; the left one wins by convention
    assert TRI.classify(S) == 0


# ---------------------------------------------------------------------------
# orbits


def test_iterate_fixed_corner():
    rec = iterate(T, S, 6)
    assert len(rec) == 7
    assert all(p == S for p in rec.points)
    assert rec.signs == (0,) * 7
    assert all(c == 0 for c in rec.coding)


def test_iterate_fixed_segment_point():
    wc = T.vertices["W^c"]
    rec = iterate(T, wc, 4)
    assert all(p == wc for p in rec.points)
    assert rec.signs == (-1,) * 5


def test_iterate_is_a_shift():
    p = confined_start((0, 1, 1, 0, 1))
    rec = iterate(T, p, 5)
    tail = iterate(T, T.evaluate(p), 4)
    assert rec.points[1:] == tail.points
    assert rec.coding[1:] == tail.coding
    assert rec.signs[1:] == tail.signs


def test_iterate_rejects_bad_input():
    with pytest.raises(OutsideDomain):
        iterate(T, Point(F(5), F(5)), 1)
    with pytest.raises(ValueError):
        iterate(T, S, -1)


def test_orbit_builders_refuse_floats():
    # a float would start the orbit from its binary expansion, e.g.
    # 3602879701896397/36028797018963968 for 0.1
    with pytest.raises(TypeError, match="refusing float"):
        iterate(T, (0.1, 0.5), 2)
    with pytest.raises(TypeError, match="refusing float"):
        confined_start("01", 0.3)


def _replay_step(m, p):
    """One map step from the lowest-index piece of a linear scan and the
    Fraction form L·p + t of its map."""
    f = m.pieces[_scan(m, p)].map
    lin, (tx, ty) = f.linear, f.translation
    return Point(lin.a * p.x + lin.b * p.y + tx, lin.c * p.x + lin.d * p.y + ty)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_iterate_matches_a_fraction_replay(data):
    m = data.draw(st.sampled_from(LOCATION_MAPS))
    p = data.draw(probes(m))
    n = data.draw(st.integers(0, 12))
    points = [p]
    for _ in range(n):
        points.append(_replay_step(m, points[-1]))
    try:
        tri = coding_triangles(m)
    except UnknownLabel:  # a map without the coding names codes nothing
        coding = (None,) * (n + 1)
    else:
        coding = tuple(tri.classify(q) for q in points)
    rec = iterate(m, p, n)
    assert rec.points == tuple(points)
    assert rec.signs == tuple(_sign(q.x) for q in points)
    assert rec.coding == coding


# ---------------------------------------------------------------------------
# cylinders


def test_cylinder_level_zero_is_the_coding_triangle():
    left = cylinder(T, "0", TRI)
    right = cylinder(T, "1", TRI)
    assert left.depth == 0 and right.depth == 0
    (cell,) = left.polygons(0)
    assert symdiff_area([cell], [TRI.p0]) == 0
    assert fiber_width(left, 0) == WIDTH0_LEFT
    assert fiber_width(right, 0) == WIDTH0_RIGHT
    assert not left.is_empty(0)


def test_cylinder_rejects_bad_words():
    with pytest.raises(ValueError):
        cylinder(T, "", TRI)
    with pytest.raises(ValueError):
        cylinder(T, "02", TRI)
    with pytest.raises(ValueError):
        census(T, 0, TRI)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_full_branching(n):
    assert census(T, n, TRI).counts == tuple(2**k for k in range(1, n + 1))


def test_cylinders_nest():
    rng = random.Random(20260815)
    for word in words(rng, 6, 4, 8):
        chain = cylinder(T, word, TRI)
        for n in range(1, chain.depth + 1):
            parents = chain.polygons(n - 1)
            for cell in chain.polygons(n):
                assert region_difference([cell], parents) == []


@pytest.mark.parametrize(
    "word",
    ["010101010101", "000000000000", "111111111111", "011010011001"],
)
def test_chord_width_contracts_by_four(word):
    chain = cylinder(T, word, TRI)
    w0 = fiber_width(chain, 0)
    for n in range(chain.depth + 1):
        assert fiber_width(chain, n) <= w0 * F(4) ** -n


def test_cylinder_chain_is_plain_data():
    chain = cylinder(T, (1, 0), TRI)
    assert isinstance(chain, CylinderChain)
    assert chain.word == (1, 0)
    assert chain.depth == 1
    assert [not chain.is_empty(n) for n in (0, 1)] == [True, True]


def test_width_census_matches_per_word_enumeration():
    counts = [
        sum(not cylinder(T, bits, TRI).is_empty(n - 1) for bits in product((0, 1), repeat=n))
        for n in range(1, 5)
    ]
    assert census(T, 4, TRI).counts == tuple(counts)

    best = {0: F(0), 1: F(0)}
    for bits in product((0, 1), repeat=3):
        chain = cylinder(T, bits, TRI)
        best[bits[0]] = max(best[bits[0]], fiber_width(chain, 2))
    assert census(T, 3, TRI).widths == best
    assert max_fiber_width(T, 3, TRI) == best


def test_width_census_validates_depth():
    with pytest.raises(ValueError):
        max_fiber_width(T, 0, TRI)


def test_census_frees_its_memo_on_return():
    # with the collector off, memo tables caught in a reference cycle
    # would outlive the call; DEBUG_SAVEALL keeps what it then finds
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        census(T, 7, TRI)
        gc.collect()
        kept = [o for o in gc.garbage if isinstance(o, ConvexPolygon)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert kept == []


# a square cut into four triangles around its centre M: the coding
# branches out of BCM and DAM include ones with c != 0, which shear
# horizontals, and ones with c = 0, so census carries directions other
# than the horizontal
SHEARED = build_map(parse_definition(
    "vertex A 0 0\nvertex B 2 0\nvertex C 2 2\nvertex D 0 2\nvertex M 1 1\n"
    "domain A B C D\n"
    "triangle ABM A B M\ntriangle BCM B C M\ntriangle CDM C D M\ntriangle DAM D A M\n"
    "image A 2 1\nimage B 2 1/2\nimage C 1/2 3/2\nimage D 2 2\nimage M 0 1\n"
))
SHEARED_TRI = CodingTriangles(
    "hand", "DAM", "BCM", SHEARED.region("DAM"), SHEARED.region("BCM")
)


def test_sheared_map_has_both_kinds_of_branch():
    cs = [branch.linear.c for pairs in _Branches(SHEARED, SHEARED_TRI).per_letter for _, branch in pairs]
    assert 0 in cs and any(c != 0 for c in cs)
    # and words with empty cylinders from length 4 on
    assert census(SHEARED, 4, SHEARED_TRI).counts == (2, 4, 8, 12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sheared_census_matches_per_word_enumeration(n):
    counts = [0] * n
    best = {0: F(0), 1: F(0)}
    for bits in product((0, 1), repeat=n):
        chain = cylinder(SHEARED, bits, SHEARED_TRI)
        counts = [c + (not chain.is_empty(k)) for k, c in enumerate(counts)]
        best[bits[0]] = max(best[bits[0]], fiber_width(chain, n - 1))
    # a length-k word is counted once, not once per extension to length n
    counts = [c // 2 ** (n - k) for k, c in enumerate(counts, 1)]
    got = census(SHEARED, n, SHEARED_TRI)
    assert got.counts == tuple(counts)
    assert got.widths == best


def _backward_levels(t, triangles, word):
    """C_0 ⊇ C_1 ⊇ ... in the domain frame: each cell is clipped against
    the coding part pulled back through the cell's own composite branch."""
    parts = [
        [(clip(p.domain, target.transformed(p.map.inverse())), p.map) for p in t.pieces]
        for target in (triangles.p0, triangles.p1)
    ]
    cells = [(triangles.p0 if word[0] == 0 else triangles.p1, AffineMap.identity())]
    levels = [tuple(c for c, _ in cells)]
    for letter in word[1:]:
        nxt = []
        for poly, g in cells:
            back = g.inverse()
            for part, branch in parts[letter]:
                cell = None if part is None else clip(poly, part.transformed(back))
                if cell is not None:
                    nxt.append((cell, branch.compose(g)))
        cells = nxt
        levels.append(tuple(c for c, _ in cells))
    return tuple(levels)


@pytest.mark.parametrize(
    "t,tri,longest", [(T, TRI, 6), (SHEARED, SHEARED_TRI, 5)], ids=["bundled", "sheared"]
)
def test_cylinder_levels_match_backward_clipping(t, tri, longest):
    for n in range(1, longest + 1):
        for word in product((0, 1), repeat=n):
            assert cylinder(t, word, tri).levels == _backward_levels(t, tri, word), word


def _chord_scan(cell):
    """Longest horizontal chord, in Fractions, over every vertex height."""
    best = F(0)
    for h in {v.y for v in cell.vertices}:
        xs = [a.x for a, _ in cell.edges() if a.y == h]
        xs += [
            a.x + (b.x - a.x) * (h - a.y) / (b.y - a.y)
            for a, b in cell.edges()
            if min(a.y, b.y) < h < max(a.y, b.y)
        ]
        best = max(best, max(xs) - min(xs))
    return best


@given(triangles, triangles)
def test_max_chord_matches_a_fraction_scan(t1, t2):
    for cell in (t1, clip(t1, t2)):
        if cell is not None:
            assert _max_chord(cell) == _chord_scan(cell)


directions = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@given(triangles, directions, directions)
def test_max_chord_along_d_is_the_pulled_back_horizontal_chord(cell, d, e):
    # L sends (1, 0) to d, so chords along d, in units of d, are the
    # horizontal chords of L⁻¹(cell)
    assume(d[0] * e[1] != d[1] * e[0])
    L = AffineMap(Matrix2.of(d[0], e[0], d[1], e[1]), (0, 0))
    assert _max_chord(cell, d) == _max_chord(cell.transformed(L.inverse()))


# ---------------------------------------------------------------------------
# drift law


def test_confined_start_realizes_its_word():
    rng = random.Random(7)
    for word in words(rng, 40, 2, 40):
        p = confined_start(word)
        rec = iterate(T, p, len(word))
        assert rec.coding[: len(word)] == word
        verdict = drift_check(T, rec, region="core")
        assert verdict.identity_holds is True
        assert verdict.inequality_holds is True
        assert verdict.exponent == sum(1 if c else -1 for c in word)
        # the construction keeps the whole orbit in the linear strip
        assert all(q.y <= F(1, 2) for q in rec.points)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=25))
@settings(max_examples=30, deadline=None)
def test_drift_identity_property(letters):
    word = tuple(letters)
    rec = iterate(T, confined_start(word), len(word))
    verdict = drift_check(T, rec)
    assert verdict.identity_holds and verdict.inequality_holds
    assert rec.points[-1].y == rec.points[0].y * F(2) ** verdict.exponent


def test_drift_wide_region_inequality_only():
    # a point of the left coding triangle above the linear strip, where
    # the map is affine (y -> 5/2*y - 1) rather than linear
    p = Point(F(-19, 20) * F(7, 10), F(7, 10))
    rec = iterate(T, p, 1)
    verdict = drift_check(T, rec, region="wide")
    assert verdict.identity_holds is None
    assert verdict.inequality_holds is True
    assert rec.points[1].y == F(3, 4)
    with pytest.raises(OrbitLeftRegion):
        drift_check(T, rec, region="core")


def test_drift_check_reports_a_failed_law():
    # hand-built: both points lie in C^cD^cS with x > 0, but the height
    # stays put instead of doubling
    p = Point(F(19, 80), F(1, 4))
    rec = OrbitRecord((p, p), (1, 1), (1, 1))
    verdict = drift_check(T, rec)
    assert (verdict.steps, verdict.exponent) == (1, 1)
    assert verdict.inequality_holds is False
    assert verdict.identity_holds is False


def test_drift_rejects_boundary_and_strays():
    on_axis = iterate(T, S, 2)
    with pytest.raises(OrbitLeftRegion) as err:
        drift_check(T, on_axis)
    assert err.value.index == 0

    stray = iterate(T, Point(F(3, 5), F(9, 10)), 1)
    with pytest.raises(OrbitLeftRegion):
        drift_check(T, stray)

    with pytest.raises(ValueError):
        drift_check(T, iterate(T, S, 0))
    with pytest.raises(ValueError):
        drift_check(T, on_axis, region="everywhere")


def test_confined_start_validation():
    with pytest.raises(ValueError):
        confined_start("")
    with pytest.raises(ValueError):
        confined_start("01", r_end=F(1))
    with pytest.raises(ValueError):
        confined_start("012")
