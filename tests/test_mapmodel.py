"""Tests for the bundled piecewise affine map and its text format."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam.geometry import (
    ConvexPolygon,
    Matrix2,
    Point,
    affine_from_point_pairs,
    region_area,
    symdiff_area,
)
from pam.mapmodel import (
    ContinuityViolation,
    CoverageViolation,
    ImageOutsideDomain,
    MapDefinitionError,
    NonInvertiblePiece,
    OutsideDomain,
    UnknownLabel,
    build_map,
    generate_vertices,
    parse_definition,
    parse_vertex_names,
    serialize_definition,
    standard_definition_text,
    standard_map,
)
from pam.symbolic import confined_start
from test_cli import SQUARE_IDENTITY


# ---------------------------------------------------------------------------
# vertex table

# (name, x, y) spot checks across every row, including the two rows that
# only serve as image targets
VERTEX_ORACLES = [
    ("N", F(0), F(2)),
    ("S", F(0), F(0)),
    ("W", F(-3, 2), F(1)),
    ("B", F(-9, 10), F(1)),
    ("E", F(3, 2), F(1)),
    ("A^t", F(-4, 5), F(4, 5)),
    ("O^t", F(0), F(4, 5)),
    ("W^c", F(-3, 4), F(1, 2)),
    ("B^c", F(-9, 20), F(1, 2)),
    ("C^c", F(9, 20), F(1, 2)),
    ("A^b", F(-1, 4), F(1, 4)),
    ("D^b", F(1, 4), F(1, 4)),
    # the y = 3/2 row comes from the homothety centered at N, not S
    ("W^u", F(-3, 4), F(3, 2)),
    ("A^u", F(-1, 2), F(3, 2)),
    ("D^u", F(1, 2), F(3, 2)),
    ("E^u", F(3, 4), F(3, 2)),
]


def test_vertex_table_values():
    vt = generate_vertices()
    for name, x, y in VERTEX_ORACLES:
        assert vt[name] == Point(x, y), name


def test_bundled_definition_lists_the_generated_vertices():
    # the data file's vertex table is the homothety construction, exactly
    parsed = parse_definition(standard_definition_text())
    assert parsed.vertices == generate_vertices().points


def test_vertex_table_shape():
    vt = generate_vertices()
    # 7 base + N + S, then rows of 4, 4, 7, 2
    assert len(vt.points) == 26
    assert vt.line_heights == {"u": F(3, 2), "t": F(4, 5), "c": F(1, 2), "b": F(1, 4)}
    domain = vt.polygon(["E", "N", "W", "S"])
    assert domain.area == 3
    for name, p in vt.points.items():
        assert domain.contains(p), name
    # every O-column vertex sits on the symmetry axis
    for name in ("O", "O^t", "O^c"):
        assert vt[name].x == 0


def test_vertex_names_parser():
    assert parse_vertex_names("WW^tOO^t") == ["W", "W^t", "O", "O^t"]
    assert parse_vertex_names("A^cB^cS") == ["A^c", "B^c", "S"]
    with pytest.raises(ValueError):
        parse_vertex_names("W^")


# ---------------------------------------------------------------------------
# the bundled map

# exact affine data of distinguished pieces: label -> (matrix, translation)
PIECE_ORACLES = {
    "A^cB^cS": (Matrix2.of(10, F(19, 2), 0, F(1, 2)), (0, 0)),
    "A^tB^tA^c": (Matrix2.of(25, F(45, 2), 0, F(5, 2)), (1, -1)),
    "A^cB^tB^c": (Matrix2.of(10, F(23, 2), 0, F(5, 2)), (-1, -1)),
    "C^cD^cS": (Matrix2.of(-40, 38, 0, 2), (0, 0)),
    "W^cA^cA^t": (Matrix2.of(2, F(-1, 2), -1, F(3, 2)), (1, -1)),
    "W^tW^cA^t": (Matrix2.of(F(5, 4), F(-5, 8), 0, F(5, 3)), (F(1, 2), F(-1, 3))),
    "W^cA^cS": (Matrix2.of(2, F(3, 2), -1, F(-1, 2)), (0, 0)),
}


def test_standard_map_builds_with_known_piece_count():
    m = standard_map()
    assert len(m.pieces) == 31
    assert any("31" in d for d in m.deviations)
    assert region_area([p.domain for p in m.pieces]) == 3
    assert symdiff_area([p.domain for p in m.pieces], [m.domain]) == 0


def test_distinguished_piece_maps():
    m = standard_map()
    for label, (matrix, (tx, ty)) in PIECE_ORACLES.items():
        piece = m.piece_with_corners(label)
        assert piece.map.linear == matrix, label
        assert piece.map.translation == (F(tx), F(ty)), label


def test_unknown_names_raise_one_error_naming_them():
    m = standard_map()
    assert m.vertex("W^c") == Point.of("-3/4", "1/2")
    with pytest.raises(UnknownLabel, match="no vertex Z$"):
        m.vertex("Z")
    with pytest.raises(UnknownLabel, match="no vertex Z$"):
        m.region("NZS")
    with pytest.raises(UnknownLabel, match="no piece with corners N O S$"):
        m.piece_with_corners("NSO")
    with pytest.raises(UnknownLabel, match="no piece XYZ$"):
        m.piece("XYZ")


def test_vertex_images():
    m = standard_map()
    for src, dst in [
        ("S", Point.of(0, 0)),
        ("N", Point.of(0, 2)),
        ("C^c", Point.of(1, 1)),
        ("B^c", Point.of("1/4", "1/4")),
        ("E", Point.of("-3/4", "3/2")),
        ("O", Point.of("3/4", "3/2")),
        ("D^c", Point.of(-1, 1)),
    ]:
        assert m.evaluate(m.vertices[src]) == dst, src


def test_coding_triangles_map_onto_base_triangle():
    m = standard_map()
    big = m.region("ADS")
    for label in ("A^tB^tS", "C^cD^cS"):
        assert symdiff_area(m.region_image(m.region(label)), [big]) == 0


def test_region_image_of_lowest_coding_piece():
    m = standard_map()
    image = m.region_image(m.region("A^cB^cS"))
    assert symdiff_area(image, [m.region("A^bD^bS")]) == 0


def test_preimage_of_domain_is_domain():
    m = standard_map()
    assert symdiff_area(m.region_preimage(m.domain), [m.domain]) == 0


def test_evaluate_rejects_outside_points():
    m = standard_map()
    with pytest.raises(OutsideDomain):
        m.evaluate(Point.of(5, 5))
    with pytest.raises(OutsideDomain):
        m.evaluate(Point.of("-3/2", "1/2"))


@st.composite
def domain_points(draw):
    """Exact rational points of the parallelogram Q."""
    u = draw(st.fractions(min_value=0, max_value=1, max_denominator=64))
    v = draw(st.fractions(min_value=0, max_value=1, max_denominator=64))
    y = 2 * u
    half_width = F(3, 2) * (y if y <= 1 else 2 - y)
    return Point(half_width * (2 * v - 1), y)


@settings(max_examples=60, deadline=None)
@given(domain_points())
def test_map_sends_domain_into_itself(p):
    m = standard_map()
    q = m.evaluate(p)
    assert m.domain.contains(q)
    assert m.domain.contains(m.evaluate(q))


@settings(max_examples=60, deadline=None)
@given(domain_points())
def test_value_is_single_valued_across_pieces(p):
    # continuity in practice: every piece containing the point gives the
    # same value, so the lowest-index tie-break never matters
    m = standard_map()
    values = {
        piece.map(p)
        for piece in m.pieces
        if piece.domain.contains(p)
    }
    assert len(values) == 1


# ---------------------------------------------------------------------------
# point location


def _bundled_reversed():
    data = parse_definition(standard_definition_text())
    data.triangles.reverse()
    return build_map(data)


# the bundled map; the same pieces listed bottom first, so that a tie on a
# cut line goes to the piece below it; two pieces that span every slab
LOCATION_MAPS = (
    standard_map(),
    _bundled_reversed(),
    build_map(parse_definition(SQUARE_IDENTITY)),
)


def _scan(m, p):
    """The lowest-index piece whose closed domain contains p, by Fraction
    cross products against each counter-clockwise edge."""
    for i, piece in enumerate(m.pieces):
        if all(
            (v.x - u.x) * (p.y - u.y) - (v.y - u.y) * (p.x - u.x) >= 0
            for u, v in piece.domain.edges()
        ):
            return i
    return None


def _heights(m):
    return sorted({v.y for piece in m.pieces for v in piece.domain.vertices})


def _chord(poly, y):
    """The x-range of a convex polygon on the line at height y."""
    xs = []
    for u, v in poly.edges():
        if u.y == v.y == y:
            xs += [u.x, v.x]
        elif min(u.y, v.y) <= y <= max(u.y, v.y) and u.y != v.y:
            xs.append(u.x + (v.x - u.x) * (y - u.y) / (v.y - u.y))
    return min(xs), max(xs)


unit = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


@st.composite
def probes(draw, m):
    """Points of Q where location is delicate: partition vertices, shared
    edges, cut heights, generic rationals and hundreds-bit drift starts."""
    kind = draw(st.sampled_from(["vertex", "edge", "cut", "generic", "drift"]))
    if kind == "vertex":
        piece = draw(st.sampled_from(m.pieces))
        return draw(st.sampled_from(piece.domain.vertices))
    if kind == "edge":
        u, v = draw(st.sampled_from(list(draw(st.sampled_from(m.pieces)).domain.edges())))
        return u + (v - u).scaled(draw(unit))
    if kind == "cut":
        y = draw(st.sampled_from(_heights(m)))
        lo, hi = _chord(m.domain, y)
        return Point(lo + (hi - lo) * draw(unit), y)
    if kind == "generic":
        weights = [draw(unit) for _ in m.domain.vertices]
        total = sum(weights) or F(1)
        return Point(
            sum(w * v.x for w, v in zip(weights, m.domain.vertices)) / total,
            sum(w * v.y for w, v in zip(weights, m.domain.vertices)) / total,
        )
    return confined_start(draw(st.lists(st.integers(0, 1), min_size=100, max_size=100)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_piece_at_is_the_lowest_index_scan(data):
    m = data.draw(st.sampled_from(LOCATION_MAPS))
    p = data.draw(probes(m))
    i, piece = m.piece_at(p)
    assert i == _scan(m, p)
    assert piece is m.pieces[i]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_piece_at_rejects_points_off_q(data):
    m = data.draw(st.sampled_from(LOCATION_MAPS))
    heights = _heights(m)
    eps = data.draw(st.fractions(min_value=F(1, 10**30), max_value=1))
    side = data.draw(st.sampled_from(["above", "below", "left", "right"]))
    if side in ("above", "below"):
        y = heights[-1] + eps if side == "above" else heights[0] - eps
        p = Point(data.draw(st.fractions(-2, 2, max_denominator=1000)), y)
    else:
        y = heights[0] + (heights[-1] - heights[0]) * data.draw(unit)
        if data.draw(st.booleans()):
            y = data.draw(st.sampled_from(heights))
        lo, hi = _chord(m.domain, y)
        p = Point(lo - eps if side == "left" else hi + eps, y)
    assert _scan(m, p) is None
    with pytest.raises(OutsideDomain):
        m.piece_at(p)


# ---------------------------------------------------------------------------
# definition text format


def test_standard_definition_round_trips():
    text = standard_definition_text()
    m = build_map(parse_definition(text))
    assert m == standard_map()
    assert serialize_definition(m) == text


def test_parse_rejects_empty_and_incomplete_input():
    with pytest.raises(MapDefinitionError, match="line 0"):
        parse_definition("")
    with pytest.raises(MapDefinitionError, match="line 0: missing domain"):
        parse_definition("vertex a 0 0\nvertex b 1 0\nvertex c 0 1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MapDefinitionError, match="line 2"):
        parse_definition("vertex a 0 0\nfrobnicate a\n")
    with pytest.raises(MapDefinitionError, match="line 1"):
        parse_definition("vertex a 0 zero\n")
    with pytest.raises(MapDefinitionError, match="line 2"):
        parse_definition("vertex a 0 0\ntriangle t a b c\n")
    with pytest.raises(MapDefinitionError, match="line 1"):
        parse_definition("image a b\n")
    with pytest.raises(MapDefinitionError, match="line 4"):
        parse_definition(
            "vertex a 0 0\nvertex b 1 0\nvertex c 0 1\ndomain a b c\n"
        )


SQUARE_PREFIX = """\
vertex a 0 0
vertex b 2 0
vertex c 2 2
vertex d 0 2
domain a b c d
"""


def test_build_map_detects_tile_gaps():
    text = SQUARE_PREFIX + (
        "triangle abc a b c\n"
        "image a a\nimage b b\nimage c c\nimage d d\n"
    )
    with pytest.raises(CoverageViolation):
        build_map(parse_definition(text))


def test_build_map_detects_overlaps():
    text = SQUARE_PREFIX + (
        "triangle abc a b c\ntriangle acd a c d\ntriangle abd a b d\n"
        "image a a\nimage b b\nimage c c\nimage d d\n"
    )
    with pytest.raises(CoverageViolation):
        build_map(parse_definition(text))


def test_build_map_detects_discontinuity_at_t_junction():
    # the diagonal of `abc` passes through m, but m's pinned image does
    # not match the interpolated value there
    text = SQUARE_PREFIX + (
        "vertex m 1 1\n"
        "triangle abc a b c\ntriangle amd a m d\ntriangle mcd m c d\n"
        "image a a\nimage b b\nimage c c\nimage d d\nimage m 1 0\n"
    )
    with pytest.raises(ContinuityViolation):
        build_map(parse_definition(text))


def _shared_segment(a: ConvexPolygon, b: ConvexPolygon):
    """Endpoints of the (possibly partial) boundary segment shared by two
    convex polygons, or None.  Works edge against edge: two edges
    contribute when they lie on one line and their parameter intervals
    overlap in more than a point."""
    for u1, u2 in a.edges():
        du = (u2.x - u1.x, u2.y - u1.y)
        for v1, v2 in b.edges():
            if (
                du[0] * (v1.y - u1.y) != du[1] * (v1.x - u1.x)
                or du[0] * (v2.y - u1.y) != du[1] * (v2.x - u1.x)
            ):
                continue
            axis = 0 if abs(du[0]) >= abs(du[1]) else 1
            lo_u, hi_u = sorted((u1[axis], u2[axis]))
            lo_v, hi_v = sorted((v1[axis], v2[axis]))
            lo, hi = max(lo_u, lo_v), min(hi_u, hi_v)
            if lo >= hi:
                continue

            def at(t):
                if axis == 0:
                    return Point(t, u1.y + du[1] * (t - u1.x) / du[0])
                return Point(u1.x + du[0] * (t - u1.y) / du[1], t)

            return at(lo), at(hi)
    return None


def _disagreeing_pair(data):
    """Reference continuity check: the first pair of pieces whose maps
    differ at an end of their shared boundary segment, or None."""
    pieces = [
        (
            ConvexPolygon([data.vertices[n] for n in corners]),
            affine_from_point_pairs([(data.vertices[n], data.images[n]) for n in corners]),
        )
        for _, corners in data.triangles
    ]
    for i, (da, fa) in enumerate(pieces):
        for db, fb in pieces[i + 1 :]:
            seg = _shared_segment(da, db)
            if seg is not None and any(fa(e) != fb(e) for e in seg):
                return da, db
    return None


# the junction m sits inside an edge of one piece and is a corner of the
# two pieces across it: on the diagonal a-c, or on the interior edge a-o
# of a square fanned around its center o
JUNCTION_LAYOUTS = {
    "diagonal": ("c", "triangle abc a b c\ntriangle amd a m d\ntriangle mcd m c d\n"),
    "edge": (
        "o",
        "triangle abo a b o\ntriangle bco b c o\ntriangle cdo c d o\n"
        "triangle dam d a m\ntriangle dmo d m o\n",
    ),
}
square_coord = st.fractions(min_value=0, max_value=2, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_corner_continuity_matches_the_shared_segment_reference(data):
    layout = data.draw(st.sampled_from(sorted(JUNCTION_LAYOUTS)))
    far, triangles = JUNCTION_LAYOUTS[layout]
    corners = {"a": Point(F(0), F(0)), "b": Point(F(2), F(0)),
               "c": Point(F(2), F(2)), "d": Point(F(0), F(2)), "o": Point(F(1), F(1))}
    t = data.draw(st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12))
    corners["m"] = corners["a"] + (corners[far] - corners["a"]).scaled(t)
    images = {n: Point(data.draw(square_coord), data.draw(square_coord)) for n in corners}
    if data.draw(st.booleans()):
        images["m"] = images["a"] + (images[far] - images["a"]).scaled(t)
    text = SQUARE_PREFIX + "".join(
        f"vertex {n} {p.x} {p.y}\n" for n, p in corners.items() if n in "mo"
    ) + triangles + "".join(f"image {n} {p.x} {p.y}\n" for n, p in images.items())
    definition = parse_definition(text)
    expected = _disagreeing_pair(definition)
    if expected is None:
        build_map(definition)
    else:
        with pytest.raises(ContinuityViolation):
            build_map(definition)


def test_build_map_detects_escaping_images():
    text = SQUARE_PREFIX + (
        "triangle abc a b c\ntriangle acd a c d\n"
        "image a a\nimage b 3 0\nimage c c\nimage d d\n"
    )
    with pytest.raises(ImageOutsideDomain):
        build_map(parse_definition(text))


def test_build_map_requires_images_for_used_vertices():
    text = SQUARE_PREFIX + (
        "triangle abc a b c\ntriangle acd a c d\n"
        "image a a\nimage b b\nimage c c\n"
    )
    with pytest.raises(MapDefinitionError, match="no image given for d"):
        build_map(parse_definition(text))


def test_flattened_piece_blocks_exact_preimages():
    text = SQUARE_PREFIX + (
        "triangle abc a b c\ntriangle acd a c d\n"
        "image a a\nimage b b\nimage c 1 0\nimage d d\n"
    )
    m = build_map(parse_definition(text))
    with pytest.raises(NonInvertiblePiece):
        m.region_preimage(m.domain)
    with pytest.raises(NonInvertiblePiece):
        m.region_image(m.domain)


def test_serialize_then_parse_is_identity_on_small_maps():
    text = SQUARE_PREFIX + (
        "triangle abc a b c\ntriangle acd a c d\n"
        "image a a\nimage b b\nimage c c\nimage d 1 1\n"
    )
    m = build_map(parse_definition(text))
    again = build_map(parse_definition(serialize_definition(m)))
    assert again == m
