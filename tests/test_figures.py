"""Figure rendering: structure, determinism, and error handling."""

import xml.etree.ElementTree as ET

import pytest

from pam.figures import _BOLD_WIDTH, FIGURE_IDS, FigureSpec, UnknownFigure, render_figure
from pam.mapmodel import standard_map

SVG = "{http://www.w3.org/2000/svg}"

T = standard_map()


def render(fid, **kw):
    return render_figure(T, FigureSpec(fid, **kw))


def test_figure_ids_closed_set():
    assert FIGURE_IDS == (
        "partition",
        "preimage-NEW",
        "strips",
        "folding",
        "folding-image",
        "left-right",
        "left-right-image",
    )


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_every_figure_is_wellformed_xml(fid):
    root = ET.fromstring(render(fid))
    assert root.tag == f"{SVG}svg"
    assert root.get("viewBox")
    title = root.find(f"{SVG}title")
    assert title is not None and title.text == fid


@pytest.mark.parametrize("fid", FIGURE_IDS)
def test_rendering_is_deterministic(fid):
    assert render(fid) == render(fid)


def test_unknown_figure_rejected():
    with pytest.raises(UnknownFigure):
        FigureSpec("heatmap")
    with pytest.raises(UnknownFigure):
        render_figure(T, "heatmap")


def test_partition_has_one_labeled_polygon_per_piece():
    root = ET.fromstring(render("partition"))
    pieces = root.find(f"{SVG}g[@id='pieces']")
    assert len(pieces.findall(f"{SVG}polygon")) == len(T.pieces)
    labels = root.find(f"{SVG}g[@id='piece-labels']")
    texts = {el.text for el in labels.findall(f"{SVG}text")}
    assert texts == {p.name for p in T.pieces}


def test_partition_labels_every_vertex():
    root = ET.fromstring(render("partition"))
    verts = root.find(f"{SVG}g[@id='vertices']")
    names = {el.text for el in verts.findall(f"{SVG}text")}
    assert names == set(T.vertices)
    assert len(verts.findall(f"{SVG}circle")) == len(T.vertices)


def test_labels_can_be_disabled():
    doc = render("partition", labels=False)
    assert "<text" not in doc


def test_preimage_figure_bolds_the_preimage():
    doc = render("preimage-NEW")
    root = ET.fromstring(doc)
    bold = [el for el in root.iter(f"{SVG}polygon") if el.get("class") == "bold"]
    assert bold, "preimage parts must be drawn bold"
    widths = {float(el.get("stroke-width")) for el in bold}
    assert widths == {_BOLD_WIDTH}


@pytest.mark.parametrize("fid,labels", [("folding", ("BOS", "OSC")),
                                        ("left-right", ("DES", "WAS"))])
def test_region_figures_highlight_both_halves(fid, labels):
    root = ET.fromstring(render(fid))
    for label in labels:
        group = root.find(f"{SVG}g[@id='region-{label}']")
        assert group is not None
        assert len(group.findall(f"{SVG}polygon")) == 1


@pytest.mark.parametrize("fid,labels", [("folding-image", ("BOS", "OSC")),
                                        ("left-right-image", ("DES", "WAS"))])
def test_image_figures_bold_the_images(fid, labels):
    root = ET.fromstring(render(fid))
    for label in labels:
        group = root.find(f"{SVG}g[@id='image-{label}']")
        assert group is not None
        parts = group.findall(f"{SVG}polygon")
        assert parts  # the image of each half, possibly in several pieces
        assert all(el.get("class") == "bold" for el in parts)


def test_strips_figure_draws_guide_lines():
    root = ET.fromstring(render("strips"))
    lines = root.find(f"{SVG}g[@id='band-lines']").findall(f"{SVG}line")
    assert len(lines) == 5
    heights = {-float(l.get("y1")) for l in lines}
    assert heights == {0.25, 0.5, 0.8, 1.0, 1.5}


def test_string_spec_is_accepted():
    assert render_figure(T, "strips") == render_figure(T, FigureSpec("strips"))


def test_coordinates_are_plain_decimals():
    # every coordinate must survive float round-tripping (no NaN, no exponents
    # that a strict parser would reject)
    root = ET.fromstring(render("partition"))
    for poly in root.iter(f"{SVG}polygon"):
        for pair in poly.get("points").split():
            x, y = pair.split(",")
            assert float(x) == float(x) and float(y) == float(y)
