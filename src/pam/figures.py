"""Deterministic vector figures of the construction.

Each figure is a standalone SVG document built by string assembly — the
shapes here are a few dozen polygons, lines and labels, so a drawing
library would buy nothing and cost reproducibility.  All coordinates are
the exact rational vertices converted to floats at the last moment and
printed with 12 significant digits; elements are emitted in a fixed
order, so identical inputs yield byte-identical files.

The plane's y axis points up; SVG's points down.  Geometry is therefore
emitted with y negated rather than via a transform attribute, keeping
text labels upright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .geometry import ConvexPolygon, Point
from .mapmodel import PiecewiseAffineMap

__all__ = ["FIGURE_IDS", "FigureSpec", "UnknownFigure", "render_figure"]

FIGURE_IDS = (
    "partition",
    "preimage-NEW",
    "strips",
    "folding",
    "folding-image",
    "left-right",
    "left-right-image",
)

# line widths in plane units: piece outlines, and highlighted regions
_STROKE_WIDTH = 0.008
_BOLD_WIDTH = 0.032


class UnknownFigure(Exception):
    """Requested figure id is not one of the published figures."""


@dataclass(frozen=True)
class FigureSpec:
    """What to draw, and whether to label it."""

    figure_id: str
    labels: bool = True

    def __post_init__(self):
        if self.figure_id not in FIGURE_IDS:
            raise UnknownFigure(
                f"unknown figure {self.figure_id!r}; pick from {', '.join(FIGURE_IDS)}"
            )


def _fmt(value) -> str:
    return format(float(value), ".12g")


def _poly_points(poly: ConvexPolygon) -> str:
    return " ".join(f"{_fmt(v.x)},{_fmt(-v.y)}" for v in poly.vertices)


def _centroid(poly: ConvexPolygon) -> Tuple[float, float]:
    xs = [float(v.x) for v in poly.vertices]
    ys = [float(v.y) for v in poly.vertices]
    return sum(xs) / len(xs), sum(ys) / len(ys)


_PALETTE = (
    "#c6dbef",
    "#fdd0a2",
    "#c7e9c0",
    "#fcbba1",
    "#dadaeb",
    "#fee391",
    "#d9d9d9",
    "#a6dba0",
)

_HIGHLIGHT = ("#1f77b4", "#d62728")


class _Svg:
    """Minimal ordered SVG assembler."""

    def __init__(self, title: str):
        self.title = title
        self.body: List[str] = []

    def polygon(self, poly, fill, stroke, width, opacity=None, klass=None):
        bits = [
            f'<polygon points="{_poly_points(poly)}"',
            f'fill="{fill}"',
            f'stroke="{stroke}"',
            f'stroke-width="{_fmt(width)}"',
            'stroke-linejoin="round"',
        ]
        if opacity is not None:
            bits.append(f'fill-opacity="{_fmt(opacity)}"')
        if klass is not None:
            bits.append(f'class="{klass}"')
        self.body.append(" ".join(bits) + "/>")

    def line(self, x1, y1, x2, y2, stroke, width, dashed=False):
        dash = ' stroke-dasharray="0.04 0.03"' if dashed else ""
        self.body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(-y1)}" x2="{_fmt(x2)}" y2="{_fmt(-y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{dash}/>'
        )

    def dot(self, p: Point, radius, fill):
        self.body.append(
            f'<circle cx="{_fmt(p.x)}" cy="{_fmt(-p.y)}" r="{_fmt(radius)}" fill="{fill}"/>'
        )

    def text(self, x, y, content, size=0.07, anchor="middle", fill="#1a1a1a"):
        self.body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(-y)}" font-size="{_fmt(size)}" '
            f'text-anchor="{anchor}" fill="{fill}" '
            f'font-family="Helvetica, Arial, sans-serif">{content}</text>'
        )

    def open_group(self, gid: str):
        self.body.append(f'<g id="{gid}">')

    def close_group(self):
        self.body.append("</g>")

    def document(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="-1.7 -2.2 3.4 2.5" width="680" height="500">\n'
            f"<title>{self.title}</title>\n"
        )
        return head + "\n".join(self.body) + "\n</svg>\n"


def _draw_partition(svg: _Svg, t: PiecewiseAffineMap, spec: FigureSpec, muted=False):
    svg.open_group("pieces")
    for idx, piece in enumerate(t.pieces):
        fill = "#f4f4f4" if muted else _PALETTE[idx % len(_PALETTE)]
        svg.polygon(piece.domain, fill, "#5a5a5a", _STROKE_WIDTH)
    svg.close_group()
    if spec.labels and not muted:
        svg.open_group("piece-labels")
        for piece in t.pieces:
            cx, cy = _centroid(piece.domain)
            svg.text(cx, cy, piece.name, size=0.045)
        svg.close_group()


def _draw_vertices(svg: _Svg, t: PiecewiseAffineMap, spec: FigureSpec):
    if not spec.labels:
        return
    svg.open_group("vertices")
    for name in sorted(t.vertices):
        p = t.vertices[name]
        svg.dot(p, 0.012, "#202020")
        svg.text(float(p.x) + 0.03, float(p.y) + 0.03, name, size=0.055, anchor="start")
    svg.close_group()


def _fig_partition(svg, t, spec):
    _draw_partition(svg, t, spec)
    _draw_vertices(svg, t, spec)


def _fig_preimage_new(svg, t, spec):
    _draw_partition(svg, t, spec, muted=True)
    top = t.region("NEW")
    svg.open_group("target")
    svg.polygon(top, "#fee391", "#8a6d00", _STROKE_WIDTH, opacity=0.45)
    svg.close_group()
    svg.open_group("preimage")
    for part in t.region_preimage(top):
        svg.polygon(part, "#c6dbef", "#08306b", _BOLD_WIDTH, opacity=0.6, klass="bold")
    svg.close_group()
    if spec.labels:
        svg.text(0, 1.62, "the top triangle and its full preimage", size=0.07)


def _strip_band(piece) -> Tuple[float, float]:
    ys = [v.y for v in piece.domain.vertices]
    return float(min(ys)), float(max(ys))


def _fig_strips(svg, t, spec):
    # color pieces by the horizontal band they occupy
    bands: Dict[Tuple[float, float], int] = {}
    svg.open_group("pieces")
    for piece in t.pieces:
        band = _strip_band(piece)
        idx = bands.setdefault(band, len(bands))
        svg.polygon(piece.domain, _PALETTE[idx % len(_PALETTE)], "#5a5a5a", _STROKE_WIDTH)
    svg.close_group()
    svg.open_group("band-lines")
    for height in (Fraction(1, 4), Fraction(1, 2), Fraction(4, 5), 1, Fraction(3, 2)):
        y = Fraction(height)
        half = Fraction(3, 2) * min(y, 2 - y)  # domain edge at this height
        svg.line(-half, y, half, y, "#b02020", _STROKE_WIDTH, dashed=True)
        if spec.labels:
            svg.text(float(half) + 0.05, float(y), f"y = {height}", size=0.055, anchor="start")
    svg.close_group()


_REGION_PAIRS = {
    "folding": ("BOS", "OSC"),
    "left-right": ("DES", "WAS"),
}


def _fig_region_pair(svg, t, spec, key: str, image: bool):
    _draw_partition(svg, t, spec, muted=True)
    labels = _REGION_PAIRS[key]
    for color, label in zip(_HIGHLIGHT, labels):
        region = t.region(label)
        if image:
            svg.open_group(f"image-{label}")
            for part in t.region_image(region):
                svg.polygon(part, color, color, _BOLD_WIDTH, opacity=0.35, klass="bold")
            svg.close_group()
        else:
            svg.open_group(f"region-{label}")
            svg.polygon(region, color, color, _BOLD_WIDTH, opacity=0.35, klass="bold")
            svg.close_group()
        if spec.labels:
            cx, cy = _centroid(region)
            where = cy if not image else -0.12  # image labels go below the base
            svg.text(cx, where, f"T({label})" if image else label, size=0.07, fill=color)


_BUILDERS: Dict[str, Callable] = {
    "partition": _fig_partition,
    "preimage-NEW": _fig_preimage_new,
    "strips": _fig_strips,
    "folding": lambda s, t, sp: _fig_region_pair(s, t, sp, "folding", image=False),
    "folding-image": lambda s, t, sp: _fig_region_pair(s, t, sp, "folding", image=True),
    "left-right": lambda s, t, sp: _fig_region_pair(s, t, sp, "left-right", image=False),
    "left-right-image": lambda s, t, sp: _fig_region_pair(
        s, t, sp, "left-right", image=True
    ),
}


def render_figure(t: PiecewiseAffineMap, spec) -> str:
    """Render one figure to an SVG document string.

    `spec` may be a FigureSpec or a bare figure id.
    """
    if isinstance(spec, str):
        spec = FigureSpec(spec)
    svg = _Svg(spec.figure_id)
    svg.open_group("domain")
    svg.polygon(t.domain, "none", "#101010", _STROKE_WIDTH * 1.5)
    svg.close_group()
    _BUILDERS[spec.figure_id](svg, t, spec)
    return svg.document()
