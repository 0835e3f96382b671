"""Exact-arithmetic laboratory for a piecewise affine plane map.

The package builds a globally continuous piecewise affine map on a
parallelogram from a small text definition, machine-verifies its
geometric properties with zero-tolerance rational arithmetic, and runs
the symbolic-dynamics and entropy experiments that the construction was
designed for.

Layout:

- ``pam.geometry``   exact rational points, polygons, clipping, areas
- ``pam.mapmodel``   the map: definition format, assembly, validation
- ``pam.verifier``   the ten-property certification suite
- ``pam.symbolic``   itineraries, cylinder sets, the height drift law
- ``pam.entropy``    bounded-drift subshifts, entropy, escape of mass
- ``pam.figures``    deterministic SVG figures
- ``pam.cli``        the ``pam`` command-line front end
"""

from .geometry import (
    AffineMap,
    CollinearSources,
    ConvexPolygon,
    Eigen2Result,
    GeometryError,
    Matrix2,
    Point,
    Surd,
    affine_from_point_pairs,
    clip,
    eigen2,
    format_rational,
    parse_rational,
    region_area,
    symdiff_area,
)
from .mapmodel import (
    MapModelError,
    OutsideDomain,
    PiecewiseAffineMap,
    build_map,
    parse_definition,
    standard_map,
)
from .verifier import cone_certificate, serialize_reports, verify_map
from .symbolic import (
    CylinderCensus,
    CylinderChain,
    census,
    coding_triangles,
    confined_start,
    cylinder,
    drift_check,
    fiber_width,
    iterate,
    max_fiber_width,
)
from .entropy import (
    block_entropy,
    build_skew,
    conjugacy_probe,
    embed_orbit,
    enumerate_cycles,
    escape_stats,
    paper_iota,
    sigma_entropy,
    word_count,
)
from .figures import FIGURE_IDS, FigureSpec, UnknownFigure, render_figure

__version__ = "0.1.0"

__all__ = [
    # geometry
    "AffineMap",
    "CollinearSources",
    "ConvexPolygon",
    "Eigen2Result",
    "GeometryError",
    "Matrix2",
    "Point",
    "Surd",
    "affine_from_point_pairs",
    "clip",
    "eigen2",
    "format_rational",
    "parse_rational",
    "region_area",
    "symdiff_area",
    # map model
    "MapModelError",
    "OutsideDomain",
    "PiecewiseAffineMap",
    "build_map",
    "parse_definition",
    "standard_map",
    # verifier
    "cone_certificate",
    "serialize_reports",
    "verify_map",
    # symbolic dynamics
    "CylinderCensus",
    "CylinderChain",
    "census",
    "coding_triangles",
    "confined_start",
    "cylinder",
    "drift_check",
    "fiber_width",
    "iterate",
    "max_fiber_width",
    # entropy
    "block_entropy",
    "build_skew",
    "conjugacy_probe",
    "embed_orbit",
    "enumerate_cycles",
    "escape_stats",
    "paper_iota",
    "sigma_entropy",
    "word_count",
    # figures
    "FIGURE_IDS",
    "FigureSpec",
    "UnknownFigure",
    "render_figure",
    "__version__",
]
