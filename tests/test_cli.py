"""End-to-end tests of the command-line interface (in-process)."""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pam.cli import MAX_CYLINDER_DEPTH, MAX_ENTROPY_M, MAX_ORBIT_DEPTH, main
from pam.geometry import Point, format_rational
from pam.mapmodel import standard_definition_text, standard_map
from pam.symbolic import CylinderCensus

# a unit square split into three triangles with a T-junction at m=(1,1):
# the diagonal of abc passes through m, whose pinned image disagrees there
SQUARE_TJUNCTION = (
    "vertex a 0 0\nvertex b 2 0\nvertex c 2 2\nvertex d 0 2\n"
    "vertex m 1 1\n"
    "domain a b c d\n"
    "triangle abc a b c\ntriangle amd a m d\ntriangle mcd m c d\n"
    "image a a\nimage b b\nimage c c\nimage d d\nimage m 1 0\n"
)


@pytest.fixture
def no_seed(monkeypatch):
    monkeypatch.delenv("PAM_SEED", raising=False)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- build -------------------------------------------------------------------


def test_build_bundled(capsys):
    code, out, err = run(capsys, ["build"])
    assert code == 0
    assert "pieces: 31" in out
    assert "continuity: exact" in out
    assert "cone certificates: pass" in out
    assert "deviation: piece count is 31" in out


def test_build_from_file(capsys, tmp_path):
    path = tmp_path / "standard.map"
    path.write_text(standard_definition_text())
    code, out, _ = run(capsys, ["build", "--map", str(path)])
    assert code == 0
    assert "continuity: exact" in out


def test_build_empty_file_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "empty.map"
    path.write_text("")
    code, out, err = run(capsys, ["build", "--map", str(path)])
    assert code == 2
    assert "line 0" in err


def test_build_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, ["build", "--map", str(tmp_path / "nope.map")])
    assert code == 3
    assert "cannot read" in err


def test_build_rejects_image_pushed_outside(capsys, tmp_path):
    # nudge an image-row vertex across the right boundary edge
    text = standard_definition_text().replace(
        "vertex E^u 3/4 3/2\n", "vertex E^u 751/1000 3/2\n", 1
    )
    assert "751/1000" in text
    path = tmp_path / "bad.map"
    path.write_text(text)
    code, _, err = run(capsys, ["build", "--map", str(path)])
    assert code == 2
    assert "ImageOutsideDomain" in err
    assert "maps outside the domain" in err


def test_build_rejects_perturbed_coding_corner(capsys, tmp_path):
    # a 1/1000 nudge of a coding-piece corner breaks the frozen certificates
    text = standard_definition_text().replace(
        "vertex B^c -9/20 1/2\n", "vertex B^c -449/1000 1/2\n", 1
    )
    assert "-449/1000" in text
    path = tmp_path / "bad.map"
    path.write_text(text)
    code, out, _ = run(capsys, ["build", "--map", str(path)])
    assert code == 2
    assert "cone certificates: fail" in out
    assert "FAIL:" in out


def test_build_reports_discontinuity_witness(capsys, tmp_path):
    path = tmp_path / "tjunction.map"
    path.write_text(SQUARE_TJUNCTION)
    code, _, err = run(capsys, ["build", "--map", str(path)])
    assert code == 2
    assert "ContinuityViolation" in err
    assert "shared edge" in err


def test_build_rejects_collinear_triangle(capsys, tmp_path):
    text = standard_definition_text().replace(
        "triangle NWA N W A\n", "triangle NWA N W A\ntriangle bad W A B\n", 1
    )
    assert "triangle bad" in text
    path = tmp_path / "collinear.map"
    path.write_text(text)
    code, out, err = run(capsys, ["build", "--map", str(path)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("MapDefinitionError: triangle bad:")
    assert "collinear" in err


def test_build_rejects_degenerate_domain(capsys, tmp_path):
    path = tmp_path / "flat.map"
    path.write_text(
        "vertex a 0 0\nvertex b 1 0\nvertex c 2 0\nvertex d 3 0\nvertex e 0 1\n"
        "domain a b c d\ntriangle abe a b e\nimage a a\nimage b b\nimage e e\n"
    )
    code, _, err = run(capsys, ["build", "--map", str(path)])
    assert code == 2
    assert err.startswith("MapDefinitionError: domain a b c d:")


# a valid map of a square that uses none of the bundled vertex names
# beyond N and S
SQUARE_IDENTITY = (
    "vertex N 0 2\nvertex S 0 0\nvertex W -1 1\nvertex E 1 1\n"
    "domain E N W S\n"
    "triangle NWS N W S\ntriangle NSE N S E\n"
    "image N N\nimage S S\nimage W W\nimage E E\n"
)


@pytest.mark.parametrize("subcommand", ["build", "verify", "cylinders"])
def test_non_standard_map_names_the_missing_label(capsys, tmp_path, subcommand):
    path = tmp_path / "identity.map"
    path.write_text(SQUARE_IDENTITY)
    code, out, err = run(capsys, [subcommand, "--map", str(path)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("UnknownLabel: the map has no ")


def test_preimage_figure_on_a_map_without_the_predicted_regions(capsys, tmp_path):
    # the figure needs only NEW and its preimage, not the three regions
    # that 07-preimage-new predicts
    path = tmp_path / "identity.map"
    path.write_text(SQUARE_IDENTITY)
    code, out, err = run(capsys, ["render", "--figure", "preimage-NEW", "--map", str(path)])
    assert (code, err) == (0, "")
    preimage = ET.fromstring(out).find("{http://www.w3.org/2000/svg}g[@id='preimage']")
    assert len(preimage) == 2  # NEW itself, cut by the two identity pieces


def test_orbit_on_a_map_without_the_coding_names(capsys, tmp_path):
    path = tmp_path / "identity.map"
    path.write_text(SQUARE_IDENTITY)
    code, out, err = run(capsys, ["orbit", "0", "1", "--map", str(path), "--depth", "3"])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["step\tx\ty\tsign\tletter"] + [
        f"{k}\t0\t1\t0\t-" for k in range(4)
    ]


# the bundled map with W^c sent to W: it still builds, but the piece
# W^cA^tW^t is flattened onto a segment
FLATTENED_PIECE = standard_definition_text().replace(
    "image W^c W^c\n", "image W^c W\n", 1
)


@pytest.mark.parametrize(
    "argv", [["cylinders"], ["render", "--figure", "left-right-image"]]
)
def test_flattened_piece_is_named(capsys, tmp_path, argv):
    assert FLATTENED_PIECE != standard_definition_text()
    path = tmp_path / "flattened.map"
    path.write_text(FLATTENED_PIECE)
    code, out, err = run(capsys, [*argv, "--map", str(path)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("NonInvertiblePiece: ")


def _swap_images(text, a, b):
    """The definition with the image targets of vertices a and b swapped."""
    lines = text.splitlines(keepends=True)
    i, j = (
        next(k for k, line in enumerate(lines) if line.startswith(f"image {v} "))
        for v in (a, b)
    )
    ti, tj = lines[i].split(), lines[j].split()
    ti[2:], tj[2:] = tj[2:], ti[2:]
    lines[i], lines[j] = " ".join(ti) + "\n", " ".join(tj) + "\n"
    return "".join(lines)


def test_verify_survives_a_surd_eigenvalue(capsys, tmp_path):
    # W^cA^cA^t then has the eigenvalues 1/2 ± 1/6*sqrt(-51), which
    # analyze_WAS must format as surds rather than crash on
    path = tmp_path / "surd.map"
    path.write_text(_swap_images(standard_definition_text(), "A^t", "B^c"))
    code, out, err = run(capsys, ["verify", "--map", str(path)])
    assert code == 2
    assert out.count("property: ") == 10
    assert err.count("\n") == 1
    assert err.startswith("FAILED: ") and "10-was-analysis" in err
    # the witnesses gathered before the singular piece B^cO^tB^t stop
    # the property are kept, and the invertibility failure comes last
    block = out.split("property: 10-was-analysis\n", 1)[1].split("\n\n", 1)[0]
    assert "witness: FAIL: W^cA^cA^t: eigenvalues 1/2 + 1/6*sqrt(-51), " in block
    assert block.rstrip("\n").endswith(
        "witness: FAIL: every piece is invertible [NonInvertiblePiece: B^cO^tB^t]"
    )


def test_cylinders_counts_an_escaping_drift_orbit_as_failed(capsys, tmp_path, no_seed):
    path = tmp_path / "escape.map"
    path.write_text(_swap_images(standard_definition_text(), "S", "W"))
    code, out, err = run(capsys, ["cylinders", "--map", str(path)])
    assert code == 2
    assert "drift identity exact: 0/32" in out
    assert "drift inequality holds: 0/32" in out
    assert out.endswith("status: fail\n")
    assert err.count("\n") == 1
    assert err.startswith("OrbitLeftRegion: step ")


@st.composite
def mutants(draw):
    """The bundled definition with one line dropped or duplicated, one
    vertex coordinate nudged by 1/1000, two image targets swapped, or
    one token garbled."""
    lines = standard_definition_text().splitlines(keepends=True)
    kind = draw(st.sampled_from(["drop", "duplicate", "nudge", "swap", "garble"]))
    if kind in ("drop", "duplicate"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i : i + 1] = [] if kind == "drop" else [lines[i]] * 2
        return "".join(lines)
    if kind == "nudge":
        i = draw(st.sampled_from([k for k, line in enumerate(lines) if line.startswith("vertex ")]))
        tokens = lines[i].split()
        axis = draw(st.sampled_from([2, 3]))
        step = Fraction(draw(st.sampled_from([1, -1])), 1000)
        tokens[axis] = format_rational(Fraction(tokens[axis]) + step)
        lines[i] = " ".join(tokens) + "\n"
        return "".join(lines)
    text = "".join(lines)
    if kind == "swap":
        names = [line.split()[1] for line in lines if line.startswith("image ")]
        a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        return _swap_images(text, a, b)
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    if tokens:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(["?", "1/0", "Z^z", "-", "triangle", "1e999"])
        )
    lines[i] = " ".join(tokens) + "\n"
    return "".join(lines)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mutants())
def test_mutated_map_ends_in_a_verdict(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.map"
        path.write_text(text)
        for argv in (
            ["build"],
            ["verify"],
            ["cylinders", "--depth", "3", "--samples", "2"],
        ):
            out, err = StringIO(), StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, "--map", str(path)])
            assert code in (0, 2, 3), argv
            if code != 0:
                assert err.getvalue() or "FAIL" in out.getvalue() or (
                    "status: fail" in out.getvalue()
                ), argv


# -- verify ------------------------------------------------------------------


def test_verify_reports_every_property_despite_a_flattened_piece(capsys, tmp_path):
    path = tmp_path / "flattened.map"
    path.write_text(FLATTENED_PIECE)
    code, out, err = run(capsys, ["verify", "--map", str(path)])
    assert code == 2
    assert out.count("property: ") == 10
    assert err == (
        "FAILED: 01-fixed-points, 07-preimage-new, 08-folding, 09-left-right, "
        "10-was-analysis\n"
    )


def test_verify_bundled_report(capsys, tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, ["verify", "--report", str(report)])
    assert code == 0
    assert out.count("property:") == 10
    for needle in ("0, 0.525", "0, 0.55", "0, 0.825", "5/3, 5/4", "5/2, 1"):
        assert needle in out, needle
    # the recorded wording tension about the vertical factors
    assert "without reconciling them" in out
    assert report.read_text() == out


def test_verify_is_deterministic(capsys):
    code1, out1, _ = run(capsys, ["verify"])
    code2, out2, _ = run(capsys, ["verify"])
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_verify_fails_on_perturbed_map(capsys, tmp_path):
    text = standard_definition_text().replace(
        "vertex B^c -9/20 1/2\n", "vertex B^c -449/1000 1/2\n", 1
    )
    path = tmp_path / "bad.map"
    path.write_text(text)
    code, out, err = run(capsys, ["verify", "--map", str(path)])
    assert code == 2
    assert "FAILED" in err


# -- orbit -------------------------------------------------------------------


def test_orbit_exact_table(capsys):
    code, out, _ = run(capsys, ["orbit", "-19/40", "1/2", "--depth", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "step\tx\ty\tsign\tletter"
    assert lines[1] == "0\t-19/40\t1/2\t-1\t0"
    assert lines[2] == "1\t0\t1/4\t0\t-"
    assert lines[3] == "2\t3/8\t1/4\t1\t-"
    assert lines[4] == "3\t-3/4\t1/2\t-1\t-"
    assert lines[5] == "4\t-3/4\t1/2\t-1\t-"
    assert len(lines) == 6


def test_orbit_default_depth(capsys):
    code, out, _ = run(capsys, ["orbit", "0", "1"])
    assert code == 0
    assert len(out.splitlines()) == 22  # header + 21 points


def test_orbit_outside_domain(capsys):
    code, _, err = run(capsys, ["orbit", "5", "5"])
    assert code == 3
    assert "not in the domain" in err


def test_orbit_bad_rational(capsys):
    code, _, err = run(capsys, ["orbit", "abc", "1/2"])
    assert code == 3
    assert "not a rational number" in err


def test_orbit_rejects_nonpositive_depth(capsys):
    code, _, err = run(capsys, ["orbit", "0", "1", "--depth", "0"])
    assert code == 3
    assert "must be positive" in err


@pytest.mark.parametrize("depth", [15000, 1000000000])
def test_orbit_depth_above_the_ceiling_starts_no_iteration(capsys, monkeypatch, depth):
    def started(*args):
        raise AssertionError("the map loaded or the orbit started")

    monkeypatch.setattr("pam.cli._load_map", started)
    monkeypatch.setattr("pam.cli.iterate", started)
    code, out, err = run(capsys, ["orbit", "3/7", "1/3", "--depth", str(depth)])
    assert (code, out) == (3, "")
    assert err == f"usage error: --depth {depth} is above the ceiling of {MAX_ORBIT_DEPTH}\n"


def test_orbit_with_an_unprintable_coordinate_prints_nothing(capsys):
    # from (3/7, 1/3) the denominators gain one bit per step: at step
    # 13800 they have about 4160 digits, and a few hundred steps later
    # more than the interpreter's int-to-str limit of 4300
    t = standard_map()
    p = Point(Fraction(3, 7), Fraction(1, 3))
    for _ in range(13800):
        p = t.evaluate(p)
    argv = ["orbit", format_rational(p.x), format_rational(p.y), "--depth", "1000"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: step ") and err.count("\n") == 1


# stdout SHA-256 under PAM_SEED=0, pinned so that any change to the
# exact orbit table or to the drift report shows, down to a byte
PINNED_STDOUT = [
    (["orbit", "3/7", "1/3", "--depth", "2000"],
     "37ccf83680101e21c28475b9674dff5c9192786ef37c5bc8588820ada0b3f2c8"),
    (["cylinders", "--depth", "7", "--samples", "50", "--orbit-length", "100"],
     "7ad9a4823d616a8470914b485f127f455a59bee2bc27f150a0a1991af9bb3045"),
    (["entropy", "--max-M", "64", "--delta", "1e-4,1e-2,0.3"],
     "b0db5531bf225eff581229bbf76983119bc337ad1aaf78c88571fa0eac4defb5"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=["orbit", "cylinders", "entropy"])
def test_stdout_is_byte_identical_to_the_pinned_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("PAM_SEED", "0")
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# -- cylinders ---------------------------------------------------------------


def test_cylinders_counts_and_drift(capsys, no_seed):
    code, out, _ = run(capsys, ["cylinders", "--depth", "5", "--samples", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed: 0"
    assert lines[1] == "depth\tcells\texpected\tok"
    for n in range(1, 6):
        assert lines[1 + n] == f"{n}\t{2 ** n}\t{2 ** n}\tyes"
    assert "drift identity exact: 8/8" in out
    assert "drift inequality holds: 8/8" in out
    assert out.endswith("status: pass\n")


def test_cylinders_seed_determinism(capsys, monkeypatch):
    monkeypatch.setenv("PAM_SEED", "42")
    code1, out1, _ = run(capsys, ["cylinders", "--depth", "3", "--samples", "10"])
    code2, out2, _ = run(capsys, ["cylinders", "--depth", "3", "--samples", "10"])
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert "seed: 42" in out1


def test_cylinders_other_seed_still_passes(capsys, monkeypatch):
    monkeypatch.setenv("PAM_SEED", "20260815")
    code, out, _ = run(capsys, ["cylinders", "--depth", "2", "--samples", "12"])
    assert code == 0
    assert "drift identity exact: 12/12" in out


@pytest.mark.parametrize("depth", [30, 1000000000])
def test_cylinders_depth_above_the_ceiling_starts_no_descent(capsys, monkeypatch, depth):
    def descent(*args):
        raise AssertionError("the census started")

    monkeypatch.setattr("pam.cli.census", descent)
    code, out, err = run(capsys, ["cylinders", "--depth", str(depth)])
    assert code == 3
    assert out == ""
    assert err == f"usage error: --depth {depth} is above the ceiling of {MAX_CYLINDER_DEPTH}\n"


@pytest.mark.parametrize("length", ["1", "0"])
def test_cylinders_orbit_length_below_two_starts_no_work(capsys, monkeypatch, length):
    def started(*args):
        raise AssertionError("the map loaded or the census started")

    monkeypatch.setattr("pam.cli._load_map", started)
    monkeypatch.setattr("pam.cli.census", started)
    code, out, err = run(capsys, ["cylinders", "--depth", "2", "--orbit-length", length])
    assert (code, out) == (3, "")
    assert err.startswith("usage error: argument --orbit-length: ")
    assert err.count("\n") == 1


def test_cylinders_depth_at_the_ceiling_runs(capsys, monkeypatch, no_seed):
    # a stand-in census: the real one at the ceiling takes seconds
    def census(t, n, triangles):
        return CylinderCensus(tuple(2**k for k in range(1, n + 1)), {})

    monkeypatch.setattr("pam.cli.census", census)
    code, out, _ = run(capsys, ["cylinders", "--depth", str(MAX_CYLINDER_DEPTH), "--samples", "2"])
    assert code == 0
    assert f"{MAX_CYLINDER_DEPTH}\t{2 ** MAX_CYLINDER_DEPTH}\t" in out


def test_cylinders_bad_seed(capsys, monkeypatch):
    monkeypatch.setenv("PAM_SEED", "not-a-number")
    code, _, err = run(capsys, ["cylinders"])
    assert code == 3
    assert "PAM_SEED" in err


# -- entropy -----------------------------------------------------------------


def test_entropy_table(capsys, tmp_path):
    report = tmp_path / "entropy.tsv"
    code, out, _ = run(capsys, ["entropy", "--max-M", "8",
                                "--report", str(report)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["M", "states", "entropy", "gap", "P(y<0.001)"]
    row1 = lines[1].split("\t")
    assert row1[0] == "1" and row1[1] == "3"
    assert abs(float(row1[2]) - 0.34657359027997264) < 1e-11
    row8 = lines[8].split("\t")
    assert row8[0] == "8" and row8[1] == "17"
    assert abs(float(row8[4]) - 4 / 9) < 1e-9
    assert "entropy strictly increasing: yes" in out
    assert "entropy below log 2: yes" in out
    assert "escape columns nondecreasing: yes" in out
    assert "demonstration of the mechanism, not a proof" in out
    assert report.read_text() == out


def test_entropy_multiple_deltas(capsys):
    code, out, _ = run(capsys, ["entropy", "--max-M", "4",
                                "--delta", "1e-2,1e-4"])
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert header[4:] == ["P(y<0.0001)", "P(y<0.01)"]  # sorted ascending


def test_entropy_rejects_bad_delta(capsys):
    code, _, err = run(capsys, ["entropy", "--delta", "0"])
    assert code == 3
    code, _, err = run(capsys, ["entropy", "--delta", "abc"])
    assert code == 3


def test_entropy_rejects_bad_max_M(capsys):
    code, _, err = run(capsys, ["entropy", "--max-M", "-3"])
    assert code == 3


@pytest.mark.parametrize("max_m", [3001, 1000000000])
def test_entropy_max_M_above_the_ceiling_builds_no_row(capsys, monkeypatch, max_m):
    def row(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr("pam.cli.escape_stats", row)
    code, out, err = run(capsys, ["entropy", "--max-M", str(max_m)])
    assert (code, out) == (3, "")
    assert err == f"usage error: --max-M {max_m} is above the ceiling of {MAX_ENTROPY_M}\n"


def test_entropy_max_M_at_the_ceiling_runs(capsys):
    code, out, _ = run(capsys, ["entropy", "--max-M", str(MAX_ENTROPY_M)])
    assert code == 0
    lines = out.splitlines()
    assert lines[MAX_ENTROPY_M].startswith(f"{MAX_ENTROPY_M}\t{2 * MAX_ENTROPY_M + 1}\t")
    assert lines[MAX_ENTROPY_M + 1 : MAX_ENTROPY_M + 4] == [
        "entropy strictly increasing: yes",
        "entropy below log 2: yes",
        "escape columns nondecreasing: yes",
    ]


def test_entropy_columns_holding_every_level_read_one(capsys):
    # for δ > 1/2 every level lies below δ; the column is exactly 1, so
    # float noise cannot make it fall from one row to the next
    code, out, _ = run(capsys, ["entropy", "--delta", "0.6,1,2"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:33]]
    assert all(row[4:] == ["1", "1", "1"] for row in rows)
    assert "escape columns nondecreasing: yes" in out


def test_entropy_help_names_the_ceiling(capsys):
    code, out, _ = run(capsys, ["entropy", "--help"])
    assert code == 0
    assert f"at most {MAX_ENTROPY_M}" in " ".join(out.split())


# -- render ------------------------------------------------------------------


def test_render_to_file(capsys, tmp_path):
    path = tmp_path / "partition.svg"
    code, out, _ = run(capsys, ["render", "--figure", "partition",
                                "--out", str(path)])
    assert code == 0
    assert f"wrote {path}" in out
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")


def test_render_to_stdout(capsys):
    code, out, _ = run(capsys, ["render", "--figure", "strips"])
    assert code == 0
    assert out.startswith("<?xml")
    ET.fromstring(out)


def test_render_unknown_figure(capsys):
    code, _, err = run(capsys, ["render", "--figure", "heatmap"])
    assert code == 3
    assert "unknown figure" in err


def test_render_unwritable_path(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.svg"
    code, _, err = run(capsys, ["render", "--figure", "strips",
                                "--out", str(target)])
    assert code == 3
    assert "cannot write" in err


# -- top-level wiring --------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, ["--bogus"])
    assert code == 3
    code, _, err = run(capsys, [])
    assert code == 3


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.skipif(shutil.which("pam") is None, reason="pam script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(
        ["pam", "build"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "continuity: exact" in proc.stdout


def test_module_invocation_smoke():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "pam.cli", "render", "--figure", "heatmap"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 3
