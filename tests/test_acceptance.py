"""Acceptance suite: the eleven headline guarantees, one test per criterion.

Each test prints a single ``criterion NN [...]: PASS|FAIL`` line (run with
``pytest -s tests/test_acceptance.py`` to see them live).  Containment and
algebraic identities are checked with exact rational arithmetic (implicit
tolerance zero); the floating-point tolerances are pinned below next to
the criteria that use them.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from pam.cli import main
from pam.entropy import (
    LOG2,
    block_entropy,
    build_skew,
    embed_orbit,
    enumerate_cycles,
    escape_stats,
    sigma_entropy,
    word_count,
)
from pam.geometry import Matrix2, Point, region_difference, symdiff_area
from pam.mapmodel import standard_map
from pam.symbolic import (
    census,
    coding_triangles,
    confined_start,
    cylinder,
    drift_check,
    fiber_width,
    iterate,
)
from pam.verifier import cone_certificate

# pinned float tolerances
BLOCK_ENTROPY_TOL = 0.01          # criterion 8: block_entropy(1024) vs log 2
SIGMA_CLOSED_FORM_TOL = 1e-9      # criterion 8: sigma_entropy(1) vs log(2)/2
SIGMA_FLOOR_RATIO = 0.95          # criterion 8: sigma_entropy(64) floor
ESCAPE_DELTA = 1e-3               # criterion 10: height threshold
ESCAPE_MASS_FLOOR = 0.5           # criterion 10: P(y < delta) at M = 32

T = standard_map()
TRI = coding_triangles(T)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{label}]: FAIL")
        raise
    print(f"criterion {number:02d} [{label}]: PASS")


def contained(parts, covers) -> bool:
    """Every polygon of `parts` lies inside the union of `covers` (exact)."""
    return region_difference(list(parts), list(covers)) == []


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_construction_fidelity():
    with criterion(1, "construction fidelity"):
        # building validates exact continuity, coverage, and containment;
        # any violation raises instead of returning
        assert len(T.pieces) == 31
        for name, target in sorted(T.images.items()):
            assert T.evaluate(T.vertices[name]) == target, name
        assert len(T.deviations) == 1
        assert "piece count is 31" in T.deviations[0]


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_piece_matrices_and_cone_certificates():
    expected = {
        "A^cB^cS": (Matrix2.of(10, F(19, 2), 0, F(1, 2)), F(21, 40)),
        "A^tB^tA^c": (Matrix2.of(25, F(45, 2), 0, F(5, 2)), F(11, 20)),
        "A^cB^tB^c": (Matrix2.of(10, F(23, 2), 0, F(5, 2)), F(33, 40)),
        "C^cD^cS": (Matrix2.of(-40, 38, 0, 2), F(21, 40)),
    }
    with criterion(2, "piece matrices + cone certificates"):
        for name, (matrix, gamma2) in expected.items():
            piece = T.piece_with_corners(name)
            assert piece.map.linear == matrix, name
            cert = cone_certificate(piece.map.linear)
            assert cert.holds, name
            assert cert.gamma1 == 0, name
            assert cert.gamma2 == gamma2, name


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_markov_images():
    with criterion(3, "Markov images"):
        ads = T.region("ADS")
        wedge_image = T.region_image(T.region("A^tB^tS"))
        assert symdiff_area(wedge_image, [ads]) == 0
        assert symdiff_area([T.piece_image("C^cD^cS")], [ads]) == 0


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_preimage_of_top_triangle():
    with criterion(4, "preimage of the top triangle"):
        top = T.region("NEW")
        preimage = T.region_preimage(top)
        predicted = [T.region("NWE"), T.region("WW^tO^tO"), T.region("C^cE^cEC")]
        for region in predicted:
            assert contained([region], preimage)
        residual = region_difference(preimage, predicted)
        assert residual  # the central sliver exists
        assert contained(residual, [T.region("OO^cC^cC")])
        for part in residual:
            assert contained(T.region_image(part), [top])


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_left_pocket_spectral_data():
    with criterion(5, "left-pocket spectral data"):
        m_top = T.piece_with_corners("W^cA^tW^t").map.linear
        assert (m_top.trace(), m_top.det()) == (F(5, 3) + F(5, 4), F(5, 3) * F(5, 4))
        m_low = T.piece_with_corners("W^cA^cA^t").map.linear
        assert (m_low.trace(), m_low.det()) == (F(7, 2), F(5, 2))
        assert (m_low.a + 2 * m_low.b, m_low.c + 2 * m_low.d) == (1, 2)  # eigenvector (1, 2)
        w_c = T.vertices["W^c"]
        for k in range(8):  # the fixed segment, 8 equally spaced samples
            p = Point(w_c.x * k / 7, w_c.y * k / 7)
            assert T.evaluate(p) == p
        sector = T.region("W^cA^cS")
        assert contained(T.region_image(sector), [sector])


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_folding_and_left_right():
    with criterion(6, "folding and left/right containments"):
        des, new, was = T.region("DES"), T.region("NEW"), T.region("WAS")
        assert contained(T.region_image(T.region("BOS")), [des, new])
        # the stronger form: no extra triangle is needed for OSC
        assert contained(T.region_image(T.region("OSC")), [des, new])
        assert contained(T.region_image(des), [was, new])
        assert contained(T.region_image(was), [was, new])


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_cylinder_counts_widths_and_drift():
    with criterion(7, "cylinder counts, widths, drift law"):
        result = census(T, 12, TRI)
        assert result.counts == tuple(2**n for n in range(1, 13))

        initial = {
            0: fiber_width(cylinder(T, "0", TRI), 0),
            1: fiber_width(cylinder(T, "1", TRI), 0),
        }
        assert initial == {0: F(2, 25), 1: F(1, 20)}
        for letter in (0, 1):
            assert result.widths[letter] <= F(4) ** -12 * initial[letter], letter

        rng = random.Random(12)
        for _ in range(1000):
            word = "".join(rng.choice("01") for _ in range(rng.randint(1, 100)))
            record = iterate(T, confined_start(word), len(word), TRI)
            verdict = drift_check(T, record)
            assert verdict.identity_holds and verdict.inequality_holds, word


# -- 8 ------------------------------------------------------------------------


def brute_force_walk_counts(n: int) -> np.ndarray:
    """range (max-min, start included) of every length-n ±1 walk."""
    words = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int8)
    walk = np.cumsum(2 * words - 1, axis=1, dtype=np.int16)
    hi = np.maximum(walk.max(axis=1), 0)
    lo = np.minimum(walk.min(axis=1), 0)
    return hi - lo


def test_criterion_08_entropy_ladder():
    with criterion(8, "entropy ladder"):
        assert abs(block_entropy(1024) - LOG2) < BLOCK_ENTROPY_TOL

        sigmas = [sigma_entropy(m) for m in range(1, 65)]
        assert all(b > a for a, b in zip(sigmas, sigmas[1:]))
        assert all(s < LOG2 for s in sigmas)
        assert sigmas[63] >= SIGMA_FLOOR_RATIO * LOG2
        assert abs(sigmas[0] - LOG2 / 2) < SIGMA_CLOSED_FORM_TOL

        for n in range(1, 21):
            ranges = brute_force_walk_counts(n)
            for m in range(1, 5):
                assert word_count(m, n) == int((ranges <= 2 * m).sum()), (n, m)


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_extension_and_embedding():
    with criterion(9, "extension system and periodic embedding"):
        for m in range(1, 5):
            skew = build_skew(m)
            assert skew.totality_check()
            assert skew.extension_check(10)

            cycles = enumerate_cycles(skew, 6)
            assert len(cycles) >= 10, m
            for cyc in cycles:
                orbit = embed_orbit(T, skew, cyc)  # raises if anything is off
                period = len(orbit)
                assert period == cyc.period
                for k, p in enumerate(orbit):
                    succ = orbit[(k + 1) % period]
                    assert T.evaluate(p) == succ  # exact closure under T
                    assert succ.y / p.y in (F(1, 2), F(2))  # height multiplier
                    assert TRI.classify(p) == cyc.word[k]  # coding matches


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_escape_of_mass(capsys):
    with criterion(10, "escape of mass"):
        stats = [escape_stats(m, deltas=(ESCAPE_DELTA,)) for m in (4, 8, 16, 32)]
        entropies = [s.entropy for s in stats]
        assert all(b > a for a, b in zip(entropies, entropies[1:]))
        assert all(e < LOG2 for e in entropies)
        gaps = [LOG2 - e for e in entropies]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))  # climbing toward log 2
        masses = [s.p_below[0][1] for s in stats]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert masses[-1] > ESCAPE_MASS_FLOOR

        # the emitted report must carry the mechanism-not-proof statement
        assert main(["entropy", "--max-M", "32"]) == 0
        out = capsys.readouterr().out
        assert "demonstration of the mechanism, not a proof" in out
        assert "entropy strictly increasing: yes" in out
        assert "escape columns nondecreasing: yes" in out


# -- 11 -----------------------------------------------------------------------


def test_criterion_11_byte_identical_reports(capsys, monkeypatch):
    with criterion(11, "byte-identical reports"):
        monkeypatch.setenv("PAM_SEED", "0")
        runs = {}
        for argv in (
            ["verify"],
            ["cylinders", "--depth", "6", "--samples", "16"],
            ["entropy", "--max-M", "8"],
        ):
            first_code = main(argv)
            first = capsys.readouterr().out
            second_code = main(argv)
            second = capsys.readouterr().out
            assert (first_code, second_code) == (0, 0), argv
            assert first == second, argv
            runs[argv[0]] = first
        assert len(runs) == 3
