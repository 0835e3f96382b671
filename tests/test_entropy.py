"""Tests for the bounded-walk entropy lab and the exact orbit embeddings."""

import bisect
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import pam
from pam.mapmodel import standard_map
from pam.symbolic import coding_triangles, iterate
from pam.entropy import (
    Cycle,
    CycleInfeasible,
    SkewSystem,
    block_entropy,
    build_skew,
    conjugacy_probe,
    embed_orbit,
    enumerate_cycles,
    escape_stats,
    make_cycle,
    paper_iota,
    sigma_entropy,
    word_count,
)

T = standard_map()
TRI = coding_triangles(T)

LOG2 = math.log(2.0)


def path_spectral_entropy(m_bound: int) -> float:
    """Independent closed form: the 2M+1-vertex path graph has largest
    adjacency eigenvalue 2·cos(pi/(2M+2))."""
    return math.log(2.0 * math.cos(math.pi / (2 * m_bound + 2)))


def brute_force_ranges(n: int) -> np.ndarray:
    """Walk range (max − min of prefix sums, including the start at 0)
    for every one of the 2^n binary words."""
    words = np.arange(1 << n, dtype=np.uint32)
    bits = ((words[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.int8)
    sums = np.cumsum(2 * bits - 1, axis=1, dtype=np.int8)
    hi = np.maximum(sums.max(axis=1), 0)
    lo = np.minimum(sums.min(axis=1), 0)
    return hi - lo


# ---------------------------------------------------------------------------
# counting


def test_block_entropy_small_values():
    assert block_entropy(1) == pytest.approx(math.log(2) / 2, abs=1e-15)
    assert block_entropy(2) == pytest.approx(math.log(6) / 4, abs=1e-15)


def test_block_entropy_converges():
    assert abs(block_entropy(1024) - LOG2) < 0.01
    # monotone increase toward log 2 on a sample ladder
    ladder = [block_entropy(n) for n in (1, 4, 16, 64, 256, 1024)]
    assert all(a < b for a, b in zip(ladder, ladder[1:]))
    assert all(v < LOG2 for v in ladder)


def test_block_entropy_validation():
    with pytest.raises(ValueError):
        block_entropy(0)


def test_word_count_examples():
    assert word_count(1, 1) == 2
    assert word_count(1, 2) == 4
    assert word_count(1, 3) == 6  # everything but 000 and 111


def test_word_count_validation():
    with pytest.raises(ValueError):
        word_count(0, 3)
    with pytest.raises(ValueError):
        word_count(1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_word_count_matches_brute_force(n):
    ranges = brute_force_ranges(n)
    for m_bound in (1, 2, 3, 4):
        assert word_count(m_bound, n) == int((ranges <= 2 * m_bound).sum())


def range_dp_count(m_bound: int, n: int) -> int:
    """Reference count by dynamic programming over (position − running
    minimum, running maximum − position); their sum is the walk range."""
    counts = {(0, 0): 1}
    for _ in range(n):
        nxt = {}
        for (a, b), c in counts.items():
            for key in ((a + 1, max(b - 1, 0)), (max(a - 1, 0), b + 1)):
                if sum(key) <= 2 * m_bound:
                    nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return sum(counts.values())


def test_word_count_matches_range_dp():
    for m_bound in range(1, 7):
        for n in range(1, 40):
            assert word_count(m_bound, n) == range_dp_count(m_bound, n), (m_bound, n)


def test_word_count_nested_in_the_bound():
    for n in range(1, 17):
        for m_bound in range(1, 8):
            assert word_count(m_bound, n) <= word_count(m_bound + 1, n)


# ---------------------------------------------------------------------------
# spectral entropy


def test_sigma_entropy_closed_form():
    for m_bound in (1, 2, 3, 4, 8, 16, 32):
        assert sigma_entropy(m_bound) == pytest.approx(
            path_spectral_entropy(m_bound), abs=1e-9
        )


def test_sigma_entropy_half_log2():
    assert abs(sigma_entropy(1) - LOG2 / 2) < 1e-12


def test_sigma_entropy_monotone_below_log2():
    vals = [sigma_entropy(m) for m in range(1, 25)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < LOG2 for v in vals)


def test_sigma_entropy_matches_word_count_growth():
    n = 1200
    for m_bound in (1, 2, 3):
        growth = math.log(word_count(m_bound, n)) / n
        assert abs(growth - sigma_entropy(m_bound)) < 0.01


@pytest.mark.parametrize("m_bound", range(1, 65))
def test_spectrum_matches_eigensolver(m_bound):
    # independent oracle: a dense symmetric eigensolver on the adjacency
    # matrix of the 2M+1-vertex path
    size = 2 * m_bound + 1
    adjacency = np.eye(size, k=1) + np.eye(size, k=-1)
    oracle = math.log(np.linalg.eigvalsh(adjacency)[-1])
    _, vectors = np.linalg.eigh(adjacency)
    law = vectors[:, -1] ** 2
    law /= law.sum()
    stats = escape_stats(m_bound)
    assert sigma_entropy(m_bound) == pytest.approx(oracle, abs=1e-12)
    assert stats.entropy == pytest.approx(oracle, abs=1e-12)
    for got, want in zip(stats.distribution, law):
        assert got == pytest.approx(float(want), abs=1e-9)


# ---------------------------------------------------------------------------
# the skew extension


def test_skew_transitions_form_the_path():
    skew = build_skew(2)
    assert skew.states == (-2, -1, 0, 1, 2)
    assert skew.state_count == 5
    for s in skew.states:
        for s2 in skew.states:
            linked = any(skew.step(s, letter) == s2 for letter in (0, 1))
            assert linked == (abs(s - s2) == 1)
    with pytest.raises(ValueError):
        build_skew(0)


def test_skew_basic_structure():
    skew = build_skew(1)
    assert skew.states == (-1, 0, 1)
    assert skew.transition_count == 4  # edges of the 3-vertex path, directed
    assert skew.step(1, 1) is None
    assert skew.step(1, 0) == 0


@pytest.mark.parametrize("m_bound", [1, 2, 3, 4])
def test_skew_totality(m_bound):
    assert build_skew(m_bound).totality_check()


@pytest.mark.parametrize("m_bound", [1, 2, 3, 4])
def test_skew_projection_language(m_bound):
    assert build_skew(m_bound).extension_check(9)


def _extension_reference(skew, max_n):
    """The per-word check: every word, every start level, from scratch."""
    return all(
        (skew.fiber_size(w) > 0) == any(skew.admits(w, s) for s in skew.states)
        for n in range(1, max_n + 1)
        for w in itertools.product((0, 1), repeat=n)
    )


def _deletion_mutants(m_bound):
    skew = build_skew(m_bound)
    for key in skew.transitions:
        transitions = {k: v for k, v in skew.transitions.items() if k != key}
        yield key, SkewSystem(m_bound, skew.states, transitions)


@pytest.mark.parametrize("m_bound", [1, 2, 3, 4])
def test_extension_check_matches_per_word_reference(m_bound):
    skew = build_skew(m_bound)
    for n in range(1, 9):
        assert skew.extension_check(n) is _extension_reference(skew, n) is True
    for key, mutant in _deletion_mutants(m_bound):
        assert mutant.extension_check(8) is _extension_reference(mutant, 8) is False, key


@pytest.mark.parametrize("m_bound", [1, 2, 3])
def test_extension_check_catches_a_wrap_around(m_bound):
    # the top level's up-step lands on the bottom level instead of vanishing
    skew = build_skew(m_bound)
    transitions = {**skew.transitions, (m_bound, 1): -m_bound}
    mutant = SkewSystem(m_bound, skew.states, transitions)
    assert mutant.extension_check(8) is _extension_reference(mutant, 8) is False


@pytest.mark.parametrize("max_n", [0, -1])
def test_extension_check_needs_a_positive_length(max_n):
    with pytest.raises(ValueError, match="need n >= 1"):
        build_skew(2).extension_check(max_n)


def test_fiber_sizes():
    skew = build_skew(1)
    assert skew.fiber_size("01") == 2  # range 1 -> two start levels
    assert skew.fiber_size("0011") == 1
    assert skew.fiber_size("000") == 0  # range 3 exceeds the bound
    wide = build_skew(3)
    for word in ("0", "01", "0110", "010101"):
        size = wide.fiber_size(word)
        assert 1 <= size <= 2 * wide.m_bound + 1


def test_projection_count_equals_word_count():
    skew = build_skew(2)
    from itertools import product

    lifted = sum(
        1 for w in product((0, 1), repeat=6) if skew.fiber_size(w) > 0
    )
    assert lifted == word_count(2, 6)


# ---------------------------------------------------------------------------
# cycles and embeddings


def test_make_cycle_validation():
    skew = build_skew(1)
    with pytest.raises(CycleInfeasible):
        make_cycle(skew, (1,), 0)  # constant 1: unbalanced
    with pytest.raises(CycleInfeasible):
        make_cycle(skew, (1, 1), 0)
    with pytest.raises(CycleInfeasible):
        make_cycle(skew, (0, 1), -1)  # level path would dip to -2
    with pytest.raises(CycleInfeasible):
        make_cycle(skew, (0, 1), 5)  # start outside the levels
    with pytest.raises(ValueError):
        make_cycle(skew, (), 0)
    with pytest.raises(ValueError):
        make_cycle(skew, (0, 2), 0)


def test_cycle_level_path():
    cycle = make_cycle(build_skew(1), (0, 1, 1, 0), 0)
    assert cycle.levels == (0, -1, 0, 1, 0)
    assert cycle.period == 4


@pytest.mark.parametrize("m_bound", [1, 2, 3, 4])
def test_enumerate_cycles_supply(m_bound):
    cycles = enumerate_cycles(build_skew(m_bound), 6)
    assert len(cycles) >= 10
    assert len(set((c.word, c.start) for c in cycles)) == len(cycles)
    for c in cycles:
        assert c.period in (2, 4, 6)
        assert c.levels[0] == c.levels[-1] == c.start


def test_embed_alternating_worked_example():
    skew = build_skew(1)
    orbit = embed_orbit(T, skew, make_cycle(skew, (0, 1), 0))
    assert orbit[0] == (F(-361, 1604), F(1, 4))
    assert orbit[1] == (F(399, 3208), F(1, 8))
    # closes under the real map
    assert T.evaluate(orbit[1]) == orbit[0]


def test_embed_period_four():
    skew = build_skew(1)
    cycle = make_cycle(skew, (0, 1, 1, 0), 0)
    orbit = embed_orbit(T, skew, cycle)
    rec = iterate(T, orbit[0], 4, TRI)
    assert rec.points[-1] == orbit[0]
    assert rec.coding[:4] == cycle.word


@pytest.mark.parametrize(
    "start, height",
    # M = 1: the levels -1, 0, 1 sit at heights 1/8, 1/4, 1/2
    [(2, "1"), (-2, "1/16")],
)
def test_embed_rejects_a_start_height_outside_the_levels(start, height):
    # hand-built: make_cycle refuses a start level outside |s| <= M
    cycle = Cycle((0, 1), start, (start, start - 1, start))
    with pytest.raises(CycleInfeasible) as err:
        embed_orbit(T, build_skew(1), cycle)
    assert str(err.value) == f"orbit height {height} leaves [1/8, 1/2] at step 0"


def test_embed_rejects_a_level_path_the_orbit_does_not_follow():
    # letter 0 halves the height, so step 1 sits at level -1, not 0
    cycle = Cycle((0, 1), 0, (0, 0, 0))
    with pytest.raises(CycleInfeasible) as err:
        embed_orbit(T, build_skew(1), cycle)
    assert str(err.value) == "orbit height drifts from the level path at step 1"


@pytest.mark.parametrize("m_bound", [1, 2, 3, 4])
def test_embed_all_enumerated_cycles(m_bound):
    skew = build_skew(m_bound)
    y_cap = F(1, 2)
    floor = y_cap * F(4) ** -m_bound
    for cycle in enumerate_cycles(skew, 6):
        orbit = embed_orbit(T, skew, cycle)
        assert len(orbit) == cycle.period
        # independent re-iteration: closure, coding, and height steps
        rec = iterate(T, orbit[0], cycle.period, TRI)
        assert rec.points[-1] == orbit[0]
        assert rec.coding[: cycle.period] == cycle.word
        for k, letter in enumerate(cycle.word):
            assert rec.points[k + 1].y == rec.points[k].y * F(2) ** (2 * letter - 1)
            assert floor <= rec.points[k].y <= y_cap


# ---------------------------------------------------------------------------
# the printed formula


def test_paper_iota_literal_collapses_on_zero():
    value = paper_iota((0, 1, 0, 1), 1, 1)
    assert value.x == 0
    assert value.mode == "literal"


def test_paper_iota_top_level_scale():
    value = paper_iota((0, 1), 1, 1)  # s at the bound: printed scale is exact
    assert value.y_exact == F(1, 2)
    odd = paper_iota((0, 1), 0, 1)  # odd parity: scale is irrational
    assert odd.y_exact is None
    assert odd.y == pytest.approx(0.5 * 2 ** (-0.5))


def test_paper_iota_signed_series_hits_the_sector_coordinate():
    value = paper_iota((0, 1) * 10, 0, 1, signed=True)
    assert abs(value.x - F(-361, 401)) <= value.truncation_bound
    assert value.truncation_bound == F(1, 20**20)


def test_paper_iota_validation():
    with pytest.raises(ValueError):
        paper_iota((), 0, 1)
    with pytest.raises(ValueError):
        paper_iota((0, 2), 0, 1)


def test_conjugacy_probe_documents_the_mismatch():
    records = conjugacy_probe(T, build_skew(2))
    assert len(records) >= 3
    assert all(not r.literal_agrees for r in records)
    assert all(r.signed_sector_agrees for r in records)
    assert any("outside the domain" in r.note for r in records)
    # where the formula stays in the domain, the mismatch is recorded
    # exactly, and the vertical residual has a nonzero irrational part
    inside = [r for r in records if not r.note]
    assert inside and all(r.dy_sqrt2 != 0 for r in inside)


# ---------------------------------------------------------------------------
# escape of mass


def reference_p_below(m_bound, deltas):
    """P(y < δ) from the whole normalized law, summed level by level with
    fsum: the per-row computation the closed form replaced."""
    angle = math.pi / (2 * m_bound + 2)
    size = 2 * m_bound + 1
    weights = [math.sin(k * angle) ** 2 for k in range(1, size + 1)]
    total = math.fsum(weights)
    dist = [w / total for w in weights]
    # level k (1-based) sits at height 2^(k - size - 1)
    heights = [math.ldexp(1.0, k - size - 1) for k in range(1, size + 1)]
    return [math.fsum(dist[: bisect.bisect_left(heights, delta)]) for delta in deltas]


def level_deltas(m_bound):
    """Every level height 2^(k - 2M - 2), its float neighbours, and a few
    thresholds above and below all levels."""
    out = [0.0, -1.0, 1e-4, 1e-3, 1e-2, 0.3, 0.75, 1.0, 2.0]
    for k in range(1, 2 * m_bound + 2):
        height = 2.0 ** (k - 2 * m_bound - 2)
        out += [height, math.nextafter(height, 0.0), math.nextafter(height, 1.0)]
    return out


@pytest.mark.parametrize("m_bound", range(1, 65))
def test_escape_closed_form_prints_the_reference_digits(m_bound):
    deltas = level_deltas(m_bound)
    stats = escape_stats(m_bound, deltas)
    assert [d for d, _ in stats.p_below] == deltas
    got = [format(p, ".12g") for _, p in stats.p_below]
    want = [format(p, ".12g") for p in reference_p_below(m_bound, deltas)]
    assert got == want
    assert stats.expected_log2_y == -(m_bound + 1)


@pytest.mark.parametrize("m_bound", [65, 100, 333, 1000, 2267, 3000])
def test_escape_closed_form_tracks_the_reference_at_large_M(m_bound):
    # heights below about 2^-1074 underflow to 0.0, so only the top
    # thousand levels can be told apart by a float δ
    deltas = [d for d in level_deltas(m_bound) if d == 0.0 or d >= 2.0**-1000]
    stats = escape_stats(m_bound, deltas)
    for (_, got), want in zip(stats.p_below, reference_p_below(m_bound, deltas)):
        assert abs(got - want) <= 1e-12
    assert stats.expected_log2_y == -(m_bound + 1)


def test_escape_small_masses_keep_relative_precision():
    # the lowest level alone weighs sin²(θ)/(M+1), θ = π/(2M+2): the
    # closed form must not lose it to cancellation against K/2
    for m_bound in (42, 64, 500):
        angle = math.pi / (2 * m_bound + 2)
        lowest = 2.0 ** (-2 * m_bound - 1)
        for k, delta in enumerate((lowest, 2 * lowest, 4 * lowest), start=1):
            (_, got), = escape_stats(m_bound, (delta,)).p_below
            want = math.fsum(math.sin(j * angle) ** 2 for j in range(1, k)) / (m_bound + 1)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_escape_stats_three_level_law():
    stats = escape_stats(1)
    for got, want in zip(stats.distribution, (0.25, 0.5, 0.25)):
        assert got == pytest.approx(want, abs=1e-9)
    assert stats.entropy == pytest.approx(LOG2 / 2, abs=1e-9)
    assert stats.expected_log2_y == pytest.approx(-2.0, abs=1e-9)


def test_escape_thresholds_are_strict_at_level_heights():
    # M = 1: heights 1/8, 1/4, 1/2 carry mass 1/4, 1/2, 1/4
    stats = escape_stats(1, (0.125, 0.1250001, 0.25, 0.5, 0.5000001))
    probs = [p for _, p in stats.p_below]
    assert probs == pytest.approx([0.0, 0.25, 0.25, 0.75, 1.0], abs=1e-12)


@pytest.mark.parametrize("m_bound", [2, 5])
def test_escape_distribution_matches_sine_profile(m_bound):
    stats = escape_stats(m_bound)
    size = 2 * m_bound + 1
    profile = [math.sin((i + 1) * math.pi / (size + 1)) ** 2 for i in range(size)]
    total = sum(profile)
    for got, want in zip(stats.distribution, profile):
        assert got == pytest.approx(want / total, abs=1e-9)
    assert sum(stats.distribution) == pytest.approx(1.0, abs=1e-12)


def test_escape_of_mass_table():
    rows = [escape_stats(m, (1e-3,)) for m in (4, 8, 16, 32)]
    probs = [r.p_below[0][1] for r in rows]
    # frozen from the sine-profile law; the M=8 value is exactly 4/9
    assert probs[0] == 0.0
    assert probs[1] == pytest.approx(4 / 9, abs=1e-9)
    assert probs[2] == pytest.approx(0.8772560989, abs=1e-6)
    assert probs[3] == pytest.approx(0.9812120965, abs=1e-6)
    assert all(a <= b for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.5
    entropies = [r.entropy for r in rows]
    assert all(a < b for a, b in zip(entropies, entropies[1:]))
    assert all(v < LOG2 for v in entropies)
    for row in rows:
        assert row.expected_log2_y == pytest.approx(-(row.m_bound + 1), abs=1e-8)


def test_escape_stats_delta_ladder():
    stats = escape_stats(3, (1e-4, 1e-2, 1.0))
    probs = [p for _, p in stats.p_below]
    assert probs == sorted(probs)
    assert probs[-1] == pytest.approx(1.0, abs=1e-12)


def test_escape_stats_far_out():
    # heights down to 2^-1201 are handled as exact base-2 exponents
    stats = escape_stats(600)
    assert stats.expected_log2_y == pytest.approx(-601, abs=1e-8)
    assert sum(stats.distribution) == pytest.approx(1.0, abs=1e-12)


def test_entropy_report_runs_without_numpy():
    code = (
        "import sys, pam, pam.cli\n"
        "status = pam.cli.main(['entropy'])\n"
        "print('numpy imported:', 'numpy' in sys.modules)\n"
        "sys.exit(status)\n"
    )
    paths = [os.path.dirname(os.path.dirname(pam.__file__))]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "numpy imported: False" in proc.stdout
    assert "entropy below log 2: yes" in proc.stdout
