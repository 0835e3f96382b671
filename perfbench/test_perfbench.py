"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

They run the benchmark's own workloads, one or two rounds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pam  # noqa: E402
from pam import mapmodel  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, counts_of  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def make(name, seed=7):
    return workloads.WORKLOADS[name](
        seed, pam.standard_map(), mapmodel.standard_definition_text(), run.WORKDIR
    )


def traced_round(workload):
    checks = workloads.Checks()
    with Tracer() as tracer:
        outputs, _ = run.run_round(workload, checks)
    return outputs, tracer.snapshot(), checks


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_are_identical(name):
    w = make(name)
    try:
        checks = workloads.Checks()
        plain, _ = run.run_round(w, checks)
        traced, _, traced_checks = traced_round(w)
        w.check(plain, checks)
        w.check(traced, checks)
    finally:
        w.close()
    assert checks.failed == [] and traced_checks.failed == []
    assert checks.attempted > 0
    assert run.digest(plain) == run.digest(traced)


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_counts_repeat_exactly(name):
    w = make(name)
    try:
        _, first, _ = traced_round(w)
        _, second, _ = traced_round(w)
    finally:
        w.close()
    assert counts_of(first) == counts_of(second)
    busiest = {"census": "geometry.clip", "drift": "mapmodel.piece_at",
               "ladder": "entropy.sigma_entropy", "session": "cli.main"}[name]
    assert first["stats"][busiest][0] > 0


def test_tracer_restores_every_binding():
    before = (pam.clip, pam.geometry.clip, pam.symbolic.clip, pam.cli.main,
              pam.verifier._VERIFIERS, pam.geometry.AffineMap.compose)
    with Tracer():
        assert pam.symbolic.clip is not before[2]
    after = (pam.clip, pam.geometry.clip, pam.symbolic.clip, pam.cli.main,
             pam.verifier._VERIFIERS, pam.geometry.AffineMap.compose)
    assert after == before


def _result(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "session",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_emitted(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == listed


def test_wrong_expectation_shows_as_failure(monkeypatch):
    monkeypatch.setattr(oracle, "walk_entropy", lambda m: 1e-6 + oracle.math.log(
        2.0 * oracle.math.cos(oracle.math.pi / (2 * m + 2))))
    metrics, checks, host = run.measure("ladder", 5, 0.1, True)
    assert host["fail_ratio"] > 0
    assert any("sigma_entropy" in name for name in checks.failed)
    assert metrics  # the run still completes and reports


def test_wrong_report_bytes_show_as_failure(monkeypatch):
    monkeypatch.setattr(oracle, "cylinders_report", lambda seed, depth, samples: "seed: 0\n")
    _, checks, host = run.measure("census", 5, 0.1, True)
    assert host["fail_ratio"] > 0
    assert checks.failed == ["census: cylinders report bytes (2^n cells, drift law)"]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(300) == 95
    assert run.tail_percentile(109) == 90
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(35) == 50
    assert run.tail_percentile(2) == 100


def test_times_are_taken_at_reference_speed():
    rounds = [run.Round([1.0, 3.0], None, 1.0), run.Round([2.0, 2.0], None, 0.5),
              run.Round([4.0, 1.0], None, 0.5)]
    assert run.per_call(rounds) == [1.0, 1.0]  # medians of (1, 1, 2) and (3, 1, 0.5)
    assert run.per_call(rounds, scaled=False) == [2.0, 2.0]
    assert run.round_wall(rounds) == 2.5  # median of 4, 2 and 2.5
    assert run.round_wall(rounds, scaled=False) == 4.0
    queries = run.end_to_end(rounds, [True, True], [(1.0, 1.0)], 100)
    assert queries["query_p50_ms"] == 1000.0 and queries["wall_s"] == 2.5
    batch = run.end_to_end(rounds, [False, False], [(1.0, 1.0)], 100)
    assert batch["query_p50_ms"] == batch["query_tail_ms"] == 2500.0  # the round


def test_oracle_word_count_matches_brute_force():
    from itertools import product

    for m in (1, 2, 3):
        for n in range(1, 11):
            brute = 0
            for word in product((-1, 1), repeat=n):
                pos = lo = hi = 0
                for step in word:
                    pos += step
                    lo, hi = min(lo, pos), max(hi, pos)
                brute += hi - lo <= 2 * m
            assert oracle.word_count(m, n) == brute
