#!/usr/bin/env python3
"""Benchmark of the pam laboratory: four seeded workloads, exact checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

One process, one thread, one closed-loop client.  A run

1. times set-up (``import pam``, `standard_map()`, `coding_triangles`) in
   fresh interpreters, several times, and keeps the median (`--trace 0`);
2. makes the workload's inputs from `--seed`;
3. repeats the round until `--seconds` have been measured.  The first
   round's outputs are checked against the oracle; each later round must
   reproduce them exactly.  Each time is taken at reference host speed
   (see hostspeed.py), and each metric is a median over the rounds.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it spends half the time untraced and half traced, and reports the
per-layer metrics of the traced rounds plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without the package sources next to it the runner exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional

from hostspeed import HostSpeed
from spans import MODULES, Tracer, counts_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_RUNS = 9
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pam\n"
    "pam.coding_triangles(pam.standard_map())\n"
    "print(repr(time.perf_counter()))\n"
)
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

VERIFIER_FNS = (
    "verify_fixed_points", "verify_top_attraction", "verify_markov",
    "verify_y_factors", "verify_cone_stability", "verify_horizontal_expansion",
    "verify_preimage_NEW", "verify_folding", "verify_left_right", "analyze_WAS",
)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Round(NamedTuple):
    seconds: List[float]  # per call, in call order
    trace: Optional[dict]
    scale: float  # host-speed scale around the round (see hostspeed.py)


def percentile(samples: List[float], p: float) -> float:
    """Linear interpolation between closest ranks (p in 0..100)."""
    data = sorted(samples)
    pos = (len(data) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(queries_per_round: int) -> float:
    """Highest listed percentile with at least ten samples beyond it in a
    single round.  Every run measures at least one round, so the rule holds
    on every run, and the percentile does not change with the round count.
    With fewer than twenty queries a round, the tail is the maximum."""
    fitting = [p for p in PERCENTILES if queries_per_round * (100 - p) / 100 >= TAIL_BEYOND]
    return max(fitting) if fitting else 100


def measure_setup(speed: HostSpeed) -> tuple:
    """Seconds from starting a fresh interpreter to the map being ready,
    and the host-speed scale around that time."""
    before = speed.scale()
    start = time.perf_counter()  # CLOCK_MONOTONIC: shared with the child
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout.strip().splitlines()[-1]) - start
    return seconds, (before + speed.scale()) / 2


def run_round(workload, checks) -> tuple:
    """One pass over the workload's calls: outputs and per-call seconds."""
    outputs, seconds = [], []
    clock = time.perf_counter
    for call in workload.calls:
        start = clock()
        try:
            out = call.fn()
        except Exception as exc:  # a failing call is a failed check, not an abort
            out = ("raised", call.label, repr(exc))
            checks.expect(False, f"{workload.name}: {call.label} raised {exc!r}")
        seconds.append(clock() - start)
        outputs.append(out)
    return outputs, seconds


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()


class RoundCheck:
    """Checks the first round in full; later rounds must repeat it exactly."""

    def __init__(self, workload, checks):
        self.workload = workload
        self.checks = checks
        self.reference: Optional[str] = None

    def __call__(self, outputs) -> None:
        d = digest(outputs)
        if self.reference is None:
            self.reference = d
            try:
                self.workload.check(outputs, self.checks)
            except Exception as exc:
                self.checks.expect(False, f"{self.workload.name}: oracle raised {exc!r}")
        else:
            self.checks.expect(
                d == self.reference,
                f"{self.workload.name}: round output identical to the checked round",
            )


def run_phase(workload, seconds: float, check: RoundCheck, speed: HostSpeed,
              tracer=None, between=None) -> List[Round]:
    """Repeat the round until the rounds add up to `seconds`; at least one.
    Host-speed samples, checking and `between` run outside the measured
    time."""
    rounds = []
    spent = 0.0
    while not rounds or spent < seconds:
        if tracer is not None:
            tracer.reset()
        before = speed.scale()
        outputs, times = run_round(workload, check.checks)
        scale = (before + speed.scale()) / 2
        snap = tracer.snapshot() if tracer is not None else None
        check(outputs)
        rounds.append(Round(times, snap, scale))
        spent += math.fsum(times)
        if between is not None:
            between()
    return rounds


def per_call(rounds: List[Round], scaled: bool = True) -> List[float]:
    """Each call's median time over the rounds, each round's times taken
    at reference host speed (or as measured, with `scaled` false)."""
    return [
        statistics.median(t * (r.scale if scaled else 1.0) for t, r in zip(times, rounds))
        for times in zip(*(r.seconds for r in rounds))
    ]


def round_wall(rounds: List[Round], scaled: bool = True) -> float:
    """Median over the rounds of one round's total time."""
    return statistics.median(math.fsum(r.seconds) * (r.scale if scaled else 1.0) for r in rounds)


def end_to_end(rounds: List[Round], queries: List[bool], setup: List[tuple],
               tail_p: float, scaled: bool = True) -> Dict[str, float]:
    if any(queries):
        lat = [t for t, q in zip(per_call(rounds, scaled), queries) if q]
    else:  # a batch workload: the round is its one request
        lat = [round_wall(rounds, scaled)]
    return {
        "setup_s": statistics.median(s * (k if scaled else 1.0) for s, k in setup),
        "wall_s": round_wall(rounds, scaled),
        "query_p50_ms": 1e3 * percentile(lat, 50),
        "query_tail_ms": 1e3 * percentile(lat, tail_p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced: List[Round], plain: List[Round], standard_map_s: float,
              queries: int, checks, workload: str) -> Dict[str, tuple]:
    """Per-layer metrics of one traced round: counts from the first
    traced round (they must repeat in every other), times as the median
    over the traced rounds at reference host speed."""
    snaps = [r.trace for r in traced]
    first = counts_of(snaps[0])
    checks.expect(
        all(counts_of(s) == first for s in snaps[1:]),
        f"{workload}: traced counts repeat in every round",
    )
    calls = first["calls"]
    counters = first["counters"]

    def n(name):
        return calls.get(name, 0)

    def median(name, field):
        return statistics.median(
            r.trace["stats"].get(name, (0, 0.0, 0.0))[field] * r.scale for r in traced
        )

    def self_s(name):
        return median(name, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    m: Dict[str, tuple] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for span in ("geometry.clip", "geometry.transformed", "geometry.affine.compose",
                 "geometry.affine.inverse", "mapmodel.piece_at", "mapmodel.build_map",
                 "symbolic.count_cylinders", "entropy.escape_stats", "entropy.sigma_entropy",
                 "figures.render_figure", "cli.main"):
        put(span + ".calls", n(span), "count")
        put(span + ".self_s", self_s(span), "s")
    put("geometry.clip.empty_ratio", ratio(counters.get("geometry.clip.empty", 0), n("geometry.clip")), "ratio")
    put("geometry.coord_bits.max", counters.get("geometry.coord_bits.max", 0), "bits")
    for span in ("geometry.region_area", "geometry.symdiff_area", "geometry.region_difference",
                 "mapmodel.evaluate", "mapmodel.parse_definition", "symbolic.max_fiber_width",
                 "symbolic.iterate", "symbolic.drift_check", "symbolic.confined_start",
                 "entropy.word_count", "entropy.extension_check", "entropy.enumerate_cycles",
                 "entropy.embed_orbit", "verifier.verify_map"):
        put(span + ".self_s", self_s(span), "s")
    put("geometry.contains.calls", n("geometry.contains"), "count")
    put("mapmodel.piece_at.mean_scan",
        ratio(counters.get("mapmodel.piece_at.scan", 0), n("mapmodel.piece_at")), "pieces")
    put("mapmodel.region.calls", n("mapmodel.region"), "count")
    put("mapmodel.region.per_query", ratio(n("mapmodel.region"), queries), "count")
    put("mapmodel.standard_map.s", standard_map_s, "s")
    put("symbolic.cells.total", counters.get("symbolic.cells.total", 0), "count")
    put("entropy.make_cycle.accept_ratio",
        ratio(counters.get("entropy.make_cycle.accepted", 0), n("entropy.make_cycle")), "ratio")
    for fn in VERIFIER_FNS:
        put(f"verifier.{fn}.s", median("verifier." + fn, 2), "s")
    for module in MODULES:
        put(f"{module}.errors", counters.get(module + ".errors", 0), "count")
    put("trace.overhead_s", round_wall(traced) - round_wall(plain), "s")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One run: (metrics {name: (value, unit)}, Checks, host record)."""
    import numpy
    import pam
    from pam import mapmodel

    import workloads

    setup: List[tuple] = []
    speed = HostSpeed()

    def one_setup():
        # spread over the run, so the median sees the host as the rounds do
        if len(setup) < SETUP_RUNS:
            setup.append(measure_setup(speed))

    workload = workloads.WORKLOADS[name](
        seed, pam.standard_map(), mapmodel.standard_definition_text(), WORKDIR
    )
    checks = workloads.Checks()
    check = RoundCheck(workload, checks)
    is_query = [call.query for call in workload.calls]
    queries = sum(is_query) or 1  # a batch round is one request
    tail_p = tail_percentile(queries)
    try:
        # no warm-up round: a cold first round is one sample of the median
        if not trace:
            rounds = run_phase(workload, seconds, check, speed, between=one_setup)
            while len(setup) < SETUP_RUNS:
                one_setup()
            values = end_to_end(rounds, is_query, setup, tail_p)
            metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
            unscaled = end_to_end(rounds, is_query, setup, tail_p, scaled=False)
            samples = {"setup_s": len(setup), "rounds": len(rounds),
                       "query_latencies": queries}
        else:
            plain = run_phase(workload, seconds / 2, check, speed)
            standard_map_s = min(_timed(mapmodel.standard_map.__wrapped__) for _ in range(3))
            standard_map_s *= speed.scale()
            with Tracer() as tracer:
                traced = run_phase(workload, seconds / 2, check, speed, tracer)
            metrics = per_layer(traced, plain, standard_map_s, queries, checks, name)
            unscaled = {}
            samples = {"traced_rounds": len(traced), "untraced_rounds": len(plain)}
    finally:
        workload.close()

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workload": name,
        "seed": seed,
        "queries_per_round": queries,
        "tail_percentile": tail_p,
        "samples": samples,
        "fail_ratio": len(checks.failed) / max(checks.attempted, 1),
        "speed_kernel_s": {"min": min(speed.samples), "median": statistics.median(speed.samples),
                           "max": max(speed.samples), "samples": len(speed.samples)},
        "unscaled": unscaled,
    }
    return metrics, checks, host


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "drift", "ladder", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pam", "__init__.py")):
        print(f"error: no pam sources under {SRC}", file=sys.stderr)
        return 2
    # one thread: numpy's BLAS would otherwise start a pool of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    metrics, checks, host = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    print("host: " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name in checks.failed[:50]:
        print(f"FAILED {name}")
    if len(checks.failed) > 50:
        print(f"FAILED ... and {len(checks.failed) - 50} more")
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
