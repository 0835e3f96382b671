"""The four workloads: seeded inputs, the calls of one round, and checks.

A round is a fixed list of calls made one after another by a single
client (a closed loop: each call starts when the previous one returns).
Every round of a run repeats the same calls on the same inputs, which
are made once from the seed.  Why each workload exists, and what it
must and must not exercise, is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction
from typing import Callable, List, NamedTuple

import oracle

import pam
from pam import cli, entropy, symbolic


class Call(NamedTuple):
    label: str
    fn: Callable[[], object]
    query: bool  # a query contributes a latency sample; a workload
                 # without queries is a batch job, one request a round


class CliResult(NamedTuple):
    status: int
    stdout: str
    stderr: str


def run_cli(argv: List[str], env: dict = None) -> CliResult:
    """`pam.cli.main` in-process with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in (env or {})}
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return CliResult(status, out.getvalue(), err.getvalue())


class Checks:
    """Counts checks and names the failed ones; never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed: List[str] = []

    def expect(self, ok: bool, name: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok


class Workload:
    name = ""
    calls: List[Call]

    def __init__(self, seed: int, t, definition: str, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ref = oracle.ReferenceMap(definition)

    def check(self, outputs: List[object], checks: Checks) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Census(Workload):
    """``pam cylinders --depth D`` then `max_fiber_width(t, D)`."""

    name = "census"
    DEPTH = 7
    # exact widest fibers at DEPTH, per first letter
    WIDTHS = {0: Fraction(1, 800000000), 1: Fraction(1, 1280000000)}
    # the smallest drift sample the CLI accepts, so the census stays a
    # geometry workload
    SAMPLES, ORBIT_LENGTH = 1, 2

    def __init__(self, seed, t, definition, workdir):
        super().__init__(seed, t, definition, workdir)
        self.pam_seed = self.rng.randrange(2**31)
        argv = ["cylinders", "--depth", str(self.DEPTH), "--samples", str(self.SAMPLES),
                "--orbit-length", str(self.ORBIT_LENGTH)]
        triangles = symbolic.coding_triangles(t)
        self.calls = [
            Call("cylinders", lambda: run_cli(argv, {"PAM_SEED": str(self.pam_seed)}), False),
            Call("max_fiber_width", lambda: symbolic.max_fiber_width(t, self.DEPTH, triangles), False),
        ]

    def check(self, outputs, checks):
        report, widths = outputs
        expected = oracle.cylinders_report(self.pam_seed, self.DEPTH, self.SAMPLES)
        checks.expect(report.status == 0, "census: cylinders exit status 0")
        checks.expect(
            oracle.sha256(report.stdout) == oracle.sha256(expected),
            "census: cylinders report bytes (2^n cells, drift law)",
        )
        for letter, tri in enumerate(oracle.CODING):
            got = widths.get(letter)
            bound = Fraction(4) ** -self.DEPTH * self.ref.chord(tri)
            checks.expect(got is not None and got <= bound, f"census: width {letter} <= 4^-D initial")
            checks.expect(got == self.WIDTHS[letter], f"census: exact width {letter}")


class Drift(Workload):
    """Confined orbit queries, then periodic-cycle embeddings."""

    name = "drift"
    ORBITS = 100
    MAX_LENGTH = 100
    CYCLE_M = (1, 2, 3, 4)
    CYCLE_PERIOD = 6

    def __init__(self, seed, t, definition, workdir):
        super().__init__(seed, t, definition, workdir)
        rng = self.rng
        # every length 1..100 equally often, so the work per round hardly
        # depends on the seed; the order and the letters are random
        lengths = [1 + i % self.MAX_LENGTH for i in range(self.ORBITS)]
        rng.shuffle(lengths)
        self.words = ["".join(rng.choice("01") for _ in range(n)) for n in lengths]
        triangles = symbolic.coding_triangles(t)

        def orbit(word):
            record = symbolic.iterate(t, symbolic.confined_start(word), len(word), triangles)
            return record, symbolic.drift_check(t, record)

        def embeddings():
            out = []
            for m in self.CYCLE_M:
                skew = entropy.build_skew(m)
                for cyc in entropy.enumerate_cycles(skew, self.CYCLE_PERIOD):
                    out.append((m, cyc.word, cyc.start, entropy.embed_orbit(t, skew, cyc)))
            return out

        self.calls = [Call("orbit", (lambda w=w: orbit(w)), True) for w in self.words]
        self.calls.append(Call("embed_orbit", embeddings, False))

    def check(self, outputs, checks):
        ref = self.ref
        for word, (record, verdict) in zip(self.words, outputs[:-1]):
            letters = [int(c) for c in word]
            n = len(letters)
            pts = record.points
            exponent = sum(2 * c - 1 for c in letters)
            checks.expect(
                len(pts) == n + 1 and list(record.coding[:n]) == letters,
                "drift: orbit realizes its word",
            )
            checks.expect(
                all(pts[k + 1].y == pts[k].y * Fraction(2) ** (2 * letters[k] - 1) for k in range(n)),
                "drift: height multiplier 2^(+-1) at every step",
            )
            checks.expect(
                pts[n].y == pts[0].y * Fraction(2) ** exponent
                and verdict.identity_holds is True
                and verdict.inequality_holds is True
                and verdict.exponent == exponent,
                "drift: drift identity y_n = y_0 2^(sum sign x_k)",
            )
            checks.expect(
                all(ref(tuple(pts[k])) == tuple(pts[k + 1]) for k in range(n)),
                "drift: every step matches the definition",
            )
        embedded = outputs[-1]
        for m in self.CYCLE_M:
            got = {(w, s) for mm, w, s, _ in embedded if mm == m}
            checks.expect(got == oracle.cycles(m, self.CYCLE_PERIOD), f"drift: cycle set M={m}")
        for m, word, start, orbit in embedded:
            p = len(word)
            heights_ok = orbit[0].y == Fraction(1, 2) * Fraction(2) ** (start - m) and all(
                orbit[(k + 1) % p].y == orbit[k].y * Fraction(2) ** (2 * word[k] - 1)
                for k in range(p)
            )
            closes = all(ref(tuple(orbit[k])) == tuple(orbit[(k + 1) % p]) for k in range(p))
            checks.expect(len(orbit) == p and heights_ok and closes, "drift: embedded orbit closes")


class Ladder(Workload):
    """``pam entropy --max-M M``, sigma_entropy(1..M), word counts and
    skew-extension checks."""

    name = "ladder"
    MAX_M = 32
    SIGMA_M = 32
    WORD_COUNTS = ((8, 200), (16, 200), (24, 200))
    EXTENSIONS = ((1, 10), (2, 10), (3, 10), (4, 10))
    NOTE = (
        "note: the table demonstrates the escape-of-mass mechanism numerically"
        " - as the entropy of the bounded-drift laws climbs toward log 2, their"
        " mass concentrates at arbitrarily small heights; this is a"
        " demonstration of the mechanism, not a proof."
    )

    def __init__(self, seed, t, definition, workdir):
        super().__init__(seed, t, definition, workdir)
        # two height thresholds 10^-u, u in [2, 5], three significant digits
        self.deltas = sorted(float(f"{10 ** -self.rng.uniform(2, 5):.3g}") for _ in range(2))
        argv = ["entropy", "--max-M", str(self.MAX_M), "--delta", ",".join(repr(d) for d in self.deltas)]
        self.calls = [Call("entropy", lambda: run_cli(argv), False)]
        self.calls += [
            Call("sigma_entropy", (lambda m=m: entropy.sigma_entropy(m)), False)
            for m in range(1, self.SIGMA_M + 1)
        ]
        self.calls += [
            Call("word_count", (lambda mn=mn: entropy.word_count(*mn)), False) for mn in self.WORD_COUNTS
        ]
        self.calls += [
            Call("extension_check",
                 (lambda m=m, n=n: entropy.build_skew(m).extension_check(n)), False)
            for m, n in self.EXTENSIONS
        ]

    def check(self, outputs, checks):
        report = outputs[0]
        checks.expect(report.status == 0, "ladder: entropy exit status 0")
        lines = report.stdout.splitlines()
        header = "\t".join(["M", "states", "entropy", "gap"] + [f"P(y<{d:.12g})" for d in self.deltas])
        checks.expect(bool(lines) and lines[0] == header, "ladder: table header")
        rows = [line.split("\t") for line in lines[1 : 1 + self.MAX_M]]
        log2 = math.log(2.0)
        for m, row in enumerate(rows, start=1):
            try:
                values = [float(v) for v in row[2:]]
                ok_shape = row[0] == str(m) and row[1] == str(2 * m + 1) and len(values) == 2 + len(self.deltas)
            except ValueError:
                ok_shape = False
            checks.expect(ok_shape, f"ladder: row {m} shape")
            if not ok_shape:
                continue
            h = oracle.walk_entropy(m)
            checks.expect(abs(values[0] - h) <= oracle.ENTROPY_TOL, f"ladder: entropy M={m}")
            checks.expect(abs(values[1] - (log2 - h)) <= oracle.ENTROPY_TOL, f"ladder: gap M={m}")
            for d, v in zip(self.deltas, values[2:]):
                checks.expect(abs(v - oracle.p_below(m, d)) <= oracle.PROB_TOL, f"ladder: P(y<{d}) M={m}")
        checks.expect(len(rows) == self.MAX_M, "ladder: one row per M")
        checks.expect(
            lines[1 + self.MAX_M :] == [
                "entropy strictly increasing: yes",
                "entropy below log 2: yes",
                "escape columns nondecreasing: yes",
                self.NOTE,
            ],
            "ladder: verdict lines",
        )
        for m, sigma in enumerate(outputs[1 : 1 + self.SIGMA_M], start=1):
            checks.expect(abs(sigma - oracle.walk_entropy(m)) <= oracle.ENTROPY_TOL, f"ladder: sigma_entropy({m})")
        rest = outputs[1 + self.SIGMA_M :]
        for mn, count in zip(self.WORD_COUNTS, rest):
            checks.expect(count == oracle.word_count(*mn), f"ladder: word_count{mn}")
        for mn, ok in zip(self.EXTENSIONS, rest[len(self.WORD_COUNTS):]):
            checks.expect(ok is True, f"ladder: extension_check{mn}")


class Session(Workload):
    """Interactive CLI requests: build, verify, every figure, orbits."""

    name = "session"
    ORBITS = 100
    DEPTH = 20  # the CLI default
    VERIFY_IDS = (
        "01-fixed-points", "02-top-attraction", "03-markov", "04-y-factors",
        "05-cone-stability", "06-horizontal-expansion", "07-preimage-new",
        "08-folding", "09-left-right", "10-was-analysis",
    )
    # report bytes of the seed commit; a speed-up must reproduce them
    BUILD_SHA256 = "7d851ee736eddf2ff15acc8d80ecf5df58f5d6376e4c9264a4518213d871281d"
    FIGURE_SHA256 = {
        "partition": "a28f801aad420ad18c425d8767934f3adfe02ad14ce9d859dc638a051bbd1110",
        "preimage-NEW": "7687a7f7b6c7d37d67bc6ff27cd08bdd6198a0f038cc5db34fbb61b58fa521e7",
        "strips": "1e4b8d82a70bdd69a3a78434887adc4f87bb42f33fcce262d63fdb41b48f6802",
        "folding": "8bd4522a9e1489caa59048201210c275c5e3b5f5bcd16dcf8c24f490ac1586b3",
        "folding-image": "46a59459f2017c807ae195d304514b7f43e606ec09216c772ba26c71162f7904",
        "left-right": "d7451d39217050c3b31bf856ee8b9054704f82d468472f2eeca244c1c9f4c351",
        "left-right-image": "09e59d7e82e1ccd6c2e52acb3a4b3dc8fff02674124ae1f9ad435fc571383913",
    }

    def __init__(self, seed, t, definition, workdir):
        super().__init__(seed, t, definition, workdir)
        rng = self.rng
        os.makedirs(workdir, exist_ok=True)
        self.map_path = os.path.join(workdir, f"session-{os.getpid()}.map")
        with open(self.map_path, "w", encoding="utf-8") as fh:
            fh.write(definition)
        # generic starts: uniform rationals with 3-4 digit denominators,
        # kept when they fall inside Q
        self.starts = []
        while len(self.starts) < self.ORBITS:
            q = rng.randrange(1000, 10000)
            p = (Fraction(rng.randrange(-3 * q // 2, 3 * q // 2 + 1), q),
                 Fraction(rng.randrange(0, 2 * q + 1), q))
            if self.ref.in_domain(p):
                self.starts.append(p)
        requests = [("build", ["build", "--map", self.map_path]),
                    ("verify", ["verify", "--map", self.map_path])]
        requests += [("render", ["render", "--figure", f]) for f in pam.FIGURE_IDS]
        requests += [
            ("orbit", ["orbit", oracle.fmt_rational(x), oracle.fmt_rational(y)]) for x, y in self.starts
        ]
        rng.shuffle(requests)
        self.requests = requests
        self.calls = [Call(label, (lambda a=argv: run_cli(a)), True) for label, argv in requests]

    def check(self, outputs, checks):
        for (label, argv), res in zip(self.requests, outputs):
            checks.expect(res.status == 0, f"session: {label} exit status 0")
            digest = oracle.sha256(res.stdout)
            if label == "build":
                checks.expect(digest == self.BUILD_SHA256, "session: build report bytes")
            elif label == "verify":
                blocks = [b.splitlines() for b in res.stdout.strip().split("\n\n")]
                ids = tuple(b[0].removeprefix("property: ") for b in blocks if b)
                statuses = {b[2] for b in blocks if len(b) > 2}
                checks.expect(ids == self.VERIFY_IDS and statuses == {"status: pass"},
                              "session: verify passes all ten properties")
            elif label == "render":
                figure = argv[-1]
                checks.expect(digest == self.FIGURE_SHA256.get(figure), f"session: figure {figure} bytes")
            else:
                start = (Fraction(argv[1]), Fraction(argv[2]))
                expected = oracle.orbit_report(self.ref, start, self.DEPTH)
                checks.expect(digest == oracle.sha256(expected), "session: orbit report bytes")

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.map_path)


WORKLOADS = {cls.name: cls for cls in (Census, Drift, Ladder, Session)}
