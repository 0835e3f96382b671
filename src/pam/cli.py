"""Command-line front end.

Subcommands::

    pam build      construct the map from a definition file and validate it
    pam verify     run the full property suite and emit a report
    pam orbit      iterate one exact starting point and print the orbit
    pam cylinders  count itinerary cells and spot-check the height drift law
    pam entropy    entropy ladder and mass-escape table for the height walks
    pam render     draw one of the published figures as SVG

Exit status: 0 when every check passes, 2 on a verification or validation
failure, 3 on a usage or configuration error.

All output is plain text with tab-separated tables, floats printed to 12
significant digits and rationals printed as ``p/q``.  Identical inputs
(including the PAM_SEED environment variable, which seeds the orbit
sampler of ``cylinders``) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .geometry import Point, format_rational
from .mapmodel import MapModelError, build_map, parse_definition, standard_map
from .verifier import (
    VerifierError,
    serialize_reports,
    verify_cone_stability,
    verify_map,
)
from .symbolic import (
    OrbitLeftRegion,
    census,
    coding_triangles,
    confined_start,
    drift_check,
    iterate,
)
from .entropy import LOG2, escape_stats
from .figures import FigureSpec, UnknownFigure, render_figure

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_USAGE = 3

# the deepest census `pam cylinders` runs: on the bundled map depth 16
# takes about 6 s and 100 MB (one thread, Python 3.11), and each further
# level about doubles both
MAX_CYLINDER_DEPTH = 16

# the longest orbit `pam orbit` iterates: coordinates can gain about one
# bit per step, so the table grows quadratically; from (3/7, 1/3) depth
# 10000 takes about 3 s and prints 45 MB, and past step 14 277 that orbit
# has coordinates too long for Python's int-to-str digit limit
MAX_ORBIT_DEPTH = 10000

# the largest drift bound `pam entropy` tabulates.  Rows are closed
# forms, O(1) each (--max-M 3000 takes about 0.2 s); what bounds M is
# that the verdict lines compare floats, and consecutive float entropies
# stop increasing at M = 281477
MAX_ENTROPY_M = 3000


class _UsageError(Exception):
    """Bad flags, unreadable paths, malformed numbers: exit status 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 3
        raise _UsageError(message)


def _fmt_float(value: float) -> str:
    return format(float(value), ".12g")


def _load_map(path: Optional[str]):
    """Build the map from `path`, or return the bundled one.

    File-system problems are usage errors; definition problems are
    validation failures and propagate as MapModelError.
    """
    if path is None:
        return standard_map()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read map definition {path!r}: {exc}") from exc
    return build_map(parse_definition(text))


def _write_report(path: Optional[str], text: str, out) -> None:
    print(text, end="" if text.endswith("\n") else "\n", file=out)
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write report {path!r}: {exc}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return value


def _orbit_length(text: str) -> int:
    # sampled orbit words have at least two letters
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2: {text}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _delta_list(text: str) -> tuple:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            value = float(chunk)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {chunk!r}")
        if not 0 < value:
            raise argparse.ArgumentTypeError(f"thresholds must be positive: {chunk}")
        out.append(value)
    if not out:
        raise argparse.ArgumentTypeError("empty threshold list")
    return tuple(sorted(out))


# -- subcommands -------------------------------------------------------------


def cmd_build(args, out, err) -> int:
    t = _load_map(args.map)
    cones = verify_cone_stability(t)
    print(f"pieces: {len(t.pieces)}", file=out)
    print("continuity: exact", file=out)
    print("coverage: exact", file=out)
    print("vertex images: exact", file=out)
    print(f"cone certificates: {cones.status}", file=out)
    for witness in cones.witnesses:
        print(f"  {witness}", file=out)
    print(f"deviations: {len(t.deviations)}", file=out)
    for note in t.deviations:
        print(f"  deviation: {note}", file=out)
    return EXIT_OK if cones.status != "fail" else EXIT_VERIFICATION


def cmd_verify(args, out, err) -> int:
    t = _load_map(args.map)
    reports = verify_map(t)
    _write_report(args.report, serialize_reports(reports), out)
    failed = [r for r in reports if r.status == "fail"]
    if failed:
        print(f"FAILED: {', '.join(r.property_id for r in failed)}", file=err)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_orbit(args, out, err) -> int:
    if args.depth > MAX_ORBIT_DEPTH:
        raise _UsageError(f"--depth {args.depth} is above the ceiling of {MAX_ORBIT_DEPTH}")
    t = _load_map(args.map)
    start = Point(args.x, args.y)
    try:
        record = iterate(t, start, args.depth)
    except (MapModelError, OrbitLeftRegion, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    # the whole table is built before anything is printed, so a
    # coordinate that cannot be printed leaves stdout empty
    rows = ["step\tx\ty\tsign\tletter"]
    for k, p in enumerate(record.points):
        letter = record.coding[k]
        try:
            x, y = format_rational(p.x), format_rational(p.y)
        except ValueError:  # past the interpreter's int-to-str digit limit
            limit = sys.get_int_max_str_digits()
            print(f"error: step {k}: a coordinate has more than {limit} digits to print", file=err)
            return EXIT_USAGE
        rows.append(f"{k}\t{x}\t{y}\t{record.signs[k]}\t{'-' if letter is None else letter}")
    print("\n".join(rows), file=out)
    return EXIT_OK


def cmd_cylinders(args, out, err) -> int:
    seed_text = os.environ.get("PAM_SEED", "0")
    try:
        seed = int(seed_text)
    except ValueError:
        print(f"error: PAM_SEED must be an integer, got {seed_text!r}", file=err)
        return EXIT_USAGE
    if args.depth > MAX_CYLINDER_DEPTH:
        raise _UsageError(f"--depth {args.depth} is above the ceiling of {MAX_CYLINDER_DEPTH}")
    t = _load_map(args.map)
    triangles = coding_triangles(t)
    counts = census(t, args.depth, triangles).counts

    print(f"seed: {seed}", file=out)
    print("depth\tcells\texpected\tok", file=out)
    all_ok = True
    for n, count in enumerate(counts, 1):
        ok = count == 2**n
        all_ok = all_ok and ok
        print(f"{n}\t{count}\t{2 ** n}\t{'yes' if ok else 'NO'}", file=out)

    rng = random.Random(seed)
    orbits = args.samples
    identity_ok = inequality_ok = 0
    left: Optional[OrbitLeftRegion] = None
    for _ in range(orbits):
        length = rng.randint(2, args.orbit_length)
        word = "".join(rng.choice("01") for _ in range(length))
        start = confined_start(word)
        record = iterate(t, start, len(word), triangles)
        try:
            verdict = drift_check(t, record)
        except OrbitLeftRegion as exc:  # fails both the identity and the inequality
            left = left or exc
            continue
        identity_ok += verdict.identity_holds
        inequality_ok += verdict.inequality_holds
    if left is not None:
        print(f"OrbitLeftRegion: {left}", file=err)
    print(f"drift orbits: {orbits}", file=out)
    print(f"drift identity exact: {identity_ok}/{orbits}", file=out)
    print(f"drift inequality holds: {inequality_ok}/{orbits}", file=out)
    drift_ok = identity_ok == orbits and inequality_ok == orbits
    print(f"status: {'pass' if all_ok and drift_ok else 'fail'}", file=out)
    return EXIT_OK if all_ok and drift_ok else EXIT_VERIFICATION


def cmd_entropy(args, out, err) -> int:
    if args.max_M > MAX_ENTROPY_M:
        raise _UsageError(f"--max-M {args.max_M} is above the ceiling of {MAX_ENTROPY_M}")
    deltas = args.delta
    lines: List[str] = []
    header = ["M", "states", "entropy", "gap"]
    header += [f"P(y<{_fmt_float(d)})" for d in deltas]
    lines.append("\t".join(header))

    entropies: List[float] = []
    tails: List[tuple] = []
    for m in range(1, args.max_M + 1):
        stats = escape_stats(m, deltas=deltas)
        entropy = stats.entropy
        entropies.append(entropy)
        probs = tuple(p for _, p in stats.p_below)
        tails.append(probs)
        row = [str(m), str(2 * m + 1), _fmt_float(entropy), _fmt_float(LOG2 - entropy)]
        row += [_fmt_float(p) for p in probs]
        lines.append("\t".join(row))

    increasing = all(b > a for a, b in zip(entropies, entropies[1:]))
    below = all(e < LOG2 for e in entropies)
    tail_monotone = all(
        all(b[i] >= a[i] for i in range(len(deltas)))
        for a, b in zip(tails, tails[1:])
    )
    lines.append(f"entropy strictly increasing: {'yes' if increasing else 'NO'}")
    lines.append(f"entropy below log 2: {'yes' if below else 'NO'}")
    lines.append(f"escape columns nondecreasing: {'yes' if tail_monotone else 'NO'}")
    lines.append(
        "note: the table demonstrates the escape-of-mass mechanism numerically"
        " - as the entropy of the bounded-drift laws climbs toward log 2, their"
        " mass concentrates at arbitrarily small heights; this is a"
        " demonstration of the mechanism, not a proof."
    )
    _write_report(args.report, "\n".join(lines) + "\n", out)
    ok = increasing and below and tail_monotone
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_render(args, out, err) -> int:
    t = _load_map(args.map)
    try:
        spec = FigureSpec(args.figure, labels=not args.no_labels)
    except UnknownFigure as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    document = render_figure(t, spec)
    if args.out is None:
        print(document, end="", file=out)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc}", file=err)
            return EXIT_USAGE
        print(f"wrote {args.out}", file=out)
    return EXIT_OK


# -- wiring ------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="pam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_map(p):
        p.add_argument("--map", metavar="PATH", default=None,
                       help="map definition file (default: bundled)")

    p = sub.add_parser("build", help="construct and validate the map")
    add_map(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run the property suite")
    add_map(p)
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the report to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbit", help="iterate one exact point")
    # let negative rationals like -19/40 through as positional values
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    add_map(p)
    p.add_argument("x", type=_rational, help="starting x (rational, e.g. -19/40)")
    p.add_argument("y", type=_rational, help="starting y (rational, e.g. 1/2)")
    p.add_argument("--depth", type=_positive_int, default=20, metavar="N",
                   help=f"number of steps (default 20, at most {MAX_ORBIT_DEPTH})")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("cylinders", help="count itinerary cells, check drift")
    add_map(p)
    p.add_argument("--depth", type=_positive_int, default=8, metavar="N",
                   help=f"deepest cell level to count (default 8,"
                        f" at most {MAX_CYLINDER_DEPTH})")
    p.add_argument("--samples", type=_positive_int, default=32, metavar="N",
                   help="random confined orbits to drift-check (default 32)")
    p.add_argument("--orbit-length", type=_orbit_length, default=40, metavar="N",
                   help="maximum sampled orbit length, at least 2 (default 40)")
    p.set_defaults(func=cmd_cylinders)

    p = sub.add_parser("entropy", help="entropy ladder and escape-of-mass table")
    p.add_argument("--max-M", type=_positive_int, default=32, metavar="N",
                   help=f"largest drift bound M (default 32, at most {MAX_ENTROPY_M})")
    p.add_argument("--delta", type=_delta_list, default=(1e-3,), metavar="LIST",
                   help="comma-separated height thresholds (default 1e-3)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="also write the table to this file")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("render", help="draw a figure as SVG")
    add_map(p)
    p.add_argument("--figure", required=True, metavar="ID",
                   help="one of: partition, preimage-NEW, strips, folding,"
                        " folding-image, left-right, left-right-image")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output file (default: stdout)")
    p.add_argument("--no-labels", action="store_true", help="suppress text labels")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends when called in-process
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE

    try:
        return args.func(args, sys.stdout, sys.stderr)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MapModelError, VerifierError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
