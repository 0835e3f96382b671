"""Per-layer tracing from outside the program.

`Tracer` wraps the public functions of each `pam` module, and a few
public methods, in spans.  It does so by rebinding names: every `pam`
module namespace that holds the original function gets the wrapper
instead, so calls between modules (``from .geometry import clip``) and
calls inside a module (global lookups) are both seen.  Nothing under
``src/`` is edited; `uninstall` puts every original back.

A span's self time is its duration minus the durations of the spans it
called directly.  Statistics are aggregated per span name as the calls
happen; no per-call record is kept, so tracing a deep census costs
memory proportional to the number of names, not calls.

Probes are lighter: they wrap a private function without opening a span
(their time stays with the caller) and only feed a counter.  They give
the counts that no public function returns: cells produced by the
cylinder descent and coordinate bit lengths at the deepest level.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from typing import Callable, Dict, List

MODULES = ("geometry", "mapmodel", "symbolic", "entropy", "verifier", "figures", "cli")

# public methods that carry the hot paths, as (module, class, method, span name)
METHODS = (
    ("geometry", "ConvexPolygon", "transformed", "geometry.transformed"),
    ("geometry", "ConvexPolygon", "contains", "geometry.contains"),
    ("geometry", "AffineMap", "compose", "geometry.affine.compose"),
    ("geometry", "AffineMap", "inverse", "geometry.affine.inverse"),
    ("mapmodel", "PiecewiseAffineMap", "piece_at", "mapmodel.piece_at"),
    ("mapmodel", "PiecewiseAffineMap", "evaluate", "mapmodel.evaluate"),
    ("mapmodel", "PiecewiseAffineMap", "region", "mapmodel.region"),
    ("entropy", "SkewSystem", "extension_check", "entropy.extension_check"),
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


def _coord_bits(cell) -> int:
    return max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for v in cell.vertices
        for c in v
    )


class Tracer:
    """Span and counter collection for one traced round at a time."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.counters: Dict[str, int] = {}
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        module = name.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [module, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            failed = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = Stat()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                # an exception caught inside the same module is control flow
                # (make_cycle rejecting a start level); count only those
                # that leave the module
                if failed and (parent is None or parent[0] != module):
                    self.count(module + ".errors")
            if hook is not None:
                hook(result, args)
            return result

        return wrapper

    def _probe(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result, args)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, replacement, namespaces) -> None:
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, replacement)
                    self._undo.append(functools.partial(setattr, ns, key, original))

    def _set_method(self, cls, attr: str, replacement) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, replacement)
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        import pam  # noqa: F401  (loads every submodule)

        mods = {name: sys.modules["pam." + name] for name in MODULES}
        namespaces = [sys.modules["pam"], *mods.values()]

        hooks = {
            "geometry.clip": lambda r, a: r is None and self.count("geometry.clip.empty"),
            "mapmodel.piece_at": lambda r, a: self.count("mapmodel.piece_at.scan", r[0] + 1),
            "entropy.make_cycle": lambda r, a: self.count("entropy.make_cycle.accepted"),
        }
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    self._rebind(fn, self._span(name, fn, hooks.get(name)), namespaces)
        for short, cls_name, attr, name in METHODS:
            cls = getattr(mods[short], cls_name)
            self._set_method(cls, attr, self._span(name, cls.__dict__[attr], hooks.get(name)))

        # verify_map runs its checks from a table of function objects
        verifier = mods["verifier"]
        table = verifier._VERIFIERS
        self._undo.append(functools.partial(setattr, verifier, "_VERIFIERS", table))
        verifier._VERIFIERS = tuple((pid, getattr(verifier, fn.__name__)) for pid, fn in table)

        symbolic = mods["symbolic"]
        branches = symbolic._Branches
        self._set_method(
            branches,
            "step",
            self._probe(
                branches.__dict__["step"],
                lambda r, a: self.count("symbolic.cells.total", len(r)),
            ),
        )
        # max_fiber_width measures each leaf cell of the deepest level once
        self._rebind(
            symbolic._max_chord,
            self._probe(
                symbolic._max_chord,
                lambda r, a: self.maximum("geometry.coord_bits.max", _coord_bits(a[0])),
            ),
            [symbolic],
        )
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- readout ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain copy of this round's numbers, for comparison and medians."""
        return {
            "stats": {k: (v.calls, v.self_s, v.total_s) for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }


def counts_of(snapshot: Dict[str, object]) -> Dict[str, object]:
    """The exact (time-free) part of a snapshot."""
    return {
        "calls": {k: v[0] for k, v in snapshot["stats"].items()},
        "counters": dict(snapshot["counters"]),
    }

