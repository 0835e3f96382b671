"""Expected outputs, computed without the code under test.

Everything here is built from the definition text, closed forms or
plain integer recurrences, so a wrong answer from `pam` cannot hide in
its own reference.  Exact quantities are compared exactly; the few
floating-point ones against closed forms within the tolerances below.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

# Power iteration stops at a 1e-12 step; its values at M <= 64 sit within
# 1e-14 of the closed forms.  The tolerances leave room for 12-digit
# printing and for a more exact solver, and still catch a wrong answer.
ENTROPY_TOL = 1e-9      # entropy and gap, absolute, in nats
PROB_TOL = 1e-7         # P(y < delta), absolute

Pt = Tuple[Fraction, Fraction]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fmt_rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# -- the map, from its definition text -------------------------------------


class ReferenceMap:
    """The map evaluated straight from the definition: a point's image is
    the barycentric combination of the vertex images of any triangle
    containing it (continuity makes the choice irrelevant).

    Arithmetic is on integers: definition coordinates are scaled by the
    common denominator L, a point by the common denominator W of its
    coordinates, so a containment test is a few big-integer products and
    only the image is reduced to lowest terms."""

    def __init__(self, text: str):
        self.vertices: Dict[str, Pt] = {}
        self.images: Dict[str, Pt] = {}
        self.triangles: List[Tuple[str, str, str]] = []
        self.domain: Tuple[str, ...] = ()
        for raw in text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            kind, args = tokens[0], tokens[1:]
            if kind == "vertex":
                self.vertices[args[0]] = (Fraction(args[1]), Fraction(args[2]))
            elif kind == "triangle":
                self.triangles.append(tuple(args[1:4]))
            elif kind == "image":
                self.images[args[0]] = (
                    self.vertices[args[1]]
                    if len(args) == 2
                    else (Fraction(args[1]), Fraction(args[2]))
                )
            elif kind == "domain":
                self.domain = tuple(args)
        coords = [c for pt in (*self.vertices.values(), *self.images.values()) for c in pt]
        self._scale = math.lcm(*(c.denominator for c in coords))
        self._tri = [
            (self._scaled(self.vertices[n] for n in tri), self._scaled(self.images[n] for n in tri))
            for tri in self.triangles
        ]
        self._last = 0  # consecutive orbit points usually share a triangle

    def _scaled(self, pts) -> tuple:
        return tuple((int(x * self._scale), int(y * self._scale)) for x, y in pts)

    def _weights(self, tri, p: Pt) -> Optional[Tuple[int, int, int, int]]:
        """Barycentric numerators of p and their common denominator; None
        when p is outside the triangle."""
        x, y = p
        w = math.lcm(x.denominator, y.denominator)
        px = x.numerator * (w // x.denominator) * self._scale
        py = y.numerator * (w // y.denominator) * self._scale
        (a1, b1), (a2, b2), (a3, b3) = tri
        dx, dy = px - a1 * w, py - b1 * w
        det = ((a2 - a1) * (b3 - b1) - (a3 - a1) * (b2 - b1)) * w
        w2 = dx * (b3 - b1) - (a3 - a1) * dy
        w3 = (a2 - a1) * dy - dx * (b2 - b1)
        w1 = det - w2 - w3
        if det > 0:
            inside = w1 >= 0 and w2 >= 0 and w3 >= 0
        else:
            inside = w1 <= 0 and w2 <= 0 and w3 <= 0
        return (w1, w2, w3, det) if inside else None

    def contains(self, names: Sequence[str], p: Pt) -> bool:
        return self._weights(self._scaled(self.vertices[n] for n in names), p) is not None

    def in_domain(self, p: Pt) -> bool:
        quad = [self.vertices[n] for n in self.domain]
        signs = set()
        for i in range(len(quad)):
            (ax, ay), (bx, by) = quad[i], quad[(i + 1) % len(quad)]
            cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            if cross:
                signs.add(cross > 0)
        return len(signs) <= 1

    def __call__(self, p: Pt) -> Pt:
        n = len(self._tri)
        for i in (self._last, *range(n)):
            tri, img = self._tri[i]
            w = self._weights(tri, p)
            if w is not None:
                self._last = i
                w1, w2, w3, det = w
                den = det * self._scale
                return (
                    Fraction(w1 * img[0][0] + w2 * img[1][0] + w3 * img[2][0], den),
                    Fraction(w1 * img[0][1] + w2 * img[1][1] + w3 * img[2][1], den),
                )
        raise ValueError(f"point {p} outside every triangle")

    def chord(self, names: Sequence[str]) -> Fraction:
        """Widest horizontal chord of a triangle (attained at a vertex height)."""
        pts = [self.vertices[n] for n in names]
        best = Fraction(0)
        for _, h in pts:
            xs = [x for x, y in pts if y == h]
            for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
                if min(ay, by) < h < max(ay, by):
                    xs.append(ax + (bx - ax) * (h - ay) / (by - ay))
            best = max(best, max(xs) - min(xs))
        return best


CODING = (("A^t", "B^t", "S"), ("C^c", "D^c", "S"))  # letter 0, letter 1


def orbit_report(ref: ReferenceMap, start: Pt, depth: int) -> str:
    """Exact stdout of ``pam orbit X Y --depth N``."""
    lines = ["step\tx\ty\tsign\tletter"]
    p = start
    for k in range(depth + 1):
        if k:
            p = ref(p)
        sign = (p[0] > 0) - (p[0] < 0)
        letter = next((str(i) for i, tri in enumerate(CODING) if ref.contains(tri, p)), "-")
        lines.append(f"{k}\t{fmt_rational(p[0])}\t{fmt_rational(p[1])}\t{sign}\t{letter}")
    return "\n".join(lines) + "\n"


def cylinders_report(seed: int, depth: int, samples: int) -> str:
    """Exact stdout of a passing ``pam cylinders`` run: 2^n cells at every
    depth and every sampled orbit obeying the drift law."""
    lines = [f"seed: {seed}", "depth\tcells\texpected\tok"]
    lines += [f"{n}\t{2 ** n}\t{2 ** n}\tyes" for n in range(1, depth + 1)]
    lines += [
        f"drift orbits: {samples}",
        f"drift identity exact: {samples}/{samples}",
        f"drift inequality holds: {samples}/{samples}",
        "status: pass",
    ]
    return "\n".join(lines) + "\n"


# -- bounded walks -------------------------------------------------------------


def walk_entropy(m: int) -> float:
    """log of the Perron root 2cos(pi/(2M+2)) of the 2M+1-level path."""
    return math.log(2.0 * math.cos(math.pi / (2 * m + 2)))


def stationary(m: int) -> List[float]:
    """Maximal-entropy law over levels -M..M: proportional to v_k^2,
    v_k = sin(k pi/(2M+2))."""
    w = [math.sin(k * math.pi / (2 * m + 2)) ** 2 for k in range(1, 2 * m + 2)]
    total = math.fsum(w)
    return [x / total for x in w]


def p_below(m: int, delta: float) -> float:
    bound = Fraction(delta)
    dist = stationary(m)
    return math.fsum(
        p for s, p in zip(range(-m, m + 1), dist) if Fraction(1, 2) * Fraction(2) ** (s - m) < bound
    )


def path_walks(levels: int, n: int) -> int:
    """Number of length-n walks with +-1 steps on a path of `levels` vertices."""
    v = [1] * levels
    for _ in range(n):
        v = [(v[i - 1] if i else 0) + (v[i + 1] if i + 1 < levels else 0) for i in range(levels)]
    return sum(v)


def word_count(m: int, n: int) -> int:
    """Words of length n whose walk range is at most 2M: each word lifts to
    (2M+1 - range) start levels on 2M+1 levels, so the difference of the
    walk counts on 2M+1 and 2M levels counts each such word once."""
    return path_walks(2 * m + 1, n) - path_walks(2 * m, n)


def cycles(m: int, max_period: int) -> set:
    """(word, start level) of every primitive cycle of the M-bounded walk."""
    out = set()
    for p in range(2, max_period + 1, 2):
        for code in range(2 ** p):
            word = tuple((code >> (p - 1 - i)) & 1 for i in range(p))
            if sum(word) * 2 != p:
                continue
            if any(p % d == 0 and word == word[:d] * (p // d) for d in range(1, p)):
                continue
            level, lo, hi = 0, 0, 0
            for c in word:
                level += 2 * c - 1
                lo, hi = min(lo, level), max(hi, level)
            for start in range(-m - lo, m - hi + 1):
                out.add((word, start))
    return out
