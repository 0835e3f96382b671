"""Bounded-walk subshifts, their entropy, and exact embeddings into the map.

The combinatorial side works in "half-step units": a binary letter is
recorded as the increment ±1 (twice its deviation from 1/2), so every
bound doubles and all bookkeeping is integer.  A word is admissible for
the bound M when every window of its increment sums stays within 2M —
equivalently, the prefix-sum walk (started at 0) has range at most 2M.

Three layers live here:

* counting — `block_entropy` for balanced blocks, `word_count` /
  `sigma_entropy` for the bounded-walk language and its growth rate,
  and `escape_stats` for the heights of its maximal-entropy (Parry) law,
  all in closed form on the 2M+1-vertex path that carries the walk
  (exact path-walk counts; Perron root 2cos(π/(2M+2)));

* the finite extension — `build_skew` produces the walk automaton whose
  state is the current level s ∈ {−M..M}; its projection language is the
  bounded-walk language, with fibers of size 2M+1 − range;

* embeddings — periodic automaton cycles become exact periodic orbits
  of the plane map through the two linear bottom pieces, whose vertical
  multipliers are exactly 2 and 1/2 (`embed_orbit`).  The printed series
  formula for the embedding is also evaluated verbatim (`paper_iota`,
  `conjugacy_probe`): taken literally it collapses on any word containing
  a 0 and its vertical scale moves by 2^(±1/2) per step while the map
  moves by 2^(±1), so it cannot intertwine; the signed reading of the
  series reproduces the expanding sector coordinate exactly.  The probes
  document this instead of silently fixing it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .geometry import Point, _cmp_pow2, _hpoint, _to_fraction
from .mapmodel import PiecewiseAffineMap

__all__ = [
    "EntropyError",
    "CycleInfeasible",
    "block_entropy",
    "word_count",
    "sigma_entropy",
    "SkewSystem",
    "build_skew",
    "Cycle",
    "make_cycle",
    "enumerate_cycles",
    "embed_orbit",
    "IotaValue",
    "paper_iota",
    "ProbeRecord",
    "conjugacy_probe",
    "StationaryStats",
    "escape_stats",
    "LOG2",
]

LOG2 = math.log(2.0)

# the height of the horizontal line capping the two linear bottom pieces;
# embeddings normalize their vertical coordinate to y = Y_CAP · 2^(s−M)
Y_CAP = Fraction(1, 2)


class EntropyError(Exception):
    """Base class for entropy-lab failures."""


class CycleInfeasible(EntropyError):
    """A proposed periodic cycle violates the walk bounds."""


# ---------------------------------------------------------------------------
# counting


def block_entropy(n_half: int) -> float:
    """Entropy of the balanced blocks: log C(2N, N) / 2N.

    Exact big-integer binomial first, one float log at the end.
    """
    if n_half < 1:
        raise ValueError("need N >= 1")
    return math.log(math.comb(2 * n_half, n_half)) / (2 * n_half)


def _increments(word: Sequence[int]) -> List[int]:
    letters = [int(c) for c in word]
    if any(c not in (0, 1) for c in letters):
        raise ValueError(f"word must be over {{0,1}}, got {word!r}")
    return [2 * c - 1 for c in letters]


def _path_walks(size: int, n: int) -> int:
    """Number of length-n walks on the path with `size` vertices, over
    every start vertex: 1ᵀAⁿ1 for the path's adjacency matrix A."""
    counts = [1] * size
    for _ in range(n):
        counts = [a + b for a, b in zip([0] + counts[:-1], counts[1:] + [0])]
    return sum(counts)


def word_count(m_bound: int, n: int) -> int:
    """Number of length-n words whose prefix-sum walk has range ≤ 2M.

    A word of range r lifts to max(0, L − r) walks on the L-vertex path
    (the fiber size of the skew extension), so the walks on 2M+1
    vertices minus the walks on 2M vertices count each word of range
    ≤ 2M exactly once.  Exact integers, O(n·M) additions.
    """
    if m_bound < 1:
        raise ValueError("need M >= 1")
    if n < 1:
        raise ValueError("need n >= 1")
    return _path_walks(2 * m_bound + 1, n) - _path_walks(2 * m_bound, n)


def _angle(m_bound: int) -> float:
    """π/(2M+2): the transfer structure of the levels −M..M is the path
    on 2M+1 vertices, with Perron root 2cos of this angle and Perron
    vector entries sin(k·angle), k = 1..2M+1."""
    if m_bound < 1:
        raise ValueError("need M >= 1")
    return math.pi / (2 * m_bound + 2)


def sigma_entropy(m_bound: int) -> float:
    """Topological entropy of the bounded-walk language: log of the
    spectral radius 2cos(π/(2M+2)) of the 2M+1-level path."""
    return math.log(2.0 * math.cos(_angle(m_bound)))


# ---------------------------------------------------------------------------
# the finite skew extension


@dataclass(frozen=True)
class SkewSystem:
    """Walk automaton: state = current level s, letter moves s by ±1.

    Pairs (word, start level) with every partial level inside the bounds
    are exactly the points of the finite extension; projecting away the
    level recovers the bounded-walk language with fibers of size
    2M+1 − range ∈ [1, 2M+1].
    """

    m_bound: int
    states: Tuple[int, ...]
    transitions: Dict[Tuple[int, int], int]  # (state, letter) -> state

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def step(self, s: int, letter: int) -> Optional[int]:
        return self.transitions.get((s, letter))

    def admits(self, word: Sequence[int], s0: int) -> bool:
        s: Optional[int] = s0
        if s not in self.states:
            return False
        for letter in (int(c) for c in word):
            s = self.step(s, letter)
            if s is None:
                return False
        return True

    def fiber_size(self, word: Sequence[int]) -> int:
        """Number of start levels lifting the word; 2M+1 − walk range."""
        inc = _increments(word)
        pos = lo = hi = 0
        for d in inc:
            pos += d
            lo = min(lo, pos)
            hi = max(hi, pos)
        return max(0, len(self.states) - (hi - lo))

    def totality_check(self) -> bool:
        """Every state has at least one admissible successor."""
        return all(
            any((s, letter) in self.transitions for letter in (0, 1))
            for s in self.states
        )

    def extension_check(self, max_n: int) -> bool:
        """Projection language equals the bounded-walk language, checked
        exhaustively on all words of length 1..max_n.

        One depth-first descent of the binary word tree: each node extends
        its parent by one letter and carries the walk's (pos, lo, hi),
        which decides whether the word lifts (fiber_size > 0), and the set
        of levels still alive from some start level, stepped through
        `self.transitions`, which decides whether the automaton admits it.
        Every word is still compared, each prefix is stepped once:
        O(2^(n+1)·(2M+1)) set steps.  False at the first mismatch.
        """
        if max_n < 1:
            raise ValueError("need n >= 1")
        size = len(self.states)
        succ = {
            letter: {s: t for (s, c), t in self.transitions.items() if c == letter}
            for letter in (0, 1)
        }

        def descend(n: int, pos: int, lo: int, hi: int, alive: frozenset) -> bool:
            for letter, step in succ.items():
                p = pos + 2 * letter - 1
                l, h = min(lo, p), max(hi, p)
                live = frozenset(step[s] for s in alive if s in step)
                if (h - l < size) != bool(live):
                    return False
                if n < max_n and not descend(n + 1, p, l, h, live):
                    return False
            return True

        return descend(1, 0, 0, 0, frozenset(self.states))


def build_skew(m_bound: int) -> SkewSystem:
    if m_bound < 1:
        raise ValueError("need M >= 1")
    states = tuple(range(-m_bound, m_bound + 1))
    transitions = {}
    for s in states:
        for letter in (0, 1):
            s2 = s + (2 * letter - 1)
            if -m_bound <= s2 <= m_bound:
                transitions[(s, letter)] = s2
    return SkewSystem(m_bound, states, transitions)


# ---------------------------------------------------------------------------
# periodic cycles and exact embeddings


@dataclass(frozen=True)
class Cycle:
    """A periodic point of the skew system: word + start level."""

    word: Tuple[int, ...]
    start: int
    levels: Tuple[int, ...]  # s_0 .. s_p with s_p = s_0

    @property
    def period(self) -> int:
        return len(self.word)


def make_cycle(skew: SkewSystem, word, start: int) -> Cycle:
    inc = _increments(word)
    if not inc:
        raise ValueError("cycle word must be nonempty")
    if sum(inc) != 0:
        raise CycleInfeasible(
            f"word {tuple(int(c) for c in word)} is unbalanced; the level cannot return"
        )
    if start not in skew.states:
        raise CycleInfeasible(f"start level {start} outside |s| <= {skew.m_bound}")
    levels = [start]
    for d in inc:
        s2 = levels[-1] + d
        if abs(s2) > skew.m_bound:
            raise CycleInfeasible(
                f"level path leaves |s| <= {skew.m_bound} at step {len(levels) - 1}"
            )
        levels.append(s2)
    return Cycle(tuple(int(c) for c in word), start, tuple(levels))


def _primitive(word: Tuple[int, ...]) -> bool:
    p = len(word)
    for d in range(1, p):
        if p % d == 0 and word == word[: d] * (p // d):
            return False
    return True


def enumerate_cycles(skew: SkewSystem, max_period: int) -> List[Cycle]:
    """Primitive admissible cycles ordered by period, word, start level."""
    out: List[Cycle] = []
    for p in range(2, max_period + 1, 2):
        for ones in itertools.combinations(range(p), p // 2):
            word = tuple(1 if i in ones else 0 for i in range(p))
            if not _primitive(word):
                continue
            for start in skew.states:
                try:
                    out.append(make_cycle(skew, word, start))
                except CycleInfeasible:
                    continue
    return out


def _level_height(m_bound: int, s: int) -> Fraction:
    return Y_CAP * Fraction(2) ** (s - m_bound)


def embed_orbit(
    t: PiecewiseAffineMap, skew: SkewSystem, cycle: Cycle
) -> Tuple[Point, ...]:
    """Exact periodic orbit of the map realizing the cycle.

    The two linear bottom pieces carry letter 0 and letter 1; composing
    their matrices along the word gives one affine branch of the return
    map, whose unique fixed point at the prescribed start height is the
    seed.  The orbit is then re-iterated through the full map — piece
    lookup and all — and checked: membership in the correct piece, the
    exact 2^(±1) height multipliers, and closure after one period.  The
    orbit runs on reduced homogeneous integer triples (X, Y, W), W > 0,
    whose heights Y/W are compared with powers of 2 by shifts.
    """
    piece_for = {0: t.piece("A^cB^cS"), 1: t.piece("C^cD^cS")}
    ret = None
    for letter in cycle.word:
        m = piece_for[letter].map
        ret = m if ret is None else m.compose(ret)

    y0 = _level_height(skew.m_bound, cycle.start)
    # fixed point of the affine return map on the line y = y0
    a, b, d = ret.linear.a, ret.linear.b, ret.linear.d
    e, f = ret.translation
    if d * y0 + f != y0:
        raise CycleInfeasible("return map does not preserve the start height")
    if a == 1:
        raise CycleInfeasible("return map is not expanding along the fiber")
    x0 = (b * y0 + e) / (1 - a)

    m = skew.m_bound
    lo, hi = _level_height(m, -m), Y_CAP
    # heights as (Y, W) pairs against Y_CAP: level s sits at Y_CAP·2^(s−M)
    cap = (Y_CAP.numerator, Y_CAP.denominator)
    orbit = [_hpoint(x0, y0)]
    for k, letter in enumerate(cycle.word):
        q = orbit[-1]
        height = q[1:]
        if _cmp_pow2(height, cap, -2 * m) < 0 or _cmp_pow2(height, cap, 0) > 0:
            raise CycleInfeasible(
                f"orbit height {Fraction(*height)} leaves [{lo}, {hi}] at step {k}"
            )
        if _cmp_pow2(height, cap, cycle.levels[k] - m):
            raise CycleInfeasible(f"orbit height drifts from the level path at step {k}")
        if not piece_for[letter].domain._contains(q):
            raise CycleInfeasible(f"orbit leaves the letter-{letter} piece at step {k}")
        nxt = t._step(q)
        if _cmp_pow2(nxt[1:], height, 2 * letter - 1):
            raise CycleInfeasible(f"height multiplier is not 2^(±1) at step {k}")
        orbit.append(nxt)
    if orbit[-1] != orbit[0]:
        raise CycleInfeasible("orbit fails to close after one period")
    return tuple(map(_to_fraction, orbit[:-1]))


# ---------------------------------------------------------------------------
# the printed embedding formula, evaluated verbatim


@dataclass(frozen=True)
class IotaValue:
    """One evaluation of the printed series embedding.

    x is the truncated series (exact); the vertical scale is reported
    both as a float and as an exact base-2 logarithm, since the printed
    exponent (s − M)/2 is a half-integer and the value itself is
    irrational for odd parity.
    """

    x: Fraction
    y: float
    y_exact: Optional[Fraction]
    y_log2: Fraction
    truncation_bound: Fraction
    terms: int
    mode: str


def _series_x(letters: Sequence[int], signed: bool) -> Fraction:
    total = Fraction(0)
    prod = 1
    for n, letter in enumerate(letters):
        prod *= (1 if letter == 0 else -1) if signed else letter
        if prod == 0:
            break
        total += Fraction(prod, 20**n)
    return -Fraction(19, 20) * total


def paper_iota(word, s_half: int, m_bound: int, signed: bool = False) -> IotaValue:
    """Evaluate the printed embedding on a finite word prefix.

    mode "literal" multiplies the letters themselves (so any 0 kills the
    tail of the series); mode "signed" reads letter 0 as +1 and letter 1
    as −1, which reproduces the expanding sector coordinate.  The
    vertical scale follows the printed half-exponent y_cap·2^((s−M)/2).
    """
    letters = [int(c) for c in word]
    if any(c not in (0, 1) for c in letters):
        raise ValueError(f"word must be over {{0,1}}, got {word!r}")
    if not letters:
        raise ValueError("need a nonempty prefix")
    x = _series_x(letters, signed)
    y_log2 = Fraction(-1) + Fraction(s_half - m_bound, 2)
    y_exact = None
    if y_log2.denominator == 1:
        y_exact = Fraction(2) ** y_log2.numerator
    return IotaValue(
        x=x,
        y=float(2.0 ** float(y_log2)),
        y_exact=y_exact,
        y_log2=y_log2,
        truncation_bound=Fraction(1, 20 ** len(letters)),
        terms=len(letters),
        mode="signed" if signed else "literal",
    )


def _periodic_series_x(word: Tuple[int, ...], signed: bool) -> Fraction:
    """Exact full sum of the series on a periodic word.

    Literal mode terminates at the first 0; signed mode sums the
    geometric tail over one period.
    """
    p = len(word)
    if not signed:
        return _series_x(word, signed=False)  # exact: tail vanishes at first 0
    head = Fraction(0)
    prod = 1
    for n, letter in enumerate(word):
        prod *= 1 if letter == 0 else -1
        head += Fraction(prod, 20**n)
    # prod is now the product over one full period (±1)
    ratio = Fraction(prod, 20**p)
    return -Fraction(19, 20) * head / (1 - ratio)


@dataclass(frozen=True)
class ProbeRecord:
    """Exact comparison of the printed formula against one map step.

    The step residual dy lives in Q + Q·√2 because the printed vertical
    exponent moves by half-integers; dy = dy_rational + dy_sqrt2·√2.
    """

    word: Tuple[int, ...]
    start: int
    dx: Fraction
    dy_rational: Fraction
    dy_sqrt2: Fraction
    literal_agrees: bool
    signed_sector_agrees: bool
    note: str


def conjugacy_probe(
    t: PiecewiseAffineMap,
    skew: SkewSystem,
    words: Optional[Sequence[Tuple[int, ...]]] = None,
) -> List[ProbeRecord]:
    """Test the printed formula as an intertwiner, step by step.

    For each sampled periodic word and start level of matching parity
    (so the formula's vertical scale is rational and the map can be
    applied exactly), compare T(ι(α, s)) with ι(shifted α, stepped s).
    The literal reading is expected to fail — and must fail in the
    vertical direction by the parity of the printed exponent alone.  As
    a control, the signed series is checked to intertwine the expanding
    sector coordinate exactly.
    """
    if words is None:
        words = [(0, 1), (1, 0), (0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0)]
    records: List[ProbeRecord] = []
    for word in words:
        cycle_word = tuple(int(c) for c in word)
        starts = [
            s
            for s in skew.states
            if (s - skew.m_bound) % 2 == 0 and skew.admits(cycle_word, s)
        ]
        if not starts:
            continue
        start = starts[0]
        iota_here = paper_iota(cycle_word, start, skew.m_bound)
        assert iota_here.y_exact is not None
        x_here = _periodic_series_x(cycle_word, signed=False)
        p_here = Point(x_here, iota_here.y_exact)

        shifted = cycle_word[1:] + cycle_word[:1]
        stepped = start + (2 * cycle_word[0] - 1)
        x_next = _periodic_series_x(shifted, signed=False)
        next_log2 = Fraction(-1) + Fraction(stepped - skew.m_bound, 2)
        # y of the shifted state: rational · √2 (odd parity by construction)
        half = next_log2 - Fraction(1, 2)
        assert half.denominator == 1
        y_next_sqrt2_coeff = Fraction(2) ** half.numerator

        note = ""
        if t.domain.contains(p_here):
            image = t.evaluate(p_here)
            dx = image.x - x_next
            dy_rational = image.y
            dy_sqrt2 = -y_next_sqrt2_coeff
            literal_agrees = dx == 0 and dy_rational == 0 and dy_sqrt2 == 0
        else:
            dx = dy_rational = dy_sqrt2 = Fraction(0)
            literal_agrees = False
            note = "formula lands outside the domain; the map cannot even be applied"

        # control: the signed series intertwines the sector coordinate
        r_here = _periodic_series_x(cycle_word, signed=True)
        r_next = _periodic_series_x(shifted, signed=True)
        branch = (
            (lambda r: 20 * r + 19) if cycle_word[0] == 0 else (lambda r: 19 - 20 * r)
        )
        signed_agrees = branch(r_here) == r_next

        records.append(
            ProbeRecord(
                word=cycle_word,
                start=start,
                dx=dx,
                dy_rational=dy_rational,
                dy_sqrt2=dy_sqrt2,
                literal_agrees=literal_agrees,
                signed_sector_agrees=signed_agrees,
                note=note,
            )
        )
    return records


# ---------------------------------------------------------------------------
# escape of mass


@dataclass(frozen=True)
class StationaryStats:
    """Maximal-entropy stationary statistics of the bounded walk."""

    m_bound: int
    entropy: float
    p_below: Tuple[Tuple[float, float], ...]  # (δ, P(y < δ))
    expected_log2_y: float

    @property
    def distribution(self) -> Tuple[float, ...]:
        """The law over levels −M..M: sin²(k·π/(2M+2))/(M+1), k = 1..2M+1."""
        angle = _angle(self.m_bound)
        total = self.m_bound + 1
        return tuple(math.sin(k * angle) ** 2 / total for k in range(1, 2 * total))


def _levels_below(delta: float) -> int:
    """Largest integer e with 2^e < δ, exactly, for a positive float δ."""
    mantissa, exponent = math.frexp(delta)  # δ = mantissa·2^exponent
    return exponent - 2 if mantissa == 0.5 else exponent - 1


def _x_minus_sin(x: float) -> float:
    """x − sin x, summed from its Taylor series below 1, where it cancels."""
    if x >= 1:
        return x - math.sin(x)
    term, total = x, 0.0
    for j in range(1, 11):
        term *= -x * x / ((2 * j) * (2 * j + 1))
        total -= term
    return total


def escape_stats(m_bound: int, deltas: Iterable[float] = (1e-3,)) -> StationaryStats:
    """Stationary law of the maximal-entropy chain, pushed to heights.

    The law is the squared Perron vector of the path: sin²(kθ)/(M+1),
    θ = π/(2M+2), on level k = 1..2M+1 at height 2^(k−2M−2), so the K
    levels below δ are counted exactly from δ's binary exponent.  P(y < δ)
    is the partial sum Σ_{k≤K} sin²(kθ) = K/2 − sin(Kθ)cos((K+1)θ)/(2 sin θ)
    over M+1, written (h(nθ) − n·h(θ))/(4 sin θ), n = 2K+1, h(x) = x − sin x,
    to keep small sums to relative precision; the law is symmetric, so the
    larger side is one minus the smaller.  E[log₂ y] = −(M+1), the log-height
    of the middle level.  A row costs O(1) per δ.
    """
    angle = _angle(m_bound)
    size = 2 * m_bound + 1
    entropy = sigma_entropy(m_bound)
    if entropy > LOG2 + 1e-12:
        raise EntropyError("entropy exceeded log 2")

    norm = 4 * (m_bound + 1) * math.sin(angle)

    def mass(k: int) -> float:  # of the k lowest (or highest) levels
        n = 2 * k + 1
        return (_x_minus_sin(n * angle) - n * _x_minus_sin(angle)) / norm

    p_below = []
    for delta in map(float, deltas):
        below = min(max(_levels_below(delta) + size + 1, 0), size) if delta > 0 else 0
        above = size - below
        p_below.append((delta, mass(below) if below < above else 1.0 - mass(above)))
    return StationaryStats(
        m_bound=m_bound,
        entropy=entropy,
        p_below=tuple(p_below),
        expected_log2_y=float(-(m_bound + 1)),
    )
