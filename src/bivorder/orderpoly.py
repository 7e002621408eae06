"""Two-variable counting polynomials for bicolored posets.

The objects being counted are maps phi from a poset P into the chain
1..x.  In weak mode phi preserves order weakly (a < b forces
phi(a) <= phi(b)) and every celeste element lands at or above the
threshold y; in strict mode the order is preserved strictly and celeste
elements land strictly above y.  Both counts are polynomials in (x, y).

Four routes to these polynomials live here and are played against each
other by the test suite:

* closed forms for chains and for ascent/descent-constrained words,
* the decomposition of a poset's polynomial as the sum of its linear
  extensions' word polynomials; a word polynomial is the chain sum fixed
  by its word key (length, mark, prefix and full statistic), so the sum
  is taken once per distinct key, weighted by how many extensions give
  it; those counts come from a dynamic program over order ideals, which
  never lists the extensions (the per-extension decompositions below
  remain as the test oracle),
* brute-force enumeration of all x^n maps (vectorized in cache-sized
  blocks, exact),
* Lagrange interpolation of the brute counts through an integer grid.

Strict and weak are one construction in two modes, taken as an argument
by each routine below; only the word polynomials and their chain sums
stay two formulas, which reciprocity checks against each other.

Counts and polynomials agree on the validity region (_valid_ys)
0 <= y <= x in strict mode and 1 <= y <= x + 1 in weak mode; outside it
the polynomial is still defined but no longer counts anything.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .poset import (
    BicoloredPoset,
    Word,
    _natural_labels,
    _pred_masks,
    ascents,
    covers,
    descents,
    is_natural_labeling,
    is_reverse_natural_labeling,
    linear_extensions,
    word_of,
)
from .ratpoly import ONE, X, Y, BiPoly, _weighted_sum, binom_poly

DEFAULT_BUDGET = 10_000_000

MODES = ("strict", "weak")


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would visit more objects than allowed."""


def _check_budget(n: int, x_max: int, budget: int | None) -> None:
    """A brute table walks all x_max^n maps of n positions into
    (x_max + 1) * (x_max + 2) cells; the larger of the two must fit the
    budget."""
    count = max(x_max**n, (x_max + 1) * (x_max + 2))
    limit = DEFAULT_BUDGET if budget is None else budget
    if count > limit:
        raise BudgetExceededError(
            f"enumeration of {count} objects exceeds budget {limit}"
        )


def _valid_ys(mode: str, x0: int) -> range:
    """The thresholds y at which the mode's polynomial counts maps into
    1..x0: 0 <= y <= x0 in strict mode, 1 <= y <= x0 + 1 in weak mode."""
    weak = mode == "weak"
    return range(weak, x0 + 1 + weak)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification; a failure always carries a witness."""

    name: str
    passed: bool
    witness: dict | None = None

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise ValueError("failed check must carry a witness")

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


# closed forms ---------------------------------------------------------------

# The chain sums below are memoized on the four integers that determine
# them, so repeated decompositions cost dictionary lookups.


@lru_cache(maxsize=None)
def _strict_sum(n: int, k: int, prefix_shift: int, full_shift: int) -> BiPoly:
    # sum_{i=0}^{k} binom(y + prefix, i) * binom(x - y + full - prefix, n - i)
    arg_low = Y + prefix_shift
    arg_high = X - Y + (full_shift - prefix_shift)
    total = BiPoly.zero()
    for i in range(k + 1):
        total = total + binom_poly(arg_low, i) * binom_poly(arg_high, n - i)
    return total


@lru_cache(maxsize=None)
def _weak_sum(n: int, k: int, prefix_shift: int, full_shift: int) -> BiPoly:
    # sum_{i=0}^{k} binom(y - prefix - 2 + i, i)
    #             * binom(x - y + prefix - full + n - i, n - i)
    total = BiPoly.zero()
    for i in range(k + 1):
        arg_low = Y + (i - prefix_shift - 2)
        arg_high = X - Y + (prefix_shift - full_shift + n - i)
        total = total + binom_poly(arg_low, i) * binom_poly(arg_high, n - i)
    return total


def _validate_nk(n: int, k: int) -> None:
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} must lie in 0..{n}")


def chain_strict(n: int, k: int) -> BiPoly:
    """Strict counting polynomial of an n-chain whose lowest celeste element
    sits at position k+1 (k = n means no celeste element at all).

    Maps phi(a_1) < ... < phi(a_n) into 1..x with phi > y from position
    k+1 on split by how many of the first k values lie at or below y.
    """
    _validate_nk(n, k)
    return _strict_sum(n, k, 0, 0)


def chain_weak(n: int, k: int) -> BiPoly:
    """Weak counterpart of chain_strict: phi weakly increasing, phi >= y
    from position k+1 on."""
    _validate_nk(n, k)
    return _weak_sum(n, k, 0, 0)


def _word_key(
    w: Word, stat: Callable[[Iterable[int]], set[int]]
) -> tuple[int, int, int, int]:
    """The four integers that fix a word's chain sum: length n, k (the
    letters before the mark, n when unmarked), and the statistic's count
    on the prefix ending at the mark and on the whole word."""
    n = len(w)
    if w.celeste_pos is None:
        k = n
        prefix = 0
    else:
        k = w.celeste_pos - 1
        prefix = len(stat(w.letters[: w.celeste_pos]))
    return n, k, prefix, len(stat(w.letters))


def word_poly_strict(w: Word) -> BiPoly:
    """Strict counting polynomial of a word: maps phi on positions 1..n
    with phi(j) <= phi(j+1) at ascents of w, phi(j) < phi(j+1) elsewhere,
    and phi above y from the marked position on.

    This is the chain polynomial with x shifted by the ascent count of w
    and y by the ascent count of the prefix ending at the mark.
    """
    return _strict_sum(*_word_key(w, ascents))


def word_poly_weak(w: Word) -> BiPoly:
    """Weak counting polynomial of a word: phi(j) < phi(j+1) at descents,
    phi(j) <= phi(j+1) elsewhere, phi at or above y from the mark on.
    Shifts use descent counts with the opposite sign."""
    return _weak_sum(*_word_key(w, descents))


# decomposition over linear extensions ---------------------------------------


def _default_labeling(preds: Sequence[int], mode: str) -> tuple[int, ...]:
    """The natural labeling along the first extension (see
    _natural_labels), reversed for strict words."""
    labels = _natural_labels(preds)
    if mode == "strict":
        return tuple(len(preds) + 1 - lab for lab in labels)
    return labels


def _checked_labeling(
    P: BicoloredPoset, labeling: tuple[int, ...] | None, mode: str
) -> tuple[int, ...]:
    """The mode's default labeling, or the given one once it is checked:
    strict words need a reverse natural labeling, weak words a natural one."""
    strict = mode == "strict"
    if labeling is None:
        return _default_labeling(_pred_masks(P), mode)
    valid = is_reverse_natural_labeling if strict else is_natural_labeling
    if not valid(P, tuple(labeling)):
        kind = "reverse natural" if strict else "natural"
        raise ValueError(f"{mode} decomposition needs a {kind} labeling")
    return labeling


def _word_decomposition(
    P: BicoloredPoset, mode: str, labeling: tuple[int, ...] | None
) -> tuple[tuple[Word, BiPoly], ...]:
    labeling = _checked_labeling(P, labeling, mode)
    word_poly = word_poly_strict if mode == "strict" else word_poly_weak
    words = (word_of(ext, labeling, P) for ext in linear_extensions(P))
    return tuple((w, word_poly(w)) for w in words)


def strict_word_decomposition(
    P: BicoloredPoset, labeling: tuple[int, ...] | None = None
) -> tuple[tuple[Word, BiPoly], ...]:
    """The (word, word polynomial) summands of order_poly_strict.

    The labeling must be reverse natural; any such labeling gives the
    same total, which the tests exercise.
    """
    return _word_decomposition(P, "strict", labeling)


def weak_word_decomposition(
    P: BicoloredPoset, labeling: tuple[int, ...] | None = None
) -> tuple[tuple[Word, BiPoly], ...]:
    """The (word, word polynomial) summands of order_poly_weak; the
    labeling must be natural."""
    return _word_decomposition(P, "weak", labeling)


def _key_counts(
    preds: Sequence[int], celeste: int, labels: Sequence[int], mode: str
) -> Counter[tuple[int, int, int, int]]:
    """How many linear extensions give each word key (see _word_key), for
    the order in which element e follows every element of the bitmask
    preds[e], the celeste elements in the bitmask celeste, and a labeling
    valid for the mode.

    A forward dynamic program over order ideals; no extension is listed.
    A state maps (ideal, last rank, mark, statistic so far) to the number
    of extension prefixes that place exactly the ideal and end at a letter
    of that rank.  Ranks are the labels in strict mode and their negatives
    in weak mode, so the statistic is always the ascents of the ranks.
    The mark is None until the first celeste element is placed, then
    (k, prefix): the letters before it and the statistic up to it.
    preds may hold any generating relation (see _natural_labels).
    """
    n = len(preds)
    rank = list(labels) if mode == "strict" else [-lab for lab in labels]
    # the empty prefix ends above every rank, so the first letter adds nothing
    level: dict[int, dict] = {0: {(n + 1, None, 0): 1}}
    for size in range(n):
        nxt: dict[int, dict] = {}
        for ideal, states in level.items():
            for v in range(n):
                if ideal >> v & 1 or preds[v] & ~ideal:
                    continue
                r = rank[v]
                silver = not celeste >> v & 1
                out = nxt.setdefault(ideal | 1 << v, {})
                for (last, mark, stat), count in states.items():
                    s = stat + (last < r)
                    state = (r, mark if mark or silver else (size, s), s)
                    out[state] = out.get(state, 0) + count
        level = nxt
    keys: Counter[tuple[int, int, int, int]] = Counter()
    for (_, mark, full), count in level[(1 << n) - 1].items():
        k, prefix = mark or (n, 0)
        keys[n, k, prefix, full] += count
    return keys


def _word_key_counts(
    P: BicoloredPoset, mode: str, labeling: tuple[int, ...] | None = None
) -> Counter[tuple[int, int, int, int]]:
    """How many linear extensions of P give each word key (see _word_key).

    A word polynomial is the chain sum fixed by its key, so the order
    polynomial is the sum of count * chain sum over the distinct keys.
    """
    labeling = _checked_labeling(P, labeling, mode)
    celeste = sum(1 << c for c in P.celeste)
    return _key_counts(_pred_masks(P), celeste, labeling, mode)


def _sum_word_keys(keys: Counter[tuple[int, int, int, int]], mode: str) -> BiPoly:
    chain_sum = _strict_sum if mode == "strict" else _weak_sum
    return _weighted_sum((count, chain_sum(*key)) for key, count in keys.items())


@lru_cache(maxsize=None)
def _order_poly_default(P: BicoloredPoset, mode: str) -> BiPoly:
    return _sum_word_keys(_word_key_counts(P, mode), mode)


def _order_poly(
    P: BicoloredPoset, mode: str, labeling: tuple[int, ...] | None
) -> BiPoly:
    if labeling is None:
        return _order_poly_default(P, mode)
    return _sum_word_keys(_word_key_counts(P, mode, labeling), mode)


def order_poly_strict(
    P: BicoloredPoset, labeling: tuple[int, ...] | None = None
) -> BiPoly:
    """Polynomial counting strict order preserving maps of P into 1..x
    with every celeste element sent strictly above y."""
    return _order_poly(P, "strict", labeling)


def order_poly_weak(
    P: BicoloredPoset, labeling: tuple[int, ...] | None = None
) -> BiPoly:
    """Polynomial counting weak order preserving maps of P into 1..x with
    every celeste element sent to y or above."""
    return _order_poly(P, "weak", labeling)


# brute-force enumeration -----------------------------------------------------


_BLOCK_MAPS = 1 << 15  # maps per block of the enumeration, at most


@lru_cache(maxsize=16)
def _inner_maps(k: int, x_max: int) -> tuple[np.ndarray, np.ndarray]:
    """All maps from k positions into 1..x_max, one column per map, and
    each map's largest value."""
    cols = np.indices((x_max,) * k, dtype=np.int64).reshape(k, -1) + 1
    top = cols.max(axis=0, initial=0)
    cols.setflags(write=False)
    top.setflags(write=False)
    return cols, top


def _map_blocks(n: int, x_max: int):
    """All maps from n positions into 1..x_max, in blocks of at most
    _BLOCK_MAPS maps (more only when x_max alone exceeds it).

    Yields (values, top): values[i] is position i's value, an int shared
    by the whole block for the leading positions and an array for the
    trailing ones; top is each map's largest value.  A block stays in
    cache, and no table of all x_max^n maps is ever built.
    """
    if n == 0:
        yield [], np.zeros(1, dtype=np.int64)
        return
    # at x_max <= 1 blocks never fill; np.indices takes at most 64 axes
    k = 1
    while k < min(n, _BLOCK_MAPS.bit_length() - 1) and x_max ** (k + 1) <= _BLOCK_MAPS:
        k += 1
    inner, inner_top = _inner_maps(k, x_max)
    for lead in product(range(1, x_max + 1), repeat=n - k):
        top = np.maximum(inner_top, max(lead)) if lead else inner_top
        yield [*lead, *inner], top


def _profile_to_cum(prof: np.ndarray) -> np.ndarray:
    """From tally[m, t] to T[m, t] = sum over m' <= m, t' >= t."""
    cum = prof.cumsum(axis=0)
    return cum[:, ::-1].cumsum(axis=1)[:, ::-1]


@lru_cache(maxsize=4096)
def _map_cum_table(P: BicoloredPoset, mode: str, x_max: int) -> np.ndarray:
    """Cumulative tally of valid maps by (max value, min celeste value).

    Column x_max + 1 holds the maps of celeste-free posets.  Strict and
    weak counts for every (x0 <= x_max, y0) fall out of one enumeration.
    """
    below = operator.lt if mode == "strict" else operator.le
    relations = covers(P)
    celeste = sorted(P.celeste)
    width = x_max + 2
    prof = np.zeros((x_max + 1) * width, dtype=np.int64)
    for values, top in _map_blocks(P.n, x_max):
        ok = np.ones(len(top), dtype=bool)
        for a, b in relations:
            ok &= below(values[a], values[b])
        low = reduce(np.minimum, (values[c] for c in celeste), x_max + 1)
        code = (top * width + low)[ok]
        prof += np.bincount(code, minlength=len(prof))
    table = _profile_to_cum(prof.reshape(x_max + 1, width))
    table.setflags(write=False)
    return table


def _mode_ok(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def _counts_ok(x0: int, y0: int) -> None:
    if x0 < 0 or y0 < 0:
        raise ValueError("x0 and y0 must be nonnegative integers")


def brute_count(
    P: BicoloredPoset, mode: str, x0: int, y0: int, budget: int | None = None
) -> int:
    """Count the mode's maps of P into 1..x0 that send every celeste
    element above y0 (to y0 or above in weak mode) by enumerating all x0^n
    maps; raises BudgetExceededError past the budget (see _check_budget)."""
    _mode_ok(mode)
    _counts_ok(x0, y0)
    _check_budget(P.n, x0, budget)
    table = _map_cum_table(P, mode, x0)
    if not P.celeste:
        return int(table[x0, 0])
    return int(table[x0, min(y0 + (mode == "strict"), x0 + 1)])


def brute_count_strict(
    P: BicoloredPoset, x0: int, y0: int, budget: int | None = None
) -> int:
    return brute_count(P, "strict", x0, y0, budget)


def brute_count_weak(
    P: BicoloredPoset, x0: int, y0: int, budget: int | None = None
) -> int:
    return brute_count(P, "weak", x0, y0, budget)


# interpolation ----------------------------------------------------------------


def _grid(n: int, mode: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # y values cover a full column of the validity region; x values sit
    # strictly above every y so each grid point is a genuine count
    ys = tuple(_valid_ys(mode, n))
    x_lo = n + 2 + ys[-1]
    xs = tuple(range(x_lo, x_lo + n + 1))
    return xs, ys


@lru_cache(maxsize=None)
def _lagrange_basis(points: tuple[int, ...], var: str) -> tuple[BiPoly, ...]:
    v = X if var == "x" else Y
    out = []
    for i, pi in enumerate(points):
        b = ONE
        for j, pj in enumerate(points):
            if j != i:
                b = b * (v - pj) * Fraction(1, pi - pj)
        out.append(b)
    return tuple(out)


@lru_cache(maxsize=None)
def _tensor_basis(n: int, mode: str) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    xs, ys = _grid(n, mode)
    bx = _lagrange_basis(xs, "x")
    by = _lagrange_basis(ys, "y")
    prods = tuple(tuple(bx[i] * by[j] for j in range(len(ys))) for i in range(len(xs)))
    return xs, ys, prods


def interpolate_poly(counter: Callable[[int, int], int], n: int, mode: str) -> BiPoly:
    """Reconstruct the unique polynomial of degree <= n in each variable
    through the counter's values on the mode's integer grid.

    The counter is any callable (x0, y0) -> count; feeding it a brute
    enumerator yields the polynomial without touching the closed forms.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _mode_ok(mode)
    xs, ys, prods = _tensor_basis(n, mode)
    return _weighted_sum(
        (int(counter(xv, yv)), prods[i][j])
        for i, xv in enumerate(xs)
        for j, yv in enumerate(ys)
    )


def interpolate_brute(
    P: BicoloredPoset, mode: str, budget: int | None = None
) -> BiPoly:
    """Interpolated brute-force polynomial; one enumeration serves the
    whole grid."""
    _mode_ok(mode)
    xs, _ = _grid(P.n, mode)
    _check_budget(P.n, xs[-1], budget)
    return interpolate_poly(lambda a, b: brute_count(P, mode, a, b, budget), P.n, mode)


# reciprocity ------------------------------------------------------------------


def check_reciprocity_poset(P: BicoloredPoset) -> CheckReport:
    """Verify (-1)^n p_strict(-x, -y) == p_weak(x, y + 1) as polynomials."""
    lhs = order_poly_strict(P).negate_args() * (-1) ** P.n
    rhs = order_poly_weak(P).shift_y(1)
    if lhs == rhs:
        return CheckReport("poset-reciprocity", True)
    from .poset import poset_to_json

    witness = {"poset": poset_to_json(P), "lhs": lhs.text(), "rhs": rhs.text()}
    return CheckReport("poset-reciprocity", False, witness)


def check_reciprocity_word(w: Word) -> CheckReport:
    """Word-level reciprocity: negating both arguments of the strict word
    polynomial matches a weak chain sum driven by the reversed word.

    The reversed word's descent count equals the original's ascent count,
    and the prefix statistic stays with the original mark, so the right
    side is the weak sum with those shifts, taken at y + 1.  The report
    always records both sides.
    """
    key = _word_key(w, ascents)
    lhs = word_poly_strict(w).negate_args() * (-1) ** len(w)
    rhs = _weak_sum(*key).shift_y(1)
    witness = {
        "word": list(w.letters),
        "celeste_pos": w.celeste_pos,
        "lhs": lhs.text(),
        "rhs": rhs.text(),
    }
    return CheckReport("word-reciprocity", lhs == rhs, witness)
