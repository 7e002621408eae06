"""Two-variable counting polynomials for bicolored posets.

The objects being counted are maps phi from a poset P into the chain
1..x.  In weak mode phi preserves order weakly (a < b forces
phi(a) <= phi(b)) and every celeste element lands at or above the
threshold y; in strict mode the order is preserved strictly and celeste
elements land strictly above y.  Both counts are polynomials in (x, y).

Two routes to these polynomials live here, played against each other
and against brute's counts by the test suite:

* closed forms for chains and for ascent/descent-constrained words,
* the decomposition of a poset's polynomial as the sum of its linear
  extensions' word polynomials (the per-extension decompositions below,
  kept as the test oracle), computed without listing an extension: its
  integer coordinates on the chain sums' binomial basis count Stanley's
  chains of order ideals, and one dynamic program over the ideals of the
  related elements, labeled by down-set rank, places each step of a chain
  in increasing label order, so an element joins the open step only at an
  ascent of the labels (the word polynomials' ascent/descent rule); the
  isolated elements, in no relation, multiply the finished polynomial by
  their linear factors in one integer product (see _order_poly).

Strict and weak are one construction in two modes, taken as an argument
by each routine below (chain_poly, word_decomposition); only order_poly_*
and word_poly_* keep one name per mode, as the command line and the
bench harness import them by those names.  The chain sums differ only in
their shifts, and verify plays the two modes against each other by
reciprocity.

The ideal-chain dynamic program refuses through poset's one budget gate
(see poset._check_budget); no routine here takes a budget.
"""

from __future__ import annotations

__all__ = [
    "chain_poly", "word_poly_strict", "word_poly_weak", "word_decomposition",
    "order_poly_strict", "order_poly_weak",
]

import math
from collections import Counter
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable

from . import poset
from .poset import (
    BicoloredPoset,
    Word,
    _check_budget,
    ascents,
    descents,
    is_natural_labeling,
    is_reverse_natural_labeling,
    linear_extensions,
    natural_labeling,
    reverse_natural_labeling,
    word_of,
)
from .ratpoly import BiPoly, _binomial_poly, _mode_ok, _times_powers


# closed forms ---------------------------------------------------------------

# Chain sums are integer coordinates on a binomial basis, memoized on the
# five values that fix them; _binomial_poly turns coordinates into a BiPoly
# by one integer change of basis, with no polynomial product.


def _comb(a: int, m: int) -> int:
    """binom(a, m) for any integer a and m >= 0: a falling factorial over m!."""
    return math.prod(range(a, a - m, -1)) // math.factorial(m)


@lru_cache(maxsize=4096)
def _chain_coords(mode: str, n: int, k: int, prefix: int, full: int) -> tuple:
    """The mode's chain sum for a word key (see _word_key) as its nonzero
    integer coordinates ((t, s), c) on the mode's basis (see _order_coords):
    Vandermonde, binom(u + a, i) = sum_t binom(a, i - t) * binom(u, t),
    expands each factor of sum_{i <= k} binom(u + a, i) * binom(v + b, n - i)."""
    coords: Counter[tuple[int, int]] = Counter()
    for i in range(k + 1):
        if mode == "strict":
            a, b = prefix, full - prefix
        else:
            a, b = i - prefix - 1, prefix - full + n - i - 1
        for t, s in product(range(i + 1), range(n - i + 1)):
            coords[t, s] += _comb(a, i - t) * _comb(b, n - i - s)
    return tuple((ts, c) for ts, c in coords.items() if c)


def _chain_poly(mode: str, key: tuple[int, int, int, int]) -> BiPoly:
    """The mode's chain sum for one word key, as a polynomial."""
    return _binomial_poly(dict(_chain_coords(mode, *key)), mode)


def chain_poly(n: int, k: int, mode: str) -> BiPoly:
    """The mode's counting polynomial of an n-chain whose lowest celeste
    element sits at position k+1 (k = n means no celeste element at all).

    Strict maps phi(a_1) < ... < phi(a_n) into 1..x with phi > y from
    position k+1 on split by how many of the first k values lie at or
    below y; weak maps increase weakly, with phi >= y from position k+1 on.
    """
    _mode_ok(mode)
    if n < 0:
        raise ValueError("chain length must be nonnegative")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} must lie in 0..{n}")
    return _chain_poly(mode, (n, k, 0, 0))


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
    return _chain_poly("strict", _word_key(w, ascents))


def word_poly_weak(w: Word) -> BiPoly:
    """Weak counting polynomial of a word: phi(j) < phi(j+1) at descents,
    phi(j) <= phi(j+1) elsewhere, phi at or above y from the mark on.
    Shifts use descent counts with the opposite sign."""
    return _chain_poly("weak", _word_key(w, descents))


# decomposition over linear extensions ---------------------------------------


def _checked_labeling(P: BicoloredPoset, labeling: tuple | None, mode: str) -> tuple[int, ...]:
    """The mode's default labeling, the reverse natural one for strict words
    and the natural one for weak words, or the given one once it is checked
    to be of that kind."""
    strict = mode == "strict"
    if labeling is None:
        return reverse_natural_labeling(P) if strict else natural_labeling(P)
    valid = is_reverse_natural_labeling if strict else is_natural_labeling
    if not valid(P, tuple(labeling)):
        kind = "reverse natural" if strict else "natural"
        raise ValueError(f"{mode} decomposition needs a {kind} labeling")
    return labeling


def word_decomposition(
    P: BicoloredPoset, mode: str, labeling: tuple[int, ...] | None = None
) -> tuple[tuple[Word, BiPoly], ...]:
    """The (word, word polynomial) summands of the mode's order polynomial,
    one per linear extension.  Strict words need a reverse natural labeling,
    weak words a natural one; any such labeling gives the same total, which
    the tests exercise."""
    _mode_ok(mode)
    labeling = _checked_labeling(P, labeling, mode)
    word_poly = word_poly_strict if mode == "strict" else word_poly_weak
    words = (word_of(ext, labeling, P) for ext in linear_extensions(P))
    return tuple((w, word_poly(w)) for w in words)


def _order_coords(P: BicoloredPoset, mode: str) -> tuple[dict, int, int]:
    """The mode's order polynomial of the related elements R of P, those in
    some relation, as its nonzero integer coordinates c[t, s] on the basis
    binom(u, t) * binom(v, s), u = y - w, v = x - y + w, w = 0 strict and 1
    weak (ratpoly._SHIFT); with the numbers of silver and of celeste isolated
    elements, whose linear factors _order_poly multiplies in.

    c[t, s] counts the chains of order ideals {} = I_0 < ... < I_{t+s} = R
    whose first t steps hold no celeste element (Stanley's P-partitions): a
    strict step is an antichain of minimal elements of the rest, a weak
    step any nonempty set that keeps an ideal.  A forward dynamic program
    places the elements one at a time, each step's in increasing label
    order, so every chain is counted once.  A minimal element v of the rest
    may open a new step, or, when its label exceeds the last one placed,
    join the open step: the ascent rule of the strict words, the descent
    rule of the weak ones.  With a reverse natural labeling a joining
    element lies above no element of its step; with a natural one each
    prefix of a step keeps an ideal.  Any labeling of the kind counts the
    same chains, so R ranked by down-set size (a < b has fewer below a) is
    labeled 1..m in weak mode and m..1 in strict mode; nothing else is.

    A state (ideal, last label) holds one int over (t, s), slot (t, s) at
    bit t * S + s * T.  The slots (t, 0), below bit T, count the chains
    whose steps are all celeste-free, the slots with s >= 1 those that
    have opened at least one step allowed to hold celeste, so a celeste
    element keeps only the bits from T up.  Every count is at most
    (t + s)^m <= m^m for the m elements of R, so no slot carries.  The
    total is read one s-row of T bits at a time, then slot by slot inside
    the row.  Each level counts its states as it stores them and refuses
    (see _check_budget) once its states times the (m + 1)(m + 2)/2 slots
    pass the budget before the level is complete."""
    preds = P.preds
    celeste = sum(1 << c for c in P.celeste)
    elements = sorted({v for pair in P.less for v in pair})
    ranked = sorted(elements, key=lambda v: preds[v].bit_count())
    if mode == "strict":
        ranked.reverse()
    labels = {v: lab for lab, v in enumerate(ranked, 1)}
    related = sum(1 << v for v in elements)
    m = len(elements)
    width = m * m.bit_length() + 1
    S, T = width, width * (m + 1)
    free = (1 << T) - 1
    slots = (m + 1) * (m + 2) // 2
    bound = poset.DEFAULT_BUDGET // slots
    # the empty prefix ends above every label, so the first element opens a step
    level: dict[int, dict[int, int]] = {0: {m + 1: 1}}
    for _ in range(m):
        nxt: dict[int, dict[int, int]] = {}
        count = 0
        for ideal, states in level.items():
            total = sum(states.values())
            opened, free_open = total << T, (total & free) << S
            for v in elements:
                if ideal >> v & 1 or preds[v] & ~ideal:
                    continue
                lab = labels[v]
                join = 0
                for r, c in states.items():
                    if r < lab:
                        join += c
                c = join & ~free if celeste >> v & 1 else join + free_open
                # each (ideal, label) is reached from one ideal only
                nxt.setdefault(ideal | 1 << v, {})[lab] = opened + c
                count += 1
            if count > bound:
                _check_budget(1, count * slots, 0)  # the level's states so far
        level = nxt
    total = sum(level[related].values())
    mask = (1 << width) - 1
    coords = {}
    for s in range(m + 1):
        row = total >> s * T & free
        for t in range(m + 1 - s):
            if c := row >> t * S & mask:
                coords[t, s] = c
    isolated_celeste = (celeste & ~related).bit_count()
    return coords, P.n - m - isolated_celeste, isolated_celeste


def _order_poly(mode: str, coords: dict, silver: int, celeste: int) -> BiPoly:
    """The mode's order polynomial of P from _order_coords: R's, built once
    from its coordinates, times x^silver * v^celeste, v = x - y + w.  A
    disjoint union's polynomial is the product of its parts', and an
    isolated element's is u + v = x if silver, v if celeste."""
    return _times_powers(_binomial_poly(coords, mode), silver, celeste, mode)


def order_poly_strict(P: BicoloredPoset) -> BiPoly:
    """Polynomial counting strict order preserving maps of P into 1..x
    with every celeste element sent strictly above y.  Raises
    BudgetExceededError when the ideal-chain states outgrow the budget
    (see _order_coords).  It takes no labeling: all agree."""
    return _order_poly("strict", *_order_coords(P, "strict"))


def order_poly_weak(P: BicoloredPoset) -> BiPoly:
    """Polynomial counting weak order preserving maps of P into 1..x with
    every celeste element sent to y or above.  Raises BudgetExceededError
    as order_poly_strict does."""
    return _order_poly("weak", *_order_coords(P, "weak"))
