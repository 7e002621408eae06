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
  extensions' word polynomials (the per-extension decompositions below,
  kept as the test oracle), computed without listing an extension: its
  integer coordinates on the chain sums' binomial basis count Stanley's
  chains of order ideals, and one dynamic program over the ideals of the
  related elements places each step of a chain in increasing label order,
  so an element joins the open step only at an ascent of the labels (the
  word polynomials' ascent/descent rule); the isolated elements, in no
  relation, multiply the finished polynomial by their linear factors in
  one integer product (see _order_poly),
* brute-force enumeration of all x^n maps (exact, vectorized in
  cache-sized blocks of one-byte values, each constraint evaluated once
  per table, per leading value or per block; see _cum_table), read for
  posets and graphs alike through one budgeted counter (see _counter),
* interpolation of the brute counts on the simplex x0 <= n, by integer
  forward differences in the mode's binomial basis.

Strict and weak are one construction in two modes, taken as an argument
by each routine below (chain_poly, word_decomposition, brute_count,
interpolate_brute); only order_poly_* and word_poly_* keep one name per
mode, as the command line and the bench harness import them by those
names.  The chain sums differ only in their shifts, and reciprocity checks
the two modes against each other by negating the strict integer
coordinates of the related elements (see _negated_coords and
check_reciprocity_poset).

Counts and polynomials agree on the validity region (_valid_ys)
0 <= y <= x in strict mode and 1 <= y <= x + 1 in weak mode; outside it
the polynomial is still defined but no longer counts anything.

The brute counters and the ideal-chain dynamic program refuse through
the budget gate in poset (see poset._check_budget).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Iterable

import numpy as np

from . import poset
from .poset import (
    BicoloredPoset,
    Word,
    _check_budget,
    _natural_labels,
    _pred_masks,
    ascents,
    covers,
    descents,
    is_natural_labeling,
    is_reverse_natural_labeling,
    linear_extensions,
    poset_to_json,
    word_of,
)
from .ratpoly import X, Y, BiPoly, _binomial_poly, _times_powers

MODES = ("strict", "weak")
_MODE_BASIS = {"strict": (Y, X - Y), "weak": (Y - 1, X - Y + 1)}  # see _order_coords


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
    return _binomial_poly(dict(_chain_coords(mode, *key)), *_MODE_BASIS[mode])


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


def _checked_labeling(
    P: BicoloredPoset, labeling: tuple[int, ...] | None, mode: str, preds: tuple | None = None
) -> tuple[int, ...]:
    """The mode's default labeling, the reverse natural one for strict words
    and the natural one for weak words, read from P's predecessor masks
    (built here unless given), or the given one once it is checked to be of
    that kind."""
    strict = mode == "strict"
    if labeling is None:
        labels = _natural_labels(_pred_masks(P) if preds is None else preds)
        return tuple(P.n + 1 - lab for lab in labels) if strict else labels
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


def _order_coords(
    P: BicoloredPoset, mode: str, labeling: tuple | None = None, budget: int | None = None
) -> tuple[dict, int, int]:
    """The mode's order polynomial of the related elements R of P, those in
    some relation, as its nonzero integer coordinates c[t, s] on the basis
    binom(u, t) * binom(v, s), u = y - w, v = x - y + w, w = 0 strict and 1
    weak (_MODE_BASIS); with the numbers of silver and of celeste isolated
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
    prefix of a step keeps an ideal.

    A state (ideal, last label) holds one int over (t, s), slot (t, s) at
    bit t * S + s * T.  The slots (t, 0), below bit T, count the chains
    whose steps are all celeste-free, the slots with s >= 1 those that
    have opened at least one step allowed to hold celeste, so a celeste
    element keeps only the bits from T up.  Every count is at most
    (t + s)^m <= m^m for the m elements of R, so no slot carries.  The
    total is read one s-row of T bits at a time, then slot by slot inside
    the row.  Each level counts its states as it stores them and refuses
    (see _check_budget) once its states times the (m + 1)(m + 2)/2 slots
    pass the budget, the default when None, before the level is complete."""
    preds = _pred_masks(P)
    labels = _checked_labeling(P, labeling, mode, preds)
    celeste = sum(1 << c for c in P.celeste)
    related = reduce(operator.or_, (p | 1 << b for b, p in enumerate(preds) if p), 0)
    elements = [v for v in range(P.n) if related >> v & 1]
    m = len(elements)
    width = m * m.bit_length() + 1
    S, T = width, width * (m + 1)
    free = (1 << T) - 1
    slots = (m + 1) * (m + 2) // 2
    bound = (poset.DEFAULT_BUDGET if budget is None else budget) // slots
    # the empty prefix ends above every label, so the first element opens a step
    level: dict[int, dict[int, int]] = {0: {P.n + 1: 1}}
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
                _check_budget(1, count * slots, budget, 0)  # the level's states so far
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
    u, v = _MODE_BASIS[mode]
    return _times_powers(_binomial_poly(coords, u, v), silver, v, celeste)


def order_poly_strict(
    P: BicoloredPoset, labeling: tuple[int, ...] | None = None, budget: int | None = None
) -> BiPoly:
    """Polynomial counting strict order preserving maps of P into 1..x
    with every celeste element sent strictly above y.  Raises
    BudgetExceededError when the ideal-chain states outgrow the budget,
    the default when None (see _order_coords)."""
    return _order_poly("strict", *_order_coords(P, "strict", labeling, budget))


def order_poly_weak(
    P: BicoloredPoset, labeling: tuple[int, ...] | None = None, budget: int | None = None
) -> BiPoly:
    """Polynomial counting weak order preserving maps of P into 1..x with
    every celeste element sent to y or above.  Raises BudgetExceededError
    as order_poly_strict does."""
    return _order_poly("weak", *_order_coords(P, "weak", labeling, budget))


# brute-force enumeration -----------------------------------------------------


_BLOCK_MAPS = 1 << 15  # maps per block of the enumeration, at most


def _inner_count(n: int, x_max: int) -> int:
    """How many trailing positions vary inside one block: as many as keep
    the block within _BLOCK_MAPS maps, and at least one when n >= 1 (so a
    block exceeds _BLOCK_MAPS only when x_max alone does).  At x_max <= 1
    blocks never fill; np.indices takes at most 64 axes."""
    k = min(n, 1)
    while k < min(n, _BLOCK_MAPS.bit_length() - 1) and x_max ** (k + 1) <= _BLOCK_MAPS:
        k += 1
    return k


@lru_cache(maxsize=16)
def _inner_maps(k: int, x_max: int) -> tuple[np.ndarray, np.ndarray]:
    """All maps from k positions into 1..x_max, one column per map, and
    each map's largest value, in the smallest unsigned type that also
    holds the sentinel x_max + 1."""
    dtype = np.min_scalar_type(x_max + 1)
    cols = np.indices((x_max,) * k, dtype=dtype).reshape(k, x_max**k) + dtype.type(1)
    top = cols.max(axis=0, initial=0)
    cols.setflags(write=False)
    top.setflags(write=False)
    return cols, top


@lru_cache(maxsize=4096)
def _cum_table(n: int, x_max: int, relations: tuple, below: Callable, lows: tuple) -> np.ndarray:
    """T[x0, t]: the maps phi from n positions into 1..x_max that keep
    every relation, below(phi(a), phi(b)) for (a, b) in relations, counted
    by largest value <= x0 and low value >= t.  The low value is the
    least phi(u) over the low terms (u, v) with phi(u) == phi(v), so (c, c)
    is position c alone; column none = x_max + 1 holds the maps with no
    low term.  Cached on this plain description, so posets and graphs
    share one cache; _counter is the only caller.

    Every map is enumerated: the last k positions (see _inner_count) vary
    inside a block, one block per value tuple of the leading ones, and
    each constraint is evaluated where it is cheapest.  Between two inner
    positions it is evaluated once per table, and the inner maps that
    break a relation are dropped before the first block; between a
    leading and an inner position once per (position, value), cached when
    two or more leading positions let a value recur; between two leading
    positions on Python ints, and a block whose leading values break a
    relation is skipped.  Each block's codes top * (x_max + 2) + low go
    into the table by np.bincount when they number at least the table's
    cells, else by np.add.at, so a block costs O(its maps) and a table
    O(maps + cells), never O(blocks * cells).

    A low term's array is built from one comparison, in the values' own
    type: an inner term (u, v) is max(phi(u), (phi(u) != phi(v)) * none),
    and the term of a leading value c is (phi(v) != c) * (none - c) + c,
    so the maps where phi(u) != phi(v) read none.

    Values take one byte while the sentinel x_max + 1 < 256, two below
    65536.  Memory beyond the int64 table's 8 * cells bytes stays under
    (3 * n * x_max + 128) * M bytes, M = max(_BLOCK_MAPS, x_max) the maps
    of a block: at most n * x_max cached (position, value) pairs hold a
    one-byte mask and a low array of one or two bytes per map, and the
    inner maps and a block's temporaries take less than 128 bytes per map.
    No array of machine ints is kept per value.
    """
    none = x_max + 1
    width = x_max + 2
    cells = (x_max + 1) * width
    code_type = np.min_scalar_type(cells - 1)
    k = _inner_count(n, x_max)
    lead = n - k
    cols, top = _inner_maps(k, x_max)
    inner_rel = [(a - lead, b - lead) for a, b in relations if min(a, b) >= lead]
    if inner_rel:
        keep = reduce(operator.and_, (below(cols[a], cols[b]) for a, b in inner_rel))
        cols, top = cols[:, keep], top[keep]
    dtype = cols.dtype
    inner_low = None
    for u, v in lows:
        if min(u, v) >= lead:
            cu, cv = cols[u - lead], cols[v - lead]
            term = cu if u == v else np.maximum(cu, (cu != cv) * dtype.type(none))
            inner_low = term if inner_low is None else np.minimum(inner_low, term)
    inner_code = top.astype(code_type) * width
    # per leading position: its relations and low terms with inner positions
    rel_in = [[] for _ in range(lead)]
    low_in = [[] for _ in range(lead)]
    lead_rel, lead_low = [], []
    for a, b in relations:
        if max(a, b) < lead:
            lead_rel.append((a, b))
        elif a < lead:
            rel_in[a].append((cols[b - lead], True))
        elif b < lead:
            rel_in[b].append((cols[a - lead], False))
    for u, v in lows:
        if max(u, v) < lead:
            lead_low.append((u, v))
        elif u < lead:
            low_in[u].append(cols[v - lead])
        elif v < lead:
            low_in[v].append(cols[u - lead])
    active = [p for p in range(lead) if rel_in[p] or low_in[p]]

    def lead_terms(p: int, value: int) -> tuple:
        mask = low = None
        for col, left in rel_in[p]:
            m = below(value, col) if left else below(col, value)
            mask = m if mask is None else mask & m
        if low_in[p]:
            apart = reduce(operator.and_, (col != value for col in low_in[p]))
            low = apart * dtype.type(none - value)
            low += dtype.type(value)
        return mask, low

    if lead > 1:  # a value recurs only under two or more leading positions
        lead_terms = lru_cache(maxsize=None)(lead_terms)
    prof = np.zeros(cells, dtype=np.int64)
    for values in product(range(1, x_max + 1), repeat=lead):
        if any(not below(values[a], values[b]) for a, b in lead_rel):
            continue
        keep = None
        low_arrays = [] if inner_low is None else [inner_low]
        for p in active:
            mask, low = lead_terms(p, values[p])
            if mask is not None:
                keep = mask if keep is None else keep & mask
            if low is not None:
                low_arrays.append(low)
        # the least low term among the leading values alone
        scalar = min((values[u] for u, v in lead_low if values[u] == values[v]), default=none)
        # numpy's minimum and maximum run unvectorized against a scalar, so
        # the scalar is spread into a full array
        code = np.maximum(inner_code, np.full_like(inner_code, max(values, default=0) * width))
        if low_arrays:
            low = reduce(np.minimum, low_arrays)
            code += np.minimum(low, np.full_like(low, scalar)) if scalar < none else low
        else:
            code += scalar
        if keep is not None:
            code = code[keep]
        if len(code) >= cells:
            prof += np.bincount(code, minlength=cells)
        else:
            np.add.at(prof, code, 1)
    table = prof.reshape(x_max + 1, width)
    np.cumsum(table, axis=0, out=table)
    rev = table[:, ::-1]
    np.cumsum(rev, axis=1, out=rev)
    table.setflags(write=False)
    return table


def _counter(
    n: int, x_max: int, budget: int | None, relations: tuple, below: Callable, lows: tuple, shift: int
) -> Callable[[int, int], int]:
    """The one route to a brute table: check the budget now, and return
    (x0, y0) -> the maps into 1..x0 <= x_max with low value >= y0 + shift.
    Each read fetches the cached table (see _cum_table), so it is built at
    the first read: a caller that takes its counters first refuses first."""
    _check_budget(n, x_max, budget, (x_max + 1) * (x_max + 2))
    key = n, x_max, relations, below, lows
    return lambda x0, y0: int(_cum_table(*key)[x0, min(y0 + shift, x0 + 1)])


def _poset_counter(P: BicoloredPoset, mode: str, x_max: int, budget: int | None) -> Callable:
    """The mode's maps of P counted by (x0, y0): covers kept strictly or
    weakly, and celeste elements above y0, or at y0 or above in weak mode."""
    below = operator.lt if mode == "strict" else operator.le
    lows = tuple((c, c) for c in sorted(P.celeste))
    return _counter(P.n, x_max, budget, covers(P), below, lows, mode == "strict")


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
    return _poset_counter(P, mode, x0, budget)(x0, y0)


# interpolation ----------------------------------------------------------------


def _integer(value: object, x0: int, y0: int) -> int:
    count = int(value)
    if count != value:
        raise ValueError(f"counter value {value!r} at ({x0}, {y0}) is not an integer")
    return count


def _simplex_coords(counter: Callable[[int, int], int], n: int, mode: str) -> dict:
    """The coordinates c[t, s], t + s <= n, on the mode's basis (_MODE_BASIS)
    of the polynomial through the counter's values at (x0, y0) = (i + j, i + w),
    i + j <= n, w = 0 strict and 1 weak, all in the validity region.  At
    u = y - w = i and v = x - y + w = j the basis is binom(i, t) * binom(j, s),
    so c[t, s] is the forward difference Δ_i^t Δ_j^s N at (0, 0), taken in
    place along j and then along i."""
    w = mode == "weak"
    rows = [
        [_integer(counter(i + j, i + w), i + j, i + w) for j in range(n + 1 - i)]
        for i in range(n + 1)
    ]
    for row in rows:
        for k in range(1, len(row)):
            for m in range(len(row) - 1, k - 1, -1):
                row[m] -= row[m - 1]
    for k in range(1, n + 1):  # row m is one shorter than row m - 1
        for m in range(n, k - 1, -1):
            rows[m] = [a - b for a, b in zip(rows[m], rows[m - 1])]
    return {(t, s): c for t, row in enumerate(rows) for s, c in enumerate(row)}


def interpolate_poly(counter: Callable[[int, int], int], n: int, mode: str) -> BiPoly:
    """Reconstruct the unique polynomial of total degree <= n through the
    counter's integer values on the mode's simplex of (n + 1)(n + 2) / 2
    points with x0 <= n (see _simplex_coords), in the mode's binomial basis.

    Total degree n is all a counting polynomial of n elements or vertices
    reaches: it is a sum of c[t, s] * binom(y - w, t) * binom(x - y + w, s)
    with t + s <= n.  The counter is any callable (x0, y0) -> count; feeding
    it a brute enumerator yields the polynomial without the closed forms.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _mode_ok(mode)
    return _binomial_poly(_simplex_coords(counter, n, mode), *_MODE_BASIS[mode])


def interpolate_brute(
    P: BicoloredPoset, mode: str, budget: int | None = None
) -> BiPoly:
    """Interpolated brute-force polynomial; one enumeration of the P.n^P.n
    maps into 1..P.n serves every point of the simplex."""
    _mode_ok(mode)
    return interpolate_poly(_poset_counter(P, mode, P.n, budget), P.n, mode)


# reciprocity ------------------------------------------------------------------


def _negated_coords(coords: dict) -> dict:
    """The nonzero coordinates of p(-x, -y) on the strict basis B[t, s] =
    binom(y, t) * binom(x - y, s), given p's.  By Vandermonde, binom(-u, a) =
    sum_j L[a][j] binom(u, j), L[a][j] = (-1)^a binom(a - 1, a - j) (zero at
    j = 0 < a), so B[t, s](-x, -y) = sum_{j, k} L[t][j] L[s][k] B[j, k]: one
    pass along s, a second along t.  This holds only on a basis whose
    arguments u = y, v = x - y are linear, not affine."""
    L = [[(0, 1)]] + [[(j, (-1) ** a * math.comb(a - 1, a - j)) for j in range(1, a + 1)]
                      for a in range(1, max(map(max, coords), default=0) + 1)]
    half: dict[tuple[int, int], int] = {}
    for (t, s), c in coords.items():
        for k, b in L[s]:
            half[t, k] = half.get((t, k), 0) + b * c
    out: dict[tuple[int, int], int] = {}
    for (t, k), c in half.items():
        for j, b in L[t]:
            out[j, k] = out.get((j, k), 0) + b * c
    return {jk: c for jk, c in out.items() if c}


def check_reciprocity_poset(P: BicoloredPoset) -> CheckReport:
    """Verify (-1)^n p_strict(-x, -y) == p_weak(x, y + 1) on the coordinates
    of the related elements R (see _order_coords): the weak basis at y + 1
    is the strict basis, so R's identity is (-1)^|R| _negated_coords(strict)
    == weak.  Each isolated element's factor satisfies the identity alone,
    (-1) * (-x) = x and (-1) * (-x + y) = x - (y + 1) + 1, and the factors
    are nonzero, so P's identity holds exactly when R's does.  Only a
    failure builds polynomials, P's whole ones, for the witness."""
    (strict, silver, celeste), (weak, _, _) = (_order_coords(P, mode) for mode in MODES)
    sign = (-1) ** (P.n - silver - celeste)
    if _negated_coords(strict) == {ts: sign * c for ts, c in weak.items()}:
        return CheckReport("poset-reciprocity", True)
    lhs = _order_poly("strict", strict, silver, celeste).negate_args() * (-1) ** P.n
    rhs = _order_poly("weak", weak, silver, celeste).shift_y(1)
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
    lhs = word_poly_strict(w).negate_args() * (-1) ** len(w)
    rhs = _chain_poly("weak", _word_key(w, ascents)).shift_y(1)
    witness = {
        "word": list(w.letters),
        "celeste_pos": w.celeste_pos,
        "lhs": lhs.text(),
        "rhs": rhs.text(),
    }
    return CheckReport("word-reciprocity", lhs == rhs, witness)
