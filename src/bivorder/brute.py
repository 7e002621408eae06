"""Brute-force counts and interpolation, the oracle side: the counts share
no code with the polynomial builders, and this is the one numpy user.

Posets (_poset_constraints) and graphs (_coloring_constraints) reach one
kernel as n positions, relations kept by below(phi(a), phi(b)), low terms
and a shift: a map into 1..x0 counts at (x0, y0) when it keeps every
relation and its low value (see _maps) is >= y0 + shift.  Reads at many
points (verify's oracle sweeps, interpolate_brute) go through one
budgeted counter whose table is cached, so counts at one x0 share it.

A single count, brute_count or chrom_count, is routed by _count.  At
x0 >= 2 within one block of maps and of the table's (x0 + 1)(x0 + 2)
cells it reads _counter's cached table.  Otherwise it builds and caches
no table and is gated on its x0^n maps alone, whichever route then
counts them.  At x0 <= 1 every map is constant, so the count is 0 or 1
in closed form, read from the constraints with no map enumerated.  At
x0 >= 2, where that gate bounds n by log2 of the budget and the
min-degree elimination order costs little, it sums the positions out one
at a time (bucket elimination, see _eliminate) when the order, read
before any product, keeps each bucket within _BLOCK_MAPS cells and their
cells summed below x0^n, so a sparse input is summed, not enumerated.
Otherwise it reduces each block of maps to its number (see _maps).

Counts and polynomials agree on the validity region (_valid_ys), outside
which a polynomial counts nothing.  interpolate_poly reads any integer
counter on the simplex x0 <= n inside it and rebuilds the polynomial by
integer forward differences in the mode's basis (see ratpoly._SHIFT).
Every count refuses through poset's one budget gate (poset._check_budget)
before it counts; no function here takes a budget.
"""

from __future__ import annotations

__all__ = ["brute_count", "chrom_count", "interpolate_poly", "interpolate_brute"]

import math
import operator
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, Iterable

import numpy as np

from .graph import Graph
from .poset import BicoloredPoset, _check_budget, covers
from .ratpoly import _SHIFT, BiPoly, _binomial_poly, _mode_ok


def _valid_ys(mode: str, x0: int) -> range:
    """The thresholds y at which the mode's polynomial counts maps into
    1..x0: 0 <= y <= x0 in strict mode, 1 <= y <= x0 + 1 in weak mode."""
    w = _SHIFT[mode]
    return range(w, x0 + 1 + w)


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
    holds the sentinel x_max + 1.  _maps caches only blocks within
    _BLOCK_MAPS maps; a wider one is built uncached and dropped."""
    dtype = np.min_scalar_type(x_max + 1)
    cols = np.indices((x_max,) * k, dtype=dtype).reshape(k, x_max**k) + dtype.type(1)
    top = cols.max(axis=0, initial=0)
    cols.setflags(write=False)
    top.setflags(write=False)
    return cols, top


def _maps(
    n: int, x_max: int, relations: tuple, below: Callable, lows: tuple, threshold: int | None
) -> np.ndarray | int:
    """Enumerate the maps phi from n positions into 1..x_max that keep
    every relation, below(phi(a), phi(b)) for (a, b) in relations, and
    reduce each block of them.  A map's low value is the least phi(u) over
    the low terms (u, v) with phi(u) == phi(v), so (c, c) is position c
    alone, and none = x_max + 1 when no low term holds.  With threshold
    None a block's codes top * (x_max + 2) + low, top its largest value,
    go into one histogram over the (x_max + 1) * (x_max + 2) cells, which
    is returned (see _cum_table); with a threshold <= none the block adds
    its number of maps whose low value is >= threshold, and the int total
    is returned, with no cell allocated.

    Every map is enumerated: the last k positions (see _inner_count) vary
    inside a block, one block per value tuple of the leading ones.  One
    pass places each relation and low term, its ends in either order, by
    where they lie.  Between two inner positions it is evaluated once per
    enumeration, and the inner maps that break a relation are dropped
    before the first block; between a leading and an inner position once
    per (position, value), cached when two or more leading positions let
    a value recur; between two leading positions on Python ints, and a
    block whose leading values break a relation is skipped, as is, under
    a threshold, a block whose leading values alone put the low value
    below it.  Codes go into the histogram by np.bincount when they number
    at least its cells, else by np.add.at, so a block costs O(its maps)
    and a histogram O(maps + cells), never O(blocks * cells); a count
    costs O(maps).

    A low term's array is built from one comparison, in the values' own
    type: an inner term (u, v) is max(phi(u), (phi(u) != phi(v)) * none),
    and the term of a leading value c is (phi(v) != c) * (none - c) + c,
    so the maps where phi(u) != phi(v) read none.

    Values take one byte while the sentinel x_max + 1 < 256, two below
    65536.  Memory beyond the histogram's 8 * cells bytes stays under
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
    cols, top = (_inner_maps if x_max <= _BLOCK_MAPS else _inner_maps.__wrapped__)(k, x_max)
    inner_rel = [(a - lead, b - lead) for a, b in relations if min(a, b) >= lead]
    if inner_rel:
        keep = reduce(operator.and_, (below(cols[a], cols[b]) for a, b in inner_rel))
        cols, top = cols[:, keep], top[keep]
    dtype = cols.dtype
    # each pair by where its ends lie: both inner (relations are applied
    # above), both leading, or leading end p against the inner end's column
    inner_low = []  # at most one array, the least inner low term
    rel_in = [[] for _ in range(lead)]
    low_in = [[] for _ in range(lead)]
    lead_rel, lead_low = [], []
    for pair, is_low in [(r, False) for r in relations] + [(t, True) for t in lows]:
        p, q = sorted(pair)
        if p >= lead:
            if is_low:
                cp, cq = cols[p - lead], cols[q - lead]
                term = cp if p == q else np.maximum(cp, (cp != cq) * dtype.type(none))
                inner_low = [np.minimum(inner_low[0], term) if inner_low else term]
        elif q < lead:
            (lead_low if is_low else lead_rel).append(pair)
        elif is_low:
            low_in[p].append(cols[q - lead])
        else:
            rel_in[p].append((cols[q - lead], pair[0] == p))
    active = [p for p in range(lead) if rel_in[p] or low_in[p]]
    inner_code = top.astype(code_type) * width if threshold is None else None

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
    total = np.zeros(cells, dtype=np.int64) if threshold is None else 0
    for values in product(range(1, x_max + 1), repeat=lead):
        if any(not below(values[a], values[b]) for a, b in lead_rel):
            continue
        # the least low term among the leading values alone
        low = min((values[u] for u, v in lead_low if values[u] == values[v]), default=none)
        if threshold is not None and low < threshold:
            continue
        keep, low_arrays = None, inner_low[:]
        for p in active:
            mask, term = lead_terms(p, values[p])
            if mask is not None:
                keep = mask if keep is None else keep & mask
            if term is not None:
                low_arrays.append(term)
        if low_arrays:
            # numpy's minimum and maximum run unvectorized against a scalar, so
            # one is spread into a full array; a threshold was passed already
            if threshold is None and low < none:
                low_arrays.append(np.full_like(low_arrays[0], low))
            low = reduce(np.minimum, low_arrays)
        if threshold is not None:
            if low_arrays:
                keep = low >= threshold if keep is None else keep & (low >= threshold)
            total += len(top) if keep is None else np.count_nonzero(keep)
            continue
        code = np.maximum(inner_code, np.full_like(inner_code, max(values, default=0) * width))
        code += low
        if keep is not None:
            code = code[keep]
        if len(code) >= cells:
            total += np.bincount(code, minlength=cells)
        else:
            np.add.at(total, code, 1)
    return total if threshold is None else int(total)


@lru_cache(maxsize=4096)
def _cum_table(n: int, x_max: int, relations: tuple, below: Callable, lows: tuple) -> np.ndarray:
    """T[x0, t]: the maps phi from n positions into 1..x_max that keep
    every relation counted by largest value <= x0 and low value >= t (see
    _maps); column none = x_max + 1 holds the maps with no low term.  The
    enumeration's histogram, summed up the rows and down the columns.
    Cached on this plain description, so posets and graphs share one
    cache; _counter is the only caller."""
    table = _maps(n, x_max, relations, below, lows, None).reshape(x_max + 1, x_max + 2)
    np.cumsum(table, axis=0, out=table)
    rev = table[:, ::-1]
    np.cumsum(rev, axis=1, out=rev)
    table.setflags(write=False)
    return table


def _counter(
    n: int, x_max: int, relations: tuple, below: Callable, lows: tuple, shift: int
) -> Callable[[int, int], int]:
    """The one route to a brute table: check the budget now, maps and
    table cells, and return (x0, y0) -> the maps into 1..x0 <= x_max with
    low value >= y0 + shift.  Each read fetches the cached table (see
    _cum_table), so it is built at the first read: a caller that takes its
    counters first refuses first."""
    _check_budget(n, x_max, (x_max + 1) * (x_max + 2))
    key = n, x_max, relations, below, lows
    return lambda x0, y0: int(_cum_table(*key)[x0, min(y0 + shift, x0 + 1)])


def _elimination_order(n: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """A min-degree order for summing out n positions whose factors join
    the given pairs, as (v, w) per step: v the position summed out, w the
    positions its bucket's product spans, v and those it shares a factor
    with by then, which its sum joins.  Ties go to the lowest position."""
    near: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        if a != b:
            near[a].add(b)
            near[b].add(a)
    left = set(range(n))
    order = []
    while left:
        v = min(left, key=lambda u: (len(near[u]), u))
        left.remove(v)
        for u in near[v]:
            near[u] |= near[v] - {u}
            near[u].discard(v)
        order.append((v, len(near[v]) + 1))
    return order


def _eliminate(
    x0: int, order: list[tuple[int, int]], relations: tuple, below: Callable, lows: tuple,
    threshold: int,
) -> int:
    """The maps into 1..x0 that keep every relation and whose low value
    (see _maps) is >= threshold, as a sum over the positions of a product
    of 0/1 factors, summed out one position at a time in the given order
    (bucket elimination; Dechter, AI 1999).  A relation (a, b) is the
    x0 x x0 matrix below(i, j), a low term (c, c) the vector i >= threshold
    and a low term (u, v) the matrix i != j or i >= threshold; each matrix
    is built only when some factor reads it.  A factor keeps its axes in
    the order of its positions, so a step spreads each factor of its
    bucket over the bucket's sorted positions by a reshape, multiplies
    them, sums its position's axis out and leaves the result on the
    others; a position in no factor leaves x0.  A product holds x0^w
    cells, w as the order gives it.  Every entry counts partial maps, at
    most x0^n, so int64 is exact below 2^63 and Python ints past it."""
    dtype = np.int64 if x0 ** len(order) < 1 << 63 else object
    values = np.arange(1, x0 + 1)
    high = values >= threshold
    factors = [((u,), high.astype(dtype)) for u, v in lows if u == v]
    if relations:
        rel = below(values[:, None], values).astype(dtype)
        factors += [((a, b), rel) if a < b else ((b, a), rel.T) for a, b in relations]
    if any(u != v for u, v in lows):
        apart = ((values[:, None] != values) | high[:, None]).astype(dtype)
        factors += [(tuple(sorted((u, v))), apart) for u, v in lows if u != v]
    for v, _ in order:
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        axes = sorted({u for s, _ in bucket for u in s})
        spread = (f.reshape([x0 if u in s else 1 for u in axes]) for s, f in bucket)
        total = reduce(operator.mul, spread).sum(axis=axes.index(v)) if bucket else x0
        factors.append((tuple(u for u in axes if u != v), np.asarray(total, dtype)))
    return math.prod(int(f) for _, f in factors)


def _count(
    n: int, x0: int, y0: int, relations: tuple, below: Callable, lows: tuple, shift: int
) -> int:
    """One count, the maps into 1..x0 with low value >= y0 + shift, routed
    as the module docstring says: at x0 <= 1 in closed form, else from the
    cached table within one block, else by elimination or by blocks, gated
    on the x0^n maps alone."""
    if x0 >= 2 and _inner_count(n, x0) == n and (x0 + 1) * (x0 + 2) <= _BLOCK_MAPS:
        return _counter(n, x0, relations, below, lows, shift)(x0, y0)
    _check_budget(n, x0, 0)
    threshold = min(y0 + shift, x0 + 1)
    if x0 <= 1:  # phi = 1 is the one map, and at x0 = 0 there is none once n >= 1
        if x0 == 0 and n:
            return 0
        low = 1 if lows else x0 + 1  # every low term holds at phi = 1
        return int((not relations or below(1, 1)) and low >= threshold)
    # the gate bounds n by log2 of the budget, so the order costs little
    order = _elimination_order(n, relations + lows)
    cells = [x0**w for _, w in order]
    if max(cells, default=0) <= _BLOCK_MAPS and sum(cells) < x0**n:
        return _eliminate(x0, order, relations, below, lows, threshold)
    return _maps(n, x0, relations, below, lows, threshold)


def _poset_constraints(P: BicoloredPoset, mode: str) -> tuple:
    """The mode's maps of P as the brute kernel reads them, (relations,
    below, lows, shift): covers kept strictly or weakly, and celeste
    elements above y0, or at y0 or above in weak mode."""
    below = operator.lt if mode == "strict" else operator.le
    lows = tuple((c, c) for c in sorted(P.celeste))
    return covers(P), below, lows, 1 - _SHIFT[mode]


def _poset_counter(P: BicoloredPoset, mode: str, x_max: int) -> Callable:
    """The mode's maps of P counted by (x0, y0) (see _poset_constraints)."""
    return _counter(P.n, x_max, *_poset_constraints(P, mode))


def _coloring_constraints(G: Graph) -> tuple:
    """G's colorings as the brute kernel reads them, (relations, below,
    lows, shift): no relation, and each edge a low term, so a coloring is
    admissible when its least monochromatic color is above y0."""
    return (), operator.lt, G.sorted_edges(), 1


def _coloring_counter(G: Graph, x_max: int) -> Callable:
    """Admissible colorings counted by (x0, y0), from one enumeration of
    all colorings into 1..x_max (see _coloring_constraints)."""
    return _counter(G.n, x_max, *_coloring_constraints(G))


def _counts_ok(x0: int, y0: int) -> None:
    if x0 < 0 or y0 < 0:
        raise ValueError("x0 and y0 must be nonnegative integers")


def brute_count(P: BicoloredPoset, mode: str, x0: int, y0: int) -> int:
    """Count the mode's maps of P into 1..x0 that send every celeste
    element above y0 (to y0 or above in weak mode); raises
    BudgetExceededError when the x0^n maps pass the budget (see
    _check_budget), whichever route counts them (see _count)."""
    _mode_ok(mode)
    _counts_ok(x0, y0)
    return _count(P.n, x0, y0, *_poset_constraints(P, mode))


def chrom_count(G: Graph, x0: int, y0: int) -> int:
    """Count G's admissible colorings into 1..x0 with threshold y0 (see
    _coloring_constraints); refuses as brute_count does."""
    _counts_ok(x0, y0)
    return _count(G.n, x0, y0, *_coloring_constraints(G))


# interpolation ----------------------------------------------------------------


def _integer(value: object, x0: int, y0: int) -> int:
    count = int(value)
    if count != value:
        raise ValueError(f"counter value {value!r} at ({x0}, {y0}) is not an integer")
    return count


def _simplex_coords(counter: Callable[[int, int], int], n: int, mode: str) -> dict:
    """The coordinates c[t, s], t + s <= n, on the mode's basis (see _SHIFT)
    of the polynomial through the counter's values at (x0, y0) = (i + j, i + w),
    i + j <= n, w = 0 strict and 1 weak, all in the validity region.  At
    u = y - w = i and v = x - y + w = j the basis is binom(i, t) * binom(j, s),
    so c[t, s] is the forward difference Δ_i^t Δ_j^s N at (0, 0), taken in
    place along j and then along i."""
    w = _SHIFT[mode]
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
    return _binomial_poly(_simplex_coords(counter, n, mode), mode)


def interpolate_brute(P: BicoloredPoset, mode: str) -> BiPoly:
    """Interpolated brute-force polynomial; one enumeration of the P.n^P.n
    maps into 1..P.n serves every point of the simplex."""
    _mode_ok(mode)
    return interpolate_poly(_poset_counter(P, mode, P.n), P.n, mode)
