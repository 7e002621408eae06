"""Two-variable chromatic polynomials of simple graphs.

A coloring of G with x colors is admissible when every edge is either
properly colored or monochromatic in a color above the threshold y.
The count of admissible colorings is a polynomial chrom_poly(G) in
(x, y); setting y = x recovers the classical chromatic polynomial and
y = 0 frees every edge, giving x^n.

chrom_poly sums over the set W of vertices colored above y, after
Dohmen, Poenitz and Tittmann: P(G; x, y) = sum_W (x - y)^|W| chi(G - W; y),
already a polynomial in y and x - y.  A bitmask dynamic program over
vertex subsets, _partition_sums, counts the partitions of each subset U
into t independent sets, each block weighing 1 if independent and 0 if
not, and sums them by |U|; chi(G[U]; y) weighs the falling factorial
y(y - 1)...(y - t + 1) by that count, so the sums are the integer rows
ratpoly._falling_poly expands into monomials (see _sums_poly).  No flat,
orientation or order ideal is enumerated.

_reciprocity_poly builds the right side of graph reciprocity, which
verify checks.  Summed over the flats one color class S at a time, a
class at or below the threshold weighs (-1)^|S| a(G[S]), a(H) the
acyclic orientations of H, and a class above it (-1)^|S|; so the right
side is the same dynamic program with each block weighing a(block),
read by the same builder.  The sides share code, not weights.

The tests' oracles: either side's sums on the strict basis
binom(y, t) * binom(x - y, s) through ratpoly._binomial_poly; the
paper's per-pair constructions, strict order polynomials for chrom_poly
and verify.count_compatible_colorings for the right side; and the brute
count brute.chrom_count, which shares no code with any route.

Every enumeration here refuses through poset's one budget gate (see
poset._check_budget); no function takes a budget.  A polynomial
chrom_poly has cached is returned without the gate: it enumerates nothing.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .graph import Graph, _subset_masks
from .poset import _check_budget
from .ratpoly import _MODE_BASIS, BiPoly, X, _falling_poly


def _partition_sums(n: int, weight: Sequence[int], near: Sequence[int]) -> list[list[int]]:
    """sums[k][t], t <= k <= n: B_t(U) summed over the subsets U of size k,
    where B_t(U) sums prod weight[block] over the partitions of U into t
    blocks (vertex sets as bitmasks).

    B follows the block of U's lowest vertex v, v with any subset J of
    U's other vertices in near[v] (callers leave out only blocks of weight
    0): B_t(U) = sum over J of weight[v + J] * B_{t-1}(U - v - J), fewer
    than 3^n pairs (U, J).  Each U's vector B_0(U), B_1(U), ... is packed
    into one int, slot t of `width` bits, so the sum over J is one
    multiply-add per pair and the shift to t + 1 one shift.

    The widest slot is slot t of the size-k sum: it sums the partitions
    into t blocks of the C(n, k) subsets of size k, C(n, k) * S(k, t) of
    them (S a Stirling number of the second kind).  Adding one more block,
    the other n - k vertices together with a new vertex, turns each of
    them into a different partition of n + 1 vertices, so there are at
    most Bell(n + 1), from Bell(m + 1) = sum over k of C(m, k) Bell(k)
    (k of m vertices stay out of the last vertex's block).  Each
    partition's product is at most max(weight): the weights are 0/1, or
    acyclic orientation counts, where a(A) * a(B) <= a(A + B) (orient the
    edges between A and B from A to B).  Every term is nonnegative, so no
    partial sum exceeds its slot's total, no slot reaches 2^width, and
    none carries into the next.
    """
    bell = [1]
    for m in range(n + 1):
        bell.append(sum(math.comb(m, k) * b for k, b in enumerate(bell)))
    width = (bell[n + 1] * max(weight)).bit_length()
    packed = [1] + [0] * ((1 << n) - 1)
    by_size = [1] + [0] * n
    for U in range(1, 1 << n):
        low = U & -U
        rest = U ^ low
        free = J = rest & near[low.bit_length() - 1]
        total = 0
        while True:
            total += weight[low | J] * packed[rest ^ J]
            if not J:
                break
            J = (J - 1) & free
        packed[U] = total << width
        by_size[U.bit_count()] += packed[U]
    mask = (1 << width) - 1
    return [[b >> t * width & mask for t in range(k + 1)] for k, b in enumerate(by_size)]


def _chrom_sums(G: Graph) -> list[list[int]]:
    """_partition_sums with blocks weighing 1 when independent, so B_t(U)
    counts the partitions of U into t independent sets, and the block of
    v holds non-neighbors only."""
    adj, independent = _subset_masks(G)
    return _partition_sums(G.n, independent, [~m for m in adj])


def _sums_poly(sums: list[list[int]]) -> BiPoly:
    """The sum over t and j of sums[n - j][t] * y(y - 1)...(y - t + 1) *
    (x - y)^j, n = len(sums) - 1, by ratpoly._falling_poly: a partition
    of U into t blocks (see _partition_sums) weighs the falling factorial
    times x - y to the n - |U| vertices outside U."""
    n = len(sums) - 1
    rows = [[sums[n - j][t] for j in range(n + 1 - t)] for t in range(n + 1)]
    return _falling_poly(rows, *_MODE_BASIS["strict"], 1)


@lru_cache(maxsize=4096)
def chrom_poly(G: Graph) -> BiPoly:
    """The counting polynomial sum over U of (x - y)^(n - |U|) chi(G[U]; y),
    built once in ints from the per-size sums of the subset dynamic
    program (see _chrom_sums): chi(G[U]; y) is the sum over t of B_t(U)
    times the falling factorial y(y - 1)...(y - t + 1), so _sums_poly
    reads the polynomial off the size-(n - j) sums of B_t.

    The work is a subset dynamic program over fewer than 3^n pairs of
    vertex sets, so 3^n is checked against the budget like brute maps
    (see poset._check_budget): by default from 15 vertices on it raises
    BudgetExceededError before any enumeration.  The cache is keyed on
    the graph alone, and a cached polynomial is returned without passing
    the gate again, as linear_extensions and flats return theirs.
    """
    _check_budget(G.n, 3, 0)
    return _sums_poly(_chrom_sums(G))


@lru_cache(maxsize=4096)
def classical_chrom_poly(G: Graph) -> BiPoly:
    """Single-variable chromatic polynomial by deletion and contraction:
    exponential in the edges and gated by no budget, so it serves only as
    a reference (chrom_poly(G).subs_y_for_x() is the budgeted route)."""
    if not G.edges:
        return X**G.n
    e = min(G.edges)
    u, v = e
    deleted = Graph(G.n, G.edges - {e})
    # contract v into u, relabel vertices above v down by one
    relabel = [w if w < v else w - 1 for w in range(G.n)]
    relabel[v] = relabel[u]
    cedges = set()
    for a, b in G.edges - {e}:
        ra, rb = relabel[a], relabel[b]
        if ra != rb:
            cedges.add((min(ra, rb), max(ra, rb)))
    contracted = Graph(G.n - 1, frozenset(cedges))
    return classical_chrom_poly(deleted) - classical_chrom_poly(contracted)


def _acyclic_counts(G: Graph) -> list[int]:
    """a(S), the acyclic orientations of G[S], for every vertex subset S.
    Removing a nonempty independent set I of sources leaves one of
    G[S - I], so by inclusion-exclusion over I,
    a(S) = sum over nonempty independent I <= S of (-1)^(|I| + 1) a(S - I)."""
    _, independent = _subset_masks(G)
    a = [1] * (1 << G.n)
    for S in range(1, 1 << G.n):
        total = 0
        I = S
        while I:
            if independent[I]:
                total += a[S ^ I] if I.bit_count() & 1 else -a[S ^ I]
            I = (I - 1) & S
        a[S] = total
    return a


@lru_cache(maxsize=4096)
def _reciprocity_poly(G: Graph) -> BiPoly:
    """The reciprocity right side as a polynomial: the signed count of
    colorings into 1..x, threshold y, compatible with (flat, acyclic
    orientation) pairs, which the theorem equates with
    chrom_poly(G)(-x, -y).  It is (-1)^n times _sums_poly of
    _partition_sums with each block B weighted by a(G[B]) (see
    _acyclic_counts), so B_t(U) sums prod a(G[block]) over the partitions
    of U into t blocks.

    Any subset of U holding its lowest vertex is a block (all-ones masks),
    about 3^n / 2 pairs.  The cache is keyed on the graph alone, so both
    graph checks (see verify) gate 3^n against the budget before reading it.
    """
    sums = _partition_sums(G.n, _acyclic_counts(G), [-1] * G.n)
    return (-1) ** G.n * _sums_poly(sums)
