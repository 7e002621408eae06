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
ratpoly._falling_poly expands into monomials.  No flat, orientation or
order ideal is enumerated.

The same sums on the strict basis binom(y, t) * binom(x - y, s)
(_partition_coords: t! orders the blocks, the surjections of an m-set
expand (x - y)^m) are _chrom_coords, and ratpoly._binomial_poly of them
is chrom_poly's oracle in the tests, as is the paper's construction, one
strict order polynomial per (flat, acyclic orientation) pair.
chrom_count enumerates colorings directly through orderpoly's brute
counter, each edge a low term (see _coloring_counter), and shares no
code with any route, so it verifies them all.

Both reciprocity checks read the theorem's right side, the signed count
of (flat, acyclic orientation, compatible coloring) triples, from
integer coordinates (see _reciprocity_coords).  Summed over the flats
one color class S at a time, a class at or below the threshold weighs
(-1)^|S| a(G[S]), a(H) the acyclic orientations of H, and a class above
it (-1)^|S|; so the right side is _partition_coords with each block
weighing a(block), and no flat, orientation or poset is enumerated.  The
sides share the dynamic program, not their weights.  The per-pair sums
are the right side's oracle in the tests, with
count_compatible_colorings, one pair's count on its closed poset.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Sequence

from .graph import (
    AcyclicOrientation,
    Flat,
    Graph,
    _subset_masks,
    graph_to_json,
    orientation_to_poset,
)
from .orderpoly import (
    _MODE_BASIS,
    CheckReport,
    _check_budget,
    _counter,
    _counts_ok,
    brute_count,
)
from .ratpoly import BiPoly, X, _binomial_poly, _falling_poly


def _coloring_counter(G: Graph, x_max: int, budget: int | None) -> Callable:
    """Admissible colorings counted by (x0, y0), from one enumeration of
    all colorings into 1..x_max: each edge is a low term, so a coloring is
    admissible when its least monochromatic color is above y0."""
    return _counter(G.n, x_max, budget, (), operator.lt, G.sorted_edges(), 1)


def chrom_count(G: Graph, x0: int, y0: int, budget: int | None = None) -> int:
    """Count admissible colorings by enumerating all x0^n of them."""
    _counts_ok(x0, y0)
    return _coloring_counter(G, x0, budget)(x0, y0)


def _surjections(m_max: int) -> list[list[int]]:
    """surj[m][s], the surjections of an m-set onto s values, for s <= m <=
    m_max: surj(m, s) = s * (surj(m - 1, s - 1) + surj(m - 1, s)), as the
    last element's value is either hit by no other element or by some."""
    surj = [[1]]
    for m in range(1, m_max + 1):
        prev = surj[-1] + [0]
        surj.append([0] + [s * (prev[s - 1] + prev[s]) for s in range(1, m + 1)])
    return surj


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
    most Bell(n + 1) = sum over s of surj(n + 1, s) / s!.  Each
    partition's product is at most max(weight): the weights are 0/1, or
    acyclic orientation counts, where a(A) * a(B) <= a(A + B) (orient the
    edges between A and B from A to B).  Every term is nonnegative, so no
    partial sum exceeds its slot's total, no slot reaches 2^width, and
    none carries into the next.
    """
    bell = sum(c // math.factorial(s) for s, c in enumerate(_surjections(n + 1)[n + 1]))
    width = (bell * max(weight)).bit_length()
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


def _partition_coords(sums: list[list[int]]) -> dict:
    """The nonzero c[t, s] = sum over W of t! * B_t(V - W) * surj(|W|, s)
    on the strict basis binom(y, t) * binom(x - y, s), from the per-size
    sums of B over the n = len(sums) - 1 vertices (see _partition_sums):
    t! orders the blocks and surj (see _surjections) expands (x - y)^|W|."""
    n = len(sums) - 1
    surj = _surjections(n)
    coords: dict[tuple[int, int], int] = {}
    for k, row in enumerate(sums):
        for t, b in enumerate(row):
            b *= math.factorial(t)
            for s in range(n - k + 1):
                coords[t, s] = coords.get((t, s), 0) + b * surj[n - k][s]
    return {ts: c for ts, c in coords.items() if c}


def _chrom_sums(G: Graph) -> list[list[int]]:
    """_partition_sums with blocks weighing 1 when independent, so B_t(U)
    counts the partitions of U into t independent sets, and the block of
    v holds non-neighbors only."""
    adj, independent = _subset_masks(G)
    return _partition_sums(G.n, independent, [~m for m in adj])


def _chrom_coords(G: Graph) -> dict[tuple[int, int], int]:
    """chrom_poly's nonzero coordinates on the strict basis, where
    t! * B_t(U) counts the colorings of G[U] with exactly the colors
    1..t; _binomial_poly of them is the tests' oracle for chrom_poly."""
    return _partition_coords(_chrom_sums(G))


@lru_cache(maxsize=4096)
def chrom_poly(G: Graph, budget: int | None = None) -> BiPoly:
    """The counting polynomial sum over U of (x - y)^(n - |U|) chi(G[U]; y),
    built once in ints from the per-size sums of the subset dynamic
    program (see _chrom_sums): chi(G[U]; y) is the sum over t of B_t(U)
    times the falling factorial y(y - 1)...(y - t + 1), so the weight of
    that factorial times (x - y)^j is the size-(n - j) sum of B_t, and
    ratpoly._falling_poly expands those in monomials.

    The work is a subset dynamic program over fewer than 3^n pairs of
    vertex sets, so 3^n is checked against the budget (the default when
    None) like brute maps (see orderpoly._check_budget): by default from
    15 vertices on it raises BudgetExceededError before any enumeration.
    The paper's construction, the sum over all flats and all acyclic
    orientations of their quotients of the strict order polynomials of
    the induced bicolored posets, gives the same polynomial and is the
    tests' oracle, as is _binomial_poly of _chrom_coords.
    """
    _check_budget(G.n, 3, budget, 0)
    sums = _chrom_sums(G)
    rows = [[sums[G.n - j][t] for j in range(G.n + 1 - t)] for t in range(G.n + 1)]
    return _falling_poly(rows, *_MODE_BASIS["strict"], 1)


def _budgeted(cached: Callable, G: Graph, budget: int | None):
    """cached(G, budget), written cached(G) under the default budget:
    lru_cache keys cached(G) and cached(G, None) apart, so this keeps one
    entry per graph for callers that pass no budget and callers that pass
    None."""
    return cached(G) if budget is None else cached(G, budget)


@lru_cache(maxsize=4096)
def classical_chrom_poly(G: Graph) -> BiPoly:
    """Single-variable chromatic polynomial by deletion and contraction."""
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


def count_compatible_colorings(
    flat: Flat,
    orientation: AcyclicOrientation,
    x0: int,
    y0: int,
    budget: int | None = None,
) -> int:
    """Count colorings of the quotient vertices with 1..x0 that weakly
    increase along every directed edge and stay above y0 on contracted
    vertices.  Enumerated on the pair's closed poset, not evaluated from
    any polynomial; the signed sum of these counts over all pairs is the
    right side check_reciprocity_graph reads from coordinates."""
    P = orientation_to_poset(flat, orientation)
    return brute_count(P, "weak", x0, y0 + 1, budget)


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
def _reciprocity_coords(
    G: Graph, budget: int | None = None
) -> MappingProxyType[tuple[int, int], int]:
    """Nonzero coordinates d[t, s] on the strict basis of
    (-1)^n chrom_poly(G)(-x, -y), the reciprocity right side, as a
    read-only mapping: _partition_coords of _partition_sums with each
    block B weighted by a(G[B]) (see _acyclic_counts), so
    A_t(U) = t! * B_t(U) sums prod a(G[block]) over the ordered
    partitions of U into t blocks.

    Any subset of U holding its lowest vertex is a block (all-ones masks),
    about 3^n / 2 pairs, gated at 3^n against the budget like chrom_poly.
    chrom_poly runs the same dynamic program with 0/1 weights instead.
    """
    _check_budget(G.n, 3, budget, 0)
    sums = _partition_sums(G.n, _acyclic_counts(G), [-1] * G.n)
    return MappingProxyType(_partition_coords(sums))


def _reciprocity_count(G: Graph, x0: int, y0: int, budget: int | None = None) -> int:
    """The signed count of compatible colorings into 1..x0 over all flats
    and orientations, from _reciprocity_coords.  No color lies above a
    threshold past x0, so y0 is read as min(y0, x0)."""
    y = min(y0, x0)
    coords = _budgeted(_reciprocity_coords, G, budget).items()
    return (-1) ** G.n * sum(d * math.comb(y, t) * math.comb(x0 - y, s) for (t, s), d in coords)


def check_reciprocity_graph(G: Graph, x0: int, y0: int, budget: int | None = None) -> CheckReport:
    """Verify chrom_poly(G)(-x0, -y0), on 0 <= y0 <= x0 (ValueError
    outside), against the signed count of compatible colorings over all
    flats and orientations, read in ints from one cached computation per
    graph (see _reciprocity_count); no flat, orientation or poset is
    enumerated.  The budget bounds its 3^n subset pairs, whatever x0."""
    if not 0 <= y0 <= x0:
        raise ValueError("graph reciprocity is checked on 0 <= y0 <= x0")
    _check_budget(G.n, 3, budget, 0)
    lhs = _budgeted(chrom_poly, G, budget).evaluate(-x0, -y0)
    rhs = _reciprocity_count(G, x0, y0, budget)
    if lhs == rhs:
        return CheckReport("graph-reciprocity", True)
    witness = {"graph": graph_to_json(G), "x": x0, "y": y0, "lhs": str(lhs), "rhs": str(rhs)}
    return CheckReport("graph-reciprocity", False, witness)


def check_reciprocity_graph_poly(G: Graph, budget: int | None = None) -> CheckReport:
    """Polynomial-level form: chrom_poly(-x, -y) equals the signed sum,
    over all (flat, acyclic orientation) pairs, of the weak order
    polynomials at y + 1, which is (-1)^n times the polynomial with
    coordinates _reciprocity_coords(G) on the strict basis.  Both sides
    come from _partition_sums and differ in their block weights,
    independence against acyclic orientation counts, and in their
    builders: chrom_poly expands the per-size sums directly, the right
    side goes through _partition_coords and ratpoly._binomial_poly, so
    each builder checks the other.  The tests check each side against an
    oracle that shares neither, chrom_count and the per-pair sums over
    flats and orientations.  The budget bounds both sides' 3^n subset
    pairs, as in check_reciprocity_graph."""
    lhs = _budgeted(chrom_poly, G, budget).negate_args()
    coords = _budgeted(_reciprocity_coords, G, budget)
    rhs = (-1) ** G.n * _binomial_poly(coords, *_MODE_BASIS["strict"])
    if lhs == rhs:
        return CheckReport("graph-reciprocity-poly", True)
    witness = {"graph": graph_to_json(G), "lhs": lhs.text(), "rhs": rhs.text()}
    return CheckReport("graph-reciprocity-poly", False, witness)
