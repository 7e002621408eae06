"""Two-variable chromatic polynomials of simple graphs.

A coloring of G with x colors is admissible when every edge is either
properly colored or monochromatic in a color above the threshold y.
The count of admissible colorings is a polynomial chrom_poly(G) in
(x, y); setting y = x recovers the classical chromatic polynomial and
y = 0 frees every edge, giving x^n.

chrom_poly sums over the set W of vertices colored above y, after
Dohmen, Poenitz and Tittmann: P(G; x, y) = sum_W (x - y)^|W| chi(G - W; y).
Each term is expanded on the strict basis binom(y, t) * binom(x - y, s)
in integers: chi(G[U]; y) through the ordered partitions of U into
independent sets, (x - y)^m through the surjections of an m-set.  A
bitmask dynamic program over vertex subsets, _partition_coords, counts
the partitions, each block weighing 1 if independent and 0 if not; no
flat, orientation or order ideal is enumerated.

The paper's construction, one strict order polynomial per (flat,
acyclic orientation) pair, is chrom_poly's oracle in the tests.
chrom_count enumerates colorings directly through orderpoly's brute
counter, each edge a low term (see _coloring_counter), and shares no
code with either route, so it verifies both.

Both reciprocity checks read the theorem's right side, the signed count
of (flat, acyclic orientation, compatible coloring) triples, from
integer coordinates (see _reciprocity_coords).  Summed over the flats
one color class S at a time, a class at or below the threshold weighs
(-1)^|S| a(G[S]), a(H) the acyclic orientations of H, and a class above
it (-1)^|S|; so the right side is _partition_coords with each block
weighing a(block), and no flat, orientation or poset is enumerated.  The
sides share that kernel, not their weights.  The per-pair sums are the
right side's oracle in the tests, with count_compatible_colorings, one
pair's count on its closed poset.
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
    brute_count_weak,
)
from .ratpoly import BiPoly, X, _binomial_poly


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


def _partition_coords(n: int, weight: Sequence[int], near: Sequence[int]) -> dict:
    """The nonzero c[t, s] = sum over W of t! * B_t(V - W) * surj(|W|, s)
    on the strict basis binom(y, t) * binom(x - y, s), where B_t(U) sums
    prod weight[block] over the partitions of U into t blocks (vertex sets
    as bitmasks), t! orders the blocks and surj (see _surjections)
    expands (x - y)^|W|.

    B follows the block of U's lowest vertex v, v with any subset J of
    U's other vertices in near[v] (callers leave out only blocks of weight
    0): B_t(U) = sum over J of weight[v + J] * B_{t-1}(U - v - J), fewer
    than 3^n pairs (U, J).  Each U's vector B_0(U), B_1(U), ... is packed
    into one int, slot t of `width` bits, so the sum over J is one
    multiply-add per pair and the shift to t + 1 one shift.

    The widest slot is slot t of by_size[k]: it sums the partitions into
    t blocks of the C(n, k) subsets of size k, C(n, k) * S(k, t) of them
    (S a Stirling number of the second kind).  Adding one more block, the
    other n - k vertices together with a new vertex, turns each of them
    into a different partition of n + 1 vertices, so there are at most
    Bell(n + 1) = sum over s of surj(n + 1, s) / s!.  Each partition's
    product is at most max(weight): the weights are 0/1, or acyclic
    orientation counts, where a(A) * a(B) <= a(A + B) (orient the edges
    between A and B from A to B).  Every term is nonnegative, so no
    partial sum exceeds its slot's total, no slot reaches 2^width, and
    none carries into the next.
    """
    surj = _surjections(n + 1)
    bell = sum(c // math.factorial(s) for s, c in enumerate(surj[n + 1]))
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
    coords: dict[tuple[int, int], int] = {}
    mask = (1 << width) - 1
    for k, sums in enumerate(by_size):
        for t in range(k + 1):
            b = math.factorial(t) * (sums >> t * width & mask)
            for s in range(n - k + 1):
                coords[t, s] = coords.get((t, s), 0) + b * surj[n - k][s]
    return {ts: c for ts, c in coords.items() if c}


def _chrom_coords(G: Graph) -> dict[tuple[int, int], int]:
    """chrom_poly's nonzero coordinates on the strict basis: blocks weigh 1
    when independent, so t! * B_t(U) counts the colorings of G[U] with
    exactly the colors 1..t, and the block of v holds non-neighbors only."""
    adj, independent = _subset_masks(G)
    return _partition_coords(G.n, independent, [~m for m in adj])


@lru_cache(maxsize=4096)
def chrom_poly(G: Graph) -> BiPoly:
    """The counting polynomial, built once from its integer coordinates
    on the strict basis (see _chrom_coords).

    The work is a subset dynamic program over fewer than 3^n pairs of
    vertex sets, so 3^n is checked against the default budget like brute
    maps (see orderpoly._check_budget): from 15 vertices on it raises
    BudgetExceededError before any enumeration.  The paper's
    construction, the sum over all flats and all acyclic orientations of
    their quotients of the strict order polynomials of the induced
    bicolored posets, gives the same polynomial and is the tests' oracle.
    """
    _check_budget(G.n, 3, None, 0)
    return _binomial_poly(_chrom_coords(G), *_MODE_BASIS["strict"])


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
    return brute_count_weak(P, x0, y0 + 1, budget)


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
def _reciprocity_coords(G: Graph) -> MappingProxyType[tuple[int, int], int]:
    """Nonzero coordinates d[t, s] on the strict basis of
    (-1)^n chrom_poly(G)(-x, -y), the reciprocity right side, as a
    read-only mapping: _partition_coords with each block B weighted by
    a(G[B]) (see _acyclic_counts), so A_t(U) = t! * B_t(U) sums
    prod a(G[block]) over the ordered partitions of U into t blocks.

    Any subset of U holding its lowest vertex is a block (all-ones masks),
    about 3^n / 2 pairs, gated at 3^n like chrom_poly.  chrom_poly runs the
    same dynamic program with 0/1 weights instead.
    """
    _check_budget(G.n, 3, None, 0)
    return MappingProxyType(_partition_coords(G.n, _acyclic_counts(G), [-1] * G.n))


def _reciprocity_count(G: Graph, x0: int, y0: int) -> int:
    """The signed count of compatible colorings into 1..x0 over all flats
    and orientations, from _reciprocity_coords.  No color lies above a
    threshold past x0, so y0 is read as min(y0, x0)."""
    y = min(y0, x0)
    coords = _reciprocity_coords(G).items()
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
    lhs = chrom_poly(G).evaluate(-x0, -y0)
    rhs = _reciprocity_count(G, x0, y0)
    if lhs == rhs:
        return CheckReport("graph-reciprocity", True)
    witness = {"graph": graph_to_json(G), "x": x0, "y": y0, "lhs": str(lhs), "rhs": str(rhs)}
    return CheckReport("graph-reciprocity", False, witness)


def check_reciprocity_graph_poly(G: Graph) -> CheckReport:
    """Polynomial-level form: chrom_poly(-x, -y) equals the signed sum,
    over all (flat, acyclic orientation) pairs, of the weak order
    polynomials at y + 1, which is (-1)^n times the polynomial with
    coordinates _reciprocity_coords(G) on the strict basis.  Both sides
    come from _partition_coords and ratpoly._binomial_poly and differ in
    their block weights only, independence against acyclic orientation
    counts; the tests check each against an oracle that shares neither,
    chrom_count and the per-pair sums over flats and orientations."""
    lhs = chrom_poly(G).negate_args()
    rhs = (-1) ** G.n * _binomial_poly(_reciprocity_coords(G), *_MODE_BASIS["strict"])
    if lhs == rhs:
        return CheckReport("graph-reciprocity-poly", True)
    witness = {"graph": graph_to_json(G), "lhs": lhs.text(), "rhs": rhs.text()}
    return CheckReport("graph-reciprocity-poly", False, witness)
