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
bitmask dynamic program over vertex subsets counts the partitions; no
flat, orientation or order ideal is enumerated.

The paper's construction, one strict order polynomial per (flat,
acyclic orientation) pair, stays here as the route of the polynomial
reciprocity check and, in the tests, as chrom_poly's oracle: each pair's
word-key counts come from the order-ideal dynamic program run on the
orientation's directed edges, without building the poset.  The two
routes count their coordinates independently (subsets and independent
sets against flats, orientations and word keys) but share the builder
ratpoly._binomial_poly that turns coordinates into a polynomial.
chrom_count enumerates colorings directly and shares no code with
either, so it verifies both.

The numeric reciprocity check tallies the same pairs by enumeration:
each flat's quotient colorings into 1..x0 are enumerated once, each
weighted by the number of the flat's acyclic orientations it weakly
increases along (tested on their directed edges) and signed by the
quotient size, into one cumulative table per (graph, x0) that answers
every threshold y0.  count_compatible_colorings, one pair's count on its
closed poset, is that table's oracle in the tests.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, reduce

import numpy as np

from .graph import (
    Flat,
    AcyclicOrientation,
    Graph,
    acyclic_orientations,
    flats,
    graph_to_json,
    orientation_to_poset,
)
from .orderpoly import (
    _MODE_BASIS,
    CheckReport,
    _check_budget,
    _counts_ok,
    _cum_count,
    _cum_table,
    _default_labeling,
    _key_counts,
    _sum_word_keys,
    brute_count_weak,
)
from .ratpoly import BiPoly, X, _binomial_poly


@lru_cache(maxsize=4096)
def _coloring_cum_table(G: Graph, x_max: int) -> np.ndarray:
    """Cumulative tally of all colorings by (max color, least color of a
    monochromatic edge); column x_max + 1 collects the colorings with no
    monochromatic edge at all."""
    edges = G.sorted_edges()

    def tally(values, none):
        mono = (np.where(values[u] == values[v], values[u], none) for u, v in edges)
        return True, reduce(np.minimum, mono, none)

    return _cum_table(G.n, x_max, tally)


def chrom_count(G: Graph, x0: int, y0: int, budget: int | None = None) -> int:
    """Count admissible colorings by enumerating all x0^n of them."""
    _counts_ok(x0, y0)
    _check_budget(G.n, x0, budget)
    return _cum_count(_coloring_cum_table(G, x0), x0, y0 + 1)


def _pairs(G: Graph):
    """Yield every (flat, acyclic orientation of its quotient) pair as
    (sign, flat, orientation), with the reciprocity sign (-1)^(quotient
    size)."""
    for F in flats(G):
        sign = (-1) ** F.quotient.n
        for sigma in acyclic_orientations(F.quotient):
            yield sign, F, sigma


def _pair_key_counts(F: Flat, sigma: AcyclicOrientation, mode: str) -> Counter:
    """Word-key counts of the pair's poset under the mode's default
    labeling, read straight from the orientation's directed edges with
    the contracted blocks celeste; the poset is never built or closed."""
    preds = [0] * F.quotient.n
    for a, b in sigma.directed_edges:
        preds[b] |= 1 << a
    celeste = sum(1 << c for c in F.contracted)
    return _key_counts(preds, celeste, _default_labeling(preds, mode), mode)


def _surjections(m: int, s: int) -> int:
    """The surjections of an m-set onto s values, by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(s, j) * (s - j) ** m for j in range(s + 1))


def _chrom_coords(G: Graph) -> dict[tuple[int, int], int]:
    """chrom_poly's integer coordinates c[t, s] on the strict basis
    binom(y, t) * binom(x - y, s): c[t, s] = sum over W of a_t(V - W) *
    surj(|W|, s), where a_t(U) counts the ordered partitions of U into t
    independent sets and surj (see _surjections) expands (x - y)^|W|.

    a_t(U) is t! times b_t(U), the unordered such partitions, and b
    follows the block I of U's lowest vertex:
    b_t(U) = sum over independent I of b_{t-1}(U - I).  That visits each
    (U, I) pair at most once, fewer than 3^n pairs.  Each U's vector
    b_0(U), b_1(U), ... is packed into one int, slot t of `width` bits,
    so the sum over I is one int addition per pair and the shift to t + 1
    one shift.  A slot sums the set partitions of at most 2^n subsets,
    each at most n^n, so it stays below 2^width and never carries.
    """
    n = G.n
    adj = [0] * n
    for u, v in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    width = ((2 * n) ** n).bit_length()
    independent = bytearray(1 << n)
    independent[0] = 1
    packed = [1] + [0] * ((1 << n) - 1)
    by_size = [0] * (n + 1)
    by_size[0] = 1
    for U in range(1, 1 << n):
        low = U & -U
        rest = U ^ low
        v = low.bit_length() - 1
        independent[U] = independent[rest] and not adj[v] & rest
        # I is v with any independent J of U's other non-neighbors of v
        free = rest & ~adj[v]
        total = 0
        J = free
        while True:
            if independent[J]:
                total += packed[rest ^ J]
            if not J:
                break
            J = (J - 1) & free
        packed[U] = total << width
        by_size[U.bit_count()] += packed[U]
    coords: dict[tuple[int, int], int] = {}
    mask = (1 << width) - 1
    for k, sums in enumerate(by_size):
        for t in range(k + 1):
            a = math.factorial(t) * (sums >> t * width & mask)
            for s in range(n - k + 1):
                coords[t, s] = coords.get((t, s), 0) + a * _surjections(n - k, s)
    return coords


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
    _check_budget(G.n, 3, None)
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
    any polynomial; check_reciprocity_graph sums these counts over all
    pairs without calling it (see _compatible_cum_table)."""
    P = orientation_to_poset(flat, orientation)
    return brute_count_weak(P, x0, y0 + 1, budget)


@lru_cache(maxsize=4096)
def _compatible_cum_table(G: Graph, x_max: int) -> np.ndarray:
    """Cumulative tally of the reciprocity right side by (max color,
    least contracted color): every coloring of every flat's quotient into
    1..x_max counts (-1)^(quotient size) times for each acyclic
    orientation it weakly increases along, tested on the orientation's
    directed edges.  Each flat's colorings are enumerated once, for all
    of its orientations and every threshold; column x_max + 1 collects
    the colorings with no contracted vertex."""

    def table(F: Flat) -> np.ndarray:
        directed = [sigma.directed_edges for sigma in acyclic_orientations(F.quotient)]

        def tally(values, none):
            counts = sum(
                reduce(np.logical_and, (values[a] <= values[b] for a, b in edges), True)
                for edges in directed
            )
            return np.asarray(counts), reduce(np.minimum, (values[c] for c in F.contracted), none)

        return (-1) ** F.quotient.n * _cum_table(F.quotient.n, x_max, tally)

    total = sum(map(table, flats(G)))
    total.setflags(write=False)
    return total


def check_reciprocity_graph(
    G: Graph, x0: int, y0: int, budget: int | None = None
) -> CheckReport:
    """Verify chrom_poly(G)(-x0, -y0) against the signed count of
    compatible colorings over all flats and orientations, the sum of
    count_compatible_colorings over _pairs(G), read from one table per
    (G, x0) (see _compatible_cum_table); no poset is built.

    The trivial flat's quotient is G itself, the largest, so its x0^n
    colorings are checked against the budget once, before any flat is
    enumerated."""
    lhs = chrom_poly(G).evaluate(-x0, -y0)
    _counts_ok(x0, y0 + 1)
    _check_budget(G.n, x0, budget)
    rhs = _cum_count(_compatible_cum_table(G, x0), x0, y0 + 1)
    if lhs == rhs:
        return CheckReport("graph-reciprocity", True)
    witness = {
        "graph": graph_to_json(G),
        "x": x0,
        "y": y0,
        "lhs": str(lhs),
        "rhs": str(rhs),
    }
    return CheckReport("graph-reciprocity", False, witness)


def check_reciprocity_graph_poly(G: Graph) -> CheckReport:
    """Polynomial-level form: chrom_poly(-x, -y) equals the signed sum,
    over all (flat, acyclic orientation) pairs, of the weak order
    polynomials at y + 1.

    The two sides count their coordinates independently: chrom_poly over
    vertex subsets and independent sets, the right side over flats and
    orientations.  Both build their polynomial with
    ratpoly._binomial_poly.  The right side is linear, so the signed
    word-key counts of every pair are merged, summed once, and shifted
    once.
    """
    lhs = chrom_poly(G).negate_args()
    keys: Counter[tuple[int, int, int, int]] = Counter()
    for sign, F, sigma in _pairs(G):
        for key, count in _pair_key_counts(F, sigma, "weak").items():
            keys[key] += sign * count
    rhs = _sum_word_keys(keys, "weak").shift_y(1)
    if lhs == rhs:
        return CheckReport("graph-reciprocity-poly", True)
    witness = {"graph": graph_to_json(G), "lhs": lhs.text(), "rhs": rhs.text()}
    return CheckReport("graph-reciprocity-poly", False, witness)
