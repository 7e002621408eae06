"""Two-variable chromatic polynomials of simple graphs.

A coloring of G with x colors is admissible when every edge is either
properly colored or monochromatic in a color above the threshold y.
The count of admissible colorings is a polynomial chrom_poly(G) in
(x, y); setting y = x recovers the classical chromatic polynomial and
y = 0 frees every edge, giving x^n.

chrom_poly is assembled from the order polynomials of the posets that
acyclic orientations of quotient graphs induce, one per (flat,
orientation) pair.  It sums them by word key: each pair's word-key
counts come from the order-ideal dynamic program run on the
orientation's directed edges, without building the poset or listing
its extensions; the counts of all pairs are merged and each distinct
key's chain sum is added once.
chrom_count enumerates colorings directly.  The two never share code,
so each verifies the other.
"""

from __future__ import annotations

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
from .ratpoly import BiPoly, X


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


def _pair_key_counts(G: Graph, mode: str):
    """Yield each (flat, acyclic orientation) pair's flat with the word-key
    counts of the pair's poset under the mode's default labeling.

    The counts come straight from the orientation's directed edges, with
    the contracted blocks celeste; the poset is never built or closed.
    """
    for F in flats(G):
        celeste = sum(1 << c for c in F.contracted)
        for sigma in acyclic_orientations(F.quotient):
            preds = [0] * F.quotient.n
            for a, b in sigma.directed_edges:
                preds[b] |= 1 << a
            labels = _default_labeling(preds, mode)
            yield F, _key_counts(preds, celeste, labels, mode)


@lru_cache(maxsize=None)
def chrom_poly(G: Graph) -> BiPoly:
    """The counting polynomial: the sum, over all flats and all acyclic
    orientations of their quotients, of the strict order polynomials of
    the induced bicolored posets.

    Each of those order polynomials is a sum of chain sums fixed by word
    keys, so the word-key counts of every (flat, orientation) poset are
    merged first and the chain sums are added once per distinct key.
    """
    keys: Counter[tuple[int, int, int, int]] = Counter()
    for _, counts in _pair_key_counts(G, "strict"):
        keys.update(counts)
    return _sum_word_keys(keys, "strict")


@lru_cache(maxsize=None)
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
    vertices.  Enumerated, not evaluated from any polynomial."""
    P = orientation_to_poset(flat, orientation)
    return brute_count_weak(P, x0, y0 + 1, budget)


def _reciprocity_rhs_count(G: Graph, x0: int, y0: int, budget: int | None) -> int:
    total = 0
    for F in flats(G):
        sign = (-1) ** F.quotient.n
        for sigma in acyclic_orientations(F.quotient):
            total += sign * count_compatible_colorings(F, sigma, x0, y0, budget)
    return total


def check_reciprocity_graph(
    G: Graph, x0: int, y0: int, budget: int | None = None
) -> CheckReport:
    """Verify chrom_poly(G)(-x0, -y0) against the signed count of
    compatible colorings over all flats and orientations."""
    lhs = chrom_poly(G).evaluate(-x0, -y0)
    rhs = _reciprocity_rhs_count(G, x0, y0, budget)
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
    """Polynomial-level form: chrom_poly(-x, -y) equals the signed sum of
    the weak order polynomials at y + 1.

    The sum is linear, so the signed word-key counts of every pair are
    merged, summed once, and shifted once.
    """
    lhs = chrom_poly(G).negate_args()
    keys: Counter[tuple[int, int, int, int]] = Counter()
    for F, counts in _pair_key_counts(G, "weak"):
        sign = (-1) ** F.quotient.n
        for key, count in counts.items():
            keys[key] += sign * count
    rhs = _sum_word_keys(keys, "weak").shift_y(1)
    if lhs == rhs:
        return CheckReport("graph-reciprocity-poly", True)
    witness = {"graph": graph_to_json(G), "lhs": lhs.text(), "rhs": rhs.text()}
    return CheckReport("graph-reciprocity-poly", False, witness)
