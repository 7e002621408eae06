"""Named posets and graphs used by the tests, demos, and shipped JSON files."""

from __future__ import annotations

__all__ = [
    "two_chain_celeste_top", "skew_diamond_poset", "chain_poset", "antichain_poset", "fence_poset",
    "complete_graph", "path_graph", "cycle_graph", "edgeless_graph",
]

from .graph import Graph, build_graph
from .poset import BicoloredPoset, build_poset


def two_chain_celeste_top() -> BicoloredPoset:
    """Two-element chain 0 < 1 with the top element celeste."""
    return build_poset(2, [(0, 1)], [1])


def skew_diamond_poset() -> BicoloredPoset:
    """Five elements, two routes of different lengths from bottom to top:
    0 < 1 < 2 < 4 and 0 < 3 < 4, with the middle chain element 2 celeste.
    Has exactly three linear extensions."""
    return build_poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)], [2])


def chain_poset(n: int, celeste: tuple[int, ...] = ()) -> BicoloredPoset:
    return build_poset(n, [(i, i + 1) for i in range(n - 1)], celeste)


def antichain_poset(n: int, celeste: tuple[int, ...] = ()) -> BicoloredPoset:
    return build_poset(n, [], celeste)


def fence_poset(n: int, celeste: tuple[int, ...] = ()) -> BicoloredPoset:
    """Zigzag order 0 < 1 > 2 < 3 > 4 < ..."""
    pairs = []
    for i in range(n - 1):
        pairs.append((i, i + 1) if i % 2 == 0 else (i + 1, i))
    return build_poset(n, pairs, celeste)


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def edgeless_graph(n: int) -> Graph:
    return build_graph(n, [])
