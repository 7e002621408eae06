"""Simple graphs, their connected-partition flats, and acyclic orientations.

A flat is a partition of the vertex set into blocks that each induce a
connected subgraph, together with the quotient simple graph obtained by
contracting every block.  Quotient vertices coming from blocks of size
two or more are the contracted ones; they become the celeste elements
of the posets an acyclic orientation of the quotient gives rise to.
flats generates the connected partitions directly, block by block, so
its work follows the number of flats rather than all Bell(n) set
partitions, and it refuses past 2^n subsets through poset's budget gate;
acyclic_orientations refuses graphs of more than 20 edges.
"""

from __future__ import annotations

__all__ = [
    "Graph", "build_graph", "graph_to_json", "graph_from_json", "Flat", "flats",
    "AcyclicOrientation", "acyclic_orientations", "orientation_to_poset",
]

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .poset import BicoloredPoset, _check_budget, _json_n, _json_pairs, build_poset

MAX_ORIENTATION_EDGES = 20


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("graph size must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) must satisfy 0 <= u < v < n")

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))


def build_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Normalize edges to (min, max) pairs; loops, duplicates, and
    out-of-range endpoints are errors."""
    if n < 0:
        raise ValueError("graph size must be nonnegative")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop ({u}, {u}) not allowed")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return Graph(n, frozenset(seen))


# JSON form: {"n": int, "edges": [[u, v], ...]}


def graph_to_json(G: Graph) -> dict:
    return {"n": G.n, "edges": [list(e) for e in G.sorted_edges()]}


def graph_from_json(data: dict) -> Graph:
    n = _json_n(data, "graph")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError("graph field 'edges' must be a list")
    return build_graph(n, _json_pairs(raw_edges, "edge"))


def _neighbor_masks(G: Graph) -> list[int]:
    """Each vertex's neighbors as a bitmask."""
    adj = [0] * G.n
    for u, v in G.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _subset_masks(G: Graph) -> tuple[list[int], bytearray]:
    """Each vertex's neighbors as a bitmask, and one byte per vertex
    subset S, 1 when S is independent: S is independent when S minus its
    lowest vertex is and that vertex has no neighbor in it."""
    adj = _neighbor_masks(G)
    independent = bytearray(1 << G.n)
    independent[0] = 1
    for S in range(1, 1 << G.n):
        low = S & -S
        rest = S ^ low
        independent[S] = independent[rest] and not adj[low.bit_length() - 1] & rest
    return adj, independent


@dataclass(frozen=True)
class Flat:
    """A connected partition of a graph with its contracted quotient."""

    blocks: tuple[tuple[int, ...], ...]
    quotient: Graph
    contracted: frozenset[int]


@lru_cache(maxsize=4096)
def flats(G: Graph) -> tuple[Flat, ...]:
    """All partitions of the vertices into connected blocks, each with its
    quotient, in lexicographic order of the block assignment (vertex v's
    digit is the index of its block, blocks ordered by least vertex).

    The block of the least unplaced vertex is any connected set of
    unplaced vertices containing it, and the rest is partitioned alike.
    That order is not lexicographic ({0,3|1|2} precedes {0|1,2|3}), so
    the assignments are sorted.  Its first step alone tries the 2^(n - 1)
    subsets that hold vertex 0, so 2^n is checked against the budget
    first."""
    _check_budget(G.n, 2, 0)
    adj = _neighbor_masks(G)

    def connected(block: int) -> bool:
        seen = todo = block & -block
        while todo:
            low = todo & -todo
            grown = adj[low.bit_length() - 1] & block & ~seen
            seen |= grown
            todo ^= low | grown
        return seen == block

    digits = [0] * G.n

    def assignments(rest: int, index: int):
        if not rest:
            yield tuple(digits)
            return
        low = rest & -rest
        others = sub = rest ^ low
        while True:
            block = low | sub
            if connected(block):
                for v in range(G.n):
                    if block >> v & 1:
                        digits[v] = index
                yield from assignments(rest ^ block, index + 1)
            if not sub:
                return
            sub = (sub - 1) & others

    out: list[Flat] = []
    for rgs in sorted(assignments((1 << G.n) - 1, 0)):
        nb = max(rgs, default=-1) + 1
        lists: list[list[int]] = [[] for _ in range(nb)]
        for v, d in enumerate(rgs):
            lists[d].append(v)
        blocks = tuple(map(tuple, lists))
        qedges = frozenset(
            (min(rgs[u], rgs[v]), max(rgs[u], rgs[v])) for u, v in G.edges if rgs[u] != rgs[v]
        )
        contracted = frozenset(i for i, b in enumerate(blocks) if len(b) >= 2)
        out.append(Flat(blocks, Graph(nb, qedges), contracted))
    return tuple(out)


@dataclass(frozen=True)
class AcyclicOrientation:
    """One direction (tail, head) per edge, listed in sorted edge order."""

    directed_edges: tuple[tuple[int, int], ...]


@lru_cache(maxsize=4096)
def acyclic_orientations(H: Graph) -> tuple[AcyclicOrientation, ...]:
    """All acyclic orientations, as lexicographic direction vectors over the
    sorted edge list, (u, v) before (v, u), grown edge by edge: reach[r]
    holds the vertices r reaches, so a -> b closes a cycle when b reaches a,
    and otherwise every reach[r] that holds a gains reach[b].  Only the
    vertices on an edge, at most twice the edge limit, get an index and a
    reach mask."""
    edges = H.sorted_edges()
    if len(edges) > MAX_ORIENTATION_EDGES:
        raise ValueError(
            f"{len(edges)} edges exceeds the orientation enumeration limit "
            f"of {MAX_ORIENTATION_EDGES}"
        )
    index = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    out = []

    def orient(directed: tuple[tuple[int, int], ...], reach: list[int]) -> None:
        if len(directed) == len(edges):
            out.append(AcyclicOrientation(directed))
            return
        u, v = edges[len(directed)]
        for a, b in ((u, v), (v, u)):
            ia, ib = index[a], index[b]
            if not reach[ib] >> ia & 1:
                orient(directed + ((a, b),), [r | reach[ib] if r >> ia & 1 else r for r in reach])

    orient((), [1 << i for i in range(len(index))])
    return tuple(out)


def orientation_to_poset(flat: Flat, orientation: AcyclicOrientation) -> BicoloredPoset:
    """Transitive closure of the directed quotient edges, with the
    contracted quotient vertices celeste."""
    return build_poset(
        flat.quotient.n, orientation.directed_edges, flat.contracted
    )
