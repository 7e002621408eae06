"""Simple graphs, their connected-partition flats, and acyclic orientations.

A flat is a partition of the vertex set into blocks that each induce a
connected subgraph, together with the quotient simple graph obtained by
contracting every block.  Quotient vertices coming from blocks of size
two or more are the contracted ones; they become the celeste elements
of the posets an acyclic orientation of the quotient gives rise to.
flats generates the connected partitions directly, block by block, so
its work follows the number of flats rather than all Bell(n) set
partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .orderpoly import _check_budget
from .poset import BicoloredPoset, build_poset

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

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


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
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("graph JSON must be an object with an 'n' field")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("graph field 'n' must be an integer")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError("graph field 'edges' must be a list")
    edges = []
    for item in raw_edges:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise ValueError(f"edge {item!r} must be a pair of integers")
        edges.append((item[0], item[1]))
    return build_graph(n, edges)


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
    subsets that hold vertex 0, so 2^n is checked against the default
    budget first."""
    _check_budget(G.n, 2, None, 0)
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


def trivial_flat(G: Graph) -> Flat:
    """The all-singletons flat; its quotient is the graph itself."""
    blocks = tuple((v,) for v in range(G.n))
    return Flat(blocks, Graph(G.n, G.edges), frozenset())


@dataclass(frozen=True)
class AcyclicOrientation:
    """One direction (tail, head) per edge, listed in sorted edge order."""

    directed_edges: tuple[tuple[int, int], ...]


def is_acyclic(n: int, directed_edges: Iterable[tuple[int, int]]) -> bool:
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in directed_edges:
        succ[a].append(b)
        indeg[b] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == n


@lru_cache(maxsize=4096)
def acyclic_orientations(H: Graph) -> tuple[AcyclicOrientation, ...]:
    """All acyclic orientations, as lexicographic direction vectors over the
    sorted edge list, (u, v) before (v, u), grown edge by edge: reach[r]
    holds the vertices r reaches, so a -> b closes a cycle when b reaches a,
    and otherwise every reach[r] that holds a gains reach[b]."""
    edges = H.sorted_edges()
    if len(edges) > MAX_ORIENTATION_EDGES:
        raise ValueError(
            f"{len(edges)} edges exceeds the orientation enumeration limit "
            f"of {MAX_ORIENTATION_EDGES}"
        )
    out = []

    def orient(directed: tuple[tuple[int, int], ...], reach: list[int]) -> None:
        if len(directed) == len(edges):
            out.append(AcyclicOrientation(directed))
            return
        u, v = edges[len(directed)]
        for a, b in ((u, v), (v, u)):
            if not reach[b] >> a & 1:
                orient(directed + ((a, b),), [r | reach[b] if r >> a & 1 else r for r in reach])

    orient((), [1 << v for v in range(H.n)])
    return tuple(out)


def orientation_to_poset(flat: Flat, orientation: AcyclicOrientation) -> BicoloredPoset:
    """Transitive closure of the directed quotient edges, with the
    contracted quotient vertices celeste."""
    return build_poset(
        flat.quotient.n, orientation.directed_edges, flat.contracted
    )
