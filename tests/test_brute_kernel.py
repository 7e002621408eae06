"""The brute kernel orderpoly._cum_table against the per-block tally
route it replaced (tests/oracles.py), for posets in both modes and for
graphs, at every block shape, and its time and memory at the budget's
extreme shapes.  The kernel runs uncached, on the constraint
descriptions that orderpoly._poset_counter and
chrompoly._coloring_counter give it."""

import math
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest

from bivorder import orderpoly
from bivorder.fixtures import (
    antichain_poset,
    chain_poset,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    fence_poset,
    skew_diamond_poset,
)
from bivorder.graph import Graph
from bivorder.poset import build_poset, covers
from oracles import all_graphs, catalog_posets, tally_coloring_table, tally_map_table

MODES = ("strict", "weak")
kernel = orderpoly._cum_table.__wrapped__


def map_table(P, mode, x_max):
    below = operator.lt if mode == "strict" else operator.le
    return kernel(P.n, x_max, covers(P), below, tuple((c, c) for c in sorted(P.celeste)))


def coloring_table(G, x_max):
    return kernel(G.n, x_max, (), operator.lt, G.sorted_edges())


def random_poset(rng, n):
    perm = rng.sample(range(n), n)
    relations = [
        (perm[a], perm[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3
    ]
    return build_poset(n, relations, [c for c in range(n) if rng.random() < 0.3])


def random_graph(rng, n):
    p = rng.random()
    return Graph(n, frozenset((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p))


def assert_map_tables_equal(P, x_max):
    for mode in MODES:
        assert np.array_equal(map_table(P, mode, x_max), tally_map_table(P, mode, x_max)), (P, mode, x_max)


def assert_coloring_tables_equal(G, x_max):
    assert np.array_equal(coloring_table(G, x_max), tally_coloring_table(G, x_max)), (G, x_max)


@pytest.mark.parametrize("block", [1, 3, 10, 1 << 15])
def test_map_tables_equal_tally_route_at_every_block_size(monkeypatch, block):
    # small blocks move positions from the inner arrays to the leading
    # values, so every constraint meets every pair of levels
    monkeypatch.setattr(orderpoly, "_BLOCK_MAPS", block)
    rng = random.Random(block)
    posets = [skew_diamond_poset(), fence_poset(5, (1, 4)), chain_poset(4, (2,))]
    posets += catalog_posets(3) + [random_poset(rng, rng.randint(4, 6)) for _ in range(12)]
    for P in posets:
        for x_max in (0, 1, 2, 4):
            assert_map_tables_equal(P, x_max)


@pytest.mark.parametrize("block", [1, 3, 10, 1 << 15])
def test_coloring_tables_equal_tally_route_at_every_block_size(monkeypatch, block):
    monkeypatch.setattr(orderpoly, "_BLOCK_MAPS", block)
    rng = random.Random(block)
    graphs = all_graphs(3) + [cycle_graph(5)] + [random_graph(rng, rng.randint(4, 6)) for _ in range(12)]
    for G in graphs:
        for x_max in (0, 1, 2, 4):
            assert_coloring_tables_equal(G, x_max)


@pytest.mark.parametrize("block", [1, 3, 10, 1 << 15])
def test_low_terms_count_alike_in_either_order(monkeypatch, block):
    # callers list a low term's lower position first; flipping pairs to
    # (v, u) moves each end across the leading/inner split at some block
    # size, and the table and every threshold count stay the same
    monkeypatch.setattr(orderpoly, "_BLOCK_MAPS", block)
    rng = random.Random(block)
    for _ in range(12):
        G = random_graph(rng, rng.randint(2, 6))
        edges = G.sorted_edges()
        flipped = tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges)
        for x_max in (1, 2, 4):
            ordered = (G.n, x_max, (), operator.lt, edges)
            reversed_ = (G.n, x_max, (), operator.lt, flipped)
            assert np.array_equal(kernel(*reversed_), kernel(*ordered)), (G, flipped, x_max)
            for threshold in range(x_max + 2):
                count = orderpoly._maps(*reversed_, threshold)
                assert count == orderpoly._maps(*ordered, threshold), (G, flipped, threshold)


@pytest.mark.parametrize("x_max", [253, 254, 255, 256])
def test_tables_across_the_one_byte_limit(x_max):
    # values take one byte while the sentinel x_max + 1 fits in one
    dtype = orderpoly._inner_maps(1, x_max)[0].dtype
    assert dtype == (np.uint8 if x_max + 1 < 256 else np.uint16)
    for P in (chain_poset(2, (0,)), chain_poset(2, (1,)), antichain_poset(2, (0, 1))):
        assert_map_tables_equal(P, x_max)
    for G in (complete_graph(2), edgeless_graph(2)):
        assert_coloring_tables_equal(G, x_max)


@pytest.mark.parametrize("n", [0, 1])
def test_tables_at_zero_and_one_position(n):
    for x_max in (0, 1, 5, 40):
        for P in catalog_posets(n):
            assert_map_tables_equal(P, x_max)
        assert_coloring_tables_equal(edgeless_graph(n), x_max)
    # one map of no positions: largest value 0, no low term
    assert map_table(build_poset(0), "strict", 3).tolist() == [[1] * 5] * 4


@pytest.mark.parametrize("block", [1, 3])
def test_relations_only_between_leading_positions(monkeypatch, block):
    # blocks this small leave one inner position, the last: every relation
    # and celeste element below lies among the leading positions
    monkeypatch.setattr(orderpoly, "_BLOCK_MAPS", block)
    posets = [
        build_poset(3, [(0, 1)], [1]),
        build_poset(4, [(0, 1), (0, 2)], [0, 2]),
        build_poset(5, [(0, 1), (1, 2), (3, 2)], [3]),
    ]
    for P in posets:
        for x_max in (1, 2, 3):
            assert orderpoly._inner_count(P.n, x_max) == 1
            assert all(max(a, b) < P.n - 1 for a, b in covers(P))
            assert_map_tables_equal(P, x_max)


@pytest.mark.parametrize("n", range(1, 7))
def test_edgeless_and_complete_graphs(n):
    for G in (edgeless_graph(n), complete_graph(n)):
        for x_max in range(1, 5):
            assert_coloring_tables_equal(G, x_max)
    # every coloring of the edgeless graph has no monochromatic edge
    table = coloring_table(edgeless_graph(n), 4)
    assert table[4].tolist() == [4**n] * 6


def _table_build(kind, n):
    if kind == "poset":
        P = chain_poset(n, (n - 1,))
        return lambda x_max: map_table(P, "weak", x_max)
    return lambda x_max: coloring_table(complete_graph(n), x_max)


@pytest.mark.parametrize("kind", ["poset", "graph"])
@pytest.mark.parametrize("n, x_max", [(2, 3000), (3, 181)])
def test_table_time_and_memory_at_budget_extremes(kind, n, x_max):
    # both shapes fit the default budget: 9 * 10^6 maps and cells at n = 2,
    # about 6 * 10^6 maps at n = 3
    cells = (x_max + 1) * (x_max + 2)
    orderpoly._check_budget(n, x_max, cells)
    build = _table_build(kind, n)
    orderpoly._inner_maps.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        table = build(x_max)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-block bincounts took about 40 s at n = 2
    assert seconds < 5
    # the docstring's bound on _cum_table
    block = max(orderpoly._BLOCK_MAPS, x_max)
    assert peak <= 8 * cells + (3 * n * x_max + 128) * block
    # the tally route ends holding three int64 tables of all cells
    assert peak <= 3 * 8 * cells
    # spot checks: x0 values to each of n positions, kept when weakly
    # increasing (the chain) or all distinct (the complete graph)
    for x0 in (1, 2, 17, x_max):
        if kind == "poset":
            # a weak chain whose top element is at or above t = 1
            assert table[x0, 1] == math.comb(x0 + n - 1, n)
        else:
            assert table[x0, x_max + 1] == math.perm(x0, n)
