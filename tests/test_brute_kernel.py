"""The brute kernel brute._cum_table against the per-block tally
route it replaced (tests/oracles.py), for posets in both modes and for
graphs, at every block shape, and its time and memory at the budget's
extreme shapes.  The kernel runs uncached, on the constraint
descriptions that brute._poset_counter and
brute._coloring_counter give it.  A single count past one block may
sum its positions out instead (brute._eliminate): that route against
the definition and the kernel's threshold counts, which inputs take it,
its exactness past 2^63 and on long chains and wide stars, and its time
and memory where it is not taken or has no pairs.  At x0 <= 1 a count
takes a closed form that builds no block, table or order."""

import math
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest

from bivorder import brute, poset
from bivorder.brute import (
    _coloring_constraints,
    _poset_constraints,
    _valid_ys,
    brute_count,
    chrom_count,
)
from bivorder.chrompoly import chrom_poly
from bivorder.fixtures import (
    antichain_poset,
    chain_poset,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    fence_poset,
    path_graph,
    skew_diamond_poset,
)
from bivorder.graph import Graph
from bivorder.orderpoly import order_poly_strict, order_poly_weak
from bivorder.poset import build_poset, covers
from oracles import (
    all_graphs,
    catalog_posets,
    dumb_count_colorings,
    dumb_count_maps,
    tally_coloring_table,
    tally_map_table,
)

MODES = ("strict", "weak")
kernel = brute._cum_table.__wrapped__


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
    monkeypatch.setattr(brute, "_BLOCK_MAPS", block)
    rng = random.Random(block)
    posets = [skew_diamond_poset(), fence_poset(5, (1, 4)), chain_poset(4, (2,))]
    posets += catalog_posets(3) + [random_poset(rng, rng.randint(4, 6)) for _ in range(12)]
    for P in posets:
        for x_max in (0, 1, 2, 4):
            assert_map_tables_equal(P, x_max)


@pytest.mark.parametrize("block", [1, 3, 10, 1 << 15])
def test_coloring_tables_equal_tally_route_at_every_block_size(monkeypatch, block):
    monkeypatch.setattr(brute, "_BLOCK_MAPS", block)
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
    monkeypatch.setattr(brute, "_BLOCK_MAPS", block)
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
                count = brute._maps(*reversed_, threshold)
                assert count == brute._maps(*ordered, threshold), (G, flipped, threshold)


@pytest.mark.parametrize("x_max", [253, 254, 255, 256])
def test_tables_across_the_one_byte_limit(x_max):
    # values take one byte while the sentinel x_max + 1 fits in one
    dtype = brute._inner_maps(1, x_max)[0].dtype
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
    monkeypatch.setattr(brute, "_BLOCK_MAPS", block)
    posets = [
        build_poset(3, [(0, 1)], [1]),
        build_poset(4, [(0, 1), (0, 2)], [0, 2]),
        build_poset(5, [(0, 1), (1, 2), (3, 2)], [3]),
    ]
    for P in posets:
        for x_max in (1, 2, 3):
            assert brute._inner_count(P.n, x_max) == 1
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
    poset._check_budget(n, x_max, cells)
    build = _table_build(kind, n)
    brute._inner_maps.cache_clear()
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
    block = max(brute._BLOCK_MAPS, x_max)
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


# elimination ------------------------------------------------------------------


def eliminated(n, x0, y0, relations, below, lows, shift):
    """The elimination route's count, whatever the gate in _count says,
    and the kernel's threshold count of the same maps."""
    threshold = min(y0 + shift, x0 + 1)
    order = brute._elimination_order(n, relations + lows)
    count = brute._eliminate(x0, order, relations, below, lows, threshold)
    return count, brute._maps(n, x0, relations, below, lows, threshold)


@pytest.mark.parametrize("block", [3, 64])
def test_elimination_equals_definition_and_blocks_past_one_block(monkeypatch, block):
    # at these block sizes 3^4 .. 4^6 maps pass one block, so brute_count
    # and chrom_count take elimination or the blocks by the gate
    monkeypatch.setattr(brute, "_BLOCK_MAPS", block)
    rng = random.Random(block)
    for _ in range(10):
        P = random_poset(rng, rng.randint(4, 6))
        x0 = rng.choice((3, 4))
        for mode in MODES:
            constraints = _poset_constraints(P, mode)
            for y0 in _valid_ys(mode, x0):
                expected = dumb_count_maps(P, mode, x0, y0)
                assert eliminated(P.n, x0, y0, *constraints) == (expected, expected), (P, mode, y0)
                assert brute_count(P, mode, x0, y0) == expected, (P, mode, x0, y0)
    for _ in range(10):
        G = random_graph(rng, rng.randint(4, 6))
        x0 = rng.choice((3, 4))
        for y0 in range(x0 + 2):
            expected = dumb_count_colorings(G, x0, y0)
            assert eliminated(G.n, x0, y0, *_coloring_constraints(G)) == (expected, expected), (G, y0)
            assert chrom_count(G, x0, y0) == expected, (G, x0, y0)


def no_maps(*args):
    raise AssertionError("the count enumerated maps")


def test_sparse_counts_past_one_block_enumerate_no_map(monkeypatch):
    # 8^7 and 11^6 maps pass one block; a chain's buckets hold 8^2 cells
    monkeypatch.setattr(brute, "_maps", no_maps)
    for mode, w in (("strict", 0), ("weak", 1)):
        for P in (chain_poset(7), chain_poset(7, (4,)), fence_poset(7, (0, 6))):
            poly = (order_poly_weak if mode == "weak" else order_poly_strict)(P)
            for y0 in _valid_ys(mode, 8):
                assert brute_count(P, mode, 8, y0) == poly.evaluate(8, y0), (P, mode, y0)
        assert brute_count(chain_poset(7), mode, 8, w) == math.comb(8 + 6 * w, 7)
    for G in (cycle_graph(6), path_graph(6)):
        poly = chrom_poly(G)
        for y0 in range(12):
            assert chrom_count(G, 11, y0) == poly.evaluate(11, y0), (G, y0)


def test_dense_counts_stay_on_the_blocks(monkeypatch):
    # K6's and K7's first bucket holds every vertex, 11^6 and 9^7 cells
    calls = []

    def maps(*args):
        calls.append(args[:2])
        return kernel_maps(*args)

    kernel_maps = brute._maps
    monkeypatch.setattr(brute, "_maps", maps)
    K6, K7 = complete_graph(6), complete_graph(7)
    assert chrom_count(K6, 11, 4) == chrom_poly(K6).evaluate(11, 4)
    assert chrom_count(K7, 9, 2) == chrom_poly(K7).evaluate(9, 2)
    assert calls == [(6, 11), (7, 9)]


def path_colorings(n, x0, y0):
    """P_n's admissible colorings by a transfer matrix in Python ints: a
    vertex's color follows the last one's when they differ or lie above y0."""
    counts = [1] * x0
    for _ in range(n - 1):
        total = sum(counts)
        counts = [total - (c if i <= y0 else 0) for i, c in enumerate(counts, 1)]
    return sum(counts) if n else 1


def test_elimination_is_exact_past_int64_and_past_52_positions(monkeypatch):
    # 10^20 and 5^30 exceed 2^63, so these sum Python ints, as do chains
    # and paths of 60 positions at x0 = 2
    for n in range(5):
        for y0 in range(5):
            assert path_colorings(n, 3, y0) == dumb_count_colorings(path_graph(n), 3, y0)
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 10**21)
    monkeypatch.setattr(brute, "_maps", no_maps)
    assert brute_count(chain_poset(20), "weak", 10, 1) == math.comb(29, 20)
    # less the 21 weak 20-chains into 1..2, whose top is below 3
    assert brute_count(chain_poset(20, (19,)), "weak", 10, 3) == math.comb(29, 20) - 21
    assert brute_count(chain_poset(60), "weak", 2, 1) == 61
    assert brute_count(chain_poset(60, (59,)), "weak", 2, 2) == 60
    for n, x0 in ((20, 7), (30, 5), (60, 2)):
        for y0 in range(x0 + 2):
            assert chrom_count(path_graph(n), x0, y0) == path_colorings(n, x0, y0), (n, x0, y0)


def test_a_wide_star_sums_its_leaves_into_one_bucket(monkeypatch):
    # the centre is summed out last, with one factor left by each of 70
    # leaves: more than the operands np.einsum takes
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 10**22)
    monkeypatch.setattr(brute, "_maps", no_maps)
    star = Graph(71, frozenset((0, leaf) for leaf in range(1, 71)))
    for y0 in range(4):
        # the centre's color c, each leaf the other color or, above y0, c too
        assert chrom_count(star, 2, y0) == sum(1 if c <= y0 else 2**70 for c in (1, 2))
    up = build_poset(71, [(0, leaf) for leaf in range(1, 71)])
    assert brute_count(up, "weak", 2, 0) == 2**70 + 1
    assert brute_count(up, "strict", 2, 0) == 1


def no_route(*args):
    raise AssertionError("the count built a block, a table or an elimination order")


def closed_form_only(monkeypatch):
    for name in ("_maps", "_eliminate", "_elimination_order", "_cum_table"):
        monkeypatch.setattr(brute, name, no_route)


def test_x0_at_most_one_counts_equal_the_definition(monkeypatch):
    # into 1..x0 <= 1 the one map is constant, or there is none, so the
    # count is read from the constraints on inputs of 0-5 elements
    closed_form_only(monkeypatch)
    rng = random.Random(1)
    for _ in range(40):
        P = random_poset(rng, rng.randint(0, 5))
        G = random_graph(rng, rng.randint(0, 5))
        for x0 in (0, 1):
            for y0 in range(4):
                for mode in MODES:
                    assert brute_count(P, mode, x0, y0) == dumb_count_maps(P, mode, x0, y0), (P, mode, x0, y0)
                assert chrom_count(G, x0, y0) == dumb_count_colorings(G, x0, y0), (G, x0, y0)


def test_x0_at_most_one_counts_wide_inputs_without_an_order(monkeypatch):
    # an elimination order of 10^5 positions takes minutes to build, and
    # 16 positions pass the 15 that vary inside one block
    closed_form_only(monkeypatch)
    assert brute_count(antichain_poset(10**5, (0,)), "weak", 1, 1) == 1
    assert brute_count(antichain_poset(10**5, (0,)), "strict", 1, 1) == 0
    assert chrom_count(edgeless_graph(10**5), 1, 0) == 1
    assert chrom_count(edgeless_graph(10**5), 0, 0) == 0
    P = chain_poset(16, (15,))
    assert brute_count(P, "weak", 1, 1) == 1
    assert brute_count(P, "weak", 0, 1) == 0
    assert brute_count(P, "strict", 1, 0) == 0


@pytest.mark.parametrize("x0", [0, 1])
def test_x0_at_most_one_counts_a_million_vertices_in_little_memory(x0):
    # the blocks held about 150 B per position: 146 MiB here
    G = Graph(10**6, frozenset({(0, 1)}))
    tracemalloc.start()
    try:
        assert chrom_count(G, x0, 0) == x0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("x0", [2990, 3000])
def test_counts_without_pairs_hold_no_matrix(x0):
    # width-1 buckets admit x0 up to _BLOCK_MAPS; a 3000^2 int64 matrix
    # takes 69 MiB
    tracemalloc.start()
    try:
        assert brute_count(antichain_poset(2, (1,)), "weak", x0, 3) == x0 * (x0 - 2)
        assert chrom_count(edgeless_graph(2), x0, 3) == x0**2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
