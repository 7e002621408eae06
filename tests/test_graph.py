import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivorder.fixtures import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    path_graph,
)
from bivorder.graph import (
    AcyclicOrientation,
    Flat,
    Graph,
    acyclic_orientations,
    build_graph,
    flats,
    graph_from_json,
    graph_to_json,
    orientation_to_poset,
)
from bivorder.chrompoly import classical_chrom_poly
from oracles import all_graphs, dumb_acyclic_orientations, dumb_flats, is_acyclic, trivial_flat

BELL = [1, 1, 2, 5, 15, 52, 203]


def test_build_graph_normalizes():
    G = build_graph(3, [(2, 0), (0, 1)])
    assert G.sorted_edges() == ((0, 1), (0, 2))


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError, match="loop"):
        build_graph(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="range"):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 0)}))
    with pytest.raises(ValueError, match="^graph size must be nonnegative$"):
        Graph(-1, frozenset())
    with pytest.raises(ValueError, match="^graph size must be nonnegative$"):
        build_graph(-1)
    with pytest.raises(ValueError, match="^cycle needs at least 3 vertices$"):
        cycle_graph(2)


def test_flats_of_triangle():
    K3 = complete_graph(3)
    fs = flats(K3)
    assert len(fs) == 5
    blocks = [F.blocks for F in fs]
    assert ((0, 1, 2),) in blocks
    assert ((0, 1), (2,)) in blocks
    assert ((0,), (1,), (2,)) in blocks
    for F in fs:
        if len(F.blocks) == 2:
            assert F.quotient.sorted_edges() == ((0, 1),)
            assert len(F.contracted) == 1
        if len(F.blocks) == 3:
            assert F.contracted == frozenset()
            assert F.quotient == Graph(3, K3.edges)


def test_flats_respect_connectivity():
    P3 = path_graph(3)  # edges 0-1, 1-2; the pair {0, 2} is disconnected
    fs = flats(P3)
    assert len(fs) == 4
    assert ((0, 2), (1,)) not in [F.blocks for F in fs]


def test_flats_blocks_partition_and_connect():
    for G in (cycle_graph(4), complete_graph(4), path_graph(4)):
        adj = [set() for _ in range(G.n)]
        for u, v in G.edges:
            adj[u].add(v)
            adj[v].add(u)
        for F in flats(G):
            elements = sorted(v for b in F.blocks for v in b)
            assert elements == list(range(G.n))
            for b in F.blocks:
                seen = {b[0]}
                stack = [b[0]]
                while stack:
                    v = stack.pop()
                    for w in adj[v]:
                        if w in b and w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert seen == set(b)
            assert F.contracted == frozenset(
                i for i, b in enumerate(F.blocks) if len(b) >= 2
            )


@pytest.mark.parametrize("n", range(6))
def test_flats_equal_bell_filter(n):
    # same flats, quotients and order as filtering every set partition
    for G in all_graphs(n):
        assert flats.__wrapped__(G) == dumb_flats(G)


@given(st.integers(6, 8), st.lists(st.booleans(), min_size=28, max_size=28))
@settings(max_examples=20)
def test_flats_equal_bell_filter_six_to_eight_vertices(n, keep):
    pairs = itertools.combinations(range(n), 2)
    G = Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    assert flats.__wrapped__(G) == dumb_flats(G)


def test_path_flats_are_compositions():
    # a connected block of a path is an interval: 2^11 flats, not Bell(12)
    assert len(flats(path_graph(12))) == 2**11


@pytest.mark.parametrize("n", range(7))
def test_complete_graph_flats_are_bell_numbers(n):
    # every partition of a complete graph's vertices is connected
    assert len(flats(complete_graph(n))) == BELL[n]


def test_edgeless_graph_has_one_flat():
    fs = flats(edgeless_graph(3))
    assert len(fs) == 1
    assert fs[0].blocks == ((0,), (1,), (2,))
    assert fs[0].quotient.edges == frozenset()


def test_trivial_flat():
    G = path_graph(3)
    F = trivial_flat(G)
    assert F.blocks == ((0,), (1,), (2,))
    assert F.quotient == Graph(3, G.edges)
    assert F.contracted == frozenset()
    assert F in flats(G)


def test_acyclic_orientations_counts():
    assert len(acyclic_orientations(complete_graph(3))) == 6
    assert len(acyclic_orientations(build_graph(2, [(0, 1)]))) == 2
    assert len(acyclic_orientations(edgeless_graph(3))) == 1
    assert len(acyclic_orientations(cycle_graph(4))) == 14


def test_acyclic_orientations_are_acyclic_and_complete():
    G = cycle_graph(4)
    oriented = acyclic_orientations(G)
    assert len(set(oriented)) == len(oriented)
    for o in oriented:
        assert is_acyclic(G.n, o.directed_edges)
        assert tuple((min(e), max(e)) for e in o.directed_edges) == G.sorted_edges()
    # the two cyclic direction vectors of the 4-cycle are the only exclusions
    assert len(oriented) == 2 ** len(G.edges) - 2


@pytest.mark.parametrize("n", range(5))
def test_acyclic_orientations_equal_direction_vector_filter(n):
    for G in all_graphs(n):
        assert acyclic_orientations.__wrapped__(G) == dumb_acyclic_orientations(G)


SEVEN_VERTEX_EDGES = list(itertools.combinations(range(7), 2))


@given(st.lists(st.sampled_from(SEVEN_VERTEX_EDGES), unique=True, max_size=12))
@settings(max_examples=40)
def test_acyclic_orientations_equal_direction_vector_filter_on_seven_vertices(edges):
    # at most 12 edges, so the filter reads at most 4096 direction vectors
    G = build_graph(7, edges)
    assert acyclic_orientations.__wrapped__(G) == dumb_acyclic_orientations(G)


@given(st.lists(st.sampled_from(SEVEN_VERTEX_EDGES), unique=True, max_size=10), st.integers(0, 30))
@settings(max_examples=30)
def test_acyclic_orientations_ignore_vertices_off_the_edges(edges, spread):
    # vertices spread apart, with isolated vertices between and after them,
    # give the orientations of the 7-vertex graph with the same relabeling
    label = [v * (spread + 1) + spread for v in range(7)]
    G = build_graph(7 * (spread + 1) + spread, [(label[u], label[v]) for u, v in edges])
    want = [
        AcyclicOrientation(tuple((label[a], label[b]) for a, b in o.directed_edges))
        for o in dumb_acyclic_orientations(build_graph(7, edges))
    ]
    assert list(acyclic_orientations.__wrapped__(G)) == want


def test_acyclic_orientations_hold_no_mask_per_isolated_vertex():
    # a reach mask per vertex took 26 MiB on 20 000 isolated vertices
    G = edgeless_graph(20000)
    tracemalloc.start()
    try:
        assert acyclic_orientations.__wrapped__(G) == (AcyclicOrientation(()),)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_orientation_edge_limit():
    # K7 minus an edge, at the limit of 20 edges, has |7! - 6!| orientations
    # (its chromatic polynomial at -1); K7 itself is refused
    K7 = complete_graph(7)
    assert len(acyclic_orientations(build_graph(7, K7.edges - {(0, 1)}))) == 4320
    message = "^21 edges exceeds the orientation enumeration limit of 20$"
    with pytest.raises(ValueError, match=message):
        acyclic_orientations(K7)


@pytest.mark.parametrize("n", range(5))
def test_orientation_count_equals_classical_at_minus_one(n):
    for G in all_graphs(n):
        expected = abs(classical_chrom_poly(G).evaluate(-1, 0))
        assert len(acyclic_orientations(G)) == expected


def test_orientation_to_poset_pair_flat():
    K3 = complete_graph(3)
    F = next(F for F in flats(K3) if F.blocks == ((0, 1), (2,)))
    posets = {
        sigma.directed_edges: orientation_to_poset(F, sigma)
        for sigma in acyclic_orientations(F.quotient)
    }
    up = posets[(1, 0),]  # singleton below the contracted pair
    assert up.less == frozenset({(1, 0)})
    assert up.celeste == frozenset({0})
    down = posets[(0, 1),]
    assert down.less == frozenset({(0, 1)})
    assert down.celeste == frozenset({0})


def test_orientation_to_poset_closure():
    G = path_graph(3)
    F = trivial_flat(G)
    sigma = AcyclicOrientation(((0, 1), (1, 2)))
    P = orientation_to_poset(F, sigma)
    assert (0, 2) in P.less
    assert P.celeste == frozenset()


def test_orientation_to_poset_valid_across_small_graphs():
    for n in range(4):
        for G in all_graphs(n):
            for F in flats(G):
                for sigma in acyclic_orientations(F.quotient):
                    P = orientation_to_poset(F, sigma)
                    assert P.n == F.quotient.n
                    assert P.celeste == F.contracted


def test_graph_json_round_trip():
    G = cycle_graph(4)
    data = graph_to_json(G)
    assert data == {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}
    assert graph_from_json(data) == G
    assert graph_from_json({"n": 2}) == edgeless_graph(2)


def test_graph_json_rejects_malformed():
    with pytest.raises(ValueError):
        graph_from_json({"edges": []})
    with pytest.raises(ValueError):
        graph_from_json({"n": 2, "edges": [[0, 1, 2]]})
    with pytest.raises(ValueError):
        graph_from_json({"n": 2, "edges": "01"})
