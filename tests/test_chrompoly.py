import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bivorder import chrompoly, orderpoly
from bivorder.chrompoly import (
    check_reciprocity_graph,
    check_reciprocity_graph_poly,
    chrom_count,
    chrom_poly,
    classical_chrom_poly,
    count_compatible_colorings,
)
from bivorder.fixtures import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    path_graph,
)
from bivorder.graph import Graph, acyclic_orientations, flats, orientation_to_poset, trivial_flat
from bivorder.orderpoly import (
    BudgetExceededError,
    _word_key_counts,
    brute_count_weak,
    order_poly_strict,
    order_poly_weak,
)
from bivorder.ratpoly import ONE, X, Y, BiPoly
from oracles import all_graphs, dumb_count_colorings, relabeled_graph, up_to_isomorphism


def test_chrom_poly_frozen_small_graphs():
    assert chrom_poly(complete_graph(2)) == X**2 - Y
    assert chrom_poly(complete_graph(3)) == X**3 - 3 * X * Y + 2 * Y
    assert chrom_poly(edgeless_graph(3)) == X**3
    assert chrom_poly(Graph(0, frozenset())) == ONE


def test_chrom_count_frozen_values():
    K3 = complete_graph(3)
    assert chrom_count(K3, 2, 1) == 4
    assert chrom_count(K3, 1, 1) == 0
    assert chrom_count(K3, 3, 3) == 6
    assert chrom_count(complete_graph(4), 3, 2) == 21
    assert chrom_count(complete_graph(4), 4, 2) == 128
    assert chrom_count(path_graph(3), 2, 1) == 5


def test_chrom_count_edge_cases():
    assert chrom_count(edgeless_graph(2), 3, 7) == 9
    assert chrom_count(Graph(0, frozenset()), 0, 0) == 1
    assert chrom_count(complete_graph(2), 0, 0) == 0
    # y beyond x behaves like proper coloring
    assert chrom_count(complete_graph(3), 3, 9) == 6



@pytest.mark.parametrize("block", [1, 3, 10, 1 << 15])
def test_coloring_tables_match_definition_at_every_block_size(monkeypatch, block):
    monkeypatch.setattr(orderpoly, "_BLOCK_MAPS", block)
    table = chrompoly._coloring_cum_table.__wrapped__
    graphs = [complete_graph(4), cycle_graph(4), Graph(0, frozenset())] + all_graphs(3)
    for G in graphs:
        for x_max in range(4):
            T = table(G, x_max)
            for x0 in range(x_max + 1):
                for y0 in range(x0 + 2):
                    got = int(T[x0, min(y0 + 1, x_max + 1)])
                    assert got == dumb_count_colorings(G, x0, y0), (G, x0, y0)

def test_chrom_count_budget():
    with pytest.raises(BudgetExceededError):
        chrom_count(edgeless_graph(8), 10, 0)
    with pytest.raises(ValueError):
        chrom_count(complete_graph(2), -1, 0)
    # the table's (x0 + 1) * (x0 + 2) cells count against the budget too
    with pytest.raises(BudgetExceededError):
        chrom_count(edgeless_graph(1), 10_000_000, 0)
    assert chrom_count(edgeless_graph(1), 4, 0, budget=30) == 4
    with pytest.raises(BudgetExceededError):
        chrom_count(edgeless_graph(1), 5, 0, budget=41)


@pytest.mark.parametrize("x0", [0, 1])
def test_chrom_count_beyond_numpy_dimension_limit(x0):
    assert chrom_count(edgeless_graph(70), x0, 0) == x0


@pytest.mark.parametrize("n", range(4))
def test_chrom_count_matches_dumb_filter(n):
    for G in all_graphs(n):
        for x0 in range(5):
            for y0 in range(x0 + 2):
                assert chrom_count(G, x0, y0) == dumb_count_colorings(G, x0, y0)


@pytest.mark.parametrize("n", range(4))
def test_chrom_poly_counts_on_region(n):
    for G in all_graphs(n):
        poly = chrom_poly(G)
        for x0 in range(7):
            for y0 in range(x0 + 1):
                assert poly.evaluate(x0, y0) == chrom_count(G, x0, y0)


def _per_pair_sum(G: Graph) -> BiPoly:
    """The old route: add one strict order polynomial per (flat,
    orientation) pair."""
    total = BiPoly.zero()
    for F in flats(G):
        for sigma in acyclic_orientations(F.quotient):
            total = total + order_poly_strict(orientation_to_poset(F, sigma))
    return total


@pytest.mark.parametrize("n", range(6))
def test_chrom_poly_equals_per_pair_sum(n):
    # five vertices: one graph per isomorphism class keeps this quick
    graphs = all_graphs(n)
    if n == 5:
        graphs = up_to_isomorphism(graphs, relabeled_graph)
    for G in graphs:
        assert chrom_poly(G) == _per_pair_sum(G)


@given(st.lists(st.booleans(), min_size=15, max_size=15))
@settings(max_examples=8, deadline=None)
def test_chrom_poly_equals_per_pair_sum_six_vertices(keep):
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    G = Graph(6, frozenset(e for e, k in zip(pairs, keep) if k))
    assert chrom_poly(G) == _per_pair_sum(G)


def test_chrom_poly_monic_of_degree_n():
    for G in (complete_graph(4), cycle_graph(4), path_graph(3), edgeless_graph(2)):
        poly = chrom_poly(G)
        assert poly.coeff(G.n, 0) == 1
        assert poly.deg_x == G.n
        assert poly.total_degree == G.n


def test_classical_chrom_poly():
    assert classical_chrom_poly(complete_graph(3)) == X * (X - 1) * (X - 2)
    assert classical_chrom_poly(edgeless_graph(2)) == X**2
    assert classical_chrom_poly(complete_graph(2)) == X**2 - X
    assert classical_chrom_poly(cycle_graph(4)) == (X - 1) ** 4 + (X - 1)


@pytest.mark.parametrize("n", range(5))
def test_chrom_specializations(n):
    for G in all_graphs(n):
        poly = chrom_poly(G)
        assert poly.subs_y_for_x() == classical_chrom_poly(G)
        assert poly.subs_y(0) == X**G.n


def test_nontrivial_flats_vanish_at_diagonal():
    # any flat with a contracted block forces a value above x, impossible
    for G in (complete_graph(3), path_graph(3), cycle_graph(4)):
        for F in flats(G):
            for sigma in acyclic_orientations(F.quotient):
                P = orientation_to_poset(F, sigma)
                diag = order_poly_strict(P).subs_y_for_x()
                if F.contracted:
                    assert diag.is_zero
                else:
                    assert not diag.is_zero


def test_trivial_flat_alone_gives_classical():
    for G in (complete_graph(3), cycle_graph(4), path_graph(4)):
        F = trivial_flat(G)
        total = sum(
            (
                order_poly_strict(orientation_to_poset(F, sigma))
                for sigma in acyclic_orientations(F.quotient)
            ),
            start=BiPoly.zero(),
        )
        assert total.subs_y_for_x() == classical_chrom_poly(G)


def test_count_compatible_colorings_examples():
    K3 = complete_graph(3)
    F = next(F for F in flats(K3) if F.blocks == ((0, 1), (2,)))
    up, down = None, None
    for sigma in acyclic_orientations(F.quotient):
        if sigma.directed_edges == ((1, 0),):
            up = sigma
        else:
            down = sigma
    assert count_compatible_colorings(F, up, 3, 1) == 5
    assert count_compatible_colorings(F, down, 3, 1) == 3
    # threshold y0 >= x0 kills contracted vertices entirely
    assert count_compatible_colorings(F, up, 3, 3) == 0


def test_count_compatible_matches_weak_polynomial():
    for G in (complete_graph(3), path_graph(3), cycle_graph(4)):
        for F in flats(G):
            for sigma in acyclic_orientations(F.quotient):
                P = orientation_to_poset(F, sigma)
                weak = order_poly_weak(P)
                for x0 in range(1, 5):
                    for y0 in range(x0):
                        assert count_compatible_colorings(
                            F, sigma, x0, y0
                        ) == weak.evaluate(x0, y0 + 1)


def test_count_compatible_is_enumeration():
    # definitionally the weak count at threshold y0 + 1
    K3 = complete_graph(3)
    F = next(F for F in flats(K3) if F.blocks == ((0, 1), (2,)))
    sigma = acyclic_orientations(F.quotient)[0]
    P = orientation_to_poset(F, sigma)
    assert count_compatible_colorings(F, sigma, 4, 2) == brute_count_weak(P, 4, 3)


def test_reciprocity_frozen_value():
    K2 = complete_graph(2)
    assert chrom_poly(K2).evaluate(-2, -1) == 5
    report = check_reciprocity_graph(K2, 2, 1)
    assert report.passed
    assert report.to_json()["name"] == "graph-reciprocity"


@pytest.mark.parametrize(
    "G",
    [
        complete_graph(2),
        complete_graph(3),
        path_graph(3),
        cycle_graph(4),
        edgeless_graph(2),
    ],
    ids=["k2", "k3", "p3", "c4", "edgeless2"],
)
def test_reciprocity_numeric_fixtures(G):
    for x0 in range(1, 6):
        for y0 in range(1, x0 + 1):
            assert check_reciprocity_graph(G, x0, y0).passed


@pytest.mark.parametrize("n", range(4))
def test_reciprocity_polynomial_small(n):
    for G in all_graphs(n):
        assert check_reciprocity_graph_poly(G).passed


def test_reciprocity_poly_k4():
    assert check_reciprocity_graph_poly(complete_graph(4)).passed


def test_reciprocity_poly_witness_is_per_pair_sum(monkeypatch):
    G = path_graph(3)
    rhs = BiPoly.zero()
    for F in flats(G):
        sign = (-1) ** F.quotient.n
        for sigma in acyclic_orientations(F.quotient):
            rhs = rhs + sign * order_poly_weak(orientation_to_poset(F, sigma)).shift_y(1)
    monkeypatch.setattr(chrompoly, "chrom_poly", lambda H: BiPoly.zero())
    report = check_reciprocity_graph_poly(G)
    assert not report.passed
    assert report.witness["lhs"] == "0"
    assert report.witness["rhs"] == rhs.text()


@pytest.mark.parametrize("n", range(5))
def test_pair_key_counts_match_closed_posets(n):
    # the orientation path reads unclosed edge masks; the poset path, P.less
    for G in all_graphs(n):
        for mode in ("strict", "weak"):
            pairs = [
                (F, sigma) for F in flats(G) for sigma in acyclic_orientations(F.quotient)
            ]
            counts = list(chrompoly._pair_key_counts(G, mode))
            assert [F for F, _ in counts] == [F for F, _ in pairs]
            for (F, sigma), (_, keys) in zip(pairs, counts):
                assert keys == _word_key_counts(orientation_to_poset(F, sigma), mode)
