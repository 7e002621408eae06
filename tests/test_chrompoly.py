import math
import random

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bivorder import brute, chrompoly, graph, orderpoly, poset, verify
from bivorder.brute import brute_count, chrom_count, interpolate_poly
from bivorder.chrompoly import chrom_poly, classical_chrom_poly
from bivorder.fixtures import (
    complete_graph,
    cycle_graph,
    edgeless_graph,
    path_graph,
)
from bivorder.graph import Graph, acyclic_orientations, flats, orientation_to_poset, trivial_flat
from bivorder.orderpoly import order_poly_strict, order_poly_weak
from bivorder.poset import BudgetExceededError
from bivorder.ratpoly import ONE, X, Y, BiPoly, _binomial_poly
from bivorder.verify import (
    _negated_coords,
    check_reciprocity_graph,
    check_reciprocity_graph_poly,
    count_compatible_colorings,
)
from oracles import (
    all_graphs,
    chrom_coords,
    compatible_count,
    dumb_count_colorings,
    pair_key_counts,
    per_pair_sum,
    reciprocity_coords,
    relabeled_graph,
    signed_pairs,
    up_to_isomorphism,
    word_key_counts,
)


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
    monkeypatch.setattr(brute, "_BLOCK_MAPS", block)
    # uncached, so every table is built at this block size; a single count
    # past one block, x0^n colorings above the block, reduces each block instead
    monkeypatch.setattr(brute, "_cum_table", brute._cum_table.__wrapped__)
    graphs = [complete_graph(4), cycle_graph(4), Graph(0, frozenset())] + all_graphs(3)
    for G in graphs:
        for x_max in range(4):
            count = brute._coloring_counter(G, x_max)
            for x0 in range(x_max + 1):
                for y0 in range(x0 + 2):
                    expected = dumb_count_colorings(G, x0, y0)
                    assert count(x0, y0) == expected, (G, x0, y0)
                    assert chrom_count(G, x0, y0) == expected, (G, x0, y0)

def test_a_single_coloring_count_past_one_block_caches_no_table():
    # 11^6 colorings span 121 blocks: the count builds no table
    C6 = cycle_graph(6)
    assert brute._inner_count(6, 11) < 6
    before = brute._cum_table.cache_info()
    count = chrom_count(C6, 11, 3)
    assert (count, type(count)) == (chrom_poly(C6).evaluate(11, 3), int)
    assert brute._cum_table.cache_info() == before


def test_interpolating_chrom_count_reads_one_table_per_x():
    # at x0 <= 5 the 5^5 colorings of C5 fit one block, so each x0's table
    # is built once and serves every y0 read at that x0
    C5 = cycle_graph(5)
    brute._cum_table.cache_clear()
    assert interpolate_poly(lambda a, b: chrom_count(C5, a, b), 5, "strict") == chrom_poly(C5)
    info = brute._cum_table.cache_info()
    assert (info.misses, info.currsize) == (6, 6)


def test_chrom_count_budget(monkeypatch):
    with pytest.raises(BudgetExceededError):
        chrom_count(edgeless_graph(8), 10, 0)
    with pytest.raises(ValueError):
        chrom_count(complete_graph(2), -1, 0)
    # past one block the x0 colorings alone count against the budget; a
    # table's (x0 + 1) * (x0 + 2) cells count only when it is built
    with pytest.raises(BudgetExceededError):
        chrom_count(edgeless_graph(1), 10_000_001, 0)
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 30)
    assert chrom_count(edgeless_graph(1), 4, 0) == 4
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 41)
    with pytest.raises(BudgetExceededError):
        chrom_count(edgeless_graph(1), 5, 0)


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


@pytest.mark.parametrize("n", range(6))
def test_chrom_poly_equals_per_pair_sum(n):
    # five vertices: one graph per isomorphism class keeps this quick
    graphs = all_graphs(n)
    if n == 5:
        graphs = up_to_isomorphism(graphs, relabeled_graph)
    for G in graphs:
        assert chrom_poly(G) == per_pair_sum(G)


@given(st.lists(st.booleans(), min_size=15, max_size=15))
@settings(max_examples=8)
def test_chrom_poly_equals_per_pair_sum_six_vertices(keep):
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    G = Graph(6, frozenset(e for e, k in zip(pairs, keep) if k))
    assert chrom_poly(G) == per_pair_sum(G)


def _coords_route(G):
    """chrom_poly by the strict-basis coordinates and _binomial_poly."""
    return _binomial_poly(chrom_coords(G), "strict")


@pytest.mark.parametrize("n", range(6))
def test_chrom_poly_equals_coordinate_route(n):
    for G in all_graphs(n):
        assert chrom_poly.__wrapped__(G) == _coords_route(G), G


@given(st.integers(6, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
)))
@settings(max_examples=30)
def test_chrom_poly_equals_coordinate_route_six_to_ten_vertices(graph):
    n, keep = graph
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    assert chrom_poly.__wrapped__(G) == _coords_route(G)


def test_chrom_poly_equals_coordinate_route_k8():
    assert chrom_poly.__wrapped__(complete_graph(8)) == _coords_route(complete_graph(8))


@pytest.mark.parametrize("n", range(6))
def test_chrom_coords_are_nonnegative(n):
    # c[t, s] counts ordered partitions into t independent blocks
    # followed by s arbitrary ones
    for G in all_graphs(n):
        assert all(c >= 0 for c in chrom_coords(G).values())


@pytest.mark.parametrize("n", range(6))
def test_negated_chrom_coords_equal_reciprocity_coords(n):
    # chrom_poly(-x, -y) = (-1)^n times the polynomial with coordinates
    # reciprocity_coords, so negating in coordinates must give them;
    # partition_coords and _negated_coords both return nonzero entries only
    for G in all_graphs(n):
        want = {ts: (-1) ** n * d for ts, d in reciprocity_coords(G).items() if d}
        assert _negated_coords(chrom_coords(G)) == want, G


def _surjections(n, k):
    """Maps of n elements onto k values, by the recurrence on the last element."""
    row = [1] + [0] * k  # n = 0
    for _ in range(n):
        row = [0] + [j * (row[j] + row[j - 1]) for j in range(1, k + 1)]
    return row[k]


@pytest.mark.parametrize("n", range(13))
def test_chrom_coords_closed_forms_pin_packing_width(n):
    # the two extremes of the block weights: in the edgeless graph every
    # block is independent, so c[t, s] counts all surjections onto t + s
    # colors; in the complete graph only singletons are, so the t lower
    # colors take t distinct vertices.  A packed slot of the library's
    # dynamic program too narrow for the edgeless counts carries into its
    # neighbour.
    top = [(t, s) for t in range(n + 1) for s in range(n + 1 - t)]
    edgeless = {(t, s): _surjections(n, t + s) for t, s in top}
    complete = {(t, s): math.perm(n, t) * _surjections(n - t, s) for t, s in top}
    assert chrom_coords(edgeless_graph(n)) == {ts: c for ts, c in edgeless.items() if c}
    assert chrom_coords(complete_graph(n)) == {ts: c for ts, c in complete.items() if c}


@pytest.mark.parametrize("n", range(11))
def test_reciprocity_coords_at_weight_extremes(n):
    # edgeless blocks weigh a = 1 each; complete blocks weigh a(K_m) = m!,
    # the largest weights any n-vertex graph has
    for G in (edgeless_graph(n), complete_graph(n)):
        want = {ts: (-1) ** n * d for ts, d in reciprocity_coords(G).items()}
        assert _negated_coords(chrom_coords(G)) == want, G
        assert chrompoly._reciprocity_poly(G) == chrom_poly(G).negate_args(), G


def _reciprocity_coords_route(G):
    """The reciprocity right side by the strict-basis coordinates and
    _binomial_poly."""
    return (-1) ** G.n * _binomial_poly(reciprocity_coords(G), "strict")


@pytest.mark.parametrize("n", range(6))
def test_reciprocity_poly_equals_coordinate_route(n):
    for G in all_graphs(n):
        assert chrompoly._reciprocity_poly.__wrapped__(G) == _reciprocity_coords_route(G), G


@given(st.integers(6, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
)))
@settings(max_examples=20)
def test_reciprocity_poly_equals_coordinate_route_six_to_nine_vertices(graph):
    n, keep = graph
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    assert chrompoly._reciprocity_poly.__wrapped__(G) == _reciprocity_coords_route(G)


def test_chrom_poly_reads_no_flats_or_orientations(monkeypatch):
    def forbidden(*args):
        raise AssertionError("chrom_poly ran the order-ideal dynamic program")

    monkeypatch.setattr(orderpoly, "_order_coords", forbidden)
    cached = (graph.flats, graph.acyclic_orientations, brute._cum_table)
    before = [fn.cache_info() for fn in cached]
    poly = chrom_poly.__wrapped__(cycle_graph(7))
    assert [fn.cache_info() for fn in cached] == before
    assert poly.subs_y_for_x() == (X - 1) ** 7 - (X - 1)


def _assert_counts_at_small_x(G, poly):
    for x0 in range(4):
        for y0 in range(x0 + 1):
            assert poly.evaluate(x0, y0) == chrom_count(G, x0, y0), (x0, y0)


def test_chrom_poly_past_orientation_limit():
    # K8 has 28 edges; the orientation enumeration refuses more than 20
    K8 = complete_graph(8)
    poly = chrom_poly(K8)
    assert poly.subs_y_for_x() == math.prod((X - i for i in range(8)), start=ONE)
    assert poly.subs_y(0) == X**8
    _assert_counts_at_small_x(K8, poly)


def test_chrom_poly_twelve_vertices():
    rng = random.Random(12)
    G = Graph(12, frozenset(
        (u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.5
    ))
    poly = chrom_poly(G)
    assert poly.subs_y(0) == X**12
    assert poly.total_degree == 12
    _assert_counts_at_small_x(G, poly)


def test_classical_chromatic_polynomials_of_twelve_vertex_cycle_and_path():
    # y = x gives the classical chromatic polynomial, whose closed forms
    # for cycles and trees pin chrom_poly past the deletion-contraction
    # reference
    assert chrom_poly(cycle_graph(12)).subs_y_for_x() == (X - 1) ** 12 + (X - 1)
    assert chrom_poly(path_graph(12)).subs_y_for_x() == X * (X - 1) ** 11


def test_chrom_poly_budget_stops_before_work(monkeypatch):
    # 3^15 subset pairs exceed the default budget; no subset is visited
    monkeypatch.setattr(chrompoly, "_chrom_sums", None)
    with pytest.raises(BudgetExceededError, match="budget"):
        chrom_poly.__wrapped__(edgeless_graph(15))


def test_chrompoly_budget_messages_print_past_the_digit_limit(monkeypatch):
    # 10^5000 colorings and 3^10000 subset pairs are too long to print in full
    monkeypatch.setattr(brute, "_cum_table", None)
    monkeypatch.setattr(chrompoly, "_chrom_sums", None)
    with pytest.raises(BudgetExceededError, match="budget") as err:
        chrom_count(Graph(5000, frozenset()), 10, 0)
    assert "10^5000" in str(err.value)
    with pytest.raises(BudgetExceededError, match="budget") as err:
        chrom_poly.__wrapped__(Graph(10000, frozenset()))
    assert "3^10000" in str(err.value)


def test_graph_and_chrompoly_caches_are_bounded():
    caches = [
        fn
        for module in (graph, chrompoly)
        for fn in vars(module).values()
        if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__
    ]
    names = {fn.__name__ for fn in caches}
    assert {
        "flats",
        "acyclic_orientations",
        "chrom_poly",
        "classical_chrom_poly",
        "_reciprocity_poly",
    } <= names
    assert all(fn.cache_parameters()["maxsize"] is not None for fn in caches)


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
    assert count_compatible_colorings(F, sigma, 4, 2) == brute_count(P, "weak", 4, 3)


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


def _per_pair_rhs(G, x0, y0):
    return sum(
        sign * count_compatible_colorings(F, sigma, x0, y0)
        for sign, F, sigma in signed_pairs(G)
    )


def _assert_table_is_per_pair_sum(G, xs):
    for x0 in xs:
        for y0 in range(x0 + 2):
            assert compatible_count(G, x0, y0) == _per_pair_rhs(G, x0, y0), (G, x0, y0)


@pytest.mark.parametrize("n", range(5))
def test_compatible_table_equals_per_pair_sum(n):
    for G in all_graphs(n):
        _assert_table_is_per_pair_sum(G, range(6))


@given(st.integers(5, 6), st.lists(st.booleans(), min_size=15, max_size=15))
@settings(max_examples=10)
def test_compatible_table_equals_per_pair_sum_five_and_six_vertices(n, keep):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    _assert_table_is_per_pair_sum(G, range(4))


def _assert_count_is_pair_oracle(G, xs):
    # the oracle table is the per-pair sum (see _assert_table_is_per_pair_sum);
    # y0 = x0 + 1 reads the threshold clamped to x0, as no color lies above it
    rhs = chrompoly._reciprocity_poly(G)
    for x0 in xs:
        for y0 in range(x0 + 2):
            want = compatible_count(G, x0, y0)
            assert rhs.evaluate(x0, min(y0, x0)) == want, (G, x0, y0)


@pytest.mark.parametrize("n", range(5))
def test_reciprocity_count_equals_pair_oracle(n):
    for G in all_graphs(n):
        _assert_count_is_pair_oracle(G, range(6))


@given(st.integers(5, 6), st.lists(st.booleans(), min_size=15, max_size=15))
@settings(max_examples=10)
def test_reciprocity_count_equals_pair_oracle_five_and_six_vertices(n, keep):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    _assert_count_is_pair_oracle(G, range(4))


@given(st.integers(7, 10), st.lists(st.booleans(), min_size=45, max_size=45))
@settings(max_examples=10)
def test_reciprocity_polynomial_seven_to_ten_vertices(n, keep):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = Graph(n, frozenset(e for e, k in zip(pairs, keep) if k))
    # past the pair oracle's reach; chrom_poly counts independent blocks instead
    assert check_reciprocity_graph_poly(G).passed


@pytest.mark.parametrize("n", range(6))
def test_acyclic_counts_equal_orientations_and_stanley(n):
    # Stanley (1973): a graph has (-1)^n chi(-1) acyclic orientations
    for G in all_graphs(n):
        a = chrompoly._acyclic_counts(G)[-1]
        assert a == len(acyclic_orientations(G))
        assert a == (-1) ** n * classical_chrom_poly(G).evaluate(-1, 0)


def test_numeric_reciprocity_builds_no_poset(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a flat, orientation or poset was enumerated")

    monkeypatch.setattr(verify, "orientation_to_poset", forbidden)
    monkeypatch.setattr(graph, "build_poset", forbidden)
    for name in ("flats", "acyclic_orientations"):
        for module in (graph, chrompoly, verify):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    chrompoly._reciprocity_poly.cache_clear()
    before = brute._cum_table.cache_info()
    C5 = cycle_graph(5)
    for x0 in range(1, 6):
        assert all(check_reciprocity_graph(C5, x0, y0).passed for y0 in range(x0 + 1))
    assert brute._cum_table.cache_info() == before
    # one computation per graph serves every (x0, y0)
    assert chrompoly._reciprocity_poly.cache_info().misses == 1


def test_default_budget_keeps_one_cache_entry_per_graph():
    # chrom_poly is cached on the graph alone, so chrom_poly and both
    # checks compute once
    chrom_poly.cache_clear()
    chrompoly._reciprocity_poly.cache_clear()
    C5 = cycle_graph(5)
    chrom_poly(C5)
    assert check_reciprocity_graph(C5, 2, 1).passed
    assert check_reciprocity_graph_poly(C5).passed
    assert chrom_poly.cache_info().misses == 1
    assert chrompoly._reciprocity_poly.cache_info().misses == 1


def test_reciprocity_side_is_computed_once_for_every_budget(monkeypatch):
    # the budget only gates the work, so the right side is cached on the
    # graph alone: three budgets, one computation
    chrompoly._reciprocity_poly.cache_clear()
    C5 = cycle_graph(5)
    for budget in (1000, 2000, poset.DEFAULT_BUDGET):
        monkeypatch.setattr(poset, "DEFAULT_BUDGET", budget)
        assert check_reciprocity_graph_poly(C5).passed
        assert check_reciprocity_graph(C5, 3, 2).passed
    assert chrompoly._reciprocity_poly.cache_info().misses == 1


def test_reciprocity_witness_is_per_pair_sum(monkeypatch):
    G = cycle_graph(4)
    rhs = _per_pair_rhs(G, 3, 2)
    monkeypatch.setattr(verify, "chrom_poly", lambda H: BiPoly.zero())
    report = check_reciprocity_graph(G, 3, 2)
    assert not report.passed
    assert report.witness == {
        "graph": {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]},
        "x": 3,
        "y": 2,
        "lhs": "0",
        "rhs": str(rhs),
    }


@pytest.mark.parametrize("n", range(1, 5))
def test_reciprocity_budget_matches_per_pair_route(monkeypatch, n):
    # the gate counts the 3^n subset pairs of the one computation, checked
    # like chrom_poly's (no table, so no cells), not the x0^n colorings the
    # per-pair route enumerates; whatever x0, at the gate the check passes
    # with the per-pair value (counted under the default budget) and one
    # below it refuses
    gate, default = 3**n, poset.DEFAULT_BUDGET
    for G in all_graphs(n):
        for x0 in range(1, 5):
            message = f"enumeration of {gate} objects exceeds budget {gate - 1}"
            monkeypatch.setattr(poset, "DEFAULT_BUDGET", gate - 1)
            with pytest.raises(BudgetExceededError, match=message):
                check_reciprocity_graph(G, x0, 1)
            monkeypatch.setattr(poset, "DEFAULT_BUDGET", gate)
            report = check_reciprocity_graph(G, x0, 1)
            monkeypatch.setattr(poset, "DEFAULT_BUDGET", default)
            assert report.passed and _per_pair_rhs(G, x0, 1) == chrom_poly(G).evaluate(-x0, -1)


@pytest.mark.parametrize("x0", range(4))
def test_reciprocity_check_refuses_thresholds_off_its_domain(x0):
    # off 0 <= y0 <= x0 the sides no longer count colorings into 1..x0
    for y0 in (x0 + 1, -1):
        with pytest.raises(ValueError, match="0 <= y0 <= x0"):
            check_reciprocity_graph(complete_graph(2), x0, y0)


def test_reciprocity_budget_boundary_names_largest_quotient(monkeypatch):
    # the largest quotient, K4 itself, is gated by its 3^4 subset pairs:
    # at x0 = 4 they fit budget 81, where its 4^4 colorings would not
    K4 = complete_graph(4)
    message = "enumeration of 81 objects exceeds budget 80"
    checks = (
        lambda: check_reciprocity_graph(K4, 4, 1),
        lambda: check_reciprocity_graph_poly(K4),
    )
    for check in checks:
        monkeypatch.setattr(poset, "DEFAULT_BUDGET", 81)
        assert check().passed
        # the right side is cached on the graph alone; a hit skips no gate
        monkeypatch.setattr(poset, "DEFAULT_BUDGET", 80)
        with pytest.raises(BudgetExceededError, match=message):
            check()
    # nothing is computed before the check
    monkeypatch.setattr(verify, "chrom_poly", None)
    monkeypatch.setattr(verify, "_reciprocity_poly", None)
    for check in checks:
        with pytest.raises(BudgetExceededError, match=message):
            check()


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
    monkeypatch.setattr(verify, "chrom_poly", lambda H: BiPoly.zero())
    report = check_reciprocity_graph_poly(G)
    assert not report.passed
    assert report.witness["lhs"] == "0"
    assert report.witness["rhs"] == rhs.text()


@pytest.mark.parametrize("n", range(5))
def test_pair_key_counts_match_closed_posets(n):
    # the orientation path reads unclosed edge masks; the poset path, P.less
    for G in all_graphs(n):
        pairs = [
            (F, sigma) for F in flats(G) for sigma in acyclic_orientations(F.quotient)
        ]
        signed = [((-1) ** F.quotient.n, F, sigma) for F, sigma in pairs]
        assert list(signed_pairs(G)) == signed
        for F, sigma in pairs:
            for mode in ("strict", "weak"):
                keys = pair_key_counts(F, sigma, mode)
                assert keys == word_key_counts(orientation_to_poset(F, sigma), mode)
