"""Acceptance suite: the nine gate criteria, each timed and reported.

Every criterion is checked with exact equality against an independent
enumeration route; nothing is sampled down or tolerance-padded.  Each
test prints one PASS/FAIL line, a PASS line with the criterion's
seconds (visible with pytest -s, or by running this file directly), and
the per-criterion durations must sum to under five minutes.
"""

from __future__ import annotations

import functools
import itertools
import time
from fractions import Fraction

from bivorder import brute, chrompoly
from bivorder.brute import _poset_counter, _simplex_coords, chrom_count, interpolate_poly
from bivorder.chrompoly import chrom_poly, classical_chrom_poly
from bivorder.fixtures import complete_graph, skew_diamond_poset
from bivorder.graph import acyclic_orientations, flats
from bivorder.orderpoly import (
    chain_poly,
    order_poly_strict,
    order_poly_weak,
)
from bivorder.poset import (
    Word,
    all_natural_labelings,
    all_reverse_natural_labelings,
)
from bivorder.orderpoly import word_poly_strict, word_poly_weak
from bivorder.ratpoly import _MODE_BASIS, X, Y, _binomial_poly
from bivorder.fixtures import two_chain_celeste_top
from bivorder.verify import (
    check_reciprocity_graph,
    check_reciprocity_graph_poly,
    check_reciprocity_poset,
)
from oracles import (
    all_graphs,
    catalog_posets,
    chrom_coords,
    compatible_count,
    dumb_count_chain,
    dumb_count_word,
    dumb_word_profile,
    eval_int_grid,
    whole_order_coords,
)

_DURATIONS: dict[int, float] = {}

STRICT_GRID_8 = [(x0, y0) for x0 in range(9) for y0 in range(x0 + 1)]
WEAK_GRID_8 = [(x0, y0) for x0 in range(9) for y0 in range(1, x0 + 2)]
STRICT_GRID_7 = [(x0, y0) for x0 in range(8) for y0 in range(x0 + 1)]
WEAK_GRID_7 = [(x0, y0) for x0 in range(8) for y0 in range(1, x0 + 2)]


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num} {desc}: FAIL", flush=True)
                raise
            _DURATIONS[num] = time.perf_counter() - start
            print(f"ACCEPTANCE {num} {desc}: PASS ({_DURATIONS[num]:.1f}s)", flush=True)

        return wrapper

    return deco


@criterion(1, "chain formulas vs brute chain counts, n <= 6")
def test_criterion_1_chain_formulas():
    start = time.perf_counter()
    for n in range(7):
        for k in range(n + 1):
            strict_vals = eval_int_grid(chain_poly(n, k, "strict"), STRICT_GRID_8)
            weak_vals = eval_int_grid(chain_poly(n, k, "weak"), WEAK_GRID_8)
            for x0, y0 in STRICT_GRID_8:
                assert strict_vals[x0, y0] == dumb_count_chain(n, k, "strict", x0, y0)
            for x0, y0 in WEAK_GRID_8:
                assert weak_vals[x0, y0] == dumb_count_chain(n, k, "weak", x0, y0)
    assert time.perf_counter() - start < 10.0


@criterion(2, "two-chain celeste-top polynomial and sign erratum")
def test_criterion_2_example_chain():
    half = Fraction(1, 2)
    expected = half * (X**2 - X - Y**2 + Y)
    assert chain_poly(2, 1, "strict") == expected
    assert chain_poly(2, 1, "strict").evaluate(3, 1) == 3
    assert order_poly_strict(two_chain_celeste_top()) == expected
    # the variant with -y in place of +y undercounts: 2 instead of 3
    printed_variant = half * (X**2 - X - Y**2 - Y)
    assert printed_variant.evaluate(3, 1) == 2
    assert printed_variant != chain_poly(2, 1, "strict")


@criterion(3, "word polynomials vs brute word-map counts, length <= 5")
def test_criterion_3_word_polynomials():
    start = time.perf_counter()
    for n in range(1, 6):
        for letters in itertools.permutations(range(1, n + 1)):
            for cp in [None, *range(1, n + 1)]:
                prof = dumb_word_profile(letters, cp, 7)
                w = Word(letters, cp)
                strict_vals = eval_int_grid(word_poly_strict(w), STRICT_GRID_7)
                weak_vals = eval_int_grid(word_poly_weak(w), WEAK_GRID_7)
                for x0, y0 in STRICT_GRID_7:
                    assert strict_vals[x0, y0] == dumb_count_word(
                        prof, "strict", cp, x0, y0
                    )
                for x0, y0 in WEAK_GRID_7:
                    assert weak_vals[x0, y0] == dumb_count_word(
                        prof, "weak", cp, x0, y0
                    )
    assert time.perf_counter() - start < 60.0


def _nonzero_simplex_coords(counter, n: int, mode: str) -> dict:
    """The nonzero coordinates interpolated from one brute table at x = n."""
    return {ts: c for ts, c in _simplex_coords(counter, n, mode).items() if c}


@criterion(4, "decomposition equals interpolated brute force, n <= 4 catalog")
def test_criterion_4_decomposition_vs_interpolation():
    for n in range(5):
        for P in catalog_posets(n):
            # the polynomial, isolated elements' factors included, and the
            # ideal-chain program over all of P under every labeling of the
            # mode's kind, which the library's takes none of
            for mode, labelings, order_poly in (
                ("strict", all_reverse_natural_labelings(P), order_poly_strict),
                ("weak", all_natural_labelings(P), order_poly_weak),
            ):
                counter = _poset_counter(P, mode, n)
                poly = order_poly(P)
                assert interpolate_poly(counter, n, mode) == poly
                basis = _MODE_BASIS[mode]
                for lab in labelings:
                    assert _binomial_poly(whole_order_coords(P, mode, lab), *basis) == poly


@criterion(5, "poset reciprocity over the full catalog plus fixture")
def test_criterion_5_poset_reciprocity():
    for n in range(5):
        for P in catalog_posets(n):
            report = check_reciprocity_poset(P)
            assert report.passed, report.witness
    assert check_reciprocity_poset(skew_diamond_poset()).passed


@criterion(6, "flat and orientation counts on small graphs")
def test_criterion_6_flats_and_orientations():
    assert len(flats(complete_graph(3))) == 5
    assert len(acyclic_orientations(complete_graph(3))) == 6
    for n in range(6):
        for G in all_graphs(n):
            expected = abs(classical_chrom_poly(G).evaluate(-1, 0))
            assert len(acyclic_orientations(G)) == expected


@criterion(7, "triangle chromatic polynomial and its erratum")
def test_criterion_7_triangle():
    K3 = complete_graph(3)
    poly = chrom_poly(K3)
    assert poly == X**3 - 3 * X * Y + 2 * Y
    for x0 in range(7):
        for y0 in range(x0 + 1):
            assert poly.evaluate(x0, y0) == chrom_count(K3, x0, y0)
    assert poly.subs_y_for_x() == X * (X - 1) * (X - 2)
    # the variant with +y in place of +2y disagrees with the count at (1, 1)
    printed_variant = X**3 - 3 * X * Y + Y
    assert printed_variant.evaluate(1, 1) == -1
    assert chrom_count(K3, 1, 1) == 0
    assert printed_variant != poly


@criterion(8, "chromatic polynomials vs interpolated counts, n <= 4 graphs")
def test_criterion_8_chromatic_interpolation():
    for n in range(5):
        for G in all_graphs(n):
            # one coloring table up to the simplex's largest x = n serves it
            counter = brute._coloring_counter(G, G.n)
            assert _nonzero_simplex_coords(counter, G.n, "strict") == chrom_coords(G)
            poly = chrom_poly(G)
            assert poly.subs_y_for_x() == classical_chrom_poly(G)
            assert poly.subs_y(0) == X**G.n


@criterion(9, "graph reciprocity, numeric and polynomial, n <= 4 graphs")
def test_criterion_9_graph_reciprocity():
    for n in range(5):
        for G in all_graphs(n):
            for x0 in range(1, 6):
                for y0 in range(1, x0 + 1):
                    report = check_reciprocity_graph(G, x0, y0)
                    assert report.passed, report.witness
                    # the paper's right side, summed over (flat, orientation) pairs
                    pair_sum = compatible_count(G, x0, y0)
                    assert pair_sum == chrompoly._reciprocity_poly(G).evaluate(x0, y0)
            poly_report = check_reciprocity_graph_poly(G)
            assert poly_report.passed, poly_report.witness


def test_total_runtime_under_five_minutes():
    assert len(_DURATIONS) == 9
    total = sum(_DURATIONS.values())
    print(f"ACCEPTANCE total criterion time: {total:.1f}s", flush=True)
    assert total < 300.0


if __name__ == "__main__":
    test_criterion_1_chain_formulas()
    test_criterion_2_example_chain()
    test_criterion_3_word_polynomials()
    test_criterion_4_decomposition_vs_interpolation()
    test_criterion_5_poset_reciprocity()
    test_criterion_6_flats_and_orientations()
    test_criterion_7_triangle()
    test_criterion_8_chromatic_interpolation()
    test_criterion_9_graph_reciprocity()
    test_total_runtime_under_five_minutes()
