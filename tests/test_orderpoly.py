import itertools
import math
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bivorder.chrompoly import chrom_poly, classical_chrom_poly
from bivorder.graph import build_graph
from bivorder.fixtures import (
    antichain_poset,
    chain_poset,
    complete_graph,
    cycle_graph,
    fence_poset,
    fixture_posets,
    skew_diamond_poset,
    two_chain_celeste_top,
)
from bivorder import brute, orderpoly, poset, ratpoly, verify
from bivorder.brute import (
    _valid_ys,
    brute_count,
    chrom_count,
    interpolate_brute,
    interpolate_poly,
)
from bivorder.orderpoly import (
    _chain_coords,
    _chain_poly,
    _checked_labeling,
    _order_coords,
    _word_key,
    chain_poly,
    order_poly_strict,
    order_poly_weak,
    word_decomposition,
    word_poly_strict,
    word_poly_weak,
)
from bivorder.poset import (
    BicoloredPoset,
    BudgetExceededError,
    Word,
    _natural_labels,
    all_natural_labelings,
    all_reverse_natural_labelings,
    ascents,
    build_poset,
    descents,
    linear_extensions,
    natural_labeling,
    word_of,
)
from bivorder.ratpoly import MODES, _MODE_BASIS, ONE, X, Y, BiPoly, _binomial_poly, binom_poly
from bivorder.verify import (
    CheckReport,
    _negated_coords,
    check_reciprocity_poset,
    check_reciprocity_word,
)
from oracles import (
    all_graphs,
    bipoly_poset_reciprocity,
    catalog_posets,
    dumb_count_chain,
    dumb_count_maps,
    dumb_count_word,
    dumb_word_profile,
    eval_int_grid,
    fraction_strict_sum,
    fraction_weak_sum,
    key_coords,
    product_interpolate_poly,
    relabeled_poset,
    up_to_isomorphism,
    whole_order_coords,
    word_key_counts,
)

half = Fraction(1, 2)


# chain closed forms ----------------------------------------------------------


def test_chain_strict_two_one():
    p = chain_poly(2, 1, "strict")
    assert p == half * X**2 - half * X - half * Y**2 + half * Y
    assert p.evaluate(3, 1) == 3


def test_chain_weak_two_one():
    p = chain_poly(2, 1, "weak")
    assert p == half * (X + Y) * (X - Y + 1)
    assert p.evaluate(3, 2) == 5


def test_chain_singletons():
    assert chain_poly(1, 0, "strict") == X - Y
    assert chain_poly(1, 0, "weak") == X - Y + 1
    assert chain_poly(0, 0, "strict") == ONE
    assert chain_poly(0, 0, "weak") == ONE


@pytest.mark.parametrize("n", range(7))
def test_chain_no_celeste_collapses(n):
    # k = n leaves no celeste element; y drops out entirely
    assert chain_poly(n, n, "strict") == binom_poly(X, n)
    assert chain_poly(n, n, "weak") == binom_poly(X + (n - 1), n)


def test_chain_validates_k():
    with pytest.raises(ValueError):
        chain_poly(2, 3, "strict")
    with pytest.raises(ValueError):
        chain_poly(2, -1, "weak")


@pytest.mark.parametrize(
    "call",
    [
        lambda mode: brute_count(chain_poset(30), mode, -1, 0),
        lambda mode: interpolate_brute(antichain_poset(12), mode),
        lambda mode: chain_poly(-1, 0, mode),
        lambda mode: word_decomposition(two_chain_celeste_top(), mode, (9, 9)),
    ],
    ids=["brute_count", "interpolate_brute", "chain_poly", "word_decomposition"],
)
@pytest.mark.parametrize("mode", ["both", "Strict", None])
def test_mode_entries_reject_an_unknown_mode_first(call, mode):
    # every other argument is bad or past the budget too, so only a mode
    # check made before any other check or work gives this message
    with pytest.raises(ValueError, match=re.escape("mode must be one of ('strict', 'weak')")):
        call(mode)


@pytest.mark.parametrize("n", range(5))
def test_chain_formulas_match_dumb_counts(n):
    for k in range(n + 1):
        ps = chain_poly(n, k, "strict")
        pw = chain_poly(n, k, "weak")
        for x0 in range(6):
            for y0 in range(x0 + 1):
                assert ps.evaluate(x0, y0) == dumb_count_chain(n, k, "strict", x0, y0)
            for y0 in range(1, x0 + 2):
                assert pw.evaluate(x0, y0) == dumb_count_chain(n, k, "weak", x0, y0)


def test_chain_weak_negative_binomial_term_cancels():
    # at y = 1 the i = 1 summand has binom(y-2, 1) = -1; the total still counts
    assert chain_poly(2, 1, "weak").evaluate(3, 1) == dumb_count_chain(2, 1, "weak", 3, 1) == 6


# word polynomials ------------------------------------------------------------


def test_word_poly_strict_frozen_values():
    p = word_poly_strict(Word((1, 2), 2))
    assert p == half * (X - Y) * (X + Y + 1)
    assert p.evaluate(3, 1) == 5

    q = word_poly_strict(Word((1, 4, 2, 3, 5), 4))
    assert q.evaluate(5, 2) == 52
    assert q.evaluate(8, 3) == 431
    assert q.evaluate(4, 0) == 21
    assert q.evaluate(3, 1) == 6


def test_word_poly_weak_frozen_values():
    p = word_poly_weak(Word((2, 1), 2))
    assert p.evaluate(3, 2) == 3
    assert p.evaluate(3, 1) == 3
    q = word_poly_weak(Word((1, 4, 2, 3, 5), 4))
    assert q.evaluate(5, 2) == 56
    assert q.evaluate(8, 3) == 455


def test_word_poly_no_mark_ignores_y():
    for letters in itertools.permutations((1, 2, 3)):
        ps = word_poly_strict(Word(letters, None))
        pw = word_poly_weak(Word(letters, None))
        assert ps.deg_y <= 0
        assert pw.deg_y <= 0


def test_word_poly_empty():
    assert word_poly_strict(Word((), None)) == ONE
    assert word_poly_weak(Word((), None)) == ONE


@pytest.mark.parametrize("n", range(1, 5))
def test_word_polys_match_dumb_counts(n):
    x_max = 6
    for letters in itertools.permutations(range(1, n + 1)):
        for cp in [None, *range(1, n + 1)]:
            prof = dumb_word_profile(letters, cp, x_max)
            ps = word_poly_strict(Word(letters, cp))
            pw = word_poly_weak(Word(letters, cp))
            for x0 in range(x_max + 1):
                for y0 in range(x0 + 1):
                    assert ps.evaluate(x0, y0) == dumb_count_word(
                        prof, "strict", cp, x0, y0
                    )
                for y0 in range(1, x0 + 2):
                    assert pw.evaluate(x0, y0) == dumb_count_word(
                        prof, "weak", cp, x0, y0
                    )


# chain sums in integer binomial coordinates -----------------------------------


def _all_word_keys(n):
    """Every key (n, k, prefix, full) of a word of length n: the prefix up
    to a mark at position k + 1 holds k of the n - 1 adjacent pairs, an
    unmarked word has k = n and prefix 0, and any up-down pattern of the
    pairs is some word's."""
    yield from ((n, n, 0, full) for full in range(max(n, 1)))
    for k in range(n):
        for prefix, rest in itertools.product(range(k + 1), range(n - k)):
            yield n, k, prefix, prefix + rest


@pytest.mark.parametrize("n", range(9))
def test_chain_coords_match_fraction_chain_sums(n):
    oracle = {"strict": fraction_strict_sum, "weak": fraction_weak_sum}
    for key in _all_word_keys(n):
        for mode in MODES:
            assert _chain_poly(mode, key) == oracle[mode](*key), (key, mode)


# order polynomials and decomposition -----------------------------------------


def test_order_poly_two_element_examples():
    assert order_poly_strict(antichain_poset(2, (1,))) == X**2 - X * Y
    assert order_poly_strict(two_chain_celeste_top()) == chain_poly(2, 1, "strict")
    assert order_poly_weak(two_chain_celeste_top()) == chain_poly(2, 1, "weak")


def test_order_poly_empty_poset():
    P = build_poset(0)
    assert order_poly_strict(P) == ONE
    assert order_poly_weak(P) == ONE


def test_order_poly_no_celeste_is_y_free():
    for P in (antichain_poset(3), chain_poset(4), fence_poset(4)):
        assert order_poly_strict(P).deg_y <= 0
        assert order_poly_weak(P).deg_y <= 0


def test_decomposition_has_one_summand_per_extension():
    for P in (skew_diamond_poset(), antichain_poset(3, (0,)), fence_poset(5, (1,))):
        exts = linear_extensions(P)
        assert len(word_decomposition(P, "strict")) == len(exts)
        assert len(word_decomposition(P, "weak")) == len(exts)


def test_decomposition_rejects_wrong_labeling_kind():
    P = two_chain_celeste_top()
    with pytest.raises(ValueError, match="reverse natural"):
        word_decomposition(P, "strict", (1, 2))
    with pytest.raises(ValueError, match="natural"):
        word_decomposition(P, "weak", (2, 1))


@pytest.mark.parametrize("n", range(4))
def test_labeling_independence_small_catalog(n):
    # every labeling of the mode's kind sums the words to the one polynomial
    for P in catalog_posets(n):
        for mode, labelings in (
            ("strict", all_reverse_natural_labelings(P)),
            ("weak", all_natural_labelings(P)),
        ):
            poly = ORDER_POLY[mode](P)
            for lab in labelings:
                assert _per_extension_sum(word_decomposition(P, mode, lab)) == poly


def _per_extension_sum(decomposition) -> BiPoly:
    """The old route: add the word polynomials one extension at a time."""
    return sum((poly for _, poly in decomposition), BiPoly.zero())


def _per_extension_coords(P, mode, labeling):
    """The old route in coordinates: one chain sum per extension's word."""
    used = _checked_labeling(P, labeling, mode)
    stat = ascents if mode == "strict" else descents
    coords = Counter()
    for ext in linear_extensions(P):
        for ts, c in _chain_coords(mode, *_word_key(word_of(ext, used, P), stat)):
            coords[ts] += c
    return {ts: c for ts, c in coords.items() if c}


def _coords_poly(coords, mode):
    """The polynomial with these coordinates on the mode's basis."""
    return _binomial_poly(coords, *_MODE_BASIS[mode])


def _assert_equal_per_extension_sums(P, strict_labelings, weak_labelings):
    for mode, labelings, order_poly in (
        ("strict", strict_labelings, order_poly_strict),
        ("weak", weak_labelings, order_poly_weak),
    ):
        for lab in (None, *labelings):
            assert order_poly(P) == _coords_poly(_per_extension_coords(P, mode, lab), mode)
            # the public per-word polynomials, on the posets small enough to be cheap
            if P.n <= 2:
                assert order_poly(P) == _per_extension_sum(word_decomposition(P, mode, lab))


@pytest.mark.parametrize("n", range(5))
def test_order_polys_equal_per_extension_sums_on_catalog(n):
    # Every explicit labeling on one poset per isomorphism class: renaming
    # the elements and the labeling together leaves every word unchanged.
    representatives = set(up_to_isomorphism(catalog_posets(n), relabeled_poset))
    for P in catalog_posets(n):
        if P in representatives:
            _assert_equal_per_extension_sums(
                P, all_reverse_natural_labelings(P), all_natural_labelings(P)
            )
        else:
            _assert_equal_per_extension_sums(P, (), ())


@st.composite
def bicolored_posets(draw, min_n: int, max_n: int) -> BicoloredPoset:
    n = draw(st.integers(min_n, max_n))
    names = draw(st.permutations(range(n)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    relations = [(names[a], names[b]) for (a, b), k in zip(pairs, keep) if k]
    celeste = draw(st.sets(st.integers(0, n - 1)))
    return build_poset(n, relations, celeste)


@given(bicolored_posets(5, 7), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_order_polys_equal_per_extension_sums_random(P, pick):
    # the per-extension route adds one chain sum per extension; near-antichains
    # of 7 elements (up to 5040 extensions) would take seconds per example
    assume(len(linear_extensions(P)) <= 1000)
    strict_labs = all_reverse_natural_labelings(P)
    weak_labs = all_natural_labelings(P)
    _assert_equal_per_extension_sums(
        P, [strict_labs[pick % len(strict_labs)]], [weak_labs[pick % len(weak_labs)]]
    )


def _assert_key_counts_equal_per_extension_tally(P, strict_labelings, weak_labelings):
    exts = linear_extensions(P)
    first = tuple(exts[0].index(e) + 1 for e in range(P.n))
    assert _natural_labels(P.preds) == first
    assert natural_labeling(P) == first
    for mode, stat, labelings in (
        ("strict", ascents, [None, *strict_labelings]),
        ("weak", descents, [None, *weak_labelings]),
    ):
        for lab in labelings:
            used = _checked_labeling(P, lab, mode)
            want = Counter(_word_key(word_of(e, used, P), stat) for e in exts)
            assert word_key_counts(P, mode, lab) == want


@pytest.mark.parametrize("n", range(5))
def test_key_counts_equal_per_extension_tally_on_catalog(n):
    representatives = set(up_to_isomorphism(catalog_posets(n), relabeled_poset))
    for P in catalog_posets(n):
        if P in representatives:
            _assert_key_counts_equal_per_extension_tally(
                P, all_reverse_natural_labelings(P), all_natural_labelings(P)
            )
        else:
            _assert_key_counts_equal_per_extension_tally(P, (), ())


@given(bicolored_posets(5, 8), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_key_counts_equal_per_extension_tally_random(P, pick):
    strict_labs = all_reverse_natural_labelings(P)
    weak_labs = all_natural_labelings(P)
    _assert_key_counts_equal_per_extension_tally(
        P, [strict_labs[pick % len(strict_labs)]], [weak_labs[pick % len(weak_labs)]]
    )


def _random_extension(P, rng):
    """A linear extension of P, each next element drawn among the minimal
    ones left; its positions are a natural labeling, reversed a reverse
    natural one, without listing all labelings."""
    preds, placed, order = P.preds, 0, []
    while len(order) < P.n:
        v = rng.choice([v for v in range(P.n) if not (placed >> v & 1 or preds[v] & ~placed)])
        order.append(v)
        placed |= 1 << v
    return order


@given(bicolored_posets(5, 10), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_order_coords_equal_word_key_oracle_random(P, rng):
    # sizes where brute tables are over budget: the ideal-chain program
    # against the word-key route, under one random valid labeling per mode
    for mode in MODES:
        position = {v: i for i, v in enumerate(_random_extension(P, rng))}
        lab = tuple(
            position[v] + 1 if mode == "weak" else P.n - position[v] for v in range(P.n)
        )
        assert ORDER_POLY[mode](P) == _coords_poly(
            key_coords(word_key_counts(P, mode, lab), mode), mode
        )


def _surjections(n, k):
    """Maps of n elements onto a k-chain, by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


@pytest.mark.parametrize("n", range(17))
def test_order_coords_of_antichains_count_surjections(n):
    # no order: c[t, s] counts the surjections onto a (t + s)-chain, with
    # every celeste element in the top s values, so the product of the
    # isolated elements' linear factors has these coordinates
    silver = {(t, s): _surjections(n, t + s) for t in range(n + 1) for s in range(n + 1 - t)}
    celeste = {(0, s): _surjections(n, s) for s in range(n + 1)}
    for mode in MODES:
        assert ORDER_POLY[mode](antichain_poset(n)) == _coords_poly(silver, mode)
        assert ORDER_POLY[mode](antichain_poset(n, tuple(range(n)))) == _coords_poly(celeste, mode)


@pytest.mark.parametrize("m", range(2, 17))
def test_order_coords_pack_the_largest_counts_without_carry(m):
    # a bottom element under an (m - 1)-antichain, every element related:
    # the bottom takes the first step alone and the rest count the
    # surjections of m - 1 elements, near the largest coordinates of any
    # m-element poset, so a packed slot too narrow for them carries into
    # its neighbour
    P = build_poset(m, [(0, v) for v in range(1, m)], range(1, m, 3))
    for mode in MODES:
        assert _order_coords(P, mode) == (whole_order_coords(P, mode), 0, 0)


@st.composite
def posets_with_isolated_elements(draw) -> tuple:
    """A random poset P, the colours of 0-4 elements added in no relation
    (True: celeste), and P with them added, all under shuffled names."""
    P = draw(bicolored_posets(1, 8))
    extra = draw(st.lists(st.booleans(), max_size=4))
    names = draw(st.permutations(range(P.n + len(extra))))
    relations = [(names[a], names[b]) for a, b in P.less]
    celeste = [names[c] for c in P.celeste] + [
        names[P.n + i] for i, c in enumerate(extra) if c
    ]
    return P, extra, build_poset(len(names), relations, celeste)


@given(posets_with_isolated_elements(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_order_coords_equal_whole_program_with_isolated_elements(case, rng):
    # the related elements ranked by down-set size, the isolated elements
    # multiplied in, give the polynomial of the program run over every
    # element under the default labeling and under one random valid one
    _, _, P = case
    for mode in MODES:
        position = {v: i for i, v in enumerate(_random_extension(P, rng))}
        lab = tuple(
            position[v] + 1 if mode == "weak" else P.n - position[v] for v in range(P.n)
        )
        poly = ORDER_POLY[mode](P)
        assert poly == _coords_poly(whole_order_coords(P, mode), mode)
        assert poly == _coords_poly(whole_order_coords(P, mode, lab), mode)


@given(posets_with_isolated_elements())
@settings(max_examples=40, deadline=None)
def test_isolated_elements_multiply_the_polynomial(case):
    # order_poly(P + A) == order_poly(P) * X^b * (X - Y + w)^a for b silver
    # and a celeste isolated elements, by BiPoly products; reciprocity
    # gives the verdict and witness of the polynomial comparison
    P, extra, union = case
    a = sum(extra)
    for mode, w in (("strict", 0), ("weak", 1)):
        want = ORDER_POLY[mode](P) * X ** (len(extra) - a) * (X - Y + w) ** a
        assert ORDER_POLY[mode](union) == want
    assert check_reciprocity_poset(union) == bipoly_poset_reciprocity(union)


def _record_basis_changes(monkeypatch) -> list[int]:
    """The total degree of every change of basis orderpoly makes from now
    on, the largest t + s among the coordinates _binomial_poly is given."""
    degrees = []

    def recorded(coords, u, v):
        degrees.append(max((t + s for t, s in coords), default=0))
        return _binomial_poly(coords, u, v)

    monkeypatch.setattr(orderpoly, "_binomial_poly", recorded)
    return degrees


@pytest.mark.parametrize("celeste", [(), tuple(range(0, 200, 3))], ids=["silver", "third"])
def test_two_hundred_element_antichains_run_no_dynamic_program(monkeypatch, celeste):
    # 200 isolated elements: the finished polynomial is one product of
    # linear factors, with no ideal, no coordinate and no basis change of
    # degree 200
    degrees = _record_basis_changes(monkeypatch)
    P = antichain_poset(200, celeste)
    a = len(celeste)
    for mode in MODES:
        assert _order_coords(P, mode) == ({(0, 0): 1}, 200 - a, a)
    polys = [ORDER_POLY[mode](P) for mode in MODES]
    report = check_reciprocity_poset(P)
    assert set(degrees) == {0}
    assert polys == [X ** (200 - a) * (X - Y + w) ** a for w in (0, 1)]
    assert report.passed


def test_sixteen_element_antichains_take_no_ideal_chains(monkeypatch):
    # every element is isolated, so no dynamic program runs: the product
    # of 16 linear factors, which the program over all 2^16 ideals took
    # seconds and hundreds of MiB to reach in weak mode
    degrees = _record_basis_changes(monkeypatch)
    posets = [antichain_poset(16), antichain_poset(16, (0, 5, 11, 15))]
    for P in posets:
        a = len(P.celeste)
        for mode in MODES:
            assert _order_coords(P, mode) == ({(0, 0): 1}, 16 - a, a)
    polys = [ORDER_POLY[mode](P) for P in posets for mode in MODES]
    assert set(degrees) == {0}
    assert polys == [X**16, X**16, X**12 * (X - Y) ** 4, X**12 * (X - Y + 1) ** 4]


def test_order_polys_without_a_labeling_build_none(monkeypatch):
    # the dynamic program ranks the related elements by down-set size, so
    # without a labeling none is built, checked or reversed
    def forbidden(*args):
        raise AssertionError("a labeling was built")

    monkeypatch.setattr(poset, "_natural_labels", forbidden)
    monkeypatch.setattr(orderpoly, "_checked_labeling", forbidden)
    posets = [*fixture_posets().values(), fence_poset(5, (2,)), antichain_poset(3, (1,))]
    posets.append(build_poset(6, [(5, 0), (4, 0), (3, 5)], (0, 1)))
    for P in posets:
        for mode in MODES:
            assert ORDER_POLY[mode](P) == _coords_poly(whole_order_coords(P, mode), mode)
        assert check_reciprocity_poset(P).passed


def test_order_polys_do_not_list_extensions():
    # 9! = 362880 extensions and 12! = 479001600; the ideal chains never
    # enumerate them
    P = antichain_poset(9, celeste=(0, 4, 8))
    big = antichain_poset(12, celeste=(0, 5, 11))
    G = cycle_graph(7)
    before = linear_extensions.cache_info()
    assert order_poly_strict(big) == X**9 * (X - Y) ** 3
    assert order_poly_weak(big) == X**9 * (X - Y + 1) ** 3
    assert order_poly_strict(P) == X**6 * (X - Y) ** 3
    assert order_poly_weak(P) == X**6 * (X - Y + 1) ** 3
    assert chrom_poly.__wrapped__(G).subs_y_for_x() == classical_chrom_poly(G)
    assert linear_extensions.cache_info() == before


def _assert_coords_are_counts(P):
    # c[t, s] counts surjections onto a (t + s)-chain with every celeste
    # element in the top s values, so it is a nonnegative integer
    for mode in MODES:
        coords, _, _ = _order_coords(P, mode)
        assert all(type(c) is int and c >= 0 for c in coords.values()), (P, mode)


@pytest.mark.parametrize("n", range(5))
def test_order_poly_coords_nonnegative_on_catalog(n):
    for P in catalog_posets(n):
        _assert_coords_are_counts(P)


@given(bicolored_posets(5, 8))
@settings(max_examples=40, deadline=None)
def test_order_poly_coords_nonnegative_random(P):
    _assert_coords_are_counts(P)


def test_orderpoly_caches_are_bounded():
    caches = [
        fn for module in (orderpoly, brute) for fn in vars(module).values()
        if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__
    ]
    # orderpoly's _chain_coords, brute's _inner_maps and _cum_table; a
    # speed-up is no new memo
    assert 0 < len(caches) <= 3
    assert all(fn.cache_parameters()["maxsize"] is not None for fn in caches)
    # the poset caches hold every extension of a poset; they are bounded too
    poset_caches = [
        fn for fn in vars(poset).values()
        if hasattr(fn, "cache_parameters") and fn.__module__ == poset.__name__
    ]
    assert {"covers", "linear_extensions"} <= {fn.__name__ for fn in poset_caches}
    assert all(fn.cache_parameters()["maxsize"] is not None for fn in poset_caches)


# polynomials from coordinates --------------------------------------------------


def grid_poset(cols: int, celeste: bool = True) -> BicoloredPoset:
    """The product of a 2-chain and a cols-chain: element 2c + r sits in
    column c and row r.  With celeste, every 4th element is celeste."""
    n = 2 * cols
    relations = [(i, i + 2) for i in range(n - 2)] + [(2 * c, 2 * c + 1) for c in range(cols)]
    return build_poset(n, relations, range(3, n, 4) if celeste else ())


ORDER_POLY = {"strict": order_poly_strict, "weak": order_poly_weak}


def test_library_routes_multiply_no_polynomial(monkeypatch):
    P = build_poset(10, [(0, 3), (1, 3), (3, 6), (2, 7), (4, 8), (8, 9)], (5, 9))
    G = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 5)])

    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial product was built")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(BiPoly, name, refuse)
    monkeypatch.setattr(ratpoly, "binom_poly", refuse)
    order = {mode: ORDER_POLY[mode](P) for mode in MODES}
    brute = {mode: interpolate_brute(grid_poset(3), mode) for mode in MODES}
    chrom = chrom_poly.__wrapped__(G)
    monkeypatch.undo()
    for mode in MODES:
        assert brute[mode] == ORDER_POLY[mode](grid_poset(3))
        for x0 in range(3):
            for y0 in _valid_ys(mode, x0):
                assert order[mode].evaluate(x0, y0) == dumb_count_maps(P, mode, x0, y0)
    for x0 in range(4):
        for y0 in range(x0 + 1):
            assert chrom.evaluate(x0, y0) == chrom_count(G, x0, y0)


@pytest.mark.parametrize("mode", MODES)
def test_sixty_element_grid_poset(mode):
    P = grid_poset(30)
    poly = ORDER_POLY[mode](P)
    w = mode == "weak"
    coords, silver, celeste = _order_coords(P, mode)
    assert (silver, celeste) == (0, 0)
    for x0, y0 in [(1, 1), (30, 7), (31, 31), (45, 12), (90, 44)]:
        want = sum(
            c * math.comb(y0 - w, t) * math.comb(x0 - y0 + w, s) for (t, s), c in coords.items()
        )
        assert poly.evaluate(x0, y0) == want
    # a celeste element has no value above y = x (strict) or at least x + 1 (weak)
    assert poly.shift_y(int(w)).subs_y_for_x().is_zero
    # at y = 0 (strict) or 1 (weak) no celeste element is constrained
    plain = ORDER_POLY[mode](grid_poset(30, celeste=False))
    assert poly.subs_y(int(w)) == plain
    assert plain.deg_y == 0
    if mode == "strict":
        # the longest chain has 31 elements, and into 1..31 one map keeps it
        assert [plain.evaluate(x0, 0) for x0 in (30, 31)] == [0, 1]
    else:
        # weak maps into 1..2 are the order ideals, C(32, 2) lattice paths
        assert [plain.evaluate(x0, 0) for x0 in (1, 2)] == [1, math.comb(32, 2)]


# brute counts -----------------------------------------------------------------


def test_brute_frozen_values():
    sd = skew_diamond_poset()
    assert brute_count(sd, "strict", 4, 1) == 2
    assert brute_count(sd, "weak", 4, 2) == 88
    assert brute_count(sd, "strict", 5, 2) == 13
    assert brute_count(sd, "weak", 5, 3) == 185
    assert brute_count(two_chain_celeste_top(), "strict", 3, 1) == 3
    assert brute_count(two_chain_celeste_top(), "weak", 3, 2) == 5


def test_brute_threshold_edges():
    P = chain_poset(1, (0,))
    # strict threshold can exhaust the range; weak allows y = x
    assert brute_count(P, "strict", 3, 3) == 0
    assert brute_count(P, "weak", 3, 3) == 1
    assert brute_count(P, "weak", 3, 4) == 0
    # without celeste the threshold is vacuous at any y
    Q = chain_poset(1)
    assert brute_count(Q, "strict", 3, 9) == 3
    assert brute_count(Q, "weak", 3, 9) == 3


def test_brute_zero_sizes():
    empty = build_poset(0)
    assert brute_count(empty, "strict", 0, 0) == 1
    assert brute_count(empty, "weak", 5, 3) == 1
    assert brute_count(chain_poset(2), "strict", 0, 0) == 0



@pytest.mark.parametrize("block", [1, 3, 10, 1 << 15])
def test_brute_tables_match_definition_at_every_block_size(monkeypatch, block):
    # small blocks put the leading positions in the outer loop, where
    # their values are plain ints shared by a whole block
    monkeypatch.setattr(brute, "_BLOCK_MAPS", block)
    # uncached, so every table is built at this block size; a single count
    # past one block, x0^n maps above the block, reduces each block instead
    monkeypatch.setattr(brute, "_cum_table", brute._cum_table.__wrapped__)
    posets = [skew_diamond_poset(), fence_poset(4, (0, 3)), antichain_poset(3), build_poset(0)]
    posets += [P for P in catalog_posets(3) if len(P.celeste) == 1]
    for P in posets:
        for mode in ("strict", "weak"):
            for x_max in range(4):
                count = brute._poset_counter(P, mode, x_max)
                for x0 in range(x_max + 1):
                    for y0 in range(x0 + 2):
                        expected = dumb_count_maps(P, mode, x0, y0)
                        assert count(x0, y0) == expected, (P, mode, x0, y0)
                        assert brute_count(P, mode, x0, y0) == expected, (P, mode, x0, y0)

def test_a_single_count_past_one_block_caches_no_table():
    # 8^7 maps span 64 blocks: the count builds no table
    assert brute._inner_count(7, 8) < 7
    before = brute._cum_table.cache_info()
    count = brute_count(chain_poset(7), "weak", 8, 3)
    assert (count, type(count)) == (math.comb(8 + 6, 7), int)
    assert brute._cum_table.cache_info() == before
    # 5^5 maps fit one block: the count reads its table, which a second
    # count at the same x0 reads again
    brute._cum_table.cache_clear()
    P = chain_poset(5, (4,))
    assert brute_count(P, "weak", 5, 3) == order_poly_weak(P).evaluate(5, 3)
    info = brute._cum_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
    assert brute_count(P, "strict", 5, 2) == order_poly_strict(P).evaluate(5, 2)
    assert brute._cum_table.cache_info().misses == 2
    assert brute_count(P, "weak", 5, 1) == order_poly_weak(P).evaluate(5, 1)
    assert brute._cum_table.cache_info().misses == 2


def test_single_counts_of_a_two_chain_hold_no_table():
    # six tables of about 3000^2 cells each held 399 MiB in the cache
    brute._cum_table.cache_clear()
    tracemalloc.start()
    try:
        for x0 in range(2900, 3001, 20):
            assert brute_count(chain_poset(2), "weak", x0, 1) == math.comb(x0 + 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert brute._cum_table.cache_info().currsize == 0


def test_a_count_past_one_block_of_values_keeps_no_inner_maps():
    # one element at x0 = 10^7 makes a block of 10^7 maps, about 76 MiB,
    # which the inner maps' cache held after the count returned
    brute._inner_maps.cache_clear()
    tracemalloc.start()
    try:
        assert brute_count(antichain_poset(1), "weak", 10**7, 1) == 10**7
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 8 * 2**20
    assert brute._inner_maps.cache_info().currsize == 0
    # a block within _BLOCK_MAPS maps is still cached for the next count;
    # K7 at x0 = 8 stays on the blocks, its first bucket holding 8^7 cells
    K7 = complete_graph(7)
    assert chrom_count(K7, 8, 3) == chrom_poly(K7).evaluate(8, 3)
    assert brute._inner_maps.cache_info().currsize == 1


def test_single_counts_past_one_block_are_gated_on_their_maps(monkeypatch):
    # a 2-chain or K2 at x0 = 3161 walks 9 991 921 maps, inside the budget,
    # though a table would hold 10 001 406 cells; one element at x0 = 5000
    # walks 5000 maps for 25 015 002 cells.  No table is built
    def no_table(*key):
        raise AssertionError("a single count past one block built a table")

    monkeypatch.setattr(brute, "_cum_table", no_table)
    assert brute_count(chain_poset(2), "weak", 3161, 1) == math.comb(3162, 2) == 4997541
    K2 = build_graph(2, [(0, 1)])
    assert chrom_count(K2, 3161, 5) == chrom_poly(K2).evaluate(3161, 5)
    assert brute_count(antichain_poset(1), "weak", 5000, 1) == 5000
    with pytest.raises(BudgetExceededError) as info:
        brute_count(chain_poset(2), "weak", 3163, 1)
    assert str(info.value) == "enumeration of 10004569 objects exceeds budget 10000000"


def test_brute_rejects_bad_arguments():
    P = chain_poset(2)
    with pytest.raises(ValueError):
        brute_count(P, "strict", -1, 0)
    with pytest.raises(ValueError):
        brute_count(P, "loose", 2, 0)


def test_brute_budget_error(monkeypatch):
    P = antichain_poset(4)
    with pytest.raises(BudgetExceededError):
        brute_count(P, "strict", 100, 0)
    Q = chain_poset(1, (0,))
    # past one block one element is gated on its x0 maps alone, not on the
    # (x0 + 1) * (x0 + 2) cells of a table it does not build
    with pytest.raises(BudgetExceededError):
        brute_count(Q, "strict", 10_000_001, 1)
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 9999)
    with pytest.raises(BudgetExceededError):
        brute_count(P, "weak", 10, 0)
    # the same call under a sufficient budget succeeds
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 10000)
    assert brute_count(P, "weak", 10, 0) == 10000
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 30)
    assert brute_count(Q, "weak", 4, 2) == 3
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 41)
    with pytest.raises(BudgetExceededError):
        brute_count(Q, "weak", 5, 2)


def _budget_message(n, x_max, limit, cells):
    """The budget message from the full power x_max**n."""
    maps = x_max**n
    if max(maps, cells) <= limit:
        return None
    shown = f"{x_max}^{n}" if maps >= max(cells, 10**19) else max(maps, cells)
    return f"enumeration of {shown} objects exceeds budget {limit}"


def test_budget_check_decides_from_bit_lengths_as_from_the_power(monkeypatch):
    # the bit-length shortcut must give every message of the full power, in
    # the brute form with a table's cells (at n <= 2 they outnumber the
    # maps) and in the cell-free form of the subset gates
    for n in [1, 2, *range(0, 90, 3)]:
        for x_max in (0, 1, 2, 3, 7, 8, 100, 255, 256, 3000, 2**32 + 5, 2**64):
            for limit in (0, 1, 10, 10**7, 2**63, 10**19, 2**64, 10**40):
                monkeypatch.setattr(poset, "DEFAULT_BUDGET", limit)
                cells = (x_max + 1) * (x_max + 2)
                for counted in (cells, 0):
                    try:
                        poset._check_budget(n, x_max, counted)
                        got = None
                    except BudgetExceededError as exc:
                        got = str(exc)
                    want = _budget_message(n, x_max, limit, counted)
                    assert got == want, (n, x_max, limit, counted)


@given(bicolored_posets(1, 7), st.integers(-1, 1))
@settings(max_examples=60, deadline=None)
def test_extension_gate_refuses_exactly_past_the_budget(P, shift):
    # the gate refuses iff the extensions outnumber the budget, so it
    # decides as counting the listing would; uncached, so every call
    # passes the gate
    count = len(linear_extensions(P))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poset, "DEFAULT_BUDGET", count + shift)
        if shift < 0:
            with pytest.raises(BudgetExceededError):
                linear_extensions.__wrapped__(P)
        else:
            assert len(linear_extensions.__wrapped__(P)) == count


def test_extension_gate_is_cheap_on_tall_posets(monkeypatch):
    # one ideal per level on a chain; on a fence, whose extensions grow
    # like (2/pi)^n n!, it refuses inside the first level past the budget.
    # fence(60) at the default budget runs apart under a 1 GiB
    # address-space cap, so a listing that got past the gate would end in
    # MemoryError, not swap; fence(10), 50 521 extensions, under 1000
    # pins the exact count
    assert linear_extensions.__wrapped__(chain_poset(60)) == (tuple(range(60)),)
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c",
         "from bivorder.fixtures import fence_poset\n"
         "from bivorder.poset import BudgetExceededError, linear_extensions\n"
         "try:\n"
         "    linear_extensions.__wrapped__(fence_poset(60))\n"
         "except BudgetExceededError as exc:\n"
         "    print(exc)\n"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=Path(poset.__file__).resolve().parents[1],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("enumeration of 100")
    assert int(proc.stdout.split()[2]) < 2 * poset.DEFAULT_BUDGET
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 1000)
    with pytest.raises(BudgetExceededError) as info:
        linear_extensions.__wrapped__(fence_poset(10))
    assert str(info.value) == "enumeration of 1008 objects exceeds budget 1000"


@pytest.mark.parametrize(
    "lister",
    [
        lambda P: word_decomposition(P, "strict"),
        lambda P: word_decomposition(P, "weak"),
        all_natural_labelings,
        all_reverse_natural_labelings,
    ],
    ids=["strict-words", "weak-words", "natural", "reverse-natural"],
)
def test_extension_listers_refuse_past_the_budget(monkeypatch, lister):
    # every lister of extensions passes the gate inside linear_extensions:
    # the 6-antichain's 720 extensions pass a budget of 100 in level 3,
    # whose 120 prefixes come 8 from each of the 15 two-element ideals,
    # at the 13th ideal; cleared, so no earlier listing answers
    linear_extensions.cache_clear()
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetExceededError) as info:
        lister(antichain_poset(6))
    assert str(info.value) == "enumeration of 104 objects exceeds budget 100"


def _binary_tree(n: int) -> BicoloredPoset:
    """The complete binary tree on n elements, its root 0 at the bottom."""
    return build_poset(n, [(i, c) for i in range(n) for c in (2 * i + 1, 2 * i + 2) if c < n], [])


def test_ideal_dp_refuses_inside_the_first_level_past_the_budget(monkeypatch):
    # the 15-element tree's widest level holds 500 (ideal, label) states of
    # 16 * 17 / 2 = 136 slots each, 68 000 state-slots, well inside the
    # default; under 10^4 it refuses once a level stores more than
    # 10^4 // 136 = 73 states, checked after each ideal
    P = _binary_tree(15)
    for mode in MODES:
        assert _order_coords(P, mode) == (whole_order_coords(P, mode), 0, 0)
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 10**4)
    for call in (order_poly_strict, order_poly_weak, check_reciprocity_poset):
        with pytest.raises(BudgetExceededError) as info:
            call(P)
        assert str(info.value) == "enumeration of 10336 objects exceeds budget 10000"


def test_brute_budget_message_prints_past_the_digit_limit(monkeypatch):
    # 2^15000 has more digits than Python turns into a string; no map is visited
    monkeypatch.setattr(brute, "_cum_table", None)
    with pytest.raises(BudgetExceededError, match="budget") as err:
        brute_count(BicoloredPoset(15000, frozenset(), frozenset()), "strict", 2, 0)
    assert "2^15000" in str(err.value)


@pytest.mark.parametrize("n", range(4))
def test_brute_kernel_matches_dumb_filter(n):
    for P in catalog_posets(n):
        for x0 in range(5):
            for y0 in range(x0 + 2):
                assert brute_count(P, "strict", x0, y0) == dumb_count_maps(
                    P, "strict", x0, y0
                )
                assert brute_count(P, "weak", x0, y0) == dumb_count_maps(
                    P, "weak", x0, y0
                )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("x0", [0, 1])
def test_brute_count_beyond_numpy_dimension_limit(mode, x0):
    # at x0 <= 1 no block ever fills, yet np.indices takes at most 64 axes
    P = antichain_poset(70, celeste=(0, 69))
    assert brute_count(P, mode, x0, _valid_ys(mode, x0)[0]) == x0


def test_brute_kernel_matches_dumb_filter_size_four_sample():
    posets = catalog_posets(4)
    for P in posets[::97]:
        for x0, y0 in [(3, 1), (4, 2), (5, 0), (4, 5)]:
            assert brute_count(P, "strict", x0, y0) == dumb_count_maps(P, "strict", x0, y0)
            assert brute_count(P, "weak", x0, y0) == dumb_count_maps(P, "weak", x0, y0)


# oracle equivalence: polynomial values are counts on the validity region


@pytest.mark.parametrize("n", range(4))
def test_polynomials_count_on_validity_region(n):
    for P in catalog_posets(n):
        strict_pts = [(x0, y0) for x0 in range(9) for y0 in range(x0 + 1)]
        weak_pts = [(x0, y0) for x0 in range(9) for y0 in range(1, x0 + 2)]
        strict_vals = eval_int_grid(order_poly_strict(P), strict_pts)
        weak_vals = eval_int_grid(order_poly_weak(P), weak_pts)
        for x0, y0 in strict_pts:
            assert strict_vals[x0, y0] == brute_count(P, "strict", x0, y0)
        for x0, y0 in weak_pts:
            assert weak_vals[x0, y0] == brute_count(P, "weak", x0, y0)


def test_polynomials_count_on_fixtures_up_to_six():
    fixtures = [
        skew_diamond_poset(),
        chain_poset(6, (3,)),
        antichain_poset(6, (0, 5)),
        fence_poset(6, (2,)),
        fence_poset(5),
        antichain_poset(5, (4,)),
    ]
    for P in fixtures:
        strict_pts = [(x0, y0) for x0 in range(9) for y0 in range(x0 + 1)]
        weak_pts = [(x0, y0) for x0 in range(9) for y0 in range(1, x0 + 2)]
        strict_vals = eval_int_grid(order_poly_strict(P), strict_pts)
        weak_vals = eval_int_grid(order_poly_weak(P), weak_pts)
        for x0, y0 in strict_pts:
            assert strict_vals[x0, y0] == brute_count(P, "strict", x0, y0)
        for x0, y0 in weak_pts:
            assert weak_vals[x0, y0] == brute_count(P, "weak", x0, y0)


# interpolation ----------------------------------------------------------------


def test_interpolate_matches_closed_form_small():
    for n in range(3):
        for P in catalog_posets(n):
            assert interpolate_brute(P, "strict") == order_poly_strict(P)
            assert interpolate_brute(P, "weak") == order_poly_weak(P)


def test_interpolate_fixture():
    sd = skew_diamond_poset()
    assert interpolate_brute(sd, "strict") == order_poly_strict(sd)
    assert interpolate_brute(sd, "weak") == order_poly_weak(sd)


def test_interpolate_poly_accepts_any_counter():
    # a counter that is already a polynomial comes back unchanged
    target = chain_poly(2, 1, "strict")
    rebuilt = interpolate_poly(lambda a, b: int(target.evaluate(a, b)), 2, "strict")
    assert rebuilt == target
    # integer-valued Fractions and numpy integers count as integers
    assert interpolate_poly(target.evaluate, 2, "strict") == target
    counter = lambda a, b: np.int64(target.evaluate(a, b))
    assert interpolate_poly(counter, 2, "strict") == target


def test_interpolate_poly_rejects_non_integer_values():
    # the simplex of n = 0 in strict mode is the one point (0, 0)
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        interpolate_poly(lambda a, b: Fraction(1, 2), 0, "strict")
    # the weak simplex of n = 1 is (0, 1), (1, 1), (1, 2)
    with pytest.raises(ValueError, match=r"2\.5 at \(1, 2\)"):
        interpolate_poly(lambda a, b: 2.5 if (a, b) == (1, 2) else 1, 1, "weak")
    # (2, 2) lies on the oracle's product grid only
    with pytest.raises(ValueError, match=r"2\.5 at \(2, 2\)"):
        product_interpolate_poly(lambda a, b: 2.5 if (a, b) == (2, 2) else 1, 1, "weak")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", range(5))
def test_interpolate_poly_reproduces_degree_n_in_each_variable(mode, n):
    # order polynomials stop at total degree n, so only these polynomials
    # reach the differences with i + j > n, up to the x^n y^n term
    rng = random.Random(n)
    coeffs = {(i, j): rng.randint(-9, 9) for i in range(n + 1) for j in range(n + 1)}
    coeffs[n, n] = rng.choice((-1, 1)) * rng.randint(1, 9)
    target = BiPoly(coeffs)
    assert product_interpolate_poly(target.evaluate, n, mode) == target


@given(
    st.sampled_from(MODES),
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-9, 9), min_size=(n + 1) * (n + 2) // 2,
                     max_size=(n + 1) * (n + 2) // 2),
            st.integers(0, n),
            st.integers(-9, 9).filter(bool),
        )
    ),
)
@settings(max_examples=60, deadline=None)
def test_interpolate_poly_reproduces_total_degree_n(mode, case):
    # every coefficient x^i y^j with i + j <= n, and a nonzero top term x^k y^(n - k)
    n, values, k, top = case
    exps = [(i, d - i) for d in range(n + 1) for i in range(d + 1)]
    coeffs = dict(zip(exps, values))
    coeffs[k, n - k] = top
    target = BiPoly(coeffs)
    assert target.total_degree == n
    assert interpolate_poly(target.evaluate, n, mode) == target


@pytest.mark.parametrize("mode", MODES)
def test_interpolate_brute_enumerates_once(mode):
    P = fence_poset(4, (1,))
    brute._cum_table.cache_clear()
    interpolate_brute(P, mode)
    assert brute._cum_table.cache_info().misses == 1


def test_interpolate_budget_error(monkeypatch):
    # the simplex's largest x is n, so n elements walk n^n maps
    P = antichain_poset(7, (0,))
    assert interpolate_brute(P, "weak") == order_poly_weak(P)  # 7^7 = 823 543 maps
    with pytest.raises(BudgetExceededError):
        interpolate_brute(antichain_poset(8, (0,)), "weak")  # 8^8
    P = antichain_poset(5, (0,))
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 5**5 - 1)
    with pytest.raises(BudgetExceededError):
        interpolate_brute(P, "weak")
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 5**5)
    assert interpolate_brute(P, "weak") == order_poly_weak(P)


@pytest.mark.parametrize("mode", MODES)
def test_interpolate_brute_six_elements_under_default_budget(mode):
    order_poly = order_poly_strict if mode == "strict" else order_poly_weak
    for P in [antichain_poset(6, (0, 5)), fence_poset(6, (2,)), chain_poset(6, (3,))]:
        assert interpolate_brute(P, mode) == order_poly(P)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", range(8))
def test_interpolate_poly_asks_only_for_valid_points(mode, n):
    asked = []
    product_interpolate_poly(lambda a, b: asked.append((a, b)) or 0, n, mode)
    assert len(asked) == (n + 1) ** 2
    assert all(b in _valid_ys(mode, a) for a, b in asked)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", range(8))
def test_interpolate_poly_asks_only_for_simplex_points(mode, n):
    asked = []
    interpolate_poly(lambda a, b: asked.append((a, b)) or 0, n, mode)
    assert len(asked) == len(set(asked)) == (n + 1) * (n + 2) // 2
    assert all(b in _valid_ys(mode, a) and a <= n for a, b in asked)


@pytest.mark.parametrize("mode", MODES)
def test_interpolate_poly_equals_product_grid_on_catalog(mode):
    for n in range(5):
        for P in catalog_posets(n):
            counter = brute._poset_counter(P, mode, 2 * n)
            assert interpolate_poly(counter, n, mode) == product_interpolate_poly(counter, n, mode)


def test_interpolate_poly_equals_product_grid_on_graphs():
    for n in range(5):
        for G in all_graphs(n):
            counter = brute._coloring_counter(G, 2 * n)
            simplex = interpolate_poly(counter, n, "strict")
            assert simplex == product_interpolate_poly(counter, n, "strict")


@pytest.mark.parametrize("mode", MODES)
def test_interpolate_brute_reads_one_table_at_x_n(mode, monkeypatch):
    P = fence_poset(5, (1,))
    cached = brute._cum_table
    cached.cache_clear()
    keys = set()

    def recording(*key):
        keys.add(key)
        return cached(*key)

    monkeypatch.setattr(brute, "_cum_table", recording)
    interpolate_brute(P, mode)
    assert cached.cache_info().currsize == 1
    assert [key[:2] for key in keys] == [(P.n, P.n)]


def test_interpolate_validates_arguments():
    with pytest.raises(ValueError):
        interpolate_poly(lambda a, b: 0, -1, "strict")
    with pytest.raises(ValueError):
        interpolate_poly(lambda a, b: 0, 2, "loose")


# specializations ---------------------------------------------------------------


@pytest.mark.parametrize("n", range(4))
def test_specializations_recover_classical_order_counts(n):
    for P in catalog_posets(n):
        stripped = BicoloredPoset(P.n, P.less, frozenset())
        strict = order_poly_strict(P)
        weak = order_poly_weak(P)
        for x0 in range(7):
            assert strict.evaluate(x0, 0) == brute_count(stripped, "strict", x0, 0)
            assert weak.evaluate(x0, 1) == brute_count(stripped, "weak", x0, 1)


# reciprocity -------------------------------------------------------------------


def test_reciprocity_example_chain():
    P = two_chain_celeste_top()
    lhs = order_poly_strict(P).negate_args()  # n = 2, sign is +1
    rhs = order_poly_weak(P).shift_y(1)
    expected = half * (X**2 + X - Y**2 - Y)
    assert lhs == rhs == expected
    assert check_reciprocity_poset(P).passed


def test_reciprocity_report_shape():
    report = check_reciprocity_poset(skew_diamond_poset())
    assert report == CheckReport("poset-reciprocity", True)
    assert report.to_json() == {
        "name": "poset-reciprocity",
        "passed": True,
        "witness": None,
    }


def test_failed_report_requires_witness():
    with pytest.raises(ValueError):
        CheckReport("anything", False)


@pytest.mark.parametrize("n", range(4))
def test_reciprocity_small_catalog(n):
    for P in catalog_posets(n):
        assert check_reciprocity_poset(P).passed


@given(bicolored_posets(5, 8))
@settings(max_examples=30, deadline=None)
def test_reciprocity_verdict_equals_bipoly_oracle(P):
    assert check_reciprocity_poset(P) == bipoly_poset_reciprocity(P)


@pytest.mark.parametrize(
    "P", [two_chain_celeste_top(), skew_diamond_poset(), fence_poset(5, (1,)), build_poset(0)]
)
def test_reciprocity_failure_carries_the_oracle_witness(monkeypatch, P):
    # one weak coordinate off by one: the report fails with the same
    # witness as the polynomial comparison of the same (faulty) polynomials
    order_coords = orderpoly._order_coords

    def skewed(P, mode):
        coords, silver, celeste = order_coords(P, mode)
        coords = dict(coords)
        if mode == "weak":
            coords[min(coords)] += 1
        return coords, silver, celeste

    for module in (orderpoly, verify):
        monkeypatch.setattr(module, "_order_coords", skewed)
    report = check_reciprocity_poset(P)
    assert not report.passed
    assert set(report.witness) == {"poset", "lhs", "rhs"}
    assert report.witness["lhs"] != report.witness["rhs"]
    assert report == bipoly_poset_reciprocity(P)


def test_reciprocity_success_builds_no_polynomial(monkeypatch):
    posets = [skew_diamond_poset(), fence_poset(6, (0, 3)), antichain_poset(5, (2,))]

    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was built")

    for name in ("__init__", "_trusted", "negate_args", "shift_y"):
        monkeypatch.setattr(BiPoly, name, refuse)
    assert all(check_reciprocity_poset(P).passed for P in posets)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda ts: sum(ts) <= 8),
        st.integers(-50, 50),
    )
)
@settings(max_examples=60, deadline=None)
def test_negated_coords_equal_negated_arguments(coords):
    def poly(c):
        return _binomial_poly(c, Y, X - Y)

    assert poly(_negated_coords(coords)) == poly(coords).negate_args()
    assert all(_negated_coords(coords).values())


def test_negated_coords_equal_falling_factorial_formula():
    # binom(t - 1, t - j) as a falling factorial over (t - j)!, which also
    # reads binom(-1, 0) = 1 at t = j = 0
    def gen_comb(a, m):
        return math.prod(range(a, a - m, -1)) // math.factorial(m)

    for t in range(9):
        for s in range(9 - t):
            want = Counter()
            for j in range(t + 1):
                for k in range(s + 1):
                    want[j, k] += (-1) ** (t + s) * gen_comb(t - 1, t - j) * gen_comb(s - 1, s - k)
            assert _negated_coords({(t, s): 1}) == {jk: c for jk, c in want.items() if c}, (t, s)


def test_word_reciprocity_single_letter():
    report = check_reciprocity_word(Word((1,), 1))
    assert report.passed
    assert report.witness["lhs"] == "x - y"
    assert report.witness["rhs"] == "x - y"


def test_word_reciprocity_two_letters():
    report = check_reciprocity_word(Word((2, 1), 2))
    assert report.passed
    assert report.witness["lhs"] == "1/2*x^2 + 1/2*x - 1/2*y^2 - 1/2*y"
    assert report.witness["rhs"] == report.witness["lhs"]


@pytest.mark.parametrize("n", range(5))
def test_word_reciprocity_all_words(n):
    for letters in itertools.permutations(range(1, n + 1)):
        for cp in [None, *range(1, n + 1)]:
            assert check_reciprocity_word(Word(letters, cp)).passed
