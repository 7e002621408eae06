import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bivorder.chrompoly import chrom_poly, classical_chrom_poly
from bivorder.fixtures import (
    antichain_poset,
    chain_poset,
    cycle_graph,
    fence_poset,
    skew_diamond_poset,
    two_chain_celeste_top,
)
from bivorder import orderpoly
from bivorder.orderpoly import (
    MODES,
    BudgetExceededError,
    CheckReport,
    _checked_labeling,
    _valid_ys,
    _word_key,
    _word_key_counts,
    brute_count,
    brute_count_strict,
    brute_count_weak,
    chain_strict,
    chain_weak,
    check_reciprocity_poset,
    check_reciprocity_word,
    interpolate_brute,
    interpolate_poly,
    order_poly_strict,
    order_poly_weak,
    strict_word_decomposition,
    weak_word_decomposition,
    word_poly_strict,
    word_poly_weak,
)
from bivorder.poset import (
    BicoloredPoset,
    Word,
    _natural_labels,
    _pred_masks,
    all_natural_labelings,
    all_reverse_natural_labelings,
    ascents,
    build_poset,
    descents,
    linear_extensions,
    natural_labeling,
    word_of,
)
from bivorder.ratpoly import ONE, X, Y, BiPoly, binom_poly
from oracles import (
    catalog_posets,
    dumb_count_chain,
    dumb_count_maps,
    dumb_count_word,
    dumb_word_profile,
    eval_int_grid,
    relabeled_poset,
    up_to_isomorphism,
)

half = Fraction(1, 2)


# chain closed forms ----------------------------------------------------------


def test_chain_strict_two_one():
    p = chain_strict(2, 1)
    assert p == half * X**2 - half * X - half * Y**2 + half * Y
    assert p.evaluate(3, 1) == 3


def test_chain_weak_two_one():
    p = chain_weak(2, 1)
    assert p == half * (X + Y) * (X - Y + 1)
    assert p.evaluate(3, 2) == 5


def test_chain_singletons():
    assert chain_strict(1, 0) == X - Y
    assert chain_weak(1, 0) == X - Y + 1
    assert chain_strict(0, 0) == ONE
    assert chain_weak(0, 0) == ONE


@pytest.mark.parametrize("n", range(7))
def test_chain_no_celeste_collapses(n):
    # k = n leaves no celeste element; y drops out entirely
    assert chain_strict(n, n) == binom_poly(X, n)
    assert chain_weak(n, n) == binom_poly(X + (n - 1), n)


def test_chain_validates_k():
    with pytest.raises(ValueError):
        chain_strict(2, 3)
    with pytest.raises(ValueError):
        chain_weak(2, -1)


@pytest.mark.parametrize("n", range(5))
def test_chain_formulas_match_dumb_counts(n):
    for k in range(n + 1):
        ps = chain_strict(n, k)
        pw = chain_weak(n, k)
        for x0 in range(6):
            for y0 in range(x0 + 1):
                assert ps.evaluate(x0, y0) == dumb_count_chain(n, k, "strict", x0, y0)
            for y0 in range(1, x0 + 2):
                assert pw.evaluate(x0, y0) == dumb_count_chain(n, k, "weak", x0, y0)


def test_chain_weak_negative_binomial_term_cancels():
    # at y = 1 the i = 1 summand has binom(y-2, 1) = -1; the total still counts
    assert chain_weak(2, 1).evaluate(3, 1) == dumb_count_chain(2, 1, "weak", 3, 1) == 6


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


# order polynomials and decomposition -----------------------------------------


def test_order_poly_two_element_examples():
    assert order_poly_strict(antichain_poset(2, (1,))) == X**2 - X * Y
    assert order_poly_strict(two_chain_celeste_top()) == chain_strict(2, 1)
    assert order_poly_weak(two_chain_celeste_top()) == chain_weak(2, 1)


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
        assert len(strict_word_decomposition(P)) == len(exts)
        assert len(weak_word_decomposition(P)) == len(exts)


def test_decomposition_rejects_wrong_labeling_kind():
    P = two_chain_celeste_top()
    with pytest.raises(ValueError, match="reverse natural"):
        strict_word_decomposition(P, (1, 2))
    with pytest.raises(ValueError, match="natural"):
        weak_word_decomposition(P, (2, 1))
    with pytest.raises(ValueError):
        order_poly_strict(P, (1, 2))
    with pytest.raises(ValueError):
        order_poly_weak(P, (2, 1))


@pytest.mark.parametrize("n", range(4))
def test_labeling_independence_small_catalog(n):
    for P in catalog_posets(n):
        ps = order_poly_strict(P)
        pw = order_poly_weak(P)
        for lab in all_reverse_natural_labelings(P):
            assert order_poly_strict(P, lab) == ps
        for lab in all_natural_labelings(P):
            assert order_poly_weak(P, lab) == pw


def _per_extension_sum(decomposition) -> BiPoly:
    """The old route: add the word polynomials one extension at a time."""
    return sum((poly for _, poly in decomposition), BiPoly.zero())


def _assert_equal_per_extension_sums(P, strict_labelings, weak_labelings):
    assert order_poly_strict(P) == _per_extension_sum(strict_word_decomposition(P))
    assert order_poly_weak(P) == _per_extension_sum(weak_word_decomposition(P))
    for lab in strict_labelings:
        want = _per_extension_sum(strict_word_decomposition(P, lab))
        assert order_poly_strict(P, lab) == want
    for lab in weak_labelings:
        assert order_poly_weak(P, lab) == _per_extension_sum(weak_word_decomposition(P, lab))


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
    # the per-extension route adds one polynomial per extension; near-antichains
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
    assert _natural_labels(_pred_masks(P)) == first
    assert natural_labeling(P) == first
    for mode, stat, labelings in (
        ("strict", ascents, [None, *strict_labelings]),
        ("weak", descents, [None, *weak_labelings]),
    ):
        for lab in labelings:
            used = _checked_labeling(P, lab, mode)
            want = Counter(_word_key(word_of(e, used, P), stat) for e in exts)
            assert _word_key_counts(P, mode, lab) == want


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


def test_order_polys_do_not_list_extensions():
    # 9! = 362880 extensions; the key counts never enumerate them
    P = antichain_poset(9, celeste=(0, 4, 8))
    G = cycle_graph(7)
    before = linear_extensions.cache_info()
    assert order_poly_strict(P) == X**6 * (X - Y) ** 3
    assert order_poly_weak(P) == X**6 * (X - Y + 1) ** 3
    assert order_poly_strict(P, tuple(range(9, 0, -1))) == X**6 * (X - Y) ** 3
    assert order_poly_weak(P, tuple(range(1, 10))) == X**6 * (X - Y + 1) ** 3
    assert chrom_poly.__wrapped__(G).subs_y_for_x() == classical_chrom_poly(G)
    assert linear_extensions.cache_info() == before


# brute counts -----------------------------------------------------------------


def test_brute_frozen_values():
    sd = skew_diamond_poset()
    assert brute_count_strict(sd, 4, 1) == 2
    assert brute_count_weak(sd, 4, 2) == 88
    assert brute_count_strict(sd, 5, 2) == 13
    assert brute_count_weak(sd, 5, 3) == 185
    assert brute_count_strict(two_chain_celeste_top(), 3, 1) == 3
    assert brute_count_weak(two_chain_celeste_top(), 3, 2) == 5


def test_brute_threshold_edges():
    P = chain_poset(1, (0,))
    # strict threshold can exhaust the range; weak allows y = x
    assert brute_count_strict(P, 3, 3) == 0
    assert brute_count_weak(P, 3, 3) == 1
    assert brute_count_weak(P, 3, 4) == 0
    # without celeste the threshold is vacuous at any y
    Q = chain_poset(1)
    assert brute_count_strict(Q, 3, 9) == 3
    assert brute_count_weak(Q, 3, 9) == 3


def test_brute_zero_sizes():
    empty = build_poset(0)
    assert brute_count_strict(empty, 0, 0) == 1
    assert brute_count_weak(empty, 5, 3) == 1
    assert brute_count_strict(chain_poset(2), 0, 0) == 0



@pytest.mark.parametrize("block", [1, 3, 10, 1 << 15])
def test_brute_tables_match_definition_at_every_block_size(monkeypatch, block):
    # small blocks put the leading positions in the outer loop, where
    # their values are plain ints shared by a whole block
    monkeypatch.setattr(orderpoly, "_BLOCK_MAPS", block)
    table = orderpoly._map_cum_table.__wrapped__
    posets = [skew_diamond_poset(), fence_poset(4, (0, 3)), antichain_poset(3), build_poset(0)]
    posets += [P for P in catalog_posets(3) if len(P.celeste) == 1]
    for P in posets:
        for mode in ("strict", "weak"):
            for x_max in range(4):
                T = table(P, mode, x_max)
                for x0 in range(x_max + 1):
                    for y0 in range(x0 + 2):
                        col = 0 if not P.celeste else min(y0 + (mode == "strict"), x_max + 1)
                        assert int(T[x0, col]) == dumb_count_maps(P, mode, x0, y0), (P, mode, x0, y0)

def test_brute_rejects_bad_arguments():
    P = chain_poset(2)
    with pytest.raises(ValueError):
        brute_count_strict(P, -1, 0)
    with pytest.raises(ValueError):
        brute_count(P, "loose", 2, 0)


def test_brute_budget_error():
    P = antichain_poset(4)
    with pytest.raises(BudgetExceededError):
        brute_count_strict(P, 100, 0)
    with pytest.raises(BudgetExceededError):
        brute_count_weak(P, 10, 0, budget=9999)
    # the same call under a sufficient budget succeeds
    assert brute_count_weak(P, 10, 0, budget=10000) == 10000
    # one element walks x0 maps but fills (x0 + 1) * (x0 + 2) table cells
    Q = chain_poset(1, (0,))
    with pytest.raises(BudgetExceededError):
        brute_count(Q, "strict", 10_000_000, 1)
    assert brute_count_weak(Q, 4, 2, budget=30) == 3
    with pytest.raises(BudgetExceededError):
        brute_count_weak(Q, 5, 2, budget=41)


@pytest.mark.parametrize("n", range(4))
def test_brute_kernel_matches_dumb_filter(n):
    for P in catalog_posets(n):
        for x0 in range(5):
            for y0 in range(x0 + 2):
                assert brute_count_strict(P, x0, y0) == dumb_count_maps(
                    P, "strict", x0, y0
                )
                assert brute_count_weak(P, x0, y0) == dumb_count_maps(
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
            assert brute_count_strict(P, x0, y0) == dumb_count_maps(P, "strict", x0, y0)
            assert brute_count_weak(P, x0, y0) == dumb_count_maps(P, "weak", x0, y0)


# oracle equivalence: polynomial values are counts on the validity region


@pytest.mark.parametrize("n", range(4))
def test_polynomials_count_on_validity_region(n):
    for P in catalog_posets(n):
        strict_pts = [(x0, y0) for x0 in range(9) for y0 in range(x0 + 1)]
        weak_pts = [(x0, y0) for x0 in range(9) for y0 in range(1, x0 + 2)]
        strict_vals = eval_int_grid(order_poly_strict(P), strict_pts)
        weak_vals = eval_int_grid(order_poly_weak(P), weak_pts)
        for x0, y0 in strict_pts:
            assert strict_vals[x0, y0] == brute_count_strict(P, x0, y0)
        for x0, y0 in weak_pts:
            assert weak_vals[x0, y0] == brute_count_weak(P, x0, y0)


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
            assert strict_vals[x0, y0] == brute_count_strict(P, x0, y0)
        for x0, y0 in weak_pts:
            assert weak_vals[x0, y0] == brute_count_weak(P, x0, y0)


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
    target = chain_strict(2, 1)
    rebuilt = interpolate_poly(lambda a, b: int(target.evaluate(a, b)), 2, "strict")
    assert rebuilt == target


def test_interpolate_budget_error():
    with pytest.raises(BudgetExceededError):
        interpolate_brute(antichain_poset(6, (0,)), "weak")
    # explicit larger budget makes the same call legal
    assert interpolate_brute(
        antichain_poset(5, (0,)), "weak", budget=18**5
    ) == order_poly_weak(antichain_poset(5, (0,)))


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
            assert strict.evaluate(x0, 0) == brute_count_strict(stripped, x0, 0)
            assert weak.evaluate(x0, 1) == brute_count_weak(stripped, x0, 1)


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
