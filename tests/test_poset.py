import ast
import inspect
import itertools
import pathlib
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bivorder
from bivorder import brute, chrompoly, cli, orderpoly, ratpoly, verify
from bivorder.fixtures import (
    antichain_poset,
    chain_poset,
    fence_poset,
    skew_diamond_poset,
    two_chain_celeste_top,
)
from bivorder.poset import (
    BicoloredPoset,
    Word,
    _natural_labels,
    all_natural_labelings,
    all_reverse_natural_labelings,
    ascents,
    build_poset,
    covers,
    descents,
    is_natural_labeling,
    is_reverse_natural_labeling,
    linear_extensions,
    natural_labeling,
    poset_from_json,
    poset_to_json,
    reverse_natural_labeling,
    reverse_word,
    word_of,
)
from oracles import (
    all_strict_orders,
    dumb_count_extensions,
    dumb_linear_extensions,
    pair_covers,
    pairwise_validate,
    pred_masks,
    scan_natural_labels,
    set_closure_less,
)


def test_build_closure():
    P = build_poset(3, [(0, 1), (1, 2)])
    assert (0, 2) in P.less
    assert len(P.less) == 3
    assert covers(P) == ((0, 1), (1, 2))


def test_build_rejects_cycle():
    with pytest.raises(ValueError, match="cycle"):
        build_poset(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="cycle"):
        build_poset(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="cycle"):
        build_poset(1, [(0, 0)])


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="range"):
        build_poset(2, [(0, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        build_poset(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="range"):
        build_poset(2, [], celeste=[5])


def test_build_rejects_a_duplicate_celeste_element():
    # as it does a duplicate relation; any iterable of distinct elements passes
    with pytest.raises(ValueError, match="duplicate celeste element 1"):
        build_poset(3, [(0, 1)], celeste=[1, 2, 1])
    with pytest.raises(ValueError, match="duplicate celeste element 0"):
        poset_from_json({"n": 3, "covers": [[0, 1]], "celeste": [0, 0]})
    assert build_poset(3, [(0, 1)], celeste=iter([2, 0])).celeste == {0, 2}


def test_direct_construction_validates():
    with pytest.raises(ValueError, match="transitively closed"):
        BicoloredPoset(3, frozenset({(0, 1), (1, 2)}), frozenset())
    with pytest.raises(ValueError, match="cycle"):
        BicoloredPoset(2, frozenset({(0, 1), (1, 0)}), frozenset())


@st.composite
def relation_lists(draw):
    """A relation list on at most 7 elements: pairs drawn from a random
    order, their closure, or their closure but one pair, plus optional
    2-cycles, self-loops and repeated pairs."""
    n = draw(st.integers(0, 7))
    if n == 0:
        return 0, []
    order = draw(st.permutations(range(n)))
    forward = list(itertools.combinations(order, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(forward), max_size=len(forward)))
    rel = [p for p, k in zip(forward, keep) if k]
    form = draw(st.sampled_from(["drawn", "closed", "closed but one"]))
    if form != "drawn":
        rel = sorted(set_closure_less(n, rel))
    if form == "closed but one" and rel:
        rel.remove(draw(st.sampled_from(rel)))  # unclosed unless a cover is dropped
    for fault in draw(st.lists(st.sampled_from(["2-cycle", "self-loop", "repeat"]), max_size=2)):
        if fault == "self-loop":
            a = draw(st.integers(0, n - 1))
            rel.append((a, a))
        elif rel:
            a, b = draw(st.sampled_from(rel))
            rel.append((b, a) if fault == "2-cycle" else (a, b))
    return n, draw(st.permutations(rel))


def _outcome(build, *args):
    try:
        return "ok", build(*args)
    except ValueError as err:
        return "error", str(err)


@given(relation_lists())
@settings(max_examples=400, deadline=None)
def test_direct_construction_agrees_with_pairwise_reference(case):
    n, rel = case
    less = frozenset(rel)
    expected, message = _outcome(pairwise_validate, n, less, frozenset())
    got = _outcome(BicoloredPoset, n, less, frozenset())
    assert got[0] == expected
    if expected == "error":
        # the named pair may differ; the kind of fault may not
        assert re.split("[(:]", got[1])[0] == re.split("[(:]", message)[0]


@given(relation_lists())
@settings(max_examples=400, deadline=None)
def test_build_poset_agrees_with_set_closure_reference(case):
    n, rel = case
    expected = _outcome(set_closure_less, n, rel)
    got = _outcome(build_poset, n, rel)
    if expected[0] == "ok":
        assert got[0] == "ok" and got[1].less == expected[1]
        assert covers(got[1]) == pair_covers(got[1])
        assert linear_extensions(got[1]) == dumb_linear_extensions(got[1])
    else:
        assert got == expected


def test_large_posets_load_cover_and_extend_quickly():
    # the pairwise transitivity check took about 25 s on the 200-chain alone;
    # the 2x50 grid has about 2 * 10^27 extensions, so only the chain is listed
    start = time.perf_counter()
    chain = build_poset(200, [(i, i + 1) for i in range(199)])
    grid_covers = sorted([(i, i + 2) for i in range(98)] + [(2 * c, 2 * c + 1) for c in range(50)])
    grid = build_poset(100, grid_covers)
    assert len(chain.less) == 200 * 199 // 2
    assert covers(chain) == tuple((i, i + 1) for i in range(199))
    assert linear_extensions(chain) == (tuple(range(200)),)
    assert covers(grid) == tuple(grid_covers)
    assert time.perf_counter() - start < 2


def test_two_chain_fixture():
    P = two_chain_celeste_top()
    assert P.n == 2
    assert P.less == frozenset({(0, 1)})
    assert P.celeste == frozenset({1})
    assert linear_extensions(P) == ((0, 1),)


def test_skew_diamond_extensions():
    P = skew_diamond_poset()
    assert linear_extensions(P) == (
        (0, 1, 2, 3, 4),
        (0, 1, 3, 2, 4),
        (0, 3, 1, 2, 4),
    )


def test_linear_extensions_simple():
    assert linear_extensions(antichain_poset(3)) == tuple(
        itertools.permutations(range(3))
    )
    assert linear_extensions(chain_poset(4)) == ((0, 1, 2, 3),)
    assert linear_extensions(build_poset(0)) == ((),)


@pytest.mark.parametrize("n", range(5))
def test_extension_counts_match_permutation_filter(n):
    for rel in all_strict_orders(n):
        P = BicoloredPoset(n, rel, frozenset())
        assert len(linear_extensions(P)) == dumb_count_extensions(P)


def test_extensions_refine_order():
    for P in (skew_diamond_poset(), fence_poset(5), chain_poset(4, (2,))):
        for ext in linear_extensions(P):
            pos = {e: i for i, e in enumerate(ext)}
            assert all(pos[a] < pos[b] for a, b in P.less)


def test_natural_labeling_values():
    P = two_chain_celeste_top()
    assert natural_labeling(P) == (1, 2)
    assert reverse_natural_labeling(P) == (2, 1)
    assert natural_labeling(skew_diamond_poset()) == (1, 2, 3, 4, 5)
    assert natural_labeling(antichain_poset(3)) == (1, 2, 3)


def test_natural_labels_equal_the_scan_on_random_posets():
    # closed masks, as the labelings read them, and generating ones
    rng = random.Random(7)
    for _ in range(3000):
        n = rng.randint(0, 10)
        perm = rng.sample(range(n), n)
        p = rng.random()
        relations = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        generating = [0] * n
        for a, b in relations:
            generating[b] |= 1 << a
        for preds in (build_poset(n, relations).preds, tuple(generating)):
            assert _natural_labels(preds) == scan_natural_labels(preds), preds


def test_poset_holds_the_masks_of_its_order():
    # built as the poset is validated, whether build_poset closes the
    # relations or the caller passes them closed
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(0, 9)
        perm = rng.sample(range(n), n)
        p = rng.random()
        relations = [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        P = build_poset(n, relations, rng.sample(range(n), rng.randint(0, n)))
        assert P.preds == tuple(pred_masks(n, P.less))
        Q = BicoloredPoset(n, P.less, P.celeste)
        assert Q.preds == P.preds
    for n in range(5):
        for rel in all_strict_orders(n):
            assert BicoloredPoset(n, rel, frozenset()).preds == tuple(pred_masks(n, rel))


def test_poset_masks_stay_out_of_equality_hash_and_repr():
    by_covers = build_poset(4, [(0, 1), (1, 2), (2, 3)], [3])
    closed = frozenset((a, b) for a in range(4) for b in range(a + 1, 4))
    by_closure = build_poset(4, closed, [3])
    direct = BicoloredPoset(4, closed, frozenset({3}))
    assert by_covers == by_closure == direct
    assert hash(by_covers) == hash(by_closure) == hash(direct)
    assert repr(two_chain_celeste_top()) == (
        "BicoloredPoset(n=2, less=frozenset({(0, 1)}), celeste=frozenset({1}))"
    )


def test_natural_labeling_of_a_wide_antichain_is_not_quadratic():
    # the scan deleted from the head of a list and built an n-bit mask per
    # element tried: 1.5 s at 10^5 elements, quadratic in n
    n = 2 * 10**5
    P = antichain_poset(n)
    start = time.perf_counter()
    assert natural_labeling(P) == tuple(range(1, n + 1))
    assert time.perf_counter() - start < 2
    # a chain listed top first, by its covers: every element but the last
    # waits for the next one once
    n = 10**4
    preds = tuple(1 << b + 1 if b + 1 < n else 0 for b in range(n))
    assert _natural_labels(preds) == tuple(range(n, 0, -1))


@pytest.mark.parametrize("n", range(5))
def test_labeling_flags_across_catalog(n):
    for rel in all_strict_orders(n):
        P = BicoloredPoset(n, rel, frozenset())
        assert is_natural_labeling(P, natural_labeling(P))
        assert is_reverse_natural_labeling(P, reverse_natural_labeling(P))
        for lab in all_natural_labelings(P):
            assert is_natural_labeling(P, lab)
        for lab in all_reverse_natural_labelings(P):
            assert is_reverse_natural_labeling(P, lab)


def test_all_natural_labelings_are_exactly_the_valid_ones():
    P = skew_diamond_poset()
    found = set(all_natural_labelings(P))
    expected = {
        perm
        for perm in itertools.permutations(range(1, 6))
        if is_natural_labeling(P, perm)
    }
    assert found == expected
    assert len(found) == len(linear_extensions(P))


def test_is_natural_rejects_non_bijections():
    P = two_chain_celeste_top()
    assert not is_natural_labeling(P, (1, 1))
    assert not is_natural_labeling(P, (0, 1))
    assert not is_natural_labeling(P, (2, 1))
    assert not is_reverse_natural_labeling(P, (1, 2))


def test_word_of_marks_first_celeste():
    P = skew_diamond_poset()
    lab = reverse_natural_labeling(P)
    assert lab == (5, 4, 3, 2, 1)
    w = word_of((0, 3, 1, 2, 4), lab, P)
    assert w.letters == (5, 2, 4, 3, 1)
    assert w.celeste_pos == 4
    w2 = word_of((0, 1, 2, 3, 4), natural_labeling(P), P)
    assert w2.letters == (1, 2, 3, 4, 5)
    assert w2.celeste_pos == 3


def test_word_of_no_celeste():
    P = antichain_poset(2)
    w = word_of((1, 0), (1, 2), P)
    assert w == Word((2, 1), None)


def test_word_of_rejects_non_refining():
    P = two_chain_celeste_top()
    with pytest.raises(ValueError, match="refine"):
        word_of((1, 0), (1, 2), P)
    with pytest.raises(ValueError, match="enumerate"):
        word_of((0, 0), (1, 2), P)


def test_word_validation():
    with pytest.raises(ValueError, match="distinct"):
        Word((1, 1))
    with pytest.raises(ValueError, match="range"):
        Word((1, 2), 3)
    with pytest.raises(ValueError, match="range"):
        Word((1, 2), 0)


def test_ascents_descents_examples():
    assert ascents((1, 4, 2, 3, 5)) == {1, 3, 4}
    assert descents((1, 4, 2, 3, 5)) == {2}
    assert ascents((1, 2, 3)) == {1, 2}
    assert descents((1, 2, 3)) == set()
    assert ascents((7,)) == set()
    assert ascents(()) == set()


def test_reverse_word_example():
    w = Word((1, 4, 2, 3, 5), 4)
    r = reverse_word(w)
    assert r.letters == (5, 3, 2, 4, 1)
    assert r.celeste_pos == 2
    assert ascents(r.letters) == {3}
    assert len(ascents(r.letters)) == len(descents(w.letters))
    assert reverse_word(reverse_word(w)) == w
    assert reverse_word(Word((1,), None)) == Word((1,), None)


@given(st.permutations(list(range(1, 8))))
@settings(max_examples=80, deadline=None)
def test_ascent_descent_partition(letters):
    letters = tuple(letters)
    asc = ascents(letters)
    des = descents(letters)
    assert asc | des == set(range(1, len(letters)))
    assert not asc & des
    rev = tuple(reversed(letters))
    assert ascents(rev) == {len(letters) - j for j in des}


def test_poset_json_round_trip():
    P = skew_diamond_poset()
    data = poset_to_json(P)
    assert data == {
        "n": 5,
        "covers": [[0, 1], [0, 3], [1, 2], [2, 4], [3, 4]],
        "celeste": [2],
    }
    assert poset_from_json(data) == P


def test_poset_json_closure_recomputed():
    P = poset_from_json({"n": 3, "covers": [[0, 1], [1, 2]], "celeste": []})
    assert (0, 2) in P.less


def test_poset_json_rejects_malformed():
    with pytest.raises(ValueError):
        poset_from_json({"covers": []})
    with pytest.raises(ValueError):
        poset_from_json({"n": "3"})
    with pytest.raises(ValueError):
        poset_from_json({"n": 2, "covers": [[0]]})
    with pytest.raises(ValueError):
        poset_from_json({"n": 2, "covers": [], "celeste": ["a"]})


def test_package_exposes_no_copy_of_the_budget():
    # the gate reads bivorder.poset.DEFAULT_BUDGET at each call; a copy made
    # at import would gate nothing when assigned
    assert not hasattr(bivorder, "DEFAULT_BUDGET")
    assert "DEFAULT_BUDGET" not in bivorder.__all__


def test_no_function_takes_a_budget():
    # poset.DEFAULT_BUDGET is the one limit, so no caller can pass another
    # or miss passing it
    # BudgetExceededError, a builtin's subclass, has no signature to read
    exported = [getattr(bivorder, name) for name in bivorder.__all__ if name != "BudgetExceededError"]
    private = [
        orderpoly._order_coords,
        brute._counter,
        brute._poset_counter,
        brute._coloring_counter,
        verify.run_checks,
    ]
    for fn in filter(callable, exported + private):
        assert "budget" not in inspect.signature(fn).parameters, fn


def test_checks_live_in_verify_alone():
    # one home: every moved name is verify's and none is left behind; the
    # polynomial modules do not import verify, and cli imports no private
    # name of theirs
    public = [
        "CheckReport", "check_reciprocity_poset", "check_reciprocity_word",
        "check_reciprocity_graph", "check_reciprocity_graph_poly",
        "count_compatible_colorings", "run_checks",
    ]
    private = ["_negated_coords", "_sweep", "_oracle_point", "_oracle_check", "_run_checks"]
    for name in public:
        assert getattr(verify, name).__module__ == "bivorder.verify"
    for module in (orderpoly, chrompoly, cli):
        assert not [name for name in public + private if hasattr(module, name)], module

    def imports(module):
        tree = ast.parse(inspect.getsource(module))
        return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]

    for module in (orderpoly, chrompoly):
        for node in imports(module):
            assert node.module != "verify" and "verify" not in [a.name for a in node.names]
    for node in imports(cli):
        if node.module in ("orderpoly", "chrompoly"):
            assert not [a.name for a in node.names if a.name.startswith("_")], node.module


def test_brute_counts_live_in_brute_alone():
    # one home: every moved name is defined in brute (the modes in ratpoly)
    # and none is left on its old module, where a patch would plant nothing;
    # only brute imports numpy, and neither polynomial module imports brute
    # or the other
    moved = [
        "_BLOCK_MAPS", "_inner_count", "_inner_maps", "_maps", "_cum_table", "_counter",
        "_elimination_order", "_eliminate", "_count", "_poset_constraints", "_poset_counter",
        "_counts_ok", "brute_count", "_valid_ys", "_integer", "_simplex_coords",
        "interpolate_poly", "interpolate_brute", "_coloring_constraints", "_coloring_counter",
        "chrom_count",
    ]
    modes = ["MODES", "_mode_ok", "_MODE_BASIS"]
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(pathlib.Path(brute.__file__).parent.glob("*.py"))}

    def defines(tree):
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        return names

    for module, names in ((brute, moved), (ratpoly, modes)):
        for name in names:
            homes = [f"bivorder.{m}" for m, tree in trees.items() if name in defines(tree)]
            assert homes == [module.__name__], name
            if callable(getattr(module, name)):
                assert getattr(module, name).__module__ == module.__name__, name
    for module in (orderpoly, chrompoly, cli):
        assert not [name for name in moved if hasattr(module, name)], module

    def imports(tree):
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                out |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                out |= {node.module} if node.module else {a.name for a in node.names}
        return out

    assert [m for m, tree in trees.items() if "numpy" in imports(tree)] == ["brute"]
    assert not imports(trees["orderpoly"]) & {"brute", "chrompoly"}
    assert not imports(trees["chrompoly"]) & {"brute", "orderpoly"}
