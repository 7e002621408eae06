import argparse
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bivorder.cli as cli
from bivorder import brute, chrompoly, orderpoly, poset, ratpoly, verify
from bivorder.brute import brute_count, chrom_count
from bivorder.chrompoly import chrom_poly
from bivorder.fixtures import (
    complete_graph,
    cycle_graph,
    fence_poset,
    fixture_graphs,
    fixture_posets,
    path_graph,
)
from bivorder.graph import Graph, graph_from_json, graph_to_json
from bivorder.poset import BudgetExceededError, build_poset, poset_from_json, poset_to_json
from bivorder.ratpoly import MODES, BiPoly, X, Y, _binomial_poly, binom_poly
from bivorder.verify import CheckReport

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def fixture(name):
    return str(FIXTURES / name)


def test_poset_poly_text_exact_bytes():
    code, out, err = run_cli(
        "poset-poly", "--input", fixture("chain2celestetop.json"), "--mode", "strict"
    )
    assert code == 0
    assert out == "1/2*x^2 - 1/2*x - 1/2*y^2 + 1/2*y\n"
    assert err == ""


def test_poset_poly_weak():
    code, out, _ = run_cli(
        "poset-poly", "--input", fixture("chain2celestetop.json"), "--mode", "weak"
    )
    assert code == 0
    assert out == "1/2*x^2 + 1/2*x - 1/2*y^2 + 1/2*y\n"


def test_graph_poly_text_exact_bytes():
    code, out, _ = run_cli("graph-poly", "--input", fixture("k3.json"))
    assert code == 0
    assert out == "x^3 - 3*x*y + 2*y\n"


def test_poly_json_round_trips():
    code, out, _ = run_cli(
        "poset-poly",
        "--input", fixture("chain2celestetop.json"),
        "--mode", "strict",
        "--format", "json",
    )
    assert code == 0
    parsed = json.loads(out)
    from bivorder.fixtures import two_chain_celeste_top
    from bivorder.orderpoly import order_poly_strict

    assert BiPoly.from_json(parsed) == order_poly_strict(two_chain_celeste_top())
    # canonical term order in the document itself
    exps = [(t["dx"], t["dy"]) for t in parsed["terms"]]
    assert exps == sorted(exps, key=lambda e: (-e[0], -e[1]))


def test_counts():
    code, out, _ = run_cli(
        "poset-count", "--input", fixture("chain2celestetop.json"),
        "--mode", "strict", "--x", "3", "--y", "1",
    )
    assert (code, out) == (0, "3\n")
    code, out, _ = run_cli(
        "graph-count", "--input", fixture("k3.json"), "--x", "2", "--y", "1"
    )
    assert (code, out) == (0, "4\n")
    code, out, _ = run_cli(
        "graph-count", "--input", fixture("k3.json"), "--x", "2", "--y", "1",
        "--format", "json",
    )
    assert (code, out) == (0, '{"count": 4}\n')


def test_list_extensions():
    code, out, _ = run_cli("list-extensions", "--input", fixture("skewdiamond.json"))
    assert code == 0
    assert out == "0 1 2 3 4\n0 1 3 2 4\n0 3 1 2 4\n"
    code, out_json, _ = run_cli(
        "list-extensions", "--input", fixture("skewdiamond.json"), "--format", "json"
    )
    assert json.loads(out_json)["extensions"] == [
        [0, 1, 2, 3, 4], [0, 1, 3, 2, 4], [0, 3, 1, 2, 4],
    ]



def _antichain_file(tmp_path, n):
    path = tmp_path / f"antichain{n}.json"
    path.write_text(json.dumps({"n": n, "covers": [], "celeste": []}))
    return str(path)


def test_list_extensions_refuses_past_the_default_budget(tmp_path):
    # the 12-antichain's 12! extensions are not listed: its 8-element
    # prefixes pass the budget after 397 of the 792 7-element ideals.  Run
    # apart under a 1 GiB address-space cap, so a listing that got past
    # the gate would end in MemoryError within the time bound, not swap
    cap = 1 << 30
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bivorder", "list-extensions",
         "--input", _antichain_file(tmp_path, 12)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=Path(cli.__file__).resolve().parents[1],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: enumeration of 10004400 objects exceeds budget 10000000\n"


def test_list_extensions_lists_below_the_default_budget(tmp_path):
    code, out, err = run_cli("list-extensions", "--input", _antichain_file(tmp_path, 8))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == len(set(lines)) == 40320
    assert lines[0] == "0 1 2 3 4 5 6 7"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"covers": []}, "poset JSON must be an object with an 'n' field"),
        ({"edges": []}, "graph JSON must be an object with an 'n' field"),
        ({"n": "3", "covers": []}, "poset field 'n' must be an integer"),
        ({"n": True, "edges": []}, "graph field 'n' must be an integer"),
        ({"n": 2, "covers": [[0]]}, "cover [0] must be a pair of integers"),
        ({"n": 2, "edges": [[0, True]]}, "edge [0, True] must be a pair of integers"),
        ({"n": 2, "edges": [[0, 1.0]]}, "edge [0, 1.0] must be a pair of integers"),
        ({"n": 2, "celeste": ["a"]}, "celeste entry 'a' must be an integer"),
        ({"n": 2, "covers": [[0], 1], "celeste": [None]}, "cover [0] must be a pair of integers"),
        ({"n": 2, "covers": {}}, "poset fields 'covers' and 'celeste' must be lists"),
        ({"n": 2, "celeste": 1}, "poset fields 'covers' and 'celeste' must be lists"),
        ({"n": 2, "edges": "01"}, "graph field 'edges' must be a list"),
    ],
    ids=[
        "poset-no-n", "graph-no-n", "poset-str-n", "graph-bool-n", "short-cover",
        "bool-edge", "float-edge", "str-celeste", "cover-before-celeste",
        "dict-covers", "int-celeste", "str-edges",
    ],
)
def test_malformed_input_names_its_fault(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    verb = "list-flats" if "edges" in data else "list-extensions"
    code, out, err = run_cli(verb, "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_duplicate_celeste_entry_exits_two(tmp_path):
    # as a duplicate cover or edge does, before any polynomial is printed
    path = tmp_path / "twice.json"
    path.write_text('{"n": 3, "covers": [[0, 1]], "celeste": [0, 0]}')
    code, out, err = run_cli("poset-poly", "--input", str(path), "--mode", "strict")
    assert (code, out, err) == (2, "", "error: duplicate celeste element 0\n")


def test_list_extensions_of_a_chain_deeper_than_the_recursion_limit(tmp_path):
    # one extension placed element by element, past the interpreter's depth
    n = sys.getrecursionlimit() + 10
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"n": n, "covers": [[i, i + 1] for i in range(n - 1)]}))
    code, out, err = run_cli("list-extensions", "--input", str(path))
    assert (code, err) == (0, "")
    assert out == " ".join(map(str, range(n))) + "\n"


def test_over_nested_json_exits_two(tmp_path):
    # json.load raises RecursionError, which the loader reports as bad input
    path = tmp_path / "deep.json"
    path.write_text('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli("poset-poly", "--mode", "strict", "--input", str(path))
    assert (code, out, err) == (2, "", "error: input JSON is nested too deeply\n")


def test_list_flats():
    code, out, _ = run_cli("list-flats", "--input", fixture("k3.json"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "blocks=0,1,2 contracted=0 quotient-edges=-"
    assert lines[-1] == "blocks=0|1|2 contracted=- quotient-edges=0-1 0-2 1-2"


def test_list_orientations():
    code, out, _ = run_cli("list-orientations", "--input", fixture("p3.json"))
    assert code == 0
    assert out == "0->1 1->2\n0->1 2->1\n1->0 1->2\n1->0 2->1\n"
    code, out, _ = run_cli("list-orientations", "--input", fixture("edgeless2.json"))
    assert (code, out) == (0, "-\n")


def test_check_passes_on_fixtures():
    for name, expected in [
        ("chain2celestetop.json", ["PASS poset-reciprocity", "PASS poset-oracle"]),
        ("skewdiamond.json", ["PASS poset-reciprocity", "PASS poset-oracle"]),
        (
            "k3.json",
            ["PASS graph-reciprocity", "PASS graph-reciprocity-poly", "PASS graph-oracle"],
        ),
        (
            "c4.json",
            ["PASS graph-reciprocity", "PASS graph-reciprocity-poly", "PASS graph-oracle"],
        ),
    ]:
        code, out, _ = run_cli("check", "--input", fixture(name), "--kind", "all")
        assert code == 0
        assert out.splitlines() == expected


def test_check_single_kind():
    code, out, _ = run_cli(
        "check", "--input", fixture("skewdiamond.json"), "--kind", "poset-reciprocity"
    )
    assert (code, out) == (0, "PASS poset-reciprocity\n")
    code, out, _ = run_cli(
        "check", "--input", fixture("k4.json"), "--kind", "graph-reciprocity",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["name"] for r in reports] == [
        "graph-reciprocity", "graph-reciprocity-poly",
    ]
    assert all(r["passed"] for r in reports)


def test_check_kind_mismatch_is_usage_error():
    code, _, err = run_cli(
        "check", "--input", fixture("k3.json"), "--kind", "poset-reciprocity"
    )
    assert code == 2
    assert "poset" in err


def test_failed_check_exits_one_and_prints_witness(monkeypatch):
    failing = CheckReport(
        "graph-reciprocity", False, {"x": 1, "y": 1, "lhs": "0", "rhs": "1"}
    )
    monkeypatch.setattr(verify, "check_reciprocity_graph", lambda *a, **k: failing)
    code, out, _ = run_cli(
        "check", "--input", fixture("k3.json"), "--kind", "graph-reciprocity"
    )
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL graph-reciprocity witness=")
    assert '"lhs": "0"' in out
    code, out, _ = run_cli(
        "check", "--input", fixture("k3.json"), "--kind", "graph-reciprocity",
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)[0]["witness"] == failing.witness


def test_usage_errors_exit_two(tmp_path):
    assert run_cli()[0] == 2
    assert run_cli("no-such-verb")[0] == 2
    assert run_cli("poset-poly", "--input", fixture("chain2celestetop.json"))[0] == 2
    code, _, err = run_cli("poset-poly", "--input", "missing.json", "--mode", "strict")
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("poset-poly", "--input", str(bad), "--mode", "strict")[0] == 2
    neither = tmp_path / "neither.json"
    neither.write_text('{"n": 2}')
    assert run_cli("poset-poly", "--input", str(neither), "--mode", "strict")[0] == 2
    mixed = tmp_path / "mixed.json"
    mixed.write_text('{"n": 2, "covers": [], "edges": []}')
    assert run_cli("poset-poly", "--input", str(mixed), "--mode", "strict")[0] == 2


def test_wrong_input_type_exits_two():
    code, _, err = run_cli("graph-poly", "--input", fixture("chain2celestetop.json"))
    assert code == 2
    assert "graph" in err
    code, _, err = run_cli("list-extensions", "--input", fixture("k3.json"))
    assert code == 2
    assert "poset" in err


def test_counts_past_one_block_build_no_table(tmp_path, monkeypatch):
    # 8^7 maps and 11^6 colorings span many blocks; each block is reduced
    # to its count, and no table is built
    def no_table(*key):
        raise AssertionError("a brute table was built for one count")

    monkeypatch.setattr(brute, "_cum_table", no_table)
    chain = tmp_path / "chain7.json"
    chain.write_text(json.dumps({"n": 7, "covers": [[i, i + 1] for i in range(6)], "celeste": []}))
    argv = ("poset-count", "--input", str(chain), "--mode", "weak", "--x", "8", "--y", "3")
    assert run_cli(*argv) == (0, "3432\n", "")
    count = chrom_poly(cycle_graph(6)).evaluate(11, 3)
    argv = ("graph-count", "--input", _graph_file(tmp_path, 6, cycle_graph(6).edges), "--x", "11", "--y", "3")
    assert run_cli(*argv) == (0, f"{count}\n", "")


def test_budget_error_exits_two(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"n": 9, "covers": [], "celeste": []}')
    code, _, err = run_cli(
        "poset-count", "--input", str(big), "--mode", "strict",
        "--x", "8", "--y", "0", "--budget", "1000",
    )
    assert code == 2
    assert "budget" in err
    # a single count past one block is gated on its maps alone: 10^7 + 1
    # of them pass the default budget
    one = tmp_path / "one.json"
    one.write_text('{"n": 1, "covers": [], "celeste": []}')
    code, out, err = run_cli(
        "poset-count", "--input", str(one), "--mode", "strict",
        "--x", "10000001", "--y", "1",
    )
    assert (code, out) == (2, "")
    assert "budget" in err


def test_graph_reciprocity_budget_exits_two():
    # the check's one subset computation on K4 visits fewer than 3^4 pairs, whatever x0
    code, out, err = run_cli(
        "check", "--input", fixture("k4.json"), "--kind", "graph-reciprocity", "--budget", "10"
    )
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 81 objects exceeds budget 10\n"


def test_large_antichain_is_rejected_by_budget_not_closure(tmp_path):
    # the closure skips elements without relations, so loading takes no n^2 loop
    anti = tmp_path / "anti.json"
    anti.write_text(json.dumps({"n": 15000, "covers": [], "celeste": []}))
    code, out, err = run_cli(
        "poset-count", "--input", str(anti), "--mode", "strict", "--x", "2", "--y", "0"
    )
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 2^15000 objects exceeds budget 10000000\n"


def test_count_beyond_numpy_dimension_limit(tmp_path):
    wide = tmp_path / "wide.json"
    wide.write_text('{"n": 70, "covers": [], "celeste": [0]}')
    code, out, err = run_cli(
        "poset-count", "--input", str(wide), "--mode", "weak", "--x", "1", "--y", "1",
    )
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize(
    "errors, mode, x, y",
    [
        ({"strict": 1}, "strict", 0, 0),
        ({"weak": 1}, "weak", 0, 1),
        # all of x = 0 comes before x = 1, and strict before weak at each x
        ({"strict": X, "weak": 1}, "weak", 0, 1),
        ({"strict": 1, "weak": 1}, "strict", 0, 0),
    ],
)
def test_poset_oracle_witness_in_both_modes(monkeypatch, errors, mode, x, y):
    for m, error in errors.items():
        exact = getattr(verify, f"order_poly_{m}")
        monkeypatch.setattr(verify, f"order_poly_{m}", lambda P, f=exact, e=error: f(P) + e)
    code, out, _ = run_cli(
        "check", "--input", fixture("skewdiamond.json"), "--kind", "oracle",
        "--format", "json",
    )
    assert code == 1
    witness = {"mode": mode, "x": x, "y": y, "poly": "1", "brute": 0}
    assert json.loads(out) == [{"name": "poset-oracle", "passed": False, "witness": witness}]


@pytest.mark.parametrize(
    "name, attr, mode, t, out",
    [
        ("k3.json", "chrom_poly", "strict", 4,
         '{"name": "graph-oracle", "passed": false, "witness": {"degree": 4, "n": 3}}'),
        ("skewdiamond.json", "order_poly_strict", "strict", 6,
         '{"name": "poset-oracle", "passed": false, '
         '"witness": {"degree": 6, "mode": "strict", "n": 5}}'),
        ("skewdiamond.json", "order_poly_weak", "weak", 6,
         '{"name": "poset-oracle", "passed": false, '
         '"witness": {"degree": 6, "mode": "weak", "n": 5}}'),
    ],
    ids=["graph", "strict", "weak"],
)
def test_oracle_refuses_a_polynomial_above_degree_n(monkeypatch, name, attr, mode, t, out):
    # binom(y - w, n + 1) is zero at every swept point, where y0 - w <= x0 <= n,
    # so the sweep alone passes it; the degree guard fails it first
    exact = getattr(verify, attr)
    monkeypatch.setattr(verify, attr, lambda P: exact(P) + _basis_bump(t, 0, mode))
    code, got, err = run_cli(
        "check", "--input", fixture(name), "--kind", "oracle", "--format", "json"
    )
    assert (code, err) == (1, "")
    assert got == f"[{out}]\n"


@pytest.mark.parametrize(
    "error, identity, witness",
    [
        (Y, "y=x", {"x": 1, "y": 1, "poly": "1", "brute": 0}),
        (X - Y, "y=0", {"x": 1, "y": 0, "poly": "2", "brute": 1}),
    ],
    ids=["y=x", "y=0"],
)
def test_graph_oracle_identity_witnesses(monkeypatch, error, identity, witness):
    # each error breaks one classical identity, chi(x, x) = chi_G(x) or
    # chi(x, 0) = x^n, and keeps the other; the sweep alone must catch it
    G = graph_from_json(json.loads(Path(fixture("k3.json")).read_text()))
    wrong = chrom_poly(G) + error
    classical = [chrompoly.classical_chrom_poly(G).evaluate(x0, 0) for x0 in range(5)]
    assert ([wrong.evaluate(x0, x0) for x0 in range(5)] == classical) == (identity == "y=0")
    assert ([wrong.evaluate(x0, 0) for x0 in range(5)] == [x0**3 for x0 in range(5)]) == (
        identity == "y=x"
    )
    monkeypatch.setattr(verify, "chrom_poly", lambda P, **kw: wrong)
    code, out, err = run_cli(
        "check", "--input", fixture("k3.json"), "--kind", "oracle", "--format", "json"
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == [{"name": "graph-oracle", "passed": False, "witness": witness}]


def test_oracle_checks_build_one_brute_table_per_mode():
    # posets and graphs share one table cache: two poset modes, one graph
    brute._cum_table.cache_clear()
    for name in ("skewdiamond.json", "k4.json"):
        assert run_cli("check", "--input", fixture(name), "--kind", "oracle")[0] == 0
    assert brute._cum_table.cache_info().misses == 3


@pytest.mark.parametrize(
    "name, budget, maps",
    [("skewdiamond.json", "1000", 5**5), ("k4.json", "100", 4**4)],
)
def test_oracle_check_budget_names_the_largest_x(name, budget, maps):
    # one table at the sweep's largest x = n serves every point, so that x
    # is the one checked, before any polynomial or table is built
    code, out, err = run_cli(
        "check", "--input", fixture(name), "--kind", "oracle", "--budget", budget
    )
    assert (code, out) == (2, "")
    assert err == f"error: enumeration of {maps} objects exceeds budget {budget}\n"


def _basis_bump(t, s, mode):
    """binom(y - w, t) * binom(x - y + w, s): zero at every valid point with
    x0 < t + s, so only a sweep that reaches x0 = t + s sees it."""
    return _binomial_poly({(t, s): 1}, *ratpoly._MODE_BASIS[mode])


@pytest.mark.parametrize("kind", ["graph", "poset"])
def test_oracle_fails_on_a_planted_top_coordinate(monkeypatch, tmp_path, kind):
    # a sweep that stops below x0 = n passes both of these
    if kind == "graph":
        obj, name, bump = cycle_graph(6), "chrom_poly", _basis_bump(3, 3, "strict")
        brute, extras = chrom_count(obj, 6, 3), {}
        data = graph_to_json(obj)
    else:
        obj, name, bump = fence_poset(7), "order_poly_strict", _basis_bump(3, 4, "strict")
        brute, extras = brute_count(obj, "strict", 7, 3), {"mode": "strict"}
        data = poset_to_json(obj)
    exact = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda P: exact(P) + bump)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli("check", "--input", str(path), "--kind", "oracle", "--format", "json")
    assert (code, err) == (1, "")
    witness = {**extras, "x": obj.n, "y": 3, "poly": str(brute + 1), "brute": brute}
    assert json.loads(out) == [{"name": f"{kind}-oracle", "passed": False, "witness": witness}]


@st.composite
def planted_bumps(draw):
    """A poset or graph of up to 7 elements, a mode, a total degree d of n
    or n + 1, and a nonzero multiple of one of its mode's basis elements of
    total degree d."""
    n = draw(st.integers(0, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = [p for p, k in zip(pairs, keep) if k]
    if draw(st.booleans()):
        obj, mode = Graph(n, frozenset(chosen)), "strict"
    else:
        marks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        obj = build_poset(n, chosen, [v for v, m in enumerate(marks) if m])
        mode = draw(st.sampled_from(MODES))
    d = n + draw(st.booleans())
    t = draw(st.integers(0, d))
    c = draw(st.integers(-3, 3).filter(bool))
    return obj, mode, d, t, c


@given(planted_bumps())
@settings(max_examples=40, deadline=None)
def test_oracle_finds_any_planted_top_coordinate(planted):
    obj, mode, d, t, c = planted
    n = obj.n
    name = "chrom_poly" if isinstance(obj, Graph) else f"order_poly_{mode}"
    exact = getattr(verify, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, name, lambda P: exact(P) + c * _basis_bump(t, d - t, mode))
        [report] = verify.run_checks(obj, "oracle")
    assert not report.passed
    witness = report.witness
    assert witness.get("mode", "strict") == mode
    if d > n:
        # the degree guard fails it before the sweep
        assert witness.keys() - {"mode"} == {"degree", "n"}
        assert (witness["degree"], witness["n"]) == (d, n)
        return
    # the bump is zero below x0 = n and c at the one point with y0 - w = t there
    assert (witness["x"], witness["y"]) == (n, t + (mode == "weak"))
    assert int(witness["poly"]) - witness["brute"] == c


@pytest.mark.parametrize("n", range(8))
def test_oracle_reads_exactly_the_simplex(monkeypatch, n):
    # every point interpolate_poly reads, and no other, from one table at x = n
    tables, read = [], {}

    def recorded(key, x_max, counter):
        tables.append(x_max)
        read[key] = set()
        return lambda x0, y0: read[key].add((x0, y0)) or counter(x0, y0)

    poset_counter, coloring_counter = verify._poset_counter, verify._coloring_counter
    monkeypatch.setattr(
        verify, "_poset_counter",
        lambda P, mode, x_max: recorded(mode, x_max, poset_counter(P, mode, x_max)),
    )
    monkeypatch.setattr(
        verify, "_coloring_counter",
        lambda G, x_max: recorded("graph", x_max, coloring_counter(G, x_max)),
    )
    for obj in (fence_poset(n), path_graph(n)):
        assert all(r.passed for r in verify.run_checks(obj, "oracle"))
    assert tables == [n, n, n]
    for key, mode in (("strict", "strict"), ("weak", "weak"), ("graph", "strict")):
        simplex = set()
        brute._simplex_coords(lambda x0, y0: simplex.add((x0, y0)) or 0, n, mode)
        assert read[key] == simplex



def _planted_reciprocity(t, s, c):
    """_reciprocity_poly with (-1)^n * c * binom(y, t) * binom(x - y, s)
    added: c added to the strict-basis coordinate d[t, s] of
    (-1)^n chrom_poly(-x, -y)."""
    exact = chrompoly._reciprocity_poly
    plant = c * binom_poly(Y, t) * binom_poly(X - Y, s)
    return lambda G: exact(G) + (-1) ** G.n * plant


def test_graph_reciprocity_fails_on_a_planted_top_coordinate(monkeypatch, tmp_path):
    # binom(y, 3) * binom(x - y, 3) is zero at every point with x0 < 6, so a
    # sweep that stops below x0 = n passes it
    monkeypatch.setattr(verify, "_reciprocity_poly", _planted_reciprocity(3, 3, 1))
    C6 = cycle_graph(6)
    path = tmp_path / "c6.json"
    path.write_text(json.dumps(graph_to_json(C6)))
    code, out, err = run_cli("check", "--input", str(path), "--kind", "graph-reciprocity")
    assert (code, err) == (1, "")
    witness = {"graph": graph_to_json(C6), "lhs": "78342", "rhs": "78343", "x": 6, "y": 3}
    first, second = out.splitlines()
    assert first == "FAIL graph-reciprocity witness=" + json.dumps(witness, sort_keys=True)
    # the polynomial form prints both sides in full, byte for byte
    poly_witness = {
        "graph": graph_to_json(C6),
        "lhs": "x^6 + 6*x^4*y + 6*x^3*y + 9*x^2*y^2 + 6*x^2*y + 12*x*y^2 + 6*x*y + 2*y^3 + 9*y^2 + 5*y",
        "rhs": (
            "x^6 + 6*x^4*y + 1/36*x^3*y^3 - 1/12*x^3*y^2 + 109/18*x^3*y - 1/12*x^2*y^4 "
            "+ 1/6*x^2*y^3 + 109/12*x^2*y^2 + 35/6*x^2*y + 1/12*x*y^5 - 1/12*x*y^4 "
            "- 5/18*x*y^3 + 73/6*x*y^2 + 55/9*x*y - 1/36*y^6 + 5/36*y^4 + 2*y^3 "
            "+ 80/9*y^2 + 5*y"
        ),
    }
    assert second == "FAIL graph-reciprocity-poly witness=" + json.dumps(poly_witness, sort_keys=True)


@st.composite
def planted_reciprocity(draw):
    """A graph of up to 7 vertices and a nonzero multiple of one of its
    top-degree coordinates."""
    n = draw(st.integers(0, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = Graph(n, frozenset(p for p, k in zip(pairs, keep) if k))
    return G, draw(st.integers(0, n)), draw(st.integers(-3, 3).filter(bool))


@given(planted_reciprocity())
@settings(max_examples=40, deadline=None)
def test_graph_reciprocity_finds_any_planted_top_coordinate(planted):
    G, t, c = planted
    n = G.n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_reciprocity_poly", _planted_reciprocity(t, n - t, c))
        report = verify.run_checks(G, "graph-reciprocity")[0]
    assert report.name == "graph-reciprocity" and not report.passed
    # binom(y, t) * binom(x - y, n - t) is zero below x0 = n and 1 at y0 = t there
    witness = report.witness
    assert (witness["x"], witness["y"]) == (n, t)
    assert int(witness["rhs"]) - int(witness["lhs"]) == (-1) ** n * c


@pytest.mark.parametrize("n", range(7))
def test_graph_reciprocity_reads_the_oracle_simplex(monkeypatch, n):
    # the points the graph oracle reads, 0 <= y0 <= x0 <= n, x0 by x0
    read = []
    exact = verify.check_reciprocity_graph

    def recorded(G, x0, y0):
        read.append((x0, y0))
        return exact(G, x0, y0)

    monkeypatch.setattr(verify, "check_reciprocity_graph", recorded)
    assert all(r.passed for r in verify.run_checks(path_graph(n), "graph-reciprocity"))
    assert read == [(x0, y0) for x0 in range(n + 1) for y0 in range(x0 + 1)]

def test_negative_budget_is_usage_error():
    for argv in [
        ("poset-count", "--input", fixture("chain2celestetop.json"), "--mode", "strict",
         "--x", "3", "--y", "1"),
        ("graph-count", "--input", fixture("k3.json"), "--x", "2", "--y", "1"),
        ("check", "--input", fixture("k3.json")),
    ]:
        code, out, err = run_cli(*argv, "--budget", "-1")
        assert (code, out) == (2, "")
        assert "budget must be nonnegative" in err
    code, _, err = run_cli("check", "--input", fixture("k3.json"), "--budget", "ten")
    assert code == 2
    assert "invalid int value: 'ten'" in err


def test_poly_outputs_match_recorded_bytes():
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    assert {g["fixture"] for g in golden} == {p.name for p in FIXTURES.glob("*.json")}
    # every verb is pinned in both formats, so a new verb needs recorded bytes
    verbs = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert len(verbs) == 8
    assert {(g["args"][0], g["args"][-1]) for g in golden} == {
        (verb, fmt) for verb in verbs for fmt in ("json", "text")
    }
    checks = {(g["fixture"], *g["args"]) for g in golden if g["args"][0] == "check"}
    assert checks == {
        (p.name, "check", "--kind", "all", "--format", fmt)
        for p in FIXTURES.glob("*.json")
        for fmt in ("json", "text")
    }
    for g in golden:
        code, out, err = run_cli(g["args"][0], "--input", fixture(g["fixture"]), *g["args"][1:])
        assert (code, err) == (0, "")
        assert out.encode() == g["stdout"].encode()


def test_fixture_files_hold_the_named_examples():
    posets, graphs = fixture_posets(), fixture_graphs()
    assert posets.keys() | graphs.keys() == {p.stem for p in FIXTURES.glob("*.json")}
    for name, P in posets.items():
        assert poset_from_json(json.loads((FIXTURES / f"{name}.json").read_text())) == P
    for name, G in graphs.items():
        assert graph_from_json(json.loads((FIXTURES / f"{name}.json").read_text())) == G


def test_help_goes_to_the_given_stdout(capsys):
    for argv, usage in [
        (["--help"], "usage: bivorder [-h]"),
        (["graph-poly", "--help"], "usage: bivorder graph-poly [-h]"),
    ]:
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage) and "-h, --help" in out
        assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["poset-count", "--help"]])
def test_help_does_not_follow_the_terminal_width(monkeypatch, argv):
    # help is wrapped at argparse's width on a pipe whatever COLUMNS says
    outputs = []
    for columns in (None, "60", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_builds_no_parser_after_the_first_call(monkeypatch):
    run_cli("graph-poly", "--input", fixture("k2.json"))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli("graph-poly", "--input", fixture("k3.json"))[0] == 0
    assert run_cli("list-extensions", "--input", fixture("skewdiamond.json"))[0] == 0
    assert built == []


def _graph_file(tmp_path, n, edges):
    path = tmp_path / f"graph{n}.json"
    path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}))
    return str(path)


def test_graph_poly_past_orientation_limit(tmp_path):
    # K8's 28 edges exceed the orientation enumeration's 20
    k8 = _graph_file(tmp_path, 8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    code, out, err = run_cli("graph-poly", "--input", k8)
    assert (code, err) == (0, "")
    assert out.startswith("x^8 - 28*x^6*y + ")
    assert out == chrom_poly(complete_graph(8)).text() + "\n"


def test_check_all_past_orientation_limit(tmp_path):
    # neither reciprocity check enumerates K8's orientations; the oracle
    # reads one table of 8^8 colorings, past the default budget
    k8 = _graph_file(tmp_path, 8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    code, out, err = run_cli("check", "--input", k8, "--kind", "all")
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 16777216 objects exceeds budget 10000000\n"
    code, out, err = run_cli("check", "--input", k8, "--kind", "all", "--budget", "16777216")
    assert (code, err) == (0, "")
    assert out == "PASS graph-reciprocity\nPASS graph-reciprocity-poly\nPASS graph-oracle\n"


def _prism_file(tmp_path):
    # the hexagonal prism: two 6-cycles and six rungs, 12 vertices, 18 edges
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)] + [(i, 6 + i) for i in range(6)]
    return _graph_file(tmp_path, 12, edges)


def test_graph_reciprocity_on_twelve_vertices(tmp_path):
    # no flat is enumerated, so it takes seconds
    start = time.perf_counter()
    code, out, err = run_cli(
        "check", "--input", _prism_file(tmp_path), "--kind", "graph-reciprocity",
        "--budget", "250000000",
    )
    assert (code, err) == (0, "")
    assert out == "PASS graph-reciprocity\nPASS graph-reciprocity-poly\n"
    assert time.perf_counter() - start < 30


def test_graph_reciprocity_on_twelve_vertices_over_default_budget(tmp_path):
    # the gate counts the 3^12 subset pairs, not the x0^12 colorings, so the
    # prism is no longer over the default budget; one less than 3^12 refuses
    prism = _prism_file(tmp_path)
    code, out, err = run_cli("check", "--input", prism, "--kind", "graph-reciprocity")
    assert (code, err) == (0, "")
    assert out == "PASS graph-reciprocity\nPASS graph-reciprocity-poly\n"
    code, out, err = run_cli(
        "check", "--input", prism, "--kind", "graph-reciprocity", "--budget", "531440"
    )
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 531441 objects exceeds budget 531440\n"



def test_graph_reciprocity_budget_counts_no_table_cells():
    # K2's subset computation visits fewer than 3^2 pairs and builds no
    # table; the oracle's table at x = 2 has 3 * 4 = 12 cells
    k2 = fixture("k2.json")
    code, out, err = run_cli("check", "--input", k2, "--kind", "graph-reciprocity", "--budget", "9")
    assert (code, err) == (0, "")
    assert out == "PASS graph-reciprocity\nPASS graph-reciprocity-poly\n"
    code, out, err = run_cli("check", "--input", k2, "--kind", "graph-reciprocity", "--budget", "8")
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 9 objects exceeds budget 8\n"
    code, out, err = run_cli("check", "--input", k2, "--kind", "all", "--budget", "9")
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 12 objects exceeds budget 9\n"

def test_graph_reciprocity_budget_lifts_the_default(monkeypatch, tmp_path):
    # a budget above the default reaches every subset computation the check
    # runs, not only its first gate: 3^5 = 243 pairs under a default of 100
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 100)
    for fn in (chrom_poly, chrompoly._reciprocity_poly):
        fn.cache_clear()
    c5 = _graph_file(tmp_path, 5, [(v, (v + 1) % 5) for v in range(5)])
    # the oracle's table of 5^5 colorings has 6 * 7 = 42 cells
    for kind, budget, passed in (
        ("graph-reciprocity", "1000", ["graph-reciprocity", "graph-reciprocity-poly"]),
        ("oracle", "3125", ["graph-oracle"]),
    ):
        code, out, err = run_cli("check", "--input", c5, "--kind", kind, "--budget", budget)
        assert (code, err) == (0, "")
        assert out == "".join(f"PASS {name}\n" for name in passed)
    code, out, err = run_cli("check", "--input", c5, "--kind", "graph-reciprocity")
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 243 objects exceeds budget 100\n"


def test_check_budget_reaches_poset_reciprocity_and_the_oracle(monkeypatch):
    # the skew diamond's ideal-chain program holds 42 states times slots,
    # past a default of 30; --budget lifts the gate of every route check runs
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 30)
    argv = ("check", "--input", fixture("skewdiamond.json"))
    for kind, out in (
        ("poset-reciprocity", "PASS poset-reciprocity\n"),
        ("all", "PASS poset-reciprocity\nPASS poset-oracle\n"),
    ):
        assert run_cli(*argv, "--kind", kind, "--budget", "100000") == (0, out, "")
    message = "error: enumeration of 42 objects exceeds budget 30\n"
    assert run_cli(*argv, "--kind", "poset-reciprocity") == (2, "", message)


def test_run_restores_the_default_budget(monkeypatch):
    # the bench and the tests call run in-process, so a --budget that stayed
    # set would gate every later call; passing, refusing and bad input alike
    monkeypatch.setattr(poset, "DEFAULT_BUDGET", 12345)
    for argv, code in (
        (("graph-poly", "--input", fixture("k3.json"), "--budget", "1000"), 0),
        (("graph-count", "--input", fixture("k4.json"), "--x", "3", "--y", "1",
          "--budget", "10"), 2),
        (("graph-poly", "--input", fixture("skewdiamond.json"), "--budget", "1000"), 2),
    ):
        assert run_cli(*argv)[0] == code
        assert poset.DEFAULT_BUDGET == 12345


def test_budget_refuses_a_huge_graph_without_computing_the_power(tmp_path):
    # 3^(10^8) has 48 million digits; the bit lengths decide
    path = tmp_path / "huge.json"
    path.write_text('{"n": 100000000, "edges": []}')
    start = time.perf_counter()
    code, out, err = run_cli("graph-poly", "--input", str(path))
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 3^100000000 objects exceeds budget 10000000\n"


def test_poset_poly_of_a_million_element_antichain(tmp_path):
    # its default labeling was quadratic in n and took minutes; the answer is x^n
    path = tmp_path / "antichain.json"
    path.write_text('{"n": 1000000, "covers": [], "celeste": []}')
    start = time.perf_counter()
    assert run_cli("poset-poly", "--input", str(path), "--mode", "strict") == (0, "x^1000000\n", "")
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("mode", MODES)
def test_poset_poly_refuses_the_31_element_tree(tmp_path, mode):
    # the ideal-chain DP's states, not the input size, are past the budget:
    # the complete binary tree on 31 elements has 458 330 order ideals
    path = tmp_path / "tree.json"
    covers = [[i, c] for i in range(31) for c in (2 * i + 1, 2 * i + 2) if c < 31]
    path.write_text(json.dumps({"n": 31, "covers": covers, "celeste": []}))
    start = time.perf_counter()
    code, out, err = run_cli("poset-poly", "--input", str(path), "--mode", mode)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 10002432 objects exceeds budget 10000000\n"


@pytest.mark.parametrize("n", [2**62, 2**64])
@pytest.mark.parametrize(
    "argv",
    [
        ("poset-poly", "--mode", "strict"),
        ("poset-count", "--mode", "weak", "--x", "2", "--y", "1"),
        ("list-extensions",),
        ("check",),
    ],
    ids=lambda argv: argv[0],
)
def test_a_poset_too_large_to_hold_exits_two(tmp_path, argv, n):
    # a list of n masks fails its size check before anything is allocated:
    # MemoryError at 2^62 elements, OverflowError at 2^64
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "covers": []}))
    code, out, err = run_cli(*argv, "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) > len("error: \n")


def test_list_flats_refuses_its_subsets_past_the_budget(tmp_path):
    # flats tabulate all 2^n vertex subsets, checked before any is made
    code, out, err = run_cli("list-flats", "--input", _graph_file(tmp_path, 100, []))
    assert (code, out) == (2, "")
    assert err == "error: enumeration of 2^100 objects exceeds budget 10000000\n"


@pytest.mark.parametrize(
    "argv, maps",
    [
        (("poset-count", "--input", fixture("skewdiamond.json"), "--mode", "strict",
          "--x", "3", "--y", "1"), 3**5),
        (("graph-count", "--input", fixture("k4.json"), "--x", "3", "--y", "1"), 3**4),
        (("check", "--input", fixture("skewdiamond.json"), "--kind", "oracle"), 5**5),
        (("check", "--input", fixture("k4.json"), "--kind", "oracle"), 4**4),
        (None, 5**5),  # interpolate_brute, at the simplex's largest x = n = 5
    ],
    ids=["brute_count", "chrom_count", "poset-oracle", "graph-oracle", "interpolate_brute"],
)
def test_every_brute_count_refuses_before_any_table(monkeypatch, argv, maps):
    def no_table(*key):
        raise AssertionError("a brute table was built past the budget")

    monkeypatch.setattr(brute, "_cum_table", no_table)
    message = f"enumeration of {maps} objects exceeds budget 10"
    if argv is None:
        P = poset_from_json(json.loads(Path(fixture("skewdiamond.json")).read_text()))
        monkeypatch.setattr(poset, "DEFAULT_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match=message):
            brute.interpolate_brute(P, "weak")
    else:
        assert run_cli(*argv, "--budget", "10") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, maps",
    [
        (("poset-poly", "--input", fixture("skewdiamond.json"), "--mode", "strict"), 21),
        (("poset-poly", "--input", fixture("skewdiamond.json"), "--mode", "weak"), 21),
        (("graph-poly", "--input", fixture("k4.json")), 3**4),
    ],
    ids=["poset-poly-strict", "poset-poly-weak", "graph-poly"],
)
def test_poly_verbs_take_a_budget(argv, maps):
    # the ideal-chain states (one level's 1 state times 21 slots) and the
    # 3^n subset pairs are gated by --budget; a generous one changes nothing.
    # A cached chrom_poly answers without the gate, so the cache starts empty
    message = f"error: enumeration of {maps} objects exceeds budget 10\n"
    chrom_poly.cache_clear()
    assert run_cli(*argv, "--budget", "10") == (2, "", message)
    assert run_cli(*argv, "--budget", "1000") == run_cli(*argv)


def test_graph_poly_over_budget_exits_two(tmp_path):
    code, out, err = run_cli("graph-poly", "--input", _graph_file(tmp_path, 15, []))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "budget" in err


def test_budget_message_stays_short_past_the_digit_limit(tmp_path, monkeypatch):
    # 10^5000 colorings: the count is written as a power, and none is enumerated
    monkeypatch.setattr(brute, "_cum_table", None)
    code, out, err = run_cli(
        "graph-count", "--input", _graph_file(tmp_path, 5000, []), "--x", "10", "--y", "0"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "budget" in err and len(err) < 200


def test_outputs_are_byte_identical_across_runs():
    for argv in [
        ("poset-poly", "--input", fixture("skewdiamond.json"), "--mode", "weak"),
        ("graph-poly", "--input", fixture("c4.json"), "--format", "json"),
        ("list-flats", "--input", fixture("k4.json")),
        ("list-orientations", "--input", fixture("c4.json"), "--format", "json"),
        ("check", "--input", fixture("p3.json"), "--kind", "all", "--format", "json"),
    ]:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


def test_console_entry_point_subprocess():
    # run from the directory the tests imported bivorder from, so the
    # subprocess finds the same package without PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "bivorder", "graph-poly", "--input", fixture("k2.json")],
        capture_output=True,
        text=True,
        cwd=Path(cli.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout == "x^2 - y\n"
