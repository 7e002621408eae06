import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import bivorder.cli as cli
from bivorder.orderpoly import CheckReport
from bivorder.ratpoly import BiPoly, X

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
    monkeypatch.setattr(cli, "check_reciprocity_graph", lambda *a, **k: failing)
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


def test_budget_error_exits_two(tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"n": 9, "covers": [], "celeste": []}')
    code, _, err = run_cli(
        "poset-count", "--input", str(big), "--mode", "strict",
        "--x", "8", "--y", "0", "--budget", "1000",
    )
    assert code == 2
    assert "budget" in err
    # 10^7 maps fit the default budget, the table's 10^14 cells do not
    one = tmp_path / "one.json"
    one.write_text('{"n": 1, "covers": [], "celeste": []}')
    code, out, err = run_cli(
        "poset-count", "--input", str(one), "--mode", "strict",
        "--x", "10000000", "--y", "1",
    )
    assert (code, out) == (2, "")
    assert "budget" in err


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
        exact = getattr(cli, f"order_poly_{m}")
        monkeypatch.setattr(cli, f"order_poly_{m}", lambda P, f=exact, e=error: f(P) + e)
    code, out, _ = run_cli(
        "check", "--input", fixture("skewdiamond.json"), "--kind", "oracle",
        "--format", "json",
    )
    assert code == 1
    witness = {"mode": mode, "x": x, "y": y, "poly": "1", "brute": 0}
    assert json.loads(out) == [{"name": "poset-oracle", "passed": False, "witness": witness}]


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
    for g in golden:
        code, out, err = run_cli(g["args"][0], "--input", fixture(g["fixture"]), *g["args"][1:])
        assert (code, err) == (0, "")
        assert out.encode() == g["stdout"].encode()


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
