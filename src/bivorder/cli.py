"""Command line front end.

Verbs take a JSON input file (poset or graph, detected by its fields)
and print either a plain text line or a JSON document.  Exit codes:
0 success, 1 a requested check failed (its witness is printed), 2 bad
usage or bad input.  Output for identical inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import IO

from .chrompoly import (
    check_reciprocity_graph,
    check_reciprocity_graph_poly,
    chrom_count,
    chrom_poly,
    classical_chrom_poly,
)
from .graph import Graph, acyclic_orientations, flats, graph_from_json
from .orderpoly import (
    BudgetExceededError,
    CheckReport,
    _valid_ys,
    brute_count,
    check_reciprocity_poset,
    order_poly_strict,
    order_poly_weak,
)
from .poset import BicoloredPoset, linear_extensions, poset_from_json
from .ratpoly import BiPoly, X

POSET_ORACLE_X = 6
GRAPH_ORACLE_X = 5
GRAPH_RECIPROCITY_X = 5


def _budget(text: str) -> int:
    """argparse type of --budget: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be nonnegative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bivorder",
        description="Bivariate order and chromatic counting polynomials.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str, mode=False, point=False, budget=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="path to a JSON poset or graph")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output form"
        )
        if mode:
            p.add_argument(
                "--mode", choices=("strict", "weak"), required=True,
                help="strict or weak order preservation",
            )
        if point:
            p.add_argument("--x", type=int, required=True, help="number of values")
            p.add_argument("--y", type=int, required=True, help="celeste threshold")
        if budget:
            p.add_argument(
                "--budget", type=_budget, default=None,
                help="max enumerated objects (default 10^7)",
            )
        return p

    add("poset-poly", "print a poset's counting polynomial", mode=True)
    add("poset-count", "count maps by brute force", mode=True, point=True, budget=True)
    add("graph-poly", "print a graph's chromatic polynomial")
    add("graph-count", "count colorings by brute force", point=True, budget=True)
    add("list-extensions", "list a poset's linear extensions")
    add("list-flats", "list a graph's connected-partition flats")
    add("list-orientations", "list a graph's acyclic orientations")
    check = add("check", "run verification checks", budget=True)
    check.add_argument(
        "--kind",
        choices=("poset-reciprocity", "graph-reciprocity", "oracle", "all"),
        default="all",
        help="which checks to run",
    )
    return parser


def _load_input(path: str) -> BicoloredPoset | Graph:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input JSON must be an object")
    poset_keys = {"covers", "celeste"} & data.keys()
    graph_keys = {"edges"} & data.keys()
    if poset_keys and graph_keys:
        raise ValueError("input mixes poset and graph fields")
    if graph_keys:
        return graph_from_json(data)
    if poset_keys:
        return poset_from_json(data)
    raise ValueError("input has neither poset nor graph fields")


def _need_poset(obj: BicoloredPoset | Graph) -> BicoloredPoset:
    if not isinstance(obj, BicoloredPoset):
        raise ValueError("this verb needs a poset input")
    return obj


def _need_graph(obj: BicoloredPoset | Graph) -> Graph:
    if not isinstance(obj, Graph):
        raise ValueError("this verb needs a graph input")
    return obj


def _emit_poly(poly: BiPoly, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        out.write(json.dumps(poly.to_json(), sort_keys=True) + "\n")
    else:
        out.write(poly.text() + "\n")


def _poset_oracle_check(P: BicoloredPoset, budget: int | None) -> CheckReport:
    polys = {"strict": order_poly_strict(P), "weak": order_poly_weak(P)}
    for x0 in range(POSET_ORACLE_X + 1):
        for mode, poly in polys.items():
            for y0 in _valid_ys(mode, x0):
                got = brute_count(P, mode, x0, y0, budget)
                want = poly.evaluate(x0, y0)
                if got != want:
                    return CheckReport(
                        "poset-oracle",
                        False,
                        {"mode": mode, "x": x0, "y": y0,
                         "poly": str(want), "brute": got},
                    )
    return CheckReport("poset-oracle", True)


def _graph_oracle_check(G: Graph, budget: int | None) -> CheckReport:
    poly = chrom_poly(G)
    for x0 in range(GRAPH_ORACLE_X + 1):
        for y0 in range(x0 + 1):
            got = chrom_count(G, x0, y0, budget)
            want = poly.evaluate(x0, y0)
            if got != want:
                return CheckReport(
                    "graph-oracle",
                    False,
                    {"x": x0, "y": y0, "poly": str(want), "brute": got},
                )
    if poly.subs_y_for_x() != classical_chrom_poly(G):
        return CheckReport(
            "graph-oracle",
            False,
            {"identity": "y=x", "got": poly.subs_y_for_x().text(),
             "want": classical_chrom_poly(G).text()},
        )
    if poly.subs_y(0) != X**G.n:
        return CheckReport(
            "graph-oracle",
            False,
            {"identity": "y=0", "got": poly.subs_y(0).text(),
             "want": (X**G.n).text()},
        )
    return CheckReport("graph-oracle", True)


def _graph_reciprocity_sweep(G: Graph, budget: int | None) -> CheckReport:
    for x0 in range(1, GRAPH_RECIPROCITY_X + 1):
        for y0 in range(1, x0 + 1):
            report = check_reciprocity_graph(G, x0, y0, budget)
            if not report.passed:
                return report
    return CheckReport("graph-reciprocity", True)


def _run_checks(obj: BicoloredPoset | Graph, kind: str, budget: int | None) -> list[CheckReport]:
    is_poset = isinstance(obj, BicoloredPoset)
    if kind == "poset-reciprocity" and not is_poset:
        raise ValueError("poset-reciprocity needs a poset input")
    if kind == "graph-reciprocity" and is_poset:
        raise ValueError("graph-reciprocity needs a graph input")
    reports: list[CheckReport] = []
    if is_poset:
        if kind in ("poset-reciprocity", "all"):
            reports.append(check_reciprocity_poset(obj))
        if kind in ("oracle", "all"):
            reports.append(_poset_oracle_check(obj, budget))
    else:
        if kind in ("graph-reciprocity", "all"):
            reports.append(_graph_reciprocity_sweep(obj, budget))
            reports.append(check_reciprocity_graph_poly(obj))
        if kind in ("oracle", "all"):
            reports.append(_graph_oracle_check(obj, budget))
    return reports


def _dispatch(args: argparse.Namespace, out: IO[str]) -> int:
    obj = _load_input(args.input)
    fmt = args.format
    if args.verb == "poset-poly":
        P = _need_poset(obj)
        poly = order_poly_strict(P) if args.mode == "strict" else order_poly_weak(P)
        _emit_poly(poly, fmt, out)
        return 0
    if args.verb == "graph-poly":
        G = _need_graph(obj)
        _emit_poly(chrom_poly(G), fmt, out)
        return 0
    if args.verb in ("poset-count", "graph-count"):
        if args.verb == "poset-count":
            count = brute_count(_need_poset(obj), args.mode, args.x, args.y, args.budget)
        else:
            count = chrom_count(_need_graph(obj), args.x, args.y, args.budget)
        if fmt == "json":
            out.write(json.dumps({"count": count}, sort_keys=True) + "\n")
        else:
            out.write(f"{count}\n")
        return 0
    if args.verb == "list-extensions":
        P = _need_poset(obj)
        exts = linear_extensions(P)
        if fmt == "json":
            out.write(
                json.dumps({"extensions": [list(e) for e in exts]}, sort_keys=True)
                + "\n"
            )
        else:
            for ext in exts:
                out.write(" ".join(map(str, ext)) + "\n")
        return 0
    if args.verb == "list-flats":
        G = _need_graph(obj)
        all_flats = flats(G)
        if fmt == "json":
            payload = [
                {
                    "blocks": [list(b) for b in F.blocks],
                    "contracted": sorted(F.contracted),
                    "quotient": {
                        "n": F.quotient.n,
                        "edges": [list(e) for e in F.quotient.sorted_edges()],
                    },
                }
                for F in all_flats
            ]
            out.write(json.dumps({"flats": payload}, sort_keys=True) + "\n")
        else:
            for F in all_flats:
                blocks = "|".join(",".join(map(str, b)) for b in F.blocks)
                contracted = ",".join(map(str, sorted(F.contracted))) or "-"
                qedges = (
                    " ".join(f"{u}-{v}" for u, v in F.quotient.sorted_edges()) or "-"
                )
                out.write(
                    f"blocks={blocks} contracted={contracted} quotient-edges={qedges}\n"
                )
        return 0
    if args.verb == "list-orientations":
        G = _need_graph(obj)
        orients = acyclic_orientations(G)
        if fmt == "json":
            payload = [[list(e) for e in o.directed_edges] for o in orients]
            out.write(json.dumps({"orientations": payload}, sort_keys=True) + "\n")
        else:
            for o in orients:
                line = " ".join(f"{a}->{b}" for a, b in o.directed_edges) or "-"
                out.write(line + "\n")
        return 0
    if args.verb == "check":
        reports = _run_checks(obj, args.kind, args.budget)
        if fmt == "json":
            out.write(
                json.dumps([r.to_json() for r in reports], sort_keys=True) + "\n"
            )
        else:
            for r in reports:
                if r.passed:
                    out.write(f"PASS {r.name}\n")
                else:
                    out.write(
                        f"FAIL {r.name} witness="
                        + json.dumps(r.witness, sort_keys=True)
                        + "\n"
                    )
        return 0 if all(r.passed for r in reports) else 1
    raise ValueError(f"unknown verb {args.verb!r}")


def run(argv: list[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse argv (without the program name) and execute; returns the exit
    code instead of raising SystemExit, so it is directly testable."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _dispatch(args, out)
    except (OSError, json.JSONDecodeError, ValueError, BudgetExceededError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
