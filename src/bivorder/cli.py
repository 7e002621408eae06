"""Command line front end.

Verbs take a JSON input file (poset or graph, detected by its fields)
and print either plain text lines or a JSON document.  Exit codes:
0 success, 1 a requested check failed (its witness is printed), 2 bad
usage or bad input.  Output for identical inputs is byte-identical.

The argument parser is built once per process.  A verb returns its exit
code and functions for its JSON payload and text lines; stdout is written
once, after all of the verb's work, so an error leaves it empty.  Brute
counts come from the library, which refuses before any map is counted:
poset-count and graph-count take one count, which past one block builds
no table, is gated on its x^n maps alone and sums a sparse input one
position at a time instead of enumerating it, and the oracle checks
read the counters' cached tables.  --budget sets
poset.DEFAULT_BUDGET, the library's one limit, for the verb and restores
it after, so every gate the verb passes reads it.  One walker, _sweep,
runs every check sweep over the valid points with x0 <= n, which fix a
polynomial of total degree <= n.  One oracle check serves posets and
graphs: it fails a polynomial of total degree above n before its sweep,
so the sweep is complete.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import IO, Callable

from . import poset
from .chrompoly import (
    _coloring_counter,
    check_reciprocity_graph,
    check_reciprocity_graph_poly,
    chrom_count,
    chrom_poly,
)
from .graph import Graph, acyclic_orientations, flats, graph_from_json, graph_to_json
from .orderpoly import (
    MODES,
    CheckReport,
    _poset_counter,
    _valid_ys,
    brute_count,
    check_reciprocity_poset,
    order_poly_strict,
    order_poly_weak,
)
from .poset import BicoloredPoset, BudgetExceededError, linear_extensions, poset_from_json
from .ratpoly import BiPoly


def _budget(text: str) -> int:
    """argparse type of --budget: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be nonnegative")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # argparse's width on a pipe, pinned so that help does not follow COLUMNS
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="bivorder",
        description="Bivariate order and chromatic counting polynomials.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str, mode=False, point=False, budget=False):
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        p.add_argument("--input", required=True, help="path to a JSON poset or graph")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output form"
        )
        if mode:
            p.add_argument(
                "--mode", choices=MODES, required=True,
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

    add("poset-poly", "print a poset's counting polynomial", mode=True, budget=True)
    add("poset-count", "count maps by brute force", mode=True, point=True, budget=True)
    add("graph-poly", "print a graph's chromatic polynomial", budget=True)
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
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("input JSON is nested too deeply") from None
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


def _sweep(name: str, n: int, cases: list[tuple[str, Callable]]) -> CheckReport:
    """The one loop of every check sweep: at each x0 <= n, every case (mode,
    point check) in order over the mode's valid thresholds.  A point check
    returns a witness or None; the first witness fails the report."""
    for x0 in range(n + 1):
        for mode, check in cases:
            for y0 in _valid_ys(mode, x0):
                if (witness := check(x0, y0)) is not None:
                    return CheckReport(name, False, witness)
    return CheckReport(name, True)


def _oracle_point(extras: dict, poly: BiPoly, counter: Callable, x0: int, y0: int) -> dict | None:
    """The oracle's point check: the brute count against the polynomial."""
    got, want = counter(x0, y0), poly.evaluate(x0, y0)
    return None if got == want else {**extras, "x": x0, "y": y0, "poly": str(want), "brute": got}


def _oracle_check(name: str, n: int, parts: list[tuple[str, dict, BiPoly, Callable]]) -> CheckReport:
    """Brute counts against each part (mode, witness extras, polynomial,
    counter) at every valid point with x0 <= n, strict before weak at each
    x0, each mode read from one brute table.  These points fix a polynomial
    of total degree <= n (see _simplex_coords), and every counting
    polynomial of n elements has total degree n, so a polynomial above it
    fails first, its witness the degree, and no wrong coordinate can pass."""
    for _, extras, poly, _ in parts:
        if (degree := poly.total_degree) > n:
            return CheckReport(name, False, {**extras, "degree": degree, "n": n})
    cases = [(m, functools.partial(_oracle_point, e, p, c)) for m, e, p, c in parts]
    return _sweep(name, n, cases)


def _run_checks(obj: BicoloredPoset | Graph, kind: str) -> list[CheckReport]:
    is_poset = isinstance(obj, BicoloredPoset)
    if kind == "poset-reciprocity" and not is_poset:
        raise ValueError("poset-reciprocity needs a poset input")
    if kind == "graph-reciprocity" and is_poset:
        raise ValueError("graph-reciprocity needs a graph input")
    reports: list[CheckReport] = []
    if is_poset and kind in ("poset-reciprocity", "all"):
        reports.append(check_reciprocity_poset(obj))
    if not is_poset and kind in ("graph-reciprocity", "all"):
        point = lambda x0, y0: check_reciprocity_graph(obj, x0, y0).witness
        reports.append(_sweep("graph-reciprocity", obj.n, [("strict", point)]))
        reports.append(check_reciprocity_graph_poly(obj))
    if kind in ("oracle", "all"):
        # the counters come first, so the budget refuses before any polynomial
        if is_poset:
            counters = [_poset_counter(obj, mode, obj.n) for mode in MODES]
            polys = (order_poly_strict(obj), order_poly_weak(obj))
            parts = [(m, {"mode": m}, p, c) for m, p, c in zip(MODES, polys, counters)]
        else:
            counter = _coloring_counter(obj, obj.n)
            parts = [("strict", {}, chrom_poly(obj), counter)]
        name = "poset-oracle" if is_poset else "graph-oracle"
        reports.append(_oracle_check(name, obj.n, parts))
    return reports


def _dispatch(args: argparse.Namespace) -> tuple[Callable, Callable, int]:
    """Run the verb and return its JSON payload and its text lines, as
    functions so only the form asked for is built, and its exit code."""
    obj = _load_input(args.input)
    verb = args.verb
    if verb == "poset-poly":
        P = _need_poset(obj)
        order_poly = order_poly_strict if args.mode == "strict" else order_poly_weak
        poly = order_poly(P)
        return poly.to_json, lambda: [poly.text()], 0
    if verb == "graph-poly":
        poly = chrom_poly(_need_graph(obj))
        return poly.to_json, lambda: [poly.text()], 0
    if verb in ("poset-count", "graph-count"):
        if verb == "poset-count":
            count = brute_count(_need_poset(obj), args.mode, args.x, args.y)
        else:
            count = chrom_count(_need_graph(obj), args.x, args.y)
        return lambda: {"count": count}, lambda: [str(count)], 0
    if verb == "list-extensions":
        exts = linear_extensions(_need_poset(obj))
        return (
            lambda: {"extensions": [list(e) for e in exts]},
            lambda: (" ".join(map(str, e)) for e in exts),
            0,
        )
    if verb == "list-flats":
        all_flats = flats(_need_graph(obj))
        return (
            lambda: {"flats": [
                {
                    "blocks": [list(b) for b in F.blocks],
                    "contracted": sorted(F.contracted),
                    "quotient": graph_to_json(F.quotient),
                }
                for F in all_flats
            ]},
            lambda: (
                "blocks=" + "|".join(",".join(map(str, b)) for b in F.blocks)
                + " contracted=" + (",".join(map(str, sorted(F.contracted))) or "-")
                + " quotient-edges="
                + (" ".join(f"{u}-{v}" for u, v in F.quotient.sorted_edges()) or "-")
                for F in all_flats
            ),
            0,
        )
    if verb == "list-orientations":
        orients = acyclic_orientations(_need_graph(obj))
        return (
            lambda: {"orientations": [[list(e) for e in o.directed_edges] for o in orients]},
            lambda: (" ".join(f"{a}->{b}" for a, b in o.directed_edges) or "-" for o in orients),
            0,
        )
    reports = _run_checks(obj, args.kind)
    return (
        lambda: [r.to_json() for r in reports],
        lambda: (
            f"PASS {r.name}" if r.passed
            else f"FAIL {r.name} witness=" + json.dumps(r.witness, sort_keys=True)
            for r in reports
        ),
        0 if all(r.passed for r in reports) else 1,
    )


def run(argv: list[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse argv (without the program name) and execute; returns the exit
    code instead of raising SystemExit, so it is directly testable."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    saved = poset.DEFAULT_BUDGET
    if (budget := getattr(args, "budget", None)) is not None:
        poset.DEFAULT_BUDGET = budget
    try:
        payload, lines, code = _dispatch(args)
    except (OSError, ValueError, BudgetExceededError,
            MemoryError, OverflowError) as exc:  # the last two: an input too large to hold
        err.write(f"error: {str(exc) or 'out of memory'}\n")
        return 2
    finally:
        poset.DEFAULT_BUDGET = saved
    if args.format == "json":
        out.write(json.dumps(payload(), sort_keys=True) + "\n")
    else:
        out.write("".join(line + "\n" for line in lines()))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
