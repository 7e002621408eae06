"""Command line front end.

Verbs take a JSON input file (poset or graph, detected by its fields)
and print either plain text lines or a JSON document.  Exit codes:
0 success, 1 a requested check failed (its witness is printed), 2 bad
usage or bad input.  Output for identical inputs is byte-identical.

The argument parser is built once per process.  A verb returns its exit
code and functions for its JSON payload and text lines; stdout is written
once, after all of the verb's work, so an error leaves it empty.
poset-count and graph-count take one count from brute, which refuses
before any map is counted.  check prints the reports of
verify.run_checks, which runs every check.  --budget sets
poset.DEFAULT_BUDGET, the library's one limit, for the verb and restores
it after, so every gate the verb passes reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import IO, Callable

from . import brute, poset, verify
from .chrompoly import chrom_poly
from .graph import Graph, acyclic_orientations, flats, graph_from_json, graph_to_json
from .orderpoly import order_poly_strict, order_poly_weak
from .poset import BicoloredPoset, BudgetExceededError, linear_extensions, poset_from_json
from .ratpoly import MODES


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


_GRAPH_VERBS = ("graph-poly", "graph-count", "list-flats", "list-orientations")


def _dispatch(args: argparse.Namespace) -> tuple[Callable, Callable, int]:
    """Run the verb and return its JSON payload and its text lines, as
    functions so only the form asked for is built, and its exit code."""
    obj = _load_input(args.input)
    verb = args.verb
    if verb != "check":  # which takes either input
        need = "graph" if verb in _GRAPH_VERBS else "poset"
        if isinstance(obj, Graph) != (need == "graph"):
            raise ValueError(f"this verb needs a {need} input")
    if verb == "poset-poly":
        order_poly = order_poly_strict if args.mode == "strict" else order_poly_weak
        poly = order_poly(obj)
        return poly.to_json, lambda: [poly.text()], 0
    if verb == "graph-poly":
        poly = chrom_poly(obj)
        return poly.to_json, lambda: [poly.text()], 0
    if verb in ("poset-count", "graph-count"):
        if verb == "poset-count":
            count = brute.brute_count(obj, args.mode, args.x, args.y)
        else:
            count = brute.chrom_count(obj, args.x, args.y)
        return lambda: {"count": count}, lambda: [str(count)], 0
    if verb == "list-extensions":
        exts = linear_extensions(obj)
        return (
            lambda: {"extensions": [list(e) for e in exts]},
            lambda: (" ".join(map(str, e)) for e in exts),
            0,
        )
    if verb == "list-flats":
        all_flats = flats(obj)
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
        orients = acyclic_orientations(obj)
        return (
            lambda: {"orientations": [[list(e) for e in o.directed_edges] for o in orients]},
            lambda: (" ".join(f"{a}->{b}" for a, b in o.directed_edges) or "-" for o in orients),
            0,
        )
    reports = verify.run_checks(obj, args.kind)
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
