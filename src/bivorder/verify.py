"""Every verification check, and run_checks, the check verb's one entry.

The paper's combinatorial reciprocity theorem: a bicolored poset of n
elements has (-1)^n p_strict(-x, -y) = p_weak(x, y + 1).  It is checked
on a poset's integer coordinates and on one word's chain sums.  Its graph
form, built on Dohmen, Poenitz and Tittmann's chi_G(x, y), equates
chrom_poly(G)(-x, -y) with the signed count of (flat, acyclic
orientation, compatible coloring) triples; count_compatible_colorings
counts one pair's share.

The oracle checks brute's counts against the polynomials.  One walker,
_sweep, runs every check sweep over the valid points with x0 <= n, which
fix a polynomial of total degree <= n.  One oracle check serves posets
and graphs: it fails a polynomial of total degree above n before its
sweep, so the sweep is complete.  Its counters are taken before any
polynomial is built, so the budget refuses first, and each reads one
cached brute table.

No check takes a budget; each refuses through poset's one gate.  The
layering runs one way: orderpoly and chrompoly build the polynomials,
brute counts, and none of them imports this module.
"""

from __future__ import annotations

__all__ = [
    "CheckReport", "check_reciprocity_poset", "check_reciprocity_word",
    "count_compatible_colorings", "check_reciprocity_graph", "check_reciprocity_graph_poly",
]

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

from .brute import _coloring_counter, _poset_counter, _valid_ys, brute_count
from .chrompoly import _reciprocity_poly, chrom_poly
from .graph import AcyclicOrientation, Flat, Graph, graph_to_json, orientation_to_poset
from .orderpoly import (
    _chain_poly, _order_coords, _order_poly, _word_key, order_poly_strict, order_poly_weak,
    word_poly_strict,
)
from .poset import BicoloredPoset, Word, _check_budget, ascents, poset_to_json
from .ratpoly import MODES, BiPoly


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification; a failure always carries a witness."""

    name: str
    passed: bool
    witness: dict | None = None

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise ValueError("failed check must carry a witness")

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


def _negated_coords(coords: dict) -> dict:
    """The nonzero coordinates of p(-x, -y) on the strict basis B[t, s] =
    binom(y, t) * binom(x - y, s), given p's.  By Vandermonde, binom(-u, a) =
    sum_j L[a][j] binom(u, j), L[a][j] = (-1)^a binom(a - 1, a - j) (zero at
    j = 0 < a), so B[t, s](-x, -y) = sum_{j, k} L[t][j] L[s][k] B[j, k]: one
    pass along s, a second along t.  This holds only on a basis whose
    arguments u = y, v = x - y are linear, not affine."""
    L = [[(0, 1)]] + [[(j, (-1) ** a * math.comb(a - 1, a - j)) for j in range(1, a + 1)]
                      for a in range(1, max(map(max, coords), default=0) + 1)]
    half: dict[tuple[int, int], int] = {}
    for (t, s), c in coords.items():
        for k, b in L[s]:
            half[t, k] = half.get((t, k), 0) + b * c
    out: dict[tuple[int, int], int] = {}
    for (t, k), c in half.items():
        for j, b in L[t]:
            out[j, k] = out.get((j, k), 0) + b * c
    return {jk: c for jk, c in out.items() if c}


def check_reciprocity_poset(P: BicoloredPoset) -> CheckReport:
    """Verify (-1)^n p_strict(-x, -y) == p_weak(x, y + 1) on the coordinates
    of the related elements R (see orderpoly._order_coords): the weak basis
    at y + 1 is the strict basis, so R's identity is (-1)^|R|
    _negated_coords(strict) == weak.  Each isolated element's factor
    satisfies the identity alone, (-1) * (-x) = x and (-1) * (-x + y) =
    x - (y + 1) + 1, and the factors are nonzero, so P's identity holds
    exactly when R's does.  Only a failure builds polynomials, P's whole
    ones, for the witness."""
    (strict, silver, celeste), (weak, _, _) = (_order_coords(P, mode) for mode in MODES)
    sign = (-1) ** (P.n - silver - celeste)
    if _negated_coords(strict) == {ts: sign * c for ts, c in weak.items()}:
        return CheckReport("poset-reciprocity", True)
    lhs = _order_poly("strict", strict, silver, celeste).negate_args() * (-1) ** P.n
    rhs = _order_poly("weak", weak, silver, celeste).shift_y(1)
    witness = {"poset": poset_to_json(P), "lhs": lhs.text(), "rhs": rhs.text()}
    return CheckReport("poset-reciprocity", False, witness)


def check_reciprocity_word(w: Word) -> CheckReport:
    """Word-level reciprocity: negating both arguments of the strict word
    polynomial matches a weak chain sum driven by the reversed word.

    The reversed word's descent count equals the original's ascent count,
    and the prefix statistic stays with the original mark, so the right
    side is the weak sum with those shifts, taken at y + 1.  The report
    always records both sides.
    """
    lhs = word_poly_strict(w).negate_args() * (-1) ** len(w)
    rhs = _chain_poly("weak", _word_key(w, ascents)).shift_y(1)
    witness = {"word": list(w.letters), "celeste_pos": w.celeste_pos,
               "lhs": lhs.text(), "rhs": rhs.text()}
    return CheckReport("word-reciprocity", lhs == rhs, witness)


def count_compatible_colorings(flat: Flat, orientation: AcyclicOrientation, x0: int, y0: int) -> int:
    """Count colorings of the quotient vertices with 1..x0 that weakly
    increase along every directed edge and stay above y0 on contracted
    vertices.  Enumerated on the pair's closed poset, not evaluated from
    any polynomial; the signed sum of these counts over all pairs is the
    right side the graph checks read from chrompoly._reciprocity_poly."""
    return brute_count(orientation_to_poset(flat, orientation), "weak", x0, y0 + 1)


def _graph_report(name: str, G: Graph, lhs, rhs, show: Callable, **point) -> CheckReport:
    """A graph check's report: it passes when the sides are equal, and else
    its witness is the graph, the point, if any, and both sides shown."""
    if lhs == rhs:
        return CheckReport(name, True)
    witness = {"graph": graph_to_json(G), **point, "lhs": show(lhs), "rhs": show(rhs)}
    return CheckReport(name, False, witness)


def check_reciprocity_graph(G: Graph, x0: int, y0: int) -> CheckReport:
    """Verify chrom_poly(G)(-x0, -y0), on 0 <= y0 <= x0 (ValueError
    outside), against the signed count of compatible colorings over all
    flats and orientations, read from one cached polynomial per graph
    (see chrompoly._reciprocity_poly); no flat, orientation or poset is
    enumerated.  The budget bounds its 3^n subset pairs, whatever x0."""
    if not 0 <= y0 <= x0:
        raise ValueError("graph reciprocity is checked on 0 <= y0 <= x0")
    _check_budget(G.n, 3, 0)
    lhs = chrom_poly(G).evaluate(-x0, -y0)
    rhs = _reciprocity_poly(G).evaluate(x0, y0)
    return _graph_report("graph-reciprocity", G, lhs, rhs, str, x=x0, y=y0)


def check_reciprocity_graph_poly(G: Graph) -> CheckReport:
    """Polynomial-level form: chrom_poly(-x, -y) equals the signed sum,
    over all (flat, acyclic orientation) pairs, of the weak order
    polynomials at y + 1, which is chrompoly._reciprocity_poly(G).  The
    sides differ only in their block weights (see the chrompoly module
    docstring).  The budget bounds both sides' 3^n subset pairs, as in
    check_reciprocity_graph."""
    _check_budget(G.n, 3, 0)
    lhs = chrom_poly(G).negate_args()
    rhs = _reciprocity_poly(G)
    return _graph_report("graph-reciprocity-poly", G, lhs, rhs, BiPoly.text)


def _sweep(
    name: str, n: int, cases: list[tuple[str, Callable]], first: Iterable = ()
) -> CheckReport:
    """The one loop of every check sweep: at each x0 <= n, every case (mode,
    point check) in order over the mode's valid thresholds.  A point check
    returns a witness or None, and the witnesses in first are read before
    any point.  The first witness fails the report; nothing past it is read."""
    points = (check(x0, y0) for x0 in range(n + 1) for mode, check in cases
              for y0 in _valid_ys(mode, x0))
    witness = next((w for w in chain(first, points) if w is not None), None)
    return CheckReport(name, witness is None, witness)


def _oracle_point(extras: dict, poly: BiPoly, counter: Callable, x0: int, y0: int) -> dict | None:
    """The oracle's point check: the brute count against the polynomial."""
    got, want = counter(x0, y0), poly.evaluate(x0, y0)
    return None if got == want else {**extras, "x": x0, "y": y0, "poly": str(want), "brute": got}


def _oracle_check(name: str, n: int, parts: list[tuple[str, dict, BiPoly, Callable]]) -> CheckReport:
    """Brute counts against each part (mode, witness extras, polynomial,
    counter) at every valid point with x0 <= n, strict before weak at each
    x0, each mode read from one brute table.  These points fix a polynomial
    of total degree <= n (see brute._simplex_coords), and every counting
    polynomial of n elements has total degree n, so a polynomial above it
    fails first, its witness the degree, and no wrong coordinate can pass."""
    degrees = ({**e, "degree": p.total_degree, "n": n} for _, e, p, _ in parts
               if p.total_degree > n)
    cases = [(m, functools.partial(_oracle_point, e, p, c)) for m, e, p, c in parts]
    return _sweep(name, n, cases, degrees)


def run_checks(obj: BicoloredPoset | Graph, kind: str) -> list[CheckReport]:
    """The reports of the check verb's kind (poset-reciprocity,
    graph-reciprocity, oracle or all) on a poset or a graph; ValueError
    when the kind names the other input."""
    is_poset = isinstance(obj, BicoloredPoset)
    need = kind.removesuffix("-reciprocity")
    if need != kind and is_poset != (need == "poset"):
        raise ValueError(f"{kind} needs a {need} input")
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
