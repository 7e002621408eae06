"""Seeded inputs, timed items, independent checks and traced stage
compositions of the four benchmark workloads.

Each workload draws its inputs slot by slot from a cycle of input
shapes, so every prefix of whole cycles has the same mix of sizes.
That keeps throughput comparable between seeds.  Input properties used
as filters (linear-extension counts, flat x orientation pair counts)
are computed here by small dynamic programs, not by the library, so
generating inputs warms none of the library's caches.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from bivorder import (
    X,
    BiPoly,
    CheckReport,
    Word,
    acyclic_orientations,
    ascents,
    brute_count,
    build_graph,
    build_poset,
    check_reciprocity_graph,
    check_reciprocity_graph_poly,
    check_reciprocity_poset,
    chrom_count,
    chrom_poly,
    classical_chrom_poly,
    count_compatible_colorings,
    covers,
    descents,
    flats,
    graph_from_json,
    interpolate_brute,
    interpolate_poly,
    linear_extensions,
    natural_labeling,
    order_poly_strict,
    order_poly_weak,
    orientation_to_poset,
    poset_from_json,
    reverse_natural_labeling,
    word_of,
    word_poly_strict,
    word_poly_weak,
)
from bivorder.cli import run as cli_run

from tracing import Tracer

CELESTE_SHARE = 0.3
MAX_DRAWS_PER_SLOT = 20_000
BRUTE_CHECK_X = 4  # independent brute counts stay at x0 <= 4
RECIPROCITY_X = 5
CLI_POSET_COUNT = (7, 8)  # n, x: 8^7 = 2.1 M maps per count
CLI_GRAPH_COUNT = (6, 11)  # n, x: 11^6 = 1.8 M maps per count
STRICT = (word_poly_strict,)
BOTH = (word_poly_strict, word_poly_weak)


# input properties -------------------------------------------------------------


def extension_count(n: int, less) -> int:
    """Linear extensions counted over order ideals (bitmask DP)."""
    pred = [0] * n
    for a, b in less:
        pred[b] |= 1 << a
    ways = [0] * (1 << n)
    ways[0] = 1
    for ideal in range(1 << n):
        if ways[ideal]:
            for v in range(n):
                if not ideal >> v & 1 and pred[v] & ~ideal == 0:
                    ways[ideal | 1 << v] += ways[ideal]
    return ways[-1]


def pair_count(n: int, edges) -> int:
    """Number of (flat, acyclic orientation of its quotient) pairs.

    Inclusion-exclusion over the source blocks of the orientation: a set
    of pairwise non-adjacent connected source blocks with union W is
    exactly the components of G[W], so
    pairs(U) = sum over nonempty W in U of (-1)^(c(G[W]) + 1) pairs(U - W).
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    comps = [0] * (1 << n)
    for sub in range(1, 1 << n):
        rest = sub
        count = 0
        while rest:
            seen = rest & -rest
            frontier = seen
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                grow = adj[bit.bit_length() - 1] & rest & ~seen
                seen |= grow
                frontier |= grow
            rest &= ~seen
            count += 1
        comps[sub] = count
    pairs = [0] * (1 << n)
    pairs[0] = 1
    for u in range(1, 1 << n):
        total = 0
        w = u
        while w:
            sign = 1 if comps[w] % 2 else -1
            total += sign * pairs[u & ~w]
            w = (w - 1) & u
        pairs[u] = total
    return pairs[-1]


def stat_words(n: int):
    """One word of length n for every (celeste position, ascents before
    it, ascents from it on), the key a word polynomial depends on."""
    for cp in [None, *range(1, n + 1)]:
        split = 1 if cp is None else cp
        for before in range(split):
            for after in range(n - split + 1):
                up = set(range(1, before + 1)) | set(range(split, split + after))
                yield word_with_ascents(n, up, cp)


def word_with_ascents(n: int, up: set, cp: int | None) -> Word:
    """Reverse the blocks of 1..n between consecutive ascent positions."""
    letters: list[int] = []
    start = 1
    for j in range(1, n + 1):
        if j == n or j in up:
            letters.extend(range(j, start - 1, -1))
            start = j + 1
    return Word(tuple(letters), cp)


def log_bands(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """count consecutive bands splitting [lo, hi] evenly on a log scale."""
    edges = [round(lo * (hi / lo) ** (i / count)) for i in range(count + 1)]
    return [(a, b - 1) for a, b in zip(edges, edges[1:-1])] + [(edges[-2], hi)]


def random_poset(rng: random.Random, n: int):
    p = rng.uniform(0.05, 0.5)
    perm = list(range(n))
    rng.shuffle(perm)
    rel = [
        (perm[a], perm[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < p
    ]
    celeste = rng.sample(range(n), round(CELESTE_SHARE * n))
    return build_poset(n, rel, celeste)


def random_graph(rng: random.Random, n: int, p_lo: float, p_hi: float):
    p = rng.uniform(p_lo, p_hi)
    return build_graph(
        n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    )


def poset_form(P) -> dict:
    """Canonical JSON of a poset (full relation, not covers, so the
    library's covers cache stays cold); also accepted by poset_from_json."""
    return {"n": P.n, "covers": sorted([list(r) for r in P.less]), "celeste": sorted(P.celeste)}


def graph_form(G) -> dict:
    return {"n": G.n, "edges": sorted([list(e) for e in G.edges])}


CACHED = {
    "linear_extensions": linear_extensions,
    "covers": covers,
    "flats": flats,
    "acyclic_orientations": acyclic_orientations,
    "chrom_poly": chrom_poly,
}


def cache_snapshot(full: bool = False) -> dict:
    """cache_info() of the library's public lru caches: (hits, misses),
    or every field when full."""
    infos = {name: fn.cache_info() for name, fn in CACHED.items()}
    if full:
        return {name: info._asdict() for name, info in infos.items()}
    return {name: (info.hits, info.misses) for name, info in infos.items()}


# inputs -------------------------------------------------------------------------


@dataclass
class Input:
    """One generated input: the library object, its canonical JSON form,
    and for cli items the verb arguments."""

    slot: int
    kind: str
    obj: Any
    form: dict
    argv: list[str] = field(default_factory=list)
    size: int = 0

    def canonical(self) -> dict:
        return {"slot": self.slot, "kind": self.kind, "form": self.form, "argv": self.argv}


class Workload:
    """A workload: a cycle of input slots, a timed item, an independent
    check and a traced stage composition of the item."""

    name = ""
    slots: tuple = ()
    warmup_slots: tuple = ()
    cycle_seconds = 1.0  # nominal time of one cycle, see timed_cycles()
    chain_sizes: tuple = ()  # (word length, word polynomial functions)

    def draw(self, rng: random.Random, slot) -> Input | None:
        raise NotImplementedError

    def item(self, inp: Input):
        raise NotImplementedError

    def check(self, inp: Input, out) -> str | None:
        """Return None when the output passes, else a description."""
        raise NotImplementedError

    def traced(self, inp: Input, tr: Tracer):
        raise NotImplementedError

    def item_name(self, inp: Input) -> str:
        return self.name

    def generate(self, seed: int, cycles: int, workdir: Path) -> tuple[list[Input], list[Input], str]:
        """Warm-up inputs, a pool of the given number of cycles, and the
        SHA-256 of the canonical JSON of both; all inputs are distinct."""
        rng = random.Random(f"{self.name}:{seed}")
        seen: set = set()
        out: list[Input] = []
        plan = list(self.warmup_slots) + list(self.slots) * cycles
        for index, slot in enumerate(plan):
            for _ in range(MAX_DRAWS_PER_SLOT):
                inp = self.draw(rng, slot)
                if inp is not None and inp.obj not in seen:
                    break
            else:
                raise RuntimeError(f"{self.name}: no new input for slot {slot}")
            seen.add(inp.obj)
            inp.slot = index
            out.append(inp)
        canonical = json.dumps([i.canonical() for i in out], sort_keys=True, separators=(",", ":"))
        self.prepare(out, workdir)
        k = len(self.warmup_slots)
        return out[:k], out[k:], hashlib.sha256(canonical.encode()).hexdigest()

    def prepare(self, inputs: list[Input], workdir: Path) -> None:
        """Hook for workloads whose inputs live in files."""

    def warm_up(self, inputs: list[Input]) -> None:
        """Compute every chain sum a word of the workload's sizes can need,
        then run the warm-up items.  Chain sums are cached on small
        integers, so without this, how many of them a run computes while
        timed would depend on the seed."""
        for n, word_polys in self.chain_sizes:
            for w in stat_words(n):
                for word_poly in word_polys:
                    word_poly(w)
        for inp in inputs:
            self.item(inp)

    def twin(self, inp: Input, rng: random.Random, taken: set, workdir: Path) -> Input | None:
        """The input with its elements relabeled: the same structure and
        cost, but a distinct object to every cache.  None when every
        relabeling tried is already taken."""
        for _ in range(100):
            perm = list(range(inp.obj.n))
            rng.shuffle(perm)
            obj = relabel(inp.obj, perm)
            if obj not in taken:
                form = poset_form(obj) if inp.kind == "poset" else graph_form(obj)
                return Input(inp.slot, inp.kind, obj, form, list(inp.argv), inp.size)
        return None


def relabel(obj, perm: list[int]):
    if hasattr(obj, "less"):
        return build_poset(
            obj.n, [(perm[a], perm[b]) for a, b in obj.less], [perm[c] for c in obj.celeste]
        )
    return build_graph(obj.n, [(perm[u], perm[v]) for u, v in obj.edges])


def sum_polys(polys) -> BiPoly:
    total = BiPoly.zero()
    for p in polys:
        total = total + p
    return total


def add_stage(polys: list, tr: Tracer) -> BiPoly:
    """Sum word or pair polynomials one BiPoly addition at a time, as the
    library does."""
    tr.count("ratpoly.add.calls", len(polys))
    tr.count("ratpoly.add.results", 1)
    total = tr.call("ratpoly.add", sum_polys, polys)
    tr.defer(lambda: tr.count("ratpoly.add.result_terms", len(total.terms)))
    return total


def word_key(w, stat: Callable) -> tuple[int, int, int, int]:
    """(n, k, prefix statistic, full statistic): everything a word
    polynomial depends on, computed with the public ascents/descents."""
    n = len(w.letters)
    if w.celeste_pos is None:
        return n, n, 0, len(stat(w.letters))
    return n, w.celeste_pos - 1, len(stat(w.letters[: w.celeste_pos])), len(stat(w.letters))


def poset_reciprocity(P, strict: BiPoly, weak: BiPoly, tr: Tracer) -> CheckReport:
    """check_reciprocity_poset from its stages, given both polynomials."""

    def compare():
        lhs = tr.call("ratpoly.transform", lambda: strict.negate_args() * (-1) ** P.n)
        rhs = tr.call("ratpoly.transform", weak.shift_y, 1)
        if lhs == rhs:
            return CheckReport("poset-reciprocity", True)
        return CheckReport("poset-reciprocity", False, {"lhs": lhs.text(), "rhs": rhs.text()})

    return tr.call("orderpoly.reciprocity", compare)


def brute_grid_problem(P, strict: BiPoly, weak: BiPoly) -> str | None:
    for x0 in range(1, BRUTE_CHECK_X + 1):
        for y0 in range(x0 + 1):
            if brute_count(P, "strict", x0, y0) != strict.evaluate(x0, y0):
                return f"strict count differs at ({x0}, {y0})"
        for y0 in range(1, x0 + 2):
            if brute_count(P, "weak", x0, y0) != weak.evaluate(x0, y0):
                return f"weak count differs at ({x0}, {y0})"
    return None


def chrom_problem(G, poly: BiPoly) -> str | None:
    if poly.subs_y_for_x() != classical_chrom_poly(G):
        return "y=x differs from the classical chromatic polynomial"
    if poly.subs_y(0) != X**G.n:
        return "y=0 differs from x^n"
    for x0 in range(BRUTE_CHECK_X + 1):
        for y0 in range(x0 + 1):
            if chrom_count(G, x0, y0) != poly.evaluate(x0, y0):
                return f"coloring count differs at ({x0}, {y0})"
    return None


# poset-sweep ----------------------------------------------------------------------


class PosetSweep(Workload):
    """order_poly_strict + order_poly_weak + check_reciprocity_poset on
    one poset with 7 elements and 200-300 linear extensions."""

    name = "poset-sweep"
    # (n, fewest extensions, most extensions): four log-spaced bands over
    # one narrow range.  Items of one size class keep the latency
    # percentiles inside one cluster, so they hold from seed to seed.
    slots = tuple((7, lo, hi) for lo, hi in log_bands(200, 300, 4))
    warmup_slots = ((7, 200, 300), (7, 200, 300))
    cycle_seconds = 0.75
    chain_sizes = ((7, BOTH),)

    def draw(self, rng, slot):
        n, lo, hi = slot
        P = random_poset(rng, n)
        e = extension_count(n, P.less)
        if not lo <= e <= hi:
            return None
        return Input(0, "poset", P, poset_form(P), size=e)

    def item(self, inp):
        P = inp.obj
        return order_poly_strict(P), order_poly_weak(P), check_reciprocity_poset(P)

    def check(self, inp, out):
        strict, weak, report = out
        if not report.passed:
            return "reciprocity failed"
        return brute_grid_problem(inp.obj, strict, weak)

    def traced(self, inp, tr):
        P = inp.obj
        exts = tr.call("poset.linear_extensions", linear_extensions, P)
        tr.count("poset.linear_extensions.count", len(exts))
        totals = []
        for labeling, word_poly, stat in (
            (reverse_natural_labeling, word_poly_strict, ascents),
            (natural_labeling, word_poly_weak, descents),
        ):
            lab = tr.call("poset.labeling", labeling, P)
            words = tr.call("poset.word_of", lambda: [word_of(e, lab, P) for e in exts])
            tr.count("poset.word_of.calls", len(words))
            polys = tr.call("orderpoly.word_poly", lambda: [word_poly(w) for w in words])
            tr.count("orderpoly.word_poly.calls", len(polys))
            tr.defer(lambda words=words, stat=stat: tr.count(
                "orderpoly.word_poly.distinct_keys", len({word_key(w, stat) for w in words})))
            totals.append(add_stage(polys, tr))
        strict, weak = totals
        return strict, weak, poset_reciprocity(P, strict, weak, tr)


# graph-sweep ----------------------------------------------------------------------


class GraphSweep(Workload):
    """chrom_poly on one graph with 6 vertices and 400-700 flat x
    acyclic-orientation pairs."""

    name = "graph-sweep"
    # (n, fewest pairs, most pairs): three log-spaced bands over one
    # narrow range, for the reason given at PosetSweep
    slots = tuple((6, lo, hi) for lo, hi in log_bands(400, 700, 3))
    warmup_slots = ((6, 400, 700), (6, 400, 700))
    cycle_seconds = 0.75
    chain_sizes = tuple((n, STRICT) for n in range(1, 7))

    def draw(self, rng, slot):
        n, lo, hi = slot
        G = random_graph(rng, n, 0.2, 0.8)
        pairs = pair_count(n, G.edges)
        if not lo <= pairs <= hi:
            return None
        return Input(0, "graph", G, graph_form(G), size=pairs)

    def item(self, inp):
        return chrom_poly(inp.obj)

    def check(self, inp, out):
        return chrom_problem(inp.obj, out)

    def traced(self, inp, tr):
        return chrom_poly_stages(inp.obj, tr)


def flat_orientation_posets(G, tr: Tracer):
    """(sign, poset) for every flat and acyclic orientation, by stages."""
    fl = tr.call("graph.flats", flats, G)
    tr.count("graph.flats.count", len(fl))
    orients = tr.call(
        "graph.acyclic_orientations", lambda: [acyclic_orientations(F.quotient) for F in fl]
    )
    tr.count("graph.acyclic_orientations.count", sum(len(o) for o in orients))
    posets = tr.call(
        "graph.orientation_to_poset",
        lambda: [
            ((-1) ** F.quotient.n, orientation_to_poset(F, sigma))
            for F, os in zip(fl, orients)
            for sigma in os
        ],
    )
    tr.count("graph.orientation_to_poset.calls", len(posets))
    return posets


def chrom_poly_stages(G, tr: Tracer) -> BiPoly:
    posets = flat_orientation_posets(G, tr)
    polys = tr.call(
        "chrompoly.order_poly", lambda: [order_poly_strict(P) for _, P in posets], layer="orderpoly"
    )
    tr.count("chrompoly.pairs", len(posets))
    tr.defer(lambda: tr.count("chrompoly.distinct_posets", len({P for _, P in posets})))
    return add_stage(polys, tr)


# verify -----------------------------------------------------------------------------


class Verify(Workload):
    """The oracle side: interpolated brute counts against the closed
    forms, and the reciprocity and specialization identities, on posets
    and graphs with 5 elements."""

    name = "verify"
    # (kind, n, fewest, most) where the band bounds relations or edges.
    # Only n = 5: an n = 4 item costs a twentieth of an n = 5 one.  A
    # graph item's cost grows with its edges, a poset item's hardly with
    # its relations; at 5 edges both cost about the same, so the item
    # latencies form one cluster.
    slots = (("poset", 5, 3, 6), ("graph", 5, 5, 5))
    warmup_slots = slots
    cycle_seconds = 0.9
    chain_sizes = tuple((n, BOTH) for n in range(1, 6))

    def draw(self, rng, slot):
        kind, n, lo, hi = slot
        if kind == "poset":
            P = random_poset(rng, n)
            if not lo <= len(P.less) <= hi:
                return None
            return Input(0, kind, P, poset_form(P), size=n)
        G = random_graph(rng, n, 0.3, 0.9)
        if not lo <= len(G.edges) <= hi:
            return None
        return Input(0, kind, G, graph_form(G), size=n)

    def item(self, inp):
        if inp.kind == "poset":
            P = inp.obj
            strict, weak = order_poly_strict(P), order_poly_weak(P)
            return (
                strict,
                weak,
                interpolate_brute(P, "strict"),
                interpolate_brute(P, "weak"),
                check_reciprocity_poset(P),
            )
        G = inp.obj
        poly = chrom_poly(G)
        return (
            poly,
            interpolate_poly(lambda a, b: chrom_count(G, a, b), G.n, "strict"),
            tuple(
                check_reciprocity_graph(G, x0, y0)
                for x0 in range(1, RECIPROCITY_X + 1)
                for y0 in range(1, x0 + 1)
            ),
            check_reciprocity_graph_poly(G),
            poly.subs_y_for_x() == classical_chrom_poly(G),
            poly.subs_y(0) == X**G.n,
        )

    def check(self, inp, out):
        if inp.kind == "poset":
            strict, weak, interp_strict, interp_weak, report = out
            ok = interp_strict == strict and interp_weak == weak and report.passed
            return None if ok else "poset report failed"
        poly, interp, numeric, poly_report, at_x, at_zero = out
        ok = (
            interp == poly
            and all(r.passed for r in numeric)
            and poly_report.passed
            and at_x
            and at_zero
        )
        return None if ok else "graph report failed"

    def traced(self, inp, tr):
        if inp.kind == "poset":
            P = inp.obj
            strict = tr.call("orderpoly.order_poly", order_poly_strict, P)
            weak = tr.call("orderpoly.order_poly", order_poly_weak, P)
            interps = []
            for mode in ("strict", "weak"):

                def counter(a, b, mode=mode):
                    tr.count("orderpoly.brute.calls", 1)
                    tr.count("orderpoly.brute.maps", a**P.n)
                    tr.count("orderpoly.brute.bytes_computed", a**P.n * P.n * 8)
                    return tr.call("orderpoly.brute", brute_count, P, mode, a, b)

                interps.append(interpolate_stage(counter, P.n, mode, tr))
            return strict, weak, *interps, poset_reciprocity(P, strict, weak, tr)
        G = inp.obj
        poly = tr.call("chrompoly.chrom_poly", chrom_poly, G)

        def counter(a, b):
            tr.count("chrompoly.chrom_count.calls", 1)
            tr.count("chrompoly.chrom_count.maps", a**G.n)
            return tr.call("chrompoly.chrom_count", chrom_count, G, a, b)

        interp = interpolate_stage(counter, G.n, "strict", tr)
        numeric = tr.call("chrompoly.reciprocity", lambda: graph_numeric_reciprocity(G, poly, tr))
        poly_report = tr.call("chrompoly.reciprocity", lambda: graph_poly_reciprocity(G, poly, tr))
        at_x = tr.call("ratpoly.transform", poly.subs_y_for_x) == tr.call(
            "chrompoly.classical", classical_chrom_poly, G
        )
        at_zero = tr.call("ratpoly.transform", poly.subs_y, 0) == tr.call(
            "ratpoly.transform", lambda: X**G.n
        )
        return poly, interp, numeric, poly_report, at_x, at_zero


def interpolate_stage(counter: Callable[[int, int], int], n: int, mode: str, tr: Tracer) -> BiPoly:
    tr.count("orderpoly.interpolate.calls", 1)
    tr.count("orderpoly.interpolate.points", (n + 1) ** 2)
    return tr.call("orderpoly.interpolate", interpolate_poly, counter, n, mode)


def graph_numeric_reciprocity(G, poly: BiPoly, tr: Tracer) -> tuple:
    """check_reciprocity_graph over 1 <= y0 <= x0 <= 5, by stages."""
    fl = flats(G)
    reports = []
    for x0 in range(1, RECIPROCITY_X + 1):
        for y0 in range(1, x0 + 1):
            tr.count("ratpoly.evaluate.calls", 1)
            lhs = tr.call("ratpoly.evaluate", poly.evaluate, -x0, -y0)
            rhs = tr.call(
                "chrompoly.compatible",
                lambda: sum(
                    (-1) ** F.quotient.n * count_compatible_colorings(F, sigma, x0, y0)
                    for F in fl
                    for sigma in acyclic_orientations(F.quotient)
                ),
            )
            if lhs == rhs:
                reports.append(CheckReport("graph-reciprocity", True))
            else:
                witness = {"x": x0, "y": y0, "lhs": str(lhs), "rhs": str(rhs)}
                reports.append(CheckReport("graph-reciprocity", False, witness))
    return tuple(reports)


def graph_poly_reciprocity(G, poly: BiPoly, tr: Tracer) -> CheckReport:
    """check_reciprocity_graph_poly by stages."""
    lhs = tr.call("ratpoly.transform", poly.negate_args)
    posets = flat_orientation_posets(G, tr)
    weak = tr.call(
        "orderpoly.order_poly", lambda: [order_poly_weak(P) for _, P in posets]
    )
    shifted = tr.call(
        "ratpoly.transform", lambda: [sign * p.shift_y(1) for (sign, _), p in zip(posets, weak)]
    )
    rhs = add_stage(shifted, tr)
    if lhs == rhs:
        return CheckReport("graph-reciprocity-poly", True)
    return CheckReport("graph-reciprocity-poly", False, {"lhs": lhs.text(), "rhs": rhs.text()})


# cli --------------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(argv, stdout=out, stderr=err)
    return code, out.getvalue() + err.getvalue()


class Cli(Workload):
    """One in-process bivorder.cli.run call with --format json on a
    generated JSON file."""

    name = "cli"
    # (verb, argument, fewest, most) where the band bounds linear
    # extensions of 7-element posets or pairs of 6-vertex graphs.  Sorted
    # by latency a cycle is two quick checks, the two counts, then eight
    # polynomials of about the same cost.  The median and the tail both
    # fall among the polynomials, well inside that cluster.  The counts
    # stay out of it: numpy-bound brute counts follow the pure-Python
    # host gauge (see run.py) less closely than the polynomials do.
    slots = (
        ("check", "poset", 0, 0),
        ("check", "graph", 0, 0),
        ("poset-count", None, 200, 800),
        ("graph-count", None, 200, 800),
    ) + (("poset-poly", "strict", 750, 900), ("graph-poly", None, 400, 700)) * 4
    warmup_slots = slots[:6]
    cycle_seconds = 3.0
    chain_sizes = tuple((n, BOTH if n <= 4 else STRICT) for n in range(1, 8))

    def draw(self, rng, slot):
        verb, arg, lo, hi = slot
        if verb == "check" and arg == "poset":
            P = random_poset(rng, 4)
            return Input(0, "poset", P, poset_form(P), ["check"], 4)
        if verb == "check":
            G = random_graph(rng, 4, 0.3, 0.9)
            if len(G.edges) < 3:
                return None
            return Input(0, "graph", G, graph_form(G), ["check"], 4)
        if verb.startswith("poset"):
            P = random_poset(rng, 7)
            size = extension_count(7, P.less)
            if not lo <= size <= hi:
                return None
            if verb == "poset-poly":
                argv = ["poset-poly", "--mode", arg]
            else:
                _, x = CLI_POSET_COUNT
                mode = rng.choice(("strict", "weak"))
                y = rng.randint(0, x) if mode == "strict" else rng.randint(1, x + 1)
                argv = ["poset-count", "--mode", mode, "--x", str(x), "--y", str(y)]
            return Input(0, "poset", P, poset_form(P), argv, size)
        G = random_graph(rng, 6, 0.2, 0.8)
        size = pair_count(6, G.edges)
        if not lo <= size <= hi:
            return None
        argv = ["graph-poly"]
        if verb == "graph-count":
            _, x = CLI_GRAPH_COUNT
            argv = ["graph-count", "--x", str(x), "--y", str(rng.randint(0, x))]
        return Input(0, "graph", G, graph_form(G), argv, size)

    def item_name(self, inp):
        return f"cli.{inp.argv[0]}"

    def prepare(self, inputs, workdir):
        for inp in inputs:
            self.write_input(inp, workdir / f"{self.name}-{inp.slot}.json")

    @staticmethod
    def write_input(inp: Input, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(inp.form), encoding="utf-8")
        inp.argv = inp.argv[: inp.argv.index("--input")] if "--input" in inp.argv else inp.argv
        inp.argv += ["--input", str(path), "--format", "json"]

    def twin(self, inp, rng, taken, workdir):
        twin = super().twin(inp, rng, taken, workdir)
        if twin is not None:
            self.write_input(twin, workdir / f"{self.name}-{inp.slot}-twin.json")
        return twin

    def item(self, inp):
        return run_cli(inp.argv)

    def check(self, inp, out):
        code, text = out
        if code != 0:
            return f"exit code {code}: {text.strip()}"
        data = json.loads(text)
        verb = inp.argv[0]
        obj = inp.obj
        if verb == "check":
            direct = (
                check_reciprocity_poset(obj)
                if inp.kind == "poset"
                else check_reciprocity_graph_poly(obj)
            )
            if not all(r["passed"] for r in data) or direct.to_json() not in data:
                return "check reports differ from the library"
            return None
        if verb == "poset-poly":
            mode = inp.argv[2]
            direct = order_poly_strict(obj) if mode == "strict" else order_poly_weak(obj)
            return None if BiPoly.from_json(data) == direct else "polynomial differs"
        if verb == "graph-poly":
            return None if BiPoly.from_json(data) == chrom_poly(obj) else "polynomial differs"
        x, y = int(inp.argv[inp.argv.index("--x") + 1]), int(inp.argv[inp.argv.index("--y") + 1])
        if verb == "poset-count":
            mode = inp.argv[2]
            poly = order_poly_strict(obj) if mode == "strict" else order_poly_weak(obj)
        else:
            poly = chrom_poly(obj)
        return None if data["count"] == poly.evaluate(x, y) else "count differs from the polynomial"

    def traced(self, inp, tr):
        verb = inp.argv[0]
        if verb == "check":
            return tr.call("cli.run", run_cli, inp.argv)
        path = inp.argv[inp.argv.index("--input") + 1]
        if inp.kind == "poset":
            obj = tr.call("poset.from_json", lambda: poset_from_json(json.loads(Path(path).read_text())))
        else:
            obj = tr.call("graph.from_json", lambda: graph_from_json(json.loads(Path(path).read_text())))
        if verb == "poset-poly":
            fn = order_poly_strict if inp.argv[2] == "strict" else order_poly_weak
            tr.call("orderpoly.order_poly", fn, obj)
        elif verb == "graph-poly":
            tr.call("chrompoly.chrom_poly", chrom_poly, obj)
        else:
            x = int(inp.argv[inp.argv.index("--x") + 1])
            y = int(inp.argv[inp.argv.index("--y") + 1])
            if verb == "poset-count":
                tr.count("orderpoly.brute.calls", 1)
                tr.count("orderpoly.brute.maps", x**obj.n)
                tr.count("orderpoly.brute.bytes_computed", x**obj.n * obj.n * 8)
                tr.call("orderpoly.brute", brute_count, obj, inp.argv[2], x, y)
            else:
                tr.count("chrompoly.chrom_count.calls", 1)
                tr.count("chrompoly.chrom_count.maps", x**obj.n)
                tr.call("chrompoly.chrom_count", chrom_count, obj, x, y)
        # the library result is cached now, so run() only parses, loads,
        # builds and emits
        return tr.call("cli.overhead", run_cli, inp.argv)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PosetSweep(), GraphSweep(), Verify(), Cli())
}
