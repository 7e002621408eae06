"""Dumb reference implementations the library is checked against.

Everything here enumerates objects directly from the definitions with
itertools and plain loops, except the Fraction chain sums, which expand
their formulas term by term, the word-key counts (a dynamic program over
order ideals that tallies the extensions' word keys, once the library's
route to the order polynomials, now the oracle of its ideal-chain
program), the paper's flat-and-orientation construction of the chromatic
polynomial and of its reciprocity right side, and poset reciprocity
compared as polynomials.  Apart from those, which read the library's
flats, orientations, order polynomials, labelings and chain sums,
nothing imports the library's counting kernels, closed forms, or
interpolation; only the data types, covers, poset_to_json and binom_poly
come from the package.  The predecessor masks the dynamic programs here
read are derived from the order's pairs by pred_masks, not taken from
BicoloredPoset.preds, so a fault in the library's masks cannot hide in
its oracles.  product_binomial_poly, binom_poly products
summed term by term, was the library's coordinate-to-polynomial builder
and is the oracle of ratpoly._binomial_poly.  The per-block tally route
(map_blocks, tally_cum_table, tally_map_table, tally_coloring_table),
once the library's brute kernel, is the oracle of brute._cum_table,
which replaced it, on the constraint descriptions that
brute._poset_counter and brute._coloring_counter give it.  The
dict_* functions, polynomials as plain dicts of Fraction coefficients,
are the oracle of BiPoly's integer arithmetic.  product_interpolate_poly,
Newton interpolation through a product grid of degree n in each variable
(x from n to 2n), was the library's interpolate_poly and is the oracle of
its reading of the simplex x0 <= n; it keeps the library's value check
and builds its result by ratpoly._binomial_poly.  pairwise_validate,
set_closure_less and pair_covers read the order by pair lookups and
successor sets, as the poset module did before it read it only through
predecessor bitmasks, and are the oracles of BicoloredPoset's checks,
build_poset and covers; scan_natural_labels, the scan that
poset._natural_labels ran before it kept a heap, is the oracle of the
default labeling and gives the oracles' own default labels, so no oracle
labels through the library; dumb_acyclic_orientations filters all 2^m
direction vectors, as graph.acyclic_orientations did before it grew
reachability masks.  whole_order_coords runs the ideal-chain program
over every element, as orderpoly._order_coords did before it left the
isolated elements out; as a polynomial it is the oracle of
order_poly_*, which multiply the isolated elements' linear factors
into the related elements' finished polynomial.
partition_coords, the per-size sums of chrompoly's subset dynamic
program on the strict basis binom(y, t) * binom(x - y, s), was the
library's route to both graph polynomials (chrom_coords and
reciprocity_coords, built by ratpoly._binomial_poly) and is the oracle
of chrompoly._sums_poly, which reads the same sums straight into
monomials.  Slow on purpose."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
import operator
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from bivorder.brute import _integer, _valid_ys
from bivorder.chrompoly import _acyclic_counts, _chrom_sums, _partition_sums
from bivorder.graph import (
    AcyclicOrientation,
    Flat,
    Graph,
    acyclic_orientations,
    flats,
    is_acyclic,
    orientation_to_poset,
)
from bivorder.orderpoly import (
    _chain_coords,
    _checked_labeling,
    order_poly_strict,
    order_poly_weak,
)
from bivorder.poset import BicoloredPoset, covers, poset_to_json
from bivorder.ratpoly import X, Y, BiPoly, _binomial_poly, _mode_ok, binom_poly
from bivorder.verify import CheckReport


def pred_masks(n: int, pairs) -> list[int]:
    """preds[b]: the bitmask of the a with (a, b) among the pairs."""
    preds = [0] * n
    for a, b in pairs:
        preds[b] |= 1 << a
    return preds


def _default_labeling(preds: Sequence[int], mode: str) -> tuple[int, ...]:
    """The mode's default labeling of the order the masks generate: the
    natural one along the first extension, reversed for strict words."""
    labels = scan_natural_labels(preds)
    return tuple(len(preds) + 1 - lab for lab in labels) if mode == "strict" else labels


def dumb_count_maps(P: BicoloredPoset, mode: str, x0: int, y0: int) -> int:
    """Filter all x0^n maps by the definition, one tuple at a time."""
    count = 0
    for phi in itertools.product(range(1, x0 + 1), repeat=P.n):
        if mode == "strict":
            if any(phi[a] >= phi[b] for a, b in P.less):
                continue
            if any(phi[c] <= y0 for c in P.celeste):
                continue
        else:
            if any(phi[a] > phi[b] for a, b in P.less):
                continue
            if any(phi[c] < y0 for c in P.celeste):
                continue
        count += 1
    return count


def dumb_count_chain(n: int, k: int, mode: str, x0: int, y0: int) -> int:
    """Chain maps as sorted tuples; threshold at position k+1, k = n none."""
    if mode == "strict":
        chains = itertools.combinations(range(1, x0 + 1), n)
        return sum(1 for c in chains if k == n or c[k] > y0)
    chains = itertools.combinations_with_replacement(range(1, x0 + 1), n)
    return sum(1 for c in chains if k == n or c[k] >= y0)


def dumb_word_profile(
    letters: tuple[int, ...], celeste_pos: int | None, x_max: int
) -> Counter:
    """Tally of word-constrained maps into 1..x_max by (last value, value
    at the mark).  Constraints: weak step at ascents, strict step at
    descents; the last value is the maximum since steps never go down.
    """
    n = len(letters)
    asc = {j for j in range(1, n) if letters[j - 1] < letters[j]}
    tally: Counter = Counter()

    def rec(pos: int, prev: int, marked: int | None) -> None:
        if pos > n:
            tally[prev, marked] += 1
            return
        if pos == 1:
            lo = 1
        elif (pos - 1) in asc:
            lo = prev
        else:
            lo = prev + 1
        for v in range(lo, x_max + 1):
            rec(pos + 1, v, v if pos == celeste_pos else marked)

    rec(1, 0, None)
    return tally


def dumb_count_word(
    profile: Counter, mode: str, celeste_pos: int | None, x0: int, y0: int
) -> int:
    total = 0
    for (last, marked), c in profile.items():
        if last > x0:
            continue
        if celeste_pos is not None:
            if mode == "strict" and not marked > y0:
                continue
            if mode == "weak" and not marked >= y0:
                continue
        total += c
    return total


# Fraction chain sums --------------------------------------------------------

# The chain sum of a word key (n, k, prefix, full) straight from its
# formula: Fraction binomials multiplied and added as BiPolys, one term at a
# time, with none of the library's integer coordinates.


def fraction_strict_sum(n: int, k: int, prefix_shift: int, full_shift: int) -> BiPoly:
    # sum_{i=0}^{k} binom(y + prefix, i) * binom(x - y + full - prefix, n - i)
    arg_low = Y + prefix_shift
    arg_high = X - Y + (full_shift - prefix_shift)
    total = BiPoly.zero()
    for i in range(k + 1):
        total = total + binom_poly(arg_low, i) * binom_poly(arg_high, n - i)
    return total


def fraction_weak_sum(n: int, k: int, prefix_shift: int, full_shift: int) -> BiPoly:
    # sum_{i=0}^{k} binom(y - prefix - 2 + i, i)
    #             * binom(x - y + prefix - full + n - i, n - i)
    total = BiPoly.zero()
    for i in range(k + 1):
        arg_low = Y + (i - prefix_shift - 2)
        arg_high = X - Y + (prefix_shift - full_shift + n - i)
        total = total + binom_poly(arg_low, i) * binom_poly(arg_high, n - i)
    return total


def product_binomial_poly(coords: dict, u: BiPoly, v: BiPoly) -> BiPoly:
    """Sum c * binom(u, t) * binom(v, s) over coords (t, s) -> c, each term a
    product of binom_poly polynomials in Fraction arithmetic.  Once the
    library's builder (behind a cache of these products), now the oracle of
    ratpoly._binomial_poly's integer basis change."""
    total = BiPoly.zero()
    for (t, s), c in coords.items():
        if c:
            total = total + c * binom_poly(u, t) * binom_poly(v, s)
    return total


def _grid(n: int, mode: str) -> tuple[range, range]:
    # n + 1 consecutive values in each variable, every point in the
    # validity region: y <= n <= x (strict), y <= n + 1 <= x + 1 (weak)
    return range(n, 2 * n + 1), _valid_ys(mode, n)


def product_interpolate_poly(counter, n: int, mode: str) -> BiPoly:
    """Reconstruct the unique polynomial of degree <= n in each variable
    through the counter's integer values on the mode's grid of consecutive
    integers, in Newton's form: the sum of the forward differences Δ^{i,j}
    at (xs[0], ys[0]) times binom(x - xs[0], i) * binom(y - ys[0], j).
    Once brute.interpolate_poly, now the oracle of its simplex reader."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _mode_ok(mode)
    xs, ys = _grid(n, mode)
    diffs = np.array([[_integer(counter(a, b), a, b) for b in ys] for a in xs], object)
    for _ in range(2):  # along x, then y; each pass transposes: diffs[i, j] = Δ^{i,j}
        diffs = np.array([np.diff(diffs, i, axis=0)[0] for i in range(n + 1)]).T
    # zero coordinates are skipped: a counting polynomial has total
    # degree n, so every Δ^{i,j} with i + j > n is 0
    return _binomial_poly(dict(np.ndenumerate(diffs)), X - xs[0], Y - ys[0])


# term-map polynomials -------------------------------------------------------

# BiPoly's former representation, one Fraction per monomial in a plain
# dict (dx, dy) -> Fraction with zero coefficients dropped, and its
# arithmetic written out term by term: the oracle of BiPoly's integer
# numerators over one denominator.


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _nonzero(out)


def dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ax, ay), ac in a.items():
        for (bx, by), bc in b.items():
            e = (ax + bx, ay + by)
            out[e] = out.get(e, Fraction(0)) + ac * bc
    return _nonzero(out)


def dict_negate_args(a: dict) -> dict:
    return {(dx, dy): c * (-1) ** (dx + dy) for (dx, dy), c in a.items()}


def dict_shift_y(a: dict, s: int) -> dict:
    out: dict = {}
    for (dx, dy), c in a.items():
        for t in range(dy + 1):
            out[dx, t] = out.get((dx, t), Fraction(0)) + c * math.comb(dy, t) * Fraction(s) ** (dy - t)
    return _nonzero(out)


def dict_subs_y(a: dict, y0) -> dict:
    out: dict = {}
    for (dx, dy), c in a.items():
        out[dx, 0] = out.get((dx, 0), Fraction(0)) + c * Fraction(y0) ** dy
    return _nonzero(out)


def dict_subs_y_for_x(a: dict) -> dict:
    out: dict = {}
    for (dx, dy), c in a.items():
        out[dx + dy, 0] = out.get((dx + dy, 0), Fraction(0)) + c
    return _nonzero(out)


def dict_evaluate(a: dict, x0, y0) -> Fraction:
    x0, y0 = Fraction(x0), Fraction(y0)
    return sum((c * x0**dx * y0**dy for (dx, dy), c in a.items()), Fraction(0))


# word-key counts -----------------------------------------------------------

# The decomposition over linear extensions, grouped: how many extensions
# give each word key, then count * chain sum over the keys.  This was the
# library's route to the order polynomials before the ideal-chain dynamic
# program (orderpoly._order_coords); it shares the words, labelings and
# chain sums of the paper's theorem, so the two routes check each other.


def key_counts(
    preds: Sequence[int], celeste: int, labels: Sequence[int], mode: str
) -> Counter[tuple[int, int, int, int]]:
    """How many linear extensions give each word key (see
    orderpoly._word_key), for the order in which element e follows every
    element of the bitmask preds[e], the celeste elements in the bitmask
    celeste, and a labeling valid for the mode.

    A forward dynamic program over order ideals; no extension is listed.
    A state maps (ideal, last rank, mark, statistic so far) to the number
    of extension prefixes that place exactly the ideal and end at a letter
    of that rank.  Ranks are the labels in strict mode and their negatives
    in weak mode, so the statistic is always the ascents of the ranks.
    The mark is None until the first celeste element is placed, then
    (k, prefix): the letters before it and the statistic up to it.
    preds may hold any generating relation (see scan_natural_labels).
    """
    n = len(preds)
    rank = list(labels) if mode == "strict" else [-lab for lab in labels]
    # the empty prefix ends above every rank, so the first letter adds nothing
    level: dict[int, dict] = {0: {(n + 1, None, 0): 1}}
    for size in range(n):
        nxt: dict[int, dict] = {}
        for ideal, states in level.items():
            for v in range(n):
                if ideal >> v & 1 or preds[v] & ~ideal:
                    continue
                r = rank[v]
                silver = not celeste >> v & 1
                out = nxt.setdefault(ideal | 1 << v, {})
                for (last, mark, stat), count in states.items():
                    s = stat + (last < r)
                    state = (r, mark if mark or silver else (size, s), s)
                    out[state] = out.get(state, 0) + count
        level = nxt
    keys: Counter[tuple[int, int, int, int]] = Counter()
    for (_, mark, full), count in level[(1 << n) - 1].items():
        k, prefix = mark or (n, 0)
        keys[n, k, prefix, full] += count
    return keys


def word_key_counts(
    P: BicoloredPoset, mode: str, labeling: tuple[int, ...] | None = None
) -> Counter[tuple[int, int, int, int]]:
    """How many linear extensions of P give each word key, under the
    mode's default labeling or the given one once it is checked."""
    labeling = _checked_labeling(P, labeling, mode)
    celeste = sum(1 << c for c in P.celeste)
    return key_counts(pred_masks(P.n, P.less), celeste, labeling, mode)


def key_coords(keys: dict[tuple[int, int, int, int], int], mode: str) -> dict:
    """Nonzero coordinates of the sum of count * chain sum over the word
    keys, on the mode's basis (see orderpoly._order_coords)."""
    coords: Counter[tuple[int, int]] = Counter()
    for key, count in keys.items():
        for ts, c in _chain_coords(mode, *key):
            coords[ts] += count * c
    return {ts: c for ts, c in coords.items() if c}


# whole ideal-chain program --------------------------------------------------

# orderpoly._order_coords as it was before it took the isolated elements
# out of its dynamic program: the same program run over all of P, whose
# polynomial is the oracle of multiplying their linear factors in.


def whole_order_coords(P: BicoloredPoset, mode: str, labeling: tuple | None = None) -> dict:
    """The mode's order polynomial of P as its nonzero integer coordinates
    c[t, s] on the basis binom(y - w, t) * binom(x - y + w, s), w = 0 strict
    and 1 weak (_MODE_BASIS).

    c[t, s] counts the chains of order ideals {} = I_0 < ... < I_{t+s} = P
    whose first t steps hold no celeste element (Stanley's P-partitions): a
    strict step is an antichain of minimal elements of the rest, a weak step
    any nonempty set that keeps an ideal.  A forward dynamic program places
    the elements one at a time, each step's in increasing label order, so
    every chain is counted once.  A minimal element v of the rest may open
    a new step, or, when its label exceeds the last one placed, join the
    open step: the ascent rule of the strict words, the descent rule of the
    weak ones.  With a reverse natural labeling a joining element lies
    above no element of its step; with a natural one each prefix of a step
    keeps an ideal.

    A state (ideal, last label) holds one int over (t, s), slot (t, s) at
    bit t * S + s * T.  The slots (t, 0), below bit T, count the chains
    whose steps are all celeste-free, the slots with s >= 1 those that
    have opened at least one step allowed to hold celeste, so a celeste
    element keeps only the bits from T up.  Every count is at most
    (t + s)^n <= n^n, so it fits in width bits and no slot carries into
    the next.
    """
    preds = pred_masks(P.n, P.less)
    if labeling is None:
        labels = _default_labeling(preds, mode)
    else:
        labels = _checked_labeling(P, labeling, mode)
    celeste = sum(1 << c for c in P.celeste)
    n = P.n
    width = n * n.bit_length() + 1
    S, T = width, width * (n + 1)
    free = (1 << T) - 1
    # the empty prefix ends above every label, so the first element opens a step
    level: dict[int, dict[int, int]] = {0: {n + 1: 1}}
    for _ in range(n):
        nxt: dict[int, dict[int, int]] = {}
        for ideal, states in level.items():
            total = sum(states.values())
            opened, free_open = total << T, (total & free) << S
            for v in range(n):
                if ideal >> v & 1 or preds[v] & ~ideal:
                    continue
                lab = labels[v]
                join = 0
                for r, c in states.items():
                    if r < lab:
                        join += c
                c = join & ~free if celeste >> v & 1 else join + free_open
                # each (ideal, label) is reached from one ideal only
                nxt.setdefault(ideal | 1 << v, {})[lab] = opened + c
        level = nxt
    total = sum(level[(1 << n) - 1].values())
    mask = (1 << width) - 1
    coords = {}
    for t in range(n + 1):
        for s in range(n + 1 - t):
            if c := total >> (t * S + s * T) & mask:
                coords[t, s] = c
    return coords


def dumb_count_colorings(G: Graph, x0: int, y0: int) -> int:
    count = 0
    for c in itertools.product(range(1, x0 + 1), repeat=G.n):
        if all(c[u] != c[v] or c[u] > y0 for u, v in G.edges):
            count += 1
    return count


def dumb_flats(G: Graph) -> tuple[Flat, ...]:
    """Every set partition of the vertices, as a restricted growth string
    (vertex v in block labels[v], each label at most one above all before
    it) in lexicographic order, kept when each block induces a connected
    subgraph."""
    out = []
    for labels in itertools.product(*(range(v + 1) for v in range(G.n))):
        if any(d > max(labels[:v], default=-1) + 1 for v, d in enumerate(labels)):
            continue
        nb = max(labels, default=-1) + 1
        blocks = tuple(tuple(v for v in range(G.n) if labels[v] == b) for b in range(nb))
        connected = True
        for block in blocks:
            reached = {block[0]}
            for _ in block:
                for u, v in G.edges:
                    if u in block and v in block and (u in reached or v in reached):
                        reached |= {u, v}
            connected = connected and len(reached) == len(block)
        if connected:
            qedges = frozenset(
                (min(labels[u], labels[v]), max(labels[u], labels[v]))
                for u, v in G.edges
                if labels[u] != labels[v]
            )
            contracted = frozenset(i for i, b in enumerate(blocks) if len(b) > 1)
            out.append(Flat(blocks, Graph(nb, qedges), contracted))
    return tuple(out)


# the paper's flat-and-orientation construction --------------------------------


def signed_pairs(G: Graph):
    """Yield every (flat, acyclic orientation of its quotient) pair as
    (sign, flat, orientation), with the reciprocity sign (-1)^(quotient
    size)."""
    for F in flats(G):
        sign = (-1) ** F.quotient.n
        for sigma in acyclic_orientations(F.quotient):
            yield sign, F, sigma


def per_pair_sum(G: Graph) -> BiPoly:
    """The paper's construction of the chromatic polynomial: one strict
    order polynomial per (flat, acyclic orientation) pair, added up."""
    total = BiPoly.zero()
    for _, F, sigma in signed_pairs(G):
        total = total + order_poly_strict(orientation_to_poset(F, sigma))
    return total


def pair_key_counts(F: Flat, sigma: AcyclicOrientation, mode: str) -> Counter:
    """Word-key counts of the pair's poset under the mode's default
    labeling, read straight from the orientation's directed edges with
    the contracted blocks celeste; the poset is never built or closed."""
    preds = pred_masks(F.quotient.n, sigma.directed_edges)
    celeste = sum(1 << c for c in F.contracted)
    return key_counts(preds, celeste, _default_labeling(preds, mode), mode)


@lru_cache(maxsize=None)
def compatible_cum_table(G: Graph, x_max: int) -> np.ndarray:
    """T[x0, t]: the reciprocity right side counted over colorings into
    1..x0 whose least contracted color is t or more.  Every coloring of
    every flat's quotient into 1..x_max counts (-1)^(quotient size) times
    for each acyclic orientation it weakly increases along, tested on the
    orientation's directed edges; column x_max + 1 collects the colorings
    with no contracted vertex.  compatible_count reads it."""
    width = x_max + 2
    total = np.zeros((x_max + 1) * width, dtype=np.int64)
    for F in flats(G):
        sign = (-1) ** F.quotient.n
        directed = [sigma.directed_edges for sigma in acyclic_orientations(F.quotient)]
        for values, top in map_blocks(F.quotient.n, x_max):
            counts = sum(
                reduce(np.logical_and, (values[a] <= values[b] for a, b in edges), True)
                for edges in directed
            )
            low = reduce(np.minimum, (values[c] for c in F.contracted), x_max + 1)
            code = np.repeat(top * width + low, counts)
            total += sign * np.bincount(code, minlength=len(total))
    cum = total.reshape(x_max + 1, width).cumsum(axis=0)
    return cum[:, ::-1].cumsum(axis=1)[:, ::-1]


def compatible_count(G: Graph, x0: int, y0: int) -> int:
    """The reciprocity right side over colorings into 1..x0 whose
    contracted colors all exceed y0: compatible_cum_table(G, x0) at
    threshold y0 + 1, which past x0 reads the no-contracted column."""
    return int(compatible_cum_table(G, x0)[x0, min(y0 + 1, x0 + 1)])


# the strict-basis route of the subset dynamic program ---------------------
# Once the library's route to both graph polynomials, now the oracle of
# chrompoly._sums_poly, through ratpoly._binomial_poly.


def surjections(m_max: int) -> list[list[int]]:
    """surj[m][s], the surjections of an m-set onto s values, for s <= m <=
    m_max: surj(m, s) = s * (surj(m - 1, s - 1) + surj(m - 1, s)), as the
    last element's value is either hit by no other element or by some."""
    surj = [[1]]
    for m in range(1, m_max + 1):
        prev = surj[-1] + [0]
        surj.append([0] + [s * (prev[s - 1] + prev[s]) for s in range(1, m + 1)])
    return surj


def partition_coords(sums: list[list[int]]) -> dict:
    """The nonzero c[t, s] = sum over W of t! * B_t(V - W) * surj(|W|, s)
    on the strict basis binom(y, t) * binom(x - y, s), from the per-size
    sums of B over the n = len(sums) - 1 vertices (see
    chrompoly._partition_sums): t! orders the blocks and surj expands
    (x - y)^|W|."""
    n = len(sums) - 1
    surj = surjections(n)
    coords: dict[tuple[int, int], int] = {}
    for k, row in enumerate(sums):
        for t, b in enumerate(row):
            b *= math.factorial(t)
            for s in range(n - k + 1):
                coords[t, s] = coords.get((t, s), 0) + b * surj[n - k][s]
    return {ts: c for ts, c in coords.items() if c}


def chrom_coords(G: Graph) -> dict[tuple[int, int], int]:
    """chrom_poly's nonzero coordinates on the strict basis, where
    t! * B_t(U) counts the colorings of G[U] with exactly the colors
    1..t."""
    return partition_coords(_chrom_sums(G))


def reciprocity_coords(G: Graph) -> dict[tuple[int, int], int]:
    """The nonzero coordinates of (-1)^n chrom_poly(G)(-x, -y) on the
    strict basis: each block B weighs a(G[B]), its acyclic orientations,
    so t! * B_t(U) sums prod a(G[block]) over the ordered partitions of U
    into t blocks."""
    return partition_coords(_partition_sums(G.n, _acyclic_counts(G), [-1] * G.n))


# the per-block tally route -----------------------------------------------
# Once the library's brute kernel, now the oracle of brute._cum_table:
# every constraint is evaluated on every block, in int64.

TALLY_BLOCK_MAPS = 1 << 15


def map_blocks(n: int, x_max: int):
    """All maps from n positions into 1..x_max, in blocks of at most
    TALLY_BLOCK_MAPS maps (more only when x_max alone exceeds it).  Yields
    (values, top): values[i] is position i's value, an int shared by the
    whole block for the leading positions and an int64 array for the
    trailing ones; top is each map's largest value."""
    if n == 0:
        yield [], np.zeros(1, dtype=np.int64)
        return
    k = 1
    while k < min(n, TALLY_BLOCK_MAPS.bit_length() - 1) and x_max ** (k + 1) <= TALLY_BLOCK_MAPS:
        k += 1
    inner = np.indices((x_max,) * k, dtype=np.int64).reshape(k, -1) + 1
    inner_top = inner.max(axis=0, initial=0)
    for lead in itertools.product(range(1, x_max + 1), repeat=n - k):
        top = np.maximum(inner_top, max(lead)) if lead else inner_top
        yield [*lead, *inner], top


def tally_cum_table(n: int, x_max: int, tally) -> np.ndarray:
    """T[x0, t]: the maps that tally keeps, with largest value <= x0 and
    low value >= t.  tally(values, none) gives a block's keep mask, or
    True for all, and low values; none = x_max + 1, the sentinel column,
    stands for no low.  One bincount over all cells per block."""
    width = x_max + 2
    prof = np.zeros((x_max + 1) * width, dtype=np.int64)
    for values, top in map_blocks(n, x_max):
        keep, low = tally(values, x_max + 1)
        code = top * width + low
        if keep is not True:
            code = code[keep]
        prof += np.bincount(code, minlength=len(prof))
    cum = prof.reshape(x_max + 1, width).cumsum(axis=0)
    return cum[:, ::-1].cumsum(axis=1)[:, ::-1]


def tally_map_table(P: BicoloredPoset, mode: str, x_max: int) -> np.ndarray:
    """The mode's map table of P (see brute._poset_counter) by the
    per-block tally route."""
    below = operator.lt if mode == "strict" else operator.le
    relations = covers(P)

    def tally(values, none):
        keep = np.ones(len(values[-1]), dtype=bool) if relations else True
        for a, b in relations:
            keep &= below(values[a], values[b])
        return keep, reduce(np.minimum, (values[c] for c in P.celeste), none)

    return tally_cum_table(P.n, x_max, tally)


def tally_coloring_table(G: Graph, x_max: int) -> np.ndarray:
    """G's coloring table (see brute._coloring_counter) by the
    per-block tally route."""

    def tally(values, none):
        mono = (np.where(values[u] == values[v], values[u], none) for u, v in G.sorted_edges())
        return True, reduce(np.minimum, mono, none)

    return tally_cum_table(G.n, x_max, tally)


def dumb_linear_extensions(P: BicoloredPoset) -> tuple[tuple[int, ...], ...]:
    """Permutations that refine the order, filtered one by one, in
    lexicographic order."""
    out = []
    for perm in itertools.permutations(range(P.n)):
        pos = {e: i for i, e in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in P.less):
            out.append(perm)
    return tuple(out)


def dumb_count_extensions(P: BicoloredPoset) -> int:
    return len(dumb_linear_extensions(P))


# order representations by pairs and sets --------------------------------------
# The library's poset module once read the order this way; it now reads it
# only through predecessor bitmasks, and these are its references.


def pairwise_validate(n: int, less: frozenset, celeste: frozenset) -> None:
    """The checks of BicoloredPoset, one pair lookup at a time: range,
    irreflexivity and antisymmetry per relation, then transitivity over
    every pair of relations."""
    if n < 0:
        raise ValueError("poset size must be nonnegative")
    for a, b in less:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"relation ({a}, {b}) out of range for n={n}")
        if a == b:
            raise ValueError(f"relation ({a}, {a}) violates irreflexivity")
        if (b, a) in less:
            raise ValueError(f"cycle detected: both ({a}, {b}) and ({b}, {a}) hold")
    for a, b in less:
        for c, d in less:
            if b == c and (a, d) not in less:
                raise ValueError(f"relation is not transitively closed at ({a}, {d})")
    for c in celeste:
        if not (0 <= c < n):
            raise ValueError(f"celeste element {c} out of range for n={n}")


def set_closure_less(n: int, relations) -> frozenset:
    """The closed relation build_poset gives, by Warshall on successor
    sets, with build_poset's checks and messages."""
    if n < 0:
        raise ValueError("poset size must be nonnegative")
    seen: set[tuple[int, int]] = set()
    below: list[set[int]] = [set() for _ in range(n)]  # below[a] = {b : a < b}
    for a, b in relations:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"relation ({a}, {b}) out of range for n={n}")
        if (a, b) in seen:
            raise ValueError(f"duplicate relation ({a}, {b})")
        seen.add((a, b))
        if a == b:
            raise ValueError(f"cycle detected: relation ({a}, {a})")
        below[a].add(b)
    for k in range(n):
        for a in range(n):
            if k in below[a]:
                below[a] |= below[k]
    for a in range(n):
        if a in below[a]:
            raise ValueError(f"cycle detected through element {a}")
    return frozenset((a, b) for a in range(n) for b in below[a])


def pair_covers(P: BicoloredPoset) -> tuple[tuple[int, int], ...]:
    """Sorted relations a < b with no m such that a < m < b."""
    return tuple(
        (a, b)
        for a, b in sorted(P.less)
        if not any((a, m) in P.less and (m, b) in P.less for m in range(P.n))
    )


def scan_natural_labels(preds: Sequence[int]) -> tuple[int, ...]:
    """Labels along the lexicographically first linear extension of the
    order the masks generate, by scanning the unplaced elements in index
    order for the first whose mask is placed, as poset._natural_labels did
    before it kept a heap: quadratic in n on an antichain."""
    rest = list(range(len(preds)))
    labels = [0] * len(preds)
    done = 0
    for pos in range(1, len(preds) + 1):
        for i, e in enumerate(rest):
            if not preds[e] & ~done:
                break
        del rest[i]
        labels[e] = pos
        done |= 1 << e
    return tuple(labels)


def dumb_acyclic_orientations(H: Graph) -> tuple[AcyclicOrientation, ...]:
    """Every direction vector over the sorted edges, (u, v) as 0 and
    (v, u) as 1, in lexicographic order, kept when acyclic."""
    edges = H.sorted_edges()
    out = []
    for dirs in itertools.product((0, 1), repeat=len(edges)):
        directed = tuple((u, v) if d == 0 else (v, u) for (u, v), d in zip(edges, dirs))
        if is_acyclic(H.n, directed):
            out.append(AcyclicOrientation(directed))
    return tuple(out)


# exhaustive catalogs ---------------------------------------------------------


@lru_cache(maxsize=None)
def all_strict_orders(n: int) -> tuple[frozenset, ...]:
    """Every transitive antisymmetric relation on 0..n-1, by filtering
    all subsets of ordered pairs."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rel = frozenset(p for p, keep in zip(pairs, bits) if keep)
        if any((b, a) in rel for a, b in rel):
            continue
        if any(
            (a, d) not in rel for a, b in rel for c, d in rel if b == c
        ):
            continue
        out.append(rel)
    return tuple(out)


def bipoly_poset_reciprocity(P: BicoloredPoset) -> CheckReport:
    """Poset reciprocity compared as polynomials: (-1)^n p_strict(-x, -y)
    built by negating both arguments, against p_weak shifted to y + 1,
    with the report check_reciprocity_poset gives."""
    lhs = order_poly_strict(P).negate_args() * (-1) ** P.n
    rhs = order_poly_weak(P).shift_y(1)
    if lhs == rhs:
        return CheckReport("poset-reciprocity", True)
    witness = {"poset": poset_to_json(P), "lhs": lhs.text(), "rhs": rhs.text()}
    return CheckReport("poset-reciprocity", False, witness)


def catalog_posets(n: int) -> list[BicoloredPoset]:
    """All posets on exactly n labeled elements with every celeste subset."""
    out = []
    for rel in all_strict_orders(n):
        for r in range(n + 1):
            for cel in itertools.combinations(range(n), r):
                out.append(BicoloredPoset(n, rel, frozenset(cel)))
    return out


def all_graphs(n: int) -> list[Graph]:
    """All simple graphs on exactly n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        out.append(Graph(n, frozenset(p for p, keep in zip(pairs, bits) if keep)))
    return out


def up_to_isomorphism(objs: list, relabeled) -> list:
    """The first object of each isomorphism class, in input order.

    relabeled(obj, perm) gives obj's structure with element e renamed
    perm[e], as a hashable value; a class is known by the least such
    value over all permutations.
    """
    seen = set()
    out = []
    for obj in objs:
        key = min(relabeled(obj, perm) for perm in itertools.permutations(range(obj.n)))
        if key not in seen:
            seen.add(key)
            out.append(obj)
    return out


def relabeled_poset(P: BicoloredPoset, perm) -> tuple:
    return (
        tuple(sorted((perm[a], perm[b]) for a, b in P.less)),
        tuple(sorted(perm[c] for c in P.celeste)),
    )


def relabeled_graph(G: Graph, perm) -> tuple:
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in G.edges))


# fast exact grid evaluation ---------------------------------------------------


def eval_int_grid(poly, points) -> dict:
    """Evaluate an exact polynomial at integer points with plain int
    arithmetic (denominators cleared once)."""
    terms = poly.terms
    den = 1
    for c in terms.values():
        den = math.lcm(den, c.denominator)
    int_terms = [(dx, dy, int(c * den)) for (dx, dy), c in terms.items()]
    out = {}
    for x0, y0 in points:
        total = 0
        for dx, dy, c in int_terms:
            total += c * x0**dx * y0**dy
        q, r = divmod(total, den)
        assert r == 0, f"non-integer value at ({x0}, {y0})"
        out[x0, y0] = q
    return out
