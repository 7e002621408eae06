"""Bicolored posets and the word machinery built on their linear extensions.

A bicolored poset is a finite strict partial order on elements 0..n-1
together with a celeste subset; the complement is silver.  Celeste
elements are the ones a counting map must send above (or at least to)
the threshold y.  The order relation is stored transitively closed.
Every order question (validation, covers, linear extensions, labelings)
is answered from P.preds, one bitmask of the elements below each element
built as the poset is validated, so each costs O(|less|) mask operations.

Linear extensions are enumerated in a fixed deterministic order, and a
labeling plus an extension yields a word whose ascent and descent
positions drive the closed-form counting polynomials.

The one budget gate of every exponential enumeration, _check_budget,
lives here, below orderpoly, graph and chrompoly.  Its limit is
DEFAULT_BUDGET, the only one, read at each call: no function takes a
budget, and the command line's --budget sets it for one run.
linear_extensions passes the gate before listing anything, and a listing
it has cached is returned without passing it again.
"""

from __future__ import annotations

__all__ = [
    "BudgetExceededError", "BicoloredPoset", "build_poset", "covers", "linear_extensions",
    "natural_labeling", "reverse_natural_labeling", "is_natural_labeling",
    "is_reverse_natural_labeling", "Word", "word_of", "ascents", "descents", "poset_to_json",
    "poset_from_json",
]

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from heapq import heappop, heappush
from typing import Iterable, Sequence

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would visit more objects than allowed."""


def _check_budget(n: int, base: int, cells: int) -> None:
    """base^n objects and the cells of the table they fill must fit
    DEFAULT_BUDGET, read now.  Cells are 0 where no table is built; only
    brute's tables are.  A count of 20+ digits is written
    base^n, not computed once its lower bound 2^bits exceeds 10^19 < 2^64,
    the limit and the cells, so any n prints."""
    bits = n * (base.bit_length() - 1)
    if bits >= 64 and bits >= DEFAULT_BUDGET.bit_length() and bits >= cells.bit_length():
        shown = f"{base}^{n}"
    elif max(objects := base**n, cells) > DEFAULT_BUDGET:
        shown = f"{base}^{n}" if objects >= max(cells, 10**19) else max(objects, cells)
    else:
        return
    raise BudgetExceededError(f"enumeration of {shown} objects exceeds budget {DEFAULT_BUDGET}")


@dataclass(frozen=True)
class BicoloredPoset:
    n: int
    less: frozenset[tuple[int, int]]
    celeste: frozenset[int]
    # preds[b]: bitmask of the a < b; derived, so not in ==, hash or repr
    preds: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # _coords[mode]: orderpoly._order_coords's result, held once its walk
    # completes and freed with the poset; derived, so not in ==, hash or repr
    _coords: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("poset size must be nonnegative")
        preds = [0] * self.n
        for a, b in self.less:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"relation ({a}, {b}) out of range for n={self.n}")
            preds[b] |= 1 << a
        for a, b in self.less:
            if a == b:
                raise ValueError(f"relation ({a}, {a}) violates irreflexivity")
            if preds[a] >> b & 1:
                raise ValueError(f"cycle detected: both ({a}, {b}) and ({b}, {a}) hold")
        for a, b in self.less:
            if missing := preds[a] & ~preds[b]:
                c = missing.bit_length() - 1  # c < a < b, yet not c < b
                raise ValueError(f"relation is not transitively closed at ({c}, {b})")
        for c in self.celeste:
            if not (0 <= c < self.n):
                raise ValueError(f"celeste element {c} out of range for n={self.n}")
        object.__setattr__(self, "preds", tuple(preds))


def build_poset(
    n: int,
    relations: Iterable[tuple[int, int]] = (),
    celeste: Iterable[int] = (),
) -> BicoloredPoset:
    """Build a bicolored poset from any generating set of strict relations.

    The transitive closure is computed here, so covers are enough.  Raises
    ValueError on a cycle, an out-of-range index, a duplicate pair or a
    duplicate celeste element.
    """
    if n < 0:
        raise ValueError("poset size must be nonnegative")
    preds = [0] * n  # preds[b]: bitmask of the a with a < b
    for a, b in relations:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"relation ({a}, {b}) out of range for n={n}")
        if preds[b] >> a & 1:
            raise ValueError(f"duplicate relation ({a}, {b})")
        if a == b:
            raise ValueError(f"cycle detected: relation ({a}, {a})")
        preds[b] |= 1 << a
    marked = Counter(celeste)
    if twice := [c for c, k in marked.items() if k > 1]:
        raise ValueError(f"duplicate celeste element {twice[0]}")
    # Warshall closure; an element above nothing neither gains nor passes on relations
    related = [b for b in range(n) if preds[b]]
    for k in related:
        for b in related:
            if preds[b] >> k & 1:
                preds[b] |= preds[k]
    for a in related:
        if preds[a] >> a & 1:
            raise ValueError(f"cycle detected through element {a}")
    less = frozenset((a, b) for b in related for a in range(n) if preds[b] >> a & 1)
    return BicoloredPoset(n, less, frozenset(marked))


@lru_cache(maxsize=4096)
def covers(P: BicoloredPoset) -> tuple[tuple[int, int], ...]:
    """Cover relations: a < b with nothing strictly between."""
    inner = [0] * P.n
    for a, b in P.less:
        inner[b] |= P.preds[a]
    return tuple((a, b) for a, b in sorted(P.less) if not inner[b] >> a & 1)


@lru_cache(maxsize=4096)
def linear_extensions(P: BicoloredPoset) -> tuple[tuple[int, ...], ...]:
    """All linear extensions, as element sequences, in a fixed order.

    Generated by backtracking on an explicit stack (no recursion limit):
    at each step the next element is chosen among the minimal available
    ones in increasing index order, so the output order is deterministic
    (lexicographic by element sequence).

    Refuses past the budget before listing: level k counts by
    ideal the k-element prefixes the backtracking visits, no more than the
    extensions (level n), and refuses once its count does.  The count
    records each ideal's minimal elements, the backtracking's next choices.
    """
    preds, n = P.preds, P.n
    above: list[list[int]] = [[] for _ in range(n)]
    for a, b in P.less:
        above[a].append(b)
    minimal = {0: sum(1 << v for v in range(n) if not preds[v])}  # by ideal
    level = {0: 1}
    for _ in range(n):
        nxt, count = Counter(), 0
        for ideal, ways in level.items():
            rest = choices = minimal[ideal]
            count += ways * choices.bit_count()
            while rest:
                low = rest & -rest
                rest ^= low
                nxt[grown := ideal | low] += ways
                if grown not in minimal:  # the others stay minimal; some above low may join
                    grew = choices ^ low
                    for u in above[low.bit_length() - 1]:
                        if not preds[u] & ~grown:
                            grew |= 1 << u
                    minimal[grown] = grew
            _check_budget(1, count, 0)  # the level's prefixes so far
        level = nxt
    out, placed, done = [], [], 0
    stack = [minimal[0]]  # per depth: the minimal elements not yet tried
    while stack:
        if not (rest := stack[-1]):
            stack.pop()
            if placed:
                done ^= 1 << placed.pop()
            continue
        low = rest & -rest
        stack[-1] = rest ^ low
        placed.append(low.bit_length() - 1)
        done |= low
        if len(placed) == n:
            out.append(tuple(placed))
        stack.append(minimal[done])
    return tuple(out) if n else ((),)


def _natural_labels(preds: Sequence[int]) -> tuple[int, ...]:
    """Labels along the lexicographically first linear extension of the
    order in which element e follows every element of the bitmask
    preds[e]: labels[e] is e's position in it, from 1.

    The masks may hold any generating relation, not only the closure:
    an element whose generators are all placed has every element below
    it placed.  Both default labelings follow this extension.

    A min-heap holds the indices not known to wait, all of them at first.
    The least is placed unless its mask holds an unplaced element; then it
    waits for the highest such element and returns to the heap once that
    one is placed, so it is tried at most once per element of its mask,
    plus once.  The bitmask of unplaced elements covers only those some
    mask holds, so an antichain costs O(n log n), not n-bit operations per
    element.
    """
    pending = reduce(operator.or_, preds, 0)  # the unplaced elements some mask holds
    labels = [0] * len(preds)
    heap = list(range(len(preds)))  # sorted, so a heap
    waiting: dict[int, list[int]] = {}
    for pos in range(1, len(preds) + 1):
        e = heappop(heap)
        while missing := preds[e] & pending:
            waiting.setdefault(missing.bit_length() - 1, []).append(e)
            e = heappop(heap)
        labels[e] = pos
        if pending >> e & 1:
            pending ^= 1 << e
            for b in waiting.pop(e, ()):
                heappush(heap, b)
    return tuple(labels)


def natural_labeling(P: BicoloredPoset) -> tuple[int, ...]:
    """Order preserving bijective labels 1..n: labels[e] is element e's label.

    Deterministic choice: labels follow the lexicographically first linear
    extension (smallest available element index first).
    """
    return _natural_labels(P.preds)


def reverse_natural_labeling(P: BicoloredPoset) -> tuple[int, ...]:
    """Order reversing labels: n+1 minus the natural labeling."""
    return tuple(P.n + 1 - lab for lab in natural_labeling(P))


def is_natural_labeling(P: BicoloredPoset, labels: Sequence[int]) -> bool:
    """True when labels is a bijection onto 1..n with a < b implying smaller label."""
    if sorted(labels) != list(range(1, P.n + 1)):
        return False
    return all(labels[a] < labels[b] for a, b in P.less)


def is_reverse_natural_labeling(P: BicoloredPoset, labels: Sequence[int]) -> bool:
    if sorted(labels) != list(range(1, P.n + 1)):
        return False
    return all(labels[a] > labels[b] for a, b in P.less)


@dataclass(frozen=True)
class Word:
    """A sequence of distinct labels with an optional marked celeste position.

    celeste_pos is 1-based; None means the word carries no celeste letter,
    in which case the counting polynomials ignore the threshold variable.
    """

    letters: tuple[int, ...]
    celeste_pos: int | None = None

    def __post_init__(self) -> None:
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("word letters must be distinct")
        if self.celeste_pos is not None and not (
            1 <= self.celeste_pos <= len(self.letters)
        ):
            raise ValueError(f"celeste position {self.celeste_pos} out of range")

    def __len__(self) -> int:
        return len(self.letters)


def word_of(
    extension: Sequence[int], labels: Sequence[int], P: BicoloredPoset
) -> Word:
    """Read the extension through the labeling; mark the first celeste letter.

    The extension must list each element once and must refine P.
    """
    if sorted(extension) != list(range(P.n)):
        raise ValueError("extension must enumerate the poset elements")
    pos = {e: i for i, e in enumerate(extension)}
    for a, b in P.less:
        if pos[a] > pos[b]:
            raise ValueError(f"sequence does not refine the poset at ({a}, {b})")
    letters = tuple(labels[e] for e in extension)
    return Word(letters, next((i for i, e in enumerate(extension, 1) if e in P.celeste), None))


def ascents(letters: Sequence[int]) -> set[int]:
    """Positions j (1-based) with letters[j-1] < letters[j]."""
    return {j for j in range(1, len(letters)) if letters[j - 1] < letters[j]}


def descents(letters: Sequence[int]) -> set[int]:
    return {j for j in range(1, len(letters)) if letters[j - 1] > letters[j]}


# JSON form: {"n": int, "covers": [[a, b], ...], "celeste": [int, ...]}
# covers may be any generating relation; the closure is recomputed on load.


def poset_to_json(P: BicoloredPoset) -> dict:
    return {
        "n": P.n,
        "covers": [list(pair) for pair in covers(P)],
        "celeste": sorted(P.celeste),
    }


def _json_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_n(data: dict, kind: str) -> int:
    """The integer 'n' field of a poset or graph JSON object."""
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError(f"{kind} JSON must be an object with an 'n' field")
    if not _json_int(n := data["n"]):
        raise ValueError(f"{kind} field 'n' must be an integer")
    return n


def _json_pairs(items: list, what: str) -> list[tuple[int, int]]:
    """The items, each a JSON list of two integers, as pairs."""
    for item in items:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_json_int, item))):
            raise ValueError(f"{what} {item!r} must be a pair of integers")
    return [(a, b) for a, b in items]


def poset_from_json(data: dict) -> BicoloredPoset:
    n = _json_n(data, "poset")
    raw_covers = data.get("covers", [])
    raw_celeste = data.get("celeste", [])
    if not isinstance(raw_covers, list) or not isinstance(raw_celeste, list):
        raise ValueError("poset fields 'covers' and 'celeste' must be lists")
    pairs = _json_pairs(raw_covers, "cover")
    for c in raw_celeste:
        if not _json_int(c):
            raise ValueError(f"celeste entry {c!r} must be an integer")
    return build_poset(n, pairs, raw_celeste)
