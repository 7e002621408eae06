"""Bicolored posets and the word machinery built on their linear extensions.

A bicolored poset is a finite strict partial order on elements 0..n-1
together with a celeste subset; the complement is silver.  Celeste
elements are the ones a counting map must send above (or at least to)
the threshold y.  The order relation is stored transitively closed.
Every order question (validation, covers, linear extensions, labelings)
is answered from _pred_masks, one bitmask of the elements below each
element, so each costs O(|less|) mask operations, not pair lookups.

Linear extensions are enumerated in a fixed deterministic order, and a
labeling plus an extension yields a word whose ascent and descent
positions drive the closed-form counting polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BicoloredPoset:
    n: int
    less: frozenset[tuple[int, int]]
    celeste: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("poset size must be nonnegative")
        for a, b in self.less:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"relation ({a}, {b}) out of range for n={self.n}")
        preds = _pred_masks(self)
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


def build_poset(
    n: int,
    relations: Iterable[tuple[int, int]] = (),
    celeste: Iterable[int] = (),
) -> BicoloredPoset:
    """Build a bicolored poset from any generating set of strict relations.

    The transitive closure is computed here, so covers are enough.  Raises
    ValueError on a cycle, an out-of-range index, or a duplicate pair.
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
    return BicoloredPoset(n, less, frozenset(celeste))


@lru_cache(maxsize=4096)
def covers(P: BicoloredPoset) -> tuple[tuple[int, int], ...]:
    """Cover relations: a < b with nothing strictly between."""
    preds = _pred_masks(P)
    inner = [0] * P.n
    for a, b in P.less:
        inner[b] |= preds[a]
    return tuple((a, b) for a, b in sorted(P.less) if not inner[b] >> a & 1)


@lru_cache(maxsize=4096)
def linear_extensions(P: BicoloredPoset) -> tuple[tuple[int, ...], ...]:
    """All linear extensions, as element sequences, in a fixed order.

    Generated by backtracking on an explicit stack (no recursion limit):
    at each step the next element is chosen among the minimal available
    ones in increasing index order, so the output order is deterministic
    (lexicographic by element sequence).
    """
    preds, n = _pred_masks(P), P.n
    above: list[list[int]] = [[] for _ in range(n)]
    for a, b in P.less:
        above[a].append(b)
    out, placed, done = [], [], 0
    first = sum(1 << v for v in range(n) if not preds[v])
    stack = [(first, first)]  # per depth: its minimal elements, and those not yet tried
    while stack:
        minimal, rest = stack[-1]
        if not rest:
            stack.pop()
            if placed:
                done ^= 1 << placed.pop()
            continue
        low = rest & -rest
        stack[-1] = minimal, rest ^ low
        placed.append(v := low.bit_length() - 1)
        done |= low
        if len(placed) == n:  # v is maximal, so the next level is empty
            out.append(tuple(placed))
        minimal ^= low  # the rest keeps its minimal elements and may gain some above v
        for u in above[v]:
            if not preds[u] & ~done:
                minimal |= 1 << u
        stack.append((minimal, minimal))
    return tuple(out) if n else ((),)


def _pred_masks(P: BicoloredPoset) -> tuple[int, ...]:
    """Bitmask of the elements strictly below each element."""
    preds = [0] * P.n
    for a, b in P.less:
        preds[b] |= 1 << a
    return tuple(preds)


def _natural_labels(preds: Sequence[int]) -> tuple[int, ...]:
    """Labels along the lexicographically first linear extension of the
    order in which element e follows every element of the bitmask
    preds[e]: labels[e] is e's position in it, from 1.

    The masks may hold any generating relation, not only the closure:
    an element whose generators are all placed has every element below
    it placed.  Both default labelings follow this extension.
    """
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


def natural_labeling(P: BicoloredPoset) -> tuple[int, ...]:
    """Order preserving bijective labels 1..n: labels[e] is element e's label.

    Deterministic choice: labels follow the lexicographically first linear
    extension (smallest available element index first).
    """
    return _natural_labels(_pred_masks(P))


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


def all_natural_labelings(P: BicoloredPoset) -> tuple[tuple[int, ...], ...]:
    """Every natural labeling; position labeling of each linear extension."""
    out = []
    for ext in linear_extensions(P):
        labels = [0] * P.n
        for pos, e in enumerate(ext, start=1):
            labels[e] = pos
        out.append(tuple(labels))
    return tuple(out)


def all_reverse_natural_labelings(P: BicoloredPoset) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(P.n + 1 - lab for lab in labels) for labels in all_natural_labelings(P)
    )


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
    cp = None
    celeste_positions = [i + 1 for i, e in enumerate(extension) if e in P.celeste]
    if celeste_positions:
        cp = min(celeste_positions)
    return Word(letters, cp)


def ascents(letters: Sequence[int]) -> set[int]:
    """Positions j (1-based) with letters[j-1] < letters[j]."""
    return {j for j in range(1, len(letters)) if letters[j - 1] < letters[j]}


def descents(letters: Sequence[int]) -> set[int]:
    return {j for j in range(1, len(letters)) if letters[j - 1] > letters[j]}


def reverse_word(w: Word) -> Word:
    """Reverse the letters; the marked position is mirrored to n+1-pos."""
    n = len(w.letters)
    cp = None if w.celeste_pos is None else n + 1 - w.celeste_pos
    return Word(tuple(reversed(w.letters)), cp)


# JSON form: {"n": int, "covers": [[a, b], ...], "celeste": [int, ...]}
# covers may be any generating relation; the closure is recomputed on load.


def poset_to_json(P: BicoloredPoset) -> dict:
    return {
        "n": P.n,
        "covers": [list(pair) for pair in covers(P)],
        "celeste": sorted(P.celeste),
    }


def poset_from_json(data: dict) -> BicoloredPoset:
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("poset JSON must be an object with an 'n' field")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("poset field 'n' must be an integer")
    raw_covers = data.get("covers", [])
    raw_celeste = data.get("celeste", [])
    if not isinstance(raw_covers, list) or not isinstance(raw_celeste, list):
        raise ValueError("poset fields 'covers' and 'celeste' must be lists")
    pairs = []
    for item in raw_covers:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise ValueError(f"cover {item!r} must be a pair of integers")
        pairs.append((item[0], item[1]))
    for c in raw_celeste:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"celeste entry {c!r} must be an integer")
    return build_poset(n, pairs, raw_celeste)
