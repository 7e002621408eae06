"""Exact sparse polynomials in two variables over the rationals.

A polynomial in x and y is stored as a dict mapping exponent pairs
(dx, dy) to nonzero Fraction coefficients.  The map is canonical: zero
coefficients are dropped on construction, so structural equality of the
term maps is polynomial identity and no normalization pass is ever
needed.  All arithmetic is exact; nothing here touches floats.

Term order, wherever terms are listed (text form, JSON form), is
x-degree descending, then y-degree descending.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

Coeff = int | Fraction


def _sort_key(pair: tuple[int, int]) -> tuple[int, int]:
    dx, dy = pair
    return (-dx, -dy)


def _exact_int(value: object, term: object) -> int:
    """int(value), but ValueError naming the term where int() would truncate."""
    if isinstance(value, str) or int(value) == value:
        return int(value)
    raise ValueError(f"non-integer {value!r} in term {term!r}")


class BiPoly:
    """Immutable polynomial in x and y with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Coeff] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (dx, dy), c in terms.items():
                dx, dy = _exact_int(dx, (dx, dy)), _exact_int(dy, (dx, dy))
                if dx < 0 or dy < 0:
                    raise ValueError(f"negative exponent ({dx}, {dy})")
                clean[dx, dy] = clean.get((dx, dy), 0) + Fraction(c)
        object.__setattr__(self, "_terms", {e: c for e, c in clean.items() if c})

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, int], Fraction]) -> BiPoly:
        """Wrap a term map built from other polynomials' terms, dropping
        zero coefficients without re-validation: its exponents are sums of
        nonnegative ints and its coefficients Fractions.  Every result of
        arithmetic, substitution and _binomial_poly is built here; outside
        input goes through __init__, which converts and checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", {e: c for e, c in terms.items() if c})
        return out

    # construction helpers

    @classmethod
    def zero(cls) -> BiPoly:
        return cls()

    @classmethod
    def const(cls, c: Coeff) -> BiPoly:
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, dx: int, dy: int, c: Coeff = 1) -> BiPoly:
        return cls({(dx, dy): c})

    # read access

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """Copy of the term map; mutating it does not affect the polynomial."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        return [(e, self._terms[e]) for e in sorted(self._terms, key=_sort_key)]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def deg_x(self) -> int:
        """Degree in x; zero polynomial reports -1."""
        return max((dx for dx, _ in self._terms), default=-1)

    @property
    def deg_y(self) -> int:
        return max((dy for _, dy in self._terms), default=-1)

    @property
    def total_degree(self) -> int:
        return max((dx + dy for dx, dy in self._terms), default=-1)

    def coeff(self, dx: int, dy: int) -> Fraction:
        return self._terms.get((dx, dy), Fraction(0))

    # arithmetic

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BiPoly is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == BiPoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def _coerced(self, other: object) -> BiPoly | None:
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other)
        return None

    def __add__(self, other: object) -> BiPoly:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return _weighted_sum(((1, self), (1, rhs)))

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return _weighted_sum(((-1, self),))

    def __sub__(self, other: object) -> BiPoly:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return _weighted_sum(((1, self), (-1, rhs)))

    def __rsub__(self, other: object) -> BiPoly:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return _weighted_sum(((1, rhs), (-1, self)))

    def __mul__(self, other: object) -> BiPoly:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in rhs._terms.items():
                e = (ax + bx, ay + by)
                v = ac * bc
                out[e] = out[e] + v if e in out else v
        return BiPoly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> BiPoly:
        if k < 0:
            raise ValueError("negative power")
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self._terms)

    # evaluation and substitution

    def evaluate(self, x0: Coeff, y0: Coeff) -> Fraction:
        """The value at (x0, y0).  At integer points the terms are summed
        in ints over the lcm of the denominators, one Fraction in all."""
        if isinstance(x0, int) and isinstance(y0, int):
            den = math.lcm(*(c.denominator for c in self._terms.values()))
            num = sum(
                c.numerator * (den // c.denominator) * x0**dx * y0**dy
                for (dx, dy), c in self._terms.items()
            )
            return Fraction(num, den)
        x0 = Fraction(x0)
        y0 = Fraction(y0)
        total = Fraction(0)
        for (dx, dy), c in self._terms.items():
            total += c * x0**dx * y0**dy
        return total

    def negate_args(self) -> BiPoly:
        """The polynomial p(-x, -y)."""
        return BiPoly._trusted(
            {e: c if (e[0] + e[1]) % 2 == 0 else -c for e, c in self._terms.items()}
        )

    def shift_y(self, s: int) -> BiPoly:
        """The polynomial p(x, y + s) for an integer shift s."""
        shift = Fraction(s)
        out: dict[tuple[int, int], Fraction] = {}
        for (dx, dy), c in self._terms.items():
            # expand (y + s)^dy by the binomial theorem
            for t in range(dy + 1):
                term = c * math.comb(dy, t) * shift ** (dy - t)
                out[dx, t] = out.get((dx, t), Fraction(0)) + term
        return BiPoly._trusted(out)

    def subs_y(self, c: Coeff) -> BiPoly:
        """Substitute the constant c for y, leaving a polynomial in x."""
        c = Fraction(c)
        out: dict[tuple[int, int], Fraction] = {}
        for (dx, dy), a in self._terms.items():
            e = (dx, 0)
            out[e] = out.get(e, Fraction(0)) + a * c**dy
        return BiPoly._trusted(out)

    def subs_y_for_x(self) -> BiPoly:
        """Substitute x for y, collapsing to a polynomial in x alone."""
        out: dict[tuple[int, int], Fraction] = {}
        for (dx, dy), a in self._terms.items():
            e = (dx + dy, 0)
            out[e] = out.get(e, Fraction(0)) + a
        return BiPoly._trusted(out)

    # text and JSON forms

    def text(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for (dx, dy), c in self.sorted_terms():
            mono: list[str] = []
            if dx == 1:
                mono.append("x")
            elif dx > 1:
                mono.append(f"x^{dx}")
            if dy == 1:
                mono.append("y")
            elif dy > 1:
                mono.append(f"y^{dy}")
            mag = abs(c)
            if mag != 1 or not mono:
                mono.insert(0, str(mag))
            body = "*".join(mono)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BiPoly({self.text()})"

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "dx": dx,
                    "dy": dy,
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for (dx, dy), c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> BiPoly:
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ValueError("polynomial JSON must be an object with a 'terms' list")
        terms: dict[tuple[int, int], Fraction] = {}
        for item in data["terms"]:
            try:
                dx, dy = _exact_int(item["dx"], item), _exact_int(item["dy"], item)
                c = Fraction(_exact_int(item["num"], item), _exact_int(item["den"], item))
            except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise ValueError(f"malformed term {item!r} in polynomial JSON") from None
            if (dx, dy) in terms:
                raise ValueError(f"duplicate term ({dx}, {dy}) in polynomial JSON")
            terms[dx, dy] = c
        return cls(terms)


def _weighted_sum(parts: Iterable[tuple[int, BiPoly]]) -> BiPoly:
    """The sum of c * p over (c, p) pairs with integer weights c.

    Accumulates into one term map, so adding many summands rebuilds no
    polynomial per summand; +, - and unary - are its two- and one-term
    cases.
    """
    acc: dict[tuple[int, int], Fraction] = {}
    for c, p in parts:
        if c:
            for e, v in p._terms.items():
                v = v if c == 1 else c * v
                acc[e] = acc[e] + v if e in acc else v
    return BiPoly._trusted(acc)


X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
ONE = BiPoly.const(1)


def binom_poly(arg: BiPoly, m: int) -> BiPoly:
    """Generalized binomial coefficient binom(arg, m) with polynomial argument.

    arg must be affine (total degree at most 1); the result is the falling
    factorial arg (arg-1) ... (arg-m+1) divided by m!.  This is the unique
    polynomial agreeing with the integer binomial coefficient on integers.
    The counting polynomials of this package are built from integer
    coordinates on products of these by _binomial_poly below.
    """
    if m < 0:
        raise ValueError("binom_poly needs m >= 0")
    if arg.total_degree > 1:
        raise ValueError("binom_poly argument must be affine in x and y")
    out = BiPoly.const(1)
    for t in range(m):
        out = out * (arg - t)
    return out * Fraction(1, math.factorial(m))


@lru_cache(maxsize=256)
def _basis_terms(u: BiPoly, v: BiPoly, top: int) -> Mapping[tuple[int, int], tuple]:
    """(t, s) -> integer terms of t! * s! * binom(u, t) * binom(v, s), t + s <= top."""
    fu = [binom_poly(u, t) * math.factorial(t) for t in range(top + 1)]
    fv = [binom_poly(v, s) * math.factorial(s) for s in range(top + 1)]
    return MappingProxyType({
        (t, s): tuple((e, int(c)) for e, c in (fu[t] * fv[s])._terms.items())
        for t in range(top + 1) for s in range(top + 1 - t)
    })


def _binomial_poly(coords: Mapping[tuple[int, int], int], u: BiPoly, v: BiPoly) -> BiPoly:
    """Sum c * binom(u, t) * binom(v, s) over coords (t, s) -> c, u and v integer
    affine, in ints over the common denominator (max t + s)!: one Fraction per term."""
    top = max((t + s for (t, s), c in coords.items() if c), default=0)
    den = math.factorial(top)
    terms = _basis_terms(u, v, top)
    num: dict[tuple[int, int], int] = {}
    for (t, s), c in coords.items():
        if c:
            weight = c * (den // (math.factorial(t) * math.factorial(s)))
            for e, a in terms[t, s]:
                num[e] = num.get(e, 0) + weight * a
    return BiPoly._trusted({e: Fraction(a, den) for e, a in num.items()})
