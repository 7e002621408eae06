"""Exact sparse polynomials in two variables over the rationals.

A polynomial in x and y is stored as a dict mapping exponent pairs
(dx, dy) to nonzero int numerators over one positive int denominator, in
lowest terms (the zero polynomial has denominator 1), so structural
equality is polynomial identity.  All arithmetic runs in ints; Fractions
appear only at the boundary: the constructor and from_json read them,
and terms, coeff and evaluate return them.  evaluate at an int point,
the oracles' case, sums the numerators' values in one int pass and
builds its one Fraction at the end.

Term order, wherever terms are listed (text form, JSON form), is
x-degree descending, then y-degree descending.

Every counting polynomial of the package is built on the mode's basis
binom(y - w, t) * binom(x - y + w, s), w = 0 strict and 1 weak (_SHIFT),
by _falling_poly, one integer expansion into monomials of rows of weights
on the products (y - w)(y - w - 1)...(y - w - t + 1) * (x - y)^j over one
denominator.  Both graph polynomials, chrom_poly and its reciprocity
side, hand it those rows directly with w = 0 (chrompoly._sums_poly);
every other route, and the graph polynomials' oracle in the tests, goes
through _binomial_poly, which first turns integer coordinates on the
basis into such rows over the common denominator top!.  The order
polynomials then multiply their isolated elements' linear factors in by
_times_powers, one integer product of the numerators.  binom_poly, the
same binomials as BiPoly products multiplied out, is the public form and
the tests' oracle for all three; no library route calls it.
"""

from __future__ import annotations

__all__ = ["BiPoly", "X", "Y", "binom_poly"]

import math
from fractions import Fraction
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


def _ratio(value: object) -> tuple[int, int]:
    """(numerator, denominator) of a number, through Fraction() unless it
    is an int or a Fraction already."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


class BiPoly:
    """Immutable polynomial in x and y with rational coefficients, held as
    int numerators _num over one positive int denominator _den."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[tuple[int, int], Coeff] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (dx, dy), c in terms.items():
                dx, dy = _exact_int(dx, (dx, dy)), _exact_int(dy, (dx, dy))
                if dx < 0 or dy < 0:
                    raise ValueError(f"negative exponent ({dx}, {dy})")
                clean[dx, dy] = clean.get((dx, dy), 0) + Fraction(c)
        den = math.lcm(*(c.denominator for c in clean.values()))
        p = BiPoly._trusted({e: c.numerator * den // c.denominator for e, c in clean.items()}, den)
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(p, name))

    @classmethod
    def _trusted(cls, num: dict[tuple[int, int], int], den: int) -> BiPoly:
        """Wrap int numerators over a positive int denominator without
        re-validation, dropping zero numerators and dividing out the gcd:
        the one place the lowest-terms form is made.  Every result of
        arithmetic, substitution and _binomial_poly is built here; outside
        input goes through __init__, which converts and checks."""
        num = {e: a for e, a in num.items() if a}
        if (g := math.gcd(den, *num.values())) > 1:
            num = {e: a // g for e, a in num.items()}
        out = object.__new__(cls)
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_den", den // g)
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
        """The term map of Fraction coefficients, a new dict on each call."""
        return {e: Fraction(a, self._den) for e, a in self._num.items()}

    @property
    def deg_x(self) -> int:
        """Degree in x; zero polynomial reports -1."""
        return max((dx for dx, _ in self._num), default=-1)

    @property
    def deg_y(self) -> int:
        return max((dy for _, dy in self._num), default=-1)

    @property
    def total_degree(self) -> int:
        return max((dx + dy for dx, dy in self._num), default=-1)

    def coeff(self, dx: int, dy: int) -> Fraction:
        return Fraction(self._num.get((dx, dy), 0), self._den)

    # arithmetic

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BiPoly is immutable")

    def __eq__(self, other: object) -> bool:
        rhs = self._coerced(other)
        return NotImplemented if rhs is None else self._den == rhs._den and self._num == rhs._num

    def __hash__(self) -> int:
        # a constant equals its int or Fraction (see _coerced), so hashes alike
        if self._num.keys() <= {(0, 0)}:
            return hash(Fraction(self._num.get((0, 0), 0), self._den))
        return hash((frozenset(self._num.items()), self._den))

    def _coerced(self, other: object) -> BiPoly | None:
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly._trusted({(0, 0): other.numerator}, other.denominator)
        return None

    def __add__(self, other: object) -> BiPoly:
        rhs = self._coerced(other)
        return NotImplemented if rhs is None else _weighted_sum(((1, self), (1, rhs)))

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return _weighted_sum(((-1, self),))

    def __sub__(self, other: object) -> BiPoly:
        rhs = self._coerced(other)
        return NotImplemented if rhs is None else _weighted_sum(((1, self), (-1, rhs)))

    def __rsub__(self, other: object) -> BiPoly:
        rhs = self._coerced(other)
        return NotImplemented if rhs is None else _weighted_sum(((1, rhs), (-1, self)))

    def __mul__(self, other: object) -> BiPoly:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (ax, ay), ac in self._num.items():
            for (bx, by), bc in rhs._num.items():
                e = (ax + bx, ay + by)
                v = ac * bc
                out[e] = out[e] + v if e in out else v
        return BiPoly._trusted(out, self._den * rhs._den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> BiPoly:
        if k < 0:
            raise ValueError("negative power")
        out = BiPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self._num)

    # evaluation and substitution

    def evaluate(self, x0: Coeff, y0: Coeff) -> Fraction:
        """The value at (x0, y0), one Fraction in all.  At int points one
        pass sums a * x0^dx * y0^dy over the numerators, over the one
        denominator.  Otherwise, with x0 = p/q and y0 = r/s, the term
        x^dx y^dy weighs p^dx q^(D - dx) r^dy s^(E - dy) over q^D s^E, D
        and E the x- and y-degrees."""
        if isinstance(x0, int) and isinstance(y0, int):
            num = sum(a * x0**dx * y0**dy for (dx, dy), a in self._num.items())
            return Fraction(num, self._den)
        (p, q), (r, s) = _ratio(x0), _ratio(y0)
        top_x, top_y = max(self.deg_x, 0), max(self.deg_y, 0)
        xs = [p**i * q ** (top_x - i) for i in range(top_x + 1)]
        ys = [r**j * s ** (top_y - j) for j in range(top_y + 1)]
        num = sum(a * xs[dx] * ys[dy] for (dx, dy), a in self._num.items())
        return Fraction(num, self._den * q**top_x * s**top_y)

    def negate_args(self) -> BiPoly:
        """The polynomial p(-x, -y)."""
        return BiPoly._trusted(
            {e: a if (e[0] + e[1]) % 2 == 0 else -a for e, a in self._num.items()}, self._den
        )

    def shift_y(self, s: int) -> BiPoly:
        """The polynomial p(x, y + s) for an integer shift s."""
        out: dict[tuple[int, int], int] = {}
        for (dx, dy), a in self._num.items():
            # expand (y + s)^dy by the binomial theorem
            for t in range(dy + 1):
                out[dx, t] = out.get((dx, t), 0) + a * math.comb(dy, t) * s ** (dy - t)
        return BiPoly._trusted(out, self._den)

    def subs_y(self, c: Coeff) -> BiPoly:
        """Substitute the constant c = r/s for y, leaving a polynomial in x:
        each term is scaled by s to the top y-degree E, over s^E."""
        (r, s), top = _ratio(c), max(self.deg_y, 0)
        out: dict[tuple[int, int], int] = {}
        for (dx, dy), a in self._num.items():
            out[dx, 0] = out.get((dx, 0), 0) + a * r**dy * s ** (top - dy)
        return BiPoly._trusted(out, self._den * s**top)

    def subs_y_for_x(self) -> BiPoly:
        """Substitute x for y, collapsing to a polynomial in x alone."""
        out: dict[tuple[int, int], int] = {}
        for (dx, dy), a in self._num.items():
            out[dx + dy, 0] = out.get((dx + dy, 0), 0) + a
        return BiPoly._trusted(out, self._den)

    # text and JSON forms

    def text(self) -> str:
        if not self._num:
            return "0"
        pieces: list[str] = []
        for dx, dy in sorted(self._num, key=_sort_key):
            a = self._num[dx, dy]
            g = math.gcd(a, self._den)  # |a| / den in lowest terms, as in to_json
            num, den = abs(a) // g, self._den // g
            mono: list[str] = []
            if dx == 1:
                mono.append("x")
            elif dx > 1:
                mono.append(f"x^{dx}")
            if dy == 1:
                mono.append("y")
            elif dy > 1:
                mono.append(f"y^{dy}")
            if num != den or not mono:
                mono.insert(0, f"{num}/{den}" if den > 1 else str(num))
            body = "*".join(mono)
            signs = ("+ ", "- ") if pieces else ("", "-")
            pieces.append(signs[a < 0] + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BiPoly({self.text()})"

    def to_json(self) -> dict:
        """Each term's coefficient in lowest terms, by one gcd and no Fraction."""
        terms = []
        for dx, dy in sorted(self._num, key=_sort_key):
            a = self._num[dx, dy]
            g = math.gcd(a, self._den)
            terms.append({"dx": dx, "dy": dy, "num": str(a // g), "den": str(self._den // g)})
        return {"terms": terms}

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

    Accumulates numerators over the lcm of the denominators into one term
    map, so adding many summands rebuilds no polynomial per summand; +, -
    and unary - are its two- and one-term cases.
    """
    parts = [(c, p) for c, p in parts if c]
    den = math.lcm(*(p._den for _, p in parts))
    acc: dict[tuple[int, int], int] = {}
    for c, p in parts:
        m = c * (den // p._den)
        for e, v in p._num.items():
            v = v if m == 1 else m * v
            acc[e] = acc[e] + v if e in acc else v
    return BiPoly._trusted(acc, den)


X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)


def binom_poly(arg: BiPoly, m: int) -> BiPoly:
    """Generalized binomial coefficient binom(arg, m) with polynomial argument.

    arg must be affine (total degree at most 1); the result is the falling
    factorial arg (arg-1) ... (arg-m+1) divided by m!.  This is the unique
    polynomial agreeing with the integer binomial coefficient on integers.
    Built by BiPoly products; the counting polynomials are not built from
    these but by _falling_poly's integer expansion (through _binomial_poly
    on every route but the graph polynomials'), which the tests check
    against products of binom_poly.
    """
    if m < 0:
        raise ValueError("binom_poly needs m >= 0")
    if arg.total_degree > 1:
        raise ValueError("binom_poly argument must be affine in x and y")
    out = BiPoly.const(1)
    for t in range(m):
        out = out * (arg - t)
    return BiPoly._trusted(out._num, out._den * math.factorial(m))


MODES = ("strict", "weak")
_SHIFT = {"strict": 0, "weak": 1}  # w, the mode's shift (see the module docstring)


def _mode_ok(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")


def _falling_rows(c: int, top: int) -> list[list[int]]:
    """Row t, t <= top: the coefficients of t! * binom(l + c, t), the falling
    factorial (l + c)(l + c - 1)...(l + c - t + 1), in powers of l; row
    t + 1 is row t times (l + c - t)."""
    rows = [[1]]
    for t in range(top):
        prev = rows[-1]
        row = [0] + prev
        if m := c - t:
            for i, a in enumerate(prev):
                row[i] += m * a
        rows.append(row)
    return rows


def _difference_rows(top: int) -> list[list[int]]:
    """Row j, j <= top: the coefficients of x^k y^(j - k) in (x - y)^j; row
    j + 1 is row j times x, minus row j times y."""
    rows = [[1]]
    for _ in range(top):
        rows.append([a - b for a, b in zip([0] + rows[-1], rows[-1] + [0])])
    return rows


def _falling_poly(rows: list[list[int]], w: int, den: int) -> BiPoly:
    """Sum rows[t][j] * u(u - 1)...(u - t + 1) * (x - y)^j / den, u = y - w;
    rows[t] holds at most len(rows) - t entries, so top = len(rows) - 1
    bounds the total degree.

    The falling factorials are rows of _falling_rows in powers of y, so
    summing rows[t] along t gives M[i][j], the coefficient of
    y^i * (x - y)^j, and the rows of (x - y)^j expand those into
    monomials: O(top^3) int work, and no BiPoly is multiplied.
    """
    top = len(rows) - 1
    fu = _falling_rows(-w, top)
    M = [[0] * (top + 1 - i) for i in range(top + 1)]
    for t, r in enumerate(rows):
        if any(r):
            for i, f in enumerate(fu[t]):
                if f:
                    row = M[i]
                    for j, a in enumerate(r):
                        row[j] += f * a
    diff = _difference_rows(top)
    num = [[0] * (d + 1) for d in range(top + 1)]  # num[d][k]: x^k y^(d - k)
    for i, row in enumerate(M):
        for j, m in enumerate(row):
            if m:
                out = num[i + j]
                for k, b in enumerate(diff[j]):
                    out[k] += m * b
    terms = {(k, d - k): a for d, out in enumerate(num) for k, a in enumerate(out)}
    return BiPoly._trusted(terms, den)


def _binomial_poly(coords: Mapping[tuple[int, int], int], mode: str) -> BiPoly:
    """Sum c * binom(y - w, t) * binom(x - y + w, s) over coords (t, s) -> c,
    the mode's basis, in ints over the common denominator top! =
    (max t + s)!, which one gcd then reduces.

    Over top!, the coordinate (t, s) weighs c * top! / (t! s!) on the
    integer product t! binom(y - w, t) * s! binom(x - y + w, s).  The
    second factor is row s of _falling_rows in powers of x - y, so summing
    the weighted rows along s gives rows[t][j], the weight of
    t! binom(y - w, t) * (x - y)^j, and _falling_poly expands those.
    """
    w = _SHIFT[mode]
    top = max((t + s for (t, s), c in coords.items() if c), default=0)
    den = math.factorial(top)
    fv = _falling_rows(w, top)
    rows = [[0] * (top + 1 - t) for t in range(top + 1)]
    for (t, s), c in coords.items():
        if c:
            weight = c * (den // (math.factorial(t) * math.factorial(s)))
            r = rows[t]
            for j, g in enumerate(fv[s]):
                if g:
                    r[j] += weight * g
    return _falling_poly(rows, w, den)


def _times_powers(p: BiPoly, silver: int, celeste: int, mode: str) -> BiPoly:
    """p * x^silver * (x - y + w)^celeste, by one integer product of p's
    numerators with the factor over p's denominator; the binomial theorem
    gives (x - y + w)^celeste = sum_i binom(celeste, i) * w^(celeste - i) *
    (x - y)^i.  No BiPoly is multiplied."""
    if not (silver or celeste):
        return p
    w = _SHIFT[mode]
    factor: dict[tuple[int, int], int] = {}
    for i, row in enumerate(_difference_rows(celeste)):
        if c := math.comb(celeste, i) * w ** (celeste - i):
            for k, e in enumerate(row):
                factor[silver + k, i - k] = c * e
    out: dict[tuple[int, int], int] = {}
    for (dx, dy), n in p._num.items():
        for (fx, fy), f in factor.items():
            e = (dx + fx, dy + fy)
            out[e] = out.get(e, 0) + n * f
    return BiPoly._trusted(out, p._den)
