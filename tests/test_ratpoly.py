import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivorder import ratpoly
from bivorder.chrompoly import chrom_poly
from bivorder.graph import graph_from_json
from bivorder.orderpoly import order_poly_strict, order_poly_weak
from bivorder.poset import poset_from_json
from bivorder.ratpoly import (
    MODES,
    X,
    Y,
    BiPoly,
    _binomial_poly,
    _falling_poly,
    _times_powers,
    _weighted_sum,
    binom_poly,
)
from oracles import (
    dict_add,
    dict_evaluate,
    dict_mul,
    dict_negate_args,
    dict_shift_y,
    dict_subs_y,
    dict_subs_y_for_x,
    product_binomial_poly,
)


def test_fraction_invariants():
    # lowest terms and positive denominator come with the representation
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(3, -6).denominator == 2
    assert Fraction(3, -6).numerator == -1


def test_construction_drops_zero_terms():
    p = BiPoly({(1, 0): 1, (0, 1): 0})
    assert p == X
    assert BiPoly.zero().terms == {}
    assert not BiPoly.zero() and not (X - X)
    assert X and BiPoly.const(-1)


def test_construction_rejects_negative_exponents():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_construction_rejects_fractional_exponents():
    # int() would truncate 1.7 to 1 and give x
    with pytest.raises(ValueError, match=r"term \(1\.7, 0\)"):
        BiPoly({(1.7, 0): 1})
    assert BiPoly({(2.0, 1): 3}) == 3 * X**2 * Y


def test_add_sub_mul():
    assert (X + Y) + (X - Y) == 2 * X
    assert (X + Y) * (X - Y) == X * X - Y * Y
    assert X * Y == BiPoly.monomial(1, 1)
    assert (X + 1) * (X - 1) == X**2 - 1
    assert -(X - Y) == Y - X


def test_operators_refuse_what_they_cannot_compute():
    # a non-number is not coerced, so Python falls back to its own refusal
    assert (X == "x") is False
    message = "unsupported operand type(s) for +: 'BiPoly' and 'str'"
    with pytest.raises(TypeError, match=re.escape(message)):
        X + "x"
    with pytest.raises(TypeError, match="can't multiply sequence by non-int of type 'BiPoly'"):
        X * "x"
    with pytest.raises(ValueError, match="^negative power$"):
        X**-1


def test_immutable():
    with pytest.raises(AttributeError):
        X._terms = {}
    t = X.terms
    t[(5, 5)] = Fraction(1)
    assert X.terms == {(1, 0): Fraction(1)}


def test_degrees():
    p = X**2 * Y + X
    assert p.deg_x == 2
    assert p.deg_y == 1
    assert p.total_degree == 3
    assert BiPoly.zero().total_degree == -1


def test_evaluate():
    p = X**3 - 3 * X * Y + 2 * Y
    assert p.evaluate(2, 1) == 4
    assert p.evaluate(1, 1) == 0
    assert BiPoly.const(Fraction(1, 2)).evaluate(9, 9) == Fraction(1, 2)


@pytest.mark.parametrize("c", [0, 1, -7, 2**70, Fraction(1, 2), Fraction(-3, 4)])
def test_a_constant_hashes_as_the_number_it_equals(c):
    p = BiPoly.const(c)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1


def test_negate_args():
    assert (X**2 + Y).negate_args() == X**2 - Y
    assert (X * Y).negate_args() == X * Y
    assert BiPoly.const(7).negate_args() == BiPoly.const(7)


def test_shift_y():
    assert (Y**2).shift_y(1) == Y**2 + 2 * Y + 1
    assert X.shift_y(5) == X
    assert Y.shift_y(-1) == Y - 1
    assert (X * Y).shift_y(2) == X * Y + 2 * X


def test_subs_y():
    p = X**2 - 3 * X * Y + Y**2
    assert p.subs_y(0) == X**2
    assert p.subs_y(2) == X**2 - 6 * X + 4
    assert p.subs_y_for_x() == X**2 - 3 * X**2 + X**2


def test_text_form():
    assert (X**3 - 3 * X * Y + 2 * Y).text() == "x^3 - 3*x*y + 2*y"
    half = Fraction(1, 2)
    p = half * X**2 - half * X - half * Y**2 + half * Y
    assert p.text() == "1/2*x^2 - 1/2*x - 1/2*y^2 + 1/2*y"
    assert BiPoly.zero().text() == "0"
    assert (X - Y).text() == "x - y"
    assert (-X).text() == "-x"
    assert BiPoly.const(Fraction(-3, 4)).text() == "-3/4"
    assert repr(X - X) == "BiPoly(0)"
    assert repr(X * Y - 2 * Y + 1) == "BiPoly(x*y - 2*y + 1)"


def test_json_round_trip():
    p = Fraction(1, 2) * X**2 - Fraction(1, 2) * X - Fraction(1, 2) * Y**2
    data = p.to_json()
    assert data["terms"][0] == {"dx": 2, "dy": 0, "num": "1", "den": "2"}
    assert BiPoly.from_json(data) == p
    # canonical order: x-degree descending, then y-degree descending
    exps = [(t["dx"], t["dy"]) for t in data["terms"]]
    assert exps == sorted(exps, key=lambda e: (-e[0], -e[1]))


def test_json_rejects_duplicates():
    with pytest.raises(ValueError):
        BiPoly.from_json(
            {"terms": [
                {"dx": 1, "dy": 0, "num": "1", "den": "1"},
                {"dx": 1, "dy": 0, "num": "2", "den": "1"},
            ]}
        )


@pytest.mark.parametrize(
    "data",
    [
        {"terms": [{"dx": 0, "dy": 0, "num": "1", "den": "0"}]},
        {"terms": [{"dx": 0, "dy": 0, "num": "1"}]},
        {"terms": [{"dy": 0, "num": "1", "den": "1"}]},
        {"terms": [{"dx": 1.5, "dy": 0, "num": "1", "den": "1"}]},
        {"terms": [{"dx": 0, "dy": 0, "num": 1.5, "den": "1"}]},
        {"terms": [{"dx": 0, "dy": 0, "num": "1.5", "den": "1"}]},
        {"terms": [{"dx": "a", "dy": 0, "num": "1", "den": "1"}]},
        {"terms": [{"dx": float("inf"), "dy": 0, "num": "1", "den": "1"}]},
        {"terms": [[0, 0, "1", "1"]]},
        {"terms": ["x"]},
        {"terms": 5},
        [],
    ],
)
def test_json_rejects_malformed_input(data):
    with pytest.raises(ValueError, match="polynomial JSON"):
        BiPoly.from_json(data)


def test_binom_poly_small():
    assert binom_poly(X, 0) == BiPoly.const(1)
    assert binom_poly(X, 1) == X
    assert binom_poly(X, 2) == Fraction(1, 2) * (X**2 - X)
    assert binom_poly(X - Y, 2).evaluate(3, 1) == 1


def test_binom_poly_negative_integer_points():
    # generalized binomial keeps counting-style cancellations working
    assert binom_poly(Y - 2, 1).evaluate(0, 1) == -1
    assert binom_poly(X, 2).evaluate(-1, 0) == 1


def test_binom_poly_rejects_nonaffine():
    with pytest.raises(ValueError):
        binom_poly(X * Y, 1)
    with pytest.raises(ValueError):
        binom_poly(X**2, 1)
    with pytest.raises(ValueError):
        binom_poly(X, -1)


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("cx,cy,c0", [(1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 1, 2), (0, 1, -2)])
def test_binom_reflection(m, cx, cy, c0):
    # binom(-a, m) == (-1)^m binom(a + m - 1, m)
    arg = cx * X + cy * Y + c0
    lhs = binom_poly(-arg, m)
    rhs = (-1) ** m * binom_poly(arg + (m - 1), m)
    assert lhs == rhs


def test_binom_matches_integer_binomials():
    for top in range(9):
        for m in range(7):
            assert binom_poly(X, m).evaluate(top, 0) == math.comb(top, m)


def _gen_comb(a: int, m: int) -> int:
    """binom(a, m) for any integer a: math.comb, by reflection for a < 0."""
    return math.comb(a, m) if a >= 0 else (-1) ** m * math.comb(m - a - 1, m)


# w of each mode's basis, written out here rather than read from ratpoly._SHIFT
SHIFT = {"strict": 0, "weak": 1}


def _basis(mode):
    """(u, v) = (y - w, x - y + w), the mode's basis of the integer tail."""
    return Y - SHIFT[mode], X - Y + SHIFT[mode]


@pytest.mark.parametrize("mode", MODES)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(-50, 50), max_size=10
    )
)
@settings(max_examples=30)
def test_binomial_poly_matches_integer_binomials(mode, coords):
    w = SHIFT[mode]
    p = _binomial_poly(coords, mode)
    assert_canonical(p)
    for x0 in range(-3, 8):
        for y0 in range(-3, 8):
            u, v = y0 - w, x0 - y0 + w
            want = sum(c * _gen_comb(u, t) * _gen_comb(v, s) for (t, s), c in coords.items())
            assert p.evaluate(x0, y0) == want


# coordinates (t, s) -> c with t + s <= 12
top_twelve_coords = st.dictionaries(
    st.integers(0, 12).flatmap(lambda t: st.tuples(st.just(t), st.integers(0, 12 - t))),
    st.integers(-(10**6), 10**6),
    max_size=12,
)


@pytest.mark.parametrize("mode", MODES)
@given(top_twelve_coords)
@settings(max_examples=40)
def test_binomial_poly_equals_binom_poly_products(mode, coords):
    p = _binomial_poly(coords, mode)
    assert_canonical(p)
    assert p == product_binomial_poly(coords, *_basis(mode))


@pytest.mark.parametrize("mode", MODES)
def test_binomial_poly_single_coordinates_up_to_twelve(mode):
    u, v = _basis(mode)
    for t in range(13):
        for s in range(13 - t):
            assert _binomial_poly({(t, s): 1}, mode) == binom_poly(u, t) * binom_poly(v, s)


# triangular rows: rows[t] has top + 1 - t entries, top <= 8
falling_rows = st.integers(0, 8).flatmap(lambda top: st.tuples(*(
    st.lists(st.integers(-(10**4), 10**4), min_size=top + 1 - t, max_size=top + 1 - t)
    for t in range(top + 1)
)))


@pytest.mark.parametrize("mode", MODES)
@given(falling_rows, st.integers(1, 5040))
@settings(max_examples=30)
def test_falling_poly_equals_binom_poly_products(mode, rows, den):
    # the shared tail of _binomial_poly (w = 0 or 1) and chrom_poly (w = 0):
    # rows[t][j] weighs t! * binom(y - w, t) * (x - y)^j
    w = SHIFT[mode]
    p = _falling_poly(list(rows), w, den)
    assert_canonical(p)
    want = sum(
        (c * math.factorial(t) * binom_poly(Y - w, t) * (X - Y)**j for t, r in enumerate(rows)
         for j, c in enumerate(r)),
        BiPoly.zero(),
    )
    assert p == want * Fraction(1, den)


@pytest.mark.parametrize("mode", MODES)
@given(top_twelve_coords, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=30)
def test_times_powers_equals_bipoly_products(mode, coords, b, a):
    # the isolated elements' factors of the order polynomials:
    # p * x^b * (x - y + w)^a, against BiPoly products
    p = _binomial_poly(coords, mode)
    got = _times_powers(p, b, a, mode)
    assert_canonical(got)
    assert got == p * X**b * _basis(mode)[1] ** a


def test_binomial_poly_constant_forms():
    # no coordinate, or only zero ones beside the constant: top! stays 0!
    assert _binomial_poly({}, "strict") == BiPoly.zero()
    assert _binomial_poly({(4, 2): 0, (0, 0): 7}, "weak") == BiPoly.const(7)


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5
).map(BiPoly)


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + BiPoly.zero() == a
    assert a * BiPoly.const(1) == a
    assert a - a == BiPoly.zero()


@given(polys, st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60)
def test_negate_args_matches_evaluation(p, x0, y0):
    assert p.negate_args().evaluate(x0, y0) == p.evaluate(-x0, -y0)


def _fraction_evaluate(p: BiPoly, x0, y0) -> Fraction:
    """The value by the Fraction formula, term by term."""
    x0, y0 = Fraction(x0), Fraction(y0)
    return sum((c * x0**dx * y0**dy for (dx, dy), c in p.terms.items()), Fraction(0))


@given(polys, st.integers(-9, 9), st.integers(-9, 9), coeffs, coeffs)
@settings(max_examples=80)
def test_evaluate_matches_fraction_formula(p, x0, y0, fx, fy):
    # integer points, negative ones included, take the int route; a
    # Fraction argument takes the Fraction route
    for point in ((x0, y0), (fx, y0), (x0, fy), (fx, fy)):
        got = p.evaluate(*point)
        assert type(got) is Fraction
        assert got == _fraction_evaluate(p, *point)


def test_integer_point_evaluate_builds_one_fraction(monkeypatch):
    # the int route sums the numerators in one pass and divides once,
    # without reading either argument as a ratio
    p = BiPoly({(0, 0): Fraction(-5, 6), (2, 1): Fraction(3, 4), (1, 3): Fraction(1, 10)})
    want = {pt: _fraction_evaluate(p, *pt) for pt in ((-3, 2), (0, 0), (4, -5), (True, 7))}
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    def no_ratio(value):
        raise AssertionError("an integer point was read as a ratio")

    monkeypatch.setattr(ratpoly, "Fraction", Counted)
    monkeypatch.setattr(ratpoly, "_ratio", no_ratio)
    for pt, value in want.items():
        built.clear()
        assert p.evaluate(*pt) == value
        assert len(built) == 1


@pytest.mark.parametrize(
    "point",
    [(True, False), (np.int64(-3), np.int64(4)), (np.int64(2), 5),
     (10**30, -(10**30) + 1), (-(10**30), Fraction(1, 3))],
    ids=["bool", "int64", "int64-int", "huge", "huge-fraction"],
)
def test_evaluate_matches_fraction_formula_at_other_integers(point):
    p = BiPoly({(0, 0): Fraction(-5, 6), (2, 1): Fraction(3, 4), (0, 3): 7, (1, 0): Fraction(1, 10)})
    got = p.evaluate(*point)
    assert type(got) is Fraction
    assert got == _fraction_evaluate(p, *point)


def test_evaluate_zero_and_constant_polys():
    assert BiPoly.zero().evaluate(3, -4) == 0
    assert type(BiPoly.zero().evaluate(3, -4)) is Fraction
    assert BiPoly.zero().evaluate(Fraction(1, 3), 2) == 0
    p = BiPoly({(0, 0): Fraction(-5, 6), (2, 1): Fraction(3, 4), (1, 0): Fraction(1, 10)})
    assert p.evaluate(-2, 3) == Fraction(-5, 6) + Fraction(3, 4) * 4 * 3 - Fraction(2, 10)


@given(polys, st.integers(-3, 3), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60)
def test_shift_y_matches_evaluation(p, s, x0, y0):
    assert p.shift_y(s).evaluate(x0, y0) == p.evaluate(x0, y0 + s)


@given(polys)
@settings(max_examples=40)
def test_json_round_trip_random(p):
    assert BiPoly.from_json(p.to_json()) == p


def assert_canonical(p):
    # nonzero int numerators over one positive int denominator, in lowest
    # terms, so the zero polynomial has denominator 1
    assert type(p._den) is int and p._den > 0
    for (dx, dy), a in p._num.items():
        assert type(dx) is int and type(dy) is int and dx >= 0 and dy >= 0
        assert type(a) is int and a != 0
    assert math.gcd(p._den, *p._num.values()) == 1
    assert p == BiPoly(p.terms)


@given(polys, polys, st.integers(-3, 3), st.integers(0, 3))
@settings(max_examples=80)
def test_results_have_canonical_term_maps(a, b, s, k):
    # c shares a's terms with opposite signs, so a + c cancels them
    c = b - a
    results = [
        a + b, a + c, 1 + a, a - a, a - b, 2 - a, -a, a * b, a * (b - b),
        a**k, a.negate_args(), a.shift_y(s), a.subs_y(s), a.subs_y_for_x(),
        _weighted_sum([(s, a), (k, b), (1, c)]), _weighted_sum([(1, a), (-1, a)]),
        (X - Y).subs_y_for_x(), (Y + 1).subs_y(-1), (Y - 1).shift_y(1),
    ]
    for r in results:
        assert_canonical(r)


term_maps = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs.filter(bool), max_size=6
)


@given(term_maps, term_maps, st.integers(-3, 3), coeffs, st.integers(-5, 5), coeffs, coeffs)
@settings(max_examples=100)
def test_arithmetic_matches_fraction_term_maps(a, b, s, c, x0, fx, fy):
    p, q = BiPoly(a), BiPoly(b)
    assert p.terms == a
    pairs = [
        (p + q, dict_add(a, b)),
        (p * q, dict_mul(a, b)),
        (p.negate_args(), dict_negate_args(a)),
        (p.shift_y(s), dict_shift_y(a, s)),
        (p.subs_y(s), dict_subs_y(a, s)),
        (p.subs_y(c), dict_subs_y(a, c)),
        (p.subs_y_for_x(), dict_subs_y_for_x(a)),
    ]
    for got, want in pairs:
        assert got.terms == want
    for point in ((x0, s), (fx, s), (x0, fy), (fx, fy)):
        got = p.evaluate(*point)
        assert type(got) is Fraction and got == dict_evaluate(a, *point)


def test_integer_built_polys_make_no_fraction(monkeypatch):
    # coordinates, products, sums and the reciprocity transforms of
    # polynomials built from ints stay in ints; Fractions are only output
    coords = {(3, 1): 7, (2, 2): -5, (0, 4): 11, (1, 0): 2}

    def ops():
        p = _binomial_poly(coords, "strict")
        q = _binomial_poly(coords, "weak")
        return [
            p, q, p * q, _weighted_sum([(3, p), (-2, q)]), p.negate_args(),
            q.shift_y(1), p.subs_y_for_x(), p + q, p - q, -p, p * 5,
        ]

    want = ops()

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(ratpoly, "Fraction", NoFraction)
    got = ops()
    monkeypatch.undo()
    assert got == want


def test_polynomials_match_bytes_recorded_before_integer_numerators():
    # to_json, text and a Fraction-point value of 40 order polynomials of
    # seeded 6- to 8-element posets and 20 chromatic polynomials of
    # seeded 6- to 8-vertex graphs, recorded while BiPoly held one
    # Fraction per term
    golden = json.loads((Path(__file__).parent / "poly_golden.json").read_text())
    assert len(golden) == 60
    for g in golden:
        if "graph" in g:
            p = chrom_poly(graph_from_json(g["graph"]))
        else:
            order_poly = order_poly_strict if g["mode"] == "strict" else order_poly_weak
            p = order_poly(poset_from_json(g["poset"]))
        assert json.dumps(p.to_json()) == json.dumps(g["json"])
        assert p.text() == g["text"]
        assert str(p.evaluate(Fraction(-1, 3), Fraction(5, 2))) == g["at"]
        assert BiPoly.from_json(g["json"]) == p
