import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivorder.ratpoly import ONE, X, Y, BiPoly, _weighted_sum, binom_poly


def test_fraction_invariants():
    # lowest terms and positive denominator come with the representation
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(3, -6).denominator == 2
    assert Fraction(3, -6).numerator == -1


def test_construction_drops_zero_terms():
    p = BiPoly({(1, 0): 1, (0, 1): 0})
    assert p == X
    assert (X - X).is_zero
    assert BiPoly.zero().terms == {}


def test_construction_rejects_negative_exponents():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


def test_add_sub_mul():
    assert (X + Y) + (X - Y) == 2 * X
    assert (X + Y) * (X - Y) == X * X - Y * Y
    assert X * Y == BiPoly.monomial(1, 1)
    assert (X + 1) * (X - 1) == X**2 - 1
    assert -(X - Y) == Y - X


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


def test_binom_poly_small():
    assert binom_poly(X, 0) == ONE
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


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5
).map(BiPoly)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + BiPoly.zero() == a
    assert a * ONE == a
    assert a - a == BiPoly.zero()


@given(polys, st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_negate_args_matches_evaluation(p, x0, y0):
    assert p.negate_args().evaluate(x0, y0) == p.evaluate(-x0, -y0)


@given(polys, st.integers(-3, 3), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_shift_y_matches_evaluation(p, s, x0, y0):
    assert p.shift_y(s).evaluate(x0, y0) == p.evaluate(x0, y0 + s)


@given(polys)
@settings(max_examples=40, deadline=None)
def test_json_round_trip_random(p):
    assert BiPoly.from_json(p.to_json()) == p


def assert_canonical(p):
    for (dx, dy), c in p._terms.items():
        assert type(dx) is int and type(dy) is int and dx >= 0 and dy >= 0
        assert type(c) is Fraction and c != 0
    assert p == BiPoly(p.terms)


@given(polys, polys, st.integers(-3, 3), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
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
