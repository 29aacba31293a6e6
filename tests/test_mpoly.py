from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ribbonpoly import (
    MPoly,
    NegativeExponent,
    ONE,
    RibbonPolyError,
    T,
    X,
    Y,
    Z,
    counting_substitution,
    genus_counting_series,
)
from conftest import GENUS2_POLY
from oracles import parse_poly

exponents = st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 3), st.integers(0, 3)
)
polys = st.dictionaries(exponents, st.integers(-50, 50), max_size=8).map(MPoly)


def test_binomial_square():
    assert (ONE + Y) * (ONE + Y) == ONE + 2 * Y + Y**2


def test_zeroth_power_is_one():
    assert (X - 1) ** 0 == ONE


def test_worked_product():
    # X*Y*(1+Y)*(X+1+Y*Z) expanded
    product = X * Y * (ONE + Y) * (X + ONE + Y * Z)
    expected = parse_poly("X^2*Y + X*Y + X*Y^2*Z + X^2*Y^2 + X*Y^2 + X*Y^3*Z")
    assert product == expected


def test_canonical_string_descending_order():
    p = ONE + Y + X + X * Y**2 * Z + T
    assert str(p) == "X*Y^2*Z + X + Y + t + 1"
    assert p.to_string(ascending=True) == "1 + t + Y + X + X*Y^2*Z"


def test_negative_coefficients_format_and_parse():
    p = -X + 3 * Y - 1
    assert str(p) == "-X + 3*Y - 1"
    assert parse_poly(str(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("W + 1")
    with pytest.raises(ValueError):
        parse_poly("2**X")


@pytest.mark.parametrize(
    "text", ["X + + Y", "X +", "X -", "+ X", "-", "X + - Y", "X - -Y", "1 +  + 2"]
)
def test_parse_rejects_empty_terms(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_parse_accepts_a_leading_minus():
    assert parse_poly("-X + Y") == Y - X
    assert parse_poly(" - X^2 - 1") == -(X**2) - 1


@pytest.mark.parametrize("text", ["X^-1", "Y^+2", "X^", "2*X^-3 + 1"])
def test_parse_rejects_signed_or_missing_exponents(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_integer_constants_hash_like_ints():
    assert MPoly.constant(5) in {5}
    assert MPoly.zero() in {0}
    assert hash(MPoly.constant(-3)) == hash(-3)
    assert {MPoly.constant(7): "seven"}[7] == "seven"


def test_zero_forms():
    assert str(MPoly.zero()) == "0"
    assert parse_poly("0") == MPoly.zero()
    assert Y - Y == MPoly.zero()


def test_evaluate_constant_term_at_origin():
    p = 7 + 2 * X + Y * Z
    assert p.evaluate() == 7


def test_evaluate_constraint_point():
    p = (X - 1) * Y * Z
    assert p.evaluate(x=2, y=3, z=Fraction(1, 3)) == 1


def test_evaluate_worked_polynomial_at_ones():
    assert GENUS2_POLY.evaluate(x=1, y=1, z=1) == 36


def test_substitute_is_simultaneous():
    p = X + Y
    # X := Y, Y := X must swap, not chain
    assert p.substitute(x=Y, y=X) == X + Y
    assert (X * Y).substitute(x=1) == Y
    assert (Y**2).substitute(y=Y - 1) == Y**2 - 2 * Y + 1


def test_counting_substitution_worked_graph():
    q = counting_substitution(GENUS2_POLY)
    series = q.substitute(y=0)
    assert series == 4 + 7 * T + T**2
    assert q.substitute(y=0).evaluate(t=1) == 12
    assert genus_counting_series(GENUS2_POLY) == series


def test_counting_substitution_two_interleaved_loops():
    # frozen from the 4-subgraph state sum of the one-vertex graph (1,3,2,4)
    poly = 1 + 2 * Y + Y**2 * Z
    assert genus_counting_series(poly) == 1 + T


def test_counting_substitution_single_bridge():
    assert genus_counting_series(X) == ONE


def test_counting_substitution_rejects_bad_input():
    with pytest.raises(NegativeExponent):
        counting_substitution(Z)  # genus without nullity
    with pytest.raises(ValueError):
        counting_substitution(T + 1)


def test_counting_substitution_raises_when_x_survives(monkeypatch):
    # the check must raise, not assert, so that python -O keeps it
    monkeypatch.setattr(MPoly, "substitute", lambda self, **_: self)
    with pytest.raises(RibbonPolyError):
        counting_substitution(X * Y)


def test_json_terms_roundtrip():
    p = GENUS2_POLY
    terms = p.to_json_terms()
    assert MPoly({(t["x"], t["y"], t["z"], t["t"]): t["coeff"] for t in terms}) == p
    assert terms[0] == {"coeff": 1, "x": 2, "y": 2, "z": 0, "t": 0}


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 0, 0, 0): Fraction(1, 2)},
        {(0, 0, 0, 0): 2.7},
        {(0, 0, 0, 0): 2.0},
        {(1.5, 0, 0, 0): 1},
        {(2.0, 0, 0, 0): 1},
        {(0, 0, "1", 0): 1},
        {(0, -1, 0, 0): 1},
        {(0, 0, 0): 1},
    ],
)
def test_constructor_rejects_anything_but_int_terms(terms):
    with pytest.raises(ValueError):
        MPoly(terms)


def test_constructor_rejects_float_exponents_of_a_monomial():
    with pytest.raises(ValueError):
        MPoly.monomial(1, x=2.0)


def test_constructor_stores_bools_as_plain_ints():
    p = MPoly({(True, 0, False, 0): True, (0, 0, 0, 0): 3})
    assert p == X + 3
    assert p.to_json_terms() == [
        {"coeff": 1, "x": 1, "y": 0, "z": 0, "t": 0},
        {"coeff": 3, "x": 0, "y": 0, "z": 0, "t": 0},
    ]
    assert all(
        type(value) is int for entry in p.to_json_terms() for value in entry.values()
    )
    assert MPoly({(0, 0, 0, 0): False}) == MPoly.zero()


@pytest.mark.parametrize("exponent", [True, False, 2.0, -1])
def test_power_rejects_anything_but_a_non_negative_int(exponent):
    with pytest.raises(ValueError):
        X**exponent


@given(polys)
def test_parse_print_roundtrip(p):
    assert parse_poly(str(p)) == p


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == MPoly.zero()
    assert (a * b) * c == a * (b * c)


@given(polys, st.integers(0, 4))
def test_power_matches_repeated_multiplication(p, n):
    expected = ONE
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


@given(polys, polys)
def test_evaluation_is_ring_homomorphism(a, b):
    point = dict(x=Fraction(2, 3), y=Fraction(-1, 2), z=3, t=Fraction(5, 7))
    assert (a + b).evaluate(**point) == a.evaluate(**point) + b.evaluate(**point)
    assert (a * b).evaluate(**point) == a.evaluate(**point) * b.evaluate(**point)
