import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shellings.bigmath import (
    binomial,
    catalan,
    exact_div,
    factorial,
    gbinom_int_diff,
    gbinom_lower_int,
    rising,
)
from shellings.errors import ExactnessError

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@pytest.mark.parametrize("n,expected", [(0, 1), (5, 120), (10, 3628800)])
def test_factorial(n, expected):
    assert factorial(n) == expected


def test_factorial_negative():
    with pytest.raises(ValueError):
        factorial(-1)


@pytest.mark.parametrize("n,k,expected", [(4, 2, 6), (7, 0, 1), (3, 5, 0)])
def test_binomial(n, k, expected):
    assert binomial(n, k) == expected


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14), (5, 42)])
def test_catalan(n, expected):
    assert catalan(n) == expected


def test_gbinom_lower_int_values():
    assert gbinom_lower_int(Fraction(7, 2), 2) == Fraction(35, 8)
    assert gbinom_lower_int(Fraction(9, 4), 0) == 1
    assert gbinom_lower_int(5, 2) == 10


def test_gbinom_int_diff_values():
    assert gbinom_int_diff(Fraction(3, 2), Fraction(3, 2)) == 1
    assert gbinom_int_diff(5, 2) == 10
    assert gbinom_int_diff(Fraction(7, 2), Fraction(3, 2)) == Fraction(35, 8)


def test_gbinom_int_diff_domain():
    with pytest.raises(ValueError):
        gbinom_int_diff(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        gbinom_int_diff(2, 5)
    with pytest.raises(ValueError):
        gbinom_int_diff(Fraction(-3, 2), Fraction(-3, 2) - 2)


def test_gbinoms_agree_with_integer_binomial():
    for x in range(8):
        for y in range(x + 1):
            expected = binomial(x, y)
            assert gbinom_lower_int(x, y) == expected
            assert gbinom_int_diff(x, y) == expected


def test_gbinom_rising_product_identity():
    # 200 random rational y with integer offsets, as an independent check
    rng = random.Random(0)
    for _ in range(200):
        y = Fraction(rng.randint(1, 60), rng.randint(1, 12))
        d = rng.randint(0, 10)
        x = y + d
        prod = Fraction(1)
        for i in range(1, d + 1):
            prod *= y + i
        assert gbinom_int_diff(x, y) * factorial(d) == prod


@given(st.one_of(st.integers(-30, 30), rationals), st.integers(0, 12))
@example(-4, 0)
@example(Fraction(-7, 3), 0)
@example(-3, 6)
@example(Fraction(-5, 2), 7)
def test_rising_matches_a_plain_loop(x, k):
    expected = 1
    for i in range(k):
        expected *= x + i
    got = rising(x, k)
    assert got == expected
    assert type(got) is type(x)


def test_rising_rejects_negative_length():
    with pytest.raises(ValueError):
        rising(3, -1)


def test_exact_div():
    assert exact_div(12, 4, "unused") == 3
    assert exact_div(-12, 4, "unused") == -3
    with pytest.raises(ExactnessError, match="^thirteen over four$"):
        exact_div(13, 4, "thirteen over four")


@given(rationals, rationals, rationals)
def test_rational_arithmetic_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
