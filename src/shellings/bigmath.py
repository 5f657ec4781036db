"""Exact arbitrary-precision arithmetic helpers.

Counts and identity values are kept exact everywhere: nonnegative integers
are plain Python ints (``Nat``), rationals are ``fractions.Fraction``
(``Rat``, always in lowest terms with positive denominator).  On top of
those this module provides factorials, binomial coefficients (including
generalized binomial coefficients with rational entries) and Catalan
numbers.  A ratio of Gammas whose arguments differ by an integer is
computed as a rising product.

It is also the one place that decides how an exact quotient and a rising
product are computed: every division a theorem makes exact goes through
``exact_div``, which raises ExactnessError on a remainder (also under
``python -O``), and every rising product x(x+1)...(x+k-1) through ``rising``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExactnessError

Nat = int
Rat = Fraction

RatLike = Fraction | int


def exact_div(num: int, den: int, what: str) -> int:
    """num / den, which a theorem makes exact; a remainder raises
    ExactnessError(what)."""
    q, r = divmod(num, den)
    if r:
        raise ExactnessError(what)
    return q


def rising(x: RatLike, k: int) -> RatLike:
    """The rising product x(x+1)...(x+k-1) for k >= 0; k = 0 gives 1.

    An int x gives an int.  For x = p/q the integer product of p + iq is
    divided once by q^k, so no intermediate fraction is reduced.
    """
    if k < 0:
        raise ValueError(f"rising product of negative length {k}")
    if isinstance(x, int):
        return math.prod(range(x, x + k))
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(range(p, p + k * q, q)), q**k)


def factorial(n: int) -> Nat:
    """n! for a machine-size nonnegative integer n."""
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> Nat:
    """C(n, k) with the convention C(n, k) = 0 for k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial({n}, {k}) with negative argument")
    return math.comb(n, k)


def catalan(n: int) -> Nat:
    """The n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"catalan of negative {n}")
    return exact_div(math.comb(2 * n, n), n + 1, "Catalan division must be exact")


def gbinom_lower_int(x: RatLike, y: int) -> Rat:
    """Generalized binomial C(x, y) for rational x and integer y >= 0.

    Computed as the falling product x(x-1)...(x-y+1) / y!, which is a
    polynomial in x; y = 0 gives 1.
    """
    if y < 0:
        raise ValueError(f"gbinom_lower_int with negative lower entry {y}")
    return rising(Fraction(x) - (y - 1), y) / factorial(y)


def gbinom_int_diff(x: RatLike, y: RatLike) -> Rat:
    """Generalized binomial C(x, y) for rational x, y with x - y in {0, 1, ...}.

    Gamma(x+1)/Gamma(y+1) collapses to the rising product (y+1)...(x), so
    this is C(x, x - y) with an integer lower entry.  Requires y > -1 so the
    product never crosses a Gamma pole.
    """
    x = Fraction(x)
    y = Fraction(y)
    diff = x - y
    if diff.denominator != 1 or diff < 0:
        raise ValueError(f"gbinom_int_diff requires x - y a nonnegative integer, got {diff}")
    if y <= -1:
        raise ValueError(f"gbinom_int_diff requires y > -1, got {y}")
    return gbinom_lower_int(x, int(diff))
