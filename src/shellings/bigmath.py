"""Exact arbitrary-precision arithmetic helpers.

Counts and identity values are kept exact everywhere: nonnegative integers
are plain Python ints (``Nat``), rationals are ``fractions.Fraction``
(``Rat``, always in lowest terms with positive denominator).  On top of
those this module provides factorials, binomial coefficients (including
generalized binomial coefficients with rational entries), Catalan numbers,
and a small symbolic Gamma-product type with an exact reducer.

It is also the one place that decides how an exact quotient and a rising
product are computed: every division a theorem makes exact goes through
``exact_div``, which raises ExactnessError on a remainder (also under
``python -O``), and every rising product x(x+1)...(x+k-1) through ``rising``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    return rising(Fraction(x) - y + 1, y) / factorial(y)


def gbinom_int_diff(x: RatLike, y: RatLike) -> Rat:
    """Generalized binomial C(x, y) for rational x, y with x - y in {0, 1, ...}.

    Exactly evaluable because Gamma(x+1)/Gamma(y+1) collapses to the rising
    product (y+1)(y+2)...(y + (x-y)); the result is that product over (x-y)!.
    Requires y > -1 so the product never crosses a Gamma pole.
    """
    x = Fraction(x)
    y = Fraction(y)
    diff = x - y
    if diff.denominator != 1 or diff < 0:
        raise ValueError(f"gbinom_int_diff requires x - y a nonnegative integer, got {diff}")
    if y <= -1:
        raise ValueError(f"gbinom_int_diff requires y > -1, got {y}")
    d = int(diff)
    return rising(y + 1, d) / factorial(d)


def _frac_part(a: Fraction) -> Fraction:
    return a - (a.numerator // a.denominator)


def _pochhammer_ratio(p: Fraction, q: Fraction) -> Fraction:
    """Gamma(p)/Gamma(q) for p - q an integer, as an exact rational."""
    diff = p - q
    if diff.denominator != 1:
        raise ExactnessError("Gamma arguments must differ by an integer")
    d = int(diff)
    return rising(q, d) if d >= 0 else 1 / rising(p, -d)


@dataclass(frozen=True)
class GammaProduct:
    """A formal product coeff * prod Gamma(a) / prod Gamma(b), all a, b > 0.

    Immutable; combine with ``times`` and collapse with
    :func:`gamma_product_reduce`.
    """

    coeff: Rat
    numer: tuple[Rat, ...] = ()
    denom: tuple[Rat, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        numer = tuple(sorted(Fraction(a) for a in self.numer))
        denom = tuple(sorted(Fraction(a) for a in self.denom))
        for a in numer + denom:
            if a <= 0:
                raise ValueError(f"Gamma argument {a} is not positive")
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)

    def times(self, other: "GammaProduct") -> "GammaProduct":
        return GammaProduct(
            self.coeff * other.coeff,
            self.numer + other.numer,
            self.denom + other.denom,
        )


def gamma_product_reduce(gp: GammaProduct) -> Rat | GammaProduct:
    """Collapse a GammaProduct to an exact rational where possible.

    Numerator/denominator arguments sharing a fractional part pair up and
    each pair becomes a rational Pochhammer factor.  A leftover Gamma at a
    positive integer argument is a bare factorial and is folded in as well.
    Any pairing order yields the same value, since each pair contributes
    exactly Gamma(p)/Gamma(q).  Returns the irreducible remainder when
    non-integer arguments cannot all be paired.
    """
    coeff = gp.coeff
    if coeff == 0:
        return Fraction(0)
    groups: dict[Fraction, tuple[list[Fraction], list[Fraction]]] = {}
    for a in gp.numer:
        groups.setdefault(_frac_part(a), ([], []))[0].append(a)
    for b in gp.denom:
        groups.setdefault(_frac_part(b), ([], []))[1].append(b)

    left_numer: list[Fraction] = []
    left_denom: list[Fraction] = []
    for frac, (nums, dens) in groups.items():
        nums.sort()
        dens.sort()
        npaired = min(len(nums), len(dens))
        for p, q in zip(nums[:npaired], dens[:npaired]):
            coeff *= _pochhammer_ratio(p, q)
        rest_n, rest_d = nums[npaired:], dens[npaired:]
        if frac == 0:
            for a in rest_n:
                coeff *= factorial(int(a) - 1)
            for b in rest_d:
                coeff /= factorial(int(b) - 1)
        else:
            left_numer.extend(rest_n)
            left_denom.extend(rest_d)

    if not left_numer and not left_denom:
        return coeff
    return GammaProduct(coeff, tuple(left_numer), tuple(left_denom))
