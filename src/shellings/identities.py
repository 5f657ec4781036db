"""Exact verification of the supporting binomial and telescoping
Gamma-ratio identities, instance by instance over rational parameters.

Each verifier evaluates both sides of one identity with exact arithmetic
(generalized binomials via their rising/falling product forms; a ratio of
Gammas whose arguments differ by an integer via one rising product) and
reports whether they agree.  The induction identity's sums over ascending
index tuples are evaluated as a transfer over (j, r_j).  Nothing here is
floated; a mismatch surfaces both sides for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bigmath import (
    Rat,
    binomial,
    factorial,
    gbinom_int_diff,
    gbinom_lower_int,
    rising,
)
from .errors import GuardExceeded


@dataclass(frozen=True)
class IdentityCase:
    """One verified identity instance: both sides, exactly, plus the verdict."""

    name: str
    params: dict = field(compare=False)
    lhs: Rat
    rhs: Rat
    holds: bool


def _case(name: str, params: dict, lhs: Rat, rhs: Rat) -> IdentityCase:
    return IdentityCase(name, params, lhs, rhs, lhs == rhs)


def verify_story(x: int, y: int, z, w) -> IdentityCase:
    """Convolution identity for generalized binomials:

        sum_{j=x}^{w-z} C(j,y) C(w-j,z)
          = sum_{i=max(0,x+y+z-w)}^{y} C(x,i) C(w-x+1, z+y-i+1)

    for integers x, y >= 1 and rationals z > 0, w with w - z an integer >= x.
    """
    z = Fraction(z)
    w = Fraction(w)
    span = w - z
    if x < 1 or y < 1:
        raise ValueError("x and y must be positive integers")
    if z <= 0:
        raise ValueError("z must be positive")
    if span.denominator != 1 or span < x:
        raise ValueError(f"w - z must be an integer >= x, got {span}")
    top = int(span)
    lhs = Fraction(0)
    for j in range(x, top + 1):
        lhs += binomial(j, y) * gbinom_int_diff(w - j, z)
    rhs = Fraction(0)
    for i in range(max(0, x + y - top), y + 1):
        rhs += binomial(x, i) * gbinom_int_diff(w - x + 1, z + y - i + 1)
    return _case("story", {"x": x, "y": y, "z": z, "w": w}, lhs, rhs)


def story_side_values(x: int, y: int, zprime: int, w) -> tuple[Rat, Rat]:
    """Both sides of the story identity in its polynomial-in-w form,

        sum_{j=x}^{z'} C(j,y) C(w-j, z'-j)
          = sum_{i=max(0,x+y-z')}^{y} C(x,i) C(w-x+1, z'-x-y+i),

    evaluated at an arbitrary rational w via falling-product binomials.
    Both sides are polynomials in w of degree <= z', so agreement on z'+1
    distinct points proves the polynomial identity for these (x, y, z').
    """
    w = Fraction(w)
    lhs = Fraction(0)
    for j in range(x, zprime + 1):
        lhs += binomial(j, y) * gbinom_lower_int(w - j, zprime - j)
    rhs = Fraction(0)
    for i in range(max(0, x + y - zprime), y + 1):
        rhs += binomial(x, i) * gbinom_lower_int(w - x + 1, zprime - x - y + i)
    return lhs, rhs


def verify_binomial_sum(m: int, n: int, k: int, s: int) -> IdentityCase:
    """Telescoping summation lemma with rational binomial entries:

        sum_{t=s+1}^{m+n-k-1} (t-n+k+1)(t+2)...(t+k) C(mn/(n-k)+n-k-t-2, mk/(n-k)-1)
          = m/(m+n-k) (s+2)...(s+k+1) C(mn/(n-k)+n-k-s-2, mk/(n-k)).
    """
    if not (m >= 1 and 1 <= k < n and 0 <= s < m + n - k - 1):
        raise ValueError(f"illegal parameters (m={m}, n={n}, k={k}, s={s})")
    base = Fraction(m * n, n - k)
    low = Fraction(m * k, n - k)
    lhs = Fraction(0)
    for t in range(s + 1, m + n - k):
        prod = (t - n + k + 1) * rising(t + 2, k - 1)
        lhs += prod * gbinom_int_diff(base + n - k - t - 2, low - 1)
    rhs = Fraction(m, m + n - k) * rising(s + 2, k) * gbinom_int_diff(base + n - k - s - 2, low)
    return _case("binomial_sum", {"m": m, "n": n, "k": k, "s": s}, lhs, rhs)


def induction_lemma_limits(m: int, n: int, k: int, s: int) -> tuple[int, int]:
    """(i0, i1) = starting indices of the two partial sums."""
    return max(0, s + 2 * k + 2 - m - n), max(0, s + 2 * k + 1 - m - n)


def verify_induction_lemma(m: int, n: int, k: int, s: int, ell: int) -> IdentityCase:
    """Partial-sum form of the summation lemma, valid for i0 <= ell <= k:

        sum_{i=i0}^{ell} C(s+k+1, i) C(X, B+k-i)
          + (k-n)/k sum_{i=i1+1}^{ell} C(s+k+1, i-1) C(X, B+k-i)
          = (B+k-ell)/(B+k) C(s+k+1, ell) C(X, B+k-ell)

    with X = mn/(n-k)+n-k-s-2, B = mk/(n-k).
    """
    if not (m >= 1 and 1 <= k < n and 0 <= s < m + n - k - 1):
        raise ValueError(f"illegal parameters (m={m}, n={n}, k={k}, s={s})")
    i0, i1 = induction_lemma_limits(m, n, k, s)
    if not i0 <= ell <= k:
        raise ValueError(f"ell={ell} out of range {i0}..{k}")
    x_top = Fraction(m * n, n - k) + n - k - s - 2
    b = Fraction(m * k, n - k)
    lhs = Fraction(0)
    for i in range(i0, ell + 1):
        lhs += binomial(s + k + 1, i) * gbinom_int_diff(x_top, b + k - i)
    for i in range(i1 + 1, ell + 1):
        lhs += Fraction(k - n, k) * binomial(s + k + 1, i - 1) * gbinom_int_diff(x_top, b + k - i)
    rhs = (b + k - ell) / (b + k) * binomial(s + k + 1, ell) * gbinom_int_diff(x_top, b + k - ell)
    params = {"m": m, "n": n, "k": k, "s": s, "ell": ell, "i0": i0, "i1": i1}
    return _case("induction_lemma", params, lhs, rhs)


# Bound on the transfer's work: (n-1) m^2 pair steps, each on rationals
# about as long as (mn)!, the largest factorial in play.
MAX_INDUCTION_WORK = 10**8


def _telescoped_chain(m: int, n: int, length: int) -> dict[int, Rat]:
    """Sum of the telescoped factor chain over ascending r_1 < ... < r_length,
    keyed by the last index r_length.

    Factor j is R_j = (r_j - j + 1) G(mn/j + j-1-r_j) / G(mn/(j+1) + j-r_j).
    Neighbouring Gammas G(mn/(j+1) + j - r_{j+1}) / G(mn/(j+1) + j - r_j)
    differ by the integer r_{j+1} - r_j, so each step divides by one rising
    product.  Each value is prod_{j <= length} R_j with its last denominator
    G(mn/(length+1) + length - r_length) cancelled; length 0 is r_0 = 0 with
    the value G(mn).  The bound r_j <= m + j - 1 keeps every argument positive.
    """
    mn = m * n
    chain = {0: Fraction(factorial(mn - 1))}
    for j in range(length):
        top = Fraction(mn, j + 1) + j
        chain = {
            r2: (r2 - j) * sum(v / rising(top - r2, r2 - r) for r, v in chain.items() if r < r2)
            for r2 in range(j + 1, m + j + 1)
        }
    return chain


def induction_theorem_sides(m: int, n: int, k: int) -> tuple[Rat, Rat]:
    """Both sides of the partially collapsed telescoping-sum identity.

    The full side sums (1/(n-1)!) prod_{j<n} R_j over ascending
    (n-1)-tuples from {1..m+n-2}; the collapsed side sums over ascending
    k-tuples from {1..m+k-1}, keeping R_j for j < k and replacing the tail
    by G(m(n-k)/k), one factorial ratio and one generalized binomial.  Both
    are summed as a transfer over (j, r_j), not tuple by tuple.
    """
    if not (m >= 1 and n >= 2 and 1 <= k <= n - 1):
        raise ValueError(f"illegal parameters (m={m}, n={n}, k={k})")
    mn = m * n
    if (n - 1) * m * m * mn > MAX_INDUCTION_WORK:
        raise GuardExceeded(f"induction transfer work past {MAX_INDUCTION_WORK} for (m={m}, n={n})")

    full = _telescoped_chain(m, n, n - 1)
    lhs = sum(v / factorial(m + n - 2 - r) for r, v in full.items()) / factorial(n - 1)

    # G(m(n-k)/k) / G(mn/k + k-1 - r_{k-1}) = 1 / rising(m(n-k)/k, m+k-1 - r_{k-1})
    low = Fraction(m * (n - k), k)
    tail = {r: v / rising(low, m + k - 1 - r) for r, v in _telescoped_chain(m, n, k - 1).items()}
    coeff0 = Fraction(
        factorial(m + k), factorial(m + n - 1) * factorial(k) * factorial(n - k - 1)
    )
    rhs = before = Fraction(0)
    for r_k in range(k, m + k):
        before += tail.get(r_k - 1, 0)
        scalar = (r_k - k + 1) * rising(r_k + 2, n - k - 1) * gbinom_int_diff(
            Fraction(mn, k) + k - 2 - r_k, low - 1
        )
        rhs += scalar * before
    return lhs, coeff0 * rhs


def verify_induction_theorem(m: int, n: int, k: int) -> IdentityCase:
    """Exact equality of the full and partially collapsed telescoping sums."""
    lhs, rhs = induction_theorem_sides(m, n, k)
    return _case("induction_theorem", {"m": m, "n": n, "k": k}, lhs, rhs)


def lemma_a1_check(sizes, d: int) -> bool:
    """Whether C(s_1+...+s_{d-1}, s_1) < 2^(s_1 - 1) d for ascending sizes."""
    sizes = list(sizes)
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if len(sizes) != d - 1:
        raise ValueError(f"expected {d - 1} sizes, got {len(sizes)}")
    if any(s < 1 for s in sizes) or any(a > b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be positive and nondecreasing")
    return binomial(sum(sizes), sizes[0]) < 2 ** (sizes[0] - 1) * d


def lemma_a2_check(d1: int, d2: int) -> bool:
    """Whether 2 (d1+d2-2)! >= d1! d2!."""
    if not 2 <= d1 <= d2:
        raise ValueError(f"need 2 <= d1 <= d2, got ({d1}, {d2})")
    return 2 * factorial(d1 + d2 - 2) >= factorial(d1) * factorial(d2)


def lemma_a3_check(d1: int, d2: int) -> bool:
    """Whether C(d1+d2, d1) <= 2 d1 d2."""
    if not 2 <= d1 <= d2:
        raise ValueError(f"need 2 <= d1 <= d2, got ({d1}, {d2})")
    return binomial(d1 + d2, d1) <= 2 * d1 * d2
