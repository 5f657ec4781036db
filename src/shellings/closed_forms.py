"""Closed-form shelling counts for complete graphs, complete bipartite
graphs, and paths, plus the summation formula over 0/1-sequences that the
bipartite closed form collapses.

The summation is a lattice-path sum over (z, o), the zeros and ones read
so far.  Appending a zero gives b = 1 + o, a one b = 1 + z, so a prefix's
b-values sum to z + o + z*o: each (zero, one) pair in it adds exactly 1.
A full sequence sums to mn - 1, so the suffix sum from the next position
is S = mn - 1 - (z + o + z*o), which depends on (z, o) alone.

Every division here is exact by theorem, so a remainder raises
ExactnessError rather than being tolerated.
"""

from __future__ import annotations

from fractions import Fraction

from .bigmath import Nat, Rat, binomial, catalan, exact_div, factorial, rising
from .errors import GuardExceeded

# Bound on the summation's work m*n*(m+n), which bounds the total length of
# its rising products.  Shapes at the bound take 0.3 s (2, 1413) to 2-4 s
# (125, 125).
MAX_STANLEY_WORK = 4 * 10**6


def complete_graph_count(n: int) -> Nat:
    """F(K_n) = 2^(n-2) * C(n,2)! / catalan(n-1), exactly."""
    if n < 2:
        raise ValueError(f"complete_graph_count requires n >= 2, got {n}")
    return exact_div(2 ** (n - 2) * factorial(n * (n - 1) // 2), catalan(n - 1),
                     "Catalan division must be exact")


def complete_bipartite_count(m: int, n: int) -> Nat:
    """F(K_{m,n}) = m! n! (mn)! / (m+n-1)!, exactly."""
    if m < 1 or n < 1:
        raise ValueError(f"part sizes must be positive, got ({m}, {n})")
    return exact_div(factorial(m) * factorial(n) * factorial(m * n), factorial(m + n - 1),
                     "factorial division must be exact")


def stanley_inner_sum(m: int, n: int) -> Rat:
    """Sum over 0/1-sequences of (m-1) zeros and (n-1) ones of
    prod(b_i) / prod(suffix sums of b), exact.

    The suffix sums S along one sequence are distinct integers in
    [1, mn-1], so W = (mn-1)! times the sum is an integer lattice-path sum:
    a step from (z, o) with letter value b multiplies by b times the b - 1
    integers strictly between S - b and S, and W(0, 0) = 1.  The empty
    sequence (m = n = 1) contributes the empty-product term 1.
    """
    if m < 1 or n < 1:
        raise ValueError(f"part sizes must be positive, got ({m}, {n})")
    if m * n * (m + n) > MAX_STANLEY_WORK:
        raise GuardExceeded(f"summation work past {MAX_STANLEY_WORK} for ({m}, {n})")
    top = m * n - 1

    def step(z: int, o: int, b: int) -> Nat:
        s = top - z - o - z * o
        return b * rising(s - b + 1, b - 1)

    row: list[Nat] = []
    for z in range(m):
        prev, row = row, []
        for o in range(n):
            w = 1 if z == o == 0 else 0
            if z:
                w += prev[o] * step(z - 1, o, 1 + o)
            if o:
                w += row[-1] * step(z, o - 1, 1 + z)
            row.append(w)
    return Fraction(row[-1], factorial(top))


def stanley_sum_count(m: int, n: int) -> Nat:
    """F(K_{m,n}) via the 0/1-sequence sum; the total must be an integer."""
    return _stanley_count_from_sum(m, n, stanley_inner_sum(m, n))


def _stanley_count_from_sum(m: int, n: int, inner: Rat) -> Nat:
    """m! n! (mn-1)! times the inner sum of ``stanley_inner_sum(m, n)``."""
    scale = factorial(m) * factorial(n) * factorial(m * n - 1)
    return exact_div(scale * inner.numerator, inner.denominator,
                     "summation total must be an integer")


def path_count(n: int) -> Nat:
    """Shellings of the path on n vertices: 2^(n-2)."""
    if n < 2:
        raise ValueError(f"path_count requires n >= 2, got {n}")
    return 2 ** (n - 2)


def rooted_path_count(n: int, i: int) -> Nat:
    """Shellings of the n-path whose first edge touches the i-th vertex: C(n-1, i-1)."""
    if n < 2:
        raise ValueError(f"rooted_path_count requires n >= 2, got {n}")
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    return binomial(n - 1, i - 1)
