"""Closed-form shelling counts for complete graphs, complete bipartite
graphs, and paths, plus the summation formula over 0/1-sequences that the
bipartite closed form collapses.

Every division here is exact by theorem, so a remainder raises
ExactnessError rather than being tolerated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations

from .bigmath import Nat, Rat, binomial, catalan, exact_div, factorial
from .errors import GuardExceeded

DEFAULT_MAX_STANLEY_TERMS = 10**6


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


def b_sequence(alpha) -> tuple[int, ...]:
    """b_i = 1 + #{j <= i : alpha_j != alpha_i} for a 0/1 sequence."""
    zeros = ones = 0
    out = []
    for a in alpha:
        if a == 0:
            out.append(1 + ones)
            zeros += 1
        elif a == 1:
            out.append(1 + zeros)
            ones += 1
        else:
            raise ValueError(f"sequence entry {a} is not 0 or 1")
    return tuple(out)


def _zero_one_sequences(m: int, n: int):
    """All sequences of (m-1) zeros and (n-1) ones, by positions of the ones."""
    length = m + n - 2
    for ones_at in combinations(range(length), n - 1):
        bits = [0] * length
        for i in ones_at:
            bits[i] = 1
        yield tuple(bits)


def stanley_inner_sum(m: int, n: int, max_terms: int = DEFAULT_MAX_STANLEY_TERMS) -> Rat:
    """Sum over 0/1-sequences of prod(b_i) / prod(suffix sums of b), exact.

    The empty sequence (m = n = 1) contributes the empty-product term 1.
    """
    if m < 1 or n < 1:
        raise ValueError(f"part sizes must be positive, got ({m}, {n})")
    terms = binomial(m + n - 2, n - 1)
    if terms > max_terms:
        raise GuardExceeded(f"{terms} sequences exceeds guard {max_terms}")
    total = Fraction(0)
    for alpha in _zero_one_sequences(m, n):
        b = b_sequence(alpha)
        total += Fraction(math.prod(b), math.prod(accumulate(reversed(b))))
    return total


def stanley_sum_count(m: int, n: int, max_terms: int = DEFAULT_MAX_STANLEY_TERMS) -> Nat:
    """F(K_{m,n}) via the 0/1-sequence sum; the total must be an integer."""
    return _stanley_count_from_sum(m, n, stanley_inner_sum(m, n, max_terms))


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
