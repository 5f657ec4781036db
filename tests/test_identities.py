from fractions import Fraction
from itertools import combinations

import pytest

from shellings.bigmath import factorial, gbinom_int_diff, rising
from shellings.errors import GuardExceeded
from shellings.identities import (
    induction_lemma_limits,
    induction_theorem_sides,
    lemma_a1_check,
    lemma_a2_check,
    lemma_a3_check,
    story_side_values,
    verify_binomial_sum,
    verify_induction_lemma,
    verify_induction_theorem,
    verify_story,
)


def test_story_all_integer_case():
    case = verify_story(2, 1, 1, 6)
    # left sum 2*4 + 3*3 + 4*2 + 5*1 = 30, computed independently on both sides
    assert case.lhs == 30
    assert case.rhs == 30
    assert case.holds


def test_story_rational_case():
    case = verify_story(1, 1, Fraction(3, 2), Fraction(9, 2))
    assert case.holds
    case = verify_story(3, 2, Fraction(7, 3), Fraction(7, 3) + 5)
    assert case.holds


def test_story_degenerate_single_term():
    case = verify_story(3, 2, 2, 5)  # x = w - z, one-term left side
    assert case.lhs == 3  # C(3,2) * C(2,2)
    assert case.holds


def test_story_preconditions():
    with pytest.raises(ValueError):
        verify_story(0, 1, 1, 5)
    with pytest.raises(ValueError):
        verify_story(2, 1, 1, 2)  # w - z = 1 < x
    with pytest.raises(ValueError):
        verify_story(1, 1, Fraction(1, 2), 2)  # w - z not an integer


def test_story_polynomial_form_matches_at_rational_points():
    for t in range(6):
        w = Fraction(2 * 4 + 2 * t + 1, 2)
        lhs, rhs = story_side_values(2, 1, 4, w)
        assert lhs == rhs


def test_binomial_sum_smallest_case():
    case = verify_binomial_sum(2, 2, 1, 0)
    assert case.lhs == 4 and case.rhs == 4
    assert case.holds


def test_binomial_sum_non_integer_entries():
    case = verify_binomial_sum(3, 4, 2, 1)  # mk/(n-k) = 3, mn/(n-k) = 6
    assert case.holds
    case = verify_binomial_sum(2, 5, 2, 0)  # mk/(n-k) = 4/3 is not an integer
    assert case.holds


def test_binomial_sum_preconditions():
    with pytest.raises(ValueError):
        verify_binomial_sum(2, 2, 2, 0)  # k = n
    with pytest.raises(ValueError):
        verify_binomial_sum(2, 2, 1, 2)  # s too large


def test_induction_lemma_limits():
    assert induction_lemma_limits(3, 3, 2, 1) == (1, 0)
    assert induction_lemma_limits(5, 5, 1, 0) == (0, 0)


def test_induction_lemma_ell_zero_is_single_binomial():
    # i0 = 0 here, so both sides reduce to the same lone binomial term
    case = verify_induction_lemma(5, 5, 1, 0, 0)
    assert case.holds
    assert case.lhs == case.rhs != 0


def test_induction_lemma_examples():
    assert verify_induction_lemma(3, 3, 2, 1, 1).holds
    assert verify_induction_lemma(3, 3, 2, 1, 2).holds
    assert verify_induction_lemma(4, 5, 3, 2, 3).holds


def test_induction_lemma_range_check():
    with pytest.raises(ValueError):
        verify_induction_lemma(3, 3, 2, 1, 0)  # ell below i0 = 1


def test_induction_theorem_definitional_k():
    for m, n in ((2, 2), (2, 3), (3, 3), (2, 4)):
        case = verify_induction_theorem(m, n, n - 1)
        assert case.holds


def test_induction_theorem_k1_reaches_closed_form():
    from shellings.bigmath import factorial

    for m, n in ((2, 3), (3, 3), (2, 4)):
        lhs, rhs = induction_theorem_sides(m, n, 1)
        assert lhs == rhs
        assert lhs == Fraction(factorial(m * n), factorial(m + n - 1))


def test_induction_theorem_middle_k():
    assert verify_induction_theorem(3, 3, 2).holds
    assert verify_induction_theorem(4, 4, 2).holds


def _reference_chain(m, n, rs):
    """prod_j R_j over the ascending tuple rs, with the last Gamma denominator
    cancelled, telescoped in closed form: prod (r_j - j + 1) (mn - r_1 - 1)!
    / prod rising(mn/(j+1) + j - r_{j+1}, r_{j+1} - r_j)."""
    term = Fraction(factorial(m * n - rs[0] - 1))
    for j, r_j in enumerate(rs, start=1):
        term *= r_j - j + 1
    for j, (r_j, r_next) in enumerate(zip(rs, rs[1:]), start=1):
        term /= rising(Fraction(m * n, j + 1) + j - r_next, r_next - r_j)
    return term


def reference_induction_sides(m, n, k):
    """Both sides of the induction identity summed tuple by tuple."""
    lhs = sum(
        _reference_chain(m, n, rs) / factorial(m + n - 2 - rs[-1])
        for rs in combinations(range(1, m + n - 1), n - 1)
    ) / factorial(n - 1)
    low = Fraction(m * (n - k), k)
    rhs = Fraction(0)
    for rs in combinations(range(1, m + k), k):
        r_k = rs[-1]
        if k == 1:
            head = Fraction(factorial(m * (n - 1) - 1))
        else:
            head = _reference_chain(m, n, rs[:-1]) / rising(low, m + k - 1 - rs[-2])
        rhs += head * (r_k - k + 1) * rising(r_k + 2, n - k - 1) * gbinom_int_diff(
            Fraction(m * n, k) + k - 2 - r_k, low - 1
        )
    coeff0 = Fraction(factorial(m + k), factorial(m + n - 1) * factorial(k) * factorial(n - k - 1))
    return lhs, coeff0 * rhs


def test_induction_theorem_transfer_matches_tuple_sums():
    for m in range(1, 6):
        for n in range(2, 6):
            for k in range(1, n):
                assert induction_theorem_sides(m, n, k) == reference_induction_sides(m, n, k)


def test_induction_theorem_holds_up_to_ten():
    for m in range(1, 11):
        for n in range(2, 11):
            closed = Fraction(factorial(m * n), factorial(m + n - 1))
            for k in range(1, n):
                lhs, rhs = induction_theorem_sides(m, n, k)
                assert lhs == rhs == closed, (m, n, k)


@pytest.mark.parametrize("m, n, k", [(0, 3, 1), (2, 1, 1), (2, 3, 0), (2, 3, 3)])
def test_induction_theorem_rejects_illegal_parameters(m, n, k):
    with pytest.raises(ValueError):
        induction_theorem_sides(m, n, k)


def test_induction_theorem_guard():
    with pytest.raises(GuardExceeded):
        verify_induction_theorem(60, 60, 1)


def test_lemma_a1():
    assert lemma_a1_check([1, 1], 3)
    assert not lemma_a1_check([2, 2], 3)
    assert lemma_a1_check([1, 1, 1], 4)
    with pytest.raises(ValueError):
        lemma_a1_check([2, 1], 3)  # not nondecreasing
    with pytest.raises(ValueError):
        lemma_a1_check([1, 1], 4)  # wrong length


def test_lemma_a2():
    assert lemma_a2_check(2, 2)
    assert lemma_a2_check(2, 5)  # 240 >= 240, equality
    assert lemma_a2_check(4, 4)  # 1440 >= 576
    with pytest.raises(ValueError):
        lemma_a2_check(3, 2)


def test_lemma_a3():
    assert lemma_a3_check(2, 4)  # 15 <= 16
    assert not lemma_a3_check(2, 5)  # 21 > 20
    assert not lemma_a3_check(3, 3)  # 20 > 18
