import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import accumulate, combinations
from pathlib import Path

import pytest

import shellings
from shellings.closed_forms import (
    MAX_STANLEY_WORK,
    complete_bipartite_count,
    complete_graph_count,
    path_count,
    rooted_path_count,
    stanley_inner_sum,
    stanley_sum_count,
)
from shellings.errors import GuardExceeded
from shellings.graphs import complete_bipartite_graph, complete_graph, path_graph
from shellings.oracle import build_subset_table, count_shellings_dp, rooted_counts_from_table


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 6), (4, 576)])
def test_complete_graph_values(n, expected):
    assert complete_graph_count(n) == expected


def test_complete_graph_matches_dp():
    for n in (2, 3, 4, 5):
        assert complete_graph_count(n) == count_shellings_dp(complete_graph(n))


def test_complete_graph_range():
    with pytest.raises(ValueError):
        complete_graph_count(1)


def test_complete_bipartite_values():
    assert complete_bipartite_count(1, 4) == 24
    assert complete_bipartite_count(2, 2) == 16
    assert complete_bipartite_count(2, 3) == 360


def test_complete_bipartite_symmetric_and_star_case():
    for m in range(1, 6):
        for n in range(1, 6):
            assert complete_bipartite_count(m, n) == complete_bipartite_count(n, m)
    fact = 1
    for n in range(1, 8):
        fact *= n
        assert complete_bipartite_count(1, n) == fact


def test_complete_bipartite_matches_dp_small():
    for m in range(1, 4):
        for n in range(m, 5):
            if m * n <= 12:
                g = complete_bipartite_graph(m, n)
                assert complete_bipartite_count(m, n) == count_shellings_dp(g)


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


def reference_inner_sum(m: int, n: int) -> Fraction:
    """The paper's sum, term by term over every sequence of (m-1) zeros
    and (n-1) ones: prod(b_i) / prod(suffix sums of b)."""
    length = m + n - 2
    total = Fraction(0)
    for ones_at in combinations(range(length), n - 1):
        alpha = [1 if i in ones_at else 0 for i in range(length)]
        b = b_sequence(alpha)
        total += Fraction(math.prod(b), math.prod(accumulate(reversed(b))))
    return total


def test_b_sequence():
    assert b_sequence((0, 1)) == (1, 2)
    assert b_sequence((1, 0)) == (1, 2)
    assert b_sequence((0, 0, 0, 0)) == (1, 1, 1, 1)
    assert b_sequence((0, 1, 1, 0)) == (1, 2, 2, 3)
    with pytest.raises(ValueError):
        b_sequence((0, 2))


def test_stanley_values():
    assert stanley_sum_count(1, 1) == 1
    assert stanley_inner_sum(2, 2) == Fraction(2, 3)
    assert stanley_sum_count(2, 2) == 16
    assert stanley_sum_count(2, 3) == 360


def test_stanley_transfer_matches_sequence_sum():
    for m in range(1, 8):
        for n in range(1, 8):
            inner = stanley_inner_sum(m, n)
            assert isinstance(inner, Fraction)
            assert inner == reference_inner_sum(m, n), (m, n)


def test_stanley_matches_formula():
    for m in range(1, 31):
        for n in range(1, 31):
            assert stanley_sum_count(m, n) == complete_bipartite_count(m, n), (m, n)


def test_stanley_guard():
    # the bound is on m*n*(m+n): (2, 1413) is inside it, (2, 1414) past it
    assert 2 * 1413 * 1415 <= MAX_STANLEY_WORK < 2 * 1414 * 1416
    for shape in ((2, 1414), (1414, 2), (127, 127), (2, 5000), (10**6, 10**6)):
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            stanley_sum_count(*shape)
        with pytest.raises(GuardExceeded):
            stanley_inner_sum(*shape)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError):
        stanley_inner_sum(0, 3)


def test_path_counts():
    assert path_count(2) == 1
    assert path_count(4) == 4
    assert path_count(10) == 256
    with pytest.raises(ValueError):
        path_count(1)


def test_rooted_path_counts():
    assert rooted_path_count(6, 1) == 1
    p4 = path_graph(4)
    assert rooted_path_count(4, 2) == rooted_counts_from_table(build_subset_table(p4), p4, 1)
    assert rooted_path_count(5, 2) == rooted_path_count(5, 4) == 4
    with pytest.raises(ValueError):
        rooted_path_count(5, 6)


def test_rooted_path_sum_is_twice_total():
    for n in range(2, 12):
        total = sum(rooted_path_count(n, i) for i in range(1, n + 1))
        assert total == 2 * path_count(n)


def test_exactness_checks_survive_python_O():
    # -O strips assert statements; the exactness checks must still raise
    script = """
import math, sys
from shellings import bounds, closed_forms, trees
from shellings.errors import ExactnessError
from shellings.graphs import star_graph
if not sys.flags.optimize:
    sys.exit(3)
closed_forms.factorial = trees.factorial = lambda n: math.factorial(n) + (n == 6)
hook, roots = trees.hook_count, bounds.all_root_counts

def propagation():
    # one too many at the seed root of star_graph(5): 25 * 1 / 4 is not integral
    trees.hook_count = lambda rt: hook(rt) + 1
    try:
        trees.all_root_counts(trees.root_tree(star_graph(5), 0))
    finally:
        trees.hook_count = hook

def odd_root_sum():
    bounds.all_root_counts = lambda rt: [c + (v == rt.root) for v, c in enumerate(roots(rt))]
    bounds.bound_report(star_graph(4))

for call, what in ((lambda: closed_forms.complete_bipartite_count(2, 3), "factorial division"),
                   (lambda: closed_forms.complete_graph_count(4), "Catalan division"),
                   (lambda: trees.hook_count(trees.root_tree(star_graph(6), 1)), "hook product"),
                   (lambda: trees.tree_count(star_graph(6)), "must be an integer"),
                   (propagation, "root-ratio propagation"),
                   (odd_root_sum, "must be even")):
    try:
        call()
    except ExactnessError as exc:
        if what not in str(exc):
            sys.exit(5)
        continue
    sys.exit(4)
"""
    src = str(Path(shellings.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
