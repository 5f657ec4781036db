"""The benchmark's verify-sweep pins each check's case count.

``bench/worker.py`` marks a suite ``wrong_value`` when its case counts
differ from ``EXPECTED_CASES`` at the sizes in ``bench/inputs.py``'s
``VERIFY_PLAN``.  Both tables are read as text and evaluated as literals,
so the test neither imports nor changes the benchmark, and a sweep edit
that changes a count fails here first.
"""

import ast
import re
from pathlib import Path

import pytest

from shellings import sweeps

BENCH = Path(__file__).resolve().parents[1] / "bench"
CASES = re.compile(r"^(\d+) cases")


def _literal(path, name):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


EXPECTED_CASES = _literal(BENCH / "worker.py", "EXPECTED_CASES")
VERIFY_PLAN = _literal(BENCH / "inputs.py", "VERIFY_PLAN")


def test_plan_covers_every_pinned_suite():
    assert sorted(suite for suite, _ in VERIFY_PLAN) == sorted(EXPECTED_CASES)


@pytest.mark.parametrize("suite,max_n", VERIFY_PLAN, ids=[s for s, _ in VERIFY_PLAN])
def test_suite_reports_the_pinned_case_counts(suite, max_n):
    outcomes = sweeps.run_suite(suite, max_n)
    assert [o.name for o in outcomes if not o.ok] == []
    got = {o.name: (int(m.group(1)) if (m := CASES.match(o.detail)) else None)
           for o in outcomes}
    assert got == EXPECTED_CASES[suite]
