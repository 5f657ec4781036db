"""Self-tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402

PKG = worker.Package(ROOT)


def _bindings() -> dict:
    """(module, name) -> object for every binding in every package module."""
    out = {}
    for key, mod in sys.modules.items():
        if key == PACKAGE or key.startswith(PACKAGE + "."):
            for attr, value in vars(mod).items():
                out[(key, attr)] = value
    out[("Report", "to_json")] = PKG.report.Report.__dict__["to_json"]
    return out


def test_same_seed_gives_identical_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.build(workload, 7).to_bytes() == inputs.build(workload, 7).to_bytes()


def test_different_seed_changes_inputs():
    for workload in ("dp-sparse", "dp-dense", "trees-large"):
        assert inputs.build(workload, 7).to_bytes() != inputs.build(workload, 8).to_bytes()
    orders = {inputs.build("verify-sweep", s).to_bytes() for s in range(10)}
    assert len(orders) > 1


def test_composition_does_not_depend_on_seed():
    for workload in ("dp-sparse", "dp-dense"):
        a, b = inputs.build(workload, 1), inputs.build(workload, 2)
        assert sorted((r.label, len(r.edges())) for r in a.requests) == \
            sorted((r.label, len(r.edges())) for r in b.requests)
    sparse = inputs.build("dp-sparse", 3)
    assert any(r.label == "cycle20" and len(r.edges()) == 20 for r in sparse.requests)
    dense = inputs.build("dp-dense", 3)
    assert any(r.label == "k45" and len(r.edges()) == 20 for r in dense.requests)
    # trees-large: the i-th smallest tree lies in the i-th log-uniform stratum
    ratio = inputs.TREE_MAX_N / inputs.TREE_MIN_N
    k = inputs.TREE_REQUESTS
    for seed in (1, 2):
        sizes = sorted(r.num_vertices for r in inputs.build("trees-large", seed).requests)
        for i, n in enumerate(sizes):
            assert inputs.TREE_MIN_N * ratio ** (i / k) - 1 <= n <= inputs.TREE_MIN_N * ratio ** ((i + 1) / k) + 1


def test_traced_run_restores_every_patched_attribute():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.patched
        assert all(getattr(o, a) is not orig for o, a, orig in tracer.patched)
        plan = inputs.Plan("dp-dense", 0, [r for r in inputs.build("dp-dense", 0).requests
                                            if len(r.edges()) <= 12][:3])
        batch = worker.CountRequests(PKG, plan).batch(tracer)
        PKG.sweeps.run_suite("trees", 3)
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is orig for o, a, orig in tracer.patched)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    summary = tracer.summarize(("sweeps.sweep_trees",))
    assert summary["calls"]["cli.main"] == len(batch.records) == 3
    assert summary["calls"]["sweeps.sweep_trees"] == 1
    for name, total in summary["total_s"].items():
        assert -1e-9 <= summary["self_s"][name] <= total + 1e-9


def test_count_requests_check_passes_and_catches_wrong_values():
    plan = inputs.build("dp-sparse", 4)
    plan.requests = [r for r in plan.requests if len(r.edges()) == 12][:6]
    runner = worker.CountRequests(PKG, plan)
    cases: dict = {}
    assert runner.check(runner.batch(), cases) == [None] * 6
    assert cases["verified"] == 6
    tree = next(i for i, r in enumerate(plan.requests) if r.label == "tree")
    other = next(i for i, r in enumerate(plan.requests) if r.label != "tree")
    runner._expected[plan.requests[tree].group] = tuple(
        r + 1 for r in runner._expected[plan.requests[tree].group])
    runner._expected[plan.requests[other].group] += 1
    failures = runner.check(runner.batch(), {})
    assert failures[tree].kind == failures[other].kind == "wrong_value"


def test_wrong_dp_value_makes_run_incorrect():
    """A DP that disagrees with the closed form makes `count` exit 1; the
    benchmark still reads the report and files a wrong value."""
    plan = inputs.build("dp-dense", 5)
    plan.requests = ([r for r in plan.requests if r.label == "k34"][:2]
                     + [r for r in plan.requests if r.label == "k5"][:1])
    original = PKG.cli.count_shellings_dp

    def off_by_one_on_k34(g, *args, **kwargs):
        return original(g, *args, **kwargs) + (g.num_edges == 12)

    PKG.cli.count_shellings_dp = off_by_one_on_k34
    try:
        result = worker.run_untraced(worker.CountRequests(PKG, plan), 0.0)
    finally:
        PKG.cli.count_shellings_dp = original
    assert result["correct"] is False
    assert result["attempted"] == 3 * result["notes"]["batches"]
    assert result["failed"] == 2 * result["notes"]["batches"]
    assert set(result["notes"]["failures"]) == {"wrong_value/cli/k34"}


def test_failing_sweep_check_makes_run_incorrect():
    plan = inputs.Plan("verify-sweep", 0, [], [["trees", 4]])
    original = PKG.sweeps.tree_count
    PKG.sweeps.tree_count = lambda g: original(g) + 1
    try:
        result = worker.run_untraced(worker.VerifySweep(PKG, plan), 0.0)
    finally:
        PKG.sweeps.tree_count = original
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == result["notes"]["batches"]


def test_counter_error_is_a_note_not_a_failure():
    tracer = Tracer()
    tracer.install()
    tracer.counters.observe = lambda *args: 1 // 0
    try:
        value = PKG.trees.tree_count(PKG.graphs.path_graph(5))
    finally:
        tracer.uninstall()
    assert value == 8
    assert tracer.counters.errors["trees.tree_count"][0] == 1
    assert tracer.counters.errors["trees.tree_count"][1].startswith("ZeroDivisionError")


def test_oversized_result_failure_is_attributed_to_report():
    try:
        PKG.report.format_value(10 ** 5000)
    except ValueError as exc:
        assert PKG.layer_of(exc) == "report"
    else:
        raise AssertionError("expected the 4,300-digit limit to raise")


def _is_prime(p: int) -> bool:
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def test_references_agree_with_package():
    assert all(_is_prime(p) and p > inputs.TREE_MAX_N for p in reference.CHECK_PRIMES)
    g = PKG.graphs
    for n in (3, 4, 5):
        edges = list(g.complete_graph(n).edges)
        assert reference.shelling_count(edges) == reference.complete_graph_count(n)
    for a, b in ((2, 3), (3, 3)):
        edges = list(g.complete_bipartite_graph(a, b).edges)
        assert reference.shelling_count(edges) == reference.complete_bipartite_count(a, b)
    assert reference.shelling_count(list(g.cycle_graph(9).edges)) == reference.cycle_count(9)
    tree = g.random_tree(400, 11)
    exact = PKG.trees.tree_count(tree)
    assert reference.tree_residues(400, tree.edges) == tuple(exact % p for p in reference.CHECK_PRIMES)


def test_typical_times_pool_copies_and_extra_samples():
    a, b = worker.Batch(), worker.Batch()
    a.latencies, b.latencies = [1.0, 3.0, 20.0], [2.0, 0.5, 30.0]
    a.extra = [(2, 90.0)]
    # groups: the first two operations are copies of one request
    times = worker._typical_times([a, b], [0, 0, 1], "latencies", min)
    assert times == [0.5, 0.5, 20.0]
    times = worker._typical_times([a, b], [0, 0, 1], "latencies", worker.statistics.median)
    assert times == [1.5, 1.5, 30.0]
