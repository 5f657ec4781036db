"""One workload run, in a process of its own.

Imports the package from ``src/`` under the current directory, builds the
seeded inputs, then repeats the workload's fixed batch of operations as a
closed loop (one caller; the next request starts when the previous one
returns).  Answers are checked after the timed batches, so checking never
counts as answer time.  Prints one JSON object as its last stdout line.

    python3 bench/worker.py --workload dp-sparse --seed 1 --seconds 20 \\
        --trace 0 --t0 <time.monotonic() at spawn> [--probe]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import resource
import statistics
import sys
import time

import inputs
import reference
from tracer import Tracer

TRACE_DIR = ".bench_out"

# Check names and case counts that `shellings verify <suite>` reports for
# the sizes in inputs.VERIFY_PLAN; None marks a check whose detail is a note.
EXPECTED_CASES = {
    "bipartite": {"complete_bipartite_vs_dp": 27, "stanley_sum_vs_formula": 15,
                  "complete_bipartite_symmetry": 15, "complete_graph_vs_dp": 4},
    "oracle": {"enumeration_matches_dp": 14, "dp_invariant_under_relabeling": 23,
               "rooted_counts_sum_to_twice_total_on_trees": 1441},
    "identities": {"story_identity_grid": 400, "story_polynomial_identity": 520,
                   "binomial_sum_full_grid": 435, "induction_lemma_full_grid": 416,
                   "induction_lemma_covers_both_branches": 1, "induction_theorem_grid": 24,
                   "appendix_binomial_vs_power_iff": 246, "appendix_factorial_inequality": 66,
                   "appendix_binomial_linear_iff": 66},
    "trees": {"labeled_tree_enumeration_count": 6,
              "enumerated_trees_connected_with_n_minus_1_edges": 1442,
              "prufer_roundtrip": 1441, "hook_count_vs_rooted_dp": 8476,
              "all_root_counts_vs_rooted_dp": 8476, "tree_count_vs_dp": 1442,
              "rooted_sum_is_twice_total": 1441, "root_count_seed_independence": 4323,
              "adjacent_root_integer_ratio": 7035, "path_total_is_power_of_two": 19,
              "path_root_counts_are_binomials": 19},
    "bounds": {"degree_lower_bound_holds": 18248,
               "degree_bound_equality_iff_path_or_star": 18248,
               "weight_bound_holds_every_root": 126125,
               "count_at_most_mid_spider_count": 18248,
               "count_at_most_printed_diameter_bound": 18248,
               "push_step_weight_sum_not_decreased": 22554,
               "push_step_preserves_size_and_depth": 22554,
               "pull_step_count_not_decreased": 10832, "transform_fixpoints_reached": 2141,
               "printed_vs_extremal_regression_pins": 4, "printed_vs_extremal_gap_observed": None,
               "double_broom_family_closed_forms": 9},
}
SUITES = tuple(EXPECTED_CASES)
BASELINE_LABELS = ("cycle20", "k45", "k44", "k35")
FAILURE_KINDS = ("exception", "exit_code", "refused", "wrong_value", "round_trip")
# Typical seconds of one untraced batch (2-vCPU x86 VM).  An untraced run
# makes --seconds / BATCH_S batches, at least MIN_BATCHES.  The count is
# fixed per workload, not set from the first batch's time: on a host whose
# speed drifts, the fastest of 3 and of 4 samples of a request differ by 20%.
BATCH_S = {"verify-sweep": 12.0, "dp-sparse": 5.0, "dp-dense": 9.0, "trees-large": 9.0}
MIN_BATCHES = 2
# In untraced runs, verify-sweep suites faster than RESAMPLE_UNDER_S run
# twice a batch; the median suite is one of them.
RESAMPLE_UNDER_S = 1.0
# Workloads whose operations count at their fastest sample; the others
# count at their median sample.  Over 8 runs each on a shared 2-vCPU VM,
# these choices spread least: dp-sparse p50/p90 0.05/0.07 fastest vs
# 0.18/0.19 median; dp-dense 0.05/0.07 median vs 0.12/0.14 fastest.
FASTEST_SAMPLE_WORKLOADS = ("dp-sparse",)
_CASES = re.compile(r"^(\d+) cases")


class Package:
    """The package modules the benchmark calls, imported from ``<root>/src``."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        sys.path.insert(0, src)
        import shellings
        from shellings import cli, graphs, report, sweeps, trees

        self.dir = os.path.dirname(os.path.abspath(shellings.__file__))
        if os.path.dirname(self.dir) != os.path.abspath(src):
            raise ImportError(f"shellings imported from {self.dir}, not from {src}")
        self.cli, self.graphs, self.report, self.sweeps, self.trees = cli, graphs, report, sweeps, trees

    def layer_of(self, exc: BaseException) -> str:
        """The package module of the deepest traceback frame, else 'bench'."""
        layer = "bench"
        tb = exc.__traceback__
        while tb is not None:
            path = tb.tb_frame.f_code.co_filename
            if os.path.dirname(os.path.abspath(path)) == self.dir:
                layer = os.path.splitext(os.path.basename(path))[0]
            tb = tb.tb_next
        return layer


class Failure:
    """One failed operation: its kind (FAILURE_KINDS), the layer it is
    attributed to, and a short detail."""

    def __init__(self, kind: str, layer: str, detail: str):
        self.kind, self.layer, self.detail = kind, layer, detail


def _raised(pkg: Package, exc: BaseException) -> Failure:
    return Failure("exception", pkg.layer_of(exc), f"{type(exc).__name__}: {exc}"[:200])


@contextlib.contextmanager
def _request_span(tracer, label: str):
    if tracer is None:
        yield
        return
    sid = tracer.enter(tracer.name_id("request:" + label))
    try:
        yield
    finally:
        tracer.exit(sid)


# ---------------------------------------------------------------------------
# workloads: each has a batch (timed) and a check (untimed)


class Batch:
    """Raw results of one pass over the plan.

    ``latencies`` holds each request's answer time; ``op_s`` its whole
    operation time, which differs only where an operation has a step
    after the answer (the Report round trip of trees-large).  ``extra``
    holds further (index, seconds) samples of operations whose two times
    are the same (verify-sweep's cheap suites).
    """

    def __init__(self):
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.op_s: list[float] = []
        self.extra: list[tuple[int, float]] = []
        self.records: list = []


class VerifySweep:
    """`sweeps.run_suite` per suite; one request per suite."""

    def __init__(self, pkg: Package, plan):
        self.pkg, self.plan = pkg, plan

    def _call(self, suite: str, max_n, tracer) -> tuple:
        t0 = time.perf_counter()
        with _request_span(tracer, suite):
            try:
                record = self.pkg.sweeps.run_suite(suite, max_n)
            except Exception as exc:
                record = exc
        return time.perf_counter() - t0, record

    def batch(self, tracer=None, resample: bool = False) -> Batch:
        """One pass over the suites.

        With ``resample`` (untraced runs), every suite that took under
        RESAMPLE_UNDER_S runs once more after the pass, seconds after its
        first call, into ``Batch.extra``.  The median of the five suites is
        one of these cheap ones, and two samples of a sub-second call in a
        run spread too widely from run to run.
        """
        out = Batch()
        start = time.perf_counter()
        for suite, max_n in self.plan.suites:
            seconds, record = self._call(suite, max_n, tracer)
            out.latencies.append(seconds)
            out.op_s.append(seconds)
            out.records.append((suite, [record]))
        if resample:
            for i, (suite, max_n) in enumerate(self.plan.suites):
                if out.latencies[i] < RESAMPLE_UNDER_S:
                    seconds, record = self._call(suite, max_n, tracer)
                    out.extra.append((i, seconds))
                    out.records[i][1].append(record)
        out.wall_s = time.perf_counter() - start
        return out

    def check(self, batch: Batch, cases: dict) -> list:
        """One entry per suite: the first failure among its samples, else None."""
        failures = []
        for suite, samples in batch.records:
            failure = None
            for record in samples:
                failure, got = self._check_one(suite, record)
                if failure is not None:
                    break
            failures.append(failure)
            if failure is None:
                n = sum(c for c in got.values() if c is not None)
                cases[suite] = n
                cases["verified"] = cases.get("verified", 0) + n
        return failures

    def _check_one(self, suite: str, record) -> tuple:
        """(failure or None, the case count of each check)."""
        if isinstance(record, BaseException):
            return _raised(self.pkg, record), None
        failed = [o.name for o in record if not o.ok]
        got = {o.name: (int(m.group(1)) if (m := _CASES.match(o.detail)) else None)
               for o in record}
        if failed:
            return Failure("wrong_value", "sweeps", f"{suite}: {failed[:3]} failed"), got
        if got != EXPECTED_CASES.get(suite):
            return Failure("wrong_value", "sweeps", f"{suite}: case counts {got}"), got
        return None, got


class CountRequests:
    """`cli.main(["count", "-"])` on edge-list text: the dp-* workloads."""

    def __init__(self, pkg: Package, plan):
        self.pkg, self.plan = pkg, plan
        self._expected: dict[int, object] = {}

    def _call(self, req) -> tuple:
        """One closed-loop request: (seconds, exit code or exception, stdout, stderr)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        sys.stdin = io.StringIO(req.text)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                record = self.pkg.cli.main(["count", "-"])
            except SystemExit as exc:
                record = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:
                record = exc
        return time.perf_counter() - t0, record, stdout.getvalue(), stderr.getvalue()

    def batch(self, tracer=None) -> Batch:
        out = Batch()
        saved_stdin = sys.stdin
        start = time.perf_counter()
        try:
            for req in self.plan.requests:
                with _request_span(tracer, req.label):
                    seconds, *record = self._call(req)
                out.latencies.append(seconds)
                out.op_s.append(seconds)
                out.records.append(record)
        finally:
            sys.stdin = saved_stdin
        out.wall_s = time.perf_counter() - start
        return out

    def expected(self, req):
        """The exact count, or for a tree its residues modulo CHECK_PRIMES."""
        if req.group not in self._expected:
            kind, p = req.label, req.params
            if self.plan.workload == "dp-dense":
                value = (reference.shelling_count(req.edges()) if kind == "rand7"
                         else reference.complete_graph_count(*p) if len(p) == 1
                         else reference.complete_bipartite_count(*p))
            elif kind == "tree":
                value = reference.tree_residues(req.num_vertices, req.edges())
            elif kind == "path":
                value = reference.path_count(req.num_vertices - 1)
            elif kind.startswith("cycle"):
                value = reference.cycle_count(req.num_vertices)
            else:
                value = reference.shelling_count(req.edges())
            self._expected[req.group] = value
        return self._expected[req.group]

    def _matches(self, req, value: str) -> bool:
        want = self.expected(req)
        if isinstance(want, tuple):
            return value.isdigit() and tuple(int(value) % p for p in reference.CHECK_PRIMES) == want
        return value == str(want)

    def check(self, batch: Batch, cases: dict) -> list:
        failures = []
        report_cls = self.pkg.report.Report
        for req, (record, text, err) in zip(self.plan.requests, batch.records):
            failures.append(self._check_one(req, record, text, err, report_cls))
            if failures[-1] is None:
                cases["verified"] = cases.get("verified", 0) + 1
        return failures

    def _check_one(self, req, record, text, err, report_cls):
        """Classify one sample.  Exit 1 means a cross-check failed; its report
        is still read, so a wrong count is filed as a wrong value."""
        if isinstance(record, BaseException):
            return _raised(self.pkg, record)
        if record == 2:
            return Failure("refused", "cli", err.strip()[:200])
        if record not in (0, 1) or not text.strip():
            return Failure("exit_code", "cli", f"exit {record}: {err.strip()[:160]}")
        try:
            doc = json.loads(text)
            report = report_cls.from_json(text)
            same = report.to_dict() == doc and report.to_json() + "\n" == text
        except (ValueError, KeyError, TypeError) as exc:
            return Failure("round_trip", "report", f"{type(exc).__name__}: {exc}"[:200])
        if not same:
            return Failure("round_trip", "report", "report changed through from_json")
        bad = [c.name for c in report.cross_checks if c.status != "pass"]
        if bad:
            return Failure("wrong_value", "cli", f"{req.label}: cross-checks not passing: {bad}"[:200])
        wrong = {k: v for k, v in report.results.items() if not self._matches(req, v)}
        if wrong or not report.results:
            return Failure("wrong_value", "cli", f"{req.label}: {wrong} vs {self.expected(req)}"[:200])
        if record != 0:
            return Failure("exit_code", "cli", f"exit {record}: {err.strip()[:160]}")
        return None


class TreesLarge:
    """parse_edge_list -> classify -> tree_count, then the Report round trip."""

    def __init__(self, pkg: Package, plan):
        self.pkg, self.plan = pkg, plan
        self._residues: dict[int, tuple] = {}

    def batch(self, tracer=None) -> Batch:
        out = Batch()
        graphs, trees, report_cls = self.pkg.graphs, self.pkg.trees, self.pkg.report.Report
        start = time.perf_counter()
        for req in self.plan.requests:
            t0 = time.perf_counter()
            answer = tags = None
            with _request_span(tracer, req.label):
                try:
                    g = graphs.parse_edge_list(req.text)
                    tags = graphs.classify(g).tags
                    answer = trees.tree_count(g)
                except Exception as exc:
                    answer = exc
                out.latencies.append(time.perf_counter() - t0)
                serialized = None
                if not isinstance(answer, BaseException):
                    try:
                        report = report_cls("count", input={"numVertices": g.num_vertices,
                                                            "numEdges": g.num_edges,
                                                            "tags": list(tags)})
                        report.add_result("tree", answer)
                        text = report.to_json()
                        serialized = (report, report_cls.from_json(text))
                    except Exception as exc:
                        serialized = exc
            out.op_s.append(time.perf_counter() - t0)
            out.records.append((answer, tags, serialized))
        out.wall_s = time.perf_counter() - start
        return out

    def check(self, batch: Batch, cases: dict) -> list:
        failures = []
        for req, (answer, tags, serialized) in zip(self.plan.requests, batch.records):
            if isinstance(answer, BaseException):
                failures.append(_raised(self.pkg, answer))
                continue
            if req.group not in self._residues:
                self._residues[req.group] = reference.tree_residues(req.num_vertices, req.edges())
            residues = tuple(answer % p for p in reference.CHECK_PRIMES)
            if "Tree" not in tags or residues != self._residues[req.group]:
                failures.append(Failure("wrong_value", "trees", f"n={req.num_vertices}"))
                continue
            cases["verified"] = cases.get("verified", 0) + 1
            if isinstance(serialized, BaseException):
                failures.append(_raised(self.pkg, serialized))
            elif serialized[0].to_dict() != serialized[1].to_dict():
                failures.append(Failure("round_trip", "report", f"n={req.num_vertices}"))
            else:
                failures.append(None)
        return failures


RUNNERS = {"verify-sweep": VerifySweep, "dp-sparse": CountRequests,
           "dp-dense": CountRequests, "trees-large": TreesLarge}


# ---------------------------------------------------------------------------
# metrics


def _tally(failures: list) -> dict:
    kinds = {k: 0 for k in FAILURE_KINDS}
    for f in failures:
        if f is not None:
            kinds[f.kind] += 1
    return kinds


def _trees_per_batch(plan) -> int:
    """Trees the bounds sweep enumerates, else the tree inputs of the batch."""
    for suite, max_n in plan.suites:
        if suite == "bounds":
            return sum(n ** (n - 2) for n in range(2, max_n + 1))
    return sum(1 for r in plan.requests if r.text.count("\n") == r.num_vertices - 1)


def layer_metrics(summary: dict, counters: dict, plan, failures: list, cases: dict) -> dict:
    """The per-layer metrics of one traced batch."""
    self_s, calls, total = summary["self_s"], summary["calls"], summary["total_s"]
    in_bounds = summary["by_anchor"].get("sweeps.sweep_bounds", {})
    trees = _trees_per_batch(plan)
    m: dict[str, float] = {}

    def module_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def per_tree(name: str) -> float:
        n = in_bounds[name][0] if plan.suites and name in in_bounds else calls.get(name, 0)
        return n / trees if trees else 0.0

    visited = counters.get("oracle.subsets_visited", 0)
    connected = counters.get("oracle.subsets_connected", 0)
    m["oracle.build_subset_table.self_s"] = self_s.get("oracle.build_subset_table", 0.0)
    m["oracle.rooted_counts_from_table.self_s"] = self_s.get("oracle.rooted_counts_from_table", 0.0)
    m["oracle.subsets_visited"] = visited
    m["oracle.subsets_connected"] = connected
    m["oracle.connected_ratio"] = connected / visited if visited else 0.0
    m["oracle.table_bytes_computed"] = counters.get("oracle.table_bytes_computed", 0)
    for label in BASELINE_LABELS:
        cell = summary["by_anchor"].get("request:" + label, {}).get("oracle.build_subset_table")
        m[f"oracle.{label}.dp_s"] = cell[1] / cell[0] if cell else 0.0
    m["graphs.is_connected.calls"] = calls.get("graphs.is_connected", 0)
    m["graphs.is_connected.per_tree"] = per_tree("graphs.is_connected")
    m["graphs.parse_edge_list.self_s"] = self_s.get("graphs.parse_edge_list", 0.0)
    m["graphs.parse_edge_list.bytes"] = counters.get("graphs.parse_edge_list.bytes", 0)
    m["graphs.classify.self_s"] = self_s.get("graphs.classify", 0.0)
    m["trees.root_tree.calls"] = calls.get("trees.root_tree", 0)
    m["trees.root_tree.per_tree"] = per_tree("trees.root_tree")
    for name in ("root_tree", "tree_count", "all_root_counts", "hook_count"):
        m[f"trees.{name}.self_s"] = self_s.get(f"trees.{name}", 0.0)
    m["trees.result_bits"] = counters.get("trees.result_bits", 0)
    for name in ("weight_bound_coefficient", "longest_path", "degree_lower_bound"):
        m[f"bounds.{name}.self_s"] = self_s.get(f"bounds.{name}", 0.0)
    m["bounds.transforms.self_s"] = (self_s.get("bounds.push_branch_from_root", 0.0)
                                     + self_s.get("bounds.pull_branch_toward_middle", 0.0))
    m["sweeps.bounds.wall_s"] = total.get("sweeps.sweep_bounds", 0.0)
    m["sweeps.trees.wall_s"] = total.get("sweeps.sweep_trees", 0.0)
    for suite in SUITES:
        m[f"sweeps.{suite}.cases"] = cases.get(suite, 0)
    m["identities.self_s"] = module_self("identities.")
    m["closed_forms.self_s"] = module_self("closed_forms.")
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    m["report.to_json.self_s"] = self_s.get("report.to_json", 0.0)
    m["report.to_json.bytes"] = counters.get("report.to_json.bytes", 0)
    m["report.failed"] = sum(1 for f in failures if f is not None and f.layer == "report")
    for kind, n in _tally(failures).items():
        m[f"failed.{kind}"] = n
    m["trace.spans"] = summary["spans"]
    return m


def _timed_batches(run, workload: str, seconds: float) -> list:
    """About ``seconds`` worth of batches, by the workload's typical batch time."""
    return [run() for _ in range(max(MIN_BATCHES, round(seconds / BATCH_S[workload])))]


def _typical_times(batches: list, groups: list, attr: str, pick) -> list:
    """Per operation, ``pick`` (min or median) of every sample of its group
    in any batch."""
    pool: dict = {}
    for b in batches:
        for group, t in zip(groups, getattr(b, attr)):
            pool.setdefault(group, []).append(t)
        for i, t in b.extra:
            pool[groups[i]].append(t)
    return [pick(pool[g]) for g in groups]


def _p90(values: list) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def run_untraced(runner, seconds: float) -> dict:
    """End-to-end metrics from k repetitions of the batch.

    Each request's time comes from the closed-loop round trips of every
    identical request (same group: the copies of one graph text) over the k
    batches, so the 28 copies of K_{3,4} give the median request k x 28
    samples spread over the whole run (verify-sweep has no copies; its
    cheap suites are sampled twice a batch instead, see VerifySweep.batch).
    An operation counts at the fastest or the median of those samples (see
    FASTEST_SAMPLE_WORKLOADS).  The percentiles
    run over the batch's requests and ``wall_s`` sums the operation times.
    On this kind of shared machine other tenants slow stretches of a run
    by tens of percent.  The median batch wall time is kept in the notes.
    """
    run = runner.batch
    if isinstance(runner, VerifySweep):
        run = functools.partial(runner.batch, resample=True)
    batches = _timed_batches(run, runner.plan.workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, cases = [], {}
    for b in batches:
        failures += runner.check(b, cases)
    groups = [r.group for r in runner.plan.requests] or list(range(len(runner.plan.suites)))
    pick = min if runner.plan.workload in FASTEST_SAMPLE_WORKLOADS else statistics.median
    answer_s = _typical_times(batches, groups, "latencies", pick)
    op_times = _typical_times(batches, groups, "op_s", pick)
    wall_s = sum(op_times)
    attempted = len(failures)
    failed = sum(1 for f in failures if f is not None)
    metrics = {
        "wall_s": (wall_s, "s"),
        "answer_p50_ms": (1000.0 * statistics.median(answer_s), "ms"),
        "answer_p90_ms": (1000.0 * _p90(answer_s), "ms"),
        "cases_per_s": (cases.get("verified", 0) / len(batches) / wall_s, "1/s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"batches": len(batches), "answer_samples": len(answer_s),
             "median_batch_wall_s": statistics.median(b.wall_s for b in batches),
             "failed_ratio": failed / attempted, "failures": _failure_notes(failures)}
    return {"attempted": attempted, "failed": failed,
            "correct": _tally(failures)["wrong_value"] == 0, "metrics": metrics, "notes": notes}


def _failure_notes(failures: list) -> dict:
    """Counts per (kind, layer, exception type) with one example detail each."""
    notes: dict = {}
    for f in failures:
        if f is None:
            continue
        key = f"{f.kind}/{f.layer}/{f.detail.split(':')[0]}"
        entry = notes.setdefault(key, {"count": 0, "example": f.detail})
        entry["count"] += 1
    return notes


def run_traced(runner, plan, seconds: float, workload: str) -> dict:
    """Untraced and traced batches in pairs; per-layer values are medians.

    The first pair's time sets the number of pairs.  Tracing overhead is
    each traced batch's wall time minus that of the untraced one before it.
    """
    tracer = Tracer()
    anchors = tuple(f"sweeps.sweep_{s}" for s in SUITES) + tuple(
        "request:" + label for label in BASELINE_LABELS)
    per_pair, all_failures, restored = [], [], True
    pairs = None
    while pairs is None or len(per_pair) < pairs:
        plain = runner.batch()
        tracer.reset()
        tracer.install()
        try:
            traced = runner.batch(tracer)
        finally:
            tracer.uninstall()
        restored = restored and all(getattr(o, a) is orig for o, a, orig in tracer.patched)
        cases: dict = {}
        failures = runner.check(traced, cases)
        all_failures += runner.check(plain, {}) + failures
        layer = layer_metrics(tracer.summarize(anchors), dict(tracer.counters.values),
                              plan, failures, cases)
        layer["trace.overhead_s"] = traced.wall_s - plain.wall_s
        per_pair.append(layer)
        if pairs is None:
            pairs = max(1, round(seconds / (plain.wall_s + traced.wall_s)))
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, f"{workload}.spans.gz"))
    metrics = {name: (statistics.median(p[name] for p in per_pair), _unit(name))
               for name in per_pair[0]}
    metrics["trace.pairs"] = (len(per_pair), "count")
    tally = _tally(all_failures)
    return {"attempted": len(all_failures), "failed": sum(tally.values()),
            "correct": tally["wrong_value"] == 0 and restored, "metrics": metrics,
            "notes": {"failures": _failure_notes(all_failures), "restored": restored,
                      "counter_errors": tracer.counters.errors}}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes") or name.endswith("_bytes_computed"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".result_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args(argv)

    pkg = Package(os.getcwd())
    plan = inputs.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    runner = RUNNERS[args.workload](pkg, plan)
    if args.trace:
        result = run_traced(runner, plan, args.seconds, args.workload)
    else:
        result = run_untraced(runner, args.seconds)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
