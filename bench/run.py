"""Benchmark of the shellings package: one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads (see inputs.py for their exact
composition):

  verify-sweep  sweeps.run_suite for bipartite, oracle, identities,
                trees (max_n 6) and bounds (max_n 7)
  dp-sparse     `shellings count -` on sparse graphs of 12-20 edges
  dp-dense      `shellings count -` on K_{m,n}, K_5, K_6 and dense
                7-vertex graphs
  trees-large   parse -> classify -> tree_count on trees of 1,000-8,000
                vertices, then the Report JSON round trip

The workload runs in a child process (bench/worker.py), which repeats its
fixed batch of operations (at least twice, about --seconds in all) as a
closed loop and then checks every answer.  With --trace 0 the last stdout
line carries the end-to-end metrics: each request counts at the median
time of any identical request over the repeats (on dp-sparse, at the
fastest), and set-up is measured in several fresh processes and the median
reported.  With --trace 1 the
worker runs untraced and traced batches in pairs, reports the per-layer
metrics, and writes the spans to .bench_out/<workload>.spans.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402

# Set-up-only processes per untraced run, half before the workload and
# half after it: the host's speed shifts in phases of a few seconds, and
# probes run back to back all land in one phase.
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


def _spawn(args, deadline: float, probe: bool) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(t0)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - t0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shellings benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "shellings", "__init__.py")):
        print("error: run from the repository root; src/shellings is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setups = [_spawn(args, deadline, probe=True)["setup_s"] for _ in range(probes // 2)]
        result = _spawn(args, deadline, probe=False)
        setups += [_spawn(args, deadline, probe=True)["setup_s"]
                   for _ in range(probes - probes // 2)]
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = (statistics.median(setups), "s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:44s} {value:14.6g} {unit}")
    for key, value in result["notes"].items():
        print(f"{key:44s} {json.dumps(value)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
