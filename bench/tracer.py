"""Span tracing by patching the package's public functions in place.

Each traced function is replaced, in every package module that binds it,
by a wrapper that records a span (name, parent span, start, end) into
flat arrays.  Spans stay in memory until the run ends; self times are
derived from them afterwards.  ``Tracer.uninstall`` puts every original
object back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps

# module -> functions wrapped there; each becomes the span "module.function".
TARGETS = {
    "graphs": ("parse_edge_list", "classify", "is_connected"),
    "oracle": ("count_shellings_dp", "build_subset_table", "rooted_counts_from_table"),
    "trees": ("root_tree", "hook_count", "all_root_counts", "tree_count"),
    "bounds": ("degree_lower_bound", "weight_bound_coefficient", "longest_path",
               "push_branch_from_root", "pull_branch_toward_middle"),
    "closed_forms": ("complete_graph_count", "complete_bipartite_count", "path_count",
                     "rooted_path_count", "stanley_inner_sum", "stanley_sum_count"),
    "identities": ("verify_story", "story_side_values", "verify_binomial_sum",
                   "induction_lemma_limits", "verify_induction_lemma",
                   "verify_induction_theorem", "lemma_a1_check", "lemma_a2_check",
                   "lemma_a3_check"),
    "sweeps": ("run_suite", "sweep_bipartite", "sweep_oracle", "sweep_trees",
               "sweep_bounds", "sweep_identities"),
    "cli": ("main",),
}
# methods wrapped on their class: (module, class, method)
METHOD_TARGETS = (("report", "Report", "to_json"),)

PACKAGE = "shellings"


class Counters:
    """Work counts read from arguments and results at the traced boundaries."""

    OBSERVED = frozenset(("oracle.build_subset_table", "oracle.rooted_counts_from_table",
                          "graphs.parse_edge_list", "trees.tree_count", "report.to_json"))

    def __init__(self):
        self.values: dict[str, int] = defaultdict(int)
        # span name -> (times observe raised, first error): a counter that
        # no longer fits the package's data is a note, not a request failure.
        self.errors: dict[str, list] = {}

    def record_error(self, name: str, exc: Exception) -> None:
        entry = self.errors.setdefault(name, [0, f"{type(exc).__name__}: {exc}"[:200]])
        entry[0] += 1

    def observe(self, name: str, args, result) -> None:
        """Add the work one call did.  Subsets visited is 2^m per subset
        table by definition, whatever the DP inside actually touches."""
        v = self.values
        if name == "oracle.build_subset_table":
            v["oracle.subsets_visited"] += 1 << result.edge_count
            v["oracle.subsets_connected"] += sum(result.connected)
            v["oracle.table_bytes_computed"] += 8 * len(result.counts) + len(result.connected)
        elif name == "oracle.rooted_counts_from_table":
            v["oracle.table_bytes_computed"] += 8 << args[0].edge_count
        elif name == "graphs.parse_edge_list":
            text = args[0]
            v["graphs.parse_edge_list.bytes"] += len(text.encode() if isinstance(text, str) else text)
        elif name == "trees.tree_count":
            v["trees.result_bits"] += result.bit_length()
        elif name == "report.to_json":
            v["report.to_json.bytes"] += len(result)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = Counters()
        self.patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def exit(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping the patches."""
        for arr in (self.name_of, self.parent, self.start, self.end):
            del arr[:]
        self._stack = [-1]
        self.counters = Counters()

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        observe = name in Counters.OBSERVED
        enter, exit_ = self.enter, self.exit

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(sid)
            if observe:
                try:
                    self.counters.observe(name, args, result)
                except Exception as exc:
                    self.counters.record_error(name, exc)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every target in the loaded package modules."""
        self.patched = []
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(original, f"{mod_name}.{func}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, original))
        for mod_name, cls_name, method in METHOD_TARGETS:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(original, f"{mod_name}.{method}"))
            self.patched.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def summarize(self, anchors: tuple[str, ...]) -> dict:
        """Per-name calls, total and self seconds, overall and per anchor.

        An anchor is a span name (a sweep, a request label) whose subtree is
        reported apart: ``by_anchor[anchor][name]`` sums the spans of
        ``name`` that lie below the nearest enclosing ``anchor`` span.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        anchor_ids = {self._ids[a] for a in anchors if a in self._ids}
        anchor_of = array("q", bytes(8 * n))
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        by_anchor: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        name_of, parent, start, end, names = self.name_of, self.parent, self.start, self.end, self.names
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child[p] += dur
            nid = name_of[i]
            anchor_of[i] = i if nid in anchor_ids else (anchor_of[p] if p >= 0 else -1)
        for i in range(n):
            nid = name_of[i]
            name = names[nid]
            dur = end[i] - start[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            a = anchor_of[i]
            if a >= 0 and a != i:
                cell = by_anchor[names[name_of[a]]][name]
                cell[0] += 1
                cell[1] += dur
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_s),
                "by_anchor": {k: dict(v) for k, v in by_anchor.items()},
                "spans": n}

    def write(self, path: str) -> None:
        """Spans as one JSON header line, then the raw arrays, gzip-compressed."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name", "i"], ["parent", "q"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(out)
