import json
import math

import pytest

from shellings import bounds, closed_forms, graphs
from shellings.cli import FORMULAS, GENS, MAX_GEN_EDGES, main
from shellings.graphs import parse_edge_list
from shellings.report import Report
from shellings.trees import tree_count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# accepted parameters of every formula family
FORMULA_PARAMS = {"kn": ["4"], "kmn": ["2", "3"], "stanley": ["2", "2"], "path": ["10"]}
# every gen kind: accepted parameters, --seed, and the graphs its library builder returns
GEN_CASES = {
    "tree": (["10"], "3", lambda: [graphs.random_tree(10, 3)]),
    "all-trees": (["4"], "0", lambda: list(graphs.all_labeled_trees(4))),
    "kmn": (["2", "3"], "0", lambda: [graphs.complete_bipartite_graph(2, 3)]),
    "kn": (["5"], "0", lambda: [graphs.complete_graph(5)]),
    "path": (["6"], "0", lambda: [graphs.path_graph(6)]),
    "mid-spider": (["7", "4"], "0", lambda: [bounds.mid_spider(7, 4)]),
}


def test_count_cycle(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n0 3\n")
    code, doc = run_json(capsys, "count", path)
    assert code == 0
    assert doc["results"] == {"complete_bipartite": "16", "dp": "16"}
    assert doc["crossChecks"][0]["status"] == "pass"


def test_count_path_tree_method(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.txt", "0 1\n1 2\n2 3\n")
    code, doc = run_json(capsys, "count", path)
    assert code == 0
    assert doc["results"]["tree"] == "4"
    assert doc["results"]["dp"] == "4"


def test_count_disconnected(tmp_path, capsys):
    path = write_graph(tmp_path, "disc.txt", "n 4\n0 1\n")
    code, doc = run_json(capsys, "count", path)
    assert code == 0
    assert doc["input"]["class"] == "Disconnected"
    assert doc["results"] == {"connectivity": "0"}


def test_count_on_a_million_vertices_with_one_edge_builds_no_adjacency(tmp_path, capsys, monkeypatch):
    from shellings import cli

    graphs, read = [], cli._read_graph
    monkeypatch.setattr(cli, "_read_graph", lambda path: graphs.append(read(path)) or graphs[-1])
    path = write_graph(tmp_path, "sparse.txt", "n 1000000\n0 1\n")
    code, doc = run_json(capsys, "count", path)
    assert code == 0
    assert doc["results"] == {"connectivity": "0"}
    (g,) = graphs
    assert "adjacency" not in g.__dict__


def test_count_brute_agrees(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.txt", "\n".join(f"{i} {j}" for i in range(4) for j in range(i + 1, 4)))
    code, doc = run_json(capsys, "count", path)
    assert code == 0
    code_b, doc_b = run_json(capsys, "count", path, "--brute")
    assert code_b == 0
    assert doc["results"]["complete_graph"] == doc_b["results"]["dp"] == "576"


def test_count_no_crosscheck(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.txt", "0 1\n1 2\n2 3\n")
    code, doc = run_json(capsys, "count", path, "--no-crosscheck")
    assert code == 0
    assert "dp" not in doc["results"]
    assert doc["crossChecks"] == []


def test_count_guard_without_formula(tmp_path, capsys, monkeypatch):
    from shellings import oracle

    # C_5's five seed states pass a budget of 4
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 4)
    path = write_graph(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, err = run(capsys, "count", path)
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_count_formula_graph_refused_up_front(tmp_path, capsys, monkeypatch):
    # C_4 = K_{2,2}: refused before the DP starts, the formula stands
    # unchecked, as past the budget mid-run, and --brute is refused
    from shellings import oracle

    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 2)
    path = write_graph(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n0 3\n")
    code, out, err = run(capsys, "count", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == {"complete_bipartite": "16"}
    assert doc["crossChecks"] == []
    assert "note: DP cross-check skipped" in err and "budget" in err
    code, out, err = run(capsys, "count", path, "--brute")
    assert code == 2
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("m,n", [(6, 6), (12, 12)])
def test_count_cross_checks_complete_bipartite_past_twenty_edges(tmp_path, capsys, m, n):
    edges = "".join(f"{i} {m + j}\n" for i in range(m) for j in range(n))
    code, doc = run_json(capsys, "count", write_graph(tmp_path, "kmn.txt", edges))
    assert code == 0
    expected = str(closed_forms.complete_bipartite_count(m, n))
    assert doc["results"] == {"complete_bipartite": expected, "dp": expected}
    assert [(c["name"], c["status"]) for c in doc["crossChecks"]] == \
        [("dp_vs_complete_bipartite", "pass")]


def test_count_cross_checks_the_largest_printable_complete_bipartite(tmp_path, capsys):
    # F(K_{39,39}) has 4,161 digits, the most below the digit limit
    _, text, _ = run(capsys, "gen", "kmn", "39", "39")
    code, out, err = run(capsys, "count", write_graph(tmp_path, "k3939.txt", text))
    assert code == 0
    doc = json.loads(out)
    assert "dp" in doc["results"]
    assert [(c["name"], c["status"]) for c in doc["crossChecks"]] == \
        [("dp_vs_complete_bipartite", "pass")]
    assert "skipped" not in err


def test_count_by_dp_past_twenty_edges(tmp_path, capsys):
    from shellings.graphs import cycle_graph

    c60 = write_graph(tmp_path, "c60.txt", cycle_graph(60).to_edge_list_text())
    code, doc = run_json(capsys, "count", c60)
    assert code == 0
    assert doc["results"] == {"dp": str(60 * 2**58)}
    # K_{5,5,5}: 75 edges, no closed form
    parts = [range(0, 5), range(5, 10), range(10, 15)]
    k555 = "".join(f"{u} {v}\n" for a, b in ((0, 1), (0, 2), (1, 2))
                   for u in parts[a] for v in parts[b])
    code, doc = run_json(capsys, "count", write_graph(tmp_path, "k555.txt", k555))
    assert code == 0
    assert doc["input"]["numEdges"] == 75 and set(doc["results"]) == {"dp"}
    assert int(doc["results"]["dp"]) > 0


def test_count_refuses_a_long_cycle_before_any_dp_setup(tmp_path, capsys, monkeypatch):
    from shellings import oracle
    from shellings.graphs import cycle_graph

    def never(nbr):
        raise AssertionError("built the DP's masks for a graph past the budget")

    monkeypatch.setattr(oracle, "_twin_runs", never)
    path = write_graph(tmp_path, "c100000.txt", cycle_graph(100000).to_edge_list_text())
    code, out, err = run(capsys, "count", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_count_tree_past_the_budget_reports_its_formula(tmp_path, capsys):
    from shellings.graphs import random_tree

    g = random_tree(40, 3)
    code, out, err = run(capsys, "count", write_graph(tmp_path, "t40.txt", g.to_edge_list_text()))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == {"tree": str(tree_count(g))}
    assert doc["crossChecks"] == []
    assert "note: DP cross-check skipped" in err and "budget" in err


@pytest.mark.parametrize("n", [5, 30])
def test_count_on_a_tree_makes_one_connectivity_pass_and_one_rooting(tmp_path, capsys,
                                                                     monkeypatch, n):
    from functools import cached_property

    from shellings import graphs, trees

    passes, rootings = [], []
    traverse, root = graphs.Graph._connected.func, trees.root_tree
    counted = cached_property(lambda g: passes.append(g) or traverse(g))
    counted.__set_name__(graphs.Graph, "_connected")
    monkeypatch.setattr(graphs.Graph, "_connected", counted)
    monkeypatch.setattr(trees, "root_tree", lambda g, v: rootings.append(v) or root(g, v))
    path = write_graph(tmp_path, "tree.txt", graphs.random_tree(n, 1).to_edge_list_text())
    code, out, _ = run(capsys, "count", path)
    assert code == 0
    assert "tree" in json.loads(out)["results"]
    assert len(passes) == 1 and rootings == [0]


def test_count_parse_error_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, "bad.txt", "0 0\n")
    code, _, err = run(capsys, "count", path)
    assert code == 2
    assert "self-loop" in err


@pytest.mark.parametrize("text", ["0 1\n1 \u00b2\n", "n \u00b2\n0 1\n"])
def test_count_non_ascii_digits_exit_code(tmp_path, capsys, text):
    path = write_graph(tmp_path, "bad.txt", text)
    code, out, err = run(capsys, "count", path)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line ")


def test_count_non_utf8_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1\n\xff\xfe\n")
    code, out, err = run(capsys, "count", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't decode") and err.count("\n") == 1


def test_count_names_dp_strategy_in_timing(tmp_path, capsys):
    # one DP, so one timing key, "dp", whatever the graph
    path16 = write_graph(tmp_path, "p17.txt", "".join(f"{i} {i + 1}\n" for i in range(16)))
    code, doc = run_json(capsys, "count", path16)
    assert code == 0
    assert [k for k in doc["timing"] if k.startswith("dp")] == ["dp"]
    assert doc["results"] == {"tree": str(2**15), "dp": str(2**15)}
    k34 = write_graph(tmp_path, "k34.txt", "".join(f"{i} {j}\n" for i in range(3) for j in range(3, 7)))
    code, doc = run_json(capsys, "count", k34)
    assert code == 0
    assert [k for k in doc["timing"] if k.startswith("dp")] == ["dp"]
    assert set(doc["results"]) == {"complete_bipartite", "dp"}
    single = write_graph(tmp_path, "k1.txt", "n 1\n")
    code, doc = run_json(capsys, "count", single)
    assert code == 0
    assert "dp" in doc["timing"] and doc["results"]["dp"] == "1"


def test_count_sparse_graph_past_twenty_edges(tmp_path, capsys):
    path = write_graph(tmp_path, "c40.txt", "".join(f"{i} {(i + 1) % 40}\n" for i in range(40)))
    code, doc = run_json(capsys, "count", path)
    assert code == 0
    assert doc["results"] == {"dp": str(40 * 2**38)}


def test_count_dense_graph_past_budget_exit_code(tmp_path, capsys, monkeypatch):
    from shellings import oracle

    # K_{3,5} plus an edge inside a part: no closed form, 26 DP states
    k35 = "".join(f"{i} {j}\n" for i in range(3) for j in range(3, 8))
    path = write_graph(tmp_path, "k35.txt", k35 + "0 1\n")
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 26)
    code, doc = run_json(capsys, "count", path)
    assert code == 0 and "dp" in doc["results"]
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 25)
    code, out, err = run(capsys, "count", path)
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_count_formula_graph_past_budget_skips_crosscheck(tmp_path, capsys, monkeypatch):
    from shellings import oracle

    # K_{3,5} takes 15 DP states
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 14)
    path = write_graph(tmp_path, "k35.txt", "".join(f"{i} {j}\n" for i in range(3) for j in range(3, 8)))
    code, out, err = run(capsys, "count", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == {"complete_bipartite": "186810624000"}
    assert doc["crossChecks"] == []
    assert "skipped" in err and "budget" in err
    code, out, err = run(capsys, "count", path, "--brute")
    assert code == 2
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("text,fragment", [
    ("0 " + "1" * 5000 + "\n", "vertex id 11111"),
    ("0 1\n1 2000000000\n", "vertex id 2000000000 exceeds"),
    ("n 2000000000\n0 1\n", "declared n 2000000000 exceeds"),
])
def test_count_huge_vertex_ids_exit_code(tmp_path, capsys, text, fragment):
    path = write_graph(tmp_path, "big.txt", text)
    code, out, err = run(capsys, "count", path)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: line ") and fragment in err


def test_inexact_division_is_a_failed_check(capsys, monkeypatch):
    import math

    from shellings import closed_forms

    monkeypatch.setattr(closed_forms, "factorial", lambda n: math.factorial(n) + (n == 6))
    code, out, err = run(capsys, "formula", "kmn", "2", "3")
    assert code == 1
    assert out == ""
    assert err == "check failed: factorial division must be exact\n"


def test_tree_roots(tmp_path, capsys):
    path = write_graph(tmp_path, "p5.txt", "0 1\n1 2\n2 3\n3 4\n")
    code, doc = run_json(capsys, "tree-roots", path)
    assert code == 0
    assert doc["results"]["total"] == "8"
    assert [doc["results"][f"root_{v}"] for v in range(5)] == ["1", "4", "6", "4", "1"]


def test_tree_roots_rejects_cycle(tmp_path, capsys):
    path = write_graph(tmp_path, "c3.txt", "0 1\n1 2\n0 2\n")
    code, _, err = run(capsys, "tree-roots", path)
    assert code == 2


# C_3 has one edge too many; the triangle plus an isolated vertex has n - 1
# edges but two components; a single vertex has no edge to bound
@pytest.mark.parametrize("command,text", [
    ("bounds", "0 1\n1 2\n0 2\n"),
    ("bounds", "n 4\n0 1\n1 2\n0 2\n"),
    ("bounds", "n 1\n"),
    ("tree-roots", "n 4\n0 1\n1 2\n0 2\n"),
], ids=["bounds-C3", "bounds-triangle-plus-isolated", "bounds-one-vertex",
        "tree-roots-triangle-plus-isolated"])
def test_tree_commands_refuse_non_trees(tmp_path, capsys, command, text):
    path = write_graph(tmp_path, "g.txt", text)
    code, out, err = run(capsys, command, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["count", "tree-roots", "bounds"])
def test_tree_commands_refuse_results_past_the_digit_limit(tmp_path, capsys, command):
    # this tree's count has more than 4,300 decimal digits
    _, text, _ = run(capsys, "gen", "tree", "2000", "--seed", "1")
    path = write_graph(tmp_path, "t2000.txt", text)
    code, out, err = run(capsys, command, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: result ") and err.count("\n") == 1
    assert "more than 4300 decimal digits" in err


def test_tree_roots_at_the_digit_limit(tmp_path, capsys):
    import sys

    from shellings.graphs import path_graph

    # the total 2^2126 has 640 digits, the limit; the sum of the root
    # counts, 2^2127, has 641, so the report must not quote it
    path = write_graph(tmp_path, "p2128.txt", path_graph(2128).to_edge_list_text())
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, doc = run_json(capsys, "tree-roots", path)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert doc["results"]["total"] == str(2**2126)
    assert [(c["name"], c["status"]) for c in doc["crossChecks"]] == \
        [("half_sum_consistency", "pass")]


@pytest.mark.parametrize("command,expected", [("bounds", 2), ("tree-roots", 2), ("count", 1)])
def test_tree_commands_root_the_input_once(tmp_path, capsys, monkeypatch, command, expected):
    from shellings import bounds, cli, graphs, trees

    path = write_graph(tmp_path, "t40.txt", graphs.random_tree(40, 3).to_edge_list_text())
    rootings, root = [], trees.root_tree
    for module in (trees, bounds, cli):
        monkeypatch.setattr(module, "root_tree", lambda g, v: rootings.append(v) or root(g, v))
    # the mid-spider count is cached per (n, diameter); start from an empty cache
    bounds._diameter_bounds.cache_clear()
    code, _, _ = run(capsys, command, path)
    assert code == 0
    # bounds: the input and the mid-spider; tree-roots: the root counts and tree_count
    assert len(rootings) == expected


def test_formula_commands(capsys):
    code, doc = run_json(capsys, "formula", "kmn", "2", "3")
    assert code == 0 and doc["results"]["complete_bipartite"] == "360"
    code, doc = run_json(capsys, "formula", "kn", "4")
    assert code == 0 and doc["results"]["complete_graph"] == "576"
    code, doc = run_json(capsys, "formula", "stanley", "2", "2")
    assert code == 0
    assert doc["results"]["stanley"] == "16"
    assert doc["results"]["stanley_inner_sum"] == "2/3"
    code, doc = run_json(capsys, "formula", "path", "10")
    assert code == 0 and doc["results"]["path"] == "256"


def test_formula_stanley_sums_once(capsys, monkeypatch):
    calls, inner = [], closed_forms.stanley_inner_sum
    monkeypatch.setattr(closed_forms, "stanley_inner_sum",
                        lambda *args: calls.append(args) or inner(*args))
    code, doc = run_json(capsys, "formula", "stanley", "3", "3")
    assert code == 0 and len(calls) == 1
    del doc["timing"]
    assert doc == {
        "schemaVersion": 1,
        "command": "formula",
        "input": {"family": "stanley", "params": [3, 3]},
        "results": {"stanley": "108864", "stanley_inner_sum": "3/40"},
        "crossChecks": [],
    }


def test_formula_stanley_past_the_old_term_guard(capsys):
    # 2,704,156 sequences, which the term-by-term sum refused
    code, doc = run_json(capsys, "formula", "stanley", "13", "13")
    assert code == 0
    _, kmn = run_json(capsys, "formula", "kmn", "13", "13")
    assert doc["results"]["stanley"] == kmn["results"]["complete_bipartite"]


def test_formula_stanley_work_guard_without_a_digit_limit():
    # with no digit limit the work guard alone refuses (2, 5000)
    import os
    import subprocess
    import sys
    from pathlib import Path

    import shellings

    src = str(Path(shellings.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONINTMAXSTRDIGITS="0")
    result = subprocess.run([sys.executable, "-m", "shellings.cli", "formula", "stanley", "2", "5000"],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: summation work past")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("params", [["kn", "3000"], ["kmn", "60", "60"], ["path", "20000"],
                                    ["kmn", str(10**200), "3"], ["path", str(10**400)],
                                    ["stanley", "1", "200000"]])
def test_formula_refuses_results_past_the_digit_limit(capsys, monkeypatch, params):
    import time

    from shellings import closed_forms

    def never(*args):
        raise AssertionError("computed a refused formula")

    for name in ("complete_graph_count", "complete_bipartite_count", "path_count",
                 "stanley_inner_sum", "stanley_sum_count"):
        monkeypatch.setattr(closed_forms, name, never)
    start = time.perf_counter()
    code, out, err = run(capsys, "formula", *params)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: the result would have more than 4300 decimal digits")


def test_formula_digit_limit_boundary(capsys):
    # 2^14284 has 4,300 digits, 2^14285 has 4,301
    code, doc = run_json(capsys, "formula", "path", "14286")
    assert code == 0 and doc["results"]["path"] == str(2**14284)
    code, out, err = run(capsys, "formula", "path", "14287")
    assert code == 2 and out == "" and "4300 decimal digits" in err
    code, doc = run_json(capsys, "formula", "kn", "30")
    assert code == 0 and doc["results"]["complete_graph"] == str(closed_forms.complete_graph_count(30))
    code, doc = run_json(capsys, "formula", "kmn", "10", "10")
    assert code == 0
    assert doc["results"]["complete_bipartite"] == str(closed_forms.complete_bipartite_count(10, 10))


def test_formula_bad_params(capsys):
    code, _, err = run(capsys, "formula", "kn", "1")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["formula", "kmn", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_every_family_and_kind_has_a_case():
    assert set(FORMULA_PARAMS) == set(FORMULAS)
    assert set(GEN_CASES) == set(GENS)


@pytest.mark.parametrize("command,name,params",
                         [("formula", f, p) for f, p in FORMULA_PARAMS.items()]
                         + [("gen", k, case[0]) for k, case in GEN_CASES.items()])
def test_wrong_parameter_counts_exit_2(capsys, command, name, params):
    code, out, _ = run(capsys, command, name, *params)
    assert code == 0 and out
    for wrong in (params[:-1], params + ["3"]):
        with pytest.raises(SystemExit) as exc:
            main([command, name, *wrong])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_bounds_command(tmp_path, capsys):
    path = write_graph(tmp_path, "star4.txt", "0 1\n0 2\n0 3\n")
    code, doc = run_json(capsys, "bounds", path)
    assert code == 0
    assert doc["results"]["exact"] == "6"
    assert doc["results"]["degree_lower"] == "6"
    assert doc["results"]["degree_equality_predicted"] == "true"
    assert all(c["status"] == "pass" for c in doc["crossChecks"])


def test_bounds_on_random_tree(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "tree", "8", "--seed", "7")
    path = write_graph(tmp_path, "t8.txt", out)
    code, doc = run_json(capsys, "bounds", path)
    assert code == 0
    assert all(c["status"] == "pass" for c in doc["crossChecks"])


def test_bounds_on_300_vertex_tree(tmp_path, capsys):
    from shellings.bigmath import binomial
    from shellings.graphs import random_tree

    from bfs_reference import bfs_distances

    g = random_tree(300, 1)
    path = write_graph(tmp_path, "t300.txt", g.to_edge_list_text())
    code, doc = run_json(capsys, "bounds", path)
    assert code == 0
    assert all(c["status"] == "pass" for c in doc["crossChecks"])
    assert len(doc["results"]["exact"]) < 4300
    n = g.num_vertices
    for v in range(n):
        ecc = max(bfs_distances(g, v)[0])
        expected = sum(binomial(n - 2, k) for k in range(ecc))
        assert doc["results"][f"weight_coeff_{v}"] == str(expected)


def test_verify_failure_exit_code(capsys, monkeypatch):
    from shellings import sweeps

    def fake_suite(suite, max_n=None):
        return [sweeps.CheckOutcome("synthetic", False, "forced failure")]

    monkeypatch.setattr("shellings.cli.sweeps.run_suite", fake_suite)
    code, doc = run_json(capsys, "verify", "oracle")
    assert code == 1
    assert doc["results"]["failures"] == "1"
    assert doc["crossChecks"][0]["status"] == "fail"


def test_verify_bipartite_suite(capsys):
    code, doc = run_json(capsys, "verify", "bipartite")
    assert code == 0
    assert doc["results"]["failures"] == "0"
    assert any(c["name"] == "complete_bipartite_vs_dp" for c in doc["crossChecks"])


def test_verify_trees_small(capsys):
    code, doc = run_json(capsys, "verify", "trees", "--max-n", "5")
    assert code == 0
    assert doc["results"]["failures"] == "0"


@pytest.mark.parametrize("suite", ["trees", "bounds"])
@pytest.mark.parametrize("max_n", ["0", "-1", "10"])
def test_verify_refuses_sweep_sizes_outside_the_enumeration_range(capsys, monkeypatch,
                                                                   suite, max_n):
    import time

    from shellings import sweeps

    def never(*args):
        raise AssertionError("ran a sweep for a refused size")

    for name in ("sweep_bipartite", "sweep_oracle", "sweep_trees", "sweep_bounds",
                 "sweep_identities"):
        monkeypatch.setattr(sweeps, name, never)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", suite, "--max-n", max_n)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: sweep size must be 2 to 9, got {max_n}\n"


@pytest.mark.parametrize("suite", ["bipartite", "oracle", "identities"])
def test_verify_refuses_a_sweep_size_for_fixed_suites(capsys, monkeypatch, suite):
    from shellings import sweeps

    def never(*args):
        raise AssertionError("ran a sweep for a refused size")

    monkeypatch.setattr(sweeps, "run_suite", never)
    code, out, err = run(capsys, "verify", suite, "--max-n", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_options(tmp_path, capsys):
    # every subcommand's arguments; a new knob is a change to this test
    import argparse

    from shellings.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(a.option_strings[0] if a.option_strings else a.dest
                     for a in parser._actions)
        for name, parser in sub.choices.items()
    }
    assert options == {
        "count": ["--brute", "--no-crosscheck", "-h", "file"],
        "tree-roots": ["-h", "file"],
        "formula": ["-h", "family", "params"],
        "bounds": ["-h", "file"],
        "verify": ["--max-n", "-h", "suite"],
        "gen": ["--seed", "-h", "kind", "params"],
    }
    # the DP's edge guard and its option are gone
    path = write_graph(tmp_path, "p4.txt", "0 1\n1 2\n2 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["count", path, "--max-dp-edges", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-dp-edges" in capsys.readouterr().err
    # the summation's term guard and its option are gone
    with pytest.raises(SystemExit) as exc:
        main(["formula", "stanley", "2", "2", "--max-stanley-terms", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-stanley-terms" in capsys.readouterr().err


def test_gen_outputs_parse(capsys):
    code, out, _ = run(capsys, "gen", "kmn", "2", "2")
    assert code == 0
    assert parse_edge_list(out).num_edges == 4
    code, out, _ = run(capsys, "gen", "mid-spider", "7", "4")
    assert code == 0
    g = parse_edge_list(out)
    assert g.num_vertices == 7 and g.degree(2) == 4
    # every kind parses back to the graphs of its library builder
    for kind, (params, seed, expected) in GEN_CASES.items():
        code, out, _ = run(capsys, "gen", kind, *params, "--seed", seed)
        assert code == 0
        chunks = [c for c in out.split("\n\n") if c.strip()]
        assert [parse_edge_list(c) for c in chunks] == expected(), kind


@pytest.mark.parametrize("params", [["path", "1000001"], ["kn", "20000"], ["kmn", "1000", "1001"],
                                    ["all-trees", "1000000"]])
def test_gen_refuses_graphs_past_its_limits_before_building(capsys, monkeypatch, params):
    import time

    def never(*args):
        raise AssertionError("built a refused graph")

    for name in ("path_graph", "complete_graph", "complete_bipartite_graph"):
        monkeypatch.setattr(graphs, name, never)
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", *params)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_limits_admit_the_largest_graphs(monkeypatch, capsys):
    # sized, not built: each builder returns a stand-in edge
    edge = graphs.path_graph(2)
    for name in ("path_graph", "complete_graph", "complete_bipartite_graph"):
        monkeypatch.setattr(graphs, name, lambda *args: edge)
    assert math.comb(1414, 2) <= MAX_GEN_EDGES < math.comb(1415, 2)
    for params in (["kn", "1414"], ["kmn", "1000", "1000"], ["path", "1000000"]):
        assert run(capsys, "gen", *params)[:2] == (0, "0 1\n")
    for params in (["kn", "1415"], ["kmn", "1000", "1001"], ["kmn", "1", "1000000"]):
        assert run(capsys, "gen", *params)[:2] == (2, "")


@pytest.mark.parametrize("params,message", [(["kn", "-2000"], "complete_graph requires n >= 1"),
                                            (["kmn", "-2000", "-2000"], "part sizes must be positive")])
def test_gen_leaves_invalid_parameters_to_the_builder(capsys, params, message):
    code, out, err = run(capsys, "gen", *params)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_gen_tree_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "tree", "10", "--seed", "42")
    _, second, _ = run(capsys, "gen", "tree", "10", "--seed", "42")
    assert first == second
    _, third, _ = run(capsys, "gen", "tree", "10", "--seed", "43")
    assert first != third


def test_gen_all_trees_chunks(capsys):
    code, out, _ = run(capsys, "gen", "all-trees", "3")
    assert code == 0
    chunks = [c for c in out.split("\n\n") if c.strip()]
    assert len(chunks) == 3
    assert [c.split("\n", 1)[0] for c in chunks] == ["# tree 1/3", "# tree 2/3", "# tree 3/3"]
    graphs = {parse_edge_list(c).edges for c in chunks}
    assert len(graphs) == 3


def test_gen_range_error(capsys):
    code, _, err = run(capsys, "gen", "mid-spider", "3", "9")
    assert code == 2


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
    code, doc = run_json(capsys, "count", "-")
    assert code == 0
    assert doc["results"]["tree"] == "2"


def test_report_roundtrip(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.txt", "0 1\n1 2\n2 3\n")
    _, out, _ = run(capsys, "count", path)
    report = Report.from_json(out)
    assert report.to_dict() == json.loads(out)
    assert report.schema_version == 1
