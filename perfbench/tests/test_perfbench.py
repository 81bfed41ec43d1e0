"""Tests of the benchmark itself: tiny workloads, span arithmetic and the correctness gate.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
import worker
from conftest import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def tiny(name):
    return workloads.build(name, ROOT, tiny=True)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_gate(name):
    w = tiny(name)
    result = worker.measure(w, seed=3, seconds=0, trace=False)
    assert result["failures"] == []
    assert result["attempted"] == len(w.ops)
    metrics = result["metrics"]
    assert set(END_TO_END) - {"setup_s"} <= set(metrics)
    assert all(v > 0 for v in metrics.values())
    assert metrics["wall_ref"] == pytest.approx(metrics["wall_s"] / metrics["ref_s"])
    assert metrics["ref_s"] == worker.trimmed_mean(result["reference_s"])


def test_ops_cycle_until_the_budget_is_spent():
    w = tiny("perfect")
    result = worker.measure(w, seed=3, seconds=1.0, trace=False)
    counts = [0] * len(w.ops)
    for index, _, _ in result["samples"]:
        counts[index] += 1
    assert result["failures"] == [] and min(counts) >= 1 and sum(counts) > len(w.ops)


def test_seed_only_shuffles_the_op_order():
    w = tiny("perfect")
    a = worker.measure(w, seed=1, seconds=0, trace=False)["order"]
    b = worker.measure(w, seed=1, seconds=0, trace=False)["order"]
    c = worker.measure(w, seed=2, seconds=0, trace=False)["order"]
    assert a == b != c
    assert sorted(a) == sorted(c) == sorted(" ".join(op.argv) for op in w.ops)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_layer_and_self_times_add_up(name):
    result = worker.measure(tiny(name), seed=5, seconds=0, trace=True)
    assert result["failures"] == [] and result["missing"] == []
    assert set(result["metrics"]) == set(PER_LAYER)
    recorded = [spans.Span(**s) for s in result["spans"]]
    selfs = spans.self_times(recorded)
    roots = [s for s in recorded if s.parent is None]
    assert {s.name for s in roots} == {spans.ROOT} and len(roots) == len(tiny(name).ops)
    for root in roots:
        in_op = sum(selfs[s.id] for s in recorded if s.op == root.op)
        assert in_op == pytest.approx(root.duration, abs=1e-9)


def test_layer_counts_on_tiny_perfect():
    metrics = worker.measure(tiny("perfect"), seed=1, seconds=0, trace=True)["metrics"]
    table = workloads.load_perfect_table()
    excluded = sum(table[n][0] == "FilterExcluded" for n in range(3, 31))
    assert metrics["numtheory.witness_report.calls"] == 28
    assert metrics["numtheory.filter_excluded_ratio"] == excluded / 28
    assert metrics["tiling.check_perfect.nodes"] > 0


def test_trimmed_mean_cuts_a_fifth_from_each_end():
    assert worker.trimmed_mean([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert worker.trimmed_mean([100.0, 1.0, 2.0, 3.0, 0.0]) == 2.0
    assert worker.trimmed_mean(list(range(10))) == 4.5


def _span(i, name, start, end, parent=None, op=0):
    return spans.Span(i, name, op, parent, start, end)


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        _span(0, "cli", 0.0, 10.0),
        _span(1, "tiling.check_perfect", 1.0, 4.0, parent=0),
        _span(2, "numtheory.witness_report", 1.5, 2.0, parent=1),
        _span(3, "census.run_chain_census", 5.0, 9.0, parent=0),
        _span(4, "numtheory.rough_count", 6.0, 7.0, parent=3),
        _span(5, "numtheory.census_excess_tau", 7.0, 7.5, parent=3),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 3.0, 1: 2.5, 2: 0.5, 3: 2.5, 4: 1.0, 5: 0.5})
    assert sum(selfs.values()) == pytest.approx(tree[0].duration)


def test_layer_metrics_from_synthetic_spans():
    tree = [
        _span(0, "cli", 0.0, 2.0),
        _span(1, "tiling.check_perfect", 0.5, 1.5, parent=0),
        _span(2, "numtheory.witness_report", 0.5, 0.75, parent=1),
    ]
    tree[1].counts = {"nodes": 1000, "filter_excluded": 0}
    m = spans.layer_metrics(spans.layer_totals(tree))
    assert m["tiling.check_perfect.self_s"] == pytest.approx(0.75)
    assert m["tiling.check_perfect.ns_per_node"] == pytest.approx(0.75e9 / 1000)
    assert m["numtheory.witness_report.s"] == pytest.approx(0.25)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["tiling.solve_m.calls"] == 0


def test_layer_totals_are_trimmed_means_over_samples_summed_over_ops():
    op = workloads.Op(("perfect",), None, None)
    records = [worker.OpRecord(i, op, 0.0, 0.0, 0, "", None) for i in (0, 1, 0, 0, 0, 0)]
    tree, durations = [], [2.0, 5.0, 1.0, 3.0, 100.0, 4.0]  # op 0: 2, 1, 3, 100, 4; op 1: 5
    for k, d in enumerate(durations):
        tree.append(_span(len(tree), "cli", 0.0, d, op=k))
        tree.append(_span(len(tree), "tiling.check_perfect", 0.0, d / 2, parent=len(tree) - 1, op=k))
        tree[-1].counts = {"nodes": 10, "filter_excluded": 0}
    totals = worker.per_op_layer_totals(records, tree)
    assert totals["cli.self_s"] == pytest.approx((2 + 3 + 4) / 3 / 2 + 5 / 2)
    assert totals["tiling.check_perfect.nodes"] == 20
    assert totals["tiling.check_perfect.calls"] == 2


def test_missing_wrapped_name_is_reported_not_raised(monkeypatch):
    import mondrian.cli

    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (
        ("mondrian.cli", "no_such_function", "cli.no_such_function", None),
    ))
    original = mondrian.cli.solve_m
    result = worker.measure(tiny("solve"), seed=1, seconds=0, trace=True)
    assert result["missing"] == ["mondrian.cli.no_such_function"]
    assert result["failures"] == []
    assert mondrian.cli.solve_m is original  # the wrappers are taken off again


WRONG = {
    "solve": lambda e: (e[0], e[1] + 1),
    "perfect": lambda e: (e[0], e[1], (e[2] or 0) + 1),
    "census": lambda e: dict(e, count_p1=e["count_p1"] + 1),
    "rough": lambda e: (e[0], e[1], e[2] - 1),
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_wrong_reference_fails_the_gate(name):
    w = tiny(name)
    ops = (dataclasses.replace(w.ops[0], expected=WRONG[name](w.ops[0].expected)),) + w.ops[1:]
    result = worker.measure(dataclasses.replace(w, ops=ops), seed=1, seconds=0, trace=False)
    assert result["failed"] == 1
    assert " ".join(w.ops[0].argv) in result["failures"][0]


def test_solve_gate_rejects_a_broken_certificate():
    op = tiny("solve").ops[-1]
    good = subprocess.run([sys.executable, "-m", "mondrian", *op.argv], cwd=ROOT,
                          env=run.child_env(ROOT), capture_output=True, text=True, check=True).stdout
    assert workloads.check_solve(good, op.expected) is None
    cert = json.loads(good)
    cert["pieces"][0]["x"] += 1
    assert "verify_tiling" in workloads.check_solve(json.dumps(cert), op.expected)


def test_nonzero_exit_and_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rough", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_contract_on_rough():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rough", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
    ]
    assert "error_rate" in proc.stdout
