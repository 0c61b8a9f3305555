"""Tests of the benchmark's tracer, layer metrics and output checks."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import outcheck
import run
from schoenberg import cli, rootfind, search
from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def _tracer_with_clock(times):
    ticks = iter(times)
    return Tracer(clock=lambda: next(ticks))


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] calls b [1, 4] (which calls c [2, 3]), b [5, 7] and d [8, 9].
    t = _tracer_with_clock([0, 1, 2, 3, 4, 5, 7, 8, 9, 10])
    a = t.enter("a", "L1")
    b = t.enter("b", "L2")
    c = t.enter("c", "L2")
    t.exit(c)
    t.exit(b)
    b = t.enter("b", "L2")
    t.exit(b)
    d = t.enter("d", "L3")
    t.exit(d)
    t.exit(a)

    (node_a,) = t.root.children.values()
    node_b, node_d = node_a.children["b"], node_a.children["d"]
    node_c = node_b.children["c"]
    assert (node_a.total, node_a.child_total, node_a.self_time) == (10, 6, 4)
    assert (node_b.count, node_b.total, node_b.self_time) == (2, 5, 4)  # two calls, one node
    assert (node_c.self_time, node_d.self_time) == (1, 1)
    assert sum(n.self_time for n in t.nodes()) == node_a.total
    assert node_c.path() == ["a", "b", "c"]
    first = {}
    for span in t.spans:  # kept in closing order: c, b, b, d, a
        first.setdefault(span["name"], span)
    assert first["c"]["parent"] == first["b"]["id"] and first["d"]["parent"] == first["a"]["id"]
    assert first["a"]["parent"] == 0 and [s["name"] for s in t.spans] == ["c", "b", "b", "d", "a"]


def test_wrap_counts_errors_and_reraises():
    t = _tracer_with_clock([0, 1, 2, 3])

    def boom():
        raise ValueError("x")

    wrapped = t.wrap(boom, "m.boom", "m")
    for _ in range(2):
        with pytest.raises(ValueError):
            wrapped()
    (node,) = t.root.children.values()
    assert node.count == 2 and node.errors["ValueError"] == 2


def test_layer_metrics_count_top_level_solves_only():
    t = _tracer_with_clock(range(100))
    main = t.enter("cli.main", "cli")
    for _ in range(3):
        outer = t.enter("rootfind.critical_points", "rootfind", rows=1)
        inner = t.enter("rootfind.critical_points_batch", "rootfind", rows=1)
        t.exit(inner)
        t.exit(outer)
    t.exit(main)
    m = layers.layer_metrics(t, invocations=1, items=3)
    assert m["rootfind.calls"] == 3 and m["rootfind.rows"] == 3
    assert m["rootfind.rows_per_call"] == 1.0 and m["rootfind.rows_per_config"] == 1.0
    assert m["cli.self_s"] + m["rootfind.self_s"] == main.node.total


def test_instrumented_wraps_every_binding_and_restores(tmp_path):
    original = rootfind.critical_points
    tracer = Tracer()
    with layers.instrumented(tracer):
        assert search.critical_points is not original
        assert search.critical_points is rootfind.critical_points
        code = cli.main(["sweep", "--ensemble", "uniform-disk", "--n", "4", "--count", "10",
                         "--out", str(tmp_path / "s")])
    assert code == 0
    assert search.critical_points is original and rootfind.critical_points is original
    m = layers.layer_metrics(tracer, invocations=1, items=10)
    assert m["inequalities.make_report.calls"] == 10 * 24  # 8 fixed ids + EK, LOGMAJ (3 each) + 10 general
    assert m["rootfind.calls"] == 2 and m["rootfind.rows_per_config"] == 2.0
    assert m["search.sample_one.calls"] == 10


def _small(name, **changes):
    return dataclasses.replace(WORKLOADS[name], **changes)


def _run(workload, seed, tmp_path):
    out = tmp_path / outcheck.ARCHIVE_BASENAME
    code = cli.main(workload.argv(seed, str(out)))
    return code, out.with_suffix(".jsonl")


def _rewrite(path, edit):
    records = list(outcheck.read_jsonl(path))
    records = edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_check_rejects_corrupted_sweep_archive(tmp_path):
    reference = outcheck.load_reference()
    w = _small("sweep-disk", args=("sweep", "--ensemble", "uniform-disk", "--n", "8", "--count", "30"), items=30)
    code, jsonl = _run(w, 7, tmp_path)
    assert outcheck.check(w, 7, code, tmp_path, "", reference) == []
    pristine = jsonl.read_text()

    def flip_holds(records):
        records[3]["reports"][5]["holds"] = not records[3]["reports"][5]["holds"]
        return records

    _rewrite(jsonl, flip_holds)
    assert any("holds" in p for p in outcheck.check(w, 7, code, tmp_path, "", reference))

    jsonl.write_text(pristine)
    _rewrite(jsonl, lambda records: records[:-1])
    problems = outcheck.check(w, 7, code, tmp_path, "", reference)
    assert any("29 records" in p for p in problems) and any("CSV vs JSONL" in p for p in problems)

    jsonl.write_text(pristine)
    assert outcheck.check(w, 7, 1, tmp_path, "", reference) == ["exit code 1, expected 0"]


def test_check_rejects_bad_search_and_sendov_values(tmp_path):
    reference = outcheck.load_reference()
    w = _small("search-kt", args=("search", "--objective", "KT", "--n", "6", "--starts", "2",
                                  "--max-iterations", "3"), items=2)
    code, jsonl = _run(w, 7, tmp_path)
    assert outcheck.check(w, 7, code, tmp_path, "", reference) == []

    def inflate(records):
        records[0]["objective_value"] *= 0.5
        return records

    _rewrite(jsonl, inflate)
    assert any("lhs/rhs" in p for p in outcheck.check(w, 7, code, tmp_path, "", reference))

    w = _small("sweep-sendov", args=("sweep", "--ensemble", "sendov-boundary", "--n", "6", "--count", "20"), items=20)
    code, jsonl = _run(w, 7, tmp_path)
    assert outcheck.check(w, 7, code, tmp_path, "", reference) == []

    def above_one(records):
        records[0]["objective_value"] = 1.01
        return records

    _rewrite(jsonl, above_one)
    assert any("M_MINUS2" in p for p in outcheck.check(w, 7, code, tmp_path, "", reference))


def test_reference_min_slack_tolerance():
    rows = outcheck.load_reference()["workloads"]["sweep-disk"]["rows"]
    near = [r[:4] + [r[4] + 1e-7] + r[5:] for r in rows]
    far = [r[:4] + [r[4] + 1e-5 * max(1.0, abs(r[4]))] + r[5:] for r in rows]
    assert outcheck._rows_problems(near, rows, outcheck.MIN_SLACK_TOL, "x") == []
    assert len(outcheck._rows_problems(far, rows, outcheck.MIN_SLACK_TOL, "x")) == len(rows)


def test_oracle_check_reads_the_cli_pass_lines():
    w = WORKLOADS["oracle-n10"]
    good = (f"trace oracle: {w.items} samples, n=10, max |closed - trace| = 3.1e-15\n"
            "spectrum check: max pairing distance = 2.0e-12\n")
    assert outcheck.check(w, DEFAULT_SEED, 0, Path("."), good, {}) == []
    bad = good.replace("2.0e-12", "2.0e-06")
    assert outcheck.check(w, DEFAULT_SEED, 0, Path("."), bad, {}) == ["spectrum deviation 2.0e-06 above 1e-07"]
    assert outcheck.check(w, DEFAULT_SEED, 0, Path("."), "", {}) == ["oracle output lines missing"]


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_METRICS


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sweep-disk"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_calibration_kernel_is_independent_of_the_package():
    # A change to schoenberg must not move the kernel that defines a reference second.
    code = "import sys, calibrate; calibrate.time_kernel(); print(sorted(m for m in sys.modules if 'schoenberg' in m))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"
