"""CLI surface: exit codes, JSONL/CSV formats, reproducibility."""

import contextlib
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from schoenberg import cli, matrices, rootfind, search, sendov
from schoenberg.config import DEFAULT_SEED
from schoenberg.errors import ConvergenceError
from schoenberg.cli import main
from schoenberg.inequalities import CENTERED_IDS, full_report, make_report
from schoenberg.poly import _unit_frame
from schoenberg.search import Ensemble, SearchRecord, SearchSettings, maximize, sample_one, sample_seed
from schoenberg.sendov import SendovInstance, check_special_case


def canonical(record):
    return json.dumps(record, separators=(",", ":"))


def read_jsonl(path):
    """The records of an archive, each line checked to be its compact JSON."""
    records = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                records.append(json.loads(line))
                assert line.rstrip("\n") == canonical(records[-1])
    return records


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_verify_collinear_passes_with_equalities(tmp_path, capsys):
    out = tmp_path / "verify.jsonl"
    code = main(["verify", "--zeros", "1,0 -1,0 0,0", "--out", str(out), "--format", "jsonl"])
    assert code == 0
    rec = read_jsonl(out)[0]
    assert rec["kind"] == "verify" and rec["n"] == 3
    by_id = {r["id"]: r for r in rec["reports"]}
    for iid in ("S0", "KT", "STAR"):
        assert by_id[iid]["equality"] and by_id[iid]["holds"]
    assert all(r["holds"] for r in rec["reports"])


def test_verify_single_zero_is_usage_error(capsys):
    assert main(["verify", "--zeros", "1,0"]) == 2
    assert capsys.readouterr().err == "error: need at least 2 zeros, got shape (1,)\n"


def test_verify_without_zeros_is_usage_error(capsys):
    assert main(["verify", "--zeros", " ; "]) == 2
    assert capsys.readouterr().err == "error: no zeros given\n"


def test_verify_bad_token_is_usage_error(capsys):
    assert main(["verify", "--zeros", "1,0 nope"]) == 2


def test_verify_unparsable_number_is_usage_error(capsys):
    assert main(["verify", "--zeros", "1,abc"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_config_without_zeros_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"a": 0.5}))
    assert main(["verify", "--config", str(cfg)]) == 2


def test_verify_config_invalid_json_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"zeros": [[1, 0], [-1, 0]')
    assert main(["verify", "--config", str(cfg)]) == 2


def test_report_malformed_line_is_usage_error(tmp_path, capsys):
    base = tmp_path / "sw"
    assert main(["sweep", "--ensemble", "gaussian", "--n", "3", "--count", "4", "--out", str(base)]) == 0
    archive = tmp_path / "sw.jsonl"
    archive.write_text(archive.read_text() + '{"kind": "sample", "reports": [\n')
    assert main(["report", "--input", str(archive)]) == 2
    assert "sw.jsonl:5" in capsys.readouterr().err


def test_report_record_without_n_is_usage_error(tmp_path, capsys):
    archive = tmp_path / "bad.jsonl"
    archive.write_text('{"kind":"sample","reports":[{"id":"S"}]}\n')
    assert main(["report", "--input", str(archive)]) == 2
    assert capsys.readouterr().err == "error: malformed record: KeyError('n')\n"


def test_a_row_lapack_cannot_converge_is_a_numeric_error(nan_eigvals, capsys):
    # LAPACK leaves NaN in a matrix it cannot converge: the row fails the
    # backward-error gate, and the CLI reports that on one line.
    nan_eigvals(0)
    assert main(["verify", "--zeros", "1,0 0,1 -1,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: critical point backward error nan above tol_root in 1 of 1 rows")
    assert err.count("\n") == 1


def test_verify_spectrum_mismatch_is_a_numeric_error(monkeypatch, capsys):
    spectrum = cli.verify_spectrum
    monkeypatch.setattr(cli, "verify_spectrum", lambda zs, settings: dataclasses.replace(
        spectrum(zs, settings), max_pair_distance=np.array([1.0])))
    assert main(["verify", "--zeros", "1,0 0,1 -1,0"]) == 2
    out, err = capsys.readouterr()
    assert "spectrum check: max pairing distance 1.000e+00" in out
    assert err == "numeric-consistency failure: companion spectrum mismatch\n"


def test_verify_nan_spectrum_distance_is_a_numeric_error(monkeypatch, capsys):
    # NaN is the distance of a D S that LAPACK does not converge on.
    monkeypatch.setattr(matrices, "_eigvals", lambda m: np.full(m.shape[:-1], np.nan, dtype=complex))
    assert main(["verify", "--zeros", "1,0 0,1 -1,0"]) == 2
    out, err = capsys.readouterr()
    assert "spectrum check: max pairing distance nan " in out
    assert err == "numeric-consistency failure: companion spectrum mismatch\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--zeros", "1e308,0 1e308,0 0,1e308", "--format", "jsonl"],
    ["sweep", "--ensemble", "roots-of-unity-perturbed", "--n", "5", "--count", "3", "--scale", "1e308"],
], ids=["verify", "sweep"])
def test_zeros_whose_centroid_overflows_are_a_numeric_error(argv, tmp_path, capsys, nan_eigvals):
    # These rows solve in their frame; a row LAPACK cannot converge is still one
    # numeric error line at this scale, before any report can overflow.
    nan_eigvals(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: critical point backward error nan above tol_root") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_verify_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"zeros": [[1, 0], [-1, 0]], "seed": 3}))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'seed'" in err
    cfg.write_text(json.dumps({"zeros": [[1, 0], [-1, 0]], "a": 0.5}))
    assert main(["verify", "--config", str(cfg)]) == 0


def test_verify_requires_exactly_one_source(tmp_path, capsys):
    assert main(["verify"]) == 2
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"zeros": [[1, 0], [-1, 0]]}))
    assert main(["verify", "--zeros", "1,0 -1,0", "--config", str(cfg)]) == 2
    assert main(["verify", "--config", str(cfg)]) == 0


def test_verify_takes_the_sendov_a_once(tmp_path, capsys):
    cfg, out = tmp_path / "c.json", tmp_path / "v.jsonl"
    cfg.write_text(json.dumps({"zeros": [[1, 0], [0, 1], [0, -1]], "a": 0.9}))
    assert main(["verify", "--config", str(cfg), "--a", "0.2", "--format", "jsonl", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()
    # A file without an "a" takes it from --a, as --zeros does.
    cfg.write_text(json.dumps({"zeros": [[1, 0], [0, 1], [0, -1]]}))
    assert main(["verify", "--config", str(cfg), "--a", "0.2"]) == 0
    from_file = capsys.readouterr().out
    assert main(["verify", "--zeros", "1,0 0,1 0,-1", "--a", "0.2"]) == 0
    assert from_file == capsys.readouterr().out and "min|w-a|=0.471679" in from_file


def test_verify_roots_of_unity(capsys):
    assert main(["verify", "--zeros", "1,0 0,1 -1,0 0,-1"]) == 0


@pytest.mark.filterwarnings("error")
def test_verify_far_below_unit_scale_keeps_its_gates_relative(capsys):
    # The spectrum tolerance scales with the largest |z|, and the triangle's
    # S D S is not normal at 1e-300 as at unit scale.
    assert main(["verify", "--zeros", "1e-300,0 -1e-300,0 0,1e-300"]) == 0
    out, err = capsys.readouterr()
    tolerance = float(re.search(r"\(tolerance (\S+)\)", out).group(1))
    assert 0 < tolerance <= 1e-306
    assert "collinear=False; normal(SDS)=False" in out and err == ""


def test_verify_at_subnormal_scale_prints_only_its_table(capfd):
    # The solver divides by the radius at its power of two, so LAPACK never
    # sees a NaN matrix and writes nothing to file descriptor 1.
    assert main(["verify", "--zeros", "1e-310,0 -1e-310,0 0,1e-310"]) == 0
    out, err = capfd.readouterr()
    assert err == "" and "** On entry to" not in out
    assert out.startswith("spectrum check: max pairing distance 0.000e+00")
    assert "centroid residual 1.000e+00; collinear=False; normal(SDS)=False" in out


def test_verify_judges_a_subnormal_line_normal(capsys):
    # S D S is built in the zeros' frame, so it is not rounded to the subnormal grid.
    line = np.array([1.0, -1.0, 3.0])
    for k in range(-1074, -1040):
        assert main(["verify", "--zeros", " ".join(f"{x!r},0" for x in np.ldexp(line, k).tolist())]) == 0, k
        out = capsys.readouterr().out
        assert "collinear=True; normal(SDS)=True" in out, k


def test_verify_judges_centered_forms_on_the_recentered_zeros(capsys):
    # 1, 2, 3 recentered is exactly -1, 0, 1: the centered-only rows of the two tables agree.
    tables = []
    for zeros in ("1,0 2,0 3,0", "-1,0 0,0 1,0"):
        assert main(["verify", "--zeros", zeros]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.split()[0] in CENTERED_IDS]
        assert len(rows) == len(CENTERED_IDS) and all(row[-1] == "True" for row in rows)
        tables.append(rows)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("zeros, extra", [
    ("0.3,0.2 -0.7,0.1 0.4,-0.5 0.2,0.9", []),
    ("0.3,0.2 0.7,0.1 0.4,-0.5 0.2,0.9", ["--a", "0.5"]),
    ("0.5,0 0.5,0", ["--a", "0.5"]),  # a triple zero: C1's side is inf
], ids=["plain", "sendov", "sendov-nonfinite"])
def test_verify_out_writes_the_printed_table_and_the_report_csv(zeros, extra, tmp_path, capsys):
    argv = ["verify", "--zeros", zeros, *extra, "--out"]
    code = main([*argv, str(tmp_path / "v.txt"), "--format", "table"])
    assert code in (0, 1)
    assert (tmp_path / "v.txt").read_text() == capsys.readouterr().out
    assert main([*argv, str(tmp_path / "v.jsonl"), "--format", "jsonl"]) == code
    assert main([*argv, str(tmp_path / "v.csv"), "--format", "csv"]) == code
    capsys.readouterr()
    assert main(["report", "--format", "csv", "--input", str(tmp_path / "v.jsonl")]) == code
    assert (tmp_path / "v.csv").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--zeros", "0.3,0.1 -0.5,0.2 0.7,-0.4", "--a", "0.6"],
    ["--zeros", "1,0 0,1 -1,0 0,-1"],
], ids=["sendov", "plain"])
def test_verify_solves_its_configuration_once(argv, monkeypatch, capsys):
    # One compression solve of the zeros serves the suite, C1/C2 and the
    # spectrum check; the other is of the recentered copy.  The spectrum
    # check's other side is D S's eigenvalues, not a root solve.
    calls = []
    for name in ("critical_points_batch", "find_roots_batch"):
        original = getattr(rootfind, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("schoenberg") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    assert main(["verify", *argv]) == 0
    assert sorted(calls) == ["critical_points_batch", "critical_points_batch"]


def test_verify_sendov_instance(capsys):
    assert main(["verify", "--zeros", "0,1", "--a", "1.0"]) == 0
    text = capsys.readouterr().out
    assert "sendov" in text


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_sendov_jsonl_record_carries_a(source, tmp_path, capsys):
    # An instance under the centroid hypothesis, so the record carries C1/C2.
    out = tmp_path / "v.jsonl"
    if source == "flag":
        argv = ["verify", "--zeros", "1,0 0,1 0,-1", "--a", "0.5"]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"zeros": [[1, 0], [0, 1], [0, -1]], "a": 0.5}))
        argv = ["verify", "--config", str(cfg)]
    assert main([*argv, "--format", "jsonl", "--out", str(out)]) == 0
    (rec,) = read_jsonl(out)
    assert rec["a"] == 0.5 and rec["zeros"][0] == [0.5, 0.0]
    assert [rep["id"] for rep in rec["reports"][-2:]] == ["C1", "C2"]


def test_oracle_small(capsys):
    assert main(["oracle", "--n", "3", "--samples", "50"]) == 0
    assert main(["oracle", "--n", "2", "--samples", "20"]) == 0


@pytest.mark.parametrize("tolerance, label", [("SPECTRUM_TOL", "spectrum"), ("TRACE_ORACLE_TOL", "trace")])
def test_oracle_reports_the_worst_configuration_on_failure(monkeypatch, capsys, tolerance, label):
    monkeypatch.setattr(cli, tolerance, 0.0)
    assert main(["oracle", "--n", "6", "--samples", "20"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"worst {label} config: ")
    pairs = json.loads(err[0].split(": ", 1)[1])
    assert len(pairs) == 6 and all(len(p) == 2 for p in pairs)


# The two lines the benchmark's output check parses (perfbench/outcheck.py).
_TRACE_LINE = re.compile(r"trace oracle: (\d+) samples, n=(\d+), max \|closed - trace\| = (\S+)")
_SPECTRUM_LINE = re.compile(r"spectrum check: max pairing distance = (\S+)")


def test_oracle_output_keeps_the_benchmark_lines(capsys):
    assert main(["oracle", "--n", "10", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    trace, spectrum = _TRACE_LINE.search(out), _SPECTRUM_LINE.search(out)
    assert trace and spectrum
    assert trace.groups()[:2] == ("5", "10")
    assert float(trace.group(3)) <= 1e-10 and float(spectrum.group(1)) <= 1e-12


def test_oracle_memory_is_bounded_by_the_chunk(monkeypatch, capsys):
    # The trace oracles multiply (rows, n, n) matrices.  Drawn as one stack,
    # 4000 samples at n = 10 peak at 25 MB; with 128 rows a chunk the peak
    # is 1.6 MB, most of it the per-row deviations and zeros that are kept.
    assert main(["oracle", "--n", "10", "--samples", "5"]) == 0  # warm the solver's caches
    monkeypatch.setattr(cli, "_CHUNK", 128)
    tracemalloc.start()
    try:
        assert main(["oracle", "--n", "10", "--samples", "4000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


def _traced_peak(argv) -> int:
    """The ``tracemalloc`` peak of one successful ``main(argv)``, in bytes."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_keeps_no_row_per_sample(monkeypatch, capsys):
    # Each check keeps its worst deviation and that row's zeros, not every
    # row's.  With 128 rows a chunk, keeping them all grew the peak from
    # 1.07 MB at 1,000 samples to 1.59 MB at 4,000; now both read 0.94 MB.
    assert main(["oracle", "--n", "10", "--samples", "5"]) == 0  # warm the solver's caches
    monkeypatch.setattr(cli, "_CHUNK", 128)
    small, large = (_traced_peak(["oracle", "--n", "10", "--samples", str(count)]) for count in (1000, 4000))
    assert large - small <= 256 << 10


def test_search_streams_its_archive(tmp_path, monkeypatch, capsys):
    # Records go to the archive as their ascents end, and a chunk's records
    # are dropped before the next chunk ascends.  With 128 rows a chunk,
    # one chunk of starts peaks at 0.97 MB and 1,000 starts at 0.99 MB.
    # Holding every line grew the latter to 9.6 MB, and holding the last
    # chunk's records while the next ascends to 1.6 MB.
    monkeypatch.chdir(tmp_path)
    search_kt = ["search", "--objective", "KT", "--n", "4", "--max-iterations", "0"]
    assert main([*search_kt, "--starts", "3"]) == 0  # warm the solver's caches
    monkeypatch.setattr(cli, "_CHUNK", 128)
    small, large = (_traced_peak([*search_kt, "--starts", str(count)]) for count in (128, 1000))
    assert large - small <= 256 << 10
    assert len(read_jsonl(tmp_path / "search.jsonl")) == 1000


def test_sweep_holds_one_chunk_at_a_time(tmp_path, monkeypatch, capsys):
    # A chunk's rows and results are released before the next chunk is
    # drawn and solved.  With 128 rows a chunk of degree 32, the peak grows
    # by 0.03 MB from one chunk to two.  Holding the first chunk's results
    # while the second is solved grew it by 0.28 MB, and holding only the
    # last row's view of the first chunk's [re, im] pairs by 0.09 MB.
    monkeypatch.chdir(tmp_path)
    sweep = ["sweep", "--ensemble", "gaussian", "--n", "32"]
    assert main([*sweep, "--count", "3"]) == 0  # warm the solver's caches
    monkeypatch.setattr(cli, "_CHUNK", 128)
    small, large = (_traced_peak([*sweep, "--count", str(count)]) for count in (128, 256))
    assert large - small <= 64 << 10


def test_search_failing_in_a_later_chunk_leaves_no_archive(tmp_path, monkeypatch, capsys):
    calls, ascend = [], cli.maximize_batch

    def fail_second(objective, starts, settings, sample_seeds):
        calls.append(len(starts))
        if len(calls) == 2:
            raise ConvergenceError("critical point backward error 1e-03 above tol_root in 1 of 3 rows")
        return ascend(objective, starts, settings, sample_seeds=sample_seeds)

    monkeypatch.setattr(cli, "_CHUNK", 3)
    monkeypatch.setattr(cli, "maximize_batch", fail_second)
    argv = ["search", "--objective", "KT", "--n", "4", "--starts", "8", "--max-iterations", "2"]
    assert main([*argv, "--out", str(tmp_path / "s")]) == 2
    assert "numeric error: critical point backward error" in capsys.readouterr().err
    assert calls == [3, 3]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bumps, worst_row", [
    ({5: np.inf, 9: np.inf, 10: 1e-3}, 5),  # a tie keeps the first row, across chunks
    ({5: 1e-3, 2: np.nan, 10: np.nan}, 2),  # a NaN is worse than any number
    ({9: 1e-3}, 9),
])
def test_oracle_names_the_worst_row_over_all_chunks(bumps, worst_row, monkeypatch, capsys):
    # The trace oracle is bumped on chosen rows; the report names the row
    # np.argmax picks from all rows at once, whatever the chunk size.
    rows_seen, oracle = [0], cli.star_trace_oracle

    def bumped(zs):
        values = oracle(zs)
        for i in range(len(zs)):
            values[i] += bumps.get(rows_seen[0] + i, 0.0)
        rows_seen[0] += len(zs)
        return values

    monkeypatch.setattr(cli, "star_trace_oracle", bumped)
    argv = ["oracle", "--n", "5", "--samples", "12"]
    outputs = []
    for chunk in (1024, 4, 3):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        rows_seen[0] = 0
        outputs.append((main(argv), capsys.readouterr()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    code, captured = outputs[0]
    zs = search._samples(Ensemble(kind="uniform-disk", n=5, count=12, recenter=True), range(12))[1]
    (row,) = _unit_frame(zs[worst_row])
    assert code == 1
    assert captured.err == f"worst trace config: {cli._pairs(row)}\n"


def test_oracle_size_guard(capsys):
    for n in ("11", "1"):
        assert main(["oracle", "--n", n]) == 2
        assert capsys.readouterr().err == f"error: oracle supports n in 2..10, got {n}\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--ensemble", "uniform-disk", "--n", "4", "--count", "3"],
    ["oracle", "--n", "4", "--samples", "3"],
    ["search", "--objective", "KT", "--n", "4", "--starts", "2"],
], ids=["sweep", "oracle", "search"])
def test_negative_seed_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not list(tmp_path.iterdir())


def test_sweep_collinear_equality_counts(tmp_path, capsys):
    base = tmp_path / "col"
    code = main([
        "sweep", "--ensemble", "collinear", "--n", "6", "--count", "40",
        "--seed", "5", "--out", str(base),
    ])
    assert code == 0
    rows = {r["inequality_id"]: r for r in read_csv_rows(tmp_path / "col.csv")}
    for iid in ("S0", "KT", "STAR", "STARSTAR"):
        assert rows[iid]["equality_count"] == "40"
        assert rows[iid]["violations"] == "0"
    records = read_jsonl(tmp_path / "col.jsonl")
    assert len(records) == 40
    assert all(rec["kind"] == "sample" for rec in records)


def test_sweep_uniform_disk_no_violations(tmp_path, capsys):
    base = tmp_path / "disk"
    code = main([
        "sweep", "--ensemble", "uniform-disk", "--n", "5", "--count", "60",
        "--seed", "8", "--out", str(base),
    ])
    assert code == 0
    assert all(r["violations"] == "0" for r in read_csv_rows(tmp_path / "disk.csv"))


def test_sweep_sendov_boundary_hypothesis_filter(tmp_path, capsys):
    base = tmp_path / "sb"
    code = main([
        "sweep", "--ensemble", "sendov-boundary", "--n", "5", "--count", "40",
        "--seed", "13", "--hypothesis-filter", "--out", str(base),
    ])
    assert code == 0
    rows = {r["inequality_id"]: r for r in read_csv_rows(tmp_path / "sb.csv")}
    assert rows["C1"]["violations"] == "0"
    assert rows["C2"]["violations"] == "0"
    records = read_jsonl(tmp_path / "sb.jsonl")
    assert all(rec["a"] is not None and rec["objective"] == "M_MINUS2" for rec in records)


def test_filtered_sendov_sweep_records_the_kept_indices_in_order(tmp_path, capsys):
    ens = Ensemble(kind="sendov-boundary", n=6, count=30, seed=21)
    kept = [i for i in range(200) if sample_one(ens, i).hypothesis_margin() >= 0][: ens.count]
    assert kept[-1] >= ens.count  # the filter rejected some samples
    code = main(["sweep", "--ensemble", "sendov-boundary", "--n", "6", "--count", "30",
                 "--seed", "21", "--hypothesis-filter", "--out", str(tmp_path / "sb")])
    assert code == 0
    records = read_jsonl(tmp_path / "sb.jsonl")
    assert [rec["seed"] for rec in records] == [sample_seed(21, i) for i in kept]
    for rec, i in zip(records, kept):
        zeros = np.array([complex(re, im) for re, im in rec["zeros"]])
        np.testing.assert_array_equal(zeros, sample_one(ens, i).zeros())
        assert rec["a"] == sample_one(ens, i).a


def test_sweep_dotted_basenames_do_not_collide(tmp_path, capsys):
    argv = ["sweep", "--ensemble", "gaussian", "--n", "3", "--count", "5"]
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "run.v2")]) == 0
    assert main(argv + ["--seed", "2", "--out", str(tmp_path / "run.v3")]) == 0
    assert main(argv + ["--seed", "3", "--out", str(tmp_path / "plain.jsonl")]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["plain.csv", "plain.jsonl", "run.v2.csv", "run.v2.jsonl", "run.v3.csv", "run.v3.jsonl"]
    assert read_jsonl(tmp_path / "run.v2.jsonl") != read_jsonl(tmp_path / "run.v3.jsonl")


def test_sweep_sendov_c1_c2_equal_check_special_case(tmp_path, capsys):
    base = tmp_path / "sb"
    assert main([
        "sweep", "--ensemble", "sendov-boundary", "--n", "6", "--count", "60",
        "--seed", "29", "--out", str(base),
    ]) == 0
    checked = 0
    for rec in read_jsonl(tmp_path / "sb.jsonl"):
        zeros = [complex(re, im) for re, im in rec["zeros"]]
        pm = check_special_case(SendovInstance(rec["a"], np.array(zeros[1:])))
        by_id = {r["id"]: r for r in rec["reports"]}
        assert bool(by_id) == pm.condition_holds
        if by_id:
            assert by_id["C1"]["rhs"] == (None if pm.critical_hit else pm.c1_value)
            assert by_id["C2"]["lhs"] == pm.c2_value
            checked += 1
    assert checked > 0


def test_search_m_minus2(tmp_path, capsys):
    base = tmp_path / "se"
    code = main([
        "search", "--objective", "M_MINUS2", "--n", "4", "--starts", "4",
        "--max-iterations", "40", "--seed", "21", "--out", str(base),
    ])
    assert code == 0
    records = read_jsonl(tmp_path / "se.jsonl")
    assert len(records) == 4
    for rec in records:
        assert rec["kind"] == "search"
        assert rec["objective_value"] <= 1 + 1e-6


@pytest.mark.parametrize("argv, message", [
    (["--objective", "M_MINUS2", "--ensemble", "gaussian"], "M_MINUS2 starts come from the sendov-boundary ensemble"),
    (["--objective", "KT", "--ensemble", "sendov-boundary"], "objective KT needs a root-configuration ensemble"),
])
def test_search_start_ensemble_must_fit_the_objective(argv, message, tmp_path, capsys):
    assert main(["search", *argv, "--n", "4", "--starts", "2", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("objective", ["LXZ(inf)", "LXZ(1e400)", "IMPRO(inf)"])
def test_search_non_finite_order_is_usage_error(objective, tmp_path, capsys):
    assert main(["search", "--objective", objective, "--n", "4", "--starts", "2", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "error: order r must be >= 2 and finite, got inf\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("objective, canonical", [("LXZ(2.50)", "LXZ(2.5)"), ("EK(+2)", "EK(2)"), ("KT", "KT")])
def test_search_names_the_objective_by_the_id_of_its_reports(objective, canonical, tmp_path, capsys):
    argv = ["search", "--objective", objective, "--n", "4", "--starts", "2", "--max-iterations", "5"]
    assert main([*argv, "--out", str(tmp_path / "s")]) == 0
    assert f"2 ascents, best {canonical} = " in capsys.readouterr().out
    for rec in read_jsonl(tmp_path / "s.jsonl"):
        assert rec["objective"] == canonical
        (report,) = [r for r in rec["reports"] if r["id"] == canonical]
        assert report["lhs"] / report["rhs"] == pytest.approx(rec["objective_value"], rel=1e-12)


def _scored_record(value, seed):
    return SearchRecord(sample_seed=seed, zeros=np.array([1.0, -1.0, 0.5j]), a=None, objective_id="KT",
                        objective_value=value, start_value=0.5, iterations=3, reports=[])


@pytest.mark.parametrize("refined, kind, code", [(1.5, "counterexample", 1), (1.0, "search", 0)],
                         ids=["verified", "unconfirmed"])
def test_search_counterexample_protocol(refined, kind, code, tmp_path, monkeypatch, capsys):
    # Start 0 is dropped (None), start 1 is a candidate above 1 + margin, start 2 is not.
    # The rule (search._confirmed) re-scores the candidate to ``refined``.
    candidate, ordinary = _scored_record(1.25, 11), _scored_record(0.75, 12)
    monkeypatch.setattr(cli, "maximize_batch", lambda *args, **kwargs: [None, candidate, ordinary])
    rechecked = []

    def rule(objective_id, zs, values, solver):
        rechecked.append((objective_id, zs, values, solver))
        return np.array([refined > 1.0 + search.COUNTEREXAMPLE_MARGIN, False]), np.array([refined, 0.75])

    monkeypatch.setattr(cli, "_confirmed", rule)
    argv = ["search", "--objective", "KT", "--n", "3", "--starts", "3", "--out", str(tmp_path / "c")]
    assert main(argv) == code
    ((objective_id, zs, values, solver),) = rechecked  # one call for the chunk's kept records
    assert (objective_id, values, solver) == ("KT", [1.25, 0.75], rootfind.RootSolverSettings())
    np.testing.assert_array_equal(zs, [candidate.zeros, ordinary.zeros])
    records = read_jsonl(tmp_path / "c.jsonl")
    assert [(rec["kind"], rec["seed"], rec["objective_value"]) for rec in records] == [(kind, 11, 1.25), ("search", 12, 0.75)]
    out, err = capsys.readouterr()
    assert "2 ascents, best KT = 1.25" in out
    verified = "counterexample candidate verified: KT = 1.500000000 zeros [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5]]\n"
    assert err == (verified if kind == "counterexample" else "")


def test_search_m_minus2_reports_c1_c2_only_under_the_hypothesis(tmp_path, capsys):
    # C1/C2 are theorems only under the centroid hypothesis: a record outside
    # it carries no reports, so the archive's report finds no violation.
    base = tmp_path / "m2"
    assert main(["search", "--objective", "M_MINUS2", "--n", "5", "--starts", "6", "--out", str(base)]) == 0
    records = read_jsonl(tmp_path / "m2.jsonl")
    margins = [
        SendovInstance(rec["a"], np.array([complex(re, im) for re, im in rec["zeros"][1:]])).hypothesis_margin()
        for rec in records
    ]
    assert any(margin < 0 for margin in margins)
    assert [bool(rec["reports"]) for rec in records] == [margin >= 0 for margin in margins]
    assert main(["report", "--input", str(tmp_path / "m2.jsonl")]) == 0


def test_search_ratio_objective(tmp_path, capsys):
    base = tmp_path / "st"
    code = main([
        "search", "--objective", "ST1", "--n", "4", "--starts", "3",
        "--max-iterations", "30", "--seed", "22", "--out", str(base),
    ])
    assert code == 0
    records = read_jsonl(tmp_path / "st.jsonl")
    assert all(rec["objective_value"] <= 1 + 1e-6 for rec in records)


def test_search_derives_each_start_seed_once(monkeypatch, tmp_path, capsys):
    calls = []

    def counting(seed, indices):
        calls.append(list(indices))
        return stacked(seed, indices)

    stacked = search._sample_seeds
    monkeypatch.setattr(search, "_sample_seeds", counting)
    argv = ["search", "--objective", "KT", "--n", "5", "--starts", "3", "--max-iterations", "0"]
    assert main([*argv, "--out", str(tmp_path / "kt")]) == 0
    assert calls == [[0, 1, 2]]
    records = read_jsonl(tmp_path / "kt.jsonl")
    assert [rec["seed"] for rec in records] == [sample_seed(DEFAULT_SEED, i) for i in range(3)]


def test_search_negative_budget_is_usage_error(tmp_path, capsys):
    code = main([
        "search", "--objective", "KT", "--n", "4", "--starts", "2",
        "--max-iterations", "-3", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_iterations" in err
    assert not (tmp_path / "x.jsonl").exists()


def test_report_roundtrip(tmp_path, capsys):
    for ensemble in ("gaussian", "sendov-boundary", "uniform-disk"):
        base = tmp_path / ensemble
        main(["sweep", "--ensemble", ensemble, "--n", "4", "--count", "25", "--seed", "3",
              "--out", str(base)])
        out_csv = tmp_path / f"{ensemble}-summary.csv"
        code = main(["report", "--input", str(tmp_path / f"{ensemble}.jsonl"), "--out", str(out_csv)])
        assert code == 0
        assert out_csv.read_text() == (tmp_path / f"{ensemble}.csv").read_text()


def test_report_skips_blank_lines_between_records(tmp_path, capsys):
    main(["sweep", "--ensemble", "gaussian", "--n", "4", "--count", "5", "--seed", "3", "--out", str(tmp_path / "s")])
    lines = (tmp_path / "s.jsonl").read_text().splitlines(keepends=True)
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n" + "\n  \n".join(lines) + "\t\n")
    assert main(["report", "--input", str(spaced), "--out", str(tmp_path / "spaced.csv")]) == 0
    assert (tmp_path / "spaced.csv").read_text() == (tmp_path / "s.csv").read_text()


def test_report_has_no_jsonl_format(tmp_path, capsys):
    base = tmp_path / "sw"
    assert main(["sweep", "--ensemble", "gaussian", "--n", "3", "--count", "4", "--out", str(base)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--input", str(tmp_path / "sw.jsonl"), "--format", "jsonl"])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'jsonl'" in capsys.readouterr().err


def test_summary_counts_missing_and_non_finite_slack_as_inf():
    items = [("KT", 4, slack, True, False) for slack in (None, math.nan, -math.inf, math.inf)]
    summary = cli._Summary(items)
    assert summary.rows() == [["KT", 4, 4, 0, math.inf, 0]]
    summary.update([("KT", 4, -0.5, False, True), ("S0", 3, 0.25, True, True)])
    assert summary.rows() == [["S0", 3, 1, 0, 0.25, 1], ["KT", 4, 5, 1, -0.5, 1]]


def _record_dict(kind, seed, zeros, reports, a=None, objective=None, objective_value=None):
    """A record as a dict, non-finite numbers as None: the form the JSONL lines encode."""

    def num(x):
        x = float(x)
        return x if math.isfinite(x) else None

    rec = {"kind": kind, "seed": int(seed), "n": len(zeros),
           "zeros": [[float(z.real), float(z.imag)] for z in np.asarray(zeros, dtype=complex)]}
    if a is not None:
        rec["a"] = float(a)
    rec["reports"] = [
        {"id": r.inequality_id, "lhs": num(r.lhs), "rhs": num(r.rhs), "slack": num(r.slack),
         "holds": bool(r.holds), "equality": bool(r.equality)}
        for r in reports
    ]
    if objective is not None:
        rec["objective"] = objective
        rec["objective_value"] = num(objective_value)
    return rec


def _sendov_reports(inst):
    pm = check_special_case(inst)
    side = float(inst.n - 1)
    reports = [make_report("C1", side, pm.c1_value), make_report("C2", pm.c2_value, side)]
    return pm, reports


def _sample_record():
    zeros = sample_one(Ensemble(kind="uniform-disk", n=6, count=1, seed=5), 0)
    return ("sample", sample_seed(5, 0), zeros, full_report(zeros)), {}


def _sendov_record():
    inst = sample_one(Ensemble(kind="sendov-boundary", n=5, count=1, seed=77), 0)
    pm, reports = _sendov_reports(inst)
    return ("sample", sample_seed(77, 0), inst.zeros(), reports), dict(
        a=inst.a, objective="M_MINUS2", objective_value=pm.values[1])


def _search_record():
    start = sample_one(Ensemble(kind="uniform-disk", n=4, count=1, seed=9, recenter=True), 0)
    rec = maximize("KT", start, SearchSettings(max_iterations=10), sample_seed=11)
    return ("search", rec.sample_seed, rec.zeros, rec.reports), dict(
        a=rec.a, objective="KT", objective_value=rec.objective_value)


def _nonfinite_verify_record():
    # verify --a 0.5 --zeros "0.5,0 0.5,0": a triple zero, whose C1 side is inf.
    inst = SendovInstance(a=0.5, other_zeros=np.array([0.5, 0.5], dtype=complex))
    _pm, sendov_reports = _sendov_reports(inst)
    reports = full_report(inst.zeros()) + sendov_reports
    assert not all(math.isfinite(x) for r in reports for x in (r.lhs, r.rhs, r.slack))
    return ("verify", 1729, inst.zeros(), reports), {}


@pytest.mark.parametrize("build", [_sample_record, _sendov_record, _search_record, _nonfinite_verify_record],
                         ids=["sample", "sendov", "search", "verify-nonfinite"])
def test_record_line_is_the_compact_json_of_the_record(build):
    (kind, seed, zeros, reports), extra = build()
    line = cli._record_line(kind, seed, cli._pairs(zeros), reports, **extra)
    assert line == canonical(_record_dict(kind, seed, zeros, reports, **extra)) + "\n"


def test_jsonl_reproducible_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["sweep", "--ensemble", "uniform-disk", "--n", "4", "--count", "30", "--seed", "99"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_record_roundtrip_reproduces_reports(tmp_path, capsys):
    base = tmp_path / "rt"
    main(["sweep", "--ensemble", "gaussian", "--n", "5", "--count", "10", "--seed", "37",
          "--out", str(base)])
    for rec in read_jsonl(tmp_path / "rt.jsonl")[:3]:
        zeros = np.array([complex(re, im) for re, im in rec["zeros"]])
        fresh = {r.inequality_id: r for r in full_report(zeros)}
        for rep in rec["reports"]:
            got = fresh[rep["id"]]
            assert got.lhs == pytest.approx(rep["lhs"], rel=1e-12, abs=1e-12)
            assert got.rhs == pytest.approx(rep["rhs"], rel=1e-12, abs=1e-12)


def _flags(parser):
    sub = next(a for a in parser._actions if a.dest == "command")
    return {name: sorted(o for a in p._actions if a.dest != "help" for o in a.option_strings)
            for name, p in sub.choices.items()}


def test_each_subcommand_declares_only_the_flags_it_reads():
    flags = _flags(cli._build_parser())
    assert {name: len(opts) for name, opts in flags.items()} == {
        "verify": 8, "oracle": 4, "sweep": 10, "search": 8, "report": 3,
    }
    assert flags["oracle"] == ["--n", "--samples", "--seed", "--tol-root"]
    assert flags["report"] == ["--format", "--input", "--out"]


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "4", "--out", "x"],
    ["oracle", "--n", "4", "--tol-eq", "1e-3"],
    ["oracle", "--n", "4", "--format", "csv"],
    ["sweep", "--ensemble", "gaussian", "--n", "4", "--format", "csv"],
    ["search", "--objective", "KT", "--n", "4", "--tol-eq", "1e-3"],
    ["search", "--objective", "KT", "--n", "4", "--format", "csv"],
    ["report", "--input", "x.jsonl", "--seed", "3"],
    ["report", "--input", "x.jsonl", "--tol-root", "1e-9"],
    ["report", "--input", "x.jsonl", "--tol-eq", "1e-3"],
    ["verify", "--zeros", "1,0 -1,0", "--recenter"],
    ["search", "--objective", "KT", "--n", "4", "--raw-starts"],
])
def test_removed_flags_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extra, message", [
    (["--ensemble", "sendov-boundary", "--recenter"], "sendov-boundary instances cannot be recentered"),
    (["--ensemble", "sendov-boundary", "--scale", "-1"], "perturbation scale must be nonnegative"),
    (["--ensemble", "gaussian", "--scale", "-1"], "perturbation scale must be nonnegative"),
    (["--ensemble", "gaussian", "--hypothesis-filter"], "--hypothesis-filter applies to the sendov-boundary"),
])
def test_sweep_flags_the_ensemble_cannot_use_are_usage_errors(extra, message, tmp_path, capsys):
    assert main(["sweep", "--n", "4", "--count", "5", *extra, "--out", str(tmp_path / "s")]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sweep_non_finite_scale_is_usage_error(value, tmp_path, capsys):
    argv = ["sweep", "--ensemble", "roots-of-unity-perturbed", "--n", "5", "--count", "3", "--scale", value]
    assert main([*argv, "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: perturbation scale must be nonnegative and finite, got {value}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("ensemble", ["gaussian", "uniform-disk", "collinear", "sendov-boundary"])
def test_sweep_scale_on_an_unperturbed_ensemble_is_a_usage_error(ensemble, tmp_path, capsys):
    argv = ["sweep", "--ensemble", ensemble, "--n", "4", "--count", "5", "--scale", "5", "--out", str(tmp_path / "s")]
    assert main(argv) == 2
    assert "--scale applies to the roots-of-unity-perturbed ensemble only" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_tol_eq_is_usage_error(value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ensemble", "gaussian", "--n", "4", "--count", "5",
              "--tol-eq", value, "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert "error: argument --tol-eq" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_valid_tol_eq_reaches_the_flags(tmp_path, capsys):
    # Inside the Sendov hypothesis (Re sum of the others 1.0 >= 0.6), so C1 and C2 are reported too.
    verify = ["verify", "--zeros", "0.5,0.1 0.4,0.2 0.1,-0.4", "--a", "0.6", "--format", "jsonl"]
    sweep = ["sweep", "--ensemble", "gaussian", "--n", "4", "--count", "6", "--seed", "3"]
    for tol, name in (([], "default"), (["--tol-eq", "10"], "wide")):
        assert main([*verify, *tol, "--out", str(tmp_path / f"v_{name}.jsonl")]) == 0
        assert main([*sweep, *tol, "--out", str(tmp_path / f"s_{name}")]) == 0
    capsys.readouterr()
    default, wide = (read_jsonl(tmp_path / f"v_{name}.jsonl")[0]["reports"] for name in ("default", "wide"))
    assert {"C1", "C2"} <= {r["id"] for r in wide}
    assert not any(r["equality"] for r in default)
    assert all(r["equality"] and r["holds"] for r in wide)
    assert [r["id"] for r in default] == [r["id"] for r in wide]
    default, wide = (read_csv_rows(tmp_path / f"s_{name}.csv") for name in ("default", "wide"))
    assert any(row["equality_count"] != "6" for row in default)
    assert all(row["equality_count"] == "6" for row in wide)


@pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf"])
def test_bad_tol_root_is_usage_error(value, capsys):
    for tol in ([f"--tol-root={value}"], ["--tol-root", value]):
        assert main(["verify", "--zeros", "1,0 -1,0 0,1", *tol]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tol_root" in err


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random is loaded on first draw only, which keeps CLI start-up short.
    code = "import sys; import schoenberg.cli as cli; cli._build_parser(); print('numpy.random' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "False"


def test_verify_leaves_numpy_random_unloaded():
    # The solvers draw nothing: the Aberth start angle is a constant.
    code = ("import sys; import schoenberg.cli as cli; "
            "assert cli.main(['verify', '--zeros', '1,0 -1,0 0,1']) == 0; print('numpy.random' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip().splitlines()[-1] == "False"


def test_hypothesis_filter_stops_at_its_draw_cap(tmp_path, monkeypatch, capsys):
    drawn = []

    def reject_all(zs):
        drawn.append(len(zs))
        return np.full(len(zs), -1.0)

    monkeypatch.setattr(cli, "hypothesis_margins", reject_all)
    code = main(["sweep", "--ensemble", "sendov-boundary", "--n", "5", "--count", "3",
                 "--hypothesis-filter", "--out", str(tmp_path / "sb")])
    assert code == 2
    assert "rejected too many samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert sum(drawn) == 1000 * 3


def test_a_failed_rename_leaves_no_temp_file(tmp_path, capsys):
    (tmp_path / "s.jsonl").mkdir()
    code = main(["sweep", "--ensemble", "gaussian", "--n", "4", "--count", "5", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tmp*"))
    assert not (tmp_path / "s.csv").exists()


def test_a_failed_csv_write_leaves_no_archive(tmp_path, capsys):
    (tmp_path / "s.csv").mkdir()
    code = main(["sweep", "--ensemble", "gaussian", "--n", "4", "--count", "5", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "i/o error" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["s.csv"]
    assert not list((tmp_path / "s.csv").iterdir())


def test_sweep_counts_m_minus2_candidates_above_1(tmp_path, monkeypatch, capsys):
    # Only finite values above 1 + 1e-6 count; the C1/C2 reports all hold.
    # The rule's re-score passes each row's faked value through.
    values = [1.5, 0.5, math.inf, 1.0 + 2e-6, 1.0 + 1e-7]
    faked = {}  # by each row's a
    batch = cli.special_case_batch

    def special_case_batch(zs, settings):
        faked.update(zip(zs[:, 0].real.tolist(), values))
        return batch(zs, settings)._replace(m_minus2=np.array(values))

    monkeypatch.setattr(cli, "special_case_batch", special_case_batch)
    monkeypatch.setattr(search._Objective, "values",
                        lambda self, zs: np.array([faked[a] for a in zs[:, 0].real.tolist()]))
    code = main(["sweep", "--ensemble", "sendov-boundary", "--n", "5", "--count", "5", "--out", str(tmp_path / "m")])
    assert code == 1
    assert capsys.readouterr().err == "M_MINUS2 candidates above 1: 2\n"
    assert [rec["objective_value"] for rec in read_jsonl(tmp_path / "m.jsonl")] == [1.5, 0.5, None, 1.0 + 2e-6, 1.0 + 1e-7]
    assert all(row["violations"] == "0" for row in read_csv_rows(tmp_path / "m.csv"))


def _fake_m_minus2(monkeypatch, value, row=None):
    """Make every M_-2 column read ``value``, or only row ``row`` of the stacks that have one.

    The fake is bound wherever the columns are computed: in ``sendov`` (sweeps), ``cli`` (``verify --a``) and
    ``search`` (the rule's re-score).
    """
    columns = sendov.distance_columns

    def fake(zs, w):
        out = columns(zs, w)
        m = out.m_minus2.copy()
        if row is None:
            m[:] = value
        elif len(m) > row:
            m[row] = value
        return out._replace(m_minus2=m)

    for module in (sendov, cli, search):
        monkeypatch.setattr(module, "distance_columns", fake)


def test_a_candidate_failing_the_tightened_gate_does_not_sink_a_sweep(tmp_path, monkeypatch, capsys):
    # Row 3 reads M_-2 = 1.5, and no row passes the tightened gate: the
    # candidate is unconfirmed, and the sweep writes its archive and exits 0.
    _fake_m_minus2(monkeypatch, 1.5, row=3)
    monkeypatch.setattr(rootfind.RootSolverSettings, "tightened", lambda self: rootfind.RootSolverSettings(1e-300))
    argv = ["sweep", "--ensemble", "sendov-boundary", "--n", "6", "--count", "300"]
    assert main([*argv, "--out", str(tmp_path / "m")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    values = [rec["objective_value"] for rec in read_jsonl(tmp_path / "m.jsonl")]
    assert len(values) == 300 and values[3] == 1.5 and max(values[:3] + values[4:]) < 1.0
    assert all(row["violations"] == "0" for row in read_csv_rows(tmp_path / "m.csv"))
    assert "records: 300" in out


def test_verify_and_sweep_confirm_a_candidate_alike(tmp_path, monkeypatch, capsys):
    # Every M_-2 reads 1.5, a candidate the re-score confirms; every
    # inequality of the verified configuration holds.
    verify = ["verify", "--zeros", "0.2,0.5 -0.3,-0.1 0.1,0.9", "--a", "0.6"]
    assert main(verify) == 0
    capsys.readouterr()
    _fake_m_minus2(monkeypatch, 1.5)
    assert main(verify) == 1
    out, err = capsys.readouterr()
    assert "M-2=1.500000" in out
    assert err == "M_MINUS2 candidates above 1: 1\n"
    argv = ["sweep", "--ensemble", "sendov-boundary", "--n", "4", "--count", "5", "--out", str(tmp_path / "m")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "M_MINUS2 candidates above 1: 5\n"


@pytest.mark.parametrize("argv", [
    ("--ensemble", "gaussian", "--n", "4"),
    ("--ensemble", "sendov-boundary", "--n", "5"),
    ("--ensemble", "sendov-boundary", "--n", "5", "--hypothesis-filter"),
])
def test_chunked_sweep_writes_the_unchunked_archive(argv, tmp_path, monkeypatch, capsys):
    sweep = ["sweep", *argv, "--count", "20", "--seed", "11"]
    whole = main([*sweep, "--out", str(tmp_path / "whole")])
    monkeypatch.setattr(cli, "_CHUNK", 7)
    assert main([*sweep, "--out", str(tmp_path / "chunked")]) == whole
    for suffix in (".jsonl", ".csv"):
        assert (tmp_path / f"chunked{suffix}").read_bytes() == (tmp_path / f"whole{suffix}").read_bytes()


CHUNKED_COMMANDS = {
    "sweep": ["sweep", "--ensemble", "gaussian", "--n", "4", "--count", "20"],
    "sweep-filtered": ["sweep", "--ensemble", "sendov-boundary", "--n", "5", "--count", "20", "--hypothesis-filter"],
    "oracle": ["oracle", "--n", "6", "--samples", "20"],
    "search": ["search", "--objective", "KT", "--n", "4", "--starts", "8", "--max-iterations", "5"],
    "search-m2": ["search", "--objective", "M_MINUS2", "--n", "4", "--starts", "8", "--max-iterations", "5"],
}


@pytest.mark.parametrize("argv", CHUNKED_COMMANDS.values(), ids=CHUNKED_COMMANDS)
def test_every_sampling_command_gives_the_same_outputs_in_short_chunks(argv, tmp_path, monkeypatch, capsys):
    # Three rows a chunk: every command crosses chunk boundaries, and at
    # seed 11 the filtered sweep's second draw keeps none of its rows.
    monkeypatch.chdir(tmp_path)
    argv = [*argv, "--seed", "11", *(["--out", "run"] if argv[0] != "oracle" else [])]

    def run():
        for path in tmp_path.iterdir():
            path.unlink()
        code = main(argv)
        return code, capsys.readouterr(), {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    whole = run()
    kept, margins = [], cli.hypothesis_margins

    def counted_margins(zs):
        m = margins(zs)
        kept.append(int((m >= 0).sum()))
        return m

    monkeypatch.setattr(cli, "hypothesis_margins", counted_margins)
    monkeypatch.setattr(cli, "_CHUNK", 3)
    assert run() == whole
    assert whole[0] == 0 and len(whole[2]) == {"oracle": 0, "search": 1, "sweep": 2}[argv[0]]
    if "--hypothesis-filter" in argv:
        assert 0 in kept and sum(kept) >= 20


SWEEP_SOLVERS = [("gaussian", "evaluate_ensemble"), ("sendov-boundary", "special_case_batch")]


@pytest.mark.parametrize("ensemble, solver", SWEEP_SOLVERS)
def test_sweep_writes_each_chunk_before_solving_the_next(ensemble, solver, tmp_path, monkeypatch, capsys):
    events = []
    solve, open_writer = getattr(cli, solver), cli._atomic_writer

    def spy_solve(zs, settings):
        events.append(("solve", len(zs)))
        return solve(zs, settings)

    class SpyHandle:
        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            events.append("line")
            return self.handle.write(text)

    @contextlib.contextmanager
    def spy_writer(path):
        with open_writer(path) as handle:
            yield SpyHandle(handle) if path.suffix == ".jsonl" else handle

    monkeypatch.setattr(cli, "_CHUNK", 7)
    monkeypatch.setattr(cli, solver, spy_solve)
    monkeypatch.setattr(cli, "_atomic_writer", spy_writer)
    main(["sweep", "--ensemble", ensemble, "--n", "4", "--count", "20", "--out", str(tmp_path / "s")])
    assert events == [("solve", 7), *["line"] * 7, ("solve", 7), *["line"] * 7, ("solve", 6), *["line"] * 6]
    assert len(read_jsonl(tmp_path / "s.jsonl")) == 20


@pytest.mark.parametrize("ensemble, solver", SWEEP_SOLVERS)
def test_a_solve_failing_in_a_later_chunk_leaves_no_archive(ensemble, solver, tmp_path, monkeypatch, capsys):
    calls = []
    solve = getattr(cli, solver)

    def fail_second(zs, settings):
        calls.append(len(zs))
        if len(calls) == 2:
            raise ConvergenceError(f"critical point backward error 1e-03 above tol_root in 1 of {len(zs)} rows")
        return solve(zs, settings)

    monkeypatch.setattr(cli, "_CHUNK", 7)
    monkeypatch.setattr(cli, solver, fail_second)
    code = main(["sweep", "--ensemble", ensemble, "--n", "4", "--count", "20", "--out", str(tmp_path / "s")])
    assert code == 2
    assert "numeric error: critical point backward error 1e-03 above tol_root in 1 of 7 rows" in capsys.readouterr().err
    assert calls == [7, 7]
    assert not list(tmp_path.iterdir())


def _dynamic_arch_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose kernel OPENBLAS_CORETYPE picks."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in str(blas.get("openblas configuration"))


def _close(x, y):
    return x == y or (x is not None and y is not None and math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0))


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH: OPENBLAS_CORETYPE picks no kernel")
@pytest.mark.parametrize("argv", [
    ["sweep", "--ensemble", "uniform-disk", "--n", "8", "--count", "200"],
    ["search", "--objective", "KT", "--n", "6", "--starts", "2"],
], ids=["sweep", "search"])
def test_another_lapack_kernel_moves_only_the_last_bits(argv, tmp_path):
    # Archives are byte-identical for a fixed seed on one numpy and LAPACK
    # build.  Another OpenBLAS kernel may round the solve differently, but
    # the zeros, ids and flags stay, and the sides move in their last bits.
    src = str(Path(cli.__file__).resolve().parents[1])

    def records(coretype):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env.update(PYTHONPATH=src, **({"OPENBLAS_CORETYPE": coretype} if coretype else {}))
        out = tmp_path / (coretype or "default")
        subprocess.run([sys.executable, "-m", "schoenberg.cli", *argv, "--out", str(out)],
                       env=env, capture_output=True, text=True, check=True)
        return read_jsonl(out.with_suffix(".jsonl"))

    default, other = records(None), records("Prescott")
    assert len(default) == len(other) > 0
    for a, b in zip(default, other):
        assert (a["kind"], a["seed"], a["zeros"]) == (b["kind"], b["seed"], b["zeros"])
        assert [(r["id"], r["holds"], r["equality"]) for r in a["reports"]] == \
            [(r["id"], r["holds"], r["equality"]) for r in b["reports"]]
        for ra, rb in zip(a["reports"], b["reports"]):
            assert _close(ra["lhs"], rb["lhs"]) and _close(ra["rhs"], rb["rhs"]), (ra, rb)
        assert _close(a.get("objective_value"), b.get("objective_value"))
