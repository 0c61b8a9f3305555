"""CLI surface: exit codes, JSONL/CSV formats, reproducibility."""

import json
import re

import numpy as np
import pytest

from schoenberg import cli
from schoenberg.cli import main
from schoenberg.inequalities import full_report
from schoenberg.sendov import SendovInstance, check_special_case


def read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


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


def test_verify_roots_of_unity(capsys):
    assert main(["verify", "--zeros", "1,0 0,1 -1,0 0,-1"]) == 0


def test_verify_noncentered_recenter_flag(capsys):
    # off-center configuration: centered forms not applicable unless --recenter
    assert main(["verify", "--zeros", "1,0 2,0 3,0"]) == 0
    assert main(["verify", "--zeros", "1,0 2,0 3,0", "--recenter"]) == 0


def test_verify_sendov_instance(capsys):
    assert main(["verify", "--zeros", "0,1", "--a", "1.0"]) == 0
    text = capsys.readouterr().out
    assert "sendov" in text


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


def test_oracle_size_guard(capsys):
    assert main(["oracle", "--n", "11"]) == 2
    assert main(["oracle", "--n", "1"]) == 2


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


def test_search_ratio_objective(tmp_path, capsys):
    base = tmp_path / "st"
    code = main([
        "search", "--objective", "ST1", "--n", "4", "--starts", "3",
        "--max-iterations", "30", "--seed", "22", "--out", str(base),
    ])
    assert code == 0
    records = read_jsonl(tmp_path / "st.jsonl")
    assert all(rec["objective_value"] <= 1 + 1e-6 for rec in records)


def test_search_centered_objective_with_raw_starts_is_usage_error(tmp_path, capsys):
    code = main([
        "search", "--objective", "KT", "--n", "4", "--starts", "2",
        "--raw-starts", "--out", str(tmp_path / "x"),
    ])
    assert code == 2


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
    base = tmp_path / "sw"
    main(["sweep", "--ensemble", "gaussian", "--n", "4", "--count", "25", "--seed", "3",
          "--out", str(base)])
    out_csv = tmp_path / "summary.csv"
    code = main(["report", "--input", str(tmp_path / "sw.jsonl"), "--out", str(out_csv)])
    assert code == 0
    assert out_csv.read_text() == (tmp_path / "sw.csv").read_text()


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
        fresh = {r.inequality_id: r for r in full_report(zeros, recenter_centered=True)}
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
        "verify": 9, "oracle": 4, "sweep": 10, "search": 9, "report": 3,
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
])
def test_removed_flags_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_tol_eq_is_usage_error(value, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--ensemble", "gaussian", "--n", "4", "--count", "5",
              "--tol-eq", value, "--out", str(tmp_path / "s")])
    assert exc.value.code == 2
    assert "error: argument --tol-eq" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf"])
def test_bad_tol_root_is_usage_error(value, capsys):
    assert main(["verify", "--zeros", "1,0 -1,0 0,1", f"--tol-root={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tol_root" in err
