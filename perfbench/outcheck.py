"""Output checks of one workload invocation: a fast wrong answer is a failure.

Every invocation is checked for its exit code (0), its record count and
per-record invariants, and, for the sweeps, for a CSV summary that agrees
with an independent aggregation of the JSONL records.  At the default
seed the summary rows must also match ``reference.json``, recorded from
the seed commit with ``python3 perfbench/outcheck.py --record``: ``inequality_id``, ``n``, ``samples``, ``violations``
and ``equality_count`` exactly, ``min_slack`` within
``MIN_SLACK_TOL * max(1, |reference|)``.  Archive bytes are never
compared, so a change of serialization that keeps the content passes.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

# The CLI default --tol-eq, which every workload runs with.
TOL_EQ = 1e-8
# No M_MINUS2 or search objective value may exceed this (the CLI's
# counterexample threshold 1 + 1e-6).
VALUE_BOUND = 1.0 + 1e-6
# min_slack against the seed-commit reference.  The root solver accepts
# residuals of 1e-9 relative; 1e-6 leaves room for a different but
# equally accurate solver and still catches a wrong inequality side.
MIN_SLACK_TOL = 1e-6
# The CSV prints min_slack with 12 significant digits.
CSV_SLACK_TOL = 1e-11
# Search records: objective value against the KT report's lhs / rhs.
RATIO_TOL = 1e-6
# The oracle command's own pass thresholds (cli.TRACE_ORACLE_TOL, cli.SPECTRUM_TOL).
TRACE_TOL = 1e-10
SPECTRUM_TOL = 1e-7

ARCHIVE_BASENAME = "run"
MAX_PROBLEMS = 10

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _option(workload: Workload, flag: str) -> int:
    args = list(workload.args)
    return int(args[args.index(flag) + 1])


def read_jsonl(path: Path):
    """Records of a JSONL archive, one at a time (a sweep archive is 21 MB)."""
    with open(path) as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def read_csv_rows(path: Path) -> list[list]:
    lines = Path(path).read_text().strip().splitlines()
    rows = []
    for line in lines[1:]:
        iid, n, samples, violations, min_slack, equality = line.rsplit(",", 5)
        rows.append([iid, int(n), int(samples), int(violations), float(min_slack), int(equality)])
    return rows


class Summary:
    """The CSV summary rows, aggregated from records independently of the CLI."""

    def __init__(self):
        self._rows: dict[tuple, list] = {}

    def add(self, record: dict) -> None:
        for rep in record["reports"]:
            row = self._rows.setdefault((rep["id"], record["n"]), [rep["id"], record["n"], 0, 0, math.inf, 0])
            slack = math.inf if rep["slack"] is None else rep["slack"]
            row[2] += 1
            row[3] += 0 if rep["holds"] else 1
            row[4] = min(row[4], slack)
            row[5] += 1 if rep["equality"] else 0

    def rows(self) -> list[list]:
        return [self._rows[k] for k in sorted(self._rows, key=lambda t: (t[1], t[0]))]


def _report_problems(rep: dict) -> list[str]:
    """A report's flags and slack must follow from its two sides."""
    lhs, rhs, slack = rep["lhs"], rep["rhs"], rep["slack"]
    if lhs is None or rhs is None or slack is None:
        return []
    out = []
    if abs(slack - (rhs - lhs)) > 1e-12 * max(1.0, abs(lhs), abs(rhs)):
        out.append(f"{rep['id']}: slack {slack!r} is not rhs - lhs")
    margin = TOL_EQ * max(1.0, abs(rhs))
    if rep["holds"] != (slack >= -margin):
        out.append(f"{rep['id']}: holds={rep['holds']} contradicts slack {slack!r}")
    if rep["equality"] != (abs(slack) <= margin):
        out.append(f"{rep['id']}: equality={rep['equality']} contradicts slack {slack!r}")
    return out


def _record_problems(workload: Workload, rec: dict, ids: list | None) -> list[str]:
    n = _option(workload, "--n")
    out = []
    if rec.get("n") != n or len(rec.get("zeros", ())) != n:
        out.append(f"record seed {rec.get('seed')}: expected n={n}")
    reports = rec.get("reports", [])
    got_ids = [r["id"] for r in reports]
    if workload.name == "sweep-sendov":
        if got_ids not in ([], ["C1", "C2"]):
            out.append(f"record seed {rec.get('seed')}: unexpected reports {got_ids}")
        value = rec.get("objective_value")
        if rec.get("objective") != "M_MINUS2" or value is None or value > VALUE_BOUND:
            out.append(f"record seed {rec.get('seed')}: M_MINUS2 value {value!r} missing or above {VALUE_BOUND}")
    elif ids is not None and sorted(got_ids) != ids:
        out.append(f"record seed {rec.get('seed')}: report ids differ from the reference")
    if workload.name == "search-kt":
        value = rec.get("objective_value")
        if rec.get("kind") != "search" or rec.get("objective") != "KT" or value is None or value > VALUE_BOUND:
            out.append(f"search record seed {rec.get('seed')}: KT value {value!r} missing or above {VALUE_BOUND}")
        else:
            kt = next((r for r in reports if r["id"] == "KT"), None)
            if kt is None or kt["lhs"] is None or not kt["rhs"]:
                out.append(f"search record seed {rec.get('seed')}: no KT report")
            elif abs(value - kt["lhs"] / kt["rhs"]) > RATIO_TOL * max(1.0, abs(value)):
                out.append(f"search record seed {rec.get('seed')}: KT value {value!r} is not its report's lhs/rhs")
    elif rec.get("kind") != "sample":
        out.append(f"record seed {rec.get('seed')}: kind {rec.get('kind')!r}, expected 'sample'")
    for rep in reports:
        out += _report_problems(rep)
    return out


def _rows_problems(got: list[list], want: list[list], slack_tol: float, what: str) -> list[str]:
    got_by = {(r[0], r[1]): r for r in got}
    want_by = {(r[0], r[1]): r for r in want}
    if set(got_by) != set(want_by):
        return [f"{what}: rows {sorted(set(got_by) ^ set(want_by))} present on one side only"]
    out = []
    for key, w in want_by.items():
        g = got_by[key]
        if g[2:4] != w[2:4] or g[5] != w[5]:
            out.append(f"{what}: row {key} counts {g[2:4] + g[5:]} != {w[2:4] + w[5:]}")
        elif not (g[4] == w[4] or abs(g[4] - w[4]) <= slack_tol * max(1.0, abs(w[4]))):
            out.append(f"{what}: row {key} min_slack {g[4]!r} != {w[4]!r}")
    return out


def _archive_problems(workload: Workload, seed: int, outdir: Path, reference: dict) -> list[str]:
    jsonl = Path(outdir) / f"{ARCHIVE_BASENAME}.jsonl"
    if not jsonl.exists():
        return [f"missing archive {jsonl.name}"]
    ref = reference["workloads"][workload.name]
    ids = ref.get("report_ids")
    summary = Summary()
    problems, count = [], 0
    for rec in read_jsonl(jsonl):
        count += 1
        if len(problems) < MAX_PROBLEMS:
            problems += _record_problems(workload, rec, ids)
        summary.add(rec)
    if count != workload.items:
        problems.append(f"{count} records, expected {workload.items}")
    rows = summary.rows()
    if workload.args[0] == "sweep":
        csv = jsonl.with_suffix(".csv")
        if not csv.exists():
            problems.append(f"missing summary {csv.name}")
        else:
            problems += _rows_problems(read_csv_rows(csv), rows, CSV_SLACK_TOL, "CSV vs JSONL")
    if any(row[3] for row in rows):
        problems.append("violations recorded although the workload has none")
    if seed == DEFAULT_SEED:
        problems += _rows_problems(rows, ref["rows"], MIN_SLACK_TOL, "summary vs reference")
    return problems


_TRACE_LINE = re.compile(r"trace oracle: (\d+) samples, n=(\d+), max \|closed - trace\| = (\S+)")
_SPECTRUM_LINE = re.compile(r"spectrum check: max pairing distance = (\S+)")


def _oracle_problems(workload: Workload, stdout: str) -> list[str]:
    trace = _TRACE_LINE.search(stdout)
    spectrum = _SPECTRUM_LINE.search(stdout)
    if not trace or not spectrum:
        return ["oracle output lines missing"]
    out = []
    samples, n = int(trace.group(1)), int(trace.group(2))
    if samples != workload.items or n != _option(workload, "--n"):
        out.append(f"oracle ran {samples} samples at n={n}")
    if not float(trace.group(3)) <= TRACE_TOL:
        out.append(f"trace deviation {trace.group(3)} above {TRACE_TOL}")
    if not float(spectrum.group(1)) <= SPECTRUM_TOL:
        out.append(f"spectrum deviation {spectrum.group(1)} above {SPECTRUM_TOL}")
    return out


def check(workload: Workload, seed: int, exit_code: int, outdir: Path, stdout: str, reference: dict) -> list[str]:
    """Problems found in one invocation's outputs; empty when it is correct."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
    if workload.writes_archive:
        problems += _archive_problems(workload, seed, outdir, reference)
    else:
        problems += _oracle_problems(workload, stdout)
    return problems


def record_reference() -> dict:
    """Run every archive-writing workload at the default seed and keep its summary."""
    from schoenberg import cli

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        if not workload.writes_archive:
            continue
        with tempfile.TemporaryDirectory(dir=REFERENCE_PATH.parent.parent) as tmp:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(workload.argv(DEFAULT_SEED, str(Path(tmp) / ARCHIVE_BASENAME)))
            assert code == 0, f"{workload.name} exited with code {code}"
            summary, ids = Summary(), set()
            records = list(read_jsonl(Path(tmp) / f"{ARCHIVE_BASENAME}.jsonl"))
        for rec in records:
            summary.add(rec)
            ids.add(tuple(sorted(r["id"] for r in rec["reports"])))
        ref = {"records": len(records)}
        if len(ids) == 1:  # every record reports the same inequalities
            ref["report_ids"] = list(ids.pop())
        ref["rows"] = summary.rows()
        out["workloads"][workload.name] = ref
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/outcheck.py --record")
    text = json.dumps(record_reference(), indent=1)
    REFERENCE_PATH.write_text(re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                                     text) + "\n")
