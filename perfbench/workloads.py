"""The four CLI workloads of the benchmark, with their sizes and rationale.

Each workload is a closed loop: one ``schoenberg`` CLI invocation at a
time, in one process, on one thread.  The workload seed is passed to the
CLI as ``--seed``; invocation k of a run uses a seed derived from the run
seed and k, so a run averages over several inputs and the same run seed
always gives the same inputs.  Each invocation takes about half a second
on a 2-vCPU VM, so one run holds dozens of them: the median over a run is
then steady against both input-to-input variation and a shared host whose
speed drifts over seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI argv without --seed and --out
    items: int  # work items per invocation, the unit of items_per_s
    item: str
    warmup: tuple  # a small argv of the same command, run before timing
    writes_archive: bool
    why: str

    def argv(self, seed: int, out: str | None = None, warmup: bool = False) -> list[str]:
        argv = list(self.warmup if warmup else self.args) + ["--seed", str(seed)]
        if self.writes_archive and out is not None:
            argv += ["--out", out]
        return argv

    def describe(self) -> dict:
        return {"argv": list(self.args), "items": self.items, "item": self.item, "why": self.why}


def invocation_seed(run_seed: int, k: int) -> int:
    """CLI seed of invocation k: the run seed itself first, then derived ones."""
    if k == 0:
        return int(run_seed)
    return int(np.random.SeedSequence([int(run_seed), k]).generate_state(1, np.uint32)[0])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-disk",
            args=("sweep", "--ensemble", "uniform-disk", "--n", "8", "--count", "800"),
            items=800,
            item="configurations",
            warmup=("sweep", "--ensemble", "uniform-disk", "--n", "8", "--count", "20"),
            writes_archive=True,
            why="archive building dominates (25.6k reports, 3.4 MB JSONL per call) over two batched solves; "
            "columnar evaluation should show here and search changes should not",
        ),
        Workload(
            name="sweep-sendov",
            args=("sweep", "--ensemble", "sendov-boundary", "--n", "6", "--count", "300"),
            items=300,
            item="configurations",
            warmup=("sweep", "--ensemble", "sendov-boundary", "--n", "6", "--count", "20"),
            writes_archive=True,
            why="one batched solve then 300 one-row check_special_case re-solves per call; isolates sendov "
            "and the per-call cost of rootfind",
        ),
        Workload(
            name="search-kt",
            args=("search", "--objective", "KT", "--n", "6", "--starts", "2"),
            items=2,
            item="ascents",
            warmup=("search", "--objective", "KT", "--n", "6", "--starts", "1", "--max-iterations", "5"),
            writes_archive=True,
            why="serial Nelder-Mead with about 640 one-row critical_points calls and 2 records per call; "
            "bypasses batch evaluation and archive building",
        ),
        Workload(
            name="oracle-n10",
            args=("oracle", "--n", "10", "--samples", "100"),
            items=100,
            item="samples",
            warmup=("oracle", "--n", "10", "--samples", "10"),
            writes_archive=False,
            why="the only workload that touches matrices: per-sample verify_spectrum (char_poly, "
            "Aberth, critical_points) plus trace-word oracles; writes nothing",
        ),
    )
}
