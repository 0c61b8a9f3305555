"""Write the outputs of a fixed list of CLI runs, for byte-for-byte comparison.

    python3 tools/snapshot_outputs.py OUT_DIR

Runs every command of ``COMMANDS`` at every seed of ``SEEDS`` with the
package of this checkout (``PYTHONPATH=src``), one subprocess each, with
``OUT_DIR`` as the working directory.  Run ``NAME`` at seed ``S`` leaves
``NAME_S.stdout``, ``NAME_S.stderr`` and ``NAME_S.exit`` in ``OUT_DIR``,
next to the JSONL and CSV files it writes as ``--out NAME_S``.  Output
paths are relative, and the checkout's path in a raw warning on stderr
is written ``<checkout>``, so two checkouts side by side give comparable
trees:

    (cd old && python3 tools/snapshot_outputs.py ../before)
    (cd new && python3 tools/snapshot_outputs.py ../after)
    diff -r before after

Outputs are byte-identical for a fixed seed on one numpy and LAPACK
build.  An OpenBLAS built with ``DYNAMIC_ARCH`` picks its CPU kernel per
process (``OPENBLAS_CORETYPE`` overrides the choice), and another kernel
may move the last bits of lhs, rhs and objective values, so ``BUILD.txt``
in ``OUT_DIR`` records the numpy version, the BLAS build and
``OPENBLAS_CORETYPE``: compare trees only when their ``BUILD.txt`` agree.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# A seed of 2**32 or more is two words of seed entropy.
SEEDS = (1729, 4242, 2**32 + 1729)

# (name, argv after ``schoenberg``, whether the command writes to ``--out NAME_S``)
COMMANDS = (
    ("search_kt_n6", ("search", "--objective", "KT", "--n", "6", "--starts", "4"), True),
    ("search_star_n5", ("search", "--objective", "STAR", "--n", "5", "--starts", "3"), True),
    ("search_s_n5", ("search", "--objective", "S", "--n", "5", "--starts", "3"), True),
    ("search_lxz_n5", ("search", "--objective", "LXZ(2.5)", "--n", "5", "--starts", "3"), True),
    ("search_m2_n5", ("search", "--objective", "M_MINUS2", "--n", "5", "--starts", "6"), True),
    ("search_m2_n3", ("search", "--objective", "M_MINUS2", "--n", "3", "--starts", "6"), True),
    # The search-kt benchmark argv; KT at n = 4 shrinks its simplices, and
    # S0 at n = 3 retires its rows on the step tolerance before the budget.
    ("search_kt_n6_starts2", ("search", "--objective", "KT", "--n", "6", "--starts", "2"), True),
    ("search_kt_n4", ("search", "--objective", "KT", "--n", "4", "--starts", "3"), True),
    ("search_s0_n3", ("search", "--objective", "S0", "--n", "3", "--starts", "3"), True),
    # A zero round budget records the best vertex of each start simplex.
    ("search_kt_n6_budget0",
     ("search", "--objective", "KT", "--n", "6", "--starts", "4", "--max-iterations", "0"), True),
    ("search_star_n5_budget0",
     ("search", "--objective", "STAR", "--n", "5", "--starts", "4", "--max-iterations", "0"), True),
    ("search_m2_n5_budget0",
     ("search", "--objective", "M_MINUS2", "--n", "5", "--starts", "4", "--max-iterations", "0"), True),
    ("search_bsen_n7", ("search", "--objective", "BSEN", "--n", "7", "--starts", "3", "--ensemble", "gaussian"), True),
    # Score paths of their own: EK(k), LOGMAJ(k) (which also solves the
    # moduli polynomial) and one start of KT (3-row calls).  A non-canonical
    # spelling names the objective by its reports' id, LXZ(2.5).
    ("search_ek3_n6", ("search", "--objective", "EK(3)", "--n", "6", "--starts", "2"), True),
    ("search_logmaj2_n5", ("search", "--objective", "LOGMAJ(2)", "--n", "5", "--starts", "2"), True),
    ("search_kt_n6_starts1", ("search", "--objective", "KT", "--n", "6", "--starts", "1"), True),
    ("search_lxz_spelled_n5", ("search", "--objective", "LXZ(2.50)", "--n", "5", "--starts", "2"), True),
    # The start kinds the searches above do not draw: collinear and roots-of-unity-perturbed.
    ("search_kt_n6_collinear_budget0",
     ("search", "--objective", "KT", "--n", "6", "--starts", "3", "--ensemble", "collinear",
      "--max-iterations", "0"), True),
    ("search_s_n5_unity_budget0",
     ("search", "--objective", "S", "--n", "5", "--starts", "3", "--ensemble", "roots-of-unity-perturbed",
      "--max-iterations", "0"), True),
    ("sweep_disk_n8", ("sweep", "--ensemble", "uniform-disk", "--n", "8", "--count", "800"), True),
    ("sweep_collinear_n6", ("sweep", "--ensemble", "collinear", "--n", "6", "--count", "300"), True),
    ("sweep_sendov_n6", ("sweep", "--ensemble", "sendov-boundary", "--n", "6", "--count", "300"), True),
    ("sweep_sendov_filter_n5",
     ("sweep", "--ensemble", "sendov-boundary", "--n", "5", "--count", "200", "--hypothesis-filter"), True),
    ("sweep_sendov_filter_n12",
     ("sweep", "--ensemble", "sendov-boundary", "--n", "12", "--count", "200", "--hypothesis-filter"), True),
    # More rows than one streaming chunk (1024): the archive is written chunk by chunk.
    ("sweep_gaussian_n4_chunks", ("sweep", "--ensemble", "gaussian", "--n", "4", "--count", "2500"), True),
    ("sweep_sendov_filter_n5_chunks",
     ("sweep", "--ensemble", "sendov-boundary", "--n", "5", "--count", "1500", "--hypothesis-filter"), True),
    # High degree: every chunk is solved in several kernel calls, each held
    # to the kernel's work budget in array elements.
    ("sweep_gaussian_n20", ("sweep", "--ensemble", "gaussian", "--n", "20", "--count", "300"), True),
    ("sweep_gaussian_n64", ("sweep", "--ensemble", "gaussian", "--n", "64", "--count", "40"), True),
    ("sweep_unity_n7",
     ("sweep", "--ensemble", "roots-of-unity-perturbed", "--n", "7", "--count", "200", "--scale", "0"), True),
    # The root sweep draws each row through sample_one: these reach its
    # normal draws, which a scale of 0 zeroes, and its recentering.
    ("sweep_unity_n7_scaled", ("sweep", "--ensemble", "roots-of-unity-perturbed", "--n", "7", "--count", "200"), True),
    ("sweep_disk_n5_recenter", ("sweep", "--ensemble", "uniform-disk", "--n", "5", "--count", "300", "--recenter"), True),
    ("oracle_n10", ("oracle", "--n", "10", "--samples", "300"), False),
    # Every command that samples, across chunk boundaries: the oracle and
    # the search draw 1024 rows at a time too, and a filtered sweep's chunks
    # hold only the rows their draw kept.
    ("oracle_n10_chunks", ("oracle", "--n", "10", "--samples", "2100"), False),
    ("sweep_sendov_filter_n5_short_chunks",
     ("sweep", "--ensemble", "sendov-boundary", "--n", "5", "--count", "2500", "--hypothesis-filter"), True),
    ("search_kt_n4_chunks",
     ("search", "--objective", "KT", "--n", "4", "--starts", "1100", "--max-iterations", "3"), True),
    # The search's lockstep runs in row blocks of at most 2**16 // ((dim + 1) * n) starts:
    # at n = 32 the packed dimension dim = 62 gives blocks of 32 and 8 starts.
    ("search_kt_n32_blocks",
     ("search", "--objective", "KT", "--n", "32", "--starts", "40", "--max-iterations", "3"), True),
    ("verify_sendov", ("verify", "--zeros", "0.3,0.1 -0.5,0.2 0.7,-0.4", "--a", "0.6"), False),
    ("verify_sendov_jsonl",
     ("verify", "--zeros", "0.3,0.1 -0.5,0.2 0.7,-0.4", "--a", "0.6", "--format", "jsonl"), True),
    ("verify_collinear", ("verify", "--zeros", "-1.5,0 0.5,0 1,0"), False),
    ("verify_square", ("verify", "--zeros", "1,0 0,1 -1,0 0,-1", "--format", "jsonl"), True),
    ("verify_hit", ("verify", "--zeros", "-1,0 -1,0", "--a", "1.0"), False),
    # A repeated zero widens the spectrum tolerance by its cluster size.
    ("verify_repeated", ("verify", "--zeros", "1,0 1,0 1,0 2,0"), False),
    ("verify_sendov_csv",
     ("verify", "--zeros", "0.3,0.1 -0.5,0.2 0.7,-0.4", "--a", "0.6", "--format", "csv"), True),
    ("verify_scaled", ("verify", "--zeros", "3e6,1e6 -2e6,0 0,-4e6", "--format", "jsonl"), True),
    ("verify_hit_jsonl", ("verify", "--zeros", "0.5,0 0.5,0", "--a", "0.5", "--format", "jsonl"), True),
    # Far below unit scale: the spectrum tolerance and the collinearity
    # and normality tests must answer as they do at unit scale.
    ("verify_tiny_triangle", ("verify", "--zeros", "1e-300,0 -1e-300,0 0,1e-300"), False),
    ("verify_tiny_line", ("verify", "--zeros", "1e-300,0 -1e-300,0 3e-300,0"), False),
    # Subnormal scale: the zeros leave the normal range, which the solver's
    # frame undoes, and below about 5e-317 the spectrum tolerance is one
    # subnormal step.
    ("verify_subnormal_triangle", ("verify", "--zeros", "1e-310,0 -1e-310,0 0,1e-310"), False),
    ("verify_subnormal_line", ("verify", "--zeros", "1e-320,0 -1e-320,0 3e-320,0"), False),
    ("verify_subnormal_tolerance", ("verify", "--zeros", "-1.5e-323,2e-323 1e-323,-3e-323"), False),
    # The spectrum check's matrix side, D S, where the coefficients of p'
    # are ill-conditioned: a zero of multiplicity 5, 40 zeros on a line, and
    # 35 coincident zeros whose centroid rounds off them.
    ("verify_five_fold_zero", ("verify", "--zeros", "1,0 1,0 1,0 1,0 1,0 -1,0 0,1 0,-1"), False),
    ("verify_line_of_40", ("verify", "--zeros", " ".join(f"{k / 40!r},0" for k in range(40))), False),
    ("verify_coincident_35", ("verify", "--zeros", " ".join(["0.1,0"] * 35)), False),
    # Far above unit scale the order-6 and LXZ(6) sums overflow (the ROADMAP's
    # North star, Open): a false violation with raw warnings.
    ("verify_huge_triangle", ("verify", "--zeros", "1e60,0 -1e60,0 0,1e60"), False),
    # The top of the range: max |z| or the sum of the zeros overflows, though
    # every component is finite.  The solve and the spectrum tolerance work in
    # the zeros' frame; the order-6 sums overflow as above.
    ("verify_top_moduli", ("verify", "--zeros", "1.5e308,1.5e308 -1.5e308,-1.5e308 0,0"), False),
    ("verify_top_sum", ("verify", "--zeros", "1e308,0 1e308,0 0,1e308"), False),
)


def build_text() -> str:
    """The numpy version, its BLAS build and ``OPENBLAS_CORETYPE``, one per line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"numpy {np.__version__}\n"
        f"blas {blas.get('name')} {blas.get('version')}\n"
        f"blas configuration {blas.get('openblas configuration')}\n"
        f"OPENBLAS_CORETYPE {os.environ.get('OPENBLAS_CORETYPE', '(unset)')}\n"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    (out / "BUILD.txt").write_text(build_text())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, args, writes in COMMANDS:
        for seed in SEEDS:
            tag = f"{name}_{seed}"
            cmd = [sys.executable, "-m", "schoenberg.cli", *args, "--seed", str(seed)]
            if writes:
                cmd += ["--out", tag + (".jsonl" if args[0] == "verify" else "")]
            done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
            (out / f"{tag}.stdout").write_text(done.stdout)
            (out / f"{tag}.stderr").write_text(done.stderr.replace(str(ROOT), "<checkout>"))
            (out / f"{tag}.exit").write_text(f"{done.returncode}\n")
            print(f"{tag}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
