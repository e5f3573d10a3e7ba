"""Compare the benchmark panels' CSV rows of two source trees.

    python3 tools/compare_panels.py OLD_SRC NEW_SRC [--workload W]

OLD_SRC and NEW_SRC are checkouts (or their `src` directories).  For each
workload of `perfbench/workloads.py` (or only W), every round of its panel
runs as one CLI call under each tree, on this checkout's
`perfbench/conf/` files.  The rows are then compared column by column,
`solve_ms` (a wall-clock timing) left out, and so are the printed summary
lines.  Prints the rows that differ per column and exits 1 if any row or
line differs, else 0.
"""

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

IGNORED = ("solve_ms",)


def package_root(tree: str) -> Path:
    """The directory holding the `swiptcran` package: TREE/src or TREE itself."""
    path = Path(tree).resolve()
    return path / "src" if (path / "src" / "swiptcran").is_dir() else path


def run_round(src: Path, workload, master_seed: int, workdir: Path) -> tuple[list[dict], list[str]]:
    """One panel round's CSV rows and printed lines under the tree `src`."""
    out = workdir / "panel.csv"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "swiptcran.cli", *workload.argv(master_seed, out.name)],
        cwd=workdir, env=env, capture_output=True, text=True, check=True,
    )
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out.unlink()
    return rows, done.stdout.splitlines()


def compare_round(old, new) -> tuple[dict[str, int], int]:
    """Per column, the number of rows that differ; and the differing printed lines."""
    (old_rows, old_lines), (new_rows, new_lines) = old, new
    diffs: dict[str, int] = {}
    if len(old_rows) != len(new_rows):
        diffs["<row count>"] = abs(len(old_rows) - len(new_rows))
    for a, b in zip(old_rows, new_rows):
        for col in a.keys() | b.keys():
            if col not in IGNORED and a.get(col) != b.get(col):
                diffs[col] = diffs.get(col, 0) + 1
    lines = sum(a != b for a, b in zip(old_lines, new_lines)) + abs(len(old_lines) - len(new_lines))
    return diffs, lines


def compare(old_src: Path, new_src: Path, workload, seeds) -> tuple[int, dict[str, int], int]:
    """Rows compared, differing rows per column and differing lines over the rounds `seeds`."""
    n_rows, total, n_lines = 0, {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            old = run_round(old_src, workload, seed, Path(tmp))
            new = run_round(new_src, workload, seed, Path(tmp))
            diffs, lines = compare_round(old, new)
            n_rows += len(old[0])
            n_lines += lines
            for col, n in diffs.items():
                total[col] = total.get(col, 0) + n
    return n_rows, total, n_lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    old_src, new_src = package_root(args.old_src), package_root(args.new_src)
    names = [args.workload] if args.workload else list(WORKLOADS)
    same = True
    for name in names:
        workload = WORKLOADS[name]
        n_rows, diffs, n_lines = compare(old_src, new_src, workload, range(workload.panel))
        if not diffs and not n_lines:
            print(f"{name}: {workload.panel} rounds, {n_rows} rows identical outside "
                  f"{', '.join(IGNORED)}; printed lines identical")
            continue
        same = False
        cols = ", ".join(f"{col} {n}" for col, n in sorted(diffs.items())) or "none"
        print(f"{name}: {workload.panel} rounds, {n_rows} rows; rows differing per column: "
              f"{cols}; {n_lines} printed lines differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
