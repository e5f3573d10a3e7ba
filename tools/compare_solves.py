"""Compare the SDP solutions of two source trees, bit for bit.

    python3 tools/compare_solves.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are checkouts (or their `src` directories).  Under each
tree a subprocess solves one fixed set of problems: 3/3/7 divisions over
several topology seeds at two assisted floors `p_amin`, one batch of 132
long-term slot problems under the three stage divisions (more than two
batches of 64, so rows leave each batch at different iterations and the
solve crosses batch boundaries), oracle instances 0-7, the
mixed-outcome problems alone and as one batch (the last two from this
checkout's `tests/oracles.py`), and three problems without a PSD block,
one per status (Optimal, Infeasible, Unbounded), whose iteration runs on
the nonnegative orthant alone.
The set runs at each step fraction of `STEP_FRAC_RUNS`: above 1, a step
leaves the cone and the interiority back-off and the Schur jitter run.
Each solution's status, detail, iteration count, objective, residuals,
scalars and blocks are compared bit for bit.  Prints whether the discrete
fields (status, detail, iterations) moved, and for each field the number of
solutions that differ; for a numeric field also its largest relative move,
max|new - old| / max|old| over the field's numbers of one solution, and
where it happened.  Exits 1 if any field differs, else 0.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STEP_FRAC_RUNS = (0.98, 1.2, 1.9)
# slots per stage division: 3 x 44 = 132 problems, at least 2 x 64 + 3
LONGTERM_SLOTS = 44
DISCRETE = ("status", "detail", "iterations")
# each recorded as a list of float.hex() strings; a block's complex entries as (re, im) pairs
NUMERIC = ("objective", "residuals", "scalars", "blocks")
FIELDS = DISCRETE + NUMERIC


def package_root(tree: str) -> Path:
    """The directory holding the `swiptcran` package: TREE/src or TREE itself."""
    path = Path(tree).resolve()
    return path / "src" if (path / "src" / "swiptcran").is_dir() else path


def problem_set() -> list:
    """(label, [problems]) pairs: a list of one is solved alone, a longer one as a batch."""
    # imported here: only the subprocess of `run_tree` has the tree under test on its path
    from oracles import mixed_outcome_batch, oracle_instance
    from swiptcran.beamform import MW_PER_W, GroupDivision, SystemParams, build_sdp
    from swiptcran.longterm import mask_fet_channels
    from swiptcran.sdp import SdpConstraint, SdpProblem
    from swiptcran.topology import draw_channels, generate_topology

    out = []
    divisions = [frozenset(), frozenset({2}), frozenset({0, 3, 5}), frozenset({1, 4}),
                 frozenset({0, 1, 2, 3}), frozenset(range(7))]
    for seed in (1, 5, 16, 23):
        topo = generate_topology(seed=seed, n_rrh=3, n_it=3, n_et=7)
        ch = draw_channels(topo, seed=seed, slot=0)
        for dbm in (-17.0, -12.0):
            params = SystemParams(p_amin=10 ** (dbm / 10) / MW_PER_W)
            for fet in divisions:
                problem = build_sdp(topo, ch, GroupDivision(7, fet), params)
                out.append((f"division seed {seed} p_amin {dbm} dBm fet {sorted(fet)}", [problem]))
    topo = generate_topology(seed=5, n_rrh=3, n_it=3, n_et=7)
    stage = [GroupDivision(7, frozenset({0, 3, 5})), GroupDivision.all_fet(7), GroupDivision.all_met(7)]
    out.append((f"longterm slots 0-{LONGTERM_SLOTS - 1}", [
        build_sdp(topo, mask_fet_channels(draw_channels(topo, seed=5, slot=slot), division), division,
                  SystemParams())
        for division in stage
        for slot in range(LONGTERM_SLOTS)
    ]))
    out += [(f"oracle {seed}", [oracle_instance(seed)[0]]) for seed in range(8)]
    mixed = mixed_outcome_batch()
    out += [(f"mixed {k} alone", [p]) for k, p in enumerate(mixed)]
    out.append(("mixed batch", mixed))
    for status, obj, bounds in (("optimal", 1.0, [(">=", 5.0)]),
                                ("infeasible", 1.0, [(">=", 5.0), ("<=", 3.0)]),
                                ("unbounded", -1.0, [(">=", 0.0)])):
        constraints = tuple(SdpConstraint({}, {0: 1.0}, sense, rhs) for sense, rhs in bounds)
        out.append((f"scalar {status}", [SdpProblem((), 1, {}, {0: obj}, constraints)]))
    return out


def solve_set(step_frac: float) -> list[dict]:
    """Every solution of `problem_set()` at `step_frac`, as comparable fields."""
    from swiptcran import sdp

    sdp.STEP_FRAC = step_frac
    records = []
    for label, problems in problem_set():
        for k, sol in enumerate(sdp.solve_batch(problems)):
            blocks = np.concatenate([np.asarray(w, dtype=np.complex128).view(float).ravel()
                                     for w in sol.block_values] or [np.zeros(0)])
            records.append({
                "label": label if len(problems) == 1 else f"{label} [{k}]",
                "status": sol.status.value,
                "detail": sol.detail,
                "iterations": sol.iterations,
                "objective": [sol.objective_value.hex()],
                "residuals": [float(v).hex() for v in
                              (sol.primal_residual, sol.dual_residual, sol.duality_gap)],
                "scalars": [v.hex() for v in sol.scalar_values.tolist()],
                "blocks": [v.hex() for v in blocks.tolist()],
            })
    return records


def run_tree(src: Path, step_frac: float) -> list[dict]:
    """`solve_set(step_frac)` in a subprocess that imports `swiptcran` from `src`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, __file__, "--solve", repr(step_frac)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def relative_move(old: list[str], new: list[str]) -> float:
    """max|new - old| / max|old| of two lists of float.hex() strings; inf
    where the lengths differ or only one side is NaN, 0.0 for equal values."""
    a, b = (np.array([float.fromhex(h) for h in v]) for v in (old, new))
    if a.shape != b.shape:
        return math.inf
    diff = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
    top = float(diff.max(initial=0.0))
    if math.isnan(top):
        return math.inf
    scale = float(np.nanmax(np.abs(a), initial=0.0))
    return top / scale if scale else (0.0 if top == 0.0 else math.inf)


def compare(old: list[dict], new: list[dict]) -> dict[str, tuple]:
    """Per field that differs, (solutions that differ, worst), where worst is
    (largest relative move, its label) for a numeric field and None otherwise."""
    diffs = {}
    if [r["label"] for r in old] != [r["label"] for r in new]:
        diffs["<problem set>"] = (1, None)
    for a, b in zip(old, new):
        for field in FIELDS:
            if a[field] == b[field]:
                continue
            count, worst = diffs.get(field, (0, None))
            if field in NUMERIC:
                move = (relative_move(a[field], b[field]), a["label"])
                worst = move if worst is None or move[0] > worst[0] else worst
            diffs[field] = (count + 1, worst)
    return diffs


def describe(diffs: dict[str, tuple]) -> str:
    """`compare`'s result in one line: whether a discrete field moved, then each field that differs."""
    moved = [f for f in DISCRETE if f in diffs]
    parts = [f"{', '.join(moved)} moved" if moved else f"{', '.join(DISCRETE)} identical"]
    for field, (count, worst) in sorted(diffs.items()):
        if worst is None:
            parts.append(f"{field} {count}")
        else:
            parts.append(f"{field} {count} (largest relative move {worst[0]:.2e}, {worst[1]})")
    return "; ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--solve", type=float, metavar="STEP_FRAC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.solve is not None:  # the subprocess side of `run_tree`
        json.dump(solve_set(args.solve), sys.stdout)
        return 0
    if args.new_src is None:
        ap.error("OLD_SRC and NEW_SRC are required")
    old_src, new_src = package_root(args.old_src), package_root(args.new_src)
    same = True
    for step_frac in STEP_FRAC_RUNS:
        old, new = run_tree(old_src, step_frac), run_tree(new_src, step_frac)
        diffs = compare(old, new)
        if not diffs:
            print(f"STEP_FRAC {step_frac}: {len(old)} solutions identical")
            continue
        same = False
        print(f"STEP_FRAC {step_frac}: {len(old)} solutions; differing per field: {describe(diffs)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
