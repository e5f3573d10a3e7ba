"""Time and memory of the long-term stage at several `sdp.BATCH_SIZE` values.

    python3 tools/batch_curve.py [--repeat R] SIZE [SIZE ...]

For each SIZE a fresh subprocess runs trial 0 of `perfbench/conf/longterm.conf`
at master seed 0: the training stage, which warms the process, and then the
long-term stage (3 variants x 50 slots = 150 batched solves) R times with
`sdp.BATCH_SIZE = SIZE`.  Prints per size the number of batches, the stage's
median ms per solve (draw, build and solve) and the rise of the peak RSS
over the warm process, which the first stage run sets.  Run it on an idle
machine: the times are wall clock.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONF = ROOT / "perfbench" / "conf" / "longterm.conf"


def measure(size: int, repeat: int) -> dict:
    """The stage of trial 0 at batch size `size`, in this process."""
    from swiptcran import sdp
    from swiptcran.beamform import GroupDivision
    from swiptcran.cli import _trial_topology, derived_seed
    from swiptcran.config import load_config
    from swiptcran.longterm import longterm_stage, training_stage

    config = load_config(str(CONF), {"run.seed": 0})
    topology = _trial_topology(config, 0)
    training = training_stage(
        topology, derived_seed(config.seed, 0, 2), q_training=config.q_training,
        threshold=config.threshold, params=config.params, algorithm=config.training_algorithm,
    )
    divisions = [training.frozen_division, GroupDivision.all_fet(config.n_et),
                 GroupDivision.all_met(config.n_et)]
    n_solves = len(divisions) * config.q_longterm
    sdp.BATCH_SIZE = size
    warm_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        longterm_stage(topology, derived_seed(config.seed, 0, 3), divisions, config.q_longterm,
                       params=config.params)
        times.append(time.perf_counter() - start)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "size": size,
        "batches": -(-n_solves // size),
        "ms_per_solve": statistics.median(times) * 1e3 / n_solves,
        "rss_rise_mb": (peak_kb - warm_kb) / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sizes", nargs="*", type=int, metavar="SIZE")
    ap.add_argument("--repeat", type=int, default=5, help="stage runs per size (default 5)")
    ap.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure is not None:  # the subprocess side
        json.dump(measure(args.measure, args.repeat), sys.stdout)
        return 0
    if not args.sizes or min(args.sizes) < 1 or args.repeat < 1:
        ap.error("give at least one SIZE; sizes and --repeat must be positive")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    print("size  batches  ms/solve  peak RSS rise (MB)")
    for size in args.sizes:
        done = subprocess.run(
            [sys.executable, __file__, "--measure", str(size), "--repeat", str(args.repeat)],
            env=env, capture_output=True, text=True, check=True,
        )
        r = json.loads(done.stdout)
        print(f"{r['size']:4d}  {r['batches']:7d}  {r['ms_per_solve']:8.2f}  {r['rss_rise_mb']:18.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
