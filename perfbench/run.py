"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in turn.
With --trace 0 it starts a few set-up probes and then one worker process
that runs the workload's CLI rounds for S seconds, and reports the
end-to-end metrics.  With --trace 1 the worker runs the rounds untraced and
then traced, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    """The checkout's src/ first on the path; one BLAS thread per process."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe_setup(name: str, seed: int, env: dict) -> float:
    """Seconds from process start until the first trial can begin."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed), "--probe"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - t0


def run_worker(name: str, seed: int, seconds: int, trace: int, env: dict) -> tuple[dict, float]:
    """Run the workload in its own process; returns its result and its set-up time."""
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"result-{os.getpid()}.json"
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--result", str(result_path)]
    t0 = time.monotonic()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr) as proc:
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result, result["first_trial_monotonic"] - t0


def measure(name: str, seed: int, seconds: int, trace: int) -> dict:
    env = child_env()
    setups = []
    if not trace:
        probe_setup(name, seed, env)  # untimed: fills the bytecode cache of a fresh checkout
        setups = [probe_setup(name, seed, env) for _ in range(SETUP_PROBES)]
    res, setup = run_worker(name, seed, seconds, trace, env)
    for line in res["failures"] + res["errors"]:
        print(f"{name}: {line}", file=sys.stderr)
    if trace:
        metrics = res["per_layer"]
    else:
        trials = res["trials"]
        metrics = {
            "setup_s": (statistics.median(setups + [setup]), "s"),
            "trials_per_s": (trials / res["wall_s"], "trials/s"),
            "trial_ms_p50": (statistics.median(res["trial_s"]) * 1e3, "ms"),
            "trial_cpu_ms": (res["cpu_s"] / trials * 1e3, "ms"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        }
    return {
        "correct": res["trials"] > 0 and not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds within 1..60")
    if not (ROOT / "src" / "swiptcran" / "__init__.py").is_file():
        print(f"no swiptcran sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(json.dumps({"workload": name, **results[name]}))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
