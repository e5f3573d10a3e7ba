"""One benchmark process: runs a workload's CLI rounds in-process and measures them.

Started by run.py with the checkout's src/ first on PYTHONPATH.  With
--probe it stops when the first trial is about to begin and prints that
instant (a set-up sample).  Otherwise it runs whole panels until the time
budget is spent, checks every output, and writes its measurements as JSON
to --result.  With --trace 1 it runs each round twice, without and with
spans, which gives the per-layer metrics and the tracing overhead.
"""

import argparse
import csv
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from swiptcran import cli

import checks
from tracing import RUNNERS, Tracer
from workloads import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"


class FirstTrial(Exception):
    """Raised by a set-up probe when the first trial is about to begin."""


class TrialClock:
    """Times trials from outside the CLI.

    A trial runs from one generate_topology call to the next, or to the end
    of the CLI run; `first` holds the wall, monotonic and CPU clocks when
    the first trial began.
    """

    def __init__(self, probe: bool):
        self.probe = probe
        self.first = None
        self.trial_s = []
        self._start = None

    def install(self):
        generate = cli.generate_topology

        def timed_generate(*args, **kwargs):
            now = time.perf_counter()
            if self.first is None:
                self.first = (now, time.monotonic(), time.process_time())
                if self.probe:
                    raise FirstTrial
            self._lap(now)
            return generate(*args, **kwargs)

        cli.generate_topology = timed_generate
        for attr in RUNNERS:
            setattr(cli, attr, self._runner(getattr(cli, attr)))

    def _runner(self, fn):
        def timed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self._lap(time.perf_counter())
                self._start = None

        return timed

    def _lap(self, now):
        if self._start is not None:
            self.trial_s.append(now - self._start)
        self._start = now


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted: int, failures: list[str], missing: int = 0):
        self.attempted += attempted
        self.failed += min(attempted, missing + len(failures))
        self.messages.extend(failures[: max(0, 20 - len(self.messages))])


def check_rows(workload, rows: list[dict]) -> list[str]:
    p = workload.params
    by_load = checks.steering_load(p["n_it"], p["sinr_min"]) > p["n_rrh"]
    failures = [f for row in rows for f in checks.check_row(row, p, by_load)]
    if workload.mode == "sweep":
        failures += checks.check_sweep(rows)
    elif "brute" in p.get("algorithms", ()):
        failures += checks.check_brute(rows)
    elif workload.mode == "longterm":
        failures += checks.check_longterm(rows, p["n_et"])
    return failures


def check_solves(workload, solves) -> list[str]:
    """Recompute every Optimal solve from the channels and the topology."""
    failures = []
    for (topology, channels, division, params, *_), report, solution in solves:
        p = dict(workload.params, p_amin=params.p_amin)  # the sweep sets p_amin
        failures += checks.check_solve(
            p,
            [(q.x, q.y) for q in topology.rrh_positions],
            [(q.x, q.y) for q in topology.et_positions],
            channels.h_id,
            channels.h_et,
            sum(1 << e for e in division.fet_set),
            solution.block_values,
            report.objective,
            solution.objective_value,
            solution.primal_residual,
        )
    return failures


def run_round(workload, master_seed, clock, tally, tracer=None):
    """One CLI call; returns its wall and CPU time and its row count.

    The process's first round is timed from its first trial on: what
    precedes that is set-up.
    """
    csv_path = OUT_DIR / f"{workload.name}-{os.getpid()}.csv"
    argv = workload.argv(master_seed, str(csv_path))
    expected = workload.rows_per_round()
    first_round = clock.first is None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        cli.main(argv)
        failures = []
    except Exception:  # a crashed round is a round of failed operations
        failures = [traceback.format_exc(limit=3)]
    t1, c1 = time.perf_counter(), time.process_time()
    if first_round and clock.first is not None:
        t0, _, c0 = clock.first
    rows = []
    if csv_path.exists():
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        csv_path.unlink()
    failures += check_rows(workload, rows)
    tally.add(expected, failures, missing=max(0, expected - len(rows)))
    if tracer is not None:
        tally.add(len(tracer.solves), check_solves(workload, tracer.solves))
        tracer.solves.clear()
    return t1 - t0, c1 - c0, len(rows)


def run_panels(workload, seed, clock, tally, budget_s, tracer=None):
    """Whole panels until the next one would overrun `budget_s`.

    With a tracer every round runs twice, untraced and then traced, so the
    two sides of the tracing overhead are measured close together in time.
    Returns the untraced wall and CPU time, the trial seconds of each side
    (keyed by `traced`) and the traced rows.
    """
    wall = cpu = 0.0
    trial_s = {False: 0.0, True: 0.0}
    panels = traced_rows = 0
    start = time.perf_counter()
    while True:
        for master_seed in workload.panel_order(seed):
            for traced in (False, True) if tracer else (False,):
                if tracer:
                    tracer.enabled = traced
                n_trials = len(clock.trial_s)
                w, c, n = run_round(workload, master_seed, clock, tally, tracer if traced else None)
                trial_s[traced] += sum(clock.trial_s[n_trials:])
                if traced:
                    traced_rows += n
                else:
                    wall, cpu = wall + w, cpu + c
        panels += 1
        if (time.perf_counter() - start) * (panels + 1) / panels > budget_s:
            return wall, cpu, trial_s, traced_rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--result")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    clock = TrialClock(probe=args.probe)
    clock.install()
    if args.probe:
        try:
            cli.main(workload.argv(workload.panel_order(args.seed)[0], os.devnull))
        except FirstTrial:
            print(repr(clock.first[1]))
            return 0
        print("the CLI run never reached a trial", file=sys.stderr)
        return 1

    tally = Tally()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wall, cpu, trial_s, traced_rows = run_panels(
        workload, args.seed, clock, tally, args.seconds, tracer)
    result = {
        "first_trial_monotonic": clock.first[1],
        "trials": len(clock.trial_s),
        "trial_s": clock.trial_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "errors": [],
    }
    if tracer:
        tracer.write(OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl")
        result["errors"] = tracer.trial_sum_errors()
        layer = tracer.metrics(traced_rows)
        layer["trace.overhead_pct"] = ((trial_s[True] / trial_s[False] - 1.0) * 100.0, "%")
        layer["trace.trials"] = (tracer.n_trials, "count")
        result["per_layer"] = layer
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.messages)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
