"""Command line interface: Monte Carlo experiment runs and validation.

Subcommands `single-slot`, `sweep`, `longterm`, and `validate` share one
config format (see `config`).  All runs stream rows into a single CSV whose
schema is fixed; every row carries the config hash so files cannot silently
mix settings.  Per-trial seeds derive from the master seed by counter
splitting, making row content (bar solve timings) bit-reproducible.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from .beamform import GroupDivision, PowerReport, SystemParams
from .config import ConfigError, ExperimentConfig, load_config
from .division import (
    DivisionRunResult,
    Instance,
    Termination,
    algorithm1,
    algorithm2,
    baseline_all_fet,
    baseline_all_met,
    brute_force,
)
from .longterm import TrainingFailure, longterm_stage, training_stage
from .sdp import SdpStatus
from .topology import draw_channels, generate_topology
from .validate import run_all_checks

CSV_COLUMNS = (
    "config_hash",
    "mode",
    "trial",
    "slot",
    "sweep_param",
    "sweep_value",
    "algorithm",
    "status",
    "objective_mw",
    "p_op_total_mw",
    "p_pu_total_mw",
    "division_bitmask",
    "iterations",
    "termination",
    "solve_ms",
    "stage",
)

LONGTERM_VARIANTS = ("frozen-hybrid", "all-fet", "all-met")


def derived_seed(*counters: int) -> int:
    """Counter-based seed splitting; extending a run never reseeds old trials."""
    state = np.random.SeedSequence([int(c) for c in counters]).generate_state(1, np.uint64)
    return int(state[0] >> 1)


def _fmt(value: float) -> str:
    return repr(float(value))


def _report_fields(report: PowerReport) -> dict[str, str]:
    total_op = float(np.sum(report.p_op)) * 1e3
    total_pu = float(np.sum(report.p_pu)) * 1e3
    return {
        "status": report.status.value,
        "objective_mw": _fmt(report.objective),
        "p_op_total_mw": _fmt(total_op),
        "p_pu_total_mw": _fmt(total_pu),
    }


def _base_row(config: ExperimentConfig, **overrides) -> dict[str, str]:
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(config_hash=config.config_hash(), mode=config.mode, trial="0", slot="0")
    row.update({k: str(v) for k, v in overrides.items()})
    return row


def _run_algorithm(name: str, instance: Instance) -> DivisionRunResult:
    # built per call: the tracer wraps these names as module globals, and a
    # table built at import would keep the unwrapped functions
    searches = {
        "alg1": algorithm1,
        "alg2": algorithm2,
        "brute": brute_force,
        "all-fet": baseline_all_fet,
        "all-met": baseline_all_met,
    }
    return searches[name](instance)


def _trial_topology(config: ExperimentConfig, trial: int):
    return generate_topology(
        seed=derived_seed(config.seed, trial, 0),
        n_rrh=config.n_rrh,
        n_it=config.n_it,
        n_et=config.n_et,
        inter_rrh_distance=config.inter_rrh_distance,
    )


def _trial_instance(
    config: ExperimentConfig, trial: int, params: SystemParams, store: dict | None = None
) -> Instance:
    """The trial's draw under `params`, shared by every algorithm of the trial."""
    topology = _trial_topology(config, trial)
    channels = draw_channels(
        topology, seed=derived_seed(config.seed, trial, 1), slot=0, alpha_abs=params.alpha_abs
    )
    return Instance(topology, channels, params, config.solver, store)


def _trial_rows(
    config: ExperimentConfig,
    trial: int,
    instance: Instance,
    sweep_param: str = "",
    sweep_value: str = "",
) -> list[dict[str, str]]:
    rows = []
    for name in config.algorithms:
        start = time.perf_counter()
        result = _run_algorithm(name, instance)
        ms = (time.perf_counter() - start) * 1e3
        row = _base_row(
            config,
            trial=trial,
            slot=0,
            sweep_param=sweep_param,
            sweep_value=sweep_value,
            algorithm=name,
            division_bitmask=result.final_division.to_bitmask(),
            iterations=result.iterations,
            termination=result.termination.value,
            solve_ms=f"{ms:.3f}",
        )
        row.update(_report_fields(result.report))
        rows.append(row)
    return rows


def _summarize(rows: list[dict[str, str]], keys: tuple[str, ...]) -> list[str]:
    """Mean feasible objective, infeasibility rate and unsolved count per key group.

    Only certified `Infeasible` rows count towards the infeasibility rate;
    rows whose solve did not converge are counted as unsolved.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    lines = []
    for key in sorted(groups):
        members = groups[key]
        feasible = [float(r["objective_mw"]) for r in members if r["status"] == "Optimal"]
        mean = float(np.mean(feasible)) if feasible else float("nan")
        n_infeasible = sum(1 for r in members if r["status"] == "Infeasible")
        rate = n_infeasible / len(members)
        n_unsolved = len(members) - len(feasible) - n_infeasible
        label = ", ".join(f"{k}={v}" for k, v in zip(keys, key))
        lines.append(
            f"  {label}: mean objective {mean:.4f} mW over {len(feasible)} feasible "
            f"trials, infeasibility rate {rate:.3f}, {n_unsolved} unsolved"
        )
    return lines


def run_single_slot(config: ExperimentConfig) -> tuple[list[dict[str, str]], list[str]]:
    rows = []
    for trial in range(config.n_trials):
        rows += _trial_rows(config, trial, _trial_instance(config, trial, config.params))
    return rows, ["per-algorithm summary:"] + _summarize(rows, ("algorithm",))


def run_sweep(config: ExperimentConfig) -> tuple[list[dict[str, str]], list[str]]:
    """Rows in (sweep value, trial) order.  The instances of one draw share
    a solve store, dropped once the draw is done: an SDP no sweep value
    changes (all-FET under a `p_amin` sweep) is solved once per draw."""
    points = [(_fmt(value), config.sweep_param_watts(value)) for value in config.sweep_values]
    per_value = [[] for _ in points]
    for trial in range(config.n_trials):
        store = {}
        for (label, params), value_rows in zip(points, per_value):
            instance = _trial_instance(config, trial, params, store)
            value_rows += _trial_rows(config, trial, instance, config.sweep_param, label)
    rows = [row for value_rows in per_value for row in value_rows]
    summary = ["per (algorithm, sweep value) summary:"] + _summarize(
        rows, ("algorithm", "sweep_value")
    )
    return rows, summary


def run_longterm(config: ExperimentConfig) -> tuple[list[dict[str, str]], list[str]]:
    rows = []
    cumulative = {v: 0.0 for v in LONGTERM_VARIANTS}
    counted = {v: 0 for v in LONGTERM_VARIANTS}
    infeasible_slots = {v: 0 for v in LONGTERM_VARIANTS}
    unsolved_slots = {v: 0 for v in LONGTERM_VARIANTS}

    for trial in range(config.n_trials):
        topology = _trial_topology(config, trial)
        train_seed = derived_seed(config.seed, trial, 2)
        lt_seed = derived_seed(config.seed, trial, 3)
        start = time.perf_counter()
        try:
            training = training_stage(
                topology,
                train_seed,
                q_training=config.q_training,
                threshold=config.threshold,
                params=config.params,
                algorithm=config.training_algorithm,
                options=config.solver,
            )
        except TrainingFailure as exc:
            ms = (time.perf_counter() - start) * 1e3
            rows.append(
                _base_row(
                    config,
                    trial=trial,
                    algorithm=config.training_algorithm,
                    status=exc.status.value,
                    objective_mw="nan",
                    termination=Termination.for_failure(exc.status).value,
                    solve_ms=f"{ms:.3f}",
                    stage="training",
                )
            )
            continue
        ms = (time.perf_counter() - start) * 1e3
        rows.append(
            _base_row(
                config,
                trial=trial,
                algorithm=config.training_algorithm,
                status="Optimal",
                objective_mw="nan",
                division_bitmask=training.frozen_division.to_bitmask(),
                iterations=training.slots_used,
                termination="FixedPoint",
                solve_ms=f"{ms:.3f}",
                stage="training",
            )
        )

        divisions = {
            "frozen-hybrid": training.frozen_division,
            "all-fet": GroupDivision.all_fet(config.n_et),
            "all-met": GroupDivision.all_met(config.n_et),
        }
        start = time.perf_counter()
        stage = longterm_stage(
            topology,
            lt_seed,
            list(divisions.values()),
            config.q_longterm,
            params=config.params,
            options=config.solver,
        )
        ms = (time.perf_counter() - start) * 1e3
        per_slot = ms / max(1, len(divisions) * config.q_longterm)
        for (variant, division), reports in zip(divisions.items(), stage):
            running = 0.0
            for slot, report in enumerate(reports):
                row = _base_row(
                    config,
                    trial=trial,
                    slot=slot,
                    algorithm=variant,
                    division_bitmask=division.to_bitmask(),
                    iterations=1,
                    solve_ms=f"{per_slot:.3f}",
                    stage="longterm",
                )
                row.update(_report_fields(report))
                rows.append(row)
                if report.feasible:
                    running += report.objective
                elif report.status is SdpStatus.INFEASIBLE:
                    infeasible_slots[variant] += 1
                else:
                    unsolved_slots[variant] += 1
            cumulative[variant] += running
            counted[variant] += 1

    summary = ["long-term cumulative consumption (mean over trials, mW):"]
    for variant in LONGTERM_VARIANTS:
        if counted[variant] == 0:
            summary.append(f"  {variant}: no completed trials")
            continue
        final = cumulative[variant] / counted[variant]
        total_slots = counted[variant] * config.q_longterm
        rate = infeasible_slots[variant] / total_slots if total_slots else 0.0
        summary.append(
            f"  {variant}: cumulative {final:.4f} after {config.q_longterm} slots, "
            f"slot infeasibility rate {rate:.3f}, {unsolved_slots[variant]} unsolved slots"
        )
    return rows, summary


def write_rows(path: str, rows: list[dict[str, str]]) -> None:
    """Create or append; appending to a file from another config is refused."""
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    if exists and rows:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(CSV_COLUMNS):
                raise ConfigError(f"{path}: existing file has a different schema")
            for existing in reader:
                if existing["config_hash"] != rows[0]["config_hash"]:
                    raise ConfigError(
                        f"{path}: holds rows for config {existing['config_hash']}, "
                        f"refusing to append config {rows[0]['config_hash']}"
                    )
                break
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
        if not exists:
            writer.writeheader()
        writer.writerows(rows)


def run_validate(config: ExperimentConfig) -> int:
    failures = 0
    for check in run_all_checks(config.solver):
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{verdict} {check.name}: {check.detail}")
        failures += 0 if check.passed else 1
    print(f"{failures} failures" if failures else "all checks passed")
    return 2 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swiptcran",
        description="Joint beamforming and energy-user division experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("single-slot", "sweep", "longterm", "validate"):
        p = sub.add_parser(mode)
        p.add_argument("--config", help="path to a dotted-key config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", default="results.csv", help="CSV output path")
        p.add_argument("--trials", type=int, help="number of trials override")
        p.add_argument("--algorithms", help="comma-separated algorithm list")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides: dict[str, object] = {"run.mode": args.mode}
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if args.trials is not None:
        overrides["run.n_trials"] = args.trials
    if args.algorithms is not None:
        overrides["run.algorithms"] = args.algorithms
    try:
        config = load_config(args.config, overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if config.mode == "validate":
        return run_validate(config)

    runner = {
        "single-slot": run_single_slot,
        "sweep": run_sweep,
        "longterm": run_longterm,
    }[config.mode]
    rows, summary = runner(config)
    try:
        write_rows(args.out, rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {args.out} (config {config.config_hash()})")
    for line in summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
