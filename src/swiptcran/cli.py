"""Command line interface: Monte Carlo experiment runs and validation.

Subcommands `single-slot`, `sweep` and `longterm` share one config format
(see `config`); `validate` runs the invariant suite and takes no options.
All runs stream rows into a single CSV whose schema is fixed; every row
carries the config hash so files cannot silently mix settings.  Per-trial
seeds derive from the master seed by counter splitting, making row content
(bar solve timings) bit-reproducible.
"""

import argparse
import csv
import sys
import time

import numpy as np

from .beamform import MW_PER_W, GroupDivision, PowerReport, SystemParams
from .config import MODES, ConfigError, ExperimentConfig, load_config
from .division import (
    DivisionRunResult,
    Instance,
    Termination,
    algorithm1,
    algorithm2,
    baseline_all_fet,
    baseline_all_met,
    brute_force,
    solve_openings,
)
from .longterm import longterm_stage, training_stage
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
    total_op = float(np.sum(report.p_op)) * MW_PER_W
    total_pu = float(np.sum(report.p_pu)) * MW_PER_W
    return {
        "status": report.status.value,
        "objective_mw": _fmt(report.objective),
        "p_op_total_mw": _fmt(total_op),
        "p_pu_total_mw": _fmt(total_pu),
    }


def _base_row(config: ExperimentConfig) -> dict[str, str]:
    """The fields every row of a run shares; each runner builds it once."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(config_hash=config.config_hash(), mode=config.mode, trial="0", slot="0")
    return row


def _row(base: dict[str, str], **fields) -> dict[str, str]:
    return {**base, **{k: str(v) for k, v in fields.items()}}


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
    return Instance(topology, channels, params, store)


def _trial_rows(
    config: ExperimentConfig,
    base: dict[str, str],
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
        row = _row(
            base,
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
    base = _base_row(config)
    rows = []
    for trial in range(config.n_trials):
        rows += _trial_rows(config, base, trial, _trial_instance(config, trial, config.params))
    return rows, ["per-algorithm summary:"] + _summarize(rows, ("algorithm",))


def run_sweep(config: ExperimentConfig) -> tuple[list[dict[str, str]], list[str]]:
    """Rows in (sweep value, trial) order.  The instances of one draw share
    a solve store, dropped once the draw is done: an SDP no sweep value
    changes (all-FET under a `p_amin` sweep) is solved once per draw.
    Before the draw's first searches, the opening division of every search
    at every sweep value is solved as one batch into that store
    (`division.solve_openings`): the first value's trial carries those
    solves, and a row's `solve_ms` leaves its search's opening out."""
    base = _base_row(config)
    points = [(_fmt(value), config.sweep_param_watts(value)) for value in config.sweep_values]
    per_value = [[] for _ in points]
    for trial in range(config.n_trials):
        store = {}
        for i, ((label, params), value_rows) in enumerate(zip(points, per_value)):
            instance = _trial_instance(config, trial, params, store)
            if i == 0:
                # a sweep sets only powers, so every value shares the draw's channels
                draw = [Instance(instance.topology, instance.channels, p, store) for _, p in points]
                solve_openings((inst, name) for inst in draw for name in config.algorithms)
            value_rows += _trial_rows(config, base, trial, instance, config.sweep_param, label)
    rows = [row for value_rows in per_value for row in value_rows]
    summary = ["per (algorithm, sweep value) summary:"] + _summarize(
        rows, ("algorithm", "sweep_value")
    )
    return rows, summary


def _summarize_longterm(rows: list[dict[str, str]], q_longterm: int) -> list[str]:
    """Per variant: the mean over trained trials of each trial's cumulative
    feasible objective (summed in slot order), the slot infeasibility rate
    and the unsolved slot count."""
    trained = sum(r["stage"] == "training" and r["status"] == "Optimal" for r in rows)
    lines = ["long-term cumulative consumption (mean over trials, mW):"]
    for variant in LONGTERM_VARIANTS:
        if not trained:
            lines.append(f"  {variant}: no completed trials")
            continue
        statuses, per_trial = [], {}
        for r in rows:
            if r["algorithm"] == variant:
                statuses.append(r["status"])
                if r["status"] == "Optimal":
                    per_trial[r["trial"]] = per_trial.get(r["trial"], 0.0) + float(r["objective_mw"])
        n_infeasible = statuses.count("Infeasible")
        rate = n_infeasible / len(statuses) if statuses else 0.0
        n_unsolved = len(statuses) - statuses.count("Optimal") - n_infeasible
        lines.append(
            f"  {variant}: cumulative {sum(per_trial.values()) / trained:.4f} after {q_longterm} "
            f"slots, slot infeasibility rate {rate:.3f}, {n_unsolved} unsolved slots"
        )
    return lines


def run_longterm(config: ExperimentConfig) -> tuple[list[dict[str, str]], list[str]]:
    base = _base_row(config)
    rows = []
    for trial in range(config.n_trials):
        topology = _trial_topology(config, trial)
        start = time.perf_counter()
        training = training_stage(
            topology,
            derived_seed(config.seed, trial, 2),
            q_training=config.q_training,
            threshold=config.threshold,
            params=config.params,
            algorithm=config.training_algorithm,
        )
        ms = (time.perf_counter() - start) * 1e3
        trained = training.feasible
        rows.append(
            _row(
                base,
                trial=trial,
                algorithm=config.training_algorithm,
                status=training.status.value,
                objective_mw="nan",
                division_bitmask=training.frozen_division.to_bitmask() if trained else "",
                iterations=training.slots_used if trained else "",
                termination=(
                    Termination.FIXED_POINT if trained else Termination.for_failure(training.status)
                ).value,
                solve_ms=f"{ms:.3f}",
                stage="training",
            )
        )
        if not trained:
            continue

        divisions = {
            "frozen-hybrid": training.frozen_division,
            "all-fet": GroupDivision.all_fet(config.n_et),
            "all-met": GroupDivision.all_met(config.n_et),
        }
        start = time.perf_counter()
        stage = longterm_stage(
            topology,
            derived_seed(config.seed, trial, 3),
            list(divisions.values()),
            config.q_longterm,
            params=config.params,
        )
        ms = (time.perf_counter() - start) * 1e3
        per_slot = ms / max(1, len(divisions) * config.q_longterm)
        for (variant, division), reports in zip(divisions.items(), stage):
            for slot, report in enumerate(reports):
                row = _row(
                    base,
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
    return rows, _summarize_longterm(rows, config.q_longterm)


def check_output(path: str, config_hash: str) -> None:
    """Refuse an output that cannot take rows of `config_hash`: one that does
    not open for append (which creates a missing file), or whose header or
    first row is of another schema or config, or is not UTF-8 CSV text.
    Reads no further than the first row."""
    with open(path, "a+", newline="", encoding="utf-8") as fh:
        fh.seek(0)
        reader = csv.DictReader(fh)
        try:
            fieldnames, existing = reader.fieldnames, next(reader, None)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"{path}: existing file does not read as UTF-8 CSV ({exc})") from exc
        if fieldnames not in (None, list(CSV_COLUMNS)):
            raise ConfigError(f"{path}: existing file has a different schema")
        if existing is not None and existing["config_hash"] != config_hash:
            raise ConfigError(
                f"{path}: holds rows for config {existing['config_hash']}, "
                f"refusing to append config {config_hash}"
            )


def write_rows(path: str, rows: list[dict[str, str]]) -> None:
    """Create or append; appending to a file from another config is refused."""
    if rows:
        check_output(path, rows[0]["config_hash"])
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
        if fh.tell() == 0:
            writer.writeheader()
        writer.writerows(rows)


def run_validate() -> int:
    failures = 0
    for check in run_all_checks():
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
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="path to a dotted-key config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", default="results.csv", help="CSV output path")
        p.add_argument("--trials", type=int, help="number of trials override")
        p.add_argument("--algorithms", help="comma-separated algorithm list")
    # the invariant suite reads no setting, so it takes no options
    sub.add_parser("validate")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.mode == "validate":
        return run_validate()
    overrides: dict[str, object] = {"run.mode": args.mode}
    if args.seed is not None:
        overrides["run.seed"] = args.seed
    if args.trials is not None:
        overrides["run.n_trials"] = args.trials
    if args.algorithms is not None:
        overrides["run.algorithms"] = args.algorithms
    # a bad setting or output is refused before the first trial
    try:
        config = load_config(args.config, overrides)
        config_hash = config.config_hash()
        check_output(args.out, config_hash)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    runner = {
        "single-slot": run_single_slot,
        "sweep": run_sweep,
        "longterm": run_longterm,
    }[config.mode]
    rows, summary = runner(config)
    write_rows(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out} (config {config_hash})")
    for line in summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
