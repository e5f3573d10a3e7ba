"""Spans around the public functions of each swiptcran layer, patched from outside.

Each wrapper replaces a function where its caller looks it up (a module
global, a class attribute or a registry entry) and records a span: name,
start, end, parent span and trial id.  Spans stay in memory until the run
ends.  Trials are cut where the CLI calls generate_topology: a trial span
runs from one call to the next, or to the end of the CLI run, so every span
of a trial nests inside its trial span and the self times of a trial add up
to the trial's wall time.
"""

import functools
import json
import statistics
import time
from collections import defaultdict

from swiptcran import beamform, cli, config, division, longterm, sdp

ALGORITHMS = ("alg1", "alg2", "brute", "all-fet", "all-met")

# (owner, attribute, span name); the owner is where the caller looks it up
PATCHES = (
    (cli, "main", "cli.main"),
    (cli, "write_rows", "cli.write_rows"),
    (cli, "load_config", "config.load_config"),
    (config.ExperimentConfig, "config_hash", "config.config_hash"),
    (cli, "draw_channels", "topology.draw_channels"),
    (longterm, "draw_channels", "topology.draw_channels"),
    (division, "assigned_rrh", "topology.assigned_rrh"),
    (beamform, "assigned_rrh", "topology.assigned_rrh"),
    (cli, "algorithm1", "division.alg1"),
    (cli, "algorithm2", "division.alg2"),
    (cli, "brute_force", "division.brute"),
    (cli, "baseline_all_fet", "division.all-fet"),
    (cli, "baseline_all_met", "division.all-met"),
    (longterm.ALGORITHMS, "alg1", "division.alg1"),
    (longterm.ALGORITHMS, "alg2", "division.alg2"),
    (division, "update_division", "division.update_division"),
    (division, "boundary_refine", "division.boundary_refine"),
    (division, "solve_division", "beamform.solve_division"),
    (longterm, "solve_division", "beamform.solve_division"),
    (beamform, "build_sdp", "beamform.build_sdp"),
    (beamform, "solve", "sdp.solve"),
    (sdp.SdpProblem, "validate", "sdp.validate"),
    (cli, "training_stage", "longterm.training_stage"),
    (cli, "longterm_stage", "longterm.longterm_stage"),
)
RUNNERS = ("run_single_slot", "run_sweep", "run_longterm")

NAME, START, END, PARENT, TRIAL, INFO = range(6)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, trial id, info]
        self.stack = []
        self.trial = -1  # id of the open trial span; -1 between trials
        self.n_trials = 0
        self.solves = []  # (args, report, solution) of every Optimal solve_division
        self.enabled = True  # when false every wrapper calls straight through

    def _open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.trial, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _end_trial(self):
        if self.trial >= 0:
            self._close(self.spans[self.stack[-1]])
            self.trial = -1

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name == "sdp.solve":
                rec[INFO] = (out.iterations, out.status.value, out.detail.startswith("Farkas"))
            elif name == "beamform.solve_division":
                report, solution = out
                rec[INFO] = sum(1 << e for e in args[2].fet_set)
                if report.feasible:
                    self.solves.append((args, report, solution))
            return out

        return traced

    def install(self):
        for owner, attr, name in PATCHES:
            _set(owner, attr, self.wrap(name, _get(owner, attr)))
        generate = self.wrap("topology.generate_topology", cli.generate_topology)

        @functools.wraps(generate)
        def start_trial(*args, **kwargs):
            if not self.enabled:
                return generate(*args, **kwargs)
            self._end_trial()
            self.trial = self.n_trials
            self.n_trials += 1
            self._open("cli.trial")
            return generate(*args, **kwargs)

        cli.generate_topology = start_trial
        for attr in RUNNERS:
            setattr(cli, attr, self._runner(getattr(cli, attr)))

    def _runner(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open("cli.run")
            try:
                return fn(*args, **kwargs)
            finally:
                self._end_trial()
                self._close(rec)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "trial": s[TRIAL]}) + "\n")

    def self_times(self):
        """Each span's duration less the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def trial_sum_errors(self, tol_s=1e-9):
        """Trials whose spans' self times do not add up to the trial's wall time."""
        own = self.self_times()
        total = defaultdict(float)
        wall = {}
        for i, s in enumerate(self.spans):
            if s[TRIAL] >= 0:
                total[s[TRIAL]] += own[i]
            if s[NAME] == "cli.trial":
                wall[s[TRIAL]] = s[END] - s[START]
        return [f"trial {t}: self times sum to {total[t]:.9f} s, trial took {w:.9f} s"
                for t, w in wall.items() if abs(total[t] - w) > tol_s]

    def _ancestor(self, i, names):
        p = self.spans[i][PARENT]
        while p >= 0 and self.spans[p][NAME] not in names:
            p = self.spans[p][PARENT]
        return p

    def metrics(self, n_rows: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}; totals are per trial."""
        spans, own = self.spans, self.self_times()
        per = 1.0 / max(1, self.n_trials)
        dur = defaultdict(list)
        self_ms = defaultdict(float)
        idx = defaultdict(list)
        for i, s in enumerate(spans):
            dur[s[NAME]].append((s[END] - s[START]) * 1e3)
            self_ms[s[NAME].split(".")[0]] += own[i] * 1e3
            idx[s[NAME]].append(i)

        def total(name):
            return sum(dur[name]) * per

        solve_info = [spans[i][INFO] for i in idx["sdp.solve"]]
        iters = [info[0] for info in solve_info]
        solve_ms = dur["sdp.solve"]
        alg_names = {f"division.{a}" for a in ALGORITHMS}
        masks = defaultdict(set)
        alg_solves = defaultdict(int)
        boundary = training = stage = 0
        for i in idx["beamform.solve_division"]:
            a = self._ancestor(i, alg_names)
            if a >= 0:
                masks[a].add(spans[i][INFO])
                alg_solves[spans[a][NAME]] += 1
            boundary += self._ancestor(i, {"division.boundary_refine"}) >= 0
            training += self._ancestor(i, {"longterm.training_stage"}) >= 0
            stage += self._ancestor(i, {"longterm.longterm_stage"}) >= 0
        distinct = defaultdict(int)
        for a, m in masks.items():
            distinct[spans[a][NAME]] += len(m)
        div_solves = sum(alg_solves.values())
        solve_division_self = sum(own[i] for i in idx["beamform.solve_division"]) * 1e3

        m = {
            "sdp.solves": (len(solve_ms) * per, "solves/trial"),
            "sdp.solve_ms_p50": (statistics.median(solve_ms), "ms"),
            "sdp.solve_ms_tail": (statistics.quantiles(solve_ms, n=10)[-1], "ms"),
            "sdp.iters_p50": (statistics.median(iters), "count"),
            "sdp.iters_max": (max(iters), "count"),
            "sdp.ms_per_iter": (sum(solve_ms) / sum(iters), "ms"),
            "sdp.validate_ms": (total("sdp.validate"), "ms/trial"),
            "sdp.certified_infeasible": (sum(info[2] for info in solve_info) * per, "solves/trial"),
            "beamform.build_sdp_ms": (total("beamform.build_sdp"), "ms/trial"),
            "beamform.solve_division_calls": (len(idx["beamform.solve_division"]) * per, "calls/trial"),
            "beamform.solve_division_self_ms": (solve_division_self * per, "ms/trial"),
        }
        for a in ALGORITHMS:
            name = f"division.{a}"
            m[f"{name}_ms"] = (total(name), "ms/trial")
            m[f"{name}_solves"] = (alg_solves[name] * per, "solves/trial")
            m[f"{name}_distinct"] = (distinct[name] * per, "divisions/trial")
        stage_ms = sum(dur["longterm.longterm_stage"])
        m.update({
            "division.useful_ratio": (sum(distinct.values()) / div_solves if div_solves else 1.0, "ratio"),
            "division.rounds": (len(idx["division.update_division"]) * per, "calls/trial"),
            "division.boundary_solves": (boundary * per, "solves/trial"),
            "division.self_ms": (self_ms["division"] * per, "ms/trial"),
            "longterm.training_ms": (total("longterm.training_stage"), "ms/trial"),
            "longterm.training_solves": (training * per, "solves/trial"),
            "longterm.stage_ms_per_slot": (stage_ms / stage if stage else 0.0, "ms"),
            "topology.generate_ms": (total("topology.generate_topology"), "ms/trial"),
            "topology.draw_channels_ms": (total("topology.draw_channels"), "ms/trial"),
            "topology.assigned_rrh_calls": (len(idx["topology.assigned_rrh"]) * per, "calls/trial"),
            "cli.self_ms": (self_ms["cli"] * per, "ms/trial"),
            "cli.write_ms": (total("cli.write_rows"), "ms/trial"),
            "cli.rows": (n_rows * per, "rows/trial"),
            "config.load_ms": (statistics.mean(dur["config.load_config"]), "ms"),
        })
        return m
