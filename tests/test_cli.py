"""Tests for the command line driver and CSV output discipline."""

import csv
import os
from pathlib import Path

import pytest

from oracles import problem_content
import swiptcran.beamform as beamform
import swiptcran.cli as cli
import swiptcran.division as division_module
import swiptcran.longterm as longterm_module
import swiptcran.sdp as sdp_module
from swiptcran.beamform import GroupDivision, unsolved_report
from swiptcran.cli import (
    CSV_COLUMNS,
    derived_seed,
    main,
    write_rows,
)
from swiptcran.config import ALGORITHM_CHOICES, ConfigError, ExperimentConfig, load_config
from swiptcran.division import (
    OPENINGS,
    DivisionRunResult,
    Instance,
    algorithm1,
    algorithm2,
    baseline_all_fet,
    baseline_all_met,
)
from swiptcran.longterm import ALGORITHMS, training_stage
from swiptcran.validate import CheckResult

SMALL_CONF = """
topology.n_it = 3
topology.n_et = 3
run.n_trials = 2
run.seed = 42
run.algorithms = alg2, all-met
"""


@pytest.fixture
def small_conf(tmp_path):
    path = tmp_path / "small.conf"
    path.write_text(SMALL_CONF, encoding="utf-8")
    return str(path)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _stable(row):
    return {k: v for k, v in row.items() if k != "solve_ms"}


class TestDerivedSeed:
    def test_deterministic_and_distinct(self):
        assert derived_seed(3, 1, 0) == derived_seed(3, 1, 0)
        seeds = {derived_seed(3, trial, stream) for trial in range(8) for stream in range(4)}
        assert len(seeds) == 32

    def test_fits_signed_range(self):
        for counters in ((0,), (1, 2, 3), (2**31, 5)):
            s = derived_seed(*counters)
            assert 0 <= s < 2**63


class TestSingleSlotRows:
    def test_row_schema_and_content(self, small_conf):
        config = load_config(small_conf)
        rows, summary = cli.run_single_slot(config)
        assert len(rows) == 2 * 2  # trials x algorithms
        for row in rows:
            assert tuple(row.keys()) == CSV_COLUMNS
            assert row["config_hash"] == config.config_hash()
            assert row["status"] in ("Optimal", "Infeasible")
            assert row["algorithm"] in ("alg2", "all-met")
            float(row["objective_mw"])
            assert 0 <= int(row["division_bitmask"]) < 2**3
            float(row["solve_ms"])
        assert any("mean objective" in line for line in summary)

    def test_objective_floats_roundtrip(self, small_conf):
        config = load_config(small_conf)
        rows, _ = cli.run_single_slot(config)
        for row in rows:
            value = float(row["objective_mw"])
            assert repr(value) == row["objective_mw"]

    def test_not_converged_rows_are_not_infeasible(self, small_conf, monkeypatch):
        monkeypatch.setattr(sdp_module, "MAX_ITERS", 5)
        config = load_config(small_conf)
        rows, summary = cli.run_single_slot(config)
        for row in rows:
            assert row["status"] == "MaxIterations"
            assert row["termination"] == "NotConverged"
        assert all("infeasibility rate 0.000, 2 unsolved" in line for line in summary[1:])

    def test_alpha_abs_reaches_channel_draws(self, tmp_path):
        # all-MET floors ignore alpha_abs, so only the fading draw can move them
        objectives = []
        for alpha in (2.5, 3.0):
            conf = tmp_path / f"alpha-{alpha}.conf"
            conf.write_text(SMALL_CONF + f"system.alpha_abs = {alpha}\n", encoding="utf-8")
            config = load_config(str(conf), {"run.algorithms": "all-met", "run.n_trials": 1})
            rows, _ = cli.run_single_slot(config)
            assert rows[0]["status"] == "Optimal"
            objectives.append(rows[0]["objective_mw"])
        assert objectives[0] != objectives[1]


class TestMainSingleSlot:
    def test_repeat_runs_bit_identical(self, small_conf, tmp_path, capsys):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["single-slot", "--config", small_conf, "--out", out_a]) == 0
        assert main(["single-slot", "--config", small_conf, "--out", out_b]) == 0
        rows_a = [_stable(r) for r in _read_rows(out_a)]
        rows_b = [_stable(r) for r in _read_rows(out_b)]
        assert rows_a == rows_b
        assert "wrote 4 rows" in capsys.readouterr().out

    def test_cli_overrides_take_effect(self, small_conf, tmp_path):
        out = str(tmp_path / "o.csv")
        assert main(
            ["single-slot", "--config", small_conf, "--out", out, "--trials", "1",
             "--algorithms", "all-met"]
        ) == 0
        rows = _read_rows(out)
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "all-met"

    def test_missing_config_file_is_config_error(self, tmp_path):
        out = str(tmp_path / "o.csv")
        assert main(["single-slot", "--config", "/nonexistent.conf", "--out", out]) == 1

    def test_bad_config_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("run.warp_speed = 9\n", encoding="utf-8")
        assert main(["single-slot", "--config", str(path)]) == 1

    BAD_VALUES = {
        "topology.inter_rrh_distance = -1": "inter_rrh_distance must be positive",
        "run.threshold = 1.5": "run.threshold must lie in [0, 1]",
        # non-finite values would crash a trial or run every solve on nonsense
        "topology.inter_rrh_distance = Infinity": "inter_rrh_distance must be positive and finite",
        "system.p_en = [NaN, 2.5, 3.0]": "p_en must be finite",
        "system.noise_power = Infinity": "noise_power must be finite",
        "system.beta = Infinity": "beta must be finite",
        "system.sinr_min = Infinity": "sinr_min must be finite",
        "system.alpha_abs = Infinity": "alpha_abs must be finite",
        # dBm values with no finite power in watts
        'system.p_amin_dbm = "abc"': "'system.p_amin_dbm'",
        "system.p_amin_dbm = [1, 2]": "'system.p_amin_dbm'",
        "system.p_amin_dbm = 4000": "'system.p_amin_dbm'",
        # a value of the wrong type names its key; a bool is not a number
        'system.sinr_min = "abc"': "'system.sinr_min': expected a number",
        'topology.inter_rrh_distance = "abc"': "'topology.inter_rrh_distance': expected a number",
        "system.eta = [1]": "'system.eta': expected a number",
        'run.threshold = "abc"': "'run.threshold': expected a number",
        "system.beta = true": "'system.beta': expected a number",
    }

    @pytest.mark.parametrize("line", BAD_VALUES)
    def test_bad_config_value_exits_before_any_trial(self, tmp_path, capsys, line):
        path = tmp_path / "bad.conf"
        path.write_text(f"topology.n_it = 3\nrun.n_trials = 1\n{line}\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["longterm", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert self.BAD_VALUES[line] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param, value",
        [
            ("p_amin_dbm", -25),  # below p_fmin
            ("p_fmin_dbm", -10),  # above p_amin
            ("p_amin_dbm", "Infinity"),
            ("p_amin_dbm", 4000),  # overflows in watts
        ],
    )
    def test_bad_sweep_value_exits_before_any_trial(self, tmp_path, capsys, param, value):
        path = tmp_path / "bad.conf"
        path.write_text(
            f"topology.n_it = 3\nrun.n_trials = 1\nsweep.param = {param}\nsweep.values = [{value}]\n",
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: sweep.values" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["single-slot", "longterm"])
    def test_unread_bad_sweep_value_still_loads(self, mode):
        # only a sweep builds its points; other modes never read sweep.values
        config = load_config(None, {"run.mode": mode, "sweep.values": [-25]})
        assert config.sweep_values == (-25.0,)

    @pytest.mark.parametrize("algorithms", ["all-met,all-met", ""])
    def test_repeated_or_empty_algorithms_exit_before_any_trial(
        self, small_conf, tmp_path, capsys, algorithms
    ):
        # a repeat would count each trial twice in the summary; none would write no rows
        out = tmp_path / "o.csv"
        assert main(
            ["single-slot", "--config", small_conf, "--out", str(out), "--algorithms", algorithms]
        ) == 1
        assert "run.algorithms must be nonempty without repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "division.max_iters = 50",
            "division.brute_force_cap = 12",
            "division.poor_channel_factor = 0.05",
            "division.boundary_band = 0.05",
        ],
    )
    def test_division_key_exits_before_any_trial(self, tmp_path, capsys, line):
        # the division heuristics are constants; even their own values are refused
        path = tmp_path / "bad.conf"
        path.write_text(f"topology.n_it = 3\nrun.n_trials = 1\n{line}\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["longterm", "--config", str(path), "--out", str(out)]) == 1
        assert "unknown config section 'division'" in capsys.readouterr().err
        assert not out.exists()


class TestWriteRows:
    def _rows(self, config):
        rows, _ = cli.run_single_slot(config)
        return rows

    def test_append_same_config_accumulates(self, small_conf, tmp_path):
        config = load_config(small_conf)
        rows = self._rows(config)
        path = str(tmp_path / "r.csv")
        write_rows(path, rows)
        write_rows(path, rows)
        assert len(_read_rows(path)) == 2 * len(rows)

    def test_append_other_config_refused(self, small_conf, tmp_path):
        config = load_config(small_conf)
        other = load_config(small_conf, overrides={"run.seed": 43})
        path = str(tmp_path / "r.csv")
        write_rows(path, self._rows(config))
        with pytest.raises(ConfigError, match="refusing to append"):
            write_rows(path, self._rows(other))

    def test_append_foreign_schema_refused(self, small_conf, tmp_path):
        config = load_config(small_conf)
        path = tmp_path / "r.csv"
        path.write_text("first,second\n1,2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="different schema"):
            write_rows(str(path), self._rows(config))


class TestOutputCheckedFirst:
    """An output that cannot take the run's rows is refused before any trial."""

    @pytest.fixture(autouse=True)
    def _no_trials(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "generate_topology", refused)

    @pytest.mark.parametrize(
        "text, message",
        [
            (",".join(CSV_COLUMNS) + "\n" + "0" * 12 + ",single-slot" + "," * (len(CSV_COLUMNS) - 2) + "\n",
             "refusing to append"),
            ("first,second\n1,2\n", "different schema"),
        ],
        ids=["other-config", "other-schema"],
    )
    def test_incompatible_csv(self, small_conf, tmp_path, capsys, text, message):
        out = tmp_path / "o.csv"
        out.write_text(text, encoding="utf-8")
        assert main(["single-slot", "--config", small_conf, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert "Traceback" not in err
        assert out.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe\x00", b"x" * (1 << 18) + b"\n"], ids=["not-utf8", "field-over-csv-limit"]
    )
    def test_unreadable_csv(self, small_conf, tmp_path, capsys, data):
        out = tmp_path / "o.csv"
        out.write_bytes(data)
        assert main(["single-slot", "--config", small_conf, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "does not read as UTF-8 CSV" in err
        assert "Traceback" not in err
        assert out.read_bytes() == data

    def test_missing_directory(self, small_conf, tmp_path, capsys):
        out = tmp_path / "missing" / "o.csv"
        assert main(["single-slot", "--config", small_conf, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "Traceback" not in err
        assert not out.parent.exists()


@pytest.mark.parametrize("n_it, noted", [(4, True), (3, False)])
def test_infeasible_load_is_noted(tmp_path, capsys, n_it, noted):
    # 4 ITs at 13 dB need a steering load of 4 * 20/21 = 3.81 from 3 RRHs
    conf = tmp_path / "load.conf"
    conf.write_text(f"topology.n_it = {n_it}\nrun.n_trials = 1\nrun.algorithms = all-fet\n",
                    encoding="utf-8")
    assert main(["single-slot", "--config", str(conf), "--out", str(tmp_path / "o.csv")]) == 0
    captured = capsys.readouterr()
    notes = [line for line in captured.err.splitlines() if line.startswith("note:")]
    assert len(notes) == (1 if noted else 0)
    if noted:
        assert "A note on the default scenario" in notes[0]
        assert "3.81 >= 3 RRHs" in notes[0]
    assert "note:" not in captured.out
    assert [r["status"] for r in _read_rows(tmp_path / "o.csv")] == ["Infeasible" if noted else "Optimal"]


def test_out_to_devnull_runs(small_conf, capsys):
    assert main(["single-slot", "--config", small_conf, "--out", os.devnull, "--trials", "1"]) == 0
    assert f"to {os.devnull}" in capsys.readouterr().out


class TestSweep:
    def test_single_point_sweep_matches_single_slot(self, tmp_path):
        base = """
        topology.n_it = 3
        topology.n_et = 3
        run.n_trials = 2
        run.seed = 7
        run.algorithms = alg2
        """
        single = tmp_path / "single.conf"
        single.write_text(base + "system.p_amin_dbm = -17\n", encoding="utf-8")
        sweep = tmp_path / "sweep.conf"
        sweep.write_text(
            base + "sweep.param = p_amin_dbm\nsweep.values = [-17]\n", encoding="utf-8"
        )
        out_single = str(tmp_path / "single.csv")
        out_sweep = str(tmp_path / "sweep.csv")
        assert main(["single-slot", "--config", str(single), "--out", out_single]) == 0
        assert main(["sweep", "--config", str(sweep), "--out", out_sweep]) == 0
        a = [r["objective_mw"] for r in _read_rows(out_single)]
        b = [r["objective_mw"] for r in _read_rows(out_sweep)]
        assert a == b

    def test_sweep_rows_tag_parameter(self, tmp_path):
        conf = tmp_path / "s.conf"
        conf.write_text(
            SMALL_CONF + "sweep.param = p_amin_dbm\nsweep.values = [-20, -17]\n",
            encoding="utf-8",
        )
        config = load_config(str(conf), overrides={"run.mode": "sweep"})
        rows, _ = cli.run_sweep(config)
        assert len(rows) == 2 * 2 * 2  # values x trials x algorithms
        assert {row["sweep_param"] for row in rows} == {"p_amin_dbm"}
        assert {row["sweep_value"] for row in rows} == {"-20.0", "-17.0"}


def _count_batches(monkeypatch) -> list[list[tuple]]:
    """Record the content of every problem of every `sdp.solve_batch` call;
    a single solve reaches it too, through `sdp.solve`."""
    batches = []
    real = sdp_module.solve_batch

    def counted(problems):
        problems = list(problems)
        batches.append([problem_content(p) for p in problems])
        return real(problems)

    monkeypatch.setattr(sdp_module, "solve_batch", counted)
    return batches


class TestSweepStore:
    """The sweep values of one draw share a solve store."""

    BASE = {
        "run.mode": "sweep", "topology.n_it": 3, "topology.n_et": 7, "run.n_trials": 2,
        "run.seed": 4, "run.algorithms": "alg1, alg2, all-fet, all-met",
    }

    def _config(self, param, values):
        return load_config(None, {**self.BASE, "sweep.param": param, "sweep.values": values})

    def _sweep(self, param, values):
        return cli.run_sweep(self._config(param, values))[0]

    @staticmethod
    def _all_fet_keys(config) -> set[tuple]:
        """The content of the all-FET SDP at each (draw, sweep value)."""
        keys = set()
        for trial in range(config.n_trials):
            for value in config.sweep_values:
                inst = cli._trial_instance(config, trial, config.sweep_param_watts(value))
                division = GroupDivision.all_fet(config.n_et)
                problem = beamform.build_sdp(inst.topology, inst.channels, division, inst.params)
                keys.add(problem_content(problem))
        return keys

    def test_p_amin_sweep_solves_all_fet_once_per_draw(self, monkeypatch):
        values = [-20, -18, -17, -15]
        all_fet = self._all_fet_keys(self._config("p_amin_dbm", values))
        batches = _count_batches(monkeypatch)
        rows = self._sweep("p_amin_dbm", values)
        # one per draw, not one per (draw, value)
        assert sum(key in all_fet for batch in batches for key in batch) == 2
        order = [(r["sweep_value"], r["trial"]) for r in rows]
        assert order == sorted(order, key=lambda vt: (values.index(float(vt[0])), vt[1]))
        fresh = [row for v in values for row in self._sweep("p_amin_dbm", [v])]
        assert len(rows) == len(fresh) == 2 * 4 * 4
        for a, b in zip(rows, fresh):
            # the hash covers sweep.values, which differ between the runs
            assert {**_stable(a), "config_hash": ""} == {**_stable(b), "config_hash": ""}

    @pytest.mark.parametrize(
        "param, values", [("p_fmin_dbm", [-24, -22, -20, -18]), ("noise_power_dbm", [-42, -41, -40, -39])]
    )
    def test_a_changed_rhs_is_solved_again(self, monkeypatch, param, values):
        all_fet = self._all_fet_keys(self._config(param, values))
        batches = _count_batches(monkeypatch)
        self._sweep(param, values)
        assert sum(key in all_fet for batch in batches for key in batch) == 2 * 4


class TestOpeningBatch:
    """Each sweep draw and each training solves its searches' openings as
    one batch, with every result as the searches give alone."""

    CONF_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "conf"

    def test_sweep_panel(self, monkeypatch):
        """The benchmark's sweep panel: master seeds 0-7, one draw each."""
        batches = _count_batches(monkeypatch)
        openings, keys, runs = [], [], []
        for seed in range(8):
            config = load_config(
                str(self.CONF_DIR / "sweep-heuristics.conf"),
                {"run.mode": "sweep", "run.seed": seed, "run.n_trials": 1},
            )
            batches.clear()
            rows = cli.run_sweep(config)[0]
            openings.append(len(batches[0]))
            keys += [key for batch in batches for key in batch]
            runs.append((config, rows))
        assert openings == [5, 5, 5, 5, 9, 9, 5, 5]
        assert len(keys) == len(set(keys)) == 103
        searches = {"alg1": algorithm1, "alg2": algorithm2,
                    "all-fet": baseline_all_fet, "all-met": baseline_all_met}
        for config, rows in runs:
            assert len(rows) == 4 * 4
            for row in rows:
                params = config.sweep_param_watts(float(row["sweep_value"]))
                result = searches[row["algorithm"]](cli._trial_instance(config, 0, params))
                assert row["division_bitmask"] == str(result.final_division.to_bitmask())
                assert row["iterations"] == str(result.iterations)
                assert row["termination"] == result.termination.value
                report = cli._report_fields(result.report)
                assert {k: row[k] for k in report} == report

    def test_sweep_panel_builds_only_what_it_solves(self, monkeypatch):
        """The benchmark's sweep panel, master seeds 0-7: each SDP is built
        once, to be solved, and every sweep value's trial instance finds its
        searches' openings in the draw's store (103 builds for 103 solves;
        keying built problems took 181 builds)."""
        instances, builds = [], []
        real_build = beamform.build_sdp

        class Recorded(Instance):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                instances.append(self)

        def counted(topology, channels, division, params):
            builds.append(division)
            return real_build(topology, channels, division, params)

        monkeypatch.setattr(cli, "Instance", Recorded)
        monkeypatch.setattr(beamform, "build_sdp", counted)
        batches = _count_batches(monkeypatch)
        for seed in range(8):
            config = load_config(
                str(self.CONF_DIR / "sweep-heuristics.conf"),
                {"run.mode": "sweep", "run.seed": seed, "run.n_trials": 1},
            )
            instances.clear()
            cli.run_sweep(config)
            # value 0's trial instance, an opening instance per value, the other values' trial instances
            assert len(instances) == 2 * len(config.sweep_values)
            trial = [instances[0], *instances[1 + len(config.sweep_values):]]
            for inst in trial:
                assert inst.store is instances[0].store
                for name in config.algorithms:
                    opening = OPENINGS[name](inst)
                    assert beamform.sdp_key(inst.topology, inst.channels, opening, inst.params) in inst.store
        solved = [content for batch in batches for content in batch]
        assert len(builds) == len(solved) == len(set(solved)) == 103

    def test_training(self, monkeypatch):
        """The benchmark's long-term config at master seed 0: of 32 solves,
        the 10 slot openings are one batch."""
        config = load_config(
            str(self.CONF_DIR / "longterm.conf"), {"run.mode": "longterm", "run.seed": 0, "run.n_trials": 1}
        )
        batches = _count_batches(monkeypatch)
        training_stage(
            cli._trial_topology(config, 0),
            derived_seed(config.seed, 0, 2),
            q_training=config.q_training,
            threshold=config.threshold,
            params=config.params,
            algorithm=config.training_algorithm,
        )
        sizes = [len(batch) for batch in batches]
        assert sum(sizes) == 32
        assert sizes == [10] + [1] * 22


class TestLongterm:
    def test_row_layout(self, tmp_path):
        conf = tmp_path / "lt.conf"
        conf.write_text(
            """
            topology.n_it = 3
            topology.n_et = 3
            run.n_trials = 1
            run.seed = 11
            run.q_training = 2
            run.q_longterm = 2
            """,
            encoding="utf-8",
        )
        config = load_config(str(conf), overrides={"run.mode": "longterm"})
        rows, summary = cli.run_longterm(config)
        training = [r for r in rows if r["stage"] == "training"]
        longterm = [r for r in rows if r["stage"] == "longterm"]
        assert len(training) == 1
        assert len(longterm) == 3 * 2  # variants x slots
        t = training[0]
        assert t["algorithm"] == "alg2"
        assert t["objective_mw"] == "nan"
        assert t["termination"] in ("FixedPoint", "Infeasible")
        for row in longterm:
            assert row["algorithm"] in cli.LONGTERM_VARIANTS
            assert row["iterations"] == "1"
            assert row["termination"] == ""
            assert int(row["slot"]) in (0, 1)
        assert any("cumulative" in line for line in summary)
        variants_seen = {r["algorithm"] for r in longterm}
        assert variants_seen == set(cli.LONGTERM_VARIANTS)

    def test_algorithms_setting_does_not_split_the_csv(self, tmp_path):
        # longterm never reads run.algorithms, so its rows append to one file
        conf = tmp_path / "lt.conf"
        conf.write_text(
            "topology.n_it = 3\ntopology.n_et = 3\nrun.q_training = 1\nrun.q_longterm = 1\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "lt.csv")
        argv = ["longterm", "--config", str(conf), "--trials", "1", "--out", out]
        assert main(argv) == 0
        assert main(argv + ["--algorithms", "all-met"]) == 0
        rows = _read_rows(out)
        assert len(rows) == 2 * (1 + 3) and len({r["config_hash"] for r in rows}) == 1

    def test_frozen_baseline_division_is_solved_once(self, monkeypatch):
        # master seed 1 (the first of seeds 0-11 at this config to do so)
        # freezes bitmask 7, which is all-FET for 3 ETs
        config = load_config(None, {
            "run.mode": "longterm", "topology.n_it": 3, "topology.n_et": 3, "run.n_trials": 1,
            "run.seed": 1, "run.q_training": 2, "run.q_longterm": 2,
        })
        # one entry per SDP built while the long-term stage runs
        in_stage, stage_builds = [], []
        real_build, real_stage = beamform.build_sdp, cli.longterm_stage

        def build(*args, **kwargs):
            stage_builds.extend(in_stage)
            return real_build(*args, **kwargs)

        def stage(*args, **kwargs):
            in_stage.append(True)
            try:
                return real_stage(*args, **kwargs)
            finally:
                in_stage.pop()

        monkeypatch.setattr(beamform, "build_sdp", build)
        monkeypatch.setattr(cli, "longterm_stage", stage)
        rows, _ = cli.run_longterm(config)
        assert rows[0]["division_bitmask"] == "7"
        assert len(stage_builds) == 2 * config.q_longterm

        def variant_rows(name):
            return [
                {k: v for k, v in r.items() if k != "algorithm"} for r in rows if r["algorithm"] == name
            ]

        assert variant_rows("frozen-hybrid") == variant_rows("all-fet")

    def test_not_converged_training_is_not_infeasible(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sdp_module, "MAX_ITERS", 5)
        conf = tmp_path / "lt_capped.conf"
        conf.write_text(
            """
            topology.n_it = 3
            topology.n_et = 3
            run.n_trials = 1
            run.seed = 11
            run.q_training = 2
            run.q_longterm = 2
            """,
            encoding="utf-8",
        )
        config = load_config(str(conf), overrides={"run.mode": "longterm"})
        rows, _ = cli.run_longterm(config)
        assert len(rows) == 1
        assert rows[0]["stage"] == "training"
        assert rows[0]["status"] == "MaxIterations"
        assert rows[0]["termination"] == "NotConverged"

    def test_summary_skips_a_trial_whose_training_failed(self, monkeypatch):
        config = load_config(None, {
            "run.mode": "longterm", "topology.n_it": 3, "topology.n_et": 3, "run.n_trials": 3,
            "run.seed": 11, "run.q_training": 2, "run.q_longterm": 3,
        })
        real = longterm_module.ALGORITHMS["alg2"]
        calls = []

        def second_trial_unsolved(instance):
            calls.append(instance)
            if len(calls) > config.q_training * 2 or len(calls) <= config.q_training:
                return real(instance)
            n_et = instance.topology.n_et
            return division_module._single_result(
                GroupDivision.all_met(n_et),
                unsolved_report(instance.topology.n_rrh, sdp_module.SdpStatus.MAX_ITERATIONS),
            )

        monkeypatch.setitem(longterm_module.ALGORITHMS, "alg2", second_trial_unsolved)
        rows, summary = cli.run_longterm(config)
        training = {r["trial"]: r for r in rows if r["stage"] == "training"}
        assert [training[t]["status"] for t in "012"] == ["Optimal", "MaxIterations", "Optimal"]
        assert training["1"]["termination"] == "NotConverged"
        assert training["1"]["division_bitmask"] == training["1"]["iterations"] == ""
        stage = [r for r in rows if r["stage"] == "longterm"]
        assert {r["trial"] for r in stage} == {"0", "2"}

        expected = ["long-term cumulative consumption (mean over trials, mW):"]
        for variant in cli.LONGTERM_VARIANTS:
            mine = [r for r in stage if r["algorithm"] == variant]
            per_trial = [
                sum(float(r["objective_mw"]) for r in mine if r["trial"] == t and r["status"] == "Optimal")
                for t in ("0", "2")
            ]
            infeasible = sum(r["status"] == "Infeasible" for r in mine)
            unsolved = sum(r["status"] not in ("Optimal", "Infeasible") for r in mine)
            expected.append(
                f"  {variant}: cumulative {sum(per_trial) / 2:.4f} after {config.q_longterm} slots, "
                f"slot infeasibility rate {infeasible / len(mine):.3f}, {unsolved} unsolved slots"
            )
        assert summary == expected


class TestAlgorithmNames:
    @pytest.mark.parametrize("name", ALGORITHM_CHOICES)
    def test_every_choice_runs(self, name):
        config = load_config(None, {"topology.n_it": 3, "topology.n_et": 3})
        instance = cli._trial_instance(config, 0, config.params)
        assert isinstance(cli._run_algorithm(name, instance), DivisionRunResult)

    def test_training_algorithms_are_choices(self):
        assert set(ALGORITHMS) <= set(ALGORITHM_CHOICES)


class TestValidateExitCodes:
    def test_all_passing_returns_zero(self, monkeypatch, capsys):
        fake = [CheckResult(name="probe", passed=True, detail="ok")]
        monkeypatch.setattr(cli, "run_all_checks", lambda: fake)
        assert cli.run_validate() == 0
        out = capsys.readouterr().out
        assert "PASS probe" in out and "all checks passed" in out

    def test_any_failure_returns_two(self, monkeypatch, capsys):
        fake = [
            CheckResult(name="probe", passed=True, detail="ok"),
            CheckResult(name="broken", passed=False, detail="bad"),
        ]
        monkeypatch.setattr(cli, "run_all_checks", lambda: fake)
        assert cli.run_validate() == 2
        assert "FAIL broken" in capsys.readouterr().out

    def test_main_dispatches_validate(self, monkeypatch):
        fake = [CheckResult(name="probe", passed=True, detail="ok")]
        monkeypatch.setattr(cli, "run_all_checks", lambda: fake)
        assert main(["validate"]) == 0

    def test_validate_reads_no_config(self, monkeypatch):
        def no_config(*args):
            raise AssertionError("validate loaded a config")

        monkeypatch.setattr(cli, "load_config", no_config)
        monkeypatch.setattr(cli, "run_all_checks", lambda: [])
        assert main(["validate"]) == 0

    @pytest.mark.parametrize(
        "option", ["--config=x.conf", "--seed=1", "--out=x.csv", "--trials=3", "--algorithms=alg1"]
    )
    def test_validate_rejects_run_options(self, monkeypatch, capsys, option):
        monkeypatch.setattr(cli, "run_all_checks", lambda: [])
        with pytest.raises(SystemExit) as exc:
            main(["validate", option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigHashOncePerRun:
    """A run's hash never changes, so a run computes it a fixed number of
    times however many rows it writes."""

    ARGS = {
        "sweep": ["--algorithms", "all-met"],
        "longterm": [],
    }
    CONF = """
topology.n_it = 3
topology.n_et = 3
run.q_training = 2
run.q_longterm = 2
sweep.values = [-20, -17]
"""

    @pytest.mark.parametrize("mode", sorted(ARGS))
    def test_hash_calls_do_not_grow_with_rows(self, mode, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(self.CONF, encoding="utf-8")
        real = ExperimentConfig.config_hash
        calls = []

        def counted(config):
            calls.append(config.mode)
            return real(config)

        monkeypatch.setattr(ExperimentConfig, "config_hash", counted)
        per_run = []
        for trials in (1, 3):
            out = tmp_path / f"{trials}.csv"
            calls.clear()
            argv = [mode, "--config", str(conf), "--out", str(out), "--trials", str(trials)]
            assert main(argv + self.ARGS[mode]) == 0
            per_run.append((len(_read_rows(out)), len(calls)))
        (rows_1, calls_1), (rows_3, calls_3) = per_run
        assert rows_3 > rows_1
        assert calls_3 == calls_1
