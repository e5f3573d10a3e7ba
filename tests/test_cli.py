"""Tests for the command line driver and CSV output discipline."""

import csv

import pytest

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
from swiptcran.division import DivisionRunResult
from swiptcran.longterm import ALGORITHMS
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
        "param, value", [("p_amin_dbm", -25), ("p_fmin_dbm", -10)]  # below p_fmin, above p_amin
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


class TestSweepStore:
    """The sweep values of one draw share a solve store."""

    BASE = {
        "run.mode": "sweep", "topology.n_it": 3, "topology.n_et": 7, "run.n_trials": 2,
        "run.seed": 4, "run.algorithms": "alg1, alg2, all-fet, all-met",
    }
    ALL_FET = (1 << 7) - 1

    @staticmethod
    def _count_solves(monkeypatch) -> list[int]:
        masks = []
        real = division_module.solve_division

        def counted(topology, channels, division, params, problem=None):
            masks.append(division.to_bitmask())
            return real(topology, channels, division, params, problem)

        monkeypatch.setattr(division_module, "solve_division", counted)
        return masks

    def _sweep(self, param, values):
        config = load_config(None, {**self.BASE, "sweep.param": param, "sweep.values": values})
        return cli.run_sweep(config)[0]

    def test_p_amin_sweep_solves_all_fet_once_per_draw(self, monkeypatch):
        values = [-20, -18, -17, -15]
        masks = self._count_solves(monkeypatch)
        rows = self._sweep("p_amin_dbm", values)
        assert masks.count(self.ALL_FET) == 2  # one per draw, not one per (draw, value)
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
        masks = self._count_solves(monkeypatch)
        self._sweep(param, values)
        assert masks.count(self.ALL_FET) == 2 * 4


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
