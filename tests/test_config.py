"""Tests for config parsing, dBm handling, validation, and hashing."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from swiptcran.beamform import SystemParams
from swiptcran.config import (
    KEYS,
    MODES,
    ConfigError,
    ExperimentConfig,
    build_config,
    dbm_to_watts,
    load_config,
    parse_config_text,
)
from swiptcran import sdp
from swiptcran.longterm import ALGORITHMS


class TestParseConfigText:
    def test_basic_lines_comments_and_types(self):
        text = """
        # experiment header comment
        run.seed = 7           # trailing comment
        run.mode = single-slot
        system.p_en = [2.0, 2.5, 3.0]
        sweep.values = [-20, -17]
        run.threshold = 0.05
        """
        out = parse_config_text(text)
        assert out["run.seed"] == 7
        assert out["run.mode"] == "single-slot"  # bare string fallback
        assert out["system.p_en"] == [2.0, 2.5, 3.0]
        assert out["sweep.values"] == [-20, -17]
        assert out["run.threshold"] == 0.05

    def test_rejects_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("run.seed = 1\nrun.seed = 2")

    def test_rejects_undotted_key(self):
        with pytest.raises(ConfigError, match="dotted"):
            parse_config_text("seed = 1")

    def test_rejects_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("run.seed 1")


class TestDbmHandling:
    def test_conversion(self):
        assert dbm_to_watts(-17.0) == pytest.approx(10 ** (-1.7) / 1e3, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)

    def test_dbm_suffix_converts_power_keys(self):
        cfg = build_config({"system.p_amin_dbm": -17, "system.p_fmin_dbm": -20})
        assert cfg.params.p_amin == pytest.approx(dbm_to_watts(-17), rel=1e-12)
        assert cfg.params.p_fmin == pytest.approx(1e-5, rel=1e-12)

    def test_dbm_suffix_rejected_for_unitless_keys(self):
        with pytest.raises(ConfigError, match="dBm"):
            build_config({"system.eta_dbm": -3})


class TestDefaults:
    def test_reference_scenario(self):
        cfg = ExperimentConfig()
        assert (cfg.n_rrh, cfg.n_it, cfg.n_et) == (3, 4, 7)
        assert cfg.inter_rrh_distance == 20.0
        assert cfg.params.sinr_min == 20.0
        assert cfg.params.p_en == (2.0, 2.5, 3.0)
        assert cfg.mode == "single-slot"
        assert cfg.n_trials == 200
        assert cfg.q_training == 10
        assert cfg.q_longterm == 50
        assert cfg.threshold == 0.5
        assert cfg.sweep_param == "p_amin_dbm"
        assert cfg.sweep_values == (-20.0, -18.0, -17.0, -15.0)
        assert cfg.algorithms == ("alg1", "alg2", "all-fet", "all-met")

    def test_empty_entries_give_defaults(self):
        assert build_config({}).config_hash() == ExperimentConfig().config_hash()


class TestBuildConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"system.bandwidth": 5.0})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            build_config({"channel.alpha": 2.5})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            build_config({"run.mode": "bogus"})

    def test_algorithms_accept_list_and_comma_string(self):
        by_list = build_config({"run.algorithms": ["alg1", "brute"], "topology.n_et": 4})
        by_str = build_config({"run.algorithms": "alg1, brute", "topology.n_et": 4})
        assert by_list.algorithms == by_str.algorithms == ("alg1", "brute")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithm"):
            build_config({"run.algorithms": "alg3"})

    def test_brute_force_cap_enforced(self):
        with pytest.raises(ConfigError, match="cap"):
            build_config({"run.algorithms": "brute", "topology.n_et": 13})

    def test_p_en_length_must_match_rrh_count(self):
        with pytest.raises(ConfigError, match="p_en"):
            build_config({"system.p_en": [2.0, 2.5, 3.0], "topology.n_rrh": 2})

    @pytest.mark.parametrize("section, attr, cls", [("system", "params", SystemParams)])
    def test_every_field_is_a_key_of_its_section(self, section, attr, cls):
        def moved(value):
            if isinstance(value, tuple):
                return tuple(0.9 * v for v in value)
            return value + 1 if isinstance(value, int) else 0.9 * value

        given = {f.name: moved(getattr(cls(), f.name)) for f in fields(cls)}
        cfg = build_config({f"{section}.{name}": v for name, v in given.items()})
        resolved = getattr(cfg, attr)
        assert {name: getattr(resolved, name) for name in given} == given

    def test_sweep_param_whitelist(self):
        with pytest.raises(ConfigError, match="sweep"):
            build_config({"sweep.param": "eta"})

    def test_numeric_tuples_accept_comma_strings_and_scalars(self):
        # bare comma lists don't parse as JSON; they arrive as strings
        cfg = build_config({"sweep.values": "-20, -17"})
        assert cfg.sweep_values == (-20.0, -17.0)
        cfg = build_config({"sweep.values": -17})
        assert cfg.sweep_values == (-17.0,)
        cfg = build_config({"system.p_en": "2.0, 2.0, 2.0"})
        assert cfg.params.p_en == (2.0, 2.0, 2.0)

    def test_numeric_tuple_garbage_is_a_config_error(self):
        with pytest.raises(ConfigError, match="sweep.values"):
            build_config({"sweep.values": "low, high"})
        with pytest.raises(ConfigError, match="p_en"):
            build_config({"system.p_en": {"a": 1}})

    def test_topology_counts_validated(self):
        with pytest.raises(ConfigError, match="counts"):
            build_config({"topology.n_it": 0})
        with pytest.raises(ConfigError, match="seed"):
            build_config({"run.seed": -1})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("run.n_trials", 2.5),
            ("run.q_longterm", 2.5),
            ("run.threshold", 1.5),
            ("topology.inter_rrh_distance", -1),
        ],
    )
    def test_values_that_would_fail_mid_run_are_rejected(self, key, value):
        with pytest.raises(ConfigError):
            build_config({key: value})

    @pytest.mark.parametrize(
        "key", ["max_iters", "brute_force_cap", "poor_channel_factor", "boundary_band"]
    )
    def test_division_section_is_a_config_error(self, key):
        # the division heuristics are constants in swiptcran.division
        with pytest.raises(ConfigError, match="unknown config section 'division'"):
            build_config({f"division.{key}": 1})

    @pytest.mark.parametrize("key", ["tol_feas", "tol_gap", "tol_psd", "max_iters", "step_frac"])
    def test_solver_section_is_a_config_error(self, key):
        # the solver settings are constants in swiptcran.sdp; even their own values are refused
        with pytest.raises(ConfigError, match="unknown config section 'solver'"):
            build_config({f"solver.{key}": getattr(sdp, key.upper())})

    def test_training_algorithm_names_come_from_longterm(self):
        for name in ALGORITHMS:
            assert build_config({"run.training_algorithm": name}).training_algorithm == name
        with pytest.raises(ConfigError, match="training_algorithm"):
            build_config({"run.training_algorithm": "all-met"})


def _field_type(key: str):
    if key.startswith("system."):
        return {f.name: f.type for f in fields(SystemParams)}[key.removeprefix("system.")]
    return {f.name: f.type for f in fields(ExperimentConfig)}[KEYS[key][0]]


# values of the wrong type for each field type; True stands for every bool
WRONG_VALUES = {
    int: [2.5, "3", True, None],
    float: ["abc", [1], True, None],
    str: [5, ["alg1"], True, None],
    tuple[str, ...]: [[1], 5, True, {"a": 1}],
    tuple[float, ...]: [["1"], "low, high", True, {"a": 1}],
}
TYPED_KEYS = sorted(KEYS) + [f"system.{f.name}" for f in fields(SystemParams)]


class TestValueTypes:
    @pytest.mark.parametrize("key", TYPED_KEYS)
    def test_wrong_type_names_the_key(self, key):
        for value in WRONG_VALUES[_field_type(key)]:
            with pytest.raises(ConfigError, match=re.escape(f"{key!r}: expected")):
                build_config({key: value})

    @pytest.mark.parametrize("key", ["system.p_amin_dbm", "system.p_fmin_dbm", "system.noise_power_dbm"])
    def test_dbm_form_wants_a_number(self, key):
        for value in ("abc", [1], True):
            with pytest.raises(ConfigError, match=re.escape(f"{key!r}: expected a number")):
                build_config({key: value})

    def test_values_are_checked_not_converted(self):
        cfg = build_config({"topology.inter_rrh_distance": 20, "system.beta": 2, "run.threshold": 1})
        assert type(cfg.inter_rrh_distance) is int and type(cfg.params.beta) is int
        assert type(cfg.threshold) is int

    def test_direct_construction_checks_types(self):
        with pytest.raises(ConfigError, match="n_trials"):
            ExperimentConfig(n_trials=2.5)
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=True)


class TestConfigHash:
    def test_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = build_config({"run.seed": 1})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 12
        int(a.config_hash(), 16)  # hex digest prefix

    def test_sensitive_to_physical_params(self):
        a = ExperimentConfig()
        b = build_config({"system.p_amin_dbm": -15})
        assert a.config_hash() != b.config_hash()


class TestConfigHashPerMode:
    """Each mode hashes only the settings it reads."""

    UNREAD = {
        "single-slot": {"run.q_training": 3, "run.q_longterm": 7, "run.threshold": 0.25,
                        "run.training_algorithm": "alg1", "sweep.param": "p_fmin_dbm",
                        "sweep.values": [-21]},
        "sweep": {"run.q_training": 3, "run.q_longterm": 7, "run.threshold": 0.25,
                  "run.training_algorithm": "alg1"},
        "longterm": {"run.algorithms": "all-met", "sweep.param": "p_fmin_dbm", "sweep.values": [-21]},
    }
    READ = {
        "single-slot": {"run.algorithms": "all-met", "run.seed": 1, "system.p_amin_dbm": -15,
                        "topology.n_et": 5},
        # a sweep refuses points outside p_fmin <= p_amin: the default values
        # as p_fmin reach -15 dBm, above p_amin, and -21 dBm as p_amin is below p_fmin
        "sweep": {"run.algorithms": "all-met", "sweep.param": "noise_power_dbm", "sweep.values": [-19]},
        "longterm": {"run.q_training": 3, "run.q_longterm": 7, "run.threshold": 0.25,
                     "run.training_algorithm": "alg1", "run.n_trials": 5},
    }

    @pytest.mark.parametrize("mode", sorted(UNREAD))
    def test_unread_settings_leave_the_hash(self, mode):
        base = build_config({"run.mode": mode}).config_hash()
        for key, value in self.UNREAD[mode].items():
            assert build_config({"run.mode": mode, key: value}).config_hash() == base, key

    @pytest.mark.parametrize("mode", sorted(READ))
    def test_read_settings_change_the_hash(self, mode):
        base = build_config({"run.mode": mode}).config_hash()
        for key, value in self.READ[mode].items():
            assert build_config({"run.mode": mode, key: value}).config_hash() != base, key

    def test_modes_hash_apart(self):
        hashes = {build_config({"run.mode": mode}).config_hash() for mode in MODES}
        assert len(hashes) == len(MODES)


class TestPinnedHashes:
    """The hash of each benchmark config in each mode; a change here splits
    CSVs that earlier runs of the same settings could append to."""

    CONF_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "conf"
    HASHES = {
        "brute-oracle": ("8cc76fec530a", "84fa701d47f7", "f15a59b6cf6e"),
        "longterm": ("6217623da31a", "89784aef46f7", "f15a59b6cf6e"),
        "reference-infeasible": ("1eaddfb2dc06", "620d6b33b6d7", "3dde0ed30a61"),
        "sweep-heuristics": ("6217623da31a", "89784aef46f7", "f15a59b6cf6e"),
    }

    @pytest.mark.parametrize("conf", sorted(HASHES))
    def test_hashes_are_pinned(self, conf):
        path = str(self.CONF_DIR / f"{conf}.conf")
        got = tuple(load_config(path, {"run.mode": mode}).config_hash() for mode in MODES)
        assert got == self.HASHES[conf]


class TestSweepParamWatts:
    def test_dbm_sweep_rewrites_field(self):
        cfg = ExperimentConfig()
        params = cfg.sweep_param_watts(-15.0)
        assert params.p_amin == pytest.approx(dbm_to_watts(-15.0), rel=1e-12)
        assert params.p_fmin == cfg.params.p_fmin
        assert params.p_en == cfg.params.p_en

    def test_linear_sweep_passes_watts_through(self):
        cfg = build_config({"sweep.param": "noise_power", "sweep.values": [1e-7, 1e-6]})
        params = cfg.sweep_param_watts(1e-6)
        assert params.noise_power == 1e-6


class TestLoadConfig:
    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("run.seed = 3\ntopology.n_it = 3\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.seed == 3 and cfg.n_it == 3
        cfg = load_config(str(path), overrides={"run.seed": 9})
        assert cfg.seed == 9 and cfg.n_it == 3

    def test_no_file_only_overrides(self):
        cfg = load_config(None, {"run.n_trials": 5})
        assert cfg.n_trials == 5
