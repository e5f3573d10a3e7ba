"""Experiment configuration: flat dotted-key files, dBm handling, hashing.

Config files are plain text, one `section.key = value` per line, `#`
comments allowed.  Values are JSON literals where they parse as such
(numbers, lists, booleans) and bare strings otherwise.  Power keys may use
an explicit `_dbm` suffix; x dBm converts as 10^(x/10) mW.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

from .beamform import SystemParams
from .division import BRUTE_FORCE_CAP
from .longterm import ALGORITHMS, DIVISION_THRESHOLD, Q_TRAINING

# the run modes; the `validate` subcommand reads no config
MODES = ("single-slot", "sweep", "longterm")
ALGORITHM_CHOICES = ("alg1", "alg2", "all-fet", "all-met", "brute")
_COUNT_FIELDS = ("n_rrh", "n_it", "n_et", "seed", "n_trials", "q_training", "q_longterm")
_LONGTERM_FIELDS = ("q_training", "q_longterm", "threshold", "training_algorithm")
_SWEEP_FIELDS = ("sweep_param", "sweep_values")
# settings a mode never reads, left out of its config hash
_UNREAD = {
    "single-slot": _LONGTERM_FIELDS + _SWEEP_FIELDS,
    "sweep": _LONGTERM_FIELDS,
    "longterm": ("algorithms",) + _SWEEP_FIELDS,
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** (float(dbm) / 10.0) / 1e3
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{dbm!r} dBm has no value in watts") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; `params` carries the physical layer."""

    params: SystemParams = field(default_factory=SystemParams)
    n_rrh: int = 3
    n_it: int = 4
    n_et: int = 7
    inter_rrh_distance: float = 20.0
    mode: str = "single-slot"
    seed: int = 0
    n_trials: int = 200
    algorithms: tuple[str, ...] = ("alg1", "alg2", "all-fet", "all-met")
    q_training: int = Q_TRAINING
    q_longterm: int = 50
    threshold: float = DIVISION_THRESHOLD
    training_algorithm: str = "alg2"
    sweep_param: str = "p_amin_dbm"
    sweep_values: tuple[float, ...] = (-20.0, -18.0, -17.0, -15.0)

    def __post_init__(self):
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for a in self.algorithms:
            if a not in ALGORITHM_CHOICES:
                raise ConfigError(f"unknown algorithm {a!r}; choices {ALGORITHM_CHOICES}")
        if not self.algorithms or len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigError(f"run.algorithms must be nonempty without repeats, got {self.algorithms!r}")
        if self.n_rrh < 1 or self.n_it < 1 or self.n_et < 0:
            raise ConfigError("topology counts out of range")
        if not 0 < self.inter_rrh_distance < math.inf:
            raise ConfigError("topology.inter_rrh_distance must be positive and finite")
        if len(self.params.p_en) != self.n_rrh:
            raise ConfigError("system.p_en length must equal topology.n_rrh")
        if self.n_trials < 1:
            raise ConfigError("run.n_trials must be at least 1")
        if self.seed < 0:
            raise ConfigError("run.seed must be nonnegative")
        if "brute" in self.algorithms and self.n_et > BRUTE_FORCE_CAP:
            raise ConfigError(
                f"brute force requested with {self.n_et} ETs; cap is {BRUTE_FORCE_CAP}"
            )
        if self.sweep_param.removesuffix("_dbm") not in ("p_amin", "p_fmin", "noise_power"):
            raise ConfigError(f"unsupported sweep parameter {self.sweep_param!r}")
        if not self.sweep_values:
            raise ConfigError("sweep.values must be nonempty")
        # only a sweep reads sweep.values, so only a sweep checks its points
        for value in self.sweep_values if self.mode == "sweep" else ():
            try:
                self.sweep_param_watts(value)
            except ValueError as exc:
                raise ConfigError(f"sweep.values: {self.sweep_param} = {value!r}: {exc}") from exc
        if self.q_training < 1 or self.q_longterm < 0:
            raise ConfigError("longterm slot counts out of range")
        if not 0 <= self.threshold <= 1:
            raise ConfigError("run.threshold must lie in [0, 1]")
        if self.training_algorithm not in ALGORITHMS:
            raise ConfigError(f"run.training_algorithm must be one of {sorted(ALGORITHMS)}")

    def config_hash(self) -> str:
        """Stable digest of every resolved setting the mode reads; stamped on
        each CSV row, so runs that differ only in a setting their mode
        ignores share a hash and may share a CSV."""
        blob = {"params": {f.name: getattr(self.params, f.name) for f in fields(self.params)}}
        for f in fields(self):
            if f.name == "params" or f.name in _UNREAD[self.mode]:
                continue
            blob[f.name] = getattr(self, f.name)
        canon = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def sweep_param_watts(self, value: float) -> SystemParams:
        """SystemParams with the swept field set to `value` (dBm-aware)."""
        name = self.sweep_param
        if name.endswith("_dbm"):
            name, value = name.removesuffix("_dbm"), dbm_to_watts(value)
        kwargs = {f.name: getattr(self.params, f.name) for f in fields(self.params)}
        kwargs[name] = value
        return SystemParams(**kwargs)


def parse_config_text(text: str) -> dict[str, object]:
    """Parse `section.key = value` lines into a flat dict."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: keys must be dotted, got {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


_SYSTEM_KEYS = {f.name for f in fields(SystemParams)}
_DBM_KEYS = {"p_amin", "p_fmin", "noise_power"}
_TOPOLOGY_KEYS = {"n_rrh", "n_it", "n_et", "inter_rrh_distance"}
_RUN_KEYS = {
    "mode", "seed", "n_trials", "algorithms", "q_training", "q_longterm",
    "threshold", "training_algorithm",
}
_SWEEP_KEYS = {"param", "values"}


def _float_tuple(key: str, value: object) -> tuple[float, ...]:
    """Coerce a JSON list, comma-separated string, or bare scalar to floats."""
    if isinstance(value, str):
        value = [v.strip() for v in value.split(",") if v.strip()]
    elif not isinstance(value, (list, tuple)):
        value = [value]
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key!r}: expected numbers, got {value!r}") from exc


def build_config(entries: dict[str, object]) -> ExperimentConfig:
    """Resolve flat dotted entries into an ExperimentConfig."""
    system: dict[str, object] = {}
    top: dict[str, object] = {}

    for key, value in entries.items():
        section, _, name = key.partition(".")
        if section == "system":
            base = name.removesuffix("_dbm")
            if base not in _SYSTEM_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if name.endswith("_dbm"):
                if base not in _DBM_KEYS:
                    raise ConfigError(f"{key!r}: dBm form not supported for this field")
                try:
                    value = dbm_to_watts(value)
                except ConfigError as exc:
                    raise ConfigError(f"{key!r}: {exc}") from exc
            if base == "p_en":
                value = _float_tuple(key, value)
            system[base] = value
        elif section == "topology":
            if name not in _TOPOLOGY_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            top[name] = value
        elif section == "run":
            if name not in _RUN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if name == "algorithms":
                value = tuple(value) if isinstance(value, list) else tuple(
                    a.strip() for a in str(value).split(",") if a.strip()
                )
            top[name] = value
        elif section == "sweep":
            if name not in _SWEEP_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if name == "param":
                top["sweep_param"] = str(value)
            else:
                top["sweep_values"] = _float_tuple(key, value)
        else:
            raise ConfigError(f"unknown config section {section!r} in {key!r}")

    try:
        return ExperimentConfig(params=SystemParams(**system), **top)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str | None = None, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """Read a config file (optional) and apply flat-key overrides on top."""
    entries: dict[str, object] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            entries = parse_config_text(fh.read())
    if overrides:
        entries.update(overrides)
    return build_config(entries)
