"""Experiment configuration: flat dotted-key files, dBm handling, hashing.

Config files are plain text, one `section.key = value` per line, `#`
comments allowed.  Values are JSON literals where they parse as such
(numbers, lists, booleans) and bare strings otherwise.  The `system.*` keys
are the `SystemParams` field names; `KEYS` declares every other key, with
its `ExperimentConfig` field and the modes that read it.  A value is checked
against its field's type, not converted, and a wrong type is a
`ConfigError` naming the key; a bool is not a number.  A tuple field takes
a JSON list, a comma-separated string or one scalar.  The powers in
`DBM_FIELDS` may be given with a `_dbm` suffix instead, but not in both
forms; x dBm converts as 10^(x/10) mW.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

from .beamform import SystemParams
from .division import BRUTE_FORCE_CAP
from .longterm import ALGORITHMS, DIVISION_THRESHOLD, Q_TRAINING

# the run modes; the `validate` subcommand reads no config
MODES = ("single-slot", "sweep", "longterm")
ALGORITHM_CHOICES = ("alg1", "alg2", "all-fet", "all-met", "brute")
# the powers with a `_dbm` form, which are also the parameters a sweep may set
DBM_FIELDS = ("p_amin", "p_fmin", "noise_power")
# every key outside `system.*`: its ExperimentConfig field and the modes that
# read it; a mode's config hash covers only what it reads
KEYS = {
    "topology.n_rrh": ("n_rrh", MODES),
    "topology.n_it": ("n_it", MODES),
    "topology.n_et": ("n_et", MODES),
    "topology.inter_rrh_distance": ("inter_rrh_distance", MODES),
    "run.mode": ("mode", MODES),
    "run.seed": ("seed", MODES),
    "run.n_trials": ("n_trials", MODES),
    "run.algorithms": ("algorithms", ("single-slot", "sweep")),
    "run.q_training": ("q_training", ("longterm",)),
    "run.q_longterm": ("q_longterm", ("longterm",)),
    "run.threshold": ("threshold", ("longterm",)),
    "run.training_algorithm": ("training_algorithm", ("longterm",)),
    "sweep.param": ("sweep_param", ("sweep",)),
    "sweep.values": ("sweep_values", ("sweep",)),
}
_EXPECTED = {int: "an integer", float: "a number", str: "a string"}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** (dbm / 10.0) / 1e3
    except OverflowError as exc:
        raise ConfigError(f"{dbm!r} dBm has no value in watts") from exc


def _literal(text: str) -> object:
    """The JSON literal `text` parses as, else `text` itself."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _checked(key: str, value: object, kind) -> object:
    """`value` if it has the field type `kind`, else a ConfigError naming `key`.

    A scalar passes unconverted, so an int stays an int.  A tuple field takes
    a list, a comma-separated string or one scalar, and its numbers become
    floats.
    """
    if getattr(kind, "__origin__", None) is tuple:
        item = kind.__args__[0]
        if isinstance(value, str):
            value = [_literal(v.strip()) for v in value.split(",") if v.strip()]
        elif not isinstance(value, (list, tuple)):
            value = [value]
        return tuple(item(_checked(key, v, item)) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{key!r}: expected {_EXPECTED[kind]}, got {value!r}")
    return value


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
        kinds = {f.name: f.type for f in fields(self)}
        for key, (name, _) in KEYS.items():
            object.__setattr__(self, name, _checked(key, getattr(self, name), kinds[name]))
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
        if self.sweep_param.removesuffix("_dbm") not in DBM_FIELDS:
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
        blob = {name: getattr(self, name) for name, modes in KEYS.values() if self.mode in modes}
        blob["params"] = asdict(self.params)
        canon = json.dumps(blob, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def sweep_param_watts(self, value: float) -> SystemParams:
        """SystemParams with the swept field set to `value` (dBm-aware)."""
        name = self.sweep_param
        if name.endswith("_dbm"):
            name, value = name.removesuffix("_dbm"), dbm_to_watts(value)
        return replace(self.params, **{name: value})


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
        out[key] = _literal(value)
    return out


_SYSTEM_TYPES = {f.name: f.type for f in fields(SystemParams)}
_SECTIONS = {"system"} | {key.partition(".")[0] for key in KEYS}


def build_config(entries: dict[str, object]) -> ExperimentConfig:
    """Resolve flat dotted entries into an ExperimentConfig."""
    system: dict[str, object] = {}
    top: dict[str, object] = {}
    for key, value in entries.items():
        section, _, name = key.partition(".")
        base = name.removesuffix("_dbm")
        if key in KEYS:
            top[KEYS[key][0]] = value
        elif section == "system" and base in _SYSTEM_TYPES:
            if base != name:
                if base not in DBM_FIELDS:
                    raise ConfigError(f"{key!r}: dBm form not supported for this field")
                value = _checked(key, value, float)
                try:
                    value = dbm_to_watts(value)
                except ConfigError as exc:
                    raise ConfigError(f"{key!r}: {exc}") from exc
            if base in system:
                raise ConfigError(f"'system.{base}' and 'system.{base}_dbm' set one power; give one")
            system[base] = _checked(key, value, _SYSTEM_TYPES[base])
        elif section in _SECTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        else:
            raise ConfigError(f"unknown config section {section!r} in {key!r}")
    try:
        return ExperimentConfig(params=SystemParams(**system), **top)
    except ValueError as exc:
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
