"""The benchmark's workloads: a CLI subcommand, a config file and a panel.

A round is one CLI call.  A workload's panel is a fixed set of rounds: round
i runs with master seed i.  A run repeats whole panels, each in an order
that --seed shuffles.  The draws are fixed per workload because the work of
one draw varies too much between draws (up to 2x for a sweep draw) for a run
of a minute to average over seed-dependent draws; a fixed panel makes every
run do the same work, so two runs differ only by the machine.
"""

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

CONF_DIR = Path(__file__).resolve().parent / "conf"


def read_conf(path: Path) -> dict:
    """Parse `section.key = value` lines; `_dbm` keys become watts."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            value = [v.strip() for v in value.split(",")] if "," in value else value
        name = key.split(".", 1)[1]
        if name.endswith("_dbm"):
            name, value = name.removesuffix("_dbm"), 10.0 ** (value / 10.0) / 1e3
        out[name] = value
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # swiptcran subcommand
    draws: int  # topology draws per round (`--trials`)
    panel: int  # rounds per panel

    @property
    def conf_path(self) -> Path:
        return CONF_DIR / f"{self.name}.conf"

    @cached_property
    def params(self) -> dict:
        return read_conf(self.conf_path)

    def panel_order(self, seed: int) -> list[int]:
        """The panel's master seeds in the order a run with `seed` takes them."""
        order = list(range(self.panel))
        random.Random(seed).shuffle(order)
        return order

    def argv(self, master_seed: int, out: str) -> list[str]:
        return [self.mode, "--config", str(self.conf_path), "--seed", str(master_seed),
                "--trials", str(self.draws), "--out", out]

    def trials_per_round(self) -> int:
        """Calls of generate_topology: one per draw, per sweep value."""
        values = self.params.get("values", [None]) if self.mode == "sweep" else [None]
        return self.draws * len(values)

    def rows_per_round(self) -> int:
        p = self.params
        if self.mode == "longterm":
            return self.draws * (1 + 3 * p["q_longterm"])
        return self.trials_per_round() * len(p["algorithms"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-heuristics", "sweep", draws=1, panel=8),
        Workload("brute-oracle", "single-slot", draws=1, panel=3),
        Workload("longterm", "longterm", draws=1, panel=1),
        Workload("reference-infeasible", "single-slot", draws=10, panel=12),
    )
}
