"""Network geometry and per-slot channel realizations.

The layout is a compact cluster of hexagonal cells (one RRH at each cell
center, adjacent centers exactly ``inter_rrh_distance`` apart) with
information terminals (ITs) and energy terminals (ETs) placed uniformly
over the union of the cells.  Downlink channels are i.i.d. Rayleigh with a
``d**(-alpha_abs)`` power-law applied on the amplitude.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Far-field guard: distances below this are clamped in all power math so the
# path gain stays bounded.
D_MIN_M = 1.0


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite position ({self.x}, {self.y})")

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class NetworkTopology:
    """Fixed positions of RRHs, ITs and ETs plus the cell geometry."""

    rrh_positions: tuple[Position, ...]
    it_positions: tuple[Position, ...]
    et_positions: tuple[Position, ...]
    hex_side: float

    def __post_init__(self):
        if len(self.rrh_positions) < 1:
            raise ValueError("need at least one RRH")
        if len(self.it_positions) < 1:
            raise ValueError("need at least one IT")
        for p in self.it_positions + self.et_positions:
            if not self.contains(p):
                raise ValueError(f"terminal at ({p.x}, {p.y}) lies outside the cells")

    @property
    def n_rrh(self) -> int:
        return len(self.rrh_positions)

    @property
    def n_it(self) -> int:
        return len(self.it_positions)

    @property
    def n_et(self) -> int:
        return len(self.et_positions)

    def contains(self, p: Position) -> bool:
        return any(
            _in_hexagon(p.x - c.x, p.y - c.y, self.hex_side) for c in self.rrh_positions
        )

    def it_distances(self) -> np.ndarray:
        """Distance matrix RRH x IT, meters."""
        return _distances(self.rrh_positions, self.it_positions)

    def et_distances(self) -> np.ndarray:
        """Distance matrix RRH x ET, meters."""
        return _distances(self.rrh_positions, self.et_positions)

    @functools.cached_property
    def assigned_rrhs(self) -> tuple[tuple[int, float], ...]:
        """Per ET, its closest RRH and the (unclamped) distance to it.

        Ties break toward the lowest RRH index.  Computed on first use and
        kept, since the positions are frozen.
        """
        d = self.et_distances()
        nearest = np.argmin(d, axis=0)  # argmin returns the first minimum: lowest index wins
        return tuple((int(n), float(d[n, j])) for j, n in enumerate(nearest))


@dataclass(frozen=True)
class ChannelRealization:
    """Complex downlink channels for one slot.

    h_id: (N, U_D), column i is the channel from all RRHs to IT i.
    h_et: (N, U_E), column i is the channel from all RRHs to ET i.
    """

    h_id: np.ndarray
    h_et: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.h_id)) and np.all(np.isfinite(self.h_et))):
            raise ValueError("non-finite channel entries")
        if self.h_id.shape[0] != self.h_et.shape[0]:
            raise ValueError("h_id and h_et disagree on the number of RRHs")


def _distances(a: tuple[Position, ...], b: tuple[Position, ...]) -> np.ndarray:
    ax = np.array([[p.x, p.y] for p in a])
    if not b:
        return np.zeros((len(a), 0))
    bx = np.array([[p.x, p.y] for p in b])
    return np.linalg.norm(ax[:, None, :] - bx[None, :, :], axis=2)


def _in_hexagon(x: float, y: float, side: float) -> bool:
    # Pointy-top hexagon centered at the origin, circumradius = side.
    return abs(x) <= math.sqrt(3.0) / 2.0 * side + 1e-12 and abs(y) <= side - abs(
        x
    ) / math.sqrt(3.0) + 1e-12


def _hex_centers(n: int, spacing: float) -> list[Position]:
    """Centers of n cells on the hexagonal lattice, compact around the origin.

    Axial coordinates (q, r) map to x = spacing*(q + r/2), y = spacing*sqrt(3)/2*r,
    so adjacent centers are exactly `spacing` apart and the first three cells are
    mutually adjacent.
    """
    candidates = []
    reach = int(math.ceil(math.sqrt(n))) + 2
    for q in range(-reach, reach + 1):
        for r in range(-reach, reach + 1):
            x = spacing * (q + r / 2.0)
            y = spacing * math.sqrt(3.0) / 2.0 * r
            ring = max(abs(q), abs(r), abs(q + r))
            angle = math.atan2(y, x) % (2.0 * math.pi)
            candidates.append((ring, angle, x, y))
    candidates.sort()
    return [Position(x, y) for _, _, x, y in candidates[:n]]


def _sample_in_hexagon(rng: np.random.Generator, center: Position, side: float) -> Position:
    # Rejection from the bounding box; acceptance rate is 75%.
    half_w = math.sqrt(3.0) / 2.0 * side
    while True:
        x = rng.uniform(-half_w, half_w)
        y = rng.uniform(-side, side)
        if _in_hexagon(x, y, side):
            return Position(center.x + x, center.y + y)


def generate_topology(
    seed: int,
    n_rrh: int,
    n_it: int,
    n_et: int,
    inter_rrh_distance: float = 20.0,
) -> NetworkTopology:
    """Place RRHs on adjacent hexagonal cells and drop terminals uniformly.

    Deterministic for a given seed.  Terminals are uniform over the union of
    the cells: a cell is picked uniformly (cells have equal area), then a
    point uniformly inside it.
    """
    if n_rrh < 1 or n_it < 1 or n_et < 0:
        raise ValueError(f"invalid counts: n_rrh={n_rrh}, n_it={n_it}, n_et={n_et}")
    if inter_rrh_distance <= 0:
        raise ValueError("inter_rrh_distance must be positive")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")

    side = inter_rrh_distance / math.sqrt(3.0)
    centers = _hex_centers(n_rrh, inter_rrh_distance)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x70D0]))

    def draw(count: int) -> tuple[Position, ...]:
        out = []
        for _ in range(count):
            cell = int(rng.integers(n_rrh))
            out.append(_sample_in_hexagon(rng, centers[cell], side))
        return tuple(out)

    its = draw(n_it)
    ets = draw(n_et)
    return NetworkTopology(tuple(centers), its, ets, side)


def draw_channels(
    topology: NetworkTopology,
    seed: int,
    slot: int,
    alpha_abs: float = 2.5,
) -> ChannelRealization:
    """Rayleigh-faded channels for one slot, h = g * d**(-alpha_abs/2).

    g is circularly-symmetric complex Gaussian with unit variance, so
    E|h|^2 = d**(-alpha_abs).  Distances below D_MIN_M are clamped.
    Deterministic for a given (seed, slot).
    """
    if alpha_abs <= 0:
        raise ValueError("alpha_abs must be positive")
    if seed < 0 or slot < 0:
        raise ValueError("seed and slot must be nonnegative integers")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(slot), 0xC4A]))
    d_it = np.maximum(topology.it_distances(), D_MIN_M)
    d_et = np.maximum(topology.et_distances(), D_MIN_M)

    def rayleigh(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

    h_id = rayleigh(d_it.shape) * d_it ** (-alpha_abs / 2.0)
    h_et = rayleigh(d_et.shape) * d_et ** (-alpha_abs / 2.0)
    return ChannelRealization(h_id=h_id, h_et=h_et)


def assigned_rrh(topology: NetworkTopology, et_index: int) -> tuple[int, float]:
    """Closest RRH of an ET and the (unclamped) distance to it.

    Ties break toward the lowest RRH index; see `NetworkTopology.assigned_rrhs`.
    """
    if not 0 <= et_index < topology.n_et:
        raise IndexError(f"et_index {et_index} out of range")
    return topology.assigned_rrhs[et_index]
