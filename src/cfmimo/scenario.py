"""Network deployment: AP/UE/CPU geometry with wrap-around distances.

Positions live in a square of side L centered at the origin, so fixed CPU
locations like (+-250, +-250) m can be used verbatim. The wrap-around rule
(shortest distance over the 9 translated copies of the square) applies to
every pairwise distance in the simulator to emulate an infinitely large
network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

DEFAULT_CPU_POSITIONS = (
    (250.0, 250.0),
    (250.0, -250.0),
    (-250.0, -250.0),
    (-250.0, 250.0),
)


@dataclass(frozen=True)
class ScenarioConfig:
    num_aps: int = 100            # M
    num_users: int = 20           # K
    num_antennas: int = 2         # N, per AP
    area_side: float = 1000.0     # L, meters
    cpu_positions: tuple[tuple[float, float], ...] = DEFAULT_CPU_POSITIONS
    seed: int = 0

    def __post_init__(self):
        # Lists and arrays become a tuple of tuples, so that every config hashes.
        object.__setattr__(self, "cpu_positions",
                           tuple(map(tuple, self.cpu_positions)))
        if self.num_aps < 1 or self.num_users < 1 or self.num_antennas < 1:
            raise ConfigurationError("num_aps, num_users and num_antennas must be >= 1")
        if not self.area_side > 0:
            raise ConfigurationError("area_side must be positive")
        # The squared wrap-around distance dx^2 + dy^2 peaks at dx = dy = L/2.
        half = self.area_side / 2.0
        if not math.isfinite(half * half + half * half):
            raise ConfigurationError(
                f"area_side {self.area_side} is too large: its squared "
                "wrap-around distances overflow")
        if len(self.cpu_positions) < 1:
            raise ConfigurationError("at least one CPU position is required")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    @property
    def num_cpus(self) -> int:
        return len(self.cpu_positions)


@dataclass(frozen=True)
class Deployment:
    ap_positions: np.ndarray      # (M, 2) meters
    ue_positions: np.ndarray      # (K, 2) meters
    cpu_positions: np.ndarray     # (Q, 2) meters
    ap_to_cpu: np.ndarray         # (M,) index of the CPU controlling each AP
    area_side: float = 1000.0
    num_antennas: int = 1         # N, per AP

    @property
    def num_aps(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def num_users(self) -> int:
        return self.ue_positions.shape[0]

    @property
    def num_cpus(self) -> int:
        return self.cpu_positions.shape[0]

    @property
    def cpu_map(self) -> tuple[tuple[int, ...], ...]:
        """Per-CPU disjoint AP index sets, ascending; empty for a CPU
        without APs."""
        return tuple(tuple(np.flatnonzero(self.ap_to_cpu == q).tolist())
                     for q in range(self.num_cpus))


def wrap_displacement(a: np.ndarray, b: np.ndarray, area_side: float) -> np.ndarray:
    """Shortest displacement vector from a to b over the 9 translated copies of b.

    Element-wise: a and b broadcast, and a trailing axis of size 2 holds
    the two coordinates.
    """
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    # Per-coordinate minimal displacement on the torus of period L.
    return d - area_side * np.round(d / area_side)


def wrap_distance(a, b, area_side: float):
    """Wrap-around (toroidal) distance; bounded by L*sqrt(2)/2."""
    return np.linalg.norm(wrap_displacement(a, b, area_side), axis=-1)


def wrap_displacement_planes(x: np.ndarray, y: np.ndarray,
                             area_side: float) -> tuple[np.ndarray, np.ndarray]:
    """The (n, m) coordinate planes dx, dy of the wrap-around displacements
    from every point of x (n, 2) to every point of y (m, 2).

    Bit for bit the two coordinates of wrap_displacement(x[:, None],
    y[None], area_side), without numpy's element-wise loops over a
    trailing axis of length 2.
    """
    return tuple(wrap_displacement(x[:, None, c], y[None, :, c], area_side)
                 for c in (0, 1))


def wrap_distance_matrix(x: np.ndarray, y: np.ndarray, area_side: float) -> np.ndarray:
    """All pairwise wrap-around distances between point sets x (n,2) and y (m,2);
    bit for bit wrap_distance(x[:, None], y[None], area_side)."""
    dx, dy = wrap_displacement_planes(x, y, area_side)
    return np.sqrt(dx * dx + dy * dy)


def generate_deployment(config: ScenarioConfig) -> Deployment:
    """Draw a uniform deployment and assign each AP to its closest CPU.

    APs and UEs are i.i.d. uniform over the square; CPU positions are copied
    from the config. Closest-CPU ties break toward the lowest CPU index.
    Identical config (including seed) gives an identical deployment.
    """
    rng = np.random.default_rng(config.seed)
    half = config.area_side / 2.0
    ap_pos = rng.uniform(-half, half, size=(config.num_aps, 2))
    ue_pos = rng.uniform(-half, half, size=(config.num_users, 2))
    cpu_pos = np.asarray(config.cpu_positions, dtype=float)

    dist = wrap_distance_matrix(ap_pos, cpu_pos, config.area_side)  # (M, Q)
    owner = np.argmin(dist, axis=1)  # argmin takes the first minimum: lowest index on ties

    return Deployment(
        ap_positions=ap_pos,
        ue_positions=ue_pos,
        cpu_positions=cpu_pos,
        ap_to_cpu=owner,
        area_side=config.area_side,
        num_antennas=config.num_antennas,
    )
