"""User-centric AP clustering and per-CPU coherent group formation.

Three multi-CPU-aware algorithms (threshold on large-scale fading, fixed
AP count, received-power fraction) restrict the candidate APs to the
n_cpu best CPUs before selecting (CPUs that control no AP are never
candidates); setting n_cpu = Q recovers the corresponding single-pool
legacy scheme. All ties break toward the lowest index so results are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

ALGORITHMS = ("legacy_largest_lsf", "lsf_threshold", "fixed_aps", "power_fraction")
THRESHOLD_MODES = ("over_noise", "raw_linear")


@dataclass(frozen=True)
class ClusteringParams:
    algorithm: str = "legacy_largest_lsf"
    n_cpu: int = 4                 # CPUs considered by the multi-CPU algorithms
    lsf_threshold: float = 23.5    # Delta, interpreted per threshold_mode
    threshold_mode: str = "over_noise"  # compare beta/sigma^2 (default) or raw beta
    n_ap: int = 10                 # fixed-count algorithm
    power_fraction: float = 0.95   # delta in (0, 1]
    legacy_cluster_size: int = 20  # A_k for the legacy baseline

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigurationError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if self.n_cpu < 1:
            raise ConfigurationError("n_cpu must be >= 1")
        if not 0.0 < self.power_fraction <= 1.0:
            raise ConfigurationError("power_fraction must lie in (0, 1]")
        if self.n_ap < 1 or self.legacy_cluster_size < 1:
            raise ConfigurationError("n_ap and legacy_cluster_size must be >= 1")


@dataclass(frozen=True)
class ServingLinks:
    """The (AP, user) serving links of every coherent group, user-major.

    Link l is AP ap[l] serving user user[l]. Group g holds the links from
    group_start[g] up to the next group's start and serves group_user[g].
    Users, their groups and each group's APs keep the order of
    ServingStructure.groups.
    """
    ap: np.ndarray              # (L,)
    user: np.ndarray            # (L,)
    group_start: np.ndarray     # (G,)
    group_user: np.ndarray      # (G,)


@dataclass(frozen=True)
class ServingStructure:
    """Clusters A_k and their per-CPU coherent groups over num_aps APs.

    groups[k] is a list of (cpu_index, ap_tuple) pairs; the tuples are
    disjoint, each lies within a single CPU's AP pool, and their union is
    clusters[k].
    """
    clusters: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    num_aps: int

    @cached_property
    def links(self) -> ServingLinks:
        """groups flattened into serving links; derived on first use, so a
        copy with other groups (dataclasses.replace) gets its own."""
        flat = [(k, aps) for k, user_groups in enumerate(self.groups)
                for _, aps in user_groups]
        sizes = [len(aps) for _, aps in flat]
        group_user = np.array([k for k, _ in flat], dtype=int)
        return ServingLinks(ap=np.array([m for _, aps in flat for m in aps], dtype=int),
                            user=np.repeat(group_user, sizes),
                            group_start=np.cumsum(sizes) - sizes,
                            group_user=group_user)


def _descending_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting values descending, lowest index first on ties."""
    return np.lexsort((np.arange(values.size), -values))


def order_cpus(beta_column: np.ndarray, cpu_map) -> np.ndarray:
    """Indices of the CPUs that control APs, sorted by their best LSF toward
    this user, descending. A CPU without APs (possible in a random
    deployment) is left out."""
    pools = np.array([q for q, aps in enumerate(cpu_map) if len(aps)], dtype=int)
    best = np.array([np.max(beta_column[list(cpu_map[q])]) for q in pools])
    return pools[_descending_order(best)]


def _candidate_aps(beta_column: np.ndarray, cpu_map, n_cpu: int) -> np.ndarray:
    """APs of the best min(n_cpu, non-empty pools) CPUs, ascending."""
    if n_cpu > len(cpu_map):
        raise ConfigurationError("n_cpu exceeds the number of CPUs")
    chosen = order_cpus(beta_column, cpu_map)[:n_cpu]
    aps = np.concatenate([np.asarray(cpu_map[q], dtype=int) for q in chosen])
    return np.sort(aps)


def cluster_legacy_largest_lsf(beta_column: np.ndarray, cluster_size: int) -> tuple[int, ...]:
    """The cluster_size APs with largest LSF (single-pool legacy baseline)."""
    order = _descending_order(beta_column)
    return tuple(sorted(order[: min(cluster_size, beta_column.size)]))


def cluster_lsf_threshold(beta_column: np.ndarray, cpu_map, n_cpu: int,
                          threshold: float) -> tuple[int, ...]:
    """APs of the n_cpu best CPUs whose LSF meets the threshold.

    The threshold is compared against whatever scale beta_column is given in
    (callers normalize by the noise power for the over_noise mode). If no
    candidate passes, the single best candidate AP serves the user.
    """
    candidates = _candidate_aps(beta_column, cpu_map, n_cpu)
    passing = candidates[beta_column[candidates] >= threshold]
    if passing.size == 0:
        best = candidates[_descending_order(beta_column[candidates])[0]]
        return (int(best),)
    return tuple(int(m) for m in passing)


def cluster_fixed(beta_column: np.ndarray, cpu_map, n_cpu: int,
                  n_ap: int) -> tuple[int, ...]:
    """The n_ap largest-LSF APs among the n_cpu best CPUs."""
    candidates = _candidate_aps(beta_column, cpu_map, n_cpu)
    order = _descending_order(beta_column[candidates])
    take = candidates[order[: min(n_ap, candidates.size)]]
    return tuple(sorted(int(m) for m in take))


def cluster_power(beta_column: np.ndarray, cpu_map, n_cpu: int,
                  fraction: float) -> tuple[int, ...]:
    """Smallest strongest-first AP prefix carrying >= fraction of candidate power."""
    candidates = _candidate_aps(beta_column, cpu_map, n_cpu)
    order = _descending_order(beta_column[candidates])
    sorted_beta = beta_column[candidates[order]]
    cumulative = np.cumsum(sorted_beta)
    needed = fraction * cumulative[-1]
    count = int(np.searchsorted(cumulative, needed)) + 1
    count = min(max(count, 1), candidates.size)
    return tuple(sorted(int(m) for m in candidates[order[:count]]))


def form_cluster(beta_column: np.ndarray, cpu_map, params: ClusteringParams,
                 noise_power: float = 1.0) -> tuple[int, ...]:
    """Dispatch to the configured clustering algorithm for one user."""
    if params.algorithm == "legacy_largest_lsf":
        return cluster_legacy_largest_lsf(beta_column, params.legacy_cluster_size)
    if params.algorithm == "lsf_threshold":
        column = beta_column / noise_power if params.threshold_mode == "over_noise" \
            else beta_column
        return cluster_lsf_threshold(column, cpu_map, params.n_cpu, params.lsf_threshold)
    if params.algorithm == "fixed_aps":
        return cluster_fixed(beta_column, cpu_map, params.n_cpu, params.n_ap)
    return cluster_power(beta_column, cpu_map, params.n_cpu, params.power_fraction)


def coherent_groups(cluster, cpu_map) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Partition a cluster into per-CPU coherent groups, CPU-index order.

    The SIC decode order is applied later, once desired-signal powers are
    known; here groups are listed by ascending CPU index.
    """
    cluster = set(int(m) for m in cluster)
    if not cluster:
        raise ConfigurationError("cluster must be nonempty")
    groups = []
    for q, aps in enumerate(cpu_map):
        members = tuple(sorted(cluster & set(aps)))
        if members:
            groups.append((q, members))
    return tuple(groups)


def build_serving_structure(beta: np.ndarray, cpu_map, params: ClusteringParams,
                            noise_power: float = 1.0,
                            mode: str = "mixed") -> ServingStructure:
    """Cluster every user and form groups per the transmission mode.

    mode: "mixed" groups per CPU; "coherent" one group spanning the whole
    cluster (ideal full synchronization, labeled with CPU -1 when the
    cluster spans several CPUs); "non_coherent" all-singleton groups.
    """
    if mode not in ("mixed", "coherent", "non_coherent"):
        raise ConfigurationError(f"unknown transmission mode: {mode}")
    num_aps, num_users = beta.shape
    ap_cpu = np.empty(num_aps, dtype=int)
    for q, aps in enumerate(cpu_map):
        ap_cpu[list(aps)] = q

    clusters = []
    groups = []
    for k in range(num_users):
        cluster = form_cluster(beta[:, k], cpu_map, params, noise_power)
        clusters.append(tuple(cluster))
        if mode == "coherent":
            cpus = set(int(ap_cpu[m]) for m in cluster)
            label = cpus.pop() if len(cpus) == 1 else -1
            groups.append(((label, tuple(cluster)),))
        elif mode == "non_coherent":
            groups.append(tuple((int(ap_cpu[m]), (m,)) for m in cluster))
        else:
            groups.append(coherent_groups(cluster, cpu_map))
    return ServingStructure(
        clusters=tuple(clusters),
        groups=tuple(groups),
        num_aps=num_aps,
    )
