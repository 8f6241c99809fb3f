"""User-centric AP clustering and per-CPU coherent group formation.

The clusters of all users are one (M, K) serving mask, the per-user
selection matrices D_k of Demir, Björnson & Sanguinetti, *Foundations of
User-Centric Cell-Free Massive MIMO* (2021), formed for every user at once
as in Björnson & Sanguinetti, "Scalable Cell-Free Massive MIMO Systems"
(IEEE TCOM 2020). Three multi-CPU-aware algorithms (threshold on
large-scale fading, fixed AP count, received-power fraction) restrict the
candidate APs to the n_cpu CPUs with the best LSF toward the user before
selecting (CPUs that control no AP are never candidates); setting n_cpu = Q
recovers the corresponding single-pool legacy scheme. All ties break
toward the lowest index so results are reproducible.
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
        """groups flattened into serving links. build_serving_structure hands
        them over; a structure made otherwise, such as a copy with other
        groups (dataclasses.replace), derives its own on first use."""
        flat = [(k, aps) for k, user_groups in enumerate(self.groups)
                for _, aps in user_groups]
        sizes = [len(aps) for _, aps in flat]
        group_user = np.array([k for k, _ in flat], dtype=int)
        return ServingLinks(ap=np.array([m for _, aps in flat for m in aps], dtype=int),
                            user=np.repeat(group_user, sizes),
                            group_start=np.cumsum(sizes) - sizes,
                            group_user=group_user)


def _descending_rank(values: np.ndarray) -> np.ndarray:
    """Rank of each entry within its column, 0 for the largest; equal
    values rank the lower row index first."""
    order = np.argsort(-values, axis=0, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(values.shape[0])[:, None], axis=0)
    return rank


def serving_mask(beta: np.ndarray, ap_to_cpu: np.ndarray, num_cpus: int,
                 params: ClusteringParams, noise_power: float = 1.0) -> np.ndarray:
    """(M, K) boolean mask of the clusters: mask[m, k] when AP m serves user k.

    beta is the (M, K) large-scale fading; ap_to_cpu[m] is the CPU, one of
    num_cpus, that controls AP m. Every user gets at least one AP. The
    multi-CPU algorithms reject an n_cpu above num_cpus, CPUs without APs
    included; the legacy algorithm ignores n_cpu.
    """
    if params.algorithm == "legacy_largest_lsf":
        return _descending_rank(beta) < params.legacy_cluster_size
    if params.n_cpu > num_cpus:
        raise ConfigurationError("n_cpu exceeds the number of CPUs")
    if params.algorithm == "lsf_threshold" and params.threshold_mode == "over_noise":
        beta = beta / noise_power

    # Best LSF of each CPU toward each user, -inf for a CPU without APs.
    by_cpu = np.argsort(ap_to_cpu, kind="stable")
    pool = np.bincount(ap_to_cpu, minlength=num_cpus)
    best = np.full((num_cpus, beta.shape[1]), -np.inf)
    best[pool > 0] = np.maximum.reduceat(beta[by_cpu], (np.cumsum(pool) - pool)[pool > 0],
                                         axis=0)
    candidate = _descending_rank(best)[ap_to_cpu] < params.n_cpu
    strength = np.where(candidate, beta, -np.inf)

    if params.algorithm == "lsf_threshold":
        mask = candidate & (beta >= params.lsf_threshold)
        # A user with no passing candidate is served by its best candidate.
        alone = np.flatnonzero(~mask.any(axis=0))
        mask[np.argmax(strength[:, alone], axis=0), alone] = True
        return mask
    rank = _descending_rank(strength)          # candidates take the first ranks
    if params.algorithm == "fixed_aps":
        return candidate & (rank < params.n_ap)
    # power_fraction: the shortest strongest-first prefix of the candidates
    # that carries at least the fraction delta of their total LSF.
    cumulative = np.cumsum(np.sort(np.where(candidate, beta, 0.0), axis=0)[::-1], axis=0)
    count = np.sum(cumulative < params.power_fraction * cumulative[-1], axis=0) + 1
    return rank < np.clip(count, 1, candidate.sum(axis=0))


def _segments(items: list, cuts: np.ndarray) -> tuple[tuple, ...]:
    """items cut into consecutive tuples before each index in cuts."""
    bounds = [0, *cuts.tolist(), len(items)]
    return tuple(tuple(items[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))


def build_serving_structure(beta: np.ndarray, ap_to_cpu: np.ndarray, num_cpus: int,
                            params: ClusteringParams, noise_power: float = 1.0,
                            mode: str = "mixed") -> ServingStructure:
    """Cluster every user and form groups per the transmission mode.

    mode: "mixed" one group per (user, CPU), in CPU-index order; "coherent"
    one group spanning the whole cluster (ideal full synchronization,
    labeled with CPU -1 when the cluster spans several CPUs);
    "non_coherent" one single-AP group per serving link. The SIC decode
    order is applied later, once the desired-signal powers are known.
    """
    if mode not in ("mixed", "coherent", "non_coherent"):
        raise ConfigurationError(f"unknown transmission mode: {mode}")
    user, ap = np.nonzero(serving_mask(beta, ap_to_cpu, num_cpus, params, noise_power).T)
    clusters = _segments(ap.tolist(), np.flatnonzero(np.diff(user)) + 1)
    cpu = ap_to_cpu[ap]
    if mode == "mixed":
        order = np.lexsort((ap, cpu, user))
        user, ap, cpu = user[order], ap[order], cpu[order]
        new_group = (np.diff(user) != 0) | (np.diff(cpu) != 0)
    elif mode == "coherent":
        new_group = np.diff(user) != 0
    else:
        new_group = np.ones(ap.size - 1, dtype=bool)
    start = np.flatnonzero(np.concatenate(([True], new_group)))
    low, high = np.minimum.reduceat(cpu, start), np.maximum.reduceat(cpu, start)
    groups = list(zip(np.where(low == high, low, -1).tolist(),
                      _segments(ap.tolist(), start[1:])))
    serving = ServingStructure(
        clusters=clusters,
        groups=_segments(groups, np.flatnonzero(np.diff(user[start])) + 1),
        num_aps=beta.shape[0],
    )
    # The sorted arrays are the links that serving.links would derive from
    # the groups; set in the instance, they take the cached property's place.
    object.__setattr__(serving, "links", ServingLinks(
        ap=ap, user=user, group_start=start, group_user=user[start]))
    return serving
