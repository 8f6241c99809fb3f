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

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .views import TupleView, set_flat, views_given

ALGORITHMS = ("legacy_largest_lsf", "lsf_threshold", "fixed_aps", "power_fraction")
THRESHOLD_MODES = ("over_noise", "raw_linear")
TRANSMISSION_MODES = ("coherent", "non_coherent", "mixed")


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
    group_start[g] up to the next group's start, serves group_user[g] and
    lies within the AP pool of CPU group_cpu[g], or -1 when it spans
    several. Users, their groups and each group's APs keep the order of
    ServingStructure.groups.
    """
    ap: np.ndarray              # (L,)
    user: np.ndarray            # (L,)
    group_start: np.ndarray     # (G,)
    group_user: np.ndarray      # (G,)
    group_cpu: np.ndarray       # (G,)


def _segments(items: list, counts) -> tuple[tuple, ...]:
    """items cut into consecutive tuples of counts[i] items each."""
    bounds = [0, *np.cumsum(counts).tolist()]
    return tuple(tuple(items[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))


def _clusters(serving: ServingStructure) -> tuple[tuple[int, ...], ...]:
    """Each user's APs in ascending order, from the links."""
    links = serving.links
    ap = links.ap[np.lexsort((links.ap, links.user))]
    return _segments(ap.tolist(),
                     np.bincount(links.user, minlength=serving.num_users))


def _groups(serving: ServingStructure):
    """Each user's (CPU label, AP tuple) groups, from the links."""
    links = serving.links
    aps = _segments(links.ap.tolist(), np.diff(links.group_start,
                                               append=links.ap.size))
    return _segments(list(zip(links.group_cpu.tolist(), aps)),
                     np.bincount(links.group_user, minlength=serving.num_users))


def _links(groups) -> ServingLinks:
    """groups flattened into serving links."""
    flat = [(k, cpu, aps) for k, user_groups in enumerate(groups)
            for cpu, aps in user_groups]
    sizes = [len(aps) for _, _, aps in flat]
    group_user = np.array([k for k, _, _ in flat], dtype=int)
    return ServingLinks(ap=np.array([m for *_, aps in flat for m in aps], dtype=int),
                        user=np.repeat(group_user, sizes),
                        group_start=np.cumsum(sizes) - sizes,
                        group_user=group_user,
                        group_cpu=np.array([cpu for _, cpu, _ in flat], dtype=int))


@dataclass(frozen=True, kw_only=True)
class ServingStructure:
    """Clusters A_k and their per-CPU coherent groups.

    links holds every serving link and group of num_users users; the
    stages read it alone. A stack of P points over the same K users (see
    build_serving_structure) holds P*K users, user k of point p at index
    p*K + k.

    clusters[k] and groups[k] are views of the links (cfmimo.views):
    groups[k] is a tuple of (cpu_index, ap_tuple) pairs, disjoint tuples
    each within a single CPU's AP pool, and their union is clusters[k],
    in ascending order. Given instead of links, as in
    ServingStructure(clusters=..., groups=...) or
    dataclasses.replace(serving, groups=...), groups sets the links and
    num_users.
    """
    clusters: tuple[tuple[int, ...], ...] = TupleView(_clusters)
    groups: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...] = TupleView(_groups)
    links: ServingLinks = field(default=None, repr=False, compare=False)
    num_users: int = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if views_given(self):
            if "groups" not in self.__dict__:
                raise TypeError("ServingStructure views need groups, "
                                "which set the links")
            set_flat(self, links=_links(self.groups), num_users=len(self.groups))
        elif self.links is None:
            raise TypeError("ServingStructure needs links or groups")


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


def build_serving_structure(beta: np.ndarray, ap_to_cpu: np.ndarray, num_cpus: int,
                            params: ClusteringParams | Sequence[ClusteringParams],
                            noise_power: float = 1.0,
                            mode: str | Sequence[str] = "mixed") -> ServingStructure:
    """Cluster every user and form groups per the transmission mode.

    mode: "mixed" one group per (user, CPU), in CPU-index order; "coherent"
    one group spanning the whole cluster (ideal full synchronization,
    labeled with CPU -1 when the cluster spans several CPUs);
    "non_coherent" one single-AP group per serving link. The SIC decode
    order is applied later, once the desired-signal powers are known.

    params and mode may also be sequences, one entry per point of a stack
    of P points on the same beta (a mode string applies to every point):
    user k of point p is then virtual user p*K + k of one structure over
    P*K users. serving_mask runs once per distinct params, since the mode
    does not enter the mask.
    """
    if isinstance(params, ClusteringParams):
        params = (params,)
    modes = (mode,) * len(params) if isinstance(mode, str) else tuple(mode)
    for m in modes:
        if m not in TRANSMISSION_MODES:
            raise ConfigurationError(f"unknown transmission mode: {m}")
    if len(modes) != len(params):
        raise ConfigurationError(f"{len(params)} clustering params for "
                                 f"{len(modes)} transmission modes")
    masks = {p: serving_mask(beta, ap_to_cpu, num_cpus, p, noise_power).T
             for p in dict.fromkeys(params)}
    point, user, ap = np.nonzero(np.stack([masks[p] for p in params]))  # (P, K, M)
    user += point * beta.shape[1]                               # virtual users
    cpu = ap_to_cpu[ap]
    mixed = np.array([m == "mixed" for m in modes])[point]
    single = np.array([m == "non_coherent" for m in modes])[point]
    # Mixed links go CPU by CPU within their user; the others keep AP order.
    order = np.lexsort((ap, np.where(mixed, cpu, 0), user))
    user, ap, cpu, mixed, single = (x[order] for x in (user, ap, cpu, mixed, single))
    new_group = (np.diff(user) != 0) | single[1:] | (mixed[1:] & (np.diff(cpu) != 0))
    start = np.flatnonzero(np.concatenate(([True], new_group)))
    low, high = np.minimum.reduceat(cpu, start), np.maximum.reduceat(cpu, start)
    return ServingStructure(
        num_users=len(params) * beta.shape[1],
        links=ServingLinks(ap=ap, user=user, group_start=start,
                           group_user=user[start],
                           group_cpu=np.where(low == high, low, -1)))
