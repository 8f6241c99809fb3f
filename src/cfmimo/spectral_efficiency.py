"""Closed-form spectral efficiency for mixed coherent/non-coherent downlink.

Each coherent group c serving user k gets an SINR of the hardening-bound
form

    gamma_k^c = D_k^c / (E_k + F_k - sum_{b<=c} D_k^b + sigma^2),

where D is the coherent desired-signal power of a group, E the total
average received power from every serving link, and F the coherent
(pilot-contaminated) cross power from co-pilot users. Groups are decoded
successively, so the partial D sum runs over the groups already decoded.

The Monte Carlo oracle estimates the same expectations by sampling
channels, pilot observations, MMSE estimates and precoders, and is the
independent check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (ChannelStatistics, channel_normals, correlate_channel,
                      correlation_sqrt)
from .clustering import ServingStructure
from .errors import ConfigurationError, DegenerateLinkError, NumericalError
from .pilots import (PilotAssignment, PowerConfig, mmse_coefficients,
                     mmse_estimate, pilot_normals, pilot_observations,
                     psi_stack)

# The oracle draws its normals ORACLE_BATCH samples at a time, which fixes
# its random stream. It transforms each batch in chunks of as many samples
# as keep the (chunk, L, K, N) link-by-user channel gather, the largest
# temporary, near ORACLE_CHUNK_SIZE complex entries (3.2 MB); the chunk
# length does not change the result.
ORACLE_BATCH = 20_000
ORACLE_CHUNK_SIZE = 200_000


@dataclass(frozen=True)
class FrameConfig:
    tau_c: int = 200    # coherence block length, samples
    tau_p: int = 10     # pilot symbols per block

    def __post_init__(self):
        if not 1 <= self.tau_p < self.tau_c:
            raise ConfigurationError("frame requires 1 <= tau_p < tau_c")

    @property
    def prelog(self) -> float:
        return (self.tau_c - self.tau_p) / self.tau_c


@dataclass(frozen=True)
class SETerms:
    """Closed-form SINR building blocks, with groups already in SIC order.

    D[k] is an array over user k's groups.
    """
    D: tuple[np.ndarray, ...]          # per-user desired powers, SIC order
    E: np.ndarray                      # (K,) total average power
    F: np.ndarray                      # (K,) coherent co-pilot power
    group_order: tuple[tuple[int, ...], ...]  # SIC permutation of serving.groups[k]


@dataclass(frozen=True)
class RateResult:
    sinr: tuple[np.ndarray, ...]       # per-user per-group, linear, SIC order
    group_rate: tuple[np.ndarray, ...]  # bits/s/Hz
    user_rate: np.ndarray              # (K,)
    sum_rate: float
    prelog: float


def mr_scale(rho: np.ndarray, est_trace: np.ndarray) -> np.ndarray:
    """(M, K) maximum-ratio scales sqrt(rho / E{||H_hat||^2}); W = scale * H_hat.

    Links with rho = 0 get scale 0. An active link (rho > 0) whose
    est_trace is not positive raises DegenerateLinkError naming it.
    """
    active = rho > 0.0
    degenerate = np.argwhere(active & (est_trace <= 0.0))
    if degenerate.size:
        m, k = degenerate[0]
        raise DegenerateLinkError(
            f"serving link (AP {m}, user {k}) has zero estimate power")
    scale = np.zeros_like(rho)
    scale[active] = np.sqrt(rho[active] / est_trace[active])
    return scale


def effective_data_powers(serving: ServingStructure, powers: PowerConfig) -> np.ndarray:
    """(M, K) per-link data powers; zero on non-serving links.

    Per-AP budget handling: "ignore" uses the nominal power as-is, "rescale"
    shrinks all of an overloaded AP's links uniformly, "error" raises.
    """
    rho = np.zeros((serving.num_aps, len(serving.groups)))
    rho[serving.links.ap, serving.links.user] = powers.data_power
    if powers.ap_power_budget is None or powers.power_budget_mode == "ignore":
        return rho
    totals = rho.sum(axis=1)
    over = totals > powers.ap_power_budget
    if not np.any(over):
        return rho
    if powers.power_budget_mode == "error":
        raise ConfigurationError(
            f"AP power budget exceeded at APs {np.flatnonzero(over).tolist()}")
    rho[over] *= (powers.ap_power_budget / totals[over])[:, None]
    return rho


def _mr_scales(serving: ServingStructure, stats: ChannelStatistics,
               assignment: PilotAssignment, powers: PowerConfig):
    """(psi_inv, est_trace, scale) shared by the closed form and the oracle.

    psi_inv is the inverse of the psi_stack, est_trace[m, i] =
    p^p tau_p tr(R[m,i] Psi[m,t_i]^-1 R[m,i]) = E{||H_hat[m,i]||^2}, and
    scale the (M, K) MR scales of the effective data powers.
    """
    psi_inv = np.linalg.inv(psi_stack(stats, assignment, powers))  # PD: sigma^2 > 0
    est_trace = powers.pilot_power * assignment.tau_p * np.einsum(
        "mkab,kmbc,mkca->mk", stats.R, psi_inv[assignment.t], stats.R,
        optimize=True).real
    return psi_inv, est_trace, mr_scale(effective_data_powers(serving, powers),
                                        est_trace)


def compute_terms(serving: ServingStructure, stats: ChannelStatistics,
                  assignment: PilotAssignment, powers: PowerConfig) -> SETerms:
    """Evaluate D_k^c, E_k and F_k for every user and coherent group.

    The sums run over the serving links l = (m, i) of serving.links, with
    MR scale s_l, p tau = p^p tau_p and A_l = R[m,i] Psi[m,t_i]^-1 (Psi at
    user i's own pilot, from the MR normalisation E{||H_hat[m,i]||^2}):

        E_k = sum_l s_l^2 p tau tr(R[m,k] A_l R[m,i]),
        F_k = sum over groups g of k's co-pilot users of
              |sum_{l in g} s_l p tau tr(A_l R[m,k])|^2,
        D_g = (sum_{l in g} s_l E{||H_hat_l||^2})^2.

    Each user's groups are put in SIC order: descending D, ties by index.
    """
    links = serving.links
    ap, user, start = links.ap, links.user, links.group_start
    psi_inv, est_trace, scale = _mr_scales(serving, stats, assignment, powers)
    s, pt = scale[ap, user], powers.pilot_power * assignment.tau_p
    R_own = stats.R[ap, user]                                   # (L, N, N)
    A = R_own @ psi_inv[assignment.t[user], ap]
    E = np.einsum("l,lkab,lbc,lca->k", s ** 2 * pt, stats.R[ap], A, R_own,
                  optimize=True).real
    # Co-pilot (link, user) pairs; every other cross amplitude is zero.
    pair_l, pair_k = np.nonzero(assignment.t[user][:, None] == assignment.t)
    amp = np.zeros((ap.size, assignment.t.size), dtype=complex)
    amp[pair_l, pair_k] = s[pair_l] * pt * np.einsum(
        "pab,pba->p", A[pair_l], stats.R[ap[pair_l], pair_k])
    F = np.sum(np.abs(np.add.reduceat(amp, start)) ** 2, axis=0)
    d = np.add.reduceat(s * est_trace[ap, user], start) ** 2

    order = np.lexsort((-d, links.group_user))
    bounds = np.flatnonzero(np.diff(links.group_user)) + 1
    return SETerms(D=tuple(np.split(d[order], bounds)), E=E, F=F,
                   group_order=tuple(tuple((o - o.min()).tolist())
                                     for o in np.split(order, bounds)))


def sinr_mixed(terms: SETerms, k: int, c: int, noise_power: float) -> float:
    """SINR of user k's c-th decoded group (c is 1-based in SIC order)."""
    d = terms.D[k]
    if not 1 <= c <= d.size:
        raise ConfigurationError(f"group index {c} out of range for user {k}")
    denom = terms.E[k] + terms.F[k] - np.sum(d[:c]) + noise_power
    if denom <= 0.0:
        raise NumericalError(
            f"non-positive SINR denominator for user {k}, group {c}")
    return float(d[c - 1] / denom)


def user_rates(terms: SETerms, serving: ServingStructure, frame: FrameConfig,
               noise_power: float) -> RateResult:
    """Per-group and per-user spectral efficiencies with the pilot prelog."""
    sinrs = []
    rates = []
    for k in range(len(serving.clusters)):
        g = np.array([sinr_mixed(terms, k, c + 1, noise_power)
                      for c in range(terms.D[k].size)])
        sinrs.append(g)
        rates.append(frame.prelog * np.log2(1.0 + g))
    user_rate = np.array([r.sum() for r in rates])
    bad = np.flatnonzero(~(np.isfinite(user_rate) & (user_rate >= 0.0)))
    if bad.size:
        raise NumericalError(f"user {bad[0]} has rate {user_rate[bad[0]]}, "
                             "not a finite non-negative number")
    return RateResult(
        sinr=tuple(sinrs),
        group_rate=tuple(rates),
        user_rate=user_rate,
        sum_rate=float(user_rate.sum()),
        prelog=frame.prelog,
    )


@dataclass(frozen=True)
class OracleResult:
    """Sample-mean estimates of the closed-form terms with standard errors.

    Group order matches the SETerms produced by compute_terms for the same
    inputs (the SIC order is taken from `terms` passed to mc_oracle).
    """
    D: tuple[np.ndarray, ...]
    D_se: tuple[np.ndarray, ...]
    E: np.ndarray
    E_se: np.ndarray
    F: np.ndarray
    F_se: np.ndarray
    sinr: tuple[np.ndarray, ...]
    sinr_se: tuple[np.ndarray, ...]
    num_samples: int


def mc_oracle(serving: ServingStructure, stats: ChannelStatistics,
              assignment: PilotAssignment, powers: PowerConfig,
              frame: FrameConfig, num_samples: int, rng: np.random.Generator,
              terms: SETerms | None = None) -> OracleResult:
    """Estimate the SINR expectations by direct simulation.

    For every sample: draw channels, simulate the pilot phase with noise,
    form MMSE estimates and MR precoders at the serving links, then
    accumulate the received amplitude a_{i,k}^b = sum_{m in A_i^b} H[m,k]^H W[m,i]
    of every group b of every user i at every user k. The estimators are

        D_k^c = |mean a_{k,k}^c|^2            (coherent desired power),
        F_k   = sum over co-pilot (i, b) of |mean a_{i,k}^b|^2,
        E_k   = sum over all (i, b) of mean |a_{i,k}^b|^2  -  F_k,

    with |mean|^2 debiased by the variance of the mean. SINRs are assembled
    exactly as the SIC chain structures them, using the group order of
    `terms` (computed internally when not supplied).
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    if terms is None:
        terms = compute_terms(serving, stats, assignment, powers)
    K = len(serving.clusters)
    psi_inv, _, w_scale = _mr_scales(serving, stats, assignment, powers)
    coef = mmse_coefficients(stats, assignment, powers, psi_inv)
    sqrt_R = correlation_sqrt(stats.R)

    links = serving.links
    s = w_scale[links.ap, links.user][:, None]      # (L, 1) MR scales
    G = links.group_start.size
    # Does group g contaminate user k?
    copilot_mask = assignment.t[links.group_user][:, None] == assignment.t

    # Streaming moments of a (complex) and |a|^2 per (group, observing user).
    sum_a = np.zeros((G, K), dtype=complex)
    sum_a2 = np.zeros((G, K))          # sum of |a|^2
    sum_re2 = np.zeros((G, K))         # for the variance of Re/Im of a
    sum_im2 = np.zeros((G, K))
    sum_p2 = np.zeros((G, K))          # sum of |a|^4

    noise = stats.noise_power
    step = max(1, ORACLE_CHUNK_SIZE // (links.ap.size * K * stats.num_antennas))
    for start in range(0, num_samples, ORACLE_BATCH):
        g = channel_normals(stats, rng, min(ORACLE_BATCH, num_samples - start))
        z = pilot_normals(g.shape[1:], assignment, rng)
        for lo in range(0, g.shape[1], step):
            chunk = slice(lo, lo + step)
            H = correlate_channel(sqrt_R, g[:, chunk])              # (c,M,K,N)
            y = pilot_observations(H, z[:, chunk], assignment, powers, noise)
            W = s * mmse_estimate(y, coef, assignment, links)        # (c,L,N)
            # a at every link and user, sum_n conj(H[m,k,n]) W[l,n], as the
            # conjugate of N broadcast products (faster than einsum here).
            H_l, W_c = H[:, links.ap], np.conj(W)[:, :, None, :]    # (c,L,K,N)
            amp = H_l[..., 0] * W_c[..., 0]
            for n in range(1, W.shape[-1]):
                amp += H_l[..., n] * W_c[..., n]
            a = np.conj(np.add.reduceat(amp, links.group_start, axis=1))  # (c,G,K)
            sum_a += a.sum(axis=0)
            p = np.abs(a) ** 2
            sum_a2 += p.sum(axis=0)
            sum_re2 += (a.real ** 2).sum(axis=0)
            sum_im2 += (a.imag ** 2).sum(axis=0)
            sum_p2 += (p ** 2).sum(axis=0)
        del g, z          # free this batch before the next one is drawn

    S = float(num_samples)
    mean_a = sum_a / S
    var_re = np.maximum(sum_re2 / S - mean_a.real ** 2, 0.0)
    var_im = np.maximum(sum_im2 / S - mean_a.imag ** 2, 0.0)
    var_mean = (var_re + var_im) / S
    mean_p = sum_a2 / S
    var_p = np.maximum(sum_p2 / S - mean_p ** 2, 0.0)

    coh = np.abs(mean_a) ** 2 - var_mean       # debiased |E{a}|^2
    coh = np.maximum(coh, 0.0)
    coh_se = 2.0 * np.abs(mean_a) * np.sqrt(var_mean) + var_mean

    total = mean_p.sum(axis=0)                         # (K,)
    total_se2 = (var_p / S).sum(axis=0)
    F_hat = np.where(copilot_mask, coh, 0.0).sum(axis=0)
    F_se = np.sqrt(np.where(copilot_mask, coh_se ** 2, 0.0).sum(axis=0))
    E_hat = total - F_hat
    E_se = np.sqrt(total_se2 + F_se ** 2)

    # Per-user desired groups, mapped into the SIC order recorded in `terms`.
    D_hat: list[np.ndarray] = []
    D_se: list[np.ndarray] = []
    sinr: list[np.ndarray] = []
    sinr_se: list[np.ndarray] = []
    for k in range(K):
        order = list(terms.group_order[k])
        rows = np.flatnonzero(links.group_user == k)
        if len(order) != rows.size:
            raise NumericalError("group count mismatch between terms and serving")
        d = coh[rows[order], k]
        d_se = coh_se[rows[order], k]
        D_hat.append(d)
        D_se.append(d_se)
        g = np.empty(d.size)
        g_se = np.empty(d.size)
        for c in range(d.size):
            denom = total[k] - np.sum(d[: c + 1]) + noise
            g[c] = d[c] / denom
            # Absolute form: stays finite when a clipped d is 0.
            g_se[c] = np.sqrt((d_se[c] / denom) ** 2 + g[c] ** 2
                              * (total_se2[k] + np.sum(d_se[: c + 1] ** 2))
                              / denom ** 2)
        sinr.append(g)
        sinr_se.append(g_se)

    return OracleResult(
        D=tuple(D_hat), D_se=tuple(D_se), E=E_hat, E_se=E_se,
        F=F_hat, F_se=F_se, sinr=tuple(sinr), sinr_se=tuple(sinr_se),
        num_samples=num_samples,
    )
