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

import math
from dataclasses import dataclass

import numpy as np

from . import planes
from .channel import ChannelStatistics, correlate_channel, correlation_sqrt
from .clustering import ServingLinks, ServingStructure
from .errors import ConfigurationError, DegenerateLinkError, NumericalError
from .pilots import (EstimationTerms, PilotAssignment, PowerConfig,
                     estimation_terms, mmse_estimate, pilot_observations)

# The oracle samples in blocks of ORACLE_BLOCK samples, each drawn from a
# generator of its own, which fixes its random stream and bounds its memory
# at one block of normals at any scale. It transforms each block in chunks
# of as many samples as keep the (chunk, L, K, N) link-by-user channel
# gather, the largest temporary, near ORACLE_CHUNK_SIZE complex entries
# (3.2 MB); the chunk length does not change the result.
ORACLE_BLOCK = 1_000
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
    user_rate: np.ndarray              # (K,) bits/s/Hz
    sum_rate: float


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


def compute_terms(serving: ServingStructure, stats: ChannelStatistics,
                  assignment: PilotAssignment, powers: PowerConfig,
                  estimation: EstimationTerms) -> SETerms:
    """Evaluate D_k^c, E_k and F_k for every user and coherent group.

    estimation is estimation_terms(stats, assignment, powers), which every
    serving structure and data power of the drop can share.

    The sums run over the serving links l = (m, i) of serving.links, with
    MR scale s_l, a = sqrt(p^p tau_p) and the MMSE estimator
    A_l = estimation.coef[m, i] = a R[m,i] Psi[m,t_i]^-1 (Psi at user i's
    own pilot, from the MR normalisation E{||H_hat[m,i]||^2}):

        E_k = sum_l s_l^2 a tr(R[m,k] A_l R[m,i]),
        F_k = sum over groups g of k's co-pilot users of
              |sum_{l in g} s_l a tr(A_l R[m,k])|^2,
        D_g = (sum_{l in g} s_l E{||H_hat_l||^2})^2.

    The N x N products and traces run on entry planes (cfmimo.planes), and
    E is summed per AP first: E_k = sum_m tr(R[m,k] W_m), with W_m the sum
    of s_l^2 A_l R[m,i] a over AP m's links. Each user's groups are put in
    SIC order: descending D, ties by index.
    """
    links = serving.links
    ap, user, start = links.ap, links.user, links.group_start
    est_trace = estimation.est_trace
    scale = mr_scale(effective_data_powers(serving, powers), est_trace)
    s, a = scale[ap, user], np.sqrt(powers.pilot_power * assignment.tau_p)
    R = planes.planes(stats.R)                                  # (N, N, M, K)
    n, _, num_aps, num_users = R.shape
    # np.take keeps the gathered planes contiguous; indexing the trailing
    # axes with index arrays would not.
    R_flat, link = R.reshape(n, n, -1), ap * num_users + user
    A = np.take(planes.planes(estimation.coef).reshape(n, n, -1), link, axis=-1)
    # W by bincounts of the links' planes, then E as one product of W with
    # the (N*N*M, K) planes of R.
    B = ((s ** 2 * a) * planes.product(A, np.take(R_flat, link, axis=-1))).ravel()
    into = (np.arange(n * n)[:, None] * num_aps + ap).ravel()   # (entry, AP)
    W = (np.bincount(into, B.real, n * n * num_aps)
         + 1j * np.bincount(into, B.imag, n * n * num_aps)).reshape(n, n, num_aps)
    E = (W.swapaxes(0, 1).ravel() @ R.reshape(-1, num_users)).real
    # Co-pilot (link, user) pairs; every other cross amplitude is zero.
    pair_l, pair_k = np.nonzero(assignment.t[user][:, None] == assignment.t)
    amp = np.zeros((ap.size, num_users), dtype=complex)
    amp[pair_l, pair_k] = s[pair_l] * a * planes.trace_product(
        np.take(A, pair_l, axis=-1),
        np.take(R_flat, ap[pair_l] * num_users + pair_k, axis=-1))
    F = np.sum(np.abs(np.add.reduceat(amp, start)) ** 2, axis=0)
    d = np.add.reduceat(s * est_trace[ap, user], start) ** 2

    order = np.lexsort((-d, links.group_user))
    bounds = np.flatnonzero(np.diff(links.group_user, prepend=-1, append=-1)).tolist()
    cuts = list(zip(bounds[:-1], bounds[1:]))              # each user's groups
    d = d[order]
    return SETerms(D=tuple(d[lo:hi] for lo, hi in cuts), E=E, F=F,
                   group_order=tuple(tuple((order[lo:hi] - lo).tolist())
                                     for lo, hi in cuts))


def user_rates(terms: SETerms, frame: FrameConfig,
               noise_power: float) -> RateResult:
    """Per-user spectral efficiencies with the pilot prelog.

    Group c of user k, in SIC order, has the SINR
    D_k^c / (E_k + F_k - sum_{b<=c} D_k^b + sigma^2), and user k the rate
    prelog * sum_c log2(1 + SINR_k^c).
    """
    sizes = np.array([d.size for d in terms.D])
    first = np.cumsum(sizes) - sizes
    d = np.concatenate(terms.D)
    # Each user's decoded-D partial sums, from a cumsum within that user
    # only, which keeps them exact at any number of users.
    decoded = np.arange(sizes.max()) < sizes[:, None]      # (K, most groups)
    padded = np.zeros(decoded.shape)
    padded[decoded] = d
    denom = (np.repeat(terms.E + terms.F, sizes)
             - np.cumsum(padded, axis=1)[decoded] + noise_power)
    bad = np.flatnonzero(denom <= 0.0)
    if bad.size:
        k = int(np.searchsorted(first, bad[0], side="right")) - 1
        raise NumericalError(f"non-positive SINR denominator for user {k}, "
                             f"group {bad[0] - first[k] + 1}")
    sinr = d / denom
    user_rate = np.add.reduceat(frame.prelog * np.log2(1.0 + sinr), first)
    bad = np.flatnonzero(~(np.isfinite(user_rate) & (user_rate >= 0.0)))
    if bad.size:
        raise NumericalError(f"user {bad[0]} has rate {user_rate[bad[0]]}, "
                             "not a finite non-negative number")
    cuts = (*first.tolist(), sinr.size)
    return RateResult(sinr=tuple(sinr[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])),
                      user_rate=user_rate, sum_rate=float(user_rate.sum()))


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


def _normals_into(buf: np.ndarray, shape: tuple[int, ...],
                  rng: np.random.Generator) -> np.ndarray:
    """Standard normals of the given shape, drawn into the leading entries of
    the flat buffer buf: the stream of rng.standard_normal(shape)."""
    return rng.standard_normal(out=buf[:math.prod(shape)].reshape(shape))


@dataclass(frozen=True)
class _OraclePlan:
    """What every oracle block reads; mc_oracle builds it once per call."""
    sqrt_R: np.ndarray            # (M, K, N, N) R^(1/2)
    w_coef: np.ndarray            # (M, K, N, N) MR-scaled estimator, s coef
    links: ServingLinks
    assignment: PilotAssignment
    powers: PowerConfig
    noise_power: float
    step: int                     # samples per transform chunk


def _block_moments(plan: _OraclePlan, rngs, sizes):
    """Yield the moment sums of each block in turn: block b draws sizes[b]
    samples from rngs[b], into two buffers that the blocks share.

    The sums, per (group, observing user), are those of a, |a|^2, Re(a)^2,
    Im(a)^2 and |a|^4.
    """
    M, K, N = plan.sqrt_R.shape[:3]
    tau_p, links = plan.assignment.tau_p, plan.links
    G = links.group_start.size
    g_buf = np.empty(2 * max(sizes) * M * K * N)
    z_buf = np.empty(2 * max(sizes) * tau_p * M * N)
    for rng, n in zip(rngs, sizes):
        g = _normals_into(g_buf, (2, n, M, K, N), rng)
        z = _normals_into(z_buf, (2, n, tau_p, M, N), rng)
        sums = (np.zeros((G, K), dtype=complex), *np.zeros((4, G, K)))
        for lo in range(0, n, plan.step):
            chunk = slice(lo, lo + plan.step)
            H = correlate_channel(plan.sqrt_R, g[:, chunk])         # (c,M,K,N)
            y = pilot_observations(H, z[:, chunk], plan.assignment,
                                   plan.powers, plan.noise_power)
            W = mmse_estimate(y, plan.w_coef, plan.assignment, links)  # (c,L,N)
            # a at every link and user, sum_n conj(H[m,k,n]) W[l,n], as the
            # conjugate of N broadcast products (faster than einsum here).
            H_l, W_c = H[:, links.ap], np.conj(W)[:, :, None, :]    # (c,L,K,N)
            amp = H_l[..., 0] * W_c[..., 0]
            for i in range(1, N):
                amp += H_l[..., i] * W_c[..., i]
            a = np.conj(np.add.reduceat(amp, links.group_start, axis=1))  # (c,G,K)
            p = np.abs(a) ** 2
            for total, part in zip(sums, (a, p, a.real ** 2, a.imag ** 2,
                                          p ** 2)):
                total += part.sum(axis=0)
        yield sums


def _block_run(plan: _OraclePlan, rngs, sizes) -> list:
    """The moment sums of a run of blocks, as a list a worker can return."""
    return list(_block_moments(plan, rngs, sizes))


def _add_in_order(blocks):
    """The element-wise total of the blocks' moment sums, added in order."""
    blocks = iter(blocks)
    total = next(blocks)
    for block in blocks:
        for t, b in zip(total, block):
            t += b
    return total


def mc_oracle(serving: ServingStructure, stats: ChannelStatistics,
              assignment: PilotAssignment, powers: PowerConfig,
              frame: FrameConfig, num_samples: int, rng: np.random.Generator,
              terms: SETerms, jobs: int = 1) -> OracleResult:
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
    `terms`, the closed-form terms of the same inputs.

    The samples are drawn in blocks of ORACLE_BLOCK, block b from the b-th
    generator of rng.spawn. With jobs > 1 the blocks run in a pool of
    min(jobs, blocks) worker processes; their sums are added in block order
    either way, so the result does not depend on jobs.
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    estimation = estimation_terms(stats, assignment, powers)
    K = len(serving.clusters)
    w_scale = mr_scale(effective_data_powers(serving, powers),
                       estimation.est_trace)
    links = serving.links
    plan = _OraclePlan(
        sqrt_R=correlation_sqrt(stats.R),
        w_coef=w_scale[..., None, None] * estimation.coef, links=links,
        assignment=assignment, powers=powers, noise_power=stats.noise_power,
        step=max(1, ORACLE_CHUNK_SIZE // (links.ap.size * K * stats.num_antennas)))
    sizes = [min(ORACLE_BLOCK, num_samples - lo)
             for lo in range(0, num_samples, ORACLE_BLOCK)]
    rngs = rng.spawn(len(sizes))
    workers = min(jobs, len(sizes))
    if workers > 1:
        # Imported here, as in harness._run_grid: serial calls never need
        # the pool machinery. Runs of consecutive blocks, about four per
        # worker, balance the load.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        per_run = -(-len(sizes) // (4 * workers))
        runs = [slice(lo, lo + per_run) for lo in range(0, len(sizes), per_run)]
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            parts = pool.map(_block_run, [plan] * len(runs),
                             [rngs[r] for r in runs], [sizes[r] for r in runs])
            sums = _add_in_order(b for part in parts for b in part)
    else:
        sums = _add_in_order(_block_moments(plan, rngs, sizes))
    sum_a, sum_a2, sum_re2, sum_im2, sum_p2 = sums
    # Does group g contaminate user k?
    copilot_mask = assignment.t[links.group_user][:, None] == assignment.t
    noise = stats.noise_power

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
