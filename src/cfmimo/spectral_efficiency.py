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
from functools import partial
from itertools import chain

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


def effective_data_powers(serving: ServingStructure, powers: PowerConfig,
                          num_users: int | None = None) -> np.ndarray:
    """(M, P*K) per-link data powers of a stack of P points over num_users
    users each (default: one point); zero on non-serving links.

    Per-AP budget handling, point by point: "ignore" uses the nominal power
    as-is, "rescale" shrinks all of an overloaded AP's links uniformly,
    "error" raises.
    """
    rho = np.zeros((serving.num_aps, len(serving.groups)))
    rho[serving.links.ap, serving.links.user] = powers.data_power
    if powers.ap_power_budget is None or powers.power_budget_mode == "ignore":
        return rho
    per_point = rho.reshape(serving.num_aps, -1, num_users or rho.shape[1])
    totals = per_point.sum(axis=2)                              # (M, P)
    over = totals > powers.ap_power_budget
    if not np.any(over):
        return rho
    if powers.power_budget_mode == "error":
        raise ConfigurationError(f"AP power budget exceeded at APs "
                                 f"{np.flatnonzero(over.any(axis=1)).tolist()}")
    per_point[over] *= (powers.ap_power_budget / totals[over])[:, None]
    return rho


def compute_terms(serving: ServingStructure, stats: ChannelStatistics,
                  assignment: PilotAssignment, powers: PowerConfig,
                  estimation: EstimationTerms) -> SETerms:
    """Evaluate D_k^c, E_k and F_k for every user and coherent group.

    estimation is estimation_terms(stats, assignment, powers), which every
    serving structure and data power of the drop can share. serving may be
    a stack of P points over the drop's K users (build_serving_structure);
    the terms are then those of its P*K virtual users, each point's
    computed apart from the others' by the same operations as on its own.

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
    ap, start = links.ap, links.group_start
    R = planes.planes(stats.R)                                  # (N, N, M, K)
    n, _, num_aps, num_users = R.shape
    stack, rest = divmod(len(serving.groups), num_users)
    if rest:
        raise ConfigurationError(f"{len(serving.groups)} served users is not a "
                                 f"whole number of points of {num_users} users")
    point, user = np.divmod(links.user, num_users)    # physical user of a link
    est_trace = estimation.est_trace
    scale = mr_scale(effective_data_powers(serving, powers, num_users),
                     np.tile(est_trace, stack))
    s, a = scale[ap, links.user], np.sqrt(powers.pilot_power * assignment.tau_p)
    # np.take keeps the gathered planes contiguous; indexing the trailing
    # axes with index arrays would not.
    R_flat, link = R.reshape(n, n, -1), ap * num_users + user
    A = np.take(planes.planes(estimation.coef).reshape(n, n, -1), link, axis=-1)
    # W of every (point, AP) by bincounts of the links' planes, then E of
    # each point as the product of its W with the (N*N*M, K) planes of R.
    # A batched matmul makes one vector-matrix product per point, as a
    # single point's would; one matrix product of the stacked W would
    # change the last bits of E.
    B = ((s ** 2 * a) * planes.product(A, np.take(R_flat, link, axis=-1))).ravel()
    bins = stack * n * n * num_aps
    into = ((point * n * n + np.arange(n * n)[:, None]) * num_aps + ap).ravel()
    W = (np.bincount(into, B.real, bins)
         + 1j * np.bincount(into, B.imag, bins)).reshape(stack, n, n, num_aps)
    E = np.matmul(W.swapaxes(1, 2).reshape(stack, 1, -1),
                  R.reshape(-1, num_users)).real.ravel()
    # Co-pilot (link, user) pairs within the link's point; every other
    # cross amplitude is zero.
    pair_l, pair_k = np.nonzero(assignment.t[user][:, None] == assignment.t)
    amp = np.zeros((ap.size, num_users), dtype=complex)
    amp[pair_l, pair_k] = s[pair_l] * a * planes.trace_product(
        np.take(A, pair_l, axis=-1),
        np.take(R_flat, ap[pair_l] * num_users + pair_k, axis=-1))
    # np.sum over each point's groups, as on a point alone: np.add.reduceat
    # adds in another order and would change the last bits of F.
    power = np.abs(np.add.reduceat(amp, start)) ** 2            # (groups, K)
    firsts = np.searchsorted(point[start], np.arange(1, stack))   # first groups
    F = np.concatenate([np.sum(part, axis=0) for part in np.split(power, firsts)])
    d = np.add.reduceat(s * est_trace[ap, user], start) ** 2

    order = np.lexsort((-d, links.group_user))
    bounds = np.flatnonzero(np.diff(links.group_user, prepend=-1, append=-1)).tolist()
    cuts = list(zip(bounds[:-1], bounds[1:]))              # each user's groups
    d = d[order]
    return SETerms(D=tuple(d[lo:hi] for lo, hi in cuts), E=E, F=F,
                   group_order=tuple(tuple((order[lo:hi] - lo).tolist())
                                     for lo, hi in cuts))


def _sic_partial_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per group, the sum of values over its user's groups up to and
    including it, SIC order: values is flat over the users' groups, user k
    having sizes[k] of them. The cumsum runs within each user only, which
    keeps the sums exact at any number of users."""
    decoded = np.arange(sizes.max()) < sizes[:, None]      # (K, most groups)
    padded = np.zeros(decoded.shape)
    padded[decoded] = values
    return np.cumsum(padded, axis=1)[decoded]


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
    denom = (np.repeat(terms.E + terms.F, sizes)
             - _sic_partial_sums(d, sizes) + noise_power)
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


def _block_moments(plan: _OraclePlan, run) -> list:
    """The moment sums of each (rng, n) block of a run, in block order: the
    block draws n samples from rng, into two buffers that the run's blocks
    share.

    The sums, per (group, observing user), are those of a, |a|^2, Re(a)^2,
    Im(a)^2 and |a|^4.
    """
    M, K, N = plan.sqrt_R.shape[:3]
    tau_p, links = plan.assignment.tau_p, plan.links
    G = links.group_start.size
    most = max(n for _, n in run)
    g_buf = np.empty(2 * most * M * K * N)
    z_buf = np.empty(2 * most * tau_p * M * N)
    blocks = []
    for rng, n in run:
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
        blocks.append(sums)
    return blocks


def _add_in_order(blocks):
    """The element-wise total of the blocks' moment sums, added in order."""
    blocks = iter(blocks)
    total = next(blocks)
    for block in blocks:
        for t, b in zip(total, block):
            t += b
    return total


def map_in_runs(fn, items, jobs: int):
    """Stream fn's results for items, one per item, in item order.

    fn maps a run of consecutive items to the list of their results. The
    runs hold ceil(n / 4w) of the n items each, w = min(jobs, n), and run in
    this process at w = 1, else over one pool of w worker processes started
    with the platform's default method."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(items))
    per_run = -(-len(items) // (4 * workers))
    runs = [items[lo:lo + per_run] for lo in range(0, len(items), per_run)]
    if workers < 2:
        yield from chain.from_iterable(map(fn, runs))
        return
    # Imported here: the pool machinery adds about 2 MB to the resident
    # size of every process that loads it, and serial runs never need it.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) as pool:
        yield from chain.from_iterable(pool.map(fn, runs))


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

    with |mean|^2 debiased by the variance of the mean. The SINRs follow the
    SIC chain of user_rates in the group order of `terms`, the closed-form
    terms of the same inputs, with the same within-user partial sums of D:
    D_k^c / (sum_{i,b} mean |a_{i,k}^b|^2 - sum_{b<=c} D_k^b + sigma^2).

    The samples are drawn in blocks of ORACLE_BLOCK, block b from the b-th
    generator of rng.spawn. The blocks run through map_in_runs over at
    most jobs worker processes, and their sums are added in block order, so
    the result does not depend on jobs.
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    estimation = estimation_terms(stats, assignment, powers)
    K = stats.num_users
    w_scale = mr_scale(effective_data_powers(serving, powers),
                       estimation.est_trace)
    links = serving.links
    sizes = np.fromiter(map(len, terms.group_order), dtype=int,
                        count=len(terms.group_order))    # groups per user
    if not np.array_equal(sizes, np.bincount(links.group_user, minlength=K)):
        raise NumericalError("group count mismatch between terms and serving")
    plan = _OraclePlan(
        sqrt_R=correlation_sqrt(stats.R),
        w_coef=w_scale[..., None, None] * estimation.coef, links=links,
        assignment=assignment, powers=powers, noise_power=stats.noise_power,
        step=max(1, ORACLE_CHUNK_SIZE // (links.ap.size * K * stats.num_antennas)))
    samples = [min(ORACLE_BLOCK, num_samples - lo)
               for lo in range(0, num_samples, ORACLE_BLOCK)]
    blocks = list(zip(rng.spawn(len(samples)), samples))
    sum_a, sum_a2, sum_re2, sum_im2, sum_p2 = _add_in_order(
        map_in_runs(partial(_block_moments, plan), blocks, jobs))
    # Does group g contaminate user k?
    copilot_mask = assignment.t[links.group_user][:, None] == assignment.t

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

    # Each user's groups in the SIC order of `terms`, as flat group indices.
    first = np.cumsum(sizes) - sizes
    sic = np.fromiter(chain.from_iterable(terms.group_order), dtype=int,
                      count=sizes.sum()) + np.repeat(first, sizes)
    user = links.group_user[sic]
    d, d_se = coh[sic, user], coh_se[sic, user]
    denom = (np.repeat(total, sizes) - _sic_partial_sums(d, sizes)
             + stats.noise_power)
    g = d / denom
    # Absolute form: stays finite when a clipped d is 0.
    g_se = np.sqrt((d_se / denom) ** 2 + g ** 2
                   * (np.repeat(total_se2, sizes)
                      + _sic_partial_sums(d_se ** 2, sizes)) / denom ** 2)
    D_hat, D_se, sinr, sinr_se = (tuple(np.split(x, first[1:]))
                                  for x in (d, d_se, g, g_se))
    return OracleResult(D=D_hat, D_se=D_se, E=E_hat, E_se=E_se, F=F_hat,
                        F_se=F_se, sinr=sinr, sinr_se=sinr_se,
                        num_samples=num_samples)
