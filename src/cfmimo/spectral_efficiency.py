"""Closed-form spectral efficiency for mixed coherent/non-coherent downlink.

Each coherent group c serving user k gets an SINR of the hardening-bound
form

    gamma_k^c = D_k^c / (E_k + F_k - sum_{b<=c} D_k^b + sigma^2),

where D is the coherent desired-signal power of a group, E the total
average received power from every serving link, and F the coherent
(pilot-contaminated) cross power from co-pilot users. Groups are decoded
successively, so the partial D sum runs over the groups already decoded.

The Monte Carlo oracle estimates the same expectations by sampling
channels, pilot observations, MMSE estimates and precoders. It shares the
MMSE estimator and the MR scales with the closed form; the tests also hold
both against a textbook reference that shares no code with either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from . import planes
from .channel import ChannelStatistics, complex_normals, correlation_sqrt
from .clustering import ServingStructure
from .errors import ConfigurationError, DegenerateLinkError, NumericalError
from .pilots import (EstimationTerms, PilotAssignment, PowerConfig,
                     estimation_terms)
from .views import TupleView, set_flat, views_given

# The oracle samples in blocks, each drawn from a generator of its own,
# which fixes its random stream. A block holds ORACLE_BLOCK samples, or as
# many fewer as keep its normals, 16 bytes x N(S K + P) per sample, within
# ORACLE_BLOCK_BYTES, and at least one: every shape up to the library
# default keeps whole blocks, and memory stays bounded at any scale. Each
# complex normal takes one raw 64-bit word of that generator
# (channel.complex_normals). A block is transformed in chunks of as many
# samples as keep all of a chunk's buffers within ORACLE_CHUNK_BYTES (about
# a core's L2 cache), and at least one. The chunk length changes no draw;
# it changes only the order in which the moment sums add up, and so the
# result by at most 1e-12 relative.
ORACLE_BLOCK = 1_000
ORACLE_BLOCK_BYTES = 128 * 2 ** 20
ORACLE_CHUNK_BYTES = 2 ** 20


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


def _per_user(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """values, flat over the users' groups, cut into one array per user."""
    return tuple(np.split(values, np.cumsum(counts)[:-1]))


def _counts(per_user) -> np.ndarray:
    """The length of each user's entry."""
    return np.fromiter(map(len, per_user), dtype=int, count=len(per_user))


def _group_order(terms: SETerms) -> tuple[tuple[int, ...], ...]:
    """Each user's SIC permutation of its groups, from terms.sic."""
    first = np.cumsum(terms.group_count) - terms.group_count
    local = terms.sic - np.repeat(first, terms.group_count)
    return tuple(tuple(o.tolist()) for o in _per_user(local, terms.group_count))


def _sic_from(group_order) -> np.ndarray:
    """The flat SIC permutation of per-user group orders."""
    sizes = _counts(group_order)
    first = np.cumsum(sizes) - sizes
    return (np.fromiter(chain.from_iterable(group_order), dtype=int,
                        count=sizes.sum()) + np.repeat(first, sizes))


@dataclass(frozen=True, kw_only=True)
class SETerms:
    """Closed-form SINR building blocks, with groups already in SIC order.

    The groups of user k are serving.links's groups g with group_user[g]
    equal to k. D_flat[j] is the desired power of group sic[j]: the flat
    groups in SIC order, user by user, group_count[k] of them for user k.

    D[k] (an array over user k's groups) and group_order[k] (the SIC
    permutation of serving.groups[k]) are views of the flat arrays
    (cfmimo.views); given instead, as in SETerms(D=..., E=..., F=...,
    group_order=...) or dataclasses.replace(terms, D=...), they set them.
    """
    D: tuple[np.ndarray, ...] = TupleView(
        lambda t: _per_user(t.D_flat, t.group_count))
    E: np.ndarray                      # (K,) total average power
    F: np.ndarray                      # (K,) coherent co-pilot power
    group_order: tuple[tuple[int, ...], ...] = TupleView(_group_order)
    D_flat: np.ndarray = field(default=None, repr=False, compare=False)    # (G,)
    sic: np.ndarray = field(default=None, repr=False, compare=False)       # (G,)
    group_count: np.ndarray = field(default=None, repr=False, compare=False)  # (K,)

    def __post_init__(self):
        if views_given(self):
            set_flat(self, D_flat=np.concatenate(self.D),
                     group_count=_counts(self.D), sic=_sic_from(self.group_order))


@dataclass(frozen=True, kw_only=True)
class RateResult:
    """User rates, and the linear SINR of every group in the SIC order of
    SETerms.D_flat, SETerms.group_count[k] of them for user k."""
    user_rate: np.ndarray              # (K,) bits/s/Hz
    sum_rate: float
    sinr_flat: np.ndarray              # (G,)


def link_scales(serving: ServingStructure, powers: PowerConfig,
                est_trace: np.ndarray) -> np.ndarray:
    """(L,) maximum-ratio scales s_l = sqrt(rho_l / E{||H_hat_l||^2}) of the
    serving links l of serving.links; W_l = s_l H_hat_l.

    serving is a stack of P points over the K users of the (M, K)
    est_trace, its user p*K + k point p's user k; any other count of
    served users raises ConfigurationError. rho_l is the data
    power, with a per-AP budget applied point by point: "ignore" keeps it,
    "rescale" shrinks all of an overloaded AP's links of the point
    uniformly, "error" raises naming the APs over budget in any point. A
    link with rho_l = 0 gets scale 0. An active link whose est_trace is not
    positive raises DegenerateLinkError naming it, the lowest AP first,
    then the lowest user.
    """
    links = serving.links
    num_aps, num_users = est_trace.shape
    num_points, rest = divmod(serving.num_users, num_users)
    if rest:
        raise ConfigurationError(f"{serving.num_users} served users is not a "
                                 f"whole number of points of {num_users} users")
    point, user = np.divmod(links.user, num_users)
    rho = np.full(links.ap.size, powers.data_power, dtype=float)
    budget = powers.ap_power_budget
    if budget is not None and powers.power_budget_mode != "ignore":
        # Each (point, AP)'s total is the sum of its row over the point's K
        # users, the additions of the point's own dense (M, K) powers, so
        # that a point's rescaled powers are those of the point alone; a
        # sum in link order would change their last bits.
        row = point * num_aps + links.ap
        dense = np.zeros((num_points * num_aps, num_users))
        dense[row, user] = rho
        totals = dense.sum(axis=1)
        over = totals > budget
        if powers.power_budget_mode == "error" and np.any(over):
            aps = over.reshape(-1, num_aps).any(axis=0)
            raise ConfigurationError(f"AP power budget exceeded at APs "
                                     f"{np.flatnonzero(aps).tolist()}")
        hit = over[row]
        rho[hit] *= budget / totals[row[hit]]
    est = est_trace[links.ap, user]
    active = rho > 0.0
    bad = np.flatnonzero(active & (est <= 0.0))
    if bad.size:
        first = bad[np.lexsort((links.user[bad], links.ap[bad]))[0]]
        raise DegenerateLinkError(f"serving link (AP {links.ap[first]}, user "
                                  f"{links.user[first]}) has zero estimate power")
    scale = np.zeros(rho.size)
    scale[active] = np.sqrt(rho[active] / est[active])
    return scale


def _shared_link_sets(point: np.ndarray, link: np.ndarray, num_points: int,
                      num_links: int):
    """How the points of a stack share link sets, or None when no two
    points serve the same set of links (or a point repeats a link).

    Serving link l of the stack is physical link link[l] = m*K + k, AP m
    serving user k, of point point[l]. Returns (of_point, set_index,
    set_link, canon): the set of each point, numbered in order of first
    appearance; the set and the physical link of each link of the sets,
    set by set, each set's in ascending, i.e. (AP, user), order; and the
    index of each serving link among those.
    """
    member = np.zeros((num_points, num_links), dtype=bool)
    member[point, link] = True
    if np.count_nonzero(member) != link.size:
        return None
    first = {}     # a point's membership row -> its set
    of_point = np.array([first.setdefault(row.tobytes(), len(first))
                         for row in member])
    if len(first) == num_points:
        return None
    sets = member[np.unique(of_point, return_index=True)[1]]
    set_index, set_link = np.nonzero(sets)
    canon = (np.cumsum(sets) - 1).reshape(sets.shape)[of_point[point], link]
    return of_point, set_index, set_link, canon


def _link_terms(R: np.ndarray, coef: np.ndarray, ap: np.ndarray,
                user: np.ndarray, point: np.ndarray, num_points: int,
                s: np.ndarray, a: float, t: np.ndarray):
    """E of each of num_points points, flat over their K users, and the
    (links, K) co-pilot amplitudes of the serving links: link l is AP ap[l]
    serving user user[l] of point point[l], with MR scale s[l]. R and coef
    are the (N, N, M, K) and (N, N, M*K) planes of R and of the MMSE
    estimator; see compute_terms.
    """
    n, _, num_aps, num_users = R.shape
    link = ap * num_users + user
    # np.take keeps the gathered planes contiguous; indexing the trailing
    # axes with index arrays would not.
    R_flat = R.reshape(n, n, -1)
    A = np.take(coef, link, axis=-1)
    # W of every (point, AP) by bincounts of the links' planes, then E of
    # each point as the product of its W with the (N*N*M, K) planes of R.
    # A batched matmul makes one vector-matrix product per point, as a
    # single point's would; one matrix product of the stacked W would
    # change the last bits of E.
    B = ((s ** 2 * a) * planes.product(A, np.take(R_flat, link, axis=-1))).ravel()
    bins = num_points * n * n * num_aps
    into = ((point * n * n + np.arange(n * n)[:, None]) * num_aps + ap).ravel()
    W = (np.bincount(into, B.real, bins)
         + 1j * np.bincount(into, B.imag, bins)).reshape(num_points, n, n, num_aps)
    E = np.matmul(W.swapaxes(1, 2).reshape(num_points, 1, -1),
                  R.reshape(-1, num_users)).real.ravel()
    # Co-pilot (link, user) pairs within the link's point; every other
    # cross amplitude is zero.
    pair_l, pair_k = np.nonzero(t[user][:, None] == t)
    amp = np.zeros((link.size, num_users), dtype=complex)
    amp[pair_l, pair_k] = s[pair_l] * a * planes.trace_product(
        np.take(A, pair_l, axis=-1),
        np.take(R_flat, ap[pair_l] * num_users + pair_k, axis=-1))
    return E, amp


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

    Only the groups depend on the transmission mode; a point's set of
    serving links, its cluster set, does not. When points of the stack
    share cluster sets, found from the links, the per-link terms (the
    gathered estimator and R planes, their products, W, E and the
    co-pilot amplitudes) run once per distinct set, over its links in
    (AP, user) order, and are gathered back to each point's links. A bin
    of W then adds its AP's links in user order, as in each point's own
    link order, so E is each point's own bit for bit.
    """
    links = serving.links
    ap, start = links.ap, links.group_start
    R = planes.planes(stats.R)                                  # (N, N, M, K)
    n, _, num_aps, num_users = R.shape
    est_trace = estimation.est_trace
    s = link_scales(serving, powers, est_trace)   # checks for whole points
    stack = serving.num_users // num_users
    point, user = np.divmod(links.user, num_users)    # physical user of a link
    a = np.sqrt(powers.pilot_power * assignment.tau_p)
    coef = planes.planes(estimation.coef).reshape(n, n, -1)
    shared = stack > 1 and _shared_link_sets(point, ap * num_users + user,
                                             stack, num_aps * num_users)
    if not shared:
        E, amp = _link_terms(R, coef, ap, user, point, stack, s, a, assignment.t)
    else:
        of_point, set_index, set_link, canon = shared
        set_s = np.empty(set_link.size)
        set_s[canon] = s          # equal on every point of a set
        E, amp = _link_terms(R, coef, *np.divmod(set_link, num_users), set_index,
                             of_point.max() + 1, set_s, a, assignment.t)
        E, amp = E.reshape(-1, num_users)[of_point].ravel(), amp[canon]
    # np.sum over each point's groups, as on a point alone: np.add.reduceat
    # adds in another order and would change the last bits of F.
    power = np.abs(np.add.reduceat(amp, start)) ** 2            # (groups, K)
    firsts = np.searchsorted(point[start], np.arange(1, stack))   # first groups
    F = np.concatenate([np.sum(part, axis=0) for part in np.split(power, firsts)])
    d = np.add.reduceat(s * est_trace[ap, user], start) ** 2

    order = np.lexsort((-d, links.group_user))
    return SETerms(E=E, F=F, D_flat=d[order], sic=order,
                   group_count=np.bincount(links.group_user,
                                           minlength=serving.num_users))


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
    sizes = terms.group_count
    first = np.cumsum(sizes) - sizes
    d = terms.D_flat
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
    return RateResult(user_rate=user_rate, sum_rate=float(user_rate.sum()),
                      sinr_flat=sinr)


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


class _Scratch:
    """Flat buffers that the chunks of a run of blocks share, by name.

    scratch(name, shape, dtype) is a C-contiguous view of the leading
    entries of the named buffer, which grows only when a view needs more.
    The first block and its first chunk are the largest of a run, so each
    buffer is allocated once per run. Views are kept by name and shape, so
    the chunks of one length share them.
    """

    def __init__(self):
        self._buffers = {}
        self._views = {}

    def __call__(self, name: str, shape: tuple[int, ...],
                 dtype=complex) -> np.ndarray:
        view = self._views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            buf = self._buffers.get(name)
            if buf is None or buf.size < size:
                buf = self._buffers[name] = np.empty(size, dtype)
                self._views.clear()
            view = self._views[name, shape] = buf[:size].reshape(shape)
        return view


@dataclass(frozen=True)
class _OraclePlan:
    """What every oracle block reads; mc_oracle builds it once per call.

    S counts the served APs (those of some serving link) and P the read
    (AP, pilot) pairs (m, t_i) of the serving links (m, i): the only
    channels and pilot observations that an estimate or an amplitude reads.
    The N x N matrices are held as entry planes (cfmimo.planes), so that a
    chunk's arrays, samples last, take them by broadcasting.
    """
    sqrt_R: np.ndarray            # (N, N, S, K) planes of R^(1/2) / sqrt(2)
    w_coef: np.ndarray            # (N, N, L) planes of s A, the MR-scaled estimator
    link_ap: np.ndarray           # (L,) each link's index into the served APs
    link_pair: np.ndarray         # (L,) each link's index into the read pairs
    pair: np.ndarray              # (P,) index s tau_p + t of pair (S[s], t)
    pilots: np.ndarray            # (tau_p, K) sqrt(p^p tau_p) 1{t_k == t}
    groups: tuple                 # per user: group and link slices, indicator
    num_groups: int               # G
    noise_scale: float            # sqrt(sigma^2 / 2)
    block: int                    # samples per block (ORACLE_BLOCK_BYTES)
    step: int                     # samples per chunk (ORACLE_CHUNK_BYTES)


def _oracle_plan(serving: ServingStructure, stats: ChannelStatistics,
                 assignment: PilotAssignment, powers: PowerConfig) -> _OraclePlan:
    """The plan of mc_oracle's blocks at serving.links."""
    estimation = estimation_terms(stats, assignment, powers)
    links = serving.links
    K, N, tau_p = stats.num_users, stats.num_antennas, assignment.tau_p
    served, link_ap = np.unique(links.ap, return_inverse=True)
    pair, link_pair = np.unique(link_ap * tau_p + assignment.t[links.user],
                                return_inverse=True)
    S, L, P, G = served.size, links.ap.size, pair.size, links.group_start.size
    sqrt_R = planes.planes(correlation_sqrt(stats.R[served]) / np.sqrt(2.0))
    link = links.ap * K + links.user
    w_coef = (link_scales(serving, powers, estimation.est_trace)
              * np.take(planes.planes(estimation.coef).reshape(N, N, -1), link,
                        axis=-1))
    # Links are user-major, so the (G, L) indicator 1{link l belongs to
    # group g} is block diagonal: one block per user, over its groups and
    # their links.
    edge = np.append(links.group_start, L)
    indicator = np.zeros((G, L))
    indicator[np.repeat(np.arange(G), np.diff(edge)), np.arange(L)] = 1.0
    first = np.append(np.flatnonzero(np.diff(links.group_user, prepend=-1)), G)
    groups = tuple((slice(g0, g1), slice(edge[g0], edge[g1]),
                    indicator[g0:g1, edge[g0]:edge[g1]].copy())
                   for g0, g1 in zip(first[:-1], first[1:]))
    pilots = np.sqrt(powers.pilot_power * tau_p) * (
        np.arange(tau_p)[:, None] == assignment.t)
    # Bytes per sample of a block's normals g and z, and of a chunk's
    # buffers: the complex H, term, sums (as floats), y, y_sums, y_l, W,
    # term_l, amp, term_lk, a and sq (as floats), and the real p.
    normal_bytes = 16 * N * (S * K + P)
    chunk_bytes = (16 * (N * S * K + S * K + N * S * tau_p + 2 * N * P
                         + 2 * N * L + L + 2 * L * K + 2 * G * K) + 8 * G * K)
    return _OraclePlan(
        sqrt_R=sqrt_R, w_coef=w_coef, link_ap=link_ap, link_pair=link_pair,
        pair=pair, pilots=pilots, groups=groups, num_groups=G,
        noise_scale=math.sqrt(stats.noise_power / 2.0),
        block=min(ORACLE_BLOCK, max(1, ORACLE_BLOCK_BYTES // normal_bytes)),
        step=max(1, ORACLE_CHUNK_BYTES // chunk_bytes))


def _chunk_amplitudes(plan: _OraclePlan, g: np.ndarray, z: np.ndarray,
                      scratch: _Scratch) -> np.ndarray:
    """(G, K, c) group amplitudes conj(a) of a chunk of c samples.

    g: (N, S, K, c) complex channel normals at the served APs; z: (N, P, c)
    complex pilot-noise normals at the read pairs; both have unit-variance
    real and imaginary parts. For every group b of user i and observing
    user k, a = sum over the links (m, i) of b of H[m, k]^H W[m, i], and
    only its conjugate is formed: the oracle reads |mean a|^2, |a|^2 and
    |a|^4, which the sign of Im(a) does not change. The result is a view
    into scratch, valid until its next chunk.
    """
    N, _, S, K = plan.sqrt_R.shape
    L, P, c = plan.link_ap.size, plan.pair.size, g.shape[-1]
    tau_p = plan.pilots.shape[0]
    # H = R^(1/2) g at the served APs, the planes' product with one column.
    H = planes.product(plan.sqrt_R[..., None], g[:, None],
                       out=scratch("H", (N, 1, S, K, c)),
                       term=scratch("term", (S, K, c)))[:, 0]
    # Pilot sums sqrt(p^p tau_p) sum_{t_i = t} H[m, i] by one real product on
    # the float view, then the noisy observations at the read pairs. Every
    # index is in range, and mode="clip" lets np.take write into out
    # directly, where the default mode would buffer a copy.
    sums = np.matmul(plan.pilots, H.view(float).reshape(N * S, K, 2 * c),
                     out=scratch("sums", (N * S, tau_p, 2 * c), float))
    y = np.multiply(z, plan.noise_scale, out=scratch("y", (N, P, c)))
    y += np.take(sums.view(complex).reshape(N, S * tau_p, c), plan.pair,
                 axis=1, out=scratch("y_sums", (N, P, c)), mode="clip")
    # conj(W) = conj(s A y) at the links.
    y_l = np.take(y, plan.link_pair, axis=1, out=scratch("y_l", (N, L, c)),
                  mode="clip")
    W = planes.product(plan.w_coef[..., None], y_l[:, None],
                       out=scratch("W", (N, 1, L, c)),
                       term=scratch("term_l", (L, c)))[:, 0]
    np.conjugate(W, out=W)
    # conj(a) at every link and user, sum_n H[m, k, n] conj(W[l, n]), then
    # summed over each group's links by one real product per user's block
    # of the group indicator, on the float view.
    amp = scratch("amp", (L, K, c))
    term = scratch("term_lk", (L, K, c))
    for n in range(N):
        part = np.take(H[n], plan.link_ap, axis=0, out=amp if n == 0 else term,
                       mode="clip")
        part *= W[n, :, None, :]
        if n:
            amp += part
    G = plan.num_groups
    a = scratch("a", (G, 2 * K * c), float)
    amp = amp.view(float).reshape(L, 2 * K * c)
    for groups, links, indicator in plan.groups:
        np.matmul(indicator, amp[links], out=a[groups])
    return a.view(complex).reshape(G, K, c)


def _block_moments(plan: _OraclePlan, run):
    """Yield the moment sums of each (rng, n) block of a run, in block order.

    A block draws N S K n complex normals (channel.complex_normals) from
    its rng's bit generator, the channel normals at the served APs in C
    order of (N, S, K, n), then N P n, the pilot noise at the read pairs in
    C order of (N, P, n), into buffers that the run's blocks share. The
    sums, per (group, observing user), are those of conj(a), |a|^2 and
    |a|^4.
    """
    N, _, S, K = plan.sqrt_R.shape
    P, G = plan.pair.size, plan.num_groups
    scratch = _Scratch()
    for rng, n in run:
        bits = rng.bit_generator
        g = complex_normals(bits, scratch("g", (N, S, K, n)))
        z = complex_normals(bits, scratch("z", (N, P, n)))
        sums = [np.zeros((G, K), dtype=complex), *np.zeros((2, G, K))]
        for lo in range(0, n, plan.step):
            chunk = slice(lo, lo + plan.step)
            a = _chunk_amplitudes(plan, g[..., chunk], z[..., chunk], scratch)
            c = a.shape[-1]
            sq = np.square(a.view(float), out=scratch("sq", (G, K, 2 * c), float))
            p = np.add(sq[..., 0::2], sq[..., 1::2],
                       out=scratch("p", (G, K, c), float))
            sums[0] += a.sum(axis=-1)
            sums[1] += p.sum(axis=-1)
            sums[2] += np.square(p, out=p).sum(axis=-1)
        yield sums


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

    fn maps a run of consecutive items to an iterable of their results.
    With w = min(jobs, n) workers for the n items, one run of all items runs
    in this process at w = 1, and its results stream as fn yields them; else
    runs of ceil(n / 4w) items each run over one pool of w worker processes
    started with the platform's default method."""
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(items))
    if workers < 2:
        yield from fn(items)
        return
    per_run = -(-len(items) // (4 * workers))
    runs = [items[lo:lo + per_run] for lo in range(0, len(items), per_run)]
    # Imported here: the pool machinery adds about 2 MB to the resident
    # size of every process that loads it, and serial runs never need it.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) as pool:
        yield from chain.from_iterable(pool.map(partial(_listed, fn), runs))


def _listed(fn, run) -> list:
    """fn's results for a run as a list, which a worker can send back."""
    return list(fn(run))


def mc_oracle(serving: ServingStructure, stats: ChannelStatistics,
              assignment: PilotAssignment, powers: PowerConfig,
              frame: FrameConfig, num_samples: int, rng: np.random.Generator,
              terms: SETerms, jobs: int = 1) -> OracleResult:
    """Estimate the SINR expectations by direct simulation.

    For every sample: draw channels, simulate the pilot phase with noise,
    form MMSE estimates and MR precoders at the serving links, then
    accumulate the received amplitude a_{i,k}^b = sum_{m in A_i^b} H[m,k]^H W[m,i]
    of every group b of every user i at every user k. Only what these read
    is drawn: the channels at the S served APs and the pilot noise at the P
    (AP, pilot) pairs (m, t_i) of the serving links (m, i). The estimators
    are

        D_k^c = |mean a_{k,k}^c|^2            (coherent desired power),
        F_k   = sum over co-pilot (i, b) of |mean a_{i,k}^b|^2,
        E_k   = sum over all (i, b) of mean |a_{i,k}^b|^2  -  F_k,

    with |mean|^2 debiased by the variance of the mean. The SINRs follow the
    SIC chain of user_rates in the group order of `terms`, the closed-form
    terms of the same inputs, with the same within-user partial sums of D:
    D_k^c / (sum_{i,b} mean |a_{i,k}^b|^2 - sum_{b<=c} D_k^b + sigma^2).

    The samples are drawn in blocks of B = min(ORACLE_BLOCK,
    max(1, ORACLE_BLOCK_BYTES // (16 N (S K + P)))) samples, the last one
    partial, block b from the b-th generator of rng.spawn(ceil(num_samples
    / B)); B is ORACLE_BLOCK at every shape up to the library default. A
    block of n samples takes N S K n raw 64-bit words of its bit generator
    for the channel normals, in C order of (N, S, K, n), then N P n for the
    pilot noise, in C order of (N, P, n), one complex normal per word
    (Box-Muller with a radius from the word's top 53 bits and a phase on
    the 2048-point grid of its low 11, see channel.complex_normals). Each
    block is transformed in chunks, with its samples on the last axis of
    every array (see ORACLE_CHUNK_BYTES). The blocks run through map_in_runs
    over at most jobs worker processes, and their sums are added in block
    order, so the result does not depend on jobs.
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    K = stats.num_users
    links = serving.links
    sizes = terms.group_count
    if not np.array_equal(sizes, np.bincount(links.group_user, minlength=K)):
        raise NumericalError("group count mismatch between terms and serving")
    plan = _oracle_plan(serving, stats, assignment, powers)
    samples = [min(plan.block, num_samples - lo)
               for lo in range(0, num_samples, plan.block)]
    blocks = list(zip(rng.spawn(len(samples)), samples))
    sum_a, sum_a2, sum_p2 = _add_in_order(
        map_in_runs(partial(_block_moments, plan), blocks, jobs))
    # Does group g contaminate user k?
    copilot_mask = assignment.t[links.group_user][:, None] == assignment.t

    S = float(num_samples)
    mean_a = sum_a / S
    mean_p = sum_a2 / S
    var_mean = np.maximum(mean_p - np.abs(mean_a) ** 2, 0.0) / S
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
    sic = terms.sic
    user = links.group_user[sic]
    d, d_se = coh[sic, user], coh_se[sic, user]
    denom = (np.repeat(total, sizes) - _sic_partial_sums(d, sizes)
             + stats.noise_power)
    g = d / denom
    # Absolute form: stays finite when a clipped d is 0.
    g_se = np.sqrt((d_se / denom) ** 2 + g ** 2
                   * (np.repeat(total_se2, sizes)
                      + _sic_partial_sums(d_se ** 2, sizes)) / denom ** 2)
    D_hat, D_se, sinr, sinr_se = (_per_user(x, sizes) for x in (d, d_se, g, g_se))
    return OracleResult(D=D_hat, D_se=D_se, E=E_hat, E_se=E_se, F=F_hat,
                        F_se=F_se, sinr=sinr, sinr_se=sinr_se,
                        num_samples=num_samples)
