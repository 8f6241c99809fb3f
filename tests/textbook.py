"""Test-side estimation chains: a textbook Monte Carlo reference, and the
per-sample helpers that the library once exported.

textbook_terms follows the downlink system model literally, sample by
sample, and shares no code with the closed form or with mc_oracle: it draws
its own channels and noise with Generator.standard_normal, forms the
received pilot signal of every AP from an explicit pilot matrix, and
estimates, precodes, sums the group amplitudes and decodes in plain loops,
vectorised over the samples only. Of cfmimo it reads only the configs and
the drop's ChannelStatistics, PilotAssignment and serving links.

The helpers below it (correlate_channel, pilot_observations,
simulate_pilot_phase, mmse_estimate, users_on_pilot) keep the code they had
in the library. Acceptance criterion 4 and the oracle's chunk-kernel test
draw their normals with channel.complex_normals, the oracle's sampler: four
complex normals per raw 64-bit word, from a table whose moments up to
degree 8 are those of CN(0, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cfmimo.channel import ChannelStatistics, complex_normals
from cfmimo.clustering import ServingLinks
from cfmimo.pilots import PilotAssignment, PowerConfig


@dataclass(frozen=True)
class Reference:
    """Sample-mean estimates of the closed-form terms, with standard errors.

    Per-group arrays are indexed by the flat group g of the serving links
    (links.group_start), not in SIC order; order holds the groups in
    decoding order, user by user.
    """
    D: np.ndarray          # (G,) coherent desired power of group g at its user
    D_se: np.ndarray
    E: np.ndarray          # (K,)
    E_se: np.ndarray
    F: np.ndarray          # (K,)
    F_se: np.ndarray
    sinr: np.ndarray       # (G,)
    sinr_se: np.ndarray
    order: np.ndarray      # (G,) the SIC order


def textbook_terms(links: ServingLinks, stats: ChannelStatistics,
                   assignment: PilotAssignment, powers: PowerConfig,
                   num_samples: int, rng: np.random.Generator) -> Reference:
    """Estimate D, E, F and the SINRs of the serving links by simulation.

    Per sample: H[m, k] = R[m, k]^(1/2) g with g ~ CN(0, I) and the
    Cholesky factor as the square root; AP m receives the N x tau_p pilot
    signal Y_m = sum_i sqrt(p) H[m, i] phi_{t_i}^T + noise, with pilots phi_t
    the columns of the tau_p-point DFT matrix (squared norm tau_p), and
    projects it onto user k's pilot, y = Y_m conj(phi_{t_k}) / sqrt(tau_p).
    The MMSE estimate is H_hat = sqrt(p tau_p) R Psi^-1 y, Psi = sum over
    co-pilot users i of tau_p p R[m, i] + sigma^2 I, and the MR precoder of
    link l = (m, i) is W_l = sqrt(rho / E{||H_hat||^2}) H_hat[m, i], with
    E{||H_hat||^2} = p tau_p tr(R Psi^-1 R). Group b of user i reaches user
    k with the amplitude a = sum over the links (m, i) of b of
    H[m, k]^H W_l. Then, with |mean|^2 debiased by the variance of the mean,

        D_k^c = |mean a_{k,k}^c|^2,
        F_k   = sum over co-pilot (i, b) of |mean a_{i,k}^b|^2,
        E_k   = sum over all (i, b) of mean |a_{i,k}^b|^2  -  F_k,

    and user k decodes its groups in descending D, ties to the lower group:
    SINR_k^c = D_k^c / (sum_{i,b} mean |a_{i,k}^b|^2 - sum_{b<=c} D_k^b
    + sigma^2). Every link transmits at the data power.
    """
    if powers.ap_power_budget is not None and powers.power_budget_mode != "ignore":
        raise NotImplementedError("the reference has no per-AP power budget")
    R, t, sigma2 = stats.R, assignment.t, stats.noise_power
    M, K, N = R.shape[:3]
    tau_p, p, S = assignment.tau_p, powers.pilot_power, num_samples
    phi = np.exp(-2j * np.pi * np.outer(np.arange(tau_p), np.arange(tau_p))
                 / tau_p)

    # The channels and the received, projected pilot signals.
    H = np.empty((S, M, K, N), complex)
    y = np.empty((S, M, K, N), complex)
    for m in range(M):
        for k in range(K):
            g = (rng.standard_normal((S, N))
                 + 1j * rng.standard_normal((S, N))) / np.sqrt(2.0)
            H[:, m, k] = g @ np.linalg.cholesky(R[m, k]).T
        Y = np.sqrt(sigma2 / 2.0) * (rng.standard_normal((S, N, tau_p))
                                     + 1j * rng.standard_normal((S, N, tau_p)))
        for i in range(K):
            Y = Y + np.sqrt(p) * H[:, m, i, :, None] * phi[:, t[i]]
        for k in range(K):
            y[:, m, k] = Y @ np.conj(phi[:, t[k]]) / np.sqrt(tau_p)

    # MMSE estimates and their mean power, per (AP, user).
    H_hat = np.empty((S, M, K, N), complex)
    est_power = np.empty((M, K))
    for m in range(M):
        for k in range(K):
            psi = sigma2 * np.eye(N, dtype=complex)
            for i in range(K):
                if t[i] == t[k]:
                    psi = psi + tau_p * p * R[m, i]
            psi_inv = np.linalg.inv(psi)
            H_hat[:, m, k] = y[:, m, k] @ (np.sqrt(p * tau_p) * R[m, k] @ psi_inv).T
            est_power[m, k] = p * tau_p * np.trace(R[m, k] @ psi_inv @ R[m, k]).real

    # Group amplitudes a[s, b, k], link by link.
    G = links.group_start.size
    group = np.repeat(np.arange(G), np.diff(links.group_start,
                                             append=links.ap.size))
    a = np.zeros((S, G, K), complex)
    for l, (m, i) in enumerate(zip(links.ap, links.user)):
        W = np.sqrt(powers.data_power / est_power[m, i]) * H_hat[:, m, i]
        for k in range(K):
            a[:, group[l], k] += np.sum(np.conj(H[:, m, k]) * W, axis=-1)

    mean_a = a.mean(axis=0)
    power = np.abs(a) ** 2
    mean_p = power.mean(axis=0)
    var_mean = np.maximum(mean_p - np.abs(mean_a) ** 2, 0.0) / S
    coh = np.maximum(np.abs(mean_a) ** 2 - var_mean, 0.0)
    coh_se = 2.0 * np.abs(mean_a) * np.sqrt(var_mean) + var_mean
    power_var = np.var(power, axis=0) / S

    total, total_var = mean_p.sum(axis=0), power_var.sum(axis=0)
    F, F_var = np.zeros(K), np.zeros(K)
    for b in range(G):
        for k in range(K):
            if t[links.group_user[b]] == t[k]:
                F[k] += coh[b, k]
                F_var[k] += coh_se[b, k] ** 2
    D = coh[np.arange(G), links.group_user]
    D_se = coh_se[np.arange(G), links.group_user]

    sinr, sinr_se, order = np.empty(G), np.empty(G), []
    for k in range(K):
        own = sorted(np.flatnonzero(links.group_user == k), key=lambda b: -D[b])
        decoded = decoded_var = 0.0
        for b in own:
            decoded += D[b]
            decoded_var += D_se[b] ** 2
            denom = total[k] - decoded + sigma2
            sinr[b] = D[b] / denom
            sinr_se[b] = np.sqrt((D_se[b] / denom) ** 2 + sinr[b] ** 2
                                 * (total_var[k] + decoded_var) / denom ** 2)
        order.extend(own)
    return Reference(D=D, D_se=D_se, E=total - F, E_se=np.sqrt(total_var + F_var),
                     F=F, F_se=np.sqrt(F_var), sinr=sinr, sinr_se=sinr_se,
                     order=np.array(order))


# ---------------------------------------------------------------------------
# Per-sample helpers
# ---------------------------------------------------------------------------

def users_on_pilot(assignment: PilotAssignment, pilot: int) -> np.ndarray:
    """The users of assignment that send pilot."""
    return np.flatnonzero(assignment.t == pilot)


def correlate_channel(sqrt_R: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """H[..., m, k] = R[m, k]^(1/2) g, g = normals / sqrt(2).

    sqrt_R: (M, K, N, N) from correlation_sqrt; normals: (..., M, K, N)
    complex normals of unit-variance real and imaginary parts, as
    complex_normals draws them.
    """
    return np.einsum("mkab,...mkb->...mka", sqrt_R, normals / np.sqrt(2.0),
                     optimize=True)


def pilot_observations(realization: np.ndarray, normals: np.ndarray,
                       assignment: PilotAssignment, powers: PowerConfig,
                       noise_power: float) -> np.ndarray:
    """Projected pilot observations y_check[..., pilot, m] of channel draws.

    Pilot orthogonality makes the projection exact, so the tau_p-column pilot
    matrix never needs to be materialized:
    y_check[t, m] = sum over users i on pilot t of sqrt(p^p tau_p) H[m, i] + CN(0, sigma^2 I).

    realization: (..., M, K, N); normals: (..., tau_p, M, N) complex
    normals of unit-variance real and imaginary parts, as complex_normals
    draws them. Returns (..., tau_p, M, N).
    """
    y = normals * np.sqrt(noise_power / 2.0)
    amp = np.sqrt(powers.pilot_power * assignment.tau_p)
    for pilot in range(assignment.tau_p):
        users = users_on_pilot(assignment, pilot)
        if users.size:
            y[..., pilot, :, :] += amp * realization[..., users, :].sum(axis=-2)
    return y


def simulate_pilot_phase(realization: np.ndarray, assignment: PilotAssignment,
                         powers: PowerConfig, noise_power: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw the pilot noise and return pilot_observations of the draws.

    realization: (..., M, K, N); returns (..., tau_p, M, N). The noise takes
    one complex normal of rng (complex_normals) per entry, in C order.
    """
    *lead, m, _, n = realization.shape
    normals = complex_normals(rng.bit_generator, np.empty(
        (*lead, assignment.tau_p, m, n), complex))
    return pilot_observations(realization, normals, assignment, powers,
                              noise_power)


def mmse_estimate(y_check: np.ndarray, coef: np.ndarray,
                  assignment: PilotAssignment) -> np.ndarray:
    """MMSE estimates H_hat[..., m, k] = coef[m, k] y_check[..., t_k, m].

    y_check: (..., tau_p, M, N) from pilot_observations; coef from
    estimation_terms. Returns (..., M, K, N).
    """
    return np.einsum("mkac,...kmc->...mka", coef,
                     y_check[..., assignment.t, :, :], optimize=True)
