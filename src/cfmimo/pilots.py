"""Pilot assignment, pilot-phase simulation and MMSE channel estimation.

Pilots are mutually orthogonal with squared norm tau_p, so they are
represented purely by their index: all pilot inner products reduce to the
indicator 1{t_i == t_k}. The pilot-phase observation kept per (AP, pilot)
is the projection of the received pilot matrix onto the normalized pilot.
The estimation chain is batched over all links and over any leading sample
axes of the channel draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics
from .clustering import ServingLinks
from .errors import ConfigurationError

VALID_BUDGET_MODES = ("ignore", "rescale", "error")


@dataclass(frozen=True)
class PilotAssignment:
    tau_p: int                    # number of orthogonal pilots
    t: np.ndarray                 # (K,) pilot index per user, in {0..tau_p-1}

    def __post_init__(self):
        if self.tau_p < 1:
            raise ConfigurationError("tau_p must be >= 1")
        t = np.asarray(self.t, dtype=int)
        if t.ndim != 1 or np.any(t < 0) or np.any(t >= self.tau_p):
            raise ConfigurationError("pilot indices must lie in {0..tau_p-1}")
        object.__setattr__(self, "t", t)

    def users_on_pilot(self, pilot: int) -> np.ndarray:
        return np.flatnonzero(self.t == pilot)


@dataclass(frozen=True)
class PowerConfig:
    pilot_power: float = 0.2      # p^p, W per user
    data_power: float = 0.1       # rho, W per AP-user link
    ap_power_budget: float | None = None   # P_max per AP; None = unlimited
    power_budget_mode: str = "ignore"      # ignore | rescale | error

    def __post_init__(self):
        if self.pilot_power < 0 or self.data_power < 0:
            raise ConfigurationError("powers must be >= 0")
        if self.ap_power_budget is not None and self.ap_power_budget < 0:
            raise ConfigurationError("ap_power_budget must be >= 0")
        if self.power_budget_mode not in VALID_BUDGET_MODES:
            raise ConfigurationError(
                f"power_budget_mode must be one of {VALID_BUDGET_MODES}")


def assign_pilots(num_users: int, tau_p: int, rng: np.random.Generator) -> PilotAssignment:
    """Each user independently picks a uniform random pilot (collisions allowed)."""
    if tau_p < 1:
        raise ConfigurationError("tau_p must be >= 1")
    return PilotAssignment(tau_p=tau_p, t=rng.integers(0, tau_p, size=num_users))


def psi_stack(stats: ChannelStatistics, assignment: PilotAssignment,
              powers: PowerConfig) -> np.ndarray:
    """(tau_p, M, N, N) stack of Psi matrices for all pilots and APs.

    Psi[t, m] = sum over users i on pilot t of tau_p p^p R[m, i] + sigma^2 I;
    positive definite whenever sigma^2 > 0.
    """
    n = stats.num_antennas
    out = np.broadcast_to(stats.noise_power * np.eye(n, dtype=complex),
                          (assignment.tau_p, stats.num_aps, n, n)).copy()
    for pilot in range(assignment.tau_p):
        users = assignment.users_on_pilot(pilot)
        if users.size:
            out[pilot] += (assignment.tau_p * powers.pilot_power
                           * stats.R[:, users].sum(axis=1))
    return out


def pilot_normals(realization_shape: tuple[int, ...], assignment: PilotAssignment,
                  rng: np.random.Generator) -> np.ndarray:
    """(2, ..., tau_p, M, N) standard normals of the pilot noise.

    realization_shape is the (..., M, K, N) shape of the channel draws;
    index 0 holds the real and index 1 the imaginary parts, drawn in that
    order.
    """
    *lead, m, _, n = realization_shape
    return rng.standard_normal((2, *lead, assignment.tau_p, m, n))


def pilot_observations(realization: np.ndarray, normals: np.ndarray,
                       assignment: PilotAssignment, powers: PowerConfig,
                       noise_power: float) -> np.ndarray:
    """Projected pilot observations y_check[..., pilot, m] of channel draws.

    Pilot orthogonality makes the projection exact, so the tau_p-column pilot
    matrix never needs to be materialized:
    y_check[t, m] = sum over users i on pilot t of sqrt(p^p tau_p) H[m, i] + CN(0, sigma^2 I).

    realization: (..., M, K, N); normals: (2, ..., tau_p, M, N) from
    pilot_normals, or the matching slice of its sample axes. Returns
    (..., tau_p, M, N).
    """
    y = normals[0] + 1j * normals[1]
    y *= np.sqrt(noise_power / 2.0)
    amp = np.sqrt(powers.pilot_power * assignment.tau_p)
    for pilot in range(assignment.tau_p):
        users = assignment.users_on_pilot(pilot)
        if users.size:
            y[..., pilot, :, :] += amp * realization[..., users, :].sum(axis=-2)
    return y


def simulate_pilot_phase(realization: np.ndarray, assignment: PilotAssignment,
                         powers: PowerConfig, noise_power: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw the pilot noise and return pilot_observations of the draws.

    realization: (..., M, K, N); returns (..., tau_p, M, N).
    """
    return pilot_observations(
        realization, pilot_normals(realization.shape, assignment, rng),
        assignment, powers, noise_power)


def mmse_coefficients(stats: ChannelStatistics, assignment: PilotAssignment,
                      powers: PowerConfig, psi_inv: np.ndarray) -> np.ndarray:
    """(M, K, N, N) estimation matrices sqrt(p^p tau_p) R[m, k] Psi[m, t_k]^-1.

    psi_inv is the inverse of the psi_stack of the same inputs.
    """
    return np.sqrt(powers.pilot_power * assignment.tau_p) * np.einsum(
        "mkab,kmbc->mkac", stats.R, psi_inv[assignment.t], optimize=True)


def mmse_estimate(y_check: np.ndarray, coef: np.ndarray,
                  assignment: PilotAssignment,
                  links: ServingLinks | None = None) -> np.ndarray:
    """MMSE estimates H_hat[..., m, k] = coef[m, k] y_check[..., t_k, m].

    y_check: (..., tau_p, M, N) from pilot_observations; coef from
    mmse_coefficients. Returns (..., M, K, N), or (..., L, N) at the L
    serving links (links.ap[l], links.user[l]) when links is given.
    """
    if links is None:
        return np.einsum("mkac,...kmc->...mka", coef,
                         y_check[..., assignment.t, :, :], optimize=True)
    return np.einsum("lac,...lc->...la", coef[links.ap, links.user],
                     y_check[..., assignment.t[links.user], links.ap, :],
                     optimize=True)


def estimate_covariance(stats: ChannelStatistics, assignment: PilotAssignment,
                        powers: PowerConfig, psi_inv: np.ndarray) -> np.ndarray:
    """(M, K, N, N) covariances of the MMSE estimates, p^p tau_p R Psi^-1 R.

    The estimation error has covariance R minus this matrix.
    """
    return powers.pilot_power * assignment.tau_p * np.einsum(
        "mkab,kmbc,mkcd->mkad", stats.R, psi_inv[assignment.t], stats.R,
        optimize=True)
