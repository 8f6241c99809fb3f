"""Pilot assignment and MMSE channel estimation.

Pilots are mutually orthogonal with squared norm tau_p, so they are
represented purely by their index: all pilot inner products reduce to the
indicator 1{t_i == t_k}. The MMSE estimator acts on the projection of an
AP's received pilot matrix onto the normalized pilot, and is formed for all
links at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import planes
from .channel import ChannelStatistics
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
    positive definite whenever sigma^2 > 0. The stack is the planes.stacked
    view of (N, N, M, tau_p) entry planes, whose user sums are one product
    of the (N*N*M, K) planes of R with the (K, tau_p) pilot indicator.
    """
    R = planes.planes(stats.R)                                  # (N, N, M, K)
    n, _, m, k = R.shape
    on_pilot = assignment.t[:, None] == np.arange(assignment.tau_p)
    psi = ((assignment.tau_p * powers.pilot_power)
           * (R.reshape(-1, k) @ on_pilot.astype(complex))).reshape(n, n, m, -1)
    for i in range(n):
        psi[i, i] += stats.noise_power
    return planes.stacked(psi).swapaxes(0, 1)


@dataclass(frozen=True)
class EstimationTerms:
    """The MMSE estimator of a drop and the power of its estimates. Both
    depend on the channel statistics, the pilots and the pilot power only,
    not on the serving links or the data power."""
    coef: np.ndarray              # (M, K, N, N) sqrt(p^p tau_p) R[m,k] Psi[m,t_k]^-1
    est_trace: np.ndarray         # (M, K) E{||H_hat[m, k]||^2}


def estimation_terms(stats: ChannelStatistics, assignment: PilotAssignment,
                     powers: PowerConfig) -> EstimationTerms:
    """The MMSE estimator coef[m, k] = sqrt(p^p tau_p) R[m,k] Psi[m,t_k]^-1
    and est_trace[m, k] = sqrt(p^p tau_p) tr(coef[m, k] R[m, k]).

    All of it runs on entry planes (cfmimo.planes): Psi is inverted by
    Gauss-Jordan elimination on its planes, which needs no pivoting since
    Psi is positive definite (sigma^2 > 0), and coef is the planes.stacked
    view of its (N, N, M, K) planes. Of powers only the pilot power is read.
    """
    amp = np.sqrt(powers.pilot_power * assignment.tau_p)
    R = planes.planes(stats.R)                                  # (N, N, M, K)
    psi_inv = planes.inverse(planes.planes(
        psi_stack(stats, assignment, powers).swapaxes(0, 1)))   # (N, N, M, tau_p)
    coef = planes.product(R, np.take(amp * psi_inv, assignment.t, axis=-1))
    est_trace = amp * planes.trace_product(coef, R).real
    return EstimationTerms(coef=planes.stacked(coef), est_trace=est_trace)
