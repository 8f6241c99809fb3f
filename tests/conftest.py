"""Shared builders for synthetic channel statistics and full small instances."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cfmimo.channel import ChannelStatistics, spatial_correlation
from cfmimo.clustering import (ClusteringParams, build_serving_structure,
                               serving_mask)
from cfmimo.harness import validation_config
from cfmimo.pilots import assign_pilots, estimation_terms, psi_stack
from cfmimo.scenario import generate_deployment
from cfmimo.spectral_efficiency import compute_terms
from cfmimo import channel_stats


def random_stats(num_aps: int, num_users: int, num_antennas: int,
                 rng: np.random.Generator, noise_power: float = 0.5,
                 beta_scale: float = 1.0) -> ChannelStatistics:
    """Synthetic statistics with order-one coefficients for unit tests.

    Correlation matrices come from the local-scattering closed form at random
    bearings, so they are genuinely Hermitian PSD with trace N*beta.
    """
    beta = beta_scale * rng.lognormal(mean=0.0, sigma=1.0,
                                      size=(num_aps, num_users))
    angles = rng.uniform(-np.pi, np.pi, size=(num_aps, num_users))
    R = spatial_correlation(angles, 15.0, num_antennas, beta)
    return ChannelStatistics(R=R, beta=beta, noise_power=noise_power)


def solved_estimate_covariance(stats, assignment, powers) -> np.ndarray:
    """(M, K, N, N) covariances p^p tau_p R Psi^-1 R of the MMSE estimates,
    formed with np.linalg.solve rather than with the library's inverse."""
    psi = psi_stack(stats, assignment, powers)[assignment.t].swapaxes(0, 1)
    return (powers.pilot_power * assignment.tau_p
            * stats.R @ np.linalg.solve(psi, stats.R))


def per_user(flat: np.ndarray, terms) -> list[np.ndarray]:
    """flat, over the groups of terms in SIC order (as RateResult.sinr_flat),
    cut into one array per user, terms.group_count[k] entries for user k."""
    return np.split(flat, np.cumsum(terms.group_count)[:-1])


def random_cpu_map(num_aps: int, num_cpus: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(num_aps,) random AP-to-CPU map in which every CPU controls an AP."""
    owner = np.concatenate([np.arange(num_cpus),
                            rng.integers(0, num_cpus, size=num_aps - num_cpus)])
    rng.shuffle(owner)
    return owner


def legacy(size: int) -> ClusteringParams:
    return ClusteringParams(algorithm="legacy_largest_lsf",
                            legacy_cluster_size=size)


def threshold(n_cpu: int, delta: float) -> ClusteringParams:
    """The threshold algorithm on the raw LSF."""
    return ClusteringParams(algorithm="lsf_threshold", n_cpu=n_cpu,
                            lsf_threshold=delta, threshold_mode="raw_linear")


def fixed(n_cpu: int, n_ap: int) -> ClusteringParams:
    return ClusteringParams(algorithm="fixed_aps", n_cpu=n_cpu, n_ap=n_ap)


def power(n_cpu: int, fraction: float) -> ClusteringParams:
    return ClusteringParams(algorithm="power_fraction", n_cpu=n_cpu,
                            power_fraction=fraction)


def cluster_of(beta, ap_to_cpu, num_cpus: int,
               params: ClusteringParams) -> tuple[int, ...]:
    """The cluster of one user whose LSF column is beta, from the mask."""
    mask = serving_mask(np.asarray(beta, dtype=float)[:, None],
                        np.asarray(ap_to_cpu), num_cpus, params)
    return tuple(np.flatnonzero(mask[:, 0]).tolist())


def small_instance(num_aps: int, num_users: int, num_antennas: int,
                   num_cpus: int, tau_p: int, seed: int,
                   mode: str = "mixed",
                   clustering: ClusteringParams | None = None):
    """Full geometric pipeline on a validation_config deployment.

    Returns (stats, assignment, serving, terms, powers, frame).
    """
    config = validation_config(num_aps, num_users, num_cpus, tau_p)
    if clustering is not None:
        config = replace(config, clustering=clustering)
    rng = np.random.default_rng(seed)
    deployment = generate_deployment(replace(
        config.scenario, num_antennas=num_antennas, seed=seed))
    stats = channel_stats(deployment, config.large_scale, rng)
    assignment = assign_pilots(num_users, tau_p, rng)
    serving = build_serving_structure(stats.beta, deployment.ap_to_cpu,
                                      deployment.num_cpus, config.clustering,
                                      stats.noise_power, mode=mode)
    terms = compute_terms(serving, stats, assignment, config.powers,
                          estimation_terms(stats, assignment, config.powers))
    return stats, assignment, serving, terms, config.powers, config.frame


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
