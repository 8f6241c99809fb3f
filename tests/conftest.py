"""Shared builders for synthetic channel statistics and full small instances."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cfmimo.channel import ChannelStatistics, spatial_correlation
from cfmimo.clustering import ClusteringParams, build_serving_structure
from cfmimo.harness import validation_config
from cfmimo.pilots import assign_pilots
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
    R = spatial_correlation(angles[..., None, None], 15.0, num_antennas,
                            beta[..., None, None])
    return ChannelStatistics(R=R, beta=beta, noise_power=noise_power)


def random_cpu_map(num_aps: int, num_cpus: int,
                   rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Random partition of AP indices into num_cpus nonempty pools."""
    owner = np.concatenate([np.arange(num_cpus),
                            rng.integers(0, num_cpus, size=num_aps - num_cpus)])
    rng.shuffle(owner)
    return tuple(tuple(np.flatnonzero(owner == q)) for q in range(num_cpus))


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
    serving = build_serving_structure(stats.beta, deployment.cpu_map,
                                      config.clustering, stats.noise_power,
                                      mode=mode)
    terms = compute_terms(serving, stats, assignment, config.powers)
    return stats, assignment, serving, terms, config.powers, config.frame


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
