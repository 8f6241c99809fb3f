import numpy as np
import pytest

from conftest import random_stats, solved_estimate_covariance

from cfmimo.channel import ChannelStatistics, complex_normals, sample_channel
from cfmimo.errors import ConfigurationError
from cfmimo.pilots import (PilotAssignment, PowerConfig, assign_pilots,
                           estimation_terms, mmse_estimate, pilot_observations,
                           psi_stack, simulate_pilot_phase)


class TestAssignPilots:
    def test_single_pilot_everyone_copilot(self, rng):
        a = assign_pilots(6, 1, rng)
        for k in range(6):
            assert np.array_equal(a.users_on_pilot(a.t[k]), np.arange(6))

    def test_distinct_pilots_no_contamination(self):
        a = PilotAssignment(tau_p=5, t=np.array([0, 1, 2, 3, 4]))
        for k in range(5):
            assert np.array_equal(a.users_on_pilot(a.t[k]), [k])

    def test_copilot_sets_symmetric_and_reflexive(self, rng):
        a = assign_pilots(15, 4, rng)
        for k in range(15):
            s = set(a.users_on_pilot(a.t[k]).tolist())
            assert k in s
            for i in s:
                assert k in set(a.users_on_pilot(a.t[i]).tolist())

    def test_mean_copilot_count(self):
        # K = 20 users on tau_p = 10 pilots: E|P_k| = 1 + 19/10 = 2.9.
        gen = np.random.default_rng(12)
        sizes = []
        for _ in range(2_000):
            a = assign_pilots(20, 10, gen)
            sizes.extend(len(a.users_on_pilot(a.t[k])) for k in range(20))
        assert np.mean(sizes) == pytest.approx(2.9, abs=0.05)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ConfigurationError):
            assign_pilots(4, 0, rng)
        with pytest.raises(ConfigurationError):
            PilotAssignment(tau_p=2, t=np.array([0, 2]))


def _identity_stats(num_aps, num_users, beta=2.0, noise_power=0.5,
                    num_antennas=2):
    R = np.zeros((num_aps, num_users, num_antennas, num_antennas),
                 dtype=complex)
    R[..., np.arange(num_antennas), np.arange(num_antennas)] = beta
    return ChannelStatistics(R=R, beta=np.full((num_aps, num_users), beta),
                             noise_power=noise_power)


class TestPsi:
    def test_empty_pilot_is_noise_only(self):
        stats = _identity_stats(1, 2)
        a = PilotAssignment(tau_p=3, t=np.array([0, 0]))
        psi = psi_stack(stats, a, PowerConfig())[2, 0]
        assert np.allclose(psi, stats.noise_power * np.eye(2))

    def test_single_user_identity_correlation(self):
        stats = _identity_stats(1, 1, beta=2.0, noise_power=0.5)
        a = PilotAssignment(tau_p=4, t=np.array([0]))
        psi = psi_stack(stats, a, PowerConfig(pilot_power=0.2))[0, 0]
        assert np.allclose(psi, (4 * 0.2 * 2.0 + 0.5) * np.eye(2))

    def test_matches_direct_summation(self, rng):
        stats = random_stats(3, 5, 2, rng)
        a = assign_pilots(5, 2, rng)
        powers = PowerConfig()
        stack = psi_stack(stats, a, powers)
        for m in range(3):
            for pilot in range(2):
                direct = stats.noise_power * np.eye(2, dtype=complex)
                for i in np.flatnonzero(a.t == pilot):
                    direct = direct + a.tau_p * powers.pilot_power * stats.R[m, i]
                assert np.allclose(stack[pilot, m], direct)

    def test_stack_matches_per_entry(self, rng):
        # Each entry against a one-hot pilot-membership weighting of R[m].
        stats = random_stats(4, 6, 3, rng)
        a = assign_pilots(6, 3, rng)
        powers = PowerConfig()
        stack = psi_stack(stats, a, powers)
        assert stack.shape == (3, 4, 3, 3)
        for pilot in range(3):
            weights = a.tau_p * powers.pilot_power * (a.t == pilot)
            for m in range(4):
                entry = (np.einsum("k,kab->ab", weights, stats.R[m])
                         + stats.noise_power * np.eye(3))
                assert np.allclose(stack[pilot, m], entry)

    def test_eigenvalues_at_least_noise(self, rng):
        stats = random_stats(3, 4, 2, rng)
        a = assign_pilots(4, 2, rng)
        stack = psi_stack(stats, a, PowerConfig())
        w = np.linalg.eigvalsh(stack)
        assert np.all(w >= stats.noise_power - 1e-12)


class TestPilotPhase:
    def test_noiseless_single_user(self, rng):
        stats = random_stats(2, 1, 2, rng, noise_power=0.3)
        a = PilotAssignment(tau_p=2, t=np.array([0]))
        powers = PowerConfig(pilot_power=0.2)
        h = np.ones((2, 1, 2), dtype=complex)
        y = simulate_pilot_phase(h, a, powers, noise_power=0.0, rng=rng)
        assert np.allclose(y[0], np.sqrt(0.2 * 2) * h[:, 0])
        assert np.allclose(y[1], 0.0)

    def test_copilot_channels_add_coherently(self, rng):
        a = PilotAssignment(tau_p=1, t=np.array([0, 0]))
        powers = PowerConfig(pilot_power=0.5)
        h = np.ones((1, 2, 2), dtype=complex)
        y = simulate_pilot_phase(h, a, powers, noise_power=0.0, rng=rng)
        assert np.allclose(y[0, 0], 2.0 * np.sqrt(0.5))

    def test_noise_drawn_as_complex_normals(self, rng):
        # simulate_pilot_phase = pilot_observations of one complex normal
        # per entry of the noise, in C order.
        a = PilotAssignment(tau_p=3, t=np.array([0, 2]))
        powers = PowerConfig()
        h = rng.standard_normal((4, 2, 2, 2)) + 1j * rng.standard_normal((4, 2, 2, 2))
        y = simulate_pilot_phase(h, a, powers, 0.5, np.random.default_rng(5))
        normals = complex_normals(np.random.default_rng(5).bit_generator,
                                  np.empty((4, 3, 2, 2), complex))
        assert np.array_equal(
            y, pilot_observations(h, normals, a, powers, 0.5))
        assert np.allclose(y[:, 1], np.sqrt(0.25) * normals[:, 1],
                           rtol=1e-15, atol=0)

    def test_observation_covariance_matches_psi(self, rng):
        # One AP, two co-pilot users; 10^5 batched draws of y_check.
        stats = random_stats(1, 2, 2, rng, noise_power=0.4)
        a = PilotAssignment(tau_p=2, t=np.array([0, 0]))
        powers = PowerConfig()
        gen = np.random.default_rng(21)
        n = 100_000
        h = sample_channel(stats, gen, num_samples=n)
        y = simulate_pilot_phase(h, a, powers, stats.noise_power, gen)
        assert y.shape == (n, 2, 1, 2)
        emp = np.einsum("sa,sb->ab", y[:, 0, 0], np.conj(y[:, 0, 0])) / n
        psi = psi_stack(stats, a, powers)[0, 0]
        assert np.linalg.norm(emp - psi) <= 0.02 * np.linalg.norm(psi)


class TestMmseEstimate:
    def test_perfect_estimation_limit(self, rng):
        # No noise, no contamination, invertible R: the estimate is exact.
        stats = random_stats(1, 1, 2, rng, noise_power=0.0)
        a = PilotAssignment(tau_p=1, t=np.array([0]))
        powers = PowerConfig(pilot_power=0.2)
        h = (rng.standard_normal((1, 1, 2)) + 1j * rng.standard_normal((1, 1, 2)))
        y = simulate_pilot_phase(h, a, powers, noise_power=0.0, rng=rng)
        coef = estimation_terms(stats, a, powers).coef
        assert np.allclose(mmse_estimate(y, coef, a), h, atol=1e-10)

    def test_zero_statistics_zero_estimate(self, rng):
        stats = ChannelStatistics(R=np.zeros((1, 1, 2, 2), dtype=complex),
                                  beta=np.zeros((1, 1)), noise_power=0.5)
        a = PilotAssignment(tau_p=1, t=np.array([0]))
        powers = PowerConfig()
        coef = estimation_terms(stats, a, powers).coef
        y = np.ones((1, 1, 2), dtype=complex)
        assert np.allclose(mmse_estimate(y, coef, a), 0.0)

    def test_estimate_covariance_monte_carlo(self, rng):
        stats = random_stats(2, 3, 2, rng)
        a = PilotAssignment(tau_p=2, t=np.array([0, 0, 1]))
        powers = PowerConfig()
        gen = np.random.default_rng(31)
        y = simulate_pilot_phase(sample_channel(stats, gen, num_samples=100_000),
                                 a, powers, stats.noise_power, gen)
        h_hat = mmse_estimate(y, estimation_terms(stats, a, powers).coef, a)
        target = solved_estimate_covariance(stats, a, powers)
        emp = np.einsum("smka,smkb->mkab", h_hat, np.conj(h_hat)) / h_hat.shape[0]
        assert np.all(np.linalg.norm(emp - target, axis=(-2, -1))
                      <= 0.02 * np.linalg.norm(target, axis=(-2, -1)))

    def test_batch_sampler_matches_per_link_estimator(self, rng):
        # Batched estimates of three draws (users 0 and 2 share a pilot)
        # against sqrt(p tau) R Psi^-1 y solved link by link.
        stats = random_stats(2, 3, 2, rng)
        a = PilotAssignment(tau_p=2, t=np.array([0, 1, 0]))
        powers = PowerConfig()
        gen = np.random.default_rng(41)
        y = simulate_pilot_phase(sample_channel(stats, gen, num_samples=3),
                                 a, powers, stats.noise_power, gen)
        psi = psi_stack(stats, a, powers)
        h_hat = mmse_estimate(y, estimation_terms(stats, a, powers).coef, a)
        amp = np.sqrt(powers.pilot_power * a.tau_p)
        for s, m, k in np.ndindex(3, 2, 3):
            per_link = amp * stats.R[m, k] @ np.linalg.solve(psi[a.t[k], m],
                                                            y[s, a.t[k], m])
            assert np.allclose(h_hat[s, m, k], per_link, rtol=1e-10, atol=1e-14)


class TestEstimationTerms:
    @pytest.mark.parametrize("num_antennas", [1, 2, 4])
    def test_matches_solved_covariance(self, num_antennas, rng):
        # sqrt(p^p tau_p) coef R and est_trace against p^p tau_p R Psi^-1 R
        # formed with np.linalg.solve, users 0, 2 and 4 on one pilot.
        stats = random_stats(5, 6, num_antennas, rng)
        a = PilotAssignment(tau_p=3, t=np.array([0, 1, 0, 2, 0, 1]))
        powers = PowerConfig()
        est = estimation_terms(stats, a, powers)
        target = solved_estimate_covariance(stats, a, powers)
        amp = np.sqrt(powers.pilot_power * a.tau_p)
        assert est.coef.shape == stats.R.shape
        assert np.allclose(amp * est.coef @ stats.R, target, rtol=1e-12, atol=0)
        assert np.allclose(est.est_trace,
                           np.trace(target, axis1=-2, axis2=-1).real,
                           rtol=1e-12, atol=0)


class TestErrorCovariance:
    """The error covariance R - p^p tau_p R Psi^-1 R of the MMSE estimator."""

    def test_complement_identity(self, rng):
        # Error plus the estimate's covariance formed as coef Psi coef^H
        # from the estimator itself gives R back.
        stats = random_stats(3, 4, 2, rng)
        a = assign_pilots(4, 2, rng)
        powers = PowerConfig()
        psi = psi_stack(stats, a, powers)
        coef = estimation_terms(stats, a, powers).coef
        error = stats.R - solved_estimate_covariance(stats, a, powers)
        a_psi_a = coef @ psi[a.t].swapaxes(0, 1) @ np.conj(coef).swapaxes(-2, -1)
        assert np.allclose(error + a_psi_a, stats.R, rtol=1e-9, atol=1e-12)

    def test_no_pilot_energy_gives_full_error(self, rng):
        stats = random_stats(1, 1, 2, rng)
        a = PilotAssignment(tau_p=1, t=np.array([0]))
        powers = PowerConfig(pilot_power=0.0)
        est = solved_estimate_covariance(stats, a, powers)
        assert np.allclose(stats.R - est, stats.R)

    def test_perfect_limit_gives_zero_error(self, rng):
        stats = random_stats(1, 1, 2, rng, noise_power=0.0)
        a = PilotAssignment(tau_p=1, t=np.array([0]))
        powers = PowerConfig()
        est = solved_estimate_covariance(stats, a, powers)
        assert np.allclose(stats.R - est, 0.0, atol=1e-10)

    def test_error_covariance_psd(self, rng):
        stats = random_stats(3, 3, 2, rng)
        a = assign_pilots(3, 2, rng)
        powers = PowerConfig()
        error = stats.R - solved_estimate_covariance(stats, a, powers)
        trace = np.trace(stats.R, axis1=-2, axis2=-1).real
        assert np.all(np.linalg.eigvalsh(error).min(axis=-1) >= -1e-12 * trace)


class TestPowerConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"pilot_power": -0.1},
        {"data_power": -1.0},
        {"ap_power_budget": -2.0},
        {"power_budget_mode": "clip"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PowerConfig(**kwargs)
