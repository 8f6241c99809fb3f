import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_stats, small_instance

from cfmimo.channel import sample_channel
from cfmimo.clustering import ServingStructure, build_serving_structure, \
    ClusteringParams
from cfmimo.errors import ConfigurationError, DegenerateLinkError
from cfmimo.harness import OracleConfig, run_oracle_check, validation_config
from cfmimo.pilots import (PilotAssignment, PowerConfig, estimate_covariance,
                           mmse_coefficients, mmse_estimate, psi_stack,
                           simulate_pilot_phase)
from cfmimo import spectral_efficiency
from cfmimo.spectral_efficiency import (FrameConfig, compute_terms,
                                        effective_data_powers, mc_oracle,
                                        mr_scale, sinr_mixed, user_rates)


def _single_link_setup(rng, num_antennas=2, noise_power=0.5):
    stats = random_stats(1, 1, num_antennas, rng, noise_power=noise_power)
    assignment = PilotAssignment(tau_p=2, t=np.array([0]))
    serving = ServingStructure(clusters=((0,),), groups=(((0, (0,)),),),
                               num_aps=1)
    return stats, assignment, serving


class TestMrPrecoder:
    """W = mr_scale * H_hat, the MR precoder normalised by E{||H_hat||^2}."""

    def test_zero_power_zero_precoder(self):
        # An inactive link gets scale 0 even with no estimate power.
        scale = mr_scale(np.array([[0.0, 0.1]]), np.array([[0.0, 2.0]]))
        assert scale[0, 0] == 0.0

    def test_scalar_scaling(self):
        scale = mr_scale(np.array([[0.1]]), np.array([[4.0]]))
        assert scale[0, 0] == pytest.approx(np.sqrt(0.1 / 4.0))

    def test_degenerate_normalization_rejected(self):
        rho = np.full((2, 3), 0.1)
        est_trace = np.ones((2, 3))
        est_trace[1, 2] = 0.0
        with pytest.raises(DegenerateLinkError, match=r"AP 1, user 2"):
            mr_scale(rho, est_trace)

    def test_mean_power_matches_rho(self, rng):
        # E{||W||^2} = rho by construction of the normalization.
        stats = random_stats(1, 1, 2, rng)
        assignment = PilotAssignment(tau_p=2, t=np.array([0]))
        powers = PowerConfig()
        gen = np.random.default_rng(3)
        y = simulate_pilot_phase(sample_channel(stats, gen, num_samples=100_000),
                                 assignment, powers, stats.noise_power, gen)
        psi_inv = np.linalg.inv(psi_stack(stats, assignment, powers))
        h_hat = mmse_estimate(
            y, mmse_coefficients(stats, assignment, powers, psi_inv), assignment)
        est = estimate_covariance(stats, assignment, powers, psi_inv)
        trace = np.trace(est, axis1=-2, axis2=-1).real
        w = mr_scale(np.full((1, 1), powers.data_power), trace)[..., None] * h_hat
        mean_power = (np.abs(w[:, 0, 0]) ** 2).sum(axis=1).mean()
        assert mean_power == pytest.approx(powers.data_power, rel=0.02)


class TestEffectiveDataPowers:
    def _serving(self):
        return ServingStructure(clusters=((0, 1), (0,)),
                                groups=(((0, (0, 1)),), ((0, (0,)),)),
                                num_aps=2)

    def test_nominal_powers_on_links(self):
        rho = effective_data_powers(self._serving(), PowerConfig(data_power=0.1))
        assert np.allclose(rho, [[0.1, 0.1], [0.1, 0.0]])

    def test_rescale_overloaded_ap(self):
        powers = PowerConfig(data_power=0.1, ap_power_budget=0.1,
                             power_budget_mode="rescale")
        rho = effective_data_powers(self._serving(), powers)
        assert rho[0].sum() == pytest.approx(0.1)
        assert rho[1, 0] == pytest.approx(0.1)  # AP 1 is within budget

    def test_error_mode_raises(self):
        powers = PowerConfig(data_power=0.1, ap_power_budget=0.15,
                             power_budget_mode="error")
        with pytest.raises(ConfigurationError):
            effective_data_powers(self._serving(), powers)

    def test_ignore_mode_keeps_nominal(self):
        powers = PowerConfig(data_power=0.1, ap_power_budget=0.05,
                             power_budget_mode="ignore")
        rho = effective_data_powers(self._serving(), powers)
        assert np.allclose(rho[0], [0.1, 0.1])


class TestComputeTerms:
    def test_single_link_closed_forms(self, rng):
        # One AP, one user, N = 1: every term reduces to scalar algebra.
        beta, noise = 2.0, 0.5
        stats, assignment, serving = _single_link_setup(rng, 1, noise)
        stats.R[0, 0, 0, 0] = beta
        stats.beta[0, 0] = beta
        powers = PowerConfig(pilot_power=0.2, data_power=0.1)
        terms = compute_terms(serving, stats, assignment, powers)

        psi = 2 * 0.2 * beta + noise
        d_expected = 0.1 * 0.2 * 2 * beta**2 / psi
        assert terms.D[0][0] == pytest.approx(d_expected, rel=1e-12)
        # Average power of the own link: rho * tr(R G)/tr(G) = rho * beta.
        assert terms.E[0] == pytest.approx(0.1 * beta, rel=1e-12)
        assert terms.F[0] == pytest.approx(d_expected, rel=1e-12)

    def test_single_group_d_equals_trace_form(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers)
        psi = psi_stack(stats, assignment, powers)[0, 0]
        g = stats.R[0, 0] @ np.linalg.inv(psi) @ stats.R[0, 0]
        expected = (powers.data_power * powers.pilot_power * assignment.tau_p
                    * np.trace(g).real)
        assert terms.D[0][0] == pytest.approx(expected, rel=1e-10)

    def test_lone_user_f_equals_sum_of_d(self, rng):
        # With no co-pilot partners, F's only term is the own-user one.
        stats, assignment, serving, terms, _, _ = small_instance(
            6, 1, 2, 2, 2, seed=5)
        assert terms.F[0] == pytest.approx(np.sum(terms.D[0]), rel=1e-9)

    def test_own_user_share_of_f_bounds_d(self, rng):
        for seed in range(5):
            _, assignment, _, terms, _, _ = small_instance(8, 3, 2, 2, 2,
                                                           seed=seed)
            for k in range(3):
                assert terms.F[k] >= np.sum(terms.D[k]) * (1 - 1e-9)

    def test_terms_nonnegative(self):
        for seed in range(5):
            _, _, _, terms, _, _ = small_instance(8, 4, 2, 2, 2, seed=seed)
            assert np.all(terms.E >= 0)
            assert np.all(terms.F >= 0)
            assert all(np.all(d >= 0) for d in terms.D)

    def test_sic_order_descending_desired(self):
        _, _, serving, terms, _, _ = small_instance(10, 4, 2, 4, 4, seed=2)
        for k in range(4):
            d = terms.D[k]
            assert np.all(np.diff(d) <= 1e-15)
            # group_order is a permutation of the serving groups.
            assert sorted(terms.group_order[k]) == \
                list(range(len(serving.groups[k])))

    def test_zero_statistics_serving_link_rejected(self):
        stats = random_stats(1, 1, 2, np.random.default_rng(0))
        stats.R[0, 0] = 0.0
        assignment = PilotAssignment(tau_p=1, t=np.array([0]))
        serving = ServingStructure(clusters=((0,),), groups=(((0, (0,)),),),
                                   num_aps=1)
        with pytest.raises(DegenerateLinkError):
            compute_terms(serving, stats, assignment, PowerConfig())


class TestSinr:
    def test_single_group_coherent_form(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers)
        gamma = sinr_mixed(terms, 0, 1, stats.noise_power)
        expected = terms.D[0][0] / (terms.E[0] + terms.F[0] - terms.D[0][0]
                                    + stats.noise_power)
        assert gamma == pytest.approx(expected, rel=1e-12)

    def test_denominator_monotone_along_sic(self):
        # Each decoded group removes its own-signal power from the residual.
        _, _, _, terms, _, _ = small_instance(12, 4, 2, 4, 4, seed=3)
        noise = 1e-13
        for k in range(4):
            denoms = [terms.E[k] + terms.F[k] - np.sum(terms.D[k][: c + 1])
                      + noise for c in range(terms.D[k].size)]
            assert np.all(np.diff(denoms) <= 1e-15)
            assert all(d > 0 for d in denoms)

    def test_out_of_range_group_rejected(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        terms = compute_terms(serving, stats, assignment, PowerConfig())
        with pytest.raises(ConfigurationError):
            sinr_mixed(terms, 0, 2, stats.noise_power)
        with pytest.raises(ConfigurationError):
            sinr_mixed(terms, 0, 0, stats.noise_power)


class TestUserRates:
    def test_prelog_arithmetic(self):
        frame = FrameConfig(tau_c=200, tau_p=10)
        assert frame.prelog == pytest.approx(0.95)

    def test_unit_sinr_rate(self):
        # gamma = 1 with tau_c = 200, tau_p = 10 gives 0.95 bits/s/Hz.
        from cfmimo.spectral_efficiency import SETerms
        terms = SETerms(D=(np.array([2.0]),), E=np.array([1.0]),
                        F=np.array([1.0]), group_order=((0,),))
        serving = ServingStructure(clusters=((0,),), groups=(((0, (0,)),),),
                                   num_aps=1)
        # Denominator = 1 + 1 - 2 + 2 = 2, so gamma = 1.
        result = user_rates(terms, serving, FrameConfig(200, 10),
                            noise_power=2.0)
        assert result.user_rate[0] == pytest.approx(0.95, rel=1e-12)

    def test_zero_gamma_zero_rate(self):
        frame = FrameConfig(tau_c=200, tau_p=10)
        assert frame.prelog * np.log2(1.0 + 0.0) == 0.0

    def test_rates_consistent_with_sinrs(self):
        stats, assignment, serving, terms, powers, frame = small_instance(
            8, 3, 2, 2, 2, seed=1)
        result = user_rates(terms, serving, frame, stats.noise_power)
        for k in range(3):
            expected = sum(
                frame.prelog * np.log2(1.0 + sinr_mixed(terms, k, c + 1,
                                                        stats.noise_power))
                for c in range(terms.D[k].size))
            assert result.user_rate[k] == pytest.approx(expected, rel=1e-12)
        assert result.sum_rate == pytest.approx(result.user_rate.sum())

    def test_invalid_frame_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameConfig(tau_c=10, tau_p=10)
        with pytest.raises(ConfigurationError):
            FrameConfig(tau_c=10, tau_p=0)


class TestOracle:
    def test_single_link_scalar_agreement(self, rng):
        # N = 1, one AP, one user: closed forms are hand-computable and the
        # oracle must land on them within a few standard errors.
        beta, noise = 2.0, 0.5
        stats, assignment, serving = _single_link_setup(rng, 1, noise)
        stats.R[0, 0, 0, 0] = beta
        stats.beta[0, 0] = beta
        powers = PowerConfig(pilot_power=0.2, data_power=0.1)
        frame = FrameConfig(200, 2)
        oracle = mc_oracle(serving, stats, assignment, powers, frame,
                           num_samples=50_000, rng=np.random.default_rng(8))
        psi = 2 * 0.2 * beta + noise
        d_hand = 0.1 * 0.2 * 2 * beta**2 / psi
        e_hand = 0.1 * beta
        assert abs(oracle.D[0][0] - d_hand) <= max(4 * oracle.D_se[0][0],
                                                   0.02 * d_hand)
        assert abs(oracle.E[0] - e_hand) <= max(4 * oracle.E_se[0],
                                                0.02 * e_hand)
        assert abs(oracle.F[0] - d_hand) <= max(4 * oracle.F_se[0],
                                                0.02 * d_hand)

    def test_noiseless_uncontaminated_regime(self, rng):
        # Perfect estimates collapse the pilot-phase variance; the oracle
        # tracks the closed form tightly.
        stats = random_stats(2, 2, 2, rng, noise_power=1e-12)
        assignment = PilotAssignment(tau_p=2, t=np.array([0, 1]))
        cpu_map = ((0,), (1,))
        serving = build_serving_structure(
            stats.beta, cpu_map,
            ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=2),
            stats.noise_power)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers)
        oracle = mc_oracle(serving, stats, assignment, powers,
                           FrameConfig(200, 2), num_samples=100_000,
                           rng=np.random.default_rng(9), terms=terms)
        for k in range(2):
            for c in range(terms.D[k].size):
                err = abs(terms.D[k][c] - oracle.D[k][c])
                assert err <= max(0.005 * terms.D[k][c], 3 * oracle.D_se[k][c])

    def test_oracle_reports_standard_errors(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        oracle = mc_oracle(serving, stats, assignment, PowerConfig(),
                           FrameConfig(200, 2), num_samples=2_000,
                           rng=np.random.default_rng(10))
        assert oracle.num_samples == 2_000
        assert np.all(oracle.E_se > 0)
        assert all(np.all(se > 0) for se in oracle.D_se)

    def test_clipped_desired_power_keeps_finite_sinr_error(self):
        # On this drop the oracle clips user 2's fourth-group D estimate to
        # 0; its SINR error must stay finite so that every SINR can be held
        # to max(2 %, 3 SE) of the closed form.
        config = replace(validation_config(12, 4, 4, 2), base_seed=41,
                         oracle=OracleConfig(num_samples=100_000))
        terms, oracle, noise = run_oracle_check(config, 4)
        assert oracle.D[2][3] == 0.0
        for k in range(4):
            assert np.all(np.isfinite(oracle.sinr_se[k]))
            for c in range(terms.D[k].size):
                closed = sinr_mixed(terms, k, c + 1, noise)
                assert abs(closed - oracle.sinr[k][c]) <= max(
                    0.02 * abs(closed), 3.0 * oracle.sinr_se[k][c])

    def test_chunking_changes_neither_stream_nor_result(self, monkeypatch):
        # The chunk only bounds the temporaries: one-sample chunks and one
        # chunk per batch give the default's terms and standard errors.
        config = replace(validation_config(12, 4, 4, 4),
                         oracle=OracleConfig(num_samples=3_000))
        _, default, _ = run_oracle_check(config)
        for chunk in (7, 10 ** 9):
            monkeypatch.setattr(spectral_efficiency, "ORACLE_CHUNK_SIZE", chunk)
            _, oracle, _ = run_oracle_check(config)
            for name in ("D", "D_se", "E", "E_se", "F", "F_se", "sinr",
                         "sinr_se"):
                np.testing.assert_allclose(
                    np.hstack(getattr(oracle, name)),
                    np.hstack(getattr(default, name)), rtol=1e-12, atol=0,
                    err_msg=f"{name}, chunk {chunk}")

    def test_peak_memory_is_one_batch_of_normals(self):
        # One 100 000-sample call at (M, K, Q, tau_p) = (12, 4, 4, 4) holds
        # one batch of standard normals (about 61 MB) and chunk-sized
        # temporaries.
        stats, assignment, serving, terms, powers, frame = small_instance(
            12, 4, 2, 4, 4, seed=0)
        tracemalloc.start()
        try:
            mc_oracle(serving, stats, assignment, powers, frame, 100_000,
                      np.random.default_rng(0), terms=terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128e6

    def test_invalid_sample_count(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        with pytest.raises(ConfigurationError):
            mc_oracle(serving, stats, assignment, PowerConfig(),
                      FrameConfig(200, 2), num_samples=0,
                      rng=np.random.default_rng(0))
