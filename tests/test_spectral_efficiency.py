import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_stats, small_instance, solved_estimate_covariance

from cfmimo.channel import channel_normals, sample_channel
from cfmimo.clustering import ServingStructure, build_serving_structure, \
    ClusteringParams
from cfmimo.errors import ConfigurationError, DegenerateLinkError, NumericalError
from cfmimo.harness import (ExperimentConfig, OracleConfig, run_oracle_check,
                            validation_config)
from cfmimo.pilots import (PilotAssignment, PowerConfig, estimation_terms,
                           mmse_estimate, pilot_normals, psi_stack,
                           simulate_pilot_phase)
from cfmimo.scenario import ScenarioConfig
from cfmimo import spectral_efficiency
from cfmimo.spectral_efficiency import (FrameConfig, compute_terms,
                                        effective_data_powers, mc_oracle,
                                        mr_scale, user_rates)


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
        h_hat = mmse_estimate(
            y, estimation_terms(stats, assignment, powers).coef, assignment)
        est = solved_estimate_covariance(stats, assignment, powers)
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
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))

        psi = 2 * 0.2 * beta + noise
        d_expected = 0.1 * 0.2 * 2 * beta**2 / psi
        assert terms.D[0][0] == pytest.approx(d_expected, rel=1e-12)
        # Average power of the own link: rho * tr(R G)/tr(G) = rho * beta.
        assert terms.E[0] == pytest.approx(0.1 * beta, rel=1e-12)
        assert terms.F[0] == pytest.approx(d_expected, rel=1e-12)

    def test_single_group_d_equals_trace_form(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
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
        powers = PowerConfig()
        estimation = estimation_terms(stats, assignment, powers)
        with pytest.raises(DegenerateLinkError):
            compute_terms(serving, stats, assignment, powers, estimation)

    @pytest.mark.parametrize("mode", ["coherent", "non_coherent", "mixed"])
    def test_matches_per_link_solve(self, mode):
        # D, E and F from their definitions, link by link with
        # np.linalg.solve, under a per-AP budget that rescales the data
        # power of some APs only, so that rho differs from AP to AP.
        stats, assignment, serving, _, _, _ = small_instance(
            12, 6, 3, 4, 3, seed=6, mode=mode)
        powers = PowerConfig(data_power=0.1, ap_power_budget=0.25,
                             power_budget_mode="rescale")
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        rho = effective_data_powers(serving, powers)
        assert np.unique(rho[rho > 0]).size > 1
        psi, t = psi_stack(stats, assignment, powers), assignment.t
        pt = powers.pilot_power * assignment.tau_p
        K = t.size
        E, F = np.zeros(K), np.zeros(K)
        for i, groups in enumerate(serving.groups):
            d = []
            for _, aps in groups:
                desired, cross = 0.0, np.zeros(K, dtype=complex)
                for m in aps:
                    R_own = stats.R[m, i]
                    own = pt * np.trace(R_own @ np.linalg.solve(
                        psi[t[i], m], R_own)).real      # E{||H_hat||^2}
                    s = np.sqrt(rho[m, i] / own)
                    desired += s * own
                    for k in range(K):
                        E[k] += s ** 2 * pt * np.trace(
                            stats.R[m, k] @ R_own
                            @ np.linalg.solve(psi[t[i], m], R_own)).real
                        if t[k] == t[i]:
                            cross[k] += s * pt * np.trace(
                                R_own @ np.linalg.solve(psi[t[i], m],
                                                        stats.R[m, k]))
                d.append(desired ** 2)
                F += np.abs(cross) ** 2
            np.testing.assert_allclose(
                terms.D[i], np.array(d)[list(terms.group_order[i])],
                rtol=1e-10, atol=0)
        np.testing.assert_allclose(terms.E, E, rtol=1e-10, atol=0)
        np.testing.assert_allclose(terms.F, F, rtol=1e-10, atol=0)


class TestStack:
    """A stack of P points over the same drop is the P points in turn,
    bit for bit: point p's user k is virtual user p*K + k."""

    POINTS = [(ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=4), "mixed"),
              (ClusteringParams(algorithm="fixed_aps", n_cpu=1, n_ap=6), "coherent"),
              (ClusteringParams(algorithm="legacy_largest_lsf",
                                legacy_cluster_size=3), "non_coherent"),
              (ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=4), "coherent")]

    @pytest.mark.parametrize("budget", [None, 0.25])
    def test_terms_and_rates_are_the_points(self, budget):
        # A per-AP budget of 2.5 links' power rescales per (point, AP): the
        # stack's AP serves more links over all points than within one.
        stats, assignment, _, _, powers, frame = small_instance(12, 4, 2, 2, 2, seed=3)
        powers = replace(powers, ap_power_budget=budget, power_budget_mode="rescale")
        owner = np.arange(12) % 2
        estimation = estimation_terms(stats, assignment, powers)

        def terms_of(params, modes):
            serving = build_serving_structure(stats.beta, owner, 2, params,
                                              stats.noise_power, modes)
            return compute_terms(serving, stats, assignment, powers, estimation)

        stack = terms_of([p for p, _ in self.POINTS], [m for _, m in self.POINTS])
        singles = [terms_of(p, m) for p, m in self.POINTS]
        if budget is not None:
            rho = effective_data_powers(build_serving_structure(
                stats.beta, owner, 2, self.POINTS[0][0], stats.noise_power), powers)
            assert rho.sum(axis=1).max() == pytest.approx(budget)
        np.testing.assert_array_equal(stack.E, np.concatenate([t.E for t in singles]))
        np.testing.assert_array_equal(stack.F, np.concatenate([t.F for t in singles]))
        assert stack.group_order == sum((t.group_order for t in singles), ())
        for got, want in zip(stack.D, [d for t in singles for d in t.D]):
            np.testing.assert_array_equal(got, want)
        rates = user_rates(stack, frame, stats.noise_power).user_rate
        np.testing.assert_array_equal(rates, np.concatenate(
            [user_rates(t, frame, stats.noise_power).user_rate for t in singles]))

    def test_budget_error_names_the_aps_over_budget_in_any_point(self):
        stats, assignment, _, _, powers, _ = small_instance(12, 4, 2, 2, 2, seed=3)
        owner, noise = np.arange(12) % 2, stats.noise_power
        over = set()
        for params, mode in self.POINTS:
            single = build_serving_structure(stats.beta, owner, 2, params, noise, mode)
            rho = effective_data_powers(single, powers)
            over |= set(np.flatnonzero(rho.sum(axis=1) > 0.25).tolist())
        stack = build_serving_structure(stats.beta, owner, 2,
                                        [p for p, _ in self.POINTS], noise,
                                        [m for _, m in self.POINTS])
        powers = replace(powers, ap_power_budget=0.25, power_budget_mode="error")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"at APs {sorted(over)}")):
            effective_data_powers(stack, powers, 4)

    def test_partial_point_rejected(self):
        stats, assignment, serving, _, powers, _ = small_instance(12, 4, 2, 2, 2, seed=3)
        part = ServingStructure(clusters=serving.clusters[:3],
                                groups=serving.groups[:3], num_aps=12)
        with pytest.raises(ConfigurationError, match="3 served users"):
            compute_terms(part, stats, assignment, powers,
                          estimation_terms(stats, assignment, powers))


class TestSinr:
    def test_single_group_coherent_form(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        gamma = user_rates(terms, FrameConfig(), stats.noise_power).sinr[0][0]
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


class TestUserRates:
    def test_prelog_arithmetic(self):
        frame = FrameConfig(tau_c=200, tau_p=10)
        assert frame.prelog == pytest.approx(0.95)

    def test_unit_sinr_rate(self):
        # gamma = 1 with tau_c = 200, tau_p = 10 gives 0.95 bits/s/Hz.
        from cfmimo.spectral_efficiency import SETerms
        terms = SETerms(D=(np.array([2.0]),), E=np.array([1.0]),
                        F=np.array([1.0]), group_order=((0,),))
        # Denominator = 1 + 1 - 2 + 2 = 2, so gamma = 1.
        result = user_rates(terms, FrameConfig(200, 10), noise_power=2.0)
        assert result.user_rate[0] == pytest.approx(0.95, rel=1e-12)

    def test_numerical_failures_name_user_and_group(self):
        from cfmimo.spectral_efficiency import SETerms
        # User 1's second group leaves 3 - 1 - 4 + 1 = -1 undecoded power.
        terms = SETerms(D=(np.array([1.0]), np.array([1.0, 4.0])),
                        E=np.array([3.0, 3.0]), F=np.zeros(2),
                        group_order=((0,), (0, 1)))
        with pytest.raises(NumericalError,
                           match="denominator for user 1, group 2"):
            user_rates(terms, FrameConfig(), noise_power=1.0)
        nan_terms = replace(terms, D=(np.array([1.0]), np.array([np.nan])))
        with pytest.raises(NumericalError, match="user 1 has rate nan"):
            user_rates(nan_terms, FrameConfig(), noise_power=1.0)

    def test_zero_gamma_zero_rate(self):
        frame = FrameConfig(tau_c=200, tau_p=10)
        assert frame.prelog * np.log2(1.0 + 0.0) == 0.0

    def test_rates_consistent_with_sinrs(self):
        stats, assignment, serving, terms, powers, frame = small_instance(
            8, 3, 2, 2, 2, seed=1)
        result = user_rates(terms, frame, stats.noise_power)
        for k in range(3):
            # Group by group, each SINR over the power not yet decoded.
            d, expected = terms.D[k], 0.0
            for c in range(d.size):
                gamma = d[c] / (terms.E[k] + terms.F[k] - np.sum(d[:c + 1])
                                + stats.noise_power)
                assert result.sinr[k][c] == pytest.approx(gamma, rel=1e-12)
                expected += frame.prelog * np.log2(1.0 + gamma)
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
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        oracle = mc_oracle(serving, stats, assignment, powers, frame,
                           num_samples=50_000, rng=np.random.default_rng(8),
                           terms=terms)
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
        serving = build_serving_structure(
            stats.beta, np.array([0, 1]), 2,
            ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=2),
            stats.noise_power)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        oracle = mc_oracle(serving, stats, assignment, powers,
                           FrameConfig(200, 2), num_samples=100_000,
                           rng=np.random.default_rng(9), terms=terms)
        for k in range(2):
            for c in range(terms.D[k].size):
                err = abs(terms.D[k][c] - oracle.D[k][c])
                assert err <= max(0.005 * terms.D[k][c], 3 * oracle.D_se[k][c])

    def test_oracle_reports_standard_errors(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        oracle = mc_oracle(serving, stats, assignment, powers,
                           FrameConfig(200, 2), num_samples=2_000,
                           rng=np.random.default_rng(10), terms=terms)
        assert oracle.num_samples == 2_000
        assert np.all(oracle.E_se > 0)
        assert all(np.all(se > 0) for se in oracle.D_se)

    def test_clipped_desired_power_keeps_finite_sinr_error(self):
        # On this drop the oracle clips user 3's fourth-group D estimate to
        # 0; its SINR error must stay finite so that every SINR can be held
        # to max(2 %, 3 SE) of the closed form.
        config = replace(validation_config(12, 4, 4, 2), base_seed=41,
                         oracle=OracleConfig(num_samples=100_000))
        terms, oracle, noise = run_oracle_check(config, 4)
        sinr = user_rates(terms, config.frame, noise).sinr
        assert oracle.D[3][3] == 0.0
        for k in range(4):
            assert np.all(np.isfinite(oracle.sinr_se[k]))
            for c in range(terms.D[k].size):
                closed = sinr[k][c]
                assert abs(closed - oracle.sinr[k][c]) <= max(
                    0.02 * abs(closed), 3.0 * oracle.sinr_se[k][c])

    def test_chunking_changes_neither_stream_nor_result(self, monkeypatch):
        # The chunk only bounds the temporaries: one-sample chunks and one
        # chunk per block give the default's terms and standard errors.
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

    def test_batches_draw_the_stream_of_fresh_normals(self, monkeypatch):
        # Drawn into the reused buffers, block b, the partial last one
        # included, holds the normals that channel_normals and pilot_normals
        # draw into arrays of their own from the b-th generator spawned from
        # the oracle's rng.
        monkeypatch.setattr(spectral_efficiency, "ORACLE_BLOCK", 700)
        stats, assignment, serving, terms, powers, frame = small_instance(
            8, 3, 2, 2, 3, seed=4)
        drawn = []

        class Recorder:
            def __init__(self, gen):
                self.gen = gen

            def spawn(self, n):
                return [Recorder(child) for child in self.gen.spawn(n)]

            def standard_normal(self, *args, **kwargs):
                out = self.gen.standard_normal(*args, **kwargs)
                drawn.append(out.copy())
                return out

        mc_oracle(serving, stats, assignment, powers, frame, 1_500,
                  Recorder(np.random.default_rng(3)), terms=terms)
        expected = []
        for block, n in zip(np.random.default_rng(3).spawn(3), (700, 700, 100)):
            g = channel_normals(stats, block, n)
            expected += [g, pilot_normals(g.shape[1:], assignment, block)]
        assert len(drawn) == len(expected)
        for got, want in zip(drawn, expected):
            np.testing.assert_array_equal(got, want)

    def test_jobs_do_not_change_the_result(self):
        # Three blocks, the last one partial, over two worker processes:
        # the same terms and standard errors bit for bit.
        config = replace(validation_config(8, 3, 2, 2),
                         oracle=OracleConfig(num_samples=2_500))
        _, serial, _ = run_oracle_check(config, 1)
        _, pooled, _ = run_oracle_check(config, 1, jobs=2)
        for name in ("D", "D_se", "E", "E_se", "F", "F_se", "sinr", "sinr_se"):
            np.testing.assert_array_equal(np.hstack(getattr(pooled, name)),
                                          np.hstack(getattr(serial, name)),
                                          err_msg=name)
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            run_oracle_check(config, 1, jobs=0)
        stats, assignment, serving, terms, powers, frame = small_instance(
            8, 3, 2, 2, 2, seed=0)
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            mc_oracle(serving, stats, assignment, powers, frame, 100,
                      np.random.default_rng(0), terms=terms, jobs=0)

    def test_desk_scale_closed_form_matches_oracle(self):
        # The rates of the presets come from this scale (M=40, K=10, N=2,
        # legacy clusters of 10 APs over 4 CPUs): every D, E, F and SINR of
        # a drop agrees with 10 000 oracle samples within max(2 %, 3 SE).
        config = ExperimentConfig(
            scenario=ScenarioConfig(num_aps=40, num_users=10, num_antennas=2),
            clustering=ClusteringParams(algorithm="legacy_largest_lsf",
                                        legacy_cluster_size=10),
            oracle=OracleConfig(num_samples=10_000))
        terms, oracle, noise = run_oracle_check(config)
        sinr = user_rates(terms, config.frame, noise).sinr
        for k in range(10):
            pairs = [(terms.E[k], oracle.E[k], oracle.E_se[k]),
                     (terms.F[k], oracle.F[k], oracle.F_se[k])]
            pairs += [(terms.D[k][c], oracle.D[k][c], oracle.D_se[k][c])
                      for c in range(terms.D[k].size)]
            pairs += [(sinr[k][c], oracle.sinr[k][c], oracle.sinr_se[k][c])
                      for c in range(terms.D[k].size)]
            for closed, est, se in pairs:
                assert abs(closed - est) <= max(0.02 * abs(closed), 3.0 * se)

    def test_peak_memory_is_one_batch_of_normals(self):
        # One 100 000-sample call at (M, K, Q, tau_p) = (12, 4, 4, 4) holds
        # one 1 000-sample block of standard normals (3.1 MB) and
        # chunk-sized temporaries: the (chunk, L, K, N) channel gather
        # (3.2 MB) and a few arrays of its size.
        stats, assignment, serving, terms, powers, frame = small_instance(
            12, 4, 2, 4, 4, seed=0)
        tracemalloc.start()
        try:
            mc_oracle(serving, stats, assignment, powers, frame, 100_000,
                      np.random.default_rng(0), terms=terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_invalid_sample_count(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        with pytest.raises(ConfigurationError):
            mc_oracle(serving, stats, assignment, powers,
                      FrameConfig(200, 2), num_samples=0,
                      rng=np.random.default_rng(0), terms=terms)
