import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (per_user, random_stats, small_instance,
                      solved_estimate_covariance)
from textbook import (correlate_channel, mmse_estimate, pilot_observations,
                      simulate_pilot_phase)

from cfmimo import channel
from cfmimo.channel import correlation_sqrt, sample_channel
from cfmimo.clustering import ServingStructure, build_serving_structure, \
    ClusteringParams
from cfmimo.errors import ConfigurationError, DegenerateLinkError, NumericalError
from cfmimo.harness import (ExperimentConfig, OracleConfig, run_oracle_check,
                            validation_config)
from cfmimo.pilots import (PilotAssignment, PowerConfig, estimation_terms,
                           psi_stack)
from cfmimo.scenario import ScenarioConfig
from cfmimo import spectral_efficiency
from cfmimo.spectral_efficiency import (FrameConfig, SETerms, compute_terms,
                                        link_scales, mc_oracle, user_rates)


def _link_powers(serving, powers, est_trace):
    """The (M, P*K) data powers rho = s^2 E{||H_hat||^2} of the serving
    links of a stack of P points over the K users of est_trace, from their
    link_scales s; zero on the other links."""
    links = serving.links
    est = est_trace[links.ap, links.user % est_trace.shape[1]]
    rho = np.zeros((est_trace.shape[0], serving.num_users))
    rho[links.ap, links.user] = link_scales(serving, powers, est_trace) ** 2 * est
    return rho


def _every_link(num_aps, num_users):
    """Every AP serving every user, one coherent group per user."""
    aps = tuple(range(num_aps))
    return ServingStructure(clusters=(aps,) * num_users,
                            groups=(((-1, aps),),) * num_users)


def _single_link_setup(rng, num_antennas=2, noise_power=0.5):
    stats = random_stats(1, 1, num_antennas, rng, noise_power=noise_power)
    assignment = PilotAssignment(tau_p=2, t=np.array([0]))
    serving = ServingStructure(clusters=((0,),), groups=(((0, (0,)),),))
    return stats, assignment, serving


class TestMrPrecoder:
    """W = s * H_hat, the MR precoder of link_scales s, normalised by
    E{||H_hat||^2}."""

    def test_zero_power_zero_precoder(self):
        # An inactive link gets scale 0 even with no estimate power.
        scale = link_scales(_every_link(1, 2), PowerConfig(data_power=0.0),
                            np.array([[0.0, 2.0]]))
        assert scale[0] == 0.0

    def test_scalar_scaling(self):
        scale = link_scales(_every_link(1, 1), PowerConfig(data_power=0.1),
                            np.array([[4.0]]))
        assert scale[0] == pytest.approx(np.sqrt(0.1 / 4.0))

    def test_degenerate_normalization_rejected(self):
        est_trace = np.ones((2, 3))
        est_trace[1, 2] = 0.0
        with pytest.raises(DegenerateLinkError, match=r"AP 1, user 2"):
            link_scales(_every_link(2, 3), PowerConfig(data_power=0.1), est_trace)

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
        w = link_scales(_every_link(1, 1), powers, trace)[0] * h_hat
        mean_power = (np.abs(w[:, 0, 0]) ** 2).sum(axis=1).mean()
        assert mean_power == pytest.approx(powers.data_power, rel=0.02)


class TestEffectiveDataPowers:
    """The data powers of link_scales, read as rho = s^2 E{||H_hat||^2}."""

    EST_TRACE = np.array([[2.0, 4.0], [0.5, 1.0]])

    def _rho(self, powers):
        serving = ServingStructure(clusters=((0, 1), (0,)),
                                   groups=(((0, (0, 1)),), ((0, (0,)),)))
        return _link_powers(serving, powers, self.EST_TRACE)

    def test_nominal_powers_on_links(self):
        rho = self._rho(PowerConfig(data_power=0.1))
        assert np.allclose(rho, [[0.1, 0.1], [0.1, 0.0]])

    def test_rescale_overloaded_ap(self):
        powers = PowerConfig(data_power=0.1, ap_power_budget=0.1,
                             power_budget_mode="rescale")
        rho = self._rho(powers)
        assert rho[0].sum() == pytest.approx(0.1)
        assert rho[1, 0] == pytest.approx(0.1)  # AP 1 is within budget

    def test_error_mode_raises(self):
        powers = PowerConfig(data_power=0.1, ap_power_budget=0.15,
                             power_budget_mode="error")
        with pytest.raises(ConfigurationError):
            self._rho(powers)

    def test_ignore_mode_keeps_nominal(self):
        powers = PowerConfig(data_power=0.1, ap_power_budget=0.05,
                             power_budget_mode="ignore")
        rho = self._rho(powers)
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
        serving = ServingStructure(clusters=((0,),), groups=(((0, (0,)),),))
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
        estimation = estimation_terms(stats, assignment, powers)
        terms = compute_terms(serving, stats, assignment, powers, estimation)
        rho = _link_powers(serving, powers, estimation.est_trace)
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
            rho = _link_powers(build_serving_structure(
                stats.beta, owner, 2, self.POINTS[0][0], stats.noise_power), powers,
                estimation.est_trace)
            assert rho.sum(axis=1).max() == pytest.approx(budget)
        np.testing.assert_array_equal(stack.E, np.concatenate([t.E for t in singles]))
        np.testing.assert_array_equal(stack.F, np.concatenate([t.F for t in singles]))
        assert stack.group_order == sum((t.group_order for t in singles), ())
        for got, want in zip(stack.D, [d for t in singles for d in t.D]):
            np.testing.assert_array_equal(got, want)
        rates = user_rates(stack, frame, stats.noise_power).user_rate
        np.testing.assert_array_equal(rates, np.concatenate(
            [user_rates(t, frame, stats.noise_power).user_rate for t in singles]))

    def test_points_share_the_terms_of_their_cluster_set(self, monkeypatch):
        # Every mode over repeated and distinct params, under a binding
        # budget; the last point regroups the links of a fixed_aps point
        # into groups no mode forms. Each point's terms and rates are its
        # own bit for bit, and the per-link terms run once per cluster set.
        stats, assignment, _, _, powers, frame = small_instance(16, 5, 2, 4, 3, seed=7)
        powers = replace(powers, ap_power_budget=0.25, power_budget_mode="rescale")
        owner, noise, K = np.arange(16) % 4, stats.noise_power, stats.num_users
        estimation = estimation_terms(stats, assignment, powers)
        params = ([ClusteringParams(legacy_cluster_size=a) for a in (1, 2, 4)]
                  + [ClusteringParams(algorithm=algorithm, n_cpu=q, n_ap=3)
                     for algorithm in ("fixed_aps", "power_fraction", "lsf_threshold")
                     for q in (1, 2, 4)])
        fixed = ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=3)
        points = [(p, m) for m in ("coherent", "mixed", "non_coherent")
                  for p in params + params[:2]] + [(fixed, "mixed")]
        singles = [build_serving_structure(stats.beta, owner, 4, p, noise, m)
                   for p, m in points]

        def regroup(aps):        # the last AP alone, then the rest descending
            return ((-1, aps[-1:]), (-1, aps[-2::-1])) if len(aps) > 1 else ((-1, aps),)

        singles[-1] = replace(singles[-1], groups=tuple(
            regroup(aps) for aps in singles[-1].clusters))
        stack = build_serving_structure(stats.beta, owner, 4, [p for p, _ in points],
                                        noise, [m for _, m in points])
        stack = replace(stack, groups=stack.groups[:-K] + singles[-1].groups)
        nominal = _link_powers(stack, replace(powers, ap_power_budget=None),
                               estimation.est_trace)
        assert nominal.reshape(16, len(points), K).sum(axis=2).max() > 0.25

        calls = []

        def counting(*args):
            calls.append(args[5])                   # points of distinct sets
            return link_terms(*args)

        link_terms = spectral_efficiency._link_terms
        monkeypatch.setattr(spectral_efficiency, "_link_terms", counting)
        terms = compute_terms(stack, stats, assignment, powers, estimation)
        assert calls == [len({s.clusters for s in singles})] and calls[0] < len(points)
        rates = user_rates(terms, frame, noise).user_rate
        first = 0
        for p, single in enumerate(singles):
            want = compute_terms(single, stats, assignment, powers, estimation)
            users, count = slice(p * K, (p + 1) * K), want.D_flat.size
            groups = slice(first, first + count)
            assert np.array_equal(terms.E[users], want.E)
            assert np.array_equal(terms.F[users], want.F)
            assert np.array_equal(terms.D_flat[groups], want.D_flat)
            assert np.array_equal(terms.sic[groups] - first, want.sic)
            assert np.array_equal(rates[users],
                                  user_rates(want, frame, noise).user_rate)
            first += count

        # Points of distinct cluster sets only: nothing to share.
        distinct = list({s.clusters: p for s, (p, _) in zip(singles, points)}.values())
        calls.clear()
        compute_terms(build_serving_structure(stats.beta, owner, 4, distinct, noise),
                      stats, assignment, powers, estimation)
        assert calls == [len(distinct)]

    def test_budget_error_names_the_aps_over_budget_in_any_point(self):
        stats, assignment, _, _, powers, _ = small_instance(12, 4, 2, 2, 2, seed=3)
        owner, noise = np.arange(12) % 2, stats.noise_power
        est_trace = estimation_terms(stats, assignment, powers).est_trace
        over = set()
        for params, mode in self.POINTS:
            single = build_serving_structure(stats.beta, owner, 2, params, noise, mode)
            rho = _link_powers(single, powers, est_trace)
            over |= set(np.flatnonzero(rho.sum(axis=1) > 0.25).tolist())
        stack = build_serving_structure(stats.beta, owner, 2,
                                        [p for p, _ in self.POINTS], noise,
                                        [m for _, m in self.POINTS])
        powers = replace(powers, ap_power_budget=0.25, power_budget_mode="error")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"at APs {sorted(over)}")):
            link_scales(stack, powers, est_trace)

    def test_link_scales_are_those_of_each_point_and_ap(self):
        # Three points, against a loop over (point, AP): a binding rescale
        # budget shrinks each point's AP by its own total, data power 0
        # gives every link scale 0, and of the degenerate links the error
        # names the lowest AP, then the lowest user.
        stats, assignment, _, _, powers, _ = small_instance(12, 4, 2, 2, 2, seed=3)
        K, budget = stats.num_users, 0.25
        est_trace = estimation_terms(stats, assignment, powers).est_trace
        points = self.POINTS[:3]
        stack = build_serving_structure(stats.beta, np.arange(12) % 2, 2,
                                        [p for p, _ in points], stats.noise_power,
                                        [m for _, m in points])
        links = stack.links
        point, user = np.divmod(links.user, K)
        rescale = replace(powers, ap_power_budget=budget, power_budget_mode="rescale")
        want, shrunk = np.empty(links.ap.size), set()
        for p in range(len(points)):
            for m in range(stats.num_aps):
                mine = np.flatnonzero((point == p) & (links.ap == m))
                total = powers.data_power * mine.size
                rho = powers.data_power * (budget / total if total > budget else 1.0)
                want[mine] = np.sqrt(rho / est_trace[m, user[mine]])
                if total > budget:
                    shrunk.add((p, m))
        # AP 1 serves one link of point 0 and four of point 1.
        assert (1, 1) in shrunk and (0, 1) not in shrunk
        np.testing.assert_allclose(link_scales(stack, rescale, est_trace), want,
                                   rtol=1e-13, atol=0)

        est = est_trace.copy()
        est[9, 0] = est[3, 3] = 0.0
        silent = link_scales(stack, replace(rescale, data_power=0.0), est)
        np.testing.assert_array_equal(silent, np.zeros(links.ap.size))
        first = np.flatnonzero(est[links.ap, user] == 0.0)[0]
        assert (links.ap[first], links.user[first]) == (9, 0)    # in link order
        with pytest.raises(DegenerateLinkError, match=re.escape("(AP 3, user 3)")):
            link_scales(stack, rescale, est)

    def test_partial_point_rejected(self):
        stats, assignment, serving, _, powers, _ = small_instance(12, 4, 2, 2, 2, seed=3)
        part = ServingStructure(clusters=serving.clusters[:3],
                                groups=serving.groups[:3])
        with pytest.raises(ConfigurationError, match="3 served users"):
            compute_terms(part, stats, assignment, powers,
                          estimation_terms(stats, assignment, powers))


class TestSinr:
    def test_single_group_coherent_form(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        gamma = per_user(user_rates(terms, FrameConfig(), stats.noise_power).sinr_flat,
                         terms)[0][0]
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


class TestTupleViews:
    """The stages hand each other flat arrays; the per-user tuples are
    views of them, built on first read and then kept (cfmimo.views)."""

    # APs 0, 1 belong to CPU 0 and APs 2, 3 to CPU 1. Clusters of the 3
    # strongest APs serve user 0 from APs 0-2 and user 1 from APs 1-3. The
    # stack holds one point per mode, users 2p and 2p + 1 of point p.
    BETA = np.array([[4.0, 1.0], [3.0, 2.0], [2.0, 3.0], [1.0, 4.0]])
    GROUPS = (((0, (0, 1)), (1, (2,))), ((0, (1,)), (1, (2, 3))),      # mixed
              ((-1, (0, 1, 2)),), ((-1, (1, 2, 3)),),                  # coherent
              ((0, (0,)), (0, (1,)), (1, (2,))),                       # non-coherent
              ((0, (1,)), (1, (2,)), (1, (3,))))

    def _stack(self):
        return build_serving_structure(
            self.BETA, np.array([0, 0, 1, 1]), 2,
            [ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=3)] * 3,
            mode=["mixed", "coherent", "non_coherent"])

    def test_stages_build_no_view(self):
        serving = self._stack()
        stats = random_stats(4, 2, 2, np.random.default_rng(5))
        assignment = PilotAssignment(tau_p=1, t=np.array([0, 0]))
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        rates = user_rates(terms, FrameConfig(), stats.noise_power)
        assert not {"clusters", "groups"} & set(vars(serving))
        assert not {"D", "group_order"} & set(vars(terms))
        np.testing.assert_array_equal(terms.group_count, [2, 2, 1, 1, 3, 3])
        assert rates.sinr_flat.size == terms.group_count.sum()

    def test_serving_views_of_the_links(self):
        serving = self._stack()
        assert serving.num_users == 6
        assert serving.clusters == ((0, 1, 2), (1, 2, 3)) * 3
        assert serving.groups == self.GROUPS
        assert serving.groups is serving.groups          # built once

    def test_terms_and_rates_views_of_the_flat_arrays(self):
        # User 0's groups 0 and 1 are decoded in the order 1, 0; user 1
        # has one group, and user 2's three are decoded as 2, 0, 1.
        terms = SETerms(E=np.ones(3), F=np.zeros(3),
                        D_flat=np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5]),
                        sic=np.array([1, 0, 2, 5, 3, 4]),
                        group_count=np.array([2, 1, 3]))
        assert terms.group_order == ((1, 0), (0,), (2, 0, 1))
        assert [d.tolist() for d in terms.D] == [[5.0, 4.0], [3.0], [2.0, 1.0, 0.5]]

    def test_replaced_groups_set_the_links(self):
        # User 1 of the mixed point loses its CPU-0 group, and user 0 of
        # the coherent point is served by APs 2 and 3 only.
        groups = list(self.GROUPS)
        groups[1] = ((1, (2, 3)),)
        groups[2] = ((1, (2, 3)),)
        serving = replace(self._stack(), groups=tuple(groups))
        links = serving.links
        assert serving.num_users == 6
        assert links.ap.tolist() == [0, 1, 2, 2, 3, 2, 3, 1, 2, 3,
                                     0, 1, 2, 1, 2, 3]
        assert links.user.tolist() == [0, 0, 0, 1, 1, 2, 2, 3, 3, 3,
                                       4, 4, 4, 5, 5, 5]
        assert links.group_start.tolist() == [0, 2, 3, 5, 7, 10, 11, 12, 13, 14, 15]
        assert links.group_user.tolist() == [0, 0, 1, 2, 3, 4, 4, 4, 5, 5, 5]
        assert links.group_cpu.tolist() == [0, 1, 1, 1, -1, 0, 0, 1, 0, 1, 1]
        assert serving.groups == tuple(groups)

    def test_replaced_tuples_set_the_flat_arrays(self):
        terms = SETerms(E=np.ones(2), F=np.zeros(2), D_flat=np.array([2.0, 1.0, 3.0]),
                        sic=np.array([0, 1, 2]), group_count=np.array([2, 1]))
        replaced = replace(terms, D=(np.array([7.0]), np.array([9.0, 8.0, 6.0])),
                           group_order=((0,), (2, 0, 1)))
        assert replaced.D_flat.tolist() == [7.0, 9.0, 8.0, 6.0]
        assert replaced.sic.tolist() == [0, 3, 1, 2]
        assert replaced.group_count.tolist() == [1, 3]
        # A copy that changes neither keeps the flat arrays' values.
        again = replace(terms, E=np.full(2, 2.0))
        assert again.D_flat.tolist() == [2.0, 1.0, 3.0]
        assert again.sic.tolist() == [0, 1, 2]
        assert again.group_count.tolist() == [2, 1]


class TestUserRates:
    def test_prelog_arithmetic(self):
        frame = FrameConfig(tau_c=200, tau_p=10)
        assert frame.prelog == pytest.approx(0.95)

    def test_unit_sinr_rate(self):
        # gamma = 1 with tau_c = 200, tau_p = 10 gives 0.95 bits/s/Hz.
        terms = SETerms(D=(np.array([2.0]),), E=np.array([1.0]),
                        F=np.array([1.0]), group_order=((0,),))
        # Denominator = 1 + 1 - 2 + 2 = 2, so gamma = 1.
        result = user_rates(terms, FrameConfig(200, 10), noise_power=2.0)
        assert result.user_rate[0] == pytest.approx(0.95, rel=1e-12)

    def test_numerical_failures_name_user_and_group(self):
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
        sinr = per_user(result.sinr_flat, terms)
        for k in range(3):
            # Group by group, each SINR over the power not yet decoded.
            d, expected = terms.D[k], 0.0
            for c in range(d.size):
                gamma = d[c] / (terms.E[k] + terms.F[k] - np.sum(d[:c + 1])
                                + stats.noise_power)
                assert sinr[k][c] == pytest.approx(gamma, rel=1e-12)
                expected += frame.prelog * np.log2(1.0 + gamma)
            assert result.user_rate[k] == pytest.approx(expected, rel=1e-12)
        assert result.sum_rate == pytest.approx(result.user_rate.sum())

    def test_invalid_frame_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameConfig(tau_c=10, tau_p=10)
        with pytest.raises(ConfigurationError):
            FrameConfig(tau_c=10, tau_p=0)


def _assert_closed_form_matches_oracle(config):
    """Every D, E, F and SINR of drop 0 of config lies within
    max(2 %, 3 SE) of the oracle's estimate."""
    terms, oracle, noise = run_oracle_check(config)
    sinr = per_user(user_rates(terms, config.frame, noise).sinr_flat, terms)
    for k in range(config.scenario.num_users):
        pairs = [(terms.E[k], oracle.E[k], oracle.E_se[k]),
                 (terms.F[k], oracle.F[k], oracle.F_se[k])]
        pairs += [(terms.D[k][c], oracle.D[k][c], oracle.D_se[k][c])
                  for c in range(terms.D[k].size)]
        pairs += [(sinr[k][c], oracle.sinr[k][c], oracle.sinr_se[k][c])
                  for c in range(terms.D[k].size)]
        for closed, est, se in pairs:
            assert abs(closed - est) <= max(0.02 * abs(closed), 3.0 * se)


class TestComplexNormals:
    def test_phases_are_the_roots_of_unity(self):
        # The phase table's power moments vanish as those of a uniform
        # phase do, up to p = 16 (the oracle's |a|^4 is of degree 8).
        T = channel._PHASES
        assert T.shape == (2048,)
        np.testing.assert_allclose(np.abs(T), 1.0, rtol=0, atol=1e-15)
        for p in range(1, 17):
            assert abs(np.mean(T ** p)) < 1e-15, p

    def test_moments_are_those_of_unit_normals(self):
        # Re and Im of unit variance, E|g|^4 = 8, E g^2 = 0 and E Re^4 = 3,
        # each within 4 standard errors over 10^6 draws.
        g = channel.complex_normals(
            np.random.default_rng(12).bit_generator, np.empty(10 ** 6, complex))
        square = g * g
        for name, values, expected in [
                ("Re^2", g.real ** 2, 1.0), ("Im^2", g.imag ** 2, 1.0),
                ("|g|^4", np.abs(g) ** 4, 8.0), ("Re g^2", square.real, 0.0),
                ("Im g^2", square.imag, 0.0), ("Re^4", g.real ** 4, 3.0)]:
            se = values.std() / np.sqrt(values.size)
            assert abs(values.mean() - expected) <= 4.0 * se, name

    def test_pieces_change_nothing(self, monkeypatch):
        # Two fills in pieces of 7 words give the normals of two whole
        # fills bit for bit: the words are read in order.
        def two_fills():
            bit_generator = np.random.default_rng(2).bit_generator
            return [channel.complex_normals(bit_generator,
                                            np.empty(shape, complex))
                    for shape in ((3, 5, 11), (40,))]

        whole = two_fills()
        monkeypatch.setattr(channel, "ORACLE_PIECE", 7)
        for got, want in zip(two_fills(), whole):
            np.testing.assert_array_equal(got, want)

    def test_stream_is_pinned(self):
        # The first normals of default_rng(0), to an ulp of log and sqrt:
        # every supported numpy draws the same stream.
        g = channel.complex_normals(
            np.random.default_rng(0).bit_generator, np.empty(8, complex))
        np.testing.assert_allclose(g, [
            -0.409053396195621 + 1.3635135241339855j,
            0.6145320620292376 - 0.5011861669215126j,
            0.2443850372030039 + 0.1547551180670976j,
            0.18184699865261614 + 0.016221914380082015j,
            1.0410444571208541 + 1.5074521922079978j,
            -2.1457007342460583 - 0.5234994220141098j,
            -0.5188827764146053 + 1.263645242351935j,
            -0.33976720793345816 + 1.5809804486016152j], rtol=1e-14, atol=0)


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
                           FrameConfig(200, 2), num_samples=400_000,
                           rng=np.random.default_rng(9), terms=terms)
        for k in range(2):
            for c in range(terms.D[k].size):
                err = abs(terms.D[k][c] - oracle.D[k][c])
                assert err <= max(0.005 * terms.D[k][c], 3 * oracle.D_se[k][c])

    def test_oracle_reports_standard_errors(self, monkeypatch):
        # Three blocks, the last one partial: D, E, F and their standard
        # errors are those of the recorded group amplitudes by plain numpy
        # means and variances.
        stats, assignment, serving, terms, powers, frame = small_instance(
            8, 3, 2, 2, 2, seed=0)
        chunks, kernel = [], spectral_efficiency._chunk_amplitudes

        def recording(*args):
            a = kernel(*args)
            chunks.append(a.copy())
            return a

        monkeypatch.setattr(spectral_efficiency, "_chunk_amplitudes", recording)
        oracle = mc_oracle(serving, stats, assignment, powers, frame, 2_500,
                           np.random.default_rng(10), terms=terms)
        assert oracle.num_samples == 2_500
        a = np.concatenate(chunks, axis=-1)                     # (G, K, S)
        n = a.shape[-1]
        assert n == 2_500
        mean = a.mean(axis=-1)
        var_mean = np.var(a, axis=-1) / n
        coh = np.maximum(np.abs(mean) ** 2 - var_mean, 0.0)
        coh_se = 2.0 * np.abs(mean) * np.sqrt(var_mean) + var_mean
        power = np.abs(a) ** 2
        links = serving.links
        copilot = assignment.t[links.group_user][:, None] == assignment.t
        F = np.where(copilot, coh, 0.0).sum(axis=0)
        F_se = np.sqrt(np.where(copilot, coh_se ** 2, 0.0).sum(axis=0))
        E = power.mean(axis=-1).sum(axis=0) - F
        E_se = np.sqrt((np.var(power, axis=-1) / n).sum(axis=0) + F_se ** 2)
        for got, want in [(oracle.E, E), (oracle.E_se, E_se),
                          (oracle.F, F), (oracle.F_se, F_se)]:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        for k, order in enumerate(terms.group_order):
            sic = np.flatnonzero(links.group_user == k)[list(order)]
            np.testing.assert_allclose(oracle.D[k], coh[sic, k],
                                       rtol=1e-10, atol=0)
            np.testing.assert_allclose(oracle.D_se[k], coh_se[sic, k],
                                       rtol=1e-10, atol=0)
        assert np.all(oracle.E_se > 0)
        assert all(np.all(se > 0) for se in oracle.D_se)

    def test_clipped_desired_power_keeps_finite_sinr_error(self):
        # On this drop the oracle clips user 2's fourth-group D estimate to
        # 0; its SINR error must stay finite so that every SINR can be held
        # to max(2 %, 3 SE) of the closed form.
        config = replace(validation_config(12, 4, 4, 2), base_seed=41,
                         oracle=OracleConfig(num_samples=100_000))
        terms, oracle, noise = run_oracle_check(config, 4)
        sinr = per_user(user_rates(terms, config.frame, noise).sinr_flat, terms)
        assert oracle.D[2][3] == 0.0
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
        for chunk in (1, 10 ** 12):
            monkeypatch.setattr(spectral_efficiency, "ORACLE_CHUNK_BYTES", chunk)
            _, oracle, _ = run_oracle_check(config)
            for name in ("D", "D_se", "E", "E_se", "F", "F_se", "sinr",
                         "sinr_se"):
                np.testing.assert_allclose(
                    np.hstack(getattr(oracle, name)),
                    np.hstack(getattr(default, name)), rtol=1e-12, atol=0,
                    err_msg=f"{name}, chunk {chunk}")

    def test_batches_draw_the_stream_of_fresh_normals(self, monkeypatch):
        # A block holds B = min(ORACLE_BLOCK, max(1, ORACLE_BLOCK_BYTES //
        # (16 N (S K + P)))) samples. Block b, the partial last one
        # included, turns the next N S K n raw words of the b-th generator
        # spawned from the oracle's rng into the channel normals at the S
        # served APs, in C order of (N, S, K, n), then the next N P n words
        # into the pilot noise at the P read (AP, pilot) pairs, in C order
        # of (N, P, n): one complex normal sqrt(-2 ln(1 - (w >> 11) 2^-53))
        # T[w & 2047] per word w.
        stats, assignment, serving, terms, powers, frame = small_instance(
            8, 3, 2, 2, 3, seed=4)
        links = serving.links
        served = np.unique(links.ap).size
        pairs = len(set(zip(links.ap.tolist(),
                            assignment.t[links.user].tolist())))
        assert served < stats.num_aps and pairs < served * assignment.tau_p
        N, K = stats.num_antennas, stats.num_users
        sample_bytes = 16 * N * (served * K + pairs)
        drawn = []
        fill = channel.complex_normals

        def recording(bit_generator, out):
            drawn.append(fill(bit_generator, out).copy())
            return out

        monkeypatch.setattr(spectral_efficiency, "complex_normals", recording)
        # (ORACLE_BLOCK, ORACLE_BLOCK_BYTES, samples, the block lengths):
        # blocks of ORACLE_BLOCK, blocks cut by the byte cap, and a cap
        # below one sample.
        for block, cap, num_samples, sizes in [
                (700, spectral_efficiency.ORACLE_BLOCK_BYTES, 1_500,
                 (700, 700, 100)),
                (1_000, 600 * sample_bytes + 15, 1_500, (600, 600, 300)),
                (1_000, sample_bytes - 1, 3, (1, 1, 1))]:
            monkeypatch.setattr(spectral_efficiency, "ORACLE_BLOCK", block)
            monkeypatch.setattr(spectral_efficiency, "ORACLE_BLOCK_BYTES", cap)
            drawn.clear()
            mc_oracle(serving, stats, assignment, powers, frame, num_samples,
                      np.random.default_rng(3), terms=terms)
            expected = []
            for generator, n in zip(
                    np.random.default_rng(3).spawn(len(sizes)), sizes):
                for shape in ((N, served, K, n), (N, pairs, n)):
                    w = generator.bit_generator.random_raw(shape)
                    radius = np.sqrt(-2.0 * np.log(1.0 - (w >> 11) * 2.0 ** -53))
                    expected.append(radius * channel._PHASES[w & 2047])
            assert len(drawn) == len(expected), sizes
            for got, want in zip(drawn, expected):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("num_antennas", [1, 2, 3])
    def test_chunk_kernel_is_the_public_estimation_chain(self, num_antennas):
        # The oracle's chunk kernel on normals at the served APs and the
        # read pairs gives the group amplitudes that the per-sample chain of
        # textbook.py (correlate_channel, pilot_observations, mmse_estimate)
        # gives on the same normals scattered into full arrays, zero
        # elsewhere, up to their conjugate.
        stats, assignment, serving, _, powers, _ = small_instance(
            12, 4, num_antennas, 4, 4, seed=0)
        links = serving.links
        M, K, N = stats.num_aps, stats.num_users, num_antennas
        tau_p, c = assignment.tau_p, 7
        served = np.unique(links.ap)
        pair = np.unique(links.ap * tau_p + assignment.t[links.user])
        # An unserved AP, and an unread pair at a served AP.
        assert served.size < M and pair.size < served.size * tau_p
        bits = np.random.default_rng(5).bit_generator
        g = channel.complex_normals(bits, np.empty((N, served.size, K, c), complex))
        z = channel.complex_normals(bits, np.empty((N, pair.size, c), complex))
        plan = spectral_efficiency._oracle_plan(serving, stats, assignment,
                                                powers)
        got = spectral_efficiency._chunk_amplitudes(
            plan, g, z, spectral_efficiency._Scratch())

        g_full = np.zeros((c, M, K, N), complex)
        g_full[:, served] = g.transpose(3, 1, 2, 0)
        z_full = np.zeros((c, tau_p, M, N), complex)
        z_full[:, pair % tau_p, pair // tau_p] = z.transpose(2, 1, 0)
        H = correlate_channel(correlation_sqrt(stats.R), g_full)
        y = pilot_observations(H, z_full, assignment, powers,
                               stats.noise_power)
        estimation = estimation_terms(stats, assignment, powers)
        W = (link_scales(serving, powers, estimation.est_trace)[:, None]
             * mmse_estimate(y, estimation.coef,
                             assignment)[:, links.ap, links.user])  # (c, L, N)
        amp = np.sum(H[:, links.ap] * np.conj(W)[:, :, None, :], axis=-1)
        a = np.conj(np.add.reduceat(amp, links.group_start, axis=1))
        np.testing.assert_allclose(got, np.conj(a).transpose(1, 2, 0),
                                   rtol=1e-12, atol=0)

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
        _assert_closed_form_matches_oracle(ExperimentConfig(
            scenario=ScenarioConfig(num_aps=40, num_users=10, num_antennas=2),
            clustering=ClusteringParams(algorithm="legacy_largest_lsf",
                                        legacy_cluster_size=10),
            oracle=OracleConfig(num_samples=10_000)))

    def test_default_scale_closed_form_matches_oracle(self):
        # The library default (M=100, K=20, N=2), base seed 0, drop 0: every
        # D, E, F and SINR agrees with 2 000 oracle samples within
        # max(2 %, 3 SE).
        _assert_closed_form_matches_oracle(ExperimentConfig(
            oracle=OracleConfig(num_samples=2_000)))

    def test_sinrs_follow_the_sic_chain_at_many_groups(self):
        # Desk non-coherent with legacy clusters of 10: every user decodes
        # ten single-AP groups, enough for the order of the partial sums
        # of D to show in the last bits.
        config = ExperimentConfig(
            scenario=ScenarioConfig(num_aps=40, num_users=10, num_antennas=2),
            clustering=ClusteringParams(algorithm="legacy_largest_lsf",
                                        legacy_cluster_size=10),
            transmission_mode="non_coherent",
            oracle=OracleConfig(num_samples=1_000))
        _, oracle, noise = run_oracle_check(config)
        for k in range(10):
            d = oracle.D[k]
            assert d.size == 10
            np.testing.assert_allclose(
                oracle.sinr[k],
                d / (oracle.E[k] + oracle.F[k] - np.cumsum(d) + noise),
                rtol=1e-12, atol=0)
            assert np.all(np.isfinite(oracle.sinr_se[k]))

    def test_terms_of_another_structure_rejected(self):
        # The mixed terms of a drop with the non-coherent structure of the
        # same drop, in which users have more groups.
        stats, assignment, _, terms, powers, frame = small_instance(
            12, 4, 2, 4, 4, seed=0)
        serving = small_instance(12, 4, 2, 4, 4, seed=0,
                                 mode="non_coherent")[2]
        assert serving.links.group_start.size > sum(map(len, terms.group_order))
        with pytest.raises(NumericalError, match="group count mismatch"):
            mc_oracle(serving, stats, assignment, powers, frame, 100,
                      np.random.default_rng(0), terms=terms)

    def test_peak_memory_is_one_batch_of_normals(self):
        # One 100 000-sample call at (M, K, Q, tau_p) = (12, 4, 4, 4) holds
        # one 1 000-sample block of complex normals (2.1 MB here) and one
        # chunk's buffers (at most ORACLE_CHUNK_BYTES, 1 MiB): about 3.6 MB
        # traced.
        stats, assignment, serving, terms, powers, frame = small_instance(
            12, 4, 2, 4, 4, seed=0)
        tracemalloc.start()
        try:
            mc_oracle(serving, stats, assignment, powers, frame, 100_000,
                      np.random.default_rng(0), terms=terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("config", [
        *(validation_config(*shape) for shape in
          ((8, 3, 2, 2), (8, 3, 2, 3), (12, 4, 4, 2), (12, 4, 4, 4))),
        ExperimentConfig(
            scenario=ScenarioConfig(num_aps=40, num_users=10, num_antennas=2),
            clustering=ClusteringParams(algorithm="legacy_largest_lsf",
                                        legacy_cluster_size=10)),
        ExperimentConfig()], ids=["8-3-2-2", "8-3-2-3", "12-4-4-2", "12-4-4-4",
                                  "desk", "default"])
    def test_chunk_buffers_fill_the_byte_budget(self, monkeypatch, config):
        # At the validation shapes, the desk scale and the library default,
        # a chunk's thirteen buffers hold at most ORACLE_CHUNK_BYTES, and
        # one more sample would not fit: the plan counts each buffer once.
        plans, scratches = [], []
        plan_of = spectral_efficiency._oracle_plan

        def recording_plan(*args):
            plans.append(plan_of(*args))
            return plans[-1]

        class RecordingScratch(spectral_efficiency._Scratch):
            def __init__(self):
                super().__init__()
                scratches.append(self)

        monkeypatch.setattr(spectral_efficiency, "_oracle_plan", recording_plan)
        monkeypatch.setattr(spectral_efficiency, "_Scratch", RecordingScratch)
        run_oracle_check(replace(config, oracle=OracleConfig(num_samples=500)))
        [plan], [scratch] = plans, scratches
        assert plan.block == spectral_efficiency.ORACLE_BLOCK
        assert plan.step < 500
        # g and z are the block's normals, the rest the chunk's buffers.
        chunk = set(scratch._buffers) - {"g", "z"}
        assert chunk == {"H", "term", "sums", "y", "y_sums", "y_l", "W",
                         "term_l", "amp", "term_lk", "a", "sq", "p"}
        total = sum(scratch._buffers[name].nbytes for name in chunk)
        assert total <= spectral_efficiency.ORACLE_CHUNK_BYTES
        assert total + total // plan.step > spectral_efficiency.ORACLE_CHUNK_BYTES

    def test_large_scale_blocks_stay_within_the_byte_cap(self):
        # M=400, K=100, N=4, drop 0: a sample takes 2.6 MB of normals, so a
        # block holds 52 samples (133 MB of normals) and a chunk one. 64
        # samples peak at about 181 MB traced, drop and closed form
        # included; in one block of all 64 they peak at about 237 MB, and a
        # block of 1 000 samples would take 2.6 GB.
        config = ExperimentConfig(
            scenario=ScenarioConfig(num_aps=400, num_users=100, num_antennas=4),
            oracle=OracleConfig(num_samples=64))
        tracemalloc.start()
        try:
            run_oracle_check(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6

    def test_invalid_sample_count(self, rng):
        stats, assignment, serving = _single_link_setup(rng)
        powers = PowerConfig()
        terms = compute_terms(serving, stats, assignment, powers,
                              estimation_terms(stats, assignment, powers))
        with pytest.raises(ConfigurationError):
            mc_oracle(serving, stats, assignment, powers,
                      FrameConfig(200, 2), num_samples=0,
                      rng=np.random.default_rng(0), terms=terms)
