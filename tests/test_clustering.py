from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cpu_map

from cfmimo.clustering import (ClusteringParams, build_serving_structure,
                               cluster_fixed, cluster_legacy_largest_lsf,
                               cluster_lsf_threshold, cluster_power,
                               coherent_groups, form_cluster, order_cpus)
from cfmimo.errors import ConfigurationError


class TestOrderCpus:
    def test_single_cpu(self):
        assert order_cpus(np.array([1.0, 2.0]), ((0, 1),)).tolist() == [0]

    def test_descending_by_best_ap(self):
        # Best-per-CPU values [3, 9, 1, 5] sort to CPU order [1, 3, 0, 2].
        beta = np.array([3.0, 9.0, 1.0, 5.0])
        cpu_map = ((0,), (1,), (2,), (3,))
        assert order_cpus(beta, cpu_map).tolist() == [1, 3, 0, 2]

    def test_best_ap_within_pool(self):
        beta = np.array([0.1, 8.0, 0.2, 7.0])
        cpu_map = ((0, 1), (2, 3))
        assert order_cpus(beta, cpu_map).tolist() == [0, 1]

    def test_tie_prefers_lower_index(self):
        beta = np.array([5.0, 5.0])
        assert order_cpus(beta, ((0,), (1,))).tolist() == [0, 1]

    def test_empty_pool_skipped(self):
        # A CPU without APs is never a candidate, wherever it sits.
        beta = np.array([1.0, 3.0])
        assert order_cpus(beta, ((0,), (), (1,))).tolist() == [2, 0]


class TestLegacyLargestLsf:
    def test_all_aps(self):
        beta = np.array([0.3, 0.1, 0.2])
        assert cluster_legacy_largest_lsf(beta, 3) == (0, 1, 2)

    def test_single_best(self):
        beta = np.array([0.3, 0.9, 0.2])
        assert cluster_legacy_largest_lsf(beta, 1) == (1,)

    def test_top_two(self):
        beta = np.array([0.1, 0.9, 0.5, 0.7])
        assert cluster_legacy_largest_lsf(beta, 2) == (1, 3)

    def test_oversized_request_clamped(self):
        assert cluster_legacy_largest_lsf(np.array([1.0, 2.0]), 5) == (0, 1)


class TestLsfThreshold:
    cpu_map = ((0, 1), (2, 3))

    def test_zero_threshold_keeps_candidates(self):
        beta = np.array([0.1, 0.2, 0.3, 0.4])
        out = cluster_lsf_threshold(beta, self.cpu_map, 2, 0.0)
        assert out == (0, 1, 2, 3)

    def test_unreachable_threshold_falls_back_to_best(self):
        beta = np.array([0.1, 0.2, 0.3, 0.4])
        out = cluster_lsf_threshold(beta, self.cpu_map, 2, 100.0)
        assert out == (3,)

    def test_restricts_to_best_cpus(self):
        beta = np.array([0.9, 0.8, 0.1, 0.05])
        out = cluster_lsf_threshold(beta, self.cpu_map, 1, 0.0)
        assert out == (0, 1)

    def test_full_pool_reduces_to_global_threshold(self, rng):
        for _ in range(20):
            beta = rng.lognormal(size=10)
            cpu_map = random_cpu_map(10, 3, rng)
            delta = float(np.median(beta))
            expected = set(np.flatnonzero(beta >= delta).tolist())
            assert set(cluster_lsf_threshold(beta, cpu_map, 3, delta)) == expected
            # A fourth CPU without APs changes nothing at n_cpu = Q.
            assert set(cluster_lsf_threshold(beta, cpu_map + ((),), 4,
                                             delta)) == expected


class TestFixedAps:
    cpu_map = ((0, 1, 2), (3, 4, 5))

    def test_whole_candidate_set(self):
        beta = np.arange(6, dtype=float)
        assert cluster_fixed(beta, self.cpu_map, 2, 10) == (0, 1, 2, 3, 4, 5)

    def test_single_best_candidate(self):
        beta = np.array([0.0, 5.0, 1.0, 0.2, 0.3, 0.1])
        assert cluster_fixed(beta, self.cpu_map, 2, 1) == (1,)

    def test_full_pool_reduces_to_legacy(self, rng):
        for _ in range(20):
            beta = rng.lognormal(size=12)
            # The second map's fourth CPU controls no AP.
            for cpu_map in (random_cpu_map(12, 4, rng),
                            random_cpu_map(12, 3, rng) + ((),)):
                assert cluster_fixed(beta, cpu_map, 4, 5) == \
                    cluster_legacy_largest_lsf(beta, 5)


class TestPowerFraction:
    cpu_map = ((0, 1, 2),)

    def test_full_fraction_keeps_all(self):
        beta = np.array([0.5, 0.3, 0.2])
        assert cluster_power(beta, self.cpu_map, 1, 1.0) == (0, 1, 2)

    def test_hand_prefix(self):
        # Sorted shares 0.5, 0.3, 0.2 of total 1; 0.75 needs the first two.
        beta = np.array([0.5, 0.3, 0.2])
        assert cluster_power(beta, self.cpu_map, 1, 0.75) == (0, 1)

    def test_tiny_fraction_single_best(self):
        beta = np.array([0.2, 0.5, 0.3])
        assert cluster_power(beta, self.cpu_map, 1, 1e-9) == (1,)

    def test_prefix_is_minimal(self, rng):
        for _ in range(30):
            beta = rng.lognormal(size=8)
            out = cluster_power(beta, ((0, 1, 2, 3, 4, 5, 6, 7),), 1, 0.8)
            chosen = np.array(out)
            total = beta.sum()
            assert beta[chosen].sum() >= 0.8 * total - 1e-12
            if len(out) > 1:
                # Dropping the weakest chosen AP must fall below the target.
                weakest = chosen[np.argmin(beta[chosen])]
                rest = [m for m in out if m != weakest]
                assert beta[rest].sum() < 0.8 * total


class TestCoherentGroups:
    def test_single_cpu_single_group(self):
        groups = coherent_groups((0, 2), ((0, 1, 2),))
        assert groups == ((0, (0, 2)),)

    def test_singleton_groups(self):
        groups = coherent_groups((0, 1), ((0,), (1,)))
        assert groups == ((0, (0,)), (1, (1,)))

    def test_partition_two_of_four_cpus(self):
        cpu_map = ((0, 1), (2, 3), (4, 5), (6, 7))
        groups = coherent_groups((1, 2, 3), cpu_map)
        assert len(groups) == 2
        union = sorted(m for _, aps in groups for m in aps)
        assert union == [1, 2, 3]
        for cpu, aps in groups:
            assert set(aps) <= set(cpu_map[cpu])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            coherent_groups((), ((0,),))


betas = st.lists(st.floats(min_value=1e-6, max_value=1e3,
                           allow_nan=False), min_size=4, max_size=12)


class TestProperties:
    @given(beta=betas, seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_groups_partition_cluster(self, beta, seed):
        beta = np.array(beta)
        gen = np.random.default_rng(seed)
        q = int(gen.integers(1, min(4, beta.size) + 1))
        cpu_map = random_cpu_map(beta.size, q, gen)
        cluster = cluster_fixed(beta, cpu_map, q, int(gen.integers(1, beta.size)))
        groups = coherent_groups(cluster, cpu_map)
        union = sorted(m for _, aps in groups for m in aps)
        assert union == sorted(cluster)
        for cpu, aps in groups:
            assert set(aps) <= set(cpu_map[cpu])

    @given(beta=betas, seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_threshold_monotone_shrinking(self, beta, seed):
        beta = np.array(beta)
        gen = np.random.default_rng(seed)
        cpu_map = random_cpu_map(beta.size, 2, gen)
        lo = cluster_lsf_threshold(beta, cpu_map, 2, float(np.min(beta)))
        hi = cluster_lsf_threshold(beta, cpu_map, 2, float(np.max(beta)))
        assert set(hi) <= set(lo)

    @given(beta=betas, n1=st.integers(1, 6), n2=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_fixed_monotone_growing(self, beta, n1, n2):
        beta = np.array(beta)
        cpu_map = (tuple(range(beta.size)),)
        small, large = sorted((n1, n2))
        assert set(cluster_fixed(beta, cpu_map, 1, small)) <= \
            set(cluster_fixed(beta, cpu_map, 1, large))

    @given(beta=betas, d1=st.floats(0.01, 1.0), d2=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_power_monotone_growing(self, beta, d1, d2):
        beta = np.array(beta)
        cpu_map = (tuple(range(beta.size)),)
        small, large = sorted((d1, d2))
        assert set(cluster_power(beta, cpu_map, 1, small)) <= \
            set(cluster_power(beta, cpu_map, 1, large))

    @given(beta=betas)
    @settings(max_examples=100, deadline=None)
    def test_every_cluster_nonempty(self, beta):
        beta = np.array(beta)
        cpu_map = (tuple(range(beta.size)),)
        for params in (
            ClusteringParams(algorithm="lsf_threshold", n_cpu=1,
                             lsf_threshold=1e9, threshold_mode="raw_linear"),
            ClusteringParams(algorithm="power_fraction", n_cpu=1,
                             power_fraction=1e-9),
            ClusteringParams(algorithm="fixed_aps", n_cpu=1, n_ap=1),
        ):
            assert len(form_cluster(beta, cpu_map, params)) >= 1


class TestBuildServingStructure:
    def test_modes_share_clusters(self, rng):
        beta = rng.lognormal(size=(10, 4))
        cpu_map = random_cpu_map(10, 2, rng)
        params = ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=5)
        by_mode = {mode: build_serving_structure(beta, cpu_map, params,
                                                 mode=mode)
                   for mode in ("mixed", "coherent", "non_coherent")}
        assert (by_mode["mixed"].clusters == by_mode["coherent"].clusters
                == by_mode["non_coherent"].clusters)
        for k in range(4):
            assert len(by_mode["coherent"].groups[k]) == 1
            assert all(len(aps) == 1
                       for _, aps in by_mode["non_coherent"].groups[k])

    def test_links_flatten_groups(self, rng):
        beta = rng.lognormal(size=(10, 4))
        cpu_map = random_cpu_map(10, 3, rng)
        params = ClusteringParams(algorithm="fixed_aps", n_cpu=3, n_ap=6)
        for mode in ("mixed", "coherent", "non_coherent"):
            serving = build_serving_structure(beta, cpu_map, params, mode=mode)
            links = serving.links
            stops = list(links.group_start[1:]) + [links.ap.size]
            rebuilt = [[] for _ in serving.groups]
            for start, stop, k in zip(links.group_start, stops, links.group_user):
                assert np.all(links.user[start:stop] == k)
                rebuilt[k].append(tuple(links.ap[start:stop].tolist()))
            assert rebuilt == [[aps for _, aps in g] for g in serving.groups]
        # A copy with other groups does not keep the old index.
        fewer = replace(serving, groups=(serving.groups[0][:1],) + serving.groups[1:])
        dropped = sum(len(aps) for _, aps in serving.groups[0][1:])
        assert fewer.links.ap.size == links.ap.size - dropped

    def test_over_noise_threshold_uses_noise_power(self, rng):
        beta = rng.lognormal(size=(6, 1)) * 1e-8
        cpu_map = (tuple(range(6)),)
        noise = 1e-9
        params = ClusteringParams(algorithm="lsf_threshold", n_cpu=1,
                                  lsf_threshold=1.0)
        serving = build_serving_structure(beta, cpu_map, params, noise)
        expected = set(np.flatnonzero(beta[:, 0] / noise >= 1.0).tolist())
        if expected:
            assert set(serving.clusters[0]) == expected

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            build_serving_structure(np.ones((2, 1)), ((0, 1),),
                                    ClusteringParams(), mode="other")

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusteringParams(algorithm="nearest")
        with pytest.raises(ConfigurationError):
            ClusteringParams(power_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ClusteringParams(n_cpu=0)
