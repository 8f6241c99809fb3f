from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cluster_of, fixed, legacy, power, random_cpu_map, threshold

from cfmimo import clustering
from cfmimo.clustering import (ALGORITHMS, THRESHOLD_MODES, ClusteringParams,
                               build_serving_structure, serving_mask)
from cfmimo.errors import ConfigurationError
from cfmimo.harness import TRANSMISSION_MODES


def mixed_groups(beta, owner, num_cpus, params):
    """(cluster, groups) of one user in mixed mode."""
    serving = build_serving_structure(np.asarray(beta, dtype=float)[:, None],
                                      np.asarray(owner), num_cpus, params)
    return serving.clusters[0], serving.groups[0]


class TestOrderCpus:
    # A zero threshold keeps every candidate, so the cluster at n_cpu = j is
    # the AP pools of the j CPUs ranked first.
    def test_single_cpu(self):
        assert cluster_of([1.0, 2.0], [0, 0], 1, threshold(1, 0.0)) == (0, 1)

    def test_descending_by_best_ap(self):
        # Best-per-CPU values [3, 9, 1, 5] sort to CPU order [1, 3, 0, 2].
        beta = [3.0, 9.0, 1.0, 5.0]
        clusters = [cluster_of(beta, [0, 1, 2, 3], 4, threshold(j, 0.0))
                    for j in (1, 2, 3, 4)]
        assert clusters == [(1,), (1, 3), (0, 1, 3), (0, 1, 2, 3)]

    def test_best_ap_within_pool(self):
        beta = [0.1, 8.0, 0.2, 7.0]
        assert cluster_of(beta, [0, 0, 1, 1], 2, threshold(1, 0.0)) == (0, 1)

    def test_tie_prefers_lower_index(self):
        assert cluster_of([5.0, 5.0], [0, 1], 2, threshold(1, 0.0)) == (0,)

    def test_empty_pool_skipped(self):
        # A CPU without APs (CPU 1) is never a candidate, wherever it sits.
        beta, owner = [1.0, 3.0], [0, 2]
        assert [cluster_of(beta, owner, 3, threshold(j, 0.0))
                for j in (1, 2, 3)] == [(1,), (0, 1), (0, 1)]


class TestLegacyLargestLsf:
    def test_all_aps(self):
        assert cluster_of([0.3, 0.1, 0.2], [0, 0, 0], 1, legacy(3)) == (0, 1, 2)

    def test_single_best(self):
        assert cluster_of([0.3, 0.9, 0.2], [0, 0, 0], 1, legacy(1)) == (1,)

    def test_top_two(self):
        beta = [0.1, 0.9, 0.5, 0.7]
        assert cluster_of(beta, [0, 0, 0, 0], 1, legacy(2)) == (1, 3)

    def test_oversized_request_clamped(self):
        assert cluster_of([1.0, 2.0], [0, 0], 1, legacy(5)) == (0, 1)


class TestLsfThreshold:
    owner = [0, 0, 1, 1]

    def test_zero_threshold_keeps_candidates(self):
        beta = [0.1, 0.2, 0.3, 0.4]
        assert cluster_of(beta, self.owner, 2, threshold(2, 0.0)) == (0, 1, 2, 3)

    def test_unreachable_threshold_falls_back_to_best(self):
        beta = [0.1, 0.2, 0.3, 0.4]
        assert cluster_of(beta, self.owner, 2, threshold(2, 100.0)) == (3,)

    def test_restricts_to_best_cpus(self):
        beta = [0.9, 0.8, 0.1, 0.05]
        assert cluster_of(beta, self.owner, 2, threshold(1, 0.0)) == (0, 1)

    def test_full_pool_reduces_to_global_threshold(self, rng):
        for _ in range(20):
            beta = rng.lognormal(size=10)
            owner = random_cpu_map(10, 3, rng)
            delta = float(np.median(beta))
            expected = set(np.flatnonzero(beta >= delta).tolist())
            assert set(cluster_of(beta, owner, 3, threshold(3, delta))) == expected
            # A fourth CPU without APs changes nothing at n_cpu = Q.
            assert set(cluster_of(beta, owner, 4, threshold(4, delta))) == expected


class TestFixedAps:
    owner = [0, 0, 0, 1, 1, 1]

    def test_whole_candidate_set(self):
        beta = np.arange(6, dtype=float)
        assert cluster_of(beta, self.owner, 2, fixed(2, 10)) == (0, 1, 2, 3, 4, 5)

    def test_single_best_candidate(self):
        beta = [0.0, 5.0, 1.0, 0.2, 0.3, 0.1]
        assert cluster_of(beta, self.owner, 2, fixed(2, 1)) == (1,)

    def test_full_pool_reduces_to_legacy(self, rng):
        for _ in range(20):
            beta = rng.lognormal(size=12)
            # The second map's fourth CPU controls no AP.
            for owner in (random_cpu_map(12, 4, rng), random_cpu_map(12, 3, rng)):
                assert cluster_of(beta, owner, 4, fixed(4, 5)) == \
                    cluster_of(beta, owner, 4, legacy(5))


class TestPowerFraction:
    owner = [0, 0, 0]

    def test_full_fraction_keeps_all(self):
        assert cluster_of([0.5, 0.3, 0.2], self.owner, 1, power(1, 1.0)) == (0, 1, 2)

    def test_hand_prefix(self):
        # Sorted shares 0.5, 0.3, 0.2 of total 1; 0.75 needs the first two.
        assert cluster_of([0.5, 0.3, 0.2], self.owner, 1, power(1, 0.75)) == (0, 1)

    def test_tiny_fraction_single_best(self):
        assert cluster_of([0.2, 0.5, 0.3], self.owner, 1, power(1, 1e-9)) == (1,)

    def test_prefix_is_minimal(self, rng):
        for _ in range(30):
            beta = rng.lognormal(size=8)
            out = cluster_of(beta, np.zeros(8, dtype=int), 1, power(1, 0.8))
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
        _, groups = mixed_groups([1.0, 0.5, 1.0], [0, 0, 0], 1, fixed(1, 2))
        assert groups == ((0, (0, 2)),)

    def test_singleton_groups(self):
        _, groups = mixed_groups([1.0, 1.0], [0, 1], 2, fixed(2, 2))
        assert groups == ((0, (0,)), (1, (1,)))

    def test_partition_two_of_four_cpus(self):
        owner = [0, 0, 1, 1, 2, 2, 3, 3]
        beta = [0.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        cluster, groups = mixed_groups(beta, owner, 4, fixed(4, 3))
        assert cluster == (1, 2, 3)
        assert len(groups) == 2
        union = sorted(m for _, aps in groups for m in aps)
        assert union == [1, 2, 3]
        for cpu, aps in groups:
            assert all(owner[m] == cpu for m in aps)


betas = st.lists(st.floats(min_value=1e-6, max_value=1e3,
                           allow_nan=False), min_size=4, max_size=12)


@st.composite
def instances(draw):
    """Multi-user inputs with tied and zero LSFs and CPUs without APs."""
    m, k, q = draw(st.integers(1, 12)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    owner = np.array(draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m)))
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(1e-6, 1e3)
    beta = np.array(draw(st.lists(values, min_size=m * k, max_size=m * k)))
    params = ClusteringParams(
        algorithm=draw(st.sampled_from(ALGORITHMS)), n_cpu=draw(st.integers(1, q)),
        lsf_threshold=draw(st.sampled_from([0.0, 1.0, 2.0, 1e9])),
        threshold_mode=draw(st.sampled_from(THRESHOLD_MODES)),
        n_ap=draw(st.integers(1, m + 1)), power_fraction=draw(st.floats(0.01, 1.0)),
        legacy_cluster_size=draw(st.integers(1, m + 1)))
    return beta.reshape(m, k), owner, q, params


class TestProperties:
    @given(beta=betas, seed=st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_groups_partition_cluster(self, beta, seed):
        gen = np.random.default_rng(seed)
        q = int(gen.integers(1, min(4, len(beta)) + 1))
        owner = random_cpu_map(len(beta), q, gen)
        cluster, groups = mixed_groups(beta, owner, q,
                                       fixed(q, int(gen.integers(1, len(beta)))))
        union = sorted(m for _, aps in groups for m in aps)
        assert union == sorted(cluster)
        for cpu, aps in groups:
            assert all(owner[m] == cpu for m in aps)

    @given(beta=betas, seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_threshold_monotone_shrinking(self, beta, seed):
        gen = np.random.default_rng(seed)
        owner = random_cpu_map(len(beta), 2, gen)
        lo = cluster_of(beta, owner, 2, threshold(2, float(np.min(beta))))
        hi = cluster_of(beta, owner, 2, threshold(2, float(np.max(beta))))
        assert set(hi) <= set(lo)

    @given(beta=betas, n1=st.integers(1, 6), n2=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_fixed_monotone_growing(self, beta, n1, n2):
        owner = np.zeros(len(beta), dtype=int)
        small, large = sorted((n1, n2))
        assert set(cluster_of(beta, owner, 1, fixed(1, small))) <= \
            set(cluster_of(beta, owner, 1, fixed(1, large)))

    @given(beta=betas, d1=st.floats(0.01, 1.0), d2=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_power_monotone_growing(self, beta, d1, d2):
        owner = np.zeros(len(beta), dtype=int)
        small, large = sorted((d1, d2))
        assert set(cluster_of(beta, owner, 1, power(1, small))) <= \
            set(cluster_of(beta, owner, 1, power(1, large)))

    @given(beta=betas)
    @settings(max_examples=100, deadline=None)
    def test_every_cluster_nonempty(self, beta):
        owner = np.zeros(len(beta), dtype=int)
        for params in (
            ClusteringParams(algorithm="lsf_threshold", n_cpu=1,
                             lsf_threshold=1e9, threshold_mode="raw_linear"),
            ClusteringParams(algorithm="power_fraction", n_cpu=1,
                             power_fraction=1e-9),
            ClusteringParams(algorithm="fixed_aps", n_cpu=1, n_ap=1),
        ):
            assert len(cluster_of(beta, owner, 1, params)) >= 1

    @given(instance=instances(), mode=st.sampled_from(TRANSMISSION_MODES))
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_single_users(self, instance, mode):
        # No user's clusters or groups depend on another user's LSFs.
        beta, owner, q, params = instance
        batch = build_serving_structure(beta, owner, q, params, 0.5, mode)
        for k in range(beta.shape[1]):
            single = build_serving_structure(beta[:, [k]], owner, q, params, 0.5, mode)
            assert batch.clusters[k] == single.clusters[0]
            assert batch.groups[k] == single.groups[0]

    @given(instance=instances(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_stack_is_its_points_in_turn(self, instance, data):
        # Point p's user k is virtual user p*K + k of the stack, with the
        # clusters, groups and links of the point built on its own.
        beta, owner, q, params = instance
        choices = [params, replace(params, n_ap=1),
                   replace(params, algorithm="legacy_largest_lsf")]
        points = data.draw(st.lists(st.tuples(st.sampled_from(choices),
                                              st.sampled_from(TRANSMISSION_MODES)),
                                    min_size=1, max_size=4))
        stack = build_serving_structure(beta, owner, q, [p for p, _ in points],
                                        0.5, [m for _, m in points])
        singles = [build_serving_structure(beta, owner, q, p, 0.5, m)
                   for p, m in points]
        assert stack.clusters == sum((s.clusters for s in singles), ())
        assert stack.groups == sum((s.groups for s in singles), ())
        k = beta.shape[1]
        first_link = np.cumsum([0] + [s.links.ap.size for s in singles])
        want = {"ap": [s.links.ap for s in singles],
                "user": [s.links.user + p * k for p, s in enumerate(singles)],
                "group_start": [s.links.group_start + first_link[p]
                                for p, s in enumerate(singles)],
                "group_user": [s.links.group_user + p * k
                               for p, s in enumerate(singles)]}
        for name, parts in want.items():
            assert np.array_equal(getattr(stack.links, name), np.concatenate(parts))

    def test_stack_clusters_once_per_distinct_params(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[3])
            return serving_mask(*args)

        monkeypatch.setattr(clustering, "serving_mask", counting)
        beta = np.random.default_rng(0).uniform(0.1, 1.0, (6, 3))
        params = [fixed(2, 2), fixed(2, 3), fixed(2, 2)]
        stack = build_serving_structure(beta, np.arange(6) % 2, 2, params * 3,
                                        mode=["coherent"] * 3 + ["mixed"] * 6)
        assert calls == [fixed(2, 2), fixed(2, 3)]
        assert len(stack.clusters) == 9 * 3

    def test_stack_needs_a_mode_per_point(self):
        with pytest.raises(ConfigurationError, match="2 clustering params for 3"):
            build_serving_structure(np.ones((2, 1)), np.zeros(2, dtype=int), 1,
                                    [fixed(1, 1)] * 2, mode=["mixed"] * 3)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("mode", TRANSMISSION_MODES)
    @given(instance=instances())
    @settings(max_examples=25, deadline=None)
    def test_handed_over_links_equal_derived_links(self, algorithm, mode, instance):
        beta, owner, q, params = instance
        serving = build_serving_structure(beta, owner, q,
                                          replace(params, algorithm=algorithm),
                                          0.5, mode)
        assert "links" in vars(serving)          # set, not yet derived
        copy = replace(serving)                   # a copy derives its own
        assert copy.num_users == serving.num_users
        for name in ("ap", "user", "group_start", "group_user", "group_cpu"):
            got, want = getattr(serving.links, name), getattr(copy.links, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestBuildServingStructure:
    def test_modes_share_clusters(self, rng):
        beta = rng.lognormal(size=(10, 4))
        owner = random_cpu_map(10, 2, rng)
        params = ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=5)
        by_mode = {mode: build_serving_structure(beta, owner, 2, params,
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
        owner = random_cpu_map(10, 3, rng)
        params = ClusteringParams(algorithm="fixed_aps", n_cpu=3, n_ap=6)
        for mode in ("mixed", "coherent", "non_coherent"):
            serving = build_serving_structure(beta, owner, 3, params, mode=mode)
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

    def test_structure_needs_links_or_groups(self):
        with pytest.raises(TypeError, match="links or groups"):
            clustering.ServingStructure()

    def test_clusters_without_groups_rejected(self):
        # The groups set the links; clusters alone cannot.
        with pytest.raises(TypeError, match="need groups"):
            clustering.ServingStructure(clusters=((0, 1),))

    def test_over_noise_threshold_uses_noise_power(self, rng):
        beta = rng.lognormal(size=(6, 1)) * 1e-8
        noise = 1e-9
        params = ClusteringParams(algorithm="lsf_threshold", n_cpu=1,
                                  lsf_threshold=1.0)
        serving = build_serving_structure(beta, np.zeros(6, dtype=int), 1,
                                          params, noise)
        expected = set(np.flatnonzero(beta[:, 0] / noise >= 1.0).tolist())
        if expected:
            assert set(serving.clusters[0]) == expected

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            build_serving_structure(np.ones((2, 1)), np.zeros(2, dtype=int), 1,
                                    ClusteringParams(), mode="other")

    @pytest.mark.parametrize("algorithm", ALGORITHMS[1:])
    def test_n_cpu_above_cpu_count_rejected(self, algorithm):
        # CPU 1 controls no AP but still counts toward the number of CPUs.
        beta, owner = np.ones((3, 2)), np.array([0, 0, 2])
        params = ClusteringParams(algorithm=algorithm, n_cpu=3)
        assert build_serving_structure(beta, owner, 3, params).clusters
        with pytest.raises(ConfigurationError, match="n_cpu exceeds"):
            build_serving_structure(beta, owner, 3, replace(params, n_cpu=4))
        # The legacy algorithm ignores n_cpu.
        assert build_serving_structure(beta, owner, 3, replace(
            params, algorithm="legacy_largest_lsf", n_cpu=4)).clusters

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusteringParams(algorithm="nearest")
        with pytest.raises(ConfigurationError):
            ClusteringParams(power_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ClusteringParams(n_cpu=0)
