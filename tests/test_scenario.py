import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo.errors import ConfigurationError
from cfmimo.scenario import (DEFAULT_CPU_POSITIONS, ScenarioConfig,
                             generate_deployment, wrap_distance,
                             wrap_distance_matrix)


class TestWrapDistance:
    def test_identical_points(self):
        assert wrap_distance(np.array([3.0, -7.0]), np.array([3.0, -7.0]),
                             1000.0) == 0.0

    def test_opposite_edges_horizontal(self):
        # Going through the boundary is 20 m; straight across is 980 m.
        d = wrap_distance(np.array([-490.0, 0.0]), np.array([490.0, 0.0]), 1000.0)
        assert d == pytest.approx(20.0, abs=1e-12)

    def test_opposite_corners(self):
        d = wrap_distance(np.array([-490.0, -490.0]), np.array([490.0, 490.0]),
                          1000.0)
        assert d == pytest.approx(20.0 * np.sqrt(2.0), abs=1e-12)

    coord = st.floats(min_value=-500.0, max_value=500.0,
                      allow_nan=False, allow_infinity=False)

    @given(ax=coord, ay=coord, bx=coord, by=coord)
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, ax, ay, bx, by):
        a = np.array([ax, ay])
        b = np.array([bx, by])
        d = wrap_distance(a, b, 1000.0)
        assert d == pytest.approx(wrap_distance(b, a, 1000.0), abs=1e-9)
        assert d <= np.linalg.norm(a - b) + 1e-9
        assert d <= 1000.0 * np.sqrt(2.0) / 2.0 + 1e-9

    @given(ax=coord, ay=coord, bx=coord, by=coord)
    @settings(max_examples=100)
    def test_matches_nine_copy_enumeration(self, ax, ay, bx, by):
        a = np.array([ax, ay])
        b = np.array([bx, by])
        copies = [b + 1000.0 * np.array([i, j])
                  for i in (-1, 0, 1) for j in (-1, 0, 1)]
        expected = min(np.linalg.norm(a - c) for c in copies)
        assert wrap_distance(a, b, 1000.0) == pytest.approx(expected, abs=1e-9)

    points = st.lists(st.tuples(coord, coord), min_size=1, max_size=6)

    @given(x=points, y=points)
    @settings(max_examples=100)
    def test_matrix_is_wrap_distance_bit_for_bit(self, x, y):
        x, y = np.array(x), np.array(y)
        assert np.array_equal(wrap_distance_matrix(x, y, 1000.0),
                              wrap_distance(x[:, None], y[None], 1000.0))


class TestGenerateDeployment:
    def test_cpu_map_is_partition(self):
        dep = generate_deployment(ScenarioConfig(num_aps=50, seed=3))
        all_aps = sorted(m for aps in dep.cpu_map for m in aps)
        assert all_aps == list(range(50))

    def test_every_ap_assigned_to_closest_cpu(self):
        dep = generate_deployment(ScenarioConfig(num_aps=60, seed=7))
        dist = wrap_distance_matrix(dep.ap_positions, dep.cpu_positions,
                                    dep.area_side)
        for q, aps in enumerate(dep.cpu_map):
            for m in aps:
                assert dist[m, q] <= dist[m].min() + 1e-12

    def test_default_cpu_positions_give_four_pools(self):
        dep = generate_deployment(ScenarioConfig(num_aps=200, seed=11))
        assert dep.cpu_positions.shape == (4, 2)
        assert np.allclose(dep.cpu_positions, DEFAULT_CPU_POSITIONS)
        assert all(len(aps) > 0 for aps in dep.cpu_map)

    def test_single_ap_single_cpu(self):
        dep = generate_deployment(ScenarioConfig(
            num_aps=1, num_users=1, cpu_positions=((0.0, 0.0),), seed=0))
        assert dep.cpu_map == ((0,),)

    def test_same_seed_bit_identical(self):
        cfg = ScenarioConfig(num_aps=30, num_users=5, seed=99)
        # CPU positions given as lists or as an array are stored as the
        # tuple form, so the configs are equal and hash alike.
        for given in ([list(p) for p in DEFAULT_CPU_POSITIONS],
                      np.array(DEFAULT_CPU_POSITIONS)):
            same = ScenarioConfig(num_aps=30, num_users=5,
                                  cpu_positions=given, seed=99)
            assert same == cfg and hash(same) == hash(cfg)
            assert same.cpu_positions == DEFAULT_CPU_POSITIONS
        a = generate_deployment(cfg)
        b = generate_deployment(same)
        assert np.array_equal(a.ap_positions, b.ap_positions)
        assert np.array_equal(a.ue_positions, b.ue_positions)
        assert a.cpu_map == b.cpu_map

    def test_positions_inside_square(self):
        dep = generate_deployment(ScenarioConfig(num_aps=40, seed=5))
        assert np.all(np.abs(dep.ap_positions) <= 500.0)
        assert np.all(np.abs(dep.ue_positions) <= 500.0)

    def test_ap_to_cpu_consistent_with_map(self):
        dep = generate_deployment(ScenarioConfig(num_aps=25, seed=2))
        owner = dep.ap_to_cpu
        for q, aps in enumerate(dep.cpu_map):
            assert all(owner[m] == q for m in aps)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"num_aps": 0},
        {"num_users": 0},
        {"num_antennas": 0},
        {"area_side": -1.0},
        {"cpu_positions": ()},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**kwargs)
