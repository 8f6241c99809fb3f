import numpy as np
import pytest

from cfmimo.channel import (ChannelStatistics, LargeScaleModelConfig,
                            PathLossParams, channel_stats, complex_normals,
                            correlate_channel, correlation_sqrt,
                            cost_hata_fixed_term_db, path_loss_db,
                            sample_channel, shadowing_field,
                            spatial_correlation)
from cfmimo.errors import ConfigurationError, NumericalError
from cfmimo.scenario import Deployment, ScenarioConfig, generate_deployment


class TestPathLoss:
    params = PathLossParams()

    def test_continuous_at_d1(self):
        below = path_loss_db(self.params.d1 * (1 - 1e-12), self.params)
        above = path_loss_db(self.params.d1 * (1 + 1e-12), self.params)
        assert abs(below - above) < 1e-9

    def test_continuous_at_d0(self):
        below = path_loss_db(self.params.d0 * (1 - 1e-12), self.params)
        above = path_loss_db(self.params.d0 * (1 + 1e-12), self.params)
        assert abs(below - above) < 1e-9

    def test_far_slope_decade_ratio(self):
        # Doubling the distance in the far region costs 10*3.5*log10(2) dB.
        delta = (path_loss_db(2 * self.params.d1, self.params)
                 - path_loss_db(self.params.d1, self.params))
        assert delta == pytest.approx(-35.0 * np.log10(2.0), abs=1e-3)
        assert delta == pytest.approx(-10.54, abs=0.01)

    def test_slopes_in_each_region(self):
        for lo, hi, slope in ((2.0, 5.0, 2.0), (15.0, 30.0, 3.0),
                              (100.0, 1000.0, 3.5)):
            delta = path_loss_db(hi, self.params) - path_loss_db(lo, self.params)
            assert delta == pytest.approx(-10.0 * slope * np.log10(hi / lo),
                                          abs=1e-9)

    def test_distance_floor(self):
        assert path_loss_db(0.0, self.params) == path_loss_db(1.0, self.params)
        assert path_loss_db(0.3, self.params) == path_loss_db(1.0, self.params)

    def test_monotone_decreasing(self):
        d = np.linspace(1.0, 2000.0, 500)
        pl = path_loss_db(d, self.params)
        assert np.all(np.diff(pl) < 0)

    def test_invalid_breakpoints(self):
        with pytest.raises(ConfigurationError):
            PathLossParams(d0=50.0, d1=10.0)

    def test_fixed_term_value(self):
        # 1900 MHz, 15 m AP, 1.65 m UE urban fixed attenuation term.
        assert cost_hata_fixed_term_db() == pytest.approx(140.72, abs=0.05)


class TestShadowing:
    def test_zero_std_gives_zero_field(self, rng):
        dep = generate_deployment(ScenarioConfig(num_aps=5, num_users=4, seed=1))
        cfg = LargeScaleModelConfig(shadow_std_db=0.0)
        assert np.all(shadowing_field(dep, cfg, rng) == 0.0)

    def test_colocated_aps_fully_correlated(self, rng):
        pos = np.array([[10.0, 10.0], [10.0, 10.0], [-200.0, 55.0]])
        dep = Deployment(ap_positions=pos, ue_positions=np.zeros((2, 2)),
                         cpu_positions=np.zeros((1, 2)),
                         ap_to_cpu=np.zeros(3, dtype=int))
        cfg = LargeScaleModelConfig(shadow_weight=1.0)
        field = shadowing_field(dep, cfg, rng)
        # With the UE component weighted out, identical positions share values.
        assert np.allclose(field[0], field[1], atol=1e-6)

    def test_marginal_variance(self):
        dep = generate_deployment(ScenarioConfig(num_aps=2, num_users=2, seed=4))
        cfg = LargeScaleModelConfig(shadow_std_db=8.0)
        gen = np.random.default_rng(0)
        draws = np.array([shadowing_field(dep, cfg, gen) for _ in range(30_000)])
        var = draws.var(axis=0)
        assert np.all(np.abs(var / 64.0 - 1.0) < 0.05)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.2)

    def test_nearby_aps_more_correlated_than_distant(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [450.0, 450.0]])
        dep = Deployment(ap_positions=pos, ue_positions=np.zeros((1, 2)),
                         cpu_positions=np.zeros((1, 2)),
                         ap_to_cpu=np.zeros(3, dtype=int))
        cfg = LargeScaleModelConfig(shadow_weight=1.0)
        gen = np.random.default_rng(7)
        draws = np.array([shadowing_field(dep, cfg, gen)[:, 0]
                          for _ in range(5_000)])
        corr = np.corrcoef(draws.T)
        assert corr[0, 1] > corr[0, 2]
        assert corr[0, 1] > 0.8   # exp(-10/100) ~ 0.905


class TestSpatialCorrelation:
    def test_scalar_case(self):
        R = spatial_correlation(0.4, 15.0, 1, 2.5)
        assert R.shape == (1, 1)
        assert R[0, 0] == pytest.approx(2.5)

    def test_two_antenna_broadside_magnitude(self):
        beta = 3.0
        R = spatial_correlation(0.0, 15.0, 2, beta)
        asd = np.deg2rad(15.0)
        expected = beta * np.exp(-0.5 * asd**2 * np.pi**2)
        assert abs(R[0, 1]) == pytest.approx(expected, rel=1e-12)
        assert abs(R[0, 1]) / beta == pytest.approx(0.7130, abs=5e-4)

    def test_zero_spread_is_rank_one(self):
        R = spatial_correlation(0.7, 0.0, 4, 1.0)
        w = np.linalg.eigvalsh(R)
        assert w[-1] == pytest.approx(4.0, rel=1e-10)
        assert np.all(np.abs(w[:-1]) < 1e-10)

    def test_hermitian_psd_trace(self, rng):
        for _ in range(20):
            beta = rng.lognormal()
            n = int(rng.integers(1, 6))
            R = spatial_correlation(rng.uniform(-np.pi, np.pi), 15.0, n, beta)
            assert np.array_equal(R, R.conj().T)
            assert np.array_equal(np.diagonal(R), np.full(n, beta + 0j))
            assert np.trace(R).real == pytest.approx(n * beta, rel=1e-15)
            assert np.linalg.eigvalsh(R).min() >= -1e-12 * beta

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_is_the_scalar_matrices(self, n, rng):
        angles = rng.uniform(-np.pi, np.pi, size=(3, 5))
        beta = rng.lognormal(size=(3, 5))
        R = spatial_correlation(angles, 15.0, n, beta)
        assert R.shape == (3, 5, n, n)
        # numpy's scalar and array complex products may round differently.
        for m, k in np.ndindex(3, 5):
            assert np.allclose(R[m, k], spatial_correlation(
                angles[m, k], 15.0, n, beta[m, k]), rtol=1e-15, atol=0)


class TestChannelStats:
    def test_noise_power_value(self):
        cfg = LargeScaleModelConfig()
        assert cfg.noise_power_w == pytest.approx(6.366e-13, rel=2e-3)

    def test_noise_power_linear_in_bandwidth(self):
        a = LargeScaleModelConfig(bandwidth_hz=20e6).noise_power_w
        b = LargeScaleModelConfig(bandwidth_hz=40e6).noise_power_w
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_trace_matches_beta(self, rng):
        dep = generate_deployment(ScenarioConfig(num_aps=6, num_users=4,
                                                 num_antennas=3, seed=8))
        stats = channel_stats(dep, LargeScaleModelConfig(), rng)
        traces = np.trace(stats.R, axis1=-2, axis2=-1).real / 3.0
        assert np.allclose(traces, stats.beta, rtol=1e-15)
        assert np.array_equal(np.diagonal(stats.R, axis1=-2, axis2=-1),
                              np.repeat(stats.beta[..., None] + 0j, 3, axis=-1))

    def test_all_matrices_hermitian_psd(self, rng):
        dep = generate_deployment(ScenarioConfig(num_aps=5, num_users=3,
                                                 num_antennas=2, seed=9))
        stats = channel_stats(dep, LargeScaleModelConfig(), rng)
        assert np.array_equal(stats.R, np.conj(np.swapaxes(stats.R, -1, -2)))
        w = np.linalg.eigvalsh(stats.R)
        assert np.all(w >= -1e-12 * stats.beta[..., None])


class TestSampleChannel:
    def _unit_stats(self, rng, num_aps=2, num_users=2, num_antennas=2):
        from conftest import random_stats
        return random_stats(num_aps, num_users, num_antennas, rng)

    def test_zero_statistics_give_zero_channel(self, rng):
        stats = ChannelStatistics(R=np.zeros((2, 2, 2, 2), dtype=complex),
                                  beta=np.zeros((2, 2)), noise_power=1.0)
        h = sample_channel(stats, rng)
        assert np.all(h == 0)

    def test_empirical_covariance(self, rng):
        stats = self._unit_stats(rng)
        h = sample_channel(stats, np.random.default_rng(3), num_samples=100_000)
        for m in range(2):
            for k in range(2):
                emp = np.einsum("sa,sb->ab", h[:, m, k],
                                np.conj(h[:, m, k])) / h.shape[0]
                err = np.linalg.norm(emp - stats.R[m, k])
                assert err <= 0.02 * np.linalg.norm(stats.R[m, k])

    def test_mean_squared_norm(self, rng):
        stats = self._unit_stats(rng)
        h = sample_channel(stats, np.random.default_rng(5), num_samples=100_000)
        power = (np.abs(h) ** 2).sum(axis=-1).mean(axis=0)
        assert np.allclose(power, 2.0 * stats.beta, rtol=0.02)

    def test_draws_one_complex_normal_per_entry(self, rng):
        # The stream is one complex normal per entry of H, in C order;
        # correlating any slice of the normals gives that slice of H.
        stats = self._unit_stats(rng, num_aps=3)
        g = complex_normals(np.random.default_rng(7).bit_generator,
                            np.empty((5, 3, 2, 2), complex))
        h = sample_channel(stats, np.random.default_rng(7), num_samples=5)
        expected = np.einsum("mkab,smkb->smka", correlation_sqrt(stats.R),
                             g / np.sqrt(2.0))
        assert np.allclose(h, expected, rtol=1e-14, atol=0)
        part = correlate_channel(correlation_sqrt(stats.R), g[1:3])
        assert np.allclose(part, h[1:3], rtol=1e-14, atol=0)

    def test_correlation_sqrt_squares_back(self, rng):
        stats = self._unit_stats(rng, num_antennas=3)
        s = correlation_sqrt(stats.R)
        assert np.allclose(np.einsum("...ab,...bc->...ac", s, s), stats.R,
                           atol=1e-10)

    def test_correlation_sqrt_rejects_indefinite(self):
        bad = np.array([[1.0, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(NumericalError):
            correlation_sqrt(bad[None])


class TestLargeScaleConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"shadow_std_db": -1.0},
        {"shadow_weight": 1.5},
        {"bandwidth_hz": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LargeScaleModelConfig(**kwargs)
