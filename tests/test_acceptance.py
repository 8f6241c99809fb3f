"""Acceptance suite: one test per release criterion, one printed line each.

These are the end-to-end checks behind the library's headline claims: the
closed-form SINR terms match a Monte Carlo expectation oracle, the special
cases collapse exactly, clustering behaves structurally, and experiments
are reproducible under parallelism. Each test prints a single
"criterion N ...: PASS/FAIL" line (bypassing capture so the line is visible
in normal pytest runs).
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (cluster_of, fixed, legacy, per_user, power,
                      random_cpu_map, random_stats, solved_estimate_covariance,
                      threshold)

from cfmimo.channel import sample_channel
from cfmimo.clustering import ClusteringParams, build_serving_structure
from cfmimo.harness import (ExperimentConfig, OracleConfig, emit_results,
                            run_experiment, run_oracle_check,
                            validation_config)
from cfmimo.pilots import (PilotAssignment, PowerConfig, assign_pilots,
                           estimation_terms, mmse_estimate, psi_stack,
                           simulate_pilot_phase)
from cfmimo.scenario import ScenarioConfig
from cfmimo.spectral_efficiency import FrameConfig, compute_terms, user_rates

JOBS = 4

_capture = None


@pytest.fixture(autouse=True)
def _criterion_capture(capfd):
    global _capture
    _capture = capfd
    yield
    _capture = None


def _report(number: int, name: str, passed: bool) -> None:
    line = f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'}"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, line


def _desk_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        scenario=ScenarioConfig(num_aps=40, num_users=10, num_antennas=2),
        clustering=ClusteringParams(algorithm="legacy_largest_lsf",
                                    legacy_cluster_size=10),
        num_drops=200,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_criterion_1_closed_form_matches_oracle():
    """Every D, E, F and SINR agrees with the sampling oracle."""
    instances = ([(8, 3, 2, 2, s) for s in (0, 1)]
                 + [(8, 3, 2, 3, s) for s in (0, 1)]
                 + [(12, 4, 4, 2, s) for s in (0, 1, 2)]
                 + [(12, 4, 4, 4, s) for s in (0, 1, 2)])
    ok = True
    for m, k, q, tau_p, seed in instances:
        config = replace(validation_config(m, k, q, tau_p), base_seed=seed,
                         oracle=OracleConfig(num_samples=100_000))
        terms, oracle, noise = run_oracle_check(config)
        sinr = per_user(user_rates(terms, config.frame, noise).sinr_flat, terms)
        for u in range(k):
            pairs = [(terms.E[u], oracle.E[u], oracle.E_se[u]),
                     (terms.F[u], oracle.F[u], oracle.F_se[u])]
            pairs += [(terms.D[u][c], oracle.D[u][c], oracle.D_se[u][c])
                      for c in range(terms.D[u].size)]
            pairs += [(sinr[u][c], oracle.sinr[u][c], oracle.sinr_se[u][c])
                      for c in range(terms.D[u].size)]
            for closed, est, se in pairs:
                ok &= abs(closed - est) <= max(0.02 * abs(closed), 3.0 * se)
    _report(1, "closed form vs oracle", ok)


def test_criterion_2_special_case_exactness():
    ok = True
    for seed in range(10):
        gen = np.random.default_rng(seed)
        stats = random_stats(8, 3, 2, gen)
        assignment = assign_pilots(3, 2, gen)
        owner = random_cpu_map(8, 2, gen)
        powers = PowerConfig()
        frame = FrameConfig(200, 2)
        est = estimation_terms(stats, assignment, powers)

        # (a) clusters confined to one CPU: mixed equals the coherent form.
        params = ClusteringParams(algorithm="fixed_aps", n_cpu=1, n_ap=3)
        mixed = build_serving_structure(stats.beta, owner, 2, params,
                                        mode="mixed")
        coh = build_serving_structure(stats.beta, owner, 2, params,
                                      mode="coherent")
        rm = user_rates(compute_terms(mixed, stats, assignment, powers, est),
                        frame, stats.noise_power)
        rc = user_rates(compute_terms(coh, stats, assignment, powers, est),
                        frame, stats.noise_power)
        ok &= np.allclose(rm.user_rate, rc.user_rate, rtol=1e-12, atol=0)

        # (b) one AP per CPU: mixed groups are singletons = non-coherent.
        singleton = np.arange(8)
        params = ClusteringParams(algorithm="fixed_aps", n_cpu=8, n_ap=4)
        mixed = build_serving_structure(stats.beta, singleton, 8, params,
                                        mode="mixed")
        nc = build_serving_structure(stats.beta, singleton, 8, params,
                                     mode="non_coherent")
        rm = user_rates(compute_terms(mixed, stats, assignment, powers, est),
                        frame, stats.noise_power)
        rn = user_rates(compute_terms(nc, stats, assignment, powers, est),
                        frame, stats.noise_power)
        ok &= np.allclose(rm.user_rate, rn.user_rate, rtol=1e-12, atol=0)

        # (c) single-AP clusters: the three modes are bit-identical.
        params = ClusteringParams(algorithm="legacy_largest_lsf",
                                  legacy_cluster_size=1)
        rates = []
        for mode in ("mixed", "coherent", "non_coherent"):
            serving = build_serving_structure(stats.beta, owner, 2, params,
                                              mode=mode)
            r = user_rates(compute_terms(serving, stats, assignment, powers, est),
                           frame, stats.noise_power)
            rates.append(tuple(r.user_rate))
        ok &= rates[0] == rates[1] == rates[2]
    _report(2, "special-case exactness", ok)


def test_criterion_3_legacy_reductions():
    ok = True
    gen = np.random.default_rng(7)
    for _ in range(100):
        m = int(gen.integers(6, 20))
        q = int(gen.integers(1, 5))
        beta = gen.lognormal(size=m)
        owner = random_cpu_map(m, q, gen)
        delta = float(np.quantile(beta, 0.6))
        n_ap = int(gen.integers(1, m + 1))
        frac = float(gen.uniform(0.3, 1.0))

        # Single-pool counterparts computed independently.
        order = np.lexsort((np.arange(m), -beta))
        legacy_threshold = tuple(int(i) for i in np.flatnonzero(beta >= delta))
        if not legacy_threshold:
            legacy_threshold = (int(order[0]),)
        legacy_fixed = tuple(sorted(int(i) for i in order[:min(n_ap, m)]))
        cum = np.cumsum(beta[order])
        count = int(np.searchsorted(cum, frac * cum[-1])) + 1
        legacy_power = tuple(sorted(int(i) for i in order[:min(count, m)]))

        ok &= set(cluster_of(beta, owner, q, threshold(q, delta))) == \
            set(legacy_threshold)
        ok &= set(cluster_of(beta, owner, q, fixed(q, n_ap))) == set(legacy_fixed)
        ok &= set(cluster_of(beta, owner, q, power(q, frac))) == set(legacy_power)
    _report(3, "legacy clustering reductions", ok)


def test_criterion_4_mmse_estimator_statistics():
    gen = np.random.default_rng(11)
    stats = random_stats(2, 4, 2, gen, noise_power=0.5)
    assignment = PilotAssignment(tau_p=2, t=np.array([0, 0, 1, 1]))
    powers = PowerConfig()
    sample_rng = np.random.default_rng(12)
    H = sample_channel(stats, sample_rng, num_samples=100_000)
    y = simulate_pilot_phase(H, assignment, powers, stats.noise_power,
                             sample_rng)
    psi = psi_stack(stats, assignment, powers)
    coef = estimation_terms(stats, assignment, powers).coef
    h_hat = mmse_estimate(y, coef, assignment)
    target = solved_estimate_covariance(stats, assignment, powers)
    n = H.shape[0]
    emp = np.einsum("smka,smkb->mkab", h_hat, np.conj(h_hat)) / n
    cross = np.einsum("smka,smkb->mkab", h_hat, np.conj(H - h_hat)) / n
    fro = {"axis": (-2, -1)}    # Frobenius norm per link
    ok = bool(np.all(np.linalg.norm(emp - target, **fro)
                     <= 0.02 * np.linalg.norm(target, **fro)))
    ok &= bool(np.all(np.linalg.norm(cross, **fro)
                      <= 0.02 * np.linalg.norm(stats.R, **fro)))
    # R = error + estimate covariance, with the estimate covariance formed
    # as A Psi A^H from the estimator's coefficients A.
    a_psi_a = coef @ psi[assignment.t].swapaxes(0, 1) @ np.conj(coef).swapaxes(-2, -1)
    ok &= np.allclose(stats.R - target + a_psi_a, stats.R, rtol=1e-9, atol=1e-15)
    _report(4, "MMSE estimator statistics", ok)


def _bootstrap_ci(values: np.ndarray, rng: np.random.Generator,
                  num_resamples: int = 10_000) -> tuple[float, float]:
    idx = rng.integers(0, values.size, size=(num_resamples, values.size))
    means = values[idx].mean(axis=1)
    return (float(np.percentile(means, 2.5)),
            float(np.percentile(means, 97.5)))


def test_criterion_5_transmission_mode_ordering():
    modes = ("coherent", "mixed", "non_coherent")
    results = run_experiment(_desk_config(sweep={"transmission_mode": modes}),
                             jobs=JOBS)
    sums = {point["transmission_mode"]: np.array([d.sum_rate for d in res.drops])
            for point, res in results}
    gen = np.random.default_rng(0)
    coh_lo, _ = _bootstrap_ci(sums["coherent"], gen)
    _, nc_hi = _bootstrap_ci(sums["non_coherent"], gen)
    ok = (sums["coherent"].mean() >= sums["mixed"].mean()
          >= sums["non_coherent"].mean())
    ok &= coh_lo > nc_hi   # non-overlapping 95% bootstrap intervals
    _report(5, "mode ordering coherent >= mixed >= non-coherent", ok)


def _unimodal_up_then_down(values: np.ndarray) -> bool:
    peak = int(np.argmax(values))
    rising = np.all(np.diff(values[: peak + 1]) >= -1e-9)
    falling = np.all(np.diff(values[peak:]) <= 1e-9)
    return bool(rising and falling and values[peak] > values[0])


def test_criterion_6_cluster_size_sweep_shape():
    sizes = (1, 2, 4, 8, 16)
    modes = ("coherent", "mixed", "non_coherent")
    results = run_experiment(_desk_config(sweep={
        "transmission_mode": modes,
        "clustering.legacy_cluster_size": sizes}), jobs=JOBS)
    # Grid order: the sizes in order within each mode.
    means = {mode: np.array([res.mean_sum_rate for point, res in results
                             if point["transmission_mode"] == mode])
             for mode in modes}
    nc = means["non_coherent"]
    ok = bool(np.all(np.diff(nc[1:]) <= 1e-9))   # non-increasing for A_k >= 2
    ok &= _unimodal_up_then_down(means["coherent"])
    ok &= _unimodal_up_then_down(means["mixed"])
    _report(6, "total rate vs cluster size shape", ok)


def test_criterion_7_clustering_property_suites():
    ok = True
    gen = np.random.default_rng(21)

    # Partition / CPU-purity on 1000 random instances.
    for _ in range(1000):
        m = int(gen.integers(4, 13))
        q = int(gen.integers(1, min(m, 4) + 1))
        beta = gen.lognormal(size=m)
        owner = random_cpu_map(m, q, gen)
        serving = build_serving_structure(
            beta[:, None], owner, q, fixed(q, int(gen.integers(1, m + 1))))
        cluster, groups = serving.clusters[0], serving.groups[0]
        union = sorted(ap for _, aps in groups for ap in aps)
        ok &= union == sorted(cluster)
        ok &= all(all(owner[ap] == cpu for ap in aps) for cpu, aps in groups)

    # Monotonicity in each algorithm's control parameter.
    for _ in range(1000):
        m = int(gen.integers(4, 13))
        beta = gen.lognormal(size=m)
        q = int(gen.integers(1, 4))
        owner = random_cpu_map(m, q, gen)
        d1, d2 = sorted(gen.uniform(beta.min(), beta.max(), size=2))
        ok &= set(cluster_of(beta, owner, q, threshold(q, d2))) <= \
            set(cluster_of(beta, owner, q, threshold(q, d1)))
        n1, n2 = sorted(gen.integers(1, m + 1, size=2))
        ok &= set(cluster_of(beta, owner, q, fixed(q, int(n1)))) <= \
            set(cluster_of(beta, owner, q, fixed(q, int(n2))))
        f1, f2 = sorted(gen.uniform(0.05, 1.0, size=2))
        ok &= set(cluster_of(beta, owner, q, power(q, f1))) <= \
            set(cluster_of(beta, owner, q, power(q, f2)))

    # Fallback: every algorithm returns a nonempty cluster.
    for _ in range(1000):
        m = int(gen.integers(4, 13))
        beta = gen.lognormal(size=m)
        q = int(gen.integers(1, 4))
        owner = random_cpu_map(m, q, gen)
        for params in (
            ClusteringParams(algorithm="lsf_threshold", n_cpu=q,
                             lsf_threshold=float(beta.max()) * 10.0,
                             threshold_mode="raw_linear"),
            ClusteringParams(algorithm="power_fraction", n_cpu=q,
                             power_fraction=1e-9),
            ClusteringParams(algorithm="fixed_aps", n_cpu=q, n_ap=1),
            ClusteringParams(algorithm="legacy_largest_lsf",
                             legacy_cluster_size=1),
        ):
            ok &= len(cluster_of(beta, owner, q, params)) >= 1

    # Tie determinism: heavily quantized inputs, repeated runs, lowest index.
    for _ in range(1000):
        m = int(gen.integers(4, 13))
        beta = np.round(gen.lognormal(size=m), 1) + 0.1
        q = int(gen.integers(1, 4))
        owner = random_cpu_map(m, q, gen)
        params = fixed(q, int(gen.integers(1, m + 1)))
        first = cluster_of(beta, owner, q, params)
        ok &= first == cluster_of(beta, owner, q, params)
        top = cluster_of(beta, owner, q, legacy(1))
        ok &= top[0] == int(np.flatnonzero(beta == beta.max())[0])
    _report(7, "clustering structural properties", ok)


def test_criterion_8_parallel_determinism(tmp_path):
    config = _desk_config(
        scenario=ScenarioConfig(num_aps=20, num_users=5, num_antennas=2),
        clustering=ClusteringParams(algorithm="legacy_largest_lsf",
                                    legacy_cluster_size=6),
        num_drops=16,
        base_seed=42,
    )
    serial = run_experiment(config, jobs=1)
    parallel = run_experiment(config, jobs=8)
    csv1, _ = emit_results(serial, tmp_path / "serial")
    csv8, _ = emit_results(parallel, tmp_path / "parallel")
    ok = csv1.read_bytes() == csv8.read_bytes()
    _report(8, "serial vs 8-way parallel determinism", ok)
