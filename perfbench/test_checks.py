"""Each correctness check of the benchmark rejects a corrupted result.

    python3 -m pytest perfbench -q

from the root of a checkout. Every test first shows that the check passes
on the program's own output, then that it fails once one thing is wrong.
"""

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cfmimo.spectral_efficiency import mc_oracle  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def _small_config(mode="mixed"):
    config = replace(workloads.oracle_config((12, 4, 4, 2), 7, 20_000),
                     transmission_mode=mode)
    index = next(d for d in range(100)
                 if workloads.pools_nonempty(config.scenario, config.base_seed, d))
    return config, index


@pytest.fixture(scope="module")
def drop():
    """A small mixed-mode drop with a user served by several groups."""
    config, index = _small_config()
    result, seen = workloads._rerun(config, index)
    serving = seen["clustering.build_serving_structure"][-1]
    user = next(k for k, g in enumerate(serving.groups) if len(g) >= 2)
    return config, result, seen, user


def _with(seen, key, value):
    out = dict(seen)
    out[key] = [value]
    return out


def test_checks_pass_on_program_output(drop):
    config, result, seen, _ = drop
    assert reference.check_drop(seen, result, config) == []


def test_rate_scaled_by_one_part_per_million_is_rejected(drop):
    config, result, seen, user = drop
    rates = list(result.user_rate)
    rates[user] *= 1.0 + 1e-6
    corrupted = SimpleNamespace(user_rate=tuple(rates), sum_rate=float(np.sum(rates)))
    assert reference.check_rates(corrupted.user_rate, corrupted.sum_rate) == []
    assert any("telescoped" in m
               for m in reference.check_drop(seen, corrupted, config))


def test_sum_rate_off_the_user_sum_is_rejected(drop):
    _, result, _, _ = drop
    assert reference.check_rates(result.user_rate, result.sum_rate * (1 + 1e-9))


def test_dropped_group_is_rejected(drop):
    config, result, seen, user = drop
    serving = seen["clustering.build_serving_structure"][-1]
    groups = list(serving.groups)
    groups[user] = groups[user][1:]
    corrupted = replace(serving, groups=tuple(groups))
    assert reference.check_partition(corrupted, seen["scenario.generate_deployment"][-1]
                                     .cpu_map, config.transmission_mode)
    assert reference.check_drop(
        _with(seen, "clustering.build_serving_structure", corrupted), result, config)


@pytest.mark.parametrize("keep_labels", [True, False])
def test_wrong_sic_order_is_rejected(drop, keep_labels):
    config, result, seen, user = drop
    terms = seen["spectral_efficiency.compute_terms"][-1]
    D = list(terms.D)
    order = list(terms.group_order)
    D[user] = D[user][::-1]
    if not keep_labels:
        order[user] = order[user][::-1]
    corrupted = replace(terms, D=tuple(D), group_order=tuple(order))
    assert reference.check_drop(
        _with(seen, "spectral_efficiency.compute_terms", corrupted), result, config)


def test_mixed_group_outside_its_cpu_pool_is_rejected(drop):
    config, _, seen, user = drop
    serving = seen["clustering.build_serving_structure"][-1]
    groups = list(serving.groups)
    (q0, a0), (q1, a1) = groups[user][:2]
    groups[user] = ((q0, a0 + a1),) + groups[user][2:]
    corrupted = replace(serving, groups=tuple(groups))
    assert reference.check_partition(
        corrupted, seen["scenario.generate_deployment"][-1].cpu_map, "mixed")


def test_non_hermitian_correlation_is_rejected(drop):
    _, _, seen, _ = drop
    stats = seen["channel.channel_stats"][-1]
    R = stats.R.copy()
    R[0, 0, 0, 1] *= 1.0 + 1e-6
    assert reference.check_correlation(replace(stats, R=R))


@pytest.fixture(scope="module")
def oracle_run(drop):
    config, _, seen, _ = drop
    terms = seen["spectral_efficiency.compute_terms"][-1]
    oracle = mc_oracle(seen["clustering.build_serving_structure"][-1],
                       seen["channel.channel_stats"][-1],
                       seen["pilots.assign_pilots"][-1], config.powers,
                       config.frame, 20_000, np.random.default_rng(5), terms=terms)
    return terms, oracle, seen["channel.channel_stats"][-1].noise_power


def test_oracle_term_moved_by_five_standard_errors_is_rejected(oracle_run):
    terms, oracle, noise = oracle_run
    shares, untestable = reference.oracle_deviations(terms, oracle, noise)
    assert max(shares.values()) <= 1.0 and untestable == []
    # A term whose tolerance is set by its standard error, not by the 2 % floor.
    k = next(k for k in range(len(terms.E))
             if 3.0 * oracle.F_se[k] >= 0.02 * abs(terms.F[k]))
    F = oracle.F.copy()
    F[k] += 5.0 * oracle.F_se[k] * (1.0 if F[k] >= terms.F[k] else -1.0)
    moved, _ = reference.oracle_deviations(terms, replace(oracle, F=F), noise)
    assert moved[f"user {k} F"] > 1.0


def test_sinr_of_a_clipped_group_is_listed_not_compared(oracle_run):
    terms, oracle, noise = oracle_run
    D = [d.copy() for d in oracle.D]
    sinr_se = [s.copy() for s in oracle.sinr_se]
    D[0][0] = 0.0
    sinr_se[0][0] = np.nan
    shares, untestable = reference.oracle_deviations(
        terms, replace(oracle, D=tuple(D), sinr_se=tuple(sinr_se)), noise)
    assert untestable == ["user 0 SINR[0]"] and "user 0 SINR[0]" not in shares


@pytest.mark.parametrize("field", ["E_se", "F_se", "D_se", "sinr_se"])
def test_other_nan_oracle_error_is_rejected(oracle_run, field):
    terms, oracle, noise = oracle_run
    values = getattr(oracle, field)
    if field in ("E_se", "F_se"):
        corrupted = values.copy()
        corrupted[0] = np.nan
    else:   # per-group lists; the group's oracle D stays non-zero
        corrupted = [v.copy() for v in values]
        corrupted[0][0] = np.nan
        corrupted = tuple(corrupted)
    shares, untestable = reference.oracle_deviations(
        terms, replace(oracle, **{field: corrupted}), noise)
    assert untestable == [] and max(shares.values()) == np.inf


def test_closed_form_error_survives_the_confirming_estimate(oracle_run, tmp_path,
                                                            monkeypatch):
    config, index = _small_config()
    terms, oracle, noise = oracle_run
    monkeypatch.setattr(workloads, "ORACLE_SAMPLES", oracle.num_samples)
    monkeypatch.setattr(workloads, "CONFIRM_SAMPLES", 40_000)
    wrong = replace(terms, E=terms.E * 1.1)
    outcome = workloads.Outcome(records=[(config, index, wrong, oracle, noise)])
    failures = workloads.OracleValidate(config.base_seed, tmp_path).check(outcome)
    assert any("and then" in m for m in failures)


def test_sweep_file_checks_reject_corrupted_files(tmp_path):
    sweep = workloads.SweepFig36(3, tmp_path)
    base_seed = sweep.base_seeds[1]
    assert sweep._call(base_seed, sweep.drops) == 0
    assert sweep._check_files(base_seed) == []

    path = sweep.out / "results.csv"
    rows = list(csv.reader(open(path, newline="", encoding="utf-8")))
    header = rows[0]
    col = header.index("user_rate_0")
    for row in rows[1:]:
        if row[header.index("transmission_mode")] == "mixed" \
                and row[header.index("clustering.n_cpu")] == "1":
            row[col] = repr(float(row[col]) * (1.0 + 1e-12))
            break
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert any("mixed rates differ" in m for m in sweep._check_files(base_seed))

    assert sweep._call(base_seed, sweep.drops) == 0
    doc = json.loads((sweep.out / "results.json").read_text(encoding="utf-8"))
    doc["results"][4]["mean_sum_rate"] *= 1.0 + 1e-9
    (sweep.out / "results.json").write_text(json.dumps(doc), encoding="utf-8")
    assert any("JSON mean" in m for m in sweep._check_files(base_seed))


def test_traced_run_reports_exactly_the_per_layer_metrics():
    import run
    from tracer import Tracer
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, _ = run.layer_metrics(Tracer(), workloads.Outcome(wall_s=1.0), 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}
