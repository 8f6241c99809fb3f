import concurrent.futures
import contextlib
import csv
import io
import json
import math
import re
import tempfile
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmimo import channel_stats, cli, harness
from cfmimo.cli import main
from cfmimo.clustering import ClusteringParams
from cfmimo.errors import ConfigurationError, NumericalError
from cfmimo.harness import (DropResult, ExperimentConfig, ExperimentResult,
                            OracleConfig, apply_sweep_point, config_from_dict,
                            config_to_dict, emit_results, load_config,
                            run_drop, run_experiment, run_oracle_check,
                            run_single, validation_config)
from cfmimo.pilots import PowerConfig
from cfmimo.scenario import ScenarioConfig, generate_deployment
from cfmimo.spectral_efficiency import FrameConfig, compute_terms, map_in_runs


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts of the process pools opened, each replaced by one
    that runs its tasks in this process."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def _tiny_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        scenario=ScenarioConfig(num_aps=12, num_users=4, num_antennas=2,
                                cpu_positions=((250.0, 0.0), (-250.0, 0.0))),
        clustering=ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=4),
        num_drops=3,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfigSerialization:
    def test_round_trip(self):
        config = _tiny_config(sweep={"clustering.n_ap": (2, 4)}, base_seed=7)
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_root_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"num_drops": 3, "dropz": 5})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"scenario": {"num_apps": 10}})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"num_aps": 8, "num_users": 2},
            "frame": {"tau_c": 100, "tau_p": 2},
            "num_drops": 2,
        }))
        config = load_config(path)
        assert config.scenario.num_aps == 8
        assert config.frame == FrameConfig(tau_c=100, tau_p=2)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(transmission_mode="broadcast")


class TestSweep:
    def test_apply_nested_parameter(self):
        config = _tiny_config()
        out = apply_sweep_point(config, {"clustering.n_ap": 2,
                                         "transmission_mode": "coherent"})
        assert out.clustering.n_ap == 2
        assert out.transmission_mode == "coherent"

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_sweep_point(_tiny_config(), {"clustering.n_apz": 2})
        with pytest.raises(ConfigurationError):
            apply_sweep_point(_tiny_config(), {"a.b.c": 2})

    def test_point_values_apply_together(self):
        # tau_c = 8 is invalid next to the default tau_p = 10 and valid next
        # to tau_p = 4: the point's values apply at once, in either order.
        config = _tiny_config()
        for point in ({"frame.tau_c": 8, "frame.tau_p": 4},
                      {"frame.tau_p": 4, "frame.tau_c": 8}):
            out = apply_sweep_point(config, {**point, "transmission_mode": "coherent"})
            assert out.frame == FrameConfig(tau_c=8, tau_p=4)
            assert out.sweep is None and out.transmission_mode == "coherent"
            # Sections that the point does not touch stay the same objects.
            for name in ("scenario", "large_scale", "powers", "clustering", "oracle"):
                assert getattr(out, name) is getattr(config, name)
        with pytest.raises(ConfigurationError, match="1 <= tau_p < tau_c"):
            apply_sweep_point(config, {"frame.tau_c": 8, "frame.tau_p": 8})

    def test_axis_order_does_not_change_the_rows(self, tmp_path, capsys):
        outs = []
        for name, sweep in (("c_first", {"frame.tau_c": [8], "frame.tau_p": [4]}),
                            ("p_first", {"frame.tau_p": [4], "frame.tau_c": [8]}),
                            ("invalid", {"frame.tau_c": [8], "frame.tau_p": [8]})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"scenario": {"num_aps": 8, "num_users": 2},
                                        "sweep": sweep}))
            outs.append(tmp_path / name)
            code = main(["sweep", "--config", str(path), "--drops", "1",
                         "--out", str(outs[-1])])
            assert code == (1 if name == "invalid" else 0)
        assert "frame requires 1 <= tau_p < tau_c" in capsys.readouterr().err
        assert ((outs[0] / "results.csv").read_bytes()
                == (outs[1] / "results.csv").read_bytes())

    def test_echoes_share_unchanged_sections(self):
        config = _tiny_config(num_drops=1, sweep={
            "clustering.n_ap": (2, 4), "transmission_mode": ("mixed", "coherent")})
        results = run_experiment(config)
        for point, result in results:
            assert result.config == config_to_dict(apply_sweep_point(config, point))
        first, second = results[0][1].config, results[1][1].config
        assert first["scenario"] is second["scenario"]
        assert first["clustering"] == second["clustering"]

    def test_grid_size(self):
        config = _tiny_config(num_drops=1, sweep={
            "clustering.n_ap": (2, 4), "transmission_mode": ("mixed",
                                                             "coherent")})
        results = run_experiment(config)
        assert len(results) == 4
        points = [p for p, _ in results]
        assert {"clustering.n_ap", "transmission_mode"} == set(points[0])

    def test_summaries_equal_per_point_reference(self):
        # Points with 1, 3 and 200 drops, two of each: each drop count's
        # points are summarised as one array, and every summary equals the
        # one of the point's sum rates alone, bit for bit. 200 drops take
        # numpy's pairwise summation past its first block.
        config = _tiny_config(sweep={"num_drops": (1, 3, 200),
                                     "transmission_mode": ("mixed", "coherent")})
        results = run_experiment(config)
        assert [len(res.drops) for _, res in results] == [1, 1, 3, 3, 200, 200]
        for _, res in results:
            sums = np.array([d.sum_rate for d in res.drops])
            assert res.cdf_values == tuple(float(v) for v in np.sort(sums))
            assert res.cdf_probs == tuple(
                float(p) for p in np.arange(1, sums.size + 1) / sums.size)
            assert res.mean_sum_rate == float(np.mean(sums))
            quantiles = (5, 25, 50, 75, 95)
            assert res.percentiles == {f"p{q}": float(v) for q, v in zip(
                quantiles, np.percentile(sums, quantiles))}

    def test_fan_out_matches_run_drop(self):
        # Upstream axes (pilot power, AP count, CPU positions given as JSON
        # lists, base seed), downstream axes and a num_drops axis: every
        # (point, drop) of the drop-major run is the drop run on its own.
        config = config_from_dict({
            "scenario": {"num_aps": 12, "num_users": 4, "num_antennas": 2,
                         "cpu_positions": [[250.0, 0.0], [-250.0, 0.0]]},
            "clustering": {"algorithm": "fixed_aps", "n_cpu": 2, "n_ap": 4},
            "sweep": {
                "powers.pilot_power": [0.2, 0.05],
                "scenario.num_aps": [10, 12],
                "scenario.cpu_positions": [[[250.0, 0.0], [-250.0, 0.0]],
                                           [[0.0, 250.0], [0.0, -250.0]]],
                "base_seed": [0, 5],
                "num_drops": [1, 3],
                "transmission_mode": ["mixed", "non_coherent"],
                "clustering.n_ap": [2, 4],
            },
        })
        results = run_experiment(config)
        assert len(results) == 2 ** 7
        for point, result in results:
            single = apply_sweep_point(config, point)
            assert result.drops == tuple(run_drop(single, d)
                                         for d in range(single.num_drops))

    def test_channel_stats_once_per_upstream_key(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return channel_stats(*args, **kwargs)

        monkeypatch.setattr(harness, "channel_stats", counting)
        run_experiment(replace(cli._preset("fig3-6"), num_drops=2))
        assert len(calls) == 2            # 27 points share each drop's
        calls.clear()
        run_experiment(_tiny_config(num_drops=3, sweep={
            "powers.pilot_power": (0.2, 0.1),
            "transmission_mode": ("mixed", "coherent")}))
        assert len(calls) == 3 * 2        # once per (drop, pilot power)
        calls.clear()
        # Positions given as JSON lists hash once stored: the two equal
        # values of this axis share each drop's statistics.
        a, b = [[250.0, 0.0], [-250.0, 0.0]], [[0.0, 250.0], [0.0, -250.0]]
        run_experiment(config_from_dict({
            **config_to_dict(_tiny_config(num_drops=2)),
            "sweep": {"scenario.cpu_positions": [a, b, a],
                      "transmission_mode": ["mixed", "coherent"]}}))
        assert len(calls) == 2 * 2        # once per (drop, distinct positions)

    def test_parallel_sweep_matches_serial(self):
        config = _tiny_config(num_drops=4, sweep={
            "powers.pilot_power": (0.2, 0.1),
            "transmission_mode": ("mixed", "coherent")})
        assert run_experiment(config, jobs=2) == run_experiment(config, jobs=1)


class TestStacks:
    """The points of a drop that share its upstream, powers and frame run
    as one stack; every row is still that of the point run on its own."""

    def test_fig3_6_rows_are_single_drops(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return compute_terms(*args, **kwargs)

        monkeypatch.setattr(harness, "compute_terms", counting)
        outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["fig3-6", "--drops", "2", "--jobs", str(jobs),
                             "--out", str(out)]) == 0
        assert len(calls) == 2                # one stack of 27 points per drop
        assert ((outs[0] / "fig3-6.csv").read_bytes()
                == (outs[1] / "fig3-6.csv").read_bytes())
        with open(outs[0] / "fig3-6.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 27 * 2
        base = replace(cli._preset("fig3-6"), num_drops=2)
        by_point = {}
        for row in rows:
            point = {"transmission_mode": row["transmission_mode"],
                     "clustering.algorithm": row["clustering.algorithm"],
                     "clustering.n_cpu": int(row["clustering.n_cpu"])}
            single = run_drop(apply_sweep_point(base, point), int(row["drop"]))
            want = [repr(r) for r in single.user_rate] + [repr(single.sum_rate)]
            got = [row[f"user_rate_{k}"] for k in range(10)] + [row["sum_rate"]]
            assert got == want and row["seed"] == str(single.seed)
            by_point[tuple(point.values()) + (row["drop"],)] = got[:-1]
        for algorithm in ("power_fraction", "fixed_aps", "lsf_threshold"):
            for drop in ("0", "1"):
                assert (by_point["mixed", algorithm, 1, drop]
                        == by_point["coherent", algorithm, 1, drop])

    def test_stack_size_does_not_change_the_rows(self, monkeypatch):
        config = replace(cli._preset("fig1"), num_drops=2)
        whole = run_experiment(config)
        # M = 40 and K = 10: stacks of two points, then one.
        monkeypatch.setattr(harness, "STACK_ENTRIES", 2 * 40 * 10 * 10)
        assert harness._stacks([config] * 3, 40 * 10 * 10) == [[0, 1], [2]]
        assert run_experiment(config) == whole

    def test_budget_rescales_per_point(self):
        # A per-AP budget that binds: each point's rescale is its own.
        config = _tiny_config(
            powers=PowerConfig(ap_power_budget=0.25, power_budget_mode="rescale"),
            sweep={"clustering.n_ap": [2, 6], "transmission_mode": ["mixed",
                                                                   "coherent"]})
        for point, result in run_experiment(config):
            single = apply_sweep_point(config, point)
            assert result.drops == tuple(run_drop(single, d)
                                         for d in range(single.num_drops))

    def test_configuration_error_names_the_point(self, tmp_path, capsys):
        # Both points share the drop's upstream key and one stack.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"num_aps": 40, "num_users": 10}, "num_drops": 1,
            "clustering": {"algorithm": "fixed_aps"},
            "sweep": {"clustering.n_cpu": [2, 9]}}))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert ("sweep point clustering.n_cpu=9, drop 0: n_cpu exceeds"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_error_names_the_point_and_its_user(self, tmp_path, capsys):
        # At a pilot power of 1e-300 clusters of one AP give finite rates
        # and clusters of two do not. The failing user is virtual user
        # 10 + k of the stack and user k of its point.
        doc = {"scenario": {"num_aps": 40, "num_users": 10}, "num_drops": 1,
               "powers": {"pilot_power": 1e-300}}
        alone = config_from_dict(dict(doc, clustering={"legacy_cluster_size": 2}))
        with pytest.raises(NumericalError) as single:
            run_drop(alone, 0)
        assert run_drop(replace(alone, clustering=ClusteringParams(
            legacy_cluster_size=1)), 0).sum_rate >= 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(
            doc, sweep={"clustering.legacy_cluster_size": [1, 2]})))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        message = f"sweep point clustering.legacy_cluster_size=2, {single.value}"
        assert re.search(r"drop 0: user \d has rate nan", message)
        assert message in capsys.readouterr().err


class TestRunDrop:
    def test_deterministic(self):
        config = _tiny_config()
        assert run_drop(config, 1) == run_drop(config, 1)

    def test_distinct_drops_differ(self):
        config = _tiny_config()
        assert run_drop(config, 0) != run_drop(config, 1)

    def test_single_cpu_mixed_equals_coherent(self):
        base = _tiny_config(
            scenario=ScenarioConfig(num_aps=12, num_users=4, num_antennas=2,
                                    cpu_positions=((0.0, 0.0),)),
            clustering=ClusteringParams(algorithm="fixed_aps", n_cpu=1, n_ap=4))
        mixed = run_drop(replace(base, transmission_mode="mixed"), 0)
        coherent = run_drop(replace(base, transmission_mode="coherent"), 0)
        assert mixed.user_rate == coherent.user_rate

    def test_singleton_clusters_mixed_equals_non_coherent(self):
        base = _tiny_config(
            clustering=ClusteringParams(algorithm="fixed_aps", n_cpu=2, n_ap=1))
        mixed = run_drop(replace(base, transmission_mode="mixed"), 0)
        nc = run_drop(replace(base, transmission_mode="non_coherent"), 0)
        assert mixed.user_rate == nc.user_rate

    @pytest.mark.parametrize("algorithm",
                             ["lsf_threshold", "fixed_aps", "power_fraction"])
    def test_n_cpu_above_cpu_count_rejected(self, tmp_path, algorithm):
        # One AP between two CPUs: the CPU without APs still counts, so
        # n_cpu = 2 runs and n_cpu = 3 is rejected; legacy ignores n_cpu.
        base = _tiny_config(
            scenario=ScenarioConfig(num_aps=1, num_users=2, num_antennas=2,
                                    cpu_positions=((250.0, 0.0), (-250.0, 0.0))),
            clustering=ClusteringParams(algorithm=algorithm, n_cpu=2),
            num_drops=1)
        assert run_drop(base, 0).sum_rate >= 0
        over = replace(base, clustering=replace(base.clustering, n_cpu=3))
        with pytest.raises(ConfigurationError, match="drop 0: n_cpu exceeds"):
            run_drop(over, 0)
        legacy = replace(over.clustering, algorithm="legacy_largest_lsf")
        assert run_drop(replace(over, clustering=legacy), 0).sum_rate >= 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(over)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_result_shapes(self):
        drop = run_drop(_tiny_config(), 2)
        assert len(drop.user_rate) == 4
        assert drop.sum_rate == pytest.approx(sum(drop.user_rate))

    def test_cpu_without_aps_is_skipped(self):
        # Six APs among four CPUs: some drops leave a CPU without APs.
        config = _tiny_config(
            scenario=ScenarioConfig(num_aps=6, num_users=4, num_antennas=2),
            clustering=ClusteringParams(algorithm="fixed_aps", n_cpu=4, n_ap=3),
            num_drops=6)
        drops = run_single(config).drops
        assert not all(all(generate_deployment(
            replace(config.scenario, seed=d.seed)).cpu_map) for d in drops)
        assert all(d.sum_rate >= 0 for d in drops)


class TestRunSingle:
    def test_single_drop_cdf_is_step(self):
        res = run_single(_tiny_config(num_drops=1))
        assert res.cdf_values == (res.drops[0].sum_rate,)
        assert res.cdf_probs == (1.0,)

    def test_cdf_monotone_ends_at_one(self):
        res = run_single(_tiny_config(num_drops=6))
        assert np.all(np.diff(res.cdf_values) >= 0)
        assert np.all(np.diff(res.cdf_probs) > 0)
        assert res.cdf_probs[-1] == 1.0

    def test_parallel_matches_serial(self):
        config = _tiny_config(num_drops=6)
        assert run_single(config, jobs=1) == run_single(config, jobs=2)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            run_single(_tiny_config(), jobs)
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            run_experiment(_tiny_config(sweep={"clustering.n_ap": (2, 4)}), jobs)

    @pytest.mark.parametrize("jobs, sweep, workers", [
        (8, None, [3]),                                   # one per drop
        (2, None, [2]),
        (2, {"clustering.n_ap": (2, 4), "powers.pilot_power": (0.2, 0.1)},
         [2]),                                            # one per experiment
        (1, None, []),
    ])
    def test_pool_size(self, pool_sizes, jobs, sweep, workers):
        config = _tiny_config(sweep=sweep)
        run_experiment(config, jobs)
        assert pool_sizes == workers

    def test_percentiles_present(self):
        res = run_single(_tiny_config(num_drops=5))
        assert set(res.percentiles) == {"p5", "p25", "p50", "p75", "p95"}


class TestOracleCheck:
    def test_oracle_draws_nothing_from_its_seed_stream(self, monkeypatch):
        # run_oracle_check seeds the oracle's generator with the seed
        # sequence of the drop's shadowing stream, so both begin with the
        # same draws. The streams stay apart because mc_oracle draws only
        # from the generators that it spawns: its own state is untouched.
        config = replace(validation_config(8, 3, 2, 2),
                         oracle=OracleConfig(num_samples=1_500))
        seen = []
        oracle = harness.mc_oracle

        def recording(serving, stats, assignment, powers, frame, num_samples,
                      rng, **kwargs):
            before = rng.bit_generator.state
            result = oracle(serving, stats, assignment, powers, frame,
                            num_samples, rng, **kwargs)
            seen.append((rng, before))
            return result

        monkeypatch.setattr(harness, "mc_oracle", recording)
        run_oracle_check(config)
        (rng, before), = seen
        assert rng.bit_generator.state == before
        _, shadow, _ = harness._drop_streams(config.base_seed, 0)
        np.testing.assert_array_equal(rng.random(3), shadow.random(3))


class TestMapInRuns:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    @pytest.mark.parametrize("num_items", range(1, 10))
    def test_results_in_item_order(self, pool_sizes, jobs, num_items):
        # Every result comes back once, in item order, from runs of
        # consecutive items over at most min(jobs, items) workers; at one
        # worker, from one run of all items.
        runs = []

        def squares(run):
            runs.append(run)
            return [x * x for x in run]

        items = list(range(num_items))
        assert list(map_in_runs(squares, items, jobs)) == [x * x for x in items]
        assert [x for run in runs for x in run] == items
        workers = min(jobs, num_items)
        assert pool_sizes == ([workers] if workers > 1 else [])
        assert len(runs) <= 4 * workers
        assert workers > 1 or runs == [items]
        runs.clear()
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            list(map_in_runs(squares, items, 0))
        assert runs == []


class TestEmitResults:
    def test_csv_row_count_and_header(self, tmp_path):
        config = _tiny_config(num_drops=2, sweep={"clustering.n_ap": (2, 4)})
        results = run_experiment(config)
        csv_path, json_path = emit_results(results, tmp_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2
        assert rows[0][:3] == ["clustering.n_ap", "drop", "seed"]
        assert rows[0][-1] == "sum_rate"

    def test_csv_values_round_trip(self, tmp_path):
        results = run_experiment(_tiny_config(num_drops=2))
        csv_path, _ = emit_results(results, tmp_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, drop in zip(rows, results[0][1].drops):
            assert float(row["sum_rate"]) == drop.sum_rate

    def test_csv_writes_each_rate_as_its_repr(self, tmp_path):
        rates = [0.1 + 0.2, 1e16, 5e-324, 1.7976931348623157e308, -0.0, 1 / 3,
                 math.nan, math.inf]
        drop = DropResult(drop_index=0, seed=7, user_rate=array("d", rates),
                          sum_rate=1 / 3)
        result = ExperimentResult(drops=(drop,), cdf_values=(1 / 3,),
                                  cdf_probs=(1.0,), mean_sum_rate=1 / 3,
                                  percentiles={}, config={})
        csv_path, _ = emit_results([({}, result)], tmp_path)
        row = csv_path.read_text(encoding="utf-8").splitlines()[1]
        assert row == ",".join(["0", "7", *map(repr, rates), repr(1 / 3)])

    def test_json_sidecar_summaries(self, tmp_path):
        results = run_experiment(_tiny_config(num_drops=3))
        _, json_path = emit_results(results, tmp_path)
        doc = json.loads(json_path.read_text())
        entry = doc["results"][0]
        res = results[0][1]
        assert entry["mean_sum_rate"] == res.mean_sum_rate
        assert entry["percentiles"] == res.percentiles
        assert entry["cdf"]["values"] == list(res.cdf_values)
        probs = entry["cdf"]["probs"]
        assert probs == sorted(probs)


_json_texts = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "\U0001f600"])))
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _json_texts,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7e308]))
_json_docs = st.recursive(_json_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_json_texts, children, max_size=4)), max_leaves=10)


class TestJsonText:
    """results.json is written as json.dumps(doc, indent=2) writes it."""

    @given(doc=_json_docs, shared=st.dictionaries(_json_texts, _json_docs,
                                                   max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_equals_json_dumps(self, doc, shared):
        # shared sits at depths 1 and 3, and twice at depth 2.
        nested = {"doc": doc, "shared": shared,
                  "list": [shared, shared, {"again": shared}], "tuple": (doc,)}
        for value in (doc, shared, nested):
            assert harness._json_text(value) == json.dumps(value, indent=2)

    def test_non_string_keys(self):
        # A results document has str keys only; a dict with nested
        # containers rejects any other key.
        for key in (1, 1.5, True, None, math.nan, -0.0, (1, 2)):
            with pytest.raises(TypeError, match="keys must be str"):
                harness._json_text({"a": {key: [3]}})

    @pytest.mark.parametrize("drops", [2, 200])
    def test_fig3_6_document(self, tmp_path, monkeypatch, drops):
        docs = []

        def capturing(doc):
            docs.append(doc)
            return json_text(doc)

        json_text = harness._json_text
        monkeypatch.setattr(harness, "_json_text", capturing)
        results = run_experiment(replace(cli._preset("fig3-6"), num_drops=drops))
        _, json_path = emit_results(results, tmp_path, stem="fig3-6")
        assert (json_path.read_text(encoding="utf-8")
                == json.dumps(docs[0], indent=2) + "\n")
        # The 27 echoes share the sections that the grid leaves alone.
        configs = [entry["config"] for entry in docs[0]["results"]]
        assert all(c["scenario"] is configs[0]["scenario"] for c in configs)


_numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -1.0, 1e-300, 1e300, 1e308]))
_extreme_configs = st.fixed_dictionaries({
    "num_drops": st.just(1),
    "scenario": st.fixed_dictionaries(
        {"num_aps": st.integers(1, 12), "num_users": st.integers(1, 4),
         "num_antennas": st.integers(1, 3)},
        optional={"area_side": _numbers,
                  "seed": st.just(0) | st.integers(-1, 2**64)}),
}, optional={
    "base_seed": st.integers(-1, 2**64),
    "transmission_mode": st.sampled_from(["coherent", "mixed", "non_coherent"]),
    "powers": st.fixed_dictionaries({}, optional={
        "pilot_power": _numbers, "data_power": _numbers,
        "ap_power_budget": st.none() | _numbers,
        "power_budget_mode": st.sampled_from(["ignore", "rescale", "error"])}),
    "large_scale": st.fixed_dictionaries({}, optional={
        "shadow_std_db": _numbers, "decorrelation_distance": _numbers,
        "asd_deg": _numbers, "antenna_spacing": _numbers,
        "bandwidth_hz": _numbers, "noise_figure_db": _numbers}),
    "clustering": st.fixed_dictionaries(
        {"algorithm": st.sampled_from(["legacy_largest_lsf", "lsf_threshold",
                                       "fixed_aps", "power_fraction"])},
        optional={"n_cpu": st.integers(0, 5), "n_ap": st.integers(0, 13),
                  "lsf_threshold": _numbers, "power_fraction": _numbers,
                  "legacy_cluster_size": st.integers(0, 13)}),
    "frame": st.fixed_dictionaries({}, optional={
        "tau_c": st.integers(0, 300), "tau_p": st.integers(0, 12)}),
})


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        code = main(["run", "--drops", "2", "--out", str(tmp_path),
                     "--seed", "3"])
        assert code == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "results.json").exists()
        assert "mean sum rate" in capsys.readouterr().out

    def test_run_with_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"num_aps": 10, "num_users": 3},
            "num_drops": 2,
        }))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_dropz": 2}))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [
        {"scenario": {"num_aps": 40.0}},
        {"clustering": {"n_cpu": "2"}},
        {"powers": {"data_power": float("nan")}},
        {"sweep": {"clustering.n_cpu": ["2"]}},
        {"sweep": {"clustering.n_cpu": []}},
        {"sweep": {"powers": [{"pilot_power": 0.1}]}},
        {"sweep": {"large_scale.path_loss": [{"d0": 5.0}]}},
        {"sweep": {"oracle": [1]}},
        {"sweep": {"sweep": [1]}},
    ])
    def test_mistyped_value_exit_code(self, tmp_path, capsys, section):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_drops": 2, **section}))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("section, flags", [
        ({"base_seed": -1}, []),
        ({}, ["--seed", "-1"]),
        ({"scenario": {"seed": -1}}, []),
        ({"large_scale": {"noise_figure_db": 4000}}, []),
        ({"large_scale": {"decorrelation_distance": 0.0}}, []),
        ({"large_scale": {"decorrelation_distance": -5.0}}, []),
    ], ids=["base_seed", "seed_flag", "scenario_seed", "noise_figure_db",
            "zero_decorrelation_distance", "negative_decorrelation_distance"])
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, section, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_drops": 1, **section}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path),
                     *flags]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("area_side", [1e90, 1e150, 1e200, 1e300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_area_side_exit_code(self, tmp_path, capsys, command,
                                             area_side):
        # The path loss of such a square underflows its large-scale fading
        # (1e90, 1e150), or its squared wrap-around distances overflow
        # (1e200, 1e300): a configuration error that names the field, not a
        # floating-point warning and a numerical failure.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_drops": 1,
                                    "scenario": {"area_side": area_side}}))
        out = ["--out", str(tmp_path)] if command == "run" else []
        assert main([command, "--config", str(path), *out]) == 1
        assert "configuration error: area_side" in capsys.readouterr().err

    def test_nonzero_scenario_seed_exit_code(self, tmp_path, capsys):
        # Every drop derives its deployment seed from base_seed, so a
        # scenario seed would be ignored.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_drops": 1,
                                    "scenario": {"seed": 12345}}))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert "set base_seed instead" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("powers, message", [
        # E{||H_hat||^2} = 0 leaves MR precoding undefined.
        ({"pilot_power": 0.0}, "drop 0: serving link (AP"),
        # Overflowing powers give NaN rates.
        ({"data_power": 1e308}, "drop 0: user"),
    ], ids=["zero_pilot_power", "overflowing_data_power"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path, capsys, powers, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_drops": 1, "powers": powers}))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_sweep_failure_names_point_and_drop(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"num_aps": 10, "num_users": 3}, "num_drops": 2,
            "sweep": {"powers.pilot_power": [0.2, 0.0]}}))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert ("sweep point powers.pilot_power=0.0, drop 0: serving link (AP"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_code(self, tmp_path, capsys, jobs):
        assert main(["run", "--drops", "1", "--jobs", jobs,
                     "--out", str(tmp_path)]) == 1
        assert "configuration error: jobs must be >= 1" in capsys.readouterr().err

    def test_validate_jobs_below_one_exit_code(self, capsys):
        assert main(["validate", "--samples", "1000", "--jobs", "0"]) == 1
        assert "configuration error: jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--bogus"],
        ["run", "--jobs", "abc"],
        ["fig1", "--drops", "1.5"],
        ["fig1", "--config", "x.json"],
        ["validate", "--drops", "5"],
        ["validate", "--jobs", "abc"],
        ["validate", "--out", "DIR"],
        ["validate", "--samples", "1000", "--drops", "5", "--jobs", "2",
         "--out", "DIR"],
    ])
    def test_usage_error_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: cfmimo" in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--help"])
        assert exc.value.code == 0
        assert "--samples" in capsys.readouterr().out

    @given(doc=_extreme_configs)
    @settings(max_examples=30, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_code_contract(self, doc):
        # Any JSON config exits 0, 1 or 2; on 0 every rate is finite and >= 0.
        with tempfile.TemporaryDirectory() as out:
            path = Path(out) / "config.json"
            path.write_text(json.dumps(doc, allow_nan=False))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["run", "--config", str(path), "--out", out])
            assert code in (0, 1, 2)
            if code == 0:
                with open(Path(out) / "results.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                rates = [float(v) for row in rows for key, v in row.items()
                         if "rate" in key and v]
                assert rates and all(np.isfinite(rates)) and min(rates) >= 0.0

    @pytest.mark.parametrize("use_config, flags, expected", [
        (True, [], (3, 777)),
        (True, ["--seed", "5", "--samples", "123"], (5, 123)),
        (False, [], (0, 100_000)),
        (False, ["--seed", "5", "--samples", "123"], (5, 123)),
    ])
    def test_validate_applies_seed_and_samples(self, tmp_path, monkeypatch,
                                               use_config, flags, expected):
        seen = []

        def first_check_only(config, drop_index=0, jobs=1):
            seen.append((config.base_seed, config.oracle.num_samples))
            raise ConfigurationError("checked the first config")

        monkeypatch.setattr(cli, "run_oracle_check", first_check_only)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"base_seed": 3,
                                    "oracle": {"num_samples": 777}}))
        config = ["--config", str(path)] if use_config else []
        assert main(["validate", *config, *flags]) == 1
        assert seen == [expected]

    def test_validate_opens_one_pool(self, pool_sizes, capsys):
        # Each of two instances of three oracle blocks opens one pool of two
        # workers, and together they print what a serial run prints.
        assert main(["validate", "--samples", "2500", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["validate", "--samples", "2500", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert pool_sizes == [2, 2]

    def test_validate_rejects_sweep_section(self, tmp_path, capsys):
        # validate checks one config, so a sweep section would go unchecked.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"num_aps": 8, "num_users": 3},
            "clustering": {"algorithm": "fixed_aps", "n_ap": 4, "n_cpu": 2},
            "sweep": {"transmission_mode": ["coherent", "non_coherent"]}}))
        assert main(["validate", "--config", str(path),
                     "--samples", "2000"]) == 1
        captured = capsys.readouterr()
        assert "configuration error: validate checks one config" in captured.err
        assert "validation passed" not in captured.out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_validate_rate_failure_names_drop(self, tmp_path, monkeypatch,
                                              capsys):
        # The closed-form rates are checked, inside the drop's naming,
        # before any oracle sample is drawn.
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(harness, "mc_oracle", no_oracle)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"num_aps": 8, "num_users": 3},
            "large_scale": {"path_loss": {"d0": 1e-300, "d1": 1e300}}}))
        assert main(["validate", "--config", str(path),
                     "--samples", "100"]) == 2
        assert "error: drop 0: user" in capsys.readouterr().err

    def test_validate_compares_sinr(self, capsys):
        main(["validate", "--samples", "2000"])
        out = capsys.readouterr().out
        assert "user 0 SINR[0]: closed" in out
        assert "worst deviation: " in out

    @pytest.mark.parametrize("skew, code", [(1.0, 0), (1.5, 2)])
    def test_validate_worst_deviation_is_share_of_tolerance(
            self, monkeypatch, capsys, skew, code):
        # The printed worst deviation is on the scale of the pass rule: a
        # term passes iff its share of max(2 %, 3 SE) is at most 1.
        def skewed_check(*args, **kwargs):
            terms, oracle, noise = run_oracle_check(*args, **kwargs)
            return terms, replace(oracle, E=oracle.E * skew), noise

        monkeypatch.setattr(cli, "run_oracle_check", skewed_check)
        assert main(["validate", "--samples", "3000"]) == code
        worst = float(re.search(r"worst deviation: (\S+) of its tolerance",
                                capsys.readouterr().out).group(1))
        assert (worst > 1.0) == (code == 2)

    def test_sweep_requires_sweep_section(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_drops": 1}))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path)]) == 1

    def test_sweep_runs_grid(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"num_aps": 10, "num_users": 3},
            "num_drops": 1,
            "sweep": {"transmission_mode": ["mixed", "coherent"]},
        }))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 3
