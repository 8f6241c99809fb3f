"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed, runs one untimed
warm-up unit, then repeats whole operations until the timed section has
lasted the requested time, and finally checks what the program returned.
An operation is one drop evaluation: one `harness.run_drop` call
(`drop_default`), one `results.csv` row of a `cli.main` sweep
(`sweep_fig3_6`), or one drop checked against its Monte Carlo oracle
(`oracle_validate`).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from cfmimo import cli, harness
from cfmimo.clustering import ClusteringParams
from cfmimo.errors import CfMimoError
from cfmimo.scenario import ScenarioConfig, generate_deployment
from cfmimo.spectral_efficiency import FrameConfig, mc_oracle

import reference
from tracer import capturing

STAGES = (("scenario", "generate_deployment"), ("channel", "channel_stats"),
          ("pilots", "assign_pilots"),
          ("clustering", "build_serving_structure"),
          ("spectral_efficiency", "compute_terms"))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0                 # length of the timed section
    op_times_s: list = field(default_factory=list)   # per drop evaluation
    samples: int = 0                    # oracle channel realisations
    records: list = field(default_factory=list)      # kept for the checks


def deployment_seed(base_seed: int, drop_index: int) -> int:
    """Deployment seed of a drop, derived as the harness documents it:
    SeedSequence(base_seed, spawn_key=(drop_index,)), first spawned child."""
    root = np.random.SeedSequence(base_seed, spawn_key=(drop_index,))
    return int(root.spawn(3)[0].generate_state(1, np.uint64)[0])


def pools_nonempty(scenario: ScenarioConfig, base_seed: int, drop_index: int) -> bool:
    """False when a CPU would control no AP in this drop's deployment.

    The multi-CPU clustering algorithms abort on such a drop, so the
    workloads leave these inputs out (see the README).
    """
    deployment = generate_deployment(
        replace(scenario, seed=deployment_seed(base_seed, drop_index)))
    return all(len(aps) > 0 for aps in deployment.cpu_map)


def usable(candidates, keep, cap: int) -> list:
    """The first cap candidates for which keep is true, screening no more."""
    return list(itertools.islice(filter(keep, candidates), cap))


def _rerun(config, drop_index):
    """Re-run one drop with every stage's return value captured."""
    with capturing(STAGES) as seen:
        result = harness.run_drop(config, drop_index)
    return result, seen


class DropDefault:
    """Drops at the library defaults: M=100, K=20, N=2, Q=4, legacy
    largest-LSF clusters of 20 APs, mixed transmission, tau_p=10."""

    name = "drop_default"
    min_ops = 100          # p90 needs ten drops beyond it
    checked = (0, 1)       # timed drops re-run against the reference

    def __init__(self, seed: int, out_dir: Path):
        self.config = harness.ExperimentConfig(base_seed=seed)

    def warm_up(self):
        harness.run_drop(self.config, 10**6)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        clock = time.perf_counter
        start = now = clock()
        while now - start < seconds or out.attempted < self.min_ops:
            index = out.attempted
            out.attempted += 1
            begin = clock()
            try:
                result = harness.run_drop(self.config, index)
            except CfMimoError:
                out.failed += 1
                result = None
            now = clock()
            out.op_times_s.append(now - begin)
            out.records.append(result)
        out.wall_s = now - start
        return out

    def check(self, out: Outcome) -> list[str]:
        bad = []
        for result in out.records:
            if result is not None:
                bad += [f"drop {result.drop_index}: {m}"
                        for m in reference.check_rates(result.user_rate,
                                                       result.sum_rate)]
        for index in self.checked:
            timed = out.records[index]
            if timed is None:
                continue
            again, seen = _rerun(self.config, index)
            if again.user_rate != timed.user_rate:
                bad.append(f"drop {index}: re-run rates differ from the timed run")
            bad += [f"drop {index}: {m}"
                    for m in reference.check_drop(seen, timed, self.config)]
        return bad


# The desk-scale fig3-6 preset (M=40, K=10, N=2, legacy clusters of 10 as
# the base, 3 modes x 3 multi-CPU algorithms x n_cpu in {1, 2, 4}), written
# as a config file so that the run goes through cli.load_config.
FIG3_6 = {
    "scenario": {"num_aps": 40, "num_users": 10, "num_antennas": 2},
    "clustering": {"algorithm": "legacy_largest_lsf", "legacy_cluster_size": 10},
    "num_drops": 200,
    "sweep": {
        "transmission_mode": ["coherent", "mixed", "non_coherent"],
        "clustering.algorithm": ["power_fraction", "fixed_aps", "lsf_threshold"],
        "clustering.n_cpu": [1, 2, 4],
    },
}
SWEEP_KEYS = ("clustering.algorithm", "clustering.n_cpu", "transmission_mode")
# (mode, algorithm, n_cpu) rows re-run against the reference, at every drop
# of the first timed call.
SWEEP_CHECKED = (("mixed", "fixed_aps", 2), ("non_coherent", "power_fraction", 4),
                 ("coherent", "lsf_threshold", 4))


class SweepFig36:
    """The fig3-6 grid through `cli.main sweep`, two drops per call, with
    results.csv and results.json written and read back after each call."""

    name = "sweep_fig3_6"
    drops = 2
    points = 27
    base_seed_cap = 41     # the warm-up's and 40 timed calls; a 30 s run makes ~13

    def __init__(self, seed: int, out_dir: Path):
        self.out = out_dir / "sweep"
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = out_dir / "fig3-6.json"
        self.config_path.write_text(json.dumps(FIG3_6, indent=1), encoding="utf-8")
        scenario = ScenarioConfig(**FIG3_6["scenario"])
        # Base seeds seed*1000, seed*1000+1, ...; the first usable one is
        # the warm-up's, the rest are used in turn by the timed calls.
        self.base_seeds = usable(
            range(seed * 1000, seed * 1000 + 1000),
            lambda s: all(pools_nonempty(scenario, s, d) for d in range(self.drops)),
            self.base_seed_cap)

    def _call(self, base_seed: int, drops: int) -> int:
        argv = ["sweep", "--config", str(self.config_path), "--out", str(self.out),
                "--seed", str(base_seed), "--drops", str(drops), "--jobs", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self):
        if self._call(self.base_seeds[0], 1) != 0:
            raise RuntimeError("warm-up sweep call failed")

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        rows = self.points * self.drops
        clock = time.perf_counter
        timed = 0.0
        call = 0
        while timed < seconds - 0.5 * (timed / call if call else 0.0):
            base_seed = self.base_seeds[1 + call % (len(self.base_seeds) - 1)]
            call += 1
            begin = clock()
            code = self._call(base_seed, self.drops)
            timed += clock() - begin
            out.attempted += rows
            if code != 0:
                out.failed += rows
                continue
            # Read back and check this call's files before the next call
            # overwrites them; this is outside the timed section.
            out.records.append((base_seed, self._check_files(base_seed),
                                None if out.records else self._rows()))
        out.wall_s = timed
        return out

    def _rows(self):
        with open(self.out / "results.csv", newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def _check_files(self, base_seed: int) -> list[str]:
        rows = self._rows()
        with open(self.out / "results.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        tag = f"base_seed {base_seed}"
        bad = []
        if len(rows) != self.points * self.drops:
            return [f"{tag}: {len(rows)} CSV rows, expected {self.points * self.drops}"]
        user_cols = [c for c in rows[0] if c.startswith("user_rate_")]
        by_point = {}
        for row in rows:
            rates = [float(row[c]) for c in user_cols if row[c] != ""]
            bad += [f"{tag} row {tuple(row[k] for k in SWEEP_KEYS)} drop "
                    f"{row['drop']}: {m}"
                    for m in reference.check_rates(rates, float(row["sum_rate"]))]
            key = tuple(row[k] for k in SWEEP_KEYS)
            by_point.setdefault(key, {})[row["drop"]] = row
        for algorithm in FIG3_6["sweep"]["clustering.algorithm"]:
            mixed = by_point.get((algorithm, "1", "mixed"), {})
            coherent = by_point.get((algorithm, "1", "coherent"), {})
            for drop, row in mixed.items():
                other = coherent.get(drop)
                if other is None or any(row[c] != other[c] for c in user_cols):
                    bad.append(f"{tag} {algorithm} n_cpu=1 drop {drop}: mixed "
                               "rates differ from coherent rates")
        if len(doc["results"]) != self.points:
            bad.append(f"{tag}: {len(doc['results'])} JSON results, "
                       f"expected {self.points}")
        for entry in doc["results"]:
            point = entry["sweep_point"]
            key = tuple(str(point[k]) for k in SWEEP_KEYS)
            sums = [float(r["sum_rate"]) for r in by_point.get(key, {}).values()]
            mean = math.fsum(sums) / len(sums) if sums else math.nan
            if not (entry["num_drops"] == len(sums) == self.drops
                    and abs(entry["mean_sum_rate"] - mean)
                    <= reference.SUM_RTOL * max(1.0, abs(mean))):
                bad.append(f"{tag} {key}: JSON mean {entry['mean_sum_rate']!r} "
                           f"vs CSV mean {mean!r}")
        return bad

    def check(self, out: Outcome) -> list[str]:
        bad = [m for _, failures, _ in out.records for m in failures]
        if not out.records:
            return bad + ["no sweep call succeeded"]
        base_seed, _, rows = out.records[0]
        base = replace(harness.load_config(self.config_path),
                       base_seed=base_seed, num_drops=self.drops)
        for mode, algorithm, n_cpu in SWEEP_CHECKED:
            point = {"transmission_mode": mode, "clustering.algorithm": algorithm,
                     "clustering.n_cpu": n_cpu}
            config = harness.apply_sweep_point(base, point)
            for drop in range(self.drops):
                tag = f"base_seed {base_seed} {mode}/{algorithm}/{n_cpu} drop {drop}"
                row = next(r for r in rows if r["transmission_mode"] == mode
                           and r["clustering.algorithm"] == algorithm
                           and r["clustering.n_cpu"] == str(n_cpu)
                           and r["drop"] == str(drop))
                result, seen = _rerun(config, drop)
                csv_rates = [row[f"user_rate_{k}"] for k in range(len(result.user_rate))]
                if [repr(r) for r in result.user_rate] != csv_rates \
                        or str(result.seed) != row["seed"]:
                    bad.append(f"{tag}: re-run differs from the CSV row")
                bad += [f"{tag}: {m}"
                        for m in reference.check_drop(seen, result, config)]
        return bad


# (M, K, Q, tau_p): the instance shapes of `cfmimo validate` and acceptance
# criterion 1.
ORACLE_SHAPES = ((8, 3, 2, 2), (8, 3, 2, 3), (12, 4, 4, 2), (12, 4, 4, 4))
ORACLE_SAMPLES = 100_000
WARM_UP_SAMPLES = 20_000   # one oracle batch: every code path, a fifth of the work
CONFIRM_SAMPLES = 400_000


def oracle_config(shape, base_seed: int, samples: int) -> harness.ExperimentConfig:
    m, k, q, tau_p = shape
    angles = 2.0 * np.pi * np.arange(q) / q
    return harness.ExperimentConfig(
        scenario=ScenarioConfig(
            num_aps=m, num_users=k, num_antennas=2,
            cpu_positions=tuple((250.0 * np.cos(a), 250.0 * np.sin(a))
                                for a in angles)),
        clustering=ClusteringParams(algorithm="fixed_aps", n_cpu=q,
                                    n_ap=max(2, m // 2)),
        frame=FrameConfig(tau_c=200, tau_p=tau_p),
        oracle=harness.OracleConfig(num_samples=samples),
        base_seed=base_seed,
    )


class OracleValidate:
    """Closed form against mc_oracle at 100 000 samples, in rounds of the
    four small instance shapes; each instance is a new drop of its shape."""

    name = "oracle_validate"
    drop_cap = 17          # the warm-up's and 16 rounds; a 30 s run makes 3 or 4

    def __init__(self, seed: int, out_dir: Path):
        self.configs = [oracle_config(s, seed, ORACLE_SAMPLES) for s in ORACLE_SHAPES]
        # Per shape: usable drop indices in order. The first is the
        # warm-up's, the rest are used in turn by the timed rounds.
        self.indices = [
            usable(range(400), lambda d, c=config: pools_nonempty(c.scenario, seed, d),
                   self.drop_cap)
            for config in self.configs]

    def warm_up(self):
        config = replace(self.configs[0],
                         oracle=harness.OracleConfig(num_samples=WARM_UP_SAMPLES))
        harness.run_oracle_check(config, self.indices[0][0])

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        clock = time.perf_counter
        start = now = clock()
        rounds = 0
        while now - start < seconds - 0.5 * ((now - start) / rounds if rounds else 0.0):
            for config, indices in zip(self.configs, self.indices):
                index = indices[1 + rounds % (len(indices) - 1)]
                out.attempted += 1
                begin = clock()
                try:
                    terms, oracle, noise = harness.run_oracle_check(config, index)
                except CfMimoError:
                    out.failed += 1
                    now = clock()
                    continue
                now = clock()
                out.op_times_s.append(now - begin)
                out.samples += oracle.num_samples
                out.records.append((config, index, terms, oracle, noise))
            rounds += 1
        out.wall_s = now - start
        return out

    def check(self, out: Outcome) -> list[str]:
        bad = []
        self.worst = 0.0
        self.confirmed = 0
        self.untestable = []
        for config, index, terms, oracle, noise in out.records:
            m, k = config.scenario.num_aps, config.scenario.num_users
            tag = f"M={m} K={k} tau_p={config.frame.tau_p} drop {index}"
            result, seen = _rerun(config, index)
            again = seen["spectral_efficiency.compute_terms"][-1]
            if not (np.array_equal(again.E, terms.E) and np.array_equal(again.F, terms.F)
                    and all(np.array_equal(a, b) for a, b in zip(again.D, terms.D))):
                bad.append(f"{tag}: oracle-check terms differ from the drop's terms")
            bad += [f"{tag}: {msg}" for msg in reference.check_drop(seen, result, config)]
            if oracle.num_samples != ORACLE_SAMPLES:
                bad.append(f"{tag}: oracle used {oracle.num_samples} samples")
            shares, untestable = reference.oracle_deviations(terms, oracle, noise)
            self.untestable += [f"{tag}: {name}" for name in untestable]
            self.worst = max([self.worst] + list(shares.values()))
            outside = [name for name, share in shares.items() if not share <= 1.0]
            if outside:
                # Hundreds of terms are tested at 3 standard errors in a run,
                # so some fall outside by chance. A term fails when an
                # independent estimate with four times the samples puts it
                # outside its tolerance again.
                self.confirmed += 1
                second, _ = reference.oracle_deviations(
                    terms, self._confirming_oracle(config, index, seen, terms), noise)
                bad += [f"{tag}: {name} is {shares[name]:.2f} and then "
                        f"{second.get(name, math.inf):.2f} times its tolerance "
                        "from the oracle"
                        for name in outside if not second.get(name, math.inf) <= 1.0]
        return bad

    @staticmethod
    def _confirming_oracle(config, index, seen, terms):
        rng = np.random.default_rng(
            np.random.SeedSequence(config.base_seed, spawn_key=(index, 2)))
        return mc_oracle(seen["clustering.build_serving_structure"][-1],
                         seen["channel.channel_stats"][-1],
                         seen["pilots.assign_pilots"][-1], config.powers,
                         config.frame, CONFIRM_SAMPLES, rng, terms=terms)


WORKLOADS = {w.name: w for w in (DropDefault, SweepFig36, OracleValidate)}
