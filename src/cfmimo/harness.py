"""Experiment orchestration: seeded drops, sweeps, aggregation, persistence.

A drop is one deterministic pipeline run: deployment -> channel statistics
-> pilot assignment -> clustering -> closed-form rates. Per-drop random
streams are split from the base seed with numpy's SeedSequence
(spawn_key = drop index), so serial and parallel executions produce
identical results.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .channel import LargeScaleModelConfig, PathLossParams, channel_stats
from .clustering import ClusteringParams, build_serving_structure
from .errors import CfMimoError, ConfigurationError
from .pilots import PowerConfig, assign_pilots
from .scenario import ScenarioConfig, generate_deployment
from .spectral_efficiency import (FrameConfig, compute_terms, mc_oracle,
                                  user_rates)

TRANSMISSION_MODES = ("coherent", "non_coherent", "mixed")


@dataclass(frozen=True)
class OracleConfig:
    num_samples: int = 100_000

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigurationError("oracle num_samples must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    large_scale: LargeScaleModelConfig = field(default_factory=LargeScaleModelConfig)
    powers: PowerConfig = field(default_factory=PowerConfig)
    clustering: ClusteringParams = field(default_factory=ClusteringParams)
    frame: FrameConfig = field(default_factory=FrameConfig)
    transmission_mode: str = "mixed"
    num_drops: int = 200
    oracle: OracleConfig = field(default_factory=OracleConfig)
    sweep: dict[str, tuple] | None = None   # dotted parameter path -> value list
    base_seed: int = 0

    def __post_init__(self):
        if self.transmission_mode not in TRANSMISSION_MODES:
            raise ConfigurationError(
                f"transmission_mode must be one of {TRANSMISSION_MODES}")
        if self.num_drops < 1:
            raise ConfigurationError("num_drops must be >= 1")
        if self.base_seed < 0:
            raise ConfigurationError("base_seed must be >= 0")


def validation_config(num_aps: int, num_users: int, num_cpus: int,
                      tau_p: int) -> ExperimentConfig:
    """A small closed-form-vs-oracle instance: N = 2, the CPUs evenly on a
    250 m ring, fixed_aps clusters of max(2, M // 2) APs over every CPU."""
    angles = 2.0 * np.pi * np.arange(num_cpus) / num_cpus
    return ExperimentConfig(
        scenario=ScenarioConfig(
            num_aps=num_aps, num_users=num_users, num_antennas=2,
            cpu_positions=tuple((250.0 * np.cos(a), 250.0 * np.sin(a))
                                for a in angles)),
        clustering=ClusteringParams(algorithm="fixed_aps", n_cpu=num_cpus,
                                    n_ap=max(2, num_aps // 2)),
        frame=FrameConfig(tau_c=200, tau_p=tau_p),
    )


@dataclass(frozen=True, slots=True)
class DropResult:
    """The rates of one drop. A run keeps one per drop until it writes its
    results, so the rates are packed doubles rather than float objects."""
    drop_index: int
    seed: int                     # deployment seed actually used
    user_rate: array              # r_k, bits/s/Hz, typecode "d"
    sum_rate: float


@dataclass(frozen=True)
class ExperimentResult:
    drops: tuple[DropResult, ...]
    cdf_values: tuple[float, ...]    # sorted per-drop sum rates
    cdf_probs: tuple[float, ...]     # non-decreasing, ends at 1
    mean_sum_rate: float
    percentiles: dict[str, float]    # keys p5/p25/p50/p75/p95
    config: dict                     # full config echo


# ---------------------------------------------------------------------------
# Config (de)serialization: strict JSON <-> dataclasses
# ---------------------------------------------------------------------------

def _is_float(value) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)))


_POSITIONS = "tuple[tuple[float, float], ...]"
# Parse-time checks by declared field type. Annotations are postponed, so a
# field's type is its annotation string; fields of other types pass as given.
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_float,
    "float | None": lambda v: v is None or _is_float(v),
    "str": lambda v: isinstance(v, str),
    _POSITIONS: lambda v: isinstance(v, (list, tuple)) and all(
        isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_float, p))
        for p in v),
}
_SECTIONS = {cls.__name__: cls for cls in (
    ScenarioConfig, LargeScaleModelConfig, PathLossParams, PowerConfig,
    ClusteringParams, FrameConfig, OracleConfig)}


def _check_type(kind: str, value, where: str) -> None:
    check = _TYPE_CHECKS.get(kind)
    if check is not None and not check(value):
        raise ConfigurationError(f"{where}: expected {kind}, got {value!r}")


def _from_mapping(cls, data: dict, context: str):
    """Build dataclass cls from a mapping, rejecting unknown keys and values
    that do not fit their field's type; nested sections are built in turn."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{context}: expected an object")
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        kind, where = kinds[name], f"{context}.{name}"
        if kind in _SECTIONS:
            value = _from_mapping(_SECTIONS[kind], value, where)
        else:
            _check_type(kind, value, where)
            if kind == _POSITIONS:
                value = tuple(tuple(p) for p in value)
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse a config document (e.g. loaded from JSON); unknown keys and
    values of the wrong type reject."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be an object")
    data = dict(data)
    sweep = data.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict) or not all(
                isinstance(v, (list, tuple)) for v in sweep.values()):
            raise ConfigurationError("sweep must map parameter names to value lists")
        data["sweep"] = {k: tuple(v) for k, v in sweep.items()}
    return _from_mapping(ExperimentConfig, data, "config")


def config_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    out["scenario"]["cpu_positions"] = [list(p) for p in config.scenario.cpu_positions]
    if config.sweep is not None:
        out["sweep"] = {k: list(v) for k, v in config.sweep.items()}
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def apply_sweep_point(config: ExperimentConfig, point: dict) -> ExperimentConfig:
    """Return a copy of config with dotted-path parameters replaced.

    Example path: "clustering.n_cpu" or "transmission_mode".
    """
    out = config
    for path, value in point.items():
        parts = path.split(".")
        if len(parts) > 2:
            raise ConfigurationError(f"sweep paths have at most two components: {path}")
        section = out if len(parts) == 1 else getattr(out, parts[0], None)
        if not dataclasses.is_dataclass(section):
            raise ConfigurationError(f"unknown sweep section: {parts[0]}")
        kinds = {f.name: f.type for f in dataclasses.fields(section)}
        if parts[-1] not in kinds:
            raise ConfigurationError(f"unknown sweep parameter: {path}")
        _check_type(kinds[parts[-1]], value, f"sweep {path}")
        section = replace(section, **{parts[-1]: value})
        out = section if len(parts) == 1 else replace(out, **{parts[0]: section})
    return replace(out, sweep=None)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _drop_streams(base_seed: int, drop_index: int):
    root = np.random.SeedSequence(base_seed, spawn_key=(drop_index,))
    dep, shadow, pilot = root.spawn(3)
    dep_seed = int(dep.generate_state(1, np.uint64)[0])
    return dep_seed, np.random.default_rng(shadow), np.random.default_rng(pilot)


@contextmanager
def _naming_drop(drop_index: int):
    """Prefix the message of any CfMimoError raised inside with the drop."""
    try:
        yield
    except CfMimoError as exc:
        raise type(exc)(f"drop {drop_index}: {exc}") from exc


def _drop_stages(config: ExperimentConfig, drop_index: int):
    """Deployment through closed-form terms for one drop.

    Returns (dep_seed, stats, assignment, serving, terms).
    """
    dep_seed, shadow_rng, pilot_rng = _drop_streams(config.base_seed, drop_index)
    scenario = replace(config.scenario, seed=dep_seed)
    deployment = generate_deployment(scenario)
    stats = channel_stats(deployment, config.large_scale, shadow_rng)
    assignment = assign_pilots(scenario.num_users, config.frame.tau_p, pilot_rng)
    serving = build_serving_structure(stats.beta, deployment.cpu_map,
                                      config.clustering, stats.noise_power,
                                      mode=config.transmission_mode)
    terms = compute_terms(serving, stats, assignment, config.powers)
    return dep_seed, stats, assignment, serving, terms


def run_drop(config: ExperimentConfig, drop_index: int) -> DropResult:
    """Execute one deployment drop; pure function of (config, drop_index)."""
    with _naming_drop(drop_index):
        dep_seed, stats, _, serving, terms = _drop_stages(config, drop_index)
        rates = user_rates(terms, serving, config.frame, stats.noise_power)
    return DropResult(drop_index=drop_index, seed=dep_seed,
                      user_rate=array("d", rates.user_rate),
                      sum_rate=rates.sum_rate)


def _run_drop_args(args) -> DropResult:
    return run_drop(*args)


def run_single(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run num_drops independent drops (sweep field ignored) and aggregate."""
    indices = range(config.num_drops)
    if jobs > 1:
        # Imported here: the pool machinery adds about 2 MB to the resident
        # size of every process that loads it, and serial runs never need it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            drops = list(pool.map(_run_drop_args,
                                  [(config, i) for i in indices], chunksize=4))
    else:
        drops = [run_drop(config, i) for i in indices]
    drops.sort(key=lambda d: d.drop_index)

    sums = np.array([d.sum_rate for d in drops])
    order = np.sort(sums)
    probs = np.arange(1, sums.size + 1) / sums.size
    pct = np.percentile(sums, [5, 25, 50, 75, 95])
    return ExperimentResult(
        drops=tuple(drops),
        cdf_values=tuple(float(v) for v in order),
        cdf_probs=tuple(float(p) for p in probs),
        mean_sum_rate=float(sums.mean()),
        percentiles={f"p{q}": float(v) for q, v in zip((5, 25, 50, 75, 95), pct)},
        config=config_to_dict(config),
    )


def run_experiment(config: ExperimentConfig,
                   jobs: int = 1) -> list[tuple[dict, ExperimentResult]]:
    """Run the experiment, expanding the sweep grid if one is configured.

    Returns (sweep_point, result) pairs; a single pair with an empty point
    when there is no sweep.
    """
    if not config.sweep:
        return [({}, run_single(config, jobs))]
    names = list(config.sweep)
    out = []
    for values in product(*(config.sweep[n] for n in names)):
        point = dict(zip(names, values))
        out.append((point, run_single(apply_sweep_point(config, point), jobs)))
    return out


def run_oracle_check(config: ExperimentConfig, drop_index: int = 0):
    """Closed form vs Monte Carlo oracle on one drop; returns both results."""
    with _naming_drop(drop_index):
        _, stats, assignment, serving, terms = _drop_stages(config, drop_index)
        oracle_rng = np.random.default_rng(
            np.random.SeedSequence(config.base_seed, spawn_key=(drop_index, 1)))
        oracle = mc_oracle(serving, stats, assignment, config.powers, config.frame,
                           config.oracle.num_samples, oracle_rng, terms=terms)
    return terms, oracle, stats.noise_power


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def emit_results(results: list[tuple[dict, ExperimentResult]],
                 out_dir: str | Path, stem: str = "results") -> tuple[Path, Path]:
    """Write a CSV of per-drop rows and a JSON sidecar with summaries.

    CSV columns: sweep keys, drop index, seed, per-user rates, sum rate.
    Numbers keep full float precision (repr round-trips exactly).
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{stem}.csv"
        json_path = out_dir / f"{stem}.json"

        sweep_keys = sorted({k for point, _ in results for k in point})
        max_users = max(len(d.user_rate) for _, res in results for d in res.drops)
        header = (sweep_keys + ["drop", "seed"]
                  + [f"user_rate_{k}" for k in range(max_users)] + ["sum_rate"])
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for point, res in results:
                for d in res.drops:
                    rates = [repr(r) for r in d.user_rate]
                    rates += [""] * (max_users - len(rates))
                    writer.writerow([point.get(k, "") for k in sweep_keys]
                                    + [d.drop_index, d.seed] + rates
                                    + [repr(d.sum_rate)])

        doc = {
            "version": __version__,
            "results": [
                {
                    "sweep_point": point,
                    "config": res.config,
                    "mean_sum_rate": res.mean_sum_rate,
                    "percentiles": res.percentiles,
                    "cdf": {"values": list(res.cdf_values),
                            "probs": list(res.cdf_probs)},
                    "num_drops": len(res.drops),
                }
                for point, res in results
            ],
        }
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise CfMimoError(f"cannot write results under {out_dir}: {exc}") from exc
    return csv_path, json_path
