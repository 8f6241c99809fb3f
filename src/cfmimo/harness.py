"""Experiment orchestration: seeded drops, sweeps, aggregation, persistence.

A drop is one deterministic pipeline run: deployment -> channel statistics
-> pilot assignment -> estimation terms (MMSE estimator, E{||H_hat||^2}) ->
clustering -> closed-form rates. Per-drop random streams are split from the
base seed with numpy's SeedSequence (spawn_key = drop index), so serial and
parallel executions produce identical results.

Every experiment runs as a grid of sweep points; without a sweep the grid
is one empty point. The stages up to the estimation terms read only a
config's upstream key, (scenario, large_scale, frame.tau_p,
powers.pilot_power, base_seed), and the drop index. A grid therefore runs
drop-major: each drop groups the grid's points by key in one dict pass
(every config section hashes), runs those stages once per key, then
clustering and the closed form for every point with that key. The rows are
regrouped per point, in grid order, before aggregation. With jobs > 1 one
process pool of min(jobs, drops) workers spreads the drops of the whole
grid, in runs of consecutive drops (see spectral_efficiency.map_in_runs).

The points of a key that also share powers and frame run as one stack:
point p's user k is virtual user p*K + k of one serving structure, and one
compute_terms and one user_rates call cover them all. Each point's terms
come from the same operations as on its own, so its rates are bit-identical
to run_drop's, which runs a stack of one. When a stack raises a
CfMimoError, the key's points run again one at a time, in grid order, and
the first that fails raises with its own point, drop and user.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel import (ChannelStatistics, LargeScaleModelConfig, PathLossParams,
                      channel_stats, path_loss_db)
from .clustering import (TRANSMISSION_MODES, ClusteringParams,
                         build_serving_structure)
from .errors import CfMimoError, ConfigurationError
from .pilots import (EstimationTerms, PilotAssignment, PowerConfig,
                     assign_pilots, estimation_terms)
from .scenario import Deployment, ScenarioConfig, generate_deployment
from .spectral_efficiency import (FrameConfig, compute_terms, map_in_runs,
                                  mc_oracle, user_rates)

# compute_terms holds a (links, users) array for the co-pilot amplitudes of
# a stack, and a point of M APs and K users has at most M*K links. Stacks
# of at most max(1, STACK_ENTRIES // (M*K*K)) points bound that array at
# STACK_ENTRIES complex entries (64 MiB); the stack size does not change
# the results.
STACK_ENTRIES = 1 << 22
# The smallest normal double, in dB.
_SMALLEST_NORMAL_DB = 10.0 * math.log10(np.finfo(float).tiny)
# The percentiles of the per-drop sum rates that a result reports.
_PERCENTILES = (5, 25, 50, 75, 95)


@lru_cache(maxsize=64)
def _largest_path_loss_db(area_side: float, params: PathLossParams) -> float:
    """The path loss over the largest wrap-around distance of a square of
    side area_side; cached, since every copy of a config checks it."""
    return float(path_loss_db(math.hypot(area_side / 2.0, area_side / 2.0),
                              params))


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
        if self.scenario.seed != 0:
            raise ConfigurationError("scenario.seed is derived from base_seed "
                                     "on every drop; set base_seed instead")
        side = self.scenario.area_side
        loss = _largest_path_loss_db(side, self.large_scale.path_loss)
        if loss < _SMALLEST_NORMAL_DB:
            raise ConfigurationError(
                f"area_side {side} is too large for the path loss: over the "
                f"largest wrap-around distance it reaches {loss:.0f} dB, and "
                f"large-scale fading below {_SMALLEST_NORMAL_DB:.0f} dB "
                "underflows")


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
    # Full config echo, read-only: the results of one run share the dict of
    # each section that their configs share.
    config: dict


# ---------------------------------------------------------------------------
# Config (de)serialization: strict JSON <-> dataclasses
# ---------------------------------------------------------------------------

def _is_float(value) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, int) or (isinstance(value, float) and math.isfinite(value)))


# Parse-time checks by declared field type. Annotations are postponed, so a
# field's type is its annotation string; fields of other types pass as given.
_TYPE_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_float,
    "float | None": lambda v: v is None or _is_float(v),
    "str": lambda v: isinstance(v, str),
    "tuple[tuple[float, float], ...]": lambda v: isinstance(v, (list, tuple)) and all(
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
                isinstance(v, (list, tuple)) and v for v in sweep.values()):
            raise ConfigurationError(
                "sweep must map parameter names to non-empty value lists")
        data["sweep"] = {k: tuple(v) for k, v in sweep.items()}
    return _from_mapping(ExperimentConfig, data, "config")


def _plain(value):
    """value with its dataclasses as dicts and its tuples as lists, built
    afresh; other values, all immutable, are shared rather than copied."""
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return {name: _plain(getattr(value, name)) for name in fields}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config as the JSON document that config_from_dict reads."""
    return _plain(config)


def _config_echoes(configs: list[ExperimentConfig]) -> list[dict]:
    """config_to_dict of each config, with the dict of each section object
    built once: configs that hold the same section object share its dict,
    so the echoes are read-only."""
    built = {}      # id of a section object -> its dict; configs holds them
    echoes = []
    for config in configs:
        echo = {}
        for name in config.__dataclass_fields__:
            value = getattr(config, name)
            if hasattr(value, "__dataclass_fields__"):
                if id(value) not in built:
                    built[id(value)] = _plain(value)
                echo[name] = built[id(value)]
            else:
                echo[name] = _plain(value)
        echoes.append(echo)
    return echoes


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def apply_sweep_point(config: ExperimentConfig, point: dict) -> ExperimentConfig:
    """Return a copy of config with dotted-path parameters replaced, and no
    sweep.

    Example path: "clustering.n_cpu" or "transmission_mode". Every path is
    type-checked first; the point's values then apply together, one
    replace per section that they touch, so that no section is validated
    half-updated and the order of the paths does not matter. Sections that
    the point does not touch stay the same objects.
    """
    top, sections = {}, {}      # field -> value; section -> {field: value}
    for path, value in point.items():
        parts = path.split(".")
        if len(parts) > 2:
            raise ConfigurationError(f"sweep paths have at most two components: {path}")
        section = config if len(parts) == 1 else getattr(config, parts[0], None)
        if not dataclasses.is_dataclass(section):
            raise ConfigurationError(f"unknown sweep section: {parts[0]}")
        kinds = {f.name: f.type for f in dataclasses.fields(section)}
        if parts[-1] not in kinds:
            raise ConfigurationError(f"unknown sweep parameter: {path}")
        # Only fields with a type check are values; the others are the
        # sections and the sweep itself.
        if kinds[parts[-1]] not in _TYPE_CHECKS:
            raise ConfigurationError(f"sweep {path}: not a sweepable parameter")
        _check_type(kinds[parts[-1]], value, f"sweep {path}")
        target = top if len(parts) == 1 else sections.setdefault(parts[0], {})
        target[parts[-1]] = value
    for name, values in sections.items():
        top[name] = replace(getattr(config, name), **values)
    return replace(config, **top, sweep=None)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _drop_streams(base_seed: int, drop_index: int):
    root = np.random.SeedSequence(base_seed, spawn_key=(drop_index,))
    dep, shadow, pilot = root.spawn(3)
    dep_seed = int(dep.generate_state(1, np.uint64)[0])
    return dep_seed, np.random.default_rng(shadow), np.random.default_rng(pilot)


def point_label(point: dict) -> str:
    """A sweep point as space-separated path=value pairs."""
    return " ".join(f"{k}={v}" for k, v in point.items())


@contextmanager
def _naming(point: dict, drop_index: int):
    """Prefix the message of any CfMimoError raised inside with the drop
    and, inside a sweep, the sweep point."""
    where = f"drop {drop_index}"
    if point:
        where = f"sweep point {point_label(point)}, {where}"
    try:
        yield
    except CfMimoError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _upstream_key(config: ExperimentConfig) -> tuple:
    """Everything that _upstream reads from config."""
    return (config.scenario, config.large_scale, config.frame.tau_p,
            config.powers.pilot_power, config.base_seed)


class _Upstream(NamedTuple):
    seed: int                     # deployment seed actually used
    deployment: Deployment
    stats: ChannelStatistics
    assignment: PilotAssignment
    estimation: EstimationTerms


def _upstream(config: ExperimentConfig, drop_index: int) -> _Upstream:
    """Deployment, channel statistics, pilots and estimation terms of a drop:
    the stages that every config with the same _upstream_key shares."""
    dep_seed, shadow_rng, pilot_rng = _drop_streams(config.base_seed, drop_index)
    deployment = generate_deployment(replace(config.scenario, seed=dep_seed))
    stats = channel_stats(deployment, config.large_scale, shadow_rng)
    assignment = assign_pilots(config.scenario.num_users, config.frame.tau_p,
                               pilot_rng)
    return _Upstream(dep_seed, deployment, stats, assignment,
                     estimation_terms(stats, assignment, config.powers))


def _downstream(configs: list[ExperimentConfig], up: _Upstream):
    """Clustering and closed-form terms, on a drop's upstream, of a stack
    of configs that share powers and frame: config p's user k is virtual
    user p*K + k.

    Returns (serving, terms).
    """
    serving = build_serving_structure(up.stats.beta, up.deployment.ap_to_cpu,
                                      up.deployment.num_cpus,
                                      [c.clustering for c in configs],
                                      up.stats.noise_power,
                                      mode=[c.transmission_mode for c in configs])
    return serving, compute_terms(serving, up.stats, up.assignment,
                                  configs[0].powers, up.estimation)


def _run_stack(configs: list[ExperimentConfig], up: _Upstream,
               drop_index: int) -> list[DropResult]:
    """The drop results of a stack of configs (see _downstream), one per
    config: the rates of its K virtual users and their sum."""
    _, terms = _downstream(configs, up)
    rates = user_rates(terms, configs[0].frame, up.stats.noise_power).user_rate
    points = rates.reshape(len(configs), up.stats.num_users)
    return [DropResult(drop_index=drop_index, seed=up.seed,
                       user_rate=array("d", r), sum_rate=float(r.sum()))
            for r in points]


def _stacks(configs: list[ExperimentConfig], num_entries: int) -> list[list[int]]:
    """The indices of configs, which share an upstream key, cut into stacks
    of equal powers and frame, in order of first appearance. A stack holds
    at most max(1, STACK_ENTRIES // num_entries) configs."""
    size = max(1, STACK_ENTRIES // num_entries)
    same = {}     # powers and frame hold scalars only, so they hash
    for i, config in enumerate(configs):
        same.setdefault((config.powers, config.frame), []).append(i)
    return [stack[lo:lo + size] for stack in same.values()
            for lo in range(0, len(stack), size)]


def _run_drop_grid(grid: list[tuple[dict, ExperimentConfig]],
                   drop_index: int) -> list[DropResult]:
    """Drop drop_index of every (sweep point, config) in grid, in grid order.

    The upstream stages run once per distinct _upstream_key, and only one
    key's upstream is held at a time. The key's points then run in stacks
    (see _stacks). When a stack raises a CfMimoError, the key's points run
    again one at a time, in grid order, so that the error names the point,
    and the user within it, as if every point had run on its own.
    """
    out = [None] * len(grid)
    keys = {}     # upstream key -> grid indices, in order of first appearance
    for i, (_, config) in enumerate(grid):
        keys.setdefault(_upstream_key(config), []).append(i)
    for entries in keys.values():
        point, config = grid[entries[0]]
        with _naming(point, drop_index):
            up = _upstream(config, drop_index)
        configs = [grid[i][1] for i in entries]
        try:
            for stack in _stacks(configs, up.stats.num_aps * up.stats.num_users ** 2):
                results = _run_stack([configs[j] for j in stack], up, drop_index)
                for j, result in zip(stack, results):
                    out[entries[j]] = result
        except CfMimoError:
            for i in entries:
                point, config = grid[i]
                with _naming(point, drop_index):
                    out[i], = _run_stack([config], up, drop_index)
    return out


def _run_drop_grids(run) -> list[list[DropResult]]:
    """_run_drop_grid of each (grid, drop index) pair of a run."""
    return [_run_drop_grid(grid, drop_index) for grid, drop_index in run]


def run_drop(config: ExperimentConfig, drop_index: int) -> DropResult:
    """Execute one deployment drop; pure function of (config, drop_index)."""
    return _run_drop_grid([({}, config)], drop_index)[0]


def _summaries(grid: list[tuple[dict, ExperimentConfig]],
               drops: list[list[DropResult]]) -> list[ExperimentResult]:
    """The result of each config of grid from its drops, in drop order.

    The sum rates of the points with the same number of drops form one
    (points, drops) array, and its rows are sorted, averaged and cut into
    percentiles at once, each row as on its own; their CDF probabilities
    are formed once. The config echoes share their sections' dicts (see
    _config_echoes).
    """
    by_count = {}
    for i, point_drops in enumerate(drops):
        by_count.setdefault(len(point_drops), []).append(i)
    echoes = _config_echoes([config for _, config in grid])
    out = [None] * len(grid)
    for count, points in by_count.items():
        sums = np.array([[d.sum_rate for d in drops[i]] for i in points])
        probs = tuple((np.arange(1, count + 1) / count).tolist())
        pct = np.percentile(sums, _PERCENTILES, axis=1).T.tolist()
        for i, values, mean, p in zip(points, np.sort(sums, axis=1).tolist(),
                                      sums.mean(axis=1).tolist(), pct):
            out[i] = ExperimentResult(
                drops=tuple(drops[i]), cdf_values=tuple(values), cdf_probs=probs,
                mean_sum_rate=mean,
                percentiles={f"p{q}": v for q, v in zip(_PERCENTILES, p)},
                config=echoes[i])
    return out


def _run_grid(grid: list[tuple[dict, ExperimentConfig]],
              jobs: int) -> list[ExperimentResult]:
    """Run every (sweep point, config) of grid drop-major, over at most
    jobs worker processes, and aggregate each point's drops."""
    num_drops = max(config.num_drops for _, config in grid)
    # Drop d evaluates the grid entries that have more than d drops.
    active = [[i for i, (_, config) in enumerate(grid) if config.num_drops > d]
              for d in range(num_drops)]
    tasks = [([grid[i] for i in entries], d) for d, entries in enumerate(active)]
    drops = [[] for _ in grid]
    for entries, row in zip(active, map_in_runs(_run_drop_grids, tasks, jobs)):
        for i, result in zip(entries, row):
            drops[i].append(result)
    return _summaries(grid, drops)


def run_single(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run num_drops independent drops (sweep field ignored) and aggregate."""
    return _run_grid([({}, config)], jobs)[0]


def run_experiment(config: ExperimentConfig,
                   jobs: int = 1) -> list[tuple[dict, ExperimentResult]]:
    """Run the experiment over its sweep grid; without a sweep the grid is
    one empty point.

    Returns (sweep_point, result) pairs in grid order. All points run in one
    drop-major pass (see the module docstring).
    """
    sweep = config.sweep or {}
    points = [dict(zip(sweep, values)) for values in product(*sweep.values())]
    grid = [(point, apply_sweep_point(config, point)) for point in points]
    return [(point, result)
            for (point, _), result in zip(grid, _run_grid(grid, jobs))]


def run_oracle_check(config: ExperimentConfig, drop_index: int = 0,
                     jobs: int = 1):
    """Closed form vs Monte Carlo oracle on one drop; returns the closed-form
    terms, the oracle's result and the noise power.

    The closed-form rates are formed, and so checked, before the oracle
    runs. The oracle's blocks run over at most jobs worker processes; the
    result does not depend on jobs.
    """
    if jobs < 1:    # checked here so that the message names no drop
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    with _naming({}, drop_index):
        up = _upstream(config, drop_index)
        serving, terms = _downstream([config], up)
        user_rates(terms, config.frame, up.stats.noise_power)
        # This is the seed sequence of _drop_streams' shadowing stream, so
        # oracle_rng would repeat its draws. That is safe because mc_oracle
        # draws only from the generators that it spawns from oracle_rng,
        # never from oracle_rng itself; a new key would change the oracle's
        # samples.
        oracle_rng = np.random.default_rng(
            np.random.SeedSequence(config.base_seed, spawn_key=(drop_index, 1)))
        oracle = mc_oracle(serving, up.stats, up.assignment, config.powers,
                           config.frame, config.oracle.num_samples, oracle_rng,
                           terms=terms, jobs=jobs)
    return terms, oracle, up.stats.noise_power


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# The values that json.dumps(indent=2) writes over several lines, when not
# empty.
_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _flat_encoder(depth: int):
    """The encode of a JSONEncoder that writes a container without nested
    containers at depth as json.dumps(indent=2) does, but for the line
    breaks after its opening and before its closing bracket."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "),
                            check_circular=False).encode


def _key_text(key: str) -> str:
    """A str dict key as json.dumps writes it."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _flat_encoder(0)(key)


def _indented(value, depth: int, done: dict) -> str:
    """A dict, list or tuple as json.dumps(indent=2) writes it at depth.

    done maps the (id, depth) of each container written so far to its
    text, so that a container which the document holds more than once is
    encoded once per depth; the document keeps each container, and so its
    id, alive meanwhile. A container without nested containers takes one
    _flat_encoder call.
    """
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    text = done.get((id(value), depth))
    if text is not None:
        return text
    is_dict = isinstance(value, dict)
    items = value.values() if is_dict else value
    encode = _flat_encoder(depth)
    if any(isinstance(v, _CONTAINERS) for v in items):
        texts = [_indented(v, depth + 1, done) if isinstance(v, _CONTAINERS)
                 else encode(v) for v in items]
        if is_dict:
            texts = [f"{_key_text(k)}: {t}" for k, t in zip(value, texts)]
        inner = (",\n" + "  " * (depth + 1)).join(texts)
    else:
        inner = encode(value)[1:-1]
    opening, closing = "{}" if is_dict else "[]"
    text = f"{opening}\n{'  ' * (depth + 1)}{inner}\n{'  ' * depth}{closing}"
    done[(id(value), depth)] = text
    return text


def _json_text(doc) -> str:
    """json.dumps(doc, indent=2) of a document with str keys, with a
    container that doc holds more than once, such as a config section that
    several echoes share, encoded once per depth."""
    if isinstance(doc, _CONTAINERS):
        return _indented(doc, 0, {})
    return _flat_encoder(0)(doc)


def emit_results(results: list[tuple[dict, ExperimentResult]],
                 out_dir: str | Path, stem: str = "results") -> tuple[Path, Path]:
    """Write a CSV of per-drop rows and a JSON sidecar with summaries.

    CSV columns: sweep keys, drop index, seed, per-user rates, sum rate.
    Numbers keep full float precision: csv writes a float as its repr,
    which round-trips exactly.
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
                    writer.writerow([point.get(k, "") for k in sweep_keys]
                                    + [d.drop_index, d.seed, *d.user_rate]
                                    + [""] * (max_users - len(d.user_rate))
                                    + [d.sum_rate])

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
            fh.write(_json_text(doc) + "\n")
    except OSError as exc:
        raise CfMimoError(f"cannot write results under {out_dir}: {exc}") from exc
    return csv_path, json_path
