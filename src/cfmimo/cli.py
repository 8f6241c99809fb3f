"""Command-line entry point.

Subcommands:
  run      one experiment (optionally from a JSON config file)
  sweep    expand the config's sweep grid
  validate closed-form SINR terms against the Monte Carlo oracle
  fig1     preset: CDF comparison of coherent / mixed / non-coherent modes
  fig2     preset: total rate vs legacy cluster size A_k
  fig3-6   preset: clustering algorithms vs n_cpu for each mode

Exit codes: 0 success, 1 configuration or usage error, 2 runtime/numerical
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from .clustering import ClusteringParams
from .errors import CfMimoError, ConfigurationError
from .harness import (ExperimentConfig, OracleConfig, emit_results,
                      load_config, point_label, run_experiment,
                      run_oracle_check, validation_config)
from .scenario import ScenarioConfig
from .spectral_efficiency import user_rates


def _desk_scale() -> ExperimentConfig:
    """Small deployment (40 APs, 10 users, 200 drops) for the presets:
    fig3-6, the largest, takes 1.5-2.0 s end to end at --jobs 1 on a
    2-core Intel Xeon VM (Python 3.11, numpy 2.4)."""
    return ExperimentConfig(
        scenario=ScenarioConfig(num_aps=40, num_users=10, num_antennas=2),
        clustering=ClusteringParams(algorithm="legacy_largest_lsf",
                                    legacy_cluster_size=10),
        num_drops=200,
    )


_MODES = ("coherent", "mixed", "non_coherent")
# Each figure preset sweeps the desk scale; fig3-6 runs the three multi-CPU
# algorithms across n_cpu, per mode.
_PRESET_SWEEPS = {
    "fig1": {"transmission_mode": _MODES},
    "fig2": {"transmission_mode": _MODES,
             "clustering.legacy_cluster_size": (1, 2, 4, 8, 16)},
    "fig3-6": {"transmission_mode": _MODES,
               "clustering.algorithm": ("power_fraction", "fixed_aps",
                                        "lsf_threshold"),
               "clustering.n_cpu": (1, 2, 4)},
}


def _preset(name: str) -> ExperimentConfig:
    return replace(_desk_scale(), sweep=_PRESET_SWEEPS[name])


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """config with the --seed, --drops and --samples that were given."""
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    if args.drops is not None:
        config = replace(config, num_drops=args.drops)
    if args.samples is not None:
        config = replace(config, oracle=OracleConfig(num_samples=args.samples))
    return config


def _cmd_run(args) -> int:
    """run, sweep or a figure preset: one experiment, from the --config
    file, the preset or the desk scale, written as results.* or as the
    preset's name."""
    if args.command in _PRESET_SWEEPS:
        config, stem = _preset(args.command), args.command
    else:
        config = load_config(args.config) if args.config else _desk_scale()
        stem = "results"
    config = _apply_overrides(config, args)
    if args.command == "sweep" and not config.sweep:
        raise ConfigurationError("sweep subcommand requires a sweep section")
    results = run_experiment(config, jobs=args.jobs)
    csv_path, json_path = emit_results(results, args.out, stem=stem)
    for point, res in results:
        label = point_label(point) or "base"
        print(f"{label}: mean sum rate {res.mean_sum_rate:.4f} bits/s/Hz "
              f"over {len(res.drops)} drops")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_validate(args) -> int:
    """Compare every closed-form term and SINR of drop 0 against the oracle,
    on small instances or on the --config experiment."""
    if args.config:
        configs = [load_config(args.config)]
        if configs[0].sweep:
            raise ConfigurationError("validate checks one config; "
                                     "remove its sweep section")
    else:
        configs = [validation_config(m, k, q, tau_p)
                   for m, k, q, tau_p in ((8, 3, 2, 2), (12, 4, 4, 4))]
    configs = [_apply_overrides(cfg, args) for cfg in configs]

    worst = 0.0   # the largest deviation, as a share of its tolerance
    ok = True
    for cfg in configs:
        terms, oracle, noise = run_oracle_check(cfg, jobs=args.jobs)
        sinr = user_rates(terms, cfg.frame, noise).sinr_flat
        first = np.cumsum(terms.group_count) - terms.group_count
        for k, (lo, count) in enumerate(zip(first, terms.group_count)):
            groups = range(count)      # user k's groups c, flat index lo + c
            pairs = ([("E", terms.E[k], oracle.E[k], oracle.E_se[k]),
                      ("F", terms.F[k], oracle.F[k], oracle.F_se[k])]
                     + [(f"D[{c}]", terms.D_flat[lo + c], oracle.D[k][c],
                         oracle.D_se[k][c]) for c in groups]
                     + [(f"SINR[{c}]", sinr[lo + c], oracle.sinr[k][c],
                         oracle.sinr_se[k][c]) for c in groups])
            for name, closed, est, se in pairs:
                tol = max(0.02 * abs(closed), 3.0 * se)
                err = abs(closed - est)
                passed = err <= tol
                worst = max(worst, err / tol if tol > 0
                            else (0.0 if passed else math.inf))
                ok &= passed
                print(f"user {k} {name}: closed {closed:.6e} oracle {est:.6e} "
                      f"se {se:.1e} [{'ok' if passed else 'FAIL'}]")
    print(f"worst deviation: {worst:.4f} of its tolerance")
    if not ok:
        print("validation FAILED", file=sys.stderr)
        return 2
    print("validation passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like configuration errors: exit 2 is kept for
    numerical failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one: parse_args leaves it as it was."""
    parser = _Parser(prog="cfmimo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "validate", *_PRESET_SWEEPS):
        p = sub.add_parser(name)
        p.set_defaults(config=None, drops=None, samples=None)
        if name not in _PRESET_SWEEPS:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int, default=1, help=(
            "worker processes, at most one per oracle block"
            if name == "validate" else "worker processes, at most one per drop"))
        if name == "validate":
            p.add_argument("--samples", type=int,
                           help="oracle sample count (default: the config's)")
            continue
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--drops", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except CfMimoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
