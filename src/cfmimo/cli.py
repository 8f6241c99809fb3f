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
import sys
from dataclasses import replace

from .clustering import ClusteringParams
from .errors import CfMimoError, ConfigurationError
from .harness import (ExperimentConfig, OracleConfig, confirmed_oracle_check,
                      emit_results, load_config, point_label, run_experiment,
                      validation_config)
from .scenario import ScenarioConfig


def _desk_scale() -> ExperimentConfig:
    """Small deployment (40 APs, 10 users, 200 drops) for the presets:
    fig3-6, the largest, takes 0.86-1.02 s end to end at --jobs 1 on a
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
    oracle = None if args.samples is None else OracleConfig(num_samples=args.samples)
    given = {"base_seed": args.seed, "num_drops": args.drops, "oracle": oracle}
    return replace(config, **{k: v for k, v in given.items() if v is not None})


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
    csv_path, json_path = emit_results(config, results, args.out, stem=stem)
    for point, res in results:
        print(f"{point_label(point) or 'base'}: mean sum rate "
              f"{res.mean_sum_rate:.4f} bits/s/Hz over {len(res.drops)} drops")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_validate(args) -> int:
    """Compare every closed-form term and SINR of drop 0 against the oracle,
    on small instances or on the --config experiment, under the
    confirmation rule (harness.confirmed_oracle_check); exit 2 if a term
    fails it."""
    configs = ([load_config(args.config)] if args.config else
               [validation_config(*shape) for shape in ((8, 3, 2, 2), (12, 4, 4, 4))])
    if configs[0].sweep:
        raise ConfigurationError("validate checks one config; remove its sweep section")
    configs = [_apply_overrides(cfg, args) for cfg in configs]

    worst = 0.0   # the largest judged deviation, as a share of its tolerance
    for cfg in configs:
        rows, second, judged = confirmed_oracle_check(cfg, jobs=args.jobs)
        user, label, closed, est, se, _, passed, deviation, share = rows
        for k, name, c, e, s, p, d, d2 in zip(user, label, closed, est, se,
                                              passed, deviation, second):
            verdict = "ok" if p else (
                f"{d:.2f} of its tolerance, then {d2:.2f} re-estimated: "
                f"{'ok' if d2 <= 1.0 else 'FAIL'}")
            print(f"user {k} {name}: closed {c:.6e} oracle {e:.6e} se {s:.1e} "
                  f"[{verdict}]")
        print(f"{(share > 0.1).sum()} of {share.size} terms have a tolerance above "
              f"10 % of their value; the largest is {100 * share.max():.3g} %")
        worst = max(worst, judged.max())
    print(f"worst deviation: {worst:.4f} of its tolerance")
    if not worst <= 1.0:
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
        p.add_argument("--jobs", type=int, default=1, help="worker processes, at most "
                       f"one per {'oracle block' if name == 'validate' else 'drop'}")
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
