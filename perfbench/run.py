"""Benchmark runner for the cfmimo simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. One run is one process at --jobs 1 with BLAS and OpenMP pinned to
one thread. It builds the workload's inputs from --seed, runs one untimed
warm-up unit, measures for about --seconds seconds, checks the outputs and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Before numpy is imported: one BLAS/OpenMP thread. With the default thread
# count drop rates moved between 4.3 and 5.0 per second on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = (1, 1)   # fresh set-up processes before and after the timed section


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def reference_kernel_ms(repeats: int = 25) -> float:
    """Median time of a fixed numpy + Python kernel, to tell a slow phase of
    the machine from a slow change. Not a metric of the program."""
    import numpy as np
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((2000, 2, 2)) + 1j * rng.standard_normal((2000, 2, 2))
    a += 3.0 * np.eye(2)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(10):
            s = np.einsum("mab,mbc->mac", np.linalg.inv(a), a, optimize=True)
            acc = 0.0
            for v in s[:400, 0, 1]:
                acc += abs(v)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def percentile_ms(times_s, q: float):
    """The q-th percentile in ms, or None unless ten samples lie beyond it."""
    import numpy as np
    if len(times_s) * (1.0 - q / 100.0) < 10:
        return None
    return 1e3 * float(np.percentile(times_s, q))


def setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def layer_metrics(tracer, outcome, overhead_pct):
    from tracer import TRACED
    ops = max(outcome.attempted - outcome.failed, 1)
    summary = tracer.summary()
    metrics = {}
    for module, name in TRACED:
        row = summary[f"{module}.{name}"]
        metrics[f"{module}.{name}.self_ms"] = {"value": 1e3 * row["self_s"] / ops,
                                               "unit": "ms/op"}
        metrics[f"{module}.{name}.calls"] = {"value": row["calls"] / ops,
                                             "unit": "calls/op"}
    serving_calls = max(summary["clustering.build_serving_structure"]["calls"], 1)
    pilot_calls = max(summary["pilots.assign_pilots"]["calls"], 1)
    einsum = sum(n for span, n in tracer.einsum_calls.items()
                 if span.startswith("spectral_efficiency."))
    counts = {
        "clustering.links_per_drop": (tracer.counts["links"] / serving_calls, "count"),
        "clustering.groups_per_drop": (tracer.counts["groups"] / serving_calls, "count"),
        "spectral_efficiency.copilot_pairs_per_drop":
            (tracer.counts["copilot_pairs"] / pilot_calls, "count"),
        "spectral_efficiency.einsum_calls_per_drop": (einsum / ops, "count"),
        "channel.channel_stats.calls_per_row":
            (summary["channel.channel_stats"]["calls"] / ops, "calls/row"),
        "harness.emit_results.bytes_per_row":
            (tracer.counts["bytes_written"] / ops, "B/row"),
        "trace.drops_per_s": (ops / outcome.wall_s, "1/s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for key, (value, unit) in counts.items():
        metrics[key] = {"value": value, "unit": unit}
    return metrics, summary


def print_stage_table(summary, outcome, roots):
    ops = max(outcome.attempted - outcome.failed, 1)
    print(f"{'stage':45s} {'calls/op':>9s} {'total ms/op':>12s} {'self ms/op':>11s}")
    for key, row in summary.items():
        if row["calls"]:
            print(f"{key:45s} {row['calls'] / ops:9.3f} "
                  f"{1e3 * row['total_s'] / ops:12.3f} {1e3 * row['self_s'] / ops:11.3f}")
    for root in roots:
        total, own = summary[root]["total_s"], summary[root]["self_s"]
        if total > 0:
            print(f"{root}: {1e3 * total / ops:.3f} ms/op = "
                  f"{1e3 * (total - own) / ops:.3f} in traced calls + "
                  f"{1e3 * own / ops:.3f} own time")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cfmimo" / "__init__.py").is_file():
        print(f"perfbench: no cfmimo sources under {ROOT / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # imports numpy and cfmimo
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_root = ROOT / "perfbench_out"
    scratch = out_root / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.warm_up()
        setup_main = time.perf_counter() - T_START
        if args.setup_only:
            print(repr(setup_main))
            return 0
        return measure(args, workload, setup_main, out_root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload, setup_main, out_root) -> int:
    ref_before = reference_kernel_ms()
    setups = [setup_main]
    if args.trace:
        from tracer import Tracer, span_cost_s
        tracer = Tracer()
        with tracer.active():
            outcome = workload.run(args.seconds)
        spans = len(tracer.spans)
        einsums = sum(tracer.einsum_calls.values())
        # A lower bound: the wrappers' measured cost around a trivial call,
        # times the calls made, plus the time spent in the observers. The
        # spread between untraced runs is larger than the overhead, so it is
        # estimated rather than read off the untraced drops_per_s.
        costs = span_cost_s()
        overhead = 100.0 * (spans * costs[0] + einsums * costs[1]
                            + tracer.observe_s) / outcome.wall_s
    else:
        setups += [setup_probe(args) for _ in range(SETUP_PROBES[0])]
        outcome = workload.run(args.seconds)
        setups += [setup_probe(args) for _ in range(SETUP_PROBES[1])]
    ref_after = reference_kernel_ms()
    failures = workload.check(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done = outcome.attempted - outcome.failed
    print(f"workload {args.workload} seed {args.seed}: {outcome.attempted} operations "
          f"attempted, {outcome.failed} failed, timed section {outcome.wall_s:.3f} s")
    print(f"reference kernel: {ref_before:.3f} ms before, {ref_after:.3f} ms after")
    for msg in failures[:20]:
        print(f"CHECK FAILED: {msg}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more check failures")
    if hasattr(workload, "worst"):
        print(f"closed form vs oracle: worst deviation {workload.worst:.3f} of its "
              f"tolerance; {workload.confirmed} instances re-estimated; "
              f"{len(workload.untestable)} SINR terms left out, the oracle clipped "
              "their group's D to 0")
        for term in workload.untestable:
            print(f"left out: {term}")

    if args.trace:
        metrics, summary = layer_metrics(tracer, outcome, overhead)
        print_stage_table(summary, outcome,
                          ("harness.run_drop", "spectral_efficiency.mc_oracle"))
        print(f"tracing: {spans} spans, {einsums} einsum calls counted, "
              f"{1e3 * tracer.observe_s:.1f} ms in observers, estimated overhead "
              f"at least {overhead:.4f} %")
        trace_dir = out_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-s{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "drops_per_s": {"value": done / outcome.wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print("set-up samples (s): " + " ".join(f"{s:.4f}" for s in setups))
        times = outcome.op_times_s
        if times:
            print(f"drop_ms_p50: {1e3 * statistics.median(times):.3f} ms over "
                  f"{len(times)} drop evaluations")
        p90 = percentile_ms(times, 90)
        if p90 is not None:
            print(f"drop_ms_p90: {p90:.3f} ms")
        if outcome.samples:
            print(f"samples_per_s: {outcome.samples / outcome.wall_s:.1f} 1/s "
                  f"({outcome.samples} oracle samples)")
    for key, m in metrics.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
