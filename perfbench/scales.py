"""Reference per-stage figures of `harness.run_drop` at three fixed scales.

    python3 perfbench/scales.py

Run from the root of a checkout. Traces whole drops at desk scale
(M=40, K=10, N=2, legacy clusters of 10), the library defaults
(M=100, K=20, N=2) and a large scale (M=400, K=100, N=4, legacy clusters
of 20) and prints the median time per call of every stage, with the
drop's total, for base seed 0 and 20, 10 and 3 drops. These figures are
for reading only; no gate uses them.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]

from cfmimo import harness  # noqa: E402
from cfmimo.clustering import ClusteringParams  # noqa: E402
from cfmimo.scenario import ScenarioConfig  # noqa: E402

from tracer import Tracer  # noqa: E402

STAGES = ("harness.run_drop", "scenario.generate_deployment", "channel.channel_stats",
          "pilots.assign_pilots", "clustering.build_serving_structure",
          "spectral_efficiency.compute_terms", "spectral_efficiency.user_rates")


SEED = 0
DROPS = {"desk": 20, "default": 10, "large": 3}


def scales():
    default = harness.ExperimentConfig(base_seed=SEED)
    return {
        "desk": replace(default, scenario=ScenarioConfig(num_aps=40, num_users=10),
                        clustering=ClusteringParams(legacy_cluster_size=10)),
        "default": default,
        "large": replace(default, scenario=ScenarioConfig(num_aps=400, num_users=100,
                                                          num_antennas=4)),
    }


def main() -> int:
    for name, config in scales().items():
        drops = DROPS[name]
        harness.run_drop(config, 10**6)           # warm-up, untraced
        tracer = Tracer()
        with tracer.active():
            for index in range(drops):
                harness.run_drop(config, index)
        per_stage = {}
        for stage, _, start, end in tracer.spans:
            per_stage.setdefault(stage, []).append(end - start)
        drop_ms = 1e3 * statistics.median(per_stage["harness.run_drop"])
        print(f"{name}: M={config.scenario.num_aps} K={config.scenario.num_users} "
              f"N={config.scenario.num_antennas}, {drops} drops, "
              f"median drop {drop_ms:.1f} ms")
        for stage in STAGES[1:]:
            ms = 1e3 * statistics.median(per_stage[stage])
            print(f"  {stage:40s} {ms:10.2f} ms  {100.0 * ms / drop_ms:5.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
