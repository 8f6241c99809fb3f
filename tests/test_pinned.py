"""Pinned outputs: rates and terms of fixed runs, as the repr of their
floats, so that a change which moves an output fails here.

RTOL lets the last bits move, as a change in the order of a sum may, and
catches a move of 1e-9. The oracle's literals are those of its
double-precision kernel; it runs in single precision at validate's shapes,
which moves them by up to 1.5e-7, so they are held to ORACLE_RTOL. A change
that moves outputs on purpose updates the literals and records the old and
the new values in CHANGES.md.
"""

from dataclasses import replace

import numpy as np
import pytest

from cfmimo import cli
from cfmimo.harness import (ExperimentConfig, OracleConfig, run_drop,
                            run_experiment, run_oracle_check,
                            validation_config)

RTOL = 1e-10
ORACLE_RTOL = 1e-6

# The per-drop sum rates of `cfmimo run --drops 2`.
RUN_SUM_RATES = [
    9.151447418779648, 7.6959637365122004,
]

# The mean sum rate of each point of `cfmimo fig3-6 --drops 2`, in grid
# order.
FIG3_6_MEAN_SUM_RATES = [
    10.597940311861318, 12.051768544694752, 12.395978928024604,
    11.034770101833825, 11.640334147424126, 11.695463630852196,
    8.431175730089313, 8.506641347749204, 8.506641347749204,
    10.597940311861318, 9.81154128090046, 8.771893845636582,
    11.034770101833825, 9.229760362482029, 8.423705577645924,
    8.431175730089313, 8.079156172251984, 8.079156172251984,
    4.881214236039897, 4.36084152530376, 3.7137493545993436,
    4.2803142230642335, 3.738946115033056, 3.5384364757041906,
    5.399139497981281, 5.164237524363478, 5.164237524363478,
]

# The user rates of drop 0 at the library default (M=100, K=20, N=2).
DEFAULT_DROP_USER_RATES = [
    0.5509781613353072, 0.9980823567432408, 0.7936749948772052,
    0.6103192906769663, 1.2949886089301879, 1.2418065025896523,
    0.4631752978508814, 0.5013146345013936, 1.1018842833303215,
    1.0681678448695842, 0.5548102577724519, 1.739735992285416,
    0.3841428107706019, 0.4009203114591748, 1.9075022364446572,
    1.3891696931333308, 1.213423684357292, 0.7881158442243121,
    1.06553701952734, 0.7022261954721076,
]

# The closed-form terms of validate's first shape, (M, K, Q, tau_p) =
# (8, 3, 2, 2), and the oracle's at 3 000 samples; D in SIC order.
VALIDATE_E = [
    9.29707600144079e-11, 5.997564785713993e-13, 7.007532325643204e-10,
]

VALIDATE_F = [
    1.1492004263026967e-10, 3.990944473751455e-13, 5.048097058943309e-10,
]

VALIDATE_D_FLAT = [
    1.072251927590765e-10, 7.694849871193171e-12, 3.596404471445911e-13,
    3.006470251560853e-14, 5.045414193624213e-10, 2.5939336277845507e-13,
]

ORACLE_D = [
    1.1474679231858974e-10, 7.553836102578144e-12, 3.5423701086667776e-13,
    2.6388371965006027e-14, 4.888650702089644e-10, 2.5295371557127695e-13,
]

ORACLE_E = [
    1.0170524248539073e-10, 5.953412364363595e-13, 6.764542557551249e-10,
]

ORACLE_F = [
    1.2230062842116788e-10, 3.903563208202934e-13, 4.891271892002706e-10,
]


def assert_pinned(got, pinned, rtol=RTOL):
    np.testing.assert_allclose(np.asarray(got, dtype=float), pinned,
                               rtol=rtol, atol=0)


def test_bound_passes_last_bits_and_fails_1e9():
    pinned = np.array(FIG3_6_MEAN_SUM_RATES)
    assert_pinned(np.nextafter(pinned, np.inf), pinned)
    assert_pinned(np.nextafter(pinned, -np.inf), pinned)
    moved = pinned.copy()
    moved[5] *= 1.0 + 1e-9
    with pytest.raises(AssertionError):
        assert_pinned(moved, pinned)


def test_run_sum_rates():
    [(_, result)] = run_experiment(replace(cli._desk_scale(), num_drops=2))
    assert_pinned([drop.sum_rate for drop in result.drops], RUN_SUM_RATES)


def test_fig3_6_mean_sum_rates():
    results = run_experiment(replace(cli._preset("fig3-6"), num_drops=2))
    assert_pinned([result.mean_sum_rate for _, result in results],
                  FIG3_6_MEAN_SUM_RATES)


def test_default_drop_user_rates():
    assert_pinned(run_drop(ExperimentConfig(), 0).user_rate,
                  DEFAULT_DROP_USER_RATES)


def test_validate_terms_and_oracle():
    config = replace(validation_config(8, 3, 2, 2),
                     oracle=OracleConfig(num_samples=3_000))
    terms, oracle, _ = run_oracle_check(config)
    for got, pinned in [(terms.E, VALIDATE_E), (terms.F, VALIDATE_F),
                        (terms.D_flat, VALIDATE_D_FLAT)]:
        assert_pinned(got, pinned)
    for got, pinned in [(np.hstack(oracle.D), ORACLE_D),
                        (oracle.E, ORACLE_E), (oracle.F, ORACLE_F)]:
        assert_pinned(got, pinned, ORACLE_RTOL)
