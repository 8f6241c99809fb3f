"""The closed form and the Monte Carlo oracle against the textbook reference,
which shares no code with either (textbook.textbook_terms)."""

from functools import cache

import numpy as np
import pytest

from conftest import small_instance
from textbook import textbook_terms

from cfmimo.spectral_efficiency import mc_oracle, user_rates

SAMPLES = 40_000

# name: (M, K, N, CPUs, tau_p), mode, drop seed
CASES = {
    # Three users on one pilot, one group each.
    "contaminated_coherent": ((8, 3, 2, 2, 1), "coherent", 0),
    # Users 1 and 2 share a pilot; user 2 has a group at each CPU.
    "mixed_two_groups": ((8, 3, 2, 2, 2), "mixed", 0),
    # N = 1, three CPUs: three single-AP groups per user.
    "non_coherent_one_antenna": ((6, 3, 1, 3, 2), "non_coherent", 0),
}


@cache
def _run(name):
    """The drop of a case, its closed-form terms and SINRs, mc_oracle's
    estimates and the reference's; flat per-group arrays are indexed by
    the group of serving.links, not in SIC order."""
    shape, mode, seed = CASES[name]
    stats, assignment, serving, terms, powers, frame = small_instance(
        *shape, seed=seed, mode=mode)
    oracle = mc_oracle(serving, stats, assignment, powers, frame, SAMPLES,
                       np.random.default_rng(seed + 1), terms=terms)
    reference = textbook_terms(serving.links, stats, assignment, powers,
                               SAMPLES, np.random.default_rng(seed + 2))

    def by_group(values):
        out = np.empty(terms.sic.size)
        out[terms.sic] = np.hstack(values)
        return out

    closed = {"E": terms.E, "F": terms.F, "D": by_group(terms.D_flat),
              "sinr": by_group(user_rates(terms, frame,
                                          stats.noise_power).sinr_flat)}
    estimates = {term: (by_group(getattr(oracle, term)),
                        by_group(getattr(oracle, f"{term}_se")))
                 if term in ("D", "sinr") else
                 (getattr(oracle, term), getattr(oracle, f"{term}_se"))
                 for term in closed}
    return serving, assignment, terms, closed, estimates, reference


def test_cases_cover_contamination_groups_and_modes():
    serving, assignment, _, _, _, _ = _run("contaminated_coherent")
    assert np.all(assignment.t == assignment.t[0])
    serving, assignment, _, _, _, _ = _run("mixed_two_groups")
    groups = np.bincount(serving.links.group_user)
    assert groups.max() >= 2
    assert np.unique(serving.links.group_cpu[serving.links.group_user == 2]).size == 2
    assert np.unique(assignment.t).size < assignment.t.size
    serving, _, _, _, _, _ = _run("non_coherent_one_antenna")
    assert np.all(np.bincount(serving.links.group_user) == 3)


@pytest.mark.parametrize("name", CASES)
def test_closed_form_matches_the_reference(name):
    # Every D, E, F and SINR within max(2 %, 3 SE) of the reference, which
    # decodes each user's groups in the closed form's SIC order.
    _, _, terms, closed, _, reference = _run(name)
    np.testing.assert_array_equal(reference.order, terms.sic)
    for term, value in closed.items():
        est, se = getattr(reference, term), getattr(reference, f"{term}_se")
        bad = np.abs(value - est) > np.maximum(0.02 * np.abs(value), 3.0 * se)
        assert not bad.any(), (term, np.flatnonzero(bad), value, est, se)


@pytest.mark.parametrize("name", CASES)
def test_oracle_matches_the_reference(name):
    # Every D, E, F and SINR of mc_oracle within 3 combined standard errors
    # of the reference's.
    _, _, _, _, estimates, reference = _run(name)
    for term, (est, se) in estimates.items():
        ref, ref_se = getattr(reference, term), getattr(reference, f"{term}_se")
        bad = np.abs(est - ref) > 3.0 * np.hypot(se, ref_se)
        assert not bad.any(), (term, np.flatnonzero(bad), est, ref)
