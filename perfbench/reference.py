"""Checks of the program's outputs, made apart from the program.

`reference_terms` recomputes the closed-form terms link by link from R, the
pilot assignment and the serving structure, solving with Psi rather than
inverting it. It uses no code from cfmimo.spectral_efficiency:

    Psi[m, t]  = sigma^2 I + tau_p p^p sum_{i : t_i = t} R[m, i]
    G[m, i]    = R[m, i] Psi[m, t_i]^-1 R[m, i]
    D_k^c      = ( sum_{m in c} sqrt(rho p^p tau_p tr G[m, k]) )^2
    E_k        = sum_i sum_{m in A_i} rho tr(R[m, k] G[m, i]) / tr G[m, i]
    F_k        = sum_{i : t_i = t_k} sum_{groups b of i}
                 | sum_{m in b} sqrt(rho p^p tau_p) tr(R[m, i] Psi[m, t_k]^-1 R[m, k])
                   / sqrt(tr G[m, i]) |^2

With successive decoding of the groups, the per-group rates telescope:
r_k = prelog log2(X / (X - sum_c D_k^c)) with X = E_k + F_k + sigma^2,
whatever the decoding order.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

TERM_RTOL = 1e-9      # closed form vs per-link reference, relative
RATE_RTOL = 1e-9      # user rates vs telescoped reference, relative
SUM_RTOL = 1e-12      # sums and means recomputed from the same floats
MATRIX_RTOL = 1e-12   # Hermitian symmetry and trace of R


def reference_terms(stats, assignment, powers, serving):
    """Per-link closed form. Returns (D, E, F): D[k] follows serving.groups[k]."""
    if powers.ap_power_budget is not None and powers.power_budget_mode != "ignore":
        raise ValueError("the reference covers uniform data power only")
    R, noise = stats.R, stats.noise_power
    t, tau_p, pp = assignment.t, assignment.tau_p, powers.pilot_power
    rho = powers.data_power
    n = R.shape[-1]
    K = R.shape[1]
    psi = np.empty((tau_p,) + R[:, 0].shape, dtype=complex)
    for pilot in range(tau_p):
        psi[pilot] = noise * np.eye(n) + tau_p * pp * R[:, t == pilot].sum(axis=1)

    D = [np.zeros(len(serving.groups[k])) for k in range(K)]
    E = np.zeros(K)
    F = np.zeros(K)
    for i in range(K):
        for b, (_, aps) in enumerate(serving.groups[i]):
            a = list(aps)
            r_i = R[a, i]
            solved_i = np.linalg.solve(psi[t[i]][a], r_i)     # Psi^-1 R_i
            g_ii = r_i @ solved_i
            tr_g = np.trace(g_ii, axis1=-2, axis2=-1).real
            D[i][b] = np.sum(np.sqrt(rho * pp * tau_p * tr_g)) ** 2
            for k in range(K):
                tr_rk_g = np.trace(R[a, k] @ g_ii, axis1=-2, axis2=-1).real
                E[k] += np.sum(rho * tr_rk_g / tr_g)
                if t[k] == t[i]:
                    cross = np.trace(r_i @ np.linalg.solve(psi[t[k]][a], R[a, k]),
                                     axis1=-2, axis2=-1)
                    amp = np.sum(np.sqrt(rho * pp * tau_p) * cross / np.sqrt(tr_g))
                    F[k] += abs(amp) ** 2
    return D, E, F


def _rel(a, b) -> float:
    scale = max(abs(a), abs(b), np.finfo(float).tiny)
    return abs(a - b) / scale


def check_terms(terms, ref) -> list[str]:
    """Closed-form SETerms against the reference, including the SIC order.

    Groups must be decoded strongest desired power first (ties by the lower
    group index), and terms.D[k][c] must be the reference D of group
    terms.group_order[k][c].
    """
    D_ref, E_ref, F_ref = ref
    bad = []
    for k in range(len(D_ref)):
        for name, got, want in (("E", terms.E[k], E_ref[k]),
                                ("F", terms.F[k], F_ref[k])):
            if not _rel(got, want) <= TERM_RTOL:
                bad.append(f"user {k} {name}: {float(got)!r} vs reference {float(want)!r}")
        order = list(terms.group_order[k])
        if sorted(order) != list(range(len(D_ref[k]))):
            bad.append(f"user {k}: group order {order} is not a permutation "
                       f"of its {len(D_ref[k])} groups")
            continue
        got_d = np.asarray(terms.D[k])
        if got_d.shape != (len(order),):
            bad.append(f"user {k}: {got_d.size} D values for {len(order)} groups")
            continue
        for c, b in enumerate(order):
            if not _rel(got_d[c], D_ref[k][b]) <= TERM_RTOL:
                bad.append(f"user {k} D[{c}] (group {b}): {float(got_d[c])!r} vs "
                           f"reference {float(D_ref[k][b])!r}")
        want_sorted = np.sort(D_ref[k])[::-1]
        for c in range(len(order)):
            if not _rel(got_d[c], want_sorted[c]) <= TERM_RTOL:
                bad.append(f"user {k}: groups are not decoded in descending "
                           f"order of D (position {c})")
                break
    return bad


def telescoped_rates(ref, noise_power: float, prelog: float) -> np.ndarray:
    D_ref, E_ref, F_ref = ref
    out = np.empty(len(D_ref))
    for k, d in enumerate(D_ref):
        x = E_ref[k] + F_ref[k] + noise_power
        out[k] = prelog * math.log2(x / (x - math.fsum(d)))
    return out


def check_rates(user_rate, sum_rate) -> list[str]:
    """Finite, non-negative user rates whose sum is the reported sum rate."""
    rates = [float(r) for r in user_rate]
    bad = [f"user {k} rate {r!r} is not finite and non-negative"
           for k, r in enumerate(rates) if not (math.isfinite(r) and r >= 0.0)]
    total = math.fsum(rates)
    if not (math.isfinite(sum_rate)
            and abs(sum_rate - total) <= SUM_RTOL * max(1.0, abs(total))):
        bad.append(f"sum rate {sum_rate!r} differs from the user-rate sum {total!r}")
    return bad


def check_against_telescoped(user_rate, ref, noise_power, prelog) -> list[str]:
    want = telescoped_rates(ref, noise_power, prelog)
    return [f"user {k} rate {float(got)!r} vs telescoped reference {w!r}"
            for k, (got, w) in enumerate(zip(user_rate, want))
            if not _rel(float(got), w) <= RATE_RTOL]


def check_correlation(stats) -> list[str]:
    """Every R Hermitian with trace N * beta."""
    R, beta = stats.R, stats.beta
    n = R.shape[-1]
    bad = []
    asym = np.abs(R - np.conj(np.swapaxes(R, -1, -2))).max(axis=(-1, -2))
    scale = np.abs(R).max(axis=(-1, -2))
    if np.any(asym > MATRIX_RTOL * scale):
        bad.append(f"{int(np.sum(asym > MATRIX_RTOL * scale))} R matrices "
                   "are not Hermitian")
    trace = np.trace(R, axis1=-2, axis2=-1)
    if np.any(np.abs(trace - n * beta) > MATRIX_RTOL * n * beta):
        bad.append("some R matrices do not have trace N * beta")
    return bad


def check_partition(serving, cpu_map, mode: str) -> list[str]:
    """Groups partition each cluster; in mixed and non-coherent mode each
    group lies inside the pool of the CPU it is labelled with."""
    pools = [set(int(m) for m in aps) for aps in cpu_map]
    bad = []
    for k, (cluster, groups) in enumerate(zip(serving.clusters, serving.groups)):
        members = [int(m) for _, aps in groups for m in aps]
        if len(members) != len(set(members)) or set(members) != set(cluster):
            bad.append(f"user {k}: groups {groups} do not partition cluster {cluster}")
            continue
        if not cluster:
            bad.append(f"user {k}: empty cluster")
            continue
        if mode == "coherent":
            cpus = {q for q, pool in enumerate(pools) if pool & set(cluster)}
            label = cpus.pop() if len(cpus) == 1 else -1
            if len(groups) != 1 or groups[0][0] != label:
                bad.append(f"user {k}: coherent mode needs one group labelled {label}")
            continue
        for q, aps in groups:
            if not 0 <= q < len(pools) or not set(aps) <= pools[q]:
                bad.append(f"user {k}: group {aps} is not inside CPU {q}'s pool")
            if mode == "non_coherent" and len(aps) != 1:
                bad.append(f"user {k}: non-coherent group {aps} is not a single AP")
        labels = [q for q, _ in groups]
        if mode == "mixed" and len(labels) != len(set(labels)):
            bad.append(f"user {k}: two mixed-mode groups share a CPU")
    return bad


def check_drop(captured, result, config) -> list[str]:
    """All checks for one re-run drop whose stage outputs were captured.

    captured: return values of channel_stats, assign_pilots,
    build_serving_structure and compute_terms of the re-run;
    result: the DropResult (or equivalent user_rate/sum_rate) under test.
    """
    stats = captured["channel.channel_stats"][-1]
    assignment = captured["pilots.assign_pilots"][-1]
    serving = captured["clustering.build_serving_structure"][-1]
    terms = captured["spectral_efficiency.compute_terms"][-1]
    deployment = captured["scenario.generate_deployment"][-1]
    ref = reference_terms(stats, assignment, config.powers, serving)
    bad = check_correlation(stats)
    bad += check_partition(serving, deployment.cpu_map, config.transmission_mode)
    bad += check_terms(terms, ref)
    bad += check_rates(result.user_rate, result.sum_rate)
    bad += check_against_telescoped(result.user_rate, ref, stats.noise_power,
                                    config.frame.prelog)
    return bad


def oracle_deviations(terms, oracle, noise_power):
    """Deviation of every D, E, F and SINR from the oracle, as a share of
    its tolerance max(2 %, 3 standard errors); above 1 fails.

    The closed-form SINR of decode position c is D_c / (X - sum_{b<=c} D_b)
    with X = E + F + sigma^2. Returns (shares, untestable). mc_oracle
    reports a NaN SINR standard error when it clips a group's D estimate to
    exactly zero; such a SINR term cannot be compared and is listed in
    untestable instead. Any other non-finite standard error fails.
    """
    shares, untestable = {}, []
    for k in range(len(terms.D)):
        d = np.asarray(terms.D[k])
        x = terms.E[k] + terms.F[k] + noise_power
        sinr = d / (x - np.cumsum(d))
        pairs = [("E", terms.E[k], oracle.E[k], oracle.E_se[k]),
                 ("F", terms.F[k], oracle.F[k], oracle.F_se[k])]
        if len(oracle.D[k]) != d.size or len(oracle.sinr[k]) != d.size:
            shares[f"user {k} groups"] = math.inf
            continue
        pairs += [(f"D[{c}]", d[c], oracle.D[k][c], oracle.D_se[k][c])
                  for c in range(d.size)]
        for c in range(d.size):
            if oracle.D[k][c] == 0 and not math.isfinite(oracle.sinr_se[k][c]):
                untestable.append(f"user {k} SINR[{c}]")
            else:
                pairs.append((f"SINR[{c}]", sinr[c], oracle.sinr[k][c],
                              oracle.sinr_se[k][c]))
        for name, closed, est, se in pairs:
            if not math.isfinite(se):
                shares[f"user {k} {name}"] = math.inf
                continue
            tol = max(0.02 * abs(closed), 3.0 * se)
            dev = abs(closed - est)
            shares[f"user {k} {name}"] = (dev / tol if tol > 0
                                          else (0.0 if dev == 0 else math.inf))
    return shares, untestable
