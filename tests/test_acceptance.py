"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single ``[PASS]``/``[FAIL]``
line with the measured quantity and its pinned tolerance (visible with
``pytest -s`` or on failure).  Every random suite is seeded, so reruns are
byte-for-byte comparable.
"""

from __future__ import annotations

import math
import time

import numpy as np

from recur_moments import (AtomicDist, PassageLaw, PetalChain, TwoStateChain,
                           burst_fn, classify, conditioned_hit_law,
                           conditioned_return_law, crossing_return_law,
                           default_burst_schedule, demo_exponential,
                           demo_sharp, exp_fn, f_moment, first_passage_law,
                           geometric_compound, heavy_tail_pair,
                           hit_before_return_prob, mixture, power_fn,
                           random_kernel, sample_passage_times,
                           stationary_distribution, stochastic_dominates)
from recur_moments.chain import _truncate_side
from recur_moments.cli import main as cli_main

MASTER_SEED = 20250823


def _report(num: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    print(line)
    assert ok, line


def _random_chains(count: int, max_states: int, salt: int):
    ss = np.random.SeedSequence(entropy=MASTER_SEED, spawn_key=(salt,))
    for child in ss.spawn(count):
        rng = np.random.default_rng(child)
        n = int(rng.integers(2, max_states + 1))
        yield random_kernel(n, rng)


def _burst():
    return burst_fn(default_burst_schedule(), "burst:default")


# ---------------------------------------------------------------------------
# 1. excursion decomposition: compound of conditioned laws = direct law


def test_criterion_1_compound_decomposition():
    t0 = time.monotonic()
    horizon = 50
    worst = 0.0
    n_pairs = 0
    for kernel in _random_chains(200, 6, salt=1):
        n = len(kernel.states)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                pi = hit_before_return_prob(kernel, i, j)
                u = conditioned_return_law(kernel, i, j, horizon)
                v = conditioned_hit_law(kernel, i, j, horizon)
                direct = first_passage_law(kernel, i, j, horizon)
                comp = geometric_compound(u, v, pi, horizon=horizon)
                dev = float(np.abs(comp.pmf_array() - direct.pmf_array()).max())
                worst = max(worst, dev)
                n_pairs += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(1, ok,
            f"geometric compound of conditioned excursion laws matches the "
            f"direct passage law on 200 random chains ({n_pairs} ordered "
            f"pairs, n <= {horizon}): max pointwise deviation {worst:.3g} "
            f"(tol 1e-10), {elapsed:.1f} s (limit 60)")


# ---------------------------------------------------------------------------
# 2. return-time split at a taboo state + crossing-law domination


def test_criterion_2_return_split_and_domination():
    horizon = 50
    worst_mix = 0.0
    worst_dom = 0.0
    all_dominate = True
    for kernel in _random_chains(200, 6, salt=1):
        n = len(kernel.states)
        for i in range(n):
            t_ii = first_passage_law(kernel, i, i, horizon)
            for j in range(n):
                if i == j:
                    continue
                pi = hit_before_return_prob(kernel, i, j)
                u = conditioned_return_law(kernel, i, j, horizon)
                cross = crossing_return_law(kernel, i, j, horizon)
                mix = mixture([u, cross], [1.0 - pi, pi])
                dev = float(np.abs(mix.pmf_array() - t_ii.pmf_array()).max())
                worst_mix = max(worst_mix, dev)
                v = conditioned_hit_law(kernel, i, j, horizon)
                t_ji = first_passage_law(kernel, j, i, horizon)
                for smaller in (t_ji, v):
                    rep = stochastic_dominates(cross, smaller, tol=1e-10)
                    all_dominate = all_dominate and rep.dominates
                    worst_dom = max(worst_dom, rep.max_cdf_violation)
    ok = worst_mix <= 1e-10 and all_dominate
    _report(2, ok,
            f"return law equals the avoid/cross mixture (max deviation "
            f"{worst_mix:.3g}, tol 1e-10) and the crossing return law "
            f"dominates both the hit-first law and the reverse passage law "
            f"(max CDF violation {worst_dom:.3g}, tol 1e-10)")


# ---------------------------------------------------------------------------
# 3. certified mean return time brackets the inverse stationary mass


def test_criterion_3_mean_return_vs_stationary():
    horizon = 600
    worst = 0.0
    all_certified = True
    for kernel in _random_chains(100, 8, salt=3):
        stat = stationary_distribution(kernel)
        for i in range(len(kernel.states)):
            est = f_moment(first_passage_law(kernel, i, i, horizon), power_fn(1))
            all_certified = all_certified and est.verdict == "converged"
            if est.verdict != "converged":
                continue
            target = 1.0 / float(stat[i])
            lower = math.exp(est.log_partial_sum)
            upper = math.exp(est.log_upper_bound)
            worst = max(worst, lower - target, target - upper)
    ok = all_certified and worst <= 1e-9
    _report(3, ok,
            f"certified interval for the mean return time brackets "
            f"1/stationary mass on 100 random chains (<= 8 states): worst "
            f"bracket excess {worst:.3g} (tol 1e-9), all intervals certified: "
            f"{all_certified}")


# ---------------------------------------------------------------------------
# 4. moment product inequalities, certified interval against interval


def test_criterion_4_moment_product_inequalities():
    horizon = 600
    log_k = {1: math.log(2.0), 2: 2.0 * math.log(2.0)}
    worst = -math.inf
    n_checks = 0
    all_certified = True
    for idx, kernel in enumerate(_random_chains(40, 5, salt=4)):
        n = len(kernel.states)
        ests = {}
        for a in range(n):
            for b in range(n):
                law = first_passage_law(kernel, a, b, horizon)
                for p in (1, 2):
                    est = f_moment(law, power_fn(p))
                    all_certified = all_certified and est.verdict == "converged"
                    ests[p, a, b] = est
        tuple_rng = np.random.default_rng(MASTER_SEED + 40 + idx)
        tuples = tuple_rng.integers(0, n, size=(12, 4))
        for p in (1, 2):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    # upper interval of the return moment vs product of
                    # lower intervals through an intermediate state
                    excess = (ests[p, i, i].log_upper_bound
                              - log_k[p]
                              - ests[p, i, j].log_partial_sum
                              - ests[p, j, i].log_partial_sum)
                    worst = max(worst, excess)
                    n_checks += 1
            for k, l_, i, j in map(tuple, tuples):
                excess = (ests[p, k, l_].log_upper_bound
                          - 2.0 * log_k[p]
                          - ests[p, k, i].log_partial_sum
                          - ests[p, i, j].log_partial_sum
                          - ests[p, j, l_].log_partial_sum)
                worst = max(worst, excess)
                n_checks += 1
    ok = all_certified and worst <= 1e-12
    _report(4, ok,
            f"certified moment products: E T^p route bounds hold for "
            f"p in (1, 2), K = 2^p on 40 random chains ({n_checks} "
            f"inequalities): worst log-space excess {worst:.3g} "
            f"(tol 1e-12), all certified: {all_certified}")


# ---------------------------------------------------------------------------
# 5. exponential moment split demo at delta = 0.1, p = 0.05


def test_criterion_5_exponential_demo(capsys):
    rep = demo_exponential(0.1, 0.05)
    rep2 = demo_exponential(0.1, 0.05)
    expected = math.log(0.95 * math.exp(0.1) + 0.05 * math.exp(0.2))
    closed_dev = abs(rep.finite_side["log_ef_return_closed_form"] - expected)
    route_dev = abs(rep.finite_side["log_ef_return_closed_form"]
                    - rep.finite_side["log_ef_return_from_law"])
    deterministic = (rep.series.crossing_index == rep2.series.crossing_index
                     and rep.series.log_partial == rep2.series.log_partial)
    rc_ok = cli_main(["demo", "exponential", "--delta", "0.1", "--p", "0.05"])
    rc_refuse = cli_main(["demo", "exponential", "--delta", "0.1", "--p", "0.5"])
    err = capsys.readouterr().err
    ok = (rep.succeeded and closed_dev <= 1e-14 and route_dev <= 1e-13
          and isinstance(rep.series.crossing_index, int) and deterministic
          and rc_ok == 0 and rc_refuse == 3 and "exp(" in err)
    _report(5, ok,
            f"exponential demo: finite side matches the two-term closed form "
            f"(dev {closed_dev:.3g}, tol 1e-14; law route dev {route_dev:.3g}), "
            f"series crosses at deterministic index "
            f"{rep.series.crossing_index}, CLI exits 0 and refuses the "
            f"subcritical ratio with exit 3")


# ---------------------------------------------------------------------------
# 6. burst demo with 49 witnesses, integer-exact margins


def test_criterion_6_burst_demo_fifty_witnesses():
    t0 = time.monotonic()
    k_max = 50
    rep = demo_sharp(k_max=k_max)
    margins_exact = all(
        w.log_gain == float(2 ** (w.k + 1) - 2) and w.log_gain > 6.0 * math.log(w.k)
        for w in rep.witnesses)
    # hub return: complete atomic law, so the moment interval is a point
    f = _burst()
    pair = heavy_tail_pair(f, k_max=k_max)
    weights: dict[int, float] = {2: math.log(0.5)}
    half = math.log(0.25)
    for dist in (pair.u, pair.v):
        for a, lp in zip(dist.atoms, dist.log_probs):
            key = int(a)
            add = half + float(lp)
            weights[key] = np.logaddexp(weights[key], add) if key in weights else add
    atoms = np.array(sorted(weights), dtype=np.int64)
    hub_law = PassageLaw.sparse(AtomicDist(
        atoms, np.array([weights[int(a)] for a in atoms])))
    est = f_moment(hub_law, f)
    hub_dev = abs(est.log_partial_sum - rep.finite_side["log_ef_hub_return"])
    elapsed = time.monotonic() - t0
    ok = (rep.succeeded and len(rep.witnesses) == k_max - 1 and margins_exact
          and est.verdict == "converged"
          and est.log_upper_bound == est.log_partial_sum
          and hub_dev <= 1e-12
          and rep.series.log_partial > math.log(1e6)
          and elapsed < 10.0)
    _report(6, ok,
            f"burst demo with {len(rep.witnesses)} witnesses: integer margins "
            f"beat 6 ln k exactly, hub-return moment certified as a point "
            f"interval (log value {est.log_partial_sum:.6f}, dev {hub_dev:.3g}),"
            f" exit-state series crosses ln 1e6, {elapsed:.2f} s (limit 10)")


# ---------------------------------------------------------------------------
# 7. petal chain: analytic laws vs kernel propagation


def _petal_cases():
    yield PetalChain(AtomicDist.from_pairs({3: 0.5, 5: 0.3, 9: 0.2}),
                     AtomicDist.from_pairs({4: 1.0}), 0.3)
    yield PetalChain(AtomicDist.from_pairs({1: 0.4, 6: 0.6}),
                     AtomicDist.from_pairs({2: 0.25, 19: 0.75}), 0.6)
    full1 = AtomicDist.from_pairs({3: 0.1, 5: 0.15, 7: 0.2, 9: 0.25, 11: 0.3})
    full2 = AtomicDist.from_pairs({2: 0.5, 4: 0.5})
    v1, w1 = _truncate_side(full1, 3)
    v2, w2 = _truncate_side(full2, 3)
    yield PetalChain(AtomicDist.from_pairs(dict(zip(map(int, v1), w1))),
                     AtomicDist.from_pairs(dict(zip(map(int, v2), w2))), 0.45)


def test_criterion_7_petal_consistency():
    horizon = 200
    worst_law = 0.0
    worst_moment = 0.0
    for chain in _petal_cases():
        kernel = chain.kernel()
        t00 = first_passage_law(kernel, "0", "0", horizon)
        vals, probs = chain.loop_mixture()
        u_law = PassageLaw.sparse(AtomicDist.from_pairs(
            {int(v): float(w) for v, w in zip(vals, probs)}))
        comp = geometric_compound(u_law, PassageLaw.point(2), chain.p,
                                  horizon=horizon)
        devs = [abs(comp.prob(n) - t00.prob(n)) for n in range(1, horizon + 1)]
        devs.append(abs(math.exp(comp.log_tail) - math.exp(t00.log_tail)))
        worst_law = max(worst_law, max(devs))
        # hub return moment: kernel law vs the explicit mixture formula
        max_atom = max(int(chain.u1.max_atom), int(chain.u2.max_atom), 2)
        t11 = first_passage_law(kernel, "1", "1", max_atom)
        half = math.log((1.0 - chain.p) / 2.0)
        for f in (power_fn(2), _burst()):
            est = f_moment(t11, f)
            terms = [math.log(chain.p) + f.log_f(2)]
            for dist in (chain.u1, chain.u2):
                for a, lp in zip(dist.atoms, dist.log_probs):
                    terms.append(half + float(lp) + f.log_f(int(a)))
            formula = float(np.logaddexp.reduce(sorted(terms)))
            worst_moment = max(worst_moment,
                               abs(est.log_partial_sum - formula))
    ok = worst_law <= 1e-10 and worst_moment <= 1e-10
    _report(7, ok,
            f"petal chains: compound-plus-two-shift law matches kernel "
            f"propagation for n <= {horizon} (max deviation {worst_law:.3g}, "
            f"tol 1e-10); hub-return f-moment matches the mixture formula "
            f"(max log deviation {worst_moment:.3g}, tol 1e-10)")


# ---------------------------------------------------------------------------
# 8. Monte Carlo concordance on the two-state chain


def test_criterion_8_monte_carlo_concordance():
    n = 1_000_000
    times, censored = sample_passage_times(TwoStateChain(0.5), 1, 1,
                                           n_samples=n, cap=100_000,
                                           seed=MASTER_SEED)
    assert not censored.any()
    emp_mean = float(times.mean())
    sigma = math.sqrt(2.0 / n)  # Var T = 2 exactly
    mean_dev = abs(emp_mean - 3.0)
    tmax = int(times.max())
    counts = np.bincount(times, minlength=tmax + 1)
    ecdf = np.cumsum(counts[1:]) / n
    cdf = 1.0 - 0.5 ** np.arange(0, tmax, dtype=float)
    ks = float(np.abs(ecdf - cdf).max())
    ks_crit = 1.628 / math.sqrt(n)  # 0.01-level critical value
    ok = mean_dev <= 3.0 * sigma and ks < ks_crit
    _report(8, ok,
            f"1e6-sample Monte Carlo agrees with the exact return law: "
            f"|mean - 3| = {mean_dev:.3g} (3 sigma = {3 * sigma:.3g}), "
            f"KS statistic {ks:.3g} (0.01-level critical {ks_crit:.3g})")


# ---------------------------------------------------------------------------
# 9. growth classifier labels, deterministic


def test_criterion_9_classifier_labels():
    verdicts = []
    for p in (0.5, 1.0, 2.0, 3.0):
        verdicts.append(classify(power_fn(p)).verdict == "SatisfiesC")
    worst_rate = 0.0
    for d in (0.01, 0.1, 1.0):
        c = classify(exp_fn(d))
        verdicts.append(c.verdict == "ViolatesC_ii")
        worst_rate = max(worst_rate, abs((c.rate or math.inf) - d))
    verdicts.append(classify(_burst()).verdict == "ViolatesC_i")
    a = classify(exp_fn(0.1))
    b = classify(exp_fn(0.1))
    deterministic = (a.verdict == b.verdict and a.rate == b.rate
                     and a.witnesses == b.witnesses)
    ok = all(verdicts) and worst_rate <= 1e-9 and deterministic
    _report(9, ok,
            f"classifier: powers satisfy the growth conditions, exponentials "
            f"violate subexponential growth with rate within {worst_rate:.3g} "
            f"of delta (tol 1e-9), bursts violate submultiplicativity; "
            f"verdicts deterministic: {deterministic}")
