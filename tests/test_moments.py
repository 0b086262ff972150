from __future__ import annotations

import json
import math

import numpy as np
import pytest

from recur_moments import (InvalidInput, PassageLaw,
                           TwoStateChain, VERDICT_CONVERGED, VERDICT_DIVERGED,
                           MOMENT_INCONCLUSIVE, build_two_state,
                           custom_fn, exp_fn, f_moment,
                           first_passage_law, load_kernel_json,
                           lower_bound_series, mc_f_moment, power_fn,
                           sample_passage_times)

from helpers import cycle_kernel, hitting_time_means


def _t11(horizon=80, p=0.5):
    return first_passage_law(build_two_state(p), 1, 1, horizon)


def _sampler_11(p):
    """Return times to state 1 of the two-state chain, for mc_f_moment."""
    chain = TwoStateChain(p)
    return lambda n, cap, rng: sample_passage_times(chain, 1, 1, n, cap, rng=rng)


# ---------------------------------------------------------------------------
# certified moments


def test_complete_law_moment_is_exact():
    # T_00 at p = 1/2 is {1: .5, 2: .5}; E T^2 = .5 (1 + 4) = 2.5
    law = first_passage_law(build_two_state(0.5), 0, 0, 10)
    est = f_moment(law, power_fn(2))
    assert est.verdict == VERDICT_CONVERGED
    assert abs(math.exp(est.log_partial_sum) - 2.5) <= 1e-14
    assert est.log_tail_bound == -math.inf
    assert est.log_upper_bound == est.log_partial_sum


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7, 1e308])
def test_power_log_table_equals_log_f_array(p, monkeypatch):
    # a power's log f(1..N) is p times a cached log n table, which grows to
    # the largest N asked for; each read is the old array bit for bit,
    # +inf where p log n passes the float range
    from recur_moments import moments

    monkeypatch.setattr(moments, "_log_n", np.zeros(0))
    f = power_fn(p)
    for n in (600, 1, 1500, 600):
        got = moments._log_f_range(f, n)
        want = f.log_f_array(np.arange(1, n + 1))
        assert got.tobytes() == want.tobytes()
    assert moments._log_n.size == 1500 and not moments._log_n.flags.writeable
    if p == 1e308:
        assert np.isinf(got[1:]).any()


def test_bracket_contains_true_mean():
    # E T_11 = 3 at p = 1/2
    est = f_moment(_t11(), power_fn(1))
    assert est.verdict == VERDICT_CONVERGED
    lower = math.exp(est.log_partial_sum)
    upper = math.exp(est.log_upper_bound)
    assert lower - 1e-12 <= 3.0 <= upper + 1e-12
    assert lower <= upper
    assert upper - lower <= 1e-9


def test_bracket_second_moment_and_variance():
    # E T^2 = 11, hence Var = 2
    m1 = f_moment(_t11(120), power_fn(1))
    m2 = f_moment(_t11(120), power_fn(2))
    e1 = math.exp(m1.log_partial_sum)
    e2 = math.exp(m2.log_partial_sum)
    assert abs(e2 - 11.0) <= 1e-9
    assert abs((e2 - e1 * e1) - 2.0) <= 1e-8


def test_divergence_detected_by_partial_sum():
    # e^delta (1-p) = e * 0.5 > 1: the series explodes and the partial sum
    # crosses the calibrated threshold well inside the horizon
    est = f_moment(_t11(400), exp_fn(1.0))
    assert est.verdict == VERDICT_DIVERGED
    assert est.log_tail_bound is None
    assert est.log_partial_sum > math.log(1e6) + 1.0


def test_convergent_exponential_is_certified():
    # e^0.5 * 0.5 < 1: finite moment; gamma rho = e^0.5 (0.5 + slack) < 1
    est = f_moment(_t11(200), exp_fn(0.5))
    assert est.verdict == VERDICT_CONVERGED
    # closed form: sum e^(k/2) (1/2)^(k-1) = e / (2 - e^(1/2)) ... compute directly
    q = math.exp(0.5) * 0.5
    exact = math.exp(1.0) * 0.5 / (1.0 - q)
    assert math.exp(est.log_partial_sum) <= exact + 1e-12
    assert math.exp(est.log_upper_bound) >= exact - 1e-12


def test_inconclusive_without_cert():
    pmf = np.zeros(12)
    pmf[1] = 0.5
    law = PassageLaw.dense(pmf, 0.5)  # tail mass but no certificate
    est = f_moment(law, power_fn(1))
    assert est.verdict == MOMENT_INCONCLUSIVE
    assert est.log_tail_bound is None
    # a conditioned law carries the certificate of its taboo operator
    from recur_moments import conditioned_return_law
    u = conditioned_return_law(build_two_state(0.5), 0, 1, 40)
    assert u.tail_cert is not None


def test_inconclusive_when_gamma_rho_too_big():
    # slow chain (rho ~ 0.9) against a ratio bound e^0.11 > 1/0.9: the tail
    # geometric series does not close even though a certificate exists
    law = first_passage_law(build_two_state(0.1), 1, 1, 300)
    assert law.tail_cert is not None
    est = f_moment(law, exp_fn(0.11))
    assert est.verdict == MOMENT_INCONCLUSIVE
    assert est.gamma is not None and est.rho is not None
    assert est.gamma * est.rho >= 1.0


# Two repros whose tails decay through a slow trap entered with a tiny
# probability: the survival ratio looks settled long before the trap's rate
# takes over.  k3: the trap c keeps itself with 0.99, so E e^(0.6 T) is
# infinite (e^0.6 * 0.99 > 1).  k4: the trap keeps itself with 0.999999, and
# E T^2 = 13.000001 for the return time of a.
_K3 = ('{"states":["a","b","c"],"rows":[[["b",1.0],["c",1e-30]],'
       '[["a",0.5],["b",0.5]],[["a",0.01],["c",0.99]]]}')
_K4 = ('{"states":["a","b","c"],"rows":[[["b",0.999999999999],["c",1e-12]],'
       '[["a",0.5],["b",0.5]],[["a",0.000001],["c",0.999999]]]}')
_K4_LOG_SECOND_MOMENT = math.log(13.000001)


def _json_kernel(tmp_path, text):
    path = tmp_path / "k.json"
    path.write_text(text)
    return load_kernel_json(path)


@pytest.mark.parametrize("h", [20, 40, 80, 120, 400])
def test_infinite_exponential_moment_behind_a_slow_trap_is_never_converged(tmp_path, h):
    law = first_passage_law(_json_kernel(tmp_path, _K3), "a", "a", h)
    assert f_moment(law, exp_fn(0.6)).verdict != VERDICT_CONVERGED


@pytest.mark.parametrize("h", [20, 40, 80, 120])
def test_power_bracket_behind_a_slow_trap_holds_the_true_moment(tmp_path, h):
    law = first_passage_law(_json_kernel(tmp_path, _K4), "a", "a", h)
    est = f_moment(law, power_fn(2))
    assert est.log_partial_sum <= _K4_LOG_SECOND_MOMENT
    if est.verdict == VERDICT_CONVERGED:
        assert est.log_upper_bound >= _K4_LOG_SECOND_MOMENT


def test_slow_trap_certificate_bound_is_tight(tmp_path):
    # k4's return to a at h = 40: Noda's solves certify rho within rounding
    # of Q's radius with a bound of e^-14.51; a certificate from shifts
    # above the radius had e^-5.30
    cert = first_passage_law(_json_kernel(tmp_path, _K4), "a", "a", 40).tail_cert
    assert cert.log_bound <= -14.0


def test_nilpotent_cycle_mean_has_a_usable_bracket():
    # T from 5 to 0 on the 40-cycle is 35.  Its taboo operator is nilpotent,
    # and a certificate from shifts above the radius 0 had a vector so steep
    # that the upper log read 389.23; five Noda solves give 17.92
    est = f_moment(first_passage_law(cycle_kernel(40), 5, 0, 10), power_fn(1))
    assert est.verdict == VERDICT_CONVERGED
    assert est.log_partial_sum <= math.log(35.0) <= est.log_upper_bound <= 18.0


# k5: E T^6 of the slow two-state chain's return time is e^20.24, past the
# threshold f(1) 1e6, yet finite; the certified bracket outranks the threshold
_K5_LOG_SIXTH_MOMENT = 20.23995844133858


@pytest.mark.parametrize("h", [60, 600, 1024])
def test_k5_sixth_moment_is_converged(h):
    est = f_moment(first_passage_law(build_two_state(0.1), 1, 1, h), power_fn(6))
    assert est.verdict == VERDICT_CONVERGED
    assert est.log_partial_sum <= _K5_LOG_SIXTH_MOMENT <= est.log_upper_bound


# Verdicts still wrong or loose, each pinned until the ROADMAP item named in
# its reason lands and flips it.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: exact tails from the operator's "
                   "solves converge k4's second moment at h = 40")
def test_k4_second_moment_is_converged_at_40(tmp_path):
    est = f_moment(first_passage_law(_json_kernel(tmp_path, _K4), "a", "a", 40), power_fn(2))
    assert est.verdict == VERDICT_CONVERGED
    assert est.log_partial_sum <= _K4_LOG_SECOND_MOMENT <= est.log_upper_bound


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: exact tails give the 40-cycle's "
                   "mean a bracket at most 1e-9 nats wide")
def test_nilpotent_cycle_mean_bracket_is_exact():
    est = f_moment(first_passage_law(cycle_kernel(40), 5, 0, 10), power_fn(1))
    assert est.verdict == VERDICT_CONVERGED
    assert est.log_upper_bound - est.log_partial_sum <= 1e-9


def test_custom_function_without_growth_bound_is_inconclusive():
    f = custom_fn("linear", lambda n: math.log(n))
    law = _t11(100)
    assert law.tail_cert is not None
    assert f_moment(law, f).verdict == MOMENT_INCONCLUSIVE


def test_threshold_is_scale_calibrated():
    # the verdict must not change when f is multiplied by a huge constant.
    # With no growth bound, E T = 3 stays below the threshold f(1) 1e6, and
    # the partial sum of E e^T, e^32.7, crosses it
    law = _t11(100)
    for log_f, verdict in ((math.log, MOMENT_INCONCLUSIVE), (float, VERDICT_DIVERGED)):
        base = custom_fn("plain", log_f)
        scaled = custom_fn("scaled", lambda n, log_f=log_f: log_f(n) + 500.0)
        assert f_moment(law, base).verdict == verdict
        assert f_moment(law, scaled).verdict == verdict


def test_moment_json_contract():
    est = f_moment(first_passage_law(build_two_state(0.5), 0, 0, 6), power_fn(1))
    obj = est.to_json_dict()
    assert set(obj) == {"log_partial_sum", "log_tail_bound", "verdict", "N"}
    assert obj["N"] == 6
    assert "-Infinity" in json.dumps(obj)  # complete law: explicit -inf tail bound
    est2 = f_moment(_t11(50), exp_fn(2.0))
    assert est2.to_json_dict()["log_tail_bound"] is None


def test_sparse_law_moment():
    from recur_moments import AtomicDist
    dist = AtomicDist.from_pairs({2: 0.5, 4: 0.5})
    est = f_moment(PassageLaw.sparse(dist), power_fn(2))
    assert est.verdict == VERDICT_CONVERGED
    assert abs(math.exp(est.log_partial_sum) - 10.0) <= 1e-12


# ---------------------------------------------------------------------------
# lower-bound series


def test_lower_bound_series_crossing():
    out = lower_bound_series(enumerate([math.log(0.4)] * 100), log_threshold=0.0,
                             max_terms=100)
    # partial sums 0.4, 0.8, 1.2: crosses at the third term (index 2)
    assert out.crossed and out.crossing_index == 2
    assert out.n_terms == 3
    assert abs(math.exp(out.log_partial) - 1.2) <= 1e-12
    # trace carries (index, log term, running log partial)
    k, lt, lp = out.trace[1]
    assert k == 1 and abs(math.exp(lp) - 0.8) <= 1e-12


def test_lower_bound_series_budget():
    out = lower_bound_series(((k, 0.0) for k in range(1000)), log_threshold=1e9,
                             max_terms=7)
    assert not out.crossed and out.n_terms == 7 and out.crossing_index is None


def test_lower_bound_series_indexed_items():
    out = lower_bound_series([(5, 0.0), (9, 1.0)], log_threshold=0.5)
    assert out.crossed and out.crossing_index == 9


def test_lower_bound_series_validates():
    with pytest.raises(InvalidInput):
        lower_bound_series([(0, 0.0)], log_threshold=1.0, max_terms=0)


@pytest.mark.parametrize("lt", [math.inf, -math.inf, math.nan])
def test_lower_bound_series_rejects_non_finite_threshold(lt):
    # a NaN threshold is never crossed and an infinite one cannot be written
    # as JSON; both are rejected before any term is drawn
    def terms():
        raise AssertionError("term drawn")
        yield (0, 0.0)

    with pytest.raises(InvalidInput, match="divergence threshold must be finite"):
        lower_bound_series(terms(), log_threshold=lt)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_matches_exact_mean():
    sampler = _sampler_11(0.5)
    est = mc_f_moment(sampler, power_fn(1), n_samples=200_000, cap=10_000, seed=42)
    assert est.n_censored == 0
    mean = est.mean
    assert abs(mean - 3.0) <= 4.0 * est.se_log * mean


def test_mc_censoring_gives_lower_bound():
    sampler = _sampler_11(0.5)
    est = mc_f_moment(sampler, power_fn(1), n_samples=100_000, cap=3, seed=42)
    assert est.n_censored > 0
    assert est.mean < 3.0  # censored mass contributes f(cap) < f(T)


def test_mc_deterministic_across_thread_counts(monkeypatch):
    sampler = _sampler_11(0.3)
    monkeypatch.delenv("RECUR_MOMENTS_THREADS", raising=False)
    a = mc_f_moment(sampler, power_fn(1), n_samples=150_000, cap=1000, seed=9)
    monkeypatch.setenv("RECUR_MOMENTS_THREADS", "8")
    b = mc_f_moment(sampler, power_fn(1), n_samples=150_000, cap=1000, seed=9)
    assert a.log_mean == b.log_mean and a.se_log == b.se_log


def test_mc_log_space_survives_huge_f():
    # f(T) ~ e^(40 T) overflows linear doubles instantly; log accumulation must not
    sampler = _sampler_11(0.5)
    est = mc_f_moment(sampler, exp_fn(40.0), n_samples=4096, cap=100, seed=3)
    assert math.isfinite(est.log_mean) and est.log_mean > 80.0 - math.log(4096)


def test_mc_validates():
    sampler = _sampler_11(0.5)
    with pytest.raises(InvalidInput):
        mc_f_moment(sampler, power_fn(1), n_samples=1, cap=10, seed=0)
    with pytest.raises(InvalidInput):
        mc_f_moment(sampler, power_fn(1), n_samples=10, cap=0, seed=0)
    with pytest.raises(InvalidInput, match="seed"):
        mc_f_moment(sampler, power_fn(1), n_samples=10, cap=10, seed=-1)
