from __future__ import annotations

import math

import numpy as np
import pytest

from recur_moments import (BurstSchedule, FunctionKind, InvalidInput,
                           VERDICT_INCONCLUSIVE, VERDICT_SATISFIES,
                           VERDICT_VIOLATES_GROWTH, VERDICT_VIOLATES_SUBMULT,
                           burst_fn, burst_schedule_from_csv, classify,
                           custom_fn, default_burst_schedule, exp_fn,
                           growth_profile, log_power_fn, parse_function_spec,
                           power_fn, submult_scan)


def default_burst():
    return burst_fn(default_burst_schedule(), "burst:default")


# ---------------------------------------------------------------------------
# burst schedule closed forms (s_i = i^2 2^i, u_i = i 2^i)


def test_default_schedule_first_bursts():
    table = default_burst().burst_table
    assert table.burst(1) == (2, 2)
    assert table.burst(2) == (16, 8)
    assert table.burst(3) == (72, 24)
    assert table.burst(4) == (256, 64)


def test_default_schedule_midpoints_and_margins():
    table = default_burst().burst_table
    for i in range(1, 15):
        # midpoint 2^(i-1) i (i+1); margin 2^(i+1) - 2, both exact integers
        assert table.midpoint(i) == (1 << (i - 1)) * i * (i + 1)
        assert table.margin(i) == (1 << (i + 1)) - 2


def test_default_schedule_g_values():
    f = default_burst()
    # g is 0 before the first burst, climbs 1 per step inside bursts,
    # and is flat in between
    assert f.burst_g(1) == 0 and f.burst_g(2) == 0
    assert f.burst_g(3) == 1 and f.burst_g(4) == 2
    assert f.burst_g(5) == 2  # flat after burst 1 (s=2, u=2)
    assert f.burst_g(16) == 2 and f.burst_g(20) == 6 and f.burst_g(24) == 10
    assert f.burst_g(30) == 10  # flat after burst 2
    # at the i-th midpoint, g = sum of earlier lengths = (i-2) 2^i + 2
    table = f.burst_table
    for i in range(2, 12):
        assert f.burst_g(table.midpoint(i)) == (i - 2) * (1 << i) + 2
        end = sum(k << k for k in range(1, i + 1))
        assert f.burst_g(2 * table.midpoint(i)) == end


def test_burst_defect_identity():
    # f(2x_i) / f(x_i)^2 = e^(margin_i) exactly in log space
    f = default_burst()
    table = f.burst_table
    for i in range(1, 12):
        x = table.midpoint(i)
        defect = f.log_f(2 * x) - 2.0 * f.log_f(x)
        assert defect == float(table.margin(i))


def test_schedule_validation_rejects_overlap():
    with pytest.raises(InvalidInput):
        bad = BurstSchedule(start_of=lambda i: 2 * i, length_of=lambda i: 5)
        burst_fn(bad).log_f(50)


def test_schedule_csv_roundtrip(tmp_path):
    path = tmp_path / "sched.csv"
    path.write_text("i,s,u\n1,4,2\n2,16,4\n3,64,8\n")
    sched = burst_schedule_from_csv(path)
    f = burst_fn(sched)
    assert f.burst_table.burst(2) == (16, 4)
    assert sched.n_bursts == 3
    with pytest.raises(InvalidInput):
        f.burst_table.burst(4)


# ---------------------------------------------------------------------------
# function families


def test_log_f_matches_closed_forms():
    assert power_fn(2).log_f(10) == 2.0 * math.log(10)
    assert log_power_fn(3).log_f(7) == 3.0 * math.log(math.log(9))
    assert exp_fn(0.25).log_f(8) == 2.0
    assert default_burst().log_f(20) == 6.0


def test_log_f_array_matches_scalar():
    ns = np.array([1, 2, 5, 17, 100, 1000])
    for f in (power_fn(1.5), log_power_fn(2), exp_fn(0.1), default_burst(),
              custom_fn("sq", lambda n: float(n) ** 0.5)):
        vec = f.log_f_array(ns)
        scal = np.array([f.log_f(int(n)) for n in ns])
        assert np.abs(vec - scal).max() <= 1e-12


def test_domain_validation():
    f = power_fn(1)
    with pytest.raises(InvalidInput):
        f.log_f(0)
    with pytest.raises(InvalidInput):
        f.log_f_array(np.array([0, 1]))
    for bad in (0.0, -1.0, math.inf, math.nan):
        for make in (power_fn, log_power_fn, exp_fn):
            with pytest.raises(InvalidInput):
                make(bad)


def test_parse_function_spec():
    assert parse_function_spec("power:2").kind is FunctionKind.POWER
    assert parse_function_spec("logpow:1.5").param == 1.5
    assert parse_function_spec("exp:0.3").param == 0.3
    assert parse_function_spec("burst:default").kind is FunctionKind.BURST
    for bad in ("power", "power:x", "wat:1", "burst:other"):
        with pytest.raises(InvalidInput):
            parse_function_spec(bad)


# ---------------------------------------------------------------------------
# growth ratio bounds and submultiplicativity certificates, brute-checked


@pytest.mark.parametrize("f", [power_fn(2.5), log_power_fn(3), exp_fn(0.4),
                               default_burst()])
def test_growth_ratio_bound_holds(f):
    for start in (1, 7, 50):
        gamma = f.growth_ratio_bound(start)
        log_gamma = math.log(gamma)
        for n in range(start, start + 400):
            assert f.log_f(n + 1) - f.log_f(n) <= log_gamma + 1e-12


def test_growth_ratio_bound_none_for_custom():
    assert custom_fn("id", lambda n: float(n)).growth_ratio_bound(5) is None


@pytest.mark.parametrize("f", [power_fn(2), power_fn(0.5), log_power_fn(1),
                               log_power_fn(4)])
def test_submult_certificate_brute(f):
    log_k = math.log(f.submult_certificate())
    for x in range(1, 120):
        for y in range(x, 120):
            assert f.log_f(x + y) <= log_k + f.log_f(x) + f.log_f(y) + 1e-12


def test_submult_certificate_none_for_others():
    assert exp_fn(1).submult_certificate() is None
    assert default_burst().submult_certificate() is None


# ---------------------------------------------------------------------------
# scans, profiles


def test_submult_scan_finds_burst_defects():
    f = default_burst()
    xs = range(1, 200)
    report = submult_scan(f, xs, xs)
    assert report.violation_witnesses
    x, y, defect = report.violation_witnesses[0]
    assert defect == report.log_grid_k
    # the scan grid is augmented with midpoints, so the exact defect appears
    assert report.log_grid_k >= 6.0


def test_submult_scan_power_stays_below_cert():
    # defects exist (K = 1 fails) but never exceed the analytic constant;
    # the largest, f(2)/f(1)^2 = 4, attains it exactly
    f = power_fn(2)
    report = submult_scan(f, range(1, 100), range(1, 100))
    assert abs(report.log_grid_k - math.log(4.0)) <= 1e-12
    assert all(d <= math.log(4.0) + 1e-12 for _, _, d in report.violation_witnesses)


def test_growth_profile_hits_burst_peaks():
    f = default_burst()
    prof = growth_profile(f, 10**5, (10**3, 10**4, 10**5))
    # peak at burst end e_i = s_i + u_i with value ((i-1) 2^(i+1) + 2) / (i (i+1) 2^i)
    table = f.burst_table
    for i in (3, 5, 7):
        end = table.burst(i)[0] + table.burst(i)[1]
        if end > 10**5:
            continue
        idx = int(np.nonzero(prof.ns == end)[0][0])
        expected = ((i - 1) * (1 << (i + 1)) + 2) / end
        assert abs(prof.values[idx] - expected) <= 1e-12
    assert len(prof.running_sup_tail) == 3
    # running sup over tails is non-increasing
    assert prof.running_sup_tail[0] >= prof.running_sup_tail[1] >= prof.running_sup_tail[2]


def test_growth_profile_validates_inputs():
    f = power_fn(1)
    with pytest.raises(InvalidInput):
        growth_profile(f, 100, ())
    with pytest.raises(InvalidInput):
        growth_profile(f, 100, (1000,))


# ---------------------------------------------------------------------------
# classifier verdicts


def test_classify_power_satisfies():
    out = classify(power_fn(2))
    assert out.verdict == VERDICT_SATISFIES
    assert "certificate" in out.detail


def test_classify_log_power_satisfies():
    assert classify(log_power_fn(1)).verdict == VERDICT_SATISFIES


def test_classify_exponential_recovers_rate():
    for delta in (0.05, 0.37, 1.0):
        out = classify(exp_fn(delta))
        assert out.verdict == VERDICT_VIOLATES_GROWTH
        assert out.rate is not None and abs(out.rate - delta) <= 1e-9


def test_classify_burst_flags_submult():
    out = classify(default_burst())
    assert out.verdict == VERDICT_VIOLATES_SUBMULT
    assert out.witnesses
    # evidence: grid maxima strictly increase across nested extensions
    maxima = out.grid_maxima
    increases = sum(1 for a, b in zip(maxima, maxima[1:]) if b > a + 1e-9)
    assert increases >= 5


def test_classify_slow_custom_inconclusive():
    # e^sqrt(n): submultiplicative (so no C_i witnesses) but the growth
    # profile has not stabilized near zero by n = 1e5
    f = custom_fn("expsqrt", lambda n: math.sqrt(n))
    out = classify(f, profile_n=10**5)
    assert out.verdict == VERDICT_INCONCLUSIVE


@pytest.mark.parametrize("profile_n, checkpoints", [
    (50, (1, 5, 50)),
    (1000, (10, 100, 1000)),
    (10**5, (10**3, 10**4, 10**5)),
    (10**6, (10**4, 10**5, 10**6)),
])
def test_classify_checkpoints_follow_profile_n(profile_n, checkpoints):
    f = custom_fn("hidden-exp", lambda n: 0.2 * n)
    assert classify(f, profile_n=profile_n).profile.checkpoints == checkpoints


@pytest.mark.parametrize("profile_n", [0, -5])
def test_classify_rejects_profile_n_below_1_before_any_scan(profile_n):
    calls = []
    scanned = custom_fn("counted", lambda n: calls.append(n) or 0.1 * n)
    for f in (power_fn(2), scanned):
        with pytest.raises(InvalidInput, match="profile_n"):
            classify(f, profile_n=profile_n)
    assert calls == []


def test_classify_custom_exponential_like():
    # a custom function with exactly linear log f is detected by the profile
    # route (checkpoint sups stabilize at the rate) without a registered kind
    f = custom_fn("hidden-exp", lambda n: 0.2 * n)
    out = classify(f)
    assert out.verdict == VERDICT_VIOLATES_GROWTH
    assert abs(out.rate - 0.2) <= 1e-9


def test_classify_near_exponential_stays_inconclusive():
    # log f = 0.2 n + ln n: the checkpoint sups creep toward 0.2 but have
    # not met the 1e-9 stability bar by the default extent, and no witness
    # ladder fires, so the classifier refuses to guess
    f = custom_fn("noisy-exp", lambda n: 0.2 * n + math.log(n))
    out = classify(f)
    assert out.verdict == VERDICT_INCONCLUSIVE
