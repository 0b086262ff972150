from __future__ import annotations

import math
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recur_moments import (BurstSchedule, FunctionKind, InvalidInput,
                           VERDICT_INCONCLUSIVE, VERDICT_SATISFIES,
                           VERDICT_VIOLATES_GROWTH, VERDICT_VIOLATES_SUBMULT,
                           burst_fn, burst_schedule_from_csv, classify,
                           custom_fn, default_burst_schedule, exp_fn,
                           log_power_fn, parse_function_spec, power_fn)

from helpers import max_submult_defect


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


def test_default_schedule_facts_hold_in_exact_integers():
    # the facts classify's certificate and the sharp demo quote, for the
    # first 200 bursts
    table = default_burst().burst_table
    cum, end = 0, 0  # u_1 + ... + u_{i-1} and s_{i-1} + u_{i-1}
    for i in range(1, 201):
        s_i, u_i = table.burst(i)
        assert (s_i, u_i) == (i * i << i, i << i)
        # the midpoint is an integer in the flat region after burst i-1
        mid, odd = divmod(s_i + u_i, 2)
        assert odd == 0 and table.midpoint(i) == mid and end <= mid <= s_i
        assert table.g(mid) == cum
        # margin u_i - sum_{k<i} u_k = 2^(i+1) - 2
        assert u_i - cum == table.margin(i) == (2 << i) - 2
        # the peak of g(n)/n sits at the burst end, and the peaks decrease
        assert table.g(s_i + u_i) == cum + u_i
        if i > 1:
            assert (cum + u_i) * end < cum * (s_i + u_i)
        cum, end = cum + u_i, s_i + u_i


def test_default_schedule_g_values():
    table = default_burst().burst_table
    g = table.g
    # g is 0 before the first burst, climbs 1 per step inside bursts,
    # and is flat in between
    assert g(1) == 0 and g(2) == 0
    assert g(3) == 1 and g(4) == 2
    assert g(5) == 2  # flat after burst 1 (s=2, u=2)
    assert g(16) == 2 and g(20) == 6 and g(24) == 10
    assert g(30) == 10  # flat after burst 2
    # at the i-th midpoint, g = sum of earlier lengths = (i-2) 2^i + 2
    for i in range(2, 12):
        assert g(table.midpoint(i)) == (i - 2) * (1 << i) + 2
        end = sum(k << k for k in range(1, i + 1))
        assert g(2 * table.midpoint(i)) == end


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


def _finite(*bursts):
    """A finite schedule of the (s_i, u_i) given."""
    return BurstSchedule(lambda i: bursts[i - 1][0], lambda i: bursts[i - 1][1],
                         n_bursts=len(bursts))


@pytest.mark.parametrize("bursts,message", [
    ((), "schedule must contain at least one burst"),
    (((0, 1), (5, 2), (10, 3)), "burst starts must be >= 1"),
    (((1, 1), (5, 0), (10, 3)), "burst length u_2 = 0 must be >= 1"),
    (((1, 1), (1, 2), (10, 3)), "burst starts must be strictly increasing"),
    (((1, 5), (3, 6), (20, 7)), "burst 1 overruns the next start: u=5, gap=2"),
    (((1, 3), (10, 2), (20, 4)), "burst lengths must be strictly increasing toward the end"),
], ids=["empty", "start-below-1", "length-below-1", "starts-not-increasing", "overrun",
        "lengths-not-increasing"])
def test_schedule_faults_at_construction(bursts, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        _finite(*bursts)


@pytest.mark.parametrize("start,length,message", [
    (lambda s: s, 1 << 25, "burst starts must be strictly increasing"),
    (lambda s: s + 1, 1 << 25, "burst 24 overruns the next start: u=402653184, gap=1"),
    (lambda s: 1 << 40, 0, "burst length u_25 = 0 must be >= 1"),
], ids=["starts-not-increasing", "overrun", "length-below-1"])
def test_schedule_faults_past_the_checked_prefix(start, length, message):
    # the default schedule's first 24 bursts, then a faulty 25th: the
    # schedule builds, and the same check fails as the schedule is read
    s_24 = 24 * 24 << 24
    sched = BurstSchedule(lambda i: i * i << i if i <= 24 else start(s_24),
                          lambda i: i << i if i <= 24 else length)
    table = burst_fn(sched).burst_table
    assert table.burst(24) == (s_24, 24 << 24)
    with pytest.raises(InvalidInput, match=re.escape(message)):
        table.burst(25)


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
                               log_power_fn(4), power_fn(2000), log_power_fn(5000)])
def test_submult_certificate_brute(f):
    # K = 2^2000 and 1.4845^5000 overflow a float; log K does not
    log_k = f.log_submult_certificate()
    for x in range(1, 120):
        for y in range(x, 120):
            assert f.log_f(x + y) <= log_k + f.log_f(x) + f.log_f(y) + 1e-12


def test_submult_certificate_none_for_others():
    assert exp_fn(1).log_submult_certificate() is None
    assert default_burst().log_submult_certificate() is None


# ---------------------------------------------------------------------------
# classifier verdicts


def test_classify_power_satisfies():
    out = classify(power_fn(2))
    assert out.verdict == VERDICT_SATISFIES
    assert "certificate" in out.detail


def test_classify_log_power_satisfies():
    assert classify(log_power_fn(1)).verdict == VERDICT_SATISFIES


@pytest.mark.parametrize("f, k_text", [(power_fn(2), "4"), (power_fn(1000), "1.07151e+301"),
                                       (power_fn(2000), "e^1386.29"),
                                       (log_power_fn(5000), "e^1975.51")])
def test_classify_prints_k_or_its_log(f, k_text):
    # 2.0 ** 2000 and 1.4845 ** 5000 used to raise OverflowError
    out = classify(f)
    assert out.verdict == VERDICT_SATISFIES
    assert out.detail == (f"analytic certificate: f(x+y) <= {k_text} f(x) f(y) "
                          "and log f(n)/n -> 0")


def test_classify_exponential_recovers_rate():
    for delta in (0.05, 0.37, 1.0):
        out = classify(exp_fn(delta))
        assert out.verdict == VERDICT_VIOLATES_GROWTH
        assert out.rate is not None and abs(out.rate - delta) <= 1e-9


def test_classify_burst_flags_submult():
    f = default_burst()
    out = classify(f)
    assert out.verdict == VERDICT_VIOLATES_SUBMULT
    # the midpoints m_i <= 2^18 (i = 1..11), largest margin 2^(i+1) - 2 first,
    # each the exact defect there
    table = f.burst_table
    assert out.witnesses == tuple((table.midpoint(i), table.midpoint(i), float((2 << i) - 2))
                                  for i in range(11, 0, -1))
    for x, _, defect in out.witnesses:
        assert defect == f.log_f(2 * x) - 2.0 * f.log_f(x)


def test_classify_slow_custom_inconclusive():
    # e^sqrt(n) satisfies C, but a custom function carries no certificate
    f = custom_fn("expsqrt", lambda n: math.sqrt(n))
    out = classify(f)
    assert out.verdict == VERDICT_INCONCLUSIVE


def test_classify_custom_exponential_like():
    # exactly linear log f violates C_ii, but only a registered kind can
    # prove it: no finite set of values of f does
    f = custom_fn("hidden-exp", lambda n: 0.2 * n)
    out = classify(f)
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.rate is None and out.witnesses == ()


@st.composite
def finite_burst_fns(draw):
    """A burst function on 1-5 bursts with strictly increasing lengths."""
    n = draw(st.integers(1, 5))
    u = list(accumulate(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))))
    gaps = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    s = list(accumulate([draw(st.integers(1, 30))] + [ui + g for ui, g in zip(u, gaps)]))
    return burst_fn(BurstSchedule(lambda i: s[i - 1], lambda i: u[i - 1], n_bursts=n))


@settings(max_examples=40, deadline=None)
@given(f=st.one_of(st.floats(0.05, 50.0).map(power_fn), st.floats(0.05, 50.0).map(log_power_fn),
                   finite_burst_fns()))
def test_certificate_bounds_scanned_defect(f):
    # the scan grid covers every burst and, for bursts, every midpoint
    out = classify(f)
    log_k = f.log_submult_certificate()
    assert out.verdict == VERDICT_SATISFIES and out.witnesses == ()
    assert max_submult_defect(f, 149) <= log_k + 1e-12 * max(1.0, log_k)


def test_classify_never_scans():
    calls = []
    fns = [power_fn(2), log_power_fn(1), exp_fn(0.1), default_burst(),
           custom_fn("counted", lambda n: calls.append(n) or 0.1 * n),
           burst_fn(BurstSchedule(lambda i: 4 ** i, lambda i: i + 1))]
    verdicts = [classify(f).verdict for f in fns]
    assert verdicts == [VERDICT_SATISFIES, VERDICT_SATISFIES, VERDICT_VIOLATES_GROWTH,
                        VERDICT_VIOLATES_SUBMULT, VERDICT_INCONCLUSIVE, VERDICT_INCONCLUSIVE]
    assert calls == []


def test_classify_other_unbounded_burst_inconclusive_with_witnesses():
    # the default schedule's formulas, but not the one cached, verified
    # object that classify recognises by identity
    assert default_burst_schedule() is default_burst_schedule()
    f = burst_fn(BurstSchedule(lambda i: i * i << i, lambda i: i << i))
    out = classify(f)
    assert out.verdict == VERDICT_INCONCLUSIVE
    assert out.witnesses == classify(default_burst()).witnesses


def test_classify_finite_burst_past_float_range_inconclusive():
    # K = e^(10^400) exists but its log is no float: ViolatesC_ii with rate
    # ~1 from a growth profile that never reached the end of the burst
    f = burst_fn(BurstSchedule(lambda i: 2, lambda i: 10 ** 400, n_bursts=1))
    assert classify(f).verdict == VERDICT_INCONCLUSIVE


def test_classify_capped_custom_inconclusive():
    # bounded, so it satisfies C; a growth profile to 1e6 stops before the
    # cap and read it as ViolatesC_ii with rate 0.01
    f = custom_fn("capped", lambda n: 0.01 * min(n, 2_000_000))
    assert classify(f).verdict == VERDICT_INCONCLUSIVE


def test_classify_near_exponential_stays_inconclusive():
    # log f = 0.2 n + ln n: the checkpoint sups creep toward 0.2 but have
    # not met the 1e-9 stability bar by the default extent, and no witness
    # ladder fires, so the classifier refuses to guess
    f = custom_fn("noisy-exp", lambda n: 0.2 * n + math.log(n))
    out = classify(f)
    assert out.verdict == VERDICT_INCONCLUSIVE
