from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp as sp_logsumexp

from recur_moments import (InvalidInput, PreconditionFailed,
                           WitnessSearchExhausted, burst_fn, custom_fn,
                           default_burst_schedule, demo_exponential,
                           demo_sharp, heavy_tail_pair, parse_function_spec,
                           power_fn, witness_search, write_series_trace)
from recur_moments import constructions


def _burst():
    return burst_fn(default_burst_schedule(), "burst:default")


def _default_g(k: int) -> int:
    # f-exponent at the k-th witness point of the default schedule
    return (k - 2) * 2 ** k + 2


# ---------------------------------------------------------------------------
# witness search


def test_burst_witnesses_exact():
    ws = witness_search(_burst(), count=4)
    got = [(w.k, w.x, w.log_gain) for w in ws]
    assert got == [(2, 12, 6.0), (3, 48, 14.0), (4, 160, 30.0), (5, 480, 62.0)]
    for w in ws:
        assert w.y == w.x
        assert w.log_gain > w.required
        assert w.required == 6.0 * math.log(w.k)
    xs = [w.x for w in ws]
    assert xs == sorted(set(xs))


def test_burst_witness_gain_is_true_defect():
    f = _burst()
    for w in witness_search(f, count=6):
        defect = f.log_f(w.x + w.y) - f.log_f(w.x) - f.log_f(w.y)
        assert defect == w.log_gain  # integer exponents: exact


def test_witness_search_rejects_non_burst_function():
    # witnesses are exact only at burst midpoints; no other f is searched
    for f in (power_fn(2), custom_fn("nsq-exponent", lambda n: float(n * n))):
        with pytest.raises(InvalidInput, match="is not a burst function"):
            witness_search(f, count=3)


def test_partial_findings_attached_on_exhaustion(tmp_path):
    # the first three bursts of the default schedule, margins 2, 6 and 14:
    # k = 2 and 3 find witnesses at the midpoints 12 and 48, and the
    # schedule ends before a margin above 6 ln 4 for k = 4
    path = tmp_path / "three.csv"
    path.write_text("i,s,u\n1,2,2\n2,16,8\n3,72,24\n")
    f = parse_function_spec(f"burst:file={path}")
    with pytest.raises(WitnessSearchExhausted, match="schedule ends .* for k=4") as exc:
        witness_search(f, count=3)
    assert [(w.k, w.x, w.y, w.log_gain) for w in exc.value.found] == [
        (2, 12, 12, 6.0), (3, 48, 48, 14.0)]
    assert [w.required for w in exc.value.found] == [6.0 * math.log(2), 6.0 * math.log(3)]


def test_witness_search_validates():
    with pytest.raises(InvalidInput):
        witness_search(_burst(), count=0)


# ---------------------------------------------------------------------------
# heavy-tail pair


def test_heavy_tail_pair_structure():
    pair = heavy_tail_pair(_burst(), k_max=8)
    assert [w.k for w in pair.witnesses] == list(range(2, 9))
    assert pair.u.is_complete and pair.v.is_complete
    assert np.all(np.diff(pair.u.atoms) > 0)
    assert pair.u.atoms.tolist() == [12, 48, 160, 480, 1344, 3584, 9216]
    # symmetric witnesses: both sides coincide
    assert pair.u.atoms.tolist() == pair.v.atoms.tolist()
    np.testing.assert_allclose(pair.u.log_probs, pair.v.log_probs, rtol=0, atol=0)
    assert pair.log_ef_u == pair.log_ef_v


def test_heavy_tail_pair_moment_closed_form():
    # weights 1/(f(x_k) k^2) make E f(U) = sum 1/k^2 over the normalizer,
    # all of it computable from the schedule alone
    pair = heavy_tail_pair(_burst(), k_max=8)
    ks = np.arange(2, 9, dtype=float)
    g = np.array([_default_g(int(k)) for k in ks], dtype=float)
    log_z = sp_logsumexp(-g - 2.0 * np.log(ks))
    expect = math.log(np.sum(ks ** -2.0)) - log_z
    assert abs(pair.log_ef_u - expect) <= 1e-12
    np.testing.assert_allclose(pair.u.log_probs,
                               -g - 2.0 * np.log(ks) - log_z, atol=1e-12)


def test_heavy_tail_pair_validates():
    with pytest.raises(InvalidInput):
        heavy_tail_pair(_burst(), k_max=2)
    with pytest.raises(InvalidInput, match="is not a burst function"):
        heavy_tail_pair(power_fn(2), k_max=4)


# ---------------------------------------------------------------------------
# sharp demonstration


def test_demo_sharp_defaults_succeed():
    rep = demo_sharp()
    assert rep.succeeded and rep.series.crossed
    assert rep.series.crossing_index == 4
    assert rep.series.n_terms == 3 == len(rep.series.trace)
    assert rep.series.log_partial > rep.log_threshold
    assert [w.k for w in rep.witnesses] == list(range(2, 9))
    assert rep.params == {"k_max": 8, "p": 0.5, "function": "burst:default"}


def test_demo_sharp_series_terms_are_pattern_probabilities():
    # term k = f(x_k + y_k) * P_U(x_k) * P_V(y_k) * p ((1-p)/2)^2
    p = 0.5
    rep = demo_sharp(p=p)
    pair = heavy_tail_pair(_burst(), k_max=8)
    f = _burst()
    const = math.log(p) + 2.0 * math.log((1.0 - p) / 2.0)
    for (k, log_term, _), w, lpu, lpv in zip(rep.series.trace, pair.witnesses,
                                             pair.u.log_probs, pair.v.log_probs):
        assert k == w.k
        expect = f.log_f(w.x + w.y) + float(lpu) + float(lpv) + const
        assert log_term == pytest.approx(expect, abs=1e-12)


def test_demo_sharp_finite_side_oracle():
    # hub return: 2 steps w.p. p (exit edge out and back), else a petal
    # length drawn from either loop with probability (1-p)/2 each
    p = 0.5
    rep = demo_sharp(p=p)
    pair = heavy_tail_pair(_burst(), k_max=8)
    f = _burst()
    terms = [math.log(p) + f.log_f(2)]
    for atoms, lps in ((pair.u.atoms, pair.u.log_probs),
                       (pair.v.atoms, pair.v.log_probs)):
        for a, lp in zip(atoms, lps):
            terms.append(math.log((1.0 - p) / 2.0) + float(lp) + f.log_f(int(a)))
    assert rep.finite_side["log_ef_hub_return"] == pytest.approx(
        float(sp_logsumexp(terms)), abs=1e-12)
    assert rep.finite_side["log_ef_u"] == pytest.approx(pair.log_ef_u, abs=0)
    # the divergent side dwarfs every finite quantity
    assert rep.series.log_partial > rep.finite_side["log_ef_hub_return"] + 10.0


def test_demo_sharp_honest_failure():
    # two witnesses cannot reach the default threshold: verdict stays False
    rep = demo_sharp(k_max=3)
    assert not rep.succeeded and not rep.series.crossed
    assert rep.series.n_terms == 2
    assert rep.series.crossing_index is None


def test_demo_sharp_low_threshold_crosses_immediately():
    rep = demo_sharp(log_threshold=math.log(10.0))
    assert rep.series.crossing_index == 2 and rep.series.n_terms == 1


def test_demo_sharp_validates():
    with pytest.raises(InvalidInput):
        demo_sharp(p=1.0)
    with pytest.raises(InvalidInput):
        demo_sharp(k_max=2)


def test_demo_sharp_rejects_non_finite_threshold_before_witness_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("witness search ran")

    monkeypatch.setattr(constructions, "witness_search", no_search)
    for lt in (math.nan, math.inf):
        with pytest.raises(InvalidInput, match="divergence threshold must be finite"):
            demo_sharp(log_threshold=lt)


def test_demo_report_json():
    rep = demo_sharp()
    obj = json.loads(rep.to_json())
    assert obj["name"] == "sharp" and obj["succeeded"] is True
    assert obj["series"]["crossing_index"] == 4
    assert len(obj["witnesses"]) == 7
    assert obj["witnesses"][0] == {"k": 2, "x": 12, "y": 12,
                                   "log_gain": 6.0,
                                   "required": 6.0 * math.log(2.0)}
    assert set(obj["finite_side"]) == {"log_ef_u", "log_ef_v",
                                       "log_ef_hub_return"}


# ---------------------------------------------------------------------------
# exponential demonstration


def test_demo_exponential_defaults():
    rep = demo_exponential()
    assert rep.succeeded
    # independent plain-float oracle for the crossing index
    partial, k = 0.0, 2
    while True:
        partial += math.exp(0.5 * k) * 0.25 * 0.75 ** (k - 2)
        if partial > 1e6:
            break
        k += 1
    assert rep.series.crossing_index == k
    assert rep.series.n_terms == k - 1
    assert rep.series.trace[-1][0] == k


def test_demo_exponential_closed_form_matches_law():
    rep = demo_exponential(0.5, 0.25)
    a = rep.finite_side["log_ef_return_closed_form"]
    b = rep.finite_side["log_ef_return_from_law"]
    assert abs(a - b) <= 1e-13
    assert a == pytest.approx(
        math.log(0.75 * math.exp(0.5) + 0.25 * math.exp(1.0)), abs=1e-15)


def test_demo_exponential_precondition():
    with pytest.raises(PreconditionFailed) as exc:
        demo_exponential(0.1, 0.5)  # exp(0.1) * 0.5 < 1
    assert "exp" in str(exc.value)
    with pytest.raises(InvalidInput):
        demo_exponential(0.5, 0.0)
    with pytest.raises(InvalidInput):
        demo_exponential(-1.0, 0.25)


def test_demo_exponential_budget_failure():
    rep = demo_exponential(0.5, 0.25, max_terms=5)
    assert not rep.succeeded
    assert rep.series.n_terms == 5


# ---------------------------------------------------------------------------
# trace serialization


def test_write_series_trace_roundtrip(tmp_path):
    rep = demo_exponential()
    path = tmp_path / "trace.csv"
    write_series_trace(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "log_term", "log_partial"]
    assert len(rows) == rep.series.n_terms + 1
    assert rows[1][0] == "2"
    # %.17g preserves doubles exactly
    for row, (k, lt, lp) in zip(rows[1:], rep.series.trace):
        assert int(row[0]) == k
        assert float(row[1]) == lt and float(row[2]) == lp


def test_write_series_trace_to_stream():
    rep = demo_sharp()
    buf = io.StringIO()
    write_series_trace(rep, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == rep.series.n_terms + 1
