"""Each input check of the package, reached once: the call, the exception it
raises and a piece of its message."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from recur_moments import (AtomicDist, IncomparableLaws, InvalidInput, PassageLaw,
                           PetalChain, TransitionKernel, TwoStateChain,
                           build_petal_chain, build_two_state,
                           burst_schedule_from_csv, conditioned_hit_law,
                           conditioned_return_law, convolve, crossing_return_law,
                           first_passage_law, geometric_compound,
                           hit_before_return_prob, mixture, power_fn,
                           random_kernel, sample_passage_times,
                           stochastic_dominates)
from recur_moments import cli
from recur_moments.logspace import log1mexp, log_sub

_HALF = math.log(0.5)
_U1 = AtomicDist.from_pairs({3: 0.5, 7: 0.5})
_U2 = AtomicDist.from_pairs({2: 0.25, 5: 0.75})


def _dense():
    return PassageLaw.dense([0.5, 0.25], 0.25)


def _two_state():
    return build_two_state(0.5)


def _ints(*values):
    return np.array(values, dtype=np.int64)


_RAISES = {
    # AtomicDist and its constructor from pairs
    "atoms-shape": (lambda: AtomicDist(_ints(1, 2), np.array([0.0])),
                    InvalidInput, "1-d arrays of equal length"),
    "atoms-empty": (lambda: AtomicDist(_ints(), np.array([])),
                    InvalidInput, "at least one atom"),
    "atoms-below-1": (lambda: AtomicDist(_ints(0), np.array([0.0])),
                      InvalidInput, "atoms must be >= 1"),
    "atoms-unsorted": (lambda: AtomicDist(_ints(2, 1), np.array([_HALF, _HALF])),
                       InvalidInput, "strictly increasing"),
    "atoms-tail-above-1": (lambda: AtomicDist(_ints(1), np.array([-1.0]), 0.5),
                           InvalidInput, "tail mass exceeds 1"),
    "pairs-empty": (lambda: AtomicDist.from_pairs({}), InvalidInput, "no atoms given"),
    "pairs-zero": (lambda: AtomicDist.from_pairs({1: 0.0, 2: 1.0}),
                   InvalidInput, "must be positive"),
    # dense laws: shape and sign
    "dense-empty": (lambda: PassageLaw.dense([], 1.0), InvalidInput, "nonempty 1-d"),
    "dense-2d": (lambda: PassageLaw.dense([[1.0]], 0.0), InvalidInput, "nonempty 1-d"),
    "dense-negative": (lambda: PassageLaw.dense([-0.5, 1.5], 0.0),
                       InvalidInput, "nonnegative"),
    "dense-negative-tail": (lambda: PassageLaw.dense([1.0], -0.5),
                            InvalidInput, "nonnegative"),
    # NaN > 0 is False, so a NaN tail read as no tail: a complete law whose
    # moment printed converged
    "dense-nan-tail": (lambda: PassageLaw.dense([1.0], math.nan), InvalidInput, "nonnegative"),
    "dense-log-empty": (lambda: PassageLaw._dense_log([], 0.0),
                        InvalidInput, "log-pmf must be a nonempty"),
    # reads a law cannot answer
    "sparse-log-pmf": (lambda: PassageLaw.point(2).log_pmf, InvalidInput, "no dense pmf"),
    "dense-atomic": (lambda: _dense().atomic, InvalidInput, "no atomic"),
    "log-prob-0": (lambda: _dense().log_prob(0), InvalidInput, "passage times are >= 1"),
    "pmf-past-horizon": (lambda: _dense().pmf_array(3), InvalidInput, "cannot extend"),
    "to-dense-0": (lambda: _dense().to_dense(0), InvalidInput, "horizon must be >= 1"),
    "dominates-open-sparse": (
        lambda: stochastic_dominates(
            PassageLaw.sparse(AtomicDist(_ints(1), np.array([_HALF]), _HALF)),
            PassageLaw.point(1)),
        IncomparableLaws, "unassigned tail mass"),
    # laws of a kernel
    "passage-horizon-0": (lambda: first_passage_law(_two_state(), 0, 1, 0),
                          InvalidInput, "horizon must be >= 1"),
    "hit-prob-same-state": (lambda: hit_before_return_prob(_two_state(), 1, 1),
                            InvalidInput, "must differ"),
    "return-avoiding-horizon-0": (lambda: conditioned_return_law(_two_state(), 0, 1, 0),
                                  InvalidInput, "horizon must be >= 1"),
    "hit-first-horizon-0": (lambda: conditioned_hit_law(_two_state(), 0, 1, 0),
                            InvalidInput, "horizon must be >= 1"),
    "return-crossing-horizon-0": (lambda: crossing_return_law(_two_state(), 0, 1, 0),
                                  InvalidInput, "horizon must be >= 1"),
    # the calculus: operand types, and results with nothing left in the horizon
    "convolve-atomic": (lambda: convolve(_U1, _U2), InvalidInput, "two PassageLaw operands"),
    "convolve-past-horizon": (
        lambda: convolve(PassageLaw.point(5), PassageLaw.point(5), horizon=3),
        InvalidInput, "no atoms within the horizon"),
    "compound-atomic": (lambda: geometric_compound(_U1, _U2, 0.5),
                        InvalidInput, "PassageLaw operands"),
    "compound-mixed": (lambda: geometric_compound(_dense(), PassageLaw.point(1), 0.5),
                       InvalidInput, "same representation"),
    "compound-past-horizon": (
        lambda: geometric_compound(PassageLaw.point(5), PassageLaw.point(5), 0.5, horizon=3),
        InvalidInput, "no atoms within the horizon"),
    "mixture-empty": (lambda: mixture([], []), InvalidInput, "matching nonempty"),
    "mixture-nan-weight": (lambda: mixture([PassageLaw.point(1), PassageLaw.point(2)],
                                           [math.nan, 1.0]),
                           InvalidInput, "sum to 1"),
    "mixture-mixed": (lambda: mixture([_dense(), PassageLaw.point(1)], [0.5, 0.5]),
                      InvalidInput, "cannot mix dense and sparse"),
    # chains
    "random-kernel-0": (lambda: random_kernel(0, np.random.default_rng(0)),
                        InvalidInput, "at least one state"),
    "duplicate-states": (lambda: TransitionKernel.from_json_dict(
                             {"states": ["a", "a"], "rows": [[["a", 1.0]], [["a", 1.0]]]}),
                         InvalidInput, "duplicate state names"),
    "kernel-bool-probability": (lambda: TransitionKernel(["a"], [[(0, True)]]),
                                TypeError, "not a number"),
    "petal-p": (lambda: build_petal_chain(_U1, _U2, 1.0, 2), InvalidInput, "0 < p < 1"),
    "petal-max-petals": (lambda: build_petal_chain(_U1, _U2, 0.5, max_petals=0),
                         InvalidInput, "max_petals must be >= 1"),
    "petal-chain-p": (lambda: PetalChain(_U1, _U2, 0.0), InvalidInput, "0 < p < 1"),
    "parametric-state-name": (lambda: sample_passage_times(TwoStateChain(0.5), "a", "1", 1, 1),
                              InvalidInput, "states '0' and '1'"),
    "parametric-state-index": (lambda: sample_passage_times(TwoStateChain(0.5), 2, 1, 1, 1),
                               InvalidInput, "states 0 and 1"),
    "builtin-without-parameter": (lambda: cli._parse_builtin("two-state"),
                                  InvalidInput, "expected kind:parameter"),
    # moment functions and schedules
    "growth-ratio-start-0": (lambda: power_fn(1).growth_ratio_bound(0),
                             InvalidInput, "start must be >= 1"),
    "schedule-no-rows": (lambda: burst_schedule_from_csv(io.StringIO("i,s,u\n\n")),
                         InvalidInput, "no rows"),
    "schedule-gap": (lambda: burst_schedule_from_csv(io.StringIO("1,2,2\n3,72,24\n")),
                     InvalidInput, "without gaps"),
    # log-space arithmetic
    "log1mexp-positive": (lambda: log1mexp(0.5), ValueError, "x <= 0"),
    "log-sub-negative": (lambda: log_sub(0.0, 1.0), ValueError, "a >= b"),
}


@pytest.mark.parametrize("case", list(_RAISES))
def test_input_check_raises(case):
    call, exc, match = _RAISES[case]
    with pytest.raises(exc, match=match):
        call()
