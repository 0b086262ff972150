"""Each input check of the package, reached once: the call, the exception it
raises and a piece of its message."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from recur_moments import (AtomicDist, BurstSchedule, ConvergenceFailure,
                           IncomparableLaws, InvalidInput, PassageLaw, PetalChain,
                           TailCert, TransitionKernel, TwoStateChain, build_petal_chain,
                           build_two_state, burst_fn, burst_schedule_from_csv,
                           conditioned_hit_law, conditioned_return_law,
                           convolve, crossing_return_law, default_burst_schedule,
                           demo_sharp, first_passage_law, geometric_compound,
                           heavy_tail_pair, hit_before_return_prob, law_from_csv, lower_bound_series,
                           mc_f_moment, mixture, power_fn, random_kernel,
                           sample_passage_times, stationary_distribution,
                           stochastic_dominates, witness_search)
from recur_moments import chain, cli
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


def _pair_kernel(*rows):
    return TransitionKernel(["a", "b"], list(rows))


def _burst():
    return burst_fn(default_burst_schedule())


# past the most 8-byte entries one array can index, and past int64
_HUGE = 10 ** 30
_MOST_ENTRIES = np.iinfo(np.intp).max // 8
_PAST_ARRAYS = f"at most {_MOST_ENTRIES}, got {_HUGE}"


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
    "log-prob-0": (lambda: _dense().log_prob(0), InvalidInput, "n must be >= 1"),
    "pmf-past-horizon": (lambda: _dense().pmf_array(3), InvalidInput, "cannot extend"),
    "to-dense-0": (lambda: _dense().to_dense(0), InvalidInput, "horizon must be >= 1"),
    "to-dense-past-arrays": (lambda: PassageLaw.point(2).to_dense(2 ** 62), InvalidInput,
                             f"horizon must be at most {_MOST_ENTRIES}, got {2 ** 62}"),
    "pmf-past-arrays": (lambda: PassageLaw.point(2).pmf_array(_HUGE),
                        InvalidInput, _PAST_ARRAYS),
    # a count that is not an integer, read once by chain._count; each ended
    # in a TypeError from numpy or SeedSequence
    "pmf-horizon-float": (lambda: PassageLaw.point(2).pmf_array(2.5),
                          InvalidInput, "horizon must be an integer, got 2.5"),
    "to-dense-float": (lambda: PassageLaw.point(2).to_dense(1.5),
                       InvalidInput, "horizon must be an integer, got 1.5"),
    # a step, atom or count that is not an integer: each was rounded down
    # to an integer, read as a float, or ended in a TypeError or IndexError
    "atoms-float": (lambda: AtomicDist([1.5], [0.0]),
                    InvalidInput, "atoms must be integers, got an array of float64"),
    "pairs-float-atom": (lambda: AtomicDist.from_pairs({2.5: 1.0}),
                         InvalidInput, "atom must be an integer, got 2.5"),
    "point-mass-float": (lambda: AtomicDist.point_mass(2.7),
                         InvalidInput, "atom must be an integer, got 2.7"),
    "point-law-float": (lambda: PassageLaw.point(2.5),
                        InvalidInput, "atom must be an integer, got 2.5"),
    "log-prob-float": (lambda: _dense().log_prob(2.5), InvalidInput, "n must be an integer, got 2.5"),
    "prob-float": (lambda: _dense().prob(1.0), InvalidInput, "n must be an integer, got 1.0"),
    "cert-start-float": (lambda: TailCert(1.5, 0.5, 0.0),
                         InvalidInput, "certificate start must be an integer, got 1.5"),
    "log-f-float": (lambda: power_fn(2).log_f(2.7), InvalidInput, "n must be an integer, got 2.7"),
    "log-f-array-float": (lambda: power_fn(2).log_f_array([2.7]),
                          InvalidInput, "ns must be integers, got an array of float64"),
    "growth-ratio-start-float": (lambda: power_fn(1).growth_ratio_bound(1.5),
                                 InvalidInput, "start must be an integer, got 1.5"),
    "schedule-start-float": (lambda: BurstSchedule(lambda i: (2, 16.5, 72)[i - 1],
                                                   lambda i: (2, 8, 24)[i - 1], n_bursts=3),
                             InvalidInput, "s_2 must be an integer, got 16.5"),
    "series-max-terms-float": (lambda: lower_bound_series(iter([(1, 0.0), (2, 0.0)]),
                                                          log_threshold=5.0, max_terms=1.5),
                               InvalidInput, "max_terms must be an integer, got 1.5"),
    "random-kernel-float": (lambda: random_kernel(2.5, np.random.default_rng(0)),
                            InvalidInput, "n_states must be an integer, got 2.5"),
    "petal-max-petals-float": (lambda: build_petal_chain(_U1, _U1, 0.5, 1.5),
                               InvalidInput, "max_petals must be an integer, got 1.5"),
    "witness-count-float": (lambda: witness_search(_burst(), count=2.0),
                            InvalidInput, "count must be an integer, got 2.0"),
    "heavy-tail-k-max-float": (lambda: heavy_tail_pair(_burst(), k_max=3.5),
                               InvalidInput, "k_max must be an integer, got 3.5"),
    "demo-sharp-k-max-float": (lambda: demo_sharp(k_max=4.0),
                               InvalidInput, "k_max must be an integer, got 4.0"),
    # a NaN tol reported dominates=False with a violation of 0.0
    "dominates-nan-tol": (lambda: stochastic_dominates(_dense(), _dense(), tol=math.nan),
                          InvalidInput, "tol must be finite, got nan"),
    # an OverflowError from numpy
    "law-csv-n-past-int64": (lambda: law_from_csv(io.StringIO(f"n,prob,log_prob\n{_HUGE},1,0\n")),
                             InvalidInput, "atoms must be integers, got an array of object"),
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
    "passage-horizon-float": (lambda: first_passage_law(_two_state(), 0, 1, 600.0),
                              InvalidInput, "horizon must be an integer, got 600.0"),
    "passage-horizon-numpy-float": (lambda: first_passage_law(_two_state(), 0, 1, np.float64(5)),
                                    InvalidInput, r"horizon must be an integer, got .*5\.0"),
    "hit-first-horizon-float": (lambda: conditioned_hit_law(_two_state(), 0, 1, 10.0),
                                InvalidInput, "horizon must be an integer, got 10.0"),
    # the calculus: operand types, and results with nothing left in the horizon
    "convolve-atomic": (lambda: convolve(_U1, _U2), InvalidInput, "two PassageLaw operands"),
    "convolve-past-arrays": (lambda: convolve(_dense(), _dense(), horizon=_HUGE),
                             InvalidInput, _PAST_ARRAYS),
    "convolve-horizon-float": (lambda: convolve(_dense(), _dense(), horizon=3.5),
                               InvalidInput, "horizon must be an integer, got 3.5"),
    "convolve-past-horizon": (
        lambda: convolve(PassageLaw.point(5), PassageLaw.point(5), horizon=3),
        InvalidInput, "no atoms within the horizon"),
    "compound-atomic": (lambda: geometric_compound(_U1, _U2, 0.5),
                        InvalidInput, "PassageLaw operands"),
    "compound-mixed": (lambda: geometric_compound(_dense(), PassageLaw.point(1), 0.5),
                       InvalidInput, "same representation"),
    "compound-past-arrays": (lambda: geometric_compound(_dense(), _dense(), 0.5, horizon=_HUGE),
                             InvalidInput, _PAST_ARRAYS),
    "compound-horizon-float": (lambda: geometric_compound(_dense(), _dense(), 0.5, horizon=4.0),
                               InvalidInput, "horizon must be an integer, got 4.0"),
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
                        InvalidInput, "n_states must be >= 1"),
    "duplicate-states": (lambda: TransitionKernel.from_json_dict(
                             {"states": ["a", "a"], "rows": [[["a", 1.0]], [["a", 1.0]]]}),
                         InvalidInput, "duplicate state names"),
    "kernel-bool-probability": (lambda: TransitionKernel(["a"], [[(0, True)]]),
                                TypeError, "not a number"),
    "petal-p": (lambda: build_petal_chain(_U1, _U2, 1.0, 2), InvalidInput, "0 < p < 1"),
    "petal-max-petals": (lambda: build_petal_chain(_U1, _U2, 0.5, max_petals=0),
                         InvalidInput, "max_petals must be >= 1"),
    "petal-chain-p": (lambda: PetalChain(_U1, _U2, 0.0), InvalidInput, "0 < p < 1"),
    "sampler-samples-past-arrays": (lambda: sample_passage_times(_two_state(), 0, 0, _HUGE, 2),
                                    InvalidInput, "n_samples must be " + _PAST_ARRAYS),
    "sampler-cap-past-int64": (lambda: sample_passage_times(_two_state(), 0, 0, 2, _HUGE),
                               InvalidInput, f"cap must be at most {2 ** 63 - 1}, got {_HUGE}"),
    "sampler-samples-float": (lambda: sample_passage_times(_two_state(), 0, 0, 10.5, 5),
                              InvalidInput, "n_samples must be an integer, got 10.5"),
    "sampler-cap-float": (lambda: sample_passage_times(_two_state(), 0, 0, 10, cap=5.5),
                          InvalidInput, "cap must be an integer, got 5.5"),
    "sampler-seed-float": (lambda: sample_passage_times(_two_state(), 0, 0, 10, 5, seed=2.5),
                           InvalidInput, "seed must be an integer, got 2.5"),
    "mc-seed-float": (lambda: mc_f_moment(lambda n, cap, rng: sample_passage_times(
                          _two_state(), 0, 0, n, cap, rng=rng), power_fn(1),
                          n_samples=10, cap=5, seed=1.5),
                      InvalidInput, "seed must be an integer, got 1.5"),
    "mc-samples-float": (lambda: mc_f_moment(None, power_fn(1), n_samples=10.0, cap=5, seed=1),
                         InvalidInput, "n_samples must be an integer, got 10.0"),
    "parametric-cap-past-int64": (lambda: sample_passage_times(TwoStateChain(0.5), 0, 0, 2, _HUGE),
                                  InvalidInput, f"cap must be at most {2 ** 63 - 1}"),
    "stationary-zero-pivot": (lambda: stationary_distribution(_pair_kernel([(0, 1.0)], [(1, 1.0)])),
                              ConvergenceFailure, "zero pivot"),
    "stationary-residual": (lambda: stationary_distribution(_pair_kernel([(1, 0.5)], [(0, 1.0)])),
                            ConvergenceFailure, r"stationary residual 0\.333333 exceeds 1e-10"),
    "kernel-target-out-of-range": (
        lambda: chain._validated(_pair_kernel([(1, 0.5), (5, 0.5)], [(0, 1.0)])),
        InvalidInput, r"1 out-of-range target\(s\)"),
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


def test_numpy_integer_counts_are_read_as_ints():
    # chain._count takes any integer type: an np.int64 horizon, sample size,
    # cap or seed gives what the int gives
    k, big = _two_state(), np.int64
    assert np.array_equal(first_passage_law(k, 0, 1, big(50)).pmf_array(),
                          first_passage_law(k, 0, 1, 50).pmf_array())
    assert crossing_return_law(k, 0, 1, big(7)).horizon == 7
    assert PassageLaw.point(2).to_dense(big(3)).horizon == 3
    times = sample_passage_times(k, 0, 0, big(20), big(5), seed=3)[0]
    assert np.array_equal(times, sample_passage_times(k, 0, 0, 20, 5, seed=3)[0])

    def sampler(n, cap, rng):
        return sample_passage_times(k, 0, 0, n, cap, rng=rng)

    assert (mc_f_moment(sampler, power_fn(1), n_samples=big(30), cap=big(9), seed=big(4))
            == mc_f_moment(sampler, power_fn(1), n_samples=30, cap=9, seed=4))
    # and an atom, a step and a k_max
    assert AtomicDist.from_pairs({big(3): 1.0}).atoms.tolist() == [3]
    assert AtomicDist.point_mass(big(3)).atoms.tolist() == [3]
    assert PassageLaw.point(big(2)).prob(big(2)) == 1.0
    assert power_fn(2).log_f(big(600)) == power_fn(2).log_f(600)
    assert np.array_equal(power_fn(2).log_f_array(np.arange(1, 5, dtype=np.int32)),
                          power_fn(2).log_f_array([1, 2, 3, 4]))
    assert (json.dumps(demo_sharp(k_max=big(4)).to_json_dict())
            == json.dumps(demo_sharp(k_max=4).to_json_dict()))
