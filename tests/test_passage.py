from __future__ import annotations

import io
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recur_moments import (VERDICT_CONVERGED, AtomicDist, IncomparableLaws,
                           InvalidInput, NoSuchPath, PassageLaw, TailCert,
                           TransitionKernel, build_two_state,
                           conditioned_hit_law, conditioned_return_law,
                           convolve, crossing_return_law, exp_fn, f_moment,
                           first_passage_law, geometric_compound,
                           hit_before_return_prob, law_from_csv, law_to_csv,
                           mixture, random_kernel, stochastic_dominates)
from recur_moments.logspace import log_add, logsumexp
from recur_moments.moments import VERDICT_INCONCLUSIVE as MOMENT_INCONCLUSIVE
from recur_moments import chain, passage

from helpers import (absorbed_mass_iterative, brute_convolve_dicts,
                     enumerate_passage_pmf, pmf_dict_to_array,
                     reaches_oracle, reference_compound, reference_laws,
                     reference_survival, two_state_return_pmf_11)
from helpers import cycle_kernel as _cycle
from helpers import sparse_ring_kernel as _sparse_kernel

ORACLE_H = 8


# ---------------------------------------------------------------------------
# first-passage laws against path enumeration


@pytest.mark.parametrize("pair", [(0, 0), (0, 2), (1, 1), (2, 1)])
def test_first_passage_matches_enumeration_3state(kernel3, pair):
    i, j = pair
    law = first_passage_law(kernel3, i, j, ORACLE_H)
    oracle = pmf_dict_to_array(enumerate_passage_pmf(kernel3, i, j, ORACLE_H), ORACLE_H)
    assert np.abs(law.pmf_array() - oracle).max() <= 1e-12
    # tail is exactly the unenumerated mass
    assert abs(math.exp(law.log_tail) - (1.0 - oracle.sum())) <= 1e-12


@pytest.mark.parametrize("pair", [(0, 0), (0, 3), (3, 0), (2, 2)])
def test_first_passage_matches_enumeration_4state(kernel4, pair):
    i, j = pair
    law = first_passage_law(kernel4, i, j, ORACLE_H)
    oracle = pmf_dict_to_array(enumerate_passage_pmf(kernel4, i, j, ORACLE_H), ORACLE_H)
    assert np.abs(law.pmf_array() - oracle).max() <= 1e-12


def test_two_state_return_closed_forms():
    k = build_two_state(0.5)
    t00 = first_passage_law(k, 0, 0, 10)
    assert abs(t00.prob(1) - 0.5) <= 1e-15 and abs(t00.prob(2) - 0.5) <= 1e-15
    assert t00.is_complete
    t11 = first_passage_law(k, 1, 1, 60)
    assert np.abs(t11.pmf_array() - two_state_return_pmf_11(0.5, 60)).max() <= 1e-15


def test_survival_is_monotone_and_consistent(kernel3):
    law = first_passage_law(kernel3, 0, 1, 40)
    surv = law.survival_array()
    assert np.all(np.diff(surv) <= 1e-15)
    assert abs(surv[-1] - math.exp(law.log_tail)) <= 1e-15
    # S_n = 1 - CDF_n
    assert abs(surv[0] - (1.0 - law.prob(1))) <= 1e-15


def test_survival_is_subtraction_free():
    # ratio 1e-8: S_n = r^n, which cumsum(pmf) - pmf cancelled to 1e-8 relative
    r, h = 1e-8, 30
    law = PassageLaw.dense((1.0 - r) * r ** np.arange(h), r ** h)
    surv = law.survival_array()
    assert np.all(np.abs(surv[:-1] / r ** np.arange(1, h) - 1.0) <= 1e-15)
    assert surv[-1] == math.exp(law.log_tail)


def test_first_passage_tail_survives_underflow():
    # P(T > 400) = 0.1^400 is below the smallest double, yet not zero.  The
    # entries P(T = n) = 0.9 0.1^(n-1) below 2^-1074 read 0 in the linear
    # pmf; the log pmf keeps their true logs at their own steps
    law = first_passage_law(build_two_state(0.9), 0, 1, 400)
    log_pmf = math.log(0.9) + np.arange(400) * math.log(0.1)
    lost = law.pmf_array() == 0.0
    assert lost.any() and np.all(log_pmf[lost] < -1074 * math.log(2.0))
    assert np.all(np.abs(law.log_pmf[lost] - log_pmf[lost]) <= 1e-9)
    assert abs(law.log_tail - 400 * math.log(0.1)) <= 1e-9
    assert not law.is_complete
    # the taboo operator decays at 0.1, across the rescales too, and its
    # vector is 1 on the one slot that holds mass, so the bound is the tail
    assert law.tail_cert.start == 400 and 0.1 <= law.tail_cert.rho < 0.1 + 1e-9
    assert 0.0 <= law.tail_cert.log_bound - law.log_tail <= 1e-12


_TWO_STATE_HORIZONS = [1100, 1500, 3000]


@pytest.mark.parametrize("h", _TWO_STATE_HORIZONS)
@pytest.mark.parametrize("law_fn,i,j", [(first_passage_law, 1, 1), (crossing_return_law, 1, 0)],
                         ids=["return", "crossing"])
def test_entries_below_the_subnormal_range_join_the_tail(law_fn, i, j, h):
    # The return to the bouncing state of two-state 0.5 (every return visits
    # state 0) has P(T = k) = 2^-(k-1) for k >= 2.  Past k ~ 1075 these
    # entries unscale below 2^-1074 and read 0 in the linear pmf; the log
    # pmf keeps their true logs at their own steps, and the tail is
    # P(T > h) = 2^-(h-1)
    law = law_fn(build_two_state(0.5), i, j, h)
    k = np.arange(2, h + 1)
    lost = law.pmf_array()[1:] == 0.0
    assert lost.any() and law.log_pmf[0] == -math.inf
    assert np.all(np.abs(law.log_pmf[1:][lost] + (k[lost] - 1.0) * math.log(2.0)) <= 1e-9)
    assert abs(law.log_tail + (h - 1) * math.log(2.0)) <= 1e-9
    assert not law.is_complete


@pytest.mark.parametrize("h", _TWO_STATE_HORIZONS)
def test_converged_bracket_holds_past_the_subnormal_range(h):
    # E e^{0.69 T} = 2 r^2 / (1 - r), r = e^0.69 / 2, for the return above.
    # The bracket must count the entries lost to underflow, and at their own
    # steps: charged as if they sat at h, their mass would lift the upper
    # end by hundreds of nats
    est = f_moment(first_passage_law(build_two_state(0.5), 1, 1, h), exp_fn(0.69))
    r = math.exp(0.69) / 2.0
    log_moment = math.log(2.0 * r * r / (1.0 - r))
    assert est.verdict == VERDICT_CONVERGED
    assert est.log_partial_sum <= log_moment <= est.log_upper_bound <= log_moment + 0.1


_RANDOM3 = random_kernel(3, np.random.default_rng(3))


@pytest.mark.parametrize("kernel,absorb,h,mode", [
    (build_two_state(0.9), 1, 181, {}), (build_two_state(0.9), 1, 1500, {}),
    (_RANDOM3, 0, 1500, {}), (_RANDOM3, 0, 1500, {"kill": 1}), (_RANDOM3, 0, 1500, {"flag": 1})],
    ids=["two-state-181", "two-state-1500", "plain", "kill", "flag"])
def test_rescale_schedule(kernel, absorb, h, mode):
    # the vector is rescaled before exactly the steps it enters with alive
    # mass in (0, 2^-600), by the power of two that lifts that mass to
    # [1/2, 1); the final vector keeps the scale of the last step (on
    # two-state 0.9, step 181 is the first to fall below 2^-600)
    pmf, alive, scale, q = passage._propagate(kernel, 0, h, absorb=absorb, **mode)
    surv = reference_survival(kernel, 0, h, absorb=absorb, **mode)[0]
    entering = np.concatenate(([1.0], surv[:-1]))
    low = (entering > 0.0) & (entering < 2.0 ** -600)
    jumps = np.diff(scale, prepend=0)
    assert low.any() or surv[-1] < 2.0 ** -600  # the case reaches a rescale point
    assert np.array_equal(jumps != 0, low)
    assert all(jumps[t] == -math.frexp(entering[t])[1] for t in np.flatnonzero(low))
    assert q.sum() == surv[-1] == alive


_LAWS = {"passage": first_passage_law, "return_avoiding": conditioned_return_law,
         "hit_first": conditioned_hit_law, "crossing": crossing_return_law}
_SMALLEST_NORMAL = 2.2250738585072014e-308
# Horizons on and next to block edges and lifted-call edges.  Up to h = 130
# a chain of up to 16 states runs a first block of 2 rows, then one of up
# to 128 rows: a single step at step 3, then one lifted call of up to 127
# steps, which ends at step 130 (at 33 and 34 the horizon ends it).  From
# h = 131 on, a law sure to stay above 2^-600 is one block, and any other
# runs blocks of 128 rows, whose edges are steps 2, 130, 258, ...  Past 600
# the small chains are rescaled many times, with rolled-back rows.
_ENGINE_HORIZONS = (1, 2, 3, 4, 33, 34, 129, 130, 131, 600, 1500)
# The old loop rounded a raw mass below the smallest normal.  Past step 600,
# where the chains that decay fast reach the subnormal range, it also summed
# masses just above it from subnormal products, so there only masses from
# 2^-1000 on are compared.  The rescaled engine computes all of them exactly.
_EXACT_THROUGH = 600
_COMPARABLE = np.where(np.arange(1, max(_ENGINE_HORIZONS) + 1) <= _EXACT_THROUGH,
                       _SMALLEST_NORMAL, 2.0 ** -1000)


_SPARSE3000_PAIRS = [(0, 0), (7, 1500)]


def _engine_cases():
    yield pytest.param("kernel3", [(i, j) for i in range(3) for j in range(3)], id="kernel3")
    yield pytest.param("kernel4", [(0, 3), (3, 0), (2, 2), (1, 2)], id="kernel4")
    for n in range(2, 9):
        yield pytest.param(n, [(0, 0), (0, 1), (n - 1, 0)], id=f"random{n}")
    for n in (16, 64, 200):
        yield pytest.param(n, [(0, 0), (n - 1, 0)], id=f"random{n}")
    yield pytest.param("sparse3000", _SPARSE3000_PAIRS, id="sparse3000")
    # blocks of one row, as an operator of more than 32 768 slots steps: the
    # rescaled laws of two-state 0.9, and kill and flag laws that rescale
    yield pytest.param("span1-two-state", [(0, 1), (1, 1)], id="span1-two-state")
    yield pytest.param("span1-random3", [(0, 1), (1, 0), (2, 2)], id="span1-random3")


@pytest.mark.parametrize("which,pairs", _engine_cases())
def test_engine_bit_identical_to_reference_loop(which, pairs, request, monkeypatch):
    if which == "sparse3000":
        kernel = _sparse_kernel(3000, 5, seed=3000)
    elif which in ("span1-two-state", "span1-random3"):
        monkeypatch.setattr(passage, "_BLOCK_DOUBLES", 4)
        kernel = build_two_state(0.9) if which == "span1-two-state" else _RANDOM3
        assert passage._block_sizes(kernel.n_states + 1, kernel.data.size)[:2] == (1, 1)
    elif isinstance(which, str):
        kernel = request.getfixturevalue(which)
    else:
        kernel = random_kernel(which, np.random.default_rng(which))
    for i, j in pairs:
        full = reference_laws(kernel, i, j, max(_ENGINE_HORIZONS))
        for h in _ENGINE_HORIZONS:
            ref = {name: (raw[:h], divisor) for name, (raw, divisor) in full.items()}
            for name, law_fn in _LAWS.items():
                if name not in ref:
                    continue
                raw, divisor = ref[name]
                normal = raw >= _COMPARABLE[:h]
                got = law_fn(kernel, i, j, h).pmf_array()
                assert np.array_equal(got[normal], raw[normal] / divisor), (which, i, j, h, name)
            surv = ref["passage_surv"][0]
            law = first_passage_law(kernel, i, j, h)
            if surv[-1] >= 2.0 ** -600:  # never rescaled
                assert law.log_tail == math.log(surv[-1])
            else:
                assert math.isfinite(law.log_tail)


def test_propagation_never_builds_a_transpose(kernel3, monkeypatch):
    # ``q @ csr`` rebuilds a transposed matrix on every call, and any sparse
    # ``@`` costs several microseconds of dispatch around a 1 us kernel;
    # every law must step with the compiled kernel alone
    def refuse(self, other):
        raise AssertionError("sparse @ used in a propagation step")

    monkeypatch.setattr(scipy.sparse.csr_matrix, "__rmatmul__", refuse)
    monkeypatch.setattr(scipy.sparse.csc_matrix, "__matmul__", refuse)
    with pytest.raises(AssertionError):
        np.zeros(3) @ kernel3.csr
    with pytest.raises(AssertionError):
        kernel3.csr.T @ np.zeros(3)
    for law_fn in _LAWS.values():
        law_fn(kernel3, 0, 1, 50)


def _same_law(a, b) -> bool:
    return (np.array_equal(a.log_pmf, b.log_pmf)
            and np.array_equal(a.pmf_array(), b.pmf_array())
            and a.log_tail == b.log_tail and a.tail_cert == b.tail_cert)


def _decomposition_laws(kernel, i, j, h):
    """The laws and pi of criterion 1 for the pair (i, j), in its order."""
    return (hit_before_return_prob(kernel, i, j), conditioned_return_law(kernel, i, j, h),
            conditioned_hit_law(kernel, i, j, h), first_passage_law(kernel, i, j, h))


def test_decomposition_sweep_solves_each_pair_once(monkeypatch):
    # A pair's laws share two hitting splits and their taboo operators with
    # the other pairs of the kernel.  A sweep over all ordered pairs in the
    # order of criterion 1 solves each pair once (four solves a pair without
    # the kernel's cache) and builds each operator once
    solve, build = np.linalg.solve, passage._taboo_operator
    solves, builds = [], []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
    monkeypatch.setattr(passage, "_taboo_operator",
                        lambda kernel, *key: builds.append(key) or build(kernel, *key))
    kernel = random_kernel(5, np.random.default_rng(5))
    pairs = list(itertools.permutations(range(5), 2))
    for i, j in pairs:
        _decomposition_laws(kernel, i, j, 50)
    assert len(solves) == len(pairs)
    assert len(builds) == len(set(builds)) == 25  # (i, j, -), (j, -, -) for every i, j


def test_cache_evicts_past_its_bound_and_keeps_laws_bit_for_bit(monkeypatch):
    # 42 pairs of a 7-state kernel hold more splits and operators than a
    # 16 KiB cache keeps; the evicted ones are rebuilt the same, bit for
    # bit, as those of a kernel built with the 1 MiB floor, which keeps all
    full = random_kernel(7, np.random.default_rng(7))
    monkeypatch.setattr(chain, "_CACHE_FLOOR_BYTES", 1 << 14)
    kernel = random_kernel(7, np.random.default_rng(7))
    cache = kernel._derived
    assert cache.max_bytes == 1 << 14 and full._derived.max_bytes == 1 << 20
    pairs = list(itertools.permutations(range(7), 2))
    first = [_decomposition_laws(kernel, i, j, 40) for i, j in pairs]
    assert cache.nbytes == sum(e[1] for e in cache._entries.values()) <= cache.max_bytes
    assert ("split", 0, 1) not in cache._entries
    assert ("taboo", (0, 1, None)) not in cache._entries
    again = [_decomposition_laws(kernel, i, j, 40) for i, j in pairs]
    fresh = [_decomposition_laws(full, i, j, 40) for i, j in pairs]
    assert ("split", 0, 1) in full._derived._entries
    assert len(full._derived._entries) > len(cache._entries)
    for a, b, c in zip(first, again, fresh):
        assert a[0] == b[0] == c[0]
        assert all(_same_law(x, y) and _same_law(x, z) for x, y, z in zip(a[1:], b[1:], c[1:]))


@pytest.mark.parametrize("which", ["kernel", "lift"])
def test_cache_hammered_by_threads_stays_consistent(which):
    # four threads get the values of 64 keys through a cache that holds 10
    # of them: a kernel's, keyed by (kind, key), or one of the lift cache's
    # size, keyed by the id of an operator its value holds.  With no lock,
    # a key found present is evicted by another thread before it is read,
    # and the reading thread dies on a KeyError; each thread must get the
    # value of its own key
    ops = [(np.full(k + 1, k),) for k in range(64)]
    if which == "kernel":
        cache = random_kernel(2, np.random.default_rng(2))._derived
        keys = [("key", k) for k in range(64)]
    else:
        cache = chain._ByteCache(passage._LIFT_CACHE_BYTES)
        keys = [id(op) for op in ops]
    cost = cache.max_bytes // 10
    size = (cost - chain._ENTRY_BYTES) // 8
    wrong, done = [], []

    def hammer(seed):
        for k in np.random.default_rng(seed).integers(0, 64, 5_000).tolist():
            value = cache.get(keys[k], lambda: (np.full(size, float(k)), ops[k]))
            if value[0][0] != k or value[1] is not ops[k]:
                wrong.append(k)
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and sorted(done) == [0, 1, 2, 3]
    assert not wrong and len(cache._entries) == 10
    entry_cost = 8 * size + chain._ENTRY_BYTES
    assert cache.nbytes == sum(e[1] for e in cache._entries.values()) == 10 * entry_cost
    assert all(keys[int(value[0][0])] == key for key, (value, _) in cache._entries.items())


def test_kernel_cache_keeps_a_sparse_target_sweep_within_its_budget(monkeypatch):
    # 64 taboo operators of a 3000-state chain with 5 nonzeros a row take
    # 17 MB; the kernel's cache, 16 times its 0.26 MB of CSR arrays, keeps
    # the most recent of them within that budget.  The 5-step laws are too
    # short to pay for the hold bound's 16 products, and build none
    monkeypatch.setattr(passage, "_log_hold", lambda *op: pytest.fail("hold bound built"))
    kernel = _sparse_kernel(3000, 5, seed=3000)
    cache = kernel._derived
    csr_bytes = kernel.indptr.nbytes + kernel.indices.nbytes + kernel.data.nbytes
    assert cache.max_bytes == 16 * csr_bytes > chain._CACHE_FLOOR_BYTES
    for j in range(64):
        first_passage_law(kernel, 0, j, 5)
        assert cache.nbytes == sum(e[1] for e in cache._entries.values()) <= cache.max_bytes
    held = [j for j in range(64) if ("taboo", (j, None, None)) in cache._entries]
    assert 0 < len(held) < 64 and held == list(range(64 - len(held), 64))


@pytest.mark.parametrize("h,built", [(256, 0), (257, 1)])
def test_wide_operator_builds_its_hold_bound_only_past_256_steps(monkeypatch, h, built):
    # on an operator whose blocks cannot outgrow rows, the bound saves only
    # row sums; on cold operators of 3 000 to 50 000 slots its 16 products
    # paid back within 128 to 256 steps, and shorter laws go without it
    hold, calls = passage._log_hold, []
    monkeypatch.setattr(passage, "_log_hold", lambda *op: calls.append(op) or hold(*op))
    kernel = _sparse_kernel(3000, 5, seed=3000)
    span, rows = passage._block_sizes(kernel.n_states + 1, kernel.data.size)[:2]
    assert span == rows < 128
    first_passage_law(kernel, 0, 7, h)
    assert len(calls) == built


def test_kernel_cache_charges_an_operator_only_for_the_arrays_it_made():
    # an operator with no kill and no flag steps with the kernel's own
    # csr.data; charging that array to each operator too cost 192 KB an
    # operator here, where it adds 72 KB, and the same sweep kept 21 of them
    kernel = _sparse_kernel(3000, 5, seed=3000)
    cache = kernel._derived
    for j in range(64):
        first_passage_law(kernel, 0, j, 5)
    (indptr, indices, data, _), cost = cache._entries[("taboo", (63, None, None))]
    assert data is kernel.csr.data
    assert cost == indptr.nbytes + indices.nbytes + chain._ENTRY_BYTES
    assert cache.nbytes == sum(e[1] for e in cache._entries.values()) <= cache.max_bytes
    held = [j for j in range(64) if ("taboo", (j, None, None)) in cache._entries]
    assert len(held) >= 2 * 21 and held == list(range(64 - len(held), 64))


def test_sparse3000_bit_identity_laws_solve_each_split_once(monkeypatch):
    # the laws of the sparse3000 engine case and their tail certificates,
    # at every horizon, cycle through 5 operators, their bounds and
    # certificates and 2 splits, 1.3 MB in all: an LRU smaller than that
    # would evict each before its next use and rerun a 2998 x 2998 solve
    # per law.  Within the kernel's budget, each split is solved once
    solve, solved = passage._solve_split, []
    monkeypatch.setattr(passage, "_solve_split",
                        lambda kernel, i, j: solved.append((i, j)) or solve(kernel, i, j))
    kernel = _sparse_kernel(3000, 5, seed=3000)
    for i, j in _SPARSE3000_PAIRS:
        for h in _ENGINE_HORIZONS:
            for name, law_fn in _LAWS.items():
                if i != j or name == "passage":
                    law_fn(kernel, i, j, h).tail_cert
            first_passage_law(kernel, i, j, h)
    assert len(solved) == len(set(solved)) == 2


def _count_steps(monkeypatch):
    """Steps taken by passage's compiled matvec from now on, one entry a
    call.  A single-step call has n_row = n_col = w, the slots of a row; a
    lifted call has n_row = n_col + w.  A call takes n_col // w steps."""
    steps = []

    def counting(*args):
        n_row, n_col = args[:2]
        steps.append(n_col // (n_row - n_col or n_row))
        return kernel_call(*args)

    # passage binds its name on the first law, so it may still be unbound
    from scipy.sparse._sparsetools import csc_matvec as kernel_call
    monkeypatch.setattr(passage, "_csc_matvec", counting)
    return steps


def test_propagation_stops_at_an_exactly_zero_vector(monkeypatch):
    # the walk from 0 has returned surely after step 2; stepping on to
    # h = 6000 used to take 33 ms
    steps = _count_steps(monkeypatch)
    law = first_passage_law(build_two_state(0.5), 0, 0, 6000)
    assert sum(steps) == 2
    expected = np.zeros(6000)
    expected[:2] = 0.5
    assert np.array_equal(law.pmf_array(), expected)
    assert law.log_tail == -math.inf and law.is_complete


@pytest.mark.parametrize("kernel,absorb,h", [
    (build_two_state(0.9), 1, 1500), (random_kernel(8, np.random.default_rng(8)), 1, 600)],
    ids=["two-state-rescaled", "random8-never-rescaled"])
def test_block_schedule_bounds_rolled_back_steps(monkeypatch, kernel, absorb, h):
    # Here a block holds at most rows = reach rows, and a rescale drops only
    # the rows of its block past the row that fell below 2^-600: at most
    # reach - 1 steps each.  A law that is never rescaled takes each step
    # once.
    op = passage._taboo_operator(kernel, absorb, None, None)
    span, rows, reach, lift = passage._block_sizes(op[3] + 1, op[2].size)
    assert rows == reach
    steps = _count_steps(monkeypatch)
    _, _, scale, _ = passage._propagate(kernel, 0, h, absorb=absorb)
    # no early stop: every step up to h is kept
    assert reference_survival(kernel, 0, h, absorb=absorb)[0][-1] > 0.0
    rescales = np.count_nonzero(np.diff(scale, prepend=0))
    if rescales:
        assert rescales >= 5 and h < sum(steps) <= h + rescales * (reach - 1)
    else:
        assert sum(steps) == h


def test_law_sure_to_stay_above_the_rescale_point_steps_in_one_block(monkeypatch):
    # the taboo operator bounds how fast the survival can fall; when that
    # keeps it above 2^-600 through the horizon, the law is one block: a
    # single step, then lifted calls of reach - 1 = 127 steps.  Blocks of
    # 128 rows made 6 blocks and 12 calls here
    kernel = random_kernel(8, np.random.default_rng(8))
    op = passage._taboo_operator(kernel, 1, None, None)
    assert passage._block_sizes(op[3] + 1, op[2].size)[3] == 127
    assert passage._log_hold(*op, None)[0] * -(-600 // passage._HOLD_STEPS) > -600 * math.log(2.0)
    steps = _count_steps(monkeypatch)
    _, _, scale, _ = passage._propagate(kernel, 0, 600, absorb=1)
    surv = reference_laws(kernel, 0, 1, 600)["passage_surv"][0]
    assert not scale.any() and surv[-1] >= 2.0 ** -600
    assert steps == [1] + [127] * 4 + [91]


def _summed_rows(monkeypatch):
    """Rows passed to passage's _row_sums from now on, one entry a call."""
    row_sums, summed = passage._row_sums, []
    monkeypatch.setattr(passage, "_row_sums",
                        lambda rows: summed.append(rows.shape[0]) or row_sums(rows))
    return summed


@pytest.mark.parametrize("block_doubles", [2 ** 16, 4], ids=["one-block", "span1"])
def test_proven_law_sums_only_the_row_at_its_horizon(monkeypatch, block_doubles):
    # the law above is proven from its first step, in one block or in 600
    # blocks of one row; only its last row is summed, for its tail
    monkeypatch.setattr(passage, "_BLOCK_DOUBLES", block_doubles)
    kernel = random_kernel(8, np.random.default_rng(8))
    summed = _summed_rows(monkeypatch)
    law = first_passage_law(kernel, 0, 1, 600)
    assert summed == [1]
    ref = reference_laws(kernel, 0, 1, 600)
    assert np.array_equal(law.pmf_array(), ref["passage"][0])
    assert law.log_tail == math.log(ref["passage_surv"][0][-1])


@pytest.mark.parametrize("short,proven", [(2.0 ** -50, False), (2.0 ** -35, True)],
                         ids=["inside", "outside"])
def test_hold_bound_within_the_rounding_margin_proves_nothing(monkeypatch, short, proven):
    # a hold bound whose 38 windows of 16 steps clear 2^-600 by less than the
    # rounding margin (log 2^-600 times 2^-50 is 3.7e-13) leaves the law
    # checked: its first blocks sum every row, until the mass it has lost
    # lets the bound prove the rest, and it is the same law.  Clearing 2^-600
    # by 2^-35 of its log, the bound proves the law from its first step
    log_hold = passage._LOG_RESCALE_BELOW / 38 * (1.0 - short)
    assert 38 * log_hold > passage._LOG_RESCALE_BELOW
    monkeypatch.setattr(passage, "_log_hold", lambda *op: (log_hold, 1.0))
    kernel = random_kernel(8, np.random.default_rng(8))
    summed = _summed_rows(monkeypatch)
    law = first_passage_law(kernel, 0, 1, 600)
    assert summed == ([1] if proven else [2, 128, 1])
    ref = reference_laws(kernel, 0, 1, 600)
    assert np.array_equal(law.pmf_array(), ref["passage"][0])
    assert law.log_tail == math.log(ref["passage_surv"][0][-1])


def _hold_bound_holds(kernel, absorb, kill, flag, h):
    """Whether every computed survival ratio over _HOLD_STEPS steps is at
    least e^log_hold, from every start."""
    op = passage._taboo_operator(kernel, absorb, kill, flag)
    log_hold = passage._log_hold(*op, flag)[0]
    for start in range(kernel.n_states):
        if start == kill:
            continue
        surv, scale = reference_survival(kernel, start, h, absorb=absorb, kill=kill, flag=flag)
        alive = np.concatenate(([1.0], surv))
        if not alive.all():  # the vector is exactly zero from here on
            alive = alive[:alive.argmin()]
            scale = scale[:alive.size - 1]
        log_alive = np.log(alive) - np.concatenate(([0], scale)) * math.log(2.0)
        drop = log_alive[passage._HOLD_STEPS:] - log_alive[:-passage._HOLD_STEPS]
        if (drop < log_hold - 1e-9).any():
            return False
    return True


@pytest.mark.parametrize("name,kernel", [
    ("random5", random_kernel(5, np.random.default_rng(5))),
    ("two-state", build_two_state(0.3)),
    ("ring12", TransitionKernel([str(k) for k in range(12)],
                                [[((k + 1) % 12, 0.9), (k, 0.1)] for k in range(12)]))])
def test_hold_bound_never_exceeds_the_fall_of_the_survival(name, kernel):
    # the bound decides block sizes alone, but a bound that did not hold
    # would cost rolled-back rows on every law it misjudged
    n = kernel.n_states
    for absorb, kill, flag in ((0, None, None), (n - 1, 0, None), (0, None, n - 1), (1, None, 0)):
        assert _hold_bound_holds(kernel, absorb, kill, flag, 200), (absorb, kill, flag)


def _decomposition_round():
    """The laws of one round of perfbench's decomposition workload at seed
    1: 48 seeded chains of 3-6 states, two pairs each, h = 600."""
    sizes = (3, 4, 5, 6) * 12
    children = np.random.SeedSequence(1).spawn(len(sizes))
    pick = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(1,)))
    for n, child in zip(sizes, children):
        kernel = random_kernel(n, np.random.default_rng(child))
        ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
        for idx in sorted(pick.choice(len(ordered), size=2, replace=False)):
            i, j = ordered[idx]
            for law_fn in (conditioned_return_law, conditioned_hit_law, crossing_return_law):
                law_fn(kernel, i, j, 600)
            for a, b in ((i, j), (i, i), (j, i)):
                first_passage_law(kernel, a, b, 600)


@pytest.mark.parametrize("case,rows_before", [
    ("two-state-0.9", 2091), ("ring60", 4228), ("decomposition", 352_125)])
def test_block_schedule_steps_no_more_rows_than_blocks_of_128(monkeypatch, case, rows_before):
    # rows_before: the steps taken when every block after the first held up
    # to 128 rows.  A law whose survival stays ~1 for 58 steps (the ring
    # from 1 to 0) must not take the rest of its horizon in one block and
    # roll back most of it
    steps = _count_steps(monkeypatch)
    if case == "two-state-0.9":
        first_passage_law(build_two_state(0.9), 0, 1, 1500)
    elif case == "ring60":
        ring = TransitionKernel([str(k) for k in range(60)],
                                [[((k + 1) % 60, 0.99), (k, 0.01)] for k in range(60)])
        first_passage_law(ring, 1, 0, 3000)
    else:
        _decomposition_round()
    assert sum(steps) <= rows_before


def test_lift_cache_keeps_a_sweep_within_its_byte_bound(monkeypatch):
    # an all-pairs sweep of an 8-state chain lifts each of its 8 targets
    # once, and three sweeps never hold more than the cache's bound
    first_passage_law(build_two_state(0.5), 0, 1, 2)  # binds the matvec, which lifts once
    monkeypatch.setattr(passage, "_LIFTS", chain._ByteCache(passage._LIFT_CACHE_BYTES))
    lift, built = passage._lift, []
    monkeypatch.setattr(passage, "_lift", lambda *args: built.append(1) or lift(*args))
    kernels = [random_kernel(8, np.random.default_rng(seed)) for seed in range(3)]
    first = {}
    for c, kernel in enumerate(kernels):
        for i, j in itertools.product(range(8), repeat=2):
            first[c, i, j] = first_passage_law(kernel, i, j, 600)
        assert len(built) == 8 * (c + 1)
        cache = passage._LIFTS
        assert cache.nbytes == sum(e[1] for e in cache._entries.values()) <= cache.max_bytes
    def held(kernel):
        return [id(value) in passage._LIFTS._entries
                for key, (value, _) in kernel._derived._entries.items() if key[0] == "taboo"]

    assert held(kernels[2]) == [True] * 8 and held(kernels[0]) == [False] * 8
    # the first kernel's lifts are gone: its laws, rebuilt, are the same
    for (c, i, j), law in first.items():
        if c == 0:
            assert _same_law(first_passage_law(kernels[0], i, j, 600), law)
    assert len(built) == 8 * 4


def test_all_pairs_sweep_builds_a_lift_per_target_and_steps_each_law_in_six_calls(
        monkeypatch):
    # the 8 lifts of an 8-state chain fit the cache together, and each of
    # its laws at h = 600 is one block: a single step and 5 lifted calls
    first_passage_law(build_two_state(0.5), 0, 1, 2)  # binds the matvec, which lifts once
    monkeypatch.setattr(passage, "_LIFTS", chain._ByteCache(passage._LIFT_CACHE_BYTES))
    lift, built = passage._lift, []
    monkeypatch.setattr(passage, "_lift", lambda *args: built.append(1) or lift(*args))
    steps = _count_steps(monkeypatch)
    kernel = random_kernel(8, np.random.default_rng(8))
    calls = []
    for i, j in itertools.product(range(8), repeat=2):
        first_passage_law(kernel, i, j, 600)
        calls.append(len(steps))
        steps.clear()
    assert len(built) == 8 and calls == [6] * 64


@pytest.mark.parametrize("cols", range(1, 18))
def test_row_sums_equal_the_reduction_bit_for_bit(cols):
    # rows of normals, subnormals and zeros, read as _propagate reads them:
    # the first columns of a wider buffer.  Each row sums to the bits it
    # sums to on its own, whatever the block, so a rescale point depends on
    # the row alone
    rng = np.random.default_rng(cols)
    for m in (1, 2, 3, 7, 8, 9, 127, 128, 599, 600):
        buf = rng.random((m, cols + 1)) * np.ldexp(1.0, rng.integers(-1080, 4, (m, cols + 1)))
        buf[rng.random((m, cols + 1)) < 0.2] = 0.0
        rows = buf[:, :cols]
        alone = np.array([np.add.reduce(row) for row in rows])
        assert np.array_equal(passage._row_sums(rows), alone), (cols, m)


def test_lift_cache_entry_pins_its_operator(monkeypatch):
    # a lift is keyed by the id of the cached operator it lifts and holds
    # it, so that no new operator can take that id and find a stale lift
    monkeypatch.setattr(passage, "_LIFTS", chain._ByteCache(passage._LIFT_CACHE_BYTES))
    kernel = random_kernel(8, np.random.default_rng(8))
    first_passage_law(kernel, 0, 1, 600)
    key = id(passage._operator(kernel, (1, None, None)))
    assert passage._LIFTS._entries[key][0][3] is passage._operator(kernel, (1, None, None))
    del kernel
    assert id(passage._LIFTS._entries[key][0][3]) == key
    fresh = [(np.zeros(3),) for _ in range(100)]
    assert all(id(f) != key for f in fresh)
    # a value that costs more than the whole cache is returned, not kept
    too_big = passage._LIFTS.get(id(fresh[0]), lambda: (np.ones(1 << 17), fresh[0]))
    assert too_big[0].size == 1 << 17 and id(fresh[0]) not in passage._LIFTS._entries


def _single_steps(op, w, x, steps, fslot):
    """Rows of ``steps`` single-step calls from x; with ``fslot`` = 2f, each
    row then moves slot 2f into 2f + 1."""
    from scipy.sparse._sparsetools import csc_matvec
    out = np.zeros((steps, w))
    for t in range(steps):
        csc_matvec(w, w, *op, x, out[t])
        if fslot is not None:
            out[t, fslot + 1] += out[t, fslot]
            out[t, fslot] = 0.0
        x = out[t]
    return out


def _lifted_operators():
    # seeded dense and ring chains (every dense state has a self-loop, ring
    # states mostly do not) and one chain whose flagged state has one
    for name, kernel in (
            ("dense8", random_kernel(8, np.random.default_rng(8))),
            ("dense64", random_kernel(64, np.random.default_rng(64))),
            ("ring40", _sparse_kernel(40, 3, 40)),
            ("selfloop", TransitionKernel(list("abc"), [[(1, 1.0)], [(1, 0.5), (2, 0.5)],
                                                        [(0, 0.7), (2, 0.3)]]))):
        yield pytest.param(name, kernel, id=name)


@pytest.mark.parametrize("name,kernel", _lifted_operators())
def test_lifted_chunk_equals_single_steps(name, kernel):
    # a block of m = c + 1 rows, one single-step call and one lifted call
    # over a chunk of c steps, gives the rows that m single-step calls give,
    # bit for bit, in all three modes and for every m up to lift + 1.  As in
    # _propagate, row 0 is a raw single step from a carried vector, and in
    # flag mode the last row is fixed up by hand and column 2f zeroed
    from scipy.sparse._sparsetools import csc_matvec
    n = kernel.n_states
    rng = np.random.default_rng(n)
    modes = [(0, {}), (n - 1, {"kill": 1}), (1, {"flag": 0}), (0, {"flag": n - 1})]
    if name == "selfloop":
        modes.append((2, {"flag": 1}))  # state b steps to itself
    for absorb, mode in modes:
        op = passage._taboo_operator(kernel, absorb, mode.get("kill"), mode.get("flag"))
        w = op[3] + 1
        fslot = None if "flag" not in mode else 2 * mode["flag"]
        span, rows, reach, lift = passage._block_sizes(w, op[2].size)
        if name == "dense64":  # a lift bounded by _BLOCK_DOUBLES entries
            assert lift == reach - 1 < rows - 1
        lifted = passage._lift(*op[:3], w, lift, fslot)
        x = rng.random(w)
        if fslot is not None:
            x[fslot] = 0.0
        for c in range(lift + 1):
            expected = _single_steps(op[:3], w, x, c + 1, fslot)
            flat = np.zeros((c + 1) * w)
            csc_matvec(w, w, *op[:3], x, flat)
            if c:
                csc_matvec(flat.size, c * w, *lifted, flat, flat)
            got = flat.reshape(c + 1, w)
            if fslot is not None:
                got[c, fslot + 1] += got[c, fslot]
                got[:, fslot] = 0.0
            assert np.array_equal(got, expected), (name, absorb, mode, c)


def test_propagation_refuses_a_matvec_that_copies_its_input(monkeypatch):
    # lifted steps read the rows that the same call has just written; a
    # csc_matvec that copied X first would make every law silently wrong
    import scipy
    import scipy.sparse._sparsetools as tools

    real = tools.csc_matvec

    def copying(n_row, n_col, ptr, ind, val, x, y):
        real(n_row, n_col, ptr, ind, val, x.copy(), y)

    monkeypatch.setattr(tools, "csc_matvec", copying)
    monkeypatch.setattr(passage, "_csc_matvec", None)
    with pytest.raises(RuntimeError, match=f"scipy {scipy.__version__}"):
        first_passage_law(build_two_state(0.5), 0, 1, 10)
    monkeypatch.setattr(tools, "csc_matvec", real)
    assert first_passage_law(build_two_state(0.5), 0, 1, 10).horizon == 10
    assert passage._csc_matvec is real


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.01, 0.99), h=st.integers(1, 3000))
@example(p=0.9, h=3000)
def test_long_horizons_match_two_state_closed_forms(p, h):
    # first hit of 1 from 0 is geometric(p); the return to 1 is one step
    # more.  At p = 0.9 the taboo vector is rescaled every ~180 steps
    k = build_two_state(p)
    stay = 1.0 - p  # the kernel's own rounded probability
    n = np.arange(1, h + 1)
    hit, ret = first_passage_law(k, 0, 1, h), first_passage_law(k, 1, 1, h)
    assert ret.prob(1) == 0.0
    log_hit = math.log(p) + (n - 1.0) * math.log(stay)
    for law, expected, log_tail, log_expected in (
            (hit, p * stay ** (n - 1.0), h * math.log(stay), log_hit),
            (ret, np.where(n > 1, p * stay ** (n - 2.0), 0.0), (h - 1) * math.log(stay),
             np.concatenate(([-math.inf], log_hit[:-1])))):
        got = law.pmf_array()
        normal = expected >= _SMALLEST_NORMAL
        assert np.all(np.abs(got[normal] / expected[normal] - 1.0) <= 1e-12)
        # entries that read 0 in the pmf keep their true logs at their own
        # steps; the tail is the mass beyond the horizon
        lost = (got == 0.0) & (log_expected > -math.inf)
        assert np.all(log_expected[lost] < -1074 * math.log(2.0))
        assert np.all(np.abs(law.log_pmf[lost] - log_expected[lost]) <= 1e-9)
        assert abs(law.log_tail - log_tail) <= 1e-9
        assert not law.is_complete


def test_accepts_state_names(kernel3):
    by_name = first_passage_law(kernel3, "a", "c", 10)
    by_index = first_passage_law(kernel3, 0, 2, 10)
    assert np.array_equal(by_name.log_pmf, by_index.log_pmf)


# ---------------------------------------------------------------------------
# hit-before-return and conditioned laws


def test_hit_before_return_two_state_exact():
    k = build_two_state(0.3)
    assert abs(hit_before_return_prob(k, 0, 1) - 0.3) <= 1e-15
    assert abs(hit_before_return_prob(k, 1, 0) - 1.0) <= 1e-15


def test_hit_before_return_matches_absorbing_iteration(kernel3, kernel4):
    for kernel in (kernel3, kernel4):
        for i in range(kernel.n_states):
            for j in range(kernel.n_states):
                if i == j:
                    continue
                pi = hit_before_return_prob(kernel, i, j)
                oracle = _pi_oracle(kernel, i, j)
                assert abs(pi - oracle) <= 1e-12


def _pi_oracle(kernel, i, j) -> float:
    # first step by hand, then absorb at {i, j}
    total = 0.0
    for k, p in kernel.rows[i]:
        if k == j:
            total += p
        elif k != i:
            total += p * absorbed_mass_iterative(kernel, k, absorb=j, kill=i)
    return total


def test_conditioned_laws_match_filtered_enumeration(kernel3):
    i, j = 0, 2
    pi = hit_before_return_prob(kernel3, i, j)
    u = conditioned_return_law(kernel3, i, j, ORACLE_H)
    u_oracle = pmf_dict_to_array(
        enumerate_passage_pmf(kernel3, i, i, ORACLE_H, kill=j), ORACLE_H)
    assert np.abs(u.pmf_array() * (1.0 - pi) - u_oracle).max() <= 1e-12

    v = conditioned_hit_law(kernel3, i, j, ORACLE_H)
    v_oracle = pmf_dict_to_array(
        enumerate_passage_pmf(kernel3, i, j, ORACLE_H, kill=i), ORACLE_H)
    assert np.abs(v.pmf_array() * pi - v_oracle).max() <= 1e-12

    cross = crossing_return_law(kernel3, i, j, ORACLE_H)
    cross_oracle = pmf_dict_to_array(
        enumerate_passage_pmf(kernel3, i, i, ORACLE_H, require_visit=j), ORACLE_H)
    assert np.abs(cross.pmf_array() * pi - cross_oracle).max() <= 1e-12


def test_conditioned_mass_accounting(kernel3):
    # at a long horizon the conditioned law is essentially complete
    u = conditioned_return_law(kernel3, 0, 2, 400)
    assert math.exp(u.log_tail) <= 1e-14
    assert abs(u.pmf_array().sum() - 1.0) <= 1e-12
    # conditioned laws carry their taboo operator's certificate, over 1 - pi
    assert u.tail_cert is not None and u.tail_cert.log_bound >= u.log_tail


def test_conditioned_tails_are_never_clipped_to_zero():
    # the old tail max(0, 1 - pmf.sum()) made 33 of these 40 laws complete
    for seed in range(40):
        k = random_kernel(5, np.random.default_rng(seed), min_prob=0.01)
        assert not conditioned_return_law(k, 0, 1, 300).is_complete


def test_compound_tail_matches_direct_law():
    # the compound inherits the conditioned tails; with 1 - pmf.sum() its
    # log tail was the rounding noise -36.7
    rng = np.random.default_rng(3)
    kernel = [random_kernel(n, rng) for n in (3, 4, 5)][2]
    h = 600
    pi, t, u, v = _identity_setup(kernel, 0, 1, h)
    assert abs(t.log_tail - (-150.49)) <= 0.01
    comp = geometric_compound(u, v, pi, horizon=h)
    assert abs(comp.log_tail - t.log_tail) <= 1e-6


def test_no_such_path_raised():
    k = build_two_state(0.5)
    # every return of the bouncing state passes through the holding state
    with pytest.raises(NoSuchPath):
        conditioned_return_law(k, 1, 0, 20)
    # but the holding state can return while avoiding the bouncer
    u = conditioned_return_law(k, 0, 1, 20)
    assert abs(u.prob(1) - 1.0) <= 1e-15


def test_no_such_path_despite_rounded_pi():
    # a never reaches d, yet the linear solve rounds P_a(hit d before a) to
    # 2.8e-17 instead of 0: the path check, not pi, decides
    k = TransitionKernel(list("abcd"), [[(0, .9), (1, .1)], [(0, .1), (1, .9)],
                                        [(1, .1), (2, .6), (3, .3)], [(0, 1.0)]])
    for law in (conditioned_hit_law, crossing_return_law):
        with pytest.raises(NoSuchPath):
            law(k, 0, 3, 20)


@pytest.mark.parametrize("kernel", [
    # c is absorbing
    TransitionKernel(list("abc"), [[(1, .5), (2, .5)], [(0, 1.0)], [(2, 1.0)]]),
    # {c, d} is a closed class
    TransitionKernel(list("abcd"), [[(1, .5), (2, .5)], [(0, 1.0)],
                                    [(2, .3), (3, .7)], [(2, .6), (3, .4)]]),
])
def test_closed_class_avoiding_the_pair_is_invalid_input(kernel):
    # the hitting system is singular when a closed class avoids a and b
    with pytest.raises(InvalidInput, match="'a' and 'b'"):
        hit_before_return_prob(kernel, 0, 1)
    for law in (conditioned_hit_law, crossing_return_law):
        with pytest.raises(InvalidInput, match="'a' and 'b'"):
            law(kernel, 0, 1, 10)


def _zero_pattern_kernel(n: int, rng: np.random.Generator) -> TransitionKernel:
    """Seeded chain with 1-3 random targets a row: self-loops, and states
    that cannot reach each other, are common."""
    rows = []
    for _ in range(n):
        size = int(rng.integers(1, 4))
        targets = sorted(rng.choice(n, size=size, replace=False).tolist())
        rows.append(list(zip(targets, rng.dirichlet(np.ones(size)).tolist())))
    return TransitionKernel([str(s) for s in range(n)], rows)


def test_path_check_matches_boolean_reachability():
    outcomes, loops = set(), set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = _zero_pattern_kernel(int(rng.integers(3, 8)), rng)
        loops.add(any(t == s for s, row in enumerate(k.rows) for t, _ in row))
        for start, goal, avoid in itertools.product(range(k.n_states), repeat=3):
            if goal != avoid:
                want = reaches_oracle(k, start, goal, avoid)
                assert passage._reaches(k, start, goal, avoid) == want, (seed, start, goal, avoid)
                outcomes.add(want)
        for i, j in itertools.permutations(range(k.n_states), 2):
            checks = ((conditioned_return_law, reaches_oracle(k, i, i, j)),
                      (conditioned_hit_law, reaches_oracle(k, i, j, i)),
                      (crossing_return_law, reaches_oracle(k, i, j, i)))
            for law, exists in checks:
                if not exists:
                    with pytest.raises(NoSuchPath):
                        law(k, i, j, 5)
    assert outcomes == loops == {True, False}


def _bfs_reaches(adj: list[list[int]], start: int, goal: int, avoid: int) -> bool:
    """Plain breadth-first search over the stored edges: the states entered
    in one or more steps from ``start``, never stepping on from ``avoid``
    or ``goal``."""
    frontier, seen = list(adj[start]), set()
    while frontier:
        nxt = []
        for s in frontier:
            if s == goal:
                return True
            if s != avoid and s not in seen:
                seen.add(s)
                nxt.extend(adj[s])
        frontier = nxt
    return False


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_path_check_matches_bfs_on_random_sparse_kernels(data, n):
    adj = [data.draw(st.lists(st.integers(0, n - 1), max_size=3), label=f"row {s}")
           for s in range(n)]
    k = TransitionKernel([str(s) for s in range(n)],
                         [[(t, 1.0 / len(row)) for t in row] for row in adj])
    for start, goal, avoid in itertools.product(range(n), repeat=3):
        if goal != avoid:
            assert passage._reaches(k, start, goal, avoid) == _bfs_reaches(adj, start, goal, avoid)


def test_crossing_return_two_state_exact():
    k = build_two_state(0.5)
    cross = crossing_return_law(k, 0, 1, 30)
    # returns through state 1 take exactly 2 steps
    assert abs(cross.prob(2) - 1.0) <= 1e-15


# ---------------------------------------------------------------------------
# decomposition identities


def _identity_setup(kernel, i, j, h):
    pi = hit_before_return_prob(kernel, i, j)
    t = first_passage_law(kernel, i, j, h)
    u = conditioned_return_law(kernel, i, j, h)
    v = conditioned_hit_law(kernel, i, j, h)
    return pi, t, u, v


def test_geometric_compound_identity(kernel3, kernel4):
    h = 50
    # a -> c crosses with pi = 0.005: near-critical, every excursion count
    # up to the horizon carries mass
    rare = TransitionKernel(["a", "b", "c"], [[(0, 0.5), (1, 0.495), (2, 0.005)],
                                              [(0, 0.9), (1, 0.1)], [(0, 1.0)]])
    for kernel, (i, j) in ((kernel3, (0, 2)), (kernel3, (1, 0)), (kernel4, (2, 0)),
                           (rare, (0, 2))):
        pi, t, u, v = _identity_setup(kernel, i, j, h)
        comp = geometric_compound(u, v, pi, horizon=h)
        assert np.abs(comp.pmf_array() - t.pmf_array()).max() <= 1e-10


def test_return_mixture_identity(kernel3):
    h = 50
    i, j = 0, 2
    pi = hit_before_return_prob(kernel3, i, j)
    r = first_passage_law(kernel3, i, i, h)
    u = conditioned_return_law(kernel3, i, j, h)
    cross = crossing_return_law(kernel3, i, j, h)
    mix = mixture([u, cross], [1.0 - pi, pi])
    assert np.abs(mix.pmf_array() - r.pmf_array()).max() <= 1e-10


def test_crossing_equals_hit_then_passage(kernel3):
    h = 50
    i, j = 0, 2
    v = conditioned_hit_law(kernel3, i, j, h)
    back = first_passage_law(kernel3, j, i, h)
    cross = crossing_return_law(kernel3, i, j, h)
    conv = convolve(v, back, horizon=h)
    assert np.abs(conv.pmf_array() - cross.pmf_array()).max() <= 1e-10


# ---------------------------------------------------------------------------
# convolution algebra


def _convolve_atoms(a: AtomicDist, b: AtomicDist, **kwargs) -> AtomicDist:
    return convolve(PassageLaw.sparse(a), PassageLaw.sparse(b), **kwargs).atomic


def test_convolve_atomic_exact():
    pa, pb = {1: 0.25, 3: 0.75}, {2: 0.5, 4: 0.5}
    c = _convolve_atoms(AtomicDist.from_pairs(pa), AtomicDist.from_pairs(pb))
    oracle = brute_convolve_dicts(pa, pb)
    assert set(c.atoms.tolist()) == set(oracle)
    for v, p in zip(c.atoms, c.probs()):
        assert abs(p - oracle[int(v)]) <= 1e-15


def test_convolve_dense_matches_brute(kernel3):
    a = first_passage_law(kernel3, 0, 1, 12)
    b = first_passage_law(kernel3, 1, 2, 12)
    c = convolve(a, b)
    assert c.horizon == 24
    oa = {n: a.prob(n) for n in range(1, 13)}
    ob = {n: b.prob(n) for n in range(1, 13)}
    oracle = brute_convolve_dicts(oa, ob)
    for n in range(2, 25):
        assert abs(c.prob(n) - oracle.get(n, 0.0)) <= 1e-12


def test_convolve_horizon_truncation_conserves_mass():
    a = AtomicDist.from_pairs({1: 0.5, 10: 0.5})
    b = AtomicDist.from_pairs({1: 0.5, 10: 0.5})
    c = _convolve_atoms(a, b, horizon=12)
    # the 20-atom (mass .25) moved to the tail
    assert abs(math.exp(c.log_tail) - 0.25) <= 1e-15
    assert abs(math.exp(c.log_mass())) - 1.0 <= 1e-12


def test_convolve_tail_composition():
    a = AtomicDist(np.array([1], dtype=np.int64), np.array([math.log(0.6)]), math.log(0.4))
    b = AtomicDist(np.array([2], dtype=np.int64), np.array([math.log(0.7)]), math.log(0.3))
    c = _convolve_atoms(a, b)
    # only the 0.6 * 0.7 product is assignable; the rest is tail
    assert abs(math.exp(c.log_prob(3)) - 0.42) <= 1e-15
    assert abs(math.exp(c.log_tail) - 0.58) <= 1e-15


def test_convolve_prunes_tiny_masses_into_tail():
    # one atom of essentially full mass, one astronomically small
    a = AtomicDist(np.array([1, 5], dtype=np.int64),
                   np.array([-1e-300, -800.0]))
    b = AtomicDist.point_mass(1)
    c = _convolve_atoms(a, b)
    assert c.atoms.tolist() == [2]
    assert abs(c.log_tail - (-800.0)) <= 1e-9


def test_convolve_rejects_mixed_representations(kernel3):
    dense = first_passage_law(kernel3, 0, 1, 5)
    sparse = PassageLaw.point(3)
    with pytest.raises(InvalidInput):
        convolve(dense, sparse)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 5)), min_size=1,
                max_size=4, unique_by=lambda t: t[0]))
def test_convolve_associative_on_atoms(pairs):
    total = sum(w for _, w in pairs)
    dist = AtomicDist.from_pairs({v: w / total for v, w in pairs})
    single = AtomicDist.from_pairs({2: 0.5, 3: 0.5})
    left = _convolve_atoms(_convolve_atoms(dist, single), single)
    right = _convolve_atoms(dist, _convolve_atoms(single, single))
    assert left.atoms.tolist() == right.atoms.tolist()
    assert np.abs(left.log_probs - right.log_probs).max() <= 1e-12


# ---------------------------------------------------------------------------
# geometric compound edge cases


def test_compound_point_masses_give_shifted_geometric():
    u = PassageLaw.point(1)
    v = PassageLaw.point(1)
    comp = geometric_compound(u, v, 0.5, horizon=40)
    for k in range(1, 41):
        assert abs(comp.prob(k) - 0.5 ** k) <= 1e-15
    assert abs(math.exp(comp.log_tail) - 0.5 ** 40) <= 1e-15


def test_dense_tails_never_complete_by_underflow():
    # P(T > 1100) = 2^-1100 underflows in linear space, yet is not zero
    one = PassageLaw.point(1).to_dense(1100)
    comp = geometric_compound(one, one, 0.5, horizon=1100)
    assert comp.log_tail == 1100 * math.log(0.5)
    assert f_moment(comp, exp_fn(0.7)).verdict != VERDICT_CONVERGED
    half = PassageLaw._dense_log([math.log(0.5), math.log(0.5)], -800.0)
    assert abs(convolve(half, half).log_tail - (-800.0 + math.log(2.0))) <= 1e-12
    # mass moved past the horizon is e^-1000, below the smallest double
    rare = PassageLaw._dense_log([math.log1p(-math.exp(-500.0)), -500.0], -math.inf)
    assert convolve(rare, rare, horizon=3).log_tail == -1000.0


def test_compound_pi_one_returns_v(kernel3):
    v = first_passage_law(kernel3, 0, 1, 10)
    assert geometric_compound(v, v, 1.0, horizon=10) is v


def test_compound_rejects_bad_pi(kernel3):
    v = first_passage_law(kernel3, 0, 1, 10)
    for pi in (0.0, -0.1, 1.2):
        with pytest.raises(InvalidInput):
            geometric_compound(v, v, pi)


def test_compound_sparse_needs_horizon():
    u = PassageLaw.point(1)
    with pytest.raises(InvalidInput):
        geometric_compound(u, u, 0.5)


def test_horizon_below_1_is_invalid_input(kernel3):
    # rejected up front: the dense paths would fail inside numpy instead
    # ("could not broadcast", "negative dimensions")
    dense = first_passage_law(kernel3, 0, 1, 10)
    one, two = PassageLaw.point(1), PassageLaw.point(2)
    for h in (0, -2):
        for op in (lambda: convolve(dense, dense, horizon=h),
                   lambda: convolve(one, two, horizon=h),
                   lambda: geometric_compound(dense, dense, 0.5, horizon=h),
                   lambda: geometric_compound(one, two, 0.5, horizon=h)):
            with pytest.raises(InvalidInput, match="horizon must be >= 1"):
                op()


def _reloaded(law):
    buf = io.StringIO()
    law_to_csv(law, buf)
    return law_from_csv(io.StringIO(buf.getvalue()))


@pytest.mark.parametrize("h", [1, 2, 127, 128, 129, 600, 1100])
def test_compound_matches_renewal_reference(h):
    # the blocked solve sums in another order than the step-by-step
    # recursion: equal to rounding, on block edges (127-129) as well
    tiny = np.finfo(float).tiny
    for seed in range(30):
        kernel = random_kernel(3 + seed % 6, np.random.default_rng(seed))
        pi = hit_before_return_prob(kernel, 0, 1)
        u = conditioned_return_law(kernel, 0, 1, h)
        v = conditioned_hit_law(kernel, 0, 1, h)
        short_u = conditioned_return_law(kernel, 0, 1, max(1, h // 3))
        for a, b, p in ((u, v, pi), (u, v, 0.005), (short_u, v, pi),
                        (_reloaded(u), _reloaded(v), pi)):
            want, want_log_tail = reference_compound(a, b, p, h)
            got = geometric_compound(a, b, p, horizon=h)
            pmf = got.pmf_array()
            normal = want >= tiny
            assert pmf.size == h
            assert np.all(np.abs(pmf - want)[normal] <= 1e-13 * want[normal])
            assert abs(got.log_tail - want_log_tail) <= 1e-12


def test_renewal_matches_recursion_and_inverts_the_toeplitz_block():
    # r_0 = 1, r_t = sum_{k<=t} a_k r_{t-k}, for a >= 0 with sum a < 1 (down
    # to 1 - 1e-6), sparse or dense.  Both computations add nonnegative
    # terms only, so they agree to a relative 1e-13 (about 450 eps, for sums
    # of at most 300 terms); the lower-triangular Toeplitz matrices with
    # first columns r and (1, -a_1, ...) multiply to the identity within
    # 1e-13 |R| |T|, entry by entry, and exactly above the diagonal
    rng = np.random.default_rng(12)
    tiny = np.finfo(float).tiny
    for n in range(1, 301):
        a = rng.random(n) * (rng.random(n) < rng.random())
        a[0] = 0.0
        if a.sum() > 0.0:
            a *= (1.0 - 10.0 ** -rng.uniform(0.0, 6.0)) / a.sum()
        want = np.empty(n)
        want[0] = 1.0
        for t in range(1, n):
            want[t] = a[t:0:-1] @ want[:t]
        got = passage._renewal(a, n)
        normal = want >= tiny
        assert np.all(np.abs(got - want)[normal] <= 1e-13 * want[normal]), n
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        inv = np.where(lag >= 0, got[lag.clip(0)], 0.0)
        block = np.where(lag >= 0, np.concatenate(([1.0], -a[1:]))[lag.clip(0)], 0.0)
        err = np.abs(inv @ block - np.eye(n))
        assert np.all(err <= 1e-13 * (np.abs(inv) @ np.abs(block))), n


def test_compound_builds_no_horizon_squared_temporary(kernel3):
    # a full (h+1)^2 Toeplitz matrix would take 128 MB at h = 4000
    h = 4000
    u = conditioned_return_law(kernel3, 0, 1, h)
    v = conditioned_hit_law(kernel3, 0, 1, h)
    pi = hit_before_return_prob(kernel3, 0, 1)
    tracemalloc.start()
    try:
        geometric_compound(u, v, pi, horizon=h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# mixtures and domination


def test_mixture_weights_validated(kernel3):
    a = first_passage_law(kernel3, 0, 1, 10)
    with pytest.raises(InvalidInput):
        mixture([a, a], [0.7, 0.2])
    with pytest.raises(InvalidInput):
        mixture([a, a], [1.2, -0.2])


def test_mixture_truncates_to_shortest_horizon(kernel3):
    a = first_passage_law(kernel3, 0, 1, 10)
    b = first_passage_law(kernel3, 0, 1, 20)
    mix = mixture([a, b], [0.5, 0.5])
    assert mix.horizon == 10
    assert np.abs(mix.pmf_array() - a.pmf_array()).max() <= 1e-15


def test_mixture_sparse():
    a = PassageLaw.point(2)
    b = PassageLaw.point(5)
    mix = mixture([a, b], [0.25, 0.75])
    assert abs(mix.prob(2) - 0.25) <= 1e-15
    assert abs(mix.prob(5) - 0.75) <= 1e-15


def test_dominates_shifted_law():
    a = PassageLaw.point(5)
    b = PassageLaw.point(2)
    rep = stochastic_dominates(a, b)
    assert rep.dominates and rep.max_cdf_violation == 0.0
    rev = stochastic_dominates(b, a)
    assert not rev.dominates and rev.max_cdf_violation >= 1.0 - 1e-12


def test_dominates_requires_common_frame(kernel3):
    a = first_passage_law(kernel3, 0, 1, 10)
    b = first_passage_law(kernel3, 0, 1, 20)
    with pytest.raises(IncomparableLaws):
        stochastic_dominates(a, b)
    with pytest.raises(IncomparableLaws):
        stochastic_dominates(a, PassageLaw.point(3))


def test_conditioning_on_crossing_dominates_plain_return(kernel3):
    # returns forced through a detour are stochastically larger
    h = 60
    r = first_passage_law(kernel3, 0, 0, h)
    cross = crossing_return_law(kernel3, 0, 2, h)
    rep = stochastic_dominates(cross, r, tol=1e-9)
    assert rep.dominates


# ---------------------------------------------------------------------------
# representation plumbing


def test_dense_log_folds_sub_floor_entries_into_tail():
    # e^-2000 flushes to zero in linear space; the log pmf keeps it at its
    # step, and the tail is the mass beyond the horizon
    law = PassageLaw._dense_log(np.array([math.log(0.5), -2000.0]), math.log(0.5))
    assert law.pmf_array().tolist() == [0.5, 0.0]
    assert law.log_pmf[0] == math.log(0.5) and law.log_pmf[1] == -2000.0
    assert law.log_tail == math.log(0.5) and not law.is_complete
    # all of its mass sits at known steps
    whole = PassageLaw._dense_log(np.array([0.0, -2000.0]), -math.inf)
    assert whole.log_pmf[1] == -2000.0
    assert whole.log_tail == -math.inf and whole.is_complete


def test_reloaded_law_keeps_dense_calculus():
    # the reloaded pmf has entries below 1e-300; the compound and convolve
    # must treat it like the law it was written from
    law = first_passage_law(build_two_state(0.9), 0, 1, 400)
    buf = io.StringIO()
    law_to_csv(law, buf)
    back = law_from_csv(io.StringIO(buf.getvalue()))
    for op in (lambda x: geometric_compound(x, x, 0.5), lambda x: convolve(x, x)):
        want, got = op(law), op(back)
        assert np.abs(got.pmf_array() - want.pmf_array()).max() <= 1e-15
        assert abs(math.exp(got.log_tail) - math.exp(want.log_tail)) <= 1e-15


def test_to_dense_and_mixture_keep_the_mass_of_their_own_steps():
    # P(T = k) = 2^-(k-1), k >= 2, for the return to 1 of two-state 0.5.  A
    # law cut at 1200 and a mixture at 1500 must count every step they hold
    # in the partial sum, including the steps below the float range
    law = first_passage_law(build_two_state(0.5), 1, 1, 1500)
    f = exp_fn(0.69)
    for sub in (law.to_dense(1200), mixture([law, law], [0.5, 0.5])):
        k = np.arange(2, sub.horizon + 1)
        want = logsumexp(0.69 * k - (k - 1.0) * math.log(2.0))
        assert abs(f_moment(sub, f).log_partial_sum - want) <= 1e-12 * abs(want), sub.horizon


def test_mixtures_and_cuts_keep_the_tail_certificate():
    # a mixture bounds its tail by the weighted sum of its operands' bounds
    # at the largest rho; a cut carries the bound back over the survival it
    # drops.  Both used to drop the certificate, and the moment of the
    # mixture read inconclusive
    law = first_passage_law(build_two_state(0.5), 1, 1, 1500)
    f = exp_fn(0.69)
    want = f_moment(law, f)
    assert want.verdict == VERDICT_CONVERGED
    mixed = mixture([law, law], [0.5, 0.5])
    assert mixed.tail_cert.start == 1500 and mixed.tail_cert.rho == law.tail_cert.rho
    assert mixed.tail_cert.log_bound == pytest.approx(law.tail_cert.log_bound, rel=1e-14)
    got = f_moment(mixed, f)
    assert got.verdict == VERDICT_CONVERGED
    assert got.log_partial_sum == pytest.approx(want.log_partial_sum, rel=1e-14)
    assert got.log_upper_bound == pytest.approx(want.log_upper_bound, rel=1e-14)
    # cut to 1200 steps: S(1200 + k) <= rho^k B' on every computed k and past them
    cut, cert = law.to_dense(1200), law.tail_cert
    log_rho = math.log(cert.rho)
    assert cut.tail_cert.start == 1200 and cut.tail_cert.rho == cert.rho
    assert cut.tail_cert.log_bound >= cert.log_bound - 300 * log_rho
    log_surv = np.logaddexp.accumulate(np.concatenate(([law.log_tail],
                                                       law.log_pmf[:1199:-1])))[::-1]
    assert np.all(log_surv <= cut.tail_cert.log_bound + np.arange(301) * log_rho + 1e-12)
    other = first_passage_law(build_two_state(0.9), 1, 1, 1500)
    both = mixture([law, other], [0.25, 0.75])
    assert both.tail_cert.rho == max(cert.rho, other.tail_cert.rho)
    assert both.tail_cert.log_bound == pytest.approx(
        log_add(math.log(0.25) + cert.log_bound, math.log(0.75) + other.tail_cert.log_bound),
        rel=1e-14)
    # an operand without a certificate leaves the mixture without one
    bare = PassageLaw._dense_log(law.log_pmf, law.log_tail)
    assert mixture([law, bare], [0.5, 0.5]).tail_cert is None
    # a certificate the tail does not bear out is dropped, not raised
    assert PassageLaw.dense([0.5, 0.25], 0.25,
                            tail_cert=lambda: TailCert(2, 0.1, math.log(0.2))).tail_cert is None


def _sub_float_law(which: str) -> PassageLaw:
    if which == "two-state":
        return first_passage_law(build_two_state(0.5), 1, 1, 1500)
    # a U law of the decomposition whose entries fall below 2^-1074 from step 279 on
    return conditioned_return_law(random_kernel(3, np.random.default_rng(1)), 0, 1, 600)


@pytest.mark.parametrize("which", ["two-state", "avoiding"])
def test_calculus_on_unseen_entries_keeps_the_mass(which):
    # the linear pmf reads 0 at entries below the float range; the calculus
    # on linear pmfs counts their mass in its output tail, so each result
    # keeps the whole mass, and reads the law as that linear view
    law = _sub_float_law(which)
    lin, h = law.pmf_array(), law.horizon
    unseen = (lin == 0.0) & (law.log_pmf > -math.inf)
    log_off = log_add(law.log_tail, logsumexp(law.log_pmf[unseen]))
    point = PassageLaw.dense([1.0], 0.0)
    shifted = convolve(law, point)
    assert np.array_equal(shifted.pmf_array(), np.concatenate(([0.0], lin)))
    assert shifted.log_tail == log_off
    cut = convolve(law, point, horizon=h)
    comp = geometric_compound(law, law, 0.3, horizon=h)
    want, want_log_tail = reference_compound(law, law, 0.3, h)
    normal = want >= np.finfo(float).tiny
    assert np.all(np.abs(comp.pmf_array() - want)[normal] <= 1e-13 * want[normal])
    assert abs(comp.log_tail - want_log_tail) <= 1e-12
    for out in (shifted, cut, comp):
        assert abs(out.log_total_mass()) <= 1e-10
    report = stochastic_dominates(cut, law)
    assert report.dominates and report.max_cdf_violation <= 1e-15
    assert not stochastic_dominates(law, cut).dominates


def test_point_and_to_dense_roundtrip():
    p = PassageLaw.point(4)
    d = p.to_dense(6)
    assert d.is_dense and abs(d.prob(4) - 1.0) <= 1e-15
    with pytest.raises(InvalidInput):
        first_passage_law(build_two_state(0.5), 1, 1, 6).to_dense(10)  # incomplete


def test_mass_conservation_enforced():
    with pytest.raises(InvalidInput):
        PassageLaw.dense(np.array([0.5, 0.3]), 0.1)  # sums to 0.9
    with pytest.raises(InvalidInput):
        AtomicDist(np.array([1], dtype=np.int64), np.array([math.log(0.5)]))


def test_tail_cert_validation():
    with pytest.raises(InvalidInput):
        TailCert(start=0, rho=0.5, log_bound=0.0)
    with pytest.raises(InvalidInput):
        TailCert(start=3, rho=1.0, log_bound=0.0)
    with pytest.raises(InvalidInput):
        TailCert(start=3, rho=0.5, log_bound=math.inf)
    with pytest.raises(InvalidInput):
        TailCert(start=3, rho=0.5, log_bound=math.nan)
    pmf = np.array([0.1, 0.1, 0.1, 0.5])
    PassageLaw.dense(pmf, 0.2, tail_cert=TailCert(start=4, rho=0.2, log_bound=math.log(0.2)))
    # a bound below the tail is rejected, and so is one that starts anywhere
    # but at the horizon
    with pytest.raises(InvalidInput):
        PassageLaw.dense(pmf, 0.2, tail_cert=TailCert(start=4, rho=0.2, log_bound=math.log(0.19)))
    with pytest.raises(InvalidInput):
        PassageLaw.dense(pmf, 0.2, tail_cert=TailCert(start=1, rho=0.2, log_bound=0.0))
    # the bound is checked on a sparse law too
    dist = AtomicDist(np.array([2, 7], dtype=np.int64), np.array([math.log(0.5), math.log(0.3)]),
                      math.log(0.2))
    PassageLaw.sparse(dist, TailCert(7, 0.5, math.log(0.2)))
    with pytest.raises(InvalidInput):
        PassageLaw.sparse(dist, TailCert(7, 0.5, math.log(0.1)))


def test_tail_cert_derived_for_geometric_chain():
    law = first_passage_law(build_two_state(0.3), 1, 1, 120)
    cert = law.tail_cert
    assert cert is not None and cert.start == 120
    # the taboo operator keeps 0.7 of the mass a step; the certified rho is
    # that within the rounding of its check
    assert 0.7 <= cert.rho < 0.7 + 1e-9
    longer = first_passage_law(build_two_state(0.3), 1, 1, 600)
    log_surv = np.logaddexp.accumulate(np.concatenate(([longer.log_tail],
                                                       longer.log_pmf[:119:-1])))[::-1]
    assert np.all(log_surv <= cert.log_bound + np.arange(481) * math.log(cert.rho) + 1e-12)


def test_tail_cert_exact_zero_tail():
    law = first_passage_law(build_two_state(0.5), 0, 0, 10)
    assert law.is_complete
    assert law.tail_cert is not None


_CERT_LAWS = {"passage": (first_passage_law, lambda i, j: (j, None, None)),
              "return-avoiding": (conditioned_return_law, lambda i, j: (i, j, None)),
              "hit-first": (conditioned_hit_law, lambda i, j: (j, i, None)),
              "return-crossing": (crossing_return_law, lambda i, j: (i, None, j))}


def _certifies_its_operator(kernel, key) -> bool:
    """Whether the cached (rho, v) of ``key`` has v >= 1 and Qv <= rho v on
    every slot that can hold mass after step 0, in exact arithmetic on the
    operator's own entries: the alive slots some entry enters, but (flag,
    0), whose mass moves on to (flag, 1).  With no such slot it holds."""
    from fractions import Fraction

    rho, v = kernel._derived.get(("cert", key), lambda: passage._tail_vector(kernel, key))[:2]
    indptr, indices, data, width = passage._operator(kernel, key)
    fslot = None if key[2] is None else 2 * key[2]
    live = sorted({int(d) for d in indices if d < width} - {fslot})
    x = [Fraction(float(e)) for e in v] + [Fraction(0)]
    if fslot is not None:
        x[fslot] = x[fslot + 1]
    for c in live:
        qv = sum(Fraction(float(data[e])) * x[indices[e]] for e in range(indptr[c], indptr[c + 1]))
        if qv > Fraction(rho) * x[c]:
            return False
    return all(x[c] >= 1 for c in live)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), seed=st.integers(0, 2 ** 16), h1=st.integers(1, 1000),
       extra=st.integers(1, 500), which=st.sampled_from(sorted(_CERT_LAWS)), data=st.data())
def test_tail_certificate_bounds_the_survival_past_its_horizon(n, seed, h1, extra, which, data):
    # the certificate built at h1 bounds S(h1 + k) <= rho^k B on every step
    # the law computed to h2 holds; before, a ratio read off the computed
    # points was applied past them
    kernel = random_kernel(n, np.random.default_rng(seed))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1)) if which == "passage" else (i + 1) % n
    law_fn, key = _CERT_LAWS[which]
    h2 = h1 + extra
    short, long = law_fn(kernel, i, j, h1), law_fn(kernel, i, j, h2)
    cert = short.tail_cert
    assert cert is not None and cert.start == h1
    log_surv = np.logaddexp.accumulate(np.concatenate(([long.log_tail],
                                                       long.log_pmf[:h1 - 1:-1])))[::-1]
    bound = cert.log_bound + np.arange(extra + 1) * math.log(cert.rho)
    with np.errstate(invalid="ignore"):  # -inf - -inf, where the law is complete
        assert np.all((log_surv <= bound) | (log_surv - bound <= 1e-9 * (1.0 + np.abs(bound))))
    assert _certifies_its_operator(kernel, key(i, j))


# ---------------------------------------------------------------------------
# CSV round trips


def test_csv_roundtrip_dense(kernel3, tmp_path):
    law = first_passage_law(kernel3, 0, 2, 30)
    path = tmp_path / "law.csv"
    law_to_csv(law, path)
    back = law_from_csv(path)
    assert back.is_dense and back.horizon == law.horizon
    assert np.abs(back.log_pmf - law.log_pmf).max() == 0.0
    assert back.log_tail == law.log_tail
    assert law.tail_cert is not None and back.tail_cert == law.tail_cert


def test_csv_roundtrip_sparse(tmp_path):
    dist = AtomicDist(np.array([2, 7, 9], dtype=np.int64),
                      np.array([math.log(0.2), math.log(0.3), math.log(0.4)]),
                      math.log(0.1))
    law = PassageLaw.sparse(dist)
    buf = io.StringIO()
    law_to_csv(law, buf)
    back = law_from_csv(io.StringIO(buf.getvalue()))
    assert not back.is_dense
    assert back.atomic.atoms.tolist() == [2, 7, 9]
    assert np.abs(back.atomic.log_probs - dist.log_probs).max() == 0.0
    assert back.log_tail == dist.log_tail


def test_csv_certificate_rows_round_trip():
    # law -> file -> law keeps the certificate, file -> law -> file keeps the
    # bytes; a file without the log bound row (as written before the row
    # existed) loads with no certificate
    law = first_passage_law(build_two_state(0.3), 1, 1, 40)
    buf = io.StringIO()
    law_to_csv(law, buf)
    text = buf.getvalue()
    footer = text.splitlines()[-4:]
    assert footer[0].startswith("tail_mass,")
    assert footer[1:] == [f"tail_cert_N0,40,", f"tail_cert_rho,{law.tail_cert.rho:.17g},",
                          f"tail_cert_log_bound,{law.tail_cert.log_bound:.17g},"]
    back = law_from_csv(io.StringIO(text))
    assert back.tail_cert == law.tail_cert
    again = io.StringIO()
    law_to_csv(back, again)
    assert again.getvalue() == text
    old = "".join(line + "\n" for line in text.splitlines()[:-1])
    assert law_from_csv(io.StringIO(old)).tail_cert is None
    # a sparse law's certificate is written, read back and checked too
    dist = AtomicDist(np.array([2, 7], dtype=np.int64), np.array([math.log(0.5), math.log(0.3)]),
                      math.log(0.2))
    sparse = PassageLaw.sparse(dist, TailCert(7, 0.5, math.log(0.25)))
    buf = io.StringIO()
    law_to_csv(sparse, buf)
    assert law_from_csv(io.StringIO(buf.getvalue())).tail_cert == sparse.tail_cert
    below = buf.getvalue().replace(f"{math.log(0.25):.17g}", f"{math.log(0.1):.17g}")
    with pytest.raises(InvalidInput):
        law_from_csv(io.StringIO(below))


def test_wide_operator_is_certified_by_sixteen_steps_of_its_alive_mass():
    # past _CERT_WIDTH alive slots there is no dense solve: v = 1, and rho
    # is the sixteenth root of the most mass any slot keeps over 16 steps
    kernel = random_kernel(passage._CERT_WIDTH + 4, np.random.default_rng(3))
    law, longer = (first_passage_law(kernel, 0, 1, h) for h in (40, 120))
    cert = law.tail_cert
    rho, v = kernel._derived.get(("cert", (1, None, None)), lambda: None)[:2]
    assert np.all(v == 1.0) and cert.rho == rho
    op = passage._operator(kernel, (1, None, None))
    assert rho ** 16 >= passage._log_hold(*op, None)[1]
    log_surv = np.logaddexp.accumulate(np.concatenate(([longer.log_tail],
                                                       longer.log_pmf[:39:-1])))[::-1]
    assert np.all(log_surv <= cert.log_bound + np.arange(81) * math.log(rho))


def test_csv_serialization_is_stable(kernel3):
    law = first_passage_law(kernel3, 1, 1, 25)
    buf1, buf2 = io.StringIO(), io.StringIO()
    law_to_csv(law, buf1)
    law_to_csv(law_from_csv(io.StringIO(buf1.getvalue())), buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_csv_round_trip_keeps_the_moment_of_a_sub_float_law():
    # the return to 1 of two-state 0.5 at h = 1500 has entries below 2^-1074
    # from step ~1076 on; read back, its bracket must be the same, bit for bit
    law = first_passage_law(build_two_state(0.5), 1, 1, 1500)
    f = exp_fn(0.69)
    assert f_moment(_reloaded(law), f) == f_moment(law, f)


def test_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("n,prob,log_prob\n")
    with pytest.raises(InvalidInput):
        law_from_csv(path)


@pytest.mark.parametrize("content", [
    b"n,prob,log_prob\n1,1.0\n",
    b"n,prob,log_prob\nx,1.0,0.0\n",
    b"n,prob,log_prob\n1,1.0,0.0\n\xff\xfe\n",
], ids=["two-fields", "n-not-an-integer", "not-utf8"])
def test_csv_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(InvalidInput, match="law CSV is malformed"):
        law_from_csv(path)


# ---------------------------------------------------------------------------
# randomized conservation sweep


def test_random_chain_mass_conservation(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        kernel = random_kernel(n, rng)
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        law = first_passage_law(kernel, i, j, 64)
        assert abs(law.log_total_mass()) <= 1e-10
        surv = law.survival_array()
        assert np.all(surv >= -1e-15)
        assert np.all(np.diff(surv) <= 1e-15)


# ---------------------------------------------------------------------------
# tail-certificate fallbacks: no certificate, or one that holds


def _cert_holds(law, longer):
    """Whether ``law``'s certificate bounds P(T > N + k) at every step of
    ``longer``, the same law stepped past law's horizon N."""
    cert = law.tail_cert
    surv = longer.survival_array()[law.horizon - 1:]
    with np.errstate(divide="ignore"):
        return bool(np.all(np.log(surv) <= cert.log_bound
                           + np.arange(surv.size) * math.log(cert.rho)))


def test_wide_cycle_gets_no_certificate():
    # 300 alive slots are past the dense solve, and the hold bound is 1 (most
    # slots keep their mass for 16 steps), so no rho < 1 exists: the law,
    # and a cut of it, carry no certificate, and a moment is inconclusive
    law = first_passage_law(_cycle(300), 100, 0, 10)
    cut = law.to_dense(5)
    assert law.log_tail == 0.0 and law.tail_cert is None and cut.tail_cert is None
    assert f_moment(law, exp_fn(0.1)).verdict == MOMENT_INCONCLUSIVE


def test_near_critical_two_state_is_certified_by_its_solves():
    # p = 1e-11: Q's radius is 1 - p, and the solves of (rI - Q)^-1 reach a
    # checked ratio within rounding of it, not the hold bound's looser
    # (1 - p)^(15/16).  It holds against P(T > n) = (1 - p)^n out to 10^12
    # steps past the horizon
    p, n = 1e-11, 100
    cert = first_passage_law(build_two_state(p), 0, 1, n).tail_cert
    assert cert.start == n and 1.0 - p < cert.rho < 1.0
    assert cert.rho - (1.0 - p) <= 1e-14
    k = np.array([0, 1, 16, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 10, 10 ** 11, 10 ** 12], dtype=float)
    assert np.all((n + k) * math.log1p(-p) <= cert.log_bound + k * math.log(cert.rho))


def _fails(*args):
    raise np.linalg.LinAlgError("patched")


@pytest.mark.parametrize("patched", [
    _fails,
    lambda a, b: np.full(b.size, np.inf),
    lambda a, b: -np.ones(b.size),
], ids=["solve-fails", "vector-not-finite", "vector-not-positive"])
def test_failed_dense_solve_takes_the_hold_certificate(monkeypatch, patched):
    # with no usable (I - Q)^-1 1, the certificate comes from the hold
    # bound, rho = M^(1/16) rounded up, and still bounds the tail
    kernel = random_kernel(5, np.random.default_rng(5))
    law = first_passage_law(kernel, 0, 1, 40)
    calls = []
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "solve", lambda *args: calls.append(args) or patched(*args))
        cert = law.tail_cert
    most = passage._log_hold(*passage._operator(kernel, (1, None, None)), None)[1]
    assert calls and cert.rho == most ** (1.0 / passage._HOLD_STEPS) * (1.0 + passage._gamma(2))
    assert _cert_holds(law, first_passage_law(kernel, 0, 1, 2000))


def test_too_steep_a_vector_gives_no_certificate(monkeypatch):
    # q . v past the float range bounds nothing: no certificate, no error.
    # Slot 1, the target's, never holds mass
    kernel = random_kernel(4, np.random.default_rng(4))
    v = np.array([np.inf, 1.0, np.inf, np.inf])
    monkeypatch.setattr(passage, "_tail_vector", lambda kernel, key: (0.5, v, 0.0, 0.0))
    assert first_passage_law(kernel, 0, 1, 20).tail_cert is None


def test_cut_forward_moves_the_certificate():
    # extending a complete law moves its certificate forward: P(T > n + k)
    # <= rho^(n - N + k) B
    law = PassageLaw.dense([0.5, 0.5], 0.0, tail_cert=TailCert(2, 0.5, -10.0))
    assert law.to_dense(5).tail_cert == TailCert(5, 0.5, -10.0 + 3 * math.log(0.5))


# ---------------------------------------------------------------------------
# sparse laws


def test_sparse_laws_convolve_to_the_brute_sum():
    a, b = {1: 0.25, 3: 0.5, 4: 0.25}, {2: 0.5, 5: 0.375, 7: 0.125}
    want = brute_convolve_dicts(a, b)
    sa, sb = (PassageLaw.sparse(AtomicDist.from_pairs(d)) for d in (a, b))
    for horizon in (None, 8):
        law = convolve(sa, sb, horizon=horizon)
        assert not law.is_dense
        got = dict(zip(law.atomic.atoms.tolist(), law.atomic.probs().tolist()))
        kept = {v: w for v, w in want.items() if horizon is None or v <= horizon}
        assert got.keys() == kept.keys()
        assert all(abs(got[v] - w) <= 1e-15 for v, w in kept.items())
        assert abs(math.exp(law.log_tail) - (sum(want.values()) - sum(kept.values()))) <= 1e-15


def test_sparse_law_pmf_and_survival_arrays():
    law = PassageLaw.sparse(AtomicDist.from_pairs({2: 0.25, 5: 0.75}))
    assert np.array_equal(law.pmf_array(), [0.0, 0.25, 0.0, 0.0, 0.75])
    assert np.array_equal(law.pmf_array(7), [0.0, 0.25, 0.0, 0.0, 0.75, 0.0, 0.0])
    assert np.array_equal(law.survival_array(), [1.0, 0.75, 0.75, 0.75, 0.0])
    short = PassageLaw.sparse(AtomicDist(np.array([2]), np.array([math.log(0.5)]),
                                         math.log(0.5)))
    with pytest.raises(IncomparableLaws):
        short.pmf_array()
