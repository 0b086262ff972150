from __future__ import annotations

import io
import itertools
import math
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
from recur_moments import passage
from recur_moments.passage import _derive_tail_cert

from helpers import (absorbed_mass_iterative, brute_convolve_dicts,
                     enumerate_passage_pmf, pmf_dict_to_array,
                     reaches_oracle, reference_compound, reference_laws,
                     reference_tail_cert, two_state_return_pmf_11)
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
    # entries P(T = n) = 0.9 0.1^(n-1) below 2^-1074 round to 0 in the pmf;
    # their mass joins the tail, and the law keeps their steps
    law = first_passage_law(build_two_state(0.9), 0, 1, 400)
    log_pmf = math.log(0.9) + np.arange(400) * math.log(0.1)
    lost = law.log_pmf == -math.inf
    assert lost.any() and np.all(log_pmf[lost] < -1074 * math.log(2.0))
    assert abs(law.log_tail - log_add(400 * math.log(0.1), logsumexp(log_pmf[lost]))) <= 1e-9
    steps, log_probs, log_rest = law.tail_atoms
    assert abs(log_rest - 400 * math.log(0.1)) <= 1e-9
    assert np.array_equal(steps, np.flatnonzero(lost) + 1)
    assert np.all(np.abs(log_probs - log_pmf[lost]) <= 1e-9)
    assert not law.is_complete
    # the survival ratio is 0.1 on every step, across the rescales too
    assert law.tail_cert.start == 1 and 0.1 < law.tail_cert.rho < 0.1 + 2e-6


_TWO_STATE_HORIZONS = [1100, 1500, 3000]


@pytest.mark.parametrize("h", _TWO_STATE_HORIZONS)
@pytest.mark.parametrize("law_fn,i,j", [(first_passage_law, 1, 1), (crossing_return_law, 1, 0)],
                         ids=["return", "crossing"])
def test_entries_below_the_subnormal_range_join_the_tail(law_fn, i, j, h):
    # The return to the bouncing state of two-state 0.5 (every return visits
    # state 0) has P(T = k) = 2^-(k-1) for k >= 2.  Past k ~ 1075 these
    # entries unscale below 2^-1074 and round to 0; their mass must join the
    # tail, with P(T > h) = 2^-(h-1), at their own steps
    law = law_fn(build_two_state(0.5), i, j, h)
    k = np.arange(2, h + 1)
    lost = law.log_pmf[1:] == -math.inf
    assert lost.any()
    log_lost = float(np.logaddexp.reduce(-(k[lost] - 1.0) * math.log(2.0)))
    assert abs(law.log_tail - log_add(log_lost, -(h - 1) * math.log(2.0))) <= 1e-9
    steps, log_probs, log_rest = law.tail_atoms
    assert abs(log_rest + (h - 1) * math.log(2.0)) <= 1e-9
    assert np.array_equal(steps, k[lost])
    assert np.all(np.abs(log_probs + (steps - 1.0) * math.log(2.0)) <= 1e-9)


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
    pmf, surv, scale, q = passage._propagate(kernel, 0, h, absorb=absorb, **mode)
    entering = np.concatenate(([1.0], surv[:-1]))
    low = (entering > 0.0) & (entering < 2.0 ** -600)
    jumps = np.diff(scale, prepend=0)
    assert low.any() or surv[-1] < 2.0 ** -600  # the case reaches a rescale point
    assert np.array_equal(jumps != 0, low)
    assert all(jumps[t] == -math.frexp(entering[t])[1] for t in np.flatnonzero(low))
    assert q.sum() == surv[-1]


_LAWS = {"passage": first_passage_law, "return_avoiding": conditioned_return_law,
         "hit_first": conditioned_hit_law, "crossing": crossing_return_law}
_SMALLEST_NORMAL = 2.2250738585072014e-308
# Horizons on and next to block edges.  Chains of up to 16 states run a
# first block of 2 rows, then blocks of lift + 1 = 128 rows, so their edges
# are steps 2, 130, 258, ...; 63-65 end inside a lifted call.  Past 600
# the small chains are rescaled many times, with rolled-back rows.
# sparse3000 keeps the shorter list: each of its conditioned laws takes ~2 s
# at any horizon.
_ENGINE_HORIZONS = (1, 2, 3, 63, 64, 65, 129, 130, 131, 600, 1500)
_SPARSE_HORIZONS = (1, 63, 64, 65, 600, 1500)
# The old loop rounded a raw mass below the smallest normal.  Past step 600,
# where the chains that decay fast reach the subnormal range, it also summed
# masses just above it from subnormal products, so there only masses from
# 2^-1000 on are compared.  The rescaled engine computes all of them exactly.
_EXACT_THROUGH = 600
_COMPARABLE = np.where(np.arange(1, max(_ENGINE_HORIZONS) + 1) <= _EXACT_THROUGH,
                       _SMALLEST_NORMAL, 2.0 ** -1000)


def _engine_cases():
    yield pytest.param("kernel3", [(i, j) for i in range(3) for j in range(3)], id="kernel3")
    yield pytest.param("kernel4", [(0, 3), (3, 0), (2, 2), (1, 2)], id="kernel4")
    for n in range(2, 9):
        yield pytest.param(n, [(0, 0), (0, 1), (n - 1, 0)], id=f"random{n}")
    for n in (16, 64, 200):
        yield pytest.param(n, [(0, 0), (n - 1, 0)], id=f"random{n}")
    yield pytest.param("sparse3000", [(0, 0), (7, 1500)], id="sparse3000")


@pytest.mark.parametrize("which,pairs", _engine_cases())
def test_engine_bit_identical_to_reference_loop(which, pairs, request):
    if which == "sparse3000":
        kernel = _sparse_kernel(3000, 5, seed=3000)
    elif isinstance(which, str):
        kernel = request.getfixturevalue(which)
    else:
        kernel = random_kernel(which, np.random.default_rng(which))
    for i, j in pairs:
        full = reference_laws(kernel, i, j, max(_ENGINE_HORIZONS))
        for h in _SPARSE_HORIZONS if which == "sparse3000" else _ENGINE_HORIZONS:
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
            if h <= _EXACT_THROUGH or surv[-1] >= _COMPARABLE[h - 1]:
                assert law.tail_cert == _derive_tail_cert(surv, np.zeros(h, dtype=np.int64))
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


def _count_steps(monkeypatch, w):
    """Steps taken by passage's compiled matvec from now on, one entry a
    call: a call over n_col columns takes n_col // w steps, w slots a row."""
    steps = []

    def counting(*args):
        steps.append(args[1] // w)
        return kernel_call(*args)

    # passage binds its name on the first law, so it may still be unbound
    from scipy.sparse._sparsetools import csc_matvec as kernel_call
    monkeypatch.setattr(passage, "_csc_matvec", counting)
    return steps


def test_propagation_stops_at_an_exactly_zero_vector(monkeypatch):
    # the walk from 0 has returned surely after step 2; stepping on to
    # h = 6000 used to take 33 ms.  w = 3 slots: two states and the sink
    steps = _count_steps(monkeypatch, 3)
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
    # Here a block holds at most rows = lift + 1 rows, and a rescale drops
    # only the rows of its block past the row that fell below 2^-600: at
    # most lift steps each.  A law that is never rescaled takes each step
    # once.
    op = passage._taboo_operator(kernel, absorb, None, None)
    w = op[3] + 1
    rows = max(1, min(passage._BLOCK_ROWS, passage._BLOCK_DOUBLES // w))
    lift = max(1, min(rows - 1, passage._BLOCK_DOUBLES // op[2].size))
    assert rows == lift + 1
    steps = _count_steps(monkeypatch, w)
    _, surv, scale, _ = passage._propagate(kernel, 0, h, absorb=absorb)
    assert surv[-1] > 0.0  # no early stop: every step up to h is kept
    rescales = np.count_nonzero(np.diff(scale, prepend=0))
    if rescales:
        assert rescales >= 5 and h < sum(steps) <= h + rescales * lift
    else:
        assert sum(steps) == h


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
        rows = max(1, min(passage._BLOCK_ROWS, passage._BLOCK_DOUBLES // w))
        lift = max(1, min(rows - 1, passage._BLOCK_DOUBLES // op[2].size))
        if name == "dense64":
            assert lift < rows - 1
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
        # entries that round to 0 in the pmf move their mass to the tail,
        # which keeps their steps
        lost = (law.log_pmf == -math.inf) & (log_expected > -math.inf)
        assert np.all(log_expected[lost] < -1074 * math.log(2.0))
        assert abs(law.log_tail - log_add(log_tail, logsumexp(log_expected[lost]))) <= 1e-9
        if law.tail_atoms is None:
            assert not lost.any()
            continue
        steps, log_probs, log_rest = law.tail_atoms
        assert abs(log_rest - log_tail) <= 1e-9
        assert np.array_equal(steps, n[lost])
        assert np.all(np.abs(log_probs - log_expected[lost]) <= 1e-9)


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
    for k, p in kernel.out_edges(i):
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
    # conditioned laws never carry extrapolation certificates
    assert u.tail_cert is None


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


def test_convolve_atomic_exact():
    a = AtomicDist.from_pairs({1: 0.25, 3: 0.75})
    b = AtomicDist.from_pairs({2: 0.5, 4: 0.5})
    c = convolve(a, b)
    oracle = brute_convolve_dicts(a.as_dict(), b.as_dict())
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
    c = convolve(a, b, horizon=12)
    # the 20-atom (mass .25) moved to the tail
    assert abs(math.exp(c.log_tail) - 0.25) <= 1e-15
    assert abs(math.exp(c.log_mass())) - 1.0 <= 1e-12


def test_convolve_tail_composition():
    a = AtomicDist(np.array([1], dtype=np.int64), np.array([math.log(0.6)]), math.log(0.4))
    b = AtomicDist(np.array([2], dtype=np.int64), np.array([math.log(0.7)]), math.log(0.3))
    c = convolve(a, b)
    # only the 0.6 * 0.7 product is assignable; the rest is tail
    assert abs(math.exp(c.log_prob(3)) - 0.42) <= 1e-15
    assert abs(math.exp(c.log_tail) - 0.58) <= 1e-15


def test_convolve_prunes_tiny_masses_into_tail():
    # one atom of essentially full mass, one astronomically small
    a = AtomicDist(np.array([1, 5], dtype=np.int64),
                   np.array([-1e-300, -800.0]))
    b = AtomicDist.point_mass(1)
    c = convolve(a, b)
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
    left = convolve(convolve(dist, single), single)
    right = convolve(dist, convolve(single, single))
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
    half = PassageLaw.dense_log([math.log(0.5), math.log(0.5)], -800.0)
    assert abs(convolve(half, half).log_tail - (-800.0 + math.log(2.0))) <= 1e-12
    # mass moved past the horizon is e^-1000, below the smallest double
    rare = PassageLaw.dense_log([math.log1p(-math.exp(-500.0)), -500.0], -math.inf)
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
    # e^-2000 flushes to zero in linear space, so its mass joins the tail
    law = PassageLaw.dense_log(np.array([math.log(0.5), -2000.0]), math.log(0.5))
    assert law.linear_pmf().tolist() == [0.5, 0.0]
    assert law.log_pmf[0] == math.log(0.5) and law.log_pmf[1] == -math.inf
    assert law.log_tail == log_add(math.log(0.5), -2000.0)
    whole = PassageLaw.dense_log(np.array([0.0, -2000.0]), -math.inf)
    assert whole.log_tail == -2000.0 and not whole.is_complete


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
        TailCert(start=0, rho=0.5)
    with pytest.raises(InvalidInput):
        TailCert(start=3, rho=1.0)
    # a certificate contradicted by the computed survival is rejected
    pmf = np.array([0.1, 0.1, 0.1, 0.7])
    with pytest.raises(InvalidInput):
        PassageLaw.dense(pmf, 0.0, tail_cert=TailCert(start=1, rho=0.2))
    # so is one whose survival is tiny: 1e-16 at the horizon, decaying at
    # 0.999 against a claimed 0.01 (an absolute slack of 1e-15 let it pass)
    surv = 1e-16 * 0.999 ** np.arange(-49.0, 1.0)
    pmf = np.concatenate(([1.0 - surv[0]], surv[:-1] - surv[1:]))
    PassageLaw.dense(pmf, surv[-1])
    with pytest.raises(InvalidInput):
        PassageLaw.dense(pmf, surv[-1], tail_cert=TailCert(start=5, rho=0.01))


def test_tail_cert_derived_for_geometric_chain():
    law = first_passage_law(build_two_state(0.3), 1, 1, 120)
    cert = law.tail_cert
    assert cert is not None
    # survival ratio is exactly 0.7 from n = 2 on; certified rho adds slack
    assert 0.7 < cert.rho < 0.7001
    surv = law.survival_array()
    assert np.all(surv[cert.start:] <= cert.rho * surv[cert.start - 1:-1] + 1e-15)


def test_tail_cert_matches_full_scan():
    # the scan stops at the first stable window; the certificate is the one
    # a scan of every window gives, bit for bit.  Ring chains with two
    # targets a row mix slowly, so their first stable window often lies
    # past the first chunks; short horizons, late hits, no hit at all and
    # rescaled survivals all occur below
    seen = {"laws": 0, "rescaled": 0, "none": 0, "late": 0}
    for n in range(2, 17):
        for seed in range(3):
            for kernel in (random_kernel(n, np.random.default_rng(seed)),
                           _sparse_kernel(n, 2, seed)):
                for i, j in ((0, 0), (0, n - 1), (n - 1, 0)):
                    for h in (12, 21, 49, 600, 1100):
                        _, surv, scale, _ = passage._propagate(kernel, i, h, absorb=j)
                        got = _derive_tail_cert(surv, scale)
                        assert got == reference_tail_cert(surv, scale), (n, seed, i, j, h)
                        seen["laws"] += 1
                        seen["rescaled"] += int(scale[-1] > 0)
                        seen["none"] += got is None
                        seen["late"] += got is not None and got.start > 2 * passage._CERT_CHUNK
    assert seen["laws"] >= 1000
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("stable_from", [0, 1, 31, 32, 33, 95, 96, 97, 500, None])
def test_tail_cert_first_stable_window_on_chunk_edges(stable_from):
    # survival ratios that wobble by 1e-3 until ``stable_from`` and are
    # constant after it (None: they never settle)
    h = 700
    ratios = np.full(h - 1, 0.9)
    m = h - 1 if stable_from is None else stable_from
    ratios[:m] += 1e-3 * (np.arange(m, 0, -1) % 2)  # ratios[m - 1] is off
    surv = np.cumprod(np.concatenate(([0.5], ratios)))
    scale = np.zeros(h, dtype=np.int64)
    got = _derive_tail_cert(surv, scale)
    assert got == reference_tail_cert(surv, scale)
    assert (got is None) == (stable_from is None)
    if got is not None:
        assert got.start == stable_from + 1


def test_tail_cert_exact_zero_tail():
    law = first_passage_law(build_two_state(0.5), 0, 0, 10)
    assert law.is_complete
    assert law.tail_cert is not None


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
    assert (back.tail_cert is None) == (law.tail_cert is None)
    if law.tail_cert:
        assert back.tail_cert.start == law.tail_cert.start
        assert back.tail_cert.rho == law.tail_cert.rho


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


def test_csv_serialization_is_stable(kernel3):
    law = first_passage_law(kernel3, 1, 1, 25)
    buf1, buf2 = io.StringIO(), io.StringIO()
    law_to_csv(law, buf1)
    law_to_csv(law_from_csv(io.StringIO(buf1.getvalue())), buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("n,prob,log_prob\n")
    with pytest.raises(InvalidInput):
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
