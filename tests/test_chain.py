from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recur_moments import (AtomicDist, InvalidInput, KernelReport, PetalChain,
                           TransitionKernel, TwoStateChain, build_petal_chain,
                           build_two_state, first_passage_law,
                           hit_before_return_prob,
                           load_kernel_json, random_kernel,
                           sample_passage_times, save_kernel_json,
                           stationary_distribution, validate_kernel)

from recur_moments import chain

from helpers import (dense_passage_times, hitting_time_means, reference_csr, reference_dense,
                     reference_kernel_json, reference_report, sparse_ring_kernel)


def test_two_state_structure():
    k = build_two_state(0.3)
    assert k.states == ("0", "1")
    mat = k.dense_matrix
    assert mat[0, 0] == 0.7 and mat[0, 1] == 0.3
    assert mat[1, 0] == 1.0 and mat[1, 1] == 0.0
    assert validate_kernel(k).ok


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_two_state_rejects_bad_p(p):
    with pytest.raises(InvalidInput):
        build_two_state(p)


def test_validate_flags_row_sum():
    k = TransitionKernel(["x", "y"], [[(0, 0.5), (1, 0.6)], [(0, 1.0)]])
    rep = validate_kernel(k)
    assert not rep.ok and rep.row_sum_violations
    assert "row" in rep.summary()


def test_validate_flags_reducible():
    k = TransitionKernel(["x", "y"], [[(0, 1.0)], [(1, 1.0)]])
    rep = validate_kernel(k)
    assert not rep.irreducible and rep.n_strong_components == 2


def test_kernel_json_roundtrip(tmp_path, kernel4):
    path = tmp_path / "k.json"
    save_kernel_json(kernel4, path)
    back = load_kernel_json(path)
    assert back.states == kernel4.states
    assert np.allclose(back.dense_matrix, kernel4.dense_matrix)


def test_kernel_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInput):
        load_kernel_json(path)
    path.write_text(json.dumps({"states": ["a"], "rows": [[["b", 1.0]]]}))
    with pytest.raises(InvalidInput):
        load_kernel_json(path)


def test_index_of_accepts_names_and_indices(kernel3):
    assert kernel3.index_of("b") == 1
    assert kernel3.index_of(2) == 2
    with pytest.raises(InvalidInput):
        kernel3.index_of("missing")
    with pytest.raises(InvalidInput):
        kernel3.index_of(7)


def test_state_names_cannot_change_after_construction():
    # the names were the caller's own list: renaming a state in it, or in
    # the kernel's, desynced the cached name map from the names written out
    kernel = build_two_state(0.5)
    assert kernel.index_of("1") == 1
    with pytest.raises(TypeError):
        kernel.states[1] = "b"
    assert kernel.index_of("1") == 1 and kernel.to_json_dict()["states"] == ["0", "1"]
    names = ["a", "b"]
    kernel = TransitionKernel(names, [[(1, 1.0)], [(0, 1.0)]])
    names[0] = "z"
    assert kernel.states == ("a", "b") and kernel.index_of("a") == 0
    with pytest.raises(InvalidInput):
        kernel.index_of("z")
    loaded = TransitionKernel.from_json_dict(kernel.to_json_dict())
    assert loaded.states == ("a", "b")


def test_non_integer_state_refs_are_rejected(kernel3):
    # int() rounded 1.7 down to state 1, so a law silently took another pair
    for ref in (1.7, 2.0, np.float64(1.0)):
        with pytest.raises(InvalidInput):
            kernel3.index_of(ref)
        with pytest.raises(InvalidInput):
            first_passage_law(kernel3, ref, 0, 10)
        with pytest.raises(InvalidInput):
            sample_passage_times(TwoStateChain(0.5), ref, 0, 10, 5, seed=1)
    assert kernel3.index_of(np.int64(1)) == 1
    assert kernel3.index_of(np.int32(2)) == 2


# ---------------------------------------------------------------------------
# CSR storage against the row loops it replaced


def _duplicate_kernel(n: int, per_row: int, seed: int):
    """Rows of ``per_row`` unsorted targets drawn with replacement, so most
    rows repeat a target, plus the next state on a ring."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        targets = [(i + 1) % n] + rng.integers(n, size=per_row - 1).tolist()
        rows.append(list(zip(targets, rng.dirichlet(np.ones(per_row)).tolist())))
    return [str(i) for i in range(n)], rows


#: Kernels given as rows: malformed ones, duplicate targets, a reducible chain.
_RAW_ROWS = {
    "row_sum_off": (["x", "y"], [[(0, 0.5), (1, 0.6)], [(0, 1.0)]]),
    # the bad edge x -> y is the only way into y, so it must stay out of the graph
    "zero_p": (["x", "y"], [[(0, 1.0), (1, 0.0)], [(0, 1.0)]]),
    "negative_p": (["x", "y"], [[(0, 1.5), (1, -0.5)], [(0, 1.0)]]),
    "nan_p": (["x", "y"], [[(0, 1.0), (1, math.nan)], [(0, 1.0)]]),
    "p_above_1": (["x", "y"], [[(1, 1.5)], [(0, 1.0)]]),
    "target_too_big": (["x", "y"], [[(0, 0.5), (2, 0.5)], [(0, 1.0)]]),
    "target_negative": (["x", "y", "z"], [[(-1, 0.5), (1, 0.5)], [(2, 1.0)], [(0, 1.0)]]),
    "empty_row": (["x", "y"], [[], [(0, 1.0)]]),
    "duplicates": (["x", "y", "z"], [[(2, 0.1), (1, 0.2), (2, 0.3), (2, 0.4)],
                                    [(0, 0.7), (0, 0.1), (0, 0.1), (0, 0.1)],
                                    [(1, 1.0 / 3), (0, 1.0 / 3), (1, 1.0 / 3)]]),
    "reducible": (["x", "y"], [[(0, 1.0)], [(1, 1.0)]]),
    # scipy's strong components miscount or hang on duplicate graph entries
    "duplicates300": _duplicate_kernel(300, 6, seed=5),
}

_BUILT = {
    **{f"random{n}": (lambda n=n: random_kernel(n, np.random.default_rng(n)))
       for n in (2, 3, 4, 5, 6, 7, 8, 16, 64, 200)},
    "two_state": lambda: build_two_state(0.3),
    "petal": lambda: build_petal_chain(*_petal_pair(), 0.4, max_petals=2),
    "sparse3000": lambda: sparse_ring_kernel(3000, 5, seed=3000),
}


def _same_or_both_raise(new, old) -> None:
    """Call both; equal results, or the same exception type from both."""
    try:
        want = old()
    except Exception as exc:  # the old loop's failure is the expectation
        with pytest.raises(type(exc)):
            new()
        return
    got = new()
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, KernelReport):
        assert repr(got) == repr(want)  # repr: a NaN entry equals itself
    else:
        assert got == want


def _assert_matches_row_loops(kernel, states, rows, tmp_path) -> None:
    _same_or_both_raise(lambda: validate_kernel(kernel), lambda: reference_report(states, rows))
    _same_or_both_raise(lambda: kernel.dense_matrix, lambda: reference_dense(states, rows))
    for attr in ("indptr", "indices", "data"):
        _same_or_both_raise(lambda: getattr(kernel.csr, attr),
                            lambda: getattr(reference_csr(states, rows), attr))
    path = tmp_path / "k.json"
    _same_or_both_raise(lambda: save_kernel_json(kernel, path) or path.read_text(),
                        lambda: reference_kernel_json(states, rows))


@pytest.mark.parametrize("name", ["kernel3", "kernel4", *_BUILT, *_RAW_ROWS])
def test_csr_storage_matches_row_loops(name, request, tmp_path):
    if name in _RAW_ROWS:
        states, rows = _RAW_ROWS[name]
        kernel = TransitionKernel(states, rows)
        assert repr(kernel.rows) == repr(tuple(tuple(row) for row in rows))
    else:
        kernel = request.getfixturevalue(name) if name.startswith("kernel") else _BUILT[name]()
        states, rows = kernel.states, kernel.rows
    _assert_matches_row_loops(kernel, states, rows, tmp_path)
    if validate_kernel(kernel).ok:
        back = TransitionKernel.from_json_dict(kernel.to_json_dict())
        for attr in ("indptr", "indices", "data"):
            got, want = getattr(back, attr), getattr(kernel, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_kernel_arrays_and_rows_are_read_only(kernel3):
    with pytest.raises(AttributeError):
        kernel3.rows = ()
    for arr in (kernel3.indptr, kernel3.indices, kernel3.data):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert not np.shares_memory(kernel3.csr.data, kernel3.data)


def test_derived_arrays_are_read_only():
    # a write through dense_matrix or the csr arrays reached every later
    # law of the kernel: P(visit 1 before returning to 0) moved from 0.5796
    # to 0.9444, and the taboo operators step with csr.data itself
    k = random_kernel(4, np.random.default_rng(0))
    pi = hit_before_return_prob(k, 0, 1)
    with pytest.raises(ValueError):
        k.dense_matrix[0, 1] = 0.9
    for arr in (k.csr.indptr, k.csr.indices, k.csr.data):
        with pytest.raises(ValueError):
            arr[1] = 0
    assert hit_before_return_prob(k, 0, 1) == pi


def test_json_parse_memory_bound():
    """Peak traced memory of parsing, validating and storing a 20 000-state,
    4-per-row kernel dict.  Parsing into (target, p) tuples, and validating
    from edge lists, peaked at 11.9 MB; the arrays peak near 3.9 MB."""
    n = 20_000
    rng = np.random.default_rng(7)
    names = [str(i) for i in range(n)]
    targets = np.column_stack([(np.arange(n) + 1) % n, rng.integers(n, size=(n, 3))])
    obj = {"states": names,
           "rows": [[[names[t], p] for t, p in zip(row, (0.4, 0.3, 0.2, 0.1))]
                    for row in targets.tolist()]}
    tracemalloc.start()
    try:
        kernel = TransitionKernel.from_json_dict(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.n_states == n
    assert peak < 8e6, f"from_json_dict peaked at {peak / 1e6:.2f} MB"


def test_load_validates_after_the_json_tree_is_freed(tmp_path, monkeypatch):
    """``load_kernel_json`` validated a 20 000-state file while its JSON tree
    (~15 MB traced) was alive; it now validates after the file is read,
    through the module's ``validate_kernel``, so that a wrapper of that name
    still sees the call.  It reads the rows one at a time, so no tree of
    them exists: the whole load peaked at 19.5 MB on the compact file and
    20.5 MB on the ``save_kernel_json`` one while ``json.load`` built it."""
    n = 20_000
    rng = np.random.default_rng(7)
    names = [str(i) for i in range(n)]
    targets = np.column_stack([(np.arange(n) + 1) % n, rng.integers(n, size=(n, 3))])
    compact = tmp_path / "big.json"
    compact.write_text(json.dumps({"states": names, "rows": [
        [[names[t], p] for t, p in zip(row, (0.4, 0.3, 0.2, 0.1))] for row in targets.tolist()]}))
    saved = tmp_path / "saved.json"
    save_kernel_json(load_kernel_json(compact), saved)
    del names, targets
    held = []

    def recording(kernel):
        held.append(tracemalloc.get_traced_memory()[0])
        return validate_kernel(kernel)

    monkeypatch.setattr(chain, "validate_kernel", recording)
    for path, bound in ((compact, 9.5e6), (saved, 12e6)):
        held.clear()
        tracemalloc.start()
        try:
            kernel = load_kernel_json(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel.n_states == n and len(held) == 1
        # the kernel's names and arrays take 2.7 MB; with the tree, 18 MB
        # were held at validation
        assert held[0] < 4e6, f"{held[0] / 1e6:.2f} MB held at validation"
        assert peak < bound, f"{path.name}: the load peaked at {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# the chain file reader against json.load


def _tree_load(path):
    """The kernel of a chain file read the old way: its whole JSON tree
    first, then :meth:`TransitionKernel.from_json_dict`."""
    with chain._opened(path, bad=f"chain file {str(path)!r} is not valid JSON") as fh:
        obj = json.loads(fh.read())
    return TransitionKernel.from_json_dict(obj)


def _outcome(load, path):
    """The states and CSR arrays of ``load(path)``, with their dtypes, or the
    message of the :class:`InvalidInput` it raises."""
    try:
        kernel = load(path)
    except InvalidInput as exc:
        return str(exc)
    return kernel.states, [(a.dtype, a.tolist()) for a in (kernel.indptr, kernel.indices,
                                                           kernel.data)]


def _chain_items(data):
    """The (key, value) items of a random valid chain object of 1-5 states,
    named by strings or numbers, each row holding the next state on a ring."""
    n = data.draw(st.integers(1, 5))
    numeric = data.draw(st.booleans())
    names = list(range(n)) if numeric else data.draw(
        st.lists(st.text("abcXY7", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    rows = []
    for i in range(n):
        targets = sorted({(i + 1) % n} | set(data.draw(st.lists(st.integers(0, n - 1),
                                                                 max_size=3))))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(targets),
                                     max_size=len(targets)))
        rows.append([[str(names[t]), w / sum(weights)] for t, w in zip(targets, weights)])
    return [("states", names), ("rows", rows)]


def _chain_text(data, items) -> str:
    """``items`` as a JSON object's text, keys in the order given, compact or
    indented as drawn."""
    indent = data.draw(st.sampled_from([None, 2]))
    sep = ",\n" if indent else ", "
    return "{" + sep.join(f"{json.dumps(k)}: {json.dumps(v, indent=indent)}"
                          for k, v in items) + "}\n"


_LITERALS = [float("nan"), float("inf"), -float("inf")]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_file_reader_matches_the_json_tree(tmp_path_factory, data):
    # keys in either order, extra keys with NaN and Infinity literals, a
    # repeated key whose last value wins, and numeric state names load the
    # same kernel as json.load; a NaN or infinite probability, a numeric
    # target and an empty row list fail with the same message
    items = _chain_items(data)
    rows = items[1][1]
    if data.draw(st.booleans()):
        items.reverse()
    if data.draw(st.booleans()):
        items.insert(data.draw(st.integers(0, 2)), ("note", [_LITERALS, {"k": None}]))
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(["states", "rows"]))
        items.insert(0, (key, [["a"]] if key == "rows" else ["a", "a"]))
    fault = data.draw(st.sampled_from([None, "literal", "numeric target", "no rows", "empty row"]))
    if fault == "literal":
        rows[-1][-1][1] = data.draw(st.sampled_from(_LITERALS))
    elif fault == "numeric target":
        rows[0][0][0] = 7
    elif fault == "no rows":
        rows.clear()
    elif fault == "empty row":
        rows[-1] = []
    path = tmp_path_factory.getbasetemp() / "chain.json"
    path.write_text(_chain_text(data, items))
    got, want = _outcome(load_kernel_json, path), _outcome(_tree_load, path)
    assert got == want
    assert isinstance(got, str) == (fault is not None)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_file_reader_rejects_what_the_json_tree_rejects(tmp_path_factory, data):
    items = _chain_items(data)
    text = _chain_text(data, items)
    fault = data.draw(st.sampled_from(["truncated", "no comma", "no colon", "trailing",
                                       "top level", "rows", "row"]))
    if fault == "truncated":
        text = text[:data.draw(st.integers(0, len(text.rstrip()) - 1))]
    elif fault in ("no comma", "no colon"):
        char = "," if fault == "no comma" else ":"
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c == char]))
        text = text[:at] + text[at + 1:]
    elif fault == "trailing":
        text += data.draw(st.sampled_from(["x", "}", ", 1", "{}", "[]"]))
    elif fault == "top level":
        text = json.dumps(data.draw(st.sampled_from([items[1][1], 5, None, "abc", []])))
    else:
        bad = data.draw(st.sampled_from([5, "ab", {"a": 1}, None]))
        rows = items[1][1]
        if fault == "rows":
            items[1] = ("rows", bad)
        else:
            rows[data.draw(st.integers(0, len(rows) - 1))] = bad
        text = _chain_text(data, items)
    path = tmp_path_factory.getbasetemp() / "bad.json"
    path.write_text(text)
    got, want = _outcome(load_kernel_json, path), _outcome(_tree_load, path)
    assert isinstance(got, str) and got == want


# ---------------------------------------------------------------------------
# petal chains


def _petal_pair():
    u1 = AtomicDist.from_pairs({3: 0.5, 5: 0.5})
    u2 = AtomicDist.from_pairs({2: 0.25, 4: 0.75})
    return u1, u2


def test_petal_chain_rows_stochastic():
    u1, u2 = _petal_pair()
    kernel = build_petal_chain(u1, u2, 0.4, max_petals=2)
    assert validate_kernel(kernel).ok
    sums = np.asarray(kernel.dense_matrix.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() <= 1e-12
    # the exit state feeds the hub deterministically; the hub exits with p
    assert kernel.states[:2] == ("0", "1")
    assert abs(kernel.dense_matrix[0, 1] - 1.0) <= 1e-15
    assert abs(kernel.dense_matrix[1, 0] - 0.4) <= 1e-15


def test_petal_chain_length_one_atoms_fold_into_hub():
    u1 = AtomicDist.from_pairs({1: 1.0})
    u2 = AtomicDist.from_pairs({2: 1.0})
    kernel = build_petal_chain(u1, u2, 0.5, max_petals=4)
    # a length-1 petal becomes a hub self-transition with weight (1-p)/2
    hub = kernel.index_of("1")
    assert abs(kernel.dense_matrix[hub, hub] - 0.25) <= 1e-15
    assert validate_kernel(kernel).ok


def test_petal_chain_truncation_renormalizes():
    u1 = AtomicDist.from_pairs({2: 0.6, 3: 0.3, 9: 0.1})
    u2 = AtomicDist.from_pairs({2: 1.0})
    kernel = build_petal_chain(u1, u2, 0.5, max_petals=2)
    assert validate_kernel(kernel).ok
    # atom 9 dropped; loop-1 mass renormalized over lengths 2 and 3
    names = set(kernel.states)
    assert not any(name.startswith("L:1:3:") for name in names)


def test_petal_chain_requires_complete_dists():
    incomplete = AtomicDist(np.array([2], dtype=np.int64), np.array([math.log(0.5)]),
                            math.log(0.5))
    with pytest.raises(InvalidInput):
        PetalChain(incomplete, AtomicDist.point_mass(2), 0.5)


# ---------------------------------------------------------------------------
# random kernels and stationary laws


def test_random_kernel_is_valid(rng):
    for n in range(2, 9):
        k = random_kernel(n, rng)
        rep = validate_kernel(k)
        assert rep.ok, rep.summary()
        # flooring guarantees full support: every entry >= floor/(1 + n floor)
        assert k.dense_matrix.min() >= 0.05 / (1.0 + n * 0.05) - 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_random_kernel_rows_always_stochastic(n, seed):
    k = random_kernel(n, np.random.default_rng(seed))
    sums = k.dense_matrix.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_stationary_two_state_closed_form():
    # mean return time of state 0 is 1.5 at p = 1/2, so pi = (2/3, 1/3)
    pi = stationary_distribution(build_two_state(0.5))
    assert np.abs(pi - np.array([2.0 / 3.0, 1.0 / 3.0])).max() <= 1e-14


def test_stationary_periodic_cycle():
    k = TransitionKernel(["a", "b", "c"], [[(1, 1.0)], [(2, 1.0)], [(0, 1.0)]])
    pi = stationary_distribution(k)
    assert np.abs(pi - 1.0 / 3.0).max() <= 1e-14


def test_stationary_matches_mean_return_times(kernel4):
    # pi_i = 1 / E[return time of i], cross-checked against the hitting-time
    # linear system
    pi = stationary_distribution(kernel4)
    for i in range(kernel4.n_states):
        mean_return = hitting_time_means(kernel4, i)[i]
        assert abs(pi[i] - 1.0 / mean_return) <= 1e-12


def test_stationary_residual(rng):
    for n in (2, 5, 8):
        k = random_kernel(n, rng)
        pi = stationary_distribution(k)
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.abs(pi @ k.dense_matrix - pi).max() <= 1e-12


# ---------------------------------------------------------------------------
# sampling


def test_two_state_sampler_matches_closed_form_moments():
    chain = TwoStateChain(0.5)
    times, censored = sample_passage_times(chain, 1, 1, 200_000, 10_000, seed=7)
    assert not censored.any()
    assert times.min() >= 2
    # E T = 3, Var T = 2
    mean = times.mean()
    assert abs(mean - 3.0) <= 4.0 * math.sqrt(2.0 / times.size)


def test_parametric_samplers_of_the_other_pairs_match_closed_forms():
    # from 0, the two-state chain steps to 1 with probability p each step:
    # T_01 is geometric on {1, 2, ...}, E T = 1/p = 4, Var T = (1-p)/p^2 = 12
    times, censored = sample_passage_times(TwoStateChain(0.25), 0, 1, 100_000, 10_000, seed=5)
    assert not censored.any() and times.min() == 1
    assert abs(times.mean() - 4.0) <= 4.0 * math.sqrt(12.0 / times.size)
    # 1 steps to 0 surely, and a petal chain's exit state 0 to its hub 1
    for chain, pair in ((TwoStateChain(0.25), (1, 0)),
                        (PetalChain(*_petal_pair(), 0.5), (0, 1))):
        times, censored = sample_passage_times(chain, *pair, 1000, 10, seed=5)
        assert not censored.any() and (times == 1).all()


def test_kernel_sampler_agrees_with_parametric(kernel3):
    chain = TwoStateChain(0.4)
    kernel = chain.kernel()
    t_param, _ = sample_passage_times(chain, 0, 0, 100_000, 1000, seed=11)
    t_kernel, _ = sample_passage_times(kernel, 0, 0, 100_000, 1000, seed=11)
    # different mechanisms, same law: compare pmfs on small support
    for v in (1, 2):
        p1 = (t_param == v).mean()
        p2 = (t_kernel == v).mean()
        assert abs(p1 - p2) <= 0.01


def test_petal_macro_sampler_matches_kernel_sampler():
    u1, u2 = _petal_pair()
    chain = PetalChain(u1, u2, 0.5)
    kernel = chain.kernel()
    t_macro, _ = sample_passage_times(chain, 0, 0, 100_000, 10_000, seed=3)
    t_step, _ = sample_passage_times(kernel, 0, 0, 100_000, 10_000, seed=3)
    for v in (1, 2, 3, 4, 5):
        assert abs((t_macro == v).mean() - (t_step == v).mean()) <= 0.01


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 30])
def test_kernel_sampler_draws_what_the_dense_rows_draw(n):
    # the padded CSR rows give each draw the step the dense rows' cumsum
    # gives, so the same seed samples the same (times, censored)
    kernel = random_kernel(n, np.random.default_rng(n))
    for i, j in ((0, n - 1), (n - 1, n - 1), (n // 2, 0)):
        got = sample_passage_times(kernel, i, j, 500, 60, seed=n + i)
        want = dense_passage_times(kernel, i, j, 500, 60, np.random.default_rng(
            np.random.SeedSequence(n + i)))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_kernel_sampler_on_a_sparse_chain_needs_no_dense_rows():
    # 10 draws of 5 steps on a 2 000-state chain with 5 entries a row: the
    # dense rows and their cumsum peaked at 64.9 MiB, the padded CSR rows
    # hold 10 000 entries
    kernel = sparse_ring_kernel(2000, 5, seed=2000)
    tracemalloc.start()
    try:
        got = sample_passage_times(kernel, 0, 1000, 10, 5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    want = dense_passage_times(kernel, 0, 1000, 10, 5, np.random.default_rng(
        np.random.SeedSequence(1)))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_censoring_reports_cap():
    chain = TwoStateChain(0.05)
    times, censored = sample_passage_times(chain, 1, 1, 5000, 5, seed=1)
    assert censored.any()
    assert np.all(times[censored] == 5)
    assert np.all(times[~censored] <= 5)


class _FixedDraws:
    """An rng whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def test_sampler_never_steps_to_a_zero_probability_state():
    # row a sums to 1 - 1e-12, inside the validation tolerance; a draw past
    # its total must land on b, a's last positive state, never on c
    k = TransitionKernel(["a", "b", "c"], [[(0, 0.499999999999), (1, 0.5)],
                                           [(0, 0.5), (2, 0.5)], [(0, 1.0)]])
    times, censored = sample_passage_times(k, "a", "b", 4, 20, rng=_FixedDraws(0.9999999999995))
    assert not censored.any() and np.all(times == 1)


def test_sample_passage_times_single_draw():
    times, censored = sample_passage_times(TwoStateChain(0.5), 1, 1, 1, 100, seed=2)
    assert times.shape == censored.shape == (1,) and not censored[0]
    assert 2 <= times[0] <= 100


def test_sampler_rejects_bad_args():
    with pytest.raises(InvalidInput):
        sample_passage_times(TwoStateChain(0.5), 0, 0, -1, 10, seed=0)
    with pytest.raises(InvalidInput):
        sample_passage_times(TwoStateChain(0.5), 0, 0, 10, 0, seed=0)
