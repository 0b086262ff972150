"""Finite Markov chains: construction, validation, stationary laws, sampling.

Kernels are read-only CSR arrays over named states.  Two parametric
families get first-class support because their passage times have exact
closed forms used all over the test suite:

* the two-state chain 0 -> 1 with probability p, 0 -> 0 otherwise, 1 -> 0
  surely;
* "petal" chains: a hub state 1 with an exit state 0 (1 -> 0 with
  probability p, 0 -> 1 surely) and two fans of deterministic loops whose
  lengths are drawn from atomic distributions U1, U2 (each fan entered with
  probability (1-p)/2).  A loop of length x returns to the hub after exactly
  x steps, so the return law of the hub is the p-weighted mixture of a point
  mass at 2 with U1 and U2.

scipy is imported on first use, not with the module: ``csr`` loads
``scipy.sparse``.  :func:`validate_kernel`, which every JSON kernel load
runs, loads no scipy module.
"""

from __future__ import annotations

import json
import operator
import threading
from array import array
from collections import OrderedDict
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import ConvergenceFailure, InvalidInput
from .logspace import logsumexp

if TYPE_CHECKING:
    from scipy import sparse

    from ._atomic import AtomicDist

ROW_SUM_TOL = 1e-12

StateRef = Union[int, str]

#: What a :class:`_ByteCache` entry costs beside the bytes of its arrays.
_ENTRY_BYTES = 256
#: A kernel's cache holds this many times the bytes of its CSR arrays, and
#: at least ``_CACHE_FLOOR_BYTES``.
_CACHE_PER_CSR_BYTE = 16
_CACHE_FLOOR_BYTES = 2 ** 20
_MAX_ENTRIES = np.iinfo(np.intp).max // 8  # the most float64 or int64 entries one array indexes
_INT64_MAX = int(np.iinfo(np.int64).max)


def _read_only(*arrays) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _csr_arrays(rows) -> tuple[array, array, array, dict, Exception | None]:
    """(indptr, slots, data, targets, error) of ``rows``, any iterable of
    rows of (target, probability) pairs, read in one pass that holds one row
    at a time.  Row i's entries are ``indptr[i]:indptr[i+1]`` of ``slots``
    and ``data``; ``targets`` numbers each distinct target in the order first
    seen, and an entry's slot is the number of its target, so the targets
    can be resolved once, after the rows (:func:`_indices`).  A probability
    must be a number, not a bool or a string.  ``error`` is the first
    TypeError, ValueError or OverflowError of a row, or None: later rows
    are still read, so that a reader feeding them reads its whole file."""
    targets: dict = {}
    indptr, slots, data = array("q", [0]), array("q"), array("d")
    slot, add_slot, add_p, end_row = targets.setdefault, slots.append, data.append, indptr.append
    error = None
    try:
        rows = iter(rows)
    except TypeError as exc:
        return indptr, slots, data, targets, exc
    for row in rows:
        try:
            for t, p in row:
                if type(p) is bool:
                    raise TypeError(f"probability {p!r} is not a number")
                add_slot(slot(t, len(targets)))
                add_p(p)
        except (TypeError, ValueError, OverflowError) as exc:  # an int past the float range
            error = error or exc
        end_row(len(slots))
    return indptr, slots, data, targets, error


def _indices(slots: array, targets: dict, target_index) -> np.ndarray:
    """The state index of each entry of ``slots``: ``target_index`` maps
    each of ``targets``, in slot order, to its index."""
    index = np.fromiter(map(target_index, targets), np.int64, len(targets))
    return index.take(np.frombuffer(slots, np.int64))


class _ByteCache:
    """The most recently used values up to ``max_bytes`` in all, each a tuple
    whose arrays are made read-only.  An entry costs ``_ENTRY_BYTES``, so
    the number of entries is bounded too, plus the bytes of the arrays its
    build made: those among its parts that are still writeable when the
    build returns.  An array that is already read-only, such as a kernel's
    own or one another entry holds, is held and charged elsewhere.  A value
    that costs more than the whole budget is returned and not kept.  Threads
    may share it: a value is built outside the lock, and when two threads
    build the same key, both return the one stored first."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # key -> (value, cost)

    def get(self, key, build) -> tuple:
        """The value of ``key``, from ``build()`` if absent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        value = build()
        made = [part for part in value if isinstance(part, np.ndarray) and part.flags.writeable]
        _read_only(*made)
        cost = _ENTRY_BYTES + sum(arr.nbytes for arr in made)
        if cost > self.max_bytes:
            return value
        with self._lock:
            entry = self._entries.setdefault(key, (value, cost))
            self._entries.move_to_end(key)
            if entry[0] is value:
                self.nbytes += cost
                while self.nbytes > self.max_bytes:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]
        return entry[0]


class TransitionKernel:
    """Row-stochastic kernel over named states, stored as read-only CSR
    arrays: row i pairs ``indices[indptr[i]:indptr[i+1]]`` with ``data`` on
    the same range, as given (strictly positive probabilities; absent
    targets have probability zero).  ``rows`` is a derived view of them.

    A kernel does not change once built.  The arrays derived from it,
    ``dense_matrix`` and those of ``csr``, are read-only too, and so are the
    taboo operators and hitting probabilities that passage laws keep in its
    private cache: none of them can go stale.  That cache keeps the most
    recently used of them up to a budget in bytes, 16 times the bytes of the
    CSR arrays and at least 1 MiB, fixed when the kernel is built.
    ``states`` is a tuple copied from the names given, so that no caller can
    rename a state."""

    def __init__(self, states: Sequence[str], rows) -> None:
        indptr, slots, data, targets, error = _csr_arrays(rows)
        if error is not None:
            raise error
        self._store(states, indptr, _indices(slots, targets, operator.index), data)

    def _store(self, states, indptr: array, indices: np.ndarray, data: array) -> None:
        self.states = tuple(states)
        self.indptr, self.indices = np.frombuffer(indptr, np.int64), indices
        self.data = np.frombuffer(data, np.float64)
        csr = (self.indptr, self.indices, self.data)
        _read_only(*csr)
        self._derived = _ByteCache(max(_CACHE_FLOOR_BYTES,
                                       _CACHE_PER_CSR_BYTE * sum(a.nbytes for a in csr)))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.states)}

    def index_of(self, state: StateRef) -> int:
        if isinstance(state, str):
            try:
                return self._state_index[state]
            except KeyError:
                raise InvalidInput(f"unknown state {state!r}") from None
        idx = _count("state", state)
        if not 0 <= idx < self.n_states:
            raise InvalidInput(f"state index {idx} out of range")
        return idx

    @property
    def rows(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Each row's (target index, probability) pairs, rebuilt on every access."""
        pairs = list(zip(self.indices.tolist(), self.data.tolist()))
        ptr = self.indptr.tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(ptr, ptr[1:]))

    @cached_property
    def dense_matrix(self) -> np.ndarray:
        mat = np.zeros((self.n_states, self.n_states))
        row_of = np.repeat(np.arange(self.n_states), np.diff(self.indptr))
        np.add.at(mat, (row_of, self.indices), self.data)
        _read_only(mat)
        return mat

    @cached_property
    def csr(self) -> sparse.csr_matrix:
        """Through COO, as scipy checks targets, sorts rows and sums duplicates."""
        from scipy import sparse

        row_of = np.repeat(np.arange(self.n_states), np.diff(self.indptr))
        csr = sparse.csr_matrix((self.data, (row_of, self.indices)), shape=(self.n_states,) * 2)
        _read_only(csr.indptr, csr.indices, csr.data)
        return csr

    # -- JSON round trip ---------------------------------------------------

    def to_json_dict(self) -> dict:
        names, ptr = np.array(self.states, dtype=object), self.indptr.tolist()
        pairs = list(map(list, zip(names[self.indices].tolist(), self.data.tolist())))
        return {"states": list(self.states), "rows": [pairs[a:b] for a, b in zip(ptr, ptr[1:])]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TransitionKernel":
        """The kernel of a JSON object, validated; :class:`InvalidInput` if it
        is malformed or invalid."""
        try:
            states, rows = obj["states"], obj["rows"]
        except (KeyError, TypeError):
            states = built = None
        else:
            built = _csr_arrays(rows)
        return _validated(cls._from_json_parts(states, built))

    @classmethod
    def _from_json_parts(cls, states, built) -> "TransitionKernel":
        """The kernel, not yet validated, of a chain object's "states" value
        and :func:`_csr_arrays` of its "rows" value, each None if absent."""
        try:
            states = tuple(str(s) for s in states)
            indptr, slots, data, targets, error = built
        except TypeError:
            raise InvalidInput("chain JSON needs 'states' and 'rows'") from None
        index = {name: i for i, name in enumerate(states)}
        if len(index) != len(states):
            raise InvalidInput("duplicate state names")
        if error is not None:
            raise InvalidInput(f"bad chain rows: {error}")
        try:
            indices = _indices(slots, targets, index.__getitem__)
        except KeyError as exc:
            raise InvalidInput(f"unknown target state {exc.args[0]!r}") from None
        if len(indptr) - 1 != len(states):
            raise InvalidInput("rows and states disagree in length")
        kernel = cls.__new__(cls)
        kernel._store(states, indptr, indices, data)
        return kernel


def _count(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """The package's one reader of a count, step, atom or state index:
    ``value`` read with ``operator.index``, so 2.5 or 2.0 is never rounded but
    an :class:`InvalidInput` naming ``name``, as is a value past its bounds."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InvalidInput(f"{name} must be >= {least}")
    if most is not None and value > most:
        raise InvalidInput(f"{name} must be at most {most}, got {value}")
    return value


def _counts(name: str, values) -> np.ndarray:
    """:func:`_count` of every entry of an array, each at least 1, as int64:
    an array whose dtype does not cast to int64 without loss is an
    :class:`InvalidInput`, never cast."""
    arr = np.asarray(values)
    if arr.size and not np.can_cast(arr.dtype, np.int64):
        raise InvalidInput(f"{name} must be integers, got an array of {arr.dtype}")
    if arr.size and arr.min() < 1:
        raise InvalidInput(f"{name} must be >= 1")
    return arr.astype(np.int64, copy=False)


def _validated(kernel: TransitionKernel) -> TransitionKernel:
    """``kernel``, once :func:`validate_kernel` finds it valid."""
    report = validate_kernel(kernel)
    if not report.ok:
        raise InvalidInput(f"invalid chain: {report.summary()}")
    return kernel


def save_kernel_json(kernel: TransitionKernel, path) -> None:
    with _opened(path, "w") as fh:
        fh.write(json.dumps(kernel.to_json_dict(), indent=2, sort_keys=True) + "\n")


@contextmanager
def _opened(path_or_file, mode: str = "r", bad: str | None = None):
    """Yield an open text handle: a path is opened (and closed on exit) with
    ``newline=""`` so the csv module controls line endings; an open handle
    is passed through and left open.  With ``bad``, a ValueError or
    IndexError raised in the block, a failed decoding included, becomes an
    :class:`InvalidInput` reading ``bad``, a colon and the error, and a
    RecursionError, which the JSON decoder raises on deep nesting, one
    reading ``bad`` and "nested too deeply"."""
    named = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
    fh = open(path_or_file, mode, newline="") if named else path_or_file
    try:
        yield fh
    except InvalidInput:
        raise
    except (ValueError, IndexError, RecursionError) as exc:
        if bad is None:
            raise
        reason = "nested too deeply" if isinstance(exc, RecursionError) else exc
        raise InvalidInput(f"{bad}: {reason}") from None
    finally:
        if named:
            fh.close()


_decoder = json.JSONDecoder()
_space = json.decoder.WHITESPACE.match


def _scan_rows(text: str, at: list):
    """The values of the JSON array whose "[" is at ``at[0]`` in ``text``,
    decoded one at a time; once the last is taken, ``at[0]`` is the end of
    the array."""
    scan, space = _decoder.scan_once, _space
    end = space(text, at[0] + 1).end()
    if text[end:end + 1] != "]":
        while True:
            try:
                row, end = scan(text, end)
            except StopIteration as err:
                raise json.JSONDecodeError("Expecting value", text, err.value) from None
            yield row
            end = space(text, end).end()
            char = text[end:end + 1]
            if char == "]":
                break
            if char != ",":
                raise json.JSONDecodeError("Expecting ',' delimiter", text, end)
            end = space(text, end + 1).end()
    at[0] = end + 1


def _scan_chain(text: str) -> tuple:
    """(states, built) of a chain file's text: the value of its "states"
    key and :func:`_csr_arrays` of its "rows", each None if absent.  The
    top-level object is walked here and its rows are handed over one at a
    time, so that no JSON tree of them exists.  The text must be one JSON
    value, and the errors are those of ``json.loads``, though another
    fault may be named first; a repeated key keeps its last value."""
    end = _space(text).end()
    if text[end:end + 1] != "{":
        json.loads(text)  # the stdlib's error, or a value that is no chain
        return None, None
    states = built = None
    end = _space(text, end + 1).end()
    if text[end:end + 1] != "}":
        while True:
            if text[end:end + 1] != '"':
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                           text, end)
            key, end = json.decoder.scanstring(text, end + 1)
            end = _space(text, end).end()
            if text[end:end + 1] != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", text, end)
            end = _space(text, end + 1).end()
            if key == "rows" and text[end:end + 1] == "[":
                at = [end]
                built = _csr_arrays(_scan_rows(text, at))
                end = at[0]
            else:
                value, end = _decoder.raw_decode(text, end)
                if key == "rows":
                    built = _csr_arrays(value)
                elif key == "states":
                    states = value
            end = _space(text, end).end()
            char = text[end:end + 1]
            if char == "}":
                break
            if char != ",":
                raise json.JSONDecodeError("Expecting ',' delimiter", text, end)
            end = _space(text, end + 1).end()
    end = _space(text, end + 1).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return states, built


def load_kernel_json(path) -> TransitionKernel:
    """The validated kernel of a JSON chain file.  The keys of its object may
    come in any order.  Its rows are read one at a time, with only one row's
    Python objects alive at once, and the file's text is freed before
    validation starts."""
    with _opened(path, bad=f"chain file {str(path)!r} is not valid JSON") as fh:
        kernel = TransitionKernel._from_json_parts(*_scan_chain(fh.read()))
    return _validated(kernel)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class KernelReport:
    """Outcome of :func:`validate_kernel`; collects violations instead of
    raising so callers can show all of them at once."""

    row_sum_violations: tuple[tuple[str, float], ...]
    probability_violations: tuple[tuple[str, str, float], ...]
    target_violations: tuple[tuple[str, int], ...]
    irreducible: bool
    n_strong_components: int

    @property
    def ok(self) -> bool:
        return (not self.row_sum_violations and not self.probability_violations
                and not self.target_violations and self.irreducible)

    def summary(self) -> str:
        parts = []
        if self.row_sum_violations:
            parts.append(f"{len(self.row_sum_violations)} row sum(s) off by more than {ROW_SUM_TOL}")
        if self.probability_violations:
            parts.append(f"{len(self.probability_violations)} probability(ies) outside (0, 1]")
        if self.target_violations:
            parts.append(f"{len(self.target_violations)} out-of-range target(s)")
        if not self.irreducible:
            parts.append(f"not irreducible ({self.n_strong_components} strong components)")
        return "; ".join(parts) if parts else "ok"


def validate_kernel(kernel: TransitionKernel) -> KernelReport:
    """Check row sums (within ROW_SUM_TOL of 1), probability ranges, target
    indices, and strong connectivity of the positive-probability graph.
    Out-of-range entries are left out of the other checks.  The strong
    components are counted by Tarjan's algorithm, in O(n + m) time for n
    states and m entries."""
    n, states, ptr, j, p = kernel.n_states, kernel.states, kernel.indptr, kernel.indices, kernel.data
    row_of = np.repeat(np.arange(n), np.diff(ptr))
    inside = (j >= 0) & (j < n)
    # bincount adds each row's weights in entry order, like a running total
    total = np.bincount(row_of, weights=np.where(inside, p, 0.0), minlength=n)
    sum_bad = tuple((states[i], float(total[i])) for i in np.flatnonzero(abs(total - 1.0) > ROW_SUM_TOL))
    prob_bad = tuple((states[row_of[k]], states[j[k]], float(p[k]))
                     for k in np.flatnonzero(inside & ~((p > 0.0) & (p <= 1.0 + ROW_SUM_TOL))))
    target_bad = tuple((states[row_of[k]], int(j[k])) for k in np.flatnonzero(~inside))
    del row_of  # freed before the component count's work arrays are made
    n_comp = _count_strong_components(memoryview(ptr), memoryview(j), (inside & (p > 0.0)).tobytes())
    return KernelReport(sum_bad, prob_bad, target_bad, n_comp == 1, n_comp)


def _count_strong_components(ptr, targets, live: bytes) -> int:
    """The strong components of the graph of the CSR entries e with nonzero
    ``live[e]``, counted by Tarjan's algorithm on an explicit stack, so a path
    of any length fits.  ``seen`` is a state's preorder number from 1 (0 if
    unreached), ``low`` the least one known to reach back from its subtree,
    ``resume`` the next entry to scan of each state on the path."""
    n = len(ptr) - 1
    seen, low = array("q", bytes(8 * n)), array("q", bytes(8 * n))
    resume, closed = array("q", ptr[:-1]), bytearray(n)
    open_states, path = array("q"), array("q")
    count = clock = 0
    for root in range(n):
        if not seen[root]:
            path.append(root)
        while path:
            v = path[-1]
            if not seen[v]:  # first reached
                clock += 1
                seen[v] = low[v] = clock
                open_states.append(v)
            low_v = low[v]
            for e in range(resume[v], ptr[v + 1]):
                if live[e]:
                    w = targets[e]
                    seen_w = seen[w]
                    if not seen_w:  # descend into w; v's scan resumes past e
                        resume[v], low[v] = e + 1, low_v
                        path.append(w)
                        break
                    if seen_w < low_v and not closed[w]:
                        low_v = seen_w
            else:  # v is finished: it roots a component or passes low_v up
                path.pop()
                if low_v == seen[v]:
                    count += 1
                    w = -1
                    while w != v:
                        w = open_states.pop()
                        closed[w] = 1
                elif low_v < low[path[-1]]:
                    low[path[-1]] = low_v
    return count


# ---------------------------------------------------------------------------
# built-in constructions


def build_two_state(p: float) -> TransitionKernel:
    """States {0, 1}: 0 -> 1 with probability p, 0 -> 0 otherwise, 1 -> 0
    surely.  Requires 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise InvalidInput(f"two-state chain needs 0 < p < 1, got {p}")
    return TransitionKernel(["0", "1"], [[(0, 1.0 - p), (1, p)], [(0, 1.0)]])


def _truncate_side(dist: "AtomicDist", max_petals: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ``max_petals`` largest-mass atoms; renormalize the kept mass.

    Returns (values ascending, linear probabilities summing to 1).  Ties are
    broken toward smaller atom values for determinism.
    """
    order = sorted(range(dist.atoms.size), key=lambda k: (-dist.log_probs[k], dist.atoms[k]))
    keep = sorted(order[:max_petals])
    values = dist.atoms[keep]
    log_kept = dist.log_probs[keep]
    probs = np.exp(log_kept - logsumexp(log_kept))
    return values.astype(np.int64), probs


def build_petal_chain(u1: "AtomicDist", u2: "AtomicDist", p: float,
                      max_petals: int) -> TransitionKernel:
    """Finite kernel realizing the petal chain for loop-length laws U1, U2.

    Each side keeps its ``max_petals`` largest-mass atoms (renormalized), so
    the row of the hub state sums to 1 exactly.  A loop of length x >= 2 gets
    x-1 interior states walked deterministically; a loop of length 1 becomes
    a self-transition of the hub.
    """
    if not 0.0 < p < 1.0:
        raise InvalidInput(f"petal chain needs 0 < p < 1, got {p}")
    max_petals = _count("max_petals", max_petals, 1)
    states, rows = ["0", "1"], [[(1, 1.0)], []]
    hub_targets: dict[int, float] = {0: p}
    for side, dist in (("L", u1), ("R", u2)):
        values, probs = _truncate_side(dist, max_petals)
        for n_idx, (x, w) in enumerate(zip(values.tolist(), probs.tolist()), start=1):
            weight = (1.0 - p) / 2.0 * w
            first = len(states) if x > 1 else 1  # a loop of length 1 enters the hub
            hub_targets[first] = hub_targets.get(first, 0.0) + weight
            for m in range(1, x):
                states.append(f"{side}:{n_idx}:{m}")
                rows.append([(len(states) if m < x - 1 else 1, 1.0)])
    rows[1] = sorted(hub_targets.items())
    return TransitionKernel(states, rows)


def random_kernel(n_states: int, rng: np.random.Generator,
                  min_prob: float = 0.05) -> TransitionKernel:
    """Random fully-supported kernel: Dirichlet rows floored at roughly
    ``min_prob`` per entry, hence irreducible and aperiodic."""
    n_states = _count("n_states", n_states, 1)
    mat = rng.dirichlet(np.ones(n_states), size=n_states)
    mat = (mat + min_prob) / (1.0 + n_states * min_prob)
    mat /= mat.sum(axis=1, keepdims=True)
    states = [str(i) for i in range(n_states)]
    rows = [[(j, float(mat[i, j])) for j in range(n_states)] for i in range(n_states)]
    return TransitionKernel(states, rows)


# ---------------------------------------------------------------------------
# stationary distribution


def stationary_distribution(kernel: TransitionKernel) -> np.ndarray:
    """Stationary vector of an irreducible kernel by state-reduction
    elimination, which keeps every intermediate quantity nonnegative (no
    cancellation, and periodic chains need no special treatment).

    Raises :class:`ConvergenceFailure` if the residual ||pi P - pi||_1
    exceeds 1e-10, e.g. because the kernel is reducible.
    """
    n = kernel.n_states
    mat = kernel.dense_matrix.copy()
    scales = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = mat[k, :k].sum()
        if s <= 0.0:
            raise ConvergenceFailure("state elimination hit a zero pivot; kernel not irreducible?")
        scales[k] = s
        mat[:k, :k] += np.outer(mat[:k, k], mat[k, :k]) / s
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = (pi[:k] @ mat[:k, k]) / scales[k]
    pi /= pi.sum()
    residual = float(np.abs(pi @ kernel.dense_matrix - pi).sum())
    if residual > 1e-10:
        raise ConvergenceFailure(f"stationary residual {residual:g} exceeds 1e-10")
    return pi


# ---------------------------------------------------------------------------
# parametric chains


@dataclass(frozen=True)
class TwoStateChain:
    """Parametric handle on :func:`build_two_state` with closed-form sampling."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidInput(f"two-state chain needs 0 < p < 1, got {self.p}")

    def kernel(self) -> TransitionKernel:
        return build_two_state(self.p)


@dataclass(frozen=True)
class PetalChain:
    """Parametric petal chain; loop-length laws must be complete atomic
    distributions.  Sampling treats a whole loop traversal as one macro-step."""

    u1: "AtomicDist"
    u2: "AtomicDist"
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidInput(f"petal chain needs 0 < p < 1, got {self.p}")
        for name, dist in (("u1", self.u1), ("u2", self.u2)):
            if not dist.is_complete:
                raise InvalidInput(f"{name} must be a complete distribution (no tail mass)")

    def kernel(self) -> TransitionKernel:
        return build_petal_chain(self.u1, self.u2, self.p,
                                 max(self.u1.atoms.size, self.u2.atoms.size))

    def loop_mixture(self) -> tuple[np.ndarray, np.ndarray]:
        """Merged atoms and linear probabilities of the even U1/U2 mixture."""
        merged: dict[int, float] = {}
        for dist in (self.u1, self.u2):
            for v, w in zip(dist.atoms, dist.probs()):
                merged[int(v)] = merged.get(int(v), 0.0) + 0.5 * float(w)
        values = np.array(sorted(merged), dtype=np.int64)
        probs = np.array([merged[int(v)] for v in values])
        return values, probs / probs.sum()


ChainLike = Union[TransitionKernel, TwoStateChain, PetalChain]


# ---------------------------------------------------------------------------
# sampling


def _segment_sums(draws: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum consecutive segments of ``draws`` with lengths ``counts``
    (zero-length segments allowed)."""
    cs = np.concatenate([[0], np.cumsum(draws)])
    ends = np.cumsum(counts)
    return cs[ends] - cs[ends - counts]


def _kernel_passage_times(kernel: TransitionKernel, i: int, j: int, n: int,
                          cap: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    csr = kernel.csr
    counts = np.diff(csr.indptr)
    real = np.arange(counts.max(initial=1)) < counts[:, None]
    probs, targets = np.zeros(real.shape), np.zeros(real.shape, dtype=np.int64)
    probs[real], targets[real] = csr.data, csr.indices
    cum = np.cumsum(probs, axis=1)  # the CSR rows padded with 0: the bits of the dense rows' cumsum
    last = real.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)  # last positive entry
    times = np.full(n, cap, dtype=np.int64)
    censored = np.ones(n, dtype=bool)
    active = np.arange(n)
    state = np.full(n, i, dtype=np.int64)
    for t in range(1, cap + 1):
        if active.size == 0:
            break
        u = rng.random(active.size)
        nxt = (cum[state[active]] <= u[:, None]).sum(axis=1)
        # a draw past its row's total (which may be 1 - 1e-12) takes its last positive entry
        nxt = targets[state[active], np.minimum(nxt, last[state[active]])]
        hit = nxt == j
        if hit.any():
            done = active[hit]
            times[done] = t
            censored[done] = False
            active = active[~hit]
            nxt = nxt[~hit]
        state[active] = nxt
    return times, censored


def _two_state_times(chain: TwoStateChain, src: int, tgt: int, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    p = chain.p
    if (src, tgt) == (0, 0):
        return 1 + (rng.random(n) < p).astype(np.int64)
    if (src, tgt) == (0, 1):
        return rng.geometric(p, size=n).astype(np.int64)
    if (src, tgt) == (1, 0):
        return np.ones(n, dtype=np.int64)
    return 1 + rng.geometric(p, size=n).astype(np.int64)


def _petal_times(chain: PetalChain, src: int, tgt: int, n: int,
                 rng: np.random.Generator) -> np.ndarray:
    values, probs = chain.loop_mixture()
    p = chain.p

    def loop_sums(counts: np.ndarray) -> np.ndarray:
        total = int(counts.sum())
        draws = rng.choice(values, size=total, p=probs) if total else np.empty(0, dtype=np.int64)
        return _segment_sums(draws, counts)

    if (src, tgt) == (0, 1):
        return np.ones(n, dtype=np.int64)
    if (src, tgt) == (1, 1):
        exit_first = rng.random(n) < p
        times = np.empty(n, dtype=np.int64)
        times[exit_first] = 2
        k = int((~exit_first).sum())
        if k:
            times[~exit_first] = rng.choice(values, size=k, p=probs)
        return times
    loops = rng.geometric(p, size=n).astype(np.int64) - 1  # loops before exiting
    sums = loop_sums(loops)
    return sums + 1 if (src, tgt) == (1, 0) else sums + 2  # 1 -> 0, or 0 -> 0


def _resolve_binary_state(state: StateRef) -> int:
    if isinstance(state, str):
        if state in ("0", "1"):
            return int(state)
        raise InvalidInput(f"parametric chains expose states '0' and '1', got {state!r}")
    idx = _count("state", state)
    if idx not in (0, 1):
        raise InvalidInput(f"parametric chains expose states 0 and 1, got {idx}")
    return idx


def sample_passage_times(chain: ChainLike, source: StateRef, target: StateRef,
                         n_samples: int, cap: int, *,
                         seed: int | None = None,
                         rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized passage sampling; returns (times, censored) arrays.

    Censored entries report ``cap`` in ``times``.  Parametric chains use
    their closed-form macro-step samplers; kernels step state by state.
    """
    n_samples = _count("n_samples", n_samples, 0, _MAX_ENTRIES)  # before any array that long
    cap = _count("cap", cap, 1, _INT64_MAX)
    if rng is None:
        seed = None if seed is None else _count("seed", seed, 0)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    if isinstance(chain, TransitionKernel):
        i, j = chain.index_of(source), chain.index_of(target)
        return _kernel_passage_times(chain, i, j, n_samples, cap, rng)
    src, tgt = _resolve_binary_state(source), _resolve_binary_state(target)
    if isinstance(chain, TwoStateChain):
        times = _two_state_times(chain, src, tgt, n_samples, rng)
    else:
        times = _petal_times(chain, src, tgt, n_samples, rng)
    censored = times > cap
    times = np.where(censored, cap, times).astype(np.int64)
    return times, censored
