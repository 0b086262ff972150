"""Exact passage-time laws of finite Markov chains and their calculus.

A law is the distribution of a first-passage time T_ij (first hit of j from
i, counting from step 1; i = j gives the first return).  Representations:

* dense: a linear pmf over n = 1..horizon with its log view, plus the tail
  mass P(T > horizon) kept in log space.  The pmf comes from propagating the
  taboo vector q_n(k) = P(X_n = k, j not yet hit), one compiled sparse
  product per step with a taboo operator built once per law from the
  kernel's CSR arrays: P^T with the mass entering j routed to a sink slot,
  whose column is empty, and the mass entering a killed state dropped.
  Laws that track a visited-flag step the interleaved pairs (k, visited).
  Steps run in blocks of up to 64 rows; the pmf is read from the sink
  column and the survivals summed once per block.  The vector is rescaled
  by exact powers of two before its mass can underflow (the rows of a block
  past the rescale point are recomputed from the rescaled row), so a tail
  is zero only when no mass is left.  Entries below ``PRUNE_FLOOR_LOG``,
  which the linear pmf cannot hold, join the tail;
* sparse: integer atoms with log-weights (:class:`AtomicDist`), for laws with
  few support points or astronomically small masses.

Every operation conserves mass explicitly: whatever cannot be assigned to a
support point (truncation beyond the horizon, pruning below the underflow
floor, operand tails) is moved into the tail bucket, never dropped.  Tails
are combined in log space, so a law is never made complete by an underflow.
Tail *certificates* (N0, rho) assert the computed survival ratios satisfy
P(T > n+1) <= rho P(T > n) for all computed n >= N0; downstream moment code
refuses to extrapolate without one.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse._sparsetools import csc_matvec as _csc_matvec

from ._atomic import _MASS_TOL, AtomicDist
from .chain import TransitionKernel, StateRef
from .errors import IncomparableLaws, InvalidInput, NoSuchPath
from .logspace import LOG_ZERO, PRUNE_FLOOR_LOG, log_add, log_sub, logsumexp

__all__ = [
    "AtomicDist", "TailCert", "PassageLaw", "DominationReport",
    "first_passage_law", "hit_before_return_prob", "conditioned_return_law",
    "conditioned_hit_law", "crossing_return_law", "convolve",
    "geometric_compound", "mixture", "stochastic_dominates",
    "law_to_csv", "law_from_csv",
]

_SMALLEST_NORMAL = np.finfo(float).tiny


@dataclass(frozen=True)
class TailCert:
    """Certified geometric tail: P(T > n+1) <= rho P(T > n) for every
    computed n >= start."""

    start: int
    rho: float

    def __post_init__(self):
        if self.start < 1:
            raise InvalidInput("certificate start must be >= 1")
        if not 0.0 < self.rho < 1.0:
            raise InvalidInput(f"certificate ratio must be in (0, 1), got {self.rho}")


class PassageLaw:
    """Distribution of a positive-integer passage time (dense or sparse)."""

    def __init__(self, *, log_pmf=None, lin_pmf=None, atomic=None,
                 log_tail=LOG_ZERO, tail_cert=None, _validate=True):
        self._log_pmf = log_pmf
        self._lin_pmf = lin_pmf
        self._atomic = atomic
        self._log_tail = float(atomic.log_tail) if atomic is not None else float(log_tail)
        self._tail_cert = tail_cert
        if _validate:
            self._check()

    # -- constructors ------------------------------------------------------

    @classmethod
    def dense(cls, pmf, tail: float, tail_cert: TailCert | None = None) -> "PassageLaw":
        """Dense law from a linear-space pmf over n = 1..len(pmf)."""
        if tail < 0:
            raise InvalidInput("probabilities must be nonnegative")
        return cls._dense(pmf, math.log(tail) if tail > 0 else LOG_ZERO, tail_cert)

    @classmethod
    def _dense(cls, pmf, log_tail: float, tail_cert: TailCert | None = None) -> "PassageLaw":
        """Dense law from a linear-space pmf and a log-space tail."""
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise InvalidInput("dense pmf must be a nonempty 1-d array")
        if np.any(pmf < 0):
            raise InvalidInput("probabilities must be nonnegative")
        with np.errstate(divide="ignore"):
            log_pmf = np.log(pmf)
        return cls(log_pmf=log_pmf, lin_pmf=pmf, log_tail=log_tail, tail_cert=tail_cert)

    @classmethod
    def dense_log(cls, log_pmf, log_tail: float, tail_cert: TailCert | None = None) -> "PassageLaw":
        """Dense law from a log-pmf over n = 1..len(log_pmf).

        The logs are kept as given.  Entries below ``PRUNE_FLOOR_LOG`` would
        underflow in the linear pmf, so their mass moves into the tail.
        """
        log_pmf = np.asarray(log_pmf, dtype=float)
        if log_pmf.ndim != 1 or log_pmf.size == 0:
            raise InvalidInput("dense log-pmf must be a nonempty 1-d array")
        low = (log_pmf > LOG_ZERO) & (log_pmf < PRUNE_FLOOR_LOG)
        if low.any():
            log_tail = log_add(log_tail, logsumexp(log_pmf[low]))
            log_pmf = np.where(low, LOG_ZERO, log_pmf)
        return cls(log_pmf=log_pmf, lin_pmf=np.exp(log_pmf), log_tail=log_tail,
                   tail_cert=tail_cert)

    @classmethod
    def sparse(cls, atomic: AtomicDist, tail_cert: TailCert | None = None) -> "PassageLaw":
        return cls(atomic=atomic, tail_cert=tail_cert)

    @classmethod
    def point(cls, value: int) -> "PassageLaw":
        return cls.sparse(AtomicDist.point_mass(value))

    # -- validation --------------------------------------------------------

    def _check(self) -> None:
        """Mass sums to one within 1e-10, and a dense law's certificate holds
        on its computed survival, S(n+1) <= rho S(n) (1 + 1e-12), wherever
        rho S(n) is a normal double.  Below that the linear survival has
        lost its relative precision and cannot resolve a ratio, so those
        points are not checked."""
        total = self.log_total_mass()
        if not abs(total) <= _MASS_TOL:
            raise InvalidInput(f"law mass off by more than 1e-10: log total = {total}")
        if self._tail_cert is not None and self.is_dense:
            surv = self.survival_array()
            n0, rho = self._tail_cert.start, self._tail_cert.rho
            if n0 <= surv.size - 1:
                lhs = surv[n0:]
                rhs = rho * surv[n0 - 1:-1]
                resolved = rhs >= _SMALLEST_NORMAL
                if np.any(lhs[resolved] > rhs[resolved] * (1.0 + 1e-12)):
                    raise InvalidInput("tail certificate violated on computed points")

    # -- accessors ---------------------------------------------------------

    @property
    def is_dense(self) -> bool:
        return self._log_pmf is not None

    @property
    def horizon(self) -> int:
        """Largest n with computed pmf (dense horizon, or the top atom)."""
        if self.is_dense:
            return int(self._log_pmf.size)
        return self._atomic.max_atom

    @property
    def log_pmf(self) -> np.ndarray:
        if not self.is_dense:
            raise InvalidInput("sparse law has no dense pmf array")
        return self._log_pmf

    @property
    def atomic(self) -> AtomicDist:
        if self.is_dense:
            raise InvalidInput("dense law has no atomic representation")
        return self._atomic

    @property
    def log_tail(self) -> float:
        return self._log_tail

    @property
    def tail_cert(self) -> TailCert | None:
        return self._tail_cert

    @property
    def is_complete(self) -> bool:
        return self._log_tail == LOG_ZERO

    def log_total_mass(self) -> float:
        if self.is_dense:
            return log_add(logsumexp(self._log_pmf), self._log_tail)
        return self._atomic.log_mass()

    def linear_pmf(self) -> np.ndarray | None:
        """Linear-space pmf over 1..horizon; every dense law carries one.
        None for sparse laws."""
        return self._lin_pmf

    def log_prob(self, n: int) -> float:
        if n < 1:
            raise InvalidInput("passage times are >= 1")
        if self.is_dense:
            return float(self._log_pmf[n - 1]) if n <= self.horizon else LOG_ZERO
        return self._atomic.log_prob(n)

    def prob(self, n: int) -> float:
        lp = self.log_prob(n)
        return math.exp(lp) if lp > LOG_ZERO else 0.0

    def pmf_array(self, horizon: int | None = None) -> np.ndarray:
        """Linear pmf over 1..horizon; exact, so sparse laws must be complete
        (their zero entries are then known to be zero)."""
        h = horizon if horizon is not None else self.horizon
        if self.is_dense:
            if h > self.horizon:
                raise InvalidInput("cannot extend a dense pmf beyond its horizon")
            return self._lin_pmf[:h].copy()
        if not self._atomic.is_complete:
            raise IncomparableLaws("sparse law has unassigned mass at unknown support points")
        out = np.zeros(h)
        for v, lp in zip(self._atomic.atoms, self._atomic.log_probs):
            if v <= h:
                out[v - 1] = math.exp(lp)
        return out

    def survival_array(self) -> np.ndarray:
        """S_n = P(T > n) for n = 1..horizon (linear space), summed from the
        tail upwards as tail + sum_{k>n} p_k, with no subtraction."""
        pmf = self.pmf_array()
        terms = np.empty(pmf.size)
        terms[0] = math.exp(self._log_tail)
        terms[1:] = pmf[:0:-1]
        return np.cumsum(terms)[::-1]

    def to_dense(self, horizon: int) -> "PassageLaw":
        """Re-represent on 1..horizon; mass beyond moves into the tail.
        Extending a dense law beyond its horizon requires a complete law."""
        if horizon < 1:
            raise InvalidInput("horizon must be >= 1")
        if self.is_dense:
            if horizon == self.horizon:
                return self
            if horizon < self.horizon:
                log_head = self._log_pmf[:horizon]
                log_moved = logsumexp(self._log_pmf[horizon:])
                return PassageLaw.dense_log(log_head, log_add(self._log_tail, log_moved))
            if not self.is_complete:
                raise InvalidInput("cannot extend an incomplete dense law")
            log_pad = np.full(horizon, LOG_ZERO)
            log_pad[:self.horizon] = self._log_pmf
            return PassageLaw.dense_log(log_pad, LOG_ZERO)
        out = np.full(horizon, LOG_ZERO)
        moved = [self._log_tail]
        for v, lp in zip(self._atomic.atoms, self._atomic.log_probs):
            if v <= horizon:
                out[v - 1] = lp
            else:
                moved.append(float(lp))
        return PassageLaw.dense_log(out, logsumexp(moved))

    def __repr__(self):
        kind = f"dense[1..{self.horizon}]" if self.is_dense else f"sparse[{self._atomic.atoms.size} atoms]"
        return f"PassageLaw({kind}, log_tail={self._log_tail:.6g})"


# ---------------------------------------------------------------------------
# first-passage propagation


def _derive_tail_cert(surv: np.ndarray, scale: np.ndarray, *, window: int = 20,
                      var_tol: float = 1e-6, slack: float = 1e-6) -> TailCert | None:
    """Detect a stabilized survival ratio and certify it, given
    P(T > t+1) = surv[t] 2^-scale[t] as :func:`_propagate` returns it.

    Once the ratio P(T > n+1)/P(T > n) varies by less than ``var_tol`` over
    ``window`` consecutive steps, the certified rho is the maximum observed
    ratio from the window start through the horizon, plus ``slack`` — so the
    certificate holds on every computed point by construction.  Only an
    exactly zero taboo vector (never an underflow) certifies trivially.
    """
    zero = np.nonzero(surv == 0.0)[0]
    if zero.size:
        return TailCert(start=int(zero[0]) + 1, rho=0.5)
    if surv.size < window + 1:
        return None
    ratios = np.ldexp(surv[1:] / surv[:-1], scale[:-1] - scale[1:])
    windows = sliding_window_view(ratios, window)
    spread = windows.max(axis=1) - windows.min(axis=1)
    hits = np.nonzero(spread < var_tol)[0]
    if hits.size == 0:
        return None
    w = int(hits[0])
    rho = float(ratios[w:].max()) + slack
    if not rho < 1.0:
        return None
    return TailCert(start=w + 1, rho=rho)


_RESCALE_BELOW = 2.0 ** -600
_LN2 = math.log(2.0)
_BLOCK_ROWS = 64
_BLOCK_DOUBLES = 2 ** 16


def _taboo_operator(kernel: TransitionKernel, absorb: int, kill: int | None,
                    flag: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """CSC arrays (indptr, indices, data) of the taboo operator, P^T with its
    destinations rerouted, and the width of its alive part.

    Column c holds the out-edges of slot c in the order of the kernel's CSR
    rows, so each output still sums its sources in ascending order.  Mass
    entering ``absorb`` goes to a sink slot at index ``width``, whose column
    is empty; mass entering ``kill`` is dropped.  With ``flag``, slot 2k+v
    is state k with visited-flag v, and only (absorb, 1) goes to the sink.
    """
    csr = kernel.csr
    ptr, dest, data = csr.indptr, csr.indices, csr.data
    sink, drop = absorb, [] if kill is None else [kill]
    if flag is not None:
        # column 2k+v holds the out-edges of k, to slots 2d+v: the entries of
        # CSR row k twice, first for v = 0, then for v = 1
        lens = np.diff(ptr)
        first = np.arange(dest.size) + np.repeat(ptr[:-1], lens)
        at = np.concatenate((first, first + np.repeat(lens, lens)))
        ptr2 = np.empty(2 * ptr.size - 1, dtype=dest.dtype)
        ptr2[0::2], ptr2[1::2] = 2 * ptr, ptr[:-1] + ptr[1:]
        dest2, data2 = np.empty(2 * dest.size, dtype=dest.dtype), np.empty(2 * data.size)
        dest2[at] = np.concatenate((2 * dest, 2 * dest + 1))
        data2[at] = np.concatenate((data, data))
        ptr, dest, data = ptr2, dest2, data2
        sink = 2 * absorb + 1
        drop = [2 * absorb] + [2 * k + v for k in drop for v in (0, 1)]
    width = ptr.size - 1
    dest = np.where(dest == sink, width, dest)
    if drop:
        keep = dest != drop[0]
        for slot in drop[1:]:
            keep &= dest != slot
        kept = np.concatenate(([0], np.cumsum(keep)))
        ptr, dest, data = kept[ptr], dest[keep], data[keep]
    return np.append(ptr, ptr[-1]).astype(dest.dtype), dest, data, width


def _propagate(kernel: TransitionKernel, start: int, horizon: int, *, absorb: int,
               kill: int | None = None, flag: int | None = None) -> tuple[np.ndarray, ...]:
    """Step the taboo vector q_n(k) = P(X_n = k, not absorbed or killed) from
    ``start``: one compiled ``csc_matvec`` a step over the operator of
    :func:`_taboo_operator`, which gives ``q @ csr`` bit for bit.

    Mass entering ``absorb`` is recorded from the sink slot; mass entering
    ``kill`` is gone.  With ``flag``, q holds the pairs (k, visited) and
    only mass that has visited ``flag`` is recorded; each step moves the
    mass entering (flag, 0) to (flag, 1).

    Steps fill the rows of a block buffer, at most ``_BLOCK_ROWS`` rows and
    ``_BLOCK_DOUBLES`` doubles; two buffers alternate, so the carried vector
    is never copied.  After each block, the pmf is read from its sink column
    and the survivals are its row sums.  Alive mass in (0, 2^-600) is
    rescaled by an exact power of two before the next step, so q never
    underflows: the rows after the first such step are dropped, and the
    next block starts from that row, rescaled.  A block holds at least two
    and at most four times as many steps as were kept since the last
    rescale, so a rollback drops at most four steps for each step kept.
    Once the alive mass is exactly zero every later step is zero, and
    stepping stops.  Returns (pmf, surv, scale, q): the mass recorded in
    and alive after step t, both times 2^scale[t], and the final q, times
    2^scale[-1].
    """
    indptr, indices, data, width = _taboo_operator(kernel, absorb, kill, flag)
    w = width + 1
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_DOUBLES // w))
    bufs = (np.empty((rows, w)), np.empty((rows, w)))
    views = tuple(list(b) for b in bufs)
    x = np.zeros(w)
    x[start if flag is None else 2 * start] = 1.0
    pmf, surv = np.zeros(horizon), np.zeros(horizon)
    scale = np.zeros(horizon, dtype=np.int64)
    matvec = _csc_matvec
    t = since = k = 0
    while t < horizon:
        m = min(horizon - t, rows, max(2, 4 * since))
        buf, block = bufs[k], views[k][:m]
        k ^= 1
        buf[:m] = 0.0
        for y in block:
            matvec(w, w, indptr, indices, data, x, y)
            if flag is not None:
                y[2 * flag + 1] += y[2 * flag]
                y[2 * flag] = 0.0
            x = y
        s = np.add.reduce(buf[:m, :width], axis=1)
        low = np.nonzero(s < _RESCALE_BELOW)[0]
        kept = int(low[0]) + 1 if low.size else m
        pmf[t:t + kept] = buf[:kept, width]
        surv[t:t + kept] = s[:kept]
        t += kept
        since += kept
        if low.size and t < horizon:
            if s[kept - 1] == 0.0:
                break
            x = block[kept - 1]
            e = -math.frexp(s[kept - 1])[1]
            np.ldexp(x, e, out=x)
            scale[t:] += e
            since = 0
    q = x[:width]
    return pmf, surv, scale, (q if flag is None else q.reshape(-1, 2))


def _log_scaled(x: float, scale: int) -> float:
    """log(x * 2^-scale) for x >= 0."""
    return math.log(x) - scale * _LN2 if x > 0.0 else LOG_ZERO


def first_passage_law(kernel: TransitionKernel, source: StateRef, target: StateRef,
                      horizon: int) -> PassageLaw:
    """Exact law of the first hit of ``target`` from ``source`` up to
    ``horizon`` (source = target gives the first return).

    One compiled sparse product per step with the taboo operator: mass
    flowing into the target at step n is recorded as P(T = n) and removed
    (see :func:`_propagate`).  The taboo vector is rescaled by
    exact powers of two once its mass falls below 2^-600, so the log tail is
    -inf only when no mass is left, never because a float underflowed.
    """
    if horizon < 1:
        raise InvalidInput("horizon must be >= 1")
    i, j = kernel.index_of(source), kernel.index_of(target)
    pmf, surv, scale, _ = _propagate(kernel, i, horizon, absorb=j)
    cert = _derive_tail_cert(surv, scale)
    return PassageLaw._dense(np.ldexp(pmf, -scale), _log_scaled(surv[-1], scale[-1]),
                             tail_cert=cert)


def _hit_split(kernel: TransitionKernel, i: int, j: int) -> tuple[float, np.ndarray]:
    """(pi, h): pi = P_i(visit j before returning to i); h[k] = P_k(hit j
    before i) off {i, j}, zero on them.  One column a call: a two-column
    solve rounds pi differently, so P_k(hit i before j) is the h of the call
    with i and j swapped, the same single-column solve."""
    mat = kernel.dense_matrix
    others = [k for k in range(kernel.n_states) if k not in (i, j)]
    h = np.zeros(kernel.n_states)
    h[others] = np.linalg.solve(np.eye(len(others)) - mat[np.ix_(others, others)],
                                mat[others, j])
    pi = float(mat[i, j] + mat[i, others] @ h[others])
    return min(max(pi, 0.0), 1.0), h


def hit_before_return_prob(kernel: TransitionKernel, source: StateRef,
                           target: StateRef) -> float:
    """P(walk from i visits j strictly before returning to i), by a linear
    solve with both i and j treated as absorbing after the first step."""
    i, j = kernel.index_of(source), kernel.index_of(target)
    if i == j:
        raise InvalidInput("source and target must differ")
    return _hit_split(kernel, i, j)[0]


def _reaches(kernel: TransitionKernel, start: int, goal: int, avoid: int) -> bool:
    """Whether a path of one or more positive-probability steps leads from
    ``start`` into ``goal`` without entering ``avoid`` first."""
    seen, stack = set(), [start]
    while stack:
        for nxt, _ in kernel.out_edges(stack.pop()):
            if nxt == goal:
                return True
            if nxt != avoid and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _distinct(kernel: TransitionKernel, source: StateRef, target: StateRef,
              horizon: int) -> tuple[int, int]:
    if horizon < 1:
        raise InvalidInput("horizon must be >= 1")
    i, j = kernel.index_of(source), kernel.index_of(target)
    if i == j:
        raise InvalidInput("source and target must differ")
    return i, j


def _conditioned(pmf: np.ndarray, alive: float, scale: np.ndarray, p: float) -> PassageLaw:
    """Law conditioned on an event of probability p, from :func:`_propagate`
    output: the event's pmf within the horizon, and as tail the probability
    ``alive`` that the mass still alive there ends in the event, both
    divided by p.  The tail is computed directly, never as a difference."""
    return PassageLaw._dense(np.ldexp(pmf / p, -scale),
                             _log_scaled(alive, scale[-1]) - math.log(p))


def conditioned_return_law(kernel: TransitionKernel, source: StateRef, target: StateRef,
                           horizon: int) -> PassageLaw:
    """Law of the return time of i restricted to excursions that never visit
    j, renormalized (the U law of the return-time decomposition).

    Raises :class:`NoSuchPath` when every return from i passes through j.
    The tail is q_N . h_i / (1 - pi), with q_N the taboo vector at the
    horizon and h_i(k) = P_k(hit i before j).  No tail certificate is
    attached: that needs a bound holding past the horizon, which survival
    ratio stabilization does not give.
    """
    i, j = _distinct(kernel, source, target, horizon)
    if not _reaches(kernel, i, i, j):
        raise NoSuchPath(f"every return from {kernel.states[i]!r} visits {kernel.states[j]!r}")
    pi = _hit_split(kernel, i, j)[0]
    h_i = _hit_split(kernel, j, i)[1]
    pmf, _, scale, q = _propagate(kernel, i, horizon, absorb=i, kill=j)
    return _conditioned(pmf, q @ h_i, scale, 1.0 - pi)


def conditioned_hit_law(kernel: TransitionKernel, source: StateRef, target: StateRef,
                        horizon: int) -> PassageLaw:
    """Law of the first hit of j from i restricted to paths that do not
    return to i first, renormalized (the V law of the decomposition).
    Raises :class:`NoSuchPath` when no path from i reaches j before
    returning.  The tail is q_N . h_j / pi, with h_j(k) = P_k(hit j before
    i)."""
    i, j = _distinct(kernel, source, target, horizon)
    if not _reaches(kernel, i, j, i):
        raise NoSuchPath(f"no path from {kernel.states[i]!r} reaches {kernel.states[j]!r} "
                         "before returning")
    pi, h_j = _hit_split(kernel, i, j)
    pmf, _, scale, q = _propagate(kernel, i, horizon, absorb=j, kill=i)
    return _conditioned(pmf, q @ h_j, scale, pi)


def crossing_return_law(kernel: TransitionKernel, source: StateRef, target: StateRef,
                        horizon: int) -> PassageLaw:
    """Law of the return time of i restricted to excursions that do visit j,
    renormalized; computed by propagating a visited-j flag alongside the
    taboo vector (an independent route from the unconditioned law).

    Raises :class:`NoSuchPath` when no path from i reaches j before
    returning, the same path check as :func:`conditioned_hit_law`; the
    solved pi is not tested, as its rounding can leave it above zero when
    no path exists.  Mass that has visited j returns to i surely, so the
    tail is (sum q1_N + q0_N . h_j) / pi, with q0, q1 the unflagged and
    flagged parts of the taboo vector.
    """
    i, j = _distinct(kernel, source, target, horizon)
    if not _reaches(kernel, i, j, i):
        raise NoSuchPath(f"no return from {kernel.states[i]!r} visits {kernel.states[j]!r}")
    pi, h_j = _hit_split(kernel, i, j)
    pmf, _, scale, q = _propagate(kernel, i, horizon, absorb=i, flag=j)
    return _conditioned(pmf, q[:, 1].sum() + q[:, 0] @ h_j, scale, pi)


# ---------------------------------------------------------------------------
# convolution


def _merge_sorted(vals: np.ndarray, lws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge duplicate values by logsumexp; inputs in any order."""
    order = np.argsort(vals, kind="stable")
    vals, lws = vals[order], lws[order]
    uniq, starts = np.unique(vals, return_index=True)
    merged = np.logaddexp.reduceat(lws, starts)
    return uniq, merged


def _cross_sum(va, la, vb, lb, horizon: int | None,
               floor_log: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """All pairwise sums with log-weight products; returns
    (values, log-weights, log moved beyond horizon, log pruned below floor)."""
    vals = (va[:, None] + vb[None, :]).ravel()
    lws = (la[:, None] + lb[None, :]).ravel()
    moved = LOG_ZERO
    if horizon is not None:
        beyond = vals > horizon
        if beyond.any():
            moved = logsumexp(lws[beyond])
            vals, lws = vals[~beyond], lws[~beyond]
    if vals.size:
        vals, lws = _merge_sorted(vals, lws)
    pruned = LOG_ZERO
    low = lws < floor_log
    if low.any():
        pruned = logsumexp(lws[low])
        vals, lws = vals[~low], lws[~low]
    return vals, lws, moved, pruned


def _combined_tail(log_tail_a: float, log_tail_b: float) -> float:
    """log of 1 - (1 - ta)(1 - tb) = ta + tb - ta tb, stably."""
    if log_tail_a == LOG_ZERO:
        return log_tail_b
    if log_tail_b == LOG_ZERO:
        return log_tail_a
    return log_sub(log_add(log_tail_a, log_tail_b), log_tail_a + log_tail_b)


def _conv_atomic(a: AtomicDist, b: AtomicDist, horizon: int | None,
                 floor_log: float) -> AtomicDist:
    vals, lws, moved, pruned = _cross_sum(a.atoms, a.log_probs, b.atoms, b.log_probs,
                                          horizon, floor_log)
    if vals.size == 0:
        raise InvalidInput("convolution left no atoms within the horizon")
    tail = logsumexp([_combined_tail(a.log_tail, b.log_tail), moved, pruned])
    return AtomicDist(vals, lws, tail)


def _log_mass_beyond(la: np.ndarray, lb: np.ndarray, h: int) -> float:
    """log of sum over i + k > h of a_i b_k, in log space so that products
    below the underflow threshold still count."""
    log_suffix_b = np.logaddexp.accumulate(lb[::-1])[::-1]  # log sum_{k >= m} b_k
    first_k = np.maximum(h + 1 - np.arange(1, la.size + 1), 1)
    ok = first_k <= lb.size
    return logsumexp(la[ok] + log_suffix_b[first_k[ok] - 1])


def _conv_dense(a: PassageLaw, b: PassageLaw, horizon: int | None) -> PassageLaw:
    h = horizon if horizon is not None else a.horizon + b.horizon
    full = np.convolve(a.linear_pmf(), b.linear_pmf())  # support 2..ha+hb
    out = np.zeros(h)
    upper = min(h, full.size + 1)
    out[1:upper] = full[:upper - 1]
    moved = _log_mass_beyond(a.log_pmf, b.log_pmf, h)
    return PassageLaw._dense(out, log_add(_combined_tail(a.log_tail, b.log_tail), moved))


def convolve(a, b, *, horizon: int | None = None,
             floor_log: float = PRUNE_FLOOR_LOG):
    """Distribution of the sum of two independent passage times.

    Dense x dense and sparse x sparse only (convert explicitly to mix);
    :class:`AtomicDist` inputs convolve to an :class:`AtomicDist`.  Mass
    landing beyond ``horizon`` or below the pruning floor moves to the tail.
    """
    if isinstance(a, AtomicDist) and isinstance(b, AtomicDist):
        return _conv_atomic(a, b, horizon, floor_log)
    if not (isinstance(a, PassageLaw) and isinstance(b, PassageLaw)):
        raise InvalidInput("convolve needs two PassageLaw or two AtomicDist operands")
    if a.is_dense and b.is_dense:
        return _conv_dense(a, b, horizon)
    if not a.is_dense and not b.is_dense:
        return PassageLaw.sparse(_conv_atomic(a.atomic, b.atomic, horizon, floor_log))
    raise InvalidInput("cannot convolve dense with sparse; convert one side first")


# ---------------------------------------------------------------------------
# geometric compound


def geometric_compound(u: PassageLaw, v: PassageLaw, pi: float, *,
                       horizon: int | None = None,
                       floor_log: float = PRUNE_FLOOR_LOG) -> PassageLaw:
    """Law of U_1 + ... + U_M + V with M geometric: P(M = m) = (1-pi)^m pi.

    This is the return-time decomposition of a passage i -> j: M failed
    excursions (law U), then the successful crossing (law V), with pi the
    hit-before-return probability.  pi = 1 returns V unchanged.

    Dense laws solve the renewal equation C = pi V + (1-pi) U * C in one
    O(horizon^2) pass, for the pmf and, without subtraction, for the
    survival S_C(n) = pi S_V(n) + (1-pi) [S_U(n) + sum_{k<=n} u_k S_C(n-k)].
    The tail is never below P(M >= horizon) = (1-pi)^horizon.  Within the
    horizon the pmf is exact when U covers 1..horizon-1 and V covers
    1..horizon.  Sparse laws sum the series sum_m pi (1-pi)^m U^{*m} * V
    term by term until the remaining geometric mass falls below
    ``floor_log`` or every later term lies beyond the horizon.  All mass
    not assigned within the horizon lands in the tail.
    """
    if not 0.0 < pi <= 1.0:
        raise InvalidInput(f"pi must be in (0, 1], got {pi}")
    if pi == 1.0:
        return v
    if not (isinstance(u, PassageLaw) and isinstance(v, PassageLaw)):
        raise InvalidInput("geometric_compound needs PassageLaw operands")
    if u.is_dense != v.is_dense:
        raise InvalidInput("geometric_compound needs operands in the same representation")
    log_q = math.log1p(-pi)
    if u.is_dense:
        h = horizon if horizon is not None else max(u.horizon, v.horizon)
        return _compound_dense(u, v, pi, log_q, h)
    if horizon is None:
        raise InvalidInput("sparse geometric_compound needs an explicit horizon")
    return _compound_sparse(u, v, math.log(pi), log_q, horizon, floor_log)


def _fit(arr: np.ndarray, h: int, fill: float) -> np.ndarray:
    """``arr`` cut to length h, or padded with ``fill`` up to it."""
    out = np.full(h, fill)
    m = min(h, arr.size)
    out[:m] = arr[:m]
    return out


def _compound_dense(u: PassageLaw, v: PassageLaw, pi: float, log_q: float,
                    h: int) -> PassageLaw:
    q = 1.0 - pi
    # beyond an operand's horizon its pmf is unknown: none of it is assigned
    # there, and its survival stays at its tail
    qu_rev = (q * _fit(u.linear_pmf(), h, 0.0))[::-1].copy()  # q u_h, ..., q u_1
    pv = pi * _fit(v.linear_pmf(), h, 0.0)
    s_free = (pi * _fit(v.survival_array(), h, math.exp(v.log_tail))
              + q * _fit(u.survival_array(), h, math.exp(u.log_tail)))
    c = np.empty(h)         # c[t] = P(C = t+1)
    s = np.empty(h + 1)     # s[t] = P(C > t)
    s[0] = 1.0
    for t in range(h):
        c[t] = pv[t] + qu_rev[h - t:] @ c[:t]
        s[t + 1] = s_free[t] + qu_rev[h - t - 1:] @ s[:t + 1]
    log_tail = max(math.log(s[h]) if s[h] > 0.0 else LOG_ZERO, h * log_q)
    return PassageLaw._dense(c, log_tail)


def _compound_sparse(u: PassageLaw, v: PassageLaw, log_pi: float, log_q: float,
                     horizon: int, floor_log: float) -> PassageLaw:
    ua, va = u.atomic, v.atomic
    keep = va.atoms <= horizon
    vals, lws = va.atoms[keep], va.log_probs[keep]
    c_tail = logsumexp([va.log_tail, logsumexp(va.log_probs[~keep])])
    acc_vals: list[np.ndarray] = []
    acc_lws: list[np.ndarray] = []
    tail_parts: list[float] = []
    m = 0
    while True:
        w = log_pi + m * log_q
        if vals.size:
            acc_vals.append(vals)
            acc_lws.append(lws + w)
        tail_parts.append(w + c_tail)
        m += 1
        remaining = m * log_q
        if remaining < floor_log or vals.size == 0:
            tail_parts.append(remaining)
            break
        vals, lws, moved, pruned = _cross_sum(vals, lws, ua.atoms, ua.log_probs,
                                              horizon, floor_log)
        c_tail = logsumexp([_combined_tail(c_tail, ua.log_tail), moved, pruned])
    if not acc_vals:
        raise InvalidInput("geometric compound left no atoms within the horizon")
    all_vals = np.concatenate(acc_vals)
    all_lws = np.concatenate(acc_lws)
    vals_m, lws_m = _merge_sorted(all_vals, all_lws)
    return PassageLaw.sparse(AtomicDist(vals_m, lws_m, logsumexp(tail_parts)))


# ---------------------------------------------------------------------------
# mixtures and domination


def mixture(laws, weights, *, tol: float = 1e-12) -> PassageLaw:
    """Weighted mixture of laws in a common representation.

    Dense inputs are truncated to the shortest horizon (excess mass moves to
    the respective tails); weights must sum to 1 within ``tol``.
    """
    laws = list(laws)
    weights = np.asarray(list(weights), dtype=float)
    if len(laws) == 0 or weights.size != len(laws):
        raise InvalidInput("need matching nonempty laws and weights")
    if np.any(weights < 0):
        raise InvalidInput("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > tol:
        raise InvalidInput(f"mixture weights must sum to 1 within {tol}")
    pairs = [(w, law) for w, law in zip(weights, laws) if w > 0]
    if not pairs:
        raise InvalidInput("all mixture weights are zero")
    if all(law.is_dense for _, law in pairs):
        h = min(law.horizon for _, law in pairs)
        comp = [law.to_dense(h) for _, law in pairs]
        log_w = np.log(np.array([w for w, _ in pairs]))
        stack = np.stack([c.log_pmf for c in comp]) + log_w[:, None]
        with np.errstate(invalid="ignore"):
            log_pmf = np.logaddexp.reduce(stack, axis=0)
        tails = [w + c.log_tail for w, c in zip(log_w, comp)]
        return PassageLaw.dense_log(log_pmf, logsumexp(tails))
    if all(not law.is_dense for _, law in pairs):
        all_vals, all_lws, tails = [], [], []
        for w, law in pairs:
            lw = math.log(w)
            all_vals.append(law.atomic.atoms)
            all_lws.append(law.atomic.log_probs + lw)
            tails.append(lw + law.atomic.log_tail)
        vals, lws = _merge_sorted(np.concatenate(all_vals), np.concatenate(all_lws))
        return PassageLaw.sparse(AtomicDist(vals, lws, logsumexp(tails)))
    raise InvalidInput("cannot mix dense and sparse laws; convert first")


@dataclass(frozen=True)
class DominationReport:
    """Outcome of a CDF comparison: a dominates b iff CDF_a <= CDF_b + tol at
    every computed point."""

    dominates: bool
    max_cdf_violation: float
    tol: float


def stochastic_dominates(a: PassageLaw, b: PassageLaw, tol: float = 1e-10) -> DominationReport:
    """Check whether a is stochastically larger than b on the computed range.

    Dense laws must share a horizon; sparse laws must both be complete (an
    unassigned tail makes the CDF unknowable).  The violation reported is
    max over computed n of CDF_a(n) - CDF_b(n), clipped at zero.
    """
    if a.is_dense and b.is_dense:
        if a.horizon != b.horizon:
            raise IncomparableLaws(f"horizons differ: {a.horizon} vs {b.horizon}")
        sa, sb = a.survival_array(), b.survival_array()
        violation = float(max(0.0, (sb - sa).max()))
        return DominationReport(violation <= tol, violation, tol)
    if not a.is_dense and not b.is_dense:
        for name, law in (("a", a), ("b", b)):
            if math.exp(law.log_tail) > tol:
                raise IncomparableLaws(f"sparse law {name} has unassigned tail mass")
        grid = np.union1d(a.atomic.atoms, b.atomic.atoms)

        def cdf_at(law: PassageLaw) -> np.ndarray:
            cum = np.concatenate([[0.0], np.cumsum(law.atomic.probs())])
            idx = np.searchsorted(law.atomic.atoms, grid, side="right")
            return cum[idx]

        violation = float(max(0.0, (cdf_at(a) - cdf_at(b)).max()))
        return DominationReport(violation <= tol, violation, tol)
    raise IncomparableLaws("cannot compare dense with sparse; convert first")


# ---------------------------------------------------------------------------
# CSV serialization


@contextmanager
def _opened(path_or_file, mode: str = "r"):
    """Yield an open text handle: a path is opened (and closed on exit) with
    ``newline=""`` so the csv module controls line endings; an open handle
    is passed through and left open."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, mode, newline="") as fh:
            yield fh
    else:
        yield path_or_file


def law_to_csv(law: PassageLaw, path_or_file) -> None:
    """Write ``n,prob,log_prob`` rows (all of 1..horizon for dense laws,
    atoms for sparse) plus tail/certificate footer rows."""
    with _opened(path_or_file, "w") as fh:
        # fixed terminator: byte-identical output on every platform
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "prob", "log_prob"])
        if law.is_dense:
            for n in range(1, law.horizon + 1):
                lp = float(law.log_pmf[n - 1])
                writer.writerow([n, f"{math.exp(lp) if lp > LOG_ZERO else 0.0:.17g}", f"{lp:.17g}"])
        else:
            for v, lp in zip(law.atomic.atoms, law.atomic.log_probs):
                writer.writerow([int(v), f"{math.exp(lp):.17g}", f"{float(lp):.17g}"])
        lt = law.log_tail
        writer.writerow(["tail_mass", f"{math.exp(lt) if lt > LOG_ZERO else 0.0:.17g}", f"{lt:.17g}"])
        cert = law.tail_cert
        writer.writerow(["tail_cert_N0", cert.start if cert else "", ""])
        writer.writerow(["tail_cert_rho", f"{cert.rho:.17g}" if cert else "", ""])


def law_from_csv(path_or_file) -> PassageLaw:
    """Inverse of :func:`law_to_csv`.  Contiguous support starting at 1 is
    reconstructed as dense, anything else as sparse."""
    ns: list[int] = []
    lps: list[float] = []
    log_tail = LOG_ZERO
    cert_n0: int | None = None
    cert_rho: float | None = None
    with _opened(path_or_file) as fh:
        for row in csv.reader(fh):
            if not row or row[0] == "n":
                continue
            key = row[0]
            if key == "tail_mass":
                log_tail = float(row[2])
            elif key == "tail_cert_N0":
                cert_n0 = int(row[1]) if row[1] else None
            elif key == "tail_cert_rho":
                cert_rho = float(row[1]) if row[1] else None
            else:
                ns.append(int(key))
                lps.append(float(row[2]))
    if not ns:
        raise InvalidInput("law CSV contains no support rows")
    cert = TailCert(cert_n0, cert_rho) if cert_n0 is not None and cert_rho is not None else None
    ns_arr = np.asarray(ns, dtype=np.int64)
    lp_arr = np.asarray(lps, dtype=float)
    if ns_arr[0] == 1 and np.all(np.diff(ns_arr) == 1):
        return PassageLaw.dense_log(lp_arr, log_tail, tail_cert=cert)
    keep = lp_arr > LOG_ZERO
    return PassageLaw.sparse(AtomicDist(ns_arr[keep], lp_arr[keep], log_tail), tail_cert=cert)


def law_to_csv_text(law: PassageLaw) -> str:
    buf = io.StringIO()
    law_to_csv(law, buf)
    return buf.getvalue()
