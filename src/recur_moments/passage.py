"""Exact passage-time laws of finite Markov chains and their calculus.

A law is the distribution of a first-passage time T_ij (first hit of j from
i, counting from step 1; i = j gives the first return).  Representations:

* dense: a linear pmf over n = 1..horizon with its log view, plus the tail
  mass P(T > horizon) kept in log space.  The pmf comes from propagating the
  taboo vector q_n(k) = P(X_n = k, j not yet hit) with scipy's compiled
  ``csc_matvec`` and a taboo operator built once per law from the kernel's
  CSR arrays: P^T with the mass entering j routed to a sink slot, whose
  column is empty, and the mass entering a killed state dropped.  Laws that
  track a visited-flag step the interleaved pairs (k, visited).  Steps run
  in blocks of up to 128 rows.  The first row of a block is one
  single-step call; the others take a few calls with a block-lifted
  operator that steps many rows of one flat buffer in place, each row
  summed over the same products in the same order as a single step, so
  every law is the one a call per step gives, bit for bit.  The pmf is read
  from the sink column and the survivals summed once per block.  The
  vector is rescaled by exact powers of two before its mass can underflow
  (the rows of a block past the rescale point are recomputed from the
  rescaled row), so a tail is zero only when no mass is left.  Entries
  that unscale below the smallest subnormal, which the linear pmf cannot
  hold, join the tail, their logs read from the rescaled values; the law
  keeps their steps (``tail_atoms``), so a moment sums them exactly;
* sparse: integer atoms with log-weights (:class:`AtomicDist`), for laws with
  few support points or astronomically small masses.

Every operation conserves mass explicitly: whatever cannot be assigned to a
support point (truncation beyond the horizon, pruning below the underflow
floor, operand tails) is moved into the tail bucket, never dropped.  Tails
are combined in log space, so a law is never made complete by an underflow.
The dense geometric compound is solved 128 rows at a time (one convolution
and one product with the inverse of the diagonal block per block), adding
only nonnegative terms.
Tail *certificates* (N0, rho) assert the computed survival ratios satisfy
P(T > n+1) <= rho P(T > n) for all computed n >= N0; downstream moment code
refuses to extrapolate without one.

scipy is imported on first use, not with the module: the first propagated
law loads ``scipy.sparse`` (through the kernel's ``csr`` and the compiled
matvec).  The calculus on laws (compound, convolution, mixture, domination)
runs on numpy alone.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
                 log_tail=LOG_ZERO, tail_cert=None, tail_atoms=None):
        self._log_pmf = log_pmf
        self._lin_pmf = lin_pmf
        self._atomic = atomic
        self._log_tail = float(atomic.log_tail) if atomic is not None else float(log_tail)
        self._tail_cert = tail_cert
        self._tail_atoms = tail_atoms
        self._check()

    # -- constructors ------------------------------------------------------

    @classmethod
    def dense(cls, pmf, tail: float, tail_cert: TailCert | None = None) -> "PassageLaw":
        """Dense law from a linear-space pmf over n = 1..len(pmf)."""
        if tail < 0:
            raise InvalidInput("probabilities must be nonnegative")
        return cls._dense(pmf, math.log(tail) if tail > 0 else LOG_ZERO, tail_cert)

    @classmethod
    def _dense(cls, pmf, log_tail: float, tail_cert: TailCert | None = None,
               tail_atoms=None) -> "PassageLaw":
        """Dense law from a linear-space pmf and a log-space tail, part of
        which may sit at known steps (see :attr:`tail_atoms`)."""
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise InvalidInput("dense pmf must be a nonempty 1-d array")
        if (pmf < 0).any():
            raise InvalidInput("probabilities must be nonnegative")
        with np.errstate(divide="ignore"):
            log_pmf = np.log(pmf)
        return cls(log_pmf=log_pmf, lin_pmf=pmf, log_tail=log_tail, tail_cert=tail_cert,
                   tail_atoms=tail_atoms)

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
                rhs = rho * surv[n0 - 1:-1]
                if ((surv[n0:] > rhs * (1.0 + 1e-12)) & (rhs >= _SMALLEST_NORMAL)).any():
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
    def tail_atoms(self) -> tuple[np.ndarray, np.ndarray, float] | None:
        """The part of the tail that sits at known steps, or None.

        A propagated law whose entries unscale below the smallest subnormal
        counts their mass in its tail, since the linear pmf cannot hold it,
        and keeps them here as (steps, log-probabilities, log of the rest of
        the tail), the rest being the mass beyond the horizon.  Other laws
        carry None."""
        return self._tail_atoms

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
        pmf = self._lin_pmf if self.is_dense else self.pmf_array()
        terms = np.empty(pmf.size)
        terms[0] = math.exp(self._log_tail)
        terms[1:] = pmf[:0:-1]
        return terms.cumsum()[::-1]

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


_CERT_CHUNK = 32  # windows in the first chunk of the stability scan


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
    zero = (surv == 0.0).nonzero()[0]
    if zero.size:
        return TailCert(start=int(zero[0]) + 1, rho=0.5)
    if surv.size < window + 1:
        return None
    ratios = surv[1:] / surv[:-1]
    if scale[-1]:  # scale never decreases, so otherwise every shift is 0
        ratios = np.ldexp(ratios, scale[:-1] - scale[1:])
    n = ratios.size - window + 1
    windows = np.ndarray((n, window), float, ratios, 0, ratios.strides * 2)
    # only the first stable window counts: scan in chunks that double in
    # size and stop at the first hit
    w0, w1 = 0, _CERT_CHUNK
    while w0 < n:
        chunk = windows[w0:w1]
        hits = (chunk.max(axis=1) - chunk.min(axis=1) < var_tol).nonzero()[0]
        if hits.size:
            w = w0 + int(hits[0])
            rho = float(ratios[w:].max()) + slack
            return TailCert(start=w + 1, rho=rho) if rho < 1.0 else None
        w0, w1 = w1, 2 * w1
    return None


_RESCALE_BELOW = 2.0 ** -600
_LN2 = math.log(2.0)
_BLOCK_ROWS = 128
_BLOCK_DOUBLES = 2 ** 16
_FLAG_BITS = np.array([0, 1], dtype=np.int32)
_csc_matvec = None  # scipy's compiled CSC matvec, bound and checked by the first _propagate


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
    n = ptr.size - 1
    if flag is None:
        width = n
        keep = None if kill is None else dest != kill
        dest = np.where(dest == absorb, width, dest)
    else:
        # column 2k+v holds the out-edges of k, to slots 2d+v: the entries of
        # CSR row k twice, first for v = 0, then for v = 1, so entry e of row
        # k goes to place e + ptr[k+v], and column 2k+v starts at ptr[k] +
        # ptr[k+v]
        nnz, width = dest.size, 2 * n
        bounds = np.ndarray((n, 2), ptr.dtype, ptr, 0, ptr.strides * 2)  # (ptr[k], ptr[k+1])
        at = np.repeat(bounds, ptr[1:] - ptr[:-1], axis=0)
        at += np.arange(nnz, dtype=at.dtype)[:, None]
        cols = np.empty(width + 1, dtype=dest.dtype)
        np.add(ptr[:-1, None], bounds, out=cols[:-1].reshape(n, 2))
        cols[-1] = 2 * nnz
        dest2, data2 = np.empty(2 * nnz, dtype=dest.dtype), np.empty(2 * nnz)
        dest2[at] = dest[:, None] * 2 + _FLAG_BITS
        data2[at] = data[:, None]
        keep = dest2 != 2 * absorb
        if kill is not None:
            keep &= dest2 >> 1 != kill
        dest2[dest2 == 2 * absorb + 1] = width
        ptr, dest, data = cols, dest2, data2
    if keep is not None:
        kept = np.zeros(dest.size + 1, dtype=dest.dtype)
        np.add.accumulate(keep, dtype=kept.dtype, out=kept[1:])
        ptr, dest, data = kept[ptr], dest[keep], data[keep]
    indptr = np.empty(width + 2, dtype=dest.dtype)
    indptr[:-1] = ptr
    indptr[-1] = ptr[-1]
    return indptr, dest, data, width


def _lift(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, w: int, steps: int,
          flag_slot: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC arrays (indptr, indices, data) of ``steps`` steps of a w-slot
    operator over one flat buffer of ``steps + 1`` rows of w: column t*w + c
    holds the entries of column c, into row t + 1.

    Given the buffer as both its input and its output, ``csc_matvec`` fills
    rows 1..steps from row 0: it adds the columns in ascending order and
    reads a column's input slot only when it reaches that column, after
    every column of the rows before has been added in.  So each slot sums
    the same products in the same order as a single-step call.  With
    ``flag_slot`` = 2f, column (t, 2f) holds instead one entry 1.0 into
    slot 2f + 1 of its own row: the crossing fix-up y[2f+1] += y[2f] of row
    t, added before column 2f + 1 reads that slot.  The P-edges of slot 2f
    are left out; they only ever carried 0.0.
    """
    ptr, dest, val = indptr[:-1], indices + w, data
    if flag_slot is not None:
        a, b = indptr[flag_slot], indptr[flag_slot + 1]
        dest = np.concatenate((dest[:a], [flag_slot + 1], dest[b:]), dtype=dest.dtype)
        val = np.concatenate((val[:a], [1.0], val[b:]))
        ptr = ptr + np.where(np.arange(w) > flag_slot, 1 - (b - a), 0)
    nnz, step = val.size, np.arange(steps, dtype=indices.dtype)[:, None]
    lptr = np.empty(steps * w + 1, dtype=indices.dtype)
    np.add(ptr, nnz * step, out=lptr[:-1].reshape(steps, w))
    lptr[-1] = nnz * steps
    lval = np.empty((steps, nnz))
    lval[:] = val
    return lptr, (dest + w * step).ravel(), lval.ravel()


def _bind_matvec():
    """scipy's compiled ``csc_matvec``, once it has stepped a 2-state
    operator through three lifted steps in place exactly as three
    single-step calls do.  A scipy whose ``csc_matvec`` copied its input
    would make every lifted law silently wrong, so it raises RuntimeError."""
    import scipy
    from scipy.sparse._sparsetools import csc_matvec
    ptr, ind = np.array([0, 2, 3], dtype=np.int32), np.array([0, 1, 0], dtype=np.int32)
    val = np.array([0.25, 0.75, 1.0])
    rows = np.zeros((4, 2))
    rows[0, 0] = 1.0
    for t in range(3):
        csc_matvec(2, 2, ptr, ind, val, rows[t], rows[t + 1])
    flat = np.zeros(8)
    flat[0] = 1.0
    csc_matvec(8, 6, *_lift(ptr, ind, val, 2, 3, None), flat, flat)
    if not np.array_equal(flat, rows.ravel()):
        raise RuntimeError(f"scipy {scipy.__version__}: csc_matvec does not add into its "
                           "input in place, which lifted propagation needs")
    return csc_matvec


def _propagate(kernel: TransitionKernel, start: int, horizon: int, *, absorb: int,
               kill: int | None = None, flag: int | None = None) -> tuple[np.ndarray, ...]:
    """Step the taboo vector q_n(k) = P(X_n = k, not absorbed or killed) from
    ``start`` with the operator of :func:`_taboo_operator`, whose compiled
    ``csc_matvec`` gives ``q @ csr`` bit for bit.

    Mass entering ``absorb`` is recorded from the sink slot; mass entering
    ``kill`` is gone.  With ``flag``, q holds the pairs (k, visited) and
    only mass that has visited ``flag`` is recorded; each step moves the
    mass entering (flag, 0) to (flag, 1).

    Steps fill the rows of a block buffer, at most ``_BLOCK_ROWS`` rows and
    ``_BLOCK_DOUBLES`` doubles; two buffers alternate, so the carried vector
    is never copied.  Row 0 of a block is one single-step call on the
    carried vector.  The other rows come from a few calls on the block's own
    flat buffer with the lifted operator of :func:`_lift`, each covering up
    to ``lift`` steps, so that the lifted operator holds at most
    ``_BLOCK_DOUBLES`` entries unless one step alone holds more; with one
    row a block it is not built.  Every slot is summed over the same products
    in the same order as with one call a step, so the laws are the same bit
    for bit.  With ``flag``, the lifted operator moves slot (flag, 0) of
    every row but the last into (flag, 1); the last row is fixed up here,
    and then column (flag, 0) of the block is zeroed.

    After each block, the pmf is read from its sink column and the
    survivals are its row sums.  Alive mass in (0, 2^-600) is rescaled by an
    exact power of two before the next step, so q never underflows: the
    rows after the first such step are dropped, and the next block starts
    from that row, rescaled.  The first block, and the first after each
    rescale, holds 2 rows; a later one holds max(lift + 1, 4 * since) rows,
    since being the steps kept since the last rescale, so it makes at least
    one full lifted call unless the horizon cuts it.  A rollback thus drops
    at most one lifted call's worth of steps (``_BLOCK_DOUBLES``
    multiply-adds) or four steps for each step kept, whichever is more.
    Once the alive mass is exactly zero every later step is zero, and
    stepping stops.  Returns
    (pmf, surv, scale, q): the mass recorded in and alive after step t, both
    times 2^scale[t], and the final q, times 2^scale[-1].
    """
    global _csc_matvec
    if _csc_matvec is None:
        _csc_matvec = _bind_matvec()
    indptr, indices, data, width = _taboo_operator(kernel, absorb, kill, flag)
    w = width + 1
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_DOUBLES // w))
    lift = max(1, min(rows - 1, _BLOCK_DOUBLES // max(1, data.size)))
    fslot = None if flag is None else 2 * flag
    if rows > 1:
        lptr, lind, ldat = _lift(indptr, indices, data, w, lift, fslot)
    bufs = (np.empty((rows, w)), np.empty((rows, w)))
    flats = tuple(b.reshape(-1) for b in bufs)
    x = np.zeros(w)
    x[start if flag is None else 2 * start] = 1.0
    pmf, surv = np.zeros(horizon), np.zeros(horizon)
    scale = np.zeros(horizon, dtype=np.int64)
    matvec = _csc_matvec
    t = since = k = 0
    while t < horizon:
        m = min(horizon - t, rows, max(lift + 1, 4 * since) if since else 2)
        buf, flat = bufs[k], flats[k]
        k ^= 1
        buf[:m] = 0.0
        matvec(w, w, indptr, indices, data, x, flat)
        for r0 in range(0, (m - 1) * w, lift * w):
            y = flat[r0:min(r0 + (lift + 1) * w, m * w)]
            matvec(y.size, y.size - w, lptr, lind, ldat, y, y)
        if flag is not None:
            buf[m - 1, fslot + 1] += buf[m - 1, fslot]
            buf[:m, fslot] = 0.0
        s = np.add.reduce(buf[:m, :width], axis=1)
        low = (s < _RESCALE_BELOW).nonzero()[0]
        kept = int(low[0]) + 1 if low.size else m
        pmf[t:t + kept] = buf[:kept, width]
        surv[t:t + kept] = s[:kept]
        t += kept
        since += kept
        x = buf[kept - 1]
        if low.size and t < horizon:
            if s[kept - 1] == 0.0:
                break
            e = -math.frexp(s[kept - 1])[1]
            np.ldexp(x, e, out=x)
            scale[t:] += e
            since = 0
    q = x[:width]
    return pmf, surv, scale, (q if flag is None else q.reshape(-1, 2))


def _log_scaled(x: float, scale: int) -> float:
    """log(x * 2^-scale) for x >= 0."""
    return math.log(x) - scale * _LN2 if x > 0.0 else LOG_ZERO


def _unscaled_law(pmf: np.ndarray, scale: np.ndarray, log_tail: float,
                  tail_cert: TailCert | None = None) -> PassageLaw:
    """Dense law with pmf[t] 2^-scale[t] at step t + 1 and tail e^log_tail
    beyond the horizon.  An entry that unscales below the smallest subnormal
    becomes 0; its mass, whose log is read from the scaled value, joins the
    tail, and the law keeps its step in ``tail_atoms``."""
    if not scale[-1]:  # scale never decreases, so nothing was rescaled
        return PassageLaw._dense(pmf, log_tail, tail_cert)
    lin = np.ldexp(pmf, -scale)
    lost = ((lin == 0.0) & (pmf > 0.0)).nonzero()[0]
    if not lost.size:
        return PassageLaw._dense(lin, log_tail, tail_cert)
    log_lost = np.log(pmf[lost]) - scale[lost] * _LN2
    return PassageLaw._dense(lin, log_add(log_tail, logsumexp(log_lost)), tail_cert,
                             (lost + 1, log_lost, log_tail))


def first_passage_law(kernel: TransitionKernel, source: StateRef, target: StateRef,
                      horizon: int) -> PassageLaw:
    """Exact law of the first hit of ``target`` from ``source`` up to
    ``horizon`` (source = target gives the first return).

    The taboo vector is stepped with the compiled taboo operator: mass
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
    return _unscaled_law(pmf, scale, _log_scaled(surv[-1], scale[-1]), cert)


def _hit_split(kernel: TransitionKernel, i: int, j: int) -> tuple[float, np.ndarray]:
    """(pi, h): pi = P_i(visit j before returning to i); h[k] = P_k(hit j
    before i) off {i, j}, zero on them.  One column a call: a two-column
    solve rounds pi differently, so P_k(hit i before j) is the h of the call
    with i and j swapped, the same single-column solve.  Raises
    :class:`InvalidInput` when the solve finds the system singular, as it is
    when a closed class of the chain avoids both i and j."""
    mat = kernel.dense_matrix
    others = [k for k in range(kernel.n_states) if k not in (i, j)]
    h = np.zeros(kernel.n_states)
    try:
        h[others] = np.linalg.solve(np.eye(len(others)) - mat[np.ix_(others, others)],
                                    mat[others, j])
    except np.linalg.LinAlgError:
        raise InvalidInput(f"a closed class avoids both {kernel.states[i]!r} and "
                           f"{kernel.states[j]!r}: no unique hitting probabilities") from None
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
    ptr, dest = kernel.indptr, kernel.indices
    seen, stack = set(), [start]
    while stack:
        k = stack.pop()
        for nxt in dest[ptr[k]:ptr[k + 1]].tolist():
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
    return _unscaled_law(pmf / p, scale, _log_scaled(alive, scale[-1]) - math.log(p))


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


def _cross_sum(va, la, vb, lb, horizon: int | None) -> tuple[np.ndarray, np.ndarray, float, float]:
    """All pairwise sums with log-weight products; returns (values,
    log-weights, log moved beyond horizon, log pruned below PRUNE_FLOOR_LOG)."""
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
    low = lws < PRUNE_FLOOR_LOG
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


def _conv_atomic(a: AtomicDist, b: AtomicDist, horizon: int | None) -> AtomicDist:
    vals, lws, moved, pruned = _cross_sum(a.atoms, a.log_probs, b.atoms, b.log_probs,
                                          horizon)
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


def convolve(a, b, *, horizon: int | None = None):
    """Distribution of the sum of two independent passage times.

    Dense x dense and sparse x sparse only (convert explicitly to mix);
    :class:`AtomicDist` inputs convolve to an :class:`AtomicDist`.  Mass
    landing beyond ``horizon`` or below ``PRUNE_FLOOR_LOG`` moves to the tail.
    """
    if horizon is not None and horizon < 1:
        raise InvalidInput("horizon must be >= 1")
    if isinstance(a, AtomicDist) and isinstance(b, AtomicDist):
        return _conv_atomic(a, b, horizon)
    if not (isinstance(a, PassageLaw) and isinstance(b, PassageLaw)):
        raise InvalidInput("convolve needs two PassageLaw or two AtomicDist operands")
    if a.is_dense and b.is_dense:
        return _conv_dense(a, b, horizon)
    if not a.is_dense and not b.is_dense:
        return PassageLaw.sparse(_conv_atomic(a.atomic, b.atomic, horizon))
    raise InvalidInput("cannot convolve dense with sparse; convert one side first")


# ---------------------------------------------------------------------------
# geometric compound

_SOLVE_BLOCK = 128


def geometric_compound(u: PassageLaw, v: PassageLaw, pi: float, *,
                       horizon: int | None = None) -> PassageLaw:
    """Law of U_1 + ... + U_M + V with M geometric: P(M = m) = (1-pi)^m pi.

    This is the return-time decomposition of a passage i -> j: M failed
    excursions (law U), then the successful crossing (law V), with pi the
    hit-before-return probability.  pi = 1 returns V unchanged.

    Dense laws solve the renewal equation C = pi V + (1-pi) U * C for the
    pmf and the survival S_C(n) = pi S_V(n) + (1-pi) [S_U(n) + sum_{k<=n}
    u_k S_C(n-k)], a unit lower-triangular Toeplitz system with off-diagonal
    entries -(1-pi) u_k <= 0, by forward substitution: per ``_SOLVE_BLOCK``
    rows, one valid-mode convolution over the earlier rows and one product
    with the inverse of the diagonal block (the same for every block).  That
    inverse is lower-triangular Toeplitz with first column the renewal
    sequence r of (1-pi) u, built by doubling with numpy alone.  Every
    update adds a nonnegative term, so nothing is subtracted; no
    (horizon+1)^2 matrix.
    The tail is never below P(M >= horizon) = (1-pi)^horizon.  Within the
    horizon the pmf is exact when U covers 1..horizon-1 and V covers
    1..horizon.  Sparse laws sum the series sum_m pi (1-pi)^m U^{*m} * V
    term by term until the log of the remaining geometric mass falls below
    ``PRUNE_FLOOR_LOG`` or every later term lies beyond the horizon; atoms
    below that floor are pruned into the tail.  All mass
    not assigned within the horizon lands in the tail.
    """
    if horizon is not None and horizon < 1:
        raise InvalidInput("horizon must be >= 1")
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
    return _compound_sparse(u, v, math.log(pi), log_q, horizon)


def _fit(arr: np.ndarray, h: int, fill: float) -> np.ndarray:
    """``arr`` cut to length h, or padded with ``fill`` up to it."""
    out = np.full(h, fill)
    m = min(h, arr.size)
    out[:m] = arr[:m]
    return out


def _renewal(a: np.ndarray, n: int) -> np.ndarray:
    """The renewal sequence r_0 = 1, r_t = sum_{k=1}^t a_k r_{t-k} for t < n,
    given a_0 = 0 and a_1, ..., a_{n-1} >= 0 in ``a``.

    R(z) = sum r_t z^t is 1/(1 - A(z)), built by doubling.  With R_m the
    polynomial r_0 + ... + r_{m-1} z^{m-1}, (1 - A) R_m = 1 - E where E has
    no coefficient below z^m, and its coefficients m..2m-1 are those of
    A R_m.  So R = R_m / (1 - E) agrees with R_m (1 + E) through z^{2m-1}:
    r[m:2m] = (R_m E)[m:2m].  Two convolutions per doubling, and every term
    is a product of nonnegatives.
    """
    r = np.empty(n)
    r[0] = 1.0
    m = 1
    while m < n:
        k = min(2 * m, n)
        e = np.convolve(a[:k], r[:m])[m:k]
        r[m:k] = np.convolve(r[:m], e)[:k - m]
        m = k
    return r


def _compound_dense(u: PassageLaw, v: PassageLaw, pi: float, log_q: float,
                    h: int) -> PassageLaw:
    q = 1.0 - pi
    # beyond an operand's horizon its pmf is unknown: none of it is assigned
    # there, and its survival stays at its tail
    qu = q * _fit(u.linear_pmf(), h, 0.0)  # q u_1, ..., q u_h
    x = np.zeros((h + 1, 2), order="F")  # row t: P(C = t+1), P(C > t)
    x[:h, 0] = pi * _fit(v.linear_pmf(), h, 0.0)
    x[0, 1] = 1.0
    x[1:, 1] = (pi * _fit(v.survival_array(), h, math.exp(v.log_tail))
                + q * _fit(u.survival_array(), h, math.exp(u.log_tail)))
    # the diagonal block is unit lower-triangular Toeplitz with first column
    # (1, -q u_1, ...); its inverse is lower-triangular Toeplitz with first
    # column the renewal sequence of q u, which has no negative entry
    nb = min(_SOLVE_BLOCK, h + 1)
    r = _renewal(np.concatenate(([0.0], qu[:nb - 1])), nb)
    inv = sliding_window_view(np.concatenate((np.zeros(nb - 1), r)), nb)[:, ::-1].copy()
    for t0 in range(0, h + 1, _SOLVE_BLOCK):
        t1 = min(t0 + _SOLVE_BLOCK, h + 1)
        if t0:  # add what the rows before the block contribute
            x[t0:t1, 0] += np.convolve(qu[:t1 - 1], x[:t0, 0], "valid")
            x[t0:t1, 1] += np.convolve(qu[:t1 - 1], x[:t0, 1], "valid")
        x[t0:t1] = inv[:t1 - t0, :t1 - t0] @ x[t0:t1]
    log_tail = max(math.log(x[h, 1]) if x[h, 1] > 0.0 else LOG_ZERO, h * log_q)
    return PassageLaw._dense(x[:h, 0], log_tail)


def _compound_sparse(u: PassageLaw, v: PassageLaw, log_pi: float, log_q: float,
                     horizon: int) -> PassageLaw:
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
        if remaining < PRUNE_FLOOR_LOG or vals.size == 0:
            tail_parts.append(remaining)
            break
        vals, lws, moved, pruned = _cross_sum(vals, lws, ua.atoms, ua.log_probs, horizon)
        c_tail = logsumexp([_combined_tail(c_tail, ua.log_tail), moved, pruned])
    if not acc_vals:
        raise InvalidInput("geometric compound left no atoms within the horizon")
    all_vals = np.concatenate(acc_vals)
    all_lws = np.concatenate(acc_lws)
    vals_m, lws_m = _merge_sorted(all_vals, all_lws)
    return PassageLaw.sparse(AtomicDist(vals_m, lws_m, logsumexp(tail_parts)))


# ---------------------------------------------------------------------------
# mixtures and domination


def mixture(laws, weights) -> PassageLaw:
    """Weighted mixture of laws in a common representation.

    Dense inputs are truncated to the shortest horizon (excess mass moves to
    the respective tails); weights must sum to 1 within 1e-12.
    """
    laws = list(laws)
    weights = np.asarray(list(weights), dtype=float)
    if len(laws) == 0 or weights.size != len(laws):
        raise InvalidInput("need matching nonempty laws and weights")
    if np.any(weights < 0):
        raise InvalidInput("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise InvalidInput("mixture weights must sum to 1 within 1e-12")
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
