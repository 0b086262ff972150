"""Exact passage-time laws of finite Markov chains and their calculus.

A law is the distribution of a first-passage time T_ij (first hit of j from
i, counting from step 1; i = j gives the first return).  Representations:

* dense: the log pmf over n = 1..horizon, every entry its true log, with
  its linear view, plus the tail mass P(T > horizon) kept in log space.  An
  entry below the smallest subnormal reads 0 in the linear view; the log of
  the mass those entries hold is kept beside it, and the calculus on linear
  pmfs counts it in its output tail.  The pmf comes from propagating the
  taboo vector q_n(k) = P(X_n = k, j not yet hit) with scipy's compiled
  ``csc_matvec`` and a taboo operator built from the kernel's CSR arrays
  once per kernel (see below): P^T with the mass entering j routed to a sink
  slot, whose column is empty, and the mass entering a killed state dropped.
  Laws that track a visited-flag step the interleaved pairs (k, visited).
  Steps run in blocks.  The first row of a block is one single-step call;
  the others take a few calls with a block-lifted operator that steps many
  rows of one flat buffer in place, each row summed over the same products
  in the same order as a single step, so every law is the one a call per
  step gives, bit for bit.  The pmf is read from the sink column and the
  survivals summed once per block, in one ``np.add.reduce`` that sums each
  row to the bits it sums to alone.  The vector is rescaled by exact powers
  of two before its mass can underflow (the rows of a block past the
  rescale point are recomputed from the rescaled row), so a tail is zero
  only when no mass is left.  Blocks hold up to 128 rows, until a bound on
  how fast the operator can lose mass, less its rounding, proves that no
  rescale falls before the horizon: from there, blocks fill the buffer
  and only the row at the horizon is summed.  The log of an
  entry that unscales below the smallest subnormal is read from its
  rescaled value, so a moment sums it at its own step;
* sparse: integer atoms with log-weights (:class:`AtomicDist`), for laws with
  few support points or astronomically small masses.

Every operation conserves mass explicitly: whatever cannot be assigned to a
support point (truncation beyond the horizon, pruning below the underflow
floor, operand tails, and the entries a linear pmf cannot hold) is moved
into the tail bucket, never dropped.  Tails
are combined in log space, so a law is never made complete by an underflow.
The dense geometric compound is solved 128 rows at a time (one convolution
and one product with the inverse of the diagonal block per block), adding
only nonnegative terms.
A tail *certificate* (N, rho, B) of a law computed to horizon N asserts
P(T > N+k) <= rho^k B for every k >= 0, not only on computed points; moment
code refuses to extrapolate without one.  A propagated law's comes from its
taboo operator Q (:func:`_tail_vector`): a vector v >= 1 with Qv <= rho v
on every slot that can hold mass (one an entry of Q enters), checked with
one product of the operator's own arrays, so that B = q_N . v; v comes from
the solves of Noda's iteration, with no eigenvalue computed.  A conditioned
law divides B by the probability of its event.  A law
builds it on first use (:attr:`PassageLaw.tail_cert`).

What the laws of one kernel share is built once per kernel and kept in its
private cache (``TransitionKernel._derived``, a ``chain._ByteCache``),
keyed by kind and key: the taboo operators, keyed by (absorb, kill, flag),
with the bound of :func:`_log_hold` on how fast each loses mass and the
(rho, v) of its tail certificates, and the hitting splits (pi, h) of
:func:`_hit_split`, keyed by the pair (i, j), the dense solve that every
conditioned law and ``hit_before_return_prob`` needs.  The cache keeps the
most recently used values up to a budget in bytes, 16 times the bytes of
the kernel's CSR arrays and at least 1 MiB; an entry costs the bytes of its
arrays plus 256.  So a sweep over all pairs of a small chain solves each
pair once (the operators, bounds and certificates of an 8-state sweep cost
13 KB), while a large chain keeps a few operators, not one per target (an
operator of a 50 000-state chain with 4 nonzeros a row takes 1.0 MB, of a
57.6 MB budget), nor n^2 split vectors (64 MB at n = 200, of a 10 MB
budget).  A kernel, its derived arrays and every cached array are
read-only, so no cached value can go stale.  The lifted operators of
:func:`_lift` are ``lift`` times the size of the operator they lift, and
are kept apart, in one process-wide cache of the same class (``_LIFTS``,
``_LIFT_CACHE_BYTES`` = 1 MiB): lifts kept by each kernel raised the
decomposition benchmark's peak RSS from 54.7 to 71.1 MB.
A lift spans every row of a block after its first, up to 127 steps, so a
600-step law of a small chain takes six compiled calls, and the eight
lifts of an all-pairs sweep of an 8-state chain (0.82 MB) share the cache.
Against 192 KiB with 24 KiB lifts, the 1 MiB bound costs the decomposition
benchmark 1.2 MB of peak RSS, and moments_allpairs 1.0 MB.  A lift is
keyed by the ``id`` of the cached operator it lifts, and holds that
operator, so the key of a freed kernel's operator can never match a new
one.

scipy is imported on first use, not with the module: the first propagated
law loads ``scipy.sparse`` (through the kernel's ``csr`` and the compiled
matvec).  The calculus on laws (compound, convolution, mixture, domination)
runs on numpy alone.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._atomic import _MASS_TOL, AtomicDist
from .chain import StateRef, TransitionKernel, _ByteCache, _opened
from .errors import IncomparableLaws, InvalidInput, NoSuchPath
from .logspace import LOG_ZERO, PRUNE_FLOOR_LOG, log_add, log_sub, logsumexp

__all__ = [
    "AtomicDist", "TailCert", "PassageLaw", "DominationReport",
    "first_passage_law", "hit_before_return_prob", "conditioned_return_law",
    "conditioned_hit_law", "crossing_return_law", "convolve",
    "geometric_compound", "mixture", "stochastic_dominates",
    "law_to_csv", "law_from_csv",
]

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TailCert:
    """Certified geometric tail: P(T > start + k) <= rho^k e^log_bound for
    every k >= 0, where start is the horizon of the law that carries it."""

    start: int
    rho: float
    log_bound: float

    def __post_init__(self):
        if self.start < 1:
            raise InvalidInput("certificate start must be >= 1")
        if not 0.0 < self.rho < 1.0:
            raise InvalidInput(f"certificate ratio must be in (0, 1), got {self.rho}")
        if not self.log_bound < math.inf:
            raise InvalidInput(f"certificate log bound must be below +inf, got {self.log_bound}")


class PassageLaw:
    """Distribution of a positive-integer passage time (dense or sparse)."""

    def __init__(self, *, log_pmf=None, lin_pmf=None, atomic=None,
                 log_tail=LOG_ZERO, tail_cert=None, _log_unseen=LOG_ZERO):
        self._log_pmf = log_pmf
        self._lin_pmf = lin_pmf
        self._atomic = atomic
        self._log_tail = float(atomic.log_tail) if atomic is not None else float(log_tail)
        # a function in place of a certificate builds it on first use (tail_cert)
        due = callable(tail_cert)
        self._tail_cert, self._cert_due = (None, tail_cert) if due else (tail_cert, None)
        # log of the mass of the entries that read 0 in the linear pmf
        self._log_unseen = _log_unseen
        self._check()

    # -- constructors ------------------------------------------------------

    @classmethod
    def dense(cls, pmf, tail: float, tail_cert: TailCert | None = None) -> "PassageLaw":
        """Dense law from a linear-space pmf over n = 1..len(pmf)."""
        if not tail >= 0:
            raise InvalidInput("probabilities must be nonnegative")
        return cls._dense(pmf, math.log(tail) if tail > 0 else LOG_ZERO, tail_cert)

    @classmethod
    def _dense(cls, pmf, log_tail: float, tail_cert: TailCert | None = None) -> "PassageLaw":
        """Dense law from a linear-space pmf and a log-space tail."""
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise InvalidInput("dense pmf must be a nonempty 1-d array")
        low = pmf[pmf.argmin()]  # the least entry, without a reduction's set-up cost
        if low < 0:
            raise InvalidInput("probabilities must be nonnegative")
        with np.errstate(divide="ignore") if not low > 0.0 else nullcontext():
            log_pmf = np.log(pmf)
        return cls(log_pmf=log_pmf, lin_pmf=pmf, log_tail=log_tail, tail_cert=tail_cert)

    @classmethod
    def _dense_log(cls, log_pmf, log_tail: float, tail_cert: TailCert | None = None,
                   lin=None) -> "PassageLaw":
        """Dense law from a log-pmf over n = 1..len(log_pmf), and its linear
        pmf ``lin`` if known, else exp(log_pmf).

        The logs are kept as given; an entry whose linear value is 0 adds
        its log mass to the law's unseen mass.
        """
        log_pmf = np.asarray(log_pmf, dtype=float)
        if log_pmf.ndim != 1 or log_pmf.size == 0:
            raise InvalidInput("dense log-pmf must be a nonempty 1-d array")
        lin = np.exp(log_pmf) if lin is None else lin
        log_unseen = logsumexp(log_pmf[(lin == 0.0) & (log_pmf > LOG_ZERO)])
        return cls(log_pmf=log_pmf, lin_pmf=lin, log_tail=log_tail, tail_cert=tail_cert,
                   _log_unseen=log_unseen)

    @classmethod
    def sparse(cls, atomic: AtomicDist, tail_cert: TailCert | None = None) -> "PassageLaw":
        return cls(atomic=atomic, tail_cert=tail_cert)

    @classmethod
    def point(cls, value: int) -> "PassageLaw":
        return cls.sparse(AtomicDist.point_mass(value))

    # -- validation --------------------------------------------------------

    def _check(self) -> None:
        """Mass sums to one within 1e-10, and a certificate given starts at
        the horizon and bounds the tail there (:meth:`_bears`)."""
        total = self.log_total_mass()
        if not abs(total) <= _MASS_TOL:
            raise InvalidInput(f"law mass off by more than 1e-10: log total = {total}")
        if self._tail_cert is not None and not self._bears(self._tail_cert):
            raise InvalidInput("tail certificate does not start at the horizon or "
                               "does not bound the tail there")

    def _bears(self, cert: TailCert) -> bool:
        """Whether ``cert`` starts at the horizon N and its bound holds
        there, P(T > N) <= e^log_bound, up to the rounding of the two logs
        (1e-12 of the larger)."""
        tail, bound = self._log_tail, cert.log_bound
        return cert.start == self.horizon and (
            tail <= bound or tail - bound <= 1e-12 * (1.0 + abs(bound)))

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
        """log P(T > horizon), the mass beyond the horizon.  A law from the
        calculus on linear pmfs (:func:`convolve`, :func:`geometric_compound`)
        counts here too the mass its operands held at entries below the
        float range, since it cannot place that mass at a step."""
        return self._log_tail

    @property
    def tail_cert(self) -> TailCert | None:
        """The tail certificate, or None.  The laws of this module build it
        on first use, when it is kept if it bounds the tail (:meth:`_bears`)
        and dropped otherwise: most laws are never asked for one, and the
        operator bound behind it costs more than a short law."""
        due = self._cert_due
        if due is not None:
            cert = due()
            self._tail_cert = cert if cert is not None and self._bears(cert) else None
            self._cert_due = None
        return self._tail_cert

    @property
    def is_complete(self) -> bool:
        """Whether no mass lies beyond the horizon: the tail is proven zero,
        never made zero by an underflow."""
        return self._log_tail == LOG_ZERO

    def log_total_mass(self) -> float:
        if self.is_dense:
            return log_add(logsumexp(self._log_pmf), self._log_tail)
        return self._atomic.log_mass()

    def _linear_view(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(pmf, log pmf, log tail) of a dense law as a linear pmf sees it:
        an entry that reads 0 there has log -inf, and its mass counts in the
        tail, which is then log_tail and ``_log_unseen`` added in log space."""
        if self._log_unseen == LOG_ZERO:
            return self._lin_pmf, self._log_pmf, self._log_tail
        return (self._lin_pmf, np.where(self._lin_pmf > 0.0, self._log_pmf, LOG_ZERO),
                log_add(self._log_tail, self._log_unseen))

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
        tail upwards as tail + sum_{k>n} p_k, with no subtraction.  Of a
        dense law, the linear view (the mass of entries below the float
        range counts in the tail)."""
        if self.is_dense:
            pmf, _, log_tail = self._linear_view()
        else:
            pmf, log_tail = self.pmf_array(), self._log_tail
        terms = np.empty(pmf.size)
        terms[0] = math.exp(log_tail)
        terms[1:] = pmf[:0:-1]
        return np.add.accumulate(terms)[::-1]

    def to_dense(self, horizon: int) -> "PassageLaw":
        """Re-represent on 1..horizon; mass beyond moves into the tail.
        Extending a dense law beyond its horizon requires a complete law."""
        if horizon < 1:
            raise InvalidInput("horizon must be >= 1")
        if self.is_dense:
            if horizon == self.horizon:
                return self
            if horizon > self.horizon and not self.is_complete:
                raise InvalidInput("cannot extend an incomplete dense law")
            steps, logs = np.arange(1, self.horizon + 1), self._log_pmf
        else:
            steps, logs = self._atomic.atoms, self._atomic.log_probs
        inside = steps <= horizon
        out = np.full(horizon, LOG_ZERO)
        out[steps[inside] - 1] = logs[inside]
        past, log_past = steps[~inside], logs[~inside]
        log_tail = log_add(self._log_tail, logsumexp(log_past))
        cert = None if self._tail_cert is None and self._cert_due is None else (
            lambda: self._moved_cert(horizon, past, log_past, log_tail))
        return PassageLaw._dense_log(out, log_tail, tail_cert=cert)

    def _moved_cert(self, n: int, steps: np.ndarray, logs: np.ndarray,
                    log_tail: float) -> TailCert | None:
        """This law's certificate moved from its horizon N to horizon n,
        given the steps past n, their log pmf and log P(T > n).

        Forward, P(T > n + k) <= rho^(n - N + k) B.  Back, it takes as
        bound the largest of P(T > n), B rho^-(N - n), and for each step s
        past n, P(T > s - 1) rho^-(s - 1 - n): between steps the survival
        is flat, so those are the points where P(T > n + k) <= rho^k B'
        binds."""
        cert = self.tail_cert
        if cert is None:
            return None
        log_rho = math.log(cert.rho)
        if n >= cert.start:
            return TailCert(n, cert.rho, cert.log_bound + (n - cert.start) * log_rho)
        # log P(T > s - 1) for the steps s past n, ascending
        log_surv = np.logaddexp.accumulate(np.concatenate(([self._log_tail], logs[::-1])))[:0:-1]
        found = log_surv - (steps - 1 - n) * log_rho
        return TailCert(n, cert.rho, max(log_tail, cert.log_bound - (cert.start - n) * log_rho,
                                         float(found.max(initial=LOG_ZERO))))

    def __repr__(self):
        kind = f"dense[1..{self.horizon}]" if self.is_dense else f"sparse[{self._atomic.atoms.size} atoms]"
        return f"PassageLaw({kind}, log_tail={self._log_tail:.6g})"


# ---------------------------------------------------------------------------
# first-passage propagation


_RESCALE_BELOW = 2.0 ** -600
_LN2 = math.log(2.0)
_LOG_RESCALE_BELOW = -600 * _LN2
_BLOCK_ROWS = 128
_BLOCK_DOUBLES = 2 ** 16
_LIFT_CACHE_BYTES = 2 ** 20
_HOLD_STEPS = 16  # steps over which _log_hold bounds the loss of alive mass
_CERT_WIDTH = 256  # widest taboo operator whose tail certificate comes from dense solves
_CERT_SOLVES = 5  # most solves of Noda's iteration for one tail certificate
_FLAG_BITS = np.array([0, 1], dtype=np.int32)
_csc_matvec = None  # scipy's compiled CSC matvec, bound and checked by the first _propagate


def _block_sizes(w: int, nnz: int) -> tuple[int, int, int, int]:
    """(span, rows, reach, lift) of :func:`_propagate` for a w-slot operator
    with nnz entries: the most rows of any block, which fill at most
    ``_BLOCK_DOUBLES`` doubles; the most rows of a block that may be rolled
    back, at most ``_BLOCK_ROWS``; the fewest rows of such a block after the
    first, as many as ``_BLOCK_DOUBLES`` entries of lifted operator step;
    and the steps of one lifted call, reach - 1, so that one call steps
    every row of such a block after its first."""
    span = max(1, _BLOCK_DOUBLES // w)
    rows = min(_BLOCK_ROWS, span)
    reach = max(2, min(rows, _BLOCK_DOUBLES // max(1, nnz) + 1))
    return span, rows, reach, reach - 1


_LIFTS = _ByteCache(_LIFT_CACHE_BYTES)


def _taboo_operator(kernel: TransitionKernel, absorb: int, kill: int | None,
                    flag: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """CSC arrays (indptr, indices, data) of the taboo operator, P^T with its
    destinations rerouted, and the width of its alive part.

    Column c holds the out-edges of slot c in the order of the kernel's CSR
    rows, so each output still sums its sources in ascending order.  Mass
    entering ``absorb`` goes to a sink slot at index ``width``, whose column
    is empty; mass entering ``kill`` is dropped.  With ``flag``, slot 2k+v
    is state k with visited-flag v, and only (absorb, 1) goes to the sink;
    ``kill`` is not read, as its one caller, the crossing law, kills nothing.
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


def _operator(kernel: TransitionKernel, key: tuple) -> tuple:
    """The taboo operator of ``key`` = (absorb, kill, flag), from the
    kernel's cache."""
    return kernel._derived.get(("taboo", key), lambda: _taboo_operator(kernel, *key))


def _log_hold(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, width: int,
              flag: int | None) -> tuple[float, float]:
    """The log of the least (-inf for 0) and the greatest probability, over
    the alive slots of a taboo operator, that mass in a slot is still alive
    ``_HOLD_STEPS`` steps later.  Whatever the taboo vector, its alive mass
    then falls by at most the first factor, and keeps at most the second,
    over any ``_HOLD_STEPS`` steps, rounding included: the first is cut by
    1 + gamma(longest column) a product and 1 - gamma(most sums into a
    slot) a step (a unit more in each for the flag's fix-up), the second
    divided by 1 - gamma(longest column + 1) a product and raised by the
    smallest normal, for underflow.

    The probabilities v(c) come from ``_HOLD_STEPS`` products of the
    operator's columns with v, the sink's v being 0.  With ``flag``, mass
    entering (flag, 0) moves on to (flag, 1), so that slot takes the v of
    (flag, 1) before each product and is left out."""
    from scipy.sparse._sparsetools import csr_matvec

    w = width + 1
    v, out = np.ones(w), np.empty(w)
    v[width] = 0.0
    for _ in range(_HOLD_STEPS):
        if flag is not None:
            v[2 * flag] = v[2 * flag + 1]
        out.fill(0.0)
        csr_matvec(w, w, indptr, indices, data, v, out)  # column c of the CSC arrays as row c
        v, out = out, v
    alive = v[:width] if flag is None else np.delete(v[:width], 2 * flag)
    least = float(alive.min())
    k, most_into = _fan(indptr, indices, width)
    slack = _HOLD_STEPS * (math.log1p(_gamma(k + 1)) - math.log1p(-_gamma(most_into + 1)))
    most = float(alive.max()) / (1.0 - _gamma(k + 1)) ** _HOLD_STEPS + _SMALLEST_NORMAL
    return math.log(least) - slack if least > 0.0 else -math.inf, most


def _fan(indptr: np.ndarray, indices: np.ndarray, width: int) -> tuple[int, int]:
    """(k, m) of a taboo operator: the entries of its longest column and the
    most entries into one alive slot, the most products in one sum when its
    arrays are read as rows and as columns (a propagated step)."""
    return (int(np.diff(indptr).max(initial=0)),
            int(np.bincount(indices, minlength=width + 1)[:width].max(initial=0)))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 (*Accuracy and Stability
    of Numerical Algorithms*, section 3.1): a sum of k nonnegative products
    rounds to within a factor 1 +- gamma_k of its exact value."""
    return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)


def _dense_taboo(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, width: int,
                 flag: int | None) -> np.ndarray:
    """The alive part of a taboo operator as a dense matrix Q, row c the
    slots that mass in slot c moves to in one step; with ``flag``, the move
    (flag, 0) -> (flag, 1) folded in."""
    q = np.zeros((width, width))
    src = np.repeat(np.arange(width), np.diff(indptr[:width + 1]))
    alive = indices[:src.size] < width
    np.add.at(q, (src[alive], indices[:src.size][alive]), data[:src.size][alive])
    if flag is not None:
        q[:, 2 * flag + 1] += q[:, 2 * flag]
        q[:, 2 * flag] = 0.0
    return q


def _tail_vector(kernel: TransitionKernel, key: tuple) -> tuple:
    """(rho, v, log_lead, log_step) for the tail certificates of the laws
    stepped with the taboo operator of ``key``, (None, None, 0, 0) when
    there is none.  For a law stepped to horizon N, with final taboo
    vector q_N, P(T > N + k) <= rho^k B for every k >= 0, where B = (q_N .
    v) e^(log_lead + N log_step) (Collatz-Wielandt; Seneta, *Non-negative
    Matrices and Markov Chains*, ch. 1).

    Mass after step 0 sits only in live slots: those an entry of the
    operator enters, but (flag, 0), whose mass the fold moves on.  There v
    >= 1, so the alive mass q . 1 is at most q . v, and Qv <= rho v, so
    q_(N+k) . v <= rho^k q_N . v, as :func:`_checked_ratio` checks; there
    is no certificate unless rho < 1.  Up to ``_CERT_WIDTH`` alive slots, v
    comes from Noda's iteration (*Numer. Math.* 17 (1971) 382-386): from r
    = 1 and v = 1, up to ``_CERT_SOLVES`` dense solves x = (rI - Q)^-1 v,
    x scaled to 1 on its least live slot, each kept with r its checked
    ratio while that ratio falls: every pair kept is a certificate, its rho
    below the last, and no eigenvalue is computed.  A wider operator, or
    one with no ratio below 1, takes v = 1 and the greatest alive mass M
    left after ``_HOLD_STEPS`` steps from :func:`_log_hold`: the alive mass
    then falls by M every ``_HOLD_STEPS`` steps and never grows, so rho =
    M^(1/16) holds with B times rho^-15.  log_step bounds the rounding of
    one propagated step, gamma of the most sums into one slot, and log_lead
    that of q . v."""
    indptr, indices, data, width = op = _operator(kernel, key)
    flag = key[2]
    k, most_into = _fan(indptr, indices, width)
    log_step, log_lead = -math.log1p(-_gamma(most_into + 1)), -math.log1p(-_gamma(2 * width + 2))
    if width <= _CERT_WIDTH:
        q = _dense_taboo(*op, flag)
        live = np.bincount(indices, minlength=width + 1)[:width] > 0
        if flag is not None:
            live[2 * flag] = False
        r, v = 1.0, np.ones(width)
        for _ in range(_CERT_SOLVES):
            try:
                x = np.linalg.solve(r * np.eye(width) - q, v)
            except np.linalg.LinAlgError:  # r is an eigenvalue of Q, to working precision
                break
            if flag is not None:
                x[2 * flag] = x[2 * flag + 1]
            if not (np.isfinite(x).all() and (x[live] > 0.0).all()):
                break
            x /= x[live].min(initial=math.inf)  # no live slot: v = 0, and every q_N . v = 0
            rho = _checked_ratio(op, x, live, k)
            if not rho < r:
                break
            r, v = rho, x
        if r < 1.0:
            return r, v, log_lead, log_step
    most = kernel._derived.get(("hold", key), lambda: _log_hold(*op, flag))[1]
    rho = most ** (1.0 / _HOLD_STEPS) * (1.0 + _gamma(2))
    if not rho < 1.0:
        return None, None, 0.0, 0.0
    return rho, np.ones(width), log_lead - (_HOLD_STEPS - 1) * math.log(rho), log_step


def _checked_ratio(op: tuple, v: np.ndarray, live: np.ndarray, k: int) -> float:
    """The least rho with Qv <= rho v on the ``live`` slots, as the
    operator's arrays read as rows give Qv, rounded up for rounding and
    underflow; v >= 1 on those slots."""
    from scipy.sparse._sparsetools import csr_matvec

    indptr, indices, data, width = op
    x, out = np.append(v, 0.0), np.zeros(width + 1)
    csr_matvec(width + 1, width + 1, indptr, indices, data, x, out)
    ratio = out[:width][live] / v[live]
    return float(ratio.max(initial=0.0)) * (1.0 + 2.0 * _gamma(k + 2)) + _SMALLEST_NORMAL


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


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's sum, the bits it sums to alone; tests patch it to count rows."""
    return np.add.reduce(rows, axis=1)


def _propagate(kernel: TransitionKernel, start: int, horizon: int, *, absorb: int,
               kill: int | None = None, flag: int | None = None) -> tuple[np.ndarray, ...]:
    """Step the taboo vector q_n(k) = P(X_n = k, not absorbed or killed) from
    ``start`` with the operator of :func:`_taboo_operator`, whose compiled
    ``csc_matvec`` gives ``q @ csr`` bit for bit.

    Mass entering ``absorb`` is recorded from the sink slot; mass entering
    ``kill`` is gone.  With ``flag``, q holds the pairs (k, visited) and
    only mass that has visited ``flag`` is recorded; each step moves the
    mass entering (flag, 0) to (flag, 1).

    Steps fill the rows of a block buffer, at most ``_BLOCK_DOUBLES``
    doubles; two buffers alternate, so the carried vector is never copied.
    Row 0 of a block is one single-step call on the carried vector.  The
    other rows come from a few calls on the block's own flat buffer with the
    lifted operator of :func:`_lift`, each covering up to ``lift`` steps
    (:func:`_block_sizes`); with one row a block it is not built.  Every slot
    is summed over the same products in the same order as with one call a
    step, so the laws are the same bit for bit, whatever the blocks.  With
    ``flag``, the lifted operator moves slot (flag, 0) of every row but the
    last into (flag, 1); the last row is fixed up here, and then column
    (flag, 0) of the block is zeroed.

    After each block, the pmf is read from its sink column and the survivals
    are its row sums, one ``np.add.reduce`` (:func:`_row_sums`) that sums
    each row as it sums it alone.  Alive mass in (0, 2^-600) is rescaled by
    an exact power of two before the next step, so q never underflows: the
    rows after the first such step are dropped, and the next block starts
    from that row, rescaled.  A rescale point thus depends on the row sums
    alone, whatever the blocks.  Once the alive mass is proven to stay above
    2^-600 through the horizon, the blocks hold up to ``span`` rows, are
    never rolled back, and sum no row but the one at the horizon.  The proof:
    the alive mass falls by at most e^log_hold over any ``_HOLD_STEPS`` steps
    (:func:`_log_hold`, rounding included), and the carried mass and every
    later row sum, the same whatever the blocks, round by 1 +- gamma(width),
    also taken off.  The bound costs ``_HOLD_STEPS`` products, computed once
    per operator for a horizon past 2 + ``rows`` where a proven block
    outgrows ``rows``, else past 256, where it saves only row sums (it paid
    back within 128 to 256 steps on cold operators of 3 000 to 50 000 slots).
    Any other block holds 2 rows if it is the first, or the first after a
    rescale, and otherwise max(reach, 4 * since) rows, at most ``rows``,
    since being the steps kept since the last rescale (:func:`_block_sizes`).
    Its rollback drops at most reach - 1 steps (``_BLOCK_DOUBLES``
    multiply-adds) or four steps for each step kept, whichever is more.  Once
    the alive mass is exactly zero every later step is zero, and stepping
    stops.  Returns (pmf, alive, scale, q): the mass recorded in step t,
    times 2^scale[t], and the alive mass and q after the last step, both
    times 2^scale[-1].
    """
    global _csc_matvec
    if _csc_matvec is None:
        _csc_matvec = _bind_matvec()
    key = (absorb, kill, flag)
    indptr, indices, data, width = op = _operator(kernel, key)
    w = width + 1
    span, rows, reach, lift = _block_sizes(w, data.size)
    log_hold = -math.inf  # with no bound, no block is proven
    if horizon > (2 + rows if span > rows else 16 * _HOLD_STEPS):
        log_hold = kernel._derived.get(("hold", key), lambda: _log_hold(*op, flag))[0]
    # a row sum rounds by a factor 1 +- gamma(width), the test below by a few
    # ulps of 2^9, and products that underflow by far less than 2^-40
    floor = _LOG_RESCALE_BELOW - 2.0 * math.log1p(-_gamma(width)) + 2.0 ** -40
    fslot = None if flag is None else 2 * flag
    if rows > 1:
        # the lift holds op, so that no other operator can take its id
        lptr, lind, ldat, _ = _LIFTS.get(
            id(op), lambda: (*_lift(indptr, indices, data, w, lift, fslot), op))
    size = min(horizon, span)
    bufs = (np.empty((size, w)), np.empty((size, w)))
    flats = tuple(b.reshape(-1) for b in bufs)
    x = np.zeros(w)
    x[start if flag is None else 2 * start] = 1.0
    pmf = np.zeros(horizon)
    scale = np.zeros(horizon, dtype=np.int64)
    matvec = _csc_matvec
    t = since = k = 0
    alive, proven = 1.0, False  # the alive mass of x, as scaled; nothing proven yet
    while t < horizon:
        # alive mass falls by at most e^log_hold over any _HOLD_STEPS steps:
        # once that keeps it above 2^-600 through the horizon, no rescale
        # can fall before it, and blocks of span rows take the rest
        proven = proven or math.log(alive) - (t - horizon) // _HOLD_STEPS * log_hold > floor
        m = min(span if proven else min(rows, max(reach, 4 * since) if since else 2), horizon - t)
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
        if proven:  # only the row at the horizon is summed
            pmf[t:t + m] = buf[:m, width]
            t, x = t + m, buf[m - 1]
            alive = _row_sums(buf[m - 1:m, :width])[0] if t == horizon else alive
            continue
        s = _row_sums(buf[:m, :width])
        low = (s < _RESCALE_BELOW).nonzero()[0]
        kept = int(low[0]) + 1 if low.size else m
        pmf[t:t + kept] = buf[:kept, width]
        t += kept
        since += kept
        x, alive = buf[kept - 1], s[kept - 1]
        if low.size and t < horizon:
            if s[kept - 1] == 0.0:
                break
            e = -math.frexp(s[kept - 1])[1]
            np.ldexp(x, e, out=x)
            alive = math.ldexp(alive, e)
            scale[t:] += e
            since = 0
    q = x[:width]
    return pmf, alive, scale, (q if flag is None else q.reshape(-1, 2))


def _log_scaled(x: float, scale: int) -> float:
    """log(x * 2^-scale) for x >= 0."""
    return math.log(x) - scale * _LN2 if x > 0.0 else LOG_ZERO


def _unscaled_law(pmf: np.ndarray, scale: np.ndarray, log_tail: float,
                  tail_cert: TailCert | None = None) -> PassageLaw:
    """Dense law with pmf[t] 2^-scale[t] at step t + 1 and tail e^log_tail
    beyond the horizon.  An entry that unscales below the smallest subnormal
    reads 0 in the linear pmf; its log is read from the scaled value."""
    if not scale[-1]:  # scale never decreases, so nothing was rescaled
        return PassageLaw._dense(pmf, log_tail, tail_cert)
    lin = np.ldexp(pmf, -scale)
    lost = (lin == 0.0) & (pmf > 0.0)
    if not lost.any():
        return PassageLaw._dense(lin, log_tail, tail_cert)
    with np.errstate(divide="ignore"):
        log_pmf = np.log(lin)
    log_pmf[lost] = np.log(pmf[lost]) - scale[lost] * _LN2
    return PassageLaw._dense_log(log_pmf, log_tail, tail_cert, lin=lin)


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
    pmf, alive, scale, q = _propagate(kernel, i, horizon, absorb=j)
    return _unscaled_law(pmf, scale, _log_scaled(alive, scale[-1]),
                         _tail_cert(kernel, (j, None, None), horizon, q, scale[-1]))


def _tail_cert(kernel: TransitionKernel, key: tuple, horizon: int, q: np.ndarray,
               scale: int, log_p: float = 0.0):
    """A function that gives the tail certificate of a law stepped to
    ``horizon`` N with the taboo operator of ``key``, whose final taboo
    vector is q times 2^scale and whose tail is divided by e^log_p: from
    the operator's cached (rho, v) (:func:`_tail_vector`), P(T > N + k) <=
    rho^k B for every k >= 0, with B = (q . v) 2^-scale / e^log_p times the
    rounding factors."""
    q = q.ravel().copy()  # not a view that keeps the propagation's block buffer

    def build() -> TailCert | None:
        rho, v, log_lead, log_step = kernel._derived.get(("cert", key),
                                                         lambda: _tail_vector(kernel, key))
        if rho is None:
            return None
        b = float(q @ v)
        if not b < math.inf:  # a vector too steep for the float range
            return None
        return TailCert(horizon, rho,
                        _log_scaled(b, int(scale)) + log_lead + horizon * log_step - log_p)

    return build


def _hit_split(kernel: TransitionKernel, i: int, j: int) -> tuple[float, np.ndarray]:
    """(pi, h): pi = P_i(visit j before returning to i); h[k] = P_k(hit j
    before i) off {i, j}, zero on them, h read-only.  Solved once per pair
    and kept in the kernel's cache.  One column a solve: a two-column solve
    rounds pi differently, so P_k(hit i before j) is the h of the pair
    (j, i), the same single-column solve.  Raises :class:`InvalidInput`
    when the solve finds the system singular, as it is when a closed class
    of the chain avoids both i and j."""
    return kernel._derived.get(("split", i, j), lambda: _solve_split(kernel, i, j))


def _solve_split(kernel: TransitionKernel, i: int, j: int) -> tuple[float, np.ndarray]:
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


def _conditioned(kernel: TransitionKernel, key: tuple, pmf: np.ndarray, alive: float,
                 scale: np.ndarray, q: np.ndarray, p: float) -> PassageLaw:
    """Law conditioned on an event of probability p, from :func:`_propagate`
    output with the operator of ``key``: the event's pmf within the
    horizon, and as tail the probability ``alive`` that the mass still
    alive there ends in the event, both divided by p.  The tail is computed
    directly, never as a difference.  That probability is q . h for some h
    <= 1, so the law's survival is at most the taboo vector's alive mass
    over p, and the operator's certificate (:func:`_tail_cert`) holds for
    it divided by p."""
    log_p = math.log(p)
    return _unscaled_law(pmf / p, scale, _log_scaled(alive, scale[-1]) - log_p,
                         _tail_cert(kernel, key, pmf.size, q, scale[-1], log_p))


def conditioned_return_law(kernel: TransitionKernel, source: StateRef, target: StateRef,
                           horizon: int) -> PassageLaw:
    """Law of the return time of i restricted to excursions that never visit
    j, renormalized (the U law of the return-time decomposition).

    Raises :class:`NoSuchPath` when every return from i passes through j.
    The tail is q_N . h_i / (1 - pi), with q_N the taboo vector at the
    horizon and h_i(k) = P_k(hit i before j).  Its tail certificate is
    that of the taboo operator that kills j, with B = q_N . v / (1 - pi)
    (:func:`_conditioned`).
    """
    i, j = _distinct(kernel, source, target, horizon)
    if not _reaches(kernel, i, i, j):
        raise NoSuchPath(f"every return from {kernel.states[i]!r} visits {kernel.states[j]!r}")
    pi = _hit_split(kernel, i, j)[0]
    h_i = _hit_split(kernel, j, i)[1]
    pmf, _, scale, q = _propagate(kernel, i, horizon, absorb=i, kill=j)
    return _conditioned(kernel, (i, j, None), pmf, q @ h_i, scale, q, 1.0 - pi)


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
    return _conditioned(kernel, (j, i, None), pmf, q @ h_j, scale, q, pi)


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
    return _conditioned(kernel, (i, None, j), pmf, q[:, 1].sum() + q[:, 0] @ h_j, scale, q, pi)


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
    (pa, la, ta), (pb, lb, tb) = a._linear_view(), b._linear_view()
    full = np.convolve(pa, pb)  # support 2..ha+hb
    out = np.zeros(h)
    upper = min(h, full.size + 1)
    out[1:upper] = full[:upper - 1]
    moved = _log_mass_beyond(la, lb, h)
    return PassageLaw._dense(out, log_add(_combined_tail(ta, tb), moved))


def convolve(a, b, *, horizon: int | None = None):
    """Distribution of the sum of two independent passage times.

    Dense x dense and sparse x sparse only (convert explicitly to mix).
    Mass landing beyond ``horizon`` or below ``PRUNE_FLOOR_LOG`` moves to the
    tail.
    """
    if horizon is not None and horizon < 1:
        raise InvalidInput("horizon must be >= 1")
    if not (isinstance(a, PassageLaw) and isinstance(b, PassageLaw)):
        raise InvalidInput("convolve needs two PassageLaw operands")
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
    (pu, _, tu), (pv, _, tv) = u._linear_view(), v._linear_view()
    # beyond an operand's horizon its pmf is unknown: none of it is assigned
    # there, and its survival stays at its tail
    qu = q * _fit(pu, h, 0.0)  # q u_1, ..., q u_h
    x = np.zeros((h + 1, 2), order="F")  # row t: P(C = t+1), P(C > t)
    x[:h, 0] = pi * _fit(pv, h, 0.0)
    x[0, 1] = 1.0
    x[1:, 1] = (pi * _fit(v.survival_array(), h, math.exp(tv))
                + q * _fit(u.survival_array(), h, math.exp(tu)))
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
    if not abs(weights.sum() - 1.0) <= 1e-12:  # a NaN weight sums to NaN
        raise InvalidInput("mixture weights must sum to 1 within 1e-12")
    pairs = [(w, law) for w, law in zip(weights, laws) if w > 0]
    if all(law.is_dense for _, law in pairs):
        h = min(law.horizon for _, law in pairs)
        comp = [law.to_dense(h) for _, law in pairs]
        log_w = np.log(np.array([w for w, _ in pairs]))
        stack = np.stack([c.log_pmf for c in comp]) + log_w[:, None]
        with np.errstate(invalid="ignore"):
            log_pmf = np.logaddexp.reduce(stack, axis=0)
        tails = [w + c.log_tail for w, c in zip(log_w, comp)]
        return PassageLaw._dense_log(log_pmf, logsumexp(tails),
                                     tail_cert=lambda: _mixed_cert(comp, log_w))
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


def _mixed_cert(laws: list[PassageLaw], log_w: np.ndarray) -> TailCert | None:
    """The certificate of a mixture of dense laws of one horizon N with log
    weights ``log_w``, when every law has one: sum_k w_k P(T_k > N + j) <=
    (max rho_k)^j sum_k w_k B_k."""
    certs = [law.tail_cert for law in laws]
    if None in certs:
        return None
    return TailCert(laws[0].horizon, max(c.rho for c in certs),
                    logsumexp([w + c.log_bound for w, c in zip(log_w, certs)]))


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


def law_to_csv(law: PassageLaw, path_or_file) -> None:
    """Write ``n,prob,log_prob`` rows (all of 1..horizon for dense laws,
    atoms for sparse) plus tail/certificate footer rows: ``tail_mass``, then
    the certificate's start, rho and log bound, blank without one."""
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
        writer.writerow(["tail_cert_log_bound", f"{cert.log_bound:.17g}" if cert else "", ""])


def law_from_csv(path_or_file) -> PassageLaw:
    """Inverse of :func:`law_to_csv`.  Contiguous support starting at 1 is
    reconstructed as dense, anything else as sparse.  A file without all
    three certificate rows filled in loads with no certificate; one with
    them is checked like any law's (:meth:`PassageLaw._bears`).  A row
    that does not parse, or a file that is not text, is an
    :class:`InvalidInput`."""
    ns: list[int] = []
    lps: list[float] = []
    log_tail = LOG_ZERO
    cert_n0: int | None = None
    cert_rho: float | None = None
    cert_log_bound: float | None = None
    with _opened(path_or_file, bad="law CSV is malformed") as fh:
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
            elif key == "tail_cert_log_bound":
                cert_log_bound = float(row[1]) if row[1] else None
            else:
                ns.append(int(key))
                lps.append(float(row[2]))
    if not ns:
        raise InvalidInput("law CSV contains no support rows")
    cert = (None if None in (cert_n0, cert_rho, cert_log_bound)
            else TailCert(cert_n0, cert_rho, cert_log_bound))
    ns_arr = np.asarray(ns, dtype=np.int64)
    lp_arr = np.asarray(lps, dtype=float)
    if ns_arr[0] == 1 and np.all(np.diff(ns_arr) == 1):
        return PassageLaw._dense_log(lp_arr, log_tail, tail_cert=cert)
    keep = lp_arr > LOG_ZERO
    return PassageLaw.sparse(AtomicDist(ns_arr[keep], lp_arr[keep], log_tail), tail_cert=cert)
