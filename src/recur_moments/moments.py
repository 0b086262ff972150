"""Generalized moments E f(T) of passage-time laws, with certified verdicts.

The moment of a law computed to horizon N splits into a partial sum over the
computed support and a tail contribution.  The partial sum is always exact
(log-space); it reads the true log of every step n <= N, those below the
float range included, so only the mass beyond N, P(T > N), is left.  The
tail is bounded only when two certificates line up:

* the law carries a tail certificate (N, rho, B): P(T > N+k) <= rho^k B for
  every k >= 0, proven for the taboo operator the law was stepped with, not
  read off the computed points (``passage._tail_vector``), and
* the moment function carries a growth ratio bound gamma >= sup_{n >= N}
  f(n+1)/f(n).

Then sum_{k>=1} f(N+k) P(T = N+k) <= f(N) B gamma / (1 - gamma rho)
whenever gamma rho < 1, since f(N+k) <= f(N) gamma^k and P(T = N+k) <=
P(T > N+k-1) <= rho^(k-1) B.  Growth ratio bounds are registered for
the power, log-power, exponential and burst families only; without a tail
certificate and such a bound the verdict is ``inconclusive``, never a guess.
``diverged`` means the partial sum is +inf, or that no tail bound holds
and the partial sum alone crossed the divergence threshold ln 1e6 + log
f(1): a certified lower-bound crossing, not a claim that the series is
infinite.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .chain import _INT64_MAX, _count
from .errors import InvalidInput
from .logspace import LOG_ZERO, log_add, log_sub, logsumexp
from .momentfn import FunctionKind, MomentFunction
from .passage import PassageLaw

__all__ = [
    "MomentEstimate", "f_moment",
    "SeriesVerdict", "lower_bound_series",
    "MCMomentEstimate", "mc_f_moment",
    "VERDICT_CONVERGED", "VERDICT_DIVERGED", "VERDICT_INCONCLUSIVE",
]

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_INCONCLUSIVE = "inconclusive"

#: The divergence threshold of :func:`f_moment` on the log partial sum,
#: relative to log f(1).
_LOG_THRESHOLD = math.log(1e6)

#: Samples per Monte Carlo chunk, each drawn from its own stream spawned
#: from the seed; changing it changes every result for a given seed.
_MC_CHUNK = 65536


@dataclass(frozen=True)
class MomentEstimate:
    """Outcome of a certified moment computation.

    ``log_partial_sum`` is exact over the computed support (n <= N);
    ``log_tail_bound`` bounds the remainder when available (None otherwise;
    -inf for complete laws).  For a ``converged`` verdict the true log-moment
    lies in [log_partial_sum, logaddexp(log_partial_sum, log_tail_bound)].
    """

    log_partial_sum: float
    log_tail_bound: float | None
    verdict: str
    N: int
    gamma: float | None = None
    rho: float | None = None

    @property
    def log_upper_bound(self) -> float | None:
        if self.verdict != VERDICT_CONVERGED:
            return None
        if self.log_tail_bound is None or self.log_tail_bound == LOG_ZERO:
            return self.log_partial_sum
        return log_add(self.log_partial_sum, self.log_tail_bound)

    def to_json_dict(self) -> dict:
        return {
            "log_partial_sum": float(self.log_partial_sum),
            "log_tail_bound": None if self.log_tail_bound is None else float(self.log_tail_bound),
            "verdict": self.verdict,
            "N": int(self.N),
        }


_log_n = np.zeros(0)  # log 1, ..., log N for the largest N asked for so far, read-only


def _log_f_range(f: MomentFunction, n: int) -> np.ndarray:
    """log f(1), ..., log f(n), bit for bit ``f.log_f_array(np.arange(1, n +
    1))``; a power function's is p times a log table kept for the next
    call, which grows to the largest n asked for."""
    if f.kind is not FunctionKind.POWER:
        return f.log_f_array(np.arange(1, n + 1))
    global _log_n
    table = _log_n
    if table.size < n:
        table = np.log(np.arange(1, n + 1, dtype=float))
        table.flags.writeable = False
        _log_n = table
    # a log f(n) past the float range is +inf, which needs |p| >= 1e300 (log n < 44)
    with np.errstate(over="ignore") if not abs(f.param) < 1e300 else nullcontext():
        return f.param * table[:n]


def _log_partial_sum(law: PassageLaw, f: MomentFunction) -> float:
    if law.is_dense:
        log_pmf = law.log_pmf
        if log_pmf[log_pmf.argmin()] > LOG_ZERO:
            return logsumexp(_log_f_range(f, log_pmf.size) + log_pmf)
        mask = log_pmf > LOG_ZERO
        ns = np.nonzero(mask)[0] + 1
        return logsumexp(f.log_f_array(ns) + log_pmf[mask])
    atoms = law.atomic
    return logsumexp(f.log_f_array(atoms.atoms) + atoms.log_probs)


def _check_threshold(log_threshold: float) -> None:
    if not math.isfinite(log_threshold):
        raise InvalidInput("divergence threshold must be finite")


def f_moment(law: PassageLaw, f: MomentFunction) -> MomentEstimate:
    """Certified estimate of E f(T) for a passage-time law.

    Verdict order: ``diverged`` if the exact partial sum is +inf;
    ``converged`` if the law is complete or a valid tail bound exists (a
    tail certificate and f's registered growth ratio bound with
    gamma * rho < 1), however large the partial sum; ``diverged`` if the
    partial sum exceeds f(1) * 1e6 (:data:`_LOG_THRESHOLD`), so rescaling f
    does not change verdicts; otherwise ``inconclusive``.  Functions
    without a registered bound (:func:`custom_fn`) never get a tail bound.
    """
    n_cutoff = law.horizon
    log_partial, log_tail = _log_partial_sum(law, f), law.log_tail
    if log_partial == math.inf:
        return MomentEstimate(log_partial, None, VERDICT_DIVERGED, n_cutoff)
    if log_tail == LOG_ZERO:
        return MomentEstimate(log_partial, LOG_ZERO, VERDICT_CONVERGED, n_cutoff)
    cert = law.tail_cert
    gamma = None if cert is None else f.growth_ratio_bound(n_cutoff)
    if gamma is not None and gamma * cert.rho < 1.0:
        bound = (f.log_f(n_cutoff) + cert.log_bound + math.log(gamma)
                 - math.log1p(-gamma * cert.rho))
        return MomentEstimate(log_partial, bound, VERDICT_CONVERGED, n_cutoff,
                              gamma=gamma, rho=cert.rho)
    if log_partial > _LOG_THRESHOLD + f.log_f(1):
        return MomentEstimate(log_partial, None, VERDICT_DIVERGED, n_cutoff)
    return MomentEstimate(log_partial, None, VERDICT_INCONCLUSIVE, n_cutoff,
                          gamma=gamma, rho=None if gamma is None else cert.rho)


# ---------------------------------------------------------------------------
# divergence by explicit lower-bound series


@dataclass(frozen=True)
class SeriesVerdict:
    """Partial sums of a nonnegative series given by log-terms.

    ``crossed`` is a certified statement: the finitely many terms summed so
    far already exceed exp(log_threshold).  A False value only means the
    crossing was not reached within ``n_terms`` terms.
    """

    crossed: bool
    log_partial: float
    log_threshold: float
    n_terms: int
    crossing_index: int | None
    trace: tuple[tuple[int, float, float], ...]


def lower_bound_series(log_terms, *, log_threshold: float,
                       max_terms: int = 10_000) -> SeriesVerdict:
    """Accumulate log-space terms until the partial sum crosses the
    threshold or the term budget runs out.

    ``log_terms`` yields (index, log_term) pairs; the trace records
    (index, log_term, log_partial_after) per term consumed.
    """
    _check_threshold(log_threshold)
    max_terms = _count("max_terms", max_terms, 1)
    log_partial = LOG_ZERO
    trace: list[tuple[int, float, float]] = []
    crossing: int | None = None
    count = 0
    for k, lt in log_terms:
        k, lt = _count("term index", k), float(lt)
        log_partial = log_add(log_partial, lt)
        trace.append((k, lt, log_partial))
        count += 1
        if log_partial > log_threshold:
            crossing = k
            break
        if count >= max_terms:
            break
    return SeriesVerdict(crossed=crossing is not None, log_partial=log_partial,
                         log_threshold=log_threshold, n_terms=count,
                         crossing_index=crossing, trace=tuple(trace))


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class MCMomentEstimate:
    """Sample mean of f(min(T, cap)) in log space.

    For nondecreasing f this is a lower-bound estimator of E f(T): censored
    trajectories contribute f(cap) <= f(T).  ``se_log`` is the delta-method
    standard error of the log-mean.
    """

    n_samples: int
    n_censored: int
    cap: int
    log_mean: float
    se_log: float

    @property
    def mean(self) -> float:
        return math.exp(self.log_mean)


def mc_f_moment(sampler, f: MomentFunction, *, n_samples: int, cap: int,
                seed: int) -> MCMomentEstimate:
    """Monte Carlo estimate of E f(T) from a trajectory sampler.

    ``sampler(n, cap, rng)`` must return (times, censored): passage times as
    int64 (cap where censored) and the censoring mask.  Chunk k of the
    fixed-size chunks draws from ``SeedSequence(seed, spawn_key=(k,))``, the
    k-th child ``spawn`` gives, made when the loop reaches it; chunks are
    combined in order, so results are byte-identical for a given seed.
    """
    n_samples = _count("n_samples", n_samples, 2, _INT64_MAX)  # times and counts are int64
    cap, seed = _count("cap", cap, 1, _INT64_MAX), _count("seed", seed, 0)
    log_s1, log_s2, n_cens = LOG_ZERO, LOG_ZERO, 0
    for k in range((n_samples + _MC_CHUNK - 1) // _MC_CHUNK):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        times, censored = sampler(min(_MC_CHUNK, n_samples - k * _MC_CHUNK), cap, rng)
        lf = f.log_f_array(times)
        log_s1 = log_add(log_s1, logsumexp(lf))
        log_s2 = log_add(log_s2, logsumexp(2.0 * lf))
        n_cens += int(np.count_nonzero(censored))
    log_n = math.log(n_samples)
    log_mean = log_s1 - log_n
    log_m2 = log_s2 - log_n
    if log_m2 > 2.0 * log_mean:
        # unbiased variance, then se(log m) ~ se(m) / m
        log_var = log_sub(log_m2, 2.0 * log_mean) + math.log(n_samples / (n_samples - 1))
        se_log = math.exp(0.5 * log_var - 0.5 * log_n - log_mean)
    else:
        se_log = 0.0
    return MCMomentEstimate(n_samples=n_samples, n_censored=n_cens, cap=cap,
                            log_mean=log_mean, se_log=se_log)
