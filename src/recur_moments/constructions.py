"""Executable counterexample constructions.

Two demonstrations, both ending in certified verdicts rather than plots:

* :func:`demo_sharp` builds a burst function f = e^g together with a pair of
  atomic laws whose individual f-moments are small explicit numbers, yet the
  f-moment of an iterated hub return in the matching petal chain crosses any
  threshold: each series term is the probability of an explicit two-petal
  excursion pattern times f of a time that pattern exceeds, so the partial
  sums are certified lower bounds.

* :func:`demo_exponential` shows the same split for f(n) = e^(delta n) on a
  two-state chain: the return moment at one state is a two-term closed form,
  while at the other state the moment series crosses the threshold whenever
  e^delta (1 - p) > 1.

Witness search backs the first demo: pairs (x_k, y_k) where a burst
function beats submultiplicativity by the margin 6 ln k.  Each gain is the
exact defect g(2x) - 2 g(x) at a burst midpoint x; a schedule that ends
first raises :class:`WitnessSearchExhausted` with the partial findings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._atomic import AtomicDist
from .chain import _INT64_MAX, _count, _opened, build_two_state
from .errors import InvalidInput, PreconditionFailed, WitnessSearchExhausted
from .logspace import LOG_ZERO, exp_text, logsumexp
from .momentfn import MomentFunction, burst_fn, default_burst_schedule, exp_fn
from .moments import SeriesVerdict, _check_threshold, f_moment, lower_bound_series
from .passage import PassageLaw, first_passage_law, mixture

__all__ = [
    "Witness", "witness_search", "HeavyTailPair", "heavy_tail_pair",
    "DemoReport", "demo_sharp", "demo_exponential", "write_series_trace",
]


@dataclass(frozen=True)
class Witness:
    """A pair beating submultiplicativity: log f(x+y) - log f(x) - log f(y)
    = log_gain > required."""

    k: int
    x: int
    y: int
    log_gain: float
    required: float

    def to_json_dict(self) -> dict:
        return {"k": self.k, "x": self.x, "y": self.y,
                "log_gain": self.log_gain, "required": self.required}


def witness_search(f: MomentFunction, *, count: int) -> tuple[Witness, ...]:
    """Find ``count`` witnesses of a burst function f with strictly
    increasing x = y, indexed k = 2, 3, ...; witness k must beat 6 ln k, the
    margin that :func:`heavy_tail_pair`'s 1/k^2 weights need.

    The search walks the burst midpoints x = (s_i + u_i) // 2, and each gain
    is :meth:`BurstSchedule.defect`, the exact log f(2x) - 2 log f(x).  Any
    other f is an :class:`InvalidInput`.  A schedule that ends first, or whose
    midpoints leave the int64 range, raises
    :class:`WitnessSearchExhausted` carrying the witnesses found so far.
    """
    count = _count("count", count, 1)
    table = f.burst_table
    found: list[Witness] = []
    i = 0
    for k in range(2, count + 2):
        need = 6.0 * math.log(k)
        while True:
            i += 1
            if not table.extend(i):
                raise WitnessSearchExhausted(
                    f"burst schedule ends before a defect above {need:.6g} for k={k}",
                    found)
            x = table.midpoint(i)
            if x > _INT64_MAX:
                raise WitnessSearchExhausted(
                    f"burst midpoints left the int64 range at k={k}", found)
            gain = table.defect(x)
            if gain > need and (not found or x > found[-1].x):
                break
        found.append(Witness(k, x, x, float(gain), need))
    return tuple(found)


# ---------------------------------------------------------------------------
# heavy-tail pair


@dataclass(frozen=True)
class HeavyTailPair:
    """Atomic laws U, V with exactly computable finite f-moments, built so
    the convolution's f-moment blows up along the witness diagonal.  As
    :func:`heavy_tail_pair` builds them, V is U."""

    f_name: str
    witnesses: tuple[Witness, ...]
    u: AtomicDist
    v: AtomicDist
    log_ef_u: float
    log_ef_v: float


def heavy_tail_pair(f: MomentFunction, *, k_max: int) -> HeavyTailPair:
    """Build the pair for a burst function f: atoms at witness points x_k
    of :func:`witness_search`, with weights proportional to 1 / (f(x_k) k^2)
    for k = 2..k_max.  Every witness has y_k = x_k, so U and V are one law,
    built once.

    Its f-moment, :func:`f_moment` of a complete sparse law, is a
    normalized sum of 1/k^2 terms, finite and exact, while at matched atoms
    f(x_k + y_k) > e^(6 ln k) f(x_k) f(y_k), which outruns the k^-4 weight.
    Needs k_max >= 3 so the pair rests on at least two witnesses.
    """
    k_max = _count("k_max", k_max)
    if k_max < 3:
        raise InvalidInput("k_max must be >= 3 (at least two witnesses)")
    ws = witness_search(f, count=k_max - 1)
    pts = np.array([w.x for w in ws], dtype=np.int64)
    raw = -f.log_f_array(pts) - 2.0 * np.log(np.array([w.k for w in ws], dtype=float))
    u = AtomicDist(pts, raw - logsumexp(raw), LOG_ZERO)
    log_ef = float(f_moment(PassageLaw.sparse(u), f).log_partial_sum)
    return HeavyTailPair(f.name, ws, u, u, log_ef, log_ef)


# ---------------------------------------------------------------------------
# demo reports


@dataclass(frozen=True)
class DemoReport:
    """Outcome of a demonstration: exact finite sides, a certified
    lower-bound series on the divergent side, and a verdict."""

    name: str
    succeeded: bool
    log_threshold: float
    params: dict
    finite_side: dict
    series: SeriesVerdict
    witnesses: tuple[Witness, ...] = ()
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "succeeded": self.succeeded,
            "log_threshold": float(self.log_threshold),
            "params": dict(self.params),
            "finite_side": {k: float(v) for k, v in self.finite_side.items()},
            "series": {
                "crossed": self.series.crossed,
                "log_partial": float(self.series.log_partial),
                "n_terms": self.series.n_terms,
                "crossing_index": self.series.crossing_index,
            },
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "notes": self.notes,
        }


def write_series_trace(report: DemoReport, path_or_file) -> None:
    """CSV of the divergence series: one row (k, log_term, log_partial) per
    term consumed."""
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "log_term", "log_partial"])
        for k, lt, lp in report.series.trace:
            writer.writerow([k, f"{lt:.17g}", f"{lp:.17g}"])


def demo_sharp(*, k_max: int = 8, p: float = 0.5,
               log_threshold: float = math.log(1e6)) -> DemoReport:
    """Burst-function counterexample, end to end.

    Builds f = e^g from the default burst schedule, finds witnesses, forms
    the pair, and evaluates both sides on the petal chain with exit
    probability ``p``: the hub-return f-moment (:func:`f_moment` of the
    :func:`mixture` of 2 steps and either loop) is exact and small, while the
    series over two-petal excursion patterns (complete petal k of one loop,
    one exit excursion, traverse petal k of the other loop; probability
    p ((1-p)/2)^2 P_U(x_k) P_V(y_k), elapsed time > x_k + y_k) certifies a
    lower bound on the f-moment of the third hub return that crosses the
    threshold.
    """
    if not 0.0 < p < 1.0:
        raise InvalidInput(f"exit probability must be in (0, 1), got {p}")
    _check_threshold(log_threshold)  # before the witness search, not after it
    f = burst_fn(default_burst_schedule(), "burst:default")
    pair = heavy_tail_pair(f, k_max=k_max)
    const = math.log(p) + 2.0 * math.log((1.0 - p) / 2.0)

    def terms():
        for w, lpu, lpv in zip(pair.witnesses, pair.u.log_probs, pair.v.log_probs):
            yield (w.k, f.log_f(w.x + w.y) + float(lpu) + float(lpv) + const)

    series = lower_bound_series(terms(), log_threshold=log_threshold,
                                max_terms=len(pair.witnesses))
    q = (1.0 - p) / 2.0
    hub = mixture([PassageLaw.point(2), PassageLaw.sparse(pair.u), PassageLaw.sparse(pair.v)],
                  [p, q, q])
    finite = {
        "log_ef_u": pair.log_ef_u,
        "log_ef_v": pair.log_ef_v,
        "log_ef_hub_return": f_moment(hub, f).log_partial_sum,
    }
    return DemoReport(
        name="sharp",
        succeeded=series.crossed,
        log_threshold=log_threshold,
        params={"k_max": pair.witnesses[-1].k, "p": p, "function": f.name},  # k is k_max, an int
        finite_side=finite,
        series=series,
        witnesses=pair.witnesses,
        notes="single-return f-moment is exact and finite; the series is a "
              "certified lower bound on the third-return f-moment",
    )


def demo_exponential(delta: float = 0.5, p: float = 0.25, *,
                     log_threshold: float = math.log(1e6),
                     max_terms: int = 10_000) -> DemoReport:
    """Exponential moment split on the two-state chain.

    State 0 holds with probability 1-p and hops to state 1 with probability
    p; state 1 always hops back.  E e^(delta T_00) = (1-p) e^delta +
    p e^(2 delta) exactly (also recomputed from the propagated law as a
    cross-check), while the series for E e^(delta T_11),
    sum_{k>=2} e^(delta k) p (1-p)^(k-2), has ratio e^delta (1-p); the
    demonstration requires that ratio to exceed 1 and certifies the
    threshold crossing by partial sums.
    """
    if not 0.0 < p < 1.0:
        raise InvalidInput(f"p must be in (0, 1), got {p}")
    if not delta > 0.0:
        raise InvalidInput(f"delta must be positive, got {delta}")
    log_ratio = delta + math.log1p(-p)
    if not log_ratio > 0.0:
        raise PreconditionFailed(
            f"need exp(delta) (1 - p) > 1 for divergence; got "
            f"exp({delta:g}) * {1 - p:g} = {math.exp(log_ratio):.6g}")
    f = exp_fn(delta)
    closed = logsumexp([math.log1p(-p) + delta, math.log(p) + 2.0 * delta])
    kernel = build_two_state(p)
    law = first_passage_law(kernel, 0, 0, horizon=8)
    est = f_moment(law, f)
    log_p = math.log(p)
    log_q = math.log1p(-p)

    def terms():
        k = 2
        while True:
            yield (k, delta * k + log_p + (k - 2) * log_q)
            k += 1

    series = lower_bound_series(terms(), log_threshold=log_threshold,
                                max_terms=max_terms)
    finite = {
        "log_ef_return_closed_form": float(closed),
        "log_ef_return_from_law": float(est.log_partial_sum),
    }
    return DemoReport(
        name="exponential",
        succeeded=series.crossed,
        log_threshold=log_threshold,
        params={"delta": delta, "p": p, "function": f.name},
        finite_side=finite,
        series=series,
        notes="return moment at the holding state is a two-term closed form; "
              "the series at the bouncing state is a certified lower bound "
              f"with term ratio exp(delta)(1-p) = {exp_text(log_ratio)}",
    )
