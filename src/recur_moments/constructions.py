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
function beats submultiplicativity by the margin 6 ln k.  The witnesses are
exact, at flat-region midpoints; a schedule that ends first raises
:class:`WitnessSearchExhausted` with the partial findings attached.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from ._atomic import AtomicDist
from .chain import _opened, build_two_state
from .errors import InvalidInput, PreconditionFailed, WitnessSearchExhausted
from .logspace import LOG_ZERO, exp_text, logsumexp
from .momentfn import MomentFunction, burst_fn, default_burst_schedule, exp_fn
from .moments import SeriesVerdict, _check_threshold, f_moment, lower_bound_series
from .passage import first_passage_law

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
    increasing x, indexed k = 2, 3, ...; witness k must beat 6 ln k, the
    margin that :func:`heavy_tail_pair`'s 1/k^2 weights need.

    The search is exact: the defect at the midpoint of the i-th flat region
    equals the integer margin u_i - sum_{j<i} u_j, so it just walks the
    schedule.  Any other f is an :class:`InvalidInput`.  A schedule that
    ends first, or whose midpoints leave the int64 range, raises
    :class:`WitnessSearchExhausted` carrying the witnesses found so far.
    """
    if count < 1:
        raise InvalidInput("count must be >= 1")
    table = f.burst_table
    found: list[Witness] = []
    i = 0
    for k in range(2, count + 2):
        need = 6.0 * math.log(k)
        i += 1
        while True:
            if not table.extend(i):
                raise WitnessSearchExhausted(
                    f"burst schedule ends before a margin above {need:.6g} for k={k}",
                    found)
            x = table.midpoint(i)
            if x > np.iinfo(np.int64).max:
                raise WitnessSearchExhausted(
                    f"burst midpoints left the int64 range at k={k}", found)
            if table.margin(i) > need and (not found or x > found[-1].x):
                break
            i += 1
        found.append(Witness(k, x, x, float(table.margin(i)), need))
    return tuple(found)


# ---------------------------------------------------------------------------
# heavy-tail pair


@dataclass(frozen=True)
class HeavyTailPair:
    """Atomic laws U, V with exactly computable finite f-moments, built so
    the convolution's f-moment blows up along the witness diagonal."""

    f_name: str
    witnesses: tuple[Witness, ...]
    u: AtomicDist
    v: AtomicDist
    log_ef_u: float
    log_ef_v: float


def _witness_side(f: MomentFunction, points, ks) -> AtomicDist:
    pts = np.asarray(points, dtype=np.int64)
    raw = -f.log_f_array(pts) - 2.0 * np.log(np.asarray(ks, dtype=float))
    return AtomicDist(pts, raw - logsumexp(raw), LOG_ZERO)


def heavy_tail_pair(f: MomentFunction, *, k_max: int) -> HeavyTailPair:
    """Build the pair for a burst function f: atoms at witness points x_k
    (resp. y_k) of :func:`witness_search`, with weights proportional to
    1 / (f(x_k) k^2) for k = 2..k_max.

    Each marginal f-moment is then a normalized sum of 1/k^2 terms, finite
    and exactly computable, while at matched atoms the convolution sees
    f(x_k + y_k) > e^(6 ln k) f(x_k) f(y_k), which outruns the k^-4 weight.
    Needs k_max >= 3 so the pair rests on at least two witnesses.
    """
    if k_max < 3:
        raise InvalidInput("k_max must be >= 3 (at least two witnesses)")
    ws = witness_search(f, count=k_max - 1)
    ks = [w.k for w in ws]
    u = _witness_side(f, [w.x for w in ws], ks)
    v = _witness_side(f, [w.y for w in ws], ks)
    log_ef_u = logsumexp(f.log_f_array(u.atoms) + u.log_probs)
    log_ef_v = logsumexp(f.log_f_array(v.atoms) + v.log_probs)
    return HeavyTailPair(f.name, ws, u, v, float(log_ef_u), float(log_ef_v))


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def write_series_trace(report: DemoReport, path_or_file) -> None:
    """CSV of the divergence series: one row (k, log_term, log_partial) per
    term consumed."""
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "log_term", "log_partial"])
        for k, lt, lp in report.series.trace:
            writer.writerow([k, f"{lt:.17g}", f"{lp:.17g}"])


def _hub_return_log_ef(f: MomentFunction, pair: HeavyTailPair, p: float) -> float:
    """Exact log E f(hub return) for the petal chain built from the pair:
    the return takes 2 steps with probability p (out along the exit edge and
    straight back), else a loop length drawn evenly from the two sides."""
    weights: dict[int, float] = {2: math.log(p)}
    half = math.log((1.0 - p) / 2.0)
    for dist in (pair.u, pair.v):
        for v, lp in zip(dist.atoms, dist.log_probs):
            add = half + float(lp)
            key = int(v)
            weights[key] = np.logaddexp(weights[key], add) if key in weights else add
    values = sorted(weights)
    return float(logsumexp([f.log_f(v) + weights[v] for v in values]))


def demo_sharp(*, k_max: int = 8, p: float = 0.5,
               log_threshold: float = math.log(1e6)) -> DemoReport:
    """Burst-function counterexample, end to end.

    Builds f = e^g from the default burst schedule, finds witnesses, forms
    the pair, and evaluates both sides on the petal chain with exit
    probability ``p``: the hub-return f-moment is exact and small, while the
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
    finite = {
        "log_ef_u": pair.log_ef_u,
        "log_ef_v": pair.log_ef_v,
        "log_ef_hub_return": _hub_return_log_ef(f, pair, p),
    }
    return DemoReport(
        name="sharp",
        succeeded=series.crossed,
        log_threshold=log_threshold,
        params={"k_max": k_max, "p": p, "function": f.name},
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
