"""Candidate moment functions and their growth-condition verdicts.

The functions handled here are non-decreasing, unbounded f: {1, 2, ...} ->
(0, inf), evaluated exclusively through log f.  Every recurrent chain has
finite E f(return time) when f meets condition C: some constant K makes
f(x+y) <= K f(x) f(y) everywhere (C_i), and log f(n)/n tends to zero
(C_ii).  Neither half follows from finitely many values of f, so
:func:`classify` decides only from what a function's family knows
analytically.

Built-in families: powers n^p, powers of log(n+2), exponentials e^(d n),
and "burst" functions exp(g) where g is flat except for slope-1 runs on
scheduled windows.  Bursts are the interesting case: g(n)/n still vanishes,
yet the flat/burst contrast makes the submultiplicativity defect grow
without bound.
"""

from __future__ import annotations

import csv
import functools
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .chain import _count, _counts, _opened
from .errors import InvalidInput
from .logspace import _LN2, exp_text

_LN3 = math.log(3.0)


class FunctionKind(str, Enum):
    POWER = "power"
    LOG_POWER = "logpow"
    EXPONENTIAL = "exp"
    BURST = "burst"
    CUSTOM = "custom"


# ---------------------------------------------------------------------------
# burst schedules


@dataclass(frozen=True)
class BurstSchedule:
    """Windows on which the log-moment function g climbs with slope 1.

    ``start_of(i)`` and ``length_of(i)`` give the i-th burst start s_i and
    length u_i (1-based).  The schedule reads each burst once, when a query
    first needs it, and keeps s_i, u_i and u_1 + ... + u_i as exact
    integers; its queries are exact integers too: :meth:`g`, :meth:`burst`,
    :meth:`defect`, :meth:`midpoint` and :meth:`midpoints_upto`, with
    :meth:`extend` to read ahead.  Constraints, checked as each burst is
    read: at construction on every burst of a finite schedule and the
    first 24 of an unbounded one, then on each later burst:

    * s strictly increasing integers, u_i >= 1;
    * u_i <= s_{i+1} - s_i, so each burst ends before the next begins;
    * the lengths u_i eventually increase strictly (proxy for u_i -> inf).

    ``n_bursts`` bounds finite (file-backed) schedules; beyond the last burst
    g stays flat.
    """

    start_of: Callable[[int], int]
    length_of: Callable[[int], int]
    n_bursts: int | None = None
    # the bursts read so far, grown under _lock; _cum[i] = u_1 + ... + u_{i+1}
    _s: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _u: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _cum: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        limit = 24 if self.n_bursts is None else _count("n_bursts", self.n_bursts)
        if limit < 1:
            raise InvalidInput("schedule must contain at least one burst")
        self.extend(limit)
        # u_i -> inf proxy: the checked prefix must end in a strictly
        # increasing run of three (or of all its lengths, if fewer).
        last = self._u[-3:]
        if any(a >= b for a, b in zip(last, last[1:])):
            raise InvalidInput("burst lengths must be strictly increasing toward the end of the prefix")

    def _append_next(self) -> bool:
        i = len(self._s) + 1
        if self.n_bursts is not None and i > self.n_bursts:
            return False
        s_i, u_i = _count(f"s_{i}", self.start_of(i)), _count(f"u_{i}", self.length_of(i))
        if not self._s and s_i < 1:
            raise InvalidInput("burst starts must be >= 1")
        if self._s and s_i <= self._s[-1]:
            raise InvalidInput("burst starts must be strictly increasing")
        if self._s and self._u[-1] > s_i - self._s[-1]:
            raise InvalidInput(f"burst {i - 1} overruns the next start: "
                               f"u={self._u[-1]}, gap={s_i - self._s[-1]}")
        if u_i < 1:
            raise InvalidInput(f"burst length u_{i} = {u_i} must be >= 1")
        self._s.append(s_i)
        self._u.append(u_i)
        self._cum.append((self._cum[-1] if self._cum else 0) + u_i)
        return True

    def extend(self, count: int, start: int = 0) -> bool:
        """Append bursts until there are at least ``count`` >= 1 and the last
        one starts at or after ``start``; False if the schedule ends first."""
        with self._lock:
            while len(self._s) < count or self._s[-1] < start:
                if not self._append_next():
                    return False
        return True

    def g(self, x: int) -> int:
        """Integer value of g at integer x: sum_i min(max(x - s_i, 0), u_i)."""
        if x <= 0:
            return 0
        self.extend(1, x)
        idx = bisect_left(self._s, x)  # number of bursts with s_i < x
        if idx == 0:
            return 0
        last = idx - 1
        return self._cum[last] - self._u[last] + min(x - self._s[last], self._u[last])

    def burst(self, i: int) -> tuple[int, int]:
        if not self.extend(i):
            raise InvalidInput(f"schedule has no burst {i}")
        return self._s[i - 1], self._u[i - 1]

    def defect(self, x: int) -> int:
        """g(2x) - 2 g(x), the submultiplicativity defect of e^g at x = y."""
        return self.g(2 * x) - 2 * self.g(x)

    def midpoint(self, i: int) -> int:
        s_i, u_i = self.burst(i)
        return (s_i + u_i) // 2

    def midpoints_upto(self, limit: int) -> list[int]:
        """The midpoints (s_i + u_i) // 2, in order, up to ``limit``."""
        out = []
        i = 1
        while self.extend(i) and self.midpoint(i) <= limit:
            out.append(self.midpoint(i))
            i += 1
        return out


@functools.cache
def default_burst_schedule() -> BurstSchedule:
    """The reference schedule s_i = i^2 2^i, u_i = i 2^i, one shared object.

    Every midpoint (s_i + u_i)/2 is an integer sitting in a flat region, so
    its defect g(2m_i) - 2 g(m_i) is u_i - sum_{k<i} u_k = 2^(i+1) - 2, since
    sum_{k<i} k 2^k = (i - 2) 2^i + 2, and the peaks of g(n)/n at the burst ends,
    (sum_{k<=i} u_k) / (s_i + u_i), decrease toward zero; tests/test_momentfn.py
    checks all three in exact integers for i <= 200.  :func:`classify`
    recognises the schedule by identity.
    """
    return BurstSchedule(lambda i: i * i << i, lambda i: i << i)


def burst_schedule_from_csv(path) -> BurstSchedule:
    """Load a finite schedule from CSV rows ``i,s_i,u_i`` (1-based, contiguous)."""
    with _opened(path, bad=f"schedule file {str(path)!r} is not text") as fh:
        lines = list(csv.reader(fh))
    rows: list[tuple[int, int, int]] = []
    for raw in lines:
        if not raw or not raw[0].strip():
            continue
        try:
            rows.append((int(raw[0]), int(raw[1]), int(raw[2])))
        except (ValueError, IndexError):
            if not rows:  # tolerate a header line
                continue
            raise InvalidInput(f"bad schedule row: {raw!r}")
    rows.sort()
    if not rows:
        raise InvalidInput("schedule file contains no rows")
    if [i for i, _, _ in rows] != list(range(1, len(rows) + 1)):
        raise InvalidInput("schedule rows must be indexed 1..n without gaps")
    s = [si for _, si, _ in rows]
    u = [ui for _, _, ui in rows]
    return BurstSchedule(lambda i: s[i - 1], lambda i: u[i - 1], n_bursts=len(rows))


# ---------------------------------------------------------------------------
# moment functions


class MomentFunction:
    """A non-decreasing unbounded function on {1, 2, ...} seen through log f.

    Instances are immutable by convention and safe to share; burst-backed
    functions read their schedule, which memoizes its bursts behind a lock.
    """

    def __init__(self, name: str, kind: FunctionKind, log_eval: Callable[[int], float],
                 *, param: float | None = None, table: BurstSchedule | None = None):
        self.name = name
        self.kind = kind
        self.param = param
        self._log_eval = log_eval
        self._table = table

    def __repr__(self):
        return f"MomentFunction({self.name!r})"

    def log_f(self, n: int) -> float:
        return float(self._log_eval(_count("n", n, 1)))

    def log_f_array(self, ns) -> np.ndarray:
        arr = _counts("ns", ns)
        with np.errstate(over="ignore"):  # a log f(n) past the float range is +inf
            if self.kind is FunctionKind.POWER:
                return self.param * np.log(arr.astype(float))
            if self.kind is FunctionKind.LOG_POWER:
                return self.param * np.log(np.log(arr.astype(float) + 2.0))
            if self.kind is FunctionKind.EXPONENTIAL:
                return self.param * arr.astype(float)
        return np.array([self._log_eval(n) for n in arr.ravel().tolist()], dtype=float).reshape(arr.shape)

    @property
    def burst_table(self) -> BurstSchedule:
        if self._table is None:
            raise InvalidInput(f"{self.name} is not a burst function")
        return self._table

    def growth_ratio_bound(self, start: int) -> float | None:
        """An upper bound on f(n+1)/f(n) valid for every n >= start, or None.

        Powers and log-powers have non-increasing ratios so the value at
        ``start`` dominates; exponentials are constant; bursts climb at most
        one unit of log per step.  A bound past the float range is +inf.
        Custom functions carry no bound.
        """
        start = _count("start", start, 1)
        try:
            if self.kind is FunctionKind.POWER:
                return (1.0 + 1.0 / start) ** self.param
            if self.kind is FunctionKind.LOG_POWER:
                return (math.log(start + 3) / math.log(start + 2)) ** self.param
            if self.kind is FunctionKind.EXPONENTIAL:
                return math.exp(self.param)
        except OverflowError:
            return math.inf
        if self.kind is FunctionKind.BURST:
            return math.e
        return None

    def log_submult_certificate(self) -> float | None:
        """log K for a constant K with f(x+y) <= K f(x) f(y) for all x, y >= 1,
        when one is known analytically; None otherwise.  K itself can
        overflow a float: 2^p does from p = 1024 on.

        For f = n^p: x+y <= 2 max(x,y) <= 2xy on integers >= 1, so K = 2^p.
        For f = log(n+2)^q: log(x+y+2) <= (1 + ln2/ln3) log(y+2) for x <= y,
        and log(x+2) >= ln 3, giving K = ((1 + ln2/ln3)/ln3)^q.
        For a finite burst schedule: 0 <= g <= sum u_i, so f <= e^(sum u_i)
        while f(x) f(y) >= 1, giving K = e^(sum u_i).
        """
        if self.kind is FunctionKind.POWER:
            return self.param * _LN2
        if self.kind is FunctionKind.LOG_POWER:
            return self.param * math.log((1.0 + _LN2 / _LN3) / _LN3)
        if self.kind is FunctionKind.BURST and self._table.n_bursts is not None:
            try:  # construction read every burst of a finite schedule
                return float(self._table._cum[-1])
            except OverflowError:  # K exists, but log K is past the float range
                return None
        return None


def power_fn(p: float) -> MomentFunction:
    """f(n) = n^p, log f(n) = p ln n."""
    p = float(p)
    if not 0 < p < math.inf:
        raise InvalidInput(f"power exponent must be positive and finite, got {p}")
    return MomentFunction(f"power:{p:g}", FunctionKind.POWER,
                          lambda n: p * math.log(n), param=p)


def log_power_fn(q: float) -> MomentFunction:
    """f(n) = (ln(n+2))^q, log f(n) = q ln ln(n+2)."""
    q = float(q)
    if not 0 < q < math.inf:
        raise InvalidInput(f"log-power exponent must be positive and finite, got {q}")
    return MomentFunction(f"logpow:{q:g}", FunctionKind.LOG_POWER,
                          lambda n: q * math.log(math.log(n + 2)), param=q)


def exp_fn(delta: float) -> MomentFunction:
    """f(n) = e^(delta n), log f(n) = delta n."""
    delta = float(delta)
    if not 0 < delta < math.inf:
        raise InvalidInput(f"exponential rate must be positive and finite, got {delta}")
    return MomentFunction(f"exp:{delta:g}", FunctionKind.EXPONENTIAL,
                          lambda n: delta * n, param=delta)


def burst_fn(schedule: BurstSchedule, name: str = "burst:custom") -> MomentFunction:
    """f = e^g for the piecewise-linear g driven by ``schedule``; g is exact
    integer arithmetic throughout."""
    return MomentFunction(name, FunctionKind.BURST,
                          lambda n: float(schedule.g(n)), table=schedule)


def custom_fn(name: str, log_eval: Callable[[int], float]) -> MomentFunction:
    """Wrap an arbitrary log f.  No growth bound is registered, so moment
    tail certificates and the classifier stay conservative."""
    return MomentFunction(name, FunctionKind.CUSTOM, log_eval)


def parse_function_spec(spec: str) -> MomentFunction:
    """Parse CLI-style specs: ``power:2``, ``logpow:1``, ``exp:0.1``,
    ``burst:default``, ``burst:file=PATH``."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise InvalidInput(f"bad function spec {spec!r}: expected kind:parameter")
    try:
        if head == "power":
            return power_fn(float(rest))
        if head == "logpow":
            return log_power_fn(float(rest))
        if head == "exp":
            return exp_fn(float(rest))
    except ValueError as exc:
        raise InvalidInput(f"bad function spec {spec!r}: {exc}") from None
    if head == "burst":
        if rest == "default":
            return burst_fn(default_burst_schedule(), name="burst:default")
        if rest.startswith("file="):
            return burst_fn(burst_schedule_from_csv(rest[5:]), name=f"burst:{rest[5:]}")
        raise InvalidInput(f"bad burst spec {spec!r}: use burst:default or burst:file=PATH")
    raise InvalidInput(f"unknown function kind {head!r}")


# ---------------------------------------------------------------------------
# classifier


VERDICT_SATISFIES = "SatisfiesC"
VERDICT_VIOLATES_SUBMULT = "ViolatesC_i"
VERDICT_VIOLATES_GROWTH = "ViolatesC_ii"
VERDICT_INCONCLUSIVE = "Inconclusive"

_WITNESS_EXTENT = 1 << 18  # largest midpoint reported as a witness


@dataclass(frozen=True)
class Classification:
    verdict: str
    detail: str
    witnesses: tuple[tuple[int, int, float], ...] = ()
    rate: float | None = None


def _midpoint_witnesses(table: BurstSchedule) -> tuple[tuple[int, int, float], ...]:
    """(m, m, log f(2m) - 2 log f(m)) at the burst midpoints m <= 2^18 with a
    positive defect, largest first; the defect is exact integer arithmetic."""
    defects = [(m, table.defect(m)) for m in table.midpoints_upto(_WITNESS_EXTENT)]
    return tuple(sorted(((m, m, float(d)) for m, d in defects if d > 0),
                        key=lambda w: (-w[2], w[0])))


def classify(f: MomentFunction) -> Classification:
    """Sort f into SatisfiesC / ViolatesC_i / ViolatesC_ii / Inconclusive.

    Every verdict but Inconclusive rests on what f's family knows
    analytically; f is never scanned.  SatisfiesC needs a constant from
    :meth:`MomentFunction.log_submult_certificate` (powers, log-powers and
    finite burst schedules).  Exponentials e^(d n) violate subexponential
    growth with rate exactly d.  The default burst schedule violates
    submultiplicativity: its midpoint defects are 2^(i+1) - 2, unbounded.
    Any other burst schedule is Inconclusive with its midpoint defects
    attached as evidence, and custom functions are Inconclusive.
    """
    log_k = f.log_submult_certificate()
    if log_k is not None:
        return Classification(
            VERDICT_SATISFIES,
            f"analytic certificate: f(x+y) <= {exp_text(log_k)} f(x) f(y) and log f(n)/n -> 0",
        )
    if f.kind is FunctionKind.EXPONENTIAL:
        return Classification(
            VERDICT_VIOLATES_GROWTH,
            f"analytic certificate: log f(n)/n = {f.param:.12g} for every n",
            rate=f.param,
        )
    if f.kind is FunctionKind.BURST:
        witnesses = _midpoint_witnesses(f.burst_table)
        if f.burst_table is default_burst_schedule():
            return Classification(
                VERDICT_VIOLATES_SUBMULT,
                "analytic certificate: log f(2m_i) - 2 log f(m_i) = 2^(i+1) - 2 "
                "at the i-th midpoint m_i, unbounded in i",
                witnesses=witnesses,
            )
        return Classification(
            VERDICT_INCONCLUSIVE,
            "no analytic certificate for this burst schedule: "
            "the midpoint defects are evidence, not proof",
            witnesses=witnesses,
        )
    return Classification(VERDICT_INCONCLUSIVE, "custom function: no analytic certificate")
