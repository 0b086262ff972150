"""Candidate moment functions and executable growth-condition checks.

The functions handled here are non-decreasing, unbounded f: {1, 2, ...} ->
(0, inf), evaluated exclusively through log f.  Two diagnostics matter for
deciding whether every recurrent chain has finite E f(return time):

* a submultiplicativity scan over integer grids: how large
  log f(x+y) - log f(x) - log f(y) gets;
* a growth profile: the decay of log f(n) / n.

A function passes when some constant K makes f(x+y) <= K f(x) f(y) everywhere
and log f(n)/n tends to zero.  Built-in families: powers n^p, powers of
log(n+2), exponentials e^(d n), and "burst" functions exp(g) where g is flat
except for slope-1 runs on scheduled windows.  Bursts are the interesting
case: g(n)/n still vanishes, yet the flat/burst contrast makes the
submultiplicativity defect grow without bound.
"""

from __future__ import annotations

import csv
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidInput

_LN2 = math.log(2.0)
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
    length u_i (1-based).  Constraints, checked at construction on every
    burst of a finite schedule and on the first 24 of an unbounded one, and
    incrementally as the schedule is consumed:

    * s strictly increasing integers, u_i >= 1;
    * u_i <= s_{i+1} - s_i, so each burst ends before the next begins;
    * the lengths u_i eventually increase strictly (proxy for u_i -> inf).

    ``n_bursts`` bounds finite (file-backed) schedules; beyond the last burst
    g stays flat.
    """

    start_of: Callable[[int], int]
    length_of: Callable[[int], int]
    n_bursts: int | None = None

    def __post_init__(self):
        limit = 24 if self.n_bursts is None else self.n_bursts
        if limit < 1:
            raise InvalidInput("schedule must contain at least one burst")
        s = [int(self.start_of(i)) for i in range(1, limit + 1)]
        u = [int(self.length_of(i)) for i in range(1, limit + 1)]
        if s[0] < 1:
            raise InvalidInput("burst starts must be >= 1")
        for i in range(limit):
            if u[i] < 1:
                raise InvalidInput(f"burst length u_{i + 1} = {u[i]} must be >= 1")
            if i + 1 < limit:
                if s[i + 1] <= s[i]:
                    raise InvalidInput("burst starts must be strictly increasing")
                if u[i] > s[i + 1] - s[i]:
                    raise InvalidInput(
                        f"burst {i + 1} overruns the next start: u={u[i]}, gap={s[i + 1] - s[i]}"
                    )
        # u_i -> inf proxy: the checked prefix must end in a strictly
        # increasing run.
        run = 1
        for i in range(limit - 1, 0, -1):
            if u[i] > u[i - 1]:
                run += 1
            else:
                break
        if run < min(3, limit):
            raise InvalidInput("burst lengths must be strictly increasing toward the end of the prefix")


def default_burst_schedule() -> BurstSchedule:
    """The reference schedule s_i = i^2 2^i, u_i = i 2^i.

    Verified at construction: the window constraints hold, every midpoint
    (s_i + u_i)/2 is an integer sitting in a flat region, the defect margins
    u_i - sum_{k<i} u_k grow strictly, and the profile peaks
    (sum_{k<=i} u_k) / (s_i + u_i) decrease toward zero.
    """
    sched = BurstSchedule(lambda i: i * i * (1 << i), lambda i: i << i)
    s = [i * i * (1 << i) for i in range(1, 21)]
    u = [i << i for i in range(1, 21)]
    cum = np.cumsum(u)
    margins = [u[0]] + [u[i] - int(cum[i - 1]) for i in range(1, 20)]
    peaks = [cum[i] / (s[i] + u[i]) for i in range(20)]
    for i in range(20):
        if (s[i] + u[i]) % 2:
            raise AssertionError("midpoint not integral")
        mid = (s[i] + u[i]) // 2
        if i > 0 and not (s[i - 1] + u[i - 1] <= mid <= s[i]):
            raise AssertionError("midpoint not in the flat region")
    if not all(margins[i] < margins[i + 1] for i in range(19)):
        raise AssertionError("margins must increase strictly")
    if not all(peaks[i] > peaks[i + 1] for i in range(1, 19)):
        raise AssertionError("profile peaks must decrease")
    return sched


def burst_schedule_from_csv(path) -> BurstSchedule:
    """Load a finite schedule from CSV rows ``i,s_i,u_i`` (1-based, contiguous)."""
    rows: list[tuple[int, int, int]] = []
    with open(path, newline="") as fh:
        for raw in csv.reader(fh):
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


class _BurstTable:
    """Lazily grown (s_i, u_i) arrays with exact integer evaluation of g."""

    def __init__(self, schedule: BurstSchedule):
        self._sched = schedule
        self._s: list[int] = []
        self._u: list[int] = []
        self._cum: list[int] = []  # cum[i] = u_1 + ... + u_{i+1}
        self._lock = threading.Lock()

    def _append_next(self) -> bool:
        i = len(self._s) + 1
        if self._sched.n_bursts is not None and i > self._sched.n_bursts:
            return False
        s_i = int(self._sched.start_of(i))
        u_i = int(self._sched.length_of(i))
        if self._s:
            if s_i <= self._s[-1]:
                raise InvalidInput("burst starts must be strictly increasing")
            if self._u[-1] > s_i - self._s[-1]:
                raise InvalidInput(f"burst {i - 1} overruns the next start")
        if u_i < 1 or s_i < 1:
            raise InvalidInput("burst parameters must be positive")
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

    def margin(self, i: int) -> int:
        """u_i - sum_{k<i} u_k, the submultiplicativity defect achieved at the
        i-th midpoint (exact integer)."""
        s_i, u_i = self.burst(i)
        return u_i - (self._cum[i - 2] if i >= 2 else 0)

    def midpoint(self, i: int) -> int:
        s_i, u_i = self.burst(i)
        return (s_i + u_i) // 2

    def ends_upto(self, limit: int) -> list[int]:
        """The burst ends s_i + u_i, in order, up to ``limit``."""
        out = []
        i = 1
        while self.extend(i):
            end = self._s[i - 1] + self._u[i - 1]
            if end > limit:
                break
            out.append(end)
            i += 1
        return out


# ---------------------------------------------------------------------------
# moment functions


class MomentFunction:
    """A non-decreasing unbounded function on {1, 2, ...} seen through log f.

    Instances are immutable by convention and safe to share; burst-backed
    functions memoize their schedule behind a lock.
    """

    def __init__(self, name: str, kind: FunctionKind, log_eval: Callable[[int], float],
                 *, param: float | None = None, table: _BurstTable | None = None):
        self.name = name
        self.kind = kind
        self.param = param
        self._log_eval = log_eval
        self._table = table

    def __repr__(self):
        return f"MomentFunction({self.name!r})"

    def log_f(self, n: int) -> float:
        if n < 1:
            raise InvalidInput(f"moment functions are defined for n >= 1, got {n}")
        return float(self._log_eval(int(n)))

    def log_f_array(self, ns) -> np.ndarray:
        arr = np.asarray(ns)
        if arr.size and arr.min() < 1:
            raise InvalidInput("moment functions are defined for n >= 1")
        if self.kind is FunctionKind.POWER:
            return self.param * np.log(arr.astype(float))
        if self.kind is FunctionKind.LOG_POWER:
            return self.param * np.log(np.log(arr.astype(float) + 2.0))
        if self.kind is FunctionKind.EXPONENTIAL:
            return self.param * arr.astype(float)
        return np.array([self._log_eval(int(n)) for n in arr.ravel()], dtype=float).reshape(arr.shape)

    def burst_g(self, n: int) -> int:
        """Exact integer g(n) for burst functions (f = e^g)."""
        if self._table is None:
            raise InvalidInput(f"{self.name} is not a burst function")
        return self._table.g(int(n))

    @property
    def burst_table(self) -> _BurstTable:
        if self._table is None:
            raise InvalidInput(f"{self.name} is not a burst function")
        return self._table

    def growth_ratio_bound(self, start: int) -> float | None:
        """An upper bound on f(n+1)/f(n) valid for every n >= start, or None.

        Powers and log-powers have non-increasing ratios so the value at
        ``start`` dominates; exponentials are constant; bursts climb at most
        one unit of log per step.  Custom functions carry no bound.
        """
        if start < 1:
            raise InvalidInput("start must be >= 1")
        if self.kind is FunctionKind.POWER:
            return (1.0 + 1.0 / start) ** self.param
        if self.kind is FunctionKind.LOG_POWER:
            return (math.log(start + 3) / math.log(start + 2)) ** self.param
        if self.kind is FunctionKind.EXPONENTIAL:
            return math.exp(self.param)
        if self.kind is FunctionKind.BURST:
            return math.e
        return None

    def submult_certificate(self) -> float | None:
        """A constant K with f(x+y) <= K f(x) f(y) for all x, y >= 1, when
        one is known analytically; None otherwise.

        For f = n^p: x+y <= 2 max(x,y) <= 2xy on integers >= 1, so K = 2^p.
        For f = log(n+2)^q: log(x+y+2) <= (1 + ln2/ln3) log(y+2) for x <= y,
        and log(x+2) >= ln 3, giving K = ((1 + ln2/ln3)/ln3)^q.
        """
        if self.kind is FunctionKind.POWER:
            return 2.0 ** self.param
        if self.kind is FunctionKind.LOG_POWER:
            return ((1.0 + _LN2 / _LN3) / _LN3) ** self.param
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
    table = _BurstTable(schedule)
    return MomentFunction(name, FunctionKind.BURST,
                          lambda n: float(table.g(n)), table=table)


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
# submultiplicativity scan


@dataclass(frozen=True)
class SubmultReport:
    """Result of scanning log f(x+y) - log f(x) - log f(y) over a grid.

    ``log_grid_k`` is the log of the smallest K satisfying the
    submultiplicativity bound on the scanned pairs; ``violation_witnesses``
    lists the pairs with positive defect, largest first.
    """

    log_grid_k: float
    violation_witnesses: tuple[tuple[int, int, float], ...]

    @property
    def grid_k(self) -> float:
        return math.exp(self.log_grid_k)


def submult_scan(f: MomentFunction, xs: Iterable[int], ys: Iterable[int]) -> SubmultReport:
    """Evaluate the submultiplicativity defect on xs x ys, keeping the 64
    largest positive defects as witnesses.

    The defect is computed as log f(x+y) - (log f(x) + log f(y)), which makes
    it exactly symmetric under swapping x and y.  For burst functions the
    grids are augmented with the analytic witness midpoints (s_i + u_i)/2 up
    to the grid maximum, since the defect peaks there.
    """
    xs = np.unique(np.asarray(list(xs), dtype=np.int64))
    ys = np.unique(np.asarray(list(ys), dtype=np.int64))
    if xs.size == 0 or ys.size == 0:
        raise InvalidInput("scan grids must be nonempty")
    if xs[0] < 1 or ys[0] < 1:
        raise InvalidInput("scan grids must contain integers >= 1")
    if f.kind is FunctionKind.BURST:
        top = int(max(xs.max(), ys.max()))
        # a midpoint (s_i + u_i) // 2 is at most top exactly when its burst
        # end s_i + u_i is at most 2 top + 1
        ends = f.burst_table.ends_upto(2 * top + 1)
        mids = np.asarray([e // 2 for e in ends], dtype=np.int64)
        if mids.size:
            xs = np.unique(np.concatenate([xs, mids]))
            ys = np.unique(np.concatenate([ys, mids]))

    lx = f.log_f_array(xs)
    ly = f.log_f_array(ys)
    sums = xs[:, None] + ys[None, :]
    lsum = f.log_f_array(sums.ravel()).reshape(sums.shape)
    defect = lsum - (lx[:, None] + ly[None, :])

    log_grid_k = float(defect.max())
    wi, wj = np.nonzero(defect > 0.0)
    entries = [(int(xs[i]), int(ys[j]), float(defect[i, j])) for i, j in zip(wi, wj)]
    entries.sort(key=lambda t: (-t[2], t[0], t[1]))
    return SubmultReport(log_grid_k, tuple(entries[:64]))


# ---------------------------------------------------------------------------
# growth profile


@dataclass(frozen=True)
class GrowthProfile:
    """Sampled values of log f(n)/n plus running suprema over tails.

    ``running_sup_tail[c]`` is sup of log f(n)/n over sampled n >= the c-th
    checkpoint; it is non-increasing in the checkpoint by construction.
    """

    ns: np.ndarray
    values: np.ndarray
    checkpoints: tuple[int, ...]
    running_sup_tail: tuple[float, ...]


def growth_profile(f: MomentFunction, n_max: int, checkpoints: Sequence[int]) -> GrowthProfile:
    """Profile log f(n)/n on a grid of 256 log-spaced points up to ``n_max``.

    The grid always contains the checkpoints, ``n_max`` itself, and for burst
    functions every burst end (the structural peaks of the profile).
    """
    checkpoints = tuple(int(c) for c in checkpoints)
    if not checkpoints:
        raise InvalidInput("at least one checkpoint required")
    if min(checkpoints) < 1:
        raise InvalidInput("checkpoints must be >= 1")
    if n_max < max(checkpoints):
        raise InvalidInput("n_max must be at least the largest checkpoint")
    grid = np.unique(np.round(np.geomspace(1.0, float(n_max), 256)).astype(np.int64))
    extra = list(checkpoints)
    if f.kind is FunctionKind.BURST:
        extra.extend(f.burst_table.ends_upto(n_max))
    grid = np.unique(np.concatenate([grid, np.asarray(extra + [n_max], dtype=np.int64)]))
    values = f.log_f_array(grid) / grid
    sup_tail = tuple(float(values[grid >= c].max()) for c in checkpoints)
    return GrowthProfile(grid, values, checkpoints, sup_tail)


# ---------------------------------------------------------------------------
# classifier


VERDICT_SATISFIES = "SatisfiesC"
VERDICT_VIOLATES_SUBMULT = "ViolatesC_i"
VERDICT_VIOLATES_GROWTH = "ViolatesC_ii"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Classification:
    verdict: str
    detail: str
    witnesses: tuple[tuple[int, int, float], ...] = ()
    rate: float | None = None
    grid_maxima: tuple[float, ...] = ()
    profile: GrowthProfile | None = None


def _nested_grid(log2_max: int) -> np.ndarray:
    """Quarter-power-of-two grid up to 2^log2_max; nested as log2_max grows."""
    pts = [1, 2, 3, 4, 5, 6, 7, 8]
    pts.extend(int(round(2.0 ** (j / 4.0))) for j in range(12, 4 * log2_max + 1))
    return np.unique(np.asarray(pts, dtype=np.int64))


def _checkpoints(profile_n: int) -> tuple[int, ...]:
    """The decades 1e4, 1e5, 1e6 once ``profile_n`` reaches 1e6; below that
    profile_n / 100, profile_n / 10 and profile_n, since rate stabilization
    needs three checkpoints."""
    decades = tuple(c for c in (10 ** 4, 10 ** 5, 10 ** 6) if c <= profile_n)
    if len(decades) == 3:
        return decades
    return tuple(sorted({max(1, profile_n // 100), max(1, profile_n // 10), profile_n}))


def classify(f: MomentFunction, profile_n: int = 10 ** 6) -> Classification:
    """Sort f into SatisfiesC / ViolatesC_i / ViolatesC_ii / Inconclusive.

    SatisfiesC is only issued on the strength of an analytic certificate
    (power and log-power families).  ViolatesC_i requires the grid maxima of
    the submultiplicativity defect to increase strictly (by more than 1e-9)
    5 times across the nested grids capped at 2^k, k = 2..18.  ViolatesC_ii
    requires the tail suprema of log f(n)/n, on a profile extending to
    ``profile_n``, to agree within 1e-9 above a floor of 1e-9 at the last
    three checkpoints (see :func:`_checkpoints`).  The budget is fixed, so
    no caller can ask for a verdict on less evidence.  Everything else is
    Inconclusive; the scans are evidence, not proof, for custom functions.
    """
    if profile_n < 1:
        raise InvalidInput(f"profile_n must be >= 1, got {profile_n}")
    cert = f.submult_certificate()
    if cert is not None:
        return Classification(
            VERDICT_SATISFIES,
            f"analytic certificate: f(x+y) <= {cert:g} f(x) f(y) and log f(n)/n -> 0",
        )

    maxima: list[float] = []
    increases = 0
    for k in range(2, 19):
        grid = _nested_grid(k)
        report = submult_scan(f, grid, grid)
        if maxima and report.log_grid_k > maxima[-1] + 1e-9:
            increases += 1
        maxima.append(report.log_grid_k)
        if increases >= 5 and report.log_grid_k > 0:
            return Classification(
                VERDICT_VIOLATES_SUBMULT,
                f"defect maxima increased {increases} times across nested grids, "
                f"reaching log K = {report.log_grid_k:.6g}",
                witnesses=report.violation_witnesses,
                grid_maxima=tuple(maxima),
            )

    profile = growth_profile(f, profile_n, _checkpoints(profile_n))
    tail = profile.running_sup_tail[-3:]
    if len(tail) == 3 and max(tail) - min(tail) <= 1e-9 and min(tail) > 1e-9:
        return Classification(
            VERDICT_VIOLATES_GROWTH,
            f"log f(n)/n stabilized at {tail[-1]:.12g} across the last 3 checkpoints",
            rate=tail[-1],
            grid_maxima=tuple(maxima),
            profile=profile,
        )
    return Classification(
        VERDICT_INCONCLUSIVE,
        "no analytic certificate and no certified violation within budget",
        grid_maxima=tuple(maxima),
        profile=profile,
    )
