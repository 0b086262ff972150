"""The benchmark's workloads: inputs made from the seed, items, and oracles.

Every workload is a closed loop with one client: items run one after
another, each only after the previous one has finished.  A round is the
workload's fixed batch of items; every round of a run repeats the same
inputs, so the per-round counts in :meth:`Workload.expected_counts` repeat
exactly from round to round and from seed to seed (``cli_cold`` reads its
library counts from an in-process reference run instead, because the Monte
Carlo draw count depends on the seeded chain).

Oracles are computed in set-up with numpy alone, never with the library:
stationary laws and mean passage times by linear solves, passage laws by
dense propagation, and the mean hitting time of the large sparse chain by a
fixed-point iteration over the generated edge arrays.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

import recur_moments as rm
import recur_moments.cli as rm_cli
from tracing import Tracer, instrument

#: Count names that must repeat exactly from round to round.
EXACT_COUNTS = ("items", "passage.first_passage_calls", "passage.nnz_steps",
                "moments.f_moment_calls", "chain.draws")


@dataclass
class ItemClock:
    """Runs and times the items of one round and records the failed ones.

    With ``calibrate`` set (a workload's :meth:`Workload.calibrate`), every
    timed stretch -- a whole item, or each :meth:`part` of one -- follows a
    calibration pass, and its time divided by the host slowness that the pass
    measured goes into ``adjusted``.  Pass times stay out of ``times``."""

    tracer: object = None
    calibrate: object = None
    keys: list = field(default_factory=list)
    times: list = field(default_factory=list)
    adjusted: list = field(default_factory=list)
    slowness: list = field(default_factory=list)
    pass_s: float = 0.0
    failed: dict = field(default_factory=dict)
    _parts: list = None

    def _span(self, name):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def _pass(self, calibrate) -> float:
        start = time.perf_counter()
        slowness = calibrate()
        self.pass_s += time.perf_counter() - start
        self.slowness.append(slowness)
        return slowness

    def item(self, key, fn, *args, parts=False):
        """Run ``fn(*args)`` as one timed item; None when it raised.  With
        ``parts``, ``fn`` takes :meth:`part` as its first argument and is
        calibrated call by call instead of as a whole."""
        pass_before = self.pass_s
        if parts:
            self._parts = []
            args = (self.part,) + args
        elif self.calibrate is not None:
            slowness = self._pass(self.calibrate)
            pass_before = self.pass_s
        start = time.perf_counter()
        try:
            with self._span("bench.item"):
                result = fn(*args)
        except Exception as exc:  # an item that raises counts as failed; the loop goes on
            result = None
            self.failed[key] = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start - (self.pass_s - pass_before)
        if self.calibrate is not None:
            self.adjusted.append(sum(self._parts) if parts else seconds / slowness)
        self._parts = None
        self.times.append(seconds)
        self.keys.append(key)
        return result

    def part(self, fn, *args, calibrate=None):
        """Run one library call of an item.  With the clock calibrated, the
        call follows a pass of ``calibrate`` (the clock's own by default)."""
        if self.calibrate is None:
            return fn(*args)
        slowness = self._pass(calibrate or self.calibrate)
        start = time.perf_counter()
        result = fn(*args)
        self._parts.append((time.perf_counter() - start) / slowness)
        return result

    def checking(self):
        """Span around oracle checks, kept out of item times."""
        return self._span("bench.check")

    def fail(self, key, reason: str) -> None:
        self.failed.setdefault(key, reason)


def _dense(kernel) -> np.ndarray:
    """Transition matrix built from the kernel's rows, for the oracles."""
    mat = np.zeros((kernel.n_states, kernel.n_states))
    for i, row in enumerate(kernel.rows):
        for j, p in row:
            mat[i, j] += p
    return mat


def _stationary_oracle(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    lhs = mat.T - np.eye(n)
    lhs[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(lhs, rhs)


def _mean_passage_oracle(mat: np.ndarray) -> np.ndarray:
    """``out[a, b]`` = E_a[first hit of b], counted from step 1 (a = b gives
    the mean return time)."""
    n = mat.shape[0]
    out = np.empty((n, n))
    for b in range(n):
        keep = [k for k in range(n) if k != b]
        m = np.linalg.solve(np.eye(n - 1) - mat[np.ix_(keep, keep)], np.ones(n - 1))
        out[keep, b] = m
        out[b, b] = 1.0 + mat[b, keep] @ m
    return out


def _passage_pmf_oracle(mat: np.ndarray, i: int, j: int, horizon: int) -> np.ndarray:
    """P(first hit of j from i = n) for n = 1..horizon, by dense propagation."""
    q = np.zeros(mat.shape[0])
    q[i] = 1.0
    pmf = np.empty(horizon)
    for t in range(horizon):
        q = q @ mat
        pmf[t] = q[j]
        q[j] = 0.0
    return pmf


def _seeded_kernels(seed: int, sizes) -> list:
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return [rm.random_kernel(n, np.random.default_rng(c)) for n, c in zip(sizes, children)]


class Workload:
    """One benchmark workload.  Subclasses fill in the four hooks and set
    ``cal_matrix`` in set-up."""

    name = ""
    #: Vector-matrix products in one calibration pass.
    CAL_STEPS = 0
    #: Time of one calibration pass on the reference host when quiet (README,
    #: "Host-speed adjustment").
    CAL_REF_S = 0.0

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def setup(self) -> None:
        """Make the inputs from the seed and compute the oracles."""
        raise NotImplementedError

    def warm_up(self, clock: ItemClock) -> None:
        """Run one item, so that caches fill before timing."""
        raise NotImplementedError

    def run_round(self, clock: ItemClock) -> None:
        """Run the fixed batch of items and check every result."""
        raise NotImplementedError

    def expected_counts(self) -> dict:
        """Per-round values of the names in :data:`EXACT_COUNTS`."""
        raise NotImplementedError

    def calibrate(self) -> float:
        """Host slowness now: the time of one pass of the benchmark's own copy
        of the library's hot loop over CAL_REF_S.  The pass is ``CAL_STEPS``
        products of a probability vector with ``cal_matrix``, a scipy CSR
        matrix that the benchmark builds from its inputs.  The vector stays a
        probability vector, so no value decays into the subnormal range."""
        mat = self.cal_matrix
        q = np.zeros(mat.shape[0])
        q[-1] = 1.0
        start = time.perf_counter()
        for _ in range(self.CAL_STEPS):
            q = q @ mat
            q.sum()
        return (time.perf_counter() - start) / self.CAL_REF_S


# ---------------------------------------------------------------------------


class MomentsAllPairs(Workload):
    name = "moments_allpairs"
    HORIZON = 600
    SIZES = (2, 4, 6, 8)
    CAL_STEPS = 120
    CAL_REF_S = 3.0e-3
    SMOKE_SIZES = (2, 3)
    ROUTE_TOL = 1e-12
    MEAN_TOL = 1e-9
    STATIONARY_TOL = 1e-12

    def setup(self):
        self.kernels = _seeded_kernels(self.seed, self.SMOKE_SIZES if self.smoke else self.SIZES)
        self.f1, self.f2 = rm.power_fn(1), rm.power_fn(2)
        self.pi_oracle, self.mean_oracle = [], []
        for kernel in self.kernels:
            kernel.csr  # kernel build is set-up work, not item work
            kernel.dense_matrix
            mat = _dense(kernel)
            self.pi_oracle.append(_stationary_oracle(mat))
            self.mean_oracle.append(_mean_passage_oracle(mat))
        self.cal_matrix = sparse.csr_matrix(mat)

    def _item(self, kernel, a, b):
        law = rm.first_passage_law(kernel, a, b, self.HORIZON)
        return rm.f_moment(law, self.f1), rm.f_moment(law, self.f2)

    def warm_up(self, clock):
        clock.item("warm-up", self._item, self.kernels[0], 0, 0)

    def run_round(self, clock):
        for c, kernel in enumerate(self.kernels):
            n = kernel.n_states
            try:
                pi = rm.stationary_distribution(kernel)
            except Exception as exc:  # recorded against the chain's items below
                pi = exc
            ests = {(a, b): clock.item((c, a, b), self._item, kernel, a, b)
                    for a in range(n) for b in range(n)}
            with clock.checking():
                self._check_chain(clock, c, pi, ests)

    def _check_chain(self, clock, c, pi, ests):
        n = self.kernels[c].n_states
        if isinstance(pi, Exception) or np.abs(pi - self.pi_oracle[c]).max() > self.STATIONARY_TOL:
            for key in ests:
                clock.fail((c,) + key, f"stationary_distribution off the oracle: {pi}")
        lower = np.full((2, n, n), np.nan)
        upper = np.full((2, n, n), np.nan)
        for (a, b), res in ests.items():
            if res is None:
                continue
            if any(est.verdict != "converged" for est in res):
                clock.fail((c, a, b), f"verdicts {[est.verdict for est in res]}")
                continue
            for p, est in enumerate(res):
                lower[p, a, b] = est.log_partial_sum
                upper[p, a, b] = est.log_upper_bound
            target = 1.0 / self.pi_oracle[c][a] if a == b else self.mean_oracle[c][a, b]
            lo, hi = math.exp(lower[0, a, b]), math.exp(upper[0, a, b])
            if lo - target > self.MEAN_TOL or target - hi > self.MEAN_TOL:
                clock.fail((c, a, b), f"mean interval [{lo!r}, {hi!r}] misses {target!r}")
        # route inequalities of criterion 4 with K = 2^p: failed comparisons
        # are charged to the item whose upper bound they use; NaN never fails
        for p in range(2):
            log_k = (p + 1) * math.log(2.0)
            lo, up = lower[p], upper[p]
            ret = np.diag(up)[:, None] - log_k - lo - lo.T
            np.fill_diagonal(ret, -np.inf)
            for i in np.nonzero((ret > self.ROUTE_TOL).any(axis=1))[0]:
                clock.fail((c, int(i), int(i)), f"return route bound, p={p + 1}")
            # excess[k, l, i, j] = up[k, l] - 2 log K - lo[k, i] - lo[i, j] - lo[j, l]
            excess = (up[:, :, None, None] - 2.0 * log_k - lo[:, None, :, None]
                      - lo[None, None, :, :] - lo.T[None, :, None, :])
            bad = (excess > self.ROUTE_TOL).any(axis=(2, 3))
            for k, l_ in zip(*np.nonzero(bad)):
                clock.fail((c, int(k), int(l_)), f"three-leg route bound, p={p + 1}")

    def expected_counts(self):
        items = sum(k.n_states ** 2 for k in self.kernels)
        nnz_steps = sum(k.n_states ** 2 * sum(map(len, k.rows)) * self.HORIZON
                        for k in self.kernels)
        return {"items": items, "passage.first_passage_calls": items,
                "passage.nnz_steps": nnz_steps, "moments.f_moment_calls": 2 * items,
                "chain.draws": 0}


# ---------------------------------------------------------------------------


class Decomposition(Workload):
    name = "decomposition"
    HORIZON = 600
    #: Many chains with few pairs each: an item's cost depends on its chain
    #: (the compound's term count and how soon its pmf values turn
    #: subnormal), so spreading items over chains steadies the batch's cost
    #: from seed to seed.
    SIZES = (3, 4, 5, 6) * 12
    CAL_STEPS = 100
    CAL_REF_S = 2.44e-3
    CAL_CONVOLVES = 20
    CAL_CONVOLVE_REF_S = 1.8e-3
    PAIRS = 2
    SMOKE_SIZES = (3,)
    SMOKE_PAIRS = 2
    IDENTITY_TOL = 1e-10
    ORACLE_TOL = 1e-12

    def setup(self):
        sizes = self.SMOKE_SIZES if self.smoke else self.SIZES
        per_chain = self.SMOKE_PAIRS if self.smoke else self.PAIRS
        self.kernels = _seeded_kernels(self.seed, sizes)
        pick = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1,)))
        self.pairs, self.oracle = [], {}
        for c, kernel in enumerate(self.kernels):
            kernel.csr  # kernel build is set-up work, not item work
            kernel.dense_matrix
            n = kernel.n_states
            ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
            chosen = pick.choice(len(ordered), size=per_chain, replace=False)
            mat = _dense(kernel)
            for idx in sorted(chosen):
                i, j = ordered[idx]
                self.pairs.append((c, i, j))
                self.oracle[c, i, j] = _passage_pmf_oracle(mat, i, j, self.HORIZON)
        self.cal_matrix = sparse.csr_matrix(mat)
        # geometric pmf whose smallest value, 0.01 * 0.99^599, stays far from
        # the subnormal range, where arithmetic is many times slower
        self.cal_pmf = 0.01 * 0.99 ** np.arange(self.HORIZON)

    def calibrate_compound(self) -> float:
        """Host slowness as the dense geometric compound's loop sees it:
        ``CAL_CONVOLVES`` steps of that loop on a horizon-long pmf, over
        CAL_CONVOLVE_REF_S.  A busy host slows this loop less than it slows
        the CSR products."""
        h, pmf = self.HORIZON, self.cal_pmf
        start = time.perf_counter()
        for _ in range(self.CAL_CONVOLVES):
            full = np.convolve(pmf, pmf)
            nxt = np.zeros(h)
            nxt[1:] = full[:h - 1]
            float(full[h - 1:].sum())
        return (time.perf_counter() - start) / self.CAL_CONVOLVE_REF_S

    def _item(self, part, kernel, i, j):
        """One item in parts, each calibrated on its own: an item takes about
        0.2 s, and the host's speed changes within that."""
        h = self.HORIZON
        pi, u, v = part(lambda: (rm.hit_before_return_prob(kernel, i, j),
                                 rm.conditioned_return_law(kernel, i, j, h),
                                 rm.conditioned_hit_law(kernel, i, j, h)))
        cross = part(rm.crossing_return_law, kernel, i, j, h)
        comp = part(lambda: rm.geometric_compound(u, v, pi, horizon=h),
                    calibrate=self.calibrate_compound)
        direct = part(rm.first_passage_law, kernel, i, j, h)
        ret = part(rm.first_passage_law, kernel, i, i, h)
        back = part(rm.first_passage_law, kernel, j, i, h)
        mix, dom_v, dom_back = part(lambda: (
            rm.mixture([u, cross], [1.0 - pi, pi]),
            rm.stochastic_dominates(cross, v, tol=self.IDENTITY_TOL),
            rm.stochastic_dominates(cross, back, tol=self.IDENTITY_TOL)))
        return comp, direct, ret, mix, dom_v, dom_back

    def warm_up(self, clock):
        c, i, j = self.pairs[0]
        clock.item("warm-up", self._item, self.kernels[c], i, j, parts=True)

    def run_round(self, clock):
        for key in self.pairs:
            c, i, j = key
            res = clock.item(key, self._item, self.kernels[c], i, j, parts=True)
            if res is None:
                continue
            with clock.checking():
                self._check(clock, key, *res)

    def _check(self, clock, key, comp, direct, ret, mix, dom_v, dom_back):
        pmf = direct.pmf_array()
        if np.abs(pmf - self.oracle[key]).max() > self.ORACLE_TOL:
            clock.fail(key, "direct law off the dense-propagation oracle")
        if np.abs(comp.pmf_array() - pmf).max() > self.IDENTITY_TOL:
            clock.fail(key, "compound of excursion laws off the direct law")
        if np.abs(mix.pmf_array() - ret.pmf_array()).max() > self.IDENTITY_TOL:
            clock.fail(key, "avoid/cross mixture off the return law")
        if not (dom_v.dominates and dom_back.dominates):
            clock.fail(key, "crossing law does not dominate")

    def expected_counts(self):
        nnz_steps = sum(3 * sum(map(len, self.kernels[c].rows)) * self.HORIZON
                        for c, _, _ in self.pairs)
        items = len(self.pairs)
        return {"items": items, "passage.first_passage_calls": 3 * items,
                "passage.nnz_steps": nnz_steps, "moments.f_moment_calls": 0,
                "chain.draws": 0}


# ---------------------------------------------------------------------------


class SparseScale(Workload):
    name = "sparse_scale"
    HORIZON = 1000
    CAL_STEPS = 40
    CAL_REF_S = 14.4e-3
    N_STATES = 50_000
    SOURCES = 5
    SMOKE_N_STATES = 2_000
    SMOKE_SOURCES = 2
    PROBS = (0.4, 0.3, 0.2, 0.1)  # ring, two random edges, restart to state 0
    MEAN_RTOL = 1e-9
    #: Every row sends 0.1 to state 0, so the taboo matrix has row sums <= 0.9
    #: and the fixed point m = 1 + Qm is reached to 0.9^400 * 10 < 1e-17.
    FIXED_POINT_STEPS = 400

    def _edges(self, n: int) -> np.ndarray:
        """``targets[i]`` = (ring, random, random, 0), four distinct states."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        ring = np.arange(1, n + 1)
        ring[-1] = 1
        rand = rng.integers(1, n, size=(n, 2))
        while True:
            clash = ((rand[:, 0] == ring) | (rand[:, 1] == ring) | (rand[:, 0] == rand[:, 1]))
            if not clash.any():
                break
            rand[clash] = rng.integers(1, n, size=(int(clash.sum()), 2))
        return np.column_stack([ring, rand, np.zeros(n, dtype=np.int64)])

    def setup(self):
        n = self.SMOKE_N_STATES if self.smoke else self.N_STATES
        targets = self._edges(n)
        probs = np.broadcast_to(np.array(self.PROBS), targets.shape)
        names = [str(i) for i in range(n)]
        rows = [[[names[t], p] for t, p in zip(trow, self.PROBS)] for trow in targets.tolist()]
        path = os.path.join(self.workdir, "sparse_kernel.json")
        with open(path, "w") as fh:
            json.dump({"states": names, "rows": rows}, fh)
        self.kernel = rm.load_kernel_json(path)
        self.kernel.csr
        self.cal_matrix = sparse.csr_matrix(
            (probs.ravel(), (np.repeat(np.arange(n), targets.shape[1]), targets.ravel())),
            shape=(n, n))
        # mean hitting time of state 0: m = 1 + Q m with column 0 removed
        taboo = np.where(targets == 0, 0.0, probs)
        m = np.zeros(n)
        for _ in range(self.FIXED_POINT_STEPS):
            m = 1.0 + (taboo * m[targets]).sum(axis=1)
        self.mean_oracle = m
        count = self.SMOKE_SOURCES if self.smoke else self.SOURCES
        pick = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1,)))
        self.sources = [int(s) for s in pick.choice(np.arange(1, n), size=count, replace=False)]
        self.f1 = rm.power_fn(1)

    def _item(self, source):
        law = rm.first_passage_law(self.kernel, source, 0, self.HORIZON)
        return rm.f_moment(law, self.f1)

    def warm_up(self, clock):
        clock.item("warm-up", self._item, self.sources[0])

    def run_round(self, clock):
        for source in self.sources:
            est = clock.item(source, self._item, source)
            if est is None:
                continue
            with clock.checking():
                target = self.mean_oracle[source]
                if est.verdict != "converged":
                    clock.fail(source, f"verdict {est.verdict}")
                    continue
                lo, hi = math.exp(est.log_partial_sum), math.exp(est.log_upper_bound)
                if lo > target * (1 + self.MEAN_RTOL) or hi < target * (1 - self.MEAN_RTOL):
                    clock.fail(source, f"mean interval [{lo!r}, {hi!r}] misses {target!r}")

    def expected_counts(self):
        items = len(self.sources)
        nnz = sum(map(len, self.kernel.rows))
        return {"items": items, "passage.first_passage_calls": items,
                "passage.nnz_steps": items * nnz * self.HORIZON,
                "moments.f_moment_calls": items, "chain.draws": 0}


# ---------------------------------------------------------------------------


class CliCold(Workload):
    name = "cli_cold"
    TIMEOUT_S = 150
    CAL_STEPS = 400
    CAL_REF_S = 9.8e-3

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        bench_dir = os.path.dirname(os.path.abspath(__file__))
        self.root = os.path.dirname(bench_dir)
        self.traced_cli = os.path.join(bench_dir, "traced_cli.py")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        kernel = rm.random_kernel(8, rng)
        self.cal_matrix = sparse.csr_matrix(_dense(kernel))
        path = os.path.join(self.workdir, "cli_kernel.json")
        rm.save_kernel_json(kernel, path)
        a, b = (str(s) for s in rng.choice(8, size=2, replace=False))
        chain = ["--kernel", path, "--from", a, "--to", b]
        samples, k_max = ("20000", "8") if self.smoke else ("1000000", "50")
        self.commands = [
            ("import", None),
            ("fpt", ["fpt", *chain, "--horizon", "600"]),
            ("moment", ["moment", *chain, "--function", "power:2"]),
            ("mc", ["moment", *chain, "--method", "mc", "--samples", samples,
                    "--cap", "10000", "--function", "power:2"]),
            ("classify", ["classify", "--function", "burst:default"]),
            ("demo", ["demo", "sharp", "--k-max", k_max]),
        ]
        # reference stdout from in-process cli.main, and the library counts
        # that each traced fresh process must repeat
        self.reference = {"import": b""}
        ref_tracer = Tracer()
        with instrument(ref_tracer):
            for label, argv in self.commands[1:]:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = rm_cli.main(argv)
                if rc != 0:
                    raise RuntimeError(f"in-process reference {argv} exited {rc}")
                self.reference[label] = buf.getvalue().encode()
        self.reference_counts = dict(ref_tracer.counts)

    def _argv(self, argv, spans_path):
        if spans_path is not None:
            return [sys.executable, self.traced_cli, spans_path] + (argv or ["--import-only"])
        if argv is None:
            return [sys.executable, "-c", "import recur_moments"]
        return [sys.executable, "-m", "recur_moments.cli"] + argv

    def _invoke(self, argv):
        return subprocess.run(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=self.TIMEOUT_S)

    def warm_up(self, clock):
        clock.item("warm-up", self._invoke, self._argv(self.commands[1][1], None))

    def run_round(self, clock):
        for n, (label, argv) in enumerate(self.commands):
            spans_path = None
            if clock.tracer is not None:
                spans_path = os.path.join(self.workdir, f"spans-{n}.json")
            proc = clock.item(label, self._invoke, self._argv(argv, spans_path))
            if proc is None:
                continue
            with clock.checking():
                if proc.returncode != 0:
                    clock.fail(label, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
                elif proc.stdout != self.reference[label]:
                    clock.fail(label, "stdout differs from in-process cli.main")
            if spans_path is not None and os.path.exists(spans_path):
                with open(spans_path) as fh:
                    rec = json.load(fh)
                os.remove(spans_path)
                clock.tracer.merge(rec["spans"], rec["counts"])

    def expected_counts(self):
        counts = {"items": len(self.commands)}
        for name in EXACT_COUNTS[1:]:
            counts[name] = self.reference_counts.get(name, 0)
        return counts


WORKLOADS = {cls.name: cls for cls in (MomentsAllPairs, Decomposition, SparseScale, CliCold)}
