"""Independent oracles for the test suite.

Everything here is deliberately naive: explicit path enumeration, absorbing
iteration to convergence, and closed forms.  Production code must agree with
these, not the other way round.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from recur_moments import FunctionKind, KernelReport, MomentFunction, TransitionKernel
from recur_moments.chain import ROW_SUM_TOL


def enumerate_passage_pmf(kernel: TransitionKernel, start: int, absorb: int,
                          horizon: int, *, kill: int | None = None,
                          require_visit: int | None = None) -> dict[int, float]:
    """First-passage pmf by summing over every path of length <= horizon.

    A path ends when it enters ``absorb`` (the step count is recorded), dies
    when it enters ``kill``, and counts only if it passed through
    ``require_visit`` (when given) strictly before absorbing.  Exponential in
    the horizon; keep horizon <= 10 and states <= 4.
    """
    mat = kernel.dense_matrix
    n = kernel.n_states
    out: dict[int, float] = {}

    def rec(state: int, t: int, prob: float, visited: bool) -> None:
        if t == horizon:
            return
        for nxt in range(n):
            p = mat[state, nxt]
            if p == 0.0:
                continue
            q = prob * p
            if nxt == absorb:
                if require_visit is None or visited:
                    out[t + 1] = out.get(t + 1, 0.0) + q
            elif kill is not None and nxt == kill:
                continue
            else:
                rec(nxt, t + 1, q, visited or nxt == require_visit)

    rec(start, 0, 1.0, False)
    return out


def reaches_oracle(kernel: TransitionKernel, start: int, goal: int, avoid: int) -> bool:
    """Whether some path of 1..n steps goes from ``start`` into ``goal`` with
    no state in between equal to ``avoid`` (or to ``goal``), by OR-ing the
    boolean reach vectors e_start A M^(m-1), m = 1..n: A is the adjacency
    of the positive entries and M is A with the rows of ``avoid`` and
    ``goal`` emptied, so no later step leaves them."""
    adj = kernel.dense_matrix > 0.0
    inner = adj.copy()
    inner[[avoid, goal], :] = False
    front = adj[start].astype(int)
    found = False
    for _ in range(kernel.n_states):
        found |= bool(front[goal])
        front = (front @ inner > 0).astype(int)
    return found


def pmf_dict_to_array(pmf: dict[int, float], horizon: int) -> np.ndarray:
    out = np.zeros(horizon)
    for t, p in pmf.items():
        if t <= horizon:
            out[t - 1] = p
    return out


def absorbed_mass_iterative(kernel: TransitionKernel, start: int, absorb: int,
                            kill: int, max_steps: int = 100_000,
                            tol: float = 1e-15) -> float:
    """P(enter ``absorb`` before ``kill``) by propagating until the alive
    mass is negligible.  Independent of the linear-solve route."""
    mat = kernel.dense_matrix
    q = np.zeros(kernel.n_states)
    q[start] = 1.0
    total = 0.0
    for _ in range(max_steps):
        q = q @ mat
        total += q[absorb]
        q[absorb] = 0.0
        q[kill] = 0.0
        if q.sum() < tol:
            break
    return total


def brute_convolve_dicts(a: dict[int, float], b: dict[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for x, p in a.items():
        for y, q in b.items():
            out[x + y] = out.get(x + y, 0.0) + p * q
    return out


def hitting_time_means(kernel: TransitionKernel, target: int) -> np.ndarray:
    """E[T_{i -> target}] for every i by the standard linear system
    m = 1 + Q m over the non-target states."""
    n = kernel.n_states
    mat = kernel.dense_matrix
    others = [s for s in range(n) if s != target]
    sub = mat[np.ix_(others, others)]
    m_others = np.linalg.solve(np.eye(len(others)) - sub, np.ones(len(others)))
    means = np.zeros(n)
    for pos, s in enumerate(others):
        means[s] = m_others[pos]
    # return-time of the target itself: 1 + sum_k P(target, k) m_k
    means[target] = 1.0 + sum(p * means[k] for k, p in kernel.rows[target] if k != target)
    return means


def two_state_return_pmf_11(p: float, horizon: int) -> np.ndarray:
    """Closed form for the return time of the bouncing state: 1 -> 0 surely,
    then a geometric wait: P(T = k) = p (1-p)^(k-2) for k >= 2."""
    out = np.zeros(horizon)
    for k in range(2, horizon + 1):
        out[k - 1] = p * (1.0 - p) ** (k - 2)
    return out



def reference_laws(kernel: TransitionKernel, i: int, j: int,
                   horizon: int) -> dict[str, tuple[np.ndarray, float]]:
    """The four passage laws by the plain ``q @ csr`` loops the library used
    before its propagation engine: law name -> (raw pmf, divisor), the law's
    pmf being raw / divisor.  ``passage`` (i -> j) has divisor 1 and is the
    only key when i == j; ``return_avoiding``, ``hit_first`` and
    ``crossing`` are divided by the hit-before-return probability pi, from
    one single-column solve.  ``passage_surv`` holds the alive mass after
    each step of ``passage``."""
    mat = kernel.csr
    n = kernel.n_states

    def start() -> np.ndarray:
        q = np.zeros(n)
        q[i] = 1.0
        return q

    q, pmf, surv = start(), np.zeros(horizon), np.zeros(horizon)
    for t in range(horizon):
        r = q @ mat
        pmf[t] = r[j]
        r[j] = 0.0
        q = r
        surv[t] = q.sum()
    out = {"passage": (pmf, 1.0), "passage_surv": (surv, 1.0)}
    if i == j:
        return out
    dense = kernel.dense_matrix
    others = [k for k in range(n) if k not in (i, j)]
    pi = float(dense[i, j])
    if others:
        sub = dense[np.ix_(others, others)]
        h = np.linalg.solve(np.eye(len(others)) - sub, dense[others, j])
        pi = float(dense[i, j] + dense[i, others] @ h)
    for key, absorb, kill, denom in (("return_avoiding", i, j, 1.0 - pi),
                                     ("hit_first", j, i, pi)):
        q, pmf = start(), np.zeros(horizon)
        for t in range(horizon):
            r = q @ mat
            pmf[t] = r[absorb]
            r[absorb] = 0.0
            r[kill] = 0.0
            q = r
        out[key] = (pmf, denom)
    q0, q1, pmf = start(), np.zeros(n), np.zeros(horizon)
    for t in range(horizon):
        r0, r1 = q0 @ mat, q1 @ mat
        pmf[t] = r1[i]
        r1[j] += r0[j]
        r0[j] = r0[i] = r1[i] = 0.0
        q0, q1 = r0, r1
    out["crossing"] = (pmf, pi)
    return out


def reference_survival(kernel: TransitionKernel, start: int, horizon: int, *, absorb: int,
                       kill: int | None = None,
                       flag: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(surv, scale): the alive mass of the taboo vector from ``start``
    after each step t, times 2^scale[t], by the plain ``q @ csr`` loops of
    :func:`reference_laws`.  Mass entering ``absorb`` or ``kill`` leaves;
    with ``flag``, the vector holds the pairs (k, visited), mass entering
    (flag, 0) moves on to (flag, 1) and mass entering (absorb, 0) leaves
    too.  The mass is summed over the slots in the order (k, visited), as
    the library lays them out.  Unlike :func:`reference_laws`, the loop
    never underflows: when the alive mass after a step lies in (0, 2^-600)
    and a step is left, the vector is scaled by the power of two that lifts
    that mass to [1/2, 1)."""
    mat, n = kernel.csr, kernel.n_states
    q = np.zeros((n, 1 if flag is None else 2))  # the columns (k, 0) and (k, 1)
    q[start, 0] = 1.0
    surv, scale = np.zeros(horizon), np.zeros(horizon, dtype=np.int64)
    for t in range(horizon):
        r = np.column_stack([col @ mat for col in q.T])
        if flag is not None:
            r[flag, 1] += r[flag, 0]
            r[flag, 0] = 0.0
        r[absorb] = 0.0
        if kill is not None:
            r[kill] = 0.0
        q = r
        surv[t] = q.sum()
        if 0.0 < surv[t] < 2.0 ** -600 and t + 1 < horizon:
            e = -math.frexp(surv[t])[1]
            q = np.ldexp(q, e)
            scale[t + 1:] += e
    return surv, scale


def reference_compound(u, v, pi: float, horizon: int) -> tuple[np.ndarray, float]:
    """The dense geometric compound by its renewal recursion, one step at a
    time with two dot products, as the library computed it before its
    blocked solve: c_n = pi v_n + (1-pi) sum_{k<n} u_k c_{n-k} and
    S(n) = pi S_V(n) + (1-pi) [S_U(n) + sum_{k<=n} u_k S(n-k)], with an
    operand's pmf zero and its survival at its tail past its horizon.
    Returns the pmf over 1..horizon and the log tail, floored at
    horizon * log(1 - pi)."""
    h, q = horizon, 1.0 - pi

    def fit(arr, fill):
        out = np.full(h, fill)
        out[:min(h, arr.size)] = arr[:h]
        return out

    qu_rev = (q * fit(u.pmf_array(), 0.0))[::-1].copy()  # q u_h, ..., q u_1
    pv = pi * fit(v.pmf_array(), 0.0)
    s_free = (pi * fit(v.survival_array(), math.exp(v.log_tail))
              + q * fit(u.survival_array(), math.exp(u.log_tail)))
    c = np.empty(h)      # c[t] = P(C = t+1)
    s = np.empty(h + 1)  # s[t] = P(C > t)
    s[0] = 1.0
    for t in range(h):
        c[t] = pv[t] + qu_rev[h - t:] @ c[:t]
        s[t + 1] = s_free[t] + qu_rev[h - t - 1:] @ s[:t + 1]
    log_tail = max(math.log(s[h]) if s[h] > 0.0 else -math.inf, h * math.log1p(-pi))
    return c, log_tail


def sparse_ring_kernel(n: int, per_row: int, seed: int) -> TransitionKernel:
    """Seeded chain with ``per_row`` distinct targets in every row, one of
    them the next state on a ring."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        targets = {(i + 1) % n}
        while len(targets) < per_row:
            targets.add(int(rng.integers(n)))
        rows.append(list(zip(sorted(targets), rng.dirichlet(np.ones(per_row)).tolist())))
    return TransitionKernel([str(i) for i in range(n)], rows)


def cycle_kernel(n: int) -> TransitionKernel:
    """The deterministic cycle k -> k + 1 (mod n) on states '0'..'n-1'."""
    return TransitionKernel([str(k) for k in range(n)], [[((k + 1) % n, 1.0)] for k in range(n)])


def dense_passage_times(kernel: TransitionKernel, i: int, j: int, n: int, cap: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(times, censored) of n first passages i -> j, stepped through the
    cumulative sums of the dense rows, as the library sampled before it read
    the CSR rows (an n x n matrix and its cumsum)."""
    mat = kernel.dense_matrix
    cum = np.cumsum(mat, axis=1)
    last = mat.shape[1] - 1 - np.argmax(mat[:, ::-1] > 0.0, axis=1)  # last positive state
    times = np.full(n, cap, dtype=np.int64)
    censored = np.ones(n, dtype=bool)
    active = np.arange(n)
    state = np.full(n, i, dtype=np.int64)
    for t in range(1, cap + 1):
        if active.size == 0:
            break
        u = rng.random(active.size)
        nxt = (cum[state[active]] <= u[:, None]).sum(axis=1)
        np.minimum(nxt, last[state[active]], out=nxt)
        hit = nxt == j
        if hit.any():
            done = active[hit]
            times[done] = t
            censored[done] = False
            active = active[~hit]
            nxt = nxt[~hit]
        state[active] = nxt
    return times, censored


# ---------------------------------------------------------------------------
# the row loops the library ran before it stored kernels as CSR arrays; each
# takes the states and the rows as lists of (target index, probability)


def reference_csr(states, rows) -> sparse.csr_matrix:
    """COO lists built edge by edge; scipy sorts each row and sums
    duplicates."""
    data, ri, ci = [], [], []
    for i, row in enumerate(rows):
        for j, p in row:
            ri.append(i)
            ci.append(j)
            data.append(p)
    return sparse.csr_matrix((data, (ri, ci)), shape=(len(states), len(states)))


def reference_dense(states, rows) -> np.ndarray:
    """Every entry added in place, duplicates in row order."""
    mat = np.zeros((len(states), len(states)))
    for i, row in enumerate(rows):
        for j, p in row:
            mat[i, j] += p
    return mat


def reference_report(states, rows) -> KernelReport:
    """Violations in row order, a running total per row, and the strong
    components of the graph of the in-range edges with p > 0."""
    n = len(states)
    row_sum_bad, prob_bad, target_bad = [], [], []
    edges_r, edges_c = [], []
    for i, row in enumerate(rows):
        total = 0.0
        for j, p in row:
            if not 0 <= j < n:
                target_bad.append((states[i], j))
                continue
            if not 0.0 < p <= 1.0 + ROW_SUM_TOL:
                prob_bad.append((states[i], states[j], p))
            total += p
            if p > 0:
                edges_r.append(i)
                edges_c.append(j)
        if abs(total - 1.0) > ROW_SUM_TOL:
            row_sum_bad.append((states[i], total))
    graph = sparse.csr_matrix((np.ones(len(edges_r)), (edges_r, edges_c)), shape=(n, n))
    n_comp, _ = connected_components(graph, directed=True, connection="strong")
    return KernelReport(tuple(row_sum_bad), tuple(prob_bad), tuple(target_bad),
                        n_comp == 1, int(n_comp))


def reference_kernel_json(states, rows) -> str:
    """The text ``save_kernel_json`` wrote from the rows."""
    obj = {"states": list(states),
           "rows": [[[states[j], p] for j, p in row] for row in rows]}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def max_submult_defect(f: MomentFunction, upto: int) -> float:
    """The largest defect log f(x+y) - (log f(x) + log f(y)) over 1 <= x, y
    <= ``upto``, a grid that for a burst f also takes its midpoints up to
    ``upto``, where the defect peaks."""
    grid = set(range(1, upto + 1))
    if f.kind is FunctionKind.BURST:
        grid.update(f.burst_table.midpoints_upto(upto))
    xs = np.array(sorted(grid), dtype=np.int64)
    lx = f.log_f_array(xs)
    return float((f.log_f_array(xs[:, None] + xs[None, :]) - (lx[:, None] + lx[None, :])).max())
