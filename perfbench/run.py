"""Benchmark of recur-moments: one command, four workloads, oracle-checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each workload runs as one closed-loop client in this process (``cli_cold``
starts one fresh process per item, one at a time).  The inputs are made
from ``--seed``; the library sees only those inputs.  A run sets up, runs
one warm-up item, then repeats the workload's fixed batch (a round) while
another round still fits in ``--seconds``.  Every item is checked against
an oracle; an item that raises or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics of untraced rounds.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics: span self times and counts per round, with set-up
layers (``chain.load``, ``chain.validate``, ``chain.csr``) measured over a
traced set-up.  ``--smoke`` shrinks every input, for the self-test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
are a reproducibility header and the metrics in readable form.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402

#: Pinned before numpy loads, and inherited by every process started here.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "RECUR_MOMENTS_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Span layers reported as ``<span>_s``: total self time per round.
SPAN_LAYERS = (
    "passage.first_passage", "passage.hit_prob", "passage.conditioned",
    "passage.crossing", "passage.compound", "passage.mixture", "passage.dominates",
    "chain.load", "chain.validate", "chain.csr", "chain.stationary", "moments.f_moment",
    "bench.item", "bench.check",
)
#: Counters reported per round.
COUNT_LAYERS = (
    "passage.first_passage_calls", "passage.nnz_steps", "moments.f_moment_calls",
    "moments.converged", "moments.inconclusive", "moments.diverged", "bench.items",
)
PER_LAYER = {
    **{f"{span}_s": "s" for span in SPAN_LAYERS},
    **{name: "count" for name in COUNT_LAYERS},
    "passage.ns_per_nnz_step": "ns",
    "moments.certified_ratio": "ratio",
    "trace_overhead_frac": "ratio",
}

#: Span layers that only the fresh processes of cli_cold call.
CLI_SPAN_LAYERS = ("chain.sample", "moments.mc", "momentfn.classify",
                   "constructions.demo_sharp", "cli.import", "cli.main")
#: cli_cold item label -> median fresh-process wall time metric.
CLI_WALLS = {"import": "import_s", "fpt": "cli_fpt_s", "moment": "cli_moment_s",
             "mc": "cli_mc_s", "classify": "cli_classify_s", "demo": "cli_demo_s"}
#: Per-layer metrics that a traced cli_cold run adds.  cli_cold is not in
#: BENCHMARK.json (its spread is too wide to gate on), so neither are these.
CLI_PER_LAYER = {
    **{f"{span}_s": "s" for span in CLI_SPAN_LAYERS},
    "chain.draws": "count",
    "chain.ns_per_draw": "ns",
    **{name: "s" for name in CLI_WALLS.values()},
}

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


@dataclass
class Round:
    wall: float
    keys: list
    times: list
    failed: dict
    counts: Counter
    spans: tuple = (0, 0)
    adjusted: list = ()
    slowness: list = ()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, run the warm-up item, print the set-up time and exit")
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git repository
    (git is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "clients": 1, "loop": "closed",
    }


def run_round(workload, tracer=None) -> Round:
    from tracing import instrument
    from workloads import ItemClock

    if tracer is None:
        clock = ItemClock(calibrate=workload.calibrate)
        start = time.perf_counter()
        workload.run_round(clock)
        wall = time.perf_counter() - start - clock.pass_s
        return Round(wall, clock.keys, clock.times, clock.failed,
                     Counter(items=len(clock.times)), adjusted=clock.adjusted,
                     slowness=clock.slowness)
    clock = ItemClock(tracer)
    before, first = Counter(tracer.counts), len(tracer.spans)
    start = time.perf_counter()
    with instrument(tracer):
        workload.run_round(clock)
    wall = time.perf_counter() - start
    counts = tracer.counts - before
    counts["items"] = len(clock.times)
    return Round(wall, clock.keys, clock.times, clock.failed, counts, (first, len(tracer.spans)))


def run_rounds(workload, seconds: float, tracer=None):
    """Untraced rounds, each followed by a traced one when ``tracer`` is
    given, while the next step still fits in ``seconds`` (at least one)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_round(workload))
        if tracer is not None:
            traced.append(run_round(workload, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process running the same set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def count_problems(rounds, expected: dict, names) -> list:
    problems = []
    for n, rnd in enumerate(rounds):
        for name in names:
            if rnd.counts.get(name, 0) != expected[name]:
                problems.append(f"round {n}: {name} = {rnd.counts.get(name, 0)}, "
                                f"expected {expected[name]}")
    return problems


def peak_rss_mb(workload) -> float:
    """Peak resident set of this process, or of its largest child so far on
    cli_cold; read before the set-up children start."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end_metrics(rounds, setups, rss_mb) -> dict:
    """Every time but ``setup_s`` is host-speed-adjusted (README).  Each item
    of the batch gets its median adjusted time over the rounds; the batch
    time is their sum, and the percentiles are taken over them."""
    per_item = [statistics.median(times) for times in zip(*(r.adjusted for r in rounds))]
    batch = sum(per_item)
    return {
        "setup_s": statistics.median(setups),
        "batch_s": batch,
        "items_per_s": len(per_item) / batch,
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_p90_ms": percentile(per_item, 90) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def report_raw(rounds) -> None:
    """Unadjusted figures beside the adjusted metrics, for reading only."""
    times = [t for r in rounds for t in r.times]
    slowness = [s for r in rounds for s in r.slowness]
    print(f"# raw: round_wall_p50 = {statistics.median(r.wall for r in rounds):.6g} s, "
          f"item_p50 = {statistics.median(times) * 1e3:.6g} ms, "
          f"host_slowness_p50 = {statistics.median(slowness):.4g}")


def traced_self_times(tracer, traced) -> Counter:
    """Self time per span name, summed over the traced rounds."""
    total = Counter()
    for rnd in traced:
        total.update(tracer.self_times(*rnd.spans))
    return total


def per_layer_metrics(tracer, setup_spans, plain, traced) -> dict:
    n = len(traced)
    setup_self = tracer.self_times(*setup_spans)
    round_self = traced_self_times(tracer, traced)
    out = {f"{span}_s": setup_self[span] + round_self[span] / n
           for span in SPAN_LAYERS + CLI_SPAN_LAYERS}
    # items as a whole, not their self time: the base of the layer shares
    out["bench.item_s"] = sum(sum(r.times) for r in traced) / n
    counts = traced[0].counts
    for name in COUNT_LAYERS + ("chain.draws",):
        out[name] = counts.get("items" if name == "bench.items" else name, 0)
    fp_round = round_self["passage.first_passage"] / n
    out["passage.ns_per_nnz_step"] = (fp_round / out["passage.nnz_steps"] * 1e9
                                      if out["passage.nnz_steps"] else 0.0)
    sample_round = round_self["chain.sample"] / n
    out["chain.ns_per_draw"] = (sample_round / out["chain.draws"] * 1e9
                                if out["chain.draws"] else 0.0)
    calls = out["moments.f_moment_calls"]
    out["moments.certified_ratio"] = out["moments.converged"] / calls if calls else 0.0
    for label, metric in CLI_WALLS.items():
        walls = [t for r in plain for k, t in zip(r.keys, r.times) if k == label]
        out[metric] = statistics.median(walls) if walls else 0.0
    out["trace_overhead_frac"] = (statistics.median(r.wall for r in traced)
                                  / statistics.median(r.wall for r in plain) - 1.0)
    return out


def report(metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")


def report_shares(tracer, traced) -> None:
    """Each layer's self time in traced rounds as a share of their item time."""
    item_time = sum(sum(r.times) for r in traced)
    round_self = traced_self_times(tracer, traced)
    for span in SPAN_LAYERS[:-2] + CLI_SPAN_LAYERS:
        if round_self[span]:
            print(f"# share of item time: {span} {round_self[span] / item_time:.1%}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "recur_moments", "__init__.py")):
        print(f"error: no recur_moments package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import recur_moments

    if os.path.dirname(os.path.realpath(recur_moments.__file__)) != \
            os.path.realpath(os.path.join(SRC, "recur_moments")):
        print(f"error: recur_moments imported from {recur_moments.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer, instrument
    from workloads import EXACT_COUNTS, WORKLOADS, ItemClock

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        tracer = Tracer() if args.trace else None
        with instrument(tracer) if tracer is not None else contextlib.nullcontext():
            workload.setup()
        setup_spans = (0, len(tracer.spans)) if tracer is not None else None
        warm = ItemClock(calibrate=workload.calibrate)
        workload.warm_up(warm)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0 if not warm.failed else 1
        print("# header " + json.dumps(header(args), sort_keys=True))
        plain, traced = run_rounds(workload, args.seconds, tracer)
        expected = workload.expected_counts()
        problems = [f"warm-up: {why}" for why in warm.failed.values()]
        problems += count_problems(plain, expected, ["items"])
        if traced:
            problems += count_problems(traced, expected, EXACT_COUNTS)
            metrics = per_layer_metrics(tracer, setup_spans, plain, traced)
            units = PER_LAYER if args.workload != "cli_cold" else {**PER_LAYER, **CLI_PER_LAYER}
        else:
            rss_mb = peak_rss_mb(workload)
            setups = [setup_s] + [child_setup_seconds(args)
                                  for _ in range(SETUP_REPEATS - 1)]
            metrics = end_to_end_metrics(plain, setups, rss_mb)
            units = END_TO_END
        rounds = plain + traced
        attempted = sum(len(r.times) for r in rounds)
        failed = sum(len(r.failed) for r in rounds)
        for rnd in rounds:
            for key, why in list(rnd.failed.items())[:5]:
                print(f"failed item {key!r}: {why}", file=sys.stderr)
        for problem in problems:
            print(f"count check: {problem}", file=sys.stderr)
        print(f"# rounds untraced={len(plain)} traced={len(traced)} items={attempted} "
              f"failed={failed} fail_frac={failed / attempted:.6g}")
        print("# counts per round " + json.dumps(dict((traced or plain)[0].counts)))
        report_raw(plain)
        report(metrics, units)
        if traced:
            report_shares(tracer, traced)
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
