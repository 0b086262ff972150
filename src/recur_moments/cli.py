"""Command-line interface.

Subcommands:

* ``fpt``       first-passage / return-time law of a chain, as CSV;
* ``classify``  growth-condition verdict for a moment function, as JSON;
* ``moment``    certified or Monte Carlo f-moment of a passage time, as JSON;
* ``demo``      the counterexample demonstrations, as JSON (+ trace CSV).

Exit codes: 0 on success, 2 on invalid input (bad flags, malformed files,
bad parameters, a size too large for memory), 3 when a mathematical
precondition fails or a demonstration does not reach its verdict.  Outputs are deterministic: sorted JSON keys,
fixed float formatting, and a fixed default seed (12345) for sampling.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys

from ._atomic import AtomicDist
from .chain import (ChainLike, PetalChain, TransitionKernel, TwoStateChain,
                    _opened, load_kernel_json)
from .errors import (ConvergenceFailure, IncomparableLaws, InvalidInput,
                     NoSuchPath, PreconditionFailed)
from .momentfn import classify, parse_function_spec
from .moments import f_moment, mc_f_moment
from .constructions import demo_exponential, demo_sharp, write_series_trace
from .passage import (conditioned_hit_law, conditioned_return_law,
                      crossing_return_law, first_passage_law, law_to_csv)

DEFAULT_SEED = 12345
_SIGNED_FLOAT = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)", re.IGNORECASE)

_LAW_MODES = {
    "passage": first_passage_law,
    "return-avoiding": conditioned_return_law,
    "hit-first": conditioned_hit_law,
    "return-crossing": crossing_return_law,
}


# ---------------------------------------------------------------------------
# argument plumbing


def _add_chain_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("chain selection")
    grp.add_argument("--kernel", metavar="FILE",
                     help="chain as JSON: {'states': [...], 'rows': [[[state, p], ...], ...]}")
    grp.add_argument("--builtin", metavar="SPEC",
                     help="built-in chain: 'two-state:P' or 'petal:FILE' where FILE is "
                          "JSON {'p': P, 'u1': {length: prob, ...}, 'u2': {...}}")


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("output")
    grp.add_argument("--output", metavar="FILE", help="write the payload to FILE")
    grp.add_argument("--output-dir", metavar="DIR",
                     help="write the payload (and side artifacts) into DIR with default names")


def _number(value) -> float:
    """A JSON number as a float; float() would also read true and "1"."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _loop_law(obj, key: str) -> AtomicDist:
    """The loop-length law of a petal file's object ``key``: {length: prob, ...}."""
    pairs = obj[key]
    if not isinstance(pairs, dict):
        raise TypeError(f"{key!r} is not an object of length: probability pairs")
    return AtomicDist.from_pairs({int(k): _number(v) for k, v in pairs.items()})


def _load_petal(path: str) -> PetalChain:
    with _opened(path, bad=f"petal file {str(path)!r} is not valid JSON") as fh:
        obj = json.loads(fh.read())
    try:
        p, u1, u2 = _number(obj["p"]), _loop_law(obj, "u1"), _loop_law(obj, "u2")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # past float or int64
        raise InvalidInput(f"bad petal JSON {path!r}: {exc}") from None
    return PetalChain(u1, u2, p)


def _parse_builtin(spec: str) -> ChainLike:
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise InvalidInput(f"bad builtin spec {spec!r}: expected kind:parameter")
    if kind == "two-state":
        try:
            p = float(rest)
        except ValueError:
            raise InvalidInput(f"bad two-state parameter {rest!r}") from None
        return TwoStateChain(p)
    if kind == "petal":
        return _load_petal(rest)
    raise InvalidInput(f"unknown builtin chain {kind!r}")


def _load_chain(args) -> ChainLike:
    if args.kernel and args.builtin:
        raise InvalidInput("give either --kernel or --builtin, not both")
    if args.kernel:
        return load_kernel_json(args.kernel)
    if args.builtin:
        return _parse_builtin(args.builtin)
    raise InvalidInput("a chain is required: --kernel FILE or --builtin SPEC")


def _kernel_of(chain: ChainLike) -> TransitionKernel:
    return chain if isinstance(chain, TransitionKernel) else chain.kernel()


def _resolve_state(chain: ChainLike, raw: str):
    """A state name of a kernel as given, else an index; a parametric
    chain resolves its own names '0' and '1'."""
    if isinstance(chain, TransitionKernel) and raw not in chain.states and raw.removeprefix("-").isdecimal():
        return int(raw)
    return raw  # index_of will raise a descriptive InvalidInput


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, args, default_name: str) -> None:
    if args.output:
        path = args.output
    elif args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        path = os.path.join(args.output_dir, default_name)
    else:
        sys.stdout.write(text)
        return
    with _opened(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fpt(args) -> int:
    kernel = _kernel_of(_load_chain(args))
    src = _resolve_state(kernel, args.source)
    tgt = _resolve_state(kernel, args.target)
    law = _LAW_MODES[args.mode](kernel, src, tgt, args.horizon)
    buf = io.StringIO()
    law_to_csv(law, buf)
    _emit(buf.getvalue(), args, "law.csv")
    return 0


def _cmd_classify(args) -> int:
    f = parse_function_spec(args.function)
    result = classify(f)
    payload = {
        "function": f.name,
        "verdict": result.verdict,
        "detail": result.detail,
        "rate": result.rate,
        "witnesses": [{"x": x, "y": y, "log_defect": d} for x, y, d in result.witnesses],
    }
    _emit(_json_text(payload), args, "classification.json")
    return 0


def _cmd_moment(args) -> int:
    chain = _load_chain(args)
    f = parse_function_spec(args.function)
    if args.method == "exact":
        chain = _kernel_of(chain)
    src, tgt = _resolve_state(chain, args.source), _resolve_state(chain, args.target)
    if args.method == "exact":
        law = first_passage_law(chain, src, tgt, args.horizon)
        est = f_moment(law, f)
        _emit(_json_text(est.to_json_dict()), args, "moment.json")
        return 0
    # Monte Carlo: parametric chains sample through their closed forms.
    # Looked up at call time, so that a wrapper swapped into the chain
    # module (perfbench/tracing.py) is the one called.
    from .chain import sample_passage_times
    est = mc_f_moment(lambda n, cap, rng: sample_passage_times(chain, src, tgt, n, cap, rng=rng),
                      f, n_samples=args.samples, cap=args.cap, seed=args.seed)
    payload = {
        "log_mean": est.log_mean,
        "se_log": est.se_log,
        "n_samples": est.n_samples,
        "n_censored": est.n_censored,
        "cap": est.cap,
    }
    _emit(_json_text(payload), args, "mc_moment.json")
    return 0


def _cmd_demo(args) -> int:
    if args.which == "sharp":
        report = demo_sharp(k_max=args.k_max,
                            p=args.p if args.p is not None else 0.5,
                            log_threshold=args.threshold_log)
    else:
        report = demo_exponential(delta=args.delta,
                                  p=args.p if args.p is not None else 0.25,
                                  log_threshold=args.threshold_log)
    _emit(_json_text(report.to_json_dict()), args, f"demo_{report.name}.json")
    if args.trace:
        write_series_trace(report, args.trace)
    elif args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        write_series_trace(report, os.path.join(args.output_dir,
                                                f"demo_{report.name}_trace.csv"))
    return 0 if report.succeeded else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recur-moments",
        description="Passage-time laws of finite chains, certified f-moments, "
                    "growth-condition classification, and counterexample demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    fpt = sub.add_parser(
        "fpt", help="compute a passage or return law as CSV",
        description="Exact law of a first-passage or return time up to a horizon. "
                    "Modes: 'passage' (hit --to from --from), 'return-avoiding' "
                    "(return to --from never visiting --to), 'hit-first' (hit --to "
                    "before returning to --from), 'return-crossing' (return to "
                    "--from having visited --to).")
    _add_chain_args(fpt)
    fpt.add_argument("--from", dest="source", required=True, metavar="STATE",
                     help="source state name or index")
    fpt.add_argument("--to", dest="target", required=True, metavar="STATE",
                     help="target state name or index")
    fpt.add_argument("--horizon", type=int, required=True)
    fpt.add_argument("--mode", choices=sorted(_LAW_MODES), default="passage")
    _add_output_args(fpt)
    fpt.set_defaults(func=_cmd_fpt)

    cls = sub.add_parser(
        "classify", help="classify a moment function's growth behavior",
        description="Decide from f's family alone, never from sampled values, "
                    "whether f is submultiplicative with subexponential growth "
                    "(SatisfiesC) or provably violates one of the two conditions "
                    "(ViolatesC_i / ViolatesC_ii).  Functions with no analytic "
                    "certificate either way are Inconclusive.")
    cls.add_argument("--function", required=True, metavar="SPEC",
                     help="power:P | logpow:Q | exp:DELTA | burst:default | burst:file=PATH")
    _add_output_args(cls)
    cls.set_defaults(func=_cmd_classify)

    mom = sub.add_parser(
        "moment", help="f-moment of a passage time (certified or Monte Carlo)",
        description="Exact partial sums with certified tail bounds "
                    "(--method exact), or a chunked deterministic Monte Carlo "
                    "lower-bound estimate (--method mc).")
    _add_chain_args(mom)
    mom.add_argument("--from", dest="source", required=True, metavar="STATE")
    mom.add_argument("--to", dest="target", required=True, metavar="STATE")
    mom.add_argument("--function", required=True, metavar="SPEC")
    mom.add_argument("--method", choices=["exact", "mc"], default="exact")
    mom.add_argument("--horizon", type=int, default=1024,
                     help="computed support for --method exact (default 1024)")
    mom.add_argument("--samples", type=int, default=100_000,
                     help="Monte Carlo sample count (default 100000)")
    mom.add_argument("--cap", type=int, default=10 ** 6,
                     help="censoring cap per trajectory (default 1e6)")
    mom.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"PRNG seed (default {DEFAULT_SEED})")
    _add_output_args(mom)
    mom.set_defaults(func=_cmd_moment)

    demo = sub.add_parser(
        "demo", help="run a counterexample demonstration",
        description="'sharp': burst function with finite single-return moment "
                    "and certified divergent iterated-return series.  "
                    "'exponential': e^(delta n) with a closed-form finite side "
                    "and a certified divergent series (needs e^delta (1-p) > 1). "
                    "Exit code 3 if the demonstration does not reach its verdict.")
    demo.add_argument("which", choices=["sharp", "exponential"])
    demo.add_argument("--k-max", type=int, default=8, help="witness range for 'sharp'")
    demo.add_argument("--p", type=float, default=None,
                      help="chain parameter: hub exit probability for 'sharp' "
                           "(default 0.5), hop probability for 'exponential' "
                           "(default 0.25)")
    demo.add_argument("--delta", type=float, default=0.5, help="rate for 'exponential'")
    demo.add_argument("--threshold-log", type=float, default=math.log(1e6))
    demo.add_argument("--trace", metavar="FILE", help="write the series trace CSV to FILE")
    _add_output_args(demo)
    demo.set_defaults(func=_cmd_demo)

    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """``--flag -1e3`` as ``--flag=-1e3``: argparse takes only values like
    ``-1`` or ``-.5`` for numbers, and ``-1e3`` or ``-inf`` for an option.
    Every flag here but --help takes one value, so attaching keeps the meaning."""
    out: list[str] = []
    for tok in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and _SIGNED_FLOAT.fullmatch(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (NoSuchPath, IncomparableLaws, PreconditionFailed, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
