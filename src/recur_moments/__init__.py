"""Passage-time laws of finite Markov chains, generalized f-moments with
certified convergence verdicts, growth-condition diagnostics for moment
functions, and executable counterexample constructions."""

from __future__ import annotations

from .errors import (RecurMomentsError, InvalidInput, NoSuchPath,
                     IncomparableLaws, PreconditionFailed,
                     WitnessSearchExhausted, ConvergenceFailure)
from ._atomic import AtomicDist
from .chain import (TransitionKernel, KernelReport, validate_kernel,
                    build_two_state, build_petal_chain, random_kernel,
                    stationary_distribution, TwoStateChain, PetalChain,
                    sample_passage_times, save_kernel_json, load_kernel_json)
from .passage import (PassageLaw, TailCert, DominationReport,
                      first_passage_law, hit_before_return_prob,
                      conditioned_return_law, conditioned_hit_law,
                      crossing_return_law, convolve, geometric_compound,
                      mixture, stochastic_dominates, law_to_csv, law_from_csv)
from .momentfn import (MomentFunction, FunctionKind, BurstSchedule,
                       default_burst_schedule, burst_schedule_from_csv,
                       power_fn, log_power_fn, exp_fn, burst_fn, custom_fn,
                       parse_function_spec, Classification, classify,
                       VERDICT_SATISFIES, VERDICT_VIOLATES_SUBMULT,
                       VERDICT_VIOLATES_GROWTH, VERDICT_INCONCLUSIVE)
from .moments import (MomentEstimate, f_moment, SeriesVerdict,
                      lower_bound_series, MCMomentEstimate, mc_f_moment,
                      VERDICT_CONVERGED, VERDICT_DIVERGED,
                      VERDICT_INCONCLUSIVE as MOMENT_INCONCLUSIVE)
from .constructions import (Witness, witness_search, HeavyTailPair,
                            heavy_tail_pair, DemoReport, demo_sharp,
                            demo_exponential, write_series_trace)

__version__ = "0.1.0"

__all__ = [
    "RecurMomentsError", "InvalidInput", "NoSuchPath", "IncomparableLaws",
    "PreconditionFailed", "WitnessSearchExhausted", "ConvergenceFailure",
    "AtomicDist",
    "TransitionKernel", "KernelReport", "validate_kernel", "build_two_state",
    "build_petal_chain", "random_kernel", "stationary_distribution",
    "TwoStateChain", "PetalChain", "sample_passage_times",
    "save_kernel_json", "load_kernel_json",
    "PassageLaw", "TailCert", "DominationReport", "first_passage_law",
    "hit_before_return_prob", "conditioned_return_law", "conditioned_hit_law",
    "crossing_return_law", "convolve", "geometric_compound", "mixture",
    "stochastic_dominates", "law_to_csv", "law_from_csv",
    "MomentFunction", "FunctionKind", "BurstSchedule",
    "default_burst_schedule", "burst_schedule_from_csv", "power_fn",
    "log_power_fn", "exp_fn", "burst_fn", "custom_fn", "parse_function_spec",
    "Classification", "classify", "VERDICT_SATISFIES",
    "VERDICT_VIOLATES_SUBMULT", "VERDICT_VIOLATES_GROWTH",
    "VERDICT_INCONCLUSIVE",
    "MomentEstimate", "f_moment", "SeriesVerdict",
    "lower_bound_series", "MCMomentEstimate", "mc_f_moment",
    "VERDICT_CONVERGED", "VERDICT_DIVERGED", "MOMENT_INCONCLUSIVE",
    "Witness", "witness_search", "HeavyTailPair", "heavy_tail_pair",
    "DemoReport", "demo_sharp", "demo_exponential", "write_series_trace",
    "__version__",
]
