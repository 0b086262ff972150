"""Spans and counters recorded from the benchmark's own files.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1.  Spans stay in memory until the run ends.  The self
time of a span is its duration minus the durations of its direct children;
spans on one thread never overlap, so that is the time the children cover.

Library functions are timed by swapping a timing wrapper into the namespace
the caller looks them up in, for the duration of :func:`instrument`.  The
benchmark calls the library as ``recur_moments.<name>``, and ``cli.main``
uses the names bound in ``recur_moments.cli``; both namespaces are patched.
Two internals are patched as well, so that set-up and sampling split into
layers: ``chain.validate_kernel`` (called by ``load_kernel_json``) and
``chain.sample_passage_times`` (called by the Monte Carlo sampler), together
with the ``TransitionKernel.csr`` cache.  Outside :func:`instrument` the
library runs unwrapped, which is how untraced runs measure it.

This module imports nothing outside the standard library, so a fresh
process can time the import of ``recur_moments`` with it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

#: Public function -> layer span name.  Looked up in ``recur_moments`` and in
#: ``recur_moments.cli``, wherever the name is bound.
PUBLIC_CALLS = {
    "load_kernel_json": "chain.load",
    "stationary_distribution": "chain.stationary",
    "first_passage_law": "passage.first_passage",
    "hit_before_return_prob": "passage.hit_prob",
    "conditioned_return_law": "passage.conditioned",
    "conditioned_hit_law": "passage.conditioned",
    "crossing_return_law": "passage.crossing",
    "geometric_compound": "passage.compound",
    "mixture": "passage.mixture",
    "stochastic_dominates": "passage.dominates",
    "f_moment": "moments.f_moment",
    "mc_f_moment": "moments.mc",
    "classify": "momentfn.classify",
    "demo_sharp": "constructions.demo_sharp",
}

#: Internal functions of ``recur_moments.chain`` -> layer span name.
CHAIN_INTERNALS = {
    "validate_kernel": "chain.validate",
    "sample_passage_times": "chain.sample",
}


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._nnz: dict[int, int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` timed as a span ``name``, with its call counted."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + "_calls"] += 1
            self._count_work(name, args, kwargs, result)
            return result

        traced.untraced = fn
        return traced

    def _count_work(self, name, args, kwargs, result) -> None:
        if name == "passage.first_passage":
            kernel = args[0] if args else kwargs["kernel"]
            horizon = args[3] if len(args) > 3 else kwargs["horizon"]
            key = id(kernel)
            if key not in self._nnz:
                self._nnz[key] = sum(map(len, kernel.rows))
            self.counts["passage.nnz_steps"] += self._nnz[key] * int(horizon)
        elif name == "moments.f_moment":
            self.counts["moments." + result.verdict] += 1
        elif name == "chain.sample":
            # one uniform draw per live trajectory per step; censored
            # trajectories report the cap, which is also their step count
            self.counts["chain.draws"] += int(result[0].sum())

    def merge(self, spans, counts) -> None:
        """Append spans and counts recorded by another process."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1])
        self.counts.update(counts)

    def self_times(self, first: int = 0, last: int | None = None) -> Counter:
        """Total self time per span name over ``spans[first:last]``."""
        last = len(self.spans) if last is None else last
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for idx in range(first, last):
            name, start, end, _ = self.spans[idx]
            out[name] += (end - start) - child[idx]
        return out

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _untraced(fn):
    return getattr(fn, "untraced", fn)


def _patch_targets():
    """(namespace, key, current value, span name) for every patched callable.

    An :func:`instrument` block inside another one wraps the library
    functions themselves, so each call is recorded by the innermost tracer
    only."""
    rm = importlib.import_module("recur_moments")
    cli = importlib.import_module("recur_moments.cli")
    chain = importlib.import_module("recur_moments.chain")
    targets = []
    for module in (rm, cli):
        for attr, layer in PUBLIC_CALLS.items():
            if attr in vars(module):
                targets.append((vars(module), attr, vars(module)[attr], layer))
    originals = {_untraced(vars(rm)[attr]): layer for attr, layer in PUBLIC_CALLS.items()}
    # subcommands dispatched through a table of law functions
    for name, table in vars(cli).items():
        if isinstance(table, dict) and not name.startswith("__"):
            for key, fn in table.items():
                if callable(fn) and _untraced(fn) in originals:
                    targets.append((table, key, fn, originals[_untraced(fn)]))
    for attr, layer in CHAIN_INTERNALS.items():
        targets.append((vars(chain), attr, vars(chain)[attr], layer))
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the library calls the benchmark and ``cli.main`` make through
    ``tracer`` until the block exits."""
    from recur_moments.chain import TransitionKernel

    targets = _patch_targets()
    csr_prop = TransitionKernel.__dict__["csr"]
    traced_csr = functools.cached_property(tracer.wrap("chain.csr", _untraced(csr_prop.func)))
    traced_csr.__set_name__(TransitionKernel, "csr")
    try:
        for namespace, key, fn, layer in targets:
            namespace[key] = tracer.wrap(layer, _untraced(fn))
        TransitionKernel.csr = traced_csr
        yield tracer
    finally:
        for namespace, key, fn, _ in targets:
            namespace[key] = fn
        TransitionKernel.csr = csr_prop
