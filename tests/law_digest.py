"""Print one sha256 over laws and moments, to show that two commits compute
the same bits.

Usage, from the root of a checkout:

    python3 tests/law_digest.py

The digest covers the first-passage, conditioned (U and V) and crossing
laws of every ordered pair of ``random_kernel`` chains of 2-8 states, three
seeded chains of each size, at horizons 600 and 1500: each law's log pmf,
linear pmf, log tail and tail certificate, and its ``f_moment`` for
``power:1``, ``power:2`` and ``exp:0.1``.  A law that raises digests as the
name of its exception.  The package is imported from the ``src`` directory
of the checkout that holds this file, so to compare two commits run the
script in each checkout (copy it into one that predates it).  The counts of
laws and moments go to standard error.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import recur_moments as rm  # noqa: E402

SIZES = range(2, 9)
SEEDS = (0, 1, 2)
HORIZONS = (600, 1500)
FUNCTIONS = ("power:1", "power:2", "exp:0.1")


def _floats(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *(np.nan if v is None else v for v in values))


def _laws(kernel, h):
    n = kernel.n_states
    for i in range(n):
        for j in range(n):
            yield lambda: rm.first_passage_law(kernel, i, j, h)
            if i != j:
                for law_fn in (rm.conditioned_return_law, rm.conditioned_hit_law,
                               rm.crossing_return_law):
                    yield lambda: law_fn(kernel, i, j, h)


def main() -> None:
    digest = hashlib.sha256()
    fns = [rm.parse_function_spec(spec) for spec in FUNCTIONS]
    n_laws = n_moments = 0
    for n in SIZES:
        for seed in SEEDS:
            kernel = rm.random_kernel(n, np.random.default_rng([n, seed]))
            for h in HORIZONS:
                for make in _laws(kernel, h):
                    try:
                        law = make()
                    except (rm.InvalidInput, rm.NoSuchPath) as exc:
                        digest.update(type(exc).__name__.encode())
                        continue
                    cert = law.tail_cert
                    digest.update(law.log_pmf.tobytes())
                    digest.update(law.linear_pmf().tobytes())
                    digest.update(_floats(law.log_tail, cert and cert.start, cert and cert.rho))
                    n_laws += 1
                    for f in fns:
                        est = rm.f_moment(law, f)
                        digest.update(est.verdict.encode())
                        digest.update(_floats(est.log_partial_sum, est.log_tail_bound,
                                              est.gamma, est.rho))
                        n_moments += 1
    print(digest.hexdigest())
    print(f"{n_laws} laws, {n_moments} moments", file=sys.stderr)


if __name__ == "__main__":
    main()
