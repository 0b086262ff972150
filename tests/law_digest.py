"""Print three sha256 digests, one over laws of small chains, one over
their tail certificates and moments, and one over laws of wide sparse
chains, to show that two commits compute the same bits.

Usage, from the root of a checkout:

    python3 tests/law_digest.py

The digest covers the first-passage, conditioned (U and V) and crossing
laws of every ordered pair of ``random_kernel`` chains of 2-8 states, three
seeded chains of each size, at horizons 600 and 1500.  The first line
covers each law's log pmf, linear pmf and log tail; a law that raises
digests there as the name of its exception.  The second covers each law's
tail certificate and its ``f_moment`` for ``power:1``, ``power:2`` and
``exp:0.1``, so a change to certificates alone leaves the first line as it
was.  The third covers the same three arrays of the first-passage laws,
at horizon 1000, of three pairs of two ``sparse_ring_kernel`` chains: 3000
states with 5 nonzeros a row, and 40 000 states with 4, whose operator is
too wide for a block of two rows.  Their conditioned and crossing laws are
left out, because each solves a dense n x n split.  The package is
imported from the ``src`` directory of the checkout that holds this file,
so to compare two commits run the script in each checkout (copy it into
one that predates it).  The counts of laws and moments go to standard
error.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import recur_moments as rm  # noqa: E402
from helpers import sparse_ring_kernel  # noqa: E402

SIZES = range(2, 9)
SEEDS = (0, 1, 2)
HORIZONS = (600, 1500)
FUNCTIONS = ("power:1", "power:2", "exp:0.1")
WIDE = ((3000, 5), (40_000, 4))  # (states, nonzeros a row) of the wide chains
WIDE_HORIZON = 1000
_CERT_FIELDS = ("start", "rho", "log_bound")  # a field a certificate lacks digests as NaN


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


def _digest(law, out) -> None:
    out.update(law.log_pmf.tobytes())
    out.update(law.linear_pmf().tobytes())
    out.update(_floats(law.log_tail))


def main() -> None:
    laws, certs, wide = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
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
                        laws.update(type(exc).__name__.encode())
                        continue
                    _digest(law, laws)
                    n_laws += 1
                    cert = law.tail_cert
                    certs.update(_floats(*(getattr(cert, name, None) for name in _CERT_FIELDS)))
                    for f in fns:
                        est = rm.f_moment(law, f)
                        certs.update(est.verdict.encode())
                        certs.update(_floats(est.log_partial_sum, est.log_tail_bound,
                                             est.gamma, est.rho))
                        n_moments += 1
    n_wide = 0
    for n, per_row in WIDE:
        kernel = sparse_ring_kernel(n, per_row, seed=n)
        for i, j in ((0, 0), (7, n // 2), (n - 1, 1)):
            _digest(rm.first_passage_law(kernel, i, j, WIDE_HORIZON), wide)
            n_wide += 1
    print(laws.hexdigest())
    print(certs.hexdigest())
    print(wide.hexdigest())
    print(f"{n_laws} laws, {n_moments} moments, {n_wide} wide laws", file=sys.stderr)


if __name__ == "__main__":
    main()
