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

Two options make a change of certificates checkable, not just visible:

    python3 tests/law_digest.py --records FILE
    python3 tests/law_digest.py --compare OLD NEW

``--records`` also writes one JSON line per small-chain law and function:
its key, verdict, ``log_partial_sum``, ``log_upper_bound`` and the rho of
the law's certificate (null with none); the digests print as without it.
``--compare`` reads two such files, one from each commit, and reports the
records that differ in key or verdict, the certificates lost and the
largest rise and fall of ``log_upper_bound``.  It exits 1 on a missing
record, a verdict change, a lost certificate or a rise, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import sys
from pathlib import Path

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
    """(kind, i, j) and a maker of each law of ``kernel`` at horizon h."""
    n = kernel.n_states
    for i in range(n):
        for j in range(n):
            yield ("passage", i, j), lambda: rm.first_passage_law(kernel, i, j, h)
            if i != j:
                for law_fn in (rm.conditioned_return_law, rm.conditioned_hit_law,
                               rm.crossing_return_law):
                    yield (law_fn.__name__, i, j), lambda: law_fn(kernel, i, j, h)


def small_laws(sizes=SIZES, seeds=SEEDS, horizons=HORIZONS):
    """(key, law) of each small-chain law, in digest order; in place of a law
    that raises, the exception."""
    for n in sizes:
        for seed in seeds:
            kernel = rm.random_kernel(n, np.random.default_rng([n, seed]))
            for h in horizons:
                for (kind, i, j), make in _laws(kernel, h):
                    key = f"n={n} seed={seed} h={h} {kind} {i}->{j}"
                    try:
                        yield key, make()
                    except (rm.InvalidInput, rm.NoSuchPath) as exc:
                        yield key, exc


def record(key: str, law, spec: str, est) -> str:
    """The JSON line of one law and function for ``--records``."""
    cert = law.tail_cert
    return json.dumps({"key": f"{key} {spec}", "verdict": est.verdict,
                       "log_partial_sum": est.log_partial_sum,
                       "log_upper_bound": est.log_upper_bound,
                       "rho": None if cert is None else cert.rho})


def _digest(law, out) -> None:
    out.update(law.log_pmf.tobytes())
    out.update(law.linear_pmf().tobytes())
    out.update(_floats(law.log_tail))


def compare(old_path: str, new_path: str, out=sys.stdout) -> int:
    """Report how the records of ``new_path`` differ from those of
    ``old_path``; 1 on a missing record, a verdict change, a lost
    certificate or a rise of ``log_upper_bound``, else 0."""
    old, new = ({r["key"]: r for r in map(json.loads, Path(path).read_text().splitlines())}
                for path in (old_path, new_path))
    missing = sorted(old.keys() ^ new.keys())
    common = [key for key in old if key in new]
    changed = [key for key in common if old[key]["verdict"] != new[key]["verdict"]]
    lost = [key for key in common if old[key]["rho"] is not None and new[key]["rho"] is None]
    bounds = [key for key in common
              if key not in changed and old[key]["log_upper_bound"] is not None]
    moves = sorted((new[key]["log_upper_bound"] - old[key]["log_upper_bound"], key)
                   for key in bounds if old[key]["log_upper_bound"] != new[key]["log_upper_bound"])
    rises, falls = [m for m in moves if m[0] > 0.0], [m for m in moves if m[0] < 0.0]
    print(f"{len(common)} records in both, {len(missing)} in one only", file=out)
    print(f"{len(changed)} verdict changes, {len(lost)} lost certificates", file=out)
    print(f"log_upper_bound: {len(rises)} rose and {len(falls)} fell of {len(bounds)}", file=out)
    if rises:
        print(f"largest rise {rises[-1][0]:.6g} nats: {rises[-1][1]}", file=out)
    if falls:
        print(f"largest fall {-falls[0][0]:.6g} nats: {falls[0][1]}", file=out)
    for what, keys in (("in one only", missing), ("verdict changed", changed),
                       ("certificate lost", lost)):
        for key in keys[:5]:
            print(f"  {what}: {key}", file=out)
    return int(bool(missing or changed or lost or rises))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--records", metavar="FILE",
                        help="also write one JSON line per small-chain law and function")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two records files instead")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    laws, certs, wide = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    fns = [(spec, rm.parse_function_spec(spec)) for spec in FUNCTIONS]
    records = []
    n_laws = n_moments = 0
    for key, law in small_laws():
        if isinstance(law, Exception):
            laws.update(type(law).__name__.encode())
            continue
        _digest(law, laws)
        n_laws += 1
        cert = law.tail_cert
        certs.update(_floats(*(getattr(cert, name, None) for name in _CERT_FIELDS)))
        for spec, f in fns:
            est = rm.f_moment(law, f)
            certs.update(est.verdict.encode())
            certs.update(_floats(est.log_partial_sum, est.log_tail_bound, est.gamma, est.rho))
            n_moments += 1
            if args.records:
                records.append(record(key, law, spec, est) + "\n")
    if args.records:
        Path(args.records).write_text("".join(records))
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
