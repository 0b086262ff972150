"""Finite distributions on the positive integers, stored in log space.

Shared by the chain-construction and passage-law modules; the public name is
re-exported from :mod:`recur_moments.passage`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .logspace import LOG_ZERO, log_add, logsumexp

_MASS_TOL = 1e-10


@dataclass(frozen=True)
class AtomicDist:
    """Atoms on {1, 2, ...} with log-weights plus explicit unassigned tail mass.

    Invariants enforced at construction:

    * atoms are integers >= 1, strictly increasing;
    * ``logsumexp(log_probs) + tail`` accounts for total mass 1 within 1e-10.

    ``log_tail`` is mass that is known to exist but has not been assigned to
    an atom (truncation, pruning).  Its support points are unknown, so any
    operation that needs the full pointwise law requires ``is_complete``.
    """

    atoms: np.ndarray
    log_probs: np.ndarray
    log_tail: float = LOG_ZERO

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.int64)
        log_probs = np.asarray(self.log_probs, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "log_probs", log_probs)
        object.__setattr__(self, "log_tail", float(self.log_tail))
        if atoms.ndim != 1 or log_probs.shape != atoms.shape:
            raise InvalidInput("atoms and log_probs must be 1-d arrays of equal length")
        if atoms.size == 0:
            raise InvalidInput("an atomic distribution needs at least one atom")
        if atoms[0] < 1:
            raise InvalidInput("atoms must be >= 1")
        if atoms.size > 1 and not np.all(np.diff(atoms) > 0):
            raise InvalidInput("atoms must be strictly increasing")
        if self.log_tail > _MASS_TOL:
            raise InvalidInput(f"tail mass exceeds 1: log_tail={self.log_tail}")
        total = self.log_mass()
        if not abs(total) <= _MASS_TOL:
            raise InvalidInput(f"total mass off by more than 1e-10: log total = {total}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs) -> "AtomicDist":
        """Build from (value, probability) pairs in linear space."""
        items = sorted((int(v), float(p)) for v, p in dict(pairs).items())
        if not items:
            raise InvalidInput("no atoms given")
        values = np.array([v for v, _ in items], dtype=np.int64)
        probs = np.array([p for _, p in items], dtype=float)
        if np.any(probs <= 0):
            raise InvalidInput("atom probabilities must be positive")
        with np.errstate(divide="ignore"):
            return cls(values, np.log(probs))

    @classmethod
    def point_mass(cls, value: int) -> "AtomicDist":
        return cls(np.array([int(value)], dtype=np.int64), np.array([0.0]))

    # -- accessors ---------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self.log_tail == LOG_ZERO

    @property
    def max_atom(self) -> int:
        return int(self.atoms[-1])

    def log_mass(self) -> float:
        return log_add(logsumexp(self.log_probs), self.log_tail)

    def probs(self) -> np.ndarray:
        """Linear-space atom probabilities."""
        return np.exp(self.log_probs)

    def log_prob(self, value: int) -> float:
        idx = np.searchsorted(self.atoms, value)
        if idx < self.atoms.size and self.atoms[idx] == value:
            return float(self.log_probs[idx])
        return LOG_ZERO
