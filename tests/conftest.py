from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from recur_moments import TransitionKernel

# every property test draws the same examples on every run and stores none
settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")


@pytest.fixture
def kernel3() -> TransitionKernel:
    """Fixed irreducible 3-state chain used across oracle comparisons."""
    return TransitionKernel(
        ["a", "b", "c"],
        [
            [(0, 0.2), (1, 0.5), (2, 0.3)],
            [(0, 0.4), (1, 0.1), (2, 0.5)],
            [(0, 0.6), (1, 0.2), (2, 0.2)],
        ],
    )


@pytest.fixture
def kernel4() -> TransitionKernel:
    """Fixed 4-state chain with one structural zero (no a -> c edge)."""
    return TransitionKernel(
        ["a", "b", "c", "d"],
        [
            [(0, 0.1), (1, 0.6), (3, 0.3)],
            [(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)],
            [(1, 0.5), (2, 0.1), (3, 0.4)],
            [(0, 0.7), (2, 0.3)],
        ],
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
