from __future__ import annotations

import math
import warnings

import pytest

from recur_moments.logspace import LOG_ZERO, logsumexp


@pytest.mark.parametrize("values", [[math.inf], [0.0, math.inf], [LOG_ZERO, math.inf, 5.0],
                                    [math.inf, math.inf]])
def test_logsumexp_with_plus_infinity_is_infinite(values):
    # inf - inf was NaN: an infinite mass must stay infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert logsumexp(values) == math.inf


def test_logsumexp_finite_and_empty():
    assert logsumexp([]) == LOG_ZERO
    assert logsumexp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO
    assert logsumexp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
