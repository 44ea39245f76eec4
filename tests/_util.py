"""Shared test helpers."""

import functools
import operator

import numpy as np

from pga_lab.verify import random_params  # noqa: F401  (re-exported for tests)


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def in_order(values) -> float:
    """0.0 + v[0] + v[1] + ... added left to right, as a loop adds them (the
    builtin sum compensates from Python 3.12 on)."""
    return functools.reduce(operator.add, values, 0.0)
