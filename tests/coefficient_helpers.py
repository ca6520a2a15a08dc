"""Coefficient sources the tests step with, next to the tests that use them."""

import numpy as np


class ConstantCoefficients:
    """Fixed-in-time coefficient source; the default gives free propagation."""

    def __init__(self, v=None, g=None):
        self._v = v
        self._g = g

    def potential(self, x, t):
        if self._v is None:
            return np.zeros((2, len(x)))
        return np.broadcast_to(self._v, (2, len(x))).copy()

    def couplings(self, x, t):
        if self._g is None:
            return np.zeros((2, 2, len(x)))
        return np.broadcast_to(self._g, (2, 2, len(x))).copy()
