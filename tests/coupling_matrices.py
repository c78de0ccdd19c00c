"""Per-site coupling matrices: the reference the affine contractions of
mkg.couplings are tested against."""

import numpy as np


def matrix_value(m, psi):
    """m(psi) = base + s(psi) mod as a grid of matrices, shape psi.shape + (n, n)."""
    return m.base + np.multiply.outer(m.s(np.tanh(psi)), m.mod)


def matrix_prime(m, psi):
    """m'(psi) = s'(psi) mod as a grid of matrices, shape psi.shape + (n, n)."""
    return np.multiply.outer(m.s_prime(np.cosh(psi) ** 2), m.mod)
