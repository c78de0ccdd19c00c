"""Scalar potential families: closed forms vs finite differences."""

import warnings

import numpy as np
import pytest

from mkg.kahler import KahlerFamily
from mkg.potentials import PotentialKind, polynomial, sine_gordon, toda
from kahler_oracle import kahler_potential


def test_polynomial_values():
    fam = polynomial(1.0, 2.0, 0.5)          # 1 + 2 Psi + Psi^2 / 2
    psi = np.array([0.0, 1.0, 2.0])
    assert fam.value(psi) == pytest.approx([1.0, 3.5, 7.0])
    assert fam.prime(psi) == pytest.approx([2.0, 3.0, 4.0])


def _term_sum(coeffs, x):
    """The term-by-term reference: +0.0 plus c x**k for each nonzero c."""
    out = np.zeros_like(x)
    for k, c in coeffs.items():
        if c != 0.0:
            out = out + c * x**k
    return out


@pytest.mark.parametrize("coefficients", [
    (0.0, 0.0, 1.0), (1.0,), (-0.0,), (0.0, -1.0), (-0.0, 0.0, -2.0),
    (3.0, -0.0, 0.0, -1.5), (0.0, 0.0, 1.0, 0.0, 0.25),
    (0.0, 0.0, 1.0, 0.0, -0.3, 0.0, 0.05)])
def test_polynomial_evaluator_keeps_every_bit(coefficients):
    """V, V' and the radial series of a target with Phi's coefficients give
    the bits of the term-by-term sum from +0.0, the sign of a zero included
    (a term c x**n with c < 0 at x = 0 is -0.0, and the sum +0.0), in an
    array of the argument's shape."""
    x = np.array([[0.0, 1e-300, 0.5], [1.0, 2.0, 37.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")       # V < 0 somewhere on its scan
        potential = polynomial(*coefficients)
    value = dict(enumerate(coefficients))
    prime = {n - 1: n * a for n, a in value.items() if n}
    pairs = [(potential.value(x), _term_sum(value, x)),
             (potential.prime(x), _term_sum(prime, x))]
    if all(c == 0.0 for c in coefficients[1::2]):
        target = KahlerFamily(coefficients=coefficients)
        pairs += [(kahler_potential(target, x), _term_sum(value, x)),
                  (target.alpha(x), _term_sum(target._alpha_poly, x)),
                  (target.q(x), _term_sum(target._q_poly, x)),
                  (target.q_prime_over_2r(x), _term_sum(target._qp2r_poly, x))]
    for got, want in pairs:
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes()


def test_polynomial_degree():
    assert polynomial(0.0, 0.0, 1.0).polynomial_degree == 2
    assert polynomial(0.0, 3.0).polynomial_degree == 1


def test_sine_gordon_values():
    fam = sine_gordon(2.0, 1.5)
    psi = np.array([0.0, 0.7])
    # V = v0 (1 - cos(lam Psi))
    assert fam.value(psi) == pytest.approx(2.0 * (1 - np.cos(1.5 * psi)))
    d = 1e-6
    fd = (fam.value(psi + d) - fam.value(psi - d)) / (2 * d)
    assert fam.prime(psi) == pytest.approx(fd, abs=1e-7)


def test_toda_values():
    fam = toda((1.0, 0.5), (2.0, 0.25))
    psi = np.array([0.0, 1.0])
    # decaying exponential pairs: V = sum a_n exp(-lam_n Psi)
    expect = 1.0 * np.exp(-0.5 * psi) + 2.0 * np.exp(-0.25 * psi)
    assert fam.value(psi) == pytest.approx(expect)
    d = 1e-6
    fd = (fam.value(psi + d) - fam.value(psi - d)) / (2 * d)
    assert fam.prime(psi) == pytest.approx(fd, abs=1e-6)


def test_toda_requires_positive_rate():
    with pytest.raises(Exception):
        toda((1.0, -0.5))


def test_kinds():
    assert polynomial(1.0).kind is PotentialKind.POLYNOMIAL
    assert sine_gordon(1.0, 1.0).kind is PotentialKind.SINE_GORDON
    assert toda((1.0, 1.0)).kind is PotentialKind.TODA
