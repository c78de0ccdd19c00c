"""Scalar potential families: closed forms vs finite differences."""

import numpy as np
import pytest

from mkg.potentials import PotentialKind, polynomial, sine_gordon, toda


def test_polynomial_values():
    fam = polynomial(1.0, 2.0, 0.5)          # 1 + 2 Psi + Psi^2 / 2
    psi = np.array([0.0, 1.0, 2.0])
    assert fam.value(psi) == pytest.approx([1.0, 3.5, 7.0])
    assert fam.prime(psi) == pytest.approx([2.0, 3.0, 4.0])


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
