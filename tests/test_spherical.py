"""Sphere quadrature and the spherical-means representation formula."""

import numpy as np
import pytest

from analytic_fields import Constant, LinearTime, SampledField, Superposition
from mkg.spherical import (PlaneWave, SphereQuadrature, kirchhoff_lin,
                           kirchhoff_residual_scan)

P = (1.3, np.array([0.2, -0.1, 0.4]))


def test_quadrature_weights_and_nodes():
    for order in (2, 4, 8):
        q = SphereQuadrature.build(order)
        assert q.weights.sum() == pytest.approx(4 * np.pi, abs=1e-12)
        assert np.all(q.weights > 0)
        assert np.linalg.norm(q.nodes, axis=1) == pytest.approx(
            np.ones(len(q.nodes)), abs=1e-14)


def test_quadrature_exact_on_harmonics():
    # zonal harmonics P_l(cos theta) integrate to zero for 1 <= l <= 8, and
    # sectoral modes cos(m phi) sin(theta)^m do likewise
    q = SphereQuadrature.build(8)
    mu = q.nodes[:, 2]
    for ell in range(1, 9):
        leg = np.polynomial.legendre.Legendre.basis(ell)(mu)
        assert abs(np.sum(q.weights * leg)) < 1e-12
    phi = np.arctan2(q.nodes[:, 1], q.nodes[:, 0])
    sint = np.sqrt(1 - mu**2)
    for m in range(1, 9):
        val = np.cos(m * phi) * sint**m
        assert abs(np.sum(q.weights * val)) < 1e-12


def test_exact_on_constant():
    q = SphereQuadrature.build(4)
    assert kirchhoff_lin(Constant(2.5), P, 1.0, q) == pytest.approx(
        2.5, abs=1e-12)


def test_exact_on_linear_time():
    q = SphereQuadrature.build(4)
    for r0 in (0.3, 1.0, 2.0):
        assert kirchhoff_lin(LinearTime(), P, r0, q) == pytest.approx(
            P[0], abs=1e-12)


def test_plane_wave_order8():
    q = SphereQuadrature.build(8)
    wave = PlaneWave([1.2, 0.5, -0.8], amplitude=0.9, phase=0.3)
    got = kirchhoff_lin(wave, P, 1.0, q)
    assert abs(got - wave.value(*P)) < 1e-3


def test_convergence_with_order():
    wave = PlaneWave([1.2, 0.9, -0.7])
    errs = []
    for order in (4, 8):
        q = SphereQuadrature.build(order)
        errs.append(abs(kirchhoff_lin(wave, P, 1.0, q) - wave.value(*P)))
    assert errs[1] < errs[0] / 10.0


def test_linearity():
    q = SphereQuadrature.build(6)
    u = PlaneWave([1.0, 0.2, 0.0])
    v = PlaneWave([0.3, -0.5, 0.8], phase=0.7)
    lhs = kirchhoff_lin(Superposition(u, v), P, 1.0, q)
    rhs = kirchhoff_lin(u, P, 1.0, q) + kirchhoff_lin(v, P, 1.0, q)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_superposition_residual_comparable():
    q = SphereQuadrature.build(8)
    u = PlaneWave([1.0, 0.4, -0.2])
    v = PlaneWave([0.5, -0.8, 0.3], phase=1.1)
    single, _ = kirchhoff_residual_scan(u, [P], [1.0], q)
    double, _ = kirchhoff_residual_scan(Superposition(u, v), [P], [1.0], q)
    assert double < 10 * max(single, 1e-12) + 1e-9


def test_residual_scan_rows():
    q = SphereQuadrature.build(8)
    worst, rows = kirchhoff_residual_scan(
        PlaneWave([0.5, 0.5, 0.5]), [P, (0.0, np.zeros(3))], [0.5, 1.0], q)
    assert len(rows) == 4
    assert worst == max(r for _, _, r in rows)
    assert worst < 1e-3


def test_residual_scan_nan_is_worst():
    """A NaN residual at any point makes the scan's maximum NaN, so a
    `worst < tol` check fails instead of passing on 0."""
    q = SphereQuadrature.build(4)
    wave = PlaneWave([0.5, 0.5, 0.5])
    blows_up = SampledField(
        lambda t, x: wave.value(t, x) if t < 2.0 else float("nan"))
    for points in ([P, (3.0, np.zeros(3))], [(3.0, np.zeros(3)), P]):
        worst, rows = kirchhoff_residual_scan(blows_up, points, [1.0], q)
        assert sum(np.isnan(r) for _, _, r in rows) == 1
        assert np.isnan(worst) and not worst < 1e-3


def test_sampled_field_adapter():
    q = SphereQuadrature.build(8)
    wave = PlaneWave([0.8, 0.3, -0.4])
    sampled = SampledField(lambda t, x: wave.value(t, x), h=1e-3)
    a = kirchhoff_lin(wave, P, 1.0, q)
    b = kirchhoff_lin(sampled, P, 1.0, q)
    assert a == pytest.approx(b, abs=1e-8)
