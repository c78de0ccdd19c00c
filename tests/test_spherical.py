"""Sphere quadrature, the spherical-means representation formula, and the
lattice evolver's free waves against it."""

import numpy as np
import pytest

from analytic_fields import (Constant, FourierInterpolant, LinearTime,
                             PlaneWave, SampledField, Superposition)
from kirchhoff import SphereQuadrature, kirchhoff_lin, kirchhoff_residual_scan
from mkg.dynamics import step_rk4
from mkg.lattice import LatticeSpec, zero_state
from mkg.scenarios import make_model

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


# A real band-limited pulse on the unit periodic box: the modes m in
# {-2..2}^3 weighted by exp(-|m|^2), peaked at the box centre and moving
# along +x (pi = -d_x phi).  Every mode is resolved on 16^3 (Nyquist 8), so
# both grids sample one field and its Fourier interpolant is that field.
PULSE_MODES = np.array(np.meshgrid(*[np.arange(-2, 3)] * 3,
                                   indexing="ij")).reshape(3, -1).T
PULSE_WEIGHTS = np.exp(-np.sum(PULSE_MODES**2, axis=1))
PULSE_WEIGHTS /= PULSE_WEIGHTS.sum()        # phi = 1 at the centre
PULSE_SITES = np.array([[0.5, 0.5, 0.5], [0.25, 0.5, 0.5], [0.75, 0.5, 0.5],
                        [0.5, 0.25, 0.75]])   # lattice sites of both grids


def pulse(x):
    """(phi, pi) of the pulse at points x of shape (..., 3)."""
    arg = 2.0 * np.pi * (x - 0.5) @ PULSE_MODES.T
    phi = np.cos(arg) @ PULSE_WEIGHTS
    pi = np.sin(arg) @ (2.0 * np.pi * PULSE_MODES[:, 0] * PULSE_WEIGHTS)
    return phi, pi


@pytest.mark.parametrize("order", [2, 4])
def test_evolver_matches_kirchhoff(order):
    """The lattice evolver under free_scalar_wave's model (V = 0, flat
    target, no charge, so the scalar obeys the wave equation) takes the
    pulse to t = 0.25 at cfl 0.25 on 16^3 and 32^3.  Kirchhoff's formula at
    r0 = t, from the t = 0 lattice data's Fourier interpolant, gives phi(t)
    at the probe sites: the lattice error falls at the stencil order, with
    the quadrature error (against the interpolant's exact value at t)
    below 1% of the 32^3 error."""
    model = make_model("free_scalar_wave")
    quad = SphereQuadrature.build(12)
    t_end = 0.25
    errors, quadrature_errors = [], []
    for n in (16, 32):
        lattice = LatticeSpec((n, n, n), 1.0 / n, stencil_order=order)
        phi, pi = pulse(np.stack(lattice.meshgrid(), axis=-1))
        state = zero_state(lattice, model.n_gauge, model.n_scalar)
        state.phi[0] = phi
        state.pi[0] = pi
        wave = FourierInterpolant(phi, pi, lattice.dx)
        sites = tuple(np.round(PULSE_SITES * n).astype(int).T)
        assert wave.value(0.0, PULSE_SITES) == pytest.approx(phi[sites],
                                                             abs=1e-12)
        dt = 0.25 * lattice.dx
        for _ in range(round(t_end / dt)):
            state = step_rk4(state, lattice, model, dt)
        assert state.t == pytest.approx(t_end, abs=1e-12)
        kirchhoff = np.array([kirchhoff_lin(wave, (t_end, x), t_end, quad)
                              for x in PULSE_SITES])
        errors.append(np.max(np.abs(state.phi[0][sites].real - kirchhoff)))
        quadrature_errors.append(np.max(np.abs(
            kirchhoff - wave.value(t_end, PULSE_SITES))))
    rate = np.log2(errors[0] / errors[1])
    assert abs(rate - order) < 0.3, (errors, rate)
    assert max(quadrature_errors) <= 0.01 * errors[1], quadrature_errors
