"""Energies, norms record collection, constraint residuals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mkg.diagnostics import collect, energy_E0, flat_energy_J, sobolev_energies
from mkg.dynamics import Kinematics, ModelSpec, eom_rhs, step_rk4
from mkg.lattice import FieldState, LatticeSpec, gradient, zero_state
from mkg.scenarios import make_model
from mkg.couplings import constant_couplings
from mkg.kahler import KahlerFamily
from mkg.potentials import polynomial
from model_helpers import gauge_transform
from reference_sobolev import reference_sobolev
from test_dynamics import (band_limited_state, densities, interacting_model,
                           random_model, random_state)

_R_FLOOR = 1e-12


def energy_E0_potential_form(kin: Kinematics) -> float:
    """Same energy with the target metric written out in radial-potential
    derivatives, Phi'/(2r) and (Phi'' - Phi'/r)/(4 r^2).  Regression twin
    of energy_E0; must agree to rounding."""
    phi = np.polynomial.Polynomial(kin.model.kahler.coefficients)
    phi_p, phi_pp = phi.deriv(1), phi.deriv(2)
    r = np.maximum(kin.r, _R_FLOOR)
    alpha = phi_p(r) / (2.0 * r)
    Q = (phi_pp(r) - phi_p(r) / r) / (4.0 * r**2)
    twin = Kinematics(kin.state, kin.lattice, kin.model)
    twin.alpha, twin.Q = alpha, Q       # into its cache, before any read
    T, U = densities(twin)
    return float(np.sum(T + U)) * kin.lattice.cell_volume


def test_energy_twin_forms_agree():
    """The alpha/Q evaluation and the independent Phi-derivative route of
    the total energy must agree to rounding."""
    lat = LatticeSpec((32, 1, 1), 1.0 / 32)
    model = interacting_model()
    st = band_limited_state(lat)
    e1 = energy_E0(Kinematics(st, lat, model))
    e2 = energy_E0_potential_form(Kinematics(st, lat, model))
    assert abs(e1 - e2) / e1 < 1e-12


def test_energy_free_field_value():
    # E0 of a pure electric field with identity h: (1/2) int E^2
    lat = LatticeSpec((16, 16, 1), 0.5)
    model = ModelSpec(charges=np.zeros(1), couplings=constant_couplings(1),
                      kahler=KahlerFamily(), potential=polynomial(0.0),
                      n_scalar=1)
    st = zero_state(lat, 1, 1)
    st.E[0, 0] = 0.3
    vol = math.prod(lat.dims) * lat.cell_volume
    assert energy_E0(Kinematics(st, lat, model)) == pytest.approx(0.5 * 0.09 * vol)


def test_flat_energy_monotone_in_norms():
    lat = LatticeSpec((32, 1, 1), 1.0 / 32)
    model = interacting_model()
    st = band_limited_state(lat, amp=0.05)
    st2 = band_limited_state(lat, amp=0.1)
    r1 = collect(st, lat, model)
    r2 = collect(st2, lat, model)
    assert r2.flat_J > r1.flat_J > 0


def test_sobolev_energies_positive_and_ordered():
    lat = LatticeSpec((32, 1, 1), 1.0 / 32)
    model = interacting_model()
    st = band_limited_state(lat)
    e0, e1 = sobolev_energies(Kinematics(st, lat, model))
    assert e0 > 0 and e1 > 0
    # the per-axis sums against the stacked second-derivative tensors, on
    # data that varies along every axis
    lat3 = LatticeSpec((6, 5, 4), 0.2)
    rng = np.random.default_rng(9)
    st3 = zero_state(lat3, 2, 2)
    for f in (st3.A, st3.E, st3.phi, st3.pi):
        f[...] = rng.standard_normal(f.shape)
    st3.phi += 1j * rng.standard_normal(st3.phi.shape)
    g = lambda f: gradient(f, lat3)
    dE, dA, dpi, dphi = g(st3.E), g(st3.A), g(st3.pi), g(st3.phi)
    ref = 0.5 * lat3.cell_volume * np.sum(
        np.sum(dE**2, axis=(0, 1, 2)) + np.sum(g(dA) ** 2, axis=(0, 1, 2, 3))
        + np.sum(np.abs(dpi) ** 2, axis=(0, 1))
        + np.sum(np.abs(g(dphi)) ** 2, axis=(0, 1, 2)))
    _, e1 = sobolev_energies(Kinematics(st3, lat3, model))
    assert e1 == pytest.approx(ref, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), interacting=st.booleans(),
       order=st.sampled_from((2, 4)),
       dims=st.tuples(*[st.integers(1, 8)] * 3))
@example(seed=5, interacting=True, order=4, dims=(1, 1, 1))
@example(seed=6, interacting=False, order=2, dims=(2, 1, 2))
@example(seed=7, interacting=True, order=4, dims=(2, 3, 8))
def test_sobolev_energies_match_direct_reference(seed, interacting, order, dims):
    """Summation by parts gives E0_sf bit for bit and E1_sf within 1e-13
    relative of the direct form (tests/reference_sobolev.py), on axes of
    1-8 sites, orders 2 and 4, and 1-3 gauge and scalar fields."""
    model = random_model(seed, interacting)
    lat = LatticeSpec(dims, 0.25, order)
    state = random_state(lat, model.n_gauge, model.n_scalar, seed=seed % 1000)
    e0, e1 = sobolev_energies(Kinematics(state, lat, model))
    r0, r1 = reference_sobolev(Kinematics(state, lat, model))
    assert e0 == r0
    assert abs(e1 - r1) <= 1e-13 * r1


def test_collect_record_fields():
    lat = LatticeSpec((32, 1, 1), 1.0 / 32)
    model = interacting_model()
    st = band_limited_state(lat)
    rec = collect(st, lat, model)
    assert rec.t == st.t
    assert rec.energy_E0 == pytest.approx(energy_E0(Kinematics(st, lat, model)))
    assert rec.bianchi_res_linf < 1e-13
    assert np.isfinite(rec.gauss_res_l2)
    assert rec.norm_snapshot.linf_phi > 0


@pytest.mark.parametrize("dims", [(32, 1, 1), (4, 3, 5)])
def test_collect_twice_on_one_kinematics(dims):
    """collect drops the diagnostics-only arrays from the Kinematics it is
    given, and a second collect on it rebuilds them to the same record."""
    lat = LatticeSpec(dims, 0.2)
    model = interacting_model()
    st = random_state(lat, 2, 2, seed=21)
    kin = Kinematics(st, lat, model)
    first = collect(st, lat, model, kin)
    assert not set(Kinematics.DIAGNOSTICS_ONLY) & set(vars(kin))
    assert collect(st, lat, model, kin) == first
    assert collect(st, lat, model) == first
    assert not set(Kinematics.DIAGNOSTICS_ONLY) & set(vars(kin))


def test_diagnostics_gauge_invariant():
    n = 512
    lat = LatticeSpec((n, 1, 1), 1.0 / n, stencil_order=4)
    model = interacting_model()
    st = band_limited_state(lat, amp=0.05)
    x = lat.axis_coordinates(0)[:, None, None]
    theta = np.stack([0.25 * np.sin(2 * np.pi * x) * np.ones(lat.dims),
                      -0.15 * np.cos(2 * np.pi * x) * np.ones(lat.dims)])
    st2 = gauge_transform(st, lat, model, theta)
    r1 = collect(st, lat, model)
    r2 = collect(st2, lat, model)
    assert abs(r2.energy_E0 - r1.energy_E0) / r1.energy_E0 < 1e-8
    assert abs(r2.flat_J - r1.flat_J) / r1.flat_J < 1e-8
    assert r2.norm_snapshot.linf_phi == pytest.approx(
        r1.norm_snapshot.linf_phi, rel=1e-12)


def test_vacuum_record_is_zero():
    lat = LatticeSpec((16, 1, 1), 1.0 / 16)
    model = ModelSpec(charges=np.zeros(1), couplings=constant_couplings(1),
                      kahler=KahlerFamily(), potential=polynomial(0.0),
                      n_scalar=1)
    rec = collect(zero_state(lat, 1, 1), lat, model)
    assert rec.energy_E0 == 0.0
    assert rec.flat_J == 0.0
    assert rec.gauss_res_l2 == 0.0


def test_flat_energy_uses_configured_c1():
    lat = LatticeSpec((16, 1, 1), 1.0 / 16)
    model = interacting_model()
    st = band_limited_state(lat)
    snap = collect(st, lat, model).norm_snapshot
    j1 = flat_energy_J(snap, 1.0)
    j2 = flat_energy_J(snap, 4.0)
    assert j2 > j1


def _rotate_scalar(f):
    """f'(i, j, k) = f(j, k, i) on the three trailing grid axes."""
    n = f.ndim
    return np.transpose(f, tuple(range(n - 3)) + (n - 1, n - 3, n - 2))


def _rotate_vector(v):
    """Rotate the grid together with the vector component axis:
    v'_y = v_x, v'_z = v_y, v'_x = v_z."""
    return _rotate_scalar(np.roll(v, 1, axis=v.ndim - 4))


def _close(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) <= tol * scale


def test_rhs_and_collect_equivariant_in_3d():
    """On seeded interacting data that varies along x, y and z, relabelling
    the axes x -> y -> z rotates eom_rhs and leaves every diagnostic fixed."""
    n = 8
    lat = LatticeSpec((n, n, n), 1.0 / n)
    model = make_model("interacting_demo")
    rng = np.random.default_rng(2024)
    x = np.stack(lat.meshgrid())

    def band(scale):
        out = np.zeros(lat.dims)
        for _ in range(3):
            k = rng.integers(1, 3, size=3) * rng.choice((-1, 1), size=3)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            out += rng.uniform(0.5, 1.0) * np.cos(2.0 * np.pi * np.tensordot(k, x, 1) + phase)
        return scale * out / 3.0

    st = zero_state(lat, model.n_gauge, model.n_scalar)
    for a in range(model.n_gauge):
        for i in range(3):
            st.A[a, i] = band(0.05)
            st.E[a, i] = band(0.3)
    for c in range(model.n_scalar):
        st.phi[c] = band(0.1) + 1j * band(0.1)
        st.pi[c] = band(0.1) + 1j * band(0.1)
    for axis in (1, 2, 3):                  # the data varies along x, y, z
        assert not np.allclose(st.phi, np.roll(st.phi, 1, axis=axis))
    rot = FieldState(A=_rotate_vector(st.A), E=_rotate_vector(st.E),
                     phi=_rotate_scalar(st.phi), pi=_rotate_scalar(st.pi))

    d0, d1 = eom_rhs(st, lat, model), eom_rhs(rot, lat, model)
    assert _close(_rotate_vector(d0.dA), d1.dA)
    assert _close(_rotate_vector(d0.dE), d1.dE)
    assert _close(_rotate_scalar(d0.dphi), d1.dphi)
    assert _close(_rotate_scalar(d0.dpi), d1.dpi)

    r0, r1 = collect(st, lat, model), collect(rot, lat, model)
    for name in ("energy_E0", "flat_J", "sobolev_E0", "sobolev_E1",
                 "gauss_res_l2", "gauss_res_linf"):
        assert _close(getattr(r0, name), getattr(r1, name)), name
    assert _close(r0.norm_snapshot.as_tuple(), r1.norm_snapshot.as_tuple())
    assert max(r0.bianchi_res_linf, r1.bianchi_res_linf) < 1e-12
