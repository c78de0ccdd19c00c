"""Evolution equations: variational certification, conservation, covariance."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coupling_matrices import matrix_value
from model_helpers import build, copy_state, gauge_transform, sextic_family
from reference_rhs import reference_rhs
from mkg.couplings import (CouplingFamily, constant_couplings,
                           saturating_couplings, site_dot)
from mkg import dynamics
from mkg.dynamics import (_CACHED_ARRAYS, Kinematics, ModelSpec, Sectors,
                          _cdot, eom_rhs, gauss_residual, step_rk4)
from mkg.errors import NonFinite, RadiusExceeded
from mkg.diagnostics import collect, energy_E0
from mkg.kahler import KahlerFamily, quartic_family
from mkg.lattice import FieldState, LatticeSpec, curl, zero_state
from mkg.potentials import polynomial
from mkg.scenarios import SCENARIOS, make_model, make_state


def interacting_model():
    return ModelSpec(
        charges=np.array([0.7, -0.4]),
        couplings=saturating_couplings(
            2, h_base=[[2.0, 0.3], [0.3, 1.5]], h_mod=[[0.2, 0.1], [0.1, 0.3]],
            h_amplitude=0.5, k_base=[[0.1, 0.05], [0.05, -0.1]],
            k_mod=[[0.05, 0.0], [0.0, 0.05]], k_amplitude=0.3),
        kahler=quartic_family(),
        potential=polynomial(0.0, 0.0, 0.5),
        n_scalar=2)


def free_model():
    return ModelSpec(charges=np.zeros(1), couplings=constant_couplings(1),
                     kahler=KahlerFamily(), potential=polynomial(0.0),
                     n_scalar=1)


def random_state(lattice, nv, nc, seed=7, scale=0.2):
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((nv, 3) + lattice.dims)
    E = scale * rng.standard_normal((nv, 3) + lattice.dims)
    phi = scale * (rng.standard_normal((nc,) + lattice.dims)
                   + 1j * rng.standard_normal((nc,) + lattice.dims))
    pi = scale * (rng.standard_normal((nc,) + lattice.dims)
                  + 1j * rng.standard_normal((nc,) + lattice.dims))
    return FieldState(A, E, phi, pi, 0.0)


def densities(kin: Kinematics) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic and static densities (T, U) of one Kinematics, pointwise,
    with every term (no sector skipped):

    T = (1/2) E.hE + alpha |pi|^2 + Q |conj(phi).pi|^2
    U = (1/2) H.hH + alpha |Dphi|^2 + Q |conj(phi).Dphi|^2 + V

    E0 integrates T + U; the Lagrangian density is T - U - E.kH.
    """
    E, H, h = kin.state.E, kin.H, kin.model.couplings.h
    T = (0.5 * site_dot(E, h.apply(E, kin.sh)) + kin.alpha * kin.pi2
         + kin.Q * np.abs(kin.phi_pi) ** 2)
    U = (0.5 * site_dot(H, h.apply(H, kin.sh)) + kin.alpha * kin.Dphi2
         + kin.Q * np.sum(np.abs(kin.phi_Dphi) ** 2, axis=0) + kin.V)
    return T, U


def lagrangian_density(kin: Kinematics) -> np.ndarray:
    """Pointwise discretized Lagrangian density (Adot = -E, pi = phidot),
    T - U - E.kH; it shares every stencil with the right-hand-side assembly.
    """
    T, U = densities(kin)
    kf = kin.model.couplings.k
    return T - U - site_dot(kin.state.E, kf.apply(kin.H, kf.s(kin.tanh_psi)))


def test_euler_lagrange_residual():
    """The assembled right-hand sides are certified variationally: the time
    derivative of the exact conjugate momenta along the flow must equal the
    finite-difference gradient of the discrete Lagrangian at every site."""
    lat = LatticeSpec((4, 3, 2), 0.5)
    model = interacting_model()
    nv, nc = model.n_gauge, model.n_scalar
    state = random_state(lat, nv, nc)
    A, E, phi, pi = state.A, state.E, state.phi, state.pi

    def Ltot(A, phi, Adot, pivals):
        st = FieldState(A, -Adot, phi, pivals, 0.0)
        return float(np.sum(lagrangian_density(Kinematics(st, lat, model)))
                     * lat.cell_volume)

    def exact_pA(A, phi, Adot):
        st = FieldState(A, -Adot, phi, np.zeros_like(phi), 0.0)
        psi = np.sum(np.abs(phi) ** 2, axis=0)
        h = matrix_value(model.couplings.h, psi)
        k = matrix_value(model.couplings.k, psi)
        H = curl(st.A, lat)
        mv = lambda m, v: np.einsum("abcls,siabc->liabc", m, v)
        return (mv(h, Adot) + mv(k, H)) * lat.cell_volume

    def exact_ppi(phi, pivals):
        psi = np.sum(np.abs(phi) ** 2, axis=0)
        r = np.sqrt(psi)
        al = model.kahler.alpha(r)
        Q = model.kahler.q(r)
        u = np.sum(phi.conj() * pivals, axis=0)
        return (al * pivals + Q * u * phi) * lat.cell_volume

    rhs = eom_rhs(state, lat, model)
    Adot = -E
    Add = -rhs.dE
    pidot = rhs.dpi
    eps, delta = 1e-4, 1e-5

    # momenta: closed forms against finite differences of the Lagrangian
    fd_pA = np.zeros_like(A)
    it = np.nditer(A, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        vp = Adot.copy(); vp[ix] += delta
        vm = Adot.copy(); vm[ix] -= delta
        fd_pA[ix] = (Ltot(A, phi, vp, pi) - Ltot(A, phi, vm, pi)) / (2 * delta)
    assert np.max(np.abs(fd_pA - exact_pA(A, phi, Adot))) < 1e-9

    fd_ppi = np.zeros_like(pi)
    it = np.nditer(pi.real, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        vp = pi.copy(); vp[ix] += delta
        vm = pi.copy(); vm[ix] -= delta
        dre = (Ltot(A, phi, Adot, vp) - Ltot(A, phi, Adot, vm)) / (2 * delta)
        vp = pi.copy(); vp[ix] += 1j * delta
        vm = pi.copy(); vm[ix] -= 1j * delta
        dim = (Ltot(A, phi, Adot, vp) - Ltot(A, phi, Adot, vm)) / (2 * delta)
        fd_ppi[ix] = 0.5 * (dre + 1j * dim)
    assert np.max(np.abs(fd_ppi - exact_ppi(phi, pi))) < 1e-9

    # d/dt momenta along the flow vs dL/dz
    pA_p = exact_pA(A + eps * Adot + 0.5 * eps**2 * Add,
                    phi + eps * pi + 0.5 * eps**2 * pidot, Adot + eps * Add)
    pA_m = exact_pA(A - eps * Adot + 0.5 * eps**2 * Add,
                    phi - eps * pi + 0.5 * eps**2 * pidot, Adot - eps * Add)
    dpA = (pA_p - pA_m) / (2 * eps)
    pp_p = exact_ppi(phi + eps * pi + 0.5 * eps**2 * pidot, pi + eps * pidot)
    pp_m = exact_ppi(phi - eps * pi + 0.5 * eps**2 * pidot, pi - eps * pidot)
    dppi = (pp_p - pp_m) / (2 * eps)

    dLdA = np.zeros_like(A)
    it = np.nditer(A, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        Ap = A.copy(); Ap[ix] += delta
        Am = A.copy(); Am[ix] -= delta
        dLdA[ix] = (Ltot(Ap, phi, Adot, pi) - Ltot(Am, phi, Adot, pi)) / (2 * delta)

    dLdphi = np.zeros_like(phi)
    it = np.nditer(phi.real, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        pr = phi.copy(); pr[ix] += delta
        mr = phi.copy(); mr[ix] -= delta
        dre = (Ltot(A, pr, Adot, pi) - Ltot(A, mr, Adot, pi)) / (2 * delta)
        pr = phi.copy(); pr[ix] += 1j * delta
        mr = phi.copy(); mr[ix] -= 1j * delta
        dim = (Ltot(A, pr, Adot, pi) - Ltot(A, mr, Adot, pi)) / (2 * delta)
        dLdphi[ix] = 0.5 * (dre + 1j * dim)

    assert np.max(np.abs(dpA - dLdA)) < 1e-6
    assert np.max(np.abs(dppi - dLdphi)) < 1e-6


def test_vacuum_fixed_point():
    lat = LatticeSpec((16, 1, 1), 0.1)
    model = free_model()
    st = zero_state(lat, 1, 1)
    for _ in range(10):
        st = step_rk4(st, lat, model, 0.05)
    assert np.max(np.abs(st.A)) == 0.0
    assert np.max(np.abs(st.phi)) == 0.0
    assert st.t == pytest.approx(0.5)


def test_free_scalar_standing_wave():
    n = 128
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    model = free_model()
    k = 2 * np.pi
    x = lat.axis_coordinates(0)[:, None, None]
    st = zero_state(lat, 1, 1)
    st.phi[0] = 0.01 * np.cos(k * x) * np.ones(lat.dims)
    dt = 0.25 * lat.dx
    t_end = 0.25            # quarter period of the k = 2 pi mode
    steps = int(round(t_end / dt))
    for _ in range(steps):
        st = step_rk4(st, lat, model, dt)
    exact = 0.01 * np.cos(k * x) * np.cos(k * t_end) * np.ones(lat.dims)
    err = np.max(np.abs(st.phi[0] - exact))
    # dominated by the O((k dx)^2) lattice dispersion shift
    assert err < 2e-5


def test_free_maxwell_wave_energy_exact():
    n = 128
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    model = free_model()
    k = 2 * np.pi
    x = lat.axis_coordinates(0)[:, None, None]
    st = zero_state(lat, 1, 1)
    st.A[0, 1] = 0.1 * np.sin(k * x)
    st.E[0, 1] = 0.1 * k * np.cos(k * x)
    e0 = energy_E0(Kinematics(st, lat, model))
    dt = 0.25 * lat.dx
    for _ in range(int(round(1.0 / dt))):
        st = step_rk4(st, lat, model, dt)
    assert abs(energy_E0(Kinematics(st, lat, model)) - e0) / e0 < 1e-10


def band_limited_state(lattice, amp=0.1):
    """Low-wavenumber interacting initial data (resolvable modes only)."""
    x = lattice.axis_coordinates(0)[:, None, None]
    k = 2 * np.pi / (lattice.dims[0] * lattice.dx)
    st = zero_state(lattice, 2, 2)
    ones = np.ones(lattice.dims)
    st.A[0, 1] = amp * np.sin(k * x)
    st.A[1, 2] = 0.6 * amp * np.cos(2 * k * x)
    st.E[0, 1] = 0.8 * amp * k * np.cos(k * x)
    st.E[1, 2] = -0.4 * amp * k * np.sin(k * x)
    st.phi[0] = 2 * amp * np.exp(1j * k * x) * ones
    st.phi[1] = amp * (np.cos(k * x) + 0.5j * np.sin(2 * k * x)) * ones
    st.pi[0] = 1j * amp * np.exp(1j * k * x) * ones
    st.pi[1] = 0.4 * amp * ones.astype(complex)
    return st


def test_interacting_energy_conserved():
    n = 64
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    model = interacting_model()
    st = band_limited_state(lat)
    e0 = energy_E0(Kinematics(st, lat, model))
    dt = 0.25 * lat.dx
    for _ in range(int(round(0.5 / dt))):
        st = step_rk4(st, lat, model, dt)
    assert abs(energy_E0(Kinematics(st, lat, model)) - e0) / e0 < 1e-8


def test_gauss_residual_conserved():
    n = 64
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    model = interacting_model()
    st = random_state(lat, 2, 2, seed=5, scale=0.1)
    _, g0, _ = gauss_residual(Kinematics(st, lat, model))
    dt = 0.25 * lat.dx
    for _ in range(int(round(0.5 / dt))):
        st = step_rk4(st, lat, model, dt)
    _, g1, _ = gauss_residual(Kinematics(st, lat, model))
    assert g1 < 1.5 * g0 + 1e-12


def test_gauge_transform_invariants():
    # 4th-order stencils at fine resolution: the residual stencil error of
    # the transformed covariant derivative sits far below 1e-8
    n = 512
    lat = LatticeSpec((n, 1, 1), 1.0 / n, stencil_order=4)
    model = interacting_model()
    st = band_limited_state(lat, amp=0.05)
    x = lat.axis_coordinates(0)[:, None, None]
    theta = np.stack([0.3 * np.sin(2 * np.pi * x) * np.ones(lat.dims),
                      0.2 * np.cos(2 * np.pi * x) * np.ones(lat.dims)])
    st2 = gauge_transform(st, lat, model, theta)
    # E and |phi| are pointwise gauge invariants, exactly
    assert np.array_equal(st2.E, st.E)
    assert np.abs(st2.phi) == pytest.approx(np.abs(st.phi), abs=1e-14)
    # the energy is a gauge scalar
    e1 = energy_E0(Kinematics(st, lat, model))
    e2 = energy_E0(Kinematics(st2, lat, model))
    assert abs(e2 - e1) / e1 < 1e-8


def test_gauge_covariance_of_flow_converges():
    """Transform-then-step vs step-then-transform mismatch is pure stencil
    error and shrinks at 2nd order under grid refinement."""

    def mismatch(n):
        lat = LatticeSpec((n, 1, 1), 1.0 / n)
        model = interacting_model()
        st = band_limited_state(lat, amp=0.05)
        x = lat.axis_coordinates(0)[:, None, None]
        theta = np.stack([0.2 * np.sin(2 * np.pi * x) * np.ones(lat.dims),
                          -0.1 * np.sin(2 * np.pi * x) * np.ones(lat.dims)])
        dt = 0.25 * lat.dx
        a = gauge_transform(st, lat, model, theta)
        for _ in range(16):
            a = step_rk4(a, lat, model, dt)
        b = copy_state(st)
        for _ in range(16):
            b = step_rk4(b, lat, model, dt)
        b = gauge_transform(b, lat, model, theta)
        return max(np.max(np.abs(a.phi - b.phi)), np.max(np.abs(a.E - b.E)))

    m1, m2 = mismatch(32), mismatch(64)
    assert m2 < m1
    assert m1 / m2 > 3.0


def test_nonfinite_guard():
    lat = LatticeSpec((8, 1, 1), 0.125)
    model = free_model()
    st = zero_state(lat, 1, 1)
    st.E[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(NonFinite):
        step_rk4(st, lat, model, 0.01)


def test_radius_exceeded_guard():
    lat = LatticeSpec((8, 1, 1), 0.125)
    model = ModelSpec(charges=np.zeros(1), couplings=constant_couplings(1),
                      kahler=quartic_family(r_max=0.5),
                      potential=polynomial(0.0), n_scalar=1)
    st = zero_state(lat, 1, 1)
    st.phi[0] = 1.0 + 0.0j
    with pytest.raises(RadiusExceeded):
        eom_rhs(st, lat, model)


def test_rk4_order_on_linear_problem():
    # time-refinement of the scalar wave phase error: classical 4-stage
    # integrator gives 5th-order local, 4th-order global accuracy
    n = 32
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    model = free_model()
    k = 2 * np.pi
    x = lat.axis_coordinates(0)[:, None, None]

    def phase_err(dt):
        st = zero_state(lat, 1, 1)
        st.phi[0] = 0.01 * np.cos(k * x) * np.ones(lat.dims)
        steps = int(round(0.25 / dt))
        for _ in range(steps):
            st = step_rk4(st, lat, model, dt)
        # compare against the semidiscrete solution (lattice dispersion),
        # isolating the time-integration error
        k_eff = np.sin(k * lat.dx) / lat.dx
        exact = 0.01 * np.cos(k * x) * np.cos(k_eff * 0.25) * np.ones(lat.dims)
        return np.max(np.abs(st.phi[0] - exact))

    e1 = phase_err(1.0 / 128)
    e2 = phase_err(1.0 / 256)
    assert e1 / e2 > 8.0


# ---------------------------------------------------------------------------
# the collapsed right-hand side and the in-place RK4 sum against their
# textbook forms; aliasing and memory guards

_DERIVS = ("dA", "dE", "dphi", "dpi")
_FIELDS = ("A", "E", "phi", "pi")


def random_model(seed, interacting):
    """A seeded model: random charges, saturating h and k, a quartic or
    sextic target and a polynomial potential; or, when not interacting,
    zero charges, constant random couplings and the flat target."""
    rng = np.random.default_rng(seed)
    nv, nc = (int(n) for n in rng.integers(1, 4, size=2))

    def sym(scale):
        m = scale * rng.standard_normal((nv, nv))
        return 0.5 * (m + m.T)

    b = rng.standard_normal((nv, nv))
    h_base = b @ b.T / nv + np.eye(nv)
    if not interacting:
        return ModelSpec(charges=np.zeros(nv),
                         couplings=constant_couplings(nv, h_base, sym(0.3)),
                         kahler=KahlerFamily(), potential=polynomial(0.0),
                         n_scalar=nc)
    family = quartic_family if rng.random() < 0.5 else sextic_family
    return ModelSpec(
        charges=rng.uniform(-1.0, 1.0, nv),
        couplings=saturating_couplings(
            nv, h_base=h_base, h_mod=sym(0.2), h_amplitude=rng.uniform(-0.5, 0.5),
            k_base=sym(0.3), k_mod=sym(0.2), k_amplitude=rng.uniform(-0.5, 0.5)),
        kahler=family(rng.uniform(0.0, 0.3)),
        potential=polynomial(0.0, *rng.uniform(0.0, 1.0, 2)),
        n_scalar=nc)


def _close(a, b, rtol):
    return np.max(np.abs(a - b), initial=0.0) <= rtol * np.max(np.abs(b), initial=0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), interacting=st.booleans(),
       order=st.sampled_from((2, 4)),
       dims=st.tuples(*[st.integers(1, 8)] * 3))
def test_eom_rhs_matches_uncollapsed_reference(seed, interacting, order, dims):
    """The collapsed scalar sector and the one-curl gauge sector agree with
    the term-by-term Euler-Lagrange assembly to 1e-13 relative."""
    model = random_model(seed, interacting)
    lat = LatticeSpec(dims, 0.25, order)
    state = random_state(lat, model.n_gauge, model.n_scalar, seed=seed % 1000)
    got, ref = eom_rhs(state, lat, model), reference_rhs(state, lat, model)
    for name in _DERIVS:
        assert _close(getattr(got, name), getattr(ref, name), 1e-13), name


def _textbook_rk4(state, lat, model, dt):
    """state + dt/6 (k1 + 2 k2 + 2 k3 + k4), each stage a new state."""
    def add(s, d, c):
        return FieldState(s.A + c * d.dA, s.E + c * d.dE,
                          s.phi + c * d.dphi, s.pi + c * d.dpi, s.t + c)

    k1 = eom_rhs(state, lat, model)
    k2 = eom_rhs(add(state, k1, 0.5 * dt), lat, model)
    k3 = eom_rhs(add(state, k2, 0.5 * dt), lat, model)
    k4 = eom_rhs(add(state, k3, dt), lat, model)
    sixth = dt / 6.0
    return FieldState(*[
        getattr(state, f) + sixth * (getattr(k1, d) + 2 * getattr(k2, d)
                                     + 2 * getattr(k3, d) + getattr(k4, d))
        for f, d in zip(_FIELDS, _DERIVS)], t=state.t + dt)


def _state_bytes(state):
    return [getattr(state, f).tobytes() for f in _FIELDS] + [state.t]


@pytest.mark.parametrize("dims, recorded", [
    ((16, 1, 1), False), ((4, 3, 5), False),
    ((16, 1, 1), True), ((4, 3, 5), True)],
    ids=["dims0", "dims1", "dims0-recorded", "dims1-recorded"])
def test_step_rk4_is_textbook_sum_bit_for_bit(dims, recorded):
    """With recorded, the Kinematics given to the step has first served a
    trace record, as in `run`."""
    lat = LatticeSpec(dims, 0.2)
    model = interacting_model()
    state = random_state(lat, 2, 2, seed=11)
    want = _state_bytes(_textbook_rk4(state, lat, model, 0.05))
    assert _state_bytes(step_rk4(state, lat, model, 0.05)) == want
    kin = Kinematics(state, lat, model)
    if recorded:
        collect(state, lat, model, kin)
    assert _state_bytes(step_rk4(state, lat, model, 0.05, kin)) == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dims", [(1, 1, 1), (64, 1, 1), (1024, 1, 1),
                                  (4, 3, 5), (16, 16, 16)])
def test_cdot_is_numpy_sum_bit_for_bit(dims, n):
    """_cdot, summing row by row, gives the bits of np.sum over the full
    product, for the (N_C, grid) and (N_C, 1, grid) x (N_C, 3, grid) forms."""
    rng = np.random.default_rng(n * 1000 + dims[0])

    def cfield(*lead):
        return (rng.standard_normal(lead + dims)
                + 1j * rng.standard_normal(lead + dims))

    a, b, Db = cfield(n), cfield(n), cfield(n, 3)
    assert _cdot(a, b).tobytes() == np.sum(a.conj() * b, axis=0).tobytes()
    a1 = a[:, np.newaxis]
    assert _cdot(a1, Db).tobytes() == np.sum(a1.conj() * Db, axis=0).tobytes()


def _all_arrays(obj, names):
    return [getattr(obj, n) for n in names]


def _bits(a):
    """The bytes of a cached array, or None for one a model does not build
    (Kinematics.sh of a constant h)."""
    return None if a is None else a.tobytes()


@pytest.mark.parametrize("dims", [(16, 1, 1), (4, 3, 5)])
def test_rhs_and_step_leave_input_alone(dims):
    """eom_rhs and step_rk4 change no byte of their input state or of a
    shared Kinematics, and return arrays that share no memory with it."""
    lat = LatticeSpec(dims, 0.2)
    model = interacting_model()
    state = random_state(lat, 2, 2, seed=12)
    before = _state_bytes(state)
    kin = Kinematics(state, lat, model)
    kin_names = ("psi", "r", "alpha", "Q", "sh", "H", "qa", "Dphi",
                 "phi_pi", "phi_Dphi")
    kin_before = [a.tobytes() for a in _all_arrays(kin, kin_names)]
    inputs = _all_arrays(state, _FIELDS) + _all_arrays(kin, kin_names)
    for k in (None, kin):
        d = eom_rhs(state, lat, model, k)
        new = step_rk4(state, lat, model, 0.05, k)
        assert _state_bytes(state) == before
        assert [a.tobytes() for a in _all_arrays(kin, kin_names)] == kin_before
        for out in _all_arrays(d, _DERIVS) + _all_arrays(new, _FIELDS):
            assert not any(np.shares_memory(out, x) for x in inputs)


def test_kinematics_of_another_state_is_refused():
    """eom_rhs, step_rk4 and collect refuse a Kinematics built from another
    state object, at another stencil order or dx, or from another model
    object, even an equal one; they accept one built from an equal
    lattice."""
    lat = LatticeSpec((8, 1, 1), 0.2)
    model = interacting_model()
    state = random_state(lat, 2, 2, seed=13)
    others = [Kinematics(copy_state(state), lat, model),
              Kinematics(state, dataclasses.replace(lat, stencil_order=4), model),
              Kinematics(state, dataclasses.replace(lat, dx=0.1), model),
              Kinematics(state, lat, interacting_model())]
    for kin in others:
        with pytest.raises(ValueError, match="another state, lattice or model"):
            eom_rhs(state, lat, model, kin)
        with pytest.raises(ValueError, match="another state, lattice or model"):
            step_rk4(state, lat, model, 0.05, kin)
        with pytest.raises(ValueError, match="another state, lattice or model"):
            collect(state, lat, model, kin)
    kin = Kinematics(state, LatticeSpec((8, 1, 1), 0.2), model)
    assert collect(state, lat, model, kin) == collect(state, lat, model)


@pytest.mark.parametrize("case", ["interacting_demo", "free_maxwell_wave",
                                  "sextic_target"])
def test_rhs_releases_every_kinematics_alike(case, monkeypatch):
    """eom_rhs releases the same arrays, with the same result bits, of a
    Kinematics it builds, of a fresh one it is given and of one given after
    collect; each is left with no cached array, and a re-read gives the
    bits of a fresh Kinematics.  sextic_target is interacting_demo's model
    on a sextic target, the only case with the W block on: no shipped
    scenario has it."""
    lat = LatticeSpec((8, 6, 4), 1.0 / 8)
    name = "interacting_demo" if case == "sextic_target" else case
    model, state = build(name, lat)
    if case == "sextic_target":
        model = dataclasses.replace(model, kahler=sextic_family(0.1))
        assert model.sectors.w
    fresh = Kinematics(state, lat, model)
    want_kin = {n: _bits(getattr(fresh, n)) for n in sorted(_CACHED_ARRAYS)}
    calls = []
    release = Kinematics.release

    def spy(kin, *names):
        calls.append((kin, names))
        release(kin, *names)

    monkeypatch.setattr(Kinematics, "release", spy)
    results, released = [], []
    for given in ("none", "fresh", "recorded"):
        kin = None if given == "none" else Kinematics(state, lat, model)
        if given == "recorded":
            collect(state, lat, model, kin)
        calls.clear()
        d = eom_rhs(state, lat, model, kin)
        results.append([a.tobytes() for a in _all_arrays(d, _DERIVS)])
        used = calls[0][0]
        assert kin is None or used is kin
        assert all(k is used for k, _ in calls)
        released.append([names for _, names in calls])
        assert not vars(used).keys() & _CACHED_ARRAYS, given
        assert _arrays_held(used) == [], given
        assert {n: _bits(getattr(used, n)) for n in want_kin} == want_kin
    assert results == results[:1] * 3
    assert released == released[:1] * 3
    fresh.release("psi")                # cached like every other array
    assert "psi" not in vars(fresh)
    with pytest.raises(ValueError):
        fresh.release("tanh")           # no such array


def _arrays_held(kin):
    """The names of the ndarrays a Kinematics instance holds."""
    return sorted(n for n, v in vars(kin).items() if isinstance(v, np.ndarray))


def test_step_enters_stage_k2_with_the_given_kinematics_empty(monkeypatch):
    """Stage k1 empties the record's Kinematics that step_rk4 is given, psi,
    r, alpha and Q included, so none of its arrays rides through stages
    k2-k4."""
    lat = LatticeSpec((8, 6, 4), 1.0 / 8)
    model, state = build("interacting_demo", lat)
    kin = Kinematics(state, lat, model)
    collect(state, lat, model, kin)
    held = []
    rhs = dynamics.eom_rhs

    def spy(*args):
        held.append(_arrays_held(kin))
        return rhs(*args)

    monkeypatch.setattr(dynamics, "eom_rhs", spy)
    step_rk4(state, lat, model, 0.01, kin)
    assert len(held) == 4
    assert {"psi", "r", "alpha", "Q"} <= set(held[0])
    assert held[1:] == [[]] * 3


# tracemalloc peaks over the bytes of the input state, on a 32^3
# interacting_demo state.  At 16^3 numpy's fixed internal buffers (~128 KB)
# are 0.2-0.3 of a state and hide a change of this size.
#
# One eom_rhs: 3.60 when its result held -E and a copy of pi, 3.30 with
# the result referencing the state's E and pi and h'E folded into k'H
# before the curls; 2.45 with Dphi built after the curls and the RHS's own
# Kinematics releasing each array after its last reader; 6.1 (16^3) with
# the term-by-term assembly (tests/reference_rhs.py form).  One more
# (N_C, 3, grid) complex temporary adds 0.6.
RHS_PEAK_OVER_STATE = 2.7

# One step_rk4 given the record's Kinematics right after collect, that
# Kinematics' own arrays included: 9.50 when a fresh array held 2 k2 + k1
# and the Kinematics kept the diagnostics-only arrays, 7.65 with the sum in
# k2's arrays and those arrays dropped by collect, 7.35 with the rates of
# A and phi read from each stage's E and pi, 6.50 with each stage's RHS
# building Dphi after the curls and releasing its own Kinematics as it goes,
# 4.86 with stage k1 releasing the record's Kinematics by the same rule,
# 4.65 with psi, r, alpha and Q cached and released like every other array,
# so that stage k1 leaves the record's Kinematics empty.
STEP_PEAK_OVER_STATE = 5.0

# Kinematics + collect, the new Kinematics' own arrays included: 3.50
# while the Kinematics built psi, r, alpha and Q on construction, 3.35
# with them built on first read (the Sobolev energies then run while it
# holds none).  Keeping the DIAGNOSTICS_ONLY arrays to the end of collect
# measured 3.55 on top of the former.
COLLECT_PEAK_OVER_STATE = 3.6


def _demo_32():
    lat = LatticeSpec((32, 32, 32), 1.0 / 32)
    model, state = build("interacting_demo", lat)
    return lat, model, state, sum(a.nbytes for a in _all_arrays(state, _FIELDS))


def test_rhs_memory_peak():
    lat, model, state, state_bytes = _demo_32()
    eom_rhs(state, lat, model)
    tracemalloc.start()
    try:
        eom_rhs(state, lat, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"eom_rhs peak {peak / state_bytes:.3f} x state, "
          f"bound {RHS_PEAK_OVER_STATE}")
    assert peak <= RHS_PEAK_OVER_STATE * state_bytes, peak / state_bytes


def test_step_memory_peak():
    lat, model, state, state_bytes = _demo_32()
    step_rk4(state, lat, model, 0.01)
    tracemalloc.start()
    try:
        kin = Kinematics(state, lat, model)
        collect(state, lat, model, kin)
        tracemalloc.reset_peak()
        step_rk4(state, lat, model, 0.01, kin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"step_rk4 peak {peak / state_bytes:.3f} x state, "
          f"bound {STEP_PEAK_OVER_STATE}")
    assert peak <= STEP_PEAK_OVER_STATE * state_bytes, peak / state_bytes


def test_collect_memory_peak():
    lat, model, state, state_bytes = _demo_32()
    collect(state, lat, model)
    tracemalloc.start()
    try:
        collect(state, lat, model, Kinematics(state, lat, model))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"collect peak {peak / state_bytes:.3f} x state, "
          f"bound {COLLECT_PEAK_OVER_STATE}")
    assert peak <= COLLECT_PEAK_OVER_STATE * state_bytes, peak / state_bytes


def _numpy_bytes(snapshot):
    """Bytes of the numpy array data alive in a tracemalloc snapshot."""
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    return sum(t.size for t in snapshot.filter_traces(only_numpy).traces)


@pytest.mark.parametrize("scenario", ["interacting_demo", "free_maxwell_wave"])
def test_rhs_rates_of_A_and_phi_are_read_from_the_state(scenario):
    """dA reads -E and dphi reads pi, bit for bit, each time in a new array;
    the result itself keeps only the arrays of dE and dpi alive."""
    lat = LatticeSpec((8, 6, 4), 1.0 / 8)
    model, state = build(scenario, lat)
    eom_rhs(state, lat, model)
    tracemalloc.start()
    try:
        before = _numpy_bytes(tracemalloc.take_snapshot())
        d = eom_rhs(state, lat, model)
        retained = _numpy_bytes(tracemalloc.take_snapshot()) - before
    finally:
        tracemalloc.stop()
    assert retained == d.dE.nbytes + d.dpi.nbytes
    assert d.dA.tobytes() == (-state.E).tobytes()
    assert d.dphi.tobytes() == state.pi.tobytes()
    reads = [d.dA, d.dA, d.dphi, d.dphi]
    for i, x in enumerate(reads):
        assert not any(np.shares_memory(x, y)
                       for y in _all_arrays(state, _FIELDS) + reads[:i])


def test_sectors_of_the_shipped_models():
    """interacting_demo switches off only W (quartic target); the free
    scenarios switch off every sector."""
    lat = LatticeSpec((8, 1, 1), 1.0 / 8)
    assert build("interacting_demo", lat)[0].sectors == Sectors(
        charged=True, h_prime=True, k=True, q=True, w=False, potential=True)
    for name in SCENARIOS[:-1]:
        assert not any(dataclasses.astuple(build(name, lat)[0].sectors)), name


@pytest.mark.parametrize("name", ["free_scalar_wave", "interacting_demo"])
def test_model_parts_are_frozen(name):
    """No field of a ModelSpec or its CouplingFamily can be rebound, and
    neither its charges nor a coupling matrix can be written into, so that
    its gauge count, sectors and the couplings' eigenbasis cannot go stale;
    the gauge count is read from the arrays."""
    model = make_model(name)
    for part in (model, model.couplings):
        for f in dataclasses.fields(part):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, f.name, getattr(part, f.name))
    arrays = [model.charges] + [m for fam in (model.couplings.h, model.couplings.k)
                                for m in (fam.base, fam.mod)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert model.n_gauge == model.couplings.n_gauge == len(model.charges)
    for cls in (ModelSpec, CouplingFamily):
        assert "n_gauge" not in {f.name for f in dataclasses.fields(cls)}


def test_model_copies_its_charges():
    """The charges are a copy: writing into the array a model was built
    from leaves the model, and its sectors, as they were."""
    q = np.zeros(1)
    model = dataclasses.replace(make_model("free_scalar_wave"), charges=q)
    q[0] = 1.0
    assert model.charges[0] == 0.0 and not model.sectors.charged


def test_model_checks_charges_against_couplings():
    kw = dict(kahler=KahlerFamily(), potential=polynomial(0.0), n_scalar=1)
    with pytest.raises(ValueError, match="one charge per gauge index"):
        ModelSpec(charges=np.zeros(2), couplings=constant_couplings(1), **kw)
    for charges in (np.zeros(0), np.zeros((1, 1))):
        with pytest.raises(ValueError, match="at least one gauge"):
            ModelSpec(charges=charges, couplings=constant_couplings(1), **kw)


def test_replaced_model_works_out_its_sectors():
    """dataclasses.replace of a model's potential gives the sectors and the
    eom_rhs bits of a model built with that potential, V' included.  (A
    model whose potential was rebound in place kept its old sectors and
    dropped V': dpi 0.25 off here.)"""
    lat = LatticeSpec((16, 1, 1), 1.0 / 16)
    free = make_model("free_scalar_wave")
    replaced = dataclasses.replace(free, potential=polynomial(0, 0, 1))
    built = ModelSpec(charges=np.zeros(1), couplings=constant_couplings(1),
                      kahler=KahlerFamily(), potential=polynomial(0, 0, 1),
                      n_scalar=1)
    assert replaced.sectors == built.sectors and replaced.sectors.potential
    state = make_state("free_scalar_wave", lat, free, {"amplitude": 0.5})
    want = eom_rhs(state, lat, built)
    got = eom_rhs(state, lat, replaced)
    for x, y in zip(_all_arrays(got, _DERIVS), _all_arrays(want, _DERIVS)):
        assert x.tobytes() == y.tobytes()
    dropped = eom_rhs(state, lat, free).dpi
    assert np.max(np.abs(got.dpi - dropped)) == pytest.approx(0.25)


def _all_sectors_on(model):
    forced = copy.copy(model)       # frozen: its flags are set past __setattr__
    object.__setattr__(forced, "sectors",
                       Sectors(*[True] * len(dataclasses.fields(Sectors))))
    return forced


def _sector_outputs(state, lat, model):
    d = eom_rhs(state, lat, model)
    res, l2, linf = gauss_residual(Kinematics(state, lat, model))
    e0 = energy_E0(Kinematics(state, lat, model))
    return _all_arrays(d, _DERIVS) + [res, np.array([l2, linf, e0])]


def switched_model(seed):
    """A random model whose charges, h', k', target (flat, quartic or
    sextic) and potential are each switched on or off at random."""
    rng = np.random.default_rng(seed)
    nv, nc = (int(n) for n in rng.integers(1, 4, size=2))
    on = rng.random(4) < 0.5
    target = int(rng.integers(0, 3))

    def sym(scale):
        m = scale * rng.standard_normal((nv, nv))
        return 0.5 * (m + m.T)

    b = rng.standard_normal((nv, nv))
    kahler = (KahlerFamily(), quartic_family(rng.uniform(0.0, 0.3)),
              sextic_family(rng.uniform(0.0, 0.3)))[target]
    return ModelSpec(
        charges=rng.uniform(-1.0, 1.0, nv) if on[0] else np.zeros(nv),
        couplings=saturating_couplings(
            nv, h_base=b @ b.T / nv + np.eye(nv),
            h_mod=sym(0.2) if on[1] else None,
            h_amplitude=rng.uniform(-0.5, 0.5), k_base=sym(0.3),
            k_mod=sym(0.2), k_amplitude=rng.uniform(-0.5, 0.5) if on[2] else 0.0),
        kahler=kahler,
        potential=(polynomial(0.0, *rng.uniform(0.0, 1.0, 2)) if on[3]
                   else polynomial(0.0)),
        n_scalar=nc)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from((2, 4)),
       dims=st.tuples(*[st.integers(1, 6)] * 3))
def test_sector_flags_skip_only_zeros_on_random_models(seed, order, dims):
    """On models with any mix of sectors switched off, skipping the blocks
    that are off changes eom_rhs, gauss_residual and energy_E0 at most in
    the sign of a zero."""
    model = switched_model(seed)
    lat = LatticeSpec(dims, 0.25, order)
    state = random_state(lat, model.n_gauge, model.n_scalar, seed=seed % 1000)
    got = _sector_outputs(state, lat, model)
    want = _sector_outputs(state, lat, _all_sectors_on(model))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dims", [(64, 1, 1), (4, 3, 5)])
@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("data", ["scenario", "random"])
def test_sector_flags_skip_only_zeros(name, dims, data):
    """eom_rhs, gauss_residual and energy_E0 with every sector flag forced
    on equal those with the model's own flags: byte for byte on
    interacting_demo, and up to the sign of zeros on the free scenarios,
    on the scenario's initial data and on random data."""
    lat = LatticeSpec(dims, 1.0 / dims[0])
    model, state = build(name, lat)
    if data == "random":
        state = random_state(lat, model.n_gauge, model.n_scalar, seed=21)
    got = _sector_outputs(state, lat, model)
    want = _sector_outputs(state, lat, _all_sectors_on(model))
    for a, b in zip(got, want):
        if name == "interacting_demo":
            assert a.tobytes() == b.tobytes()
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b)
