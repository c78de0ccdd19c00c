"""Exact discrete plane waves: the free 3D evolver against RK4's own
propagator.

On a periodic grid each stencil acts on a mode through its symbol:
D_i cos(k.x) = -s_i sin(k.x), with s_i = sigma_p(k_i dx)/dx, sigma_2(t) =
sin t and sigma_4(t) = (8 sin t - sin 2t)/6.  Under identity couplings, a
flat target and V = 0 the field equations keep a mode's profile and act on
its two amplitudes (p, q) by a 2x2 matrix M, w = |s|:

  scalar,   phi = p c cos(k.x), pi = q c cos(k.x):       M = [[0, 1], [-w^2, 0]]
  Maxwell,  A = p a cos(k.x),   E = q a cos(k.x), a ⟂ s:  M = [[0, -1], [w^2, 0]]
  Maxwell,  a ∥ s (curl A = 0, E constant):               M = [[0, -1], [0, 0]]

One RK4 step maps (p, q) by R(dt M), R(Z) = I + Z + Z^2/2 + Z^3/6 + Z^4/24,
so the state after n steps is known to rounding, including its phase and
RK4's damping or growth.  This holds the 3D Maxwell sector, as well as
the scalar one, to an exact solution; the oblique modes on a non-cubic
grid see every cross-axis term of the curl.

Growth past the limit is checked at order 2, where the mode k_i dx = pi/2
(each n_i divisible by 4) carries the largest symbol, so that w dt = nu.
Order 4's largest symbol, at cos t = 1 - sqrt(6)/2, lies on no finite grid:
t/pi is irrational, since 2 cos t = 2 - sqrt 6 is none of the quadratic
values of 2 cos(2 pi j/n) (n = 5, 8, 10, 12).
"""

import numpy as np
import pytest

from mkg.config import RK4_STABILITY_LIMIT, RunConfig
from mkg.dynamics import Kinematics, gauss_residual, step_rk4
from mkg.lattice import LatticeSpec, curl, divergence, zero_state
from mkg.scenarios import make_model

DIMS, DX = (16, 12, 10), 0.37
MODES = [(1, 2, 3), (5, -1, 4)]          # periods along each axis
STEPS, CFL = 24, 0.5                      # nu = 0.87 at order 2, 1.19 at 4
TOL = 1e-12


def symbol(order: int, theta: np.ndarray) -> np.ndarray:
    if order == 2:
        return np.sin(theta)
    return (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / 6.0


def rk4_propagator(M, dt: float, n: int) -> np.ndarray:
    """R(dt M)^n."""
    Z = dt * np.asarray(M, dtype=float)
    Z2 = Z @ Z
    R = np.eye(2) + Z + Z2 / 2 + Z2 @ Z / 6 + Z2 @ Z2 / 24
    return np.linalg.matrix_power(R, n)


def mode(lat: LatticeSpec, m):
    """(s, k.x) of the mode with m_i periods along axis i."""
    theta = 2.0 * np.pi * np.asarray(m) / np.asarray(lat.dims)     # k_i dx
    kx = sum(t / lat.dx * x for t, x in zip(theta, lat.meshgrid()))
    return symbol(lat.stencil_order, theta) / lat.dx, kx


def plane_wave(sector: str, lat: LatticeSpec, s, kx, p: float, q: float):
    """The free state whose sector holds the mode (s, k.x) at amplitudes
    (p, q), the mode's profile, and M."""
    w = np.linalg.norm(s)
    state = zero_state(lat, 1, 1)
    if sector == "scalar":
        profile = (0.6 - 0.8j) * np.cos(kx)
        state.phi[0], state.pi[0] = p * profile, q * profile
        M = [[0.0, 1.0], [-w**2, 0.0]]
    else:
        a = s if sector == "longitudinal" else np.cross(s, (0.3, -0.5, 0.8))
        profile = (a / np.linalg.norm(a))[:, None, None, None] * np.cos(kx)
        state.A[0], state.E[0] = p * profile, q * profile
        M = [[0.0, -1.0], [0.0 if sector == "longitudinal" else w**2, 0.0]]
    return state, profile, M


def sector_fields(sector: str, state):
    """The sector's two fields, and the other sector's."""
    scalar, gauge = (state.phi[0], state.pi[0]), (state.A[0], state.E[0])
    return (scalar, gauge) if sector == "scalar" else (gauge, scalar)


@pytest.mark.parametrize("m", MODES)
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("sector", ["scalar", "transverse", "longitudinal"])
def test_plane_wave_follows_rk4_propagator(sector, order, m):
    """After STEPS steps the sector's fields are R(dt M)^n (p0, q0) times
    the profile to TOL relative (E or pi over w, as (p, q/w) is the
    mode's energy norm), the other sector is still exactly zero, and the
    Gauss residual is the discrete div E: zero to rounding for a ⟂ s, and
    for a ∥ s the constant -(s.a) q0 sin(k.x), as curl A stays zero."""
    lat = LatticeSpec(DIMS, DX, order)
    model = make_model("free_scalar_wave" if sector == "scalar"
                       else "free_maxwell_wave")
    s, kx = mode(lat, m)
    w = np.linalg.norm(s)
    v0 = np.array([1.0, 0.6 * w])
    state, profile, M = plane_wave(sector, lat, s, kx, *v0)
    res0, _, linf0 = gauss_residual(Kinematics(state, lat, model))
    dt = CFL * DX
    for _ in range(STEPS):
        state = step_rk4(state, lat, model, dt)

    p, q = rk4_propagator(M, dt, STEPS) @ v0
    (f, g), other = sector_fields(sector, state)
    err = max(np.max(np.abs(f - p * profile)), np.max(np.abs(g - q * profile)) / w)
    size = max(np.max(np.abs(p * profile)), np.max(np.abs(q * profile)) / w)
    assert err <= TOL * size, (err / size, sector, order, m)
    assert not any(x.any() for x in other)

    res, _, linf = gauss_residual(Kinematics(state, lat, model))
    assert np.array_equal(res, divergence(state.E, lat))
    if sector == "scalar":
        assert linf == 0.0
    elif sector == "transverse":
        assert linf <= TOL * w * np.max(np.abs(state.E))
    else:
        assert q == v0[1]
        div_E = -w * q * np.sin(kx)
        for field, norm in ((res0, linf0), (res, linf)):
            assert np.max(np.abs(field[0] - div_E)) <= TOL * np.max(np.abs(div_E))
            assert norm == pytest.approx(np.max(np.abs(div_E)), rel=TOL)
        assert np.max(np.abs(curl(state.A, lat))) <= TOL * w * np.max(np.abs(state.A))


@pytest.mark.parametrize("sector", ["scalar", "transverse"])
def test_mode_past_the_limit_grows_by_rk4_factor(sector):
    """At order 2 on a grid with each n_i divisible by 4, the mode k_i dx =
    pi/2 has w dt = nu (nu through RunConfig.courant_number).  At nu =
    1.05 * 2 sqrt 2 its energy norm |(p, q/w)| grows by exactly
    |R(i nu)| > 1 per step, so by |R(i nu)|^n over n steps, to TOL."""
    dims, dx, n = (16, 12, 8), DX, 20
    lat = LatticeSpec(dims, dx)
    unit = RunConfig(dims=dims, dx=dx, dt=1.0 * dx).courant_number
    dt = 1.05 * RK4_STABILITY_LIMIT / unit * dx
    model = make_model("free_scalar_wave")
    s, kx = mode(lat, tuple(d // 4 for d in dims))
    w = np.linalg.norm(s)
    state, profile, M = plane_wave(sector, lat, s, kx, 1e-3, 0.0)
    assert w * dt == pytest.approx(1.05 * RK4_STABILITY_LIMIT, rel=1e-14)
    for _ in range(n):
        state = step_rk4(state, lat, model, dt)

    # the amplitudes, by projection on the profile
    norm2 = np.vdot(profile, profile).real
    p, q = (np.vdot(profile, f).real / norm2 for f in sector_fields(sector, state)[0])
    z = 1j * w * dt
    factor = abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    assert factor > 1.0
    assert np.hypot(p, q / w) == pytest.approx(1e-3 * factor**n, rel=TOL)
    assert np.allclose((p, q), rk4_propagator(M, dt, n) @ (1e-3, 0.0),
                       rtol=0, atol=TOL * 1e-3 * factor**n)
