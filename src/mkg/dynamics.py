"""Field equations in temporal gauge, time stepping, constraints, gauge maps.

The right-hand sides are the Euler-Lagrange equations of the *discretized*
Lagrangian density

    L = 1/2 h_LS (Adot.Adot - H.H) + k_LS Adot.H
        + g_ab pi conj(pi) - g_ab D_i phi conj(D_i phi) - V(Psi)

with H = curl A (central differences) and Adot = -E, so that the discrete
energy E0 is the exact Hamiltonian of the semidiscrete flow and is conserved
up to the integrator's O(dt^4) error.  A numerical action-variation test
certifies the assembled right-hand sides against this Lagrangian directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .couplings import CouplingFamily, site_dot
from .errors import NonFinite, RadiusExceeded
from .kahler import KahlerFamily
from .lattice import (FieldState, LatticeSpec, central_diff,
                      covariant_derivative, curl, divergence, gradient,
                      magnetic_field)
from .potentials import PotentialFamily


@dataclass
class ModelSpec:
    """Full physical model: charges plus the three constitutive families."""

    charges: np.ndarray            # q per gauge index, shared by all scalars
    couplings: CouplingFamily
    kahler: KahlerFamily
    potential: PotentialFamily
    n_gauge: int
    n_scalar: int
    stencil_order: int = 2

    def __post_init__(self):
        self.charges = np.asarray(self.charges, dtype=float)
        if self.n_gauge < 1 or self.n_scalar < 1:
            raise ValueError("need at least one gauge and one scalar field")
        if self.charges.shape != (self.n_gauge,):
            raise ValueError("one charge per gauge index")
        if self.couplings.n_gauge != self.n_gauge:
            raise ValueError("coupling family has wrong gauge rank")


@dataclass
class StateDerivative:
    dA: np.ndarray
    dE: np.ndarray
    dphi: np.ndarray
    dpi: np.ndarray


def _cdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conj(a).b summed over the leading scalar-component axis."""
    return np.sum(a.conj() * b, axis=0)


def eom_rhs(state: FieldState, lattice: LatticeSpec, model: ModelSpec) -> StateDerivative:
    dx = lattice.dx
    order = model.stencil_order
    q = model.charges
    phi, pi, E = state.phi, state.pi, state.E

    psi = np.sum(np.abs(phi) ** 2, axis=0)
    r = np.sqrt(psi)
    rmax = float(np.max(r))
    if rmax > model.kahler.r_max:
        site = np.unravel_index(int(np.argmax(r)), r.shape)
        raise RadiusExceeded(
            f"|phi| = {rmax:.6g} exceeds validity radius "
            f"{model.kahler.r_max:.6g} at site {site}")

    alpha = model.kahler.alpha(r)
    Q = model.kahler.q(r)
    W = model.kahler.q_prime_over_2r(r)

    hf, kf = model.couplings.h, model.couplings.k
    sh, sk = hf.s(psi), kf.s(psi)

    H = magnetic_field(state, lattice, order)
    Dphi = covariant_derivative(state, lattice, q, order)
    qa = np.tensordot(q, state.A, axes=(0, 0))        # (3, grid)
    psidot = 2.0 * np.real(_cdot(phi, pi))

    # ---- gauge sector:  h dE/dt = curl(hH) + curl(kE) - k curl E
    #                              - h' psidot E + k' psidot H - 2 q Im X
    sph = hf.s_prime(psi)
    hpE = hf.apply_mod(E, sph)                      # h' E
    kpH = kf.apply_mod(H, kf.s_prime(psi))          # k' H
    rhs_E = curl(hf.apply(H, sh), dx, order)
    rhs_E += curl(kf.apply(E, sk), dx, order)
    rhs_E -= kf.apply(curl(E, dx, order), sk)
    rhs_E -= psidot * hpE
    rhs_E += psidot * kpH
    # X_i = g_ab D_i phi^a conj(phi^b) = (alpha + Q psi)(conj(phi).Dphi)
    X = (alpha + Q * psi)[np.newaxis] * _cdot(phi[:, np.newaxis], Dphi)
    rhs_E -= 2.0 * q[:, np.newaxis, np.newaxis, np.newaxis, np.newaxis] * X.imag[np.newaxis]
    dE = model.couplings.solve_h(rhs_E, sh)

    # ---- scalar sector:  g dpi/dt = R, solved by Sherman-Morrison
    u = _cdot(phi, pi)                # conj(phi).pi
    pi2 = np.real(_cdot(pi, pi))

    # -(d_t g) pi
    R = -(Q * psidot * pi + Q * u * pi
          + (Q * pi2 + W * psidot * u) * phi)

    # sum_i Cov_i(g D_i phi), Cov_i = d_i - i (q.A_i)
    gD = alpha[np.newaxis] * Dphi \
        + Q[np.newaxis] * _cdot(phi[:, np.newaxis], Dphi) * phi[:, np.newaxis]
    for i in range(3):
        R = R + central_diff(gD[:, i], i, dx, order) - 1j * qa[i] * gD[:, i]

    # curvature term: dbar_b g_ac (pi pi - Dphi Dphi) contractions
    trK = pi2 - np.real(np.sum(np.abs(Dphi) ** 2, axis=(0, 1)))
    # (K phi)_b = pi_b (phi.conj(pi)) - sum_i D_i phi_b (phi.conj(D_i phi))
    Kphi = pi * u.conj() - np.sum(Dphi * _cdot(phi[:, np.newaxis], Dphi).conj()[np.newaxis], axis=1)
    phiKphi = np.abs(u) ** 2 - np.sum(np.abs(_cdot(phi[:, np.newaxis], Dphi)) ** 2, axis=0)
    R = R + Q * (trK * phi + Kphi) + W * phiKphi * phi

    # scalar source from the Psi-dependence of h, k and the potential
    S = (0.5 * site_dot(E, hpE)
         - 0.5 * site_dot(H, hf.apply_mod(H, sph))
         - site_dot(E, kpH) - model.potential.prime(psi))
    R = R + S * phi

    # solve (alpha I + Q phi conj(phi)^T) dpi = R
    denom = alpha + Q * psi
    dpi = R / alpha - (Q * _cdot(phi, R) / (alpha * denom)) * phi

    out = StateDerivative(dA=-E.copy(), dE=dE, dphi=pi.copy(), dpi=dpi)
    return out


def step_rk4(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
             dt: float) -> FieldState:
    """Classical explicit 4-stage update of (A, E, phi, pi)."""

    def add(s: FieldState, d: StateDerivative, c: float) -> FieldState:
        return FieldState(s.A + c * d.dA, s.E + c * d.dE,
                          s.phi + c * d.dphi, s.pi + c * d.dpi, s.t + c)

    if not state.is_finite():
        raise NonFinite(f"non-finite field entering step at t = {state.t:.6g}")
    k1 = eom_rhs(state, lattice, model)
    k2 = eom_rhs(add(state, k1, 0.5 * dt), lattice, model)
    k3 = eom_rhs(add(state, k2, 0.5 * dt), lattice, model)
    k4 = eom_rhs(add(state, k3, dt), lattice, model)

    sixth = dt / 6.0
    new = FieldState(
        A=state.A + sixth * (k1.dA + 2 * k2.dA + 2 * k3.dA + k4.dA),
        E=state.E + sixth * (k1.dE + 2 * k2.dE + 2 * k3.dE + k4.dE),
        phi=state.phi + sixth * (k1.dphi + 2 * k2.dphi + 2 * k3.dphi + k4.dphi),
        pi=state.pi + sixth * (k1.dpi + 2 * k2.dpi + 2 * k3.dpi + k4.dpi),
        t=state.t + dt,
    )
    if not new.is_finite():
        raise NonFinite(f"non-finite field after step to t = {new.t:.6g}")
    return new


def gauss_residual(state: FieldState, lattice: LatticeSpec,
                   model: ModelSpec) -> tuple[np.ndarray, float, float]:
    """Temporal component of the gauge field equation (the constraint).

    residual^S = div E^S - h^{LS} { -2 q_L Im(g_ab pi^a conj(phi^b))
                                    - h'_LG dPsi.E^G + k'_LG dPsi.H^G }

    Returns (field [N_V, grid], L2, Linf); zero on the continuum
    constraint surface.
    """
    dx = lattice.dx
    order = model.stencil_order
    phi, pi, E = state.phi, state.pi, state.E
    psi = np.sum(np.abs(phi) ** 2, axis=0)
    r = np.sqrt(psi)

    alpha = model.kahler.alpha(r)
    Q = model.kahler.q(r)
    hf, kf = model.couplings.h, model.couplings.k
    H = magnetic_field(state, lattice, order)
    dpsi = gradient(psi, dx, order)                         # (3, grid)

    X0 = (alpha + Q * psi) * _cdot(phi, pi)
    src = -2.0 * model.charges[:, np.newaxis, np.newaxis, np.newaxis] \
        * X0.imag[np.newaxis]
    # dPsi.E^G and dPsi.H^G over the vector index, then h', k' and h^-1
    src -= hf.apply_mod(np.sum(dpsi * E, axis=1), hf.s_prime(psi))
    src += kf.apply_mod(np.sum(dpsi * H, axis=1), kf.s_prime(psi))
    src = model.couplings.solve_h(src, hf.s(psi))

    res = divergence(E, dx, order) - src
    l2 = float(np.sqrt(np.sum(res**2) * lattice.cell_volume))
    linf = float(np.max(np.abs(res)))
    return res, l2, linf


def gauge_transform(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
                    theta: np.ndarray) -> FieldState:
    """Time-independent U(1)^N transformation.

    A_i -> A_i + d_i theta, phi -> exp(i sum_G q_G theta^G) phi, pi rotated
    by the same phase, E unchanged.  theta has shape [N_V, grid].
    """
    theta = np.asarray(theta, dtype=float)
    dtheta = gradient(theta, lattice.dx, model.stencil_order)
    phase = np.exp(1j * np.tensordot(model.charges, theta, axes=(0, 0)))
    return FieldState(
        A=state.A + dtheta,
        E=state.E.copy(),
        phi=phase * state.phi,
        pi=phase * state.pi,
        t=state.t,
    )


def lagrangian_density(state: FieldState, lattice: LatticeSpec,
                       model: ModelSpec) -> np.ndarray:
    """Pointwise discretized Lagrangian density (Adot = -E, pi = phidot).

    Used by the action-variation certification of eom_rhs; shares every
    stencil with the right-hand-side assembly.
    """
    order = model.stencil_order
    phi, pi, E = state.phi, state.pi, state.E
    psi = np.sum(np.abs(phi) ** 2, axis=0)
    r = np.sqrt(psi)
    alpha = model.kahler.alpha(r)
    Q = model.kahler.q(r)
    hf, kf = model.couplings.h, model.couplings.k
    sh = hf.s(psi)
    H = magnetic_field(state, lattice, order)
    Dphi = covariant_derivative(state, lattice, model.charges, order)

    adot = -E
    lag = 0.5 * (site_dot(adot, hf.apply(adot, sh)) - site_dot(H, hf.apply(H, sh)))
    lag = lag + site_dot(adot, kf.apply(H, kf.s(psi)))
    lag = lag + alpha * np.real(_cdot(pi, pi)) + Q * np.abs(_cdot(phi, pi)) ** 2
    dsum = np.sum(np.abs(Dphi) ** 2, axis=(0, 1))
    qsum = np.sum(np.abs(_cdot(phi[:, np.newaxis], Dphi)) ** 2, axis=0)
    lag = lag - alpha * dsum - Q * qsum
    lag = lag - model.potential.value(psi)
    return lag
