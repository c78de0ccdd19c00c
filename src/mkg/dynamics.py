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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .couplings import CouplingFamily, _gauge_dot, site_dot
from .errors import NonFinite, RadiusExceeded
from .kahler import KahlerFamily
from .lattice import (FieldState, LatticeSpec, central_diff, curl, divergence,
                      gradient, magnetic_field)
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


@dataclass(eq=False)
class Kinematics:
    """The field kinematics of one state, computed once by `of`.

    eom_rhs and every diagnostic read psi = |phi|^2, r = |phi|, the metric
    scalars alpha(r) and Q(r), the coupling scale sh = h.s(psi), H = curl A,
    the gradient dphi and the covariant derivative
    Dphi = dphi - i (q.A) phi from here instead of rebuilding them.
    """

    state: FieldState
    lattice: LatticeSpec
    model: ModelSpec
    psi: np.ndarray         # [grid]
    r: np.ndarray           # [grid]
    alpha: np.ndarray       # [grid]
    Q: np.ndarray           # [grid]
    sh: np.ndarray          # h.s(psi), [grid]
    H: np.ndarray           # [N_V, 3, grid]
    qa: np.ndarray          # q.A_i, [3, grid]
    dphi: np.ndarray        # [N_C, 3, grid]
    Dphi: np.ndarray        # [N_C, 3, grid]
    phi_pi: np.ndarray      # conj(phi).pi, [grid]
    phi_Dphi: np.ndarray    # conj(phi).D_i phi, [3, grid]

    @classmethod
    def of(cls, state: FieldState, lattice: LatticeSpec,
           model: ModelSpec) -> "Kinematics":
        order = model.stencil_order
        phi = state.phi
        psi = np.sum(np.abs(phi) ** 2, axis=0)
        r = np.sqrt(psi)
        qa = _gauge_dot(model.charges, state.A)
        dphi = gradient(phi, lattice.dx, order)
        Dphi = dphi - 1j * qa[np.newaxis] * phi[:, np.newaxis]
        return cls(state, lattice, model, psi, r,
                   alpha=model.kahler.alpha(r), Q=model.kahler.q(r),
                   sh=model.couplings.h.s(psi),
                   H=magnetic_field(state, lattice, order), qa=qa,
                   dphi=dphi, Dphi=Dphi, phi_pi=_cdot(phi, state.pi),
                   phi_Dphi=_cdot(phi[:, np.newaxis], Dphi))

    @cached_property
    def V(self) -> np.ndarray:
        """Potential V(psi); only the diagnostics read it."""
        return self.model.potential.value(self.psi)

    def densities(self) -> tuple[np.ndarray, np.ndarray]:
        """Kinetic and static densities (T, U), pointwise:

        T = (1/2) E.hE + alpha |pi|^2 + Q |conj(phi).pi|^2
        U = (1/2) H.hH + alpha |Dphi|^2 + Q |conj(phi).Dphi|^2 + V

        E0 integrates T + U; the Lagrangian density is T - U - E.kH.
        """
        E, pi, h = self.state.E, self.state.pi, self.model.couplings.h
        T = (0.5 * site_dot(E, h.apply(E, self.sh))
             + self.alpha * np.sum(np.abs(pi) ** 2, axis=0)
             + self.Q * np.abs(self.phi_pi) ** 2)
        U = (0.5 * site_dot(self.H, h.apply(self.H, self.sh))
             + self.alpha * np.sum(np.abs(self.Dphi) ** 2, axis=(0, 1))
             + self.Q * np.sum(np.abs(self.phi_Dphi) ** 2, axis=0)
             + self.V)
        return T, U


def eom_rhs(state: FieldState, lattice: LatticeSpec, model: ModelSpec) -> StateDerivative:
    kin = Kinematics.of(state, lattice, model)
    rmax = float(np.max(kin.r))
    if rmax > model.kahler.r_max:
        site = tuple(int(i) for i in np.unravel_index(int(np.argmax(kin.r)), kin.r.shape))
        raise RadiusExceeded(
            f"|phi| = {rmax:.6g} exceeds validity radius "
            f"{model.kahler.r_max:.6g} at site {site}")

    dx = lattice.dx
    order = model.stencil_order
    q = model.charges
    phi, pi, E = state.phi, state.pi, state.E
    psi, alpha, Q, sh, H = kin.psi, kin.alpha, kin.Q, kin.sh, kin.H
    Dphi, pD, u = kin.Dphi, kin.phi_Dphi, kin.phi_pi
    W = model.kahler.q_prime_over_2r(kin.r)

    hf, kf = model.couplings.h, model.couplings.k
    sk = kf.s(psi)
    psidot = 2.0 * np.real(u)

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
    X = (alpha + Q * psi)[np.newaxis] * pD
    rhs_E -= 2.0 * q[:, np.newaxis, np.newaxis, np.newaxis, np.newaxis] * X.imag[np.newaxis]
    dE = model.couplings.solve_h(rhs_E, sh)

    # ---- scalar sector:  g dpi/dt = R, solved by Sherman-Morrison
    pi2 = np.real(_cdot(pi, pi))

    # -(d_t g) pi
    R = -(Q * psidot * pi + Q * u * pi
          + (Q * pi2 + W * psidot * u) * phi)

    # sum_i Cov_i(g D_i phi), Cov_i = d_i - i (q.A_i); d_i of a size-1 axis
    # is zero and skipped
    gD = alpha[np.newaxis] * Dphi + Q[np.newaxis] * pD * phi[:, np.newaxis]
    for i in range(3):
        if state.dims[i] > 1:
            R = R + central_diff(gD[:, i], i, dx, order)
        R = R - 1j * kin.qa[i] * gD[:, i]

    # curvature term: dbar_b g_ac (pi pi - Dphi Dphi) contractions
    trK = pi2 - np.real(np.sum(np.abs(Dphi) ** 2, axis=(0, 1)))
    # (K phi)_b = pi_b (phi.conj(pi)) - sum_i D_i phi_b (phi.conj(D_i phi))
    Kphi = pi * u.conj() - np.sum(Dphi * pD.conj()[np.newaxis], axis=1)
    phiKphi = np.abs(u) ** 2 - np.sum(np.abs(pD) ** 2, axis=0)
    R = R + Q * (trK * phi + Kphi) + W * phiKphi * phi

    # scalar source from the Psi-dependence of h, k and the potential
    S = (0.5 * site_dot(E, hpE)
         - 0.5 * site_dot(H, hf.apply_mod(H, sph))
         - site_dot(E, kpH) - model.potential.prime(psi))
    R = R + S * phi

    # solve (alpha I + Q phi conj(phi)^T) dpi = R
    denom = alpha + Q * psi
    dpi = R / alpha - (Q * _cdot(phi, R) / (alpha * denom)) * phi

    return StateDerivative(dA=-E.copy(), dE=dE, dphi=pi.copy(), dpi=dpi)


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


def gauss_residual(kin: Kinematics) -> tuple[np.ndarray, float, float]:
    """Temporal component of the gauge field equation (the constraint).

    residual^S = div E^S - h^{LS} { -2 q_L Im(g_ab pi^a conj(phi^b))
                                    - h'_LG dPsi.E^G + k'_LG dPsi.H^G }

    Returns (field [N_V, grid], L2, Linf); zero on the continuum
    constraint surface.
    """
    model, E, psi = kin.model, kin.state.E, kin.psi
    dx = kin.lattice.dx
    order = model.stencil_order
    hf, kf = model.couplings.h, model.couplings.k
    dpsi = gradient(psi, dx, order)                         # (3, grid)

    X0 = (kin.alpha + kin.Q * psi) * kin.phi_pi
    src = -2.0 * model.charges[:, np.newaxis, np.newaxis, np.newaxis] \
        * X0.imag[np.newaxis]
    # dPsi.E^G and dPsi.H^G over the vector index, then h', k' and h^-1
    src -= hf.apply_mod(np.sum(dpsi * E, axis=1), hf.s_prime(psi))
    src += kf.apply_mod(np.sum(dpsi * kin.H, axis=1), kf.s_prime(psi))
    src = model.couplings.solve_h(src, kin.sh)

    res = divergence(E, dx, order) - src
    l2 = float(np.sqrt(np.sum(res**2) * kin.lattice.cell_volume))
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
    phase = np.exp(1j * _gauge_dot(model.charges, theta))
    return FieldState(
        A=state.A + dtheta,
        E=state.E.copy(),
        phi=phase * state.phi,
        pi=phase * state.pi,
        t=state.t,
    )


def lagrangian_density(kin: Kinematics) -> np.ndarray:
    """Pointwise discretized Lagrangian density (Adot = -E, pi = phidot),
    T - U - E.kH with (T, U) from Kinematics.densities.

    Used by the action-variation certification of eom_rhs; shares every
    stencil with the right-hand-side assembly.
    """
    T, U = kin.densities()
    kf = kin.model.couplings.k
    return T - U - site_dot(kin.state.E, kf.apply(kin.H, kf.s(kin.psi)))
