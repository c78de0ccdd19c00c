"""Physical energies and residual summaries.

Everything here is a pure function of one state: the geometric energy E0,
the flat energy J, the two Sobolev-type energies, and the Gauss/Bianchi
constraint summaries, bundled into a DiagnosticsRecord per instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import site_dot
from .dynamics import ModelSpec, gauss_residual
from .lattice import (FieldState, LatticeSpec, NormSnapshot, central_diff,
                      covariant_derivative, divergence, gradient,
                      magnetic_field, norms, pairwise_sum)

DEFAULT_MASS_M = 1.0
_R_FLOOR = 1e-12


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    energy_E0: float
    flat_J: float
    sobolev_E0: float
    sobolev_E1: float
    gauss_res_l2: float
    gauss_res_linf: float
    bianchi_res_linf: float
    norm_snapshot: NormSnapshot
    mass_m: float


def energy_density(state: FieldState, lattice: LatticeSpec,
                   model: ModelSpec) -> np.ndarray:
    """Pointwise integrand of E0:
    (h/2)(E.E + H.H) + g |D_0 phi|^2 + g D_i phi conj(D_i phi) + V."""
    order = model.stencil_order
    phi, pi = state.phi, state.pi
    psi = np.sum(np.abs(phi) ** 2, axis=0)
    r = np.sqrt(psi)
    alpha = model.kahler.alpha(r)
    Q = model.kahler.q(r)
    hf = model.couplings.h
    sh = hf.s(psi)
    H = magnetic_field(state, lattice, order)
    Dphi = covariant_derivative(state, lattice, model.charges, order)

    dens = 0.5 * (site_dot(state.E, hf.apply(state.E, sh)) + site_dot(H, hf.apply(H, sh)))
    u = np.sum(phi.conj() * pi, axis=0)
    dens = dens + alpha * np.sum(np.abs(pi) ** 2, axis=0) + Q * np.abs(u) ** 2
    dsum = np.sum(np.abs(Dphi) ** 2, axis=(0, 1))
    proj = np.sum(np.abs(np.sum(phi.conj()[:, np.newaxis] * Dphi, axis=0)) ** 2, axis=0)
    dens = dens + alpha * dsum + Q * proj
    dens = dens + model.potential.value(psi)
    return dens


def energy_E0(state: FieldState, lattice: LatticeSpec, model: ModelSpec) -> float:
    return pairwise_sum(energy_density(state, lattice, model)) * lattice.cell_volume


def energy_E0_potential_form(state: FieldState, lattice: LatticeSpec,
                             model: ModelSpec) -> float:
    """Same energy with the target metric written out in radial-potential
    derivatives, Phi'/(2r) and (Phi'' - Phi'/r)/(4 r^2).  Regression twin
    of energy_E0; must agree to rounding."""
    order = model.stencil_order
    phi, pi = state.phi, state.pi
    psi = np.sum(np.abs(phi) ** 2, axis=0)
    r = np.maximum(np.sqrt(psi), _R_FLOOR)
    alpha = model.kahler.phi_p(r) / (2.0 * r)
    Q = (model.kahler.phi_pp(r) - model.kahler.phi_p(r) / r) / (4.0 * r**2)
    hf = model.couplings.h
    sh = hf.s(psi)
    H = magnetic_field(state, lattice, order)
    Dphi = covariant_derivative(state, lattice, model.charges, order)

    dens = 0.5 * (site_dot(state.E, hf.apply(state.E, sh)) + site_dot(H, hf.apply(H, sh)))
    u = np.sum(phi.conj() * pi, axis=0)
    dens = dens + alpha * np.sum(np.abs(pi) ** 2, axis=0) + Q * np.abs(u) ** 2
    dens = dens + alpha * np.sum(np.abs(Dphi) ** 2, axis=(0, 1))
    dens = dens + Q * np.sum(
        np.abs(np.sum(phi.conj()[:, np.newaxis] * Dphi, axis=0)) ** 2, axis=0)
    dens = dens + model.potential.value(psi)
    return pairwise_sum(dens) * lattice.cell_volume


def flat_energy_J(snapshot: NormSnapshot, c1: float) -> float:
    """||E|| + ||H|| + (c1/2)||Dphi|| + ||phi|| + ||V||, all L2."""
    return (snapshot.l2_E + snapshot.l2_H + 0.5 * c1 * snapshot.l2_Dphi
            + snapshot.l2_phi + snapshot.l2_V)


def sobolev_energies(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
                     m: float = DEFAULT_MASS_M) -> tuple[float, float]:
    """Flat-metric quadratic energies.

    E0_sf = 1/2 sum(E.E + dA.dA + m A.A + |pi|^2 + |dphi|^2 + m |phi|^2) dx^3
    E1_sf = 1/2 sum(dE.dE + ddA.ddA + |dpi|^2 + |ddphi|^2) dx^3
    """
    if m <= 0:
        raise ValueError("mass parameter m must be positive")
    dx = lattice.dx
    order = model.stencil_order
    g = lambda f: gradient(f, dx, order)

    dA = g(state.A)
    dphi = g(state.phi)
    dens0 = (np.sum(state.E**2, axis=(0, 1)) + np.sum(dA**2, axis=(0, 1, 2))
             + m * np.sum(state.A**2, axis=(0, 1))
             + np.sum(np.abs(state.pi) ** 2, axis=0)
             + np.sum(np.abs(dphi) ** 2, axis=(0, 1))
             + m * np.sum(np.abs(state.phi) ** 2, axis=0))

    dE = g(state.E)
    ddA = g(dA)
    dpi = g(state.pi)
    ddphi = g(dphi)
    dens1 = (np.sum(dE**2, axis=(0, 1, 2)) + np.sum(ddA**2, axis=(0, 1, 2, 3))
             + np.sum(np.abs(dpi) ** 2, axis=(0, 1))
             + np.sum(np.abs(ddphi) ** 2, axis=(0, 1, 2)))

    vol = lattice.cell_volume
    return (0.5 * pairwise_sum(dens0) * vol, 0.5 * pairwise_sum(dens1) * vol)


def bianchi_residual(state: FieldState, lattice: LatticeSpec,
                     model: ModelSpec) -> float:
    """L-inf of div(curl A): the magnetic Bianchi identity, which the
    roll-based central stencils satisfy identically up to rounding.
    (The electric half, d_t H + curl E = 0, holds exactly by construction
    since H = curl A and d_t A = -E share the stencil.)"""
    H = magnetic_field(state, lattice, model.stencil_order)
    return float(np.max(np.abs(divergence(H, lattice.dx, model.stencil_order))))


def collect(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
            m: float = DEFAULT_MASS_M, c1: float | None = None) -> DiagnosticsRecord:
    """One full diagnostics row for the current state."""
    if c1 is None:
        c1 = model.kahler.lower_c1 if model.kahler.lower_c1 is not None else 1.0
    snap = norms(state, lattice, model)
    _, g_l2, g_linf = gauss_residual(state, lattice, model)
    e0_sf, e1_sf = sobolev_energies(state, lattice, model, m)
    return DiagnosticsRecord(
        t=state.t,
        energy_E0=energy_E0(state, lattice, model),
        flat_J=flat_energy_J(snap, c1),
        sobolev_E0=e0_sf,
        sobolev_E1=e1_sf,
        gauss_res_l2=g_l2,
        gauss_res_linf=g_linf,
        bianchi_res_linf=bianchi_residual(state, lattice, model),
        norm_snapshot=snap,
        mass_m=m,
    )

