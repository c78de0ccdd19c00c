"""Physical energies and residual summaries.

Everything here is a pure function of one state's Kinematics: the
geometric energy E0, the flat energy J, the two Sobolev-type energies, the
norms, and the Gauss/Bianchi constraint summaries, bundled into a
DiagnosticsRecord per instant by `collect`.

The per-site squares |pi|^2, |grad phi|^2, |D phi|^2, |E|^2 and |A|^2
are computed once per Kinematics and shared by the norms, E0 and E0_sf;
`norms` squares H once for linf_F and l2_H.  Every per-site density whose
sum is reported is reduced by `np.add.reduce`, which sums a contiguous
array pairwise, so that its rounding error grows as O(log n) (Higham, SIAM
J. Sci. Comput. 14, 1993).  E1_sf takes its second differences by periodic
summation by parts (Strand, J. Comput. Phys. 110, 1994), and sums their
squares by `_sum_sq`: the central differences d_i of either order are
circulant, commute and are antisymmetric, so

    sum_x sum_ij |d_i d_j f|^2 = sum_x |sum_i d_i d_i f|^2

exactly, one difference of each gradient component along its own axis.
"""

from __future__ import annotations

import numpy as np

from .couplings import site_dot
from .dynamics import Kinematics, ModelSpec, _kinematics, gauss_residual
from .lattice import FieldState, LatticeSpec, _diff_into, divergence, gradient
from .trace import DiagnosticsRecord, NormSnapshot


def energy_E0(kin: Kinematics) -> float:
    """Geometric energy, the integral of T + U with the kinetic and static
    densities

    T = (1/2) E.hE + alpha |pi|^2 + Q |conj(phi).pi|^2
    U = (1/2) H.hH + alpha |Dphi|^2 + Q |conj(phi).Dphi|^2 + V,

    that is (h/2)(E.E + H.H) + g |D_0 phi|^2 + g D_i phi conj(D_i phi) + V.
    The Q and V terms are skipped when the model's sectors switch them off."""
    E, h, sec = kin.state.E, kin.model.couplings.h, kin.model.sectors
    T = 0.5 * site_dot(E, h.apply(E, kin.sh)) + kin.alpha * kin.pi2
    U = 0.5 * site_dot(kin.H, h.apply(kin.H, kin.sh)) + kin.alpha * kin.Dphi2
    if sec.q:
        T += kin.Q * np.abs(kin.phi_pi) ** 2
        U += kin.Q * np.add.reduce(np.abs(kin.phi_Dphi) ** 2, axis=0)
    if sec.potential:
        U += kin.V
    return float(np.add.reduce(T + U, axis=None)) * kin.lattice.cell_volume


def flat_energy_J(snapshot: NormSnapshot, c1: float) -> float:
    """||E|| + ||H|| + (c1/2)||Dphi|| + ||phi|| + ||V||, all L2."""
    return (snapshot.l2_E + snapshot.l2_H + 0.5 * c1 * snapshot.l2_Dphi
            + snapshot.l2_phi + snapshot.l2_V)


def _sum_sq(x: np.ndarray) -> float:
    """The sum of |x|^2 over every entry of a C-contiguous real or complex
    array (a complex one viewed as its interleaved re, im)."""
    v = x.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", v, v))


def _grad_sum_sq(f: np.ndarray, lattice: LatticeSpec) -> float:
    """The sum over sites, i and every leading axis of f of |d_i f|^2, each
    d_i f differenced into one buffer, along the axes of size > 1."""
    buf = np.empty(f.shape, np.result_type(f, 1.0))
    total = 0.0
    for i in range(3):
        ax = f.ndim - 3 + i
        if f.shape[ax] > 1:
            _diff_into(buf, f, ax, lattice)
            total += _sum_sq(buf)
    return total


def sobolev_energies(kin: Kinematics) -> tuple[float, float]:
    """Flat-metric quadratic energies (unit mass).

    E0_sf = 1/2 sum(E.E + dA.dA + A.A + |pi|^2 + |dphi|^2 + |phi|^2) dx^3
    E1_sf = 1/2 sum(dE.dE + ddA.ddA + |dpi|^2 + |ddphi|^2) dx^3

    By summation by parts (module docstring) the ddA and ddphi terms are
    the squares of the divergences of the gradients dA and dphi.
    """
    st, lat = kin.state, kin.lattice

    dA = gradient(st.A, lat)
    e1 = (_grad_sum_sq(st.E, lat) + _sum_sq(divergence(dA, lat))
          + _grad_sum_sq(st.pi, lat) + _sum_sq(divergence(kin.dphi, lat)))
    np.square(dA, out=dA)
    dens0 = (kin.E2 + np.add.reduce(dA, axis=(0, 1, 2)) + kin.A2 + kin.pi2
             + kin.dphi2 + kin.psi)

    vol = kin.lattice.cell_volume
    return 0.5 * float(np.add.reduce(dens0, axis=None)) * vol, 0.5 * e1 * vol


def bianchi_residual(kin: Kinematics) -> float:
    """L-inf of div(curl A): the magnetic Bianchi identity, which the
    periodic central stencils satisfy identically up to rounding.
    (The electric half, d_t H + curl E = 0, holds exactly by construction
    since H = curl A and d_t A = -E share the stencil.)"""
    return float(np.max(np.abs(divergence(kin.H, kin.lattice))))


def _l2(density: np.ndarray, vol: float) -> float:
    return np.sqrt(max(float(np.add.reduce(density, axis=None)) * vol, 0.0))


def norms(kin: Kinematics) -> NormSnapshot:
    """Every norm the estimate functionals consume, at one instant."""
    st = kin.state
    vol = kin.lattice.cell_volume
    HH = kin.H * kin.H

    phi2, pi2 = kin.psi, kin.pi2
    pDphi2 = pi2 + kin.Dphi2

    # dPsi: d_mu Psi = 2 Re(sum_a d_mu phi^a conj(phi^a)); time part uses pi
    dpsi_t = 2.0 * np.real(kin.phi_pi)
    dpsi_x = 2.0 * np.real(np.add.reduce(kin.dphi * st.phi.conj()[:, np.newaxis], axis=0))
    dpsi2 = dpsi_t**2 + np.add.reduce(dpsi_x**2, axis=0)

    ff = np.add.reduce(2.0 * (np.add.reduce(HH, axis=1)
                              - np.add.reduce(st.E**2, axis=1)), axis=0)

    return NormSnapshot(
        t=st.t,
        linf_phi=float(np.sqrt(np.max(phi2))),
        linf_dphi=float(np.sqrt(np.max(pi2 + kin.dphi2))),
        linf_Dphi=float(np.sqrt(np.max(pDphi2))),
        linf_F=float(np.sqrt(np.max(np.abs(ff)))),
        linf_A=float(np.sqrt(np.max(kin.A2))),
        linf_dPsi=float(np.sqrt(np.max(dpsi2))),
        l2_E=_l2(kin.E2, vol),
        l2_H=_l2(np.add.reduce(HH, axis=(0, 1)), vol),
        l2_Dphi=_l2(pDphi2, vol),
        l2_phi=_l2(phi2, vol),
        l2_V=_l2(kin.V**2, vol),
    )


def collect(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
            kin: Kinematics | None = None) -> DiagnosticsRecord:
    """One full diagnostics row for the current state, from one Kinematics:
    kin when given (it must be a Kinematics of this state, lattice and
    model), else a new one.  The Sobolev energies come first, while kin
    holds the fewest arrays (a new one none): the gradient of A is the
    largest temporary of a record.  Once energy_E0, the last reader of the
    diagnostics-only arrays, is done, kin releases them, so that a kin
    passed on to step_rk4 carries into stage k1 only what eom_rhs reads."""
    kin = _kinematics(state, lattice, model, kin)
    e0_sf, e1_sf = sobolev_energies(kin)
    snap = norms(kin)
    e0 = energy_E0(kin)
    kin.release(*Kinematics.DIAGNOSTICS_ONLY)
    _, g_l2, g_linf = gauss_residual(kin)
    return DiagnosticsRecord(
        energy_E0=e0,
        flat_J=flat_energy_J(snap, model.kahler.lower_c1),
        sobolev_E0=e0_sf,
        sobolev_E1=e1_sf,
        gauss_res_l2=g_l2,
        gauss_res_linf=g_linf,
        bianchi_res_linf=bianchi_residual(kin),
        norm_snapshot=snap,
    )
