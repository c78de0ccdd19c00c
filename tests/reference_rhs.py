"""Reference right-hand side: the uncollapsed assembly of the field equations.

Every term of the Euler-Lagrange equations is built as written: two curls
in the gauge sector, and in the scalar sector the -(d_t g) pi terms, the
full (N_C, 3, grid) g D_i phi field and its covariant divergence, and the
curvature contractions (K phi, tr K, conj(phi) K phi) one by one.
`mkg.dynamics.eom_rhs` collapses this algebra; the tests hold it to this
form.
"""

from types import SimpleNamespace

import numpy as np

from mkg.couplings import site_dot
from mkg.dynamics import Kinematics, _cdot
from mkg.lattice import central_diff, curl


def reference_rhs(state, lattice, model) -> SimpleNamespace:
    """The rates dA, dE, dphi and dpi, each its own array."""
    kin = Kinematics(state, lattice, model)
    q = model.charges
    phi, pi, E = state.phi, state.pi, state.E
    psi, alpha, Q, sh, H = kin.psi, kin.alpha, kin.Q, kin.sh, kin.H
    Dphi, pD, u = kin.Dphi, kin.phi_Dphi, kin.phi_pi
    W = model.kahler.q_prime_over_2r(kin.r)

    hf, kf = model.couplings.h, model.couplings.k
    sk = kf.s(np.tanh(psi))
    psidot = 2.0 * np.real(u)

    # ---- gauge sector:  h dE/dt = curl(hH) + curl(kE) - k curl E
    #                              - h' psidot E + k' psidot H - 2 q Im X
    sph = hf.s_prime(np.cosh(psi) ** 2)
    hpE = hf.apply_mod(E, sph)                      # h' E
    kpH = kf.apply_mod(H, kf.s_prime(np.cosh(psi) ** 2))   # k' H
    rhs_E = curl(hf.apply(H, sh), lattice)
    rhs_E += curl(kf.apply(E, sk), lattice)
    rhs_E -= kf.apply(curl(E, lattice), sk)
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

    # sum_i Cov_i(g D_i phi), Cov_i = d_i - i (q.A_i)
    gD = alpha[np.newaxis] * Dphi + Q[np.newaxis] * pD * phi[:, np.newaxis]
    for i in range(3):
        if state.dims[i] > 1:
            R = R + central_diff(gD[:, i], i, lattice)
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

    return SimpleNamespace(dA=-E, dE=dE, dphi=pi.copy(), dpi=dpi)
