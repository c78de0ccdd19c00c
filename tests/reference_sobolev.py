"""Reference Sobolev energies: the direct form, every second difference.

E1_sf's ddA and ddphi terms are summed here as written, sum_ij |d_i d_j f|^2,
by differencing every component of the gradient along every axis, into
per-site densities that are reduced by `np.sum`, as in mkg.diagnostics.
`mkg.diagnostics.sobolev_energies` takes them by summation by parts; the
tests hold it to this form.
"""

import numpy as np

from mkg.lattice import central_diff, gradient


def _grad_sq(f: np.ndarray, lattice) -> np.ndarray:
    """Per-site sum of |d_i f|^2 over i and every leading axis of f, one
    spatial axis of size > 1 at a time, accumulated from zero."""
    lead = tuple(range(f.ndim - 3))
    return sum((np.sum(np.abs(central_diff(f, i, lattice)) ** 2, axis=lead)
                for i in range(3) if f.shape[f.ndim - 3 + i] > 1),
               np.zeros(f.shape[-3:]))


def reference_sobolev(kin) -> tuple[float, float]:
    """(E0_sf, E1_sf) of one Kinematics, in the direct form."""
    st, lat = kin.state, kin.lattice

    dA = gradient(st.A, lat)
    dens0 = (np.sum(st.E**2, axis=(0, 1)) + np.sum(dA**2, axis=(0, 1, 2))
             + np.sum(st.A**2, axis=(0, 1))
             + np.sum(np.abs(st.pi) ** 2, axis=0)
             + np.sum(np.abs(kin.dphi) ** 2, axis=(0, 1))
             + kin.psi)
    dens1 = (_grad_sq(st.E, lat) + _grad_sq(dA, lat)
             + _grad_sq(st.pi, lat) + _grad_sq(kin.dphi, lat))

    vol = kin.lattice.cell_volume
    return (0.5 * float(np.sum(dens0)) * vol, 0.5 * float(np.sum(dens1)) * vol)
