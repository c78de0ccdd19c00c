"""Shipped initial-data scenarios.

Every scenario returns a fully constructed model plus a band-limited initial
state (only lattice-resolvable wavenumbers), so dx-refinement studies of the
same scenario converge at the stencil order.
"""

from __future__ import annotations

import numpy as np

from .couplings import constant_couplings, saturating_couplings
from .dynamics import ModelSpec
from .errors import ValidationError
from .kahler import KahlerFamily, quartic_family
from .lattice import FieldState, LatticeSpec, zero_state
from .potentials import polynomial

# the shipped scenarios, in order, each with its default amplitude
_DEFAULT_AMPLITUDE = {"vacuum": 0.0, "free_maxwell_wave": 0.01,
                      "free_scalar_wave": 0.01, "gaussian_pulse": 0.05,
                      "interacting_demo": 0.05}
SCENARIOS = tuple(_DEFAULT_AMPLITUDE)


def make_model(name: str) -> ModelSpec:
    """The scenario's model.  interacting_demo has two gauge fields and two
    scalars, a saturating h, a nonzero k, a quartic target correction and a
    quartic potential; every other scenario one uncharged gauge field and
    one scalar, identity couplings, a flat target and V = 0."""
    if name not in SCENARIOS:
        raise ValidationError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    if name != "interacting_demo":
        return ModelSpec(charges=np.zeros(1), couplings=constant_couplings(1),
                         kahler=KahlerFamily(), potential=polynomial(0.0),
                         n_scalar=1)
    return ModelSpec(
        charges=np.array([1.0, -0.5]),
        couplings=saturating_couplings(
            2, h_base=[[2.0, 0.3], [0.3, 1.5]], h_mod=[[0.2, 0.1], [0.1, 0.3]],
            h_amplitude=0.5, k_base=[[0.1, 0.05], [0.05, -0.1]],
            k_mod=[[0.05, 0.0], [0.0, 0.05]], k_amplitude=0.3),
        kahler=quartic_family(), potential=polynomial(0.0, 0.0, 1.0),
        n_scalar=2)


def make_state(name: str, lattice: LatticeSpec, model: ModelSpec,
               params: dict | None = None, seed: int = 0) -> FieldState:
    params = dict(params or {})
    amp = float(params.pop("amplitude", _DEFAULT_AMPLITUDE[name]))
    mode = int(params.pop("mode", 1))
    width = float(params.pop("width", 0.1))
    if params:
        raise ValidationError(f"unknown scenario parameters {sorted(params)}")

    length = lattice.dims[0] * lattice.dx
    k = 2.0 * np.pi * mode / length
    x = lattice.axis_coordinates(0)[:, None, None]
    st = zero_state(lattice, model.n_gauge, model.n_scalar)

    if name == "vacuum":
        return st

    if name == "free_maxwell_wave":
        # traveling wave A_y(t,x) = amp sin(k(x - t)), E = -dA/dt
        st.A[0, 1] = amp * np.sin(k * x)
        st.E[0, 1] = amp * k * np.cos(k * x)
        return st

    if name == "free_scalar_wave":
        # standing wave phi(t,x) = amp cos(kx) cos(kt)
        st.phi[0] = amp * np.cos(k * x) * np.ones(lattice.dims)
        return st

    if name == "gaussian_pulse":
        # band-limited pulse: gaussian spectral envelope, seeded phases
        rng = np.random.default_rng(seed)
        m_max = max(lattice.dims[0] // 4, 2)
        field = np.zeros(lattice.dims)
        for m in range(1, m_max + 1):
            c = np.exp(-((m * width) ** 2))
            if c < 1e-14:
                break
            theta = rng.uniform(0.0, 2.0 * np.pi)
            field = field + c * np.cos(2.0 * np.pi * m * x / length + theta)
        field *= amp / max(np.max(np.abs(field)), 1e-300)
        st.phi[0] = field * np.ones(lattice.dims)
        return st

    # interacting_demo
    st.A[0, 1] = amp * np.sin(k * x)
    st.A[1, 2] = 0.6 * amp * np.cos(2 * k * x)
    st.E[0, 1] = 0.8 * amp * k * np.cos(k * x)
    st.E[1, 2] = -0.4 * amp * k * np.sin(k * x)
    ones = np.ones(lattice.dims)
    st.phi[0] = 2 * amp * np.exp(1j * k * x) * ones
    st.phi[1] = amp * (np.cos(k * x) + 0.5j * np.sin(2 * k * x)) * ones
    st.pi[0] = 1j * amp * np.exp(1j * k * x) * ones
    st.pi[1] = 0.4 * amp * ones.astype(complex)
    return st
