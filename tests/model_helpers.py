"""Model-side helpers that several test modules share: the sextic Kahler
target, a scenario's model and state in one call, a copy of a state and the
static U(1)^N gauge transformation."""

import numpy as np

from mkg.couplings import _gauge_dot
from mkg.dynamics import ModelSpec
from mkg.kahler import KahlerFamily
from mkg.lattice import FieldState, LatticeSpec, gradient
from mkg.scenarios import make_model, make_state


def sextic_family(strength: float = 0.1, **kw) -> KahlerFamily:
    """Phi = r**2 + strength * r**6."""
    return KahlerFamily(coefficients=(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, strength),
                        **kw)


def build(name: str, lattice: LatticeSpec, params: dict | None = None,
          seed: int = 0):
    """(model, initial state) of a shipped scenario."""
    model = make_model(name)
    return model, make_state(name, lattice, model, params, seed)


def copy_state(state: FieldState) -> FieldState:
    return FieldState(state.A.copy(), state.E.copy(), state.phi.copy(),
                      state.pi.copy(), state.t)


def gauge_transform(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
                    theta: np.ndarray) -> FieldState:
    """Time-independent U(1)^N transformation.

    A_i -> A_i + d_i theta, phi -> exp(i sum_G q_G theta^G) phi, pi rotated
    by the same phase, E unchanged.  theta has shape [N_V, grid].
    """
    theta = np.asarray(theta, dtype=float)
    dtheta = gradient(theta, lattice)
    phase = np.exp(1j * _gauge_dot(model.charges, theta))
    return FieldState(
        A=state.A + dtheta,
        E=state.E.copy(),
        phi=phase * state.phi,
        pi=phase * state.pi,
        t=state.t,
    )
