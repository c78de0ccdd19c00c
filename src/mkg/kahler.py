"""Radial Kahler target-space geometry.

The scalar target metric is generated by a radial potential ``Phi(r)`` of the
field amplitude ``r = |phi|``.  For such a potential the complex Hessian of
``K(phi, conj phi) = Phi(|phi|)`` takes the rank-one-corrected form

    g[a, b]    = alpha(r) * delta_ab + q(r) * conj(phi)[a] * phi[b]
    alpha(r)   = Phi'(r) / (2 r)
    q(r)       = (Phi''(r) - Phi'(r)/r) / (4 r**2)

A family holds Phi's coefficients and the series of alpha, q and q'/(2r)
that the evolver reads; ``eom_rhs`` applies g's inverse inline by
Sherman-Morrison.  The dense g, the finite-difference Hessian of ``K``
that fixes q (its ``1/(4r**2)`` prefactor included) and the radial bound
checks live in ``tests/kahler_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import _poly_eval

DEFAULT_R_MAX = 10.0


def _poly_shift(coeffs: dict[int, float], factor, shift: int) -> dict[int, float]:
    """Map coeffs[k] r**k -> factor(k) coeffs[k] r**(k+shift), dropping zeros."""
    out: dict[int, float] = {}
    for k, c in coeffs.items():
        f = factor(k)
        if c * f != 0.0:
            out[k + shift] = out.get(k + shift, 0.0) + c * f
    return out


@dataclass(frozen=True)
class KahlerFamily:
    """Radial Kahler potential with closed-form derivatives.

    ``coefficients[k]`` is the coefficient of ``r**k`` in ``Phi(r)``.  Odd
    powers are rejected: they would make the metric coefficients singular at
    the origin.  ``lower_c1`` is the constant of the lower bound
    ``Phi >= (c1/2) r**2``, which also weights ||Dphi|| in the flat energy J.
    Frozen, since the metric series are built once: ``dataclasses.replace``
    makes a changed family.
    """

    coefficients: tuple[float, ...] = (0.0, 0.0, 1.0)  # Phi = r**2
    lower_c1: float = 2.0
    r_max: float = DEFAULT_R_MAX

    def __post_init__(self):
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("potential coefficients must be finite")
        poly = {k: c for k, c in enumerate(self.coefficients) if c != 0.0}
        if any(k % 2 for k in poly):
            raise ValueError("odd powers of r are not smooth at the origin")
        # alpha = Phi'/(2r): coeff k -> k/2 * r**(k-2)
        alpha = _poly_shift(poly, lambda k: k / 2.0, -2)
        # q = (Phi'' - Phi'/r)/(4 r**2): coeff k -> k(k-2)/4 * r**(k-4)
        q = _poly_shift(poly, lambda k: k * (k - 2) / 4.0, -4)
        # q'/(2r): q coeff m -> m/2 * r**(m-2)
        qp2r = _poly_shift(q, lambda m: m / 2.0, -2)
        object.__setattr__(self, "_alpha_poly", alpha)
        object.__setattr__(self, "_q_poly", q)
        object.__setattr__(self, "_qp2r_poly", qp2r)
        # finite even coefficients leave no negative power: each shift's
        # factor vanishes on the terms it would move below r**0

    # -- scalar radial functions (vectorized over r) --

    def alpha(self, r):
        """Phi'/(2r), evaluated through its regular series at small r."""
        return _poly_eval(self._alpha_poly, r)

    def q(self, r):
        """(Phi'' - Phi'/r)/(4 r**2), the rank-one metric coefficient."""
        return _poly_eval(self._q_poly, r)

    def q_prime_over_2r(self, r):
        return _poly_eval(self._qp2r_poly, r)

    @property
    def has_q(self) -> bool:
        """Whether q has a nonzero term: False on the flat target."""
        return bool(self._q_poly)

    @property
    def has_w(self) -> bool:
        """Whether q'/(2r) has a nonzero term: False on the flat and
        quartic targets."""
        return bool(self._qp2r_poly)


def quartic_family(strength: float = 0.25, **kw) -> KahlerFamily:
    """Phi = r**2 + strength * r**4."""
    return KahlerFamily(coefficients=(0.0, 0.0, 1.0, 0.0, strength), **kw)
