"""Checks of the radial Kahler geometry that the evolver does not run.

`mkg.kahler` gives the evolver the metric's radial coefficients alpha, q
and q'/(2r), and `eom_rhs` applies the inverse of

    g[a, b] = alpha(r) * delta_ab + q(r) * conj(phi)[a] * phi[b]

inline by Sherman-Morrison.  This module builds the dense g
(:func:`kahler_metric`) only to check it: against the finite-difference
Hessian of K = Phi(|phi|) (:func:`hessian_oracle`), which reads Phi alone
and so fixes q, its 1/(4r**2) prefactor included; and through the radial
bounds of the paper's hypothesis on Phi, the upper bound built from the
b_n chain with constants fitted on a scan of radii
(:func:`fit_bound_constants`) and the lower bound Phi >= (c1/2) r**2
(:func:`radial_bound_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mkg.errors import MkgError, RadiusExceeded
from mkg.kahler import KahlerFamily
from mkg.potentials import _poly_eval


class DegenerateMetric(MkgError):
    """Target-space metric failed its positivity check."""


def kahler_potential(family: KahlerFamily, r):
    """Phi(r) from the family's coefficients."""
    return _poly_eval(dict(enumerate(family.coefficients)), r)


def radius(phi: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(phi) ** 2)))


def check_radius(family: KahlerFamily, r: float):
    if r > family.r_max:
        raise RadiusExceeded(f"|phi| = {r:.6g} exceeds r_max = {family.r_max:.6g}")


def kahler_metric(family: KahlerFamily, phi: Sequence[complex]) -> np.ndarray:
    """Target-space metric g[a, b] at the point phi (Hermitian by
    construction: conj(phi)[a] phi[b] is exactly conjugate-symmetric).

    A family whose g is not positive definite at phi raises
    DegenerateMetric here; `eom_rhs` never checks that alpha > 0."""
    v = np.asarray(phi, dtype=complex)
    r = radius(v)
    check_radius(family, r)
    a = float(family.alpha(r))
    q = float(family.q(r))
    if a <= 0.0 or a + q * r**2 <= 0.0:
        raise DegenerateMetric(
            f"metric not positive definite at r = {r:.6g} (alpha = {a:.6g})")
    return a * np.eye(v.size, dtype=complex) + q * np.outer(v.conj(), v)


# -- finite-difference oracle ------------------------------------------------

# nested second differences lose ~eps/h^2 to roundoff, so the step is kept
# large enough that truncation and roundoff balance near 1e-12
FD_STEP = 1e-2
_FD4 = (1.0, -8.0, 8.0, -1.0)
_FD4_OFF = (-2, -1, 1, 2)


def _fd4(fun, x0: np.ndarray, i: int, h: float):
    acc = 0.0
    for w, o in zip(_FD4, _FD4_OFF):
        x = x0.copy()
        x[i] += o * h
        acc = acc + w * fun(x)
    return acc / (12.0 * h)


def hessian_oracle(family: KahlerFamily, phi: Sequence[complex],
                   step: float = FD_STEP) -> np.ndarray:
    """Complex Hessian d^2 K / (d phi[a] d conj(phi)[b]) of K = Phi(|phi|).

    Fourth-order central differences on the real coordinates, combined with
    the Wirtinger convention d/dphi = (d/dx - i d/dy)/2.  Independent of
    every closed-form path: it only ever evaluates Phi.
    """
    v = np.asarray(phi, dtype=complex)
    n = v.size

    def kfun(x: np.ndarray) -> float:
        w = x[:n] + 1j * x[n:]
        return float(kahler_potential(family, np.sqrt(np.sum(np.abs(w) ** 2))))

    x0 = np.concatenate([v.real, v.imag])
    hess = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            dxx = _fd4(lambda x: _fd4(kfun, x, b, step), x0, a, step)
            dyy = _fd4(lambda x: _fd4(kfun, x, n + b, step), x0, n + a, step)
            dxy = _fd4(lambda x: _fd4(kfun, x, n + b, step), x0, a, step)
            dyx = _fd4(lambda x: _fd4(kfun, x, b, step), x0, n + a, step)
            hess[a, b] = 0.25 * ((dxx + dyy) + 1j * (dxy - dyx))
    return hess


def worst_metric_error(family: KahlerFamily, points) -> float:
    """The largest |g - oracle| over the points, each relative to
    max(1, max |oracle|)."""
    worst = 0.0
    for v in points:
        h = hessian_oracle(family, v)
        scale = max(1.0, float(np.max(np.abs(h))))
        worst = max(worst, float(np.max(np.abs(kahler_metric(family, v) - h))) / scale)
    return worst


# -- radial bounds -------------------------------------------------------------

# the scan the bound's constants are fitted on, and a 10x denser grid over
# the same interval on which they are then checked
SCAN_RADII = np.linspace(0.002, 2.0, 1000)
HELD_OUT_RADII = np.linspace(0.002, 2.0, 10000)


@dataclass
class BoundReport:
    holds: np.ndarray         # |Phi(r)| <= the fitted b_n chain's bound
    lower_holds: np.ndarray   # |Phi(r)| >= (c1/2) r**2
    b: tuple[float, ...]
    c1: float
    c2: float

    @property
    def all_hold(self) -> bool:
        return bool(np.all(self.holds)) and bool(np.all(self.lower_holds))


def upper_bound_rhs(r, b: Sequence[float], c1: float, c2: float, c3: float):
    """Right-hand side of the potential bound built from the b_n chain."""
    r = np.asarray(r, dtype=float)
    out = 2.0 * c1 * r**3 + 0.5 * c2 * r**2 + c3
    for n, bn in enumerate(b):
        out = out + 8.0 * bn * r ** (n + 6) / ((n + 4) * (n + 5) * (n + 6))
        out = out + 12.0 * bn * r ** (n + 4) / ((n + 2) * (n + 3) * (n + 4))
    return out


def fit_bound_constants(family: KahlerFamily, radii: Sequence[float]):
    """Fit (b0,), C1, C2 with C3 = 0 from a scan of radii.

    b0 caps |Q'/(2r)|; C1 absorbs the slack in the first integrated bound on
    |Q|; C2 is then the smallest constant closing the potential bound on the
    scan grid.
    """
    r = np.asarray(radii, dtype=float)
    b0 = float(np.max(np.abs(family.q_prime_over_2r(r))))
    q_env = b0 * r / 1.0  # integral of b0 * r**0 -> b0 r^1 / 1
    c1 = float(max(0.0, np.max(np.abs(family.q(r)) - q_env)))
    poly = upper_bound_rhs(r, (b0,), c1, 0.0, 0.0)
    c2 = float(max(0.0, np.max(2.0 * (np.abs(kahler_potential(family, r)) - poly)
                               / r**2)))
    return (b0,), c1, c2, 0.0


def radial_bound_check(family: KahlerFamily, radii: Sequence[float],
                       constants=None) -> BoundReport:
    """Check |Phi(r)| at the given radii against the integrated b_n bound
    and against the quadratic lower bound (c1/2) r**2.

    The bound's constants are `constants`, a fit_bound_constants result,
    or when None are fitted on the same radii: then the fitted b0 = max
    |Q'/(2r)| over the radii, so the hypothesis |Q'/(2r)| <= b0 holds at
    every sampled radius by construction, and the upper bound holds at
    every one too.  Constants fitted on a scan and checked on other radii
    test the bound where it was not fitted.
    """
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0) or np.any(r > family.r_max):
        raise ValueError("radii must lie in (0, r_max]")
    b, c1, c2, c3 = constants or fit_bound_constants(family, r)
    lhs = np.abs(kahler_potential(family, r))
    rhs = upper_bound_rhs(r, b, c1, c2, c3)
    lower_rhs = 0.5 * family.lower_c1 * r**2
    return BoundReport(lhs <= rhs * (1.0 + 1e-12),
                       lhs >= lower_rhs * (1.0 - 1e-12), b, c1, c2)
