"""Radial Kahler target-space geometry.

The scalar target metric is generated by a radial potential ``Phi(r)`` of the
field amplitude ``r = |phi|``.  For such a potential the complex Hessian of
``K(phi, conj phi) = Phi(|phi|)`` takes the rank-one-corrected form

    g[a, b]    = alpha(r) * delta_ab + q(r) * conj(phi)[a] * phi[b]
    alpha(r)   = Phi'(r) / (2 r)
    q(r)       = (Phi''(r) - Phi'(r)/r) / (4 r**2)

Two candidate normalizations of the rank-one coefficient circulate in the
literature (prefactor ``1/(4r)`` versus ``1/(4r**2)``); the implementation
fixes the choice by direct comparison against a finite-difference Hessian of
``K`` (see :func:`resolve_q_normalization`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateMetric, RadiusExceeded

DEFAULT_R_MAX = 10.0


def _poly_eval(coeffs: dict[int, float], r: np.ndarray | float):
    """Evaluate sum_k coeffs[k] * r**k (integer powers >= 0 only)."""
    r = np.asarray(r, dtype=float)
    return sum((c * r**k for k, c in coeffs.items() if c != 0.0), np.zeros_like(r))


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

    def phi(self, r):
        return _poly_eval({k: c for k, c in enumerate(self.coefficients)}, r)

    def alpha(self, r):
        """Phi'/(2r), evaluated through its regular series at small r."""
        return _poly_eval(self._alpha_poly, r)

    def q(self, r):
        """(Phi'' - Phi'/r)/(4 r**2), the rank-one metric coefficient."""
        return _poly_eval(self._q_poly, r)

    def q_prime_over_2r(self, r):
        return _poly_eval(self._qp2r_poly, r)


def flat_family(**kw) -> KahlerFamily:
    """Phi = r**2."""
    return KahlerFamily(**kw)


def quartic_family(strength: float = 0.25, **kw) -> KahlerFamily:
    """Phi = r**2 + strength * r**4."""
    return KahlerFamily(coefficients=(0.0, 0.0, 1.0, 0.0, strength), **kw)


def sextic_family(strength: float = 0.1, **kw) -> KahlerFamily:
    """Phi = r**2 + strength * r**6."""
    return KahlerFamily(coefficients=(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, strength),
                        **kw)


def _radius(phi: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(phi) ** 2)))


def _check_radius(family: KahlerFamily, r: float):
    if r > family.r_max:
        raise RadiusExceeded(f"|phi| = {r:.6g} exceeds r_max = {family.r_max:.6g}")


def kahler_metric(family: KahlerFamily, phi: Sequence[complex]) -> np.ndarray:
    """Target-space metric g[a, b] at the point phi (Hermitian by
    construction: conj(phi)[a] phi[b] is exactly conjugate-symmetric)."""
    v = np.asarray(phi, dtype=complex)
    r = _radius(v)
    _check_radius(family, r)
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
    the Wirtinger convention d/dphi = (d/dx - i d/dy)/2.  Independent of every
    closed-form path above: it only ever calls ``family.phi``.
    """
    v = np.asarray(phi, dtype=complex)
    n = v.size

    def kfun(x: np.ndarray) -> float:
        w = x[:n] + 1j * x[n:]
        return float(family.phi(np.sqrt(np.sum(np.abs(w) ** 2))))

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


def resolve_q_normalization(family: KahlerFamily, probes: Sequence[Sequence[complex]]):
    """Decide between the 1/(4r) and 1/(4r**2) rank-one prefactors.

    Returns ``(winner, report)`` where winner is the string naming the
    prefactor whose metric matches the finite-difference Hessian at every
    probe point, or None when both fit equally (q = 0 on every probe, as
    on a flat target, makes the two metrics identical).
    """
    errs = {"1/(4r)": 0.0, "1/(4r^2)": 0.0}
    for p in probes:
        v = np.asarray(p, dtype=complex)
        r = _radius(v)
        if r < 1e-3 or r > family.r_max:
            continue
        h = hessian_oracle(family, v)
        a = float(family.alpha(r))
        q2 = float(family.q(r))       # 1/(4 r^2) normalization
        q1 = q2 * r                   # 1/(4 r) normalization
        for name, q in (("1/(4r)", q1), ("1/(4r^2)", q2)):
            g = a * np.eye(v.size) + q * np.outer(v.conj(), v)
            scale = max(1.0, float(np.max(np.abs(h))))
            errs[name] = max(errs[name], float(np.max(np.abs(g - h))) / scale)
    if errs["1/(4r)"] == errs["1/(4r^2)"]:
        return None, errs
    return min(errs, key=errs.get), errs


# -- Radial bound report ------------------------------------------------

@dataclass
class BoundReport:
    radii: np.ndarray
    lhs: np.ndarray           # |Phi(r)|
    rhs: np.ndarray           # upper bound from the fitted b_n chain
    holds: np.ndarray
    lower_rhs: np.ndarray     # (c1/2) r**2
    lower_holds: np.ndarray
    b: tuple[float, ...]
    c1: float
    c2: float
    c3: float

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
    """Fit (b0,), C1, C2 with C3 = 0 from a scan of the same radii.

    b0 caps |Q'/(2r)|; C1 absorbs the slack in the first integrated bound on
    |Q|; C2 is then the smallest constant closing the potential bound on the
    scan grid.
    """
    r = np.asarray(radii, dtype=float)
    b0 = float(np.max(np.abs(family.q_prime_over_2r(r))))
    q_env = b0 * r / 1.0  # integral of b0 * r**0 -> b0 r^1 / 1
    c1 = float(max(0.0, np.max(np.abs(family.q(r)) - q_env)))
    poly = upper_bound_rhs(r, (b0,), c1, 0.0, 0.0)
    c2 = float(max(0.0, np.max(2.0 * (np.abs(family.phi(r)) - poly) / r**2)))
    return (b0,), c1, c2, 0.0


def radial_bound_check(family: KahlerFamily, radii: Sequence[float]) -> BoundReport:
    """Check |Phi(r)| at the given radii against the integrated b_n bound,
    with constants fitted on the same radii, and against the quadratic
    lower bound (c1/2) r**2.

    The fitted b0 = max |Q'/(2r)| over the radii, so the hypothesis
    |Q'/(2r)| <= b0 holds at every sampled radius by construction.
    """
    r = np.asarray(radii, dtype=float)
    if np.any(r <= 0) or np.any(r > family.r_max):
        raise ValueError("radii must lie in (0, r_max]")
    b, c1, c2, c3 = fit_bound_constants(family, r)
    lhs = np.abs(family.phi(r))
    rhs = upper_bound_rhs(r, b, c1, c2, c3)
    lower_rhs = 0.5 * family.lower_c1 * r**2
    return BoundReport(r, lhs, rhs, lhs <= rhs * (1.0 + 1e-12),
                       lower_rhs, lhs >= lower_rhs * (1.0 - 1e-12),
                       b, c1, c2, c3)
