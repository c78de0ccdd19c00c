"""Admissible scalar potential families V(Psi) with exact derivatives.

Three shapes are supported: polynomial sum a_n Psi**n, the cosine
(sine-Gordon) potential V0 (1 - cos(lambda Psi)), and the exponential-sum
(Toda) potential sum a_n exp(-lambda_n Psi) with every lambda_n > 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class PotentialKind(Enum):
    POLYNOMIAL = "polynomial"
    SINE_GORDON = "sine_gordon"
    TODA = "toda"


PSI_SCAN_MAX = 100.0


def _poly_eval(coeffs: dict[int, float], x):
    """sum_k coeffs[k] * x**k over increasing k >= 0, in an array of x's
    shape, from the constant term (+0.0 when it is zero): a constant costs
    one pass, and a -0.0 term (c < 0 at x = 0) sums to +0.0."""
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, coeffs.get(0) or 0.0)
    for k, c in coeffs.items():
        if k and c != 0.0:
            out = out + c * x**k
    return out


@dataclass(frozen=True)
class PotentialFamily:
    kind: PotentialKind
    coefficients: tuple[float, ...] = ()          # polynomial a_0..a_N
    v0: float = 0.0                               # sine-Gordon scale
    lam: float = 0.0                              # sine-Gordon frequency
    toda_pairs: tuple[tuple[float, float], ...] = ()  # (a_n, lambda_n)

    def __post_init__(self):
        if self.kind is PotentialKind.TODA:
            if any(l <= 0 for _, l in self.toda_pairs):
                raise ValueError("Toda exponents must be positive")
        psi = np.linspace(0.0, PSI_SCAN_MAX, 2001)
        if np.min(self.value(psi)) < -1e-12:
            warnings.warn("potential takes negative values on the scan range; "
                          "energy positivity is not guaranteed", stacklevel=2)

    def value(self, psi):
        psi = np.asarray(psi, dtype=float)
        if self.kind is PotentialKind.POLYNOMIAL:
            return _poly_eval(dict(enumerate(self.coefficients)), psi)
        if self.kind is PotentialKind.SINE_GORDON:
            return self.v0 * (1.0 - np.cos(self.lam * psi))
        out = np.zeros_like(psi)
        for a, l in self.toda_pairs:
            out = out + a * np.exp(-l * psi)
        return out

    def prime(self, psi):
        psi = np.asarray(psi, dtype=float)
        if self.kind is PotentialKind.POLYNOMIAL:
            return _poly_eval({n - 1: n * a for n, a in
                               enumerate(self.coefficients) if n}, psi)
        if self.kind is PotentialKind.SINE_GORDON:
            return self.v0 * self.lam * np.sin(self.lam * psi)
        out = np.zeros_like(psi)
        for a, l in self.toda_pairs:
            out = out - a * l * np.exp(-l * psi)
        return out

    @property
    def vanishes(self) -> bool:
        """V = 0 identically, and so V' = 0 too."""
        if self.kind is PotentialKind.POLYNOMIAL:
            return not any(self.coefficients)
        if self.kind is PotentialKind.SINE_GORDON:
            return self.v0 == 0.0 or self.lam == 0.0
        return not any(a for a, _ in self.toda_pairs)

    @property
    def polynomial_degree(self) -> int:
        if self.kind is not PotentialKind.POLYNOMIAL:
            return 1
        deg = 0
        for n, a in enumerate(self.coefficients):
            if a != 0.0:
                deg = n
        return max(deg, 1)


def polynomial(*coefficients: float) -> PotentialFamily:
    return PotentialFamily(PotentialKind.POLYNOMIAL, coefficients=tuple(coefficients))


def sine_gordon(v0: float, lam: float) -> PotentialFamily:
    return PotentialFamily(PotentialKind.SINE_GORDON, v0=v0, lam=lam)


def toda(*pairs: tuple[float, float]) -> PotentialFamily:
    return PotentialFamily(PotentialKind.TODA, toda_pairs=tuple(pairs))

