"""Gauge-coupling families h(Psi), k(Psi), applied without per-site matrices.

Both couplings depend on the scalars only through the amplitude
``Psi = |phi|**2``.  Each is affine in one scalar function of ``psi``,

    m(psi)  = base + s(psi) * mod,     s  = amp * tanh(psi),
    m'(psi) = s'(psi) * mod,           s' = amp * sech(psi)**2,

which is smooth and bounded with bounded derivatives on [0, inf).  The
constant family is the case amp = 0, mod = 0.  A coupling acts on a field
with a leading gauge axis as m.v = base.v + s * (mod.v): two matrix
products over the gauge axis and a per-site scale, never a grid of matrices.

h is inverted through the generalized symmetric eigenproblem of the pencil
(h_base, h_mod) (Golub & Van Loan, Matrix Computations, sec. 8.7).  With
h_base = L L^T and L^-1 h_mod L^-T = U diag(d) U^T, the matrix P = L^-T U
gives P^T h_base P = I and P^T h_mod P = diag(d), hence exactly

    h(psi)^-1 = P diag(1 / (1 + s(psi) d)) P^T .

The same P and d certify definiteness exactly, once, on construction: s
sweeps [0, amp) as psi sweeps [0, inf), so h is uniformly positive definite
if and only if h_base is positive definite and 1 + amp * d_i > 0 for every
i, whatever the sign of amp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndefiniteCoupling

# 1 + amp * d_i at or below this, relative to the spread of the pencil, is
# treated as zero: h would be singular to working precision as psi -> inf
_CERT_RTOL = 64 * np.finfo(float).eps


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _gauge_dot(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m_LS v^S for a constant matrix m (n x n, or a vector of n) and a field
    whose leading axis is the gauge index, e.g. (n, 3, grid) or (n, grid).

    One BLAS product on the (n, rest) view of v.  np.dot on these 2-D
    operands is the call np.tensordot makes, so the result is the same to
    the bit; matmul picks another gemv kernel for a vector m and a short
    rest (n = 4 and 2 or 3 sites differ in the last bit).
    """
    out = np.dot(m, v.reshape(v.shape[0], -1))
    return out.reshape(m.shape[:-1] + v.shape[1:])


def _readonly(a) -> np.ndarray:
    """A read-only float copy of a: how the frozen model parts store arrays."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def site_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-site u.v, summed over every axis in front of the three grid axes."""
    return np.add.reduce(u * v, axis=tuple(range(u.ndim - 3)))


@dataclass(frozen=True)
class MatrixFamily:
    """One matrix-valued function base + amp * tanh(psi) * mod (read-only)."""

    base: np.ndarray
    mod: np.ndarray
    amplitude: float = 0.0
    # whether m depends on psi at all: amp != 0 and mod != 0
    varies: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "base", _readonly(self.base))
        object.__setattr__(self, "mod", _readonly(self.mod))
        object.__setattr__(self, "varies",
                           self.amplitude != 0.0 and bool(np.any(self.mod)))

    def s(self, tanh):
        """s = amp * tanh(psi), from tanh = tanh(psi), which h and k share
        (Kinematics.tanh_psi)."""
        return self.amplitude * tanh

    def s_prime(self, cosh2):
        """s' = amp * sech(psi)**2, from cosh2 = cosh(psi)**2
        (Kinematics.cosh2_psi)."""
        return self.amplitude / cosh2

    def apply(self, v: np.ndarray, s) -> np.ndarray:
        """m(psi).v, with s = self.s(tanh(psi)); base.v alone when m is
        constant."""
        out = _gauge_dot(self.base, v)
        if self.varies:
            out += self.apply_mod(v, s)
        return out

    def apply_mod(self, v: np.ndarray, s) -> np.ndarray:
        """s * (mod.v); with s = self.s_prime(cosh(psi)**2) this is m'(psi).v."""
        out = _gauge_dot(self.mod, v)
        out *= s
        return out


@dataclass(frozen=True)
class CouplingFamily:
    """The pair (h, k) of gauge-coupling matrix functions, n_gauge square."""

    h: MatrixFamily
    k: MatrixFamily
    _P: np.ndarray = field(init=False, repr=False)
    _d: np.ndarray = field(init=False, repr=False)

    @property
    def n_gauge(self) -> int:
        return len(self.h.base)

    def __post_init__(self):
        n = self.n_gauge
        for fam, name in ((self.h, "h"), (self.k, "k")):
            if fam.base.shape != (n, n) or fam.mod.shape != (n, n):
                raise ValueError(f"{name} matrices must be {n}x{n}")
            if not np.allclose(fam.base, fam.base.T) or not np.allclose(fam.mod, fam.mod.T):
                raise ValueError(f"{name} matrices must be symmetric")
        try:
            chol = np.linalg.cholesky(self.h.base)
        except np.linalg.LinAlgError:
            raise IndefiniteCoupling(
                "h_base is not positive definite") from None
        linv = np.linalg.inv(chol)
        d, u = np.linalg.eigh(_sym(linv @ self.h.mod @ linv.T))
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_P", linv.T @ u)
        amp = self.h.amplitude
        lower = 1.0 + amp * d
        tol = _CERT_RTOL * (1.0 + abs(amp) * float(np.max(np.abs(d))))
        if np.min(lower) <= tol:
            raise IndefiniteCoupling(
                f"h(psi) loses definiteness: min_i (1 + amp*d_i) = "
                f"{np.min(lower):.6g} for amp = {amp:.6g}")

    def solve_h(self, v: np.ndarray, s) -> np.ndarray:
        """h(psi)^-1 v, with s = self.h.s(tanh(psi)), by the pencil's
        eigenbasis; P P^T v when h is constant."""
        w = _gauge_dot(self._P.T, v)
        if self.h.varies:
            w /= 1.0 + self._d.reshape((-1,) + (1,) * (v.ndim - 1)) * s
        return _gauge_dot(self._P, w)


def constant_couplings(n_gauge: int, h: np.ndarray | None = None,
                       k: np.ndarray | None = None) -> CouplingFamily:
    return saturating_couplings(n_gauge, h_base=h, h_amplitude=0.0,
                                k_base=k, k_amplitude=0.0)


def saturating_couplings(n_gauge: int, h_base=None, h_mod=None, h_amplitude=1.0,
                         k_base=None, k_mod=None, k_amplitude=1.0) -> CouplingFamily:
    def sym(m, default=np.zeros((n_gauge, n_gauge))):
        return default if m is None else _sym(np.asarray(m, dtype=float))
    return CouplingFamily(
        MatrixFamily(sym(h_base, np.eye(n_gauge)), sym(h_mod), float(h_amplitude)),
        MatrixFamily(sym(k_base), sym(k_mod), float(k_amplitude)))
