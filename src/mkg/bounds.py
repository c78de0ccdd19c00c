"""Estimate functionals and Gronwall-type trace audits.

Every functional of the global-existence estimates is implemented twice:

* a *fast* evaluator, transcribed display by display as plain arithmetic;
* a *symbolic* monomial list (coefficient + power per norm variable), built
  term by term through a tiny polynomial algebra.

The two must agree to rounding on random inputs; that cross-check is the
anti-transcription-error defense for the very long printed expressions.
All free multiplicative constants of the estimates (the various curly-C,
K and B constants) default to 1; only b_n, C1..C3 and c4 are data.

Variable naming throughout (all L-inf unless stated): p = |phi|,
dp = |d phi|, Dp = |D phi|, F4 = |F.F|^(1/2), A = |A|, dPsi = |d Psi|,
E0h = sqrt(sobolev E0), J0 = initial flat energy, t = time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonUniformSampling, TraceTooShort
from .lattice import NormSnapshot
from .potentials import PotentialKind

if TYPE_CHECKING:
    from .diagnostics import DiagnosticsRecord

VARS = ("p", "dp", "Dp", "F4", "A", "dPsi", "E0h", "J0", "t")
_IDX = {v: i for i, v in enumerate(VARS)}


@dataclass(frozen=True)
class EstimateConstants:
    """Data entering the estimate functionals."""

    b_n: tuple[float, ...] = (1.0,)   # b_0..b_N of the curvature bound
    C1: float = 0.0
    C2: float = 0.0
    C3: float = 0.0
    c4: float = 1.0
    N: int = 1                        # upper limit of the printed sums
    J0: float = 1.0
    potential_kind: PotentialKind = PotentialKind.POLYNOMIAL

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("sum cutoff N must be >= 1")
        if not self.b_n:
            raise ValueError("b_n needs at least one value")
        if min(self.C1, self.C2, self.C3, self.c4, self.J0) < 0:
            raise ValueError("estimate constants must be nonnegative")
        if any(b < 0 for b in self.b_n):
            raise ValueError("b_n must be nonnegative")

    def b(self, n: int) -> float:
        return self.b_n[n] if n < len(self.b_n) else self.b_n[-1]


@dataclass
class FittedConstants:
    """Empirical suprema extracted from a trace."""

    C_N_fit: float
    C0_fit: float
    gronwall_fit: float
    c0: float
    c1: float
    k0: float
    k1: float


# ---------------------------------------------------------------------------
# tiny polynomial algebra over the norm variables (monomial oracle)


class Poly:
    """Polynomial with nonnegative integer powers over VARS."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple, float] = dict(terms or {})

    @classmethod
    def const(cls, c: float) -> "Poly":
        if c == 0.0:
            return cls()
        return cls({(0,) * len(VARS): float(c)})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "Poly":
        e = [0] * len(VARS)
        e[_IDX[name]] = power
        return cls({tuple(e): 1.0})

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Poly.const(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Poly({e: c for e, c in out.items() if c != 0.0})

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other == 0.0:
                return Poly()
            return Poly({e: c * other for e, c in self.terms.items()})
        out: dict[tuple, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Poly({e: c for e, c in out.items() if c != 0.0})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly.const(1.0)
        for _ in range(k):
            out = out * self
        return out

    def eval(self, env: dict[str, float]) -> float:
        total = 0.0
        vals = [env[v] for v in VARS]
        for e, c in sorted(self.terms.items()):
            m = c
            for x, k in zip(vals, e):
                if k:
                    m *= _pw(x, k)
            total += m
        return total

    def n_terms(self) -> int:
        return len(self.terms)


def _v(name, k=1):
    return Poly.var(name, k)


def _psum(lo: int, hi: int, shift: int) -> Poly:
    """sum_{n=lo}^{hi} p**(n+shift) as a Poly (exponents must be >= 0)."""
    out = Poly()
    for n in range(lo, hi + 1):
        out = out + _v("p", n + shift)
    return out


def _pw(x, k: int):
    """x**k for a float or a column array, rounded as libm pow rounds it.

    numpy's vectorised ``**`` is not pow: it squares for k = 2 and, on
    AVX-512 CPUs, calls a SIMD pow for k >= 3; each rounds differently
    from pow in some elements (one in twenty for the SIMD pow).
    ``np.float_power`` calls pow per element, so a column gives bit for bit
    what the per-record floats give; floats stay Python floats.
    """
    if k == 0:
        return 1.0
    return x**k if isinstance(x, float) else np.float_power(x, k)


def _ps(p: float, lo: int, hi: int, shift: int) -> float:
    return sum(_pw(p, n + shift) for n in range(lo, hi + 1))


def _sqrt_pos(x):
    """sqrt(max(x, 0)) for a float or a column array; both square roots are
    correctly rounded, so they agree bit for bit."""
    if isinstance(x, float):
        return math.sqrt(max(x, 0.0))
    return np.sqrt(np.maximum(x, 0.0))


def snapshot_env(snapshot: NormSnapshot, constants: EstimateConstants,
                 E0_sf=0.0) -> dict:
    """The estimate variables of one snapshot, or of a whole trace when the
    snapshot fields and E0_sf are column arrays."""
    return {
        "p": snapshot.linf_phi, "dp": snapshot.linf_dphi,
        "Dp": snapshot.linf_Dphi, "F4": snapshot.linf_F,
        "A": snapshot.linf_A, "dPsi": snapshot.linf_dPsi,
        "E0h": _sqrt_pos(E0_sf), "J0": constants.J0,
        "t": snapshot.t,
    }


def _is_polynomial(constants: EstimateConstants) -> bool:
    return constants.potential_kind is PotentialKind.POLYNOMIAL


# ---------------------------------------------------------------------------
# symbolic builders, one per printed display


def build_O(c: EstimateConstants) -> Poly:
    # p dp (1 + J0 (1+t) sum_{n=1}^{N-2} p^{2n+1})
    inner = Poly.const(1.0)
    if c.N - 2 >= 1:
        s = Poly()
        for n in range(1, c.N - 1):
            s = s + _v("p", 2 * n + 1)
        inner = inner + _v("J0") * (1 + _v("t")) * s
    return _v("p") * _v("dp") * inner


def build_I(c: EstimateConstants) -> Poly:
    if _is_polynomial(c):
        return build_O(c)
    return _v("p") * _v("dp") * _v("J0")


def build_D(c: EstimateConstants) -> Poly:
    # sum_{n=0}^{N-1} p^{2n} + J0 (1+t) dPsi sum_{n=0}^{N-2} p^{2n}
    s1 = Poly()
    for n in range(0, c.N):
        s1 = s1 + _v("p", 2 * n)
    s2 = Poly()
    for n in range(0, c.N - 1):
        s2 = s2 + _v("p", 2 * n)
    return s1 + _v("J0") * (1 + _v("t")) * _v("dPsi") * s2


def build_H(c: EstimateConstants) -> Poly:
    if _is_polynomial(c):
        return build_D(c)
    return _v("J0") * (_v("dPsi") ** 2 + 1)


def _Zq(c: EstimateConstants) -> Poly:
    # the recurring quartet: p + p^3 + sum p^{n+2} + sum p^{n+4}
    return _v("p") + _v("p", 3) + _psum(1, c.N, 2) + _psum(1, c.N, 4)


def build_L(c: EstimateConstants) -> Poly:
    return (_v("p") * _Zq(c) * (_v("dp") + 1)
            + _v("dPsi") * _v("p") + _v("dp")
            + _v("p", 2) * _v("dp") + _v("p") * build_I(c))


def build_M(c: EstimateConstants) -> Poly:
    s = _v("p") * _v("dPsi") + _v("p", 2)
    for n in range(1, c.N + 1):
        s = s + ((n + 2) / (n + 1)) * c.b(n) * _v("p", n + 3)
    s = s + c.C1 * _v("p", 2) + _v("p", 2) + _v("p")
    s = s + _psum(1, c.N, 5) + _psum(1, c.N, 4) + _psum(1, c.N, 3) + _psum(1, c.N, 2)
    return s + 1


def build_N(c: EstimateConstants) -> Poly:
    head = (_psum(1, c.N, 5) + _psum(1, c.N, 4) + _psum(1, c.N, 3)
            + _psum(1, c.N, 2) + _v("p", 2) + _v("p") + 1)
    tail = _Zq(c) * (_v("dp") + 1)
    return head + tail + _v("p") * _v("dp") + c.c4 * build_I(c)


def build_Sg(c: EstimateConstants) -> Poly:
    # script-S of the scalar estimate
    return (_v("dp") * (_psum(1, c.N, 2) + _psum(1, c.N, 1) + 1)
            + build_I(c) + _v("p") + (1 + _v("t")) * _v("A")
            + _v("dp") * _Zq(c) * (1 + _v("p")))


def build_Xg(c: EstimateConstants) -> Poly:
    return (Poly.const(1.0) + _v("dp", 2) * _v("p", 2) + _v("dp") * _v("p", 2)
            + _v("p") + _v("dp") + _v("p", 2))


def build_Ug(c: EstimateConstants) -> Poly:
    return _Zq(c) * (1 + _v("p")) + _v("p") * _v("dp") + c.c4 * build_I(c)


def build_Wg(c: EstimateConstants) -> Poly:
    inner = _Zq(c) * (1 + _v("dp")) + _v("p") * _v("dp") + c.c4 * build_I(c)
    return inner * _Zq(c) + build_H(c)


def build_Y(c: EstimateConstants) -> Poly:
    s = Poly()
    for n in range(1, c.N + 1):
        b = c.b(n)
        s = s + 8 * b * _v("p", n + 6) + b * _v("p", n + 5) + 12 * b * _v("p", n + 3)
    s = s + 6 * c.C1 * (_v("p", 2) + _v("p", 3))
    s = s + (c.C2 + c.C3) * _v("p") + Poly.const(c.C3)
    return s


def build_Z(c: EstimateConstants) -> Poly:
    return _Zq(c)


def build_Pcal(c: EstimateConstants) -> Poly:
    # exponent of the sobolev-E0 Gronwall bound
    return (build_Y(c) * (_v("Dp") + 1 + _v("p"))
            + _v("F4") * _v("dp") * (1 + _v("p"))
            + (_v("dp") + _v("Dp")) * build_Z(c)
            + build_I(c) + 1)


def build_Ztilde(c: EstimateConstants) -> Poly:
    s = Poly()
    for n in range(1, c.N + 1):
        s = s + ((n + 2) / (n + 1)) * c.b(n) * _v("p", n + 2)
    return s + c.C1 * _v("p")


def build_Zhat(c: EstimateConstants) -> Poly:
    s = Poly()
    for n in range(0, c.N + 1):
        s = s + ((n + 2) / (n + 1)) * c.b(n) * _v("p", n + 1)
        s = s + (n + 3) * c.b(n) * _v("p", n + 2)
    return s + c.C1


def build_Zcal(c: EstimateConstants) -> Poly:
    # Psi_inf = p^2
    if _is_polynomial(c):
        s1 = Poly()
        for n in range(2, c.N + 1):      # the n=1 term carries factor (n-1)=0
            s1 = s1 + (n - 1) * _v("p", 2 * (n - 2))
        s2 = Poly()
        for n in range(1, c.N + 1):
            s2 = s2 + n * _v("p", 2 * (n - 1))
        return _v("p") * s1 * _v("E0h") + s2
    return 1 + _v("E0h") * _v("p")


def build_chi(c: EstimateConstants) -> Poly:
    if _is_polynomial(c):
        s = Poly()
        for n in range(1, c.N + 1):
            s = s + n * _v("p", 2 * (n - 1))
        return _v("E0h") * s
    return _v("E0h")


def build_S(c: EstimateConstants) -> Poly:
    Zt = build_Ztilde(c)
    Zh = build_Zhat(c)
    Z = build_Z(c)
    return (_v("dp") * Zt * (_v("p") * _v("F4") * _v("E0h") + build_chi(c))
            + _v("E0h") * _v("dp") * Zt * Zt * (1 + _v("p")) * (_v("Dp") + _v("dp"))
            + _v("E0h") * Z * (_v("Dp") + 1) * (_v("dp") + _v("p"))
            + _v("E0h") * _v("F4") * _v("dp")
            + _v("Dp") * _v("p", 2) * _v("dp") * _v("E0h") * (1 + _v("p"))
            + Zh * _v("dp") * (1 + _v("p")) * _v("E0h", 2))


def build_T(c: EstimateConstants) -> Poly:
    return (_v("E0h") * (1 + _v("p")) * build_Ztilde(c)
            + _v("F4") * _v("p") + build_Z(c) * (_v("Dp") + 1))


def build_X(c: EstimateConstants) -> Poly:
    Y = build_Y(c)
    inner = (_v("Dp") * _v("dp") + _v("Dp") + _v("p") + _v("dp") + 1)
    return (Y * (inner * _v("E0h") + 1)
            + _v("E0h") * _v("F4") * (_v("dp", 2) * _v("p") + _v("dp"))
            + _v("p"))


def build_W(c: EstimateConstants) -> Poly:
    Y = build_Y(c)
    Zt = build_Ztilde(c)
    Zh = build_Zhat(c)
    return (_v("Dp") * Y * (_v("dp") * _v("E0h") + _v("p")
                            + _v("dPsi") * _v("E0h") * _v("dp"))
            + _v("F4") * _v("p") * _v("dp") * (_v("dp") * _v("E0h")
                                               + _v("p") * _v("E0h")
                                               + _v("dPsi") * _v("E0h") * _v("dp"))
            + _v("Dp") * _v("dPsi") * Zt * _v("E0h")
            + _v("Dp") * _v("p") * (Zh * _v("dp") * _v("E0h") + Zt)
            + _v("dp") * Y * (_v("p") + _v("E0h") * _v("p", 2)
                              + _v("E0h") * _v("dp") * _v("p")
                              + _v("Dp") * _v("E0h"))
            + _v("F4") * _v("dp", 2) * _v("p", 3) * (_v("dp", 2) + _v("p")) * _v("E0h")
            + _v("dp", 2) * _v("p", 2))


def build_P(c: EstimateConstants) -> Poly:
    Y = build_Y(c)
    Zt = build_Ztilde(c)
    S = build_S(c)
    T = build_T(c)
    Zc = build_Zcal(c)
    return (_v("p", 2) * _v("dp", 2)
            + Zt * _v("Dp") * _v("dp") * _v("p")
            + _v("F4") * _v("dp") * _v("p", 2)
            + _v("F4") * _v("dp")
            + _v("p") * T
            + Y * (T + _v("p") + _v("A") + 1)
            + _v("p") * S
            + _v("p") * Zc
            + Y * S
            + _v("E0h") * Y * (_v("dp") + _v("p"))
            + Y * Zc
            + _v("p", 2) * _v("dp", 3) * _v("F4") * _v("E0h")
            + _v("Dp") * _v("dp") * _v("p") * _v("E0h") * Y
            + Zt * _v("dp") * _v("p") * _v("Dp")
            * (_v("E0h") + _v("E0h") * (_v("p") * _v("dp") + _v("p", 2)))
            + _v("F4") * (_v("dPsi") * _v("dp", 2) * _v("E0h") * _v("p")
                          + _v("dp", 2) * _v("p") * _v("E0h"))
            + _v("F4") * (_v("dPsi") * (_v("dp") * _v("E0h") + _v("p"))
                          + _v("dPsi", 2) * _v("dp") * _v("E0h")))


def build_U(c: EstimateConstants) -> Poly:
    return build_S(c) + build_T(c) + build_Zcal(c)


def build_Q(c: EstimateConstants) -> Poly:
    # all free constants set to one
    J0, t = _v("J0"), _v("t")
    return (J0 * build_Sg(c) + J0 * J0 * (1 + t) * build_Xg(c)
            + J0 * _v("p") * (1 + _v("dp"))
            + J0 * build_Ug(c) + J0 * build_Wg(c)
            + J0 * J0 * (1 + t) * (build_L(c) + build_M(c) + build_N(c)))


BUILDERS = {
    "I": build_I, "O": build_O, "H": build_H, "D": build_D,
    "L": build_L, "M": build_M, "N": build_N,
    "Sg": build_Sg, "Xg": build_Xg, "Ug": build_Ug, "Wg": build_Wg,
    "Y": build_Y, "Z": build_Z, "Pcal": build_Pcal,
    "Ztilde": build_Ztilde, "Zhat": build_Zhat,
    "Zcal": build_Zcal, "chi": build_chi,
    "S": build_S, "T": build_T, "X": build_X, "W": build_W,
    "P": build_P, "U": build_U, "Q": build_Q,
}


def eval_monomial(name: str, snapshot: NormSnapshot, constants: EstimateConstants,
                  E0_sf: float = 0.0) -> float:
    return BUILDERS[name](constants).eval(snapshot_env(snapshot, constants, E0_sf))


# ---------------------------------------------------------------------------
# fast evaluators (independent transcriptions of the same displays)


def eval_O(snapshot: NormSnapshot, c: EstimateConstants) -> float:
    e = snapshot_env(snapshot, c)
    p, dp, J0, t = e["p"], e["dp"], e["J0"], e["t"]
    inner = 1.0 + J0 * (1.0 + t) * sum(_pw(p, 2 * n + 1) for n in range(1, c.N - 1))
    return p * dp * inner


def eval_I(snapshot: NormSnapshot, c: EstimateConstants) -> float:
    if _is_polynomial(c):
        return eval_O(snapshot, c)
    e = snapshot_env(snapshot, c)
    return e["p"] * e["dp"] * e["J0"]


def eval_D_func(snapshot: NormSnapshot, c: EstimateConstants) -> float:
    e = snapshot_env(snapshot, c)
    p, J0, t, dPsi = e["p"], e["J0"], e["t"], e["dPsi"]
    s1 = sum(_pw(p, 2 * n) for n in range(0, c.N))
    s2 = sum(_pw(p, 2 * n) for n in range(0, c.N - 1))
    return s1 + J0 * (1.0 + t) * dPsi * s2


def eval_H_func(snapshot: NormSnapshot, c: EstimateConstants) -> float:
    if _is_polynomial(c):
        return eval_D_func(snapshot, c)
    e = snapshot_env(snapshot, c)
    return e["J0"] * (_pw(e["dPsi"], 2) + 1.0)


def _zq(p: float, c: EstimateConstants) -> float:
    return p + _pw(p, 3) + _ps(p, 1, c.N, 2) + _ps(p, 1, c.N, 4)


def eval_LMNSXUW(snapshot: NormSnapshot, c: EstimateConstants):
    """The seven functionals a trace row carries, (L, M, N, Sg, Xg, Ug, Wg),
    from one environment, one I, one Z(p) and one of each power sum."""
    e = snapshot_env(snapshot, c)
    p, dp, dPsi, A, t = e["p"], e["dp"], e["dPsi"], e["A"], e["t"]
    I = eval_I(snapshot, c)
    Z = _zq(p, c)
    s1, s2, s3, s4, s5 = (_ps(p, 1, c.N, k) for k in range(1, 6))
    L = (p * Z * (dp + 1.0) + dPsi * p + dp + _pw(p, 2) * dp
         + p * I)
    M = (p * dPsi + _pw(p, 2)
         + sum((n + 2) / (n + 1) * c.b(n) * _pw(p, n + 3) for n in range(1, c.N + 1))
         + c.C1 * _pw(p, 2) + _pw(p, 2) + p
         + s5 + s4 + s3 + s2 + 1.0)
    N = (s5 + s4 + s3 + s2 + _pw(p, 2) + p + 1.0
         + Z * (dp + 1.0)
         + p * dp + c.c4 * I)
    Sg = (dp * (s2 + s1 + 1.0)
          + I + p + (1.0 + t) * A
          + dp * Z * (1.0 + p))
    Xg = 1.0 + _pw(dp, 2) * _pw(p, 2) + dp * _pw(p, 2) + p + dp + _pw(p, 2)
    Ug = Z * (1.0 + p) + p * dp + c.c4 * I
    Wg = (Z * (1.0 + dp) + p * dp + c.c4 * I) * Z + eval_H_func(snapshot, c)
    return L, M, N, Sg, Xg, Ug, Wg


def eval_LMN(snapshot: NormSnapshot, c: EstimateConstants) -> tuple[float, float, float]:
    return eval_LMNSXUW(snapshot, c)[:3]


def eval_SXUW(snapshot: NormSnapshot, c: EstimateConstants) -> tuple[float, float, float, float]:
    return eval_LMNSXUW(snapshot, c)[3:]


def eval_YZP(snapshot: NormSnapshot, c: EstimateConstants, E0_sf: float):
    """Returns (Y, Z, Pcal, X, W, P, U, Ztilde, Zhat, S, T, Zcal, chi)."""
    e = snapshot_env(snapshot, c, E0_sf)
    p, dp, Dp, F4 = e["p"], e["dp"], e["Dp"], e["F4"]
    A, dPsi, E0h = e["A"], e["dPsi"], e["E0h"]
    I = eval_I(snapshot, c)

    Y = (sum(c.b(n) * (8.0 * _pw(p, n + 6) + _pw(p, n + 5) + 12.0 * _pw(p, n + 3))
             for n in range(1, c.N + 1))
         + 6.0 * c.C1 * (_pw(p, 2) + _pw(p, 3)) + (c.C2 + c.C3) * p + c.C3)
    Z = _zq(p, c)
    Pcal = Y * (Dp + 1.0 + p) + F4 * dp * (1.0 + p) + (dp + Dp) * Z + I + 1.0

    Zt = sum((n + 2) / (n + 1) * c.b(n) * _pw(p, n + 2)
             for n in range(1, c.N + 1)) + c.C1 * p
    Zh = sum((n + 2) / (n + 1) * c.b(n) * _pw(p, n + 1)
             + (n + 3) * c.b(n) * _pw(p, n + 2)
             for n in range(0, c.N + 1)) + c.C1

    psi = p * p
    if _is_polynomial(c):
        Zcal = (p * sum((n - 1) * _pw(psi, n - 2) for n in range(2, c.N + 1)) * E0h
                + sum(n * _pw(psi, n - 1) for n in range(1, c.N + 1)))
        chi = E0h * sum(n * _pw(psi, n - 1) for n in range(1, c.N + 1))
    else:
        Zcal = 1.0 + E0h * p
        chi = E0h

    S = (dp * Zt * (p * F4 * E0h + chi)
         + E0h * dp * _pw(Zt, 2) * (1.0 + p) * (Dp + dp)
         + E0h * Z * (Dp + 1.0) * (dp + p)
         + E0h * F4 * dp
         + Dp * _pw(p, 2) * dp * E0h * (1.0 + p)
         + Zh * dp * (1.0 + p) * _pw(E0h, 2))
    T = E0h * (1.0 + p) * Zt + F4 * p + Z * (Dp + 1.0)

    X = (Y * ((Dp * dp + Dp + p + dp + 1.0) * E0h + 1.0)
         + E0h * F4 * (_pw(dp, 2) * p + dp) + p)
    W = (Dp * Y * (dp * E0h + p + dPsi * E0h * dp)
         + F4 * p * dp * (dp * E0h + p * E0h + dPsi * E0h * dp)
         + Dp * dPsi * Zt * E0h
         + Dp * p * (Zh * dp * E0h + Zt)
         + dp * Y * (p + E0h * _pw(p, 2) + E0h * dp * p + Dp * E0h)
         + F4 * _pw(dp, 2) * _pw(p, 3) * (_pw(dp, 2) + p) * E0h
         + _pw(dp, 2) * _pw(p, 2))
    P = (_pw(p, 2) * _pw(dp, 2) + Zt * Dp * dp * p + F4 * dp * _pw(p, 2)
         + F4 * dp
         + p * T + Y * (T + p + A + 1.0) + p * S + p * Zcal + Y * S
         + E0h * Y * (dp + p) + Y * Zcal
         + _pw(p, 2) * _pw(dp, 3) * F4 * E0h
         + Dp * dp * p * E0h * Y
         + Zt * dp * p * Dp * (E0h + E0h * (p * dp + _pw(p, 2)))
         + F4 * (dPsi * _pw(dp, 2) * E0h * p + _pw(dp, 2) * p * E0h)
         + F4 * (dPsi * (dp * E0h + p) + _pw(dPsi, 2) * dp * E0h))
    U = S + T + Zcal
    return Y, Z, Pcal, X, W, P, U, Zt, Zh, S, T, Zcal, chi


def eval_G(snapshot: NormSnapshot) -> float:
    return snapshot.linf_F + snapshot.linf_Dphi


def eval_Q(snapshot: NormSnapshot, c: EstimateConstants) -> float:
    e = snapshot_env(snapshot, c)
    J0, t, p, dp = e["J0"], e["t"], e["p"], e["dp"]
    L, M, N, Sg, Xg, Ug, Wg = eval_LMNSXUW(snapshot, c)
    return (J0 * Sg + J0**2 * (1.0 + t) * Xg + J0 * p * (1.0 + dp)
            + J0 * Ug + J0 * Wg + J0**2 * (1.0 + t) * (L + M + N))


# fast evaluator per builder name: (function, index into its tuple or None)
_FAST = {"I": (eval_I, None), "O": (eval_O, None), "H": (eval_H_func, None),
         "D": (eval_D_func, None), "Q": (eval_Q, None)}
_FAST.update({n: (eval_LMNSXUW, i) for i, n in enumerate(
    ("L", "M", "N", "Sg", "Xg", "Ug", "Wg"))})
_FAST.update({n: (eval_YZP, i) for i, n in enumerate(
    ("Y", "Z", "Pcal", "X", "W", "P", "U", "Ztilde", "Zhat", "S", "T", "Zcal", "chi"))})


def eval_fast(name: str, snapshot: NormSnapshot, constants: EstimateConstants,
              E0_sf: float = 0.0) -> float:
    fn, index = _FAST[name]
    out = (fn(snapshot, constants, E0_sf) if fn is eval_YZP
           else fn(snapshot, constants))
    return out if index is None else out[index]


# ---------------------------------------------------------------------------
# trace audits


def _check_uniform(ts: np.ndarray) -> float:
    if len(ts) < 3:
        raise TraceTooShort(f"need >= 3 records, got {len(ts)}")
    dt = np.diff(ts)
    if dt.min() <= 0 or (dt.max() - dt.min()) > 1e-9 * max(dt.max(), 1e-300):
        raise NonUniformSampling("trace is not uniformly sampled in time")
    return float(dt[0])


def _ddt(vals: np.ndarray, dt: float) -> np.ndarray:
    """2nd-order central differences, one-sided at the endpoints."""
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dt)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dt)
    return out


def _fit_line_cap(ts: np.ndarray, resid: np.ndarray) -> tuple[float, float]:
    """Smallest (a0, a1), both >= 0, with resid(t) <= a0 + a1 t."""
    a0 = max(float(resid[0]), 0.0)
    rest = resid[1:] - a0
    ts_rest = ts[1:]
    pos = ts_rest > 0
    a1 = float(np.max(rest[pos] / ts_rest[pos], initial=0.0))
    return a0, max(a1, 0.0)


def _ratio_sup(num: np.ndarray, den: np.ndarray) -> float:
    """sup num/den over the trace with 0/0 guarded to 0."""
    mask = den > 1e-300
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / den[mask]))


def audit_gronwall(trace: DiagnosticsRecord, constants: EstimateConstants):
    """Fit the smallest constants closing the three Gronwall-type bounds on
    a diagnostics trace; returns (FittedConstants, report dict).

    (a) J(t) <= C_N J(0) (1+t)
    (b) dE0_sf/dt <= C0 Pcal(t) E0_sf
    (c) E1_sf(t) <= E1_sf(0) exp(fit * int_0^t (X + W + P + U) ds)
    plus caps (c0 + c1 t), (k0 + k1 t) on the self-referencing inequalities
    for |F.F|^(1/2) and |D phi|.

    Fit (c) is the integrated form of dE1_sf/dt <= fit (X+W+P+U) E1_sf: the
    pointwise derivative ratio has a heavy-tailed supremum (dE1/dt oscillates
    with slowly growing spikes while E1 itself stays bounded), so its running
    max never settles; the exponent of the integrated envelope does.

    `trace` is columnar (run.parse_trace, diagnostics.stack_records): every
    field an array over the records.  Each functional is evaluated once over
    the whole trace, through the same evaluators trace_row calls per record.
    """
    ts = np.asarray(trace.t, dtype=float)
    dt = _check_uniform(ts)
    n = len(ts)

    J = trace.flat_J
    J0 = J[0]
    envelope = J0 * (1.0 + ts)
    ratios = np.where(envelope > 1e-300, J / np.maximum(envelope, 1e-300), 0.0)
    C_N_fit = float(np.max(ratios)) if J0 > 1e-300 else 0.0

    snap = trace.norm_snapshot
    E0v = trace.sobolev_E0
    E1v = trace.sobolev_E1
    Pcal = build_Pcal(constants).eval(snapshot_env(snap, constants, E0v))
    _, _, _, X, W, P, U, *_ = eval_YZP(snap, constants, E0v)
    XWPU = X + W + P + U

    def c0_fit_to(k):
        return _ratio_sup(_ddt(E0v[:k], dt), (Pcal * E0v)[:k])

    cum_XWPU = np.zeros(n)
    cum_XWPU[1:] = np.cumsum(0.5 * (XWPU[1:] + XWPU[:-1]) * dt)

    def e1_fit_to(k):
        if E1v[0] <= 1e-300:
            return 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            expo = np.log(E1v[1:k] / E1v[0]) / np.maximum(cum_XWPU[1:k], 1e-300)
        return float(max(np.max(expo), 0.0)) if k > 1 else 0.0

    C0_fit = c0_fit_to(n)
    gronwall_fit = e1_fit_to(n)

    # caps on the two self-referencing inequalities (trapezoidal integrals)
    F4, Dp, p = snap.linf_F, snap.linf_Dphi, snap.linf_phi
    dp, A = snap.linf_dphi, snap.linf_A

    def cumint(f2):
        out = np.zeros(n)
        out[1:] = np.cumsum(0.5 * (f2[1:] + f2[:-1]) * dt)
        return np.sqrt(out)

    iF, iD, ip, idp, iA = (cumint(F4**2), cumint(Dp**2), cumint(p**2),
                           cumint(dp**2), cumint(A**2))
    L, M, N, Sg, _, Ug, Wg = eval_LMNSXUW(snap, constants)
    J0c = constants.J0
    bound_F = J0c**2 * (1.0 + ts) * (L * iF + M * iD + N * ip)
    resid_F = F4 - bound_F
    c0, c1 = _fit_line_cap(ts, resid_F)
    bound_D = (J0c * iD * Sg + J0c**2 * (1.0 + ts) * iF * X
               + J0c * ip * p * (1.0 + dp) + J0c * iA * Ug
               + J0c * idp * Wg)
    resid_D = Dp - bound_D
    k0, k1 = _fit_line_cap(ts, resid_D)

    # stabilization: final-quarter supremum vs half-trace supremum
    half = float(np.max(ratios[: max(n // 2, 2)]))
    quarter = float(np.max(ratios[-max(n // 4, 2):]))
    stabilized = quarter <= 1.05 * half + 1e-300

    # fit stabilization: half-trace fits within 5% of the full-trace fits
    nh = max(n // 2, 3)        # _ddt needs three samples
    C0_half = c0_fit_to(nh)
    gronwall_half = e1_fit_to(nh)
    fits_stabilized = (C0_fit <= 1.05 * C0_half + 1e-300
                       and gronwall_fit <= 1.05 * gronwall_half + 1e-300)

    fitted = FittedConstants(C_N_fit=C_N_fit, C0_fit=C0_fit,
                             gronwall_fit=gronwall_fit,
                             c0=c0, c1=c1, k0=k0, k1=k1)
    report = {
        "C_N_fit": C_N_fit,
        "C0_fit": C0_fit,
        "gronwall_fit": gronwall_fit,
        "caps": (c0, c1, k0, k1),
        "stabilized": stabilized,
        "half_sup": half,
        "final_quarter_sup": quarter,
        "C0_half": C0_half,
        "gronwall_half": gronwall_half,
        "fits_stabilized": fits_stabilized,
        "records": n,
        "dt": dt,
    }
    return fitted, report
