"""Monomial oracle of the estimate functionals: the reference the tests
compare mkg.bounds' fast evaluators against.

Each printed display is built a second time, term by term, as a list of
monomials (coefficient + power per norm variable) through a tiny polynomial
algebra.  The fast evaluators and these lists must agree to rounding on
random inputs; that cross-check is the defense against transcription
errors in the very long printed expressions.  `eval_fast` looks up each
display by the same name in `mkg.bounds.estimates`, and `eval_Q` combines
the trace row's functionals into the Q of the |D phi| estimate.
"""

from __future__ import annotations

import dataclasses

from mkg.bounds import EstimateConstants, _pw, estimates, snapshot_env
from mkg.potentials import PotentialKind
from mkg.trace import NormSnapshot

VARS = ("p", "dp", "Dp", "F4", "A", "dPsi", "E0h", "J0", "t")
_IDX = {v: i for i, v in enumerate(VARS)}


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
        """The sum of the monomials at env; env's values may be floats or
        column arrays, as mkg.bounds.snapshot_env gives them."""
        total = 0.0
        vals = [env[v] for v in VARS]
        for e, c in sorted(self.terms.items()):
            m = c
            for x, k in zip(vals, e):
                if k:
                    m *= _pw(x, k)
            total += m
        return total


def _v(name, k=1):
    return Poly.var(name, k)


def _is_polynomial(c: EstimateConstants) -> bool:
    return c.potential_kind is PotentialKind.POLYNOMIAL


def _psum(lo: int, hi: int, shift: int) -> Poly:
    """sum_{n=lo}^{hi} p**(n+shift) as a Poly (exponents must be >= 0)."""
    out = Poly()
    for n in range(lo, hi + 1):
        out = out + _v("p", n + shift)
    return out


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


def build_G(c: EstimateConstants) -> Poly:
    return _v("F4") + _v("Dp")


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
    "P": build_P, "U": build_U, "G": build_G, "Q": build_Q,
}


def eval_monomial(name: str, snapshot: NormSnapshot, constants: EstimateConstants,
                  E0_sf: float = 0.0) -> float:
    return BUILDERS[name](constants).eval(snapshot_env(snapshot, constants, E0_sf))


# ---------------------------------------------------------------------------
# the value mkg.bounds.estimates gives each display, by builder name


def eval_Q(snapshot: NormSnapshot, c: EstimateConstants) -> float:
    e = snapshot_env(snapshot, c)
    J0, t, p, dp = e["J0"], e["t"], e["p"], e["dp"]
    f = estimates(snapshot, c)
    return (J0 * f["Sg"] + J0**2 * (1.0 + t) * f["Xg"] + J0 * p * (1.0 + dp)
            + J0 * f["Ug"] + J0 * f["Wg"]
            + J0**2 * (1.0 + t) * (f["L"] + f["M"] + f["N"]))


# O and D are the polynomial potential's I and H
_POLYNOMIAL_FORM = {"O": "I", "D": "H"}


def eval_fast(name: str, snapshot: NormSnapshot, constants: EstimateConstants,
              E0_sf: float = 0.0) -> float:
    if name == "Q":
        return eval_Q(snapshot, constants)
    if name in _POLYNOMIAL_FORM:
        name = _POLYNOMIAL_FORM[name]
        constants = dataclasses.replace(constants,
                                        potential_kind=PotentialKind.POLYNOMIAL)
    return estimates(snapshot, constants, E0_sf)[name]
