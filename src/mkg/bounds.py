"""Estimate functionals and Gronwall-type trace audits.

Every functional of the global-existence estimates is transcribed once
here, display by display, as plain arithmetic in one function,
`estimates`, which returns them all by display name from one record's
floats or a whole trace's columns.  Their form changes with the potential
(polynomial, or sine-Gordon and Toda) in I, H, Zcal and chi only, and
`estimates` branches on it once.  Every integer power goes through `_pw`,
libm pow, so a column and its per-record floats round alike, and each
distinct power of an `estimates` call is computed once.  `write_trace`
(mkg.trace) writes the columns L..G from one call, and `audit_gronwall`
reads every functional it needs from one call.  The tests keep a second,
symbolic transcription of every display (a monomial list built term by
term) as the reference `estimates` must match to rounding: the defense
against transcription errors in the very long printed expressions.

All free multiplicative constants of the estimates (the various curly-C,
K and B constants) default to 1; only b_n, C1..C3 and c4 are data.

Variable naming throughout (all L-inf unless stated): p = |phi|,
dp = |d phi|, Dp = |D phi|, F4 = |F.F|^(1/2), A = |A|, dPsi = |d Psi|,
E0h = sqrt(sobolev E0), J0 = initial flat energy, t = time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonUniformSampling, TraceTooShort
from .potentials import PotentialKind

if TYPE_CHECKING:    # annotations only: mkg.trace imports this module
    from .trace import DiagnosticsRecord, NormSnapshot


@dataclass(frozen=True)
class EstimateConstants:
    """Data entering the estimate functionals."""

    b_n: tuple[float, ...] = (1.0, 1.0)   # b_0..b_N of the curvature bound
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
        given = {"C1": self.C1, "C2": self.C2, "C3": self.C3, "c4": self.c4,
                 "J0": self.J0}
        bad = [f"{k} = {v!r}" for k, v in given.items()
               if not (math.isfinite(v) and v >= 0)]
        if bad:
            raise ValueError(f"estimate constants must be finite and "
                             f"nonnegative, got {', '.join(bad)}")
        if not all(math.isfinite(b) and b >= 0 for b in self.b_n):
            raise ValueError(f"b_n must be finite and nonnegative, got {self.b_n!r}")

    def b(self, n: int) -> float:
        return self.b_n[n] if n < len(self.b_n) else self.b_n[-1]


@dataclass(frozen=True)
class GronwallAudit:
    """The constants audit_gronwall fits on a trace, and how they settle."""

    C_N_fit: float
    C0_fit: float
    gronwall_fit: float
    c0: float                  # cap c0 + c1 t on |F.F|^(1/2)
    c1: float
    k0: float                  # cap k0 + k1 t on |D phi|
    k1: float
    stabilized: bool           # final-quarter sup of J/(J0(1+t)) settled
    half_sup: float
    final_quarter_sup: float
    C0_half: float             # C0_fit and gronwall_fit on the first half
    gronwall_half: float
    fits_stabilized: bool
    records: int


def _pw(x, k: int):
    """x**k for a float or a column array, rounded as libm pow rounds it.

    numpy's vectorised ``**`` is not pow: it squares for k = 2 and, on
    AVX-512 CPUs, calls a SIMD pow for k >= 3; each rounds differently
    from pow in some elements (one in twenty for the SIMD pow).
    ``np.float_power`` calls pow per element, so a column gives bit for bit
    what Python's ``x**k`` gives on each of its floats (short of overflow,
    where Python raises and this gives inf).
    """
    return np.float_power(x, k)


def _power_memo():
    """pw(x, k) = _pw(x, k), computed once per operand and exponent.  The
    memo keeps each operand alive, so its id names it while the memo lives;
    a repeated call returns the same result, with the same bits."""
    memo = {}

    def pw(x, k: int):
        hit = memo.get((id(x), k))
        if hit is None:
            hit = memo[id(x), k] = (x, _pw(x, k))
        return hit[1]

    return pw


def snapshot_env(snapshot: NormSnapshot, constants: EstimateConstants,
                 E0_sf=0.0) -> dict:
    """The estimate variables of one snapshot, or of a whole trace when the
    snapshot fields and E0_sf are column arrays."""
    return {
        "p": snapshot.linf_phi, "dp": snapshot.linf_dphi,
        "Dp": snapshot.linf_Dphi, "F4": snapshot.linf_F,
        "A": snapshot.linf_A, "dPsi": snapshot.linf_dPsi,
        "E0h": np.sqrt(np.maximum(E0_sf, 0.0)), "J0": constants.J0,
        "t": snapshot.t,
    }


# ---------------------------------------------------------------------------
# estimate functionals, every printed display from one environment


def estimates(snapshot: NormSnapshot, c: EstimateConstants, E0_sf=0.0) -> dict:
    """Every estimate functional of one snapshot, or of a whole trace when
    the snapshot fields and E0_sf are column arrays, keyed by display name:
    I, H, L, M, N, Sg, Xg, Ug, Wg, Y, Z, Pcal, X, W, P, U, Ztilde, Zhat, S,
    T, Zcal, chi and G.  I, H, Zcal and chi take the polynomial potential's
    form or the sine-Gordon and Toda form by c.potential_kind."""
    e = snapshot_env(snapshot, c, E0_sf)
    pw = _power_memo()        # a power that recurs is computed once
    p, dp, Dp, F4 = e["p"], e["dp"], e["Dp"], e["F4"]
    A, dPsi, E0h, J0, t = e["A"], e["dPsi"], e["E0h"], e["J0"], e["t"]

    if c.potential_kind is PotentialKind.POLYNOMIAL:
        # I and H are the displays O and D; Psi_inf = p^2
        I = p * dp * (1.0 + J0 * (1.0 + t)
                      * sum(pw(p, 2 * n + 1) for n in range(1, c.N - 1)))
        H = (sum(pw(p, 2 * n) for n in range(0, c.N))
             + J0 * (1.0 + t) * dPsi * sum(pw(p, 2 * n) for n in range(0, c.N - 1)))
        psi = p * p
        Zcal = (p * sum((n - 1) * pw(psi, n - 2) for n in range(2, c.N + 1)) * E0h
                + sum(n * pw(psi, n - 1) for n in range(1, c.N + 1)))
        chi = E0h * sum(n * pw(psi, n - 1) for n in range(1, c.N + 1))
    else:
        I = p * dp * J0
        H = J0 * (pw(dPsi, 2) + 1.0)
        Zcal = 1.0 + E0h * p
        chi = E0h

    # sum_{n=1}^{N} p^(n+k) for k = 1..5, and the recurring quartet Z
    s1, s2, s3, s4, s5 = (sum(pw(p, n + k) for n in range(1, c.N + 1))
                          for k in range(1, 6))
    Z = p + pw(p, 3) + s2 + s4

    L = (p * Z * (dp + 1.0) + dPsi * p + dp + pw(p, 2) * dp
         + p * I)
    M = (p * dPsi + pw(p, 2)
         + sum((n + 2) / (n + 1) * c.b(n) * pw(p, n + 3) for n in range(1, c.N + 1))
         + c.C1 * pw(p, 2) + pw(p, 2) + p
         + s5 + s4 + s3 + s2 + 1.0)
    N = (s5 + s4 + s3 + s2 + pw(p, 2) + p + 1.0
         + Z * (dp + 1.0)
         + p * dp + c.c4 * I)
    Sg = (dp * (s2 + s1 + 1.0)
          + I + p + (1.0 + t) * A
          + dp * Z * (1.0 + p))
    Xg = 1.0 + pw(dp, 2) * pw(p, 2) + dp * pw(p, 2) + p + dp + pw(p, 2)
    Ug = Z * (1.0 + p) + p * dp + c.c4 * I
    Wg = (Z * (1.0 + dp) + p * dp + c.c4 * I) * Z + H

    Y = (sum(c.b(n) * (8.0 * pw(p, n + 6) + pw(p, n + 5) + 12.0 * pw(p, n + 3))
             for n in range(1, c.N + 1))
         + 6.0 * c.C1 * (pw(p, 2) + pw(p, 3)) + (c.C2 + c.C3) * p + c.C3)
    Pcal = Y * (Dp + 1.0 + p) + F4 * dp * (1.0 + p) + (dp + Dp) * Z + I + 1.0

    Zt = sum((n + 2) / (n + 1) * c.b(n) * pw(p, n + 2)
             for n in range(1, c.N + 1)) + c.C1 * p
    Zh = sum((n + 2) / (n + 1) * c.b(n) * pw(p, n + 1)
             + (n + 3) * c.b(n) * pw(p, n + 2)
             for n in range(0, c.N + 1)) + c.C1

    S = (dp * Zt * (p * F4 * E0h + chi)
         + E0h * dp * pw(Zt, 2) * (1.0 + p) * (Dp + dp)
         + E0h * Z * (Dp + 1.0) * (dp + p)
         + E0h * F4 * dp
         + Dp * pw(p, 2) * dp * E0h * (1.0 + p)
         + Zh * dp * (1.0 + p) * pw(E0h, 2))
    T = E0h * (1.0 + p) * Zt + F4 * p + Z * (Dp + 1.0)

    X = (Y * ((Dp * dp + Dp + p + dp + 1.0) * E0h + 1.0)
         + E0h * F4 * (pw(dp, 2) * p + dp) + p)
    W = (Dp * Y * (dp * E0h + p + dPsi * E0h * dp)
         + F4 * p * dp * (dp * E0h + p * E0h + dPsi * E0h * dp)
         + Dp * dPsi * Zt * E0h
         + Dp * p * (Zh * dp * E0h + Zt)
         + dp * Y * (p + E0h * pw(p, 2) + E0h * dp * p + Dp * E0h)
         + F4 * pw(dp, 2) * pw(p, 3) * (pw(dp, 2) + p) * E0h
         + pw(dp, 2) * pw(p, 2))
    P = (pw(p, 2) * pw(dp, 2) + Zt * Dp * dp * p + F4 * dp * pw(p, 2)
         + F4 * dp
         + p * T + Y * (T + p + A + 1.0) + p * S + p * Zcal + Y * S
         + E0h * Y * (dp + p) + Y * Zcal
         + pw(p, 2) * pw(dp, 3) * F4 * E0h
         + Dp * dp * p * E0h * Y
         + Zt * dp * p * Dp * (E0h + E0h * (p * dp + pw(p, 2)))
         + F4 * (dPsi * pw(dp, 2) * E0h * p + pw(dp, 2) * p * E0h)
         + F4 * (dPsi * (dp * E0h + p) + pw(dPsi, 2) * dp * E0h))
    U = S + T + Zcal
    return {"I": I, "H": H, "L": L, "M": M, "N": N, "Sg": Sg, "Xg": Xg,
            "Ug": Ug, "Wg": Wg, "Y": Y, "Z": Z, "Pcal": Pcal, "X": X, "W": W,
            "P": P, "U": U, "Ztilde": Zt, "Zhat": Zh, "S": S, "T": T,
            "Zcal": Zcal, "chi": chi, "G": F4 + Dp}


# ---------------------------------------------------------------------------
# trace audits


def _check_uniform(ts: np.ndarray) -> float:
    if len(ts) < 3:
        raise TraceTooShort(f"need >= 3 records, got {len(ts)}")
    dt = np.diff(ts)
    # written so that a nan time fails the test
    if not (dt.min() > 0 and dt.max() - dt.min() <= 1e-9 * max(dt.max(), 1e-300)):
        raise NonUniformSampling("trace is not uniformly sampled in time")
    return float(dt[0])


def _ddt(vals: np.ndarray, dt: float) -> np.ndarray:
    """2nd-order central differences, one-sided at the endpoints."""
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dt)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dt)
    return out


def _finite(*arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _fit_line_cap(ts: np.ndarray, resid: np.ndarray) -> tuple[float, float]:
    """Smallest (a0, a1), both >= 0, with resid(t) <= a0 + a1 t; (nan, nan)
    when a residual is not finite."""
    if not _finite(resid):
        return math.nan, math.nan
    a0 = max(float(resid[0]), 0.0)
    rest = resid[1:] - a0
    ts_rest = ts[1:]
    pos = ts_rest > 0
    a1 = float(np.max(rest[pos] / ts_rest[pos], initial=0.0))
    return a0, max(a1, 0.0)


def _cumtrapz(f: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral of samples dt apart, 0 at the first."""
    out = np.zeros(len(f))
    out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1]) * dt)
    return out


def _ratio_sup(num: np.ndarray, den: np.ndarray) -> float:
    """sup num/den over the trace with 0/0 guarded to 0, floored at 0 like
    the other fitted constants (the bounds hold for nonnegative constants);
    nan when a num or den is not finite."""
    if not _finite(num, den):
        return math.nan
    mask = den > 1e-300
    if not np.any(mask):
        return 0.0
    return float(max(np.max(num[mask] / den[mask]), 0.0))


@np.errstate(over="ignore", invalid="ignore")
def audit_gronwall(trace: DiagnosticsRecord, constants: EstimateConstants):
    """Fit the smallest constants closing the three Gronwall-type bounds on
    a diagnostics trace; returns one GronwallAudit.  Each fit or cap is nan
    when a value it is fitted from is not finite, so a trace cell that is
    inf or nan, or a product that overflows, gives a fit or cap that is not
    finite, without a warning: the caller reports it.  A nan time fails the
    uniform-sampling check.

    (a) J(t) <= C_N J(0) (1+t)
    (b) dE0_sf/dt <= C0 Pcal(t) E0_sf
    (c) E1_sf(t) <= E1_sf(0) exp(fit * int_0^t (X + W + P + U) ds)
    plus caps (c0 + c1 t), (k0 + k1 t) on the self-referencing inequalities
    for |F.F|^(1/2) and |D phi|.  Each cap's bound is its part of the
    composite Q, a term at a time times the integral (int_0^t x^2)^(1/2)
    of the norm x it carries: L, M, N for |F.F|^(1/2); the gothic Sg, Xg,
    p(1+dp), Ug and Wg for |D phi|.

    Fit (c) is the integrated form of dE1_sf/dt <= fit (X+W+P+U) E1_sf: the
    pointwise derivative ratio has a heavy-tailed supremum (dE1/dt oscillates
    with slowly growing spikes while E1 itself stays bounded), so its running
    max never settles; the exponent of the integrated envelope does.

    `trace` is columnar (trace.parse_trace, trace.stack_records): every
    field an array over the records.  Every functional comes from one
    `estimates` call over the whole trace, as in trace.write_trace.
    """
    ts = np.asarray(trace.t, dtype=float)
    dt = _check_uniform(ts)
    n = len(ts)

    J = trace.flat_J
    J0 = J[0]
    envelope = J0 * (1.0 + ts)
    ratios = np.where(envelope > 1e-300, J / np.maximum(envelope, 1e-300), 0.0)
    C_N_fit = (math.nan if not _finite(J)
               else float(np.max(ratios)) if J0 > 1e-300 else 0.0)

    snap = trace.norm_snapshot
    E0v = trace.sobolev_E0
    E1v = trace.sobolev_E1
    f = estimates(snap, constants, E0v)
    Pcal = f["Pcal"]

    # a prefix of the full trace's derivative: differencing the prefix itself
    # would take a one-sided difference at its new endpoint
    dE0 = _ddt(E0v, dt)

    def c0_fit_to(k):
        return _ratio_sup(dE0[:k], (Pcal * E0v)[:k])

    cum_XWPU = _cumtrapz(f["X"] + f["W"] + f["P"] + f["U"], dt)

    def e1_fit_to(k):
        if not _finite(E1v[:k], cum_XWPU[:k]):
            return math.nan
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

    iF, iD, ip, idp, iA = (np.sqrt(_cumtrapz(x**2, dt))
                           for x in (F4, Dp, p, dp, A))
    J0c = constants.J0
    bound_F = J0c**2 * (1.0 + ts) * (f["L"] * iF + f["M"] * iD + f["N"] * ip)
    c0, c1 = _fit_line_cap(ts, F4 - bound_F)
    bound_D = (J0c * iD * f["Sg"] + J0c**2 * (1.0 + ts) * iF * f["Xg"]
               + J0c * ip * p * (1.0 + dp) + J0c * iA * f["Ug"]
               + J0c * idp * f["Wg"])
    k0, k1 = _fit_line_cap(ts, Dp - bound_D)

    # stabilization: final-quarter supremum vs half-trace supremum
    half = float(np.max(ratios[: max(n // 2, 2)]))
    quarter = float(np.max(ratios[-max(n // 4, 2):]))
    stabilized = quarter <= 1.05 * half + 1e-300

    # fit stabilization: half-trace fits within 5% of the full-trace fits
    nh = max(n // 2, 3)        # three records, the fewest an audit takes
    C0_half = c0_fit_to(nh)
    gronwall_half = e1_fit_to(nh)
    fits_stabilized = (C0_fit <= 1.05 * C0_half + 1e-300
                       and gronwall_fit <= 1.05 * gronwall_half + 1e-300)

    return GronwallAudit(
        C_N_fit=C_N_fit, C0_fit=C0_fit, gronwall_fit=gronwall_fit,
        c0=c0, c1=c1, k0=k0, k1=k1, stabilized=stabilized,
        half_sup=half, final_quarter_sup=quarter, C0_half=C0_half,
        gronwall_half=gronwall_half, fits_stabilized=fits_stabilized,
        records=n)
