"""Estimate functionals: dual-evaluation oracle, frozen zero values, audits."""

import math

import numpy as np
import pytest

from mkg.bounds import (BUILDERS, EstimateConstants, Poly, audit_gronwall,
                        eval_fast, eval_G, eval_LMN, eval_monomial, eval_Q,
                        eval_SXUW, eval_YZP)
from mkg.diagnostics import DiagnosticsRecord
from mkg.errors import NonUniformSampling, TraceTooShort
from mkg.lattice import NormSnapshot
from mkg.potentials import PotentialKind


def random_snapshot(rng, t=None):
    v = rng.uniform(0.0, 2.0, size=11)
    return NormSnapshot(t=float(rng.uniform(0, 5)) if t is None else t,
                        linf_phi=v[0], linf_dphi=v[1], linf_Dphi=v[2],
                        linf_F=v[3], linf_A=v[4], linf_dPsi=v[5],
                        l2_E=v[6], l2_H=v[7], l2_Dphi=v[8], l2_phi=v[9],
                        l2_V=v[10])


def zero_snapshot():
    return NormSnapshot(t=0.0, linf_phi=0, linf_dphi=0, linf_Dphi=0,
                        linf_F=0, linf_A=0, linf_dPsi=0, l2_E=0, l2_H=0,
                        l2_Dphi=0, l2_phi=0, l2_V=0)


def test_fast_matches_monomial_oracle():
    """Acceptance core: every functional evaluated twice, once as plain
    arithmetic and once through the symbolic monomial list, on 100 random
    snapshots and both potential branches."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        snap = random_snapshot(rng)
        E0 = float(rng.uniform(0, 3))
        for kind in PotentialKind:
            c = EstimateConstants(b_n=(0.3, 0.7, 0.4, 0.2), C1=0.5, C2=1.1,
                                  C3=0.9, c4=1.3, N=3, J0=0.8,
                                  potential_kind=kind)
            for name in BUILDERS:
                a = eval_fast(name, snap, c, E0)
                b = eval_monomial(name, snap, c, E0)
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), name


def test_zero_snapshot_frozen_constants():
    c = EstimateConstants(b_n=(0.3, 0.7), C1=0.5, C2=1.1, C3=0.9, N=2, J0=1.0)
    z = zero_snapshot()
    L, M, N = eval_LMN(z, c)
    assert M == 1.0
    assert N == 1.0
    assert L == 0.0
    Sg, Xg, Ug, Wg = eval_SXUW(z, c)
    assert Xg == 1.0
    Y = eval_YZP(z, c, 0.0)[0]
    assert Y == c.C3          # additive constant of the Y functional
    # W-gothic at zero reduces to the H functional at zero
    assert Wg == eval_fast("H", z, c)


def test_G_is_F_plus_Dphi():
    rng = np.random.default_rng(1)
    snap = random_snapshot(rng)
    assert eval_G(snap) == snap.linf_F + snap.linf_Dphi


def test_poly_algebra():
    p = Poly.var("p")
    q = (p + 1) * (p + 1)
    env = {v: 0.0 for v in
           ("p", "dp", "Dp", "F4", "A", "dPsi", "E0h", "J0", "t")}
    env["p"] = 3.0
    assert q.eval(env) == pytest.approx(16.0)
    assert (p**3).eval(env) == pytest.approx(27.0)


def test_branch_dependence():
    rng = np.random.default_rng(2)
    snap = random_snapshot(rng)
    poly = EstimateConstants(N=3, J0=1.0,
                             potential_kind=PotentialKind.POLYNOMIAL)
    sg = EstimateConstants(N=3, J0=1.0,
                           potential_kind=PotentialKind.SINE_GORDON)
    assert eval_fast("I", snap, poly) != eval_fast("I", snap, sg)
    assert eval_fast("H", snap, poly) != eval_fast("H", snap, sg)


def test_scaling_degree():
    # leading homogeneity: scaling all norms by s scales each functional's
    # top monomial by s**degree; verified through the monomial lists
    c = EstimateConstants(b_n=(1.0, 1.0), C3=1.0, N=2, J0=1.0)
    poly = BUILDERS["Y"](c)
    degs = [sum(e) for e in poly.terms]
    assert max(degs) == 8          # b_N p^(N+6) term for N = 2
    assert min(degs) == 0          # the additive C3 constant


def make_trace(n=21, dt=0.1, growth=0.05):
    recs = []
    for i in range(n):
        t = i * dt
        s = NormSnapshot(t=t, linf_phi=0.3, linf_dphi=0.2, linf_Dphi=0.25,
                         linf_F=0.4, linf_A=0.1, linf_dPsi=0.15, l2_E=1.0,
                         l2_H=1.0, l2_Dphi=0.5, l2_phi=0.5, l2_V=0.2)
        recs.append(DiagnosticsRecord(
            t=t, energy_E0=2.0, flat_J=2.0 + 0.5 * t,
            sobolev_E0=1.0 + 0.1 * t, sobolev_E1=1.5 * math.exp(growth * t),
            gauss_res_l2=0.0, gauss_res_linf=0.0, bianchi_res_linf=0.0,
            norm_snapshot=s, mass_m=1.0))
    return recs


def test_audit_fits_finite_and_stabilized():
    c = EstimateConstants(b_n=(1.0, 1.0), N=2, J0=2.0)
    fitted, report = audit_gronwall(make_trace(), c)
    for v in (fitted.C_N_fit, fitted.C0_fit, fitted.gronwall_fit,
              fitted.c0, fitted.c1, fitted.k0, fitted.k1):
        assert np.isfinite(v)
    assert fitted.C_N_fit == pytest.approx(1.0)
    assert report["stabilized"]


def test_audit_trace_too_short():
    c = EstimateConstants(J0=1.0)
    with pytest.raises(TraceTooShort):
        audit_gronwall(make_trace()[:2], c)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_audit_short_traces(n):
    """The shortest auditable traces fit finite constants; the half-trace
    refit keeps the three samples its derivative stencil needs."""
    c = EstimateConstants(b_n=(1.0, 1.0), N=2, J0=2.0)
    fitted, report = audit_gronwall(make_trace(n=n), c)
    assert report["records"] == n
    for v in (fitted.C_N_fit, fitted.C0_fit, fitted.gronwall_fit,
              report["C0_half"], report["gronwall_half"]):
        assert np.isfinite(v)


def test_audit_nonuniform_sampling():
    c = EstimateConstants(J0=1.0)
    recs = make_trace()
    bad = recs[:5] + recs[6:]
    with pytest.raises(NonUniformSampling):
        audit_gronwall(bad, c)


def test_audit_subsample_stability():
    """Fits from every-other-record subsampling stay within 10%."""
    c = EstimateConstants(b_n=(1.0, 1.0), N=2, J0=2.0)
    trace = make_trace(n=41, dt=0.05)
    f_full, _ = audit_gronwall(trace, c)
    f_half, _ = audit_gronwall(trace[::2], c)
    for a, b in ((f_full.C_N_fit, f_half.C_N_fit),
                 (f_full.gronwall_fit, f_half.gronwall_fit)):
        assert abs(a - b) <= 0.10 * max(abs(a), abs(b), 1e-12)


def test_Q_combination_positive():
    rng = np.random.default_rng(3)
    c = EstimateConstants(b_n=(0.5,), N=1, J0=1.0)
    for _ in range(10):
        snap = random_snapshot(rng)
        assert eval_Q(snap, c) > 0
