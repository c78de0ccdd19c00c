"""Estimate functionals: dual-evaluation oracle, frozen zero values, audits,
and the columnar audit and trace writer against their per-record
references."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mkg.bounds import (EstimateConstants, GronwallAudit, _check_uniform,
                        _ddt, _fit_line_cap, _ratio_sup, audit_gronwall,
                        eval_G, eval_LMNSXUW, eval_YZP, snapshot_env)
from mkg.diagnostics import DiagnosticsRecord, stack_records
from mkg.errors import NonUniformSampling, TraceTooShort
from mkg.lattice import NormSnapshot
from mkg.potentials import PotentialKind
from mkg.run import CSV_COLUMNS, parse_trace, write_trace
from monomial_oracle import BUILDERS, Poly, eval_fast, eval_monomial, eval_Q


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
    L, M, N = eval_LMNSXUW(z, c)[:3]
    assert M == 1.0
    assert N == 1.0
    assert L == 0.0
    Sg, Xg, Ug, Wg = eval_LMNSXUW(z, c)[3:]
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
            norm_snapshot=s))
    return recs


def test_audit_fits_finite_and_stabilized():
    c = EstimateConstants(b_n=(1.0, 1.0), N=2, J0=2.0)
    audit = audit_gronwall(stack_records(make_trace()), c)
    for v in (audit.C_N_fit, audit.C0_fit, audit.gronwall_fit,
              audit.c0, audit.c1, audit.k0, audit.k1):
        assert np.isfinite(v)
    assert audit.C_N_fit == pytest.approx(1.0)
    assert audit.stabilized


def test_audit_trace_too_short():
    c = EstimateConstants(J0=1.0)
    with pytest.raises(TraceTooShort):
        audit_gronwall(stack_records(make_trace()[:2]), c)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_audit_short_traces(n):
    """The shortest auditable traces fit finite constants; the half-trace
    refit keeps the three samples its derivative stencil needs."""
    c = EstimateConstants(b_n=(1.0, 1.0), N=2, J0=2.0)
    audit = audit_gronwall(stack_records(make_trace(n=n)), c)
    assert audit.records == n
    for v in (audit.C_N_fit, audit.C0_fit, audit.gronwall_fit,
              audit.C0_half, audit.gronwall_half):
        assert np.isfinite(v)


def test_audit_nonuniform_sampling():
    c = EstimateConstants(J0=1.0)
    recs = make_trace()
    bad = recs[:5] + recs[6:]
    with pytest.raises(NonUniformSampling):
        audit_gronwall(stack_records(bad), c)


def test_audit_subsample_stability():
    """Fits from every-other-record subsampling stay within 10%."""
    c = EstimateConstants(b_n=(1.0, 1.0), N=2, J0=2.0)
    trace = make_trace(n=41, dt=0.05)
    f_full = audit_gronwall(stack_records(trace), c)
    f_half = audit_gronwall(stack_records(trace[::2]), c)
    for a, b in ((f_full.C_N_fit, f_half.C_N_fit),
                 (f_full.gronwall_fit, f_half.gronwall_fit)):
        assert abs(a - b) <= 0.10 * max(abs(a), abs(b), 1e-12)


def test_Q_combination_positive():
    rng = np.random.default_rng(3)
    c = EstimateConstants(b_n=(0.5,), N=1, J0=1.0)
    for _ in range(10):
        snap = random_snapshot(rng)
        assert eval_Q(snap, c) > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("key", ["C1", "C2", "C3", "c4", "J0", "b_n"])
def test_estimate_constants_refuse_nonfinite_and_negative(key, bad):
    value = (1.0, bad) if key == "b_n" else bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        EstimateConstants(**{key: value})


# ---------------------------------------------------------------------------
# the columnar audit against the per-record evaluation it replaced

constants_st = st.builds(
    EstimateConstants,
    b_n=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5).map(tuple),
    C1=st.floats(0.0, 2.0), C2=st.floats(0.0, 2.0), C3=st.floats(0.0, 2.0),
    c4=st.floats(0.0, 2.0), N=st.integers(1, 4), J0=st.floats(0.1, 3.0),
    potential_kind=st.sampled_from(PotentialKind))


@st.composite
def records_st(draw):
    """A uniformly sampled list of per-record DiagnosticsRecords of floats:
    norms in [0, 2], E0_sf in [-0.5, 2] (the negative part is clamped by
    the estimates), positive J and E1_sf."""
    n = draw(st.integers(3, 12))
    dt = draw(st.floats(1e-3, 0.5))
    v = draw(arrays(np.float64, (n, 19), elements=st.floats(0.0, 2.0))).tolist()
    recs = []
    for i, row in enumerate(v):
        t = i * dt
        snap = NormSnapshot(t, *row[:11])
        recs.append(DiagnosticsRecord(
            t=t, energy_E0=row[11], flat_J=0.01 + row[12],
            sobolev_E0=row[13] - 0.5, sobolev_E1=0.01 + row[14],
            gauss_res_l2=row[15], gauss_res_linf=row[16],
            bianchi_res_linf=row[17], norm_snapshot=snap))
    return recs


def same_bits(column, per_record) -> bool:
    per_record = np.asarray(per_record, dtype=float)
    column = np.broadcast_to(np.asarray(column, dtype=float), per_record.shape)
    return column.tobytes() == per_record.tobytes()


@settings(max_examples=40, deadline=None)
@given(recs=records_st(), c=constants_st)
def test_column_evaluators_match_per_record(recs, c):
    """Every fast evaluator and every monomial list, called once on column
    arrays, equals its per-record scalar calls bit for bit."""
    cols = stack_records(recs)
    snap, E0 = cols.norm_snapshot, cols.sobolev_E0
    per_record = (
        (eval_LMNSXUW(snap, c), [eval_LMNSXUW(r.norm_snapshot, c) for r in recs]),
        (eval_YZP(snap, c, E0),
         [eval_YZP(r.norm_snapshot, c, r.sobolev_E0) for r in recs]))
    for got, want in per_record:
        for i, column in enumerate(got):
            assert same_bits(column, [w[i] for w in want]), i
    env = snapshot_env(snap, c, E0)
    for name, build in BUILDERS.items():
        want = [eval_monomial(name, r.norm_snapshot, c, r.sobolev_E0)
                for r in recs]
        assert same_bits(build(c).eval(env), want), name


def reference_audit(trace, constants):
    """audit_gronwall as a loop over per-record floats: every functional
    through the scalar evaluators, one record at a time."""
    ts = np.array([r.t for r in trace])
    dt = _check_uniform(ts)
    n = len(trace)

    J = np.array([r.flat_J for r in trace])
    J0 = J[0]
    envelope = J0 * (1.0 + ts)
    ratios = np.where(envelope > 1e-300, J / np.maximum(envelope, 1e-300), 0.0)
    C_N_fit = float(np.max(ratios)) if J0 > 1e-300 else 0.0

    E0v = np.array([r.sobolev_E0 for r in trace])
    E1v = np.array([r.sobolev_E1 for r in trace])
    Pcal = np.zeros(n)
    XWPU = np.zeros(n)
    for i, r in enumerate(trace):
        y = eval_YZP(r.norm_snapshot, constants, r.sobolev_E0)
        Pcal[i] = y[2]
        XWPU[i] = y[3] + y[4] + y[5] + y[6]

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

    F4 = np.array([r.norm_snapshot.linf_F for r in trace])
    Dp = np.array([r.norm_snapshot.linf_Dphi for r in trace])
    p = np.array([r.norm_snapshot.linf_phi for r in trace])
    dp = np.array([r.norm_snapshot.linf_dphi for r in trace])
    A = np.array([r.norm_snapshot.linf_A for r in trace])

    def cumint(f2):
        out = np.zeros(n)
        out[1:] = np.cumsum(0.5 * (f2[1:] + f2[:-1]) * dt)
        return np.sqrt(out)

    iF, iD, ip, idp, iA = (cumint(F4**2), cumint(Dp**2), cumint(p**2),
                           cumint(dp**2), cumint(A**2))
    LMN = np.array([eval_LMNSXUW(r.norm_snapshot, constants)[:3] for r in trace])
    SXUW = np.array([eval_LMNSXUW(r.norm_snapshot, constants)[3:] for r in trace])
    Xval = np.array([eval_YZP(r.norm_snapshot, constants, r.sobolev_E0)[3]
                     for r in trace])
    J0c = constants.J0
    bound_F = J0c**2 * (1.0 + ts) * (LMN[:, 0] * iF + LMN[:, 1] * iD + LMN[:, 2] * ip)
    c0, c1 = _fit_line_cap(ts, F4 - bound_F)
    bound_D = (J0c * iD * SXUW[:, 0] + J0c**2 * (1.0 + ts) * iF * Xval
               + J0c * ip * p * (1.0 + dp) + J0c * iA * SXUW[:, 2]
               + J0c * idp * SXUW[:, 3])
    k0, k1 = _fit_line_cap(ts, Dp - bound_D)

    half = float(np.max(ratios[: max(n // 2, 2)]))
    quarter = float(np.max(ratios[-max(n // 4, 2):]))
    nh = max(n // 2, 3)
    C0_half = c0_fit_to(nh)
    gronwall_half = e1_fit_to(nh)
    return GronwallAudit(
        C_N_fit=C_N_fit, C0_fit=C0_fit, gronwall_fit=gronwall_fit,
        c0=c0, c1=c1, k0=k0, k1=k1,
        stabilized=quarter <= 1.05 * half + 1e-300,
        half_sup=half, final_quarter_sup=quarter,
        C0_half=C0_half, gronwall_half=gronwall_half,
        fits_stabilized=(C0_fit <= 1.05 * C0_half + 1e-300
                         and gronwall_fit <= 1.05 * gronwall_half + 1e-300),
        records=n, dt=dt)


@settings(max_examples=40, deadline=None)
@given(recs=records_st(), c=constants_st)
def test_columnar_audit_matches_per_record_reference(recs, c):
    """A trace written by write_trace and read back by parse_trace audits to
    the same result as the per-record loop."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace(path, stack_records(recs), c)
        trace = parse_trace(path)
    assert audit_gronwall(trace, c) == reference_audit(recs, c)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(v=st.lists(st.tuples(*[finite] * 8, *[st.floats(0.0, 1e3)] * 6,
                            *[finite] * 5), max_size=6),
       c=constants_st)
def test_trace_write_parse_roundtrip(v, c):
    """write_trace then parse_trace gives back every record field exactly,
    from subnormals and -0.0 to the largest finite floats."""
    recs = [DiagnosticsRecord(
        t=r[0], energy_E0=r[1], flat_J=r[2], sobolev_E0=r[3],
        sobolev_E1=r[4], gauss_res_l2=r[5], gauss_res_linf=r[6],
        bianchi_res_linf=r[7],
        norm_snapshot=NormSnapshot(r[0], *r[8:])) for r in v]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace(path, stack_records(recs), c)
        trace = parse_trace(path)
    for name in ("t", "energy_E0", "flat_J", "sobolev_E0", "sobolev_E1",
                 "gauss_res_l2", "gauss_res_linf", "bianchi_res_linf"):
        assert same_bits(getattr(trace, name),
                         [getattr(r, name) for r in recs]), name
    for name in NormSnapshot.FIELDS:
        assert same_bits(getattr(trace.norm_snapshot, name),
                         [getattr(r.norm_snapshot, name) for r in recs]), name


def trace_row(record, constants):
    """One trace CSV row from one record's floats, each functional through
    the scalar evaluators: the per-record form of write_trace."""
    snap = record.norm_snapshot
    vals = ((record.t, record.energy_E0, record.flat_J,
             constants.J0 * (1.0 + record.t),
             record.sobolev_E0, record.sobolev_E1,
             record.gauss_res_l2, record.gauss_res_linf,
             record.bianchi_res_linf)
            + snap.as_tuple()[1:]
            + eval_LMNSXUW(snap, constants) + (eval_G(snap),))
    return ",".join(f"{v:.17g}" for v in vals)


@settings(max_examples=40, deadline=None)
@given(recs=records_st(), c=constants_st)
def test_write_trace_matches_per_record_rows(recs, c):
    """write_trace, evaluating every functional once over the columns,
    writes byte for byte the rows formatted record by record."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace(path, stack_records(recs), c)
        with open(path, "rb") as fh:
            written = fh.read()
    want = "".join(line + "\n" for line in
                   [",".join(CSV_COLUMNS)] + [trace_row(r, c) for r in recs])
    assert written == want.encode()
