"""End-to-end acceptance suite: eleven pass/fail checks covering geometry,
free-limit correctness, conservation, constraints, gauge invariance, the
estimate functionals, the Gronwall audits, the spherical-means formula, and
run determinism.  Each test prints a single PASS/FAIL line with its key
measured numbers.  Expensive evolutions are shared through module fixtures.
"""

import os

import numpy as np
import pytest

from mkg.bounds import EstimateConstants, audit_gronwall, estimates
from mkg.cli import main
from mkg.diagnostics import collect, energy_E0
from mkg.dynamics import Kinematics, ModelSpec, step_rk4
from mkg.kahler import KahlerFamily, quartic_family
from mkg.lattice import LatticeSpec, zero_state
from mkg.couplings import saturating_couplings
from mkg.potentials import PotentialKind, polynomial
from mkg.scenarios import SCENARIOS
from mkg.trace import NormSnapshot, stack_records
from analytic_fields import Constant, LinearTime, PlaneWave
from kahler_oracle import (HELD_OUT_RADII, SCAN_RADII, fit_bound_constants,
                           radial_bound_check, worst_metric_error)
from kirchhoff import SphereQuadrature, kirchhoff_lin, kirchhoff_residual_scan
from model_helpers import build, gauge_transform, sextic_family
from monomial_oracle import BUILDERS, eval_fast, eval_monomial

FAMILIES = {"flat": KahlerFamily(), "quartic": quartic_family(),
            "sextic": sextic_family()}


def report(num, label, ok, detail=""):
    line = f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def run_trace(name, total_time, cadence, n=64, cfl=0.5, amplitude=None):
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    params = {} if amplitude is None else {"amplitude": amplitude}
    model, st = build(name, lat, params)
    dt = cfl * lat.dx
    records = [collect(st, lat, model)]
    for i in range(1, int(round(total_time / dt)) + 1):
        st = step_rk4(st, lat, model, dt)
        if i % cadence == 0:
            records.append(collect(st, lat, model))
    return records


@pytest.fixture(scope="module")
def interacting_long():
    # 40 crossing times on the shipped interacting demo; the first quarter
    # is the 10-crossing window shared with the constraint and flat-energy
    # checks, the full length is what the Gronwall fits need to settle
    return run_trace("interacting_demo", total_time=40.0, cadence=32)


@pytest.fixture(scope="module")
def demo_traces(interacting_long):
    traces = {"interacting_demo":
              [r for r in interacting_long if r.t <= 10.0 + 1e-9]}
    for name in SCENARIOS:
        if name != "interacting_demo":
            traces[name] = run_trace(name, total_time=10.0, cadence=32)
    return traces


# -- 1: metric formula vs finite-difference Hessian of the scalar potential


def random_points(count, n_comp, rng, r_lo=0.1, r_hi=1.8):
    pts = []
    for _ in range(count):
        v = rng.standard_normal(n_comp) + 1j * rng.standard_normal(n_comp)
        v *= rng.uniform(r_lo, r_hi) / np.sqrt(np.sum(np.abs(v) ** 2))
        pts.append(v)
    return pts


def test_criterion_1_metric_oracle():
    rng = np.random.default_rng(11)
    worst = max(worst_metric_error(fam, random_points(34, n_comp, rng))
                for fam in FAMILIES.values() for n_comp in (1, 2, 3))
    ok = worst < 1e-6
    report(1, "metric vs Hessian oracle", ok, f"worst rel err {worst:.2e}")


# -- 2: potential growth bound and quadratic lower bound


def held_out_reach(fam, constants):
    """(the upper bound's violations on a grid 10x denser than the scan over
    (0, 2], the largest radius up to which it holds on a grid of step 1e-4
    from 2 to r_max), with constants fitted on the scan."""
    fine = np.linspace(2e-4, 2.0, 10000)
    below = int(np.sum(~radial_bound_check(fam, fine, constants).holds))
    above = np.linspace(2.0, fam.r_max, int(round((fam.r_max - 2.0) * 1e4)) + 1)
    holds = radial_bound_check(fam, above, constants).holds
    return below, float(above[-1] if holds.all() else above[np.argmin(holds) - 1])


def test_criterion_2_radial_bounds():
    """The upper bound, with constants fitted on the scan, and the lower
    bound hold on the scan and on a 10x denser grid over the same interval.
    Outside it the fitted bound is reported, not gated on: below the
    scan's smallest radius, which sets C2, and up to where it holds."""
    ok = True
    detail = []
    for name, fam in FAMILIES.items():
        constants = fit_bound_constants(fam, SCAN_RADII)
        violations = []
        for radii in (SCAN_RADII, HELD_OUT_RADII):
            rep = radial_bound_check(fam, radii, constants)
            violations += [int(np.sum(~rep.holds)), int(np.sum(~rep.lower_holds))]
        ok = ok and violations == [0, 0, 0, 0]
        below, reach = held_out_reach(fam, constants)
        detail.append(f"{name}: {violations[0]}+{violations[1]} violations, "
                      f"held out {violations[2]}+{violations[3]}; ungated: "
                      f"{below} fail on (0, 2], holds up to r = {reach:.4g}")
    report(2, "radial potential bounds", ok, "; ".join(detail))


# -- 3: free-limit waves vs analytic solutions, space and time convergence


def _free_wave_error(name, n, cfl=0.25, amplitude=0.01, order=2):
    lat = LatticeSpec((n, 1, 1), 1.0 / n, order)
    model, st = build(name, lat, {"amplitude": amplitude})
    dt = cfl * lat.dx
    steps = int(round(1.0 / dt))          # one full period (L = 1, k = 2 pi)
    for _ in range(steps):
        st = step_rk4(st, lat, model, dt)
    x = lat.axis_coordinates(0)[:, None, None]
    k = 2.0 * np.pi
    t = steps * dt
    if name == "free_scalar_wave":
        exact = amplitude * np.cos(k * x) * np.cos(k * t) * np.ones(lat.dims)
        diff = st.phi[0] - exact
    else:
        exact = amplitude * np.sin(k * (x - t)) * np.ones(lat.dims)
        diff = st.A[0, 1] - exact
    return float(np.sqrt(np.mean(np.abs(diff) ** 2)))


def _interacting_drift(cfl, n=64, amp=0.8, quartic=4.0, total_time=1.0):
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    model = ModelSpec(
        charges=np.array([1.0, -0.5]),
        couplings=saturating_couplings(
            2, h_base=[[2.0, 0.3], [0.3, 1.5]], h_mod=[[0.2, 0.1], [0.1, 0.3]],
            h_amplitude=0.5, k_base=[[0.1, 0.05], [0.05, -0.1]],
            k_mod=[[0.05, 0.0], [0.0, 0.05]], k_amplitude=0.3),
        kahler=quartic_family(),
        potential=polynomial(0.0, 0.0, quartic),
        n_scalar=2)
    x = lat.axis_coordinates(0)[:, None, None]
    st = zero_state(lat, 2, 2)
    st.A[0, 1] = amp * np.sin(2 * np.pi * x)
    st.A[1, 2] = 0.6 * amp * np.cos(4 * np.pi * x)
    st.E[0, 1] = 0.8 * amp * np.cos(2 * np.pi * x)
    st.E[1, 2] = -0.4 * amp * np.sin(2 * np.pi * x)
    st.phi[0] = 2 * amp * np.exp(2j * np.pi * x) * np.ones(lat.dims)
    st.phi[1] = amp * (np.cos(2 * np.pi * x)
                       + 0.5j * np.sin(4 * np.pi * x)) * np.ones(lat.dims)
    st.pi[0] = 1j * amp * np.exp(2j * np.pi * x) * np.ones(lat.dims)
    st.pi[1] = 0.4 * amp * np.ones(lat.dims, dtype=complex)
    e0 = energy_E0(Kinematics(st, lat, model))
    dt = cfl * lat.dx
    for _ in range(int(round(total_time / dt))):
        st = step_rk4(st, lat, model, dt)
    return abs(energy_E0(Kinematics(st, lat, model)) - e0) / e0


def test_criterion_3_free_limit():
    err_scalar = _free_wave_error("free_scalar_wave", 256)
    err_maxwell = _free_wave_error("free_maxwell_wave", 256)
    coarse = _free_wave_error("free_maxwell_wave", 128)
    dx_ratio = coarse / err_maxwell
    # the linear free waves are superconvergent in dt, so the fourth-order
    # integrator rate is measured on a strongly nonlinear state where the
    # genuine O(dt^4) truncation dominates
    d1 = _interacting_drift(0.0625)
    d2 = _interacting_drift(0.03125)
    dt_ratio = d1 / max(d2, 1e-300)
    ok = (err_scalar < 1e-4 and err_maxwell < 1e-4
          and 3.5 <= dx_ratio <= 4.5 and 12.0 <= dt_ratio <= 20.0)
    report(3, "free-limit correctness", ok,
           f"L2 err scalar {err_scalar:.2e} maxwell {err_maxwell:.2e}, "
           f"dx ratio {dx_ratio:.2f}, dt drift ratio {dt_ratio:.2f}")


def test_free_maxwell_wave_order_4_stencils_converge():
    """The order-4 stencils in an evolution: after one period at cfl 0.25,
    the error against the exact wave falls by 16 from 64 to 128 sites
    (2.193e-6, 1.376e-7 and 8.604e-9 at 32, 64 and 128 sites); criterion 3
    checks the factor 4 of order 2."""
    coarse = _free_wave_error("free_maxwell_wave", 64, order=4)
    fine = _free_wave_error("free_maxwell_wave", 128, order=4)
    print(f"order-4 L2 err {coarse:.3e} -> {fine:.3e}, ratio {coarse / fine:.2f}")
    assert fine < 1e-8 and coarse / fine >= 12.0, (coarse, fine)


# -- 4: interacting energy conservation at production resolution


def test_criterion_4_energy_conservation():
    n = 1024
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    model, st = build("interacting_demo", lat)
    e0 = energy_E0(Kinematics(st, lat, model))
    dt = 0.5 * lat.dx
    for _ in range(int(round(1.0 / dt))):     # one light-crossing time
        st = step_rk4(st, lat, model, dt)
    drift = abs(energy_E0(Kinematics(st, lat, model)) - e0) / e0
    report(4, "interacting energy conservation", drift < 1e-5,
           f"relative drift {drift:.2e} over one crossing at {n} sites")


def _global_charge_drift(name, cfl, n=64, total_time=2.0):
    """|Q(T) - Q(0)| of the global charge Q = sum_x 2 Im(g_ab pi^a
    conj(phi^b)) dx^3, with g_ab pi^a conj(phi^b) = (alpha + Q psi)
    conj(phi).pi, over total_time crossings."""
    lat = LatticeSpec((n, 1, 1), 1.0 / n)
    model, st = build(name, lat)

    def charge(st):
        kin = Kinematics(st, lat, model)
        density = 2.0 * np.imag((kin.alpha + kin.Q * kin.psi) * kin.phi_pi)
        return float(np.sum(density)) * lat.cell_volume

    q0 = charge(st)
    dt = cfl * lat.dx
    for _ in range(int(round(total_time / dt))):
        st = step_rk4(st, lat, model, dt)
    return abs(charge(st) - q0)


def test_global_charge_is_conserved_to_integrator_order():
    """The global charge drifts only by the integrator's error: on
    interacting_demo it falls 32x (1.16e-13 -> 3.60e-15) from cfl 0.5 to
    0.25 over 2 crossings; the other scenarios have real phi and pi, and
    their charge stays exactly 0."""
    coarse = _global_charge_drift("interacting_demo", 0.5)
    fine = _global_charge_drift("interacting_demo", 0.25)
    print(f"charge drift {coarse:.3e} -> {fine:.3e}, ratio {coarse / fine:.1f}")
    assert 0.0 < fine and coarse / fine >= 16.0, (coarse, fine)
    for name in SCENARIOS:
        if name != "interacting_demo":
            assert _global_charge_drift(name, 0.5) == 0.0, name


# -- 5: constraint preservation on every shipped scenario


def test_criterion_5_constraints(demo_traces):
    ok = True
    detail = []
    for name, recs in demo_traces.items():
        g0 = max(recs[0].gauss_res_l2, 1e-14)
        gmax = max(r.gauss_res_l2 for r in recs)
        bmax = max(r.bianchi_res_linf for r in recs)
        ok = ok and gmax <= 10.0 * g0 and bmax < 1e-13
        detail.append(f"{name}: gauss x{gmax / g0:.2f}, bianchi {bmax:.1e}")
    report(5, "constraint preservation", ok, "; ".join(detail))


# -- 6: static phase rotations leave the observables unchanged


def test_criterion_6_gauge_invariance():
    n = 512
    lat = LatticeSpec((n, 1, 1), 1.0 / n, stencil_order=4)
    model, st = build("interacting_demo", lat)
    x = lat.axis_coordinates(0)[:, None, None]
    theta = np.stack([0.3 * np.sin(2 * np.pi * x) * np.ones(lat.dims),
                      0.2 * np.cos(2 * np.pi * x) * np.ones(lat.dims)])
    st2 = gauge_transform(st, lat, model, theta)
    r1 = collect(st, lat, model)
    r2 = collect(st2, lat, model)
    d_e0 = abs(r2.energy_E0 - r1.energy_E0) / abs(r1.energy_E0)
    d_j = abs(r2.flat_J - r1.flat_J) / abs(r1.flat_J)
    d_phi = float(np.max(np.abs(np.abs(st2.phi) - np.abs(st.phi))))
    d_phi /= max(float(np.max(np.abs(st.phi))), 1e-300)
    d_e = float(np.max(np.abs(st2.E - st.E)))
    d_e /= max(float(np.max(np.abs(st.E))), 1e-300)
    ok = max(d_e0, d_j, d_phi, d_e) < 1e-8
    report(6, "gauge invariance", ok,
           f"dE0 {d_e0:.1e}, dJ {d_j:.1e}, d|phi| {d_phi:.1e}, dE {d_e:.1e}")


# -- 7: flat-energy envelope J(t) <= C J(0) (1 + t) with a settled supremum


def test_criterion_7_flat_energy_envelope(demo_traces):
    ok = True
    detail = []
    for name, recs in demo_traces.items():
        ts = np.array([r.t for r in recs])
        J = np.array([r.flat_J for r in recs])
        env = np.maximum(J[0] * (1.0 + ts), 1e-300)
        ratios = np.where(J[0] > 1e-300, J / env, 0.0)
        m = len(ratios)
        half = float(np.max(ratios[: max(m // 2, 2)]))
        quarter = float(np.max(ratios[-max(m // 4, 2):]))
        ok = ok and np.all(np.isfinite(ratios)) \
            and quarter <= 1.05 * half + 1e-300
        detail.append(f"{name}: sup {float(np.max(ratios)):.3f}")
    report(7, "flat-energy linear envelope", ok, "; ".join(detail))


# -- 8: fast estimate functionals vs the symbolic monomial oracle


def test_criterion_8_functional_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(0.0, 2.0, size=11)
        snap = NormSnapshot(t=float(rng.uniform(0, 5)), linf_phi=v[0],
                            linf_dphi=v[1], linf_Dphi=v[2], linf_F=v[3],
                            linf_A=v[4], linf_dPsi=v[5], l2_E=v[6],
                            l2_H=v[7], l2_Dphi=v[8], l2_phi=v[9], l2_V=v[10])
        e0 = float(rng.uniform(0, 3))
        for kind in PotentialKind:
            c = EstimateConstants(b_n=(0.3, 0.7, 0.4, 0.2), C1=0.5, C2=1.1,
                                  C3=0.9, c4=1.3, N=3, J0=0.8,
                                  potential_kind=kind)
            for nm in BUILDERS:
                a = eval_fast(nm, snap, c, e0)
                b = eval_monomial(nm, snap, c, e0)
                worst = max(worst,
                            abs(a - b) / max(abs(a), abs(b), 1.0))
    zc = EstimateConstants(b_n=(0.3, 0.7), C1=0.5, C2=1.1, C3=0.9,
                           N=2, J0=1.0)
    zero = NormSnapshot(t=0.0, linf_phi=0, linf_dphi=0, linf_Dphi=0,
                        linf_F=0, linf_A=0, linf_dPsi=0, l2_E=0, l2_H=0,
                        l2_Dphi=0, l2_phi=0, l2_V=0)
    fz = estimates(zero, zc, 0.0)
    frozen = (fz["M"] == 1.0 and fz["N"] == 1.0 and fz["Xg"] == 1.0
              and fz["L"] == 0.0 and fz["Y"] == zc.C3)
    ok = worst <= 1e-12 and frozen
    report(8, "estimate-functional oracle", ok,
           f"worst rel diff {worst:.1e}, zero-snapshot constants "
           f"{'frozen' if frozen else 'WRONG'}")


# -- 9: Gronwall fits finite and settled, no blow-up of the Sobolev energies


def test_criterion_9_gronwall_audit(interacting_long):
    c = EstimateConstants(b_n=(1.0, 1.0), N=2,
                          J0=interacting_long[0].flat_J)
    audit = audit_gronwall(stack_records(interacting_long), c)
    finite = all(np.isfinite([audit.C_N_fit, audit.C0_fit,
                              audit.gronwall_fit]))
    no_blowup = all(np.isfinite(r.sobolev_E0) and np.isfinite(r.sobolev_E1)
                    for r in interacting_long)
    ok = finite and no_blowup and audit.fits_stabilized
    report(9, "Gronwall audit", ok,
           f"C0 {audit.C0_fit:.4f} (half {audit.C0_half:.4f}), "
           f"E1 exponent {audit.gronwall_fit:.4f} "
           f"(half {audit.gronwall_half:.4f}), no blow-up {no_blowup}")


def test_half_trace_fits_never_exceed_full_fits():
    """The half-trace fits are suprema over a prefix of the full fits'
    records, so neither exceeds its full-trace fit.  C0's prefix reads the
    full trace's dE0_sf/dt: differencing the prefix alone is one-sided at
    its last record, which put C0_half at 2.3200e-4 against a C0_fit of
    2.2778e-4 on this 41-record trace."""
    records = run_trace("free_maxwell_wave", total_time=2.5, cadence=8)
    audit = audit_gronwall(stack_records(records),
                           EstimateConstants(J0=records[0].flat_J))
    assert audit.records == 41
    assert audit.C0_half <= audit.C0_fit
    assert audit.gronwall_half <= audit.gronwall_fit


# -- 10: spherical-means representation of free waves


def test_criterion_10_spherical_means():
    quad = SphereQuadrature.build(8)
    p0 = (0.9, np.array([0.15, -0.3, 0.2]))
    c_err = abs(kirchhoff_lin(Constant(3.0), p0, 0.7, quad) - 3.0)
    t_err = abs(kirchhoff_lin(LinearTime(), p0, 0.7, quad) - p0[0])
    waves = [PlaneWave(np.array([2.0, 0.0, 0.0]), 1.0, 0.3),
             PlaneWave(np.array([1.0, 1.0, 1.0]), 0.7, -0.5),
             PlaneWave(np.array([0.0, -1.5, 0.8]), 1.2, 1.1)]
    points = [p0, (1.4, np.array([-0.4, 0.6, 0.0]))]
    worst = 0.0
    for w in waves:
        knorm = float(np.sqrt(np.sum(w.k ** 2)))
        radii = [0.5 / knorm, 1.0 / knorm, 2.0 / knorm]
        res, _ = kirchhoff_residual_scan(w, points, radii, quad)
        worst = max(worst, res)
    ok = c_err < 1e-12 and t_err < 1e-12 and worst < 1e-3
    report(10, "spherical-means representation", ok,
           f"constant {c_err:.1e}, linear-time {t_err:.1e}, "
           f"plane waves {worst:.1e}")


# -- 11: byte-identical traces from repeated runs


DEMO_CONFIG = """\
[lattice]
dims = 64 1 1
dx = 0.015625

[initial_data]
scenario = interacting_demo

[integrator]
cfl = 0.25
steps = 40

[outputs]
csv_cadence = 4
plots = false

[run]
seed = 3
"""


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEMO_CONFIG)
    blobs = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        code = main(["run", "--config", str(cfg), "--out", out])
        assert code == 0
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1]
    report(11, "determinism across runs", ok,
           "byte-identical trace.csv for two runs of one config")
