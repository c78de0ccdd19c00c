"""Workload inputs, the command each workload runs, and its output checks.

Every input is generated from the workload seed; the program sees only the
INI file or trace CSV written here.  The checks hold for any seed.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# BENCHMARK.json records why each workload exists
WORKLOADS = ("diag_1d", "evolve_3d", "audit_replay")

# Run sizes.  evolve_3d keeps 6 trace records: with 5 or fewer the half-trace
# audit fit of the program under test raises and the run prints
# "audit skipped", which the checks count as a failure.
RUN_SPECS = {
    "diag_1d": dict(dims=(1024, 1, 1), steps=100, csv_cadence=1,
                    snapshot_cadence=0),
    "evolve_3d": dict(dims=(32, 32, 32), steps=10, csv_cadence=2,
                      snapshot_cadence=5),
}
AUDIT_RECORDS = 20000
AUDIT_DT = 1e-3
CFL = 0.25

# Fixed output bounds.  Relative E0 drift, a rounding-level figure, may be
# about 10x above the largest seen over the seed range: 2.5e-14 (diag_1d) and
# 7.2e-7 (evolve_3d).
E0_DRIFT_MAX = {"diag_1d": 1e-12, "evolve_3d": 1e-5}
# Gauss-residual growth, max(gauss_l2) / gauss_l2[0] - 1, is set by the
# spatial discretisation: it does not change when the time step is halved,
# and for mode 2 at dx = 1/N it falls from 4.67% (N = 32) to 0.37% (N = 64)
# and 0.060% (N = 128).  It depends on the mode far more than on the
# amplitude, so the bound is keyed on both and sits about 3x above the
# largest growth seen over the amplitude range [0.045, 0.055]: diag_1d
# 1.75e-5 (mode 1) and 6.8e-5 (mode 2), evolve_3d 7.5e-4 and 4.67e-2.
GAUSS_GROWTH_MAX = {("diag_1d", 1): 6e-5, ("diag_1d", 2): 2.5e-4,
                    ("evolve_3d", 1): 2.5e-3, ("evolve_3d", 2): 0.15}
BIANCHI_MAX = 1e-12
C_N_REL_TOL = 1e-5          # check-bounds prints C_N_fit with 6 digits


@dataclass
class Inputs:
    workload: str
    seed: int
    path: str               # INI (run workloads) or trace CSV (audit_replay)
    sites: int = 0
    steps: int = 0
    records: int = 0        # trace rows the run writes, or the input holds
    snapshot_cadence: int = 0
    mode: int = 0           # initial-data mode of the run workloads


def make_inputs(workload: str, seed: int, work_dir: str, csv_columns) -> Inputs:
    os.makedirs(work_dir, exist_ok=True)
    if workload == "audit_replay":
        path = os.path.join(work_dir, "trace.csv")
        write_synthetic_trace(path, seed, csv_columns)
        return Inputs(workload, seed, path, records=AUDIT_RECORDS)
    spec = RUN_SPECS[workload]
    rng = np.random.default_rng(seed)
    amplitude = float(0.05 * rng.uniform(0.9, 1.1))
    mode = int(rng.integers(1, 3))
    dims = spec["dims"]
    steps, cadence = spec["steps"], spec["csv_cadence"]
    path = os.path.join(work_dir, "run.ini")
    with open(path, "w") as fh:
        fh.write(
            f"[lattice]\ndims = {dims[0]} {dims[1]} {dims[2]}\n"
            f"dx = {1.0 / dims[0]!r}\n"
            f"[initial_data]\nscenario = interacting_demo\n"
            f"amplitude = {amplitude!r}\nmode = {mode}\n"
            f"[integrator]\ncfl = {CFL}\nsteps = {steps}\n"
            f"[outputs]\ndirectory = out\ncsv_cadence = {cadence}\n"
            f"snapshot_cadence = {spec['snapshot_cadence']}\nplots = true\n"
            f"[run]\nseed = {seed}\n")
    records = 1 + steps // cadence + (1 if steps % cadence else 0)
    return Inputs(workload, seed, path, sites=int(np.prod(dims)), steps=steps,
                  records=records, snapshot_cadence=spec["snapshot_cadence"],
                  mode=mode)


def write_synthetic_trace(path: str, seed: int, csv_columns) -> None:
    """Uniform t, smooth positive columns, and J whose ratio to J0(1+t)
    peaks in the first eighth of the trace and then falls below 1, so
    check-bounds reports the trace as stabilized (PASS)."""
    rng = np.random.default_rng(seed)
    n = AUDIT_RECORDS
    t = AUDIT_DT * np.arange(n)
    T = t[-1]
    cols = {"t": t}
    for name in csv_columns[1:]:
        base = rng.uniform(0.1, 1.0)
        w = rng.uniform(0.5, 3.0) * 2.0 * np.pi / T
        cols[name] = base * (1.0 + 0.2 * np.sin(w * t + rng.uniform(0, 2 * np.pi)) ** 2)
    J0 = rng.uniform(1.0, 2.0)
    bump = rng.uniform(0.2, 0.4)
    ratio = (1.0 + bump * t * np.exp(-t / (T / 8))) / (1.0 + 0.05 * t)
    cols["J"] = J0 * (1.0 + t) * ratio
    cols["J_envelope"] = J0 * (1.0 + t)
    cols["E1_sf"] = cols["E1_sf"][0] * (1.0 + 0.01 * t)
    cols["bianchi_linf"] = np.zeros(n)
    table = np.column_stack([cols[name] for name in csv_columns])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(csv_columns) + "\n")
        np.savetxt(fh, table, fmt="%.17g", delimiter=",")


def command(inputs: Inputs, out_dir: str) -> list[str]:
    if inputs.workload == "audit_replay":
        return ["-m", "mkg.cli", "check-bounds", "--trace", inputs.path]
    return ["-m", "mkg.cli", "run", "--config", inputs.path, "--out", out_dir]


# Reference programs: fixed numpy and Python work shaped like each workload
# (stencils and per-site contractions on the same grid; float parsing and
# dict-heavy scalar arithmetic), independent of mkg.  On a shared machine the
# CPU speed drifts by tens of percent over minutes, which no median within a
# run removes; dividing each command's time by that of the reference runs
# right before and after it cancels the drift.
_REF_GRID = """
import numpy as np
rng = np.random.default_rng(0)
a = rng.normal(size=(2, 3) + {dims})
m = rng.normal(size={dims} + (2, 2)) + 3.0 * np.eye(2)
for i in range({iters}):
    b = (np.roll(a, 1, axis=2) - np.roll(a, -1, axis=2)) * 0.5
    c = np.einsum('abcls,siabc->liabc', m, b)
    s = float(np.sum(c * c)) + float(np.sum(np.linalg.inv(m)))
"""
REFERENCE_CODE = {
    "diag_1d": _REF_GRID.format(dims=(1024, 1, 1), iters=600),
    "evolve_3d": _REF_GRID.format(dims=(32, 32, 32), iters=40),
    "audit_replay": """
import numpy as np
line = ",".join("%.17g" % v for v in np.random.default_rng(0).uniform(size=28))
keys = ("p", "dp", "Dp", "F4", "A", "dPsi", "E0h", "J0", "t")
s = 0.0
for i in range(65000):
    env = dict(zip(keys, [float(x) for x in line.split(",")]))
    s += sum(env[k] ** 3 + env[k] * env["p"] for k in keys)
""",
}


def setup_code(workload: str) -> str:
    """Python source the set-up child runs (argv[1] is the input path)."""
    if workload == "audit_replay":
        return "import mkg.cli"
    return ("import sys, mkg.cli\nfrom mkg.config import load_config\n"
            "load_config(sys.argv[1]).build()")


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages (empty = pass)


def check_output(inputs: Inputs, returncode: int, stdout: str, out_dir: str,
                 csv_columns, mkg_lattice) -> list[str]:
    if inputs.workload == "audit_replay":
        return _check_audit(inputs, returncode, stdout, csv_columns)
    fails = []
    if returncode != 0:
        fails.append(f"exit code {returncode}")
    if "audit skipped" in stdout:
        fails.append("run printed 'audit skipped'")
    if "fitted constants:" not in stdout:
        fails.append("run printed no 'fitted constants' line")
    trace = os.path.join(out_dir, "trace.csv")
    if not os.path.exists(trace):
        return fails + ["no trace.csv"]
    with open(trace) as fh:
        header = tuple(fh.readline().strip().split(","))
    if header != tuple(csv_columns):
        fails.append("trace header differs from CSV_COLUMNS")
        return fails
    data = np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != inputs.records:
        fails.append(f"trace has {data.shape[0]} rows, expected {inputs.records}")
    col = {name: data[:, i] for i, name in enumerate(header)}
    e0 = col["E0"]
    drift = abs(e0[-1] - e0[0]) / abs(e0[0])
    if not drift <= E0_DRIFT_MAX[inputs.workload]:
        fails.append(f"E0 drift {drift:.3g} > {E0_DRIFT_MAX[inputs.workload]:g}")
    g = col["gauss_l2"]
    growth = np.max(g) / g[0] - 1.0
    growth_max = GAUSS_GROWTH_MAX[inputs.workload, inputs.mode]
    if not growth <= growth_max:
        fails.append(f"Gauss residual growth {growth:.3g} > {growth_max:g} "
                     f"(mode {inputs.mode})")
    if not np.max(np.abs(col["bianchi_linf"])) <= BIANCHI_MAX:
        fails.append("bianchi_linf above 1e-12")
    fails += _check_snapshots(inputs, out_dir, mkg_lattice)
    return fails


def _check_snapshots(inputs: Inputs, out_dir: str, mkg_lattice) -> list[str]:
    fails = []
    names = ["snap_final.mkg"]
    if inputs.snapshot_cadence:
        names += [f"snap_{i:06d}.mkg"
                  for i in range(0, inputs.steps + 1, inputs.snapshot_cadence)]
    for name in names:
        if not os.path.exists(os.path.join(out_dir, name)):
            fails.append(f"missing {name}")
    final = os.path.join(out_dir, "snap_final.mkg")
    if os.path.exists(final):
        state, lattice = mkg_lattice.read_snapshot(final)
        again = os.path.join(out_dir, "roundtrip.mkg")
        mkg_lattice.write_snapshot(again, state, lattice)
        with open(final, "rb") as a, open(again, "rb") as b:
            if a.read() != b.read():
                fails.append("snap_final.mkg does not round-trip bit-exactly")
    return fails


def _check_audit(inputs: Inputs, returncode: int, stdout: str,
                 csv_columns) -> list[str]:
    fails = []
    if returncode != 0 or "check-bounds: PASS" not in stdout:
        fails.append(f"check-bounds gave exit {returncode}, expected PASS (0)")
    m = re.search(r"C_N_fit=(\S+)", stdout)
    if m is None:
        return fails + ["no C_N_fit in output"]
    data = np.loadtxt(inputs.path, delimiter=",", skiprows=1)
    t, J = data[:, 0], data[:, list(csv_columns).index("J")]
    expect = float(np.max(J / (J[0] * (1.0 + t))))
    got = float(m.group(1))
    if not math.isclose(got, expect, rel_tol=C_N_REL_TOL):
        fails.append(f"C_N_fit {got:.6g} != recomputed {expect:.6g}")
    m = re.search(r"over (\d+) records", stdout)
    if m is None or int(m.group(1)) != inputs.records:
        fails.append("check-bounds did not audit every record")
    return fails


# ---------------------------------------------------------------------------
# 3D probe: x -> y -> z equivariance of eom_rhs and collect on 3D data


def _rotate_scalar(f: np.ndarray) -> np.ndarray:
    """f'(i, j, k) = f(j, k, i) on the last three (grid) axes."""
    n = f.ndim
    return np.transpose(f, tuple(range(n - 3)) + (n - 1, n - 3, n - 2))


def _rotate_vector(v: np.ndarray) -> np.ndarray:
    """Rotate grid axes and the component axis (third from the end of the
    leading axes) together: v'_y = v_x, v'_z = v_y, v'_x = v_z."""
    return _rotate_scalar(np.roll(v, 1, axis=v.ndim - 4))


def probe_state(mkg, seed: int, n: int = 32):
    """Seeded band-limited state of interacting_demo that varies along x, y
    and z, built from make_model and zero_state."""
    lat = mkg.lattice.LatticeSpec((n, n, n), 1.0 / n)
    model = mkg.scenarios.make_model("interacting_demo")
    st = mkg.lattice.zero_state(lat, model.n_gauge, model.n_scalar)
    rng = np.random.default_rng(seed)
    x = np.stack(lat.meshgrid())

    def band(scale):
        out = np.zeros(lat.dims)
        for _ in range(3):
            k = rng.integers(1, 3, size=3) * rng.choice((-1, 1), size=3)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            out += rng.uniform(0.5, 1.0) * np.cos(2.0 * np.pi * np.tensordot(k, x, 1) + phase)
        return scale * out / 3.0

    for a in range(model.n_gauge):
        for i in range(3):
            st.A[a, i] = band(0.05)
            st.E[a, i] = band(0.3)
    for c in range(model.n_scalar):
        st.phi[c] = band(0.1) + 1j * band(0.1)
        st.pi[c] = band(0.1) + 1j * band(0.1)
    return st, lat, model


def _rotate_state(mkg, st):
    return mkg.lattice.FieldState(A=_rotate_vector(st.A), E=_rotate_vector(st.E),
                                  phi=_rotate_scalar(st.phi),
                                  pi=_rotate_scalar(st.pi), t=st.t)


def _close(a, b, tol=1e-12) -> bool:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) <= tol * scale


def run_probe(mkg, seed: int) -> tuple[list[str], dict]:
    """Returns (failures, timings in ms of eom_rhs and collect)."""
    st, lat, model = probe_state(mkg, seed)
    rot = _rotate_state(mkg, st)
    times = {"eom_rhs": [], "collect": []}

    def timed(key, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        times[key].append(1e3 * (perf_counter() - t0))
        return out

    d0 = timed("eom_rhs", mkg.dynamics.eom_rhs, st, lat, model)
    d1 = timed("eom_rhs", mkg.dynamics.eom_rhs, rot, lat, model)
    fails = []
    for name, rotate in (("dA", _rotate_vector), ("dE", _rotate_vector),
                         ("dphi", _rotate_scalar), ("dpi", _rotate_scalar)):
        if not _close(rotate(getattr(d0, name)), getattr(d1, name)):
            fails.append(f"probe: eom_rhs {name} is not x->y->z equivariant")
    r0 = timed("collect", mkg.diagnostics.collect, st, lat, model)
    r1 = timed("collect", mkg.diagnostics.collect, rot, lat, model)
    for name in ("energy_E0", "flat_J", "sobolev_E0", "sobolev_E1",
                 "gauss_res_l2", "gauss_res_linf"):
        if not _close(np.array(getattr(r0, name)), np.array(getattr(r1, name))):
            fails.append(f"probe: collect {name} is not rotation invariant")
    if not _close(np.array(r0.norm_snapshot.as_tuple()),
                  np.array(r1.norm_snapshot.as_tuple())):
        fails.append("probe: norm snapshot is not rotation invariant")
    if max(r0.bianchi_res_linf, r1.bianchi_res_linf) > BIANCHI_MAX:
        fails.append("probe: bianchi_linf above 1e-12 on 3D data")
    return fails, {k: float(np.median(v)) for k, v in times.items()}
