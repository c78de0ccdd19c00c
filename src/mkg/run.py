"""Run orchestration: evolve a configured scenario, write the trace CSV,
the run.json manifest, binary snapshots and SVG plots, then audit the
trace."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings

import numpy as np

from . import bounds
from .config import RunConfig
from .diagnostics import DiagnosticsRecord, collect, stack_records
from .dynamics import Kinematics, step_rk4
from .errors import (NonFinite, NonUniformSampling, ParseError, RadiusExceeded,
                     TraceTooShort, ValidationError)
from .lattice import NormSnapshot, write_snapshot
from .potentials import PotentialKind

CSV_COLUMNS = (
    ("t", "E0", "J", "J_envelope", "E0_sf", "E1_sf",
     "gauss_l2", "gauss_linf", "bianchi_linf")
    + NormSnapshot.FIELDS[1:]
    + ("L", "M", "N", "S", "X", "U", "W", "G")
)

# the trace columns stored from a DiagnosticsRecord field, by column name;
# the other stored columns are the NormSnapshot fields under their own names
RECORD_COLUMNS = {"t": "t", "E0": "energy_E0", "J": "flat_J",
                  "E0_sf": "sobolev_E0", "E1_sf": "sobolev_E1",
                  "gauss_l2": "gauss_res_l2", "gauss_linf": "gauss_res_linf",
                  "bianchi_linf": "bianchi_res_linf"}


def write_trace(path: str, trace: DiagnosticsRecord,
                constants: bounds.EstimateConstants):
    """Write a columnar trace (diagnostics.stack_records) as a trace CSV: the
    envelope J0(1+t), L..W and G are evaluated once over the columns, every
    cell has 17 significant digits, and one that overflows reads inf or nan."""
    snap = trace.norm_snapshot
    col = {name: getattr(trace, field) for name, field in RECORD_COLUMNS.items()}
    col.update((name, getattr(snap, name)) for name in NormSnapshot.FIELDS[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        col["J_envelope"] = constants.J0 * (1.0 + trace.t)
        col.update(zip(("L", "M", "N", "S", "X", "U", "W"),
                       bounds.eval_LMNSXUW(snap, constants)))
        col["G"] = bounds.eval_G(snap)
    table = np.column_stack([col[name] for name in CSV_COLUMNS])
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",",
                   header=",".join(CSV_COLUMNS), comments="")


def parse_trace(path: str) -> DiagnosticsRecord:
    """Read a trace CSV into one columnar DiagnosticsRecord: every field,
    and every field of its NormSnapshot, is an array over the records.

    A file that cannot be read, a wrong header, a cell that is not a number
    or a row of the wrong length raises ParseError."""
    try:
        with open(path) as fh:
            if tuple(fh.readline().strip().split(",")) != CSV_COLUMNS:
                raise ParseError(f"unexpected trace header in {path}")
            with warnings.catch_warnings():   # a header-only trace has no rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read trace {path}: {exc}") from exc
    if data.size == 0:
        data = data.reshape(0, len(CSV_COLUMNS))
    elif data.shape[1] != len(CSV_COLUMNS):
        raise ParseError(f"trace {path} has {data.shape[1]} columns, "
                         f"expected {len(CSV_COLUMNS)}")
    # one copy, so that each column is contiguous as stack_records lays it out
    col = dict(zip(CSV_COLUMNS, np.ascontiguousarray(data.T)))
    snap = NormSnapshot(**{name: col[name] for name in NormSnapshot.FIELDS})
    return DiagnosticsRecord(norm_snapshot=snap, **{
        field: col[name] for name, field in RECORD_COLUMNS.items()})


# the estimate constants a run writes to run.json: every EstimateConstants field
_RUN_CONSTANTS = tuple(f.name for f in dataclasses.fields(bounds.EstimateConstants))


def write_run_json(path: str, constants: bounds.EstimateConstants):
    """The run's manifest: the resolved estimate constants, so that
    check-bounds audits the run's trace with the constants the run used."""
    raw = {name: getattr(constants, name) for name in _RUN_CONSTANTS}
    raw["potential_kind"] = constants.potential_kind.value
    with open(path, "w", newline="\n") as fh:
        json.dump({"estimate_constants": raw}, fh, indent=2)
        fh.write("\n")


def _finite(key: str, v, kind=float):
    """v as a finite float, or an int when kind is int; ValueError otherwise."""
    ok = isinstance(v, int) if kind is int else isinstance(v, (int, float))
    if isinstance(v, bool) or not ok or not math.isfinite(v):
        raise ValueError(f"{key}: expected a finite {kind.__name__}, got {v!r}")
    return kind(v)


def read_run_constants(path: str) -> bounds.EstimateConstants:
    """The EstimateConstants of a run.json; ParseError if it is malformed."""
    try:
        with open(path) as fh:
            raw = json.load(fh)["estimate_constants"]
        if sorted(raw) != sorted(_RUN_CONSTANTS):
            raise ValueError(f"expected the keys {', '.join(_RUN_CONSTANTS)}")
        return bounds.EstimateConstants(
            b_n=tuple(_finite("b_n", b) for b in raw["b_n"]),
            **{key: _finite(key, raw[key]) for key in ("C1", "C2", "C3", "c4", "J0")},
            N=_finite("N", raw["N"], int),
            potential_kind=PotentialKind(raw["potential_kind"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed run manifest {path}: {exc}") from exc


def svg_line_plot(path: str, title: str, series: dict, log_y: bool = False):
    """Minimal hand-rolled SVG polyline plot (no plotting dependency)."""
    width, height, pad = 640, 400, 50
    xs_all = np.concatenate([np.asarray(ts, dtype=float) for ts, _ in series.values()])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series.values()])
    if log_y:
        ys_all = np.log10(np.maximum(np.abs(ys_all), 1e-300))
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 - x0 < 1e-300:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-300:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for i, (name, (ts, ys)) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        if log_y:
            ys = np.log10(np.maximum(np.abs(ys), 1e-300))
        pts = " ".join(f"{sx(t):.2f},{sy(y):.2f}" for t, y in zip(ts, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad - 4}" y="{pad + 16 * (i + 1)}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="12" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def run(cfg: RunConfig, out_dir: str | None = None, steps: int | None = None) -> int:
    """Evolve the configured scenario; returns a process exit code."""
    model, state = cfg.build()
    out = out_dir or cfg.directory
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:          # an existing file, or a path under one
        raise ValidationError(f"output directory {out!r} cannot be created: "
                              f"{exc.strerror}") from None
    n_steps = steps if steps is not None else cfg.steps
    lattice = cfg.lattice
    dt = cfg.dt_value

    # a recorded state's Kinematics also serves stage k1 of the next step
    kin = Kinematics.of(state, lattice, model)
    records = [collect(state, lattice, model, kin)]
    constants = cfg.estimate_constants(records[0].flat_J or 1.0)
    write_run_json(os.path.join(out, "run.json"), constants)

    if cfg.snapshot_cadence:
        write_snapshot(os.path.join(out, "snap_000000.mkg"), state, lattice)
    aborted = None
    try:
        for i in range(1, n_steps + 1):
            state = step_rk4(state, lattice, model, dt, kin)
            kin = None
            if i % cfg.csv_cadence == 0:
                kin = Kinematics.of(state, lattice, model)
                records.append(collect(state, lattice, model, kin))
            if cfg.snapshot_cadence and i % cfg.snapshot_cadence == 0:
                write_snapshot(os.path.join(out, f"snap_{i:06d}.mkg"),
                               state, lattice)
    except (NonFinite, RadiusExceeded) as exc:
        aborted = exc

    last = "postmortem.mkg" if aborted else "snap_final.mkg"
    write_snapshot(os.path.join(out, last), state, lattice)
    trace = stack_records(records)
    write_trace(os.path.join(out, "trace.csv"), trace, constants)
    if aborted:
        reason = ("radius exceeded" if isinstance(aborted, RadiusExceeded)
                  else "numerical abort")
        print(f"{reason}: {aborted}; post-mortem snapshot written")
        return 3

    if cfg.plots:
        ts = trace.t
        svg_line_plot(os.path.join(out, "energy.svg"), "energies",
                      {"E0": (ts, trace.energy_E0),
                       "E0_sf": (ts, trace.sobolev_E0),
                       "E1_sf": (ts, trace.sobolev_E1)})
        svg_line_plot(os.path.join(out, "flat_energy.svg"),
                      "J(t) against the linear envelope",
                      {"J": (ts, trace.flat_J),
                       "J0(1+t)": (ts, constants.J0 * (1 + ts))})
        svg_line_plot(os.path.join(out, "constraints.svg"),
                      "constraint residuals (log10)",
                      {"gauss_l2": (ts, trace.gauss_res_l2),
                       "bianchi": (ts, trace.bianchi_res_linf)},
                      log_y=True)

    try:
        audit = bounds.audit_gronwall(trace, constants)
        print(f"fitted constants: C_N={audit.C_N_fit:.6g} "
              f"C0={audit.C0_fit:.6g} gronwall={audit.gronwall_fit:.6g} "
              f"(stabilized={audit.stabilized})")
    except (TraceTooShort, NonUniformSampling) as exc:   # audit is advisory
        print(f"audit skipped: {exc}")
    return 0
