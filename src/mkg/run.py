"""Run orchestration: evolve a configured scenario, write the trace CSV,
the run.json manifest, binary snapshots and SVG plots, then audit the
trace."""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np

from . import bounds
from .config import RunConfig
from .diagnostics import DiagnosticsRecord, collect, stack_records
from .dynamics import step_rk4
from .errors import (NonFinite, NonUniformSampling, ParseError, RadiusExceeded,
                     TraceTooShort)
from .lattice import NormSnapshot, write_snapshot
from .potentials import PotentialKind

CSV_COLUMNS = (
    ("t", "E0", "J", "J_envelope", "E0_sf", "E1_sf",
     "gauss_l2", "gauss_linf", "bianchi_linf")
    + NormSnapshot.FIELDS[1:]
    + ("L", "M", "N", "S", "X", "U", "W", "G")
)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def trace_row(record: DiagnosticsRecord, constants: bounds.EstimateConstants) -> str:
    snap = record.norm_snapshot
    L, M, N, Sg, Xg, Ug, Wg = bounds.eval_LMNSXUW(snap, constants)
    vals = ((record.t, record.energy_E0, record.flat_J,
             constants.J0 * (1.0 + record.t),
             record.sobolev_E0, record.sobolev_E1,
             record.gauss_res_l2, record.gauss_res_linf,
             record.bianchi_res_linf)
            + snap.as_tuple()[1:]
            + (L, M, N, Sg, Xg, Ug, Wg, bounds.eval_G(snap)))
    return ",".join(_fmt(v) for v in vals)


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
    col = dict(zip(CSV_COLUMNS, data.T))
    snap = NormSnapshot(**{name: col[name] for name in NormSnapshot.FIELDS})
    return DiagnosticsRecord(
        t=col["t"], energy_E0=col["E0"], flat_J=col["J"],
        sobolev_E0=col["E0_sf"], sobolev_E1=col["E1_sf"],
        gauss_res_l2=col["gauss_l2"], gauss_res_linf=col["gauss_linf"],
        bianchi_res_linf=col["bianchi_linf"], norm_snapshot=snap)


# the estimate constants a run writes to run.json, by EstimateConstants field
_RUN_CONSTANTS = ("b_n", "C1", "C2", "C3", "c4", "N", "J0", "potential_kind")


def write_run_json(path: str, constants: bounds.EstimateConstants):
    """The run's manifest: the resolved estimate constants, so that
    check-bounds audits the run's trace with the constants the run used."""
    raw = {name: getattr(constants, name) for name in _RUN_CONSTANTS}
    raw["b_n"] = list(constants.b_n)
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


def run(cfg: RunConfig, out_dir: str | None = None, steps: int | None = None,
        printer=print) -> int:
    """Evolve the configured scenario; returns a process exit code."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    n_steps = steps if steps is not None else cfg.steps
    lattice = cfg.lattice
    model, state = cfg.build()
    dt = cfg.dt_value

    records = [collect(state, lattice, model)]
    constants = cfg.estimate_constants(records[0].flat_J or 1.0)
    write_run_json(os.path.join(out, "run.json"), constants)
    rows = [trace_row(records[0], constants)]

    if cfg.snapshot_cadence:
        write_snapshot(os.path.join(out, "snap_000000.mkg"), state, lattice)
    try:
        for i in range(1, n_steps + 1):
            state = step_rk4(state, lattice, model, dt)
            if i % cfg.csv_cadence == 0:
                rec = collect(state, lattice, model)
                records.append(rec)
                rows.append(trace_row(rec, constants))
            if cfg.snapshot_cadence and i % cfg.snapshot_cadence == 0:
                write_snapshot(os.path.join(out, f"snap_{i:06d}.mkg"),
                               state, lattice)
    except (NonFinite, RadiusExceeded) as exc:
        write_snapshot(os.path.join(out, "postmortem.mkg"), state, lattice)
        _write_trace(os.path.join(out, "trace.csv"), rows)
        reason = "radius exceeded" if isinstance(exc, RadiusExceeded) else "numerical abort"
        printer(f"{reason}: {exc}; post-mortem snapshot written")
        return 3

    write_snapshot(os.path.join(out, "snap_final.mkg"), state, lattice)
    _write_trace(os.path.join(out, "trace.csv"), rows)

    trace = stack_records(records)
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
        fitted, report = bounds.audit_gronwall(trace, constants)
        printer(f"fitted constants: C_N={fitted.C_N_fit:.6g} "
                f"C0={fitted.C0_fit:.6g} gronwall={fitted.gronwall_fit:.6g} "
                f"(stabilized={report['stabilized']})")
    except (TraceTooShort, NonUniformSampling) as exc:   # audit is advisory
        printer(f"audit skipped: {exc}")
    return 0


def _write_trace(path: str, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(row + "\n")
