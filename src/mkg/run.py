"""Run orchestration: evolve a configured scenario, write the trace CSV,
binary snapshots and SVG plots, then audit the trace."""

from __future__ import annotations

import os

import numpy as np

from . import bounds
from .config import RunConfig
from .diagnostics import DiagnosticsRecord, collect
from .dynamics import step_rk4
from .errors import NonFinite, NonUniformSampling, RadiusExceeded, TraceTooShort
from .lattice import NormSnapshot, write_snapshot

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
    L, M, N = bounds.eval_LMN(snap, constants)
    Sg, Xg, Ug, Wg = bounds.eval_SXUW(snap, constants)
    vals = ((record.t, record.energy_E0, record.flat_J,
             constants.J0 * (1.0 + record.t),
             record.sobolev_E0, record.sobolev_E1,
             record.gauss_res_l2, record.gauss_res_linf,
             record.bianchi_res_linf)
            + snap.as_tuple()[1:]
            + (L, M, N, Sg, Xg, Ug, Wg, bounds.eval_G(snap)))
    return ",".join(_fmt(v) for v in vals)


def parse_trace(path: str):
    """Read a trace CSV back into DiagnosticsRecord objects."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}")
        records = []
        col = {name: i for i, name in enumerate(header)}
        for line in fh:
            v = [float(x) for x in line.strip().split(",")]
            snap = NormSnapshot(t=v[col["t"]], **{
                name: v[col[name]] for name in NormSnapshot.FIELDS[1:]})
            records.append(DiagnosticsRecord(
                t=v[col["t"]], energy_E0=v[col["E0"]], flat_J=v[col["J"]],
                sobolev_E0=v[col["E0_sf"]], sobolev_E1=v[col["E1_sf"]],
                gauss_res_l2=v[col["gauss_l2"]],
                gauss_res_linf=v[col["gauss_linf"]],
                bianchi_res_linf=v[col["bianchi_linf"]],
                norm_snapshot=snap, mass_m=1.0))
    return records


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

    if cfg.plots:
        ts = [r.t for r in records]
        svg_line_plot(os.path.join(out, "energy.svg"), "energies",
                      {"E0": (ts, [r.energy_E0 for r in records]),
                       "E0_sf": (ts, [r.sobolev_E0 for r in records]),
                       "E1_sf": (ts, [r.sobolev_E1 for r in records])})
        svg_line_plot(os.path.join(out, "flat_energy.svg"),
                      "J(t) against the linear envelope",
                      {"J": (ts, [r.flat_J for r in records]),
                       "J0(1+t)": (ts, [constants.J0 * (1 + t) for t in ts])})
        svg_line_plot(os.path.join(out, "constraints.svg"),
                      "constraint residuals (log10)",
                      {"gauss_l2": (ts, [r.gauss_res_l2 for r in records]),
                       "bianchi": (ts, [r.bianchi_res_linf for r in records])},
                      log_y=True)

    try:
        fitted, report = bounds.audit_gronwall(records, constants)
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
