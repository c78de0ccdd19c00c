"""Run orchestration: evolve a configured scenario, write the trace CSV,
the run.json manifest, binary snapshots and SVG plots, then print the
audit report that `check-bounds` prints on that trace.  The trace format
and its IO live in `mkg.trace`.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from . import bounds
from .config import RK4_STABILITY_LIMIT, RunConfig
from .diagnostics import collect
from .dynamics import Kinematics, step_rk4
from .errors import (NonFinite, NonUniformSampling, RadiusExceeded,
                     TraceTooShort, ValidationError)
from .lattice import write_snapshot
# CSV_COLUMNS: perfbench reads mkg.run.CSV_COLUMNS until ROADMAP item 1
from .trace import CSV_COLUMNS, stack_records, write_run_json, write_trace  # noqa: F401


def svg_line_plot(path: str, title: str, ts: np.ndarray, series: dict,
                  log_y: bool = False):
    """Minimal hand-rolled SVG polyline plot (no plotting dependency) of
    each named series over the one time column ts."""
    width, height, pad = 640, 400, 50
    if log_y:
        series = {name: np.log10(np.maximum(np.abs(ys), 1e-300))
                  for name, ys in series.items()}
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for ys in series.values()])
    x0, x1 = float(np.min(ts)), float(np.max(ts))
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
    for i, (name, ys) in enumerate(series.items()):
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


def run(cfg: RunConfig) -> int:
    """Evolve the configured scenario for cfg.steps steps into
    cfg.directory; returns a process exit code."""
    nu = cfg.courant_number
    if nu > RK4_STABILITY_LIMIT:
        print(f"warning: nu = (dt/dx) sigma_p sqrt(d) = {nu:.4g} exceeds RK4's linear "
              f"stability limit 2 sqrt 2; the limit is necessary, not sufficient "
              f"(interacting_demo at amplitude 2 aborts at nu = 2.5)", file=sys.stderr)
    model, state = cfg.build()
    lattice = cfg.lattice

    # The first record and the constants come before --out is created, so
    # that initial data whose J overflows is a config error that writes
    # nothing; its overflowing cells read inf or nan, without a warning.
    # A recorded state's Kinematics also serves stage k1 of the next step.
    with np.errstate(over="ignore", invalid="ignore"):
        kin = Kinematics(state, lattice, model)
        records = [collect(state, lattice, model, kin)]
    constants = cfg.estimate_constants(records[0].flat_J or 1.0)
    out = cfg.directory
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:          # an existing file, or a path under one
        raise ValidationError(f"output directory {out!r} cannot be created: "
                              f"{exc.strerror}") from None
    write_run_json(os.path.join(out, "run.json"), constants)

    if cfg.snapshot_cadence:
        write_snapshot(os.path.join(out, "snap_000000.mkg"), state, lattice)
    aborted = None
    try:
        for i in range(1, cfg.steps + 1):
            state = step_rk4(state, lattice, model, cfg.dt, kin)
            kin = None
            if i % cfg.csv_cadence == 0:
                kin = Kinematics(state, lattice, model)
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
        print("audit of the partial trace:")
    elif cfg.plots:
        ts = trace.t
        svg_line_plot(os.path.join(out, "energy.svg"), "energies", ts,
                      {"E0": trace.energy_E0, "E0_sf": trace.sobolev_E0,
                       "E1_sf": trace.sobolev_E1})
        svg_line_plot(os.path.join(out, "flat_energy.svg"),
                      "J(t) against the linear envelope", ts,
                      {"J": trace.flat_J, "J0(1+t)": constants.J0 * (1 + ts)})
        svg_line_plot(os.path.join(out, "constraints.svg"),
                      "constraint residuals (log10)", ts,
                      {"gauss_l2": trace.gauss_res_l2,
                       "bianchi": trace.bianchi_res_linf}, log_y=True)

    # the verdict is advisory: it leaves the exit code alone (ROADMAP item 6)
    try:
        print(bounds.audit_gronwall(trace, constants).report())
    except (TraceTooShort, NonUniformSampling) as exc:
        print(f"audit skipped: {exc}")
    return 3 if aborted else 0
