"""Command-line entry point.

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 numerical abort or radius exceeded during `run`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bounds, run as runmod
from .config import load_config
from .errors import ConfigError, MkgError, ValidationError
from .kahler import (hessian_oracle, kahler_metric, radial_bound_check,
                     resolve_q_normalization)
from .spherical import PlaneWave, SphereQuadrature, kirchhoff_residual_scan


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.steps is not None and args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    return runmod.run(cfg, out_dir=args.out, steps=args.steps)


def cmd_check_geometry(args) -> int:
    model = load_config(args.config).model
    family = model.kahler
    rng = np.random.default_rng(0)
    n = model.n_scalar

    worst = 0.0
    for _ in range(100):
        v = rng.normal(scale=0.5, size=n) + 1j * rng.normal(scale=0.5, size=n)
        g = kahler_metric(family, v)
        h = hessian_oracle(family, v)
        scale = max(1.0, float(np.max(np.abs(h))))
        worst = max(worst, float(np.max(np.abs(g - h))) / scale)
    probes = [rng.normal(scale=0.5, size=n) + 1j * rng.normal(scale=0.5, size=n)
              for _ in range(8)]
    winner, errs = resolve_q_normalization(family, probes)
    radii = np.linspace(2.0 / 1000, 2.0, 1000)
    report = radial_bound_check(family, radii)

    print(f"metric vs finite-difference Hessian: max rel err {worst:.3e}")
    resolved = (f"resolved to {winner}" if winner else
                "undetermined: q = 0 on every probe, both prefactors fit equally")
    print(f"rank-one prefactor {resolved} "
          f"(errors: {', '.join(f'{k}={v:.2e}' for k, v in errs.items())})")
    print(f"potential bound: {int(np.sum(report.holds))}/{report.holds.size} "
          f"radii hold (b={report.b}, C1={report.c1:.4g}, C2={report.c2:.4g})")
    ok = worst < 1e-6 and winner != "1/(4r)" and report.all_hold
    print("check-geometry:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_check_bounds(args) -> int:
    trace = runmod.parse_trace(args.trace)
    manifest = os.path.join(os.path.dirname(args.trace), "run.json")
    if os.path.exists(manifest):         # the constants the run audited with
        constants = runmod.read_run_constants(manifest)
    else:
        J0 = float(trace.flat_J[0]) if len(trace.flat_J) else 0.0
        try:
            constants = bounds.EstimateConstants(J0=J0 or 1.0)
        except ValueError as exc:
            raise ValidationError(f"cannot audit {args.trace} without a run.json: "
                                  f"J0 = {J0!r} from its first J: {exc}") from None
    audit = bounds.audit_gronwall(trace, constants)
    print(f"C_N_fit={audit.C_N_fit:.6g} C0_fit={audit.C0_fit:.6g} "
          f"gronwall_fit={audit.gronwall_fit:.6g}")
    print(f"caps: c0={audit.c0:.6g} c1={audit.c1:.6g} "
          f"k0={audit.k0:.6g} k1={audit.k1:.6g}")
    print(f"stabilized={audit.stabilized} over {audit.records} records")
    print(f"fit stabilization: C0 {audit.C0_half:.6g} -> {audit.C0_fit:.6g}, "
          f"E1 exponent {audit.gronwall_half:.6g} -> {audit.gronwall_fit:.6g} "
          f"(stabilized={audit.fits_stabilized})")
    ok = (np.isfinite([audit.C_N_fit, audit.C0_fit, audit.gronwall_fit,
                       audit.c0, audit.c1, audit.k0, audit.k1]).all()
          and audit.stabilized)
    print("check-bounds:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_kirchhoff_verify(args) -> int:
    try:
        k = np.array([float(p) for p in args.k.split(",")])
    except ValueError:
        k = np.array([])
    with np.errstate(over="ignore"):       # k.k overflows past ~1e154
        if k.size != 3 or not np.isfinite(np.linalg.norm(k)):
            raise ValidationError(f"--k expects three comma-separated numbers "
                                  f"with a finite norm |k| (got {args.k!r})")
    if args.order < 1:
        raise ValidationError(f"--order must be >= 1 (got {args.order})")
    if not 0.0 < args.r0 < math.inf:
        raise ValidationError(f"--r0 must be a positive finite number "
                              f"(got {args.r0})")
    quad = SphereQuadrature.build(args.order)
    wave = PlaneWave(k)
    points = [(0.0, np.zeros(3)), (1.0, np.array([0.3, -0.2, 0.5])),
              (2.5, np.array([-0.7, 0.1, 0.0]))]
    worst, rows = kirchhoff_residual_scan(wave, points, [args.r0], quad)
    print(f"plane wave k={k.tolist()}, r0={args.r0}, order={args.order}")
    for (t, x), r0, res in rows:
        print(f"  t={t:<4} x=({x[0]:+.2f},{x[1]:+.2f},{x[2]:+.2f}) "
              f"r0={r0}: residual {res:.3e}")
    ok = worst < 1e-3
    print(f"max residual {worst:.3e}:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mkg",
                                description="lattice gauge-scalar simulator "
                                            "and bound auditor")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="evolve a configured scenario")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", default=None)
    pr.add_argument("--steps", type=int, default=None)
    pr.set_defaults(fn=cmd_run)

    pg = sub.add_parser("check-geometry", help="target-metric oracle checks")
    pg.add_argument("--config", required=True)
    pg.set_defaults(fn=cmd_check_geometry)

    pb = sub.add_parser("check-bounds", help="audit a trace CSV")
    pb.add_argument("--trace", required=True)
    pb.set_defaults(fn=cmd_check_bounds)

    pk = sub.add_parser("kirchhoff-verify",
                        help="validate the spherical-means formula")
    pk.add_argument("--order", type=int, default=8)
    pk.add_argument("--k", default="1.0,0.5,-0.8")
    pk.add_argument("--r0", type=float, default=1.0)
    pk.set_defaults(fn=cmd_kirchhoff_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MkgError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
