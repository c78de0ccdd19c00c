"""Command-line entry point.

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 numerical abort or radius exceeded during `run`.

`run` writes --out, unless empty, and --steps onto the config's
`directory` and `steps` (--steps checked by that key's own rule).

`check-bounds` prints PASS when the fits and caps are finite and J's
envelope ratio has settled (`stabilized`).  `fits_stabilized` is printed
on the "fit stabilization" line but not gated on; the acceptance suite's
Gronwall criterion does gate on it.

Each command imports the modules it uses when it runs.  So `check-bounds`,
which reads a trace and audits it, starts without loading the config
parser, the scenarios, the lattice or the evolver: it loads the trace
format (`mkg.trace`), `bounds`, `potentials` and `errors`, and no more.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ConfigError, MkgError, ValidationError


def cmd_run(args) -> int:
    from .config import load_config, parse_steps
    from .run import run

    cfg = load_config(args.config)
    cfg.directory = args.out or cfg.directory
    if args.steps is not None:
        try:
            cfg.steps = parse_steps(str(args.steps))
        except ValueError as exc:
            raise ValidationError(f"--steps {exc}") from None
    return run(cfg)


def cmd_check_bounds(args) -> int:
    from . import bounds
    from .trace import parse_trace, read_run_constants

    trace = parse_trace(args.trace)
    manifest = os.path.join(os.path.dirname(args.trace), "run.json")
    if os.path.exists(manifest):         # the constants the run audited with
        constants = read_run_constants(manifest)
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

    pb = sub.add_parser("check-bounds", help="audit a trace CSV")
    pb.add_argument("--trace", required=True)
    pb.set_defaults(fn=cmd_check_bounds)

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
