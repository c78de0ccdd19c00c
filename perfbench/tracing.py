"""Traced pass: spans around mkg's public functions, from outside the package.

`Tracer.install` replaces every public function binding of the traced
modules, under the name it is called by (``mkg.run.step_rk4`` is the
binding `run` calls, ``mkg.dynamics.eval_h_inverse`` the one `eom_rhs`
calls), plus the radial and potential methods the RHS calls.  Spans live
in flat arrays in memory and are written once, when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import types
from array import array
from time import perf_counter

import numpy as np

TRACED_MODULES = ("bounds", "cli", "config", "couplings", "diagnostics",
                  "dynamics", "kahler", "lattice", "potentials", "run",
                  "scenarios")
TRACED_METHODS = {"mkg.kahler.KahlerFamily": ("alpha", "q", "q_prime_over_2r"),
                  "mkg.potentials.PotentialFamily": ("value", "prime")}


def _nbytes(args, out):
    return out.nbytes if isinstance(out, np.ndarray) else 0


def _file_bytes(args, out):
    return os.path.getsize(args[0])


# bytes a span records: array results by default, the file for snapshots
_SIZE_OF = {"mkg.lattice.write_snapshot": _file_bytes}


class Tracer:
    """One traced pass.  Span i is (call name, start, end, parent span,
    result bytes); all spans of the pass share `run_id`."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.call_names: list[str] = []     # span name id -> call name
        self.def_names: list[str] = []      # span name id -> defining name
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nbytes = array("q")
        self._stack = [-1]
        self._patched = []

    def _wrap(self, fn, call_name: str):
        nid = len(self.call_names)
        def_name = f"{fn.__module__}.{fn.__qualname__}"
        self.call_names.append(call_name)
        self.def_names.append(def_name)
        size_of = _SIZE_OF.get(def_name, _nbytes)
        name, start, end, parent, nbytes = (self.name, self.start, self.end,
                                            self.parent, self.nbytes)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            nbytes.append(0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            nbytes[i] = size_of(args, out)
            return out

        return traced

    def install(self):
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"mkg.{short}")
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("mkg.")):
                    self._patch(mod, attr, f"{mod.__name__}.{attr}")
        for qual, methods in TRACED_METHODS.items():
            mod_name, cls_name = qual.rsplit(".", 1)
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for attr in methods:
                self._patch(cls, attr, f"{qual}.{attr}")

    def _patch(self, owner, attr, call_name):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, call_name))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """Span columns as numpy arrays, indexed by span id (call order)."""
        n = len(self.name)
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=float).copy(),
                "end": np.frombuffer(self.end, dtype=float).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
                "run_id": np.full(n, self.run_id, dtype=np.int32)}

    def save(self, path: str, spans: dict):
        np.savez_compressed(path, call_names=np.array(self.call_names),
                            def_names=np.array(self.def_names), **spans)


COUPLING_EVALS = tuple(f"mkg.couplings.{n}" for n in (
    "eval_h", "eval_h_inverse", "eval_h_prime", "eval_k", "eval_k_prime"))
STENCILS = tuple(f"mkg.lattice.{n}" for n in (
    "central_diff", "gradient", "curl", "divergence", "magnetic_field",
    "covariant_derivative"))
KAHLER_RADIAL = tuple(f"mkg.kahler.KahlerFamily.{n}"
                      for n in ("alpha", "q", "q_prime_over_2r"))
POTENTIAL_EVALS = ("mkg.potentials.PotentialFamily.value",
                   "mkg.potentials.PotentialFamily.prime")


class PassSpans:
    """Queries over the spans of one pass, by defining function name."""

    def __init__(self, spans: dict, def_names: list[str]):
        self.dur = spans["end"] - spans["start"]
        self.parent = spans["parent"].astype(np.int64)
        self.nbytes = spans["nbytes"]
        child = self.parent >= 0
        self.self_time = self.dur - np.bincount(
            self.parent[child], weights=self.dur[child], minlength=len(self.dur))
        self.name = spans["name"]
        self._ids: dict[str, list[int]] = {}
        for nid, d in enumerate(def_names):
            self._ids.setdefault(d, []).append(nid)

    def idx(self, *defs) -> np.ndarray:
        """Span ids of every binding of the given defining functions."""
        ids = [nid for d in defs for nid in self._ids.get(d, ())]
        return np.flatnonzero(np.isin(self.name, ids))

    def count(self, *defs) -> int:
        return int(self.idx(*defs).size)

    def median_ms(self, d) -> float:
        return 1e3 * _median(self.dur[self.idx(d)])

    def pct_ms(self, d, q) -> float:
        """Nearest-rank percentile of span durations, in ms."""
        v = np.sort(self.dur[self.idx(d)])
        return 1e3 * float(v[max(int(np.ceil(q / 100 * v.size)) - 1, 0)]) if v.size else 0.0

    def under(self, parents: np.ndarray, *defs) -> np.ndarray:
        i = self.idx(*defs)
        return i[np.isin(self.parent[i], parents)]


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else 0.0


def layer_metrics(spans: dict, def_names: list[str], records: int) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    s = PassSpans(spans, def_names)
    steps = s.count("mkg.dynamics.step_rk4")
    rhs = s.idx("mkg.dynamics.eom_rhs")
    n_rhs = rhs.size
    coupling = s.under(rhs, *COUPLING_EVALS)
    run_defs = [d for d in def_names if d.startswith("mkg.run.")]
    rhs_p50 = s.median_ms("mkg.dynamics.eom_rhs")
    collect_p50 = s.median_ms("mkg.diagnostics.collect")
    return {
        "dynamics.step_rk4.ms_p50": s.pct_ms("mkg.dynamics.step_rk4", 50),
        "dynamics.step_rk4.ms_p99": s.pct_ms("mkg.dynamics.step_rk4", 99),
        "dynamics.eom_rhs.ms_p50": rhs_p50,
        "dynamics.eom_rhs.self_ms": 1e3 * _median(s.self_time[rhs]),
        "dynamics.eom_rhs.calls_per_step": _per(n_rhs, steps),
        "couplings.eval.ms_per_rhs": _per(1e3 * s.dur[coupling].sum(), n_rhs),
        "couplings.eval_h_inverse.ms": s.median_ms("mkg.couplings.eval_h_inverse"),
        "couplings.matrix_bytes_per_rhs": _per(float(s.nbytes[coupling].sum()), n_rhs),
        "lattice.stencil.self_ms_per_step": _per(1e3 * s.self_time[s.idx(*STENCILS)].sum(), steps),
        "lattice.central_diff.calls_per_step": _per(s.count("mkg.lattice.central_diff"), steps),
        "lattice.norms.ms": s.median_ms("mkg.lattice.norms"),
        "lattice.write_snapshot.ms": s.median_ms("mkg.lattice.write_snapshot"),
        "lattice.snapshot_bytes": _median(s.nbytes[s.idx("mkg.lattice.write_snapshot")]),
        "kahler.radial.ms_per_rhs": _per(1e3 * s.dur[s.under(rhs, *KAHLER_RADIAL)].sum(), n_rhs),
        "potentials.ms_per_rhs": _per(1e3 * s.dur[s.under(rhs, *POTENTIAL_EVALS)].sum(), n_rhs),
        "diagnostics.collect.ms_p50": collect_p50,
        "diagnostics.collect_over_rhs": _per(collect_p50, rhs_p50),
        "diagnostics.sobolev_energies.ms": s.median_ms("mkg.diagnostics.sobolev_energies"),
        "dynamics.gauss_residual.ms": s.median_ms("mkg.dynamics.gauss_residual"),
        "diagnostics.energy_E0.ms": s.median_ms("mkg.diagnostics.energy_E0"),
        "diagnostics.bianchi_residual.ms": s.median_ms("mkg.diagnostics.bianchi_residual"),
        "bounds.audit_gronwall.us_per_record":
            _per(1e6 * s.dur[s.idx("mkg.bounds.audit_gronwall")].sum(), records),
        "bounds.eval_monomial.calls_per_record": _per(s.count("mkg.bounds.eval_monomial"), records),
        "run.trace_row.us": 1e3 * s.median_ms("mkg.run.trace_row"),
        "run.parse_trace.us_per_record":
            _per(1e6 * s.dur[s.idx("mkg.run.parse_trace")].sum(), records),
        "run.svg_line_plot.ms": s.median_ms("mkg.run.svg_line_plot"),
        "run.self_s": float(s.self_time[s.idx(*run_defs)].sum()),
        "config.load_config.ms": s.median_ms("mkg.config.load_config"),
        "scenarios.build.ms": s.median_ms("mkg.scenarios.build"),
        "scenarios.build.calls_per_run": float(s.count("mkg.scenarios.build")),
    }


def top_level_seconds(spans: dict) -> float:
    roots = spans["parent"] < 0
    return float((spans["end"][roots] - spans["start"][roots]).sum())


def called_boundaries(spans: dict, call_names: list[str]) -> set[str]:
    return {call_names[i] for i in np.unique(spans["name"])}
