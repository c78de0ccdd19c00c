"""The trace format that `mkg run` writes and `check-bounds` reads: the
records (a whole trace is one DiagnosticsRecord of column arrays, whose one
t is its NormSnapshot's), the CSV columns, and the trace and run.json IO.
It imports no lattice or evolver."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from . import bounds
from .errors import ParseError
from .potentials import PotentialKind


@dataclass(frozen=True)
class NormSnapshot:
    """Every norm the estimate functionals consume, at one instant
    (computed by diagnostics.norms)."""

    t: float
    linf_phi: float
    linf_dphi: float
    linf_Dphi: float
    linf_F: float
    linf_A: float
    linf_dPsi: float
    l2_E: float
    l2_H: float
    l2_Dphi: float
    l2_phi: float
    l2_V: float

    FIELDS: ClassVar[tuple[str, ...]]      # the field names, in order

    def as_tuple(self):
        return tuple(getattr(self, name) for name in self.FIELDS)


NormSnapshot.FIELDS = tuple(f.name for f in fields(NormSnapshot))


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One diagnostics row (computed by diagnostics.collect), or a whole
    trace's columns (stack_records, parse_trace)."""

    energy_E0: float
    flat_J: float
    sobolev_E0: float
    sobolev_E1: float
    gauss_res_l2: float
    gauss_res_linf: float
    bianchi_res_linf: float
    norm_snapshot: NormSnapshot

    @property
    def t(self):
        return self.norm_snapshot.t


# the trace columns of estimate functionals, by bounds.estimates key
_ESTIMATE_COLUMNS = {"L": "L", "M": "M", "N": "N", "S": "Sg", "X": "Xg",
                     "U": "Ug", "W": "Wg", "G": "G"}

CSV_COLUMNS = (("t", "E0", "J", "J_envelope", "E0_sf", "E1_sf", "gauss_l2",
                "gauss_linf", "bianchi_linf")
               + NormSnapshot.FIELDS[1:] + tuple(_ESTIMATE_COLUMNS))

# the trace columns stored from a DiagnosticsRecord field, by column name;
# the others are the NormSnapshot fields, t among them, under their own names
RECORD_COLUMNS = {"E0": "energy_E0", "J": "flat_J",
                  "E0_sf": "sobolev_E0", "E1_sf": "sobolev_E1",
                  "gauss_l2": "gauss_res_l2", "gauss_linf": "gauss_res_linf",
                  "bianchi_linf": "bianchi_res_linf"}


def _columnar(col: dict) -> DiagnosticsRecord:
    """The DiagnosticsRecord of the stored trace columns, by column name."""
    snap = NormSnapshot(**{name: col[name] for name in NormSnapshot.FIELDS})
    return DiagnosticsRecord(norm_snapshot=snap, **{
        field: col[name] for name, field in RECORD_COLUMNS.items()})


def stack_records(records) -> DiagnosticsRecord:
    """The columnar form of a list of records."""
    col = {name: np.array([getattr(r.norm_snapshot, name) for r in records])
           for name in NormSnapshot.FIELDS}
    col.update((name, np.array([getattr(r, field) for r in records]))
               for name, field in RECORD_COLUMNS.items())
    return _columnar(col)


def write_trace(path: str, trace: DiagnosticsRecord,
                constants: bounds.EstimateConstants):
    """Write a columnar trace (stack_records) as a trace CSV: the envelope
    J0(1+t) and the functionals L..G (_ESTIMATE_COLUMNS) come from one
    evaluation over the columns, every cell has 17 significant digits, and
    one that overflows reads inf or nan."""
    snap = trace.norm_snapshot
    col = {name: getattr(trace, field) for name, field in RECORD_COLUMNS.items()}
    col.update((name, getattr(snap, name)) for name in NormSnapshot.FIELDS)
    with np.errstate(over="ignore", invalid="ignore"):
        col["J_envelope"] = constants.J0 * (1.0 + trace.t)
        f = bounds.estimates(snap, constants)
        col.update((name, f[key]) for name, key in _ESTIMATE_COLUMNS.items())
    table = np.column_stack([col[name] for name in CSV_COLUMNS])
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",",
                   header=",".join(CSV_COLUMNS), comments="")


def parse_trace(path: str) -> DiagnosticsRecord:
    """Read a trace CSV into one columnar DiagnosticsRecord.  A file that
    cannot be read, a wrong header, a cell that is not a number
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
    return _columnar(dict(zip(CSV_COLUMNS, np.ascontiguousarray(data.T))))


# the estimate constants a run writes to run.json: every EstimateConstants field
_RUN_CONSTANTS = tuple(f.name for f in fields(bounds.EstimateConstants))


def write_run_json(path: str, constants: bounds.EstimateConstants):
    """The run's manifest: the resolved estimate constants, so that
    check-bounds audits the run's trace with the constants the run used."""
    raw = dict(asdict(constants), potential_kind=constants.potential_kind.value)
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
