"""Periodic lattice geometry, field storage, stencils, and snapshot IO.

Fields live on a uniform periodic box. Storage is structure-of-arrays:
A and E are real arrays of shape [N_V, 3, nx, ny, nz], phi and pi are
complex arrays of shape [N_C, nx, ny, nz]. Axes of size 1 make the box
effectively lower dimensional (their derivatives vanish identically).

Stencil contract. `central_diff`, `gradient`, `curl` and `divergence` are
periodic central differences of order 2 or 4 along the last three axes.
They do the same floating-point operations, in the same order, as the
textbook form built from `np.roll` and `np.stack` with the difference
scaled by the reciprocal, times 1/(2 dx) or 1/(12 dx), and a complex field
taken as its real and imaginary parts (the tests keep that form as their
reference and require equal bits, signed zeros included). They subtract
basic slices of the input into one preallocated output instead of copying
shifted arrays, and scale on the output's real view, so no step is a
complex division or product. When 2 dx is a power of two (order 2 with
dx = 1/2^m), the reciprocal is exact and a real field's derivative has the
bits of the division (f[i+1] - f[i-1]) / (2 dx); any other step may move
the last bit. A size-1 axis is never differenced: its derivative is an
exact zero, which `gradient` writes and `curl` and `divergence` skip.

Sign conventions, fixed once here and inherited everywhere:
    eta = diag(-1, 1, 1, 1)
    E^i = F^{0i}             =>  F_{0i} = -E_i
    H_i = (1/2) eps_{ijk} F_{jk}  =>  F_{ij} = eps_{ijk} H_k
    eps^{0123} = +1, hence the dual components
    Ft_{0i} = -H_i,  Ft_{ij} = -eps_{ijk} E_k
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

SNAPSHOT_MAGIC = b"MKG1"
SNAPSHOT_VERSION = 1

@dataclass(frozen=True)
class LatticeSpec:
    """Uniform periodic box: site counts per axis and the common spacing."""

    dims: tuple[int, int, int]
    dx: float

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValidationError("lattice dims must be >= 1")
        if not (np.isfinite(self.dx) and self.dx > 0):
            raise ValidationError(f"lattice dx must be positive and finite, got {self.dx!r}")

    @property
    def cell_volume(self) -> float:
        return self.dx**3

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self.dx * np.arange(self.dims[axis])

    def meshgrid(self):
        xs = [self.axis_coordinates(i) for i in range(3)]
        return np.meshgrid(*xs, indexing="ij")


@dataclass
class FieldState:
    """Dynamical variables at one instant, temporal gauge (A_0 = 0)."""

    A: np.ndarray      # real [N_V, 3, nx, ny, nz]
    E: np.ndarray      # real [N_V, 3, nx, ny, nz]
    phi: np.ndarray    # complex [N_C, nx, ny, nz]
    pi: np.ndarray     # complex [N_C, nx, ny, nz]
    t: float = 0.0

    @property
    def n_gauge(self) -> int:
        return self.A.shape[0]

    @property
    def n_scalar(self) -> int:
        return self.phi.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(self.phi.shape[1:])

    def is_finite(self) -> bool:
        return (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.E))
                and np.all(np.isfinite(self.phi)) and np.all(np.isfinite(self.pi)))


def zero_state(lattice: LatticeSpec, n_gauge: int, n_scalar: int) -> FieldState:
    shape = lattice.dims
    return FieldState(
        A=np.zeros((n_gauge, 3) + shape),
        E=np.zeros((n_gauge, 3) + shape),
        phi=np.zeros((n_scalar,) + shape, dtype=complex),
        pi=np.zeros((n_scalar,) + shape, dtype=complex),
        t=0.0,
    )


class _ShiftPlan(NamedTuple):
    """How _shift_diff cuts one (shape, axis, k): the runs of the axis as
    (out, f[i + k], f[i - k]) index tuples, and, when the axis has an
    interior (n > 2k), the same subtraction over each grid block viewed
    flat: its shape, the grid axes of size > 1 with their element strides
    in a C-contiguous block, the interior as (out, f[i + k], f[i - k])
    slices of the flat view, and the wrap runs that it leaves."""

    runs: tuple
    flat_shape: tuple | None = None
    block_strides: tuple = ()
    interior: tuple = ()
    wraps: tuple = ()


@lru_cache(maxsize=256)
def _shift_plan(shape: tuple, ax: int, k: int) -> _ShiftPlan:
    """The _ShiftPlan of one (shape, axis, k), built on first use."""
    n = shape[ax]
    cuts = sorted({0, k % n, -k % n, n})
    lead = (slice(None),) * ax
    runs = tuple((lead + (slice(a, b),),
                  lead + (slice((a + k) % n, (a + k) % n + b - a),),
                  lead + (slice((a - k) % n, (a - k) % n + b - a),))
                 for a, b in zip(cuts, cuts[1:]))
    if n <= 2 * k:
        return _ShiftPlan(runs)
    grid = shape[-3:]
    size = math.prod(grid)
    step = k * math.prod(shape[ax + 1:])     # k sites along ax, flat
    strides = (grid[1] * grid[2], grid[2], 1)
    return _ShiftPlan(
        runs, shape[:-3] + (size,),
        tuple((j, e) for j, d, e in zip((-3, -2, -1), grid, strides) if d > 1),
        ((..., slice(step, size - step)), (..., slice(2 * step, size)),
         (..., slice(0, size - 2 * step))),
        (runs[0], runs[2]))       # runs[1] is the interior [k, n - k)


def _block_contiguous(a: np.ndarray, block_strides: tuple) -> bool:
    """Whether each grid block of a is C-contiguous, read from the strides
    of its axes of size > 1."""
    s, size = a.strides, a.itemsize
    return all(s[j] == e * size for j, e in block_strides)


def _shift_diff(out: np.ndarray, f: np.ndarray, ax: int, k: int) -> None:
    """out[i] = f[i + k] - f[i - k] along axis ax, indices modulo its size.

    The axis splits at the wrap points of i + k and i - k into at most
    three runs on which both shifted indices are contiguous, so each run is
    one subtraction of basic slices. When the axis has an interior run and
    the grid blocks of f and out are contiguous, the interior is one
    subtraction over the blocks viewed flat, f shifted by k steps of the
    axis; the sites where that shift crosses a block row are the wrap
    runs', which are written after it. Either way each element of out ends
    as the one subtraction f[i + k] - f[i - k], written in place, never
    into a copy.
    """
    plan = _shift_plan(f.shape, ax, k)
    runs = plan.runs
    if (plan.flat_shape is not None
            and _block_contiguous(f, plan.block_strides)
            and _block_contiguous(out, plan.block_strides)):
        at, hi, lo = plan.interior
        flat = f.reshape(plan.flat_shape)
        np.subtract(flat[hi], flat[lo], out=out.reshape(plan.flat_shape)[at])
        runs = plan.wraps
    for at, hi, lo in runs:
        np.subtract(f[hi], f[lo], out=out[at])


def _diff_into(out: np.ndarray, f: np.ndarray, ax: int, dx: float,
               order: int) -> None:
    """out = periodic central difference of f along axis ax (size > 1):
    (f[i+1] - f[i-1]) * (1 / (2 dx)), or
    (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) * (1 / (12 dx)).

    Every step after the differences is taken on the real view of out
    (a complex out needs a contiguous last axis, as every caller
    allocates it), so a complex field is scaled exactly as its real and
    imaginary parts would be. With 2 dx a power of two, order 2 gives the bits of dividing
    by 2 dx; otherwise the reciprocal may move the last bit."""
    if order not in (2, 4):
        raise ValidationError(f"unsupported stencil order {order}")
    _shift_diff(out, f, ax, 1)
    re = out.view(out.real.dtype)
    if order == 2:
        re *= 1.0 / (2.0 * dx)
        return
    re *= 8.0
    far = np.empty_like(out)
    _shift_diff(far, f, ax, 2)
    re -= far.view(re.dtype)
    re *= 1.0 / (12.0 * dx)


def central_diff(f: np.ndarray, axis: int, dx: float, order: int = 2) -> np.ndarray:
    """Periodic central difference along a spatial axis (counted from the end).

    axis is 0, 1 or 2 for x, y, z; the grid axes are assumed to be the last
    three of f. A size-1 axis yields an identically zero derivative.
    """
    ax = f.ndim - 3 + axis
    if f.shape[ax] == 1:
        return np.zeros_like(f)
    out = np.empty(f.shape, np.result_type(f, 1.0))
    _diff_into(out, f, ax, dx, order)
    return out


def gradient(f: np.ndarray, dx: float, order: int = 2) -> np.ndarray:
    """The three spatial central differences, new axis first after any
    leading field axes: shape f.shape[:-3] + (3,) + grid."""
    lead = f.ndim - 3
    out = np.empty(f.shape[:lead] + (3,) + f.shape[lead:], np.result_type(f, 1.0))
    for i in range(3):
        part = out[..., i, :, :, :]
        if f.shape[lead + i] == 1:
            part[...] = 0
        else:
            _diff_into(part, f, lead + i, dx, order)
    return out


# (c, a, b): component c of the curl is d_a v_b - d_b v_a
_CURL_TERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def curl(v: np.ndarray, dx: float, order: int = 2) -> np.ndarray:
    """Curl of a vector field with component axis fourth from the end.

    Each component starts from the d_a v_b term, or from zero when axis a
    has size 1, and subtracts d_b v_a unless axis b has size 1: the same
    values, signed zeros included, as subtracting the zero derivatives."""
    lead = v.ndim - 4
    out = np.empty(v.shape, np.result_type(v, 1.0))
    term = np.empty_like(out[..., 0, :, :, :])
    for c, a, b in _CURL_TERMS:
        part = out[..., c, :, :, :]
        if v.shape[lead + 1 + a] == 1:
            part[...] = 0
        else:
            _diff_into(part, v[..., b, :, :, :], lead + a, dx, order)
        if v.shape[lead + 1 + b] > 1:
            _diff_into(term, v[..., a, :, :, :], lead + b, dx, order)
            part -= term
    return out


def divergence(v: np.ndarray, dx: float, order: int = 2) -> np.ndarray:
    """Sum over i of d_i v_i (component axis fourth from the end), over the
    axes of size > 1, accumulated from zero."""
    lead = v.ndim - 4
    out = np.zeros(v.shape[:lead] + v.shape[lead + 1:], np.result_type(v, 1.0))
    term = np.empty_like(out)
    for i in range(3):
        if v.shape[lead + 1 + i] > 1:
            _diff_into(term, v[..., i, :, :, :], lead + i, dx, order)
            out += term
    return out


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


# ---------------------------------------------------------------------------
# binary snapshot IO


_HEADER = "<IIIIIIdd"    # version, nx, ny, nz, N_V, N_C, dx, t
_HEADER_BYTES = len(SNAPSHOT_MAGIC) + struct.calcsize(_HEADER)


def _zyx(ndim: int) -> tuple:
    """The axis order that reverses the three trailing grid axes (x, y, z)
    to (z, y, x); it is its own inverse."""
    return tuple(range(ndim - 3)) + (ndim - 1, ndim - 2, ndim - 3)


def _pack(arr: np.ndarray) -> np.ndarray:
    """The array as stored, in one copy: little-endian f64 with the grid
    stored x-fastest, a complex array as interleaved re, im, which are the
    bytes of little-endian complex128.  A file's write takes it as a
    buffer."""
    return np.ascontiguousarray(arr.transpose(_zyx(arr.ndim)),
                                "<c16" if np.iscomplexobj(arr) else "<f8")


def _unpack(buf: bytes, offset: int, shape: tuple, k: int) -> tuple[np.ndarray, int]:
    """The array of `shape` that _pack stored at `offset`, k = 1 real or
    2 complex, and the offset after it."""
    count = int(np.prod(shape))
    vals = np.frombuffer(buf, "<c16" if k == 2 else "<f8", count, offset)
    vals = vals.reshape(shape[:-3] + shape[:-4:-1]).transpose(_zyx(len(shape)))
    # always one copy: a view of buf would be read-only and unaligned
    return (np.array(vals, complex if k == 2 else float, order="C"),
            offset + 8 * k * count)


def write_snapshot(path, state: FieldState, lattice: LatticeSpec) -> None:
    nx, ny, nz = state.dims
    header = SNAPSHOT_MAGIC + struct.pack(
        _HEADER, SNAPSHOT_VERSION, nx, ny, nz, state.n_gauge, state.n_scalar,
        lattice.dx, state.t)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (state.A, state.E, state.phi, state.pi):
            fh.write(_pack(arr))


def read_snapshot(path) -> tuple[FieldState, LatticeSpec]:
    """The state and lattice of a snapshot file; ParseError if it is not a
    snapshot of this version, its header has a dim < 1, a dx that is not
    positive and finite or a t that is not finite, or its length does not
    match its header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER_BYTES or raw[:4] != SNAPSHOT_MAGIC:
        raise ParseError("not a field snapshot (bad magic or short header)")
    version, nx, ny, nz, nv, nc, dx, t = struct.unpack_from(_HEADER, raw, 4)
    if version != SNAPSHOT_VERSION:
        raise ParseError(f"unsupported snapshot version {version}")
    grid = (nx, ny, nz)
    if min(grid) < 1 or not (np.isfinite(dx) and dx > 0) or not np.isfinite(t):
        raise ParseError(f"snapshot header has dims {grid}, dx = {dx!r}, "
                         f"t = {t!r}: dims must be >= 1, dx positive and "
                         f"finite, t finite")
    size = _HEADER_BYTES + 8 * 2 * (3 * nv + 2 * nc) * nx * ny * nz
    if len(raw) != size:
        raise ParseError(f"snapshot has {len(raw)} bytes, its header "
                         f"({nv} gauge, {nc} scalar fields on {grid}) needs {size}")
    off = _HEADER_BYTES
    A, off = _unpack(raw, off, (nv, 3) + grid, 1)
    E, off = _unpack(raw, off, (nv, 3) + grid, 1)
    phi, off = _unpack(raw, off, (nc,) + grid, 2)
    pi, off = _unpack(raw, off, (nc,) + grid, 2)
    return FieldState(A=A, E=E, phi=phi, pi=pi, t=t), LatticeSpec(grid, dx)
