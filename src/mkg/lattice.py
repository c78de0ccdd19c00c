"""Periodic lattice geometry, field storage, stencils and snapshot IO.
The diagnostics records and the trace format live in `mkg.trace`.

Fields live on a uniform periodic box. Storage is structure-of-arrays:
A and E are real arrays of shape [N_V, 3, nx, ny, nz], phi and pi are
complex arrays of shape [N_C, nx, ny, nz]. Axes of size 1 make the box
effectively lower dimensional (their derivatives vanish identically).

Stencil contract. `central_diff`, `gradient`, `curl` and `divergence` are
periodic central differences along the last three axes, at the dx and the
stencil order of the `LatticeSpec` they are given; the order, 2 or 4, is
checked once, when the lattice is built. They do the same floating-point
operations, in the same order, as the textbook form built from `np.roll`
and `np.stack` with the difference scaled by the reciprocal, times
1/(2 dx) or 1/(12 dx), and a complex field taken as its real and imaginary
parts (the tests keep that form as their reference and require equal
bits, signed zeros included). They subtract
basic slices of the input into one preallocated output instead of copying
shifted arrays, and scale on the output's real view, so no step is a
complex division or product. A difference f[i + k] - f[i - k] is cut at
the wrap points of i + k and i - k into at most three runs, one
subtraction each; when the axis has more than 2k sites and every grid
block of input and output is C-contiguous, the interior is instead one
subtraction over the blocks viewed flat, followed by the two wrap runs.
The cut depends only on the shapes, strides and item sizes of input and
output, the axis and k, so it is worked out once per such layout and
cached (`_subtractions`). When 2 dx is a power of two (order 2 with
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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParseError, ValidationError

SNAPSHOT_MAGIC = b"MKG1"
SNAPSHOT_VERSION = 1

# each stencil order's largest first-difference symbol times dx: max |sin t|
# = 1, and max (8 sin t - sin 2t) / 6, taken at cos t = 1 - sqrt(6) / 2
STENCIL_SYMBOL_MAX = {2: 1.0, 4: 1.3722219798033597}


@dataclass(frozen=True)
class LatticeSpec:
    """The discretisation: a uniform periodic box (site counts per axis and
    the common spacing) and the order, 2 or 4, of its central differences."""

    dims: tuple[int, int, int]
    dx: float
    stencil_order: int = 2

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValidationError("lattice dims must be >= 1")
        if not (np.isfinite(self.dx) and self.dx > 0):
            raise ValidationError(f"lattice dx must be positive and finite, got {self.dx!r}")
        if self.stencil_order not in STENCIL_SYMBOL_MAX:
            raise ValidationError(f"unsupported stencil order {self.stencil_order!r}")

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


@lru_cache(maxsize=256)
def _subtractions(shape: tuple, f_strides: tuple, f_itemsize: int,
                  out_strides: tuple, out_itemsize: int, ax: int,
                  k: int) -> tuple:
    """The subtractions, in order, that set out[i] = f[i + k] - f[i - k]
    along axis ax for one layout of f and out, as (flat, out index,
    f[i + k] index, f[i - k] index) with flat None for f and out as they
    are, or the shape they are viewed flat in.

    The axis splits at the wrap points of i + k and i - k into at most
    three runs on which both shifted indices are contiguous, each one
    subtraction of basic slices.  When the axis has an interior run
    (n > 2k) and every grid block of f and of out is C-contiguous, the
    interior is instead one subtraction over the blocks viewed flat, f
    shifted by k steps of the axis, and the two wrap runs follow it and
    overwrite the sites where that shift crossed a block row.  Either way
    each element of out ends as the one subtraction f[i + k] - f[i - k].
    The result is cached, so the cut and its contiguity test are worked out
    once per layout.
    """
    n = shape[ax]
    cuts = sorted({0, k % n, -k % n, n})
    lead = (slice(None),) * ax
    runs = tuple((None, lead + (slice(a, b),),
                  lead + (slice((a + k) % n, (a + k) % n + b - a),),
                  lead + (slice((a - k) % n, (a - k) % n + b - a),))
                 for a, b in zip(cuts, cuts[1:]))
    grid = shape[-3:]
    elems = (grid[1] * grid[2], grid[2], 1)     # element strides, C order
    contiguous = all(f_strides[j] == e * f_itemsize
                     and out_strides[j] == e * out_itemsize
                     for j, d, e in zip((-3, -2, -1), grid, elems) if d > 1)
    if n <= 2 * k or not contiguous:
        return runs
    size = math.prod(grid)
    step = k * math.prod(shape[ax + 1:])     # k sites along ax, flat
    interior = (shape[:-3] + (size,), (..., slice(step, size - step)),
                (..., slice(2 * step, size)), (..., slice(0, size - 2 * step)))
    return interior, runs[0], runs[2]        # runs[1] is [k, n - k)


def _shift_diff(out: np.ndarray, f: np.ndarray, ax: int, k: int) -> None:
    """out[i] = f[i + k] - f[i - k] along axis ax, indices modulo its size,
    written in place by the subtractions of f's and out's layout."""
    for flat, at, hi, lo in _subtractions(f.shape, f.strides, f.itemsize,
                                          out.strides, out.itemsize, ax, k):
        src, dst = (f, out) if flat is None else (f.reshape(flat), out.reshape(flat))
        np.subtract(src[hi], src[lo], out=dst[at])


def _diff_into(out: np.ndarray, f: np.ndarray, ax: int,
               lattice: LatticeSpec) -> None:
    """out = periodic central difference of f along axis ax (size > 1),
    at the lattice's dx and order: (f[i+1] - f[i-1]) * (1 / (2 dx)), or
    (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) * (1 / (12 dx)).

    Every step after the differences is taken on the real view of out
    (a complex out needs a contiguous last axis, as every caller
    allocates it), so a complex field is scaled exactly as its real and
    imaginary parts would be. With 2 dx a power of two, order 2 gives the
    bits of dividing by 2 dx; otherwise the reciprocal may move the last
    bit."""
    _shift_diff(out, f, ax, 1)
    re = out.view(out.real.dtype)
    if lattice.stencil_order == 2:
        re *= 1.0 / (2.0 * lattice.dx)
        return
    re *= 8.0
    far = np.empty_like(out)
    _shift_diff(far, f, ax, 2)
    re -= far.view(re.dtype)
    re *= 1.0 / (12.0 * lattice.dx)


def central_diff(f: np.ndarray, axis: int, lattice: LatticeSpec) -> np.ndarray:
    """Periodic central difference along a spatial axis (counted from the end).

    axis is 0, 1 or 2 for x, y, z; the grid axes are assumed to be the last
    three of f. A size-1 axis yields an identically zero derivative.
    """
    ax = f.ndim - 3 + axis
    if f.shape[ax] == 1:
        return np.zeros_like(f)
    out = np.empty(f.shape, np.result_type(f, 1.0))
    _diff_into(out, f, ax, lattice)
    return out


def gradient(f: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """The three spatial central differences, new axis first after any
    leading field axes: shape f.shape[:-3] + (3,) + grid."""
    lead = f.ndim - 3
    out = np.empty(f.shape[:lead] + (3,) + f.shape[lead:], np.result_type(f, 1.0))
    for i in range(3):
        part = out[..., i, :, :, :]
        if f.shape[lead + i] == 1:
            part[...] = 0
        else:
            _diff_into(part, f, lead + i, lattice)
    return out


# (c, a, b): component c of the curl is d_a v_b - d_b v_a
_CURL_TERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def curl(v: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
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
            _diff_into(part, v[..., b, :, :, :], lead + a, lattice)
        if v.shape[lead + 1 + b] > 1:
            _diff_into(term, v[..., a, :, :, :], lead + b, lattice)
            part -= term
    return out


def divergence(v: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """Sum over i of d_i v_i (component axis fourth from the end), over the
    axes of size > 1, accumulated from zero."""
    lead = v.ndim - 4
    out = np.zeros(v.shape[:lead] + v.shape[lead + 1:], np.result_type(v, 1.0))
    term = np.empty_like(out)
    for i in range(3):
        if v.shape[lead + 1 + i] > 1:
            _diff_into(term, v[..., i, :, :, :], lead + i, lattice)
            out += term
    return out


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
    match its header.  A snapshot records dims and dx but not the stencil
    order, so the lattice returned has the default order, 2."""
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
