"""Periodic lattice geometry, field storage, stencils, and snapshot IO.

Fields live on a uniform periodic box. Storage is structure-of-arrays:
A and E are real arrays of shape [N_V, 3, nx, ny, nz], phi and pi are
complex arrays of shape [N_C, nx, ny, nz]. Axes of size 1 make the box
effectively lower dimensional (their derivatives vanish identically).

Stencil contract. `central_diff`, `gradient`, `curl` and `divergence` are
periodic central differences of order 2 or 4 along the last three axes.
They do the same floating-point operations, in the same order, as the
textbook form built from `np.roll` and `np.stack` (the tests keep that form
as their reference and require equal bits), but they subtract basic slices
of the input into one preallocated output instead of copying shifted
arrays. A size-1 axis is never differenced: its derivative is an exact
zero, which `gradient` writes and `curl` and `divergence` skip.

Sign conventions, fixed once here and inherited everywhere:
    eta = diag(-1, 1, 1, 1)
    E^i = F^{0i}             =>  F_{0i} = -E_i
    H_i = (1/2) eps_{ijk} F_{jk}  =>  F_{ij} = eps_{ijk} H_k
    eps^{0123} = +1, hence the dual components
    Ft_{0i} = -H_i,  Ft_{ij} = -eps_{ijk} E_k
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
        if self.dx <= 0:
            raise ValidationError("lattice dx must be positive")

    @property
    def n_sites(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

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

    def copy(self) -> "FieldState":
        return FieldState(self.A.copy(), self.E.copy(),
                          self.phi.copy(), self.pi.copy(), self.t)

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


def _shift_diff(out: np.ndarray, f: np.ndarray, ax: int, k: int) -> None:
    """out[i] = f[i + k] - f[i - k] along axis ax, indices modulo its size.

    The axis splits at the wrap points of i + k and i - k into at most
    three runs on which both shifted indices are contiguous, so each run is
    one subtraction of basic slices.
    """
    n = f.shape[ax]
    cuts = sorted({0, k % n, -k % n, n})
    lead = (slice(None),) * ax
    for a, b in zip(cuts, cuts[1:]):
        hi, lo = (a + k) % n, (a - k) % n
        np.subtract(f[lead + (slice(hi, hi + b - a),)],
                    f[lead + (slice(lo, lo + b - a),)],
                    out=out[lead + (slice(a, b),)])


def _diff_into(out: np.ndarray, f: np.ndarray, ax: int, dx: float,
               order: int) -> None:
    """out = periodic central difference of f along axis ax (size > 1):
    (f[i+1] - f[i-1]) / (2 dx), or
    (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / (12 dx)."""
    if order == 2:
        _shift_diff(out, f, ax, 1)
        out /= 2.0 * dx
    elif order == 4:
        _shift_diff(out, f, ax, 1)
        out *= 8.0
        far = np.empty_like(out)
        _shift_diff(far, f, ax, 2)
        out -= far
        out /= 12.0 * dx
    else:
        raise ValidationError(f"unsupported stencil order {order}")


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


def magnetic_field(state: FieldState, lattice: LatticeSpec, order: int = 2) -> np.ndarray:
    """H^Lam_i = (curl A^Lam)_i, shape [N_V, 3, grid]."""
    return curl(state.A, lattice.dx, order)


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise-tree reduction: fold adjacent pairs until one
    value remains."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return 0.0
    while v.size > 1:
        if v.size % 2:
            v = np.concatenate([v, [0.0]])
        v = v[0::2] + v[1::2]
    return float(v[0])


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

    FIELDS = ("t", "linf_phi", "linf_dphi", "linf_Dphi", "linf_F",
              "linf_A", "linf_dPsi", "l2_E", "l2_H", "l2_Dphi",
              "l2_phi", "l2_V")

    def as_tuple(self):
        return tuple(getattr(self, name) for name in self.FIELDS)


# ---------------------------------------------------------------------------
# binary snapshot IO


_HEADER = "<IIIIIIdd"    # version, nx, ny, nz, N_V, N_C, dx, t
_HEADER_BYTES = len(SNAPSHOT_MAGIC) + struct.calcsize(_HEADER)


def _zyx(ndim: int) -> tuple:
    """The axis order that swaps the grid axes (x, y, z) in front of one
    trailing value axis to (z, y, x); it is its own inverse."""
    return tuple(range(ndim - 4)) + (ndim - 2, ndim - 3, ndim - 4, ndim - 1)


def _pack(arr: np.ndarray) -> bytes:
    """Little-endian f64 with the grid stored x-fastest; a complex array as
    interleaved re, im."""
    parts = (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)
    vals = np.stack(parts, axis=-1)
    return np.ascontiguousarray(vals.transpose(_zyx(vals.ndim)), "<f8").tobytes()


def _unpack(buf: bytes, offset: int, shape: tuple, k: int) -> tuple[np.ndarray, int]:
    """The array of `shape` that _pack stored at `offset`, k = 1 real or
    2 complex, and the offset after it."""
    count = int(np.prod(shape)) * k
    vals = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    vals = vals.reshape(shape[:-3] + shape[:-4:-1] + (k,))
    vals = np.array(vals.transpose(_zyx(vals.ndim)), dtype=float)   # a copy
    return (vals.view(complex) if k == 2 else vals)[..., 0], offset + 8 * count


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
    snapshot of this version or its length does not match its header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER_BYTES or raw[:4] != SNAPSHOT_MAGIC:
        raise ParseError("not a field snapshot (bad magic or short header)")
    version, nx, ny, nz, nv, nc, dx, t = struct.unpack_from(_HEADER, raw, 4)
    if version != SNAPSHOT_VERSION:
        raise ParseError(f"unsupported snapshot version {version}")
    grid = (nx, ny, nz)
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
