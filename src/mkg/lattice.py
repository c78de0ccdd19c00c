"""Periodic lattice geometry, field storage, stencils, and snapshot IO.

Fields live on a uniform periodic box. Storage is structure-of-arrays:
A and E are real arrays of shape [N_V, 3, nx, ny, nz], phi and pi are
complex arrays of shape [N_C, nx, ny, nz]. Axes of size 1 make the box
effectively lower dimensional (their derivatives vanish identically).

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


def central_diff(f: np.ndarray, axis: int, dx: float, order: int = 2) -> np.ndarray:
    """Periodic central difference along a spatial axis (counted from the end).

    axis is 0, 1 or 2 for x, y, z; the grid axes are assumed to be the last
    three of f. A size-1 axis yields an identically zero derivative.
    """
    ax = f.ndim - 3 + axis
    if f.shape[ax] == 1:
        return np.zeros_like(f)
    if order == 2:
        return (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2.0 * dx)
    if order == 4:
        return (8.0 * (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax))
                - (np.roll(f, -2, axis=ax) - np.roll(f, 2, axis=ax))) / (12.0 * dx)
    raise ValidationError(f"unsupported stencil order {order}")


def gradient(f: np.ndarray, dx: float, order: int = 2) -> np.ndarray:
    """Stack of the three spatial central differences, new axis first
    after any leading field axes: shape f.shape[:-3] + (3,) + grid."""
    parts = [central_diff(f, i, dx, order) for i in range(3)]
    return np.stack(parts, axis=f.ndim - 3)


def curl(v: np.ndarray, dx: float, order: int = 2) -> np.ndarray:
    """Curl of a vector field with component axis third from the end."""
    d = lambda comp, axis: central_diff(v[..., comp, :, :, :], axis, dx, order)
    cx = d(2, 1) - d(1, 2)
    cy = d(0, 2) - d(2, 0)
    cz = d(1, 0) - d(0, 1)
    return np.stack([cx, cy, cz], axis=v.ndim - 4)


def divergence(v: np.ndarray, dx: float, order: int = 2) -> np.ndarray:
    return sum(central_diff(v[..., i, :, :, :], i, dx, order) for i in range(3))


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


def _pack_real(arr: np.ndarray) -> bytes:
    """Grid arrays are stored x-fastest: transpose the trailing grid axes
    to (z, y, x) order before serializing little-endian f64."""
    grid = arr.ndim
    perm = tuple(range(grid - 3)) + (grid - 1, grid - 2, grid - 3)
    return np.ascontiguousarray(arr.transpose(perm)).astype("<f8").tobytes()


def _unpack_real(buf: memoryview, offset: int, shape: tuple) -> tuple[np.ndarray, int]:
    count = int(np.prod(shape))
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    lead = shape[:-3]
    zyx = lead + (shape[-1], shape[-2], shape[-3])
    arr = arr.reshape(zyx)
    n = arr.ndim
    perm = tuple(range(n - 3)) + (n - 1, n - 2, n - 3)
    return arr.transpose(perm).astype(float), offset + 8 * count


def write_snapshot(path, state: FieldState, lattice: LatticeSpec) -> None:
    nv, nc = state.n_gauge, state.n_scalar
    nx, ny, nz = state.dims
    header = SNAPSHOT_MAGIC + struct.pack(
        "<IIIIIIdd", SNAPSHOT_VERSION, nx, ny, nz, nv, nc, lattice.dx, state.t)
    # complex fields as re,im interleaved f64, grid x-fastest
    phi_ri = np.stack([state.phi.real, state.phi.imag], axis=-1)
    pi_ri = np.stack([state.pi.real, state.pi.imag], axis=-1)

    def pack_complex(a):
        # a has trailing axes (nx, ny, nz, 2); reorder grid to z,y,x
        perm = tuple(range(a.ndim - 4)) + (a.ndim - 2, a.ndim - 3, a.ndim - 4, a.ndim - 1)
        return np.ascontiguousarray(a.transpose(perm)).astype("<f8").tobytes()

    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_pack_real(state.A))
        fh.write(_pack_real(state.E))
        fh.write(pack_complex(phi_ri))
        fh.write(pack_complex(pi_ri))


def read_snapshot(path) -> tuple[FieldState, LatticeSpec]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ParseError("not a field snapshot (bad magic)")
    version, nx, ny, nz, nv, nc, dx, t = struct.unpack_from("<IIIIIIdd", raw, 4)
    if version != SNAPSHOT_VERSION:
        raise ParseError(f"unsupported snapshot version {version}")
    buf = memoryview(raw)
    off = 4 + struct.calcsize("<IIIIIIdd")
    grid = (nx, ny, nz)
    A, off = _unpack_real(buf, off, (nv, 3) + grid)
    E, off = _unpack_real(buf, off, (nv, 3) + grid)

    def unpack_complex(offset, lead):
        count = int(np.prod(lead)) * nx * ny * nz * 2
        arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
        arr = arr.reshape(lead + (nz, ny, nx, 2))
        n = arr.ndim
        perm = tuple(range(n - 4)) + (n - 2, n - 3, n - 4, n - 1)
        arr = arr.transpose(perm)
        return (arr[..., 0] + 1j * arr[..., 1]).astype(complex), offset + 8 * count

    phi, off = unpack_complex(off, (nc,))
    pi, off = unpack_complex(off, (nc,))
    lattice = LatticeSpec((nx, ny, nz), dx)
    return FieldState(A=A, E=E, phi=phi, pi=pi, t=t), lattice
