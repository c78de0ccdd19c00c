"""Grid geometry, stencils, covariant derivatives, norms, snapshots."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from model_helpers import copy_state
from mkg.couplings import constant_couplings
from mkg.diagnostics import norms
from mkg.dynamics import Kinematics, ModelSpec
from mkg.errors import ParseError, ValidationError
from mkg.kahler import KahlerFamily
from mkg.lattice import (LatticeSpec, _diff_into, _pack, central_diff, curl,
                         divergence, gradient, read_snapshot, write_snapshot,
                         zero_state)
from mkg.potentials import polynomial


def free_model(n_gauge=1, n_scalar=1, charges=None):
    return ModelSpec(charges=np.zeros(n_gauge) if charges is None else charges,
                     couplings=constant_couplings(n_gauge),
                     kahler=KahlerFamily(), potential=polynomial(0.0),
                     n_gauge=n_gauge, n_scalar=n_scalar)


def random_state(lattice, n_gauge=1, n_scalar=1, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    st = zero_state(lattice, n_gauge, n_scalar)
    st.A[:] = scale * rng.standard_normal(st.A.shape)
    st.E[:] = scale * rng.standard_normal(st.E.shape)
    st.phi[:] = scale * (rng.standard_normal(st.phi.shape)
                         + 1j * rng.standard_normal(st.phi.shape))
    st.pi[:] = scale * (rng.standard_normal(st.pi.shape)
                        + 1j * rng.standard_normal(st.pi.shape))
    return st


def test_lattice_spec_basics():
    lat = LatticeSpec((8, 4, 2), 0.25)
    assert math.prod(lat.dims) == 64
    assert lat.cell_volume == pytest.approx(0.25**3)
    x = lat.axis_coordinates(0)
    assert x.shape == (8,)
    assert x[1] - x[0] == pytest.approx(0.25)


def test_central_diff_exact_on_modes():
    lat = LatticeSpec((64, 1, 1), 1.0 / 64)
    x = lat.axis_coordinates(0)[:, None, None]
    k = 2 * np.pi
    f = np.sin(k * x) * np.ones(lat.dims)
    d2 = central_diff(f, 0, lat.dx, order=2)
    d4 = central_diff(f, 0, lat.dx, order=4)
    exact = k * np.cos(k * x) * np.ones(lat.dims)
    err2 = np.max(np.abs(d2 - exact))
    err4 = np.max(np.abs(d4 - exact))
    assert err2 < 2e-2
    assert err4 < 2e-4
    assert err4 < err2 / 10


def test_central_diff_size_one_axis_is_zero():
    f = np.ones((4, 1, 1))
    assert np.all(central_diff(f, 1, 0.1) == 0.0)


# Reference stencils: shifted copies by np.roll, components joined by np.stack,
# each difference scaled by the reciprocal of its denominator and a complex
# field differenced as its real and imaginary parts.


def roll_central_diff(f, axis, dx, order):
    if np.iscomplexobj(f):
        out = np.empty(f.shape, complex)
        out.real = roll_central_diff(f.real, axis, dx, order)
        out.imag = roll_central_diff(f.imag, axis, dx, order)
        return out
    ax = f.ndim - 3 + axis
    if f.shape[ax] == 1:
        return np.zeros_like(f)
    if order == 2:
        return ((np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax))
                * (1.0 / (2.0 * dx)))
    return ((8.0 * (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax))
             - (np.roll(f, -2, axis=ax) - np.roll(f, 2, axis=ax)))
            * (1.0 / (12.0 * dx)))


def divided_central_diff(f, axis, dx, order):
    """The order-2 difference divided by 2 dx, as the stencils took it
    before they multiplied by the reciprocal."""
    assert order == 2 and not np.iscomplexobj(f)
    ax = f.ndim - 3 + axis
    if f.shape[ax] == 1:
        return np.zeros_like(f)
    return (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2.0 * dx)


def roll_gradient(f, dx, order, diff=roll_central_diff):
    parts = [diff(f, i, dx, order) for i in range(3)]
    return np.stack(parts, axis=f.ndim - 3)


def roll_curl(v, dx, order, diff=roll_central_diff):
    d = lambda comp, axis: diff(v[..., comp, :, :, :], axis, dx, order)
    return np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)],
                    axis=v.ndim - 4)


def roll_divergence(v, dx, order, diff=roll_central_diff):
    return sum(diff(v[..., i, :, :, :], i, dx, order) for i in range(3))


def _same_bits(got, want):
    assert isinstance(got, np.ndarray)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _field(rng, shape, complex_data):
    """Normal draws at a random scale, with +0.0 and -0.0 sprinkled in so
    that signed zeros reach every subtraction."""
    f = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5)
    if complex_data:
        f = f + 1j * rng.standard_normal(shape)
    flat = f.reshape(-1)
    flat[rng.random(flat.size) < 0.15] = 0.0
    flat[rng.random(flat.size) < 0.15] = -0.0
    return f


def _laid_out(rng, shape, complex_data, layout):
    """A _field of `shape` stored C-contiguous ("c"), with its grid axes
    transposed in memory as the rotation probe of the benchmark stores
    them ("transposed"), or as a view that reverses the last axis
    ("reversed"); in the last two the grid blocks are not contiguous."""
    lead, grid = shape[:-3], shape[-3:]
    if layout == "transposed":
        f = _field(rng, lead + (grid[1], grid[2], grid[0]), complex_data)
        n = len(lead)
        return np.transpose(f, tuple(range(n)) + (n + 2, n, n + 1))
    f = _field(rng, shape, complex_data)
    return f[..., ::-1] if layout == "reversed" else f


AXIS_SIZES = st.sampled_from((1, 2, 3, 4, 5, 8))


@settings(max_examples=150, deadline=None)
@given(dims=st.tuples(AXIS_SIZES, AXIS_SIZES, AXIS_SIZES),
       lead=st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple),
       order=st.sampled_from((2, 4)), complex_data=st.booleans(),
       dx=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(("c", "transposed", "reversed")))
def test_stencils_match_roll_reference(dims, lead, order, complex_data, dx,
                                       seed, layout):
    """The slicing stencils give the roll/stack form's bits, signed zeros
    included, on every axis size, wrap-around (n <= 2k) and size 1 alike,
    on contiguous inputs and on the layouts that take the per-run path."""
    rng = np.random.default_rng(seed)
    f = _laid_out(rng, lead + dims, complex_data, layout)
    v = _laid_out(rng, lead + (3,) + dims, complex_data, layout)
    for axis in range(3):
        _same_bits(central_diff(f, axis, dx, order),
                   roll_central_diff(f, axis, dx, order))
    _same_bits(gradient(f, dx, order), roll_gradient(f, dx, order))
    _same_bits(curl(v, dx, order), roll_curl(v, dx, order))
    _same_bits(divergence(v, dx, order), roll_divergence(v, dx, order))


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(AXIS_SIZES, AXIS_SIZES, AXIS_SIZES),
       lead=st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple),
       m=st.integers(-4, 30), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(("c", "transposed", "reversed")))
def test_power_of_two_step_gives_the_division_bits(dims, lead, m, seed, layout):
    """With dx = 2^-m the order-2 stencils of a real field have the bits of
    the difference divided by 2 dx, so runs on such a grid keep their
    traces."""
    rng = np.random.default_rng(seed)
    f = _laid_out(rng, lead + dims, False, layout)
    v = _laid_out(rng, lead + (3,) + dims, False, layout)
    dx = 2.0 ** -m
    old = divided_central_diff
    for axis in range(3):
        _same_bits(central_diff(f, axis, dx), old(f, axis, dx, 2))
    _same_bits(gradient(f, dx), roll_gradient(f, dx, 2, diff=old))
    _same_bits(curl(v, dx), roll_curl(v, dx, 2, diff=old))
    _same_bits(divergence(v, dx), roll_divergence(v, dx, 2, diff=old))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_diff_into_writes_a_strided_output_in_place(order, axis):
    """An output whose grid blocks are not contiguous is written in place,
    through the per-run path, with the reference's bits."""
    rng = np.random.default_rng(7)
    f = _field(rng, (2, 5, 6, 7), False)
    buf = np.full((2, 7, 5, 6), np.nan)
    out = np.transpose(buf, (0, 2, 3, 1))
    _diff_into(out, f, 1 + axis, 0.3, order)
    _same_bits(np.ascontiguousarray(out), roll_central_diff(f, axis, 0.3, order))
    assert not np.isnan(buf).any()


@pytest.mark.parametrize("order", [2, 4])
def test_single_site_box_stencils_are_zero_arrays(order):
    v = np.random.default_rng(3).standard_normal((2, 3, 1, 1, 1))
    for got, shape in ((divergence(v, 0.1, order), (2, 1, 1, 1)),
                       (curl(v, 0.1, order), (2, 3, 1, 1, 1)),
                       (gradient(v[:, 0], 0.1, order), (2, 3, 1, 1, 1))):
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert got.dtype == np.float64 and not np.any(got)


def test_div_curl_identity():
    lat = LatticeSpec((8, 8, 8), 0.3)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((3,) + lat.dims)
    c = curl(v, lat.dx, order=2)
    d = divergence(c, lat.dx, order=2)
    assert np.max(np.abs(d)) < 1e-13


def test_covariant_derivative_free_limit():
    lat = LatticeSpec((32, 1, 1), 1.0 / 32)
    model = free_model()
    st = random_state(lat, seed=4)
    D = Kinematics.of(st, lat, model).Dphi
    grad = np.stack([central_diff(st.phi[0], ax, lat.dx, 2) for ax in range(3)])
    assert D[0] == pytest.approx(grad)


def test_covariant_derivative_charged():
    lat = LatticeSpec((32, 1, 1), 1.0 / 32)
    model = free_model(charges=np.array([1.5]))
    st = random_state(lat, seed=5)
    D = Kinematics.of(st, lat, model).Dphi
    grad = np.stack([central_diff(st.phi[0], ax, lat.dx, 2) for ax in range(3)])
    expect = grad - 1j * 1.5 * st.A[0] * st.phi[0]
    assert D[0] == pytest.approx(expect)


def test_norm_scaling_with_amplitude():
    lat = LatticeSpec((32, 1, 1), 1.0 / 32)
    model = free_model()
    st = random_state(lat, seed=7)
    st2 = copy_state(st)
    st2.A *= 2.0
    st2.E *= 2.0
    st2.phi *= 2.0
    st2.pi *= 2.0
    n1 = norms(Kinematics.of(st, lat, model))
    n2 = norms(Kinematics.of(st2, lat, model))
    assert n2.linf_phi == pytest.approx(2 * n1.linf_phi)
    assert n2.l2_E == pytest.approx(2 * n1.l2_E)
    assert n2.l2_phi == pytest.approx(2 * n1.l2_phi)


def test_l2_norm_value():
    # constant field: l2 = |phi| * sqrt(volume)
    lat = LatticeSpec((16, 16, 1), 0.5)
    model = free_model()
    st = zero_state(lat, 1, 1)
    st.phi[0] = 0.7 + 0.0j
    n = norms(Kinematics.of(st, lat, model))
    vol = math.prod(lat.dims) * lat.cell_volume
    assert n.l2_phi == pytest.approx(0.7 * np.sqrt(vol))
    assert n.linf_phi == pytest.approx(0.7)


def test_snapshot_roundtrip_bit_exact(tmp_path):
    lat = LatticeSpec((8, 4, 2), 0.125)
    st = random_state(lat, n_gauge=2, n_scalar=3, seed=8)
    st.t = 1.25
    path = str(tmp_path / "state.mkg")
    write_snapshot(path, st, lat)
    st2, lat2 = read_snapshot(path)
    assert lat2.dims == lat.dims
    assert lat2.dx == lat.dx
    assert st2.t == st.t
    assert np.array_equal(st2.A, st.A)
    assert np.array_equal(st2.E, st.E)
    assert np.array_equal(st2.phi, st.phi)
    assert np.array_equal(st2.pi, st.pi)


def test_snapshot_roundtrip_signed_zero_and_inf(tmp_path):
    """Complex fields are read back from their stored re, im pairs as they
    are, a -0.0 real part and an infinite imaginary part included."""
    lat = LatticeSpec((2, 1, 1), 0.5)
    st = zero_state(lat, 1, 1)
    st.phi[0, 0, 0, 0] = complex(-0.0, 1.0)
    st.pi[0, 0, 0, 0] = complex(1.0, np.inf)
    path = str(tmp_path / "state.mkg")
    write_snapshot(path, st, lat)
    st2, _ = read_snapshot(path)
    for a, b in ((st2.phi, st.phi), (st2.pi, st.pi)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", [(16, 1, 1), (1, 1, 1), (1, 5, 1), (3, 2, 2)])
def test_snapshot_fields_load_as_own_writeable_arrays(tmp_path, dims):
    """Each loaded field is an aligned, writeable C array of its own, also
    where the stored order already is the field's (one axis longer than 1)."""
    lat = LatticeSpec(dims, 0.5)
    path = str(tmp_path / "state.mkg")
    write_snapshot(path, random_state(lat, n_gauge=2, n_scalar=1, seed=3), lat)
    st, _ = read_snapshot(path)
    fields = (st.A, st.E, st.phi, st.pi)
    for i, f in enumerate(fields):
        assert f.flags.writeable and f.flags.aligned and f.flags.c_contiguous
        assert f.flags.owndata
        f += 1.0
        for g in fields[i + 1:]:
            assert not np.shares_memory(f, g)


def reference_pack(arr):
    """The snapshot packing of the earlier code, three copies deep, kept as
    the byte reference: re, im stacked on a trailing axis, the grid axes
    swapped to (z, y, x), then tobytes."""
    vals = np.stack((arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,),
                    axis=-1)
    n = vals.ndim
    order = tuple(range(n - 4)) + (n - 2, n - 3, n - 4, n - 1)
    return np.ascontiguousarray(vals.transpose(order), "<f8").tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 4, 3, 2), (1, 3, 1, 1, 5),
                                   (3, 1, 6, 1), (2, 2, 2, 7)])
def test_pack_matches_reference_bytes(shape):
    """One copy per field gives the bytes of the reference packing, for real
    and complex arrays holding -0, +-inf and nan."""
    rng = np.random.default_rng(len(shape))
    special = [-0.0, np.inf, -np.inf, np.nan]
    real = rng.standard_normal(shape)
    real.flat[:4] = special
    cplx = np.empty(shape, complex)
    cplx.real = rng.standard_normal(shape)
    cplx.imag = rng.standard_normal(shape)
    cplx.real.flat[:4] = special
    cplx.imag.flat[-4:] = special
    for arr in (real, cplx):
        assert _pack(arr).tobytes() == reference_pack(arr)


def test_snapshot_magic(tmp_path):
    lat = LatticeSpec((4, 1, 1), 0.25)
    st = zero_state(lat, 1, 1)
    path = str(tmp_path / "state.mkg")
    write_snapshot(path, st, lat)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"MKG1"


@pytest.mark.parametrize("cut", ["truncated", "header_only", "20_bytes",
                                 "over_long"])
def test_malformed_snapshot_is_parse_error(tmp_path, cut):
    """A file whose length is not the header size plus the fields its
    header declares is rejected as a ParseError, not read in part."""
    lat = LatticeSpec((4, 3, 2), 0.25)
    path = tmp_path / "state.mkg"
    write_snapshot(str(path), random_state(lat, n_gauge=2, n_scalar=3, seed=9),
                   lat)
    raw = path.read_bytes()
    assert len(raw) == 44 + 8 * 2 * (3 * 2 + 2 * 3) * 24
    path.write_bytes({"truncated": raw[:-8], "header_only": raw[:44],
                      "20_bytes": raw[:20], "over_long": raw + bytes(8)}[cut])
    with pytest.raises(ParseError):
        read_snapshot(str(path))


@pytest.mark.parametrize("dims, dx, t", [
    ((1, 1, 1), float("nan"), 0.0), ((1, 1, 1), float("inf"), 0.0),
    ((1, 1, 1), 0.0, 0.0), ((1, 1, 1), -0.5, 0.0),
    ((1, 1, 1), 0.5, float("nan")), ((1, 1, 1), 0.5, float("-inf")),
    ((0, 1, 1), 0.5, 0.0)])
def test_snapshot_header_out_of_range_is_parse_error(tmp_path, dims, dx, t):
    """A hand-built header with no fields (N_V = N_C = 0), so that its
    length matches, but a dim < 1, a dx that is not positive and finite or
    a t that is not finite, is rejected as a ParseError."""
    path = tmp_path / "state.mkg"
    path.write_bytes(b"MKG1" + struct.pack("<IIIIIIdd", 1, *dims, 0, 0, dx, t))
    with pytest.raises(ParseError):
        read_snapshot(str(path))


def test_snapshot_header_in_range_loads(tmp_path):
    path = tmp_path / "state.mkg"
    path.write_bytes(b"MKG1" + struct.pack("<IIIIIIdd", 1, 1, 1, 1, 0, 0, 0.5, 2.0))
    st, lat = read_snapshot(str(path))
    assert lat == LatticeSpec((1, 1, 1), 0.5) and st.t == 2.0


@pytest.mark.parametrize("dx", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_lattice_spec_rejects_bad_dx(dx):
    with pytest.raises(ValidationError):
        LatticeSpec((4, 1, 1), dx)


def test_is_finite_guard():
    lat = LatticeSpec((4, 1, 1), 0.25)
    st = zero_state(lat, 1, 1)
    assert st.is_finite()
    st.E[0, 0, 0, 0, 0] = np.nan
    assert not st.is_finite()
