"""Gauge coupling matrix families: symmetry, definiteness, derivatives, and
the affine contractions against per-site matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coupling_matrices import matrix_prime, matrix_value
from mkg.couplings import (_gauge_dot, constant_couplings, saturating_couplings,
                           site_dot)
from mkg.errors import IndefiniteCoupling


def demo_couplings():
    return saturating_couplings(
        2, h_base=[[2.0, 0.3], [0.3, 1.5]], h_mod=[[0.2, 0.1], [0.1, 0.3]],
        h_amplitude=0.5, k_base=[[0.1, 0.05], [0.05, -0.1]],
        k_mod=[[0.05, 0.0], [0.0, 0.05]], k_amplitude=0.3)


def h_only(h_base, h_mod, amp):
    n = len(h_base)
    z = np.zeros((n, n))
    return saturating_couplings(n, h_base=h_base, h_mod=h_mod, h_amplitude=amp,
                                k_base=z, k_mod=z, k_amplitude=0.0)


def test_constant_couplings_identity():
    fam = constant_couplings(3)
    psi = np.array([0.0, 1.0, 5.0])
    h = matrix_value(fam.h, psi)
    assert h == pytest.approx(np.broadcast_to(np.eye(3), (3, 3, 3))
                              .transpose(0, 1, 2))
    assert matrix_prime(fam.h, psi) == pytest.approx(np.zeros((3, 3, 3)))
    assert matrix_value(fam.k, psi) == pytest.approx(np.zeros((3, 3, 3)))


def test_saturating_values_and_symmetry():
    fam = demo_couplings()
    psi = np.linspace(0.0, 4.0, 7)
    h = matrix_value(fam.h, psi)
    k = matrix_value(fam.k, psi)
    assert h == pytest.approx(np.swapaxes(h, -1, -2))
    assert k == pytest.approx(np.swapaxes(k, -1, -2))
    # at psi = 0 the tanh modulation vanishes
    assert h[0] == pytest.approx(np.array([[2.0, 0.3], [0.3, 1.5]]))
    assert k[0] == pytest.approx(np.array([[0.1, 0.05], [0.05, -0.1]]))


def test_h_positive_definite_and_invertible():
    fam = demo_couplings()
    psi = np.linspace(0.0, 50.0, 21).reshape(21, 1, 1)
    h = matrix_value(fam.h, psi)
    eye = np.broadcast_to(np.eye(2)[:, :, None, None, None], (2, 2) + psi.shape)
    hinv_cols = fam.solve_h(eye, fam.h.s(np.tanh(psi)))   # column j: h^-1 e_j
    for i in range(psi.shape[0]):
        assert np.min(np.linalg.eigvalsh(h[i, 0, 0])) > 0
        assert h[i, 0, 0] @ hinv_cols[:, :, i, 0, 0] == pytest.approx(np.eye(2), abs=1e-12)


def test_prime_matches_finite_difference():
    fam = demo_couplings()
    psi = np.array([0.3, 1.7])
    d = 1e-6
    fd_h = (matrix_value(fam.h, psi + d) - matrix_value(fam.h, psi - d)) / (2 * d)
    fd_k = (matrix_value(fam.k, psi + d) - matrix_value(fam.k, psi - d)) / (2 * d)
    assert matrix_prime(fam.h, psi) == pytest.approx(fd_h, abs=1e-8)
    assert matrix_prime(fam.k, psi) == pytest.approx(fd_k, abs=1e-8)


def test_saturation_bounded():
    fam = demo_couplings()
    h_inf = matrix_value(fam.h, np.array([1e6]))[0]
    expect = np.array([[2.0, 0.3], [0.3, 1.5]]) \
        + 0.5 * np.array([[0.2, 0.1], [0.1, 0.3]])
    assert h_inf == pytest.approx(expect, abs=1e-9)


def test_indefinite_coupling_rejected():
    # h = 0.1 - tanh(psi) turns negative at psi = atanh(0.1)
    with pytest.raises(IndefiniteCoupling):
        saturating_couplings(
            1, h_base=[[0.1]], h_mod=[[1.0]], h_amplitude=-1.0,
            k_base=[[0.0]], k_mod=[[0.0]], k_amplitude=0.0)


def test_exact_certificate_accepts_definite_families():
    # lambda_min(h_base) = 1 < amp * ||h_mod|| = 5, yet the eigenvalues of
    # h(psi) are 1 + 0.5 s and 10 - 5 s, both >= 1 for s in [0, 1)
    fam = h_only(np.diag([1.0, 10.0]), np.diag([0.5, -5.0]), 1.0)
    psi = np.linspace(0.0, 30.0, 61)
    assert np.min(np.linalg.eigvalsh(matrix_value(fam.h, psi))) >= 1.0 - 1e-12
    # h = 0.1 + tanh(psi) >= 0.1 on psi >= 0
    h_only([[0.1]], [[1.0]], 1.0)


def test_negative_definite_base_rejected():
    with pytest.raises(IndefiniteCoupling, match="h_base"):
        h_only(np.diag([-1.0, -2.0]), np.zeros((2, 2)), 0.0)


@pytest.mark.parametrize("h_base, h_mod, amp", [
    (np.diag([1.0, 2.0]), np.diag([-1.0, 0.0]), 1.0),     # 1 - tanh -> 0
    ([[1.0]], [[0.5]], -2.0),                             # 1 - tanh -> 0
])
def test_singular_limit_rejected(h_base, h_mod, amp):
    """1 + amp * d_i = 0: h(psi) is definite at every finite psi but its
    smallest eigenvalue tends to 0, so no uniform bound holds."""
    with pytest.raises(IndefiniteCoupling):
        h_only(h_base, h_mod, amp)


def test_asymmetric_input_symmetrized():
    fam = saturating_couplings(
        2, h_base=[[2.0, 0.2], [0.4, 1.5]], h_mod=[[0.0, 0.0], [0.0, 0.0]],
        h_amplitude=0.0, k_base=[[0.0, 0.0], [0.0, 0.0]],
        k_mod=[[0.0, 0.0], [0.0, 0.0]], k_amplitude=0.0)
    h = matrix_value(fam.h, np.array([0.0]))[0]
    assert h == pytest.approx(np.array([[2.0, 0.3], [0.3, 1.5]]))


def _rel_close(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4),
       amp=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       psi_max=st.floats(0.0, 50.0),
       dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
       vector=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_affine_algebra_matches_per_site_matrices(n, amp, psi_max, dims, vector, seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, (n, n))
    base = np.eye(n) + 0.5 * b @ b.T
    mod = rng.uniform(-1.0, 1.0, (n, n))
    mod = mod + mod.T
    # keep amp * d_i inside (-0.9, 0.9), so h is definite and well conditioned
    d = np.linalg.eigvals(np.linalg.solve(base, mod)).real
    spread = abs(amp) * float(np.max(np.abs(d)))
    if spread > 0.9:
        mod *= 0.9 / spread
    fam = saturating_couplings(n, h_base=base, h_mod=mod, h_amplitude=amp,
                               k_base=mod, k_mod=base, k_amplitude=-amp)

    psi = rng.uniform(0.0, psi_max, dims)
    psi.flat[0] = 0.0
    psi.flat[-1] = psi_max
    shape = (n, 3) + dims if vector else (n,) + dims
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    spec = "abcls,siabc->liabc" if vector else "abcls,sabc->labc"

    tanh, cosh2 = np.tanh(psi), np.cosh(psi) ** 2
    for m in (fam.h, fam.k):
        value, prime = matrix_value(m, psi), matrix_prime(m, psi)
        _rel_close(m.apply(v, m.s(tanh)), np.einsum(spec, value, v))
        _rel_close(m.apply_mod(v, m.s_prime(cosh2)), np.einsum(spec, prime, v))
        pair = np.einsum(spec, value, v) * u
        _rel_close(site_dot(u, m.apply(v, m.s(tanh))),
                   np.sum(pair, axis=tuple(range(u.ndim - 3))))

    h = matrix_value(fam.h, psi)
    rhs = np.moveaxis(v, 0, -1)[..., None]      # ([3,] grid, n, 1)
    want = np.moveaxis(np.linalg.solve(h, rhs)[..., 0], -1, 0)
    _rel_close(fam.solve_h(v, fam.h.s(tanh)), want)


# Reference contractions: the np.tensordot forms the products replaced.


def tensordot_apply_mod(m, v, s):
    out = np.tensordot(m.mod, v, axes=(1, 0))
    out *= s
    return out


def tensordot_apply(m, v, s):
    out = np.tensordot(m.base, v, axes=(1, 0))
    out += tensordot_apply_mod(m, v, s)
    return out


def tensordot_solve_h(fam, v, s):
    d = fam._d.reshape((-1,) + (1,) * (v.ndim - 1))
    w = np.tensordot(fam._P, v, axes=(0, 0))
    w /= 1.0 + d * s
    return np.tensordot(fam._P, w, axes=(1, 0))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
       layout=st.sampled_from(("vector", "scalar", "component")),
       seed=st.integers(0, 2**32 - 1))
def test_gauge_products_match_tensordot(n, dims, layout, seed):
    """apply, apply_mod, solve_h and the charge contraction q.v give the
    tensordot forms' bits, on contiguous fields and on strided component
    views v[:, c], signed zeros included."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, (n, n))
    mod = rng.uniform(-1.0, 1.0, (n, n))
    mod = 0.2 * (mod + mod.T) / n
    fam = saturating_couplings(n, h_base=np.eye(n) + 0.5 * b @ b.T, h_mod=mod,
                               h_amplitude=0.5, k_base=mod, k_mod=b + b.T,
                               k_amplitude=-0.7)
    field = rng.standard_normal((n, 3) + dims)
    flat = field.reshape(-1)
    flat[rng.random(flat.size) < 0.1] = 0.0
    flat[rng.random(flat.size) < 0.1] = -0.0
    v = {"vector": field, "scalar": field[:, 0].copy(),
         "component": field[:, int(rng.integers(3))]}[layout]
    psi = rng.uniform(0.0, 3.0, dims)
    q = rng.uniform(-2.0, 2.0, n)
    q[rng.random(n) < 0.3] = 0.0

    def same(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    tanh, cosh2 = np.tanh(psi), np.cosh(psi) ** 2
    for m in (fam.h, fam.k):
        same(m.apply(v, m.s(tanh)), tensordot_apply(m, v, m.s(tanh)))
        same(m.apply_mod(v, m.s_prime(cosh2)),
             tensordot_apply_mod(m, v, m.s_prime(cosh2)))
    same(fam.solve_h(v, fam.h.s(tanh)), tensordot_solve_h(fam, v, fam.h.s(tanh)))
    same(_gauge_dot(q, v), np.tensordot(q, v, axes=(0, 0)))
