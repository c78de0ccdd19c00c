"""Target-space geometry: closed-form metric vs finite-difference oracle,
rank-one prefactor resolution, and the integrated potential bounds."""

import dataclasses

import numpy as np
import pytest

from mkg.errors import DegenerateMetric, RadiusExceeded
from mkg.kahler import (KahlerFamily, _check_radius, _radius,
                        fit_bound_constants, flat_family, hessian_oracle,
                        kahler_metric, radial_bound_check, quartic_family,
                        resolve_q_normalization, sextic_family,
                        upper_bound_rhs)

FAMILIES = [flat_family(), quartic_family(), sextic_family()]


def kahler_metric_holomorphic_derivative(family, phi):
    """d g[a, b] / d phi[c] from the closed-form q and q'/(2r), returned
    with index order [c, a, b]."""
    v = np.asarray(phi, dtype=complex)
    r = _radius(v)
    _check_radius(family, r)
    n = v.size
    q = float(family.q(r))
    qp = float(family.q_prime_over_2r(r))
    vb = v.conj()
    eye = np.eye(n)
    out = np.zeros((n, n, n), dtype=complex)
    for c in range(n):
        out[c] += q * vb[c] * eye      # delta_ab conj(phi)[c]
        out[c, :, c] += q * vb         # delta_cb conj(phi)[a]
    out += qp * vb[:, None, None] * vb[None, :, None] * v[None, None, :]
    return out


def sherman_morrison_inverse(family, phi):
    """Closed-form inverse of g = alpha I + q conj(phi) phi^T, the rank-one
    downdate eom_rhs applies inline to solve g dpi/dt = R."""
    v = np.asarray(phi, dtype=complex)
    r = _radius(v)
    a, q = float(family.alpha(r)), float(family.q(r))
    return (np.eye(v.size) / a
            - (q / (a * (a + q * r**2))) * np.outer(v.conj(), v))


def random_points(n_points, n_comp, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return [rng.normal(scale=scale, size=n_comp)
            + 1j * rng.normal(scale=scale, size=n_comp)
            for _ in range(n_points)]


def test_frozen_metric_values():
    # flat target at phi = 1: identity metric
    g_flat = kahler_metric(flat_family(), [1.0 + 0.0j])
    assert g_flat == pytest.approx(np.array([[1.0]]))
    # flat target independent of phi
    g2 = kahler_metric(flat_family(), [0.3 + 0.4j, 0.0j])
    assert g2 == pytest.approx(np.eye(2))
    # quartic correction r^2 + r^4/4 at phi = 1: frozen Hessian-oracle values
    fam = quartic_family()
    v = [1.0 + 0.0j]
    assert kahler_metric(fam, v) == pytest.approx(np.array([[2.0]]))
    assert sherman_morrison_inverse(fam, v) == pytest.approx(
        np.array([[0.5]]))


def test_quartic_metric_derivative_frozen_value():
    # g_11 = 1 + |phi|^2 for the quartic correction, so the holomorphic
    # Wirtinger derivative at phi = 1 is conj(phi) = 1 (finite-difference
    # oracle value; disagrees with a naive half-strength guess)
    d = kahler_metric_holomorphic_derivative(quartic_family(), [1.0 + 0.0j])
    assert d[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fam", FAMILIES, ids=["flat", "quartic", "sextic"])
def test_metric_matches_hessian_oracle(fam):
    worst = 0.0
    for n_comp in (1, 2, 3):
        for v in random_points(12, n_comp, seed=n_comp):
            g = kahler_metric(fam, v)
            h = hessian_oracle(fam, v)
            scale = max(1.0, float(np.max(np.abs(h))))
            worst = max(worst, float(np.max(np.abs(g - h))) / scale)
    assert worst < 1e-6


@pytest.mark.parametrize("fam", FAMILIES, ids=["flat", "quartic", "sextic"])
def test_metric_inverse_roundtrip(fam):
    for v in random_points(10, 3, seed=5):
        g = kahler_metric(fam, v)
        ginv = sherman_morrison_inverse(fam, v)
        assert g @ ginv == pytest.approx(np.eye(3), abs=1e-10)


def test_metric_derivative_matches_finite_difference():
    fam = quartic_family()
    h = 1e-3
    for v in random_points(5, 2, seed=9):
        d = kahler_metric_holomorphic_derivative(fam, v)
        for c in range(2):
            e = np.zeros(2, dtype=complex)
            e[c] = 1.0
            # Wirtinger holomorphic derivative via complex central differences
            gp = kahler_metric(fam, v + h * e)
            gm = kahler_metric(fam, v - h * e)
            gip = kahler_metric(fam, v + 1j * h * e)
            gim = kahler_metric(fam, v - 1j * h * e)
            fd = ((gp - gm) - 1j * (gip - gim)) / (4 * h)
            assert d[c] == pytest.approx(fd, abs=5e-6)


def test_q_normalization_resolution():
    fam = quartic_family()
    winner, errs = resolve_q_normalization(fam, random_points(8, 2, seed=3))
    assert winner == "1/(4r^2)"
    assert errs["1/(4r^2)"] < 1e-8
    assert errs["1/(4r)"] > 1e-3


def test_q_normalization_undetermined_on_flat_target():
    # q = 0 everywhere, so the two candidate metrics are the same matrix
    winner, errs = resolve_q_normalization(flat_family(),
                                           random_points(8, 2, seed=3))
    assert winner is None
    assert errs["1/(4r)"] == errs["1/(4r^2)"] < 1e-8


def test_metric_positive_definite():
    fam = quartic_family()
    for v in random_points(10, 2, seed=11):
        eig = np.linalg.eigvalsh(kahler_metric(fam, v))
        assert np.all(eig > 0)


def test_radius_guard():
    fam = quartic_family(r_max=1.0)
    with pytest.raises(RadiusExceeded):
        kahler_metric(fam, [2.0 + 0.0j])


def test_degenerate_metric_raises():
    # a family whose alpha vanishes at finite radius is rejected at solve time
    fam = KahlerFamily(coefficients=(0.0, 0.0, 1.0, 0.0, -0.5))
    with pytest.raises(DegenerateMetric):
        kahler_metric(fam, [1.0 + 0.0j])


@pytest.mark.parametrize("coefficients", [(np.nan, 0.0, 1.0),
                                          (0.0, 0.0, np.inf),
                                          (0.0, 1.0, 1.0)])
def test_bad_coefficients_rejected(coefficients):
    # a non-finite constant term would survive the zero factor of the
    # alpha and q shifts as a negative power; an odd power is singular
    with pytest.raises(ValueError):
        KahlerFamily(coefficients=coefficients)


def test_flat_family_bound_equality():
    # flat target: Phi = r^2, Q' = 0, so b = (0,) and the fitted C2 closes
    # the bound with equality: |Phi| = C2 r^2 / 2 at the largest radius
    fam = flat_family()
    radii = np.linspace(0.002, 2.0, 1000)
    report = radial_bound_check(fam, radii)
    assert report.all_hold
    assert report.c2 == pytest.approx(2.0, rel=1e-9)
    assert report.b == (0.0,)


@pytest.mark.parametrize("fam", FAMILIES, ids=["flat", "quartic", "sextic"])
def test_radial_bound_holds_with_fitted_constants(fam):
    radii = np.linspace(0.002, 2.0, 1000)
    report = radial_bound_check(fam, radii)
    assert report.all_hold


def test_lower_bound_checked():
    fam = quartic_family()
    assert fam.lower_c1 == 2.0
    report = radial_bound_check(fam, np.linspace(0.01, 2.0, 200))
    assert np.all(report.lower_holds)


def test_family_is_frozen():
    """A family's metric series are built once, so its fields cannot be
    assigned; dataclasses.replace builds a family whose metric follows its
    new coefficients."""
    fam = quartic_family()
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.coefficients = (0.0, 0.0, 1.0)
    flat = dataclasses.replace(fam, coefficients=(0.0, 0.0, 1.0))
    r = np.linspace(0.0, 2.0, 9)
    assert flat == flat_family()
    assert np.array_equal(flat.phi(r), r**2)
    assert np.array_equal(flat.alpha(r), np.ones_like(r))
    assert np.array_equal(flat.q(r), np.zeros_like(r))
    assert np.array_equal(flat.q_prime_over_2r(r), np.zeros_like(r))


def test_lower_bound_violation_detected():
    # Phi = r^2 - 0.01 r^4 falls below r^2 = (c1/2) r^2 at every r > 0,
    # while the upper bound still closes with the fitted constants
    fam = KahlerFamily(coefficients=(0.0, 0.0, 1.0, 0.0, -0.01))
    radii = np.linspace(0.002, 2.0, 1000)
    report = radial_bound_check(fam, radii)
    assert np.all(report.holds)
    assert not np.all(report.lower_holds)     # every radius is <= 2
    assert not report.all_hold


def test_fitted_b0_caps_the_hypothesis():
    # b0 is fitted as max |Q'/(2r)| on the scan, so the hypothesis
    # |Q'/(2r)| <= b0 holds at every scanned radius with equality at one
    fam = sextic_family()
    radii = np.linspace(0.5, 2.0, 50)
    report = radial_bound_check(fam, radii)
    lhs = np.abs(fam.q_prime_over_2r(radii))
    assert np.all(lhs <= report.b[0])
    assert np.max(lhs) == report.b[0]


def test_upper_bound_rhs_monotone():
    r = np.linspace(0.01, 2.0, 100)
    vals = upper_bound_rhs(r, (1.0, 0.5), 0.1, 0.2, 0.3)
    assert np.all(np.diff(vals) > 0)


def test_fit_bound_constants_flat():
    fam = flat_family()
    b, c1, c2, c3 = fit_bound_constants(fam, np.linspace(0.01, 2.0, 500))
    assert b == (0.0,)
    assert c1 == 0.0
    assert c2 == pytest.approx(2.0, rel=1e-9)
    assert c3 == 0.0
