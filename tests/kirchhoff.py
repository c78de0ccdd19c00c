"""Spherical means for the linear part of the wave-equation representation.

The solution of the free wave equation at a spacetime point (t, x) can be
written as an average over the backward light cone's sphere of radius r0:

    u(t, x) = (1/4pi) Int_{S^2} dOmega [ r0 du/dt + r0 du/dr + u ]

with the integrand evaluated at the retarded time t - r0 on the sphere
x + r0 n (Kirchhoff's formula; L. C. Evans, Partial Differential
Equations, section 2.4.1).  This module discretizes the sphere average
with a product quadrature.  A field u is any object with value(t, x),
d_t(t, x) and grad(t, x), each taking points x of shape (..., 3) and
giving one value, or one gradient of shape (3,), per point; the fields
the tests check it on, the lattice evolver's Fourier interpolant among
them, live in analytic_fields.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SphereQuadrature:
    """Unit-sphere quadrature: Gauss-Legendre in the polar angle crossed
    with a trapezoid rule in azimuth.  Weights sum to 4pi."""

    nodes: np.ndarray     # (n_nodes, 3) unit vectors
    weights: np.ndarray   # (n_nodes,) positive, sum 4pi
    order: int

    @classmethod
    def build(cls, order: int) -> "SphereQuadrature":
        if order < 1:
            raise ValueError("quadrature order must be >= 1")
        mu, wmu = np.polynomial.legendre.leggauss(order)   # mu = cos(theta)
        n_az = 2 * order
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        w_az = 2.0 * np.pi / n_az
        sin_t = np.sqrt(1.0 - mu**2)
        nodes = np.empty((order, n_az, 3))     # [polar i, azimuth j]
        nodes[..., 0] = np.outer(sin_t, np.cos(phi))
        nodes[..., 1] = np.outer(sin_t, np.sin(phi))
        nodes[..., 2] = mu[:, None]
        weights = np.repeat(wmu * w_az, n_az)
        return cls(nodes=nodes.reshape(order * n_az, 3), weights=weights,
                   order=order)


def kirchhoff_lin(u, p, r0: float, quad: SphereQuadrature) -> float:
    """Sphere-average representation value at the spacetime point p = (t, x).

    Evaluates (1/4pi) sum_q w_q [r0 du/dt + r0 n.grad u + u] at the retarded
    time t - r0 on the sphere x + r0 n_q, with u evaluated on all nodes at
    once and weighted in one reduction.  For u solving the free wave
    equation the result equals u(t, x) up to quadrature error.
    """
    t_p = float(p[0])
    x_p = np.asarray(p[1], dtype=float)
    if r0 <= 0:
        raise ValueError("sphere radius r0 must be positive")
    t0 = t_p - r0
    n = quad.nodes
    y = x_p + r0 * n
    f = (r0 * u.d_t(t0, y) + r0 * np.sum(n * u.grad(t0, y), axis=1)
         + u.value(t0, y))
    return float(np.sum(quad.weights * f)) / (4.0 * np.pi)


def kirchhoff_residual_scan(u, points, r0_list, quad: SphereQuadrature):
    """Max |representation - exact| over a grid of points and radii.

    Returns (max_residual, rows) with one (point, r0, residual) row each;
    max_residual is NaN when any residual is.
    """
    rows = []
    for p in points:
        for r0 in r0_list:
            approx = kirchhoff_lin(u, p, r0, quad)
            exact = u.value(float(p[0]), np.asarray(p[1], dtype=float))
            rows.append((p, r0, abs(approx - exact)))
    return float(np.max([res for _, _, res in rows], initial=0.0)), rows
