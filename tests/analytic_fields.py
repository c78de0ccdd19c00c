"""Test fields for the spherical-means representation, besides
mkg.spherical.PlaneWave: each has value(t, x), d_t(t, x) and grad(t, x),
which is all that kirchhoff_lin and kirchhoff_residual_scan read.  Like
PlaneWave, each takes points x of shape (..., 3): an (n, 3) array of
quadrature nodes or a single point."""

import numpy as np


class Constant:
    def __init__(self, c: float):
        self.c = float(c)

    def value(self, t, x):
        return np.full(np.shape(x)[:-1], self.c)

    def d_t(self, t, x):
        return np.zeros(np.shape(x)[:-1])

    def grad(self, t, x):
        return np.zeros(np.shape(x))


class LinearTime:
    """u = t, a polynomial solution of the wave equation."""

    def value(self, t, x):
        return np.full(np.shape(x)[:-1], float(t))

    def d_t(self, t, x):
        return np.ones(np.shape(x)[:-1])

    def grad(self, t, x):
        return np.zeros(np.shape(x))


class Superposition:
    def __init__(self, *parts):
        self.parts = parts

    def value(self, t, x):
        return sum(p.value(t, x) for p in self.parts)

    def d_t(self, t, x):
        return sum(p.d_t(t, x) for p in self.parts)

    def grad(self, t, x):
        return sum(p.grad(t, x) for p in self.parts)


class SampledField:
    """Adapter for fields only available as callables u(t, x), which take
    the points x of shape (..., 3) as the other fields do; derivatives by
    4th-order central differences with step h."""

    def __init__(self, fn, h: float = 1e-3):
        self.fn = fn
        self.h = float(h)

    def value(self, t, x):
        return np.asarray(self.fn(t, x), dtype=float)

    def d_t(self, t, x):
        h, f = self.h, self.fn
        return (-f(t + 2 * h, x) + 8 * f(t + h, x)
                - 8 * f(t - h, x) + f(t - 2 * h, x)) / (12.0 * h)

    def grad(self, t, x):
        h, f = self.h, self.fn
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            out[..., i] = (-f(t, x + 2 * h * e) + 8 * f(t, x + h * e)
                           - 8 * f(t, x - h * e) + f(t, x - 2 * h * e)) / (12.0 * h)
        return out
