"""Test fields for the spherical-means representation, besides
mkg.spherical.PlaneWave: each has value(t, x), d_t(t, x) and grad(t, x),
which is all that kirchhoff_lin and kirchhoff_residual_scan read."""

import numpy as np


class Constant:
    def __init__(self, c: float):
        self.c = float(c)

    def value(self, t, x):
        return self.c

    def d_t(self, t, x):
        return 0.0

    def grad(self, t, x):
        return np.zeros(3)


class LinearTime:
    """u = t, a polynomial solution of the wave equation."""

    def value(self, t, x):
        return float(t)

    def d_t(self, t, x):
        return 1.0

    def grad(self, t, x):
        return np.zeros(3)


class Superposition:
    def __init__(self, *parts):
        self.parts = parts

    def value(self, t, x):
        return sum(p.value(t, x) for p in self.parts)

    def d_t(self, t, x):
        return sum(p.d_t(t, x) for p in self.parts)

    def grad(self, t, x):
        return sum((p.grad(t, x) for p in self.parts), np.zeros(3))


class SampledField:
    """Adapter for fields only available as callables u(t, x); derivatives
    by 4th-order central differences with step h."""

    def __init__(self, fn, h: float = 1e-3):
        self.fn = fn
        self.h = float(h)

    def value(self, t, x):
        return float(self.fn(t, x))

    def d_t(self, t, x):
        h, f = self.h, self.fn
        return float(-f(t + 2 * h, x) + 8 * f(t + h, x)
                     - 8 * f(t - h, x) + f(t - 2 * h, x)) / (12.0 * h)

    def grad(self, t, x):
        h, f = self.h, self.fn
        x = np.asarray(x, dtype=float)
        out = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            out[i] = (-f(t, x + 2 * h * e) + 8 * f(t, x + h * e)
                      - 8 * f(t, x - h * e) + f(t, x - 2 * h * e)) / (12.0 * h)
        return out
