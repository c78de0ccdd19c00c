"""Test fields for the spherical-means representation (kirchhoff.py):
each has value(t, x), d_t(t, x) and grad(t, x), which is all that
kirchhoff_lin and kirchhoff_residual_scan read, and each takes points x of
shape (..., 3): an (n, 3) array of quadrature nodes or a single point.

PlaneWave, Constant, LinearTime and Superposition are closed-form free
waves, SampledField adapts a callable u(t, x), and FourierInterpolant is
the free wave through a lattice's phi and pi at t = 0, against which the
lattice evolver is checked."""

import numpy as np


class PlaneWave:
    """u = amp * cos(k.x - |k| t + phase), a free wave for any k."""

    def __init__(self, k, amplitude: float = 1.0, phase: float = 0.0):
        self.k = np.asarray(k, dtype=float)
        self.omega = float(np.linalg.norm(self.k))
        self.amplitude = float(amplitude)
        self.phase = float(phase)

    def _arg(self, t, x):
        return np.asarray(x, dtype=float) @ self.k - self.omega * t + self.phase

    def value(self, t, x):
        return self.amplitude * np.cos(self._arg(t, x))

    def d_t(self, t, x):
        return self.amplitude * self.omega * np.sin(self._arg(t, x))

    def grad(self, t, x):
        return np.multiply.outer(-self.amplitude * np.sin(self._arg(t, x)), self.k)


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


class FourierInterpolant:
    """The free wave through real lattice data phi, pi at t = 0: their
    trigonometric interpolant on the periodic lattice (site i at i dx), each
    Fourier mode k evolved exactly,

        u_k(t) = phi_k cos(|k| t) + pi_k sin(|k| t) / |k|,

    with u_0(t) = phi_0 + pi_0 t.  Only the nonzero modes are kept (those
    above 1e-12 of the largest), so sampling costs one exponential per
    mode and point.  The interpolant is the field itself for band-limited
    data, which has no content at the Nyquist wavenumber; its value at the
    lattice sites at t = 0 is the data."""

    def __init__(self, phi, pi, dx: float):
        phi_k = np.fft.fftn(phi) / np.size(phi)
        pi_k = np.fft.fftn(pi) / np.size(pi)
        size = np.abs(phi_k) + np.abs(pi_k)
        keep = size > 1e-12 * size.max()
        axes = np.meshgrid(*(2.0 * np.pi * np.fft.fftfreq(n, dx)
                             for n in np.shape(phi)), indexing="ij")
        self.k = np.stack([a[keep] for a in axes], axis=1)       # (modes, 3)
        self.omega = np.linalg.norm(self.k, axis=1)
        self.phi_k = phi_k[keep]
        self.pi_k = pi_k[keep]

    def _phase(self, x):
        """exp(i k.x) for each point x and mode k: shape (..., modes)."""
        return np.exp(1j * (np.asarray(x, dtype=float) @ self.k.T))

    def _u_k(self, t):
        wt = self.omega * t
        return self.phi_k * np.cos(wt) + self.pi_k * t * np.sinc(wt / np.pi)

    def value(self, t, x):
        return (self._phase(x) @ self._u_k(t)).real

    def d_t(self, t, x):
        wt = self.omega * t
        rate = self.pi_k * np.cos(wt) - self.phi_k * self.omega * np.sin(wt)
        return (self._phase(x) @ rate).real

    def grad(self, t, x):
        return (self._phase(x) @ (1j * self.k * self._u_k(t)[:, None])).real
