"""Field equations in temporal gauge, time stepping and the Gauss constraint.

The right-hand sides are the Euler-Lagrange equations of the *discretized*
Lagrangian density

    L = 1/2 h_LS (Adot.Adot - H.H) + k_LS Adot.H
        + g_ab pi conj(pi) - g_ab D_i phi conj(D_i phi) - V(Psi)

with H = curl A (central differences) and Adot = -E, so that the discrete
energy E0 is the exact Hamiltonian of the semidiscrete flow and is conserved
up to the integrator's O(dt^4) error.  A numerical action-variation test
certifies the assembled right-hand sides against this Lagrangian directly
(the test builds the density from a Kinematics, tests/test_dynamics.py).

eom_rhs assembles the equations in a collapsed form that makes fewer passes
over the lattice than the term-by-term one (tests/reference_rhs.py, which
the tests hold it to within rounding):

  * gauge sector, one curl: curl is linear and commutes with the constant
    k_base, so curl(hH) + curl(kE) - k curl E = curl(hH + sk k_mod E)
    - sk k_mod curl E, and psidot (k'H - h'E) is one product;
  * scalar sector: with psidot = 2 Re u, the -(d_t g) pi terms reduce to
    -2 Q u pi and the trace terms to -Q |Dphi|^2 phi, so g dpi/dt is a sum
    of per-site coefficients times pi, phi and each D_i phi, plus the
    difference d_i of g D_i phi, built one axis at a time.

A model switches some blocks off identically, and ModelSpec.sectors says
which, worked out once from the frozen model: W = Q'/(2r) on a flat or
quartic target, Q on a flat one, the k' and k_mod terms when k is constant,
h' when h is constant, q.A and the 2 q Im X source when the charges are
zero, and V' when the potential is zero.  eom_rhs, Kinematics,
gauss_residual and diagnostics.energy_E0 read these flags and skip the
blocks that are off; the blocks that are on are computed as before, to the
bit.

Memory: a stage's arrays live only while the RHS reads them.  A
Kinematics builds each of its arrays on first read, and eom_rhs releases
each after its last reader (its docstring lists when), in a Kinematics it
was given (the trace record's, at RK4 stage k1) as in one it built, so that
none carries an array into the next stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .couplings import CouplingFamily, _gauge_dot, _readonly, site_dot
from .errors import NonFinite, RadiusExceeded
from .kahler import KahlerFamily
from .lattice import (FieldState, LatticeSpec, central_diff, curl, divergence,
                      gradient)
from .potentials import PotentialFamily


@dataclass(frozen=True)
class Sectors:
    """Which blocks of the field equations a model can make nonzero.  A
    block that is off vanishes identically for every state."""

    charged: bool      # q != 0: q.A in D phi and the 2 q Im X source
    h_prime: bool      # h varies with Psi: every h' term
    k: bool            # k varies with Psi: the k' terms, curl E, k_mod E
    q: bool            # Q != 0 (not a flat target): the rank-one metric terms
    w: bool            # W = Q'/(2r) != 0: its term in the scalar equation
    potential: bool    # V != 0: V' in the scalar source, V in the energy


@dataclass(frozen=True)
class ModelSpec:
    """The physical model (its discretisation is a LatticeSpec's): charges
    and the three constitutive families, from which the gauge count and
    `sectors` are worked out; frozen, the charges a read-only copy."""

    charges: np.ndarray            # q per gauge index, shared by all scalars
    couplings: CouplingFamily
    kahler: KahlerFamily
    potential: PotentialFamily
    n_scalar: int
    sectors: Sectors = field(init=False, repr=False)

    @property
    def n_gauge(self) -> int:
        return len(self.charges)

    def __post_init__(self):
        object.__setattr__(self, "charges", _readonly(self.charges))
        if self.charges.ndim != 1 or min(self.n_gauge, self.n_scalar) < 1:
            raise ValueError("need at least one gauge and one scalar field")
        if self.couplings.n_gauge != self.n_gauge:
            raise ValueError("need one charge per gauge index of the couplings")
        object.__setattr__(self, "sectors", Sectors(
            charged=bool(np.any(self.charges)),
            h_prime=self.couplings.h.varies, k=self.couplings.k.varies,
            q=self.kahler.has_q, w=self.kahler.has_w,
            potential=not self.potential.vanishes))


@dataclass(eq=False)
class StateDerivative:
    """The time derivative of (A, E, phi, pi) at one state.

    It holds only what the field equations compute, dE/dt and dpi/dt, and
    references to the state's own E and pi, since dA/dt = -E and dphi/dt =
    pi there.  dA and dphi build a new array on each read.  step_rk4 reads
    E and pi directly and puts the sign of dA/dt into its multipliers:
    negation is exact and IEEE rounding is symmetric in sign, so
    A + c (-E) and A - c E, or -(x + y) and (-x) + (-y), are the same bits.
    """

    dE: np.ndarray
    dpi: np.ndarray
    E: np.ndarray       # the state's E, not a copy
    pi: np.ndarray      # the state's pi, not a copy

    @property
    def dA(self) -> np.ndarray:
        return -self.E

    @property
    def dphi(self) -> np.ndarray:
        return self.pi.copy()


def _cdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conj(a).b summed over the leading scalar-component axis, one row at a
    time in order into one sum, without a full product array.  These are
    the bits of np.sum(a.conj() * b, axis=0) on a grid of two or more sites;
    on a one-site grid numpy adds 4 or more complex rows pairwise, so there
    they agree for up to 3 scalars (tests/test_dynamics.py)."""
    out = a[0].conj() * b[0]
    term = np.empty_like(out)
    for x, y in zip(a[1:], b[1:]):
        np.multiply(x.conj(), y, out=term)
        out += term
    return out


class _cached:
    """functools.cached_property without its lock, as Python 3.12 has it:
    the first read stores the value in the instance __dict__, where every
    later read finds it before this non-data descriptor."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


@dataclass(eq=False)
class Kinematics:
    """The field kinematics of one state.

    eom_rhs and every diagnostic read psi = |phi|^2, r = |phi|, the metric
    scalars alpha(r) and Q(r), H = curl A and the covariant derivative
    Dphi = grad phi - i (q.A) phi from here instead of rebuilding them.
    Kinematics(state, lattice, model) builds nothing; each array below is
    computed on first use and then kept, tanh(psi) and cosh(psi)^2 for h and
    k to form s and s'.  `release` forgets cached arrays, and a later read
    recomputes them to the same bits.  One Kinematics may serve both the
    trace record of a state and the first RK4 stage from it (step_rk4's
    `kin`): `collect` releases the DIAGNOSTICS_ONLY arrays after their last
    reader, and eom_rhs every array after its own.
    """

    # cached arrays that eom_rhs never reads
    DIAGNOSTICS_ONLY = ("dphi", "dphi2", "E2", "A2", "V", "pi2")

    state: FieldState
    lattice: LatticeSpec
    model: ModelSpec

    def release(self, *names: str) -> None:
        """Forget the named cached arrays; a later read recomputes them."""
        for name in names:
            if name not in _CACHED_ARRAYS:
                raise ValueError(f"{name!r} is not a cached array")
            if name in self.__dict__:
                del self.__dict__[name]

    @_cached
    def psi(self) -> np.ndarray:
        """|phi|^2, [grid]."""
        return np.add.reduce(np.abs(self.state.phi) ** 2, axis=0)

    @_cached
    def r(self) -> np.ndarray:
        """|phi|, [grid]."""
        return np.sqrt(self.psi)

    @_cached
    def alpha(self) -> np.ndarray:
        """alpha(r), [grid]."""
        return self.model.kahler.alpha(self.r)

    @_cached
    def Q(self) -> np.ndarray:
        """Q(r), [grid]."""
        return self.model.kahler.q(self.r)

    @_cached
    def H(self) -> np.ndarray:
        """curl A, [N_V, 3, grid]."""
        return curl(self.state.A, self.lattice)

    @_cached
    def Dphi(self) -> np.ndarray:
        """grad phi - i (q.A) phi, [N_C, 3, grid]."""
        phi = self.state.phi
        D = gradient(phi, self.lattice)
        if self.model.sectors.charged:
            # one (field, axis) slab at a time, the same products: with the
            # broadcast form's (N_C, 3, grid) complex temporary this took
            # 5.0 ms against 1.2 ms at 32^3
            iqa = 1j * self.qa
            for a in range(phi.shape[0]):
                for i in range(3):
                    D[a, i] -= iqa[i] * phi[a]
        return D

    @_cached
    def tanh_psi(self) -> np.ndarray:
        return np.tanh(self.psi)

    @_cached
    def cosh2_psi(self) -> np.ndarray:
        return np.cosh(self.psi) ** 2

    @_cached
    def sh(self) -> np.ndarray | None:
        """h.s(psi), [grid]; None when h is constant (apply and solve_h ignore it)."""
        h = self.model.couplings.h
        return h.s(self.tanh_psi) if h.varies else None

    @_cached
    def qa(self) -> np.ndarray:
        """q.A_i, [3, grid]."""
        return _gauge_dot(self.model.charges, self.state.A)

    @_cached
    def phi_pi(self) -> np.ndarray:
        """conj(phi).pi, [grid]."""
        return _cdot(self.state.phi, self.state.pi)

    @_cached
    def phi_Dphi(self) -> np.ndarray:
        """conj(phi).D_i phi, [3, grid]."""
        return _cdot(self.state.phi[:, np.newaxis], self.Dphi)

    @_cached
    def dphi(self) -> np.ndarray:
        """The gradient of phi, [N_C, 3, grid]; only the diagnostics read it."""
        return gradient(self.state.phi, self.lattice)

    @_cached
    def V(self) -> np.ndarray:
        """Potential V(psi); only the diagnostics read it."""
        return self.model.potential.value(self.psi)

    # per-site squares, summed over every field and component axis

    @_cached
    def pi2(self) -> np.ndarray:
        return np.add.reduce(np.abs(self.state.pi) ** 2, axis=0)

    @_cached
    def Dphi2(self) -> np.ndarray:
        return np.add.reduce(np.abs(self.Dphi) ** 2, axis=(0, 1))

    @_cached
    def dphi2(self) -> np.ndarray:
        return np.add.reduce(np.abs(self.dphi) ** 2, axis=(0, 1))

    @_cached
    def E2(self) -> np.ndarray:
        return np.add.reduce(self.state.E**2, axis=(0, 1))

    @_cached
    def A2(self) -> np.ndarray:
        return np.add.reduce(self.state.A**2, axis=(0, 1))


# the names Kinematics.release accepts: its cached arrays
_CACHED_ARRAYS = frozenset(name for name, attr in vars(Kinematics).items()
                           if isinstance(attr, _cached))


def _kinematics(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
                kin: Kinematics | None) -> Kinematics:
    """kin when it was built from this very state and model object (a
    ModelSpec holds arrays) and an equal lattice, or a new one."""
    if kin is None:
        return Kinematics(state, lattice, model)
    if kin.state is not state or kin.model is not model or kin.lattice != lattice:
        raise ValueError("kin is the Kinematics of another state, lattice or model")
    return kin


def eom_rhs(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
            kin: Kinematics | None = None) -> StateDerivative:
    """The time derivative of (A, E, phi, pi), which refers to state.E and
    state.pi for dA and dphi (StateDerivative); kin, when given, must be a
    Kinematics of this state, lattice and model, else one is built here.

    The gauge sector runs first and Dphi is built only after its curls.
    The Kinematics, built or given, holds each cached array only while a
    reader needs it: H, tanh psi and cosh^2 psi are released once hH + kE
    is formed, h.s once dE is solved, conj(phi).pi and |Dphi|^2 once the
    scalar coefficients have read them, and every array left, Dphi,
    conj(phi).Dphi, q.A, psi, r, alpha and Q among them, after the scalar
    loop, which leaves none."""
    kin = _kinematics(state, lattice, model, kin)
    rmax = float(np.max(kin.r))
    if rmax > model.kahler.r_max:
        site = tuple(int(i) for i in np.unravel_index(int(np.argmax(kin.r)), kin.r.shape))
        raise RadiusExceeded(
            f"|phi| = {rmax:.6g} exceeds validity radius "
            f"{model.kahler.r_max:.6g} at site {site}")

    sec = model.sectors
    phi, pi, E = state.phi, state.pi, state.E
    psi, alpha, Q, H = kin.psi, kin.alpha, kin.Q, kin.H
    hf, kf = model.couplings.h, model.couplings.k
    if sec.h_prime or sec.k or sec.w:
        psidot = 2.0 * np.real(kin.phi_pi)
    denom = alpha + Q * psi if sec.q else alpha     # eigenvalue of g along phi

    # scalar source from the Psi-dependence of h, k and the potential
    S = np.zeros(psi.shape)
    if sec.h_prime:
        sph = hf.s_prime(kin.cosh2_psi)
        hpE = hf.apply_mod(E, sph)                  # h' E
        S += 0.5 * site_dot(E, hpE)
        S -= 0.5 * site_dot(H, hf.apply_mod(H, sph))
        sph = None
    if sec.k:
        sk = kf.s(kin.tanh_psi)
        kpH = kf.apply_mod(H, kf.s_prime(kin.cosh2_psi))   # k' H
        S -= site_dot(E, kpH)
    if sec.potential:
        S -= model.potential.prime(psi)
    if sec.k:
        # psidot (k'H - h'E) in k'H's buffer, now that S has read both, so
        # that h'E is not alive through the curls
        if sec.h_prime:
            kpH -= hpE
        kpH *= psidot
        hpE = None

    # ---- gauge sector:  h dE/dt = curl(hH + kE) - k curl E
    #                              + psidot (k'H - h'E) - 2 q Im X
    # curl is linear and commutes with the constant k_base, so only the
    # psi-dependent part k - k_base = sk k_mod of k enters
    hk = hf.apply(H, kin.sh)
    if sec.k:
        hk += kf.apply_mod(E, sk)
    H = None
    kin.release("H", "tanh_psi", "cosh2_psi")
    rhs_E = curl(hk, lattice)
    del hk
    if sec.k:
        rhs_E -= kf.apply_mod(curl(E, lattice), sk)
        sk = None
        rhs_E += kpH                                # psidot (k'H - h'E)
    elif sec.h_prime:
        hpE *= psidot                               # psidot (-h'E)
        rhs_E -= hpE
    hpE = kpH = None
    if sec.q or sec.charged:
        pD = kin.phi_Dphi                           # builds Dphi
    # X_i = g_ab D_i phi^a conj(phi^b) = denom (conj(phi).D_i phi), denom real
    if sec.charged:
        rhs_E -= np.multiply.outer(2.0 * model.charges, denom * pD.imag)
    dE = model.couplings.solve_h(rhs_E, kin.sh)
    del rhs_E
    kin.release("sh")

    # ---- scalar sector:  g dpi/dt = R, solved by Sherman-Morrison.  With
    # gD_i = alpha D_i phi + Q pD_i phi, pD_i = conj(phi).D_i phi, u =
    # conj(phi).pi, psidot = 2 Re u and Cov_i = d_i - i (q.A_i), the
    # Euler-Lagrange form -(d_t g) pi + sum_i Cov_i(gD_i) + curvature + S phi
    # collapses to per-site coefficients of pi, phi and each D_i phi:
    #   R = -2 Q u pi + c phi - sum_i a_i D_i phi + sum_i d_i gD_i,
    #   c   = W (|u|^2 - |pD|^2 - psidot u) + S - Q |Dphi|^2
    #         - i Q sum_i (q.A_i) pD_i,
    #   a_i = Q conj(pD_i) + i (q.A_i) alpha,
    # and d_i of a size-1 axis is zero and skipped.
    c = S
    del S
    if sec.w:
        u = kin.phi_pi
        pD2 = np.add.reduce(np.abs(pD) ** 2, axis=0)
        W = model.kahler.q_prime_over_2r(kin.r)
        c = W * (np.abs(u) ** 2 - pD2 - psidot * u) + c
        u = pD2 = W = None
    psidot = None
    if sec.q:
        c = c - Q * kin.Dphi2
        if sec.charged:
            c = c - 1j * Q * np.add.reduce(kin.qa * pD, axis=0)
        R = (-2.0 * Q * kin.phi_pi) * pi
        R += c * phi
    else:
        R = c * phi
    del c
    kin.release("phi_pi", "Dphi2")
    Dphi = kin.Dphi
    for i in range(3):
        Di = Dphi[:, i]
        if sec.q or sec.charged:
            a = Q * pD[i].conj() if sec.q else 0.0
            if sec.charged:
                a = a + 1j * kin.qa[i] * alpha
            R -= a * Di
        if state.dims[i] > 1:
            gD = alpha * Di
            if sec.q:
                gD += (Q * pD[i]) * phi
            R += central_diff(gD, i, lattice)
    Dphi = Di = pD = None               # a view Di keeps Dphi's buffer
    kin.release(*_CACHED_ARRAYS)

    # solve (alpha I + Q phi conj(phi)^T) dpi = R, in R's buffer
    if sec.q:
        w = Q * _cdot(phi, R) / (alpha * denom)
    R /= alpha
    if sec.q:
        R -= w * phi

    return StateDerivative(dE=dE, dpi=R, E=E, pi=pi)


def _fields(s: FieldState) -> tuple:
    return s.A, s.E, s.phi, s.pi


def _rates(d: StateDerivative) -> tuple:
    """The rates of (A, E, phi, pi), that of A without its sign (_SIGNS)."""
    return d.E, d.dE, d.pi, d.dpi


_SIGNS = (-1.0, 1.0, 1.0, 1.0)


def _stage(state: FieldState, d: StateDerivative, c: float) -> FieldState:
    """state + c d, in new arrays; A's is E (-c) + A."""
    new = [np.multiply(v, sign * c) for v, sign in zip(_rates(d), _SIGNS)]
    for x, f in zip(new, _fields(state)):
        x += f
    return FieldState(*new, t=state.t + c)


def step_rk4(state: FieldState, lattice: LatticeSpec, model: ModelSpec,
             dt: float, kin: Kinematics | None = None) -> FieldState:
    """Classical explicit 4-stage update of (A, E, phi, pi):
    state + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order in place in
    k2's arrays (2 k2 + k1, then + 2 k3, + k4), so the bits are those of the
    textbook expression and no fifth state-sized sum is allocated.  The
    rates of A and phi are the E and pi of each stage's state (k2's and
    k3's are that stage's own arrays, which nothing else holds), and A's
    sign goes into the last multiplier: the new A is A - dt/6 (E1 + 2 E2 +
    2 E3 + E4), the bits of A + dt/6 (-E1 - 2 E2 - 2 E3 - E4).  kin, when
    given, is a Kinematics of this state, lattice and model and serves
    stage k1, which empties it as stages k2-k4 empty their own."""
    if not state.is_finite():
        raise NonFinite(f"non-finite field entering step at t = {state.t:.6g}")
    k1 = eom_rhs(state, lattice, model, kin)
    k2 = eom_rhs(_stage(state, k1, 0.5 * dt), lattice, model)
    stage3 = _stage(state, k2, 0.5 * dt)    # before k2 becomes the sum
    acc = _rates(k2)
    for a, v in zip(acc, _rates(k1)):
        a *= 2
        a += v
    del k1, k2
    k3 = eom_rhs(stage3, lattice, model)
    del stage3
    stage4 = _stage(state, k3, dt)          # before k3 is doubled in place
    for a, v in zip(acc, _rates(k3)):
        v *= 2
        a += v
    del k3
    k4 = eom_rhs(stage4, lattice, model)
    del stage4
    sixth = dt / 6.0
    for a, v, f, sign in zip(acc, _rates(k4), _fields(state), _SIGNS):
        a += v
        a *= sign * sixth
        a += f
    new = FieldState(*acc, t=state.t + dt)
    if not new.is_finite():
        raise NonFinite(f"non-finite field after step to t = {new.t:.6g}")
    return new


def gauss_residual(kin: Kinematics) -> tuple[np.ndarray, float, float]:
    """Temporal component of the gauge field equation (the constraint).

    residual^S = div E^S - h^{LS} { -2 q_L Im(g_ab pi^a conj(phi^b))
                                    - h'_LG dPsi.E^G + k'_LG dPsi.H^G }

    Returns (field [N_V, grid], L2, Linf); zero on the continuum
    constraint surface.
    """
    model, E, psi = kin.model, kin.state.E, kin.psi
    sec = model.sectors
    hf, kf = model.couplings.h, model.couplings.k

    res = divergence(E, kin.lattice)
    if not (sec.charged or sec.h_prime or sec.k):
        src = None
    elif sec.charged:
        X0 = (kin.alpha + kin.Q * psi) * kin.phi_pi
        src = -2.0 * model.charges[:, np.newaxis, np.newaxis, np.newaxis] \
            * X0.imag[np.newaxis]
    else:
        src = np.zeros(E.shape[:1] + E.shape[2:])
    if sec.h_prime or sec.k:
        # dPsi.E^G and dPsi.H^G over the vector index, then h', k' and h^-1
        dpsi = gradient(psi, kin.lattice)                   # (3, grid)
        if sec.h_prime:
            src -= hf.apply_mod(np.add.reduce(dpsi * E, axis=1),
                                hf.s_prime(kin.cosh2_psi))
        if sec.k:
            src += kf.apply_mod(np.add.reduce(dpsi * kin.H, axis=1),
                                kf.s_prime(kin.cosh2_psi))
    if src is not None:
        res -= model.couplings.solve_h(src, kin.sh)
    l2 = float(np.sqrt(np.add.reduce(res**2, axis=None) * kin.lattice.cell_volume))
    linf = float(np.max(np.abs(res)))
    return res, l2, linf
