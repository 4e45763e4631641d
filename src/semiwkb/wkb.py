"""Leading-order WKB fields with their self-consistent potential, the first
linearized corrector, and residual gauges for the limit hydrodynamic system.

The Eulerian leading-order pair is evaluated from its Lagrangian closed form:
with F = n v0/(2R), G = |lam| rho0 R/((n-2) v0) and X = R(1+Ft)^(2/n),

    a0(t, X) = A0(R) (1+Ft)^(-1/2) (1+Gt)^(-1/2),
    phi0(t, X) = Phi0(R) + K(t,R) + P(t,R),

where K integrates the kinetic Hamilton-Jacobi term along the characteristic,

    K = (v0^2/2) * Q_{(4-n)/n}(F, t),      Q_a(F,t) := [(1+Ft)^a - 1]/(aF),

and P integrates the attractive potential, reduced to label form by mass
transport:

    P = (n-2)/2 * integral_R^inf (v0(s)^2/s) * I(t,s) ds,
    I(t,s) = (G/F) Q_{(4-n)/n} + (1 - G/F) Q_{(4-2n)/n}.

Q_0 is the log branch (dimension 4).  P(t, 0) is the spatial constant often
written as a standalone function of time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import DomainError, ParameterError, StepRejectionError
from .euler_poisson import explicit_characteristics, invert_flow_map
from .grids import (RadialGrid, RadialProfile, cumulative_radial,
                    derivative_uniform, over_r)
from .profiles import InitialData

__all__ = [
    "WkbFields", "CorrectorSeries",
    "poisson_radial", "leading_order", "phase_time_constant",
    "limit_system_residual", "first_corrector",
]

N_PICARD = 3        # fixed-point sweeps per corrector step
# Largest change of the last sweep, relative to the state.  Measured worst over
# the test and benchmark configurations: 3.0e-7 at dt = 1e-3, 2.8e-6 at
# dt = 5e-3; a single sweep moves the state by about half its size.
PICARD_TOL = 1e-3


@dataclass(frozen=True)
class WkbFields:
    t: float
    a0: RadialProfile
    phi0: RadialProfile
    V_P: RadialProfile
    a1: Optional[RadialProfile] = None
    phi1: Optional[RadialProfile] = None

    @property
    def grid(self) -> RadialGrid:
        return self.a0.grid


@dataclass(frozen=True)
class CorrectorSeries:
    times: np.ndarray
    a1: list
    phi1: list
    grid: RadialGrid

    def at_final(self) -> tuple[RadialProfile, RadialProfile]:
        return self.a1[-1], self.phi1[-1]


# ---------------------------------------------------------------------------
# radial Poisson field
# ---------------------------------------------------------------------------

def hartree_potential(source: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """Solve -(r^(n-1) V')' = r^(n-1) * source radially (signed source allowed).

    n >= 3: the tail is closed analytically with the captured charge and V
    vanishes at infinity.  n <= 2, where no decaying solution exists: V(0) = 0.
    """
    area = r ** (n - 1)
    m = cumulative_radial(source * area, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(r > 0, m / area, 0.0)
    H = cumulative_radial(h, r)
    if n <= 2:
        return H[0] - H
    tail = m[-1] * r[-1] ** (2 - n) / (n - 2)
    return (H[-1] - H) + tail


def poisson_radial(rho: RadialProfile, n: int) -> RadialProfile:
    """Attractive-problem potential of a radial density.

    n >= 3: V(r) = integral_r^inf s^(1-n) m(s) ds with the tail beyond the grid
    closed analytically using m(s) ~ m(r_max).  n <= 2: the decay condition is
    not meaningful; V is anchored to V(0) = 0 instead and decreases outward.
    """
    vals = rho.values
    if np.iscomplexobj(vals):
        raise DomainError("density must be real")
    if np.min(vals) < -1e-12 * max(np.max(np.abs(vals)), 1.0):
        raise DomainError("density has negative samples")
    out = hartree_potential(np.clip(vals, 0.0, None), rho.grid.nodes, n)
    return RadialProfile(rho.grid, out)


# ---------------------------------------------------------------------------
# leading order
# ---------------------------------------------------------------------------

def _Q(alpha: float, F: np.ndarray, t: float) -> np.ndarray:
    """[(1+Ft)^alpha - 1]/(alpha F), continued through F->0 and alpha->0."""
    F = np.asarray(F, dtype=float)
    out = np.full_like(F, float(t))
    pos = F > 0
    if alpha == 0.0:
        out[pos] = np.log1p(F[pos] * t) / F[pos]
    else:
        out[pos] = np.expm1(alpha * np.log1p(F[pos] * t)) / (alpha * F[pos])
    return out


def _I_kernel(n: int, t: float, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    ratio = np.zeros_like(F)
    pos = F > 0
    ratio[pos] = G[pos] / F[pos]
    Q1 = _Q((4.0 - n) / n, F, t)
    Q2 = _Q((4.0 - 2.0 * n) / n, F, t)
    return ratio * Q1 + (1.0 - ratio) * Q2


def _potential_tail(data: InitialData, t: float) -> float:
    """integral_{r_max}^inf (v0^2/r) I(t,r) dr over the vacuum continuation."""
    c = data.tail_coeff
    if c == 0.0:
        return 0.0
    n = data.n
    beta = (4.0 - 2.0 * n) / n

    def w(r):
        F = 0.5 * n * c * r ** (-n / 2.0)
        Q2 = np.expm1(beta * np.log1p(F * t)) / (beta * F) if F > 0 else t
        return c * c * r ** (1.0 - n) * Q2

    val, _ = quad(w, data.r_max, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


def _potential_term_nodes(data: InitialData, t: float) -> np.ndarray:
    """P(t, R) at the data-grid nodes (cumulative from the top plus tail)."""
    r = data.grid.nodes
    v0, F, G = data.rates_at(r)
    w = over_r(v0 ** 2, r, 0.0) * _I_kernel(data.n, t, F, G)
    Wc = cumulative_radial(w, r)
    tail = _potential_tail(data, t)
    return 0.5 * (data.n - 2) * (tail + Wc[-1] - Wc)


def phase_time_constant(data: InitialData, t: float) -> float:
    """phi0(t, 0): the additive phase constant accumulated at the origin."""
    return float(_potential_term_nodes(data, t)[0])


def leading_order(data: InitialData, t: float,
                  grid: RadialGrid | None = None) -> WkbFields:
    """Eulerian leading-order WKB fields (a0, phi0, V_P) at time t.

    Lagrangian closed forms are pulled back through the monotone inverse of
    the flow map; the potential is recomputed from |a0|^2 so the Poisson
    equation holds in the discrete sense.  Uncoupled data at rest (lam = 0,
    v0 = 0) rides the same flow with X = R: its fields stay at their initial
    values.
    """
    if t < 0:
        raise ParameterError("time must be nonnegative")
    if grid is None:
        grid = data.grid
    R = invert_flow_map(data, t, grid.nodes)
    v0, F, G = data.rates_at(R)
    a0 = data.amplitude_at(R) / np.sqrt((1.0 + F * t) * (1.0 + G * t))

    phi_nodes = _potential_term_nodes(data, t)
    P_spline = CubicSpline(data.grid.nodes, phi_nodes)
    kinetic = 0.5 * v0 ** 2 * _Q((4.0 - data.n) / data.n, F, t)
    phi0 = data.phi0_at(R) + kinetic + P_spline(R)

    a0_profile = RadialProfile(grid, a0)
    rho_now = RadialProfile(grid, np.abs(a0) ** 2)
    V_P = poisson_radial(rho_now, data.n)
    return WkbFields(t=float(t), a0=a0_profile,
                     phi0=RadialProfile(grid, phi0), V_P=V_P)


# ---------------------------------------------------------------------------
# residual gauges
# ---------------------------------------------------------------------------

def _radial_divergence(values: np.ndarray, grid: RadialGrid, n: int,
                       parity: str) -> np.ndarray:
    """(1/r^(n-1)) d/dr (r^(n-1) f) = f' + (n-1) f / r with origin limit."""
    fp = derivative_uniform(values, grid.dr, 1, left_parity=parity,
                            origin_on_grid=grid.include_origin)
    return fp + (n - 1) * over_r(values, grid.nodes, fp[0])


def _radial_laplacian(values: np.ndarray, grid: RadialGrid, n: int,
                      parity: str) -> np.ndarray:
    """f'' + (n-1) f' / r with origin limit."""
    fp, fpp = (derivative_uniform(values, grid.dr, k, left_parity=parity,
                                  origin_on_grid=grid.include_origin)
               for k in (1, 2))
    return fpp + (n - 1) * over_r(fp, grid.nodes, fpp[0])


def limit_system_residual(fields: WkbFields, data: InitialData,
                          dt: float = 1e-4
                          ) -> tuple[RadialProfile, RadialProfile, RadialProfile]:
    """Discrete residuals of the three limit equations at fields.t.

    Time derivatives are centered differences of leading_order at t +- dt;
    space derivatives use the grid stencils on the supplied fields, so a
    corrupted field shows up as a nonzero residual.
    """
    grid = fields.grid
    r = grid.nodes
    h = grid.dr
    t = fields.t
    lo = leading_order(data, max(t - dt, 0.0), grid)
    hi = leading_order(data, t + dt, grid)
    span = hi.t - lo.t

    da0_dt = (hi.a0.values - lo.a0.values) / span
    dphi0_dt = (hi.phi0.values - lo.phi0.values) / span

    a0 = fields.a0.values
    phi0 = fields.phi0.values
    origin = grid.include_origin
    v = derivative_uniform(phi0, h, 1, left_parity="even", origin_on_grid=origin)
    da0 = derivative_uniform(a0, h, 1, left_parity="even", origin_on_grid=origin)
    div_v = _radial_divergence(v, grid, data.n, "odd")

    transport = da0_dt + v * da0 + 0.5 * a0 * div_v
    hjb = dphi0_dt + 0.5 * v ** 2 + data.lam * fields.V_P.values

    Vp = derivative_uniform(fields.V_P.values, h, 1, left_parity="even",
                            origin_on_grid=origin)
    flux = r ** (data.n - 1) * Vp       # parity (-1)^n across the origin
    poisson = -derivative_uniform(flux, h, 1,
                                  left_parity="odd" if data.n % 2 else "even",
                                  origin_on_grid=origin) \
        - r ** (data.n - 1) * np.abs(a0) ** 2

    return (RadialProfile(grid, transport),
            RadialProfile(grid, hjb),
            RadialProfile(grid, poisson))


# ---------------------------------------------------------------------------
# first corrector
# ---------------------------------------------------------------------------

def _background(data: InitialData, grid: RadialGrid, t: float) -> dict:
    """Eulerian leading-order coefficients on the nodes at time t, with the
    labels R they come from."""
    R = invert_flow_map(data, t, grid.nodes)
    st = explicit_characteristics(data, t, R)
    a0 = data.amplitude_at(R) / np.sqrt(st.J)
    da0 = derivative_uniform(a0, grid.dr, 1, left_parity="even",
                             origin_on_grid=grid.include_origin)
    return {"R": R, "a0": a0, "da0": da0,
            "lap_a0": _radial_laplacian(a0, grid, data.n, "even"),
            "lap_phi0": _radial_divergence(st.Xdot, grid, data.n, "odd")}


def first_corrector(data: InitialData, t_end: float,
                    grid: RadialGrid | None = None,
                    dt: float | None = None,
                    sample_times=None) -> CorrectorSeries:
    """March the first linearized pair (a1, phi1) to t_end.

    Semi-Lagrangian Crank-Nicolson: both fields ride the leading-order
    characteristics exactly, and the reaction terms (amplitude-phase coupling,
    the dispersive source  i/2 * Lap a0, and the Hartree feedback) are treated
    by trapezoidal fixed-point iteration.  a1(0) = 0, phi1(0) = 0.
    """
    if t_end <= 0:
        raise ParameterError("t_end must be positive")
    if grid is None:
        grid = RadialGrid(data.r_max, 2049)
    r, h = grid.nodes, grid.dr
    n, lam = data.n, data.lam
    c_old = _background(data, grid, 0.0)

    vmax = float(np.max(np.abs(data.v0_at(r))))
    dt_cfl = 0.5 * h / vmax if vmax > 0 else np.inf
    if dt is None:
        dt = min(1e-3, dt_cfl)
    elif vmax > 0 and dt > dt_cfl * (1 + 1e-12):
        raise StepRejectionError(
            f"dt = {dt:.3e} exceeds the transport step rule "
            f"0.5*dr/max|v0| = {dt_cfl:.3e}")

    a1 = np.zeros(grid.points, dtype=complex)
    p1 = np.zeros(grid.points)

    if sample_times is None:
        sample_times = [t_end]
    sample_times = sorted(float(s) for s in sample_times)
    out_t, out_a1, out_p1 = [], [], []

    def record(tv):
        out_t.append(tv)
        out_a1.append(RadialProfile(grid, a1.copy()))
        out_p1.append(RadialProfile(grid, p1.copy()))

    if sample_times and sample_times[0] == 0.0:
        record(0.0)
        sample_times = sample_times[1:]

    def reaction(c, a1v, p1v):
        dp1 = derivative_uniform(p1v, h, 1, left_parity="even",
                                 origin_on_grid=grid.include_origin)
        lap_p1 = _radial_laplacian(p1v, grid, n, "even")
        rhs_a = (-dp1 * c["da0"]
                 - 0.5 * (c["a0"] * lap_p1 + a1v * c["lap_phi0"])
                 + 0.5j * c["lap_a0"])
        src = np.real(c["a0"] * np.conj(a1v))
        rhs_p = -2.0 * lam * hartree_potential(src, r, n)
        return rhs_a, rhs_p

    t = 0.0
    eps_t = 1e-12 * max(t_end, 1.0)
    while t < t_end - eps_t:
        step = min(dt, t_end - t)
        if sample_times and sample_times[0] < t + step - eps_t:
            step = max(sample_times[0] - t, eps_t)
        t_new = t + step
        c_new = _background(data, grid, t_new)

        rhs_a_old, rhs_p_old = reaction(c_old, a1, p1)
        qa = a1 + 0.5 * step * rhs_a_old
        qp = p1 + 0.5 * step * rhs_p_old
        # feet at the old time of the characteristics through the nodes
        X = explicit_characteristics(data, t_new - step, c_new["R"]).X
        dep = np.clip(X, r[0], r[-1])
        qa = RadialProfile(grid, qa)(dep)
        qp = RadialProfile(grid, qp)(dep)

        a1_new, p1_new = qa.copy(), qp.copy()
        for _ in range(N_PICARD):
            rhs_a_new, rhs_p_new = reaction(c_new, a1_new, p1_new)
            a1_last, p1_last = a1_new, p1_new
            a1_new = qa + 0.5 * step * rhs_a_new
            p1_new = qp + 0.5 * step * rhs_p_new
        change = max(np.max(np.abs(a1_new - a1_last)),
                     np.max(np.abs(p1_new - p1_last)))
        scale = max(np.max(np.abs(a1_new)), np.max(np.abs(p1_new)))
        if change > PICARD_TOL * scale:
            raise StepRejectionError(
                f"corrector fixed point did not settle at t = {t_new:.6g}: "
                f"the last of {N_PICARD} sweeps moved the state by "
                f"{change / scale:.3e} of its size")

        a1, p1, t, c_old = a1_new, np.real(p1_new), t_new, c_new
        if sample_times and t >= sample_times[0] - eps_t:
            record(t)
            sample_times = sample_times[1:]

    if not out_t or out_t[-1] < t_end - eps_t:
        record(t)
    return CorrectorSeries(times=np.asarray(out_t), a1=out_a1, phi1=out_p1,
                           grid=grid)
