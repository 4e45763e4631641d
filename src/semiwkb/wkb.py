"""Leading-order WKB fields with their self-consistent potential, the first
linearized corrector, and residual gauges for the limit hydrodynamic system.

The Eulerian leading-order pair is evaluated from its Lagrangian closed form:
with F = n v0/(2R), G = v0' + (n-2) v0/(2R) and X = R(1+Ft)^(2/n),

    a0(t, X) = A0(R) (1+Ft)^(-1/2) (1+Gt)^(-1/2),
    phi0(t, X) = Phi0(R) + K(t,R) + P(t,R),

where K integrates the kinetic Hamilton-Jacobi term along the characteristic,

    K = (v0^2/2) * Q_{(4-n)/n}(F, t),      Q_a(F,t) := [(1+Ft)^a - 1]/(aF),

and P integrates the attractive potential, reduced to label form by mass
transport:

    P = (n-2)/2 * integral_R^inf (v0(s)^2/s) * I(t,s) ds,
    I(t,s) = (G/F) Q_{(4-n)/n} + (1 - G/F) Q_{(4-2n)/n}.

Q_0 is the log branch (dimension 4).  P(t, 0) is the spatial constant often
written as a standalone function of time.  The first corrector is marched on
the labels R along the same closed-form flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ParameterError, StepRejectionError
from .euler_poisson import invert_flow_map, label_flow
from .grids import (RadialGrid, RadialProfile, cumulative_radial,
                    derivative_uniform, not_a_knot_spline, over_r, reaches,
                    sample_times as grid_sample_times, time_mesh)
from .profiles import InitialData

__all__ = [
    "WkbFields", "CorrectorSeries",
    "leading_amplitude", "leading_order",
    "limit_system_residual", "first_corrector",
]

# Coarse-fine time-error estimate max|y(dt/2) - y(dt)| / max|y(dt/2)|.
# Measured for chirp 1 on 2049 labels at T = 0.5: 1.6e-8 at dt = 2.5e-2,
# 3.95e-6 at the default 0.1 (max error of a1 2.8e-9 and of phi1 4.3e-9
# against dt = 1e-3), 1.4e-4 at 0.25, and 1.57e-3 at 0.5, which fails; on 513
# labels at T = 0.4: 4.3e-10 at 1e-2, 1.7e-8 at 2.5e-2, 4.2e-6 at 0.1 and
# 7.8e-4 at 0.4.
TIME_ERROR_TOL = 1e-3


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
    time_error: np.ndarray      # coarse-fine estimate at each sample time

    def at_final(self) -> tuple[RadialProfile, RadialProfile]:
        return self.a1[-1], self.phi1[-1]


# ---------------------------------------------------------------------------
# radial Poisson field
# ---------------------------------------------------------------------------

def hartree_potential(source: np.ndarray, r: np.ndarray, n: int,
                      X: np.ndarray | None = None, B=None) -> np.ndarray:
    """Solve -(x^(n-1) V')' = x^(n-1) * source radially (signed source allowed).

    Samples sit at x = X(r), dX/dr = B (default r and 1), integrated in r;
    X vanishes at the origin node only.
    n >= 3: the tail is closed analytically with the captured charge and V
    vanishes at infinity.  n <= 2, where no decaying solution exists: V(0) = 0.
    On the Dirichlet layout (r[0] > 0, nodes j*dr, j = 1..M) the source is a
    density: its origin sample (an even parabolic extrapolation, floored at
    zero) and its far-end Dirichlet zero put it on the origin grid of M+2
    nodes, and V is returned at the M nodes.  X and B are for the origin
    layout only; the corrector passes its labels, which are on that layout.
    """
    dirichlet = r[0] > 0
    if dirichlet:
        M = len(r)
        rho = np.zeros(M + 2)
        rho[1:-1] = source
        rho[0] = max((4.0 * source[0] - source[1]) / 3.0, 0.0)
        source, (r, area) = rho, _origin_frame(r[0], M, n)
        X = r
    else:
        X = r if X is None else X
        area = X ** (n - 1)
    y = source * area
    if B is not None:
        y *= B
    m = cumulative_radial(y, r)
    h = np.empty_like(m)       # m / area, with its limit 0 at the origin
    h[0] = 0.0
    np.divide(m[1:], area[1:], out=h[1:])
    if B is not None:
        h *= B
    H = cumulative_radial(h, r)
    if n <= 2:
        V = H[0] - H
    else:
        V = (H[-1] - H) + m[-1] * X[-1] ** (2 - n) / (n - 2)
    return V[1:-1] if dirichlet else V


@lru_cache(maxsize=8)
def _origin_frame(dr: float, M: int, n: int):
    """The M+2 nodes j*dr, j = 0..M+1, of the origin grid under a Dirichlet
    grid of M nodes, and their r^(n-1), read-only."""
    r = RadialGrid(dr * (M + 1), M + 2).nodes
    area = r ** (n - 1)
    area.setflags(write=False)
    return r, area


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
    from scipy.integrate import quad  # loaded at first use
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
    v0, F, G = data.node_rates
    w = over_r(v0 ** 2, r, 0.0) * _I_kernel(data.n, t, F, G)
    Wc = cumulative_radial(w, r)
    tail = _potential_tail(data, t)
    return 0.5 * (data.n - 2) * (tail + Wc[-1] - Wc)


def leading_amplitude(data: InitialData, t: float,
                      grid: RadialGrid) -> RadialProfile:
    """The leading-order amplitude a0 at time t, equal to ``leading_order``'s
    without its phase or potential."""
    flow = invert_flow_map(data, t, grid.nodes)
    return RadialProfile(grid, data.amplitude_at(flow.R)
                         / np.sqrt(flow.at(t).J))


def leading_order(data: InitialData, t: float, grid: RadialGrid) -> WkbFields:
    """Eulerian leading-order WKB fields (a0, phi0, V_P) at time t.

    Lagrangian closed forms are pulled back through the monotone inverse of
    the flow map; the potential is recomputed from |a0|^2 so the Poisson
    equation holds in the discrete sense.  Uncoupled data at rest (lam = 0,
    v0 = 0) rides the same flow with X = R: its fields stay at their initial
    values.
    """
    flow = invert_flow_map(data, t, grid.nodes)
    R = flow.R
    a0 = data.amplitude_at(R) / np.sqrt(flow.at(t).J)

    P = RadialProfile(data.grid, _potential_term_nodes(data, t))
    kinetic = 0.5 * flow.v0 ** 2 * _Q((4.0 - data.n) / data.n, flow.F, t)
    phi0 = data.phi0_at(R) + kinetic + P(R)

    V_P = hartree_potential(np.abs(a0) ** 2, grid.nodes, data.n)
    return WkbFields(t=float(t), a0=RadialProfile(grid, a0),
                     phi0=RadialProfile(grid, phi0),
                     V_P=RadialProfile(grid, V_P))


# ---------------------------------------------------------------------------
# residual gauges
# ---------------------------------------------------------------------------

def _radial_divergence(values: np.ndarray, grid: RadialGrid, n: int,
                       parity: str) -> np.ndarray:
    """(1/r^(n-1)) d/dr (r^(n-1) f) = f' + (n-1) f / r with origin limit."""
    fp = derivative_uniform(values, grid, 1, parity)
    return fp + (n - 1) * over_r(values, grid.nodes, fp[0])


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
    t = fields.t
    lo = leading_order(data, max(t - dt, 0.0), grid)
    hi = leading_order(data, t + dt, grid)
    span = hi.t - lo.t

    da0_dt = (hi.a0.values - lo.a0.values) / span
    dphi0_dt = (hi.phi0.values - lo.phi0.values) / span

    a0 = fields.a0.values
    phi0 = fields.phi0.values
    v = derivative_uniform(phi0, grid, 1, "even")
    da0 = derivative_uniform(a0, grid, 1, "even")
    div_v = _radial_divergence(v, grid, data.n, "odd")

    transport = da0_dt + v * da0 + 0.5 * a0 * div_v
    hjb = dphi0_dt + 0.5 * v ** 2 + data.lam * fields.V_P.values

    Vp = derivative_uniform(fields.V_P.values, grid, 1, "even")
    flux = r ** (data.n - 1) * Vp       # parity (-1)^n across the origin
    poisson = -derivative_uniform(flux, grid, 1,
                                  "odd" if data.n % 2 else "even") \
        - r ** (data.n - 1) * np.abs(a0) ** 2

    return (RadialProfile(grid, transport),
            RadialProfile(grid, hjb),
            RadialProfile(grid, poisson))


# ---------------------------------------------------------------------------
# first corrector
# ---------------------------------------------------------------------------

def _label_derivatives(values: np.ndarray, st, grid: RadialGrid,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """d/dX = (1/B) d/dR and Lap_X of an even field sampled on the labels."""
    def d_dX(f, parity):
        return derivative_uniform(f, grid, 1, parity) / st.B

    fx = d_dX(values, "even")
    fxx = d_dX(fx, "odd")
    return fx, fxx + (n - 1) * over_r(fx, st.X, fxx[0])


def _rk4_step(reaction, c0, c_half, c1, a1, p1, step):
    """One classical Runge-Kutta step of the reaction terms, with the
    backgrounds c0, c_half and c1 at the start, middle and end of the step."""
    k1 = reaction(c0, a1, p1)
    k2 = reaction(c_half, a1 + 0.5 * step * k1[0], p1 + 0.5 * step * k1[1])
    k3 = reaction(c_half, a1 + 0.5 * step * k2[0], p1 + 0.5 * step * k2[1])
    k4 = reaction(c1, a1 + step * k3[0], p1 + step * k3[1])
    return tuple(y + step / 6.0 * (s1 + 2.0 * (s2 + s3) + s4)
                 for y, s1, s2, s3, s4 in zip((a1, p1), k1, k2, k3, k4))


def first_corrector(data: InitialData, t_end: float,
                    grid: RadialGrid,
                    dt: float = 0.1,
                    sample_times=None) -> CorrectorSeries:
    """March the first linearized pair (a1, phi1) from zero to t_end.

    The state lives on the labels R = grid.nodes, which ride the closed-form
    characteristics, so no transport term is left.  The reaction terms
    (amplitude-phase coupling, the dispersive source i/2 * Lap a0, and the
    Hartree feedback) are a non-stiff linear ODE and take classical
    Runge-Kutta steps.  d/dX = (1/B) d/dR, and Lap phi0 = F/(1+Ft) + G/(1+Gt)
    is exact.

    Two marches run side by side: a coarse one with steps of dt on
    ``grids.time_mesh``, which lands on each sample time and t_end, and a fine
    one that takes every coarse step as two equal halves.  The error of each is
    fourth order in the step, and the returned state (16 y_fine - y_coarse)/15
    is fifth order in time.  At each sample time max|y_fine - y_coarse| /
    max|y_fine| over (a1, phi1) is the time-error estimate (``time_error``);
    above TIME_ERROR_TOL the call raises StepRejectionError.  One flow-map
    inversion then pulls the combined state back to the nodes of ``grid``,
    which must have the origin layout (the Hartree feedback is solved on them).
    At t_end = 0 the one sample is the zero state, with time error 0.
    """
    if t_end < 0 or dt <= 0:
        raise ParameterError("t_end must be nonnegative and dt positive")
    samples = grid_sample_times([t_end, *(sample_times or ())], t_end)
    R = grid.nodes
    if R[0] > 0:
        raise ParameterError("the corrector's labels must include the origin")
    n, lam = data.n, data.lam
    flow = label_flow(data, R)
    F, G = flow.F, flow.G
    A0 = data.amplitude_at(R)

    def background(t):
        st = flow.at(t)
        a0 = A0 / np.sqrt(st.J)
        da0, lap_a0 = _label_derivatives(a0, st, grid, n)
        return {"st": st, "a0": a0, "da0": da0, "lap_a0": lap_a0,
                "lap_phi0": F / (1.0 + F * t) + G / (1.0 + G * t)}

    def reaction(c, a1v, p1v):
        dp1, lap_p1 = _label_derivatives(p1v, c["st"], grid, n)
        rhs_a = (-dp1 * c["da0"]
                 - 0.5 * (c["a0"] * lap_p1 + a1v * c["lap_phi0"])
                 + 0.5j * c["lap_a0"])
        src = np.real(c["a0"] * np.conj(a1v))
        rhs_p = -2.0 * lam * hartree_potential(src, R, n, c["st"].X, c["st"].B)
        return rhs_a, rhs_p

    coarse = fine = (np.zeros(grid.points, dtype=complex),
                     np.zeros(grid.points))
    out_t, out_a1, out_p1, out_err = [], [], [], []

    def record(tv):
        diff = max(np.max(np.abs(f - c)) for f, c in zip(fine, coarse))
        size = max(np.max(np.abs(f)) for f in fine)
        err = diff / size if size > 0 else 0.0
        if err > TIME_ERROR_TOL:
            raise StepRejectionError(
                f"corrector time-error estimate {err:.3e} at t = {tv:.6g} "
                f"exceeds {TIME_ERROR_TOL:g}: take a smaller dt than {dt:g}")
        a1, p1 = ((16.0 * f - c) / 15.0 for f, c in zip(fine, coarse))
        labels = invert_flow_map(data, tv, R).R
        state = not_a_knot_spline(
            R, np.column_stack([a1.real, a1.imag, p1]))(labels)
        out_t.append(tv)
        out_a1.append(RadialProfile(grid, state[:, 0] + 1j * state[:, 1]))
        out_p1.append(RadialProfile(grid, state[:, 2]))
        out_err.append(err)

    def visit(tv):
        while samples and reaches(tv, samples[0], t_end):
            record(tv)
            samples.pop(0)

    visit(0.0)      # at t_end = 0 this takes the one sample, and none is left
    mesh = time_mesh(t_end, dt, stops=tuple(samples)) if samples else ()
    t, c_old = 0.0, background(0.0)
    for step, t_new in mesh:
        c_q1, c_mid, c_q3, c_new = (background(t + q * step)
                                    for q in (0.25, 0.5, 0.75, 1.0))
        coarse = _rk4_step(reaction, c_old, c_mid, c_new, *coarse, step)
        fine = _rk4_step(reaction, c_old, c_q1, c_mid, *fine, 0.5 * step)
        fine = _rk4_step(reaction, c_mid, c_q3, c_new, *fine, 0.5 * step)
        t, c_old = t_new, c_new
        visit(t)

    return CorrectorSeries(times=np.asarray(out_t), a1=out_a1, phi1=out_p1,
                           grid=grid, time_error=np.asarray(out_err))
