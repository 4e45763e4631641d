"""Radial grids, sampled radial profiles, stencils, quadrature, time mesh."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import solve_banded

from .errors import DomainError, ParameterError

__all__ = [
    "RadialGrid",
    "RadialProfile",
    "fd_weights",
    "derivative_uniform",
    "over_r",
    "cumulative_radial",
    "not_a_knot_spline",
    "LANDING_TOL", "sample_times", "time_mesh",
]


@dataclass(frozen=True)
class RadialGrid:
    """A uniform 1D radial grid on [0, r_max].

    ``include_origin=True`` places nodes at j*dr, j=0..points-1 with the last node
    at r_max.  ``include_origin=False`` places nodes at j*dr, j=1..points with
    dr = r_max/(points+1), so both r=0 and r=r_max are off-grid (Dirichlet ends,
    the layout the wave solver needs).
    """

    r_max: float
    points: int
    include_origin: bool = True

    def __post_init__(self):
        if self.r_max <= 0:
            raise ParameterError(f"r_max must be positive, got {self.r_max}")
        if self.points < 16:
            raise ParameterError(f"need at least 16 grid points, got {self.points}")

    @property
    def nodes(self) -> np.ndarray:
        return _grid_nodes(self.r_max, self.points, self.include_origin)

    @property
    def dr(self) -> float:
        if self.include_origin:
            return self.r_max / (self.points - 1)
        return self.r_max / (self.points + 1)

    def descriptor(self) -> dict:
        # "spacing" and "stretch" stay as constants: data hashes, run headers
        # and profile descriptors are computed over these keys.
        return {
            "r_max": self.r_max,
            "points": self.points,
            "spacing": "uniform",
            "include_origin": self.include_origin,
            "stretch": 1.0,
        }


@lru_cache(maxsize=64)
def _grid_nodes(r_max, points, include_origin):
    if include_origin:
        r = np.linspace(0.0, r_max, points)
    else:
        dr = r_max / (points + 1)
        r = dr * np.arange(1, points + 1)
    r.setflags(write=False)
    return r


# ---------------------------------------------------------------------------
# finite-difference stencils (Fornberg weights)
# ---------------------------------------------------------------------------

def fd_weights(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for derivatives 0..m at x0 from nodes x.

    Fornberg's recursive algorithm; returns array of shape (m+1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    w = np.zeros((m + 1, n))
    c1 = 1.0
    c4 = x[0] - x0
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w


@lru_cache(maxsize=16)
def _uniform_stencils(order: int):
    """(interior 5-pt centered, list of 6-pt one-sided rows for each edge node)."""
    grid5 = np.arange(-2.0, 3.0)
    interior = fd_weights(grid5, 0.0, order)[order]
    grid6 = np.arange(6.0)
    edge = [fd_weights(grid6, float(i), order)[order] for i in range(2)]
    return interior, edge


def derivative_uniform(values: np.ndarray, grid: RadialGrid, order: int = 1,
                       left_parity: str | None = None) -> np.ndarray:
    """4th-order derivative of samples on the nodes of ``grid``.

    Interior nodes use 5-point centered stencils; the two nodes at each end use
    6-point one-sided stencils.  ``left_parity`` ('even'|'odd') instead mirrors
    ghost nodes across r=0 at the left edge, for radial fields with known
    parity: about node 0 on the origin layout, about the off-grid origin on
    the Dirichlet layout.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n < 6:
        raise ParameterError("need at least 6 samples to differentiate")
    interior, edge = _uniform_stencils(order)

    out = np.empty_like(values, dtype=np.result_type(values.dtype, float))
    out[2:-2] = sum(interior[k] * values[k:n - 4 + k] for k in range(5))

    if left_parity is None:
        for i in range(2):
            out[i] = edge[i] @ values[:6]
    else:
        if left_parity not in ("even", "odd"):
            raise ParameterError(f"unknown parity {left_parity!r}")
        sign = 1.0 if left_parity == "even" else -1.0
        if grid.include_origin:
            # nodes 0, dr, 2dr...: ghosts at -2dr, -dr mirror nodes 2, 1
            ghosts = np.array([sign * values[2], sign * values[1]])
        else:
            # nodes dr, 2dr...: ghosts at -dr and 0; f(0) from parity
            if left_parity == "odd":
                f0 = 0.0 * values[0]
            else:
                f0 = (15.0 * values[0] - 6.0 * values[1] + values[2]) / 10.0
            ghosts = np.array([sign * values[0], f0])
        ext = np.concatenate([ghosts, values[:4]])
        for i in range(2):
            out[i] = interior @ ext[i:i + 5]

    for i in range(2):
        out[n - 1 - i] = ((-1) ** order) * (edge[i] @ values[::-1][:6])
    return out / grid.dr ** order


def over_r(values: np.ndarray, r: np.ndarray, limit) -> np.ndarray:
    """values / r at r > 0, with ``limit`` at a node on the origin."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(r > 0, values / r, 0.0)
    if r[0] == 0.0:
        out[0] = limit
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def cumulative_radial(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cumulative integral of y over [r[0], r] node by node, exact for cubics.

    On the uniform spacing h of r, the even nodes take composite Simpson as
    ``scipy.integrate.cumulative_simpson`` lays it out.  Odd node 2k+1 adds
    h/24*(9, 19, -5, 1) on nodes 2k..2k+3 to node 2k.  The last odd node,
    which cannot reach four nodes, takes that panel mirrored onto the last
    four nodes: back from node N-1 when N is odd, forward from node N-2 when
    it is node N-1 itself.
    """
    y = np.asarray(y)
    r = np.asarray(r, dtype=float)
    N = len(y)
    h = (r[-1] - r[0]) / (N - 1)
    out = np.zeros(N, dtype=np.result_type(y, float))
    np.cumsum(y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2], out=out[2::2])
    out *= h / 3.0
    k = 2 * ((N - 2) // 2)
    out[1:k:2] = out[0:k:2] + h / 24.0 * (
        9.0 * y[0:k:2] + 19.0 * y[1:k:2] - 5.0 * y[2:k + 1:2] + y[3:k + 2:2])
    last = h / 24.0 * (y[-4] - 5.0 * y[-3] + 19.0 * y[-2] + 9.0 * y[-1])
    if N % 2:
        out[-2] = out[-1] - last
    else:
        out[-1] = out[-2] + last
    return out


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> PPoly:
    """The cubic spline through (x, y) with not-a-knot ends (de Boor, A
    Practical Guide to Splines, 1978), on columns of y along axis 0.

    For a strictly increasing float x of n >= 4 nodes and finite float y,
    the arithmetic is ``scipy.interpolate.CubicSpline(x, y)``'s, so the
    coefficients are its to the bit: the same banded system for the slopes
    s, the same solve and the same Hermite coefficients.  Its input
    validation and ``PPoly`` checks are skipped, since profiles hold
    validated samples.
    """
    n = len(x)
    if n < 4:
        raise ParameterError(f"a not-a-knot spline needs 4 nodes, got {n}")
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    A = np.zeros((3, n))
    b = np.empty(y.shape, dtype=y.dtype)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    A[1, 0] = dx[1]
    A[0, 1] = d = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    A[1, -1] = dx[-2]
    A[-1, -2] = d = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2]
             + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    s = solve_banded((1, 1), A, b.reshape(n, -1), overwrite_ab=True,
                     overwrite_b=True, check_finite=False).reshape(y.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return PPoly.construct_fast(c, x)


# ---------------------------------------------------------------------------
# time mesh
# ---------------------------------------------------------------------------

LANDING_TOL = 1e-9     # relative to t_end


def sample_times(times, t_end: float) -> list:
    """The times sorted, each one within ``LANDING_TOL * t_end`` of the last
    one kept merged into it; one outside [0, t_end] raises ParameterError."""
    tol, kept = LANDING_TOL * t_end, []
    for s in sorted(float(s) for s in times):
        if not 0.0 <= s <= t_end:
            raise ParameterError(f"time {s:g} lies outside [0, {t_end:g}]")
        if not kept or s > kept[-1] + tol:
            kept.append(s)
    return kept


def time_mesh(t_end: float, dt: float, stops=()):
    """Yield the (step, time) pairs of a fixed-step march from 0 to t_end.

    From 0 and from each of the sorted ``stops`` it steps by exactly dt to
    start + k*dt, and shortens the step onto the next stop or t_end unless
    start + k*dt is already within ``LANDING_TOL * t_end`` of it.  A requested
    time s is reached at the first mesh time >= s - LANDING_TOL * t_end."""
    if t_end <= 0 or dt <= 0:
        raise ParameterError("t_end and dt must be positive")
    tol, start = LANDING_TOL * t_end, 0.0
    for end in (*stops, t_end):
        base, k = start, 0
        while start < end - tol:
            k += 1
            prev, start = start, base + k * dt
            if start <= end + tol:
                yield dt, start
            else:
                start = end
                yield end - prev, end


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class RadialProfile:
    """A real- or complex-valued function of radius sampled on a RadialGrid.

    Carries its grid, supports cubic-spline interpolation (``profile(r, nu)``
    is the spline's nu-th derivative) and 4th-order node-wise differentiation.  Instances are treated as immutable values.
    """

    __slots__ = ("grid", "values", "_spline")

    def __init__(self, grid: RadialGrid, values):
        values = np.asarray(values)
        if values.shape != (grid.points,):
            raise ParameterError(
                f"profile has {values.shape} samples for a {grid.points}-point grid")
        if not np.all(np.isfinite(values)):
            raise DomainError("profile contains non-finite samples")
        if not np.iscomplexobj(values):
            values = values.astype(float, copy=True)
        else:
            values = values.astype(complex, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_spline", None)

    def __setattr__(self, name, value):
        raise AttributeError("RadialProfile is immutable")

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def with_values(self, values) -> "RadialProfile":
        return RadialProfile(self.grid, values)

    def _interpolator(self) -> PPoly:
        """One real spline, on the (re, im) columns for a complex profile."""
        if self._spline is None:
            values = self.values
            if self.is_complex:
                values = np.column_stack([values.real, values.imag])
            object.__setattr__(self, "_spline",
                               not_a_knot_spline(self.grid.nodes, values))
        return self._spline

    def __call__(self, radii, nu: int = 0):
        radii = np.asarray(radii, dtype=float)
        r = self.grid.nodes
        if (radii < r[0] - 1e-12).any() or (radii > r[-1] + 1e-12).any():
            raise ParameterError("interpolation outside the profile grid")
        out = self._interpolator()(np.clip(radii, r[0], r[-1]), nu)
        if self.is_complex:
            return out[..., 0] + 1j * out[..., 1]
        return out

    def derivative(self, order: int = 1, left_parity: str | None = None) -> np.ndarray:
        return derivative_uniform(self.values, self.grid, order, left_parity)

    def __repr__(self):
        kind = "complex" if self.is_complex else "real"
        return (f"RadialProfile({kind}, points={self.grid.points}, "
                f"r_max={self.grid.r_max})")
