"""Radial grids, sampled radial profiles, differentiation stencils, quadrature."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .errors import DomainError, ParameterError

__all__ = [
    "RadialGrid",
    "RadialProfile",
    "fd_weights",
    "derivative_uniform",
    "over_r",
    "cumulative_radial",
    "trapezoid_weights",
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


def derivative_uniform(values: np.ndarray, dr: float, order: int = 1,
                       left_parity: str | None = None,
                       origin_on_grid: bool = True) -> np.ndarray:
    """4th-order derivative of samples on a uniform grid.

    Interior nodes use 5-point centered stencils; the two nodes at each end use
    6-point one-sided stencils.  ``left_parity`` ('even'|'odd') instead mirrors
    ghost nodes across r=0 at the left edge, for radial fields with known
    parity.  ``origin_on_grid`` states whether the first sample sits at r=0
    (mirror about node 0) or at r=dr (mirror about the off-grid origin).
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
        if origin_on_grid:
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
    return out / dr ** order


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

def cumulative_radial(y: np.ndarray, r: np.ndarray,
                      origin_exponent: float | None = None) -> np.ndarray:
    """Cumulative integral of y over [r[0], r] node by node.

    Composite Simpson over the nodes r.  When ``origin_exponent`` p is given
    and the grid starts at r=0, the first cell is integrated with the local
    model y ~ c*r^p (exact for power-law integrands, which are steep there for
    large p).
    """
    y = np.asarray(y)
    r = np.asarray(r, dtype=float)
    out = cumulative_simpson(y, x=r, initial=0.0)
    if origin_exponent is not None and r[0] == 0.0 and len(r) > 2:
        p = float(origin_exponent)
        if p <= -1:
            raise ParameterError("origin exponent must exceed -1 for integrability")
        first = y[1] * r[1] / (p + 1.0)
        out = out + (first - out[1])
        out[0] = 0.0
    return out


def trapezoid_weights(r: np.ndarray) -> np.ndarray:
    w = np.zeros_like(r)
    dr = np.diff(r)
    w[:-1] += 0.5 * dr
    w[1:] += 0.5 * dr
    return w


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class RadialProfile:
    """A real- or complex-valued function of radius sampled on a RadialGrid.

    Carries its grid, supports cubic-spline interpolation and 4th-order
    node-wise differentiation.  Instances are treated as immutable values.
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

    def _interpolator(self):
        if self._spline is None:
            r = self.grid.nodes
            if self.is_complex:
                re = CubicSpline(r, self.values.real)
                im = CubicSpline(r, self.values.imag)
                fn = lambda x: re(x) + 1j * im(x)
            else:
                fn = CubicSpline(r, self.values)
            object.__setattr__(self, "_spline", fn)
        return self._spline

    def __call__(self, radii):
        radii = np.asarray(radii, dtype=float)
        r = self.grid.nodes
        if np.any(radii < r[0] - 1e-12) or np.any(radii > r[-1] + 1e-12):
            raise ParameterError("interpolation outside the profile grid")
        return self._interpolator()(np.clip(radii, r[0], r[-1]))

    def derivative(self, order: int = 1, left_parity: str | None = None) -> np.ndarray:
        return derivative_uniform(self.values, self.grid.dr, order,
                                  left_parity=left_parity,
                                  origin_on_grid=self.grid.include_origin)

    def __repr__(self):
        kind = "complex" if self.is_complex else "real"
        return (f"RadialProfile({kind}, points={self.grid.points}, "
                f"r_max={self.grid.r_max})")
