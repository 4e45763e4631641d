"""Radial Lebesgue/Sobolev norm evaluation and log-log decay fitting.

Norms of radial functions on R^n carry the full angular factor, e.g.
||1_{r<1}||_{L^2(R^3)}^2 = 4 pi / 3.  Radial vector fields f(r) x/|x| use the
exact gradient magnitudes

    |grad w|^2  = f'^2 + (n-1) f^2/r^2,
    |grad^2 w|^2 = f''^2 + (n-1) ((f/r)')^2 + 2(n-1) ((f' - f/r)/r)^2,

and scalar fields the Hessian analogue f''^2 + (n-1)(f'/r)^2.  Fractional
Sobolev weights use the sine-transform representation of the 3D radial
Fourier transform; other dimensions fall back to integer-order derivative
sums (s - 2 in {0, 1, 2}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

from .errors import (DomainError, ParameterError, ResolutionError,
                     UnsupportedConfigurationError)
from .grids import RadialProfile, derivative_uniform, over_r, trapezoid_weights

__all__ = ["NormReport", "DecayFit", "sphere_area", "lp_norm",
           "sobolev_norm", "norm_diagnostics", "decay_fit"]


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class NormReport:
    t: float | None
    lp_norms: dict
    h_s: float
    y_norm: float
    grad_lq: float
    hess_hs2: float


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    stderr: float
    n_used: int


def lp_norm(values: np.ndarray, r: np.ndarray, n: int, p: float) -> float:
    """||f||_{L^p(R^n)} of a radial magnitude sampled on r."""
    mag = np.abs(values)
    if np.isinf(p):
        return float(np.max(mag))
    if p < 1:
        raise ParameterError("p must be in [1, inf]")
    w = trapezoid_weights(r)
    return float((sphere_area(n) * np.sum(mag ** p * r ** (n - 1) * w)) ** (1.0 / p))


def _derivs(values, r, parity):
    dr = r[1] - r[0]
    origin = r[0] == 0.0
    f1 = derivative_uniform(values, dr, 1, left_parity=parity, origin_on_grid=origin)
    f2 = derivative_uniform(values, dr, 2, left_parity=parity, origin_on_grid=origin)
    return f1, f2


def sobolev_norm(values: np.ndarray, r: np.ndarray, sigma: float, n: int,
                 parity: str = "even") -> float:
    """||g||_{H^sigma(R^n)} of a radial scalar function.

    n = 3 evaluates the spectral weights (1 + k^2)^sigma on the type-I sine
    transform of r*g (the exact 3D radial Fourier representation); other n
    support integer sigma in {0, 1, 2} by derivative sums.
    """
    if sigma < 0:
        raise ParameterError("sigma must be nonnegative")
    if n == 3:
        if len(r) < 64:
            raise ResolutionError("need at least 64 nodes for the spectral norm")
        dr = r[1] - r[0]
        h = r * values
        if r[0] == 0.0:
            h = h[1:]
        # Dirichlet box [0, L] with L one cell past the last node
        L = r[-1] + dr
        M = len(h)
        y = dst(h, type=1)                      # 2 * sum h_j sin(pi m j/(M+1))
        k = np.pi * np.arange(1, M + 1) / L
        s2 = np.sum((1.0 + k * k) ** sigma * np.abs(y) ** 2)
        # ||g||^2 = 8 int (1+k^2)^sigma S(k)^2 dk, S(k_m) ~ (dr/2) y_m, dk = pi/L
        return float(np.sqrt(2.0 * np.pi * dr * dr / L * s2))
    if sigma not in (0.0, 1.0, 2.0):
        raise UnsupportedConfigurationError(
            "fractional Sobolev order is only available in dimension 3")
    total = lp_norm(values, r, n, 2) ** 2
    if sigma >= 1:
        f1, f2 = _derivs(values, r, parity)
        total += lp_norm(f1, r, n, 2) ** 2
        if sigma == 2:
            geo = over_r(f1, r, f2[0] if parity == "even" else 0.0)
            hess = np.sqrt(f2 ** 2 + (n - 1) * geo ** 2)
            total += lp_norm(hess, r, n, 2) ** 2
    return float(np.sqrt(total))


def norm_diagnostics(profile: RadialProfile, n: int, p: float = 2.0,
                     q: float = 2.0, s: float = 2.0, vector: bool = False,
                     t: float | None = None) -> NormReport:
    """Lebesgue, Sobolev, and composite slow-decay norms of a radial profile.

    ``vector=True`` treats the samples as the radial component of f(r) x/|x|
    (the natural reading for gradients of radial scalars).  The composite is
    ||f||_{L^p} + ||grad f||_{L^q} + ||grad^2 f||_{H^(s-2)}.
    """
    if not (1 <= p) or not (1 <= q):
        raise ParameterError("p and q must be in [1, inf]")
    if s < 2:
        raise ParameterError("smoothness index s must be >= 2")
    r = profile.grid.nodes
    vals = profile.values
    mag = np.abs(vals)

    exps = {2.0, float(p), float(q), np.inf}
    lp_map = {e: lp_norm(mag, r, n, e) for e in sorted(exps)}

    parity = "odd" if vector else "even"
    if np.iscomplexobj(vals):
        f1r, f2r = _derivs(vals.real, r, parity)
        f1i, f2i = _derivs(vals.imag, r, parity)
        f1 = f1r + 1j * f1i
        f2 = f2r + 1j * f2i
    else:
        f1, f2 = _derivs(vals, r, parity)

    if vector:
        geo = over_r(vals, r, f1[0])
        grad_mag = np.sqrt(np.abs(f1) ** 2 + (n - 1) * np.abs(geo) ** 2)
        comp = [(f2, 1.0),
                (derivative_uniform(geo, r[1] - r[0], 1, left_parity="even",
                                    origin_on_grid=r[0] == 0.0), n - 1.0),
                (over_r(f1 - geo, r, 0.0), 2.0 * (n - 1.0))]
    else:
        grad_mag = np.abs(f1)
        comp = [(f2, 1.0),
                (over_r(f1, r, f2[0]), n - 1.0)]

    grad_lq = lp_norm(grad_mag, r, n, q)

    sigma = float(s) - 2.0
    h2 = 0.0
    for comp_vals, weight in comp:
        cv = comp_vals
        if np.iscomplexobj(cv):
            h2 += weight * (sobolev_norm(cv.real, r, sigma, n) ** 2
                            + sobolev_norm(cv.imag, r, sigma, n) ** 2)
        else:
            h2 += weight * sobolev_norm(cv, r, sigma, n) ** 2
    hess = float(np.sqrt(h2))

    if np.iscomplexobj(vals):
        h_s = float(np.hypot(sobolev_norm(vals.real, r, float(s), n),
                             sobolev_norm(vals.imag, r, float(s), n)))
    else:
        h_s = sobolev_norm(vals, r, float(s), n)

    y = lp_map[float(p)] + grad_lq + hess
    return NormReport(t=t, lp_norms=lp_map, h_s=h_s, y_norm=y,
                      grad_lq=grad_lq, hess_hs2=hess)


def decay_fit(times, values) -> DecayFit:
    """Least-squares slope of log(value) against log(t) over all samples.

    Requires at least 8 samples spanning two decades; values must be positive.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ParameterError("times and values must be matching 1D arrays")
    if len(t) < 8:
        raise ParameterError("need at least 8 samples")
    if t[-1] <= 0 or t[0] <= 0 or np.any(np.diff(t) <= 0):
        raise ParameterError("times must be positive and increasing")
    if t[-1] / t[0] < 99.999:
        raise ParameterError("samples must span at least two decades in t")
    if np.any(v <= 0):
        raise DomainError("decay fit requires positive values")
    lt, lv = np.log(t), np.log(v)
    A = np.vstack([lt, np.ones_like(lt)]).T
    coef, res, *_ = np.linalg.lstsq(A, lv, rcond=None)
    dof = max(len(lt) - 2, 1)
    var = (res[0] / dof if res.size else 0.0) / max(np.sum((lt - lt.mean()) ** 2), 1e-300)
    return DecayFit(exponent=float(coef[0]), stderr=float(np.sqrt(var)),
                    n_used=len(t))
