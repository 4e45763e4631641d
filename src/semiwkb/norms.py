"""L^2 and the slow-decay Y-norm of radial profiles, and log-log decay fitting.

Norms of radial functions on R^n carry the full angular factor, e.g.
||1_{r<1}||_{L^2(R^3)}^2 = 4 pi / 3.  The slow-decay norm of a radial scalar
a(r) is

    Y(a) = ||a||_{L^2} + ||grad a||_{L^2} + ||grad^2 a||_{L^2},

with |grad a| = |a'| and the Hessian magnitude |grad^2 a|^2 = |a''|^2 +
(n-1) |a'/r|^2.  In dimension 3 the L^2 norms of the two Hessian terms are
taken by Plancherel on the type-I sine transform of r times the term (the
exact 3D radial Fourier representation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dst

from .errors import DomainError, ParameterError, ResolutionError
from .grids import RadialProfile, derivative_uniform, over_r, trapezoid_weights

__all__ = ["NormReport", "DecayFit", "sphere_area", "lp_norm",
           "norm_diagnostics", "decay_fit"]


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class NormReport:
    t: float | None
    l2: float
    y_norm: float


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


def _l2(values: np.ndarray, r: np.ndarray, n: int) -> float:
    """||g||_{L^2(R^n)} of a real radial function; in n = 3 by Plancherel on
    the type-I sine transform of r*g, otherwise by ``lp_norm``."""
    if n != 3:
        return float(np.sqrt(lp_norm(values, r, n, 2) ** 2))
    if len(r) < 64:
        raise ResolutionError("need at least 64 nodes for the spectral norm")
    dr = r[1] - r[0]
    h = r * values
    if r[0] == 0.0:
        h = h[1:]
    # Dirichlet box [0, L] with L one cell past the last node
    L = r[-1] + dr
    y = dst(h, type=1)                      # 2 * sum h_j sin(pi m j/(M+1))
    # ||g||^2 = 8 int S(k)^2 dk, S(k_m) ~ (dr/2) y_m, dk = pi/L
    return float(np.sqrt(2.0 * np.pi * dr * dr / L * np.sum(np.abs(y) ** 2)))


def _parts(values: np.ndarray) -> tuple:
    return (values.real, values.imag) if np.iscomplexobj(values) else (values,)


def norm_diagnostics(profile: RadialProfile, n: int,
                     t: float | None = None) -> NormReport:
    """||a||_{L^2} and the slow-decay norm Y(a) of a radial scalar profile,
    real or complex (real and imaginary parts are differentiated apart)."""
    r = profile.grid.nodes
    vals = profile.values
    dr, origin = r[1] - r[0], r[0] == 0.0

    def derivative(order):
        d = [derivative_uniform(v, dr, order, left_parity="even",
                                origin_on_grid=origin) for v in _parts(vals)]
        return d[0] + 1j * d[1] if len(d) == 2 else d[0]

    f1, f2 = derivative(1), derivative(2)
    h2 = 0.0
    for comp, weight in ((f2, 1.0), (over_r(f1, r, f2[0]), n - 1.0)):
        h2 += weight * sum(_l2(c, r, n) ** 2 for c in _parts(comp))
    l2 = lp_norm(vals, r, n, 2)
    y = l2 + lp_norm(f1, r, n, 2) + float(np.sqrt(h2))
    return NormReport(t=t, l2=l2, y_norm=y)


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
