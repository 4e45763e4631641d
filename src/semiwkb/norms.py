"""L^2 and the slow-decay Y-norm of radial profiles, and log-log decay fitting.

Norms of radial functions on R^n carry the full angular factor, e.g.
||1_{r<1}||_{L^2(R^3)}^2 = 4 pi / 3.  The slow-decay norm of a radial scalar
a(r) is

    Y(a) = ||a||_{L^2} + ||grad a||_{L^2} + ||grad^2 a||_{L^2},

with |grad a| = |a'| and the Hessian magnitude |grad^2 a|^2 = |a''|^2 +
(n-1) |a'/r|^2.  All three terms are L^2 norms taken by ``lp_norm`` (the
trapezoid rule in r with weight r^(n-1), plus the origin end term in n = 2)
with the profile's 4th-order stencils and the even parity of a radial field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .grids import RadialProfile, over_r

__all__ = ["NormReport", "DecayFit", "sphere_area", "lp_norm",
           "norm_diagnostics", "decay_fit", "FIT_MIN_SAMPLES", "FIT_MIN_SPAN"]

# decay_fit's floor: this many samples, with t_max/t_min at least two
# decades less a round-off margin
FIT_MIN_SAMPLES = 8
FIT_MIN_SPAN = 99.999


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
    if not p >= 1:     # NaN and -inf fail too
        raise ParameterError("p must be in [1, inf]")
    mag = np.abs(values)
    if np.isinf(p):
        return float(np.max(mag))
    dr = np.diff(r)
    w = np.zeros_like(r)
    w[:-1] += 0.5 * dr
    w[1:] += 0.5 * dr
    total = np.sum(mag ** p * r ** (n - 1) * w)
    if n == 2 and r[0] == 0.0:     # Euler-Maclaurin end term of r |f|^p at 0
        total += dr[0] ** 2 / 12.0 * mag[0] ** p
    return float((sphere_area(n) * total) ** (1.0 / p))


def norm_diagnostics(profile: RadialProfile, n: int,
                     t: float | None = None) -> NormReport:
    """||a||_{L^2} and the slow-decay norm Y(a) of a radial scalar profile,
    real or complex."""
    r = profile.grid.nodes
    f1, f2 = (profile.derivative(k, left_parity="even") for k in (1, 2))
    hess = np.sqrt(lp_norm(f2, r, n, 2) ** 2
                   + (n - 1.0) * lp_norm(over_r(f1, r, f2[0]), r, n, 2) ** 2)
    l2 = lp_norm(profile.values, r, n, 2)
    y = l2 + lp_norm(f1, r, n, 2) + float(hess)
    return NormReport(t=t, l2=l2, y_norm=y)


def decay_fit(times, values) -> DecayFit:
    """Least-squares slope of log(value) against log(t) over all samples.

    Requires at least FIT_MIN_SAMPLES samples spanning FIT_MIN_SPAN (two
    decades); values must be positive.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ParameterError("times and values must be matching 1D arrays")
    if len(t) < FIT_MIN_SAMPLES:
        raise ParameterError(f"need at least {FIT_MIN_SAMPLES} samples")
    if t[-1] <= 0 or t[0] <= 0 or np.any(np.diff(t) <= 0):
        raise ParameterError("times must be positive and increasing")
    if t[-1] / t[0] < FIT_MIN_SPAN:
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
