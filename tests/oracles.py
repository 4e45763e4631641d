"""Diagnostics that only the tests call: each reads a field the package
computes and returns a quantity the tests hold against a closed form or a
bound.  No scenario, CLI path or benchmark uses them."""

import numpy as np

from semiwkb import RadialProfile, SemiwkbError, wkb
from semiwkb.grids import derivative_uniform

VELOCITY_FLOOR = 1e-8          # |u| mask threshold, relative to max|u|


class DivisionGuardError(SemiwkbError, ValueError):
    """A formula requires dividing by a field that vanishes on the grid."""


def current_velocity(u) -> RadialProfile:
    """Gauge-invariant current velocity eps*Im(conj(u) u')/|u|^2 of a
    ``WaveField``, from the grid's fourth-order stencil (even about the
    origin).

    Evaluated where |u| exceeds 1e-8 of its max and set to zero elsewhere.
    """
    mag = np.abs(u.values)
    du = derivative_uniform(u.values, u.grid, 1, "even")
    mask = mag > VELOCITY_FLOOR * max(float(mag.max()), 1e-300)
    vel = np.zeros_like(mag)
    vel[mask] = u.eps * np.imag(np.conj(u.values[mask]) * du[mask]) / mag[mask] ** 2
    return RadialProfile(u.grid, vel)


def phase_time_constant(data, t: float) -> float:
    """phi0(t, 0): the additive phase constant accumulated at the origin."""
    return float(wkb._potential_term_nodes(data, t)[0])


def v0_identity_residual(A0: RadialProfile, v0: RadialProfile, lam: float,
                         n: int) -> RadialProfile:
    """Residual of the first-order identity tying v0 to the density.

    R(r) = (n-2)/2 * v0 + r*v0' - |lam|/(n-2) * rho0 r^2 / v0, with v0'
    computed by the grid's differentiation stencil.  Vanishes for compatible
    phases up to discretization error.
    """
    r = A0.grid.nodes
    v = np.real(v0.values)
    rho = np.abs(A0.values) ** 2
    forcing = np.abs(lam) / (n - 2) * rho * r ** 2
    dead = v == 0.0
    if np.any(dead & (forcing > 0) & (r > 0)):
        raise DivisionGuardError(
            "v0 vanishes on an interior node where the density forcing is nonzero")
    vp = v0.derivative(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(dead, 0.0, forcing / np.where(dead, 1.0, v))
    res = 0.5 * (n - 2) * v + r * vp - quotient
    return RadialProfile(A0.grid, res)
