"""Initial-data families: amplitudes, cumulative mass, the non-caustic phase,
and the critical-threshold function for the radial attractive problem."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import hashlib
import json

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedConfigurationError
from .grids import RadialGrid, RadialProfile, cumulative_radial

__all__ = [
    "smooth_cutoff",
    "sample_amplitude",
    "smooth_ball_amplitude",
    "cumulative_mass",
    "compatible_phase",
    "critical_threshold",
    "ExactFields",
    "InitialData",
    "build_initial_data",
    "ball_data",
    "smooth_ball_data",
    "sample_data",
    "free_data",
]

COMPATIBLE_TOL = 1e-8


def smooth_cutoff(r):
    """C-infinity cutoff: 1 for r <= 1, 0 for r >= 2, exp(-1/x) transition."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        up = np.where(r > 1.0, np.exp(-1.0 / np.maximum(r - 1.0, 1e-300)), 0.0)
        dn = np.where(r < 2.0, np.exp(-1.0 / np.maximum(2.0 - r, 1e-300)), 0.0)
    out = dn / (up + dn)
    return np.where(r <= 1.0, 1.0, np.where(r >= 2.0, 0.0, out))


def sample_amplitude(kappa: float, delta: float, n: int,
                     grid: RadialGrid) -> RadialProfile:
    """Amplitude r^kappa near the origin crossing over to r^(-n/2-delta).

    A0(r) = r^kappa * psi(r) + r^(-n/2-delta) * (1 - psi(r)) with the smooth
    cutoff psi.  Positive for r > 0; vanishes at the origin.
    """
    if kappa < 1:
        raise ParameterError(f"kappa must be >= 1, got {kappa}")
    if not (0.0 < delta <= 0.25):
        raise ParameterError(f"delta must lie in (0, 1/4], got {delta}")
    if n < 3:
        raise ParameterError(f"dimension must be >= 3, got {n}")
    r = grid.nodes
    psi = smooth_cutoff(r)
    with np.errstate(divide="ignore"):
        tail = np.where(r > 0, r ** (-n / 2.0 - delta), 0.0)
    vals = np.where(r > 0, r ** kappa * psi, 0.0) + tail * (1.0 - psi)
    if r[0] == 0.0:
        vals[0] = 0.0
    return RadialProfile(grid, vals)


def smooth_ball_amplitude(grid: RadialGrid,
                          height: float = 1.0) -> RadialProfile:
    """Mollified unit-ball amplitude: |A0|^2 is a logistic step of width 0.15.

    The logistic runs in r^2 so the radial field is a smooth (all odd
    derivatives vanish) function at the origin; the edge slope at r = 1
    matches a plain logistic of the same width.
    """
    r = grid.nodes
    arg = (r * r - 1.0) / (2.0 * 0.15)
    vals = height / np.sqrt(1.0 + np.exp(np.clip(arg, -700.0, 700.0)))
    return RadialProfile(grid, vals)


def cumulative_mass(rho0: RadialProfile, n: int) -> RadialProfile:
    """m0(r) = integral_0^r rho0(s) s^(n-1) ds on the profile's grid."""
    rho = np.real_if_close(rho0.values)
    if np.iscomplexobj(rho):
        raise DomainError("density must be real")
    if np.min(rho) < -1e-14 * max(np.max(np.abs(rho)), 1.0):
        raise DomainError("density has negative samples")
    r = rho0.grid.nodes
    integrand = np.clip(rho, 0.0, None) * r ** (n - 1)
    m = cumulative_radial(integrand, r)
    # the true mass is nondecreasing; project out the small negative steps
    # the quadrature's negative weights give where the integrand spans many
    # orders per cell
    m = np.maximum.accumulate(np.clip(m, 0.0, None))
    return RadialProfile(rho0.grid, m)


def compatible_phase(A0: RadialProfile, lam: float,
                     n: int) -> tuple[RadialProfile, RadialProfile]:
    """The unique phase whose velocity balances the attractive force exactly.

    v0(r) = sqrt(2|lam| m0(r) / ((n-2) r^(n-2))), Phi0(r) = int_0^r v0, with the
    additive constant fixed to zero.  Defined for lam < 0, n >= 3 only.
    """
    if lam >= 0:
        raise UnsupportedConfigurationError(
            "no non-caustic compatible phase exists for lam >= 0")
    if n < 3:
        raise UnsupportedConfigurationError(
            "the compatible phase requires dimension n >= 3")
    rho = np.abs(A0.values) ** 2
    return _compatible_phase(cumulative_mass(RadialProfile(A0.grid, rho), n),
                             lam, n)


def _compatible_phase(mass: RadialProfile, lam: float,
                      n: int) -> tuple[RadialProfile, RadialProfile]:
    """compatible_phase from the cumulative mass m0 it rests on."""
    r = mass.grid.nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.sqrt(2.0 * abs(lam) * mass.values / ((n - 2) * r ** (n - 2)))
    v = np.where(r > 0, v, 0.0)
    v = np.nan_to_num(v, nan=0.0)
    phi = cumulative_radial(v, r)
    return RadialProfile(mass.grid, phi), RadialProfile(mass.grid, v)


def _threshold_values(mass: np.ndarray, v: np.ndarray, lam: float, n: int,
                      r: np.ndarray) -> np.ndarray:
    pot = np.zeros_like(r)
    pos = r > 0
    pot[pos] = 2.0 * lam * mass[pos] / ((n - 2) * r[pos] ** (n - 2))
    return np.real(v) ** 2 + pot   # m0/r^(n-2) -> 0 at the origin


def critical_threshold(rho0: RadialProfile, v0: RadialProfile, lam: float,
                       n: int) -> RadialProfile:
    """C(r) = v0^2 + 2 lam m0(r) / ((n-2) r^(n-2)); sign decides global existence."""
    if n < 3:
        raise UnsupportedConfigurationError("the threshold C is defined for n >= 3 only")
    if rho0.grid is not v0.grid and not np.array_equal(rho0.grid.nodes, v0.grid.nodes):
        raise ParameterError("rho0 and v0 must share a grid")
    m = cumulative_mass(rho0, n)
    return RadialProfile(rho0.grid, _threshold_values(
        m.values, v0.values, lam, n, rho0.grid.nodes))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactFields:
    """Closed-form evaluators for families with known formulas (oracles)."""
    rho0: Callable[[np.ndarray], np.ndarray]
    m0: Callable[[np.ndarray], np.ndarray]
    v0: Callable[[np.ndarray], np.ndarray]
    v0_prime: Callable[[np.ndarray], np.ndarray]
    phi0: Callable[[np.ndarray], np.ndarray]
    amplitude: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class InitialData:
    """Full problem setup: dimension, coupling, amplitude, phase, mass, threshold.

    ``compatible`` marks data whose phase is the exact non-caustic one (then
    the threshold profile vanishes identically).  ``m_infinity`` is the total
    mass of the sampled density; the data is treated as exactly truncated at
    the grid edge, and the velocity/phase continue analytically beyond it with
    the vacuum tail v0 = tail_coeff * r^(1-n/2).
    """

    n: int
    lam: float
    amplitude: RadialProfile
    phase: RadialProfile
    velocity: RadialProfile
    mass: RadialProfile
    threshold: Optional[RadialProfile]
    kappa: Optional[float]
    delta: Optional[float]
    compatible: bool
    m_infinity: float
    tail_coeff: float
    exact: Optional[ExactFields] = None

    def __post_init__(self):
        m = self.mass.values
        if abs(m[0]) > 1e-12 * max(self.m_infinity, 1.0):
            raise DomainError("cumulative mass must vanish at the origin")
        if np.min(np.diff(m)) < -1e-12 * max(self.m_infinity, 1.0):
            raise DomainError("cumulative mass must be nondecreasing")
        if self.compatible and self.threshold is not None:
            scale = max(np.max(np.abs(self.velocity.values)) ** 2, 1e-30)
            if np.max(np.abs(self.threshold.values)) > COMPATIBLE_TOL * max(scale, 1.0):
                raise DomainError("compatible flag set but threshold is nonzero")

    # -- evaluators valid on [0, inf): grid data inside, analytic tail outside

    @property
    def grid(self) -> RadialGrid:
        return self.amplitude.grid

    @property
    def r_max(self) -> float:
        return float(self.grid.nodes[-1])

    def _continued(self, R, name, on_grid, beyond=None, closed=True,
                   dtype=float):
        """Field ``name`` at the labels R: the ``exact`` oracle when the data
        has one for it, else ``on_grid`` up to r_max (short of it unless
        ``closed``) and ``beyond`` past it (zero when None)."""
        R = np.atleast_1d(np.asarray(R, dtype=float))
        oracle = getattr(self.exact, name, None)
        if oracle is not None:
            return oracle(R)
        inside = R <= self.r_max if closed else R < self.r_max
        if inside.all():
            return on_grid(R)
        out = np.zeros_like(R, dtype=dtype)
        if inside.any():
            out[inside] = on_grid(R[inside])
        if beyond is not None:
            out[~inside] = beyond(R[~inside])
        return out

    def rho0_at(self, R):
        return self._continued(R, "rho0", lambda x: np.abs(self.amplitude(x)) ** 2)

    def m0_at(self, R):
        # clip spline undershoot: the true mass is nonnegative
        return self._continued(
            R, "m0", lambda x: np.clip(np.real(self.mass(x)), 0.0, None),
            lambda x: self.m_infinity)

    def v0_at(self, R):
        c, n = self.tail_coeff, self.n
        return self._continued(R, "v0", lambda x: np.real(self.velocity(x)),
                               (lambda x: c * x ** (1.0 - n / 2.0)) if c else None)

    def phi0_at(self, R):
        # the tail branch is exact at r_max, where a spline's last cell rounds
        return self._continued(
            R, "phi0", lambda x: np.real(self.phase(x)),
            lambda x: np.real(self.phase.values[-1]) + _tail_phase(
                self.tail_coeff, self.n, self.r_max, x), closed=False)

    def amplitude_at(self, R):
        return self._continued(R, "amplitude", self.amplitude,
                               dtype=self.amplitude.values.dtype)

    @cached_property
    def v0_max(self) -> float:
        """max|v0| over the grid nodes: it does not depend on eps or t."""
        return float(np.max(np.abs(self.v0_at(self.grid.nodes))))

    @cached_property
    def explicit_flow(self) -> bool:
        """Whether the closed-form flow of the compatible family applies:
        compatible data, or uncoupled data at rest (lam = 0, v0 = 0, X = R)."""
        return self.compatible or (self.lam == 0.0 and self.v0_max == 0.0)

    def v0_prime_at(self, R):
        """The slope of the interpolant ``v0_at`` evaluates."""
        c, n = self.tail_coeff, self.n
        return self._continued(
            R, "v0_prime", lambda x: np.real(self.velocity(x, 1)),
            (lambda x: c * (1.0 - n / 2.0) * x ** (-n / 2.0)) if c else None)

    def v0_and_slope_at(self, R):
        """``(v0_at(R), v0_prime_at(R))``, one spline lookup on the grid."""
        R = np.atleast_1d(np.asarray(R, dtype=float))
        if self.exact is not None or not (R <= self.r_max).all():
            return self.v0_at(R), self.v0_prime_at(R)
        return [np.real(f) for f in self.velocity.spline_derivatives(R)]

    def rates_at(self, R):
        """(v0, F, G) at the labels R: the expansion rate F = n v0/(2R) and
        compression rate G = v0' + (n-2) v0/(2R) of the compatible flow, with
        v0' from ``v0_and_slope_at``, so B is exactly dX/dR.  At R = 0 both
        take their limit sqrt(n |lam| rho0(0)/(2(n-2))).
        """
        R = np.atleast_1d(np.asarray(R, dtype=float))
        n, (v, G) = self.n, self.v0_and_slope_at(R)
        pos = R > 0
        F = np.empty_like(R)
        F[pos] = n * v[pos] / (2.0 * R[pos])
        G[pos] += 0.5 * (n - 2) * v[pos] / R[pos]
        if not np.all(pos):
            F[~pos] = G[~pos] = np.sqrt(n * abs(self.lam) * self.rho0_at(0.0)[0]
                                        / (2.0 * (n - 2))) if self.lam else 0.0
        return v, F, G

    @cached_property
    def node_rates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``rates_at`` on the grid nodes, read-only: they do not depend on t."""
        rates = self.rates_at(self.grid.nodes)
        for a in rates:
            a.setflags(write=False)
        return rates

    def content_hash(self) -> str:
        h = hashlib.sha256()
        meta = {"n": self.n, "lam": self.lam, "kappa": self.kappa,
                "delta": self.delta, "compatible": self.compatible,
                "grid": self.grid.descriptor()}
        h.update(json.dumps(meta, sort_keys=True).encode())
        h.update(np.ascontiguousarray(self.amplitude.values).tobytes())
        h.update(np.ascontiguousarray(self.velocity.values).tobytes())
        return h.hexdigest()[:16]


def _tail_phase(coeff: float, n: int, r0: float, R: np.ndarray) -> np.ndarray:
    """int_{r0}^{R} coeff * s^(1-n/2) ds, closed form (log branch at n=4)."""
    if coeff == 0.0:
        return np.zeros_like(R)
    if n == 4:
        return coeff * np.log(R / r0)
    p = 2.0 - n / 2.0
    return coeff * (R ** p - r0 ** p) / p


def build_initial_data(amplitude: RadialProfile, lam: float, n: int, *,
                       velocity_scale: float = 1.0,
                       kappa: float | None = None,
                       delta: float | None = None) -> InitialData:
    """Assemble InitialData with the compatible phase scaled by velocity_scale.

    velocity_scale=1 yields the exact non-caustic data (threshold vanishes);
    other scales produce the over/undershoot families used by the classifier.
    """
    if n < 1:
        raise ParameterError("dimension must be >= 1")
    grid = amplitude.grid
    rho = RadialProfile(grid, np.abs(amplitude.values) ** 2)
    mass = cumulative_mass(rho, n)
    m_inf = float(mass.values[-1])
    if lam < 0 and n >= 3:
        phase, velocity = _compatible_phase(mass, lam, n)
        if velocity_scale != 1.0:
            phase = phase.with_values(velocity_scale * phase.values)
            velocity = velocity.with_values(velocity_scale * velocity.values)
        tail = velocity_scale * np.sqrt(2.0 * abs(lam) * m_inf / (n - 2))
        threshold = RadialProfile(grid, _threshold_values(
            mass.values, velocity.values, lam, n, grid.nodes))
        compatible = velocity_scale == 1.0
    else:
        zeros = np.zeros(grid.points)
        phase = RadialProfile(grid, zeros)
        velocity = RadialProfile(grid, zeros)
        tail = 0.0
        threshold = RadialProfile(grid, _threshold_values(
            mass.values, zeros, lam, n, grid.nodes)) if n >= 3 else None
        compatible = False
    return InitialData(n=n, lam=lam, amplitude=amplitude, phase=phase,
                       velocity=velocity, mass=mass, threshold=threshold,
                       kappa=kappa, delta=delta, compatible=compatible,
                       m_infinity=m_inf, tail_coeff=tail)


def free_data(velocity: RadialProfile, n: int, lam: float = 0.0) -> InitialData:
    """Vacuum data (rho0 = 0) with a prescribed velocity profile."""
    grid = velocity.grid
    zeros = np.zeros(grid.points)
    amp = RadialProfile(grid, zeros)
    mass = RadialProfile(grid, zeros)
    v = np.real(velocity.values)
    phase = RadialProfile(grid, cumulative_radial(v, grid.nodes))
    thr = RadialProfile(grid, v ** 2) if n >= 3 else None
    return InitialData(n=n, lam=lam, amplitude=amp, phase=phase,
                       velocity=velocity, mass=mass, threshold=thr,
                       kappa=None, delta=None, compatible=False,
                       m_infinity=0.0, tail_coeff=0.0, exact=None)


def gaussian_free_data(grid: RadialGrid | None = None, scale: float = 1.0,
                       n: int = 3) -> InitialData:
    """Uncoupled (lam = 0) Gaussian amplitude at rest: the limit fields are
    static, so the wave dynamics is pure free dispersion."""
    if grid is None:
        grid = RadialGrid(20.0, 4096)
    r = grid.nodes
    amp = RadialProfile(grid, scale * np.exp(-0.5 * r ** 2))
    return build_initial_data(amp, 0.0, n)


def ball_data(n: int = 3, lam: float = -1.0, grid: RadialGrid | None = None,
              velocity: str = "compatible", velocity_scale: float = 1.0,
              density: float = 1.0) -> InitialData:
    """Unit-ball density rho0 = density * 1_{r<1} with closed-form fields.

    The exact m0, v0, Phi0 are attached so oracle tests avoid quadrature error
    at the density jump.  velocity='zero' gives the collapsing configuration.
    """
    if grid is None:
        grid = RadialGrid(40.0, 8192)
    if velocity not in ("compatible", "zero"):
        raise ParameterError("velocity must be 'compatible' or 'zero'")
    if velocity == "compatible" and (lam >= 0 or n < 3):
        raise UnsupportedConfigurationError(
            "compatible ball data requires lam < 0 and n >= 3")

    rho_c = float(density)
    m_inf = rho_c / n

    def rho0(R):
        return np.where(np.asarray(R, dtype=float) < 1.0, rho_c, 0.0)

    def m0(R):
        return rho_c * np.minimum(np.asarray(R, dtype=float), 1.0) ** n / n

    if velocity == "zero" or lam >= 0 or n < 3:
        v0 = lambda R: np.zeros_like(np.asarray(R, dtype=float))
        v0p = v0
        phi0 = v0
        scale = 0.0
        tail = 0.0
    else:
        scale = velocity_scale
        c_in = scale * np.sqrt(2.0 * abs(lam) * rho_c / (n * (n - 2)))
        c_out = scale * np.sqrt(2.0 * abs(lam) * m_inf / (n - 2))
        tail = c_out

        def v0(R):
            R = np.asarray(R, dtype=float)
            Rs = np.maximum(R, 1.0)
            return np.where(R < 1.0, c_in * R, c_out * Rs ** (1.0 - n / 2.0))

        def v0p(R):
            R = np.asarray(R, dtype=float)
            Rs = np.maximum(R, 1.0)
            return np.where(R < 1.0, c_in,
                            c_out * (1.0 - n / 2.0) * Rs ** (-n / 2.0))

        def phi0(R):
            R = np.asarray(R, dtype=float)
            inner = 0.5 * c_in * np.minimum(R, 1.0) ** 2
            outer = _tail_phase(c_out, n, 1.0, np.maximum(R, 1.0))
            return inner + outer

    exact = ExactFields(rho0=rho0, m0=m0, v0=v0, v0_prime=v0p, phi0=phi0,
                        amplitude=lambda R: np.sqrt(rho0(R)))
    r = grid.nodes
    amp = RadialProfile(grid, np.sqrt(rho0(r)))
    mass = RadialProfile(grid, m0(r))
    vel = RadialProfile(grid, v0(r))
    phase = RadialProfile(grid, phi0(r))
    threshold = RadialProfile(grid, _threshold_values(
        m0(r), v0(r), lam, n, r)) if n >= 3 else None
    compatible = velocity == "compatible" and scale == 1.0 and lam < 0 and n >= 3
    return InitialData(n=n, lam=lam, amplitude=amp, phase=phase, velocity=vel,
                       mass=mass, threshold=threshold, kappa=None, delta=None,
                       compatible=compatible, m_infinity=m_inf,
                       tail_coeff=tail, exact=exact)


def smooth_ball_data(n: int = 3, lam: float = -1.0,
                     grid: RadialGrid | None = None, scale: float = 1.0,
                     chirp: float = 0.0, velocity_scale: float = 1.0) -> InitialData:
    """Mollified ball amplitude with optional O(1) complex chirp on A0.

    The chirp multiplies A0 by exp(i * chirp * r^2 exp(-r^2/2)); it leaves
    |A0|^2 and hence the compatible phase untouched, but makes the first
    corrector's amplitude-phase coupling nondegenerate.
    """
    if grid is None:
        grid = RadialGrid(40.0, 8192)
    amp = smooth_ball_amplitude(grid, height=scale)
    if chirp != 0.0:
        r = grid.nodes
        phase_factor = np.exp(1j * chirp * r ** 2 * np.exp(-0.5 * r ** 2))
        amp = RadialProfile(grid, amp.values * phase_factor)
    return build_initial_data(amp, lam, n, velocity_scale=velocity_scale)


def sample_data(kappa: float, delta: float, n: int = 3, lam: float = -1.0,
                grid: RadialGrid | None = None, scale: float = 1.0,
                velocity_scale: float = 1.0) -> InitialData:
    """Initial data built on the kappa/delta amplitude family."""
    if grid is None:
        grid = RadialGrid(40.0, 8192)
    amp = sample_amplitude(kappa, delta, n, grid)
    if scale != 1.0:
        amp = amp.with_values(scale * amp.values)
    return build_initial_data(amp, lam, n, velocity_scale=velocity_scale,
                              kappa=kappa, delta=delta)
