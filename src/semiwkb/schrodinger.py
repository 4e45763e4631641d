"""Semiclassical Schrodinger-Poisson solver for radial data in three
dimensions: Strang splitting with an exact sine-spectral kinetic substep on
w = r*u (Dirichlet at 0 and r_max), and Madelung observable extraction."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import dst, next_fast_len

from .errors import (ContractError, ParameterError, ResolutionError,
                     UnsupportedConfigurationError)
from .grids import RadialGrid, RadialProfile
from .profiles import InitialData
from .wkb import hartree_potential

__all__ = ["WaveField", "Observables", "RunResult", "initial_wavefield",
           "strang_step", "run", "madelung_observables", "required_points"]

FOUR_PI = 4.0 * math.pi
VELOCITY_FLOOR = 1e-8          # |u| mask threshold, relative to max|u|
BOUNDARY_TOL = 1e-6            # boundary-mass warning level, relative to the total


@dataclass(frozen=True)
class WaveField:
    """Complex radial wavefunction u(r_j) with its semiclassical parameter.

    The grid must be uniform with nodes r_j = j*dr, j = 1..M and
    dr = r_max/(M+1); u vanishes at both off-grid ends.  ``lam`` is the
    Hartree coupling the field evolves under.
    """
    eps: float
    grid: RadialGrid
    values: np.ndarray
    lam: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ParameterError("eps must lie in (0, 1]")
        if self.grid.include_origin:
            raise ContractError("wavefield grid must have both endpoints "
                                "off-grid (Dirichlet layout)")
        if self.values.shape != (self.grid.points,):
            raise ParameterError("sample count does not match the grid")

    @property
    def r(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def dr(self) -> float:
        return self.grid.dr

    @cached_property
    def potential(self) -> np.ndarray:
        """Hartree potential of |u|^2 at the nodes, solved once per field;
        ``strang_step`` fills it from its trailing substep."""
        return _poisson_on_wavegrid(np.abs(self.values) ** 2, self.grid)


@dataclass(frozen=True)
class Observables:
    t: float
    mass: float
    energy: float
    amplitude: RadialProfile
    current_velocity: RadialProfile
    velocity_mask: np.ndarray
    boundary_mass: float


@dataclass(frozen=True)
class RunResult:
    observables: list
    snapshots: list
    truncation_warnings: list
    header: dict


def required_points(data: InitialData, eps: float, r_max: float,
                    ppw: int = 16) -> int:
    """Node count needed to resolve the fast phase at ppw points per wavelength."""
    vmax = float(np.max(np.abs(data.v0_at(data.grid.nodes))))
    if vmax == 0.0:
        return 16
    dr_req = 2.0 * math.pi * eps / (ppw * vmax)
    return max(16, int(math.ceil(r_max / dr_req)) - 1)


def initial_wavefield(data: InitialData, eps: float, grid: RadialGrid,
                      ppw: int = 16) -> WaveField:
    """Prepare u = A0 exp(i Phi0 / eps) on the solver grid.

    Raises a resolution error naming the required point count when the grid
    cannot resolve the phase at ppw points per local wavelength.
    """
    if data.n != 3:
        raise UnsupportedConfigurationError(
            "the wave solver is three-dimensional only")
    need = required_points(data, eps, grid.r_max, ppw)
    if grid.points < need:
        raise ResolutionError(
            f"grid has {grid.points} points but the phase needs at least "
            f"{need} (dr <= 2 pi eps / ({ppw} * max|Phi0'|))")
    r = grid.nodes
    u = data.amplitude_at(r).astype(complex) * np.exp(1j * data.phi0_at(r) / eps)
    return WaveField(eps=eps, grid=grid, values=u, lam=data.lam, t=0.0)


def _poisson_on_wavegrid(density: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Radial Poisson potential at the interior nodes.  With its origin sample
    (an even parabolic extrapolation) and its far-end Dirichlet zero the
    density lives on the uniform origin grid of M+2 nodes j*dr, j = 0..M+1."""
    rho = np.zeros(grid.points + 2)
    rho[1:-1] = density
    rho[0] = max((4.0 * density[0] - density[1]) / 3.0, 0.0)
    r = RadialGrid(grid.r_max, grid.points + 2).nodes
    return hartree_potential(rho, r, 3)[1:-1]


@lru_cache(maxsize=8)
def _kinetic_phases(eps: float, L: float, M: int, dt: float) -> np.ndarray:
    k = np.arange(1, M + 1)
    phases = np.exp(-0.5j * eps * (k * np.pi / L) ** 2 * dt)
    phases.setflags(write=False)
    return phases


def _potential_phase(u: WaveField, half_dt: float) -> np.ndarray:
    return u.values * np.exp((-1j * u.lam * half_dt / u.eps) * u.potential)


def strang_step(u: WaveField, dt: float) -> WaveField:
    """One Strang step: half potential phase, exact sine-spectral kinetic step
    on w = r*u, half potential phase with the recomputed potential.

    The potential is frozen within each phase substep; since it depends only
    on |u|^2, which the phase multiplication preserves, both substeps are
    exactly unitary in the discrete L^2(r^2 dr) product, and the trailing
    substep's potential is handed on as the next step's leading one.
    """
    if dt < 0:
        raise ParameterError("dt must be nonnegative")
    if dt == 0.0:
        return u
    r = u.r
    vals = u.values if u.lam == 0.0 else _potential_phase(u, 0.5 * dt)
    what = dst(r * vals, type=1, norm="ortho")
    what *= _kinetic_phases(u.eps, u.grid.r_max, u.grid.points, dt)
    mid = replace(u, values=dst(what, type=1, norm="ortho") / r, t=u.t + dt)
    if u.lam == 0.0:
        return mid
    out = replace(mid, values=_potential_phase(mid, 0.5 * dt))
    vars(out)["potential"] = mid.potential
    return out


def discrete_mass(u: WaveField) -> float:
    return FOUR_PI * float(np.sum(np.abs(u.values) ** 2 * u.r ** 2) * u.dr)


def _radial_derivative_2nd_order(vals: np.ndarray, dr: float) -> np.ndarray:
    """Centered first derivative; even parabolic ghost at r=0, Dirichlet end."""
    ghost0 = (4.0 * vals[0] - vals[1]) / 3.0
    ext = np.concatenate([[ghost0], vals, [0.0]])
    return (ext[2:] - ext[:-2]) / (2.0 * dr)


def discrete_energy(u: WaveField) -> float:
    """(eps^2/2)||D_r u||^2 + (lam/2) <V_P |u|^2> in the r^2 dr measure."""
    du = _radial_derivative_2nd_order(u.values, u.dr)
    kin = 0.5 * u.eps ** 2 * np.sum(np.abs(du) ** 2 * u.r ** 2) * u.dr
    if u.lam != 0.0:
        pot = 0.5 * u.lam * np.sum(u.potential * np.abs(u.values) ** 2
                                   * u.r ** 2) * u.dr
    else:
        pot = 0.0
    return FOUR_PI * float(kin + pot)


def madelung_observables(u: WaveField) -> Observables:
    """Amplitude |u|, gauge-invariant current velocity, mass and energy.

    The velocity eps*Im(conj(u) du)/|u|^2 is evaluated where |u| exceeds
    1e-8 of its max and masked (set to zero) elsewhere.
    """
    mag = np.abs(u.values)
    du = _radial_derivative_2nd_order(u.values, u.dr)
    mask = mag > VELOCITY_FLOOR * max(float(mag.max()), 1e-300)
    vel = np.zeros_like(mag)
    vel[mask] = u.eps * np.imag(np.conj(u.values[mask]) * du[mask]) / mag[mask] ** 2
    M = u.grid.points
    edge = max(int(0.02 * M), 4)
    boundary = FOUR_PI * float(np.sum(mag[-edge:] ** 2 * u.r[-edge:] ** 2) * u.dr)
    return Observables(t=u.t, mass=discrete_mass(u), energy=discrete_energy(u),
                       amplitude=RadialProfile(u.grid, mag),
                       current_velocity=RadialProfile(u.grid, vel),
                       velocity_mask=mask, boundary_mass=boundary)


def run(data: InitialData, eps: float, t_end: float,
        dt: float | None = None, grid: RadialGrid | None = None,
        observable_times=None, snapshot_times=None, ppw: int = 16) -> RunResult:
    """Fixed-step Strang march with observables sampled at requested times.

    The default step is min(1e-3, eps/10), resolving the O(1/eps) potential
    phase accumulation.  Mass escaping past the truncation monitor (outer 2%
    of the box) beyond ``BOUNDARY_TOL`` of the total is recorded as a
    truncation warning stamped with the simulation time.
    """
    if t_end <= 0:
        raise ParameterError("t_end must be positive")
    if grid is None:
        grid = RadialGrid(data.r_max, 8192, include_origin=False)
    if dt is None:
        dt = min(1e-3, eps / 10.0)
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if observable_times is None:
        observable_times = [0.0, t_end]
    obs_times = sorted(set(float(s) for s in observable_times))
    snap_times = sorted(set(float(s) for s in (snapshot_times or [])))
    if not all(0.0 <= s <= t_end for s in obs_times + snap_times):
        raise ParameterError("observation and snapshot times must lie in "
                             "[0, t_end]")
    u = initial_wavefield(data, eps, grid, ppw=ppw)

    observables, snapshots, trunc = [], [], []
    total0 = discrete_mass(u)

    def monitor(field):
        ob = madelung_observables(field)
        if ob.boundary_mass > BOUNDARY_TOL * total0:
            trunc.append({"t": field.t, "boundary_mass": ob.boundary_mass,
                          "fraction": ob.boundary_mass / total0})
        return ob

    def sample(field, upto):
        while obs_times and obs_times[0] <= upto:
            observables.append(monitor(field))
            obs_times.pop(0)
        while snap_times and snap_times[0] <= upto:
            snapshots.append(field)
            snap_times.pop(0)

    eps_t = 1e-12 * max(t_end, 1.0)
    sample(u, u.t + eps_t)
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-9 * t_end:
        nsteps = int(math.ceil(t_end / dt))
    for k in range(1, nsteps + 1):
        step = min(dt, t_end - u.t)
        if step <= 0:
            break
        u = strang_step(u, step)
        sample(u, u.t + eps_t)
    # the accumulated time may stop short of t_end by more than eps_t
    sample(u, t_end + eps_t)

    if trunc:
        warnings.warn(f"boundary mass exceeded {BOUNDARY_TOL:g} of the total "
                      f"at t = {trunc[0]['t']:.6g}", RuntimeWarning)
    n_fft = 2 * (grid.points + 1)       # DST-I length as an FFT
    header = {"eps": eps, "dt": dt, "t_end": t_end,
              "grid": grid.descriptor(), "data_hash": data.content_hash(),
              "lam": data.lam, "ppw": ppw, "transform_len": n_fft,
              "transform_len_fast": next_fast_len(n_fft, real=True) == n_fft}
    return RunResult(observables=observables, snapshots=snapshots,
                     truncation_warnings=trunc, header=header)
