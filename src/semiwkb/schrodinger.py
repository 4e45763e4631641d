"""Semiclassical Schrodinger-Poisson solver for radial data in three
dimensions: Strang splitting with an exact sine-spectral kinetic substep on
w = r*u (Dirichlet at 0 and r_max), and the monitored mass and energy."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import dst as _scipy_dst, next_fast_len

from .errors import (ContractError, ParameterError, ResolutionError,
                     UnsupportedConfigurationError)
from .grids import RadialGrid, reaches, sample_times, time_mesh
from .profiles import InitialData
from .wkb import hartree_potential

__all__ = ["WaveField", "Observables", "RunResult", "initial_wavefield",
           "strang_step", "run", "madelung_observables",
           "required_points", "fast_points", "spectral_tail"]

FOUR_PI = 4.0 * math.pi
BOUNDARY_TOL = 1e-6            # boundary-mass warning level, relative to the total
# Phase points per wavelength: it, not u0's spectrum, sizes acceptance rungs
PPW = 16


@dataclass(frozen=True)
class WaveField:
    """Complex radial wavefunction u(r_j) with its semiclassical parameter.

    The grid must be uniform with nodes r_j = j*dr, j = 1..M and
    dr = r_max/(M+1); u vanishes at both off-grid ends.  ``lam`` is the
    Hartree coupling the field evolves under.

    A field made by ``strang_step`` also carries its trailing half-step's
    potential phase factor, keyed by that half-step, so the next step of
    the same length reuses it; a field built from bare values, by
    ``replace`` or ``WaveField(...)``, carries none and computes its own.
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
        return hartree_potential(np.abs(self.values) ** 2, self.r, 3)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The sine spectrum of w = r u (``dst``), taken once per field: the
        kinetic energy and the spectral tail of an observed field share it."""
        return dst(self.r * self.values)


@dataclass(frozen=True)
class Observables:
    """What ``run`` monitors at one observation time; ``schrodinger-run``
    writes it as one ``observables.jsonl`` line."""
    t: float
    mass: float
    energy: float
    boundary_mass: float


@dataclass(frozen=True)
class RunResult:
    observables: list
    snapshots: list
    truncation_warnings: list
    header: dict


def required_points(data: InitialData, eps: float, r_max: float) -> int:
    """Node count needed to resolve the fast phase at PPW points per
    wavelength of its largest wavenumber max|Phi0'|/eps.

    It sees the phase only: for data at rest (Phi0' = 0) it returns the grid
    floor of 16, a floor and not a count, and the amplitude's own spectrum
    has to size the grid (``harness.rung_points``)."""
    vmax = data.v0_max
    if vmax == 0.0:
        return 16
    dr_req = 2.0 * math.pi * eps / (PPW * vmax)
    return max(16, int(math.ceil(r_max / dr_req)) - 1)


def fast_points(m: int) -> int:
    """Smallest node count M >= m whose DST length 2(M+1) is fast: M+1 is
    5-smooth."""
    return next_fast_len(m + 1, real=True) - 1


def initial_wavefield(data: InitialData, eps: float,
                      grid: RadialGrid) -> WaveField:
    """Prepare u = A0 exp(i Phi0 / eps) on the solver grid.

    Raises a resolution error naming the required point count when the grid
    cannot resolve the phase at PPW points per local wavelength, and the
    smallest count past it whose DST length 2(M+1) is fast.
    """
    if data.n != 3:
        raise UnsupportedConfigurationError(
            "the wave solver is three-dimensional only")
    need = required_points(data, eps, grid.r_max)
    if grid.points < need:
        raise ResolutionError(
            f"grid has {grid.points} points but the phase needs at least "
            f"{need} (dr <= 2 pi eps / ({PPW} * max|Phi0'|)); the smallest "
            f"count at least that with a fast transform length 2(M+1) is "
            f"{fast_points(need)}")
    r = grid.nodes
    u = data.amplitude_at(r).astype(complex) * np.exp(1j * data.phi0_at(r) / eps)
    return WaveField(eps=eps, grid=grid, values=u, lam=data.lam, t=0.0)


def dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of the complex samples x on M nodes; its own inverse.

    x is read as an (M, 2) real array of its real and imaginary parts and
    transformed along the nodes in one pocketfft call, which runs the two
    parts as two lanes of one pass. Each lane is the same real DST-I that
    scipy applies to each part of a complex array, so the result is
    bit-identical to ``scipy.fft.dst(x, type=1, norm="ortho")``. The
    coercion to contiguous complex128 is required: a real or strided x
    viewed as it is would pair neighbouring samples as one complex number.

    The transform is an FFT of length 2(M+1), which is fast when M+1 is
    5-smooth: the harness builds every wave grid on ``fast_points``.
    """
    pairs = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
    return _scipy_dst(pairs.reshape(-1, 2), type=1, norm="ortho",
                      axis=0).view(np.complex128).ravel()


def spectral_tail(what: np.ndarray) -> np.ndarray:
    """Root energy fraction of the top tenth of the DST-I modes ``what`` of
    w = r u (``dst(w)``, or ``WaveField.spectrum``), for each leading run of
    the spectrum: entry m-1 reads it over the first m modes, the spectrum a
    grid of m nodes on the same box resolves, and the last entry is w's own.

    The energies are summed from the top mode down, so a tail far below
    the round-off of the total energy still reads as its own sum."""
    energy = np.abs(what) ** 2
    above = np.append(np.cumsum(energy[::-1])[::-1], 0.0)  # modes k.. on
    m = np.arange(1, len(energy) + 1)
    top = above[m - (m + 9) // 10] - above[m]     # the top ceil(m/10) modes
    total = above[0] - above[m]
    return np.sqrt(np.divide(top, total, out=np.zeros_like(top),
                             where=total > 0))


@lru_cache(maxsize=8)
def _kinetic_phases(eps: float, L: float, M: int, dt: float) -> np.ndarray:
    k = np.arange(1, M + 1)
    phases = np.exp(-0.5j * eps * (k * np.pi / L) ** 2 * dt)
    phases.setflags(write=False)
    return phases


def _potential_phase(u: WaveField, half_dt: float) -> np.ndarray:
    """exp(-i lam half_dt V/eps) at the nodes, written as cos + i sin of the
    real angle into one complex array: the exponent is purely imaginary, so
    np.exp's complex arithmetic buys nothing."""
    theta = (-u.lam * half_dt / u.eps) * u.potential
    factor = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=factor.real)
    np.sin(theta, out=factor.imag)
    return factor


def strang_step(u: WaveField, dt: float) -> WaveField:
    """One Strang step: half potential phase, exact sine-spectral kinetic step
    on w = r*u, half potential phase with the recomputed potential.

    The potential is frozen within each phase substep; since it depends only
    on |u|^2, which the phase multiplication preserves, both substeps are
    exactly unitary in the discrete L^2(r^2 dr) product, and the trailing
    substep's potential and phase factor are handed on as the next step's
    leading ones.  The factor is reused only for the same half-step: a
    shortened step builds its own.
    """
    if dt < 0:
        raise ParameterError("dt must be nonnegative")
    if dt == 0.0:
        return u
    r, half, vals = u.r, 0.5 * dt, u.values
    if u.lam != 0.0:
        key, factor = vars(u).get("_trailing_phase", (None, None))
        vals = vals * (factor if key == half else _potential_phase(u, half))
    what = dst(r * vals)
    what *= _kinetic_phases(u.eps, u.grid.r_max, u.grid.points, dt)
    mid = replace(u, values=dst(what) / r, t=u.t + dt)
    if u.lam == 0.0:
        return mid
    factor = _potential_phase(mid, half)
    out = replace(mid, values=mid.values * factor)
    vars(out)["potential"] = mid.potential
    vars(out)["_trailing_phase"] = (half, factor)
    return out


def discrete_mass(u: WaveField) -> float:
    return FOUR_PI * float(np.sum(np.abs(u.values) ** 2 * u.r ** 2) * u.dr)


def madelung_observables(u: WaveField) -> Observables:
    """Mass, energy and boundary mass of u at its time.

    The energy is (eps^2/2)||u'||^2 + (lam/2)<V_P |u|^2> in the r^2 dr
    measure.  With u = 0 at both box ends, int |u'|^2 r^2 dr is
    int |(r u)'|^2 dr, and the sine series of w = r u differentiates
    exactly: the kinetic term is read off ``u.spectrum`` as
    (eps^2/2) 4 pi dr sum_k (k pi/r_max)^2 |w_k|^2, the kinetic energy of
    the field the kinetic substep propagates, with no stencil error to move
    it from grid to grid.
    The boundary mass is the mass on the outer 2% of the box.
    """
    dens = np.abs(u.values) ** 2 * u.r ** 2
    k = np.arange(1, u.grid.points + 1) * (np.pi / u.grid.r_max)
    energy = 0.5 * u.eps ** 2 * np.sum(k ** 2 * np.abs(u.spectrum) ** 2)
    if u.lam != 0.0:
        energy += 0.5 * u.lam * np.sum(u.potential * dens)
    edge = max(int(0.02 * u.grid.points), 4)
    return Observables(t=u.t, mass=FOUR_PI * float(np.sum(dens) * u.dr),
                       energy=FOUR_PI * float(energy * u.dr),
                       boundary_mass=FOUR_PI * float(np.sum(dens[-edge:]) * u.dr))


def run(data: InitialData, eps: float, t_end: float, dt: float, *,
        grid: RadialGrid, observable_times=None,
        snapshot_times=None) -> RunResult:
    """Fixed-step Strang march at dt with observables at requested times.

    On ``grids.time_mesh`` every full step is exactly dt and ends at k*dt,
    so the steps share one kinetic phase table and hand their potential phase
    factor on; only a genuine remainder to t_end builds its own.  An
    observation or snapshot requested at time s is taken at the first k*dt
    that ``grids.reaches`` it and records that time.  Mass escaping past
    the truncation monitor (outer 2% of the box) beyond ``BOUNDARY_TOL`` of
    the total is recorded as a truncation warning stamped with the
    simulation time.  The header records the step and the final state's
    ``spectral_tail``, read off the spectrum an observation at t_end has
    already taken.
    """
    if t_end <= 0:
        raise ParameterError("t_end must be positive")
    if dt <= 0:
        raise ParameterError("dt must be positive")
    obs_times = sample_times([0.0, t_end] if observable_times is None
                             else observable_times, t_end)
    snap_times = sample_times(snapshot_times or [], t_end)
    u = initial_wavefield(data, eps, grid)

    observables, snapshots, trunc = [], [], []
    total0 = discrete_mass(u)

    def monitor(field):
        ob = madelung_observables(field)
        if ob.boundary_mass > BOUNDARY_TOL * total0:
            trunc.append({"t": field.t, "boundary_mass": ob.boundary_mass,
                          "fraction": ob.boundary_mass / total0})
        return ob

    def sample(field):
        while obs_times and reaches(field.t, obs_times[0], t_end):
            observables.append(monitor(field))
            obs_times.pop(0)
        while snap_times and reaches(field.t, snap_times[0], t_end):
            snapshots.append(field)
            snap_times.pop(0)

    sample(u)
    for step, t in time_mesh(t_end, dt):
        u = strang_step(u, step)
        object.__setattr__(u, "t", t)   # the mesh time, not the running sum
        sample(u)

    if trunc:
        warnings.warn(f"boundary mass exceeded {BOUNDARY_TOL:g} of the total "
                      f"at t = {trunc[0]['t']:.6g}", RuntimeWarning)
    header = {"eps": eps, "dt": dt, "t_end": t_end,
              "grid": grid.descriptor(), "data_hash": data.content_hash(),
              "lam": data.lam, "ppw": PPW,
              "spectral_tail": float(spectral_tail(u.spectrum)[-1]),
              "transform_len": 2 * (grid.points + 1),   # DST-I length as an FFT
              "transform_len_fast": fast_points(grid.points) == grid.points}
    return RunResult(observables=observables, snapshots=snapshots,
                     truncation_warnings=trunc, header=header)
