import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst as scipy_dst
from scipy.special import erf

from semiwkb import schrodinger
from semiwkb import (ContractError, ParameterError, RadialGrid, RadialProfile,
                     ResolutionError, UnsupportedConfigurationError,
                     WaveField, initial_wavefield,
                     lp_norm, madelung_observables, run,
                     smooth_ball_data, strang_step)
from semiwkb.profiles import InitialData
from semiwkb.schrodinger import (discrete_mass, required_points,
                                 spectral_tail)
from semiwkb.wkb import hartree_potential

from oracles import current_velocity


def wave_grid(points=2048, r_max=40.0):
    return RadialGrid(r_max, points, include_origin=False)


def gaussian_data(r_max=20.0, points=512, lam=0.0):
    g = RadialGrid(r_max, points)
    r = g.nodes
    zero = RadialProfile(g, np.zeros(points))
    return InitialData(n=3, lam=lam,
                       amplitude=RadialProfile(g, np.exp(-r ** 2 / 2)),
                       phase=zero, velocity=zero, mass=zero, threshold=zero,
                       kappa=None, delta=None, compatible=False,
                       m_infinity=0.0, tail_coeff=0.0, exact=None)


def l2_err(u, v, r, dr):
    return np.sqrt(4.0 * np.pi * np.sum(np.abs(u - v) ** 2 * r ** 2) * dr)


# -- preparation -----------------------------------------------------------------

def test_initial_wavefield_real_when_phase_zero():
    d = gaussian_data()
    g = wave_grid(512, 20.0)
    u = initial_wavefield(d, 1.0, g)
    assert np.max(np.abs(u.values.imag)) == 0.0
    assert np.allclose(u.values.real, np.exp(-g.nodes ** 2 / 2))


def test_initial_wavefield_mass_matches_amplitude(smooth_chirped):
    g = wave_grid(8192)
    u = initial_wavefield(smooth_chirped, 1.0 / 8.0, g)
    amp_mass = lp_norm(np.abs(smooth_chirped.amplitude_at(g.nodes)),
                       g.nodes, 3, 2) ** 2
    assert abs(discrete_mass(u) - amp_mass) / amp_mass < 1e-6


def test_resolution_gate_names_required_points(smooth):
    eps = 1.0 / 32.0
    vmax = float(np.max(smooth.velocity.values))
    dr_req = 2.0 * np.pi * eps / (16 * vmax)
    need = required_points(smooth, eps, 40.0)
    assert abs(need - (np.ceil(40.0 / dr_req) - 1)) <= 1.0
    coarse = wave_grid(need // 2)
    with pytest.raises(ResolutionError) as err:
        initial_wavefield(smooth, eps, coarse)
    assert str(need) in str(err.value)
    initial_wavefield(smooth, eps, wave_grid(need + 16))   # passes


def test_resolution_gate_names_fast_points(smooth):
    # the error also names the smallest M >= need whose M+1 is 5-smooth, so
    # that the DST length 2(M+1) is fast; the gate itself stays on need
    eps = 1.0 / 32.0
    need = required_points(smooth, eps, 40.0)
    with pytest.raises(ResolutionError) as err:
        initial_wavefield(smooth, eps, wave_grid(need // 2))
    fast = int(str(err.value).rsplit(" ", 1)[-1])

    def smooth5(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    assert fast >= need and smooth5(fast + 1)
    assert not any(smooth5(m + 1) for m in range(need, fast))
    assert not smooth5(need + 1)    # 2425 = 5^2 * 97, so the counts differ
    initial_wavefield(smooth, eps, wave_grid(need))     # passes


def test_wavefield_layout_contract(smooth):
    with pytest.raises(ContractError):
        WaveField(0.5, RadialGrid(10.0, 64), np.zeros(64, complex))
    d2 = smooth_ball_data(n=4, grid=RadialGrid(20.0, 1024))
    with pytest.raises(UnsupportedConfigurationError):
        initial_wavefield(d2, 0.5, wave_grid(1024, 20.0))


# -- stepping ----------------------------------------------------------------------

def test_strang_step_zero_dt_is_identity(smooth):
    u = initial_wavefield(smooth, 0.5, wave_grid())
    assert strang_step(u, 0.0) is u


def test_free_gaussian_matches_closed_form():
    d = gaussian_data()
    g = wave_grid(4096, 20.0)
    eps, T = 0.1, 1.0
    res = run(d, eps, T, dt=1e-3, grid=g, snapshot_times=[T])
    u = res.snapshots[-1]
    z = 1.0 + 1j * eps * T
    exact = z ** -1.5 * np.exp(-u.r ** 2 / (2.0 * z))
    assert l2_err(u.values, exact, u.r, u.dr) < 1e-6


def test_mass_drift_below_round_off(smooth_chirped):
    u = initial_wavefield(smooth_chirped, 0.5, wave_grid())
    m0 = discrete_mass(u)
    for _ in range(1000):
        u = strang_step(u, 1e-3)
    assert abs(discrete_mass(u) - m0) / m0 < 1e-10


def test_dt_self_convergence_second_order(smooth_chirped):
    def final(dt):
        res = run(smooth_chirped, 0.25, 0.25, dt=dt, grid=wave_grid(),
                  snapshot_times=[0.25])
        return res.snapshots[-1].values

    f1, f2, f3 = final(4e-3), final(2e-3), final(1e-3)
    order = np.log2(np.linalg.norm(f1 - f2) / np.linalg.norm(f2 - f3))
    assert 1.9 <= order <= 2.1


@pytest.mark.parametrize("M", [1023, 1024, 4096, 8192])
def test_kinetic_dst_matches_scipy_and_is_its_own_inverse(M):
    # 2(M+1) is a fast length only at M = 1023; at 2050, 8194 and 16386
    # scipy still transforms exactly, only more slowly
    rng = np.random.default_rng(M)
    x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    ref = scipy_dst(x, type=1, norm="ortho")
    y = schrodinger.dst(x)
    assert np.max(np.abs(y - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(schrodinger.dst(y) - x)) <= 1e-14 * np.max(np.abs(x))


def _ortho_dst(x):
    return scipy_dst(x, type=1, norm="ortho")


@settings(max_examples=15, deadline=None)
@given(M=st.one_of(st.integers(min_value=16, max_value=40000),
                   # 2(M+1) = 2 * prime, and 16386 = 6 * 2731: slow lengths
                   st.sampled_from([9972, 39988, 8192])),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_dst_is_scipy_on_each_part_and_its_own_inverse(M, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    y = schrodinger.dst(x)
    assert np.array_equal(y, _ortho_dst(x.real) + 1j * _ortho_dst(x.imag))
    assert np.max(np.abs(schrodinger.dst(y) - x)) <= 1e-14 * np.max(np.abs(x))


def test_dst_of_real_and_strided_samples_is_scipys():
    # viewed without the copy, a real x would pair neighbouring samples as
    # one complex number, and so would x[::2] through its stride
    rng = np.random.default_rng(7)
    real = rng.standard_normal(624)
    assert np.array_equal(schrodinger.dst(real), _ortho_dst(real))
    z = rng.standard_normal(1250) + 1j * rng.standard_normal(1250)
    assert np.array_equal(schrodinger.dst(z[::2]), _ortho_dst(z[::2]))


def test_dst_is_one_real_transform_call(monkeypatch):
    # scipy splits a complex input into two pocketfft calls, one per part;
    # one call on a real (M, 2) array along the nodes is one pocketfft pass
    calls, transform = [], schrodinger._scipy_dst

    def recording(x, **kw):
        calls.append((x.dtype, x.shape, kw.get("axis", -1)))
        return transform(x, **kw)

    monkeypatch.setattr(schrodinger, "_scipy_dst", recording)
    schrodinger.dst(np.ones(624, dtype=complex))
    assert calls == [(np.float64, (624, 2), 0)]


def _carried_vs_fresh(M, eps, dt, chirp):
    """Relative mass drift of 50 steps carrying the potential, and their
    largest distance to steps that solve for it afresh."""
    d = smooth_ball_data(chirp=chirp, grid=RadialGrid(20.0, 2048))
    carried = fresh = initial_wavefield(d, eps, wave_grid(M, 20.0))
    m0 = discrete_mass(carried)
    for _ in range(50):
        carried = strang_step(carried, dt)
        # a field rebuilt from bare values solves for its own potential
        fresh = strang_step(WaveField(fresh.eps, fresh.grid, fresh.values,
                                      fresh.lam, fresh.t), dt)
    scale = np.max(np.abs(fresh.values))
    return (abs(discrete_mass(carried) - m0) / m0,
            np.max(np.abs(carried.values - fresh.values)) / scale)


@settings(max_examples=10, deadline=None)
@given(eps=st.floats(min_value=1.0 / 64.0, max_value=0.5),
       dt=st.floats(min_value=1e-4, max_value=1e-3),   # run's default cap
       chirp=st.floats(min_value=0.0, max_value=1.5))
def test_strang_step_unitary_with_carried_potential(eps, dt, chirp):
    drift, gap = _carried_vs_fresh(4095, eps, dt, chirp)
    assert drift <= 1e-12
    assert gap <= 1e-12


def test_strang_step_unitary_at_non_fast_length():
    # 2(M+1) = 8194 = 2*17*241: a grid the harness never builds, which run()
    # still accepts, takes scipy's slow-length DST
    drift, gap = _carried_vs_fresh(4096, 1.0 / 16.0, 1e-3, 1.0)
    assert drift <= 1e-12
    assert gap <= 1e-12


def test_run_makes_two_kinetic_transforms_per_step(monkeypatch, smooth_chirped):
    calls, transform = [], schrodinger.dst

    def counting(x):
        calls.append(len(x))
        return transform(x)

    monkeypatch.setattr(schrodinger, "dst", counting)
    run(smooth_chirped, 0.5, 0.02, dt=1e-3, grid=wave_grid(512))
    # 20 steps, then one for the energy at each of the two observations;
    # the final state's spectral tail reads the t_end observation's spectrum
    assert calls == [512] * 42


def test_spectral_tail_reads_each_leading_run_of_modes():
    # modes 5 and 95 of 100 (1-based), at amplitudes 1 and 1e-9: mode 5 is
    # the top tenth of the first 5 modes, and mode 95 is in the top tenth of
    # the whole spectrum, whose root energy fraction 1e-9 lies far below the
    # round-off of the total energy
    modes = np.zeros(100)
    modes[[4, 94]] = [1.0, 1e-9]
    tails = spectral_tail(modes)
    assert tails[4] == pytest.approx(1.0, abs=1e-12)
    assert tails[3] == pytest.approx(0.0, abs=1e-12)
    assert tails[-1] == pytest.approx(1e-9, rel=1e-6)


def test_run_solves_poisson_once_per_step(monkeypatch, smooth_chirped):
    calls, solve = [], schrodinger.hartree_potential

    def counting(*args):
        calls.append(args[1].size)
        return solve(*args)

    monkeypatch.setattr(schrodinger, "hartree_potential", counting)
    run(smooth_chirped, 0.5, 0.02, dt=1e-3, grid=wave_grid(512))
    # the initial field's solve, then one per step on the wave nodes
    assert calls == [512] * 21


def _counted_phase_factors(monkeypatch):
    """The half-steps of the phase factors built afresh from here on."""
    calls, build = [], schrodinger._potential_phase

    def counting(u, half_dt):
        calls.append(half_dt)
        return build(u, half_dt)

    monkeypatch.setattr(schrodinger, "_potential_phase", counting)
    return calls


def test_run_builds_one_phase_factor_per_step(monkeypatch, smooth_chirped):
    calls = _counted_phase_factors(monkeypatch)
    dt = 2.0 ** -10
    run(smooth_chirped, 0.5, 20 * dt, dt=dt, grid=wave_grid(512))
    # the initial field's factor, then each step's trailing one
    assert calls == [0.5 * dt] * 21


def test_non_binary_step_keeps_one_kinetic_table(monkeypatch, smooth_chirped):
    # 40 steps of 1/80 summed in floating point end 2.7e-16 short of 0.5; on
    # the mesh k*dt no step is shortened to close that gap
    calls = _counted_phase_factors(monkeypatch)
    dt = 1.0 / 80.0
    schrodinger._kinetic_phases.cache_clear()
    res = run(smooth_chirped, 0.5, 0.5, dt=dt, grid=wave_grid(512),
              snapshot_times=[0.5])
    assert schrodinger._kinetic_phases.cache_info().misses == 1
    assert calls == [0.5 * dt] * 41
    assert res.snapshots[-1].t == 40 * dt


def test_shortened_step_builds_its_own_phase_factor(monkeypatch,
                                                    smooth_chirped):
    calls = _counted_phase_factors(monkeypatch)
    dt, t_end, g = 2.0 ** -10, 20.5 * 2.0 ** -10, wave_grid(512)
    res = run(smooth_chirped, 0.5, t_end, dt=dt, grid=g,
              snapshot_times=[t_end])
    # the shortened last step builds its leading factor too
    assert calls == [0.5 * dt] * 21 + [0.25 * dt] * 2
    # every step from a field rebuilt from bare values builds both factors
    fresh = initial_wavefield(smooth_chirped, 0.5, g)
    while fresh.t < t_end:
        fresh = strang_step(WaveField(fresh.eps, fresh.grid, fresh.values,
                                      fresh.lam, fresh.t),
                            min(dt, t_end - fresh.t))
    carried = res.snapshots[-1]
    assert carried.t == fresh.t == t_end
    scale = np.max(np.abs(fresh.values))
    assert np.max(np.abs(carried.values - fresh.values)) / scale <= 1e-12


def test_gauge_covariance(smooth_chirped):
    u = initial_wavefield(smooth_chirped, 0.5, wave_grid())
    theta = 1.234
    rotated = WaveField(u.eps, u.grid, np.exp(1j * theta) * u.values,
                        u.lam, u.t)
    a = strang_step(u, 1e-3)
    b = strang_step(rotated, 1e-3)
    assert np.max(np.abs(np.exp(1j * theta) * a.values - b.values)) < 1e-12


def test_free_dynamics_depends_on_eps_t_only():
    d = gaussian_data()
    g = wave_grid(2048, 20.0)
    a = run(d, 0.2, 0.5, dt=1e-3, grid=g, snapshot_times=[0.5]).snapshots[-1]
    b = run(d, 0.1, 1.0, dt=2e-3, grid=g, snapshot_times=[1.0]).snapshots[-1]
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_energy_drift_is_second_order_in_dt(smooth_small):
    # splitting-dominated regime: large steps on a fine grid
    d = smooth_ball_data(chirp=0.4, scale=1.5, grid=RadialGrid(40.0, 2048))

    def drift(dt):
        res = run(d, 0.25, 1.0, dt=dt, grid=wave_grid(8192),
                  observable_times=[0.0, 1.0])
        return abs(res.observables[-1].energy - res.observables[0].energy)

    ratio = drift(0.1) / drift(0.05)
    assert 3.0 <= ratio <= 5.5


@pytest.mark.parametrize("chirp", [0.75, 1.0, 1.25])
def test_energy_drift_bounded(chirp):
    # eps = 1/32 at the rung step eps/2.5: relative drift 1.28e-4 to
    # 1.95e-4
    d = smooth_ball_data(chirp=chirp, grid=RadialGrid(40.0, 8192))
    res = run(d, 1.0 / 32.0, 0.5, dt=0.0125, grid=wave_grid(4095),
              observable_times=np.linspace(0.0, 0.5, 11))
    energy = np.array([ob.energy for ob in res.observables])
    assert len(energy) == 11
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) <= 5e-3


def test_wavegrid_potential_gaussian_fourth_order():
    # rho = exp(-r^2) has V = (sqrt(pi)/4) erf(r)/r in three dimensions.  The
    # m/r^2 quadrature near the origin adds an h^4 log(1/h) term, so the
    # error ratio approaches 16 from below.
    errs = []
    for M in (1023, 2047, 4095):
        g = wave_grid(M, 8.0)
        u = WaveField(0.5, g, np.exp(-g.nodes ** 2 / 2.0).astype(complex),
                      lam=-1.0)
        exact = 0.25 * math.sqrt(math.pi) * erf(g.nodes) / g.nodes
        errs.append(np.max(np.abs(u.potential - exact)))
        # one kernel: the density's potential on this layout is the field's
        rho = np.abs(u.values) ** 2
        assert np.array_equal(hartree_potential(rho, g.nodes, 3), u.potential)
    ratios = errs[0] / errs[1], errs[1] / errs[2]
    assert all(13.0 <= q <= 17.0 for q in ratios)


# -- observables ----------------------------------------------------------------------

def test_current_velocity_vanishes_for_real_field():
    d = gaussian_data()
    u = initial_wavefield(d, 1.0, wave_grid(512, 20.0))
    assert np.max(np.abs(current_velocity(u).values)) == 0.0


def test_current_velocity_recovers_phase_gradient(smooth_chirped):
    eps = 1.0 / 32.0
    u = initial_wavefield(smooth_chirped, eps, wave_grid(8192))
    r = u.r
    window = (r > 0.3) & (r < 1.2)
    dev = np.max(np.abs(current_velocity(u).values[window]
                        - smooth_chirped.v0_at(r[window])))
    # O(eps) from the amplitude chirp plus stencil error
    assert dev < 3.0 * eps


def test_madelung_mass_matches_norms(smooth_chirped):
    u = initial_wavefield(smooth_chirped, 0.25, wave_grid())
    ob = madelung_observables(u)
    # shared quadrature once the Dirichlet zeros at both box ends are included
    r_ext = np.concatenate([[0.0], u.r, [u.grid.r_max]])
    f_ext = np.concatenate([[0.0], np.abs(u.values), [0.0]])
    ref = lp_norm(f_ext, r_ext, 3, 2) ** 2
    assert abs(ob.mass - ref) / ref < 1e-12
    assert ob.mass == discrete_mass(u)


def test_energy_matches_spectral_energy(smooth_chirped):
    # With u = 0 at both box ends, int |u'|^2 r^2 dr = int |(ru)'|^2 dr, and
    # the sine series of w = ru differentiates exactly: the kinetic energy
    # of the discrete field is eps^2/2 * 4 pi * dr * sum (k pi/r_max)^2 |w_k|^2.
    eps = 1.0 / 64.0
    g = RadialGrid(40.0, 8192, include_origin=False)
    u = initial_wavefield(smooth_chirped, eps, g)
    what = schrodinger.dst(u.r * u.values)
    k = np.arange(1, g.points + 1) * np.pi / g.r_max
    kin = 0.5 * eps ** 2 * 4.0 * np.pi * g.dr * np.sum(k ** 2 * np.abs(what) ** 2)
    pot = 0.5 * u.lam * 4.0 * np.pi * g.dr * np.sum(
        u.potential * np.abs(u.values) ** 2 * u.r ** 2)
    spectral = kin + pot
    energy = madelung_observables(u).energy
    # the observable is this sum; measured 4.8e-15 apart, the round-off of
    # a kinetic and a Hartree term of 0.935 and -0.906
    assert abs(energy - spectral) / abs(spectral) < 1e-13


def test_velocity_mask_outside_support(smooth):
    u = initial_wavefield(smooth, 0.5, wave_grid())
    far = u.r > 10.0
    assert np.all(current_velocity(u).values[far] == 0.0)


def test_boundary_monitor_flags_truncation():
    # squeeze the box so the state reaches the wall quickly
    d = smooth_ball_data(grid=RadialGrid(3.0, 1024))
    g = RadialGrid(3.0, 1024, include_origin=False)
    with pytest.warns(RuntimeWarning):
        res = run(d, 0.25, 2.0, dt=2e-3, grid=g)
    assert res.truncation_warnings
    assert res.truncation_warnings[0]["t"] <= 2.0


def test_run_header_reproducibility(smooth_chirped):
    res = run(smooth_chirped, 0.5, 0.01, dt=1e-3, grid=wave_grid(512))
    h = res.header
    assert h["eps"] == 0.5 and h["lam"] == smooth_chirped.lam
    assert h["data_hash"] == smooth_chirped.content_hash()
    assert h["grid"]["points"] == 512


def test_run_header_records_transform_length():
    d = gaussian_data()
    for M, fast in ((1023, True), (1024, False)):
        h = run(d, 0.5, 1e-3, dt=1e-3, grid=wave_grid(M, 20.0)).header
        assert h["transform_len"] == 2 * (M + 1)
        assert h["transform_len_fast"] is fast


def test_run_samples_t_end_when_march_stops_short():
    # three steps of dt = 0.3333333333 end 1e-10 short of t_end = 1
    from semiwkb.profiles import gaussian_free_data
    d = gaussian_free_data(RadialGrid(20.0, 1024))
    res = run(d, 0.25, 1.0, dt=0.3333333333,
              grid=RadialGrid(20.0, 64, include_origin=False),
              snapshot_times=[1.0])
    assert len(res.observables) == 2 and len(res.snapshots) == 1
    assert abs(res.observables[-1].t - 1.0) < 1e-9
    assert res.snapshots[0].t == res.observables[-1].t
