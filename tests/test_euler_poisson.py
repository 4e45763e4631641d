import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import semiwkb.euler_poisson as ep
from semiwkb import (ContractError, ConvergenceError, ParameterError,
                     RadialGrid, RadialProfile, ball_data, blowup_time,
                     classify, eulerian_fields, explicit_characteristics,
                     free_data, integrate_characteristics, smooth_ball_data)
from semiwkb.euler_poisson import (DEFORMATION_VANISHES, FINITE_TIME_BLOWUP,
                                   GLOBAL, NECESSARY_CONDITION_VIOLATED,
                                   POSITION_VANISHES, UNDETERMINED,
                                   invert_flow_map)
from semiwkb.grids import cumulative_radial
from semiwkb.profiles import gaussian_free_data


def rk_oracle(data, R, times, tol=1e-12):
    """Independent integration of the characteristic system (cross-check)."""
    n, lam = data.n, data.lam
    m0R = float(data.m0_at(R)[0])
    mpR = float(data.rho0_at(R)[0]) * R ** (n - 1)

    def rhs(t, y):
        X, Xd, B, Bd = y
        return [Xd, lam * m0R * X ** (1 - n), Bd,
                lam * (mpR * X ** (1 - n) - (n - 1) * m0R * X ** (-n) * B)]

    y0 = [R, float(data.v0_at(R)[0]), 1.0, float(data.v0_prime_at(R)[0])]
    sol = solve_ivp(rhs, (0.0, times[-1]), y0, rtol=tol, atol=tol * 1e-2,
                    dense_output=True)
    return sol.sol(times)


# -- classification ----------------------------------------------------------

def test_classify_compatible_is_global(ball, smooth):
    assert classify(ball).kind == GLOBAL
    assert classify(smooth).kind == GLOBAL


def test_classify_low_dimension_with_mass_blows_up():
    d = ball_data(n=2, lam=-1.0, velocity="zero", grid=RadialGrid(20.0, 1024))
    assert classify(d).kind == FINITE_TIME_BLOWUP
    d1 = ball_data(n=1, lam=-1.0, velocity="zero", grid=RadialGrid(20.0, 1024))
    assert classify(d1).kind == FINITE_TIME_BLOWUP


def test_classify_zero_velocity_ball_certificate(ball_zero_velocity):
    v = classify(ball_zero_velocity, witness=True)
    assert v.kind == FINITE_TIME_BLOWUP
    assert "C =" in v.certificate
    assert v.mechanism == POSITION_VANISHES
    assert v.t_c is not None and v.t_c < 3.0


def test_classify_repulsive_cases():
    d = smooth_ball_data(grid=RadialGrid(30.0, 1024))
    # flip the coupling sign but keep the (now mismatched) velocity
    from semiwkb.profiles import build_initial_data
    rep = build_initial_data(d.amplitude, 1.0, 3)      # lam > 0, v0 = 0
    assert classify(rep).kind == NECESSARY_CONDITION_VIOLATED
    # vacuum with rising velocity: C' >= 0, undetermined for lam > 0
    g = RadialGrid(30.0, 1024)
    v = RadialProfile(g, 0.3 * g.nodes / (1.0 + g.nodes))
    und = free_data(v, 3, lam=1.0)
    assert classify(und).kind == UNDETERMINED


def test_classify_free_streaming():
    g = RadialGrid(30.0, 1024)
    rising = RadialProfile(g, 1.0 - np.exp(-g.nodes ** 2))
    assert classify(free_data(rising, 3, lam=0.0)).kind == GLOBAL
    humped = RadialProfile(g, g.nodes * np.exp(-g.nodes ** 2 / 2))
    assert classify(free_data(humped, 3, lam=0.0)).kind == FINITE_TIME_BLOWUP


# -- explicit characteristics -------------------------------------------------

def test_explicit_characteristics_initial_state(ball):
    st0 = explicit_characteristics(ball, 0.0, np.array([0.4, 1.0, 2.5]))
    assert np.allclose(st0.X, [0.4, 1.0, 2.5])
    assert np.allclose(st0.B, 1.0)
    assert np.allclose(st0.Xdot, ball.v0_at(np.array([0.4, 1.0, 2.5])))


def test_explicit_characteristics_ball_value(ball):
    # F(1) = (3/2) sqrt(2/3); independent RK oracle confirms the closed form
    state = explicit_characteristics(ball, 1.0, np.array([1.0]))
    F = 1.5 * np.sqrt(2.0 / 3.0)
    assert abs(F - 1.224745) < 1e-6
    assert abs(state.X[0] - (1.0 + F) ** (2.0 / 3.0)) < 1e-14
    oracle = rk_oracle(ball, 1.0, np.array([1.0]))
    assert abs(state.X[0] - oracle[0][0]) < 1e-8
    assert abs(state.X[0] - 1.70420) < 1e-4


def test_explicit_characteristics_long_time_exponent(ball):
    ts = np.array([1e4, 1e6])
    st1 = explicit_characteristics(ball, ts[0], np.array([1.0]))
    st2 = explicit_characteristics(ball, ts[1], np.array([1.0]))
    slope = (np.log(st2.X[0]) - np.log(st1.X[0])) / np.log(ts[1] / ts[0])
    assert abs(slope - 2.0 / 3.0) < 1e-3


def test_explicit_characteristics_requires_compatible(ball_zero_velocity):
    with pytest.raises(ContractError):
        explicit_characteristics(ball_zero_velocity, 1.0, np.array([1.0]))


# -- ODE integration -----------------------------------------------------------

def test_integrate_free_streaming_exact():
    g = RadialGrid(30.0, 1024)
    v = RadialProfile(g, np.full(1024, 1.0))
    # constant v0 = 1 (not vanishing at 0, but the ODE does not care)
    d = free_data(v, 3, lam=0.0)
    traj = integrate_characteristics(d, 2.0, 5.0, t_eval=np.linspace(0, 5, 11))
    assert np.allclose(traj.X, 2.0 + traj.t, atol=1e-9)
    assert np.allclose(traj.B, 1.0 + 0.0 * traj.t, atol=1e-6)


def test_cross_validation_explicit_vs_ode(ball):
    times = np.linspace(0.0, 10.0, 11)
    for R in (0.1, 0.7, 1.0, 3.0, 5.0):
        traj = integrate_characteristics(ball, R, 10.0, tol=1e-11,
                                         t_eval=times)
        state = explicit_characteristics(ball, times, np.array([R]))
        assert np.max(np.abs(traj.X - state.X) / np.abs(state.X)) < 1e-8
        assert np.max(np.abs(traj.B - state.B) / np.abs(state.B)) < 1e-8


def test_zero_velocity_ball_collapses_inward(ball_zero_velocity):
    traj = integrate_characteristics(ball_zero_velocity, 1.0, 1.0,
                                     t_eval=np.linspace(0, 1, 21))
    assert np.all(np.diff(traj.X) < 0)
    assert np.all(traj.Xdot[1:] < 0)


def test_integrate_rejects_bad_arguments(ball):
    with pytest.raises(ParameterError):
        integrate_characteristics(ball, -1.0, 1.0)
    with pytest.raises(ParameterError):
        integrate_characteristics(ball, 1.0, 1.0, tol=0.0)


# -- blowup detection -----------------------------------------------------------

def test_blowup_time_collapsing_ball(ball_zero_velocity):
    hit = blowup_time(ball_zero_velocity, 1.0, 10.0)
    assert hit is not None
    t_c, mech = hit
    # energy method: X'^2 = 2 m0 (1/X - 1/R), collapse at (pi/2) sqrt(R^3/(2 m0))
    exact = 0.5 * np.pi * np.sqrt(1.5)
    assert abs(t_c - exact) < 1e-4
    assert mech == POSITION_VANISHES


def test_blowup_time_one_dimensional_ball():
    d = ball_data(n=1, lam=-1.0, velocity="zero", grid=RadialGrid(20.0, 1024))
    hit = blowup_time(d, 1.0, 10.0)
    assert hit is not None
    # X = R - (m0(R)/2) t^2 with m0(1) = int_0^1 rho ds = 1 for n = 1
    m01 = float(d.m0_at(1.0)[0])
    assert abs(m01 - 1.0) < 1e-12
    assert abs(hit[0] - np.sqrt(2.0 / m01)) < 1e-4


def test_compatible_ball_never_blows_up(ball):
    assert blowup_time(ball, 1.0, 1000.0) is None


def test_wave_breaking_detected_for_overshoot():
    d = smooth_ball_data(velocity_scale=1.3, grid=RadialGrid(30.0, 2048))
    v = classify(d, witness=True)
    assert v.kind == FINITE_TIME_BLOWUP
    assert v.mechanism == DEFORMATION_VANISHES
    assert v.t_c is not None


# -- Eulerian fields ---------------------------------------------------------------

def test_eulerian_identity_at_t0(smooth):
    rho, v = eulerian_fields(smooth, 0.0, smooth.grid)
    assert np.max(np.abs(rho.values - np.abs(smooth.amplitude.values) ** 2)) < 1e-12
    assert np.max(np.abs(v.values - smooth.velocity.values)) < 1e-12


def test_eulerian_velocity_value(ball, smooth):
    F = 1.5 * np.sqrt(2.0 / 3.0)
    x = (1.0 + F) ** (2.0 / 3.0)
    expected = np.sqrt(2.0 / 3.0) * (1.0 + F) ** (-1.0 / 3.0)
    oracle = rk_oracle(ball, 1.0, np.array([1.0]))
    assert abs(expected - oracle[1][0]) < 1e-9
    rho, v = eulerian_fields(ball, 1.0)
    # x sits exactly on the transported density kink: profile interpolation
    # across it is only cubic-through-a-kink accurate
    assert abs(v(x) - expected) < 1e-3
    # smooth data has no kink; the same lookup is then tight
    st1 = explicit_characteristics(smooth, 1.0, np.array([1.0]))
    rho_s, v_s = eulerian_fields(smooth, 1.0)
    assert abs(v_s(st1.X[0]) - st1.Xdot[0]) < 1e-9


def test_eulerian_mass_conservation():
    d = smooth_ball_data(grid=RadialGrid(40.0, 16384))
    ref = None
    for t in (0.0, 1.0, 10.0, 100.0):
        rho, v = eulerian_fields(d, t)
        r = rho.grid.nodes
        total = cumulative_radial(rho.values * r ** 2, r)[-1]
        if ref is None:
            ref = total
        assert abs(total - ref) / ref < 1e-6


def test_flow_map_monotone_in_labels(smooth):
    for t in (0.5, 2.0, 20.0):
        state = explicit_characteristics(smooth, t, smooth.grid.nodes[1:])
        assert np.all(np.diff(state.X) > 0)
        assert np.all(state.B > 0)


def test_invert_flow_map_residual(smooth, ball):
    radii = np.linspace(0.0, 30.0, 701)
    for data in (smooth, ball):
        for t in (5.0, 1e2, 1e4):
            R = invert_flow_map(data, t, radii)
            st1 = explicit_characteristics(data, t, np.maximum(R[1:], 1e-300))
            assert np.max(np.abs(st1.X - radii[1:])) < 1e-10


def test_invert_flow_map_fails_closed(smooth, monkeypatch):
    # B scaled by 0.1 makes every Newton step overshoot ninefold
    exact = ep.explicit_characteristics

    def overshooting(data, t, R):
        st = exact(data, t, R)
        return dataclasses.replace(st, B=0.1 * st.B)

    monkeypatch.setattr(ep, "explicit_characteristics", overshooting)
    with pytest.raises(ConvergenceError):
        invert_flow_map(smooth, 5.0, np.linspace(0.0, 30.0, 701))


@settings(max_examples=15, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1e4),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=1, max_size=16))
def test_flow_map_round_trip(smooth_small, ball, t, fractions):
    # compatible data: X(t, inverse(t, r)) = r to round-off on the image
    for data in (smooth_small, ball):
        top = explicit_characteristics(data, t, data.grid.nodes[-1:]).X[0]
        radii = top * np.array(fractions)
        R = invert_flow_map(data, t, radii)
        X = explicit_characteristics(data, t, R).X
        assert np.all(np.abs(X - radii) <= 1e-12 * np.maximum(radii, 1.0))
    # static data (lam = 0, v0 = 0): the flow is the identity, exactly
    for n in (1, 2, 3, 4):
        static = gaussian_free_data(RadialGrid(20.0, 1024), n=n)
        radii = np.append(20.0 * np.array(fractions), 1e-300)
        R = invert_flow_map(static, t, radii)
        state = explicit_characteristics(static, t, R)
        assert np.array_equal(R, radii)
        assert np.array_equal(state.X, R)
        assert np.all(state.Xdot == 0.0) and np.all(state.J == 1.0)


@settings(max_examples=10, deadline=None)
@given(alpha=st.floats(min_value=0.1, max_value=10.0))
def test_scaling_covariance(alpha):
    base = smooth_ball_data(grid=RadialGrid(30.0, 1024))
    scaled = smooth_ball_data(scale=alpha, grid=RadialGrid(30.0, 1024))
    R = np.array([0.5, 1.2, 3.0])
    t = 1.7
    a = explicit_characteristics(base, alpha * t, R)
    b = explicit_characteristics(scaled, t, R)
    assert np.max(np.abs(a.X - b.X)) < 1e-10
    assert np.max(np.abs(a.B - b.B)) < 1e-10


def test_eulerian_static_data_stays_put():
    d = gaussian_free_data(RadialGrid(20.0, 1024))
    rho0 = np.abs(d.amplitude_at(d.grid.nodes)) ** 2
    for t in (0.0, 1.0, 100.0):
        rho, v = eulerian_fields(d, t)
        assert np.array_equal(rho.grid.nodes, d.grid.nodes)
        assert np.array_equal(rho.values, rho0)
        assert np.all(v.values == 0.0)


def test_eulerian_vacuum_free_streaming():
    g = RadialGrid(20.0, 1024)
    d = free_data(RadialProfile(g, 0.5 * (1.0 - np.exp(-g.nodes ** 2))), 3)
    R = g.nodes
    v0 = d.v0_at(R)
    for t in (0.5, 1.0, 4.0):
        rho, v = eulerian_fields(d, t)
        assert np.all(rho.values == 0.0)
        assert np.max(np.abs(v(R + v0 * t) - v0)) <= 1e-6
    # radii past the image r_max + v0(r_max) t are vacuum
    top = R[-1] + v0[-1] * 4.0
    with pytest.warns(RuntimeWarning, match="fields set to vacuum there"):
        rho, v = eulerian_fields(d, 4.0, RadialGrid(top + 5.0, 1024))
    beyond = v.grid.nodes > top
    assert beyond.any() and np.all(v.values[beyond] == 0.0)
    assert np.all(rho.values == 0.0)


def test_eulerian_requires_global_data(ball_zero_velocity):
    with pytest.raises(ContractError):
        eulerian_fields(ball_zero_velocity, 1.0)
