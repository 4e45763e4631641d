import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from semiwkb import ParameterError, RadialGrid, RadialProfile
from semiwkb.errors import DomainError
from semiwkb.grids import (LANDING_TOL, cumulative_radial, derivative_uniform,
                           fd_weights, not_a_knot_spline, sample_times,
                           time_mesh)


def test_grid_layouts():
    g = RadialGrid(10.0, 101)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0
    assert np.isclose(g.dr, 0.1)
    g2 = RadialGrid(10.0, 99, include_origin=False)
    assert np.isclose(g2.nodes[0], 0.1) and np.isclose(g2.nodes[-1], 9.9)
    assert np.isclose(g2.dr, 0.1)


def test_grid_validation():
    with pytest.raises(ParameterError):
        RadialGrid(-1.0, 100)
    with pytest.raises(ParameterError):
        RadialGrid(1.0, 8)


def test_fd_weights_reproduce_centered_stencils():
    w = fd_weights(np.arange(-2.0, 3.0), 0.0, 2)
    assert np.allclose(w[1] * 12, [1, -8, 0, 8, -1])
    assert np.allclose(w[2] * 12, [-1, 16, -30, 16, -1])


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_fourth_order_convergence(order):
    errs = []
    for pts in (101, 201, 401):   # stay above the eps/h^order round-off floor
        r = np.linspace(0.0, 3.0, pts)
        d = derivative_uniform(np.sin(r), RadialGrid(3.0, pts), order)
        ref = np.cos(r) if order == 1 else -np.sin(r)
        errs.append(np.max(np.abs(d - ref)))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) > 3.5


def test_parity_ghosts_match_smooth_extension():
    M = 400
    dr = 10.0 / (M + 1)
    r = dr * np.arange(1, M + 1)
    even = np.exp(-r ** 2 / 2)
    g = RadialGrid(10.0, M, include_origin=False)
    d = derivative_uniform(even, g, 1, left_parity="even")
    assert np.max(np.abs(d + r * even)) < 1e-6
    odd = r * np.exp(-r ** 2 / 2)
    d = derivative_uniform(odd, g, 1, left_parity="odd")
    assert np.max(np.abs(d - (1 - r ** 2) * np.exp(-r ** 2 / 2))) < 1e-6
    r0 = np.linspace(0.0, 10.0, 401)
    f0 = np.exp(-r0 ** 2 / 2)
    d2 = derivative_uniform(f0, RadialGrid(10.0, 401), 2, left_parity="even")
    assert np.max(np.abs(d2 - (r0 ** 2 - 1) * f0)) < 1e-6


def test_cumulative_simpson_beats_trapezoid_on_uniform():
    r = np.linspace(0.0, 1.0, 201)
    out = cumulative_radial(np.exp(r), r)
    assert np.max(np.abs(out - (np.exp(r) - 1.0))) < 1e-10


def test_cumulative_radial_matches_scipy_simpson():
    # both layouts, odd and even node counts; 8194 is the 8192-point wave
    # grid with its origin and far-end samples.  The even nodes are composite
    # Simpson; the odd ones take a cubic panel scipy does not use.
    for points in (17, 18, 1023, 1024, 8194):
        for include_origin in (True, False):
            r = RadialGrid(40.0, points, include_origin=include_origin).nodes
            y = r ** 2 * np.exp(-r ** 2 / 4.0) + np.sin(3.0 * r)
            ref = cumulative_simpson(y, x=r, initial=0.0)[::2]
            out = cumulative_radial(y, r)[::2]
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(points=st.integers(min_value=16, max_value=300),
       include_origin=st.booleans(),
       coeffs=st.lists(st.floats(min_value=-10.0, max_value=10.0,
                                 allow_subnormal=False),
                       min_size=4, max_size=4),
       r_max=st.floats(min_value=0.5, max_value=50.0))
def test_cumulative_radial_exact_for_cubics(points, include_origin, coeffs,
                                            r_max):
    # every node, odd ones and the last mirrored panel included; the scale
    # is the integral of the cubic's terms in absolute value, floored where
    # tiny coefficients would leave the normal range
    r = RadialGrid(r_max, points, include_origin=include_origin).nodes
    c = np.polynomial.Polynomial(coeffs)
    C = c.integ()
    exact = C(r) - C(r[0])
    out = cumulative_radial(c(r), r)
    scale = np.polynomial.Polynomial(np.abs(coeffs)).integ()(r[-1])
    assert np.max(np.abs(out - exact)) <= 1e-12 * max(scale, 1e-200)


def test_profile_validation_and_interpolation():
    g = RadialGrid(5.0, 64)
    vals = np.sin(g.nodes)
    p = RadialProfile(g, vals)
    assert abs(p(2.34) - np.sin(2.34)) < 1e-5
    with pytest.raises(ParameterError):
        RadialProfile(g, vals[:-1])
    bad = vals.copy()
    bad[3] = np.nan
    with pytest.raises(DomainError):
        RadialProfile(g, bad)
    with pytest.raises(ParameterError):
        p(7.0)   # outside the grid


def test_complex_profile_interpolates_like_a_spline_pair():
    g = RadialGrid(5.0, 64)
    r = g.nodes
    vals = np.exp(-r ** 2) * (np.cos(3.0 * r) + 1j * np.sin(2.0 * r))
    p = RadialProfile(g, vals)
    off_node = np.linspace(0.0, 5.0, 301) + 0.01 * np.sin(7.0 * np.arange(301))
    x = np.concatenate([np.clip(off_node, 0.0, 5.0), r])
    ref = CubicSpline(r, vals.real)(x) + 1j * CubicSpline(r, vals.imag)(x)
    got = p(x)
    assert got.dtype == complex
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _exact(a):
    """An array's dtype, shape and bytes."""
    return a.dtype.str, a.shape, a.tobytes()


@settings(max_examples=60, deadline=None)
@given(points=st.integers(min_value=16, max_value=8192),
       r_max=st.sampled_from([1.0, 5.0, 20.0, 40.0, 1000.0]),
       include_origin=st.booleans(), columns=st.sampled_from([None, 2, 3]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_not_a_knot_spline_is_scipys(points, r_max, include_origin, columns,
                                     seed):
    # scipy's CubicSpline is the oracle: the same coefficients, values and
    # slopes to the bit, off the nodes, on them and at both ends
    x = RadialGrid(r_max, points, include_origin).nodes
    rng = np.random.default_rng(seed)
    y = rng.normal(size=points if columns is None else (points, columns))
    ours, ref = not_a_knot_spline(x, y), CubicSpline(x, y)
    assert _exact(ours.c) == _exact(ref.c)
    at = np.concatenate([rng.uniform(x[0], x[-1], 64), x, x[[0, -1]]])
    for nu in (0, 1):
        assert _exact(ours(at, nu)) == _exact(ref(at, nu))


@pytest.mark.parametrize("points", [1, 2, 3])
def test_not_a_knot_spline_needs_four_nodes(points):
    x = np.arange(float(points))
    with pytest.raises(ParameterError):
        not_a_knot_spline(x, np.zeros(points))


def test_profile_immutable():
    g = RadialGrid(5.0, 64)
    p = RadialProfile(g, np.zeros(64))
    with pytest.raises(AttributeError):
        p.values = np.ones(64)
    with pytest.raises(ValueError):
        p.values[0] = 1.0


# -- time mesh ----------------------------------------------------------------

# times as fractions of t_end: anywhere in [0, 1], or on the eighths give or
# take a few LANDING_TOL, where the merging and landing rules decide
_fractions = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(lambda k, j: min(max(k / 8 + j * LANDING_TOL, 0.0), 1.0),
              st.integers(0, 8), st.floats(min_value=-3.0, max_value=3.0)))


@settings(max_examples=200, deadline=None)
@given(t_end=st.floats(min_value=1e-3, max_value=1e3),
       steps=st.one_of(st.integers(1, 200).map(float),
                       st.floats(min_value=0.5, max_value=200.0)),
       stops=st.lists(_fractions, max_size=6))
def test_time_mesh_steps_and_landings(t_end, steps, stops):
    dt, tol = t_end / steps, LANDING_TOL * t_end
    stops = sample_times([s * t_end for s in stops], t_end)
    mesh = list(time_mesh(t_end, dt, stops))
    times = [0.0] + [t for _, t in mesh]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(0.0 < step <= dt for step, _ in mesh)
    for (step, t), prev in zip(mesh, times):
        if step != dt:      # a shortened step lands exactly on its target
            assert t in stops or t == t_end
            assert step == t - prev
        else:               # a full step spans dt, to round-off
            assert abs(t - prev - dt) <= 1e-12 * t_end
    assert abs(times[-1] - t_end) <= tol
    for s in stops:
        assert min(abs(t - s) for t in times) <= tol


@settings(max_examples=200, deadline=None)
@given(t_end=st.floats(min_value=1e-3, max_value=1e3),
       times=st.lists(_fractions, max_size=12))
def test_sample_times_sorted_idempotent_and_separated(t_end, times):
    tol = LANDING_TOL * t_end
    times = [s * t_end for s in times]
    kept = sample_times(times, t_end)
    assert kept == sorted(kept)
    assert sample_times(kept, t_end) == kept
    assert all(b > a + tol for a, b in zip(kept, kept[1:]))
    # every time merges into a kept one at most tol before it
    assert all(any(s - tol <= k <= s for k in kept) for s in times)


def test_sample_times_and_mesh_reject_bad_input():
    for times in ([-1e-3, 0.5], [0.5, 1.0 + 1e-6]):
        with pytest.raises(ParameterError):
            sample_times(times, 1.0)
    for t_end, dt in ((0.0, 0.1), (1.0, 0.0), (1.0, -0.1)):
        with pytest.raises(ParameterError):
            next(time_mesh(t_end, dt))


def test_time_mesh_without_stops_is_the_run_mesh():
    # the times are k*dt, not running sums: 40 steps of 1/80 end on
    # 40 * (1/80) = 0.5 with no shortened step; 20.5 steps end on a half step
    dt = 1 / 80
    assert list(time_mesh(0.5, dt)) == [(dt, k * dt) for k in range(1, 41)]
    dt = 2.0 ** -10
    assert list(time_mesh(20.5 * dt, dt))[-2:] == [(dt, 20 * dt),
                                                    (0.5 * dt, 20.5 * dt)]
