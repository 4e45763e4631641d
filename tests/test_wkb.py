import functools

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import erf, exp1

from semiwkb import (ContractError, ParameterError, RadialGrid,
                     RadialProfile, ResolutionError, SemiwkbError,
                     StepRejectionError, ball_data, build_initial_data,
                     first_corrector, leading_order, limit_system_residual,
                     sample_data, smooth_ball_data)
from semiwkb.euler_poisson import explicit_characteristics
from semiwkb.grids import cumulative_radial, derivative_uniform
from semiwkb.norms import lp_norm
from semiwkb.profiles import InitialData, gaussian_free_data
from semiwkb import wkb
from semiwkb.wkb import WkbFields

from oracles import phase_time_constant


def static_gaussian(points=1025, r_max=20.0, lam=0.0, n=3):
    g = RadialGrid(r_max, points)
    r = g.nodes
    zero = RadialProfile(g, np.zeros(points))
    return InitialData(n=n, lam=lam,
                       amplitude=RadialProfile(g, np.exp(-r ** 2 / 2)),
                       phase=zero, velocity=zero, mass=zero, threshold=zero,
                       kappa=None, delta=None, compatible=False,
                       m_infinity=0.0, tail_coeff=0.0, exact=None)


# -- radial Poisson field -----------------------------------------------------

def test_poisson_trivial_zero():
    g = RadialGrid(10.0, 256)
    V = wkb.hartree_potential(np.zeros(256), g.nodes, 3)
    assert np.all(V == 0.0)


def test_poisson_gaussian_closed_form():
    g = RadialGrid(20.0, 8192)
    r = g.nodes
    V = RadialProfile(g, wkb.hartree_potential(np.exp(-r ** 2), r, 3))

    def m_exact(x):
        return np.sqrt(np.pi) / 4.0 * erf(x) - 0.5 * x * np.exp(-x ** 2)

    probe = np.array([0.5, 1.0, 3.0, 10.0])
    exact = m_exact(probe) / probe + 0.5 * np.exp(-probe ** 2)
    assert np.max(np.abs(V(probe) - exact)) < 1e-10
    V0_exact, _ = quad(lambda s: m_exact(s) / s ** 2, 1e-12, np.inf, limit=200)
    assert abs(V.values[0] - V0_exact) < 1e-9


def test_poisson_ball_values():
    g = RadialGrid(20.0, 8192)
    r = g.nodes
    V = RadialProfile(g, wkb.hartree_potential(np.where(r < 1.0, 1.0, 0.0),
                                               r, 3))
    # sampled jump limits the accuracy to the cell scale
    assert abs(V(1.0) - 1.0 / 3.0) < 1e-3
    assert abs(V.values[0] - 0.5) < 1e-3


def test_poisson_discrete_residual_invariant():
    g = RadialGrid(20.0, 8192)
    r = g.nodes
    rho = np.exp(-r ** 2)
    V = wkb.hartree_potential(rho, r, 3)
    Vp = derivative_uniform(V, g, 1, left_parity="even")
    flux = r ** 2 * Vp
    resid = -derivative_uniform(flux, g, 1, left_parity="odd") - r ** 2 * rho
    assert np.max(np.abs(resid)) < 1e-6 * np.max(r ** 2 * rho)


def test_poisson_low_dimension_normalizations():
    # closed forms for rho = exp(-r^2) with V(0) = 0; the attractive
    # potential decreases outward as in n >= 3
    def exact(n, r):
        if n == 1:
            return -0.5 * np.sqrt(np.pi) * (r * erf(r)
                                            + np.expm1(-r ** 2) / np.sqrt(np.pi))
        out = np.zeros_like(r)
        x = r[r > 0] ** 2
        out[r > 0] = -0.25 * (exp1(x) + np.log(x) + np.euler_gamma)
        return out

    err = {}
    for points in (1025, 2049):
        g = RadialGrid(8.0, points)
        r = g.nodes
        for n in (1, 2):
            V = wkb.hartree_potential(np.exp(-r ** 2), r, n)
            assert V[0] == 0.0
            assert np.all(np.diff(V) < 0.0)
            err[n, points] = np.max(np.abs(V - exact(n, r)))
    for n in (1, 2):
        assert err[n, 1025] < 1e-8
        assert err[n, 1025] / err[n, 2049] > 12.0     # measured 16.0, 14.1


def test_poisson_four_dimensions_fourth_order_at_origin():
    # rho = exp(-r^2) in n = 4 has V = (1 - exp(-r^2)) / (4 r^2); the mass
    # integrand r^3 rho is a cubic at the origin, where the error sits
    err = []
    for points in (1025, 2049):
        g = RadialGrid(8.0, points)
        r = g.nodes
        V = wkb.hartree_potential(np.exp(-r ** 2), r, 4)
        exact = np.full_like(r, 0.25)
        exact[1:] = -np.expm1(-r[1:] ** 2) / (4.0 * r[1:] ** 2)
        err.append(np.max(np.abs(V - exact)))
    assert err[0] < 1e-7                       # measured 2.8e-8
    assert err[0] / err[1] > 14.0              # measured 15.5


def test_hartree_potential_on_flow_labels(smooth):
    # rho = exp(-x^2) sampled at the positions X(0.5, R) of the compatible
    # flow: V = sqrt(pi) erf(x) / (4x), whatever the labels
    err = []
    for points in (1025, 2049):
        R = RadialGrid(40.0, points).nodes
        st = explicit_characteristics(smooth, 0.5, R)
        V = wkb.hartree_potential(np.exp(-st.X ** 2), R, 3, st.X, st.B)
        exact = np.full_like(V, 0.5)          # the limit at x = 0
        exact[1:] = np.sqrt(np.pi) * erf(st.X[1:]) / (4.0 * st.X[1:])
        err.append(np.max(np.abs(V - exact)))
    assert err[1] <= 2e-6                      # measured 1.2e-6
    assert err[0] / err[1] > 10.0              # measured 13.3
    r = RadialGrid(20.0, 1025).nodes
    rho = np.exp(-r ** 2)
    assert np.array_equal(wkb.hartree_potential(rho, r, 3),
                          wkb.hartree_potential(rho, r, 3, X=r, B=1.0))


def _reference_hartree(source, r, n, X=None, B=1.0):
    """``wkb.hartree_potential`` building the Dirichlet layout's origin grid
    and r^(n-1) on every call, multiplying by B = 1 and taking m / area
    where X > 0: the reference the cached, sliced solve reproduces bit for
    bit."""
    dirichlet = r[0] > 0
    if dirichlet:
        M = len(r)
        rho = np.zeros(M + 2)
        rho[1:-1] = source
        rho[0] = max((4.0 * source[0] - source[1]) / 3.0, 0.0)
        source, r = rho, RadialGrid(r[0] * (M + 1), M + 2).nodes
    X = r if X is None else X
    area = X ** (n - 1)
    m = cumulative_radial(source * area * B, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(X > 0, m / area, 0.0)
    H = cumulative_radial(h * B, r)
    if n <= 2:
        V = H[0] - H
    else:
        V = (H[-1] - H) + m[-1] * X[-1] ** (2 - n) / (n - 2)
    return V[1:-1] if dirichlet else V


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hartree_potential_is_the_reference(smooth, n):
    for points in (1023, 1024):
        for include_origin in (False, True):
            r = RadialGrid(30.0, points, include_origin).nodes
            rho = np.exp(-r ** 2) * (1.0 + 0.5 * np.sin(3.0 * r))
            for _ in range(2):      # the second Dirichlet call is cached
                assert (wkb.hartree_potential(rho, r, n).tobytes()
                        == _reference_hartree(rho, r, n).tobytes())
    R = smooth.grid.nodes
    st = explicit_characteristics(smooth, 0.5, R)
    src = np.exp(-st.X ** 2)
    assert (wkb.hartree_potential(src, R, n, st.X, st.B).tobytes()
            == _reference_hartree(src, R, n, st.X, st.B).tobytes())


# -- leading order -------------------------------------------------------------

def test_leading_order_initial_identity(smooth_chirped):
    f = leading_order(smooth_chirped, 0.0, smooth_chirped.grid)
    assert np.max(np.abs(f.a0.values - smooth_chirped.amplitude.values)) == 0.0
    assert np.max(np.abs(f.phi0.values - smooth_chirped.phase.values)) == 0.0
    assert phase_time_constant(smooth_chirped, 0.0) == 0.0


def test_leading_order_conserves_l2(smooth_chirped):
    f0 = leading_order(smooth_chirped, 0.0, smooth_chirped.grid)
    ref = lp_norm(f0.a0.values, f0.grid.nodes, 3, 2)
    for t in (0.5, 1.0, 5.0):
        f = leading_order(smooth_chirped, t, smooth_chirped.grid)
        val = lp_norm(f.a0.values, f.grid.nodes, 3, 2)
        assert abs(val - ref) / ref < 1e-9


def test_leading_order_potential_is_hartree_of_a0(smooth_chirped):
    # V_P is the Hartree potential of |a0|^2 on the output grid, bit for bit,
    # on the origin layout and on the Dirichlet (wave-solver) layout
    for grid in (RadialGrid(30.0, 2049),
                 RadialGrid(30.0, 2048, include_origin=False)):
        f = leading_order(smooth_chirped, 0.5, grid)
        rho = np.abs(f.a0.values) ** 2
        assert f.V_P.grid == grid
        assert np.array_equal(f.V_P.values,
                              wkb.hartree_potential(rho, grid.nodes, 3))


def test_leading_order_rejects_bad_input(smooth_chirped, ball_zero_velocity):
    with pytest.raises(ParameterError):
        leading_order(smooth_chirped, -1.0, smooth_chirped.grid)
    with pytest.raises(ContractError):
        leading_order(ball_zero_velocity, 1.0, ball_zero_velocity.grid)
    # lam = -1 with v0 = 0: neither compatible nor a static free background
    with pytest.raises(ContractError):
        first_corrector(ball_zero_velocity, 0.1, grid=RadialGrid(40.0, 513))


# The pulled-back amplitude alone, against leading_order's a0 as the oracle:
# compatible chirped balls in n = 3 and 4 at several amplitude scales, the
# kappa/delta family (whose flow folds by t = 2154 on 1024 points and by
# t = 1e4 at twice the amplitude on 2048), uncoupled data at rest, and
# lam = -1 data at rest, which have no closed-form flow.
PULL_BACK_DATA = (
    [("smooth", n, scale) for n in (3, 4) for scale in (0.5, 1.0, 2.0)]
    + [("sample", 1024, 1.0), ("sample", 2048, 1.0), ("sample", 2048, 2.0),
       ("free", 3, 1.0), ("free", 4, 0.5), ("at_rest", 3, 1.0)])


@functools.lru_cache(maxsize=None)
def _pull_back_data(kind, k, scale):
    if kind == "smooth":
        return smooth_ball_data(n=k, chirp=1.0, scale=scale,
                                grid=RadialGrid(40.0, 1024))
    if kind == "sample":
        return sample_data(3.0, 0.25, scale=scale, grid=RadialGrid(40.0, k))
    if kind == "free":
        return gaussian_free_data(RadialGrid(20.0, 1024), scale, n=k)
    return ball_data(velocity="zero", grid=RadialGrid(40.0, 1024))


def _outcome(fn):
    try:
        return fn(), None
    except SemiwkbError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(PULL_BACK_DATA),
       t=st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, 2154.0, 1e4]),
                   st.floats(-1e4, -1e-300)),
       top=st.one_of(st.none(), st.floats(0.5, 1.0)),
       points=st.sampled_from([16, 257, 1024]))
def test_leading_amplitude_is_leading_orders_a0(spec, t, top, points):
    data = _pull_back_data(*spec)
    grid = data.grid if top is None else RadialGrid(top * data.r_max, points)
    got, got_exc = _outcome(lambda: wkb.leading_amplitude(data, t, grid))
    ref, ref_exc = _outcome(lambda: leading_order(data, t, grid).a0)
    event(ref_exc[0].__name__ if ref_exc else "equal")
    assert got_exc == ref_exc
    if ref_exc is None:
        assert got.grid == ref.grid
        assert got.values.dtype == ref.values.dtype
        assert np.array_equal(got.values, ref.values)
    elif t < 0:
        assert ref_exc[0] is ParameterError


@pytest.mark.parametrize("spec, t, exc", [
    (("smooth", 3, 1.0), -1.0, ParameterError),
    (("at_rest", 3, 1.0), 1.0, ContractError),
    (("sample", 1024, 1.0), 1e4, ResolutionError),
    (("at_rest", 3, 1.0), -1.0, ParameterError)])
def test_leading_amplitude_raises_as_leading_order(spec, t, exc):
    # each failure the property may meet, pinned so it is always met
    data = _pull_back_data(*spec)
    for fn in (wkb.leading_amplitude, leading_order):
        with pytest.raises(exc):
            fn(data, t, data.grid)


def test_limit_system_residuals_small(smooth_chirped):
    d = smooth_chirped
    for t in (0.5, 1.0):
        f = leading_order(d, t, d.grid)
        tr, hj, po = limit_system_residual(f, d)
        r = f.grid.nodes
        w = (r >= 0.2) & (r <= 10.0)
        assert np.max(np.abs(tr.values[w])) < 1e-5
        assert np.max(np.abs(hj.values[w])) < 1e-5
        scale = np.max(r ** 2 * np.abs(f.a0.values) ** 2)
        assert np.max(np.abs(po.values[w])) < 1e-5 * scale
    # the Dirichlet (wave-solver) layout: HJB and Poisson hold at every node,
    # the first one included.  Measured at t = 0.5 and 1: HJB 2.5e-8 and
    # Poisson 8.4e-8 and 1.0e-7 of scale; with the [0, dr] cell dropped from
    # the Poisson solve they read 3.1e-6 and 6.3e-6 at r = dr.
    g = RadialGrid(40.0, 8192, include_origin=False)
    for t in (0.5, 1.0):
        f = leading_order(d, t, g)
        tr, hj, po = limit_system_residual(f, d)
        r = g.nodes
        w = (r >= 0.2) & (r <= 10.0)
        assert np.max(np.abs(tr.values[w])) < 1e-5
        assert np.max(np.abs(hj.values)) < 2.5e-7
        scale = np.max(r ** 2 * np.abs(f.a0.values) ** 2)
        assert np.max(np.abs(po.values)) < 5e-7 * scale


def test_limit_system_residual_low_dimension_poisson():
    # the flux r^(n-1) V' has parity (-1)^n across the origin
    for n in (1, 2):
        d = gaussian_free_data(RadialGrid(20.0, 2048), n=n)
        f = leading_order(d, 0.0, d.grid)
        _, _, po = limit_system_residual(f, d)
        r = f.grid.nodes
        scale = np.max(r ** (n - 1) * np.abs(f.a0.values) ** 2)
        assert np.max(np.abs(po.values)) <= 1e-6 * scale


def test_limit_system_residual_zero_data():
    g = RadialGrid(20.0, 1024)
    vac = build_initial_data(RadialProfile(g, np.zeros(1024)), -1.0, 3)
    f = leading_order(vac, 1.0, g)
    tr, hj, po = limit_system_residual(f, vac)
    assert np.max(np.abs(tr.values)) == 0.0
    assert np.max(np.abs(hj.values)) == 0.0
    assert np.max(np.abs(po.values)) == 0.0


def test_limit_system_residual_detects_corruption(smooth_chirped):
    d = smooth_chirped
    f = leading_order(d, 1.0, d.grid)
    bad = WkbFields(t=f.t, a0=f.a0,
                    phi0=f.phi0.with_values(1.01 * f.phi0.values),
                    V_P=f.V_P)
    tr, hj, po = limit_system_residual(bad, d)
    r = f.grid.nodes
    w = (r >= 0.2) & (r <= 10.0)
    assert np.max(np.abs(hj.values[w])) > 1e-3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_phase_constant_matches_time_integration(n):
    """Both branches of the time kernel against direct HJ time integration."""
    d = smooth_ball_data(n=n, grid=RadialGrid(40.0, 4096))
    t_end = 1.0

    def integrand(s, R, v0, F, G):
        return (v0 * v0 / R) * (1 + F * s) ** (4.0 / n - 3.0) * (1 + G * s)

    # the rates are only C^1 across the nodes, so [0, r_max] goes cell by
    # cell with 8-point Gauss-Legendre and adaptive quad keeps the smooth tail
    r = d.grid.nodes
    xc, wc = leggauss(8)
    h = np.diff(r)[:, None]
    cell_R = (r[:-1, None] + 0.5 * h * (xc + 1.0)).ravel()
    cell_w = (0.5 * h * wc).ravel()
    cell_rates = d.rates_at(cell_R)

    def potential_at_origin(s):
        tail, _ = quad(lambda R: integrand(s, R, *(x[0] for x in d.rates_at(R))),
                       d.r_max, np.inf, epsabs=1e-13, epsrel=1e-11, limit=300)
        return 0.5 * (n - 2) * (cell_w @ integrand(s, cell_R, *cell_rates)
                                + tail)

    xg, wg = leggauss(24)
    sg = 0.5 * t_end * (xg + 1.0)
    wgt = 0.5 * t_end * wg
    oracle = float(sum(w * potential_at_origin(s) for s, w in zip(sg, wgt)))
    assert abs(phase_time_constant(d, t_end) - oracle) < 1e-6


def test_phase_constant_ball_closed_form():
    # collapsible to elementary form inside/outside the unit ball for n = 3
    d = ball_data(grid=RadialGrid(40.0, 8192))
    f = 1.5 * np.sqrt(2.0 / 3.0)
    t = 1.0
    exact = np.sqrt(1.5) * ((1.0 + f * t) ** (1.0 / 3.0) - 1.0)
    assert abs(phase_time_constant(d, t) - exact) < 5e-4   # kink-limited quad


# -- first corrector -------------------------------------------------------------

def test_corrector_vacuum_stays_zero():
    g = RadialGrid(20.0, 513)
    vac = build_initial_data(RadialProfile(g, np.zeros(513)), -1.0, 3)
    cs = first_corrector(vac, 0.3, grid=g)
    assert np.max(np.abs(cs.a1[-1].values)) == 0.0
    assert np.max(np.abs(cs.phi1[-1].values)) == 0.0


def test_corrector_static_gaussian_taylor_oracle():
    # a1 = (i/2) T Lap a0 with Lap exp(-r^2/2) = (r^2 - n) exp(-r^2/2)
    for n in (2, 3):
        d = static_gaussian(n=n)
        g = d.grid
        r = g.nodes
        T = 0.25
        cs = first_corrector(d, T, grid=g)
        a1 = cs.a1[-1].values
        exact = 0.5j * T * (r ** 2 - n) * np.exp(-r ** 2 / 2)
        assert np.max(np.abs(a1 - exact)) < 1e-6
        assert np.max(np.abs(a1.real)) == 0.0
        assert np.max(np.abs(cs.phi1[-1].values)) == 0.0


def test_corrector_inverts_flow_map_only_at_sample_times(smooth_small,
                                                          monkeypatch):
    times = []
    invert = wkb.invert_flow_map

    def counting(data, t, *args, **kwargs):
        times.append(t)
        return invert(data, t, *args, **kwargs)

    monkeypatch.setattr(wkb, "invert_flow_map", counting)
    cs = first_corrector(smooth_small, 0.02, grid=RadialGrid(40.0, 513),
                         dt=0.0025, sample_times=[0.0, 0.0075, 0.02])
    assert times == list(cs.times) and len(times) == 3


def test_corrector_repeated_sample_time_is_one_sample():
    # a time within LANDING_TOL * t_end (1e-10) of the previous one folds
    # into it, so no ~1e-13 RK4 step is taken and no third state is recorded
    d = smooth_ball_data(grid=RadialGrid(20.0, 512), chirp=1.0)
    grid = RadialGrid(20.0, 257)
    once = first_corrector(d, 0.1, grid=grid, dt=0.025,
                           sample_times=[0.05, 0.1])
    for times in ([0.05, 0.05, 0.1], [0.05, 0.05 + 1e-13, 0.1]):
        rep = first_corrector(d, 0.1, grid=grid, dt=0.025,
                              sample_times=times)
        assert list(rep.times) == [0.05, 0.1]
        for a, b in zip(rep.a1 + rep.phi1, once.a1 + once.phi1):
            assert np.array_equal(a.values, b.values)


def test_corrector_flow_evaluations_independent_of_dt(smooth_small,
                                                      monkeypatch):
    # the flow is closed-form in the labels: its rates are taken once per
    # call, and halving dt adds steps but no flow evaluation
    smooth_small.node_rates         # the inversion's table, built once per data
    calls = [0]
    rates_at = InitialData.rates_at

    def counting_rates(self, R):
        calls[0] += 1
        return rates_at(self, R)

    monkeypatch.setattr(InitialData, "rates_at", counting_rates)
    counts = []
    for dt in (0.005, 0.0025):
        calls[0] = 0
        first_corrector(smooth_small, 0.02, grid=RadialGrid(40.0, 513), dt=dt,
                        sample_times=[0.01, 0.02])
        counts.append(calls[0])
    assert counts[0] == counts[1]


def test_corrector_rejects_sample_times_outside_horizon(smooth_small,
                                                        monkeypatch):
    inversions = []
    monkeypatch.setattr(wkb, "invert_flow_map",
                        lambda *args, **kwargs: inversions.append(args))
    grid = RadialGrid(40.0, 513)
    with pytest.raises(ParameterError):
        first_corrector(smooth_small, 0.02, grid=grid, dt=0.005,
                        sample_times=[-1.0, 0.01])
    with pytest.raises(ParameterError):
        first_corrector(smooth_small, 0.02, grid=grid, dt=0.005,
                        sample_times=[0.01, 0.5])
    assert inversions == []


def test_corrector_rejects_dirichlet_grid(smooth_small):
    # its Hartree feedback is solved at the flow positions of the labels,
    # which reach the origin only on the origin layout
    with pytest.raises(ParameterError):
        first_corrector(smooth_small, 0.01,
                        grid=RadialGrid(40.0, 513, include_origin=False))


def test_corrector_real_data_purely_imaginary(smooth_small):
    cs = first_corrector(smooth_small, 0.5, grid=RadialGrid(40.0, 1025))
    assert np.max(np.abs(cs.a1[-1].values.real)) <= 1e-10
    assert np.max(np.abs(cs.phi1[-1].values)) <= 1e-10
    assert np.max(np.abs(cs.a1[-1].values.imag)) > 1e-2


def test_corrector_chirped_data_has_phase_response():
    d = smooth_ball_data(chirp=1.0, grid=RadialGrid(40.0, 2048))
    cs = first_corrector(d, 0.5, grid=RadialGrid(40.0, 1025))
    assert np.max(np.abs(cs.phi1[-1].values)) > 1e-3
    assert np.max(np.abs(cs.a1[-1].values.real)) > 1e-3


def test_corrector_spatial_self_convergence():
    d = smooth_ball_data(chirp=0.4, grid=RadialGrid(40.0, 2048))
    finals = []
    for pts in (513, 1025, 2049):
        cs = first_corrector(d, 0.5, grid=RadialGrid(40.0, pts))
        finals.append(cs.a1[-1].values)
    e1 = np.max(np.abs(finals[0] - finals[1][::2]))
    e2 = np.max(np.abs(finals[1] - finals[2][::2]))
    assert np.log2(e1 / e2) >= 1.8


def test_corrector_four_dimensions_origin_converges():
    # the compatible velocity next to the origin sets a1(0) in n = 4
    d = smooth_ball_data(n=4, grid=RadialGrid(20.0, 1024))
    a1_origin = [abs(first_corrector(d, 0.4, grid=RadialGrid(20.0, pts))
                     .a1[-1].values[0]) for pts in (513, 1025)]
    assert abs(a1_origin[0] / a1_origin[1] - 1.0) < 0.05   # measured 0.4 %


def test_corrector_step_rejection(smooth_small):
    # the time-error estimate reads 3.2e-3 at T = dt = 1 (4.9e-4 at 0.5)
    with pytest.raises(StepRejectionError):
        first_corrector(smooth_small, 1.0, grid=RadialGrid(40.0, 513), dt=1.0)


def chirped_small():
    return smooth_ball_data(chirp=1.0, grid=RadialGrid(40.0, 2048))


def test_corrector_fourth_order_in_time():
    # Richardson on classical Runge-Kutta is fifth order: each halving of dt
    # divides the successive differences by about 32.  Measured ratios 67, 80
    # (a1) and 23, 28 (phi1); at dt = 5e-3 the a1 difference is at round-off.
    d = chirped_small()
    grid = RadialGrid(40.0, 513)
    finals = [first_corrector(d, 0.4, grid=grid, dt=dt).at_final()
              for dt in (0.2, 0.1, 0.05, 0.025)]
    for k in (0, 1):
        diffs = [np.max(np.abs(a[k].values - b[k].values))
                 for a, b in zip(finals, finals[1:])]
        assert diffs[0] / diffs[1] >= 12.0
        assert diffs[1] / diffs[2] >= 12.0


def test_corrector_shortened_steps_keep_fourth_order():
    # dt = 0.005 shortens the steps that land on 0.0075 and 0.02; dt = 0.0025
    # reaches both without shortening.  Measured relative differences: 4.1e-15
    # (a1) and 3.7e-12 (phi1); with a fine march that re-runs the step rule at
    # dt/2 instead of halving every coarse step they read 1.1e-12 and 6.9e-10.
    d = chirped_small()
    grid = RadialGrid(40.0, 513)
    short, even = (first_corrector(d, 0.02, grid=grid, dt=dt,
                                   sample_times=[0.0075, 0.02])
                   for dt in (0.005, 0.0025))
    for i in range(2):
        for name, bound in (("a1", 1e-13), ("phi1", 1e-10)):
            x = getattr(short, name)[i].values
            y = getattr(even, name)[i].values
            assert np.max(np.abs(x - y)) <= bound * np.max(np.abs(y))


def test_corrector_time_error_gate_fails_closed():
    # the coarse-fine estimate reads 4.3e-10 at dt = 1e-2 and T = 0.4, and
    # 1.396e-3 at dt = 0.5 and T = 1, past TIME_ERROR_TOL = 1e-3
    d = chirped_small()
    grid = RadialGrid(40.0, 513)
    cs = first_corrector(d, 0.4, grid=grid, dt=1e-2, sample_times=[0.0, 0.4])
    assert cs.time_error[0] == 0.0
    assert 0.0 < cs.time_error[1] <= 1e-4
    with pytest.raises(StepRejectionError, match="time-error estimate 1.39"):
        first_corrector(d, 1.0, grid=grid, dt=0.5)


def test_corrector_at_t_end_zero_is_the_zero_state(smooth_small):
    grid = RadialGrid(40.0, 513)
    cs = first_corrector(smooth_small, 0.0, grid=grid, sample_times=[0.0])
    assert cs.times.tolist() == [0.0] and cs.time_error.tolist() == [0.0]
    assert not cs.a1[0].values.any() and not cs.phi1[0].values.any()
    for t_end, dt in ((-1e-3, 0.1), (0.0, 0.0)):
        with pytest.raises(ParameterError):
            first_corrector(smooth_small, t_end, grid=grid, dt=dt)


def test_corrector_sample_times(smooth_small):
    cs = first_corrector(smooth_small, 0.4, grid=RadialGrid(40.0, 513),
                         sample_times=[0.0, 0.2, 0.4])
    assert np.allclose(cs.times, [0.0, 0.2, 0.4], atol=1e-9)
    assert len(cs.a1) == 3


# The first corrector of the chirped smooth ball (chirp 1) at T = 0.5 from an
# independent scheme: the Eulerian semi-Lagrangian march (nodes fixed in r,
# feet traced back along the flow) on 4097 nodes.  (r, a1, phi1) at radii
# that are nodes of both that grid and the 2049-node label grid.
EULERIAN_ANCHOR = (
    (0.0, -0.683271749982 - 0.030709965449j, -0.0455069997281),
    (0.625, -0.419282292928 - 0.231194091613j, -0.0308074303703),
    (1.25, 0.486018912979 - 0.590395292580j, -0.00521563543062),
    (1.875, -0.241261178490 + 0.261315228277j, 2.45554120318e-05),
    (2.5, -0.00893451009276 + 0.0132347577205j, 2.30976310018e-10),
    (3.75, -6.84694801368e-09 + 1.72286783694e-07j, -5.05075249165e-09),
)


def test_corrector_matches_converged_eulerian_march(smooth_chirped):
    grid = RadialGrid(40.0, 2049)
    a1, phi1 = first_corrector(smooth_chirped, 0.5, grid=grid).at_final()
    for r, a1_ref, phi1_ref in EULERIAN_ANCHOR:
        i = round(r / grid.dr)
        assert abs(phi1.values[i] - phi1_ref) <= 1e-6     # measured 1.5e-7
        assert abs(a1.values[i] - a1_ref) <= 1e-4         # measured 3.6e-5
