import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import erf, exp1

from semiwkb import (ContractError, DomainError, ParameterError, RadialGrid,
                     RadialProfile, StepRejectionError, ball_data,
                     build_initial_data, first_corrector, leading_order,
                     limit_system_residual, phase_time_constant,
                     poisson_radial, smooth_ball_data)
from semiwkb.grids import derivative_uniform
from semiwkb.norms import lp_norm
from semiwkb.profiles import InitialData, gaussian_free_data
from semiwkb import wkb
from semiwkb.wkb import WkbFields


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
    V = poisson_radial(RadialProfile(g, np.zeros(256)), 3)
    assert np.all(V.values == 0.0)


def test_poisson_gaussian_closed_form():
    g = RadialGrid(20.0, 8192)
    r = g.nodes
    V = poisson_radial(RadialProfile(g, np.exp(-r ** 2)), 3)

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
    V = poisson_radial(RadialProfile(g, np.where(r < 1.0, 1.0, 0.0)), 3)
    # sampled jump limits the accuracy to the cell scale
    assert abs(V(1.0) - 1.0 / 3.0) < 1e-3
    assert abs(V.values[0] - 0.5) < 1e-3


def test_poisson_discrete_residual_invariant():
    g = RadialGrid(20.0, 8192)
    r = g.nodes
    rho = np.exp(-r ** 2)
    V = poisson_radial(RadialProfile(g, rho), 3)
    h = g.dr
    Vp = derivative_uniform(V.values, h, 1, left_parity="even")
    flux = r ** 2 * Vp
    resid = -derivative_uniform(flux, h, 1, left_parity="odd") - r ** 2 * rho
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
            V = poisson_radial(RadialProfile(g, np.exp(-r ** 2)), n).values
            assert V[0] == 0.0
            assert np.all(np.diff(V) < 0.0)
            err[n, points] = np.max(np.abs(V - exact(n, r)))
    for n in (1, 2):
        assert err[n, 1025] < 1e-8
        assert err[n, 1025] / err[n, 2049] > 12.0     # measured 16.0, 14.1
    with pytest.raises(DomainError):
        poisson_radial(RadialProfile(g, np.full(points, -1.0)), 3)


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


def test_leading_order_rejects_bad_input(smooth_chirped, ball_zero_velocity):
    with pytest.raises(ParameterError):
        leading_order(smooth_chirped, -1.0, smooth_chirped.grid)
    with pytest.raises(ContractError):
        leading_order(ball_zero_velocity, 1.0, ball_zero_velocity.grid)
    # lam = -1 with v0 = 0: neither compatible nor a static free background
    with pytest.raises(ContractError):
        first_corrector(ball_zero_velocity, 0.1)


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

    def potential_at_origin(s):
        def integrand(R):
            v0, F, G = (x[0] for x in d.rates_at(R))
            return (v0 * v0 / R) * (1 + F * s) ** (4.0 / n - 3.0) * (1 + G * s)

        total = 0.0
        for a, b in ((1e-9, 1.0), (1.0, 40.0), (40.0, np.inf)):
            val, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11,
                          limit=300)
            total += val
        return 0.5 * (n - 2) * total

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


def test_corrector_inverts_flow_map_once_per_step(smooth_small, monkeypatch):
    times = []
    invert = wkb.invert_flow_map

    def counting(data, t, *args, **kwargs):
        times.append(t)
        return invert(data, t, *args, **kwargs)

    monkeypatch.setattr(wkb, "invert_flow_map", counting)
    first_corrector(smooth_small, 0.02, grid=RadialGrid(40.0, 513), dt=0.005)
    step_times = [t for t in times if t > 0.0]   # t = 0 sets up the first step
    assert len(step_times) == len(set(step_times)) == 4


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
        cs = first_corrector(d, 0.5, grid=RadialGrid(40.0, pts), dt=1e-3)
        finals.append(cs.a1[-1].values)
    e1 = np.max(np.abs(finals[0] - finals[1][::2]))
    e2 = np.max(np.abs(finals[1] - finals[2][::2]))
    assert np.log2(e1 / e2) >= 1.8


def test_corrector_step_rejection(smooth_small):
    with pytest.raises(StepRejectionError):
        first_corrector(smooth_small, 0.5, grid=RadialGrid(40.0, 513), dt=0.5)


def test_corrector_picard_gate_fails_closed(smooth_small, monkeypatch):
    # one sweep leaves the fixed point unsettled by far more than the gate
    monkeypatch.setattr(wkb, "N_PICARD", 1)
    with pytest.raises(StepRejectionError, match="did not settle"):
        first_corrector(smooth_small, 0.01, grid=RadialGrid(40.0, 513))


def test_corrector_sample_times(smooth_small):
    cs = first_corrector(smooth_small, 0.4, grid=RadialGrid(40.0, 513),
                         sample_times=[0.0, 0.2, 0.4])
    assert np.allclose(cs.times, [0.0, 0.2, 0.4], atol=1e-9)
    assert len(cs.a1) == 3
