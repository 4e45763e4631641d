import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiwkb import (DomainError, ParameterError, RadialGrid, RadialProfile,
                     decay_fit, leading_order, lp_norm, norm_diagnostics)
from semiwkb.norms import sphere_area


def test_sphere_area_values():
    assert abs(sphere_area(3) - 4.0 * np.pi) < 1e-14
    assert abs(sphere_area(2) - 2.0 * np.pi) < 1e-14
    assert abs(sphere_area(4) - 2.0 * np.pi ** 2) < 1e-13


def test_lp_norm_ball_volume():
    g = RadialGrid(10.0, 8001)       # node exactly at the jump
    r = g.nodes
    f = np.where(r < 1.0, 1.0, 0.0)
    val = lp_norm(f, r, 3, 2) ** 2
    # sampled indicator: accurate to the single jump cell
    assert abs(val - 4.0 * np.pi / 3.0) < 4.0 * np.pi * g.dr


def test_lp_norm_gaussian_exact():
    g = RadialGrid(20.0, 4096)
    r = g.nodes
    val = lp_norm(np.exp(-r ** 2 / 2), r, 3, 2) ** 2
    assert abs(val - np.pi ** 1.5) < 1e-10
    assert lp_norm(np.exp(-r ** 2 / 2), r, 3, np.inf) == 1.0


@pytest.mark.parametrize("p", [0.5, -np.inf, np.nan])
def test_lp_norm_refuses_p_below_one(p):
    # -inf and NaN too: neither is the sup norm, nor a norm at all
    r = RadialGrid(20.0, 256).nodes
    with pytest.raises(ParameterError, match="p must be in"):
        lp_norm(np.exp(-r ** 2), r, 3, p)


def test_all_norms_vanish_for_zero():
    g = RadialGrid(10.0, 512)
    for n in (1, 3):
        rep = norm_diagnostics(RadialProfile(g, np.zeros(512)), n, t=1.0)
        assert rep.t == 1.0 and rep.l2 == 0.0 and rep.y_norm == 0.0


def test_y_norm_gaussian_closed_form():
    # a = exp(-r^2/2) in R^n: ||a||^2 = pi^(n/2), ||grad a||^2 = (n/2) pi^(n/2),
    # ||grad^2 a||^2 = n(n+2)/4 pi^(n/2); real and complex-phase samples agree
    g = RadialGrid(30.0, 4096)
    a = np.exp(-g.nodes ** 2 / 2)
    for n in (1, 2, 3, 4):
        l2 = np.pi ** (n / 4)
        exact = l2 * (1.0 + np.sqrt(n / 2) + np.sqrt(n * (n + 2) / 4))
        for vals in (a, np.exp(0.3j) * a):
            rep = norm_diagnostics(RadialProfile(g, vals), n)
            assert abs(rep.y_norm - exact) / exact <= 1e-9
            if n % 2:   # the trapezoid rule is spectral on an even integrand
                assert abs(rep.l2 - l2) / l2 <= 1e-12


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=5.0),
       p=st.sampled_from([1.0, 2.0, 4.0, 8.0]))
def test_lp_monotone_under_domination(scale, p):
    g = RadialGrid(10.0, 256)
    r = g.nodes
    f = scale * np.exp(-r ** 2)
    gbig = f + 0.3 * np.exp(-((r - 2.0) ** 2))
    assert lp_norm(f, r, 3, p) <= lp_norm(gbig, r, 3, p) + 1e-14


def test_grad_phi0_l8_decays(smooth):
    # whole-space norm (label-space quadrature with the vacuum tail); the
    # decay is slow (the phase gradient lives on the Coulomb tail), so the
    # factor-2 witness needs a long horizon
    from semiwkb.harness import velocity_norms
    top = 20.0 * (1.5 * smooth.tail_coeff * 1e5) ** (2.0 / 3.0)
    _, (early, late) = velocity_norms(smooth, [1.0, 1e5], top)
    assert late < 0.5 * early
    # the fixed-window Eulerian norm also strictly decreases
    grid = smooth.grid
    vals = []
    for t in (1.0, 10.0, 100.0):
        f = leading_order(smooth, t, grid)
        v = f.phi0.derivative(1, left_parity="even")
        vals.append(lp_norm(v, grid.nodes, 3, 8))
    assert vals[2] < vals[1] < vals[0]


# -- decay fitting ---------------------------------------------------------------

def test_decay_fit_synthetic_power_law():
    t = np.geomspace(1.0, 1e4, 25)
    fit = decay_fit(t, t ** (-1.0 / 3.0))
    assert abs(fit.exponent + 1.0 / 3.0) < 0.01
    assert fit.stderr < 1e-10


def test_decay_fit_validation():
    t = np.geomspace(1.0, 1e3, 25)
    with pytest.raises(DomainError):
        decay_fit(t, np.linspace(-1.0, 1.0, 25))
    with pytest.raises(ParameterError):
        decay_fit(t[:5], t[:5])
    with pytest.raises(ParameterError):
        decay_fit(np.linspace(1.0, 10.0, 25), np.ones(25))  # < 2 decades
