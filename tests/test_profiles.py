import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiwkb import (DivisionGuardError, DomainError, ParameterError,
                     RadialGrid, RadialProfile,
                     UnsupportedConfigurationError, ball_data,
                     build_initial_data, compatible_phase, critical_threshold,
                     cumulative_mass, sample_amplitude, sample_data,
                     smooth_ball_data)
from semiwkb.profiles import ExactFields, InitialData, free_data, smooth_cutoff

from oracles import v0_identity_residual


# -- cutoff and amplitude family ------------------------------------------

def test_cutoff_plateaus_and_smoothness():
    r = np.linspace(0.0, 3.0, 301)
    psi = smooth_cutoff(r)
    assert np.all(psi[r <= 1.0] == 1.0)
    assert np.all(psi[r >= 2.0] == 0.0)
    assert np.all((psi >= 0.0) & (psi <= 1.0))
    assert np.all(np.diff(psi) <= 1e-15)


def test_sample_amplitude_values():
    grid = RadialGrid(10.0, 4097)
    A = sample_amplitude(7, 0.25, 3, grid)
    assert A.values[0] == 0.0                         # r^kappa at the origin
    assert abs(A(0.5) - 0.5 ** 7) < 1e-10             # cutoff still 1 there
    assert abs(A(3.0) - 3.0 ** -1.75) < 1e-10         # pure tail branch
    assert np.all(A.values[1:] > 0.0)


def test_sample_amplitude_parameter_errors():
    grid = RadialGrid(10.0, 64)
    with pytest.raises(ParameterError):
        sample_amplitude(0.5, 0.25, 3, grid)
    with pytest.raises(ParameterError):
        sample_amplitude(3, 0.3, 3, grid)
    with pytest.raises(ParameterError):
        sample_amplitude(3, 0.0, 3, grid)
    with pytest.raises(ParameterError):
        sample_amplitude(3, 0.25, 2, grid)


def test_sample_amplitude_asymptotics():
    grid = RadialGrid(200.0, 16384)
    A = sample_amplitude(3, 0.25, 3, grid)
    r = grid.nodes
    near = (r > 0) & (r < 0.3)
    assert np.max(np.abs(A.values[near] / r[near] ** 3 - 1.0)) < 1e-12
    far = r >= 2.0
    assert np.max(np.abs(A.values[far] * r[far] ** 1.75 - 1.0)) < 1e-12


# -- cumulative mass --------------------------------------------------------

def test_cumulative_mass_trivial_zero():
    grid = RadialGrid(10.0, 128)
    zero = RadialProfile(grid, np.zeros(128))
    m = cumulative_mass(zero, 3)
    assert np.all(m.values == 0.0)


def test_cumulative_mass_ball_value_and_saturation():
    grid = RadialGrid(10.0, 8001)          # nodes land exactly on r = 1, 2
    r = grid.nodes
    rho = RadialProfile(grid, np.where(r < 1.0, 1.0, 0.0))
    m = cumulative_mass(rho, 3)
    i1, i2 = 800, 1600
    # sampled jump: quadrature is exact only to one cell at the interface
    assert abs(m.values[i1] - 1.0 / 3.0) < 2.0 * grid.dr
    assert m.values[i2] == m.values[i1]     # mass saturates outside support
    assert np.all(np.diff(m.values) >= 0.0)


def test_cumulative_mass_rejects_negative_density():
    grid = RadialGrid(10.0, 128)
    with pytest.raises(DomainError):
        cumulative_mass(RadialProfile(grid, np.full(128, -1.0)), 3)


@settings(max_examples=20, deadline=None)
@given(kappa=st.integers(min_value=1, max_value=8),
       delta=st.floats(min_value=0.05, max_value=0.25),
       n=st.sampled_from([3, 4, 5]))
def test_mass_monotone_and_saturating(kappa, delta, n):
    data = sample_data(kappa, delta, n=n, grid=RadialGrid(30.0, 1024))
    m = data.mass.values
    assert m[0] == 0.0
    assert np.all(np.diff(m) >= 0.0)
    assert m[-1] <= data.m_infinity + 1e-12


# -- compatible phase -------------------------------------------------------

def test_compatible_phase_trivial_zero():
    grid = RadialGrid(10.0, 128)
    zero = RadialProfile(grid, np.zeros(128))
    phi, v = compatible_phase(zero, -1.0, 3)
    assert np.all(phi.values == 0.0) and np.all(v.values == 0.0)


def test_compatible_phase_ball_values():
    grid = RadialGrid(10.0, 8192)
    r = grid.nodes
    A = RadialProfile(grid, np.sqrt(np.where(r < 1.0, 1.0, 0.0)))
    phi, v = compatible_phase(A, -1.0, 3)
    # closed forms: v = r sqrt(2/3) inside, sqrt(2 m / r) with m = 1/3 outside
    assert abs(v(0.5) - 0.5 * np.sqrt(2.0 / 3.0)) < 2e-3
    assert abs(v(1.0) - np.sqrt(2.0 / 3.0)) < 2e-3
    assert abs(v(2.0) - np.sqrt(1.0 / 3.0)) < 2e-3
    assert np.all(np.diff(phi.values) >= 0.0)
    assert v.values[0] == 0.0


def test_compatible_phase_unsupported_configurations():
    grid = RadialGrid(10.0, 128)
    A = RadialProfile(grid, np.exp(-grid.nodes ** 2))
    with pytest.raises(UnsupportedConfigurationError):
        compatible_phase(A, 1.0, 3)
    with pytest.raises(UnsupportedConfigurationError):
        compatible_phase(A, -1.0, 2)


def test_compatible_data_takes_the_mass_once(monkeypatch):
    # the compatible velocity reuses the data's own mass, and equals the
    # public compatible_phase bit for bit
    from semiwkb import profiles
    calls = []
    mass = profiles.cumulative_mass

    def counting(rho0, n):
        calls.append(n)
        return mass(rho0, n)

    monkeypatch.setattr(profiles, "cumulative_mass", counting)
    data = smooth_ball_data(chirp=1.0, grid=RadialGrid(40.0, 1024))
    assert calls == [3]
    phi, v = compatible_phase(data.amplitude, data.lam, data.n)
    assert np.array_equal(v.values, data.velocity.values)
    assert np.array_equal(phi.values, data.phase.values)


# -- critical threshold -----------------------------------------------------

def test_threshold_vanishes_for_compatible_phase():
    data = sample_data(3, 0.25, grid=RadialGrid(40.0, 4096))
    scale = max(np.max(np.abs(data.velocity.values)) ** 2, 1.0)
    assert np.max(np.abs(data.threshold.values)) < 1e-8 * scale


def test_threshold_uses_the_data_mass_rule():
    # one mass rule: the threshold of the data's own density and velocity
    # is the one the data carries
    for data in (smooth_ball_data(n=3, grid=RadialGrid(40.0, 4096)),
                 smooth_ball_data(n=4, grid=RadialGrid(20.0, 1024)),
                 sample_data(3, 0.25, grid=RadialGrid(40.0, 4096))):
        rho = RadialProfile(data.grid, np.abs(data.amplitude.values) ** 2)
        C = critical_threshold(rho, data.velocity, data.lam, data.n)
        assert np.array_equal(C.values, data.threshold.values)


def test_compatible_rates_four_dimensions_at_origin():
    # F = n v0 / (2R) is smooth through the origin; v0 at the first labels
    # comes from the mass next to the origin
    d = smooth_ball_data(n=4, grid=RadialGrid(20.0, 1024))
    F = d.node_rates[1]
    assert abs(F[0] / F[1] - 1.0) < 0.01                   # measured 0.15 %


def test_threshold_vacuum_is_velocity_squared():
    grid = RadialGrid(10.0, 256)
    r = grid.nodes
    rho = RadialProfile(grid, np.zeros(256))
    v = RadialProfile(grid, r * np.exp(-r))
    C = critical_threshold(rho, v, -1.0, 3)
    assert np.allclose(C.values, (r * np.exp(-r)) ** 2, atol=1e-14)


def test_threshold_ball_zero_velocity():
    data = ball_data(velocity="zero", grid=RadialGrid(40.0, 4001))
    i1 = 100                                      # node exactly at r = 1
    assert data.grid.nodes[i1] == 1.0
    assert abs(data.threshold.values[i1] - (-2.0 / 3.0)) < 1e-12
    with pytest.raises(UnsupportedConfigurationError):
        critical_threshold(data.amplitude, data.velocity, -1.0, 2)


# -- first-order identity residual -----------------------------------------

def test_identity_residual_trivial_cases():
    grid = RadialGrid(10.0, 256)
    r = grid.nodes
    zero = RadialProfile(grid, np.zeros(256))
    res = v0_identity_residual(zero, zero, -1.0, 3)
    assert np.all(res.values == 0.0)
    # v0 = r with no density in dimension 4: residual is exactly 2r
    v = RadialProfile(grid, r.copy())
    res = v0_identity_residual(zero, v, -1.0, 4)
    interior = slice(2, -2)
    assert np.max(np.abs(res.values[interior] - 2.0 * r[interior])) < 1e-9


def test_identity_residual_division_guard():
    grid = RadialGrid(10.0, 256)
    r = grid.nodes
    A = RadialProfile(grid, np.exp(-r ** 2))
    zero = RadialProfile(grid, np.zeros(256))
    with pytest.raises(DivisionGuardError):
        v0_identity_residual(A, zero, -1.0, 3)


def test_identity_residual_small_for_smooth_compatible():
    data = sample_data(3, 0.25, grid=RadialGrid(12.0, 4096))
    res = v0_identity_residual(data.amplitude, data.velocity, data.lam, data.n)
    r = data.grid.nodes
    window = (r >= 0.1) & (r <= 10.0)
    assert np.max(np.abs(res.values[window])) < 1e-6


def test_identity_residual_ball_small_away_from_jump(ball):
    res = v0_identity_residual(ball.amplitude, ball.velocity, ball.lam, ball.n)
    r = ball.grid.nodes
    h = ball.grid.dr
    window = (r >= 0.1) & (r <= 10.0) & (np.abs(r - 1.0) > 6 * h)
    assert np.max(np.abs(res.values[window])) < 1e-6


def test_identity_residual_refines_at_stencil_order():
    maxima = []
    for pts in (1024, 2048, 4096):
        d = smooth_ball_data(grid=RadialGrid(20.0, pts))
        res = v0_identity_residual(d.amplitude, d.velocity, d.lam, d.n)
        r = d.grid.nodes
        w = (r >= 0.1) & (r <= 10.0)
        maxima.append(np.max(np.abs(res.values[w])))
    orders = np.log2(np.array(maxima[:-1]) / np.array(maxima[1:]))
    assert np.all(orders > 3.5)


# -- tail exponents ----------------------------------------------------------

def test_decay_exponent_fits_match_family():
    data = sample_data(3, 0.25, grid=RadialGrid(200.0, 16384))
    r = data.grid.nodes
    seg = (r >= 80.0) & (r <= 180.0)
    slope_A = np.polyfit(np.log(r[seg]),
                         np.log(np.abs(data.amplitude.values[seg])), 1)[0]
    slope_v = np.polyfit(np.log(r[seg]),
                         np.log(data.velocity.values[seg]), 1)[0]
    n, delta = 3, 0.25
    assert abs(slope_A - (-n / 2.0 - delta)) < 0.05
    assert abs(slope_v - (-n / 2.0 + 1.0)) < 0.05


# -- initial data invariants --------------------------------------------------

def test_initial_data_invariants(smooth_chirped):
    d = smooth_chirped
    assert d.mass.values[0] == 0.0
    assert np.all(np.diff(d.mass.values) >= 0.0)
    assert d.compatible
    assert d.amplitude.is_complex
    # |A0| untouched by the chirp: compatible phase built from the modulus
    plain = smooth_ball_data(grid=d.grid)
    assert np.allclose(np.abs(d.amplitude.values), plain.amplitude.values,
                       atol=1e-14)
    assert np.allclose(d.velocity.values, plain.velocity.values, atol=1e-14)


def test_velocity_scaled_data_not_compatible():
    d = smooth_ball_data(velocity_scale=1.1, grid=RadialGrid(30.0, 1024))
    assert not d.compatible
    assert np.max(np.abs(d.threshold.values)) > 1e-3


def test_evaluators_extend_beyond_grid(ball):
    R = np.array([50.0, 80.0])
    assert np.allclose(ball.m0_at(R), 1.0 / 3.0)
    assert np.allclose(ball.v0_at(R), np.sqrt(2.0 / 3.0) * R ** -0.5)
    assert np.all(ball.rho0_at(R) == 0.0)


def test_evaluators_on_grid_data(smooth_small):
    # no oracle: the grid profile inside r_max, the vacuum tail beyond it
    d = smooth_small
    n, c, r_max = d.n, d.tail_coeff, d.r_max
    inner = np.array([0.0, 0.7, 1.3, 25.0])
    assert np.allclose(d.rho0_at(inner), np.abs(d.amplitude(inner)) ** 2,
                       rtol=1e-14, atol=0.0)
    assert np.allclose(d.m0_at(inner), np.clip(d.mass(inner), 0.0, None),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(d.v0_at(inner), d.velocity(inner), rtol=1e-14, atol=0.0)
    assert np.allclose(d.phi0_at(inner), d.phase(inner), rtol=1e-14, atol=0.0)
    assert np.allclose(d.amplitude_at(inner), d.amplitude(inner),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(d.v0_prime_at(inner), d.velocity(inner, 1),
                       rtol=1e-14, atol=0.0)

    # at r_max only the phase takes the tail, which is exact there
    edge = np.array([r_max])
    assert d.phi0_at(edge)[0] == d.phase.values[-1]
    assert np.isclose(d.v0_at(edge)[0], d.velocity.values[-1], rtol=1e-14)
    assert np.isclose(d.m0_at(edge)[0], d.m_infinity, rtol=1e-14)

    R = np.array([50.0, 80.0])
    assert np.allclose(d.v0_at(R), c * R ** (1.0 - n / 2.0), rtol=1e-15)
    assert np.allclose(d.v0_prime_at(R), c * (1.0 - n / 2.0) * R ** (-n / 2.0),
                       rtol=1e-15)
    assert np.all(d.m0_at(R) == d.m_infinity)
    assert np.all(d.rho0_at(R) == 0.0)
    amp = d.amplitude_at(R)
    assert amp.dtype == float and np.all(amp == 0.0)
    assert np.allclose(d.phi0_at(R), d.phase.values[-1] + 2.0 * c * (
        R ** 0.5 - r_max ** 0.5), rtol=1e-14)

    # an oracle without an amplitude leaves the amplitude to the grid
    exact = ExactFields(rho0=lambda x: 0.0 * x + 2.0, m0=d.m0_at,
                        v0=d.v0_at, v0_prime=d.v0_prime_at, phi0=d.phi0_at)
    e = dataclasses.replace(d, exact=exact)
    assert np.all(e.rho0_at(inner) == 2.0)
    assert np.array_equal(e.amplitude_at(inner), d.amplitude_at(inner))
    assert np.array_equal(e.amplitude_at(R), np.zeros(2))
    chirped = smooth_ball_data(chirp=1.0, grid=d.grid)
    assert chirped.amplitude_at(R).dtype == complex


def _reference_continued(self, R, name, on_grid, beyond=None, closed=True,
                         dtype=float):
    """``InitialData._continued`` filling a zero array inside and beyond
    r_max whatever the labels: the reference its shortcut for labels that
    are all inside reproduces bit for bit."""
    R = np.atleast_1d(np.asarray(R, dtype=float))
    oracle = getattr(self.exact, name, None)
    if oracle is not None:
        return oracle(R)
    inside = R <= self.r_max if closed else R < self.r_max
    out = np.zeros_like(R, dtype=dtype)
    if np.any(inside):
        out[inside] = on_grid(R[inside])
    if beyond is not None and not np.all(inside):
        out[~inside] = beyond(R[~inside])
    return out


_LABEL_EVALUATORS = ("rho0_at", "m0_at", "v0_at", "phi0_at", "amplitude_at",
                     "v0_prime_at")


def test_label_evaluators_are_the_reference(smooth_small, ball, monkeypatch):
    # complex and real amplitudes, a vacuum tail and none, and an oracle;
    # labels: a scalar, none, r_max itself (closed for v0, open for phi0),
    # beyond it, and arrays mixing both sides
    grid = smooth_small.grid
    r = grid.nodes
    datasets = [smooth_small, smooth_ball_data(chirp=1.0, grid=grid),
                smooth_ball_data(velocity_scale=0.6, grid=grid),
                free_data(RadialProfile(grid, 1.0 - np.exp(-r ** 2)), 3),
                ball]
    cases = []
    for d in datasets:
        r_max = d.r_max
        for R in (1.1, np.array([]), r_max, np.array([r_max]),
                  np.nextafter(r_max, 0.0), 1.5 * r_max,
                  np.array([0.0, 0.7, r_max]),
                  np.array([2.0 * r_max, 0.0, r_max, 1.3, 3.0 * r_max])):
            for name in _LABEL_EVALUATORS:
                cases.append((d, name, R, getattr(d, name)(R)))

    monkeypatch.setattr(InitialData, "_continued", _reference_continued)
    assert any(out.dtype == complex and out.size for *_, out in cases)
    for d, name, R, out in cases:
        ref = getattr(d, name)(R)
        assert (out.dtype, out.shape, out.tobytes()) == (
            ref.dtype, ref.shape, ref.tobytes()), (name, R)


def test_content_hash_distinguishes_data():
    a = smooth_ball_data(grid=RadialGrid(20.0, 512))
    b = smooth_ball_data(chirp=0.5, grid=RadialGrid(20.0, 512))
    assert a.content_hash() != b.content_hash()
    assert a.content_hash() == smooth_ball_data(grid=RadialGrid(20.0, 512)).content_hash()
