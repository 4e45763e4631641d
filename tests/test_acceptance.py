"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from semiwkb import (RadialGrid, RadialProfile, ball_data, blowup_time,
                     classify, compatible_phase, critical_threshold,
                     explicit_characteristics, first_corrector, free_data,
                     integrate_characteristics, leading_order,
                     limit_system_residual, run, sample_amplitude,
                     smooth_ball_data)
from semiwkb.euler_poisson import (FINITE_TIME_BLOWUP, GLOBAL,
                                   NECESSARY_CONDITION_VIOLATED, UNDETERMINED)
from semiwkb.harness import (DataConfig, ExperimentConfig, decay_study,
                             fit_order)
from semiwkb.norms import sphere_area


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} PASS ({name}): {detail}")


# -- 1. characteristic cross-validation ---------------------------------------

def test_acceptance_1_characteristic_cross_validation(ball):
    start = time.perf_counter()
    times = np.linspace(0.0, 10.0, 11)
    worst = 0.0
    for R in np.linspace(0.1, 5.0, 12):
        traj = integrate_characteristics(ball, float(R), 10.0, tol=1e-11,
                                         t_eval=times)
        state = explicit_characteristics(ball, times, np.array([R]))
        worst = max(worst,
                    float(np.max(np.abs(traj.X - state.X) / np.abs(state.X))),
                    float(np.max(np.abs(traj.B - state.B) / np.abs(state.B))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 5.0
    _report(1, "characteristic cross-validation",
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


# -- 2. collapse time -----------------------------------------------------------

def test_acceptance_2_collapse_time(ball_zero_velocity):
    hit = blowup_time(ball_zero_velocity, 1.0, 10.0)
    assert hit is not None
    t_c, mechanism = hit
    exact = 0.5 * np.pi * np.sqrt(1.5)   # energy-method closed form
    assert abs(t_c - exact) < 1e-4
    assert mechanism == "PositionVanishes"
    _report(2, "collapse time", f"t_c = {t_c:.6f} vs {exact:.6f}")


# -- 3. classifier soundness -----------------------------------------------------

def _brute_force_confirms(data, verdict, t_max=1000.0):
    """Event detection agrees with the verdict (lam>0 checked one-way)."""
    if verdict.kind == UNDETERMINED:
        return True
    if verdict.kind == GLOBAL:
        for R in (0.3, 0.7, 1.2, 2.0, 4.0):
            traj = integrate_characteristics(data, R, t_max, tol=1e-8)
            if traj.event_time is not None:
                return False
            if traj.X[-1] < 3.0 * R:        # must grow unboundedly
                return False
        return True
    # blowup / violated necessary condition: the certificate label breaks down
    labels = [verdict.label] if verdict.label is not None else []
    labels += [0.5, 1.0, 1.5]
    for R in labels:
        traj = integrate_characteristics(data, R, t_max, tol=1e-8)
        if traj.event_time is not None:
            return True
    return False


def _instance_batch():
    """100 deterministic randomized instances with their expected verdicts."""
    rng = np.random.default_rng(715225)
    grid = RadialGrid(20.0, 1024)
    cases = []

    def rising_profile(scale):
        return RadialProfile(grid, scale * (1.0 - np.exp(-grid.nodes ** 2)))

    def humped_profile(scale):
        r = grid.nodes
        return RadialProfile(grid, scale * r * np.exp(-r ** 2 / 2.0))

    for i in range(20):      # compatible family: global in n >= 3
        n = 3 if i % 2 == 0 else 4
        alpha = float(rng.uniform(0.5, 2.0))
        cases.append((smooth_ball_data(n=n, grid=grid, scale=alpha), GLOBAL))
    for i in range(16):      # undershoot: C < 0 somewhere
        n = 3 if i % 2 == 0 else 4
        beta = float(rng.uniform(0.3, 0.85))
        cases.append((smooth_ball_data(n=n, grid=grid, velocity_scale=beta),
                      FINITE_TIME_BLOWUP))
    for i in range(16):      # overshoot: C >= 0 but C' < 0 somewhere
        n = 3 if i % 2 == 0 else 4
        beta = float(rng.uniform(1.25, 2.0))
        cases.append((smooth_ball_data(n=n, grid=grid, velocity_scale=beta),
                      FINITE_TIME_BLOWUP))
    for _ in range(8):       # inflow
        beta = -float(rng.uniform(0.2, 1.0))
        cases.append((smooth_ball_data(n=3, grid=grid, velocity_scale=beta),
                      FINITE_TIME_BLOWUP))
    for i in range(12):      # attractive low dimension with mass
        n = 1 if i % 2 == 0 else 2
        alpha = float(rng.uniform(0.5, 1.5))
        cases.append((ball_data(n=n, lam=-1.0, velocity="zero", grid=grid,
                                density=alpha ** 2), FINITE_TIME_BLOWUP))
    for _ in range(6):       # vacuum, outgoing non-compressive: global
        n = int(rng.choice([1, 2, 3]))
        cases.append((free_data(rising_profile(float(rng.uniform(0.2, 1.0))),
                                n, lam=-1.0 if n <= 2 else 0.0), GLOBAL))
    for _ in range(6):       # vacuum with compression: wave breaking
        n = int(rng.choice([1, 2, 3]))
        cases.append((free_data(humped_profile(float(rng.uniform(0.3, 1.0))),
                                n, lam=-1.0 if n <= 2 else 0.0),
                      FINITE_TIME_BLOWUP))
    for _ in range(10):      # repulsive with decaying velocity: C' < 0 far out
        beta = float(rng.uniform(0.5, 1.5))
        base = smooth_ball_data(n=3, grid=grid, velocity_scale=beta)
        from semiwkb.profiles import InitialData
        rep = InitialData(n=3, lam=1.0, amplitude=base.amplitude,
                          phase=base.phase, velocity=base.velocity,
                          mass=base.mass,
                          threshold=critical_threshold(
                              RadialProfile(grid, np.abs(base.amplitude.values) ** 2),
                              base.velocity, 1.0, 3),
                          kappa=None, delta=None, compatible=False,
                          m_infinity=base.m_infinity,
                          tail_coeff=base.tail_coeff, exact=None)
        cases.append((rep, NECESSARY_CONDITION_VIOLATED))
    for _ in range(6):       # repulsive, rising velocity: undetermined
        cases.append((free_data(rising_profile(float(rng.uniform(0.2, 1.0))),
                                3, lam=1.0), UNDETERMINED))
    assert len(cases) == 100
    return cases


# the tol-1e-8 brute force still stalls on the n = 4 collapses
@pytest.mark.filterwarnings("ignore:step-size underflow:RuntimeWarning")
def test_acceptance_3_classifier_soundness():
    start = time.perf_counter()
    agree = 0
    for data, expected in _instance_batch():
        verdict = classify(data)
        assert verdict.kind == expected, (verdict.kind, expected,
                                          verdict.certificate)
        assert _brute_force_confirms(data, verdict), verdict.certificate
        agree += 1
    elapsed = time.perf_counter() - start
    assert agree == 100
    assert elapsed < 60.0
    _report(3, "classifier soundness", f"100/100 agree, {elapsed:.1f}s")


# -- 4. compatible-phase threshold ------------------------------------------------

def test_acceptance_4_compatible_phase_threshold():
    worst = 0.0
    for make in (lambda g: sample_amplitude(3, 0.25, 3, g),
                 lambda g: sample_amplitude(7, 0.25, 3, g),
                 lambda g: smooth_ball_data(grid=g).amplitude):
        grid = RadialGrid(40.0, 4096)
        A = make(grid)
        phi, v = compatible_phase(A, -1.0, 3)
        rho = RadialProfile(grid, np.abs(A.values) ** 2)
        C = critical_threshold(rho, v, -1.0, 3)
        worst = max(worst, float(np.max(np.abs(C.values))))
    assert worst <= 1e-8
    _report(4, "compatible-phase threshold", f"max |C| = {worst:.2e}")


# -- 5. limit-system residuals -----------------------------------------------------

def test_acceptance_5_limit_system_residuals(smooth_chirped):
    worst = {"transport": 0.0, "hjb": 0.0, "poisson": 0.0}
    for t in (0.5, 1.0, 5.0):
        fields = leading_order(smooth_chirped, t, smooth_chirped.grid)
        tr, hj, po = limit_system_residual(fields, smooth_chirped)
        r = fields.grid.nodes
        w = (r >= 0.2) & (r <= 10.0)
        scale = np.max(r ** 2 * np.abs(fields.a0.values) ** 2)
        worst["transport"] = max(worst["transport"],
                                 float(np.max(np.abs(tr.values[w]))))
        worst["hjb"] = max(worst["hjb"], float(np.max(np.abs(hj.values[w]))))
        worst["poisson"] = max(worst["poisson"],
                               float(np.max(np.abs(po.values[w])) / scale))
    assert all(v <= 1e-5 for v in worst.values()), worst
    _report(5, "limit-system residuals",
            ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# -- 6. solver verification ----------------------------------------------------------

def test_acceptance_6_solver_verification(smooth_chirped):
    from semiwkb.profiles import InitialData
    from semiwkb.schrodinger import discrete_mass, strang_step, initial_wavefield

    # free Gaussian against the closed-form evolution
    g = RadialGrid(20.0, 512)
    r = g.nodes
    zero = RadialProfile(g, np.zeros(512))
    gauss = InitialData(n=3, lam=0.0,
                        amplitude=RadialProfile(g, np.exp(-r ** 2 / 2)),
                        phase=zero, velocity=zero, mass=zero, threshold=zero,
                        kappa=None, delta=None, compatible=False,
                        m_infinity=0.0, tail_coeff=0.0, exact=None)
    wg = RadialGrid(20.0, 4096, include_origin=False)
    eps, T = 0.1, 1.0
    res = run(gauss, eps, T, dt=1e-3, grid=wg, snapshot_times=[T])
    u = res.snapshots[-1]
    z = 1.0 + 1j * eps * T
    exact = z ** -1.5 * np.exp(-u.r ** 2 / (2.0 * z))
    gerr = float(np.sqrt(4 * np.pi * np.sum(np.abs(u.values - exact) ** 2
                                            * u.r ** 2) * u.dr))
    assert gerr <= 1e-6

    # mass drift per 1000 steps
    wg2 = RadialGrid(40.0, 2048, include_origin=False)
    u2 = initial_wavefield(smooth_chirped, 0.5, wg2)
    m0 = discrete_mass(u2)
    for _ in range(1000):
        u2 = strang_step(u2, 1e-3)
    drift = abs(discrete_mass(u2) - m0) / m0
    assert drift <= 1e-10

    # dt self-convergence order
    def final(dt):
        rr = run(smooth_chirped, 0.25, 0.25, dt=dt, grid=wg2,
                 snapshot_times=[0.25])
        return rr.snapshots[-1].values

    f1, f2, f3 = final(4e-3), final(2e-3), final(1e-3)
    order = float(np.log2(np.linalg.norm(f1 - f2) / np.linalg.norm(f2 - f3)))
    assert 1.9 <= order <= 2.1
    _report(6, "solver verification",
            f"gaussian err {gerr:.2e}, drift {drift:.2e}, dt order {order:.3f}")


# -- 7 & 8. WKB order ------------------------------------------------------------------

@pytest.fixture(scope="module")
def wkb_ladder(smooth_chirped):
    data = smooth_chirped
    T = 0.5
    wgrid = RadialGrid(40.0, 8192, include_origin=False)
    r, dr = wgrid.nodes, wgrid.dr
    start = time.perf_counter()
    fields = leading_order(data, T, wgrid)
    a0T, phi0T = fields.a0.values, fields.phi0.values
    corr = first_corrector(data, T, grid=RadialGrid(40.0, 2049))
    a1T, p1T = corr.at_final()
    beta0 = a0T * np.exp(1j * p1T(r))
    ladder = np.array([1 / 8, 1 / 16, 1 / 32, 1 / 64])
    errs_mod, errs_full = [], []
    for eps in ladder:
        res = run(data, float(eps), T, dt=float(eps) / 10.0, grid=wgrid,
                  snapshot_times=[T])
        u = res.snapshots[-1].values
        w4pi = 4.0 * np.pi
        errs_mod.append(float(np.sqrt(
            w4pi * np.sum((np.abs(u) - np.abs(a0T)) ** 2 * r ** 2) * dr)))
        errs_full.append(float(np.sqrt(
            w4pi * np.sum(np.abs(u * np.exp(-1j * phi0T / eps) - beta0) ** 2
                          * r ** 2) * dr)))
    elapsed = time.perf_counter() - start
    return ladder, np.array(errs_mod), np.array(errs_full), elapsed


def test_acceptance_7_wkb_order_modulus(wkb_ladder):
    ladder, errs_mod, _, elapsed = wkb_ladder
    slope, excluded = fit_order(ladder, errs_mod)
    assert 0.8 <= slope <= 1.2, (slope, errs_mod)
    assert elapsed < 600.0
    _report(7, "WKB order, modulus",
            f"slope {slope:.3f}, errors {np.array2string(errs_mod, precision=3)}, "
            f"{elapsed:.1f}s")


def test_acceptance_8_wkb_order_full(wkb_ladder):
    ladder, _, errs_full, elapsed = wkb_ladder
    slope, excluded = fit_order(ladder, errs_full)
    assert 0.8 <= slope <= 1.2, (slope, errs_full)
    assert elapsed < 900.0
    _report(8, "WKB order, full (beta0 = a0 e^{i phi1})",
            f"slope {slope:.3f}, errors {np.array2string(errs_full, precision=3)}")


# -- 9. large-time exponents --------------------------------------------------------

def test_acceptance_9_large_time_exponents():
    cfg = ExperimentConfig(scenario="decay-study",
                           data=DataConfig(family="smooth_ball", points=8192),
                           t_tail=(100.0, 10000.0, 13))
    rep = decay_study(cfg)
    fits = rep["fits"]
    assert abs(fits["X_at_1"]["exponent"] - 2.0 / 3.0) <= 0.02
    assert abs(fits["sup_v"]["exponent"] + 1.0 / 3.0) <= 0.02
    assert abs(fits["l2_a0"]["exponent"]) <= 0.01
    assert rep["grad_phi0_lp_strictly_decreasing"]
    _report(9, "large-time exponents",
            f"X: {fits['X_at_1']['exponent']:.4f}, "
            f"sup|v|: {fits['sup_v']['exponent']:.4f}, "
            f"L2(a0): {fits['l2_a0']['exponent']:.2e}, L8 grad phi0 decreasing")


# -- 10. scaling family ----------------------------------------------------------------

def test_acceptance_10_scaling_family():
    grid = RadialGrid(40.0, 4096)
    base = smooth_ball_data(grid=grid)
    R = np.array([0.25, 0.8, 1.5, 3.0, 6.0])
    times = (0.7, 3.0)
    worst = 0.0
    for alpha in (0.1, 1.0, 10.0):
        scaled = smooth_ball_data(grid=grid, scale=alpha)
        assert classify(scaled).kind == GLOBAL
        for t in times:
            a = explicit_characteristics(base, alpha * t, R)
            b = explicit_characteristics(scaled, t, R)
            worst = max(worst, float(np.max(np.abs(a.X - b.X))))
    # one ODE-integrated spot check of the same identity
    scaled = smooth_ball_data(grid=grid, scale=10.0)
    traj = integrate_characteristics(scaled, 1.5, 0.7, tol=1e-11,
                                     t_eval=np.array([0.7]))
    ref = explicit_characteristics(base, 7.0, np.array([1.5]))
    worst = max(worst, float(abs(traj.X[-1] - ref.X[0])))
    assert worst <= 1e-8
    _report(10, "scaling family", f"max |X_alpha(t) - X(alpha t)| = {worst:.2e}")
