import dataclasses
import math
import warnings
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

import semiwkb.euler_poisson as ep
from semiwkb import (ContractError, ConvergenceError, ParameterError,
                     RadialGrid, RadialProfile, ResolutionError, ball_data,
                     blowup_time, classify, eulerian_fields,
                     explicit_characteristics, free_data,
                     integrate_characteristics, smooth_ball_data)
from semiwkb.euler_poisson import (DEFORMATION_VANISHES, FINITE_TIME_BLOWUP,
                                   GLOBAL, NECESSARY_CONDITION_VIOLATED,
                                   POSITION_VANISHES, UNDETERMINED,
                                   invert_flow_map, label_flow)
from semiwkb.grids import cumulative_radial
from semiwkb.profiles import (InitialData, build_initial_data,
                              gaussian_free_data, sample_data)


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


def _agreement_data(n, case):
    """Data whose label R = 1 shows one mechanism in dimension n: a ball of
    density 0.3 with an inflow collapses and with an outflow hump crosses
    shells; vacuum (n <= 2) and compatible (n >= 3) data are global."""
    g = RadialGrid(20.0, 1024)
    r = g.nodes
    if case == "global":
        if n <= 2:
            return free_data(RadialProfile(g, 0.5 * (1 - np.exp(-r ** 2))),
                             n, lam=-1.0)
        return smooth_ball_data(n=n, grid=g)
    c = -1.0 if case == "collapse" else 1.0
    ball = ball_data(n=n, lam=-1.0, velocity="zero", grid=g, density=0.3)
    return dataclasses.replace(
        ball, velocity=RadialProfile(g, c * r * np.exp(-r ** 2 / 2)),
        exact=None)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("case", ["collapse", "shell-crossing", "global"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stepper_agrees_with_scipy_rk45(monkeypatch, n, case, tol):
    # the in-module Dormand-Prince stepper against solve_ivp's RK45 on the
    # same right-hand side and events: same mechanism, same steps (to 1 %),
    # event times and dense samples to 1e-10
    data, R = _agreement_data(n, case), 1.0
    seen = {}
    stepper = ep._dormand_prince

    def spy(rhs, y0, t_end, rtol, atol, events, t_eval):
        seen.update(rhs=rhs, y0=y0, rtol=rtol, atol=atol, events=events)
        return stepper(rhs, y0, t_end, rtol, atol, events, t_eval)
    monkeypatch.setattr(ep, "_dormand_prince", spy)

    def terminal(g):
        def event(t, y):
            return g(t, y)
        event.terminal, event.direction = True, -1
        return event

    t_end, t_eval = 20.0, np.linspace(0.0, 20.0, 401)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        traj = integrate_characteristics(data, R, t_end, tol=tol)
        dense = integrate_characteristics(data, R, t_end, tol=tol,
                                          t_eval=t_eval)
    with np.errstate(all="ignore"):
        options = dict(method="RK45", rtol=seen["rtol"], atol=seen["atol"],
                       events=[terminal(g) for g in seen["events"]])
        ref = solve_ivp(seen["rhs"], (0.0, t_end), seen["y0"], **options)
        ref_dense = solve_ivp(seen["rhs"], (0.0, t_end), seen["y0"],
                              t_eval=t_eval, **options)

    hits = [(float(te[0]), mech) for te, mech in
            zip(ref.t_events, (POSITION_VANISHES, DEFORMATION_VANISHES))
            if te.size]
    if ref.status == -1:
        hits = [(float(ref.t[-1]), POSITION_VANISHES)]
    expected = {"collapse": POSITION_VANISHES,
                "shell-crossing": DEFORMATION_VANISHES, "global": None}[case]
    assert traj.event_mechanism == expected
    assert len(caught) == 2 * (ref.status == -1)
    if expected is None:
        assert hits == [] and dense.event_time is None
    else:
        (t_ref, mech), = hits
        assert traj.event_mechanism == dense.event_mechanism == mech
        assert abs(traj.event_time - t_ref) <= 1e-10 * t_ref
    assert abs(len(traj.t) - len(ref.t)) <= 0.01 * len(ref.t)
    assert np.array_equal(dense.t, ref_dense.t)
    ours = np.array([dense.X, dense.Xdot, dense.B])
    scale = np.max(np.abs(ref_dense.y[:3]), axis=1, keepdims=True)
    assert np.all(np.abs(ours - ref_dense.y[:3]) <= 1e-10 * scale)


def _tableau_step(rhs, t, y, f, h, rtol, atol):
    """The Dormand-Prince trial step driven by the tableau over any number
    of components: the reference ``ep._dp_step``, written out for the four
    components (X, X', B, B'), reproduces bit for bit."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = ep._DP_A
    b1, _, b3, b4, b5, b6 = ep._DP_B
    e1, _, e3, e4, e5, e6, e7 = ep._DP_E
    c2, c3, c4, c5, c6 = ep._DP_C
    k1 = f
    k2 = rhs(t + c2 * h, [yi + (a21 * p) * h for yi, p in zip(y, k1)])
    k3 = rhs(t + c3 * h, [yi + (a31 * p + a32 * q) * h
                          for yi, p, q in zip(y, k1, k2)])
    k4 = rhs(t + c4 * h, [yi + (a41 * p + a42 * q + a43 * r) * h
                          for yi, p, q, r in zip(y, k1, k2, k3)])
    k5 = rhs(t + c5 * h, [yi + (a51 * p + a52 * q + a53 * r + a54 * s) * h
                          for yi, p, q, r, s in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + c6 * h, [yi + (a61 * p + a62 * q + a63 * r + a64 * s
                                + a65 * u) * h
                          for yi, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
    y_new = [yi + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * w)
             for yi, p, r, s, u, w in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y_new)
    scaled = [(e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z) * h
              / (atol + max(abs(yi), abs(yn)) * rtol)
              for yi, yn, p, r, s, u, w, z
              in zip(y, y_new, k1, k3, k4, k5, k6, k7)]
    error = math.sqrt(sum(v * v for v in scaled)) / len(scaled) ** 0.5
    return y_new, (k1, k2, k3, k4, k5, k6, k7), error


def _step_outcome(step, rhs, t, y, h, rtol, atol):
    """The bytes of (y_new, stages, error) of one trial step from (t, y), or
    the exception a stage raised."""
    try:
        y_new, K, error = step(rhs, t, y, rhs(t, y), h, rtol, atol)
    except (ZeroDivisionError, OverflowError) as exc:
        return repr(exc)
    return np.array([*y_new, *np.ravel(K), error]).tobytes()


# stage 2 lands X on 0.0 (a21 * -5 rounds to -1), and on 2e-78, whose
# X^-4 overflows
_ZERO_STAGE = dict(n=3, lam=-1.0, m0R=1.0, mpR=1.0, y=(1.0, -5.0, 1.0, 0.0),
                   t=0.0, h=1.0, rtol=1e-10, atol=1e-12)
_OVERFLOW_STAGE = dict(n=4, lam=1.0, m0R=1.0, mpR=1.0,
                       y=(1e-77, -4e-77, 1.0, 0.0), t=0.0, h=1.0, rtol=1e-10,
                       atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 4]), lam=st.sampled_from([-1.0, 1.0]),
       m0R=st.floats(0.0, 10.0), mpR=st.floats(0.0, 10.0),
       y=st.tuples(st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3),
                   st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                   st.floats(-10.0, 10.0)),
       t=st.floats(0.0, 100.0), h=st.floats(1e-8, 10.0),
       rtol=st.floats(1e-13, 1e-2), atol=st.floats(0.0, 1e-4))
@example(**_ZERO_STAGE)
@example(**_OVERFLOW_STAGE)
def test_unrolled_step_is_the_tableau_step(n, lam, m0R, mpR, y, t, h, rtol,
                                           atol):
    # the same y_new, seven stages and error norm to the bit, or the same
    # exception from a stage
    rhs = ep._char_rhs(n, lam, m0R, mpR)
    assert (_step_outcome(ep._dp_step, rhs, t, list(y), h, rtol, atol)
            == _step_outcome(_tableau_step, rhs, t, list(y), h, rtol, atol))


@pytest.mark.parametrize("case, raised", [(_ZERO_STAGE, ZeroDivisionError),
                                          (_OVERFLOW_STAGE, OverflowError)])
def test_unrolled_step_raises_where_the_tableau_step_does(case, raised):
    rhs = ep._char_rhs(case["n"], case["lam"], case["m0R"], case["mpR"])
    y, t, h = list(case["y"]), case["t"], case["h"]
    for step in (ep._dp_step, _tableau_step):
        with pytest.raises(raised):
            step(rhs, t, y, rhs(t, y), h, case["rtol"], case["atol"])


def test_unrolled_step_keeps_the_acceptance_batch_verdicts(monkeypatch):
    # kind, t_c, mechanism, certificate and label of every witness in
    # acceptance 3's seed-0 batch are the tableau step's
    from test_acceptance import _instance_batch
    batch = [data for data, _ in _instance_batch()]

    def verdicts():
        return [dataclasses.astuple(classify(d, witness=True)) for d in batch]
    ours = verdicts()
    monkeypatch.setattr(ep, "_dp_step", _tableau_step)
    assert verdicts() == ours


def _reference_dormand_prince(rhs, y0, t_end, rtol, atol, events, t_eval):
    """``ep._dormand_prince``'s accept loop with its step clamps written as
    max/min, the last stage as K[-1] and the events read in pairs: the
    reference the trimmed loop reproduces bit for bit."""
    t, y = 0.0, list(y0)
    f = rhs(t, y)
    h_abs = ep._initial_step(rhs, y, f, t_end, rtol, atol)
    g = [ev(t, y) for ev in events]
    ts, ys = ([t], [y]) if t_eval is None else ([], [])
    i_eval = 0
    while True:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return ts, ys, None, t
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            try:
                y_new, K, error = ep._dp_step(rhs, t, y, f, h, rtol, atol)
            except (ZeroDivisionError, OverflowError):
                error = math.nan
            if error < 1:
                factor = (ep.MAX_FACTOR if error == 0 else
                          min(ep.MAX_FACTOR, ep.SAFETY * error ** -0.2))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(ep.MIN_FACTOR, ep.SAFETY * error ** -0.2)
            rejected = True

        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[-1]
        dense = hit = None
        g_new = [ev(t, y) for ev in events]
        active = [i for i, (a, b) in enumerate(zip(g, g_new)) if a >= 0 >= b]
        g = g_new
        if active:
            dense = ep._dense_output(t_old, h, y_old, K)
            hit = min((brentq(lambda s, ev=events[i]: ev(s, dense(s)),
                              t_old, t, xtol=ep._ROOT_TOL,
                              rtol=ep._ROOT_TOL), i)
                      for i in active)
            t, y = hit[0], dense(hit[0])
        if t_eval is None:
            ts.append(t)
            ys.append(y)
        else:
            while i_eval < len(t_eval) and t_eval[i_eval] <= t:
                dense = dense or ep._dense_output(t_old, h, y_old, K)
                ts.append(t_eval[i_eval])
                ys.append(dense(t_eval[i_eval]))
                i_eval += 1
        if hit is not None or t >= t_end:
            return ts, ys, hit, None


def _loop_outcome(out):
    """The bytes of (ts, ys) and the repr of (hit, stalled_at)."""
    ts, ys, hit, stalled_at = out
    return (len(ts), np.array(ts, dtype=float).tobytes(),
            np.array(ys, dtype=float).tobytes(), repr(hit), repr(stalled_at))


@pytest.mark.filterwarnings("ignore:step-size underflow:RuntimeWarning")
def test_trimmed_loop_is_the_reference_loop(monkeypatch):
    # every run of acceptance 3's seed-0 batch (the witnesses and the brute
    # force from the verdict labels), t_eval runs and the n = 4 stall: the
    # same steps, dense samples, event roots and stalls to the bit, and the
    # trajectory arrays are np.array(ys)'s
    import test_acceptance
    trimmed, integrate, runs = (ep._dormand_prince,
                                ep.integrate_characteristics, [])

    def both(*args):
        out = trimmed(*args)
        assert _loop_outcome(out) == _loop_outcome(
            _reference_dormand_prince(*args))
        runs.append(out)
        return out
    monkeypatch.setattr(ep, "_dormand_prince", both)

    def trajectory(data, R, t_end, **kw):
        traj = integrate(data, R, t_end, **kw)
        ts, ys = runs[-1][:2]
        ref = np.array(ys, dtype=float).reshape(len(ts), 4)
        assert traj.t.tobytes() == np.array(ts, dtype=float).tobytes()
        for k, column in enumerate((traj.X, traj.Xdot, traj.B)):
            assert column.tobytes() == ref[:, k].tobytes()
        return traj
    monkeypatch.setattr(test_acceptance, "integrate_characteristics",
                        trajectory)

    batch = test_acceptance._instance_batch()
    for data, _ in batch:
        assert test_acceptance._brute_force_confirms(
            data, classify(data, witness=True))
    for data, _ in batch[20:60:4]:
        trajectory(data, 1.0, 20.0, t_eval=np.linspace(0.0, 20.0, 41))
    stalled = smooth_ball_data(n=4, grid=RadialGrid(20.0, 1024),
                               velocity_scale=0.425)
    trajectory(stalled, 1.1144, 2000.0)
    # 267 runs: 87 end on an event root, 10 in a step-size stall
    assert any(hit is not None for _, _, hit, _ in runs)
    assert any(at is not None for _, _, _, at in runs)


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


G512 = RadialGrid(20.0, 512)
R512 = G512.nodes


def _humped(n, lam):
    return free_data(RadialProfile(G512, R512 * np.exp(-R512 ** 2 / 2)), n,
                     lam=lam)


# regime: (data, verdict kind, certificate, node of the certificate label or
# None); blowup verdicts start their witness there
CLASSIFY_REGIMES = {
    "free_v0_at_origin": (
        lambda: free_data(RadialProfile(G512, -0.5 + 0.1 * R512), 3),
        FINITE_TIME_BLOWUP, "v0 = -0.5 < 0 at r = 0", 1),
    "free_v0_prime": (
        lambda: _humped(3, 0.0),
        FINITE_TIME_BLOWUP, "v0' = -0.446194 < 0 at r = 1.72211", 44),
    "vacuum_low_dimension_v0_prime": (
        lambda: _humped(2, -1.0),
        FINITE_TIME_BLOWUP, "v0' = -0.446194 < 0 at r = 1.72211", 44),
    "free_global": (
        lambda: free_data(RadialProfile(G512, 1.0 - np.exp(-R512 ** 2)), 3),
        GLOBAL, "free streaming: v0 >= 0 and v0' >= 0", None),
    "low_dimension_mass": (
        lambda: ball_data(n=2, lam=-1.0, velocity="zero", grid=G512),
        FINITE_TIME_BLOWUP, "rho0 not identically zero with n = 2 <= 2", 1),
    "attractive_v0": (
        lambda: smooth_ball_data(grid=G512, velocity_scale=-0.5),
        FINITE_TIME_BLOWUP, "v0 = -0.371839 < 0 at r = 1.21331", 31),
    "attractive_C": (
        lambda: ball_data(velocity="zero", grid=G512),
        FINITE_TIME_BLOWUP, "C = -0.655128 < 0 at r = 1.01761", 26),
    "attractive_C_prime": (
        lambda: smooth_ball_data(grid=G512, velocity_scale=1.3),
        FINITE_TIME_BLOWUP, "C' = -0.194729 < 0 at r = 1.48728", 38),
    "attractive_global": (
        lambda: smooth_ball_data(grid=G512),
        GLOBAL, "v0 >= 0, C >= 0, C' >= 0 on the grid", None),
    "repulsive_C_prime": (
        lambda: build_initial_data(smooth_ball_data(grid=G512).amplitude,
                                   1.0, 3),
        NECESSARY_CONDITION_VIOLATED, "C' = -0.282216 < 0 at r = 1.48728",
        38),
    "repulsive_undetermined": (
        lambda: free_data(RadialProfile(G512, 0.3 * R512 / (1.0 + R512)), 3,
                          lam=1.0),
        UNDETERMINED, "necessary condition C' >= 0 holds; no sufficient test",
        None),
}


@pytest.mark.parametrize("regime", sorted(CLASSIFY_REGIMES))
def test_classify_certificate_and_witness_label(regime, monkeypatch):
    # one sign rule: the first violated check names the certificate, and the
    # witness starts at its node, moved off the origin to r[1]
    build, kind, certificate, node = CLASSIFY_REGIMES[regime]
    labels = []
    blowup = ep.blowup_time
    monkeypatch.setattr(ep, "blowup_time", lambda data, R, t_max:
                        labels.append(R) or blowup(data, R, t_max))
    v = classify(build(), witness=True)
    assert (v.kind, v.certificate) == (kind, certificate)
    assert v.label == (None if node is None else R512[node])
    if kind == FINITE_TIME_BLOWUP:
        assert labels == [R512[node]]
        assert v.t_c is not None and v.t_c > 0
    else:
        assert labels == [] and v.t_c is None


def test_verdict_label_is_the_node_not_its_print():
    # the certificate prints the node to 6 digits; the verdict carries the
    # node itself, so a witness rerun from it starts on the same label
    for regime in ("free_v0_prime", "attractive_C", "repulsive_C_prime"):
        build, _, certificate, node = CLASSIFY_REGIMES[regime]
        v = classify(build())
        printed = float(certificate.rsplit("at r = ", 1)[1])
        assert v.label == R512[node] and type(v.label) is float
        assert v.label != printed
        assert abs(v.label - printed) <= 5e-6 * printed
        assert v.as_dict()["label"] == v.label


def test_classify_witness_for_inflow_at_the_origin():
    # v0(0) < 0: the witness runs from r[1], where X = R + v0(R) t reaches
    # the collapse floor X_FLOOR_FRACTION * R
    d = free_data(RadialProfile(G512, -0.5 + 0.1 * R512), 3)
    v = classify(d, witness=True)
    R = R512[1]
    assert v.mechanism == POSITION_VANISHES
    assert v.t_c == pytest.approx(
        R * (1.0 - ep.X_FLOOR_FRACTION) / (0.5 - 0.1 * R), rel=1e-8)


def test_classify_free_streaming_witness_time():
    # B = 1 + v0'(R) t vanishes at t = -1/v0'(R) on the witness node
    v = classify(_humped(3, 0.0), witness=True)
    R = R512[44]
    assert v.mechanism == DEFORMATION_VANISHES
    assert v.t_c == pytest.approx(-1.0 / ((1.0 - R * R) * np.exp(-R * R / 2)),
                                  rel=1e-6)


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


def test_label_flow_is_explicit_characteristics(smooth_small, ball,
                                                monkeypatch):
    # one object holds the closed form: its rates are taken once, and every
    # time it is asked for gives the explicit state bit for bit
    R = np.concatenate([[0.0], np.geomspace(1e-3, 80.0, 37)])
    times = (0.0, 0.5, 7.0, 1e4, np.array([[0.25], [3.0]]))
    for data in (smooth_small, ball):
        flow = label_flow(data, R)
        for t in times:
            a, b = flow.at(t), explicit_characteristics(data, t, R)
            for name in ("R", "X", "Xdot", "B", "J"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
    calls = []
    rates_at = InitialData.rates_at
    monkeypatch.setattr(InitialData, "rates_at",
                        lambda self, R: calls.append(1) or rates_at(self, R))
    flow = label_flow(smooth_small, R)
    for t in np.linspace(0.0, 10.0, 11):
        flow.at(t)
    assert len(calls) == 1


def test_explicit_characteristics_requires_compatible(ball_zero_velocity):
    with pytest.raises(ContractError):
        explicit_characteristics(ball_zero_velocity, 1.0, np.array([1.0]))
    with pytest.raises(ContractError):
        label_flow(ball_zero_velocity, np.array([1.0]))


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


@pytest.mark.parametrize("n", [3, 4])
def test_ode_starts_on_the_closed_form_flow(n):
    # the ODE's B'(0) = v0'(R) is the slope of the interpolant that gives
    # X'(0) = v0(R), as in the closed form, so the two flows leave every
    # label together: 1.4e-8 apart over t <= 0.1 (the stencil-slope spline
    # the ODE read before was 4.9e-7 apart)
    d = smooth_ball_data(n, grid=RadialGrid(20.0, 1024))
    times = np.linspace(0.0, 0.1, 11)
    for R in np.linspace(0.3, 2.0, 18):
        traj = integrate_characteristics(d, float(R), 0.1, tol=1e-12,
                                         t_eval=times)
        state = label_flow(d, [R]).at(times)
        assert np.max(np.abs(traj.X - state.X) / state.X) < 5e-8
        assert np.max(np.abs(traj.B - state.B) / state.B) < 5e-8


@pytest.mark.parametrize("n", [3, 4])
def test_ode_stays_on_the_closed_form_flow(n):
    # on compatible data the force reads m0 from the velocity, so the closed
    # form solves the ODE: B stays within 8.6e-9 (n = 3) and 6.2e-9 (n = 4)
    # of it over t <= 100 at 35 labels; with m0 and rho0 from their splines
    # it drifted 1.1e-3 and 1.6e-3 away
    d = smooth_ball_data(n, grid=RadialGrid(20.0, 1024))
    times = np.linspace(0.0, 100.0, 101)
    for R in np.linspace(0.3, 2.0, 8):
        traj = integrate_characteristics(d, float(R), 100.0, tol=1e-10,
                                         t_eval=times)
        state = label_flow(d, [R]).at(times)
        assert np.max(np.abs(traj.B - state.B)) < 1e-7
        assert np.max(np.abs(traj.X - state.X) / state.X) < 1e-7


def test_zero_velocity_ball_collapses_inward(ball_zero_velocity):
    traj = integrate_characteristics(ball_zero_velocity, 1.0, 1.0,
                                     t_eval=np.linspace(0, 1, 21))
    assert np.all(np.diff(traj.X) < 0)
    assert np.all(traj.Xdot[1:] < 0)
    # every sample after the collapse at t = 1.92: no state, still the event
    late = integrate_characteristics(ball_zero_velocity, 1.0, 10.0,
                                     t_eval=[5.0])
    assert late.t.size == late.X.size == 0
    assert late.event_mechanism == POSITION_VANISHES


def test_integrate_rejects_bad_arguments(ball):
    with pytest.raises(ParameterError):
        integrate_characteristics(ball, -1.0, 1.0)
    with pytest.raises(ParameterError):
        integrate_characteristics(ball, 1.0, 1.0, tol=0.0)
    with pytest.raises(ParameterError):
        integrate_characteristics(ball, 1.0, 0.0)
    with pytest.raises(ParameterError):
        integrate_characteristics(ball, 1.0, 1.0, t_eval=[0.5, 0.2])
    with pytest.raises(ParameterError):
        integrate_characteristics(ball, 1.0, 1.0, t_eval=[0.5, 2.0])


def test_step_size_underflow_reports_approach_to_collapse():
    # an n = 4 position collapse that RK45 cannot step into: the step size
    # falls below 10 ulp(t) after 1,159 points, and the stall is reported
    d = smooth_ball_data(n=4, grid=RadialGrid(20.0, 1024),
                         velocity_scale=0.425)
    with pytest.warns(RuntimeWarning, match="step-size underflow"):
        traj = integrate_characteristics(d, 1.1144, 2000.0)
    assert len(traj.t) == 1159
    assert traj.event_mechanism == POSITION_VANISHES
    assert abs(traj.event_time - 4.451021513363) < 1e-10 * 4.451021513363
    assert traj.event_time == traj.t[-1]


# -- blowup detection -----------------------------------------------------------

def test_blowup_time_collapsing_ball(ball_zero_velocity):
    hit = blowup_time(ball_zero_velocity, 1.0, 10.0)
    assert hit is not None
    t_c, mech = hit
    # energy method: X'^2 = 2 m0 (1/X - 1/R), collapse at (pi/2) sqrt(R^3/(2 m0));
    # the event is the floor X = 1e-8 R, (2/3) (1e-8)^(3/2) / sqrt(2 m0) earlier
    exact = 0.5 * np.pi * np.sqrt(1.5)
    floor = 2.0 / 3.0 * ep.X_FLOOR_FRACTION ** 1.5 * np.sqrt(1.5)
    assert abs(t_c - (exact - floor)) < 1e-13
    assert mech == POSITION_VANISHES


def test_blowup_time_one_dimensional_ball():
    d = ball_data(n=1, lam=-1.0, velocity="zero", grid=RadialGrid(20.0, 1024))
    hit = blowup_time(d, 1.0, 10.0)
    assert hit is not None
    # X = R - (m0(R)/2) t^2 with m0(1) = int_0^1 rho ds = 1 for n = 1
    m01 = float(d.m0_at(1.0)[0])
    assert abs(m01 - 1.0) < 1e-12
    assert abs(hit[0] - np.sqrt(2.0 / m01)) < 1e-4


def _acceptance_scaled_velocity_batch():
    """The 40 n = 3 and n = 4 scaled-velocity instances of acceptance 3's
    batch (undershoot, overshoot, inflow), drawn from its seed in its order
    after the 20 compatible ones."""
    rng = np.random.default_rng(715225)
    rng.uniform(0.5, 2.0, 20)
    scales = ([(3 + i % 2, b) for i, b in enumerate(rng.uniform(0.3, 0.85, 16))]
              + [(3 + i % 2, b) for i, b in enumerate(rng.uniform(1.25, 2.0, 16))]
              + [(3, -b) for b in rng.uniform(0.2, 1.0, 8)])
    grid = RadialGrid(20.0, 1024)
    return [smooth_ball_data(n=n, grid=grid, velocity_scale=float(b))
            for n, b in scales]


@pytest.mark.filterwarnings("ignore:step-size underflow:RuntimeWarning")
def test_witness_agrees_with_rk45_on_the_acceptance_batch():
    # the witness (quadrature collapse time, stepper up to its margin) against
    # the brute-force stepper at tol 1e-12 from the verdict's own label: the
    # same mechanism and t_c to 1e-9; 24 collapses and 16 shell crossings
    kinds = []
    for data in _acceptance_scaled_velocity_batch():
        v = classify(data, witness=True)
        ref = integrate_characteristics(data, v.label, ep.T_MAX_WITNESS,
                                        tol=1e-12)
        assert v.mechanism == ref.event_mechanism, (data.n, v.certificate)
        assert abs(v.t_c - ref.event_time) <= 1e-9 * ref.event_time
        kinds.append(v.mechanism)
    assert kinds.count(POSITION_VANISHES) == 24
    assert kinds.count(DEFORMATION_VANISHES) == 16


def test_blowup_time_does_not_step_into_the_collapse():
    # the label of test_step_size_underflow_reports_approach_to_collapse: the
    # witness takes its collapse time from the energy integral, with no stall
    d = smooth_ball_data(n=4, grid=RadialGrid(20.0, 1024),
                         velocity_scale=0.425)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_c, mech = blowup_time(d, 1.1144, 2000.0)
    assert mech == POSITION_VANISHES
    assert abs(t_c - 4.4510215134) < 1e-10 * t_c


def _late_crossing_ball():
    # a uniform ball collapses homologously (dt_X/dR = 0); a faint inflow
    # growing like r^2 lets outer shells catch up, so dt_X/dR < 0 and the
    # shell at R = 0.5 crosses about 2e-5 t_X before the collapse
    g = RadialGrid(20.0, 1024)
    r = g.nodes
    ball = ball_data(n=3, lam=-1.0, velocity="zero", grid=g)
    return dataclasses.replace(
        ball, velocity=RadialProfile(g, -1e-4 * r ** 2 * np.exp(-r ** 2)),
        exact=None)


def test_blowup_time_finds_a_shell_crossing_just_before_the_collapse():
    d, R = _late_crossing_ball(), 0.5
    v, _, m0, _ = ep._label_rates(d, R)
    t_X = ep._collapse_time(d.n, d.lam, m0, R, v)
    t_c, mech = blowup_time(d, R, 100.0)
    assert mech == DEFORMATION_VANISHES
    # past the point where the witness would stop stepping for a collapse
    assert (1.0 - ep.WITNESS_MARGIN) * t_X < t_c < t_X
    ref = integrate_characteristics(d, R, 100.0, tol=1e-12)
    assert ref.event_mechanism == DEFORMATION_VANISHES
    assert abs(t_c - ref.event_time) <= 1e-9 * t_c


@settings(max_examples=200, deadline=None)
@given(u=st.floats(min_value=0.0, max_value=1.0),
       n=st.sampled_from([1, 3, 4, 5, 6, 7, 8]))
@example(u=0.0, n=5)
@example(u=1.0, n=8)
def test_psi_quotient_is_the_generator_sum(u, n):
    # the generator sum the loop replaced, its floats added left to right
    # from the start 0 as sum() adds them (up to Python 3.11): the same bits.
    # The log case n = 2 is no sum and did not change.
    d = abs(n - 2)
    reference = reduce(add, (u ** j for j in range(d)), 0) / d
    assert ep._psi_quotient(u, n) == reference


def test_blowup_time_none_past_t_max(ball_zero_velocity):
    t_c, _ = blowup_time(ball_zero_velocity, 1.0, 10.0)
    for t_max in (0.5 * t_c, (1.0 - 0.5 * ep.WITNESS_MARGIN) * t_c,
                  t_c * (1.0 - 1e-12)):
        assert blowup_time(ball_zero_velocity, 1.0, t_max) is None
    assert blowup_time(ball_zero_velocity, 1.0, t_c) == (t_c, POSITION_VANISHES)
    # a shell crossing inside the last stretch before the collapse
    d = _late_crossing_ball()
    t_b, _ = blowup_time(d, 0.5, 100.0)
    assert blowup_time(d, 0.5, t_b * (1.0 - 1e-9)) is None
    # the stepper's last step ends at t_max, so the root moves in the last bits
    t, mech = blowup_time(d, 0.5, t_b * (1.0 + 1e-9))
    assert mech == DEFORMATION_VANISHES and t == pytest.approx(t_b, rel=1e-13)


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
            R = invert_flow_map(data, t, radii).R
            st1 = explicit_characteristics(data, t, np.maximum(R[1:], 1e-300))
            assert np.max(np.abs(st1.X - radii[1:])) < 1e-10


def test_invert_flow_map_returns_the_flow_at_its_labels(smooth, ball):
    # the returned flow is label_flow's at the solved labels, bit for bit,
    # so its callers evaluate no rates again
    radii = np.linspace(0.0, 20.0, 701)
    for data in (smooth, ball, gaussian_free_data(RadialGrid(20.0, 1024))):
        for t in (0.0, 5.0, 1e4):
            flow = invert_flow_map(data, t, radii)
            ref = label_flow(data, flow.R)
            assert flow.n == ref.n and flow.R[0] == 0.0
            for name in ("v0", "F", "G"):
                assert np.array_equal(getattr(flow, name), getattr(ref, name))


def test_invert_flow_map_fails_closed(smooth, monkeypatch):
    # B scaled by 0.1 makes every Newton step overshoot ninefold
    exact = ep.explicit_characteristics

    def overshooting(data, t, R):
        st = exact(data, t, R)
        return dataclasses.replace(st, B=0.1 * st.B)

    monkeypatch.setattr(ep, "explicit_characteristics", overshooting)
    with pytest.raises(ConvergenceError):
        invert_flow_map(smooth, 5.0, np.linspace(0.0, 30.0, 701))


def test_invert_flow_map_stops_at_gate(smooth, monkeypatch):
    # the warm start is arithmetic on tabulated rates and Newton leaves at
    # its gate: the second step from the warm start is already at round-off
    calls = []
    exact = ep.explicit_characteristics

    def counting(data, t, R):
        calls.append(len(R))
        return exact(data, t, R)

    monkeypatch.setattr(ep, "explicit_characteristics", counting)
    top = exact(smooth, 0.5, smooth.grid.nodes[-1:]).X[0]
    invert_flow_map(smooth, 0.5, np.linspace(0.0, top, 2049))
    assert 1 <= len(calls) <= 3


def _six_newton_steps(data, t, radii):
    """The inversion with every one of its six Newton steps taken."""
    labels = data.grid.nodes
    Xs = np.concatenate([[0.0], explicit_characteristics(data, t, labels[1:]).X])
    R = PchipInterpolator(Xs, labels)(np.clip(radii, 0.0, Xs[-1]))
    pos = radii > 0
    for _ in range(6):
        state = explicit_characteristics(data, t, R[pos])
        R[pos] = np.clip(R[pos] - (state.X - radii[pos]) / state.B,
                         0.0, labels[-1])
    R[~pos] = 0.0
    return R


@settings(max_examples=15, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1e4),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=1, max_size=16))
# far out on the flat flow of the ball (X = 336 and 432, B = 0.121 and
# 0.107 at R = 4.9355) both inversions sit one or two ulp of X off the
# target, and their labels differ by 9.39e-13 and 5.32e-13, past
# 1e-13 max(R, 1); on the steep flow at R = 0.68 (X = 307, B = 422) the
# early stop sits 2 ulp of X off and six steps land on the target
@example(t=5026.181818246104, fractions=[0.9746631898328306])
@example(t=7321.0, fractions=[0.982421875])
@example(t=8158.72569011453, fractions=[0.6266593021379786])
def test_newton_early_stop_loses_nothing(smooth_small, ball, t, fractions):
    # the early stop leaves X(t, R) no further from its target than six full
    # Newton steps do, up to the round-off of evaluating X: 4 ulp of X (the
    # excess measured at most 3 ulp over 9,600 random labels).  The labels
    # agree to 1e-13 max(R, 1) wherever that lies above the label floor this
    # implies, 4 ulp(X)/B
    for data in (smooth_small, ball):
        top = explicit_characteristics(data, t, data.grid.nodes[-1:]).X[0]
        radii = top * np.array(fractions)
        R = invert_flow_map(data, t, radii).R
        ref = _six_newton_steps(data, t, radii)
        got, six = (explicit_characteristics(data, t, x) for x in (R, ref))
        ulp = np.spacing(np.abs(six.X))
        assert np.all(np.abs(got.X - radii) <= np.abs(six.X - radii) + 4 * ulp)
        bound = 1e-13 * np.maximum(ref, 1.0)
        kept = bound > 4 * ulp / six.B
        assert np.all(np.abs(R - ref)[kept] <= bound[kept])


@settings(max_examples=15, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1e4),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=1, max_size=16))
def test_flow_map_round_trip(smooth_small, ball, t, fractions):
    # compatible data: X(t, inverse(t, r)) = r to round-off on the image
    for data in (smooth_small, ball):
        top = explicit_characteristics(data, t, data.grid.nodes[-1:]).X[0]
        radii = top * np.array(fractions)
        R = invert_flow_map(data, t, radii).R
        X = explicit_characteristics(data, t, R).X
        assert np.all(np.abs(X - radii) <= 1e-12 * np.maximum(radii, 1.0))
    # static data (lam = 0, v0 = 0): the flow is the identity, exactly
    for n in (1, 2, 3, 4):
        static = gaussian_free_data(RadialGrid(20.0, 1024), n=n)
        radii = np.append(20.0 * np.array(fractions), 1e-300)
        R = invert_flow_map(static, t, radii).R
        state = explicit_characteristics(static, t, R)
        assert np.array_equal(R, radii)
        assert np.array_equal(state.X, R)
        assert np.all(state.Xdot == 0.0) and np.all(state.J == 1.0)


@pytest.fixture(scope="module")
def smooth_n5():
    return smooth_ball_data(n=5, grid=RadialGrid(20.0, 1024))


@pytest.mark.parametrize("n", [5, 6])
def test_flow_map_round_trip_high_dimension(n):
    # Newton's slope B is the exact dR-derivative of X, so the inversion
    # settles in every dimension and at every time
    data = smooth_ball_data(n=n, grid=RadialGrid(20.0, 1024))
    for t in (0.5, 100.0, 1e4):
        top = explicit_characteristics(data, t, data.grid.nodes[-1:]).X[0]
        radii = np.linspace(0.0, top, 4097)
        X = explicit_characteristics(data, t,
                                   invert_flow_map(data, t, radii).R).X
        assert np.all(np.abs(X - radii) <= 1e-12 * np.maximum(radii, 1.0))


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1e4),
       R=st.floats(min_value=1e-3, max_value=15.0))
def test_flow_slope_is_derivative_of_position(smooth_small, smooth_n5, ball,
                                              t, R):
    delta = 1e-6 * max(R, 1e-3)
    for data in (smooth_small, smooth_n5, ball):
        if data is ball and abs(R - 1.0) < 2.0 * delta:
            continue    # the ball's density jumps at R = 1, and B with it
        X = label_flow(data, [R - delta, R + delta]).at(t).X
        B = label_flow(data, R).at(t).B[0]
        assert abs((X[1] - X[0]) / (2.0 * delta) - B) <= 1e-5 * abs(B)


def test_invert_flow_map_refuses_fold(smooth_small, monkeypatch):
    # on 1024 nodes the kappa/delta family's v0 spline dips next to the
    # origin: B <= 0 at the first label by t = 2154
    data = sample_data(3, 0.25, grid=RadialGrid(40.0, 1024))
    radii = np.linspace(0.0, 1.0, 65)
    invert_flow_map(data, 1e3, radii)
    with pytest.raises(ResolutionError,
                       match=r"folds .* R = 0\.0391 by t = 10000"):
        invert_flow_map(data, 1e4, radii)
    # a fold at a returned label is refused even where Newton's residual
    # vanishes: at t = 0 the warm start is already the root
    exact = ep.explicit_characteristics

    def folded(data, t, R):
        st = exact(data, t, R)
        return dataclasses.replace(st, B=-st.B)

    monkeypatch.setattr(ep, "explicit_characteristics", folded)
    with pytest.raises(ResolutionError, match=r"R = 0\.5 by t = 0$"):
        invert_flow_map(smooth_small, 0.0, np.array([0.0, 0.5, 1.0]))


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


def test_eulerian_rejects_radii_past_the_image(smooth_small):
    # compatible labels are not continued past the data grid: the radii
    # beyond its image are refused, not filled in
    for t in (0.0, 2.0):
        top = explicit_characteristics(smooth_small, t,
                                       smooth_small.grid.nodes[-1:]).X[0]
        eulerian_fields(smooth_small, t, RadialGrid(top, 512))
        with pytest.raises(ParameterError):
            eulerian_fields(smooth_small, t, RadialGrid(1.01 * top, 512))


def test_eulerian_requires_global_data(ball_zero_velocity):
    with pytest.raises(ContractError):
        eulerian_fields(ball_zero_velocity, 1.0)
