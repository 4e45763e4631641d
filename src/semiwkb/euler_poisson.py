"""Radial Euler-Poisson dynamics by characteristics: exact formulas for the
compatible family, adaptive ODE integration for generic data, and the
critical-threshold classification of global existence vs finite-time blowup.

The generic ODE runs on an in-module Dormand-Prince RK5(4) stepper on plain
floats, whose step-size controller, dense output and event location are
scipy's RK45 step for step.  The blowup witness takes a position collapse's
time from the per-label energy integral instead of stepping into it."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Optional

import numpy as np

from .errors import (ContractError, ConvergenceError, ParameterError,
                     ResolutionError, UnsupportedConfigurationError)
from .grids import RadialGrid, RadialProfile, derivative_uniform
from .profiles import InitialData

__all__ = [
    "GLOBAL", "FINITE_TIME_BLOWUP", "NECESSARY_CONDITION_VIOLATED", "UNDETERMINED",
    "POSITION_VANISHES", "DEFORMATION_VANISHES",
    "Verdict", "CharacteristicState", "CharacteristicTrajectory", "LabelFlow",
    "classify", "label_flow", "explicit_characteristics",
    "integrate_characteristics", "blowup_time", "eulerian_fields",
    "invert_flow_map",
]

GLOBAL = "Global"
FINITE_TIME_BLOWUP = "FiniteTimeBlowup"
NECESSARY_CONDITION_VIOLATED = "NecessaryConditionViolated"
UNDETERMINED = "Undetermined"

POSITION_VANISHES = "PositionVanishes"
DEFORMATION_VANISHES = "DeformationVanishes"

X_FLOOR_FRACTION = 1e-8    # collapse declared at X < 1e-8 * R
NEWTON_TOL = 1e-10         # largest final flow-map Newton step, relative to R
NEWTON_STEPS = 12          # Newton cap; the n = 6 ball takes 10 at t = 1e4
T_MAX_WITNESS = 2000.0     # horizon for integrating a blowup witness
SIGN_TOL = 1e-9            # classify's sign checks, relative to profile scale
WITNESS_MARGIN = 1e-3      # the witness steps to (1 - margin) t_X, not into X = 0
SLOPE_STEP = 1e-4          # central-difference step of dt_X/dR, relative to R
SLOPE_TOL = 1e-6           # dt_X/dR < -SLOPE_TOL t_X/R: the shell crosses first
QUAD_RTOL = 1e-13          # relative tolerance of the collapse-time quadrature


@dataclass(frozen=True)
class Verdict:
    kind: str
    t_c: Optional[float] = None
    mechanism: Optional[str] = None
    certificate: str = ""
    label: Optional[float] = None   # the certificate's node, off the origin

    def as_dict(self) -> dict:
        return {"kind": self.kind, "t_c": self.t_c,
                "mechanism": self.mechanism, "certificate": self.certificate,
                "label": self.label}


@dataclass(frozen=True)
class CharacteristicState:
    """Lagrangian state at labels R; J = X^(n-1) B / R^(n-1) is the volume
    factor, so rho = rho0(R)/J and a0 = A0(R)/sqrt(J) along the flow."""
    R: np.ndarray
    t: np.ndarray
    X: np.ndarray
    Xdot: np.ndarray
    B: np.ndarray
    J: np.ndarray


@dataclass(frozen=True)
class CharacteristicTrajectory:
    R: float
    t: np.ndarray
    X: np.ndarray
    Xdot: np.ndarray
    B: np.ndarray
    event_time: Optional[float] = None
    event_mechanism: Optional[str] = None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _first_violation(r, checks):
    """(certificate, witness label) of the first ``(name, values, scale)``
    whose minimum on the nodes r is below ``-SIGN_TOL * scale``, else None;
    the label is the offending node, moved off the origin to r[1]."""
    for name, values, scale in checks:
        i = int(np.argmin(values))
        if values[i] < -SIGN_TOL * scale:
            return (f"{name} = {values[i]:.6g} < 0 at r = {r[i]:.6g}",
                    float(max(r[i], r[1])))
    return None


def classify(data: InitialData, *, witness: bool = False) -> Verdict:
    """Decide global existence vs finite-time blowup from the initial profiles.

    lam<0, n<=2: global iff the density vanishes and the velocity is outgoing
    and non-compressive.  lam<0, n>=3: global iff v0 >= 0, C >= 0, C' >= 0
    everywhere on the grid.  lam>0, n>=3: only the necessary condition C' >= 0
    is decidable.  lam=0 is free streaming.  Sign checks carry a tolerance
    (``SIGN_TOL``) relative to the profile scale; conditions are verified on
    the sampled grid, v0' and C' by the grid's differentiation stencil.

    A verdict with a certificate node carries it as ``label`` (the
    certificate prints it to 6 digits).  With ``witness=True`` a blowup
    verdict also attaches ``blowup_time(data, label, T_MAX_WITNESS)``.
    """
    r = data.grid.nodes
    v = data.v0_at(r)
    n, lam = data.n, data.lam

    v_scale = max(np.max(np.abs(v)), 1e-30)
    rho_scale = max(np.max(data.rho0_at(r)), 1e-30)

    def blowup(certificate, label):
        hit = blowup_time(data, label, T_MAX_WITNESS) if witness else None
        return Verdict(FINITE_TIME_BLOWUP, *(hit or (None, None)), certificate,
                       label)

    if lam == 0.0 or (lam < 0 and n <= 2 and rho_scale <= SIGN_TOL):
        vp = derivative_uniform(v, data.grid)
        checks = [("v0", v, v_scale),
                  ("v0'", vp, max(np.max(np.abs(vp)), 1e-30))]
        held = Verdict(GLOBAL, certificate="free streaming: v0 >= 0 and v0' >= 0")
    elif lam < 0 and n <= 2:
        # mass present in an attractive low dimension always collapses
        i = int(np.argmax(data.m0_at(r) > SIGN_TOL * data.m_infinity))
        return blowup(f"rho0 not identically zero with n = {n} <= 2",
                      float(max(r[i], r[1])))
    elif data.threshold is None:
        raise UnsupportedConfigurationError("classification needs the threshold for n >= 3")
    else:
        # C is an even radial function; the parity stencil is exact at the origin
        Cp = data.threshold.derivative(1, left_parity="even")
        # physical threshold scale (velocity/potential balance), not the possibly
        # vanishing profile's own magnitude: C == 0 at round-off must pass
        C_scale = max(v_scale ** 2,
                      2.0 * abs(lam) * data.m_infinity / max(n - 2, 1), 1e-30)
        if lam < 0:
            checks = [("v0", v, v_scale), ("C", data.threshold.values, C_scale),
                      ("C'", Cp, C_scale)]
            held = Verdict(GLOBAL, certificate="v0 >= 0, C >= 0, C' >= 0 on the grid")
        else:
            # lam > 0: only a necessary condition is available
            checks = [("C'", Cp, C_scale)]
            held = Verdict(UNDETERMINED, certificate="necessary condition "
                           "C' >= 0 holds; no sufficient test")

    hit = _first_violation(r, checks)
    if hit is None:
        return held
    if lam > 0:
        return Verdict(NECESSARY_CONDITION_VIOLATED, certificate=hit[0],
                       label=hit[1])
    return blowup(*hit)


# ---------------------------------------------------------------------------
# explicit characteristics (compatible or static data)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelFlow:
    """The closed-form flow on fixed labels R with rates (v0, F, G):

    X = R (1 + F t)^(2/n), Xdot = v0 (1 + F t)^(2/n - 1),
    B = (1 + F t)^(2/n - 1) (1 + G t), J = (1 + F t)(1 + G t), with
    F = n v0/(2R) and G = v0' + (n-2) v0/(2R), v0 and v0' from one interpolant
    (``InitialData.rates_at``), so B is exactly dX/dR.
    """
    n: int
    R: np.ndarray
    v0: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def at(self, t) -> CharacteristicState:
        """The state at time t, which broadcasts against the labels."""
        one_Ft, one_Gt = 1.0 + self.F * t, 1.0 + self.G * t
        shrink = one_Ft ** (2.0 / self.n - 1.0)
        return CharacteristicState(R=self.R, t=t,
                                   X=self.R * one_Ft ** (2.0 / self.n),
                                   Xdot=self.v0 * shrink, B=shrink * one_Gt,
                                   J=one_Ft * one_Gt)


def label_flow(data: InitialData, R) -> LabelFlow:
    """The closed-form flow of compatible or static (X = R) data at labels R,
    from one evaluation of the rates."""
    if not data.explicit_flow:
        raise ContractError("the closed-form flow requires compatible "
                            "or static data")
    R = np.atleast_1d(np.asarray(R, dtype=float))
    return LabelFlow(data.n, R, *data.rates_at(R))


def explicit_characteristics(data: InitialData, t, R) -> CharacteristicState:
    """``label_flow(data, R).at(t)`` for a nonnegative time or time column."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ParameterError("time must be nonnegative")
    return label_flow(data, R).at(t)


# ---------------------------------------------------------------------------
# generic ODE integration
# ---------------------------------------------------------------------------

def _char_rhs(n, lam, m0R, mpR):
    def rhs(t, y):
        X, Xd, B, Bd = y
        Xpow = X ** (1 - n)
        return (Xd,
                lam * m0R * Xpow,
                Bd,
                lam * (mpR * Xpow - (n - 1) * m0R * X ** (-n) * B))
    return rhs


# Dormand-Prince RK5(4) (J. Comput. Appl. Math. 6 (1980) 19) with scipy's
# RK45 tableau, error weights E, quartic dense output P and controller.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
         -22 / 525, 1 / 40)
_DP_P = ((1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
          -12715105075 / 11282082432),
         (0.0, 0.0, 0.0, 0.0),
         (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
          87487479700 / 32700410799),
         (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
          -10690763975 / 1880347072),
         (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
          701980252875 / 199316789632),
         (0.0, -282668133 / 205662961, 2019193451 / 616988883,
          -1453857185 / 822651844),
         (0.0, 40617522 / 29380423, -110615467 / 29380423,
          69997945 / 29380423))
_DP_PT = tuple(zip(*_DP_P))
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
_ROOT_TOL = 4 * np.finfo(float).eps


def _dp_step(rhs, t, y, f, h, rtol, atol):
    """One trial step from (t, y) with y'(t) = f: (y_new, the seven stages,
    the RMS norm of the error estimate in units of atol + rtol max(|y|,
    |y_new|)).

    Written out for the four components (X, X', B, B'), each sum in the
    tableau's order, so it is bit for bit the step a loop over the tableau
    takes (the oracle in the tests)."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, _, b3, b4, b5, b6 = _DP_B
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    c2, c3, c4, c5, c6 = _DP_C
    y0, y1, y2, y3 = y
    k1 = f
    p0, p1, p2, p3 = k1
    k2 = rhs(t + c2 * h, [y0 + (a21 * p0) * h, y1 + (a21 * p1) * h,
                          y2 + (a21 * p2) * h, y3 + (a21 * p3) * h])
    q0, q1, q2, q3 = k2
    k3 = rhs(t + c3 * h, [y0 + (a31 * p0 + a32 * q0) * h,
                          y1 + (a31 * p1 + a32 * q1) * h,
                          y2 + (a31 * p2 + a32 * q2) * h,
                          y3 + (a31 * p3 + a32 * q3) * h])
    r0, r1, r2, r3 = k3
    k4 = rhs(t + c4 * h, [y0 + (a41 * p0 + a42 * q0 + a43 * r0) * h,
                          y1 + (a41 * p1 + a42 * q1 + a43 * r1) * h,
                          y2 + (a41 * p2 + a42 * q2 + a43 * r2) * h,
                          y3 + (a41 * p3 + a42 * q3 + a43 * r3) * h])
    s0, s1, s2, s3 = k4
    k5 = rhs(t + c5 * h,
             [y0 + (a51 * p0 + a52 * q0 + a53 * r0 + a54 * s0) * h,
              y1 + (a51 * p1 + a52 * q1 + a53 * r1 + a54 * s1) * h,
              y2 + (a51 * p2 + a52 * q2 + a53 * r2 + a54 * s2) * h,
              y3 + (a51 * p3 + a52 * q3 + a53 * r3 + a54 * s3) * h])
    u0, u1, u2, u3 = k5
    k6 = rhs(t + c6 * h,
             [y0 + (a61 * p0 + a62 * q0 + a63 * r0 + a64 * s0 + a65 * u0) * h,
              y1 + (a61 * p1 + a62 * q1 + a63 * r1 + a64 * s1 + a65 * u1) * h,
              y2 + (a61 * p2 + a62 * q2 + a63 * r2 + a64 * s2 + a65 * u2) * h,
              y3 + (a61 * p3 + a62 * q3 + a63 * r3 + a64 * s3 + a65 * u3) * h])
    w0, w1, w2, w3 = k6
    y_new = [y0 + h * (b1 * p0 + b3 * r0 + b4 * s0 + b5 * u0 + b6 * w0),
             y1 + h * (b1 * p1 + b3 * r1 + b4 * s1 + b5 * u1 + b6 * w1),
             y2 + h * (b1 * p2 + b3 * r2 + b4 * s2 + b5 * u2 + b6 * w2),
             y3 + h * (b1 * p3 + b3 * r3 + b4 * s3 + b5 * u3 + b6 * w3)]
    n0, n1, n2, n3 = y_new
    k7 = rhs(t + h, y_new)
    z0, z1, z2, z3 = k7
    error = _rms(
        (e1 * p0 + e3 * r0 + e4 * s0 + e5 * u0 + e6 * w0 + e7 * z0) * h
        / (atol + max(abs(y0), abs(n0)) * rtol),
        (e1 * p1 + e3 * r1 + e4 * s1 + e5 * u1 + e6 * w1 + e7 * z1) * h
        / (atol + max(abs(y1), abs(n1)) * rtol),
        (e1 * p2 + e3 * r2 + e4 * s2 + e5 * u2 + e6 * w2 + e7 * z2) * h
        / (atol + max(abs(y2), abs(n2)) * rtol),
        (e1 * p3 + e3 * r3 + e4 * s3 + e5 * u3 + e6 * w3 + e7 * z3) * h
        / (atol + max(abs(y3), abs(n3)) * rtol))
    return y_new, (k1, k2, k3, k4, k5, k6, k7), error


def _rms(v0, v1, v2, v3):
    """The RMS of four values."""
    return math.sqrt(v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3) / 2.0


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    """Hairer-Norsett-Wanner's starting step for an order-4 error estimate."""
    scale = [atol + abs(yi) * rtol for yi in y0]
    d0 = _rms(*[yi / s for yi, s in zip(y0, scale)])
    d1 = _rms(*[fi / s for fi, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, [yi + h0 * fi for yi, fi in zip(y0, f0)])
    d2 = _rms(*[(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end)


def _dense_output(t_old, h, y_old, K):
    """The step's quartic interpolant in time."""
    Q = [[sum(map(mul, col, p)) for p in _DP_PT] for col in zip(*K)]

    def at(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        powers = (x, x2, x3, x3 * x)
        return [yi + h * sum(map(mul, q, powers)) for yi, q in zip(y_old, Q)]
    return at


def _dormand_prince(rhs, y0, t_end, rtol, atol, events, t_eval):
    """Integrate y' = rhs(t, y) for the four floats y = (X, X', B, B') from
    t = 0 to t_end.

    Every event g(t, y) is terminal on a falling zero (g >= 0 before a step,
    g <= 0 after it); its root is found by Brent's method on the step's dense
    output.  Returns (ts, ys, hit, stalled_at): the accepted steps, or the
    dense output at the sorted times t_eval unless that is None; hit =
    (time, event index) of the first root, else None; stalled_at the last
    time reached if the step size fell below 10 ulp(t), else None.  A stage
    that overflows (a power of a vanishing X) counts as a NaN error norm and
    is rejected with MIN_FACTOR.
    """
    t, y = 0.0, list(y0)
    f = rhs(t, y)
    h_abs = _initial_step(rhs, y, f, t_end, rtol, atol)
    g = [ev(t, y) for ev in events]
    ts, ys = ([t], [y]) if t_eval is None else ([], [])
    i_eval, n_events = 0, range(len(events))
    while True:
        min_step = 10 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return ts, ys, None, t
            t_new = t + h_abs
            if t_new >= t_end:
                t_new = t_end
            h = h_abs = t_new - t
            try:
                y_new, K, error = _dp_step(rhs, t, y, f, h, rtol, atol)
            except (ZeroDivisionError, OverflowError):
                error = math.nan
            if error < 1:
                factor = MAX_FACTOR
                if error > 0:
                    factor = SAFETY * error ** -0.2
                    if factor > MAX_FACTOR:
                        factor = MAX_FACTOR
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            # a NaN error takes MIN_FACTOR: no comparison with NaN holds
            factor = SAFETY * error ** -0.2
            h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
            rejected = True

        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[6]
        dense = hit = None
        g_new = [ev(t, y) for ev in events]
        active = [i for i in n_events if g[i] >= 0 >= g_new[i]]
        g = g_new
        if active:
            from scipy.optimize import brentq  # loaded at first use
            dense = _dense_output(t_old, h, y_old, K)
            hit = min((brentq(lambda s, ev=events[i]: ev(s, dense(s)),
                              t_old, t, xtol=_ROOT_TOL, rtol=_ROOT_TOL), i)
                      for i in active)
            t, y = hit[0], dense(hit[0])
        if t_eval is None:
            ts.append(t)
            ys.append(y)
        else:
            while i_eval < len(t_eval) and t_eval[i_eval] <= t:
                dense = dense or _dense_output(t_old, h, y_old, K)
                ts.append(t_eval[i_eval])
                ys.append(dense(t_eval[i_eval]))
                i_eval += 1
        if hit is not None or t >= t_end:
            return ts, ys, hit, None


_MECHANISMS = (POSITION_VANISHES, DEFORMATION_VANISHES)   # the events' order


def _label_rates(data: InitialData, R: float) -> tuple:
    """(v0, v0', m0, m0') at the label R, the constant coefficients of its
    characteristic ODE.

    The force reads m0 and rho0 from their splines, except on compatible
    data, where it takes m0 and its R-derivative from the velocity."""
    n, lam = data.n, data.lam
    v, vp = (float(f[0]) for f in data.v0_and_slope_at(R))
    if data.compatible:
        # the force of the data's own velocity, m0 = (n-2) R^(n-2) v0^2/(2|lam|),
        # so the closed-form flow solves this ODE exactly
        k = 0.5 * (n - 2) / abs(lam)
        return (v, vp, k * R ** (n - 2) * v * v,
                k * R ** (n - 3) * v * ((n - 2) * v + 2.0 * R * vp))
    return (v, vp, float(data.m0_at(R)[0]),
            float(data.rho0_at(R)[0]) * R ** (n - 1))


def _step_label(n, lam, R, rates, t_end, tol, t_eval=None):
    """``_dormand_prince`` on (X, X', B, B') from (R, v0, 1, v0') with
    rtol = tol and atol = tol/100, both events terminal: X below the
    collapse floor and B crossing zero."""
    v, vp, m0R, mpR = rates
    floor = X_FLOOR_FRACTION * R
    events = (lambda t, y: y[0] - floor,     # POSITION_VANISHES
              lambda t, y: y[2])             # DEFORMATION_VANISHES
    return _dormand_prince(_char_rhs(n, lam, m0R, mpR), [R, v, 1.0, vp],
                           t_end, tol, tol * 1e-2, events, t_eval)


def integrate_characteristics(data: InitialData, R: float, t_end: float,
                              tol: float = 1e-10,
                              t_eval=None) -> CharacteristicTrajectory:
    """Adaptive RK5(4) trajectory of (X, X') and the variational pair (B, B').

    The force is ``_label_rates``'s.  The stepper is the in-module
    Dormand-Prince pair (``_dormand_prince``) with rtol = tol and atol =
    tol/100.  Its controller, dense output and event roots are scipy's RK45
    step for step, so it stays an independent fifth-order check on the
    closed-form flow and on the classifier.  The trajectory holds every
    accepted step, or the dense output at t_eval.

    Terminal events detect X falling below the collapse floor and B crossing
    zero; the first event is reported with its mechanism.  Step-size underflow
    close to collapse is reported as approach-to-blowup with a
    ``RuntimeWarning`` rather than as failure.  Only direct calls can still
    reach that report: ``blowup_time`` does not step into the collapse.
    """
    if R <= 0:
        raise ParameterError("labels must be positive")
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    if t_end <= 0:
        raise ParameterError("t_end must be positive")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float).ravel()
        if (np.any(np.diff(t_eval) < 0)
                or np.any((t_eval < 0) | (t_eval > t_end))):
            raise ParameterError("t_eval must be sorted within [0, t_end]")
    ts, ys, hit, stalled_at = _step_label(
        data.n, data.lam, R, _label_rates(data, R), t_end, tol,
        None if t_eval is None else t_eval.tolist())

    event_time = event_mech = None
    if hit is not None:
        event_time, event_mech = hit[0], _MECHANISMS[hit[1]]
    elif stalled_at is not None:
        # integrator stalled approaching the singularity
        event_time, event_mech = stalled_at, POSITION_VANISHES
        warnings.warn(f"step-size underflow at t={event_time:.6g}; "
                      "reporting approach to collapse", RuntimeWarning)

    ys = np.fromiter(chain.from_iterable(ys), float, 4 * len(ts)
                     ).reshape(len(ts), 4)
    return CharacteristicTrajectory(R=R, t=np.array(ts, dtype=float),
                                    X=ys[:, 0], Xdot=ys[:, 1], B=ys[:, 2],
                                    event_time=event_time,
                                    event_mechanism=event_mech)


def _psi_quotient(u: float, n: int) -> float:
    """u^max(n-2, 0) psi(u) / (1 - u) for psi(u) = int_u^1 s^(1-n) ds: the
    polynomial sum_{j < |n-2|} u^j / |n-2|, except in the log case n = 2,
    -ln(u) / (1 - u) (1 at u = 1, inf at u = 0)."""
    if n == 2:
        if u == 1.0:
            return 1.0
        return math.inf if u == 0.0 else -math.log(u) / (1.0 - u)
    d, q = abs(n - 2), 1.0
    for j in range(1, d):   # u^0 + u^1 + ..., added left to right
        q += u ** j
    return q / d


def _qaws(f, lo, hi, alpha, beta):
    """int_lo^hi (u - lo)^alpha (hi - u)^beta f(u) du by QUADPACK's QAWS to
    ``QUAD_RTOL``; ConvergenceError if it does not get there."""
    from scipy.integrate import quad  # loaded at first use
    out = quad(f, lo, hi, weight="alg", wvar=(alpha, beta), epsabs=0.0,
               epsrel=QUAD_RTOL, full_output=1)
    if len(out) > 3:
        raise ConvergenceError(f"collapse-time quadrature: {out[3]}")
    return out[0]


def _collapse_time(n: int, lam: float, m0: float, R: float, v: float
                   ) -> float:
    """Time for X'' = lam m0 X^(1-n) from X = R, X' = v to fall to the
    collapse floor ``X_FLOOR_FRACTION`` R; inf if it never does.

    The energy integral X'^2 = v^2 - k int_R^X s^(1-n) ds (k = -2 lam m0)
    makes it one quadrature of dX/|X'|.  Under a pull (k > 0) below escape
    speed the label moves as if it fell from rest at its turning point top,
    where X'^2 = 0: the time is the fall from top to the floor, plus
    (outgoing) or minus (incoming) the fall from top to R.  Otherwise top is
    R.  With u = X/top, X'^2 = a + b psi(u) (``_psi_quotient``; a = 0 at a
    turning point), and each fall is top times an integral of
    du/sqrt(a + b psi(u)) up to u = 1.  Under a pull QAWS takes the
    endpoint weights u^((n-2)/2) of the fall into X = 0 (n >= 3) and, at a
    turning point, (1 - u)^(-1/2); what is left is smooth.
    """
    k = -2.0 * lam * m0
    top, a, e = R, v * v, 0.0
    if k > 0:
        # int_R^top s^(1-n) ds = v^2/k = w, top = R e^e; past escape speed
        # (z <= -1, n >= 3) there is no top
        w, p = v * v / k, 2 - n
        z = p * w / R ** p
        if z > -1.0:
            e = math.log1p(z) / p if p else w
            if e <= 700.0:
                top, a = R * math.exp(e), 0.0
    if v >= 0 and (k <= 0 or a > 0):
        return math.inf          # at rest, or outgoing and never pulled back
    b = k * top ** (2 - n)
    floor = X_FLOOR_FRACTION * R / top
    if b <= 0:
        # free or repelled fall: unweighted, and none if it turns first
        def speed2(u):
            return a + b * (1.0 - u) * _psi_quotient(u, n) / u ** max(n - 2, 0)
        if speed2(floor) <= 0:
            return math.inf
        return top * _qaws(lambda u: speed2(u) ** -0.5, floor, 1.0, 0.0, 0.0)

    alpha, beta = max(n - 2, 0) / 2.0, (-0.5 if a == 0 else 0.0)

    def g(u):   # the integrand over u^alpha (1 - u)^beta
        q = _psi_quotient(u, n)
        return 1.0 / math.sqrt(b * q if a == 0
                               else a * u ** (2 * alpha) + b * (1.0 - u) * q)

    full = _qaws(g, 0.0, 1.0, alpha, beta)

    def fall(lo):   # the integral from lo <= 1/2 up to 1
        return full - _qaws(lambda u: (1.0 - u) ** beta * g(u), 0.0, lo,
                            alpha, 0.0)
    t = fall(floor)
    if e > 0:
        # from top down to R; near top in 1 - u, whose length 1 - R/top
        # is exact even where top rounds to R
        leg = (fall(math.exp(-e)) if e > math.log(2.0) else
               _qaws(lambda d: (1.0 - d) ** alpha * g(1.0 - d), 0.0,
                     -math.expm1(-e), beta, 0.0))
        t += math.copysign(leg, v)
    return top * t


def blowup_time(data: InitialData, R: float, t_max: float
                ) -> Optional[tuple[float, str]]:
    """First time X(t)=0 or B(t)=0 along the label R, or None before t_max.

    The collapse time t_X (X at the floor ``X_FLOOR_FRACTION`` R) is a
    quadrature of the label's energy integral (``_collapse_time``).  Along
    X(t_X(R), R) = X_FLOOR_FRACTION R, B = X_FLOOR_FRACTION - X' dt_X/dR at
    t_X, so B has crossed zero first exactly when dt_X/dR is negative past
    X_FLOOR_FRACTION/|X'|.  The slope is a central difference of t_X along
    the label's (R, v0, m0), step ``SLOPE_STEP`` R:
    - below -``SLOPE_TOL`` t_X/R, the stepper runs with both events to t_X
      and finds the shell crossing before it;
    - otherwise it runs only to (1 - ``WITNESS_MARGIN``) t_X, so a shell
      crossing before then is still its own event, and the event is the
      collapse at t_X.  A crossing within about ``SLOPE_TOL`` t_X of the
      collapse is reported as the collapse.
    The witness does not step into X = 0, so it never reaches
    ``integrate_characteristics``' step-size-underflow report; a stall, or
    a predicted crossing the stepper does not find, raises ConvergenceError.
    """
    if t_max <= 0:
        raise ParameterError("t_max must be positive")
    if R <= 0:
        raise ParameterError("labels must be positive")
    n, lam = data.n, data.lam
    rates = v, vp, m0R, mpR = _label_rates(data, R)
    t_X = _collapse_time(n, lam, m0R, R, v)
    crossing = False
    if (1.0 - WITNESS_MARGIN) * t_X < t_max:
        h = SLOPE_STEP * R
        slope = (_collapse_time(n, lam, m0R + mpR * h, R + h, v + vp * h)
                 - _collapse_time(n, lam, m0R - mpR * h, R - h, v - vp * h)
                 ) / (2.0 * h)
        crossing = slope < -SLOPE_TOL * t_X / R
    t_end = min(t_max, t_X if crossing else (1.0 - WITNESS_MARGIN) * t_X)
    _, _, hit, stalled_at = _step_label(n, lam, R, rates, t_end, 1e-10)
    if hit is not None:
        return hit[0], _MECHANISMS[hit[1]]
    if stalled_at is not None or (crossing and t_X <= t_max):
        raise ConvergenceError(
            f"the blowup witness at R = {R:.6g} reached t = "
            f"{stalled_at or t_end:.6g} without its event (t_X = {t_X:.6g})")
    return (t_X, POSITION_VANISHES) if t_X <= t_max else None


# ---------------------------------------------------------------------------
# Eulerian reconstruction
# ---------------------------------------------------------------------------

def _refuse_fold(labels, fold, t):
    if np.any(fold):    # B <= 0: the interpolated v0 dips next to the origin
        raise ResolutionError(
            f"the interpolated flow folds (B <= 0) at label R = "
            f"{float(labels[np.argmax(fold)]):.4g} by t = {float(t):g}")


def invert_flow_map(data: InitialData, t: float,
                    radii: np.ndarray) -> LabelFlow:
    """Solve X(t, R) = r for R on the closed-form flow (X strictly increasing),
    and return the flow at the solved labels (``.R``, 0 at r = 0).

    Warm start through the grid labels' tabulated rates (``node_rates``), then
    Newton steps R <- R - (X - r)/B, at most ``NEWTON_STEPS``; raises
    ConvergenceError unless every final step is within 1e-10 R,
    ResolutionError where the flow folds (B <= 0 at a grid or returned
    label), and ParameterError for radii past the image of the data grid.
    """
    if t < 0:
        raise ParameterError("time must be nonnegative")
    if not data.explicit_flow:
        raise ContractError("flow-map inversion requires compatible or "
                            "static data")
    from scipy.interpolate import PchipInterpolator  # loaded at first use
    radii = np.asarray(radii, dtype=float)
    labels = data.grid.nodes
    table = LabelFlow(data.n, labels, *data.node_rates).at(t)
    _refuse_fold(labels, table.B <= 0, t)
    Xs = table.X
    if np.any(radii > Xs[-1] * (1 + 1e-12)):
        raise ParameterError("requested radius beyond the characteristic "
                             "image of the data grid")
    R = PchipInterpolator(Xs, labels)(np.clip(radii, 0.0, Xs[-1]))
    pos = radii > 0
    for _ in range(NEWTON_STEPS):
        stR = explicit_characteristics(data, t, R[pos])
        step = (stR.X - radii[pos]) / stR.B
        R[pos] = np.clip(R[pos] - step, 0.0, labels[-1])
        # a subnormal label holds fewer digits than NEWTON_TOL asks for
        scale = np.maximum(R[pos], np.finfo(float).tiny)
        if np.all(np.abs(step) <= NEWTON_TOL * scale):
            break
    else:
        raise ConvergenceError(
            f"flow-map inversion did not converge at t = {float(t):g}")
    _refuse_fold(R[pos], stR.B <= 0, t)
    R[~pos] = 0.0
    return label_flow(data, R)


def eulerian_fields(data: InitialData, t: float,
                    grid: RadialGrid | None = None
                    ) -> tuple[RadialProfile, RadialProfile]:
    """Density and velocity at time t on an Eulerian grid.

    Vacuum data streams freely (vacuum past the image of the data grid);
    compatible and static data use the flow map, which refuses radii past
    that image.  The default output grid spans the image [0, X(t, R_top)].
    """
    if t < 0:
        raise ParameterError("time must be nonnegative")
    free = data.m_infinity == 0.0

    if not (free or data.explicit_flow):
        raise ContractError("eulerian_fields needs compatible, static or "
                            "vacuum data (classify must yield Global)")

    labels = data.grid.nodes
    if free:
        v0 = data.v0_at(labels)
        X_top = labels[-1] + v0[-1] * t
    else:
        X_top = float(explicit_characteristics(data, t, labels[-1:]).X[0])

    if grid is None:
        grid = RadialGrid(r_max=X_top, points=data.grid.points)
    radii = grid.nodes

    if free:
        # invert r = R + v0(R) t by monotone interpolation (no Newton polish)
        from scipy.interpolate import PchipInterpolator  # loaded at first use
        Xs = labels + v0 * t
        if np.any(np.diff(Xs) <= 0):
            raise ContractError("free-streaming map is not invertible (B <= 0)")
        if radii[-1] > Xs[-1] + 1e-12:
            warnings.warn("output grid extends beyond the characteristic image; "
                          "fields set to vacuum there", RuntimeWarning)
        R = PchipInterpolator(Xs, labels)(np.clip(radii, Xs[0], Xs[-1]))
        rho_out = np.zeros_like(radii)
        v_out = data.v0_at(R)
        v_out[radii > Xs[-1]] = 0.0
        return (RadialProfile(grid, rho_out), RadialProfile(grid, v_out))

    flow = invert_flow_map(data, t, radii)
    st = flow.at(t)
    return (RadialProfile(grid, data.rho0_at(flow.R) / st.J),
            RadialProfile(grid, st.Xdot))
