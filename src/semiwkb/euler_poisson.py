"""Radial Euler-Poisson dynamics by characteristics: exact formulas for the
compatible family, adaptive ODE integration for generic data, and the
critical-threshold classification of global existence vs finite-time blowup.

The generic ODE runs on an in-module Dormand-Prince RK5(4) stepper on plain
floats, whose step-size controller, dense output and event location are
scipy's RK45 step for step."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

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


@dataclass(frozen=True)
class Verdict:
    kind: str
    t_c: Optional[float] = None
    mechanism: Optional[str] = None
    certificate: str = ""

    def as_dict(self) -> dict:
        return {"kind": self.kind, "t_c": self.t_c,
                "mechanism": self.mechanism, "certificate": self.certificate}


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
                    max(r[i], r[1]))
    return None


def classify(data: InitialData, *, witness: bool = False) -> Verdict:
    """Decide global existence vs finite-time blowup from the initial profiles.

    lam<0, n<=2: global iff the density vanishes and the velocity is outgoing
    and non-compressive.  lam<0, n>=3: global iff v0 >= 0, C >= 0, C' >= 0
    everywhere on the grid.  lam>0, n>=3: only the necessary condition C' >= 0
    is decidable.  lam=0 is free streaming.  Sign checks carry a tolerance
    (``SIGN_TOL``) relative to the profile scale; conditions are verified on
    the sampled grid, v0' and C' by the grid's differentiation stencil.

    With ``witness=True`` a blowup verdict also integrates the certificate
    label up to ``T_MAX_WITNESS`` to attach the witnessed event time.
    """
    r = data.grid.nodes
    v = data.v0_at(r)
    n, lam = data.n, data.lam

    v_scale = max(np.max(np.abs(v)), 1e-30)
    rho_scale = max(np.max(data.rho0_at(r)), 1e-30)

    def blowup(certificate, label):
        hit = blowup_time(data, label, T_MAX_WITNESS) if witness else None
        return Verdict(FINITE_TIME_BLOWUP, *(hit or (None, None)), certificate)

    if lam == 0.0 or (lam < 0 and n <= 2 and rho_scale <= SIGN_TOL):
        vp = derivative_uniform(v, data.grid)
        checks = [("v0", v, v_scale),
                  ("v0'", vp, max(np.max(np.abs(vp)), 1e-30))]
        held = Verdict(GLOBAL, certificate="free streaming: v0 >= 0 and v0' >= 0")
    elif lam < 0 and n <= 2:
        # mass present in an attractive low dimension always collapses
        i = int(np.argmax(data.m0_at(r) > SIGN_TOL * data.m_infinity))
        return blowup(f"rho0 not identically zero with n = {n} <= 2",
                      max(r[i], r[1]))
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
        return Verdict(NECESSARY_CONDITION_VIOLATED, certificate=hit[0])
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
    |y_new|))."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, _, b3, b4, b5, b6 = _DP_B
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    c2, c3, c4, c5, c6 = _DP_C
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
    error = _rms([(e1 * p + e3 * r + e4 * s + e5 * u + e6 * w + e7 * z) * h
                  / (atol + max(abs(yi), abs(yn)) * rtol)
                  for yi, yn, p, r, s, u, w, z
                  in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
    return y_new, (k1, k2, k3, k4, k5, k6, k7), error


def _rms(values):
    return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    """Hairer-Norsett-Wanner's starting step for an order-4 error estimate."""
    scale = [atol + abs(yi) * rtol for yi in y0]
    d0 = _rms([yi / s for yi, s in zip(y0, scale)])
    d1 = _rms([fi / s for fi, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = rhs(h0, [yi + h0 * fi for yi, fi in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
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
    """Integrate y' = rhs(t, y) from t = 0 to t_end on plain floats.

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
                y_new, K, error = _dp_step(rhs, t, y, f, h, rtol, atol)
            except (ZeroDivisionError, OverflowError):
                error = math.nan
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** -0.2))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** -0.2)
            rejected = True

        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[-1]
        dense = hit = None
        g_new = [ev(t, y) for ev in events]
        active = [i for i, (a, b) in enumerate(zip(g, g_new)) if a >= 0 >= b]
        g = g_new
        if active:
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


def integrate_characteristics(data: InitialData, R: float, t_end: float,
                              tol: float = 1e-10,
                              t_eval=None) -> CharacteristicTrajectory:
    """Adaptive RK5(4) trajectory of (X, X') and the variational pair (B, B').

    The force reads m0 and rho0 from their splines, except on compatible
    data, where it takes m0 and its R-derivative from the velocity.

    The stepper is the in-module Dormand-Prince pair (``_dormand_prince``)
    with rtol = tol and atol = tol/100.  Its controller, dense output and
    event roots are scipy's RK45 step for step, so it stays an independent
    fifth-order check on the closed-form flow and on the classifier.  The
    trajectory holds every accepted step, or the dense output at t_eval.

    Terminal events detect X falling below the collapse floor and B crossing
    zero; the first event is reported with its mechanism.  Step-size underflow
    close to collapse is reported as approach-to-blowup rather than failure.
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
    n, lam = data.n, data.lam
    v, vp = float(data.v0_at(R)[0]), float(data.v0_prime_at(R)[0])
    if data.compatible:
        # the force of the data's own velocity, m0 = (n-2) R^(n-2) v0^2/(2|lam|),
        # so the closed-form flow solves this ODE exactly
        k = 0.5 * (n - 2) / abs(lam)
        m0R = k * R ** (n - 2) * v * v
        mpR = k * R ** (n - 3) * v * ((n - 2) * v + 2.0 * R * vp)
    else:
        m0R = float(data.m0_at(R)[0])
        mpR = float(data.rho0_at(R)[0]) * R ** (n - 1)
    y0 = [R, v, 1.0, vp]
    floor = X_FLOOR_FRACTION * R
    events = (lambda t, y: y[0] - floor,     # POSITION_VANISHES
              lambda t, y: y[2])             # DEFORMATION_VANISHES
    ts, ys, hit, stalled_at = _dormand_prince(
        _char_rhs(n, lam, m0R, mpR), y0, t_end, tol, tol * 1e-2, events,
        None if t_eval is None else t_eval.tolist())

    event_time = event_mech = None
    if hit is not None:
        event_time = hit[0]
        event_mech = (POSITION_VANISHES, DEFORMATION_VANISHES)[hit[1]]
    elif stalled_at is not None:
        # integrator stalled approaching the singularity
        event_time, event_mech = stalled_at, POSITION_VANISHES
        warnings.warn(f"step-size underflow at t={event_time:.6g}; "
                      "reporting approach to collapse", RuntimeWarning)

    ys = np.array(ys, dtype=float).reshape(len(ts), 4)
    return CharacteristicTrajectory(R=R, t=np.array(ts, dtype=float),
                                    X=ys[:, 0], Xdot=ys[:, 1], B=ys[:, 2],
                                    event_time=event_time,
                                    event_mechanism=event_mech)


def blowup_time(data: InitialData, R: float, t_max: float
                ) -> Optional[tuple[float, str]]:
    """First time X(t)=0 or B(t)=0 along the label R, or None before t_max."""
    if t_max <= 0:
        raise ParameterError("t_max must be positive")
    traj = integrate_characteristics(data, R, t_max)
    if traj.event_time is None:
        return None
    return traj.event_time, traj.event_mechanism


# ---------------------------------------------------------------------------
# Eulerian reconstruction
# ---------------------------------------------------------------------------

def _refuse_fold(labels, fold, t):
    if np.any(fold):    # B <= 0: the interpolated v0 dips next to the origin
        raise ResolutionError(
            f"the interpolated flow folds (B <= 0) at label R = "
            f"{float(labels[np.argmax(fold)]):.4g} by t = {float(t):g}")


def invert_flow_map(data: InitialData, t: float,
                    radii: np.ndarray) -> np.ndarray:
    """Solve X(t, R) = r for R on the closed-form flow (X strictly increasing).

    Warm start through the grid labels' tabulated rates (``node_rates``), then
    Newton steps R <- R - (X - r)/B, at most ``NEWTON_STEPS``; raises
    ConvergenceError unless every final step is within 1e-10 R,
    ResolutionError where the flow folds (B <= 0 at a grid or returned
    label), and ParameterError for radii past the image of the data grid.
    """
    if not data.explicit_flow:
        raise ContractError("flow-map inversion requires compatible or "
                            "static data")
    if t < 0:
        raise ParameterError("time must be nonnegative")
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
    return R


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

    R = invert_flow_map(data, t, radii)
    st = explicit_characteristics(data, t, R)
    return (RadialProfile(grid, data.rho0_at(R) / st.J),
            RadialProfile(grid, st.Xdot))
