"""Radial Euler-Poisson dynamics by characteristics: exact formulas for the
compatible family, adaptive ODE integration for generic data, and the
critical-threshold classification of global existence vs finite-time blowup."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

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


def integrate_characteristics(data: InitialData, R: float, t_end: float,
                              tol: float = 1e-10,
                              t_eval=None) -> CharacteristicTrajectory:
    """Adaptive RK5(4) trajectory of (X, X') and the variational pair (B, B').

    The force reads m0 and rho0 from their splines, except on compatible
    data, where it takes m0 and its R-derivative from the velocity.

    Terminal events detect X falling below the collapse floor and B crossing
    zero; the first event is reported with its mechanism.  Step-size underflow
    close to collapse is reported as approach-to-blowup rather than failure.
    """
    if R <= 0:
        raise ParameterError("labels must be positive")
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
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

    def position_floor(t, y):
        return y[0] - X_FLOOR_FRACTION * R
    position_floor.terminal = True
    position_floor.direction = -1

    def deformation_zero(t, y):
        return y[2]
    deformation_zero.terminal = True
    deformation_zero.direction = -1

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sol = solve_ivp(_char_rhs(n, lam, m0R, mpR), (0.0, t_end), y0,
                        method="RK45", rtol=tol, atol=tol * 1e-2,
                        t_eval=t_eval,
                        events=[position_floor, deformation_zero])

    event_time = event_mech = None
    if sol.t_events[0].size:
        event_time, event_mech = float(sol.t_events[0][0]), POSITION_VANISHES
    if sol.t_events[1].size:
        tb = float(sol.t_events[1][0])
        if event_time is None or tb < event_time:
            event_time, event_mech = tb, DEFORMATION_VANISHES
    if sol.status == -1 and event_time is None:
        # integrator stalled approaching the singularity
        event_time, event_mech = float(sol.t[-1]), POSITION_VANISHES
        warnings.warn(f"step-size underflow at t={event_time:.6g}; "
                      "reporting approach to collapse", RuntimeWarning)

    return CharacteristicTrajectory(R=R, t=sol.t, X=sol.y[0], Xdot=sol.y[1],
                                    B=sol.y[2], event_time=event_time,
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
