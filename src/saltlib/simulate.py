"""Fixed-step RK4 simulation of hybrid systems with event localization.

Guards are checked at every integration sample. A guard is armed once its
value is strictly on its in-domain side (positive, or the locked side for
two-sided guards); it fires when the armed value crosses to the other side.
Starting a segment exactly on a guard surface therefore never retriggers the
event that produced it, which implements post-event re-arming without timers.

Event times are refined by bisection on dense RK4 restarts from the bracket's
left endpoint, to |g| <= tol_g and bracket width <= tol_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    AmbiguousEvent,
    DegenerateGuard,
    EventLocalizationError,
    NonFiniteState,
    TangentialEvent,
    ZenoSuspected,
)
from .system import GuardSpec, HybridSystem, ModeId
from .trajectory import EventRecord, HybridTrajectory, Segment

DEFAULT_STEP = 1e-3
TOL_G = 1e-10
TOL_T = 1e-12
EPS_TRANS = 1e-8
EPS_GRAD = 1e-10
MAX_EVENTS = 1000


@dataclass(frozen=True)
class SimOptions:
    """Numerical knobs shared by the simulation stack."""

    step: float = DEFAULT_STEP
    tol_g: float = TOL_G
    tol_t: float = TOL_T
    eps_trans: float = EPS_TRANS
    eps_grad: float = EPS_GRAD
    max_events: int = MAX_EVENTS


def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float, x: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of size h."""
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, x + (0.5 * h) * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _substeps(t0: float, t1: float, step: float) -> int:
    """Number of equal RK4 substeps of at most `step` spanning [t0, t1].

    A span that exceeds a multiple of `step` only by the rounding of its
    endpoints (a grid interval is a difference of accumulated times) counts
    as that multiple, so its substeps may exceed `step` by that rounding.
    """
    slack = 4.0 * math.ulp(max(abs(t0), abs(t1)))
    return max(1, math.ceil((abs(t1 - t0) - slack) / step))


def flow_to(f: Callable[[float, np.ndarray], np.ndarray], t0: float, x0: np.ndarray,
            t1: float, step: float) -> np.ndarray:
    """Integrate xdot = f(t, x) from t0 to t1 with RK4 substeps of at most `step`.

    Handles either time direction; lands on t1 exactly.
    """
    span = t1 - t0
    if span == 0.0:
        return np.array(x0, dtype=float, copy=True)
    n_sub = _substeps(t0, t1, step)
    h = span / n_sub
    x = np.array(x0, dtype=float, copy=True)
    t = t0
    for k in range(n_sub):
        x = rk4_step(f, t, x, h)
        t = t0 + (k + 1) * h
    return x


@dataclass(frozen=True)
class GuardBracket:
    """Step interval in which one or more armed guards crossed.

    candidates maps transition index -> crossing sign (+1: fired from the
    positive side, -1: two-sided guard fired from the negative side).
    """

    t_lo: float
    x_lo: np.ndarray
    t_hi: float
    x_hi: np.ndarray
    candidates: tuple[tuple[int, int], ...]


def _arm_state(guard: GuardSpec, value: float) -> int:
    """Armed side for a guard value: +1, -1 (two-sided only), or 0 (disarmed)."""
    if value > 0.0:
        return 1
    if guard.two_sided and value < 0.0:
        return -1
    return 0


def integrate_segment(
    sys: HybridSystem,
    mode: ModeId,
    t0: float,
    x0: np.ndarray,
    t_max: float,
    step: float = DEFAULT_STEP,
) -> tuple[np.ndarray, np.ndarray, Optional[GuardBracket]]:
    """Integrate one mode until t_max or the first armed-guard crossing.

    Returns (times, states, bracket). The samples end at the bracket's left
    endpoint when a crossing was detected, else at t_max. The bracket lists
    every transition whose guard crossed in the offending step; the caller
    resolves which fires (or raises AmbiguousEvent on ties).
    """
    x = np.asarray(x0, dtype=float)
    field = sys.modes[mode]
    if x.shape != (field.dim,):
        raise ValueError(f"x0 shape {x.shape} does not match mode {mode} dim {field.dim}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"non-finite initial state in mode {mode} at t={t0}")
    if t_max < t0:
        raise ValueError(f"t_max={t_max} precedes t0={t0}")

    f = field.f
    fx0 = np.asarray(f(t0, x), dtype=float)
    if fx0.shape != (field.dim,):
        raise ValueError(f"mode {mode} field returned shape {fx0.shape}, expected ({field.dim},)")

    outgoing = sys.outgoing(mode)
    guards = [tr.guard for _, tr in outgoing]
    armed = [_arm_state(gd, gd.value(t0, x)) for gd in guards]

    times = [t0]
    states = [np.array(x, copy=True)]
    t = t0
    while t < t_max:
        h = step
        if t + h >= t_max:
            h = t_max - t
            t_next = t_max
        else:
            t_next = t + h
        x_next = rk4_step(f, t, x, h)
        if not np.all(np.isfinite(x_next)):
            raise NonFiniteState(f"non-finite state in mode {mode} at t={t_next}")

        fired: list[tuple[int, int]] = []
        for i, gd in enumerate(guards):
            gv = float(gd.value(t_next, x_next))
            side = armed[i]
            if side == 0:
                armed[i] = _arm_state(gd, gv)
            elif side > 0 and gv <= 0.0:
                fired.append((outgoing[i][0], 1))
            elif side < 0 and gv >= 0.0:
                fired.append((outgoing[i][0], -1))
        if fired:
            return (
                np.asarray(times, dtype=float),
                np.stack(states, axis=0),
                GuardBracket(t, np.array(x, copy=True), t_next, x_next, tuple(fired)),
            )

        t = t_next
        x = x_next
        times.append(t)
        states.append(np.array(x, copy=True))
    return np.asarray(times, dtype=float), np.stack(states, axis=0), None


def _bisect_event(
    sys: HybridSystem,
    mode: ModeId,
    bracket: GuardBracket,
    guard: GuardSpec,
    sign: int,
    opts: SimOptions,
) -> tuple[float, np.ndarray, float, float]:
    """Refine one guard crossing inside a bracket.

    Returns (t_event, x_minus, guard_residual, transversality). Raises
    DegenerateGuard / TangentialEvent per the located-event checks.
    """
    f = sys.modes[mode].f
    t_a, x_a = bracket.t_lo, bracket.x_lo

    def state_at(tm: float) -> np.ndarray:
        return flow_to(f, t_a, x_a, tm, opts.step)

    t_lo, t_hi = bracket.t_lo, bracket.t_hi
    x_lo = np.array(bracket.x_lo, copy=True)
    x_hi = np.array(bracket.x_hi, copy=True)
    g_lo = sign * guard.value(t_lo, x_lo)
    g_hi = sign * guard.value(t_hi, x_hi)
    if g_lo <= 0.0 or g_hi > 0.0:
        raise EventLocalizationError(
            f"bracket [{t_lo}, {t_hi}] does not straddle the guard (g_lo={g_lo}, g_hi={g_hi})"
        )

    for _ in range(200):
        if t_hi - t_lo <= opts.tol_t:
            break
        t_mid = 0.5 * (t_lo + t_hi)
        x_mid = state_at(t_mid)
        if not np.all(np.isfinite(x_mid)):
            raise NonFiniteState(f"non-finite state during localization at t={t_mid}")
        g_mid = sign * guard.value(t_mid, x_mid)
        if g_mid > 0.0:
            t_lo, x_lo, g_lo = t_mid, x_mid, g_mid
        else:
            t_hi, x_hi, g_hi = t_mid, x_mid, g_mid

    # choose the endpoint closest to the surface
    if abs(g_hi) <= abs(g_lo):
        t_e, x_e, g_e = t_hi, x_hi, g_hi
    else:
        t_e, x_e, g_e = t_lo, x_lo, g_lo
    residual = abs(g_e)
    if residual > opts.tol_g:
        raise EventLocalizationError(
            f"guard residual {residual:.3e} above tol_g={opts.tol_g} after bisection at t={t_e}"
        )

    grad = guard.grad_x(t_e, x_e)
    if float(np.linalg.norm(grad)) < opts.eps_grad:
        raise DegenerateGuard(f"guard gradient vanishes at located event t={t_e}")
    deriv = guard.grad_t(t_e, x_e) + float(grad @ np.asarray(f(t_e, x_e), dtype=float))
    if sign * deriv >= -opts.eps_trans:
        raise TangentialEvent(
            f"guard derivative {deriv:.3e} violates transversality at t={t_e}",
            t=t_e,
            derivative=deriv,
        )
    return t_e, x_e, residual, deriv


def locate_event(
    sys: HybridSystem,
    mode: ModeId,
    bracket: GuardBracket,
    guard: GuardSpec,
    tol_g: float = TOL_G,
    tol_t: float = TOL_T,
) -> tuple[float, np.ndarray]:
    """Bisection refinement of a guard crossing to (t_event, x_minus)."""
    sign = 1
    for idx, sgn in bracket.candidates:
        if sys.transitions[idx].guard is guard:
            sign = sgn
            break
    opts = SimOptions(tol_g=tol_g, tol_t=tol_t)
    t_e, x_e, _, _ = _bisect_event(sys, mode, bracket, guard, sign, opts)
    return t_e, x_e


def _resolve_bracket(
    sys: HybridSystem,
    mode: ModeId,
    bracket: GuardBracket,
    opts: SimOptions,
) -> tuple[int, float, np.ndarray, float, float]:
    """Localize every candidate crossing; return the earliest or raise on ties."""
    located = []
    for idx, sgn in bracket.candidates:
        guard = sys.transitions[idx].guard
        t_e, x_e, res, deriv = _bisect_event(sys, mode, bracket, guard, sgn, opts)
        located.append((t_e, idx, x_e, res, deriv))
    located.sort(key=lambda item: (item[0], item[1]))
    if len(located) > 1 and located[1][0] - located[0][0] <= opts.tol_t:
        tied = [item[1] for item in located if item[0] - located[0][0] <= opts.tol_t]
        raise AmbiguousEvent(
            f"guards of transitions {tied} cross within tol_t at t={located[0][0]}",
            t=located[0][0],
            transition_indices=tied,
        )
    t_e, idx, x_e, res, deriv = located[0]
    return idx, t_e, x_e, res, deriv


def simulate(
    sys: HybridSystem,
    mode0: ModeId,
    x0: np.ndarray,
    t_span: tuple[float, float],
    options: Optional[SimOptions] = None,
) -> HybridTrajectory:
    """Run a hybrid execution over t_span starting in mode0 at state x0."""
    from .system import validate_system

    opts = options or SimOptions()
    diags = validate_system(sys)
    if diags:
        raise ValueError("invalid system: " + "; ".join(diags))
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError(f"t_span end {t1} precedes start {t0}")

    segments: list[Segment] = []
    events: list[EventRecord] = []
    mode = mode0
    t_cur = t0
    x_cur = np.asarray(x0, dtype=float)

    while True:
        times, states, bracket = integrate_segment(sys, mode, t_cur, x_cur, t1, opts.step)
        if bracket is None:
            segments.append(Segment(mode=mode, times=times, states=states))
            break

        # cap check precedes localization: runaway detection must not depend
        # on the next event (possibly degenerate) localizing cleanly
        if len(events) >= opts.max_events:
            segments.append(Segment(mode=mode, times=times, states=states))
            partial = HybridTrajectory(segments=tuple(segments), events=tuple(events))
            raise ZenoSuspected(
                f"event count exceeded max_events={opts.max_events} "
                f"near t={bracket.t_lo}",
                trajectory=partial,
            )
        idx, t_e, x_minus, residual, deriv = _resolve_bracket(sys, mode, bracket, opts)

        tr = sys.transitions[idx]
        x_plus = tr.reset.apply(t_e, x_minus)
        if x_plus.shape != (sys.dim(tr.to_mode),):
            raise ValueError(
                f"reset of transition {idx} returned shape {x_plus.shape}, "
                f"expected ({sys.dim(tr.to_mode)},)"
            )
        if not np.all(np.isfinite(x_plus)):
            raise NonFiniteState(f"non-finite reset state at t={t_e}")

        if t_e > times[-1]:
            times = np.append(times, t_e)
            states = np.vstack([states, x_minus[None, :]])
        else:
            # event localized onto the last sample; replace to keep strict ordering
            times = np.array(times, copy=True)
            times[-1] = t_e
            states = np.vstack([states[:-1], x_minus[None, :]])
        segments.append(Segment(mode=mode, times=times, states=states))
        events.append(
            EventRecord(
                t_event=t_e,
                transition_index=idx,
                x_minus=np.array(x_minus, copy=True),
                x_plus=np.array(x_plus, copy=True),
                guard_residual=residual,
                transversality=deriv,
            )
        )
        mode = tr.to_mode
        t_cur = t_e
        x_cur = x_plus
        if t_cur >= t1:
            segments.append(
                Segment(mode=mode, times=np.array([t_cur]), states=x_cur[None, :].copy())
            )
            break

    return HybridTrajectory(segments=tuple(segments), events=tuple(events))
