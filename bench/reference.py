"""Closed-form references for the benchmark's correctness checks.

Everything here is derived from the physics of the benchmark's models and
uses numpy only. Nothing calls saltlib, so no check compares the library
with its own code, and nothing here runs inside a timed operation.
"""

from __future__ import annotations

import math

import numpy as np

G = 9.81
THETA = 0.3
E_BOUNCE = 0.5

# affine field switch (the verify / acceptance-criterion-08 system):
# mode 0 until x1 + 0.1 crosses zero from above, identity reset, then mode 1
SWITCH_A0 = np.array([[0.0, 1.0], [-2.0, -0.3]])
SWITCH_C0 = np.array([0.0, 0.6])
SWITCH_A1 = np.array([[0.0, 1.0], [-1.0, -0.9]])
SWITCH_W = np.array([1.0, 0.0])
SWITCH_OFFSET = 0.1


def rel_err(value, ref) -> float:
    """Max absolute deviation over the larger of 1 and the reference's magnitude."""
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.abs(value - ref).max() / max(1.0, float(np.abs(ref).max())))


def scaled_err(value, ref) -> float:
    """Max absolute deviation over the reference's own magnitude (for tiny matrices)."""
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.abs(value - ref).max() / float(np.abs(ref).max()))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a degree-18 Taylor series."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    b = a / 2.0**squarings
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, 19):
        term = term @ b / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def free_flow(n_cfg: int, dt: float) -> np.ndarray:
    """Flow map of a double integrator: exp([[0, I], [0, 0]] dt)."""
    out = np.eye(2 * n_cfg)
    out[:n_cfg, n_cfg:] = dt * np.eye(n_cfg)
    return out


# ---------------------------------------------------------------------------
# point mass dropped onto the plane inclined by THETA


def _normal(theta: float = THETA) -> np.ndarray:
    return np.array([math.sin(theta), math.cos(theta)])


def ball_drop_impact(x0: np.ndarray, theta: float = THETA) -> tuple[float, np.ndarray]:
    """First touchdown of the free flight from x0 = (q, qd) at t = 0: (t, x_minus)."""
    n = _normal(theta)
    q, qd = x0[:2], x0[2:]
    d0 = float(n @ q)
    vn = float(n @ qd)
    an = G * n[1]
    t = (vn + math.sqrt(vn * vn + 2.0 * an * d0)) / an
    acc = np.array([0.0, -G])
    return t, np.concatenate([q + qd * t + 0.5 * acc * t * t, qd + acc * t])


def slide_saltation(theta: float = THETA) -> np.ndarray:
    """Plastic impact into frictionless sliding: the tangent projector on both blocks."""
    n = _normal(theta)
    omega = np.eye(2) - np.outer(n, n)
    out = np.zeros((4, 4))
    out[:2, :2] = omega
    out[2:, 2:] = omega
    return out


def stick_saltation(qd_minus: np.ndarray, theta: float = THETA) -> np.ndarray:
    """Plastic impact into full stick; depends on the pre-impact velocity."""
    s, c = math.sin(theta), math.cos(theta)
    qd1, qd2 = float(qd_minus[0]), float(qd_minus[1])
    omega = np.array([[qd2 * c, -qd1 * c], [-qd2 * s, qd1 * s]]) / (qd2 * c + qd1 * s)
    out = np.zeros((4, 4))
    out[:2, :2] = omega
    return out


def ball_drop_events(x0: np.ndarray, friction: str) -> list[tuple[float, np.ndarray]]:
    """(t_event, saltation) of the single impact; both contact modes keep the contact."""
    t_e, x_minus = ball_drop_impact(x0)
    xi = slide_saltation() if friction == "slide" else stick_saltation(x_minus[2:])
    return [(t_e, xi)]


# ---------------------------------------------------------------------------
# vertical bouncing ball with restitution E_BOUNCE


def bounce_events(h: float, v: float, t_end: float,
                  e: float = E_BOUNCE) -> list[tuple[float, np.ndarray]]:
    """(t_event, saltation) of every impact before t_end from height h, speed v."""
    events = []
    t = 0.0
    while True:
        dt = (v + math.sqrt(v * v + 2.0 * G * h)) / G
        if t + dt > t_end:
            return events
        t += dt
        v_minus = v - G * dt
        xi = np.array([[-e, 0.0], [-(1.0 + e) * G / v_minus, -e]])
        events.append((t, xi))
        h, v = 0.0, -e * v_minus


# ---------------------------------------------------------------------------
# affine field switch


def switch_event(x0: np.ndarray, t_end: float) -> list[tuple[float, np.ndarray]]:
    """(t_event, saltation) of the mode-0 -> mode-1 switch, if before t_end."""
    x_eq = -np.linalg.solve(SWITCH_A0, SWITCH_C0)

    def state(t: float) -> np.ndarray:
        return x_eq + expm(SWITCH_A0 * t) @ (x0 - x_eq)

    def guard(x: np.ndarray) -> float:
        return float(SWITCH_W @ x) + SWITCH_OFFSET

    h = 1e-3
    step = expm(SWITCH_A0 * h)
    t_lo, dev = 0.0, x0 - x_eq
    while True:
        if t_lo + h > t_end:
            return []
        nxt = step @ dev
        if guard(x_eq + nxt) <= 0.0:
            break
        t_lo, dev = t_lo + h, nxt
    t_hi = t_lo + h
    while t_hi - t_lo > 1e-14:
        t_mid = 0.5 * (t_lo + t_hi)
        if guard(state(t_mid)) > 0.0:
            t_lo = t_mid
        else:
            t_hi = t_mid
    t_e = 0.5 * (t_lo + t_hi)
    x_minus = state(t_e)
    f_minus = SWITCH_A0 @ x_minus + SWITCH_C0
    f_plus = SWITCH_A1 @ x_minus
    xi = np.eye(2) + np.outer(f_plus - f_minus, SWITCH_W) / float(SWITCH_W @ f_minus)
    return [(t_e, xi)]


def switch_jacobian(mode: int) -> np.ndarray:
    return SWITCH_A0 if mode == 0 else SWITCH_A1


# ---------------------------------------------------------------------------
# compositions along a trajectory


def fundamental(events: list[tuple[float, np.ndarray]], t_end: float, flow) -> np.ndarray:
    """Phi = A_K Xi_K ... Xi_1 A_0, with flow(k, dt) the segment-k flow map."""
    t_prev = 0.0
    phi = flow(0, events[0][0] if events else t_end)
    for k, (t_e, xi) in enumerate(events):
        if k > 0:
            phi = flow(k, t_e - t_prev) @ phi
        phi = xi @ phi
        t_prev = t_e
    if events:
        phi = flow(len(events), t_end - t_prev) @ phi
    return phi


def riccati(segment_times: list[np.ndarray], xis: list[np.ndarray], flow,
            Q: np.ndarray, V: np.ndarray, B: np.ndarray,
            P_T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward discrete Riccati pass on a sampled hybrid trajectory.

    Each grid interval [t_i, t_i+1) of segment k uses A = flow(k, dt),
    B dt, Q dt and V dt; events apply P- = Xi^T P+ Xi. Returns the value
    matrix and gain at the first node.
    """
    steps = []
    for k, times in enumerate(segment_times):
        if k > 0:
            steps.append((None, xis[k - 1], 0.0))
        for t0, t1 in zip(times[:-1], times[1:]):
            dt = float(t1) - float(t0)
            steps.append((flow(k, dt), None, dt))
    p = np.asarray(P_T, dtype=float)
    gain = None
    for A, xi, dt in reversed(steps):
        if xi is not None:
            p = xi.T @ p @ xi
            continue
        B_k = dt * B
        S = dt * V + B_k.T @ p @ B_k
        gain = np.linalg.solve(S, B_k.T @ p @ A)
        p = dt * Q + A.T @ p @ (A - B_k @ gain)
        p = 0.5 * (p + p.T)
    return p, gain
