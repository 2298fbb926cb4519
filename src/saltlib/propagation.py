"""Propagation of linearizations, covariances, and quadratic values.

Within a mode the variational equation dM/dt = D_x f(t, x(t)) M is integrated
jointly with the state: `simulate.rk4_step` on the augmented state
z = (x, vec M) with z' = (f(t, x), D_x f(t, x) M). Across events the saltation
matrix applies.
A trajectory is linearized on its own sample grid: one flow matrix per
sample interval (subdivided only where an interval is wider than `step`) and
one saltation matrix per event. Fundamental and monodromy matrices,
covariance push-forwards and the backward Riccati pass are folds over that
linearization, and they share it: `_linearize` keeps the most recent one (one
entry in total), keyed by the system's identity, `step` and the content of
the trajectory. Folds run in turn on one (system, trajectory, step) therefore
integrate each sample interval once between them, and each sees the matrices
it would have computed alone, bit for bit. This rests on the system's
callables being pure functions of (t, x).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonFiniteState, NotPeriodic, SingularInputPenalty
from .saltation import SaltationResult, saltation_matrix
from .simulate import DEFAULT_STEP, _substeps, rk4_step
from .system import HybridSystem, ModeId
from .trajectory import HybridTrajectory

TOL_STAB = 1e-9

SYM_TOL = 1e-12
PSD_TOL = 1e-10


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def variational_flow(sys: HybridSystem, mode: ModeId, t0: float, x0: np.ndarray,
                     t1: float, step: float = DEFAULT_STEP) -> np.ndarray:
    """Linearized flow map A of one smooth mode over [t0, t1] around x0's orbit."""
    field = sys.modes[mode]
    n = field.dim
    span = t1 - t0
    if span == 0.0:
        return np.eye(n)

    def augmented(t, z):
        x, M = z[:n], z[n:].reshape(n, n)
        return np.concatenate([field.f(t, x), (field.jacobian(t, x) @ M).ravel()])

    z = np.concatenate([np.asarray(x0, dtype=float), np.eye(n).ravel()])
    n_sub = _substeps(t0, t1, step)
    h = span / n_sub
    t = t0
    for k in range(n_sub):
        z = rk4_step(augmented, t, z, h)
        t = t0 + (k + 1) * h
    if not np.all(np.isfinite(z)):
        raise NonFiniteState(f"non-finite variational flow over [{t0}, {t1}] in mode {mode}")
    return z[n:].reshape(n, n)


_Linearization = tuple[tuple[tuple[np.ndarray, ...], ...], tuple[np.ndarray, ...]]

# (weak reference to the system, content key, linearization) of the last miss
_memo: Optional[tuple[weakref.ref, tuple, _Linearization]] = None


def _content(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _linearize(sys: HybridSystem, traj: HybridTrajectory, step: float) -> _Linearization:
    """One pass over a trajectory in order: per segment, the flow matrix of
    every sample interval on the trajectory's own grid; per event, its Xi.

    The most recent result is kept, one in total, and returned again while
    the system is the same object and `step` and everything read from the
    trajectory (each segment's mode, times and states, each event's
    transition index, time and states) repeat in dtype, shape and bytes. The
    system is held only through a weak reference. The stored arrays are
    read-only. A failure is not stored, so it is raised again on every call.
    """
    global _memo
    key = (
        step,
        tuple((seg.mode, _content(seg.times), _content(seg.states)) for seg in traj.segments),
        tuple((ev.transition_index, _content(ev.t_event), _content(ev.x_minus),
               _content(ev.x_plus)) for ev in traj.events),
    )
    memo = _memo
    if memo is not None and memo[0]() is sys and memo[1] == key:
        return memo[2]
    _memo = None  # dropped first, so a miss never keeps two linearizations alive
    flows = tuple(
        tuple(variational_flow(sys, seg.mode, float(seg.times[i]), seg.states[i],
                               float(seg.times[i + 1]), step)
              for i in range(seg.times.size - 1))
        for seg in traj.segments
    )
    xis = tuple(saltation_matrix(sys, ev).xi for ev in traj.events)
    for a in (*(A for seg_flows in flows for A in seg_flows), *xis):
        a.setflags(write=False)
    _memo = (weakref.ref(sys), key, (flows, xis))
    return flows, xis


@dataclass(frozen=True)
class FundamentalMatrix:
    """Linearized flow along a hybrid trajectory, events included."""

    phi: np.ndarray
    t_start: float
    t_end: float
    n_events: int


def fundamental_matrix(sys: HybridSystem, traj: HybridTrajectory,
                       step: float = DEFAULT_STEP) -> FundamentalMatrix:
    """Compose per-interval variational flows with saltation matrices."""
    flows, xis = _linearize(sys, traj, step)
    phi = np.eye(sys.dim(traj.segments[0].mode))
    for k, seg_flows in enumerate(flows):
        if k > 0:
            phi = xis[k - 1] @ phi
        for A in seg_flows:
            phi = A @ phi
    return FundamentalMatrix(
        phi=phi, t_start=traj.t_start, t_end=traj.t_end, n_events=len(traj.events)
    )


@dataclass(frozen=True)
class MonodromyReport:
    """Floquet analysis of a closed hybrid trajectory.

    multipliers are eigenvalues of phi sorted by decreasing magnitude;
    exponents satisfy sigma = exp(mu * period); lyapunov = Re(mu).
    """

    phi: np.ndarray
    multipliers: np.ndarray
    exponents: np.ndarray
    lyapunov: np.ndarray
    stable: bool
    verdict: str
    period: float

    def to_dict(self) -> dict:
        return {
            "phi": self.phi.tolist(),
            "multipliers": [[float(s.real), float(s.imag)] for s in self.multipliers],
            "exponents": [[float(m.real), float(m.imag)] for m in self.exponents],
            "lyapunov": [float(v) for v in self.lyapunov],
            "stable": self.stable,
            "verdict": self.verdict,
            "period": self.period,
        }


def monodromy(sys: HybridSystem, traj: HybridTrajectory, tol_periodic: float = 1e-6,
              tol_stab: float = TOL_STAB, step: float = DEFAULT_STEP) -> MonodromyReport:
    """Monodromy matrix and Floquet stability verdict for a closed trajectory."""
    first, last = traj.segments[0], traj.segments[-1]
    if first.mode != last.mode:
        raise NotPeriodic(
            f"trajectory starts in mode {first.mode} but ends in mode {last.mode}"
        )
    gap = float(np.linalg.norm(traj.x_end - traj.x_start))
    if gap > tol_periodic * (1.0 + float(np.linalg.norm(traj.x_start))):
        raise NotPeriodic(f"endpoint gap {gap:.3e} exceeds tol_periodic={tol_periodic}")
    period = traj.t_end - traj.t_start
    if period <= 0.0:
        raise NotPeriodic("trajectory spans zero time")

    fund = fundamental_matrix(sys, traj, step)
    sigma = np.linalg.eigvals(fund.phi)
    order = np.argsort(-np.abs(sigma))
    sigma = sigma[order]
    with np.errstate(divide="ignore"):
        mu = np.log(sigma.astype(complex)) / period
    mags = np.abs(sigma)
    stable = bool(np.all(mags < 1.0 - tol_stab))
    if np.any(mags > 1.0 + tol_stab):
        verdict = "unstable"
    elif np.any(np.abs(mags - 1.0) <= tol_stab):
        verdict = "marginal"
    else:
        verdict = "stable"
    return MonodromyReport(
        phi=fund.phi,
        multipliers=sigma,
        exponents=mu,
        lyapunov=mu.real.copy(),
        stable=stable,
        verdict=verdict,
        period=period,
    )


def _check_sym_psd(mat: np.ndarray, label: str) -> None:
    scale = max(1.0, float(np.abs(mat).max()))
    asym = float(np.abs(mat - mat.T).max())
    if asym > SYM_TOL * scale:
        raise ValueError(f"{label} asymmetry {asym:.3e} exceeds {SYM_TOL}*scale")
    min_eig = float(np.linalg.eigvalsh(_sym(mat)).min())
    if min_eig < -PSD_TOL * scale:
        raise ValueError(f"{label} min eigenvalue {min_eig:.3e} below -{PSD_TOL}*scale")


def _require_square(mat: np.ndarray, name: str, sys: HybridSystem, mode: ModeId) -> None:
    n = sys.dim(mode)
    if mat.shape != (n, n):
        raise ValueError(f"{name} has shape {mat.shape}, expected ({n}, {n}) "
                         f"for mode {sys.mode_label(mode)}")


@dataclass(frozen=True)
class CovarianceState:
    """Symmetric PSD second moment attached to a trajectory sample."""

    t: float
    mode: ModeId
    sigma: np.ndarray

    def __post_init__(self):
        _check_sym_psd(self.sigma, "covariance")


@dataclass(frozen=True)
class ValueState:
    """Symmetric PSD quadratic value matrix attached to a time and mode."""

    t: float
    mode: ModeId
    p: np.ndarray

    def __post_init__(self):
        _check_sym_psd(self.p, "value matrix")


def propagate_covariance(sys: HybridSystem, traj: HybridTrajectory,
                         sigma0: np.ndarray, step: float = DEFAULT_STEP) -> list[CovarianceState]:
    """Push a covariance along a trajectory: A Sigma A^T in segments,
    Xi Sigma Xi^T at events. One output per trajectory sample."""
    sigma = np.asarray(sigma0, dtype=float)
    _require_square(sigma, "sigma0", sys, traj.segments[0].mode)
    flows, xis = _linearize(sys, traj, step)
    sigma = _sym(sigma)
    out: list[CovarianceState] = []
    for k, (seg, seg_flows) in enumerate(zip(traj.segments, flows)):
        if k > 0:
            sigma = _sym(xis[k - 1] @ sigma @ xis[k - 1].T)
        out.append(CovarianceState(t=float(seg.times[0]), mode=seg.mode, sigma=sigma.copy()))
        for t1, A in zip(seg.times[1:], seg_flows):
            sigma = _sym(A @ sigma @ A.T)
            out.append(CovarianceState(t=float(t1), mode=seg.mode, sigma=sigma.copy()))
    return out


def riccati_jump(
    xi: SaltationResult,
    p_plus: ValueState,
    q_stage: Optional[np.ndarray] = None,
    mode_minus: Optional[ModeId] = None,
) -> ValueState:
    """Map a post-event value matrix to the pre-event side: P- = Q + Xi^T P+ Xi."""
    n_to, n_from = xi.xi.shape
    p = np.asarray(p_plus.p, dtype=float)
    if p.shape != (n_to, n_to):
        raise ValueError(f"P+ shape {p.shape} does not match saltation output dim {n_to}")
    p_minus = xi.xi.T @ p @ xi.xi
    if q_stage is not None:
        q = np.asarray(q_stage, dtype=float)
        if q.shape != (n_from, n_from):
            raise ValueError(f"q_stage shape {q.shape} does not match input dim {n_from}")
        p_minus = p_minus + q
    mode = p_plus.mode if mode_minus is None else mode_minus
    return ValueState(t=p_plus.t, mode=mode, p=_sym(p_minus))


MatrixLike = Union[np.ndarray, Callable[[float], np.ndarray]]


def _as_matrix_fn(m: MatrixLike) -> Callable[[float], np.ndarray]:
    if callable(m):
        return lambda t: np.asarray(m(t), dtype=float)
    arr = np.asarray(m, dtype=float)
    return lambda t: arr


@dataclass(frozen=True)
class LqrSolution:
    """Backward-pass output: per-interval gains and per-node value matrices.

    gain_times[i] is the left endpoint of the interval gains[i] acts on;
    node_times/node_modes/values align with the flattened trajectory samples
    (event times appear twice: pre- and post-jump).
    """

    gain_times: np.ndarray
    gain_ends: np.ndarray
    gains: tuple[np.ndarray, ...]
    node_times: np.ndarray
    node_modes: tuple[ModeId, ...]
    values: tuple[np.ndarray, ...]

    def gain_at(self, t: float) -> np.ndarray:
        idx = int(self.gain_times.searchsorted(t, side="right")) - 1
        idx = min(max(idx, 0), len(self.gains) - 1)
        return self.gains[idx]

    def value_at_start(self) -> np.ndarray:
        return self.values[0]


def _check_stage_shapes(sys: HybridSystem, traj: HybridTrajectory, q_fn, v_fn, b_fn) -> None:
    """Check Q, V and B at the first interval the backward pass reaches."""
    seg = next((seg for seg in reversed(traj.segments) if seg.times.size > 1), None)
    if seg is None:
        return
    t0, n = float(seg.times[-2]), sys.dim(seg.mode)
    _require_square(q_fn(t0), "Q", sys, seg.mode)
    b, v = b_fn(t0), v_fn(t0)
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"B has shape {b.shape}, expected ({n}, k) for mode {sys.mode_label(seg.mode)}")
    if v.shape != (b.shape[1],) * 2:
        raise ValueError(f"V has shape {v.shape}, expected {(b.shape[1],) * 2} for the columns of B")


def hybrid_lqr_backward(
    sys: HybridSystem,
    traj: HybridTrajectory,
    Q: MatrixLike,
    V: MatrixLike,
    B: MatrixLike,
    P_terminal: np.ndarray,
    step: float = DEFAULT_STEP,
) -> LqrSolution:
    """Finite-horizon LQR along a hybrid trajectory.

    Discretization per grid interval [t_k, t_k+1): A_k from the variational
    flow, B_k = dt B(t_k), Q_k = dt Q(t_k), V_k = dt V(t_k). Events are
    zero-duration riccati_jump steps between segments; because segment grids
    end exactly at event times this realizes the smooth-jump-smooth sandwich.
    """
    q_fn, v_fn, b_fn = _as_matrix_fn(Q), _as_matrix_fn(V), _as_matrix_fn(B)
    p = np.asarray(P_terminal, dtype=float)
    _require_square(p, "P_terminal", sys, traj.segments[-1].mode)
    _check_stage_shapes(sys, traj, q_fn, v_fn, b_fn)
    flows, xis = _linearize(sys, traj, step)

    p = _sym(p)
    values_rev: list[np.ndarray] = [p.copy()]
    gains_rev: list[np.ndarray] = []
    gain_times_rev: list[float] = []
    gain_ends_rev: list[float] = []

    for k in reversed(range(len(traj.segments))):
        times = traj.segments[k].times
        for i in reversed(range(len(flows[k]))):
            A = flows[k][i]
            t0 = float(times[i])
            dt = float(times[i + 1]) - t0
            B_k, Q_k, V_k = dt * b_fn(t0), dt * q_fn(t0), dt * v_fn(t0)
            S = V_k + B_k.T @ p @ B_k
            try:
                np.linalg.cholesky(_sym(S))
            except np.linalg.LinAlgError as exc:
                raise SingularInputPenalty(
                    f"input penalty not positive definite on interval starting t={t0}"
                ) from exc
            K = np.linalg.solve(_sym(S), B_k.T @ p @ A)
            p = _sym(Q_k + A.T @ p @ (A - B_k @ K))
            gains_rev.append(K)
            gain_times_rev.append(t0)
            gain_ends_rev.append(t0 + dt)
            values_rev.append(p.copy())
        if k > 0:
            p = _sym(xis[k - 1].T @ p @ xis[k - 1])
            values_rev.append(p.copy())

    return LqrSolution(
        gain_times=np.asarray(gain_times_rev[::-1], dtype=float),
        gain_ends=np.asarray(gain_ends_rev[::-1], dtype=float),
        gains=tuple(gains_rev[::-1]),
        node_times=np.concatenate([seg.times for seg in traj.segments]).astype(float),
        node_modes=tuple(seg.mode for seg in traj.segments for _ in seg.times),
        values=tuple(values_rev[::-1]),
    )
