"""Propagation of linearizations, covariances, and quadratic values.

Within a mode the variational equation dM/dt = D_x f(t, x(t)) M is integrated
jointly with the state: `simulate.rk4_step` on the augmented state
z = (x, vec M) with z' = (f(t, x), D_x f(t, x) M). Across events the saltation
matrix applies.
A trajectory is linearized on its own sample grid: one flow matrix per
sample interval (subdivided only where an interval is wider than `step`) and
one saltation matrix per event. Each interval starts from a recorded state,
so a segment's intervals are independent: they are integrated as one stack
of rows z, one RK4 pass per group of intervals with the same substep count,
with the field and its Jacobian called on the (K, n) stack of interval
starts and (K,) times. The first stage of each group compares row 0 (and,
for a Jacobian that returns one (n, n) matrix, the last row) with a one-row
call; a segment whose callables fail on the stack or disagree is integrated
one interval at a time instead, through the same code. `variational_flow` is
that one-interval case. Fundamental and monodromy matrices,
covariance push-forwards and the backward Riccati pass are folds over that
linearization, and they share it: `_linearize` keeps the most recent one (one
entry in total), keyed by the system's identity, `step` and the content of
the trajectory. Folds run in turn on one (system, trajectory, step) therefore
integrate each sample interval once between them, and each sees the matrices
it would have computed alone, bit for bit. This rests on the system's
callables being pure functions of (t, x).

Each fold combines a segment's (K, n, n) flows as stacks, in O(log K) or
O(sqrt K) numpy calls, not one Python step per interval. Events stay
sequential boundaries between segments, so each segment keeps its own n and
each form has one jump rule. The fundamental matrix and the covariance take
the prefix products Phi_i of a segment's flows, by doubling: the fundamental
matrix the last of them, the covariance Phi_i Sigma Phi_i^T in one stacked
pass. The Riccati pass is a blocked suffix scan over the associative
elements (A_k, C_k = B_k V_k^-1 B_k^T, J_k = Q_k) of Sarkka and
Garcia-Fernandez (2023), closed on the segment's end value, then one stacked
solve for the gains; a segment whose V_k has no Cholesky factor takes the
recursion one interval at a time instead.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonFiniteState, NotPeriodic, SingularInputPenalty
from .saltation import SaltationResult, saltation_matrix
from .simulate import (DEFAULT_STEP, _ONE_ROW, _STACK, _check_field, _check_jacobian, _first,
                       _float, _NotBroadcast, _rk4_steps, _substep_groups, _take, rk4_step)
from .system import HybridSystem, ModeId
from .trajectory import HybridTrajectory, Segment

TOL_STAB = 1e-9

SYM_TOL = 1e-12
PSD_TOL = 1e-10


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _flows(rows, sys: HybridSystem, mode: ModeId, t0, X0: np.ndarray, t1,
           step: float) -> np.ndarray:
    """Flow matrices (K, n, n) of the intervals [t0, t1] of one mode, each
    around the orbit from its row of X0 (K, n): RK4 on z = (x, vec M) under
    z' = (f(t, x), D_x f(t, x) M), from M = I, in substeps of at most `step`.
    t0 and t1 are per-row (K,) arrays, or floats when K is 1.

    With _STACK the field and Jacobian see the (K, n) stack of states with
    (K,) times; the first stage of each substep group checks them against
    one-row calls and raises _NotBroadcast where they disagree. With
    _ONE_ROW, K is 1 and they see a 1-D state and a float time.
    """
    field = sys.modes[mode]
    n = field.dim
    Z = np.zeros((X0.shape[0], n + n * n))
    Z[:, :n] = X0
    Z[:, n::n + 1] = 1.0  # vec M = vec I
    probe = True

    def stage(t, z):
        nonlocal probe
        x, M = z[:, :n], z[:, n:].reshape(-1, n, n)
        F = rows.field(field.f, t, x)
        J = rows.jacobian(field, t, x)
        if probe:
            _check_field(rows, field.f, t, x, f"mode {mode} field", F)
            _check_jacobian(rows, field.jacobian, t, x, f"mode {mode} Jacobian", J)
            probe = False
        dz = np.empty_like(z)
        dz[:, :n] = F
        np.matmul(J, M, out=dz[:, n:].reshape(-1, n, n))
        return dz

    for m, sel in _substep_groups(t0, t1, Z.shape[0], step):
        probe = True
        Z[sel] = _rk4_steps(rk4_step, stage, _take(t0, sel), Z[sel], _take(t1, sel), m)
    bad = ~np.isfinite(Z).all(axis=1)
    if bad.any():
        i = _first(bad)
        raise NonFiniteState(f"non-finite variational flow over [{_float(t0, i)}, "
                             f"{_float(t1, i)}] in mode {mode}")
    return Z[:, n:].reshape(-1, n, n).copy()


def variational_flow(sys: HybridSystem, mode: ModeId, t0: float, x0: np.ndarray,
                     t1: float, step: float = DEFAULT_STEP) -> np.ndarray:
    """Linearized flow map A of one smooth mode over [t0, t1] around x0's orbit."""
    return _flows(_ONE_ROW, sys, mode, float(t0), np.asarray(x0, dtype=float)[None],
                  float(t1), step)[0]


def _segment_flows(sys: HybridSystem, seg: Segment, step: float) -> np.ndarray:
    """Flow matrices (K, n, n) of a segment's K sample intervals: one stacked
    pass, or one interval at a time where the mode's callables do not
    broadcast over the stack of interval starts."""
    t, X = seg.times, seg.states
    try:
        return _flows(_STACK, sys, seg.mode, t[:-1], X[:-1], t[1:], step)
    except _NotBroadcast:
        ts = t.tolist()
        return np.concatenate([_flows(_ONE_ROW, sys, seg.mode, ts[i], X[i:i + 1], ts[i + 1], step)
                               for i in range(t.size - 1)])


_Linearization = tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]

# (weak reference to the system, content key, linearization) of the last miss
_memo: Optional[tuple[weakref.ref, tuple, _Linearization]] = None


def _content(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _linearize(sys: HybridSystem, traj: HybridTrajectory, step: float) -> _Linearization:
    """One pass over a trajectory in order: per segment, the (K, n, n) flow
    matrices of its K sample intervals on the trajectory's own grid; per
    event, its Xi.

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
    flows = tuple(_segment_flows(sys, seg, step) for seg in traj.segments)
    xis = tuple(saltation_matrix(sys, ev).xi for ev in traj.events)
    for a in (*flows, *xis):
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


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """Ordered products mats[i] @ ... @ mats[0] of a (K, n, n) stack, all i at
    once by doubling (Hillis-Steele): ceil(log2 K) stacked matmuls."""
    phi = np.array(mats)
    d = 1
    while d < len(phi):
        phi[d:] = phi[d:] @ phi[:-d]
        d *= 2
    return phi


def fundamental_matrix(sys: HybridSystem, traj: HybridTrajectory,
                       step: float = DEFAULT_STEP) -> FundamentalMatrix:
    """Compose per-interval variational flows with saltation matrices: per
    segment the last of its flows' prefix products, and between segments the
    event's Xi."""
    flows, xis = _linearize(sys, traj, step)
    phi = np.eye(sys.dim(traj.segments[0].mode))
    for k, seg_flows in enumerate(flows):
        if k > 0:
            phi = xis[k - 1] @ phi
        if len(seg_flows):
            phi = _prefix_products(seg_flows)[-1] @ phi
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


def _check_sym_psd(mats: np.ndarray, label: str) -> None:
    """Raise ValueError at the first matrix of a stack (K, n, n) that is not
    symmetric, else not PSD, within tolerances relative to its own scale."""
    scale = np.fmax(1.0, np.abs(mats).max(axis=(1, 2)))  # fmax: a NaN scale reads 1
    asym = np.abs(mats - np.swapaxes(mats, 1, 2)).max(axis=(1, 2))
    min_eig = np.linalg.eigvalsh(_sym(mats)).min(axis=1)
    skew = asym > SYM_TOL * scale
    bad = skew | (min_eig < -PSD_TOL * scale)
    if bad.any():
        i = _first(bad)
        if skew[i]:
            raise ValueError(f"{label} asymmetry {asym[i]:.3e} exceeds {SYM_TOL}*scale")
        raise ValueError(f"{label} min eigenvalue {min_eig[i]:.3e} below -{PSD_TOL}*scale")


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
        _check_sym_psd(np.asarray(self.sigma)[None], "covariance")


@dataclass(frozen=True)
class ValueState:
    """Symmetric PSD quadratic value matrix attached to a time and mode."""

    t: float
    mode: ModeId
    p: np.ndarray

    def __post_init__(self):
        _check_sym_psd(np.asarray(self.p)[None], "value matrix")


def _prechecked(cls, **fields):
    """An instance of a frozen dataclass built without its __post_init__
    check, for values that one stacked check has already passed."""
    obj = object.__new__(cls)
    attrs = obj.__dict__  # item by item, so instances keep sharing the class's key table
    for name, value in fields.items():
        attrs[name] = value
    return obj


def propagate_covariance(sys: HybridSystem, traj: HybridTrajectory,
                         sigma0: np.ndarray, step: float = DEFAULT_STEP) -> list[CovarianceState]:
    """Push a covariance along a trajectory: Phi_i Sigma Phi_i^T in segments,
    with Phi_i the product of the segment's first i flows and Sigma its start
    value, and Xi Sigma Xi^T at events. One output per trajectory sample.

    The symmetric/PSD check of CovarianceState runs once per segment, on the
    stack of its samples, and raises at the first sample that fails it."""
    sigma = np.asarray(sigma0, dtype=float)
    _require_square(sigma, "sigma0", sys, traj.segments[0].mode)
    flows, xis = _linearize(sys, traj, step)
    sigma = _sym(sigma)
    out: list[CovarianceState] = []
    for k, (seg, seg_flows) in enumerate(zip(traj.segments, flows)):
        if k > 0:
            sigma = _sym(xis[k - 1] @ sigma @ xis[k - 1].T)
        phi = _prefix_products(seg_flows)
        sigmas = np.concatenate((sigma[None], _sym(phi @ sigma @ np.swapaxes(phi, 1, 2))))
        _check_sym_psd(sigmas, "covariance")
        out.extend(_prechecked(CovarianceState, t=t, mode=seg.mode, sigma=s.copy())
                   for t, s in zip(seg.times.tolist(), sigmas))
        sigma = sigmas[-1]
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


def _stages(m: MatrixLike, t0: np.ndarray) -> np.ndarray:
    """m at every interval start t0 (K,) as a (K, r, c) stack: a callable is
    called once per start, a constant array is broadcast (a read-only view)."""
    if callable(m):
        return np.stack([np.asarray(m(t), dtype=float) for t in t0.tolist()])
    m = np.asarray(m, dtype=float)
    return np.broadcast_to(m, (t0.size, *m.shape))


def _require_definite(S: np.ndarray, t0: np.ndarray) -> None:
    """Raise SingularInputPenalty at the last matrix of the stack S that has
    no Cholesky factor, t0 holding the start of each one's interval."""
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        for i in reversed(range(len(S))):
            try:
                np.linalg.cholesky(S[i])
            except np.linalg.LinAlgError as exc:
                raise SingularInputPenalty(
                    f"input penalty not positive definite on interval starting t={float(t0[i])}"
                ) from exc


def _combine(a1, c1, j1, a2, c2, j2):
    """The LQR scan element of an earlier span (a1, c1, j1) followed by a
    later one (a2, c2, j2) (Sarkka & Garcia-Fernandez 2023):
    A = A2 (I + C1 J2)^-1 A1, C = A2 (I + C1 J2)^-1 C1 A2^T + C2,
    J = A1^T J2 (I + C1 J2)^-1 A1 + J1. Stacks broadcast."""
    n = a1.shape[-1]
    x = np.linalg.solve(np.eye(n) + c1 @ j2, np.concatenate((a1, c1), axis=-1))
    xa = x[..., :n]
    a = a2 @ xa
    return (a, a2 @ x[..., n:] @ np.swapaxes(a2, -1, -2) + c2,
            np.swapaxes(a1, -1, -2) @ j2 @ xa + j1)


def _close(a, c, j, p):
    """The value matrix J + A^T P (I + C P)^-1 A before a span (A, C, J) that
    ends at value P: the J of the span followed by (0, 0, P). Stacks broadcast."""
    n = a.shape[-1]
    return j + np.swapaxes(a, -1, -2) @ p @ np.linalg.solve(np.eye(n) + c @ p, a)


def _riccati_scan(A: np.ndarray, C: np.ndarray, J: np.ndarray, p_end: np.ndarray) -> np.ndarray:
    """Value matrices (K + 1, n, n) at the nodes of K intervals with elements
    (A_k, C_k, J_k), the last node's being p_end, by a blocked suffix scan:
    b = ceil(sqrt(K)) intervals per block, padded at the end with identity
    elements (I, 0, 0); suffix products inside every block at once (b - 1
    stacked combines); the value after each block, one block at a time from
    the last; then every node closed on the value after its block at once."""
    K, n = A.shape[:2]
    b = math.ceil(math.sqrt(K))
    nb = -(-K // b)
    pad = nb * b - K

    def blocks(x, fill):
        return np.concatenate((x, np.broadcast_to(fill, (pad, n, n)))).reshape(nb, b, n, n)

    # each interval's element is read just before its suffix overwrites it
    suffix = (blocks(A, np.eye(n)), blocks(C, np.zeros((n, n))), blocks(J, np.zeros((n, n))))
    for j in range(b - 2, -1, -1):
        for x, y in zip(suffix, _combine(*(x[:, j] for x in suffix), *(x[:, j + 1] for x in suffix))):
            x[:, j] = y
    after = np.empty((nb, 1, n, n))
    after[-1, 0] = p_end
    for i in range(nb - 1, 0, -1):
        after[i - 1, 0] = _close(*(x[i, 0] for x in suffix), after[i, 0])
    values = _close(*suffix, after).reshape(-1, n, n)[:K]
    return np.concatenate((values, p_end[None]))


def _riccati_steps(A, Bk, Qk, Vk, p, t0):
    """The backward Riccati recursion one interval at a time: the fallback of
    _riccati_segment, for a V_k that has no Cholesky factor."""
    K, m, n = Bk.shape[0], Bk.shape[2], A.shape[1]
    values, gains = np.empty((K + 1, n, n)), np.empty((K, m, n))
    values[K] = p
    for i in reversed(range(K)):
        S = _sym(Vk[i] + Bk[i].T @ p @ Bk[i])
        _require_definite(S[None], t0[i:i + 1])
        gains[i] = np.linalg.solve(S, Bk[i].T @ p @ A[i])
        p = values[i] = _sym(Qk[i] + A[i].T @ p @ (A[i] - Bk[i] @ gains[i]))
    return values, gains


def _riccati_segment(A, Bk, Qk, Vk, p_end, t0):
    """Value matrices (K + 1) and gains (K) of one segment's K intervals,
    P_k = Q_k + A_k^T P_k+1 (A_k - B_k K_k) with K_k = S^-1 B_k^T P_k+1 A_k,
    S = V_k + B_k^T P_k+1 B_k: by the scan with C_k = B_k V_k^-1 B_k^T, then
    one stacked check of S and one stacked solve for the gains. The scan
    needs V_k^-1; where a V_k has no Cholesky factor (or a scan solve meets
    an exactly singular matrix) the segment takes the sequential recursion."""
    try:
        W = np.linalg.solve(np.linalg.cholesky(Vk), np.swapaxes(Bk, 1, 2))
        values = _sym(_riccati_scan(A, np.swapaxes(W, 1, 2) @ W, Qk, p_end))
    except np.linalg.LinAlgError:
        return _riccati_steps(A, Bk, Qk, Vk, p_end, t0)
    BtP = np.swapaxes(Bk, 1, 2) @ values[1:]
    S = _sym(Vk + BtP @ Bk)
    _require_definite(S, t0)
    return values, np.linalg.solve(S, BtP @ A)


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
    flow, B_k = dt B(t_k), Q_k = dt Q(t_k), V_k = dt V(t_k). Segments are
    solved from the last, each from its end value (P_terminal, or the value
    just after the next event) by one blocked scan over its intervals; events
    are the jumps P- = Xi^T P+ Xi between them. Because segment grids end
    exactly at event times this realizes the smooth-jump-smooth sandwich.
    """
    p = np.asarray(P_terminal, dtype=float)
    _require_square(p, "P_terminal", sys, traj.segments[-1].mode)
    _check_stage_shapes(sys, traj, _as_matrix_fn(Q), _as_matrix_fn(V), _as_matrix_fn(B))
    flows, xis = _linearize(sys, traj, step)

    p = _sym(p)
    parts = []  # (values, gains) per segment, from the last
    for k in reversed(range(len(traj.segments))):
        A, times = flows[k], traj.segments[k].times
        if len(A):
            t0 = times[:-1]
            dt = (times[1:] - t0)[:, None, None]
            parts.append(_riccati_segment(A, dt * _stages(B, t0), dt * _stages(Q, t0),
                                          dt * _stages(V, t0), p, t0))
        else:
            parts.append((p[None], ()))
        p = parts[-1][0][0]
        if k > 0:
            p = _sym(xis[k - 1].T @ p @ xis[k - 1])
    parts.reverse()

    times = [seg.times for seg in traj.segments]
    return LqrSolution(
        gain_times=np.concatenate([t[:-1] for t in times]).astype(float),
        gain_ends=np.concatenate([t[:-1] + (t[1:] - t[:-1]) for t in times]).astype(float),
        gains=tuple(g.copy() for _, gains in parts for g in gains),
        node_times=np.concatenate(times).astype(float),
        node_modes=tuple(seg.mode for seg in traj.segments for _ in seg.times),
        values=tuple(v.copy() for values, _ in parts for v in values),
    )
