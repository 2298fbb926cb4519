"""Independent numerical cross-checks for the analytic machinery.

Each oracle recomputes a quantity through a route that shares no code with
the analytic implementation it checks: saltation matrices from finite
differences of full nonlinear simulations, covariances from seeded Monte
Carlo ensembles, LQR costs from brute-force closed-loop rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    EventLocalizationError,
    EventOrderChanged,
    SplitDistribution,
    ZenoSuspected,
)
from .propagation import MatrixLike, _as_matrix_fn, variational_flow
from .simulate import SimOptions, flow_to, simulate
from .system import HybridSystem, ModeId, VectorFieldSpec
from .trajectory import HybridTrajectory


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one analytic-vs-numeric comparison."""

    name: str
    analytic: np.ndarray
    numeric: np.ndarray
    max_rel_err: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "analytic": np.asarray(self.analytic).tolist(),
            "numeric": np.asarray(self.numeric).tolist(),
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
        }


def matrix_rel_err(numeric: np.ndarray, analytic: np.ndarray) -> float:
    """Max absolute deviation over the larger of 1 and the analytic magnitude."""
    numeric = np.asarray(numeric, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    scale = max(1.0, float(np.abs(analytic).max())) if analytic.size else 1.0
    return float(np.abs(numeric - analytic).max() / scale) if analytic.size else 0.0


def compare(name: str, analytic: np.ndarray, numeric: np.ndarray,
            rtol: float) -> OracleReport:
    err = matrix_rel_err(numeric, analytic)
    return OracleReport(name=name, analytic=np.asarray(analytic, dtype=float),
                        numeric=np.asarray(numeric, dtype=float),
                        max_rel_err=err, passed=bool(err <= rtol))


# ---------------------------------------------------------------------------
# finite-difference saltation


def numeric_saltation(
    sys: HybridSystem,
    mode0: ModeId,
    x_ref_minus: np.ndarray,
    t_minus: float,
    h: float = 1e-6,
    back_steps: int = 5,
    options: Optional[SimOptions] = None,
    expected_transition: Optional[int] = None,
) -> np.ndarray:
    """Saltation matrix from central differences of full simulations.

    Each coordinate of the pre-event state is perturbed by +-h, flowed
    backward a few steps so the perturbation enters through ordinary
    integration, then simulated through the event. The resulting first-order
    difference at a common post-event time t_f is pulled back to the event
    by the smooth variational flow of the landing mode.

    Raises EventOrderChanged when any perturbed run triggers a different
    first transition than the unperturbed one.
    """
    opts = options or SimOptions()
    x_ref = np.asarray(x_ref_minus, dtype=float)
    n_in = x_ref.size
    field_i = sys.modes[mode0]
    if n_in != field_i.dim:
        raise ValueError(f"x_ref_minus has dim {n_in}, mode {mode0} expects {field_i.dim}")

    t_start = t_minus - back_steps * opts.step
    t_stop = t_minus + max(4.0 * opts.step, 1000.0 * h)
    # only the first transition is under study; capping the event count keeps
    # runs alive past it even when the post-event flow re-grazes a guard
    # (e.g. a fully plastic impact landing exactly on the surface)
    run_opts = replace(opts, max_events=1)

    def run(x_pert: np.ndarray):
        x_start = flow_to(field_i.f, t_minus, x_pert, t_start, opts.step)
        try:
            traj = simulate(sys, mode0, x_start, (t_start, t_stop), run_opts)
        except ZenoSuspected as exc:
            traj = exc.trajectory
        if not traj.events:
            raise EventOrderChanged("a run reached t_stop without any event")
        ev = traj.events[0]
        return ev.transition_index, ev.t_event, ev.x_plus

    idx0, t_e0, x_plus0 = run(x_ref)
    if expected_transition is not None and idx0 != expected_transition:
        raise EventOrderChanged(
            f"reference run fired transition {idx0}, expected {expected_transition}"
        )

    runs_plus = []
    runs_minus = []
    for i in range(n_in):
        delta = np.zeros(n_in)
        delta[i] = h
        for sign, bucket in ((1.0, runs_plus), (-1.0, runs_minus)):
            idx, t_e, x_plus = run(x_ref + sign * delta)
            if idx != idx0:
                raise EventOrderChanged(
                    f"perturbation {sign:+g}h along coordinate {i} changed the first "
                    f"transition from {idx0} to {idx}"
                )
            bucket.append((t_e, x_plus))

    mode_j = sys.transitions[idx0].to_mode
    f_j = sys.modes[mode_j].f
    t_f = max([t_e0] + [t for t, _ in runs_plus] + [t for t, _ in runs_minus])
    t_f += 10.0 * opts.tol_t

    cols = np.empty((sys.dim(mode_j), n_in))
    for i in range(n_in):
        tp, xp = runs_plus[i]
        tm, xm = runs_minus[i]
        xf_p = flow_to(f_j, tp, xp, t_f, opts.step)
        xf_m = flow_to(f_j, tm, xm, t_f, opts.step)
        cols[:, i] = (xf_p - xf_m) / (2.0 * h)

    A = variational_flow(sys, mode_j, t_e0, x_plus0, t_f, opts.step)
    return np.linalg.solve(A, cols)


# ---------------------------------------------------------------------------
# Monte Carlo covariance


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 with a fixed pairwise tree (deterministic rounding)."""
    while a.shape[0] > 1:
        if a.shape[0] % 2:
            tail = a[-1]
            a = a[:-1][0::2] + a[:-1][1::2]
            a = np.concatenate([a, tail[None]], axis=0)
        else:
            a = a[0::2] + a[1::2]
    return a[0]


def _psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _rk4_batch(f, t, X, h):
    if np.ndim(h) == 0:
        h = hh = float(h)
    else:
        h = np.asarray(h, dtype=float)
        hh = h[:, None]
    k1 = f(t, X)
    k2 = f(t + 0.5 * h, X + 0.5 * hh * k1)
    k3 = f(t + 0.5 * h, X + 0.5 * hh * k2)
    k4 = f(t + h, X + hh * k3)
    return X + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _guard_batch(guard, t, X) -> np.ndarray:
    try:
        vals = np.asarray(guard.g(t, X), dtype=float)
        return np.broadcast_to(vals, (X.shape[0],)).astype(float)
    except Exception as exc:
        raise ValueError(
            "vectorized rollout requires guards that broadcast over a batch of "
            "states; rerun with vectorized=False"
        ) from exc


def _arm_batch(vals: np.ndarray, two_sided: Sequence[bool]) -> np.ndarray:
    armed = np.zeros(vals.shape, dtype=np.int8)
    armed[vals > 0.0] = 1
    for j, ts in enumerate(two_sided):
        if ts:
            armed[vals[:, j] < 0.0, j] = -1
    return armed


def _rows_by_mode(mode: np.ndarray, rows: Optional[np.ndarray] = None) -> dict:
    """Row indices per occupied mode, in ascending mode order.

    Without `rows` the whole batch is grouped, and a mode that holds every
    row gets slice(None), so that its fields and guards run on the batch
    array itself instead of a gathered copy.
    """
    if rows is None:
        present = np.unique(mode)
        if present.size == 1:
            return {int(present[0]): slice(None)}
        rows = np.arange(mode.size)
    modes = mode[rows]
    return {int(m): rows[modes == m] for m in np.unique(modes)}


def _batch_rollout(sys: HybridSystem, mode0: ModeId, X0: np.ndarray, t0: float,
                   t_final: float, opts: SimOptions) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a batch of samples on a common macro grid.

    Mirrors simulate()'s arming and bisection semantics per sample, except
    that all samples share one step grid (event handling restarts mid-step
    and rejoins the grid at the step's end). Requires fields, guards, and
    resets that broadcast over leading batch axes; time enters the stage
    evaluations as an array during event localization and for rows that
    restart mid-step after an event, and as a scalar otherwise.

    The rows of each occupied mode are kept as a row set that is rebuilt
    only in a step where an event moved rows; a mode that holds every row
    works on the batch array itself. A step without events therefore costs
    one RK4 step and one guard evaluation per occupied mode, with no
    whole-batch copy, gather or sort. The per-row event state (left
    bracket ends, earliest crossings) is allocated only in steps where some
    row fires, and a repeat pass inside a step re-checks only the rows
    that fired in the pass before it.

    Returns (final states (N, n), event-sequence codes (N,)).
    """
    N = X0.shape[0]
    n_tr = len(sys.transitions)
    out_by_mode = {m: sys.outgoing(m) for m in range(len(sys.modes))}
    max_out = max((len(v) for v in out_by_mode.values()), default=0)

    X = X0.astype(float).copy()
    mode = np.full(N, mode0, dtype=np.int64)
    code = np.zeros(N, dtype=np.int64)
    armed = np.zeros((N, max(max_out, 1)), dtype=np.int8)

    def guard_matrix(m, t, Xs):
        outs = out_by_mode[m]
        if not outs:
            return np.zeros((Xs.shape[0], 0))
        return np.stack([_guard_batch(tr.guard, t, Xs) for _, tr in outs], axis=1)

    # probe broadcastability once with a two-sample slice
    probe = X[: min(2, N)]
    for m in range(len(sys.modes)):
        got = np.asarray(sys.modes[m].f(t0, probe), dtype=float)
        if got.shape != probe.shape:
            raise ValueError(
                f"mode {m} field does not broadcast over batches "
                f"(returned {got.shape} for {probe.shape}); rerun with vectorized=False"
            )

    outs0 = out_by_mode[mode0]
    if outs0:
        vals0 = guard_matrix(mode0, t0, X)
        armed[:, : len(outs0)] = _arm_batch(vals0, [tr.guard.two_sided for _, tr in outs0])

    n_steps = max(1, int(np.ceil((t_final - t0) / opts.step)))
    edges = t0 + np.arange(n_steps + 1) * opts.step
    edges[-1] = t_final

    members = _rows_by_mode(mode)
    for k in range(n_steps):
        t_a, t_b = float(edges[k]), float(edges[k + 1])
        if t_b <= t_a:
            continue
        # drop the previous step's event arrays before this step allocates
        t_left = X_left = best_out = best_x = None
        if len(members) == 1:
            X_new = _rk4_batch(sys.modes[next(iter(members))].f, t_a, X, t_b - t_a)
        else:
            X_new = np.empty_like(X)
            for m, rows in members.items():
                X_new[rows] = _rk4_batch(sys.modes[m].f, t_a, X[rows], t_b - t_a)

        # pass 0 checks every row; a later pass only the rows that fired in
        # the pass before it, as no other row's state, mode or arming changed
        check = members
        step_vals = {}
        moved = False
        for _pass in range(8):
            best_t = None
            for m, rows in check.items():
                outs = out_by_mode[m]
                if not outs:
                    continue
                vals = guard_matrix(m, t_b, X_new[rows])
                if _pass == 0:
                    step_vals[m] = vals
                arm_m = armed[rows, : len(outs)]
                fired = ((arm_m > 0) & (vals <= 0.0)) | ((arm_m < 0) & (vals >= 0.0))
                if not fired.any():
                    continue
                if isinstance(rows, slice):
                    rows = np.arange(N)
                if best_t is None:
                    if t_left is None:
                        t_left = np.full(N, t_a)
                        X_left = X.copy()
                    best_t = np.full(N, np.inf)
                    best_out = np.full(N, -1, dtype=np.int64)
                    best_x = np.zeros_like(X)
                for j in range(len(outs)):
                    sub = rows[fired[:, j]]
                    if sub.size == 0:
                        continue
                    guard = outs[j][1].guard
                    sgn = armed[sub, j].astype(float)
                    t_lo = t_left[sub].copy()
                    t_hi = np.full(sub.size, t_b)
                    x_lo = X_left[sub].copy()
                    x_hi = X_new[sub].copy()
                    g_lo = sgn * _guard_batch(guard, t_lo, x_lo)
                    g_hi = sgn * _guard_batch(guard, t_hi, x_hi)
                    f_m = sys.modes[m].f
                    # each row stops at its own tol_t, as simulate() does, so its
                    # event time does not depend on the rows that fire with it
                    for _ in range(200):
                        active = t_hi - t_lo > opts.tol_t
                        if not active.any():
                            break
                        t_mid = 0.5 * (t_lo + t_hi)
                        x_mid = _rk4_batch(f_m, t_left[sub], X_left[sub], t_mid - t_left[sub])
                        g_mid = sgn * _guard_batch(guard, t_mid, x_mid)
                        up = active & (g_mid > 0.0)
                        down = active & ~up
                        t_lo = np.where(up, t_mid, t_lo)
                        t_hi = np.where(down, t_mid, t_hi)
                        x_lo = np.where(up[:, None], x_mid, x_lo)
                        x_hi = np.where(down[:, None], x_mid, x_hi)
                        g_lo = np.where(up, g_mid, g_lo)
                        g_hi = np.where(down, g_mid, g_hi)
                    pick_hi = np.abs(g_hi) <= np.abs(g_lo)
                    t_e = np.where(pick_hi, t_hi, t_lo)
                    x_e = np.where(pick_hi[:, None], x_hi, x_lo)
                    better = t_e < best_t[sub]
                    best_t[sub] = np.where(better, t_e, best_t[sub])
                    best_out[sub] = np.where(better, j, best_out[sub])
                    best_x[sub] = np.where(better[:, None], x_e, best_x[sub])

            if best_t is None:
                break
            fired_rows = np.where(best_out >= 0)[0]
            # the modes the rows fired from, read before any transition moves them
            fired_modes = mode[fired_rows]
            for m in np.unique(fired_modes):
                rows_m = fired_rows[fired_modes == m]
                outs = out_by_mode[m]
                for j in np.unique(best_out[rows_m]):
                    sub = rows_m[best_out[rows_m] == j]
                    tr_idx, tr = outs[int(j)]
                    t_e = best_t[sub]
                    x_minus = best_x[sub]
                    x_plus = np.asarray(tr.reset.r(t_e, x_minus), dtype=float)
                    if x_plus.shape != x_minus.shape:
                        raise ValueError(
                            "vectorized rollout requires resets that broadcast over "
                            "batches; rerun with vectorized=False"
                        )
                    code[sub] = code[sub] * (n_tr + 1) + (tr_idx + 1)
                    mode[sub] = tr.to_mode
                    t_left[sub] = t_e
                    X_left[sub] = x_plus
                    # re-arm at the event exit, then rejoin the grid at t_b
                    outs_new = out_by_mode[tr.to_mode]
                    armed[sub, :] = 0
                    if outs_new:
                        vals0 = np.stack(
                            [_guard_batch(t2.guard, t_e, x_plus) for _, t2 in outs_new], axis=1
                        )
                        armed[sub, : len(outs_new)] = _arm_batch(
                            vals0, [t2.guard.two_sided for _, t2 in outs_new]
                        )
                    X_new[sub] = _rk4_batch(sys.modes[tr.to_mode].f, t_e, x_plus, t_b - t_e)
            moved = True
            check = _rows_by_mode(mode, fired_rows)
        else:
            raise EventLocalizationError(
                "more than 8 events inside one macro step; reduce the step size"
            )

        # commit the step; arm any disarmed guards that moved in-domain. The
        # pass-0 guard values still hold for every row unless an event moved some.
        X = X_new
        if moved:
            members = _rows_by_mode(mode)
        for m, rows in members.items():
            outs = out_by_mode[m]
            if not outs:
                continue
            cur = armed[rows, : len(outs)]
            if cur.all():
                continue
            vals = guard_matrix(m, t_b, X[rows]) if moved else step_vals[m]
            fresh = _arm_batch(vals, [tr.guard.two_sided for _, tr in outs])
            armed[rows, : len(outs)] = np.where(cur == 0, fresh, cur)

    return X, code


def monte_carlo_covariance(
    sys: HybridSystem,
    mode0: ModeId,
    mean0: np.ndarray,
    sigma0: np.ndarray,
    t_span: tuple[float, float],
    n_samples: int = 100_000,
    seed: int = 0,
    options: Optional[SimOptions] = None,
    vectorized: bool = True,
    split_tol: float = 0.01,
) -> np.ndarray:
    """Sample covariance of the hybrid flow at the end of t_span.

    Draws n_samples Gaussian initial states with a counter-based generator
    (fully reproducible from seed), rolls each through the hybrid dynamics,
    and reduces with a fixed pairwise tree so results are byte-stable.

    Raises SplitDistribution when more than split_tol of the samples execute
    a different event sequence than the mean trajectory does: a covariance
    summary is not meaningful across diverging branches.
    """
    opts = options or SimOptions()
    mean0 = np.asarray(mean0, dtype=float)
    n = mean0.size
    t0, t1 = float(t_span[0]), float(t_span[1])

    rng = np.random.Generator(np.random.Philox(seed))
    L = _psd_sqrt(np.asarray(sigma0, dtype=float))
    X0 = mean0 + rng.standard_normal((n_samples, n)) @ L.T

    nominal = simulate(sys, mode0, mean0, (t0, t1), opts)
    n_tr = len(sys.transitions)
    nominal_code = 0
    for ev in nominal.events:
        nominal_code = nominal_code * (n_tr + 1) + (ev.transition_index + 1)

    if vectorized:
        X_f, codes = _batch_rollout(sys, mode0, X0, t0, t1, opts)
    else:
        X_f = np.empty_like(X0)
        codes = np.zeros(n_samples, dtype=np.int64)
        for i in range(n_samples):
            traj = simulate(sys, mode0, X0[i], (t0, t1), opts)
            X_f[i] = traj.x_end
            c = 0
            for ev in traj.events:
                c = c * (n_tr + 1) + (ev.transition_index + 1)
            codes[i] = c

    frac = float(np.mean(codes != nominal_code))
    if frac > split_tol:
        raise SplitDistribution(
            f"{frac:.2%} of samples took a different event sequence than the mean",
            fraction=frac,
        )

    mean_f = _pairwise_sum(X_f) / n_samples
    dev = X_f - mean_f
    outer = dev[:, :, None] * dev[:, None, :]
    return _pairwise_sum(outer) / (n_samples - 1)


# ---------------------------------------------------------------------------
# brute-force quadratic cost


def _controlled_system(sys: HybridSystem, ref: HybridTrajectory,
                       b_fn: Callable[[float], np.ndarray],
                       control: Callable[[float, np.ndarray], np.ndarray]) -> HybridSystem:
    def wrap(spec: VectorFieldSpec) -> VectorFieldSpec:
        base = spec.f

        def f(t, x, _base=base):
            return np.asarray(_base(t, x), dtype=float) + b_fn(t) @ control(t, x)

        return VectorFieldSpec(dim=spec.dim, f=f)

    return HybridSystem(
        modes=tuple(wrap(m) for m in sys.modes),
        transitions=sys.transitions,
        mode_names=sys.mode_names,
        transition_names=sys.transition_names,
    )


def brute_force_cost(
    sys: HybridSystem,
    ref: HybridTrajectory,
    Q: MatrixLike,
    V: MatrixLike,
    B: MatrixLike,
    P_terminal: np.ndarray,
    policy=None,
    perturbations: Optional[np.ndarray] = None,
    n_rollouts: int = 8,
    scale: float = 1e-3,
    seed: int = 0,
    options: Optional[SimOptions] = None,
) -> float:
    """Mean quadratic tracking cost of closed-loop rollouts around ref.

    Each rollout perturbs the initial state, simulates the full nonlinear
    hybrid dynamics with feedback u = -K(t) (x - x_ref(t)) (policy None means
    u = 0), and accumulates dt (dx' Q dx + u' V u) on the rollout grid plus
    the terminal dx' P dx. Perturbations default to scale * N(0, I) draws
    from a counter-based generator; pass explicit rows to pin them.
    """
    opts = options or SimOptions()
    q_fn, v_fn, b_fn = _as_matrix_fn(Q), _as_matrix_fn(V), _as_matrix_fn(B)
    t0, t1 = ref.t_start, ref.t_end
    n = ref.x_start.size

    if perturbations is None:
        rng = np.random.Generator(np.random.Philox(seed))
        perturbations = scale * rng.standard_normal((n_rollouts, n))
    else:
        perturbations = np.atleast_2d(np.asarray(perturbations, dtype=float))

    def control(t: float, x: np.ndarray) -> np.ndarray:
        if policy is None:
            return np.zeros(b_fn(t).shape[1])
        dx = x - ref.interpolate(t)
        return -(policy.gain_at(t) @ dx)

    mode0 = ref.segments[0].mode
    csys = _controlled_system(sys, ref, b_fn, control)

    total = 0.0
    for row in perturbations:
        traj = simulate(csys, mode0, ref.x_start + row, (t0, t1), opts)
        cost = 0.0
        for seg in traj.segments:
            for i in range(seg.times.size - 1):
                t = float(seg.times[i])
                dt = float(seg.times[i + 1]) - t
                dx = seg.states[i] - ref.interpolate(t)
                u = control(t, seg.states[i])
                cost += dt * (dx @ q_fn(t) @ dx + u @ v_fn(t) @ u)
        dx_end = traj.x_end - ref.x_end
        cost += float(dx_end @ np.asarray(P_terminal, dtype=float) @ dx_end)
        total += cost
    return total / perturbations.shape[0]
