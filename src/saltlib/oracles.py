"""Independent numerical cross-checks for the analytic machinery.

Each oracle recomputes a quantity through a route that shares no code with
the analytic implementation it checks: saltation matrices from finite
differences of full nonlinear simulations, covariances from seeded Monte
Carlo ensembles, LQR costs from brute-force closed-loop rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Optional

import numpy as np

from .errors import EventOrderChanged, SplitDistribution
from .propagation import MatrixLike, _as_matrix_fn, variational_flow
from .simulate import _ONE_ROW, SimOptions, _block_rows, _flow_rows, _rollout, _stack_or_each_row
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

    The unperturbed run and the 2n perturbed runs are one batch of rows:
    one back-flow, one rollout whose event hook ends each row at its first
    event, and one forward flow to t_f. Fields, guards and resets that do
    not broadcast over a leading row axis are run one row at a time instead.

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
    # row 0 is the reference; rows 2i + 1 and 2i + 2 move coordinate i by +h and -h
    delta = np.zeros((n_in, n_in))
    np.fill_diagonal(delta, h)
    X = np.concatenate([x_ref[None], x_ref + np.stack([delta, -delta], axis=1).reshape(-1, n_in)])

    def first_events(rows, s):
        # only the first transition is under study: each row ends there, so
        # a post-event flow that re-grazes a guard (e.g. a fully plastic
        # impact landing exactly on the surface) cannot disturb it
        X_start = _flow_rows(rows, field_i.f, t_minus, X[s], t_start, opts.step)
        events = [None] * X_start.shape[0]

        def first(ids, idx, t_e, x_minus, x_plus, residual, transversality):
            # each row's own reset call, as a lone simulation makes it
            reset = sys.transitions[idx].reset
            for k, i in enumerate(ids):
                t = float(t_e[k])
                events[i] = (idx, t, reset.apply(t, x_minus[k]))
            return True

        _rollout(rows, sys, mode0, t_start, X_start, t_stop, opts, event=first)
        return events

    events = [ev for part in _stack_or_each_row(first_events, *X.shape) for ev in part]
    for k, ev in enumerate(events):
        if ev is None:
            raise EventOrderChanged("a run reached t_stop without any event")
        if k == 0:
            idx0, t_e0, x_plus0 = ev
            if expected_transition is not None and idx0 != expected_transition:
                raise EventOrderChanged(
                    f"reference run fired transition {idx0}, expected {expected_transition}"
                )
        elif ev[0] != idx0:
            raise EventOrderChanged(
                f"perturbation {1.0 if k % 2 else -1.0:+g}h along coordinate {(k - 1) // 2} "
                f"changed the first transition from {idx0} to {ev[0]}"
            )

    mode_j = sys.transitions[idx0].to_mode
    f_j = sys.modes[mode_j].f
    t_e = np.array([ev[1] for ev in events])
    t_f = float(t_e.max()) + 10.0 * opts.tol_t
    t_e = t_e[1:]
    X_plus = np.stack([ev[2] for ev in events[1:]])
    X_f = np.concatenate(_stack_or_each_row(
        lambda rows, s: _flow_rows(rows, f_j, t_e[s], X_plus[s], t_f, opts.step), *X_plus.shape))
    cols = (X_f[0::2] - X_f[1::2]).T / (2.0 * h)

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


def _blocked_pairwise_sum(term: Callable[[slice], np.ndarray], n: int, block: int) -> np.ndarray:
    """_pairwise_sum of the n rows that term(slice(0, n)) would return, bit
    for bit, from term on aligned blocks of `block` rows (a power of two).

    The tree pairs rows 2i and 2i + 1 and carries an odd tail to the end of
    its level, so each aligned block of 2^k rows (and the short last block)
    reduces to one node of the whole tree, and the tree over those nodes is
    the rest of it.
    """
    return _pairwise_sum(np.stack([_pairwise_sum(term(slice(a, a + block)))
                                   for a in range(0, n, block)]))


def _psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def monte_carlo_covariance(
    sys: HybridSystem,
    mode0: ModeId,
    mean0: np.ndarray,
    sigma0: np.ndarray,
    t_span: tuple[float, float],
    n_samples: int = 100_000,
    seed: int = 0,
    options: Optional[SimOptions] = None,
    split_tol: float = 0.01,
) -> np.ndarray:
    """Sample covariance of the hybrid flow at the end of t_span.

    Draws n_samples Gaussian initial states with a counter-based generator
    (fully reproducible from seed), rolls each through the hybrid dynamics,
    and reduces with a fixed pairwise tree so results are byte-stable. The
    samples roll in the engine's blocks of rows, or one row at a time when a
    field, guard or reset does not broadcast over a leading row axis.

    The sum of the samples' (n, n) outer products never holds all N of
    them: each aligned block of 2^k samples (at most the engine's block
    budget of products) is reduced by `_pairwise_sum`, and the block sums by
    `_pairwise_sum` again. That is the one tree over all N, odd tails
    included, so the covariance is bit-identical to a single pairwise sum.

    Raises SplitDistribution when more than split_tol of the samples execute
    a different event sequence than the mean trajectory does: a covariance
    summary is not meaningful across diverging branches. Raises ValueError
    for fewer than 2 samples, which have no sample covariance.
    """
    if n_samples < 2:
        raise ValueError(f"a sample covariance needs n_samples >= 2, got {n_samples}")
    opts = options or SimOptions()
    mean0 = np.asarray(mean0, dtype=float)
    n = mean0.size
    t0, t1 = float(t_span[0]), float(t_span[1])

    rng = np.random.Generator(np.random.Philox(seed))
    L = _psd_sqrt(np.asarray(sigma0, dtype=float))
    X0 = mean0 + rng.standard_normal((n_samples, n)) @ L.T

    _, (nominal_code,) = _rollout(_ONE_ROW, sys, mode0, t0, mean0[None], t1, opts)
    runs = _stack_or_each_row(lambda rows, s: _rollout(rows, sys, mode0, t0, X0[s], t1, opts),
                              n_samples, n)
    X_f = np.concatenate([x for x, _ in runs])
    codes = np.concatenate([c for _, c in runs])

    frac = float(np.mean(codes != nominal_code))
    if frac > split_tol:
        raise SplitDistribution(
            f"{frac:.2%} of samples took a different event sequence than the mean",
            fraction=frac,
        )

    mean_f = _pairwise_sum(X_f) / n_samples
    dev = X_f - mean_f
    return _blocked_pairwise_sum(lambda s: dev[s, :, None] * dev[s, None, :], n_samples,
                                 _block_rows(n * n)) / (n_samples - 1)


# ---------------------------------------------------------------------------
# brute-force quadratic cost


def _controlled_system(sys: HybridSystem,
                       forcing: Callable[[float, np.ndarray], np.ndarray]) -> HybridSystem:
    """sys with forcing(t, x) added to the field of every mode."""
    def forced(f: Callable[[float, np.ndarray], np.ndarray]) -> Callable:
        return lambda t, x: np.asarray(f(t, x), dtype=float) + forcing(t, x)

    return replace(sys, modes=tuple(VectorFieldSpec(m.dim, forced(m.f)) for m in sys.modes))


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
    from a counter-based generator; pass explicit rows to pin them. Raises
    ValueError unless there is at least one row, of the reference's width.

    policy.gain_at, Q, V and B must be functions of t alone: like
    ref.interpolate, each is evaluated once per distinct time within a call
    (an RK4 stage time or grid sample), and every stage, sample and rollout
    at that time reuses the value.
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
    if perturbations.ndim != 2 or perturbations.shape[0] < 1 or perturbations.shape[1] != n:
        raise ValueError(f"perturbations must be at least one row of shape ({n},) like the "
                         f"reference's states, got an array of shape {perturbations.shape}")

    gain_at = (lambda t: None) if policy is None else policy.gain_at
    stage = cache(lambda t: (ref.interpolate(t), gain_at(t), b_fn(t)))
    weights = cache(lambda t: (q_fn(t), v_fn(t)))

    def control(t: float, x: np.ndarray) -> np.ndarray:
        x_ref, gain, b_t = stage(t)
        return np.zeros(b_t.shape[1]) if gain is None else -(gain @ (x - x_ref))

    def forcing(t: float, x: np.ndarray) -> np.ndarray:
        return stage(t)[2] @ control(t, x)

    # each rollout's running cost is summed as its samples arrive, over the
    # grid intervals `simulate` would record, each weighted at its start
    def sample(ids, t, X) -> None:
        nonlocal cost, last
        if last is not None:  # close the interval the segment's previous sample opened
            t_a, x = last
            q_t, v_t = weights(t_a)
            dx = x - stage(t_a)[0]
            u = control(t_a, x)
            cost += (t - t_a) * (dx @ q_t @ dx + u @ v_t @ u)
        last = t, X[0]

    def event(ids, idx, t_e, x_minus, x_plus, residual, transversality) -> None:
        nonlocal last
        if t_e[0] > last[0]:  # else the event takes the latest sample's place: no interval
            sample(ids, float(t_e[0]), x_minus)
        last = None  # the next segment opens at its first sample, (t_e, x_plus)

    mode0 = ref.segments[0].mode
    csys = _controlled_system(sys, forcing)
    P_T = np.asarray(P_terminal, dtype=float)
    total = 0.0
    for row in perturbations:
        cost, last = 0.0, None
        X_f, _ = _rollout(_ONE_ROW, csys, mode0, t0, (ref.x_start + row)[None], t1, opts,
                          sample, event)
        dx_end = X_f[0] - ref.x_end
        total += cost + float(dx_end @ P_T @ dx_end)
    return total / perturbations.shape[0]
