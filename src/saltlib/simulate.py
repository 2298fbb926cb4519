"""Fixed-step RK4 simulation of hybrid systems with event localization.

One engine integrates a stack of rows, each a state in its own mode. It
calls user code in two ways, each through one `call`: `_ONE_ROW` on a row's
1-D state with a float time, as `simulate`, `integrate_segment` and
`locate_event` use it, and `_STACK` once on the whole (N, n) stack, with a
float time while the rows share one, else an (N,) array. The batched callers
(`oracles.monte_carlo_covariance`, `oracles.numeric_saltation` and
propagation's linearization) go through `_stack_or_each_row`, the one place
that chooses: the stack, or one row at a time where a callable does not
broadcast over a leading row axis. The engine builds no trajectory: a caller
observes a rollout through two optional hooks, one on each sample `simulate`
records (the grid samples, and (t_e, x_minus) where an event is later than
the last of them) and one on each located event, which may end its rows
there (`_rollout`).
`_Recorder` records one row for `simulate` and `integrate_segment`.

The stack runs in consecutive blocks of rows, each block to its end before
the next starts. A block holds at most `_BLOCK_BYTES` (128 KiB) of states,
rows x row width x 8 bytes, rounded down to a power of two rows: 4 096
rows of 4 floats. Rows are independent, so a block does each row's
arithmetic as the whole stack would (matrix-product callables aside, which
round by batch; see the README). Blocks bound the working set, and the
budget was chosen by minor page faults, not by cache size: arrays the size
of a block are most likely mapped afresh by malloc (glibc's mmap threshold
starts at 128 KiB) and faulted in again. A cold 100 000-row ball-drop
`monte_carlo_covariance` call took 2.08 million faults as one stack and
about 5 000 in blocks, and a warm 20 000-row call 164 000 with 256 KiB
blocks (BENCH_row_blocks.json).
If any block fails with _NotBroadcast, every row runs one at a time.

`rk4_step` runs a stack of at least `_RK4_BUFFER_BYTES` (16 KiB) of states
in four buffers of its own, its three stage states and its weighted sum,
in place of the plain expression's thirteen temporaries, with the same
roundings (`_rk4_buffered`). Below that size the plain expression
is faster, so a one-row state and small stacks such as `numeric_saltation`'s
2n + 1 rows keep it. The buffers make a warm 20 000-row ball-drop call
about 15% faster and cut its minor page faults from about 3 300 to about
2 300 (BENCH_rk4_buffers.json), but the faults are not where the time
goes: with glibc's trim and mmap thresholds raised, both forms take almost
no faults per call and keep the same gap.

Every segment (and every `_flow_rows` call) starts from a column-major
stack, so each state coordinate is contiguous, and numpy carries the layout
of the field's results into the RK4 arithmetic: an elementwise field keeps
the stack column-major, while a field built on a matrix product returns
row-major results and turns the stack row-major from its first RK4 stage.
Brackets and a mode's incoming rows are joined column-major; compactions
copy a column-major stack once, column by column. Callables get the same
(N, n) shape and values in any layout and must not rely on C-contiguity.
Every row follows the same rules:

- Grid. A row steps t + step from the start of its segment, shortens the
  last step to land on t_max, and restarts its grid at every event.
- Arming. A guard is armed once its value is strictly on its in-domain side
  (positive, or the locked side for two-sided guards); it fires when the
  armed value crosses to the other side at a grid sample. Starting a
  segment exactly on a guard surface therefore never retriggers the event
  that produced it, which implements post-event re-arming without timers.
- Bisection. A crossing is refined inside the step that detected it, from
  the guard values the scan found at the step's ends; the state at a
  midpoint is one RK4 step from the step's left end. Each row stops once its
  bracket is at most tol_t wide, or its midpoint rounds to an end (where
  ulp(t) > tol_t), and then needs |g| <= tol_g.
- Errors. A row raises EventLocalizationError, DegenerateGuard,
  TangentialEvent, AmbiguousEvent (two crossings within tol_t) and
  ZenoSuspected (more than max_events) under the same conditions whether it
  runs alone or in a batch; a batch raises the first such error of its
  earliest failing block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import fd
from .errors import (
    AmbiguousEvent,
    DegenerateGuard,
    EventLocalizationError,
    NonFiniteState,
    TangentialEvent,
    ZenoSuspected,
)
from .system import GuardSpec, HybridSystem, ModeId, validate_system
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


def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float, x: np.ndarray, h: float,
             k1: Optional[np.ndarray] = None) -> np.ndarray:
    """One classical Runge-Kutta step of size h; k1 is f(t, x) if already known.

    For a stack of rows x (N, n), t and h may also be (N,) arrays. A float64
    stack of at least _RK4_BUFFER_BYTES does the same arithmetic, bit for
    bit, in four buffers (`_rk4_buffered`).
    """
    hx = h[:, None] if isinstance(h, np.ndarray) else h
    if k1 is None:
        k1 = f(t, x)
    if (isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == np.float64
            and x.nbytes >= _RK4_BUFFER_BYTES):
        return _rk4_buffered(f, t, x, h, hx, k1)
    k2 = f(t + 0.5 * h, x + (0.5 * hx) * k1)
    k3 = f(t + 0.5 * h, x + (0.5 * hx) * k2)
    k4 = f(t + h, x + hx * k3)
    return x + (hx / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _vote(a) -> str:
    """The layout an (N, n) operand asks numpy to give an elementwise
    result: 'F' if it steps fastest along its rows, 'C' along its columns,
    '' (none) if it is broadcast along an axis or an axis has length 1."""
    a = np.asarray(a)
    if a.ndim != 2 or 1 in a.shape:
        return ""
    flags = a.flags
    if flags.f_contiguous or flags.c_contiguous:  # most arrays: no strides to compare
        return "F" if flags.f_contiguous else "C"
    s0, s1 = a.strides
    return "" if not (s0 and s1) else "F" if abs(s0) < abs(s1) else "C"


def _empty(shape, column_major: bool) -> np.ndarray:
    return np.empty(shape, order="F" if column_major else "C")


def _stage(x: np.ndarray, c, k, column_major: bool) -> np.ndarray:
    """The stage state x + c k in a buffer of its own, which the field
    alone holds once the caller has passed it on."""
    s = np.multiply(c, k, out=_empty(x.shape, column_major))
    return np.add(x, s, out=s)


def _rk4_buffered(f, t, x: np.ndarray, h, hx, k1) -> np.ndarray:
    """rk4_step on a float64 stack, operation for operation, in four
    buffers in place of the expression's thirteen temporaries: a stage state
    is x + (c h) k, the sum ((k1 + 2 k2) + 2 k3) + k4, then x + (h/6) sum.

    IEEE + and * are commutative and each buffer holds the value of the
    subexpression it replaces, so the result is bit-identical. Each buffer
    also takes that subexpression's layout: numpy makes an elementwise result
    column-major only if some operand asks for it and none asks for row-major
    (`_vote`), and a result asks for its own layout.

    Each stage state is written in full before the field sees it and never
    after, and the accumulator, which the step returns, is never passed to
    the field: a field may return its input or a view of it.
    """
    x_ok = _vote(x) != "C"  # x does not ask for row-major: x + (c h) k is laid out as k asks
    v1 = _vote(k1)
    k2 = f(t + 0.5 * h, _stage(x, 0.5 * hx, k1, x_ok and v1 == "F"))
    v2 = _vote(k2)
    k3 = f(t + 0.5 * h, _stage(x, 0.5 * hx, k2, x_ok and v2 == "F"))
    v3 = _vote(k3)
    acc_f = v1 != "C" and v2 == "F"  # the layout of k1 + 2 k2
    acc = np.multiply(2.0, k2, out=_empty(x.shape, acc_f))
    np.add(k1, acc, out=acc)
    # 2 k3 goes into the k4 stage's buffer before that stage is written
    s4 = np.multiply(2.0, k3, out=_empty(x.shape, x_ok and v3 == "F"))
    np.add(acc, s4, out=acc)
    np.multiply(hx, k3, out=s4)
    k4 = f(t + h, np.add(x, s4, out=s4))
    np.add(acc, k4, out=acc)
    np.multiply(hx / 6.0, acc, out=acc)
    np.add(x, acc, out=acc)
    if acc_f and not (x_ok and v3 == "F" and _vote(k4) != "C"):
        return np.array(acc, order="C")  # k3, k4 or x turned the plain sum row-major
    return acc


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
    return _flow_rows(_ONE_ROW, f, t0, np.asarray(x0, dtype=float)[None], t1, step)[0]


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


# ---------------------------------------------------------------------------
# how the engine calls user code: on one row's 1-D state, or on a stack


def _float(t, row: int = 0) -> float:
    return float(t[row]) if isinstance(t, np.ndarray) else float(t)


class _NotBroadcast(ValueError):
    """A field, guard or reset failed on a stack of rows; one row at a time may work."""


class _OneRow:
    """Calls fields, Jacobians, guards and resets on the only row of a (1, n)
    stack, as a 1-D state with a float time, so callables need not broadcast."""

    hint = ""
    error = ValueError

    def first_stage(self, f, t, X):
        """k1 = f(t, x) in the form `rk4` takes it."""
        return f(_float(t), X[0])

    def rk4(self, f, t, X, h, k1=None):
        return rk4_step(f, _float(t), X[0], _float(h), k1)[None]

    def call(self, fn, t, X, what):
        return np.asarray(fn(_float(t), X[0]), dtype=float)[None]

    def guards(self, guards, t, X):
        t, x = _float(t), X[0]
        return np.array([[gd.value(t, x) for gd in guards]])

    def slope(self, gd, f, t, X):
        t, x = _float(t), X[0]
        grad = gd.grad_x(t, x)
        deriv = gd.grad_t(t, x) + float(grad @ np.asarray(f(t, x), dtype=float))
        return np.array([np.linalg.norm(grad)]), np.array([deriv])

    def agree(self, fn, t, X, out, what, row=0):
        """The result of a one-row call is its own row 0: nothing to check."""


class _Stack:
    """Calls fields, Jacobians, guards and resets once on a whole (N, n) stack."""

    hint = ("; a batched rollout needs fields, guards and resets that broadcast "
            "over a leading row axis")
    error = _NotBroadcast

    def first_stage(self, f, t, X):
        """k1 = f(t, X) in the form `rk4` takes it."""
        return f(t, X)

    def rk4(self, f, t, X, h, k1=None):
        return rk4_step(f, t, X, h, k1)

    def call(self, fn, t, X, what):
        """fn(t, X) on the whole stack; any exception becomes _NotBroadcast."""
        try:
            return np.asarray(fn(t, X), dtype=float)
        except Exception as exc:
            raise _NotBroadcast(f"{what} does not broadcast{self.hint}") from exc

    def guards(self, guards, t, X):
        def values(t, X):
            vals = np.empty((X.shape[0], len(guards)))
            for j, gd in enumerate(guards):
                vals[:, j] = gd.g(t, X)
            return vals

        return self.call(values, t, X, "guard")

    def slope(self, gd, f, t, X):
        def grad(t, X):
            return np.broadcast_to(gd.jac_x(t, X) if gd.jac_x is not None else fd.jac_x(gd.g, t, X), X.shape)

        def grad_t(t, X):
            return np.broadcast_to(gd.jac_t(t, X) if gd.jac_t is not None else fd.diff_t(gd.g, t, X), X.shape[:1])

        g_x = self.call(grad, t, X, "guard gradient")
        deriv = self.call(grad_t, t, X, "guard time derivative") + np.einsum(
            "ij,ij->i", g_x, self.call(f, t, X, "field"))
        return np.linalg.norm(g_x, axis=1), deriv

    def agree(self, fn, t, X, out, what, row=0):
        """Raise _NotBroadcast unless fn on one row alone (row 0 by default),
        as a 1-D state with a float time, gives that row of its stacked
        result `out`.

        A callable written for one state can return a wrong (N, n) array
        without raising when N == n (x @ A.T read as A @ x). Rounding of a
        product inside a larger matrix differs by a few ulp, far below the
        tolerance; NaN never trips it, so non-finite states reach their own
        check.
        """
        one = np.asarray(fn(_float(t, row), X[row]), dtype=float)
        if one.shape != out.shape[1:] or (
                np.abs(one - out[row]).max() > 1e-9 * max(np.abs(one).max(), np.abs(out[row]).max())):
            raise _NotBroadcast(f"{what} on a stack disagrees with its one-row call{self.hint}")


_ONE_ROW = _OneRow()
_STACK = _Stack()


# the states of one block of rows, in bytes; the module docstring says why this size
_BLOCK_BYTES = 128 * 1024
# the smallest stack of states, in bytes, that rk4_step runs in its own
# buffers: below it the plain expression is faster (the module docstring)
_RK4_BUFFER_BYTES = 16 * 1024


def _block_rows(width: int) -> int:
    """Rows of `width` floats in one block: the largest power of two whose
    block fits in _BLOCK_BYTES, and at least 1."""
    return 1 << max(0, (_BLOCK_BYTES // (8 * width)).bit_length() - 1)


def _stack_or_each_row(run: Callable, n: int, width: int) -> list:
    """[run(rows, s)] on the stack of n rows of `width` floats, one call per
    block of consecutive rows (s = slice(a, b)), or one call per row
    (s = slice(i, i + 1)) when a callable does not broadcast on any block:
    the one place that chooses between the two. An error other than
    _NotBroadcast leaves from the earliest block that raises it."""
    block = _block_rows(width)
    try:
        return [run(_STACK, slice(a, a + block)) for a in range(0, max(n, 1), block)]
    except _NotBroadcast:
        return [run(_ONE_ROW, slice(i, i + 1)) for i in range(n)]


# ---------------------------------------------------------------------------
# the engine


def _take(t, mask):
    """Times of the masked rows: a shared float time stays a float."""
    return t[mask] if isinstance(t, np.ndarray) else t


def _rows(X: np.ndarray, sel) -> np.ndarray:
    """The rows `sel` (a mask, increasing indices or a slice) of a stack, in
    its layout. All rows are X itself; a column-major stack is otherwise
    copied once, one column at a time."""
    if isinstance(sel, slice):
        return X[sel]
    if sel.all() if sel.dtype == bool else sel.size == X.shape[0]:
        return X
    if X.flags.c_contiguous:
        return X[sel]
    cols = X.T
    return (cols.compress(sel, axis=1) if sel.dtype == bool else cols.take(sel, axis=1)).T


def _join(parts: list) -> np.ndarray:
    """Per-row arrays joined along their rows; stacks column-major."""
    return np.concatenate([p.T for p in parts], axis=-1).T


def _shared(t):
    """Per-row times as one float time if they are all equal."""
    return float(t[0]) if isinstance(t, np.ndarray) and t.size and (t == t[0]).all() else t


def _per_row(t, n: int) -> np.ndarray:
    """A shared float time (or flag) as one value per row."""
    return t if isinstance(t, np.ndarray) else np.full(n, t)


def _any(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _first(mask: np.ndarray) -> int:
    """Index of the first row a check failed on: the row an error reports."""
    return int(np.flatnonzero(mask)[0])


def _arm(vals: np.ndarray, two_sided: np.ndarray) -> np.ndarray:
    """Armed side of each guard value: +1, -1 (two-sided guards only) or 0 (disarmed)."""
    return np.where(vals > 0.0, 1.0, np.where(two_sided & (vals < 0.0), -1.0, 0.0))


class _Brackets(NamedTuple):
    """Rows whose armed guards crossed in their last step.

    ids are the rows' ids as the segment's caller gave them; g_lo and g_hi
    hold, per outgoing transition, the guard values the scan found at the
    bracket's ends; sign holds the crossing sign (+1 or -1) or 0 where that
    guard did not cross.
    """

    ids: np.ndarray
    t_lo: np.ndarray
    x_lo: np.ndarray
    g_lo: np.ndarray
    t_hi: np.ndarray
    x_hi: np.ndarray
    g_hi: np.ndarray
    sign: np.ndarray


def _check_field(rows, f, t, X: np.ndarray, what: str, out: np.ndarray,
                 dim: Optional[int] = None) -> None:
    """Check a field's (or a reset's) result `out` on the rows X: one state
    of `dim` coordinates (by default X's own) per row, and on a stack its
    row 0 against a one-row call."""
    dim = X.shape[1] if dim is None else dim
    if out.shape != (X.shape[0], dim):
        raise rows.error(f"{what} returned shape {out.shape[1:]}, expected ({dim},){rows.hint}")
    rows.agree(f, t, X, out, what)


def _check_jacobian(rows, jac, t, X: np.ndarray, what: str, out: np.ndarray) -> None:
    """Check a Jacobian's result `out` on the rows X: one (n, n) matrix per
    row, or on a stack one (n, n) matrix for all rows.

    On a stack, row 0 is compared with a one-row call, and a single matrix
    also with a one-row call on the last row: a Jacobian written for one
    state, such as J0 - cos(x[0]) * E, returns one (n, n) matrix on a stack
    without raising.
    """
    n_rows, n = X.shape
    if out.shape == (n, n):  # a one-row call's result is (1, n, n)
        out = np.broadcast_to(out, (n_rows, n, n))
        if n_rows > 1:
            rows.agree(jac, t, X, out, what, row=n_rows - 1)
    elif out.shape != (n_rows, n, n):
        raise rows.error(f"{what} returned shape {out.shape[1:]}, expected ({n}, {n}){rows.hint}")
    rows.agree(jac, t, X, out, what)


def _segment(rows, sys: HybridSystem, mode: ModeId, ids: np.ndarray, t, X: np.ndarray,
             t_max: float, step: float, sample: Optional[Callable] = None):
    """Integrate rows in one mode until each reaches t_max or an armed guard crosses.

    ids are the rows' ids, by which the results and `sample` name them; t is
    the rows' shared float time or an array of their own times. The stack
    starts column-major; the field's results set its layout from the first
    RK4 stage on. `sample(ids, t, X)` sees every grid sample of the rows
    still running, up to their brackets' left ends, with t a float while the
    rows share one; `_rollout` adds their events' pre-event samples.
    Returns a list of (ids, states) of the rows that reached t_max and the
    _Brackets of the rows that crossed, or None.
    """
    field = sys.modes[mode]
    if X.shape[1:] != (field.dim,):
        raise ValueError(f"x0 shape {X.shape[1:]} does not match mode {mode} dim {field.dim}")
    if not np.isfinite(X).all():
        raise NonFiniteState(f"non-finite initial state in mode {mode} at t={t}")
    if _any(t_max < t):
        raise ValueError(f"t_max={t_max} precedes t0={t}")
    f, what = field.f, f"mode {mode} field"
    X = np.asfortranarray(X)
    _check_field(rows, f, t, X, what, rows.call(f, t, X, what))

    guards = [tr.guard for _, tr in sys.outgoing(mode)]
    two_sided = np.array([gd.two_sided for gd in guards], dtype=bool)
    vals = rows.guards(guards, t, X)
    armed = _arm(vals, two_sided)
    all_armed = armed.all()
    ended, crossed = [], []
    while ids.size:
        if sample is not None:
            sample(ids, t, X)
        done = t >= t_max
        if _any(done):
            done = _per_row(done, ids.size)
            ended.append((ids[done], _rows(X, done)))
            keep = ~done
            ids, X, vals, armed, t = ids[keep], _rows(X, keep), vals[keep], armed[keep], _take(t, keep)
            if not ids.size:
                break

        t_next = t + step
        last = t_next >= t_max
        if not isinstance(t, np.ndarray):
            h, t_next = (t_max - t, t_max) if last else (step, t_next)
        elif last.any():
            h, t_next = np.where(last, t_max - t, step), np.where(last, t_max, t_next)
        else:
            h = step
        X_next = rows.rk4(f, t, X, h)
        if not np.isfinite(X_next).all():
            raise NonFiniteState(f"non-finite state in mode {mode} at t={t_next}")

        vals_next = rows.guards(guards, t_next, X_next)
        fired = armed * vals_next <= 0.0
        if not all_armed:
            fired &= armed != 0.0
            armed = np.where(armed == 0.0, _arm(vals_next, two_sided), armed)
            all_armed = armed.all()
        if fired.any():
            hit = fired.any(axis=1)
            crossed.append((ids[hit], _per_row(t, hit.size)[hit], _rows(X, hit), vals[hit],
                            _per_row(t_next, hit.size)[hit], _rows(X_next, hit), vals_next[hit],
                            armed[hit] * fired[hit]))
            keep = ~hit
            ids, armed, t_next = ids[keep], armed[keep], _take(t_next, keep)
            X_next, vals_next = _rows(X_next, keep), vals_next[keep]
        t, X, vals = t_next, X_next, vals_next

    if not crossed:
        return ended, None
    return ended, _Brackets(*(_join(parts) for parts in zip(*crossed)))


def _locate(rows, f, guard: GuardSpec, sign: np.ndarray, t_a: np.ndarray, x_a: np.ndarray,
            t_b: np.ndarray, x_b: np.ndarray, opts: SimOptions, g_ab: Optional[tuple] = None):
    """Refine each row's crossing of `guard` inside its bracket [t_a, t_b].

    g_ab = (g_a, g_b) are the guard's values at the bracket's ends as the
    scan found them (evaluated here if not given): a guard whose last bits
    depend on the batch could flip the sign of a value near zero if it were
    evaluated again on the crossing rows alone. The state at a midpoint is
    one RK4 step from the left end (t_a, x_a), all of whose steps share
    their first stage f(t_a, x_a), computed once; each row stops once its own
    bracket is at most tol_t wide or its midpoint rounds to one of its ends,
    and keeps the end nearer the surface.
    Returns (t_event, x_minus, guard_residual, transversality) per row;
    raises EventLocalizationError, NonFiniteState, DegenerateGuard or
    TangentialEvent per the located-event checks.
    """
    if g_ab is None:
        g_ab = rows.guards([guard], t_a, x_a)[:, 0], rows.guards([guard], t_b, x_b)[:, 0]
    t_lo, t_hi = t_a, t_b
    g_lo, g_hi = sign * g_ab[0], sign * g_ab[1]
    bad = (g_lo <= 0.0) | (g_hi > 0.0)
    if bad.any():
        r = _first(bad)
        raise EventLocalizationError(
            f"bracket [{t_lo[r]}, {t_hi[r]}] does not straddle the guard "
            f"(g_lo={g_lo[r]}, g_hi={g_hi[r]})"
        )

    moved_lo = moved_hi = np.zeros(t_a.shape, dtype=bool)
    k1 = rows.first_stage(f, t_a, x_a)  # every midpoint's RK4 step starts with it
    for _ in range(200):
        t_mid = 0.5 * (t_lo + t_hi)
        active = (t_hi - t_lo > opts.tol_t) & (t_lo < t_mid) & (t_mid < t_hi)
        if not active.any():
            break
        x_mid = rows.rk4(f, t_a, x_a, t_mid - t_a, k1)
        if not np.isfinite(x_mid).all():
            r = _first(~np.isfinite(x_mid).all(axis=1))
            raise NonFiniteState(f"non-finite state during localization at t={t_mid[r]}")
        g_mid = sign * rows.guards([guard], t_mid, x_mid)[:, 0]
        up = active & (g_mid > 0.0)
        down = active ^ up
        t_lo, g_lo, moved_lo = np.where(up, t_mid, t_lo), np.where(up, g_mid, g_lo), moved_lo | up
        t_hi, g_hi, moved_hi = np.where(down, t_mid, t_hi), np.where(down, g_mid, g_hi), moved_hi | down

    pick_hi = np.abs(g_hi) <= np.abs(g_lo)
    t_e = np.where(pick_hi, t_hi, t_lo)
    # an end that moved is a midpoint: its state is the same one RK4 step
    # from (t_a, x_a) on the same stack, so it has the same bits
    x_e = np.where(pick_hi[:, None], x_b, x_a)
    moved = np.where(pick_hi, moved_hi, moved_lo)
    if moved.any():
        x_e = np.where(moved[:, None], rows.rk4(f, t_a, x_a, t_e - t_a, k1), x_e)
    residual = np.abs(np.where(pick_hi, g_hi, g_lo))
    bad = residual > opts.tol_g
    if bad.any():
        r = _first(bad)
        msg = f"guard residual {residual[r]:.3e} above tol_g={opts.tol_g} after bisection at t={t_e[r]}"
        width = t_hi[r] - t_lo[r]
        if width > opts.tol_t:  # only adjacent floats stop a bracket this wide
            ulp = math.ulp(t_e[r])
            msg += (f": the bracket [{t_lo[r]}, {t_hi[r]}] is two adjacent floats, "
                    f"ulp(t)={ulp:.3e} > tol_t={opts.tol_t}, and one ulp moves the guard by "
                    f"about {abs(g_hi[r] - g_lo[r]) / width * ulp:.3e}, the order of the "
                    f"smallest reachable residual")
        raise EventLocalizationError(msg)

    grad_norm, deriv = rows.slope(guard, f, t_e, x_e)
    bad = grad_norm < opts.eps_grad
    if bad.any():
        raise DegenerateGuard(f"guard gradient vanishes at located event t={t_e[_first(bad)]}")
    bad = sign * deriv >= -opts.eps_trans
    if bad.any():
        r = _first(bad)
        raise TangentialEvent(
            f"guard derivative {deriv[r]:.3e} violates transversality at t={t_e[r]}",
            t=float(t_e[r]),
            derivative=float(deriv[r]),
        )
    return t_e, x_e, residual, deriv


def _resolve(rows, sys: HybridSystem, mode: ModeId, br: _Brackets, opts: SimOptions):
    """Localize every crossing of every bracket; keep each row's earliest.

    Returns per row (outgoing index, t_event, x_minus, guard_residual,
    transversality). A lower transition index wins an exact tie; crossings
    within tol_t of each other raise AmbiguousEvent.
    """
    outs = sys.outgoing(mode)
    f = sys.modes[mode].f
    t_all = np.full(br.sign.shape, np.inf)
    j_e = np.zeros(br.ids.size, dtype=np.int64)
    t_e = np.full(br.ids.size, np.inf)
    x_e = np.empty_like(br.x_lo)
    res = np.empty(br.ids.size)
    deriv = np.empty(br.ids.size)
    for j, (_, tr) in enumerate(outs):
        sub = np.flatnonzero(br.sign[:, j])
        if not sub.size:
            continue
        t_j, x_j, res_j, deriv_j = _locate(rows, f, tr.guard, br.sign[sub, j],
                                           br.t_lo[sub], _rows(br.x_lo, sub),
                                           br.t_hi[sub], _rows(br.x_hi, sub), opts,
                                           (br.g_lo[sub, j], br.g_hi[sub, j]))
        t_all[sub, j] = t_j
        first = t_j < t_e[sub]
        win = sub[first]
        j_e[win], t_e[win], x_e[win] = j, t_j[first], _rows(x_j, first)
        res[win], deriv[win] = res_j[first], deriv_j[first]

    if len(outs) > 1:
        t_sorted = np.sort(t_all, axis=1)
        tie = t_sorted[:, 1] - t_sorted[:, 0] <= opts.tol_t
        if tie.any():
            r = _first(tie)
            t0 = t_sorted[r, 0]
            order = sorted(range(len(outs)), key=lambda j: (t_all[r, j], outs[j][0]))
            tied = [outs[j][0] for j in order if t_all[r, j] - t0 <= opts.tol_t]
            raise AmbiguousEvent(
                f"guards of transitions {tied} cross within tol_t at t={t0}",
                t=float(t0),
                transition_indices=tied,
            )
    return j_e, t_e, x_e, res, deriv


def _rollout(rows, sys: HybridSystem, mode0: ModeId, t0: float, X0: np.ndarray, t_max: float,
             opts: SimOptions, sample: Optional[Callable] = None, event: Optional[Callable] = None):
    """Roll every row of X0 from mode0 at t0 to t_max.

    The rows that enter a mode together are integrated, localized and reset
    together, one transition at a time. Returns the final states and, per
    row, its event sequence coded in base len(transitions) + 1. A row's id is
    its index in X0. Two optional hooks observe the run: `sample(ids, t, X)`
    sees each segment's grid samples as `_segment` gives them and, in one
    call once its brackets are localized, (t_event, x_minus) of every row
    whose event is later than its last grid sample; a row whose event was
    located onto that sample gets none, as its x_minus has that sample's
    bits. So `sample` sees what `simulate` records. `event(ids, transition
    index, t_event, x_minus, x_plus, guard_residual, transversality)` sees
    each group of rows that fired one transition, after its reset. A true
    result from `event` ends those rows there: their final states are left
    unset and their codes do not count that event.
    """
    diags = validate_system(sys)
    if diags:
        raise ValueError("invalid system: " + "; ".join(diags))
    if t_max < t0:
        raise ValueError(f"t_span end {t_max} precedes start {t0}")

    n_rows = X0.shape[0]
    base = len(sys.transitions) + 1
    code = np.zeros(n_rows, dtype=np.int64)
    n_events = np.zeros(n_rows, dtype=np.int64)
    finals = []
    pending = {mode0: [(np.arange(n_rows), t0, X0)]}
    while pending:
        mode = min(pending)
        parts = pending.pop(mode)
        ids, t, X = parts[0]
        if len(parts) > 1:
            ids = np.concatenate([p[0] for p in parts])
            X = _join([p[2] for p in parts])
            t = np.concatenate([_per_row(p[1], p[0].size) for p in parts])
        ended, br = _segment(rows, sys, mode, ids, _shared(t), X, t_max, opts.step, sample)
        finals += ended
        if br is None:
            continue

        if (n_events[br.ids] >= opts.max_events).any():
            # checked before localization: runaway detection must not depend
            # on the next event (possibly degenerate) localizing cleanly
            raise ZenoSuspected(
                f"event count exceeded max_events={opts.max_events} near t={br.t_lo.min()}"
            )
        j_e, t_e, x_minus, res, deriv = _resolve(rows, sys, mode, br, opts)
        later = t_e > br.t_lo  # an event after the last grid sample is one more sample
        if sample is not None and later.any():
            sample(br.ids[later], _shared(t_e[later]), _rows(x_minus, later))

        for j, (idx, tr) in enumerate(sys.outgoing(mode)):
            sub = np.flatnonzero(j_e == j)
            if not sub.size:
                continue
            t_sub, x_sub = t_e[sub], _rows(x_minus, sub)
            what = f"reset of transition {idx}"
            x_plus = rows.call(tr.reset.r, t_sub, x_sub, what)
            _check_field(rows, tr.reset.r, t_sub, x_sub, what, x_plus, sys.dim(tr.to_mode))
            if not np.isfinite(x_plus).all():
                r = _first(~np.isfinite(x_plus).all(axis=1))
                raise NonFiniteState(f"non-finite reset state at t={t_sub[r]}")
            r = br.ids[sub]
            if event is not None and event(r, idx, t_sub, x_sub, x_plus, res[sub], deriv[sub]):
                continue
            code[r] = code[r] * base + (idx + 1)
            n_events[r] += 1
            # a row whose event is at t_max enters the new mode for one sample
            pending.setdefault(tr.to_mode, []).append((r, t_sub, x_plus))

    X_f = np.empty((n_rows, finals[-1][1].shape[1] if finals else X0.shape[1]))
    for r, x in finals:
        X_f[r] = x
    return X_f, code


def _substep_groups(t0, t1, n_rows: int, step: float) -> list:
    """(m, rows) per group of rows that take m RK4 substeps from t0 to t1,
    by increasing m; t0 and t1 are shared floats or (n_rows,) arrays, and
    rows is a row mask, or slice(None) when the group holds every row.

    Rows with the same substep count step together, each with its own h, so
    a row's substeps and times do not depend on the other rows. A row whose
    span is zero takes no step and is in no group.
    """
    t0 = t0.tolist() if isinstance(t0, np.ndarray) else [t0] * n_rows
    t1 = t1.tolist() if isinstance(t1, np.ndarray) else [t1] * n_rows
    n_sub = np.array([_substeps(a, b, step) if a != b else 0 for a, b in zip(t0, t1)], dtype=int)
    counts = sorted(set(n_sub.tolist()) - {0})
    if len(counts) == 1 and n_sub.min() > 0:
        return [(counts[0], slice(None))]
    return [(m, n_sub == m) for m in counts]


def _rk4_steps(rk4, f, t_a, x: np.ndarray, t_b, m: int) -> np.ndarray:
    """m equal RK4 steps of rk4(f, t, x, h) from t_a to t_b (floats or per-row arrays)."""
    h = (t_b - t_a) / m
    t = t_a
    for k in range(m):
        x = rk4(f, t, x, h)
        t = t_a + (k + 1) * h
    return x


def _flow_rows(rows, f, t0, X: np.ndarray, t1: float, step: float) -> np.ndarray:
    """flow_to on each row of a stack, from the rows' shared t0 or their own
    (N,) start times to t1."""
    X = np.array(X, dtype=float, order="F")
    _check_field(rows, f, t0, X, "field", rows.call(f, t0, X, "field"))
    for m, sel in _substep_groups(t0, t1, X.shape[0], step):
        X[sel] = _rk4_steps(rows.rk4, f, _take(t0, sel), _rows(X, sel), t1, m)
    return X


# ---------------------------------------------------------------------------
# the one-row case


class _Recorder:
    """The sample and event hooks that record a one-row rollout as a
    HybridTrajectory: each segment's mode and samples, and each event."""

    def __init__(self, sys: HybridSystem, mode: ModeId):
        self.sys = sys
        self.grids, self.events = [(mode, [], [])], []

    def sample(self, ids, t, X):
        self.grids[-1][1].append(t)
        self.grids[-1][2].append(X[0])

    def event(self, ids, idx, t_e, x_minus, x_plus, residual, transversality):
        self.events.append(EventRecord(
            t_event=float(t_e[0]),
            transition_index=idx,
            x_minus=np.array(x_minus[0], copy=True),
            x_plus=np.array(x_plus[0], copy=True),
            guard_residual=float(residual[0]),
            transversality=float(transversality[0]),
        ))
        self.grids.append((self.sys.transitions[idx].to_mode, [], []))

    def trajectory(self) -> HybridTrajectory:
        return HybridTrajectory(
            segments=tuple(Segment(mode=mode, times=np.asarray(times, dtype=float),
                                   states=np.stack(states, axis=0)) for mode, times, states in self.grids),
            events=tuple(self.events),
        )


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
    rec = _Recorder(sys, mode)
    _, br = _segment(_ONE_ROW, sys, mode, np.arange(1), float(t0), np.asarray(x0, dtype=float)[None],
                     t_max, step, rec.sample)
    bracket = None
    if br is not None:
        outs = sys.outgoing(mode)
        bracket = GuardBracket(
            float(br.t_lo[0]), br.x_lo[0].copy(), float(br.t_hi[0]), br.x_hi[0].copy(),
            tuple((outs[j][0], int(s)) for j, s in enumerate(br.sign[0]) if s),
        )
    (seg,) = rec.trajectory().segments
    return seg.times, seg.states, bracket


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
    t_e, x_e, _, _ = _locate(
        _ONE_ROW, sys.modes[mode].f, guard, np.array([float(sign)]),
        np.array([bracket.t_lo], dtype=float), np.asarray(bracket.x_lo, dtype=float)[None],
        np.array([bracket.t_hi], dtype=float), np.asarray(bracket.x_hi, dtype=float)[None],
        SimOptions(tol_g=tol_g, tol_t=tol_t),
    )
    return float(t_e[0]), x_e[0]


def simulate(
    sys: HybridSystem,
    mode0: ModeId,
    x0: np.ndarray,
    t_span: tuple[float, float],
    options: Optional[SimOptions] = None,
) -> HybridTrajectory:
    """Run a hybrid execution over t_span starting in mode0 at state x0."""
    rec = _Recorder(sys, mode0)
    try:
        _rollout(_ONE_ROW, sys, mode0, float(t_span[0]), np.asarray(x0, dtype=float)[None],
                 float(t_span[1]), options or SimOptions(), rec.sample, rec.event)
    except ZenoSuspected as exc:
        exc.trajectory = rec.trajectory()
        raise
    return rec.trajectory()
