"""Hybrid dynamical system description.

A hybrid system is a set of modes, each with a smooth vector field on its own
state space, plus guarded transitions between modes. Guards trigger when their
value crosses zero from the positive side (g > 0 is the domain interior);
resets map the pre-event state into the target mode's state space.

Every evaluator takes (t, x). The scalar paths (`simulate`, saltation,
`variational_flow`) pass a 1-D float state and a float time. The batched
paths pass a stack of rows: `oracles.monte_carlo_covariance` and
`oracles.numeric_saltation` an (N, n) stack, with a float time while the rows
share one and an (N,) array of times otherwise, and propagation's
linearization a mode's field and Jacobian the (K, n) stack of a segment's
interval starts with (K,) times; a Jacobian then returns (K, n, n), or one
(n, n) matrix for all rows. Each segment of a batched rollout starts from
a column-major stack, so a callable must not rely on C-contiguity. A
callable that does not broadcast over the leading row axis makes the engine's one driver run these paths one row (or
interval) at a time (README "Simulation semantics").
Analytic Jacobians are optional on every spec; central finite differences
fill in when absent, on 1-D states and on stacks alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import fd

ModeId = int


@dataclass(frozen=True)
class VectorFieldSpec:
    """Smooth dynamics of one mode: xdot = f(t, x) on an n-dimensional chart."""

    dim: int
    f: Callable[[float, np.ndarray], np.ndarray]
    jac_x: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def jacobian(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.jac_x is not None:
            return np.asarray(self.jac_x(t, x), dtype=float)
        return fd.jac_x(self.f, t, x)


def _scalar(v) -> float:
    """A scalar or any one-element array as a float; more elements raise TypeError."""
    try:
        return float(v)
    except TypeError:  # numpy refuses float() of an array with ndim > 0
        a = np.asarray(v, dtype=float)
        return float(a.reshape(()) if a.size == 1 else a)


@dataclass(frozen=True)
class GuardSpec:
    """Scalar event function; the transition fires when g reaches zero.
    On one state, g may return a float or any one-element array.

    two_sided marks guards whose in-domain sign depends on the approach
    direction (e.g. signed tangential velocity): detection then also accepts
    negative-to-nonnegative crossings, and the transversality requirement
    becomes a magnitude bound with sign matching the crossing direction.
    """

    g: Callable[[float, np.ndarray], float]
    jac_x: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    jac_t: Optional[Callable[[float, np.ndarray], float]] = None
    two_sided: bool = False

    def value(self, t: float, x: np.ndarray) -> float:
        return _scalar(self.g(t, x))

    def grad_x(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.jac_x is not None:
            return np.asarray(self.jac_x(t, x), dtype=float).reshape(-1)
        return fd.jac_x(self.g, t, x).reshape(-1)

    def grad_t(self, t: float, x: np.ndarray) -> float:
        if self.jac_t is not None:
            return _scalar(self.jac_t(t, x))
        return _scalar(fd.diff_t(self.g, t, x))


@dataclass(frozen=True)
class ResetSpec:
    """State map applied at the event instant; may change dimension."""

    r: Callable[[float, np.ndarray], np.ndarray]
    jac_x: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    jac_t: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.r(t, x), dtype=float)

    def jacobian_x(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.jac_x is not None:
            return np.asarray(self.jac_x(t, x), dtype=float)
        return fd.jac_x(self.r, t, x)

    def jacobian_t(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.jac_t is not None:
            return np.asarray(self.jac_t(t, x), dtype=float).reshape(-1)
        return np.asarray(fd.diff_t(self.r, t, x), dtype=float).reshape(-1)


@dataclass(frozen=True)
class TransitionSpec:
    """Directed edge of the mode graph with its guard and reset."""

    from_mode: ModeId
    to_mode: ModeId
    guard: GuardSpec
    reset: ResetSpec


@dataclass(frozen=True)
class HybridSystem:
    """Mode set plus guarded transitions.

    mode_names / transition_names are optional labels used by reports and the
    CLI; they carry no semantics.
    """

    modes: tuple[VectorFieldSpec, ...]
    transitions: tuple[TransitionSpec, ...]
    mode_names: Optional[tuple[str, ...]] = None
    transition_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "transitions", tuple(self.transitions))

    def dim(self, mode: ModeId) -> int:
        return self.modes[mode].dim

    def outgoing(self, mode: ModeId) -> list[tuple[int, TransitionSpec]]:
        """Transitions leaving `mode`, with their indices into `transitions`."""
        return [(k, tr) for k, tr in enumerate(self.transitions) if tr.from_mode == mode]

    def mode_label(self, mode: ModeId) -> str:
        if self.mode_names is not None and 0 <= mode < len(self.mode_names):
            return self.mode_names[mode]
        return str(mode)


def validate_system(sys: HybridSystem) -> list[str]:
    """Static structural checks; returns one diagnostic string per violation."""
    diags: list[str] = []
    n_modes = len(sys.modes)
    for i, mode in enumerate(sys.modes):
        if mode.dim <= 0:
            diags.append(f"mode {i}: nonpositive dimension {mode.dim}")
        if not callable(mode.f):
            diags.append(f"mode {i}: vector field is not callable")
    seen: set[tuple[int, int]] = set()
    for k, tr in enumerate(sys.transitions):
        for side, m in (("from", tr.from_mode), ("to", tr.to_mode)):
            if not (0 <= m < n_modes):
                diags.append(f"transition {k}: invalid {side} mode id {m}")
        edge = (tr.from_mode, tr.to_mode)
        if edge in seen:
            diags.append(f"transition {k}: duplicate edge {edge}")
        seen.add(edge)
    if sys.mode_names is not None and len(sys.mode_names) != n_modes:
        diags.append(f"mode_names length {len(sys.mode_names)} != mode count {n_modes}")
    if sys.transition_names is not None and len(sys.transition_names) != len(sys.transitions):
        diags.append(
            f"transition_names length {len(sys.transition_names)} != transition count {len(sys.transitions)}"
        )
    return diags


def affine_field(A: np.ndarray, c: np.ndarray) -> VectorFieldSpec:
    """VectorFieldSpec for xdot = A x + c with exact Jacobian.

    Evaluators broadcast over leading axes so batched rollouts work.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.size

    def f(t, x, _A=A, _c=c):
        return x @ _A.T + _c

    def jac(t, x, _A=A):
        return _A

    return VectorFieldSpec(dim=n, f=f, jac_x=jac)


def linear_guard(normal: Sequence[float], offset: float = 0.0, time_coeff: float = 0.0) -> GuardSpec:
    """GuardSpec for g = normal . x + offset + time_coeff * t with exact gradients."""
    w = np.asarray(normal, dtype=float)

    def g(t, x, _w=w, _b=float(offset), _a=float(time_coeff)):
        return x @ _w + _b + _a * t

    def gx(t, x, _w=w):
        return _w

    def gt(t, x, _a=float(time_coeff)):
        return _a

    return GuardSpec(g=g, jac_x=gx, jac_t=gt)


def affine_reset(M: np.ndarray, b: np.ndarray) -> ResetSpec:
    """ResetSpec for R = M x + b with exact Jacobians."""
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)

    def r(t, x, _M=M, _b=b):
        return x @ _M.T + _b

    def rx(t, x, _M=M):
        return _M

    def rt(t, x, _b=b):
        return np.zeros_like(_b)

    return ResetSpec(r=r, jac_x=rx, jac_t=rt)


def identity_reset(n: int) -> ResetSpec:
    """ResetSpec for R = x on an n-dimensional chart."""
    eye = np.eye(n)

    def r(t, x):
        return np.array(x, dtype=float, copy=True)

    def rx(t, x, _I=eye):
        return _I

    def rt(t, x, _n=n):
        return np.zeros(_n)

    return ResetSpec(r=r, jac_x=rx, jac_t=rt)
