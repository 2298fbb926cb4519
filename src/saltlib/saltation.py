"""Saltation matrices: first-order jump maps for perturbations across events.

For a transition with guard g, reset R, pre-event field F- and post-event
field F+, the saltation matrix is

    Xi = D_x R + (F+ - D_x R F- - D_t R) D_x g / (D_t g + D_x g . F-)

evaluated with F-, D_x R, D_t R, D_x g, D_t g at (t, x-) and F+ at (t, x+).
It maps state perturbations just before the event to perturbations just
after: dx+ = Xi dx- + h.o.t. The correction beyond D_x R is rank one.

The rigid-body closed forms of stick-to-slip and slip-to-stick are this
assembly too, on their own fields and their system guard and reset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateGuard, NonFiniteState, TangentialEvent
from .simulate import EPS_GRAD, EPS_TRANS
from .system import GuardSpec, HybridSystem, ResetSpec
from .trajectory import EventRecord

TOL_ID = 1e-9


@dataclass(frozen=True)
class SaltationResult:
    """Saltation matrix with the ingredients it was assembled from.

    identity_shortcut is diagnostic only: it flags events where the reset is
    the identity and the fields match across the boundary (which forces
    Xi = I); the matrix itself is always computed from the full formula.
    """

    xi: np.ndarray
    dxr: np.ndarray
    denom: float
    f_minus: np.ndarray
    f_plus: np.ndarray
    identity_shortcut: bool

    @property
    def shape(self) -> tuple[int, int]:
        return self.xi.shape

    def to_dict(self) -> dict:
        return {
            "xi": self.xi.tolist(),
            "dxr": self.dxr.tolist(),
            "denom": self.denom,
            "f_minus": self.f_minus.tolist(),
            "f_plus": self.f_plus.tolist(),
            "identity_shortcut": self.identity_shortcut,
        }


def saltation_matrix(
    sys: HybridSystem,
    event: EventRecord,
    eps_trans: float = EPS_TRANS,
    eps_grad: float = EPS_GRAD,
) -> SaltationResult:
    """Assemble the saltation matrix for a located event."""
    tr = sys.transitions[event.transition_index]
    t = event.t_event
    x_minus = np.asarray(event.x_minus, dtype=float)
    x_plus = np.asarray(event.x_plus, dtype=float)
    n_from = sys.dim(tr.from_mode)
    n_to = sys.dim(tr.to_mode)
    if x_minus.shape != (n_from,) or x_plus.shape != (n_to,):
        raise ValueError(
            f"event states {x_minus.shape}/{x_plus.shape} do not match transition dims "
            f"({n_from},)/({n_to},)"
        )

    f_minus = np.asarray(sys.modes[tr.from_mode].f(t, x_minus), dtype=float)
    f_plus = np.asarray(sys.modes[tr.to_mode].f(t, x_plus), dtype=float)
    return _assemble(t, x_minus, x_plus, f_minus, f_plus, tr.guard, tr.reset, eps_trans, eps_grad)


def _assemble(t: float, x_minus: np.ndarray, x_plus: np.ndarray, f_minus: np.ndarray,
              f_plus: np.ndarray, guard: GuardSpec, reset: ResetSpec, eps_trans: float,
              eps_grad: float) -> SaltationResult:
    """The saltation rule for given fields F- at x_minus and F+ at x_plus, with
    the reset and guard derivatives taken through their specs at (t, x_minus)."""
    n_from, n_to = x_minus.shape[0], x_plus.shape[0]
    dxr = reset.jacobian_x(t, x_minus)
    dtr = reset.jacobian_t(t, x_minus)
    dxg = guard.grad_x(t, x_minus)
    dtg = guard.grad_t(t, x_minus)
    if dxr.shape != (n_to, n_from):
        raise ValueError(f"reset Jacobian shape {dxr.shape}, expected ({n_to}, {n_from})")
    if dxg.shape != (n_from,):
        raise ValueError(f"guard gradient shape {dxg.shape}, expected ({n_from},)")

    if float(np.linalg.norm(dxg)) < eps_grad:
        raise DegenerateGuard(f"guard gradient vanishes at t={t}")
    denom = float(dtg + dxg @ f_minus)
    if abs(denom) < eps_trans:
        raise TangentialEvent(
            f"guard derivative {denom:.3e} below transversality floor", t=t, derivative=denom
        )

    xi = dxr + np.outer(f_plus - dxr @ f_minus - dtr, dxg) / denom
    if not np.all(np.isfinite(xi)):
        raise NonFiniteState(f"non-finite saltation matrix at t={t}")

    shortcut = False
    if n_from == n_to:
        scale = 1.0 + float(np.linalg.norm(x_minus))
        fscale = 1.0 + float(np.linalg.norm(f_minus))
        shortcut = (
            float(np.linalg.norm(x_plus - x_minus)) <= TOL_ID * scale
            and float(np.abs(dxr - np.eye(n_from)).max()) <= TOL_ID
            and float(np.abs(dtr).max()) <= TOL_ID
            and float(np.linalg.norm(f_plus - f_minus)) <= TOL_ID * fscale
        )

    return SaltationResult(
        xi=xi,
        dxr=dxr,
        denom=denom,
        f_minus=f_minus,
        f_plus=f_plus,
        identity_shortcut=shortcut,
    )


def apply_saltation(res: SaltationResult, dx: np.ndarray) -> np.ndarray:
    """Push a pre-event perturbation through the jump: dx+ = Xi dx-."""
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (res.xi.shape[1],):
        raise ValueError(f"dx shape {dx.shape} does not match saltation input dim {res.xi.shape[1]}")
    return res.xi @ dx


@dataclass(frozen=True)
class StructureReport:
    """Structural classification of a saltation matrix.

    Block flags are None when not applicable (non-square or odd dimension).
    Residuals are max-abs deviations backing each flag; distinguished_eigenvalue
    is 1 + a.b for matrices of the form I + a b^T.
    """

    upper_right_zero: Optional[bool]
    equal_diag_blocks: Optional[bool]
    identity_reset: bool
    field_match: Optional[bool]
    rank_one_of_identity: Optional[bool]
    upper_right_residual: Optional[float]
    diag_gap: Optional[float]
    identity_residual: float
    field_gap: Optional[float]
    second_singular_value: Optional[float]
    distinguished_eigenvalue: Optional[float]

    def to_dict(self) -> dict:
        return {
            "upper_right_zero": self.upper_right_zero,
            "equal_diag_blocks": self.equal_diag_blocks,
            "identity_reset": self.identity_reset,
            "field_match": self.field_match,
            "rank_one_of_identity": self.rank_one_of_identity,
            "upper_right_residual": self.upper_right_residual,
            "diag_gap": self.diag_gap,
            "identity_residual": self.identity_residual,
            "field_gap": self.field_gap,
            "second_singular_value": self.second_singular_value,
            "distinguished_eigenvalue": self.distinguished_eigenvalue,
        }


def classify_structure(
    res: SaltationResult,
    event: Optional[EventRecord] = None,
    atol: float = 1e-10,
) -> StructureReport:
    """Classify block and rank structure of a saltation matrix."""
    xi = res.xi
    n_to, n_from = xi.shape

    ur_zero = ur_res = diag_eq = diag_gap = None
    if n_to == n_from and n_to % 2 == 0:
        m = n_to // 2
        ur_res = float(np.abs(xi[:m, m:]).max())
        ur_zero = ur_res <= atol
        diag_gap = float(np.abs(xi[:m, :m] - xi[m:, m:]).max())
        diag_eq = diag_gap <= atol

    if res.dxr.shape[0] == res.dxr.shape[1]:
        id_res = float(np.abs(res.dxr - np.eye(res.dxr.shape[0])).max())
    else:
        id_res = float("inf")
    identity_reset = id_res <= atol
    if event is not None and identity_reset:
        xm = np.asarray(event.x_minus, dtype=float)
        xp = np.asarray(event.x_plus, dtype=float)
        if xm.shape != xp.shape:
            identity_reset = False
        else:
            gap = float(np.abs(xp - xm).max())
            id_res = max(id_res, gap)
            identity_reset = gap <= atol * (1.0 + float(np.abs(xm).max()))

    field_match = field_gap = None
    if res.f_minus.shape == res.f_plus.shape:
        field_gap = float(np.abs(res.f_plus - res.f_minus).max())
        field_match = field_gap <= atol * (1.0 + float(np.abs(res.f_minus).max()))

    rank_one = s2 = lam = None
    if n_to == n_from:
        excess = xi - np.eye(n_to)
        svals = np.linalg.svd(excess, compute_uv=False)
        s2 = float(svals[1]) if svals.size > 1 else 0.0
        rank_one = s2 <= atol * max(1.0, float(svals[0]))
        if rank_one:
            lam = 1.0 + float(np.trace(excess))

    return StructureReport(
        upper_right_zero=ur_zero,
        equal_diag_blocks=diag_eq,
        identity_reset=identity_reset,
        field_match=field_match,
        rank_one_of_identity=rank_one,
        upper_right_residual=ur_res,
        diag_gap=diag_gap,
        identity_residual=id_res,
        field_gap=field_gap,
        second_singular_value=s2,
        distinguished_eigenvalue=lam,
    )
