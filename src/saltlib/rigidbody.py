"""Rigid-body contact models with a single frictional point contact.

A model supplies mass matrix M(q), Coriolis matrix C(q, qd), configuration
forces N(q, qd), applied input, the contact distance g_n with its normal and
tangential Jacobians, a restitution coefficient, and friction coefficients.
From those this module derives per-contact-mode dynamics via the constrained
KKT blocks, impact maps, guard functions, the hybrid system wiring, and
closed-form saltation matrices for every supported mode transition.

Contact modes: U (separated), V (separated, post-impact ballistic branch),
S (sliding on the constraint), C (sticking on the constraint). Elastic
models (e > 0) bounce between U and V; plastic models (e = 0) route through
S and/or C depending on the friction coefficients.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import fd
from .errors import (
    SingularConstraint,
    SlidingSingularity,
    TangentialEvent,
)
from .saltation import SaltationResult, _assemble
from .simulate import EPS_GRAD, EPS_TRANS
from .system import GuardSpec, HybridSystem, ResetSpec, TransitionSpec, VectorFieldSpec, identity_reset

EPS_SLIDE = 1e-10

COND_LIMIT = 1e12

_KKT_MEMO_SIZE = 4


class ContactMode(enum.Enum):
    """Discrete contact state of the single contact point."""

    U = "U"  # separated, pre-impact
    V = "V"  # separated, post-impact / ballistic
    S = "S"  # on the constraint, sliding
    C = "C"  # on the constraint, sticking

    def __str__(self) -> str:  # keeps CLI and labels terse
        return self.value


ModeLike = Union[ContactMode, str]


def _as_mode(m: ModeLike) -> ContactMode:
    return m if isinstance(m, ContactMode) else ContactMode(str(m))


@dataclass(frozen=True)
class RigidBodyModel:
    """Single-contact rigid body in generalized coordinates.

    Callable conventions (all plain numpy, shapes for config dim m):
      mass(q) -> (m, m) SPD;  coriolis(q, qd) -> (m, m);
      nonlin(q, qd) -> (m,) gravity and other configuration forces;
      input(t, q, qd) -> (m,) applied generalized force;
      g_n(t, q) -> float signed contact distance, positive when separated;
      J_n(q) -> (1, m) or (m,) normal contact Jacobian;
      J_t(q) -> (k, m) tangential contact Jacobian, k in {0, 1}.

    A model memoizes the KKT blocks of the last few distinct (M, J) pairs it
    met (see _kkt_blocks); that memo is its only state.
    """

    m: int
    mass: Callable[[np.ndarray], np.ndarray]
    coriolis: Callable[[np.ndarray, np.ndarray], np.ndarray]
    nonlin: Callable[[np.ndarray, np.ndarray], np.ndarray]
    input: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    g_n: Callable[[float, np.ndarray], float]
    J_n: Callable[[np.ndarray], np.ndarray]
    J_t: Optional[Callable[[np.ndarray], np.ndarray]] = None
    e: float = 0.0
    mu_s: float = 0.0
    mu_k: float = 0.0
    _kkt_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("config dimension m must be >= 1")
        if self.e < 0.0:
            raise ValueError("restitution e must be >= 0")
        if self.mu_s < 0.0 or self.mu_k < 0.0:
            raise ValueError("friction coefficients must be >= 0")
        if self.e > 0.0 and (np.isfinite(self.mu_s) and self.mu_s > 0.0
                             or np.isfinite(self.mu_k) and self.mu_k > 0.0):
            # elastic contact is modeled frictionless here; sticking/sliding
            # sub-modes only exist for plastic (e = 0) impacts
            raise ValueError("e > 0 requires mu_s = mu_k = 0")

    @property
    def dim(self) -> int:
        return 2 * self.m

    def jn(self, q: np.ndarray) -> np.ndarray:
        jn = np.atleast_2d(np.asarray(self.J_n(q), dtype=float))
        if jn.shape != (1, self.m):
            raise ValueError(f"J_n must be 1x{self.m} (single contact point), got {jn.shape}")
        return jn

    def jt(self, q: np.ndarray) -> np.ndarray:
        if self.J_t is None:
            return np.zeros((0, self.m))
        jt = np.atleast_2d(np.asarray(self.J_t(q), dtype=float))
        if jt.shape[1] != self.m or jt.shape[0] > 1:
            raise ValueError(f"J_t must be kx{self.m} with k <= 1, got {jt.shape}")
        return jt

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"state must have shape ({self.dim},), got {x.shape}")
        return x[: self.m], x[self.m:]


@dataclass(frozen=True)
class DaggerBlocks:
    """Blocks of the inverted contact KKT matrix.

    For M qdd + J^T f = tau with J qdd = -Jdot qd:
      qdd = m_dag tau - j_dag^T (Jdot qd),  f_multiplier = j_dag tau - lam_dag (Jdot qd).
    Satisfies m_dag M = I - j_dag^T J.
    """

    m_dag: np.ndarray
    j_dag: np.ndarray
    lam_dag: np.ndarray


def dagger_blocks(M: np.ndarray, J: np.ndarray) -> DaggerBlocks:
    """Invert the contact KKT system for mass matrix M and constraint rows J.

    Every call factors anew and returns arrays that belong to the caller.
    """
    M = np.asarray(M, dtype=float)
    J = np.atleast_2d(np.asarray(J, dtype=float))
    m = M.shape[0]
    if M.shape != (m, m):
        raise ValueError("mass matrix must be square")
    eye = np.eye(m)
    try:
        minv = np.linalg.solve(M, eye)
    except np.linalg.LinAlgError as exc:
        raise SingularConstraint("mass matrix is singular") from exc
    k = J.shape[0]
    if k == 0:
        return DaggerBlocks(m_dag=minv, j_dag=np.zeros((0, m)), lam_dag=np.zeros((0, 0)))
    if J.shape[1] != m:
        raise ValueError(f"constraint rows must have {m} columns")
    A = J @ minv @ J.T
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularConstraint("constraint block J M^-1 J^T is not positive definite") from exc
    if np.linalg.cond(A) > COND_LIMIT:
        raise SingularConstraint("constraint block J M^-1 J^T is nearly singular")
    lam = np.linalg.solve(A, np.eye(k))
    j_dag = lam @ J @ minv
    m_dag = minv - j_dag.T @ (J @ minv)
    return DaggerBlocks(m_dag=m_dag, j_dag=j_dag, lam_dag=-lam)


def _kkt_blocks(model: RigidBodyModel, M: np.ndarray, J: np.ndarray) -> DaggerBlocks:
    """dagger_blocks(M, J) for float arrays M and J, reused from the model's
    memo while both repeat byte-for-byte, so the blocks are the ones computed
    from identical floats. The memo keeps the _KKT_MEMO_SIZE most recently used
    pairs, enough for the S and C rows of one model; a model whose M or J
    moves with q misses on every call. A failure is not stored, so it is
    raised again on every call. The stored arrays are read-only."""
    key = (M.shape, J.shape, M.tobytes(), J.tobytes())
    memo = model._kkt_memo
    blocks = memo.pop(key, None)
    if blocks is None:
        blocks = dagger_blocks(M, J)
        for a in (blocks.m_dag, blocks.j_dag, blocks.lam_dag):
            a.setflags(write=False)
        if len(memo) >= _KKT_MEMO_SIZE:
            del memo[next(iter(memo))]
    memo[key] = blocks  # last in order; the first key is the least recently used
    return blocks


def _jdot(jfun: Callable[[np.ndarray], np.ndarray], q: np.ndarray, qd: np.ndarray) -> np.ndarray:
    """Time derivative of a contact Jacobian along qd, by directional difference."""
    return np.atleast_2d(fd.directional_matrix_derivative(jfun, q, qd))


def _constraint_rows(model: RigidBodyModel, mode: ContactMode, q: np.ndarray) -> np.ndarray:
    """Constraint rows of contact mode S or C."""
    if mode is ContactMode.S:
        return model.jn(q)
    return np.vstack([model.jn(q), model.jt(q)])


def _constraint_jdot(model: RigidBodyModel, rows: np.ndarray, q: np.ndarray,
                     qd: np.ndarray) -> np.ndarray:
    """Time derivative along qd of `rows`, as returned by _constraint_rows."""
    jdot_n = _jdot(model.J_n, q, qd)
    if rows.shape[0] == 1:
        return jdot_n
    return np.vstack([jdot_n, _jdot(model.J_t, q, qd)])


def _slide_sign(v_t: float, slide_direction: Optional[float], floor: float) -> float:
    """Direction of kinetic friction's sliding: the sign of slide_direction
    when given, which must be nonzero, else the sign of the tangential speed
    v_t, which must exceed floor in magnitude."""
    if slide_direction is not None:
        d = float(np.sign(slide_direction))
        if d == 0.0:
            raise ValueError("slide_direction must be nonzero")
        return d
    if abs(v_t) <= floor:
        raise SlidingSingularity(f"tangential speed {v_t:.3e} too small to orient kinetic friction")
    return float(np.sign(v_t))


def _contact_solve(model: RigidBodyModel, mode: ContactMode, t: float, x: np.ndarray,
                   slide_floor: float, slide_direction: Optional[float] = None,
                   forces: bool = False) -> np.ndarray:
    """State derivative in one contact mode or, with `forces` in S or C, the
    contact forces that constraint_forces returns.

    Under kinetic friction in S the force -d mu_k f_n J_t^T enters the force
    balance while only J_n constrains the acceleration, so f_n solves
      J_n M^-1 (J_n^T - d mu_k J_t^T) f_n = -(Jdot_n qd + J_n M^-1 tau)
    with d from _slide_sign. Frictionless sliding and sticking invert the
    KKT blocks of their constraint rows instead.
    """
    q, qd = model.split(x)
    M = np.asarray(model.mass(q), dtype=float)
    C = np.asarray(model.coriolis(q, qd), dtype=float)
    N = np.asarray(model.nonlin(q, qd), dtype=float)
    u = np.asarray(model.input(t, q, qd), dtype=float)
    tau = u - N - C @ qd

    if mode in (ContactMode.U, ContactMode.V):
        return np.concatenate([qd, np.linalg.solve(M, tau)])

    if mode is ContactMode.S and model.mu_k > 0.0:
        if not np.isfinite(model.mu_k):
            raise ValueError("sliding mode requires finite mu_k")
        jn, jt = model.jn(q), model.jt(q)
        v_t = float((jt @ qd)[0]) if jt.shape[0] else 0.0
        d = _slide_sign(v_t, slide_direction, slide_floor)
        rhs = -(_jdot(model.J_n, q, qd) @ qd + jn @ np.linalg.solve(M, tau))[0]
        force_dir = jn.T - d * model.mu_k * jt.T if jt.shape[0] else jn.T
        denom = (jn @ np.linalg.solve(M, force_dir))[0, 0]
        if abs(denom) < 1e-14:
            raise SingularConstraint("frictional contact solve is singular")
        f_n = float(rhs / denom)
        if forces:
            return np.array([f_n])
        tau_c = tau + (jn.T * f_n - d * model.mu_k * f_n * jt.T).ravel()
        # acceleration already satisfies the normal constraint by construction
        return np.concatenate([qd, np.linalg.solve(M, tau_c)])

    rows = _constraint_rows(model, mode, q)
    blocks = _kkt_blocks(model, M, rows)
    jdot_qd = _constraint_jdot(model, rows, q, qd) @ qd
    if forces:
        return -(blocks.j_dag @ tau - blocks.lam_dag @ jdot_qd)
    return np.concatenate([qd, blocks.m_dag @ tau - blocks.j_dag.T @ jdot_qd])


def mode_dynamics(model: RigidBodyModel, mode: ModeLike, t: float, x: np.ndarray,
                  slide_direction: Optional[float] = None) -> np.ndarray:
    """State derivative in one contact mode.

    In sliding mode with kinetic friction the tangential speed must exceed
    EPS_SLIDE (or slide_direction must be supplied) so the friction force has
    a well-defined direction.
    """
    return _contact_solve(model, _as_mode(mode), t, x, EPS_SLIDE, slide_direction)


def constraint_forces(model: RigidBodyModel, mode: ModeLike, t: float,
                      x: np.ndarray, slide_direction: Optional[float] = None) -> np.ndarray:
    """Contact forces in the constraint frame, repulsive convention.

    Returns one entry per active constraint row ([f_n] in S, [f_n, f_t] in C),
    positive normal force pushing the body off the surface. Separated modes
    return an empty array. Kinetic friction is oriented as in mode_dynamics.
    """
    mode = _as_mode(mode)
    if mode in (ContactMode.U, ContactMode.V):
        model.split(x)  # still rejects a state of the wrong shape
        return np.zeros(0)
    return _contact_solve(model, mode, t, x, EPS_SLIDE, slide_direction, forces=True)


def _impact_blocks(model: RigidBodyModel, target_mode: ContactMode,
                   q: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, DaggerBlocks]:
    """(M, J, e, dagger blocks) of the impact into target_mode V, S or C:
    elastic V reflects J_n qd with restitution model.e, plastic S and C
    project qd onto their constraint rows."""
    M = np.asarray(model.mass(q), dtype=float)
    if target_mode is ContactMode.V:
        J, e = model.jn(q), model.e
    else:
        J, e = _constraint_rows(model, target_mode, q), 0.0
    return M, J, e, _kkt_blocks(model, M, J)


def impact_impulse(model: RigidBodyModel, target_mode: ModeLike, t: float,
                   x_minus: np.ndarray) -> np.ndarray:
    """Constraint-frame impulse of the impact map, multiplier convention."""
    mode = _as_mode(target_mode)
    q, qd = model.split(x_minus)
    if mode is ContactMode.U:
        return np.zeros(0)
    M, J, e, blocks = _impact_blocks(model, mode, q)
    return blocks.j_dag @ (M @ qd) - e * blocks.lam_dag @ (J @ qd)


def impact_reset(model: RigidBodyModel, target_mode: ModeLike, t: float,
                 x_minus: np.ndarray) -> np.ndarray:
    """Impulsive velocity reset entering target_mode; positions are continuous.

    Elastic target V reflects the normal velocity with restitution e; plastic
    targets S and C project the velocity onto the respective constraint.
    """
    mode = _as_mode(target_mode)
    q, qd = model.split(x_minus)
    if mode is ContactMode.U:
        return np.asarray(x_minus, dtype=float).copy()
    M, J, e, blocks = _impact_blocks(model, mode, q)
    qd_plus = blocks.m_dag @ (M @ qd) - e * blocks.j_dag.T @ (J @ qd)
    return np.concatenate([q, qd_plus])


def _post_impact_velocity_matrix(model: RigidBodyModel, target_mode: ContactMode,
                                 q: np.ndarray) -> np.ndarray:
    """Matrix W(q) with qd+ = W qd- for the impact into target_mode."""
    if target_mode is ContactMode.U:
        return np.eye(model.m)
    M, J, e, blocks = _impact_blocks(model, target_mode, q)
    if target_mode is ContactMode.V:
        return blocks.m_dag @ M - e * blocks.j_dag.T @ J
    return blocks.m_dag @ M


def _dq_velocity_product(model: RigidBodyModel, target_mode: ContactMode,
                         q: np.ndarray, qd: np.ndarray) -> np.ndarray:
    """D_q [W(q) qd] with qd held fixed, by central differences per coordinate."""
    def product(qq: np.ndarray) -> np.ndarray:
        return _post_impact_velocity_matrix(model, target_mode, qq) @ qd

    return fd.jac_q(product, q)


# ---------------------------------------------------------------------------
# hybrid system assembly


def _impact_guard(model: RigidBodyModel) -> GuardSpec:
    def g(t, x):
        x = np.asarray(x, dtype=float)
        return model.g_n(t, x[..., : model.m])

    def jac_x(t, x):
        q, _ = model.split(np.asarray(x, dtype=float))
        out = np.zeros(model.dim)
        out[: model.m] = fd.jac_x(model.g_n, t, q)
        return out

    return GuardSpec(g=g, jac_x=jac_x)


def _velocity_guard(model: RigidBodyModel, jac: Callable[[np.ndarray], np.ndarray],
                    two_sided: bool = False) -> GuardSpec:
    """Guard on the contact velocity J(q) qd, with J = model.jn (the apex:
    the separation velocity falls to zero from above) or model.jt (the slip
    stop: the tangential velocity crosses zero from either side)."""
    def g(t, x):
        q, qd = model.split(np.asarray(x, dtype=float))
        return float((jac(q) @ qd)[0])

    def jac_x(t, x):
        q, qd = model.split(np.asarray(x, dtype=float))
        dq = fd.jac_q(lambda qq: (jac(qq) @ qd).ravel(), q)[0]
        return np.concatenate([dq, jac(q)[0]])

    return GuardSpec(g=g, jac_x=jac_x, jac_t=lambda t, x: 0.0, two_sided=two_sided)


def _liftoff_guard(model: RigidBodyModel, from_mode: ContactMode,
                   slide_direction: Optional[float] = None) -> GuardSpec:
    def g(t, x):
        return float(constraint_forces(model, from_mode, t, x, slide_direction)[0])

    return GuardSpec(g=g)


def _cone_break_guard(model: RigidBodyModel) -> GuardSpec:
    # static friction margin mu_s |f_n| - |f_t|; crossing zero breaks stick
    def g(t, x):
        f = constraint_forces(model, ContactMode.C, t, np.asarray(x, dtype=float))
        return float(model.mu_s * abs(f[0]) - abs(f[1]))

    return GuardSpec(g=g)


def _mode_field(model: RigidBodyModel, mode: ContactMode) -> VectorFieldSpec:
    def f(t, x):
        # integrators may probe exactly v_t = 0; only that single point is
        # genuinely undefined for kinetic friction
        return _contact_solve(model, mode, t, np.asarray(x, dtype=float), 0.0)

    return VectorFieldSpec(dim=model.dim, f=f)


def _impact_reset_spec(model: RigidBodyModel, target: ContactMode) -> ResetSpec:
    def r(t, x):
        return impact_reset(model, target, t, np.asarray(x, dtype=float))

    def jac_x(t, x):
        q, qd = model.split(np.asarray(x, dtype=float))
        W = _post_impact_velocity_matrix(model, target, q)
        dq = _dq_velocity_product(model, target, q, qd)
        return _block_matrix(model, np.eye(model.m), dq, W)

    return ResetSpec(r=r, jac_x=jac_x, jac_t=lambda t, x: np.zeros(model.dim))


def mode_tags(model: RigidBodyModel) -> list[ContactMode]:
    """Contact modes present in the hybrid system built for this model."""
    if model.e > 0.0:
        return [ContactMode.U, ContactMode.V]
    if not np.isfinite(model.mu_s):
        return [ContactMode.U, ContactMode.C, ContactMode.V]
    if model.mu_s > 0.0:
        return [ContactMode.U, ContactMode.S, ContactMode.C, ContactMode.V]
    return [ContactMode.U, ContactMode.S, ContactMode.V]


def build_hybrid_system(model: RigidBodyModel) -> HybridSystem:
    """Wire contact modes, guards, and resets into a HybridSystem.

    Elastic models (e > 0) get U -(impact)-> V -(apex)-> U. Plastic models
    route the impact into S or C; liftoff returns to ballistic flight V, and
    with finite nonzero static friction the S <-> C pair is included with the
    slip-stop and cone-break guards. Guards are positive inside their domain.
    """
    tags = mode_tags(model)
    index = {tag: i for i, tag in enumerate(tags)}
    modes = [_mode_field(model, tag) for tag in tags]
    identity = identity_reset(model.dim)
    apex = _velocity_guard(model, model.jn)
    transitions: list[TransitionSpec] = []
    names: list[str] = []

    def add(src: ContactMode, dst: ContactMode, guard: GuardSpec, reset: ResetSpec):
        transitions.append(TransitionSpec(index[src], index[dst], guard, reset))
        names.append(f"{src.value}->{dst.value}")

    if model.e > 0.0:
        add(ContactMode.U, ContactMode.V, _impact_guard(model),
            _impact_reset_spec(model, ContactMode.V))
        add(ContactMode.V, ContactMode.U, apex, identity)
    elif not np.isfinite(model.mu_s):
        add(ContactMode.U, ContactMode.C, _impact_guard(model),
            _impact_reset_spec(model, ContactMode.C))
        add(ContactMode.C, ContactMode.V, _liftoff_guard(model, ContactMode.C), identity)
        add(ContactMode.V, ContactMode.U, apex, identity)
    else:
        add(ContactMode.U, ContactMode.S, _impact_guard(model),
            _impact_reset_spec(model, ContactMode.S))
        add(ContactMode.S, ContactMode.V, _liftoff_guard(model, ContactMode.S), identity)
        add(ContactMode.V, ContactMode.U, apex, identity)
        if model.mu_s > 0.0:
            add(ContactMode.S, ContactMode.C, _velocity_guard(model, model.jt, two_sided=True),
                identity)
            add(ContactMode.C, ContactMode.S, _cone_break_guard(model), identity)

    return HybridSystem(
        modes=tuple(modes),
        transitions=tuple(transitions),
        mode_names=tuple(tag.value for tag in tags),
        transition_names=tuple(names),
    )


# ---------------------------------------------------------------------------
# closed-form saltation matrices


def _block_matrix(model: RigidBodyModel, ul: np.ndarray, ll: np.ndarray,
                  lr: np.ndarray) -> np.ndarray:
    m = model.m
    xi = np.zeros((2 * m, 2 * m))
    xi[:m, :m] = ul
    xi[m:, :m] = ll
    xi[m:, m:] = lr
    return xi


def _identity_saltation(model: RigidBodyModel, src: ContactMode, dst: ContactMode,
                        guard: GuardSpec, t: float, x: np.ndarray,
                        slide_direction: Optional[float]) -> SaltationResult:
    """Xi = I for a transition whose fields agree at the event."""
    f_minus = _contact_solve(model, src, t, x, 0.0, slide_direction)
    f_plus = _contact_solve(model, dst, t, x, 0.0)
    gap = float(np.max(np.abs(f_plus - f_minus)))
    if gap > 1e-6 * (1.0 + float(np.max(np.abs(f_minus)))):
        raise ValueError(
            f"{src.value}->{dst.value} expected matching vector fields at the event, "
            f"gap {gap:.3e}; the state does not sit on the transition surface"
        )
    denom = float(guard.grad_t(t, x) + guard.grad_x(t, x) @ f_minus)
    eye = np.eye(model.dim)
    return SaltationResult(xi=eye, dxr=eye, denom=denom, f_minus=f_minus,
                           f_plus=f_plus, identity_shortcut=True)


def closed_form_saltation(model: RigidBodyModel, transition: Sequence[ModeLike],
                          t: float, x_minus: np.ndarray,
                          slide_direction: Optional[float] = None) -> SaltationResult:
    """Saltation matrix of a contact-mode transition in closed form.

    transition is a (from, to) pair of ContactMode or their string names.
    slide_direction orients kinetic friction when the tangential velocity at
    the event does not determine it (stick-to-slip onset, slip reversal).

    Impacts out of U are closed forms. Otherwise Xi = I (apex, liftoff) or
    the assembly of saltation_matrix (C->S, S->C), and denom is the signed
    D_t g + D_x g . F- of the guard build_hybrid_system gives the transition.
    """
    src, dst = (_as_mode(transition[0]), _as_mode(transition[1]))
    x_minus = np.asarray(x_minus, dtype=float)
    pair = (src, dst)

    if pair == (ContactMode.V, ContactMode.U):
        # apex: identical ballistic fields on both sides of a velocity guard
        return _identity_saltation(model, src, dst, _velocity_guard(model, model.jn),
                                   t, x_minus, slide_direction)

    if pair in ((ContactMode.S, ContactMode.V), (ContactMode.C, ContactMode.V)):
        # liftoff: constrained and free accelerations agree when f_n = 0
        return _identity_saltation(model, src, dst, _liftoff_guard(model, src, slide_direction),
                                   t, x_minus, slide_direction)

    if src is ContactMode.U and dst in (ContactMode.S, ContactMode.C, ContactMode.V):
        return _impact_saltation(model, dst, t, x_minus, slide_direction)

    if pair == (ContactMode.C, ContactMode.S):
        if not (np.isfinite(model.mu_s) and model.mu_s > 0.0):
            raise ValueError("stick-to-slip requires finite nonzero mu_s")
        forces = constraint_forces(model, ContactMode.C, t, x_minus)
        if slide_direction is None and abs(forces[1]) < 1e-12:
            raise ValueError("tangential force vanishes; pass slide_direction")
        d = _slide_sign(-forces[1], slide_direction, 0.0)  # slip starts against the constraint force
        f_minus = _contact_solve(model, ContactMode.C, t, x_minus, 0.0)
        f_plus = _contact_solve(model, ContactMode.S, t, x_minus, 0.0, d)
        # a cone-break guard may move in t alone (a driven body at rest): no gradient floor
        return _assemble(t, x_minus, x_minus, f_minus, f_plus, _cone_break_guard(model),
                         identity_reset(model.dim), EPS_TRANS, 0.0)

    if pair == (ContactMode.S, ContactMode.C):
        q, qd = model.split(x_minus)
        jt = model.jt(q)
        if jt.shape[0] == 0:
            raise ValueError("slip-to-stick requires a tangential Jacobian")
        d = _slide_sign(float((jt @ qd)[0]), slide_direction, EPS_SLIDE)
        f_minus = _contact_solve(model, ContactMode.S, t, x_minus, 0.0, d)
        f_plus = _contact_solve(model, ContactMode.C, t, x_minus, 0.0)
        return _assemble(t, x_minus, x_minus, f_minus, f_plus,
                         _velocity_guard(model, model.jt, two_sided=True),
                         identity_reset(model.dim), EPS_TRANS, EPS_GRAD)

    raise ValueError(f"no closed form for transition {src.value}->{dst.value}")


def _impact_saltation(model: RigidBodyModel, dst: ContactMode, t: float,
                      x_minus: np.ndarray,
                      slide_direction: Optional[float]) -> SaltationResult:
    m = model.m
    q, qd = model.split(x_minus)
    jn = model.jn(q)
    jn_qd = float((jn @ qd)[0])
    if abs(jn_qd) < EPS_TRANS:
        raise TangentialEvent("impact with vanishing normal approach velocity",
                              t=t, derivative=jn_qd)

    M, J, _, blocks = _impact_blocks(model, dst, q)
    W = _post_impact_velocity_matrix(model, dst, q)
    qd_plus = W @ qd
    x_plus = np.concatenate([q, qd_plus])
    dq_w = _dq_velocity_product(model, dst, q, qd)

    C_minus = np.asarray(model.coriolis(q, qd), dtype=float)
    C_plus = np.asarray(model.coriolis(q, qd_plus), dtype=float)
    f_minus = _contact_solve(model, ContactMode.U, t, x_minus, 0.0)
    f_plus = _contact_solve(model, dst, t, x_plus, EPS_SLIDE, slide_direction)
    row = jn[0] / jn_qd  # shared rank-one factor J_n / (J_n qd-)

    if dst is ContactMode.V:
        minv = np.linalg.solve(M, np.eye(m))
        jtj = blocks.j_dag.T @ jn  # J_dag^T J_n, m x m
        N = np.asarray(model.nonlin(q, qd), dtype=float)
        u = np.asarray(model.input(t, q, qd), dtype=float)
        vec = (minv @ (C_minus @ qd - C_plus @ (W @ qd)) - dq_w @ qd
               + (1.0 + model.e) * (jtj @ (minv @ (u - C_minus @ qd - N))))
        z = np.outer(vec, row)
        ul = W
        ll = z + dq_w
        lr = W
    else:
        if dst is ContactMode.S and model.mu_k > 0.0:
            # kinetic friction: the sliding acceleration comes from the coupled
            # normal-force solve, not from the frictionless projection
            vec = f_plus[m:] - W @ f_minus[m:] - dq_w @ qd
        else:
            jdot_plus = _constraint_jdot(model, J, q, qd_plus)
            vec = (blocks.m_dag @ (C_minus @ qd - C_plus @ qd_plus)
                   - blocks.j_dag.T @ (jdot_plus @ qd_plus) - dq_w @ qd)
        z = np.outer(vec, row)
        if dst is ContactMode.S:
            ul = W  # plastic normal projection keeps the position block equal
        else:
            ul = np.eye(m) - np.outer(blocks.j_dag.T @ (J @ qd), row)
        ll = z + dq_w
        lr = W

    xi = _block_matrix(model, ul, ll, lr)
    dxr = _block_matrix(model, np.eye(m), dq_w, W)
    return SaltationResult(xi=xi, dxr=dxr, denom=jn_qd, f_minus=f_minus,
                           f_plus=f_plus, identity_shortcut=False)


@dataclass(frozen=True)
class EigenReport:
    """Eigenstructure of a saltation matrix, sorted by decreasing magnitude."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_mask: np.ndarray

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[float(v.real), float(v.imag)] for v in self.eigenvalues],
            "zero_mask": [bool(b) for b in self.zero_mask],
        }


def eigen_report(xi: np.ndarray, zero_tol: float = 1e-9) -> EigenReport:
    """Eigen decomposition with a mask of numerically zero eigenvalues."""
    xi = np.asarray(xi, dtype=float)
    vals, vecs = np.linalg.eig(xi)
    order = np.argsort(-np.abs(vals))
    vals = vals[order]
    vecs = vecs[:, order]
    scale = max(1.0, float(np.abs(vals).max()) if vals.size else 1.0)
    mask = np.abs(vals) <= zero_tol * scale
    return EigenReport(eigenvalues=vals, eigenvectors=vecs, zero_mask=mask)
