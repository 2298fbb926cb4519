"""Built-in example systems and the affine JSON loader.

The point-mass drop onto an inclined plane comes in three friction regimes
and doubles as the reference workload for the rigid-body layer: the model
object feeds the generic contact machinery while the returned HybridSystem
uses closed-form fields, guards and resets (they coincide; the test suite
checks that). One rule gives them all. With M = m I and constant contact
rows, a plastic impact maps the velocity by M^dagger M, which is one 2x2
projector P per contact mode: I in flight, Omega = I - n n^T when sliding
(n = (sin theta, cos theta) the contact normal), 0 when sticking. The
mode's acceleration is P applied to the free acceleration
a = (u1/m, u2/m - a_g), and leaving contact is the normal force
-m n . a reaching zero. All closures broadcast over leading batch axes so
the Monte Carlo oracle can integrate many samples at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from .errors import SchemaError
from .rigidbody import ContactMode, RigidBodyModel
from .system import (
    GuardSpec,
    HybridSystem,
    TransitionSpec,
    VectorFieldSpec,
    affine_field,
    affine_reset,
    identity_reset,
    linear_guard,
)

FRICTION_REGIMES = ("frictionless-slide", "infinite-stick")

InputFn = Callable[[float, np.ndarray], Union[float, np.ndarray]]


@dataclass(frozen=True)
class BallDropParams:
    """Point mass dropped onto a plane inclined by theta from horizontal.

    Configuration is the contact-point position (q1, q2) in world axes; the
    contact distance is sin(theta) q1 + cos(theta) q2. u1/u2 are optional
    applied-force components as functions of (t, x); None means zero.
    friction selects the plastic-impact regime ("frictionless-slide" or
    "infinite-stick"); e > 0 switches to the elastic bounce regime instead.
    """

    theta: float = 0.0
    mass: float = 1.0
    a_g: float = 9.81
    friction: str = "frictionless-slide"
    e: float = 0.0
    u1: Optional[InputFn] = None
    u2: Optional[InputFn] = None

    def __post_init__(self):
        if not -np.pi / 2 < self.theta < np.pi / 2:
            raise ValueError("theta must lie strictly inside (-pi/2, pi/2)")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.a_g <= 0.0:
            raise ValueError("a_g must be positive")
        if self.friction not in FRICTION_REGIMES:
            raise ValueError(f"friction must be one of {FRICTION_REGIMES}")
        if self.e < 0.0:
            raise ValueError("e must be >= 0")


def _eval_input(fn: Optional[InputFn], t, x) -> Union[float, np.ndarray]:
    """Input value per row of x; a missing input is the scalar 0.0, which
    broadcasts like a zero array without allocating one."""
    if fn is None:
        return 0.0
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.asarray(fn(t, x), dtype=float), x.shape[:-1]).astype(float)


def slide_impact_saltation(theta: float) -> np.ndarray:
    """Closed-form saltation of the plastic impact into frictionless sliding.

    Block-diagonal pair of the tangent-plane projector: positions and
    velocities are both projected along the contact normal.
    """
    s, c = np.sin(theta), np.cos(theta)
    omega = np.array([[c * c, -s * c], [-s * c, s * s]])
    out = np.zeros((4, 4))
    out[:2, :2] = omega
    out[2:, 2:] = omega
    return out


def stick_impact_saltation(theta: float, qd1: float, qd2: float) -> np.ndarray:
    """Closed-form saltation of the plastic impact into full stick.

    Velocities collapse to zero, so only the position block survives; it
    depends on the pre-impact velocity direction (qd1, qd2).
    """
    s, c = np.sin(theta), np.cos(theta)
    denom = qd2 * c + qd1 * s
    if denom == 0.0:
        raise ValueError("pre-impact normal velocity must be nonzero")
    omega = np.array([[qd2 * c, -qd1 * c], [-qd2 * s, qd1 * s]]) / denom
    out = np.zeros((4, 4))
    out[:2, :2] = omega
    return out


def _ball_drop_model(p: BallDropParams) -> RigidBodyModel:
    m_cfg = 2
    s, c = np.sin(p.theta), np.cos(p.theta)
    mass_mat = p.mass * np.eye(m_cfg)
    zero_mat = np.zeros((m_cfg, m_cfg))
    grav = np.array([0.0, p.mass * p.a_g])
    jn = np.array([[s, c]])
    jt = np.array([[-c, s]])

    def input_fn(t, q, qd):
        x = np.concatenate([q, qd])
        return np.array([float(_eval_input(p.u1, t, x)), float(_eval_input(p.u2, t, x))])

    mu = np.inf if p.e == 0.0 and p.friction == "infinite-stick" else 0.0

    return RigidBodyModel(
        m=m_cfg,
        mass=lambda q: mass_mat,
        coriolis=lambda q, qd: zero_mat,
        nonlin=lambda q, qd: grav,
        input=input_fn,
        g_n=lambda t, q: np.asarray(q, dtype=float)[..., 0] * s
        + np.asarray(q, dtype=float)[..., 1] * c,
        J_n=lambda q: jn,
        J_t=lambda q: jt,
        e=p.e,
        mu_s=mu,
        mu_k=mu,
    )


def _ball_drop_system(p: BallDropParams) -> HybridSystem:
    s, c = np.sin(p.theta), np.cos(p.theta)
    m, a_g = p.mass, p.a_g

    def accel(t, x):
        """Free acceleration a = (u1/m, u2/m - a_g), per row of x."""
        return _eval_input(p.u1, t, x) / m, _eval_input(p.u2, t, x) / m - a_g

    # d(q, qd)/dt = (qd, P a) is linear in the state unless an input is set;
    # with an input, finite differences of the field give its Jacobian
    kinematic = np.zeros((4, 4))
    kinematic[0, 2] = kinematic[1, 3] = 1.0
    unforced = p.u1 is None and p.u2 is None

    def mode(P: np.ndarray) -> VectorFieldSpec:
        """Field whose acceleration is P applied to the free acceleration."""
        (p11, p12), (p21, p22) = P.tolist()

        def f(t, x):
            x = np.asarray(x, dtype=float)
            a1, a2 = accel(t, x)
            out = np.empty_like(x)
            out[..., 0] = x[..., 2]
            out[..., 1] = x[..., 3]
            out[..., 2] = p11 * a1 + p12 * a2
            out[..., 3] = p21 * a1 + p22 * a2
            return out

        jac = (lambda t, x: kinematic) if unforced or not P.any() else None
        return VectorFieldSpec(dim=4, f=f, jac_x=jac)

    def impact(W: np.ndarray) -> TransitionSpec:
        reset = np.eye(4)
        reset[2:, 2:] = W
        return TransitionSpec(0, 1, linear_guard(np.array([s, c, 0.0, 0.0])),
                              affine_reset(reset, np.zeros(4)))

    def apex(src: int) -> TransitionSpec:
        return TransitionSpec(src, 0, linear_guard(np.array([0.0, 0.0, s, c])), identity_reset(4))

    free = mode(np.eye(2))
    if p.e > 0.0:
        w_e = np.eye(2) - (1.0 + p.e) * np.array([[s * s, s * c], [s * c, c * c]])
        return HybridSystem(modes=(free, free), transitions=(impact(w_e), apex(1)),
                            mode_names=("U", "V"), transition_names=("U->V", "V->U"))

    # a plastic impact maps qd by M^dagger M = P, the projector of the contact
    # mode it lands in; that mode's acceleration is P applied to the free one
    tag, P = ("C", np.zeros((2, 2))) if p.friction == "infinite-stick" else (
        "S", np.array([[c * c, -s * c], [-s * c, s * s]]))

    def liftoff(t, x):
        """Normal force m a_g c - s u1 - c u2, through the free acceleration."""
        a1, a2 = accel(t, x)
        return -m * (s * a1 + c * a2)

    return HybridSystem(
        modes=(free, mode(P), free),
        transitions=(impact(P), TransitionSpec(1, 2, GuardSpec(g=liftoff), identity_reset(4)),
                     apex(2)),
        mode_names=("U", tag, "V"),
        transition_names=(f"U->{tag}", f"{tag}->V", "V->U"),
    )


def ball_drop(params: Optional[BallDropParams] = None) -> tuple[RigidBodyModel, HybridSystem]:
    """Point mass dropping onto an inclined plane.

    Returns the rigid-body model (for the contact machinery) and a hybrid
    system with equivalent closed-form fields, guards, and resets.
    """
    p = params if params is not None else BallDropParams()
    return _ball_drop_model(p), _ball_drop_system(p)


def bouncing_ball(e: float = 0.5, a_g: float = 9.81) -> HybridSystem:
    """Vertical bouncing ball: state (height, velocity), one self-loop impact."""
    if not 0.0 <= e:
        raise ValueError("e must be >= 0")
    if a_g <= 0.0:
        raise ValueError("a_g must be positive")
    field = affine_field(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, -a_g]))
    guard = linear_guard(np.array([1.0, 0.0]))
    reset = affine_reset(np.array([[1.0, 0.0], [0.0, -e]]), np.zeros(2))
    return HybridSystem(
        modes=(field,),
        transitions=(TransitionSpec(0, 0, guard, reset),),
        mode_names=("ball",),
        transition_names=("impact",),
    )


def constant_flow_two_mode(f_i: np.ndarray, f_j: np.ndarray, guard_normal: np.ndarray,
                           offset: float = 0.0) -> HybridSystem:
    """Two constant vector fields separated by a hyperplane guard.

    The guard is g(x) = guard_normal . x + offset, positive in mode 0's
    domain; the reset is the identity. The first field must approach the
    guard surface (guard_normal . f_i < 0) so the crossing is transversal.
    """
    f_i = np.asarray(f_i, dtype=float)
    f_j = np.asarray(f_j, dtype=float)
    w = np.asarray(guard_normal, dtype=float)
    n = f_i.size
    if f_j.size != n or w.size != n:
        raise ValueError("f_i, f_j, guard_normal must share one dimension")
    if float(w @ f_i) >= 0.0:
        raise ValueError("guard_normal . f_i must be negative (flow toward the guard)")
    zero = np.zeros((n, n))
    return HybridSystem(
        modes=(affine_field(zero, f_i), affine_field(zero, f_j)),
        transitions=(TransitionSpec(0, 1, linear_guard(w, offset), identity_reset(n)),),
        mode_names=("before", "after"),
        transition_names=("cross",),
    )


# ---------------------------------------------------------------------------
# affine JSON format


AFFINE_FORMAT = "saltlib-affine-v1"


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}/{key}", "missing required key")
    return doc[key]


def _as_array(obj, path: str, shape: tuple[int, ...]) -> np.ndarray:
    kind = "matrix" if len(shape) == 2 else "vector"
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(path, f"expected a numeric {kind}") from None
    if arr.shape != shape:
        want = f"shape {shape}" if len(shape) == 2 else f"length {shape[0]}"
        raise SchemaError(path, f"expected {want}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(path, f"{kind} entries must be finite")
    return arr


def load_affine(source: Union[str, Path, dict]) -> HybridSystem:
    """Build a hybrid system from the portable affine JSON description.

    source is the parsed document (a dict), a file (a Path, or a string that
    does not start with '{' or '['), or else JSON text.
    Affine modes dx/dt = A x + c, guards w . x + b + a t, resets M x + r.
    Raises SchemaError with a JSON-pointer-style path on any defect.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if isinstance(source, Path) or not text.lstrip().startswith(("{", "[")):
            try:
                text = Path(source).read_text()
            except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
                raise SchemaError(text, f"cannot read file: {exc}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from None

    if not isinstance(doc, dict):
        raise SchemaError("", "document root must be an object")
    fmt = _need(doc, "format", "")
    if fmt != AFFINE_FORMAT:
        raise SchemaError("/format", f"expected {AFFINE_FORMAT!r}, got {fmt!r}")

    modes_doc = _need(doc, "modes", "")
    if not isinstance(modes_doc, list) or not modes_doc:
        raise SchemaError("/modes", "must be a non-empty array")
    modes: list[VectorFieldSpec] = []
    mode_names: list[str] = []
    for i, mdoc in enumerate(modes_doc):
        path = f"/modes/{i}"
        if not isinstance(mdoc, dict):
            raise SchemaError(path, "mode must be an object")
        dim = _need(mdoc, "dim", path)
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise SchemaError(f"{path}/dim", "must be a positive integer")
        A = _as_array(_need(mdoc, "A", path), f"{path}/A", (dim, dim))
        c = _as_array(_need(mdoc, "c", path), f"{path}/c", (dim,))
        modes.append(affine_field(A, c))
        name = mdoc.get("name", f"mode{i}")
        if not isinstance(name, str):
            raise SchemaError(f"{path}/name", "must be a string")
        mode_names.append(name)

    trans_doc = _need(doc, "transitions", "")
    if not isinstance(trans_doc, list):
        raise SchemaError("/transitions", "must be an array")
    transitions: list[TransitionSpec] = []
    transition_names: list[str] = []
    for i, tdoc in enumerate(trans_doc):
        path = f"/transitions/{i}"
        if not isinstance(tdoc, dict):
            raise SchemaError(path, "transition must be an object")
        src = _need(tdoc, "from", path)
        dst = _need(tdoc, "to", path)
        for label, val in (("from", src), ("to", dst)):
            if not isinstance(val, int) or not 0 <= val < len(modes):
                raise SchemaError(f"{path}/{label}", f"must be a mode index in [0, {len(modes)})")
        n_src = modes[src].dim
        n_dst = modes[dst].dim
        gdoc = _need(tdoc, "guard", path)
        if not isinstance(gdoc, dict):
            raise SchemaError(f"{path}/guard", "guard must be an object")
        w = _as_array(_need(gdoc, "normal", f"{path}/guard"), f"{path}/guard/normal", (n_src,))
        b = gdoc.get("offset", 0.0)
        a = gdoc.get("time_coeff", 0.0)
        for label, val in (("offset", b), ("time_coeff", a)):
            if not isinstance(val, (int, float)) or not np.isfinite(val):
                raise SchemaError(f"{path}/guard/{label}", "must be a finite number")
        two_sided = gdoc.get("two_sided", False)
        if not isinstance(two_sided, bool):
            raise SchemaError(f"{path}/guard/two_sided", "must be a boolean")
        guard = replace(linear_guard(w, float(b), float(a)), two_sided=two_sided)
        rdoc = _need(tdoc, "reset", path)
        if not isinstance(rdoc, dict):
            raise SchemaError(f"{path}/reset", "reset must be an object")
        M = _as_array(_need(rdoc, "M", f"{path}/reset"), f"{path}/reset/M", (n_dst, n_src))
        r = _as_array(rdoc.get("b", np.zeros(n_dst)), f"{path}/reset/b", (n_dst,))
        transitions.append(TransitionSpec(src, dst, guard, affine_reset(M, r)))
        name = tdoc.get("name", f"t{i}")
        if not isinstance(name, str):
            raise SchemaError(f"{path}/name", "must be a string")
        transition_names.append(name)

    return HybridSystem(
        modes=tuple(modes),
        transitions=tuple(transitions),
        mode_names=tuple(mode_names),
        transition_names=tuple(transition_names),
    )
