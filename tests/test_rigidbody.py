"""Contact mechanics: KKT blocks, forces, impact maps, closed-form saltations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saltlib as sl
from saltlib import rigidbody
from saltlib.errors import SingularConstraint, SlidingSingularity, TangentialEvent
from saltlib.rigidbody import ContactMode, mode_tags

G = 9.81


def _incline_model(theta, mu=0.6, input_fn=None):
    """Unit point mass on a plane tilted by theta, finite Coulomb friction."""
    s, c = np.sin(theta), np.cos(theta)
    return sl.RigidBodyModel(
        m=2,
        mass=lambda q: np.eye(2),
        coriolis=lambda q, qd: np.zeros((2, 2)),
        nonlin=lambda q, qd: np.array([0.0, G]),
        input=input_fn or (lambda t, q, qd: np.zeros(2)),
        g_n=lambda t, q: s * q[0] + c * q[1],
        J_n=lambda q: np.array([[s, c]]),
        J_t=lambda q: np.array([[c, -s]]),
        e=0.0,
        mu_s=mu,
        mu_k=mu,
    )


def _on_surface_state(theta, qd):
    # q on the contact surface, arbitrary tangential offset
    s, c = np.sin(theta), np.cos(theta)
    q = 0.7 * np.array([c, -s])
    return np.concatenate([q, np.asarray(qd, dtype=float)])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_dagger_blocks_satisfy_projection_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    L = rng.standard_normal((n, n))
    M = L @ L.T + 0.5 * np.eye(n)
    J = rng.standard_normal((1, n))
    if np.linalg.norm(J) < 1e-3:
        return
    blocks = sl.dagger_blocks(M, J)
    residual = blocks.m_dag @ M - (np.eye(n) - blocks.j_dag.T @ J)
    assert float(np.abs(residual).max()) <= 1e-10
    # annihilation: the constrained inverse maps J^T forces to nothing
    assert float(np.abs(J @ blocks.m_dag).max()) <= 1e-10 * max(1.0, float(np.abs(blocks.m_dag).max()))


def test_dagger_blocks_without_constraints_invert_mass():
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    blocks = sl.dagger_blocks(M, np.zeros((0, 2)))
    np.testing.assert_allclose(blocks.m_dag @ M, np.eye(2), rtol=0, atol=1e-12)
    assert blocks.j_dag.shape == (0, 2)
    assert blocks.lam_dag.shape == (0, 0)


def test_dagger_blocks_reject_degenerate_inputs():
    with pytest.raises(SingularConstraint):
        sl.dagger_blocks(np.eye(3), np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(SingularConstraint):
        sl.dagger_blocks(np.zeros((2, 2)), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        sl.dagger_blocks(np.eye(2), np.array([[1.0, 0.0, 0.0]]))


def _curved_model():
    """Frictionless point above the parabola q1 = 0.1 q0^2 whose mass matrix
    diag(1 + q0^2, 1 + q1^2), contact normal and tangent move with q:
    q0 -> -q0 changes the contact rows alone, a change of q1 the mass alone."""
    return sl.RigidBodyModel(
        m=2,
        mass=lambda q: np.diag([1.0 + q[0] ** 2, 1.0 + q[1] ** 2]),
        coriolis=lambda q, qd: np.zeros((2, 2)),
        nonlin=lambda q, qd: np.array([0.0, G]),
        input=lambda t, q, qd: np.zeros(2),
        g_n=lambda t, q: q[1] - 0.1 * q[0] ** 2,
        J_n=lambda q: np.array([[-0.2 * q[0], 1.0]]),
        J_t=lambda q: np.array([[1.0, 0.2 * q[0]]]),
    )


def _saltation_arrays(res):
    return np.concatenate([res.xi.ravel(), res.dxr.ravel(), res.f_plus])


# every public entry point that inverts the contact KKT system, S rows and C rows
_KKT_CALLS = [
    lambda model, x: sl.mode_dynamics(model, "S", 0.0, x),
    lambda model, x: sl.mode_dynamics(model, "C", 0.0, x),
    lambda model, x: sl.constraint_forces(model, "S", 0.0, x),
    lambda model, x: sl.constraint_forces(model, "C", 0.0, x),
    lambda model, x: sl.impact_reset(model, "S", 0.0, x),
    lambda model, x: sl.impact_reset(model, "C", 0.0, x),
    lambda model, x: sl.impact_impulse(model, "C", 0.0, x),
    lambda model, x: _saltation_arrays(sl.closed_form_saltation(model, ("U", "S"), 0.0, x)),
    lambda model, x: _saltation_arrays(sl.closed_form_saltation(model, ("U", "C"), 0.0, x)),
]


def test_kkt_memo_never_serves_blocks_of_another_state():
    # three states approaching the surface: the second shares the first's
    # mass matrix, the third its contact rows; on one model, alternating
    # states call by call, every result equals bit for bit that of a model
    # with a cold memo
    states = [np.array([0.5, 0.0, 0.3, -1.0]), np.array([-0.5, 0.0, 0.3, -1.0]),
              np.array([0.5, 0.7, 0.3, -1.0])]
    warm = _curved_model()
    for call in _KKT_CALLS:
        cold = [call(_curved_model(), x) for x in states]
        for k in (0, 1, 2, 0, 2, 1):
            assert call(warm, states[k]).tobytes() == cold[k].tobytes()
    assert len(warm._kkt_memo) == rigidbody._KKT_MEMO_SIZE  # bounded


def test_singular_constraint_is_raised_on_every_call():
    # J_t parallel to J_n: the two stick rows have rank one
    model = dataclasses.replace(_incline_model(0.0, mu=0.0), J_t=lambda q: np.array([[0.0, 2.0]]))
    x = np.array([0.3, 0.0, 0.5, -1.0])
    sl.mode_dynamics(model, "S", 0.0, x)  # the normal row alone is fine
    for _ in range(3):
        for call in (sl.mode_dynamics, sl.constraint_forces, sl.impact_reset):
            with pytest.raises(SingularConstraint):
                call(model, "C", 0.0, x)


def test_public_dagger_blocks_do_not_share_the_memo():
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.3, friction="infinite-stick"))
    x = _on_surface_state(0.3, [0.4, 0.0])
    q = x[:2]
    before = sl.mode_dynamics(model, "C", 0.0, x)
    M, J = model.mass(q), np.vstack([model.jn(q), model.jt(q)])
    blocks = sl.dagger_blocks(M, J)
    for a in (blocks.m_dag, blocks.j_dag, blocks.lam_dag):
        a[...] = 7.0
    assert sl.mode_dynamics(model, "C", 0.0, x).tobytes() == before.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        rigidbody._kkt_blocks(model, M, J).m_dag[0, 0] = 7.0


@pytest.mark.parametrize("friction, landing", [("frictionless-slide", "U->S"),
                                               ("infinite-stick", "U->C")])
def test_constant_contact_matrices_are_factored_a_few_times(monkeypatch, friction, landing):
    # M, J_n and J_t of the ball drop do not move with q, so a 0.6 s contact
    # run and its fundamental matrix need each KKT factorization only once
    # (without reuse: 8 619)
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.3, friction=friction))
    sys_ = sl.build_hybrid_system(model)
    factor = rigidbody.dagger_blocks
    shapes = []
    monkeypatch.setattr(rigidbody, "dagger_blocks",
                        lambda M, J: shapes.append(J.shape) or factor(M, J))
    traj = sl.simulate(sys_, 0, np.array([0.05, 0.8, 0.1, -0.2]), (0.0, 0.6))
    assert [sys_.transition_names[ev.transition_index] for ev in traj.events] == [landing]
    sl.fundamental_matrix(sys_, traj)
    assert 1 <= len(shapes) <= 3


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4])
def test_sliding_normal_force_matches_statics(theta):
    model, _ = sl.ball_drop(sl.BallDropParams(theta=theta))
    s, c = np.sin(theta), np.cos(theta)
    x = _on_surface_state(theta, [0.8 * c, -0.8 * s])
    forces = sl.constraint_forces(model, "S", 0.0, x)
    assert forces.shape == (1,)
    assert forces[0] == pytest.approx(G * c, abs=1e-8)


def test_stick_forces_balance_gravity():
    theta = 0.3
    model, _ = sl.ball_drop(sl.BallDropParams(theta=theta, friction="infinite-stick"))
    x = _on_surface_state(theta, [0.0, 0.0])
    forces = sl.constraint_forces(model, "C", 0.0, x)
    assert forces.shape == (2,)
    assert forces[0] == pytest.approx(G * np.cos(theta), abs=1e-8)
    q = x[:2]
    J = np.vstack([model.jn(q), model.jt(q)])
    np.testing.assert_allclose(J.T @ forces, [0.0, G], rtol=0, atol=1e-8)


def test_thrust_cancels_normal_force():
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.0, u2=lambda t, x: G))
    x = np.array([0.0, 0.0, 0.5, 0.0])
    forces = sl.constraint_forces(model, "S", 0.0, x)
    assert forces[0] == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_elastic_impact_reflects_normal_velocity(seed):
    rng = np.random.default_rng(seed)
    e = 0.7
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.3, e=e))
    qd = rng.uniform(-3.0, 3.0, size=2)
    q = 0.7 * np.array([np.cos(0.3), -np.sin(0.3)])
    jn = model.jn(q)[0]
    if jn @ qd > -0.1:
        return
    x_plus = sl.impact_reset(model, "V", 0.0, np.concatenate([q, qd]))
    np.testing.assert_array_equal(x_plus[:2], q)
    assert jn @ x_plus[2:] == pytest.approx(-e * (jn @ qd), abs=1e-10)
    jt = model.jt(q)[0]
    assert jt @ x_plus[2:] == pytest.approx(jt @ qd, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_plastic_impact_projects_and_dissipates(seed):
    rng = np.random.default_rng(seed)
    theta = 0.3
    q = 0.7 * np.array([np.cos(theta), -np.sin(theta)])
    qd = rng.uniform(-3.0, 3.0, size=2)
    slide, _ = sl.ball_drop(sl.BallDropParams(theta=theta))
    stick, _ = sl.ball_drop(sl.BallDropParams(theta=theta, friction="infinite-stick"))
    x = np.concatenate([q, qd])

    x_s = sl.impact_reset(slide, "S", 0.0, x)
    assert abs(slide.jn(q)[0] @ x_s[2:]) <= 1e-10
    x_c = sl.impact_reset(stick, "C", 0.0, x)
    np.testing.assert_allclose(x_c[2:], np.zeros(2), rtol=0, atol=1e-10)

    # plastic impacts never increase kinetic energy (unit mass matrix)
    for x_post in (x_s, x_c):
        assert 0.5 * x_post[2:] @ x_post[2:] <= 0.5 * qd @ qd + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_impulse_momentum_balance(seed):
    rng = np.random.default_rng(seed)
    theta = 0.3
    model, _ = sl.ball_drop(sl.BallDropParams(theta=theta, e=0.5))
    q = 0.7 * np.array([np.cos(theta), -np.sin(theta)])
    qd = rng.uniform(-3.0, 3.0, size=2)
    if model.jn(q)[0] @ qd > -0.1:
        return
    x = np.concatenate([q, qd])
    imp = sl.impact_impulse(model, "V", 0.0, x)
    qd_plus = sl.impact_reset(model, "V", 0.0, x)[2:]
    M = model.mass(q)
    np.testing.assert_allclose(M @ (qd_plus - qd), -model.jn(q).T @ imp,
                               rtol=0, atol=1e-10)


def test_mode_dynamics_free_fall_and_stick():
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.3, friction="infinite-stick"))
    x_free = np.array([0.0, 1.0, 0.5, -0.2])
    f = sl.mode_dynamics(model, "U", 0.0, x_free)
    np.testing.assert_allclose(f, [0.5, -0.2, 0.0, -G], rtol=0, atol=1e-9)
    x_stick = _on_surface_state(0.3, [0.0, 0.0])
    np.testing.assert_allclose(sl.mode_dynamics(model, "C", 0.0, x_stick),
                               np.zeros(4), rtol=0, atol=1e-9)


def test_mode_dynamics_frictionless_slide_accelerates_downhill():
    theta = 0.3
    model, _ = sl.ball_drop(sl.BallDropParams(theta=theta))
    x = _on_surface_state(theta, [0.0, 0.0])
    f = sl.mode_dynamics(model, "S", 0.0, x)
    s, c = np.sin(theta), np.cos(theta)
    # gravity component along the downhill tangent, which points toward +q1
    np.testing.assert_allclose(f[2:], G * s * np.array([c, -s]), rtol=0, atol=1e-8)


@pytest.mark.parametrize("theta", [0.0, np.pi / 6, 0.3, np.pi / 4, 1.0])
def test_slide_impact_closed_form_matches_trig_projector(theta):
    model, _ = sl.ball_drop(sl.BallDropParams(theta=theta))
    s, c = np.sin(theta), np.cos(theta)
    x = _on_surface_state(theta, [0.4, -2.0])
    if model.jn(x[:2])[0] @ x[2:] > -0.1:
        x[2:] = np.array([0.0, -2.0])
    res = sl.closed_form_saltation(model, ("U", "S"), 0.0, x)
    np.testing.assert_allclose(res.xi, sl.slide_impact_saltation(theta), rtol=0, atol=1e-9)


@pytest.mark.parametrize("mu", [0.05, 0.6])
def test_impact_into_kinetic_sliding_closed_form_matches_generic_and_oracle(mu):
    # the post-impact sliding field carries kinetic friction, so the lower-left
    # block of U->S differs from the frictionless projection's
    model = _incline_model(0.3, mu)
    sys_ = sl.build_hybrid_system(model)
    traj = sl.simulate(sys_, 0, np.array([0.0, 0.5, 1.0, 0.0]), (0.0, 0.6))
    ev = traj.events[0]
    assert sys_.transition_names[ev.transition_index] == "U->S"
    closed = sl.closed_form_saltation(model, ("U", "S"), ev.t_event, ev.x_minus).xi
    generic = sl.saltation_matrix(sys_, ev).xi
    # the generic fields take one 1-D state at a time: the oracle runs row by row
    numeric = sl.numeric_saltation(sys_, 0, ev.x_minus, ev.t_event,
                                   expected_transition=ev.transition_index)
    assert sl.matrix_rel_err(closed, generic) <= 1e-9
    assert sl.matrix_rel_err(numeric, generic) <= 1e-5
    assert sl.matrix_rel_err(numeric, closed) <= 1e-5
    assert np.abs(closed[2:, :2]).max() > 0.1


def test_stick_impact_closed_form_matches_rational_form():
    theta = 0.3
    model, _ = sl.ball_drop(sl.BallDropParams(theta=theta, friction="infinite-stick"))
    qd = np.array([0.4, -2.0])
    x = _on_surface_state(theta, qd)
    res = sl.closed_form_saltation(model, ("U", "C"), 0.0, x)
    np.testing.assert_allclose(res.xi, sl.stick_impact_saltation(theta, qd[0], qd[1]),
                               rtol=0, atol=1e-9)
    # upper-right block of every contact saltation matrix vanishes
    assert float(np.abs(res.xi[:2, 2:]).max()) <= 1e-10


def test_stick_impact_without_tangential_jacobian_matches_generic():
    # infinite stick with no J_t: the stick constraint is the normal row alone
    model = dataclasses.replace(_incline_model(0.3), J_t=None, mu_s=np.inf, mu_k=np.inf)
    sys_ = sl.build_hybrid_system(model)
    traj = sl.simulate(sys_, 0, np.array([0.0, 0.5, 1.0, 0.0]), (0.0, 0.6))
    ev = traj.events[0]
    assert sys_.transition_names[ev.transition_index] == "U->C"
    closed = sl.closed_form_saltation(model, ("U", "C"), ev.t_event, ev.x_minus).xi
    assert sl.matrix_rel_err(closed, sl.saltation_matrix(sys_, ev).xi) <= 1e-9


def test_stick_impact_zero_eigenvector_is_velocity_direction():
    theta = 0.3
    qd = np.array([0.7, -1.9])
    omega = sl.stick_impact_saltation(theta, qd[0], qd[1])[:2, :2]
    rep = sl.eigen_report(omega, zero_tol=1e-9)
    assert rep.zero_mask.sum() == 1
    v = rep.eigenvectors[:, rep.zero_mask][:, 0]
    cross = v[0] * qd[1] - v[1] * qd[0]
    assert abs(cross) <= 1e-8 * np.linalg.norm(qd)
    # the other eigenvalue is one
    other = rep.eigenvalues[~rep.zero_mask]
    np.testing.assert_allclose(other, [1.0], rtol=0, atol=1e-9)


def test_slide_impact_eigenstructure():
    theta = 0.3
    s, c = np.sin(theta), np.cos(theta)
    xi = sl.slide_impact_saltation(theta)
    rep = sl.eigen_report(xi, zero_tol=1e-9)
    eigs = np.sort(np.real(rep.eigenvalues))
    np.testing.assert_allclose(eigs, [0.0, 0.0, 1.0, 1.0], rtol=0, atol=1e-9)
    assert rep.zero_mask.sum() == 2
    for k in range(4):
        if not rep.zero_mask[k]:
            continue
        v = np.real(rep.eigenvectors[:, k])
        for half in (v[:2], v[2:]):
            assert abs(half[0] * c - half[1] * s) <= 1e-8


def test_apex_transition_saltation_is_identity():
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.3, e=0.5))
    x = np.array([0.3, 0.8, 0.4, 0.0])  # normal velocity zero at the apex
    res = sl.closed_form_saltation(model, ("V", "U"), 0.0, x)
    assert res.identity_shortcut
    np.testing.assert_array_equal(res.xi, np.eye(4))
    assert res.denom < 0.0  # approach accelerates into the guard


def test_impact_with_vanishing_normal_velocity_is_tangential():
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.3))
    x = _on_surface_state(0.3, [0.8 * np.cos(0.3), -0.8 * np.sin(0.3)])
    with pytest.raises(TangentialEvent):
        sl.closed_form_saltation(model, ("U", "S"), 0.0, x)


def test_sliding_singularity_requires_direction():
    model = _incline_model(0.3)
    x = _on_surface_state(0.3, [0.0, 0.0])
    with pytest.raises(SlidingSingularity):
        sl.mode_dynamics(model, "S", 0.0, x)
    f = sl.mode_dynamics(model, "S", 0.0, x, slide_direction=1.0)
    assert np.all(np.isfinite(f))
    with pytest.raises(SlidingSingularity):
        sl.constraint_forces(model, "S", 0.0, x)


def test_one_friction_direction_rule_for_fields_forces_and_slip_stop():
    # slide_direction, when given, must be nonzero; without it the tangential
    # speed must orient kinetic friction, else SlidingSingularity
    model = _incline_model(0.3)
    x = _on_surface_state(0.3, [0.0, 0.0])
    calls = (
        lambda **kw: sl.mode_dynamics(model, "S", 0.0, x, **kw),
        lambda **kw: sl.constraint_forces(model, "S", 0.0, x, **kw),
        lambda **kw: sl.closed_form_saltation(model, ("S", "C"), 0.0, x, **kw),
    )
    for call in calls:
        with pytest.raises(ValueError, match="nonzero"):
            call(slide_direction=0.0)
        with pytest.raises(SlidingSingularity):
            call()


def test_driven_stick_to_slip_is_identity_on_cone_boundary():
    # a ramped tangential push breaks the friction cone at t* = mu*G/alpha;
    # with mu_s = mu_k the stick and incipient-slide fields agree there, so
    # the onset-of-slip saltation is the identity
    mu, alpha = 0.6, 0.6 * G
    model = _incline_model(0.0, mu=mu,
                           input_fn=lambda t, q, qd: np.array([alpha * t, 0.0]))
    x = np.array([0.3, 0.0, 0.0, 0.0])
    res = sl.closed_form_saltation(model, ("C", "S"), 1.0, x, slide_direction=1.0)
    assert float(np.abs(res.xi - np.eye(4)).max()) <= 1e-6
    assert res.denom < 0.0


def test_static_cone_boundary_without_drive_is_tangential():
    # resting exactly on the cone boundary of a critical incline: the guard
    # does not move along the stick flow, so the crossing is tangential
    mu = 0.6
    theta = np.arctan(mu)
    model = _incline_model(theta, mu=mu)
    x = _on_surface_state(theta, [0.0, 0.0])
    with pytest.raises(TangentialEvent):
        sl.closed_form_saltation(model, ("C", "S"), 0.0, x, slide_direction=-1.0)


def test_slip_to_stick_structure_flags():
    theta = 0.3  # below the friction cone: sticking after the stop is stable
    model = _incline_model(theta, mu=0.6)
    x = _on_surface_state(theta, [0.0, 0.0])
    res = sl.closed_form_saltation(model, ("S", "C"), 0.0, x, slide_direction=1.0)
    rep = sl.classify_structure(res)
    assert rep.identity_reset
    assert rep.field_match is False
    assert rep.equal_diag_blocks is False


def test_mode_tags_follow_friction_regime():
    slide, sys_slide = sl.ball_drop(sl.BallDropParams(theta=0.3))
    stick, sys_stick = sl.ball_drop(sl.BallDropParams(theta=0.3, friction="infinite-stick"))
    elastic, sys_elastic = sl.ball_drop(sl.BallDropParams(theta=0.3, e=0.5))
    assert mode_tags(slide) == [ContactMode.U, ContactMode.S, ContactMode.V]
    assert mode_tags(stick) == [ContactMode.U, ContactMode.C, ContactMode.V]
    assert mode_tags(elastic) == [ContactMode.U, ContactMode.V]
    assert sys_slide.transition_names == ("U->S", "S->V", "V->U")
    assert sys_stick.transition_names == ("U->C", "C->V", "V->U")
    assert sys_elastic.transition_names == ("U->V", "V->U")
    finite = _incline_model(0.3)
    assert mode_tags(finite) == [ContactMode.U, ContactMode.S, ContactMode.C, ContactMode.V]
    sys_finite = sl.build_hybrid_system(finite)
    assert sys_finite.transition_names == ("U->S", "S->V", "V->U", "S->C", "C->S")
    assert sl.validate_system(sys_finite) == []


def test_model_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sl.BallDropParams(theta=np.pi / 2)
    with pytest.raises(ValueError):
        sl.BallDropParams(e=-0.1)
    with pytest.raises(ValueError):
        sl.BallDropParams(friction="sticky")
    with pytest.raises(ValueError):
        _incline_model(0.3, mu=-1.0)
    kwargs = dict(
        m=2, mass=lambda q: np.eye(2), coriolis=lambda q, qd: np.zeros((2, 2)),
        nonlin=lambda q, qd: np.array([0.0, G]), input=lambda t, q, qd: np.zeros(2),
        g_n=lambda t, q: q[1], J_n=lambda q: np.array([[0.0, 1.0]]),
    )
    with pytest.raises(ValueError):
        sl.RigidBodyModel(e=0.5, mu_s=0.4, mu_k=0.4, **kwargs)


def test_closed_form_rejects_unsupported_transition():
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.3))
    with pytest.raises(ValueError):
        sl.closed_form_saltation(model, ("V", "S"), 0.0, np.zeros(4))
