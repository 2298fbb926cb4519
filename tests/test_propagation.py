"""Variational flows, monodromy, covariance push-forward, Riccati recursions."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saltlib as sl
from saltlib import propagation
from saltlib.errors import NonFiniteState, NotPeriodic, SingularInputPenalty, TangentialEvent
from saltlib.propagation import ValueState

G = 9.81
T1 = np.sqrt(2.0 / G)


def _single_mode(field):
    return sl.HybridSystem(modes=(field,), transitions=())


def test_variational_ballistic_is_unit_shear():
    sys_ = sl.bouncing_ball(e=0.5)
    A = sl.variational_flow(sys_, 0, 0.0, np.array([1.0, 0.0]), 0.3)
    np.testing.assert_allclose(A, [[1.0, 0.3], [0.0, 1.0]], rtol=0, atol=1e-12)


def test_variational_matches_matrix_exponential():
    alpha, omega = 0.05, 2.0
    A = np.array([[alpha, -omega], [omega, alpha]])
    sys_ = _single_mode(sl.affine_field(A, np.zeros(2)))
    M = sl.variational_flow(sys_, 0, 0.0, np.array([1.0, -0.5]), 1.0)
    rot = np.exp(alpha) * np.array([[np.cos(omega), -np.sin(omega)],
                                    [np.sin(omega), np.cos(omega)]])
    np.testing.assert_allclose(M, rot, rtol=0, atol=1e-9)


def test_variational_flow_composes_across_subintervals():
    sys_ = _single_mode(sl.VectorFieldSpec(
        dim=2, f=lambda t, x: np.array([x[1], -np.sin(x[0])])))
    x0 = np.array([1.0, 0.0])
    x_half = sl.flow_to(sys_.modes[0].f, 0.0, x0, 0.5, 1e-3)
    whole = sl.variational_flow(sys_, 0, 0.0, x0, 1.0)
    first = sl.variational_flow(sys_, 0, 0.0, x0, 0.5)
    second = sl.variational_flow(sys_, 0, 0.5, x_half, 1.0)
    np.testing.assert_allclose(second @ first, whole, rtol=0, atol=1e-9)


@pytest.mark.parametrize("t1, step", [(0.65, 1.0), (0.65, 0.03)], ids=["1 substep", "14 substeps"])
def test_variational_flow_is_rk4_of_the_augmented_state(t1, step):
    # pins the one RK4 kernel: the variational flow is flow_to of
    # z = (x, vec M) under (f(t, x), D_x f(t, x) M), bit for bit
    def jac(t, x):
        return np.array([[0.0, 1.0], [-np.cos(x[0]), 0.0]])

    field = sl.VectorFieldSpec(dim=2, f=lambda t, x: np.array([x[1], -np.sin(x[0])]), jac_x=jac)

    def augmented(t, z):
        return np.concatenate([field.f(t, z[:2]), (jac(t, z[:2]) @ z[2:].reshape(2, 2)).ravel()])

    t0, x0 = 0.25, np.array([1.0, 0.3])
    z = sl.flow_to(augmented, t0, np.concatenate([x0, np.eye(2).ravel()]), t1, step)
    A = sl.variational_flow(_single_mode(field), 0, t0, x0, t1, step)
    np.testing.assert_array_equal(A, z[2:].reshape(2, 2))


def test_fundamental_matrix_is_flow_saltation_sandwich():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    fund = sl.fundamental_matrix(sys_, traj)
    assert fund.n_events == 1
    assert fund.t_start == 0.0 and fund.t_end == 0.6
    ev = traj.events[0]
    xi = sl.saltation_matrix(sys_, ev).xi
    shear = lambda dt: np.array([[1.0, dt], [0.0, 1.0]])
    expected = shear(0.6 - ev.t_event) @ xi @ shear(ev.t_event)
    np.testing.assert_allclose(fund.phi, expected, rtol=0, atol=1e-9)


def test_fundamental_matrix_matches_finite_difference_flow_jacobian():
    sys_ = sl.bouncing_ball(e=0.5)
    x0 = np.array([1.0, 0.0])
    traj = sl.simulate(sys_, 0, x0, (0.0, 0.6))
    phi = sl.fundamental_matrix(sys_, traj).phi
    h = 1e-6
    cols = []
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h
        hi = sl.simulate(sys_, 0, x0 + dx, (0.0, 0.6)).x_end
        lo = sl.simulate(sys_, 0, x0 - dx, (0.0, 0.6)).x_end
        cols.append((hi - lo) / (2.0 * h))
    fd_jac = np.stack(cols, axis=1)
    assert float(np.abs(fd_jac - phi).max()) <= 1e-4 * max(1.0, float(np.abs(phi).max()))


def _counted(base):
    """base with every mode's Jacobian appending its time to the returned list."""
    calls = []

    def counting(field):
        def jac(t, x):
            calls.append(t)
            return field.jacobian(t, x)
        return dataclasses.replace(field, jac_x=jac)

    return dataclasses.replace(base, modes=tuple(counting(m) for m in base.modes)), calls


def _intervals(traj):
    return sum(seg.times.size - 1 for seg in traj.segments)


def _three_folds(sys_, traj, cold=False):
    """Fundamental, covariance and LQR in turn, with identity weights and
    inputs on the second half of the state. With cold, each fold runs on its
    own copy of the system, so none reuses another's linearization."""
    fresh = (lambda: dataclasses.replace(sys_)) if cold else (lambda: sys_)
    n0, n1 = sys_.dim(traj.segments[0].mode), sys_.dim(traj.segments[-1].mode)
    B = np.zeros((n1, n1 // 2))
    B[n1 // 2:] = np.eye(n1 // 2)
    return (sl.fundamental_matrix(fresh(), traj),
            sl.propagate_covariance(fresh(), traj, 1e-4 * np.eye(n0)),
            sl.hybrid_lqr_backward(fresh(), traj, np.eye(n1), np.eye(n1 // 2), B, np.eye(n1)))


@pytest.mark.parametrize("t0", [0.0, 1e4])
def test_linearization_takes_one_rk4_step_per_sample_interval(t0):
    # each fold alone takes one RK4 step (4 Jacobian calls) per sample
    # interval of the simulated grid, and the three folds in turn on one
    # system share one linearization
    sys_, calls = _counted(sl.bouncing_ball(e=0.5))
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (t0, t0 + 0.6))
    intervals = _intervals(traj)
    folds = (
        lambda s: sl.fundamental_matrix(s, traj),
        lambda s: sl.propagate_covariance(s, traj, 1e-4 * np.eye(2)),
        lambda s: sl.hybrid_lqr_backward(s, traj, np.eye(2), np.eye(1),
                                         np.array([[0.0], [1.0]]), np.eye(2)),
    )
    for fold in folds:
        calls.clear()
        fold(dataclasses.replace(sys_))  # another system: a cold memo
        assert len(calls) == 4 * intervals
    calls.clear()
    for fold in folds:
        fold(sys_)
    assert len(calls) == 4 * intervals


def _bounce_traj():
    sys_, calls = _counted(sl.bouncing_ball(e=0.5))
    return sys_, calls, sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))


def test_linearization_memo_misses_on_edited_states_step_and_system():
    sys_, calls, traj = _bounce_traj()
    intervals = _intervals(traj)
    sl.fundamental_matrix(sys_, traj)
    calls.clear()
    sl.fundamental_matrix(sys_, traj)
    assert calls == []

    traj.segments[0].states[3, 1] += 1e-3
    sl.fundamental_matrix(sys_, traj)
    assert len(calls) == 4 * intervals

    calls.clear()
    sl.fundamental_matrix(sys_, traj, step=2e-3)
    assert len(calls) == 4 * intervals

    calls.clear()
    phi = sl.fundamental_matrix(sys_, traj).phi
    other = sl.fundamental_matrix(dataclasses.replace(sys_), traj).phi
    assert len(calls) == 2 * 4 * intervals
    assert np.array_equal(phi, other)


def test_linearization_memo_holds_one_entry_and_returns_equal_results():
    sys_, calls, traj_a = _bounce_traj()
    traj_b = sl.simulate(sys_, 0, np.array([0.7, 0.5]), (0.0, 0.6))
    first = _three_folds(sys_, traj_a)
    _three_folds(sys_, traj_b)
    calls.clear()
    again = _three_folds(sys_, traj_a)
    assert len(calls) == 4 * _intervals(traj_a)
    _assert_folds_equal(first, again)


def test_linearization_failure_is_raised_on_every_call():
    # a non-finite Jacobian on the way, then a tangential event record
    base = sl.bouncing_ball(e=0.5)
    field = base.modes[0]
    sys_nan = dataclasses.replace(base, modes=(dataclasses.replace(
        field, jac_x=lambda t, x: np.full((2, 2), np.nan)),))
    traj = sl.simulate(sys_nan, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    for _ in range(2):
        with pytest.raises(NonFiniteState):
            sl.fundamental_matrix(sys_nan, traj)

    sys_, calls, traj = _bounce_traj()
    sl.fundamental_matrix(sys_, traj)
    grazing = dataclasses.replace(traj, events=(dataclasses.replace(
        traj.events[0], x_minus=np.zeros(2), x_plus=np.zeros(2)),))
    for _ in range(2):
        calls.clear()
        with pytest.raises(TangentialEvent):
            sl.fundamental_matrix(sys_, grazing)
        assert len(calls) == 4 * _intervals(grazing)


def test_linearization_memo_arrays_are_read_only():
    sys_, _, traj = _bounce_traj()
    flows, xis = propagation._linearize(sys_, traj, 1e-3)
    for a in (flows[0][0], flows[-1][-1], xis[0]):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    # fold outputs are fresh arrays
    sl.fundamental_matrix(sys_, traj).phi[0, 0] = 1.0


def test_linearization_memo_does_not_keep_the_system_alive():
    sys_, _, traj = _bounce_traj()
    sl.fundamental_matrix(sys_, traj)
    alive = weakref.ref(sys_)
    del sys_
    gc.collect()
    assert alive() is None


def _assert_folds_equal(a, b):
    fund_a, cov_a, lqr_a = a
    fund_b, cov_b, lqr_b = b
    assert np.array_equal(fund_a.phi, fund_b.phi)
    assert len(cov_a) == len(cov_b)
    assert all(np.array_equal(x.sigma, y.sigma) for x, y in zip(cov_a, cov_b))
    for name in ("gains", "values"):
        xs, ys = getattr(lqr_a, name), getattr(lqr_b, name)
        assert len(xs) == len(ys)
        assert all(np.array_equal(x, y) for x, y in zip(xs, ys))


def _memo_systems():
    p = sl.BallDropParams(theta=0.3)
    model, slide = sl.ball_drop(p)
    _, stick = sl.ball_drop(dataclasses.replace(p, friction="infinite-stick"))
    switch = sl.HybridSystem(
        modes=(sl.affine_field(np.array([[0.0, 1.0], [-2.0, -0.3]]), np.array([0.0, 0.6])),
               sl.affine_field(np.array([[0.0, 1.0], [-1.0, -0.9]]), np.zeros(2))),
        transitions=(sl.TransitionSpec(0, 1, sl.linear_guard(np.array([1.0, 0.0]), offset=0.1),
                                       sl.identity_reset(2)),),
    )
    drop = np.array([0.0, 0.5, 0.3, 0.0])
    return {
        "slide": (slide, drop, 0.6),
        "stick": (stick, drop, 0.6),
        "bounce": (sl.bouncing_ball(e=0.5), np.array([0.3, 0.0]), 0.6),
        "switch": (switch, np.array([1.0, -0.2]), 2.2),
        "generic": (sl.build_hybrid_system(model), drop, 0.4),
    }


@pytest.mark.parametrize("kind", ["slide", "stick", "bounce", "switch", "generic"])
def test_warm_folds_equal_cold_folds_bit_for_bit(kind):
    sys_, x0, span = _memo_systems()[kind]
    traj = sl.simulate(sys_, 0, x0, (0.0, span))
    assert traj.events
    _assert_folds_equal(_three_folds(sys_, traj, cold=True), _three_folds(sys_, traj))


def test_fold_shapes_are_checked_before_linearizing():
    _, drop = sl.ball_drop(sl.BallDropParams(theta=0.3))
    sys_, calls = _counted(drop)
    traj = sl.simulate(sys_, 0, np.array([0.0, 0.5, 0.3, 0.0]), (0.0, 0.6))
    calls.clear()
    with pytest.raises(ValueError, match=r"sigma0 has shape \(3, 3\), expected \(4, 4\)"):
        sl.propagate_covariance(sys_, traj, np.eye(3))
    B = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"P_terminal has shape \(3, 3\), expected \(4, 4\)"):
        sl.hybrid_lqr_backward(sys_, traj, np.eye(4), np.eye(2), B, np.eye(3))
    assert calls == []

    sys_, calls = _counted(sl.bouncing_ball(e=0.5))
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    calls.clear()
    B = np.array([[0.0], [1.0]])
    cases = [
        ((np.eye(2), np.eye(2), B), r"V has shape \(2, 2\), expected \(1, 1\)"),
        ((np.eye(3), np.eye(1), B), r"Q has shape \(3, 3\), expected \(2, 2\)"),
        ((np.eye(2), np.eye(1), np.ones((3, 1))), r"B has shape \(3, 1\), expected \(2, k\)"),
        ((np.eye(2), np.eye(1), lambda t: np.ones(2)), r"B has shape \(2,\), expected \(2, k\)"),
    ]
    for (Q, V, B_), message in cases:
        with pytest.raises(ValueError, match=message):
            sl.hybrid_lqr_backward(sys_, traj, Q, V, B_, np.eye(2))
    assert calls == []


def test_monodromy_circle_orbit_is_marginal():
    A = np.array([[0.0, -np.pi], [np.pi, 0.0]])
    sys_ = _single_mode(sl.affine_field(A, np.zeros(2)))
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 2.0))
    rep = sl.monodromy(sys_, traj)
    assert rep.verdict == "marginal"
    assert not rep.stable
    np.testing.assert_allclose(np.abs(rep.multipliers), 1.0, rtol=0, atol=1e-9)
    assert rep.period == 2.0


@pytest.mark.parametrize("alpha,verdict", [(-0.3, "stable"), (0.3, "unstable")])
def test_monodromy_verdict_from_equilibrium_loop(alpha, verdict):
    A = np.array([[alpha, -2.0], [2.0, alpha]])
    sys_ = _single_mode(sl.affine_field(A, np.zeros(2)))
    traj = sl.simulate(sys_, 0, np.zeros(2), (0.0, 1.0))
    rep = sl.monodromy(sys_, traj)
    assert rep.verdict == verdict
    assert rep.stable == (verdict == "stable")
    np.testing.assert_allclose(np.abs(rep.multipliers), np.exp(alpha), rtol=0, atol=1e-9)
    np.testing.assert_allclose(rep.lyapunov, alpha, rtol=0, atol=1e-9)


def test_monodromy_multipliers_pair_with_exponents():
    A = np.array([[-0.3, -2.0], [2.0, -0.3]])
    sys_ = _single_mode(sl.affine_field(A, np.zeros(2)))
    traj = sl.simulate(sys_, 0, np.zeros(2), (0.0, 1.0))
    rep = sl.monodromy(sys_, traj)
    # multipliers sorted by decreasing magnitude and sigma = exp(mu * T)
    mags = np.abs(rep.multipliers)
    assert np.all(np.diff(mags) <= 1e-15)
    np.testing.assert_allclose(np.exp(rep.exponents * rep.period), rep.multipliers,
                               rtol=0, atol=1e-9)


def test_elastic_bounce_monodromy_is_unit_shear():
    # apex-anchored elastic orbit: period 2*t1, monodromy [[1, 0], [2/t1, 1]]
    sys_ = sl.bouncing_ball(e=1.0)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 2.0 * T1))
    rep = sl.monodromy(sys_, traj)
    np.testing.assert_allclose(rep.phi, [[1.0, 0.0], [2.0 / T1, 1.0]], rtol=0, atol=1e-8)
    np.testing.assert_allclose(np.abs(rep.multipliers), 1.0, rtol=0, atol=1e-4)
    assert rep.period == pytest.approx(2.0 * T1, abs=1e-9)


def test_monodromy_rejects_open_trajectory():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    with pytest.raises(NotPeriodic):
        sl.monodromy(sys_, traj)


def test_covariance_single_mode_closed_form():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([5.0, 0.0]), (0.0, 0.4))
    assert len(traj.events) == 0
    sigma0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    states = sl.propagate_covariance(sys_, traj, sigma0)
    shear = np.array([[1.0, 0.4], [0.0, 1.0]])
    np.testing.assert_allclose(states[-1].sigma, shear @ sigma0 @ shear.T,
                               rtol=0, atol=1e-12)
    assert states[0].t == 0.0 and states[-1].t == 0.4


def test_covariance_jump_applies_saltation_congruence():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    xi = sl.saltation_matrix(sys_, traj.events[0]).xi
    states = sl.propagate_covariance(sys_, traj, 1e-4 * np.eye(2))
    boundary = [k for k in range(len(states) - 1) if states[k].t == states[k + 1].t]
    assert len(boundary) == 1
    k = boundary[0]
    np.testing.assert_allclose(states[k + 1].sigma, xi @ states[k].sigma @ xi.T,
                               rtol=0, atol=1e-15)
    assert states[k].mode == 0 and states[k + 1].mode == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_covariance_stays_symmetric_and_psd(seed):
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((2, 2))
    sigma0 = L @ L.T + 1e-6 * np.eye(2)
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    for state in sl.propagate_covariance(sys_, traj, sigma0):
        assert np.array_equal(state.sigma, state.sigma.T)
        scale = max(1.0, float(np.abs(state.sigma).max()))
        assert float(np.linalg.eigvalsh(state.sigma).min()) >= -1e-10 * scale


def test_riccati_jump_formula_and_mode_override():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    res = sl.saltation_matrix(sys_, traj.events[0])
    p_plus = ValueState(t=traj.events[0].t_event, mode=0,
                        p=np.array([[3.0, 1.0], [1.0, 2.0]]))
    q = np.array([[0.5, 0.0], [0.0, 0.5]])
    out = sl.riccati_jump(res, p_plus, q_stage=q)
    expected = res.xi.T @ p_plus.p @ res.xi + q
    np.testing.assert_allclose(out.p, 0.5 * (expected + expected.T), rtol=0, atol=1e-12)
    assert out.t == p_plus.t and out.mode == 0
    assert sl.riccati_jump(res, p_plus, mode_minus=3).mode == 3


def test_riccati_jump_rejects_mismatched_shapes():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    res = sl.saltation_matrix(sys_, traj.events[0])
    with pytest.raises(ValueError):
        sl.riccati_jump(res, ValueState(t=0.0, mode=0, p=np.eye(3)))
    with pytest.raises(ValueError):
        sl.riccati_jump(res, ValueState(t=0.0, mode=0, p=np.eye(2)),
                        q_stage=np.eye(3))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_riccati_jump_preserves_symmetry_and_psd(seed):
    rng = np.random.default_rng(seed)
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    res = sl.saltation_matrix(sys_, traj.events[0])
    Lp = rng.standard_normal((2, 2))
    Lq = rng.standard_normal((2, 2))
    p_plus = ValueState(t=0.0, mode=0, p=Lp @ Lp.T)
    out = sl.riccati_jump(res, p_plus, q_stage=Lq @ Lq.T)
    assert np.array_equal(out.p, out.p.T)
    scale = max(1.0, float(np.abs(out.p).max()))
    assert float(np.linalg.eigvalsh(out.p).min()) >= -1e-10 * scale


def _riccati_ode_oracle(A, B, Q, V, P_T, horizon, n_steps):
    # independent backward RK4 integration of the continuous Riccati equation
    def deriv(P):
        return -(A.T @ P + P @ A - P @ B @ np.linalg.solve(V, B.T @ P) + Q)

    h = horizon / n_steps
    P = P_T.copy()
    for _ in range(n_steps):
        k1 = deriv(P)
        k2 = deriv(P - 0.5 * h * k1)
        k3 = deriv(P - 0.5 * h * k2)
        k4 = deriv(P - h * k3)
        P = P - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return P


def test_lqr_backward_matches_riccati_ode_on_double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    Q = np.eye(2)
    V = np.array([[1.0]])
    P_T = np.eye(2)
    sys_ = _single_mode(sl.affine_field(A, np.zeros(2)))
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 1.0))
    sol = sl.hybrid_lqr_backward(sys_, traj, Q, V, B, P_T)
    oracle = _riccati_ode_oracle(A, B, Q, V, P_T, 1.0, 4000)
    np.testing.assert_allclose(sol.value_at_start(), oracle, rtol=0.01, atol=1e-3)
    # stationary gain direction: K ~ V^-1 B^T P
    k0 = sol.gain_at(0.0)
    np.testing.assert_allclose(k0, np.linalg.solve(V, B.T @ oracle), rtol=0.05, atol=5e-3)


def test_lqr_zero_input_matrix_gives_zero_gains():
    sys_ = _single_mode(sl.affine_field(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2)))
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.5))
    sol = sl.hybrid_lqr_backward(sys_, traj, np.eye(2), np.eye(1),
                                 np.zeros((2, 1)), np.eye(2))
    assert all(np.array_equal(K, np.zeros((1, 2))) for K in sol.gains)


def test_lqr_singular_input_penalty_raises():
    sys_ = _single_mode(sl.affine_field(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2)))
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.5))
    with pytest.raises(SingularInputPenalty):
        sl.hybrid_lqr_backward(sys_, traj, np.eye(2), np.zeros((1, 1)),
                               np.zeros((2, 1)), np.eye(2))


def test_lqr_value_jump_uses_saltation_congruence():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    sol = sl.hybrid_lqr_backward(sys_, traj, np.eye(2), np.eye(1),
                                 np.array([[0.0], [1.0]]), np.eye(2))
    assert len(sol.values) == len(sol.node_times)
    boundary = [k for k in range(len(sol.node_times) - 1)
                if sol.node_times[k] == sol.node_times[k + 1]]
    assert len(boundary) == 1
    k = boundary[0]
    xi = sl.saltation_matrix(sys_, traj.events[0]).xi
    expected = xi.T @ sol.values[k + 1] @ xi
    np.testing.assert_allclose(sol.values[k], 0.5 * (expected + expected.T),
                               rtol=0, atol=1e-12)
    # gain lookup covers the whole span with right-open intervals
    assert sol.gain_at(-1.0).shape == (1, 2)
    assert sol.gain_at(0.599).shape == (1, 2)
