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
from saltlib.simulate import _STACK, _NotBroadcast

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


class _JacobianCalls:
    """Jacobian calls of a counted system: `stacked` holds the row count
    (np.size(t)) of each call on a stack of states (K, n), `one_row` the time
    of each call on one 1-D state, such as the stacked pass's broadcast
    probes."""

    def __init__(self):
        self.stacked, self.one_row = [], []

    def clear(self):
        self.stacked.clear()
        self.one_row.clear()

    @property
    def rows(self) -> int:
        """States the stacked calls evaluated the Jacobian on."""
        return sum(self.stacked)

    @property
    def calls(self) -> int:
        return len(self.stacked) + len(self.one_row)


def _counted(base):
    """base with every mode's Jacobian logging its calls to the returned _JacobianCalls."""
    calls = _JacobianCalls()

    def counting(field):
        def jac(t, x):
            if np.ndim(x) == 2:
                calls.stacked.append(np.size(t))
            else:
                calls.one_row.append(t)
            return field.jacobian(t, x)
        return dataclasses.replace(field, jac_x=jac)

    return dataclasses.replace(base, modes=tuple(counting(m) for m in base.modes)), calls


def _intervals(traj):
    return sum(seg.times.size - 1 for seg in traj.segments)


def _stacked_segments(traj):
    return sum(seg.times.size > 1 for seg in traj.segments)


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
    # each fold alone takes one RK4 step per sample interval of the
    # simulated grid: per segment, one stacked pass of 4 Jacobian calls on
    # one row per interval, plus the broadcast probe's one-row calls on the
    # first and last row (the bouncing ball's Jacobian is one constant
    # matrix); the three folds in turn on one system share one linearization
    sys_, calls = _counted(sl.bouncing_ball(e=0.5))
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (t0, t0 + 0.6))
    intervals, segments = _intervals(traj), _stacked_segments(traj)
    assert all(seg.times.size > 2 for seg in traj.segments)
    folds = (
        lambda s: sl.fundamental_matrix(s, traj),
        lambda s: sl.propagate_covariance(s, traj, 1e-4 * np.eye(2)),
        lambda s: sl.hybrid_lqr_backward(s, traj, np.eye(2), np.eye(1),
                                         np.array([[0.0], [1.0]]), np.eye(2)),
    )
    one_pass = (4 * intervals, 4 * segments, 2 * segments)
    for fold in folds:
        calls.clear()
        fold(dataclasses.replace(sys_))  # another system: a cold memo
        assert (calls.rows, len(calls.stacked), len(calls.one_row)) == one_pass
    calls.clear()
    for fold in folds:
        fold(sys_)
    assert (calls.rows, len(calls.stacked), len(calls.one_row)) == one_pass


def _bounce_traj():
    sys_, calls = _counted(sl.bouncing_ball(e=0.5))
    return sys_, calls, sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))


def test_linearization_memo_misses_on_edited_states_step_and_system():
    sys_, calls, traj = _bounce_traj()
    intervals = _intervals(traj)
    stacked = 4 * _stacked_segments(traj)
    sl.fundamental_matrix(sys_, traj)
    calls.clear()
    sl.fundamental_matrix(sys_, traj)
    assert calls.calls == 0

    traj.segments[0].states[3, 1] += 1e-3
    sl.fundamental_matrix(sys_, traj)
    assert (calls.rows, len(calls.stacked)) == (4 * intervals, stacked)

    calls.clear()
    sl.fundamental_matrix(sys_, traj, step=2e-3)
    assert (calls.rows, len(calls.stacked)) == (4 * intervals, stacked)

    calls.clear()
    phi = sl.fundamental_matrix(sys_, traj).phi
    other = sl.fundamental_matrix(dataclasses.replace(sys_), traj).phi
    assert (calls.rows, len(calls.stacked)) == (2 * 4 * intervals, 2 * stacked)
    assert np.array_equal(phi, other)


def test_linearization_memo_holds_one_entry_and_returns_equal_results():
    sys_, calls, traj_a = _bounce_traj()
    traj_b = sl.simulate(sys_, 0, np.array([0.7, 0.5]), (0.0, 0.6))
    first = _three_folds(sys_, traj_a)
    _three_folds(sys_, traj_b)
    calls.clear()
    again = _three_folds(sys_, traj_a)
    assert calls.rows == 4 * _intervals(traj_a)
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
        assert calls.rows == 4 * _intervals(grazing)


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
    drop = np.array([0.0, 0.5, 0.3, 0.0])
    return {
        "slide": (slide, drop, 0.6),
        "stick": (stick, drop, 0.6),
        "bounce": (sl.bouncing_ball(e=0.5), np.array([0.3, 0.0]), 0.6),
        "switch": (sl.field_switch(), np.array([1.0, -0.2]), 2.2),
        "generic": (sl.build_hybrid_system(model), drop, 0.4),
    }


@pytest.mark.parametrize("kind", ["slide", "stick", "bounce", "switch", "generic"])
def test_warm_folds_equal_cold_folds_bit_for_bit(kind):
    sys_, x0, span = _memo_systems()[kind]
    traj = sl.simulate(sys_, 0, x0, (0.0, span))
    assert traj.events
    _assert_folds_equal(_three_folds(sys_, traj, cold=True), _three_folds(sys_, traj))


def _pendulum(jac):
    """Damped, driven pendulum whose field broadcasts over a stack of states."""
    def f(t, x):
        return np.stack([x[..., 1], -np.sin(x[..., 0]) - 0.1 * x[..., 1] + 0.3 * np.cos(t)], axis=-1)

    return _single_mode(sl.VectorFieldSpec(dim=2, f=f, jac_x=jac))


def _pendulum_jacobian(t, x):
    x = np.asarray(x, dtype=float)
    J = np.empty(x.shape + (2,))
    J[..., 0, 0], J[..., 0, 1] = 0.0, 1.0
    J[..., 1, 0], J[..., 1, 1] = -np.cos(x[..., 0]), -0.1
    return J


def _stacked_systems():
    systems = _memo_systems()
    _, forced = sl.ball_drop(sl.BallDropParams(
        theta=0.3, u1=lambda t, x: 0.7 * t - 0.4 * x[..., 0],
        u2=lambda t, x: 0.5 + 0.3 * x[..., 3] - 2.0 * t))
    systems["pendulum"] = (_pendulum(_pendulum_jacobian), np.array([1.2, 0.0]), 0.6)
    systems["forced"] = (forced, np.array([0.0, 0.5, 0.3, 0.0]), 0.6)
    return systems


def _assert_flows_are_variational_flows(sys_, traj, flows):
    for seg, seg_flows in zip(traj.segments, flows):
        assert seg_flows.shape == (seg.times.size - 1,) + (sys_.dim(seg.mode),) * 2
        for i, A in enumerate(seg_flows):
            one = sl.variational_flow(sys_, seg.mode, seg.times[i], seg.states[i], seg.times[i + 1])
            np.testing.assert_array_equal(A, one)


@pytest.mark.parametrize("kind", ["slide", "bounce", "switch", "pendulum", "forced", "generic"])
def test_stacked_linearization_equals_variational_flow_on_every_interval(kind):
    # one stacked RK4 pass per segment gives each interval's flow bit for
    # bit; the generic rigid-body fields reject a stack and fall back to one
    # interval at a time, with the same result
    sys_, x0, span = _stacked_systems()[kind]
    traj = sl.simulate(sys_, 0, x0, (0.0, span))
    assert kind == "pendulum" or traj.events
    flows, _ = propagation._linearize(sys_, traj, 1e-3)
    _assert_flows_are_variational_flows(sys_, traj, flows)
    for seg in traj.segments:
        stack = (_STACK, sys_, seg.mode, seg.times[:-1], seg.states[:-1], seg.times[1:], 1e-3)
        if kind == "generic":
            with pytest.raises(_NotBroadcast):
                propagation._flows(*stack)
        else:
            propagation._flows(*stack)


def test_stacked_linearization_falls_back_on_one_state_callables():
    # a Jacobian written for one 1-D state that returns one (n, n) matrix on
    # a stack: row 0 matches it, the last row does not
    J0, E = np.array([[0.0, 1.0], [0.0, -0.1]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    sys_ = _pendulum(lambda t, x: J0 - np.cos(x[0]) * E)
    traj = sl.simulate(sys_, 0, np.array([1.2, 0.0]), (0.0, 0.3))
    seg = traj.segments[0]
    with pytest.raises(_NotBroadcast, match="Jacobian on a stack disagrees"):
        propagation._flows(_STACK, sys_, 0, seg.times[:-1], seg.states[:-1], seg.times[1:], 1e-3)
    _assert_flows_are_variational_flows(sys_, traj, propagation._linearize(sys_, traj, 1e-3)[0])

    # a field written for one state meets a stack of as many rows as states
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    sys_ = _single_mode(sl.VectorFieldSpec(dim=2, f=lambda t, x: A @ x, jac_x=lambda t, x: A))
    traj = sl.simulate(sys_, 0, np.array([1.0, -0.5]), (0.0, 2e-3))
    assert traj.segments[0].times.size - 1 == 2
    _assert_flows_are_variational_flows(sys_, traj, propagation._linearize(sys_, traj, 1e-3)[0])


def test_stacked_linearization_reports_the_first_non_finite_interval():
    # intervals of 2e-3 take two substeps at step 1e-3 and the last, short
    # one takes one; the Jacobian turns NaN after t = 5e-3, so every later
    # interval fails, and the error names the first, as one interval at a
    # time in order does
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])

    def jac(t, x):
        return np.where(np.asarray(t)[..., None, None] > 5e-3, np.nan, A)

    sys_ = _single_mode(sl.VectorFieldSpec(dim=2, f=lambda t, x: x @ A.T, jac_x=jac))
    traj = sl.simulate(sys_, 0, np.array([1.0, -0.5]), (0.0, 0.0101), sl.SimOptions(step=2e-3))
    seg = traj.segments[0]
    assert seg.times[-1] - seg.times[-2] < 1e-3
    expected = None
    for i in range(seg.times.size - 1):
        try:
            sl.variational_flow(sys_, 0, seg.times[i], seg.states[i], seg.times[i + 1])
        except NonFiniteState as exc:
            expected = str(exc)
            break
    assert expected == "non-finite variational flow over [0.004, 0.006] in mode 0"
    for _ in range(2):
        with pytest.raises(NonFiniteState) as info:
            sl.fundamental_matrix(sys_, traj)
        assert str(info.value) == expected


def _first_failing_sample(sys_, traj, sigma0):
    """The ValueError of the first sample that fails CovarianceState's own
    check, with the samples pushed forward one at a time."""
    flows, xis = propagation._linearize(sys_, traj, 1e-3)
    sigma = propagation._sym(sigma0)
    for k, (seg, seg_flows) in enumerate(zip(traj.segments, flows)):
        if k > 0:
            sigma = propagation._sym(xis[k - 1] @ sigma @ xis[k - 1].T)
        for i in range(seg.times.size):
            if i > 0:
                sigma = propagation._sym(seg_flows[i - 1] @ sigma @ seg_flows[i - 1].T)
            try:
                propagation.CovarianceState(t=float(seg.times[i]), mode=seg.mode, sigma=sigma)
            except ValueError as exc:
                return str(exc)
    return None


def test_covariance_check_raises_at_the_first_failing_sample():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    sigma0 = np.diag([1.0, -1.0])
    message = _first_failing_sample(sys_, traj, sigma0)
    assert message == "covariance min eigenvalue -1.000e+00 below -1e-10*scale"
    with pytest.raises(ValueError) as info:
        sl.propagate_covariance(sys_, traj, sigma0)
    assert str(info.value) == message

    # a negative direction within tolerance at t = 0 that the flow stretches
    # past it near t = ln(2) / 2
    sys_ = _single_mode(sl.affine_field(np.diag([-1.0, 1.0]), np.zeros(2)))
    traj = sl.simulate(sys_, 0, np.zeros(2), (0.0, 0.6))
    sigma0 = np.diag([1.0, -5e-11])
    message = _first_failing_sample(sys_, traj, sigma0)
    assert message is not None and message.startswith("covariance min eigenvalue -1.00")
    with pytest.raises(ValueError) as info:
        sl.propagate_covariance(sys_, traj, sigma0)
    assert str(info.value) == message


def test_fold_outputs_own_their_data():
    sys_, _, traj = _bounce_traj()
    fund, cov, lqr = _three_folds(sys_, traj)
    outputs = [fund.phi, *(state.sigma for state in cov), *lqr.values, *lqr.gains]
    assert all(a.base is None and a.flags.writeable for a in outputs)
    flows, xis = propagation._linearize(sys_, traj, 1e-3)
    assert all(a.base is None and not a.flags.writeable for a in (*flows, *xis))


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
    assert calls.calls == 0

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
    assert calls.calls == 0


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


# --- the folds as scans against the folds one interval at a time ------------


def _sequential_folds(sys_, traj, sigma0, Q, V, B, P_T, step=1e-3):
    """Fundamental matrix, covariances and LQR values and gains by the
    per-interval loops that the stacked scans replaced, on the same
    linearization."""
    flows, xis = propagation._linearize(sys_, traj, step)
    at = {name: (m if callable(m) else (lambda t, m=m: m)) for name, m in
          (("Q", Q), ("V", V), ("B", B))}
    phi = np.eye(sys_.dim(traj.segments[0].mode))
    sigma, sigmas = propagation._sym(sigma0), []
    for k, seg_flows in enumerate(flows):
        if k > 0:
            phi = xis[k - 1] @ phi
            sigma = propagation._sym(xis[k - 1] @ sigma @ xis[k - 1].T)
        sigmas.append(sigma)
        for A in seg_flows:
            phi = A @ phi
            sigma = propagation._sym(A @ sigma @ A.T)
            sigmas.append(sigma)
    p = propagation._sym(np.asarray(P_T, dtype=float))
    values, gains = [p], []
    for k in reversed(range(len(traj.segments))):
        times = traj.segments[k].times
        for i in reversed(range(len(flows[k]))):
            A, t0 = flows[k][i], float(times[i])
            dt = float(times[i + 1]) - t0
            B_k, Q_k, V_k = dt * at["B"](t0), dt * at["Q"](t0), dt * at["V"](t0)
            S = propagation._sym(V_k + B_k.T @ p @ B_k)
            try:
                np.linalg.cholesky(S)
            except np.linalg.LinAlgError as exc:
                raise SingularInputPenalty(
                    f"input penalty not positive definite on interval starting t={t0}") from exc
            K = np.linalg.solve(S, B_k.T @ p @ A)
            p = propagation._sym(Q_k + A.T @ p @ (A - B_k @ K))
            gains.append(K)
            values.append(p)
        if k > 0:
            p = propagation._sym(xis[k - 1].T @ p @ xis[k - 1])
            values.append(p)
    return phi, sigmas, values[::-1], gains[::-1]


def _rel_gap(xs, ys):
    """Largest entry gap between two equally long lists of matrices, relative
    to the largest entry of ys."""
    assert len(xs) == len(ys) and all(np.shape(x) == np.shape(y) for x, y in zip(xs, ys))
    return (max(float(np.abs(np.subtract(x, y)).max()) for x, y in zip(xs, ys))
            / max(float(np.abs(y).max()) for y in ys))


def _input_weights(n):
    """Identity state weights, 0.5 input weights, inputs on the second half."""
    B = np.zeros((n, n // 2))
    B[n // 2:] = np.eye(n // 2)
    return np.eye(n), 0.5 * np.eye(n // 2), B, np.eye(n)


def _assert_scans_match_loops(sys_, traj, Q, V, B, P_T, sigma0, step=1e-3, tol=1e-10):
    phi, sigmas, values, gains = _sequential_folds(sys_, traj, sigma0, Q, V, B, P_T, step)
    fund = sl.fundamental_matrix(sys_, traj, step)
    cov = sl.propagate_covariance(sys_, traj, sigma0, step)
    lqr = sl.hybrid_lqr_backward(sys_, traj, Q, V, B, P_T, step)
    assert len(cov) == len(sigmas) and len(lqr.values) == len(values)
    assert len(lqr.gains) == len(gains) == len(lqr.gain_times)
    assert _rel_gap([fund.phi], [phi]) <= tol
    assert _rel_gap([c.sigma for c in cov], sigmas) <= tol
    assert _rel_gap(lqr.values, values) <= tol
    if gains:
        assert _rel_gap(lqr.gains, gains) <= tol


def _combine_element(rng, n):
    L, M = rng.standard_normal((2, n, n))
    return np.eye(n) + 0.3 * rng.standard_normal((n, n)), 0.1 * L @ L.T, 0.1 * M @ M.T


@pytest.mark.parametrize("n", [2, 4])
def test_scan_combine_is_associative(n):
    rng = np.random.Generator(np.random.Philox(11 + n))
    for _ in range(20):
        e1, e2, e3 = (_combine_element(rng, n) for _ in range(3))
        left = propagation._combine(*propagation._combine(*e1, *e2), *e3)
        right = propagation._combine(*e1, *propagation._combine(*e2, *e3))
        for x, y in zip(left, right):
            assert _rel_gap([x], [y]) <= 1e-12
        # closing a span on P is combining it with (0, 0, P)
        zero = np.zeros((n, n))
        closed = propagation._close(*e1, e2[2])
        assert _rel_gap([closed], [propagation._combine(*e1, zero, zero, e2[2])[2]]) <= 1e-12


@pytest.mark.parametrize("kind", ["slide", "stick", "bounce", "switch", "pendulum", "generic"])
def test_scan_folds_match_the_per_interval_loops(kind):
    sys_, x0, span = _stacked_systems()[kind]
    traj = sl.simulate(sys_, 0, x0, (0.0, span))
    n = sys_.dim(0)
    _assert_scans_match_loops(sys_, traj, *_input_weights(n), 1e-4 * np.eye(n))


def test_scan_folds_match_the_loops_over_1101_intervals():
    # the 2.2 s switch reference of the oracle tests, 814 and 287 intervals:
    # the LQR scan's blocks span 29 and 17 intervals, and each interval of
    # 2e-3 s is two substeps
    sys_ = sl.field_switch()
    traj = sl.simulate(sys_, 0, np.array([1.0, -0.2]), (0.0, 2.2), sl.SimOptions(step=2e-3))
    assert [seg.times.size - 1 for seg in traj.segments] == [814, 287]
    _assert_scans_match_loops(sys_, traj, *_input_weights(2), 1e-4 * np.eye(2))


def test_scan_folds_match_the_loops_across_a_reset_into_a_larger_space():
    # a reset from R^2 into R^3: Xi is 3 x 2, and Q and B change shape with
    # the segment
    A1 = np.array([[-0.5, 1.0, 0.0], [-1.0, -0.2, 0.3], [0.1, 0.0, -0.4]])
    sys_ = sl.HybridSystem(
        modes=(sl.affine_field(np.array([[0.0, 1.0], [-1.0, -0.2]]), np.array([0.0, -1.0])),
               sl.affine_field(A1, np.zeros(3))),
        transitions=(sl.TransitionSpec(
            0, 1, sl.linear_guard(np.array([1.0, 0.0])),
            sl.affine_reset(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                            np.array([0.0, 0.0, 0.5]))),),
    )
    traj = sl.simulate(sys_, 0, np.array([0.5, -0.5]), (0.0, 1.0))
    assert [seg.mode for seg in traj.segments] == [0, 1]
    t_ev = traj.events[0].t_event
    B2, B3 = np.array([[0.0], [1.0]]), np.array([[0.0], [1.0], [0.5]])
    Q = lambda t: np.eye(2) if t < t_ev else np.diag([1.0, 2.0, 3.0])
    B = lambda t: B2 if t < t_ev else B3
    _assert_scans_match_loops(sys_, traj, Q, np.eye(1), B, np.eye(3), 1e-4 * np.eye(2))
    assert sl.fundamental_matrix(sys_, traj).phi.shape == (3, 2)


@pytest.mark.parametrize("lengths", [(1, 0), (0, 1), (1, 1)])
def test_scan_folds_match_the_loops_on_segments_of_one_and_no_interval(lengths):
    # the bounce's first event, with the samples around it cut down to
    # `lengths` intervals before and after
    sys_ = sl.bouncing_ball(e=0.5)
    full = sl.simulate(sys_, 0, np.array([0.3, 0.0]), (0.0, 0.4))
    before, after = full.segments[:2]
    traj = sl.HybridTrajectory(
        segments=(dataclasses.replace(before, times=before.times[-1 - lengths[0]:],
                                      states=before.states[-1 - lengths[0]:]),
                  dataclasses.replace(after, times=after.times[:1 + lengths[1]],
                                      states=after.states[:1 + lengths[1]])),
        events=full.events[:1])
    assert [seg.times.size - 1 for seg in traj.segments] == list(lengths)
    _assert_scans_match_loops(sys_, traj, *_input_weights(2), 1e-4 * np.eye(2))


def _rank_one_inputs():
    """The double integrator with two input columns of which only the first
    acts, so B^T P B is singular and S is definite exactly where V is."""
    sys_ = _single_mode(sl.affine_field(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2)))
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.5))
    return sys_, traj, np.array([[0.0, 0.0], [1.0, 0.0]])


def test_lqr_penalty_singular_on_one_interval_raises_there():
    sys_, traj, B = _rank_one_inputs()
    t_bad = float(traj.segments[0].times[200])
    V = lambda t: np.zeros((2, 2)) if t == t_bad else np.eye(2)
    with pytest.raises(SingularInputPenalty) as want:
        _sequential_folds(sys_, traj, np.eye(2), np.eye(2), V, B, np.eye(2))
    assert str(want.value) == f"input penalty not positive definite on interval starting t={t_bad}"
    with pytest.raises(SingularInputPenalty) as got:
        sl.hybrid_lqr_backward(sys_, traj, np.eye(2), V, B, np.eye(2))
    assert str(got.value) == str(want.value)


def test_lqr_penalty_failing_on_the_scan_path_raises_at_the_latest_interval():
    # V is definite, but a negative state weight drives P negative going
    # back, until S = V_k + B_k^T P B_k fails on the interval starting at
    # t = 0.483, the 17th from the end
    sys_, traj, _ = _rank_one_inputs()
    Q, B = -1e4 * np.eye(2), np.array([[0.0], [1.0]])
    with pytest.raises(SingularInputPenalty) as want:
        _sequential_folds(sys_, traj, np.eye(2), Q, np.eye(1), B, np.zeros((2, 2)))
    with pytest.raises(SingularInputPenalty) as got:
        sl.hybrid_lqr_backward(sys_, traj, Q, np.eye(1), B, np.zeros((2, 2)))
    assert str(got.value) == str(want.value)


def test_lqr_zero_penalty_with_a_definite_s_keeps_the_loop_values():
    # V = 0 has no inverse for the scan; B^T P B alone keeps S definite, and
    # the segment takes the per-interval recursion
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    B = np.array([[0.0], [1.0]])
    _, _, values, gains = _sequential_folds(sys_, traj, np.eye(2), np.eye(2), np.zeros((1, 1)),
                                            B, np.eye(2))
    sol = sl.hybrid_lqr_backward(sys_, traj, np.eye(2), np.zeros((1, 1)), B, np.eye(2))
    assert _rel_gap(sol.values, values) <= 1e-12
    assert _rel_gap(sol.gains, gains) <= 1e-12
