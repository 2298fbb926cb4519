"""System construction, factory helpers, and structural validation."""

import numpy as np
import pytest

import saltlib as sl
from saltlib import fd


def test_affine_field_value_and_jacobian():
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    c = np.array([0.5, -1.0])
    spec = sl.affine_field(A, c)
    x = np.array([0.7, -0.4])
    assert spec.dim == 2
    np.testing.assert_allclose(spec.f(0.0, x), A @ x + c, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(spec.jacobian(0.0, x), A)


def test_affine_field_broadcasts_over_batch():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    c = np.array([0.1, 0.2])
    spec = sl.affine_field(A, c)
    X = np.random.default_rng(0).standard_normal((5, 2))
    out = spec.f(0.0, X)
    assert out.shape == (5, 2)
    np.testing.assert_allclose(out, X @ A.T + c, rtol=0, atol=1e-15)


def test_linear_guard_value_and_gradients():
    n = np.array([0.6, 0.8])
    g = sl.linear_guard(n, offset=-0.25, time_coeff=0.5)
    x = np.array([1.0, 2.0])
    assert g.value(2.0, x) == pytest.approx(n @ x - 0.25 + 0.5 * 2.0)
    np.testing.assert_allclose(g.grad_x(2.0, x), n, atol=1e-15)
    assert g.grad_t(2.0, x) == pytest.approx(0.5)
    assert not g.two_sided


def test_affine_reset_and_jacobians():
    M = np.array([[1.0, 0.0], [0.3, 0.7]])
    b = np.array([0.0, -0.1])
    r = sl.affine_reset(M, b)
    x = np.array([2.0, -1.0])
    np.testing.assert_allclose(r.apply(0.0, x), M @ x + b, atol=1e-15)
    np.testing.assert_array_equal(r.jacobian_x(0.0, x), M)
    np.testing.assert_allclose(r.jacobian_t(0.0, x), np.zeros(2), atol=1e-15)


def test_identity_reset_is_exact():
    r = sl.identity_reset(3)
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(r.apply(1.0, x), x)
    np.testing.assert_array_equal(r.jacobian_x(1.0, x), np.eye(3))


def test_guard_finite_difference_gradients_match_analytic():
    # quadratic guard with explicit time dependence, no supplied jacobians
    g = sl.GuardSpec(g=lambda t, x: x[0] ** 2 - 0.5 * x[1] + 0.2 * t)
    x = np.array([0.8, -0.3])
    np.testing.assert_allclose(g.grad_x(1.0, x), [2 * 0.8, -0.5], rtol=1e-7)
    assert g.grad_t(1.0, x) == pytest.approx(0.2, rel=1e-7)


def test_guard_returning_one_element_array_gets_a_flat_gradient():
    g = sl.GuardSpec(g=lambda t, x: np.array([x[0] ** 2 - 0.5 * x[1]]))
    grad = g.grad_x(0.0, np.array([0.8, -0.3]))
    assert grad.shape == (2,)
    np.testing.assert_allclose(grad, [2 * 0.8, -0.5], rtol=1e-7)


def test_guard_returning_one_element_array_simulates_like_a_scalar_guard():
    def run(g):
        modes = (sl.affine_field(np.zeros((2, 2)), np.array([1.0, -1.0])),
                 sl.affine_field(np.zeros((2, 2)), np.array([1.0, 0.0])))
        sys_ = sl.HybridSystem(modes=modes, transitions=(
            sl.TransitionSpec(0, 1, sl.GuardSpec(g=g), sl.identity_reset(2)),))
        traj = sl.simulate(sys_, 0, np.array([0.0, 1.0]), (0.0, 2.0))
        return [(seg.times.tobytes(), seg.states.tobytes()) for seg in traj.segments]

    scalar = run(lambda t, x: x[1])
    assert len(scalar) == 2
    assert run(lambda t, x: np.array([x[1]])) == scalar
    grad_t = sl.GuardSpec(g=lambda t, x: np.array([x[1] + 0.2 * t])).grad_t(1.0, np.zeros(2))
    assert isinstance(grad_t, float)
    assert grad_t == pytest.approx(0.2, rel=1e-7)
    with pytest.raises(TypeError):
        sl.GuardSpec(g=lambda t, x: x).value(0.0, np.zeros(2))


def test_vector_field_finite_difference_jacobian():
    spec = sl.VectorFieldSpec(dim=2, f=lambda t, x: np.array([np.sin(x[1]), x[0] * x[1]]))
    x = np.array([0.4, 1.1])
    expected = np.array([[0.0, np.cos(1.1)], [1.1, 0.4]])
    np.testing.assert_allclose(spec.jacobian(0.0, x), expected, rtol=1e-6, atol=1e-9)


def test_fd_step_is_clamped_for_small_and_scaled_for_large():
    # derivative of x**2 at large |x| needs the relative step to stay accurate
    f = lambda t, x: np.array([x[0] ** 2])
    big = fd.jac_x(f, 0.0, np.array([1e6]))[0, 0]
    assert big == pytest.approx(2e6, rel=1e-7)
    small = fd.jac_x(f, 0.0, np.array([0.0]))[0, 0]
    assert small == pytest.approx(0.0, abs=1e-9)


def test_fd_jacobian_of_a_scalar_on_a_stack_equals_its_rows():
    # one finite-difference Jacobian serves 1-D states and (N, n) stacks: a
    # scalar function gets one gradient per row, the row's own bit for bit
    def g(t, x):
        return x[..., 0] ** 2 * np.sin(x[..., 1]) + 0.3 * t * x[..., 2]

    rng = np.random.default_rng(4)
    X = rng.standard_normal((7, 3)) * np.array([1.0, 10.0, 1e3])
    T = rng.uniform(-2.0, 2.0, 7)
    for t in (0.4, T):
        stack = fd.jac_x(g, t, X)
        assert stack.shape == (7, 3)
        for r in range(7):
            row = fd.jac_x(g, t if np.isscalar(t) else t[r], X[r])
            assert row.shape == (3,)
            np.testing.assert_array_equal(stack[r], row)


@pytest.mark.parametrize("build", [
    lambda: sl.bouncing_ball(e=0.5),
    lambda: sl.ball_drop(sl.BallDropParams(theta=0.3))[1],
    lambda: sl.ball_drop(sl.BallDropParams(theta=0.3, friction="infinite-stick"))[1],
    lambda: sl.ball_drop(sl.BallDropParams(theta=0.3, e=0.8))[1],
    lambda: sl.constant_flow_two_mode(np.array([1.0, -1.0]), np.array([1.0, 0.0]),
                                      np.array([0.0, 1.0]), 0.0),
])
def test_builtins_validate_clean(build):
    assert sl.validate_system(build()) == []


def test_validate_flags_invalid_mode_id():
    sys_ = sl.HybridSystem(
        modes=(sl.affine_field(np.zeros((2, 2)), np.zeros(2)),),
        transitions=(sl.TransitionSpec(0, 7, sl.linear_guard(np.array([1.0, 0.0])),
                                       sl.identity_reset(2)),),
    )
    diags = sl.validate_system(sys_)
    assert len(diags) == 1 and "invalid" in diags[0] and "7" in diags[0]


def test_validate_flags_duplicate_edge():
    guard = sl.linear_guard(np.array([1.0, 0.0]))
    sys_ = sl.HybridSystem(
        modes=(sl.affine_field(np.zeros((2, 2)), np.zeros(2)),
               sl.affine_field(np.zeros((2, 2)), np.zeros(2))),
        transitions=(sl.TransitionSpec(0, 1, guard, sl.identity_reset(2)),
                     sl.TransitionSpec(0, 1, guard, sl.identity_reset(2))),
    )
    diags = sl.validate_system(sys_)
    assert len(diags) == 1 and "duplicate" in diags[0]


def test_system_outgoing_and_labels():
    sys_ = sl.bouncing_ball(e=0.5)
    out = sys_.outgoing(0)
    assert [i for i, _ in out] == [0]
    assert sys_.mode_label(0) == "ball"
    assert sys_.dim(0) == 2


def test_constant_flow_rejects_non_transversal_approach():
    with pytest.raises(ValueError):
        sl.constant_flow_two_mode(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]), 0.0)
