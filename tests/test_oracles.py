"""Numeric oracles: finite-difference saltation, Monte Carlo covariance,
brute-force rollout costs, and the comparison helpers."""

import importlib
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saltlib as sl
import saltlib.propagation
from saltlib.cli import _FAILURE_CODES
from saltlib.oracles import _blocked_pairwise_sum, _pairwise_sum
from saltlib.simulate import _STACK, _block_rows, _rollout, _stack_or_each_row, _substeps

# the engine module (the package's `simulate` name is the function)
engine = importlib.import_module("saltlib.simulate")


def _nonlinear_two_mode():
    f0 = sl.VectorFieldSpec(dim=2, f=lambda t, x: np.stack(
        [x[..., 1], -np.sin(x[..., 0])], axis=-1))
    f1 = sl.VectorFieldSpec(dim=2, f=lambda t, x: np.stack(
        [x[..., 1], -0.5 * np.sin(x[..., 0]) - 0.3 * x[..., 1]], axis=-1))
    guard = sl.linear_guard(np.array([1.0, 0.0]), offset=-0.2)
    reset = sl.affine_reset(np.array([[1.0, 0.0], [0.0, 0.8]]), np.array([0.1, 0.0]))
    tr = sl.TransitionSpec(from_mode=0, to_mode=1, guard=guard, reset=reset)
    return sl.HybridSystem(modes=(f0, f1), transitions=(tr,))


def _constant_flow():
    return sl.constant_flow_two_mode(np.array([1.0, -1.0]), np.array([1.0, 0.3]),
                                     np.array([0.0, 1.0]), 0.0)


def test_matrix_rel_err_scales_by_analytic_magnitude():
    analytic = np.array([[2.0, 0.0], [0.0, 2.0]])
    numeric = np.array([[2.1, 0.0], [0.0, 2.0]])
    assert sl.matrix_rel_err(numeric, analytic) == pytest.approx(0.05, abs=1e-15)
    small = np.array([[0.01, 0.0], [0.0, 0.01]])
    assert sl.matrix_rel_err(small + 0.001, small) == pytest.approx(0.001, abs=1e-15)


def test_compare_sets_pass_flag_and_serializes():
    analytic = np.eye(2)
    report = sl.compare("shift", analytic, analytic + 1e-3, rtol=1e-2)
    assert report.passed
    assert report.max_rel_err == pytest.approx(1e-3, rel=1e-10)
    tight = sl.compare("shift", analytic, analytic + 1e-3, rtol=1e-4)
    assert not tight.passed
    doc = report.to_dict()
    assert set(doc) == {"name", "analytic", "numeric", "max_rel_err", "pass"}
    assert doc["pass"] is True


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compare_is_exact_on_identical_inputs(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    assert sl.matrix_rel_err(m, m) == 0.0
    assert sl.compare("same", m, m, rtol=0.0).passed


def test_numeric_saltation_matches_analytic_on_nonlinear_transition():
    sys_ = _nonlinear_two_mode()
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 3.0))
    ev = traj.events[0]
    analytic = sl.saltation_matrix(sys_, ev).xi
    numeric = sl.numeric_saltation(sys_, 0, ev.x_minus, ev.t_event, h=1e-6)
    assert sl.matrix_rel_err(numeric, analytic) <= 1e-4


def test_numeric_saltation_error_contracts_quadratically_in_h():
    sys_ = _nonlinear_two_mode()
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 3.0))
    ev = traj.events[0]
    analytic = sl.saltation_matrix(sys_, ev).xi
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        numeric = sl.numeric_saltation(sys_, 0, ev.x_minus, ev.t_event, h=h)
        errs.append(float(np.abs(numeric - analytic).max()))
    for big, small in zip(errs, errs[1:]):
        assert 3.2 <= big / small <= 4.8


def test_numeric_saltation_matches_restitution_closed_form():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    ev = traj.events[0]
    analytic = sl.saltation_matrix(sys_, ev).xi
    numeric = sl.numeric_saltation(sys_, 0, ev.x_minus, ev.t_event)
    assert sl.matrix_rel_err(numeric, analytic) <= 1e-4


def test_numeric_saltation_rejects_wrong_state_size():
    sys_ = sl.bouncing_ball(e=0.5)
    with pytest.raises(ValueError):
        sl.numeric_saltation(sys_, 0, np.array([1.0, 0.0, 0.0]), 0.1)


def test_numeric_saltation_detects_perturbed_event_reordering():
    # two guards racing 1e-7 apart: a 1e-6 nudge flips which fires first
    zero = np.zeros((2, 2))
    race = sl.HybridSystem(
        modes=(sl.affine_field(zero, np.array([1.0, -1.0])),
               sl.affine_field(zero, np.array([0.5, 0.0])),
               sl.affine_field(zero, np.array([-0.5, 0.0]))),
        transitions=(
            sl.TransitionSpec(from_mode=0, to_mode=1,
                              guard=sl.linear_guard(np.array([-1.0, 0.0]), offset=1.0),
                              reset=sl.identity_reset(2)),
            sl.TransitionSpec(from_mode=0, to_mode=2,
                              guard=sl.linear_guard(np.array([0.0, 1.0]), offset=1e-7),
                              reset=sl.identity_reset(2)),
        ),
    )
    traj = sl.simulate(race, 0, np.array([0.0, 1.0]), (0.0, 1.5))
    ev = traj.events[0]
    assert ev.transition_index == 0
    # the batch reports the first perturbation, in coordinate order, that reorders
    with pytest.raises(sl.EventOrderChanged, match=r"perturbation -1h along coordinate 0 "
                                                   r"changed the first transition from 0 to 1"):
        sl.numeric_saltation(race, 0, ev.x_minus, ev.t_event)


def test_numeric_saltation_requires_an_event_near_the_anchor():
    sys_ = sl.bouncing_ball(e=0.5)
    with pytest.raises(sl.EventOrderChanged):
        sl.numeric_saltation(sys_, 0, np.array([1.0, 0.0]), 0.0)


def test_numeric_saltation_checks_expected_transition():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    ev = traj.events[0]
    with pytest.raises(sl.EventOrderChanged):
        sl.numeric_saltation(sys_, 0, ev.x_minus, ev.t_event, expected_transition=3)


# Ball drops whose reference row lands on the impact guard at a grid sample:
# numeric_saltation flows it back 5 steps and steps forward on the same grid.
# A bracket whose ends are evaluated again on the crossing rows alone can read
# the guard there, about 1e-19, with the other sign than the scan did.
_ON_GRID_DRAWS = {"slide": (125, 132, 139, 486, 689, 780, 908, 940, 1094, 1253),
                  "stick": (45, 46, 112, 522, 546, 728, 844, 924, 974, 1378, 1437)}


def _ball_drop_impact(i: int, kind: str, theta: float = 0.3, a_g: float = 9.81):
    """(t, x_minus) of the first touchdown of draw i: a drop above the
    incline, the first draw of a generator seeded [77, i] for a slide and
    the second for a stick, in closed form."""
    rng = np.random.default_rng([77, i])
    for _ in range(1 + (kind == "stick")):
        x0 = np.array([rng.uniform(-0.2, 0.2), rng.uniform(0.6, 1.0),
                       rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)])
    n = np.array([np.sin(theta), np.cos(theta)])
    d0, vn, an = float(n @ x0[:2]), float(n @ x0[2:]), a_g * n[1]
    t = (vn + np.sqrt(vn * vn + 2.0 * an * d0)) / an
    acc = np.array([0.0, -a_g])
    return t, np.concatenate([x0[:2] + x0[2:] * t + 0.5 * acc * t * t, x0[2:] + acc * t])


@pytest.mark.parametrize("kind", ["slide", "stick"])
def test_numeric_saltation_localizes_references_that_land_on_the_guard(kind):
    params = sl.BallDropParams(theta=0.3, friction="frictionless-slide" if kind == "slide"
                               else "infinite-stick")
    _, sys_ = sl.ball_drop(params)
    for i in _ON_GRID_DRAWS[kind]:
        t_e, x_minus = _ball_drop_impact(i, kind)
        xi = sl.numeric_saltation(sys_, 0, x_minus, t_e, expected_transition=0)
        closed = (sl.slide_impact_saltation(0.3) if kind == "slide"
                  else sl.stick_impact_saltation(0.3, *x_minus[2:]))
        assert sl.matrix_rel_err(xi, closed) < 1e-4, i


def test_monte_carlo_matches_linear_pushforward():
    sys_ = _constant_flow()
    opts = sl.SimOptions(step=5e-3)
    mean0 = np.array([0.0, 0.1])
    sigma0 = 1e-4 * np.eye(2)
    span = (0.0, 0.2)
    nominal = sl.simulate(sys_, 0, mean0, span, opts)
    xi = sl.saltation_matrix(sys_, nominal.events[0]).xi
    analytic = xi @ sigma0 @ xi.T
    sampled = sl.monte_carlo_covariance(sys_, 0, mean0, sigma0, span,
                                        n_samples=50_000, seed=0, options=opts)
    gap = np.linalg.norm(sampled - analytic) / np.linalg.norm(analytic)
    assert gap <= 0.05


def test_monte_carlo_is_reproducible_from_seed():
    sys_ = _constant_flow()
    opts = sl.SimOptions(step=5e-3)
    kw = dict(n_samples=5_000, seed=42, options=opts)
    a = sl.monte_carlo_covariance(sys_, 0, np.array([0.0, 0.1]), 1e-4 * np.eye(2),
                                  (0.0, 0.2), **kw)
    b = sl.monte_carlo_covariance(sys_, 0, np.array([0.0, 0.1]), 1e-4 * np.eye(2),
                                  (0.0, 0.2), **kw)
    np.testing.assert_array_equal(a, b)


def _one_row_only(sys_):
    """sys_ with fields that refuse a stack of rows, so the oracles fall
    back to running the engine one row at a time."""
    def one_row(spec):
        def f(t, x, _f=spec.f):
            if np.ndim(x) != 1:
                raise ValueError("this field takes one 1-D state")
            return _f(t, x)
        return replace(spec, f=f)
    return replace(sys_, modes=tuple(one_row(spec) for spec in sys_.modes))


def test_monte_carlo_loop_and_vectorized_paths_agree():
    sys_ = _constant_flow()
    opts = sl.SimOptions(step=5e-3)
    kw = dict(n_samples=200, seed=3, options=opts)
    vec = sl.monte_carlo_covariance(sys_, 0, np.array([0.0, 0.1]), 1e-4 * np.eye(2),
                                    (0.0, 0.2), **kw)
    loop = sl.monte_carlo_covariance(_one_row_only(sys_), 0, np.array([0.0, 0.1]),
                                     1e-4 * np.eye(2), (0.0, 0.2), **kw)
    assert float(np.abs(vec - loop).max()) <= 2e-15


def _event_code(traj, n_tr):
    code = 0
    for ev in traj.events:
        code = code * (n_tr + 1) + (ev.transition_index + 1)
    return code


def _elastic_incline_samples(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-0.1, 0.1, n), rng.uniform(0.2, 0.9, n),
                            rng.uniform(-0.8, 0.8, n), rng.uniform(-0.5, 0.5, n)])


def test_batch_rollout_applies_each_transition_once_per_pass():
    # row 0 lands in V in the same pass in which row 1 fires from V; the
    # V transition must not be applied to row 0 as well
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.2, e=0.8))
    X0 = np.array([[0.0098, 0.7836, 0.3104, 0.4072],
                   [-0.076, 0.3215, 0.7224, -0.1343]])
    opts = sl.SimOptions()
    _, codes = _rollout(_STACK, sys_, 0, 0.0, X0, 0.6, opts)
    n_tr = len(sys_.transitions)
    per_row = [_event_code(sl.simulate(sys_, 0, x, (0.0, 0.6), opts), n_tr) for x in X0]
    assert per_row == [1, 5]
    assert codes.tolist() == per_row


def test_batch_rollout_event_codes_match_per_row_simulation():
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.2, e=0.8))
    opts = sl.SimOptions(step=2e-3)
    X0 = _elastic_incline_samples(200, seed=0)
    _, codes = _rollout(_STACK, sys_, 0, 0.0, X0, 0.6, opts)
    n_tr = len(sys_.transitions)
    per_row = [_event_code(sl.simulate(sys_, 0, x, (0.0, 0.6), opts), n_tr) for x in X0]
    # impact only, impact then apex, and a second impact all occur
    assert len(set(per_row)) == 3
    assert codes.tolist() == per_row


def test_batch_rollout_is_equivariant_under_row_permutation():
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.2, e=0.8))
    opts = sl.SimOptions(step=2e-3)
    X0 = _elastic_incline_samples(200, seed=1)
    perm = np.random.default_rng(2).permutation(X0.shape[0])
    X_f, codes = _rollout(_STACK, sys_, 0, 0.0, X0, 0.6, opts)
    X_p, codes_p = _rollout(_STACK, sys_, 0, 0.0, X0[perm], 0.6, opts)
    assert len(set(codes.tolist())) > 1
    np.testing.assert_array_equal(codes_p, codes[perm])
    np.testing.assert_array_equal(X_p, X_f[perm])


def _two_crossing_system():
    # constant fields, coordinate guards and an identity reset, all written
    # elementwise (no matmul), so a row's arithmetic cannot depend on the
    # other rows of its batch
    def constant(c0, c1):
        def f(t, x):
            out = np.empty_like(x)
            out[..., 0] = c0
            out[..., 1] = c1
            return out
        return sl.VectorFieldSpec(dim=2, f=f)

    def coordinate_guard(i):
        return sl.GuardSpec(g=lambda t, x: x[..., i])

    reset = sl.ResetSpec(r=lambda t, x: np.array(x, dtype=float, copy=True))
    return sl.HybridSystem(
        modes=(constant(-1.0, -1.0), constant(-1.0, -1.0), constant(2.0, 3.0)),
        transitions=(sl.TransitionSpec(0, 1, coordinate_guard(0), reset),
                     sl.TransitionSpec(1, 2, coordinate_guard(1), reset)))


def test_batch_event_times_do_not_depend_on_batch_mates():
    # both rows cross x0 = 0 and then x1 = 0 inside the first step, at
    # different times, so their second brackets start at different widths
    sys_ = _two_crossing_system()
    opts = sl.SimOptions()
    rng = np.random.default_rng(5)
    for _ in range(100):
        first = rng.uniform(0.05, 0.9, 2) * opts.step
        second = first + rng.uniform(0.02, 0.98, 2) * (opts.step - first)
        X0 = np.column_stack([first, second])
        X, codes = _rollout(_STACK, sys_, 0, 0.0, X0, 2 * opts.step, opts)
        assert codes.tolist() == [5, 5]
        for r in range(2):
            x_alone, code_alone = _rollout(_STACK, sys_, 0, 0.0, X0[r:r + 1], 2 * opts.step, opts)
            np.testing.assert_array_equal(x_alone[0], X[r])
            assert code_alone[0] == codes[r]


def _cascade_system(n_modes, spacing):
    # a chain of levels `spacing` apart on a falling coordinate: one row
    # crosses them all inside one step; elementwise, like _two_crossing_system
    def fall(t, x):
        return np.full_like(x, -1.0)

    def level(a):
        return sl.GuardSpec(g=lambda t, x: x[..., 0] - a)

    reset = sl.ResetSpec(r=lambda t, x: np.array(x, dtype=float, copy=True))
    return sl.HybridSystem(
        modes=tuple(sl.VectorFieldSpec(dim=1, f=fall) for _ in range(n_modes)),
        transitions=tuple(sl.TransitionSpec(i, i + 1, level(-i * spacing), reset)
                          for i in range(n_modes - 1)))


def _two_crossing_rows(step):
    # first crossing after 0.5-4 steps, the second 0.02-3 steps later
    rng = np.random.default_rng(9)
    first = rng.uniform(0.5, 4.0, 40) * step
    return np.column_stack([first, first + rng.uniform(0.02, 3.0, 40) * step])


@pytest.mark.parametrize("case", ["two crossings over several steps",
                                  "ten transitions inside one step"])
def test_batch_rows_match_their_own_simulation(case):
    opts = sl.SimOptions()
    if case == "two crossings over several steps":
        sys_, X0, span = _two_crossing_system(), _two_crossing_rows(opts.step), (0.0, 8 * opts.step)
    else:
        sys_ = _cascade_system(11, 5e-5)
        X0, span = np.array([[1e-5], [3e-5], [2.2e-4], [4e-4]]), (0.0, 3 * opts.step)
    X, codes = _rollout(_STACK, sys_, 0, span[0], X0, span[1], opts)
    n_tr = len(sys_.transitions)
    for r, x0 in enumerate(X0):
        traj = sl.simulate(sys_, 0, x0, span, opts)
        assert codes[r] == _event_code(traj, n_tr)
        np.testing.assert_array_equal(X[r], traj.x_end)
    if case == "ten transitions inside one step":
        assert {len(sl.simulate(sys_, 0, x0, span, opts).events) for x0 in X0} == {10}


def _graze_system():
    # the parabola x0(t) = a (1 - t)^2 + x0(0) - a touches the guard x0 = 0 at t = 1
    a = 1e-4
    return sl.HybridSystem(
        modes=(sl.affine_field(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 2 * a])),
               sl.affine_field(np.zeros((2, 2)), np.zeros(2))),
        transitions=(sl.TransitionSpec(0, 1, sl.linear_guard(np.array([1.0, 0.0])),
                                       sl.identity_reset(2)),),
    ), np.array([a + 1e-13, -2 * a])


def _race_system():
    # guard 0 crosses at t = x1(0), guard 1 at t = 1 - x0(0)
    f0 = sl.affine_field(np.zeros((2, 2)), np.array([1.0, -1.0]))
    fz = sl.affine_field(np.zeros((2, 2)), np.zeros(2))
    return sl.HybridSystem(
        modes=(f0, fz, fz),
        transitions=(
            sl.TransitionSpec(0, 1, sl.linear_guard(np.array([0.0, 1.0])), sl.identity_reset(2)),
            sl.TransitionSpec(0, 2, sl.linear_guard(np.array([-1.0, 0.0]), offset=1.0),
                              sl.identity_reset(2)),
        ),
    ), np.array([-5e-12, 1.0])


@pytest.mark.parametrize("broadcast", [True, False])
def test_monte_carlo_raises_when_a_row_grazes_or_ties(broadcast):
    # the mean clears the guard by 1e-13 and the mean's crossings are 5e-12
    # apart, so simulate() accepts the mean; some samples graze (crossing
    # slope below eps_trans) or cross both guards within tol_t
    wrap = (lambda s: s) if broadcast else _one_row_only
    sys_, mean0 = _graze_system()
    assert not sl.simulate(sys_, 0, mean0, (0.0, 2.0)).events
    with pytest.raises(sl.TangentialEvent):
        sl.monte_carlo_covariance(wrap(sys_), 0, mean0, np.diag([1e-26, 0.0]), (0.0, 2.0),
                                  n_samples=200, seed=0)
    sys_, mean0 = _race_system()
    assert sl.simulate(sys_, 0, mean0, (0.0, 2.0)).event_sequence == (0,)
    with pytest.raises(sl.AmbiguousEvent):
        sl.monte_carlo_covariance(wrap(sys_), 0, mean0, (2.5e-12) ** 2 * np.ones((2, 2)),
                                  (0.0, 2.0), n_samples=200, seed=0)


def test_monte_carlo_runs_fields_that_do_not_broadcast_one_row_at_a_time():
    # the generic rigid-body fields take one 1-D state at a time
    model, _ = sl.ball_drop(sl.BallDropParams(theta=0.3))
    args = (sl.build_hybrid_system(model), 0, np.array([0.0, 0.3, 0.0, 0.0]),
            1e-6 * np.eye(4), (0.0, 0.05))
    with pytest.raises(ValueError, match="broadcast over a leading row axis"):
        _rollout(_STACK, args[0], 0, 0.0, np.tile(args[2], (8, 1)), 0.05, sl.SimOptions())
    assert sl.monte_carlo_covariance(*args, n_samples=8).shape == (4, 4)


def _field_for_one_state():
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    one_state = sl.VectorFieldSpec(dim=2, f=lambda t, x: A @ x)
    return ((sl.HybridSystem(modes=(one_state,), transitions=()),
             sl.HybridSystem(modes=(sl.affine_field(A, np.zeros(2)),), transitions=())),
            np.array([1.0, 0.0]), 1e-2 * np.eye(2), (0.0, 1.0), 0)


def _reset_for_one_state():
    R = np.array([[1.0, 0.0], [0.0, -0.5]])
    ball = sl.bouncing_ball(e=0.5)
    tr = ball.transitions[0]
    one_state = sl.ResetSpec(r=lambda t, x: R @ x)
    return ((sl.HybridSystem(modes=ball.modes,
                             transitions=(sl.TransitionSpec(0, 0, tr.guard, one_state),)),
             ball),
            np.array([1.0, 0.0]), 1e-6 * np.eye(2), (0.0, 0.6), 1)


@pytest.mark.parametrize("case", [_field_for_one_state, _reset_for_one_state])
def test_monte_carlo_with_as_many_samples_as_states_detects_one_state_callables(case):
    # on a (2, 2) stack, A @ x returns a (2, 2) array without raising: the
    # row-0 probe must catch it, or the result silently mixes the two rows
    (one_state, twin), mean0, sigma0, span, seed = case()
    got = sl.monte_carlo_covariance(one_state, 0, mean0, sigma0, span, n_samples=2, seed=seed)
    want = sl.monte_carlo_covariance(twin, 0, mean0, sigma0, span, n_samples=2, seed=seed)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_samples", [0, 1])
def test_monte_carlo_needs_two_samples(n_samples):
    with pytest.raises(ValueError, match="n_samples >= 2"):
        sl.monte_carlo_covariance(_constant_flow(), 0, np.array([0.0, 0.1]), 1e-4 * np.eye(2),
                                  (0.0, 0.2), n_samples=n_samples)


def test_monte_carlo_gap_shrinks_like_root_n():
    # mean Frobenius gap over independent seeds; 25x the samples should cut
    # the sampling error by ~5x, well under the 0.5 threshold
    sys_ = _constant_flow()
    opts = sl.SimOptions(step=5e-3)
    mean0 = np.array([0.0, 0.1])
    sigma0 = 1e-4 * np.eye(2)
    span = (0.0, 0.2)
    nominal = sl.simulate(sys_, 0, mean0, span, opts)
    xi = sl.saltation_matrix(sys_, nominal.events[0]).xi
    analytic = xi @ sigma0 @ xi.T
    gaps_small, gaps_big = [], []
    for seed in range(6):
        small = sl.monte_carlo_covariance(sys_, 0, mean0, sigma0, span,
                                          n_samples=2_000, seed=seed, options=opts)
        big = sl.monte_carlo_covariance(sys_, 0, mean0, sigma0, span,
                                        n_samples=50_000, seed=seed + 1000,
                                        options=opts)
        gaps_small.append(np.linalg.norm(small - analytic))
        gaps_big.append(np.linalg.norm(big - analytic))
    assert np.mean(gaps_big) <= 0.5 * np.mean(gaps_small)


def test_monte_carlo_flags_diverging_event_sequences():
    # nominal crossing sits 1e-3 before the horizon, so about half the
    # samples never cross: a single covariance summary would be meaningless
    sys_ = _constant_flow()
    opts = sl.SimOptions(step=5e-3)
    with pytest.raises(sl.SplitDistribution) as info:
        sl.monte_carlo_covariance(sys_, 0, np.array([0.0, 0.199]), 1e-4 * np.eye(2),
                                  (0.0, 0.2), n_samples=2_000, seed=0, options=opts)
    assert info.value.fraction > 0.01


def test_monte_carlo_zero_spread_gives_exactly_zero_covariance():
    sys_ = _constant_flow()
    opts = sl.SimOptions(step=5e-3)
    sigma = sl.monte_carlo_covariance(sys_, 0, np.array([0.0, 0.1]), np.zeros((2, 2)),
                                      (0.0, 0.2), n_samples=16, seed=0, options=opts)
    assert np.all(sigma == 0.0)


def _blocks_of(monkeypatch, rows, width):
    """Make the engine's row blocks `rows` rows of `width` floats long."""
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 8 * rows * width)
    assert _block_rows(width) == rows


def _rollouts(sys_, X0, t_max, opts=sl.SimOptions()):
    """The batched callers' rollout of X0's rows: blocks, or one row at a time."""
    runs = _stack_or_each_row(lambda rows, s: _rollout(rows, sys_, 0, 0.0, X0[s], t_max, opts),
                              *X0.shape)
    return len(runs), np.concatenate([x for x, _ in runs]), np.concatenate([c for _, c in runs])


def _mc_case(case):
    if case == "slide":
        return sl.ball_drop(sl.BallDropParams(theta=0.3))[1], np.array([0.0, 0.6, 0.0, 0.0]), 0.5
    return sl.bouncing_ball(e=0.5), np.array([1.0, 0.0]), 1.0


@pytest.mark.parametrize("case", ["slide", "bounce"])
def test_row_blocks_give_the_one_block_result_bit_for_bit(case, monkeypatch):
    sys_, mean0, t_max = _mc_case(case)
    n = mean0.size
    block = 64
    n_rows = 2 * block + 37
    rng = np.random.default_rng(21)
    X0 = mean0 + 0.1 * rng.standard_normal((n_rows, n))
    sigma0 = 1e-6 * np.eye(n)
    n_runs, X_one, codes_one = _rollouts(sys_, X0, t_max)
    mc_one = sl.monte_carlo_covariance(sys_, 0, mean0, sigma0, (0.0, t_max), n_samples=n_rows)
    assert n_runs == 1
    _blocks_of(monkeypatch, block, n)
    n_runs, X_blocks, codes_blocks = _rollouts(sys_, X0, t_max)
    mc_blocks = sl.monte_carlo_covariance(sys_, 0, mean0, sigma0, (0.0, t_max), n_samples=n_rows)
    assert n_runs == 3
    if case == "bounce":
        assert len(set(codes_one.tolist())) > 1
    else:
        assert codes_one.all()
    # affine_field's x @ A.T rounds within its batch, but no row moved here
    assert codes_blocks.tolist() == codes_one.tolist()
    assert X_blocks.tobytes() == X_one.tobytes()
    assert mc_blocks.tobytes() == mc_one.tobytes()


def test_a_field_that_fails_on_a_later_block_sends_every_row_one_at_a_time(monkeypatch):
    # the field refuses stacks that hold a row with q1 < -1: only the second
    # block's rows, moved along the incline (the guard is s q1 + c q2)
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.3))
    one_rows = []

    def refuse_far_rows(spec):
        def f(t, x, _f=spec.f):
            if np.ndim(x) == 2 and (x[:, 0] < -1.0).any():
                raise ValueError("this field takes no far rows on a stack")
            if np.ndim(x) == 1:
                one_rows.append(float(x[0]))
            return _f(t, x)
        return replace(spec, f=f)

    picky = replace(sys_, modes=tuple(refuse_far_rows(spec) for spec in sys_.modes))
    block = 16
    _blocks_of(monkeypatch, block, 4)
    rng = np.random.default_rng(4)
    X0 = np.column_stack([rng.uniform(-0.2, 0.2, 40), rng.uniform(0.4, 0.8, 40),
                          rng.uniform(-0.3, 0.3, 40), rng.uniform(-0.3, 0.3, 40)])
    X0[block:2 * block, :2] += [-5.0, 5.0 * np.tan(0.3)]
    n_runs, X_f, codes = _rollouts(picky, X0, 0.6)
    assert n_runs == 40
    assert set(X0[:block, 0].tolist()) <= set(one_rows)
    for x0, x_f, code in zip(X0, X_f, codes):
        traj = sl.simulate(sys_, 0, x0, (0.0, 0.6))
        assert x_f.tobytes() == traj.x_end.tobytes()
        assert code == 1 and traj.event_sequence == (0,)


def _graze_or_tie_system():
    # p' = v, q' = w; transition 0 fires at p = 0, transition 1 at q = 0
    def f(t, x):
        out = np.zeros_like(x)
        out[..., 0] = x[..., 2]
        out[..., 1] = x[..., 3]
        return out

    rest = sl.VectorFieldSpec(dim=4, f=lambda t, x: np.zeros_like(x))
    return sl.HybridSystem(
        modes=(sl.VectorFieldSpec(dim=4, f=f), rest, rest),
        transitions=(
            sl.TransitionSpec(0, 1, sl.linear_guard(np.array([1.0, 0.0, 0.0, 0.0])),
                              sl.identity_reset(4)),
            sl.TransitionSpec(0, 2, sl.linear_guard(np.array([0.0, 1.0, 0.0, 0.0])),
                              sl.identity_reset(4)),
        ))


def test_a_batch_raises_the_first_error_of_its_earliest_failing_block(monkeypatch):
    # grazing rows cross p = 0 at t = 5 ms with slope -1e-9 (TangentialEvent);
    # tying rows cross p = 0 and q = 0 1e-13 s apart at t = 0.25 (AmbiguousEvent)
    sys_ = _graze_or_tie_system()
    graze = np.tile([5e-12, 1.0, -1e-9, 0.0], (8, 1))
    tie = np.tile([0.2505, 0.2505 + 1e-13, -1.0, -1.0], (8, 1))
    with pytest.raises(sl.TangentialEvent):
        sl.simulate(sys_, 0, graze[0], (0.0, 1.0))
    with pytest.raises(sl.AmbiguousEvent):
        sl.simulate(sys_, 0, tie[0], (0.0, 1.0))
    for first, second, raised, exit_code in ((tie, graze, sl.AmbiguousEvent, 3),
                                             (graze, tie, sl.TangentialEvent, 4)):
        X0 = np.concatenate([first, second])
        # in one block, the grazing rows fail first, as they localize first
        monkeypatch.undo()
        with pytest.raises(sl.TangentialEvent):
            _rollouts(sys_, X0, 1.0)
        _blocks_of(monkeypatch, 8, 4)
        with pytest.raises(raised) as info:
            _rollouts(sys_, X0, 1.0)
        assert next(code for cls, code in _FAILURE_CODES if isinstance(info.value, cls)) == exit_code


_BLOCK = 8


@settings(max_examples=30, deadline=None)
@given(n_rows=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_pairwise_sum_is_the_pairwise_sum_bit_for_bit(n_rows, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_rows, 3, 3)) * 10.0 ** rng.uniform(-8, 8, (n_rows, 1, 1))
    got = _blocked_pairwise_sum(lambda s: a[s], n_rows, _BLOCK)
    assert got.tobytes() == _pairwise_sum(a).tobytes()


def test_monte_carlo_working_set_is_bounded():
    # a warm 20 000-sample call: a batch-sized (N, n, n) product or whole-batch
    # RK4 stacks would lift the traced peak to about 12 MB
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.3))
    args = (sys_, 0, np.array([0.0, 0.6, 0.0, 0.0]), 1e-6 * np.eye(4))
    sl.monte_carlo_covariance(*args, (0.0, 0.02), n_samples=20_000, seed=0)
    tracemalloc.start()
    try:
        sl.monte_carlo_covariance(*args, (0.0, 0.5), n_samples=20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def _damped_reference():
    sys_ = sl.HybridSystem(
        modes=(sl.affine_field(np.array([[0.0, 1.0], [-1.0, -0.4]]), np.zeros(2)),),
        transitions=(),
    )
    ref = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 1.0))
    return sys_, ref


def test_brute_force_cost_is_zero_without_perturbation():
    sys_, ref = _damped_reference()
    cost = sl.brute_force_cost(sys_, ref, np.eye(2), np.array([[1.0]]),
                               np.array([[0.0], [1.0]]), np.eye(2),
                               perturbations=np.zeros((1, 2)))
    assert cost == 0.0


def test_brute_force_cost_is_linear_in_the_weights():
    sys_, ref = _damped_reference()
    rows = 1e-3 * np.array([[1.0, -0.5], [0.3, 0.8]])
    B = np.array([[0.0], [1.0]])
    V = np.array([[1.0]])
    c_q = sl.brute_force_cost(sys_, ref, np.eye(2), V, B, np.zeros((2, 2)),
                              perturbations=rows)
    c_2q = sl.brute_force_cost(sys_, ref, 2.0 * np.eye(2), V, B, np.zeros((2, 2)),
                               perturbations=rows)
    assert c_2q == 2.0 * c_q
    c_p = sl.brute_force_cost(sys_, ref, np.zeros((2, 2)), V, B, np.eye(2),
                              perturbations=rows)
    c_2p = sl.brute_force_cost(sys_, ref, np.zeros((2, 2)), V, B, 2.0 * np.eye(2),
                               perturbations=rows)
    assert c_2p == 2.0 * c_p
    assert c_q > 0.0 and c_p > 0.0


def test_brute_force_cost_default_draws_are_seeded():
    sys_, ref = _damped_reference()
    args = (sys_, ref, np.eye(2), np.array([[1.0]]), np.array([[0.0], [1.0]]),
            np.eye(2))
    a = sl.brute_force_cost(*args, n_rollouts=3, seed=11)
    b = sl.brute_force_cost(*args, n_rollouts=3, seed=11)
    c = sl.brute_force_cost(*args, n_rollouts=3, seed=12)
    assert a == b
    assert a != c


def _brute_force_cost_error(**rows) -> str:
    sys_, ref = _damped_reference()
    with pytest.raises(ValueError) as err:
        sl.brute_force_cost(sys_, ref, np.eye(2), np.array([[1.0]]), np.array([[0.0], [1.0]]),
                            np.eye(2), **rows)
    return str(err.value)


@pytest.mark.parametrize("rows", [{"n_rollouts": 0}, {"perturbations": np.empty((0, 2))}])
def test_brute_force_cost_rejects_empty_perturbations(rows):
    msg = _brute_force_cost_error(**rows)
    assert "at least one row of shape (2,)" in msg and "shape (0, 2)" in msg


@pytest.mark.parametrize("rows, shape", [((2, 3), (2, 3)), ((3,), (1, 3)), ((1, 1, 2), (1, 1, 2))])
def test_brute_force_cost_rejects_mis_sized_rows(rows, shape):
    msg = _brute_force_cost_error(perturbations=np.zeros(rows))
    assert "of shape (2,)" in msg and f"shape {shape}" in msg


# ---------------------------------------------------------------------------
# the oracles against one-run-at-a-time copies of themselves


def _flow_to(f, t0, x0, t1, step):
    """One row's RK4 flow with equal substeps of at most `step`."""
    if t1 == t0:
        return np.array(x0, dtype=float)
    n_sub = _substeps(t0, t1, step)
    h = (t1 - t0) / n_sub
    x, t = np.array(x0, dtype=float), t0
    for k in range(n_sub):
        x = sl.rk4_step(f, t, x, h)
        t = t0 + (k + 1) * h
    return x


def _numeric_saltation_per_run(sys_, mode0, x_ref, t_minus, h=1e-6, back_steps=5,
                               opts=sl.SimOptions()):
    """numeric_saltation as 2n + 1 separate back-flows, simulations and forward flows."""
    t_start = t_minus - back_steps * opts.step
    t_stop = t_minus + max(4.0 * opts.step, 1000.0 * h)

    def run(x):
        x_start = _flow_to(sys_.modes[mode0].f, t_minus, x, t_start, opts.step)
        try:
            traj = sl.simulate(sys_, mode0, x_start, (t_start, t_stop), replace(opts, max_events=1))
        except sl.ZenoSuspected as exc:
            traj = exc.trajectory
        ev = traj.events[0]
        return ev.transition_index, ev.t_event, ev.x_plus

    idx0, t_e0, x_plus0 = run(x_ref)
    plus, minus = [], []
    for i in range(x_ref.size):
        delta = np.zeros(x_ref.size)
        delta[i] = h
        plus.append(run(x_ref + delta))
        minus.append(run(x_ref - delta))
    assert {r[0] for r in plus + minus} == {idx0}
    t_f = max([t_e0] + [r[1] for r in plus + minus]) + 10.0 * opts.tol_t
    mode_j = sys_.transitions[idx0].to_mode
    f_j = sys_.modes[mode_j].f
    cols = np.column_stack([
        (_flow_to(f_j, p[1], p[2], t_f, opts.step) - _flow_to(f_j, m[1], m[2], t_f, opts.step))
        / (2.0 * h) for p, m in zip(plus, minus)])
    A = sl.variational_flow(sys_, mode_j, t_e0, x_plus0, t_f, opts.step)
    return np.linalg.solve(A, cols)


def _first_impact(sys_, x0, span):
    ev = sl.simulate(sys_, 0, x0, span).events[0]
    assert ev.transition_index == 0
    return ev


@pytest.mark.parametrize("friction", ["frictionless-slide", "infinite-stick"])
def test_batched_numeric_saltation_equals_separate_runs_bit_for_bit(friction):
    # the ball-drop fields act on each row elementwise; the guard's x @ w
    # only steers bisection, and each row's reset is its own call
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.3, friction=friction))
    for x0 in (np.array([0.0, 0.5, 1.0, 0.0]), np.array([0.1, 0.8, -0.4, 0.3])):
        ev = _first_impact(sys_, x0, (0.0, 0.6))
        batched = sl.numeric_saltation(sys_, 0, ev.x_minus, ev.t_event)
        np.testing.assert_array_equal(batched,
                                      _numeric_saltation_per_run(sys_, 0, ev.x_minus, ev.t_event))


def test_batched_numeric_saltation_on_matrix_products_matches_separate_runs():
    # affine_field, linear_guard and affine_reset multiply matrices, which
    # numpy may round differently for a stack than for one row
    sys_ = sl.bouncing_ball(e=0.5)
    for height in (0.3, 1.0, 1.7):
        ev = _first_impact(sys_, np.array([height, 0.0]), (0.0, 0.7))
        batched = sl.numeric_saltation(sys_, 0, ev.x_minus, ev.t_event)
        per_run = _numeric_saltation_per_run(sys_, 0, ev.x_minus, ev.t_event)
        assert sl.matrix_rel_err(batched, per_run) <= 1e-8


@pytest.mark.parametrize("friction", ["frictionless-slide", "infinite-stick"])
def test_batched_callers_equal_their_one_row_fallback_bit_for_bit(friction):
    # the finite-difference oracle and the linearization run on the stack,
    # or one row at a time where a field refuses the stack; the ball-drop
    # fields act on each row elementwise, so both give the same bits
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.3, friction=friction))
    one_row = _one_row_only(sys_)
    for x0 in (np.array([0.0, 0.5, 1.0, 0.0]), np.array([0.1, 0.8, -0.4, 0.3])):
        traj = sl.simulate(sys_, 0, x0, (0.0, 0.6))
        ev = _first_impact(sys_, x0, (0.0, 0.6))
        np.testing.assert_array_equal(sl.numeric_saltation(sys_, 0, ev.x_minus, ev.t_event),
                                      sl.numeric_saltation(one_row, 0, ev.x_minus, ev.t_event))
        np.testing.assert_array_equal(sl.fundamental_matrix(sys_, traj).phi,
                                      sl.fundamental_matrix(one_row, traj).phi)


def _control(ref, B, policy, t, x):
    """u = -K(t) (x - x_ref(t)), or 0 without a policy, sampled afresh."""
    if policy is None:
        return np.zeros(B.shape[1])
    return -(policy.gain_at(t) @ (x - ref.interpolate(t)))


def _closed_loop(sys_, ref, B, policy):
    """sys_ under feedback, with ref, K and B sampled at every RK4 stage."""
    def wrap(spec):
        def f(t, x):
            return np.asarray(spec.f(t, x), dtype=float) + B @ _control(ref, B, policy, t, x)
        return sl.VectorFieldSpec(dim=spec.dim, f=f)
    return sl.HybridSystem(modes=tuple(wrap(m) for m in sys_.modes),
                           transitions=sys_.transitions)


def _brute_force_cost_per_stage(sys_, ref, Q, V, B, P_T, policy, rows, opts):
    """brute_force_cost that samples ref, K, B, Q and V afresh at every stage and sample."""
    csys = _closed_loop(sys_, ref, B, policy)
    total = 0.0
    for row in rows:
        traj = sl.simulate(csys, ref.segments[0].mode, ref.x_start + row,
                           (ref.t_start, ref.t_end), opts)
        cost = 0.0
        for seg in traj.segments:
            for i in range(seg.times.size - 1):
                t = float(seg.times[i])
                dt = float(seg.times[i + 1]) - t
                dx = seg.states[i] - ref.interpolate(t)
                u = _control(ref, B, policy, t, seg.states[i])
                cost += dt * (dx @ Q @ dx + u @ V @ u)
        dx_end = traj.x_end - ref.x_end
        cost += float(dx_end @ P_T @ dx_end)
        total += cost
    return total / rows.shape[0]


@lru_cache(maxsize=None)
def _switch_across_event():
    """Criterion 08's switching system and weights, with a reference from
    (1.0, -0.2) that runs 2.2 s and so crosses the switch, and its schedule."""
    sys_ = sl.field_switch()
    weights = (np.eye(2), 0.5 * np.eye(1), np.array([[0.0], [1.0]]), np.eye(2))
    opts = sl.SimOptions(step=2e-3)
    ref = sl.simulate(sys_, 0, np.array([1.0, -0.2]), (0.0, 2.2), opts)
    return sys_, ref, weights, opts, sl.hybrid_lqr_backward(sys_, ref, *weights)


@pytest.mark.parametrize("n_rows", [1, 3])
@pytest.mark.parametrize("with_policy", [True, False])
def test_brute_force_cost_equals_the_per_stage_loop_bit_for_bit(with_policy, n_rows):
    sys_, ref, weights, opts, sol = _switch_across_event()
    rows = 1e-3 * np.random.Generator(np.random.Philox(7)).standard_normal((n_rows, 2))
    delta = np.array([[0.3, -0.2]])
    policy = replace(sol, gains=tuple(g + delta for g in sol.gains)) if with_policy else None
    cost = sl.brute_force_cost(sys_, ref, *weights, policy=policy, perturbations=rows,
                               options=opts)
    expected = _brute_force_cost_per_stage(sys_, ref, *weights, policy, rows, opts)
    assert cost.hex() == expected.hex()


def test_brute_force_cost_samples_gain_and_weights_once_per_distinct_time():
    sys_, ref = _damped_reference()
    B = np.array([[0.0], [1.0]])
    sol = sl.hybrid_lqr_backward(sys_, ref, np.eye(2), np.eye(1), B, np.eye(2))
    calls = {name: Counter() for name in ("gain", "Q", "V", "B")}

    class Counting:
        def gain_at(self, t):
            calls["gain"][t] += 1
            return sol.gain_at(t)

    def counted(name, value):
        def fn(t):
            calls[name][t] += 1
            return value
        return fn

    rows = 1e-3 * np.array([[1.0, -0.5], [0.3, 0.8], [-0.6, 0.2]])
    sl.brute_force_cost(sys_, ref, counted("Q", np.eye(2)), counted("V", np.eye(1)),
                        counted("B", B), np.eye(2), policy=Counting(), perturbations=rows)
    grid = ref.segments[0].times
    # three rollouts on one grid: each grid time and each half step, once
    assert len(calls["gain"]) == 2 * grid.size - 1
    assert set(grid.tolist()) <= set(calls["gain"])
    for name in ("gain", "B"):
        assert set(calls[name].values()) == {1}, name
    assert calls["B"].keys() == calls["gain"].keys()
    # the cost weights are read at grid samples only
    for name in ("Q", "V"):
        assert set(calls[name].values()) == {1}, name
        assert set(calls[name]) == set(grid[:-1].tolist())


@pytest.mark.parametrize("x0, t_end", [
    ((0.5, 0.0), 0.5),  # the event falls on t_max: a last segment of one sample
    ((0.5 + 1e-15, 0.0), 0.75),  # the event is located on the last grid sample
])
def test_brute_force_cost_equals_the_per_stage_loop_at_segment_ends(x0, t_end):
    # the guard reads x[0] alone and B forces x[1] alone, so the closed loop
    # crosses at the same grid point as the open loop checked here
    sys_ = sl.constant_flow_two_mode((-1.0, 0.3), (-0.5, 0.2), (1.0, 0.0))
    opts = sl.SimOptions(step=2.0 ** -10)
    traj = sl.simulate(sys_, 0, np.array(x0), (0.0, t_end), opts)
    (ev,) = traj.events
    assert ev.t_event == 0.5
    if t_end == 0.5:
        assert traj.segments[-1].times.size == 1
    else:
        # still inside the domain: the scan sample the recording replaced
        assert sys_.transitions[0].guard.value(ev.t_event, ev.x_minus) > 0.0

    # a reference offset from the rollout by a constant, which the row cancels
    offset = np.array([0.25, -0.125])
    ref = sl.HybridTrajectory(
        segments=tuple(replace(seg, states=seg.states + offset) for seg in traj.segments),
        events=traj.events)
    rows = -offset[None]
    np.testing.assert_array_equal(ref.x_start + rows[0], x0)
    weights = (np.eye(2), 0.5 * np.eye(1), np.array([[0.0], [1.0]]), np.eye(2))
    policy = SimpleNamespace(gain_at=lambda t: np.array([[0.3, -0.2]]))
    cost = sl.brute_force_cost(sys_, ref, *weights, policy=policy, perturbations=rows,
                               options=opts)
    assert cost > 0.0
    expected = _brute_force_cost_per_stage(sys_, ref, *weights, policy, rows, opts)
    assert cost.hex() == expected.hex()


def test_lqr_schedule_beats_gain_shifts_across_the_switch(monkeypatch):
    # the reference crosses the switch at t ~ 1.626 s, well inside its 2.2 s
    # horizon, so the Riccati jump shapes the gains that brute force scores
    sys_, ref, weights, opts, sol = _switch_across_event()
    assert ref.event_sequence == (0,)
    assert 1.62 < ref.events[0].t_event < 1.63
    prng = np.random.Generator(np.random.Philox(42))
    rows = 1e-3 * prng.standard_normal((3, 2))
    knorm = float(np.linalg.norm(sol.gains[0]))
    shifted = [replace(sol, gains=tuple(g + delta for g in sol.gains))
               for delta in (0.1 * knorm * prng.standard_normal((1, 2)) for _ in range(8))]

    for policy in [sol] + shifted:
        for row in rows:
            traj = sl.simulate(_closed_loop(sys_, ref, weights[2], policy), 0,
                               ref.x_start + row, (ref.t_start, ref.t_end), opts)
            assert traj.event_sequence == (0,)
            assert abs(traj.events[0].t_event - ref.events[0].t_event) < 0.01

    def cost(policy):
        return sl.brute_force_cost(sys_, ref, *weights, policy=policy, perturbations=rows,
                                   options=opts)

    cost_opt = cost(sol)
    assert all(cost(policy) > cost_opt for policy in shifted)

    # a pass that skips the jump (Xi replaced by D_x R, here the identity)
    # yields other gains after the switch, and they cost more
    linearize = saltlib.propagation._linearize

    def without_jump(sys_, traj, step):
        flows, xis = linearize(sys_, traj, step)
        return flows, [np.eye(xi.shape[0]) for xi in xis]

    monkeypatch.setattr(saltlib.propagation, "_linearize", without_jump)
    no_jump = sl.hybrid_lqr_backward(sys_, ref, *weights)
    monkeypatch.undo()
    assert max(float(np.abs(a - b).max()) for a, b in zip(sol.gains, no_jump.gains)) > 0.1
    assert cost(no_jump) > cost_opt
