"""Hybrid simulation: integration accuracy, event localization, error taxonomy."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saltlib as sl
from saltlib.errors import (
    AmbiguousEvent,
    DegenerateGuard,
    EventLocalizationError,
    NonFiniteState,
    TangentialEvent,
    ZenoSuspected,
)
from saltlib.simulate import (_ONE_ROW, _RK4_BUFFER_BYTES, _STACK, _OneRow, _Stack, _locate, _rollout,
                              _segment, _vote)

G = 9.81


def test_sim_options_defaults():
    opts = sl.SimOptions()
    assert opts.step == 1e-3
    assert opts.tol_g == 1e-10
    assert opts.tol_t == 1e-12
    assert opts.eps_trans == 1e-8
    assert opts.eps_grad == 1e-10
    assert opts.max_events == 1000


def test_flow_is_fourth_order():
    # Richardson check: halving the step shrinks the global error by about 16
    pend = lambda t, x: np.array([x[1], -np.sin(x[0])])
    x0 = np.array([1.0, 0.0])
    ref = sl.flow_to(pend, 0.0, x0, 2.0, 2.5e-4)
    errs = [float(np.linalg.norm(sl.flow_to(pend, 0.0, x0, 2.0, h) - ref))
            for h in (2e-2, 1e-2, 5e-3)]
    assert 8.0 < errs[0] / errs[1] < 32.0
    assert 8.0 < errs[1] / errs[2] < 32.0


def test_substeps_ignore_endpoint_rounding():
    from saltlib.simulate import _substeps

    h = 1e-3
    t0 = 0.1
    above = lambda t: np.nextafter(t, np.inf)
    below = lambda t: np.nextafter(t, -np.inf)
    assert _substeps(t0, above(t0 + h), h) == 1
    assert _substeps(t0, above(t0 + 2 * h), h) == 2
    assert _substeps(t0, below(t0 + 2 * h), h) == 2
    assert _substeps(t0, t0 + 1.5 * h, h) == 2
    assert _substeps(above(t0 + h), t0, h) == 1
    assert _substeps(t0 + 1.5 * h, t0, h) == 2
    assert _substeps(t0, t0, h) == 1
    # grid intervals are differences of accumulated times: one substep each
    # at h, two each on a grid of 2h, also where |t| is large
    for start in (0.0, 1e4):
        grid = np.cumsum(np.full(300, h)) + start
        assert {_substeps(a, b, h) for a, b in zip(grid[:-1], grid[1:])} == {1}
        coarse = np.cumsum(np.full(300, 2 * h)) + start
        assert {_substeps(a, b, h) for a, b in zip(coarse[:-1], coarse[1:])} == {2}


def test_flow_matches_linear_closed_form():
    A = np.array([[0.05, -2.0], [2.0, 0.05]])
    x0 = np.array([1.0, -0.5])
    out = sl.flow_to(lambda t, x: A @ x, 0.0, x0, 1.0, 1e-3)
    # closed form e^{A} x0 via eigendecomposition of the normal matrix A
    w, v = np.linalg.eig(A)
    expected = np.real(v @ np.diag(np.exp(w)) @ np.linalg.inv(v) @ x0)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)


def test_ballistic_impact_time_and_state():
    traj = sl.simulate(sl.bouncing_ball(e=0.5), 0, np.array([1.0, 0.0]), (0.0, 0.6))
    assert len(traj.events) == 1
    ev = traj.events[0]
    t_star = np.sqrt(2.0 / G)
    v_star = np.sqrt(2.0 * G)
    assert ev.t_event == pytest.approx(t_star, abs=1e-9)
    assert ev.x_minus[0] == pytest.approx(0.0, abs=1e-9)
    assert ev.x_minus[1] == pytest.approx(-v_star, abs=1e-8)
    assert ev.x_plus[1] == pytest.approx(0.5 * v_star, abs=1e-8)
    assert traj.t_end == 0.6


def test_bounce_times_follow_geometric_decay():
    # restitution 0.5 halves each flight interval; five impacts fit in 1.3 s
    traj = sl.simulate(sl.bouncing_ball(e=0.5), 0, np.array([1.0, 0.0]), (0.0, 1.3))
    times = np.array([ev.t_event for ev in traj.events])
    assert times.size == 5
    t1 = np.sqrt(2.0 / G)
    expected = t1 * np.cumsum([1.0, 1.0, 0.5, 0.25, 0.125])
    np.testing.assert_allclose(times, expected, rtol=0, atol=1e-6)
    gaps = np.diff(times)
    np.testing.assert_allclose(gaps[1:] / gaps[:-1], 0.5, rtol=0, atol=1e-6)
    # self-loop keeps the mode and re-arms the guard after every reset
    assert traj.mode_sequence == (0,) * 6
    assert traj.event_sequence == (0,) * 5


def test_event_records_satisfy_guard_and_transversality_bounds():
    opts = sl.SimOptions()
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 1.3), opts)
    guard = sys_.transitions[0].guard
    for ev in traj.events:
        assert abs(ev.guard_residual) <= opts.tol_g
        assert abs(guard.value(ev.t_event, ev.x_minus)) <= opts.tol_g
        assert ev.transversality < -opts.eps_trans


def test_reset_replay_is_bit_exact_and_trajectory_validates():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 1.3))
    assert traj.validate(sys_) == []
    for ev in traj.events:
        replay = sys_.transitions[ev.transition_index].reset.apply(ev.t_event, ev.x_minus)
        assert np.array_equal(replay, ev.x_plus)
    assert len(traj.segments) == len(traj.events) + 1


def test_guard_positive_in_segment_interiors():
    sys_ = sl.bouncing_ball(e=0.5)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 1.3))
    guard = sys_.transitions[0].guard
    for seg in traj.segments:
        for t, x in zip(seg.times[1:-1], seg.states[1:-1]):
            assert guard.value(float(t), x) > 0.0


def test_ball_drop_single_slide_event_kills_normal_velocity():
    model, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.3))
    traj = sl.simulate(sys_, 0, np.array([0.0, 1.0, 0.0, 0.0]), (0.0, 1.0))
    assert len(traj.events) == 1
    assert sys_.transition_names[traj.events[0].transition_index] == "U->S"
    normal = np.array([np.sin(0.3), np.cos(0.3)])
    assert abs(normal @ traj.events[0].x_plus[2:]) <= 1e-10
    assert traj.validate(sys_) == []


def test_zeno_cap_raises_with_partial_trajectory():
    sys_ = sl.bouncing_ball(e=0.9)
    partials = []
    for cap in (50, 60):
        with pytest.raises(ZenoSuspected) as info:
            sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 10.0), sl.SimOptions(max_events=cap))
        partials.append(info.value.trajectory)
    partial, longer = partials
    assert len(partial.events) == 50
    assert partial.t_end < 10.0
    assert partial.validate(sys_) == []
    # the partial is the longer run up to the 51st event: every event and
    # finished segment equal, and the open segment a strict prefix of its own
    assert len(partial.segments) == 51
    for ev, ev_longer in zip(partial.events, longer.events):
        assert ev.t_event == ev_longer.t_event and ev.transition_index == ev_longer.transition_index
        assert ev.x_minus.tobytes() == ev_longer.x_minus.tobytes()
        assert ev.x_plus.tobytes() == ev_longer.x_plus.tobytes()
        assert (ev.guard_residual, ev.transversality) == (ev_longer.guard_residual, ev_longer.transversality)
    for seg, seg_longer in zip(partial.segments[:50], longer.segments):
        assert seg.mode == seg_longer.mode
        assert seg.times.tobytes() == seg_longer.times.tobytes()
        assert seg.states.tobytes() == seg_longer.states.tobytes()
    last, full = partial.segments[50], longer.segments[50]
    n = last.times.size
    assert last.mode == full.mode and n < full.times.size
    assert last.times.tobytes() == full.times[:n].tobytes()
    assert last.states.tobytes() == full.states[:n].tobytes()


def test_event_at_t_max_ends_with_a_one_sample_segment():
    # x falls from 0.5 onto the guard x = 0 exactly at the last grid sample,
    # t_max = 0.5: the event replaces that sample, and the reset state 2x + 1
    # is the whole last segment
    fall = sl.affine_field(np.zeros((1, 1)), np.array([-1.0]))
    sys_ = sl.HybridSystem(
        modes=(fall, fall),
        transitions=(sl.TransitionSpec(0, 1, sl.linear_guard(np.array([1.0])),
                                       sl.affine_reset(np.array([[2.0]]), np.array([1.0]))),),
    )
    opts = sl.SimOptions(step=0.125)
    traj = sl.simulate(sys_, 0, np.array([0.5]), (0.0, 0.5), opts)
    assert [(seg.mode, seg.times.tolist(), seg.states.tolist()) for seg in traj.segments] == [
        (0, [0.0, 0.125, 0.25, 0.375, 0.5], [[0.5], [0.375], [0.25], [0.125], [0.0]]),
        (1, [0.5], [[1.0]]),
    ]
    (ev,) = traj.events
    assert (ev.t_event, ev.x_minus.tolist(), ev.x_plus.tolist()) == (0.5, [0.0], [1.0])
    assert traj.validate(sys_) == []
    # in a batch, beside a row with no event and one with an earlier event
    X0 = np.array([[0.5], [0.7], [0.3]])
    X_f, codes = _rollout(_STACK, sys_, 0, 0.0, X0, 0.5, opts)
    assert codes.tolist() == [1, 0, 1]
    for x0, x_f in zip(X0, X_f):
        assert x_f.tolist() == sl.simulate(sys_, 0, x0, (0.0, 0.5), opts).x_end.tolist()


def test_sample_sees_an_event_later_than_the_last_grid_sample_once_before_event():
    # the guard x[0] = 0 on a 2^-10 grid. Row 0 is still 1e-15 inside the
    # domain at the grid sample t = 0.5, and its event is located onto that
    # sample; row 1 crosses strictly inside the step after it, near 0.5 + 2^-11
    sys_ = sl.constant_flow_two_mode((-1.0, 0.3), (-0.5, 0.2), (1.0, 0.0))
    opts = sl.SimOptions(step=2.0 ** -10)
    X0 = np.array([[0.5 + 1e-15, 0.0], [0.5 + 2.0 ** -11, 0.0]])
    calls, seen = [], [[], []]

    def sample(ids, t, X):
        calls.append(("sample", ids.tolist(), t))
        for k, i in enumerate(ids):
            seen[i].append((t if isinstance(t, float) else float(t[k]), X[k].tobytes()))

    def event(ids, idx, t_e, x_minus, x_plus, residual, transversality):
        calls.append(("event", ids.tolist(), t_e.tolist()))
        for k, i in enumerate(ids):
            seen[i].append(("event", float(t_e[k]), x_minus[k].tobytes(), x_plus[k].tobytes()))

    _rollout(_STACK, sys_, 0, 0.0, X0, 0.75, opts, sample, event)
    (k,) = [k for k, call in enumerate(calls) if call[0] == "event"]
    _, ids, t_e = calls[k]
    assert ids == [0, 1] and t_e[0] == 0.5 and 0.5 < t_e[1] < 0.5 + opts.step
    # the scan's last grid sample of both rows, then row 1's (t_e, x_minus)
    # alone, with a float time, then the event
    assert calls[k - 2] == ("sample", [0, 1], 0.5)
    assert calls[k - 1] == ("sample", [1], t_e[1]) and type(calls[k - 1][2]) is float
    for log in seen:
        (k,) = [k for k, item in enumerate(log) if item[0] == "event"]
        _, t_ev, x_minus, x_plus = log[k]
        # each row's last sample before its event is (t_e, x_minus), bit for
        # bit, and its next one (t_e, x_plus); no time is sampled twice
        assert log[k - 1] == (t_ev, x_minus)
        assert log[k + 1] == (t_ev, x_plus)
        times = [t for t, _ in log[:k]]
        assert times == sorted(set(times))


def test_tangential_graze_is_rejected():
    # parabola dips 1e-13 below the guard; crossing slope ~6e-9 is below eps_trans
    a, delta = 1e-4, 1e-13
    sys_ = sl.HybridSystem(
        modes=(sl.affine_field(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.0, 2 * a])),
               sl.affine_field(np.zeros((2, 2)), np.zeros(2))),
        transitions=(sl.TransitionSpec(0, 1, sl.linear_guard(np.array([1.0, 0.0])),
                                       sl.identity_reset(2)),),
    )
    with pytest.raises(TangentialEvent):
        sl.simulate(sys_, 0, np.array([a - delta, -2 * a]), (0.0, 2.0))


def test_state_independent_guard_is_degenerate():
    # guard varying only with time has a vanishing state gradient
    sys_ = sl.HybridSystem(
        modes=(sl.affine_field(np.zeros((1, 1)), np.array([1.0])),
               sl.affine_field(np.zeros((1, 1)), np.zeros(1))),
        transitions=(sl.TransitionSpec(0, 1, sl.GuardSpec(g=lambda t, x: 0.5 - t),
                                       sl.identity_reset(1)),),
    )
    with pytest.raises(DegenerateGuard):
        sl.simulate(sys_, 0, np.array([0.0]), (0.0, 1.0))


def test_simultaneous_guards_are_ambiguous():
    f0 = sl.affine_field(np.zeros((2, 2)), np.array([1.0, -1.0]))
    fz = sl.affine_field(np.zeros((2, 2)), np.zeros(2))
    sys_ = sl.HybridSystem(
        modes=(f0, fz, fz),
        transitions=(
            sl.TransitionSpec(0, 1, sl.linear_guard(np.array([0.0, 1.0])),
                              sl.identity_reset(2)),
            sl.TransitionSpec(0, 2, sl.linear_guard(np.array([-1.0, 0.0]), offset=1.0),
                              sl.identity_reset(2)),
        ),
    )
    # both guards hit zero at t=1 from x0=(0, 1)
    with pytest.raises(AmbiguousEvent):
        sl.simulate(sys_, 0, np.array([0.0, 1.0]), (0.0, 2.0))


def test_divergent_state_raises_non_finite():
    sys_ = sl.HybridSystem(
        modes=(sl.VectorFieldSpec(dim=1, f=lambda t, x: x ** 2),),
        transitions=(),
    )
    with pytest.raises(NonFiniteState):
        with np.errstate(over="ignore", invalid="ignore"):
            sl.simulate(sys_, 0, np.array([50.0]), (0.0, 2.0))


def test_locate_event_refines_to_tolerance():
    # constant fall across the guard: crossing of y = 1 - t at t = 1
    sys_ = sl.HybridSystem(
        modes=(sl.affine_field(np.zeros((1, 1)), np.array([-1.0])),
               sl.affine_field(np.zeros((1, 1)), np.zeros(1))),
        transitions=(sl.TransitionSpec(0, 1, sl.linear_guard(np.array([1.0])),
                                       sl.identity_reset(1)),),
    )
    bracket = sl.GuardBracket(t_lo=0.999, x_lo=np.array([0.001]),
                              t_hi=1.001, x_hi=np.array([-0.001]),
                              candidates=((0, 1),))
    t_e, x_e = sl.locate_event(sys_, 0, bracket, sys_.transitions[0].guard)
    assert t_e == pytest.approx(1.0, abs=1e-9)
    assert x_e[0] == pytest.approx(0.0, abs=1e-9)


def test_locate_event_matches_simulate_at_a_coarse_step():
    # a 2e-3 bracket from integrate_segment must be refined exactly as
    # simulate refines it at step 2e-3, whatever locate_event's defaults are
    spiral = sl.affine_field(np.array([[-0.4, -6.0], [6.0, -0.4]]), np.zeros(2))
    sys_ = sl.HybridSystem(
        modes=(spiral, sl.affine_field(np.zeros((2, 2)), np.zeros(2))),
        transitions=(sl.TransitionSpec(0, 1, sl.linear_guard(np.array([1.0, 0.0]), offset=0.2),
                                       sl.identity_reset(2)),),
    )
    opts = sl.SimOptions(step=2e-3)
    guard = sys_.transitions[0].guard
    for angle in np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False):
        x0 = np.array([np.cos(angle), np.sin(angle)])
        traj = sl.simulate(sys_, 0, x0, (0.0, 2.0), opts)
        ev, seg = traj.events[0], traj.segments[0]
        times, states, bracket = sl.integrate_segment(sys_, 0, 0.0, x0, 2.0, step=opts.step)
        # the samples are simulate's first segment without its event sample
        assert times.tobytes() == seg.times[:-1].tobytes()
        assert states.tobytes() == seg.states[:-1].tobytes()
        t_e, x_e = sl.locate_event(sys_, 0, bracket, guard)
        assert t_e == ev.t_event
        np.testing.assert_array_equal(x_e, ev.x_minus)


@pytest.mark.parametrize("t0", [1e4, 1e6])
def test_bisection_stops_at_adjacent_floats_at_large_times(t0):
    # from t = 8192 on, ulp(t) > tol_t = 1e-12: bisection must stop once its
    # midpoint rounds to an end rather than run to its iteration cap
    sys_ = sl.bouncing_ball(e=0.5)
    spec = sys_.modes[0]
    calls = []

    def f(t, x):
        calls.append(t)
        return spec.f(t, x)

    counting = replace(sys_, modes=(sl.VectorFieldSpec(dim=spec.dim, f=f, jac_x=spec.jac_x),))
    n_calls = []
    for start in (0.0, t0):
        calls.clear()
        traj = sl.simulate(counting, 0, np.array([1.0, 0.0]), (start, start + 0.46))
        assert len(traj.events) == 1
        n_calls.append(len(calls))
    # the same steps, and no more bisection iterations than at t = 0
    assert n_calls[1] <= n_calls[0]


def test_localization_failure_at_adjacent_floats_names_the_ulp():
    # from t0 = 1e7 one ulp of time (1.86e-9 s) moves the falling ball's
    # height by about 8e-9, so no float time gets its guard within tol_g
    with pytest.raises(EventLocalizationError) as info:
        sl.simulate(sl.bouncing_ball(e=0.5), 0, np.array([1.0, 0.0]), (1e7, 1e7 + 0.5))
    msg = str(info.value)
    assert msg.startswith("guard residual 3.188e-09 above tol_g=1e-10 after bisection at t=10000000.45152")
    assert "is two adjacent floats, ulp(t)=1.863e-09 > tol_t=1e-12" in msg
    assert "one ulp moves the guard by about 8.250e-09, the order of the smallest reachable residual" in msg
    # a bracket that reached tol_t keeps the short message
    sys_ = sl.bouncing_ball(e=0.5)
    steep = replace(sys_, transitions=(replace(sys_.transitions[0], guard=sl.linear_guard(np.array([1e6, 0.0]))),))
    with pytest.raises(EventLocalizationError) as info:
        sl.simulate(steep, 0, np.array([1.0, 0.0]), (0.0, 0.5))
    assert "ulp" not in str(info.value)


def test_interpolate_and_segment_lookup():
    traj = sl.simulate(sl.bouncing_ball(e=0.5), 0, np.array([1.0, 0.0]), (0.0, 0.6))
    t_probe = 0.2
    x = traj.interpolate(t_probe)
    assert x[0] == pytest.approx(1.0 - 0.5 * G * t_probe ** 2, abs=1e-6)
    assert traj.segment_at(0.5) == 1
    with pytest.raises(ValueError):
        traj.segment_at(2.0)


# ---------------------------------------------------------------------------
# the batched engine: stack layout and bracket ends


def _recording(sys_, seen):
    """sys_ whose mode fields append (mode, rows, F-contiguous, C-contiguous)
    of every stack of more than one row they are called on to `seen`."""
    def wrap(mode, spec):
        def f(t, x):
            if x.ndim == 2 and x.shape[0] > 1:
                seen.append((mode, x.shape[0], x.flags.f_contiguous, x.flags.c_contiguous))
            return spec.f(t, x)
        return sl.VectorFieldSpec(dim=spec.dim, f=f, jac_x=spec.jac_x)
    return replace(sys_, modes=tuple(wrap(k, m) for k, m in enumerate(sys_.modes)))


def test_elementwise_fields_see_column_major_stacks_through_an_impact():
    seen = []
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=0.3))
    rng = np.random.default_rng(5)
    X0 = np.column_stack([rng.uniform(-0.2, 0.2, 64), rng.uniform(0.6, 1.0, 64),
                          rng.uniform(-0.3, 0.3, 64), rng.uniform(-0.3, 0.3, 64)])
    X_f, codes = _rollout(_STACK, _recording(sys_, seen), 0, 0.0, X0, 0.6, sl.SimOptions())
    assert codes.tolist() == [1] * 64
    # the flight is compacted as rows touch down one step after another, and
    # the slide continues from their resets on each row's own grid
    assert len({n for mode, n, _, _ in seen if mode == 0}) > 10
    assert any(mode == 1 for mode, _, _, _ in seen)
    assert all(f_contig and not c_contig for _, _, f_contig, c_contig in seen)
    for x0, x_f in zip(X0[:4], X_f[:4]):
        assert np.abs(sl.simulate(sys_, 0, x0, (0.0, 0.6)).x_end - x_f).max() < 1e-12


def test_matrix_product_fields_turn_their_stacks_row_major():
    seen = []
    sys_ = sl.bouncing_ball(e=0.5)
    X0 = np.column_stack([np.linspace(0.5, 1.5, 16), np.zeros(16)])
    opts = sl.SimOptions()
    _, br = _segment(_STACK, _recording(sys_, seen), 0, np.arange(16), 0.0, X0, 0.6, opts.step)
    # the segment's first field calls (its check and the first RK4 stage) see
    # the column-major stack it starts from; x @ A.T answers row-major, so
    # from the second RK4 stage on the field sees row-major stacks
    assert [(f_contig, c_contig) for _, _, f_contig, c_contig in seen[:2]] == [(True, False)] * 2
    assert len({n for _, n, _, _ in seen}) > 2
    assert all(c_contig and not f_contig for _, _, f_contig, c_contig in seen[2:])
    # brackets are joined column-major whatever the field's layout
    assert br.ids.size == 16
    assert br.x_lo.flags.f_contiguous and br.x_hi.flags.f_contiguous
    X_f, codes = _rollout(_STACK, sys_, 0, 0.0, X0, 0.6, opts)
    assert codes.tolist() == [1] * 16
    for x0, x_f in zip(X0, X_f):
        assert np.abs(sl.simulate(sys_, 0, x0, (0.0, 0.6)).x_end - x_f).max() <= 2.8e-14


def _where_bisection(rows, f, guard, sign, t_a, x_a, t_b, x_b, g_a, g_b, tol_t):
    """The bisection that carries both ends' states through np.where: the
    state at every midpoint, kept for the one it settles on."""
    t_lo, x_lo, g_lo, t_hi, x_hi, g_hi = t_a, x_a, sign * g_a, t_b, x_b, sign * g_b
    for _ in range(200):
        active = t_hi - t_lo > tol_t
        if not active.any():
            break
        t_mid = 0.5 * (t_lo + t_hi)
        x_mid = rows.rk4(f, t_a, x_a, t_mid - t_a)
        g_mid = sign * rows.guards([guard], t_mid, x_mid)[:, 0]
        up = active & (g_mid > 0.0)
        down = active ^ up
        t_lo, x_lo, g_lo = np.where(up, t_mid, t_lo), np.where(up[:, None], x_mid, x_lo), np.where(up, g_mid, g_lo)
        t_hi, x_hi, g_hi = np.where(down, t_mid, t_hi), np.where(down[:, None], x_mid, x_hi), np.where(down, g_mid, g_hi)
    pick_hi = np.abs(g_hi) <= np.abs(g_lo)
    return np.where(pick_hi, t_hi, t_lo), np.where(pick_hi[:, None], x_hi, x_lo)


def _bisection_cases():
    rng = np.random.default_rng(11)
    drops = np.column_stack([rng.uniform(-0.2, 0.2, 40), rng.uniform(0.6, 1.0, 40),
                             rng.uniform(-0.3, 0.3, 40), rng.uniform(-0.3, 0.3, 40)])
    return {
        "slide": (sl.ball_drop(sl.BallDropParams(theta=0.3))[1], drops, 0.6),
        "stick": (sl.ball_drop(sl.BallDropParams(theta=0.3, friction="infinite-stick"))[1],
                  drops, 0.6),
        "bounce": (sl.bouncing_ball(e=0.5),
                   np.column_stack([rng.uniform(0.5, 1.5, 40), rng.uniform(-1.0, 1.0, 40)]), 0.6),
        "field switch": (sl.field_switch(),
                         np.array([1.0, -0.2]) + 0.05 * rng.standard_normal((40, 2)), 2.2),
    }


@pytest.mark.parametrize("case", ["slide", "stick", "bounce", "field switch"])
def test_bisection_settles_on_the_states_the_where_loop_carries(case):
    sys_, X0, t_max = _bisection_cases()[case]
    opts = sl.SimOptions()
    _, br = _segment(_STACK, sys_, 0, np.arange(len(X0)), 0.0, X0, t_max, opts.step)
    assert br.ids.size > 20
    f, guard = sys_.modes[0].f, sys_.transitions[0].guard
    sign = br.sign[:, 0]
    g_ab = br.g_lo[:, 0], br.g_hi[:, 0]
    t_e, x_e, _, _ = _locate(_STACK, f, guard, sign, br.t_lo, br.x_lo, br.t_hi, br.x_hi, opts, g_ab)
    t_w, x_w = _where_bisection(_STACK, f, guard, sign, br.t_lo, br.x_lo, br.t_hi, br.x_hi,
                                *g_ab, opts.tol_t)
    assert t_e.tobytes() == t_w.tobytes()
    assert x_e.tobytes() == x_w.tobytes()


def _counting_rows(rows, fresh_k1):
    """`rows` that counts its guard evaluations (one per bisection iteration
    when the bracket's guard values are given) and, with fresh_k1, takes no
    first stage from its caller, so every RK4 step calls the field four times."""
    class Counting(type(rows)):
        n_guards = 0

        def guards(self, guards, t, X):
            self.n_guards += 1
            return super().guards(guards, t, X)

        if fresh_k1:
            def first_stage(self, f, t, X):
                return None

    return Counting()


@pytest.mark.parametrize("case", ["slide", "stick", "bounce", "field switch"])
def test_bisection_computes_its_first_rk4_stage_once(case, monkeypatch):
    sys_, X0, t_max = _bisection_cases()[case]
    opts = sl.SimOptions()
    _, br = _segment(_STACK, sys_, 0, np.arange(len(X0)), 0.0, X0, t_max, opts.step)
    guard = sys_.transitions[0].guard
    for one in (_STACK, _ONE_ROW):
        pick = slice(None) if one is _STACK else slice(0, 1)
        args = (guard, br.sign[pick, 0], br.t_lo[pick], br.x_lo[pick], br.t_hi[pick],
                br.x_hi[pick], opts, (br.g_lo[pick, 0], br.g_hi[pick, 0]))
        out, per_iteration = [], []
        for fresh_k1 in (False, True):
            calls = []

            def f(t, x):
                calls.append(t)
                return sys_.modes[0].f(t, x)

            rows = _counting_rows(one, fresh_k1)
            got = _locate(rows, f, *args)
            # one RK4 step per iteration, one more for an end that moved
            # (the event time is then a midpoint), one field call in the
            # slope, and without fresh_k1 the shared first stage
            moved = int(((got[0] != args[2]) & (got[0] != args[4])).any())
            in_loop = len(calls) - 1 - (3 + fresh_k1) * moved - (not fresh_k1)
            per_iteration.append(in_loop / rows.n_guards)
            out.append(got)
        assert per_iteration == [3.0, 4.0]
        for new, old in zip(*out):
            assert new.tobytes() == old.tobytes()

    # whole runs: the same event times and pre-event states, bit for bit
    runs = []
    for fresh_k1 in (False, True):
        if fresh_k1:
            monkeypatch.setattr(_OneRow, "first_stage", lambda self, f, t, X: None)
            monkeypatch.setattr(_Stack, "first_stage", lambda self, f, t, X: None)
        runs.append([[(ev.t_event, ev.x_minus.tobytes()) for ev in
                      sl.simulate(sys_, 0, x0, (0.0, t_max), opts).events] for x0 in X0[:8]])
    assert runs[0] == runs[1]
    assert any(runs[0])


def test_bracket_ends_are_the_scans_guard_values():
    # a guard whose last bits depend on the batch's row count, as a matrix
    # product's rounding can: row 0 lands exactly on the surface at the grid
    # sample t = 0.5, where the scan's two-row batch reads +1e-300. The
    # crossing rows alone, one row here, read -1e-300 there, so a bracket
    # whose ends were evaluated again would not straddle the guard.
    def g(t, x):
        return x[..., 0] + (1e-300 if x.ndim == 2 and x.shape[0] > 1 else -1e-300)

    fall = sl.VectorFieldSpec(dim=1, f=lambda t, x: np.full_like(x, -1.0))
    guard = sl.GuardSpec(g=g, jac_x=lambda t, x: np.ones_like(x), jac_t=lambda t, x: 0.0)
    sys_ = sl.HybridSystem(modes=(fall, fall),
                           transitions=(sl.TransitionSpec(0, 1, guard, sl.identity_reset(1)),))
    opts = sl.SimOptions(step=0.125)
    X0 = np.array([[0.5], [2.0]])
    assert sl.flow_to(fall.f, 0.0, X0[0], 0.5, opts.step)[0] == 0.0
    first = []

    def event(ids, idx, t_e, x_minus, x_plus, residual, transversality):
        first.append((ids, idx, t_e, x_minus))
        return True

    _rollout(_STACK, sys_, 0, 0.0, X0, 1.0, opts, event=event)
    (rows, idx, t_e, x_minus), = first
    assert rows.tolist() == [0] and idx == 0
    assert t_e.tolist() == [0.5]
    assert x_minus.tolist() == [[0.0]]


# ---------------------------------------------------------------------------
# rk4_step's buffered form on large stacks


def _plain_rk4(f, t, x, h, k1=None):
    """rk4_step's arithmetic as one expression: the reference for its buffered form."""
    hx = h[:, None] if isinstance(h, np.ndarray) else h
    if k1 is None:
        k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + (0.5 * hx) * k1)
    k3 = f(t + 0.5 * h, x + (0.5 * hx) * k2)
    k4 = f(t + h, x + hx * k3)
    return x + (hx / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _layout(a):
    return a.flags.f_contiguous, a.flags.c_contiguous


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _floor_rows(n):
    """The fewest rows of n floats that take the buffered form."""
    return -(-_RK4_BUFFER_BYTES // (8 * n))


_A20 = np.random.default_rng(3).standard_normal((20, 20)) / 20


def _col(t):
    """A float time, or one per row, against a row's coordinates."""
    return np.asarray(t)[..., None]


# fields of rows: elementwise, a matrix product (row-major results), a
# transposed product (column-major results), and one whose result layout
# alternates from call to call
_FIELDS = {
    "elementwise": lambda t, x: np.sin(x) * np.cos(_col(t)) - 0.3 * x * x,
    "product": lambda t, x: x @ _A20[:x.shape[-1], :x.shape[-1]].T + 0.1 * _col(t),
    "transposed": lambda t, x: (_A20[:x.shape[-1], :x.shape[-1]] @ x.T).T,
}


def _alternating():
    calls = []

    def f(t, x):
        calls.append(None)
        out = np.sin(x) - x * np.cos(_col(t))
        return np.asfortranarray(out) if len(calls) % 2 else np.ascontiguousarray(out)
    return f


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from([2, 4, 20]), offset=st.sampled_from([None, -2, -1, 0, 1, 2, 37, 300]),
       order=st.sampled_from("CF"), per_row_h=st.booleans(), pass_k1=st.booleans(),
       field=st.sampled_from([*_FIELDS, "alternating"]), seed=st.integers(0, 2 ** 32 - 1))
def test_buffered_rk4_equals_the_expression_bit_for_bit(n, offset, order, per_row_h, pass_k1, field, seed):
    # rows: one, or `offset` from the fewest that take the buffered form
    rows = 1 if offset is None else _floor_rows(n) + offset
    rng = np.random.default_rng(seed)
    x = np.asarray(rng.standard_normal((rows, n)), order=order)
    t, h = (rng.uniform(0, 2, rows), rng.uniform(1e-4, 1e-2, rows)) if per_row_h else (0.7, 1e-3)
    results, seen = [], []
    for step in (_plain_rk4, sl.rk4_step):
        f = _alternating() if field == "alternating" else _FIELDS[field]
        inputs = []

        def recorded(t, x, f=f, inputs=inputs):
            inputs.append((_layout(x), _bits(x).copy()))
            return f(t, x)

        k1 = recorded(t, x) if pass_k1 else None
        results.append(step(recorded, t, x, h, k1))
        seen.append(inputs)
    (plain, buffered), (plain_in, buffered_in) = results, seen
    assert (_bits(buffered) == _bits(plain)).all()
    assert _layout(buffered) == _layout(plain)
    # the field saw the same stage states, in the same layouts
    assert len(buffered_in) == len(plain_in) == 4
    for (lay_b, bits_b), (lay_p, bits_p) in zip(buffered_in, plain_in):
        assert lay_b == lay_p and (bits_b == bits_p).all()


def test_layout_votes_predict_numpy_result_layouts():
    # _rk4_buffered lays its buffers out by _vote; numpy must agree on
    # contiguous, reversed, strided, transposed and broadcast operands
    rng = np.random.default_rng(4)

    def operands(N, n):
        base = rng.standard_normal((N, n))
        wide, tall = rng.standard_normal((N, 2 * n)), rng.standard_normal((2 * N, n))
        return [np.ascontiguousarray(base), np.asfortranarray(base),
                np.ascontiguousarray(base)[::-1], np.asfortranarray(base)[:, ::-1],
                wide[:, ::2], np.asfortranarray(wide)[:, ::2], tall[::2], np.asfortranarray(tall)[::2],
                np.ascontiguousarray(base.T).T, np.broadcast_to(base[0], (N, n)),
                np.broadcast_to(base[:, :1], (N, n))]

    def column_major(a):
        return a.flags.f_contiguous and not a.flags.c_contiguous

    def predicted(*votes):
        return "F" in votes and "C" not in votes

    for N, n in [(50, 4), (4, 50), (7, 7), (1, 9), (9, 1)]:
        ops = operands(N, n)
        for a in ops:
            for b in ops:
                for c in (0.5, rng.standard_normal((N, 1))):
                    # c k is laid out as k asks, row-major where k has no say
                    ck = "F" if predicted(_vote(b)) else "C"
                    assert column_major(a + c * b) == predicted(_vote(a), ck)
                assert column_major(a + b) == predicted(_vote(a), _vote(b))


# fields that hand back their input or a view of it, which the buffered form
# must not write to after the field has seen it
_ALIASING = {
    "identity": lambda t, x: x,
    "reversed coordinates": lambda t, x: x[..., ::-1],
    "reversed rows": lambda t, x: x[::-1],
    "first coordinate": lambda t, x: np.broadcast_to(x[..., :1], x.shape),
}


@pytest.mark.parametrize("name", list(_ALIASING))
@pytest.mark.parametrize("pass_k1", [False, True])
def test_buffered_rk4_never_writes_what_a_field_saw(name, pass_k1):
    g = _ALIASING[name]
    rows = 4 * _floor_rows(4)
    X = np.asfortranarray(np.random.default_rng(8).standard_normal((rows, 4)))
    for path, X_in in ((_STACK, X), (_ONE_ROW, X[:1])):
        assert (X_in.nbytes >= _RK4_BUFFER_BYTES) == (path is _STACK)
        received = []

        def recording(t, x):
            out = g(t, x)
            received.append((x, x.copy(), out, np.array(out, copy=True)))
            return out

        k1 = path.first_stage(recording, 0.2, X_in) if pass_k1 else None
        got = path.rk4(recording, 0.2, X_in, 1e-2, k1)
        # every array the field received or returned still holds its values
        assert len(received) == 4
        for x_seen, x_copy, out, out_copy in received:
            assert (_bits(x_seen) == _bits(x_copy)).all()
            assert (_bits(out) == _bits(out_copy)).all()
        copied = path.rk4(lambda t, x: np.array(g(t, x), copy=True), 0.2, X_in, 1e-2)
        assert (_bits(got) == _bits(copied)).all()
