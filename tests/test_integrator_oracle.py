"""Independent integrator oracle: the first event of a simulation against
scipy's adaptive solve_ivp with terminal events.

scipy integrates the same model fields and locates the same guards with its
own Dormand-Prince stepper and root finder, so the event time, the fired
transition and the post-event state x+ are checked by code that shares
nothing with simulate().
"""

import numpy as np
import pytest

import saltlib as sl

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

RTOL, ATOL = 1e-10, 1e-12
# solve_ivp keeps each step's local error within ATOL + RTOL |x|. Over these
# sub-second runs of O(1) states the global error stays within ten times
# that, with |x| taken as 1 + max |x|. simulate's own error is far smaller:
# events are located to tol_t = 1e-12, and RK4 at the default step is exact on
# the polynomial flights and off by about 1e-10 on the forced one.
SCALE = 10.0


def _tol(x):
    return SCALE * (ATOL + RTOL * (1.0 + float(np.abs(x).max())))


def _scipy_first_event(sys_, mode0, x0, t_end):
    outgoing = sys_.outgoing(mode0)
    field = sys_.modes[mode0]
    events = []
    for _, tr in outgoing:
        event = (lambda g: lambda t, x: float(g(t, x)))(tr.guard.g)
        event.terminal = True
        event.direction = -1.0
        events.append(event)
    sol = solve_ivp(lambda t, x: np.asarray(field.f(t, x), dtype=float), (0.0, t_end),
                    x0, method="DOP853", rtol=RTOL, atol=ATOL, events=events)
    assert sol.status == 1, "scipy reached t_end without an event"
    k = next(i for i, times in enumerate(sol.t_events) if times.size)
    t_e = float(sol.t_events[k][0])
    idx, tr = outgoing[k]
    return idx, t_e, tr.reset.apply(t_e, sol.y_events[k][0])


def _forced(t, x):
    return np.sin(3.0 * t)


CASES = {
    "bouncing-ball": (lambda: sl.bouncing_ball(e=0.5), [1.0, 0.0]),
    "ball-drop-slide": (lambda: sl.ball_drop(sl.BallDropParams(theta=0.3))[1],
                        [0.0, 1.0, 0.0, 0.0]),
    "ball-drop-stick": (lambda: sl.ball_drop(sl.BallDropParams(
        theta=0.2, friction="infinite-stick"))[1], [0.1, 0.8, 0.5, 0.0]),
    "ball-drop-elastic": (lambda: sl.ball_drop(sl.BallDropParams(theta=-0.2, e=0.8))[1],
                          [0.0, 0.5, -0.3, 0.6]),
    "ball-drop-forced": (lambda: sl.ball_drop(sl.BallDropParams(
        theta=0.3, u1=_forced, u2=_forced))[1], [0.0, 1.0, 0.3, 0.0]),
    "constant-flow": (lambda: sl.constant_flow_two_mode(
        np.array([1.0, -1.0]), np.array([1.0, 0.3]), np.array([0.0, 1.0]), 0.0), [0.0, 0.1]),
    "generic-ball-drop": (lambda: sl.build_hybrid_system(
        sl.ball_drop(sl.BallDropParams(theta=0.3))[0]), [0.0, 1.0, 0.2, 0.0]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_first_event_matches_scipy_solve_ivp(name):
    build, x0 = CASES[name]
    sys_ = build()
    x0 = np.asarray(x0, dtype=float)
    # the run stops at the second event; only the first is compared
    try:
        traj = sl.simulate(sys_, 0, x0, (0.0, 1.0), sl.SimOptions(max_events=1))
    except sl.ZenoSuspected as exc:
        traj = exc.trajectory
    ev = traj.events[0]
    idx, t_e, x_plus = _scipy_first_event(sys_, 0, x0, 1.0)
    print(f"{name}: |dt| {abs(ev.t_event - t_e):.2e}, "
          f"|dx+| {float(np.abs(ev.x_plus - x_plus).max()):.2e}")
    assert ev.transition_index == idx
    assert abs(ev.t_event - t_e) <= _tol(x0)
    np.testing.assert_allclose(ev.x_plus, x_plus, rtol=0, atol=_tol(x_plus))
