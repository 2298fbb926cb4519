"""Built-in models: regime wiring, field consistency, affine JSON loading."""

import json

import numpy as np
import pytest

import saltlib as sl
from saltlib.errors import SchemaError

G = 9.81


def _tagged_states(theta, rng):
    s, c = np.sin(theta), np.cos(theta)
    q_on = 0.5 * np.array([c, -s])
    return {
        "free": rng.uniform(-1.0, 1.0, size=4) + np.array([0.0, 2.0, 0.0, 0.0]),
        "contact": np.concatenate([q_on, 1.3 * np.array([c, -s])]),
    }


@pytest.mark.parametrize("params,tags", [
    (sl.BallDropParams(theta=0.3), ("U", "S", "V")),
    (sl.BallDropParams(theta=0.3, friction="infinite-stick"), ("U", "C", "V")),
    (sl.BallDropParams(theta=0.3, e=0.6), ("U", "V")),
    (sl.BallDropParams(theta=0.0, u1=lambda t, x: 0.2 * t,
                       u2=lambda t, x: 0.5 + 0.1 * x[..., 0]), ("U", "S", "V")),
    (sl.BallDropParams(theta=0.3, friction="infinite-stick", u1=lambda t, x: 0.2 * t,
                       u2=lambda t, x: 0.5 + 0.1 * x[..., 0]), ("U", "C", "V")),
    (sl.BallDropParams(theta=0.3, e=0.6, u1=lambda t, x: 0.2 * t,
                       u2=lambda t, x: 0.5 + 0.1 * x[..., 0]), ("U", "V")),
])
def test_system_fields_match_rigid_body_dynamics(params, tags):
    model, sys_ = sl.ball_drop(params)
    assert sys_.mode_names == tags
    rng = np.random.default_rng(11)
    states = _tagged_states(params.theta, rng)
    for i, tag in enumerate(tags):
        x = states["free"] if tag in ("U", "V") else states["contact"]
        f_sys = sys_.modes[i].f(0.7, x)
        f_model = sl.mode_dynamics(model, tag, 0.7, x)
        np.testing.assert_allclose(f_sys, f_model, rtol=0, atol=1e-9)


@pytest.mark.parametrize("friction,tag", [("frictionless-slide", "S"), ("infinite-stick", "C")])
def test_liftoff_guard_is_the_rigid_body_normal_force(friction, tag):
    params = sl.BallDropParams(theta=0.3, mass=1.7, friction=friction,
                               u1=lambda t, x: 0.4 - 0.3 * t * x[..., 2],
                               u2=lambda t, x: 2.0 + 0.5 * x[..., 0])
    model, sys_ = sl.ball_drop(params)
    assert sys_.transition_names[1] == f"{tag}->V"
    guard = sys_.transitions[1].guard
    s, c = np.sin(params.theta), np.cos(params.theta)
    rng = np.random.default_rng(4)
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0) * np.array([c, -s])
        x = np.concatenate([q, rng.uniform(0.5, 2.0) * np.array([c, -s])])
        t = rng.uniform(0.0, 2.0)
        force = sl.constraint_forces(model, tag, t, x)[0]
        assert guard.value(t, x) == pytest.approx(force, rel=0, abs=1e-9)


@pytest.mark.parametrize("params,target", [
    (sl.BallDropParams(theta=0.3), "S"),
    (sl.BallDropParams(theta=0.3, friction="infinite-stick"), "C"),
    (sl.BallDropParams(theta=0.3, e=0.6), "V"),
])
def test_system_impact_reset_matches_rigid_body_reset(params, target):
    model, sys_ = sl.ball_drop(params)
    rng = np.random.default_rng(3)
    s, c = np.sin(params.theta), np.cos(params.theta)
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0) * np.array([c, -s])
        qd = rng.uniform(-3.0, 3.0, size=2)
        if model.jn(q)[0] @ qd > -0.1:
            qd = np.array([0.3, -2.5])
        x = np.concatenate([q, qd])
        np.testing.assert_allclose(sys_.transitions[0].reset.apply(0.0, x),
                                   sl.impact_reset(model, target, 0.0, x),
                                   rtol=0, atol=1e-10)


def test_simulated_slide_impact_matches_trig_form():
    theta = 0.3
    model, sys_ = sl.ball_drop(sl.BallDropParams(theta=theta))
    traj = sl.simulate(sys_, 0, np.array([0.0, 1.0, 0.0, 0.0]), (0.0, 1.0))
    ev = traj.events[0]
    res = sl.saltation_matrix(sys_, ev)
    np.testing.assert_allclose(res.xi, sl.slide_impact_saltation(theta),
                               rtol=0, atol=1e-9)
    closed = sl.closed_form_saltation(model, ("U", "S"), ev.t_event, ev.x_minus)
    np.testing.assert_allclose(res.xi, closed.xi, rtol=0, atol=1e-9)


def test_simulated_stick_impact_matches_rational_form():
    theta = 0.3
    model, sys_ = sl.ball_drop(sl.BallDropParams(theta=theta, friction="infinite-stick"))
    traj = sl.simulate(sys_, 0, np.array([0.1, 1.0, 0.4, 0.0]), (0.0, 1.0))
    ev = traj.events[0]
    res = sl.saltation_matrix(sys_, ev)
    qd = ev.x_minus[2:]
    np.testing.assert_allclose(res.xi, sl.stick_impact_saltation(theta, qd[0], qd[1]),
                               rtol=0, atol=1e-9)
    closed = sl.closed_form_saltation(model, ("U", "C"), ev.t_event, ev.x_minus)
    np.testing.assert_allclose(res.xi, closed.xi, rtol=0, atol=1e-9)


def test_elastic_bounce_conserves_energy():
    sys_ = sl.bouncing_ball(e=1.0)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, 2.0))
    e0 = G * 1.0
    for seg in traj.segments:
        energy = 0.5 * seg.states[:, 1] ** 2 + G * seg.states[:, 0]
        assert float(np.abs(energy - e0).max()) <= 1e-8


def test_slide_then_liftoff_chain_under_position_thrust():
    # vertical thrust growing with q1 cancels the contact force mid-slide
    params = sl.BallDropParams(theta=0.0, u2=lambda t, x: 12.0 * x[..., 0])
    _, sys_ = sl.ball_drop(params)
    traj = sl.simulate(sys_, 0, np.array([0.0, 1.0, 0.8, 0.0]), (0.0, 1.1))
    names = [sys_.transition_names[ev.transition_index] for ev in traj.events]
    assert names == ["U->S", "S->V"]
    assert traj.events[0].t_event == pytest.approx(0.4929, abs=2e-3)
    assert traj.events[1].t_event == pytest.approx(1.0219, abs=2e-3)
    assert traj.mode_sequence == (0, 1, 2)


def test_stick_then_liftoff_chain_under_mixed_thrust():
    params = sl.BallDropParams(theta=0.0, friction="infinite-stick",
                               u2=lambda t, x: 6.0 * t + 3.0 * x[..., 1])
    _, sys_ = sl.ball_drop(params)
    traj = sl.simulate(sys_, 0, np.array([0.2, 0.4, 0.5, 0.0]), (0.0, 1.7))
    names = [sys_.transition_names[ev.transition_index] for ev in traj.events]
    assert names == ["U->C", "C->V"]
    assert traj.events[0].t_event == pytest.approx(0.3126, abs=2e-3)
    assert traj.events[1].t_event == pytest.approx(1.635, abs=2e-3)


def test_apex_transition_from_rising_flight():
    params = sl.BallDropParams(theta=0.3, e=0.5)
    _, sys_ = sl.ball_drop(params)
    traj = sl.simulate(sys_, 2 - 1, np.array([0.0, 0.5, 0.2, 2.0]), (0.0, 0.4))
    names = [sys_.transition_names[ev.transition_index] for ev in traj.events]
    assert names == ["V->U"]
    assert traj.events[0].t_event == pytest.approx(0.2102, abs=2e-3)


def test_fields_broadcast_over_sample_batches():
    params = sl.BallDropParams(theta=0.3, u2=lambda t, x: 0.4 * x[..., 0])
    _, sys_ = sl.ball_drop(params)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(6, 4))
    for mode in range(3):
        batch = sys_.modes[mode].f(0.3, X)
        assert batch.shape == (6, 4)
        rows = np.stack([sys_.modes[mode].f(0.3, x) for x in X])
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-12)


def _affine_doc():
    return {
        "format": "saltlib-affine-v1",
        "modes": [
            {"dim": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "c": [1.0, -1.0], "name": "before"},
            {"dim": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "c": [1.0, 0.0], "name": "after"},
        ],
        "transitions": [
            {"from": 0, "to": 1,
             "guard": {"normal": [0.0, 1.0], "offset": 0.0},
             "reset": {"M": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]},
             "name": "cross"},
        ],
    }


def test_load_affine_matches_builtin_constant_flow(tmp_path):
    doc = _affine_doc()
    built = sl.constant_flow_two_mode(np.array([1.0, -1.0]), np.array([1.0, 0.0]),
                                      np.array([0.0, 1.0]), 0.0)
    for source in (doc, json.dumps(doc)):
        sys_ = sl.load_affine(source)
        assert sys_.mode_names == ("before", "after")
        assert sys_.transition_names == ("cross",)
        t_a = sl.simulate(sys_, 0, np.array([0.0, 1.0]), (0.0, 2.0))
        t_b = sl.simulate(built, 0, np.array([0.0, 1.0]), (0.0, 2.0))
        assert t_a.events[0].t_event == t_b.events[0].t_event
        np.testing.assert_array_equal(
            sl.saltation_matrix(sys_, t_a.events[0]).xi,
            sl.saltation_matrix(built, t_b.events[0]).xi,
        )
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(doc))
    assert sl.validate_system(sl.load_affine(path)) == []


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d.pop("format"), "/format"),
    (lambda d: d.update(format="affine-v0"), "/format"),
    (lambda d: d.update(modes={}), "/modes"),
    (lambda d: d["modes"][0].update(A=[[1.0, 0.0]]), "/modes/0/A"),
    (lambda d: d["modes"][0].update(c=[1.0, None]), "/modes/0/c"),
    (lambda d: d["modes"][1].update(dim=0), "/modes/1/dim"),
    (lambda d: d["transitions"][0].update({"from": 5}), "/transitions/0/from"),
    (lambda d: d["transitions"][0]["guard"].update(normal=[1.0]), "/transitions/0/guard/normal"),
    (lambda d: d["transitions"][0]["guard"].update(offset="big"), "/transitions/0/guard/offset"),
    (lambda d: d["transitions"][0]["reset"].update(M=[[1.0], [0.0]]), "/transitions/0/reset/M"),
    (lambda d: d["transitions"][0].pop("reset"), "/transitions/0/reset"),
])
def test_load_affine_schema_errors_carry_json_pointers(mutate, path):
    doc = _affine_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        sl.load_affine(doc)
    assert info.value.path == path


def test_load_affine_rejects_malformed_json_text():
    with pytest.raises(SchemaError):
        sl.load_affine("{not json")
    with pytest.raises(SchemaError):
        sl.load_affine("[1, 2, 3]")


def test_load_affine_reads_any_other_string_as_a_file(tmp_path):
    path = tmp_path / "flow.txt"
    path.write_text(json.dumps(_affine_doc()))
    assert sl.load_affine(str(path)).mode_names == ("before", "after")
    missing = str(tmp_path / "absent")
    with pytest.raises(SchemaError) as info:
        sl.load_affine(missing)
    assert info.value.path == missing


def test_builtin_parameter_validation():
    with pytest.raises(ValueError):
        sl.bouncing_ball(e=-0.5)
    with pytest.raises(ValueError):
        sl.bouncing_ball(a_g=0.0)
    with pytest.raises(ValueError):
        sl.constant_flow_two_mode(np.array([1.0, -1.0]), np.array([1.0]),
                                  np.array([0.0, 1.0]), 0.0)
