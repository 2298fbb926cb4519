"""Acceptance gate: one test per checklist criterion, at stated tolerances.

Each test prints a one-line summary of the measured margins and asserts both
the numerical tolerance and the runtime bound for its criterion.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

import saltlib as sl
from saltlib.cli import main as cli_main

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


def test_criterion_01_slide_impact_saltation_three_forms_agree():
    t0 = time.monotonic()
    worst_pair = 0.0
    worst_eig = 0.0
    worst_vec = 0.0
    for theta in (0.0, np.pi / 6, 0.3, np.pi / 4, 1.0):
        s, c = np.sin(theta), np.cos(theta)
        model, sys_ = sl.ball_drop(sl.BallDropParams(theta=theta))
        traj = sl.simulate(sys_, 0, np.array([0.0, 1.0, 0.0, 0.0]), (0.0, 0.6))
        ev = traj.events[0]
        assert sys_.transition_names[ev.transition_index] == "U->S"
        # generic event-based formula over the built system, the contact-map
        # closed form, and the trig projector form
        xi_sys = sl.saltation_matrix(sys_, ev).xi
        xi_contact = sl.closed_form_saltation(model, ("U", "S"),
                                              ev.t_event, ev.x_minus).xi
        xi_trig = sl.slide_impact_saltation(theta)
        for a, b in ((xi_sys, xi_contact), (xi_sys, xi_trig),
                     (xi_contact, xi_trig)):
            worst_pair = max(worst_pair, float(np.abs(a - b).max()))
        rep = sl.eigen_report(xi_sys, zero_tol=1e-9)
        eigs = np.sort(np.real(rep.eigenvalues))
        worst_eig = max(worst_eig,
                        float(np.abs(eigs - np.array([0.0, 0.0, 1.0, 1.0])).max()))
        assert rep.zero_mask.sum() == 2
        for k in range(4):
            if not rep.zero_mask[k]:
                continue
            v = np.real(rep.eigenvectors[:, k])
            # both the position and the velocity half align with the surface
            # normal [sin(theta), cos(theta)]
            for half in (v[:2], v[2:]):
                worst_vec = max(worst_vec, abs(half[0] * c - half[1] * s))
    elapsed = time.monotonic() - t0
    print(f"slide impact forms: pairwise gap {worst_pair:.3e} (tol 1e-9), "
          f"eigenvalue gap {worst_eig:.3e}, normal-alignment {worst_vec:.3e}, "
          f"runtime {elapsed:.2f}s (bound 1s)")
    assert worst_pair <= 1e-9
    assert worst_eig <= 1e-9
    assert worst_vec <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_stick_impact_saltation_matches_closed_form():
    t0 = time.monotonic()
    theta = 0.3
    s, c = np.sin(theta), np.cos(theta)
    _, sys_c = sl.ball_drop(sl.BallDropParams(theta=theta,
                                              friction="infinite-stick"))
    idx_uc = sys_c.transition_names.index("U->C")
    rng = np.random.default_rng(12345)
    worst_closed = 0.0
    worst_dir = 0.0
    for _ in range(10):
        r = rng.uniform(-1.0, 1.0)
        qd_t = rng.uniform(-2.0, 2.0)
        qd_n = rng.uniform(-3.0, -0.2)
        q = r * np.array([c, -s])
        qd = qd_t * np.array([c, -s]) + qd_n * np.array([s, c])
        x_minus = np.concatenate([q, qd])
        ev = sl.EventRecord(
            t_event=0.0, transition_index=idx_uc, x_minus=x_minus,
            x_plus=sys_c.transitions[idx_uc].reset.apply(0.0, x_minus),
            guard_residual=0.0, transversality=float(qd_n),
        )
        res = sl.saltation_matrix(sys_c, ev)
        xi_closed = sl.stick_impact_saltation(theta, qd[0], qd[1])
        worst_closed = max(worst_closed,
                           float(np.abs(res.xi - xi_closed).max()))
        # the position block annihilates exactly the pre-impact velocity
        # direction
        rep = sl.eigen_report(res.xi[:2, :2], zero_tol=1e-9)
        assert rep.zero_mask.sum() == 1
        v = np.real(rep.eigenvectors[:, rep.zero_mask][:, 0])
        worst_dir = max(worst_dir,
                        abs(v[0] * qd[1] - v[1] * qd[0]) / np.linalg.norm(qd))
    elapsed = time.monotonic() - t0
    print(f"stick impact: closed-form gap {worst_closed:.3e} (tol 1e-9), "
          f"zero-direction misalignment {worst_dir:.3e} (tol 1e-8), "
          f"runtime {elapsed:.2f}s (bound 1s)")
    assert worst_closed <= 1e-9
    assert worst_dir <= 1e-8
    assert elapsed < 1.0


def test_criterion_03_numeric_oracle_matches_analytic_saltation():
    t0 = time.monotonic()
    gaps = {}

    # bouncing ball, all restitution regimes; the impact location does not
    # depend on e, so localize it once and rebuild the event per system
    base = sl.simulate(sl.bouncing_ball(e=0.5), 0, np.array([1.0, 0.0]),
                       (0.0, 0.6))
    ev0 = base.events[0]
    for e in (0.0, 0.5, 1.0):
        sys_e = sl.bouncing_ball(e=e)
        synth = sl.EventRecord(
            t_event=ev0.t_event, transition_index=0, x_minus=ev0.x_minus,
            x_plus=sys_e.transitions[0].reset.apply(ev0.t_event, ev0.x_minus),
            guard_residual=ev0.guard_residual,
            transversality=ev0.transversality,
        )
        analytic = sl.saltation_matrix(sys_e, synth).xi
        num = sl.numeric_saltation(sys_e, 0, ev0.x_minus, ev0.t_event, h=1e-6)
        gaps[f"bounce e={e}"] = sl.matrix_rel_err(num, analytic)

    # every transition of both ball-drop friction variants; thrust inputs
    # drive the liftoff transitions, a rising start covers the apex one
    chains = []
    _, sys_s = sl.ball_drop(sl.BallDropParams(theta=0.0,
                                              u2=lambda t, x: 12.0 * x[..., 0]))
    chains.append((sys_s, 0, np.array([0.0, 1.0, 0.8, 0.0]), (0.0, 1.1)))
    _, sys_c = sl.ball_drop(sl.BallDropParams(
        theta=0.0, friction="infinite-stick",
        u2=lambda t, x: 6.0 * t + 3.0 * x[..., 1]))
    chains.append((sys_c, 0, np.array([0.2, 0.4, 0.5, 0.0]), (0.0, 1.7)))
    _, sys_v = sl.ball_drop(sl.BallDropParams(theta=0.3))
    chains.append((sys_v, 2, np.array([0.0, 0.5, 0.2, 2.0]), (0.0, 0.4)))
    _, sys_vc = sl.ball_drop(sl.BallDropParams(theta=0.3,
                                               friction="infinite-stick"))
    chains.append((sys_vc, 2, np.array([0.0, 0.5, 0.2, 2.0]), (0.0, 0.4)))

    covered = set()
    for sys_, mode0, x0, span in chains:
        traj = sl.simulate(sys_, mode0, x0, span)
        for i, ev in enumerate(traj.events):
            name = sys_.transition_names[ev.transition_index]
            analytic = sl.saltation_matrix(sys_, ev).xi
            num = sl.numeric_saltation(sys_, traj.segments[i].mode,
                                       ev.x_minus, ev.t_event, h=1e-6,
                                       expected_transition=ev.transition_index)
            gaps[name] = max(gaps.get(name, 0.0),
                             sl.matrix_rel_err(num, analytic))
            covered.add(name)
    assert covered == {"U->S", "S->V", "U->C", "C->V", "V->U"}

    # piecewise-constant flow benchmark
    cf = sl.constant_flow_two_mode(np.array([1.0, -1.0]), np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0]), 0.0)
    traj_f = sl.simulate(cf, 0, np.array([0.0, 1.0]), (0.0, 2.0))
    ev = traj_f.events[0]
    gaps["constant-flow"] = sl.matrix_rel_err(
        sl.numeric_saltation(cf, 0, ev.x_minus, ev.t_event, h=1e-6),
        sl.saltation_matrix(cf, ev).xi)

    elapsed = time.monotonic() - t0
    worst = max(gaps.values())
    print("oracle agreement: " +
          ", ".join(f"{k} {v:.2e}" for k, v in sorted(gaps.items())) +
          f"; worst {worst:.3e} (tol 1e-4), runtime {elapsed:.2f}s (bound 30s)")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_04_saltation_structure_flags_match_transition_table():
    t0 = time.monotonic()
    theta = 0.3
    s, c = np.sin(theta), np.cos(theta)
    x_imp = np.concatenate([0.7 * np.array([c, -s]), [0.4, -2.0]])

    rows = []
    model_s, _ = sl.ball_drop(sl.BallDropParams(theta=theta))
    rows.append(("U->S", sl.closed_form_saltation(model_s, ("U", "S"),
                                                  0.0, x_imp)))
    model_c, _ = sl.ball_drop(sl.BallDropParams(theta=theta,
                                                friction="infinite-stick"))
    rows.append(("U->C", sl.closed_form_saltation(model_c, ("U", "C"),
                                                  0.0, x_imp)))
    model_e, _ = sl.ball_drop(sl.BallDropParams(theta=theta, e=0.5))
    rows.append(("U->V", sl.closed_form_saltation(model_e, ("U", "V"),
                                                  0.0, x_imp)))

    # liftoff states come from driven trajectories so the normal force is
    # genuinely crossing zero there
    model_th, sys_th = sl.ball_drop(sl.BallDropParams(
        theta=0.0, u2=lambda t, x: 12.0 * x[..., 0]))
    traj_th = sl.simulate(sys_th, 0, np.array([0.0, 1.0, 0.8, 0.0]), (0.0, 1.1))
    ev_sv = [e for e in traj_th.events
             if sys_th.transition_names[e.transition_index] == "S->V"][0]
    rows.append(("S->V", sl.closed_form_saltation(model_th, ("S", "V"),
                                                  ev_sv.t_event, ev_sv.x_minus)))
    model_tc, sys_tc = sl.ball_drop(sl.BallDropParams(
        theta=0.0, friction="infinite-stick",
        u2=lambda t, x: 6.0 * t + 3.0 * x[..., 1]))
    traj_tc = sl.simulate(sys_tc, 0, np.array([0.2, 0.4, 0.5, 0.0]), (0.0, 1.7))
    ev_cv = [e for e in traj_tc.events
             if sys_tc.transition_names[e.transition_index] == "C->V"][0]
    rows.append(("C->V", sl.closed_form_saltation(model_tc, ("C", "V"),
                                                  ev_cv.t_event, ev_cv.x_minus)))

    rows.append(("V->U", sl.closed_form_saltation(
        model_e, ("V", "U"), 0.0, np.array([0.3, 0.8, 0.4, 0.0]))))

    # onset of slip driven exactly to the friction-cone boundary; with
    # mu_s = mu_k the stick and incipient-slide fields agree there
    mu, alpha = 0.6, 0.6 * G
    model_cs = _incline_model(0.0, mu=mu,
                              input_fn=lambda t, q, qd: np.array([alpha * t, 0.0]))
    rows.append(("C->S", sl.closed_form_saltation(
        model_cs, ("C", "S"), 1.0, np.array([0.3, 0.0, 0.0, 0.0]),
        slide_direction=1.0)))
    model_sc = _incline_model(theta, mu=0.6)
    x_sc = np.concatenate([0.7 * np.array([c, -s]), [0.0, 0.0]])
    rows.append(("S->C", sl.closed_form_saltation(model_sc, ("S", "C"),
                                                  0.0, x_sc,
                                                  slide_direction=1.0)))

    expected = {
        "U->S": (False, False, True),
        "U->C": (False, False, False),
        "U->V": (False, False, True),
        "S->V": (True, True, True),
        "C->V": (True, True, True),
        "V->U": (True, True, True),
        "C->S": (True, True, True),
        "S->C": (True, False, False),
    }
    worst_ur = 0.0
    mismatches = []
    for name, res in rows:
        rep = sl.classify_structure(res)
        flags = (rep.identity_reset, rep.field_match, rep.equal_diag_blocks)
        if flags != expected[name]:
            mismatches.append(f"{name}: {flags} != {expected[name]}")
        worst_ur = max(worst_ur, float(np.abs(res.xi[:2, 2:]).max()))
    elapsed = time.monotonic() - t0
    print(f"structure table: {len(rows)} rows, mismatches {mismatches or 'none'}, "
          f"upper-right block {worst_ur:.3e} (tol 1e-10), "
          f"runtime {elapsed:.2f}s (bound 5s)")
    assert len(rows) == 8
    assert mismatches == []
    assert worst_ur <= 1e-10
    assert elapsed < 5.0


@pytest.mark.slow
def test_criterion_05_covariance_collapse_and_monte_carlo_agreement():
    t0 = time.monotonic()
    theta = 0.3
    s, c = np.sin(theta), np.cos(theta)
    _, sys_ = sl.ball_drop(sl.BallDropParams(theta=theta))
    x0 = np.array([0.0, 1.0, 0.0, 0.0])
    span = (0.0, 0.6)
    sigma0 = 1e-4 * np.eye(4)
    traj = sl.simulate(sys_, 0, x0, span)
    assert sys_.transition_names[traj.events[0].transition_index] == "U->S"
    states = sl.propagate_covariance(sys_, traj, sigma0)
    sig_plus = states[-1].sigma

    # the impact annihilates the normal position and velocity components
    jn_pos = np.array([s, c, 0.0, 0.0])
    jn_vel = np.array([0.0, 0.0, s, c])
    var_pos = abs(float(jn_pos @ sig_plus @ jn_pos))
    var_vel = abs(float(jn_vel @ sig_plus @ jn_vel))
    bound = 1e-8 * float(np.trace(sig_plus))

    mc = sl.monte_carlo_covariance(sys_, 0, x0, sigma0, span,
                                   n_samples=100_000, seed=0)
    frob = float(np.linalg.norm(mc - sig_plus) / np.linalg.norm(sig_plus))

    # composing the variational flows around the event-aware jump map must
    # reproduce the propagated covariance, while the reset-Jacobian-only
    # update visibly disagrees
    ev = traj.events[0]
    res = sl.saltation_matrix(sys_, ev)
    A1 = sl.variational_flow(sys_, 0, span[0], x0, ev.t_event)
    A2 = sl.variational_flow(sys_, 1, ev.t_event, ev.x_plus, span[1])
    M_true = A2 @ res.xi @ A1
    M_naive = A2 @ res.dxr @ A1
    composed_gap = float(np.abs(M_true @ sigma0 @ M_true.T - sig_plus).max())
    naive_gap = float(np.linalg.norm(M_naive @ sigma0 @ M_naive.T - sig_plus)
                      / np.linalg.norm(sig_plus))

    elapsed = time.monotonic() - t0
    print(f"covariance collapse: normal vars {var_pos:.2e}/{var_vel:.2e} "
          f"(bound {bound:.2e}), monte-carlo gap {frob:.4f} (tol 0.05), "
          f"composed-map gap {composed_gap:.2e}, "
          f"reset-jacobian-only gap {naive_gap:.3f} (must exceed 0.20), "
          f"runtime {elapsed:.2f}s (bound 60s)")
    assert var_pos <= bound
    assert var_vel <= bound
    assert frob <= 0.05
    assert composed_gap <= 1e-12
    assert naive_gap > 0.20
    assert elapsed < 60.0


def test_criterion_06_elastic_bounce_monodromy_and_floquet_multipliers():
    t0 = time.monotonic()
    t1 = np.sqrt(2.0 / G)
    period = 2.0 * t1
    sys_ = sl.bouncing_ball(e=1.0)
    traj = sl.simulate(sys_, 0, np.array([1.0, 0.0]), (0.0, period))
    rep = sl.monodromy(sys_, traj)

    failures = []
    target = np.array([[-1.0, -period], [0.0, -1.0]])
    phi_gap = float(np.abs(rep.phi - target).max())
    if phi_gap > 1e-6:
        failures.append(f"phi gap {phi_gap:.3e} > 1e-6 "
                        f"(phi={rep.phi.tolist()})")
    mult_gap = max(abs(abs(sv) - 1.0) for sv in rep.multipliers)
    if mult_gap > 1e-6:
        failures.append(f"multiplier magnitude gap {mult_gap:.3e} > 1e-6")
    if rep.verdict != "marginal":
        failures.append(f"verdict {rep.verdict!r} != 'marginal'")
    recon_gap = max(abs(sv - np.exp(mu * rep.period))
                    for sv, mu in zip(rep.multipliers, rep.exponents))
    if recon_gap > 1e-9:
        failures.append(f"multiplier/exponent relation gap {recon_gap:.3e} "
                        f"> 1e-9")

    elapsed = time.monotonic() - t0
    print(f"bounce monodromy: phi gap {phi_gap:.3e}, multiplier gap "
          f"{mult_gap:.3e}, verdict {rep.verdict!r}, relation gap "
          f"{recon_gap:.3e}, runtime {elapsed:.2f}s (bound 5s)")
    assert elapsed < 5.0
    assert failures == [], "; ".join(failures)


def test_criterion_07_event_step_sandwich_matches_finite_difference():
    t0 = time.monotonic()

    def sandwich_gap(sys_, mode0, x0, span):
        traj = sl.simulate(sys_, mode0, x0, span)
        ev = traj.events[0]
        t_a, t_b = ev.t_event - 0.5e-3, ev.t_event + 0.5e-3
        x_a = traj.interpolate(t_a)
        res = sl.saltation_matrix(sys_, ev)
        mode1 = sys_.transitions[ev.transition_index].to_mode
        A_i = sl.variational_flow(sys_, mode0, t_a, x_a, ev.t_event)
        A_j = sl.variational_flow(sys_, mode1, ev.t_event, ev.x_plus, t_b)
        analytic = A_j @ res.xi @ A_i
        h = 1e-6
        n = x_a.size
        fd = np.empty((analytic.shape[0], n))
        for i in range(n):
            d = np.zeros(n)
            d[i] = h
            xp = sl.simulate(sys_, mode0, x_a + d, (t_a, t_b)).x_end
            xm = sl.simulate(sys_, mode0, x_a - d, (t_a, t_b)).x_end
            fd[:, i] = (xp - xm) / (2.0 * h)
        return sl.matrix_rel_err(fd, analytic)

    gaps = {}
    gaps["bounce"] = sandwich_gap(sl.bouncing_ball(e=0.5), 0,
                                  np.array([1.0, 0.0]), (0.0, 0.6))
    _, sys_sl = sl.ball_drop(sl.BallDropParams(theta=0.3))
    gaps["slide"] = sandwich_gap(sys_sl, 0, np.array([0.0, 1.0, 0.0, 0.0]),
                                 (0.0, 0.6))
    _, sys_st = sl.ball_drop(sl.BallDropParams(theta=0.3,
                                               friction="infinite-stick"))
    gaps["stick"] = sandwich_gap(sys_st, 0, np.array([0.1, 1.0, 0.4, 0.0]),
                                 (0.0, 0.6))
    _, sys_el = sl.ball_drop(sl.BallDropParams(theta=0.3, e=0.6))
    gaps["elastic"] = sandwich_gap(sys_el, 0, np.array([0.0, 1.0, 0.0, 0.0]),
                                   (0.0, 0.6))
    cf = sl.constant_flow_two_mode(np.array([1.0, -1.0]), np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0]), 0.0)
    gaps["constant-flow"] = sandwich_gap(cf, 0, np.array([0.0, 1.0]),
                                         (0.0, 2.0))

    elapsed = time.monotonic() - t0
    worst = max(gaps.values())
    print("event-step sandwich: " +
          ", ".join(f"{k} {v:.2e}" for k, v in gaps.items()) +
          f"; worst {worst:.3e} (tol 1e-4), runtime {elapsed:.2f}s (bound 10s)")
    assert worst <= 1e-4
    assert elapsed < 10.0


@pytest.mark.slow
def test_criterion_08_riccati_jump_psd_and_lqr_beats_perturbed_gains():
    t0 = time.monotonic()

    # value jumps stay symmetric PSD over a large randomized sweep
    sysb = sl.bouncing_ball(e=0.5)
    trajb = sl.simulate(sysb, 0, np.array([1.0, 0.0]), (0.0, 0.6))
    resb = sl.saltation_matrix(sysb, trajb.events[0])
    rng = np.random.default_rng(0)
    worst_asym = 0.0
    worst_neg = 0.0
    for _ in range(1000):
        Lp = rng.standard_normal((2, 2))
        Lq = rng.standard_normal((2, 2))
        out = sl.riccati_jump(resb, sl.ValueState(t=0.0, mode=0, p=Lp @ Lp.T),
                              q_stage=Lq @ Lq.T)
        worst_asym = max(worst_asym, float(np.abs(out.p - out.p.T).max()))
        scale = max(1.0, float(np.abs(out.p).max()))
        worst_neg = max(worst_neg,
                        -float(np.linalg.eigvalsh(out.p).min()) / scale)

    # a gain schedule from the backward pass beats every random static
    # perturbation of itself on rollout cost
    sys_sw = sl.field_switch()
    Q = np.eye(2)
    V = 0.5 * np.eye(1)
    B = np.array([[0.0], [1.0]])
    P_T = np.eye(2)
    opts = sl.SimOptions(step=2e-3)
    ref = sl.simulate(sys_sw, 0, np.array([1.0, -0.2]), (0.0, 2.2), opts)
    assert len(ref.events) == 1  # the rollouts cross the switch
    sol = sl.hybrid_lqr_backward(sys_sw, ref, Q, V, B, P_T)

    prng = np.random.Generator(np.random.Philox(42))
    pert_rows = 1e-3 * prng.standard_normal((3, 2))
    cost_opt = sl.brute_force_cost(sys_sw, ref, Q, V, B, P_T, policy=sol,
                                   perturbations=pert_rows, options=opts)

    knorm = float(np.linalg.norm(sol.gains[0]))
    beaten = 0
    min_margin = np.inf
    for _ in range(100):
        delta = 0.1 * knorm * prng.standard_normal((1, 2))
        cost_k = sl.brute_force_cost(sys_sw, ref, Q, V, B, P_T,
                                     policy=replace(sol, gains=tuple(g + delta for g in sol.gains)),
                                     perturbations=pert_rows, options=opts)
        min_margin = min(min_margin, cost_k - cost_opt)
        if cost_k >= cost_opt:
            beaten += 1

    elapsed = time.monotonic() - t0
    print(f"riccati/lqr: asymmetry {worst_asym:.1e}, most negative "
          f"eigenvalue ratio {worst_neg:.1e}, policy beats {beaten}/100 "
          f"perturbations (min margin {min_margin:.2e}), "
          f"runtime {elapsed:.2f}s (bound 60s)")
    assert worst_asym == 0.0
    assert worst_neg <= 1e-10
    assert beaten == 100
    assert elapsed < 60.0


def test_criterion_09_saltation_prediction_first_order_convergence():
    t0 = time.monotonic()

    def ratios(sys_, mode0, x0, span, d):
        ref = sl.simulate(sys_, mode0, x0, span)
        phi = sl.fundamental_matrix(sys_, ref).phi
        errs = []
        for s_ in (1e-3, 5e-4, 2.5e-4):
            pert = sl.simulate(sys_, mode0, x0 + s_ * d, span).x_end
            pred = ref.x_end + phi @ (s_ * d)
            errs.append(float(np.linalg.norm(pert - pred)))
        return errs[0] / errs[1], errs[1] / errs[2], errs

    r_b1, r_b2, errs_b = ratios(sl.bouncing_ball(e=0.5), 0,
                                np.array([1.0, 0.0]), (0.0, 0.6),
                                np.array([0.6, 0.8]))
    # the infinite-friction drop keeps the composed flow map genuinely
    # nonlinear through the impact-time dependence of the resting position
    _, sys_st = sl.ball_drop(sl.BallDropParams(theta=0.3,
                                               friction="infinite-stick"))
    r_d1, r_d2, errs_d = ratios(sys_st, 0, np.array([0.1, 1.0, 0.4, 0.0]),
                                (0.0, 0.6), np.array([0.0, 0.6, 0.8, 0.0]))

    elapsed = time.monotonic() - t0
    print(f"first-order contraction: bounce ratios {r_b1:.3f}/{r_b2:.3f} "
          f"(residuals {errs_b[0]:.1e}->{errs_b[2]:.1e}), drop ratios "
          f"{r_d1:.3f}/{r_d2:.3f} (residuals {errs_d[0]:.1e}->{errs_d[2]:.1e}), "
          f"window [3.2, 4.8], runtime {elapsed:.2f}s (bound 10s)")
    for ratio in (r_b1, r_b2, r_d1, r_d2):
        assert 3.2 <= ratio <= 4.8
    assert elapsed < 10.0


@pytest.mark.slow
def test_criterion_10_verify_command_deterministic_and_green(tmp_path):
    t0 = time.monotonic()
    out_a = tmp_path / "report_a.json"
    out_b = tmp_path / "report_b.json"
    codes = []
    for out in (out_a, out_b):
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with redirect_stdout(buf_out), redirect_stderr(buf_err):
            codes.append(cli_main(["verify", "--seed", "7",
                                   "--output", str(out)]))
    elapsed = time.monotonic() - t0

    bytes_a = out_a.read_bytes()
    bytes_b = out_b.read_bytes()
    doc = json.loads(bytes_a)
    print(f"verify determinism: exit codes {codes}, byte-identical "
          f"{bytes_a == bytes_b}, checks passed {doc['passed']}/"
          f"{len(doc['checks'])}, runtime {elapsed:.1f}s (bound 180s)")
    assert codes == [0, 0]
    assert bytes_a == bytes_b
    assert doc["passed"] == len(doc["checks"])
    assert elapsed < 180.0
