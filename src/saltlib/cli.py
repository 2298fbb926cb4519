"""Command-line front end.

Subcommands: simulate, saltation, monodromy, covariance, lqr, verify.
Outputs are deterministic: JSON with sorted keys, repr-formatted floats in
CSV, atomic file replacement, and counter-based RNG seeding throughout.

Exit codes: 0 success, 1 generic failure, 2 runaway event accumulation,
3 ambiguous simultaneous events, 4 tangential guard contact, 5 input schema
violation, 6 oracle/self-check mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
import tempfile
from dataclasses import replace
from typing import Optional

import numpy as np

from .errors import (
    AmbiguousEvent,
    SaltlibError,
    SchemaError,
    TangentialEvent,
    ZenoSuspected,
)
from .models import (
    BallDropParams,
    ball_drop,
    bouncing_ball,
    constant_flow_two_mode,
    field_switch,
    load_affine,
    slide_impact_saltation,
    stick_impact_saltation,
)
from .oracles import (
    OracleReport,
    brute_force_cost,
    compare,
    matrix_rel_err,
    monte_carlo_covariance,
    numeric_saltation,
)
from .propagation import (
    hybrid_lqr_backward,
    monodromy,
    propagate_covariance,
    variational_flow,
)
from .rigidbody import closed_form_saltation
from .saltation import classify_structure, saltation_matrix
from .simulate import DEFAULT_STEP, GuardBracket, SimOptions, locate_event, simulate
from .system import GuardSpec, HybridSystem, affine_field
from .trajectory import HybridTrajectory

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ZENO = 2
EXIT_AMBIGUOUS = 3
EXIT_TANGENTIAL = 4
EXIT_SCHEMA = 5
EXIT_ORACLE = 6
EXIT_USAGE = 64

# the exit code of a failure of each class, in order; any other failure is EXIT_FAIL
_FAILURE_CODES = ((ZenoSuspected, EXIT_ZENO), (AmbiguousEvent, EXIT_AMBIGUOUS),
                  (TangentialEvent, EXIT_TANGENTIAL), (SchemaError, EXIT_SCHEMA))


class _Parser(argparse.ArgumentParser):
    # argparse's default usage-error exit code collides with the pinned
    # failure codes above, so route usage errors to 64
    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _py(obj):
    """Recursively convert numpy containers to JSON-serializable types."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _py(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        _sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".saltlib-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(doc, path: Optional[str]) -> None:
    _emit(json.dumps(_py(doc), sort_keys=True, indent=2) + "\n", path)


def _floats(text: str, option: str) -> np.ndarray:
    """The comma-separated numbers of `text`; a SchemaError names `option`."""
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise SchemaError(option, f"expected comma-separated numbers, got {text!r}") from None


def _add_model_args(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("model")
    g.add_argument("--model", choices=["ball-drop", "bouncing-ball", "constant-flow"],
                   help="built-in model family")
    g.add_argument("--model-json", metavar="PATH",
                   help="portable affine system description (saltlib-affine-v1)")
    g.add_argument("--theta", type=float, default=0.0, help="plane inclination [rad]")
    g.add_argument("--mass", type=float, default=1.0)
    g.add_argument("--a-g", type=float, default=9.81, dest="a_g")
    g.add_argument("--friction", choices=["frictionless-slide", "infinite-stick"],
                   default="frictionless-slide")
    g.add_argument("--e", type=float, default=None, help="restitution coefficient")
    g.add_argument("--f-i", dest="f_i", help="constant-flow: pre field, comma list")
    g.add_argument("--f-j", dest="f_j", help="constant-flow: post field, comma list")
    g.add_argument("--guard-normal", dest="guard_normal", help="constant-flow guard normal")
    g.add_argument("--offset", type=float, default=0.0, help="constant-flow guard offset")


def _add_common_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--x0", help="initial state, comma-separated")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t", type=float, help="end time of the run")
    sp.add_argument("--mode0", default="0", help="initial mode index or name")
    sp.add_argument("--step", type=float, default=DEFAULT_STEP)
    sp.add_argument("--max-events", type=int, default=1000, dest="max_events")
    sp.add_argument("--output", help="write to this path (atomic); default stdout")
    sp.add_argument("--threads", type=int, default=None,
                    help="validated only: a positive integer (also via SALTLIB_THREADS)")


def _check_mc_samples(n: int) -> None:
    if n < 2:
        raise SchemaError("mc_samples", f"a sample covariance needs at least 2 samples, got {n}")


def _validate_threads(args) -> None:
    """Reject a non-integer SALTLIB_THREADS or a thread count below 1.

    The setting changes nothing else: numerics run in one process, and BLAS
    reads its thread caps (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS,
    MKL_NUM_THREADS) when numpy loads, before any argument is parsed.
    """
    n = args.threads
    if n is None:
        env = os.environ.get("SALTLIB_THREADS")
        if env is not None:
            try:
                n = int(env)
            except ValueError:
                raise SchemaError("SALTLIB_THREADS", f"not an integer: {env!r}") from None
    if n is not None and n < 1:
        raise SchemaError("threads", "must be >= 1")


def _build_system(args) -> tuple[HybridSystem, Optional[object]]:
    """Returns (system, rigid-body model or None)."""
    if args.model_json:
        if args.model:
            raise SchemaError("model", "--model and --model-json are mutually exclusive")
        return load_affine(args.model_json), None
    if not args.model:
        raise SchemaError("model", "one of --model or --model-json is required")
    if args.model == "bouncing-ball":
        e = 0.5 if args.e is None else args.e
        return bouncing_ball(e=e, a_g=args.a_g), None
    if args.model == "ball-drop":
        params = BallDropParams(
            theta=args.theta,
            mass=args.mass,
            a_g=args.a_g,
            friction=args.friction,
            e=0.0 if args.e is None else args.e,
        )
        model, system = ball_drop(params)
        return system, model
    if args.f_i is None or args.f_j is None or args.guard_normal is None:
        raise SchemaError("model", "constant-flow requires --f-i, --f-j, --guard-normal")
    return constant_flow_two_mode(_floats(args.f_i, "--f-i"), _floats(args.f_j, "--f-j"),
                                  _floats(args.guard_normal, "--guard-normal"),
                                  args.offset), None


def _resolve_mode(sys: HybridSystem, label: str) -> int:
    if sys.mode_names is not None and label in sys.mode_names:
        return sys.mode_names.index(label)
    try:
        idx = int(label)
    except ValueError:
        raise SchemaError("mode0", f"unknown mode {label!r}") from None
    if not 0 <= idx < len(sys.modes):
        raise SchemaError("mode0", f"mode index {idx} out of range")
    return idx


def _require_x0(args) -> np.ndarray:
    if args.x0 is None:
        raise SchemaError("x0", "--x0 is required")
    return _floats(args.x0, "--x0")


def _require_t(args) -> float:
    if args.t is None:
        raise SchemaError("t", "--t is required")
    return float(args.t)


def _options(args) -> SimOptions:
    return SimOptions(step=args.step, max_events=args.max_events)


def _transition_label(sys: HybridSystem, idx: int) -> str:
    if sys.transition_names is not None and 0 <= idx < len(sys.transition_names):
        return sys.transition_names[idx]
    return str(idx)


def _traj_doc(sys: HybridSystem, traj: HybridTrajectory) -> dict:
    return {
        "segments": [
            {
                "mode": seg.mode,
                "mode_name": sys.mode_label(seg.mode),
                "times": seg.times,
                "states": seg.states,
            }
            for seg in traj.segments
        ],
        "events": [
            {
                "t": ev.t_event,
                "transition": ev.transition_index,
                "transition_name": _transition_label(sys, ev.transition_index),
                "x_minus": ev.x_minus,
                "x_plus": ev.x_plus,
                "guard_residual": ev.guard_residual,
                "transversality": ev.transversality,
            }
            for ev in traj.events
        ],
    }


def _traj_csv(sys: HybridSystem, traj: HybridTrajectory) -> str:
    n = traj.segments[0].states.shape[1]
    lines = ["t,mode," + ",".join(f"x{i}" for i in range(n))]

    def row(t: float, label: str, x: np.ndarray) -> str:
        return ",".join([repr(float(t)), label] + [repr(float(v)) for v in x])

    for k, seg in enumerate(traj.segments):
        label = sys.mode_label(seg.mode)
        for t, x in zip(seg.times, seg.states):
            lines.append(row(t, label, x))
        if k < len(traj.events):
            ev = traj.events[k]
            lines.append(row(ev.t_event, _transition_label(sys, ev.transition_index), ev.x_minus))
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    sys_, _ = _build_system(args)
    traj = simulate(sys_, _resolve_mode(sys_, args.mode0), _require_x0(args),
                    (args.t0, _require_t(args)), _options(args))
    if args.format == "csv":
        _emit(_traj_csv(sys_, traj), args.output)
    else:
        _emit_json(_traj_doc(sys_, traj), args.output)
    return EXIT_OK


def cmd_saltation(args) -> int:
    sys_, model = _build_system(args)
    mode0 = _resolve_mode(sys_, args.mode0)
    x0 = _require_x0(args)
    traj = simulate(sys_, mode0, x0, (args.t0, _require_t(args)), _options(args))
    if args.event_index >= len(traj.events):
        raise SaltlibError(
            f"run produced {len(traj.events)} events; --event-index {args.event_index} "
            "is out of range"
        )
    ev = traj.events[args.event_index]
    res = saltation_matrix(sys_, ev)
    report = classify_structure(res, ev)
    doc = {
        "event": {
            "t": ev.t_event,
            "transition": ev.transition_index,
            "transition_name": _transition_label(sys_, ev.transition_index),
            "x_minus": ev.x_minus,
            "x_plus": ev.x_plus,
        },
        "saltation": res.to_dict(),
        "structure": report.to_dict(),
    }

    exit_code = EXIT_OK
    if args.closed_form:
        if model is None:
            raise SaltlibError("--closed-form requires a rigid-body model (--model ball-drop)")
        name = _transition_label(sys_, ev.transition_index)
        src, dst = name.split("->")
        cf = closed_form_saltation(model, (src, dst), ev.t_event, ev.x_minus)
        doc["closed_form"] = {
            "xi": cf.xi,
            "max_rel_err_vs_generic": matrix_rel_err(cf.xi, res.xi),
        }

    if args.oracle:
        # locate the same event for the oracle's reference segment
        seg_mode = traj.segments[args.event_index].mode
        xi_num = numeric_saltation(sys_, seg_mode, ev.x_minus, ev.t_event,
                                   h=args.oracle_h, options=_options(args),
                                   expected_transition=ev.transition_index)
        rep = compare("saltation-fd", res.xi, xi_num, args.oracle_rtol)
        doc["oracle"] = rep.to_dict()
        if not rep.passed:
            exit_code = EXIT_ORACLE

    _emit_json(doc, args.output)
    return exit_code


def _auto_period(sys_: HybridSystem, mode0: int, x0: np.ndarray, t0: float,
                 t_max: float, opts: SimOptions) -> float:
    """Return time of the flow to the section through x0 normal to the flow."""
    scout = simulate(sys_, mode0, x0, (t0, t_max), opts)
    f0 = np.asarray(sys_.modes[mode0].f(t0, x0), dtype=float)
    nf = float(np.linalg.norm(f0))
    if nf == 0.0:
        raise SaltlibError("flow vanishes at x0; cannot build a return section")
    normal = f0 / nf
    scale = 1.0 + float(np.linalg.norm(x0))
    # positive before the section, the sign locate_event assumes for a bracket
    # without candidates; not a rollout guard, since through an apex of the
    # ball drop it would cross together with V->U and raise AmbiguousEvent
    section = GuardSpec(g=lambda t, x: -float((x - x0) @ normal),
                        jac_x=lambda t, x: -normal, jac_t=lambda t, x: 0.0)

    t_min = t0 + 10.0 * opts.step
    for seg in scout.segments:
        if seg.mode != mode0:
            continue
        s_vals = (seg.states - x0) @ normal
        near = np.linalg.norm(seg.states - x0, axis=1) < 0.25 * scale
        for i in range(seg.times.size - 1):
            if seg.times[i] < t_min or not (near[i] or near[i + 1]):
                continue
            if s_vals[i] < 0.0 <= s_vals[i + 1]:
                bracket = GuardBracket(seg.times[i], seg.states[i], seg.times[i + 1],
                                       seg.states[i + 1], ())
                t_e, _ = locate_event(sys_, mode0, bracket, section, opts.tol_g, opts.tol_t)
                return t_e - t0
    raise SaltlibError("no return to the initial section found within --t")


def cmd_monodromy(args) -> int:
    sys_, _ = _build_system(args)
    mode0 = _resolve_mode(sys_, args.mode0)
    x0 = _require_x0(args)
    opts = _options(args)
    if args.period == "auto":
        period = _auto_period(sys_, mode0, x0, args.t0, _require_t(args), opts)
    else:
        try:
            period = float(args.period)
        except ValueError:
            raise SchemaError("period", f"expected a number or 'auto', got {args.period!r}") from None
    traj = simulate(sys_, mode0, x0, (args.t0, args.t0 + period), opts)
    report = monodromy(sys_, traj, tol_periodic=args.tol_periodic, step=args.step)
    _emit_json(report.to_dict(), args.output)
    return EXIT_OK


def _parse_sigma(text: str, n: int) -> np.ndarray:
    vals = _floats(text, "--sigma0")
    if vals.size == 1:
        return float(vals[0]) * np.eye(n)
    if vals.size == n:
        return np.diag(vals)
    if vals.size == n * n:
        return vals.reshape(n, n)
    raise SchemaError("sigma0", f"expected 1, {n}, or {n * n} values, got {vals.size}")


def cmd_covariance(args) -> int:
    sys_, _ = _build_system(args)
    mode0 = _resolve_mode(sys_, args.mode0)
    x0 = _require_x0(args)
    sigma0 = _parse_sigma(args.sigma0, x0.size)
    _check_mc_samples(args.mc_samples)
    opts = _options(args)
    traj = simulate(sys_, mode0, x0, (args.t0, _require_t(args)), opts)
    states = propagate_covariance(sys_, traj, sigma0, step=args.step)

    exit_code = EXIT_OK
    mc_doc = None
    if args.mc_check:
        sigma_mc = monte_carlo_covariance(
            sys_, mode0, x0, sigma0, (args.t0, _require_t(args)),
            n_samples=args.mc_samples, seed=args.seed, options=opts,
        )
        ref = states[-1].sigma
        denom = float(np.linalg.norm(ref))
        frob = float(np.linalg.norm(sigma_mc - ref)) / (denom if denom > 0.0 else 1.0)
        passed = frob <= args.mc_rtol
        mc_doc = {
            "sigma": sigma_mc,
            "frobenius_rel_err": frob,
            "n_samples": args.mc_samples,
            "seed": args.seed,
            "pass": passed,
        }
        if not passed:
            exit_code = EXIT_ORACLE

    if args.format == "csv":
        # eigenvalue spectrum per sample time, ready for collapse plots
        n = states[0].sigma.shape[0]
        lines = ["t,mode," + ",".join(f"eig{i}" for i in range(n))]
        for s in states:
            eigs = np.linalg.eigvalsh(s.sigma)
            lines.append(",".join([repr(float(s.t)), sys_.mode_label(s.mode)]
                                  + [repr(float(v)) for v in eigs]))
        _emit("\n".join(lines) + "\n", args.output)
        return exit_code

    doc = {
        "final": {"t": states[-1].t, "mode": states[-1].mode, "sigma": states[-1].sigma},
        "states": [{"t": s.t, "mode": s.mode, "sigma": s.sigma} for s in states],
    }
    if mc_doc is not None:
        doc["monte_carlo"] = mc_doc
    _emit_json(doc, args.output)
    return exit_code


def _lqr_matrix(text: Optional[str], field: str, rows: int, cols: Optional[int]) -> np.ndarray:
    """An lqr matrix option of shape (rows, cols), ;-separated rows of
    comma-separated numbers; cols None leaves the column count free. A missing
    option is the identity, and a square one may be a scalar s for s I."""
    if not text:
        return np.eye(rows)
    try:
        if cols == rows and ";" not in text:
            (s,) = _floats(text, field)
            return s * np.eye(rows)
        mat = np.vstack([_floats(r, field) for r in text.split(";") if r.strip() != ""])
    except (SchemaError, ValueError):
        raise SchemaError(field, f"expected a number or ;-separated rows of numbers, "
                                 f"got {text!r}") from None
    if mat.shape[0] != rows or cols not in (None, mat.shape[1]):
        raise SchemaError(field, f"expected {rows} rows and {cols or 'any number of'} columns, "
                                 f"got shape {mat.shape}")
    return mat


def cmd_lqr(args) -> int:
    sys_, _ = _build_system(args)
    mode0 = _resolve_mode(sys_, args.mode0)
    x0 = _require_x0(args)
    n = x0.size
    opts = _options(args)
    traj = simulate(sys_, mode0, x0, (args.t0, _require_t(args)), opts)

    B = _lqr_matrix(args.b, "b", n, None)
    Q = _lqr_matrix(args.q, "q", n, n)
    V = _lqr_matrix(args.v, "v", B.shape[1], B.shape[1])
    P_T = _lqr_matrix(args.p_terminal, "p_terminal", n, n)

    sol = hybrid_lqr_backward(sys_, traj, Q, V, B, P_T, step=args.step)
    doc = {
        "gain_times": sol.gain_times,
        "gains": [g for g in sol.gains],
        "value_start": sol.values[0],
        "node_times": sol.node_times,
        "n_events": len(traj.events),
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def _verify_checks(seed: int, mc_samples: int, step: float) -> list[dict]:
    checks: list[dict] = []
    opts = SimOptions(step=step)

    def add(rep) -> None:
        checks.append(rep.to_dict())

    # 1: bouncing-ball impact saltation, formula vs event-based vs finite differences
    e, a_g, y0 = 0.5, 9.81, 1.0
    sys_b = bouncing_ball(e=e, a_g=a_g)
    traj = simulate(sys_b, 0, np.array([y0, 0.0]), (0.0, 0.6), opts)
    ev = traj.events[0]
    res = saltation_matrix(sys_b, ev)
    v_minus = ev.x_minus[1]
    xi_ref = np.array([[-e, 0.0], [-(1.0 + e) * a_g / v_minus, -e]])
    add(compare("bounce-saltation-closed-form", xi_ref, res.xi, 1e-9))
    xi_num = numeric_saltation(sys_b, 0, ev.x_minus, ev.t_event, options=opts,
                               expected_transition=ev.transition_index)
    add(compare("bounce-saltation-fd-oracle", res.xi, xi_num, 1e-4))

    # 2: inclined-plane slide impact, trig closed form vs generic vs contact form
    theta = 0.3
    model, sys_s = ball_drop(BallDropParams(theta=theta))
    x0 = np.array([0.0, 1.0, 0.0, 0.0])
    traj = simulate(sys_s, 0, x0, (0.0, 0.6), opts)
    ev = traj.events[0]
    res = saltation_matrix(sys_s, ev)
    add(compare("slide-impact-trig-form", slide_impact_saltation(theta), res.xi, 1e-9))
    cf = closed_form_saltation(model, ("U", "S"), ev.t_event, ev.x_minus)
    add(compare("slide-impact-contact-form", cf.xi, res.xi, 1e-9))
    xi_num = numeric_saltation(sys_s, 0, ev.x_minus, ev.t_event, options=opts,
                               expected_transition=ev.transition_index)
    add(compare("slide-impact-fd-oracle", res.xi, xi_num, 1e-4))

    # 3: stick impact, velocity-dependent position block
    model_c, sys_c = ball_drop(BallDropParams(theta=theta, friction="infinite-stick"))
    x0c = np.array([0.2, 1.0, 0.3, 0.0])
    traj_c = simulate(sys_c, 0, x0c, (0.0, 0.6), opts)
    ev_c = traj_c.events[0]
    res_c = saltation_matrix(sys_c, ev_c)
    qd = ev_c.x_minus[2:]
    add(compare("stick-impact-trig-form",
                stick_impact_saltation(theta, qd[0], qd[1]), res_c.xi, 1e-9))
    cf_c = closed_form_saltation(model_c, ("U", "C"), ev_c.t_event, ev_c.x_minus)
    add(compare("stick-impact-contact-form", cf_c.xi, res_c.xi, 1e-9))

    # 4: smooth variational flow against the spiral closed form
    alpha, omega, T = -0.4, 2.0, 1.25
    A = np.array([[alpha, -omega], [omega, alpha]])
    sys_lin = HybridSystem(
        modes=(affine_field(A, np.zeros(2)),),
        transitions=(),
    )
    phi = variational_flow(sys_lin, 0, 0.0, np.array([1.0, 0.0]), T, step)
    rot = np.exp(alpha * T) * np.array(
        [[np.cos(omega * T), -np.sin(omega * T)], [np.sin(omega * T), np.cos(omega * T)]]
    )
    add(compare("spiral-variational-flow", rot, phi, 1e-9))

    # 5: linear covariance push-forward against Phi Sigma Phi^T
    traj_lin = simulate(sys_lin, 0, np.array([1.0, 0.0]), (0.0, T), opts)
    sigma0 = np.array([[0.04, 0.01], [0.01, 0.09]])
    states = propagate_covariance(sys_lin, traj_lin, sigma0, step=step)
    add(compare("linear-covariance", rot @ sigma0 @ rot.T, states[-1].sigma, 1e-9))

    # 6: Monte Carlo covariance through the slide impact
    x0_mc = np.array([0.0, 0.6, 0.0, 0.0])
    t_mc = (0.0, 0.5)
    traj_mc = simulate(sys_s, 0, x0_mc, t_mc, opts)
    sigma0_mc = 1e-6 * np.eye(4)
    prop = propagate_covariance(sys_s, traj_mc, sigma0_mc, step=step)
    sigma_mc = monte_carlo_covariance(sys_s, 0, x0_mc, sigma0_mc, t_mc,
                                      n_samples=mc_samples, seed=seed, options=opts)
    ref = prop[-1].sigma
    frob = float(np.linalg.norm(sigma_mc - ref) / np.linalg.norm(ref))
    add(OracleReport("slide-impact-monte-carlo", ref, sigma_mc, frob, frob <= 0.05))

    # 7: LQR cost optimality on the field switch
    sys_sw = field_switch()
    traj_l = simulate(sys_sw, 0, np.array([1.0, -0.2]), (0.0, 2.2), opts)  # switches at t = 1.63
    Q = np.eye(2)
    V = 0.5 * np.eye(1)
    B = np.array([[0.0], [1.0]])
    P_T = np.eye(2)
    sol = hybrid_lqr_backward(sys_sw, traj_l, Q, V, B, P_T, step=step)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    pert = 1e-3 * rng.standard_normal((6, 2))
    cost_opt = brute_force_cost(sys_sw, traj_l, Q, V, B, P_T, policy=sol,
                                perturbations=pert, options=opts)

    worse = 0
    trials = []
    for k in range(4):
        delta = 0.35 * np.linalg.norm(sol.gains[0]) * rng.standard_normal((1, 2))
        cost_k = brute_force_cost(sys_sw, traj_l, Q, V, B, P_T,
                                  policy=replace(sol, gains=tuple(g + delta for g in sol.gains)),
                                  perturbations=pert, options=opts)
        trials.append(cost_k)
        if cost_k >= cost_opt:
            worse += 1
    add(OracleReport("lqr-cost-optimality", cost_opt, trials,
                     0.0 if worse == len(trials) else 1.0, worse == len(trials)))
    return checks


def cmd_verify(args) -> int:
    _check_mc_samples(args.mc_samples)
    checks = _verify_checks(args.seed, args.mc_samples, args.step)
    doc = {
        "seed": args.seed,
        "mc_samples": args.mc_samples,
        "checks": checks,
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
    }
    _emit_json(doc, args.output)
    return EXIT_OK if doc["failed"] == 0 else EXIT_ORACLE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saltlib", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("simulate", help="run a hybrid execution")
    _add_model_args(sp)
    _add_common_args(sp)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("saltation", help="saltation matrix at an event")
    _add_model_args(sp)
    _add_common_args(sp)
    sp.add_argument("--event-index", type=int, default=0, dest="event_index")
    sp.add_argument("--closed-form", action="store_true", dest="closed_form",
                    help="also evaluate the contact closed form")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the finite-difference oracle")
    sp.add_argument("--oracle-h", type=float, default=1e-6, dest="oracle_h")
    sp.add_argument("--oracle-rtol", type=float, default=1e-4, dest="oracle_rtol")
    sp.set_defaults(fn=cmd_saltation)

    sp = sub.add_parser("monodromy", help="Floquet analysis of a closed orbit")
    _add_model_args(sp)
    _add_common_args(sp)
    sp.add_argument("--period", default="auto",
                    help="orbit period, or 'auto' to detect the return to x0")
    sp.add_argument("--tol-periodic", type=float, default=1e-6, dest="tol_periodic")
    sp.set_defaults(fn=cmd_monodromy)

    sp = sub.add_parser("covariance", help="propagate a covariance along a run")
    _add_model_args(sp)
    _add_common_args(sp)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--sigma0", default="1e-6", help="scalar, diagonal, or full matrix")
    sp.add_argument("--mc-check", action="store_true", dest="mc_check",
                    help="cross-check the final covariance against Monte Carlo")
    sp.add_argument("--mc-samples", type=int, default=100000, dest="mc_samples")
    sp.add_argument("--mc-rtol", type=float, default=0.05, dest="mc_rtol")
    sp.set_defaults(fn=cmd_covariance)

    sp = sub.add_parser("lqr", help="hybrid LQR backward pass along a run")
    _add_model_args(sp)
    _add_common_args(sp)
    sp.add_argument("--q", help="state penalty: scalar or ;-rowed matrix")
    sp.add_argument("--v", help="input penalty: scalar or ;-rowed matrix")
    sp.add_argument("--b", help="input matrix, ;-rowed")
    sp.add_argument("--p-terminal", dest="p_terminal", help="terminal value matrix")
    sp.set_defaults(fn=cmd_lqr)

    sp = sub.add_parser("verify", help="deterministic self-check battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mc-samples", type=int, default=100000, dest="mc_samples")
    sp.add_argument("--step", type=float, default=DEFAULT_STEP)
    sp.add_argument("--output", default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_threads(args)
        return args.fn(args)
    except (SaltlibError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return next((code for cls, code in _FAILURE_CODES if isinstance(exc, cls)), EXIT_FAIL)


if __name__ == "__main__":
    raise SystemExit(main())
