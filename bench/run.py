"""Closed-loop benchmark of saltlib: one client, one process, one thread.

Run from the root of a saltlib source checkout:

    python3 bench/run.py --workload linearize --seed 1 --seconds 35 --trace 0

It imports saltlib from ./src, pins BLAS to one thread, builds the
workload's models, runs operations back to back for --seconds, then checks
every operation's output against closed-form references. With --trace 1 it
instead runs a fixed number of operations twice each, untraced and traced,
and reports per-layer metrics from the spans. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; a full record (environment, digests, latencies, spans) is written
to bench/out/. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("linearize", "montecarlo", "oracles")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3      # fresh processes before and again after the timed run
PROBE_TIMEOUT_S = 120
METHOD = ("closed loop, 1 client, 1 process, 1 thread; time.perf_counter around each "
          "operation; setup_s is the median of {n} fresh processes before and {n} after "
          "the timed run, from spawn to the first operation being ready; percentiles "
          "are nearest-rank")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="length of the timed run (untraced)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many operations instead of timing "
                         "--seconds (traced runs default to a fixed count)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        ap.error("--ops must be >= 1")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(root),
        "platform": platform.platform(),
        "method": METHOD.format(n=SETUP_REPEATS),
    }


def setup_seconds(args, root: Path) -> list[float]:
    """Spawn-to-ready wall times of fresh processes that do the full set-up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
            try:
                ready = proc.stdout.readline()
                samples.append(time.perf_counter() - t0)
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {ready!r})")
    return samples


def signature(out) -> str:
    """Output digest, or the class name of the exception the op raised."""
    return type(out).__name__ if isinstance(out, Exception) else out.digest()


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """One benchmark invocation: set-up, operations, checks, report."""

    def __init__(self, args) -> None:
        import saltlib
        from spans import NullTracer, Tracer
        from workloads import WORKLOADS

        self.args = args
        self.saltlib = saltlib
        self.null = NullTracer()
        self.tracer = Tracer() if args.trace else self.null
        self.wl = WORKLOADS[args.workload](args.seed, self.tracer)
        # a traced run adds one round of each other workload's mix, so that
        # every layer metric is measured on every workload
        self.others = [cls(args.seed, self.null) for name, cls in WORKLOADS.items()
                       if args.trace and name != args.workload]
        self.workloads = {w.name: w for w in (self.wl, *self.others)}
        for w in self.workloads.values():
            w.warm_up()
        self.ops, self.outs, self.latency = [], [], []
        self.errors: dict[str, int] = {}      # failed ops by exact class name
        self.classes = {"SaltlibError": 0, "ValueError": 0, "CheckFailed": 0}

    def attempt(self, op):
        """Run one operation; returns (output or the exception, seconds)."""
        t0 = time.perf_counter()
        try:
            out = self.workloads[op.workload].run(op)
        except (self.saltlib.SaltlibError, ValueError) as exc:
            out = exc
        return out, time.perf_counter() - t0

    def timed(self) -> float:
        """Untraced closed loop for --seconds (or --ops); returns wall seconds."""
        t_start = time.perf_counter()
        i = 0
        while (i < self.args.ops if self.args.ops
               else time.perf_counter() - t_start < self.args.seconds):
            op = self.wl.make_op(i)
            out, dt = self.attempt(op)
            self.ops.append(op)
            self.outs.append(out)
            self.latency.append(dt)
            i += 1
        return time.perf_counter() - t_start

    def traced(self) -> tuple[float, float]:
        """Each op untraced and traced, alternating which goes first.

        Runs the workload's own ops, then one round of each other workload's
        mix. Returns the total untraced and traced seconds of the own ops; an
        op whose two outputs differ fails.
        """
        from workloads import CheckFailed

        n = self.args.ops or self.wl.trace_ops
        todo = [self.wl.make_op(i) for i in range(n)]
        todo += [w.make_op(i) for w in self.others for i in range(len(w.kinds))]
        plain = traced = 0.0
        self.tracer.counts.clear()      # the warm-up ran traced; count the ops only
        self.wl.tracer = self.null
        for k, op in enumerate(todo):
            wl = self.workloads[op.workload]
            own = wl is self.wl
            for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
                if traced_turn:
                    wl.tracer, self.tracer.op_id = self.tracer, k
                    with self.tracer.span(f"op.{op.workload}.{op.kind}"):
                        out, dt = self.attempt(op)
                    wl.tracer, self.tracer.op_id = self.null, None
                    traced += dt if own else 0.0
                else:
                    plain_out, plain_dt = self.attempt(op)
                    plain += plain_dt if own else 0.0
            if signature(out) != signature(plain_out):
                out = CheckFailed("traced and untraced outputs differ")
            self.ops.append(op)
            self.outs.append(out)
            self.latency.append(dt)
        for w in self.workloads.values():
            w.tracer = self.tracer
        return plain, traced

    def check_all(self) -> None:
        """Verify every output; tally failures by exception class."""
        from workloads import CheckFailed

        for k, (op, out) in enumerate(zip(self.ops, self.outs)):
            if not isinstance(out, Exception):
                wl = self.workloads[op.workload]
                try:
                    wl.check(op, out)
                    if self.args.trace:
                        self.tracer.op_id = k
                        wl.probe(op, out)
                        self.tracer.op_id = None
                    continue
                except (CheckFailed, self.saltlib.SaltlibError, ValueError) as exc:
                    out = exc
                self.outs[k] = out
            name = type(out).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            for cls in (CheckFailed, self.saltlib.SaltlibError, ValueError):
                if isinstance(out, cls):
                    self.classes[cls.__name__] += 1
                    break
            print(f"op {op.index} ({op.kind}) failed: {name}: {out}", file=sys.stderr)

    def digests(self) -> dict:
        from workloads import inputs_digest

        h_in, h_out = hashlib.sha256(), hashlib.sha256()
        for op, out in zip(self.ops, self.outs):
            h_in.update(inputs_digest(op).encode())
            h_out.update(signature(out).encode())
        return {"ops": len(self.ops), "inputs": h_in.hexdigest(), "outputs": h_out.hexdigest()}

    def failed(self) -> int:
        return sum(1 for out in self.outs if isinstance(out, Exception))

    def end_to_end(self, wall: float, setup: list[float]) -> tuple[dict, dict]:
        """(metrics, printed-only extras). A failed op counts as never
        finishing: +inf latency, capped at the run length."""
        lat_ms = [dt * 1e3 if not isinstance(out, Exception) else math.inf
                  for dt, out in zip(self.latency, self.outs)]
        n = len(lat_ms)
        n_ok = n - self.failed()
        cap = wall * 1e3
        m = {
            "setup_s": (statistics.median(setup), "s"),
            "throughput_ops_s": (n_ok / wall, "1/s"),
            "latency_ms_p50": (min(nearest_rank(lat_ms, 0.5), cap), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra = {"failed_ops_frac": (1.0 - n_ok / n, "ratio")}
        # a p90 needs at least ten samples beyond it
        if n >= 100:
            extra["latency_ms_p90"] = (min(nearest_rank(lat_ms, 0.9), cap), "ms")
        return m, extra

    def per_layer(self, plain: float, traced: float) -> dict:
        from spans import SpanIndex

        ix = SpanIndex(self.tracer)
        c = self.tracer.counts
        generic = "op.linearize.generic"

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        def mean_ms(idx):
            return ratio(ix.total(idx), len(idx), 1e3)

        sim = ix.select("simulate.simulate", exclude_root=generic)
        scan = ix.select("simulate.integrate_segment", "probe.redrive")
        locate = ix.select("simulate.locate_event", "probe.redrive")
        salt = ix.select("saltation.saltation_matrix", exclude_root=generic)
        fund = ix.select("propagation.fundamental_matrix", exclude_root=generic)
        cov = ix.select("propagation.propagate_covariance")
        lqr = ix.select("propagation.hybrid_lqr_backward")
        gen_ops = [i for i, n in enumerate(ix.names) if n == generic]
        same_ic = [i for i, n in enumerate(ix.names) if n == "probe.closed_form_same_ic"]
        mc = ix.select("oracles.monte_carlo_covariance")
        fd = ix.select("oracles.numeric_saltation")
        roll = ix.select("oracles.brute_force_cost")
        build = [i for i, n in enumerate(ix.names) if n == "setup.models"]
        return {
            "simulate.us_per_step": (ratio(ix.total_self(sim), c["simulate.steps"], 1e6), "us"),
            "simulate.calls": (len(sim), "count"),
            "simulate.steps": (c["simulate.steps"], "count"),
            "simulate.events": (c["simulate.events"], "count"),
            "simulate.scan_us_per_step": (ratio(ix.total(scan), c["simulate.scan_steps"], 1e6),
                                          "us"),
            "simulate.locate_us_per_event": (ratio(ix.total(locate), len(locate), 1e6), "us"),
            "saltation.us_per_call": (ratio(ix.total_self(salt), len(salt), 1e6), "us"),
            "saltation.calls": (len(salt), "count"),
            "propagation.fundamental_ms": (mean_ms(fund), "ms"),
            "propagation.covariance_ms": (mean_ms(cov), "ms"),
            "propagation.lqr_ms": (mean_ms(lqr), "ms"),
            "propagation.us_per_variational_step": (
                ratio(ix.total_self(fund + cov + lqr), c["propagation.variational_steps"], 1e6),
                "us"),
            "rigidbody.generic_op_ms": (mean_ms(gen_ops), "ms"),
            "rigidbody.generic_over_closed_form": (
                ratio(ix.total(gen_ops), ix.total(same_ic)), "ratio"),
            "models.build_ms": (ix.total(build) * 1e3, "ms"),
            "oracles.mc_ns_per_sample_step": (
                ratio(ix.total_self(mc), c["oracles.mc_sample_steps"], 1e9), "ns"),
            "oracles.mc_sample_steps": (c["oracles.mc_sample_steps"], "count"),
            "oracles.fd_saltation_ms": (mean_ms(fd), "ms"),
            "oracles.fd_calls": (len(fd), "count"),
            "oracles.rollout_ms": (mean_ms(roll), "ms"),
            "oracles.rollouts": (len(roll), "count"),
            **{f"errors.{k}": (v, "count") for k, v in self.classes.items()},
            "trace.overhead_frac": (traced / plain - 1.0, "ratio"),
            "trace.covered_frac": (ix.covered_frac(f"op.{self.wl.name}."), "ratio"),
        }


def report(args, root: Path) -> int:
    import saltlib

    if Path(saltlib.__file__).resolve().parent != (root / "src" / "saltlib").resolve():
        print(f"bench: imported saltlib from {saltlib.__file__}, not ./src", file=sys.stderr)
        return 2
    if args.setup_probe:
        from spans import NullTracer
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, NullTracer()).warm_up()
        print("ready", flush=True)
        return 0

    setup = [] if args.trace else setup_seconds(args, root)
    run = Run(args)
    if args.trace:
        plain, traced = run.traced()
        run.check_all()
        metrics = run.per_layer(plain, traced)
        shown = dict(metrics)
    else:
        wall = run.timed()
        # machine speed drifts over tens of seconds: sample set-up on both sides
        setup += setup_seconds(args, root)
        run.check_all()
        metrics, extra = run.end_to_end(wall, setup)
        shown = {**metrics, **extra}
        if "latency_ms_p90" not in extra:
            print(f"latency_ms_p90: not reported, {len(run.ops)} ops < 100", flush=True)

    failed = run.failed()
    digests = run.digests()
    env = environment(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(run.ops)}  failed {failed}  errors {run.errors or '{}'}")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value!r} {unit}")
    print(f"digests {json.dumps(digests)}")
    print(f"env {json.dumps(env)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "digests": digests, "errors": run.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "setup_samples_s": setup,
        "latency_s": run.latency,
        "op_kinds": [op.kind for op in run.ops],
    }
    if args.trace:
        record["spans"] = run.tracer.records()
        record["counts"] = dict(run.tracer.counts)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "saltlib" / "__init__.py").is_file():
        print("bench: no ./src/saltlib here; run from the root of a saltlib checkout",
              file=sys.stderr)
        return 2
    # before numpy loads, or the pin has no effect
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    return report(args, root)


if __name__ == "__main__":
    sys.exit(main())
