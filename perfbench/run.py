"""Benchmark of the leavitt package, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
`src/`.  The last line of stdout is the result
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the input digest, sample counts, failed_frac and the
environment.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import platform
import pstats
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import gen
import oracle
import refspeed
import tracing
from workloads import ROOT, SRC, WORKLOADS, child_env, to_cohn

MIN_OPS = 100  # so that at least ten samples lie beyond p90
SETUP_REPEATS = 11
WARMUP_OPS = 3


def run_pass(workload, thunks, tracer=None, prof=None, sink=None, speed=None):
    """One closed-loop pass: each operation starts when the previous one ended.

    With a speedometer, a speed sample may be taken before each operation
    (outside its time), and the operation's start is recorded for it.
    """
    lat, renders = [], []
    for i, thunk in enumerate(thunks):
        if speed is not None:
            speed.tick()
        if tracer is not None:
            tracer.op = i
        if prof is not None:
            prof.enable()
        t0 = perf_counter()
        if speed is not None:
            speed.starts.append(t0)
        try:
            out = thunk()
        except Exception as exc:  # an unexpected error is a failed operation
            out = exc
        t1 = perf_counter()
        if prof is not None:
            prof.disable()
        if tracer is not None:
            tracer.op = None
        lat.append(t1 - t0)
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
            renders.append(("raised", repr(out)))
            continue
        if sink is not None:
            sink(i, out)
        renders.append(workload.render(out))
        del out
    return lat, renders


def _checked(workload, ops, renders):
    """Whether each rendered output passes the workload's independent check."""
    return [not (isinstance(r, tuple) and r[:1] == ("raised",)) and workload.check(op, r)
            for op, r in zip(ops, renders)]


def setup_seconds(name, inputs_path, env):
    """Median set-up time over fresh processes: import plus input conversion.

    Returns the median at reference speed (each child's time scaled by the
    reference kernel timed in the same child) and the median wall time.
    """
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, child, name, inputs_path], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        took, kernel = map(float, proc.stdout.split())
        times.append(took)
        scaled.append(took * refspeed.NOMINAL_S / kernel)
    return statistics.median(scaled), statistics.median(times)


def _latency_metrics(lat):
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
    }


def timed_run(workload, lv, objs, ops, ctx, seconds):
    """Whole passes until `seconds` of busy time; latencies at reference speed."""
    thunks = workload.thunks(lv, objs, ops, ctx)
    run_pass(workload, thunks[:WARMUP_OPS])
    speed = refspeed.Speedometer()
    lat, first = run_pass(workload, thunks, speed=speed)
    mismatches = [0] * len(ops)
    pass_busy = [sum(lat)]
    while sum(lat) < seconds or len(lat) < MIN_OPS:
        more, renders = run_pass(workload, thunks, speed=speed)
        lat += more
        pass_busy.append(sum(more))
        for i, r in enumerate(renders):
            mismatches[i] += r != first[i]
        del renders
    speed.tick()
    passes = len(pass_busy)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_session" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    ok = _checked(workload, ops, first)
    failed = sum(passes if not good else bad for good, bad in zip(ok, mismatches))
    metrics = _latency_metrics(speed.normalize(lat))
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    info = {
        "passes": passes, "samples": len(lat), "busy_s": sum(lat), "pass_busy_s": pass_busy,
        "wall": {k: v for k, (v, _) in _latency_metrics(lat).items()},
        "kernel_ms": {"median": statistics.median(speed.took) * 1e3,
                      "min": min(speed.took) * 1e3, "max": max(speed.took) * 1e3,
                      "samples": len(speed.took)},
    }
    return len(lat), failed, metrics, info


def traced_run(workload, lv, objs, ops, ctx):
    """Untraced, traced and profiled passes over the same operations."""
    cli = workload.name == "cli_session"
    thunks = workload.thunks(lv, objs, ops, ctx)
    run_pass(workload, thunks[:WARMUP_OPS])
    plain_lat, plain = run_pass(workload, thunks)

    tracer, imports, missing = tracing.Tracer(), {}, 0

    def take_spans(i, out):
        nonlocal missing
        extra = out[3]
        if extra is None:
            missing += 1
            return
        base = len(tracer.spans)
        for s in extra["spans"]:
            s[3] = s[3] + base if s[3] >= 0 else -1
            s[4] = i
            tracer.spans.append(s)
        imports[i] = extra["import_s"]

    if cli:
        trace_lat, traced = run_pass(workload, workload.thunks(lv, objs, ops, dict(ctx, child="trace")),
                                     sink=take_spans)
    else:
        tracer.install()
        try:
            trace_lat, traced = run_pass(workload, thunks, tracer=tracer)
        finally:
            tracer.uninstall()
    procs = [(trace_lat[i], imp) for i, imp in imports.items()]
    cost = tracing.span_cost()
    layer, shares = tracing.summarize(tracer.spans, sum(trace_lat), procs, cost)

    counts = {}
    if cli:
        def take_profile(i, out):
            nonlocal missing
            if out[3] is None:
                missing += 1
            else:
                tracing.add_counts(counts, out[3]["profile"])

        _, profiled = run_pass(workload, workload.thunks(lv, objs, ops, dict(ctx, child="profile")),
                               sink=take_profile)
    else:
        prof = cProfile.Profile()
        _, profiled = run_pass(workload, thunks, prof=prof)
        counts = tracing.profile_counts(pstats.Stats(prof).stats)
    layer.update(counts)
    layer["trace.overhead_frac"] = sum(trace_lat) / sum(plain_lat) - 1

    # every pass fails where the untraced output fails its check; the traced
    # and profiled passes also fail where their output differs from it
    ok = _checked(workload, ops, plain)
    failed = missing + sum((not good) + (not good or t != p) + (not good or f != p)
                           for good, p, t, f in zip(ok, plain, traced, profiled))
    metrics = {k: (layer[k], unit) for k, unit in tracing.UNITS.items()}
    info = {
        "shares_inclusive": shares,
        "span_cost_s": cost,
        "profiler_attributed": sorted(counts),
        "cli_import_s": [imp for _, imp in procs],
    }
    return 3 * len(ops), failed, metrics, info


# --- ROADMAP baselines, as a wiring check ---------------------------------------


def _span_ms(fn, names):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    top = [s for s in tracer.spans if s[0] in names and s[3] < 0]
    return sum(s[2] - s[1] for s in top) * 1e3


def calibrate(name, lv, cli_import_s):
    """Traced per-call times of the ROADMAP baseline operations, next to its numbers."""
    rng = random.Random("baseline")
    out = []

    def row(what, ms, roadmap_ms):
        out.append({"op": what, "traced_ms": ms, "roadmap_ms": roadmap_ms})

    if name in ("cohn_products", "leavitt_nf"):
        pairs = {}
        for p in (0, 7):
            a, b = (gen.element(rng, p, 3, 80, 6) for _ in range(2))
            pairs[p] = (a, b)
        if name == "cohn_products":
            for p, roadmap in ((0, 57), (7, 42)):
                a, b = (to_cohn(lv, p, 3, oracle.format_element(p, x)) for x in pairs[p])
                row(f"cohn product, 80x80 terms, n=3, char {p}", _span_ms(lambda: a * b, {"cohn.mul"}), roadmap)
            return out
        a, b = (to_cohn(lv, 0, 3, oracle.format_element(0, x)) for x in pairs[0])
        c = a * b
        row(f"normal form of a {len(c.terms)}-term product", _span_ms(lambda: lv.normal_form(c), {"leavitt.nf"}), 19)
        for k, roadmap in ((50, 3.6), (200, 38), (800, 450)):
            chain = to_cohn(lv, 0, 3, f"x[{','.join(['3'] * k)}]*y[{','.join(['3'] * k)}]")
            row(f"normal form of x_3^{k} y_3^{k}", _span_ms(lambda: lv.normal_form(chain), {"leavitt.nf"}), roadmap)
        base = lv.normal_form(to_cohn(lv, 0, 2, "x[1] + y[1] + x[2] + y[2]"))
        row("(x1+y1+x2+y2)^9, n=2, leavitt", _span_ms(lambda: base ** 9, {"leavitt.mul"}), 190)
    elif name == "witness_grid":
        spec = lv.FieldSpec(0)
        for d, roadmap in ((4, 7), (8, 37), (16, 313)):
            w = lv.build_witness(spec, 3, d)
            row(f"verify_witness n=3 d={d} over Q", _span_ms(lambda: lv.verify_witness(w), {"simplicity.verify"}), roadmap)

        def grid():
            for p, n, d in gen.grid_configs()[:252]:
                if not lv.is_simple(lv.FieldSpec(p), n, d).simple:
                    lv.verify_witness(lv.build_witness(lv.FieldSpec(p), n, d))

        row("build and verify witnesses over the 252-configuration grid",
            _span_ms(grid, {"simplicity.build", "simplicity.verify", "simplicity.is_simple"}), 2160)
    elif cli_import_s:
        row("import leavitt.cli (median over traced processes)",
            statistics.median(cli_import_s) * 1e3, 54)
    return out


# --- environment ------------------------------------------------------------------


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"python": platform.python_version(), "commit": _commit(),
            "nproc": os.cpu_count(), "cpu": _cpu_model()}


# --- main -----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind normally: running children are killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "leavitt", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    ops = gen.generate(args.workload, args.seed)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = os.path.join(workdir, "inputs.json")
        with open(inputs, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        if args.workload == "cli_session":
            workload.write_files(ops, workdir)
        lv = importlib.import_module("leavitt")
        importlib.import_module("leavitt.cli")  # also leaves its bytecode cached for the children
        if not os.path.abspath(lv.__file__).startswith(SRC + os.sep):
            print(f"perfbench: leavitt imported from {lv.__file__}, not {SRC}", file=sys.stderr)
            return 2
        objs = workload.setup(lv, ops)
        ctx = {"workdir": workdir, "env": child_env()}
        if args.trace:
            attempted, failed, metrics, info = traced_run(workload, lv, objs, ops, ctx)
            info["baseline_check"] = calibrate(args.workload, lv, info["cli_import_s"])
        else:
            attempted, failed, metrics, info = timed_run(workload, lv, objs, ops, ctx, args.seconds)
            scaled, wall = setup_seconds(args.workload, inputs, ctx["env"])
            metrics["setup_s"] = (scaled, "s")
            info["wall"]["setup_s"] = wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": gen.digest(ops), "ops_per_pass": len(ops),
        "failed_frac": {"value": failed / attempted, "unit": "1"},
        "environment": environment(), **info,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
