"""graphsplit benchmark: time to tolerance on four workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload desk-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats a workload, set up afresh each time, until
``--seconds`` seconds have passed and reports the end-to-end metrics.
``--trace 1`` runs it once untraced and once with spans around graphsplit's
public names, and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.  Traces and full
results are written under ``bench/out/``.  ``--workload all`` runs the four
workloads one after another, each in its own process.
"""

import os

if __name__ == "__main__":
    # one BLAS thread, fixed before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Set-ups are spread over an untraced run, so that their median does not
# rest on one stretch of a noisy host.  Before the first repetition, and
# before any later one that starts SETUP_EVERY_S after the last set-up, the
# workload is set up afresh: at least once and at most SETUP_BATCH times
# while the batch took under SETUP_BATCH_S.  A run has at least SETUP_MIN.
SETUP_MIN = 3
SETUP_BATCH = 5
SETUP_BATCH_S = 0.5
SETUP_EVERY_S = 5.0
# A run repeats the workload until --seconds have passed, but starts no
# repetition expected to end after OVERRUN times --seconds.
OVERRUN = 1.5

import numpy as np

import layers
from spans import Tracer, summarize
from workloads import WORKLOADS

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
MODULES = ("linalg", "operators", "scheme", "graphs", "solver", "fusedlasso",
           "cli")


class SetupError(Exception):
    """The benchmark cannot run in this directory."""


def load_graphsplit():
    """Import graphsplit from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "graphsplit")):
        raise SetupError(f"no graphsplit package under {src}")
    sys.path.insert(0, src)
    try:
        mods = {m: importlib.import_module("graphsplit." + m)
                for m in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import graphsplit: {exc}") from exc
    where = os.path.dirname(mods["solver"].__file__)
    if os.path.realpath(where) != os.path.realpath(
            os.path.join(src, "graphsplit")):
        raise SetupError(f"graphsplit imported from {where}, not {src}")
    return types.SimpleNamespace(**mods)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def timed_setups(wl, gs, seed, p, reps, budget_s=0.0, most=1):
    """Set the workload up at least ``reps`` times, and more while the
    set-ups took under ``budget_s`` in all and number under ``most``;
    return the last state and the seconds each set-up took.  The caller
    drops its own state first, so that two never coexist."""
    times, state = [], None
    while len(times) < reps or (sum(times) < budget_s
                                and len(times) < most):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(gs, seed, p)
        times.append(time.perf_counter() - t0)
    return state, times


def tally(reps):
    """Sum the outcomes of the repetitions."""
    outcomes = [o for rep in reps for o in rep]
    failed = [o for o in outcomes if not o.ok]
    iters = {tuple(o.iters for o in rep) for rep in reps}
    return outcomes, failed, iters


def measure(wl, gs, seed, seconds, p, work_dir):
    """Untraced run: the end-to-end metrics."""
    setup_times, reps, ref, reference_s = [], [], None, None
    start = time.perf_counter()
    last_setup = -math.inf
    while True:
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            state = None
            state, times = timed_setups(wl, gs, seed, p, 1, SETUP_BATCH_S,
                                        SETUP_BATCH)
            setup_times += times
            last_setup = time.perf_counter()
        if not reps:
            t0 = time.perf_counter()
            ref = wl.reference(gs, state, p)
            reference_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        reps.append(wl.rep(gs, state, ref, p, work_dir))
        now = time.perf_counter()
        if (now - start >= seconds
                or now - start + (now - t0) > OVERRUN * seconds):
            break
    state = None
    setup_times += timed_setups(wl, gs, seed, p,
                                SETUP_MIN - len(setup_times))[1]
    outcomes, failed, iters = tally(reps)
    solve_per_rep = [sum(o.solve_s for o in rep) for rep in reps]
    iters_per_rep = [sum(o.iters for o in rep) for rep in reps]
    blocks = sorted(b for o in outcomes for b in o.block_s)
    summary = {
        "setup_s samples": summarize(setup_times),
        "solve_s samples": summarize(solve_per_rep),
        "iter_block_s samples": summarize(blocks),
        "reference_solve_s": reference_s if ref is not None else None,
    }
    solve_s = sum(solve_per_rep)
    rate = sum(iters_per_rep) / solve_s if solve_s > 0 else 0.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(solve_per_rep), "s"),
        "iters_to_tol": (iters_per_rep[0], "count"),
        "iters_per_s": (rate, "1/s"),
        "iters_per_s_best": (1.0 / blocks[0] if blocks else rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"{o.label}: {o.reason}" for o in failed]
    if len(iters) != 1:
        notes.append(f"iteration counts differ between repetitions: {iters}")
    return metrics, summary, outcomes, failed, notes


def traced(wl, gs, seed, p, work_dir, trace_path):
    """Traced run: one untraced repetition as the baseline, then set-up,
    reference and one repetition with spans, then the per-layer metrics."""
    state, _ = timed_setups(wl, gs, seed, p, 1)
    ref = wl.reference(gs, state, p)
    base = wl.rep(gs, state, ref, p, work_dir)
    state = None
    gc.collect()

    tracer = Tracer()
    with layers.instrumented(gs, tracer):
        tracer.run_id = "setup"
        state = wl.setup(gs, seed, p)
        if "problem" in state:
            layers.instrument_problem(tracer, state["problem"])
        tracer.run_id = "reference"
        ref = wl.reference(gs, state, p)
        tracer.run_id = "rep"
        rep = wl.rep(gs, state, ref, p, work_dir)
    spans = tracer.spans()
    tracer.write(trace_path)

    metrics, extra = layers.layer_metrics(spans, wl.grad_bytes_per_call(p))
    base_s = sum(o.solve_s for o in base)
    traced_s = sum(o.solve_s for o in rep)
    metrics["trace.overhead_ratio"] = (traced_s / base_s, "ratio")
    extra["fusedlasso.to_problem_peak_mb"] = (to_problem_peak_mb(gs, state),
                                              "MB")
    outcomes, failed, iters = tally([base, rep])
    notes = [f"{o.label}: {o.reason}" for o in failed]
    if len(iters) != 1:
        notes.append(f"tracing changed the iteration counts: {iters}")
    for key in ("trace.solve_accounted_min", "trace.solve_accounted_max"):
        if abs(extra[key][0] - 1.0) > 1e-9:
            notes.append(f"{key} = {extra[key][0]!r}: self times do not add "
                         "up to the solve span")
    summary = {"untraced_solve_s": base_s, "traced_solve_s": traced_s,
               "spans": len(spans), "trace_file": os.path.relpath(
                   trace_path, ROOT)}
    return metrics, extra, summary, outcomes, failed, notes


def to_problem_peak_mb(gs, state):
    """Peak bytes allocated while ``to_problem`` builds the bundle."""
    if "inst" not in state:
        return 0.0
    gc.collect()
    tracemalloc.start()
    try:
        gs.fusedlasso.to_problem(state["inst"])
        return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()


def run(workload, seed, seconds, trace, size="full", out_dir=OUT):
    """Run one workload and return (report lines, result dict)."""
    wl = WORKLOADS[workload]
    gs = load_graphsplit()
    p = wl.params(size)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    lines = [f"workload {workload}: {wl.why}",
             f"params {json.dumps(p)}"]
    env = environment()
    lines.append("environment " + json.dumps(env))
    if trace:
        metrics, extra, summary, outcomes, failed, notes = traced(
            wl, gs, seed, p, out_dir, os.path.join(out_dir, tag + ".spans.gz"))
    else:
        metrics, summary, outcomes, failed, notes = measure(
            wl, gs, seed, seconds, p, out_dir)
        extra = {}
    declared = declared_metrics(trace)
    shown = {}
    for name, unit in declared:
        value, got_unit = metrics[name]
        if got_unit != unit:
            raise AssertionError(f"{name}: unit {got_unit} != {unit}")
        shown[name] = {"value": value, "unit": unit}
    for name, (value, unit) in sorted({**metrics, **extra}.items()):
        gated = "" if name in shown else "  (not in the JSON line)"
        lines.append(f"  {name:<38} {value!r:>24} {unit}{gated}")
    for key, value in summary.items():
        lines.append(f"  {key:<38} {json.dumps(value)}")
    lines.append(f"  ops_failed {len(failed)} of ops {len(outcomes)}")
    lines.extend("  FAILED " + n for n in notes)
    result = {"correct": not notes, "attempted": len(outcomes),
              "failed": len(failed), "metrics": shown}
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": int(trace),
                   "params": p, "environment": env, "summary": summary,
                   "metrics": {k: list(v) for k, v in metrics.items()},
                   "extra": {k: list(v) for k, v in extra.items()},
                   "outcomes": [{"label": o.label, "iters": o.iters,
                                 "solve_s": o.solve_s, "ok": o.ok,
                                 "reason": o.reason,
                                 "block_s": o.block_s} for o in outcomes],
                   "result": result}, fh, indent=1)
    return lines, result


def run_all(args):
    """Run every workload, each in its own process so that its peak memory
    is its own; return 0 when every run exits 0 and is correct."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        last = child.stdout.strip().splitlines()[-1:] or ["{}"]
        if child.returncode != 0 or not json.loads(last[0]).get("correct"):
            status = 1
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        lines, result = run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
