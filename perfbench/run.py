"""hexatile benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 12 --trace 0

Run from the root of a hexatile checkout.  Each pass of the workload runs in
a fresh interpreter (worker.py) as one closed-loop caller: one process, one
thread, each call made after the previous one returned.  Passes repeat
while another fits in --seconds; at least MIN_PASSES always run.

All times are scaled to a reference host speed by the fixed loop of
speed.py, timed all through each pass.  Raw times are in the first stdout
line, the meta.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics.  Every result is checked; the
last stdout line is the JSON summary, and any failed check exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import speed
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
MAX_PASSES = 12
MIN_PASSES = 2  # a fit pass can take half of --seconds in a slow phase
SETUP_SAMPLES = 11  # spawns timed for setup_s, spread over the run
TIME_LIMIT_S = 170.0  # the whole run, with set-up, stays below this


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("HEXATILE_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(var, None)
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",
        # numpy stays single-threaded, like the caller
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(job: dict, env: dict, root: str, timeout: float):
    """(seconds from spawn to "ready", summary or None) for one worker."""
    if timeout <= 0:
        raise BenchError("time limit reached before the pass could start")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, cwd=root, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(json.dumps(job))
            proc.stdin.close()
        except BrokenPipeError:
            pass
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker exited {code} ({job['workload']}, ready={first.strip()!r})")
    if job.get("ready_only"):
        return ready_s, None
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def percentile(xs: list, q: float) -> float:
    """Inclusive linear-interpolation percentile, q in (0, 1) in steps of 0.01."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def setup_sample(args, env: dict, root: str, deadline: float) -> float:
    """Raw seconds from spawn to "ready" of one worker that stops there."""
    ready_s, _ = run_child({"workload": args.workload, "ready_only": True}, env, root,
                           deadline - time.perf_counter())
    return ready_s


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "hexatile")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_revision(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def bytecode_state(root: str) -> str:
    pyc = importlib.util.cache_from_source(os.path.join(root, "src", "hexatile", "cli.py"))
    return "warm" if os.path.exists(pyc) else "cold"


def measure(args, root: str, env: dict, inputs: list, deadline: float) -> dict:
    """Run the passes; return the raw per-pass summaries and set-up samples."""
    job = {"workload": args.workload, "trace": False}
    setup, passes = [], []
    if args.trace:
        traces = os.path.join(BENCH_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        for i, traced in enumerate((False, True)):
            job_i = dict(job, input=inputs[i], trace=traced,
                         trace_path=os.path.join(traces, f"{args.workload}-seed{args.seed}.json.gz"))
            ready_s, summary = run_child(job_i, env, root, deadline - time.perf_counter())
            setup.append(ready_s)
            passes.append(summary)
        return {"setup": setup, "passes": passes}
    job["probe"] = True  # scaled times; a traced run compares raw with raw
    begin = time.perf_counter()
    for i in range(MAX_PASSES):
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args, env, root, deadline))
        _, summary = run_child(dict(job, input=inputs[i]), env, root,
                               deadline - time.perf_counter())
        passes.append(summary)
        elapsed = time.perf_counter() - begin
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args, env, root, deadline))
    return {"setup": setup, "passes": passes}


def end_to_end(raw: dict) -> dict:
    """Scaled times.  wall_s is the median over the run's passes, the case
    latencies are percentiles over every call of the run.

    setup_s is the median start-up, scaled by the median probe of the whole
    run: start-up is process creation, file reads and imports, and a probe
    next to each start moved less with it than the run's phase did (ten runs
    spread 0.19-0.28 scaled this way, 0.26-0.43 raw, and as much as raw
    with a probe before and after each start).
    """
    passes = raw["passes"]
    cases = [ms for p in passes for ms in p["case_ms_scaled"]]
    probe_s = statistics.median(ms for p in passes for ms in p["probe_ms"]) / 1e3
    return {
        "setup_s": (statistics.median(raw["setup"]) * speed.REF_PROBE_S / probe_s, "s"),
        "wall_s": (statistics.median(p["wall_s_scaled"] for p in passes), "s"),
        "case_ms_p50": (statistics.median(cases), "ms"),
        "case_ms_p90": (percentile(cases, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
    }


def per_layer(raw: dict) -> dict:
    untraced, traced = raw["passes"]
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    values["import.numpy_s"] = traced["import_numpy_s"]
    values["import.hexatile_s"] = traced["import_hexatile_s"]
    return {name: (values[name], tracing.unit(name)) for name in tracing.PER_LAYER
            if name in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hexatile", "cli.py")):
        print("run.py: no hexatile sources under ./src; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    inputs = workloads.GENERATORS[args.workload](args.seed, MAX_PASSES)
    input_sha = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()

    try:
        # untimed: compiles hexatile's bytecode, so every timed start is warm
        run_child({"workload": args.workload, "ready_only": True}, env, root,
                  deadline - time.perf_counter())
        state = bytecode_state(root)
        raw = measure(args, root, env, inputs, deadline)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    summaries = raw["passes"]
    outside = [p["hexatile_file"] for p in summaries
               if not p["hexatile_file"].startswith(os.path.join(root, "src") + os.sep)]
    if outside:
        print(f"run.py: worker imported hexatile from {outside[0]}", file=sys.stderr)
        return 2
    attempted = sum(p["attempted"] for p in summaries)
    failed = sum(p["failed"] for p in summaries)
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    missing = summaries[-1].get("missing_hooks", [])

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(summaries),
        "cases_timed": sum(len(p["case_ms"]) for p in summaries),
        "reference_probe_ms": speed.REF_PROBE_S * 1e3,
        "raw_pass_wall_s": [p["wall_s"] for p in summaries],
        "scaled_pass_wall_s": [p.get("wall_s_scaled") for p in summaries],
        "pass_probe_ms_median": [statistics.median(p["probe_ms"]) for p in summaries
                                 if "probe_ms" in p],
        "raw_case_ms_p50": statistics.median(ms for p in summaries for ms in p["case_ms"]),
        "raw_case_ms_p90": percentile([ms for p in summaries for ms in p["case_ms"]], 0.9),
        "input_sha256": input_sha, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_revision": git_revision(root), "source_sha256": source_digest(root),
        "bytecode_cache": state,
        "setup_samples_s": raw["setup"],
        "caller": "closed loop, 1 process, 1 thread, fresh interpreter per pass",
        "missing_hooks": missing,
    }
    print(json.dumps({"meta": meta}))
    for p in summaries:
        for err in p["errors"]:
            print(f"FAIL {err}", file=sys.stderr)
    print(f"{'failed_frac':<34} {failed / attempted if attempted else 1.0:<14.6g} ratio"
          f"  ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:<14.6g} {unit}")
    for name in missing:
        print(f"{'hook ' + name:<34} {'missing':<14}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
