"""One pass of one workload, in a fresh interpreter.

run.py starts this script with the pass's inputs as JSON on stdin.  It
imports hexatile, reads the job, prints "ready", and then makes the
workload's calls one at a time, each only after the previous one returned
(a single closed-loop caller).  Every result is checked against an
independent reference before the next call.  The last line on stdout is a
JSON summary of the pass.

A job with "ready_only" stops after "ready": run.py uses it to time set-up.

A pass of a --trace 0 run ("probe" in the job) takes a speed probe
(speed.py) at its start, at its end and every PROBE_EVERY_S in between, also
in the middle of a call, and reports its times both raw and scaled to the
reference speed, probes left out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

t_start = time.perf_counter()
import numpy  # noqa: E402,F401  (hexatile.qfit imports it; timed on its own)

t_numpy = time.perf_counter()
import hexatile.cli  # noqa: E402,F401

t_hexatile = time.perf_counter()

from hexatile import cli, formulas, lgv, oracle, qfit  # noqa: E402
from hexatile.hexmodel import HexSpec  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

PROBE_EVERY_S = 0.05


class Pass:
    """Timed calls and checked results of one pass."""

    def __init__(self, recorder):
        self.rec = recorder
        self.case_span: list = []  # (start, end) of each call
        self.case_ms: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def call(self, fn, *args):
        """Time one call into hexatile; an exception is recorded and returns None."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed case, reported and counted
            self._timed(t0)
            self.fail(f"{getattr(fn, '__name__', fn)}{args}: {type(exc).__name__}: {exc}")
            return None
        self._timed(t0)
        return result

    def _timed(self, t0: float) -> None:
        t1 = time.perf_counter()
        self.case_span.append((t0, t1))
        self.case_ms.append((t1 - t0) * 1e3)

    @contextlib.contextmanager
    def reference(self):
        """Reference computations are the benchmark's work, not a traced layer's."""
        if self.rec is None:
            yield
            return
        self.rec.paused = True
        try:
            yield
        finally:
            self.rec.paused = False

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def run_verify(job: dict, ps: Pass) -> None:
    r = job["ranges"]
    argv = ["verify", "all", "--amax", str(r["amax"]), "--bmax", str(r["bmax"]),
            "--cmax", str(r["cmax"]), "--dmax", str(r["dmax"])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ps.call(cli.main, argv)
    if code is None:
        return
    report = json.loads(out.getvalue())
    cases = sum(ch["cases"] for ch in report["checks"])
    ps.attempted += cases
    for ch in report["checks"]:
        if ch.get("informational"):
            if ch["name"] != W.INFORMATIONAL_CHECK or len(ch["failures"]) != W.INFORMATIONAL_FAILURES:
                ps.fail(f"informational {ch['name']}: {len(ch['failures'])} failures, "
                        f"pinned {W.INFORMATIONAL_FAILURES}")
        elif ch["failures"]:
            ps.fail(f"verify {ch['name']}: {ch['failures'][:3]}", len(ch["failures"]))
    if cases != W.VERIFY_ALL_CASES:
        ps.fail(f"verify all ran {cases} cases, pinned {W.VERIFY_ALL_CASES}")
    if code != 0 or not report["passed"]:
        ps.fail(f"verify all exited {code}, passed={report['passed']}")

    results = ps.call(formulas.verify_identities, "all", r["amax"], r["bmax"], r["cmax"],
                      r["dmax"])
    if results is None:
        return
    cases = sum(res.cases for res in results)
    ps.attempted += cases
    for res in results:
        if res.failures:
            ps.fail(f"identity {res.name}: {res.failures[:3]}", len(res.failures))
    if cases != W.IDENTITY_CASES:
        ps.fail(f"identities ran {cases} cases, pinned {W.IDENTITY_CASES}")


def _count_reference(case: dict) -> int:
    a, b, c, d, p = (case[k] for k in "abcdp")
    fam = case["family"]
    if fam == "macmahon":
        return formulas.macmahon(a, b, c)
    if fam == "d1":
        return formulas.d1_corollary(a, b, c)
    if fam == "byun_even":
        return formulas.byun_even(p, b, c, d)
    if fam == "byun_odd":
        return (-1) ** d * formulas.byun_odd_corrected(p, b, c, d)
    if fam == "p1md":
        return formulas.p_one_minus_d_simple(a, b, c, d)
    raise ValueError(f"unknown family {fam!r}")


def run_count(job: dict, ps: Pass) -> None:
    for case in job["cases"]:
        fn = lgv.even_count if case["parity"] == "even" else lgv.odd_count
        args = tuple(case[k] for k in "abcdp")
        ps.attempted += 1
        got = ps.call(fn, *args)
        if got is None:
            continue
        with ps.reference():
            want = _count_reference(case)
        if got.value != want:
            ps.fail(f"{case}: det {got.value} != {case['family']} {want}")


def run_oracle(job: dict, ps: Pass) -> None:
    for a, b, c, d, p, parity in job["specs"]:
        spec = HexSpec(a, b, c, d, p, parity)
        ps.attempted += 1
        got = ps.call(oracle.signed_count, spec)
        if got is None:
            continue
        with ps.reference():
            det = (lgv.even_count if parity == "even" else lgv.odd_count)(a, b, c, d, p)
        if got != det.value:
            ps.fail(f"{spec}: oracle {got} != det {det.value}")


def _check_poly(ps: Pass, label: str, poly) -> None:
    with ps.reference():
        text = qfit.poly_to_json(poly, W.FIT_DEPTH)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != W.FIT_POLY_SHA256:
        ps.fail(f"{label}: polynomial digest {digest} differs from the pinned one")


def _holdout(ps: Pass, poly, points: list) -> None:
    """One cross_validate call per point, so each check is a timed case."""
    for pt in points:
        ps.attempted += 1
        report = ps.call(qfit.cross_validate, poly, W.FIT_DEPTH, [tuple(pt)])
        if report is not None and (report["points"] != 1 or not report["passed"]):
            ps.fail(f"holdout {pt}: {report['failures']}")


def run_fit(job: dict, ps: Pass) -> None:
    d = job["d"]
    ps.attempted += 1
    got = ps.call(qfit.fit_auto, d)
    if got is not None:
        degree, poly = got
        if degree != W.FIT_AUTO_DEGREE:
            ps.fail(f"fit_auto({d}) chose degree {degree}, expected {W.FIT_AUTO_DEGREE}")
        _check_poly(ps, f"fit_auto({d})", poly)
        _holdout(ps, poly, job["holdout_auto"])
    ps.attempted += 1
    poly = ps.call(qfit.fit, d, W.FIT_MODULAR_DEGREE)
    if poly is not None:
        _check_poly(ps, f"fit({d}, {W.FIT_MODULAR_DEGREE})", poly)
        _holdout(ps, poly, job["holdout_modular"])


RUNNERS = {"verify": run_verify, "count": run_count, "oracle": run_oracle, "fit": run_fit}


def main() -> int:
    job = json.load(sys.stdin)
    print("ready", flush=True)
    if job.get("ready_only"):
        return 0
    rec = None
    missing: list = []
    if job["trace"]:
        rec = tracing.Recorder()
        missing = tracing.install(rec)
    timeline = speed.Timeline(PROBE_EVERY_S) if job.get("probe") else None
    ps = Pass(rec)
    t0 = time.perf_counter_ns()
    if timeline is not None:
        timeline.start()
    RUNNERS[job["workload"]](job["input"], ps)
    if timeline is not None:
        timeline.stop()
    wall_ns = time.perf_counter_ns() - t0
    summary = {"wall_s": wall_ns * 1e-9, "case_ms": ps.case_ms}
    if timeline is not None:
        raw_scaled = [timeline.work(a, b) for a, b in ps.case_span]
        summary["case_ms"] = [r * 1e3 for r, _ in raw_scaled]
        summary["case_ms_scaled"] = [s * 1e3 for _, s in raw_scaled]
        summary["wall_s"], summary["wall_s_scaled"] = timeline.wall()
        summary["probe_ms"] = timeline.probe_ms()
    summary.update({
        "attempted": ps.attempted,
        "failed": ps.failed,
        "errors": ps.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "import_numpy_s": t_numpy - t_start,
        "import_hexatile_s": t_hexatile - t_numpy,
        "hexatile_file": os.path.abspath(hexatile.cli.__file__),
    })
    if rec is not None:
        summary["layers"] = tracing.layer_metrics(rec, wall_ns, missing)
        summary["missing_hooks"] = missing
        rec.write(job["trace_path"])
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
