"""Command-line front end: counting, verification sweeps, Q-fitting, SVG
rendering, and determinant-kernel benchmarks.

Output is machine readable: JSON Lines for counts, one JSON report per
verification run, CSV for benchmarks.  Big integers are emitted as decimal
strings, in full at any size.  Exit codes: 0 all good, 1 usage error
(including a closed form with a pole at the spec, a negative verify range
and an output file that cannot be written), 2 mathematical disagreement
(including a closed form whose value is not an integer, and fit samples no
polynomial interpolates up to --degree or, without it, Q's degree law
d(d-1): a finding, not a usage error).  Every failure prints one line on
stderr, `<command>: <reason>`.  `count` checks every method's window (a
closed form's is its entry in formulas.CLOSED_FORMS) before it runs any,
and prints its records once every method has returned, and none on a usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import formulas, lgv, oracle, qfit, schur
from .detkernel import det_bareiss, det_modular
from .exactmath import NotIntegerError, PoleError
from .formulas import OutOfValidityError
from .hexmodel import EVEN, ODD, HexSpec

USAGE_ERROR = 1
DISAGREEMENT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract reserves 2 for math."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _write(path: str, text: str) -> None:
    """Write text to path; an OSError becomes a ValueError that names the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


# Every `count --method` name, in help order: the signed count at a spec, and
# the window, as in formulas.CLOSED_FORMS (None: every spec).  The entries look
# library functions up when they run, so a wrapped or patched one is called.
# `det` is the path matrix's elimination at every size (lgv.count would take
# the complement for a large point); `complement` is schur's d x d route.
_METHODS = {
    "det": (lambda s: lgv.count_line(s.a, s.b, s.c, s.d, s.p, s.parity)[-1], None),
    "complement": (lambda s: schur.count_via_inverse(s.a, s.b, s.c, s.d, s.p, s.parity), None),
    "modular": (lambda s: det_modular(lgv.path_matrix(s.a, s.b, s.c, s.d, s.p, s.parity)), None),
    "condense": (lambda s: lgv.even_count_by_condensation(s.a, s.b, s.c, s.d, s.p),
                 lambda a, b, c, d, p, parity: None if parity == EVEN else "even parity"),
    "oracle": (lambda s: oracle.signed_count(s), None),
    **{f"formula:{name}": (lambda s, form=form: form(s.a, s.b, s.c, s.d, s.p), window)
       for name, (form, window) in formulas.CLOSED_FORMS.items()},
}


def cmd_count(args) -> int:
    spec = HexSpec(args.a, args.b, args.c, args.d, args.p, args.parity)
    methods = args.method or ["det"]
    for method in methods:  # every name and every window, before any method runs
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}; known: {', '.join(_METHODS)}")
        window = _METHODS[method][1]
        lack = window and window(*dataclasses.astuple(spec))
        if lack:
            raise OutOfValidityError(f"{method} needs {lack}")
    # Records print once every method has returned, so a usage error that one
    # raises (a pole, the oracle's state cap) prints none; a value that is not
    # an integer shows the ones computed before it.
    magnitudes, lines = set(), []
    try:
        for method in methods:
            t0 = time.perf_counter()
            sc = lgv.SignedCount.of(_METHODS[method][0](spec))
            elapsed = (time.perf_counter() - t0) * 1000.0
            magnitudes.add(sc.tilings)
            lines.append(json.dumps({
                "spec": dataclasses.asdict(spec),
                "method": method,
                "value": str(sc.value),
                "sign": sc.sign,
                "matrix_dim": spec.dim,
                "elapsed_ms": round(elapsed, 3),
            }) + "\n")
    except NotIntegerError:
        sys.stdout.writelines(lines)
        raise
    sys.stdout.writelines(lines)
    if len(magnitudes) > 1:
        print("count: methods disagree on the tiling count", file=sys.stderr)
        return DISAGREEMENT
    return 0


# Each suite runs these checks of the formulas registry, in this order.
_SUITES = {
    "macmahon": ("macmahon_product",),
    "byun": ("halved_even_product", "halved_odd_product_corrected",
             "halved_odd_product_printed"),
    "p1md": ("p1md_simple", "p1md_sum", "p1md_polynomial", "p1d_aux", "p1d_zb", "sa",
             "factorial_sum", "f_recursion", "f_d_recursion", "f_alternative"),
    "d1": ("unit_intrusion_corollary",),
    "lu": ("binomial_lu_inverse",),
    "schur": ("complement_block_count", "inverse_entry_sums"),
    "sums": ("telescoped_double_sum",),
    "condense": ("condensation_even", "condensation_odd"),
    "symmetry": ("mirror_symmetry",),
}


def cmd_verify(args) -> int:
    ranges = {"amax": args.amax, "bmax": args.bmax, "cmax": args.cmax, "dmax": args.dmax}
    negative = [f"--{name} {value}" for name, value in ranges.items() if value < 0]
    if negative:
        raise ValueError(f"ranges must be nonnegative: {', '.join(negative)}")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    names = [name for suite in suites for name in _SUITES[suite]]
    results = formulas.run_checks(names, args.amax, args.bmax, args.cmax, args.dmax)
    checks = []
    for res in results:
        checks.append({"name": res.name, "cases": res.cases, "failures": res.failures})
        if res.informational:
            checks[-1]["informational"] = True
    passed = all(res.passed for res in results)
    print(json.dumps({
        "suite": args.suite,
        "ranges": ranges,
        "checks": checks,
        "passed": passed,
    }))
    return 0 if passed else DISAGREEMENT


def cmd_fit(args) -> int:
    poly = qfit.fit(args.d, args.degree)
    out = args.out or f"q_d{args.d}.json"
    _write(out, qfit.poly_to_json(poly, args.d) + "\n")
    print(f"Q(d={args.d}), total degree {poly.total_degree()}: {len(poly.coeffs)} terms")
    print(f"wrote {out}")
    return 0


def cmd_render(args) -> int:
    spec = HexSpec(args.a, args.b, args.c, args.d, args.p, args.parity)
    family = None
    if args.with_tiling:
        family = oracle.first_tiling(spec)
        if family is None:
            print("render: spec admits no tiling", file=sys.stderr)
            return DISAGREEMENT
    out = args.out or "hexagon_a{}b{}c{}d{}p{}_{}.svg".format(
        args.a, args.b, args.c, args.d, args.p, args.parity)
    _write(out, oracle.render_svg(spec, family))
    print(f"wrote {out}")
    return 0


# Each kernel runs this many times per row, and the row reports the fastest.
# One timing per matrix could not resolve a 10-20% kernel change: the same
# boxed 40 Bareiss row read 68-113 ms on a shared host, and a best of 5 runs
# turned on one fast run (BENCH_pr25.json, hexatile_bench_bareiss_best_of_5).
# Each repeat is one pass over every row, so a slow stretch of the host falls
# on one repeat of several rows, not on all of one row's: with a row's repeats
# back to back, three runs read boxed 40 at 77-93 ms (BENCH_pr26.json).
_BENCH_REPEATS = 5


def cmd_bench(args) -> int:
    dims = [int(tok) if tok.strip().isdecimal() else 0 for tok in args.dims.split(",")]
    if min(dims) < 1:
        raise ValueError(f"--dims takes integers >= 1 separated by commas, not {args.dims!r}")
    kernels = ["bareiss", "modular"] if args.kernel == "both" else [args.kernel]
    # boxed (n, n, n) fills the matrix; thin (n, 5, 6) keeps it banded
    cases = [(n, shape, b, c, lgv.path_matrix(n, b, c, 0, 0, EVEN))
             for n in dims for shape, (b, c) in (("boxed", (n, n)), ("thin", (5, 6)))]
    runs = {(i, kernel): ([], set()) for i in range(len(cases)) for kernel in kernels}
    for _ in range(_BENCH_REPEATS):
        for (i, kernel), (times, results) in runs.items():
            fn = det_bareiss if kernel == "bareiss" else det_modular
            t0 = time.perf_counter()
            results.add(fn(cases[i][4]))
            times.append(time.perf_counter() - t0)
    rows = ["dim,shape,kernel,elapsed_ms,result_digits"]
    for i, (n, shape, b, c, _) in enumerate(cases):
        values = {}
        for kernel in kernels:
            times, results = runs[i, kernel]
            if len(results) > 1:
                print(f"bench: repeats of {kernel} disagree on the {shape} hexagon "
                      f"at dim {n}", file=sys.stderr)
                return DISAGREEMENT
            values[kernel] = results.pop()
            rows.append(f"{n},{shape},{kernel},{min(times) * 1000.0:.3f},"
                        f"{len(str(abs(values[kernel])))}")
        if len(set(values.values())) > 1:
            print(f"bench: kernels disagree on the {shape} hexagon at dim {n}",
                  file=sys.stderr)
            return DISAGREEMENT
        if next(iter(values.values())) != formulas.macmahon(n, b, c):
            print(f"bench: determinant disagrees with the product formula on the "
                  f"{shape} hexagon at dim {n}", file=sys.stderr)
            return DISAGREEMENT
    text = "\n".join(rows) + "\n"
    if args.csv:
        _write(args.csv, text)
        print(f"wrote {args.csv}")
    else:
        print(text, end="")
    return 0


def _add_spec_flags(sub):
    sub.add_argument("--a", type=int, required=True)
    sub.add_argument("--b", type=int, required=True)
    sub.add_argument("--c", type=int, required=True)
    sub.add_argument("--d", type=int, default=0)
    sub.add_argument("--p", type=int, default=0)
    sub.add_argument("--parity", choices=[EVEN, ODD], default=EVEN)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hexatile",
                     description="Tiling counts of hexagons with an intrusion")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="count tilings by one or more methods")
    _add_spec_flags(sub)
    sub.add_argument("--method", action="append",
                     help=f"{' | '.join(_METHODS)} (repeatable; default det). det "
                          "eliminates the path matrix; complement is MacMahon's product "
                          "times a d x d determinant, and at d = 0 MacMahon's product alone")
    sub.set_defaults(fn=cmd_count)

    sub = subs.add_parser("verify", help="run an identity sweep suite")
    sub.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    sub.add_argument("--amax", type=int, default=4)
    sub.add_argument("--bmax", type=int, default=5)
    sub.add_argument("--cmax", type=int, default=5)
    sub.add_argument("--dmax", type=int, default=3)
    sub.set_defaults(fn=cmd_verify)

    sub = subs.add_parser("fit", help="interpolate the residual polynomial factor")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--degree", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.set_defaults(fn=cmd_fit)

    sub = subs.add_parser("render", help="write an SVG picture of a spec")
    _add_spec_flags(sub)
    sub.add_argument("--with-tiling", action="store_true")
    sub.add_argument("--out", default=None)
    sub.set_defaults(fn=cmd_render)

    sub = subs.add_parser("bench", help="time the determinant kernels")
    sub.add_argument("--dims", default="10,20,30,40")
    sub.add_argument("--kernel", choices=["bareiss", "modular", "both"],
                     default="both")
    sub.add_argument("--csv", default=None)
    sub.set_defaults(fn=cmd_bench)
    return parser


# The exit code of each failure a command may raise, most specific first: the
# first two are ValueErrors too.  Any other exception is a bug and keeps its
# traceback.
_FAILURES = {
    NotIntegerError: DISAGREEMENT,  # no tiling count is a fraction
    qfit.FitInconsistentError: DISAGREEMENT,
    ValueError: USAGE_ERROR,
    PoleError: USAGE_ERROR,
    oracle.CapExceededError: USAGE_ERROR,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # counts print in full, past 4300 digits too
    try:
        return args.fn(args)
    except tuple(_FAILURES) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return next(code for kind, code in _FAILURES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
