"""Command-line front end: counting, verification sweeps, Q-fitting, SVG
rendering, and determinant-kernel benchmarks.

Output is machine readable: JSON Lines for counts, one JSON report per
verification run, CSV for benchmarks.  Big integers are emitted as decimal
strings.  Exit codes: 0 all good, 1 usage error (including a closed form
with a pole at the spec, a negative verify range and an output file that
cannot be written), 2 mathematical disagreement (including a closed form
whose value is not an integer).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import formulas, lgv, oracle, qfit
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


def _write(cmd: str, path: str, text: str) -> bool:
    """Write text to path; on failure say why on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"{cmd}: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _spec_dict(spec: HexSpec) -> dict:
    return {
        "a": spec.a, "b": spec.b, "c": spec.c, "d": spec.d, "p": spec.p,
        "parity": spec.parity,
    }


_METHODS = ("det", "modular", "condense", "oracle")
_FORMULAS = ("macmahon", "byun_even", "byun_odd", "byun_odd_corrected", "p1md", "d1",
             "reflection")


def _formula_value(name: str, spec: HexSpec) -> int:
    a, b, c, d, p = spec.a, spec.b, spec.c, spec.d, spec.p
    if name == "macmahon":
        if d != 0:
            raise OutOfValidityError("formula:macmahon needs d = 0")
        return formulas.macmahon(a, b, c)
    if name == "byun_even":
        if spec.parity != EVEN or a != 2 * p:
            raise OutOfValidityError("formula:byun_even needs even parity and a = 2p")
        return formulas.byun_even(p, b, c, d)
    if name == "byun_odd":
        if spec.parity != ODD or a != 2 * p + 1:
            raise OutOfValidityError("formula:byun_odd needs odd parity and a = 2p+1")
        return formulas.byun_odd(p, b, c, d)
    if name == "byun_odd_corrected":
        if spec.parity != ODD or a != 2 * p + 1:
            raise OutOfValidityError(
                "formula:byun_odd_corrected needs odd parity and a = 2p+1"
            )
        return (-1) ** d * formulas.byun_odd_corrected(p, b, c, d)
    if name == "p1md":
        if spec.parity != EVEN or p != 1 - d:
            raise OutOfValidityError("formula:p1md needs even parity and p = 1-d")
        return formulas.p_one_minus_d_simple(a, b, c, d)
    if name == "d1":
        if spec.parity != EVEN or d != 1 or p != 0:
            raise OutOfValidityError("formula:d1 needs even parity, d = 1, p = 0")
        return formulas.d1_corollary(a, b, c)
    # "reflection", the last name in _FORMULAS (cmd_count admits no other)
    if spec.parity != EVEN or a != 1:
        raise OutOfValidityError("formula:reflection needs even parity and a = 1")
    return formulas.count_a1_reflection(b, c, d, p)


def _run_method(method: str, spec: HexSpec) -> lgv.SignedCount:
    """The signed count of spec by one counting method."""
    a, b, c, d, p = spec.a, spec.b, spec.c, spec.d, spec.p
    if method == "det":
        return (lgv.even_count if spec.parity == EVEN else lgv.odd_count)(a, b, c, d, p)
    if method == "modular":
        val = det_modular(lgv.path_matrix(a, b, c, d, p, spec.parity))
    elif method == "condense":
        if spec.parity != EVEN:
            raise OutOfValidityError("condense counts even intrusions only")
        val = lgv.even_count_by_condensation(a, b, c, d, p)
    elif method == "oracle":
        val = oracle.signed_count(spec)
    else:
        val = _formula_value(method.split(":", 1)[1], spec)
    return lgv.SignedCount.of(val)


def cmd_count(args) -> int:
    spec = HexSpec(args.a, args.b, args.c, args.d, args.p, args.parity)
    methods = args.method or ["det"]
    for method in methods:
        kind, _, name = method.partition(":")
        if method not in _METHODS and (kind != "formula" or name not in _FORMULAS):
            print(f"count: unknown method {method!r}; known: {', '.join(_METHODS)}, "
                  f"formula:<{'|'.join(_FORMULAS)}>", file=sys.stderr)
            return USAGE_ERROR
    magnitudes = []
    for method in methods:
        t0 = time.perf_counter()
        try:
            sc = _run_method(method, spec)
        except NotIntegerError as exc:
            # no tiling count is a fraction: the formula disagrees with every method
            print(f"count: {exc}", file=sys.stderr)
            return DISAGREEMENT
        except (OutOfValidityError, ValueError, PoleError, oracle.CapExceededError) as exc:
            print(f"count: {exc}", file=sys.stderr)
            return USAGE_ERROR
        elapsed = (time.perf_counter() - t0) * 1000.0
        magnitudes.append(sc.tilings)
        print(json.dumps({
            "spec": _spec_dict(spec),
            "method": method,
            "value": str(sc.value),
            "sign": sc.sign,
            "matrix_dim": spec.dim,
            "elapsed_ms": round(elapsed, 3),
        }))
    if len(set(magnitudes)) > 1:
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
        print(f"verify: ranges must be nonnegative: {', '.join(negative)}", file=sys.stderr)
        return USAGE_ERROR
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    names = [name for suite in suites for name in _SUITES[suite]]
    checks = []
    for res in formulas._run_checks(names, args.amax, args.bmax, args.cmax, args.dmax):
        checks.append({"name": res.name, "cases": res.cases, "failures": res.failures})
        if res.informational:
            checks[-1]["informational"] = True
    passed = all(not ch["failures"] or ch.get("informational") for ch in checks)
    print(json.dumps({
        "suite": args.suite,
        "ranges": ranges,
        "checks": checks,
        "passed": passed,
    }))
    return 0 if passed else DISAGREEMENT


def cmd_fit(args) -> int:
    try:
        if args.degree is None:
            degree, poly = qfit.fit_auto(args.d)
        else:
            degree, poly = args.degree, qfit.fit(args.d, args.degree)
    except qfit.FitInconsistentError as exc:
        print(f"fit: {exc}", file=sys.stderr)
        return DISAGREEMENT
    out = args.out or f"q_d{args.d}.json"
    if not _write("fit", out, qfit.poly_to_json(poly, args.d) + "\n"):
        return USAGE_ERROR
    print(f"Q(d={args.d}), total degree {degree}: {poly}")
    print(f"wrote {out}")
    return 0


def cmd_render(args) -> int:
    spec = HexSpec(args.a, args.b, args.c, args.d, args.p, args.parity)
    family = None
    if args.with_tiling:
        try:
            family = oracle.first_tiling(spec)
        except oracle.CapExceededError as exc:
            print(f"render: {exc}", file=sys.stderr)
            return USAGE_ERROR
        if family is None:
            print("render: spec admits no tiling", file=sys.stderr)
            return DISAGREEMENT
    out = args.out or "hexagon_a{}b{}c{}d{}p{}_{}.svg".format(
        args.a, args.b, args.c, args.d, args.p, args.parity)
    if not _write("render", out, oracle.render_svg(spec, family)):
        return USAGE_ERROR
    print(f"wrote {out}")
    return 0


def cmd_bench(args) -> int:
    dims = [int(tok) for tok in args.dims.split(",") if tok]
    kernels = ["bareiss", "modular"] if args.kernel == "both" else [args.kernel]
    rows = ["dim,shape,kernel,elapsed_ms,result_digits"]
    for n in dims:
        # boxed (n, n, n) fills the matrix; thin (n, 5, 6) keeps it banded
        for shape, (b, c) in (("boxed", (n, n)), ("thin", (5, 6))):
            matrix = lgv.path_matrix(n, b, c, 0, 0, EVEN)
            values = {}
            for kernel in kernels:
                fn = det_bareiss if kernel == "bareiss" else det_modular
                t0 = time.perf_counter()
                values[kernel] = fn(matrix)
                elapsed = (time.perf_counter() - t0) * 1000.0
                rows.append(f"{n},{shape},{kernel},{elapsed:.3f},"
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
        if not _write("bench", args.csv, text):
            return USAGE_ERROR
        print(f"wrote {args.csv}")
    else:
        print(text, end="")
    return 0


def _add_spec_flags(sub, with_parity=True):
    sub.add_argument("--a", type=int, required=True)
    sub.add_argument("--b", type=int, required=True)
    sub.add_argument("--c", type=int, required=True)
    sub.add_argument("--d", type=int, default=0)
    sub.add_argument("--p", type=int, default=0)
    if with_parity:
        sub.add_argument("--parity", choices=[EVEN, ODD], default=EVEN)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hexatile",
                     description="Tiling counts of hexagons with an intrusion")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="count tilings by one or more methods")
    _add_spec_flags(sub)
    sub.add_argument("--method", action="append",
                     help="det | modular | condense | oracle | formula:<name> "
                          "(repeatable; default det)")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"hexatile: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
