"""Span tracing of hexatile from outside the package, and per-layer metrics.

install() wraps the public functions of each hexatile module.  A wrapper
records one span per call: name, parent span, start and end.  Spans live in
flat arrays in memory and are written out once, after the pass.  Because
`from .x import y` binds a second reference, the wrapper replaces the
original in every hexatile namespace that holds it (lgv.det_bareiss,
formulas.even_count, qfit.solve_exact, cli.det_modular, ...).

exactmath.binom and exactmath.factorial are left unwrapped: they are called
once per matrix entry (about a million times in one verify pass), and a
span each would cost more than the work they do.  Their time stays with the
calling module.

A few counts are computed from the calls' arguments and results rather than
timed; their metric names are listed in COMPUTED.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import time
from array import array
from itertools import chain

MODULES = ("exactmath", "hexmodel", "detkernel", "lgv", "formulas", "schur",
           "oracle", "qfit", "cli")
UNWRAPPED = {"exactmath.binom", "exactmath.factorial"}
BENCH = "bench"  # pseudo-module: the benchmark's own bookkeeping

# Hooks that the per-layer metrics read.  One that cannot be installed is
# reported as missing, and the metrics built on it are left out.
REQUIRED = (
    "lgv.even_count", "lgv.odd_count", "lgv.even_count_by_condensation",
    "lgv.verify_dodgson_even", "lgv.verify_dodgson_odd",
    "detkernel.det_bareiss", "detkernel.det_modular", "detkernel.solve_exact",
    "formulas.macmahon", "formulas.verify_identities", "exactmath.pochhammer",
    "oracle.signed_count", "qfit.sample_ratio", "qfit.probe_degree", "qfit.fit",
    "qfit.cross_validate", "cli.main",
)
COUNT_FNS = ("lgv.even_count", "lgv.odd_count")
CONDENSE_FNS = ("lgv.even_count_by_condensation", "lgv.verify_dodgson_even",
                "lgv.verify_dodgson_odd")
CLOSED_FORM_FNS = (
    "formulas.byun_even", "formulas.byun_odd", "formulas.byun_odd_corrected",
    "formulas.count_a1_reflection", "formulas.p_one_minus_d_simple",
    "formulas.p_one_minus_d_alt", "formulas.d1_corollary", "formulas.f_sum",
    "formulas.prefactor_P", "formulas.special_prefactor", "formulas.q_known",
    "formulas.detF_factorized",
)
COMPUTED = ("detkernel.bareiss.ops", "detkernel.bareiss.max_dim",
            "detkernel.modular.primes", "detkernel.modular.primes_needed",
            "lgv.matrix_entries", "lgv.count.distinct")
PRIME_BITS = 62  # det_modular's pool: the largest primes below 2^62


def hadamard_bound(m) -> int:
    """Product of the rows' Euclidean norms, rounded up, as det_modular uses it."""
    bound = 1
    for row in m:
        norm_sq = sum(x * x for x in row)
        if norm_sq == 0:
            return 0
        s = math.isqrt(norm_sq)
        bound *= s + (s * s < norm_sq)
    return bound


def primes_for(magnitude: int) -> int:
    """Pool primes whose product exceeds 2 * magnitude (symmetric CRT range)."""
    return -(-(2 * magnitude + 1).bit_length() // PRIME_BITS)


class Recorder:
    """In-memory spans plus the counts computed from call arguments."""

    def __init__(self):
        self.names: list = []
        self.name_id: dict = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised: set = set()
        self.current = -1
        self.paused = False
        self.count_keys: set = set()
        self.counts = dict.fromkeys(COMPUTED, 0)

    def intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self.current)
        self.end.append(0)
        self.current = idx
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.current = self.parent[idx]

    def observe(self, name: str, args: tuple, result) -> None:
        """Counts computed from one call; runs as a span of the bench module."""
        c = self.counts
        if name in COUNT_FNS:
            a, b, c_, d, p = args[:5]
            self.count_keys.add((name, a, b, c_, d, p))
            c["lgv.matrix_entries"] += (a + d) ** 2
        elif name == "detkernel.det_bareiss":
            n = len(args[0])
            c["detkernel.bareiss.ops"] += n ** 3
            c["detkernel.bareiss.max_dim"] = max(c["detkernel.bareiss.max_dim"], n)
        elif name == "detkernel.det_modular":
            c["detkernel.modular.primes"] += primes_for(hadamard_bound(args[0]))
            c["detkernel.modular.primes_needed"] += primes_for(abs(result))

    def write(self, path: str) -> None:
        """All spans as JSON: a name table plus one [name, parent, start, end] row each."""
        rows = [[self.span_name[i], self.parent[i], self.start[i], self.end[i]]
                for i in range(len(self.span_name))]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "unit": "ns", "raised": sorted(self.raised),
                       "spans": rows}, fh)


OBSERVED = set(COUNT_FNS) | {"detkernel.det_bareiss", "detkernel.det_modular"}


def _wrap(rec: Recorder, fn, name: str):
    name_id = rec.intern(name)
    observe_id = rec.intern(BENCH + ".observe") if name in OBSERVED else None

    def traced(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        idx = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.raised.add(idx)
            raise
        finally:
            rec.close(idx)
        if observe_id is not None:
            obs = rec.open(observe_id)
            rec.observe(name, args, result)
            rec.close(obs)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    return traced


def install(rec: Recorder) -> list:
    """Wrap every public hexatile function; return the REQUIRED hooks not installed."""
    mods = {name: importlib.import_module(f"hexatile.{name}") for name in MODULES}
    wrapped = {}
    installed = set()
    for short, mod in mods.items():
        for attr, fn in vars(mod).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                continue
            wrapped[id(fn)] = _wrap(rec, fn, name)
            installed.add(name)
    for ns in [importlib.import_module("hexatile"), *mods.values()]:
        for attr, val in list(vars(ns).items()):
            if id(val) in wrapped:
                setattr(ns, attr, wrapped[id(val)])
    return [name for name in REQUIRED if name not in installed]


class _Spans:
    """Derived per-span quantities used by the metrics."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        n = len(rec.span_name)
        self.n = n
        self.dur = [rec.end[i] - rec.start[i] for i in range(n)]
        self.module = [rec.names[rec.span_name[i]].split(".", 1)[0] for i in range(n)]
        excl = list(self.dur)
        for i in range(n):
            p = rec.parent[i]
            if p >= 0:
                excl[p] -= self.dur[i]
        self.excl = excl
        # time inside span i whose innermost span belongs to span i's module
        same = list(excl)
        for i in range(n - 1, -1, -1):
            p = rec.parent[i]
            if p >= 0 and self.module[p] == self.module[i]:
                same[p] += same[i]
        self.same = same

    def ids(self, names) -> set:
        return {self.rec.name_id[x] for x in names if x in self.rec.name_id}

    def of(self, names) -> list:
        ids = self.ids(names)
        return [i for i in range(self.n) if self.rec.span_name[i] in ids]

    def outer_time(self, names) -> int:
        """Time covered by spans in names, not counting one nested in another."""
        ids = self.ids(names)
        inside = [False] * self.n
        total = 0
        for i in range(self.n):
            p = self.rec.parent[i]
            inside_group = p >= 0 and (self.rec.span_name[p] in ids or inside[p])
            inside[i] = inside_group
            if self.rec.span_name[i] in ids and not inside_group:
                total += self.dur[i]
        return total


def layer_metrics(rec: Recorder, wall_ns: int, missing: list) -> dict:
    """Per-layer metric values by name, from one traced pass."""
    sp = _Spans(rec)
    s = 1e-9
    out: dict = {}

    for mod in MODULES:
        out[f"{mod}.self_s"] = s * sum(sp.excl[i] for i in range(sp.n) if sp.module[i] == mod)
    program_ns = sum(sp.excl[i] for i in range(sp.n) if sp.module[i] != BENCH)
    out["bench.self_s"] = s * (wall_ns - program_ns)
    out["trace.spans"] = sp.n
    out["trace.wall_s"] = s * wall_ns

    c = rec.counts
    out["detkernel.bareiss.calls"] = len(sp.of(["detkernel.det_bareiss"]))
    out["detkernel.bareiss.s"] = s * sp.outer_time(["detkernel.det_bareiss"])
    out["detkernel.bareiss.max_dim"] = c["detkernel.bareiss.max_dim"]
    out["detkernel.bareiss.ops"] = c["detkernel.bareiss.ops"] / 3
    out["detkernel.modular.calls"] = len(sp.of(["detkernel.det_modular"]))
    out["detkernel.modular.s"] = s * sp.outer_time(["detkernel.det_modular"])
    out["detkernel.modular.primes"] = c["detkernel.modular.primes"]
    out["detkernel.modular.primes_needed"] = c["detkernel.modular.primes_needed"]
    out["detkernel.solve_exact.calls"] = len(sp.of(["detkernel.solve_exact"]))
    out["detkernel.solve_exact.s"] = s * sp.outer_time(["detkernel.solve_exact"])

    counts = sp.of(COUNT_FNS)
    distinct = len(rec.count_keys)
    out["lgv.count.calls"] = len(counts)
    out["lgv.count.distinct"] = distinct
    out["lgv.count.repeat_frac"] = 1 - distinct / len(counts) if counts else 0.0
    out["lgv.count.self_s"] = s * sum(sp.same[i] for i in counts)
    out["lgv.matrix_entries"] = c["lgv.matrix_entries"]
    out["lgv.condense.calls"] = len(sp.of(CONDENSE_FNS))
    out["lgv.condense.s"] = s * sp.outer_time(CONDENSE_FNS)

    out["formulas.macmahon.calls"] = len(sp.of(["formulas.macmahon"]))
    out["formulas.macmahon.s"] = s * sp.outer_time(["formulas.macmahon"])
    out["formulas.closed_form.calls"] = len(sp.of(CLOSED_FORM_FNS))
    out["formulas.closed_form.s"] = s * sp.outer_time(CLOSED_FORM_FNS)
    out["formulas.identities.s"] = s * sp.outer_time(["formulas.verify_identities"])
    out["schur.calls"] = sum(1 for m in sp.module if m == "schur")
    out["exactmath.pochhammer.calls"] = len(sp.of(["exactmath.pochhammer"]))
    out["exactmath.pochhammer.s"] = s * sp.outer_time(["exactmath.pochhammer"])
    out["hexmodel.calls"] = sum(1 for m in sp.module if m == "hexmodel")
    out["hexmodel.s"] = s * sp.outer_time([x for x in rec.names if x.startswith("hexmodel.")])
    out["cli.main.self_s"] = s * sum(sp.same[i] for i in sp.of(["cli.main"]))

    oracle = sp.of(["oracle.signed_count"])
    out["oracle.signed_count.calls"] = len(oracle)
    out["oracle.signed_count.s"] = s * sp.outer_time(["oracle.signed_count"])
    out["oracle.signed_count.max_ms"] = 1e-6 * max((sp.dur[i] for i in oracle), default=0)

    # fit's own time in qfit, less the sampling it drives: basis, solve,
    # lift and recheck
    fits = sp.of(["qfit.fit"])
    solve_ns = sum(sp.same[i] for i in fits)
    for i in sp.of(["qfit.sample_ratio"]):
        p = rec.parent[i]
        if p >= 0 and rec.names[rec.span_name[p]] == "qfit.fit":
            solve_ns -= sp.same[i]
    accepted = sum(1 for i in fits if i not in rec.raised)
    out["qfit.sample.calls"] = len(sp.of(["qfit.sample_ratio"]))
    out["qfit.sample.s"] = s * sp.outer_time(["qfit.sample_ratio"])
    out["qfit.probe.s"] = s * sp.outer_time(["qfit.probe_degree"])
    out["qfit.fit.attempts"] = len(fits)
    out["qfit.fit.accepted_frac"] = accepted / len(fits) if fits else 0.0
    out["qfit.solve.self_s"] = s * solve_ns
    out["qfit.holdout.s"] = s * sp.outer_time(["qfit.cross_validate"])

    dropped = _depends_on_missing(missing)
    return {k: v for k, v in out.items() if k not in dropped}


_DEPENDS = {
    "lgv.even_count": ("lgv.count.", "lgv.matrix_entries"),
    "lgv.odd_count": ("lgv.count.", "lgv.matrix_entries"),
    "lgv.even_count_by_condensation": ("lgv.condense.",),
    "lgv.verify_dodgson_even": ("lgv.condense.",),
    "lgv.verify_dodgson_odd": ("lgv.condense.",),
    "detkernel.det_bareiss": ("detkernel.bareiss.",),
    "detkernel.det_modular": ("detkernel.modular.",),
    "detkernel.solve_exact": ("detkernel.solve_exact.",),
    "formulas.macmahon": ("formulas.macmahon.",),
    "formulas.verify_identities": ("formulas.identities.",),
    "exactmath.pochhammer": ("exactmath.pochhammer.",),
    "oracle.signed_count": ("oracle.signed_count.",),
    "qfit.sample_ratio": ("qfit.sample.", "qfit.solve."),
    "qfit.probe_degree": ("qfit.probe.",),
    "qfit.fit": ("qfit.fit.", "qfit.solve."),
    "qfit.cross_validate": ("qfit.holdout.",),
    "cli.main": ("cli.main.",),
}


def _depends_on_missing(missing: list) -> set:
    prefixes = tuple(chain.from_iterable(_DEPENDS.get(m, ()) for m in missing))
    return {name for name in PER_LAYER if prefixes and name.startswith(prefixes)}


def unit(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


# Every per-layer metric, in the order the benchmark prints them.
PER_LAYER = (
    [f"{m}.self_s" for m in MODULES]
    + ["bench.self_s", "trace.spans", "trace.wall_s", "trace.overhead_frac",
       "import.numpy_s", "import.hexatile_s"]
    + ["detkernel.bareiss.calls", "detkernel.bareiss.s", "detkernel.bareiss.max_dim",
       "detkernel.bareiss.ops", "detkernel.modular.calls", "detkernel.modular.s",
       "detkernel.modular.primes", "detkernel.modular.primes_needed",
       "detkernel.solve_exact.calls", "detkernel.solve_exact.s"]
    + ["lgv.count.calls", "lgv.count.distinct", "lgv.count.repeat_frac",
       "lgv.count.self_s", "lgv.matrix_entries", "lgv.condense.calls", "lgv.condense.s"]
    + ["formulas.macmahon.calls", "formulas.macmahon.s", "formulas.closed_form.calls",
       "formulas.closed_form.s", "formulas.identities.s", "schur.calls",
       "exactmath.pochhammer.calls", "exactmath.pochhammer.s", "hexmodel.calls",
       "hexmodel.s", "cli.main.self_s"]
    + ["oracle.signed_count.calls", "oracle.signed_count.s", "oracle.signed_count.max_ms"]
    + ["qfit.sample.calls", "qfit.sample.s", "qfit.probe.s", "qfit.fit.attempts",
       "qfit.fit.accepted_frac", "qfit.solve.self_s", "qfit.holdout.s"]
)
