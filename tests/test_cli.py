"""Command-line interface: flags, JSON output, and the exit-code contract."""

import json
import re
from fractions import Fraction

import pytest

from hexatile import cli, lgv, oracle, schur
from hexatile.cli import main
from hexatile.formulas import macmahon

PASS = 0
USAGE = 1
DISAGREE = 2


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse paths
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def count_flags(a, b, c, d, p, parity):
    return [
        "count", "--a", str(a), "--b", str(b), "--c", str(c),
        "--d", str(d), "--p", str(p), "--parity", parity,
    ]


def test_count_det(capsys):
    code, out, _ = run(capsys, *count_flags(2, 2, 2, 0, 0, "even"), "--method", "det")
    assert code == PASS
    rec = json.loads(out.strip())
    assert rec["value"] == "20"
    assert rec["method"] == "det"
    assert rec["matrix_dim"] == 2
    assert rec["elapsed_ms"] >= 0
    assert rec["spec"]["a"] == 2


def test_count_a0_is_one(capsys):
    code, out, _ = run(capsys, *count_flags(0, 3, 4, 2, 1, "even"), "--method", "det")
    assert code == PASS
    assert json.loads(out.strip())["value"] == "1"


def test_count_methods_agree(capsys):
    code, out, _ = run(
        capsys, *count_flags(1, 2, 2, 1, 0, "even"), "--method", "det", "--method", "oracle"
    )
    assert code == PASS
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["value"] for rec in lines] == ["3", "3"]
    assert {rec["method"] for rec in lines} == {"det", "oracle"}


def test_count_oracle_past_dimension_seven(capsys):
    code, out, _ = run(
        capsys, *count_flags(6, 3, 3, 2, 3, "even"), "--method", "det", "--method", "oracle"
    )
    assert code == PASS
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["value"] for rec in lines] == ["3000", "3000"]
    assert lines[1]["matrix_dim"] == 8


def test_count_oracle_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "PATH_CAP", 5)
    code, out, err = run(capsys, *count_flags(6, 3, 3, 2, 3, "even"), "--method", "oracle")
    assert code == USAGE
    assert out == ""
    assert "sweep states" in err


def test_count_condense_past_the_recursion_limit_is_usage_error(capsys):
    code, out, err = run(capsys, *count_flags(2000, 2, 2, 0, 0, "even"), "--method", "condense")
    assert code == USAGE
    assert out == ""
    assert err == ("count: condensation at a = 2000 recurses past Python's recursion limit; "
                   "count it by det\n")


@pytest.mark.parametrize("spec, method, cap", [
    # byun_even's pole is found only while computing, after det has run
    ((2, 1, 1, 2, 1, "even"), "formula:byun_even", None),
    ((6, 3, 3, 2, 3, "even"), "oracle", 5),
])
def test_count_usage_error_after_det_prints_no_record(monkeypatch, capsys, spec, method, cap):
    if cap is not None:
        monkeypatch.setattr(oracle, "PATH_CAP", cap)
    code, out, err = run(capsys, *count_flags(*spec), "--method", "det", "--method", method)
    assert (code, out) == (USAGE, "")
    assert err.count("\n") == 1 and err.startswith("count: ")


@pytest.mark.parametrize("spec, formula", [
    ((60, 5, 7, 3, 30, "even"), "formula:byun_even"),
    ((61, 5, 7, 3, 30, "odd"), "formula:byun_odd_corrected"),
])
def test_count_det_eliminates_where_lgv_count_takes_the_complement(monkeypatch, capsys,
                                                                   spec, formula):
    # lgv.count counts these points through schur's d x d complement; det is
    # still the path matrix's elimination, and complement agrees with both
    real = schur.count_via_inverse
    monkeypatch.setattr(schur, "count_via_inverse", lambda *q: pytest.fail("complement ran"))
    code, out, err = run(capsys, *count_flags(*spec), "--method", "det", "--method", formula)
    assert (code, err) == (PASS, "")
    monkeypatch.setattr(schur, "count_via_inverse", real)
    code, out2, err = run(capsys, *count_flags(*spec), "--method", "det",
                          "--method", "complement", "--method", formula)
    assert (code, err) == (PASS, "")
    values = [json.loads(line)["value"] for line in out2.strip().splitlines()]
    assert values == [json.loads(out.splitlines()[0])["value"]] * 3


def test_count_negative_odd_instance(capsys):
    code, out, _ = run(
        capsys, *count_flags(4, 5, 3, 3, 3, "odd"), "--method", "det", "--method", "oracle"
    )
    assert code == PASS
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert rec["value"] == "-8008"
        assert rec["sign"] == -1


def test_count_disagreement_exits_2(capsys):
    # the transcribed halved-odd product disagrees with the determinant
    code, out, _ = run(
        capsys,
        *count_flags(1, 3, 5, 1, 0, "odd"),
        "--method", "det", "--method", "formula:byun_odd",
    )
    assert code == DISAGREE
    values = {json.loads(line)["value"] for line in out.strip().splitlines()}
    assert values == {"-15", "24"}


def test_count_non_integer_formula_exits_2(capsys):
    # the transcribed halved-odd product is 250/3 here; the det line is printed first
    code, out, err = run(
        capsys,
        *count_flags(3, 2, 2, 2, 1, "odd"),
        "--method", "det", "--method", "formula:byun_odd",
    )
    assert code == DISAGREE
    assert [json.loads(line)["value"] for line in out.strip().splitlines()] == ["25"]
    assert "not an integer: 250/3" in err
    assert "Traceback" not in err


def test_count_d1_display_that_is_not_an_integer_exits_2(capsys, monkeypatch):
    right = cli.formulas.macmahon
    monkeypatch.setattr(cli.formulas, "macmahon", lambda *args: right(*args) + 1)
    # M(2, 2, 2) + 1 = 21, and 21 (2)_2 / (4)_2 = 63/10
    code, out, err = run(capsys, *count_flags(2, 2, 2, 1, 0, "even"), "--method", "formula:d1")
    assert (code, out) == (DISAGREE, "")
    assert err == "count: d1_corollary is not an integer: 63/10\n"


def test_count_formula_pole_usage_error(capsys):
    code, out, err = run(
        capsys, *count_flags(2, 1, 1, 2, 1, "even"), "--method", "formula:byun_even"
    )
    assert code == USAGE
    assert out == ""
    assert "denominator vanishes" in err


def test_count_corrected_formula_agrees(capsys):
    code, out, _ = run(
        capsys,
        *count_flags(7, 5, 3, 3, 3, "odd"),
        "--method", "det", "--method", "formula:byun_odd_corrected",
    )
    assert code == PASS
    values = [json.loads(line)["value"] for line in out.strip().splitlines()]
    assert values == ["-2642640", "-2642640"]


def test_count_unknown_method_usage_error(capsys):
    code, _, err = run(capsys, *count_flags(2, 2, 2, 0, 0, "even"), "--method", "guess")
    assert code == USAGE
    assert "guess" in err


def test_count_unknown_method_checked_before_any_runs(capsys):
    code, out, err = run(
        capsys, *count_flags(2, 2, 2, 1, 0, "even"), "--method", "det",
        "--method", "modular", "--method", "oracle", "--method", "closed-form",
    )
    assert code == USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "closed-form" in err
    code, out, err = run(
        capsys, *count_flags(2, 2, 2, 1, 0, "even"), "--method", "det",
        "--method", "formula:nope",
    )
    assert (code, out) == (USAGE, "")
    assert "formula:nope" in err


def test_count_formula_out_of_window_usage_error(capsys):
    # macmahon gate requires d == 0
    code, _, err = run(
        capsys, *count_flags(2, 2, 2, 1, 0, "even"), "--method", "formula:macmahon"
    )
    assert code == USAGE
    assert err


# For every count method, one spec inside its window.
INSIDE = {
    "det": (2, 2, 2, 1, 0, "even"),
    "complement": (4, 5, 3, 3, 3, "odd"),
    "modular": (4, 5, 3, 3, 3, "odd"),
    "condense": (3, 2, 3, 1, 1, "even"),
    "oracle": (3, 2, 3, 2, 1, "odd"),
    "formula:macmahon": (3, 2, 4, 0, 0, "even"),
    "formula:byun_even": (4, 3, 2, 2, 2, "even"),
    "formula:byun_odd": (3, 2, 2, 0, 1, "odd"),  # intact: the printed product holds
    "formula:byun_odd_corrected": (5, 3, 2, 2, 2, "odd"),
    "formula:p1md": (3, 4, 4, 2, -1, "even"),
    "formula:d1": (3, 3, 4, 1, 0, "even"),
    "formula:reflection": (1, 3, 4, 2, -1, "even"),
}
# Odd, d = 1 and a = 2 = 2p: outside every window but those of det,
# complement, modular and oracle.
OUTSIDE = (2, 2, 2, 1, 1, "odd")


@pytest.mark.parametrize("method", list(cli._METHODS))
def test_every_method_agrees_with_det_inside_its_window(capsys, method):
    code, out, err = run(capsys, *count_flags(*INSIDE[method]),
                         "--method", "det", "--method", method)
    assert (code, err) == (PASS, "")
    det, rec = [json.loads(line) for line in out.strip().splitlines()]
    assert rec["method"] == method
    assert rec["value"] == det["value"]
    code, out, err = run(capsys, *count_flags(*OUTSIDE), "--method", method)
    if method in ("det", "complement", "modular", "oracle"):
        assert code == PASS and json.loads(out)["value"] == "-8"
    else:
        assert (code, out) == (USAGE, "")
        assert err.count("\n") == 1 and err.startswith("count: ")


@pytest.mark.parametrize("spec, formula", [
    ((2, 2, 2, 1, 0, "even"), "formula:macmahon"),
    ((2000, 3, 4, 0, 0, "even"), "formula:d1"),
    # the bounds a display checks itself are in its window too
    ((1, 2, 2, 1, 1, "even"), "formula:reflection"),
    ((2, 2, 2, 0, 1, "even"), "formula:p1md"),
    ((2, 2, 0, 1, 0, "even"), "formula:d1"),
])
def test_count_checks_every_window_before_running_any(monkeypatch, capsys, spec, formula):
    calls = []
    for name in ("count", "count_line"):  # det reads count_line
        real = getattr(lgv, name)
        monkeypatch.setattr(lgv, name, lambda *q, real=real: calls.append(q) or real(*q))
    code, out, err = run(capsys, *count_flags(*spec), "--method", "det", "--method", formula)
    assert (code, out, calls) == (USAGE, "", [])
    assert err.count("\n") == 1 and err.startswith(f"count: {formula} needs ")


def test_count_past_the_int_string_limit(capsys):
    # 7199 digits: Python >= 3.10.7 refuses str(int) past 4300 unless the cap is lifted
    code, out, err = run(capsys, *count_flags(4, 3000, 3000, 0, 0, "even"),
                         "--method", "det", "--method", "modular")
    assert (code, err) == (PASS, "")
    values = [json.loads(line)["value"] for line in out.strip().splitlines()]
    assert len(values) == 2
    assert all(int(value) == macmahon(4, 3000, 3000) for value in values)


def test_bad_flag_usage_error(capsys):
    code, _, _ = run(capsys, "count", "--a", "2", "--b", "2", "--c", "2",
                     "--d", "0", "--p", "0", "--parity", "diagonal")
    assert code == USAGE


def test_verify_suite_json_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "macmahon", "--amax", "3", "--bmax", "3", "--cmax", "3")
    assert code == PASS
    report = json.loads(out.strip())
    assert report["suite"] == "macmahon"
    assert report["passed"] is True
    assert report["checks"][0]["cases"] > 0


def test_verify_all_small_ranges(capsys):
    code, out, _ = run(
        capsys, "verify", "all",
        "--amax", "3", "--bmax", "4", "--cmax", "4", "--dmax", "2",
    )
    assert code == PASS
    report = json.loads(out.strip())
    assert report["suite"] == "all"
    assert report["passed"] is True
    names = {ch["name"] for ch in report["checks"]}
    for expected in (
        "macmahon_product", "halved_even_product", "halved_odd_product_corrected",
        "p1md_simple", "unit_intrusion_corollary", "binomial_lu_inverse",
        "complement_block_count", "telescoped_double_sum", "condensation_even",
        "condensation_odd", "mirror_symmetry",
    ):
        assert expected in names, expected


def test_verify_byun_reports_printed_odd_informationally(capsys):
    code, out, _ = run(capsys, "verify", "byun", "--amax", "3", "--bmax", "4", "--cmax", "4",
                       "--dmax", "2")
    assert code == PASS
    report = json.loads(out.strip())
    by_name = {ch["name"]: ch for ch in report["checks"]}
    assert not by_name["halved_even_product"]["failures"]
    assert not by_name["halved_odd_product_corrected"]["failures"]
    printed = by_name["halved_odd_product_printed"]
    assert printed["informational"] is True
    assert printed["failures"]  # transcription failure, surfaced not hidden


def test_fit_writes_json(tmp_path, capsys):
    out_file = tmp_path / "q1.json"
    code, out, _ = run(capsys, "fit", "--d", "1", "--out", str(out_file))
    assert code == PASS
    payload = json.loads(out_file.read_text())
    assert payload["d"] == 1
    assert payload["terms"] == [{"exponents": [0, 0, 0, 0], "num": "1", "den": "1"}]
    assert "Q(d=1" in out


def test_fit_d2_writes_eight_terms(tmp_path, capsys):
    out_file = tmp_path / "q2.json"
    code, out, _ = run(capsys, "fit", "--d", "2", "--out", str(out_file))
    assert code == PASS
    payload = json.loads(out_file.read_text())
    assert payload["d"] == 2
    assert len(payload["terms"]) == 8


def test_fit_prints_the_degree_of_the_polynomial_not_the_bound(tmp_path, capsys):
    out_file = tmp_path / "q2.json"
    code, out, _ = run(capsys, "fit", "--d", "2", "--degree", "4", "--out", str(out_file))
    assert code == PASS
    # the degree and the term count; the polynomial itself is only in the file
    assert out == f"Q(d=2), total degree 2: 8 terms\nwrote {out_file}\n"


def test_fit_past_the_degree_law_exits_2(tmp_path, capsys, q_stand_in):
    # a degree-3 stand-in for Q at d = 2, past the law d(d-1) = 2 that bounds
    # the search without --degree: a finding, so exit 2, not a usage error
    q_stand_in(lambda a, b, c, d, p: Fraction(a * b * c))
    code, out, err = run(capsys, "fit", "--d", "2", "--out", str(tmp_path / "q2.json"))
    assert code == DISAGREE
    assert out == ""
    assert re.fullmatch(r"fit: .*d\(d-1\) = 2.*\n", err)
    assert not (tmp_path / "q2.json").exists()


def test_render_writes_svg(tmp_path, capsys):
    out_file = tmp_path / "hex.svg"
    code, _, _ = run(capsys, "render", "--a", "3", "--b", "4", "--c", "5",
                     "--d", "1", "--p", "0", "--parity", "even", "--out", str(out_file))
    assert code == PASS
    text = out_file.read_text()
    assert text.startswith("<svg") and "</svg>" in text


def test_render_without_out_writes_its_default_file_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "render", "--a", "2", "--b", "3", "--c", "4",
                       "--d", "1", "--p", "0", "--parity", "odd")
    assert code == PASS
    name = "hexagon_a2b3c4d1p0_odd.svg"
    assert out == f"wrote {name}\n"
    assert [f.name for f in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_text().startswith("<svg")


def test_render_with_tiling(tmp_path, capsys):
    out_file = tmp_path / "tiled.svg"
    code, _, _ = run(capsys, "render", "--a", "2", "--b", "2", "--c", "2",
                     "--d", "1", "--p", "1", "--parity", "even",
                     "--with-tiling", "--out", str(out_file))
    assert code == PASS
    assert "#b3cde3" in out_file.read_text()


def test_render_with_tiling_past_dimension_seven(tmp_path, capsys):
    out_file = tmp_path / "wide.svg"
    code, _, _ = run(capsys, "render", "--a", "8", "--b", "8", "--c", "8",
                     "--d", "3", "--p", "3", "--parity", "odd",
                     "--with-tiling", "--out", str(out_file))
    assert code == PASS
    assert "#b3cde3" in out_file.read_text()


def test_render_untileable_spec_fails(tmp_path, capsys):
    out_file = tmp_path / "none.svg"
    code, _, err = run(capsys, "render", "--a", "2", "--b", "3", "--c", "3",
                       "--d", "1", "--p", "2", "--parity", "odd",
                       "--with-tiling", "--out", str(out_file))
    assert code != PASS
    assert err


def test_bench_rows_and_agreement(capsys):
    code, out, _ = run(capsys, "bench", "--dims", "4,6")
    assert code == PASS
    lines = out.strip().splitlines()
    assert lines[0] == "dim,shape,kernel,elapsed_ms,result_digits"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8  # two dims, two shapes, two kernels
    assert {r[1] for r in rows} == {"boxed", "thin"}
    assert {r[2] for r in rows} == {"bareiss", "modular"}
    digits = {(r[0], r[1]): r[4] for r in rows}
    assert digits[("6", "boxed")] == str(len(str(macmahon(6, 6, 6))))
    assert digits[("6", "thin")] == str(len(str(macmahon(6, 5, 6))))


def test_bench_csv_writes_the_rows_to_its_file(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--dims", "3", "--kernel", "bareiss", "--csv", str(csv))
    assert code == PASS
    assert out == f"wrote {csv}\n"
    lines = csv.read_text().splitlines()
    assert lines[0] == "dim,shape,kernel,elapsed_ms,result_digits"
    assert [line.split(",")[:3] for line in lines[1:]] == [["3", "boxed", "bareiss"],
                                                           ["3", "thin", "bareiss"]]


@pytest.mark.parametrize("target, name, message", [
    (cli, "det_modular", "kernels disagree on the boxed hexagon at dim 4"),
    (cli.formulas, "macmahon",
     "determinant disagrees with the product formula on the boxed hexagon at dim 4"),
])
def test_bench_disagreement_exits_2(capsys, monkeypatch, target, name, message):
    right = getattr(target, name)
    monkeypatch.setattr(target, name, lambda *args: right(*args) + 1)
    code, out, err = run(capsys, "bench", "--dims", "4")
    assert code == DISAGREE
    assert out == ""
    assert err == f"bench: {message}\n"


def test_bench_reports_the_best_of_five_runs_per_row(capsys, monkeypatch):
    runs = {"bareiss": 0, "modular": 0}

    def counted(kernel, right):
        def fn(matrix):
            runs[kernel] += 1
            return right(matrix)
        return fn

    monkeypatch.setattr(cli, "det_bareiss", counted("bareiss", cli.det_bareiss))
    monkeypatch.setattr(cli, "det_modular", counted("modular", cli.det_modular))
    # the clock reads 0, 1, 2, ..., one step a call, so each run takes 1 s;
    # a row is ten reads, and its third run ends 0.75 s early
    reads = []

    def perf_counter():
        reads.append(len(reads))
        return reads[-1] - 0.75 * (len(reads) % 10 == 6)

    monkeypatch.setattr(cli.time, "perf_counter", perf_counter)
    code, out, _ = run(capsys, "bench", "--dims", "4,6")
    assert code == PASS
    assert runs == {"bareiss": 20, "modular": 20}  # four rows each, five runs a row
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["250.000"] * 8


def test_bench_runs_every_row_once_per_repeat(capsys, monkeypatch):
    calls = []
    right = cli.det_bareiss

    def recorded(matrix):
        calls.append(tuple(map(tuple, matrix)))
        return right(matrix)

    monkeypatch.setattr(cli, "det_bareiss", recorded)
    code, _, _ = run(capsys, "bench", "--dims", "4,6", "--kernel", "bareiss")
    assert code == PASS
    # four rows (two dims, two shapes), each run once before any runs again
    assert len(set(calls[:4])) == 4
    assert calls == calls[:4] * 5


def test_bench_repeats_that_disagree_exit_2(capsys, monkeypatch):
    calls = iter(range(10**6))
    monkeypatch.setattr(cli, "det_modular", lambda matrix: next(calls))
    code, out, err = run(capsys, "bench", "--dims", "4", "--kernel", "modular")
    assert code == DISAGREE
    assert out == ""
    assert err == "bench: repeats of modular disagree on the boxed hexagon at dim 4\n"


@pytest.mark.parametrize("dims", ["-1", "x", "4,0", "4,x", "4,,6"])
def test_bench_rejects_bad_dims_before_any_work(capsys, monkeypatch, dims):
    def no_work(*args):
        raise AssertionError("bench built a matrix before checking --dims")

    monkeypatch.setattr(cli.lgv, "path_matrix", no_work)
    code, out, err = run(capsys, "bench", "--dims", dims)
    assert code == USAGE
    assert out == ""
    assert err == f"bench: --dims takes integers >= 1 separated by commas, not {dims!r}\n"


@pytest.mark.parametrize("flag", ["--amax", "--bmax", "--cmax", "--dmax"])
def test_verify_negative_range_usage_error(capsys, flag):
    code, out, err = run(capsys, "verify", "all", flag, "-1")
    assert code == USAGE
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{flag} -1" in err


@pytest.mark.parametrize("argv", [
    ("fit", "--d", "1", "--out"),
    ("render", "--a", "2", "--b", "2", "--c", "2", "--out"),
    ("bench", "--dims", "2", "--csv"),
])
def test_unwritable_output_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, str(target))
    assert code == USAGE
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(target) in err
    assert not target.exists()


# `verify all` at the CLI default ranges: cases per check, in report order.
VERIFY_ALL_CASES = {
    "macmahon_product": 125, "halved_even_product": 150,
    "halved_odd_product_corrected": 150, "halved_odd_product_printed": 150,
    "p1md_simple": 375, "p1md_sum": 375, "p1md_polynomial": 375, "p1d_aux": 237,
    "p1d_zb": 360, "sa": 120, "factorial_sum": 24, "f_recursion": 360,
    "f_d_recursion": 240, "f_alternative": 162, "unit_intrusion_corollary": 125,
    "binomial_lu_inverse": 100, "complement_block_count": 1400,
    "inverse_entry_sums": 704, "telescoped_double_sum": 350,
    "condensation_even": 1200, "condensation_odd": 1200, "mirror_symmetry": 1500,
}


def test_verify_all_default_ranges_pinned(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == PASS
    report = json.loads(out)
    assert report["ranges"] == {"amax": 4, "bmax": 5, "cmax": 5, "dmax": 3}
    checks = report["checks"]
    assert list(VERIFY_ALL_CASES) == [ch["name"] for ch in checks]
    assert {ch["name"]: ch["cases"] for ch in checks} == VERIFY_ALL_CASES
    assert sum(VERIFY_ALL_CASES.values()) == 9782
    informational = [ch for ch in checks if ch.get("informational")]
    assert [ch["name"] for ch in informational] == ["halved_odd_product_printed"]
    assert informational[0]["informational"] is True
    assert len(informational[0]["failures"]) == 150
    assert all(not ch["failures"] for ch in checks if not ch.get("informational"))


def test_verify_all_concatenates_the_suites_in_order(capsys):
    ranges = ("--amax", "2", "--bmax", "3", "--cmax", "3", "--dmax", "2")
    _, out, _ = run(capsys, "verify", "all", *ranges)
    everything = json.loads(out)["checks"]
    parts = []
    for suite in cli._SUITES:
        _, out, _ = run(capsys, "verify", suite, *ranges)
        parts.extend(json.loads(out)["checks"])
    assert everything == parts
    assert [ch["name"] for ch in everything] == [
        name for names in cli._SUITES.values() for name in names]


def test_verify_f_d_recursion_honours_dmax(capsys):
    code, out, _ = run(capsys, "verify", "p1md", "--dmax", "1")
    assert code == PASS
    by_name = {ch["name"]: ch for ch in json.loads(out)["checks"]}
    assert by_name["f_d_recursion"]["cases"] == 0
    _, out, _ = run(capsys, "verify", "p1md", "--dmax", "2")
    assert {ch["name"]: ch["cases"] for ch in json.loads(out)["checks"]}["f_d_recursion"] == 120


def test_verify_p1md_skips_the_polynomial_display_poles(capsys):
    # (a, b, c, d) = (0, 5, 1, 4) is the first zero of (b+c-2d+2)_{a+2d-2}
    code, out, err = run(capsys, "verify", "p1md", "--dmax", "4")
    assert code == PASS and err == ""
    by_name = {ch["name"]: ch for ch in json.loads(out)["checks"]}
    assert by_name["p1md_polynomial"]["cases"] == 495
    assert by_name["p1md_sum"]["cases"] == 500
    assert all(not ch["failures"] for ch in by_name.values())
    code, out, _ = run(capsys, "verify", "all", "--dmax", "4")
    assert code == PASS and json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ("--d", "2", "--degree", "-1"),
    ("--d", "0"),
    ("--d", "-1"),
])
def test_fit_bad_depth_or_degree_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "q.json"
    code, out, err = run(capsys, "fit", *argv, "--out", str(target))
    assert code == USAGE
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "prefactor_P" not in err and "Newton" not in err
    assert not target.exists()
