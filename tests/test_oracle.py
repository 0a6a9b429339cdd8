"""The swept signed family count, the flow witnesses, and SVG output."""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexatile import oracle
from hexatile.hexmodel import EVEN, ODD, HexSpec, endpoints
from hexatile.lgv import even_count, odd_count, path_matrix
from hexatile.oracle import (
    CapExceededError,
    Point,
    _inside,
    count_families,
    first_tiling,
    intrusion_triangles,
    reconstruct_tiling,
    region_count,
    render_svg,
    signed_count,
)


def _ends(spec):
    return endpoints(spec.a, spec.b, spec.c, spec.d, spec.p, spec.parity)


def _monotone_paths(frm, to):
    """Every monotone path frm -> to, as a tuple of points, by brute force."""
    if (frm.x, frm.y) == (to.x, to.y):
        return [(frm,)]
    out = []
    for step in (Point(frm.x + 1, frm.y), Point(frm.x, frm.y + 1)):
        if step.x <= to.x and step.y <= to.y:
            out.extend((frm,) + rest for rest in _monotone_paths(step, to))
    return out


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_enumeration_length_equals_path_count(dx, dy):
    # the one lateral path of a = 1, d = 0 runs from (0, 0) to (b, c)
    frm, to = Point(0, 0), Point(dx, dy)
    assert len(_monotone_paths(frm, to)) == path_matrix(1, dx, dy, 0, 0, EVEN)[0][0]


def test_signed_count_examples():
    assert signed_count(HexSpec(2, 2, 2, 0, 0, EVEN)) == 20
    assert signed_count(HexSpec(1, 2, 2, 1, 0, EVEN)) == 3
    assert signed_count(HexSpec(4, 5, 3, 3, 3, ODD)) == -8008
    assert signed_count(HexSpec(4, 5, 3, 3, 3, ODD)) == odd_count(4, 5, 3, 3, 3).value
    assert signed_count(HexSpec(6, 3, 3, 2, 3, EVEN)) == even_count(6, 3, 3, 2, 3).value == 3000


def _inversions(sigma):
    return sum(i > j for i, j in itertools.combinations(sigma, 2))


def test_sweep_matches_brute_force_families():
    # every vertex-disjoint family, enumerated path by path with no determinant:
    # a + d <= 3, b, c <= 2, p in -d-1..a+d+1, both parities
    cases = 0
    for a, d, b, c in itertools.product(range(4), range(4), range(3), range(3)):
        if a + d > 3:
            continue
        for p, parity in itertools.product(range(-d - 1, a + d + 2), (EVEN, ODD)):
            spec = HexSpec(a, b, c, d, p, parity)
            starts, ends = _ends(spec)
            signed = total = identity = 0
            for sigma in itertools.permutations(range(len(starts))):
                choices = [_monotone_paths(Point(*starts[i]), Point(*ends[j]))
                           for i, j in enumerate(sigma)]
                for family in itertools.product(*choices):
                    if len(set().union(*family)) == sum(map(len, family)):
                        signed += (-1) ** _inversions(sigma)
                        total += 1
                        identity += sigma == tuple(range(len(sigma)))
            assert signed_count(spec) == signed, spec
            assert count_families(spec) == (total, identity), spec
            cases += 1
    assert cases == 1080


def test_even_families_realize_only_identity():
    # all vertex-disjoint families use the identity endpoint assignment, on
    # the even specs of test_first_tiling_exists_iff_families_exist's grid
    cases = 0
    for a, b, c, d in itertools.product(range(5), range(5), range(5), range(3)):
        for p in range(-1, a + 2):
            spec = HexSpec(a, b, c, d, p, EVEN)
            total, identity_only = count_families(spec)
            assert total == identity_only == even_count(a, b, c, d, p).value, spec
            cases += 1
    assert cases == 1875


def test_count_families_with_other_assignments():
    # the odd families all realize non-identity assignments
    assert count_families(HexSpec(4, 5, 3, 3, 3, ODD)) == (8008, 0)
    assert count_families(HexSpec(2, 3, 3, 2, 0, ODD)) == (23, 0)
    assert signed_count(HexSpec(2, 3, 3, 2, 0, ODD)) == 23


def test_signed_count_matches_determinant_on_small_grid():
    for a in range(0, 4):
        for d in range(0, 3):
            for b in range(1, 4):
                for c in range(1, 4):
                    for p in range(-1, a + 2):
                        even = HexSpec(a, b, c, d, p, EVEN)
                        assert signed_count(even) == even_count(a, b, c, d, p).value, even
                        odd = HexSpec(a, b, c, d, p, ODD)
                        assert signed_count(odd) == odd_count(a, b, c, d, p).value, odd


def test_signed_count_matches_determinant_on_wide_grid():
    # criterion 02's grid widened to a + d <= 7 and b, c <= 5: 11100 specs
    cases = 0
    for a in range(0, 8):
        for d in range(0, 8 - a):
            for b in range(1, 6):
                for c in range(1, 6):
                    for p in range(-d, a + d + 1):
                        even = HexSpec(a, b, c, d, p, EVEN)
                        assert signed_count(even) == even_count(a, b, c, d, p).value, even
                        cases += 1
                    for p in range(0, a + 2):
                        odd = HexSpec(a, b, c, d, p, ODD)
                        assert signed_count(odd) == odd_count(a, b, c, d, p).value, odd
                        cases += 1
    assert cases == 11100


def test_sweep_matches_determinant_on_long_line_shapes():
    # eight to eleven paths, past the wide grid; the shapes of CI's sweep step,
    # where many live paths share each antidiagonal
    for a, b, c, d, p in ((8, 6, 6, 0, 0), (10, 5, 5, 1, 5), (6, 6, 6, 2, 3)):
        spec = HexSpec(a, b, c, d, p, EVEN)
        value = even_count(a, b, c, d, p).value
        assert signed_count(spec) == value, spec
        assert count_families(spec) == (value, value), spec  # every family is the identity's
    spec = HexSpec(5, 6, 6, 3, 2, ODD)
    value = odd_count(5, 6, 6, 3, 2).value
    assert value < 0
    assert signed_count(spec) == value
    assert count_families(spec) == (-value, 0)  # no family is the identity's


def _endpoints_coincide(spec):
    """Some endpoint is shared beyond the pairs every spec of its parity shares."""
    starts, ends = _ends(spec)
    lateral = starts[: spec.a] + ends[: spec.a]
    intrusive = set(starts[spec.a:]) | set(ends[spec.a:])
    return len(set(lateral)) < len(lateral) or bool(set(lateral) & intrusive)


COINCIDENT = [
    spec
    for a, b, c, d in itertools.product(range(5), range(5), range(5), range(4))
    for p in range(-4, a + 5)
    for spec in (HexSpec(a, b, c, d, p, EVEN), HexSpec(a, b, c, d, p, ODD))
    if _endpoints_coincide(spec)
]


@st.composite
def formal_specs(draw):
    """Flat hexagons (b or c = 0), odd specs with a = 0, coincident endpoints."""
    kind = draw(st.sampled_from(["flat", "odd_a0", "coincident"]))
    if kind == "coincident":
        return draw(st.sampled_from(COINCIDENT))
    a = 0 if kind == "odd_a0" else draw(st.integers(0, 4))
    b, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if kind == "flat":
        b, c = (0, c) if draw(st.booleans()) else (b, 0)
    parity = ODD if kind == "odd_a0" else draw(st.sampled_from([EVEN, ODD]))
    return HexSpec(a, b, c, draw(st.integers(0, 3)), draw(st.integers(-4, a + 4)), parity)


@given(formal_specs())
@settings(max_examples=300, deadline=None)
def test_sweep_matches_determinant_on_formal_edge_cases(spec):
    count = even_count if spec.parity == EVEN else odd_count
    assert signed_count(spec) == count(spec.a, spec.b, spec.c, spec.d, spec.p).value


def _leaves_hexagon(spec):
    return not all(_inside(spec, tri) for tri in intrusion_triangles(spec))


def test_odd_needle_leaving_the_hexagon_counts_zero():
    # the library's count is the determinant (0), not the clipped region's tilings
    spec = HexSpec(2, 3, 3, 1, 2, ODD)
    assert not _inside(spec, ("U", (-1, 0)))
    assert ("U", (-1, 0)) in intrusion_triangles(spec)
    assert signed_count(spec) == odd_count(2, 3, 3, 1, 2).value == 0
    # here the clipped region has tilings too
    spec = HexSpec(1, 1, 2, 1, 2, ODD)
    assert _leaves_hexagon(spec)
    assert region_count(spec) == 3
    assert signed_count(spec) == odd_count(1, 1, 2, 1, 2).value == 0


def test_region_count_matches_determinant():
    # 3750 specs: a <= 4, b, c <= 4, d <= 2, p in -1..a+1, both parities;
    # odd needles that leave the hexagon are not counted by the determinant
    equal = skipped = 0
    for a, b, c, d in itertools.product(range(5), range(5), range(5), range(3)):
        for p in range(-1, a + 2):
            for parity in (EVEN, ODD):
                spec = HexSpec(a, b, c, d, p, parity)
                if parity == ODD and _leaves_hexagon(spec):
                    skipped += 1
                    continue
                count = even_count if parity == EVEN else odd_count
                assert region_count(spec) == count(a, b, c, d, p).tilings, spec
                equal += 1
    assert (equal, skipped) == (2816, 934)
    # a 336 x 336 adjacency matrix
    assert region_count(HexSpec(12, 10, 10, 4, 6, EVEN)) == even_count(12, 10, 10, 4, 6).value


def test_sweep_state_cap(monkeypatch):
    monkeypatch.setattr(oracle, "PATH_CAP", 5)
    spec = HexSpec(6, 3, 3, 2, 3, EVEN)
    with pytest.raises(CapExceededError):
        signed_count(spec)
    with pytest.raises(CapExceededError):
        count_families(spec)


def test_first_tiling_exists_for_damage_free():
    family = first_tiling(HexSpec(2, 2, 2, 0, 0, EVEN))
    assert family is not None
    assert len(family.paths) == 2


def test_first_tiling_none_when_count_zero():
    # odd intrusions only fit at positions 0..a-1
    assert first_tiling(HexSpec(2, 3, 3, 1, 2, ODD)) is None
    assert first_tiling(HexSpec(3, 2, 4, 2, -1, ODD)) is None


def test_first_tiling_hexc_instance():
    family = first_tiling(HexSpec(4, 5, 3, 2, 4, EVEN))
    assert family is not None
    assert len(family.paths) == 6
    zero_length = [p for p in family.paths if len(p.points) == 1]
    assert len(zero_length) == 2


def _assert_witness(spec, family):
    """family joins start i to end sigma[i] by disjoint paths and is a tiling."""
    starts, ends = _ends(spec)
    assert len(family.paths) == len(starts)
    assert sorted(family.sigma) == list(range(len(starts)))
    seen = set()
    for i, (j, path) in enumerate(zip(family.sigma, family.paths)):
        assert path.start == starts[i] and path.end == ends[j]
        assert seen.isdisjoint(path.points)
        seen.update(path.points)
    reconstruct_tiling(spec, family)


def test_first_tiling_exists_iff_families_exist():
    # 3750 specs: a <= 4, b, c <= 4, d <= 2, p in -1..a+1, both parities
    cases = found = 0
    for a, b, c, d in itertools.product(range(5), range(5), range(5), range(3)):
        for p in range(-1, a + 2):
            for parity in (EVEN, ODD):
                spec = HexSpec(a, b, c, d, p, parity)
                family = first_tiling(spec)
                assert (family is not None) == (count_families(spec)[0] > 0), spec
                if family is not None:
                    _assert_witness(spec, family)
                    found += 1
                cases += 1
    assert cases == 3750
    assert found > 0


def test_first_tiling_odd_witness_is_not_identity():
    # every family of this spec realizes a non-identity assignment
    spec = HexSpec(4, 5, 3, 3, 3, ODD)
    family = first_tiling(spec)
    assert family is not None
    assert family.sigma != tuple(range(len(family.sigma)))
    _assert_witness(spec, family)


def test_first_tiling_has_no_size_cap():
    # the counting sweep keeps over 10**6 states on one antidiagonal here
    spec = HexSpec(12, 12, 12, 3, 5, EVEN)
    t0 = time.perf_counter()
    family = first_tiling(spec)
    elapsed = time.perf_counter() - t0
    assert family is not None
    _assert_witness(spec, family)
    assert elapsed < 0.5
    assert first_tiling(spec) == family


def test_first_tiling_is_the_same_in_another_process():
    spec = HexSpec(8, 8, 8, 3, 3, ODD)
    code = ("from hexatile.hexmodel import HexSpec; from hexatile.oracle import first_tiling; "
            f"print(repr(first_tiling({spec!r})))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == repr(first_tiling(spec)) + "\n"


INTRUSION_FILL = "#de2d26"
LOZENGE_FILLS = ("#b3cde3", "#ccebc5", "#fbb4ae")


def test_render_svg_structure():
    spec = HexSpec(3, 4, 5, 1, 0, EVEN)
    svg = render_svg(spec)
    assert svg.startswith("<svg")
    assert "</svg>" in svg
    assert svg == render_svg(spec)  # deterministic
    assert svg.count(INTRUSION_FILL) == 2 * spec.d


def test_render_svg_no_intrusion_markers_for_d0():
    svg = render_svg(HexSpec(3, 4, 5, 0, 0, EVEN))
    assert INTRUSION_FILL not in svg


def test_render_svg_with_tiling_draws_all_lozenges():
    spec = HexSpec(2, 2, 2, 1, 1, EVEN)
    family = first_tiling(spec)
    assert family is not None
    svg = render_svg(spec, family)
    a, b, c, d = spec.a, spec.b, spec.c, spec.d
    total_triangles = 2 * (a * b + b * c + c * a)
    lozenges = sum(svg.count(f'fill="{fill}"') for fill in LOZENGE_FILLS)
    assert lozenges == (total_triangles - 2 * d) // 2
