"""Ground truth for the determinant engine, from code that builds no LGV matrix.

`signed_count` sums the signed vertex-disjoint path families by a
transfer-matrix sweep over the antidiagonals x + y = t: a state is the
occupied vertices as one int bitmask, and a family's sign comes from the
live paths each source and sink passes on its side.  It reads only the path
endpoints (`hexmodel.endpoints`), never `lgv`, `detkernel` or the binomials.
Each antidiagonal costs one pass over the states per occupied column, one
bit test per move, so a fixed number of paths takes polynomial time.
`count_families` runs the same sweep unsigned and for the identity
assignment alone.  `region_count` shares not even the endpoints: it counts
the tilings of the free unit triangles as the determinant of their
adjacency matrix, with `detkernel.det_bareiss` its one shared piece.
`first_tiling` finds one witness family without counting, as a maximum
flow through the same endpoints by augmenting paths, and
`reconstruct_tiling` and `render_svg` turn it into a lozenge tiling.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import gt, or_
from typing import NamedTuple, Optional

from .detkernel import det_bareiss
from .hexmodel import EVEN, HexSpec, endpoints

PATH_CAP = 10**6
SIGNED, UNSIGNED, IDENTITY = "signed", "unsigned", "identity"
SCALE = 40  # px per lattice unit
_SQ3 = 3**0.5


class CapExceededError(RuntimeError):
    """A sweep would hold more than PATH_CAP states on one antidiagonal."""


class Point(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class MonotonePath:
    points: tuple

    def __post_init__(self):
        for q, r in zip(self.points, self.points[1:]):
            if (r.x - q.x, r.y - q.y) not in ((1, 0), (0, 1)):
                raise ValueError("steps must be +(1,0) or +(0,1)")

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]


@dataclass(frozen=True)
class PathFamily:
    sigma: tuple
    paths: tuple


def _sweep(spec: HexSpec, mode: str) -> int:
    """Sum over vertex-disjoint path families, swept over antidiagonals x + y = t.

    Disjoint unit-step paths keep their order on every antidiagonal, so a
    state is one int: bit x + off is set where a live path sits, off = -min x
    over the endpoints.  IDENTITY packs the source labels of the live paths,
    in x order, above those bits and rejects a sink reached by another label;
    SIGNED and UNSIGNED keep no labels.  A step to t moves each path on x to
    x or x + 1, one pass per occupied column x, the rightmost first, in place:
    a pass reads only the states with bit x set, and such a state keeps its
    weight if x can still reach a sink, is dropped if not, and adds its weight
    to the state with the path on x + 1 if x + 1 can reach a sink and its bit
    is clear (a path there has already moved on).  Each move is one bit test,
    and a pass at most doubles the states, so PATH_CAP is checked after each.
    The step then joins the sources at t in label order and ends the path on
    each sink at t.

    SIGNED weighs a family by the sign of its source-to-sink permutation, the
    product of the sign of the arrival order of the source labels (by t, then
    label), that of the departure order of the sink labels, and -1 for each
    live path to the right of a source as it joins and to the left of a
    sink's path as it ends.  Two paths live together keep their order, so by
    that last rule they give 1 (mod 2) exactly when the later arrival leaves
    first, which is their inversion in arrival order against departure order;
    paths never live together give 0 and leave in arrival order.
    """
    starts, ends = endpoints(spec.a, spec.b, spec.c, spec.d, spec.p, spec.parity)
    n = len(starts)
    if len(set(starts)) < n or len(set(ends)) < n:
        return 0  # two paths would share an endpoint
    if n == 0:
        return 1
    xs = [x for x, _ in starts + ends]
    off = -min(xs)
    width = max(xs) + off + 1  # IDENTITY's labels sit above
    size = n.bit_length()  # bits per label
    arrive, leave = [x + y for x, y in starts], [x + y for x, y in ends]
    events: dict = {}  # t -> (bit, label, joins), the sources before the sinks
    for i, (x, _) in enumerate(starts):
        events.setdefault(arrive[i], []).append((1 << x + off, i, True))
    for j, (x, _) in enumerate(ends):
        events.setdefault(leave[j], []).append((1 << x + off, j, False))
    first, last = min(events), max(events)
    if not events[first][0][2]:
        return 0  # a sink before every source
    # the arrival order of the source labels and the departure order of the
    # sinks' are by t, then label: an inversion is a label pair out of t order
    inversions = sum(sum(itertools.starmap(gt, itertools.combinations(line, 2)))
                     for line in (arrive, leave))
    # the sink at (x, y) is reachable from antidiagonal t <= x + y on the
    # columns t - y..x; the masks sit `lift` bits up, where t - y + off + lift
    # >= 0 for every t and y (as y <= last + off), and the shift drops the
    # columns below the lowest endpoint's
    lift = last - first
    reach = [(due, 2 << x + off + lift, 1 << last - y + off) for due, (x, y) in zip(leave, ends)]
    states = {0: -1 if mode == SIGNED and inversions & 1 else 1}
    for t in range(first, last + 1):
        allowed = 0  # bits of the x from which a sink at t or later is reachable
        for due, top, low in reach:
            if due >= t:
                allowed |= top - (low << t - first)
        allowed >>= lift
        occupied = reduce(or_, states, 0) & (1 << width) - 1
        while occupied:  # each occupied column x, the rightmost first
            bit = 1 << occupied.bit_length() - 1
            occupied ^= bit
            stay, step = bit & allowed, bit << 1 & allowed
            if stay and not step:
                continue  # every path on x stays there
            moving = [m for m in states if m & bit]
            if not step:
                for m in moving:
                    del states[m]
            elif stay:
                for m in moving:
                    if not m & step:  # x + 1 is free: its path has moved on
                        states[m + bit] = states.get(m + bit, 0) + states[m]
            else:
                for m in moving:
                    w = states.pop(m)
                    if not m & step:
                        states[m + bit] = states.get(m + bit, 0) + w
            if len(states) > PATH_CAP:
                raise CapExceededError(f"more than {PATH_CAP} sweep states on one antidiagonal")
        here = events.get(t)
        if not here:
            continue
        settled: dict = {}
        for m, w in states.items():
            for bit, label, joins in here:
                if bool(m & bit) == joins:
                    break  # a source on a live path, or a sink with none
                if mode == SIGNED:
                    if (m & (-bit if joins else bit - 1)).bit_count() & 1:
                        w = -w
                elif mode == IDENTITY:
                    shift = width + size * (m & bit - 1).bit_count()
                    labels, kept = m >> shift, m & (1 << shift) - 1
                    if joins:
                        m = kept | (labels << size | label) << shift
                    elif labels & (1 << size) - 1 == label:
                        m = kept | labels >> size << shift
                    else:
                        break  # the sink's path started at another source
                m ^= bit
            else:
                settled[m] = settled.get(m, 0) + w
        if not settled:
            return 0
        states = settled
    return states[0]


def signed_count(spec: HexSpec) -> int:
    """LGV sum over vertex-disjoint path families; equals the determinant.

    Computed by a transfer-matrix sweep that reads only the path endpoints
    (`hexmodel.endpoints`), never the determinant code.  PATH_CAP bounds
    the live states on one antidiagonal; past it, CapExceededError.  An odd
    needle that leaves the hexagon gives 0 here and in the determinant; that
    0 is the library's count, not the tiling count of the clipped region.
    """
    return _sweep(spec, SIGNED)


def count_families(spec: HexSpec):
    """(total disjoint families, families realizing the identity assignment)."""
    return _sweep(spec, UNSIGNED), _sweep(spec, IDENTITY)


def first_tiling(spec: HexSpec) -> Optional[PathFamily]:
    """One vertex-disjoint family, or None when none exists.

    By Menger's theorem a family is a flow of value n from the starts to the
    ends that passes each vertex at most once (Ford and Fulkerson, "Flows in
    Networks", 1962).  The unit edges join (vertex, side) states: side 0
    enters a vertex and side 1 leaves it, side -1 feeds a start and side 2
    drains an end.  Each round, a breadth-first search of the residual graph
    joins a free start to a free end, and flipping the edges along that path
    adds one path to the family; a round that finds none proves there is no
    family.  Steps go right or up, so the search goes no further right or up
    than the ends.  Any assignment will do: some odd specs have families but
    none with the identity assignment.
    """
    starts, ends = endpoints(spec.a, spec.b, spec.c, spec.d, spec.p, spec.parity)
    n = len(starts)
    if len(set(starts)) < n or len(set(ends)) < n:
        return None  # two paths would share an endpoint
    sink = {e: j for j, e in enumerate(ends)}
    xmax, ymax = max((x for x, _ in ends), default=0), max((y for _, y in ends), default=0)
    flow: set = set()  # the edges (state, state) that carry a path
    for _ in range(n):
        parent = {(x, y, -1): None for x, y in starts}
        queue = deque(parent)
        while queue:
            state = queue.popleft()
            x, y, side = state
            if side == 2:
                break
            if side == 1:
                ahead = [(x + 1, y, 0)] if x < xmax else []
                ahead += [(x, y + 1, 0)] if y < ymax else []
                ahead += [(x, y, 2)] if (x, y) in sink else []
                behind = [(x, y, 0)]
            else:  # every side -1 is a root, so none is a step back
                ahead = [(x, y, side + 1)]
                behind = [(x - 1, y, 1), (x, y - 1, 1)] if side == 0 else []
            steps = [w for w in ahead if (state, w) not in flow]
            steps += [w for w in behind if (w, state) in flow]
            for step in steps:
                if step not in parent:
                    parent[step] = state
                    queue.append(step)
        else:
            return None
        while parent[state] is not None:  # a step against the flow cancels it
            edge = (parent[state], state)
            flow ^= {edge[::-1] if edge[::-1] in flow else edge}
            state = edge[0]
    nxt = {u[:2]: v[:2] for u, v in flow if (u[2], v[2]) == (1, 0)}
    points = [[s] for s in starts]
    for pts in points:
        while pts[-1] in nxt:
            pts.append(nxt[pts[-1]])
    return PathFamily(
        sigma=tuple(sink[pts[-1]] for pts in points),
        paths=tuple(MonotonePath(points=tuple(Point(*v) for v in pts)) for pts in points),
    )


# --- geometry on the triangular lattice --------------------------------------
#
# Oblique vertex (m,n) sits at real (m + n/2, n*sqrt(3)/2).  U(m,n) is the
# upward triangle with vertices (m,n),(m+1,n),(m,n+1); D(m,n) the downward
# one with (m+1,n),(m,n+1),(m+1,n+1).


def intrusion_triangles(spec: HexSpec) -> list:
    """The 2d unit triangles removed by the intrusion.

    Some may fall outside the hexagon.  An even needle then does less damage,
    or none at all.  For an odd needle the library's count stays the LGV
    determinant, which is 0 there; it is not the tiling count of the region
    clipped to the hexagon, which can be positive.
    """
    a, d, p = spec.a, spec.d, spec.p
    if d == 0:
        return []
    out = []
    if spec.parity == EVEN:
        for k in range(d):
            out.append(("D", (a - p - 1 - k, 2 * k)))
            out.append(("U", (a - p - 1 - k, 2 * k + 1)))
    else:
        out.append(("U", (a - p - 1, 0)))
        for k in range(1, d):
            out.append(("D", (a - p - 1 - k, 2 * k - 1)))
            out.append(("U", (a - p - 1 - k, 2 * k)))
        out.append(("D", (a - p - 1 - d, 2 * d - 1)))
    return out


def _inside(spec, tri):
    kind, (m, n) = tri
    k = m + n + (kind == "D")  # its corners lie on the diagonals m + n = k, k + 1
    a, b, c = spec.a, spec.b, spec.c
    return -c <= m and m + 1 <= a and 0 <= n and n + 1 <= b + c and k >= 0 and k + 1 <= a + b


def _tri_corners(tri):
    kind, (m, n) = tri
    if kind == "U":
        return [(m, n), (m + 1, n), (m, n + 1)]
    return [(m + 1, n), (m + 1, n + 1), (m, n + 1)]


def _free_triangles(spec: HexSpec) -> set:
    """The unit triangles of the hexagon that the intrusion leaves free."""
    cells = itertools.product(range(-spec.c, spec.a), range(spec.b + spec.c))
    free = {tri for tri in itertools.product("UD", cells) if _inside(spec, tri)}
    return free.difference(intrusion_triangles(spec))


def region_count(spec: HexSpec) -> int:
    """Lozenge tilings of the free triangles: |det| of their adjacency matrix.

    Rows are the free up triangles, columns the free down ones, and an entry
    is 1 where the two share an edge.  The needle touches the hexagon's
    boundary, so the region has no holes and every inner face of the
    adjacency graph is a hexagon; then the all-ones weighting is a Kasteleyn
    signing, and |det| counts perfect matchings, that is tilings (Kasteleyn,
    Physica 27, 1961; Kenyon, "Lectures on dimers", 2009).  It reads only the
    triangle geometry, neither `endpoints` nor the path sweep.  Where an odd
    needle leaves the hexagon, this is the clipped region's count, which can
    be positive while the determinant is 0.
    """
    free = _free_triangles(spec)
    # row by row (n, then m), so that neighbours stay near the diagonal
    ups = sorted((n, m) for kind, (m, n) in free if kind == "U")
    downs = sorted((n, m) for kind, (m, n) in free if kind == "D")
    if len(ups) != len(downs):
        return 0
    column = {(m, n): k for k, (n, m) in enumerate(downs)}
    matrix = []
    for n, m in ups:
        row = [0] * len(downs)
        # the down triangles across its right, left and bottom edges
        for mate in ((m, n), (m - 1, n), (m, n - 1)):
            if mate in column:
                row[column[mate]] = 1
        matrix.append(row)
    return abs(det_bareiss(matrix))


def reconstruct_tiling(spec: HexSpec, family: PathFamily):
    """Lozenges (as triangle pairs) of the tiling encoded by a path family.

    Each unit path step crosses one lozenge; vertical lozenges fill whatever
    remains.  Raises if the result is not a perfect partition of the
    undamaged region, which would mean the family does not encode a tiling.
    """
    a = spec.a
    free = _free_triangles(spec)

    def take(tri):
        if tri not in free:
            raise ValueError(f"triangle {tri} not available; family is not a tiling")
        free.remove(tri)

    lozenges = []
    for path in family.paths:
        for q, r in zip(path.points, path.points[1:]):
            m, n = a - 1 - q.y, q.x + q.y
            if r.x == q.x + 1:
                pair = (("U", (m, n)), ("D", (m, n)), "right")
            else:
                pair = (("U", (m, n)), ("D", (m - 1, n)), "up")
            take(pair[0])
            take(pair[1])
            lozenges.append(pair)
    for tri in sorted(t for t in free if t[0] == "U"):
        m, n = tri[1]
        mate = ("D", (m, n - 1))
        take(tri)
        take(mate)
        lozenges.append((tri, mate, "vertical"))
    if free:
        raise ValueError(f"triangles left uncovered: {sorted(free)}")
    return lozenges


def _hex_outline(spec: HexSpec):
    a, b, c = spec.a, spec.b, spec.c
    return [(0, 0), (a, 0), (a, b), (a - c, b + c), (-c, b + c), (-c, c)]


def render_svg(spec: HexSpec, family: Optional[PathFamily] = None) -> str:
    """SVG 1.1 drawing of the hexagon, intrusion, and optional tiling."""
    marks = intrusion_triangles(spec)
    pts = _hex_outline(spec) + [v for t in marks for v in _tri_corners(t)]
    real = [(m + n / 2, n * _SQ3 / 2) for (m, n) in pts]
    xmin = min(x for x, _ in real) - 0.5
    xmax = max(x for x, _ in real) + 0.5
    ymin = min(y for _, y in real) - 0.5
    ymax = max(y for _, y in real) + 0.5

    def xy(m, n):
        x, y = m + n / 2, n * _SQ3 / 2
        return (SCALE * (x - xmin), SCALE * (ymax - y))

    def poly(corners, fill, stroke="#333", width=1.5):
        spts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (xy(m, n) for m, n in corners))
        return f'<polygon points="{spts}" fill="{fill}" stroke="{stroke}" stroke-width="{width}"/>'

    w, h = SCALE * (xmax - xmin), SCALE * (ymax - ymin)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w:.0f}" height="{h:.0f}" viewBox="0 0 {w:.2f} {h:.2f}">'
    ]
    fills = {"right": "#b3cde3", "up": "#ccebc5", "vertical": "#fbb4ae"}
    if family is not None:
        for t1, t2, kind in reconstruct_tiling(spec, family):
            c1, c2 = _tri_corners(t1), _tri_corners(t2)
            # the two triangles share the edge s1 s2; u1 and u2 are their far corners
            s1, s2 = (v for v in c1 if v in c2)
            (u1,), (u2,) = [v for v in c1 if v not in c2], [v for v in c2 if v not in c1]
            out.append(poly([u1, s1, u2, s2], fills[kind]))
    for t in marks:
        out.append(poly(_tri_corners(t), "#de2d26", stroke="#a50f15"))
    out.append(poly(_hex_outline(spec), "none", stroke="#000", width=3.0))
    out.append("</svg>")
    return "\n".join(out)
