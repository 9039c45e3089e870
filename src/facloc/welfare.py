"""Welfare evaluation, exact small-instance optima, and ratio reports.

The optimum oracle enumerates set partitions of the agents into at most m
groups and places each group's facility at that group's exact 1-facility
optimum.  Under nearest-facility assignment some optimal solution always
splits the agents this way, so the minimum over partitions is the true
optimum.  The full enumeration is exponential and refuses instances with
more than PARTITION_ORACLE_MAX_AGENTS agents rather than silently crawling.

Two facilities on 2-d Euclidean profiles need far fewer candidates.  The
agents nearer one facility than the other lie on one side of the two
facilities' perpendicular bisector, and those on it can all join one side,
so some optimal partition is separated by a line, for the total and the max
objective alike (the planar 2-median / 2-centre argument).  Those O(n^2)
line splits are enumerated instead, up to LINE_SPLIT_MAX_AGENTS agents.
Manhattan bisectors are not lines.  Under the max objective, though,
(x + y, x - y) turns Manhattan balls into axis-parallel squares, and some
optimal pair of squares sits at opposite corners of the agents' bounding
box there (Drezner 1987; Sharir and Welzl 1996).  So two Manhattan
facilities under the max search the corner splits, up to
LINE_SPLIT_MAX_AGENTS agents too: the one-block partition and every prefix,
with its complement, of the agents ranked by their need toward the first
corner of either diagonal, 2n - 1 candidates at most (optimal_welfare
gives the proof).  The Manhattan total, other dimensions and m >= 3
search every partition, under the branch and bound below.

The profile is validated once, when it is built, and the oracles build
their solutions with Solution._trusted from kernel centres that
_require_finite passed.  approximation_ratio checks its spec and
objective once and builds no Solution for the mechanism or the
one-facility optimum: it folds the nearest costs of the mechanism's
locations (_nearest_costs, the one nearest-cost helper, which the
refuters share) and takes the optimum from _one_facility_optimum, the
core of optimal_welfare's m = 1 case.  evaluate checks each location's
dimension once and then measures with geometry._metric_distance, the
float operations of geometry.distance without its per-call check; the
oracle's group costs use the same helper.  Each candidate is a tuple of block bitmasks.  A
block's points are read off its mask in the agents' lexicographic order,
sorted once per call, and solved by the geometry cores, which do not
check their input again; each block's answer is cached by its mask.  Of
candidates with equal (value, facility tuple) the one whose
restricted-growth labels in index order come first wins (_growth_labels),
so that order decides ties.

All three searches are a branch and bound on a lower bound per group,
which calls no kernel.  Manhattan distance is the larger coordinate difference in
(x + y, x - y), so a Manhattan group's optimum has a closed form: under the
max objective half its larger range there, and under the total the sum
over the axes of its deviations from its median on that axis.  Both grow
by one agent in O(dim): the extremes in (x + y, x - y) take the agent in,
and an agent raises a group's optimal total by exactly its distance to
the group's median box, which spans the lower to the upper median on each
axis.  Either bound lies within a few roundings of the value the kernels
compute, on both sides.  A Euclidean group's bound comes from
pairwise distances alone: half its longest pair under the max objective,
and under the total a greedy matching of its pairs, since
d(i, c) + d(j, c) >= d(i, j) for every centre c.  That bound never exceeds
the group's true optimum, however inexact the geometric median or the
enclosing circle is, and every value the oracle computes is a real cost at
some point, so never below it.  The partitions are walked depth first,
placing the agents farthest from their mean first (L1 distance, ties
toward the lower index), so outliers' groups raise the bounds early.  The
walk cuts a subtree once its partial groups' bounds, summed or maxed as
the objective folds them, exceed the best partition found, up to a
rounding slack (1e-12 relative plus 64 ulp of the largest coordinate,
derived in optimal_welfare): a group's optimal cost never drops when an
agent joins it.  The walk keeps one root-to-leaf path in place, one list
each of its blocks' masks, states and bounds; a child changes the entry
of the block it grows, or opens one, and puts it back after its subtree.
So a node costs a fold of at most m floats and one growth step, that of
the block it changed: a Manhattan block grows its parent's state by the
new agent, and a Euclidean one reads its bound off a cache by mask.  The
first cutoff is the best split of an axis' sorted order into a prefix and
a suffix; on Manhattan profiles one sweep of the same growth step each
way along the axis gives every prefix's and suffix's bound.  The line and
corner splits are ranked by the fold of their two groups' bounds, the
corner splits' read off the same sweeps along each corner order, and
under the max a line split's in one scan of the pairs (_split_bound);
they are walked lowest first, up to the first that exceeds the best
found.  A cut partition cannot equal the winner, and
ties are compared on (value, facility tuple, restricted-growth labels)
whatever the walk order, so the winner and its tie-break stay those of an
unbounded scan of the partitions searched.  The kernels solve only the
groups of partitions that reach the cutoff.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .geometry import (
    Metric,
    OracleCapError,
    Point,
    _ROTATED_EXP,
    _coordinate_median,
    _enclosing_circle,
    _geometric_median,
    _manhattan_centre,
    _metric_distance,
    as_point,
    distance,
)
from .mechanisms import (
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    Solution,
    _placement,
    _require_finite,
)

PARTITION_ORACLE_MAX_AGENTS = 10
LINE_SPLIT_MAX_AGENTS = 30

# Shewchuk's orient2d error bound (3 + 16 eps) eps, plus two subnormal
# steps for products that underflow: a float determinant beyond it has the
# sign of the exact one.
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_UNDERFLOW = 2.0**-1073


class WelfareObjective(enum.Enum):
    TOTAL = "total"
    MAX = "max"


def _agent_costs(profile: AgentProfile, solution: Solution) -> list[float]:
    """Agent i's cost: the distance to the facility assignment[i] points at
    (the assigned one, not necessarily the nearest), in the profile metric."""
    if len(solution.assignment) != profile.n:
        raise ValueError(
            f"assignment covers {len(solution.assignment)} agents, profile has {profile.n}"
        )
    # the dimensions are checked once per location, not once per agent
    locations, dim = solution.locations, profile.dim
    for loc in locations:
        if len(loc) != dim:
            raise ValueError(f"dimension mismatch: {dim} vs {len(loc)}")
    dist = _metric_distance(profile.metric)
    if len(locations) == 1:
        loc = locations[0]
        return [dist(agent, loc) for agent in profile.agents]
    return [dist(agent, locations[j - 1]) for agent, j in zip(profile.agents, solution.assignment)]


def _nearest_costs(
    profile: AgentProfile, locations: Sequence[Point]
) -> Iterator[float]:
    """Each agent's distance to its nearest location.  The locations are
    points of the profile's dimension, built from its points or checked
    where they came in, so they are not checked again per agent.  These
    are the floats _agent_costs gives under nearest-facility assignment:
    geometry.distance, which assign_nearest ranks by, has the float
    operations of _metric_distance."""
    dist = _metric_distance(profile.metric)
    if len(locations) == 1:
        return map(dist, profile.agents, itertools.repeat(locations[0]))
    return (min(dist(agent, loc) for loc in locations) for agent in profile.agents)


def _fold(costs: Iterable[float], objective: WelfareObjective) -> float:
    """The total or the largest of the costs."""
    return sum(costs) if objective is WelfareObjective.TOTAL else max(costs)


def evaluate(
    profile: AgentProfile, solution: Solution, objective: WelfareObjective
) -> float:
    """Welfare of a solution: the total or the largest of its _agent_costs."""
    objective = WelfareObjective(objective)
    return _fold(_agent_costs(profile, solution), objective)


def _finite_welfare(costs: Iterable[float], objective: WelfareObjective, whose: str) -> float:
    """_fold of the costs, refusing a welfare that overflowed the float
    range with OracleCapError: an infinite optimum is no optimum, and a
    ratio of two infinite welfares is NaN."""
    value = _fold(costs, objective)
    if not math.isfinite(value):
        raise OracleCapError(f"{whose} welfare is past the float range")
    return value


@dataclass(frozen=True)
class RatioReport:
    """Mechanism welfare against the exact optimum for one instance."""

    mechanism_welfare: float
    optimal_welfare: float
    ratio: float

    @classmethod
    def from_welfares(cls, mechanism: float, optimal: float) -> "RatioReport":
        if mechanism < 0.0 or optimal < 0.0:
            raise ValueError("welfare values are distances and cannot be negative")
        if optimal > 0.0:
            ratio = mechanism / optimal
        elif mechanism > 0.0:
            # positive cost against a zero-cost optimum: no finite ratio
            ratio = math.inf
        else:
            ratio = 1.0
        return cls(mechanism, optimal, ratio)

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.ratio)


def _require_max_dim(dim: int) -> None:
    """The max objective's one-facility optimum is solved in 1-d and 2-d
    only."""
    if dim > 2:
        raise ValueError("max-distance optimum supports 1-d and 2-d points only")


def _one_facility_centre(
    pts: Sequence[Point], metric: Metric, objective: WelfareObjective
) -> Point:
    """Exact one-facility optimum location for a group of agents, given
    sorted and already validated: the geometry cores do not check them
    again.  The max objective has one in 1-d and 2-d only."""
    if objective is WelfareObjective.TOTAL:
        if metric is Metric.MANHATTAN:
            return _coordinate_median(pts)
        return _geometric_median(pts)
    dim = len(pts[0])
    _require_max_dim(dim)
    if dim == 1:
        return ((pts[0][0] + pts[-1][0]) / 2.0,)
    if metric is Metric.MANHATTAN:
        return _manhattan_centre(pts)
    return _enclosing_circle(pts, 0).center


def _one_facility_optimum(
    profile: AgentProfile, objective: WelfareObjective
) -> tuple[float, Point]:
    """The exact one-facility optimum's welfare and location, for an
    objective already coerced: optimal_welfare's m = 1 case, and
    approximation_ratio's."""
    center = _one_facility_centre(sorted(profile.agents), profile.metric, objective)
    _require_finite((center,))
    return _finite_welfare(_nearest_costs(profile, (center,)), objective, "optimal"), center


# grow(state, agent) is the state of a block grown by one agent, from the
# block's state, or from None for a new block; the block's bound comes first
_Grow = Callable[[tuple | None, int], tuple]


def _partitions(
    n: int,
    max_blocks: int,
    walk: Sequence[int] | None = None,
    grow: _Grow = lambda block, agent: (0.0,),
    fold: Callable[[Sequence[float]], float] = max,
    cutoff: Callable[[], float] = lambda: math.inf,
) -> Iterator[tuple[int, ...]]:
    """Set partitions of range(n) into at most max_blocks groups, each a
    tuple of block bitmasks (bit i of a block is set when agent i is in it)
    ordered by their lowest agent.

    A depth-first walk of the tree whose node at depth d places the first
    d + 1 agents of `walk` (index order by default): the next agent joins
    an earlier block before a later one and opens a new block last.  Each
    set partition is one leaf, whatever the order, and in index order the
    leaves come in restricted-growth order (_growth_labels).  The walk
    holds one root-to-leaf path, never the Bell(n) partitions: one list
    each of the path's block masks, block states and bounds, in the order
    the blocks were opened.  A child changes one entry of each, or opens a
    block at their end, so it grows (_Grow) only the block it changed; it
    folds the bounds before it descends and restores the entry after its
    subtree.  A node whose bounds fold above cutoff() is skipped with its
    whole subtree.  cutoff() is read when the walk starts and again each
    time it resumes after a leaf, so a caller may lower it while it holds a
    leaf.  By default nothing is skipped.  Each leaf is yielded as a new
    tuple, not the walk's lists.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    order = range(n) if walk is None else walk
    first = grow(None, order[0])
    masks, blocks, lows = [1 << order[0]], [first], [first[0]]
    limit = cutoff()

    def descend(placed: int) -> Iterator[tuple[int, ...]]:
        nonlocal limit
        if placed == n:
            yield tuple(sorted(masks, key=lambda mask: mask & -mask))
            limit = cutoff()
            return
        agent = order[placed]
        bit = 1 << agent
        placed += 1
        for b in range(len(masks)):
            mask, block, low = masks[b], blocks[b], lows[b]
            grown = grow(block, agent)
            masks[b], blocks[b], lows[b] = mask | bit, grown, grown[0]
            if not fold(lows) > limit:
                yield from descend(placed)
            masks[b], blocks[b], lows[b] = mask, block, low
        if len(masks) < max_blocks:
            grown = grow(None, agent)
            masks.append(bit)
            blocks.append(grown)
            lows.append(grown[0])
            if not fold(lows) > limit:
                yield from descend(placed)
            masks.pop()
            blocks.pop()
            lows.pop()

    if not fold(lows) > limit:
        yield from descend(1)


def _growth_labels(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """The restricted-growth labels of a partition of range(n), its blocks
    ordered by their lowest agent: agent i's label is the position of its
    block.  Label tuples compare in the order _partitions yields the
    partitions in index order, so they rank ties the same way in every
    search."""
    labels = [0] * n
    for b, mask in enumerate(masks[1:], 1):
        while mask:
            low = mask & -mask
            labels[low.bit_length() - 1] = b
            mask ^= low
    return tuple(labels)


def _orientation(a: Point, b: Point, c: Point) -> int:
    """Exact sign of the cross product (b - a) x (c - a): 1 when c lies left
    of the line from a to b, -1 when right, 0 when on it."""
    left = (a[0] - c[0]) * (b[1] - c[1])
    right = (a[1] - c[1]) * (b[0] - c[0])
    det = left - right
    if abs(det) > _ORIENT_ERRBOUND * (abs(left) + abs(right)) + _ORIENT_UNDERFLOW:
        return 1 if det > 0 else -1
    # exact on integers: every float is num / 2^k, so scaling all six
    # coordinates by the largest denominator keeps them integral
    ratios = [v.as_integer_ratio() for v in (*a, *b, *c)]
    den = max(d for _, d in ratios)
    ax, ay, bx, by, cx, cy = (num * (den // d) for num, d in ratios)
    exact = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (exact > 0) - (exact < 0)


def _line_splits(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """Every bipartition of 2-d points that a line separates, as block
    bitmasks, the side holding agent 0 first, in ascending order of that
    side.

    A separating line can be moved until it passes through two distinct
    points.  The points strictly left of it then form one side, and the
    points on it, in their order along it, split into a prefix and a
    suffix.  Coincident points on the line may land on both sides; those
    few extra splits are still partitions, so the search stays exact.

    The scan reads the coordinates off two lists and keeps each pair's left
    side in a flat n x n list.  A pair with no third point on its line
    gives its four sides directly, the left side with neither, either or
    both of its points: the sides its prefix loop would give, with no sort.
    Only the pairs of collinear triples keep a list of on-line points.

    The order decides no answer of optimal_welfare, which visits the splits
    lowest bound first and stops at the first bound past the cutoff; the
    order only ranks splits of equal bound, and those are all visited or
    all cut.  The cutoff only falls, to above(value) of a visited split,
    and by the slack optimal_welfare derives, above(value) is at least
    that split's bound.  So once the first of a run of equal bounds L is
    visited, the cutoff stays at L or above until the run ends.  The same
    splits are visited, the same groups solved, and the tie rule, not the
    order, picks among them.  Only where two splits of equal bound both
    hold a group whose geometric median fails does the order pick which
    of them raises.
    """
    n = len(points)
    full = (1 << n) - 1
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    # per pair i < j: left[i * n + j], the points left of the line from i
    # to j, and on[i, j], those on it in index order, for the pairs that
    # have any
    left = [0] * (n * n)
    on: dict[tuple[int, int], list[int]] = {}
    # the exact orientation is alternating in its arguments, so one sign
    # per triple i < j < k places k against (i, j), j against (i, k) and i
    # against (j, k); triples come in lexicographic order, so each pair's
    # on-line points are appended in index order
    for i in range(n):
        ax, ay, bit_i, row_i = xs[i], ys[i], 1 << i, i * n
        for j in range(i + 1, n):
            bx, by, bit_j, row_j = xs[j], ys[j], 1 << j, j * n
            left_ij = left[row_i + j]
            for k in range(j + 1, n):
                cx, cy = xs[k], ys[k]
                # _orientation's float filter, inlined: its exact stage runs
                # only on a determinant too near zero to trust, or NaN after
                # an overflow
                lhs = (ax - cx) * (by - cy)
                rhs = (ay - cy) * (bx - cx)
                det = lhs - rhs
                if not abs(det) > _ORIENT_ERRBOUND * (abs(lhs) + abs(rhs)) + _ORIENT_UNDERFLOW:
                    det = _orientation(points[i], points[j], points[k])
                if det > 0:
                    left_ij |= 1 << k
                    left[row_j + k] |= bit_i
                elif det < 0:
                    left[row_i + k] |= bit_j
                else:
                    on.setdefault((i, k), []).append(j)
                    on.setdefault((i, j), []).append(k)
                    on.setdefault((j, k), []).append(i)
            left[row_i + j] = left_ij
    sides = {full}  # the side holding agent 0
    for i in range(n):
        for j in range(i + 1, n):
            if xs[i] == xs[j] and ys[i] == ys[j]:
                continue
            side = left[i * n + j]
            if (i, j) not in on:
                # two points on the line: the prefix loop below would give
                # side, side with either one and side with both
                masks = [side, side | 1 << i, side | 1 << j, side | 1 << i | 1 << j]
            else:
                # lexicographic order is the order along the line
                line = sorted([i, j, *on[i, j]], key=points.__getitem__)
                whole = sum(1 << k for k in line)
                masks = []
                prefix = 0
                # the empty prefix gives the same two sides as the whole line
                for k in line:
                    masks += (side | prefix, side | whole ^ prefix)
                    prefix |= 1 << k
            for mask in masks:
                sides.add(mask if mask & 1 else full ^ mask)
    return [(mask,) if mask == full else (mask, full ^ mask) for mask in sorted(sides)]


def _pairs_longest_first(points: Sequence[Point]) -> list[tuple[float, int]]:
    """Every pair of points as (Euclidean distance, pair bitmask), longest
    first."""
    return sorted(
        (
            (math.dist(points[i], points[j]), 1 << i | 1 << j)
            for i, j in itertools.combinations(range(len(points)), 2)
        ),
        reverse=True,
    )


def _group_bound(pairs: Sequence[tuple[float, int]], mask: int, total: bool) -> float:
    """A lower bound on the Euclidean optimum of the group of agents in
    mask, from _pairs_longest_first of the agents: half the group's
    longest pair under the max objective, and under the total the weight
    of a greedy matching of its pairs, since d(i, c) + d(j, c) >= d(i, j)
    for every centre c.  Up to the rounding of the distances and their
    sum, it is at most the cost of the group at any point."""
    bound, free = 0.0, mask
    if free & (free - 1):
        for d, pair in pairs:
            if free & pair == pair:
                if not total:
                    return d / 2.0
                bound += d
                free ^= pair
                if not free & (free - 1):
                    break
    return bound


def _split_bound(pairs: Sequence[tuple[float, int]], mask: int) -> float:
    """A lower bound on the max objective's optimum over the split of the
    agents into mask and the rest, from _pairs_longest_first of the agents:
    half the longest pair that does not cross the split.  That is the larger
    of the two groups' _group_bound under the max, in one scan, and the
    same float, since halving is monotone."""
    for d, pair in pairs:
        side = pair & mask
        if side == pair or not side:
            return d / 2.0
    return 0.0


def _rotated(points: Sequence[Point]) -> list[tuple[float, float]]:
    """Each point's (u, v) = (x + y, x - y), or (x, x) in 1-d.  The
    Manhattan distance of two points is the larger of their |du| and
    |dv|."""
    if len(points[0]) == 1:
        return [(x, x) for (x,) in points]
    return [(x + y, x - y) for x, y in points]


def _total_growth(points: Sequence[Point]) -> _Grow:
    """_manhattan_growth under the total, for points of any dimension: the
    state is (bound, columns), the block's coordinates sorted per axis, and
    the rise sums x's distance to the median box axis by axis.  It serves
    1-d and d >= 3, and is the reference that _planar_total_growth keeps
    the bits of."""

    def grow_total(block: tuple | None, i: int) -> tuple:
        point = points[i]
        if block is None:
            return 0.0, [[x] for x in point]
        low, columns = block
        size = len(columns[0])
        lower, upper = (size - 1) >> 1, size >> 1
        rise = 0.0
        grown = []
        for xs, x in zip(columns, point):
            if x < xs[lower]:
                rise += xs[lower] - x
            elif x > xs[upper]:
                rise += x - xs[upper]
            # a copy: the parent's lists are shared with its siblings
            xs = xs.copy()
            bisect.insort(xs, x)
            grown.append(xs)
        return low + rise, grown

    return grow_total


def _planar_total_growth(points: Sequence[Point]) -> _Grow:
    """_total_growth for 2-d points, unrolled: the state is (bound, xs, ys),
    the block's two sorted coordinate lists, and the rise adds the x term
    and then the y term to 0.0, the generic loop's float operations in its
    order, so every bound has the same bits."""

    def grow_planar(block: tuple | None, i: int) -> tuple:
        x, y = points[i]
        if block is None:
            return 0.0, [x], [y]
        low, xs, ys = block
        size = len(xs)
        lower, upper = (size - 1) >> 1, size >> 1
        rise = 0.0
        if x < xs[lower]:
            rise += xs[lower] - x
        elif x > xs[upper]:
            rise += x - xs[upper]
        if y < ys[lower]:
            rise += ys[lower] - y
        elif y > ys[upper]:
            rise += y - ys[upper]
        # copies: the parent's lists are shared with its siblings
        xs = xs.copy()
        bisect.insort(xs, x)
        ys = ys.copy()
        bisect.insort(ys, y)
        return low + rise, xs, ys

    return grow_planar


def _manhattan_growth(points: Sequence[Point], total: bool) -> _Grow:
    """The grow step of _partitions for a Manhattan optimum: the state of a
    block grown by agent i, from the block's state (None for a new block),
    with the block's bound first.

    Under the total the state holds the block's coordinates sorted per
    axis.  Adding a point x to a group raises the group's optimal total by
    exactly the distance from x to the group's median box, whose side on
    each axis runs from the lower to the upper median there; so a block's
    bound is its parent's plus x's distance to that box, one rounded
    subtraction per axis, added to a rise of 0.0 in axis order and then to
    the parent's bound.  2-d points take _planar_total_growth, whose state
    is (bound, xs, ys) and whose step is unrolled in that order; other
    dimensions take _total_growth, whose state is (bound, columns) and
    which is the tests' reference for the planar step.  Under the max, 1-d
    or 2-d, the state holds the block's least and largest u and v
    (_rotated), and the bound is half the larger of the two ranges.  Those
    extremes are the same floats in any order, a range of two different
    numbers does not depend on the sign of a zero, and a range of equal
    ones is x - x = 0.0, so the max bound is the same float whatever order
    the agents joined in."""
    if total:
        return _planar_total_growth(points) if len(points[0]) == 2 else _total_growth(points)
    rotated = _rotated(points)

    def grow_max(block: tuple | None, i: int) -> tuple:
        u, v = rotated[i]
        if block is None:
            u_lo = u_hi = u
            v_lo = v_hi = v
        else:
            _, u_lo, u_hi, v_lo, v_hi = block
            if u < u_lo:
                u_lo = u
            elif u > u_hi:
                u_hi = u
            if v < v_lo:
                v_lo = v
            elif v > v_hi:
                v_hi = v
        return max(u_hi - u_lo, v_hi - v_lo) / 2.0, u_lo, u_hi, v_lo, v_hi

    return grow_max


def _sweep(grow: _Grow, line: Sequence[int]) -> list[float]:
    """The bounds of line[:1], line[:2], ..., line[:n], each grown from the
    one before it by one agent."""
    block = None
    lows = []
    for i in line:
        block = grow(block, i)
        lows.append(block[0])
    return lows


def _corner_orders(points: Sequence[Point], top: float) -> list[list[int]]:
    """The agents ranked by their need toward the first corner of each
    diagonal of their bounding box in (u, v) (_rotated), ties toward the
    lower index: max(u - u0, v - v0) toward the (u0, v0) corner, and
    max(u - u0, v1 - v) toward the (u0, v1) corner, with u0 the least u and
    v0 and v1 the least and largest v.  A need is the side of the square
    at that corner that covers the agent.  top is the largest coordinate
    magnitude.  Past 2^_ROTATED_EXP the needs are taken on the points
    scaled by a power of two, where they stay finite, so no inf or NaN is
    ranked."""
    if top > 2.0**_ROTATED_EXP:
        shift = math.frexp(top)[1] - _ROTATED_EXP
        points = [tuple(math.ldexp(c, -shift) for c in p) for p in points]
    rotated = _rotated(points)
    u0 = min(u for u, _ in rotated)
    v0 = min(v for _, v in rotated)
    v1 = max(v for _, v in rotated)
    agents = range(len(points))
    lower = [max(u - u0, v - v0) for u, v in rotated]
    upper = [max(u - u0, v1 - v) for u, v in rotated]
    return [sorted(agents, key=lower.__getitem__), sorted(agents, key=upper.__getitem__)]


def optimal_welfare(
    profile: AgentProfile,
    spec: FacilitySpec,
    objective: WelfareObjective,
) -> tuple[float, Solution]:
    """Exact optimal welfare and a solution achieving it.

    Uncapacitated only.  One facility needs no enumeration and has no agent
    cap.  Two facilities on a 2-d Euclidean profile search the line splits
    of the agents (_line_splits), and two Manhattan facilities under the
    max objective, on 1-d or 2-d profiles, the corner splits below, both
    up to LINE_SPLIT_MAX_AGENTS agents; every other case with m >= 2
    searches all agent partitions, up to PARTITION_ORACLE_MAX_AGENTS
    agents.  Each cap raises OracleCapError before any enumeration or
    sort, and so does an optimum whose welfare is past the float range,
    after it.  Ties break toward the lexicographically smallest facility
    tuple, and among equal tuples toward the partition whose
    restricted-growth labels in index order come first (_growth_labels),
    among the partitions searched: among the line splits only for two
    facilities on a 2-d Euclidean profile, and among the corner splits
    only for two Manhattan facilities under the max.
    Unused facilities duplicate the last used location.

    The corner splits hold an optimal partition.  In (u, v) =
    (x + y, x - y) a Manhattan ball is an axis-parallel square, and some
    optimum of radius R puts its two squares, of half-side R, at opposite
    corners A and B of the agents' bounding box there (Drezner, Naval
    Research Logistics 1987; Sharir and Welzl, SoCG 1996).  The agents
    whose need toward A (_corner_orders) is at most 2R are those in A's
    square, and the rest lie in B's.  They are a prefix of the agents
    ranked by that need, so that prefix and its complement both fit
    squares of half-side R.  Hence the one-block partition and every
    prefix of either corner order, with its complement, hold an optimal
    partition, 2n - 1 candidates at most.  In floats, with M the largest
    coordinate magnitude, the needs are taken on the rounded u and v, each
    within ulp(M) of its exact value, whose optimum R' is at most
    OPT + ulp(M); a need, at most 4M, rounds by at most 2 ulp(M).  The
    prefix that runs through every agent whose rounded need equals that of
    the last agent of A's square then fits a square of half-side
    R' + 2 ulp(M) on the rounded points, so its exact optimum is at most
    OPT + 4 ulp(M), and its computed value (below) at most OPT + 14 ulp(M).
    Every partition's computed value is at least OPT - 4 ulp(M), so the
    corner splits' value is never below the full enumeration's and exceeds
    it by at most 18 ulp(M).  Past 2^_ROTATED_EXP the needs are taken on
    the agents scaled by a power of two, with the same bound.

    All three searches are a branch and bound on a lower bound per group,
    which calls no kernel: under the Manhattan total the sum over the axes
    of the group's deviations from its lower median there, under the
    Manhattan max half the larger of its ranges in (x + y, x - y), both
    grown one agent at a time (_manhattan_growth), and on Euclidean
    profiles _group_bound, from pairwise distances (under the max, a line
    split's larger one is _split_bound, in one scan).  The partition search
    walks the restricted-growth tree (_partitions) over the agents
    farthest from their coordinate mean in L1 first, ties toward the lower
    index, since outliers' groups have high bounds, and cuts a node whose
    partial groups' bounds, summed under the total and maxed under the
    max objective, exceed the cutoff: adding an agent to a group never
    lowers its optimal cost, so that fold bounds from below the value of
    every partition under the node.  The line-split and corner-split
    searches rank the splits by the fold of their two groups' bounds,
    which one sweep each way along each corner order gives for the corner
    splits (_sweep), and stop at the first past the cutoff.  In floats,
    with eps = 2^-53 and M the largest coordinate magnitude:
    - a Manhattan total's centre is exact (coordinate medians are input
      coordinates), so its value sums the rounded deviations
      |x_k - med_k| by agent and then by axis.  Its bound sums, in the
      order the agents joined the group, each agent's rounded distance
      to the median box of the agents before it on each axis, by axis and
      then by agent.  Every term is one correctly rounded subtraction of
      input coordinates, and the exact terms sum to the group's exact
      optimal total, that of its value: adding x to a group raises the
      optimum by exactly x's distance to the group's median box.  Each
      term sits at most dim + n additions deep in either sum, the block
      fold adds at most n more, and a subtraction or sum that leaves the
      normal range is exact, so both are within (dim + 2n + 1) eps
      relative of the exact optimal total; the terms are nonnegative, so
      a partial group's exact total is at most its whole group's.  Bound
      and value thus differ by at most 2 (dim + 2n + 1) eps relative,
      both ways, though they are not the same float;
    - a Manhattan max centre (the rotated box's or the 1-d midpoint) is
      rounded by a few ulp(M), so a max group's value lies between its
      optimum minus 4 ulp(M) and its optimum plus 10 ulp(M).  Its bound
      rounds each u and v by at most ulp(M) and a range by at most
      2 ulp(M), so it lies within 2 ulp(M) of the optimum, plus half a
      subnormal from the halving, and bound and value differ by at most
      13 ulp(M), both ways; the max fold is exact;
    - a Euclidean group's bound is at most its true optimum OPT, up to the
      rounding of at most n/2 distances and their sum, so
      bound <= OPT (1 + 4n eps); its value is a real cost at the centre
      the kernel returned, however far that centre is from the optimal
      one, rounded in its n distances and their sum, so
      OPT <= value (1 + 4n eps).  Below the normal range each rounding
      errs by at most ulp(M) / 2 instead.
    So a node's bound exceeds the value V of any partition under it by at
    most rel * V + 64 ulp(M), where rel = max(1e-12, 8 (dim + 2n) eps)
    leaves room to spare.  A node, or a split, is cut when its bound
    exceeds best * (1 + rel) + 64 ulp(M), best being the lowest value of a
    partition already found; every partition under it is then strictly
    worse than that one, so it can neither win nor tie.  Ties are compared
    on (value, facility tuple, restricted-growth labels in index order),
    with each leaf's blocks ordered by their lowest agent, so the walk's
    order does not decide them, and the search returns what an unbounded
    scan of its partitions does: the full enumeration, or every line or
    corner split.  Where a coordinate exceeds 2^512 in magnitude, sums of
    distances could overflow, and the absolute slack is infinite: nothing
    is cut, and every partition or split is solved.

    The partition search's first cutoff is the best split of an axis'
    sorted order into a prefix and a suffix: solved by the kernels on
    Euclidean profiles, and scored on its bound B on Manhattan ones, whose
    value is then at most B (1 + rel) + 64 ulp(M) by the two-way bounds
    above, so the slack is added twice.  The Manhattan scores come from
    one sweep each way along the axis (_sweep), which grows the prefix by
    one agent at a time.  The walk changes one path in place: a node folds
    at most m floats and grows the one block it changed.

    The kernels solve the groups of those seeds and of the partitions
    that reach the cutoff, and no others, so a ConvergenceError from the
    geometric median surfaces only from a group whose bound did not rule
    it out.
    """
    objective = WelfareObjective(objective)
    if spec.capacitated:
        raise ValueError("optimal_welfare handles uncapacitated specs only")
    n = profile.n
    agents, metric = profile.agents, profile.metric
    if spec.m == 1:
        value, center = _one_facility_optimum(profile, objective)
        return value, Solution._trusted((center,), (1,) * n)
    total = objective is WelfareObjective.TOTAL
    euclidean = metric is Metric.EUCLIDEAN
    # two facilities search a family of splits that holds an optimal one
    line_splits = euclidean and profile.dim == 2 and spec.m == 2
    corner_splits = not (euclidean or total) and profile.dim <= 2 and spec.m == 2
    cap = LINE_SPLIT_MAX_AGENTS if line_splits or corner_splits else PARTITION_ORACLE_MAX_AGENTS
    if n > cap:
        raise OracleCapError(f"exact oracle capped at {cap} agents, got {n}")
    if not total:
        _require_max_dim(profile.dim)
    fold = sum if total else max
    # a group's points in this order are its sorted points, ties included
    order = sorted(range(n), key=agents.__getitem__)
    # keyed by the block's agent bitmask
    group_cache: dict[int, tuple[float, Point]] = {}
    dist = _metric_distance(metric)

    def solve(mask: int) -> tuple[float, Point]:
        pts = [agents[i] for i in order if mask >> i & 1]
        center = _one_facility_centre(pts, metric, objective)
        costs = [dist(p, center) for p in pts]
        group = group_cache[mask] = (fold(costs), center)
        return group

    def solved(masks: tuple[int, ...]) -> float:
        return fold([(group_cache.get(mask) or solve(mask))[0] for mask in masks])

    grow: _Grow
    if euclidean:
        pairs = _pairs_longest_first(agents)
        bounds: dict[int, float] = {}

        # a Euclidean block's state is its mask, its bound cached by mask
        def grow(block: tuple | None, i: int) -> tuple:
            mask = 1 << i if block is None else block[1] | 1 << i
            low = bounds.get(mask)
            if low is None:
                low = bounds[mask] = _group_bound(pairs, mask, total)
            return low, mask

    else:
        grow = _manhattan_growth(agents, total)

    def by_bound(splits: list[tuple[int, ...]], lows: list[float]) -> Iterator[tuple[int, ...]]:
        """The splits, lowest bound (lows) first and in their given order
        among equal bounds, up to the first bound past the cutoff."""
        for low, rank in sorted(zip(lows, itertools.count())):
            if low > cutoff:
                return
            yield splits[rank]

    # the slack derived in the docstring
    scale = max(abs(c) for p in agents for c in p)
    rel = max(1e-12, (profile.dim + 2 * n) * 2.0**-50)
    # past 2^512 sums of distances could overflow, so nothing is cut
    absolute = 64 * math.ulp(scale) if scale <= 2.0**512 else math.inf

    def above(value: float) -> float:
        return value + value * rel + absolute

    cutoff = math.inf
    candidates: Iterable[tuple[int, ...]]
    full = (1 << n) - 1
    if line_splits:
        splits = _line_splits(agents)
        if total:
            lows = [sum(_group_bound(pairs, mask, total) for mask in masks) for masks in splits]
        else:
            lows = [_split_bound(pairs, masks[0]) for masks in splits]
        candidates = by_bound(splits, lows)
    elif corner_splits:
        # the one-block partition, and each prefix of a corner order with
        # its complement, blocks ordered by their lowest agent
        scored: dict[tuple[int, ...], float] = {}
        for line in _corner_orders(agents, scale):
            heads, tails = _sweep(grow, line), _sweep(grow, line[::-1])
            scored.setdefault((full,), heads[-1])
            prefixes = itertools.accumulate((1 << i for i in line[:-1]), operator.or_)
            for prefix, head, tail in zip(prefixes, heads, tails[-2::-1]):
                rest = full ^ prefix
                scored[(prefix, rest) if prefix & 1 else (rest, prefix)] = max(head, tail)
        candidates = by_bound(list(scored), list(scored.values()))
    else:
        # the splits of each axis' sorted order into a prefix and a suffix
        # are two-block partitions
        for k in range(profile.dim):
            line = sorted(range(n), key=lambda i: agents[i][k])
            if euclidean:
                prefixes = itertools.accumulate((1 << i for i in line[:-1]), operator.or_)
                values = [solved((prefix, full ^ prefix)) for prefix in prefixes]
            else:
                heads, tails = _sweep(grow, line), _sweep(grow, line[::-1])
                # a Manhattan bound also exceeds its partition's computed
                # value by at most the slack, so above() of it is at least
                # that value
                values = [above(fold([head, tail])) for head, tail in zip(heads, tails[-2::-1])]
            for value in values:
                cutoff = min(cutoff, above(value))
        # the agents farthest from the mean in L1 first, ties toward the
        # lower index: their groups' bounds rise early in the walk
        mean = [sum(column) / n for column in zip(*agents)]
        walk = sorted(
            range(n), key=lambda i: -sum(abs(c - mu) for c, mu in zip(agents[i], mean))
        )
        candidates = _partitions(n, min(spec.m, n), walk, grow, fold, lambda: cutoff)
    best: tuple[float, tuple[Point, ...], tuple[int, ...]] | None = None
    for masks in candidates:
        centers: list[Point] = []
        block_costs: list[float] = []
        for mask in masks:
            group = group_cache.get(mask) or solve(mask)
            block_costs.append(group[0])
            centers.append(group[1])
        value = fold(block_costs)
        padded = tuple(centers) + (centers[-1],) * (spec.m - len(masks))
        labels = _growth_labels(masks, n)
        if best is None or (value, padded, labels) < best:
            best = (value, padded, labels)
            cutoff = min(cutoff, above(value))
    assert best is not None
    _, locations, labels = best
    assignment = tuple(label + 1 for label in labels)
    _require_finite(locations)
    solution = Solution._trusted(locations, assignment)
    return _finite_welfare(_agent_costs(profile, solution), objective, "optimal"), solution


def optimal_capacitated_assignment(
    profile: AgentProfile,
    locations: Sequence[Point],
    capacities: Sequence[int],
    objective: WelfareObjective = WelfareObjective.TOTAL,
) -> tuple[tuple[int, ...], float]:
    """Best assignment of agents to fixed facilities under capacities.

    Depth-first over agents in index order with cost pruning; first
    lexicographic optimum wins ties.  Same agent cap as the welfare oracle.
    The capacities are checked as FacilitySpec checks them.
    """
    objective = WelfareObjective(objective)
    locations = tuple(as_point(p) for p in locations)
    spec = FacilitySpec(len(locations), capacities)
    n = profile.n
    spec.require_feasible_for(n)
    if n > PARTITION_ORACLE_MAX_AGENTS:
        raise OracleCapError(
            f"exact assignment capped at {PARTITION_ORACLE_MAX_AGENTS} agents, got {n}"
        )
    m = len(locations)
    dists = [
        [distance(agent, loc, profile.metric) for loc in locations]
        for agent in profile.agents
    ]
    remaining = list(spec.capacities)
    chosen = [0] * n
    best_value = math.inf
    best_assignment: tuple[int, ...] | None = None

    def walk(i: int, acc: float) -> None:
        nonlocal best_value, best_assignment
        if acc >= best_value:
            return
        if i == n:
            best_value = acc
            best_assignment = tuple(chosen)
            return
        for j in range(m):
            if remaining[j] == 0:
                continue
            d = dists[i][j]
            nxt = acc + d if objective is WelfareObjective.TOTAL else max(acc, d)
            remaining[j] -= 1
            chosen[i] = j + 1
            walk(i + 1, nxt)
            remaining[j] += 1

    walk(0, 0.0)
    assert best_assignment is not None
    welfare = evaluate(profile, Solution._trusted(locations, best_assignment), objective)
    return best_assignment, welfare


def approximation_ratio(
    descriptor: MechanismDescriptor,
    profile: AgentProfile,
    spec: FacilitySpec,
    objective: WelfareObjective,
) -> RatioReport:
    """Ratio of a mechanism's welfare to the exact optimum on one instance.
    Either welfare past the float range raises OracleCapError.

    The same report as evaluate of run_mechanism's solution against
    optimal_welfare's value, with the same errors in the same order, but
    the spec and objective are checked once: the mechanism's welfare folds
    its locations' nearest costs, and one facility's optimum is
    _one_facility_optimum, so neither builds a Solution."""
    locations = _placement(descriptor, profile, spec)
    objective = WelfareObjective(objective)
    mech = _finite_welfare(_nearest_costs(profile, locations), objective, "mechanism")
    if spec.m == 1:
        opt = _one_facility_optimum(profile, objective)[0]
    else:
        opt = optimal_welfare(profile, spec, objective)[0]
    return RatioReport.from_welfares(mech, opt)
