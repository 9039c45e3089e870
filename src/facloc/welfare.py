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
Manhattan bisectors are not lines, so Manhattan profiles, other dimensions
and m >= 3 keep the full enumeration.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .geometry import (
    Metric,
    Point,
    as_point,
    coordinate_median,
    distance,
    geometric_median,
    manhattan_one_center,
    smallest_enclosing_circle,
)
from .mechanisms import (
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    Solution,
    _integral,
    run_mechanism,
)

PARTITION_ORACLE_MAX_AGENTS = 10
LINE_SPLIT_MAX_AGENTS = 30

# Shewchuk's orient2d error bound (3 + 16 eps) eps, plus two subnormal
# steps for products that underflow: a float determinant beyond it has the
# sign of the exact one.
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_UNDERFLOW = 2.0**-1073


class OracleCapError(RuntimeError):
    """Raised when an exact oracle or exhaustive search is asked for an
    instance above its enumeration cap."""


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
    return [
        distance(agent, solution.locations[j - 1], profile.metric)
        for agent, j in zip(profile.agents, solution.assignment)
    ]


def evaluate(
    profile: AgentProfile, solution: Solution, objective: WelfareObjective
) -> float:
    """Welfare of a solution: the total or the largest of its _agent_costs."""
    objective = WelfareObjective(objective)
    costs = _agent_costs(profile, solution)
    return sum(costs) if objective is WelfareObjective.TOTAL else max(costs)


def max_distance_lower_bound(total: float, n: int) -> float:
    """Identity bound: a solution with total distance T over n agents has
    maximum distance at least T/n."""
    if n < 1:
        raise ValueError("need at least one agent")
    if total < 0.0:
        raise ValueError("total distance cannot be negative")
    return total / n


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


def _one_facility_centre(
    pts: Sequence[Point], metric: Metric, objective: WelfareObjective
) -> Point:
    """Exact one-facility optimum location for a group of agents, given
    sorted.  The max objective has one in 1-d and 2-d only."""
    if objective is WelfareObjective.TOTAL:
        if metric is Metric.MANHATTAN:
            return coordinate_median(pts)
        return geometric_median(pts)
    if len(pts[0]) == 1:
        return ((pts[0][0] + pts[-1][0]) / 2.0,)
    if metric is Metric.MANHATTAN:
        return manhattan_one_center(pts)
    if len(pts[0]) == 2:
        return smallest_enclosing_circle(pts).center
    raise ValueError("max-distance optimum supports 1-d and 2-d points only")


def _single_facility_optimum(
    points: Sequence[Point], metric: Metric, objective: WelfareObjective
) -> tuple[float, Point]:
    """Exact one-facility optimum (cost, location) for a group of agents."""
    pts = sorted(points)
    center = _one_facility_centre(pts, metric, objective)
    costs = [distance(p, center, metric) for p in pts]
    value = sum(costs) if objective is WelfareObjective.TOTAL else max(costs)
    return value, center


def _partitions(n: int, max_blocks: int) -> Iterator[list[int]]:
    """Set partitions of range(n) into at most max_blocks groups, encoded as
    restricted-growth label strings (labels[i] is agent i's block)."""
    labels = [0] * n

    def extend(i: int, used: int) -> Iterator[list[int]]:
        if i == n:
            yield list(labels)
            return
        for b in range(min(used + 1, max_blocks)):
            labels[i] = b
            yield from extend(i + 1, max(used, b + 1))

    if n < 1:
        raise ValueError("need at least one agent")
    yield from extend(1, 1)


def _orientation(a: Point, b: Point, c: Point) -> int:
    """Exact sign of the cross product (b - a) x (c - a): 1 when c lies left
    of the line from a to b, -1 when right, 0 when on it."""
    left = (a[0] - c[0]) * (b[1] - c[1])
    right = (a[1] - c[1]) * (b[0] - c[0])
    det = left - right
    if abs(det) > _ORIENT_ERRBOUND * (abs(left) + abs(right)) + _ORIENT_UNDERFLOW:
        return 1 if det > 0 else -1
    # deferred: importing fractions pulls in decimal, and few calls get here
    from fractions import Fraction

    ax, ay, bx, by, cx, cy = map(Fraction, (*a, *b, *c))
    exact = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (exact > 0) - (exact < 0)


def _line_splits(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """Every bipartition of 2-d points that a line separates, as
    restricted-growth labels sorted in the order _partitions yields them.

    A separating line can be moved until it passes through two distinct
    points.  The points strictly left of it then form one side, and the
    points on it, in their order along it, split into a prefix and a
    suffix.  Coincident points on the line may land on both sides; those
    few extra splits are still partitions, so the search stays exact.
    """
    n = len(points)
    splits = {(0,) * n}
    for i, j in itertools.combinations(range(n), 2):
        a, b = points[i], points[j]
        if a == b:
            continue
        left, on = [], [i, j]
        for k in range(n):
            if k != i and k != j:
                side = _orientation(a, b, points[k])
                if side > 0:
                    left.append(k)
                elif side == 0:
                    on.append(k)
        # lexicographic order is the order along the line
        on.sort(key=points.__getitem__)
        for t in range(len(on) + 1):
            for part in (on[:t], on[t:]):
                labels = [1] * n
                for k in itertools.chain(left, part):
                    labels[k] = 0
                if labels[0]:
                    labels = [1 - label for label in labels]
                splits.add(tuple(labels))
    return sorted(splits)


def optimal_welfare(
    profile: AgentProfile,
    spec: FacilitySpec,
    objective: WelfareObjective,
) -> tuple[float, Solution]:
    """Exact optimal welfare and a solution achieving it.

    Uncapacitated only.  One facility needs no enumeration and has no agent
    cap.  Two facilities on a 2-d Euclidean profile search the line splits
    of the agents (_line_splits), up to LINE_SPLIT_MAX_AGENTS agents; every
    other case with m >= 2 searches all agent partitions, up to
    PARTITION_ORACLE_MAX_AGENTS agents.  Either cap raises OracleCapError
    before any enumeration.  Ties break toward the lexicographically smallest
    facility tuple among the partitions searched, so for two facilities on a
    2-d Euclidean profile among the line splits only.  Unused facilities
    duplicate the last used location.
    """
    objective = WelfareObjective(objective)
    if spec.capacitated:
        raise ValueError("optimal_welfare handles uncapacitated specs only")
    n = profile.n
    agents, metric = profile.agents, profile.metric
    if spec.m == 1:
        center = _one_facility_centre(sorted(agents), metric, objective)
        solution = Solution((center,), (1,) * n)
        return evaluate(profile, solution, objective), solution
    line_splits = metric is Metric.EUCLIDEAN and profile.dim == 2 and spec.m == 2
    cap = LINE_SPLIT_MAX_AGENTS if line_splits else PARTITION_ORACLE_MAX_AGENTS
    if n > cap:
        raise OracleCapError(f"exact oracle capped at {cap} agents, got {n}")
    candidates = _line_splits(agents) if line_splits else _partitions(n, min(spec.m, n))
    best: tuple[float, tuple[Point, ...], tuple[int, ...]] | None = None
    # keyed by the block's agent bitmask; the optimum is computed on the
    # block's sorted points, so equal blocks get equal answers
    group_cache: dict[int, tuple[float, Point]] = {}
    for labels in candidates:
        block_count = max(labels) + 1
        masks = [0] * block_count
        for i, b in enumerate(labels):
            masks[b] |= 1 << i
        centers: list[Point] = []
        block_costs: list[float] = []
        for mask in masks:
            group = group_cache.get(mask)
            if group is None:
                key = tuple(sorted(agents[i] for i in range(n) if mask >> i & 1))
                group = group_cache[mask] = _single_facility_optimum(
                    key, metric, objective
                )
            cost, center = group
            centers.append(center)
            block_costs.append(cost)
        value = (
            sum(block_costs)
            if objective is WelfareObjective.TOTAL
            else max(block_costs)
        )
        padded = tuple(centers) + (centers[-1],) * (spec.m - block_count)
        assignment = tuple(labels[i] + 1 for i in range(n))
        if best is None or (value, padded) < (best[0], best[1]):
            best = (value, padded, assignment)
    assert best is not None
    value, locations, assignment = best
    solution = Solution(locations, assignment)
    return evaluate(profile, solution, objective), solution


def optimal_capacitated_assignment(
    profile: AgentProfile,
    locations: Sequence[Point],
    capacities: Sequence[int],
    objective: WelfareObjective = WelfareObjective.TOTAL,
) -> tuple[tuple[int, ...], float]:
    """Best assignment of agents to fixed facilities under capacities.

    Depth-first over agents in index order with cost pruning; first
    lexicographic optimum wins ties.  Same agent cap as the welfare oracle.
    """
    objective = WelfareObjective(objective)
    locations = tuple(as_point(p) for p in locations)
    caps = tuple(_integral(c, "capacity") for c in capacities)
    if not caps or len(locations) != len(caps):
        raise ValueError("need one capacity per facility location")
    if any(c < 1 for c in caps):
        raise ValueError("capacities must be positive")
    n = profile.n
    if sum(caps) < n:
        raise ValueError(f"total capacity {sum(caps)} cannot serve {n} agents")
    if n > PARTITION_ORACLE_MAX_AGENTS:
        raise OracleCapError(
            f"exact assignment capped at {PARTITION_ORACLE_MAX_AGENTS} agents, got {n}"
        )
    m = len(locations)
    dists = [
        [distance(agent, loc, profile.metric) for loc in locations]
        for agent in profile.agents
    ]
    remaining = list(caps)
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
    welfare = evaluate(profile, Solution(locations, best_assignment), objective)
    return best_assignment, welfare


def approximation_ratio(
    descriptor: MechanismDescriptor,
    profile: AgentProfile,
    spec: FacilitySpec,
    objective: WelfareObjective,
) -> RatioReport:
    """Ratio of a mechanism's welfare to the exact optimum on one instance."""
    mech = evaluate(profile, run_mechanism(descriptor, profile, spec), objective)
    opt, _ = optimal_welfare(profile, spec, objective)
    return RatioReport.from_welfares(mech, opt)
