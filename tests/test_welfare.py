import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facloc.geometry import (
    ConvergenceError,
    Metric,
    coordinate_median,
    distance,
    geometric_median,
    manhattan_one_center,
    smallest_enclosing_circle,
)
from facloc.mechanisms import (
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    Solution,
    run_mechanism,
)
from facloc import bench, welfare
from facloc.welfare import (
    LINE_SPLIT_MAX_AGENTS,
    PARTITION_ORACLE_MAX_AGENTS,
    OracleCapError,
    RatioReport,
    WelfareObjective,
    approximation_ratio,
    evaluate,
    optimal_capacitated_assignment,
    optimal_welfare,
)
from facloc.welfare import (
    _group_bound,
    _growth_labels,
    _line_splits,
    _orientation,
    _pairs_longest_first,
    _partitions,
    _split_bound,
)
from helpers import NEAR_COLLINEAR, _counting, grid_min_max_distance, reference_line_splits

RECTANGLE = ((0.0, 0.0), (0.0, 2.0), (12.0, 2.0), (12.0, 0.0))
# finite agents whose total distance to any centre overflows
WELFARE_PAST_THE_FLOAT_RANGE = ((1e308, 1e308), (-1e308, 1e308), (1e308, -1e308), (0.0, 0.0))


class TestEvaluate:
    def test_total_and_max(self):
        prof = AgentProfile(((0.0, 0.0), (3.0, 4.0), (6.0, 8.0)))
        sol = Solution(((0.0, 0.0),), (1, 1, 1))
        assert evaluate(prof, sol, WelfareObjective.TOTAL) == pytest.approx(15.0)
        assert evaluate(prof, sol, WelfareObjective.MAX) == pytest.approx(10.0)

    def test_accepts_objective_strings(self):
        prof = AgentProfile(((0.0,), (4.0,)))
        sol = Solution(((0.0,),), (1, 1))
        assert evaluate(prof, sol, "total") == pytest.approx(4.0)
        assert evaluate(prof, sol, "max") == pytest.approx(4.0)

    def test_respects_assignment_not_proximity(self):
        prof = AgentProfile(((0.0,),))
        sol = Solution(((0.0,), (5.0,)), (2,))
        assert evaluate(prof, sol, WelfareObjective.TOTAL) == pytest.approx(5.0)

    def test_manhattan_metric(self):
        prof = AgentProfile(((0.0, 0.0), (1.0, 2.0)), Metric.MANHATTAN)
        sol = Solution(((0.0, 0.0),), (1, 1))
        assert evaluate(prof, sol, WelfareObjective.TOTAL) == pytest.approx(3.0)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_length_mismatch_raises(self, metric):
        prof = AgentProfile(((0.0,), (1.0,)), metric)
        sol = Solution(((0.0,),), (1,))
        with pytest.raises(ValueError, match="assignment covers"):
            evaluate(prof, sol, WelfareObjective.TOTAL)

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("location", [(0.0,), (0.0, 0.0, 0.0)])
    def test_location_of_another_dimension_raises(self, metric, location):
        # under Manhattan a bare zip would cut the longer point short
        prof = AgentProfile(((0.0, 0.0), (1.0, 2.0)), metric)
        for sol in (
            Solution((location,), (1, 1)),
            Solution(((0.0, 0.0), location), (1, 2)),
        ):
            for objective in WelfareObjective:
                with pytest.raises(ValueError, match="dimension mismatch"):
                    evaluate(prof, sol, objective)


class TestRatioReport:
    def test_plain_ratio(self):
        r = RatioReport.from_welfares(3.0, 2.0)
        assert r.ratio == pytest.approx(1.5)
        assert not r.unbounded

    def test_positive_over_zero_is_unbounded(self):
        r = RatioReport.from_welfares(0.5, 0.0)
        assert math.isinf(r.ratio)
        assert r.unbounded

    def test_zero_over_zero_is_one(self):
        r = RatioReport.from_welfares(0.0, 0.0)
        assert r.ratio == 1.0
        assert not r.unbounded

    def test_negative_welfare_rejected(self):
        with pytest.raises(ValueError):
            RatioReport.from_welfares(-1.0, 2.0)


class TestSingleFacilityOptimum:
    def test_euclidean_total_on_rectangle(self):
        # geometric median of the 2x12 rectangle sits at the center
        prof = AgentProfile(RECTANGLE)
        value, sol = optimal_welfare(prof, FacilitySpec(1), WelfareObjective.TOTAL)
        assert value == pytest.approx(4.0 * math.sqrt(37.0), abs=1e-6)
        assert sol.locations[0] == pytest.approx((6.0, 1.0), abs=1e-6)
        assert sol.assignment == (1, 1, 1, 1)

    def test_manhattan_total_is_coordinate_median(self):
        prof = AgentProfile(((0.0, 0.0), (1.0, 3.0), (2.0, 1.0)), Metric.MANHATTAN)
        value, sol = optimal_welfare(prof, FacilitySpec(1), WelfareObjective.TOTAL)
        assert sol.locations == ((1.0, 1.0),)
        assert value == pytest.approx(5.0)

    def test_euclidean_max_is_enclosing_circle(self):
        prof = AgentProfile(((0.0, 0.0), (0.0, 1.0)))
        value, sol = optimal_welfare(prof, FacilitySpec(1), WelfareObjective.MAX)
        assert sol.locations[0] == pytest.approx((0.0, 0.5), abs=1e-12)
        assert value == pytest.approx(0.5)

    def test_manhattan_max_beats_grid_search(self):
        pts = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))
        prof = AgentProfile(pts, Metric.MANHATTAN)
        value, _ = optimal_welfare(prof, FacilitySpec(1), WelfareObjective.MAX)
        assert value == pytest.approx(2.0)
        grid = grid_min_max_distance(pts, Metric.MANHATTAN, resolution=0.05, pad=1.0)
        assert value <= grid + 1e-9

    def test_one_dimensional_max_is_midpoint(self):
        prof = AgentProfile(((0.0,), (3.0,), (10.0,)), Metric.MANHATTAN)
        value, sol = optimal_welfare(prof, FacilitySpec(1), WelfareObjective.MAX)
        assert sol.locations == ((5.0,),)
        assert value == pytest.approx(5.0)


class TestMultiFacilityOptimum:
    def test_rectangle_splits_into_short_edges(self):
        prof = AgentProfile(RECTANGLE)
        value, sol = optimal_welfare(prof, FacilitySpec(2), WelfareObjective.TOTAL)
        assert value == pytest.approx(4.0, abs=1e-9)
        assert sol.assignment == (1, 1, 2, 2)

    def test_rectangle_max_with_two_facilities(self):
        prof = AgentProfile(RECTANGLE)
        value, _ = optimal_welfare(prof, FacilitySpec(2), WelfareObjective.MAX)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_more_facilities_than_agents(self):
        prof = AgentProfile(((0.0, 0.0), (5.0, 5.0)))
        value, sol = optimal_welfare(prof, FacilitySpec(4), WelfareObjective.TOTAL)
        assert value == pytest.approx(0.0)
        assert len(sol.locations) == 4

    def test_cap_is_enforced(self):
        prof = AgentProfile(tuple((float(i), 0.0) for i in range(11)), Metric.MANHATTAN)
        with pytest.raises(OracleCapError):
            optimal_welfare(prof, FacilitySpec(2), WelfareObjective.TOTAL)

    def test_capacitated_spec_rejected(self):
        prof = AgentProfile(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            optimal_welfare(prof, FacilitySpec(2, (1, 1)), WelfareObjective.TOTAL)


def brute_optimum_value(prof, m, objective):
    """Independent oracle: try every way of labelling agents with one of m
    facilities and place each facility at its group's exact optimum."""
    best = math.inf
    for labels in itertools.product(range(m), repeat=prof.n):
        costs = []
        for b in set(labels):
            group = [prof.agents[i] for i in range(prof.n) if labels[i] == b]
            if objective is WelfareObjective.TOTAL:
                if prof.metric is Metric.MANHATTAN:
                    center = coordinate_median(group)
                else:
                    center = geometric_median(sorted(group))
                costs.append(sum(distance(p, center, prof.metric) for p in group))
            else:
                lo, hi = min(p[0] for p in group), max(p[0] for p in group)
                center = ((lo + hi) / 2.0,)
                costs.append(max(distance(p, center, prof.metric) for p in group))
        best = min(best, sum(costs) if objective is WelfareObjective.TOTAL else max(costs))
    return best


@settings(deadline=None, max_examples=25)
@given(
    pts=st.lists(
        st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=5
    ),
    m=st.integers(1, 3),
    metric=st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]),
)
def test_partition_oracle_matches_label_enumeration_total(pts, m, metric):
    prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts), metric)
    value, _ = optimal_welfare(prof, FacilitySpec(m), WelfareObjective.TOTAL)
    assert value == pytest.approx(
        brute_optimum_value(prof, m, WelfareObjective.TOTAL), abs=1e-6
    )


@settings(deadline=None, max_examples=25)
@given(
    xs=st.lists(st.integers(-8, 8), min_size=1, max_size=5),
    m=st.integers(1, 3),
)
def test_partition_oracle_matches_label_enumeration_max(xs, m):
    prof = AgentProfile(tuple((float(x),) for x in xs))
    value, _ = optimal_welfare(prof, FacilitySpec(m), WelfareObjective.MAX)
    assert value == pytest.approx(
        brute_optimum_value(prof, m, WelfareObjective.MAX), abs=1e-9
    )


@settings(deadline=None, max_examples=40)
@given(
    pts=st.lists(
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)), min_size=1, max_size=6
    )
)
def test_max_welfare_at_least_average(pts):
    prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts))
    sol = Solution(((0.0, 0.0),), (1,) * prof.n)
    total = evaluate(prof, sol, WelfareObjective.TOTAL)
    worst = evaluate(prof, sol, WelfareObjective.MAX)
    # the largest of n distances is at least their mean
    assert worst >= total / prof.n - 1e-12


@settings(deadline=None, max_examples=30)
@given(
    pts=st.lists(
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)), min_size=1, max_size=6
    )
)
def test_oracle_lower_bounds_median_mechanism(pts):
    prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts))
    report = approximation_ratio(
        MechanismDescriptor.median(), prof, FacilitySpec(1), WelfareObjective.TOTAL
    )
    assert report.mechanism_welfare >= report.optimal_welfare - 1e-6
    assert report.ratio >= 1.0 - 1e-9 or report.optimal_welfare == 0.0


@settings(deadline=None, max_examples=30)
@given(
    pts=st.lists(
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)), min_size=2, max_size=6
    )
)
def test_half_diameter_bounds_max_optimum(pts):
    # no single facility serves two agents D apart with max distance < D/2
    prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts))
    value, _ = optimal_welfare(prof, FacilitySpec(1), WelfareObjective.MAX)
    diameter = max(
        distance(a, b) for a in prof.agents for b in prof.agents
    )
    assert value >= diameter / 2.0 - 1e-9


def restricted_growth_labels(n, m):
    """Set partitions of range(n) into at most m blocks as label strings in
    lexicographic order: each label exceeds every earlier one by at most 1."""
    for labels in itertools.product(range(m), repeat=n):
        if all(labels[i] <= max(labels[:i], default=-1) + 1 for i in range(n)):
            yield labels


def _as_masks(labels):
    return tuple(
        sum(1 << i for i, label in enumerate(labels) if label == b)
        for b in range(max(labels) + 1)
    )


def reference_group_optimum(group, metric, objective):
    """(cost, centre) of one sorted group, from the public kernels."""
    if objective is WelfareObjective.TOTAL:
        if metric is Metric.MANHATTAN:
            center = coordinate_median(group)
        else:
            center = geometric_median(group)
    elif len(group[0]) == 1:
        center = ((group[0][0] + group[-1][0]) / 2.0,)
    elif metric is Metric.MANHATTAN:
        center = manhattan_one_center(group)
    else:
        center = smallest_enclosing_circle(group).center
    costs = [distance(p, center, metric) for p in group]
    return (sum(costs) if objective is WelfareObjective.TOTAL else max(costs)), center


def full_enumeration_optimum(prof, m, objective):
    """The partition oracle without line splits: every restricted-growth
    labelling, each group solved on its sorted points, ties broken toward
    the lexicographically smallest facility tuple and then toward the
    first labelling."""
    best = None
    for labels in restricted_growth_labels(prof.n, min(m, prof.n)):
        centers, costs = [], []
        for b in range(max(labels) + 1):
            group = tuple(sorted(p for p, label in zip(prof.agents, labels) if label == b))
            cost, center = reference_group_optimum(group, prof.metric, objective)
            centers.append(center)
            costs.append(cost)
        value = sum(costs) if objective is WelfareObjective.TOTAL else max(costs)
        padded = tuple(centers) + (centers[-1],) * (m - len(centers))
        if best is None or (value, padded) < best[:2]:
            best = (value, padded, tuple(label + 1 for label in labels))
    solution = Solution(best[1], best[2])
    return evaluate(prof, solution, objective), solution


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("m", range(1, 5))
def test_partitions_are_block_masks_in_restricted_growth_order(n, m):
    expected = [_as_masks(labels) for labels in restricted_growth_labels(n, m)]
    assert list(_partitions(n, m)) == expected
    assert [_growth_labels(masks, n) for masks in expected] == list(
        restricted_growth_labels(n, m)
    )


def _walks(n):
    """Orders of range(n) other than index order: reversed, rotated by
    one, and two seeded shuffles."""
    shuffled = [list(range(n)) for _ in range(2)]
    for seed, order in enumerate(shuffled):
        random.Random(seed).shuffle(order)
    walks = [list(reversed(range(n))), [*range(1, n), 0], *shuffled]
    return [walk for walk in walks if walk != list(range(n))]


def test_walks_share_no_state():
    n, m = 6, 3
    expected = [_as_masks(labels) for labels in restricted_growth_labels(n, m)]
    # two walks advanced in turn each yield the whole sequence
    turns = list(zip(_partitions(n, m), _partitions(n, m)))
    assert [a for a, _ in turns] == [b for _, b in turns] == expected
    # a walk closed after its first leaf leaves the next walk whole
    closed = _partitions(n, m)
    assert next(closed) == expected[0]
    closed.close()
    # leaves kept past the walk are snapshots, not the walk's own lists
    leaves = list(_partitions(n, m, walk=list(reversed(range(n)))))
    assert all(type(leaf) is tuple for leaf in leaves)
    assert sorted(leaves) == sorted(expected)
    assert list(_partitions(n, m)) == expected
    with pytest.raises(ValueError, match="at least one agent"):
        next(_partitions(0, m))


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("m", range(1, 5))
def test_a_walk_in_any_order_yields_each_partition_once(n, m):
    expected = sorted(_as_masks(labels) for labels in restricted_growth_labels(n, m))
    for walk in _walks(n):
        # blocks come ordered by their lowest agent, whatever the walk
        assert sorted(_partitions(n, m, walk=walk)) == expected


def test_a_tie_the_outliers_first_walk_reaches_late_keeps_the_index_order_winner():
    # the coincident outliers 4 and 5 are walked first, then agent 0, so
    # the walk reaches the labels (0, 0, 1, 0, 1, 1) before (0, 0, 0, 0,
    # 1, 1): both cost 5 with the lower medians 0 and 6 as their centres
    prof = AgentProfile(((0.0,), (2.0,), (3.0,), (0.0,), (6.0,), (6.0,)), Metric.MANHATTAN)
    objective = WelfareObjective.TOTAL
    later = (1, 1, 2, 1, 2, 2)
    groups = [tuple(sorted(p for p, b in zip(prof.agents, later) if b == k)) for k in (1, 2)]
    solved = [reference_group_optimum(g, prof.metric, objective) for g in groups]
    value, sol = optimal_welfare(prof, FacilitySpec(2), objective)
    assert (sum(cost for cost, _ in solved), tuple(c for _, c in solved)) == (
        value,
        sol.locations,
    )
    assert repr((value, sol)) == repr(full_enumeration_optimum(prof, 2, objective))
    assert (value, sol.assignment) == (5.0, (1, 1, 1, 1, 2, 2))


def test_the_outliers_first_walk_evaluates_few_manhattan_bounds(monkeypatch):
    calls = []
    factory = welfare._manhattan_growth

    def counted(points, total):
        grow = factory(points, total)

        def counting(block, i):
            calls.append(total)
            return grow(block, i)

        return counting

    monkeypatch.setattr(welfare, "_manhattan_growth", counted)
    rng = random.Random(10)
    for _ in range(20):
        agents = tuple((rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(10))
        prof = AgentProfile(agents, Metric.MANHATTAN)
        for objective in WelfareObjective:
            optimal_welfare(prof, FacilitySpec(2), objective)
    # walked in index order these profiles took 6 311 and 2 357 bound
    # evaluations and the outliers-first walk 3 165 and 1 051, 702 of each
    # for the axis splits of the first cutoff.  Each bound is now one
    # growth step from its block's parent: 3 632 under the total, 800 of
    # them in the sweeps of the first cutoff, and 800 under the max, where
    # the corner splits are swept and nothing is walked
    assert calls.count(True) <= 4000
    assert calls.count(False) <= 1500


# walk nodes and kernel solves per op on the profiles of
# test_the_walk_visits_the_nodes_and_solves_the_groups_it_did, as the search
# counted them when it scored the first cutoff mask by mask and re-read
# every block's bound at each node: no speed-up of the bounds may move
# them.  Two facilities under the max search corner splits, which walk no
# node and solve the groups of the splits that reach the cutoff
_WALK_COUNTS = {
    ("total", 2): (
        [105, 137, 211, 163, 117, 205, 67, 167, 227, 113,
         119, 115, 65, 113, 155, 237, 151, 209, 103, 163],
        [2] * 20,
    ),
    ("total", 3): (
        [339, 441, 587, 676, 662, 1624, 722, 620, 753, 1163,
         1238, 734, 628, 632, 447, 709, 898, 1062, 358, 578],
        [11, 10, 20, 14, 15, 40, 11, 17, 22, 22, 21, 10, 16, 22, 17, 7, 8, 18, 10, 19],
    ),
    ("max", 2): (
        [0] * 20,
        [14, 10, 4, 2, 6, 2, 2, 2, 2, 2, 2, 2, 2, 4, 2, 2, 2, 2, 2, 4],
    ),
    ("max", 3): (
        [240, 161, 86, 275, 507, 153, 114, 1029, 303, 134,
         105, 789, 2804, 723, 2799, 238, 186, 80, 182, 134],
        [87, 48, 26, 146, 160, 55, 34, 238, 88, 24, 31, 190, 412, 195, 455, 95, 73, 32, 53, 46],
    ),
}


@pytest.mark.parametrize("objective", list(WelfareObjective))
@pytest.mark.parametrize("m", [2, 3])
def test_the_walk_visits_the_nodes_and_solves_the_groups_it_did(monkeypatch, objective, m):
    # each node the walk reaches folds its blocks' bounds once
    nodes, solves = [], []
    walk, kernel = welfare._partitions, welfare._one_facility_centre

    def counting_walk(n, max_blocks, order, bound, fold, cutoff):
        def counted(lows):
            nodes[-1] += 1
            return fold(lows)

        return walk(n, max_blocks, order, bound, counted, cutoff)

    def counting_kernel(*args):
        solves[-1] += 1
        return kernel(*args)

    monkeypatch.setattr(welfare, "_partitions", counting_walk)
    monkeypatch.setattr(welfare, "_one_facility_centre", counting_kernel)
    rng = random.Random(f"walk:{objective.value}:{m}")
    for _ in range(20):
        agents = tuple((rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(10))
        nodes.append(0)
        solves.append(0)
        optimal_welfare(AgentProfile(agents, Metric.MANHATTAN), FacilitySpec(m), objective)
    assert (nodes, solves) == tuple(_WALK_COUNTS[objective.value, m])


def _floats(pts):
    return tuple((float(x), float(y)) for x, y in pts)


_coordinate = st.floats(0.0, 100.0)
_uniform = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=10)
_grid = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=10
).map(_floats)
_collinear = st.builds(
    lambda base, step, ts: _floats(
        (base[0] + t * step[0], base[1] + t * step[1]) for t in ts
    ),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=10),
)
_duplicates = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
)


@settings(deadline=None, max_examples=60)
@given(
    pts=st.one_of(_uniform, _grid, _collinear, _duplicates),
    objective=st.sampled_from(list(WelfareObjective)),
)
def test_line_splits_match_full_enumeration(pts, objective):
    prof = AgentProfile(tuple(pts))
    value, sol = optimal_welfare(prof, FacilitySpec(2), objective)
    expected_value, expected_sol = full_enumeration_optimum(prof, 2, objective)
    assert value == expected_value
    if objective is WelfareObjective.TOTAL:
        assert sol == expected_sol
    else:
        # tied max partitions abound; the tie-break ranges over line splits
        assert evaluate(prof, sol, objective) == value


def line_split_optimum(prof, objective):
    """The two-facility search over _line_splits without a bound: every
    split, each group solved on its sorted points, ties broken toward the
    smaller facility tuple and then toward the earlier restricted-growth
    labels."""
    best = None
    for masks in _line_splits(prof.agents):
        centers, costs = [], []
        for mask in masks:
            group = tuple(sorted(p for i, p in enumerate(prof.agents) if mask >> i & 1))
            cost, center = reference_group_optimum(group, prof.metric, objective)
            centers.append(center)
            costs.append(cost)
        value = sum(costs) if objective is WelfareObjective.TOTAL else max(costs)
        padded = tuple(centers) + (centers[-1],) * (2 - len(centers))
        labels = _growth_labels(masks, prof.n)
        if best is None or (value, padded, labels) < best:
            best = (value, padded, labels)
    solution = Solution(best[1], tuple(label + 1 for label in best[2]))
    return evaluate(prof, solution, objective), solution


def corner_split_optimum(prof):
    """The two-facility Manhattan max search over corner splits without a
    bound: the one-block partition, and every prefix with its complement
    of the agents ranked by their need toward the first corner of a
    diagonal of their (x + y, x - y) bounding box, ties toward the lower
    index.  Each group is solved on its sorted points, and ties are broken
    toward the smaller facility tuple and then toward the earlier
    restricted-growth labels."""
    objective = WelfareObjective.MAX
    n = prof.n
    rotated = [(p[0], p[0]) if len(p) == 1 else (p[0] + p[1], p[0] - p[1]) for p in prof.agents]
    u0 = min(u for u, _ in rotated)
    v0, v1 = min(v for _, v in rotated), max(v for _, v in rotated)
    labellings = {(0,) * n}
    for need in ([max(u - u0, v - v0) for u, v in rotated],
                 [max(u - u0, v1 - v) for u, v in rotated]):
        ranked = sorted(range(n), key=lambda i: need[i])
        for k in range(1, n):
            head = set(ranked[:k])
            labellings.add(tuple(int((i in head) != (0 in head)) for i in range(n)))
    best = None
    for labels in labellings:
        centers, costs = [], []
        for b in range(max(labels) + 1):
            group = tuple(sorted(p for p, label in zip(prof.agents, labels) if label == b))
            cost, center = reference_group_optimum(group, prof.metric, objective)
            centers.append(center)
            costs.append(cost)
        padded = tuple(centers) + (centers[-1],) * (2 - len(centers))
        if best is None or (max(costs), padded, labels) < best:
            best = (max(costs), padded, labels)
    solution = Solution(best[1], tuple(label + 1 for label in best[2]))
    return evaluate(prof, solution, objective), solution


def searched_optimum(prof, m, objective):
    """The unbounded scan of the family optimal_welfare searches: corner
    splits for two Manhattan facilities under the max, and every partition
    for the other cases these tests draw."""
    if prof.metric is Metric.MANHATTAN and objective is WelfareObjective.MAX and m == 2:
        return corner_split_optimum(prof)
    return full_enumeration_optimum(prof, m, objective)


@settings(deadline=None, max_examples=60)
@given(
    pts=st.one_of(_uniform, _grid, _collinear, _duplicates),
    scale=st.sampled_from((1.0, 1e-6, 1e6)),
    objective=st.sampled_from(list(WelfareObjective)),
)
def test_bounded_line_split_search_matches_the_full_scan_bit_for_bit(pts, scale, objective):
    prof = AgentProfile(tuple((x * scale, y * scale) for x, y in pts))
    assert repr(optimal_welfare(prof, FacilitySpec(2), objective)) == repr(
        line_split_optimum(prof, objective)
    )


@st.composite
def _enumerated_cases(draw):
    """A profile, facility count and objective for the partition searches:
    any but two facilities on a 2-d Euclidean profile, which take line
    splits.  Two Manhattan facilities under the max take corner splits and
    are compared with corner_split_optimum, the rest with the full
    enumeration.  Agents repeat points from a small pool to make
    duplicates."""
    metric = draw(st.sampled_from(list(Metric)))
    m = draw(st.sampled_from((2, 3)))
    objective = draw(st.sampled_from(list(WelfareObjective)))
    dims = (1, 2) if objective is WelfareObjective.MAX else (1, 2, 3)
    if metric is Metric.EUCLIDEAN and m == 2:
        dims = tuple(d for d in dims if d != 2)
    dim = draw(st.sampled_from(dims))
    coordinate = st.one_of(st.integers(-3, 3).map(float), _coordinate)
    point = st.tuples(*[coordinate] * dim)
    pool = draw(st.lists(point, min_size=1, max_size=4))
    agents = draw(
        st.lists(st.one_of(st.sampled_from(pool), point), min_size=1, max_size=8 if m == 2 else 6)
    )
    return AgentProfile(tuple(agents), metric), m, objective


@settings(deadline=None, max_examples=150)
@given(case=_enumerated_cases())
def test_partition_oracle_matches_the_reference_bit_for_bit(case):
    prof, m, objective = case
    assert repr(optimal_welfare(prof, FacilitySpec(m), objective)) == repr(
        searched_optimum(prof, m, objective)
    )


def test_tied_interior_agent_joins_the_first_group_in_restricted_growth_order():
    # in the full enumeration's winner, (1, 2, 1, 2, 1), agent 5 lies inside
    # both groups' rotated bounding boxes, so it joins either group without
    # moving a centre or changing the max.  Two Manhattan facilities under
    # the max search corner splits only, and of the four partitions that
    # cost 3 only (1, 1, 1, 2, 1) is a corner split: agent 4 is the last
    # of both corner orders (agents 2, 1, 5, 3, 4 and 3, 5, 2, 1, 4), and
    # agent 5 stays in the first group with agents 1-3
    prof = AgentProfile(
        ((1.0, 5.0), (1.0, 2.0), (2.0, 0.0), (6.0, 3.0), (3.0, 2.0)), Metric.MANHATTAN
    )
    objective = WelfareObjective.MAX
    value, sol = optimal_welfare(prof, FacilitySpec(2), objective)
    assert repr((value, sol)) == repr(corner_split_optimum(prof))
    assert (value, sol.assignment) == (3.0, (1, 1, 1, 2, 1))
    assert sol.locations == ((1.5, 2.5), (6.0, 3.0))
    full_value, full_sol = full_enumeration_optimum(prof, 2, objective)
    assert (full_value, full_sol.assignment) == (value, (1, 2, 1, 2, 1))
    later = (1, 2, 1, 2, 2)
    groups = [tuple(sorted(p for p, b in zip(prof.agents, later) if b == k)) for k in (1, 2)]
    solved = [reference_group_optimum(g, prof.metric, objective) for g in groups]
    assert tuple(center for _, center in solved) == full_sol.locations
    assert max(cost for cost, _ in solved) == value


@st.composite
def _pruned_search_cases(draw):
    """A profile, facility count and objective for the partition search,
    up to the agent cap: integer grids, duplicate agents, and coordinates
    scaled by 1e-6 or 1e6.  Two facilities on a 2-d Euclidean profile take
    line splits and are left out; two Manhattan facilities under the max
    take corner splits, drawn here up to the partition cap."""
    metric = draw(st.sampled_from(list(Metric)))
    m = draw(st.sampled_from((2, 3, 4)))
    objective = draw(st.sampled_from(list(WelfareObjective)))
    dims = (1, 2) if objective is WelfareObjective.MAX else (1, 2, 3)
    if metric is Metric.EUCLIDEAN and m == 2:
        dims = tuple(d for d in dims if d != 2)
    dim = draw(st.sampled_from(dims))
    scale = draw(st.sampled_from((1.0, 1e-6, 1e6)))
    coordinate = st.one_of(st.integers(-4, 4).map(float), st.floats(-100.0, 100.0))
    point = st.tuples(*[coordinate] * dim)
    pool = draw(st.lists(point, min_size=1, max_size=5))
    # the reference enumerates m^n labellings
    most = {2: PARTITION_ORACLE_MAX_AGENTS, 3: 8, 4: 7}[m]
    agents = draw(st.lists(st.one_of(st.sampled_from(pool), point), min_size=1, max_size=most))
    agents = tuple(tuple(c * scale for c in p) for p in agents)
    return AgentProfile(agents, metric), m, objective


@settings(deadline=None, max_examples=100)
@given(case=_pruned_search_cases())
def test_pruned_search_matches_the_reference_bit_for_bit(case):
    prof, m, objective = case
    assert repr(optimal_welfare(prof, FacilitySpec(m), objective)) == repr(
        searched_optimum(prof, m, objective)
    )


@st.composite
def _past_two_to_the_512_cases(draw):
    """A profile, facility count and objective with coordinates past 2^512,
    half of them two facilities under the total on a 2-d Euclidean
    profile, which take line splits.  Two Manhattan facilities under the
    max take corner splits.  The Euclidean max is drawn in 1-d only: the
    enclosing circle's circumcentre overflows at these scales."""
    if draw(st.booleans()):
        metric, m, objective, dim = Metric.EUCLIDEAN, 2, WelfareObjective.TOTAL, 2
    else:
        metric = draw(st.sampled_from(list(Metric)))
        m = draw(st.sampled_from((2, 3)))
        objective = draw(st.sampled_from(list(WelfareObjective)))
        dims = (1, 2) if objective is WelfareObjective.MAX else (1, 2, 3)
        if metric is Metric.EUCLIDEAN:
            dims = (1,) if objective is WelfareObjective.MAX else (1, 3) if m == 2 else dims
        dim = draw(st.sampled_from(dims))
    scale = draw(st.sampled_from((2.0**513, -(2.0**600), 1e300)))
    coordinate = st.one_of(st.integers(-4, 4).map(float), st.floats(-100.0, 100.0))
    point = st.tuples(*[coordinate] * dim)
    pool = draw(st.lists(point, min_size=1, max_size=4))
    agents = draw(
        st.lists(st.one_of(st.sampled_from(pool), point), min_size=1, max_size=8 if m == 2 else 6)
    )
    agents = tuple(tuple(c * scale for c in p) for p in agents)
    return AgentProfile(agents, metric), m, objective


@settings(deadline=None, max_examples=60)
@given(case=_past_two_to_the_512_cases())
def test_past_two_to_the_512_nothing_is_cut(case):
    # the slack is infinite there, so the searches solve every partition,
    # line split or corner split, ranked or not, and the tie-break keeps the
    # reference's
    prof, m, objective = case
    assert repr(optimal_welfare(prof, FacilitySpec(m), objective)) == repr(
        searched_optimum(prof, m, objective)
    )


@st.composite
def _corner_cases(draw):
    """A Manhattan profile of 1-d or 2-d agents up to the partition cap:
    integer-grid, uniform and duplicate coordinates, scaled by 1, 1e-6 or
    1e6."""
    dim = draw(st.sampled_from((1, 2)))
    scale = draw(st.sampled_from((1.0, 1e-6, 1e6)))
    coordinate = st.one_of(st.integers(-4, 4).map(float), st.floats(-100.0, 100.0))
    point = st.tuples(*[coordinate] * dim)
    pool = draw(st.lists(point, min_size=1, max_size=5))
    agents = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), point),
            min_size=1,
            max_size=PARTITION_ORACLE_MAX_AGENTS,
        )
    )
    return AgentProfile(tuple(tuple(c * scale for c in p) for p in agents), Metric.MANHATTAN)


@settings(deadline=None, max_examples=100)
@given(prof=_corner_cases())
# the corner splits' best value is a quarter of an ulp of 83.44 above the
# full enumeration's here
@example(
    prof=AgentProfile(
        ((14.65, 57.83), (51.37, 53.95), (39.78, 40.46), (78.83, 62.64), (83.44, 61.13)),
        Metric.MANHATTAN,
    )
)
def test_corner_splits_are_within_the_derived_slack_of_the_full_enumeration(prof):
    objective = WelfareObjective.MAX
    value, sol = optimal_welfare(prof, FacilitySpec(2), objective)
    assert value == evaluate(prof, sol, objective)
    full, _ = full_enumeration_optimum(prof, 2, objective)
    # the corner splits are some of the partitions, and some of them is
    # optimal up to the 18 ulp(M) that optimal_welfare derives
    ulp = math.ulp(max(abs(c) for p in prof.agents for c in p))
    assert full <= value <= full + 18 * ulp


class TestCornerSplits:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_cap_is_checked_before_ranking(self, monkeypatch, dim):
        def refuse(points, top):
            raise AssertionError("corner orders ranked past the cap")

        monkeypatch.setattr(welfare, "_corner_orders", refuse)
        agents = tuple((float(i), float(i % 3))[:dim] for i in range(LINE_SPLIT_MAX_AGENTS + 1))
        prof = AgentProfile(agents, Metric.MANHATTAN)
        with pytest.raises(OracleCapError, match="capped at 30 agents, got 31"):
            optimal_welfare(prof, FacilitySpec(2), WelfareObjective.MAX)

    def test_thirty_agents_in_two_clusters(self):
        rng = random.Random(30)
        clusters = [
            tuple((cx + rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(15))
            for cx in (0.0, 100.0)
        ]
        agents = tuple(p for pair in zip(*clusters) for p in pair)
        prof = AgentProfile(agents, Metric.MANHATTAN)
        value, sol = optimal_welfare(prof, FacilitySpec(2), WelfareObjective.MAX)
        assert sol.assignment == (1, 2) * 15
        alone = [
            optimal_welfare(AgentProfile(c, Metric.MANHATTAN), FacilitySpec(1), "max")
            for c in clusters
        ]
        assert sol.locations == tuple(s.locations[0] for _, s in alone)
        assert value == max(v for v, _ in alone)

    def test_needs_past_the_float_range_are_ranked_on_scaled_points(self):
        agents = (
            (1.7e308, 1.7e308), (1.6e308, 1.7e308), (0.0, 0.0), (1.0, 1.0), (1.7e308, 1.6e308)
        )
        # x + y overflows on the far agents, so their needs would read inf or
        # NaN; on the agents scaled by 2^-4 nothing overflows, and the order
        # is the one scaling by 2^-3 gives
        assert not all(math.isfinite(x + y) for x, y in agents)
        scaled = tuple((x / 16, y / 16) for x, y in agents)
        orders = welfare._corner_orders(agents, 1.7e308)
        assert orders == welfare._corner_orders(scaled, 1.7e308 / 16)
        prof = AgentProfile(agents, Metric.MANHATTAN)
        value, sol = optimal_welfare(prof, FacilitySpec(2), WelfareObjective.MAX)
        assert repr((value, sol)) == repr(full_enumeration_optimum(prof, 2, WelfareObjective.MAX))
        assert sol.assignment == (1, 1, 2, 2, 1)


@pytest.mark.parametrize(
    "agents, metric",
    [
        # a needle-thin triangle whose enclosing circle's value exceeds that
        # of the circle around it and the interior agent 7 by 7e-12 relative
        (
            (
                (50.55688586495703, 50.04187633145736),
                (50.55688459504355, 50.04187733899522),
                (49.62458580466496, 48.86679480340068),
                (0.0, 0.0),
                (1.0, 0.0),
                (2.0, 0.0),
                (50.3538817092219, 49.78600862564652),
            ),
            Metric.EUCLIDEAN,
        ),
        # rotated-box centres near 1e6 are rounded by an ulp of 1e6, so the
        # group of agents 1-3 costs 1.5e-10 more than with agent 7 in it
        (
            (
                (1000000.0000000003, 300000.0000000001),
                (1000000.0000000013, 299999.9999999994),
                (1000000.3500000014, 300000.0000000013),
                (0.0, 0.0),
                (0.2, 0.0),
                (0.4, 0.0),
                (999999.9999999999, 300000.00000000035),
            ),
            Metric.MANHATTAN,
        ),
    ],
    ids=["needle-circle", "offset-box"],
)
def test_a_tie_is_not_cut_by_a_partial_group_that_rounds_high(agents, metric):
    # agent 5 joins either small group at the same max, and the later
    # partition has the smaller facility tuple; a partial group of agents
    # 1-3 rounding above the winner's value must not cut the winner
    prof = AgentProfile(agents, metric)
    value, sol = optimal_welfare(prof, FacilitySpec(3), WelfareObjective.MAX)
    assert repr((value, sol)) == repr(full_enumeration_optimum(prof, 3, WelfareObjective.MAX))
    assert sol.assignment == (1, 1, 1, 2, 3, 3, 1)


def _two_clusters(n):
    rng = random.Random(n)
    return tuple(
        (100.0 * (i % 2) + rng.uniform(-5, 5), rng.uniform(-5, 5)) for i in range(n)
    )


@pytest.mark.parametrize("objective", list(WelfareObjective))
@pytest.mark.parametrize(
    "metric, m",
    [(Metric.MANHATTAN, 2), (Metric.MANHATTAN, 3), (Metric.EUCLIDEAN, 2), (Metric.EUCLIDEAN, 3)],
    ids=["manhattan", "manhattan-three", "line-splits", "euclidean-three"],
)
def test_pruning_solves_fewer_groups_than_the_full_search(monkeypatch, metric, m, objective):
    solved = []
    kernel = welfare._one_facility_centre

    def counting(pts, metric, objective):
        solved.append(len(pts))
        return kernel(pts, metric, objective)

    monkeypatch.setattr(welfare, "_one_facility_centre", counting)
    prof = AgentProfile(_two_clusters(PARTITION_ORACLE_MAX_AGENTS), metric)
    _, sol = optimal_welfare(prof, FacilitySpec(m), objective)
    if m == 2:
        assert sol.assignment == (1, 2) * 5
    # the full search solves every nonempty group once, and the unbounded
    # line-split scan every group of a split
    if metric is Metric.EUCLIDEAN and m == 2:
        full = len({mask for masks in _line_splits(prof.agents) for mask in masks})
    else:
        full = 2**PARTITION_ORACLE_MAX_AGENTS - 1
    assert len(solved) < full
    if metric is Metric.MANHATTAN:
        # Manhattan bounds call no kernel: with two facilities only the
        # winner's groups are solved, and with three the groups of the few
        # partitions that tie with a split cluster (bounding by the kernels'
        # own values solves 92 to 115 groups here)
        assert len(solved) <= {2: 2, 3: 25}[m]


@st.composite
def _needles(draw):
    """A needle-thin triangle, long side 0.1-100 and height 1e-9 to 1e-2 of
    it, with up to three agents on its long side."""
    x, y = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    length = draw(st.floats(0.1, 100.0))
    angle = draw(st.floats(0.0, 2 * math.pi))
    height = length * draw(st.sampled_from((1e-9, 1e-6, 1e-4, 1e-2)))
    ux, uy = math.cos(angle), math.sin(angle)
    apex = draw(st.floats(0.3, 0.7)) * length
    along = [length * t for t in draw(st.lists(st.floats(0.0, 1.0), max_size=3))]
    return [(x, y), (x + length * ux, y + length * uy),
            (x + apex * ux - height * uy, y + apex * uy + height * ux)] + [
        (x + t * ux, y + t * uy) for t in along
    ]


@settings(deadline=None, max_examples=200)
@given(
    pts=st.one_of(
        _uniform, _grid, _collinear, _duplicates, _needles(),
        st.just(NEAR_COLLINEAR),
    ),
    scale=st.sampled_from((1.0, 1e-6, 1e6)),
    data=st.data(),
)
def test_group_bound_never_exceeds_the_computed_group_value(pts, scale, data):
    pts = [(x * scale, y * scale) for x, y in pts]
    n = len(pts)
    mask = data.draw(st.integers(1, (1 << n) - 1))
    group = sorted(p for i, p in enumerate(pts) if mask >> i & 1)
    pairs = _pairs_longest_first(pts)
    for objective in WelfareObjective:
        total = objective is WelfareObjective.TOTAL
        try:
            center = welfare._one_facility_centre(group, Metric.EUCLIDEAN, objective)
        except ConvergenceError as exc:
            # a point's cost is no lower than the optimum either
            center = exc.best
        costs = [math.dist(p, center) for p in group]
        value = sum(costs) if total else max(costs)
        # bound <= OPT (1 + 4 n eps) and OPT <= value (1 + 4 n eps), as
        # optimal_welfare derives
        assert _group_bound(pairs, mask, total) <= value * (1 + 8 * n * 2.0**-53)


def _manhattan_group_value(group, objective):
    """The computed Manhattan value of a group of points at the kernel's
    centre, as optimal_welfare computes it."""
    group = sorted(group)
    center = welfare._one_facility_centre(group, Metric.MANHATTAN, objective)
    costs = [distance(p, center, Metric.MANHATTAN) for p in group]
    return sum(costs) if objective is WelfareObjective.TOTAL else max(costs)


def _total_slack(dim, n):
    """The two-way relative slack between a grown Manhattan total bound and
    the computed group value that optimal_welfare derives."""
    return 2 * (dim + 2 * n + 1) * 2.0**-53


@settings(deadline=None, max_examples=200)
@given(
    pts=st.one_of(_uniform, _grid, _collinear, _duplicates),
    scale=st.sampled_from((1.0, 1e-6, 1e6)),
    offset=st.sampled_from((0.0, 1e6)),
    dim=st.sampled_from((1, 2)),
    data=st.data(),
)
def test_manhattan_bound_is_within_the_slack_of_the_computed_group_value(
    pts, scale, offset, dim, data
):
    pts = [(x * scale + offset, y * scale + offset)[:dim] for x, y in pts]
    n = len(pts)
    mask = data.draw(st.integers(1, (1 << n) - 1))
    # the group grown one agent at a time, in a drawn order
    joined = data.draw(st.permutations([i for i in range(n) if mask >> i & 1]))
    group = [pts[i] for i in joined]
    ulp = math.ulp(max(abs(c) for p in pts for c in p))
    for objective in WelfareObjective:
        total = objective is WelfareObjective.TOTAL
        bound = welfare._sweep(welfare._manhattan_growth(pts, total), joined)[-1]
        value = _manhattan_group_value(group, objective)
        # the two-way slacks that optimal_welfare derives
        if total:
            assert abs(bound - value) <= _total_slack(dim, n) * value
        else:
            assert abs(bound - value) <= 13 * ulp


def _exact_median_total(points):
    """The exact optimal Manhattan total of a group: per axis, the sum of
    its deviations from its lower median there."""
    cost = 0
    for column in zip(*points):
        xs = sorted(column)
        mid = xs[(len(xs) - 1) // 2]
        cost += sum(abs(x - mid) for x in xs)
    return cost


_signed_coordinate = st.one_of(
    st.floats(0.0, 100.0),
    st.integers(-4, 4).map(float),
    st.sampled_from((0.0, -0.0)),
)


@settings(deadline=None, max_examples=300)
@given(dim=st.integers(1, 3), data=st.data())
def test_adding_an_agent_raises_the_total_by_its_distance_to_the_median_box(dim, data):
    point = st.tuples(*[_signed_coordinate] * dim)
    pool = data.draw(st.lists(point, min_size=1, max_size=8))
    group = pool + data.draw(st.lists(st.sampled_from(pool), max_size=3))
    x = data.draw(st.one_of(point, st.sampled_from(group)))
    # exact arithmetic: the identity, not its rounding
    group = [tuple(map(Fraction, p)) for p in group]
    x = tuple(map(Fraction, x))
    rise = 0
    for k, c in enumerate(x):
        xs = sorted(p[k] for p in group)
        lower, upper = xs[(len(xs) - 1) // 2], xs[len(xs) // 2]
        rise += max(lower - c, c - upper, 0)
    assert _exact_median_total(group + [x]) - _exact_median_total(group) == rise


@st.composite
def _sweep_cases(draw):
    """Points of 1-d to 3-d under the total and 1-d or 2-d under the max:
    uniform, integer-grid and signed-zero coordinates, duplicate agents,
    scaled by 1, 1e-300, 1e300 or 1e306, where sums and u = x + y
    overflow; and an order of the agents to sweep them in."""
    total = draw(st.booleans())
    dim = draw(st.integers(1, 3 if total else 2))
    point = st.tuples(*[_signed_coordinate] * dim)
    pool = draw(st.lists(point, min_size=1, max_size=10))
    agents = pool + draw(st.lists(st.sampled_from(pool), max_size=4))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e300, 1e306)))
    agents = [tuple(c * scale for c in p) for p in agents]
    line = draw(st.permutations(range(len(agents))))
    return agents, line, total


def _mask_range(points, mask):
    """The Manhattan max bound of the group of agents in mask, read off the
    mask in index order: half the larger of its u and v ranges, with
    (u, v) = (x + y, x - y), or (x, x) in 1-d."""
    group = [p for i, p in enumerate(points) if mask >> i & 1]
    us = [p[0] + p[-1] if len(p) == 2 else p[0] for p in group]
    vs = [p[0] - p[-1] if len(p) == 2 else p[0] for p in group]
    return max(max(us) - min(us), max(vs) - min(vs)) / 2.0


def _within(bound, value, slack):
    """bound and value differ by at most slack relative, both ways; a side
    that overflowed to inf needs the other within slack of the float's
    end."""
    end = sys.float_info.max / (1 + slack)
    return (bound <= value * (1 + slack) or value >= end) and (
        value <= bound * (1 + slack) or bound >= end
    )


@settings(deadline=None, max_examples=300)
@given(case=_sweep_cases())
def test_swept_bounds_are_the_per_mask_bounds(case):
    agents, line, total = case
    grow = welfare._manhattan_growth(agents, total)
    heads, tails = welfare._sweep(grow, line), welfare._sweep(grow, line[::-1])
    assert len(heads) == len(tails) == len(agents)
    for j, (head, tail) in enumerate(zip(heads, tails), 1):
        for value, part in ((head, line[:j]), (tail, line[-j:])):
            if total:
                # grown in another order than the kernel sums, so equal
                # within the slack, not bit for bit
                group = [agents[i] for i in part]
                slack = _total_slack(len(agents[0]), len(agents))
                assert _within(value, _manhattan_group_value(group, WelfareObjective.TOTAL), slack)
            else:
                # the same float, bit for bit, NaN and the sign of a zero included
                assert repr(value) == repr(_mask_range(agents, sum(1 << i for i in part)))


@st.composite
def _planar_growth_cases(draw):
    """2-d points as _sweep_cases draws them, and the steps of a walk over
    them: each grows an earlier step's block, or a new one, by a drawn
    agent, so that siblings share their parent's state."""
    pool = draw(st.lists(st.tuples(_signed_coordinate, _signed_coordinate), min_size=1, max_size=10))
    agents = pool + draw(st.lists(st.sampled_from(pool), max_size=4))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e300, 1e306)))
    agents = [(x * scale, y * scale) for x, y in agents]
    line = draw(st.permutations(range(len(agents))))
    steps = draw(
        st.lists(
            st.tuples(st.integers(-1, 30), st.integers(0, len(agents) - 1)), max_size=30
        )
    )
    return agents, line, steps


@settings(deadline=None, max_examples=300)
@given(case=_planar_growth_cases())
def test_the_planar_total_growth_is_the_generic_step_bit_for_bit(case):
    agents, line, steps = case
    planar, generic = welfare._planar_total_growth(agents), welfare._total_growth(agents)
    assert welfare._manhattan_growth(agents, True).__qualname__ == planar.__qualname__
    assert repr(welfare._sweep(planar, line)) == repr(welfare._sweep(generic, line))
    # a walk's blocks: a step grows the block of an earlier step, or a new
    # one where its index is past them
    grown = []
    for parent, i in steps:
        old = grown[parent] if 0 <= parent < len(grown) else (None, None)
        block = planar(old[0], i), generic(old[1], i)
        (low, xs, ys), (want, columns) = block
        assert repr((low, [xs, ys])) == repr((want, columns))
        grown.append(block)


_planar_total_cases = st.tuples(
    st.one_of(
        _uniform,
        _grid,
        _duplicates,
        st.lists(
            st.tuples(_signed_coordinate, _signed_coordinate), min_size=1, max_size=10
        ),
    ),
    st.sampled_from((1.0, 1e-300, 1e300, 1e306)),
    st.sampled_from((2, 3)),
)


def _oracle_outcome(prof, m, objective):
    """optimal_welfare's answer, or its failure."""
    try:
        return repr(optimal_welfare(prof, FacilitySpec(m), objective))
    except OracleCapError as exc:
        return str(exc)


@settings(deadline=None, max_examples=150)
@given(case=_planar_total_cases)
def test_the_planar_total_growth_keeps_every_optimum(case):
    pts, scale, m = case
    prof = AgentProfile(tuple((x * scale, y * scale) for x, y in pts[:8]), Metric.MANHATTAN)
    planar = _oracle_outcome(prof, m, WelfareObjective.TOTAL)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(welfare, "_planar_total_growth", welfare._total_growth)
        assert _oracle_outcome(prof, m, WelfareObjective.TOTAL) == planar


def test_a_solver_failure_counts_only_in_groups_the_search_reaches(monkeypatch):
    prof = AgentProfile(_two_clusters(10))
    total = WelfareObjective.TOTAL
    expected = optimal_welfare(prof, FacilitySpec(2), total)
    kernel = welfare._geometric_median

    def mixed(pts):
        return len({x > 50.0 for x, _ in pts}) == 2

    def failing_on(which):
        def median(pts):
            if which(pts):
                raise ConvergenceError("geometric median did not converge", best=pts[0])
            return kernel(pts)

        return median

    # the unbounded scan solves the one-group split, which mixes the two
    # clusters; the bound of a mixed group is at least its longest pair,
    # over 80, and the optimum is below that, so the search skips them all
    assert (2**10 - 1,) in _line_splits(prof.agents)
    assert expected[0] < 80.0
    monkeypatch.setattr(welfare, "_geometric_median", failing_on(mixed))
    assert repr(optimal_welfare(prof, FacilitySpec(2), total)) == repr(expected)
    # a group of the winning split does fail the search
    monkeypatch.setattr(
        welfare, "_geometric_median", failing_on(lambda pts: len(pts) == 5 and not mixed(pts))
    )
    with pytest.raises(ConvergenceError):
        optimal_welfare(prof, FacilitySpec(2), total)


def test_many_facilities_hold_no_partition_list():
    rng = random.Random(10)
    agents = tuple((rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(10))
    prof = AgentProfile(agents, Metric.MANHATTAN)
    tracemalloc.start()
    try:
        optimal_welfare(prof, FacilitySpec(10), WelfareObjective.TOTAL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Bell(10) = 115 975 partitions as tuples would take about 15 MB
    assert peak < 1_000_000


# integers, ordinary floats and the ends of the float range
_spread = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-100.0, 100.0),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
)


# up to 12 points for the scan alone: uniform, on a small integer grid,
# where many triples are collinear, repeats of a few points, and spread to
# the ends of the float range, where determinants overflow or underflow
_scan_points = st.one_of(
    st.lists(st.tuples(_spread, _spread), min_size=1, max_size=12),
    st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=12),
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=12
    ).map(_floats),
    st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    ),
)


class TestLineSplits:
    @settings(deadline=None, max_examples=300)
    @given(pts=_scan_points)
    def test_the_planar_scan_is_the_tuple_keyed_scan(self, pts):
        assert _line_splits(pts) == reference_line_splits(pts)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_general_position_gives_one_split_per_pair_plus_one(self, n):
        rng = random.Random(n)
        splits = _line_splits([(rng.random(), rng.random()) for _ in range(n)])
        assert len(splits) == math.comb(n, 2) + 1
        assert [masks[0] for masks in splits] == sorted(masks[0] for masks in splits)

    def test_collinear_points_split_only_along_the_line(self):
        ts = (3, 0, 5, 1, 4, 2)
        splits = _line_splits([(float(t), 2.0 * t) for t in ts])
        expected = {(0,) * 6} | {
            tuple(int(t >= cut) ^ int(ts[0] >= cut) for t in ts) for cut in range(1, 6)
        }
        assert splits == sorted(_as_masks(labels) for labels in expected)

    def test_overflowing_determinants_take_the_exact_stage(self):
        # each product overflows, so the float determinant is inf - inf; the
        # three agents lie on one line
        splits = _line_splits([(1e308, -1e308), (-1e308, 1e308), (0.0, 0.0)])
        assert splits == [(0b001, 0b110), (0b101, 0b010), (0b111,)]

    def test_coincident_points_give_one_split(self):
        assert _line_splits([(1.0, 1.0)] * 4) == [(0b1111,)]

    def test_orientation_is_exact_where_the_float_determinant_is_wrong(self):
        u = 2.0**-53
        a, b, c = (24.0, 24.0), (12.0, 12.0), (0.5 + 41 * u, 0.5 + 48 * u)
        floating = (a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0])
        fa, fb, fc = ([Fraction(x) for x in p] for p in (a, b, c))
        exact = (fb[0] - fa[0]) * (fc[1] - fa[1]) - (fb[1] - fa[1]) * (fc[0] - fa[0])
        assert exact < 0 < floating
        for p, q, r in itertools.permutations((a, b, c)):
            fp, fq, fr = ([Fraction(x) for x in pt] for pt in (p, q, r))
            det = (fq[0] - fp[0]) * (fr[1] - fp[1]) - (fq[1] - fp[1]) * (fr[0] - fp[0])
            assert _orientation(p, q, r) == (det > 0) - (det < 0)

    @settings(deadline=None, max_examples=300)
    @given(
        a=st.tuples(_spread, _spread),
        b=st.tuples(_spread, _spread),
        c=st.tuples(_spread, _spread),
        t=st.sampled_from((None, -1.0, 0.5, 2.0, 3.0)),
    )
    def test_orientation_matches_fractions(self, a, b, c, t):
        # t puts c on the line through a and b, up to the rounding of c
        if t is not None:
            c = tuple(p + t * (q - p) for p, q in zip(a, b))
        if not all(map(math.isfinite, c)):
            return
        fa, fb, fc = ([Fraction(x) for x in p] for p in (a, b, c))
        det = (fb[0] - fa[0]) * (fc[1] - fa[1]) - (fb[1] - fa[1]) * (fc[0] - fa[0])
        assert _orientation(a, b, c) == (det > 0) - (det < 0)

    @pytest.mark.parametrize("objective", list(WelfareObjective))
    def test_cap_is_checked_before_enumerating(self, monkeypatch, objective):
        def refuse(points):
            raise AssertionError("line splits enumerated past the cap")

        monkeypatch.setattr(welfare, "_line_splits", refuse)
        agents = tuple((float(i), float(i % 3)) for i in range(LINE_SPLIT_MAX_AGENTS + 1))
        with pytest.raises(OracleCapError, match="capped at 30 agents, got 31"):
            optimal_welfare(AgentProfile(agents), FacilitySpec(2), objective)

    @pytest.mark.parametrize(
        "agents, m",
        [
            (tuple((float(i), 0.0, 0.0) for i in range(11)), 2),
            (tuple((float(i),) for i in range(11)), 2),
            (tuple((float(i), float(i % 3)) for i in range(11)), 3),
        ],
        ids=["3-d", "1-d", "three-facilities"],
    )
    def test_other_shapes_keep_the_enumeration_cap(self, agents, m):
        assert len(agents) == PARTITION_ORACLE_MAX_AGENTS + 1
        with pytest.raises(OracleCapError, match="capped at 10 agents, got 11"):
            optimal_welfare(AgentProfile(agents), FacilitySpec(m), WelfareObjective.TOTAL)

    def test_eleven_agents_on_a_line(self):
        prof = AgentProfile(tuple((float(i), 0.0) for i in range(11)))
        value, _ = optimal_welfare(prof, FacilitySpec(2), WelfareObjective.MAX)
        assert value == 2.5

    @pytest.mark.parametrize("objective", list(WelfareObjective))
    def test_thirty_agents_in_two_clusters(self, objective):
        rng = random.Random(30)
        clusters = [
            tuple((cx + rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(15))
            for cx in (0.0, 100.0)
        ]
        agents = tuple(p for pair in zip(*clusters) for p in pair)
        value, sol = optimal_welfare(AgentProfile(agents), FacilitySpec(2), objective)
        assert sol.assignment == (1, 2) * 15
        alone = [
            optimal_welfare(AgentProfile(c), FacilitySpec(1), objective)[0] for c in clusters
        ]
        fold = sum if objective is WelfareObjective.TOTAL else max
        assert value == pytest.approx(fold(alone), rel=1e-12)


@st.composite
def _split_points(draw):
    """1 to 12 points with _spread coordinates, some of them repeats of
    earlier points and some on the line through the first two."""
    pts = draw(st.lists(st.tuples(_spread, _spread), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 12 - len(pts)))):
        t = draw(st.sampled_from((None, -1.0, 0.5, 2.0)))
        if t is None or len(pts) < 2:
            pts.append(draw(st.sampled_from(pts)))
        else:
            (ax, ay), (bx, by) = pts[:2]
            point = (ax + t * (bx - ax), ay + t * (by - ay))
            if all(map(math.isfinite, point)):
                pts.append(point)
    return draw(st.permutations(pts))


@settings(deadline=None, max_examples=200)
@given(pts=_split_points())
def test_the_one_scan_max_bound_is_the_larger_group_bound(pts):
    pairs = _pairs_longest_first(pts)
    for masks in _line_splits(pts):
        larger = max(_group_bound(pairs, mask, False) for mask in masks)
        assert repr(_split_bound(pairs, masks[0])) == repr(larger)


@pytest.mark.parametrize("n", range(1, 31))
def test_the_split_key_ranks_two_block_partitions_by_their_growth_labels(n):
    # the split key reads the side holding agent 0 from bit 0 up; agent i's
    # growth label is 0 where bit i is set and 1 where it is not, so the
    # labels that break ties between line splits ascend as the keys descend
    def split_key(masks):
        return format(masks[0], f"0{n}b")[::-1]

    rng = random.Random(n)
    full = (1 << n) - 1
    # the side holding agent 0, the whole group among them
    sides = {full} | {rng.getrandbits(n) | 1 for _ in range(200)}
    partitions = [(side,) if side == full else (side, full ^ side) for side in sides]
    rng.shuffle(partitions)
    assert sorted(partitions, key=split_key, reverse=True) == sorted(
        partitions, key=lambda masks: _growth_labels(masks, n)
    )


@pytest.mark.parametrize("objective", list(WelfareObjective))
@pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
def test_the_tie_rule_not_the_split_order_picks_the_winner(monkeypatch, objective, reorder):
    # two line splits tie on value and facility tuple in the first profile
    # under the total, and in the second under the max; under the total,
    # the third has a run of equal bounds that a cutoff lowered to a value
    # below them would cut only in part
    rng = random.Random(7)
    grids = [[(float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(n)]
             for n in range(3, 11)]
    profiles = [
        AgentProfile(tuple(agents))
        for agents in (
            [(3.0, 2.0), (2.0, 3.0), (3.0, 3.0)],
            [(2.0, 1.0), (2.0, 3.0), (1.0, 2.0), (1.0, 2.0)],
            [(0.0, 0.0), (2.0, 3.0), (3.0, 2.0), (1.0, 1.0), (2.0, 3.0), (0.0, 1.0), (3.0, 0.0)],
            *grids,
        )
    ]
    kernel, splits = welfare._one_facility_centre, welfare._line_splits
    solved = []

    def recorded(pts, metric, objective):
        solved.append(tuple(pts))
        return kernel(pts, metric, objective)

    def reordered(points):
        found = splits(points)
        if reorder == "reversed":
            return found[::-1]
        random.Random(len(points)).shuffle(found)
        return found

    monkeypatch.setattr(welfare, "_one_facility_centre", recorded)
    expected = [repr(optimal_welfare(prof, FacilitySpec(2), objective)) for prof in profiles]
    expected_solved = sorted(solved)
    solved.clear()
    monkeypatch.setattr(welfare, "_line_splits", reordered)
    found = [repr(optimal_welfare(prof, FacilitySpec(2), objective)) for prof in profiles]
    assert found == expected
    # splits of equal bound are all solved or all cut, in any order
    assert sorted(solved) == expected_solved


class TestCapacitatedAssignment:
    def test_total_respects_capacity(self):
        prof = AgentProfile(((0.0, 0.0), (1.0, 0.0), (9.0, 0.0)))
        locs = ((0.0, 0.0), (10.0, 0.0))
        assignment, welfare = optimal_capacitated_assignment(prof, locs, (1, 2))
        assert assignment == (1, 2, 2)
        assert welfare == pytest.approx(10.0)

    def test_max_objective(self):
        prof = AgentProfile(((0.0, 0.0), (1.0, 0.0), (9.0, 0.0)))
        locs = ((0.0, 0.0), (10.0, 0.0))
        assignment, welfare = optimal_capacitated_assignment(
            prof, locs, (1, 2), WelfareObjective.MAX
        )
        assert welfare == pytest.approx(9.0)
        assert assignment == (1, 2, 2)

    def test_forced_far_facility(self):
        prof = AgentProfile(((0.0, 0.0), (0.0, 0.0)))
        locs = ((0.0, 0.0), (100.0, 100.0))
        assignment, welfare = optimal_capacitated_assignment(prof, locs, (1, 1))
        assert assignment == (1, 2)
        assert welfare == pytest.approx(100.0 * math.sqrt(2.0))

    def test_spare_capacity_keeps_agents_close(self):
        prof = AgentProfile(((0.0, 0.0), (0.0, 0.0)))
        locs = ((0.0, 0.0), (9.0, 9.0))
        assignment, welfare = optimal_capacitated_assignment(prof, locs, (2, 1))
        assert assignment == (1, 1)
        assert welfare == 0.0

    @pytest.mark.parametrize("bad", [1.9, True])
    def test_non_integral_capacity_rejected(self, bad):
        # truncating 1.9 or True to 1 would run a different instance
        prof = AgentProfile(((0.0, 0.0), (1.0, 0.0), (9.0, 0.0)))
        with pytest.raises(ValueError, match="capacity must be an integer"):
            optimal_capacitated_assignment(prof, ((0.0, 0.0), (10.0, 0.0)), (bad, 2))

    def test_integral_float_capacity_reads_as_int(self):
        prof = AgentProfile(((0.0, 0.0), (1.0, 0.0), (9.0, 0.0)))
        locs = ((0.0, 0.0), (10.0, 0.0))
        assert optimal_capacitated_assignment(prof, locs, (2.0, 2)) == (
            optimal_capacitated_assignment(prof, locs, (2, 2))
        )

    def test_infeasible_capacity_rejected(self):
        prof = AgentProfile(((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(ValueError):
            optimal_capacitated_assignment(prof, ((0.0, 0.0),), (1,))

    def test_capacity_count_must_match_locations(self):
        prof = AgentProfile(((0.0, 0.0),))
        with pytest.raises(ValueError):
            optimal_capacitated_assignment(
                prof, ((0.0, 0.0), (1.0, 1.0)), (1,)
            )

    @settings(deadline=None, max_examples=30)
    @given(
        pts=st.lists(
            st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
            min_size=2,
            max_size=7,
        ),
        data=st.data(),
    )
    def test_matches_scipy_assignment(self, pts, data):
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np

        prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts))
        m = data.draw(st.integers(1, 3))
        locs = tuple(
            (float(data.draw(st.integers(-10, 10))), float(data.draw(st.integers(-10, 10))))
            for _ in range(m)
        )
        caps = [data.draw(st.integers(1, prof.n)) for _ in range(m)]
        if sum(caps) < prof.n:  # keep the instance feasible
            caps[-1] += prof.n - sum(caps)
        _, welfare = optimal_capacitated_assignment(prof, locs, caps)
        # expand each facility into capacity-many columns, solve as matching
        cols = [j for j in range(m) for _ in range(caps[j])]
        cost = np.array(
            [[distance(a, locs[j]) for j in cols] for a in prof.agents]
        )
        rows, chosen = scipy_opt.linear_sum_assignment(cost)
        assert welfare == pytest.approx(cost[rows, chosen].sum(), abs=1e-9)

    def test_cap_is_enforced(self):
        prof = AgentProfile(tuple((float(i), 0.0) for i in range(11)))
        with pytest.raises(OracleCapError):
            optimal_capacitated_assignment(prof, ((0.0, 0.0),), (11,))


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("objective", list(WelfareObjective))
@pytest.mark.parametrize(
    "descriptor",
    [
        MechanismDescriptor.median(),
        MechanismDescriptor.percentile_plane(((0.25, 0.75),)),
        MechanismDescriptor.one_centre(),
        MechanismDescriptor.geometric(),
    ],
    ids=lambda d: d.kind.value,
)
def test_one_facility_ratio_validates_nothing_again(monkeypatch, metric, objective, descriptor):
    # the config is checked when built, the sampled points are finite by
    # construction, and from there on every point is trusted
    config = bench.BenchConfig(trials=5, n_range=(3, 9), seed=3, metric=metric)
    as_point_calls = _counting(monkeypatch, "as_point")
    distance_calls = _counting(monkeypatch, "distance")
    for index in range(5):
        profile = bench.sample_profile(config, index)
        approximation_ratio(descriptor, profile, FacilitySpec(1), objective)
    assert as_point_calls == []
    assert distance_calls == []
    # the counters do see the validating constructor
    AgentProfile(profile.agents, metric)
    assert len(as_point_calls) == profile.n


@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("objective", list(WelfareObjective))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_optimal_solution_is_the_one_the_constructor_would_build(metric, objective, m):
    rng = random.Random(f"{metric.value}:{objective.value}:{m}")
    for _ in range(10):
        # signed zeros on the second axis
        agents = tuple(
            (rng.uniform(-5, 5), rng.choice([0.0, -0.0, rng.uniform(-5, 5)]))
            for _ in range(rng.randint(1, 6))
        )
        prof = AgentProfile(agents, metric)
        _, sol = optimal_welfare(prof, FacilitySpec(m), objective)
        validated = Solution(sol.locations, sol.assignment)
        assert sol == validated and repr(sol) == repr(validated)
        assert type(sol.locations) is tuple and type(sol.assignment) is tuple
        assert all(type(c) is float for p in sol.locations for c in p)
        assert all(type(j) is int for j in sol.assignment)


class TestApproximationRatio:
    def test_median_on_square_total(self):
        # lower-median corner vs geometric median of a unit square
        prof = AgentProfile(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
        report = approximation_ratio(
            MechanismDescriptor.median(), prof, FacilitySpec(1), WelfareObjective.TOTAL
        )
        assert report.mechanism_welfare == pytest.approx(2.0 + math.sqrt(2.0))
        assert report.optimal_welfare == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
        assert report.ratio == pytest.approx(
            (2.0 + math.sqrt(2.0)) / (2.0 * math.sqrt(2.0)), abs=1e-6
        )

    def test_perfect_mechanism_scores_one(self):
        prof = AgentProfile(((0.0,), (2.0,), (4.0,)))
        report = approximation_ratio(
            MechanismDescriptor.percentile_line((0.5,)),
            prof,
            FacilitySpec(1),
            WelfareObjective.TOTAL,
        )
        assert report.ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_a_welfare_past_the_float_range_is_refused(self, metric):
        # both welfares overflow to inf, whose ratio would be NaN
        prof = AgentProfile(WELFARE_PAST_THE_FLOAT_RANGE, metric)
        total = WelfareObjective.TOTAL
        with pytest.raises(OracleCapError, match="mechanism welfare is past the float range"):
            approximation_ratio(MechanismDescriptor.median(), prof, FacilitySpec(1), total)
        with pytest.raises(OracleCapError, match="optimal welfare is past the float range"):
            optimal_welfare(prof, FacilitySpec(1), total)

    def test_median_max_ratio_two_on_skewed_pair(self):
        # median sits on the doubled point, twice as far as the midpoint
        prof = AgentProfile(((0.0, 0.0), (0.0, 0.0), (0.0, 1.0)))
        report = approximation_ratio(
            MechanismDescriptor.median(), prof, FacilitySpec(1), WelfareObjective.MAX
        )
        assert report.mechanism_welfare == pytest.approx(1.0)
        assert report.optimal_welfare == pytest.approx(0.5, abs=1e-9)
        assert report.ratio == pytest.approx(2.0, abs=1e-6)


def _outcome(call):
    """repr of what call returns, or the type and message of what it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _public_ratio(descriptor, profile, spec, objective):
    """approximation_ratio spelled with the public calls: evaluate of
    run_mechanism's solution, refused past the float range, against
    optimal_welfare's value."""
    mechanism = evaluate(profile, run_mechanism(descriptor, profile, spec), objective)
    if not math.isfinite(mechanism):
        raise OracleCapError("mechanism welfare is past the float range")
    return RatioReport.from_welfares(mechanism, optimal_welfare(profile, spec, objective)[0])


# (descriptor, dimension, facilities) for the ratio parity property: the
# one-facility kinds, a two-row percentile whose agents take their nearest
# facility, and the 1-d percentile with one and two facilities
_RATIO_CASES = [
    (MechanismDescriptor.median(), 2, 1),
    (MechanismDescriptor.percentile_plane(((0.25, 0.75),)), 2, 1),
    (MechanismDescriptor.one_centre(), 2, 1),
    (MechanismDescriptor.geometric(), 2, 1),
    (MechanismDescriptor.coordinate_extreme("max"), 2, 1),
    (MechanismDescriptor.coordinate_extreme("min"), 2, 1),
    (MechanismDescriptor.first_agent(), 2, 1),
    (MechanismDescriptor.percentile_plane(((0.25, 0.25), (0.75, 0.75))), 2, 2),
    (MechanismDescriptor.percentile_line((0.5,)), 1, 1),
    (MechanismDescriptor.percentile_line((0.2, 0.8)), 1, 2),
]


@st.composite
def _ratio_cases(draw):
    """A _RATIO_CASES entry, a metric and an objective, and 1 to 7 agents
    drawn from a small pool (duplicates), the integer grid and signed
    zeros."""
    descriptor, dim, m = draw(st.sampled_from(_RATIO_CASES))
    coordinate = st.one_of(
        st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0]), st.floats(-100.0, 100.0)
    )
    point = st.tuples(*[coordinate] * dim)
    pool = draw(st.lists(point, min_size=1, max_size=3))
    agents = draw(st.lists(st.one_of(st.sampled_from(pool), point), min_size=1, max_size=7))
    profile = AgentProfile(tuple(agents), draw(st.sampled_from(list(Metric))))
    return descriptor, profile, FacilitySpec(m), draw(st.sampled_from(list(WelfareObjective)))


@example(
    (
        MechanismDescriptor.percentile_plane(((0.25, 0.25), (0.75, 0.75))),
        AgentProfile(((-0.0, 0.0), (0.0, -0.0), (2.0, -0.0), (2.0, -0.0), (1.0, 1.0))),
        FacilitySpec(2),
        WelfareObjective.TOTAL,
    )
)
@example(
    (
        MechanismDescriptor.one_centre(),
        AgentProfile(((-0.0, 1.0), (1.0, -0.0), (-0.0, 1.0)), Metric.MANHATTAN),
        FacilitySpec(1),
        WelfareObjective.MAX,
    )
)
@settings(deadline=None, max_examples=300)
@given(case=_ratio_cases())
def test_ratio_report_is_the_public_calls_report(case):
    # the ratio checks its arguments once and builds no Solution, yet it
    # reports what the public calls report, bit for bit, or fails as they do
    descriptor, profile, spec, objective = case
    assert _outcome(lambda: approximation_ratio(descriptor, profile, spec, objective)) == (
        _outcome(lambda: _public_ratio(descriptor, profile, spec, objective))
    )


_LINE = AgentProfile(((0.0,), (1.0,), (3.0,)))
_SQUARE = AgentProfile(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
_HUGE_BOX = {
    metric: bench.BenchConfig(trials=20, n_range=(3, 6), box=1e308, seed=1, metric=metric)
    for metric in Metric
}


@pytest.mark.parametrize(
    "descriptor, profile, spec, objective, error",
    [
        # a capacitated spec is refused before the facility count is read
        (
            MechanismDescriptor.median(),
            _SQUARE,
            FacilitySpec(2, (2, 2)),
            "total",
            "ValueError: mechanisms place facilities for uncapacitated specifications; "
            "use optimal_capacitated_assignment for capacitated instances",
        ),
        # the implied facility count is read before the mechanism runs
        (
            MechanismDescriptor.one_centre(),
            _LINE,
            FacilitySpec(2),
            "total",
            "ValueError: one_centre places 1 facilities, spec asks for 2",
        ),
        # the mechanism runs before the objective is read
        (
            MechanismDescriptor.one_centre(),
            _LINE,
            FacilitySpec(1),
            "bogus",
            "ValueError: one_centre runs on 2-d profiles",
        ),
        (
            MechanismDescriptor.median(),
            _SQUARE,
            FacilitySpec(1),
            "bogus",
            "ValueError: 'bogus' is not a valid WelfareObjective",
        ),
        # the mechanism's welfare overflows first, whether the optimum's
        # welfare overflows too (trial 0), its kernel refuses it (trial 1)
        # or it is finite (trial 5)
        *(
            (
                MechanismDescriptor.median(),
                bench.sample_profile(_HUGE_BOX[metric], trial),
                FacilitySpec(1),
                "total",
                "OracleCapError: mechanism welfare is past the float range",
            )
            for metric, trial in (
                (Metric.EUCLIDEAN, 0),
                (Metric.EUCLIDEAN, 1),
                (Metric.EUCLIDEAN, 5),
                (Metric.MANHATTAN, 0),
            )
        ),
    ],
)
def test_ratio_errors_are_the_public_calls_errors(descriptor, profile, spec, objective, error):
    assert _outcome(lambda: approximation_ratio(descriptor, profile, spec, objective)) == error
    assert _outcome(lambda: _public_ratio(descriptor, profile, spec, objective)) == error
