"""Named executable fixtures with frozen expected outcomes.

Every scenario bundles one concrete profile with the quantities the rest of
the package should reproduce on it: facility placements, welfare values,
approximation ratios, manipulation gains, domination margins.  Each
expectation is measured by a single call against the public API and carries
a plain-language note saying what it demonstrates, so a failing report reads
as a claim that stopped being true rather than a bare number mismatch.

Scenario names are stable public identifiers; the command line interface
accepts them verbatim.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Callable

from .axioms import (
    SearchBudget,
    check_anonymity,
    check_pareto,
    check_strategy_proofness,
)
from .geometry import Metric, Point, distance
from .mechanisms import (
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    Solution,
    run_mechanism,
)
from .welfare import (
    WelfareObjective,
    approximation_ratio,
    evaluate,
    optimal_capacitated_assignment,
    optimal_welfare,
)

POSITION_TOLERANCE = 1e-6
WELFARE_TOLERANCE = 1e-9

# enough directions that a smooth one-dimensional minimum cannot hide
_CIRCLE_SAMPLES = 720


@dataclasses.dataclass(frozen=True)
class Expectation:
    """One measurable claim about a scenario."""

    name: str
    expected: Any
    tolerance: float
    note: str
    compute: Callable[["Scenario"], Any]

    def __post_init__(self):
        if not self.name:
            raise ValueError("expectation needs a name")
        if not self.note or not self.note.strip():
            raise ValueError(f"expectation {self.name!r} needs a nonempty note")


@dataclasses.dataclass(frozen=True)
class Scenario:
    name: str
    profile: AgentProfile
    spec: FacilitySpec
    mechanism: MechanismDescriptor | None
    note: str
    expectations: tuple[Expectation, ...]

    def __post_init__(self):
        if not self.note or not self.note.strip():
            raise ValueError(f"scenario {self.name!r} needs a nonempty note")
        if not self.expectations:
            raise ValueError(f"scenario {self.name!r} needs expectations")


@dataclasses.dataclass(frozen=True)
class ExpectationResult:
    name: str
    expected: Any
    measured: Any
    tolerance: float
    passed: bool
    note: str


@dataclasses.dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    results: tuple[ExpectationResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def values_match(expected: Any, measured: Any, tolerance: float) -> bool:
    """Tolerant comparison: exact for bools, None, strings and infinities,
    within tolerance for numbers, elementwise for sequences."""
    if expected is None or measured is None:
        return expected is None and measured is None
    if isinstance(expected, bool) or isinstance(measured, bool):
        return isinstance(expected, bool) and isinstance(measured, bool) and expected == measured
    if isinstance(expected, str) or isinstance(measured, str):
        return expected == measured
    if isinstance(expected, (int, float)) and isinstance(measured, (int, float)):
        if math.isinf(expected) or math.isinf(measured):
            return expected == measured
        return abs(expected - measured) <= tolerance
    if isinstance(expected, (tuple, list)) and isinstance(measured, (tuple, list)):
        return len(expected) == len(measured) and all(
            values_match(e, m, tolerance) for e, m in zip(expected, measured)
        )
    return expected == measured


_REGISTRY: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    if scenario.name in _REGISTRY:
        raise ValueError(f"duplicate scenario name {scenario.name!r}")
    _REGISTRY[scenario.name] = scenario
    return scenario


def list_scenarios() -> list[tuple[str, str]]:
    """Registered (name, note) pairs in registration order."""
    return [(s.name, s.note) for s in _REGISTRY.values()]


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}") from None


def run_scenario(name: str) -> ScenarioReport:
    scenario = get_scenario(name)
    results = []
    for exp in scenario.expectations:
        measured = exp.compute(scenario)
        results.append(
            ExpectationResult(
                name=exp.name,
                expected=exp.expected,
                measured=measured,
                tolerance=exp.tolerance,
                passed=values_match(exp.expected, measured, exp.tolerance),
                note=exp.note,
            )
        )
    return ScenarioReport(scenario=name, results=tuple(results))


def run_all() -> list[ScenarioReport]:
    return [run_scenario(name) for name in _REGISTRY]


# measurement helpers ---------------------------------------------------------

def _solution(scenario: Scenario) -> Solution:
    return run_mechanism(scenario.mechanism, scenario.profile, scenario.spec)


def _facility(scenario: Scenario) -> Point:
    return _solution(scenario).locations[0]


def _locations(scenario: Scenario) -> tuple[Point, ...]:
    return _solution(scenario).locations


def _mechanism_welfare(scenario: Scenario, objective: WelfareObjective) -> float:
    return evaluate(scenario.profile, _solution(scenario), objective)


def _optimal_welfare_value(scenario: Scenario, objective: WelfareObjective) -> float:
    value, _ = optimal_welfare(scenario.profile, scenario.spec, objective)
    return value


def _total_at(profile: AgentProfile, point: Point) -> float:
    return sum(distance(agent, point, profile.metric) for agent in profile.agents)


def _min_total_on_circle(
    profile: AgentProfile, center: Point, radius: float
) -> float:
    """Smallest total distance over a dense sample of the circle boundary.

    Sample zero is the positive x axis direction, so axis-aligned minima are
    hit exactly rather than approximated.
    """
    best = math.inf
    for k in range(_CIRCLE_SAMPLES):
        angle = 2.0 * math.pi * k / _CIRCLE_SAMPLES
        point = (
            center[0] + radius * math.cos(angle),
            center[1] + radius * math.sin(angle),
        )
        best = min(best, _total_at(profile, point))
    return best


# the axiom searches are pure and the scenario fixtures are hashable, so
# repeated expectations can share one search
@functools.lru_cache(maxsize=None)
def _manipulation_search(
    descriptor: MechanismDescriptor,
    profile: AgentProfile,
    spec: FacilitySpec,
    budget: SearchBudget,
):
    return check_strategy_proofness(descriptor, profile, spec, budget)


@functools.lru_cache(maxsize=None)
def _domination_search(profile: AgentProfile, solution: Solution, budget: SearchBudget):
    return check_pareto(profile, solution, budget)


# fixtures --------------------------------------------------------------------

_LOCAL_BUDGET = SearchBudget(grid_resolution=0.5, bounding_box_pad=1.0)


def _thm1_manipulation() -> Scenario:
    profile = AgentProfile(((12.0, 0.0), (0.0, 0.0), (0.0, 2.0), (12.0, 2.0)))
    spec = FacilitySpec(1)
    mechanism = MechanismDescriptor.geometric()
    misreported = profile.with_report(1, (12.0, 2.0))
    honest_total = 4.0 * math.sqrt(37.0)
    detour_total = 2.0 * (math.sqrt(50.0) + math.sqrt(26.0))

    def shifted_solution(_):
        return run_mechanism(mechanism, misreported, spec)

    def manipulation(s):
        return _manipulation_search(mechanism, s.profile, spec, _LOCAL_BUDGET)

    return Scenario(
        name="thm1_manipulation",
        profile=profile,
        spec=spec,
        mechanism=mechanism,
        note=(
            "Four agents on the corners of a 12 by 2 rectangle: the total-distance"
            " minimizer sits at the centre, so the corner agent listed first gains"
            " more than 4 by reporting the corner above itself."
        ),
        expectations=(
            Expectation(
                "facility",
                (6.0, 1.0),
                POSITION_TOLERANCE,
                "the minimizer of total distance is the rectangle centre",
                _facility,
            ),
            Expectation(
                "total_distance",
                honest_total,
                WELFARE_TOLERANCE,
                "every corner is root-37 from the centre",
                lambda s: _mechanism_welfare(s, WelfareObjective.TOTAL),
            ),
            Expectation(
                "cheapest_total_one_unit_out",
                detour_total,
                POSITION_TOLERANCE,
                "one unit from the centre the cheapest direction is the long axis",
                lambda s: _min_total_on_circle(s.profile, (6.0, 1.0), 1.0),
            ),
            Expectation(
                "one_unit_detour_ratio",
                detour_total / honest_total,
                WELFARE_TOLERANCE,
                "the relative cost of the best unit detour",
                lambda s: _min_total_on_circle(s.profile, (6.0, 1.0), 1.0)
                / _mechanism_welfare(s, WelfareObjective.TOTAL),
            ),
            Expectation(
                "detour_ratio_strictly_inside_bounds",
                True,
                0.0,
                "that relative cost lands strictly between 1.0003 and 1.0004",
                lambda s: 1.0003
                < _min_total_on_circle(s.profile, (6.0, 1.0), 1.0)
                / _mechanism_welfare(s, WelfareObjective.TOTAL)
                < 1.0004,
            ),
            Expectation(
                "facility_after_exaggeration",
                (12.0, 2.0),
                POSITION_TOLERANCE,
                "doubling up on the top-right corner drags the facility onto it",
                lambda s: shifted_solution(s).locations[0],
            ),
            Expectation(
                "reported_total_after_exaggeration",
                12.0 + 2.0 * math.sqrt(37.0),
                WELFARE_TOLERANCE,
                "total distance of the reported profile once the facility moves",
                lambda s: evaluate(
                    misreported, shifted_solution(s), WelfareObjective.TOTAL
                ),
            ),
            Expectation(
                "two_unit_moves_all_cost_more_than_24_18",
                True,
                0.0,
                "totals two units out from the dragged facility stay above 24.18,"
                " so the facility cannot sit far from the exaggerated corner",
                lambda s: _min_total_on_circle(misreported, (12.0, 2.0), 2.0) > 24.18,
            ),
            Expectation(
                "manipulating_agent",
                1,
                0.0,
                "the refuter blames the corner agent listed first",
                lambda s: manipulation(s).agent_index,
            ),
            Expectation(
                "best_misreport",
                (12.0, 2.0),
                POSITION_TOLERANCE,
                "the best lie found is the corner above the manipulator",
                lambda s: manipulation(s).misreport,
            ),
            Expectation(
                "manipulation_gain",
                math.sqrt(37.0) - 2.0,
                WELFARE_TOLERANCE,
                "the manipulator's distance drops from root-37 to 2",
                lambda s: manipulation(s).improvement,
            ),
        ),
    )


def _onecentre_manipulation() -> Scenario:
    profile = AgentProfile(((0.0, 1.0), (0.0, 0.0), (0.0, 0.0)))
    spec = FacilitySpec(1)
    mechanism = MechanismDescriptor.one_centre()

    def manipulation(s):
        return _manipulation_search(mechanism, s.profile, spec, _LOCAL_BUDGET)

    return Scenario(
        name="onecentre_manipulation",
        profile=profile,
        spec=spec,
        mechanism=mechanism,
        note=(
            "Two agents at the origin and one a unit above: the smallest enclosing"
            " circle centres halfway up, so the top agent halves its distance by"
            " reporting twice as high."
        ),
        expectations=(
            Expectation(
                "facility",
                (0.0, 0.5),
                POSITION_TOLERANCE,
                "the enclosing-circle centre splits the two occupied points",
                _facility,
            ),
            Expectation(
                "manipulating_agent",
                1,
                0.0,
                "the top agent is the one who gains",
                lambda s: manipulation(s).agent_index,
            ),
            Expectation(
                "best_misreport",
                (0.0, 2.0),
                POSITION_TOLERANCE,
                "stretching the circle upward centres it on the liar's true spot",
                lambda s: manipulation(s).misreport,
            ),
            Expectation(
                "manipulation_gain",
                0.5,
                WELFARE_TOLERANCE,
                "the centre moves from half a unit away to zero",
                lambda s: manipulation(s).improvement,
            ),
            Expectation(
                "facility_after_exaggeration",
                (0.0, 1.0),
                POSITION_TOLERANCE,
                "after the lie the circle centres on the true location",
                lambda s: run_mechanism(
                    mechanism, s.profile.with_report(1, (0.0, 2.0)), spec
                ).locations[0],
            ),
        ),
    )


def _unbounded_ratio_expectations() -> tuple[Expectation, ...]:
    return (
        Expectation(
            "optimal_max_distance",
            0.0,
            WELFARE_TOLERANCE,
            "placing one facility on each occupied point serves everyone exactly",
            lambda s: _optimal_welfare_value(s, WelfareObjective.MAX),
        ),
        Expectation(
            "approximation_ratio_unbounded",
            True,
            0.0,
            "a positive cost against a zero optimum makes the ratio infinite",
            lambda s: approximation_ratio(
                s.mechanism, s.profile, s.spec, WelfareObjective.MAX
            ).unbounded,
        ),
    )


def _thm4_case1() -> Scenario:
    # largest parameter below one is 0.5, so six agents force both picks
    # into the crowd at the origin
    profile = AgentProfile(tuple([(0.0, 0.0)] * 5) + ((1.0, 1.0),))
    return Scenario(
        name="thm4_case1",
        profile=profile,
        spec=FacilitySpec(2),
        mechanism=MechanismDescriptor.percentile_plane(((0.5, 0.5), (0.5, 0.5))),
        note=(
            "Five agents at the origin and one off-diagonal: rank-based picks that"
            " never take the top rank leave both facilities on the crowd and strand"
            " the outlier, while the optimum covers everyone at cost zero."
        ),
        expectations=(
            Expectation(
                "facilities",
                ((0.0, 0.0), (0.0, 0.0)),
                POSITION_TOLERANCE,
                "both facilities land on the crowded origin",
                _locations,
            ),
            Expectation(
                "mechanism_max_distance",
                math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "the stranded agent walks the whole diagonal",
                lambda s: _mechanism_welfare(s, WelfareObjective.MAX),
            ),
        )
        + _unbounded_ratio_expectations(),
    )


def _thm4_case2() -> Scenario:
    profile = AgentProfile(tuple([(1.0, 1.0)] * 5) + ((0.0, 0.0),))
    return Scenario(
        name="thm4_case2",
        profile=profile,
        spec=FacilitySpec(2),
        mechanism=MechanismDescriptor.percentile_plane(((0.5, 0.5), (1.0, 1.0))),
        note=(
            "Five agents at the top corner and one at the origin: a top-rank pick"
            " plus any pick with a positive parameter both land on the crowd, so"
            " the origin agent is stranded despite a zero-cost optimum existing."
        ),
        expectations=(
            Expectation(
                "facilities",
                ((1.0, 1.0), (1.0, 1.0)),
                POSITION_TOLERANCE,
                "both facilities land on the crowded corner",
                _locations,
            ),
            Expectation(
                "mechanism_max_distance",
                math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "the origin agent walks the whole diagonal",
                lambda s: _mechanism_welfare(s, WelfareObjective.MAX),
            ),
        )
        + _unbounded_ratio_expectations(),
    )


def _thm4_case3() -> Scenario:
    profile = AgentProfile(((0.0, 1.0), (1.0, 0.0)))
    return Scenario(
        name="thm4_case3",
        profile=profile,
        spec=FacilitySpec(2),
        mechanism=MechanismDescriptor.percentile_plane(((0.0, 0.0), (1.0, 1.0))),
        note=(
            "Two agents on opposite off-diagonal corners: bottom-rank and top-rank"
            " picks build facilities at empty corners, a unit from everyone, while"
            " the optimum covers both agents exactly."
        ),
        expectations=(
            Expectation(
                "facilities",
                ((0.0, 0.0), (1.0, 1.0)),
                POSITION_TOLERANCE,
                "coordinate-wise extremes assemble two empty corners",
                _locations,
            ),
            Expectation(
                "mechanism_max_distance",
                1.0,
                WELFARE_TOLERANCE,
                "each agent is a unit from the nearest empty corner",
                lambda s: _mechanism_welfare(s, WelfareObjective.MAX),
            ),
        )
        + _unbounded_ratio_expectations(),
    )


def _thm3_construction() -> Scenario:
    profile = AgentProfile(tuple([(0.0, 0.0)] * 4) + ((100.0, 100.0),))
    spec = FacilitySpec(2)
    budget = SearchBudget(grid_resolution=50.0, bounding_box_pad=10.0)
    split = ((0.0, 0.0), (100.0, 100.0))

    def doubled_solution() -> Solution:
        return Solution(((0.0, 0.0), (0.0, 0.0)), (1,) * 5)

    return Scenario(
        name="thm3_construction",
        profile=profile,
        spec=spec,
        mechanism=MechanismDescriptor.percentile_plane(((0.0, 0.0), (1.0, 1.0))),
        note=(
            "Four agents at the origin and one far away: the only undominated"
            " placement serves each cluster on the spot, which is what pins"
            " mechanisms down in the two-facility impossibility argument."
        ),
        expectations=(
            Expectation(
                "mechanism_facilities",
                split,
                POSITION_TOLERANCE,
                "extreme-rank picks place one facility on each cluster",
                _locations,
            ),
            Expectation(
                "optimal_total_distance",
                0.0,
                WELFARE_TOLERANCE,
                "serving each cluster where it stands costs nothing",
                lambda s: _optimal_welfare_value(s, WelfareObjective.TOTAL),
            ),
            Expectation(
                "optimal_facilities",
                split,
                POSITION_TOLERANCE,
                "the welfare oracle picks the same two cluster points",
                lambda s: optimal_welfare(s.profile, s.spec, WelfareObjective.TOTAL)[
                    1
                ].locations,
            ),
            Expectation(
                "split_placement_undominated",
                None,
                0.0,
                "no candidate move improves on serving both clusters exactly",
                lambda s: _domination_search(s.profile, _solution(s), budget),
            ),
            Expectation(
                "doubled_up_placement_dominated",
                split,
                POSITION_TOLERANCE,
                "parking both facilities on the origin is beaten by the split",
                lambda s: _domination_search(
                    s.profile, doubled_solution(), budget
                ).dominating.locations,
            ),
            Expectation(
                "doubling_margin",
                100.0 * math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "the far agent saves the whole diagonal when the split returns",
                lambda s: _domination_search(
                    s.profile, doubled_solution(), budget
                ).improvement,
            ),
        ),
    )


def _capacitated_even() -> Scenario:
    box = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    far = ((100.0, 100.0),) * 4
    profile = AgentProfile(box + far)
    spec = FacilitySpec(2, (4, 4))
    in_box = (0.5, 0.5)
    locations = (in_box, (100.0, 100.0))

    def assignment(s):
        pairing, _ = optimal_capacitated_assignment(
            s.profile, locations, s.spec.capacities
        )
        return pairing

    return Scenario(
        name="capacitated_even",
        profile=profile,
        spec=spec,
        mechanism=None,
        note=(
            "Two capacity-4 facilities, four agents boxed near the origin and four"
            " far away: with no spare capacity the far crowd fills one facility,"
            " the box crowd the other, and fleeing to the far crowd only lengthens"
            " the deserter's own trip."
        ),
        expectations=(
            Expectation(
                "assignment_with_forced_split",
                (1, 1, 1, 1, 2, 2, 2, 2),
                0.0,
                "the box agents fill the near facility, the far agents the far one",
                assignment,
            ),
            Expectation(
                "capacity_loads",
                (4, 4),
                0.0,
                "both facilities run exactly full",
                lambda s: tuple(assignment(s).count(j) for j in (1, 2)),
            ),
            Expectation(
                "total_distance",
                2.0 * math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "each box corner walks half a diagonal to the box centre",
                lambda s: optimal_capacitated_assignment(
                    s.profile, locations, s.spec.capacities
                )[1],
            ),
            Expectation(
                "no_spare_capacity",
                True,
                0.0,
                "total capacity equals the number of agents",
                lambda s: sum(s.spec.capacities) == s.profile.n,
            ),
            Expectation(
                "fleeing_far_backfires",
                True,
                0.0,
                "joining the far crowd would cost a box agent the whole diagonal"
                " instead of half a box diagonal",
                lambda s: distance((0.0, 0.0), (100.0, 100.0))
                > distance((0.0, 0.0), in_box),
            ),
        ),
    )


def _capacitated_odd() -> Scenario:
    profile = AgentProfile(
        ((0.0, 0.0), (0.0, 0.0), (50.0, 50.0))
        + ((100.0, 100.0),) * 3
    )
    spec = FacilitySpec(2, (3, 3))
    split = ((0.0, 0.0), (100.0, 100.0))
    start = AgentProfile(((0.0, 0.0),) * 3 + ((100.0, 100.0),) * 3)
    arrived = AgentProfile(((0.0, 0.0),) * 2 + ((100.0, 100.0),) * 4)

    return Scenario(
        name="capacitated_odd",
        profile=profile,
        spec=spec,
        mechanism=None,
        note=(
            "Two capacity-3 facilities, three agents per cluster, with one origin"
            " agent caught mid-walk along the diagonal: the far facility is already"
            " full, so the walker stays pinned to the origin facility until it"
            " arrives, at which point serving it exactly requires doubling up."
        ),
        expectations=(
            Expectation(
                "start_total_distance",
                0.0,
                WELFARE_TOLERANCE,
                "before anyone moves, both clusters are served on the spot",
                lambda s: optimal_capacitated_assignment(
                    start, split, s.spec.capacities
                )[1],
            ),
            Expectation(
                "assignment_mid_journey",
                (1, 1, 1, 2, 2, 2),
                0.0,
                "the full far facility turns the walker back to the origin one",
                lambda s: optimal_capacitated_assignment(
                    s.profile, split, s.spec.capacities
                )[0],
            ),
            Expectation(
                "capacity_loads",
                (3, 3),
                0.0,
                "both facilities run exactly full",
                lambda s: tuple(
                    optimal_capacitated_assignment(s.profile, split, s.spec.capacities)[
                        0
                    ].count(j)
                    for j in (1, 2)
                ),
            ),
            Expectation(
                "mid_journey_total_distance",
                50.0 * math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "only the walker pays, half the diagonal back to the origin",
                lambda s: optimal_capacitated_assignment(
                    s.profile, split, s.spec.capacities
                )[1],
            ),
            Expectation(
                "arrival_doubling_total_distance",
                200.0 * math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "once four agents crowd the far point, serving them all there"
                " strands the two origin agents a full diagonal away",
                lambda s: optimal_capacitated_assignment(
                    arrived,
                    ((100.0, 100.0), (100.0, 100.0)),
                    s.spec.capacities,
                )[1],
            ),
        ),
    )


def _manhattan_2agent_max() -> Scenario:
    profile = AgentProfile(((0.0, 1.0), (2.0, 0.0)), Metric.MANHATTAN)
    spec = FacilitySpec(1)
    mechanism = MechanismDescriptor.coordinate_extreme("max")
    return Scenario(
        name="manhattan_2agent_max",
        profile=profile,
        spec=spec,
        mechanism=mechanism,
        note=(
            "Two agents under rectilinear distance with the facility on the"
            " coordinate-wise maximum: the empty bounding-box corner survives"
            " every axiom check because stepping toward one agent backs away"
            " from the other."
        ),
        expectations=(
            Expectation(
                "facility",
                (2.0, 1.0),
                POSITION_TOLERANCE,
                "coordinate-wise maxima assemble the top-right box corner",
                _facility,
            ),
            Expectation(
                "anonymity_violation",
                None,
                0.0,
                "swapping the two agents changes nothing",
                lambda s: check_anonymity(s.mechanism, s.profile, s.spec),
            ),
            Expectation(
                "pareto_domination",
                None,
                0.0,
                "any step helping one agent hurts the other",
                lambda s: _domination_search(s.profile, _solution(s), _LOCAL_BUDGET),
            ),
            Expectation(
                "manipulation",
                None,
                0.0,
                "raising a report drags the corner away from the liar",
                lambda s: _manipulation_search(s.mechanism, s.profile, s.spec, _LOCAL_BUDGET),
            ),
        ),
    )


def _manhattan_3agent_median() -> Scenario:
    profile = AgentProfile(((0.0, 2.0), (1.0, 0.0), (2.0, 1.0)), Metric.MANHATTAN)
    spec = FacilitySpec(1)
    mechanism = MechanismDescriptor.median()
    return Scenario(
        name="manhattan_3agent_median",
        profile=profile,
        spec=spec,
        mechanism=mechanism,
        note=(
            "Three agents under rectilinear distance with the facility on the"
            " per-axis median: the interior point survives every axiom check,"
            " the largest profile size for which that is possible."
        ),
        expectations=(
            Expectation(
                "facility",
                (1.0, 1.0),
                POSITION_TOLERANCE,
                "the per-axis medians meet in the interior",
                _facility,
            ),
            Expectation(
                "pareto_domination",
                None,
                0.0,
                "moving along either axis backs away from somebody",
                lambda s: _domination_search(s.profile, _solution(s), _LOCAL_BUDGET),
            ),
            Expectation(
                "manipulation",
                None,
                0.0,
                "medians ignore how far a liar stretches a report",
                lambda s: _manipulation_search(s.mechanism, s.profile, s.spec, _LOCAL_BUDGET),
            ),
            Expectation(
                "anonymity_violation",
                None,
                0.0,
                "medians never depend on agent order",
                lambda s: check_anonymity(s.mechanism, s.profile, s.spec),
            ),
        ),
    )


def _manhattan_3agent_max_dominated() -> Scenario:
    profile = AgentProfile(((0.0, 2.0), (1.0, 0.0), (2.0, 1.0)), Metric.MANHATTAN)
    spec = FacilitySpec(1)

    def min_corner_cert(s):
        sol = run_mechanism(
            MechanismDescriptor.coordinate_extreme("min"), s.profile, s.spec
        )
        return _domination_search(s.profile, sol, _LOCAL_BUDGET)

    return Scenario(
        name="manhattan_3agent_max_dominated",
        profile=profile,
        spec=spec,
        mechanism=MechanismDescriptor.coordinate_extreme("max"),
        note=(
            "The same three rectilinear agents as the median fixture, but with"
            " corner mechanisms: both the max corner and the min corner are"
            " beaten by the interior point, each by a margin of two."
        ),
        expectations=(
            Expectation(
                "facility",
                (2.0, 2.0),
                POSITION_TOLERANCE,
                "coordinate-wise maxima assemble the top-right corner",
                _facility,
            ),
            Expectation(
                "dominating_facility",
                ((1.0, 1.0),),
                POSITION_TOLERANCE,
                "the interior point beats the max corner",
                lambda s: _domination_search(
                    s.profile, _solution(s), _LOCAL_BUDGET
                ).dominating.locations,
            ),
            Expectation(
                "domination_margin",
                2.0,
                WELFARE_TOLERANCE,
                "the middle agent's trip shrinks from three to one",
                lambda s: _domination_search(
                    s.profile, _solution(s), _LOCAL_BUDGET
                ).improvement,
            ),
            Expectation(
                "min_corner_dominating_facility",
                ((1.0, 1.0),),
                POSITION_TOLERANCE,
                "the same interior point beats the min corner too",
                lambda s: min_corner_cert(s).dominating.locations,
            ),
            Expectation(
                "min_corner_domination_margin",
                2.0,
                WELFARE_TOLERANCE,
                "the right-hand agent's trip shrinks from three to one",
                lambda s: min_corner_cert(s).improvement,
            ),
        ),
    )


def _manhattan_4agent_min_dominated() -> Scenario:
    profile = AgentProfile(
        ((0.0, 2.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0)), Metric.MANHATTAN
    )
    spec = FacilitySpec(1)
    # bottom rank on x, second-of-four rank on y; 0.4 selects rank 2 without
    # the floating-point hazard a literal one-third invites
    mechanism = MechanismDescriptor.percentile_plane(((0.0, 0.4),))
    return Scenario(
        name="manhattan_4agent_min_dominated",
        profile=profile,
        spec=spec,
        mechanism=mechanism,
        note=(
            "Four rectilinear agents where a rank-based pick lands on the empty"
            " origin: rank picks stay anonymous and honest, but from four agents"
            " up they can return a placement beaten by an interior point."
        ),
        expectations=(
            Expectation(
                "facility",
                (0.0, 0.0),
                POSITION_TOLERANCE,
                "lowest x rank and second-lowest y rank assemble the origin",
                _facility,
            ),
            Expectation(
                "anonymity_violation",
                None,
                0.0,
                "rank picks never depend on agent order",
                lambda s: check_anonymity(s.mechanism, s.profile, s.spec),
            ),
            Expectation(
                "manipulation",
                None,
                0.0,
                "rank picks ignore how far a liar stretches a report",
                lambda s: _manipulation_search(s.mechanism, s.profile, s.spec, _LOCAL_BUDGET),
            ),
            Expectation(
                "dominating_facility",
                ((1.0, 1.0),),
                POSITION_TOLERANCE,
                "the interior point beats the origin",
                lambda s: _domination_search(
                    s.profile, _solution(s), _LOCAL_BUDGET
                ).dominating.locations,
            ),
            Expectation(
                "domination_margin",
                2.0,
                WELFARE_TOLERANCE,
                "the middle agent's trip shrinks from three to one",
                lambda s: _domination_search(
                    s.profile, _solution(s), _LOCAL_BUDGET
                ).improvement,
            ),
        ),
    )


def _manhattan_median_optimal_total() -> Scenario:
    profile = AgentProfile(
        ((0.0, 0.0), (1.0, 3.0), (4.0, 1.0), (2.0, 2.0), (5.0, 5.0)),
        Metric.MANHATTAN,
    )
    spec = FacilitySpec(1)
    mechanism = MechanismDescriptor.median()
    return Scenario(
        name="manhattan_median_optimal_total",
        profile=profile,
        spec=spec,
        mechanism=mechanism,
        note=(
            "Five scattered rectilinear agents: the per-axis median minimizes"
            " each coordinate's contribution separately, so it is exactly optimal"
            " for total distance and within a factor of two for the maximum."
        ),
        expectations=(
            Expectation(
                "facility",
                (2.0, 2.0),
                POSITION_TOLERANCE,
                "the per-axis medians land on the central agent",
                _facility,
            ),
            Expectation(
                "total_distance",
                15.0,
                WELFARE_TOLERANCE,
                "total rectilinear distance from the median point",
                lambda s: _mechanism_welfare(s, WelfareObjective.TOTAL),
            ),
            Expectation(
                "optimal_total_distance",
                15.0,
                WELFARE_TOLERANCE,
                "the oracle cannot do better than the median point",
                lambda s: _optimal_welfare_value(s, WelfareObjective.TOTAL),
            ),
            Expectation(
                "total_approximation_ratio",
                1.0,
                WELFARE_TOLERANCE,
                "exactly optimal for total distance",
                lambda s: approximation_ratio(
                    s.mechanism, s.profile, s.spec, WelfareObjective.TOTAL
                ).ratio,
            ),
            Expectation(
                "max_distance",
                6.0,
                WELFARE_TOLERANCE,
                "the far corner agent walks six from the median point",
                lambda s: _mechanism_welfare(s, WelfareObjective.MAX),
            ),
            Expectation(
                "optimal_max_distance",
                5.0,
                WELFARE_TOLERANCE,
                "the best single point leaves someone five away",
                lambda s: _optimal_welfare_value(s, WelfareObjective.MAX),
            ),
            Expectation(
                "max_approximation_ratio",
                1.2,
                WELFARE_TOLERANCE,
                "six against five, comfortably inside the factor-two bound",
                lambda s: approximation_ratio(
                    s.mechanism, s.profile, s.spec, WelfareObjective.MAX
                ).ratio,
            ),
            Expectation(
                "max_within_twice_optimal",
                True,
                0.0,
                "per-axis medians at worst double each coordinate's share",
                lambda s: _mechanism_welfare(s, WelfareObjective.MAX)
                <= 2.0 * _optimal_welfare_value(s, WelfareObjective.MAX) + 1e-9,
            ),
        ),
    )


_register(_thm1_manipulation())
_register(_onecentre_manipulation())
_register(_thm4_case1())
_register(_thm4_case2())
_register(_thm4_case3())
_register(_thm3_construction())
_register(_capacitated_even())
_register(_capacitated_odd())
_register(_manhattan_2agent_max())
_register(_manhattan_3agent_median())
_register(_manhattan_3agent_max_dominated())
_register(_manhattan_4agent_min_dominated())
_register(_manhattan_median_optimal_total())
