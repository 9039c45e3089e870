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

def _solution(scenario: Scenario, profile: AgentProfile | None = None) -> Solution:
    """The scenario's mechanism run on its own profile, or on profile."""
    profile = scenario.profile if profile is None else profile
    return run_mechanism(scenario.mechanism, profile, scenario.spec)


def _locations(scenario: Scenario) -> tuple[Point, ...]:
    return _solution(scenario).locations


def _mechanism_welfare(scenario: Scenario, objective: WelfareObjective) -> float:
    return evaluate(scenario.profile, _solution(scenario), objective)


def _optimal_welfare_value(scenario: Scenario, objective: WelfareObjective) -> float:
    return optimal_welfare(scenario.profile, scenario.spec, objective)[0]


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
        best = min(best, sum(distance(agent, point, profile.metric) for agent in profile.agents))
    return best


def _assigned(
    scenario: Scenario, locations: tuple[Point, ...], profile: AgentProfile | None = None
) -> tuple[tuple[int, ...], float]:
    """Best assignment of the scenario's agents, or of profile's, to
    locations under the scenario's capacities, and its total distance."""
    profile = scenario.profile if profile is None else profile
    return optimal_capacitated_assignment(profile, locations, scenario.spec.capacities)


# the axiom searches are pure and the scenario fixtures are hashable, so
# repeated expectations can share one search
_manipulation_search = functools.cache(check_strategy_proofness)
_domination_search = functools.cache(check_pareto)

_LOCAL_BUDGET = SearchBudget(grid_resolution=0.5, bounding_box_pad=1.0)


def _manipulation(scenario: Scenario):
    return _manipulation_search(scenario.mechanism, scenario.profile, scenario.spec, _LOCAL_BUDGET)


def _domination(
    scenario: Scenario, solution: Solution | None = None, budget: SearchBudget = _LOCAL_BUDGET
):
    """The Pareto refuter on the scenario's own placement, or on solution."""
    solution = _solution(scenario) if solution is None else solution
    return _domination_search(scenario.profile, solution, budget)


# recurring claims ------------------------------------------------------------
# each helper fixes a claim's name, tolerance and measurement, and a fixture
# passes the expected value and the note

def _facility_at(expected: Point, note: str) -> Expectation:
    return Expectation("facility", expected, POSITION_TOLERANCE, note, lambda s: _locations(s)[0])


def _manipulating_agent(expected: int, note: str) -> Expectation:
    return Expectation(
        "manipulating_agent", expected, 0.0, note, lambda s: _manipulation(s).agent_index
    )


def _best_misreport(expected: Point, note: str) -> Expectation:
    return Expectation(
        "best_misreport", expected, POSITION_TOLERANCE, note, lambda s: _manipulation(s).misreport
    )


def _manipulation_gain(expected: float, note: str) -> Expectation:
    return Expectation(
        "manipulation_gain",
        expected,
        WELFARE_TOLERANCE,
        note,
        lambda s: _manipulation(s).improvement,
    )


def _cost(objective: WelfareObjective, expected: float, note: str, prefix: str = "") -> Expectation:
    """The mechanism's total or maximum distance."""
    return Expectation(
        f"{prefix}{objective.value}_distance",
        expected,
        WELFARE_TOLERANCE,
        note,
        lambda s: _mechanism_welfare(s, objective),
    )


def _optimum(objective: WelfareObjective, expected: float, note: str) -> Expectation:
    return Expectation(
        f"optimal_{objective.value}_distance",
        expected,
        WELFARE_TOLERANCE,
        note,
        lambda s: _optimal_welfare_value(s, objective),
    )


def _ratio(objective: WelfareObjective, expected: float, note: str) -> Expectation:
    return Expectation(
        f"{objective.value}_approximation_ratio",
        expected,
        WELFARE_TOLERANCE,
        note,
        lambda s: approximation_ratio(s.mechanism, s.profile, s.spec, objective).ratio,
    )


def _holds(name: str, note: str, predicate: Callable[[Scenario], bool]) -> Expectation:
    """A yes/no claim that must come out true."""
    return Expectation(name, True, 0.0, note, predicate)


# the three refuters, each run on the scenario's own placement
_REFUTERS: dict[str, Callable[[Scenario], Any]] = {
    "anonymity_violation": lambda s: check_anonymity(s.mechanism, s.profile, s.spec),
    "pareto_domination": _domination,
    "manipulation": _manipulation,
}


def _no_violation(name: str, note: str) -> Expectation:
    """The refuter named by the claim finds nothing against the scenario's
    own placement."""
    return Expectation(name, None, 0.0, note, _REFUTERS[name])


def _dominated(
    facility: tuple[Point, ...],
    facility_note: str,
    margin: float,
    margin_note: str,
    prefix: str = "",
    solution: Solution | None = None,
) -> tuple[Expectation, Expectation]:
    """The Pareto refuter's witness against the scenario's placement, or
    against solution: the dominating facility and the margin."""
    return (
        Expectation(
            prefix + "dominating_facility",
            facility,
            POSITION_TOLERANCE,
            facility_note,
            lambda s: _domination(s, solution).dominating.locations,
        ),
        Expectation(
            prefix + "domination_margin",
            margin,
            WELFARE_TOLERANCE,
            margin_note,
            lambda s: _domination(s, solution).improvement,
        ),
    )


def _capacity_loads(
    expected: tuple[int, ...], note: str, locations: tuple[Point, ...]
) -> Expectation:
    return Expectation(
        "capacity_loads",
        expected,
        0.0,
        note,
        lambda s: tuple(map(_assigned(s, locations)[0].count, range(1, len(locations) + 1))),
    )


# fixtures --------------------------------------------------------------------

def _thm1_manipulation() -> Scenario:
    profile = AgentProfile(((12.0, 0.0), (0.0, 0.0), (0.0, 2.0), (12.0, 2.0)))
    misreported = profile.with_report(1, (12.0, 2.0))
    honest_total = 4.0 * math.sqrt(37.0)
    detour_total = 2.0 * (math.sqrt(50.0) + math.sqrt(26.0))
    return Scenario(
        name="thm1_manipulation",
        profile=profile,
        spec=FacilitySpec(1),
        mechanism=MechanismDescriptor.geometric(),
        note=(
            "Four agents on the corners of a 12 by 2 rectangle: the total-distance"
            " minimizer sits at the centre, so the corner agent listed first gains"
            " more than 4 by reporting the corner above itself."
        ),
        expectations=(
            _facility_at((6.0, 1.0), "the minimizer of total distance is the rectangle centre"),
            _cost(WelfareObjective.TOTAL, honest_total, "every corner is root-37 from the centre"),
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
            _holds(
                "detour_ratio_strictly_inside_bounds",
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
                lambda s: _solution(s, misreported).locations[0],
            ),
            Expectation(
                "reported_total_after_exaggeration",
                12.0 + 2.0 * math.sqrt(37.0),
                WELFARE_TOLERANCE,
                "total distance of the reported profile once the facility moves",
                lambda s: evaluate(misreported, _solution(s, misreported), WelfareObjective.TOTAL),
            ),
            _holds(
                "two_unit_moves_all_cost_more_than_24_18",
                "totals two units out from the dragged facility stay above 24.18,"
                " so the facility cannot sit far from the exaggerated corner",
                lambda s: _min_total_on_circle(misreported, (12.0, 2.0), 2.0) > 24.18,
            ),
            _manipulating_agent(1, "the refuter blames the corner agent listed first"),
            _best_misreport((12.0, 2.0), "the best lie found is the corner above the manipulator"),
            _manipulation_gain(
                math.sqrt(37.0) - 2.0, "the manipulator's distance drops from root-37 to 2"
            ),
        ),
    )


def _onecentre_manipulation() -> Scenario:
    return Scenario(
        name="onecentre_manipulation",
        profile=AgentProfile(((0.0, 1.0), (0.0, 0.0), (0.0, 0.0))),
        spec=FacilitySpec(1),
        mechanism=MechanismDescriptor.one_centre(),
        note=(
            "Two agents at the origin and one a unit above: the smallest enclosing"
            " circle centres halfway up, so the top agent halves its distance by"
            " reporting twice as high."
        ),
        expectations=(
            _facility_at((0.0, 0.5), "the enclosing-circle centre splits the two occupied points"),
            _manipulating_agent(1, "the top agent is the one who gains"),
            _best_misreport(
                (0.0, 2.0), "stretching the circle upward centres it on the liar's true spot"
            ),
            _manipulation_gain(0.5, "the centre moves from half a unit away to zero"),
            Expectation(
                "facility_after_exaggeration",
                (0.0, 1.0),
                POSITION_TOLERANCE,
                "after the lie the circle centres on the true location",
                lambda s: _solution(s, s.profile.with_report(1, (0.0, 2.0))).locations[0],
            ),
        ),
    )


def _thm4_case(
    name: str,
    agents: tuple[Point, ...],
    picks: tuple[tuple[float, float], ...],
    note: str,
    facilities: tuple[Point, ...],
    facilities_note: str,
    max_distance: float,
    max_distance_note: str,
) -> Scenario:
    """A Theorem 4 case: two rank-based picks leave an agent stranded at a
    positive maximum distance where the optimum serves everyone exactly."""
    return Scenario(
        name=name,
        profile=AgentProfile(agents),
        spec=FacilitySpec(2),
        mechanism=MechanismDescriptor.percentile_plane(picks),
        note=note,
        expectations=(
            Expectation("facilities", facilities, POSITION_TOLERANCE, facilities_note, _locations),
            _cost(WelfareObjective.MAX, max_distance, max_distance_note, prefix="mechanism_"),
            _optimum(
                WelfareObjective.MAX,
                0.0,
                "placing one facility on each occupied point serves everyone exactly",
            ),
            _holds(
                "approximation_ratio_unbounded",
                "a positive cost against a zero optimum makes the ratio infinite",
                lambda s: approximation_ratio(
                    s.mechanism, s.profile, s.spec, WelfareObjective.MAX
                ).unbounded,
            ),
        ),
    )


def _thm4_case1() -> Scenario:
    # largest parameter below one is 0.5, so six agents force both picks
    # into the crowd at the origin
    return _thm4_case(
        name="thm4_case1",
        agents=tuple([(0.0, 0.0)] * 5) + ((1.0, 1.0),),
        picks=((0.5, 0.5), (0.5, 0.5)),
        note=(
            "Five agents at the origin and one off-diagonal: rank-based picks that"
            " never take the top rank leave both facilities on the crowd and strand"
            " the outlier, while the optimum covers everyone at cost zero."
        ),
        facilities=((0.0, 0.0), (0.0, 0.0)),
        facilities_note="both facilities land on the crowded origin",
        max_distance=math.sqrt(2.0),
        max_distance_note="the stranded agent walks the whole diagonal",
    )


def _thm4_case2() -> Scenario:
    return _thm4_case(
        name="thm4_case2",
        agents=tuple([(1.0, 1.0)] * 5) + ((0.0, 0.0),),
        picks=((0.5, 0.5), (1.0, 1.0)),
        note=(
            "Five agents at the top corner and one at the origin: a top-rank pick"
            " plus any pick with a positive parameter both land on the crowd, so"
            " the origin agent is stranded despite a zero-cost optimum existing."
        ),
        facilities=((1.0, 1.0), (1.0, 1.0)),
        facilities_note="both facilities land on the crowded corner",
        max_distance=math.sqrt(2.0),
        max_distance_note="the origin agent walks the whole diagonal",
    )


def _thm4_case3() -> Scenario:
    return _thm4_case(
        name="thm4_case3",
        agents=((0.0, 1.0), (1.0, 0.0)),
        picks=((0.0, 0.0), (1.0, 1.0)),
        note=(
            "Two agents on opposite off-diagonal corners: bottom-rank and top-rank"
            " picks build facilities at empty corners, a unit from everyone, while"
            " the optimum covers both agents exactly."
        ),
        facilities=((0.0, 0.0), (1.0, 1.0)),
        facilities_note="coordinate-wise extremes assemble two empty corners",
        max_distance=1.0,
        max_distance_note="each agent is a unit from the nearest empty corner",
    )


def _thm3_construction() -> Scenario:
    budget = SearchBudget(grid_resolution=50.0, bounding_box_pad=10.0)
    split = ((0.0, 0.0), (100.0, 100.0))
    doubled = Solution(((0.0, 0.0), (0.0, 0.0)), (1,) * 5)
    return Scenario(
        name="thm3_construction",
        profile=AgentProfile(tuple([(0.0, 0.0)] * 4) + ((100.0, 100.0),)),
        spec=FacilitySpec(2),
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
            _optimum(
                WelfareObjective.TOTAL, 0.0, "serving each cluster where it stands costs nothing"
            ),
            Expectation(
                "optimal_facilities",
                split,
                POSITION_TOLERANCE,
                "the welfare oracle picks the same two cluster points",
                lambda s: optimal_welfare(s.profile, s.spec, WelfareObjective.TOTAL)[1].locations,
            ),
            Expectation(
                "split_placement_undominated",
                None,
                0.0,
                "no candidate move improves on serving both clusters exactly",
                lambda s: _domination(s, budget=budget),
            ),
            Expectation(
                "doubled_up_placement_dominated",
                split,
                POSITION_TOLERANCE,
                "parking both facilities on the origin is beaten by the split",
                lambda s: _domination(s, doubled, budget).dominating.locations,
            ),
            Expectation(
                "doubling_margin",
                100.0 * math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "the far agent saves the whole diagonal when the split returns",
                lambda s: _domination(s, doubled, budget).improvement,
            ),
        ),
    )


def _capacitated_even() -> Scenario:
    box = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
    far = ((100.0, 100.0),) * 4
    in_box = (0.5, 0.5)
    locations = (in_box, (100.0, 100.0))
    return Scenario(
        name="capacitated_even",
        profile=AgentProfile(box + far),
        spec=FacilitySpec(2, (4, 4)),
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
                lambda s: _assigned(s, locations)[0],
            ),
            _capacity_loads((4, 4), "both facilities run exactly full", locations),
            Expectation(
                "total_distance",
                2.0 * math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "each box corner walks half a diagonal to the box centre",
                lambda s: _assigned(s, locations)[1],
            ),
            _holds(
                "no_spare_capacity",
                "total capacity equals the number of agents",
                lambda s: sum(s.spec.capacities) == s.profile.n,
            ),
            _holds(
                "fleeing_far_backfires",
                "joining the far crowd would cost a box agent the whole diagonal"
                " instead of half a box diagonal",
                lambda s: distance((0.0, 0.0), (100.0, 100.0))
                > distance((0.0, 0.0), in_box),
            ),
        ),
    )


def _capacitated_odd() -> Scenario:
    split = ((0.0, 0.0), (100.0, 100.0))
    start = AgentProfile(((0.0, 0.0),) * 3 + ((100.0, 100.0),) * 3)
    arrived = AgentProfile(((0.0, 0.0),) * 2 + ((100.0, 100.0),) * 4)
    return Scenario(
        name="capacitated_odd",
        profile=AgentProfile(
            ((0.0, 0.0), (0.0, 0.0), (50.0, 50.0))
            + ((100.0, 100.0),) * 3
        ),
        spec=FacilitySpec(2, (3, 3)),
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
                lambda s: _assigned(s, split, start)[1],
            ),
            Expectation(
                "assignment_mid_journey",
                (1, 1, 1, 2, 2, 2),
                0.0,
                "the full far facility turns the walker back to the origin one",
                lambda s: _assigned(s, split)[0],
            ),
            _capacity_loads((3, 3), "both facilities run exactly full", split),
            Expectation(
                "mid_journey_total_distance",
                50.0 * math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "only the walker pays, half the diagonal back to the origin",
                lambda s: _assigned(s, split)[1],
            ),
            Expectation(
                "arrival_doubling_total_distance",
                200.0 * math.sqrt(2.0),
                WELFARE_TOLERANCE,
                "once four agents crowd the far point, serving them all there"
                " strands the two origin agents a full diagonal away",
                lambda s: _assigned(s, ((100.0, 100.0), (100.0, 100.0)), arrived)[1],
            ),
        ),
    )


def _manhattan_2agent_max() -> Scenario:
    return Scenario(
        name="manhattan_2agent_max",
        profile=AgentProfile(((0.0, 1.0), (2.0, 0.0)), Metric.MANHATTAN),
        spec=FacilitySpec(1),
        mechanism=MechanismDescriptor.coordinate_extreme("max"),
        note=(
            "Two agents under rectilinear distance with the facility on the"
            " coordinate-wise maximum: the empty bounding-box corner survives"
            " every axiom check because stepping toward one agent backs away"
            " from the other."
        ),
        expectations=(
            _facility_at((2.0, 1.0), "coordinate-wise maxima assemble the top-right box corner"),
            _no_violation("anonymity_violation", "swapping the two agents changes nothing"),
            _no_violation("pareto_domination", "any step helping one agent hurts the other"),
            _no_violation("manipulation", "raising a report drags the corner away from the liar"),
        ),
    )


def _manhattan_3agent_median() -> Scenario:
    return Scenario(
        name="manhattan_3agent_median",
        profile=AgentProfile(((0.0, 2.0), (1.0, 0.0), (2.0, 1.0)), Metric.MANHATTAN),
        spec=FacilitySpec(1),
        mechanism=MechanismDescriptor.median(),
        note=(
            "Three agents under rectilinear distance with the facility on the"
            " per-axis median: the interior point survives every axiom check."
        ),
        expectations=(
            _facility_at((1.0, 1.0), "the per-axis medians meet in the interior"),
            _no_violation("pareto_domination", "moving along either axis backs away from somebody"),
            _no_violation("manipulation", "medians ignore how far a liar stretches a report"),
            _no_violation("anonymity_violation", "medians never depend on agent order"),
        ),
    )


def _manhattan_3agent_max_dominated() -> Scenario:
    profile = AgentProfile(((0.0, 2.0), (1.0, 0.0), (2.0, 1.0)), Metric.MANHATTAN)
    spec = FacilitySpec(1)
    min_corner = run_mechanism(MechanismDescriptor.coordinate_extreme("min"), profile, spec)
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
            _facility_at((2.0, 2.0), "coordinate-wise maxima assemble the top-right corner"),
            *_dominated(
                ((1.0, 1.0),),
                "the interior point beats the max corner",
                2.0,
                "the middle agent's trip shrinks from three to one",
            ),
            *_dominated(
                ((1.0, 1.0),),
                "the same interior point beats the min corner too",
                2.0,
                "the right-hand agent's trip shrinks from three to one",
                prefix="min_corner_",
                solution=min_corner,
            ),
        ),
    )


def _manhattan_4agent_min_dominated() -> Scenario:
    return Scenario(
        name="manhattan_4agent_min_dominated",
        profile=AgentProfile(
            ((0.0, 2.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0)), Metric.MANHATTAN
        ),
        spec=FacilitySpec(1),
        # bottom rank on x, second-of-four rank on y; 0.4 selects rank 2 without
        # the floating-point hazard a literal one-third invites
        mechanism=MechanismDescriptor.percentile_plane(((0.0, 0.4),)),
        note=(
            "Four rectilinear agents where a rank-based pick lands on the empty"
            " origin: rank picks stay anonymous and honest, but from four agents"
            " up they can return a placement beaten by an interior point."
        ),
        expectations=(
            _facility_at((0.0, 0.0), "lowest x rank and second-lowest y rank assemble the origin"),
            _no_violation("anonymity_violation", "rank picks never depend on agent order"),
            _no_violation("manipulation", "rank picks ignore how far a liar stretches a report"),
            *_dominated(
                ((1.0, 1.0),),
                "the interior point beats the origin",
                2.0,
                "the middle agent's trip shrinks from three to one",
            ),
        ),
    )


def _manhattan_median_optimal_total() -> Scenario:
    return Scenario(
        name="manhattan_median_optimal_total",
        profile=AgentProfile(
            ((0.0, 0.0), (1.0, 3.0), (4.0, 1.0), (2.0, 2.0), (5.0, 5.0)),
            Metric.MANHATTAN,
        ),
        spec=FacilitySpec(1),
        mechanism=MechanismDescriptor.median(),
        note=(
            "Five scattered rectilinear agents: the per-axis median minimizes"
            " each coordinate's contribution separately, so it is exactly optimal"
            " for total distance and within a factor of two for the maximum."
        ),
        expectations=(
            _facility_at((2.0, 2.0), "the per-axis medians land on the central agent"),
            _cost(WelfareObjective.TOTAL, 15.0, "total rectilinear distance from the median point"),
            _optimum(
                WelfareObjective.TOTAL, 15.0, "the oracle cannot do better than the median point"
            ),
            _ratio(WelfareObjective.TOTAL, 1.0, "exactly optimal for total distance"),
            _cost(
                WelfareObjective.MAX, 6.0, "the far corner agent walks six from the median point"
            ),
            _optimum(WelfareObjective.MAX, 5.0, "the best single point leaves someone five away"),
            _ratio(
                WelfareObjective.MAX,
                1.2,
                "six against five, comfortably inside the factor-two bound",
            ),
            _holds(
                "max_within_twice_optimal",
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
