"""Refutation search for anonymity, Pareto optimality, and strategy proofness.

All three checkers follow the same recipe: treat the mechanism as a black
box behind a MechanismDescriptor, enumerate a finite candidate set, and
either return a Certificate that replays through the public API or return
None.  None is a proof of compliance for that profile where the candidate
set is exhaustive: check_anonymity up to ANONYMITY_EXHAUSTIVE_MAX_AGENTS
agents, where it tries every permutation; check_strategy_proofness for
per-axis percentile picks on the coordinate axes (percentile_1d,
percentile_multi_d without axes, the coordinate-wise median, coordinate
max and min), where a report's rank on each axis is all that matters; and
check_pareto for one facility in the plane, where a Euclidean placement in
the agents' convex hull is undominated and Manhattan dominations are
searched on the O(n^2) vertices of a line arrangement (exhaustive while no
coordinate exceeds 64 in magnitude; see check_pareto).  Everywhere else
the candidates are a budgeted lattice, and None only means "no violation
found at the searched resolution".

Inputs are validated once per call.  The strategy-proofness and anonymity
checkers run the public run_mechanism on the honest profile, which checks
the descriptor against the spec; each misreport or permutation after that
only places facilities, on a profile built from already validated points,
with no Solution and no assignment.  verify_certificate replays every
witness through the public, fully validated path instead.

Certificates are self-contained.  They carry the profile, the mechanism
handle where one is involved, and the witness itself, so a certificate
serialized on one machine can be re-verified on another without rerunning
the search that found it.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import random
from typing import Any, Iterable, Iterator, Sequence

from .geometry import (
    Metric,
    Point,
    as_point,
    bounding_box,
    coordinate_median,
    distance,
)
from .mechanisms import (
    _KINDS,
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    Solution,
    _integral,
    _place,
    assign_nearest,
    descriptor_from_dict,
    descriptor_to_dict,
    profile_from_dict,
    profile_to_dict,
    run_mechanism,
    solution_from_dict,
    solution_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from .welfare import OracleCapError, WelfareObjective, _agent_costs, _one_facility_centre
from .welfare import _orientation, _partitions

# margins below this are treated as numeric noise, not violations
GAIN_TOLERANCE = 1e-9
# replay may undershoot the recorded margin by at most this much
REPLAY_SLACK = 1e-12

# all n! permutations up to here; sampled permutations beyond
ANONYMITY_EXHAUSTIVE_MAX_AGENTS = 8
_ANONYMITY_SAMPLES = 512
# subset / partition candidate enumeration blows up combinatorially
_SUBSET_CANDIDATE_MAX_AGENTS = 8
_MAX_GRID_POINTS = 500_000


class CertificateKind(enum.Enum):
    ANONYMITY_VIOLATION = "anonymity_violation"
    PARETO_DOMINATION = "pareto_domination"
    MANIPULATION = "manipulation"


_REQUIRED_WITNESS_FIELDS = {
    CertificateKind.ANONYMITY_VIOLATION: ("descriptor", "spec", "permutation"),
    CertificateKind.PARETO_DOMINATION: ("original", "dominating"),
    CertificateKind.MANIPULATION: ("descriptor", "spec", "agent_index", "misreport"),
}
_WITNESS_FIELDS = frozenset(
    name for fields in _REQUIRED_WITNESS_FIELDS.values() for name in fields
)


@dataclasses.dataclass(frozen=True)
class Certificate:
    """A replayable witness that a mechanism or solution violates an axiom.

    improvement is the claimed margin: how far the facility multiset moves
    under the permutation, how much the most-improved agent's trip shrinks
    under the dominating solution, or how much the manipulating agent's true
    distance drops.  A certificate only counts once verify_certificate has
    replayed the witness and confirmed the margin; a zero margin certifies
    nothing and never verifies.
    """

    kind: CertificateKind
    profile: AgentProfile
    improvement: float
    descriptor: MechanismDescriptor | None = None
    spec: FacilitySpec | None = None
    permutation: tuple[int, ...] | None = None
    original: Solution | None = None
    dominating: Solution | None = None
    agent_index: int | None = None
    misreport: Point | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", CertificateKind(self.kind))
        if not isinstance(self.profile, AgentProfile):
            raise ValueError("certificate needs an AgentProfile")
        improvement = float(self.improvement)
        if not math.isfinite(improvement) or improvement < 0:
            raise ValueError(
                f"improvement must be a finite nonnegative margin, got {self.improvement!r}"
            )
        object.__setattr__(self, "improvement", improvement)
        if self.permutation is not None:
            object.__setattr__(
                self,
                "permutation",
                tuple(_integral(i, "permutation entry") for i in self.permutation),
            )
        if self.agent_index is not None:
            object.__setattr__(
                self, "agent_index", _integral(self.agent_index, "agent_index")
            )
        if self.misreport is not None:
            object.__setattr__(self, "misreport", as_point(self.misreport))
        self._check_witness()

    def _check_witness(self) -> None:
        required = _REQUIRED_WITNESS_FIELDS[self.kind]
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind.value} certificate is missing {name}")
        for name in sorted(_WITNESS_FIELDS - set(required)):
            if getattr(self, name) is not None:
                raise ValueError(f"{self.kind.value} certificate does not take {name}")
        if self.descriptor is not None and not isinstance(
            self.descriptor, MechanismDescriptor
        ):
            raise ValueError("descriptor must be a MechanismDescriptor")
        if self.spec is not None and not isinstance(self.spec, FacilitySpec):
            raise ValueError("spec must be a FacilitySpec")
        for name in ("original", "dominating"):
            solution = getattr(self, name)
            if solution is not None and not isinstance(solution, Solution):
                raise ValueError(f"{name} must be a Solution")
        if self.kind is CertificateKind.ANONYMITY_VIOLATION:
            identity = tuple(range(1, self.profile.n + 1))
            if tuple(sorted(self.permutation)) != identity:
                raise ValueError(
                    f"permutation must reorder agents 1..{self.profile.n}"
                )
            if self.permutation == identity:
                raise ValueError("the identity permutation cannot witness anything")
        elif self.kind is CertificateKind.PARETO_DOMINATION:
            if len(self.original.locations) != len(self.dominating.locations):
                raise ValueError(
                    "dominating solution must place the same number of facilities"
                )
            for name in ("original", "dominating"):
                if len(getattr(self, name).assignment) != self.profile.n:
                    raise ValueError(f"{name} solution must assign every agent")
        elif self.kind is CertificateKind.MANIPULATION:
            if not 1 <= self.agent_index <= self.profile.n:
                raise ValueError(
                    f"agent_index {self.agent_index} out of range 1..{self.profile.n}"
                )
            if len(self.misreport) != self.profile.dim:
                raise ValueError("misreport has the wrong dimension")


@dataclasses.dataclass(frozen=True)
class SearchBudget:
    """Where refutation candidates come from and how dense they are.

    A bounding_box_pad of None pads by twice the profile's bounding box
    diagonal, which keeps flee-far-away reports inside the candidate set
    even at coarse resolutions.
    """

    grid_resolution: float = 0.25
    random_restarts: int = 0
    seed: int = 0
    bounding_box_pad: float | None = None

    def __post_init__(self):
        resolution = float(self.grid_resolution)
        if not math.isfinite(resolution) or resolution <= 0:
            raise ValueError(f"grid_resolution must be positive, got {self.grid_resolution!r}")
        object.__setattr__(self, "grid_resolution", resolution)
        restarts = int(self.random_restarts)
        if restarts != self.random_restarts or restarts < 0:
            raise ValueError(
                f"random_restarts must be a nonnegative integer, got {self.random_restarts!r}"
            )
        object.__setattr__(self, "random_restarts", restarts)
        object.__setattr__(self, "seed", int(self.seed))
        if self.bounding_box_pad is not None:
            pad = float(self.bounding_box_pad)
            if not math.isfinite(pad) or pad < 0:
                raise ValueError(
                    f"bounding_box_pad must be nonnegative, got {self.bounding_box_pad!r}"
                )
            object.__setattr__(self, "bounding_box_pad", pad)

    def pad_for(self, profile: AgentProfile) -> float:
        if self.bounding_box_pad is not None:
            return self.bounding_box_pad
        lo, hi = bounding_box(profile.agents)
        diagonal = math.dist(lo, hi)
        return 2.0 * diagonal if diagonal > 0 else 1.0


def _axis_values(lo: float, hi: float, resolution: float) -> list[float]:
    # anchored to multiples of the resolution so the lattice does not drift
    # with the box; every placement the coarse tests expect sits on it
    start = math.floor(lo / resolution)
    stop = math.ceil(hi / resolution)
    return [i * resolution for i in range(start, stop + 1)]


def candidate_points(profile: AgentProfile, budget: SearchBudget) -> list[Point]:
    """Deduplicated, lexicographically sorted candidate locations.

    The set is the resolution lattice over the padded bounding box, the
    padded box corners, every reported agent location, and any seeded
    random restarts the budget asks for.
    """
    pad = budget.pad_for(profile)
    lo, hi = bounding_box(profile.agents)
    lo = tuple(c - pad for c in lo)
    hi = tuple(c + pad for c in hi)
    r = budget.grid_resolution
    # past the float range there is no lattice to count, and restarts drawn
    # across an infinite width land on inf; every candidate must be finite
    if not all(
        math.isfinite(v)
        for k in range(profile.dim)
        for v in (hi[k] - lo[k], lo[k] / r, hi[k] / r)
    ):
        raise OracleCapError(
            f"padded search box overflows the float range (pad {pad!r}); "
            "shrink bounding_box_pad or coarsen grid_resolution"
        )
    # sized before anything is built: a far-flung profile must not allocate
    # the lattice it is about to be refused for
    lattice_size = math.prod(
        math.ceil(hi[k] / r) - math.floor(lo[k] / r) + 1 for k in range(profile.dim)
    )
    if lattice_size > _MAX_GRID_POINTS:
        raise OracleCapError(
            f"candidate lattice holds {lattice_size} points (cap {_MAX_GRID_POINTS}); "
            "coarsen grid_resolution or shrink bounding_box_pad"
        )
    axes = [_axis_values(lo[k], hi[k], r) for k in range(profile.dim)]
    points: set[Point] = set(itertools.product(*axes))
    points.update(itertools.product(*zip(lo, hi)))
    points.update(profile.agents)
    rng = random.Random(budget.seed)
    for _ in range(budget.random_restarts):
        points.add(tuple(rng.uniform(lo[k], hi[k]) for k in range(profile.dim)))
    return sorted(points)


def _picks_per_axis(descriptor: MechanismDescriptor) -> bool:
    """Whether every facility coordinate the mechanism places is an order
    statistic of the reports' coordinates on that coordinate axis: the
    percentile family without rotated axes, which mix the coordinates."""
    return descriptor.axes is None and _KINDS[descriptor.kind].rows is not None


def _breakpoint_reports(profile: AgentProfile) -> list[Point]:
    """Lexicographically sorted reports that are exhaustive against a
    per-axis percentile pick, for every agent of the profile.

    On axis k a lone report moves each facility coordinate only through its
    rank among the other agents' k-coordinates: between two consecutive
    ones a facility coordinate either stays put or equals the report.  So
    the best report in each cell is the truth clamped into it, which is the
    truth or one of the other agents' coordinates.  The reports are the
    product over the axes of the agents' distinct coordinates: at most n^dim
    points, one of them each agent's truth.
    """
    axes = [sorted({a[k] for a in profile.agents}) for k in range(profile.dim)]
    # sized before anything is built, as the lattice is
    size = math.prod(map(len, axes))
    if size > _MAX_GRID_POINTS:
        raise OracleCapError(
            f"breakpoint product holds {size} reports (cap {_MAX_GRID_POINTS})"
        )
    return list(itertools.product(*axes))


def _multiset_gap(ranked: Sequence[Point], b: Sequence[Point]) -> float:
    """How far two equally sized location multisets are apart: the largest
    per-rank Euclidean distance after sorting both.  The first comes
    sorted."""
    return max(math.dist(p, q) for p, q in zip(ranked, sorted(b)))


def _sampled_permutations(n: int, seed: int = 0) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    base = list(range(1, n + 1))
    drawn: set[tuple[int, ...]] = set()
    for _ in range(_ANONYMITY_SAMPLES):
        rng.shuffle(base)
        drawn.add(tuple(base))
    return sorted(drawn)


def check_anonymity(
    descriptor: MechanismDescriptor,
    profile: AgentProfile,
    spec: FacilitySpec,
    tolerance: float = GAIN_TOLERANCE,
) -> Certificate | None:
    """First permutation (in lexicographic order) that moves the facility
    multiset, or None.  Exhaustive up to ANONYMITY_EXHAUSTIVE_MAX_AGENTS
    agents, a fixed deterministic sample of permutations beyond that.
    """
    base = sorted(run_mechanism(descriptor, profile, spec).locations)
    identity = tuple(range(1, profile.n + 1))
    if profile.n <= ANONYMITY_EXHAUSTIVE_MAX_AGENTS:
        permutations: Iterator[tuple[int, ...]] | list[tuple[int, ...]]
        permutations = itertools.permutations(identity)
    else:
        permutations = _sampled_permutations(profile.n)
    agents, metric = profile.agents, profile.metric
    for permutation in permutations:
        if permutation == identity:
            continue
        reordered = AgentProfile._trusted(
            tuple(agents[i - 1] for i in permutation), metric
        )
        gap = _multiset_gap(base, _place(descriptor, reordered, spec.m))
        if gap > tolerance:
            return Certificate(
                kind=CertificateKind.ANONYMITY_VIOLATION,
                profile=profile,
                improvement=gap,
                descriptor=descriptor,
                spec=spec,
                permutation=permutation,
            )
    return None


def _nearest_costs(
    profile: AgentProfile, locations: Sequence[Point]
) -> tuple[float, ...]:
    return tuple(
        min(distance(agent, loc, profile.metric) for loc in locations)
        for agent in profile.agents
    )


def _domination_margin(
    old: Sequence[float], new: Sequence[float], tolerance: float
) -> float:
    """Improvement of the most-improved agent, or 0.0 unless every agent is
    at least as well off and someone is strictly better off."""
    if any(b > a + REPLAY_SLACK for a, b in zip(old, new)):
        return 0.0
    margin = max(a - b for a, b in zip(old, new))
    return margin if margin > tolerance else 0.0


def _group_centers(group: Sequence[Point], metric: Metric) -> list[Point]:
    """Center candidates a small dominating move tends to land on: the lower
    and upper coordinate medians and the group's one-facility optima (for
    the max objective in 1-d and 2-d only)."""
    pts = sorted(group)
    centers = [coordinate_median(pts, "lower"), coordinate_median(pts, "upper")]
    # under Manhattan distance the total's optimum is the lower median
    if metric is Metric.EUCLIDEAN:
        centers.append(_one_facility_centre(pts, metric, WelfareObjective.TOTAL))
    if len(pts[0]) <= 2:
        centers.append(_one_facility_centre(pts, metric, WelfareObjective.MAX))
    return centers


def _subset_centers(profile: AgentProfile) -> set[Point]:
    if profile.n <= _SUBSET_CANDIDATE_MAX_AGENTS:
        groups: Iterator[tuple[Point, ...]] = (
            combo
            for size in range(1, profile.n + 1)
            for combo in itertools.combinations(profile.agents, size)
        )
    else:
        groups = iter([profile.agents])
    centers: set[Point] = set()
    for group in groups:
        centers.update(_group_centers(group, profile.metric))
    return centers


def _partition_placements(
    profile: AgentProfile, m: int
) -> Iterator[tuple[Point, ...]]:
    """Per-block center products over every way of splitting the agents
    into at most m groups; blocks short of m are padded with repeats."""
    for labels in _partitions(profile.n, m):
        blocks: dict[int, list[Point]] = {}
        for agent, label in zip(profile.agents, labels):
            blocks.setdefault(label, []).append(agent)
        options = [
            sorted(set(_group_centers(block, profile.metric)))
            for _, block in sorted(blocks.items())
        ]
        for combo in itertools.product(*options):
            placed = tuple(sorted(combo))
            yield placed + (placed[-1],) * (m - len(placed))


def _diamond_vertices(
    agents: Sequence[Point], costs: Sequence[float]
) -> set[Point]:
    """Vertices of the arrangement of the agents' axis lines x = a_x and
    y = a_y and of the edge lines x + y = const and x - y = const of the
    Manhattan balls of radius costs[i] around them; finite ones only."""
    xs = {a[0] for a in agents}
    ys = {a[1] for a in agents}
    sums: set[float] = set()  # x + y
    diffs: set[float] = set()  # x - y
    for (ax, ay), c in zip(agents, costs):
        sums.update((ax + ay - c, ax + ay + c))
        diffs.update((ax - ay - c, ax - ay + c))
    # sized before anything is built, as the lattice is
    size = (
        len(xs) * len(ys)
        + (len(xs) + len(ys)) * (len(sums) + len(diffs))
        + len(sums) * len(diffs)
    )
    if size > _MAX_GRID_POINTS:
        raise OracleCapError(
            f"line arrangement has {size} candidate vertices (cap {_MAX_GRID_POINTS})"
        )
    vertices = set(itertools.product(xs, ys))
    for x in xs:
        vertices.update((x, u - x) for u in sums)
        vertices.update((x, x - v) for v in diffs)
    for y in ys:
        vertices.update((u - y, y) for u in sums)
        vertices.update((v + y, y) for v in diffs)
    vertices.update(((u + v) / 2.0, (u - v) / 2.0) for u in sums for v in diffs)
    # offsets near the float range overflow; such a vertex is no placement
    return {p for p in vertices if math.isfinite(p[0]) and math.isfinite(p[1])}


def _convex_hull(points: Sequence[Point]) -> list[Point]:
    """Counterclockwise hull vertices of 2-d points (Andrew's monotone
    chain on exact orientations), without collinear ones: one point when
    all coincide, the two ends when all are collinear."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def chain(ordered: Iterable[Point]) -> list[Point]:
        out: list[Point] = []
        for p in ordered:
            while len(out) >= 2 and _orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def _hull_edges(hull: list[Point]) -> list[tuple[Point, Point]]:
    if len(hull) <= 2:
        return list(zip(hull, hull[1:]))
    return list(zip(hull, hull[1:] + hull[:1]))


def _in_hull(p: Point, hull: list[Point]) -> bool:
    """Whether p lies in the closed convex hull, decided exactly."""
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        # along a line, lexicographic order is the order on it
        return _orientation(hull[0], hull[1], p) == 0 and hull[0] <= p <= hull[1]
    return all(_orientation(a, b, p) >= 0 for a, b in _hull_edges(hull))


def _hull_projection(p: Point, hull: list[Point]) -> Point:
    """The hull point nearest p, up to rounding."""
    nearest = [(math.dist(p, v), v) for v in hull]
    for a, b in _hull_edges(hull):
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
        # t is NaN where the products overflow; the ends stand in then
        if 0.0 < t < 1.0:
            q = (a[0] + t * dx, a[1] + t * dy)
            nearest.append((math.dist(p, q), q))
    return min(nearest)[1]


def _best_domination(
    profile: AgentProfile,
    solution: Solution,
    old_costs: Sequence[float],
    candidates: Iterable[tuple[Point, ...]],
    tolerance: float,
) -> Certificate | None:
    """Certificate for the candidate with the largest single-agent margin,
    ties broken toward the lexicographically smallest location tuple."""
    best_margin = 0.0
    best_locations: tuple[Point, ...] | None = None
    for locations in sorted(candidates):
        new_costs = _nearest_costs(profile, locations)
        margin = _domination_margin(old_costs, new_costs, tolerance)
        if margin > best_margin:
            best_margin = margin
            best_locations = locations
    if best_locations is None:
        return None
    dominating = Solution(best_locations, assign_nearest(best_locations, profile))
    return Certificate(
        kind=CertificateKind.PARETO_DOMINATION,
        profile=profile,
        improvement=best_margin,
        original=solution,
        dominating=dominating,
    )


def check_pareto(
    profile: AgentProfile,
    solution: Solution,
    budget: SearchBudget | None = None,
    tolerance: float = GAIN_TOLERANCE,
) -> Certificate | None:
    """Search for a solution every agent weakly prefers and someone strictly
    prefers, against the costs the given solution's own assignment implies.

    Dominating candidates use uncapacitated semantics: agents go to their
    nearest facility.  Among dominating candidates the one with the largest
    single-agent improvement wins, ties broken toward the lexicographically
    smallest location tuple.

    One facility in the plane has exact candidates, and the budget is not
    used.  Under Manhattan distance each agent's gain is concave and
    piecewise linear, so the best gain over the dominating set, and the
    lexicographically smallest point reaching it, lie on a vertex of the
    arrangement of the agents' axis lines and of the edge lines of the
    balls the dominating set is the intersection of: O(n^2) candidates.
    None then proves that no placement dominates by more than tolerance +
    REPLAY_SLACK, as long as no coordinate of the agents or the placement
    exceeds 64 in magnitude: up to there the rounding in a vertex and in
    its trips stays below REPLAY_SLACK.  Further out a rounded vertex can
    fail the REPLAY_SLACK test for an agent the exact vertex leaves exactly
    as well off, and None only means that no vertex passed it.  Under
    Euclidean distance a placement in the agents' convex hull is Pareto
    optimal, since moving it lengthens the trip of some agent: None there
    is a proof.  Outside the hull the budget's lattice is searched, and if
    it finds nothing the projection onto the hull is tried.  Every other
    case (several facilities, other dimensions) searches the lattice only,
    and None only means none was found there.
    """
    budget = budget if budget is not None else SearchBudget()
    if len(solution.assignment) != profile.n:
        raise ValueError("solution must assign every agent in the profile")
    old_costs = _agent_costs(profile, solution)
    m = len(solution.locations)
    planar_single = m == 1 and profile.dim == 2
    if planar_single and profile.metric is Metric.EUCLIDEAN:
        hull = _convex_hull(profile.agents)
        if _in_hull(solution.locations[0], hull):
            return None
    if planar_single and not all(map(math.isfinite, old_costs)):
        raise OracleCapError("an agent's trip overflows the float range")
    if planar_single and profile.metric is Metric.MANHATTAN:
        vertices = _diamond_vertices(profile.agents, old_costs)
        return _best_domination(
            profile, solution, old_costs, ((v,) for v in vertices), tolerance
        )

    pool = set(candidate_points(profile, budget))
    pool.update(_subset_centers(profile))
    candidates: set[tuple[Point, ...]] = set()
    if m == 1:
        candidates.update((loc,) for loc in pool)
    else:
        # swap one facility at a time, keeping the others where they are
        for j in range(m):
            kept = list(solution.locations)
            for loc in pool:
                kept[j] = loc
                candidates.add(tuple(sorted(kept)))
        if profile.n <= _SUBSET_CANDIDATE_MAX_AGENTS:
            candidates.update(_partition_placements(profile, m))
    found = _best_domination(profile, solution, old_costs, candidates, tolerance)
    # a planar single facility is Euclidean here, and outside the hull
    if found is None and planar_single:
        projection = _hull_projection(solution.locations[0], hull)
        found = _best_domination(profile, solution, old_costs, [(projection,)], tolerance)
    return found


def check_strategy_proofness(
    descriptor: MechanismDescriptor,
    profile: AgentProfile,
    spec: FacilitySpec,
    budget: SearchBudget | None = None,
    tolerance: float = GAIN_TOLERANCE,
) -> Certificate | None:
    """Search for an agent whose lone misreport moves some facility closer
    to their true location.

    Costs are measured from the true location to the nearest facility, in
    the profile's metric.  The certificate records the largest gain found,
    ties broken toward the smallest agent index and then the
    lexicographically smallest misreport.

    For per-axis percentile picks on the coordinate axes the misreports are
    the product over the axes of the agents' distinct coordinates, at most
    n^dim - 1 per agent, and None proves that no lone misreport gains more
    than the tolerance; the budget is not used.  Every other mechanism is
    searched on the budget's lattice, and None only means none was found
    there.
    """
    honest = run_mechanism(descriptor, profile, spec)
    honest_costs = _nearest_costs(profile, honest.locations)
    if _picks_per_axis(descriptor):
        pool = _breakpoint_reports(profile)
    else:
        budget = budget if budget is not None else SearchBudget()
        pool = candidate_points(profile, budget)
    best_gain = tolerance
    best: tuple[int, Point] | None = None
    for index, agent in enumerate(profile.agents, start=1):
        agents = list(profile.agents)
        for report in pool:
            if report == agent:
                continue
            agents[index - 1] = report
            shifted = _place(
                descriptor, AgentProfile._trusted(tuple(agents), profile.metric), spec.m
            )
            cost = min(distance(agent, loc, profile.metric) for loc in shifted)
            gain = honest_costs[index - 1] - cost
            if gain > best_gain:
                best_gain = gain
                best = (index, report)
    if best is None:
        return None
    return Certificate(
        kind=CertificateKind.MANIPULATION,
        profile=profile,
        improvement=best_gain,
        descriptor=descriptor,
        spec=spec,
        agent_index=best[0],
        misreport=best[1],
    )


def verify_certificate(cert: Certificate) -> bool:
    """Replay a certificate's witness and confirm the claimed margin.

    Returns True only when the replayed margin clears the noise floor and
    comes within REPLAY_SLACK of the recorded improvement.  Structurally
    broken inputs raise ValueError rather than returning False.
    """
    if not isinstance(cert, Certificate):
        raise ValueError("verify_certificate expects a Certificate")
    if cert.improvement <= 0:
        return False
    if cert.kind is CertificateKind.ANONYMITY_VIOLATION:
        base = run_mechanism(cert.descriptor, cert.profile, cert.spec)
        moved = run_mechanism(
            cert.descriptor, cert.profile.permuted(cert.permutation), cert.spec
        )
        margin = _multiset_gap(sorted(base.locations), moved.locations)
    elif cert.kind is CertificateKind.PARETO_DOMINATION:
        old_costs = _agent_costs(cert.profile, cert.original)
        new_costs = _agent_costs(cert.profile, cert.dominating)
        margin = _domination_margin(old_costs, new_costs, GAIN_TOLERANCE)
    else:
        honest = run_mechanism(cert.descriptor, cert.profile, cert.spec)
        truth = cert.profile.agents[cert.agent_index - 1]
        shifted = run_mechanism(
            cert.descriptor,
            cert.profile.with_report(cert.agent_index, cert.misreport),
            cert.spec,
        )
        honest_cost = min(
            distance(truth, loc, cert.profile.metric) for loc in honest.locations
        )
        shifted_cost = min(
            distance(truth, loc, cert.profile.metric) for loc in shifted.locations
        )
        margin = honest_cost - shifted_cost
    return margin > GAIN_TOLERANCE and margin >= cert.improvement - REPLAY_SLACK


def certificate_to_dict(cert: Certificate) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "kind": cert.kind.value,
        "improvement": cert.improvement,
        "profile": profile_to_dict(cert.profile),
    }
    if cert.descriptor is not None:
        doc["descriptor"] = descriptor_to_dict(cert.descriptor)
    if cert.spec is not None:
        doc["spec"] = spec_to_dict(cert.spec)
    if cert.permutation is not None:
        doc["permutation"] = list(cert.permutation)
    if cert.original is not None:
        doc["original"] = solution_to_dict(cert.original)
    if cert.dominating is not None:
        doc["dominating"] = solution_to_dict(cert.dominating)
    if cert.agent_index is not None:
        doc["agent_index"] = cert.agent_index
    if cert.misreport is not None:
        doc["misreport"] = list(cert.misreport)
    return doc


def certificate_from_dict(doc: dict[str, Any]) -> Certificate:
    try:
        kind = CertificateKind(doc["kind"])
    except (KeyError, ValueError):
        known = ", ".join(k.value for k in CertificateKind)
        raise ValueError(
            f"unknown certificate kind {doc.get('kind')!r}; expected one of: {known}"
        ) from None
    try:
        profile = profile_from_dict(doc["profile"])
        improvement = doc["improvement"]
    except KeyError as missing:
        raise ValueError(f"certificate document is missing {missing.args[0]!r}") from None
    return Certificate(
        kind=kind,
        profile=profile,
        improvement=improvement,
        descriptor=descriptor_from_dict(doc["descriptor"]) if "descriptor" in doc else None,
        spec=spec_from_dict(doc["spec"]) if "spec" in doc else None,
        permutation=tuple(doc["permutation"]) if "permutation" in doc else None,
        original=solution_from_dict(doc["original"]) if "original" in doc else None,
        dominating=solution_from_dict(doc["dominating"]) if "dominating" in doc else None,
        agent_index=doc.get("agent_index"),
        misreport=tuple(doc["misreport"]) if "misreport" in doc else None,
    )
