"""Refutation search for anonymity, Pareto optimality, and strategy proofness.

All three checkers follow the same recipe: treat the mechanism as a black
box behind a MechanismDescriptor, enumerate a finite candidate set, and
either return a Certificate that replays through the public API or return
None.  None is a proof of compliance for that profile where the candidate
set is exhaustive: check_anonymity everywhere, since a kind whose placement
ignores the agents' order (all but serial dictatorship) needs no candidate,
and serial dictatorship tries one reordering per facility multiset a
permutation can reach; check_strategy_proofness wherever the kind table gives
the misreports: per-axis percentile picks on the coordinate axes
(percentile_1d, percentile_multi_d without axes, the coordinate-wise
median, coordinate max and min), which need none, since a report only
moves each facility within a box whose point nearest the agent the honest
report already picks, one_centre, where one reflection per agent moves the
centre onto the agent, and lexicographic_first_agent, where at most dim
reports per agent clamp it just below the others' smallest report; and
check_pareto for one facility in the plane, where a Euclidean placement in
the agents' convex hull is undominated, Euclidean dominations of a
placement outside it are searched on O(n^2) points of the lens of the
agents' balls, and Manhattan dominations on the vertices of a line
arrangement, on the lines that meet the rectangle D where the agents'
balls overlap in (x + y, x - y) coordinates (both exhaustive while no
coordinate exceeds 64 in magnitude; see check_pareto).  Everywhere else
the candidates are budgeted, and None only means "no violation found at
the searched resolution".  For Pareto they are the lattice, the centres
of every agent group up to 8 agents (each group solved once) or of the
whole profile beyond, one-facility swaps, and per-partition centre
products up to 8 agents.

Inputs are validated once per call.  The strategy-proofness and anonymity
checkers run the public run_mechanism on the honest profile, which checks
the descriptor against the spec; each misreport or permutation after that
only places facilities, on a profile built from already validated points,
with no Solution and no assignment.  The refuters build their certificates
with Certificate._trusted from those parts, and check only the margin,
which can round past the float range: such a margin raises OracleCapError,
as other results past the float range do.  verify_certificate replays every
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
from typing import Any, Iterable, Sequence

from .geometry import (
    Metric,
    OracleCapError,
    Point,
    _bounding_box,
    _coordinate_median,
    _metric_distance,
    as_point,
    distance,
)
from .mechanisms import (
    _KINDS,
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    Solution,
    _integral,
    _is_number,
    _place,
    _require_finite,
    _require_list,
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
from .welfare import WelfareObjective, _agent_costs, _nearest_costs, _one_facility_centre
from .welfare import _orientation, _partitions

# margins below this are treated as numeric noise, not violations
GAIN_TOLERANCE = 1e-9
# replay may undershoot the recorded margin by at most this much
REPLAY_SLACK = 1e-12

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
        object.__setattr__(self, "improvement", _margin(self.improvement))
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

    @classmethod
    def _trusted(cls, **fields: Any) -> "Certificate":
        """Certificate from parts that are already checked, built without
        validating them again: the kind, a built profile, descriptor, spec
        and solutions, a finite float margin, a permutation tuple of ints,
        and a float point of the profile's dimension, fitting the kind's
        witness.  A witness field not given reads its class default, None."""
        cert = object.__new__(cls)
        # frozen: the fields go straight into the instance's dict
        vars(cert).update(fields)
        return cert


def _margin(value: Any) -> float:
    """value as a finite nonnegative float margin, or ValueError."""
    # a bool or a string is no margin, and an int past the float range
    # reads as inf
    try:
        improvement = float(value) if _is_number(value) else math.nan
    except OverflowError:
        improvement = math.inf
    if not math.isfinite(improvement) or improvement < 0:
        raise ValueError(f"improvement must be a finite nonnegative margin, got {value!r}")
    return improvement


@dataclasses.dataclass(frozen=True)
class SearchBudget:
    """Where refutation candidates come from and how dense they are.

    A bounding_box_pad of None pads by twice the profile's bounding box
    diagonal, which keeps flee-far-away reports inside the candidate set
    even at coarse resolutions.
    """

    grid_resolution: float = 0.25
    bounding_box_pad: float | None = None

    def __post_init__(self):
        resolution = float(self.grid_resolution)
        if not math.isfinite(resolution) or resolution <= 0:
            raise ValueError(f"grid_resolution must be positive, got {self.grid_resolution!r}")
        object.__setattr__(self, "grid_resolution", resolution)
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
        lo, hi = _bounding_box(profile.agents)
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
    padded box corners, and every reported agent location.
    """
    pad = budget.pad_for(profile)
    lo, hi = _bounding_box(profile.agents)
    lo = tuple(c - pad for c in lo)
    hi = tuple(c + pad for c in hi)
    r = budget.grid_resolution
    # past the float range there is no lattice to count, nor a finite trip
    # across the box
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
    return sorted(points)


def _multiset_gap(ranked: Sequence[Point], b: Sequence[Point]) -> float:
    """How far two equally sized location multisets are apart: the largest
    per-rank Euclidean distance after sorting both.  The first comes
    sorted."""
    return max(math.dist(p, q) for p, q in zip(ranked, sorted(b)))


def _has_near_pair(points: Iterable[Point]) -> bool:
    """Whether two of the points lie within GAIN_TOLERANCE of each other.
    Sorted on the first coordinate, each point is compared only with the
    later ones whose first coordinate is within GAIN_TOLERANCE of its own:
    math.dist is no smaller than the difference of the first coordinates,
    which only grows along the sorted order, so every pair past that
    window lies farther apart.  On spread-out points that costs the sort."""
    ranked = sorted(points)
    for i, p in enumerate(ranked):
        for j in range(i + 1, len(ranked)):
            q = ranked[j]
            if q[0] - p[0] > GAIN_TOLERANCE:
                break
            if math.dist(p, q) <= GAIN_TOLERANCE:
                return True
    return False


def check_anonymity(
    descriptor: MechanismDescriptor,
    profile: AgentProfile,
    spec: FacilitySpec,
) -> Certificate | None:
    """First of the kind table's reorderings that moves the facility
    multiset by more than GAIN_TOLERANCE, or None.  The reorderings reach
    every facility multiset that any permutation of the agents can, so None
    is a proof at any agent count.  A kind without reorderings (every kind
    but serial dictatorship) places by the reports as a multiset and
    returns None once the honest run passes, without a permutation.

    Serial dictatorship has one reordering per reachable multiset, the
    honest one first (see mechanisms._dictatorship_reorderings): with k
    distinct locations, C(k, m) subsets for k > m, and for 1 < k < m the k
    choices of the location that comes up last.  Where the distinct
    locations lie pairwise more than GAIN_TOLERANCE apart, the second
    reordering already violates: its multiset differs from the honest one
    in one location, so the two cannot be paired rank by rank within
    GAIN_TOLERANCE, as any two distinct locations lie farther apart than
    that.  Such a profile is never refused.  Otherwise C(k, m) past
    _MAX_GRID_POINTS raises OracleCapError before the first reordering is
    placed.  For k <= m, C(k, m) is at most 1, and the k < m reorderings
    stay below the facility cap, MAX_FACILITIES, so they are never refused.
    """
    honest = run_mechanism(descriptor, profile, spec)
    reorderings = _KINDS[descriptor.kind].reorderings
    if reorderings is None:
        return None
    distinct = set(profile.agents)
    placements = math.comb(len(distinct), spec.m)
    if placements > _MAX_GRID_POINTS and _has_near_pair(distinct):
        raise OracleCapError(
            f"anonymity check would place {placements} facility multisets (cap "
            f"{_MAX_GRID_POINTS}), with locations within {GAIN_TOLERANCE} of each other"
        )
    base = sorted(honest.locations)
    identity = tuple(range(1, profile.n + 1))
    agents, metric = profile.agents, profile.metric
    for permutation in reorderings(descriptor, profile, spec.m):
        if permutation == identity:
            continue
        reordered = AgentProfile._trusted(
            tuple(agents[i - 1] for i in permutation), metric
        )
        gap = _multiset_gap(base, _place(descriptor, reordered, spec.m))
        if gap > GAIN_TOLERANCE:
            # valid agents can lie farther apart than a float reaches
            if gap == math.inf:
                raise OracleCapError("the placements' gap overflows the float range")
            return Certificate._trusted(
                kind=CertificateKind.ANONYMITY_VIOLATION,
                profile=profile,
                improvement=gap,
                descriptor=descriptor,
                spec=spec,
                permutation=permutation,
            )
    return None


def _domination_margin(old: Sequence[float], new: Iterable[float]) -> float:
    """Improvement of the most-improved agent, or 0.0 unless every agent is
    at least as well off and someone gains more than GAIN_TOLERANCE.  new is
    read lazily, and the scan stops at the first agent made worse."""
    margin = 0.0
    for a, b in zip(old, new):
        if b > a + REPLAY_SLACK:
            return 0.0
        if a - b > margin:
            margin = a - b
    return margin if margin > GAIN_TOLERANCE else 0.0


def _group_centers(group: Sequence[Point], metric: Metric) -> list[Point]:
    """Center candidates a small dominating move tends to land on: the lower
    and upper coordinate medians and the group's one-facility optima (for
    the max objective in 1-d and 2-d only)."""
    pts = sorted(group)
    centers = [_coordinate_median(pts), _coordinate_median(pts, upper=True)]
    # under Manhattan distance the total's optimum is the lower median
    if metric is Metric.EUCLIDEAN:
        centers.append(_one_facility_centre(pts, metric, WelfareObjective.TOTAL))
    if len(pts[0]) <= 2:
        centers.append(_one_facility_centre(pts, metric, WelfareObjective.MAX))
    return centers


def _subset_centers(profile: AgentProfile) -> dict[int, list[Point]]:
    """Each group's sorted, distinct _group_centers by agent bitmask, each
    group solved once, smallest first: every nonempty group up to
    _SUBSET_CANDIDATE_MAX_AGENTS agents, only the whole profile beyond."""
    n = profile.n
    sizes = range(1, n + 1) if n <= _SUBSET_CANDIDATE_MAX_AGENTS else [n]
    return {
        sum(1 << i for i in group): sorted(set(
            _group_centers([profile.agents[i] for i in group], profile.metric)
        ))
        for size in sizes
        for group in itertools.combinations(range(n), size)
    }


def _diamond_vertices(
    agents: Sequence[Point], costs: Sequence[float]
) -> set[Point]:
    """Vertices of the arrangement of the agents' axis lines x = a_x and
    y = a_y and of the edge lines x + y = const and x - y = const of the
    Manhattan balls of radius costs[i] around them, on the lines that meet
    the dominating set D up to rounding; finite ones only.

    In u = x + y and v = x - y the ball of agent a is the square
    |u - u_a| <= c_a, |v - v_a| <= c_a.  So D is the rectangle
    [U_lo, U_hi] x [V_lo, V_hi], with U_lo = max(u_a - c_a),
    U_hi = min(u_a + c_a) and V alike.  Its x extent is
    [(U_lo + V_lo) / 2, (U_hi + V_hi) / 2] and its y extent
    [(U_lo - V_hi) / 2, (U_hi - V_lo) / 2].  A point whose u falls below
    U_lo by t is farther than c_a + t from the agent a that sets U_lo; the
    other three sides are alike, and a point whose x or y misses D's extent
    by t misses D's u or v range by t.  So an axis line is kept only within
    delta of D's x or y extent, and an edge line only within delta of
    [U_lo, U_hi] or [V_lo, V_hi].  Kept vertices are built as the full
    arrangement builds them, so they are a subset of its vertices, and a
    dropped vertex leaves some agent's rounded trip above c_a +
    REPLAY_SLACK, so it fails _domination_margin.

    delta: let M bound every |coordinate| and cost, s = M + REPLAY_SLACK
    and eps = 2^-53.  Vertex coordinates stay under 4M, and each rounded
    sum or difference here errs by at most 6 s eps, absolute errors near
    the subnormal range included.  For a dropped vertex, the rounded bounds
    of D and of its extents, widened by delta, are off by at most
    12 s eps; a vertex on an edge line has its u or v within 6 s eps of
    the line; its rounded trip falls short of the exact one by at most
    20 s eps; and c_a + REPLAY_SLACK rounds up by at most s eps.  That is
    39 s eps, and delta = REPLAY_SLACK + 2^-46 s lies 128 s eps past
    REPLAY_SLACK, less a few s eps of its own rounding.  The bound needs
    sums that cannot overflow: where M exceeds 2^512 every line is kept.
    Up to 2^512 every vertex is finite, as its coordinates stay under 4M,
    so only past it are the vertices filtered for finite ones.
    """
    xs = {a[0] for a in agents}
    ys = {a[1] for a in agents}
    sums: set[float] = set()  # x + y
    diffs: set[float] = set()  # x - y
    u_lo = v_lo = -math.inf
    u_hi = v_hi = math.inf
    for (ax, ay), c in zip(agents, costs):
        u, v = ax + ay, ax - ay
        sums.update((u - c, u + c))
        diffs.update((v - c, v + c))
        u_lo, u_hi = max(u_lo, u - c), min(u_hi, u + c)
        v_lo, v_hi = max(v_lo, v - c), min(v_hi, v + c)
    scale = max(max(map(abs, xs)), max(map(abs, ys)), max(costs))
    bounded = scale <= 2.0**512
    if bounded:
        delta = REPLAY_SLACK + 2.0**-46 * (scale + REPLAY_SLACK)
        x_lo, x_hi = (u_lo + v_lo) / 2.0 - delta, (u_hi + v_hi) / 2.0 + delta
        y_lo, y_hi = (u_lo - v_hi) / 2.0 - delta, (u_hi - v_lo) / 2.0 + delta
        u_lo, u_hi = u_lo - delta, u_hi + delta
        v_lo, v_hi = v_lo - delta, v_hi + delta
        xs = {x for x in xs if x_lo <= x <= x_hi}
        ys = {y for y in ys if y_lo <= y <= y_hi}
        sums = {u for u in sums if u_lo <= u <= u_hi}
        diffs = {v for v in diffs if v_lo <= v <= v_hi}
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
    if bounded:
        return vertices
    # offsets near the float range overflow; such a vertex is no placement
    return {p for p in vertices if math.isfinite(p[0]) and math.isfinite(p[1])}


def _lens_points(
    agents: Sequence[Point], costs: Sequence[float], p: Point
) -> list[Point]:
    """Where an agent's gain can peak over the lens D, the intersection of
    the disks of radius costs[i] around the agents, whose circles all pass
    through p: every agent, the point of each circle nearest each other
    agent, and each second crossing of two circles, the reflection of p in
    the line through their centres; finite ones only, in the order they
    are built, repeats included."""
    radius = dict(zip(agents, costs))
    points = list(radius)
    px, py = p
    for (ax, ay), (bx, by) in itertools.permutations(radius, 2):
        # the point of b's circle nearest a
        ux, uy = ax - bx, ay - by
        # distinct points lie a nonzero distance apart, even when subnormal
        gap = math.hypot(ux, uy)
        scale = radius[bx, by] / gap
        points.append((bx + scale * ux, by + scale * uy))
        if (ax, ay) < (bx, by):
            # p less twice its offset from the line through a and b
            offset = 2.0 * ((ux * (py - by) - uy * (px - bx)) / gap) / gap
            points.append((px + offset * uy, py - offset * ux))
    # offsets near the float range overflow; such a point is no placement
    return [q for q in points if math.isfinite(q[0]) and math.isfinite(q[1])]


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
        length2 = dx * dx + dy * dy
        # a squared length below the normal range may have underflowed to
        # 0, and the ends of so short an edge stand in for its points
        if length2 < 2.0**-1022:
            continue
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / length2
        # t is NaN where the products overflow; the ends stand in then
        if 0.0 < t < 1.0:
            q = (a[0] + t * dx, a[1] + t * dy)
            nearest.append((math.dist(p, q), q))
    return min(nearest)[1]


def _best_domination(
    profile: AgentProfile,
    solution: Solution,
    old_costs: Sequence[float],
    candidates: Iterable[Any],
) -> Certificate | None:
    """Certificate for the candidate with the largest single-agent margin
    (_domination_margin), ties broken toward the lexicographically smallest
    location, or None.  The candidates are points where the solution places
    one facility, and location tuples otherwise.

    One scan, with no sort, keeps the best (margin, candidate): a candidate
    replaces it with a larger margin, or with an equal one and a smaller
    location.  Candidates that compare equal, as (-0.0, y) and (0.0, y) do,
    keep the first one scanned, the one a set built in the same order
    keeps.  Each candidate is scored over rows of (agent, trip, trip +
    REPLAY_SLACK), stopping at the first agent made worse; an agent's cost
    is the distance to the point, or the nearest of the locations.  These
    are the floats _domination_margin gets from _nearest_costs, so every
    margin keeps its bits.  A non-finite candidate never wins: an infinite
    cost makes the first agent worse, and a NaN one gains nobody anything.
    """
    dist = _metric_distance(profile.metric)
    single = len(solution.locations) == 1
    if single:
        cost = dist
    else:
        def cost(agent: Point, locations: tuple[Point, ...]) -> float:
            return min(map(dist, itertools.repeat(agent), locations))
    rows = [(agent, trip, trip + REPLAY_SLACK) for agent, trip in zip(profile.agents, old_costs)]
    best_margin = GAIN_TOLERANCE
    best = None
    for candidate in candidates:
        margin = 0.0
        for agent, trip, limit in rows:
            new = cost(agent, candidate)
            if new > limit:
                break
            if trip - new > margin:
                margin = trip - new
        else:
            if margin > best_margin or (
                margin == best_margin and best is not None and candidate < best
            ):
                best_margin = margin
                best = candidate
    if best is None:
        return None
    best_locations = (best,) if single else best
    # candidates are points of the profile's dimension; a centre that
    # rounds past the float range is refused rather than certified
    _require_finite(best_locations)
    dominating = Solution._trusted(best_locations, assign_nearest(best_locations, profile))
    # a margin below an agent's finite old trip is finite
    return Certificate._trusted(
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
) -> Certificate | None:
    """Search for a solution no agent likes less by more than REPLAY_SLACK
    and some agent likes better by more than GAIN_TOLERANCE, against the
    costs the given solution's own assignment implies.

    Dominating candidates use uncapacitated semantics: agents go to their
    nearest facility.  Among dominating candidates the one with the largest
    single-agent improvement wins, ties broken toward the lexicographically
    smallest location tuple.  Every path scores its candidates in one scan,
    with no sort (_best_domination): one facility's candidates as points,
    several facilities' as location tuples.  A candidate's scoring stops
    at the first agent whose trip grows by more than REPLAY_SLACK.

    One facility in the plane has exact candidates, and the budget is not
    used.  The dominating set is the intersection of the balls around the
    agents with their trips as radii.  Under Manhattan distance each
    agent's gain is concave and piecewise linear, so the best gain over
    that set, and the lexicographically smallest point reaching it, lie on
    a vertex of the arrangement of the agents' axis lines and of the edge
    lines of the balls.  In (x + y, x - y) coordinates each ball is a
    square and the set is a rectangle D, so only the lines that meet D
    (up to rounding) are kept: at most O(n^2) candidates, and the same
    answer as the full arrangement (see _diamond_vertices).  Under
    Euclidean distance a
    placement p in the agents' convex hull is Pareto optimal, since moving
    it lengthens the trip of some agent: None there is a proof.  Outside
    the hull the set is a lens D of disks whose circles all pass through
    p, and an agent gains most at the point of D nearest them, which is
    unique.  That point is the agent, or the point of another agent's
    circle nearest them, or an end of an arc of D, where two circles cross
    a second time: at the reflection of p in the line through their
    centres (or p itself, where nobody gains).  These O(n^2) points, and
    the projection of p onto the hull, are the candidates.  On either
    metric None then proves that no placement dominates by more than
    GAIN_TOLERANCE + REPLAY_SLACK, as long as no coordinate of the agents or
    the placement exceeds 64 in magnitude: up to there the rounding in a
    candidate and in its trips stays below REPLAY_SLACK.  For a lens point
    it is a few dozen times 2^-53 of that magnitude (at most 16 times on
    8 000 random profiles), under 3e-13 at 64.  Further out a rounded
    candidate can fail the REPLAY_SLACK test for an agent the exact one
    leaves exactly as well off, and None only means that no candidate
    passed it; the projection, strictly inside every ball, then often
    still certifies.  Every other case (several facilities, other
    dimensions) is budgeted, and None only means none was found among: the
    lattice; the centres of every agent group up to 8 agents, each group
    solved once (_subset_centers), or of the whole profile beyond that;
    one-facility swaps onto any of those points; and, up to 8 agents,
    per-partition centre products, one centre per group of each split.
    Unless one planar Euclidean placement lies in the hull, an agent trip
    past the float range raises OracleCapError before any candidate is
    built.
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
    if not all(map(math.isfinite, old_costs)):
        raise OracleCapError("an agent's trip overflows the float range")
    if planar_single:
        if profile.metric is Metric.MANHATTAN:
            points = _diamond_vertices(profile.agents, old_costs)
        else:
            p = solution.locations[0]
            points = _lens_points(profile.agents, old_costs, p)
            points.append(_hull_projection(p, hull))
        return _best_domination(profile, solution, old_costs, points)

    pool = set(candidate_points(profile, budget))
    centers = _subset_centers(profile)
    pool.update(itertools.chain.from_iterable(centers.values()))
    if m == 1:
        # each swap is a pool point, and so is the whole profile's centre,
        # the one group of the only split
        return _best_domination(profile, solution, old_costs, pool)
    candidates: set[tuple[Point, ...]] = set()
    # swap one facility at a time, keeping the others where they are
    for j in range(m):
        kept = list(solution.locations)
        for loc in pool:
            kept[j] = loc
            candidates.add(tuple(sorted(kept)))
    # one centre per group of each split into at most m groups, padded with
    # repeats
    if profile.n <= _SUBSET_CANDIDATE_MAX_AGENTS:
        for masks in _partitions(profile.n, m):
            for combo in itertools.product(*(centers[mask] for mask in masks)):
                placed = tuple(sorted(combo))
                candidates.add(placed + (placed[-1],) * (m - len(placed)))
    return _best_domination(profile, solution, old_costs, candidates)


def check_strategy_proofness(
    descriptor: MechanismDescriptor,
    profile: AgentProfile,
    spec: FacilitySpec,
    budget: SearchBudget | None = None,
) -> Certificate | None:
    """Search for an agent whose lone misreport moves some facility closer
    to their true location by more than GAIN_TOLERANCE.

    Costs are measured from the true location to the nearest facility, in
    the profile's metric.  The certificate records the largest gain found,
    ties broken toward the smallest agent index and then the first report
    tried.

    Where the kind table gives a kind's misreports, they are exhaustive, and
    None proves that no lone misreport gains more than GAIN_TOLERANCE; the
    budget is not used.  Per-axis percentile picks on the coordinate axes
    (percentile_1d, percentile_multi_d without axes, the coordinate-wise
    median, max and min) get none, and return None once the honest run
    passes, since no report gains at all.  Fix the other agents, and let o
    be their sorted coordinates on axis k, with o[-1] = -inf and
    o[n - 1] = +inf.  Row j picks sorted(column k)[t], t = floor(p_jk (n - 1)),
    which for a report r is clamp(r_k, o[t - 1], o[t]).  So any report
    lands facility j in one box B_j, and the honest report a lands it on
    clamp(a, B_j), the point of B_j nearest a under both metrics: no report
    brings any facility, hence the nearest, closer to a.  In floats, the
    picks are input coordinates, and correctly rounded subtraction and
    sums are monotone, so a Manhattan None is exact.  A Euclidean None
    relies on math.dist being monotone in each |a_k - c_k|; a check of
    2 000 000 pairs, each widened on one axis by a few ulp or a random
    factor, found no inversion.  A one-ulp inversion could pass
    GAIN_TOLERANCE only where ulp(cost) exceeds it, for costs of 2^23 or
    more.  Serial dictatorship gets none either, and its None is exact.
    Every agent its walk reaches, up to the m-th placement, is placed or
    shares a location placed already, so its cost is 0, which no report
    lowers.  The walk stops at the m-th placement, so the other agents'
    reports are never read, and a lone misreport by one of them leaves the
    placement as it is.
    For one_centre each agent tries one report, its reflection through
    itself of the other agent farthest from it, which moves the centre onto
    it: the best gain is the largest honest cost, up to rounding.  For
    lexicographic_first_agent each agent tries at most dim reports, the
    nearest ones below the other agents' smallest report.  These two report
    their own witness, not the lexicographically smallest report of equal
    gain.  Every other mechanism is searched on the budget's lattice, tried
    in lexicographic order, and None only means none was found there.
    """
    honest = run_mechanism(descriptor, profile, spec)
    honest_costs = tuple(_nearest_costs(profile, honest.locations))
    misreports = _KINDS[descriptor.kind].misreports
    pools = misreports(descriptor, profile) if misreports is not None else None
    if pools is None:
        budget = budget if budget is not None else SearchBudget()
        pools = [candidate_points(profile, budget)] * profile.n
    best_gain = GAIN_TOLERANCE
    best: tuple[int, Point] | None = None
    # reports and the mechanism's locations have the profile's dimension
    dist = _metric_distance(profile.metric)
    for index, (agent, pool) in enumerate(zip(profile.agents, pools), start=1):
        if not pool:
            continue
        agents = list(profile.agents)
        for report in pool:
            if report == agent:
                continue
            agents[index - 1] = report
            shifted = _place(
                descriptor, AgentProfile._trusted(tuple(agents), profile.metric), spec.m
            )
            if len(shifted) == 1:
                cost = dist(agent, shifted[0])
            else:
                cost = min(dist(agent, loc) for loc in shifted)
            gain = honest_costs[index - 1] - cost
            if gain > best_gain:
                best_gain = gain
                best = (index, report)
    if best is None:
        return None
    # an honest trip past the float range makes the gain infinite
    if best_gain == math.inf:
        raise OracleCapError("the manipulation gain overflows the float range")
    return Certificate._trusted(
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
    comes within REPLAY_SLACK of the recorded improvement.  A Pareto
    certificate against one facility in the convex hull of a 2-d Euclidean
    profile returns False: that placement is Pareto optimal (see
    check_pareto).  Structurally broken inputs raise ValueError rather than
    returning False.
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
        profile, original = cert.profile, cert.original
        old_costs = _agent_costs(profile, original)
        new_costs = _agent_costs(profile, cert.dominating)
        # a margin replayed against such a placement comes from the
        # REPLAY_SLACK by which _domination_margin lets trips grow
        if (
            len(original.locations) == 1
            and profile.dim == 2
            and profile.metric is Metric.EUCLIDEAN
            and _in_hull(original.locations[0], _convex_hull(profile.agents))
        ):
            return False
        margin = _domination_margin(old_costs, new_costs)
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


def certificate_from_dict(doc: Any) -> Certificate:
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be a JSON object")
    try:
        kind = CertificateKind(doc["kind"])
    except (KeyError, ValueError):
        known = ", ".join(k.value for k in CertificateKind)
        raise ValueError(
            f"unknown certificate kind {doc.get('kind')!r}; expected one of: {known}"
        ) from None
    for field in ("profile", "spec", "original", "dominating"):
        if field in doc and not isinstance(doc[field], dict):
            raise ValueError(f"certificate {field!r} must be an object, got {doc[field]!r}")
    try:
        profile = profile_from_dict(doc["profile"])
        improvement = doc["improvement"]
    except KeyError as missing:
        raise ValueError(f"certificate document is missing {missing.args[0]!r}") from None
    # a string would read as its characters; the permutation's entries are
    # left to Certificate
    _require_list(doc, "permutation", lambda entry: True, "a list of agent indices", "certificate")
    _require_list(doc, "misreport", _is_number, "a list of numbers", "certificate")
    return Certificate(
        kind=kind,
        profile=profile,
        improvement=improvement,
        descriptor=descriptor_from_dict(doc["descriptor"]) if "descriptor" in doc else None,
        spec=spec_from_dict(doc["spec"]) if "spec" in doc else None,
        permutation=doc.get("permutation"),
        original=solution_from_dict(doc["original"]) if "original" in doc else None,
        dominating=solution_from_dict(doc["dominating"]) if "dominating" in doc else None,
        agent_index=doc.get("agent_index"),
        misreport=doc.get("misreport"),
    )
