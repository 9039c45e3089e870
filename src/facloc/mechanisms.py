"""Deterministic facility-location mechanisms behind one descriptor type.

A mechanism maps a reported profile to facility locations.  Assignment of
agents to facilities is not part of the mechanism: for uncapacitated
specifications it is always recomputed as nearest-facility with the lowest
index winning ties.  Facility and agent indices are 1-based everywhere they
appear in public records, matching the usual presentation of assignments.

One table, _KINDS, gives each MechanismKind's parameter shape, facility
count and placement.  The per-axis percentile family (percentile_1d,
percentile_multi_d, and the coordinate-wise median, max and min at 0.5, 1
and 0 on every axis) runs through one kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Literal, Sequence

from .geometry import (
    Metric,
    Point,
    _enclosing_circle,
    as_point,
    distance,
    geometric_median,
)


@dataclass(frozen=True)
class AgentProfile:
    """Reported agent locations plus the metric they are measured in."""

    agents: tuple[Point, ...]
    metric: Metric = Metric.EUCLIDEAN

    def __post_init__(self):
        agents = tuple(as_point(a) for a in self.agents)
        if not agents:
            raise ValueError("a profile needs at least one agent")
        dim = len(agents[0])
        if any(len(a) != dim for a in agents):
            raise ValueError("agents have mixed dimensions")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "metric", Metric(self.metric))

    @classmethod
    def _trusted(cls, agents: tuple[Point, ...], metric: Metric) -> "AgentProfile":
        """Profile from agents that are already finite points of one
        dimension, built without validating them again."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "agents", agents)
        object.__setattr__(profile, "metric", metric)
        return profile

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def dim(self) -> int:
        return len(self.agents[0])

    def with_report(self, agent_index: int, location: Iterable[float]) -> "AgentProfile":
        """Profile in which agent `agent_index` (1-based) reports `location`."""
        if not 1 <= agent_index <= self.n:
            raise ValueError(f"agent index {agent_index} out of range 1..{self.n}")
        pt = as_point(location)
        if len(pt) != self.dim:
            raise ValueError("misreport has the wrong dimension")
        agents = list(self.agents)
        agents[agent_index - 1] = pt
        return AgentProfile._trusted(tuple(agents), self.metric)

    def permuted(self, permutation: Sequence[int]) -> "AgentProfile":
        """Profile reordered so position k holds agent permutation[k] (1-based)."""
        if sorted(permutation) != list(range(1, self.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.n}: {permutation!r}")
        return AgentProfile._trusted(
            tuple(self.agents[i - 1] for i in permutation), self.metric
        )


def _integral(value: Any, what: str) -> int:
    """value as an int; integral floats pass, bools and fractions do not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FacilitySpec:
    """How many facilities to place, and optional per-facility capacities."""

    m: int
    capacities: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError(f"facility count must be a positive integer, got {self.m!r}")
        if self.capacities is not None:
            caps = tuple(_integral(c, "capacity") for c in self.capacities)
            if len(caps) != self.m:
                raise ValueError("capacities must list one entry per facility")
            if any(c < 1 for c in caps):
                raise ValueError("capacities must be positive")
            object.__setattr__(self, "capacities", caps)

    @property
    def capacitated(self) -> bool:
        return self.capacities is not None

    def require_feasible_for(self, n: int) -> None:
        if self.capacities is not None and sum(self.capacities) < n:
            raise ValueError(
                f"total capacity {sum(self.capacities)} cannot serve {n} agents"
            )


@dataclass(frozen=True)
class Solution:
    """Facility locations plus a 1-based facility index for each agent."""

    locations: tuple[Point, ...]
    assignment: tuple[int, ...]

    def __post_init__(self):
        locations = tuple(as_point(p) for p in self.locations)
        if not locations:
            raise ValueError("a solution needs at least one facility")
        assignment = tuple(self.assignment)
        # the common all-int case is checked in one pass over the types
        if set(map(type, assignment)) != {int}:
            assignment = tuple(_integral(a, "assignment entry") for a in assignment)
        if any(not 1 <= a <= len(locations) for a in assignment):
            raise ValueError("assignment entries must be facility indices in 1..m")
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "assignment", assignment)


class MechanismKind(enum.Enum):
    PERCENTILE_1D = "percentile_1d"
    PERCENTILE_MULTI_D = "percentile_multi_d"
    MULTI_DIM_MEDIAN = "multi_dim_median"
    GEOMETRIC_MEDIAN = "geometric_median"
    SERIAL_DICTATORSHIP = "serial_dictatorship"
    ONE_CENTRE = "one_centre"
    COORDINATE_MAX = "coordinate_max"
    COORDINATE_MIN = "coordinate_min"
    LEXICOGRAPHIC_FIRST_AGENT = "lexicographic_first_agent"


@dataclass(frozen=True)
class MechanismDescriptor:
    """Black-box handle the checkers and the harness run mechanisms through.

    percentile_params is a flat tuple of probabilities for PERCENTILE_1D and
    a per-facility tuple of per-axis probabilities for PERCENTILE_MULTI_D.
    axes, when given, is an orthonormal basis replacing the coordinate axes.
    Which of these fields a kind takes is its parameter shape in _KINDS.
    """

    kind: MechanismKind
    percentile_params: tuple | None = None
    axes: tuple[tuple[float, ...], ...] | None = None
    agent_order: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", MechanismKind(self.kind))
        shape = _KINDS[self.kind].params
        if shape in ("row", "rows"):
            if self.percentile_params is None:
                raise ValueError(f"{self.kind.value} needs percentile_params")
            if shape == "row":
                params = tuple(float(p) for p in self.percentile_params)
                _check_probabilities(params)
            else:
                params = tuple(tuple(float(p) for p in row) for row in self.percentile_params)
                if not params or any(not row for row in params):
                    raise ValueError("percentile_params rows must be nonempty")
                for row in params:
                    _check_probabilities(row)
            object.__setattr__(self, "percentile_params", params)
        elif self.percentile_params is not None:
            raise ValueError(f"{self.kind.value} takes no percentile_params")
        if self.axes is not None:
            if shape != "rows":
                raise ValueError(f"{self.kind.value} takes no axes")
            axes = tuple(tuple(float(c) for c in axis) for axis in self.axes)
            _check_orthonormal(axes)
            object.__setattr__(self, "axes", axes)
        if self.agent_order is not None:
            if shape != "order":
                raise ValueError(f"{self.kind.value} takes no agent_order")
            object.__setattr__(
                self,
                "agent_order",
                tuple(_integral(i, "agent_order entry") for i in self.agent_order),
            )

    @property
    def implied_facilities(self) -> int | None:
        """Facility count pinned by the kind or its parameters, if any."""
        count = _KINDS[self.kind].facilities
        if count == "per_param":
            return len(self.percentile_params)  # type: ignore[arg-type]
        return 1 if count == "one" else None

    # convenience constructors ------------------------------------------------

    @classmethod
    def median(cls) -> "MechanismDescriptor":
        return cls(MechanismKind.MULTI_DIM_MEDIAN)

    @classmethod
    def geometric(cls) -> "MechanismDescriptor":
        return cls(MechanismKind.GEOMETRIC_MEDIAN)

    @classmethod
    def percentile_line(cls, params: Sequence[float]) -> "MechanismDescriptor":
        return cls(MechanismKind.PERCENTILE_1D, percentile_params=tuple(params))

    @classmethod
    def percentile_plane(
        cls, params: Sequence[Sequence[float]], axes: Sequence[Sequence[float]] | None = None
    ) -> "MechanismDescriptor":
        return cls(
            MechanismKind.PERCENTILE_MULTI_D,
            percentile_params=tuple(tuple(row) for row in params),
            axes=None if axes is None else tuple(tuple(a) for a in axes),
        )

    @classmethod
    def dictatorship(cls, order: Sequence[int] | None = None) -> "MechanismDescriptor":
        return cls(
            MechanismKind.SERIAL_DICTATORSHIP,
            agent_order=None if order is None else tuple(order),
        )

    @classmethod
    def one_centre(cls) -> "MechanismDescriptor":
        return cls(MechanismKind.ONE_CENTRE)

    @classmethod
    def coordinate_extreme(cls, which: Literal["max", "min"]) -> "MechanismDescriptor":
        kind = MechanismKind.COORDINATE_MAX if which == "max" else MechanismKind.COORDINATE_MIN
        return cls(kind)

    @classmethod
    def first_agent(cls) -> "MechanismDescriptor":
        return cls(MechanismKind.LEXICOGRAPHIC_FIRST_AGENT)


def _check_probabilities(values: Iterable[float]) -> None:
    for p in values:
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            raise ValueError(f"percentile parameters must lie in [0, 1], got {p!r}")


def _check_orthonormal(axes: tuple[tuple[float, ...], ...], tol: float = 1e-9) -> None:
    dim = len(axes)
    if not dim or any(len(a) != dim for a in axes):
        raise ValueError("axes must form a square basis")
    for i, a in enumerate(axes):
        for j, b in enumerate(axes):
            dot = sum(x * y for x, y in zip(a, b))
            want = 1.0 if i == j else 0.0
            if abs(dot - want) > tol:
                raise ValueError("axes must be orthonormal")


# --- the mechanisms ----------------------------------------------------------


def _percentile_picks(
    agents: Sequence[Point],
    rows: Sequence[Sequence[float]],
    axes: tuple[tuple[float, ...], ...] | None,
) -> tuple[Point, ...]:
    """The percentile family's one kernel: one facility per parameter row,
    whose coordinate on axis k is sorted(column k)[floor(row[k] * (n - 1))].
    The columns are the agents' coordinates, each pick one of them, -0.0
    included; or, given an orthonormal basis, their projections onto it,
    the picks recombined over it, which folds -0.0 into 0.0.  Rows and
    basis come checked, one entry per axis."""
    top = len(agents) - 1
    if axes is None:
        columns = [sorted(column) for column in zip(*agents)]
    else:
        columns = [
            sorted(sum(c * b for c, b in zip(agent, axis)) for agent in agents)
            for axis in axes
        ]
    # p * top is nonnegative, so int() is its floor
    picks = tuple(
        [tuple([column[int(p * top)] for column, p in zip(columns, row)]) for row in rows]
    )
    if axes is None:
        return picks
    dim = len(axes)
    return tuple(
        tuple(sum(comps[k] * axes[k][j] for k in range(dim)) for j in range(dim))
        for comps in picks
    )


def percentile_1d(xs: Sequence[float], params: Sequence[float]) -> tuple[float, ...]:
    """Facility coordinates x_(1+floor(p*(n-1))) of a sorted 1-d profile,
    one per parameter (1-based rank on the sorted reports)."""
    if any(xs[i] > xs[i + 1] for i in range(len(xs) - 1)):
        raise ValueError("coordinates must be sorted ascending")
    line = MechanismDescriptor.percentile_line(params)
    profile = AgentProfile(tuple((x,) for x in xs))
    return tuple(x for (x,) in _place(line, profile, len(params)))


def percentile_multi_d(
    profile: AgentProfile,
    params: Sequence[Sequence[float]],
    axes: Sequence[Sequence[float]] | None = None,
) -> tuple[Point, ...]:
    """Per-axis percentile mechanism: project onto an orthonormal basis,
    pick the per-axis percentile rank for each facility, recombine."""
    return _place(MechanismDescriptor.percentile_plane(params, axes), profile, len(params))


def serial_dictatorship(
    profile: AgentProfile, order: Sequence[int] | None, m: int
) -> tuple[Point, ...]:
    """Walk agents in the given 1-based order, placing a facility at each new
    location until m are placed; surplus facilities co-locate at the last
    placed location."""
    if m < 1:
        raise ValueError("need at least one facility")
    if order is None:
        order = tuple(range(1, profile.n + 1))
    if sorted(order) != list(range(1, profile.n + 1)):
        raise ValueError(f"order must be a permutation of 1..{profile.n}")
    placed: list[Point] = []
    for idx in order:
        loc = profile.agents[idx - 1]
        if loc not in placed:
            placed.append(loc)
            if len(placed) == m:
                break
    while len(placed) < m:
        placed.append(placed[-1])
    return tuple(placed)


def _one_centre(
    descriptor: MechanismDescriptor, profile: AgentProfile, m: int
) -> tuple[Point, ...]:
    """Center of the smallest circle enclosing the reports (2-d), sorted
    first so the answer is bitwise independent of the agents' order."""
    if profile.dim != 2:
        raise ValueError("one_centre runs on 2-d profiles")
    return (_enclosing_circle(sorted(profile.agents), 0).center,)


def _line_rows(descriptor: MechanismDescriptor, dim: int) -> list[tuple[float]]:
    if dim != 1:
        raise ValueError("percentile_1d runs on 1-d profiles")
    return [(p,) for p in descriptor.percentile_params]  # type: ignore[union-attr]


def _plane_rows(descriptor: MechanismDescriptor, dim: int) -> tuple:
    if descriptor.axes is not None and len(descriptor.axes) != dim:
        raise ValueError("axes dimension does not match the profile")
    rows: tuple = descriptor.percentile_params  # type: ignore[assignment]
    if any(len(row) != dim for row in rows):
        raise ValueError("each facility needs one percentile parameter per axis")
    return rows


@dataclass(frozen=True)
class _Kind:
    """A kind's parameter shape: none, one probability per facility
    ("row"), per-facility rows of per-axis ones with optional axes
    ("rows"), or an agent order; the facilities it places: one, one per
    parameter, or the spec's count; and its placement.  The percentile
    family gives rows, its per-axis parameters for a profile's dimension,
    for _percentile_picks; every other kind gives place."""

    params: Literal["none", "row", "rows", "order"]
    facilities: Literal["one", "per_param", "free"]
    rows: Callable[[MechanismDescriptor, int], Sequence[Sequence[float]]] | None = None
    place: Callable[[MechanismDescriptor, AgentProfile, int], tuple[Point, ...]] | None = None


_KINDS: dict[MechanismKind, _Kind] = {
    MechanismKind.PERCENTILE_1D: _Kind("row", "per_param", rows=_line_rows),
    MechanismKind.PERCENTILE_MULTI_D: _Kind("rows", "per_param", rows=_plane_rows),
    # the median, max and min are the family at 0.5, 1 and 0 on every axis;
    # floor(0.5 * (n - 1)) is the lower median's (n - 1) // 2
    MechanismKind.MULTI_DIM_MEDIAN: _Kind("none", "one", rows=lambda d, dim: ((0.5,) * dim,)),
    MechanismKind.COORDINATE_MAX: _Kind("none", "one", rows=lambda d, dim: ((1.0,) * dim,)),
    MechanismKind.COORDINATE_MIN: _Kind("none", "one", rows=lambda d, dim: ((0.0,) * dim,)),
    # sorted so the iteration path, hence the rounding, is order-free
    MechanismKind.GEOMETRIC_MEDIAN: _Kind(
        "none", "one", place=lambda d, profile, m: (geometric_median(sorted(profile.agents)),)
    ),
    MechanismKind.SERIAL_DICTATORSHIP: _Kind(
        "order", "free", place=lambda d, profile, m: serial_dictatorship(profile, d.agent_order, m)
    ),
    MechanismKind.ONE_CENTRE: _Kind("none", "one", place=_one_centre),
    # the lexicographically smallest report: smallest first coordinate,
    # the remaining coordinates breaking ties
    MechanismKind.LEXICOGRAPHIC_FIRST_AGENT: _Kind(
        "none", "one", place=lambda d, profile, m: (min(profile.agents),)
    ),
}


def assign_nearest(locations: Sequence[Point], profile: AgentProfile) -> tuple[int, ...]:
    """Nearest-facility assignment under the profile metric; equidistant
    agents go to the lowest facility index."""
    if not locations:
        raise ValueError("need at least one facility location")
    assignment = []
    for agent in profile.agents:
        best_j = 1
        best_d = distance(agent, locations[0], profile.metric)
        for j, loc in enumerate(locations[1:], start=2):
            d = distance(agent, loc, profile.metric)
            if d < best_d:
                best_j, best_d = j, d
        assignment.append(best_j)
    return tuple(assignment)


def run_mechanism(
    descriptor: MechanismDescriptor, profile: AgentProfile, spec: FacilitySpec
) -> Solution:
    """Run a described mechanism on a profile.  Capacitated specifications
    are rejected here; pair mechanism locations with the capacitated
    assignment oracle instead."""
    if spec.capacitated:
        raise ValueError(
            "mechanisms place facilities for uncapacitated specifications; "
            "use optimal_capacitated_assignment for capacitated instances"
        )
    implied = descriptor.implied_facilities
    if implied is not None and implied != spec.m:
        raise ValueError(
            f"{descriptor.kind.value} places {implied} facilities, spec asks for {spec.m}"
        )
    locations = _place(descriptor, profile, spec.m)
    return Solution(locations, assign_nearest(locations, profile))


def _place(
    descriptor: MechanismDescriptor, profile: AgentProfile, m: int
) -> tuple[Point, ...]:
    """Facility locations the mechanism picks for m facilities, without the
    spec checks run_mechanism makes; callers have made them for this
    descriptor and facility count."""
    kind = _KINDS[descriptor.kind]
    if kind.rows is None:
        return kind.place(descriptor, profile, m)  # type: ignore[misc]
    agents = profile.agents
    return _percentile_picks(agents, kind.rows(descriptor, len(agents[0])), descriptor.axes)


# --- wire format helpers ------------------------------------------------------


def descriptor_to_dict(descriptor: MechanismDescriptor) -> dict[str, Any]:
    doc: dict[str, Any] = {"kind": descriptor.kind.value}
    params = descriptor.percentile_params
    if params is not None:
        rows = _KINDS[descriptor.kind].params == "rows"
        doc["params"] = [list(row) for row in params] if rows else list(params)
    if descriptor.axes is not None:
        doc["axes"] = [list(a) for a in descriptor.axes]
    if descriptor.agent_order is not None:
        doc["order"] = list(descriptor.agent_order)
    return doc


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _require_list(
    doc: dict[str, Any], field: str, entry_ok: Callable[[Any], bool], what: str
) -> None:
    # a scalar is no sequence, and a string would read as its characters
    value = doc.get(field)
    if value is not None and not (isinstance(value, list) and all(map(entry_ok, value))):
        raise ValueError(f"mechanism {field!r} must be {what}, got {value!r}")


def descriptor_from_dict(doc: dict[str, Any]) -> MechanismDescriptor:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("mechanism must be an object with a 'kind' field")
    try:
        kind = MechanismKind(doc["kind"])
    except ValueError:
        known = ", ".join(k.value for k in MechanismKind)
        raise ValueError(f"unknown mechanism kind {doc['kind']!r} (known: {known})")
    # fields the kind does not take, and the order's entries, are left to the descriptor
    shape = _KINDS[kind].params
    if shape == "row":
        _require_list(doc, "params", _is_number, "a list of numbers")
    elif shape == "rows":
        _require_list(doc, "params", _is_numbers, "a list of lists of numbers")
        _require_list(doc, "axes", _is_numbers, "a list of lists of numbers")
    elif shape == "order":
        _require_list(doc, "order", lambda entry: True, "a list of agent indices")
    return MechanismDescriptor(kind, doc.get("params"), doc.get("axes"), doc.get("order"))


def profile_to_dict(profile: AgentProfile) -> dict[str, Any]:
    return {"agents": [list(a) for a in profile.agents], "metric": profile.metric.value}


def profile_from_dict(doc: dict[str, Any]) -> AgentProfile:
    try:
        metric = Metric(doc.get("metric", "euclidean"))
    except ValueError:
        raise ValueError(f"unknown metric {doc.get('metric')!r} (use euclidean or manhattan)")
    agents = doc.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ValueError("'agents' must be a nonempty list of coordinate lists")
    return AgentProfile(tuple(tuple(a) for a in agents), metric)


def spec_to_dict(spec: FacilitySpec) -> dict[str, Any]:
    return {
        "facilities": spec.m,
        "capacities": None if spec.capacities is None else list(spec.capacities),
    }


def spec_from_dict(doc: dict[str, Any]) -> FacilitySpec:
    m = doc.get("facilities", 1)
    caps = doc.get("capacities")
    return FacilitySpec(m, None if caps is None else tuple(caps))


def solution_to_dict(solution: Solution) -> dict[str, Any]:
    return {
        "locations": [list(p) for p in solution.locations],
        "assignment": list(solution.assignment),
    }


def solution_from_dict(doc: dict[str, Any]) -> Solution:
    return Solution(
        tuple(tuple(p) for p in doc["locations"]), tuple(doc["assignment"])
    )
