import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facloc import geometry
from facloc.bench import BenchConfig, sample_profile
from facloc.geometry import (
    _RESIDUAL_ACCEPT,
    _Objective,
    Circle,
    ConvergenceError,
    Metric,
    OracleCapError,
    as_point,
    bounding_box,
    coordinate_median,
    distance,
    geometric_median,
    manhattan_one_center,
    smallest_enclosing_circle,
)
from helpers import NEAR_COLLINEAR, brute_force_sec, grid_min_max_distance, random_points

coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
points_2d = st.tuples(coords, coords)


def test_distance_examples():
    assert distance((0.0, 0.0), (12.0, 2.0)) == pytest.approx(math.sqrt(148), abs=1e-12)
    assert distance((0.0, 2.0), (1.0, 1.0), Metric.MANHATTAN) == pytest.approx(2.0)
    assert distance((3.0, 4.0), (3.0, 4.0)) == 0.0
    assert distance((3.0, 4.0), (3.0, 4.0), Metric.MANHATTAN) == 0.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance((0.0,), (1.0, 2.0))


@given(points_2d, points_2d, points_2d, st.sampled_from(list(Metric)))
def test_distance_is_a_metric(a, b, c, metric):
    assert distance(a, b, metric) == pytest.approx(distance(b, a, metric), abs=1e-9)
    assert distance(a, b, metric) >= 0.0
    assert distance(a, c, metric) <= distance(a, b, metric) + distance(b, c, metric) + 1e-9


def test_as_point_rejects_integers_beyond_the_float_range():
    with pytest.raises(ValueError, match="beyond the float range"):
        as_point((10**400, 0))


def test_coordinate_median_examples():
    assert coordinate_median([(0, 2), (1, 0), (2, 1)]) == (1.0, 1.0)
    assert coordinate_median([(5, 7)]) == (5.0, 7.0)
    assert coordinate_median([(0, 0), (0, 2), (12, 0), (12, 2)]) == (0.0, 0.0)
    corners = [(0.0, 0.0), (0.0, 2.0), (12.0, 0.0), (12.0, 2.0)]
    assert geometry._coordinate_median(corners, upper=True) == (12.0, 2.0)


def test_coordinate_median_lower_is_rank_floor_half():
    # ten sorted values: the lower median is the 5th in 1-based order
    xs = [(float(v),) for v in (3, 1, 4, 1, 5, 9, 2, 6, 5, 4)]
    assert coordinate_median(xs) == (sorted(v for (v,) in xs)[4],)


def test_geometric_median_rectangle():
    gm = geometric_median([(0, 0), (0, 2), (12, 0), (12, 2)])
    assert gm == pytest.approx((6.0, 1.0), abs=1e-6)


def test_geometric_median_single_point_and_duplicates():
    assert geometric_median([(3, 4)]) == (3.0, 4.0)
    assert geometric_median([(3, 4), (3, 4), (3, 4)]) == (3.0, 4.0)


def test_geometric_median_at_repeated_input_point():
    # optimum sits on the doubled corner; the up-front optimality test makes it exact
    gm = geometric_median([(0, 0), (0, 2), (12, 2), (12, 2)])
    assert gm == (12.0, 2.0)


def test_geometric_median_collinear_even():
    gm = geometric_median([(0.0, 0.0), (10.0, 0.0)])
    # any point on the segment is optimal; the result must achieve the optimum
    total = math.dist(gm, (0, 0)) + math.dist(gm, (10, 0))
    assert total == pytest.approx(10.0, abs=1e-9)


def test_geometric_median_iteration_cap(monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match="in 1 rounds") as err:
        geometric_median([(0, 0), (5, 0), (0, 7)])
    assert len(err.value.best) == 2


# input sets that once stalled the plain iteration at its cap: the optimum
# hugs an input point whose net pull is barely above one, or sits in the
# near-flat valley of close-to-collinear inputs
STALL_CASES = (
    (
        (55.37318218753741, 39.65656739252593),
        (52.186484533464636, 40.45632910795006),
        (35.35703561018468, 23.07803116254049),
    ),
    (
        (-0.5, 4.0),
        (0.9354141122722107, 0.1006255527122134),
        (1.4243786910968819, 1.0724161572971198),
    ),
    (
        (1.0, 2.5),
        (1.1653089955654323, 2.2051144546454355),
        (1.7428586361800682, 1.3215674861361584),
        (2.5151100875717063, 0.25134666678377526),
    ),
    (
        (1.2926858470673945, 2.417965198039182),
        (1.979970014027538, 1.3257974423090597),
        (1.9976971876010141, 0.5955173365959479),
        (2.0, 0.5),
    ),
)


@pytest.mark.parametrize("pts", STALL_CASES)
def test_geometric_median_finishes_near_degenerate_stalls(pts):
    gm = geometric_median(pts)
    # the answer must beat every input point and every tiny perturbation
    total = sum(math.dist(gm, p) for p in pts)
    for p in pts:
        assert total <= sum(math.dist(p, q) for q in pts) + 1e-9
    for dx, dy in ((1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-6), (0.0, -1e-6)):
        nudged = (gm[0] + dx, gm[1] + dy)
        assert total <= sum(math.dist(nudged, q) for q in pts) + 1e-12


def _excess(x, pts, near):
    """Net-pull excess at x: the norm of the unit pull of the points not at
    x, less the number of points at x.  A point counts as at x within the
    solver's resolution radius `near`, where rounding swamps its direction."""
    pull = [0.0] * len(x)
    at_x = 0
    for p in pts:
        d = math.dist(p, x)
        if d <= near:
            at_x += 1
            continue
        for k in range(len(x)):
            pull[k] += (p[k] - x[k]) / d
    return math.hypot(*pull) - at_x


def assert_certified_median(pts):
    gm = geometric_median(pts)  # raises ConvergenceError on failure
    near = _Objective(pts).near
    assert _excess(gm, pts, near) <= _RESIDUAL_ACCEPT
    total = sum(math.dist(gm, p) for p in pts)
    # slack for rounding in a sum of at most nine distances, and for the
    # input points that count as sitting on the answer: each may add twice
    # its distance to the answer's total
    slack = 2 * sum(d for p in pts if (d := math.dist(gm, p)) <= near)
    for p in pts:
        assert total <= sum(math.dist(p, q) for q in pts) * (1 + 1e-13) + slack


# inputs on which a Weiszfeld loop hit its cap or a naive Newton loop went
# wrong: nearly collinear points (one of them trial 47 of `facloc bench
# --mechanism percentile_multi_d --params "0,0;1,1"`, one a ratio-sweep
# trial), an iterate walking into the kink of a non-optimal input point, a
# near-flat valley where a step-size-only stop never fires, and an
# optimum next to an input point whose own excess certifies it
SOLVER_TRAPS = {
    "nearly_collinear": (
        (6.6969393774998665, 93.71175876663045),
        (7.96986767570762, 90.48885065063797),
        (82.22676293130657, 48.51915259275176),
        (93.43229218160556, 41.55471356078603),
    ),
    "bench_seed_4000_trial_582": sample_profile(
        BenchConfig(trials=1, n_range=(3, 9), seed=4000, objective="total", metric="euclidean"),
        582,
    ).agents,
    "kink": (
        (32.889242289806475, 33.355220151638996),
        (34.22055879899092, 53.726204995899806),
        (34.31565903600007, 55.1599911420327),
        (33.708192113132405, 45.89352834898059),
    ),
    "flat_valley": (
        (31.830045066879183, 95.00844107993358),
        (40.28083911412029, 77.3551370972875),
        (53.10983783877452, 50.54928145997202),
        (44.308672667847034, 68.93921281119209),
    ),
    "near_vertex_3d": (
        (11.659434055721805, 57.89317073296176, 70.11279983412173),
        (13.062840497105963, 71.39893877000102, 82.81623865432451),
        (9.321685463620488, 35.39924845786238, 48.951909991038924),
        (12.678305006862253, 67.72179074199667, 79.35900977775334),
    ),
}


@pytest.mark.parametrize("name", sorted(SOLVER_TRAPS))
def test_geometric_median_certified_on_solver_traps(name):
    assert_certified_median(list(SOLVER_TRAPS[name]))


@st.composite
def near_collinear_profiles(draw, dims=(1, 3)):
    """n points along a random line, moved off it perpendicularly by noise
    of standard deviation 1e-9 to 1e-1, some of them duplicated; the
    dimension is drawn from the closed range dims."""
    n = draw(st.integers(2, 9))
    dim = draw(st.integers(*dims))
    unit = st.floats(-1.0, 1.0)
    base = draw(st.lists(st.floats(0.0, 100.0), min_size=dim, max_size=dim))
    direction = draw(
        st.lists(unit, min_size=dim, max_size=dim).filter(lambda v: math.hypot(*v) > 0.1)
    )
    norm = math.hypot(*direction)
    direction = [c / norm for c in direction]
    # uniform noise on [-sqrt(3), sqrt(3)] sigma has standard deviation sigma
    spread = math.sqrt(3.0) * 10.0 ** draw(st.floats(-9.0, -1.0))
    pts = []
    for _ in range(n):
        t = draw(st.floats(-60.0, 60.0))
        noise = [spread * c for c in draw(st.lists(unit, min_size=dim, max_size=dim))]
        along = sum(e * c for e, c in zip(noise, direction))
        pts.append(
            tuple(b + t * c + e - along * c for b, c, e in zip(base, direction, noise))
        )
    index = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=2)):
        pts[dst] = pts[src]
    return pts


@settings(max_examples=200, deadline=None)
@given(near_collinear_profiles())
def test_geometric_median_certified_on_near_collinear_inputs(pts):
    assert_certified_median(pts)


@st.composite
def planar_models(draw):
    """An objective over 2-d points, some duplicated, at scale 1e-6, 1 or
    1e6 and offset by 0 or 1e6, and an iterate: anywhere, on an input
    point, or within the objective's `near` of one."""
    scale = draw(st.sampled_from((1e-6, 1.0, 1e6)))
    offset = draw(st.sampled_from((0.0, 1e6)))
    pts = draw(st.lists(points_2d, min_size=1, max_size=9))
    index = st.integers(0, len(pts) - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=2)):
        pts[dst] = pts[src]
    pts = [(x * scale + offset, y * scale + offset) for x, y in pts]
    objective = _Objective(pts)
    where = draw(st.sampled_from(("anywhere", "on", "near")))
    if where == "anywhere":
        x = tuple(c * scale + offset for c in draw(points_2d))
    else:
        p = pts[draw(index)]
        # each offset below 0.7 near keeps p within near of x
        t = st.floats(-0.7, 0.7) if where == "near" else st.just(0.0)
        x = (p[0] + draw(t) * objective.near, p[1] + draw(t) * objective.near)
    return objective, x


# the generic loop sums h01 and h10 in different orders, (u0 w) u1 and
# (u1 w) u0, and here they differ in the last bit
@example((_Objective([(0.0, 0.0), (3.0, 0.0), (0.0, 1.0)]), (0.7, 0.3)))
@settings(max_examples=300, deadline=None)
@given(planar_models())
def test_planar_model_is_the_generic_loop_bit_for_bit(case):
    objective, x = case
    assert objective.model_at == objective.planar_model_at
    model = objective.model_at(x)
    assert repr(model) == repr(_Objective.model_at(objective, x))
    assert repr(geometry._solve_spd(model.hessian, model.pull)) == repr(
        geometry._gauss_jordan(model.hessian, model.pull)
    )


@example([[0.0, 1.0], [1.0, 1.0]], [1.0, 1.0])  # first pivot zero
@example([[-0.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
@example([[-2.0, 1.0], [1.0, 3.0]], [1.0, 1.0])  # first pivot negative
@example([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])  # second pivot zero
@example([[1.0, 2.0], [2.0, 1.0]], [1.0, 2.0])  # second pivot negative
@example([[math.nan, 1.0], [1.0, 1.0]], [1.0, 2.0])  # NaN pivot passes
@example([[1.0, math.inf], [1.0, 1.0]], [1.0, 2.0])
@given(
    st.lists(st.lists(st.floats(), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.floats(), min_size=2, max_size=2),
)
def test_planar_solve_is_gauss_jordan_bit_for_bit(matrix, rhs):
    want = geometry._gauss_jordan(matrix, rhs)
    assert repr(geometry._solve_spd(matrix, rhs)) == repr(want)


def _median_outcome(pts, median=geometry._geometric_median):
    """median's answer, or its failure with the last iterate."""
    try:
        return repr(median(pts))
    except (ConvergenceError, OracleCapError) as exc:
        return type(exc).__name__, repr(getattr(exc, "best", None))


def assert_planar_solver_is_the_generic_one(pts):
    planar = _median_outcome(pts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Objective, "planar_model_at", _Objective.model_at)
        patch.setattr(geometry, "_solve_spd", geometry._gauss_jordan)
        assert _median_outcome(pts) == planar


KNOWN_TRAPS = {
    **{f"stall_{i}": pts for i, pts in enumerate(STALL_CASES)},
    **SOLVER_TRAPS,
    "near_collinear_failure": NEAR_COLLINEAR,
}


@pytest.mark.parametrize("name", sorted(KNOWN_TRAPS))
def test_planar_solver_matches_the_generic_one_on_known_traps(name):
    assert_planar_solver_is_the_generic_one(list(KNOWN_TRAPS[name]))


@settings(max_examples=100, deadline=None)
@given(near_collinear_profiles(dims=(2, 2)))
def test_planar_solver_matches_the_generic_one_near_collinear(pts):
    assert_planar_solver_is_the_generic_one(pts)


def all_anchor_median(pts):
    """_geometric_median testing the pull at every anchor, with no cutoff
    on its total: the loop the cutoff must agree with."""
    if len(pts) == 1:
        return pts[0]
    dim = len(pts[0])
    totals = {}
    for anchor in dict.fromkeys(pts):
        others = [(p, d) for p in pts if (d := math.dist(p, anchor)) > geometry.COINCIDENCE_EPS]
        pull = [sum((p[k] - anchor[k]) / d for p, d in others) for k in range(dim)]
        if math.hypot(*pull) <= len(pts) - len(others) + 1e-12:
            return anchor
        totals[anchor] = sum(d for _, d in others)
    objective = _Objective(pts)
    x = tuple(sum(p[k] for p in pts) / len(pts) for k in range(dim))
    model = objective.model_at(x)
    lowest = min(totals, key=totals.get)
    if totals[lowest] < model.value:
        x, model = lowest, objective.model_at(lowest)
    for _ in range(geometry._MAX_ROUNDS):
        if model.excess <= 0.0:
            return x
        delta = None if model.multiplicity else geometry._solve_spd(model.hessian, model.pull)
        moved = objective.search(x, delta, model.improved_by) if delta else None
        moved = moved or objective.fallback(x, model)
        step = math.dist(x, moved[0])
        flat = moved[1].value >= model.value * (1.0 - geometry._FLAT)
        x, model = moved
        if (step < geometry._STEP_TOLERANCE or flat) and model.excess <= _RESIDUAL_ACCEPT:
            return x
    raise ConvergenceError("did not converge", x)


@st.composite
def anchor_profiles(draw):
    """2-9 points in 1-3 dimensions, uniform or on a coarse grid (ties
    between anchor totals), some duplicated and some moved off a copy by
    less than COINCIDENCE_EPS, at scale 1e-6, 1 or 1e6 and offset by 0 or
    1e6."""
    n = draw(st.integers(2, 9))
    dim = draw(st.integers(1, 3))
    grid = draw(st.booleans())
    coord = st.integers(-3, 3).map(float) if grid else coords
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    scale = draw(st.sampled_from((1e-6, 1.0, 1e6)))
    offset = draw(st.sampled_from((0.0, 1e6)))
    pts = [tuple(c * scale + offset for c in p) for p in pts]
    index = st.integers(0, n - 1)
    nudge = st.floats(-0.5 * geometry.COINCIDENCE_EPS, 0.5 * geometry.COINCIDENCE_EPS)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=3)):
        pts[dst] = tuple(c + draw(nudge) for c in pts[src]) if draw(st.booleans()) else pts[src]
    return pts


# both anchors of a near pair pass, and the first one's total is 1.8e-12
# above the second's, a gap only the cutoff's COINCIDENCE_EPS terms cover
@example([(0.0, 0.0), (9e-13, 0.0), (10.0, 1.0), (10.0, -1.0)])
# every total is infinite, and an anchor passes because its one overflowing
# distance makes a pull term 0: nothing may be cut
@example([(0.0, 0.0), (1.5e308, 1.5e308)])
@example([(1.5e308, 1.5e308), (0.0, 0.0), (1e308, -1e308)])
@settings(max_examples=300, deadline=None)
@given(anchor_profiles())
def test_anchor_cutoff_keeps_the_all_anchor_answer(pts):
    assert _median_outcome(pts) == _median_outcome(pts, all_anchor_median)


@pytest.mark.parametrize("name", sorted(KNOWN_TRAPS))
def test_anchor_cutoff_keeps_the_all_anchor_answer_on_known_traps(name):
    pts = list(KNOWN_TRAPS[name])
    assert _median_outcome(pts) == _median_outcome(pts, all_anchor_median)


# collinear, so both middle points are optimal and pass the pull test; the
# first in order has the larger total, by rounding
TWO_OPTIMAL_ANCHORS = [(3.7, 3.7), (0.8, 0.8), (20.3, 20.3), (4.4, 4.4)]


def test_first_of_two_passing_anchors_is_returned():
    def total(a):
        return sum(math.dist(a, p) for p in TWO_OPTIMAL_ANCHORS)

    assert total((3.7, 3.7)) > total((4.4, 4.4))
    assert geometry._geometric_median(TWO_OPTIMAL_ANCHORS) == (3.7, 3.7)
    assert geometry._geometric_median(TWO_OPTIMAL_ANCHORS[::-1]) == (4.4, 4.4)


def test_no_passing_anchor_starts_from_the_lowest(monkeypatch):
    # no input point is optimal, and (3, 4), third in order, has the lowest
    # total, below the centroid's: the search starts there
    pts = [(2.0, 2.0), (2.0, 8.0), (3.0, 4.0), (5.0, 9.0)]
    visited = []

    class Recording(_Objective):
        def __init__(self, pts):
            super().__init__(pts)
            model_at = self.model_at

            def recording(x):
                visited.append(x)
                return model_at(x)

            self.model_at = recording

    monkeypatch.setattr(geometry, "_Objective", Recording)
    median = geometry._geometric_median(pts)
    assert visited[:2] == [(3.0, 5.75), (3.0, 4.0)]
    assert repr(median) == repr(all_anchor_median(pts))
    assert median not in pts


@settings(max_examples=60)
@given(st.lists(points_2d, min_size=2, max_size=8))
def test_geometric_median_beats_input_points_and_coordinate_median(pts):
    gm = geometric_median(pts)

    def total(c):
        return sum(math.dist(c, p) for p in pts)

    best_total = total(gm)
    for candidate in pts + [coordinate_median(pts)]:
        assert best_total <= total(candidate) + 1e-6


# the enclosing-circle tests also run past 1e102, where the circumcentre
# formula's cubed offsets leave the float range unless they are scaled,
# and at 1e300, where the construction's products of offsets would
SEC_SCALES = (1.0, 1e100, 1e120, 1e150, 1e300)


def scaled(pts, scale):
    return [(x * scale, y * scale) for x, y in pts]


@pytest.mark.parametrize("scale", SEC_SCALES)
def test_sec_examples(scale):
    tol = dict(abs=1e-12 * scale)
    c = smallest_enclosing_circle(scaled([(0, 0), (0, 0), (0, 1)], scale))
    assert c.center == pytest.approx((0.0, 0.5 * scale), **tol)
    assert c.radius == pytest.approx(0.5 * scale, **tol)

    c = smallest_enclosing_circle(scaled([(0, 0), (0, 2), (12, 0), (12, 2)], scale))
    assert c.center == pytest.approx((6.0 * scale, 1.0 * scale), abs=1e-9 * scale)
    assert c.radius == pytest.approx(math.sqrt(37) * scale, abs=1e-9 * scale)

    c = smallest_enclosing_circle(scaled([(4, 7)], scale))
    assert c == Circle((4.0 * scale, 7.0 * scale), 0.0)


def test_sec_of_an_acute_triangle_past_1e102():
    # its circumcircle is the answer, and unscaled the centre formula
    # overflows on it
    c = smallest_enclosing_circle([(0, 0), (1e120, 0), (5e119, 8e119)])
    assert c.center == pytest.approx((5e119, 2.4375e119), rel=1e-12)
    assert c.radius == pytest.approx(5.5625e119, rel=1e-12)


# trial 2 of `facloc bench --mechanism one_centre --box 1e308`, sorted as
# the mechanism sorts it
BENCH_TRIAL_2 = [
    (1.318468852464846e307, 2.023034049834709e307),
    (1.687934405799445e307, 3.0699783458341503e307),
    (2.508315910998845e307, 3.7120868227637793e307),
    (2.621540692205774e307, 5.503494691115216e307),
    (3.587974310323051e307, 8.119522910982131e307),
    (7.339777127311625e307, 1.690819112050057e306),
]


def test_a_circumcentre_past_the_float_range_is_refused():
    # the circle of agents 4, 2 and 5 has its centre past 1.8e308; unscaled,
    # the construction passes through it, though the smallest circle's
    # centre lies inside the float range, and scaled it does not
    agents = BENCH_TRIAL_2
    with pytest.raises(OracleCapError, match="circumcircle centre is past the float range"):
        geometry._circumcentre(agents[3], agents[1], agents[4])
    circle = smallest_enclosing_circle(agents)
    assert all(map(math.isfinite, (*circle.center, circle.radius)))


FLOAT_MAX = 1.7976931348623157e308
NEAR_MAX_CIRCLE_INPUTS = [
    BENCH_TRIAL_2,
    [(FLOAT_MAX, 0.0), (0.5 * FLOAT_MAX, 0.5 * FLOAT_MAX), (0.0, FLOAT_MAX), (0.0, 0.0)],
    *(random_points(random.Random(s), 6, box=box) for s in range(3) for box in (1e308, -1e308)),
]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("agents", NEAR_MAX_CIRCLE_INPUTS)
def test_circles_near_the_float_range_hold_every_agent_and_are_smallest(agents, seed):
    circle = smallest_enclosing_circle(agents, seed)
    assert all(math.dist(circle.center, p) <= circle.radius for p in agents)
    # the brute force runs on the agents scaled down by 2^1018, which is
    # exact, and its radius is scaled back up
    small = brute_force_sec([tuple(math.ldexp(c, -1018) for c in p) for p in agents])
    assert circle.radius <= math.ldexp(small.radius, 1018) * (1 + 1e-12)


def _circumcircle(a, b, c):
    """The circle through a, b and c on _circumcentre's centre, its radius
    the largest of their distances from it, or None without a centre."""
    center = geometry._circumcentre(a, b, c)
    if center is None:
        return None
    return Circle(center, max(math.dist(center, a), math.dist(center, b), math.dist(center, c)))


@pytest.mark.parametrize("exp", [0, 60, 101, 200, 340, 500, -300])
def test_circumcentre_scales_by_a_power_of_two_exactly(exp):
    # scaling is exact in the normal range, so the offsets scaled inside
    # _circumcentre give the bits of the unscaled formula, scaled
    rng = random.Random(exp)
    for _ in range(200):
        a, b, c = random_points(rng, 3, box=50.0)
        want = _circumcircle(a, b, c)
        got = _circumcircle(*(tuple(math.ldexp(v, exp) for v in p) for p in (a, b, c)))
        if want is None:
            assert got is None
            continue
        assert got.center == tuple(math.ldexp(v, exp) for v in want.center)
        assert got.radius == pytest.approx(math.ldexp(want.radius, exp), rel=1e-15)


def test_sec_requires_2d():
    with pytest.raises(ValueError):
        smallest_enclosing_circle([(1.0,), (2.0,)])


@pytest.mark.parametrize("scale", SEC_SCALES)
def test_sec_matches_brute_force_on_random_instances(scale):
    rng = random.Random(1729)
    for trial in range(200):
        n = rng.randint(1, 8)
        pts = random_points(rng, n, box=50.0)
        if trial % 3 == 0:
            # coarse coordinates provoke duplicates and cocircular ties
            pts = [(round(x), round(y)) for x, y in pts]
        got = smallest_enclosing_circle(scaled(pts, scale), seed=trial)
        want = brute_force_sec(pts)
        assert got.radius == pytest.approx(want.radius * scale, abs=1e-9 * scale)
        assert all(
            math.dist(got.center, p) <= got.radius + 1e-9 * scale for p in scaled(pts, scale)
        )


def test_sec_seed_determinism():
    pts = [(1.0, 2.0), (4.0, -1.0), (3.0, 3.0), (0.0, 0.0)]
    assert smallest_enclosing_circle(pts, seed=5) == smallest_enclosing_circle(pts, seed=5)


@pytest.mark.parametrize("seed", [0, 1, 5, 2026])
def test_cached_shuffle_order_is_the_fresh_shuffle(seed):
    for n in range(1, 13):
        items = [object() for _ in range(n)]
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        assert [items[i] for i in geometry._shuffle_order(n, seed)] == shuffled


def _contains(c, p):
    return math.dist(c.center, p) <= c.radius * geometry._CONTAINS_EPS


def _diameter_circle(a, b):
    center = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    return Circle(center, max(math.dist(center, a), math.dist(center, b)))


def _cross(a, b, p):
    return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])


def _circle_two_fixed(pts, a, b):
    circ = _diameter_circle(a, b)
    left = right = None
    for p in pts:
        if _contains(circ, p):
            continue
        side = _cross(a, b, p)
        c = _circumcircle(a, b, p)
        if c is None:
            continue
        lean = _cross(a, b, c.center)
        if side > 0.0 and (left is None or lean > _cross(a, b, left.center)):
            left = c
        elif side < 0.0 and (right is None or lean < _cross(a, b, right.center)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _circle_one_fixed(pts, q):
    circ = Circle(q, 0.0)
    for i, p in enumerate(pts):
        if _contains(circ, p):
            continue
        if circ.radius == 0.0:
            circ = _diameter_circle(q, p)
        else:
            circ = _circle_two_fixed(pts[: i + 1], q, p)
    return circ


def reference_circle(pts, seed):
    """Welzl's passes as nested functions over Circle values, over a list
    shuffled by a fresh Random(seed): the loop that _enclosing_circle
    writes out over scalars, with the same float operations."""
    shuffled = [tuple(map(float, p)) for p in pts]
    random.Random(seed).shuffle(shuffled)
    circ = None
    for i, p in enumerate(shuffled):
        if circ is None or not _contains(circ, p):
            circ = _circle_one_fixed(shuffled[: i + 1], p)
    return circ


@st.composite
def circle_inputs(draw):
    """1-12 points uniform or on a coarse grid (cocircular ties), or 2-9
    nearly collinear ones; some duplicated; at scale 1e-6, 1 or 1e6 and
    offset by 0 or 1e6."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(("uniform", "grid", "collinear")))
    if shape == "uniform":
        pts = draw(st.lists(points_2d, min_size=n, max_size=n))
    elif shape == "grid":
        pts = [(float(x), float(y)) for x, y in draw(
            st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n)
        )]
    else:
        pts = draw(near_collinear_profiles(dims=(2, 2)))
        n = len(pts)
    index = st.integers(0, n - 1)
    for src, dst in draw(st.lists(st.tuples(index, index), max_size=3)):
        pts[dst] = pts[src]
    scale = draw(st.sampled_from((1e-6, 1.0, 1e6)))
    offset = draw(st.sampled_from((0.0, 1e6)))
    return [(x * scale + offset, y * scale + offset) for x, y in pts]


# cocircular grid points: two circumcircles lean equally far, and the
# first one found is kept, with its third point for the radius; in the
# last two, the tie is on the left and on the right of qb, and keeping the
# later candidate would move the final centre by an ulp
@example([(3.0, 1.0), (-2.0, -1.0), (-1.0, -2.0), (1.0, 3.0), (1.0, 2.0)], 2)
@example(
    [(1.0, -2.0), (-1.0, -1.0), (0.0, 2.0), (0.0, -2.0), (-2.0, 1.0), (-2.0, -1.0), (2.0, 0.0),
     (0.0, 2.0)],
    1,
)
@example([(0.0, 1.0), (0.0, 3.0), (1.0, -2.0), (-2.0, -3.0), (3.0, -2.0), (-3.0, 1.0)], 3)
@example([(0.0, 0.0), (1e120, 0.0), (5e119, 8e119)], 0)
@example([(0.0, 0.0), (1e120, 0.0), (5e119, 8e119)], 3)
@settings(max_examples=300, deadline=None)
@given(circle_inputs(), st.integers(0, 4))
def test_enclosing_circle_matches_a_fresh_shuffle(pts, seed):
    assert repr(smallest_enclosing_circle(pts, seed)) == repr(reference_circle(pts, seed))


def test_median_lies_in_enclosing_circle_odd_counts():
    # smoke-sized version of the acceptance sweep
    rng = random.Random(99)
    for _ in range(500):
        n = rng.choice([3, 5, 7, 9])
        pts = random_points(rng, n)
        med = coordinate_median(pts)
        circ = smallest_enclosing_circle(pts)
        assert math.dist(med, circ.center) <= circ.radius + 1e-9


def test_manhattan_one_center_examples():
    assert manhattan_one_center([(0, 1), (1, 0)]) == pytest.approx((0.5, 0.5), abs=1e-12)
    assert manhattan_one_center([(2, 3)]) == (2.0, 3.0)
    assert manhattan_one_center([(0, 0), (2, 0)]) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_manhattan_one_center_value_on_cross_instance():
    pts = [(0.0, 1.0), (1.0, 0.0)]
    center = manhattan_one_center(pts)
    value = max(distance(center, p, Metric.MANHATTAN) for p in pts)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert grid_min_max_distance(pts, Metric.MANHATTAN, 0.01) >= value - 1e-9


def test_manhattan_one_center_matches_grid_search():
    rng = random.Random(7)
    res = 0.05
    for _ in range(40):
        pts = random_points(rng, rng.randint(1, 6), box=3.0)
        center = manhattan_one_center(pts)
        value = max(distance(center, p, Metric.MANHATTAN) for p in pts)
        grid_value = grid_min_max_distance(pts, Metric.MANHATTAN, res)
        assert value <= grid_value + 1e-9
        assert grid_value <= value + 2 * res


def _plain_manhattan_centre(pts):
    """The rotated box's centre without scaling: the float operations
    manhattan_one_center runs on points up to about 9e307."""
    us = [x + y for x, y in pts]
    vs = [x - y for x, y in pts]
    uc = (min(us) + max(us)) / 2.0
    vc = (min(vs) + max(vs)) / 2.0
    return ((uc + vc) / 2.0, (uc - vc) / 2.0)


def test_manhattan_one_center_past_the_sums_float_range():
    # x + y of the first point overflows; the centre is the one of the
    # points halved, doubled back
    pts = [(1.7e308, 1.7e308), (0.0, 0.0), (1.0, 1.0)]
    assert not math.isfinite(_plain_manhattan_centre(pts)[0])
    assert manhattan_one_center(pts) == (8.5e307, 8.5e307)


def test_a_scaled_centre_is_clamped_into_the_bounding_box():
    # scaled back, the rotated box's centre of this lone agent rounds to
    # (1.915899919696771e298, inf): one ulp past the largest float
    agent = (1.9158989217766164e298, FLOAT_MAX)
    assert not math.isfinite(_plain_manhattan_centre([agent])[1])
    assert repr(manhattan_one_center([agent])) == repr(agent)


_anywhere = st.one_of(
    st.floats(-1.7976931348623157e308, 1.7976931348623157e308),
    st.sampled_from((0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 9e307)),
    st.floats(-100.0, 100.0),
)


@settings(deadline=None, max_examples=300)
@given(pts=st.lists(st.tuples(_anywhere, _anywhere), min_size=1, max_size=6))
def test_manhattan_one_center_lies_in_the_bounding_box(pts):
    center = manhattan_one_center(pts)
    top = max(abs(c) for p in pts for c in p)
    plain = _plain_manhattan_centre(pts)
    if top <= 2.0**1021:
        # nothing overflows there, and the bits are the plain formula's
        assert repr(center) == repr(plain)
    # a few roundings of the largest coordinate off the exact centre, which
    # lies in the bounding box; a centre taken on scaled points, where the
    # plain formula overflows, is clamped into the box
    ulp = math.ulp(top) if all(map(math.isfinite, plain)) else 0.0
    for k, c in enumerate(center):
        lo, hi = min(p[k] for p in pts), max(p[k] for p in pts)
        assert lo - 4 * ulp <= c <= hi + 4 * ulp


def test_bounding_box():
    mins, maxs = bounding_box([(0, 2), (1, 0), (2, 1)])
    assert mins == (0.0, 0.0)
    assert maxs == (2.0, 2.0)


def test_validation_rejects_bad_points():
    with pytest.raises(ValueError):
        coordinate_median([])
    with pytest.raises(ValueError):
        coordinate_median([(0.0, 0.0), (1.0,)])
    with pytest.raises(ValueError):
        geometric_median([(math.inf, 0.0), (0.0, 0.0)])
