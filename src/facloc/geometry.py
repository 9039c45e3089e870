"""Geometric kernels shared by the mechanisms and the welfare oracles.

Points are bare tuples of floats: they hash, compare lexicographically and
survive JSON round trips without a wrapper class.  Everything here is pure.
The randomized enclosing-circle solver takes an explicit seed so callers
stay reproducible.  Each public kernel validates its input and calls an
underscored core that takes nonempty finite points of one dimension as
given, for callers that validated them once already.  `distance` checks
that its two points have one dimension; `_metric_distance` gives the same
float operations without that check, for callers that checked the
dimensions once, per location rather than per agent.  The geometric
median's objective model and Newton solve, and the Manhattan distance,
have a form of their own for points in the plane, with the generic loop's
float operations in the same order, so answers keep their bits; the
generic loop serves 1-d and 3-d points and the tests.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import random
from typing import Callable, Iterable, NamedTuple, Sequence

Point = tuple[float, ...]

# Distance below which two points are treated as the same location.
COINCIDENCE_EPS = 1e-12


class Metric(enum.Enum):
    """Distance kind used by a profile and everything derived from it."""

    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"


class Circle(NamedTuple):
    center: Point
    radius: float


class ConvergenceError(RuntimeError):
    """Iterative solver ran out of rounds.  Carries the last iterate."""

    def __init__(self, message: str, best: Point):
        super().__init__(message)
        self.best = best


class OracleCapError(RuntimeError):
    """Raised when an exact oracle or exhaustive search is asked for an
    instance above its enumeration cap, or past the float range."""


def as_point(coords: Iterable[float]) -> Point:
    coords = tuple(coords)
    # float(True) is 1.0: a JSON true must not pass for a coordinate
    if bool in map(type, coords):
        raise ValueError(f"point coordinates must be numbers, got {coords!r}")
    try:
        pt = tuple(map(float, coords))
    except OverflowError:
        raise ValueError("point has a coordinate beyond the float range") from None
    if not pt:
        raise ValueError("a point needs at least one coordinate")
    if not all(map(math.isfinite, pt)):
        raise ValueError(f"point has non-finite coordinates: {pt!r}")
    return pt


def _validated(points: Iterable[Iterable[float]]) -> list[Point]:
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points have mixed dimensions")
    return pts


def distance(a: Sequence[float], b: Sequence[float], metric: Metric = Metric.EUCLIDEAN) -> float:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if metric is Metric.EUCLIDEAN:
        return math.dist(a, b)
    return _manhattan(a, b)


def _manhattan(a: Sequence[float], b: Sequence[float]) -> float:
    """The L1 distance, unrolled for 2-d points: sum's integer start adds
    exactly, so both forms give the same float."""
    if len(a) == 2:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])
    return sum(map(abs, map(operator.sub, a, b)))


def _metric_distance(metric: Metric) -> Callable[[Sequence[float], Sequence[float]], float]:
    """distance under metric, the same float operations, for points whose
    dimensions the caller has checked: under Manhattan, points of two
    dimensions would be cut to the shorter."""
    return math.dist if metric is Metric.EUCLIDEAN else _manhattan


def bounding_box(points: Iterable[Iterable[float]]) -> tuple[Point, Point]:
    """Coordinate-wise (mins, maxs) of a nonempty point set."""
    return _bounding_box(_validated(points))


def _bounding_box(pts: Sequence[Point]) -> tuple[Point, Point]:
    """bounding_box on already validated points, not checked again."""
    mins = tuple(min(p[k] for p in pts) for k in range(len(pts[0])))
    maxs = tuple(max(p[k] for p in pts) for k in range(len(pts[0])))
    return mins, maxs


def coordinate_median(points: Iterable[Iterable[float]]) -> Point:
    """Per-axis median.  Even counts take the lower middle value, so the
    result is always one of the input coordinates on each axis."""
    return _coordinate_median(_validated(points))


def _coordinate_median(pts: Sequence[Point], upper: bool = False) -> Point:
    """coordinate_median on a nonempty sequence of finite points of one
    dimension, which are not validated again; upper takes the upper middle
    value of an even count instead."""
    idx = len(pts) // 2 if upper else (len(pts) - 1) // 2
    return tuple(sorted(p[k] for p in pts)[idx] for k in range(len(pts[0])))


# relative change of a sum of distances that rounding can fake
_FLAT = 1e-15
# a trial step shortened this many times over fails
_HALVINGS = 8
# net-pull excess below this certifies the answer: the value error is at
# most the excess times the instance diameter, plus twice the distance to
# each input point counted as sitting on the answer
_RESIDUAL_ACCEPT = 1e-6
# a step shorter than this, with a certified excess, ends the search
_STEP_TOLERANCE = 1e-9
# rounds before the search gives up with ConvergenceError
_MAX_ROUNDS = 10_000


class _Model(NamedTuple):
    """The objective around x; sums skip the input points sitting on x."""

    value: float  # total distance
    multiplicity: int  # input points counted as sitting on x
    pull: list[float]  # net unit pull: minus the gradient
    hessian: list[list[float]]
    inv_sum: float  # sum of inverse distances
    # norm of the smallest subgradient at x, |pull| - multiplicity: zero
    # exactly at an optimum
    excess: float

    def improved_by(self, other: _Model) -> bool:
        """other has a smaller excess and, up to rounding, no larger value."""
        return other.excess < self.excess and other.value <= self.value * (1.0 + _FLAT)


class _Objective:
    """Total distance to the input points, and the solver's steps on it.

    `model_at` sums over the points in any dimension.  Points in the plane
    get `planar_model_at` in its place, a loop over scalars that does the
    generic loop's float operations in the same order, so every model, and
    with it every step and answer, has the same bits; the generic loop
    serves 1-d and 3-d points and is the tests' reference."""

    def __init__(self, pts: list[Point]):
        self.pts = pts
        # an input point this close sits on the iterate: a step this short
        # off a kink, at the excess allowed, is lost in the total's rounding
        scale = max(abs(c) for p in pts for c in p)
        self.near = max(COINCIDENCE_EPS, len(pts) * math.ulp(scale) / _RESIDUAL_ACCEPT)
        if len(pts[0]) == 2:
            self.model_at = self.planar_model_at

    def model_at(self, x: Point) -> _Model:
        dim = len(x)
        value, multiplicity, inv_sum = 0.0, 0, 0.0
        pull = [0.0] * dim
        hessian = [[0.0] * dim for _ in range(dim)]
        for p in self.pts:
            d = math.dist(p, x)
            value += d
            if d <= self.near:
                multiplicity += 1
                continue
            w = 1.0 / d
            inv_sum += w
            u = [(a - b) * w for a, b in zip(p, x)]
            for j, row in enumerate(hessian):
                pull[j] += u[j]
                uw = u[j] * w
                for k in range(dim):
                    row[k] -= uw * u[k]
        for j in range(dim):
            hessian[j][j] += inv_sum
        excess = math.hypot(*pull) - multiplicity
        return _Model(value, multiplicity, pull, hessian, inv_sum, excess)

    def planar_model_at(self, x: Point) -> _Model:
        """model_at for 2-d points, term for term.  h01 and h10 are summed
        apart: (u0 w) u1 and (u1 w) u0 can differ in the last bit."""
        x0, x1 = x
        near = self.near
        value, multiplicity, inv_sum = 0.0, 0, 0.0
        g0 = g1 = h00 = h01 = h10 = h11 = 0.0
        for p in self.pts:
            d = math.dist(p, x)
            value += d
            if d <= near:
                multiplicity += 1
                continue
            w = 1.0 / d
            inv_sum += w
            p0, p1 = p
            u0 = (p0 - x0) * w
            u1 = (p1 - x1) * w
            g0 += u0
            uw = u0 * w
            h00 -= uw * u0
            h01 -= uw * u1
            g1 += u1
            uw = u1 * w
            h10 -= uw * u0
            h11 -= uw * u1
        h00 += inv_sum
        h11 += inv_sum
        excess = math.hypot(g0, g1) - multiplicity
        return _Model(value, multiplicity, [g0, g1], [[h00, h01], [h10, h11]], inv_sum, excess)

    def search(
        self, start: Point, step: list[float], accept: Callable[[_Model], bool]
    ) -> tuple[Point, _Model] | None:
        """The first of start + step, start + step / 2, ... that `accept`
        takes the model of, or None after _HALVINGS tries."""
        for t in (0.5**i for i in range(_HALVINGS)):
            cand = tuple(c + t * s for c, s in zip(start, step))
            at = self.model_at(cand)
            if accept(at):
                return cand, at
        return None

    def fallback(self, x: Point, model: _Model) -> tuple[Point, _Model]:
        """Lower of a Weiszfeld step (Vardi-Zhang damped on an input point)
        and an escape step; of two equally low, the better certified.

        Past the float range both fail: where every distance overflows the
        inverse distances sum to 0, and a step's total can be NaN, which
        no total is at most.  That is an OracleCapError."""
        try:
            scale = (1.0 - model.multiplicity / math.hypot(*model.pull)) / model.inv_sum
            target = tuple(c + scale * g for c, g in zip(x, model.pull))
            steps = [s for s in ((target, self.model_at(target)), self.escape_step(x)) if s]
            lowest = min(s[1].value for s in steps) * (1.0 + _FLAT)
            return min((s for s in steps if s[1].value <= lowest), key=lambda s: s[1].excess)
        except (ZeroDivisionError, ValueError):
            raise OracleCapError(
                "geometric median: the distance sum is past the float range"
            ) from None

    def escape_step(self, x: Point) -> tuple[Point, _Model] | None:
        """Step off the kink of the input point p nearest x along its net
        pull, by the Newton length on that ray capped at the instance's
        reach, halved until the total falls below p's.  An optimal p stays."""
        p = min(self.pts, key=lambda q: math.dist(q, x))
        at_p = self.model_at(p)
        if at_p.excess <= 0.0:
            return p, at_p
        norm = math.hypot(*at_p.pull)
        ray = [c / norm for c in at_p.pull]
        curvature = sum(r * h * s for row, r in zip(at_p.hessian, ray) for h, s in zip(row, ray))
        reach = max(math.dist(p, q) for q in self.pts)
        length = reach if curvature * reach <= at_p.excess else at_p.excess / curvature
        return self.search(p, [length * r for r in ray], lambda at: at.value < at_p.value)


def _solve_spd(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Gauss-Jordan elimination without pivoting, which is stable for a
    symmetric positive definite matrix; None once a pivot is not positive.
    A 2x2 system takes `_gauss_jordan`'s float operations written out."""
    if len(rhs) != 2:
        return _gauss_jordan(matrix, rhs)
    (a00, a01), (a10, a11) = matrix
    b0, b1 = rhs
    if a00 <= 0.0:
        return None
    r01, r02 = a01 / a00, b0 / a00
    if (pivot := a11 - a10 * r01) <= 0.0:
        return None
    r12 = (b1 - a10 * r02) / pivot
    return [r02 - r01 * r12, r12]


def _gauss_jordan(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """_solve_spd in any dimension."""
    a = [row + [b] for row, b in zip(matrix, rhs)]
    for col, pivot_row in enumerate(a):
        if (pivot := pivot_row[col]) <= 0.0:
            return None
        pivot_row[:] = [c / pivot for c in pivot_row]
        for row in a:
            if row is not pivot_row:
                fac = row[col]
                row[:] = [r - fac * q for r, q in zip(row, pivot_row)]
    return [row[-1] for row in a]


def geometric_median(points: Iterable[Iterable[float]]) -> Point:
    """Point minimizing the total Euclidean distance to the inputs.

    Input points are tested for optimality up front (net pull of the other
    points no larger than the multiplicity), which makes the result exact
    whenever the optimum sits on an input point.  Only the anchors
    (distinct input points) whose total distance to the points more than
    COINCIDENCE_EPS away is within a slack of the lowest such total are
    tested, in input order, so the first to pass is the first of all
    anchors that would.  For an anchor a, let S be the points more than
    COINCIDENCE_EPS from it, N the m others (a among them), U the exact
    net unit pull of S, f_S the total distance to S and f to all points.
    f is convex, each |p - x| for p in S has gradient (x - p) / |x - p| at
    a, and each point of N is at least |b - a| - COINCIDENCE_EPS from any
    b, so f(b) >= f_S(a) - (|U| - m) |b - a| - m COINCIDENCE_EPS.  In
    floats, with eps = 2^-53:
    - a distance errs by at most 3 eps relative (its differences, and the
      ulp math.dist allows), so a total T of at most n of them by
      delta <= (n + 4) eps;
    - a pull term errs by at most 6 eps relative, and a per-axis sum of at
      most n unit terms by (n - 1) eps times n, so the norm of the pull,
      with its hypot, is within (n + 6)^2 eps of |U|; subnormal terms add
      far less.
    So if a passes, |U| - m <= tol = 1e-12 + (n + 6)^2 eps, and with b the
    lowest anchor and at most n near points each,
        T(a) <= T(b) (1 + delta) / (1 - delta)
                + (1 + delta) (1 + 3 eps) (tol |b - a| + 2n COINCIDENCE_EPS).
    The cutoff takes every rounding term twice over, which also covers its
    own rounding: T(b) (1 + 4 (n + 4) eps) + 2 (tol' |b - a| +
    2n COINCIDENCE_EPS), with tol' = 1e-12 + 2 (n + 6)^2 eps.  This needs
    every distance finite: one that overflows makes a pull term 0.  So if
    any total is infinite, no anchor is skipped.

    Otherwise each round, from the centroid or the lowest anchor if its
    total is lower, takes a damped Newton step on the net-pull field or,
    if that cannot shrink the excess, a Weiszfeld step or an escape from
    the kink of the nearest input point.  Once a step is shorter than
    `_STEP_TOLERANCE` or lowers the total by no more than rounding, the
    iterate is returned if its excess certifies it (see
    `_RESIDUAL_ACCEPT`).  Running out of `_MAX_ROUNDS` rounds raises
    ConvergenceError.
    """
    return _geometric_median(_validated(points))


def _geometric_median(pts: Sequence[Point]) -> Point:
    """geometric_median on a nonempty sequence of finite points of one
    dimension, which are not validated again."""
    n = len(pts)
    if n == 1:
        return pts[0]
    dim = len(pts[0])

    totals = {
        anchor: sum(filter(COINCIDENCE_EPS.__lt__, map(math.dist, pts, itertools.repeat(anchor))))
        for anchor in dict.fromkeys(pts)
    }
    lowest = min(totals, key=totals.get)
    low = totals[lowest]
    # an anchor whose total exceeds its cutoff fails the pull test; if any
    # distance overflows, none is skipped (see geometric_median)
    cuts = max(totals.values()) < math.inf
    base = low + (n + 4) * 2.0**-51 * low + 4 * n * COINCIDENCE_EPS
    per_length = 2e-12 + (n + 6) ** 2 * 2.0**-51
    for anchor, total in totals.items():
        if cuts and total > base + per_length * math.dist(anchor, lowest):
            continue
        others = [(p, d) for p in pts if (d := math.dist(p, anchor)) > COINCIDENCE_EPS]
        pull = [sum((p[k] - anchor[k]) / d for p, d in others) for k in range(dim)]
        if math.hypot(*pull) <= n - len(others) + 1e-12:
            return anchor

    objective = _Objective(pts)
    x = tuple(sum(p[k] for p in pts) / len(pts) for k in range(dim))
    model = objective.model_at(x)
    # start from an input point below the centroid: as no round raises the
    # total beyond rounding, the answer beats every input point either way
    if low < model.value:
        x, model = lowest, objective.model_at(lowest)
    for _ in range(_MAX_ROUNDS):
        if model.excess <= 0.0:
            return x
        delta = None if model.multiplicity else _solve_spd(model.hessian, model.pull)
        moved = objective.search(x, delta, model.improved_by) if delta else None
        moved = moved or objective.fallback(x, model)
        step, flat = math.dist(x, moved[0]), moved[1].value >= model.value * (1.0 - _FLAT)
        x, model = moved
        if (step < _STEP_TOLERANCE or flat) and model.excess <= _RESIDUAL_ACCEPT:
            return x
    raise ConvergenceError(f"geometric median did not converge in {_MAX_ROUNDS} rounds", x)


# --- smallest enclosing circle (randomized incremental) ---------------------

_CONTAINS_EPS = 1 + 1e-14


# _circumcentre's formula multiplies squared offsets by a third offset,
# which leaves the float range once the offsets near 1e102.  Three points
# spanning more than _CIRCUM_SPAN on an axis have their offsets scaled by a
# power of two, the largest to the exponent _CIRCUM_EXP.
_CIRCUM_SPAN = 2.0**101
_CIRCUM_EXP = 100


def _circumcentre(a: Point, b: Point, c: Point) -> Point | None:
    """Centre of the circle through three 2-d points, or None when the
    formula's determinant is 0.0.  It works relative to the midpoint of
    their bounding box, for stability."""
    x0, x1 = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
    y0, y1 = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
    ox, oy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    # scaling by a power of two is exact in the normal range, so a scaled
    # centre offset, scaled back, has the bits the unscaled one would have
    shift = 0
    if x1 - x0 > _CIRCUM_SPAN or y1 - y0 > _CIRCUM_SPAN:
        offsets = (ax, ay, bx, by, cx, cy)
        shift = math.frexp(max(map(abs, offsets)))[1] - _CIRCUM_EXP
        ax, ay, bx, by, cx, cy = (math.ldexp(v, -shift) for v in offsets)
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
         + (cx * cx + cy * cy) * (ay - by)) / d
    y = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
         + (cx * cx + cy * cy) * (bx - ax)) / d
    if shift:
        try:
            x, y = math.ldexp(x, shift), math.ldexp(y, shift)
        except OverflowError:
            raise OracleCapError(
                "enclosing circle: a circumcircle centre is past the float range"
            ) from None
    return (ox + x, oy + y)


@functools.lru_cache(maxsize=64)
def _shuffle_order(n: int, seed: int) -> tuple[int, ...]:
    """Where random.Random(seed).shuffle sends the items of a list of n:
    its swaps depend on the list's length only, not on its items."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return tuple(order)


def smallest_enclosing_circle(points: Iterable[Iterable[float]], seed: int = 0) -> Circle:
    """Smallest circle containing every input point (2-d only).

    Randomized incremental construction; expected linear time.  The shuffle
    is driven by the caller-supplied seed, so identical inputs give
    identical circles.  Near the float range the input is scaled by a
    power of two first, so that the circles the construction passes
    through stay inside it; a radius past the float range reads inf.
    """
    pts = _validated(points)
    if len(pts[0]) != 2:
        raise ValueError("smallest_enclosing_circle expects 2-d points")
    return _enclosing_circle(pts, seed)


# Welzl's construction multiplies an offset between two points by another,
# or by a circumcentre's offset, and a circumcentre it passes through lies
# up to about 2^107 spans from its points (twice the area of a float
# triangle off one line is about ulp^2 or more).  With every coordinate
# within 2^_CIRCLE_EXP those products stay below 2^1005, so larger inputs
# are scaled by a power of two to within it, and the circle scaled back.
_CIRCLE_EXP = 448


def _enclosing_circle(pts: Sequence[Point], seed: int) -> Circle:
    """smallest_enclosing_circle on a nonempty sequence of finite 2-d points,
    which are not validated again.  Points within 2**_CIRCLE_EXP run as
    given; others are scaled by a power of two, which is exact in the
    normal range, and a radius past the float range reads inf."""
    top = max(map(abs, itertools.chain.from_iterable(pts)))
    if top <= 2.0**_CIRCLE_EXP:
        return _welzl(pts, seed)
    shift = math.frexp(top)[1] - _CIRCLE_EXP
    (x, y), radius = _welzl([(math.ldexp(u, -shift), math.ldexp(v, -shift)) for u, v in pts], seed)
    scale = 2.0**shift
    return Circle((x * scale, y * scale), radius * scale)


def _welzl(pts: Sequence[Point], seed: int) -> Circle:
    """_enclosing_circle on points within 2**_CIRCLE_EXP.

    Welzl's three nested passes as one loop over scalars.  The circle so
    far is `center, radius`, and a point lies in it when its distance from
    the centre is at most `limit`, set with each new circle.  Each pass
    runs over the points the pass around it has gone through: the middle
    pass keeps its point q on the boundary, the inner one q and the middle
    pass's point b.  The inner pass starts from the circle on qb as
    diameter and keeps, on each side of qb, the centre of the circle
    through q, b and a point outside it that leans farthest to that side,
    with that lean and that point (_circumcentre).  Radii are computed for
    those two side winners only, each the largest of its three points'
    distances from its centre; the left one wins a tie."""
    shuffled = [pts[i] for i in _shuffle_order(len(pts), seed)]
    center, radius, limit = shuffled[0], 0.0, 0.0
    for i, q in enumerate(shuffled):
        if math.dist(center, q) <= limit:
            continue
        center, radius, limit = q, 0.0, 0.0
        q0, q1 = q
        for j, b in enumerate(shuffled[: i + 1]):
            if math.dist(center, b) <= limit:
                continue
            b0, b1 = b
            # while the circle is the point q, the circle on qb replaces it;
            # once it has a radius, b starts the inner pass from that circle
            inner = radius != 0.0
            center = ((q0 + b0) / 2.0, (q1 + b1) / 2.0)
            radius = max(math.dist(center, q), math.dist(center, b))
            limit = radius * _CONTAINS_EPS
            if not inner:
                continue
            ex, ey = b0 - q0, b1 - q1
            left = right = None
            for p in shuffled[: j + 1]:
                if math.dist(center, p) <= limit:
                    continue
                side = ex * (p[1] - q1) - ey * (p[0] - q0)
                c = _circumcentre(q, b, p)
                if c is None:
                    continue
                lean = ex * (c[1] - q1) - ey * (c[0] - q0)
                if side > 0.0 and (left is None or lean > left_lean):
                    left, left_lean, left_p = c, lean, p
                elif side < 0.0 and (right is None or lean < right_lean):
                    right, right_lean, right_p = c, lean, p
            if left is not None:
                left_r = max(math.dist(left, q), math.dist(left, b), math.dist(left, left_p))
            if right is not None:
                right_r = max(
                    math.dist(right, q), math.dist(right, b), math.dist(right, right_p)
                )
            if left is not None and (right is None or left_r <= right_r):
                center, radius = left, left_r
            elif right is not None:
                center, radius = right, right_r
            limit = radius * _CONTAINS_EPS
    return Circle(center, radius)


def manhattan_one_center(points: Iterable[Iterable[float]]) -> Point:
    """Point minimizing the maximum Manhattan distance to the inputs (2-d).

    Rotating 45 degrees turns Manhattan distance into Chebyshev distance,
    where the optimum is the center of the bounding box.  That centre lies
    in the inputs' own bounding box, so it is finite however large they
    are, unless it rounds past the largest float.
    """
    pts = _validated(points)
    if len(pts[0]) != 2:
        raise ValueError("manhattan_one_center expects 2-d points")
    return _manhattan_centre(pts)


# With every coordinate within 2^_ROTATED_EXP in magnitude, u = x + y and
# v = x - y lie within 2^(_ROTATED_EXP + 1), and the sum or difference of two
# of them within 2^1023, inside the float range.
_ROTATED_EXP = 1021


def _manhattan_centre(pts: Sequence[Point]) -> Point:
    """manhattan_one_center on a nonempty sequence of finite 2-d points,
    which are not validated again.

    With u_lo, u_hi, v_lo, v_hi the extremes of u = x + y and v = x - y,
    the centre's x is (u_lo + v_hi + u_hi + v_lo) / 4.  u_lo + v_hi lies
    between twice the x of the point that attains u_lo and twice that of
    the point that attains v_hi, and so does u_hi + v_lo with the points
    that attain v_lo and u_hi.  So x lies between the points' smallest and
    largest x, and y likewise.  The sums on the way there overflow only
    past about 9e307, and an overflow leaves inf or NaN in the answer.  So
    a finite answer is returned as computed, and otherwise the points are
    scaled by a power of two to within 2^_ROTATED_EXP, which is exact in
    the normal range, and the centre is scaled back and clamped into the
    points' bounding box.  The clamp undoes a rounding past the box's
    edges, the float's end among them, and brings the centre no farther
    from any point."""
    us = [x + y for x, y in pts]
    vs = [x - y for x, y in pts]
    uc = (min(us) + max(us)) / 2.0
    vc = (min(vs) + max(vs)) / 2.0
    x, y = (uc + vc) / 2.0, (uc - vc) / 2.0
    if math.isfinite(x) and math.isfinite(y):
        return (x, y)
    shift = math.frexp(max(map(abs, itertools.chain.from_iterable(pts))))[1] - _ROTATED_EXP
    centre = _manhattan_centre([(math.ldexp(p, -shift), math.ldexp(q, -shift)) for p, q in pts])
    lows, highs = _bounding_box(pts)
    return tuple(
        min(max(c * 2.0**shift, lo), hi) for c, lo, hi in zip(centre, lows, highs)
    )
