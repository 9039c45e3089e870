"""Independent oracles, profile generators and a call counter used by
several test modules.

The oracles are deliberately written against the problem statement, not
against the package internals, so the tests stay a genuine cross-check.
"""

from __future__ import annotations

import itertools
import math
import random
import sys

from facloc import geometry
from facloc.axioms import Certificate, CertificateKind, _domination_margin
from facloc.geometry import Circle, Metric, Point, distance
from facloc.mechanisms import Solution, _require_finite, assign_nearest
from facloc.welfare import _ORIENT_ERRBOUND, _ORIENT_UNDERFLOW, _nearest_costs, _orientation

# the near-collinear profile on which geometry.geometric_median gives up
NEAR_COLLINEAR = (
    (-4.2506123300808296e-10, 3.504115627133421e-10),
    (6.371290347208169e-07, 7.707583144244762e-07),
    (-38.16586842232048, -46.296506213429545),
    (0.0, 0.0),
    (32.75903706249175, 39.73783449986036),
    (0.6360978070386747, 0.7716084368904924),
)


def brute_force_sec(points: list[Point]) -> Circle:
    """Minimum enclosing circle by enumerating every 1-, 2- and 3-point
    candidate circle.  O(n^4); only for small n."""
    pts = [tuple(map(float, p)) for p in points]
    candidates: list[Circle] = [Circle(p, 0.0) for p in pts]
    for a, b in itertools.combinations(pts, 2):
        center = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        r = max(math.dist(center, a), math.dist(center, b))
        candidates.append(Circle(center, r))
    for a, b, c in itertools.combinations(pts, 3):
        d = (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1])) * 2.0
        if d == 0.0:
            continue
        x = ((a[0] ** 2 + a[1] ** 2) * (b[1] - c[1])
             + (b[0] ** 2 + b[1] ** 2) * (c[1] - a[1])
             + (c[0] ** 2 + c[1] ** 2) * (a[1] - b[1])) / d
        y = ((a[0] ** 2 + a[1] ** 2) * (c[0] - b[0])
             + (b[0] ** 2 + b[1] ** 2) * (a[0] - c[0])
             + (c[0] ** 2 + c[1] ** 2) * (b[0] - a[0])) / d
        center = (x, y)
        r = max(math.dist(center, p) for p in (a, b, c))
        candidates.append(Circle(center, r))
    best: Circle | None = None
    for cand in candidates:
        if all(math.dist(cand.center, p) <= cand.radius + 1e-9 for p in pts):
            if best is None or cand.radius < best.radius:
                best = cand
    assert best is not None
    return best


def grid_min_max_distance(
    points: list[Point], metric: Metric, resolution: float, pad: float = 0.0
) -> float:
    """Best max-distance achievable by a single facility on a lattice of the
    given resolution covering the (padded) bounding box."""
    lo_x = min(p[0] for p in points) - pad
    hi_x = max(p[0] for p in points) + pad
    lo_y = min(p[1] for p in points) - pad
    hi_y = max(p[1] for p in points) + pad
    best = math.inf
    steps_x = int(math.ceil((hi_x - lo_x) / resolution)) + 1
    steps_y = int(math.ceil((hi_y - lo_y) / resolution)) + 1
    for i in range(steps_x):
        x = lo_x + i * resolution
        for j in range(steps_y):
            y = lo_y + j * resolution
            value = max(distance((x, y), p, metric) for p in points)
            best = min(best, value)
    return best


def random_points(
    rng: random.Random, n: int, box: float = 100.0, dim: int = 2
) -> list[Point]:
    return [tuple(rng.uniform(0.0, box) for _ in range(dim)) for _ in range(n)]


def _counting(monkeypatch, name):
    """Count the calls of geometry's `name`, through every reference a
    facloc module holds to it."""
    calls = []
    original = getattr(geometry, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "facloc" and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def reference_line_splits(points: list[Point]) -> list[tuple[int, ...]]:
    """welfare._line_splits as a tuple-keyed scan: every pair's left side
    and on-line points in dicts, and each pair's line sorted and split into
    every prefix and suffix, two points on it or more.  The planar scan
    must give this list, in this order."""
    n = len(points)
    full = (1 << n) - 1
    pairs = list(itertools.combinations(range(n), 2))
    left = dict.fromkeys(pairs, 0)
    on: dict[tuple[int, int], list[int]] = {pair: [] for pair in pairs}
    for i, j, k in itertools.combinations(range(n), 3):
        (ax, ay), (bx, by), (cx, cy) = points[i], points[j], points[k]
        lhs = (ax - cx) * (by - cy)
        rhs = (ay - cy) * (bx - cx)
        det = lhs - rhs
        if not abs(det) > _ORIENT_ERRBOUND * (abs(lhs) + abs(rhs)) + _ORIENT_UNDERFLOW:
            det = _orientation(points[i], points[j], points[k])
        if det > 0:
            left[i, j] |= 1 << k
            left[j, k] |= 1 << i
        elif det < 0:
            left[i, k] |= 1 << j
        else:
            on[i, k].append(j)
            on[i, j].append(k)
            on[j, k].append(i)
    sides = {full}
    for i, j in pairs:
        if points[i] == points[j]:
            continue
        line = sorted([i, j, *on[i, j]], key=points.__getitem__)
        whole = sum(1 << k for k in line)
        prefix = 0
        for k in line:
            for mask in (left[i, j] | prefix, left[i, j] | whole ^ prefix):
                sides.add(mask if mask & 1 else full ^ mask)
            prefix |= 1 << k
    return [(mask,) if mask == full else (mask, full ^ mask) for mask in sorted(sides)]


def reference_best_domination(profile, solution, old_costs, candidates):
    """axioms._best_domination as a sort and then a scan: the candidates
    sorted as location tuples, each scored by _domination_margin on its
    _nearest_costs, the first of the largest margin winning.  A sort of
    NaN is no order, so every candidate must be finite.  check_pareto's
    certificate, or its None, must have the repr this scan gives."""
    if len(solution.locations) == 1:
        candidates = [(point,) for point in candidates]
    else:
        candidates = list(candidates)
    assert all(math.isfinite(c) for locations in candidates for p in locations for c in p)
    best_margin = 0.0
    best_locations = None
    for locations in sorted(candidates):
        margin = _domination_margin(old_costs, _nearest_costs(profile, locations))
        if margin > best_margin:
            best_margin = margin
            best_locations = locations
    if best_locations is None:
        return None
    _require_finite(best_locations)
    dominating = Solution._trusted(best_locations, assign_nearest(best_locations, profile))
    return Certificate._trusted(
        kind=CertificateKind.PARETO_DOMINATION,
        profile=profile,
        improvement=best_margin,
        original=solution,
        dominating=dominating,
    )
