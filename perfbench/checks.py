"""Answer checks for the benchmark, with references of its own.

No check compares against a recorded output of the program.  Each one
recomputes what it needs with the arithmetic in this file: closed forms,
brute force, convexity bounds and grid searches.  Every check function
returns a list of error strings; an empty list means the answer passed.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

EUCLIDEAN, MANHATTAN = "euclidean", "manhattan"
TOTAL, MAX = "total", "max"

REL_TOL = 1e-9
CERT_TOL = 1e-9
# a profile whose reference search stops early only gets a looser (still
# valid) lower bound
REFERENCE_STEPS = 100


def dist(a: Sequence[float], b: Sequence[float], metric: str) -> float:
    dx, dy = a[0] - b[0], a[1] - b[1]
    if metric == EUCLIDEAN:
        return math.sqrt(dx * dx + dy * dy)
    return abs(dx) + abs(dy)


def welfare_at(points, sites, metric: str, objective: str, assignment=None) -> float:
    """Welfare of facilities at `sites`: each agent pays the distance to its
    assigned site (1-based), or to the nearest one without an assignment."""
    if assignment is None:
        costs = [min(dist(p, s, metric) for s in sites) for p in points]
    else:
        costs = [dist(p, sites[j - 1], metric) for p, j in zip(points, assignment)]
    return sum(costs) if objective == TOTAL else max(costs)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- one-facility references --------------------------------------------------


def rank_pick(values: Sequence[float], p: float) -> float:
    """The 1-based rank 1 + floor(p (n - 1)) of the sorted values."""
    ordered = sorted(values)
    return ordered[math.floor(p * (len(ordered) - 1))]


def enclosing_circle(points) -> tuple[tuple[float, float], float]:
    """Smallest enclosing circle by brute force: the smallest of the
    circles through two or three of the points that holds them all."""
    pts = list(dict.fromkeys(points))
    if len(pts) == 1:
        return pts[0], 0.0
    candidates = []
    for a, b in itertools.combinations(pts, 2):
        centre = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        candidates.append((dist(a, centre, EUCLIDEAN), centre))
    for a, b, c in itertools.combinations(pts, 3):
        d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
        if d == 0:
            continue
        sa, sb, sc = (a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2, c[0] ** 2 + c[1] ** 2)
        ux = (sa * (b[1] - c[1]) + sb * (c[1] - a[1]) + sc * (a[1] - b[1])) / d
        uy = (sa * (c[0] - b[0]) + sb * (a[0] - c[0]) + sc * (b[0] - a[0])) / d
        candidates.append((dist(a, (ux, uy), EUCLIDEAN), (ux, uy)))
    candidates.sort()
    for radius, centre in candidates:
        reach = max(dist(p, centre, EUCLIDEAN) for p in pts)
        if reach <= radius * (1 + 1e-12) + 1e-12:
            return centre, reach
    raise AssertionError("the circle through the two farthest points holds them all")


def mechanism_site(mechanism: str, points) -> tuple[float, float]:
    """Where a one-facility mechanism of the workloads places its facility."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    if mechanism == "multi_dim_median":
        return rank_pick(xs, 0.5), rank_pick(ys, 0.5)
    if mechanism == "percentile_multi_d":
        return rank_pick(xs, 0.25), rank_pick(ys, 0.75)
    if mechanism == "coordinate_max":
        return max(xs), max(ys)
    if mechanism == "coordinate_min":
        return min(xs), min(ys)
    if mechanism == "one_centre":
        return enclosing_circle(points)[0]
    raise ValueError(f"no reference for {mechanism}")


def euclidean_total_bounds(points) -> tuple[float, float]:
    """Two-sided bounds on the least total Euclidean distance.

    An input point that passes the optimality test gives both bounds.
    Otherwise the upper bound is the objective at the best point found by
    damped Newton steps from the centroid (Weiszfeld steps where Newton
    makes no progress, and a step off an input point where the descent
    stalls at its kink).  For the lower bound, convexity gives
    f(x*) >= f(y) - |g| |x* - y| for any subgradient g at y; the minimiser
    lies in the convex hull, so |x* - y| is at most the distance from y to
    the farthest input point.
    """

    def f(y):
        return sum(dist(p, y, EUCLIDEAN) for p in points)

    def pull(y):
        """Net unit pull of the points not at y, and how many are at y."""
        gx = gy = 0.0
        coincident = 0
        for p in points:
            d = dist(p, y, EUCLIDEAN)
            if d == 0.0:
                coincident += 1
                continue
            gx += (p[0] - y[0]) / d
            gy += (p[1] - y[1]) / d
        return gx, gy, coincident

    def targets(y):
        """The Newton target (when the Hessian is regular) and the
        Weiszfeld target from y."""
        hxx = hxy = hyy = wsum = wx = wy = 0.0
        for p in points:
            dx, dy = p[0] - y[0], p[1] - y[1]
            d = math.sqrt(dx * dx + dy * dy)
            ux, uy = dx / d, dy / d
            hxx += (1 - ux * ux) / d
            hxy -= ux * uy / d
            hyy += (1 - uy * uy) / d
            wsum += 1 / d
            wx += p[0] / d
            wy += p[1] / d
        gx, gy, _ = pull(y)
        det = hxx * hyy - hxy * hxy
        out = []
        if det > 1e-12 * (hxx + hyy) ** 2:
            out.append((y[0] + (hyy * gx - hxy * gy) / det, y[1] + (hxx * gy - hxy * gx) / det))
        out.append((wx / wsum, wy / wsum))
        return out

    def descend(y, fy, target):
        t = 1.0
        while t > 1e-9:
            cand = (y[0] + t * (target[0] - y[0]), y[1] + t * (target[1] - y[1]))
            fc = f(cand)
            if fc < fy:
                return cand, fc
            t /= 2
        return None

    def leave_vertex(y):
        """Descent steps stall at the kink of an input point next to y;
        step off it along its net pull."""
        p = min(points, key=lambda q: dist(q, y, EUCLIDEAN))
        gx, gy, _ = pull(p)
        norm = math.hypot(gx, gy)
        reach = max(dist(q, p, EUCLIDEAN) for q in points)
        return descend(p, f(p), (p[0] + gx / norm * reach, p[1] + gy / norm * reach))

    # an input point is optimal when the others pull it by at most its
    # multiplicity
    for p in dict.fromkeys(points):
        gx, gy, coincident = pull(p)
        if math.hypot(gx, gy) <= coincident:
            value = f(p)
            return value, value

    n = len(points)
    y = (sum(p[0] for p in points) / n, sum(p[1] for p in points) / n)
    fy = f(y)
    for _ in range(REFERENCE_STEPS):
        moved = None
        if y not in points:
            for target in targets(y):
                moved = descend(y, fy, target)
                if moved is not None:
                    break
        if moved is None or dist(moved[0], y, EUCLIDEAN) <= 1e-12 * (1.0 + abs(y[0]) + abs(y[1])):
            escaped = leave_vertex(y)
            if escaped is None or escaped[1] >= (fy if moved is None else moved[1]):
                break
            moved = escaped
        y, fy = moved
    best = min([y] + list(points), key=f)
    upper = f(best)
    gx, gy, coincident = pull(best)
    slope = max(0.0, math.hypot(gx, gy) - coincident)
    reach = max(dist(p, best, EUCLIDEAN) for p in points)
    return max(0.0, upper - slope * reach), upper


def one_facility_optimum(points, metric: str, objective: str) -> tuple[float, float]:
    """(lower, upper) bounds on the one-facility optimum; closed forms give
    lower == upper."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    if metric == MANHATTAN and objective == TOTAL:
        mx, my = rank_pick(xs, 0.5), rank_pick(ys, 0.5)
        value = sum(abs(x - mx) for x in xs) + sum(abs(y - my) for y in ys)
        return value, value
    if metric == MANHATTAN:
        us = [x + y for x, y in points]
        vs = [x - y for x, y in points]
        value = max(max(us) - min(us), max(vs) - min(vs)) / 2
        return value, value
    if objective == MAX:
        value = enclosing_circle(points)[1]
        return value, value
    return euclidean_total_bounds(points)


# --- ratio_sweep --------------------------------------------------------------


def check_ratio(case: dict, points, report) -> list[str]:
    """One `facloc bench` trial: the optimum, the mechanism's welfare, the
    ratio, and the bounds of ratio_bounds."""
    errors = []
    mechanism, metric, objective = case["mechanism"], case["metric"], case["objective"]
    n = len(points)
    lower, upper = one_facility_optimum(points, metric, objective)
    opt = report.optimal_welfare
    if not (lower - REL_TOL * max(1.0, lower) <= opt <= upper + REL_TOL * max(1.0, upper)):
        errors.append(f"optimum {opt!r} outside [{lower!r}, {upper!r}]")
    mech = welfare_at(points, [mechanism_site(mechanism, points)], metric, objective)
    if not close(report.mechanism_welfare, mech):
        errors.append(f"mechanism welfare {report.mechanism_welfare!r}, expected {mech!r}")
    if opt > 0 and not close(report.ratio, report.mechanism_welfare / opt):
        errors.append(f"ratio {report.ratio!r} is not mechanism / optimum")
    return errors + ratio_bounds(case, n, report.ratio)


def ratio_bounds(case: dict, n: int, ratio: float) -> list[str]:
    """The bounds a ratio must meet: at least 1, and for the median the
    paper's bounds (at most 2 for the max objective; for Euclidean total
    distance at odd n, sqrt(2) sqrt(n^2 + 1) / (n + 1); exactly 1 for
    rectilinear total distance).  The enclosing-circle centre is the
    Euclidean max-distance optimum, so its ratio there is 1."""
    errors = []
    mechanism, metric, objective = case["mechanism"], case["metric"], case["objective"]
    if ratio < 1 - 1e-9:
        errors.append(f"ratio {ratio!r} below 1")
    if mechanism == "multi_dim_median":
        if objective == MAX and ratio > 2 + 1e-6:
            errors.append(f"median max-distance ratio {ratio!r} above 2")
        if metric == EUCLIDEAN and objective == TOTAL and n % 2 == 1:
            bound = math.sqrt(2) * math.sqrt(n * n + 1) / (n + 1)
            if ratio > bound + 1e-6:
                errors.append(f"median total ratio {ratio!r} above {bound!r} at n={n}")
        if metric == MANHATTAN and objective == TOTAL and abs(ratio - 1) > 1e-9:
            errors.append(f"rectilinear median total ratio {ratio!r} is not 1")
    if mechanism == "one_centre" and metric == EUCLIDEAN and objective == MAX:
        if abs(ratio - 1) > 1e-9:
            errors.append(f"one_centre max ratio {ratio!r} is not 1")
    return errors


# --- two_facility_oracle ------------------------------------------------------


def check_two_facility(case: dict, points, value: float, solution) -> list[str]:
    """An exact two-facility optimum: its value is the welfare of its own
    solution, and under the total objective every agent goes to a nearest
    facility."""
    errors = []
    metric, objective = case["metric"], case["objective"]
    sites = solution.locations
    if len(sites) != 2 or len(solution.assignment) != len(points):
        return [f"solution has {len(sites)} sites for {len(solution.assignment)} agents"]
    own = welfare_at(points, sites, metric, objective, solution.assignment)
    if not close(value, own):
        errors.append(f"value {value!r} but its solution costs {own!r}")
    if objective == TOTAL:
        for i, (p, j) in enumerate(zip(points, solution.assignment), start=1):
            nearest = min(dist(p, s, metric) for s in sites)
            if dist(p, sites[j - 1], metric) > nearest + 1e-9 * max(1.0, nearest):
                errors.append(f"agent {i} is not assigned to a nearest facility")
    return errors


def two_facility_grid_bounds(points, metric: str, objective: str, steps: int = 24):
    """(lower, upper) bounds on the two-facility optimum from a grid search.

    Some optimum places both facilities inside the bounding box.  Moving a
    facility to its nearest grid node changes each agent's distance by at
    most the node spacing's half diagonal (Euclidean) or its half
    perimeter (Manhattan), so the best grid pair exceeds the optimum by at
    most n times that (total) or once that (max).
    """
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    x0, y0 = min(xs), min(ys)
    hx = (max(xs) - x0) / steps
    hy = (max(ys) - y0) / steps
    nodes = [(x0 + i * hx, y0 + j * hy) for i in range(steps + 1) for j in range(steps + 1)]
    table = [tuple(dist(p, s, metric) for p in points) for s in nodes]
    fold = sum if objective == TOTAL else max
    best = math.inf
    for k, a in enumerate(table):
        for b in table[k:]:
            cost = fold(map(min, a, b))
            if cost < best:
                best = cost
    if metric == EUCLIDEAN:
        slack = math.hypot(hx, hy) / 2
    else:
        slack = (hx + hy) / 2
    if objective == TOTAL:
        slack *= len(points)
    return best - slack, best


def check_two_facility_grid(case: dict, points, value: float) -> list[str]:
    lower, upper = two_facility_grid_bounds(points, case["metric"], case["objective"])
    tol = REL_TOL * max(1.0, upper)
    if not lower - tol <= value <= upper + tol:
        return [f"value {value!r} outside grid bounds [{lower!r}, {upper!r}]"]
    return []


# --- axiom_audit --------------------------------------------------------------


def check_audit(case: dict, points, honest, anonymity, pareto, manipulation, verify) -> list[str]:
    """One `facloc check` audit.  `verify` is the program's certificate
    replay; margins are also recomputed here."""
    errors = []
    mechanism, metric = case["mechanism"], case["metric"]
    site = mechanism_site(mechanism, points)
    placed = honest.locations[0]
    if dist(site, placed, EUCLIDEAN) > 1e-9 * max(1.0, abs(site[0]), abs(site[1])):
        errors.append(f"{mechanism} placed {placed!r}, expected {site!r}")
    percentile = mechanism != "one_centre"
    if anonymity is not None:
        # every mechanism of the workload ignores the agents' order
        errors.append(f"{mechanism} reported an anonymity violation")
    if percentile and manipulation is not None:
        errors.append(f"{mechanism} reported a manipulation")
    for cert in (anonymity, pareto, manipulation):
        if cert is not None and not verify(cert):
            errors.append(f"{cert.kind.value} certificate does not replay")
    if pareto is not None:
        old = [
            dist(p, pareto.original.locations[j - 1], metric)
            for p, j in zip(points, pareto.original.assignment)
        ]
        new = [
            dist(p, pareto.dominating.locations[j - 1], metric)
            for p, j in zip(points, pareto.dominating.assignment)
        ]
        if tuple(pareto.original.locations) != tuple(honest.locations):
            errors.append("Pareto certificate is not about the audited placement")
        if any(b > a + 1e-12 for a, b in zip(old, new)):
            errors.append("Pareto certificate leaves an agent worse off")
        margin = max(a - b for a, b in zip(old, new))
        if abs(margin - pareto.improvement) > CERT_TOL:
            errors.append(f"Pareto margin {pareto.improvement!r}, recomputed {margin!r}")
    if manipulation is not None:
        i = manipulation.agent_index
        truth = points[i - 1]
        shifted = list(points)
        shifted[i - 1] = manipulation.misreport
        gain = dist(truth, site, metric) - dist(truth, mechanism_site(mechanism, shifted), metric)
        if abs(gain - manipulation.improvement) > CERT_TOL:
            errors.append(f"manipulation gain {manipulation.improvement!r}, recomputed {gain!r}")
    return errors
