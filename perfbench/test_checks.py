"""Each answer check rejects a deliberately wrong answer.

    python3 -m unittest discover -s perfbench -p "test_*.py"

The tests build one real answer per check with facloc, show that the
check accepts it, then tamper with one field at a time and show that the
check reports it.
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from facloc import axioms, mechanisms, welfare  # noqa: E402
from facloc.geometry import Metric  # noqa: E402

ONE = mechanisms.FacilitySpec(1)
TWO = mechanisms.FacilitySpec(2)
BUDGET = axioms.SearchBudget(grid_resolution=0.1, bounding_box_pad=0.5)
AGENTS = ((0.1, 0.2), (0.9, 0.3), (0.4, 0.8), (0.35, 0.45), (0.7, 0.65))


def profile(metric=Metric.EUCLIDEAN, agents=AGENTS):
    return mechanisms.AgentProfile(agents, metric)


def ratio_case(mechanism, metric, objective):
    descriptor = {
        "multi_dim_median": mechanisms.MechanismDescriptor.median(),
        "one_centre": mechanisms.MechanismDescriptor.one_centre(),
    }[mechanism]
    p = profile(Metric(metric))
    report = welfare.approximation_ratio(
        descriptor, p, ONE, welfare.WelfareObjective(objective)
    )
    case = {"mechanism": mechanism, "metric": metric, "objective": objective}
    return case, p.agents, report


class RatioChecks(unittest.TestCase):
    def test_real_answers_pass(self):
        for mechanism in ("multi_dim_median", "one_centre"):
            for metric in ("euclidean", "manhattan"):
                for objective in ("total", "max"):
                    case, agents, report = ratio_case(mechanism, metric, objective)
                    self.assertEqual(checks.check_ratio(case, agents, report), [], case)

    def test_wrong_optimum_is_rejected(self):
        for metric in ("euclidean", "manhattan"):
            for objective in ("total", "max"):
                case, agents, report = ratio_case("multi_dim_median", metric, objective)
                for factor in (0.999, 1.001):
                    opt = report.optimal_welfare * factor
                    wrong = welfare.RatioReport.from_welfares(report.mechanism_welfare, opt)
                    self.assertTrue(checks.check_ratio(case, agents, wrong), (case, factor))

    def test_wrong_mechanism_welfare_is_rejected(self):
        case, agents, report = ratio_case("one_centre", "euclidean", "total")
        wrong = welfare.RatioReport.from_welfares(
            report.mechanism_welfare * 1.01, report.optimal_welfare
        )
        self.assertTrue(checks.check_ratio(case, agents, wrong))

    def test_inconsistent_ratio_is_rejected(self):
        case, agents, report = ratio_case("multi_dim_median", "euclidean", "max")
        wrong = dataclasses.replace(report, ratio=report.ratio * 1.01)
        self.assertTrue(checks.check_ratio(case, agents, wrong))

    def test_ratio_outside_its_bounds_is_rejected(self):
        wrong = (
            ("multi_dim_median", "euclidean", "total", 3, 0.99),
            ("multi_dim_median", "euclidean", "max", 4, 2.01),
            ("multi_dim_median", "manhattan", "max", 4, 2.01),
            ("multi_dim_median", "euclidean", "total", 3, 1.2),
            ("multi_dim_median", "manhattan", "total", 4, 1.001),
            ("one_centre", "euclidean", "max", 5, 1.001),
        )
        for mechanism, metric, objective, n, ratio in wrong:
            case = {"mechanism": mechanism, "metric": metric, "objective": objective}
            self.assertTrue(checks.ratio_bounds(case, n, ratio), (case, n, ratio))
        # the odd-n total bound at n = 3 is sqrt(20) / 4, about 1.118
        case = {"mechanism": "multi_dim_median", "metric": "euclidean", "objective": "total"}
        self.assertEqual(checks.ratio_bounds(case, 3, 1.11), [])
        self.assertEqual(checks.ratio_bounds(case, 4, 1.2), [])


class TwoFacilityChecks(unittest.TestCase):
    def solve(self, metric, objective):
        p = profile(Metric(metric), AGENTS[:4] + ((0.2, 0.9), (0.95, 0.95)))
        value, solution = welfare.optimal_welfare(p, TWO, welfare.WelfareObjective(objective))
        return {"metric": metric, "objective": objective}, p.agents, value, solution

    def test_real_answers_pass(self):
        for metric in ("euclidean", "manhattan"):
            for objective in ("total", "max"):
                case, agents, value, solution = self.solve(metric, objective)
                self.assertEqual(checks.check_two_facility(case, agents, value, solution), [])
                self.assertEqual(checks.check_two_facility_grid(case, agents, value), [])

    def test_value_not_matching_its_solution_is_rejected(self):
        case, agents, value, solution = self.solve("euclidean", "total")
        self.assertTrue(checks.check_two_facility(case, agents, value * 1.001, solution))

    def test_agent_sent_to_the_far_facility_is_rejected(self):
        case, agents, value, solution = self.solve("manhattan", "total")
        flipped = list(solution.assignment)
        flipped[0] = 3 - flipped[0]
        wrong = mechanisms.Solution(solution.locations, tuple(flipped))
        own = checks.welfare_at(agents, wrong.locations, "manhattan", "total", wrong.assignment)
        self.assertTrue(checks.check_two_facility(case, agents, own, wrong))

    def test_value_off_the_grid_bounds_is_rejected(self):
        for metric in ("euclidean", "manhattan"):
            for objective in ("total", "max"):
                case, agents, value, _ = self.solve(metric, objective)
                lower, upper = checks.two_facility_grid_bounds(agents, metric, objective)
                self.assertTrue(checks.check_two_facility_grid(case, agents, upper * 1.01))
                self.assertTrue(checks.check_two_facility_grid(case, agents, lower * 0.99))


class AuditChecks(unittest.TestCase):
    def audit(self, mechanism, metric, agents):
        descriptor = {
            "multi_dim_median": mechanisms.MechanismDescriptor.median(),
            "coordinate_max": mechanisms.MechanismDescriptor.coordinate_extreme("max"),
            "one_centre": mechanisms.MechanismDescriptor.one_centre(),
        }[mechanism]
        p = profile(Metric(metric), agents)
        honest = mechanisms.run_mechanism(descriptor, p, ONE)
        result = (
            honest,
            axioms.check_anonymity(descriptor, p, ONE),
            axioms.check_pareto(p, honest, BUDGET),
            axioms.check_strategy_proofness(descriptor, p, ONE, BUDGET),
        )
        return {"mechanism": mechanism, "metric": metric}, p.agents, descriptor, result

    def check(self, case, agents, result):
        return checks.check_audit(case, agents, *result, axioms.verify_certificate)

    def test_real_answers_pass(self):
        for mechanism in ("multi_dim_median", "coordinate_max", "one_centre"):
            for metric in ("euclidean", "manhattan"):
                case, agents, _, result = self.audit(mechanism, metric, AGENTS[:3])
                self.assertEqual(self.check(case, agents, result), [], case)

    def pareto_certificate(self):
        # the corner pick on three agents is dominated by an interior point
        agents = ((0.0, 0.6), (0.3, 0.0), (0.6, 0.3))
        case, agents, _, result = self.audit("coordinate_max", "manhattan", agents)
        self.assertIsNotNone(result[2])
        return case, agents, result

    def test_pareto_margin_is_recomputed(self):
        case, agents, result = self.pareto_certificate()
        self.assertEqual(self.check(case, agents, result), [])
        cert = dataclasses.replace(result[2], improvement=result[2].improvement * 0.5)
        self.assertTrue(self.check(case, agents, (result[0], result[1], cert, result[3])))

    def test_pareto_certificate_that_hurts_an_agent_is_rejected(self):
        case, agents, result = self.pareto_certificate()
        far = mechanisms.Solution(((5.0, 5.0),), (1,) * len(agents))
        cert = dataclasses.replace(result[2], dominating=far)
        self.assertTrue(self.check(case, agents, (result[0], result[1], cert, result[3])))

    def manipulation(self):
        agents = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.2))
        case, agents, descriptor, result = self.audit("one_centre", "euclidean", agents)
        self.assertIsNotNone(result[3])
        return case, agents, descriptor, result

    def test_manipulation_gain_is_recomputed(self):
        case, agents, _, result = self.manipulation()
        self.assertEqual(self.check(case, agents, result), [])
        cert = dataclasses.replace(result[3], improvement=result[3].improvement + 0.01)
        self.assertTrue(self.check(case, agents, result[:3] + (cert,)))

    def test_manipulation_of_a_percentile_mechanism_is_rejected(self):
        case, agents, _, result = self.manipulation()
        cert = result[3]
        median = mechanisms.MechanismDescriptor.median()
        honest = mechanisms.run_mechanism(median, profile(Metric.EUCLIDEAN, agents), ONE)
        forged = dataclasses.replace(cert, descriptor=median)
        median_case = dict(case, mechanism="multi_dim_median")
        self.assertTrue(self.check(median_case, agents, (honest, None, None, forged)))

    def test_anonymity_violation_is_rejected(self):
        case, agents, descriptor, result = self.audit("multi_dim_median", "manhattan", AGENTS[:3])
        forged = axioms.Certificate(
            kind=axioms.CertificateKind.ANONYMITY_VIOLATION,
            profile=profile(Metric.MANHATTAN, agents),
            improvement=0.1,
            descriptor=descriptor,
            spec=ONE,
            permutation=(2, 1, 3),
        )
        self.assertTrue(self.check(case, agents, (result[0], forged, None, None)))

    def test_wrong_placement_is_rejected(self):
        case, agents, _, result = self.audit("multi_dim_median", "euclidean", AGENTS[:3])
        moved = mechanisms.Solution(((0.5, 0.5),), result[0].assignment)
        self.assertTrue(self.check(case, agents, (moved,) + result[1:]))


if __name__ == "__main__":
    unittest.main()
