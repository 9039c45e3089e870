import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facloc import axioms
from facloc.axioms import (
    GAIN_TOLERANCE,
    REPLAY_SLACK,
    Certificate,
    CertificateKind,
    SearchBudget,
    candidate_points,
    certificate_from_dict,
    certificate_to_dict,
    check_anonymity,
    check_pareto,
    check_strategy_proofness,
    verify_certificate,
)
from facloc.geometry import Metric, bounding_box, distance
from facloc.mechanisms import (
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    MechanismKind,
    Solution,
    _KINDS,
    _place,
    run_mechanism,
)
from facloc.welfare import OracleCapError
from helpers import _counting, random_points

ONE = FacilitySpec(1)
PAIR = AgentProfile(((0.0, 0.0), (5.0, 5.0)))
COARSE = SearchBudget(grid_resolution=0.5, bounding_box_pad=1.0)

# the rectangle whose geometric median every corner can drag onto another corner
RECTANGLE = AgentProfile(((12.0, 0.0), (0.0, 0.0), (0.0, 2.0), (12.0, 2.0)))


def manipulation_cert(**overrides) -> Certificate:
    fields = dict(
        kind=CertificateKind.MANIPULATION,
        profile=PAIR,
        improvement=1.0,
        descriptor=MechanismDescriptor.median(),
        spec=ONE,
        agent_index=1,
        misreport=(1.0, 1.0),
    )
    fields.update(overrides)
    return Certificate(**fields)


class TestCertificateValidation:
    def test_missing_witness_field_rejected(self):
        with pytest.raises(ValueError, match="missing misreport"):
            manipulation_cert(misreport=None)

    def test_foreign_witness_field_rejected(self):
        with pytest.raises(ValueError, match="does not take permutation"):
            manipulation_cert(permutation=(2, 1))

    def test_negative_improvement_rejected(self):
        with pytest.raises(ValueError, match="improvement"):
            manipulation_cert(improvement=-0.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_improvement_rejected(self, bad):
        with pytest.raises(ValueError, match="improvement"):
            manipulation_cert(improvement=bad)

    def test_identity_permutation_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            Certificate(
                kind=CertificateKind.ANONYMITY_VIOLATION,
                profile=PAIR,
                improvement=1.0,
                descriptor=MechanismDescriptor.dictatorship(),
                spec=ONE,
                permutation=(1, 2),
            )

    def test_permutation_must_cover_agents(self):
        with pytest.raises(ValueError, match="permutation"):
            Certificate(
                kind=CertificateKind.ANONYMITY_VIOLATION,
                profile=PAIR,
                improvement=1.0,
                descriptor=MechanismDescriptor.dictatorship(),
                spec=ONE,
                permutation=(2, 3),
            )

    def test_agent_index_out_of_range(self):
        with pytest.raises(ValueError, match="agent_index"):
            manipulation_cert(agent_index=3)

    def test_misreport_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            manipulation_cert(misreport=(1.0,))

    def test_domination_facility_counts_must_match(self):
        with pytest.raises(ValueError, match="number of facilities"):
            Certificate(
                kind=CertificateKind.PARETO_DOMINATION,
                profile=PAIR,
                improvement=1.0,
                original=Solution(((0.0, 0.0),), (1, 1)),
                dominating=Solution(((0.0, 0.0), (5.0, 5.0)), (1, 2)),
            )

    def test_solutions_must_assign_every_agent(self):
        with pytest.raises(ValueError, match="assign every agent"):
            Certificate(
                kind=CertificateKind.PARETO_DOMINATION,
                profile=PAIR,
                improvement=1.0,
                original=Solution(((0.0, 0.0),), (1,)),
                dominating=Solution(((5.0, 5.0),), (1,)),
            )


class TestSearchBudget:
    def test_resolution_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchBudget(grid_resolution=0.0)

    def test_pad_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SearchBudget(bounding_box_pad=-0.1)

    def test_explicit_pad_wins(self):
        assert SearchBudget(bounding_box_pad=3.0).pad_for(PAIR) == 3.0

    def test_default_pad_is_twice_the_diagonal(self):
        assert SearchBudget().pad_for(PAIR) == pytest.approx(2.0 * math.hypot(5, 5))

    def test_degenerate_box_still_gets_padded(self):
        lone = AgentProfile(((2.0, 2.0),))
        assert SearchBudget().pad_for(lone) == 1.0


class TestCandidatePoints:
    def test_contains_agents_lattice_and_corners(self):
        pts = candidate_points(PAIR, SearchBudget(grid_resolution=1.0, bounding_box_pad=1.0))
        assert (0.0, 0.0) in pts and (5.0, 5.0) in pts
        assert (-1.0, -1.0) in pts and (6.0, 6.0) in pts
        assert (2.0, 3.0) in pts

    def test_lattice_is_anchored_to_resolution_multiples(self):
        prof = AgentProfile(((0.3, 0.3), (0.9, 0.9)))
        pts = candidate_points(prof, SearchBudget(grid_resolution=0.5, bounding_box_pad=0.5))
        assert (0.5, 0.5) in pts

    def test_sorted_and_deduplicated(self):
        pts = candidate_points(PAIR, COARSE)
        assert pts == sorted(set(pts))

    def test_oversized_lattice_rejected(self):
        with pytest.raises(OracleCapError, match="lattice"):
            candidate_points(PAIR, SearchBudget(grid_resolution=1e-4))

    def test_lattice_cap_checked_before_allocating(self):
        far = AgentProfile(((0.0, 0.0), (1e5, 1e5)))
        tracemalloc.start()
        try:
            with pytest.raises(OracleCapError, match="holds 7090200284049 points"):
                candidate_points(far, SearchBudget())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "agents, budget",
        [
            # the default pad, twice the diagonal, is past the float range
            (((0.0, 0.0), (1e308, 1e308)), SearchBudget()),
            # a finite bound whose lattice index is not
            (((0.0, 0.0), (1e308, 0.0)), SearchBudget(bounding_box_pad=0.0)),
        ],
    )
    def test_overflowing_box_is_a_cap_not_a_crash(self, agents, budget):
        with pytest.raises(OracleCapError, match="float range"):
            candidate_points(AgentProfile(agents), budget)


class TestAnonymity:
    def test_dictatorship_is_not_anonymous(self):
        cert = check_anonymity(MechanismDescriptor.dictatorship(), PAIR, ONE)
        assert cert is not None
        assert cert.kind is CertificateKind.ANONYMITY_VIOLATION
        assert cert.permutation == (2, 1)
        assert cert.improvement == pytest.approx(math.hypot(5, 5))
        # the swap really does relocate the facility
        swapped = run_mechanism(
            MechanismDescriptor.dictatorship(), PAIR.permuted((2, 1)), ONE
        )
        assert swapped.locations == ((5.0, 5.0),)
        assert verify_certificate(cert)

    @pytest.mark.parametrize(
        "spec, match", [(FacilitySpec(2), "spec asks for 2"), (FacilitySpec(1, (2,)), "capacitated")]
    )
    def test_order_free_kinds_still_check_the_honest_run(self, spec, match):
        # the honest run comes before the order-free proof, so its errors surface
        with pytest.raises(ValueError, match=match):
            check_anonymity(MechanismDescriptor.median(), PAIR, spec)

    def test_single_agent_profile_passes(self):
        lone = AgentProfile(((3.0, 4.0),))
        assert check_anonymity(MechanismDescriptor.dictatorship(), lone, ONE) is None

    @staticmethod
    def count_placements(monkeypatch):
        placed = []

        def counted(*args):
            placed.append(args)
            return _place(*args)

        monkeypatch.setattr(axioms, "_place", counted)
        return placed

    @pytest.mark.parametrize(
        "agents, m, order",
        [
            # twelve distinct locations; four locations three times over,
            # walked out of turn; three locations for five facilities
            ([(float(i), 0.0) for i in range(12)], 2, None),
            ([(float(i % 4), 1.0) for i in range(12)], 2, [12, *range(1, 12)]),
            ([(0.0, float(i % 3)) for i in range(12)], 5, None),
            # C(30, 15) subsets, but separated locations violate at once
            (random_points(random.Random(4), 30, box=1.0), 15, None),
        ],
    )
    def test_separated_locations_violate_within_two_placements(
        self, agents, m, order, monkeypatch
    ):
        placed = self.count_placements(monkeypatch)
        profile = AgentProfile(tuple(agents))
        cert = check_anonymity(MechanismDescriptor.dictatorship(order), profile, FacilitySpec(m))
        assert cert is not None and len(placed) <= 2
        assert verify_certificate(cert)

    @pytest.mark.parametrize(
        "agents, m",
        [
            # one location (k = 1), and four for four facilities (k = m)
            ([(2.0, -1.0)] * 12, 3),
            ([(float(i % 4), 0.5) for i in range(12)], 4),
        ],
    )
    def test_only_the_honest_placement_is_reachable(self, agents, m, monkeypatch):
        placed = self.count_placements(monkeypatch)
        profile = AgentProfile(tuple(agents))
        order = [*range(12, 0, -1)]
        for desc in (MechanismDescriptor.dictatorship(), MechanismDescriptor.dictatorship(order)):
            assert check_anonymity(desc, profile, FacilitySpec(m)) is None
        assert placed == []

    def test_too_many_placements_near_each_other_are_refused_first(self, monkeypatch):
        # 30 points 5e-11 apart on a line: C(30, 15) is about 155 million
        placed = self.count_placements(monkeypatch)
        line = AgentProfile(tuple((i * 5e-11,) for i in range(30)))
        with pytest.raises(OracleCapError, match="155117520 facility multisets"):
            check_anonymity(MechanismDescriptor.dictatorship(), line, FacilitySpec(15))
        assert placed == []

    @settings(deadline=None, max_examples=300)
    @given(
        dim=st.integers(1, 3),
        step=st.sampled_from((4e-10, 7.1e-10, 1e-9, 1.0000000000000002e-9, 1.5e-9, 1.0)),
        offset=st.sampled_from((0.0, -3.0, 1e6)),
        data=st.data(),
    )
    def test_the_near_pair_window_decides_as_every_pair(self, dim, step, offset, data):
        # grid sites a step apart, some nudged by a few ulp, so that pairs
        # fall on both sides of GAIN_TOLERANCE along and across the axes
        site = st.tuples(*[st.integers(-3, 3)] * dim)
        nudge = st.sampled_from((0.0, 2.0**-60, -(2.0**-58), 1e-10))
        points = {
            tuple(offset + k * step + data.draw(nudge) for k in cell)
            for cell in data.draw(st.lists(site, min_size=1, max_size=12))
        }
        every_pair = any(
            math.dist(p, q) <= GAIN_TOLERANCE for p, q in itertools.combinations(points, 2)
        )
        assert axioms._has_near_pair(points) == every_pair

    @settings(deadline=None, max_examples=40)
    @given(
        pts=st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=1,
            max_size=5,
        ),
        metric=st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]),
    )
    def test_median_is_anonymous(self, pts, metric):
        prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts), metric)
        assert check_anonymity(MechanismDescriptor.median(), prof, ONE) is None


class TestPareto:
    def test_max_corner_is_dominated(self):
        prof = AgentProfile(((0.0, 2.0), (1.0, 0.0), (2.0, 1.0)), Metric.MANHATTAN)
        sol = run_mechanism(MechanismDescriptor.coordinate_extreme("max"), prof, ONE)
        assert sol.locations == ((2.0, 2.0),)
        cert = check_pareto(prof, sol, COARSE)
        assert cert is not None
        assert cert.dominating.locations == ((1.0, 1.0),)
        assert cert.improvement == pytest.approx(2.0)
        assert verify_certificate(cert)

    def test_low_percentile_corner_is_dominated(self):
        prof = AgentProfile(
            ((0.0, 2.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0)), Metric.MANHATTAN
        )
        desc = MechanismDescriptor.percentile_plane(((0.0, 0.4),))
        sol = run_mechanism(desc, prof, ONE)
        assert sol.locations == ((0.0, 0.0),)
        cert = check_pareto(prof, sol, COARSE)
        assert cert is not None
        assert cert.dominating.locations == ((1.0, 1.0),)
        assert cert.improvement == pytest.approx(2.0)
        assert verify_certificate(cert)

    def test_facility_on_the_only_agent_passes(self):
        lone = AgentProfile(((2.0, 3.0),))
        sol = Solution(((2.0, 3.0),), (1,))
        assert check_pareto(lone, sol, COARSE) is None

    def test_wasteful_duplicate_facility_is_dominated(self):
        prof = AgentProfile(((0.0, 0.0), (0.0, 0.0), (9.0, 9.0), (9.0, 9.0)))
        sol = Solution(((0.0, 0.0), (0.0, 0.0)), (1, 1, 2, 2))
        cert = check_pareto(prof, sol, COARSE)
        assert cert is not None
        assert cert.dominating.locations == ((0.0, 0.0), (9.0, 9.0))
        assert cert.improvement == pytest.approx(9.0 * math.sqrt(2.0))
        assert verify_certificate(cert)

    def test_assignment_length_checked(self):
        with pytest.raises(ValueError, match="assign every agent"):
            check_pareto(PAIR, Solution(((0.0, 0.0),), (1,)), COARSE)

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.MANHATTAN])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_one_facility_off_the_plane_searches_the_lattice(self, dim, metric):
        def point(x):
            return (x,) + (0.0,) * (dim - 1)

        prof = AgentProfile((point(0.0), point(2.0)), metric)
        cert = check_pareto(prof, Solution((point(3.0),), (1, 1)), COARSE)
        assert cert is not None
        # the far agent gains most where the near one's ball meets its side
        assert cert.dominating.locations == (point(1.0),)
        assert cert.improvement == 2.0
        assert verify_certificate(cert)
        # between the agents every move lengthens someone's trip
        assert check_pareto(prof, Solution((point(1.5),), (1, 1)), COARSE) is None

    @pytest.mark.parametrize("n, calls", [(8, 2**8 - 1), (9, 1)])
    def test_each_agent_group_is_solved_once(self, monkeypatch, n, calls):
        # up to 8 agents every nonempty group once, for the swap pool and the
        # partition products alike; beyond that only the whole profile
        solved = []
        group_centers = axioms._group_centers

        def counting(group, metric):
            solved.append(tuple(sorted(group)))
            return group_centers(group, metric)

        monkeypatch.setattr(axioms, "_group_centers", counting)
        prof = AgentProfile(tuple((float(i % 3), float(i // 3)) for i in range(n)))
        sol = run_mechanism(MechanismDescriptor.dictatorship(), prof, FacilitySpec(2))
        check_pareto(prof, sol, COARSE)
        assert len(solved) == calls
        assert len(set(solved)) == calls

    def test_budgeted_search_refuses_an_overflowing_trip(self):
        # the far agent's old trip is infinite, which would make any margin
        # infinite: a cap, as on the planar one-facility path
        prof = AgentProfile(((0.0, 0.0), (1.2e308, 1.2e308)), Metric.MANHATTAN)
        sol = Solution(((0.0, 0.0), (0.0, 0.0)), (1, 2))
        with pytest.raises(OracleCapError, match="trip overflows the float range"):
            check_pareto(prof, sol, SearchBudget(4e307, bounding_box_pad=0.0))

    @settings(deadline=None, max_examples=25)
    @given(
        pts=st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            min_size=1,
            max_size=6,
        ),
        metric=st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]),
        m=st.integers(1, 2),
    )
    def test_dictatorship_solutions_are_undominated(self, pts, metric, m):
        prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts), metric)
        sol = run_mechanism(MechanismDescriptor.dictatorship(), prof, FacilitySpec(m))
        assert check_pareto(prof, sol, SearchBudget(1.0, bounding_box_pad=1.0)) is None


class TestStrategyProofness:
    def test_geometric_median_rewards_corner_exaggeration(self):
        desc = MechanismDescriptor.geometric()
        cert = check_strategy_proofness(desc, RECTANGLE, ONE, COARSE)
        assert cert is not None
        assert cert.agent_index == 1
        assert cert.misreport == (12.0, 2.0)
        assert cert.improvement == pytest.approx(math.sqrt(37.0) - 2.0, abs=1e-9)
        assert verify_certificate(cert)

    def test_enclosing_circle_rewards_stretching(self):
        prof = AgentProfile(((0.0, 1.0), (0.0, 0.0), (0.0, 0.0)))
        cert = check_strategy_proofness(MechanismDescriptor.one_centre(), prof, ONE, COARSE)
        assert cert is not None
        assert cert.agent_index == 1
        assert cert.misreport == (0.0, 2.0)
        assert cert.improvement == pytest.approx(0.5, abs=1e-9)
        assert verify_certificate(cert)

    def test_first_agent_rule_is_manipulable_off_axis(self):
        prof = AgentProfile(((0.0, 1.0), (1.0, 0.0)))
        cert = check_strategy_proofness(MechanismDescriptor.first_agent(), prof, ONE)
        assert cert is not None
        assert cert.agent_index == 2
        assert cert.misreport == (0.0, 0.0)
        assert cert.improvement == pytest.approx(math.sqrt(2.0) - 1.0)
        assert verify_certificate(cert)

    def test_first_agent_rule_survives_collinear_pair(self):
        # nothing left of the facility helps the far agent here: pulling the
        # choice toward yourself means reporting past it, which moves it away
        prof = AgentProfile(((0.0, 0.0), (1.0, 0.0)))
        budget = SearchBudget(grid_resolution=0.25, bounding_box_pad=2.0)
        assert (
            check_strategy_proofness(MechanismDescriptor.first_agent(), prof, ONE, budget)
            is None
        )

    @settings(deadline=None, max_examples=20)
    @given(
        pts=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=3,
            max_size=5,
        ).filter(lambda pts: len(pts) % 2 == 1),
        metric=st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]),
    )
    def test_median_resists_odd_profiles(self, pts, metric):
        prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts), metric)
        budget = SearchBudget(grid_resolution=1.0, bounding_box_pad=1.0)
        assert check_strategy_proofness(MechanismDescriptor.median(), prof, ONE, budget) is None

    @settings(deadline=None, max_examples=20)
    @given(
        xs=st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        params=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=2
        ),
    )
    def test_line_percentiles_resist_misreports(self, xs, params):
        prof = AgentProfile(tuple((float(x),) for x in xs))
        desc = MechanismDescriptor.percentile_line(tuple(params))
        budget = SearchBudget(grid_resolution=1.0, bounding_box_pad=2.0)
        cert = check_strategy_proofness(desc, prof, FacilitySpec(len(params)), budget)
        assert cert is None


class TestVerification:
    def test_fabricated_anonymity_claim_fails(self):
        cert = Certificate(
            kind=CertificateKind.ANONYMITY_VIOLATION,
            profile=PAIR,
            improvement=1.0,
            descriptor=MechanismDescriptor.median(),
            spec=ONE,
            permutation=(2, 1),
        )
        assert not verify_certificate(cert)

    def test_zero_improvement_never_verifies(self):
        assert not verify_certificate(manipulation_cert(improvement=0.0))

    def test_inflated_margin_fails(self):
        prof = AgentProfile(((0.0, 2.0), (1.0, 0.0), (2.0, 1.0)), Metric.MANHATTAN)
        sol = Solution(((2.0, 2.0),), (1, 1, 1))
        cert = check_pareto(prof, sol, COARSE)
        assert cert is not None
        inflated = dataclasses.replace(cert, improvement=cert.improvement + 1.0)
        assert not verify_certificate(inflated)

    def test_non_certificate_input_rejected(self):
        with pytest.raises(ValueError):
            verify_certificate({"kind": "manipulation"})

    def test_slack_sized_domination_of_an_in_hull_placement_fails(self):
        # the move off the hull edge lengthens the trips of the agents on it
        # by about 5e-13, inside REPLAY_SLACK
        profile = AgentProfile(((0.0, 0.0), (2.0, 0.0), (1.0, 1.0)))
        median = Solution(((1.0, 0.0),), (1, 1, 1))
        assert check_pareto(profile, median) is None
        cert = Certificate(
            kind=CertificateKind.PARETO_DOMINATION,
            profile=profile,
            improvement=1e-6,
            original=median,
            dominating=Solution(((1.0, 1e-6),), (1, 1, 1)),
        )
        assert not verify_certificate(cert)

    def test_wire_round_trip_preserves_everything(self):
        cert = check_strategy_proofness(
            MechanismDescriptor.geometric(), RECTANGLE, ONE, COARSE
        )
        assert cert is not None
        revived = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert revived == cert
        assert verify_certificate(revived)

    def test_unknown_kind_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="manipulation"):
            certificate_from_dict({"kind": "bribery"})

    def test_missing_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            certificate_from_dict({"kind": "manipulation", "improvement": 1.0})


def certificate_doc(kind: CertificateKind) -> dict:
    """Wire form of a verified certificate of the given kind."""
    if kind is CertificateKind.ANONYMITY_VIOLATION:
        cert = check_anonymity(MechanismDescriptor.dictatorship(), PAIR, ONE)
    elif kind is CertificateKind.MANIPULATION:
        cert = check_strategy_proofness(
            MechanismDescriptor.geometric(), RECTANGLE, ONE, COARSE
        )
    else:
        prof = AgentProfile(((0.0, 2.0), (1.0, 0.0), (2.0, 1.0)), Metric.MANHATTAN)
        cert = check_pareto(prof, Solution(((2.0, 2.0),), (1, 1, 1)), COARSE)
    assert cert is not None and verify_certificate(cert)
    return json.loads(json.dumps(certificate_to_dict(cert)))


class TestIntegralCertificateFields:
    """Index fields are integers on the wire: a fraction or a bool is not
    truncated into some other valid index, while 2.0 still reads as 2."""

    @pytest.mark.parametrize("bad", [[2.7, 1], [2, 1.5], [True, 1], ["2", 1]])
    def test_non_integral_permutation_rejected(self, bad):
        doc = certificate_doc(CertificateKind.ANONYMITY_VIOLATION)
        assert doc["permutation"] == [2, 1]
        doc["permutation"] = bad
        with pytest.raises(ValueError, match="permutation entry"):
            certificate_from_dict(doc)

    @pytest.mark.parametrize("bad", [1.9, 0.5, True, "1"])
    def test_non_integral_agent_index_rejected(self, bad):
        doc = certificate_doc(CertificateKind.MANIPULATION)
        doc["agent_index"] = bad
        with pytest.raises(ValueError, match="agent_index"):
            certificate_from_dict(doc)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_non_integral_assignment_rejected(self, bad):
        doc = certificate_doc(CertificateKind.PARETO_DOMINATION)
        doc["dominating"]["assignment"][-1] = bad
        with pytest.raises(ValueError, match="assignment entry"):
            certificate_from_dict(doc)

    @pytest.mark.parametrize("kind", list(CertificateKind))
    def test_integral_floats_read_as_ints(self, kind):
        doc = certificate_doc(kind)
        exact = certificate_from_dict(doc)
        if "permutation" in doc:
            doc["permutation"] = [float(i) for i in doc["permutation"]]
        if "agent_index" in doc:
            doc["agent_index"] = float(doc["agent_index"])
        for solution in (doc.get("original"), doc.get("dominating")):
            if solution is not None:
                solution["assignment"] = [float(j) for j in solution["assignment"]]
        revived = certificate_from_dict(doc)
        assert revived == exact
        assert verify_certificate(revived)


class TestMalformedCertificateDocuments:
    """A malformed document is a ValueError, not a traceback, and a bool or
    a string does not pass for a number."""

    @pytest.mark.parametrize(
        "field, bad, match",
        [
            ("improvement", True, "improvement"),
            ("improvement", "3", "improvement"),
            ("misreport", "12", "misreport"),
            ("permutation", 5, "permutation"),
            ("profile", 5, "'profile' must be"),
            ("spec", [1], "'spec' must be"),
            ("original", {"locations": [[2.0, 2.0]]}, "assignment"),
            ("original", None, "'original' must be"),
            # refused before serial dictatorship pads a placement to it
            ("spec", {"facilities": 10**30}, "facility count must be at most 1000"),
        ],
        ids=[
            "improvement-true",
            "improvement-string",
            "misreport-string",
            "permutation-number",
            "profile-number",
            "spec-list",
            "original-without-assignment",
            "original-null",
            "spec-facilities-past-cap",
        ],
    )
    def test_malformed_field_rejected(self, field, bad, match):
        # the first verified document that carries the field
        doc = next(d for d in map(certificate_doc, CertificateKind) if field in d)
        doc[field] = bad
        with pytest.raises(ValueError, match=match):
            certificate_from_dict(doc)

    def test_list_document_rejected(self):
        doc = certificate_doc(CertificateKind.MANIPULATION)
        with pytest.raises(ValueError, match="JSON object"):
            certificate_from_dict([doc])

    def test_unused_location_of_wrong_dimension_fails_replay(self):
        # the reader takes solutions with an extra, unused facility of one
        # coordinate; the replay checks every location against the 2-d
        # profile, used or not, and raises instead of returning a bool
        doc = certificate_doc(CertificateKind.PARETO_DOMINATION)
        for name in ("original", "dominating"):
            doc[name]["locations"].append([1.0])
        cert = certificate_from_dict(doc)
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 1"):
            verify_certificate(cert)


FUZZ_DESCRIPTORS = (
    MechanismDescriptor.median(),
    MechanismDescriptor.geometric(),
    MechanismDescriptor.dictatorship(),
    MechanismDescriptor.one_centre(),
    MechanismDescriptor.coordinate_extreme("max"),
    MechanismDescriptor.first_agent(),
)


@settings(deadline=None, max_examples=25)
@given(
    pts=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=4
    ),
    desc=st.sampled_from(FUZZ_DESCRIPTORS),
    metric=st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]),
)
def test_every_emitted_certificate_verifies(pts, desc, metric):
    # soundness: the checkers may miss violations but must never invent one
    prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts), metric)
    budget = SearchBudget(grid_resolution=1.0, bounding_box_pad=1.0)
    found = [
        check_anonymity(desc, prof, ONE),
        check_strategy_proofness(desc, prof, ONE, budget),
        check_pareto(prof, run_mechanism(desc, prof, ONE), budget),
    ]
    for cert in found:
        if cert is not None:
            assert verify_certificate(cert)


# --- the refuter loops place facilities directly; the public path is the
# reference they must agree with bit for bit

def reference_strategy_proofness(descriptor, profile, spec, budget, pools=None):
    """(agent_index, misreport, improvement) of the best lone misreport, with
    every candidate run through the public run_mechanism / with_report path.
    The candidates are the budget's lattice, or per agent the given pools."""
    honest = run_mechanism(descriptor, profile, spec)
    if pools is None:
        pools = [candidate_points(profile, budget)] * profile.n
    best_gain, best = GAIN_TOLERANCE, None
    for index, (agent, pool) in enumerate(zip(profile.agents, pools), start=1):
        honest_cost = min(distance(agent, loc, profile.metric) for loc in honest.locations)
        for report in pool:
            if report == agent:
                continue
            shifted = run_mechanism(descriptor, profile.with_report(index, report), spec)
            cost = min(distance(agent, loc, profile.metric) for loc in shifted.locations)
            if honest_cost - cost > best_gain:
                best_gain, best = honest_cost - cost, (index, report)
    return None if best is None else (*best, best_gain)


def reference_anonymity(descriptor, profile, spec):
    """(permutation, gap) of the first permutation that moves the facility
    multiset, with every permutation run through the public path."""
    base = sorted(run_mechanism(descriptor, profile, spec).locations)
    identity = tuple(range(1, profile.n + 1))
    for permutation in itertools.permutations(identity):
        if permutation == identity:
            continue
        moved = sorted(run_mechanism(descriptor, profile.permuted(permutation), spec).locations)
        gap = max(math.dist(p, q) for p, q in zip(base, moved))
        if gap > GAIN_TOLERANCE:
            return permutation, gap
    return None


_SKEWED = ((0.3, 1.7), (2.1, 0.4), (1.2, 2.6))
_COLLINEAR_PAIR = ((0.0, 0.0), (1.5, 1.5))
_ROTATED = ((math.cos(0.5), math.sin(0.5)), (-math.sin(0.5), math.cos(0.5)))
PARITY_CASES = [
    (MechanismDescriptor.percentile_line((0.0, 1.0)), ((0.4,), (1.9,), (1.1,)), 2),
    (MechanismDescriptor.percentile_plane(((0.5, 0.0), (1.0, 0.5)), _ROTATED), _SKEWED, 2),
    (MechanismDescriptor.percentile_plane(((0.5, 0.5),)), _SKEWED, 1),
    (MechanismDescriptor.median(), _SKEWED, 1),
    (MechanismDescriptor.median(), _SKEWED[:2], 1),
    (MechanismDescriptor.geometric(), _SKEWED, 1),
    (MechanismDescriptor.dictatorship(), _SKEWED, 2),
    (MechanismDescriptor.dictatorship((2, 1)), _COLLINEAR_PAIR, 1),
    (MechanismDescriptor.one_centre(), _SKEWED, 1),
    (MechanismDescriptor.coordinate_extreme("max"), _SKEWED, 1),
    (MechanismDescriptor.coordinate_extreme("min"), _SKEWED, 1),
    (MechanismDescriptor.first_agent(), _SKEWED, 1),
    (MechanismDescriptor.first_agent(), _COLLINEAR_PAIR, 1),
]
PARITY_BUDGET = SearchBudget(grid_resolution=0.5, bounding_box_pad=1.0)
# kinds whose exact misreports name their own witness, which need not be
# the lattice's: the lattice is then a floor on the gain, not the answer
OWN_WITNESS_KINDS = (MechanismKind.ONE_CENTRE, MechanismKind.LEXICOGRAPHIC_FIRST_AGENT)


def best_gain_in_closed_form(desc, profile):
    """The supremum of a lone misreport's gain, worked out without the kind
    table: for one_centre the largest honest cost; for the first agent an
    agent's honest cost less its distance to the closure of the reports
    below the other agents' lexicographic minimum m, whose pieces keep
    m[:k], stay at most m[k] on axis k and are free after it."""
    (honest,) = run_mechanism(desc, profile, ONE).locations
    costs = [distance(a, honest, profile.metric) for a in profile.agents]
    if desc.kind is MechanismKind.ONE_CENTRE:
        return max(costs)
    best = 0.0
    for i, a in enumerate(profile.agents):
        m = min(profile.agents[:i] + profile.agents[i + 1 :], default=a)
        if a > m:
            nearest = min(
                distance(a, m[:k] + (min(a[k], m[k]),) + a[k + 1 :], profile.metric)
                for k in range(len(a))
            )
            best = max(best, costs[i] - nearest)
    return best


def off_lattice_pools(profile, budget=PARITY_BUDGET):
    """Per agent, the budget's lattice and four reports off it, drawn with
    random.Random(3) uniformly over the padded bounding box."""
    pad = budget.bounding_box_pad
    lo, hi = bounding_box(profile.agents)
    rng = random.Random(3)
    drawn = [tuple(rng.uniform(a - pad, b + pad) for a, b in zip(lo, hi)) for _ in range(4)]
    return [sorted({*candidate_points(profile, budget), *drawn})] * profile.n


def assert_beats_the_lattice(desc, profile, cert):
    """The refuter's certificate is the public path's best over the kind
    table's misreports, replays, gains at least what the lattice at
    PARITY_BUDGET and four reports off it find, and comes within rounding of
    the closed-form best gain; a one_centre gain is the manipulator's whole
    honest cost."""
    pools = _KINDS[desc.kind].misreports(desc, profile)
    want = reference_strategy_proofness(desc, profile, ONE, None, pools)
    lattice = reference_strategy_proofness(desc, profile, ONE, None, off_lattice_pools(profile))
    scale = max(1.0, *(abs(c) for a in profile.agents for c in a))
    gain = GAIN_TOLERANCE if cert is None else cert.improvement
    assert gain >= best_gain_in_closed_form(desc, profile) - 1e-15 * scale
    if want is None:
        assert cert is None and lattice is None
        return
    assert (cert.agent_index, cert.misreport, cert.improvement) == want
    assert verify_certificate(cert)
    if lattice is not None:
        assert cert.improvement >= lattice[2] - REPLAY_SLACK
    if desc.kind is MechanismKind.ONE_CENTRE:
        (centre,) = run_mechanism(desc, profile, ONE).locations
        cost = distance(profile.agents[cert.agent_index - 1], centre, profile.metric)
        assert cert.improvement == pytest.approx(cost, abs=1e-15 * scale)


def test_parity_cases_cover_every_kind():
    assert {desc.kind for desc, _, _ in PARITY_CASES} == set(MechanismKind)


@pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.MANHATTAN])
@pytest.mark.parametrize(
    "desc, agents, m", PARITY_CASES, ids=[f"{d.kind.value}-{len(a)}" for d, a, _ in PARITY_CASES]
)
class TestRefutersMatchThePublicPath:
    def test_strategy_proofness(self, desc, agents, m, metric):
        profile = AgentProfile(agents, metric)
        spec = FacilitySpec(m)
        cert = check_strategy_proofness(desc, profile, spec, PARITY_BUDGET)
        if desc.kind in OWN_WITNESS_KINDS:
            assert_beats_the_lattice(desc, profile, cert)
            return
        # exhaustive misreports must also beat reports off the lattice; the
        # lattice search is compared with itself
        exact = _KINDS[desc.kind].misreports and desc.axes is None
        pools = off_lattice_pools(profile) if exact else None
        want = reference_strategy_proofness(desc, profile, spec, PARITY_BUDGET, pools)
        if want is None:
            assert cert is None
        else:
            assert (cert.agent_index, cert.misreport, cert.improvement) == want
            assert verify_certificate(cert)

    def test_anonymity(self, desc, agents, m, metric):
        profile = AgentProfile(agents, metric)
        spec = FacilitySpec(m)
        cert = check_anonymity(desc, profile, spec)
        want = reference_anonymity(desc, profile, spec)
        if want is None:
            assert cert is None
        else:
            assert (cert.permutation, cert.improvement) == want
            assert verify_certificate(cert)


class TestTrustedProfiles:
    PROFILE = AgentProfile(((0.0, 1.0), (2.0, 3.0), (4.0, 5.0)), Metric.MANHATTAN)

    @pytest.mark.parametrize(
        "index, report",
        [(0, (1.0, 1.0)), (4, (1.0, 1.0)), (1, (math.nan, 0.0)), (2, (0.0, math.inf)),
         (3, (1.0,)), (1, (1.0, 2.0, 3.0)), (1, (True, 0.0))],
    )
    def test_with_report_still_validates(self, index, report):
        with pytest.raises(ValueError):
            self.PROFILE.with_report(index, report)

    @pytest.mark.parametrize("permutation", [(1, 2), (1, 1, 2), (1, 2, 4), (0, 1, 2)])
    def test_permuted_still_validates(self, permutation):
        with pytest.raises(ValueError):
            self.PROFILE.permuted(permutation)

    def test_results_equal_validated_profiles(self):
        reported = self.PROFILE.with_report(2, [7, 8])
        validated = AgentProfile(((0.0, 1.0), (7.0, 8.0), (4.0, 5.0)), Metric.MANHATTAN)
        assert reported == validated and hash(reported) == hash(validated)
        assert reported.agents[1] == (7.0, 8.0) and type(reported.agents[1][0]) is float
        permuted = self.PROFILE.permuted((3, 1, 2))
        validated = AgentProfile(((4.0, 5.0), (0.0, 1.0), (2.0, 3.0)), "manhattan")
        assert permuted == validated and hash(permuted) == hash(validated)


# --- per-axis percentile picks on the coordinate axes try no misreport,
# since none gains; the reference runs the public path on the lattice, four
# reports off it and the product over the axes of the agents' coordinates

def per_axis_descriptor(kind, dim, m):
    if kind is MechanismKind.PERCENTILE_1D:
        return MechanismDescriptor.percentile_line((0.0, 1.0, 0.5)[:m])
    if kind is MechanismKind.PERCENTILE_MULTI_D:
        rows = ((0.25, 1.0, 0.0), (0.75, 0.5, 1.0), (0.0, 0.6, 0.5))
        return MechanismDescriptor.percentile_plane([row[:dim] for row in rows[:m]])
    return MechanismDescriptor(kind)


PER_AXIS_KINDS = [
    MechanismKind.PERCENTILE_1D,
    MechanismKind.PERCENTILE_MULTI_D,
    MechanismKind.MULTI_DIM_MEDIAN,
    MechanismKind.COORDINATE_MAX,
    MechanismKind.COORDINATE_MIN,
]


def test_strategy_proof_column():
    # an empty pool per agent is a proof, so the kinds that get one are pinned
    profile = AgentProfile(((0.0, 1.0), (2.0, 3.0)))
    empty = set()
    for kind in MechanismKind:
        misreports = _KINDS[kind].misreports
        if misreports and misreports(per_axis_descriptor(kind, 2, 1), profile) == [[], []]:
            empty.add(kind)
    assert empty == {*PER_AXIS_KINDS, MechanismKind.SERIAL_DICTATORSHIP}
    rotated = MechanismDescriptor.percentile_plane(((0.5, 0.5),), _ROTATED)
    assert _KINDS[rotated.kind].misreports(rotated, profile) is None


class TestExactStrategyProofness:
    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(),
        kind=st.sampled_from(PER_AXIS_KINDS),
        n=st.integers(1, 5),
        dim=st.integers(1, 3),
        metric=st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]),
        scale=st.sampled_from([1.0, 1e6, 1e9, 1e12, 1e15]),
        duplicate=st.booleans(),
    )
    def test_matches_the_lattice_reference(self, data, kind, n, dim, metric, scale, duplicate):
        if kind is MechanismKind.PERCENTILE_1D:
            dim = 1
        single = kind not in (MechanismKind.PERCENTILE_1D, MechanismKind.PERCENTILE_MULTI_D)
        m = 1 if single else data.draw(st.integers(1, 3))
        coord = st.sampled_from([-1.5, -0.3, -0.0, 0.0, 0.7, 1.0, 1.2])
        agents = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
        if duplicate:
            agents.append(agents[0])
        agents = [tuple(c * scale for c in a) for a in agents]
        profile = AgentProfile(tuple(agents), metric)
        desc, spec = per_axis_descriptor(kind, dim, m), FacilitySpec(m)
        cert = check_strategy_proofness(desc, profile, spec, PARITY_BUDGET)
        # the lattice and the draws scale with the profile; the product
        # holds, per axis, the truth clamped between any two of the others
        budget = SearchBudget(grid_resolution=0.5 * scale, bounding_box_pad=scale)
        lattice = off_lattice_pools(profile, budget)[0]
        product = itertools.product(*({a[k] for a in agents} for k in range(dim)))
        pools = [sorted({*lattice, *product})] * profile.n
        assert cert is None
        assert reference_strategy_proofness(desc, profile, spec, None, pools) is None

    @pytest.mark.parametrize(
        "kind, dim",
        [(MechanismKind.PERCENTILE_1D, 1)]
        + [(kind, dim) for kind in PER_AXIS_KINDS[1:] for dim in (1, 2, 3)],
    )
    def test_places_no_misreport(self, kind, dim, monkeypatch):
        def refuse(*args):
            raise AssertionError("placed a misreport")

        monkeypatch.setattr(axioms, "_place", refuse)
        m = 2 if kind in (MechanismKind.PERCENTILE_1D, MechanismKind.PERCENTILE_MULTI_D) else 1
        agents = tuple(tuple(0.1 * i + 0.37 * k * i * i for k in range(dim)) for i in range(4))
        desc, profile = per_axis_descriptor(kind, dim, m), AgentProfile(agents)
        assert check_strategy_proofness(desc, profile, FacilitySpec(m)) is None

    def test_far_flung_median_is_proved_without_a_lattice(self):
        # the default pad of this profile overflows the float range, which
        # the lattice refuses; the proof does not need a box
        profile = AgentProfile(((0.0, 0.0), (1e308, 1e308)))
        with pytest.raises(OracleCapError, match="float range"):
            candidate_points(profile, SearchBudget())
        assert check_strategy_proofness(MechanismDescriptor.median(), profile, ONE) is None

    def test_twenty_axes_are_proved_without_allocating(self):
        # two agents apart on each of 20 axes: a product of 2**20 reports,
        # which the proof never builds
        profile = AgentProfile(((0.0,) * 20, (1.0,) * 20))
        tracemalloc.start()
        try:
            assert check_strategy_proofness(MechanismDescriptor.median(), profile, ONE) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(),
        n=st.integers(1, 5),
        dim=st.integers(1, 2),
        m=st.integers(1, 3),
        metric=st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]),
        duplicates=st.integers(0, 2),
    )
    def test_serial_dictatorship_matches_the_lattice_reference(
        self, data, n, dim, m, metric, duplicates
    ):
        coord = st.sampled_from([-1.5, -0.3, -0.0, 0.0, 0.7, 1.0, 1.2])
        agents = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
        agents += data.draw(
            st.lists(st.sampled_from(agents), min_size=duplicates, max_size=duplicates)
        )
        order = data.draw(st.permutations(range(1, len(agents) + 1)))
        profile = AgentProfile(tuple(agents), metric)
        desc, spec = MechanismDescriptor.dictatorship(tuple(order)), FacilitySpec(m)
        assert check_strategy_proofness(desc, profile, spec, PARITY_BUDGET) is None
        # the lattice, four draws off it, and every agent's location
        pools = [sorted({*off_lattice_pools(profile)[0], *agents})] * profile.n
        assert reference_strategy_proofness(desc, profile, spec, None, pools) is None

    def test_rotated_axes_stay_on_the_lattice(self, monkeypatch):
        desc = MechanismDescriptor.percentile_plane(((0.5, 0.5),), _ROTATED)
        calls = []
        real_place = axioms._place

        def counting(descriptor, reported, m):
            calls.append(reported)
            return real_place(descriptor, reported, m)

        monkeypatch.setattr(axioms, "_place", counting)
        profile = AgentProfile(_SKEWED)
        check_strategy_proofness(desc, profile, ONE, PARITY_BUDGET)
        assert len(calls) == 3 * (len(candidate_points(profile, PARITY_BUDGET)) - 1)


@pytest.mark.parametrize("metric", list(Metric))
def test_lattice_refuters_check_no_dimension_per_agent(metric, monkeypatch):
    # the profile is checked when built, and the refuters' locations are
    # points of its dimension: the misreport costs and the Pareto
    # candidates' trips skip geometry.distance's per-pair check
    desc = MechanismDescriptor.percentile_plane(((0.5, 0.5),), _ROTATED)
    profile = AgentProfile(_SKEWED, metric)
    # agents 2 and 3 travel to (3, 3), so this solution is dominated
    two = Solution(((3.0, 3.0), (0.3, 1.7)), (2, 1, 1))

    def refuse(*args):
        raise AssertionError("distance checked dimensions again")

    monkeypatch.setattr(axioms, "distance", refuse)
    check_strategy_proofness(desc, profile, ONE, PARITY_BUDGET)
    cert = check_pareto(profile, two, PARITY_BUDGET)
    assert cert is not None and verify_certificate(cert)


# --- one_centre and the first agent are refuted on the kind table's own
# misreports; the lattice at PARITY_BUDGET and four reports off it are a
# floor on their gain

class TestOwnWitnessStrategyProofness:
    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(),
        kind=st.sampled_from(OWN_WITNESS_KINDS),
        n=st.integers(1, 4),
        dim=st.integers(1, 3),
        metric=st.sampled_from([Metric.EUCLIDEAN, Metric.MANHATTAN]),
    )
    def test_beats_the_lattice_reference(self, data, kind, n, dim, metric):
        if kind is MechanismKind.ONE_CENTRE:
            dim = 2
        coord = st.one_of(
            st.sampled_from([-1.5, -0.3, -0.0, 0.0, 0.7, 1.0, 1.2]), st.floats(-1.5, 1.5)
        )
        agents = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
        profile = AgentProfile(tuple(agents), metric)
        desc = MechanismDescriptor(kind)
        most = 1 if kind is MechanismKind.ONE_CENTRE else dim
        assert all(len(pool) <= most for pool in _KINDS[kind].misreports(desc, profile))
        cert = check_strategy_proofness(desc, profile, ONE, PARITY_BUDGET)
        assert_beats_the_lattice(desc, profile, cert)

    def test_overflowing_reflection_is_refused_before_placing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("placed a misreport")

        monkeypatch.setattr(axioms, "_place", refuse)
        profile = AgentProfile(((0.0, 0.0), (1e308, 1e308)))
        with pytest.raises(OracleCapError, match="agent 2 overflows the float range"):
            check_strategy_proofness(MechanismDescriptor.one_centre(), profile, ONE)

    def test_first_agent_has_no_report_below_the_float_range(self):
        # agent 2 cannot undercut -max on the first axis: only the second
        # axis offers a report, and it gains nothing
        low = -1.7976931348623157e308
        profile = AgentProfile(((low, 0.0), (0.0, 0.0)))
        desc = MechanismDescriptor.first_agent()
        assert _KINDS[desc.kind].misreports(desc, profile) == [[], [(low, -5e-324)]]
        assert check_strategy_proofness(desc, profile, ONE) is None


# --- anonymity of the kinds whose placement ignores the agents' order is a
# proof without permuting; the column is checked against permuted inputs

ORDER_FREE_KINDS = [kind for kind in MechanismKind if _KINDS[kind].reorderings is None]


def test_order_free_column():
    assert set(MechanismKind) - set(ORDER_FREE_KINDS) == {MechanismKind.SERIAL_DICTATORSHIP}


@settings(deadline=None, max_examples=80)
@given(
    data=st.data(),
    kind=st.sampled_from(ORDER_FREE_KINDS),
    rotated=st.booleans(),
    n=st.integers(1, 6),
    dim=st.integers(1, 3),
)
def test_order_free_kinds_place_alike_in_any_order(data, kind, rotated, n, dim):
    rotated = rotated and kind is MechanismKind.PERCENTILE_MULTI_D
    if kind is MechanismKind.PERCENTILE_1D:
        dim = 1
    if kind is MechanismKind.ONE_CENTRE or rotated:
        dim = 2
    m = 2 if kind in (MechanismKind.PERCENTILE_1D, MechanismKind.PERCENTILE_MULTI_D) else 1
    if rotated:
        desc = MechanismDescriptor.percentile_plane(((0.5, 0.0), (1.0, 0.5)), _ROTATED)
    else:
        desc = per_axis_descriptor(kind, dim, m)
    coord = st.sampled_from([-1.5, -0.3, -0.0, 0.0, 0.7, 1.0, 1.2])
    agents = data.draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    profile = AgentProfile(tuple(agents))
    permutation = data.draw(st.permutations(range(1, n + 1)))
    # by value: a stable sort may keep either sign of a zero first
    assert _place(desc, profile.permuted(permutation), m) == _place(desc, profile, m)


@pytest.mark.parametrize("kind", ORDER_FREE_KINDS)
def test_order_free_anonymity_places_no_permutation(kind, monkeypatch):
    def refuse(*args):
        raise AssertionError("placed a permutation")

    monkeypatch.setattr(axioms, "_place", refuse)
    dim = 1 if kind is MechanismKind.PERCENTILE_1D else 2
    m = 2 if kind in (MechanismKind.PERCENTILE_1D, MechanismKind.PERCENTILE_MULTI_D) else 1
    agents = tuple(tuple(0.1 * i + 0.37 * k * i * i for k in range(dim)) for i in range(9))
    profile = AgentProfile(agents)
    assert check_anonymity(per_axis_descriptor(kind, dim, m), profile, FacilitySpec(m)) is None


# --- serial dictatorship tries one reordering per reachable facility
# multiset; every permutation, run through the public path, is the reference


@st.composite
def near_duplicate_dictatorships(draw, max_agents=7):
    """(agents, m, order): up to max_agents agents on up to 3 sites of a
    small grid, each an exact copy of its site or nudged by 1e-12 to 2e-9
    per axis, with m 1-3, dims 1-3 and a random walk order half the time."""
    n, m, dim = draw(st.integers(1, max_agents)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    site = st.tuples(*[st.sampled_from([0.0, 1.0, 2.0])] * dim)
    sites = draw(st.lists(site, min_size=1, max_size=3))
    nudge = st.one_of(st.just(0.0), st.floats(1e-12, 2e-9), st.floats(-2e-9, -1e-12))
    agents = [
        tuple(c + draw(nudge) for c in draw(st.sampled_from(sites))) for _ in range(n)
    ]
    order = draw(st.none() | st.permutations(range(1, n + 1)))
    return agents, m, order


# distinct locations span more than GAIN_TOLERANCE, yet no reordering
# moves the multiset that far: a diameter test would call it a violation
@example(
    (
        [(2.0000000002917866,), (2.0,), (2.000000001189905,),
         (2.0000000002497216,), (1.9999999999535605,), (2.0,)],
        2,
        (1, 5, 3, 2, 4, 6),
    )
)
@settings(deadline=None, max_examples=200)
@given(near_duplicate_dictatorships())
def test_dictatorship_reorderings_decide_as_every_permutation(instance):
    agents, m, order = instance
    desc = MechanismDescriptor.dictatorship(order)
    profile, spec = AgentProfile(tuple(agents)), FacilitySpec(m)
    cert = check_anonymity(desc, profile, spec)
    assert (cert is None) == (reference_anonymity(desc, profile, spec) is None)
    if cert is not None:
        assert verify_certificate(cert)


@settings(deadline=None, max_examples=150)
@given(near_duplicate_dictatorships(max_agents=6))
def test_dictatorship_reorderings_reach_each_placement_once(instance):
    agents, m, order = instance
    desc = MechanismDescriptor.dictatorship(order)
    profile = AgentProfile(tuple(agents))

    def placed(permutation):
        return tuple(sorted(_place(desc, profile.permuted(permutation), m)))

    identity = range(1, len(agents) + 1)
    reachable = {placed(p) for p in itertools.permutations(identity)}
    tried = [placed(p) for p in _KINDS[desc.kind].reorderings(desc, profile, m)]
    # the honest placement first, or no reordering where it is the only one
    assert tried[:1] in ([], [placed(identity)])
    assert len(set(tried)) == len(tried) and set(tried) | {placed(identity)} == reachable


# --- the per-axis median under Manhattan distance keeps all three axioms
# on more than the three agents of manhattan_3agent_median, and each None
# is a proof: no reorderings (check_anonymity), empty misreport pools
# (check_strategy_proofness) and one planar facility with coordinates
# within 64 (check_pareto), so no search lattice is built


def test_the_manhattan_median_keeps_every_axiom_on_five_agents(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched the lattice")

    monkeypatch.setattr(axioms, "candidate_points", refuse)
    agents = ((0.0, 0.0), (4.0, 1.0), (1.0, 4.0), (3.0, 3.0), (2.0, 0.0))
    profile = AgentProfile(agents, Metric.MANHATTAN)
    desc = MechanismDescriptor.median()
    kind = _KINDS[desc.kind]
    assert kind.reorderings is None and kind.misreports(desc, profile) == [[]] * 5
    solution = run_mechanism(desc, profile, ONE)
    assert solution.locations == ((2.0, 1.0),)
    assert check_anonymity(desc, profile, ONE) is None
    assert check_strategy_proofness(desc, profile, ONE) is None
    assert check_pareto(profile, solution) is None


# --- one facility in the plane: exact Pareto candidates, checked against
# the budgeted lattice they replace

AUDIT_DESCRIPTORS = (
    MechanismDescriptor.median(),
    MechanismDescriptor.percentile_plane(((0.25, 0.75),)),
    MechanismDescriptor.one_centre(),
    MechanismDescriptor.coordinate_extreme("max"),
    MechanismDescriptor.coordinate_extreme("min"),
)
# the budget of the rectilinear fuzzing acceptance test
FUZZ_BUDGET = SearchBudget(grid_resolution=0.1, bounding_box_pad=0.5)
# coordinates near the float range, where offsets and trips overflow
HUGE = (0.0, 1.0, -1.0, 8.9e307, -8.9e307, 1e308, -1e308, 1.7976931348623157e308)
# (0.6, 0) dominates the corner (2, 1.4), off every 0.25 lattice point
CORNER_MISS = AgentProfile(((0.4, 0.0), (0.0, 1.4), (2.0, 0.0)), Metric.MANHATTAN)
# a Manhattan profile and a placement whose own vertex the line filter
# would drop without its 2^512 guard, where the bounds of D overflow...
FLOAT_RANGE_MISS = (AgentProfile(((1.7e308, -1.0),), Metric.MANHATTAN), (1e308, 0.0))
# ...and with a delta of REPLAY_SLACK alone, without the rounding term
ROUNDING_MISS = (
    AgentProfile(((-1.0, -6.703903964971299e153),), Metric.MANHATTAN),
    (3.0, -6.703903964971299e153),
)


def lattice_margin(profile, solution, budget, slack=REPLAY_SLACK):
    """Largest single-agent margin of a lattice point that dominates the
    one-facility solution, each other agent's trip allowed to grow by up
    to slack, or 0.0."""
    old = [distance(a, solution.locations[0], profile.metric) for a in profile.agents]
    best = 0.0
    for point in candidate_points(profile, budget):
        new = [distance(a, point, profile.metric) for a in profile.agents]
        if all(b <= a + slack for a, b in zip(old, new)):
            best = max(best, max(a - b for a, b in zip(old, new)))
    return best if best > GAIN_TOLERANCE else 0.0


def in_hull_reference(point, agents):
    """Exact hull membership by Caratheodory: the point lies in the hull of
    at most three of the agents, or on a segment of two, or on one."""
    p = tuple(map(Fraction, point))
    pts = [tuple(map(Fraction, a)) for a in agents]

    def cross(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    if p in pts:
        return True
    for a, b in itertools.combinations(pts, 2):
        if a != b and cross(a, b, p) == 0 and min(a, b) <= p <= max(a, b):
            return True
    for a, b, c in itertools.combinations(pts, 3):
        sides = (cross(a, b, p), cross(b, c, p), cross(c, a, p))
        if cross(a, b, c) != 0 and (min(sides) >= 0 or max(sides) <= 0):
            return True
    return False


@st.composite
def planar_profiles(draw):
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["unit", "grid", "scaled"]))
    if shape == "grid":
        coords = st.integers(-3, 3).map(float)
    else:
        coords = st.floats(0.0, 1.0)
    pts = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))
    if shape == "scaled":
        scale = draw(st.sampled_from([1e-3, 3.0, 7.5]))
        pts = [(x * scale, y * scale) for x, y in pts]
    return AgentProfile(tuple(pts), draw(st.sampled_from(list(Metric))))


def lens_gains(agents, p, points, slack=REPLAY_SLACK):
    """Each agent's largest gain over the points that dominate the one
    facility at p, up to slack; 0.0 where none does."""
    old = [math.dist(a, p) for a in agents]
    best = [0.0] * len(agents)
    for q in points:
        new = [math.dist(a, q) for a in agents]
        if all(b <= a + slack for a, b in zip(old, new)):
            best = [max(g, a - b) for g, a, b in zip(best, old, new)]
    return best


def lens_brute_force(agents, p, steps=40, turns=360):
    """Points of D, the intersection of the agents' disks through p, by
    brute force: a steps x steps grid on its bounding box, and turns points
    around each circle."""
    old = [math.dist(a, p) for a in agents]
    lo = [max(a[k] - c for a, c in zip(agents, old)) for k in (0, 1)]
    hi = [min(a[k] + c for a, c in zip(agents, old)) for k in (0, 1)]
    points = [
        (lo[0] + (hi[0] - lo[0]) * i / steps, lo[1] + (hi[1] - lo[1]) * j / steps)
        for i in range(steps + 1)
        for j in range(steps + 1)
    ]
    points += [
        (a[0] + c * math.cos(2 * math.pi * t / turns), a[1] + c * math.sin(2 * math.pi * t / turns))
        for a, c in zip(agents, old)
        for t in range(turns)
    ]
    return points


@st.composite
def outside_placements(draw):
    """Euclidean planar profiles and a placement that is mostly outside
    their hull, but near enough for arc ends to matter."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        coords, far = st.integers(-3, 3).map(float), st.integers(-4, 4).map(float)
    else:
        coords, far = st.floats(0.0, 1.0), st.floats(-0.3, 1.3)
    agents = tuple(draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n)))
    return AgentProfile(agents), draw(st.tuples(far, far))


def full_arrangement(agents, costs):
    """Every finite vertex of the arrangement of the agents' axis lines and
    of the edge lines of their Manhattan balls, with the formulas of
    axioms._diamond_vertices and none of its lines left out."""
    xs = {a[0] for a in agents}
    ys = {a[1] for a in agents}
    sums, diffs = set(), set()
    for (ax, ay), c in zip(agents, costs):
        sums.update((ax + ay - c, ax + ay + c))
        diffs.update((ax - ay - c, ax - ay + c))
    vertices = set(itertools.product(xs, ys))
    for x in xs:
        vertices.update((x, u - x) for u in sums)
        vertices.update((x, x - v) for v in diffs)
    for y in ys:
        vertices.update((u - y, y) for u in sums)
        vertices.update((v + y, y) for v in diffs)
    vertices.update(((u + v) / 2.0, (u - v) / 2.0) for u in sums for v in diffs)
    return {p for p in vertices if math.isfinite(p[0]) and math.isfinite(p[1])}


def full_arrangement_pareto(profile, solution):
    """check_pareto's Manhattan one-facility search over the full
    arrangement."""
    p = solution.locations[0]
    costs = [distance(a, p, Metric.MANHATTAN) for a in profile.agents]
    if not all(map(math.isfinite, costs)):
        raise OracleCapError("an agent's trip overflows the float range")
    points = full_arrangement(profile.agents, costs)
    return axioms._best_domination(profile, solution, costs, ((q,) for q in points))


def pareto_outcome(refuter, profile, solution):
    try:
        return repr(refuter(profile, solution))
    except OracleCapError:
        return "OracleCapError"


@st.composite
def manhattan_placements(draw):
    """Manhattan planar profiles, uniform, on a grid or with repeated
    agents, scaled by 1e-6, 64 or 1e6, or drawn from HUGE; and a placement
    inside their bounding box or outside it."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["uniform", "grid", "repeated", "huge"]))
    if shape == "huge":
        coords = st.sampled_from(HUGE)
        agents = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))
        return AgentProfile(tuple(agents), Metric.MANHATTAN), draw(st.tuples(coords, coords))
    if shape == "grid":
        coords, unit = st.integers(-3, 3).map(float), st.integers(0, 4).map(lambda k: k / 4)
    else:
        coords = unit = st.floats(0.0, 1.0)
    if shape == "repeated":
        distinct = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=3))
        agents = draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
    else:
        agents = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))
    lo, hi = bounding_box(agents)
    # inside: a point of the box; outside: past one side of it by up to
    # its width plus one, anywhere along the other axis
    p = [lo[k] + draw(unit) * (hi[k] - lo[k]) for k in (0, 1)]
    if draw(st.booleans()):
        k = draw(st.integers(0, 1))
        reach = draw(unit) * (hi[k] - lo[k] + 1.0) + 0.25
        p[k] = hi[k] + reach if draw(st.booleans()) else lo[k] - reach
    scale = draw(st.sampled_from([1e-6, 1.0, 64.0, 1e6]))
    agents = tuple((x * scale, y * scale) for x, y in agents)
    return AgentProfile(agents, Metric.MANHATTAN), (p[0] * scale, p[1] * scale)


class TestExactPareto:
    def test_corner_pick_domination_off_the_lattice_is_found(self):
        desc = MechanismDescriptor.coordinate_extreme("max")
        sol = run_mechanism(desc, CORNER_MISS, ONE)
        assert sol.locations == ((2.0, 1.4),)
        assert lattice_margin(CORNER_MISS, sol, SearchBudget()) == 0.0
        cert = check_pareto(CORNER_MISS, sol)
        assert cert is not None
        assert cert.improvement == pytest.approx(2.8, abs=1e-12)
        (x, y), = cert.dominating.locations
        assert (x, y) == pytest.approx((0.6, 0.0), abs=1e-12)
        assert verify_certificate(cert)

    @pytest.mark.parametrize("scale", [1e-6, 8.0, 32.0])
    def test_scaled_corner_miss_is_found(self, scale):
        # coordinates up to 64 in magnitude keep the vertices exact enough
        agents = tuple((x * scale, y * scale) for x, y in CORNER_MISS.agents)
        profile = AgentProfile(agents, Metric.MANHATTAN)
        desc = MechanismDescriptor.coordinate_extreme("max")
        cert = check_pareto(profile, run_mechanism(desc, profile, ONE))
        assert cert is not None
        assert cert.improvement == pytest.approx(2.8 * scale, rel=1e-12)
        assert verify_certificate(cert)

    def test_manhattan_builds_no_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lattice built")

        monkeypatch.setattr(axioms, "candidate_points", refuse)
        sol = run_mechanism(MechanismDescriptor.median(), CORNER_MISS, ONE)
        assert check_pareto(CORNER_MISS, sol) is None

    def test_vertex_cap_checked_before_allocating(self):
        # 800 agents on distinct rows and columns, and a placement up and to
        # the right of them all: D reaches past every agent's axis lines,
        # so 640 000 vertices remain after the filter
        agents = tuple((float(i), (7 * i) % 800 + 0.5) for i in range(800))
        profile = AgentProfile(agents, Metric.MANHATTAN)
        sol = Solution(((2000.0, 2000.0),), (1,) * 800)
        tracemalloc.start()
        try:
            with pytest.raises(OracleCapError, match="candidate vertices"):
                check_pareto(profile, sol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_filtered_arrangement_fits_under_the_cap(self):
        # the full arrangement of these 300 agents holds over 700 000
        # vertices; the lines that meet D hold few
        agents = tuple((float(i), (7 * i) % 300 + 0.5) for i in range(300))
        profile = AgentProfile(agents, Metric.MANHATTAN)
        sol = Solution(((100.3, 97.7),), (1,) * 300)
        cert = check_pareto(profile, sol)
        assert cert is None or verify_certificate(cert)

    @settings(deadline=None, max_examples=150)
    @given(case=manhattan_placements())
    @example(case=FLOAT_RANGE_MISS)
    @example(case=ROUNDING_MISS)
    def test_matches_the_full_arrangement(self, case):
        profile, p = case
        sol = Solution((p,), (1,) * profile.n)
        assert pareto_outcome(check_pareto, profile, sol) == pareto_outcome(
            full_arrangement_pareto, profile, sol
        )

    @settings(deadline=None, max_examples=150)
    @given(case=manhattan_placements())
    @example(case=FLOAT_RANGE_MISS)
    @example(case=ROUNDING_MISS)
    def test_dropped_vertices_leave_an_agent_worse(self, case):
        profile, p = case
        agents = profile.agents
        costs = [distance(a, p, Metric.MANHATTAN) for a in agents]
        if not all(map(math.isfinite, costs)):
            return
        kept = axioms._diamond_vertices(agents, costs)
        full = full_arrangement(agents, costs)
        assert kept <= full
        for q in full - kept:
            new = [distance(a, q, Metric.MANHATTAN) for a in agents]
            assert any(b > c + REPLAY_SLACK for c, b in zip(costs, new)), q

    def test_in_hull_placement_is_a_proof(self):
        # the padded box of this profile overflows, but no lattice is needed
        profile = AgentProfile(((0.0, 0.0), (1e308, 1e308)))
        sol = run_mechanism(MechanismDescriptor.median(), profile, ONE)
        assert check_pareto(profile, sol) is None
        collinear = AgentProfile(((0.0, 0.0), (1.0, 1.0), (3.0, 3.0)))
        assert check_pareto(collinear, Solution(((2.0, 2.0),), (1, 1, 1))) is None

    def test_euclidean_builds_no_lattice(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lattice built")

        monkeypatch.setattr(axioms, "candidate_points", refuse)
        monkeypatch.setattr(axioms, "_subset_centers", refuse)
        profile = AgentProfile(((0.0, 0.0), (2.0, 0.0), (1.0, 2.0)))
        cert = check_pareto(profile, Solution(((3.0, 3.0),), (1, 1, 1)))
        assert cert is not None and verify_certificate(cert)

    def test_outside_hull_takes_the_nearest_point_on_a_circle(self):
        # each agent gains most at the point of the other's circle nearest
        # it; both gain c1 + c2 - 1 there, and the smaller point wins the tie
        profile = AgentProfile(((0.0, 0.0), (1.0, 0.0)))
        sol = Solution(((0.3, 0.01),), (1, 1))
        cert = check_pareto(profile, sol, COARSE)
        assert cert is not None
        assert cert.dominating.locations == ((0.29992857507251447, 0.0),)
        c1, c2 = math.hypot(0.3, 0.01), math.hypot(0.7, 0.01)
        assert cert.improvement == pytest.approx(c1 + c2 - 1.0, abs=1e-15)
        # the projection onto the hull, (0.3, 0), gains less
        assert cert.improvement > c1 - 0.3 + 7e-5
        assert verify_certificate(cert)

    def test_outside_hull_agent_in_the_lens_wins(self):
        # (0, 0) is on agent 3's circle and inside agent 2's, so agent 1
        # gains their whole trip
        profile = AgentProfile(((0.0, 0.0), (2.0, 0.0), (1.0, 2.0)))
        sol = Solution(((3.0, 3.0),), (1, 1, 1))
        cert = check_pareto(profile, sol, COARSE)
        assert cert is not None
        assert cert.dominating.locations == ((0.0, 0.0),)
        assert cert.improvement == math.hypot(3.0, 3.0)

    def test_projection_certifies_where_lens_points_round_out(self):
        # at this scale every lens point leaves some agent worse off by more
        # than REPLAY_SLACK after rounding; the projection onto the hull
        # lies strictly inside every ball and still dominates
        agents = ((96280.0, 760143.0), (108223.0, 314558.0))
        profile = AgentProfile(agents)
        sol = run_mechanism(MechanismDescriptor.coordinate_extreme("max"), profile, ONE)
        p = sol.locations[0]
        assert p == (108223.0, 760143.0)
        old = [math.dist(a, p) for a in agents]
        lens = axioms._lens_points(agents, old, p)
        assert all(
            axioms._domination_margin(old, [math.dist(a, q) for a in agents]) == 0.0
            for q in lens
        )
        cert = check_pareto(profile, sol)
        hull = axioms._convex_hull(agents)
        assert cert is not None
        assert cert.dominating.locations == (axioms._hull_projection(p, hull),)
        assert verify_certificate(cert)
        # the projection is short of the exact c1 + c2 - |a1 - a2| by ~160
        assert 0.0 < cert.improvement < old[0] + old[1] - math.dist(*agents) - 100.0

    @settings(deadline=None, max_examples=40)
    @given(profile=planar_profiles(), desc=st.sampled_from(AUDIT_DESCRIPTORS))
    # (0.5, 0) gains agent 3 6e-08 over the median (0.5, 6e-08) on the hull
    # edge, and costs agents 1 and 2 only about 6e-08^2 / 2 = 1.8e-15 each
    @example(
        profile=AgentProfile(
            ((0.0, 5.960464477539063e-08), (1.0, 5.960464477539063e-08), (0.5, 0.0))
        ),
        desc=MechanismDescriptor.median(),
    )
    def test_exact_candidates_beat_the_lattice(self, profile, desc):
        honest = run_mechanism(desc, profile, ONE)
        cert = check_pareto(profile, honest, FUZZ_BUDGET)
        if cert is not None:
            assert verify_certificate(cert)
        margin = 0.0 if cert is None else cert.improvement
        # exact domination, as check_pareto proves it: a step of d off a
        # hull edge of length L lengthens its end agents' trips by only
        # about d^2 / (2 L), which REPLAY_SLACK would let through
        assert lattice_margin(profile, honest, FUZZ_BUDGET, slack=0.0) <= margin + 1e-12
        if profile.metric is Metric.EUCLIDEAN:
            in_hull = in_hull_reference(honest.locations[0], profile.agents)
            assert in_hull == axioms._in_hull(
                honest.locations[0], axioms._convex_hull(profile.agents)
            )
            if in_hull:
                assert cert is None

    @settings(deadline=None, max_examples=100)
    @given(case=outside_placements())
    # the agent's whole trip, 4.4e-12, is a gain below GAIN_TOLERANCE
    @example(case=(AgentProfile(((0.0, 0.0),)), (0.0, 4.4075604089142214e-12)))
    # the hull edge's squared length underflows to 0
    @example(case=(AgentProfile(((1.0, 0.0), (1.0, 4.4752102736824607e-305))), (0.0, 0.0)))
    # p lies on a hull edge, and a sideways step of d from it costs the edge
    # agents only about d^2 / (2 L): within REPLAY_SLACK for d near 1e-6,
    # which agent 4 gains
    @example(
        case=(
            AgentProfile(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.192092896e-07, 0.0))),
            (0.0, 0.5),
        )
    )
    # the same, with p about 4e-8 outside the hull
    @example(
        case=(AgentProfile(((0.0, 0.75), (1.0, 0.0), (1.192092896e-07, 0.0))), (0.0, 0.5))
    )
    # the same, with p on a hull edge, 1.06e-10 from its end
    @example(
        case=(AgentProfile(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))), (0.0, 1.062107711943748e-10))
    )
    def test_no_point_of_the_lens_beats_the_refuter(self, case):
        profile, p = case
        agents = profile.agents
        # the reference takes no slack, so its gains can only be smaller
        # and the bounds below check less: a step of d off a hull edge of
        # length L costs its agents only about d^2 / (2 L), so points within
        # REPLAY_SLACK of D reach about sqrt(2 REPLAY_SLACK L) beyond it, and
        # another agent can gain that much there
        reference = lens_gains(agents, p, lens_brute_force(agents, p), slack=0.0)
        # the point of D nearest each agent is among the lens points
        old = [math.dist(a, p) for a in agents]
        exact = lens_gains(agents, p, axioms._lens_points(agents, old, p))
        assert all(e >= r - 1e-12 for e, r in zip(exact, reference))
        cert = check_pareto(profile, Solution((p,), (1,) * profile.n))
        if cert is None:
            # None proves no domination by more than the documented bound
            assert max(reference) <= GAIN_TOLERANCE + REPLAY_SLACK
        else:
            assert verify_certificate(cert)
            assert max(reference) <= cert.improvement + REPLAY_SLACK

    @settings(deadline=None, max_examples=60)
    @given(
        pts=st.lists(
            st.tuples(st.sampled_from(HUGE), st.sampled_from(HUGE)),
            min_size=1,
            max_size=4,
        ),
        at=st.tuples(st.sampled_from(HUGE), st.sampled_from(HUGE)),
        metric=st.sampled_from(list(Metric)),
    )
    def test_overflowing_profiles_are_refused_or_answered(self, pts, at, metric):
        profile = AgentProfile(tuple(pts), metric)
        try:
            cert = check_pareto(profile, Solution((at,), (1,) * profile.n))
        except OracleCapError:
            return
        if cert is not None:
            assert verify_certificate(cert)



# --- the refuters build their certificates from parts already checked, so
# nothing is validated again; the validating constructor rebuilds each one
# unchanged

_REFUTER_CASES = {
    "anonymity-dictatorship": (check_anonymity, MechanismDescriptor.dictatorship(), PAIR, ONE),
    "pareto-manhattan-vertex": (
        check_pareto, CORNER_MISS, Solution(((2.0, 1.4),), (1, 1, 1))
    ),
    "pareto-euclidean-lens": (
        check_pareto,
        AgentProfile(((0.0, 0.0), (1.0, 0.0))),
        Solution(((0.3, 0.01),), (1, 1)),
        COARSE,
    ),
    "manipulation-one-centre": (
        check_strategy_proofness, MechanismDescriptor.one_centre(), AgentProfile(_SKEWED), ONE
    ),
    "manipulation-first-agent": (
        check_strategy_proofness,
        MechanismDescriptor.first_agent(),
        AgentProfile(((0.0, 1.0), (1.0, 0.0))),
        ONE,
    ),
    "manipulation-geometric-lattice": (
        check_strategy_proofness, MechanismDescriptor.geometric(), RECTANGLE, ONE, COARSE
    ),
}


def rebuilt(cert):
    """cert rebuilt by the validating constructor from its own fields."""
    return Certificate(**{f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)})


@pytest.mark.parametrize("case", list(_REFUTER_CASES))
def test_refuters_validate_nothing_again(case, monkeypatch):
    # the profiles, solutions and descriptors are built before counting
    refute, *args = _REFUTER_CASES[case]
    as_point_calls = _counting(monkeypatch, "as_point")
    cert = refute(*args)
    assert cert is not None
    assert as_point_calls == []
    # the counter does see the validating constructors
    AgentProfile(cert.profile.agents, cert.profile.metric)
    assert len(as_point_calls) == cert.profile.n
    assert rebuilt(cert) == cert and verify_certificate(cert)


def test_an_overflowing_anonymity_gap_is_a_resource_cap():
    # the two placements lie farther apart than the float range reaches
    profile = AgentProfile(((1e308, 0.0), (-1e308, 0.0)))
    with pytest.raises(OracleCapError, match="gap overflows the float range"):
        check_anonymity(MechanismDescriptor.dictatorship(), profile, ONE)


@st.composite
def refuter_inputs(draw):
    """A descriptor of any kind; a profile of 2 to 5 agents in a dimension
    where the kind runs, with duplicates, signed zeros and integer-grid
    points; and a spec of 1 to 3 facilities where the kind takes that
    many."""
    kind = draw(st.sampled_from(list(MechanismKind)))
    if kind is MechanismKind.PERCENTILE_1D:
        dim = 1
    elif kind is MechanismKind.ONE_CENTRE:
        dim = 2
    else:
        dim = draw(st.integers(1, 3))
    free = kind in (
        MechanismKind.PERCENTILE_1D,
        MechanismKind.PERCENTILE_MULTI_D,
        MechanismKind.SERIAL_DICTATORSHIP,
    )
    m = draw(st.integers(1, 3)) if free else 1
    probability = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    if kind is MechanismKind.PERCENTILE_1D:
        desc = MechanismDescriptor.percentile_line(draw(st.lists(probability, min_size=m, max_size=m)))
    elif kind is MechanismKind.PERCENTILE_MULTI_D:
        rows = draw(st.lists(st.tuples(*[probability] * dim), min_size=m, max_size=m))
        rotated = dim == 2 and draw(st.booleans())
        desc = MechanismDescriptor.percentile_plane(rows, _ROTATED if rotated else None)
    else:
        desc = MechanismDescriptor(kind)
    coord = st.one_of(
        st.integers(-2, 2).map(float), st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)
    )
    agents = draw(st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=4))
    if draw(st.booleans()):
        agents.append(draw(st.sampled_from(agents)))
    metric = draw(st.sampled_from(list(Metric)))
    return desc, AgentProfile(tuple(agents), metric), FacilitySpec(m)


@settings(deadline=None, max_examples=120)
@given(case=refuter_inputs())
def test_refuter_certificates_equal_the_validated_ones(case):
    desc, profile, spec = case
    budget = SearchBudget(grid_resolution=1.0, bounding_box_pad=1.0)
    honest = run_mechanism(desc, profile, spec)
    found = [
        check_anonymity(desc, profile, spec),
        check_pareto(profile, honest, budget),
        check_strategy_proofness(desc, profile, spec, budget),
    ]
    for cert in found:
        if cert is not None:
            validated = rebuilt(cert)
            assert validated == cert and repr(validated) == repr(cert)
            assert verify_certificate(validated)


@settings(deadline=None, max_examples=80)
@given(
    pts=st.lists(
        st.tuples(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-1.0, 1.0)),
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0)),
        ),
        min_size=1,
        max_size=6,
    ),
    at=st.tuples(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 2.0])),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
    metric=st.sampled_from(list(Metric)),
)
def test_one_location_costs_match_the_per_agent_fold(pts, at, scale, metric):
    # one location: the costs are a plain pass over the agents, float for
    # float what the per-agent min and the assignment lookup gave
    profile = AgentProfile(tuple((x * scale, y * scale) for x, y in pts), metric)
    locations = ((at[0] * scale, at[1] * scale),)
    solution = Solution(locations, (1,) * profile.n)
    dist = lambda a, b: distance(a, b, metric)  # noqa: E731
    nearest = [min(dist(agent, loc) for loc in locations) for agent in profile.agents]
    assigned = [
        dist(agent, locations[j - 1]) for agent, j in zip(profile.agents, solution.assignment)
    ]
    assert repr(list(axioms._nearest_costs(profile, locations))) == repr(nearest)
    assert repr(axioms._agent_costs(profile, solution)) == repr(assigned)
