import math

import pytest

from facloc.axioms import (
    SearchBudget,
    check_anonymity,
    check_pareto,
    check_strategy_proofness,
    verify_certificate,
)
from facloc.scenarios import (
    Expectation,
    Scenario,
    get_scenario,
    list_scenarios,
    run_all,
    run_scenario,
    values_match,
)
from facloc.mechanisms import AgentProfile, FacilitySpec, MechanismDescriptor, run_mechanism

# names the registry must always carry; CLI users script against them
REQUIRED_NAMES = (
    "thm1_manipulation",
    "onecentre_manipulation",
    "thm4_case1",
    "thm4_case2",
    "thm4_case3",
    "thm3_construction",
    "capacitated_even",
    "capacitated_odd",
    "manhattan_2agent_max",
    "manhattan_3agent_median",
    "manhattan_4agent_min_dominated",
    "manhattan_median_optimal_total",
)

ALL_NAMES = [name for name, _ in list_scenarios()]


def result_by_name(report, name):
    matches = [r for r in report.results if r.name == name]
    assert len(matches) == 1, f"{name!r} appears {len(matches)} times"
    return matches[0]


class TestRegistry:
    def test_required_names_registered(self):
        missing = [n for n in REQUIRED_NAMES if n not in ALL_NAMES]
        assert not missing

    def test_registry_size_at_least_eleven(self):
        assert len(ALL_NAMES) >= 11

    def test_names_are_unique(self):
        assert len(ALL_NAMES) == len(set(ALL_NAMES))

    def test_listing_carries_nonempty_notes(self):
        for name, note in list_scenarios():
            assert name and note.strip(), name

    def test_every_expectation_carries_a_note(self):
        for name in ALL_NAMES:
            for exp in get_scenario(name).expectations:
                assert exp.note.strip(), f"{name}:{exp.name}"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("no_such_fixture")
        with pytest.raises(ValueError, match="thm1_manipulation"):
            run_scenario("no_such_fixture")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scenario_passes(name):
    report = run_scenario(name)
    failed = [r for r in report.results if not r.passed]
    assert report.passed, [
        (r.name, r.expected, r.measured) for r in failed
    ]


# the axiom checkers take uncapacitated instances only
UNCAPACITATED = [n for n in ALL_NAMES if get_scenario(n).spec.capacities is None]
CERTIFICATE_BUDGET = SearchBudget(grid_resolution=0.5, bounding_box_pad=1.0)
# the certificates the checkers emit on the worked counterexamples at that
# budget; every other uncapacitated scenario gets none
EXPECTED_CERTIFICATES = {
    "thm1_manipulation": ["manipulation"],
    "onecentre_manipulation": ["manipulation"],
    "thm4_case1": ["pareto_domination"],
    "thm4_case2": ["pareto_domination"],
    "thm4_case3": ["pareto_domination"],
    "manhattan_3agent_max_dominated": ["pareto_domination"],
    "manhattan_4agent_min_dominated": ["pareto_domination"],
}


def test_certificates_cover_only_uncapacitated_scenarios():
    assert set(EXPECTED_CERTIFICATES) <= set(UNCAPACITATED)


@pytest.mark.parametrize("name", UNCAPACITATED)
def test_checkers_emit_replayable_certificates(name):
    s = get_scenario(name)
    honest = run_mechanism(s.mechanism, s.profile, s.spec)
    found = [
        cert
        for cert in (
            check_anonymity(s.mechanism, s.profile, s.spec),
            check_pareto(s.profile, honest, CERTIFICATE_BUDGET),
            check_strategy_proofness(s.mechanism, s.profile, s.spec, CERTIFICATE_BUDGET),
        )
        if cert is not None
    ]
    assert [cert.kind.value for cert in found] == EXPECTED_CERTIFICATES.get(name, [])
    assert all(verify_certificate(cert) for cert in found)


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        first = run_scenario("thm1_manipulation")
        second = run_scenario("thm1_manipulation")
        assert first == second

    def test_run_all_covers_registry_in_order(self):
        reports = run_all()
        assert [r.scenario for r in reports] == ALL_NAMES


class TestFrozenValues:
    # the headline measured numbers, pinned independently of the fixture's
    # own expected fields so a fixture edit cannot silently drift both sides

    def test_thm1_measured_values(self):
        report = run_scenario("thm1_manipulation")
        assert result_by_name(report, "facility").measured == pytest.approx(
            (6.0, 1.0), abs=1e-9
        )
        assert result_by_name(report, "total_distance").measured == pytest.approx(
            24.331050121192876, abs=1e-12
        )
        assert result_by_name(report, "best_misreport").measured == (12.0, 2.0)
        assert result_by_name(report, "manipulation_gain").measured == pytest.approx(
            4.082762530298219, abs=1e-12
        )
        assert result_by_name(report, "manipulating_agent").measured == 1

    def test_onecentre_measured_values(self):
        report = run_scenario("onecentre_manipulation")
        assert result_by_name(report, "facility").measured == (0.0, 0.5)
        assert result_by_name(report, "best_misreport").measured == (0.0, 2.0)
        assert result_by_name(report, "manipulation_gain").measured == pytest.approx(
            0.5, abs=1e-12
        )

    def test_thm4_case3_measured_values(self):
        report = run_scenario("thm4_case3")
        assert result_by_name(report, "mechanism_max_distance").measured == pytest.approx(
            1.0, abs=1e-12
        )
        assert result_by_name(report, "optimal_max_distance").measured == pytest.approx(
            0.0, abs=1e-12
        )
        assert result_by_name(report, "approximation_ratio_unbounded").measured is True

    def test_manhattan_median_measured_values(self):
        report = run_scenario("manhattan_median_optimal_total")
        assert result_by_name(report, "facility").measured == (2.0, 2.0)
        assert result_by_name(report, "total_distance").measured == 15.0
        assert result_by_name(report, "max_approximation_ratio").measured == pytest.approx(
            1.2, abs=1e-12
        )

    def test_capacitated_loads_fill_exactly(self):
        even = run_scenario("capacitated_even")
        assert result_by_name(even, "capacity_loads").measured == (4, 4)
        odd = run_scenario("capacitated_odd")
        assert result_by_name(odd, "capacity_loads").measured == (3, 3)


class TestValuesMatch:
    def test_none_only_matches_none(self):
        assert values_match(None, None, 1.0)
        assert not values_match(None, 0.0, 1.0)
        assert not values_match((0.0,), None, 1.0)

    def test_bools_are_exact_and_not_numbers(self):
        assert values_match(True, True, 1.0)
        assert not values_match(True, False, 1.0)
        # tolerance must never let 1.0 impersonate True
        assert not values_match(True, 1.0, 10.0)
        assert not values_match(0.0, False, 10.0)

    def test_infinities_compare_exactly(self):
        assert values_match(math.inf, math.inf, 1e-9)
        assert not values_match(math.inf, 1e300, 1e300)

    def test_numbers_within_tolerance(self):
        assert values_match(1.0, 1.0 + 5e-7, 1e-6)
        assert not values_match(1.0, 1.0 + 2e-6, 1e-6)

    def test_sequences_recurse_elementwise(self):
        assert values_match((1.0, (2.0, 3.0)), [1.0, [2.0, 3.0 + 1e-8]], 1e-6)
        assert not values_match((1.0, 2.0), (1.0,), 1e-6)

    def test_strings_exact(self):
        assert values_match("euclidean", "euclidean", 1.0)
        assert not values_match("euclidean", "manhattan", 1.0)


class TestFixtureValidation:
    def test_expectation_requires_note(self):
        with pytest.raises(ValueError, match="nonempty note"):
            Expectation("x", 1.0, 1e-9, "  ", lambda s: 1.0)

    def test_scenario_requires_expectations(self):
        with pytest.raises(ValueError, match="expectations"):
            Scenario(
                name="empty",
                profile=AgentProfile(((0.0, 0.0),)),
                spec=FacilitySpec(1),
                mechanism=MechanismDescriptor.median(),
                note="a note",
                expectations=(),
            )
