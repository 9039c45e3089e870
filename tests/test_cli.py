import json
import math

import pytest

from facloc import mechanisms, welfare
from facloc.axioms import certificate_from_dict, verify_certificate
from facloc.cli import main
from facloc.geometry import ConvergenceError, geometric_median
from facloc.mechanisms import AgentProfile, FacilitySpec, MechanismDescriptor
from facloc import scenarios as scenario_registry

RECTANGLE = {
    "version": 1,
    "metric": "euclidean",
    "agents": [[12, 0], [0, 0], [0, 2], [12, 2]],
    "facilities": 1,
    "mechanism": {"kind": "multi_dim_median"},
}

ONECENTRE = {
    "version": 1,
    "metric": "euclidean",
    "agents": [[0, 1], [0, 0], [0, 0]],
    "facilities": 1,
    "mechanism": {"kind": "one_centre"},
}


def write(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


class TestRun:
    def test_median_on_rectangle(self, tmp_path, capsys):
        assert main(["run", "--instance", write(tmp_path, RECTANGLE)]) == 0
        out = lines_of(capsys)
        assert "facility 1 (0, 0)" in out
        assert "assignment 1 1 1 1" in out
        total = next(l for l in out if l.startswith("total_distance"))
        assert total == "total_distance 26.1655250606"
        assert float(total.split()[1]) == pytest.approx(2 + 12 + math.sqrt(148), abs=1e-9)

    def test_single_agent_costs_nothing(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[3.5, 4.25]],
            "mechanism": {"kind": "multi_dim_median"},
        }
        assert main(["run", "--instance", write(tmp_path, doc)]) == 0
        out = lines_of(capsys)
        assert "facility 1 (3.5, 4.25)" in out
        assert "total_distance 0" in out
        assert "max_distance 0" in out

    def test_mechanism_flag_overrides_file(self, tmp_path, capsys):
        path = write(tmp_path, RECTANGLE)
        assert main(["run", "--instance", path, "--mechanism", "geometric_median"]) == 0
        assert "facility 1 (6, 1)" in lines_of(capsys)

    def test_mechanism_params_from_flags(self, tmp_path, capsys):
        doc = {"version": 1, "agents": [[0, 0], [1, 1]], "facilities": 2}
        args = [
            "run", "--instance", write(tmp_path, doc),
            "--mechanism", "percentile_multi_d", "--params", "0,0;1,1",
        ]
        assert main(args) == 0
        out = lines_of(capsys)
        assert "facility 1 (0, 0)" in out
        assert "facility 2 (1, 1)" in out

    def test_capacitated_run_composes_assignment(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[0, 0], [0, 0], [0, 0], [10, 10]],
            "facilities": 2,
            "capacities": [2, 2],
            "mechanism": {"kind": "percentile_multi_d", "params": [[0, 0], [1, 1]]},
        }
        assert main(["run", "--instance", write(tmp_path, doc)]) == 0
        out = lines_of(capsys)
        assert "assignment 1 1 2 2" in out
        total = next(l for l in out if l.startswith("total_distance"))
        assert float(total.split()[1]) == pytest.approx(10 * math.sqrt(2), abs=1e-9)

    def test_table_format_is_tab_separated(self, tmp_path, capsys):
        path = write(tmp_path, RECTANGLE)
        assert main(["run", "--instance", path, "--format", "table"]) == 0
        assert "facility\t1\t0\t0" in lines_of(capsys)

    def test_missing_mechanism_everywhere_fails(self, tmp_path, capsys):
        doc = {"version": 1, "agents": [[0, 0]]}
        assert main(["run", "--instance", write(tmp_path, doc)]) == 1
        assert "no mechanism" in capsys.readouterr().err

    def test_malformed_metric_fails_validation(self, tmp_path, capsys):
        doc = dict(RECTANGLE, metric="taxicab")
        assert main(["run", "--instance", write(tmp_path, doc)]) == 1
        assert "metric" in capsys.readouterr().err

    def test_missing_file_fails_validation(self, tmp_path, capsys):
        assert main(["run", "--instance", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_integral_capacity_fails_validation(self, tmp_path, capsys):
        doc = dict(RECTANGLE, facilities=2, capacities=[2.7, 1])
        doc["mechanism"] = {"kind": "percentile_multi_d", "params": [[0, 0], [1, 1]]}
        assert main(["run", "--instance", write(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.startswith("error: capacity must be an integer")

    def test_boolean_coordinate_fails_validation(self, tmp_path, capsys):
        doc = dict(RECTANGLE, agents=[[True, 0], [1, 1], [2, 0]])
        assert main(["run", "--instance", write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: point coordinates must be numbers")

    def test_empty_axes_fail_validation(self, tmp_path, capsys):
        doc = dict(RECTANGLE, mechanism={
            "kind": "percentile_multi_d", "params": [[0.5, 0.5]], "axes": [],
        })
        assert main(["run", "--instance", write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: axes must form a square basis\n"

    @pytest.mark.parametrize(
        "agents, facilities, mechanism",
        [
            ([[0, 0], [1, 1]], 1, {"kind": "percentile_multi_d", "params": [[0.5, 0.5]], "axes": [1]}),
            ([[0], [1], [2]], 1, {"kind": "percentile_1d", "params": 0.5}),
            ([[0, 0], [1, 1]], 1, {"kind": "percentile_multi_d", "params": [1]}),
            ([[0, 0], [1, 1]], 2, {"kind": "serial_dictatorship", "order": 5}),
            # a string is no list of numbers, not even one of digits
            ([[0], [1], [2]], 2, {"kind": "percentile_1d", "params": "01"}),
        ],
        ids=["axes_of_numbers", "line_params_number", "plane_params_flat",
             "order_number", "line_params_string"],
    )
    def test_non_list_mechanism_field_fails_validation(
        self, tmp_path, capsys, agents, facilities, mechanism
    ):
        doc = {"version": 1, "agents": agents, "facilities": facilities, "mechanism": mechanism}
        assert main(["run", "--instance", write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mechanism '")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_solver_failure_maps_to_exit_four(self, tmp_path, capsys, monkeypatch):
        def kernel(pts, **kwargs):
            raise ConvergenceError("geometric median did not converge", best=pts[0])

        monkeypatch.setattr(mechanisms, "geometric_median", kernel)
        doc = dict(RECTANGLE, mechanism={"kind": "geometric_median"})
        assert main(["run", "--instance", write(tmp_path, doc)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: geometric median did not converge\n"


class TestCheck:
    def test_onecentre_manipulation_found_and_replayable(self, tmp_path, capsys):
        path = write(tmp_path, ONECENTRE)
        code = main(["check", "--instance", path, "--grid-resolution", "0.5"])
        assert code == 0  # violations only change the exit code under --strict
        out = lines_of(capsys)
        assert "anonymity none" in out
        assert "pareto none" in out
        gain_line = next(l for l in out if l.startswith("strategy_proofness violation"))
        assert float(gain_line.split()[-1]) == pytest.approx(0.5, abs=1e-9)
        cert_line = next(l for l in out if l.startswith("strategy_proofness_certificate"))
        cert = certificate_from_dict(json.loads(cert_line.split(" ", 1)[1]))
        assert verify_certificate(cert)

    def test_strict_mode_signals_violation(self, tmp_path):
        path = write(tmp_path, ONECENTRE)
        assert main(["check", "--instance", path, "--grid-resolution", "0.5", "--strict"]) == 2

    def test_median_odd_n_is_clean_even_under_strict(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[0, 0], [1, 1], [2, 0]],
            "mechanism": {"kind": "multi_dim_median"},
        }
        path = write(tmp_path, doc)
        assert main(["check", "--instance", path, "--grid-resolution", "0.5", "--strict"]) == 0
        out = lines_of(capsys)
        assert out == [
            "anonymity none",
            "pareto none",
            "strategy_proofness none",
        ]

    def test_dictatorship_fails_anonymity(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[0, 0], [5, 5]],
            "mechanism": {"kind": "serial_dictatorship"},
        }
        path = write(tmp_path, doc)
        assert main(["check", "--instance", path, "--grid-resolution", "1.0"]) == 0
        out = lines_of(capsys)
        assert any(l.startswith("anonymity violation") for l in out)
        cert_line = next(l for l in out if l.startswith("anonymity_certificate"))
        cert = certificate_from_dict(json.loads(cert_line.split(" ", 1)[1]))
        assert verify_certificate(cert)

    def test_overflowing_search_box_maps_to_resource_exit(self, tmp_path, capsys):
        # one_centre's strategy-proofness search stays on the lattice
        doc = {
            "version": 1,
            "agents": [[0, 0], [1e308, 1e308]],
            "mechanism": {"kind": "one_centre"},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith("error: padded search box overflows")

    def test_far_flung_median_needs_no_lattice(self, tmp_path, capsys):
        # the median sits on a hull vertex, and its manipulations are
        # searched on the agents' coordinates, so no box is padded
        doc = {
            "version": 1,
            "agents": [[0, 0], [1e308, 1e308]],
            "mechanism": {"kind": "multi_dim_median"},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 0
        assert "pareto none" in lines_of(capsys)

    def test_corner_pick_domination_off_the_lattice_is_found(self, tmp_path, capsys):
        # every point dominating (2, 1.4) lies on the segment x - y = 0.6,
        # which no point of the 0.25 lattice is on
        doc = {
            "version": 1,
            "metric": "manhattan",
            "agents": [[0.4, 0], [0, 1.4], [2, 0]],
            "mechanism": {"kind": "coordinate_max"},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 0
        out = lines_of(capsys)
        gain_line = next(l for l in out if l.startswith("pareto violation"))
        assert float(gain_line.split()[-1]) == pytest.approx(2.8, abs=1e-9)
        cert_line = next(l for l in out if l.startswith("pareto_certificate"))
        cert = certificate_from_dict(json.loads(cert_line.split(" ", 1)[1]))
        assert verify_certificate(cert)
        (x, y), = cert.dominating.locations
        assert x - y == pytest.approx(0.6, abs=1e-12)

    def test_capacitated_instances_rejected(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[0, 0], [1, 1]],
            "facilities": 2,
            "capacities": [1, 1],
            "mechanism": {"kind": "percentile_multi_d", "params": [[0, 0], [1, 1]]},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 1
        assert "uncapacitated" in capsys.readouterr().err


class TestOracle:
    def test_total_oracle_finds_geometric_median(self, tmp_path, capsys):
        doc = {k: v for k, v in RECTANGLE.items() if k != "mechanism"}
        assert main(["oracle", "--instance", write(tmp_path, doc), "--objective", "total"]) == 0
        out = lines_of(capsys)
        assert "facility 1 (6, 1)" in out
        welfare = next(l for l in out if l.startswith("optimal_welfare"))
        assert float(welfare.split()[1]) == pytest.approx(4 * math.sqrt(37), abs=1e-9)

    def test_max_oracle_finds_circumcentre(self, tmp_path, capsys):
        doc = {k: v for k, v in RECTANGLE.items() if k != "mechanism"}
        assert main(["oracle", "--instance", write(tmp_path, doc), "--objective", "max"]) == 0
        out = lines_of(capsys)
        welfare = next(l for l in out if l.startswith("optimal_welfare"))
        assert float(welfare.split()[1]) == pytest.approx(math.sqrt(37), abs=1e-9)

    def test_partition_cap_maps_to_resource_exit(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[float(i), 0.0] for i in range(11)],
            "metric": "manhattan",
            "facilities": 2,
        }
        assert main(["oracle", "--instance", write(tmp_path, doc)]) == 3
        assert "capped at 10 agents" in capsys.readouterr().err

    def test_line_split_cap_maps_to_resource_exit(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[float(i), float(i % 3)] for i in range(31)],
            "facilities": 2,
        }
        assert main(["oracle", "--instance", write(tmp_path, doc)]) == 3
        assert "capped at 30 agents" in capsys.readouterr().err

    def test_capacitated_oracle_is_a_validation_error(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[0, 0], [1, 1]],
            "facilities": 2,
            "capacities": [1, 1],
        }
        assert main(["oracle", "--instance", write(tmp_path, doc)]) == 1
        assert "uncapacitated" in capsys.readouterr().err


class TestScenario:
    def test_single_scenario_passes(self, capsys):
        assert main(["scenario", "thm1_manipulation"]) == 0
        out = lines_of(capsys)
        assert out[0] == "scenario thm1_manipulation PASS"
        assert "summary 1 of 1 passed" in out

    def test_all_scenarios_pass(self, capsys):
        assert main(["scenario", "all"]) == 0
        out = lines_of(capsys)
        count = len(scenario_registry.list_scenarios())
        assert f"summary {count} of {count} passed" in out
        assert count >= 11

    def test_unknown_scenario_fails_validation(self, capsys):
        assert main(["scenario", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_failing_scenario_exits_two(self, capsys):
        bad = scenario_registry.Scenario(
            name="cli_exit_code_probe",
            profile=AgentProfile(((0.0, 0.0),)),
            spec=FacilitySpec(1),
            mechanism=MechanismDescriptor.median(),
            note="deliberately failing fixture for exit-code coverage",
            expectations=(
                scenario_registry.Expectation(
                    "impossible", 1.0, 1e-9, "never measures true", lambda s: 0.0
                ),
            ),
        )
        scenario_registry._REGISTRY[bad.name] = bad
        try:
            assert main(["scenario", "cli_exit_code_probe"]) == 2
        finally:
            del scenario_registry._REGISTRY[bad.name]
        assert "FAIL" in capsys.readouterr().out


class TestListScenarios:
    def test_all_required_names_listed(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name, _ in scenario_registry.list_scenarios():
            assert name in out


class TestBench:
    ARGS = [
        "bench", "--mechanism", "multi_dim_median", "--objective", "max",
        "--trials", "25", "--seed", "9", "--n-min", "3", "--n-max", "8",
        "--parity", "odd",
    ]

    def test_report_shape_and_parity(self, capsys):
        assert main(self.ARGS) == 0
        out = lines_of(capsys)
        assert "sampling uniform square_side 100 seed 9" in out
        assert "completed 25" in out
        assert "skipped_resource_cap 0" in out
        per_n = [l.split() for l in out if l.startswith("per_n_max")]
        assert per_n and all(int(row[1]) % 2 == 1 for row in per_n)
        hist = [int(l.split()[-1]) for l in out if l.startswith("histogram")]
        assert sum(hist) == 25

    def test_byte_identical_reports(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_oracle_cap_skips_are_reported(self, capsys):
        args = [
            "bench", "--mechanism", "percentile_multi_d", "--params", "0,0;1,1",
            "--trials", "2", "--n-min", "11", "--n-max", "11",
            "--metric", "manhattan",
        ]
        assert main(args) == 0
        out = lines_of(capsys)
        assert "completed 0" in out
        assert "skipped_resource_cap 2" in out
        assert "max_ratio nan" in out

    def test_solver_failures_are_reported(self, capsys, monkeypatch):
        def kernel(pts, **kwargs):
            if len(pts) == 4:
                raise ConvergenceError("stalled", best=pts[0])
            return geometric_median(pts, **kwargs)

        monkeypatch.setattr(welfare, "geometric_median", kernel)
        args = [
            "bench", "--mechanism", "multi_dim_median", "--trials", "20",
            "--n-min", "3", "--n-max", "5",
        ]
        assert main(args) == 0
        out = lines_of(capsys)
        # the failure count follows the resource-cap skips
        key, failed = out[out.index("skipped_resource_cap 0") + 1].split()
        assert key == "failed_solver" and int(failed) > 0
        assert f"completed {20 - int(failed)}" in out

    def test_nearly_collinear_trial_completes(self, capsys):
        # trial 47 holds four nearly collinear agents whose geometric median
        # once hit the solver's iteration cap
        args = [
            "bench", "--mechanism", "percentile_multi_d", "--params", "0,0;1,1",
            "--trials", "200", "--n-min", "4", "--n-max", "8",
        ]
        assert main(args) == 0
        out = lines_of(capsys)
        assert "completed 200" in out
        assert "failed_solver 0" in out

    def test_bench_needs_a_mechanism(self, capsys):
        assert main(["bench", "--trials", "5"]) == 1
        assert "--mechanism" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand_is_validation(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_format_choice_is_validation(self, tmp_path, capsys):
        path = write(tmp_path, RECTANGLE)
        assert main(["run", "--instance", path, "--format", "yaml"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "facloc" in capsys.readouterr().out

    def test_bad_params_string_is_validation(self, tmp_path, capsys):
        doc = {"version": 1, "agents": [[0, 0], [1, 1]], "facilities": 2}
        args = [
            "run", "--instance", write(tmp_path, doc),
            "--mechanism", "percentile_multi_d", "--params", "0,zero;1,1",
        ]
        assert main(args) == 1
