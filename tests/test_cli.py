import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import facloc
from facloc import mechanisms, welfare
from facloc.axioms import certificate_from_dict, verify_certificate
from facloc.cli import main
from facloc.geometry import ConvergenceError, geometric_median
from facloc.mechanisms import AgentProfile, FacilitySpec, MechanismDescriptor
from facloc import scenarios as scenario_registry

DATA = Path(__file__).parent / "data"

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

# an acute triangle past 1e102, on which the circumcentre formula
# overflows unless its offsets are scaled
ACUTE_PAST_1E102 = {
    "version": 1,
    "metric": "euclidean",
    "agents": [[0, 0], [1e120, 0], [5e119, 8e119]],
    "facilities": 1,
    "mechanism": {"kind": "one_centre"},
}

SPREAD_PAST_THE_FLOAT_RANGE = [[-1.7e308, 0], [1.4e308, 0], [-1.7e308, 0]]


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

    def test_one_centre_past_1e102(self, tmp_path, capsys):
        assert main(["run", "--instance", write(tmp_path, ACUTE_PAST_1E102)]) == 0
        out = lines_of(capsys)
        assert "facility 1 (5e+119, 2.4375e+119)" in out
        assert "max_distance 5.5625e+119" in out

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

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_flag_mechanism_facility_mismatch_fails_validation(self, tmp_path, capsys, command):
        doc = {"version": 1, "agents": [[0, 0], [1, 1]], "facilities": 2}
        path = write(tmp_path, doc)
        assert main([command, "--instance", path, "--mechanism", "multi_dim_median"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: multi_dim_median places 1 facilities, spec asks for 2\n"

    def test_malformed_metric_fails_validation(self, tmp_path, capsys):
        doc = dict(RECTANGLE, metric="taxicab")
        assert main(["run", "--instance", write(tmp_path, doc)]) == 1
        assert "metric" in capsys.readouterr().err

    def test_missing_file_fails_validation(self, tmp_path, capsys):
        assert main(["run", "--instance", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_deeply_nested_file_fails_validation(self, tmp_path, capsys):
        # the JSON parser recurses once per level and runs out of stack
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert main(["run", "--instance", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nests too deeply" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize(
        "command, fields, message",
        [
            ("run", {"agents": [1]}, "instance 'agents' must be a nonempty list"),
            # a string is no point, not even one of digits
            ("run", {"agents": ["12"]}, "instance 'agents' must be a nonempty list"),
            ("oracle", {"facilities": 2, "capacities": 5, "mechanism": None},
             "instance 'capacities' must be a list of integers, got 5"),
            ("run", {"agents": [[10**400, 0], [1, 1]]},
             "point has a coordinate beyond the float range"),
            ("run", {"mechanism": {"kind": "percentile_multi_d", "params": [[10**400, 0.5]]}},
             "mechanism parameter beyond the float range"),
            # refused before the oracle pads its facility tuple to it
            ("oracle", {"agents": [[0, 0], [1, 1], [2, 0]], "facilities": 10**30,
                        "mechanism": None},
             "facility count must be at most 1000"),
        ],
        ids=["agent_number", "agent_string", "capacities_number",
             "coordinate_beyond_float", "parameter_beyond_float", "facilities_past_cap"],
    )
    def test_malformed_instance_field_fails_validation(
        self, tmp_path, capsys, command, fields, message
    ):
        doc = dict(RECTANGLE, **fields)
        assert main([command, "--instance", write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_solver_failure_maps_to_exit_four(self, tmp_path, capsys, monkeypatch):
        def kernel(pts, **kwargs):
            raise ConvergenceError("geometric median did not converge", best=pts[0])

        monkeypatch.setattr(mechanisms, "_geometric_median", kernel)
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
        # the geometric median's strategy-proofness search stays on the lattice
        doc = {
            "version": 1,
            "agents": [[0, 0], [1e308, 1e308]],
            "mechanism": {"kind": "geometric_median"},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith("error: padded search box overflows")

    def test_overflowing_reflection_maps_to_resource_exit(self, tmp_path, capsys):
        # agent 2's reflection through itself of agent 1 is (2e308, 2e308)
        doc = {
            "version": 1,
            "agents": [[0, 0], [1e308, 1e308]],
            "mechanism": {"kind": "one_centre"},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: reflected misreport of agent 2 overflows")
        assert len(err.splitlines()) == 1

    def test_overflowing_anonymity_gap_maps_to_resource_exit(self, tmp_path, capsys):
        # the two dictators' placements lie farther apart than a float reaches
        doc = {
            "version": 1,
            "agents": [[1e308, 0], [-1e308, 0]],
            "mechanism": {"kind": "serial_dictatorship"},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the placements' gap overflows the float range")
        assert len(err.splitlines()) == 1

    def test_too_many_near_placements_map_to_resource_exit(self, tmp_path, capsys):
        # 30 agents 5e-11 apart on a line, 15 dictators: C(30, 15) subsets
        # of locations that no pairwise gap settles, refused before any runs
        doc = {
            "version": 1,
            "agents": [[i * 5e-11] for i in range(30)],
            "facilities": 15,
            "mechanism": {"kind": "serial_dictatorship"},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: anonymity check would place 155117520 facility multisets")
        assert len(err.splitlines()) == 1

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

    def test_far_flung_outside_hull_domination_needs_no_lattice(self, tmp_path, capsys):
        # the corner (1e5, 1e5) lies outside the agents' hull, and the agent
        # at the origin is on both other circles, so it gains its whole trip;
        # the 0.25 lattice of this box would hold about 7e12 points
        doc = {
            "version": 1,
            "agents": [[0, 0], [100000, 0], [0, 100000]],
            "mechanism": {"kind": "coordinate_max"},
        }
        assert main(["check", "--instance", write(tmp_path, doc)]) == 0
        out = lines_of(capsys)
        assert "pareto violation 141421.356237" in out
        cert_line = next(l for l in out if l.startswith("pareto_certificate"))
        cert = certificate_from_dict(json.loads(cert_line.split(" ", 1)[1]))
        assert cert.dominating.locations == ((0.0, 0.0),)
        assert verify_certificate(cert)

    def test_hull_edge_whose_squared_length_underflows_is_skipped(self, tmp_path, capsys):
        # the edge between the first two agents is 4.5e-305 long, so its
        # squared length underflows to 0; its ends stand in for it
        doc = {
            "version": 1,
            "agents": [[1, 0], [1, 4.4752102736824607e-305], [0, 5]],
            "metric": "euclidean",
        }
        path = write(tmp_path, doc)
        assert main(["check", "--instance", path, "--mechanism", "coordinate_min"]) == 0
        out = lines_of(capsys)
        assert "pareto violation 0.900980486407" in out
        cert_line = next(l for l in out if l.startswith("pareto_certificate"))
        assert verify_certificate(certificate_from_dict(json.loads(cert_line.split(" ", 1)[1])))

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

    def test_max_oracle_past_1e102(self, tmp_path, capsys):
        path = write(tmp_path, ACUTE_PAST_1E102)
        assert main(["oracle", "--instance", path, "--objective", "max"]) == 0
        out = lines_of(capsys)
        assert "optimal_welfare 5.5625e+119" in out
        assert "facility 1 (5e+119, 2.4375e+119)" in out

    def test_max_oracle_on_a_lone_agent_at_the_float_end(self, tmp_path, capsys):
        # its scaled-back centre used to round past the largest float, and
        # the oracle refused it
        doc = {
            "version": 1,
            "agents": [[1.9158989217766164e298, 1.7976931348623157e308]],
            "metric": "manhattan",
            "facilities": 1,
        }
        assert main(["oracle", "--instance", write(tmp_path, doc), "--objective", "max"]) == 0
        out = lines_of(capsys)
        assert "optimal_welfare 0" in out
        assert "facility 1 (1.91589892178e+298, 1.79769313486e+308)" in out

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

    @pytest.mark.parametrize(
        "agents, metric, argv, message",
        [
            # every distance from the agents' centroid overflows
            (SPREAD_PAST_THE_FLOAT_RANGE, "euclidean", ["oracle"], "geometric median"),
            (
                SPREAD_PAST_THE_FLOAT_RANGE,
                "euclidean",
                ["run", "--mechanism", "geometric_median"],
                "geometric median",
            ),
            (
                SPREAD_PAST_THE_FLOAT_RANGE,
                "euclidean",
                ["check", "--mechanism", "geometric_median"],
                "geometric median",
            ),
            # the rotated centre is finite, and its distance to either agent
            # overflows
            (
                [[1.7e308, 1.7e308], [-1.7e308, -1.7e308]],
                "manhattan",
                ["oracle", "--objective", "max"],
                "optimal welfare",
            ),
        ],
        ids=["oracle-median", "run-median", "check-median", "oracle-rotated-welfare"],
    )
    def test_past_the_float_range_maps_to_resource_exit(
        self, tmp_path, capsys, agents, metric, argv, message
    ):
        doc = {"version": 1, "metric": metric, "agents": agents, "facilities": 1}
        path = write(tmp_path, doc)
        assert main([argv[0], "--instance", path, *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "past the float range" in err
        assert len(err.splitlines()) == 1

    def test_a_rotated_centre_whose_sums_overflow_is_found(self, tmp_path, capsys):
        # x + y of the first agent overflows, and the centre lies in the
        # agents' bounding box
        doc = {
            "version": 1,
            "metric": "manhattan",
            "agents": [[1.7e308, 1.7e308], [0, 0], [1, 1]],
            "facilities": 1,
        }
        assert main(["oracle", "--instance", write(tmp_path, doc), "--objective", "max"]) == 0
        out = lines_of(capsys)
        assert "optimal_welfare 1.7e+308" in out
        assert "facility 1 (8.5e+307, 8.5e+307)" in out

    # the optima are the least half-sides at which two axis-parallel squares
    # in (x + y, x - y), each with its lower-left corner at some agent's u
    # and some agent's v, cover every agent
    @pytest.mark.parametrize("n, optimum", [(11, "3"), (30, "7.5")])
    def test_two_manhattan_facilities_under_the_max_take_thirty_agents(
        self, tmp_path, capsys, n, optimum
    ):
        doc = {
            "version": 1,
            "agents": [[float(i), float(i % 3)] for i in range(n)],
            "metric": "manhattan",
            "facilities": 2,
        }
        path = write(tmp_path, doc)
        assert main(["oracle", "--instance", path, "--objective", "max"]) == 0
        out = lines_of(capsys)
        assert f"optimal_welfare {optimum}" in out
        assert len([l for l in out if l.startswith("facility ")]) == 2

    def test_the_corner_split_cap_maps_to_resource_exit(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "agents": [[float(i), float(i % 3)] for i in range(31)],
            "metric": "manhattan",
            "facilities": 2,
        }
        path = write(tmp_path, doc)
        assert main(["oracle", "--instance", path, "--objective", "max"]) == 3
        assert "capped at 30 agents" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "metric, facilities",
        [("euclidean", 1), ("manhattan", 1), ("manhattan", 2)],
    )
    def test_an_optimum_past_the_float_range_maps_to_resource_exit(
        self, tmp_path, capsys, metric, facilities
    ):
        # every total distance overflows, and no inf is printed as an optimum
        doc = {
            "version": 1,
            "metric": metric,
            "agents": [[1e308, 1e308], [-1e308, 1e308], [1e308, -1e308], [0, 0]],
            "facilities": facilities,
        }
        assert main(["oracle", "--instance", write(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: optimal welfare is past the float range")
        assert len(err.splitlines()) == 1

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

    @pytest.mark.parametrize(
        "fmt, golden", [("text", "scenario_all.txt"), ("table", "scenario_all_table.tsv")]
    )
    def test_all_scenarios_reproduce_the_committed_report(self, capsys, fmt, golden):
        # every fixture's measured values, to the printed digit
        assert main(["scenario", "all", "--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

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

    def test_module_entry_point_lists_every_scenario(self):
        # `python -m facloc` is the documented entry; run it in a fresh
        # interpreter that imports this checkout of the package
        src = str(Path(facloc.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "facloc", "list-scenarios"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert done.returncode == 0 and done.stderr == ""
        names = [line.split()[0] for line in done.stdout.splitlines()]
        assert names == [name for name, _ in scenario_registry.list_scenarios()]


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

    def test_two_manhattan_facilities_under_the_total_reproduce_the_committed_report(
        self, capsys
    ):
        # the partition walk's grown bounds cut other nodes than bounds
        # summed mask by mask may, but never the optimum or its tie-break
        args = [
            "bench", "--mechanism", "percentile_multi_d", "--params", "0.25,0.25;0.75,0.75",
            "--metric", "manhattan", "--objective", "total", "--n-min", "6", "--n-max", "10",
            "--seed", "3", "--trials", "100",
        ]
        assert main(args) == 0
        golden = DATA / "bench_manhattan_total_two_facilities.txt"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

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

    def test_two_manhattan_facilities_under_the_max_complete_past_ten_agents(self, capsys):
        # corner splits take up to 30 agents; the partition walk refused
        # every one of these trials
        args = [
            "bench", "--mechanism", "percentile_multi_d", "--params", "0,0;1,1",
            "--trials", "20", "--n-min", "11", "--n-max", "20",
            "--metric", "manhattan", "--objective", "max",
        ]
        assert main(args) == 0
        out = lines_of(capsys)
        assert "completed 20" in out
        assert "skipped_resource_cap 0" in out

    def test_manhattan_max_optima_near_the_float_range_complete(self, capsys):
        # x + y of some agents overflows, and the rotated centres stay in
        # their bounding boxes: trials 0 and 1 used to be refused
        args = [
            "bench", "--mechanism", "one_centre", "--metric", "manhattan",
            "--box", "1e308", "--trials", "3", "--objective", "max",
        ]
        assert main(args) == 0
        out = lines_of(capsys)
        assert "completed 3" in out
        assert "skipped_resource_cap 0" in out

    @pytest.mark.parametrize("mechanism", ["multi_dim_median", "one_centre"])
    def test_welfares_past_the_float_range_are_skipped(self, capsys, mechanism):
        # some trials' welfares overflow, whose ratio would be NaN, and some
        # enclosing circles pass through a circumcentre past the float range
        args = [
            "bench", "--mechanism", mechanism, "--metric", "manhattan",
            "--box", "1e308", "--trials", "5",
        ]
        assert main(args) == 0
        out = lines_of(capsys)
        completed, skipped = (
            int(line.split()[1])
            for line in out
            if line.startswith(("completed ", "skipped_resource_cap "))
        )
        assert skipped > 0 and completed + skipped == 5
        assert "failed_solver 0" in out

    def test_solver_failures_are_reported(self, capsys, monkeypatch):
        def kernel(pts, **kwargs):
            if len(pts) == 4:
                raise ConvergenceError("stalled", best=pts[0])
            return geometric_median(pts, **kwargs)

        monkeypatch.setattr(welfare, "_geometric_median", kernel)
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
