"""Command line front-end.

Subcommands: run, check, oracle, scenario, bench, list-scenarios.  All
numeric output is printed at 12 significant digits with locale-independent
formatting, and every report is byte-identical across runs for the same
inputs and seed.  Exit codes: 0 success, 1 validation error, 2 violation
found (check/scenario), 3 resource cap hit, 4 numeric solver did not
converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .axioms import (
    Certificate,
    SearchBudget,
    certificate_to_dict,
    check_anonymity,
    check_pareto,
    check_strategy_proofness,
)
from .bench import BenchConfig, histogram_edges, run_bench
from .geometry import ConvergenceError
from .instances import Instance, load_instance
from .mechanisms import (
    _KINDS,
    FacilitySpec,
    MechanismDescriptor,
    MechanismKind,
    Solution,
    descriptor_from_dict,
    run_mechanism,
)
from .scenarios import list_scenarios, run_all, run_scenario
from .welfare import (
    OracleCapError,
    WelfareObjective,
    evaluate,
    optimal_capacitated_assignment,
    optimal_welfare,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2
EXIT_RESOURCE_CAP = 3
EXIT_SOLVER = 4


def fmt(value: Any) -> str:
    """Fixed 12-significant-digit rendering for every printed number."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value + 0.0, ".12g")  # +0.0 folds -0.0 into 0.0
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(fmt(v) for v in value) + ")"
    return str(value)


def _cells(value: Any) -> list[str]:
    # tables flatten points into one cell per coordinate
    if isinstance(value, (tuple, list)):
        return [fmt(v) for v in value]
    return [fmt(value)]


class _Emitter:
    """Collects (key, value) report lines and prints them in the chosen
    format: aligned `key value` text or tab-separated table rows."""

    def __init__(self, table: bool):
        self.table = table
        self.lines: list[str] = []

    def row(self, key: str, *values: Any) -> None:
        if self.table:
            cells = [key]
            for v in values:
                cells.extend(_cells(v))
            self.lines.append("\t".join(cells))
        else:
            self.lines.append(" ".join([key] + [fmt(v) for v in values]))

    def raw(self, key: str, text: str) -> None:
        sep = "\t" if self.table else " "
        self.lines.append(f"{key}{sep}{text}")

    def emit(self) -> None:
        sys.stdout.write("\n".join(self.lines) + "\n")


def _parse_params(kind: str, text: str) -> dict[str, Any]:
    rows = [row.strip() for row in text.split(";") if row.strip()]
    if not rows:
        raise ValueError("--params is empty")
    # an unknown kind reads as rows, and descriptor_from_dict names it
    shape = next((k.params for key, k in _KINDS.items() if key.value == kind), "rows")
    if shape == "order":
        if len(rows) != 1:
            raise ValueError("an agent order is a single comma-separated row")
        return {"order": [int(x) for x in rows[0].split(",")]}
    if shape == "row":
        if len(rows) != 1:
            raise ValueError("1-d percentiles are a single comma-separated row")
        return {"params": [float(x) for x in rows[0].split(",")]}
    return {"params": [[float(x) for x in row.split(",")] for row in rows]}


def _descriptor_from_flags(args: argparse.Namespace) -> MechanismDescriptor | None:
    if not getattr(args, "mechanism", None):
        if getattr(args, "params", None):
            raise ValueError("--params needs --mechanism")
        return None
    doc: dict[str, Any] = {"kind": args.mechanism}
    if getattr(args, "params", None):
        doc.update(_parse_params(args.mechanism, args.params))
    return descriptor_from_dict(doc)


def _require_mechanism(instance: Instance, args: argparse.Namespace) -> MechanismDescriptor:
    descriptor = _descriptor_from_flags(args)
    if descriptor is None:
        descriptor = instance.mechanism
    if descriptor is None:
        raise ValueError(
            "no mechanism: set one in the instance file or pass --mechanism"
        )
    implied = descriptor.implied_facilities
    if implied is not None and implied != instance.spec.m:
        raise ValueError(
            f"mechanism places {implied} facilities but the instance asks for {instance.spec.m}"
        )
    return descriptor


def _solve(instance: Instance, descriptor: MechanismDescriptor) -> Solution:
    spec = instance.spec
    if not spec.capacitated:
        return run_mechanism(descriptor, instance.profile, spec)
    # capacitated runs compose the uncapacitated placement with the exact
    # capacity-respecting assignment; mechanisms themselves never see caps
    placed = run_mechanism(descriptor, instance.profile, FacilitySpec(spec.m))
    assignment, _ = optimal_capacitated_assignment(
        instance.profile, placed.locations, spec.capacities
    )
    return Solution(placed.locations, assignment)


# subcommands -----------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    descriptor = _require_mechanism(instance, args)
    solution = _solve(instance, descriptor)
    out = _Emitter(args.format == "table")
    out.row("mechanism", descriptor.kind.value)
    out.row("metric", instance.profile.metric.value)
    out.row("agents", instance.profile.n)
    out.row("facilities", instance.spec.m)
    for j, loc in enumerate(solution.locations, start=1):
        out.row("facility", j, loc)
    out.row("assignment", *solution.assignment)
    out.row("total_distance", evaluate(instance.profile, solution, WelfareObjective.TOTAL))
    out.row("max_distance", evaluate(instance.profile, solution, WelfareObjective.MAX))
    out.emit()
    return EXIT_OK


def _certificate_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, separators=(",", ":"))


def _cmd_check(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    if instance.spec.capacitated:
        raise ValueError("axiom checks take uncapacitated instances only")
    descriptor = _require_mechanism(instance, args)
    budget = SearchBudget(grid_resolution=args.grid_resolution, seed=args.seed)
    profile, spec = instance.profile, instance.spec
    honest = run_mechanism(descriptor, profile, spec)
    sections = (
        ("anonymity", check_anonymity(descriptor, profile, spec)),
        ("pareto", check_pareto(profile, honest, budget)),
        ("strategy_proofness", check_strategy_proofness(descriptor, profile, spec, budget)),
    )
    out = _Emitter(args.format == "table")
    violations = 0
    for axiom, cert in sections:
        if cert is None:
            out.row(axiom, "none")
        else:
            violations += 1
            out.row(axiom, "violation", cert.improvement)
            out.raw(f"{axiom}_certificate", _certificate_json(cert))
    out.emit()
    if violations and args.strict:
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    objective = WelfareObjective(args.objective)
    value, solution = optimal_welfare(instance.profile, instance.spec, objective)
    out = _Emitter(args.format == "table")
    out.row("objective", objective.value)
    out.row("metric", instance.profile.metric.value)
    out.row("agents", instance.profile.n)
    out.row("optimal_welfare", value)
    for j, loc in enumerate(solution.locations, start=1):
        out.row("facility", j, loc)
    out.row("assignment", *solution.assignment)
    out.emit()
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.name == "all":
        reports = run_all()
    else:
        reports = [run_scenario(args.name)]
    out = _Emitter(args.format == "table")
    all_passed = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        out.row("scenario", report.scenario, status)
        for res in report.results:
            out.row(
                "  expectation" if not out.table else "expectation",
                res.name,
                "PASS" if res.passed else "FAIL",
                res.expected,
                res.measured,
            )
        all_passed = all_passed and report.passed
    passed = sum(1 for r in reports if r.passed)
    out.row("summary", passed, "of", len(reports), "passed")
    out.emit()
    return EXIT_OK if all_passed else EXIT_VIOLATION


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    out = _Emitter(args.format == "table")
    for name, note in list_scenarios():
        out.raw(name, note)
    out.emit()
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    descriptor = _descriptor_from_flags(args)
    if descriptor is None:
        raise ValueError("bench needs --mechanism")
    config = BenchConfig(
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        box=args.box,
        seed=args.seed,
        objective=WelfareObjective(args.objective),
        parity=args.parity,
        metric=args.metric,
    )
    result = run_bench(config, descriptor)
    out = _Emitter(args.format == "table")
    out.row("mechanism", descriptor.kind.value)
    out.row("objective", config.objective.value)
    out.row("metric", config.metric.value)
    # the sampling distribution is part of the result, not a hidden default
    out.row("sampling", "uniform", "square_side", config.box, "seed", config.seed)
    out.row("n_range", config.n_range[0], config.n_range[1])
    out.row("parity", config.parity or "any")
    out.row("trials", config.trials)
    out.row("completed", result.completed)
    out.row("skipped_resource_cap", result.skipped)
    out.row("failed_solver", result.failed)
    out.row("unbounded", result.unbounded)
    out.row("max_ratio", result.max_ratio)
    out.row("mean_ratio", result.mean_ratio)
    for n, ratio in result.per_n_max:
        out.row("per_n_max", n, ratio)
    for (lo, hi), count in zip(histogram_edges(), result.histogram):
        out.row("histogram", lo, hi, count)
    out.emit()
    return EXIT_OK


# parser ----------------------------------------------------------------------

def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "table"), default="text",
        help="text lines or tab-separated table rows",
    )


def _add_mechanism_flags(parser: argparse.ArgumentParser) -> None:
    kinds = ", ".join(k.value for k in MechanismKind)
    parser.add_argument("--mechanism", help=f"mechanism kind ({kinds})")
    parser.add_argument(
        "--params",
        help="mechanism parameters: comma-separated row, rows split by ';'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facloc",
        description="facility location mechanisms: run, audit and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mechanism on an instance file")
    p_run.add_argument("--instance", required=True)
    _add_mechanism_flags(p_run)
    _add_format(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="audit anonymity, Pareto and strategy-proofness")
    p_check.add_argument("--instance", required=True)
    _add_mechanism_flags(p_check)
    p_check.add_argument("--grid-resolution", type=float, default=0.25)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--strict", action="store_true",
        help="exit with code 2 when any violation is found",
    )
    _add_format(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_oracle = sub.add_parser("oracle", help="exact optimal welfare for an instance")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--objective", choices=("total", "max"), default="total")
    _add_format(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_scenario = sub.add_parser("scenario", help="run a named scenario, or all of them")
    p_scenario.add_argument("name", help="scenario name, or 'all'")
    _add_format(p_scenario)
    p_scenario.set_defaults(func=_cmd_scenario)

    p_list = sub.add_parser("list-scenarios", help="list registered scenarios")
    _add_format(p_list)
    p_list.set_defaults(func=_cmd_list_scenarios)

    p_bench = sub.add_parser("bench", help="randomized approximation-ratio experiment")
    _add_mechanism_flags(p_bench)
    p_bench.add_argument("--objective", choices=("total", "max"), default="total")
    p_bench.add_argument("--metric", choices=("euclidean", "manhattan"), default="euclidean")
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--n-min", type=int, default=3)
    p_bench.add_argument("--n-max", type=int, default=9)
    p_bench.add_argument("--box", type=float, default=100.0)
    p_bench.add_argument("--parity", choices=("odd", "even"))
    _add_format(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into validation (1)
        # and keep 2 reserved for found violations
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.func(args)
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
