"""One workload in one process: set up, say "ready", then optionally time it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode measure \
        --seconds S --trace 0|1

Set-up is: interpreter start, `import facloc`, building the round of ops
from the seed, and one untimed warm-up op (the first of the round).  The
parent times set-up up to the "ready" line.  In measure mode the worker
then runs whole rounds for about `--seconds` of measured op time, checks
every answer of the first round outside the timed region, and prints one
JSON line with its counts and metrics.  It uses a single thread.  With
`--trace 1` every op runs twice in a row, untraced and traced, and the
metrics are the per-layer ones.

Every op that raises ConvergenceError counts as failed, pinned or seeded.
A round is the same for a given seed, so the failed share is the same in
every run of that seed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import facloc  # noqa: E402
from facloc.geometry import ConvergenceError  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import Gauge  # noqa: E402
from tracing import Tracer  # noqa: E402

# two-facility instances whose optimum is also bounded by a grid search:
# the first n = 6 instance of each class
GRID_CHECKED_N = 6


class Rounds:
    """Whole rounds of a workload's ops, timed one op at a time.

    The answers of the first round are checked as they come, between two
    timed ops, so no answer has to be kept; later rounds repeat the same
    deterministic ops.  With a tracer, each op runs twice in a row, once
    untraced and once traced (in alternating order), so that the tracing
    overhead is measured on the same ops at the same time.  Between ops
    the gauge samples the machine's speed (see speed.py).
    """

    def __init__(self, workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.starts = array("d")  # untraced, perf_counter
        self.durations = array("d")  # untraced
        self.gauge = Gauge()
        self.traced_durations = array("d")
        self.failed_at: list[int] = []  # indices into durations
        self.seeded_failed: list[str] = []  # classes of failed seeded ops, first round
        self.rounds = 0
        self.errors: list[str] = []
        self._grid_checked: set[str] = set()

    def _timed(self, run) -> tuple[object, bool, float, float]:
        self.gauge.sample_if_due()
        t0 = time.perf_counter()
        try:
            result = run()
            failed = False
        except ConvergenceError as exc:
            result = exc
            failed = True
        return result, failed, t0, time.perf_counter() - t0

    def _traced(self, op) -> tuple[object, float]:
        self.tracer.install()
        try:
            result, _, _, duration = self._timed(lambda: self.tracer.run_op(op.run))
        finally:
            self.tracer.uninstall()
        return result, duration

    def run(self, seconds: float) -> "Rounds":
        """Run whole rounds, at least one, and stop at the round end
        nearest to `seconds` of op time at the reference speed, so that
        the number of rounds does not follow the machine's speed."""
        measured = 0.0
        while True:
            first = self.rounds == 0
            begin = len(self.durations)
            for k, op in enumerate(self.workload.ops):
                if self.tracer is not None and k % 2:
                    traced, traced_time = self._traced(op)
                result, failed, start, duration = self._timed(op.run)
                if self.tracer is not None and not k % 2:
                    traced, traced_time = self._traced(op)
                if failed:
                    self.failed_at.append(len(self.durations))
                self.starts.append(start)
                self.durations.append(duration)
                if self.tracer is not None:
                    self.traced_durations.append(traced_time)
                    same = traced == result or (failed and isinstance(traced, ConvergenceError))
                    if first and not same:
                        self.errors.append(f"{op.cls}: the traced op gave another answer")
                if first:
                    if failed and not op.pinned:
                        self.seeded_failed.append(op.cls)
                    elif not failed:
                        self.check(op, result)
            self.rounds += 1
            scales = self.gauge.scales(self.starts[begin:])
            round_time = sum(map(float.__mul__, self.durations[begin:], scales))
            if self.tracer is not None:
                round_time += sum(map(float.__mul__, self.traced_durations[begin:], scales))
            measured += round_time
            if measured >= seconds - round_time / 2:
                return self

    def check(self, op, result) -> None:
        name = self.workload.name
        if name == "ratio_sweep":
            profile, report = result
            found = checks.check_ratio(op.case, profile.agents, report)
        elif name == "two_facility_oracle":
            profile, (value, solution) = result
            found = checks.check_two_facility(op.case, profile.agents, value, solution)
            kind = op.cls.rsplit("/", 1)[0]
            if profile.n == GRID_CHECKED_N and kind not in self._grid_checked:
                self._grid_checked.add(kind)
                found += checks.check_two_facility_grid(op.case, profile.agents, value)
        else:
            profile, honest, anonymity, pareto, manipulation = result
            found = checks.check_audit(
                op.case, profile.agents, honest, anonymity, pareto, manipulation,
                facloc.verify_certificate,
            )
        self.errors.extend(f"{op.cls} {profile.agents!r}: {e}" for e in found)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failures(self) -> int:
        return len(self.failed_at)

    def at_reference_speed(self) -> array:
        """The untraced op times scaled to the reference speed."""
        return array("d", map(float.__mul__, self.durations, self.gauge.scales(self.starts)))

    def ops_per_s(self, durations) -> float:
        return (self.attempted - self.failures) / sum(durations)

    def latency_ms(self, durations, q: float) -> float:
        """Nearest-rank percentile; a failed op ranks as slowest."""
        ranked = array("d", durations)
        for k in self.failed_at:
            ranked[k] = math.inf
        ranked = sorted(ranked)
        return ranked[max(0, math.ceil(q * len(ranked)) - 1)] * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(facloc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported facloc from {facloc.__file__}, not this checkout", file=sys.stderr)
        return 1

    workload = workloads.build(args.workload, args.seed)
    try:
        next(iter(workload.ops)).run()
    except ConvergenceError:
        pass  # the op fails again, and is counted, in the measured rounds
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if args.trace else None
    measured = Rounds(workload, tracer).run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"workload": args.workload, "seed": args.seed, "round_ops": len(workload.ops),
            "rounds": measured.rounds, "seeded_failed": measured.seeded_failed}
    if tracer is not None:
        metrics = tracer.metrics(measured.attempted)
        traced_ops_per_s = measured.ops_per_s(measured.traced_durations)
        untraced_ops_per_s = measured.ops_per_s(measured.durations)
        metrics["trace.overhead_pct"] = (1 - traced_ops_per_s / untraced_ops_per_s) * 100
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(trace_file, info)
        info["trace_file"] = str(trace_file.relative_to(ROOT))
        info["spans"] = len(tracer.start)
    else:
        scaled, raw = measured.at_reference_speed(), measured.durations
        metrics = {
            "ops_per_s": measured.ops_per_s(scaled),
            "op_p50_ms": measured.latency_ms(scaled, 0.5),
            "op_p90_ms": measured.latency_ms(scaled, 0.9),
            "peak_rss_mb": peak_rss_mb,
        }
        info["reference_loop_us"] = measured.gauge.median_s() * 1e6
        info["as_measured"] = {
            "ops_per_s": measured.ops_per_s(raw),
            "op_p50_ms": measured.latency_ms(raw, 0.5),
            "op_p90_ms": measured.latency_ms(raw, 0.9),
        }
    errors = measured.errors
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"info": info, "correct": not errors, "attempted": measured.attempted,
                      "failed": measured.failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
