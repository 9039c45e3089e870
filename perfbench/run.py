"""facloc benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports facloc from `src/` there.
With `--trace 0` it runs the workload untraced in one worker process and
reports the end-to-end metrics named in BENCHMARK.json; set-up is the
median over that worker and ten more that only set up, five started
before it and five after, each a fresh interpreter.  With `--trace 1` the
worker runs every op twice in a row, untraced and traced, and reports the
per-layer metrics and the tracing overhead.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 11
# the whole run must end within 180 s
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker, return (seconds until it printed "ready", rest of its
    standard output).  The worker is always waited for."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker {args} passed the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    return ready, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "facloc" / "__init__.py").is_file():
        print(f"error: no facloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    # half the extra set-ups run before the measuring worker and half after,
    # so that their median spans the run and not one moment of it
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = [spawn([*common, "--mode", "setup"], deadline)[0] for _ in range(extra // 2)]
        ready, rest = spawn([*common, "--mode", "measure", "--trace", str(args.trace)], deadline)
        setups.append(ready)
        setups += [spawn([*common, "--mode", "setup"], deadline)[0]
                   for _ in range(extra - extra // 2)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measured = json.loads(rest.strip().splitlines()[-1])
    values = dict(measured["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"info": measured["info"]}))
    print(json.dumps({
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
