"""Run every workload k times on seeds 1..k and show how steady the
end-to-end metrics are against their bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py [--repeats 10] [--out FILE]

Runs are interleaved, seed by seed over the workloads, so that each
workload's runs span the command's whole run time and the spread takes in
the drift of the machine's speed over that time.  For every metric,
`setup_s` too, it prints the median over the runs, the first and third
quartile (statistics.quantiles, n=4), the spread (q3 - q1) / median, the
metric's bound, and whether the spread is within the bound and within a
third of it.  It also prints the failed shares per workload.  All runs are
written to `--out` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    *_, info, result = proc.stdout.strip().splitlines()
    return {**json.loads(info), **json.loads(result)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out", default=str(HERE / "out" / "steadiness.json"))
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(1, args.repeats + 1):
        for workload in workloads:
            result = run_once(workload, seed, spec["run_seconds"])
            runs[workload].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {values} failed {result['failed']}"
                  f"/{result['attempted']}", flush=True)

    print(f"\n{'workload':20} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  within  within/3")
    for workload, results in runs.items():
        shares = {(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            print(f"{workload:20} {name:12} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound:6.3f}  {spread <= bound!s:6}  {spread <= bound / 3!s}")
        print(f"{workload:20} failed/attempted {sorted(shares)} correct {correct}")
    out = Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
