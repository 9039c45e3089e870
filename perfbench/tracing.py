"""Spans around the public calls into facloc's layers, kept in memory.

`Tracer.install` replaces each traced function, wherever a facloc module
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span, the op it belongs to, and whether it raised.  Nothing
inside the package changes; `uninstall` puts the originals back.  Both
are a few dozen attribute writes, so they can bracket a single op.  Spans
are stored in flat arrays so a long traced run stays small.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# (layer, attribute path) of every traced call.  AgentProfile's public
# constructors are traced so that profile building shows as mechanisms
# time when the refuters call it.
TRACED = (
    ("bench", "sample_profile"),
    ("mechanisms", "run_mechanism"),
    ("mechanisms", "AgentProfile.with_report"),
    ("mechanisms", "AgentProfile.permuted"),
    ("welfare", "approximation_ratio"),
    ("welfare", "optimal_welfare"),
    ("welfare", "evaluate"),
    ("geometry", "geometric_median"),
    ("geometry", "smallest_enclosing_circle"),
    ("geometry", "coordinate_median"),
    ("geometry", "manhattan_one_center"),
    ("axioms", "candidate_points"),
    ("axioms", "check_anonymity"),
    ("axioms", "check_pareto"),
    ("axioms", "check_strategy_proofness"),
)
LAYERS = ("mechanisms", "welfare", "geometry", "axioms")
KERNELS = (
    "geometry.geometric_median",
    "geometry.smallest_enclosing_circle",
    "geometry.coordinate_median",
    "geometry.manhattan_one_center",
)
OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.name_span = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.points = 0  # candidate points returned by axioms.candidate_points
        self._stack = [-1]
        self._op = -1
        self._patches = self._find_patches()

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_span.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0)
        self.end.append(0)
        self.failed.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.failed[idx] = failed
        self._stack.pop()

    def run_op(self, fn):
        """Run one benchmark op under a root span."""
        self._op = len(self.start)
        idx = self._open(0)
        try:
            result = fn()
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)
        return result

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counts_points = name == "axioms.candidate_points"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if counts_points:
                self.points += len(result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every reference a
        facloc module holds to a traced function."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "facloc"]
        patches = []
        for layer, path in TRACED:
            owner = sys.modules[f"facloc.{layer}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{path}", original)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in vars(holder).items():
                    if value is original:
                        patches.append((holder, key, original, wrapper))
        return patches

    def install(self) -> None:
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._patches:
            setattr(holder, key, original)

    # -- reporting ---------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures over the recorded spans, per attempted op."""
        names = self.names
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        child_ns = array("q", bytes(8 * len(self.start)))
        kernel_in_solve = 0  # kernel spans whose parent is an optimal_welfare span
        solve = names.index("welfare.optimal_welfare")
        kernels = {names.index(k) for k in KERNELS}
        for idx in range(len(self.start)):
            name_id = self.name_span[idx]
            name = names[name_id]
            duration = self.end[idx] - self.start[idx]
            calls[name] += 1
            busy[name] += duration
            failed[name] += self.failed[idx]
            parent = self.parent[idx]
            if parent >= 0:
                child_ns[parent] += duration
                if name_id in kernels and self.name_span[parent] == solve:
                    kernel_in_solve += 1
        self_ns: dict[str, int] = defaultdict(int)
        for idx in range(len(self.start)):
            layer = names[self.name_span[idx]].split(".")[0]
            self_ns[layer] += self.end[idx] - self.start[idx] - child_ns[idx]

        def share(num, den):
            return num / den if den else 0.0

        def us_per_call(name):
            return share(busy[name], calls[name]) / 1e3

        def ms_per_call(name):
            return share(busy[name], calls[name]) / 1e6

        gm, solve_name = "geometry.geometric_median", "welfare.optimal_welfare"
        out = {
            f"{gm}.calls_per_op": calls[gm] / ops,
            f"{gm}.us_per_call": us_per_call(gm),
            f"{gm}.failed": failed[gm],
        }
        for name in KERNELS[1:]:
            out[f"{name}.us_per_call"] = us_per_call(name)
        out[f"{solve_name}.ms_per_call"] = ms_per_call(solve_name)
        out["welfare.kernel_calls_per_solve"] = share(kernel_in_solve, calls[solve_name])
        out["welfare.approximation_ratio.ms_per_call"] = ms_per_call("welfare.approximation_ratio")
        out["welfare.evaluate.us_per_call"] = us_per_call("welfare.evaluate")
        out["bench.sample_profile.us_per_call"] = us_per_call("bench.sample_profile")
        out["mechanisms.run_mechanism.calls_per_op"] = calls["mechanisms.run_mechanism"] / ops
        out["mechanisms.run_mechanism.us_per_call"] = us_per_call("mechanisms.run_mechanism")
        out["axioms.candidate_points.points_per_call"] = share(
            self.points, calls["axioms.candidate_points"]
        )
        out["axioms.candidate_points.ms_per_call"] = ms_per_call("axioms.candidate_points")
        for name in ("check_anonymity", "check_pareto", "check_strategy_proofness"):
            out[f"axioms.{name}.ms_per_call"] = ms_per_call(f"axioms.{name}")
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = self_ns[layer] / ops / 1e6
        return out

    def dump(self, path, header: dict) -> None:
        """Write every span as columnar JSON, gzip-compressed.  Columns are
        written in slices so a long trace is never copied whole."""
        columns = {
            "name": self.name_span,
            "parent": self.parent,
            "op": self.op,
            "start_ns": self.start,
            "end_ns": self.end,
            "failed": self.failed,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            head = json.dumps({**header, "names": self.names}, separators=(",", ":"))
            fh.write(head[:-1] + ',"spans":{')
            for k, (key, column) in enumerate(columns.items()):
                fh.write(f'{"," if k else ""}"{key}":[')
                for lo in range(0, len(column), 65536):
                    fh.write(("," if lo else "") + ",".join(map(str, column[lo:lo + 65536])))
                fh.write("]")
            fh.write("}}")
