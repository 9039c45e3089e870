"""Randomized approximation-ratio experiments.

Profiles are sampled uniformly in an axis-aligned square.  Each trial owns
an RNG derived from (seed, trial index), so trials are independent of
evaluation order and the whole run is reproducible from the config alone.
Instances the exact oracle refuses are skipped and counted, and trials
whose numeric solver gives up are counted as failed; neither is silently
resampled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .geometry import ConvergenceError, Metric
from .mechanisms import AgentProfile, FacilitySpec, MechanismDescriptor
from .welfare import OracleCapError, WelfareObjective, approximation_ratio

# fixed ratio histogram: ten bins over [1, 2] plus one overflow bucket
HISTOGRAM_LOW = 1.0
HISTOGRAM_HIGH = 2.0
HISTOGRAM_BINS = 10

_PARITIES = (None, "odd", "even")


@dataclass(frozen=True)
class BenchConfig:
    trials: int
    n_range: tuple[int, int]
    box: float = 100.0
    seed: int = 0
    objective: WelfareObjective = WelfareObjective.TOTAL
    parity: str | None = None
    metric: Metric = Metric.EUCLIDEAN

    def __post_init__(self):
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "objective", WelfareObjective(self.objective))
        object.__setattr__(self, "metric", Metric(self.metric))
        lo, hi = self.n_range
        object.__setattr__(self, "n_range", (int(lo), int(hi)))
        object.__setattr__(self, "box", float(self.box))
        object.__setattr__(self, "seed", int(self.seed))
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        lo, hi = self.n_range
        if lo < 1 or hi < lo:
            raise ValueError(f"n_range must be a nonempty interval of sizes >= 1, got [{lo}, {hi}]")
        if not math.isfinite(self.box) or self.box <= 0:
            raise ValueError(f"box side must be positive and finite, got {self.box}")
        if self.parity not in _PARITIES:
            raise ValueError(f"parity must be odd, even or omitted, got {self.parity!r}")
        if not self.admissible_sizes():
            raise ValueError(f"no {self.parity} agent count in [{lo}, {hi}]")

    def admissible_sizes(self) -> list[int]:
        """Agent counts the sampler may draw: the range filtered by parity."""
        lo, hi = self.n_range
        sizes = range(lo, hi + 1)
        if self.parity == "odd":
            return [n for n in sizes if n % 2 == 1]
        if self.parity == "even":
            return [n for n in sizes if n % 2 == 0]
        return list(sizes)


@dataclass(frozen=True)
class BenchResult:
    config: BenchConfig
    completed: int
    skipped: int
    unbounded: int
    max_ratio: float
    mean_ratio: float
    histogram: tuple[int, ...]
    per_n_max: tuple[tuple[int, float], ...]
    failed: int = 0

    def __post_init__(self):
        if self.completed + self.skipped + self.failed != self.config.trials:
            raise ValueError("completed + skipped + failed must account for every trial")


def histogram_edges() -> list[tuple[float, float]]:
    """(low, high) per bin; the last bin's high edge is +inf."""
    width = (HISTOGRAM_HIGH - HISTOGRAM_LOW) / HISTOGRAM_BINS
    edges = [
        (HISTOGRAM_LOW + i * width, HISTOGRAM_LOW + (i + 1) * width)
        for i in range(HISTOGRAM_BINS)
    ]
    edges.append((HISTOGRAM_HIGH, math.inf))
    return edges


def _bin_index(ratio: float) -> int:
    if math.isinf(ratio) or ratio >= HISTOGRAM_HIGH:
        return HISTOGRAM_BINS
    width = (HISTOGRAM_HIGH - HISTOGRAM_LOW) / HISTOGRAM_BINS
    # ratios a rounding hair under 1 land in the first bin
    return max(0, int((ratio - HISTOGRAM_LOW) / width))


def _trial_rng(seed: int, index: int) -> random.Random:
    # string seeds hash through sha512, stable across platforms and runs
    return random.Random(f"{seed}:{index}")


def sample_profile(config: BenchConfig, index: int) -> AgentProfile:
    """The profile trial `index` evaluates; pure function of config.  The
    config checked that its box is finite and its metric a Metric, and
    uniform draws over that box are finite floats, so the profile is built
    without validating them again.  A coordinate is side * rng.random(),
    which is what rng.uniform(0.0, side) computes, 0.0 + (side - 0.0) * r,
    bit for bit: side * r is never -0.0."""
    rng = _trial_rng(config.seed, index)
    n = rng.choice(config.admissible_sizes())
    side = config.box
    draw = rng.random
    agents = tuple((side * draw(), side * draw()) for _ in range(n))
    return AgentProfile._trusted(agents, config.metric)


def run_bench(config: BenchConfig, descriptor: MechanismDescriptor) -> BenchResult:
    """Sample `config.trials` profiles, run the mechanism on each, and
    aggregate the welfare ratios against the exact oracle.

    The mean is taken over finite ratios; trials with an unbounded ratio
    (positive cost against a zero-cost optimum) are counted separately and
    push the max to infinity.
    """
    spec = FacilitySpec(descriptor.implied_facilities or 1)
    ratios: list[float] = []
    skipped = 0
    failed = 0
    unbounded = 0
    counts = [0] * (HISTOGRAM_BINS + 1)
    per_n: dict[int, float] = {}
    for index in range(config.trials):
        profile = sample_profile(config, index)
        try:
            report = approximation_ratio(descriptor, profile, spec, config.objective)
        except OracleCapError:
            skipped += 1
            continue
        except ConvergenceError:
            failed += 1
            continue
        ratio = report.ratio
        ratios.append(ratio)
        counts[_bin_index(ratio)] += 1
        if math.isinf(ratio):
            unbounded += 1
        best = per_n.get(profile.n)
        if best is None or ratio > best:
            per_n[profile.n] = ratio
    finite = [r for r in ratios if math.isfinite(r)]
    max_ratio = max(ratios) if ratios else math.nan
    mean_ratio = sum(finite) / len(finite) if finite else math.nan
    return BenchResult(
        config=config,
        completed=len(ratios),
        skipped=skipped,
        unbounded=unbounded,
        max_ratio=max_ratio,
        mean_ratio=mean_ratio,
        histogram=tuple(counts),
        per_n_max=tuple(sorted(per_n.items())),
        failed=failed,
    )
