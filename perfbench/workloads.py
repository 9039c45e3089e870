"""Seeded inputs and operations for the three benchmark workloads.

A workload is a fixed round of operations built from the seed.  Every run
repeats whole rounds, so the share of failed operations is the same in
every run of a seed.  An operation is a zero-argument callable that makes
the same public calls a user of `facloc bench`, the exact oracle or
`facloc check` makes.  Calls go through module attributes (`welfare.optimal_welfare`, not
a local name) so that the traced run sees them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from facloc import axioms, bench, mechanisms, welfare
from facloc.geometry import Metric

EUCLIDEAN, MANHATTAN = Metric.EUCLIDEAN, Metric.MANHATTAN
TOTAL, MAX = welfare.WelfareObjective.TOTAL, welfare.WelfareObjective.MAX
ONE = mechanisms.FacilitySpec(1)
TWO = mechanisms.FacilitySpec(2)

# Four nearly collinear agents on which the Weiszfeld loop in
# geometry.geometric_median hits its iteration cap.  They are agents 1, 6,
# 2 and 4 of trial 47 of `facloc bench --mechanism percentile_multi_d
# --params "0,0;1,1" --trials 200 --n-min 4 --n-max 8`.
PINNED_COLLINEAR = (
    (6.6969393774998665, 93.71175876663045),
    (7.96986767570762, 90.48885065063797),
    (82.22676293130657, 48.51915259275176),
    (93.43229218160556, 41.55471356078603),
)
# The whole six-agent profile of that trial; its two-facility oracle fails
# on the four-point subset above.
PINNED_TRIAL_47 = (
    (6.6969393774998665, 93.71175876663045),
    (82.22676293130657, 48.51915259275176),
    (78.04732517174806, 22.1942718788248),
    (93.43229218160556, 41.55471356078603),
    (46.48575034126744, 28.532001392131644),
    (7.96986767570762, 90.48885065063797),
)

MECHANISMS = {
    "multi_dim_median": mechanisms.MechanismDescriptor.median(),
    "percentile_multi_d": mechanisms.MechanismDescriptor.percentile_plane(((0.25, 0.75),)),
    "one_centre": mechanisms.MechanismDescriptor.one_centre(),
    "coordinate_max": mechanisms.MechanismDescriptor.coordinate_extreme("max"),
    "coordinate_min": mechanisms.MechanismDescriptor.coordinate_extreme("min"),
}

# the budget of the rectilinear fuzzing acceptance test
AUDIT_BUDGET = axioms.SearchBudget(grid_resolution=0.1, bounding_box_pad=0.5)

# Each round takes about 20 s, the run length, on the reference machine
# (see README.md): a run is then one round of distinct inputs, and the
# more distinct inputs a run has, the less its figures depend on the seed.

# ratio_sweep: trials per config and round.  A Euclidean-total trial costs
# about five times another, and three of the twelve configs are Euclidean
# total, so these counts split a round's time about in half between
# geometric-median trials and the rest.
RATIO_TRIALS_EUCLIDEAN_TOTAL = 3000
RATIO_TRIALS_OTHER = 5000
RATIO_N_RANGE = (3, 9)

# two_facility_oracle: sets of profiles (one per n in ORACLE_SIZES) per
# class and round, sized so that each class takes about a quarter of it
ORACLE_SIZES = (6, 7, 8, 9, 10)
ORACLE_SETS = {
    (EUCLIDEAN, TOTAL): 3,
    (EUCLIDEAN, MAX): 39,
    (MANHATTAN, TOTAL): 90,
    (MANHATTAN, MAX): 90,
}

# axiom_audit: profiles per (mechanism, metric, n) and round
AUDIT_SIZES = (2, 3, 4)
AUDIT_PROFILES = 16


@dataclass(slots=True)
class Op:
    """One unit of user-visible work and what its checks need to know.

    `pinned` marks an operation that fails today on inputs that do not
    depend on the seed; it is kept in every round.
    """

    cls: str
    run: Callable[[], Any]
    case: dict
    pinned: bool = False


@dataclass
class Workload:
    """A round of ops: a sized iterable that gives the same ops in the same
    order each time it is iterated."""

    name: str
    ops: Iterable[Op]


def _ratio_op(cls: str, case: dict, config: bench.BenchConfig, index: int) -> Op:
    descriptor = MECHANISMS[case["mechanism"]]

    def run():
        profile = bench.sample_profile(config, index)
        report = welfare.approximation_ratio(descriptor, profile, ONE, config.objective)
        return profile, report

    return Op(cls, run, case)


def _pinned_ratio_op() -> Op:
    profile = mechanisms.AgentProfile(PINNED_COLLINEAR, EUCLIDEAN)
    descriptor = MECHANISMS["multi_dim_median"]

    def run():
        return profile, welfare.approximation_ratio(descriptor, profile, ONE, TOTAL)

    case = {"mechanism": "multi_dim_median", "metric": "euclidean", "objective": "total"}
    return Op("pinned-collinear", run, case, pinned=True)


class RatioSweep:
    """The ratio_sweep round.  Its 54 001 ops are made one at a time as the
    round runs, so that the process's peak resident set is facloc's and not
    the benchmark's.  Configs are interleaved, so each stretch of a round
    mixes every class."""

    def __init__(self, seed: int):
        self.configs = []  # (class, case, config, trials)
        for k, (mechanism, metric, objective) in enumerate(
            itertools.product(
                ("multi_dim_median", "percentile_multi_d", "one_centre"),
                (EUCLIDEAN, MANHATTAN),
                (TOTAL, MAX),
            )
        ):
            config = bench.BenchConfig(
                trials=1, n_range=RATIO_N_RANGE, seed=1000 * seed + k,
                objective=objective, metric=metric,
            )
            trials = (
                RATIO_TRIALS_EUCLIDEAN_TOTAL
                if (metric, objective) == (EUCLIDEAN, TOTAL)
                else RATIO_TRIALS_OTHER
            )
            case = {"mechanism": mechanism, "metric": metric.value,
                    "objective": objective.value}
            self.configs.append(
                (f"{mechanism}/{metric.value}/{objective.value}", case, config, trials)
            )
        self.pinned_at = len(self) // 2

    def __len__(self) -> int:
        return 1 + sum(trials for *_, trials in self.configs)

    def __iter__(self) -> Iterator[Op]:
        k = 0
        for i in range(RATIO_TRIALS_OTHER):
            for cls, case, config, trials in self.configs:
                if i < trials:
                    if k == self.pinned_at:
                        yield _pinned_ratio_op()
                    yield _ratio_op(cls, case, config, i)
                    k += 1


def _random_profile(rng: random.Random, n: int, metric: Metric, side: float):
    agents = tuple((rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n))
    return mechanisms.AgentProfile(agents, metric)


def _oracle_op(cls: str, profile, objective, pinned: bool = False) -> Op:
    def run():
        return profile, welfare.optimal_welfare(profile, TWO, objective)

    case = {"metric": profile.metric.value, "objective": objective.value}
    return Op(cls, run, case, pinned)


def build_two_facility_oracle(seed: int) -> list[Op]:
    rngs = {}
    for (metric, objective) in ORACLE_SETS:
        for n in ORACLE_SIZES:
            cls = f"{metric.value}/{objective.value}/n{n}"
            rngs[metric, objective, n] = cls, random.Random(f"two_facility_oracle:{seed}:{cls}")
    ops = []
    # cheapest classes first, so the warm-up op is short
    for k in range(max(ORACLE_SETS.values())):
        for (metric, objective), sets in reversed(ORACLE_SETS.items()):
            if k < sets:
                for n in ORACLE_SIZES:
                    cls, rng = rngs[metric, objective, n]
                    profile = _random_profile(rng, n, metric, 100.0)
                    ops.append(_oracle_op(cls, profile, objective))
    profile = mechanisms.AgentProfile(PINNED_TRIAL_47, EUCLIDEAN)
    ops.insert(len(ops) // 2, _oracle_op("pinned-trial-47", profile, TOTAL, True))
    return ops


def _audit_op(cls: str, mechanism: str, profile) -> Op:
    descriptor = MECHANISMS[mechanism]

    def run():
        honest = mechanisms.run_mechanism(descriptor, profile, ONE)
        return (
            profile,
            honest,
            axioms.check_anonymity(descriptor, profile, ONE),
            axioms.check_pareto(profile, honest, AUDIT_BUDGET),
            axioms.check_strategy_proofness(descriptor, profile, ONE, AUDIT_BUDGET),
        )

    case = {"mechanism": mechanism, "metric": profile.metric.value}
    return Op(cls, run, case)


def build_axiom_audit(seed: int) -> list[Op]:
    ops = []
    for k in range(AUDIT_PROFILES):
        for n in AUDIT_SIZES:
            for metric in (MANHATTAN, EUCLIDEAN):
                for mechanism in MECHANISMS:
                    cls = f"{mechanism}/{metric.value}/n{n}"
                    rng = random.Random(f"axiom_audit:{seed}:{cls}:{k}")
                    ops.append(_audit_op(cls, mechanism, _random_profile(rng, n, metric, 1.0)))
    return ops


BUILDERS = {
    "ratio_sweep": RatioSweep,
    "two_facility_oracle": build_two_facility_oracle,
    "axiom_audit": build_axiom_audit,
}


def build(name: str, seed: int) -> Workload:
    """The round of ops a workload repeats, built from the seed."""
    return Workload(name, BUILDERS[name](seed))
