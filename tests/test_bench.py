import math
import random

import pytest

from facloc.bench import (
    HISTOGRAM_BINS,
    BenchConfig,
    BenchResult,
    _bin_index,
    histogram_edges,
    run_bench,
    sample_profile,
)
from facloc import welfare
from facloc.geometry import ConvergenceError, Metric, geometric_median
from facloc.mechanisms import AgentProfile, MechanismDescriptor
from facloc.welfare import WelfareObjective

MEDIAN = MechanismDescriptor.median()


def small_config(**overrides):
    base = dict(trials=20, n_range=(3, 7), box=10.0, seed=1)
    base.update(overrides)
    return BenchConfig(**base)


class TestConfigValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            small_config(trials=0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="n_range"):
            small_config(n_range=(5, 3))

    def test_zero_agent_range_rejected(self):
        with pytest.raises(ValueError, match="n_range"):
            small_config(n_range=(0, 2))

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError, match="box"):
            small_config(box=0.0)
        with pytest.raises(ValueError, match="box"):
            small_config(box=math.inf)

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError, match="parity"):
            small_config(parity="prime")

    def test_unsatisfiable_parity_rejected(self):
        with pytest.raises(ValueError, match="no odd"):
            small_config(n_range=(4, 4), parity="odd")

    def test_admissible_sizes(self):
        assert small_config(n_range=(3, 9), parity="odd").admissible_sizes() == [3, 5, 7, 9]
        assert small_config(n_range=(3, 9), parity="even").admissible_sizes() == [4, 6, 8]
        assert small_config(n_range=(3, 5)).admissible_sizes() == [3, 4, 5]

    def test_objective_and_metric_coerced_from_strings(self):
        cfg = small_config(objective="max", metric="manhattan")
        assert cfg.objective is WelfareObjective.MAX
        assert cfg.metric is Metric.MANHATTAN


class TestSampling:
    def test_sampling_is_a_pure_function_of_config_and_index(self):
        cfg = small_config()
        assert sample_profile(cfg, 3) == sample_profile(cfg, 3)
        assert sample_profile(cfg, 3) != sample_profile(cfg, 4)

    def test_points_live_in_the_box(self):
        cfg = small_config(box=5.0)
        for index in range(10):
            prof = sample_profile(cfg, index)
            lo, hi = cfg.n_range
            assert lo <= prof.n <= hi
            for agent in prof.agents:
                assert all(0.0 <= c <= 5.0 for c in agent)

    def test_parity_filter_never_draws_even_n(self):
        cfg = small_config(n_range=(3, 8), parity="odd")
        sizes = {sample_profile(cfg, i).n for i in range(60)}
        assert sizes <= {3, 5, 7}
        assert len(sizes) > 1

    @pytest.mark.parametrize("parity", [None, "odd", "even"])
    @pytest.mark.parametrize("box", [1.0, 100.0, 0.3, 1e-300, 1e300])
    def test_draws_are_uniform_draws_from_a_fresh_trial_rng(self, box, parity):
        cfg = small_config(box=box, parity=parity, seed=7)
        for index in range(40):
            rng = random.Random(f"{cfg.seed}:{index}")
            n = rng.choice(cfg.admissible_sizes())
            want = tuple((rng.uniform(0.0, box), rng.uniform(0.0, box)) for _ in range(n))
            assert repr(sample_profile(cfg, index).agents) == repr(want)

    def test_metric_is_attached(self):
        cfg = small_config(metric=Metric.MANHATTAN)
        assert sample_profile(cfg, 0).metric is Metric.MANHATTAN

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"metric": "manhattan", "parity": "even"},
            {"box": 5e-324, "n_range": (1, 3)},
            {"box": 1e-300, "seed": 7},
            {"box": 1.7976931348623157e308, "metric": Metric.MANHATTAN},
            {"box": 1, "n_range": (9, 9), "objective": "max"},
        ],
    )
    def test_profile_is_the_one_the_constructor_would_build(self, overrides):
        cfg = small_config(**overrides)
        for index in range(40):
            prof = sample_profile(cfg, index)
            validated = AgentProfile(prof.agents, cfg.metric)
            assert prof == validated and repr(prof) == repr(validated)
            assert prof.metric is validated.metric
            assert type(prof.agents) is tuple
            assert all(type(a) is tuple and all(type(c) is float for c in a) for a in prof.agents)


class TestHistogram:
    def test_edges_shape(self):
        edges = histogram_edges()
        assert len(edges) == HISTOGRAM_BINS + 1
        assert edges[0] == (1.0, 1.1)
        assert edges[-1] == (2.0, math.inf)

    def test_bin_index_boundaries(self):
        assert _bin_index(1.0) == 0
        assert _bin_index(1.0 - 1e-12) == 0
        assert _bin_index(1.05) == 0
        assert _bin_index(1.95) == 9
        assert _bin_index(2.0) == HISTOGRAM_BINS
        assert _bin_index(math.inf) == HISTOGRAM_BINS


class TestRunBench:
    def test_deterministic_across_runs(self):
        cfg = small_config(trials=30, objective=WelfareObjective.MAX)
        assert run_bench(cfg, MEDIAN) == run_bench(cfg, MEDIAN)

    def test_accounting_adds_up(self):
        cfg = small_config(trials=25)
        result = run_bench(cfg, MEDIAN)
        assert result.completed == 25
        assert result.skipped == 0
        assert sum(result.histogram) == result.completed
        assert result.max_ratio >= result.mean_ratio >= 1.0 - 1e-12

    def test_per_n_respects_parity(self):
        cfg = small_config(trials=40, n_range=(3, 6), parity="odd")
        result = run_bench(cfg, MEDIAN)
        assert result.per_n_max
        assert all(n % 2 == 1 for n, _ in result.per_n_max)
        assert all(r >= 1.0 - 1e-12 for _, r in result.per_n_max)

    def test_oracle_cap_skips_and_counts(self):
        # two Manhattan facilities push the oracle to the partition
        # enumerator, which refuses more than ten agents; every trial here
        # has eleven or twelve
        pair = MechanismDescriptor.percentile_plane(((0.0, 0.0), (1.0, 1.0)))
        cfg = small_config(trials=3, n_range=(11, 12), metric=Metric.MANHATTAN)
        result = run_bench(cfg, pair)
        assert result.completed == 0
        assert result.skipped == 3
        assert math.isnan(result.max_ratio)
        assert math.isnan(result.mean_ratio)

    def test_line_split_cap_skips_and_counts(self):
        # two Euclidean facilities in the plane search line splits, which
        # take up to thirty agents: eleven and twelve complete, 31 is skipped
        pair = MechanismDescriptor.percentile_plane(((0.0, 0.0), (1.0, 1.0)))
        result = run_bench(small_config(trials=3, n_range=(11, 12)), pair)
        assert (result.completed, result.skipped) == (3, 0)
        assert result.max_ratio >= 1.0 - 1e-9
        result = run_bench(small_config(trials=2, n_range=(31, 31)), pair)
        assert (result.completed, result.skipped) == (0, 2)

    def test_manhattan_total_median_is_exactly_optimal(self):
        cfg = small_config(
            trials=60,
            n_range=(1, 7),
            metric=Metric.MANHATTAN,
            objective=WelfareObjective.TOTAL,
        )
        result = run_bench(cfg, MEDIAN)
        assert result.completed == 60
        assert result.max_ratio == pytest.approx(1.0, abs=1e-9)

    def test_solver_failures_are_counted_not_raised(self, monkeypatch):
        def kernel(pts, **kwargs):
            if len(pts) == 4:
                raise ConvergenceError("stalled", best=pts[0])
            return geometric_median(pts, **kwargs)

        monkeypatch.setattr(welfare, "_geometric_median", kernel)
        cfg = small_config(trials=30, objective=WelfareObjective.TOTAL)
        fours = sum(1 for i in range(cfg.trials) if sample_profile(cfg, i).n == 4)
        assert 0 < fours < cfg.trials
        result = run_bench(cfg, MEDIAN)
        assert result.failed == fours
        assert result.completed + result.skipped + result.failed == cfg.trials
        assert sum(result.histogram) == result.completed
        assert 4 not in dict(result.per_n_max)

    def test_result_accounting_guard(self):
        cfg = small_config(trials=2)
        with pytest.raises(ValueError, match="every trial"):
            BenchResult(
                config=cfg,
                completed=1,
                skipped=0,
                unbounded=0,
                max_ratio=1.0,
                mean_ratio=1.0,
                histogram=(1,) + (0,) * HISTOGRAM_BINS,
                per_n_max=((3, 1.0),),
            )
