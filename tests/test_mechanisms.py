import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facloc.geometry import Metric, coordinate_median, distance, smallest_enclosing_circle
from facloc.mechanisms import (
    _place,
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    MechanismKind,
    Solution,
    assign_nearest,
    descriptor_from_dict,
    descriptor_to_dict,
    percentile_1d,
    percentile_multi_d,
    profile_from_dict,
    profile_to_dict,
    run_mechanism,
    serial_dictatorship,
    solution_from_dict,
    spec_from_dict,
)


def euclid(*agents):
    return AgentProfile(tuple(agents), Metric.EUCLIDEAN)


class TestProfile:
    def test_with_report_replaces_one_agent(self):
        p = euclid((0.0, 0.0), (3.0, 4.0))
        q = p.with_report(2, (1.0, 1.0))
        assert q.agents == ((0.0, 0.0), (1.0, 1.0))
        assert p.agents[1] == (3.0, 4.0)  # original untouched

    def test_with_report_bounds(self):
        p = euclid((0.0, 0.0), (3.0, 4.0))
        with pytest.raises(ValueError):
            p.with_report(0, (1.0, 1.0))
        with pytest.raises(ValueError):
            p.with_report(3, (1.0, 1.0))
        with pytest.raises(ValueError):
            p.with_report(1, (1.0,))

    def test_permuted(self):
        p = euclid((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        assert p.permuted((3, 1, 2)).agents == ((2.0, 0.0), (0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            p.permuted((1, 1, 2))

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            AgentProfile(())
        with pytest.raises(ValueError):
            AgentProfile(((0.0,), (0.0, 1.0)))


class TestFacilitySpec:
    def test_capacity_feasibility(self):
        spec = FacilitySpec(2, (1, 1))
        spec.require_feasible_for(2)
        with pytest.raises(ValueError):
            spec.require_feasible_for(3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FacilitySpec(0)
        with pytest.raises(ValueError):
            FacilitySpec(2, (1,))
        with pytest.raises(ValueError):
            FacilitySpec(1, (0,))


class TestPercentile1D:
    def test_endpoints_pick_min_and_max(self):
        assert percentile_1d((1.0, 4.0, 9.0), (0.0, 1.0)) == (1.0, 9.0)

    def test_half_is_lower_median(self):
        assert percentile_1d((1.0, 2.0, 3.0, 4.0), (0.5,)) == (2.0,)
        assert percentile_1d((1.0, 2.0, 3.0, 4.0, 5.0), (0.5,)) == (3.0,)

    def test_rank_formula(self):
        xs = tuple(float(i) for i in range(10))
        # 1-based rank 1 + floor(p * 9)
        assert percentile_1d(xs, (0.3,)) == (2.0,)
        assert percentile_1d(xs, (0.9999,)) == (8.0,)

    def test_requires_sorted_input(self):
        with pytest.raises(ValueError):
            percentile_1d((2.0, 1.0), (0.5,))

    def test_rejects_out_of_range_params(self):
        with pytest.raises(ValueError):
            percentile_1d((1.0, 2.0), (1.5,))

    @given(
        xs=st.lists(st.integers(-50, 50), min_size=1, max_size=12),
        p=st.floats(0.0, 1.0),
    )
    def test_output_is_some_report(self, xs, p):
        xs = tuple(sorted(float(x) for x in xs))
        (y,) = percentile_1d(xs, (p,))
        assert y in xs


class TestPercentileMultiD:
    def test_axis_aligned_median(self):
        prof = euclid((0.0, 5.0), (1.0, 3.0), (2.0, 4.0))
        (loc,) = percentile_multi_d(prof, ((0.5, 0.5),))
        assert loc == (1.0, 4.0)

    def test_rotated_axes(self):
        # basis at 45 degrees; agents on the u axis at u = 0, sqrt(2)
        s = 1.0 / math.sqrt(2.0)
        prof = euclid((0.0, 0.0), (1.0, 1.0))
        (loc,) = percentile_multi_d(prof, ((1.0, 0.5),), axes=((s, s), (s, -s)))
        assert loc[0] == pytest.approx(1.0, abs=1e-12)
        assert loc[1] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_orthonormal_axes(self):
        prof = euclid((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            percentile_multi_d(prof, ((0.5, 0.5),), axes=((1.0, 0.0), (1.0, 1.0)))

    def test_rejects_empty_axes(self):
        prof = euclid((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="square basis"):
            percentile_multi_d(prof, ((0.5, 0.5),), axes=())
        with pytest.raises(ValueError, match="square basis"):
            MechanismDescriptor.percentile_plane(((0.5, 0.5),), axes=())
        with pytest.raises(ValueError, match="square basis"):
            descriptor_from_dict(
                {"kind": "percentile_multi_d", "params": [[0.5, 0.5]], "axes": []}
            )

    def test_rejects_row_width_mismatch(self):
        prof = euclid((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            percentile_multi_d(prof, ((0.5,),))

    def test_rejects_out_of_range_parameters(self):
        prof = euclid((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            percentile_multi_d(prof, ((0.5, 1.5),))

    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(),
        dim=st.integers(1, 3),
        n=st.integers(1, 5),
        rows=st.lists(
            st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])] * 3),
            min_size=1,
            max_size=2,
        ),
    )
    def test_coordinate_axes_match_the_explicit_identity_basis(self, data, dim, n, rows):
        # equal in value: recombining over the identity basis folds -0.0
        # into 0.0, while the coordinate axes keep the reported coordinate,
        # bit for bit the order statistic
        coord = st.sampled_from([-0.0, 0.0, -1.5, 2.25, -3.0])
        prof = AgentProfile(
            tuple(data.draw(st.tuples(*[coord] * dim)) for _ in range(n))
        )
        params = tuple(row[:dim] for row in rows)
        identity = tuple(tuple(float(j == k) for j in range(dim)) for k in range(dim))
        plain = run_mechanism(
            MechanismDescriptor.percentile_plane(params), prof, FacilitySpec(len(params))
        ).locations
        assert plain == percentile_multi_d(prof, params, identity)
        assert repr(plain) == repr(order_statistics(prof, params))
        assert repr(plain) == repr(percentile_multi_d(prof, params))


def order_statistics(prof, rows):
    """Reference for the per-axis percentile picks: on axis k, the sorted
    reports' entry floor(row[k] * (n - 1))."""
    columns = [sorted(a[k] for a in prof.agents) for k in range(prof.dim)]
    return tuple(
        tuple(col[math.floor(p * (prof.n - 1))] for col, p in zip(columns, row))
        for row in rows
    )


family_coords = st.one_of(
    st.sampled_from([-0.0, 0.0, -1.5, 2.25]),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=150)
@given(
    data=st.data(),
    dim=st.integers(1, 3),
    n=st.integers(1, 7),
    params=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.75, 1.0]), min_size=1, max_size=3),
)
def test_median_max_min_and_line_are_the_percentile_family(data, dim, n, params):
    # bit for bit, signed zeros and ties included: the coordinate-wise
    # median, max and min are the family at 0.5, 1 and 0 on every axis
    prof = AgentProfile(
        tuple(data.draw(st.tuples(*[family_coords] * dim)) for _ in range(n))
    )

    def placed(desc):
        return repr(_place(desc, prof, desc.implied_facilities))

    for desc, p in (
        (MechanismDescriptor.median(), 0.5),
        (MechanismDescriptor.coordinate_extreme("max"), 1.0),
        (MechanismDescriptor.coordinate_extreme("min"), 0.0),
    ):
        rows = ((p,) * dim,)
        assert placed(desc) == placed(MechanismDescriptor.percentile_plane(rows))
        assert placed(desc) == repr(order_statistics(prof, rows))
    assert placed(MechanismDescriptor.median()) == repr((coordinate_median(prof.agents),))
    if dim == 1:
        rows = tuple((p,) for p in params)
        line = placed(MechanismDescriptor.percentile_line(params))
        assert line == placed(MechanismDescriptor.percentile_plane(rows))
        assert line == repr(order_statistics(prof, rows))


def test_signed_zero_picks():
    # the coordinate axes return the reported coordinate itself; of tied
    # values the sorted pick at rank n - 1 is the last reported, so max
    # keeps the later of 0.0 and -0.0 where max() kept the first
    top = MechanismDescriptor.coordinate_extreme("max")
    assert repr(_place(top, AgentProfile(((0.0,), (-0.0,))), 1)) == "((-0.0,),)"
    assert repr(_place(top, AgentProfile(((-0.0,), (0.0,))), 1)) == "((0.0,),)"
    plane = MechanismDescriptor.percentile_plane(((0.5, 0.5),))
    prof = AgentProfile(((-0.0, -0.0), (-0.0, 1.0), (2.0, -0.0)))
    assert repr(_place(plane, prof, 1)) == "((-0.0, -0.0),)"
    # rotated axes recombine, which folds -0.0 into 0.0
    rotated = MechanismDescriptor.percentile_plane(((0.5, 0.5),), ((0.0, 1.0), (1.0, 0.0)))
    assert repr(_place(rotated, prof, 1)) == "((0.0, 0.0),)"


class TestSerialDictatorship:
    def test_skips_duplicate_locations(self):
        prof = euclid((0.0, 0.0), (0.0, 0.0), (5.0, 5.0))
        assert serial_dictatorship(prof, None, 2) == ((0.0, 0.0), (5.0, 5.0))

    def test_pads_with_last_placed(self):
        prof = euclid((0.0, 0.0), (0.0, 0.0))
        assert serial_dictatorship(prof, None, 3) == (
            (0.0, 0.0),
            (0.0, 0.0),
            (0.0, 0.0),
        )

    def test_respects_custom_order(self):
        prof = euclid((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        assert serial_dictatorship(prof, (3, 2, 1), 2) == ((2.0, 0.0), (1.0, 0.0))

    def test_rejects_non_permutation_order(self):
        prof = euclid((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            serial_dictatorship(prof, (1, 1), 1)


class TestAssignNearest:
    def test_ties_go_to_lowest_index(self):
        prof = euclid((1.0, 0.0))
        locs = ((0.0, 0.0), (2.0, 0.0))
        assert assign_nearest(locs, prof) == (1,)

    def test_metric_matters(self):
        # diagonal facility beats the axis one under Euclidean distance
        # (sqrt(2) < 1.5) but loses under Manhattan (2 > 1.5)
        agent = (0.0, 0.0)
        locs = ((1.5, 0.0), (1.0, 1.0))
        e = AgentProfile((agent,), Metric.EUCLIDEAN)
        m = AgentProfile((agent,), Metric.MANHATTAN)
        assert assign_nearest(locs, e) == (2,)
        assert assign_nearest(locs, m) == (1,)

    @given(
        pts=st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6
        ),
        locs=st.lists(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=4
        ),
    )
    def test_assignment_is_a_nearest_facility(self, pts, locs):
        prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts))
        locations = tuple((float(x), float(y)) for x, y in locs)
        for agent, j in zip(prof.agents, assign_nearest(locations, prof)):
            d = distance(agent, locations[j - 1])
            assert all(d <= distance(agent, q) + 1e-12 for q in locations)


class TestRunMechanism:
    def test_median_uses_lower_median_per_axis(self):
        prof = euclid((0.0, 0.0), (1.0, 3.0), (2.0, 1.0), (4.0, 2.0))
        sol = run_mechanism(MechanismDescriptor.median(), prof, FacilitySpec(1))
        assert sol.locations == ((1.0, 1.0),)
        assert sol.assignment == (1, 1, 1, 1)

    def test_geometric_median_on_square(self):
        prof = euclid((0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0))
        sol = run_mechanism(MechanismDescriptor.geometric(), prof, FacilitySpec(1))
        assert sol.locations[0] == pytest.approx((1.0, 1.0), abs=1e-6)

    def test_one_centre_needs_two_dims(self):
        prof = AgentProfile(((0.0,), (4.0,)))
        with pytest.raises(ValueError):
            run_mechanism(MechanismDescriptor.one_centre(), prof, FacilitySpec(1))

    def test_coordinate_extremes(self):
        prof = euclid((0.0, 5.0), (3.0, 1.0))
        hi = run_mechanism(
            MechanismDescriptor.coordinate_extreme("max"), prof, FacilitySpec(1)
        )
        lo = run_mechanism(
            MechanismDescriptor.coordinate_extreme("min"), prof, FacilitySpec(1)
        )
        assert hi.locations == ((3.0, 5.0),)
        assert lo.locations == ((0.0, 1.0),)

    def test_first_agent_is_lexicographic(self):
        prof = euclid((1.0, 0.0), (0.0, 9.0), (0.0, 2.0))
        sol = run_mechanism(MechanismDescriptor.first_agent(), prof, FacilitySpec(1))
        assert sol.locations == ((0.0, 2.0),)

    def test_percentile_1d_through_descriptor(self):
        prof = AgentProfile(((9.0,), (1.0,), (4.0,)))
        desc = MechanismDescriptor.percentile_line((0.0, 1.0))
        sol = run_mechanism(desc, prof, FacilitySpec(2))
        assert sol.locations == ((1.0,), (9.0,))
        assert sol.assignment == (2, 1, 1)

    def test_facility_count_must_match_params(self):
        prof = AgentProfile(((1.0,), (4.0,)))
        desc = MechanismDescriptor.percentile_line((0.0, 1.0))
        with pytest.raises(ValueError):
            run_mechanism(desc, prof, FacilitySpec(3))

    def test_rejects_capacitated_spec(self):
        prof = euclid((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            run_mechanism(MechanismDescriptor.median(), prof, FacilitySpec(1, (2,)))

    def test_deterministic_across_runs(self):
        prof = euclid((0.3, 1.7), (2.9, 0.4), (1.1, 2.2), (0.0, 0.0))
        for desc in (
            MechanismDescriptor.median(),
            MechanismDescriptor.geometric(),
            MechanismDescriptor.one_centre(),
            MechanismDescriptor.dictatorship(),
        ):
            a = run_mechanism(desc, prof, FacilitySpec(1 if desc.implied_facilities else 2))
            b = run_mechanism(desc, prof, FacilitySpec(1 if desc.implied_facilities else 2))
            assert a == b


ANONYMOUS_DESCRIPTORS = [
    MechanismDescriptor.median(),
    MechanismDescriptor.geometric(),
    MechanismDescriptor.one_centre(),
    MechanismDescriptor.coordinate_extreme("max"),
    MechanismDescriptor.coordinate_extreme("min"),
    MechanismDescriptor.first_agent(),
    MechanismDescriptor.percentile_plane(((0.5, 0.5),)),
]


@settings(deadline=None, max_examples=60)
@given(
    pts=st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=6
    ),
    data=st.data(),
)
def test_anonymous_mechanisms_ignore_agent_order(pts, data):
    prof = AgentProfile(tuple((float(x), float(y)) for x, y in pts))
    perm = data.draw(st.permutations(list(range(1, prof.n + 1))))
    desc = data.draw(st.sampled_from(ANONYMOUS_DESCRIPTORS))
    spec = FacilitySpec(1)
    base = run_mechanism(desc, prof, spec)
    shuffled = run_mechanism(desc, prof.permuted(tuple(perm)), spec)
    assert base.locations == shuffled.locations


@settings(deadline=None, max_examples=40)
@given(
    xs=st.lists(st.integers(-10, 10), min_size=2, max_size=6),
    p=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    data=st.data(),
)
def test_percentile_1d_resists_unilateral_misreports(xs, p, data):
    prof = AgentProfile(tuple((float(x),) for x in xs))
    spec = FacilitySpec(1)
    desc = MechanismDescriptor.percentile_line((p,))
    i = data.draw(st.integers(1, prof.n))
    lie = data.draw(st.integers(-12, 12))
    truth = prof.agents[i - 1]
    honest = run_mechanism(desc, prof, spec)
    twisted = run_mechanism(desc, prof.with_report(i, (float(lie),)), spec)
    d_honest = distance(truth, honest.locations[0])
    d_lie = distance(truth, twisted.locations[0])
    assert d_lie >= d_honest - 1e-12


# --- _place skips the exported kernels' input checks; the kernels are the
# reference it must agree with bit for bit (signed zeros included)

signed_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=100)
@given(
    pts=st.lists(st.tuples(signed_coords, signed_coords), min_size=1, max_size=9),
    metric=st.sampled_from(list(Metric)),
)
def test_placement_matches_the_exported_kernels(pts, metric):
    prof = AgentProfile(tuple(pts), metric)
    median = _place(MechanismDescriptor.median(), prof, 1)
    assert repr(median) == repr((coordinate_median(prof.agents),))
    centre = _place(MechanismDescriptor.one_centre(), prof, 1)
    assert repr(centre) == repr((smallest_enclosing_circle(sorted(prof.agents)).center,))


def test_median_keeps_a_negative_zero():
    prof = euclid((-0.0, 1.0), (-1.0, -0.0), (1.0, 2.0))
    (loc,) = run_mechanism(MechanismDescriptor.median(), prof, FacilitySpec(1)).locations
    assert loc == (0.0, 1.0)
    assert math.copysign(1.0, loc[0]) == -1.0


class TestWireFormat:
    def test_descriptor_round_trip(self):
        for desc in (
            MechanismDescriptor.percentile_line((0.0, 0.5, 1.0)),
            MechanismDescriptor.percentile_plane(((0.5, 0.5), (0.0, 1.0))),
            MechanismDescriptor.dictatorship((2, 1)),
            MechanismDescriptor.median(),
        ):
            assert descriptor_from_dict(descriptor_to_dict(desc)) == desc

    def test_profile_round_trip(self):
        prof = AgentProfile(((0.0, 1.0), (2.0, 3.0)), Metric.MANHATTAN)
        assert profile_from_dict(profile_to_dict(prof)) == prof

    def test_unknown_kind_lists_known_ones(self):
        with pytest.raises(ValueError, match="multi_dim_median"):
            descriptor_from_dict({"kind": "mystery"})

    def test_bad_metric_message(self):
        with pytest.raises(ValueError, match="manhattan"):
            profile_from_dict({"agents": [[0.0]], "metric": "chebyshev"})

    def test_spec_and_solution_round_trip(self):
        spec = spec_from_dict({"facilities": 2, "capacities": [1, 3]})
        assert spec == FacilitySpec(2, (1, 3))
        sol = solution_from_dict(
            {"locations": [[0.0, 0.0], [1.0, 1.0]], "assignment": [1, 2]}
        )
        assert sol == Solution(((0.0, 0.0), (1.0, 1.0)), (1, 2))
