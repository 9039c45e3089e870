import json

import pytest

from facloc.geometry import Metric
from facloc.instances import (
    SCHEMA_VERSION,
    Instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from facloc.mechanisms import (
    AgentProfile,
    FacilitySpec,
    MechanismDescriptor,
    MechanismKind,
)

RECTANGLE_DOC = {
    "version": 1,
    "metric": "euclidean",
    "agents": [[12, 0], [0, 0], [0, 2], [12, 2]],
    "facilities": 1,
    "mechanism": {"kind": "multi_dim_median"},
}


class TestParsing:
    def test_rectangle_document(self):
        inst = instance_from_dict(RECTANGLE_DOC)
        assert inst.profile.n == 4
        assert inst.profile.metric is Metric.EUCLIDEAN
        assert inst.spec.m == 1
        assert inst.spec.capacities is None
        assert inst.mechanism.kind is MechanismKind.MULTI_DIM_MEDIAN

    def test_metric_and_facilities_default(self):
        inst = instance_from_dict({"version": 1, "agents": [[0.0, 0.0]]})
        assert inst.profile.metric is Metric.EUCLIDEAN
        assert inst.spec.m == 1
        assert inst.mechanism is None

    def test_capacities_parsed(self):
        doc = {
            "version": 1,
            "agents": [[0, 0], [1, 1]],
            "facilities": 2,
            "capacities": [1, 1],
        }
        inst = instance_from_dict(doc)
        assert inst.spec.capacities == (1, 1)
        assert inst.spec.capacitated

    def test_manhattan_metric(self):
        doc = dict(RECTANGLE_DOC, metric="manhattan")
        assert instance_from_dict(doc).profile.metric is Metric.MANHATTAN


class TestValidation:
    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            instance_from_dict([1, 2, 3])

    def test_version_required(self):
        doc = dict(RECTANGLE_DOC)
        del doc["version"]
        with pytest.raises(ValueError, match="version"):
            instance_from_dict(doc)

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            instance_from_dict(dict(RECTANGLE_DOC, version=2))

    def test_malformed_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            instance_from_dict(dict(RECTANGLE_DOC, metric="chebyshev"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="capacites"):
            instance_from_dict(dict(RECTANGLE_DOC, capacites=[1]))

    def test_empty_agents_rejected(self):
        with pytest.raises(ValueError, match="agents"):
            instance_from_dict(dict(RECTANGLE_DOC, agents=[]))

    def test_unknown_mechanism_kind_rejected(self):
        doc = dict(RECTANGLE_DOC, mechanism={"kind": "teleport"})
        with pytest.raises(ValueError, match="teleport"):
            instance_from_dict(doc)

    def test_facility_count_conflict_rejected(self):
        doc = dict(RECTANGLE_DOC, facilities=2)
        with pytest.raises(ValueError, match="facilities"):
            instance_from_dict(doc)

    def test_capacity_sum_below_agents_rejected(self):
        doc = {
            "version": 1,
            "agents": [[0, 0], [1, 1], [2, 2]],
            "facilities": 2,
            "capacities": [1, 1],
        }
        with pytest.raises(ValueError):
            instance_from_dict(doc)


    @pytest.mark.parametrize(
        "facilities, capacities",
        [(True, None), (2, [2.7, 1]), (2, [True, 3]), (2, ["2", 2])],
    )
    def test_non_integral_counts_rejected(self, facilities, capacities):
        doc = {"version": 1, "agents": [[0, 0], [1, 1], [2, 2]], "facilities": facilities}
        if capacities is not None:
            doc["capacities"] = capacities
        with pytest.raises(ValueError, match="integer"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("order", [[1.5, 2, 3], [True, 2, 3], ["1", 2, 3]])
    def test_non_integral_order_rejected(self, order):
        doc = {
            "version": 1,
            "agents": [[0, 0], [1, 1], [2, 2]],
            "mechanism": {"kind": "serial_dictatorship", "order": order},
        }
        with pytest.raises(ValueError, match="agent_order entry must be an integer"):
            instance_from_dict(doc)

    def test_integral_float_order_accepted(self):
        doc = {
            "version": 1,
            "agents": [[0, 0], [1, 1], [2, 2]],
            "mechanism": {"kind": "serial_dictatorship", "order": [2.0, 1, 3]},
        }
        assert instance_from_dict(doc).mechanism.agent_order == (2, 1, 3)

    def test_integral_float_capacities_accepted(self):
        doc = {
            "version": 1,
            "agents": [[0, 0], [1, 1], [2, 2]],
            "facilities": 2,
            "capacities": [2.0, 1],
        }
        assert instance_from_dict(doc).spec.capacities == (2, 1)


class TestRoundTrip:
    def test_dict_round_trip(self):
        inst = instance_from_dict(RECTANGLE_DOC)
        doc = instance_to_dict(inst)
        assert doc["version"] == SCHEMA_VERSION
        assert instance_from_dict(doc) == inst

    def test_file_round_trip(self, tmp_path):
        inst = Instance(
            profile=AgentProfile(((0.0, 0.0), (1.0, 1.0)), Metric.MANHATTAN),
            spec=FacilitySpec(2, (1, 1)),
            mechanism=MechanismDescriptor.percentile_plane(
                ((0.0, 0.0), (1.0, 1.0))
            ),
        )
        path = tmp_path / "pair.json"
        save_instance(inst, path)
        assert load_instance(path) == inst
        # the saved form is plain JSON a human can diff
        doc = json.loads(path.read_text())
        assert doc["capacities"] == [1, 1]

    def test_missing_file_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_instance(tmp_path / "absent.json")

    def test_junk_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_instance(path)
