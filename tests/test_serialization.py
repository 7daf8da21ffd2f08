"""Unit tests for the JSON wire format."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from repro.computation import (
    ComplexRequirement,
    ConcurrentRequirement,
    Demands,
    SegmentedRequirement,
    SimpleRequirement,
    Wait,
)
from repro.decision import find_schedule
from repro.intervals import Interval
from repro.resources import Link, Node, ResourceSet, cpu, network, term
from repro.serialization import (
    SerializationError,
    demands_from_wire,
    demands_to_wire,
    interval_from_wire,
    interval_to_wire,
    location_from_wire,
    location_to_wire,
    ltype_from_wire,
    ltype_to_wire,
    requirement_from_wire,
    requirement_to_wire,
    resource_set_from_wire,
    resource_set_to_wire,
    schedule_to_wire,
    term_from_wire,
    term_to_wire,
    time_from_wire,
    time_to_wire,
)


def roundtrip_json(data):
    """Force an actual JSON round-trip (catches non-serialisable types)."""
    return json.loads(json.dumps(data))


class TestScalars:
    def test_int_float_passthrough(self):
        assert time_from_wire(time_to_wire(5)) == 5
        assert time_from_wire(time_to_wire(2.5)) == 2.5

    def test_fraction_roundtrip_exact(self):
        value = Fraction(10, 3)
        wire = time_to_wire(value)
        assert wire == "10/3"
        assert time_from_wire(wire) == value

    def test_infinity(self):
        assert time_to_wire(math.inf) == "inf"
        assert math.isinf(time_from_wire("inf"))

    def test_bad_values_rejected(self):
        with pytest.raises(SerializationError):
            time_from_wire("nonsense")
        with pytest.raises(SerializationError):
            time_from_wire("1/zero")
        with pytest.raises(SerializationError):
            time_from_wire("1/0")
        with pytest.raises(SerializationError):
            time_from_wire(None)

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_are_not_numbers(self, value):
        with pytest.raises(SerializationError, match="start.*boolean"):
            time_from_wire(value, "start")

    def test_nan_rejected(self):
        with pytest.raises(SerializationError, match="end.*NaN"):
            time_from_wire(json.loads("NaN"), "end")

    def test_infinite_window_end_still_round_trips(self):
        window = Interval(0, math.inf)
        assert interval_from_wire(roundtrip_json(interval_to_wire(window))) == window
        assert math.isinf(time_from_wire(json.loads("1e999"), "end"))

    @pytest.mark.parametrize("wire", ["inf", 1e999, True, float("nan")])
    def test_rate_must_be_a_finite_number(self, wire):
        data = term_to_wire(term(2, cpu("l1"), 0, 4))
        data["rate"] = wire
        with pytest.raises(SerializationError, match="rate"):
            term_from_wire(data)

    @pytest.mark.parametrize("wire", ["inf", 1e999, True, float("nan")])
    def test_quantity_must_be_a_finite_number(self, wire):
        data = demands_to_wire(Demands({cpu("l1"): 3}))
        data["amounts"][0]["quantity"] = wire
        with pytest.raises(SerializationError, match="quantity"):
            demands_from_wire(data)


class TestLocationsAndTypes:
    def test_node_roundtrip(self):
        assert location_from_wire(roundtrip_json(location_to_wire(Node("l1")))) == Node("l1")

    def test_link_roundtrip(self):
        link = Link(Node("a"), Node("b"))
        assert location_from_wire(roundtrip_json(location_to_wire(link))) == link

    def test_ltype_roundtrip(self, cpu1, net12):
        for ltype in (cpu1, net12):
            assert ltype_from_wire(roundtrip_json(ltype_to_wire(ltype))) == ltype

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            location_from_wire({"kind": "teleporter"})
        with pytest.raises(SerializationError):
            ltype_from_wire({"kind": "node", "name": "x"})


class TestCompositeValues:
    def test_interval_roundtrip(self):
        window = Interval(Fraction(1, 3), 9)
        assert interval_from_wire(roundtrip_json(interval_to_wire(window))) == window

    def test_term_roundtrip(self, cpu1):
        item = term(Fraction(5, 2), cpu1, 0, 7)
        assert term_from_wire(roundtrip_json(term_to_wire(item))) == item

    def test_resource_set_roundtrip(self, small_pool):
        wire = roundtrip_json(resource_set_to_wire(small_pool))
        assert resource_set_from_wire(wire) == small_pool

    def test_demands_roundtrip(self, cpu1, net12):
        demands = Demands({cpu1: 5, net12: Fraction(1, 2)})
        assert demands_from_wire(roundtrip_json(demands_to_wire(demands))) == demands


class TestRequirements:
    def test_simple(self, cpu1):
        req = SimpleRequirement(Demands({cpu1: 5}), Interval(0, 10))
        assert requirement_from_wire(roundtrip_json(requirement_to_wire(req))) == req

    def test_complex(self, cpu1, net12):
        req = ComplexRequirement(
            [Demands({cpu1: 5}), Demands({net12: 2})], Interval(0, 10), label="j"
        )
        assert requirement_from_wire(roundtrip_json(requirement_to_wire(req))) == req

    def test_concurrent(self, cpu1, cpu2):
        window = Interval(0, 10)
        req = ConcurrentRequirement(
            (
                ComplexRequirement([Demands({cpu1: 5})], window, label="a"),
                ComplexRequirement([Demands({cpu2: 5})], window, label="b"),
            ),
            window,
        )
        assert requirement_from_wire(roundtrip_json(requirement_to_wire(req))) == req

    def test_segmented(self, cpu1):
        req = SegmentedRequirement(
            [[Demands({cpu1: 5})], [Demands({cpu1: 3})]],
            [Wait(1, 4, reason="rpc")],
            Interval(0, 20),
            label="seg",
        )
        assert requirement_from_wire(roundtrip_json(requirement_to_wire(req))) == req

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            requirement_from_wire({"kind": "wish"})


class TestNonObjectWire:
    @pytest.mark.parametrize(
        "decode, kind",
        [
            (location_from_wire, "location"),
            (ltype_from_wire, "ltype"),
            (interval_from_wire, "interval"),
            (term_from_wire, "term"),
            (resource_set_from_wire, "resource_set"),
            (demands_from_wire, "demands"),
            (requirement_from_wire, "requirement"),
        ],
    )
    @pytest.mark.parametrize("value", [5, "interval", [1, 2], None])
    def test_rejected_naming_the_expected_kind(self, decode, kind, value):
        with pytest.raises(SerializationError, match=f"expected {kind} object"):
            decode(value)

    def test_nested_non_object_is_rejected(self):
        wire = requirement_to_wire(
            ComplexRequirement(
                [Demands({cpu("n1"): 1})], Interval(0, 4), label="job"
            )
        )
        wire["phases"][0]["amounts"][0]["ltype"] = 7
        with pytest.raises(SerializationError, match="expected ltype object"):
            requirement_from_wire(wire)

    def test_non_object_wait_is_rejected(self):
        wire = {
            "kind": "segmented_requirement",
            "window": interval_to_wire(Interval(0, 9)),
            "segments": [[], []],
            "waits": [3],
        }
        with pytest.raises(SerializationError, match="expected wait object"):
            requirement_from_wire(wire)



def _segmented_wire():
    return requirement_to_wire(
        SegmentedRequirement(
            [[Demands({cpu("n1"): 1})], [Demands({cpu("n1"): 2})]],
            [Wait(0, 2)],
            Interval(0, 9),
            label="seg",
        )
    )


def _complex_wire():
    return requirement_to_wire(
        ComplexRequirement(
            [Demands({cpu("n1"): 1})], Interval(0, 4), label="job"
        )
    )


class TestWireShapes:
    """Every list field, string field and required key is checked before
    it is read: a wrong shape is a :class:`SerializationError` naming the
    field, never a ``TypeError``/``AttributeError``/``KeyError``."""

    @pytest.mark.parametrize("value", [5, {"a": 1}, "ab", None])
    def test_terms_must_be_a_list(self, value):
        with pytest.raises(SerializationError, match="expected terms list"):
            resource_set_from_wire({"kind": "resource_set", "terms": value})

    @pytest.mark.parametrize(
        "build, path, field",
        [
            (_complex_wire, ("phases",), "phases"),
            (_complex_wire, ("phases", 0, "amounts"), "amounts"),
            (_segmented_wire, ("segments",), "segments"),
            (_segmented_wire, ("segments", 1), "segment"),
            (_segmented_wire, ("waits",), "waits"),
        ],
    )
    @pytest.mark.parametrize("value", [5, {"a": 1}, "ab"])
    def test_requirement_lists(self, build, path, field, value):
        wire = build()
        target = wire
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SerializationError, match=f"expected {field} list"):
            requirement_from_wire(wire)

    @pytest.mark.parametrize("value", [5, {"a": 1}, "ab"])
    def test_components_must_be_a_list(self, value):
        wire = {
            "kind": "concurrent_requirement",
            "window": interval_to_wire(Interval(0, 9)),
            "components": value,
        }
        with pytest.raises(SerializationError, match="expected components list"):
            requirement_from_wire(wire)

    @pytest.mark.parametrize("build", [_complex_wire, _segmented_wire])
    @pytest.mark.parametrize("value", [5, ["job"], None, True])
    def test_label_must_be_a_string(self, build, value):
        wire = build()
        wire["label"] = value
        with pytest.raises(SerializationError, match="expected label string"):
            requirement_from_wire(wire)

    def test_amount_entries_must_be_objects(self):
        wire = _complex_wire()
        wire["phases"][0]["amounts"] = ["ltype"]
        with pytest.raises(SerializationError, match="expected amount object"):
            requirement_from_wire(wire)

    @pytest.mark.parametrize(
        "decode, wire, field",
        [
            (location_from_wire, {"kind": "node", "name": 5}, "name"),
            (location_from_wire,
             {"kind": "link", "source": "a", "destination": 5}, "destination"),
            (ltype_from_wire,
             {"kind": "ltype", "resource": 5,
              "location": {"kind": "node", "name": "a"}}, "resource"),
        ],
    )
    def test_names_must_be_strings(self, decode, wire, field):
        with pytest.raises(SerializationError, match=f"expected {field} string"):
            decode(wire)

    @pytest.mark.parametrize(
        "decode, wire, missing",
        [
            (location_from_wire, {"kind": "node"}, "name"),
            (interval_from_wire, {"kind": "interval", "start": 0}, "end"),
            (resource_set_from_wire, {"kind": "resource_set"}, "terms"),
            (demands_from_wire, {"kind": "demands"}, "amounts"),
            (requirement_from_wire,
             {"kind": "complex_requirement", "phases": []}, "window"),
        ],
    )
    def test_missing_key_names_the_field(self, decode, wire, missing):
        with pytest.raises(SerializationError, match=f"no '{missing}' field"):
            decode(wire)

    def test_well_formed_wire_still_round_trips(self):
        for wire in (_complex_wire(), _segmented_wire()):
            assert requirement_to_wire(requirement_from_wire(wire)) == wire


class TestScheduleExport:
    def test_schedule_to_wire(self, cpu1, net12, small_pool):
        req = ComplexRequirement(
            [Demands({cpu1: 10}), Demands({net12: 6})], Interval(0, 10), label="j"
        )
        schedule = find_schedule(small_pool, req)
        wire = roundtrip_json(schedule_to_wire(schedule))
        assert wire["label"] == "j"
        assert len(wire["phases"]) == 2
        claimed = {
            entry["ltype"]["resource"]: entry["quantity"]
            for phase in wire["phases"]
            for entry in phase["claims"]
        }
        assert claimed == {"cpu": 10, "network": 6}
