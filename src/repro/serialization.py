"""JSON-safe (de)serialisation of ROTA values.

Admission decisions cross process boundaries in any real deployment — a
controller answers remote requests about remote resources — so terms,
requirements, and witness schedules need a stable wire form.  The format
is plain dicts/lists/strings/numbers:

* exact rationals (``fractions.Fraction``) serialise as ``"p/q"`` strings
  and come back exact;
* ``math.inf`` serialises as the string ``"inf"``;
* every composite carries a ``"kind"`` tag so heterogeneous collections
  round-trip without external schema.

Only values, never behaviour: cost models and policies are code and stay
out of the wire format.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Mapping

from repro.computation.demands import Demands
from repro.computation.interaction import SegmentedRequirement, Wait
from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
    SimpleRequirement,
)
from repro.errors import RotaError
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import Link, LocatedType, Node
from repro.resources.resource_set import ResourceSet
from repro.resources.term import ResourceTerm


class SerializationError(RotaError, ValueError):
    """Malformed wire data."""


def _expect_object(data: Any, kind: str) -> None:
    """Refuse wire data that is not a JSON object before reading keys."""
    if not isinstance(data, Mapping):
        raise SerializationError(
            f"expected {kind} object, got {type(data).__name__} {data!r}"
        )


# ----------------------------------------------------------------------
# Scalars
# ----------------------------------------------------------------------

def time_to_wire(value: Time) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def time_from_wire(value: Any, field: str = "time", *, finite: bool = False) -> Time:
    """Decode the number in wire field ``field``.

    JSON booleans are not numbers here, although ``bool`` subclasses
    ``int`` (``true`` would read as 1), and NaN is never a value.  An
    infinite value (``"inf"``, or a float literal such as ``1e999``
    that overflows) is accepted unless ``finite`` is set, as it is for
    rates and quantities: an infinite rate would make every deadline
    admissible."""
    if isinstance(value, str):
        if value == "inf" and not finite:
            return math.inf
        if "/" in value:
            numerator, _, denominator = value.partition("/")
            try:
                return Fraction(int(numerator), int(denominator))
            except (ValueError, ZeroDivisionError) as exc:
                raise SerializationError(
                    f"bad {field} rational {value!r}"
                ) from exc
        raise SerializationError(f"bad {field} value {value!r}")
    if isinstance(value, bool):
        raise SerializationError(
            f"bad {field} value {value!r}: a boolean is not a number"
        )
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            raise SerializationError(f"bad {field} value {value!r}: NaN")
        if finite and math.isinf(value):
            raise SerializationError(
                f"bad {field} value {value!r}: must be finite"
            )
        return value
    raise SerializationError(f"bad {field} value {value!r}")


# ----------------------------------------------------------------------
# Locations and located types
# ----------------------------------------------------------------------

def location_to_wire(location: Node | Link) -> dict:
    if isinstance(location, Node):
        return {"kind": "node", "name": location.name}
    return {
        "kind": "link",
        "source": location.source.name,
        "destination": location.destination.name,
    }


def location_from_wire(data: Mapping[str, Any]) -> Node | Link:
    _expect_object(data, "location")
    kind = data.get("kind")
    if kind == "node":
        return Node(data["name"])
    if kind == "link":
        return Link(Node(data["source"]), Node(data["destination"]))
    raise SerializationError(f"unknown location kind {kind!r}")


def ltype_to_wire(ltype: LocatedType) -> dict:
    return {
        "kind": "ltype",
        "resource": ltype.kind,
        "location": location_to_wire(ltype.location),
    }


def ltype_from_wire(data: Mapping[str, Any]) -> LocatedType:
    _expect_object(data, "ltype")
    if data.get("kind") != "ltype":
        raise SerializationError(f"expected ltype, got {data.get('kind')!r}")
    return LocatedType(data["resource"], location_from_wire(data["location"]))


# ----------------------------------------------------------------------
# Intervals, terms, sets
# ----------------------------------------------------------------------

def interval_to_wire(window: Interval) -> dict:
    return {
        "kind": "interval",
        "start": time_to_wire(window.start),
        "end": time_to_wire(window.end),
    }


def interval_from_wire(data: Mapping[str, Any]) -> Interval:
    _expect_object(data, "interval")
    if data.get("kind") != "interval":
        raise SerializationError(f"expected interval, got {data.get('kind')!r}")
    return Interval(
        time_from_wire(data["start"], "start"), time_from_wire(data["end"], "end")
    )


def term_to_wire(item: ResourceTerm) -> dict:
    return {
        "kind": "term",
        "rate": time_to_wire(item.rate),
        "ltype": ltype_to_wire(item.ltype),
        "window": interval_to_wire(item.window),
    }


def term_from_wire(data: Mapping[str, Any]) -> ResourceTerm:
    _expect_object(data, "term")
    if data.get("kind") != "term":
        raise SerializationError(f"expected term, got {data.get('kind')!r}")
    return ResourceTerm(
        time_from_wire(data["rate"], "rate", finite=True),
        ltype_from_wire(data["ltype"]),
        interval_from_wire(data["window"]),
    )


def resource_set_to_wire(resources: ResourceSet) -> dict:
    return {
        "kind": "resource_set",
        "terms": [term_to_wire(t) for t in resources.terms()],
    }


def resource_set_from_wire(data: Mapping[str, Any]) -> ResourceSet:
    _expect_object(data, "resource_set")
    if data.get("kind") != "resource_set":
        raise SerializationError(
            f"expected resource_set, got {data.get('kind')!r}"
        )
    return ResourceSet(term_from_wire(t) for t in data["terms"])


# ----------------------------------------------------------------------
# Demands and requirements
# ----------------------------------------------------------------------

def demands_to_wire(demands: Demands) -> dict:
    return {
        "kind": "demands",
        "amounts": [
            {"ltype": ltype_to_wire(lt), "quantity": time_to_wire(q)}
            for lt, q in demands.items()
        ],
    }


def demands_from_wire(data: Mapping[str, Any]) -> Demands:
    _expect_object(data, "demands")
    if data.get("kind") != "demands":
        raise SerializationError(f"expected demands, got {data.get('kind')!r}")
    return Demands(
        {
            ltype_from_wire(entry["ltype"]): time_from_wire(
                entry["quantity"], "quantity", finite=True
            )
            for entry in data["amounts"]
        }
    )


def requirement_to_wire(
    requirement: SimpleRequirement
    | ComplexRequirement
    | ConcurrentRequirement
    | SegmentedRequirement,
) -> dict:
    if isinstance(requirement, SimpleRequirement):
        return {
            "kind": "simple_requirement",
            "demands": demands_to_wire(requirement.demands),
            "window": interval_to_wire(requirement.window),
        }
    if isinstance(requirement, ComplexRequirement):
        return {
            "kind": "complex_requirement",
            "label": requirement.label,
            "window": interval_to_wire(requirement.window),
            "phases": [demands_to_wire(p) for p in requirement.phases],
        }
    if isinstance(requirement, ConcurrentRequirement):
        return {
            "kind": "concurrent_requirement",
            "window": interval_to_wire(requirement.window),
            "components": [
                requirement_to_wire(part) for part in requirement.components
            ],
        }
    if isinstance(requirement, SegmentedRequirement):
        return {
            "kind": "segmented_requirement",
            "label": requirement.label,
            "window": interval_to_wire(requirement.window),
            "segments": [
                [demands_to_wire(p) for p in segment]
                for segment in requirement.segments
            ],
            "waits": [
                {
                    "min_delay": time_to_wire(w.min_delay),
                    "max_delay": time_to_wire(w.max_delay),
                    "reason": w.reason,
                }
                for w in requirement.waits
            ],
        }
    raise SerializationError(f"unsupported requirement {requirement!r}")


def requirement_from_wire(data: Mapping[str, Any]):
    _expect_object(data, "requirement")
    kind = data.get("kind")
    if kind == "simple_requirement":
        return SimpleRequirement(
            demands_from_wire(data["demands"]), interval_from_wire(data["window"])
        )
    if kind == "complex_requirement":
        return ComplexRequirement(
            [demands_from_wire(p) for p in data["phases"]],
            interval_from_wire(data["window"]),
            label=data.get("label", ""),
        )
    if kind == "concurrent_requirement":
        components = tuple(
            requirement_from_wire(part) for part in data["components"]
        )
        return ConcurrentRequirement(components, interval_from_wire(data["window"]))
    if kind == "segmented_requirement":
        return SegmentedRequirement(
            [
                [demands_from_wire(p) for p in segment]
                for segment in data["segments"]
            ],
            [_wait_from_wire(w) for w in data["waits"]],
            interval_from_wire(data["window"]),
            label=data.get("label", ""),
        )
    raise SerializationError(f"unknown requirement kind {kind!r}")


def _wait_from_wire(data: Mapping[str, Any]) -> Wait:
    _expect_object(data, "wait")
    return Wait(
        time_from_wire(data["min_delay"], "min_delay"),
        time_from_wire(data["max_delay"], "max_delay"),
        data.get("reason", "reply"),
    )


# ----------------------------------------------------------------------
# Schedules (export only: witnesses are produced, not consumed)
# ----------------------------------------------------------------------

def schedule_to_wire(schedule) -> dict:
    """A witness schedule as plain data: per-phase windows and claims."""
    return {
        "kind": "schedule",
        "label": schedule.requirement.label,
        "finish": time_to_wire(schedule.finish_time),
        "breakpoints": [time_to_wire(b) for b in schedule.breakpoints],
        "phases": [
            {
                "index": assignment.index,
                "window": interval_to_wire(assignment.window),
                "claims": [
                    {
                        "ltype": ltype_to_wire(lt),
                        "quantity": time_to_wire(
                            profile.integral(assignment.window)
                        ),
                    }
                    for lt, profile in assignment.consumption.items()
                ],
            }
            for assignment in schedule.assignments
        ],
    }
