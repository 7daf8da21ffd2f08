"""Unit tests for located types, nodes, and links."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.errors import InvalidTermError
from repro.resources import Link, LocatedType, Node, cpu, located, memory, network


class TestNode:
    def test_value_semantics(self):
        assert Node("l1") == Node("l1")
        assert Node("l1") != Node("l2")
        assert hash(Node("l1")) == hash(Node("l1"))

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidTermError):
            Node("")

    def test_str(self):
        assert str(Node("l1")) == "l1"


class TestLink:
    def test_directedness(self):
        forward = Link(Node("a"), Node("b"))
        assert forward != Link(Node("b"), Node("a"))
        assert forward.reversed == Link(Node("b"), Node("a"))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidTermError):
            Link(Node("a"), Node("a"))

    def test_str_uses_paper_arrow(self):
        assert str(Link(Node("l1"), Node("l2"))) == "l1 -> l2"


class TestLocatedType:
    def test_cpu_constructor(self):
        lt = cpu("l1")
        assert lt.kind == "cpu"
        assert lt.location == Node("l1")
        assert not lt.is_communication

    def test_cpu_accepts_node(self):
        assert cpu(Node("l1")) == cpu("l1")

    def test_network_constructor(self):
        lt = network("l1", "l2")
        assert lt.kind == "network"
        assert lt.location == Link(Node("l1"), Node("l2"))
        assert lt.is_communication

    def test_network_direction_matters(self):
        assert network("l1", "l2") != network("l2", "l1")

    def test_memory_constructor(self):
        assert memory("l1").kind == "memory"

    def test_located_generic(self):
        assert located("gpu", "l3").kind == "gpu"
        link = Link(Node("a"), Node("b"))
        assert located("network", link).location is link

    def test_empty_kind_rejected(self):
        with pytest.raises(InvalidTermError):
            LocatedType("", Node("l1"))

    def test_can_serve_is_equality_by_default(self):
        assert cpu("l1").can_serve(cpu("l1"))
        assert not cpu("l1").can_serve(cpu("l2"))
        assert not cpu("l1").can_serve(memory("l1"))

    def test_str_matches_paper_notation(self):
        assert str(cpu("l1")) == "<cpu, l1>"
        assert str(network("l1", "l2")) == "<network, l1 -> l2>"

    def test_usable_as_dict_key(self):
        table = {cpu("l1"): 5, network("l1", "l2"): 2}
        assert table[cpu("l1")] == 5


class TestCachedHashAndStr:
    VALUES = (
        Node("l1"),
        Link(Node("l1"), Node("l2")),
        cpu("l1"),
        network("l1", "l2"),
        located("memory", Link(Node("a"), Node("b"))),
    )

    @pytest.mark.parametrize("value", VALUES, ids=str)
    def test_caches_stay_out_of_pickle_repr_and_equality(self, value):
        fresh = pickle.loads(pickle.dumps(value))
        assert "_hash" not in vars(fresh) and "_str" not in vars(fresh)
        text, digest = str(value), hash(value)
        assert vars(value)["_str"] == text and vars(value)["_hash"] == digest
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(value, protocol) == pickle.dumps(fresh, protocol)
        assert repr(value) == repr(fresh)
        assert value == fresh and str(fresh) == text
        assert copy.deepcopy(value) == value

    def test_nested_locations_are_cached_independently(self):
        ltype = network("x", "y")
        assert f"{ltype}" == "<network, x -> y>"
        assert str(ltype.location) == "x -> y"
        assert str(ltype) == "<network, x -> y>"
