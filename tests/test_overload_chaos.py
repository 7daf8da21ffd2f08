"""The chaos overload matrix: injectable overload, provable guarantees."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import FaultInjectionError
from repro.faults import Kill, chaos_matrix, overload_cells
from repro.workloads import flash_crowd_requests, stalled_enclave_stream
from tests.chaos_corpus import assert_matches_corpus


class TestOverloadPlan:
    """An overload plan is a seed and a flash-crowd multiplier ladder."""

    @pytest.mark.parametrize("kwargs", [
        {"multipliers": ()},
        {"multipliers": (0,)},
        {"multipliers": (1, -2)},
        {"multipliers": (1.5,)},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(FaultInjectionError):
            overload_cells(**kwargs)

    def test_default_plan_is_the_full_ladder(self):
        names = [cell.name for cell in overload_cells()]
        assert names == [
            f"flash-crowd(seed=0, x={m})" for m in (1, 2, 4, 10)
        ] + ["stalled-enclave(seed=0)", "front-door(seed=0)"]


class TestWorkloadDeterminism:
    def test_flash_crowd_is_a_pure_function_of_its_seed(self):
        first = flash_crowd_requests(3, multiplier=4)
        second = flash_crowd_requests(3, multiplier=4)
        assert [r.label for r in first[1]] == [r.label for r in second[1]]
        assert [r.arrival for r in first[1]] == [r.arrival for r in second[1]]

    def test_seed_changes_the_stream(self):
        # Arrival cadence is fixed by design; the seed draws which node
        # each request lands on and how much it demands.
        _, a = flash_crowd_requests(0, multiplier=4)
        _, b = flash_crowd_requests(1, multiplier=4)

        def demands(requests):
            return [
                str(component.total_demands)
                for request in requests
                for component in request.requirement.components
            ]

        assert demands(a) != demands(b)

    def test_multiplier_scales_offered_load(self):
        _, base = flash_crowd_requests(0, multiplier=1)
        _, heavy = flash_crowd_requests(0, multiplier=10)
        assert len(heavy) > len(base)

    def test_stalled_enclave_stream_names_its_stalls(self):
        resources, requests, joins, stalls = stalled_enclave_stream(0)
        assert requests and joins and stalls
        enclaves = {
            ltype.location.name
            for ltype in (t.ltype for t in resources.terms())
        }
        assert set(stalls) <= enclaves


class TestChaosOverloadMatrix:
    def test_quick_matrix_is_clean(self):
        result = chaos_matrix(overload_cells(0, (1, 10)))
        assert result.ok, result.summary()
        assert [p.cell for p in result.points] == [
            "flash-crowd(seed=0, x=1)",
            "flash-crowd(seed=0, x=10)",
            "stalled-enclave(seed=0)",
            "front-door(seed=0)",
        ]
        assert all(p.kind == "replay" for p in result.points)
        assert_matches_corpus(result)

    def test_ten_x_guard_demands_shedding_and_admission(self):
        """The 10x cell is clean only if it genuinely shed *and* admitted:
        its vacuity guard names either gap."""
        _, ten_x, stalled, front_door = overload_cells(0, (1, 10))
        assert ten_x.guard(SimpleNamespace(goodput=5, shed=[1]), None) is None
        assert "shed nothing" in ten_x.guard(
            SimpleNamespace(goodput=5, shed=[]), None
        )
        assert "admitted nothing" in ten_x.guard(
            SimpleNamespace(goodput=0, shed=[1]), None
        )
        assert "breaker" in stalled.guard(
            SimpleNamespace(breaker_transitions={}), None
        )

    def test_matrix_without_stalled_leg(self):
        result = chaos_matrix(overload_cells(0, (2,))[:1])
        assert [p.cell for p in result.points] == ["flash-crowd(seed=0, x=2)"]
        assert result.ok, result.summary()
        assert_matches_corpus(result)

    def test_service_cells_cannot_be_killed(self, tmp_path):
        (flash,) = overload_cells(0, (2,))[:1]
        with pytest.raises(FaultInjectionError, match="only be replayed"):
            chaos_matrix([flash], Kill(tmp_path))
