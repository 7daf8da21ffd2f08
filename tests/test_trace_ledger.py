"""Differential tests for the trace's incremental conservation ledger.

``SimulationTrace`` answers ``consumed_totals``/``expired_totals``/
``lost_totals`` and ``conservation_gaps`` from running totals that fold
only the entries appended since the previous query.  These tests hold
every answer to a from-scratch fold of the same lists — in value, in
coordinate type, and in key order — across appends, direct list
extension, replacement and truncation (the shapes checkpoint restore
produces), and check the ledger never reaches the pickled state.
"""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

from repro.baselines import RotaAdmission
from repro.errors import CheckpointError
from repro.faults import FaultPlan, RecoveryPolicy, faulty_scenario
from repro.logic.transitions import Transition, TransitionLabel
from repro.resources import cpu, network
from repro.system import OpenSystemSimulator, ReservationPolicy, SimulationTrace
from repro.system.checkpoint import CheckpointStore, SimulatorCheckpoint
from repro.system.tracing import LOSS_CAUSES, ResourceLoss
from repro.workloads import volunteer_scenario

LTYPES = (cpu("a"), cpu("b"), network("a", "b"), network("b", "a"))
ACTORS = ("j1", "j2", "j3")


def _quantity(rng: random.Random):
    """An int, an exact rational, or an inexact float — the three
    coordinate regimes a trace's totals must keep apart."""
    pick = rng.randrange(3)
    if pick == 0:
        return rng.randrange(0, 7)
    if pick == 1:
        return Fraction(rng.randrange(1, 13), rng.randrange(1, 7))
    return rng.random() * 5


def _transition(rng: random.Random) -> Transition:
    # The ledger reads only the label; the states are opaque here.
    consumed = tuple(
        (rng.choice(ACTORS), rng.choice(LTYPES), _quantity(rng))
        for _ in range(rng.randrange(4))
    )
    expired = tuple(
        (rng.choice(LTYPES), _quantity(rng)) for _ in range(rng.randrange(3))
    )
    return Transition(None, TransitionLabel(consumed, expired, 1), None)


def _loss(rng: random.Random) -> ResourceLoss:
    return ResourceLoss(
        rng.randrange(50), rng.choice(LOSS_CAUSES), rng.choice(LTYPES),
        _quantity(rng),
    )


def _fold(pairs):
    totals = {}
    for ltype, quantity in pairs:
        totals[ltype] = totals.get(ltype, 0) + quantity
    return totals


def _reference(trace: SimulationTrace, cause=None):
    """The from-scratch folds the ledger must reproduce."""
    return {
        "consumed": _fold(
            (lt, q) for tr in trace.transitions for _, lt, q in tr.label.consumed
        ),
        "expired": _fold(
            (lt, q) for tr in trace.transitions for lt, q in tr.label.expired
        ),
        "lost": _fold(
            (loss.ltype, loss.quantity)
            for loss in trace.losses
            if cause is None or loss.cause == cause
        ),
    }


def _typed(totals):
    """Keys in order, each with its value and the value's exact type."""
    return [(lt, q, type(q)) for lt, q in totals.items()]


def _assert_matches_scratch(trace: SimulationTrace) -> None:
    want = _reference(trace)
    assert _typed(trace.consumed_totals()) == _typed(want["consumed"])
    assert _typed(trace.expired_totals()) == _typed(want["expired"])
    assert _typed(trace.lost_totals()) == _typed(want["lost"])
    for cause in LOSS_CAUSES:
        assert _typed(trace.lost_totals(cause)) == _typed(
            _reference(trace, cause)["lost"]
        )


class TestLedgerDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_total_matches_a_scratch_fold(self, seed):
        rng = random.Random(seed)
        trace = SimulationTrace()
        for _ in range(120):
            op = rng.randrange(10)
            if op < 4:
                trace.record(_transition(rng))
            elif op < 6:
                loss = _loss(rng)
                trace.record_loss(loss.time, loss.cause, loss.ltype, loss.quantity)
            elif op == 6:
                # checkpoint resolve appends delta suffixes in place
                trace.transitions.extend(
                    _transition(rng) for _ in range(rng.randrange(1, 4))
                )
                trace.losses.extend(_loss(rng) for _ in range(rng.randrange(3)))
            elif op == 7:
                # a restore that swaps in other lists, here longer ones
                trace.transitions = list(trace.transitions) + [_transition(rng)]
                if rng.random() < 0.5:
                    trace.losses = list(trace.losses) + [_loss(rng)]
            elif op == 8:
                # a rollback: the same list objects, cut shorter
                del trace.transitions[rng.randrange(len(trace.transitions) + 1):]
                del trace.losses[rng.randrange(len(trace.losses) + 1):]
            else:
                # replaced by a list of the same length with other contents
                trace.transitions = [_transition(rng) for _ in trace.transitions]
            _assert_matches_scratch(trace)

    def test_float_totals_are_bit_identical_to_the_scratch_fold(self):
        rng = random.Random(99)
        trace = SimulationTrace()
        for step in range(300):
            trace.record(_transition(rng))
            if step % 7 == 0:
                trace.consumed_totals()  # fold in many small increments
        for ltype, total in trace.consumed_totals().items():
            scratch = _reference(trace)["consumed"][ltype]
            if isinstance(total, float):
                assert total.hex() == scratch.hex()

    def test_returned_totals_are_copies(self):
        trace = SimulationTrace()
        trace.record(
            Transition(None, TransitionLabel((("j", LTYPES[0], 2),), (), 1), None)
        )
        trace.record_loss(1, "crash", LTYPES[1], 3)
        for query in (
            trace.consumed_totals, trace.lost_totals, trace.crash_lost_totals
        ):
            query().clear()
        assert trace.consumed_totals() == {LTYPES[0]: 2}
        assert trace.lost_totals() == {LTYPES[1]: 3}
        assert trace.crash_lost_totals() == {LTYPES[1]: 3}

    def test_gaps_match_after_list_replacement(self):
        trace = SimulationTrace()
        trace.record_loss(1, "shed", LTYPES[0], 4)
        assert trace.conservation_gaps({LTYPES[0]: 4}) == []
        trace.losses = [ResourceLoss(1, "crash", LTYPES[0], 3)]
        (gap,) = trace.conservation_gaps({LTYPES[0]: 4})
        # the leg names follow the replaced list: no shed loss any more
        assert "(consumed+expired+lost) = 3" in gap


class TestLedgerPickling:
    def _trace(self):
        rng = random.Random(5)
        trace = SimulationTrace()
        for _ in range(20):
            trace.record(_transition(rng))
            loss = _loss(rng)
            trace.record_loss(loss.time, loss.cause, loss.ltype, loss.quantity)
        return trace

    def test_queried_and_fresh_traces_pickle_to_the_same_bytes(self):
        fresh, queried = self._trace(), self._trace()
        queried.conservation_gaps({lt: 1 for lt in LTYPES})
        queried.consumed_totals()
        assert queried._ledger is not None
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(queried, protocol) == pickle.dumps(fresh, protocol)

    def test_unpickled_trace_rebuilds_its_totals(self):
        trace = self._trace()
        before = _typed(trace.lost_totals())
        clone = pickle.loads(pickle.dumps(trace))
        assert clone == trace
        assert _typed(clone.lost_totals()) == before
        clone.record_loss(60, "crash", LTYPES[0], 1)
        _assert_matches_scratch(clone)
        _assert_matches_scratch(trace)

    def test_ledger_stays_out_of_equality_and_repr(self):
        fresh, queried = self._trace(), self._trace()
        queried.expired_totals()
        assert fresh == queried
        assert repr(fresh) == repr(queried)


def _chaos_scenario():
    return faulty_scenario(
        volunteer_scenario(7, nodes=4, horizon=40, session_rate=0.5),
        FaultPlan(seed=17, crash_rate=0.04, revocation_rate=0.5),
    )


def _simulator(scenario):
    return OpenSystemSimulator(
        RotaAdmission(),
        initial_resources=scenario.initial_resources,
        allocation_policy=ReservationPolicy(),
        recovery=RecoveryPolicy(max_attempts=6),
    )


class TestResumeVerifiesConservation:
    def test_injected_imbalance_in_a_delta_suffix_is_reported(self, tmp_path):
        scenario = _chaos_scenario()
        simulator = _simulator(scenario)
        simulator.schedule(*scenario.events)
        simulator.run(
            scenario.horizon,
            checkpoint_every=5,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )
        store = CheckpointStore(tmp_path)
        tip_path = sorted(tmp_path.glob("ckpt-*.json"))[-1]
        tip = SimulatorCheckpoint.load(tip_path)
        assert tip.is_delta, "the scenario must resume through a delta chain"

        # The untouched chain restores a balanced state.
        OpenSystemSimulator.resume(
            tip_path, tmp_path / "journal.jsonl", checkpoint_dir=store
        )

        bundle = pickle.loads(tip.payload)
        transitions, notes, losses, violations = bundle["trace"]["suffix"]
        bogus = ResourceLoss(0, "crash", LTYPES[0], 5)
        bundle["trace"]["suffix"] = (
            transitions, notes, losses + [bogus], violations
        )
        SimulatorCheckpoint(
            step=tip.step,
            journal_records=tip.journal_records,
            sequence=tip.sequence,
            payload=pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL),
            kind=tip.kind,
            base_step=tip.base_step,
            base_sha256=tip.base_sha256,
        ).save(tip_path)

        with pytest.raises(CheckpointError, match="conservation broken"):
            OpenSystemSimulator.resume(
                tip_path, tmp_path / "journal.jsonl", checkpoint_dir=store
            )
        # opting out of the check restores the (imbalanced) state
        resumed = OpenSystemSimulator.resume(
            tip_path, tmp_path / "journal.jsonl", checkpoint_dir=store,
            verify_conservation=False,
        )
        assert resumed._trace.lost_totals("crash").get(LTYPES[0]) == 5
