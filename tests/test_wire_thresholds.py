"""The wire's probability thresholds are memoized per configured constant.

``NetworkModel.lost``/``duplicated`` and ``Backoff.delay`` compare seeded
draws against ``Fraction(p).limit_denominator(...)``.  The conversion is
now paid once per distinct constant (:func:`repro.backoff.exact_threshold`)
instead of on every message and retry.  These tests hold the memoized
answers to the per-call formula over a seeded sweep, check that no memo
rides in the (pickled) configs, and that the memo is not a process-global
the flow analysis reports as shared state.
"""

from __future__ import annotations

import json
import pickle
import random
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from repro.analysis.lint.cli import main as lint_main
from repro.backoff import Backoff, exact_threshold
from repro.system.channel import LinkConfig, NetworkModel, PartitionSpan

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
ENDPOINTS = ("n0", "n1", "n2", "hub")


def _per_call_lost(model: NetworkModel, src, dst, msg_id) -> bool:
    config = model.link(src, dst)
    if not config.loss:
        return False
    return model._draw(f"{src}>{dst}:{msg_id}:loss") < Fraction(
        config.loss
    ).limit_denominator(1_000_000)


def _per_call_duplicated(model: NetworkModel, src, dst, msg_id) -> bool:
    config = model.link(src, dst)
    if not config.duplicate:
        return False
    return model._draw(f"{src}>{dst}:{msg_id}:dup") < Fraction(
        config.duplicate
    ).limit_denominator(1_000_000)


def _per_call_delay(backoff: Backoff, attempt: int, key: str):
    raw = backoff.base * (backoff.factor ** attempt)
    if raw >= float(backoff.cap):
        capped = backoff.cap
    else:
        capped = type(backoff.base)(raw) if raw == int(raw) else raw
    if not backoff.jitter:
        return capped
    spread = Fraction(backoff.jitter).limit_denominator(10_000)
    scale = 1 - spread + 2 * spread * backoff._draw(attempt, key)
    jittered = min(max(Fraction(capped) * scale, Fraction(backoff.base)),
                   Fraction(backoff.cap))
    return int(jittered) if jittered.denominator == 1 else jittered


def _probability(rng: random.Random):
    return rng.choice((
        0.0, 1.0, 0.1, 0.05, 1 / 3, rng.random(), rng.random() / 50,
        Fraction(rng.randrange(1, 9), 9), 1e-7, 0.9999995,
    ))


def _model(rng: random.Random) -> NetworkModel:
    def config():
        return LinkConfig(
            delay=rng.randrange(3), jitter=rng.randrange(3),
            loss=_probability(rng), duplicate=_probability(rng),
        )

    return NetworkModel(
        seed=rng.randrange(1000),
        default=config(),
        links=((("n0", "hub"), config()), (("n1", "n2"), config())),
    )


class TestSameAnswersAsThePerCallFormula:
    @pytest.mark.parametrize("seed", range(8))
    def test_lost_and_duplicated(self, seed):
        rng = random.Random(seed)
        model = _model(rng)
        for index in range(300):
            src, dst = rng.sample(ENDPOINTS, 2)
            msg_id = f"m{index}#{rng.randrange(5)}:req"
            assert model.lost(src, dst, msg_id) is _per_call_lost(
                model, src, dst, msg_id
            )
            assert model.duplicated(src, dst, msg_id) is _per_call_duplicated(
                model, src, dst, msg_id
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_backoff_delay(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            base = rng.choice((1, 2, Fraction(1, 2), 0.5))
            backoff = Backoff(
                base=base,
                factor=rng.choice((1, 1.5, 2.0, 3)),
                cap=base * rng.randrange(1, 40),
                jitter=rng.choice((0.0, 0.1, 0.25, 1 / 3, rng.random() * 0.99)),
                seed=rng.randrange(100),
            )
            for attempt in range(8):
                key = f"victim-{rng.randrange(4)}"
                got = backoff.delay(attempt, key=key)
                want = _per_call_delay(backoff, attempt, key)
                assert got == want and type(got) is type(want)

    def test_equal_constants_of_other_types_share_one_exact_threshold(self):
        # hash-equal keys may hit one cache slot; their exact values agree
        assert exact_threshold(1, 10) == exact_threshold(1.0, 10) == 1
        assert exact_threshold(Fraction(1, 4), 10) == exact_threshold(0.25, 10)
        assert exact_threshold(0.1, 1_000_000) == Fraction(1, 10)


class TestConfigsCarryNoMemo:
    def _exercise(self, model: NetworkModel, backoff: Backoff) -> None:
        for index in range(50):
            model.lost("n0", "hub", f"m{index}")
            model.duplicated("n1", "n2", f"m{index}")
            model.delay_of("n0", "hub", f"m{index}")
            backoff.delay(index % 6, key=f"k{index}")

    def _fresh(self):
        config = LinkConfig(delay=1, jitter=2, loss=0.1, duplicate=0.05)
        model = NetworkModel(
            seed=7, default=config, links=((("n1", "n2"), config),),
            partitions=(PartitionSpan(5, 9, (("n0", "hub"),)),),
        )
        return config, model, Backoff(base=1, cap=8, jitter=0.25, seed=3)

    def test_used_configs_pickle_to_the_bytes_of_fresh_ones(self):
        fresh = self._fresh()
        used = self._fresh()
        self._exercise(used[1], used[2])
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            for a, b in zip(fresh, used):
                assert pickle.dumps(a, protocol) == pickle.dumps(b, protocol)

    def test_instance_state_is_exactly_the_fields(self):
        config, model, backoff = self._fresh()
        self._exercise(model, backoff)
        for value in (config, model, backoff):
            assert list(vars(value)) == [f.name for f in fields(value)]


def test_flow_report_gains_no_shared_state_on_the_wire(capsys):
    assert lint_main(["flow", str(SRC_REPRO), "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    wire = [
        entry
        for entry in document["isolation_report"]
        if entry["module"] in ("repro.backoff", "repro.system.channel")
    ]
    # only the sanctioned, read-only registry accesses of the channel
    assert wire and all(
        entry["kind"] == "ambient-read" and entry["name"] == "get_registry"
        for entry in wire
    )
    assert all(
        entry["rank"] >= 3
        or entry["module"] == "repro.system.events"
        for entry in document["isolation_report"]
    )
