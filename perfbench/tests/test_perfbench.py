"""The benchmark's own checks: trace accounting, digest gates, restoration.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import cases
import layers
import run

#: Small stand-ins for the benchmark's workloads, same code paths.
SMALL_MESH = cases.MeshWorkload(horizon=60)
SMALL_ADMIT = cases.AdmitWorkload("admit-exact", inexact=False, size=40)


def _layer_objects():
    """Every wrapped slot and the object it holds right now."""
    import importlib

    slots = {}
    originals = set()
    for entries in layers.LAYERS.values():
        for module_name, class_name, names in entries:
            module = importlib.import_module(module_name)
            for name in names:
                if class_name is None:
                    originals.add(id(getattr(module, name)))
                else:
                    owner = getattr(module, class_name)
                    slots[(owner, name)] = owner.__dict__[name]
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict):
            for attribute, value in namespace.items():
                if id(value) in originals:
                    slots[(module, attribute)] = value
    return slots


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced mesh run (the workload that reaches the most layers)."""
    before = _layer_objects()
    episodes, tracer, metrics = run.traced_run(
        SMALL_MESH, 3, tmp_path_factory.mktemp("mesh"), 0.0
    )
    return before, episodes, tracer, metrics


def test_layer_self_times_plus_remainder_add_up_to_wall(traced):
    _, _, tracer, metrics = traced
    summary = tracer.summary()
    for layer, row in summary.items():
        assert row["self_s"] >= -1e-9, layer
    total = sum(row["self_s"] for row in summary.values())
    assert total == pytest.approx(tracer.wall, rel=1e-9, abs=1e-9)
    reached = {
        layer for layer in layers.LAYERS if summary[layer]["calls"] > 0
    }
    assert reached == set(layers.LAYERS) - {"service"}
    assert metrics["trace.overhead"][0] > 0


def test_every_wrapped_function_is_the_original_again(traced):
    before, _, _, _ = traced
    after = _layer_objects()
    assert after.keys() == before.keys()
    for slot, original in before.items():
        assert after[slot] is original, slot


def test_spans_under_one_decision_share_its_label(traced):
    _, _, tracer, _ = traced
    roots = [s for s in tracer.spans if s[0] in layers.DECISION_ROOTS]
    assert roots
    for index, span in enumerate(tracer.spans):
        parent = span[4]
        if parent >= 0 and span[0] not in layers.DECISION_ROOTS:
            assert span[5] == tracer.spans[parent][5], (index, span)


@pytest.mark.parametrize("workload", [SMALL_MESH, SMALL_ADMIT])
def test_untraced_and_traced_runs_give_equal_digests(workload, tmp_path):
    episodes, _, _ = run.traced_run(workload, 5, tmp_path, 0.0)
    plain, traced = episodes[: len(episodes) // 2], episodes[len(episodes) // 2:]
    assert [e.digest for e in plain] == [e.digest for e in traced]
    assert all(e.digest for e in plain)
    assert sum(e.failed for e in episodes) == 0


def test_pinned_digest_matches_at_the_default_seed(tmp_path):
    pins = json.loads(run.PINNED.read_text())
    workload = cases.WORKLOADS["door-overload"]
    pinned = run.pinned_check(workload, tmp_path, pins)
    assert pinned.failed == 0
    assert pinned.digest == pins["door-overload"]


def test_tampered_pin_fails_every_operation(tmp_path):
    pins = json.loads(run.PINNED.read_text())
    pins["admit-exact"] = "0" * 64
    episodes = run.run_episodes(SMALL_ADMIT, 1, tmp_path, 0.0, 0)
    pinned = run.pinned_check(cases.WORKLOADS["admit-exact"], tmp_path, pins)
    attempted, failed = run.tally(episodes, pinned)
    assert sum(e.failed for e in episodes) == 0
    assert failed == attempted > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    probe = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "admit-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode != 0
    assert probe.stdout == ""


def test_metric_names_match_benchmark_json(traced, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _, _, _, per_layer = traced
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    assert {name: unit for name, (_, unit) in per_layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    episodes = run.run_episodes(SMALL_ADMIT, 1, tmp_path, 0.0, 0)
    metrics = run.end_to_end(episodes, 0.5, 1.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
