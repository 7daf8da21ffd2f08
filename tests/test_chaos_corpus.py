"""The gold chaos corpus is a well-formed, audited manifest.

The matrix tests (``test_chaos_recovery``, ``test_mesh_recovery``,
``test_netfaults``, ``test_overload_chaos``) check every point they
produce against the corpus field for field; this module checks the
manifest itself: its audit history accounts for every pinned point, and
every pinned point is well-formed and clean.
"""

from __future__ import annotations

import re
from collections import Counter

from tests.chaos_corpus import PINNED, load_corpus, pinned_points

SHA256 = re.compile(r"[0-9a-f]{64}")


def test_history_accounts_for_every_point():
    manifest = load_corpus()
    history = manifest["history"]
    assert [h["version"] for h in history] == list(
        range(1, len(history) + 1)
    )
    assert manifest["version"] == len(history)
    for entry in history:
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}", entry["date"])
        assert entry["changed"].strip() and entry["why"].strip()
    added = Counter(row[-1] for row in manifest["points"])
    assert {h["version"]: h["points"] for h in history} == dict(added)
    # Version 1 is the parent's four harnesses at the tier-1 parameters.
    assert added[1] == 227


def test_points_are_unique_and_complete_rows():
    manifest = load_corpus()
    assert manifest["fields"] == ["cell", "kind", "index", *PINNED, "since"]
    assert all(len(row) == len(manifest["fields"]) for row in manifest["points"])
    assert len(pinned_points()) == len(manifest["points"])


def test_every_pinned_point_is_clean_and_well_formed():
    for (cell, kind, index), point in pinned_points().items():
        where = f"{cell} {kind}@{index}"
        assert point["ok"], f"{where}: the corpus pins only clean verdicts"
        assert kind in ("replay", "boundary", "mid-write", "checkpoint")
        if not point["crashed"]:
            assert point["replayed"] == 0, where
        if kind == "replay":
            assert index == 0 and not point["crashed"], where
        else:
            assert index >= 1, where
        service = point["decision_log"] is not None
        assert (point["fingerprint"] is None) == service, where
        assert (point["network"] is not None) == cell.startswith("mesh("), where
        for name in ("fingerprint", "network", "decision_log"):
            if point[name] is not None:
                assert SHA256.fullmatch(point[name]), where
