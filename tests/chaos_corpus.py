"""The gold chaos corpus: every pinned chaos-matrix point, field for field.

``tests/data/chaos_corpus.json`` pins each point the suite's chaos
matrices produce — keyed by cell, perturbation kind and write or save
index — with whether the kill landed, how many journal records the
resume re-verified, the verdict, the sha256 of the
report fingerprint, the network digest (mesh cells) and the decision-log
fingerprint (service cells).  Its ``history`` says, per version, what
changed and why; a point's ``since`` names the version that added it.
The matrix tests check their own points against it, so the corpus costs
no extra runs.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

CORPUS_PATH = Path(__file__).parent / "data" / "chaos_corpus.json"

#: The point fields the corpus pins, besides the key.
PINNED = (
    "crashed", "replayed", "ok", "fingerprint", "network", "decision_log"
)

Key = Tuple[str, str, int]


@lru_cache(maxsize=None)
def load_corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text())


def pinned_points() -> Dict[Key, dict]:
    manifest = load_corpus()
    points = (dict(zip(manifest["fields"], row)) for row in manifest["points"])
    return {(p["cell"], p["kind"], p["index"]): p for p in points}


def assert_matches_corpus(result, *, complete: bool = True) -> None:
    """Every point of ``result`` equals its pinned entry field for field.

    With ``complete``, every pinned point of the result's cells must also
    have been produced: a pinned point may not silently drop out."""
    pinned = pinned_points()
    produced = set()
    for point in result.points:
        key = (point.cell, point.kind, point.index)
        assert key in pinned, f"{key} is not pinned in {CORPUS_PATH.name}"
        mismatched = {
            name: (pinned[key][name], getattr(point, name))
            for name in PINNED
            if pinned[key][name] != getattr(point, name)
        }
        assert not mismatched, f"{key} (pinned, produced): {mismatched}"
        produced.add(key)
    if complete:
        cells = {point.cell for point in result.points}
        missing = sorted(
            key for key in pinned if key[0] in cells and key not in produced
        )
        assert not missing, f"pinned points not produced: {missing}"
