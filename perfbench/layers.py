"""Per-layer host time from the benchmark's own wrappers.

For a traced run the benchmark wraps the public functions of each
``repro`` layer (listed in :data:`LAYERS`, named by module) and restores
the original objects afterwards; nothing inside ``src/repro`` changes.
Every wrapped call records one span: name, layer, start, end, parent
span and the label of the decision it belongs to.  A layer's self time
is the summed duration of its spans minus the time covered by their
child spans; the rest of the traced wall time, outside every span, is
the unwrapped remainder.

Spans stay in memory while the run lasts and are summarised (or written
out with :meth:`Tracer.write_spans`) when it ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: layer -> [(module, class or None for module functions, [public names])]
LAYERS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "resources": [
        ("repro.resources.profile", "RateProfile", (
            "constant", "from_segments", "sum", "rate_at", "rates_at",
            "segments", "integral", "min_rate", "earliest_accumulation",
            "latest_accumulation", "__add__", "subtract", "__sub__",
            "saturating_sub", "scale", "clamp", "shift", "cap", "dominates",
        )),
        ("repro.resources.resource_set", "ResourceSet", (
            "from_profiles", "quantity", "rate_at", "can_supply", "restrict",
            "truncate_before", "union", "add_term", "dominates", "minus",
            "saturating_minus", "__or__", "__sub__",
        )),
    ],
    "decision": [
        ("repro.decision.admission", "AdmissionController", (
            "reference_slack", "verify_slack", "add_resources",
            "revoke_resources", "forfeit", "reserve", "release", "advance_to",
            "can_admit", "admit", "withdraw",
        )),
        ("repro.decision.admission", None, ("clip_start",)),
        ("repro.decision.concurrent", None, ("find_concurrent_schedule",)),
        ("repro.decision.sequential", None, ("find_schedule",)),
        ("repro.decision.screen", None, ("supply_shortfall",)),
    ],
    "service": [
        ("repro.service.frontdoor", "AdmissionFrontDoor", (
            "for_controller", "add_resources", "offer", "reconcile", "finish",
            "fingerprint",
        )),
    ],
    "system.simulator": [
        ("repro.system.simulator", "OpenSystemSimulator", ("run",)),
    ],
    "system.tracing": [
        ("repro.system.tracing", "SimulationTrace", (
            "record", "note", "record_loss", "record_violation",
            "violations_of", "consumed_totals", "expired_totals",
            "lost_totals", "revoked_totals", "crash_lost_totals",
            "shed_totals", "lease_expired_totals", "consumption_by_actor",
            "conservation_gaps", "timeline",
        )),
    ],
    "system.checkpoint": [
        ("repro.system.checkpoint", "Journal", (
            "append", "close", "scan", "for_resume",
        )),
        ("repro.system.checkpoint", "DeltaSnapshotter", ("encode",)),
        ("repro.system.checkpoint", "CheckpointStore", ("save",)),
        ("repro.system.checkpoint", "SimulatorCheckpoint", ("to_json", "save")),
    ],
    "system.channel": [
        ("repro.system.channel", "MessageChannel", (
            "send", "rpc", "deliver_due",
        )),
    ],
    "encapsulation": [
        ("repro.encapsulation.enclave", "Enclave", ("admit",)),
        ("repro.encapsulation.lease", "LeaseTable", (
            "grant", "get", "active", "expired", "due_renewals", "expire_due",
            "holder_of", "state_snapshot", "restore_state",
        )),
    ],
    "faults": [
        ("repro.faults.netfaults", "MeshPolicy", (
            "observe_resources", "admit_resources", "decide", "observe_loss",
            "forfeit", "on_leave", "poll", "on_partition", "network_snapshot",
            "drain_wire_records",
        )),
        ("repro.faults.recovery", "RecoveryPolicy", ("next_offer_delay",)),
        ("repro.faults.detection", None, (
            "find_victims", "residual_requirement",
        )),
    ],
    "workloads": [
        ("repro.workloads.overload", None, (
            "flash_crowd_requirements", "flash_crowd_requests",
        )),
        ("repro.workloads.partition", None, ("partitioned_mesh_stream",)),
    ],
}

#: Calls that open a decision: every span beneath one shares its label.
DECISION_ROOTS = frozenset({
    "AdmissionController.admit",
    "AdmissionFrontDoor.offer",
    "MeshPolicy.decide",
})


def _label_of(subject: object) -> Optional[str]:
    """The label of a request or requirement (decision roots' argument)."""
    label = getattr(subject, "label", None)
    if label is None:
        components = getattr(subject, "components", ())
        label = components[0].label if components else None
    return label


class Tracer:
    """Installs the span-recording wrappers and summarises the spans.

    Spans are ``(name, layer, start, end, parent, decision_id)`` tuples;
    ``parent`` is the index of the enclosing span (-1 at top level).
    Recording is on only inside :meth:`recording`, which also accumulates
    the traced wall time the layer shares are taken against.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.wall = 0.0
        self._stack: List[int] = []
        self._on = False
        #: (owner, attribute, original object) for every patched slot
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self
        spans, stack = self.spans, self._stack
        root = name in DECISION_ROOTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if root:
                # Every decision root is a method: (self, request, ...).
                ident = _label_of(args[1])
            else:
                ident = spans[parent][5] if parent >= 0 else None
            index = len(spans)
            # Reserve the slot so children know their parent's id.
            spans.append((name, layer, 0.0, 0.0, parent, ident))
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, ident)

        return wrapper

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS`."""
        for layer, entries in LAYERS.items():
            for module_name, class_name, names in entries:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for name in names:
                        self._patch_function(module, name, layer)
                else:
                    owner = getattr(module, class_name)
                    for name in names:
                        self._patch_method(owner, class_name, name, layer)

    def _patch_method(self, owner: type, class_name: str, name: str, layer: str) -> None:
        raw = owner.__dict__[name]
        qualname = f"{class_name}.{name}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, qualname, layer))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, qualname, layer))
        else:
            wrapped = self._wrap(raw, qualname, layer)
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, raw))

    def _patch_function(self, module, name: str, layer: str) -> None:
        """Wrap a module-level function everywhere it was imported by
        name (``from m import f`` binds the object in the importer)."""
        original = getattr(module, name)
        wrapped = self._wrap(original, name, layer)
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    setattr(other, attribute, wrapped)
                    self._patched.append((other, attribute, original))

    def uninstall(self) -> None:
        """Put every original object back, last patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def recording(self) -> Iterator[None]:
        """Record spans, and count the interval as traced wall time."""
        self._on = True
        started = perf_counter()
        try:
            yield
        finally:
            self.wall += perf_counter() - started
            self._on = False

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls`` and ``self_s``; plus the remainder.

        Returns ``{layer: {"calls": n, "self_s": s}}`` with an extra
        ``"(remainder)"`` entry: traced wall time outside every span.
        """
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        top = 0.0
        for index, (name, layer, start, end, parent, _) in enumerate(self.spans):
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[index]
            if parent < 0:
                top += end - start
        out["(remainder)"] = {"calls": 0, "self_s": self.wall - top}
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for n, _, start, end, _, _ in self.spans if n == name]

    def write_spans(self, path) -> None:
        """One JSON object per span, in start order of their slots."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, layer, start, end, parent, ident) in enumerate(self.spans):
                out.write(json.dumps({
                    "span": index, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent, "id": ident,
                }) + "\n")
