"""The benchmark's four workloads, each a closed loop of public calls.

A workload runs in *episodes*: one episode generates its inputs from an
episode seed, constructs the controller / front door / simulator, drives
every request through the public decision call one at a time (the next
call is issued only after the previous one returned), and then checks
its invariants.  Arrival times live on the input stream's virtual clock,
never on host time, so an episode's decisions depend on its seed alone.

Each workload exposes three steps:

* ``setup(seed, workdir)`` -- generate inputs and construct, up to the
  first decision (what ``setup_s`` prices); the returned state carries
  ``offered``, the number of requests the episode will make;
* ``drive(state, pause)`` -- the decision loop; calls ``pause()`` before
  every public decision call, outside its timing (the runner samples the
  host speed there), and returns per-call host latencies;
* ``outcome(state)`` -- digest, invariant problems and layer counters,
  computed after the loop and outside every timed region.

``repro`` must already be importable when this module is imported;
``run.py`` puts the checkout's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import repro.workloads as workloads
from repro.computation import ComplexRequirement, Demands
from repro.decision import AdmissionController
from repro.faults import (
    MeshPolicy,
    PartitionPlan,
    network_digest,
    report_fingerprint,
)
from repro.faults.netfaults import admitted_promise_violations, mesh_events
from repro.faults.recovery import RecoveryPolicy
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.service import AdmissionFrontDoor, ServiceConfig, ServiceReport
from repro.system.checkpoint import Journal
from repro.system.events import ComputationArrivalEvent
from repro.system.simulator import OpenSystemSimulator

#: The seed whose first episode is pinned in ``pinned.json``.
DEFAULT_SEED = 0


def episode_seed(seed: int, index: int) -> int:
    """Input seed of episode ``index`` of a run started with ``seed``."""
    return seed * 10007 + index


def sha256_json(value: object) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def slack_breakpoints(controller: AdmissionController) -> int:
    return sum(
        len(profile.breakpoints)
        for profile in controller.expiring_slack.profiles().values()
    )


@dataclass
class Outcome:
    """What one episode decided and whether it held its invariants."""

    #: requests offered to the system (the unit of ``attempted``)
    offered: int
    #: admitted promises that were kept
    kept: int
    #: digest of the episode's decisions (compared against the pin)
    digest: str
    #: invariant violations; non-empty fails every request of the episode
    problems: List[str] = field(default_factory=list)
    #: raw per-layer counters, summed across episodes by the runner
    stats: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# admit-exact / admit-float: one AdmissionController, clock never advanced
# ----------------------------------------------------------------------
class AdmitWorkload:
    """E15's admission-heavy shape: single-phase CPU demands at one
    located type, admitted against one controller that never advances
    its clock, so every admission leaves breakpoints in the slack.

    ``inexact=True`` makes the demands dyadic floats, exactly
    representable in binary, which routes the profile algebra to the
    numpy kernels; otherwise they are integers on the exact path."""

    def __init__(self, name: str, *, inexact: bool, size: int) -> None:
        self.name = name
        self.inexact = inexact
        self.size = size
        # E15's sizing: the horizon grows with the arrival count, so the
        # load per tick (and the admit ratio) is the same at any size.
        self.horizon = size * 17 // 10

    def requests(self, seed: int) -> List[ComplexRequirement]:
        rng = random.Random(seed)
        out = []
        for index in range(self.size):
            start = rng.randrange(0, self.horizon - 20)
            if self.inexact:
                amount = rng.randrange(2, 8) / 2.0
                duration = 2 ** rng.randrange(3, 5)
            else:
                amount = rng.randrange(1, 4)
                duration = rng.randrange(6, 14)
            out.append(
                ComplexRequirement(
                    [Demands({cpu("l1"): amount})],
                    Interval(start, start + duration),
                    label=f"job{index}",
                )
            )
        return out

    def setup(self, seed: int, workdir: Path) -> dict:
        capacity = 60.0 if self.inexact else 60
        requests = self.requests(seed)
        controller = AdmissionController(
            ResourceSet.of(term(capacity, cpu("l1"), 0, self.horizon))
        )
        return {
            "requests": requests,
            "offered": len(requests),
            "controller": controller,
            "decisions": [],
        }

    def drive(self, state: dict, pause: Callable[[], None]) -> List[float]:
        controller = state["controller"]
        decisions = state["decisions"]
        latencies = []
        for request in state["requests"]:
            pause()
            started = perf_counter()
            decision = controller.admit(request)
            latencies.append(perf_counter() - started)
            decisions.append(decision)
        return latencies

    def outcome(self, state: dict) -> Outcome:
        controller = state["controller"]
        decisions = state["decisions"]
        admitted = sum(1 for d in decisions if d.admitted)
        digest = sha256_json(
            [
                [d.label, d.admitted, d.reason,
                 None if d.schedule is None else repr(d.schedule.consumption())]
                for d in decisions
            ]
        )
        problems = [] if controller.verify_slack() else [
            "incremental expiring slack differs from available - committed"
        ]
        return Outcome(
            offered=len(state["requests"]),
            kept=admitted,
            digest=digest,
            problems=problems,
            stats={
                "decisions": len(decisions),
                "admitted": admitted,
                "slack_breakpoints": slack_breakpoints(controller),
            },
        )


# ----------------------------------------------------------------------
# door-overload: AdmissionFrontDoor under a sustained 10x flash crowd
# ----------------------------------------------------------------------
class DoorWorkload:
    """A 10x flash crowd whose burst covers all but the first and last
    ten ticks of the horizon, served one request at a time through
    ``offer()`` / ``reconcile()`` and closed by ``finish()`` -- the same
    loop as :func:`repro.service.serve`."""

    name = "door-overload"

    def __init__(self, *, horizon: int) -> None:
        self.horizon = horizon

    def setup(self, seed: int, workdir: Path) -> dict:
        resources, requests = workloads.flash_crowd_requests(
            seed,
            multiplier=10,
            burst_at=10,
            burst_duration=self.horizon - 20,
            horizon=self.horizon,
            deadline_slack=8,
        )
        # E21's sizing: queues small enough that the burst pressures them
        # and brownout engages well before the bound.  The exact check is
        # priced at half a tick (E21: a quarter), so about four verdicts
        # in five are sheds.  At a quarter, sheds are ~58% of verdicts and
        # the median call sits on the edge between cheap sheds and costly
        # checks, where it jumps by half between runs.
        config = ServiceConfig(
            max_queue=16,
            shed_policy="deadline",
            check_cost=Fraction(1, 2),
            brownout_enter=8,
            brownout_exit=3,
            seed=seed,
        )
        controller = AdmissionController(resources, align=1)
        door = AdmissionFrontDoor.for_controller(
            controller, config, verify_brownout=True
        )
        end = max(request.requirement.deadline for request in requests)
        return {
            "requests": requests,
            "offered": len(requests),
            "controller": controller,
            "door": door,
            "end": end,
            "max_depth": 0,
        }

    def drive(self, state: dict, pause: Callable[[], None]) -> List[float]:
        door = state["door"]
        latencies = []
        max_depth = 0
        for request in state["requests"]:
            pause()
            started = perf_counter()
            door.offer(request)
            door.reconcile(request.arrival)
            latencies.append(perf_counter() - started)
            depth = door.depth
            if depth > max_depth:
                max_depth = depth
        door.finish(state["end"])
        state["max_depth"] = max_depth
        return latencies

    def outcome(self, state: dict) -> Outcome:
        door = state["door"]
        report = ServiceReport.from_door(door, state["end"])
        summary = report.summary()
        broken = report.queueing_violations()
        return Outcome(
            offered=len(state["requests"]),
            kept=summary["admitted"] - len(broken),
            digest=report.fingerprint,
            problems=[f"queueing violation: {label}" for label in broken],
            stats={
                "decisions": summary["offered"],
                "admitted": summary["admitted"],
                "slack_breakpoints": slack_breakpoints(state["controller"]),
                "offered": summary["offered"],
                "shed": summary["shed"],
                "max_queue_depth": state["max_depth"],
                "brownout_entries": summary["brownout_entries"],
            },
        )


# ----------------------------------------------------------------------
# mesh-durable: run_mesh on a lossy, jittered, partitioned mesh, journaled
# ----------------------------------------------------------------------
class _DecideProbe:
    """Host latency of every ``MeshPolicy.decide`` call made inside one
    simulator run: the mesh has no per-decision public call of its own.

    Patches the class attribute for the duration of the loop only; an
    instance attribute would be pickled into every checkpoint."""

    def __init__(self, pause: Callable[[], None]) -> None:
        self.latencies: List[float] = []
        self._pause = pause

    def __enter__(self) -> "_DecideProbe":
        self._original = MeshPolicy.__dict__["decide"]
        original, latencies, pause = self._original, self.latencies, self._pause

        def decide(policy, requirement, now):
            pause()
            started = perf_counter()
            try:
                return original(policy, requirement, now)
            finally:
                latencies.append(perf_counter() - started)

        MeshPolicy.decide = decide
        return self

    def __exit__(self, *exc) -> bool:
        MeshPolicy.decide = self._original
        return False


class MeshWorkload:
    """A four-child mesh with a lossy (10%), delayed and jittered link and
    one partition, run with a write-ahead journal and a checkpoint every
    25 slices into a fresh directory."""

    name = "mesh-durable"
    CHECKPOINT_EVERY = 25

    def __init__(self, *, horizon: int) -> None:
        self.horizon = horizon

    def plan(self, seed: int) -> PartitionPlan:
        return PartitionPlan(
            seed=seed,
            children=4,
            horizon=self.horizon,
            partition_start=self.horizon // 4,
            partition_duration=self.horizon // 8,
            link_delay=1,
            link_jitter=2,
            link_loss=0.1,
        )

    def setup(self, seed: int, workdir: Path) -> dict:
        """Build what :func:`repro.faults.run_mesh` builds before its
        first decision; ``drive`` then makes the same ``run`` call."""
        plan = self.plan(seed)
        directory = workdir / f"mesh-{seed}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        resources, events = mesh_events(plan)
        simulator = OpenSystemSimulator(
            MeshPolicy(plan),
            initial_resources=resources,
            recovery=RecoveryPolicy(),
            invariant_interval=1,
        )
        simulator.schedule(*events)
        return {
            "plan": plan,
            "offered": sum(
                1 for event in events
                if isinstance(event, ComputationArrivalEvent)
            ),
            "dir": directory,
            "simulator": simulator,
        }

    def drive(self, state: dict, pause: Callable[[], None]) -> List[float]:
        directory = state["dir"]
        simulator = state["simulator"]
        with _DecideProbe(pause) as timed:
            state["report"] = simulator.run(
                state["plan"].horizon,
                checkpoint_every=self.CHECKPOINT_EVERY,
                checkpoint_dir=directory,
                journal=directory / "journal.jsonl",
            )
        state["policy"] = simulator.admission_policy
        return timed.latencies

    def outcome(self, state: dict) -> Outcome:
        report, policy, directory = state["report"], state["policy"], state["dir"]
        try:
            files = list(directory.iterdir())
            records, _ = Journal.scan(directory / "journal.jsonl")
            stats_disk = {
                "journal_records": len(records),
                "snapshots": sum(1 for f in files if f.name.startswith("ckpt-")),
                "bytes": sum(f.stat().st_size for f in files),
            }
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        channel = policy.channel.stats
        requests = [
            r for r in policy.channel.log
            if r.kind.endswith("-request") and r.fate != "duplicated"
        ]
        leases = policy.leases.state_snapshot()
        broken = admitted_promise_violations(report)
        return Outcome(
            offered=report.arrivals,
            kept=report.completed,
            digest=sha256_json(
                [report_fingerprint(report), network_digest(policy)]
            ),
            problems=[f"admitted promise broken: {label}" for label in broken],
            stats={
                "decisions": report.arrivals,
                "admitted": report.admitted,
                "slack_breakpoints": sum(
                    slack_breakpoints(enclave.controller)
                    for enclave in policy.root.walk()
                ),
                "messages": channel.sent,
                "messages_lost": channel.lost + channel.severed,
                "rpc_attempts": len(requests),
                "rpc_calls": len(
                    {r.msg_id.rsplit("#", 1)[0] for r in requests}
                ),
                "lease_renewals": sum(lease.renewals for lease in leases),
                "lease_expirations": sum(1 for lease in leases if lease.expired),
                **stats_disk,
            },
        )


#: Episode sizes: each episode takes 0.5 to 2 host seconds on a 2-core
#: x86-64 VM at the commit that introduced the benchmark, so one run
#: averages many episodes (and seeds).
WORKLOADS = {
    w.name: w
    for w in (
        AdmitWorkload("admit-exact", inexact=False, size=200),
        AdmitWorkload("admit-float", inexact=True, size=2000),
        DoorWorkload(horizon=300),
        MeshWorkload(horizon=300),
    )
}
