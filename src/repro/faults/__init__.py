"""Fault injection and promise-violation recovery.

The paper's open-system model is cooperatively dynamic: "if a resource is
going to leave the system in the future, the time of leaving must be
explicitly specified at the time of joining", so every admission promise
is sound by construction.  This package deliberately breaks that
assumption — crashes, unannounced revocations, stragglers — and gives the
simulator the machinery to *survive* the breakage:

* :class:`FaultPlan` — seeded, deterministic generation of unannounced
  fault events, composable with any existing scenario
  (:func:`faulty_scenario`).
* :func:`find_victims` / :class:`PromiseViolation` — detection of admitted
  computations whose remaining feasible window died.
* :class:`RecoveryPolicy` — the victim pipeline: re-admission against
  surviving resources through the same Theorem-4 check, capped
  exponential backoff between offers, and graceful degradation into an
  explicit ``abandoned`` outcome with salvage accounting.
* :func:`chaos_matrix` — one runner that replays or kills crash,
  overload and partition cells and judges every run by named oracles
  (promise safety, extended conservation, identity, vacuity).
"""

from repro.baselines.retry import ExponentialBackoff
from repro.faults.chaos import (
    Cell,
    ChaosPoint,
    ChaosResult,
    CrashingFile,
    Kill,
    SimulatedCrash,
    chaos_matrix,
    crashing_opener,
    diff_fingerprints,
    fault_cell,
    mesh_cell,
    overload_cells,
    report_fingerprint,
)
from repro.faults.detection import Victim, find_victims, residual_requirement
from repro.faults.netfaults import (
    MeshPolicy,
    PartitionPlan,
    admitted_promise_violations,
    mesh_events,
    network_digest,
    resume_mesh,
    run_mesh,
)
from repro.faults.plan import FaultPlan, faulty_scenario
from repro.faults.recovery import RecoveryPolicy
from repro.system.tracing import PromiseViolation, ResourceLoss

__all__ = [
    "Cell",
    "ChaosPoint",
    "ChaosResult",
    "CrashingFile",
    "ExponentialBackoff",
    "FaultPlan",
    "Kill",
    "MeshPolicy",
    "PartitionPlan",
    "SimulatedCrash",
    "admitted_promise_violations",
    "chaos_matrix",
    "crashing_opener",
    "diff_fingerprints",
    "fault_cell",
    "faulty_scenario",
    "find_victims",
    "mesh_cell",
    "mesh_events",
    "overload_cells",
    "network_digest",
    "resume_mesh",
    "run_mesh",
    "report_fingerprint",
    "residual_requirement",
    "PromiseViolation",
    "RecoveryPolicy",
    "ResourceLoss",
    "Victim",
]
