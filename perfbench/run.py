"""The repository benchmark: one workload, one seed, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload admit-exact --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes a separate traced run that splits host time across the ``repro``
layers (see ``layers.py``).  Both check correctness: every episode's
invariants, plus the decision digest of the default seed's first
episode against ``pinned.json``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it repeat each metric by name with
its unit, and carry an ``env`` line (commit, Python, numpy, platform,
nproc, seed).

The benchmark builds nothing: it imports ``repro`` from the checkout's
own ``src`` directory and exits with status 2, printing no result,
when that is missing.  See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
#: working space for journals and checkpoints; each process uses its own
#: subdirectory and removes it before exiting
WORKDIR = ROOT / ".perfbench-work"

WORKLOAD_NAMES = ("admit-exact", "admit-float", "door-overload", "mesh-durable")
#: set-up probes per run; ``setup_s`` is their median
SETUP_PROBES = 7
#: every run issues at least this many decisions, so at least ten
#: latency samples lie beyond the p99
MIN_DECISIONS = 1000
#: Median duration of :func:`calibrate` on the reference host (2-core
#: x86-64 VM, Python 3.11.7).  Fixed for good: timings are reported at
#: this host speed, see :func:`calibrate`.
REFERENCE_CALIBRATION_S = 0.025


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: repro imported from {origin}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    On a shared virtual machine (measured: a 2-core x86-64 VM) the host
    speed drifts by +-25% over seconds to minutes, so raw timings of one
    code version spread wider than any useful regression bound.  The loop
    does the kind of work the profile algebra does (``Fraction``
    arithmetic, tuple/list/dict churn) with the garbage collector off, so
    it depends on neither ``repro`` nor the heap an episode leaves behind.
    ``REFERENCE_CALIBRATION_S / calibrate()`` is the host speed relative
    to the reference host; see :class:`SpeedMeter`.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        total = Fraction(0)
        table = {}
        for i in range(1, 8000):
            total += Fraction(i % 97, i % 13 + 1)
            table[i % 500] = (total, [i, i + 1])
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Host speed along one decision loop, for timings at reference speed.

    The loop calls :meth:`pause` before each decision call; at most every
    :data:`INTERVAL` seconds the meter runs :func:`calibrate` there.  A
    call's latency times the speed around it (reference time over the mean
    of the two calibrations that bracket it) is the latency the reference
    host would have seen.  Time spent calibrating is kept out of the loop's
    run time.
    """

    INTERVAL = 0.25

    def __init__(self) -> None:
        self.calls = 0
        self.spent = 0.0
        #: (index of the next call, calibration seconds)
        self.marks: List[tuple] = []
        self._mark()

    def _mark(self) -> float:
        started = perf_counter()
        self.marks.append((self.calls, calibrate()))
        self._last = perf_counter()
        return self._last - started

    def pause(self) -> None:
        if perf_counter() - self._last >= self.INTERVAL:
            self.spent += self._mark()
        self.calls += 1

    def speeds(self) -> List[float]:
        """One speed per call made, after a final calibration."""
        self._mark()
        marks, out, k = self.marks, [], 0
        for index in range(self.calls):
            while marks[k + 1][0] <= index:
                k += 1
            out.append(2 * REFERENCE_CALIBRATION_S / (marks[k][1] + marks[k + 1][1]))
        return out


def _no_pause() -> None:
    pass


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
@dataclass
class Episode:
    seed: int
    offered: int
    failed: int = 0
    setup_s: float = 0.0
    #: decision-loop time and per-call latencies, at reference speed when
    #: the episode was calibrated
    run_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: median host speed relative to the reference host (1.0 uncalibrated)
    speed: float = 1.0
    kept: int = 0
    digest: Optional[str] = None
    stats: Dict[str, float] = field(default_factory=dict)


def run_episode(
    workload, seed: int, workdir: Path, region=nullcontext, calibrated: bool = True,
) -> Episode:
    """One episode; a raise or a broken invariant fails all its requests.

    ``calibrated`` reports the decision loop at reference speed (see
    :class:`SpeedMeter`); uncalibrated episodes report raw host time."""
    state = None
    try:
        with region():
            started = perf_counter()
            state = workload.setup(seed, workdir)
            ready = perf_counter()
            meter = SpeedMeter() if calibrated else None
            loop_started = perf_counter()
            latencies = workload.drive(state, meter.pause if meter else _no_pause)
            done = perf_counter()
        outcome = workload.outcome(state)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        offered = state["offered"] if state else 1
        return Episode(seed, offered, failed=offered)
    for problem in outcome.problems:
        print(f"invariant failed (episode seed {seed}): {problem}", file=sys.stderr)
    run_s = done - loop_started
    speed = 1.0
    if meter is not None:
        run_s -= meter.spent
        speeds = meter.speeds()
        busy = sum(latencies)
        if busy:
            # The loop's own overhead between calls scales like the calls.
            run_s *= sum(x * v for x, v in zip(latencies, speeds)) / busy
        latencies = [x * v for x, v in zip(latencies, speeds)]
        speed = statistics.median(speeds) if speeds else 1.0
    return Episode(
        seed,
        outcome.offered,
        failed=outcome.offered if outcome.problems else 0,
        setup_s=ready - started,
        run_s=run_s,
        latencies=latencies,
        speed=speed,
        kept=outcome.kept,
        digest=outcome.digest,
        stats=outcome.stats,
    )


def run_episodes(
    workload, seed: int, workdir: Path, seconds: float, min_decisions: int,
) -> List[Episode]:
    """Episodes back to back until ``seconds`` have passed and at least
    ``min_decisions`` decisions were issued (always at least one)."""
    from cases import episode_seed

    episodes: List[Episode] = []
    started = perf_counter()
    decisions = 0
    index = 0
    while True:
        episode = run_episode(workload, episode_seed(seed, index), workdir)
        episodes.append(episode)
        index += 1
        decisions += len(episode.latencies) or episode.offered
        if perf_counter() - started >= seconds and decisions >= min_decisions:
            return episodes


def pinned_check(workload, workdir: Path, pins: Dict[str, str]) -> Episode:
    """The default seed's first episode, its digest compared to the pin
    (on a mismatch ``failed`` is set to ``offered``)."""
    from cases import DEFAULT_SEED, episode_seed

    episode = run_episode(
        workload, episode_seed(DEFAULT_SEED, 0), workdir, calibrated=False
    )
    print(f"pinned digest {pins.get(workload.name)} observed {episode.digest}")
    if episode.digest != pins.get(workload.name):
        print(f"digest mismatch on {workload.name}", file=sys.stderr)
        episode.failed = episode.offered
    return episode


def tally(episodes: List[Episode], pinned: Episode) -> tuple:
    """``(attempted, failed)`` requests of a run, the pinned episode
    included; a pinned-digest mismatch fails every one of them."""
    attempted = sum(e.offered for e in episodes) + pinned.offered
    failed = sum(e.failed for e in episodes) + pinned.failed
    return attempted, attempted if pinned.failed else failed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def setup_seconds(name: str, seed: int) -> float:
    """Median of :data:`SETUP_PROBES` fresh processes, each timing
    ``import repro`` + input generation + construction (at reference
    speed, see :func:`calibrate`)."""
    samples = []
    for index in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed + index)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def latency_blocks(episodes: List[Episode]) -> List[List[float]]:
    """Latencies at reference speed of consecutive episodes, in sorted
    blocks of at least :data:`MIN_DECISIONS` samples (a short tail joins
    the last block)."""
    blocks: List[List[float]] = []
    current: List[float] = []
    for episode in episodes:
        current.extend(episode.latencies)
        if len(current) >= MIN_DECISIONS:
            blocks.append(sorted(current))
            current = []
    if current:
        if blocks:
            blocks[-1] = sorted(blocks[-1] + current)
        else:
            blocks.append(sorted(current))
    return blocks


def end_to_end(episodes: List[Episode], setup_s: float, ok_frac: float) -> Dict[str, tuple]:
    """Timings at reference speed (see :func:`calibrate`), each the median
    over episodes (the p99 over blocks of at least :data:`MIN_DECISIONS`
    calls), so the episodes a burst of host load hits do not move it."""
    ok = [e for e in episodes if e.latencies]
    offered = sum(e.offered for e in episodes)

    def median(samples) -> float:
        samples = list(samples)
        return statistics.median(samples) if samples else 0.0

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "decisions_per_s": (
            median(len(e.latencies) / e.run_s for e in ok), "1/s"),
        "decision_p50_ms": (
            median(_quantile(sorted(e.latencies), 0.5) * 1e3 for e in ok),
            "ms"),
        "decision_p99_ms": (
            median(_quantile(b, 0.99) * 1e3 for b in latency_blocks(ok)), "ms"),
        "goodput_frac": (sum(e.kept for e in ok) / offered, "fraction"),
        "ok_frac": (ok_frac, "fraction"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(
    tracer, traced: List[Episode], untraced_wall: float, events: float,
) -> Dict[str, tuple]:
    """Per-layer metrics of the traced pass, per traced episode."""
    count = len(traced)
    summary = tracer.summary()
    wall = tracer.wall
    out: Dict[str, tuple] = {}
    for layer, row in summary.items():
        if layer.startswith("("):
            continue
        out[f"{layer}.calls"] = (row["calls"] / count, "count")
        out[f"{layer}.self_s"] = (row["self_s"] / count, "s")
        out[f"{layer}.share"] = (row["self_s"] / wall if wall else 0.0, "fraction")

    def total(key: str) -> float:
        return sum(e.stats.get(key, 0) for e in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    decide = sorted(tracer.durations("MeshPolicy.decide"))
    out.update({
        "decision.admit_ratio": (ratio(total("admitted"), total("decisions")), "fraction"),
        "decision.slack_breakpoints": (total("slack_breakpoints") / count, "count"),
        "service.shed_frac": (ratio(total("shed"), total("offered")), "fraction"),
        "service.max_queue_depth": (
            max(e.stats.get("max_queue_depth", 0) for e in traced), "count"),
        "service.brownout_entries": (total("brownout_entries") / count, "count"),
        "system.simulator.events": (events / count, "count"),
        "system.checkpoint.journal_records": (total("journal_records") / count, "count"),
        "system.checkpoint.snapshots": (total("snapshots") / count, "count"),
        "system.checkpoint.bytes": (total("bytes") / count, "bytes"),
        "system.channel.messages": (total("messages") / count, "count"),
        "system.channel.loss_frac": (ratio(total("messages_lost"), total("messages")), "fraction"),
        "system.channel.rpc_attempts_per_call": (
            ratio(total("rpc_attempts"), total("rpc_calls")), "ratio"),
        "encapsulation.lease_renewals": (total("lease_renewals") / count, "count"),
        "encapsulation.lease_expirations": (total("lease_expirations") / count, "count"),
        "faults.decide_p99_ms": (
            _quantile(decide, 0.99) * 1e3 if decide else 0.0, "ms"),
        "trace.overhead": (ratio(wall, untraced_wall), "ratio"),
    })
    return out


def traced_run(workload, seed: int, workdir: Path, seconds: float):
    """Pairs of episodes, each untraced and then traced, for half the
    budget (at least one pair).  Pairing puts both halves of
    ``trace.overhead`` on the same host speed.  The wrappers are installed
    only around the traced halves.  Returns (all episodes, the tracer,
    per-layer metrics)."""
    from repro.observability import MetricsRegistry, use_registry

    from cases import episode_seed
    from layers import Tracer

    tracer = Tracer()
    # The program's own metrics registry counts the simulator's events.
    registry = MetricsRegistry()
    plain: List[Episode] = []
    traced: List[Episode] = []
    started = perf_counter()
    while not plain or perf_counter() - started < seconds / 2:
        episode_at = episode_seed(seed, len(plain))
        plain.append(run_episode(workload, episode_at, workdir, calibrated=False))
        with tracer.installed(), use_registry(registry):
            traced.append(run_episode(
                workload, episode_at, workdir, tracer.recording, calibrated=False
            ))
    for before, after in zip(plain, traced):
        if before.digest != after.digest:
            print(f"traced run diverged on episode seed {before.seed}", file=sys.stderr)
            after.failed = after.offered
    events = sum(
        series["value"]
        for family in registry.snapshot()["metrics"]
        if family["name"] == "sim_events_applied_total"
        for series in family["series"]
    )
    untraced_wall = sum(e.setup_s + e.run_s for e in plain)
    return plain + traced, tracer, per_layer(tracer, traced, untraced_wall, events)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def environment(seed: int) -> Dict[str, object]:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        commit = probe.stdout.strip() or None
    # A checkout without git history still identifies its code.
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1: write every span as JSON lines")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        # Timed from before ``import repro`` to just before the first
        # decision; the parent process takes the median of several.
        started = perf_counter()
        _import_repro()
        from cases import WORKLOADS, episode_seed

        workdir = WORKDIR / f"probe-{os.getpid()}"
        try:
            WORKLOADS[args.workload].setup(episode_seed(args.seed, 0), workdir)
            elapsed = perf_counter() - started
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        calibrate()  # warm-up: the first pass specialises the bytecode
        print(elapsed * REFERENCE_CALIBRATION_S / calibrate())
        return 0

    _import_repro()
    from cases import WORKLOADS

    workload = WORKLOADS[args.workload]
    pins = json.loads(PINNED.read_text())
    workdir = WORKDIR / str(os.getpid())
    try:
        if args.trace:
            episodes, tracer, metrics = traced_run(
                workload, args.seed, workdir, args.seconds
            )
            if args.spans is not None:
                tracer.write_spans(args.spans)
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            episodes = run_episodes(
                workload, args.seed, workdir, args.seconds, MIN_DECISIONS
            )
        pinned = pinned_check(workload, workdir, pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    attempted, failed = tally(episodes, pinned)
    if not args.trace:
        metrics = end_to_end(episodes, setup_s, 1 - failed / attempted)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"episodes={len(episodes)}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    speeds = [e.speed for e in episodes if e.latencies]
    if speeds and not args.trace:
        print(f"host speed vs reference: median {statistics.median(speeds):.3f}"
              f" (min {min(speeds):.3f}, max {max(speeds):.3f})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
