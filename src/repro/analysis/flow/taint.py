"""Transitive nondeterminism and exactness taint.

The single-line rules (``wall-clock``, ``unseeded-random``,
``float-literal``) already forbid *direct* violations inside the
governed modules; this pass closes the interprocedural gap.  A helper in
``repro.intervals`` that calls ``time.time()`` is legal in isolation —
until ``repro.system`` calls the helper, at which point the replay
contract is broken two hops away from any governed file.

Propagation runs *backwards* over the call graph: every function that
directly touches a source is tainted, every caller of a tainted
function is tainted, and functions in the sanctioned transit modules
(``repro.observability`` — whose clock readings never feed back into
simulated state — and, for exactness, the declared float64 kernels)
absorb taint instead of carrying it.  Findings are reported at the
**boundary edge**: the call *from* a governed-module function *to* a
tainted function outside the governed scope, so the direct-call case
stays the line rules' business and nothing is double-reported.  Each
finding carries the full shortest witness chain
``caller → hop → … → source`` with ``path:line`` anchors.

A source line sanctioned by a reasoned ``# repro-lint: disable=`` naming
the matching line rule *or* the flow rule does not seed taint — the
human already vouched for it once; flow trusts the same sanction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.callgraph import FunctionNode, Program
from repro.analysis.lint.engine import Finding
from repro.analysis.lint.rules_code import (
    _AMBIENT_RANDOM_CALLS,
    _AMBIENT_RANDOM_PREFIXES,
    _CLOCK_CALLS,
    DETERMINISTIC_MODULES,
    EXACT_MODULES,
)

#: Modules whose functions absorb nondeterminism taint instead of
#: carrying it: the observability registry's clock reads are sanctioned
#: because their readings are strictly *telemetry* (PR 5 contract).
NONDET_EXEMPT_TRANSIT: Tuple[str, ...] = ("repro.observability",)

#: Modules whose functions absorb exactness taint: telemetry (floats
#: never flow back).
EXACT_EXEMPT_TRANSIT: Tuple[str, ...] = ("repro.observability",)

#: Environment reads: no line rule owns these, so flow reports even the
#: direct (chain-length-zero) case.
_ENV_CALLS = frozenset({"os.getenv", "os.environ.get", "os.getenvb"})


@dataclass(frozen=True)
class TaintSource:
    """Why a function is directly tainted."""

    kind: str  # "clock" | "random" | "entropy" | "env" | "float"
    detail: str  # e.g. "time.time()" / "float literal 0.5"
    line: int


def _in_modules(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _sanctioned(
    program: Program, fn: FunctionNode, line: int, rule_names: Sequence[str]
) -> bool:
    suppression = program.suppressions.get(fn.path, {}).get(line)
    if suppression is None or not suppression.has_reason:
        return False
    if not any(name in suppression.rules for name in rule_names):
        return False
    # Mark flow-rule sanctions used so they cannot go stale silently;
    # line-rule sanctions are marked by the line rules themselves.
    for name in suppression.rules:
        if name.startswith("flow-"):
            suppression.used.add(name)
    return True


def classify_external(dotted: str) -> Optional[Tuple[str, str]]:
    """``(kind, human detail)`` when ``dotted`` is a nondeterminism
    source, else ``None``.  ``random.Random`` / seeded ``default_rng``
    are the sanctioned constructors and never sources (the line rule
    polices their seed arguments where it matters)."""
    if dotted in _CLOCK_CALLS:
        return "clock", f"{dotted}() reads the host clock"
    if dotted == "random.SystemRandom" or dotted in _AMBIENT_RANDOM_CALLS:
        return "entropy", f"{dotted}() draws OS entropy"
    if dotted.startswith("random.") and dotted not in (
        "random.Random",
        "random.SystemRandom",
    ):
        return "random", f"{dotted}() uses the process-global RNG"
    if dotted.startswith(_AMBIENT_RANDOM_PREFIXES):
        if dotted == "numpy.random.default_rng":
            return None  # seeded-or-not is the line rule's call
        return "entropy", f"{dotted}() is ambient randomness"
    if dotted in _ENV_CALLS or dotted.startswith("os.environ."):
        return "env", f"{dotted}() reads the process environment"
    return None


def nondet_sources(program: Program, fn: FunctionNode) -> List[TaintSource]:
    out: List[TaintSource] = []
    for dotted, line in fn.external_calls:
        classified = classify_external(dotted)
        if classified is None:
            continue
        kind, detail = classified
        line_rule = {
            "clock": "wall-clock",
            "random": "unseeded-random",
            "entropy": "unseeded-random",
            "env": "flow-nondeterminism",  # no line rule owns env reads
        }[kind]
        if _sanctioned(program, fn, line, (line_rule, "flow-nondeterminism")):
            continue
        out.append(TaintSource(kind=kind, detail=detail, line=line))
    for detail, line in fn.env_reads:
        if _sanctioned(program, fn, line, ("flow-nondeterminism",)):
            continue
        out.append(
            TaintSource(
                kind="env",
                detail=f"{detail} reads the process environment",
                line=line,
            )
        )
    return out


def float_sources(program: Program, fn: FunctionNode) -> List[TaintSource]:
    out: List[TaintSource] = []
    for line in fn.float_lines:
        if _sanctioned(program, fn, line, ("float-literal", "flow-exactness")):
            continue
        out.append(TaintSource(kind="float", detail="bare float literal", line=line))
    return out


class _TaintMap:
    """Backward-propagated taint with witness reconstruction."""

    def __init__(
        self,
        program: Program,
        direct: Dict[str, List[TaintSource]],
        exempt_transit: Sequence[str],
    ) -> None:
        self.program = program
        self.direct = direct
        self.exempt = tuple(exempt_transit)
        #: qname -> (next hop qname or None for a direct source,
        #:           call line in qname that continues the chain,
        #:           the source at the chain's end)
        self.witness: Dict[str, Tuple[Optional[str], int, TaintSource]] = {}
        self._propagate()

    def _carries(self, qname: str) -> bool:
        fn = self.program.functions.get(qname)
        return fn is not None and not _in_modules(fn.module, self.exempt)

    def _propagate(self) -> None:
        program = self.program
        callers: Dict[str, List[Tuple[str, int]]] = {}
        for fn in program.functions.values():
            for callee, line, _kind in fn.calls:
                callers.setdefault(callee, []).append((fn.qname, line))
        queue: deque[str] = deque()
        for qname in sorted(self.direct):
            if not self._carries(qname):
                continue
            sources = self.direct[qname]
            if not sources:
                continue
            first = min(sources, key=lambda s: s.line)
            self.witness[qname] = (None, first.line, first)
            queue.append(qname)
        # BFS from the sources outward gives every tainted function a
        # *shortest* witness chain, deterministically (sorted seeds,
        # FIFO worklist, first-writer-wins).
        while queue:
            current = queue.popleft()
            source = self.witness[current][2]
            for caller, line in sorted(callers.get(current, [])):
                if caller in self.witness or not self._carries(caller):
                    continue
                self.witness[caller] = (current, line, source)
                queue.append(caller)

    def tainted(self, qname: str) -> bool:
        return qname in self.witness

    def chain(self, qname: str) -> List[Tuple[str, str, int]]:
        """``(qname, path, line)`` hops from ``qname`` down to the source
        line; the last entry anchors the source itself."""
        out: List[Tuple[str, str, int]] = []
        cursor: Optional[str] = qname
        while cursor is not None:
            nxt, line, _source = self.witness[cursor]
            fn = self.program.functions[cursor]
            out.append((cursor, fn.path, line))
            cursor = nxt
        return out


def _render_chain(
    caller: FunctionNode,
    call_line: int,
    hops: List[Tuple[str, str, int]],
    source: TaintSource,
) -> str:
    parts = [f"{caller.qname} ({caller.path}:{call_line})"]
    for qname, path, line in hops:
        parts.append(f"{qname} ({path}:{line})")
    parts.append(f"{source.detail} at {hops[-1][1]}:{hops[-1][2]}")
    return " -> ".join(parts)


def _boundary_findings(
    program: Program,
    taint: _TaintMap,
    *,
    rule: str,
    sink_modules: Sequence[str],
    contract: str,
) -> Iterator[Finding]:
    seen: Set[Tuple[str, int, str]] = set()
    for qname in sorted(program.functions):
        fn = program.functions[qname]
        if not _in_modules(fn.module, sink_modules):
            continue
        for callee, line, _kind in fn.calls:
            target = program.functions.get(callee)
            if target is None or not taint.tainted(callee):
                continue
            if _in_modules(target.module, sink_modules):
                continue  # intra-scope hop; report at the true boundary
            key = (qname, line, callee)
            if key in seen:
                continue
            seen.add(key)
            hops = taint.chain(callee)
            source = taint.witness[callee][2]
            yield Finding(
                path=fn.path,
                line=line,
                column=1,
                rule=rule,
                message=(
                    f"call into {callee} transitively reaches a source "
                    f"({source.detail}), {contract}; witness: "
                    + _render_chain(fn, line, hops, source)
                ),
            )


def nondeterminism_findings(
    program: Program,
    *,
    sink_modules: Sequence[str] = DETERMINISTIC_MODULES,
) -> Iterator[Finding]:
    direct = {
        qname: nondet_sources(program, fn)
        for qname, fn in program.functions.items()
    }
    taint = _TaintMap(program, direct, NONDET_EXEMPT_TRANSIT)
    yield from _boundary_findings(
        program,
        taint,
        rule="flow-nondeterminism",
        sink_modules=sink_modules,
        contract=(
            "which the replay-verify contract of deterministic modules "
            "forbids at any call depth"
        ),
    )
    # Direct environment reads inside the governed modules: no line rule
    # owns them, so the chain-length-zero case is flow's to report.
    for qname in sorted(program.functions):
        fn = program.functions[qname]
        if not _in_modules(fn.module, sink_modules):
            continue
        for source in direct.get(qname, ()):
            if source.kind != "env":
                continue
            yield Finding(
                path=fn.path,
                line=source.line,
                column=1,
                rule="flow-nondeterminism",
                message=(
                    f"{source.detail} inside deterministic module "
                    f"{fn.module}; configuration must arrive through "
                    "explicit plan/scenario parameters, never ambient "
                    "process state"
                ),
            )


def exactness_findings(
    program: Program,
    *,
    sink_modules: Sequence[str] = EXACT_MODULES,
) -> Iterator[Finding]:
    direct = {
        qname: float_sources(program, fn)
        for qname, fn in program.functions.items()
    }
    taint = _TaintMap(program, direct, EXACT_EXEMPT_TRANSIT)
    yield from _boundary_findings(
        program,
        taint,
        rule="flow-exactness",
        sink_modules=sink_modules,
        contract=(
            "smuggling rounding into the int/Fraction arithmetic the "
            "Theorem 1-4 procedures rely on"
        ),
    )
