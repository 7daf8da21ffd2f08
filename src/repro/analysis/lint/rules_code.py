"""Code rules protecting the replay-verify and exact-arithmetic contracts.

Two module families are governed:

* **Deterministic modules** (``repro.system``, ``repro.decision``,
  ``repro.faults``) — everything on the replay path.  The write-ahead
  journal (PR 3) re-executes these modules and verifies that pinned
  decisions recur bit-for-bit; any ambient nondeterminism (wall clocks,
  process-global RNGs, set iteration order, ``id()``-keyed ordering)
  silently breaks that contract in ways only a diverging replay reveals.

* **Exact-arithmetic modules** (``repro.resources``, ``repro.decision``)
  — the Theorem 1–4 decision procedures run on ``int``/``Fraction``
  arithmetic; a float literal (or a ``==``/``!=`` against one) smuggles
  rounding into proofs that are otherwise exact.  The sanctioned
  boundary is :func:`repro.resources.profile.is_exact` / ``EPSILON``;
  crossing it elsewhere needs a reasoned suppression.

All detection is purely syntactic over the AST with import-alias
resolution; the rules over-approximate nothing and under-approximate
consciously (a set reaching a loop through a variable is invisible) —
see docs/static-analysis.md for the catalogue and the blind spots.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.analysis.lint.engine import Finding, Rule, SourceFile, register

#: Modules whose behaviour must replay bit-identically (PR 3 journal).
DETERMINISTIC_MODULES: Tuple[str, ...] = (
    "repro.system",
    "repro.decision",
    "repro.faults",
    # The front door's shed/breaker/brownout decisions must replay
    # byte-identically under a fixed seed (PR 6).
    "repro.service",
    "repro.backoff",
    # Lease grant/renewal/expiry instants feed the conservation identity
    # and the partition-matrix replay oracle (PR 8).
    "repro.encapsulation",
)

#: Modules whose arithmetic must stay exact (int/Fraction only).
EXACT_MODULES: Tuple[str, ...] = (
    "repro.resources",
    "repro.decision",
)

#: Wall-clock and CPU-clock reads.  ``registry.now()`` (observability)
#: is the sanctioned route for *timing* because its readings never feed
#: back into simulated state.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_AMBIENT_RANDOM_PREFIXES = ("secrets.", "numpy.random.")
_AMBIENT_RANDOM_CALLS = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted things they import.

    ``import numpy.random as npr`` -> ``{"npr": "numpy.random"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted name of an expression, resolved through import aliases.

    Only chains rooted in an imported name resolve — a local variable
    that happens to be called ``random`` stays ``None``.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    aliases = import_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node, resolve_dotted(node.func, aliases)


@register
class WallClockRule(Rule):
    """No wall-clock reads on the replay path."""

    name = "wall-clock"
    description = (
        "no time.time()/datetime.now()-style clock reads in deterministic "
        "modules; replay-verify (PR 3) re-executes them and demands "
        "bit-identical behaviour — use event time or registry.now()"
    )
    scope = DETERMINISTIC_MODULES

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node, dotted in calls(source.tree):
            if dotted in _CLOCK_CALLS:
                yield self.finding(
                    source,
                    node,
                    f"{dotted}() reads the host clock inside deterministic "
                    f"module {source.module}; simulated time is the only "
                    "clock the replay contract admits",
                )


@register
class UnseededRandomRule(Rule):
    """All randomness must flow from an explicit seed."""

    name = "unseeded-random"
    description = (
        "no process-global or OS randomness (random.random, os.urandom, "
        "uuid4, secrets, numpy.random) in deterministic modules; "
        "construct random.Random(seed) instead"
    )
    scope = DETERMINISTIC_MODULES

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node, dotted in calls(source.tree):
            if dotted is None:
                continue
            if dotted == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        source,
                        node,
                        "random.Random() without a seed draws entropy from "
                        "the OS; pass the plan/scenario seed explicitly",
                    )
                continue
            if dotted == "random.SystemRandom" or dotted in _AMBIENT_RANDOM_CALLS:
                yield self.finding(
                    source,
                    node,
                    f"{dotted}() is OS entropy; deterministic modules must "
                    "derive all randomness from an explicit seed",
                )
            elif dotted.startswith("random."):
                yield self.finding(
                    source,
                    node,
                    f"{dotted}() uses the process-global RNG, whose state "
                    "any import can perturb; use a locally seeded "
                    "random.Random(seed)",
                )
            elif dotted.startswith(_AMBIENT_RANDOM_PREFIXES):
                if dotted == "numpy.random.default_rng" and (
                    node.args or node.keywords
                ):
                    continue  # explicitly seeded generator
                yield self.finding(
                    source,
                    node,
                    f"{dotted}() is ambient randomness; seed an explicit "
                    "generator instead",
                )


def _is_set_expr(node: ast.expr, aliases: Dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # set()/frozenset() are flagged only when the name still means the
        # builtin (not shadowed by an import).
        return node.func.id in ("set", "frozenset") and node.func.id not in aliases
    return False


@register
class SetIterationRule(Rule):
    """No order-dependent iteration over sets."""

    name = "set-iteration"
    description = (
        "no for-loops, comprehensions, or list()/tuple()/enumerate() over "
        "bare sets in deterministic modules — set order varies with "
        "PYTHONHASHSEED; wrap in sorted(...) to fix an order"
    )
    scope = DETERMINISTIC_MODULES

    _ORDER_SENSITIVE_WRAPPERS = ("list", "tuple", "enumerate", "iter")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        aliases = import_aliases(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter, aliases):
                yield self._finding(source, node.iter, "for-loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if _is_set_expr(generator.iter, aliases):
                        yield self._finding(source, generator.iter, "comprehension")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_SENSITIVE_WRAPPERS
                and node.func.id not in aliases
                and node.args
                and _is_set_expr(node.args[0], aliases)
            ):
                yield self._finding(source, node.args[0], f"{node.func.id}()")

    def _finding(self, source: SourceFile, node: ast.expr, where: str) -> Finding:
        return self.finding(
            source,
            node,
            f"{where} iterates a set in deterministic module "
            f"{source.module}; iteration order varies across processes "
            "(PYTHONHASHSEED) — sort it first (sorted(...) is sanctioned)",
        )


def _is_id_key(node: ast.expr) -> bool:
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    if isinstance(node, ast.Lambda):
        body = node.body
        return (
            isinstance(body, ast.Call)
            and isinstance(body.func, ast.Name)
            and body.func.id == "id"
        )
    return False


@register
class IdOrderingRule(Rule):
    """No ordering keyed on ``id()``."""

    name = "id-ordering"
    description = (
        "no sorted(..., key=id) / .sort(key=id) / min/max(key=id) in "
        "deterministic modules: id() is an address, different every run"
    )
    scope = DETERMINISTIC_MODULES

    _ORDERING_CALLS = ("sorted", "min", "max", "sort")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name not in self._ORDERING_CALLS:
                continue
            for keyword in node.keywords:
                if keyword.arg == "key" and _is_id_key(keyword.value):
                    yield self.finding(
                        source,
                        node,
                        f"{name}(key=id) orders by memory address, which "
                        "differs on every run and every replay; key on a "
                        "stable attribute (label, sequence number) instead",
                    )


@register
class FloatLiteralRule(Rule):
    """No float literals in exact-arithmetic modules."""

    name = "float-literal"
    description = (
        "no float literals in exact-arithmetic modules (resources, "
        "decision): Theorems 1-4 run on int/Fraction; the only sanctioned "
        "float is the EPSILON tolerance boundary next to is_exact() and "
        "the float-form zero beside it"
    )
    scope = EXACT_MODULES

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                yield self.finding(
                    source,
                    node,
                    f"float literal {node.value!r} in exact-arithmetic "
                    f"module {source.module}; use int/Fraction, or suppress "
                    "with a reason at a sanctioned tolerance boundary",
                )


def _is_float_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    return False


@register
class FloatCompareRule(Rule):
    """No exact equality against floats."""

    name = "float-compare"
    description = (
        "no ==/!= where an operand is a float literal or float(...) in "
        "exact-arithmetic modules; equality on floats is rounding "
        "roulette — compare exact values, or test a tolerance explicitly"
    )
    scope = EXACT_MODULES

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_operand(left) or _is_float_operand(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        source,
                        node,
                        f"{symbol} against a float in exact-arithmetic "
                        f"module {source.module}; exact values compare "
                        "exactly, floats never should",
                    )
