"""Determinism taint: wall-clock/EWMA values stay out of replay artefacts.

The repo's headline reliability claim is *byte-identical recovery
ledgers per seed*: the :class:`~repro.core.supervisor.DurabilityLedger`
and the campaign determinism artefacts (the non-``metrics`` fields of
``BENCH_*.json`` and the ``*_ledger.json`` payloads) must be pure
functions of the seed. The PR-8 near-miss is the canonical hazard: the
shard health detector's transition reasons embed live EWMA readings
(``"error_ewma=0.412"``) fed from ``loop.time()`` round trips — book one
of those strings into the ledger and every run produces a different
artefact. That bug is *cross-module by nature*: the EWMA is folded and
formatted into a reason string by the shared health tracker in
``core/health.py``, carried out on a ``ShardTransition`` by the shard
adapter in ``cluster/health.py``, and booked two calls away in
``cluster/supervisor.py``.

This rule tracks that flow over the project call graph:

- **sources** — wall-clock calls (the ``time.time``/``perf_counter``/
  ``monotonic`` family, ``datetime.now``-family, ``loop.time()``);
  inside the wall-clock domain (``repro.net``, ``repro.cluster``), any
  read of an ``*ewma*``-named attribute; and, anywhere, reads of the
  fields listed in ``_WALL_TYPES`` on a value whose static type is known:
  the shard detector's ``ShardHealth`` EWMAs and baseline and its
  ``ShardTransition.reason``/``.at``. The tracker in ``repro.core`` does
  the EWMA arithmetic for devices (SimClock-fed, seed-deterministic) and
  shards (host-latency-fed) alike, so the module that does the math
  cannot tell the clock domains apart; the shard adapter's types can;
- **propagation** — through local assignment, arithmetic, f-strings and
  ``str.format``; *across functions* through returned values, through
  arguments into callee parameters, through constructor arguments into
  class fields (so a ``ShardTransition.reason`` built from an EWMA
  f-string taints ``transition.reason`` reads wherever the static type
  is known), and through ``self.x = tainted`` attribute stores;
- **sinks** — arguments of ``DurabilityLedger`` method calls (resolved
  via the graph, or any ``*.ledger.method()`` receiver chain), attribute
  stores on objects returned by ledger calls (``incident.reason = ...``),
  and — in ``repro.experiments`` — dict-literal fields in ``*bench*``
  functions *outside* the sanctioned ``"metrics"`` subtree, every field
  in ``*ledger*`` functions, and direct ``json.dump(s)`` arguments.

The ``"metrics"`` exemption encodes the existing convention: measured
wall-clock numbers (throughput, detection latency) belong under the
``metrics`` key, where the bench gate compares with tolerance; the
identity fields around them are compared exactly and must stay
deterministic.

Taint labels are per-parameter, so summaries compose: a helper whose
parameter reaches a ledger booking makes every call site passing tainted
data into that parameter a finding at the *call site* — the place the
fix belongs. Like every rule here the analysis is linear per function
(branches are not joined) and containers are opaque; it under-reports
rather than over-reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, ProjectRule, _matches_any
from repro.analysis.graph import CallSite, FunctionInfo, ProjectGraph

__all__ = ["DeterminismTaintRule"]

_REAL = "real"

#: Wall-clock calls: tainted everywhere.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}
#: Builtins that pass taint through from arguments to result.
_PASSTHROUGH = {"str", "repr", "format", "round", "abs", "min", "max", "float", "int"}
#: Modules whose EWMAs are host-latency-fed (reading one is a source).
_WALL_DOMAIN = ("repro.net", "repro.cluster")
#: Class fields that hold host-latency-fed values wherever they are read.
#: The shard detector's EWMA arithmetic and reason strings live in the
#: shared tracker in ``repro.core`` (seed-deterministic for devices), so
#: the shard side's clock domain is declared on the adapter's own types.
_WALL_TYPES: Dict[str, Tuple[str, ...]] = {
    "repro.cluster.health:ShardHealth": ("error_ewma", "slowdown_ewma", "baseline"),
    "repro.cluster.health:ShardTransition": ("at", "reason"),
}
#: Modules whose bench/ledger dict literals are artefact sinks.
_ARTEFACT_MODULES = ("repro.experiments",)
_LEDGER_CLASS = "DurabilityLedger"

Labels = FrozenSet[str]
_CLEAN: Labels = frozenset()
_REAL_ONLY: Labels = frozenset({_REAL})


def _is_wall_clock(dotted: Optional[str]) -> bool:
    if dotted is None:
        return False
    if dotted in _WALL_CLOCK_CALLS:
        return True
    # loop.time() heuristic: `<...loop>.time()` is the asyncio clock.
    parts = dotted.split(".")
    return len(parts) >= 2 and parts[-1] == "time" and parts[-2].endswith("loop")


def _is_ewma_name(name: str) -> bool:
    return "ewma" in name.lower()


def _chain_parts(func: ast.expr) -> Optional[List[str]]:
    """Raw attribute chain of a call target, e.g. ['self', 'ledger', 'f']."""
    parts: List[str] = []
    node: ast.expr = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


@dataclass
class _Facts:
    """Interprocedural facts, grown monotonically to a fixed point."""

    #: (function key, param name): the param receives tainted data somewhere.
    tainted_params: Set[Tuple[str, str]] = field(default_factory=set)
    #: Function keys whose return value is tainted.
    tainted_returns: Set[str] = field(default_factory=set)
    #: (class key, attr): the field holds tainted data somewhere.
    tainted_fields: Set[Tuple[str, str]] = field(default_factory=set)
    #: (function key, param name): the param value reaches a sink inside.
    param_sinks: Set[Tuple[str, str]] = field(default_factory=set)

    def size(self) -> int:
        return (
            len(self.tainted_params)
            + len(self.tainted_returns)
            + len(self.tainted_fields)
            + len(self.param_sinks)
        )


class DeterminismTaintRule(ProjectRule):
    rule_id = "determinism-taint"
    description = (
        "wall-clock/EWMA-derived values must not flow into "
        "DurabilityLedger bookings or the deterministic (non-metrics) "
        "fields of bench/ledger artefacts"
    )
    scope = ()  # repo-wide; the sinks define the surface

    def check_project(self, graph: ProjectGraph) -> List[Finding]:
        facts = _Facts()
        facts.tainted_fields.update(
            (class_key, attr)
            for class_key, attrs in _WALL_TYPES.items()
            for attr in attrs
        )
        # Grow summaries to a fixed point, then one reporting pass.
        for _ in range(24):
            before = facts.size()
            for key in graph.functions:
                _FunctionPass(graph, graph.functions[key], facts).run()
            if facts.size() == before:
                break
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, int, str]] = set()
        for key in graph.functions:
            info = graph.functions[key]
            for line, col, message in _FunctionPass(graph, info, facts).run():
                identity = (info.path, line, col, message)
                if identity not in seen:
                    seen.add(identity)
                    findings.append(
                        Finding(
                            path=info.path,
                            line=line,
                            col=col,
                            rule_id=self.rule_id,
                            message=message,
                            symbol=info.symbol,
                        )
                    )
        return findings


class _FunctionPass:
    """One linear taint pass over one function body.

    Running a pass both *reports* (returns local sink hits) and *learns*
    (adds interprocedural facts); facts only grow, so repeating passes
    over all functions converges.
    """

    def __init__(
        self, graph: ProjectGraph, info: FunctionInfo, facts: _Facts
    ) -> None:
        self.graph = graph
        self.info = info
        self.facts = facts
        self.locals: Dict[str, Labels] = {}
        #: Locals holding objects returned by ledger calls.
        self.ledger_locals: Set[str] = set()
        self.typed_locals: Dict[str, str] = {}
        self.hits: List[Tuple[int, int, str]] = []
        self._calls: Dict[Tuple[int, int], CallSite] = {
            (c.lineno, c.col): c for c in info.calls
        }
        for param in info.params:
            labels = {f"param:{param}"}
            if (info.key, param) in facts.tainted_params:
                labels.add(_REAL)
            self.locals[param] = frozenset(labels)
            raw = info.param_types.get(param)
            if raw is not None:
                resolved = graph.resolve_class(info.module, raw)
                if resolved is not None:
                    self.typed_locals[param] = resolved

    def run(self) -> List[Tuple[int, int, str]]:
        node = self.info.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                self._stmt(stmt)
            self._artefact_dict_sinks(node)
        return self.hits

    # -- statements ------------------------------------------------------
    def _stmt(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            self._assign(node.targets[0], node.value)
            return
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            self._assign(node.target, node.value)
            return
        if isinstance(node, ast.AugAssign):
            labels = self._eval(node.value)
            if isinstance(node.target, ast.Name):
                merged = self.locals.get(node.target.id, _CLEAN) | labels
                self.locals[node.target.id] = merged
            elif isinstance(node.target, ast.Attribute):
                self._attribute_store(node.target, labels, node)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                if _REAL in self._eval(node.value):
                    self.facts.tainted_returns.add(self.info.key)
            return
        # Evaluate bare expressions for their side effects (sink calls).
        if isinstance(node, ast.Expr):
            self._eval(node.value)
            return
        for child in ast.iter_child_nodes(node):
            self._stmt(child)

    def _assign(self, target: ast.expr, value: ast.expr) -> None:
        labels = self._eval(value)
        if isinstance(target, ast.Name):
            self.locals[target.id] = labels
            self.ledger_locals.discard(target.id)
            self.typed_locals.pop(target.id, None)
            if isinstance(value, ast.Call):
                if self._is_ledger_call(value):
                    self.ledger_locals.add(target.id)
                site = self._calls.get((value.lineno, value.col_offset))
                if site is not None and site.constructs is not None:
                    self.typed_locals[target.id] = site.constructs
        elif isinstance(target, ast.Attribute):
            self._attribute_store(target, labels, target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.locals[element.id] = labels

    def _attribute_store(
        self, target: ast.Attribute, labels: Labels, anchor: ast.AST
    ) -> None:
        base = target.value
        if not isinstance(base, ast.Name):
            return
        if base.id == "self" and self.info.class_key is not None:
            if _REAL in labels:
                self.facts.tainted_fields.add((self.info.class_key, target.attr))
            return
        if base.id in self.ledger_locals:
            self._sink(
                labels, anchor, f"booked on a ledger record via .{target.attr}"
            )
            return
        typed = self.typed_locals.get(base.id)
        if typed is not None and _REAL in labels:
            self.facts.tainted_fields.add((typed, target.attr))

    # -- expression taint ------------------------------------------------
    def _eval(self, node: ast.expr) -> Labels:
        if isinstance(node, ast.Name):
            return self.locals.get(node.id, _CLEAN)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, ast.JoinedStr):
            labels: Labels = _CLEAN
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    labels = labels | self._eval(value.value)
            return labels
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            labels = _CLEAN
            for element in node.elts:
                labels = labels | self._eval(element)
            return labels
        if isinstance(node, ast.Dict):
            # A "metrics"-keyed entry is the sanctioned container for
            # measured values; it does not taint the enclosing dict (the
            # strict ledger dict sink still inspects it directly).
            labels = _CLEAN
            for dict_key, dict_value in zip(node.keys, node.values):
                if dict_value is None:
                    continue
                if (
                    isinstance(dict_key, ast.Constant)
                    and dict_key.value == "metrics"
                ):
                    continue
                labels = labels | self._eval(dict_value)
            return labels
        if isinstance(node, ast.Subscript):
            return self._eval(node.value)
        return _CLEAN

    def _eval_attribute(self, node: ast.Attribute) -> Labels:
        if _is_ewma_name(node.attr) and _matches_any(self.info.module, _WALL_DOMAIN):
            return _REAL_ONLY
        base = node.value
        if isinstance(base, ast.Name):
            class_key: Optional[str] = None
            if base.id == "self":
                class_key = self.info.class_key
            else:
                class_key = self.typed_locals.get(base.id)
            if class_key is not None and self._field_tainted(class_key, node.attr):
                return _REAL_ONLY
        return _CLEAN

    def _field_tainted(self, class_key: str, attr: str) -> bool:
        """Field taint lookup, walking project base classes."""
        queue = [class_key]
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            if (current, attr) in self.facts.tainted_fields:
                return True
            cls = self.graph.classes.get(current)
            if cls is None:
                continue
            for base in cls.bases:
                base_key = self.graph.resolve_class(cls.module, base)
                if base_key is not None:
                    queue.append(base_key)
        return False

    # -- calls -----------------------------------------------------------
    def _site(self, node: ast.Call) -> Optional[CallSite]:
        return self._calls.get((node.lineno, node.col_offset))

    def _is_ledger_call(self, node: ast.Call) -> bool:
        parts = _chain_parts(node.func)
        if parts is not None and "ledger" in parts[:-1]:
            return True
        site = self._site(node)
        if site is not None and site.target is not None:
            target = self.graph.functions.get(site.target)
            if target is not None and target.class_key is not None:
                cls = self.graph.classes.get(target.class_key)
                if cls is not None and cls.name == _LEDGER_CLASS:
                    return True
        return False

    def _eval_call(self, node: ast.Call) -> Labels:
        site = self._site(node)
        arg_labels = [self._eval(arg) for arg in node.args]
        kw_labels = [(kw.arg, self._eval(kw.value)) for kw in node.keywords]
        dotted = site.dotted if site is not None else None

        if self._is_ledger_call(node):
            method = (
                node.func.attr if isinstance(node.func, ast.Attribute) else "call"
            )
            for labels in arg_labels:
                self._sink(labels, node, f"passed to DurabilityLedger.{method}()")
            for _, labels in kw_labels:
                self._sink(labels, node, f"passed to DurabilityLedger.{method}()")

        if site is not None and site.target is not None:
            self._propagate_into(site.target, node, arg_labels, kw_labels)
        if site is not None and site.constructs is not None:
            self._construct_fields(site.constructs, arg_labels, kw_labels)

        if self._in_artefact_module() and dotted in ("json.dumps", "json.dump"):
            for labels in arg_labels:
                self._sink(labels, node, "serialized into an artefact json")

        if _is_wall_clock(dotted):
            return _REAL_ONLY
        if isinstance(node.func, ast.Name) and node.func.id in _PASSTHROUGH:
            combined: Labels = _CLEAN
            for labels in arg_labels:
                combined = combined | labels
            return combined
        if isinstance(node.func, ast.Attribute) and node.func.attr == "format":
            combined = self._eval(node.func.value)
            for labels in arg_labels:
                combined = combined | labels
            for _, labels in kw_labels:
                combined = combined | labels
            return combined
        if site is not None and site.target in self.facts.tainted_returns:
            return _REAL_ONLY
        return _CLEAN

    def _map_args(
        self,
        callee: FunctionInfo,
        arg_labels: List[Labels],
        kw_labels: List[Tuple[Optional[str], Labels]],
    ) -> List[Tuple[str, Labels]]:
        pairs: List[Tuple[str, Labels]] = []
        params = callee.params
        for index, labels in enumerate(arg_labels):
            if index < len(params):
                pairs.append((params[index], labels))
        for name, labels in kw_labels:
            if name is not None and name in params:
                pairs.append((name, labels))
        return pairs

    def _propagate_into(
        self,
        target_key: str,
        node: ast.Call,
        arg_labels: List[Labels],
        kw_labels: List[Tuple[Optional[str], Labels]],
    ) -> None:
        callee = self.graph.functions.get(target_key)
        if callee is None:
            return
        for param, labels in self._map_args(callee, arg_labels, kw_labels):
            if _REAL in labels:
                self.facts.tainted_params.add((callee.key, param))
            if (callee.key, param) in self.facts.param_sinks:
                self._sink(
                    labels,
                    node,
                    f"reaches a ledger/artefact sink inside "
                    f"{callee.module}.{callee.symbol}() via parameter {param!r}",
                )

    def _construct_fields(
        self,
        class_key: str,
        arg_labels: List[Labels],
        kw_labels: List[Tuple[Optional[str], Labels]],
    ) -> None:
        cls = self.graph.classes.get(class_key)
        if cls is None:
            return
        init_key = self.graph.mro_method(class_key, "__init__")
        if init_key is not None and init_key in self.graph.functions:
            fields: Tuple[str, ...] = self.graph.functions[init_key].params
        else:
            fields = cls.fields  # NamedTuple/dataclass declaration order
        for index, labels in enumerate(arg_labels):
            if _REAL in labels and index < len(fields):
                self.facts.tainted_fields.add((class_key, fields[index]))
        for name, labels in kw_labels:
            if _REAL in labels and name is not None and name in fields:
                self.facts.tainted_fields.add((class_key, name))

    # -- artefact dict sinks ---------------------------------------------
    def _in_artefact_module(self) -> bool:
        return _matches_any(self.info.module, _ARTEFACT_MODULES)

    def _artefact_dict_sinks(self, node: ast.AST) -> None:
        """Dict-literal sinks for bench/ledger report builders.

        In ``repro.experiments``: a function whose name contains ``bench``
        has its dict-literal values checked outside any ``"metrics"`` key;
        a function whose name contains ``ledger`` has every value checked
        (that dict *is* the determinism artefact). Evaluation uses the
        post-walk local environment — an approximation consistent with the
        linear model used everywhere else in this rule.
        """
        if not self._in_artefact_module():
            return
        name = self.info.name.lower()
        strict = "ledger" in name
        if "bench" not in name and not strict:
            return

        nested: Set[int] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Dict):
                for value in stmt.values:
                    if isinstance(value, ast.Dict):
                        nested.add(id(value))

        def check_dict(d: ast.Dict) -> None:
            for key_node, value in zip(d.keys, d.values):
                if value is None:
                    continue
                key_name = (
                    key_node.value
                    if isinstance(key_node, ast.Constant)
                    and isinstance(key_node.value, str)
                    else None
                )
                if not strict and key_name == "metrics":
                    continue  # sanctioned measurement section
                if isinstance(value, ast.Dict):
                    check_dict(value)
                else:
                    where = (
                        f"written to artefact field {key_name!r}"
                        if key_name is not None
                        else "written to an artefact field"
                    )
                    self._sink(self._eval(value), value, where)

        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Dict) and id(stmt) not in nested:
                check_dict(stmt)

    def _sink(self, labels: Labels, node: ast.AST, where: str) -> None:
        if _REAL in labels:
            self.hits.append(
                (
                    getattr(node, "lineno", self.info.lineno),
                    getattr(node, "col_offset", 0),
                    f"wall-clock/EWMA-derived value {where}; deterministic "
                    "artefacts must be pure functions of the seed (keep "
                    "measurements in the bench 'metrics' section or in "
                    "diagnostics outside the ledger)",
                )
            )
        for label in labels:
            if label.startswith("param:"):
                self.facts.param_sinks.add((self.info.key, label[6:]))
