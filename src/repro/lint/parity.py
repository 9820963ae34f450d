"""P-rules: scalar vs batched engine counter parity.

PR 3's contract is that ``MemoryHierarchy.access_batch`` /
``access_code_batch`` are *bit-identical* to folding their scalar
counterparts over the reference stream.  The goldens catch a drift
after the fact; this rule rejects one shape of drift statically: a
stats counter mutated on one engine path but not the other.

For every class that defines both members of a configured entry-point
pair, the rule builds the intra-class call graph of each entry point —
following ``self._helper(...)`` calls **and** the hot-path idiom of
binding a method to a local first (``miss_fill = self._miss_fill``;
``miss_fill(...)``) — and collects every attribute-store whose target
name is a known stats counter (``self.energy.l1_accesses += n``,
``stats.hits += 1`` …).  The two closures' counter sets must be equal.

Granularity note: parity is checked on the *reachable-mutation set*,
not per call site.  A counter bumped by any helper shared between the
two paths (the design the hierarchy deliberately uses) satisfies the
rule; removing a counter from *all* batched-path sites is what the
rule — and the meta-test seeding exactly that mutation — catches.

Counter names are read from the AST of ``sim/stats.py`` (every ``int``
field with a ``0`` default on a ``*Stats`` dataclass), so a counter
added to the stats model is covered without touching the linter.

Cross-class reach: the hierarchy delegates some counter bumps to helper
objects it owns (``self.directory.lookup()`` bumps
``directory_lookups`` inside ``Directory``).  The closure therefore
also follows ``self.<attr>.<method>(...)`` calls for the attributes
named in ``_HELPER_ATTRS``, resolving the helper class's AST from the
project and walking *its* intra-class call graph.  Without this, a
counter moved behind a helper would silently leave both closures and
the rule would stop guarding it.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.core import ModuleSource, Project, Rule, Violation, register

__all__ = ["EngineCounterParityRule"]

#: (scalar entry point, batch entry point) pairs whose reachable
#: counter mutations must match, so a counter dropped from the batched
#: engine's mutation paths fails lint.
_PARITY_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("access", "access_batch"),
    ("access_code", "access_code_batch"),
)

_STATS_SUFFIX = ("sim", "stats.py")

#: Hierarchy-owned helper objects whose methods may mutate stats
#: counters on behalf of an engine path: attribute name on ``self`` →
#: (module path suffix, class name).  ``self.<attr>.<method>()`` calls
#: are followed into the named class's intra-class call graph.
_HELPER_ATTRS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "directory": (("memory", "mesi.py"), "Directory"),
    "dram": (("memory", "dram.py"), "MainMemory"),
}


def stats_counter_names(project: Project) -> FrozenSet[str]:
    """Integer counter fields of the ``*Stats`` dataclasses.

    Parsed statically from ``sim/stats.py``: an ``AnnAssign`` with a
    literal ``0`` default inside a class whose name ends in ``Stats``.
    Float energy-cost parameters (non-zero defaults) are excluded.
    """
    module = project.find(*_STATS_SUFFIX)
    if module is None:
        return frozenset()
    counters: Set[str] = set()
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith("Stats")):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value == 0
                and not isinstance(stmt.value.value, bool)
            ):
                counters.add(stmt.target.id)
    return frozenset(counters)


def _method_aliases(
    func: ast.FunctionDef, method_names: FrozenSet[str]
) -> Dict[str, str]:
    """Local names bound to ``self.<method>`` (hot-path bind idiom)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "self"
            and node.value.attr in method_names
        ):
            aliases[node.targets[0].id] = node.value.attr
    return aliases


def _called_methods(
    func: ast.FunctionDef, method_names: FrozenSet[str]
) -> Set[str]:
    aliases = _method_aliases(func, method_names)
    called: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr in method_names
        ):
            called.add(target.attr)
        elif isinstance(target, ast.Name) and target.id in aliases:
            called.add(aliases[target.id])
    return called


def _store_targets(node: ast.AST) -> List[ast.expr]:
    if isinstance(node, ast.AugAssign):
        return [node.target]
    if isinstance(node, ast.Assign):
        flat: List[ast.expr] = []
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                flat.extend(target.elts)
            else:
                flat.append(target)
        return flat
    return []


def _helper_methods(
    project: Project,
) -> Dict[str, Dict[str, ast.FunctionDef]]:
    """Resolve each ``_HELPER_ATTRS`` entry to its class's method table.

    Entries whose module or class is absent from the project (e.g. the
    trimmed-down lint fixture trees) are simply skipped; the rule then
    degrades to the intra-class check.
    """
    resolved: Dict[str, Dict[str, ast.FunctionDef]] = {}
    for attr, (suffix, class_name) in _HELPER_ATTRS.items():
        module = project.find(*suffix)
        if module is None:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                resolved[attr] = {
                    stmt.name: stmt
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef)
                }
                break
    return resolved


def _helper_calls(func: ast.FunctionDef) -> Set[Tuple[str, str]]:
    """``(attr, method)`` pairs for ``self.<attr>.<method>(...)`` calls."""
    calls: Set[Tuple[str, str]] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Attribute)
            and isinstance(target.value.value, ast.Name)
            and target.value.value.id == "self"
            and target.value.attr in _HELPER_ATTRS
        ):
            calls.add((target.value.attr, target.attr))
    return calls


def _mutated_counters(
    func: ast.FunctionDef, counters: FrozenSet[str]
) -> Set[str]:
    mutated: Set[str] = set()
    for node in ast.walk(func):
        for target in _store_targets(node):
            if isinstance(target, ast.Attribute) and target.attr in counters:
                mutated.add(target.attr)
    return mutated


def _closure(
    entry: str,
    methods: Dict[str, ast.FunctionDef],
    counters: FrozenSet[str],
    helpers: Optional[Dict[str, Dict[str, ast.FunctionDef]]] = None,
) -> Set[str]:
    """Counters mutated anywhere in ``entry``'s reachable call graph.

    The graph is intra-class (``self.<method>()`` plus the bound-local
    idiom), extended one hop into ``_HELPER_ATTRS`` objects: each
    ``self.<attr>.<method>()`` call recurses into the helper class's own
    intra-class closure.
    """
    method_names = frozenset(methods)
    seen: Set[str] = set()
    frontier = [entry]
    mutated: Set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        func = methods[name]
        mutated |= _mutated_counters(func, counters)
        if helpers:
            for attr, method in _helper_calls(func):
                helper_methods = helpers.get(attr)
                if helper_methods is not None and method in helper_methods:
                    mutated |= _closure(method, helper_methods, counters)
        frontier.extend(
            callee
            for callee in _called_methods(func, method_names)
            if callee not in seen
        )
    return mutated


@register
class EngineCounterParityRule(Rule):
    id = "P201"
    summary = "stats counter mutated on one engine path but not the other"
    family = "parity"

    def check_module(
        self, module: ModuleSource, project: Project
    ) -> Iterator[Violation]:
        counters = stats_counter_names(project)
        if not counters:
            return
        helpers = _helper_methods(project)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods: Dict[str, ast.FunctionDef] = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
            }
            for scalar_name, batch_name in _PARITY_PAIRS:
                if scalar_name not in methods or batch_name not in methods:
                    continue
                scalar_set = _closure(scalar_name, methods, counters, helpers)
                batch_set = _closure(batch_name, methods, counters, helpers)
                for counter in sorted(scalar_set - batch_set):
                    yield module.violation(
                        self.id,
                        methods[batch_name],
                        f"counter '{counter}' is mutated on the scalar "
                        f"path '{node.name}.{scalar_name}' but nowhere in "
                        f"the batched path '{batch_name}'",
                    )
                for counter in sorted(batch_set - scalar_set):
                    yield module.violation(
                        self.id,
                        methods[scalar_name],
                        f"counter '{counter}' is mutated on the batched "
                        f"path '{node.name}.{batch_name}' but nowhere in "
                        f"the scalar path '{scalar_name}'",
                    )
