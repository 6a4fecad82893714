"""Cross-module project rules SLK101–SLK107.

Each rule sees the whole :class:`~repro.lint.project.graph.ProjectGraph`
rather than one file, so it can reason about reachability, registration
exhaustiveness, and dataflow across import boundaries.  All rules share
the framework's suppression machinery: a ``# slackerlint:
disable=SLK10x`` pragma in the module where the finding lands filters
it (and records the pragma as used).

The cardinal design rule: **unresolved means no finding**.  Every
check here fires only on names the graph resolved to a concrete
project symbol (or an exact well-known external like ``time.sleep``);
anything dynamic stays silent rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Type

from ..config import LintConfig
from ..framework import Finding
from ..rules import _OBS_NAMING_METHODS, _OBS_RECEIVERS, WALL_CLOCK_CALLS
from . import dataflow
from .graph import ClassInfo, FunctionInfo, ModuleInfo, ProjectGraph, dotted_name

__all__ = [
    "ProjectRule",
    "register_project",
    "all_project_rules",
]

#: Registry of project-level rules, keyed by rule id.
_PROJECT_REGISTRY: dict[str, Type["ProjectRule"]] = {}


def register_project(rule_cls: Type["ProjectRule"]) -> Type["ProjectRule"]:
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no id")
    if rule_cls.id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate project rule id {rule_cls.id}")
    _PROJECT_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_project_rules() -> dict[str, Type["ProjectRule"]]:
    return dict(_PROJECT_REGISTRY)


def _in_prefixes(rel_path: str, prefixes: tuple[str, ...]) -> bool:
    return any(rel_path.startswith(prefix) for prefix in prefixes)


class ProjectRule:
    """Base class: run over a graph, accumulate suppressed-aware findings."""

    id: str = ""
    summary: str = ""

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def scope(
        self, graph: ProjectGraph, config: LintConfig
    ) -> Iterable[ModuleInfo]:
        """Modules this rule is considered to have *run on* (for the
        unused-pragma accounting).  Default: every module."""
        return graph.modules.values()

    def run(self, graph: ProjectGraph, config: LintConfig) -> list[Finding]:
        raise NotImplementedError

    def report(
        self, module: ModuleInfo, line: int, col: int, message: str
    ) -> None:
        if module.pragmas.suppresses(self.id, line):
            return
        self.findings.append(
            Finding(
                path=module.path,
                line=line,
                col=col + 1,
                rule=self.id,
                message=message,
            )
        )


# ---------------------------------------------------------------------------
# SLK101: sim-process blocking-call reachability
# ---------------------------------------------------------------------------

#: Exact call targets that block on the OS or read the wall clock.
_BLOCKING_EXACT = frozenset(WALL_CLOCK_CALLS) | frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "input",
        "urllib.request.urlopen",
    }
)
#: Call-target prefixes whose whole families block.
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "requests.", "http.client.")


def _blocking_target(target: str) -> bool:
    return target in _BLOCKING_EXACT or target.startswith(_BLOCKING_PREFIXES)


@register_project
class SimBlockingReachability(ProjectRule):
    """Generator processes must stay inside simulated time.

    A SimPy-style process is a generator driven by the simulation
    environment; if it (transitively) calls ``time.sleep``,
    ``subprocess``, sockets, or any wall-clock read, the simulation
    silently mixes real time into virtual time.  This walks the call
    graph from every generator in ``sim_scope`` and flags the call
    site, with the chain that reaches the blocking call.
    """

    id = "SLK101"
    summary = (
        "simulation generator process transitively reaches a "
        "wall-clock/OS-blocking call"
    )

    def scope(
        self, graph: ProjectGraph, config: LintConfig
    ) -> Iterable[ModuleInfo]:
        if not config.sim_scope:
            return []
        return [
            m
            for m in graph.modules.values()
            if _in_prefixes(m.rel_path, config.sim_scope)
            and not _in_prefixes(m.rel_path, config.sim_exclude)
        ]

    def run(self, graph: ProjectGraph, config: LintConfig) -> list[Finding]:
        scope_modules = list(self.scope(graph, config))
        #: qualname -> shortest chain of qualnames ending in a blocking
        #: target, or None when nothing blocking is reachable.
        self._memo: dict[str, Optional[tuple[str, ...]]] = {}
        self._graph = graph
        for module in scope_modules:
            for func in module.iter_functions():
                if not func.is_generator:
                    continue
                for call, target in graph.call_targets(func):
                    chain = self._chain_from(target, frozenset({func.qualname}))
                    if chain is None:
                        continue
                    rendered = " -> ".join((f"{func.qualname}()", *chain))
                    self.report(
                        module,
                        call.lineno,
                        call.col,
                        f"sim process reaches blocking call: {rendered}",
                    )
        return self.findings

    def _chain_from(
        self, target: str, seen: frozenset[str]
    ) -> Optional[tuple[str, ...]]:
        """Chain of calls from ``target`` to a blocking call, inclusive."""
        if _blocking_target(target):
            return (f"{target}()",)
        if target in seen:
            return None
        if target in self._memo:
            return self._memo[target]
        func = self._graph.functions.get(target)
        if func is None:
            return None
        self._memo[target] = None  # cycle guard for re-entry via memo
        best: Optional[tuple[str, ...]] = None
        for _, callee in self._graph.call_targets(func):
            sub = self._chain_from(callee, seen | {target})
            if sub is not None and (best is None or len(sub) + 1 < len(best)):
                best = (f"{target}()", *sub)
        self._memo[target] = best
        return best


# ---------------------------------------------------------------------------
# SLK102: protocol message/handler exhaustiveness
# ---------------------------------------------------------------------------


@register_project
class ProtocolExhaustiveness(ProjectRule):
    """Every registered wire message has a dispatch arm, and vice versa.

    Messages are classes decorated with ``register_message``; dispatch
    functions are those whose name contains a ``dispatch_markers``
    substring.  A registered message no dispatch function ever
    ``isinstance``-checks is unhandled (it would fall through to the
    dead-letter path); an ``isinstance`` arm against an *unregistered*
    class from a message-declaring module is a message that can never
    arrive.
    """

    id = "SLK102"
    summary = "protocol message registry and dispatch arms disagree"

    def run(self, graph: ProjectGraph, config: LintConfig) -> list[Finding]:
        registered = self._registered_messages(graph)
        if not registered:
            return self.findings
        message_modules = {cls.module for cls in registered.values()}
        dispatchers = [
            (module, func)
            for module in graph.modules.values()
            for func in module.iter_functions()
            if any(mark in func.name.lower() for mark in config.dispatch_markers)
        ]
        if not dispatchers:
            return self.findings
        handled: set[str] = set()
        for module, func in dispatchers:
            for call, class_name in self._isinstance_targets(func.node):
                target = graph.resolve(module, class_name)
                if target in registered:
                    handled.add(target)
                elif (
                    target in graph.classes
                    and graph.classes[target].module in message_modules
                ):
                    self.report(
                        module,
                        call.lineno,
                        call.col_offset,
                        f"dispatch arm handles `{class_name}`, which is not "
                        "a registered protocol message (missing "
                        "@register_message?)",
                    )
        for qualname in sorted(registered):
            if qualname in handled:
                continue
            cls = registered[qualname]
            module = graph.modules[cls.module]
            self.report(
                module,
                cls.lineno,
                cls.col,
                f"registered message `{cls.name}` has no isinstance arm in "
                "any dispatch function — it will hit the dead-letter path",
            )
        return self.findings

    @staticmethod
    def _registered_messages(graph: ProjectGraph) -> dict[str, ClassInfo]:
        registered: dict[str, ClassInfo] = {}
        for module in graph.modules.values():
            for cls in module.classes.values():
                for dec in cls.decorators:
                    resolved = graph.resolve(module, dec)
                    if resolved == "register_message" or resolved.endswith(
                        ".register_message"
                    ):
                        registered[cls.qualname] = cls
                        break
        return registered

    @staticmethod
    def _isinstance_targets(func_node: ast.AST) -> list[tuple[ast.Call, str]]:
        """(call, dotted class name) for every isinstance check."""
        out: list[tuple[ast.Call, str]] = []
        for node in ast.walk(func_node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            second = node.args[1]
            elements = second.elts if isinstance(second, ast.Tuple) else [second]
            for element in elements:
                name = dotted_name(element)
                if name is not None:
                    out.append((node, name))
        return out


# ---------------------------------------------------------------------------
# SLK103: state-machine conformance
# ---------------------------------------------------------------------------


@register_project
class StateMachineConformance(ProjectRule):
    """Transition tables and their call sites must agree.

    For every module-level ``*TRANSITIONS`` dict keyed by enum members:
    all members appear as keys, all declared targets are members, every
    ``_transition(Phase.X)`` call site targets a declared edge, every
    phase outside the no-abort set can still reach ``ABORTED``, and
    every phase reaches a terminal phase (one with no outgoing edges).
    """

    id = "SLK103"
    summary = "state-machine transition table and call sites disagree"

    def run(self, graph: ProjectGraph, config: LintConfig) -> list[Finding]:
        for module in graph.modules.values():
            for const_name, value in module.constants.items():
                if not const_name.endswith("TRANSITIONS"):
                    continue
                if not isinstance(value, ast.Dict):
                    continue
                self._check_table(graph, module, const_name, value)
        return self.findings

    def _check_table(
        self,
        graph: ProjectGraph,
        module: ModuleInfo,
        const_name: str,
        table: ast.Dict,
    ) -> None:
        edges: dict[str, set[str]] = {}
        enum_qual: Optional[str] = None
        for key, value in zip(table.keys, table.values):
            member = self._member_of(key)
            if member is None:
                return  # not an enum-keyed table; out of scope
            cls_name, member_name = member
            resolved = graph.resolve(module, cls_name)
            if enum_qual is None:
                enum_qual = resolved
            elif resolved != enum_qual:
                return  # mixed key types; out of scope
            edges[member_name] = {
                name
                for _, name in self._member_attrs(value, graph, module, enum_qual)
            }
        if enum_qual is None:
            return
        enum_cls = graph.classes.get(enum_qual)
        if enum_cls is None:
            return
        members = self._enum_members(enum_cls)
        if not members:
            return

        line, col = table.lineno, table.col_offset
        for member in sorted(members - set(edges)):
            self.report(
                module,
                line,
                col,
                f"{const_name}: enum member `{member}` has no entry — "
                "add it (terminal phases get an empty edge set)",
            )
        for source in sorted(edges):
            for target in sorted(edges[source] - members):
                self.report(
                    module,
                    line,
                    col,
                    f"{const_name}: `{source}` declares a transition to "
                    f"`{target}`, which is not a member of {enum_cls.name}",
                )

        self._check_call_sites(graph, module, const_name, enum_qual, edges)
        self._check_reachability(module, const_name, enum_cls, edges)

    def _check_call_sites(
        self,
        graph: ProjectGraph,
        module: ModuleInfo,
        const_name: str,
        enum_qual: str,
        edges: dict[str, set[str]],
    ) -> None:
        declared_targets = set().union(*edges.values()) if edges else set()
        for mod in graph.modules.values():
            for func in mod.iter_functions():
                for node in ast.walk(func.node):
                    if not (
                        isinstance(node, ast.Call)
                        and node.args
                        and (dotted_name(node.func) or "").split(".")[-1]
                        == "_transition"
                    ):
                        continue
                    member = self._member_of(node.args[0])
                    if member is None:
                        continue
                    cls_name, member_name = member
                    if graph.resolve(mod, cls_name) != enum_qual:
                        continue
                    if member_name not in declared_targets:
                        self.report(
                            mod,
                            node.lineno,
                            node.col_offset,
                            f"_transition({cls_name}.{member_name}) has no "
                            f"incoming edge in {const_name} — the call can "
                            "only raise",
                        )

    def _check_reachability(
        self,
        module: ModuleInfo,
        const_name: str,
        enum_cls: ClassInfo,
        edges: dict[str, set[str]],
    ) -> None:
        terminals = {m for m, targets in edges.items() if not targets}
        abort_like = {m for m in edges if m in ("ABORTED", "ABORT", "FAILED")}
        no_abort = self._no_abort_members(module)
        line = enum_cls.lineno if enum_cls.module == module.name else 1
        for source in sorted(edges):
            reachable = self._reachable_from(source, edges)
            if abort_like and source not in no_abort | abort_like | terminals:
                if not reachable & abort_like:
                    self.report(
                        module,
                        line,
                        0,
                        f"{const_name}: `{source}` is abortable (not in the "
                        "no-abort set) but has no path to "
                        f"{'/'.join(sorted(abort_like))}",
                    )
            if source not in terminals and not reachable & terminals:
                self.report(
                    module,
                    line,
                    0,
                    f"{const_name}: `{source}` cannot reach any terminal "
                    "phase — runs entering it never finish",
                )

    def _no_abort_members(self, module: ModuleInfo) -> set[str]:
        for const_name, value in module.constants.items():
            if const_name.endswith("NO_ABORT_PHASES"):
                return {
                    name.rpartition(".")[2]
                    for name in (
                        dotted_name(n)
                        for n in ast.walk(value)
                        if isinstance(n, ast.Attribute)
                    )
                    if name is not None
                }
        return set()

    @staticmethod
    def _reachable_from(source: str, edges: dict[str, set[str]]) -> set[str]:
        seen: set[str] = set()
        queue = list(edges.get(source, ()))
        while queue:
            node = queue.pop()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(edges.get(node, ()))
        return seen

    @staticmethod
    def _member_of(node: ast.expr) -> Optional[tuple[str, str]]:
        """``Phase.X`` -> ("Phase", "X"); anything else -> None."""
        name = dotted_name(node)
        if name is None or "." not in name:
            return None
        prefix, _, member = name.rpartition(".")
        return prefix, member

    def _member_attrs(
        self,
        node: ast.expr,
        graph: ProjectGraph,
        module: ModuleInfo,
        enum_qual: str,
    ) -> list[tuple[str, str]]:
        """Enum-member references anywhere inside ``node``."""
        out: list[tuple[str, str]] = []
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Attribute):
                continue
            member = self._member_of(sub)
            if member is None:
                continue
            cls_name, member_name = member
            if graph.resolve(module, cls_name) == enum_qual:
                out.append((cls_name, member_name))
        return out

    @staticmethod
    def _enum_members(cls: ClassInfo) -> set[str]:
        if not any(base.split(".")[-1] in ("Enum", "IntEnum") for base in cls.bases):
            return set()
        members: set[str] = set()
        for stmt in cls.node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        members.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                members.add(stmt.target.id)
        return members


# ---------------------------------------------------------------------------
# SLK104: units-flow mismatch
# ---------------------------------------------------------------------------


@register_project
class UnitsFlow(ProjectRule):
    """Seconds/millis/bytes/pages must not mix without conversion.

    Runs the intra-procedural dataflow pass
    (:mod:`repro.lint.project.dataflow`) over every function in
    ``units_flow_scope`` and reports each inferred mismatch.
    """

    id = "SLK104"
    summary = "arithmetic/assignment/call mixes incompatible unit kinds"

    def scope(
        self, graph: ProjectGraph, config: LintConfig
    ) -> Iterable[ModuleInfo]:
        if not config.units_flow_scope:
            return []
        return [
            m
            for m in graph.modules.values()
            if _in_prefixes(m.rel_path, config.units_flow_scope)
        ]

    def run(self, graph: ProjectGraph, config: LintConfig) -> list[Finding]:
        for module in self.scope(graph, config):
            for func in module.iter_functions():
                for node, message in dataflow.check_function(func, module, graph):
                    self.report(
                        module,
                        getattr(node, "lineno", func.lineno),
                        getattr(node, "col_offset", 0),
                        message,
                    )
        return self.findings


# ---------------------------------------------------------------------------
# SLK105: cross-module obs-name resolution
# ---------------------------------------------------------------------------


@register_project
class ObsNameResolution(ProjectRule):
    """Metric/span names must resolve to constants in the names registry.

    The per-file SLK010 insists instrumentation sites pass ``names.X``
    rather than string literals; this rule closes the loop across
    modules: every ``names.X`` (however imported) must be a constant
    that actually exists in ``obs_names_module``, and obs calls must
    not smuggle in name constants defined elsewhere.
    """

    id = "SLK105"
    summary = "obs name does not resolve to a constant in the names registry"

    def run(self, graph: ProjectGraph, config: LintConfig) -> list[Finding]:
        names_module = graph.modules.get(config.obs_names_module)
        if names_module is None:
            return self.findings
        defined = (
            set(names_module.constants)
            | set(names_module.functions)
            | set(names_module.classes)
        )
        prefix = names_module.name + "."
        for module in graph.modules.values():
            if module.name == names_module.name:
                continue
            self._check_imports(module, names_module, defined)
            self._check_attributes(graph, module, prefix, defined)
            self._check_obs_calls(graph, module, names_module)
        return self.findings

    def _check_imports(
        self, module: ModuleInfo, names_module: ModuleInfo, defined: set[str]
    ) -> None:
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ImportFrom):
                continue
            package = (
                module.name if module.is_package else module.name.rpartition(".")[0]
            )
            base = ProjectGraph._import_base(stmt, module, package)
            if base != names_module.name:
                continue
            for alias in stmt.names:
                if alias.name != "*" and alias.name not in defined:
                    self.report(
                        module,
                        stmt.lineno,
                        stmt.col_offset,
                        f"`{alias.name}` is not defined in "
                        f"{names_module.name} — typo or missing registry "
                        "entry",
                    )

    def _check_attributes(
        self,
        graph: ProjectGraph,
        module: ModuleInfo,
        prefix: str,
        defined: set[str],
    ) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            if dotted is None:
                continue
            resolved = graph.resolve(module, dotted)
            if not resolved.startswith(prefix):
                continue
            rest = resolved[len(prefix) :]
            if "." in rest or rest in defined:
                continue
            self.report(
                module,
                node.lineno,
                node.col_offset,
                f"`{dotted}` resolves to {resolved}, but the names "
                "registry defines no such constant",
            )

    def _check_obs_calls(
        self, graph: ProjectGraph, module: ModuleInfo, names_module: ModuleInfo
    ) -> None:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _OBS_NAMING_METHODS
                and self._obs_receiver(node.func.value)
            ):
                continue
            arg = node.args[0]
            dotted = dotted_name(arg)
            if dotted is None:
                continue
            resolved = graph.resolve(module, dotted)
            owner, _, const = resolved.rpartition(".")
            owner_module = graph.modules.get(owner)
            if (
                owner_module is not None
                and owner_module.name != names_module.name
                and const in owner_module.constants
            ):
                self.report(
                    module,
                    arg.lineno,
                    arg.col_offset,
                    f"obs name `{dotted}` resolves to a constant in "
                    f"{owner_module.name}; all metric/span names belong in "
                    f"{names_module.name}",
                )

    @staticmethod
    def _obs_receiver(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in _OBS_RECEIVERS
        if isinstance(node, ast.Attribute):
            return node.attr in _OBS_RECEIVERS
        return False


# ---------------------------------------------------------------------------
# SLK106: placement migrations go through the wave executor
# ---------------------------------------------------------------------------



@register_project
class PlacementLaunchPath(ProjectRule):
    """Placement code must launch migrations via the budget ledger.

    The slack-budget invariant (no node's inbound + outbound stream
    shares ever exceed its capacity) only holds if every migration the
    placement layer starts is admitted through the wave executor's
    ledger.  A direct ``node.migrate_tenant(...)`` call anywhere else
    under ``placement_scope`` bypasses admission control — it can silently
    oversubscribe a node the moment two code paths race.  Only the
    modules in ``placement_launch_allow`` (the executor itself) may
    call the node verb.
    """

    id = "SLK106"
    summary = (
        "placement code launches a migration directly instead of "
        "through the wave executor's budget ledger"
    )

    def scope(
        self, graph: ProjectGraph, config: LintConfig
    ) -> Iterable[ModuleInfo]:
        if not config.placement_scope:
            return []
        return [
            m
            for m in graph.modules.values()
            if _in_prefixes(m.rel_path, config.placement_scope)
            and not _in_prefixes(m.rel_path, config.placement_launch_allow)
        ]

    def run(self, graph: ProjectGraph, config: LintConfig) -> list[Finding]:
        for module in self.scope(graph, config):
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "migrate_tenant"
                ):
                    continue
                self.report(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"`.{node.func.attr}(...)` bypasses the wave executor's "
                    "slack-budget admission — launch placement migrations "
                    "through WaveExecutor.launch_wave so per-node budgets "
                    "stay enforced",
                )
        return self.findings


# ---------------------------------------------------------------------------
# SLK107: migration-scope protocol frames carry their fencing token
# ---------------------------------------------------------------------------


@register_project
class FencingTokenRequired(ProjectRule):
    """Token-bearing protocol frames must be built with ``token=``.

    The fencing invariant (a stale owner's frames bounce off every
    receiver) only holds if each migration protocol message carries the
    sender's fencing token.  The wire default of 0 exists solely for
    the lease-free legacy path — a frame constructed in migration scope
    without ``token=`` silently rides that unfenced path and defeats
    the staleness check.  The rule finds every registered message class
    declaring a ``token`` field and requires any construction of it
    under ``fencing_scope`` to pass ``token=`` explicitly (or spread
    ``**kwargs`` that may carry it).  Deliberately unfenced legacy
    constructors take a line pragma.
    """

    id = "SLK107"
    summary = (
        "migration protocol frame constructed without its fencing token"
    )

    def scope(
        self, graph: ProjectGraph, config: LintConfig
    ) -> Iterable[ModuleInfo]:
        if not config.fencing_scope:
            return []
        return [
            m
            for m in graph.modules.values()
            if _in_prefixes(m.rel_path, config.fencing_scope)
        ]

    def run(self, graph: ProjectGraph, config: LintConfig) -> list[Finding]:
        registered = ProtocolExhaustiveness._registered_messages(graph)
        tokened = {
            qualname
            for qualname, cls in registered.items()
            if any(
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "token"
                for stmt in cls.node.body
            )
        }
        if not tokened:
            return self.findings
        for module in self.scope(graph, config):
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                target = graph.resolve(module, name)
                if target not in tokened:
                    continue
                if any(
                    kw.arg == "token" or kw.arg is None
                    for kw in node.keywords
                ):
                    continue
                self.report(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"`{name}(...)` built without `token=` — migration "
                    "protocol frames must carry the sender's fencing "
                    "token so stale owners bounce off receivers (pass "
                    "token=..., or pragma a deliberately legacy "
                    "constructor)",
                )
        return self.findings
