"""Per-module flow summaries: the cacheable unit of whole-program analysis.

A :class:`FlowSummary` is everything the interprocedural passes need to
know about one module, extracted in a single AST walk and serializable to
JSON so the incremental lint cache can key it on the file's content
digest.  Nothing in a summary depends on any *other* file — resolution
across modules happens later, in :mod:`repro.analysis.flow.program`.

Dotted names are normalized through the module's import aliases at
extraction time (``np.random.default_rng`` with ``import numpy as np``
records as ``numpy.random.default_rng``), so the source catalogues match
regardless of aliasing.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..rules.base import FileContext, dotted_name

__all__ = [
    "CallSite",
    "ClassInfo",
    "DirectSource",
    "FlowSummary",
    "FunctionInfo",
    "HookRegistration",
    "MutationSite",
    "module_name_for",
    "summarize_module",
    "summarize_source",
]

#: Observer attributes whose assignment registers a hook on a live object.
HOOK_ATTRS = frozenset(
    {
        "read_observer",
        "obs_read_observer",
        "request_observer",
        "action_observer",
    }
)

#: Methods whose call registers their first argument as a step or
#: clock observer.
HOOK_REGISTER_CALLS = frozenset({"add_step_observer", "add_clock_observer"})

#: Normalized dotted prefixes that draw entropy.
_RNG_PREFIXES = ("random.", "numpy.random.", "secrets.")

#: Normalized exact dotted names that draw entropy.
_RNG_EXACT = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: Normalized exact dotted names that read the host clock.
_WALLCLOCK_EXACT = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "os.times",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression: the name as written and where it occurs."""

    name: str
    line: int


@dataclass(frozen=True)
class DirectSource:
    """A direct entropy / clock read inside one function."""

    category: str  # "rng" | "wallclock"
    desc: str  # normalized dotted name, e.g. "time.time"
    line: int
    suppressed: bool  # a v1 allow-<rule> comment covers the line


@dataclass(frozen=True)
class MutationSite:
    """A write through a name: ``root.attr = ...`` or ``root.x.append(...)``.

    Only the *root* name matters to the purity checker: a hook mutating
    ``self`` keeps its own bookkeeping; a hook mutating a parameter is
    reaching into simulation state.
    """

    root: str
    desc: str  # human-readable, e.g. "event.ready = ..." / ".append()"
    line: int


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str  # "pkg.mod:func", "pkg.mod:Cls.meth", "pkg.mod:<module>"
    name: str
    cls: Optional[str]
    line: int
    params: Tuple[str, ...]
    calls: List[CallSite] = field(default_factory=list)
    sources: List[DirectSource] = field(default_factory=list)
    mutations: List[MutationSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: its methods and the instance attributes whose class is
    statically known (``self.x = SomeClass(...)``)."""

    name: str
    methods: List[str] = field(default_factory=list)
    attr_classes: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class HookRegistration:
    """One observer registration site."""

    kind: str  # hook attribute name, or the registering method's name
    target: str  # value as written ("self._on_read"), or "<opaque>"
    line: int
    enclosing: str  # qname of the function containing the registration


@dataclass
class FlowSummary:
    """Everything the whole-program passes need from one module."""

    module: str
    path: str
    parts: Tuple[str, ...]
    skip_file: bool
    is_test: bool
    imports: Dict[str, str] = field(default_factory=dict)
    star_imports: List[str] = field(default_factory=list)
    imported_modules: List[Tuple[str, int]] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    hooks: List[HookRegistration] = field(default_factory=list)
    suppressions: Dict[int, List[str]] = field(default_factory=dict)

    # -- classification ------------------------------------------------------

    def matches(self, *suffix: str) -> bool:
        n = len(suffix)
        return self.parts[-n:] == tuple(s.lower() for s in suffix)

    def suppressed(self, rule: str, line: int) -> bool:
        return rule in self.suppressions.get(line, [])

    # -- JSON round-trip (for the incremental lint cache) --------------------

    def to_json(self) -> Dict[str, Any]:
        data = asdict(self)
        data["parts"] = list(self.parts)
        data["suppressions"] = {
            str(line): rules for line, rules in self.suppressions.items()
        }
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FlowSummary":
        functions = {
            qname: FunctionInfo(
                qname=f["qname"],
                name=f["name"],
                cls=f["cls"],
                line=f["line"],
                params=tuple(f["params"]),
                calls=[CallSite(**c) for c in f["calls"]],
                sources=[DirectSource(**s) for s in f["sources"]],
                mutations=[MutationSite(**m) for m in f["mutations"]],
            )
            for qname, f in data["functions"].items()
        }
        classes = {
            name: ClassInfo(
                name=c["name"],
                methods=list(c["methods"]),
                attr_classes=dict(c["attr_classes"]),
            )
            for name, c in data["classes"].items()
        }
        return cls(
            module=data["module"],
            path=data["path"],
            parts=tuple(data["parts"]),
            skip_file=data["skip_file"],
            is_test=data["is_test"],
            imports=dict(data["imports"]),
            star_imports=list(data["star_imports"]),
            imported_modules=[
                (mod, line) for mod, line in data["imported_modules"]
            ],
            functions=functions,
            classes=classes,
            hooks=[HookRegistration(**h) for h in data["hooks"]],
            suppressions={
                int(line): list(rules)
                for line, rules in data["suppressions"].items()
            },
        )


def module_name_for(rel_parts: Sequence[str]) -> str:
    """Dotted module name for a path relative to the scan root."""
    parts = list(rel_parts)
    if not parts:
        return "<unknown>"
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = leaf
    return ".".join(parts) if parts else "<root>"


def _normalize(dotted: str, imports: Dict[str, str]) -> str:
    """Expand the leading alias of ``dotted`` through the import table."""
    root, _, rest = dotted.partition(".")
    expanded = imports.get(root)
    if expanded is None:
        return dotted
    return f"{expanded}.{rest}" if rest else expanded


def _classify_source(normalized: str) -> Optional[str]:
    """The taint category of a normalized dotted name, if any."""
    if normalized in _RNG_EXACT or any(
        normalized.startswith(p) for p in _RNG_PREFIXES
    ):
        return "rng"
    if normalized in _WALLCLOCK_EXACT:
        return "wallclock"
    return None


class _ModuleVisitor:
    """Single-pass extraction of a :class:`FlowSummary` from one AST."""

    def __init__(self, summary: FlowSummary, ctx: FileContext) -> None:
        self.summary = summary
        self.ctx = ctx
        self.module = summary.module
        self._is_package = (
            summary.parts[-1] if summary.parts else ""
        ) == "__init__.py"

    # -- imports -------------------------------------------------------------

    def _handle_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname is not None:
                self.summary.imports[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.summary.imports.setdefault(root, root)
            self.summary.imported_modules.append((alias.name, node.lineno))

    def _relative_base(self, level: int) -> str:
        parts = self.module.split(".")
        if not self._is_package:
            parts = parts[:-1]
        drop = level - 1
        if drop:
            parts = parts[:-drop] if drop < len(parts) else []
        return ".".join(parts)

    def _handle_import_from(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self._relative_base(node.level)
            module = (
                f"{base}.{node.module}"
                if base and node.module
                else (node.module or base)
            )
        else:
            module = node.module or ""
        if not module:
            return
        self.summary.imported_modules.append((module, node.lineno))
        for alias in node.names:
            if alias.name == "*":
                self.summary.star_imports.append(module)
                continue
            local = alias.asname or alias.name
            self.summary.imports[local] = f"{module}.{alias.name}"

    # -- function bodies -----------------------------------------------------

    def _walk_body(
        self, info: FunctionInfo, nodes: Sequence[ast.AST]
    ) -> None:
        """Collect calls / sources / mutations, not descending into
        nested function or class definitions (summarized separately)."""
        stack: List[ast.AST] = list(nodes)
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            self._inspect(info, node)
            stack.extend(ast.iter_child_nodes(node))

    def _inspect(self, info: FunctionInfo, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._inspect_call(info, node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            self._inspect_write(info, node)
        elif isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                self._record_source(info, dotted, node.lineno)

    def _record_source(
        self, info: FunctionInfo, dotted: str, line: int
    ) -> None:
        normalized = _normalize(dotted, self.summary.imports)
        category = _classify_source(normalized)
        if category is None:
            return
        rule = {"rng": "rng", "wallclock": "wallclock"}[category]
        info.sources.append(
            DirectSource(
                category=category,
                desc=normalized,
                line=line,
                suppressed=self.ctx.suppressed(rule, line),
            )
        )

    def _inspect_call(self, info: FunctionInfo, node: ast.Call) -> None:
        func = node.func
        dotted = dotted_name(func)
        if dotted is not None:
            info.calls.append(CallSite(name=dotted, line=node.lineno))
            # A bare name that aliases an entropy API (``from random
            # import Random``) is a source the Attribute walk misses.
            if isinstance(func, ast.Name):
                self._record_source(info, dotted, node.lineno)
            # Mutating method call through a name root: x.y.append(...)
            if isinstance(func, ast.Attribute):
                root = dotted.split(".")[0]
                info.mutations.append(
                    MutationSite(
                        root=root,
                        desc=f".{func.attr}()",
                        line=node.lineno,
                    )
                )
            # Observer registration: <obj>.add_step_observer(fn) or
            # <obj>.add_clock_observer(fn, at)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in HOOK_REGISTER_CALLS
                and node.args
            ):
                target = dotted_name(node.args[0]) or "<opaque>"
                self.summary.hooks.append(
                    HookRegistration(
                        kind=func.attr,
                        target=target,
                        line=node.lineno,
                        enclosing=info.qname,
                    )
                )

    def _inspect_write(
        self, info: FunctionInfo, node: ast.Assign | ast.AugAssign
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            base: Optional[ast.AST] = None
            if isinstance(target, ast.Attribute):
                base = target
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Attribute
            ):
                base = target.value
            if base is None or not isinstance(base, ast.Attribute):
                continue
            dotted = dotted_name(base)
            if dotted is None:
                continue
            root, _, _ = dotted.partition(".")
            info.mutations.append(
                MutationSite(
                    root=root,
                    desc=f"{dotted} = ...",
                    line=node.lineno,
                )
            )
            # Observer-attribute assignment registers a hook.
            if isinstance(node, ast.Assign) and base.attr in HOOK_ATTRS:
                value = node.value
                if isinstance(value, ast.Constant):
                    continue  # clearing a hook (= None) is not a hook
                hook_target = dotted_name(value) or "<opaque>"
                self.summary.hooks.append(
                    HookRegistration(
                        kind=base.attr,
                        target=hook_target,
                        line=node.lineno,
                        enclosing=info.qname,
                    )
                )

    # -- definitions ---------------------------------------------------------

    def _function_qname(self, name: str, cls: Optional[str]) -> str:
        if cls is not None:
            return f"{self.module}:{cls}.{name}"
        return f"{self.module}:{name}"

    def _summarize_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: Optional[str],
    ) -> None:
        args = node.args
        params: List[str] = [
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        ]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)
        info = FunctionInfo(
            qname=self._function_qname(node.name, cls),
            name=node.name,
            cls=cls,
            line=node.lineno,
            params=tuple(params),
        )
        # Defaults and decorators evaluate at definition time; the body
        # at call time.  Both taint the function's callers.
        def_time: List[ast.AST] = list(args.defaults)
        def_time.extend(d for d in args.kw_defaults if d is not None)
        def_time.extend(node.decorator_list)
        self._walk_body(info, def_time + list(node.body))
        self.summary.functions[info.qname] = info
        if cls is not None:
            self.summary.classes[cls].methods.append(node.name)
        self._summarize_nested(node, cls)
        if cls is not None:
            self._infer_attr_classes(node, cls)

    def _summarize_nested(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: Optional[str],
    ) -> None:
        """Immediate nested defs: summarized under a flat name so local
        calls (``helper()``) inside the parent can resolve to them."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(child, cls)

    def _infer_attr_classes(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str,
    ) -> None:
        """Record ``self.x = SomeClass(...)`` so a hook registered as
        ``self.x`` can resolve to ``SomeClass.__call__``."""
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            ctor = dotted_name(stmt.value.func)
            if ctor is None:
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.summary.classes[cls].attr_classes.setdefault(
                        target.attr, ctor
                    )

    def _summarize_class(self, node: ast.ClassDef) -> None:
        self.summary.classes[node.name] = ClassInfo(name=node.name)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(child, node.name)

    def run(self, tree: ast.Module) -> None:
        module_info = FunctionInfo(
            qname=f"{self.module}:<module>",
            name="<module>",
            cls=None,
            line=1,
            params=(),
        )
        for node in tree.body:
            if isinstance(node, ast.Import):
                self._handle_import(node)
            elif isinstance(node, ast.ImportFrom):
                self._handle_import_from(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize_function(node, None)
            elif isinstance(node, ast.ClassDef):
                self._summarize_class(node)
            else:
                self._walk_body(module_info, [node])
        self.summary.functions[module_info.qname] = module_info


def summarize_module(
    tree: ast.Module, ctx: FileContext, module: str
) -> FlowSummary:
    """Extract the flow summary of one parsed module."""
    summary = FlowSummary(
        module=module,
        path=str(ctx.path),
        parts=ctx.parts,
        skip_file=ctx.skip_file,
        is_test=ctx.in_tests,
        suppressions={
            line: sorted(rules)
            for line, rules in ctx.suppressions.items()
        },
    )
    _ModuleVisitor(summary, ctx).run(tree)
    return summary


def summarize_source(
    source: str, *, module: str, rel_parts: Sequence[str], path: str
) -> FlowSummary:
    """Convenience wrapper for tests: summarize source text directly."""
    from pathlib import Path

    ctx = FileContext.build(Path(path), tuple(rel_parts), source)
    tree = ast.parse(source, filename=path)
    return summarize_module(tree, ctx, module)
