"""The project model: import graph + per-module symbol tables.

The D-series rules are per-file; the T/E/R families need to see the
whole tree at once — a timestamp minted in ``protocols/`` flows through
``multihop/`` into ``clocks/``, and whether a call's argument unit
matches the parameter can only be judged against the *callee's*
signature, which usually lives in another module. This module builds
the lightweight cross-module view the flow rules consume:

* one :class:`ModuleInfo` per parsed file — dotted module name, import
  aliases, imported-``repro``-module edges, and a symbol table of
  top-level functions, classes (keyed by class name, carrying the
  ``__init__`` signature) and methods (``"Class.method"``);
* a :class:`ProjectModel` over all of them, resolving dotted call paths
  to :class:`FunctionSig` entries, following one-hop re-exports through
  package ``__init__`` files (``repro.obs.emit`` ->
  ``repro.obs.context.emit``).

Everything here is a plain ``ast`` pass — no imports are executed, so
building the model over a tree that does not even import cleanly is
fine, and the linter stays dependency-free.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.rules import build_aliases
from repro.lint.timebase import unit_of_annotation, unit_of_identifier

#: How many re-export hops :meth:`ProjectModel.resolve_function` follows
#: before giving up (cycles in ``__init__`` re-exports are pathological).
_MAX_REEXPORT_HOPS = 5


def module_name(rel: str) -> str:
    """Dotted module name for a package-relative path.

    ``"mac/contention.py"`` -> ``"repro.mac.contention"``;
    ``"obs/__init__.py"`` -> ``"repro.obs"``; the bare package
    ``"__init__.py"`` -> ``"repro"``.
    """
    parts = rel.split("/")
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join(["repro"] + [p for p in parts if p])


@dataclass(frozen=True)
class ParamInfo:
    """One parameter of a recorded signature."""

    name: str
    #: Inferred unit domain (suffix convention or ``Annotated``), if any.
    unit: Optional[str]


@dataclass(frozen=True)
class FunctionSig:
    """The callable surface of one function, method or constructor."""

    #: Symbol name within its module (``"resolve_neighborhood"``,
    #: ``"ClockChain"`` for a constructor, ``"ClockChain.hw_at"``).
    qualname: str
    #: Dotted module the symbol is defined in.
    module: str
    #: Positional-capable parameters in order (``self``/``cls`` already
    #: stripped for methods and constructors).
    params: Tuple[ParamInfo, ...]
    #: Keyword-only parameters.
    kwonly: Tuple[ParamInfo, ...]
    #: Whether the signature absorbs extra positionals / keywords.
    has_var_positional: bool = False
    has_var_keyword: bool = False
    #: Inferred unit of the return value (name suffix or ``Annotated``
    #: return annotation), if any.
    returns_unit: Optional[str] = None

    def param_named(self, name: str) -> Optional[ParamInfo]:
        """The declared parameter called ``name``, if any."""
        for param in self.params + self.kwonly:
            if param.name == name:
                return param
        return None


@dataclass
class ModuleInfo:
    """Everything the project model records about one parsed file."""

    #: Package-relative posix path (``"mac/contention.py"``).
    rel: str
    #: Dotted module name (``"repro.mac.contention"``).
    module: str
    #: Local name -> dotted import path (see ``build_aliases``).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Symbol table: function / class / ``"Class.method"`` -> signature.
    functions: Dict[str, FunctionSig] = field(default_factory=dict)
    #: Dotted ``repro.*`` modules this module imports (the import graph's
    #: outgoing edges, in first-occurrence order).
    imports: Tuple[str, ...] = ()


def _param_info(arg: ast.arg) -> ParamInfo:
    unit = unit_of_annotation(arg.annotation)
    if unit is None:
        unit = unit_of_identifier(arg.arg)
    return ParamInfo(arg.arg, unit)


def _signature(
    func: ast.AST, qualname: str, module: str, *, drop_first: bool = False
) -> FunctionSig:
    args = func.args  # type: ignore[attr-defined]
    positional = list(args.posonlyargs) + list(args.args)
    if drop_first and positional:
        positional = positional[1:]
    returns_unit = unit_of_annotation(getattr(func, "returns", None))
    if returns_unit is None:
        returns_unit = unit_of_identifier(getattr(func, "name", ""))
    return FunctionSig(
        qualname=qualname,
        module=module,
        params=tuple(_param_info(a) for a in positional),
        kwonly=tuple(_param_info(a) for a in args.kwonlyargs),
        has_var_positional=args.vararg is not None,
        has_var_keyword=args.kwarg is not None,
        returns_unit=returns_unit,
    )


def _is_staticmethod(func: ast.AST) -> bool:
    for decorator in getattr(func, "decorator_list", []):
        if isinstance(decorator, ast.Name) and decorator.id == "staticmethod":
            return True
    return False


def _repro_imports(tree: ast.AST) -> Tuple[str, ...]:
    """Outgoing ``repro.*`` import edges of one module, deduplicated."""
    seen: List[str] = []
    for node in ast.walk(tree):
        targets: List[str] = []
        if isinstance(node, ast.Import):
            targets = [n.name for n in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            targets = [node.module]
        for target in targets:
            if (target == "repro" or target.startswith("repro.")) and (
                target not in seen
            ):
                seen.append(target)
    return tuple(seen)


def build_module_info(rel: str, tree: ast.AST) -> ModuleInfo:
    """Symbol-table one parsed module (top level only, by design)."""
    dotted = module_name(rel)
    functions: Dict[str, FunctionSig] = {}
    body = getattr(tree, "body", [])
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = _signature(node, node.name, dotted)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                drop = not _is_staticmethod(item)
                qual = f"{node.name}.{item.name}"
                sig = _signature(item, qual, dotted, drop_first=drop)
                functions[qual] = sig
                if item.name == "__init__":
                    # The class name itself is callable: constructing it
                    # matches the __init__ signature minus self.
                    functions[node.name] = FunctionSig(
                        qualname=node.name,
                        module=dotted,
                        params=sig.params,
                        kwonly=sig.kwonly,
                        has_var_positional=sig.has_var_positional,
                        has_var_keyword=sig.has_var_keyword,
                        returns_unit=None,
                    )
    return ModuleInfo(
        rel=rel,
        module=dotted,
        aliases=build_aliases(tree),
        functions=functions,
        imports=_repro_imports(tree),
    )


class ProjectModel:
    """The cross-module view: every linted module's :class:`ModuleInfo`."""

    def __init__(self, infos: Iterable[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        for info in infos:
            self.modules[info.module] = info

    def module_for(self, rel: str) -> Optional[ModuleInfo]:
        """The info recorded for a package-relative path, if any."""
        return self.modules.get(module_name(rel))

    def import_edges(self) -> Dict[str, Tuple[str, ...]]:
        """Module -> imported ``repro.*`` modules (the import graph)."""
        return {name: info.imports for name, info in sorted(self.modules.items())}

    def resolve_function(
        self, dotted: str, _hops: int = 0
    ) -> Optional[FunctionSig]:
        """Resolve a dotted path to a recorded signature, if possible.

        Splits ``repro.mac.contention.resolve_neighborhood`` into the
        longest known module prefix plus a symbol path (one or two
        components: ``f``, ``Class``, ``Class.method``), following
        re-exports through package ``__init__`` aliases for up to
        ``_MAX_REEXPORT_HOPS`` hops.
        """
        if _hops > _MAX_REEXPORT_HOPS:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            info = self.modules.get(module)
            if info is None:
                continue
            symbol = ".".join(parts[cut:])
            sig = info.functions.get(symbol)
            if sig is not None:
                return sig
            # One-hop re-export: `from repro.obs.context import emit` in
            # obs/__init__.py makes "repro.obs.emit" an alias.
            head = parts[cut]
            target = info.aliases.get(head)
            if target is not None:
                tail = ".".join(parts[cut + 1 :])
                full = f"{target}.{tail}" if tail else target
                return self.resolve_function(full, _hops + 1)
            return None
        return None

    def resolve_call(
        self, call: ast.Call, info: ModuleInfo
    ) -> Optional[FunctionSig]:
        """Resolve a call site in ``info``'s module to a signature.

        Bare names try the module's own top-level symbols first, then
        its import aliases; attribute chains resolve through aliases
        (``contention.resolve_neighborhood`` with ``from repro.mac
        import contention``). Method calls on objects (``self.x(...)``,
        ``obj.method(...)``) are not resolved — that would need type
        inference — and return None.
        """
        func = call.func
        if isinstance(func, ast.Name):
            own = info.functions.get(func.id)
            if own is not None:
                return own
            target = info.aliases.get(func.id)
            if target is not None:
                return self.resolve_function(target)
            return None
        if isinstance(func, ast.Attribute):
            parts: List[str] = []
            current: ast.expr = func
            while isinstance(current, ast.Attribute):
                parts.append(current.attr)
                current = current.value
            if not isinstance(current, ast.Name):
                return None
            base = info.aliases.get(current.id)
            if base is None:
                return None
            parts.append(base)
            return self.resolve_function(".".join(reversed(parts)))
        return None
