"""The repo-specific lint rules (FCA001-FCA006).

Each rule enforces one invariant the serving stack's correctness
depends on.  They are deliberately heuristic AST analyses, not type
systems: tuned so the *shipped tree lints clean* and the known failure
modes (the PR 5 torn-read hazard, a forgotten generation bump, an
unlocked store access) are caught.  Where a rule cannot see through an
indirection (aliasing, dynamic dispatch), it errs on the side of
requiring an explicit marker (:mod:`fecam.analysis.markers`) or an
inline ``# fecam: noqa[FCAxxx]`` with the justification next to it.

Rule catalogue:

========  =====================  ==================================
code      name                   invariant
========  =====================  ==================================
FCA001    generation-discipline  plane-buffer writes bump the write
                                 generation (call ``_bump`` or a
                                 ``@mutates_planes`` method)
FCA002    lock-discipline        store access in RWLock-owning
                                 classes and their subclasses only
                                 under the declared lock mode
                                 (``@requires_lock`` /
                                 ``@lock_free`` markers)
FCA003    frozen-mutation        no attribute assignment on frozen
                                 dataclass instances
FCA004    snapshot-escape        no live search results or raw plane
                                 buffers across a public boundary
FCA005    hot-path-hygiene       no wall-clock, copies, or row
                                 append-loops in ``@hot_path`` code
FCA006    obs-hygiene            metric/span names are literals
                                 matching the registry regexes
========  =====================  ==================================
"""

from __future__ import annotations

import ast
import re

from typing import (Dict, Iterator, List, Optional, Sequence, Set, Tuple,
                    Union)

from .linter import Module, Project, Rule, Violation, register

AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

# -- shared AST helpers --------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def decorator_base(dec: ast.expr) -> Optional[str]:
    """Last path component of a decorator, ignoring call parentheses."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = dotted_name(target)
    return name.rsplit(".", 1)[-1] if name else None


def iter_functions(
        tree: ast.AST) -> Iterator[Tuple[Optional[ast.ClassDef], AnyFunc]]:
    """Yield (enclosing class, function) for every def in ``tree``."""
    def rec(node: ast.AST, cls: Optional[ast.ClassDef]
            ) -> Iterator[Tuple[Optional[ast.ClassDef], AnyFunc]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from rec(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield (cls, child)
                yield from rec(child, cls)
            else:
                yield from rec(child, cls)
    yield from rec(tree, None)


def walk_shallow(fn: AnyFunc) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/classes
    (each nested def is analysed as its own unit by the outer loop)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def mentions(node: ast.AST, names: Set[str]) -> bool:
    return any(isinstance(n, ast.Name) and n.id in names
               for n in ast.walk(node))


def call_targets(node: ast.AST) -> Set[str]:
    """Last path components of every call target inside ``node``."""
    out: Set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            base = dotted_name(n.func)
            if base:
                out.add(base.rsplit(".", 1)[-1])
            elif isinstance(n.func, ast.Attribute):
                out.add(n.func.attr)
    return out


_PLANES_WORDS = {"planes", "arena"}
_PLANE_BUFFERS = {"value", "care", "valid"}


def is_planes_class(cls: Optional[ast.ClassDef]) -> bool:
    if cls is None:
        return False
    names = [cls.name] + [dotted_name(base) or "" for base in cls.bases]
    return any("planes" in name.lower() for name in names)


def is_planes_receiver(node: ast.AST, in_planes_class: bool) -> bool:
    """Does ``node`` look like a TernaryPlanes/arena object?"""
    if isinstance(node, ast.Name):
        if node.id == "self":
            return in_planes_class
        return node.id.strip("_") in _PLANES_WORDS
    if isinstance(node, ast.Attribute):
        return node.attr.strip("_") in _PLANES_WORDS
    return False


def _plane_buffer_target(node: ast.AST,
                         in_planes_class: bool) -> Optional[ast.AST]:
    """The offending node if ``node`` writes a plane buffer, else None.

    Matches ``<planes>.value[i] = ...`` (subscript store) and
    ``<planes>.value = ...`` (whole-buffer replacement).
    """
    if isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute) and node.attr in _PLANE_BUFFERS
            and is_planes_receiver(node.value, in_planes_class)):
        return node
    return None


# -- FCA001: generation discipline ---------------------------------------------

@register
class GenerationDiscipline(Rule):
    code = "FCA001"
    name = "generation-discipline"
    description = ("functions writing TernaryPlanes value/care/valid "
                   "buffers must call the generation-bump path "
                   "(_bump or a @mutates_planes method)")

    def collect(self, module: Module, project: Project) -> None:
        for _cls, fn in iter_functions(module.tree):
            if any(decorator_base(d) == "mutates_planes"
                   for d in fn.decorator_list):
                project.planes_mutators.add(fn.name)

    def check(self, module: Module,
              project: Project) -> Iterator[Violation]:
        bumpers = {"_bump"} | project.planes_mutators
        for cls, fn in iter_functions(module.tree):
            # __init__ allocates the buffers it is "writing"; _bump is
            # the discharge path itself.
            if fn.name in ("__init__", "_bump"):
                continue
            planesy = is_planes_class(cls)
            writes: List[ast.AST] = []
            for node in walk_shallow(fn):
                targets: Sequence[ast.AST] = ()
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = (node.target,)
                for target in targets:
                    elts = (target.elts
                            if isinstance(target, ast.Tuple) else [target])
                    for elt in elts:
                        hit = _plane_buffer_target(elt, planesy)
                        if hit is not None:
                            writes.append(elt)
            if not writes:
                continue
            if call_targets(fn) & bumpers:
                continue
            for write in writes:
                yield self.violation(
                    module, write,
                    f"plane-buffer write in `{fn.name}` without a "
                    f"generation bump; call _bump() or route through a "
                    f"@mutates_planes method")


# -- FCA002: lock discipline ---------------------------------------------------

_MODE_RANK = {"read": 1, "write": 2}
_HELD_NAME = {0: "no lock", 1: "the read lock", 2: "the write lock"}


def _decorated_lock_mode(fn: AnyFunc) -> int:
    for dec in fn.decorator_list:
        if decorator_base(dec) == "requires_lock" and isinstance(
                dec, ast.Call) and dec.args:
            arg = dec.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return _MODE_RANK.get(arg.value, 0)
    return 0


def collect_lock_owners(module: Module, project: Project) -> None:
    """Record classes whose ``__init__`` builds an RWLock, and every
    class's bases (idempotent — called from every rule that needs the
    fact, so ``--select`` of a single rule still sees it)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            project.class_bases[(module.display_path, node.name)] = [
                (dotted_name(base) or "").rsplit(".", 1)[-1]
                for base in node.bases]
    for cls, fn in iter_functions(module.tree):
        if cls is None or fn.name != "__init__":
            continue
        for node in walk_shallow(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                    and isinstance(node.value, ast.Call)):
                ctor = dotted_name(node.value.func) or ""
                if ctor.rsplit(".", 1)[-1].endswith("RWLock"):
                    project.lock_owners.setdefault(
                        (module.display_path, cls.name),
                        set()).add(node.targets[0].attr)


def inherit_lock_owners(project: Project) -> None:
    """A class whose base (matched by the base name's last component,
    anywhere in the linted set) owns a lock owns the same lock
    attributes.  Transitive; idempotent."""
    changed = True
    while changed:
        changed = False
        by_name: Dict[str, Set[str]] = {}
        for (_path, name), attrs in project.lock_owners.items():
            by_name.setdefault(name, set()).update(attrs)
        for key, bases in project.class_bases.items():
            if key in project.lock_owners:
                continue
            inherited = set().union(*(by_name[base] for base in bases
                                      if base in by_name))
            if inherited:
                project.lock_owners[key] = inherited
                changed = True


@register
class LockDiscipline(Rule):
    code = "FCA002"
    name = "lock-discipline"
    description = ("store access inside RWLock-owning classes must be "
                   "@lock_free, or @requires_lock-marked and performed "
                   "under the declared lock mode")

    def __init__(self) -> None:
        #: (display_path, class) -> {method name: mode rank} for marked
        #: methods *defined on that class* (self-call checking must not
        #: confuse SearchService.insert with CamStore.insert).
        self._class_marked: Dict[Tuple[str, str], Dict[str, int]] = {}

    def collect(self, module: Module, project: Project) -> None:
        collect_lock_owners(module, project)
        for cls, fn in iter_functions(module.tree):
            mode = 0
            for dec in fn.decorator_list:
                base = decorator_base(dec)
                if base == "requires_lock":
                    mode = _decorated_lock_mode(fn)
                elif base == "lock_free":
                    project.lock_free.add(fn.name)
            if mode:
                project.lock_required[fn.name] = (
                    "write" if mode == 2 else "read")
                if cls is not None:
                    self._class_marked.setdefault(
                        (module.display_path, cls.name), {})[fn.name] = mode

    def resolve(self, project: Project) -> None:
        inherit_lock_owners(project)

    def check(self, module: Module,
              project: Project) -> Iterator[Violation]:
        for node in ast.iter_child_nodes(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            key = (module.display_path, node.name)
            if key not in project.lock_owners:
                continue
            yield from self._check_class(module, project, node, key)

    def _check_class(self, module: Module, project: Project,
                     cls: ast.ClassDef,
                     key: Tuple[str, str]) -> Iterator[Violation]:
        methods = [n for n in cls.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        # Methods that take the lock themselves and run their callable
        # argument under it (e.g. ``write(txn)``): arguments passed to
        # them are analysed as lock-holding.
        wrapping: Dict[str, int] = {}
        for fn in methods:
            best = 0
            for inner in walk_shallow(fn):
                if isinstance(inner, (ast.With, ast.AsyncWith)):
                    best = max(best, self._with_mode(inner))
            if best:
                wrapping[fn.name] = best
        out: List[Violation] = []

        def report(node: ast.AST, message: str) -> None:
            out.append(self.violation(module, node, message))

        def check_access(attr: ast.Attribute, held: int) -> None:
            recv = attr.value
            guarded = (
                (isinstance(recv, ast.Attribute)
                 and isinstance(recv.value, ast.Name)
                 and recv.value.id == "self" and recv.attr == "store")
                or (isinstance(recv, ast.Name) and recv.id == "store"))
            if guarded:
                name = attr.attr
                if name.startswith("__") or name in project.lock_free:
                    return
                need = _MODE_RANK.get(project.lock_required.get(name, ""), 0)
                if not need:
                    report(attr,
                           f"unannotated shared-state access "
                           f"`store.{name}` in lock-owning class "
                           f"{cls.name}; mark it @requires_lock(...) or "
                           f"@lock_free on the store")
                elif held < need:
                    mode = "write" if need == 2 else "read"
                    report(attr,
                           f"`store.{name}` requires the {mode} lock "
                           f"but {_HELD_NAME[held]} is held here")
            elif isinstance(recv, ast.Name) and recv.id == "self":
                marked = self._class_marked.get(key, {})
                need = marked.get(attr.attr, 0)
                if need and held < need:
                    mode = "write" if need == 2 else "read"
                    report(attr,
                           f"`self.{attr.attr}` requires the {mode} "
                           f"lock but {_HELD_NAME[held]} is held here")

        def scan(node: ast.AST, held: int) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    scan(item.context_expr, held)
                inner = max(held, self._with_mode(node))
                for stmt in node.body:
                    scan(stmt, inner)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def runs whenever it is later called; only
                # its own markers say what it may assume.
                inner = _decorated_lock_mode(node)
                for stmt in node.body:
                    scan(stmt, inner)
                return
            if isinstance(node, ast.Lambda):
                scan(node.body, held)
                return
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                        and func.attr in wrapping):
                    inner = max(held, wrapping[func.attr])
                    for arg in node.args:
                        scan(arg, inner)
                    for kw in node.keywords:
                        scan(kw.value, inner)
                    return
            if isinstance(node, ast.Attribute):
                check_access(node, held)
            for child in ast.iter_child_nodes(node):
                scan(child, held)

        for fn in methods:
            held = _decorated_lock_mode(fn)
            for stmt in fn.body:
                scan(stmt, held)
        yield from out

    @staticmethod
    def _with_mode(node: Union[ast.With, ast.AsyncWith]) -> int:
        mode = 0
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call) and isinstance(
                    expr.func, ast.Attribute):
                if expr.func.attr == "write_locked":
                    mode = max(mode, 2)
                elif expr.func.attr == "read_locked":
                    mode = max(mode, 1)
        return mode


# -- FCA003: frozen-dataclass mutation -----------------------------------------

def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        if decorator_base(dec) != "dataclass":
            continue
        for kw in dec.keywords:
            if (kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True):
                return True
    return False


def _annotation_frozen_class(ann: Optional[ast.expr],
                             frozen: Set[str]) -> Optional[str]:
    if ann is None:
        return None
    for node in ast.walk(ann):
        if isinstance(node, ast.Name) and node.id in frozen:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in frozen:
            return node.attr
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            tail = node.value.rsplit(".", 1)[-1]
            if tail in frozen:
                return tail
    return None


@register
class FrozenMutation(Rule):
    code = "FCA003"
    name = "frozen-mutation"
    description = ("no attribute assignment (or setattr) on instances "
                   "of frozen dataclasses")

    def collect(self, module: Module, project: Project) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                project.frozen_classes.add(node.name)

    def check(self, module: Module,
              project: Project) -> Iterator[Violation]:
        frozen = project.frozen_classes
        if not frozen:
            return
        for cls, fn in iter_functions(module.tree):
            in_frozen_class = cls is not None and cls.name in frozen
            bindings = self._bindings(fn, frozen)
            for node in walk_shallow(fn):
                yield from self._check_node(
                    module, node, fn, bindings, frozen, in_frozen_class)

    def _bindings(self, fn: AnyFunc,
                  frozen: Set[str]) -> Dict[str, str]:
        """Names inferred to hold frozen-dataclass instances, from arg
        annotations, annotated assignments, and direct construction."""
        out: Dict[str, str] = {}
        args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs)
        for arg in args:
            hit = _annotation_frozen_class(arg.annotation, frozen)
            if hit:
                out[arg.arg] = hit
        for node in walk_shallow(fn):
            if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                hit = _annotation_frozen_class(node.annotation, frozen)
                if hit:
                    out[node.target.id] = hit
            elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call):
                ctor = dotted_name(node.value.func) or ""
                tail = ctor.rsplit(".", 1)[-1]
                if tail in frozen:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            out[target.id] = tail
        return out

    def _check_node(self, module: Module, node: ast.AST, fn: AnyFunc,
                    bindings: Dict[str, str], frozen: Set[str],
                    in_frozen_class: bool) -> Iterator[Violation]:
        targets: Sequence[ast.AST] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            for elt in elts:
                if (isinstance(elt, ast.Attribute)
                        and isinstance(elt.value, ast.Name)):
                    name = elt.value.id
                    if name in bindings:
                        yield self.violation(
                            module, elt,
                            f"attribute assignment on frozen dataclass "
                            f"{bindings[name]} instance `{name}.{elt.attr}`")
                    elif (name == "self" and in_frozen_class
                          and fn.name not in ("__post_init__", "__new__")):
                        yield self.violation(
                            module, elt,
                            f"direct attribute assignment `self."
                            f"{elt.attr}` inside frozen dataclass; use "
                            f"object.__setattr__ in __post_init__ only")
        if isinstance(node, ast.Call):
            func_name = dotted_name(node.func) or ""
            if func_name == "object.__setattr__" and not in_frozen_class:
                yield self.violation(
                    module, node,
                    "object.__setattr__ outside a frozen dataclass's "
                    "own methods defeats the frozen contract")
            elif (isinstance(node.func, ast.Name)
                  and node.func.id == "setattr" and node.args
                  and isinstance(node.args[0], ast.Name)
                  and node.args[0].id in bindings):
                yield self.violation(
                    module, node,
                    f"setattr on frozen dataclass "
                    f"{bindings[node.args[0].id]} instance "
                    f"`{node.args[0].id}`")


# -- FCA004: snapshot escape ---------------------------------------------------

_SEARCH_CALLS = {"search", "search_batch", "search_first", "search_many"}
_LAUNDER_CALLS = {"replace", "copy", "deepcopy", "freeze", "frozen_copy"}


def _calls_search(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            base = dotted_name(node.func) or ""
            if isinstance(node.func, ast.Attribute):
                base = node.func.attr
            if base.rsplit(".", 1)[-1] in _SEARCH_CALLS:
                return True
    return False


def _launders(expr: ast.AST) -> bool:
    return bool(call_targets(expr) & _LAUNDER_CALLS)


@register
class SnapshotEscape(Rule):
    code = "FCA004"
    name = "snapshot-escape"
    description = ("no live search results or raw plane buffers across "
                   "a public/service boundary without copy/freeze")

    def collect(self, module: Module, project: Project) -> None:
        collect_lock_owners(module, project)

    def resolve(self, project: Project) -> None:
        inherit_lock_owners(project)

    def check(self, module: Module,
              project: Project) -> Iterator[Violation]:
        # (a) live results escaping the service boundary.
        for node in ast.iter_child_nodes(module.tree):
            if (isinstance(node, ast.ClassDef)
                    and (module.display_path, node.name)
                    in project.lock_owners):
                for fn in node.body:
                    if isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                        yield from self._check_method(module, fn)
        # (b) raw plane buffers returned from public functions.
        for cls, fn in iter_functions(module.tree):
            if fn.name.startswith("_"):
                continue
            planesy = is_planes_class(cls)
            for node in walk_shallow(fn):
                if isinstance(node, ast.Return) and node.value is not None:
                    hit = _plane_buffer_target(node.value, planesy)
                    if hit is not None:
                        yield self.violation(
                            module, node,
                            f"public `{fn.name}` returns a raw plane "
                            f"buffer view; return a .copy() or wrap it")

    def _check_method(self, module: Module,
                      fn: AnyFunc) -> Iterator[Violation]:
        tainted: Set[str] = set()
        out: List[Violation] = []

        def names_of(target: ast.AST) -> List[str]:
            if isinstance(target, ast.Name):
                return [target.id]
            if isinstance(target, (ast.Tuple, ast.List)):
                names: List[str] = []
                for elt in target.elts:
                    names.extend(names_of(elt))
                return names
            return []

        def flag_exprs(node: ast.AST) -> None:
            # One report per statement: set_result(ServedResult(live))
            # is a single escape, not two.
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                values = list(call.args) + [kw.value for kw in call.keywords]
                live = [v for v in values
                        if mentions(v, tainted) and not _launders(v)]
                if not live:
                    continue
                if (isinstance(call.func, ast.Name)
                        and call.func.id == "ServedResult"):
                    out.append(self.violation(
                        module, call,
                        "live search result passed into ServedResult; "
                        "freeze with replace()/.copy() before serving"))
                    return
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr == "set_result"):
                    out.append(self.violation(
                        module, call,
                        "live search result passed to set_result; "
                        "freeze with replace()/.copy() before serving"))
                    return

        def assign(targets: List[str], is_tainted: bool) -> None:
            for name in targets:
                if is_tainted:
                    tainted.add(name)
                else:
                    tainted.discard(name)

        def walk_stmts(body: Sequence[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, ast.Assign):
                    flag_exprs(stmt.value)
                    taint = (_calls_search(stmt.value)
                             or (mentions(stmt.value, tainted)
                                 and not _launders(stmt.value)))
                    for target in stmt.targets:
                        assign(names_of(target), taint)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    flag_exprs(stmt.iter)
                    taint = (mentions(stmt.iter, tainted)
                             and not _launders(stmt.iter))
                    assign(names_of(stmt.target), taint)
                    walk_stmts(stmt.body)
                    walk_stmts(stmt.orelse)
                elif isinstance(stmt, (ast.While, ast.If)):
                    flag_exprs(stmt.test)
                    walk_stmts(stmt.body)
                    walk_stmts(stmt.orelse)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        flag_exprs(item.context_expr)
                    walk_stmts(stmt.body)
                elif isinstance(stmt, ast.Try):
                    walk_stmts(stmt.body)
                    for handler in stmt.handlers:
                        walk_stmts(handler.body)
                    walk_stmts(stmt.orelse)
                    walk_stmts(stmt.finalbody)
                elif isinstance(stmt, ast.Return):
                    if stmt.value is not None:
                        flag_exprs(stmt.value)
                        if (not fn.name.startswith("_")
                                and mentions(stmt.value, tainted)
                                and not _launders(stmt.value)):
                            out.append(self.violation(
                                module, stmt,
                                f"public `{fn.name}` returns live search "
                                f"results; freeze with replace()/.copy()"))
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                    continue
                else:
                    flag_exprs(stmt)
        walk_stmts(fn.body)
        yield from out


# -- FCA005: hot-path hygiene --------------------------------------------------

_WALL_CLOCK = {"time.time", "datetime.now", "datetime.datetime.now",
               "datetime.utcnow", "datetime.datetime.utcnow"}
_COPY_CALLS = {"np.copy", "numpy.copy", "copy.deepcopy"}


@register
class HotPathHygiene(Rule):
    code = "FCA005"
    name = "hot-path-hygiene"
    description = ("no wall-clock calls, buffer copies, or per-row "
                   "append loops inside @hot_path functions")

    def check(self, module: Module,
              project: Project) -> Iterator[Violation]:
        for _cls, fn in iter_functions(module.tree):
            marks = [d for d in fn.decorator_list
                     if decorator_base(d) == "hot_path"]
            if not marks:
                continue
            if any(self._is_exempt(d) for d in marks):
                continue
            yield from self._check_hot(module, fn)

    @staticmethod
    def _is_exempt(dec: ast.expr) -> bool:
        """True for ``@hot_path(exempt="reason")`` with a non-empty
        literal reason — the declared escape hatch for shims whose
        loops run in compiled code."""
        if not isinstance(dec, ast.Call):
            return False
        for kw in dec.keywords:
            if (kw.arg == "exempt" and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str) and kw.value.value):
                return True
        return False

    def _check_hot(self, module: Module,
                   fn: AnyFunc) -> Iterator[Violation]:
        out: List[Violation] = []

        def scan(node: ast.AST, in_loop: bool) -> None:
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                header = (node.iter,) if isinstance(
                    node, (ast.For, ast.AsyncFor)) else (node.test,)
                for expr in header:
                    scan(expr, in_loop)
                for stmt in node.body + node.orelse:
                    scan(stmt, True)
                return
            if isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if name in _WALL_CLOCK:
                    out.append(self.violation(
                        module, node,
                        f"wall-clock call {name}() on the hot path; "
                        f"take timestamps outside @hot_path code"))
                elif name in _COPY_CALLS or name == "deepcopy":
                    out.append(self.violation(
                        module, node,
                        f"buffer copy {name}() on the hot path"))
                elif isinstance(node.func, ast.Attribute):
                    if node.func.attr == "copy":
                        out.append(self.violation(
                            module, node,
                            "allocation via .copy() on the hot path"))
                    elif node.func.attr == "append" and in_loop:
                        out.append(self.violation(
                            module, node,
                            "per-row append loop on the hot path; use "
                            "vectorized/bulk operations"))
            for child in ast.iter_child_nodes(node):
                scan(child, in_loop)

        for stmt in fn.body:
            scan(stmt, False)
        yield from out


# -- FCA006: observability hygiene ---------------------------------------------

# Mirrors fecam.obs.registry._NAME_RE and the span-name convention used
# by the tracer (lowercase dotted identifiers).
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SPAN_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_.]*$")

_METRIC_METHODS = {"counter", "gauge", "histogram"}
_METRIC_RECEIVERS = {"registry", "metrics"}


@register
class ObsHygiene(Rule):
    code = "FCA006"
    name = "obs-hygiene"
    description = ("metric and span names must be string literals (or "
                   "module constants) matching the registry regexes")

    def __init__(self) -> None:
        self._consts: Dict[str, Dict[str, str]] = {}

    def collect(self, module: Module, project: Project) -> None:
        consts: Dict[str, str] = {}
        for stmt in module.tree.body:
            if (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        consts[target.id] = stmt.value.value
        self._consts[module.display_path] = consts

    def check(self, module: Module,
              project: Project) -> Iterator[Violation]:
        consts = self._consts.get(module.display_path, {})
        for cls, fn in iter_functions(module.tree):
            # The registry's own forwarding methods legitimately take
            # the name as a parameter.
            if cls is not None and "registry" in cls.name.lower():
                continue
            params = {arg.arg for arg in
                      (list(fn.args.posonlyargs) + list(fn.args.args)
                       + list(fn.args.kwonlyargs))}
            for node in walk_shallow(fn):
                if isinstance(node, ast.Call):
                    yield from self._check_call(module, node, consts,
                                                params)

    def _check_call(self, module: Module, call: ast.Call,
                    consts: Dict[str, str],
                    params: Set[str]) -> Iterator[Violation]:
        func = call.func
        kind: Optional[str] = None
        name_arg: Optional[ast.expr] = None
        if isinstance(func, ast.Attribute):
            recv = dotted_name(func.value) or ""
            last = recv.rsplit(".", 1)[-1].strip("_") if recv else ""
            if func.attr in _METRIC_METHODS and last in _METRIC_RECEIVERS:
                kind = "metric"
                name_arg = call.args[0] if call.args else None
                for kw in call.keywords:
                    if kw.arg == "name":
                        name_arg = kw.value
            elif func.attr in ("record", "open") and last == "trace":
                kind = "span"
                name_arg = call.args[0] if call.args else None
            elif func.attr in ("trace_stage", "stage"):
                kind = "span"
                name_arg = call.args[0] if call.args else None
            elif func.attr == "record_span":
                kind = "span"
                name_arg = call.args[1] if len(call.args) > 1 else None
        elif isinstance(func, ast.Name):
            if func.id in ("trace_stage", "stage"):
                kind = "span"
                name_arg = call.args[0] if call.args else None
            elif func.id == "record_span":
                kind = "span"
                name_arg = call.args[1] if len(call.args) > 1 else None
        if kind is None or name_arg is None:
            return
        pattern = _METRIC_NAME_RE if kind == "metric" else _SPAN_NAME_RE
        if isinstance(name_arg, ast.Constant):
            if not isinstance(name_arg.value, str):
                return  # not a name-shaped argument; out of scope
            if not pattern.match(name_arg.value):
                yield self.violation(
                    module, name_arg,
                    f"{kind} name {name_arg.value!r} does not match the "
                    f"registry pattern {pattern.pattern}")
        elif isinstance(name_arg, ast.Name):
            if name_arg.id in params:
                # Forwarding wrapper (record_span/stage plumbing): the
                # literal is enforced at the wrapper's call sites.
                return
            literal = consts.get(name_arg.id)
            if literal is None:
                yield self.violation(
                    module, name_arg,
                    f"{kind} name must be a string literal or a "
                    f"module-level constant; `{name_arg.id}` is neither")
            elif not pattern.match(literal):
                yield self.violation(
                    module, name_arg,
                    f"{kind} name constant {name_arg.id}={literal!r} "
                    f"does not match the registry pattern "
                    f"{pattern.pattern}")
        else:
            yield self.violation(
                module, name_arg,
                f"dynamic {kind} name (f-string/concat/call); use a "
                f"string literal so the registry regex is checkable")
