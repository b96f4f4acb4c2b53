"""The lint framework: rule registry, file loading, noqa, orchestration.

A lint run is two passes over the parsed module set.  Pass one lets
every rule *collect* project-wide facts (which classes are frozen
dataclasses, which methods carry ``@requires_lock`` markers, which
classes own an ``RWLock``) and then *resolve* cross-file facts (lock
ownership inherited from a base); pass two *checks* each module.
Cross-file knowledge is what makes repo-specific rules like
lock discipline possible at all — a single-file linter cannot know that
``CamStore.insert`` is a writer-locked operation when it sees
``self.store.insert(...)`` in ``service.py``.

Suppression has two tiers with different intent:

* ``# fecam: noqa[FCA002]`` on the offending line — a reviewed,
  in-code exception with the justification next to it;
* a baseline file (:mod:`fecam.analysis.baseline`) — a bulk ledger of
  pre-existing violations for adopting the linter on a legacy tree.
  This repo ships an *empty* baseline on purpose: every violation the
  rules can find has been fixed, not grandfathered.
"""

from __future__ import annotations

import ast
import re

from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Type)

__all__ = ["Violation", "Rule", "Module", "Project", "LintResult",
           "LintError", "register", "all_rules", "rules_by_code",
           "iter_python_files", "load_module", "run_lint"]


class LintError(Exception):
    """A file could not be linted (unreadable, syntax error)."""


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a source location."""

    code: str       # "FCA001"
    rule: str       # slug, e.g. "generation-discipline"
    path: str       # display path (relative where possible)
    line: int       # 1-indexed
    col: int        # 0-indexed (ast convention)
    message: str

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-number-free identity used by baseline matching (line
        numbers drift on every unrelated edit; path+code+message is
        stable until the finding itself changes)."""
        return (self.path, self.code, self.message)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")


@dataclass
class Module:
    """One parsed source file plus its suppression comments."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    #: line -> suppressed codes (empty frozenset == suppress all codes)
    noqa: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def suppressed(self, violation: Violation) -> bool:
        codes = self.noqa.get(violation.line)
        if codes is None:
            return False
        return not codes or violation.code in codes


@dataclass
class Project:
    """Cross-file facts rules share between the collect and check passes."""

    modules: List[Module] = field(default_factory=list)
    #: names of ``@dataclass(frozen=True)`` classes anywhere in the set
    frozen_classes: Set[str] = field(default_factory=set)
    #: method/property name -> lock mode from ``@requires_lock`` markers
    lock_required: Dict[str, str] = field(default_factory=dict)
    #: attribute names marked ``@lock_free``
    lock_free: Set[str] = field(default_factory=set)
    #: function names that are sanctioned planes mutators
    #: (``@mutates_planes``); calling one discharges the bump obligation
    planes_mutators: Set[str] = field(default_factory=set)
    #: (display_path, class name) -> lock attribute names, for classes
    #: whose ``__init__`` builds an ``RWLock`` or that inherit from one
    lock_owners: Dict[Tuple[str, str], Set[str]] = field(
        default_factory=dict)
    #: (display_path, class name) -> last components of its base names
    class_bases: Dict[Tuple[str, str], List[str]] = field(
        default_factory=dict)


class Rule:
    """Base class for lint rules.

    Subclasses set ``code`` (``FCAxxx``), ``name`` (a kebab-case slug),
    and ``description``; override :meth:`collect` when the rule needs
    project-wide facts and :meth:`check` to emit violations.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def collect(self, module: Module, project: Project) -> None:
        """Pass 1: record project-wide facts from ``module``."""

    def resolve(self, project: Project) -> None:
        """After every collect pass: derive facts that span modules
        (e.g. lock ownership inherited from a base in another file)."""

    def check(self, module: Module,
              project: Project) -> Iterator[Violation]:
        """Pass 2: yield violations found in ``module``."""
        return iter(())

    def violation(self, module: Module, node: ast.AST,
                  message: str) -> Violation:
        return Violation(code=self.code, rule=self.name,
                         path=module.display_path,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0),
                         message=message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not re.fullmatch(r"FCA\d{3}", rule_cls.code):
        raise ValueError(
            f"rule code must look like FCA001, got {rule_cls.code!r}")
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, by ascending code."""
    from . import rules as _rules  # noqa: F401  (registers on import)
    return [cls() for _, cls in sorted(_REGISTRY.items())]


def rules_by_code() -> Dict[str, Rule]:
    return {rule.code: rule for rule in all_rules()}


# -- file loading --------------------------------------------------------------

_NOQA_RE = re.compile(
    r"#\s*fecam:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE)


def _parse_noqa(source: str) -> Dict[int, FrozenSet[str]]:
    noqa: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "noqa" not in line:
            continue
        found = _NOQA_RE.search(line)
        if found is None:
            continue
        codes = found.group("codes")
        noqa[lineno] = (frozenset() if codes is None else frozenset(
            code.strip().upper() for code in codes.split(",")
            if code.strip()))
    return noqa


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise LintError(f"no such file or directory: {path}")
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def load_module(path: Path, root: Optional[Path] = None) -> Module:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from None
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(
            f"{path}:{exc.lineno}: syntax error: {exc.msg}") from None
    display = str(path)
    if root is not None:
        try:
            display = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            pass
    return Module(path=path, display_path=display, source=source,
                  tree=tree, noqa=_parse_noqa(source))


@dataclass
class LintResult:
    """Outcome of one lint run (violations already noqa-filtered)."""

    violations: List[Violation]
    files_checked: int
    suppressed_noqa: int = 0
    suppressed_baseline: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def run_lint(paths: Sequence[Path], *,
             select: Optional[Set[str]] = None,
             ignore: Optional[Set[str]] = None,
             root: Optional[Path] = None) -> LintResult:
    """Lint ``paths`` with every registered rule (minus select/ignore).

    Violations suppressed by ``# fecam: noqa`` comments are dropped here
    (counted in ``suppressed_noqa``); baseline filtering is the caller's
    concern (:func:`fecam.analysis.baseline.apply_baseline`), so the
    library API always reports what the rules actually found.
    """
    rules = all_rules()
    if select:
        rules = [rule for rule in rules if rule.code in select]
    if ignore:
        rules = [rule for rule in rules if rule.code not in ignore]
    project = Project()
    for path in iter_python_files(paths):
        project.modules.append(load_module(path, root))
    # Pass 1: every rule sees every module before any check runs —
    # markers in store.py must be known when service.py is checked even
    # though store.py sorts later.
    for rule in rules:
        for module in project.modules:
            rule.collect(module, project)
    for rule in rules:
        rule.resolve(project)
    violations: List[Violation] = []
    suppressed = 0
    for rule in rules:
        for module in project.modules:
            for violation in rule.check(module, project):
                if module.suppressed(violation):
                    suppressed += 1
                else:
                    violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return LintResult(violations=violations,
                      files_checked=len(project.modules),
                      suppressed_noqa=suppressed)
