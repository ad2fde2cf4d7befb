"""Repo-specific AST lint rules.

Generic linters cannot know that the million-object hot classes rely on
``__slots__`` staying airtight, or which lock guards which attribute of the
threaded daemons.  These rules encode exactly that:

========  ==================================================================
rule id   meaning
========  ==================================================================
CL004     a ``__slots__`` class assigns a ``self`` attribute not declared
          in its (resolvable) slots chain — raises ``AttributeError`` at
          runtime, usually on a rarely executed path.  In the hot
          sub-packages (``repro/sim``, ``repro/engines``) the rule also
          flags *slot-less* in-module classes instantiated inside a
          loop: each such instance drags a ``__dict__`` through the
          million-object engine paths
CL005     a ``_guarded_by_``-annotated shared attribute is accessed
          outside its guarding lock (threaded code: ``repro/dewe``,
          ``repro/mq``) — see
          :mod:`repro.analysis.concurrency.lints`
CL006     locks of one class are acquired in inconsistent nesting order
          (deadlock-prone)
CL007     a blocking call (``time.sleep``, ``subprocess``, thread
          ``join``/foreign ``wait``) is made while holding a lock
CL008     bare ``time.sleep`` polling inside a loop where an ``Event`` /
          ``Condition`` wait belongs
CL009     an element of *another* class's guarded state — reached through
          an annotated container (``self._topics: Dict[str, Topic]``) —
          has a ``_guarded_by_`` attribute accessed outside that
          element's own lock (holding the container's lock is not
          enough; the ``Broker.stats()`` regression was exactly this)
========  ==================================================================

Run via ``repro-lint`` or the tier-1 test
``tests/test_codelint.py::test_repo_is_clean``.  Determinism (host clock,
hidden RNG state, set order) has no lint: the golden digests of
``tests/test_golden_runs.py`` fail on it, and CI runs them under several
``PYTHONHASHSEED`` values (docs/STATIC_ANALYSIS.md lists the seeded
mutations that showed it).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Union

__all__ = [
    "ALL_RULES",
    "LintFinding",
    "RULES",
    "default_rules_for",
    "lint_file",
    "lint_paths",
    "lint_source",
]

RULES: Dict[str, str] = {
    "CL004": "__slots__ class assigns an attribute not declared in __slots__",
    "CL005": "guarded shared attribute accessed without its guarding lock",
    "CL006": "inconsistent lock-acquisition order (deadlock-prone)",
    "CL007": "blocking call while holding a lock",
    "CL008": "time.sleep polling where an Event/Condition wait belongs",
    "CL009": "container element's guarded attribute accessed outside its lock",
}

ALL_RULES: FrozenSet[str] = frozenset(RULES)

#: The lock-discipline rules, implemented in
#: :mod:`repro.analysis.concurrency.lints` (imported lazily).
CONCURRENCY_RULES: FrozenSet[str] = frozenset(
    {"CL005", "CL006", "CL007", "CL008", "CL009"}
)

#: Sub-packages with real threads: lock-discipline rules (CL005-CL009).
THREADED_SUBPACKAGES = frozenset({"dewe", "mq"})
#: Sub-packages whose loops allocate millions of records: CL004 also
#: flags slot-less classes instantiated inside a loop there.
HOT_LOOP_SUBPACKAGES = frozenset({"sim", "engines"})


@dataclass(frozen=True)
class LintFinding:
    """One code-lint hit, pinned to a file and line."""

    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _subpackage_of(path: Union[str, Path]) -> Optional[str]:
    """The ``repro`` sub-package a file belongs to (``"sim"``, ``"cloud"``,
    ...), or ``None`` when the path is not inside the ``repro`` package."""
    parts = Path(path).as_posix().split("/")
    for i, part in enumerate(parts[:-1]):
        if part == "repro":
            nxt = parts[i + 1]
            return nxt[:-3] if nxt.endswith(".py") else nxt
    return None


def default_rules_for(path: Union[str, Path]) -> FrozenSet[str]:
    """The rule set that applies to ``path`` by repository convention."""
    if _subpackage_of(path) in THREADED_SUBPACKAGES:
        return frozenset({"CL004"}) | CONCURRENCY_RULES
    return frozenset({"CL004"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _slot_names(class_def: ast.ClassDef) -> Optional[List[str]]:
    """Names declared by a literal ``__slots__`` assignment, else None."""
    for stmt in class_def.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            continue
        value = stmt.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return [value.value]
        if isinstance(value, (ast.Tuple, ast.List)):
            names = []
            for element in value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None  # computed slots: cannot lint statically
                names.append(element.value)
            return names
        return None
    return None


def _resolved_slots(
    class_def: ast.ClassDef, class_map: Dict[str, ast.ClassDef]
) -> Optional[Set[str]]:
    """The union of slots along the base chain, or None when any base is
    unresolvable in-module or carries no ``__slots__`` (then instances get
    a ``__dict__`` and arbitrary attributes are legal)."""
    own = _slot_names(class_def)
    if own is None:
        return None
    names = set(own)
    stack = list(class_def.bases)
    seen: Set[str] = {class_def.name}
    while stack:
        base = stack.pop()
        if not isinstance(base, ast.Name) or base.id == "object":
            if isinstance(base, ast.Name):
                continue
            return None  # attribute/subscript base: give up conservatively
        if base.id in seen:
            continue
        seen.add(base.id)
        base_def = class_map.get(base.id)
        if base_def is None:
            return None  # imported base: unknown slots
        base_slots = _slot_names(base_def)
        if base_slots is None:
            return None  # dict-ful ancestor
        names.update(base_slots)
        stack.extend(base_def.bases)
    return names


def _self_attribute_targets(
    function: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Iterable[ast.Attribute]:
    """Attribute nodes assigned on the method's ``self`` argument."""
    if not function.args.args:
        return
    self_name = function.args.args[0].arg
    for node in ast.walk(function):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            queue = [target]
            while queue:
                t = queue.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    queue.extend(t.elts)
                elif (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == self_name
                ):
                    yield t


def _lint_slots(tree: ast.Module, path: str) -> List[LintFinding]:
    findings: List[LintFinding] = []
    class_map = {
        node.name: node for node in tree.body if isinstance(node, ast.ClassDef)
    }
    for class_def in class_map.values():
        slots = _resolved_slots(class_def, class_map)
        if slots is None:
            continue
        for stmt in class_def.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = {
                d.id for d in stmt.decorator_list if isinstance(d, ast.Name)
            }
            if "staticmethod" in decorators or "classmethod" in decorators:
                continue
            for attribute in _self_attribute_targets(stmt):
                if attribute.attr not in slots:
                    findings.append(
                        LintFinding(
                            "CL004",
                            path,
                            attribute.lineno,
                            f"{class_def.name}.{attribute.attr} assigned but "
                            f"not declared in __slots__",
                        )
                    )
    return findings


def _declares_slots(class_def: ast.ClassDef) -> bool:
    """True when the class gets ``__slots__`` — a literal assignment or a
    ``@dataclass(slots=True)`` decorator."""
    if _slot_names(class_def) is not None:
        return True
    for decorator in class_def.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = _dotted(decorator.func)
        if name is None or name.split(".")[-1] != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _lint_hot_loop_allocations(tree: ast.Module, path: str) -> List[LintFinding]:
    """CL004 extension for the hot sub-packages: a slot-less in-module
    class instantiated inside a loop.  Imported classes are out of scope
    (their slots are not resolvable statically); exceptions are exempt
    (raised once, not allocated per event)."""
    slotless = {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and not _declares_slots(node)
        and not any(
            isinstance(base, ast.Name) and base.id.endswith(("Error", "Exception"))
            for base in node.bases
        )
    }
    if not slotless:
        return []
    findings: List[LintFinding] = []
    seen: Set[tuple] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _LOOP_NODES):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in slotless
                and (sub.lineno, sub.func.id) not in seen
            ):
                seen.add((sub.lineno, sub.func.id))
                findings.append(
                    LintFinding(
                        "CL004",
                        path,
                        sub.lineno,
                        f"slot-less class {sub.func.id} instantiated in a "
                        f"hot loop; declare __slots__",
                    )
                )
    return findings


def lint_source(
    source: str, path: str = "<string>", rules: Optional[FrozenSet[str]] = None
) -> List[LintFinding]:
    """Lint Python ``source``; ``rules`` defaults to every rule."""
    active = ALL_RULES if rules is None else rules
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintFinding("CL000", path, exc.lineno or 0, f"syntax error: {exc.msg}")
        ]
    findings: List[LintFinding] = []
    if "CL004" in active:
        findings.extend(_lint_slots(tree, path))
        if _subpackage_of(path) in HOT_LOOP_SUBPACKAGES:
            findings.extend(_lint_hot_loop_allocations(tree, path))
    if active & CONCURRENCY_RULES:
        # Lazy: the lock-discipline analyses live with the rest of the
        # concurrency tooling and most lint runs never enable them.
        from repro.analysis.concurrency.lints import lint_concurrency

        findings.extend(lint_concurrency(tree, path, active))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_file(
    path: Union[str, Path], rules: Optional[FrozenSet[str]] = None
) -> List[LintFinding]:
    """Lint one file; ``rules=None`` applies the repository defaults."""
    path = Path(path)
    if rules is None:
        rules = default_rules_for(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path), rules)


def lint_paths(
    paths: Sequence[Union[str, Path]], rules: Optional[FrozenSet[str]] = None
) -> List[LintFinding]:
    """Lint files and/or directory trees (``*.py`` files, recursively)."""
    findings: List[LintFinding] = []
    for entry in paths:
        entry = Path(entry)
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            findings.extend(lint_file(file, rules))
    return findings
