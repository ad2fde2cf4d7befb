"""Repo code lint: synthetic positives/negatives per rule, plus the
tier-1 gate that keeps ``src/repro`` itself clean."""

from pathlib import Path

import repro
from repro.analysis.codelint import (
    ALL_RULES,
    RULES,
    default_rules_for,
    lint_paths,
    lint_source,
)


def _rules(findings):
    return [f.rule for f in findings]


# -- CL004: __slots__ integrity --------------------------------------------

def test_cl004_flags_undeclared_attribute():
    source = (
        "class Node:\n"
        "    __slots__ = ('a', 'b')\n"
        "    def __init__(self):\n"
        "        self.a = 1\n"
        "        self.c = 2\n"
    )
    findings = lint_source(source, rules=frozenset({"CL004"}))
    assert _rules(findings) == ["CL004"]
    assert "Node.c" in findings[0].message
    assert findings[0].line == 5


def test_cl004_resolves_inherited_slots():
    source = (
        "class Base:\n"
        "    __slots__ = ('a',)\n"
        "class Child(Base):\n"
        "    __slots__ = ('b',)\n"
        "    def __init__(self):\n"
        "        self.a = 1\n"
        "        self.b = 2\n"
        "        self.c = 3\n"
    )
    findings = lint_source(source, rules=frozenset({"CL004"}))
    assert _rules(findings) == ["CL004"]
    assert "Child.c" in findings[0].message


def test_cl004_skips_dictful_classes():
    source = (
        "class Loose:\n"
        "    def __init__(self):\n"
        "        self.anything = 1\n"
    )
    assert lint_source(source, rules=frozenset({"CL004"})) == []


def test_cl004_skips_unresolvable_base():
    source = (
        "from somewhere import Mixin\n"
        "class Node(Mixin):\n"
        "    __slots__ = ('a',)\n"
        "    def __init__(self):\n"
        "        self.whatever = 1\n"
    )
    assert lint_source(source, rules=frozenset({"CL004"})) == []


def test_cl004_skips_static_and_class_methods():
    source = (
        "class Node:\n"
        "    __slots__ = ('a',)\n"
        "    @staticmethod\n"
        "    def make(self):\n"
        "        self.b = 1\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        cls.c = 2\n"
    )
    assert lint_source(source, rules=frozenset({"CL004"})) == []


# -- infrastructure --------------------------------------------------------

def test_syntax_error_is_reported_not_raised():
    findings = lint_source("def broken(:\n")
    assert _rules(findings) == ["CL000"]


def test_default_rules_scope_by_subpackage():
    assert default_rules_for("src/repro/sim/engine.py") == frozenset({"CL004"})
    assert default_rules_for("src/repro/dewe/master.py") == frozenset(
        {"CL004", "CL005", "CL006", "CL007", "CL008", "CL009"}
    )
    assert default_rules_for("scripts/helper.py") == frozenset({"CL004"})


def test_rule_catalogue_is_documented():
    assert set(RULES) == {"CL004", "CL005", "CL006", "CL007", "CL008", "CL009"}
    assert ALL_RULES == frozenset(RULES)
    doc = (Path(__file__).parents[1] / "docs" / "STATIC_ANALYSIS.md").read_text()
    assert all(f"| {rule} |" in doc for rule in RULES)


def test_repo_is_clean():
    """Tier-1 gate: the installed ``repro`` package passes its own lint."""
    package_dir = Path(repro.__file__).parent
    findings = lint_paths([package_dir])
    assert findings == [], "\n".join(str(f) for f in findings)
