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


# -- CL001: wall clock -----------------------------------------------------

def test_cl001_flags_wall_clock_calls():
    source = (
        "import time\n"
        "def tick():\n"
        "    return time.time() + time.perf_counter()\n"
    )
    findings = lint_source(source, rules=frozenset({"CL001"}))
    assert _rules(findings) == ["CL001", "CL001"]
    assert findings[0].line == 3


def test_cl001_flags_datetime_now():
    source = (
        "from datetime import datetime\n"
        "stamp = datetime.now()\n"
    )
    assert _rules(lint_source(source, rules=frozenset({"CL001"}))) == ["CL001"]


def test_cl001_allows_simulated_clock():
    source = "def run(sim):\n    return sim.now + sim.timeout(3.0).delay\n"
    assert lint_source(source, rules=frozenset({"CL001"})) == []


# -- CL002: nondeterministic RNG -------------------------------------------

def test_cl002_flags_global_random():
    source = "import random\nx = random.random()\ny = random.randint(0, 9)\n"
    assert _rules(lint_source(source, rules=frozenset({"CL002"}))) == [
        "CL002",
        "CL002",
    ]


def test_cl002_flags_unseeded_default_rng():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert _rules(lint_source(source, rules=frozenset({"CL002"}))) == ["CL002"]


def test_cl002_allows_seeded_default_rng():
    source = "import numpy as np\nrng = np.random.default_rng(42)\n"
    assert lint_source(source, rules=frozenset({"CL002"})) == []


def test_cl002_flags_legacy_numpy_global_rng():
    source = "import numpy as np\nx = np.random.rand(3)\n"
    assert _rules(lint_source(source, rules=frozenset({"CL002"}))) == ["CL002"]


# -- CL003: set iteration in decision code ---------------------------------

def test_cl003_flags_set_iteration():
    source = (
        "def pick(jobs):\n"
        "    for j in {1, 2, 3}:\n"
        "        yield j\n"
        "    return [x for x in set(jobs)]\n"
    )
    findings = lint_source(source, rules=frozenset({"CL003"}))
    assert _rules(findings) == ["CL003", "CL003"]


def test_cl003_allows_sorted_set():
    source = "def pick(jobs):\n    return [x for x in sorted(set(jobs))]\n"
    assert lint_source(source, rules=frozenset({"CL003"})) == []


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
    assert default_rules_for("src/repro/sim/engine.py") == frozenset(
        {"CL001", "CL002", "CL003", "CL004"}
    )
    assert default_rules_for("src/repro/engines/pull.py") == frozenset(
        {"CL001", "CL003", "CL004"}
    )
    assert default_rules_for("src/repro/monitor/plot.py") == frozenset(
        {"CL001", "CL004"}
    )
    assert default_rules_for("scripts/helper.py") == frozenset({"CL004"})


def test_host_clock_is_readable_under_dewe_only(tmp_path):
    source = "import time\n\ndef wall():\n    return time.perf_counter()\n"
    for sub in ("parallel", "dewe"):
        (tmp_path / "repro" / sub).mkdir(parents=True)
        (tmp_path / "repro" / sub / "x.py").write_text(source)
    findings = lint_paths([tmp_path])
    assert [(f.rule, Path(f.path).parent.name) for f in findings] == [
        ("CL001", "parallel")
    ]


def test_rule_catalogue_is_documented():
    assert set(RULES) == {
        "CL001", "CL002", "CL003", "CL004",
        "CL005", "CL006", "CL007", "CL008", "CL009",
    }
    assert ALL_RULES == frozenset(RULES)


def test_repo_is_clean():
    """Tier-1 gate: the installed ``repro`` package passes its own lint."""
    package_dir = Path(repro.__file__).parent
    findings = lint_paths([package_dir])
    assert findings == [], "\n".join(str(f) for f in findings)
