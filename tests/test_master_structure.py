"""Structure guard for the master core and its two drivers.

``PullEngine.run`` was once a 1,077-line method holding 47 nested
closures; this keeps the three files from growing back into that shape:
no function over 120 lines, and inside a method at most one level of
nested ``def`` (a callback may be local; a callback's callback may not).
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.dewe.core import MasterCore
from repro.sim import Simulator

SRC = Path(repro.__file__).parent
FILES = ["engines/pull.py", "dewe/master.py", "dewe/core.py"]
MAX_LINES = 120
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functions(node, depth=0):
    """Yield ``(function, nesting depth)``; a method or a module-level
    function has depth 0, a ``def`` inside it depth 1, and so on."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            yield child, depth
            yield from _functions(child, depth + 1)
        else:
            yield from _functions(child, depth)


@pytest.mark.parametrize("relative", FILES)
def test_no_long_functions_and_no_deep_closures(relative):
    tree = ast.parse((SRC / relative).read_text())
    too_long = [
        f"{fn.name} ({fn.end_lineno - fn.lineno + 1} lines)"
        for fn, _depth in _functions(tree)
        if fn.end_lineno - fn.lineno + 1 > MAX_LINES
    ]
    too_deep = [
        f"{fn.name} (line {fn.lineno})"
        for fn, depth in _functions(tree)
        if depth > 1
    ]
    assert not too_long, f"{relative}: functions over {MAX_LINES} lines: {too_long}"
    assert not too_deep, f"{relative}: defs nested more than one level: {too_deep}"


def test_pull_engine_closure_budget():
    tree = ast.parse((SRC / "engines/pull.py").read_text())
    nested = [fn.name for fn, depth in _functions(tree) if depth >= 1]
    assert len(nested) <= 10, nested


def test_only_the_core_drives_workflow_state_transitions():
    transitions = {
        "mark_dispatched", "on_running", "on_completed", "on_failed",
        "on_corrupt", "on_lease_expired", "requeue_in_flight", "expired",
        "initial_ready",
    }
    for relative in ("engines/pull.py", "dewe/master.py"):
        tree = ast.parse((SRC / relative).read_text())
        calls = sorted(
            f"{node.func.attr} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in transitions
        )
        assert not calls, f"{relative} calls WorkflowState transitions: {calls}"


def test_kernel_has_one_agenda_and_one_dispatch_loop():
    """The kernel once popped its agenda in five loops behind two
    constructor options; one function pops it now and there is no option."""
    tree = ast.parse((SRC / "sim/engine.py").read_text())
    functions = [fn for fn, _depth in _functions(tree)]
    poppers = [
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and "heappop" in (getattr(node.func, "id", ""), getattr(node.func, "attr", ""))
    ]
    assert poppers == ["_drain"]
    assert list(inspect.signature(Simulator.__init__).parameters) == ["self"]
    too_long = [fn.name for fn in functions if fn.end_lineno - fn.lineno + 1 > 60]
    assert not too_long, too_long


def test_link_cycle_calls_no_helper_it_carries_inline():
    """``FairShareLink._wake`` and ``transfer_into`` carry the bodies of
    ``SegmentLog.record``, ``JoinEvent.arrive``, ``Event.succeed``,
    ``Event.cancel`` and the wake-up's arming; a call to one of them (or a
    ``Timeout`` / ``schedule_call`` wake-up) coming back is the frame per
    flow edge coming back."""
    banned = {"record", "arrive", "succeed", "cancel", "Timeout", "schedule_call"}
    tree = ast.parse((SRC / "sim/resources.py").read_text())
    link = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "FairShareLink"
    )
    checked = []
    for fn, _depth in _functions(link):
        if fn.name not in ("_wake", "transfer_into"):
            continue
        checked.append(fn.name)
        calls = sorted(
            f"{fn.name}: {name} (line {node.lineno})"
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            for name in (getattr(node.func, "id", ""), getattr(node.func, "attr", ""))
            if name in banned
        )
        assert not calls, calls
    assert checked == ["_wake", "transfer_into"]
    names = {node.id for node in ast.walk(link) if isinstance(node, ast.Name)}
    assert "Timeout" not in names  # no path of the link arms a Timeout


def _is_not_none_test(test, dumped):
    """``<expr> is not None`` for the expression whose dump is ``dumped``."""
    return (
        isinstance(test, ast.Compare)
        and ast.dump(test.left) == dumped
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def test_core_calls_the_journal_port_only_under_a_none_test():
    """``MasterCore.log`` is ``None`` for a driver without a journal, so
    a plain run pays no frame for it — and so every call of it has to
    sit in the body of ``if self.log is not None``."""
    tree = ast.parse((SRC / "dewe/core.py").read_text())
    port = ast.dump(ast.parse("self.log", mode="eval").body)
    guarded, calls = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_not_none_test(node.test, port):
            for stmt in node.body:
                guarded.update(id(inner) for inner in ast.walk(stmt))
        if isinstance(node, ast.Call) and ast.dump(node.func) == port:
            calls.append(node)
    assert len(calls) >= 4  # dispatch, two acks, the cold-path helper
    bare = [f"line {call.lineno}" for call in calls if id(call) not in guarded]
    assert not bare, f"self.log( outside `if self.log is not None`: {bare}"
    fields = MasterCore.__dataclass_fields__
    assert fields["log"].default is None and fields["trace"].default is None
    # The no-op default port is gone from the package, not just unused.
    ignoring = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, _DEFS) and node.name == "_ignore"
    ]
    assert not ignoring, ignoring


def test_worker_slot_reads_the_partition_state_per_message():
    """A partition can begin mid-run, so the slot may keep the *list*
    but not an element of it: every ``partition_mode[...]`` sits inside
    the pull loop."""
    tree = ast.parse((SRC / "engines/pull.py").read_text())
    slot = next(
        fn for fn, _depth in _functions(tree) if fn.name == "worker_slot"
    )
    loops = [node for node in ast.walk(slot) if isinstance(node, ast.While)]
    in_loop = {id(inner) for loop in loops for inner in ast.walk(loop)}
    reads = [
        node
        for node in ast.walk(slot)
        if isinstance(node, ast.Subscript)
        and "partition_mode" in (
            getattr(node.value, "id", ""), getattr(node.value, "attr", "")
        )
    ]
    assert len(reads) >= 3  # pull gate, cancelled pull, one per ack
    outside = [f"line {node.lineno}" for node in reads if id(node) not in in_loop]
    assert not outside, f"partition_mode[...] read outside the loop: {outside}"


def test_one_function_puts_messages_into_a_topic():
    """Latency batches, zero-latency publishes and the chaos shim's
    delayed messages all arrive through ``SimBroker._deliver``; a second
    ``store.put`` caller is a second delivery path (and, per message, the
    frame ``_put_direct`` used to be)."""
    putters = []
    for relative in ("mq/simbroker.py", "mq/chaosbroker.py"):
        tree = ast.parse((SRC / relative).read_text())
        sim_classes = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and "SimBroker" in node.name
        ]
        putters += [
            f"{cls.name}.{fn.name}"
            for cls in sim_classes
            for fn, _depth in _functions(cls)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "put"
        ]
    assert putters == ["SimBroker._deliver"]
