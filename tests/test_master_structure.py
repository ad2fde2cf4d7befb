"""Structure guard for the master core and its two drivers.

``PullEngine.run`` was once a 1,077-line method holding 47 nested
closures; this keeps the three files from growing back into that shape:
no function over 120 lines, and inside a method at most one level of
nested ``def`` (a callback may be local; a callback's callback may not).
"""

import ast
import dataclasses
import importlib
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
    """Latency batches, zero-latency publishes and the chaos decorator's
    delayed messages (``publish_after``) all arrive through
    ``SimBroker._deliver``; a second
    ``store.put`` caller is a second delivery path (and, per message, the
    frame ``_put_direct`` used to be)."""
    putters = []
    for relative in ("mq/simbroker.py", "mq/chaosbroker.py"):
        tree = ast.parse((SRC / relative).read_text())
        sim_classes = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Broker")
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


# -- one publish signature, no bound/evict vocabulary -------------------------
def _classes(relative):
    tree = ast.parse((SRC / relative).read_text())
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def _params(fn):
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _broker_signatures(name):
    return {
        cls.name: ast.unparse(fn.args)
        for relative in (
            "mq/broker.py", "mq/simbroker.py", "mq/chaosbroker.py",
            "mq/tcpbroker.py",
        )
        for cls in _classes(relative)
        if cls.name.endswith("Broker")
        for fn, depth in _functions(cls)
        if depth == 0 and fn.name == name
    }


def test_all_four_brokers_publish_and_reprioritize_with_one_parameter_list():
    """One broker surface: the master's ports call every broker the same
    way, so no caller branches on the broker's type.  The chaos
    decorator defines only ``publish``; its ``reprioritize`` is the
    transport's own bound method."""
    publish = _broker_signatures("publish")
    assert sorted(publish) == [
        "Broker", "ChaosBroker", "RemoteBroker", "SimBroker",
    ]
    assert set(publish.values()) == {
        "self, topic_name: str, message: Any, priority: float=0.0"
    }, publish
    reprioritize = _broker_signatures("reprioritize")
    assert sorted(reprioritize) == ["Broker", "RemoteBroker", "SimBroker"]
    assert set(reprioritize.values()) == {
        "self, topic_name: str, workflow: str, job_id: str, priority: float"
    }, reprioritize
    from repro.mq import Broker, ChaosBroker, MessageChaos

    transport = Broker()
    chaos = ChaosBroker(transport, MessageChaos())
    assert chaos.reprioritize == transport.reprioritize
    isinstance_forks = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", "") == "isinstance"
        and "self.broker" in ast.unparse(node.args[0])
    ]
    assert isinstance_forks == []


def test_no_broker_topic_or_store_takes_a_bound_or_eviction_parameter():
    """Topics are unbounded (paper §III.C): backpressure is the admission
    gate and the service ladder reading ``broker.depth``, nothing in the
    queues themselves."""
    gone = {"klass", "tag", "limits", "topic_limits", "capacity"}
    hits = [
        f"{path.relative_to(SRC)}: {cls.name}.{fn.name}({name})"
        for path in sorted(SRC.rglob("*.py"))
        for cls in _classes(path.relative_to(SRC))
        if cls.name.endswith(("Broker", "Topic", "Store"))
        for fn, _depth in _functions(cls)
        for name in _params(fn)
        if name in gone
    ]
    assert hits == []


def test_pull_run_publishes_a_dispatch_with_one_call():
    run = next(c for c in _classes("engines/pull.py") if c.name == "PullRun")
    publish = next(fn for fn, _d in _functions(run) if fn.name == "_publish")
    calls = [
        node for node in ast.walk(publish)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "publish"
    ]
    assert len(calls) == 1


# -- the run is its own control surface ----------------------------------------
#: What a controller's ``install(run)`` may touch (PullRun's docstring).
CONTROL_SURFACE = {
    "sim", "n_nodes", "trace", "journal", "initially_down", "report_liveness",
    "start_worker", "stop_worker", "kill_worker",
    "set_disk_factor", "mark_spot_terminated",
    "begin_partition", "end_partition",
    "queue_depth", "active_nodes", "finished",
    "primary_die", "standby_takeover", "spawn",
    "broker", "transient", "integrity", "workflows",
    "door", "stats", "repriority",
}
CONTROLLER_FILES = (
    "faults/models.py", "provision/autoscale.py", "liveness/failover.py",
    "mq/chaosbroker.py", "liveness/admission.py", "liveness/policy.py",
    "mq/priority.py",
)


def test_pull_engine_takes_five_knobs_and_one_controllers_list():
    """Every fault and every master policy beyond the paper is a
    controller: transient failures, the message band, the file faults,
    both front doors and the repriority policy left the signature for
    the controllers list.  Only ``journal`` and ``liveness`` are left of
    the planes."""
    from repro.engines import PullEngine

    params = list(inspect.signature(PullEngine).parameters)
    assert len(params) <= 7, params  # spec + 5 knobs + controllers
    assert "controllers" in params
    gone = {
        "fault_schedule", "autoscaler", "initially_down", "chaos_models",
        "failover", "fault_trace", "transient", "message_chaos",
        "integrity_models", "admission", "service", "repriority",
    }
    assert not gone & set(params)
    assert not hasattr(PullEngine, "resume_from")


def test_master_core_holds_live_states_and_settled_snapshots_only():
    """``states`` is the live set, in admission order; a settled member
    is its ``(workflow, snapshot)`` in ``settled``.  No second table
    mirrors either."""
    fields = MasterCore.__dataclass_fields__
    assert len(fields) <= 17, sorted(fields)
    assert not {"live", "finished"} & set(fields)
    assert {"states", "settled"} <= set(fields)


def test_master_core_holds_no_tenant_policy():
    """The sans-IO core the threaded master shares reads a member's SLA
    band off its state; the open-loop door's fair-share settle is the
    pull run's own ``on_settled`` business."""
    assert "service" not in MasterCore.__dataclass_fields__


@pytest.mark.parametrize("order", ["gate first", "service first"])
def test_a_second_front_door_is_refused_before_the_run_starts(monkeypatch, order):
    from repro.cloud import ClusterSpec
    from repro.engines import PullEngine
    from repro.generators import montage_workflow
    from repro.liveness import AdmissionControl, ServiceAdmissionPolicy
    from repro.workflow import Ensemble

    def no_events(*_args, **_kwargs):
        raise AssertionError("simulated an event")

    monkeypatch.setattr(Simulator, "_drain", no_events)
    doors = [AdmissionControl(), ServiceAdmissionPolicy()]
    if order == "service first":
        doors.reverse()
    engine = PullEngine(ClusterSpec("m3.2xlarge", 1), controllers=doors)
    with pytest.raises(ValueError, match="one front door"):
        engine.run(Ensemble([montage_workflow(degree=0.3)]))


def test_no_facade_class_stands_between_a_controller_and_the_run():
    facades = [
        f"{path.relative_to(SRC)}: {node.name}"
        for package in ("engines", "faults")
        for path in sorted((SRC / package).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name.endswith("API")
    ]
    assert facades == []


def test_controllers_install_against_the_runs_public_names_only():
    """The narrowing ``ChaosAPI`` / ``ElasticAPI`` gave, kept without
    them: every ``install`` takes the run and nothing else, and whatever
    the controller modules read off it is on the documented list —
    which the run really defines."""
    run = next(c for c in _classes("engines/pull.py") if c.name == "PullRun")
    defined = {fn.name for fn, depth in _functions(run) if depth == 0}
    init = next(fn for fn, _d in _functions(run) if fn.name == "__init__")
    defined |= {
        node.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "id", "") == "self"
    }
    assert CONTROL_SURFACE <= defined, sorted(CONTROL_SURFACE - defined)
    installs = 0
    for relative in CONTROLLER_FILES:
        tree = ast.parse((SRC / relative).read_text())
        for fn, _depth in _functions(tree):
            if fn.name == "install":
                installs += 1
                assert ast.unparse(fn.args) in ("self, run", "run"), (
                    f"{relative}:{fn.lineno} install({ast.unparse(fn.args)})"
                )
        off_surface = sorted(
            f"{relative}:{node.lineno} run.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", "") == "run"
            and node.attr not in CONTROL_SURFACE
        )
        assert not off_surface, off_surface
    # Fault schedule, transient model, file-fault models, autoscaler,
    # failover, message band, the two front doors, repriority.
    assert installs == 9


# -- a knob needs a caller ---------------------------------------------------------
#: Parameter lists of the objects whose values no caller outside the tests
#: set; each such value is a module constant now.  A knob that comes back
#: must come with a caller, and CI prints the sum (``-rA``).
PRUNED_SIGNATURES = {
    "repro.engines.base:RunConfig": (
        "default_timeout", "timeout_check_interval", "record_jobs",
    ),
    "repro.storage.cache:WriteBackCache": ("sim", "capacity_bytes", "name"),
    "repro.liveness.lease:LeaseConfig": ("heartbeat_interval",),
    "repro.liveness.policy:BrownoutController": ("thresholds", "sustain"),
    "repro.liveness.policy:ServiceAdmissionPolicy": (
        "admission", "brownout", "fair_share_floor",
    ),
    "repro.mq.priority:RepriorityPolicy": ("aging_rate", "interval"),
    "repro.mq.chaosbroker:MessageChaos": (
        "p_drop", "p_duplicate", "p_delay", "delay", "seed",
    ),
    "repro.faults.models:StragglerHazard": (
        "p_straggler", "disk_factor", "duration",
    ),
    "repro.generators.montage:montage_workflow": (
        "degree", "parallel_blocking_jobs",
    ),
    "repro.generators.ligo:ligo_workflow": ("blocks", "group"),
    "repro.generators.cybershake:cybershake_workflow": ("ruptures", "variations"),
    "repro.provision.profiling:ProfilingCampaign": ("template",),
    "repro.provision.planner:plan_cluster": (
        "instance_type", "workflows", "deadline", "index",
    ),
    "repro.provision.planner:plan_table": ("workflows", "deadline"),
    "repro.monitor.timeline:stage_windows": ("result",),
    "repro.parallel.runner:run_many": ("specs", "workers"),
}


def test_pruned_objects_take_only_the_parameters_a_caller_sets():
    actual = {}
    for target in PRUNED_SIGNATURES:
        module, name = target.split(":")
        obj = getattr(importlib.import_module(module), name)
        actual[target] = tuple(inspect.signature(obj).parameters)
    total = sum(len(params) for params in actual.values())
    print(f"knob parameters, {len(actual)} pruned objects: {total}")
    assert actual == PRUNED_SIGNATURES


# -- a chaos scenario holds the models it runs -----------------------------------
def test_chaos_scenario_holds_at_most_twenty_fields():
    """Its faults are one ordered tuple, not a field per kind."""
    from repro.faults.chaos import ChaosScenario

    fields = {f.name for f in dataclasses.fields(ChaosScenario)}
    assert len(fields) <= 20, sorted(fields)
    assert not {"transient", "messages", "file_faults", "failover"} & fields


def test_no_chaos_scenario_field_copies_a_model_parameter():
    """The scenario holds the objects the run takes; a flat copy of one of
    their parameters would need an ``if`` in ``build_engine`` to turn it
    back into the object.  The run's seed plus a salt re-seeds every
    model, whose own seed the scenario refuses to be anything but the
    default, so the scenario has no ``seed`` of its own either."""
    from repro.faults.chaos import ChaosScenario
    from repro.faults.models import (
        FileCorruptionModel, FileLossModel, PartitionHazard, SpotHazard,
        StragglerHazard, TransientFaultModel,
    )
    from repro.faults.retry import RetryPolicy
    from repro.liveness import (
        AdmissionControl, LeaseConfig, MasterFailoverModel,
    )
    from repro.mq.chaosbroker import MessageChaos
    from repro.mq.priority import RepriorityPolicy
    from repro.service.workload import TenantSpec

    fields = {f.name for f in dataclasses.fields(ChaosScenario)}
    copied = sorted(
        f"{model.__name__}.{name}"
        for model in (
            SpotHazard, PartitionHazard, StragglerHazard, TransientFaultModel,
            MessageChaos, FileCorruptionModel, FileLossModel, RetryPolicy,
            LeaseConfig, AdmissionControl, RepriorityPolicy,
            MasterFailoverModel, TenantSpec,
        )
        for name in inspect.signature(model).parameters
        if name in fields
    )
    assert copied == []


def test_node_fault_models_take_event_lists_and_samplers_take_rates():
    """One fault script holds every node disturbance: the records and
    controllers that each repeated it for one kind are gone, what is left
    takes at most ten settable values, and each sampler draws straight
    into the script."""
    import repro.faults
    import repro.faults.models as models

    gone = {
        "SpotTerminationModel", "StragglerModel", "NetworkPartitionModel",
        "Degradation", "PartitionWindow",
    }
    assert not gone & (set(dir(models)) | set(repro.faults.__all__))
    settable = sum(
        len(inspect.signature(cls).parameters)
        for cls in (models.FaultAction, models.FaultSchedule)
    )
    print(f"settable node-fault values: {settable}")
    assert settable <= 10
    assert not hasattr(models.FaultSchedule, "sample")
    for hazard in (models.SpotHazard, models.StragglerHazard, models.PartitionHazard):
        assert inspect.signature(hazard.sample).return_annotation == "FaultSchedule"


def test_chaos_build_engine_branches_only_on_service_mode():
    scenario = next(
        c for c in _classes("faults/chaos.py") if c.name == "ChaosScenario"
    )
    build = next(fn for fn, _d in _functions(scenario) if fn.name == "build_engine")
    branches = [node for node in ast.walk(build) if isinstance(node, ast.If)]
    assert len(branches) <= 1, [ast.unparse(node.test) for node in branches]
    assert all(ast.unparse(node.test) == "self.is_service" for node in branches)


# -- reachability map ----------------------------------------------------------
ROOT = SRC.parents[1]

#: Modules under ``src/repro`` that no console script, ``bench/``,
#: ``benchmarks/`` or ``examples/`` file reaches, each with the reason it
#: stays.  A module that is reached only from ``tests/`` and is not listed
#: here fails the test below by name: give it a reason or delete it.
KEPT_UNREACHED = {
    "repro.analysis.concurrency.detector":
        "the happens-before detector tests/conftest.py arms under "
        "REPRO_RACEDETECT=1 (CI's concurrency job)",
    "repro.dewe.folder":
        "the paper's folder packaging and two-parameter submission "
        "interface (section III.B) for the threaded engine",
    "repro.generators.random_dag":
        "hypothesis fixture of the engine and state property tests",
    "repro.montage_lite.__main__":
        "the binary montage_lite/builder.py's subprocess jobs exec "
        "(python -m repro.montage_lite)",
    "repro.provision.bounds":
        "critical-path / total-work lower bounds tests/test_bounds.py holds "
        "every simulated makespan to",
    "repro.workflow.analysis":
        "critical_path is the lower-bound oracle tests/test_engine_properties.py "
        "judges every engine against",
}


#: Functions under ``src/repro`` that ``tests/tools/call_census.py``'s
#: traffic never enters, outside the modules above, each with the reason
#: it stays, keyed ``"path under src/repro:qualname"``.  Anything else
#: the census finds uncalled is deleted, with the tests that checked only it.
_RACE_DETECTOR = (
    "race-detector suite hook: runs only under REPRO_RACEDETECT=1 (CI's "
    "concurrency job)"
)
_BROKER_SURFACE = (
    "the one broker surface all four brokers share (pinned above), whether "
    "or not a run calls it"
)
_SHARDING_RUNNER = "the sharding runner ROADMAP items 2b and 6 need"
_REPR = "a __repr__"
_FOLDER_IO = (
    "workflow file I/O of repro.dewe.folder, kept unreached for the "
    "paper's folder packaging"
)
_THREADED_CRASH = "fault branch: the threaded master's crash-and-restart model"
_KERNEL_DRIVER = "kernel driver API (run, step, peek)"
_MAPPING_ABC = (
    "abstract method of collections.abc.Mapping: without it no state view "
    "can be built"
)
KEPT_UNCALLED = {
    "analysis/codelint.py:LintFinding.__str__":
        "error branch: renders a finding, which repro-lint prints only when "
        "the code it lints breaks a rule",
    "analysis/concurrency/events.py:ConcEvent.__str__": _RACE_DETECTOR,
    "analysis/concurrency/lints.py:_cycle_findings.<locals>.reaches":
        "error branch: CL006's lock-order cycle search, entered only when the "
        "linted code takes one lock inside another",
    "analysis/concurrency/recorder.py:Recorder.__init__": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.current_ltid": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.new_key": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.new_ltid": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_acquire": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_begin": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_end": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_fork": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_join": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_read": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_recv": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_release": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_send": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_set": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_wait": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.on_write": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:Recorder.record": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:disable": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:enable": _RACE_DETECTOR,
    "analysis/concurrency/recorder.py:enabled": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.__enter__": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.__exit__": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.__init__": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.acquire": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.notify": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.notify_all": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.release": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.wait": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedCondition.wait_for": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedEvent.__init__": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedEvent.clear": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedEvent.is_set": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedEvent.set": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedEvent.wait": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedLock.__enter__": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedLock.__exit__": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedLock.__init__": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedLock.acquire": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedLock.locked": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedLock.release": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedThread.__init__": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedThread.join": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedThread.ltid": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedThread.run": _RACE_DETECTOR,
    "analysis/concurrency/shims.py:TracedThread.start": _RACE_DETECTOR,
    "analysis/sanitizer.py:Sanitizer._report":
        "error branch: records a broken simulation invariant",
    "analysis/sanitizer.py:Violation.__str__":
        "error branch: renders a broken simulation invariant",
    "cloud/cluster.py:SimCluster.__repr__": _REPR,
    "cloud/node.py:SimNode.__repr__": _REPR,
    "dewe/core.py:MasterCore.redispatch.<locals>.fire":
        "fault branch: a failed or timed-out job redispatched after a nonzero "
        "retry backoff",
    "dewe/executors.py:Executor.run":
        "the Executor protocol's signature: a typing declaration, never called",
    "dewe/master.py:MasterDaemon._call_later":
        "fault branch: queues a failed or timed-out job's backed-off "
        "redispatch",
    "dewe/master.py:MasterDaemon._reject":
        "error branch: a duplicate, invalid or shed submission",
    "dewe/master.py:MasterDaemon.checkpoint":
        "fault branch: the threaded master's crash checkpoint "
        "(MasterCrashModel)",
    "dewe/master.py:MasterDaemon.dead_letters":
        "threaded-partition suite hook (tests/test_partition_threaded.py): the "
        "threaded master's dead letters",
    "dewe/master.py:MasterDaemon.from_checkpoint":
        "fault branch: the threaded master's restart after a crash",
    "dewe/master.py:MasterDaemon.liveness_stats":
        "threaded-partition suite hook (tests/test_partition_threaded.py): the "
        "threaded master's lease and shed counters",
    "dewe/state.py:WorkflowState._trace": _RACE_DETECTOR,
    "dewe/state.py:_ArenaView.__iter__": _MAPPING_ABC,
    "dewe/state.py:_ArenaView.__len__": _MAPPING_ABC,
    "dewe/state.py:_ArenaView.__repr__": _REPR,
    "dewe/worker.py:WorkerDaemon.begin_partition":
        "threaded-partition suite hook (tests/test_partition_threaded.py): "
        "cuts a threaded worker's link to the master",
    "dewe/worker.py:WorkerDaemon.end_partition":
        "threaded-partition suite hook (tests/test_partition_threaded.py): "
        "heals a threaded worker's link and sends its held acks",
    "dewe/worker.py:WorkerDaemon._heartbeat_loop":
        "threaded-partition suite hook (tests/test_partition_threaded.py): a "
        "worker's lease renewals (DeweConfig(liveness=...))",
    "dewe/worker.py:WorkerDaemon.join_jobs":
        "fault branch: winds down a killed worker's job threads",
    "engines/base.py:EngineBase.run":
        "error branch: an engine subclass that does not define run",
    "engines/pull.py:PullRun._call_later":
        "fault branch: schedules a failed or timed-out job's backed-off "
        "redispatch",
    "liveness/lease.py:LeaseTable.observe":
        "threaded-partition suite hook (tests/test_partition_threaded.py): the "
        "threaded master's renew-on-contact for heartbeats and acks",
    "mq/broker.py:Broker.depth": _BROKER_SURFACE,
    "mq/broker.py:Broker.publish_after": _BROKER_SURFACE,
    "mq/broker.py:Broker.reprioritize": _BROKER_SURFACE,
    "mq/broker.py:Topic.depth": _BROKER_SURFACE,
    "mq/broker.py:Topic.reprioritize": _BROKER_SURFACE,
    "mq/tcpbroker.py:RemoteBroker.depth": _BROKER_SURFACE,
    "mq/tcpbroker.py:RemoteBroker.reprioritize": _BROKER_SURFACE,
    "parallel/runner.py:RunDigest.to_dict": _SHARDING_RUNNER,
    "parallel/runner.py:RunSpec.title": _SHARDING_RUNNER,
    "parallel/runner.py:execute_spec": _SHARDING_RUNNER,
    "parallel/runner.py:merge_digests": _SHARDING_RUNNER,
    "parallel/runner.py:run_many": _SHARDING_RUNNER,
    "parallel/runner.py:run_serial": _SHARDING_RUNNER,
    "parallel/runner.py:run_sharded": _SHARDING_RUNNER,
    "parallel/runner.py:run_sharded_serial": _SHARDING_RUNNER,
    "parallel/runner.py:shard_ensemble": _SHARDING_RUNNER,
    "recovery/checkpoint.py:MasterCrashModel.__init__": _THREADED_CRASH,
    "recovery/checkpoint.py:MasterCrashModel._tick": _THREADED_CRASH,
    "recovery/checkpoint.py:MasterCrashModel.attach": _THREADED_CRASH,
    "recovery/checkpoint.py:MasterCrashModel.crash": _THREADED_CRASH,
    "recovery/checkpoint.py:MasterCrashModel.detach": _THREADED_CRASH,
    "recovery/checkpoint.py:MasterCrashModel.last_checkpoint": _THREADED_CRASH,
    "recovery/checkpoint.py:MasterCrashModel.restart": _THREADED_CRASH,
    "sim/engine.py:Simulator.peek": _KERNEL_DRIVER,
    "sim/engine.py:Simulator.step": _KERNEL_DRIVER,
    "sim/resources.py:CorePool.cancel":
        "fault branch: a worker killed while it waits for a core withdraws its "
        "acquire",
    "storage/base.py:SharedFileSystem._grow":
        "error branch: a read or write of a file outside its owner's workflow "
        "skeleton, which no generated workflow makes",
    "workflow/dag.py:DataFile.__repr__": _REPR,
    "workflow/dag.py:Job.__repr__": _REPR,
    "workflow/dag.py:Workflow.__repr__": _REPR,
    "workflow/ensemble.py:Ensemble.__repr__": _REPR,
    "workflow/serialize.py:load_dax": _FOLDER_IO,
    "workflow/serialize.py:load_dax.<locals>.intern_file": _FOLDER_IO,
    "workflow/serialize.py:load_json": _FOLDER_IO,
    "workflow/serialize.py:save_dax":
        "writes the DAX files repro.dewe.folder (kept unreached for the "
        "paper's folder packaging) reads",
    "workflow/serialize.py:save_json": _FOLDER_IO,
    "workflow/serialize.py:workflow_from_dict.<locals>.intern_file": _FOLDER_IO,
    "workflow/validation.py:ValidationError.__init__":
        "error branch: a malformed workflow refused at submission",
    "workflow/validation.py:ValidationError.render":
        "error branch: renders a refused workflow's problems",
}


def _module_file(name):
    base = SRC.parent.joinpath(*name.split("."))
    for candidate in (base / "__init__.py", base.with_suffix(".py")):
        if candidate.is_file():
            return candidate
    return None


def _module_name(path):
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definer(module, attr):
    """The module ``from module import attr`` really loads: a submodule,
    or — through a package ``__init__``'s re-export — wherever ``attr``
    is defined.  A package used only as a re-export table reaches
    nothing else."""
    if _module_file(f"{module}.{attr}") is not None:
        return f"{module}.{attr}"
    path = _module_file(module)
    if path is not None and path.name == "__init__.py":
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    if (alias.asname or alias.name) == attr:
                        return _definer(node.module, alias.name)
            # A lazy package's table: ``lazy_exports(__name__, {module: names})``.
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "lazy_exports":
                for source, names in ast.literal_eval(node.args[1]).items():
                    if attr in names.split():
                        return _definer(source, attr)
    return module


def _reaches(path):
    """Every ``repro`` module a file imports, names resolved to their
    defining module; ``import pkg as p`` counts the ``p.name`` it uses."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name
                    aliases[alias.asname or "repro"] = (
                        alias.name if alias.asname else "repro"
                    )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield _definer(node.module, alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            yield _definer(aliases[node.value.id], node.attr)


def _unreached_modules():
    roots = [SRC / "cli.py", SRC / "dewe/remote_worker.py"]
    for directory in ("bench", "benchmarks", "examples"):
        roots += sorted((ROOT / directory).glob("*.py"))
    reached = {"repro.cli", "repro.dewe.remote_worker"}
    todo = [name for root in roots for name in _reaches(root)]
    while todo:
        name = todo.pop()
        path = _module_file(name)
        if name in reached or path is None:
            continue
        reached.add(name)
        if path.name != "__init__.py":
            todo += _reaches(path)
    return sorted(
        _module_name(path)
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py" and _module_name(path) not in reached
    )


def test_every_module_is_reached_or_kept_for_a_reason():
    """Import closure of the seven console scripts, ``bench/``,
    ``benchmarks/`` and ``examples/`` (``-rA`` prints the kept list)."""
    unreached = _unreached_modules()
    for name in unreached:
        print(f"kept unreached: {name} - {KEPT_UNREACHED.get(name, 'NO REASON')}")
    assert unreached == sorted(KEPT_UNREACHED)


def _defined_qualnames():
    """``"path under src/repro:qualname"`` of every ``def``: the keys
    ``tests/tools/call_census.py`` reports and ``KEPT_UNCALLED`` uses."""
    names = set()

    def walk(node, relative, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                names.add(f"{relative}:{prefix}{child.name}")
                walk(child, relative, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, relative, f"{prefix}{child.name}.")
            else:
                walk(child, relative, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), "")
    return names


def test_kept_uncalled_names_exist():
    """Every function the call census keeps is defined under ``src/repro``
    and carries a reason (``-rA`` prints the ledger's size)."""
    print(f"kept uncalled: {len(KEPT_UNCALLED)}")
    assert sorted(set(KEPT_UNCALLED) - _defined_qualnames()) == []
    assert [key for key, reason in KEPT_UNCALLED.items()
            if not (isinstance(reason, str) and reason.strip())] == []
