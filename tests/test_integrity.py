"""Data-integrity layer: checksums, corruption/loss injection, and
data-aware recovery (minimal ancestor re-execution, input restaging)."""

import pytest

import repro.analysis.sanitizer as sanitizer
from repro.cloud import ClusterSpec
from repro.dewe.core import MasterCore
from repro.engines.base import RunConfig
from repro.engines.pull import PullEngine
from repro.faults.models import FaultTrace, FileCorruptionModel, FileLossModel
from repro.faults.retry import RetryPolicy
from repro.generators import montage_workflow
from repro.liveness import LeaseConfig
from repro.storage.integrity import FileIntegrity, file_digest
from repro.workflow import DataFile, Ensemble

SPEC = ClusterSpec("m3.2xlarge", 2)
CONFIG = RunConfig(default_timeout=10.0, timeout_check_interval=0.5,
                   record_jobs=False)


def _clean(tracker, owner, f):
    """The stored checksum matches what the producer wrote."""
    return tracker.stored.get((owner, f.name)) == tracker.expected.get((owner, f.name))


def _run(models, retry_attempts=4):
    engine = PullEngine(
        SPEC,
        config=CONFIG,
        retry=RetryPolicy(max_attempts=retry_attempts),
        controllers=models,
    )
    return engine.run(Ensemble.replicated(montage_workflow(degree=0.3), 1))


# -- checksums and the tracker ---------------------------------------------


def test_file_digest_is_pure_and_distinct():
    a = file_digest("wf", "x.fits", 1.0)
    assert a == file_digest("wf", "x.fits", 1.0)
    assert a != file_digest("wf", "x.fits", 2.0)
    assert a != file_digest("other", "x.fits", 1.0)
    assert len(a) == 16


def test_tracker_detects_corrupt_write():
    trace = FaultTrace()
    tracker = FileIntegrity(trace=trace)
    tracker.join(FileCorruptionModel(targets=("wf/bad.fits",)))
    good = DataFile("good.fits", 1.0)
    bad = DataFile("bad.fits", 1.0)
    tracker.record_write("wf", good, 1.0)
    tracker.record_write("wf", bad, 1.0)
    assert _clean(tracker, "wf", good)
    assert not _clean(tracker, "wf", bad)
    assert tracker.verify("wf", [good, bad], 2.0) == ["bad.fits"]
    assert tracker.stats["corrupted"] == 1
    assert tracker.stats["detected"] == 1
    kinds = [e.kind for e in trace]
    assert "file-corruption" in kinds and "corruption-detected" in kinds


def test_tracker_loss_and_restage():
    tracker = FileIntegrity()
    tracker.join(FileLossModel(targets=("raw.fits",)))
    raw = DataFile("raw.fits", 1.0, kind="input")
    tracker.record_write("wf", raw, 0.0)  # staged before the run
    assert tracker.verify("wf", [raw], 1.0) == ["raw.fits"]
    tracker.restage("wf", raw, 2.0)
    assert _clean(tracker, "wf", raw)
    assert tracker.verify("wf", [raw], 3.0) == []
    assert tracker.stats["lost"] == 1 and tracker.stats["restaged"] == 1


def test_second_write_always_lands_clean():
    """Fault models strike only a file's first write, so regeneration is
    guaranteed to converge (no corrupt-regenerate livelock)."""
    tracker = FileIntegrity()
    tracker.join(FileCorruptionModel(targets=("f",)))
    f = DataFile("f", 1.0)
    tracker.record_write("wf", f, 1.0)
    assert not _clean(tracker, "wf", f)
    tracker.record_write("wf", f, 2.0)
    assert _clean(tracker, "wf", f)
    assert tracker.stats["regenerated"] == 1


def test_file_fault_models_join_one_tracker_in_install_order():
    """Each file-fault model is a controller of its own; the run holds
    one tracker with them in install order, so a staged input both
    target is struck once, by the first."""
    from repro.engines.pull import PullRun

    first = FileLossModel(targets=("*/raw_000003.fits",))
    second = FileCorruptionModel(targets=("*/raw_00000[23].fits",))
    engine = PullEngine(SPEC, config=CONFIG, controllers=[first, second])
    run = PullRun(engine, Ensemble.replicated(montage_workflow(degree=0.3), 1))
    for controller in engine.controllers:
        controller.install(run)
    assert run.integrity.models == (first, second)
    struck = [(e.kind, e.detail.rsplit("/", 1)[1]) for e in run.trace]
    assert struck == [
        ("file-loss", "raw_000003.fits"), ("file-corruption", "raw_000002.fits"),
    ]
    assert run.integrity.stats["lost"] == run.integrity.stats["corrupted"] == 1


def test_targets_match_bare_and_qualified_names():
    model = FileCorruptionModel(targets=("wf/one.fits", "two.fits"))
    assert model.strikes("wf", "one.fits", 1)
    assert model.strikes("anywf", "two.fits", 1)
    assert not model.strikes("other", "one.fits", 1)
    assert not model.strikes("wf", "one.fits", 2)  # only the first write


def test_probabilistic_strikes_are_deterministic():
    model = FileCorruptionModel(p=0.3, seed=11)
    draws = [model.strikes("wf", f"f{i}", 1) for i in range(50)]
    assert draws == [model.strikes("wf", f"f{i}", 1) for i in range(50)]
    assert any(draws) and not all(draws)


# -- engine-level recovery -------------------------------------------------


def test_corruption_triggers_minimal_ancestor_rerun():
    """Corrupt one mProjectPP output: exactly that producer re-runs (one
    extra execution), consumers wait and then complete; nothing dies."""
    n_jobs = 20  # montage 0.3deg
    result = _run(
        (FileCorruptionModel(targets=("*/p_000000.fits",)),)
    )
    assert result.jobs_executed == n_jobs + 1
    assert not result.dead_letters
    counts = next(iter(result.job_counts.values()))
    assert counts.get("completed") == n_jobs
    assert result.integrity_stats["corrupted"] == 1
    assert result.integrity_stats["regenerated"] == 1
    assert result.integrity_stats["detected"] >= 1
    assert result.data_recoveries >= 1


def test_corruption_under_leases_reaches_the_core_with_its_file_list(
    monkeypatch,
):
    """With leases on, a CORRUPT ack carries the worker's epoch and goes
    through the lease gate; the damaged-file list must still reach the
    core, or nothing maps the bad file to its producer and nothing is
    regenerated."""
    reports = []
    on_corrupt = MasterCore._on_corrupt

    def spy(core, state, job_id, attempt, bad_files, now):
        # Fail at the first empty report: without its file list the
        # consumer would be requeued onto the same bad input for ever.
        assert bad_files, f"{job_id}: a CORRUPT ack reached the core without files"
        reports.append(tuple(bad_files))
        return on_corrupt(core, state, job_id, attempt, bad_files, now)

    monkeypatch.setattr(MasterCore, "_on_corrupt", spy)
    engine = PullEngine(
        SPEC,
        config=CONFIG,
        retry=RetryPolicy(max_attempts=4),
        controllers=[FileCorruptionModel(targets=("*/p_000000.fits",))],
        liveness=LeaseConfig(heartbeat_interval=1.0),
    )
    result = engine.run(Ensemble.replicated(montage_workflow(degree=0.3), 1))
    assert result.integrity_stats["corrupted"] == 1
    assert result.integrity_stats["detected"] >= 1
    assert result.integrity_stats["regenerated"] == 1
    assert result.data_recoveries >= 1
    assert not result.dead_letters
    assert result.jobs_executed == 20 + 1  # montage 0.3deg, one producer rerun
    assert reports and set(reports) == {("montage-0.3deg/p_000000.fits",)}


def test_lost_input_is_restaged_without_rerun():
    """Lose a raw input: the consumer detects it before executing, the
    master restages from the archive, and no job runs twice."""
    n_jobs = 20
    result = _run((FileLossModel(targets=("*/raw_000003.fits",)),))
    assert result.jobs_executed == n_jobs
    assert not result.dead_letters
    assert result.integrity_stats["lost"] == 1
    assert result.integrity_stats["restaged"] == 1


def test_random_corruption_and_loss_still_complete():
    result = _run(
        (
            FileCorruptionModel(p=0.05, seed=3),
            FileLossModel(p=0.05, seed=4),
        )
    )
    assert not result.dead_letters
    counts = next(iter(result.job_counts.values()))
    assert counts.get("completed") == 20
    injected = (
        result.integrity_stats["corrupted"] + result.integrity_stats["lost"]
    )
    assert injected > 0
    assert result.integrity_stats["detected"] >= injected


def test_corruption_recovery_is_deterministic():
    fp = lambda r: (  # noqa: E731
        r.makespan,
        r.jobs_executed,
        dict(r.integrity_stats),
        [e.line() for e in r.fault_events],
    )
    a = _run((FileCorruptionModel(p=0.08, seed=5),))
    b = _run((FileCorruptionModel(p=0.08, seed=5),))
    assert fp(a) == fp(b)


def test_exhausted_regeneration_budget_dead_letters():
    """If the producer is out of attempts when its output must be
    regenerated, the producer is dead-lettered with reason
    ``data-loss`` and its waiters cascade as ``upstream-dead``."""
    from repro.workflow import Workflow

    wf = Workflow("tiny")
    out = DataFile("mid.fits", 10.0)
    # The producer's budget is exactly one attempt: the regeneration
    # request cannot re-run it.
    wf.new_job("producer", "gen", runtime=0.1, outputs=[out],
               max_attempts=1)
    wf.new_job("consumer", "use", runtime=0.1, inputs=[out])
    wf.add_dependency("producer", "consumer")
    engine = PullEngine(
        ClusterSpec("m3.2xlarge", 1),
        config=CONFIG,
        retry=RetryPolicy(max_attempts=4),
        controllers=[FileCorruptionModel(targets=("mid.fits",))],
    )
    with sanitizer.enabled(strict=False):
        result = engine.run(Ensemble([wf]))
    reasons = {e.job_id: e.reason for e in result.dead_letters}
    assert reasons == {"producer": "data-loss", "consumer": "upstream-dead"}


def test_regeneration_sanitizer_hook_fires_on_mismatch():
    with sanitizer.enabled(strict=False) as san:
        san.check_regeneration("wf", "f.fits", "aaaa", "bbbb", time=1.0)
        assert any(v.check == "regeneration-integrity" for v in san.violations)
        san2_before = len(san.violations)
        san.check_regeneration("wf", "f.fits", "aaaa", "aaaa", time=2.0)
        assert len(san.violations) == san2_before  # match: no violation
