"""Golden digests: recorded executions a refactor must reproduce.

Every other determinism gate compares a run against *itself* (same
seed twice).  These compare against
values recorded from the commit *before* the master-core extraction
(ISSUE 13), the re-execute-and-diff oracle of Hasham et al. (PAPERS.md):
the journal, the fault trace and the run digest are the captured
provenance, and a change that claims "byte-identical" has to hash to
the same values.

Regenerate only when simulated behaviour changes on purpose: the
failing assertion prints the new value.
"""

import hashlib

import pytest

from repro.cloud import ClusterSpec
from repro.engines import PullEngine, RunConfig
from repro.faults import (
    FaultAction, FaultSchedule, RetryPolicy, kill_restart_cycle,
)
from repro.faults.chaos import SCENARIOS, run_chaos
from repro.generators import montage_workflow
from repro.liveness import LeaseConfig, MasterFailoverModel
from repro.parallel import RunSpec, digest_result, execute_spec
from repro.provision import queue_depth_autoscaler
from repro.recovery.journal import Journal
from repro.service.soak import SoakConfig, run_soak
from repro.workflow import Ensemble


def _sha(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def journal_text(journal: Journal) -> str:
    """The journal's records, one line each: the bytes the digests hash."""
    return "\n".join(
        f"{r.seq:08d} t={r.time:.9f} {r.kind} "
        f"{r.workflow}/{r.job_id}#{r.attempt} {r.detail}"
        for r in journal.records
    )


#: (scenario, seed) -> (report digest, full-journal digest).
CHAOS = {
    ("smoke", 0): (
        "6620ca3dd372a7a7c67c711560df5951e1afc6169a79c68ee12466f28715a04a",
        "cee87aa1ee0188cb1e766dd1c4eae756f1e409193ba617fd1b85a056eb3df11d",
    ),
    ("smoke", 1): (
        "1cb0d8cb719997a58de2709194c75534227b9df904d39ac6ffa74072828f5f5d",
        "557eecb509d3d2ea51d38c0b8ad8f8fd4492a53be0db1c09c60780d6638e13fa",
    ),
    ("spot", 0): (
        "7902eabadeafaeae8c0b63137ac9dd5399053cfbed9b44dcec574fcd0d1854eb",
        "09ed574bfffcb0a13b9562ec35acd63b86070f18faf411e2bda1bb97ec6e6357",
    ),
    ("spot", 1): (
        "d403e3e1998bac040f97c1f0f9d0631c4125b91931c8849d319d803ae0f44fa2",
        "6ca23eb0d565e4a340a5eeb76ad16c338cfbce76a3a6577150c154d89b5eb6a3",
    ),
    ("poison", 0): (
        "8a6239bfbff92756c5abab8fcb1bbc4a84280303286628315a29151017692b21",
        "9b86b6e53abc693cc90eab626a5ece5f9e47f89640cf75507c53fa78cf8e6d7f",
    ),
    ("poison", 1): (
        "8a6239bfbff92756c5abab8fcb1bbc4a84280303286628315a29151017692b21",
        "9b86b6e53abc693cc90eab626a5ece5f9e47f89640cf75507c53fa78cf8e6d7f",
    ),
    ("lossy-mq", 0): (
        "e07fb7907157aa69b7aeb413c4b5e7e56eacc8d482bccfd8ead7ef292c46eb22",
        "5319b43675cbabbdd333202f79c6580cf28b3d3d3e5a79c3bc6168668204736a",
    ),
    ("lossy-mq", 1): (
        "adfb11c20a2f764687ff40821af598e46ff67623c392c19b78c4e398a5db0408",
        "f728575dd0def351de0f3334ac30e0c4bcc758365bd8497a8b94f078eb9b7713",
    ),
    ("master-crash", 0): (
        "b259c5db8a851dda0004ea2cadee643615b113704936862ce1b2aa31e740d80c",
        "8cc675178ac43067714a0cc914a4ab5dc01444a295474d41df1326b815a0fdee",
    ),
    ("master-crash", 1): (
        "0359d3cc291e104b3c5137959698a3cd266e2f43178d1dcda8ebca1244f27eb7",
        "557eecb509d3d2ea51d38c0b8ad8f8fd4492a53be0db1c09c60780d6638e13fa",
    ),
    ("data-loss", 0): (
        "5ee870ee873e10290f840f2a22bb42d41175876cbf7f706d7cc3208d54255979",
        "4abe8a9e6acb524ada8aacaf0b32edad12b98d35682e7801cd69992440c5626e",
    ),
    ("data-loss", 1): (
        "5b027d9f286a28187230ee4d65ae89c23e3da9db976469cccfe16cfedd823298",
        "a8d3300fffb00840e7c25c5af69ac76b898db8348dc5661fc51d9674794ed946",
    ),
    ("partition", 0): (
        "e41a7156c44ffe99d5608ad9e90ea11b961f8788877eb6f75faa52642de5d09a",
        "71d5137624d85724e2e3eee53f6d66d50b7335f2c1a4bb7b307f9c05ef53ce1b",
    ),
    ("partition", 1): (
        "4967bd1cdbc7761d3e4cf42056181a5b8c6cb8b7ab5e661bfe625039174498f8",
        "f2306cf8581987e2d6e22bd8776f8c83ae964d1cbb100a91e958084af1812725",
    ),
    ("game-day", 0): (
        "69d34398c86667cae933b6fe965eeb05c3fa7e62efbb2e4dbdb73765ef4d467b",
        "7f61b1049d688d353d6ac0419055427885ee5b666eb61da9842bfd23ceec6627",
    ),
    ("game-day", 1): (
        "ed4662e60f91380e8c48100df18135e8351cb8b7e9f6dd59c96bbdff81906ccb",
        "5ef5016c9d0c2731212d7ccdc31a64c56b3995103c7c6d930fe045a0bea49ed5",
    ),
    ("overload", 0): (
        "5a9a0cfd652ccf06323a9473c3d520d578fcf0e3972e213cf410890db5eaf8e8",
        "fb74953398bdd3050a3b5faac3749b278b245d821d9cffab48d48bf62bd5e113",
    ),
    ("overload", 1): (
        "c5693ec2e3d840562f1caf3841fefbbe86247f2302339927b4049e6c325655f2",
        "9afca48bcd6ac2c39b164915333d85ecd040362a235d0e07f5b0c622cb4b6dc1",
    ),
    ("asynch-repriority", 0): (
        "c5693ec2e3d840562f1caf3841fefbbe86247f2302339927b4049e6c325655f2",
        "cec67c1f76a68eaa43786bf4c74a705a3c48459a373652f53f442ac5aa6cf9eb",
    ),
    ("asynch-repriority", 1): (
        "c5693ec2e3d840562f1caf3841fefbbe86247f2302339927b4049e6c325655f2",
        "cec67c1f76a68eaa43786bf4c74a705a3c48459a373652f53f442ac5aa6cf9eb",
    ),
    ("stragglers", 0): (
        "3959dbc8e94cbb27a1056e9aa1db3341d46e64a62a9e716ee897f2d367a23cde",
        "fd284c1db76e806abc79e0922f949119085f56357de4abc4920ba5e31af2f634",
    ),
    ("stragglers", 1): (
        "b2cc759a7da67639a7052ac0306aa829b57328d3f594c6d7968d951e22b9a158",
        "840e879e23a8a4dd356abba7b70940cfdc8dce4ddb68332a45feb64222e22e7a",
    ),
}

SOAK = {
    0: "5ca0a43542c028c041e94b5204f39aaa07b48bc8e4505410d92410d9472199c0",
    1: "e0d39548c61ae294117527705ca7b8e59bd97c1e500e6eea5bad78dfcbaf0c81",
}

#: engine -> (RunDigest.fingerprint, events_scheduled) of a 3-member
#: 0.5-degree Montage ensemble on two c3.8xlarge nodes.
ENGINES = {
    "dewe-v1": (
        "87adf47b4330e384fce69a6e76be6b4384b383b669f4cdd586ab9bc4ef3a8fbd",
        1853,
    ),
    "dewe-v2": (
        "a19f1c63d74b749dbb158eea0e766514bab6e514c001ee71147df0b398911e68",
        1821,
    ),
    "pegasus": (
        "b705b47f8eef19539499f0d23090f9799a3c75020d88f1d40169dafe191afe4a",
        2753,
    ),
}

#: controller kind -> digest, recorded on the commit before ISSUE 23
#: folded ``fault_schedule`` / ``autoscaler`` / ``initially_down`` into
#: ``controllers``: the two kinds no chaos scenario above drives.
CONTROLLERS = {
    "kill-restart-other-node": (
        "ecb5a30b2e1a1519f9946b65b18ef04b46cbdbb2fae78f478a9a4360da8490ce"
    ),
    "queue-depth-autoscaler": (
        "85ce6384e6d005d9a73ed59606fbed985a3231b0d9348c187faf3742b28282f3"
    ),
    # Recorded before spot, straggler and partition faults became
    # FaultSchedule actions: this run traces two same-instant ties between
    # fault kinds (spot-notice before degrade-end at t=3.5, partition-heal
    # before spot-replacement at t=5.0) that no other golden pins.
    "every-kind-composed": (
        "aa2240011ab303fa64b32145c210f0772d322b0a3c94ca308d927c6fb037f657"
    ),
}


def _controller_run(kind: str):
    """(engine, ensemble) per pinned kind."""
    config = RunConfig(
        default_timeout=10.0, timeout_check_interval=0.5, record_jobs=False
    )
    if kind == "kill-restart-other-node":
        return PullEngine(
            ClusterSpec("c3.8xlarge", 2, filesystem="nfs-central"), config,
            controllers=[kill_restart_cycle([3.0, 9.0], downtime=2.0, restart_node=1)],
        ), Ensemble.replicated(montage_workflow(degree=0.5), 3, 2.0)
    if kind == "queue-depth-autoscaler":
        return PullEngine(
            ClusterSpec("c3.8xlarge", 4, filesystem="moosefs"), config,
            controllers=[queue_depth_autoscaler(
                min_nodes=1, check_interval=1.0, scale_out_depth=4.0,
                scale_in_depth=1.0, boot_delay=2.0,
            )],
        ), Ensemble.replicated(montage_workflow(degree=0.5), 6, 1.5)
    # test_liveness.py::test_every_controller_kind_composes_in_one_run's run.
    return PullEngine(
        ClusterSpec("c3.8xlarge", 4, filesystem="moosefs"),
        RunConfig(
            default_timeout=6.0, timeout_check_interval=0.25, record_jobs=False
        ),
        retry=RetryPolicy(max_attempts=8),
        journal=Journal(checkpoint_every=10),
        liveness=LeaseConfig(heartbeat_interval=0.25),
        controllers=[
            FaultSchedule([
                FaultAction(1.0, 1, "kill"),
                FaultAction(2.5, 1, "restart"),
                FaultAction(3.5, 0, "spot-notice"),
                FaultAction(4.0, 0, "spot-termination", duration=1.0),
                FaultAction(0.5, 0, "degrade-start", 0.3, 3.0),
                FaultAction(3.0, 1, "partition-start", "full", 2.0),
            ]),
            queue_depth_autoscaler(
                min_nodes=2, check_interval=1.0, scale_out_depth=4.0,
                scale_in_depth=1.0, boot_delay=1.0,
            ),
            MasterFailoverModel(at=2.0, detection=0.5),
        ],
    ), Ensemble.replicated(montage_workflow(degree=0.5), 4, 0.5)


def _engine_spec(engine: str) -> RunSpec:
    return RunSpec(
        engine=engine, size=0.5, workflows=3, interval=5.0, nodes=2,
    )


@pytest.mark.parametrize("name,seed", sorted(CHAOS))
def test_chaos_scenario_matches_recorded_execution(name, seed):
    scenario = SCENARIOS[name]
    report = run_chaos(scenario, seed)
    assert report.ok, report.summary()
    report_journal = journal_text(report.journal) if report.journal is not None else ""
    report_digest = _sha(
        report.trace_text, report_journal, repr(report.makespan)
    )
    # The report's journal is compacted at every checkpoint and absent
    # for most scenarios, so additionally journal the same seeded run
    # without compaction: every master decision of every scenario is a
    # line in this text.  The event count is left out: it is a cost of
    # the simulator, not a simulated result.
    journal = Journal()
    horizon = report.baseline_makespan * (scenario.max_slowdown or 2.0)
    result = scenario.build_engine(seed, horizon, journal=journal).run(
        scenario.ensemble()
    )
    journal_digest = _sha(
        journal_text(journal),
        "\n".join(event.line() for event in result.fault_events),
        repr(result.makespan),
    )
    assert (report_digest, journal_digest) == CHAOS[(name, seed)]


def test_every_builtin_scenario_is_pinned():
    assert {name for name, _seed in CHAOS} == set(SCENARIOS)


@pytest.mark.parametrize("seed", sorted(SOAK))
def test_quick_soak_matches_recorded_execution(seed):
    report = run_soak(SoakConfig.quick(seed))
    assert _sha(report.to_json()) == SOAK[seed]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_fingerprint_matches_recorded_execution(engine):
    digest = execute_spec(_engine_spec(engine))
    assert (digest.fingerprint, digest.events_scheduled) == ENGINES[engine]


@pytest.mark.parametrize("kind", sorted(CONTROLLERS))
def test_controller_run_matches_recorded_execution(kind):
    engine, ensemble = _controller_run(kind)
    result = engine.run(ensemble)
    assert len(result.rental_spans) > 1  # the controller really moved nodes
    assert _sha(
        digest_result(result).fingerprint,
        "\n".join(event.line() for event in result.fault_events),
        repr(result.rental_spans),
        repr(result.cluster.sim._seq),
    ) == CONTROLLERS[kind]
