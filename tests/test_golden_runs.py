"""Golden digests: recorded executions a refactor must reproduce.

Every other determinism gate compares a run against *itself* (same
seed twice, crash/resume vs uninterrupted).  These compare against
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
from repro.faults import kill_restart_cycle
from repro.faults.chaos import SCENARIOS, run_chaos
from repro.generators import montage_workflow
from repro.parallel import RunSpec, digest_result, execute_spec
from repro.provision import queue_depth_autoscaler
from repro.recovery.journal import Journal
from repro.service.soak import SoakConfig, run_soak
from repro.workflow import Ensemble


def _sha(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


#: (scenario, seed) -> (report digest, full-journal digest).
CHAOS = {
    ("smoke", 0): (
        "6620ca3dd372a7a7c67c711560df5951e1afc6169a79c68ee12466f28715a04a",
        "e75f93f7da26c88535acadd434dbb2d616ac21c29ef8f428fc06e0cd5af835b0",
    ),
    ("smoke", 1): (
        "1cb0d8cb719997a58de2709194c75534227b9df904d39ac6ffa74072828f5f5d",
        "d75d73430e4b0e754d2e119e6379419eaa82b3052b6806b4ae29c396f8a0b5f2",
    ),
    ("spot", 0): (
        "7902eabadeafaeae8c0b63137ac9dd5399053cfbed9b44dcec574fcd0d1854eb",
        "29b85c8bff9e261421d25d282721cd0b34b4163f29e8171fe0cef4afcede426a",
    ),
    ("spot", 1): (
        "d403e3e1998bac040f97c1f0f9d0631c4125b91931c8849d319d803ae0f44fa2",
        "7a574fec828d308ec1fecd2a0549f7e6c0d9c8f5386336ef04cf14ee4f132c75",
    ),
    ("poison", 0): (
        "8a6239bfbff92756c5abab8fcb1bbc4a84280303286628315a29151017692b21",
        "d0d63107322f10f0106a6bb70d8dac1ef93a9acceb402a1d8383dd09c8b2c829",
    ),
    ("poison", 1): (
        "8a6239bfbff92756c5abab8fcb1bbc4a84280303286628315a29151017692b21",
        "d0d63107322f10f0106a6bb70d8dac1ef93a9acceb402a1d8383dd09c8b2c829",
    ),
    ("lossy-mq", 0): (
        "e07fb7907157aa69b7aeb413c4b5e7e56eacc8d482bccfd8ead7ef292c46eb22",
        "815591d3152ac06c6c22fb1619e20e9f0a517a6b9ed046086a9c005d72f8bdde",
    ),
    ("lossy-mq", 1): (
        "adfb11c20a2f764687ff40821af598e46ff67623c392c19b78c4e398a5db0408",
        "a3e9bc14acb3d0ca1fafd679a57ef329f8cf7d6ec5a0f982dbb290f266d5e221",
    ),
    ("master-crash", 0): (
        "b259c5db8a851dda0004ea2cadee643615b113704936862ce1b2aa31e740d80c",
        "877332320a440ce4bce15498b25079c2e22fe758c642bcd22389b9c13c63f5a0",
    ),
    ("master-crash", 1): (
        "0359d3cc291e104b3c5137959698a3cd266e2f43178d1dcda8ebca1244f27eb7",
        "d75d73430e4b0e754d2e119e6379419eaa82b3052b6806b4ae29c396f8a0b5f2",
    ),
    ("data-loss", 0): (
        "5ee870ee873e10290f840f2a22bb42d41175876cbf7f706d7cc3208d54255979",
        "d11e488f7022753dc83e18545cbff92e3dfa060828b069df85d62af401c2ea24",
    ),
    ("data-loss", 1): (
        "5b027d9f286a28187230ee4d65ae89c23e3da9db976469cccfe16cfedd823298",
        "469fe843802be4eebc72adf0ffd2e2d2b217f90fe01b250000946c7d9d9654c5",
    ),
    ("partition", 0): (
        "e41a7156c44ffe99d5608ad9e90ea11b961f8788877eb6f75faa52642de5d09a",
        "fe4ac6bc320389c644ca966177ee8425ed9b7124fee5be9cc283a870a816b48c",
    ),
    ("partition", 1): (
        "4967bd1cdbc7761d3e4cf42056181a5b8c6cb8b7ab5e661bfe625039174498f8",
        "e6b5406e0ddf35556e28688f284eaadb2dae2a11adbfed3b40dcb113bbe23dd8",
    ),
    ("game-day", 0): (
        "69d34398c86667cae933b6fe965eeb05c3fa7e62efbb2e4dbdb73765ef4d467b",
        "0491f88bd7b85d5e6a26f194d8a433c0989434b57823bfcd112a2b87c19b6f5b",
    ),
    ("game-day", 1): (
        "ed4662e60f91380e8c48100df18135e8351cb8b7e9f6dd59c96bbdff81906ccb",
        "e3742789b321daccd7c006bdb6035029283220286bf5c9abe7674634d2611521",
    ),
    ("overload", 0): (
        "5a9a0cfd652ccf06323a9473c3d520d578fcf0e3972e213cf410890db5eaf8e8",
        "21b9fdc73d8b258aecf67985bf5ed30b05a21eca5e5e1e1826637fe3e110b0c2",
    ),
    ("overload", 1): (
        "c5693ec2e3d840562f1caf3841fefbbe86247f2302339927b4049e6c325655f2",
        "0087caacb5e4b59af89b4122289d41cb81079c3f053ea36bc9a824e9bec0c5d8",
    ),
    ("asynch-repriority", 0): (
        "c5693ec2e3d840562f1caf3841fefbbe86247f2302339927b4049e6c325655f2",
        "eb85677442b1afd27ac42ad142f7a6480271d50193c67ec58be3a072b7db702e",
    ),
    ("asynch-repriority", 1): (
        "c5693ec2e3d840562f1caf3841fefbbe86247f2302339927b4049e6c325655f2",
        "eb85677442b1afd27ac42ad142f7a6480271d50193c67ec58be3a072b7db702e",
    ),
    ("stragglers", 0): (
        "3959dbc8e94cbb27a1056e9aa1db3341d46e64a62a9e716ee897f2d367a23cde",
        "0a2bafa489bb09fe7dc53b6892cd6ee3b53e2a91c23a856513b5a840b4938616",
    ),
    ("stragglers", 1): (
        "b2cc759a7da67639a7052ac0306aa829b57328d3f594c6d7968d951e22b9a158",
        "9040d55f8a333862a86baa6fc1753600031057db2557e3151e0a3f04befd2f09",
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
}


def _controller_run(kind: str):
    """(filesystem, nodes, members, interval, controller) per pinned kind."""
    if kind == "kill-restart-other-node":
        return "nfs-central", 2, 3, 2.0, kill_restart_cycle(
            [3.0, 9.0], downtime=2.0, restart_node=1
        )
    return "moosefs", 4, 6, 1.5, queue_depth_autoscaler(
        min_nodes=1, check_interval=1.0, scale_out_depth=4.0,
        scale_in_depth=1.0, boot_delay=2.0,
    )


def _engine_spec(engine: str) -> RunSpec:
    return RunSpec(
        engine=engine, size=0.5, workflows=3, interval=5.0, nodes=2, seed=0,
    )


@pytest.mark.parametrize("name,seed", sorted(CHAOS))
def test_chaos_scenario_matches_recorded_execution(name, seed):
    scenario = SCENARIOS[name]
    report = run_chaos(scenario, seed)
    assert report.ok, report.summary()
    journal_text = report.journal.text() if report.journal is not None else ""
    report_digest = _sha(
        report.trace_text, journal_text, repr(report.makespan)
    )
    # The report's journal is compacted at every checkpoint and absent
    # for most scenarios, so additionally journal the same seeded run
    # without compaction: every master decision of every scenario is a
    # line in this text.
    journal = Journal()
    horizon = report.baseline_makespan * (scenario.max_slowdown or 2.0)
    result = scenario.build_engine(seed, horizon, journal=journal).run(
        scenario.ensemble()
    )
    journal_digest = _sha(
        journal.text(),
        "\n".join(event.line() for event in result.fault_events),
        repr(result.makespan),
        repr(result.cluster.sim._seq),
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
    filesystem, nodes, members, interval, controller = _controller_run(kind)
    result = PullEngine(
        ClusterSpec("c3.8xlarge", nodes, filesystem=filesystem),
        RunConfig(
            default_timeout=10.0, timeout_check_interval=0.5, record_jobs=False
        ),
        controllers=[controller],
    ).run(Ensemble.replicated(montage_workflow(degree=0.5), members, interval))
    assert len(result.rental_spans) > 1  # the controller really moved nodes
    assert _sha(
        digest_result(result).fingerprint,
        "\n".join(event.line() for event in result.fault_events),
        repr(result.rental_spans),
        repr(result.cluster.sim._seq),
    ) == CONTROLLERS[kind]
