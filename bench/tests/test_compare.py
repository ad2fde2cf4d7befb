"""Verdicts of ``python -m bench compare``."""

import json

from bench import compare


def test_verdicts_on_a_noisy_metric():
    a = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(a, [100.2, 99.8, 100.9, 100.1], "higher", 0.1) == "same"
    assert compare.verdict(a, [120.0, 121.0, 119.0, 122.0], "higher", 0.1) == "better"
    assert compare.verdict(a, [80.0, 81.0, 79.0, 82.0], "higher", 0.1) == "worse"
    assert compare.verdict(a, [80.0, 81.0, 79.0, 82.0], "lower", 0.1) == "better"


def test_wide_spread_is_unresolved_unless_the_sides_separate():
    noisy = [100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, [105.0, 85.0, 135.0, 110.0], "higher", 0.1) == (
        "unresolved"
    )
    # Every B beats every A: resolved in B's favour despite the spread.
    assert compare.verdict(noisy, [200.0, 260.0, 180.0, 220.0], "higher", 0.1) == (
        "better"
    )


def test_setup_floor_keeps_millisecond_jitter_from_being_a_regression():
    assert compare.verdict(
        [0.002, 0.0021, 0.002], [0.004, 0.0041, 0.004], "lower", 0.25, floor=0.020
    ) == "same"


def _doc(fingerprint, jobs_per_s):
    return {
        "machine": {"nproc": 2},
        "workloads": {
            "single_node": {
                "timed": {
                    "end_to_end": {
                        "jobs_per_ref_s": {"values": jobs_per_s},
                    },
                    "exact": {"fingerprint": fingerprint, "jobs_simulated": 10},
                },
                "traced": {"per_layer": {"mq.publishes_per_job": 3.0}},
            }
        },
    }


def test_exact_difference_is_worse_and_sets_the_exit_code(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc("aa", [100.0, 101.0, 99.0])))
    b.write_text(json.dumps(_doc("bb", [100.0, 101.0, 99.0])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "fingerprint" in out and "worse" in out


def test_several_files_per_side_pool_their_repetitions(tmp_path):
    files = []
    for i, values in enumerate(([100.0, 102.0], [98.0, 101.0], [99.0, 100.0])):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(_doc("aa", values)))
        files.append(str(path))
    assert compare.main([files[0], files[1], "--vs", files[2]]) == 0
