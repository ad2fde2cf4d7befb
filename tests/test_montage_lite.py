"""End-to-end tests of the Montage-lite toolchain.

The strongest correctness statement in the repository: a real image
computation (synthetic sky + per-tile background offsets + noise), run
through the actual threaded DEWE v2 daemons as OS subprocesses, produces
a mosaic that (a) reconstructs the true sky — the background solver
works — and (b) is byte-identical to the sequential reference execution,
the paper's §V.A verification methodology.
"""

import numpy as np
import pytest

from repro.dewe import DeweConfig, MasterDaemon, SubprocessExecutor, WorkerDaemon, submit_workflow
from repro.dewe.verify import outputs_digest, run_reference, verify_equivalence
from repro.montage_lite import build_montage_lite_workflow, make_sky
from repro.montage_lite.tools import m_bg_model, m_diff_fit
from repro.mq import Broker
from repro.workflow import validate_workflow
from repro.workflow.analysis import summarize

GRID, TILE, SEED = 3, 16, 7

CFG = DeweConfig(
    default_timeout=60.0,
    master_poll_interval=0.005,
    worker_poll_interval=0.01,
    max_concurrent_jobs=4,
)


def test_builder_produces_valid_montage_shape(tmp_path):
    wf = build_montage_lite_workflow(tmp_path, grid=GRID, tile=TILE, seed=SEED)
    validate_workflow(wf)
    counts = summarize(wf).count_by_type
    assert counts["mProjectPP"] == GRID * GRID
    assert counts["mDiffFit"] == 2 * GRID * (GRID - 1)
    assert counts["mBgModel"] == 1
    assert counts["mJpeg"] == 1
    # Raw tiles really exist on disk.
    for i in range(GRID * GRID):
        assert (tmp_path / f"montage-lite/raw_{i:03d}.npy").exists()


def test_background_correction_recovers_sky(tmp_path):
    """The science works: the corrected mosaic matches the true sky far
    better than the raw (offset-contaminated) tiles do."""
    wf = build_montage_lite_workflow(
        tmp_path, grid=GRID, tile=TILE, seed=SEED, subprocess_actions=False
    )
    run_reference(wf)
    mosaic = np.load(tmp_path / "montage-lite/mosaic.npy")
    sky = make_sky(GRID, TILE, SEED)
    corrected_rms = float(np.sqrt(np.mean((mosaic - sky) ** 2)))

    # Raw stitching error: stitch the *uncorrected* projected tiles with
    # the same cropping tool.
    from repro.montage_lite.tools import m_add

    raw_paths = [
        str(tmp_path / f"montage-lite/p_{i:03d}.npy") for i in range(GRID * GRID)
    ]
    raw_mosaic_path = tmp_path / "raw_mosaic.npy"
    m_add(raw_paths, GRID, 2, str(raw_mosaic_path))
    raw_mosaic = np.load(raw_mosaic_path)
    raw_rms = float(np.sqrt(np.mean((raw_mosaic - sky) ** 2)))

    assert corrected_rms < raw_rms / 5
    assert corrected_rms < 2.0  # noise-level reconstruction


def test_dewe_subprocess_run_matches_reference(tmp_path):
    """Paper §V.A: size + MD5 of the final output match between the
    concurrent engine (real subprocesses, multiple workers) and the
    sequential reference (in-process callables)."""
    ref_dir = tmp_path / "ref"
    ref_wf = build_montage_lite_workflow(
        ref_dir, grid=GRID, tile=TILE, seed=SEED, subprocess_actions=False
    )
    run_reference(ref_wf)
    reference = outputs_digest(ref_wf, ref_dir)

    dewe_dir = tmp_path / "dewe"
    dewe_wf = build_montage_lite_workflow(
        dewe_dir, grid=GRID, tile=TILE, seed=SEED, subprocess_actions=True
    )
    broker = Broker()
    with MasterDaemon(broker, CFG) as master:
        workers = [
            WorkerDaemon(broker, SubprocessExecutor(), CFG, name=f"w{k}").start()
            for k in range(2)
        ]
        submit_workflow(broker, dewe_wf)
        assert master.wait(dewe_wf.name, timeout=120.0)
        for w in workers:
            w.stop()
    candidate = outputs_digest(dewe_wf, dewe_dir)
    assert verify_equivalence(reference, candidate) == []
    # The PGM really is an image.
    pgm = (dewe_dir / "montage-lite/mosaic.pgm").read_bytes()
    assert pgm.startswith(b"P5\n")


def test_bg_model_solves_exact_offsets(tmp_path):
    """Unit-level: with a shared overlap strip and no noise the solver
    recovers the planted offsets exactly (up to lstsq tolerance)."""
    rng = np.random.default_rng(3)
    strip = rng.normal(0, 1, (8, 2))  # the sky pixels both tiles see
    offsets = [0.0, 4.25]
    a = np.hstack([rng.normal(0, 1, (8, 6)), strip]) + offsets[0]
    b = np.hstack([strip, rng.normal(0, 1, (8, 6))]) + offsets[1]
    a_path = tmp_path / "p_000.npy"
    b_path = tmp_path / "p_001.npy"
    np.save(a_path, a)
    np.save(b_path, b)
    fit_path = tmp_path / "fit.json"
    m_diff_fit(str(a_path), str(b_path), "h", 1, str(fit_path))
    from repro.montage_lite.tools import m_concat_fit

    table_path = tmp_path / "fits.json"
    m_concat_fit([str(fit_path)], str(table_path))
    corr_path = tmp_path / "corr.json"
    m_bg_model(str(table_path), str(corr_path))
    import json

    corrections = json.loads(corr_path.read_text())["corrections"]
    assert corrections["p_000"] == pytest.approx(0.0, abs=1e-6)
    assert corrections["p_001"] == pytest.approx(4.25, abs=1e-6)


def test_builder_validation(tmp_path):
    with pytest.raises(ValueError):
        build_montage_lite_workflow(tmp_path, grid=1)
    with pytest.raises(ValueError):
        build_montage_lite_workflow(tmp_path, grid=2, tile=2)


def test_cli_dispatch(tmp_path, capsys):
    from repro.montage_lite.__main__ import main

    assert main([]) == 2
    assert "usage" in capsys.readouterr().err
    raw = tmp_path / "raw.npy"
    np.save(raw, np.ones((4, 4)))
    out = tmp_path / "p.npy"
    assert main(["mProjectPP", str(raw), str(out)]) == 0
    assert np.allclose(np.load(out), 1.0)
