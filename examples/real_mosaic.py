#!/usr/bin/env python
"""Compute an actual image mosaic with the real DEWE v2 daemons.

Montage-lite builds a synthetic sky, slices it into overlapping tiles
with per-tile background offsets and noise, and the full Montage job
chain (projection -> difference fits -> background model -> correction ->
co-addition -> shrink -> render) runs as OS subprocesses pulled by DEWE
v2 workers.  The script then verifies the reconstruction quality and the
paper's §V.A MD5 equivalence against a sequential reference run.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import DeweConfig, MasterDaemon, WorkerDaemon, submit_workflow
from repro.dewe import SubprocessExecutor
from repro.dewe.verify import outputs_digest, run_reference, verify_equivalence
from repro.montage_lite import build_montage_lite_workflow, make_sky
from repro.mq import Broker

GRID, TILE, SEED = 4, 24, 11


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        print("building reference run (sequential, in-process)...")
        ref_dir = tmp / "reference"
        ref_wf = build_montage_lite_workflow(
            ref_dir, grid=GRID, tile=TILE, seed=SEED, subprocess_actions=False
        )
        run_reference(ref_wf)
        reference = outputs_digest(ref_wf, ref_dir)

        print("running the same mosaic through DEWE v2 (3 workers, "
              "subprocess jobs)...")
        dewe_dir = tmp / "dewe"
        wf = build_montage_lite_workflow(
            dewe_dir, grid=GRID, tile=TILE, seed=SEED, subprocess_actions=True
        )
        config = DeweConfig(default_timeout=120.0, max_concurrent_jobs=4)
        broker = Broker()
        with MasterDaemon(broker, config) as master:
            workers = [
                WorkerDaemon(broker, SubprocessExecutor(), config, name=f"w{k}").start()
                for k in range(3)
            ]
            submit_workflow(broker, wf)
            assert master.wait(wf.name, timeout=300.0)
            for w in workers:
                w.stop()
            _wf, snapshot = master.settled[wf.name]
            print(f"  {snapshot.counts()['completed']} jobs in "
                  f"{master.makespan(wf.name):.2f} s")

        print("verifying (paper §V.A): size + MD5 vs the reference...")
        problems = verify_equivalence(reference, outputs_digest(wf, dewe_dir))
        print("  outputs identical" if not problems else f"  MISMATCH: {problems}")

        sky = make_sky(GRID, TILE, SEED)
        mosaic = np.load(dewe_dir / "montage-lite/mosaic.npy")
        rms = float(np.sqrt(np.mean((mosaic - sky) ** 2)))
        print(f"reconstruction error vs true sky: RMS = {rms:.2f} "
              f"(tile offsets were +-50)")
        pgm = dewe_dir / "montage-lite/mosaic.pgm"
        print(f"rendered mosaic: {pgm.name}, {pgm.stat().st_size:,} bytes")


if __name__ == "__main__":
    main()
