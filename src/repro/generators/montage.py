"""Geometric Montage workflow generator.

Montage builds a sky mosaic from a grid of overlapping input tiles
(paper Fig 1).  The generator lays ``G x G`` tiles on a grid and derives
the DAG from tile adjacency:

* ``mProjectPP`` — one per tile: re-project the raw image;
* ``mDiffFit`` — one per overlapping tile pair: fit the difference of two
  projected images (8-neighbourhood plus a band of distance-2 overlaps);
* ``mConcatFit`` — concatenate all fit results (blocking job);
* ``mBgModel`` — solve the background model (blocking job);
* ``mBackground`` — one per tile: apply the background correction;
* ``mImgTbl`` / ``mAdd`` / ``mShrink`` / ``mJpeg`` — assemble, shrink and
  render the final mosaic.

Calibration (anchored to paper §II for a 6.0-degree workflow):

=====================  =============  ==========================
quantity               paper          this generator (degree 6.0)
=====================  =============  ==========================
jobs                   8,586          8,586
input files            1,444 (4 GB)   1,444 (4.0 GB)
intermediate files     22,850 (35GB)  22,858 (35.0 GB)
=====================  =============  ==========================

Per-job CPU costs are chosen so that one 6.0-degree workflow on a single
c3.8xlarge under the pull engine completes in roughly 600 s (Fig 6) with
the blocking stage occupying a large single-threaded window (Fig 2/4's
three-stage pattern).  All constants are module-level so ablation studies
can override them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.workflow.dag import DataFile, Job, Workflow

__all__ = [
    "MONTAGE_BLOCKING_TYPES",
    "montage_grid_size",
    "montage_workflow",
]

# Tiles on a side for a 6.0-degree mosaic; 38^2 = 1,444 input images
# matches the paper's input-file count exactly.
_REF_DEGREE = 6.0
_REF_GRID = 38
_REF_TILES = _REF_GRID * _REF_GRID
_INF = float("inf")

# Diff jobs per tile calibrated so a 6.0-degree workflow has 8,586 jobs:
# 8,586 = 2 * 1,444 (mProjectPP + mBackground) + 6 tail jobs + 5,692 diffs.
_DIFFS_PER_TILE = 5692 / _REF_TILES

# -- file sizes (bytes; decimal GB as in instance-type marketing) -----------
RAW_IMAGE_BYTES = 4.0e9 / _REF_TILES        # 1,444 inputs totalling 4.0 GB
PROJECTED_BYTES = 3.3e6                     # mProjectPP image
PROJECTED_AREA_BYTES = 1.65e6               # mProjectPP area map
DIFF_IMAGE_BYTES = 2.0e6                    # mDiffFit difference image
DIFF_AREA_BYTES = 1.0e6
FIT_RECORD_BYTES = 1.0e4                    # plane-fit coefficients
FITS_TABLE_BYTES = 2.0e6                    # mConcatFit output
CORRECTIONS_BYTES = 1.0e6                   # mBgModel output
CORRECTED_BYTES = 3.3e6                     # mBackground image
CORRECTED_AREA_BYTES = 1.65e6
IMAGE_TABLE_BYTES = 2.0e6                   # mImgTbl output
MOSAIC_BYTES_REF = 2.4e9                    # mAdd mosaic at 6.0 degrees
MOSAIC_AREA_BYTES_REF = 1.2e9
SHRUNK_BYTES = 5.0e7
JPEG_BYTES = 3.0e7

# -- CPU seconds on one reference core (c3/r3/i2 cores are comparable,
#    paper §IV.A: "all three instance types have similar CPU performance").
#    Short fan-out jobs are "copies of a few short-running jobs ... within
#    the range of a few seconds" (paper §II).
RUNTIME = {
    "mProjectPP": 1.7,
    "mDiffFit": 0.9,
    "mBackground": 0.7,
}
# Aggregation jobs scale linearly with the number of tiles; values are for
# the 6.0-degree reference and produce the Fig 2/6 blocking window.
RUNTIME_REF = {
    "mConcatFit": 90.0,
    "mBgModel": 130.0,
    "mImgTbl": 10.0,
    "mAdd": 70.0,
    "mShrink": 25.0,
    "mJpeg": 20.0,
}

#: The jobs the paper calls *blocking* (§II): while they run, no other job
#: of the workflow is eligible.
MONTAGE_BLOCKING_TYPES = ("mConcatFit", "mBgModel")


def montage_grid_size(degree: float) -> int:
    """Tiles per side for a mosaic of ``degree`` (area scales as degree^2)."""
    if not 0 < degree < _INF:
        raise ValueError(f"degree must be finite and > 0, got {degree!r}")
    return max(2, round(_REF_GRID * degree / _REF_DEGREE))


def _tile_overlaps(grid: int, n_diffs: int) -> List[Tuple[int, int]]:
    """Deterministic overlapping tile pairs.

    8-neighbourhood edges first (the physical overlaps of adjacent
    tiles), then distance-2 horizontal overlaps until ``n_diffs`` pairs
    are reached; capped at the number of available pairs.
    """
    pairs: List[Tuple[int, int]] = []

    def tile(r: int, c: int) -> int:
        return r * grid + c

    for r in range(grid):
        for c in range(grid):
            here = tile(r, c)
            if c + 1 < grid:
                pairs.append((here, tile(r, c + 1)))
            if r + 1 < grid:
                pairs.append((here, tile(r + 1, c)))
            if r + 1 < grid and c + 1 < grid:
                pairs.append((here, tile(r + 1, c + 1)))
            if r + 1 < grid and c - 1 >= 0:
                pairs.append((here, tile(r + 1, c - 1)))
    if len(pairs) < n_diffs:
        for r in range(grid):
            for c in range(grid - 2):
                pairs.append((tile(r, c), tile(r, c + 2)))
                if len(pairs) >= n_diffs:
                    break
            if len(pairs) >= n_diffs:
                break
    return pairs[:n_diffs]


def montage_workflow(
    degree: float = 6.0,
    name: Optional[str] = None,
    jitter: float = 0.0,
    seed: int = 0,
    parallel_blocking_jobs: bool = False,
) -> Workflow:
    """Generate a Montage workflow for a ``degree``-degree square mosaic.

    Parameters
    ----------
    degree:
        Mosaic size; 6.0 reproduces the paper's reference workload.
    jitter:
        Relative sigma of lognormal runtime noise (0 = deterministic).
    seed:
        Seed for the jitter RNG (ignored when ``jitter`` is 0).
    parallel_blocking_jobs:
        If True, mConcatFit/mBgModel are marked as able to exploit
        multiple cores (OpenMP-style), the speed-up opportunity noted in
        paper §III.D.
    """
    if not 0.0 <= jitter < _INF:
        raise ValueError(f"jitter must be finite and >= 0, got {jitter!r}")
    grid = montage_grid_size(degree)
    n_tiles = grid * grid
    n_diffs = round(_DIFFS_PER_TILE * n_tiles)
    scale = n_tiles / _REF_TILES  # aggregation-cost scaling
    if name is None:
        name = f"montage-{degree:g}deg"
    wf = Workflow(name)
    rng = None
    if jitter > 0:
        import numpy as np

        rng = np.random.default_rng(seed)

    def runtime_of(task_type: str) -> float:
        base = RUNTIME.get(task_type)
        if base is None:
            base = RUNTIME_REF[task_type] * scale
        if rng is not None:
            base *= float(rng.lognormal(mean=0.0, sigma=jitter))
        return base

    blocking_threads = 8 if parallel_blocking_jobs else 1

    # Each stage's job ids are formatted once, into one list per stage,
    # not again for every dependency edge that names them.

    # Stage 1a: one mProjectPP per tile.
    project_ids = [f"mProjectPP_{i:06d}" for i in range(n_tiles)]
    projected: List[DataFile] = []
    proj_areas: List[DataFile] = []
    for i, job_id in enumerate(project_ids):
        raw = DataFile(f"{name}/raw_{i:06d}.fits", RAW_IMAGE_BYTES, "input")
        proj = DataFile(f"{name}/p_{i:06d}.fits", PROJECTED_BYTES)
        area = DataFile(f"{name}/p_area_{i:06d}.fits", PROJECTED_AREA_BYTES)
        projected.append(proj)
        proj_areas.append(area)
        wf.new_job(
            job_id,
            "mProjectPP",
            runtime=runtime_of("mProjectPP"),
            inputs=[raw],
            outputs=[proj, area],
        )

    # Stage 1b: one mDiffFit per overlapping pair.  Small grids may not
    # have enough overlaps to reach the nominal diff count, so the real
    # pair list is authoritative from here on.
    overlaps = _tile_overlaps(grid, n_diffs)
    diff_ids = [f"mDiffFit_{k:06d}" for k in range(len(overlaps))]
    fit_records: List[DataFile] = []
    for k, (a, b) in enumerate(overlaps):
        job_id = diff_ids[k]
        fit = DataFile(f"{name}/fit_{k:06d}.txt", FIT_RECORD_BYTES)
        diff = DataFile(f"{name}/diff_{k:06d}.fits", DIFF_IMAGE_BYTES)
        darea = DataFile(f"{name}/diff_area_{k:06d}.fits", DIFF_AREA_BYTES)
        fit_records.append(fit)
        wf.new_job(
            job_id,
            "mDiffFit",
            runtime=runtime_of("mDiffFit"),
            inputs=[projected[a], proj_areas[a], projected[b], proj_areas[b]],
            outputs=[diff, darea, fit],
        )
        wf.add_dependency(project_ids[a], job_id)
        wf.add_dependency(project_ids[b], job_id)

    # Stage 2: the two blocking jobs.
    fits_table = DataFile(f"{name}/fits.tbl", FITS_TABLE_BYTES)
    wf.new_job(
        "mConcatFit",
        "mConcatFit",
        runtime=runtime_of("mConcatFit"),
        threads=blocking_threads,
        inputs=list(fit_records),
        outputs=[fits_table],
    )
    for job_id in diff_ids:
        wf.add_dependency(job_id, "mConcatFit")

    corrections = DataFile(f"{name}/corrections.tbl", CORRECTIONS_BYTES)
    wf.new_job(
        "mBgModel",
        "mBgModel",
        runtime=runtime_of("mBgModel"),
        threads=blocking_threads,
        inputs=[fits_table],
        outputs=[corrections],
    )
    wf.add_dependency("mConcatFit", "mBgModel")

    # Stage 3a: one mBackground per tile.
    background_ids = [f"mBackground_{i:06d}" for i in range(n_tiles)]
    corrected: List[DataFile] = []
    corrected_areas: List[DataFile] = []
    for i, job_id in enumerate(background_ids):
        cimg = DataFile(f"{name}/c_{i:06d}.fits", CORRECTED_BYTES)
        carea = DataFile(f"{name}/c_area_{i:06d}.fits", CORRECTED_AREA_BYTES)
        corrected.append(cimg)
        corrected_areas.append(carea)
        wf.new_job(
            job_id,
            "mBackground",
            runtime=runtime_of("mBackground"),
            inputs=[projected[i], proj_areas[i], corrections],
            outputs=[cimg, carea],
        )
        wf.add_dependency("mBgModel", job_id)
        wf.add_dependency(project_ids[i], job_id)

    # Stage 3b: assemble the mosaic.
    image_table = DataFile(f"{name}/images.tbl", IMAGE_TABLE_BYTES)
    wf.new_job(
        "mImgTbl",
        "mImgTbl",
        runtime=runtime_of("mImgTbl"),
        # mImgTbl only scans image headers; that metadata traffic is
        # negligible and folded into the job's runtime.
        inputs=[],
        outputs=[image_table],
    )
    for job_id in background_ids:
        wf.add_dependency(job_id, "mImgTbl")

    mosaic = DataFile(f"{name}/mosaic.fits", MOSAIC_BYTES_REF * scale)
    mosaic_area = DataFile(f"{name}/mosaic_area.fits", MOSAIC_AREA_BYTES_REF * scale)
    wf.new_job(
        "mAdd",
        "mAdd",
        runtime=runtime_of("mAdd"),
        inputs=[image_table] + corrected + corrected_areas,
        outputs=[mosaic, mosaic_area],
    )
    wf.add_dependency("mImgTbl", "mAdd")

    shrunk = DataFile(f"{name}/mosaic_small.fits", SHRUNK_BYTES)
    wf.new_job(
        "mShrink",
        "mShrink",
        runtime=runtime_of("mShrink"),
        inputs=[mosaic],
        outputs=[shrunk],
    )
    wf.add_dependency("mAdd", "mShrink")

    jpeg = DataFile(f"{name}/mosaic.jpg", JPEG_BYTES, "output")
    wf.new_job(
        "mJpeg",
        "mJpeg",
        runtime=runtime_of("mJpeg"),
        inputs=[shrunk],
        outputs=[jpeg],
    )
    wf.add_dependency("mShrink", "mJpeg")

    return wf
