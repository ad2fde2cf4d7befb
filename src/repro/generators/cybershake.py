"""CyberShake post-processing workflow generator.

CyberShake (paper ref [3]) computes physics-based seismic hazard curves.
The post-processing workflow for one site extracts strain Green tensors
(SGTs) for each rupture, synthesises seismograms for every rupture
variation, computes peak intensity values, and aggregates the results:

    ExtractSGT (per rupture)
        -> SeismogramSynthesis (per variation, fan-out)
            -> PeakValCalc (per variation)
                -> ZipSeis / ZipPSA (global aggregators)

The fan-out per rupture is large and the aggregators are blocking, giving
an I/O-heavy contrast to Montage (the SGT files are big).
"""

from __future__ import annotations

from typing import Optional

from repro.workflow.dag import DataFile, Workflow

__all__ = ["cybershake_workflow"]

_INF = float("inf")

SGT_BYTES = 400e6          # strain Green tensor slab per rupture
SEISMOGRAM_BYTES = 0.5e6
PSA_BYTES = 0.1e6
ZIP_BYTES = 50e6

RUNTIME = {
    "ExtractSGT": 30.0,
    "SeismogramSynthesis": 12.0,
    "PeakValCalc": 0.6,
    "ZipSeis": 40.0,
    "ZipPSA": 15.0,
}


def cybershake_workflow(
    ruptures: int = 20,
    variations: int = 15,
    name: Optional[str] = None,
    jitter: float = 0.0,
    seed: int = 0,
) -> Workflow:
    """Generate a CyberShake-post-processing-shaped workflow.

    Parameters
    ----------
    ruptures:
        Number of rupture SGT extractions.
    variations:
        Seismogram variations per rupture (fan-out width).
    """
    if not 1 <= ruptures < _INF:
        raise ValueError(f"ruptures must be finite and >= 1, got {ruptures!r}")
    if variations < 1:
        raise ValueError(f"variations must be >= 1, got {variations!r}")
    if not 0.0 <= jitter < _INF:
        raise ValueError(f"jitter must be finite and >= 0, got {jitter!r}")
    if name is None:
        name = f"cybershake-{ruptures}x{variations}"
    wf = Workflow(name)
    rng = None
    if jitter > 0:
        import numpy as np

        rng = np.random.default_rng(seed)

    def runtime_of(task_type: str) -> float:
        base = RUNTIME[task_type]
        if rng is not None:
            base *= float(rng.lognormal(0.0, jitter))
        return base

    seismograms = []
    psa_files = []
    for r in range(ruptures):
        master_sgt = DataFile(f"{name}/sgt_master_{r:04d}.sgt", SGT_BYTES, "input")
        sgt = DataFile(f"{name}/sgt_{r:04d}.sgt", SGT_BYTES * 0.5)
        wf.new_job(
            f"ExtractSGT_{r:04d}",
            "ExtractSGT",
            runtime=runtime_of("ExtractSGT"),
            inputs=[master_sgt],
            outputs=[sgt],
        )
        for v in range(variations):
            seis = DataFile(f"{name}/seis_{r:04d}_{v:04d}.grm", SEISMOGRAM_BYTES)
            seismograms.append(seis)
            wf.new_job(
                f"SeismogramSynthesis_{r:04d}_{v:04d}",
                "SeismogramSynthesis",
                runtime=runtime_of("SeismogramSynthesis"),
                inputs=[sgt],
                outputs=[seis],
            )
            wf.add_dependency(
                f"ExtractSGT_{r:04d}", f"SeismogramSynthesis_{r:04d}_{v:04d}"
            )
            psa = DataFile(f"{name}/psa_{r:04d}_{v:04d}.bsa", PSA_BYTES)
            psa_files.append(psa)
            wf.new_job(
                f"PeakValCalc_{r:04d}_{v:04d}",
                "PeakValCalc",
                runtime=runtime_of("PeakValCalc"),
                inputs=[seis],
                outputs=[psa],
            )
            wf.add_dependency(
                f"SeismogramSynthesis_{r:04d}_{v:04d}", f"PeakValCalc_{r:04d}_{v:04d}"
            )

    zip_seis = DataFile(f"{name}/seismograms.zip", ZIP_BYTES, "output")
    wf.new_job(
        "ZipSeis",
        "ZipSeis",
        runtime=runtime_of("ZipSeis"),
        inputs=list(seismograms),
        outputs=[zip_seis],
    )
    zip_psa = DataFile(f"{name}/peak_values.zip", ZIP_BYTES * 0.2, "output")
    wf.new_job(
        "ZipPSA",
        "ZipPSA",
        runtime=runtime_of("ZipPSA"),
        inputs=list(psa_files),
        outputs=[zip_psa],
    )
    for r in range(ruptures):
        for v in range(variations):
            wf.add_dependency(f"SeismogramSynthesis_{r:04d}_{v:04d}", "ZipSeis")
            wf.add_dependency(f"PeakValCalc_{r:04d}_{v:04d}", "ZipPSA")

    return wf
