"""Where host CPU time goes, by layer: a ``SIGPROF`` sampling profiler.

Every ``interval`` seconds of process CPU time the handler walks up from
the interrupted frame to the nearest frame whose file lies under
``root`` and charges the sample to that file's layer.  So a sample inside
``json/encoder.py`` is charged to the ``repro`` module that called it
(the journal), and a dataclass ``<string>`` frame to its caller.  Unlike
``cProfile`` nothing is added per call, so the proportions are not
shifted towards call-heavy code.
"""

from __future__ import annotations

import signal
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from bench.common import LAYERS, REPRO_DIR, layer_of

__all__ = ["Sampler"]

_UNSEEN = object()


class Sampler:
    """Context manager; read :meth:`shares` and :attr:`coverage` after."""

    def __init__(
        self,
        interval: float = 0.002,
        root: Path = REPRO_DIR,
        classify: Callable[[Sequence[str]], str] = layer_of,
        layers: Sequence[str] = LAYERS,
    ):
        self.interval = interval
        self._prefix = str(root).rstrip("/") + "/"
        self._classify = classify
        self.counts: Dict[str, int] = {layer: 0 for layer in layers}
        self.samples = 0
        self.cpu_s = 0.0
        #: What the kernel delivers for ``interval`` (see :meth:`calibrate`).
        self.effective_interval = interval
        #: file name -> layer, or None for files outside ``root``.
        self._file_layer: Dict[str, Optional[str]] = {}

    def _layer_of_file(self, filename: str) -> Optional[str]:
        if not filename.startswith(self._prefix):
            return None
        return self._classify(filename[len(self._prefix):].split("/"))

    def _on_sample(self, _signum, frame) -> None:
        self.samples += 1
        known = self._file_layer
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = known.get(filename, _UNSEEN)
            if layer is _UNSEEN:
                layer = known[filename] = self._layer_of_file(filename)
            if layer is not None:
                self.counts[layer] = self.counts.get(layer, 0) + 1
                return
            frame = frame.f_back
        self.counts["other"] = self.counts.get("other", 0) + 1

    def calibrate(self, cpu_s: float = 0.3) -> float:
        """Measure the period the kernel really delivers.

        ``ITIMER_PROF`` expires on the scheduler tick, so a 2 ms request
        on a 250 Hz kernel fires every 4 ms.  A pure-Python spin loses no
        signal, so CPU time over signals counted is the true period, and
        :attr:`coverage` is judged against it.
        """
        ticks = 0

        def count(_signum, _frame) -> None:
            nonlocal ticks
            ticks += 1

        previous = signal.signal(signal.SIGPROF, count)
        t0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            while time.process_time() - t0 < cpu_s:
                pass
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            elapsed = time.process_time() - t0
            signal.signal(signal.SIGPROF, previous)
        if ticks:
            self.effective_interval = elapsed / ticks
        return self.effective_interval

    def __enter__(self) -> "Sampler":
        self._cpu0 = time.process_time()
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self.cpu_s += time.process_time() - self._cpu0

    def shares(self) -> Dict[str, float]:
        """Share of samples per layer; sums to 1 when any sample landed."""
        total = sum(self.counts.values())
        return {
            layer: (count / total if total else 0.0)
            for layer, count in self.counts.items()
        }

    @property
    def coverage(self) -> float:
        """Sampled time over process CPU time; a run spending long
        stretches inside one C call loses samples and reads below 1."""
        if self.cpu_s <= 0:
            return 0.0
        return self.samples * self.effective_interval / self.cpu_s
