"""Monitoring and reporting.

The paper collects OS-level metrics every 3 seconds with mpstat/iostat
(§IV.A); here the DES resources keep exact segment logs and this package
resamples them into the same time series:

* :mod:`~repro.monitor.metrics` — per-node CPU
  utilisation, disk read/write throughput and concurrent-thread series
  (Figs 4, 6, 9, 10);
* :mod:`~repro.monitor.timeline` — per-vCPU-slot Gantt data with
  compute/communication split (Fig 2);
* :mod:`~repro.monitor.report` — aggregate totals (Fig 7) and text
  rendering for the benchmark harness.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.monitor.export": "metrics_to_csv to_chrome_trace",
    "repro.monitor.metrics": "NodeMetrics node_metrics percentile",
    "repro.monitor.report": "format_series run_summary summary_table",
    "repro.monitor.timeline": "SlotSegment slot_timeline",
})
