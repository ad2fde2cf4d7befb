"""The repo's benchmark: six simulated-scale workloads measured from outside.

Run ``python -m bench`` from the repository root (``src/`` is put on the
path for you; ``PYTHONPATH=src python -m bench`` works the same).  The
package drives only public ``repro`` APIs, never edits ``src/`` and
claims no gain — see ``bench/README.md`` for the glossary of every
workload and metric name, and ``BENCHMARK.json`` for the contract a
later change is judged by.
"""
