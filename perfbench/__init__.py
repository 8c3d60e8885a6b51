"""The repository benchmark: four workloads, end-to-end and per-layer.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
