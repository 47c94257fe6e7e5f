"""Toolchain ledger: seeded workloads, end-to-end and per-layer metrics.

Run ``python -m benchmarks.ledger --list`` for the workloads and metrics,
and see ``README.md`` beside this file.
"""
