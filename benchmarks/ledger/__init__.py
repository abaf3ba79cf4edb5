"""Perf ledger: one benchmark from adapter fit to streamed window.

Six named workloads cover the deployment path the paper's fit-once
adapters enable (adapter fit -> embedding fill -> head training ->
registry -> served request -> streamed window).  ``run.py`` runs one
workload in its own process and prints its metrics as one JSON line;
``python -m benchmarks.ledger`` runs them all, repeats them, and
compares two result files against the bounds in ``BENCHMARK.json``.
See ``README.md`` in this directory.
"""
