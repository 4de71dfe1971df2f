"""Benchmark of the darl CLI: four workloads, per-op latency and CPU, and a traced per-module run.

Run it from the repository root with ``python3 perfbench/run.py --workload NAME``;
README.md in this directory describes the workloads and metrics.
"""
