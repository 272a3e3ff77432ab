"""Benchmark of the mmqa pipeline; see bench/README.md."""
