"""Benchmark of cuckoo-lab at half and full load; run ``perfbench/run.py``."""
