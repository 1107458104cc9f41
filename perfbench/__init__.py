"""Benchmark of the expflag engine; run it with `python3 perfbench/run.py`."""
