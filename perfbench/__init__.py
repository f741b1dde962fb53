"""The repository benchmark: three workloads over the public API.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.problems` for what each one
runs and why) and prints, as its last stdout line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, measured untraced; ``--trace 1`` is a
separate run that reports the per-layer metrics of
:mod:`perfbench.layers`.  ``BENCHMARK.json`` at the repository root
names the workloads and metrics.
"""
