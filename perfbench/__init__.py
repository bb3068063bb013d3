"""The repository's benchmark: named, seeded workloads over the ``repro`` engine.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics, which
come from spans that :mod:`perfbench.tracer` wraps around the public
functions of the ``repro`` modules (nothing under ``src/`` is modified).
"""
