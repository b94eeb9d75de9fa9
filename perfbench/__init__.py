"""Same-host benchmark of the serve, stream and train paths.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
