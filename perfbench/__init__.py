"""The repository benchmark: one command, three workloads, every verdict checked.

Run it from the repository root::

    python3 perfbench/run.py --workload service-mixed-10k --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer -> metric -> workload map.
"""
