"""Repository benchmark: workloads, correctness checks and a traced run.

Run one workload with ``python3 perfbench/run.py --workload NAME``;
``python3 perfbench/steady.py`` runs every workload several times and
reports each end-to-end metric's median and quartiles.  See
``perfbench/README.md`` for the workloads and the scope of every timed
interval.
"""
