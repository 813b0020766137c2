"""The repository benchmark: served-window latency, bulk scoring, Saga task
adaptation and 2-worker pre-training, end to end and per layer.

Run one workload with::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and metrics;
``perfbench/README.md`` explains what each one measures.
"""
