"""The repository benchmark: host-time measurement of the simulator.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload from outside the simulator, by timing calls into its
public entry points, and prints one JSON result line last.  ``BENCHMARK.json``
at the repository root names the workloads and metrics;
:mod:`perfbench.catalogue` says what each metric means and which end-to-end
metric each per-layer metric should move.

Modules:

* :mod:`perfbench.run` -- argument parsing, environment pinning, output;
* :mod:`perfbench.inputs` -- the seeded programs, configurations and CLI
  arguments of each workload;
* :mod:`perfbench.simloop` -- ``hotpath``: direct ``Processor`` runs
  plus result-cache rerun processes;
* :mod:`perfbench.sweep` -- ``fig4_sweep``: the ``repro figures`` CLI as a
  child process, cold and warm;
* :mod:`perfbench.spans` -- the in-memory span recorder of traced runs;
* :mod:`perfbench.summary` -- medians, tails and the result line.

Self-tests (a few seconds): ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""
