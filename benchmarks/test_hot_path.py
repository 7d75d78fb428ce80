"""Simulation hot-path wall-clock benchmarks.

Unlike the figure benchmarks (which regenerate paper results through the
cached experiment engine), these time :func:`repro.core.simulate` itself --
the per-cycle scheduler select, LSQ disambiguation and event-queue drain
that dominate runtime.  They are the guardrail for the scan-free LSQ and
ready-tracking scheduler work: run with ``--benchmark-json`` and compare
against the previous ``BENCH_*.json`` to track the perf trajectory per PR.

The cache layers are deliberately bypassed (``simulate`` is called directly,
not through ``run_benchmark``), so every round performs real simulation
work.
"""

from dataclasses import replace

import pytest

from repro.core import MachineConfig, simulate
from repro.memsys.hierarchy import MemSysConfig
from repro.experiments.runner import SMOKE_BENCHMARKS
from repro.integration.config import IntegrationConfig
from repro.workloads import build_workload, pointer_chase_memory_bound

#: Scale used for the hot-path timings: big enough that per-cycle costs
#: dominate Processor construction, small enough for CI.
HOT_PATH_SCALE = 0.3

_CONFIGS = {
    "full": IntegrationConfig.full(),
    "none": IntegrationConfig.disabled(),
}


@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
@pytest.mark.parametrize("bench_name", sorted(SMOKE_BENCHMARKS))
def test_simulate_hot_path(benchmark, bench_name, config_name):
    """Time one full simulation of a smoke benchmark (no caching)."""
    config = MachineConfig().with_integration(_CONFIGS[config_name])
    program = build_workload(bench_name, scale=HOT_PATH_SCALE)

    stats = benchmark(simulate, program, config, name=bench_name)

    # Sanity: the run actually simulated to completion.
    assert stats.cycles > 0 and stats.retired > 0
    benchmark.extra_info.update({
        "cycles": stats.cycles,
        "retired": stats.retired,
        "kilocycles_per_second": round(
            stats.cycles / 1000.0 / benchmark.stats.stats.mean, 1),
    })


def test_simulate_memory_bound(benchmark):
    """Time the DRAM-latency-dominated pointer chase.

    Every hop of this chase misses DL1 and L2 by construction, so almost
    all simulated cycles are quiescent waits on a single in-flight load.
    The memory latency is raised from the paper-era 80 cycles to a
    modern-memory-wall 400 so the quiescent spans dominate (98% of cycles
    are elidable).  This is the showcase (and the regression tripwire) for
    the run loop's horizon jumps: most of its simulated cycles are jumped
    over arithmetically instead of stepped.
    """
    config = replace(MachineConfig(),
                     memsys=replace(MemSysConfig(), memory_latency=400))
    program = pointer_chase_memory_bound()

    stats = benchmark(simulate, program, config, name="pointer_chase_mem")

    assert stats.cycles > 0 and stats.retired > 0
    benchmark.extra_info.update({
        "cycles": stats.cycles,
        "retired": stats.retired,
        "cycles_elided": stats.cycles_elided,
        "elided_fraction": round(stats.cycles_elided / stats.cycles, 3),
        "kilocycles_per_second": round(
            stats.cycles / 1000.0 / benchmark.stats.stats.mean, 1),
    })
