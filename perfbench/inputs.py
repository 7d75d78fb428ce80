"""Seeded inputs of each workload, made only from the simulator's public names.

Neither the result-cache key nor the ``repro`` CLI knows a generator seed,
so a seed never puts a different program under a registered benchmark
name.  Seed 0 reproduces the registered programs exactly:

* ``hotpath`` -- seed 0 simulates the registered ``gzip``, ``crafty`` and
  ``mcf``.  Any other seed redraws those three generator specs with a new
  generator seed and registers each under a fresh name (``gzip~seed7``).
  The redraws keep every structural parameter, so instruction counts stay
  within a few percent and host cost per instruction is comparable.
* ``fig4_sweep`` -- the seed picks the order of the smoke benchmarks on the
  command line, which orders the report's rows (seed 0: ``smoke`` itself).
  Picking a different subset would change the sweep's cost by up to 2x,
  far beyond any bound.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import List, NamedTuple, Tuple

SMOKE = ("gzip", "crafty", "mcf")
HOTPATH_SCALE = 0.3
SWEEP_SCALE = 0.3
SWEEP_JOBS = 2


class Point(NamedTuple):
    """One simulation: a named program under a named configuration."""

    name: str          # program name (also its result-cache name)
    config_name: str
    program: object    # repro.isa.program.Program
    config: object     # repro.core.MachineConfig
    scale: float       # the scale the cache key records

    @property
    def op_id(self) -> str:
        return f"{self.name}/{self.config_name}"

    @property
    def integration_enabled(self) -> bool:
        return bool(self.config.integration.enabled)


def hotpath_names(seed: int) -> List[str]:
    """Program names of ``hotpath``, registering seeded redraws."""
    from repro.workloads import SPEC_WORKLOADS

    if seed == 0:
        return list(SMOKE)
    names = []
    rng = random.Random(seed)
    for bench in SMOKE:
        name = f"{bench}~seed{seed}"
        if name not in SPEC_WORKLOADS:
            spec = SPEC_WORKLOADS[bench]
            SPEC_WORKLOADS[name] = dataclasses.replace(
                spec, name=name, seed=rng.randrange(1 << 30))
        names.append(name)
    return names


def hotpath_configs() -> List[Tuple[str, object]]:
    """``(name, MachineConfig)``: integration full, and disabled."""
    from repro.core import MachineConfig
    from repro.integration.config import IntegrationConfig

    return [("full", MachineConfig().with_integration(
                IntegrationConfig.full())),
            ("none", MachineConfig().with_integration(
                IntegrationConfig.disabled()))]


def hotpath_points(seed: int) -> List[Point]:
    """Three programs x {integration full, disabled}, programs built once."""
    from repro.workloads import build_workload

    points = []
    for name in hotpath_names(seed):
        program = build_workload(name, scale=HOTPATH_SCALE)
        for config_name, config in hotpath_configs():
            points.append(Point(name, config_name, program, config,
                                HOTPATH_SCALE))
    return points


def hotpath_keys(seed: int) -> List[Point]:
    """The ``hotpath`` points as a rerun sees them: enough to form the
    result-cache keys, with no program built."""
    return [Point(name, config_name, None, config, HOTPATH_SCALE)
            for name in hotpath_names(seed)
            for config_name, config in hotpath_configs()]


def pass_order(points: List[Point], index: int) -> List[Point]:
    """Interleave a pass: rotate by the pass index and flip each program's
    configuration pair on odd passes, so slow spells of the host land on
    every point alike."""
    if len(points) < 2:
        return list(points)
    pairs = [points[i:i + 2] for i in range(0, len(points), 2)]
    if index % 2:
        pairs = [pair[::-1] for pair in pairs]
    shift = index % len(pairs)
    pairs = pairs[shift:] + pairs[:shift]
    return [point for pair in pairs for point in pair]


def sweep_benchmarks(seed: int) -> Tuple[str, List[str]]:
    """``(--benchmarks argument, benchmark list)`` of ``fig4_sweep``."""
    if seed == 0:
        return "smoke", list(SMOKE)
    orders = list(itertools.permutations(SMOKE))
    order = list(orders[seed % len(orders)])
    return ",".join(order), order


def sweep_argv(seed: int) -> List[str]:
    spec, _ = sweep_benchmarks(seed)
    return ["figures", "--figures", "4", "--benchmarks", spec,
            "--scale", str(SWEEP_SCALE), "--jobs", str(SWEEP_JOBS)]
