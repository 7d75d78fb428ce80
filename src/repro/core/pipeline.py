r"""The cycle-level out-of-order processor engine.

:class:`Processor` is a construction-free engine: a
:class:`~repro.core.builder.MachineBuilder` (resolved from the ``variant``
field of the :class:`~repro.core.config.MachineConfig` via the
:mod:`repro.variants` registry, or passed explicitly) assembles the
substrates and wires them into the four stage components of
:mod:`repro.core.stages`; the engine only advances the clock and enforces
the run limits.  All per-stage behaviour lives in the stage classes; all
per-slot construction lives in the builder.

Pipeline organisation (13 stages, paper Section 3.1)::

    fetch(3)  decode(1)  rename(1) | schedule(2) regread(2) execute  wb(1) | DIVA(1) retire(1)
    \------ FrontEnd ------/\-- RenameIntegrate  \--- IssueExecute ---/\- CommitDiva -/

Integrating instructions leave the pipeline at rename: they are never
allocated reservation stations, never issue, and never touch the data cache;
they wait in the reorder buffer until their (shared) physical register value
is ready and then pass through DIVA and retirement like everything else.

Each simulated cycle runs writeback, commit, issue, rename and fetch -- in
that order, so results written back in cycle N are visible to retirement in
the same cycle, matching the seed model exactly.  :meth:`Processor.step` is
that one per-cycle body.  The run loop calls it on every cycle where some
stage could act, and jumps the clock across the quiescent spans in between
(each stage reports its ``horizon``: the earliest cycle it could act).
"""

from __future__ import annotations

import gc
from typing import Optional, Tuple

from repro.core.builder import MachineBuilder
from repro.core.config import MachineConfig
from repro.core.diva import SimulationError
from repro.core.stages import Stage
from repro.core.stats import SimStats
from repro.functional.state import ArchState
from repro.isa.program import Program
from repro.obs.cpi import CPI_RETIRED, classify_stall


class Processor:
    """Cycle-level model of the paper's 4-way superscalar machine."""

    def __init__(self, program: Program,
                 config: Optional[MachineConfig] = None,
                 name: Optional[str] = None,
                 initial_state: Optional[ArchState] = None,
                 builder: Optional[MachineBuilder] = None,
                 tracer=None):
        self.program = program
        self.config = config or MachineConfig()
        if builder is None:
            # Resolved here (not at import) so repro.variants can import the
            # builder/stage modules without a cycle.
            from repro.variants import get_builder
            builder = get_builder(self.config.variant)()
        self.builder = builder

        machine = builder.build(program, self.config, name=name,
                                initial_state=initial_state)
        self.state = machine.state
        #: Optional :class:`~repro.obs.trace.PipelineTracer` receiving the
        #: per-instruction lifecycle hooks from every stage.
        self.tracer = tracer
        self.state.tracer = tracer
        self.front_end = machine.front_end
        self.recovery = machine.recovery
        self.rename_integrate = machine.rename_integrate
        self.issue_execute = machine.issue_execute
        self.commit_diva = machine.commit_diva
        #: Program order of the stage components (front of the pipe first).
        self.stages: Tuple[Stage, ...] = machine.stages

        # Counter baselines, advanced past the stats-discarded warm-up phase
        # of a sliced run (zero for ordinary whole-program runs).
        self._cycle_base = 0
        self._cht_hits_base = 0
        self._cht_trainings_base = 0

        # Convenience aliases kept for tests, tools and documentation.
        state = self.state
        self.arch = state.arch
        self.diva = state.diva
        self.mem = state.mem
        self.predictor = state.predictor
        self.prf = state.prf
        self.map_table = state.map_table
        self.renamer = state.renamer
        self.integration = state.integration
        self.rob = state.rob
        self.rs = state.rs
        self.lsq = state.lsq
        self.cht = state.cht
        self.stats = state.stats

    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.state.cycle

    @property
    def fetch_queue(self):
        return self.front_end.fetch_queue

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole machine by one cycle.

        Back-to-front evaluation: results written back this cycle are
        visible to retirement, freed resources are visible to rename, and
        redirects take effect before the next fetch.
        """
        state = self.state
        stats = state.stats
        retired_before = stats.retired
        self.issue_execute.writeback()
        self.commit_diva.tick()
        self.issue_execute.tick()
        self.rename_integrate.tick()
        self.front_end.tick()
        stats.rs_occupancy_sum += state.rs.occupancy
        stats.rs_occupancy_samples += 1
        if stats.retired != retired_before:
            stats.cpi_stack[CPI_RETIRED] += 1
        else:
            stats.cpi_stack[classify_stall(state)] += 1
        state.cycle += 1

    def _run_phase(self, budget: Optional[int]) -> None:
        """Advance the clock until halt or exactly ``budget`` retirements.

        The commit stage refuses to retire past ``state.retire_budget``, so
        the machine stops on a precise architectural instruction boundary
        (the property sharded slices rely on to recombine losslessly).

        Each iteration asks the stages for their ``horizon`` (see
        :class:`~repro.core.stages.base.Stage`).  When some stage would act
        now the cycle runs through :meth:`step`; otherwise the clock jumps
        to the earliest horizon (see :meth:`_jump`).  The execution stage
        is asked first, so a busy cycle costs one query.  Jumps stop
        exactly where the per-cycle loop would raise the ``max_cycles`` /
        deadlock errors.
        """
        state = self.state
        config = self.config
        arch = state.arch
        stats = state.stats
        max_cycles = config.max_cycles
        deadlock_cycles = config.deadlock_cycles
        issue_horizon = self.issue_execute.horizon
        other_horizons = (self.commit_diva.horizon,
                          self.rename_integrate.horizon,
                          self.front_end.horizon)
        step = self.step
        state.retire_budget = budget
        while not arch.halted:
            if budget is not None and stats.retired >= budget:
                break
            cycle = state.cycle
            if cycle >= max_cycles:
                raise SimulationError(
                    f"{self.program.name}: exceeded {max_cycles} cycles")
            if cycle - state.last_retire_cycle > deadlock_cycles:
                raise SimulationError(
                    f"{self.program.name}: no retirement for "
                    f"{deadlock_cycles} cycles at cycle {cycle} "
                    f"(ROB={len(state.rob)}, RS={state.rs.occupancy})")
            target = issue_horizon(cycle)
            if target > cycle:
                deadline = state.last_retire_cycle + deadlock_cycles + 1
                if deadline < target:
                    target = deadline
                if max_cycles < target:
                    target = max_cycles
                for horizon in other_horizons:
                    earliest = horizon(cycle)
                    if earliest < target:
                        target = earliest
                        if target == cycle:
                            break
                if target > cycle:
                    self._jump(target)
                    continue
            step()

    def _jump(self, target: int) -> None:
        """Advance the clock from a quiescent cycle straight to ``target``.

        No stage acts inside the span, so nothing retires and every
        per-cycle statistic is constant across it: RS occupancy and the
        :func:`~repro.obs.cpi.classify_stall` blame are added ``span``
        times in one step.  ``cycles_elided`` counts the iterations the
        jump saved.
        """
        state = self.state
        stats = state.stats
        span = target - state.cycle
        stats.rs_occupancy_sum += span * state.rs.occupancy
        stats.rs_occupancy_samples += span
        stats.cycles_elided += span - 1
        stats.cpi_stack[classify_stall(state)] += span
        state.cycle = target

    def run(self, max_instructions: Optional[int] = None,
            warmup_instructions: int = 0) -> SimStats:
        """Simulate until the program exits (or a limit is hit).

        ``max_instructions`` is an *exact* retired-instruction budget.
        ``warmup_instructions`` retires that many instructions first in full
        detail but *discards* their statistics: microarchitectural state
        (caches, branch predictor, integration table) is warm when counting
        starts, which is what keeps a mid-program slice's IPC close to the
        same region of an uninterrupted run.  The warm-up instructions do
        advance architectural state, so a slice resumed from the checkpoint
        at ``boundary - warmup`` with ``warmup_instructions=warmup`` counts
        exactly the instructions in ``[boundary, boundary + budget)``.
        """
        # The per-cycle loop allocates heavily (DynInst, IT entries, event
        # buckets) but the object graph is cycle-free, so reference counting
        # reclaims everything promptly; pausing the cyclic collector for the
        # run avoids pointless generation scans in the middle of the hot
        # loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(max_instructions, warmup_instructions)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, max_instructions: Optional[int],
             warmup_instructions: int) -> SimStats:
        state = self.state
        if warmup_instructions:
            self._run_phase(warmup_instructions)
            # Reset the counters; microarchitectural state stays warm.
            warm = state.stats
            fresh = SimStats(benchmark=warm.benchmark,
                             config_name=warm.config_name,
                             variant=warm.variant)
            state.stats = fresh
            self.stats = fresh
            self._cycle_base = state.cycle
            self._cht_hits_base = state.cht.hits
            self._cht_trainings_base = state.cht.trainings
        remaining = None
        if max_instructions is not None:
            remaining = max(0, max_instructions)
        self._run_phase(remaining)
        stats = state.stats
        stats.cycles = state.cycle - self._cycle_base
        stats.cht_hits = state.cht.hits - self._cht_hits_base
        stats.cht_trainings = state.cht.trainings - self._cht_trainings_base
        return stats


def simulate(program: Program, config: Optional[MachineConfig] = None,
             name: Optional[str] = None,
             max_instructions: Optional[int] = None,
             initial_state: Optional[ArchState] = None,
             warmup_instructions: int = 0,
             builder: Optional[MachineBuilder] = None,
             tracer=None) -> SimStats:
    """Convenience wrapper: build a :class:`Processor` and run it.

    ``initial_state`` starts the machine from an architectural checkpoint
    (see :func:`repro.functional.emulator.collect_checkpoints`);
    ``warmup_instructions`` retires a stats-discarded detailed warm-up
    first; ``max_instructions`` then stops the run after exactly that many
    counted retirements.  Together they simulate one slice of a sharded
    run.  ``builder`` overrides the machine variant resolved from
    ``config.variant``; ``tracer`` attaches a
    :class:`~repro.obs.trace.PipelineTracer` to the lifecycle hooks.
    """
    processor = Processor(program, config=config, name=name,
                          initial_state=initial_state, builder=builder,
                          tracer=tracer)
    return processor.run(max_instructions=max_instructions,
                         warmup_instructions=warmup_instructions)
