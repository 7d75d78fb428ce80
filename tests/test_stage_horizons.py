"""Stage horizons and the run loop's clock jumps.

Each stage reports ``horizon(cycle)``: the earliest cycle it could act.
The run loop jumps the clock to the minimum over the stages when that is
in the future.  These tests pin each stage's answer on hand-set states,
check by execution that a span the horizons call quiescent really is
(stepping every cycle of it changes nothing but the clock and the
per-cycle samples), and check that jumps stop exactly where the run limits
fire.
"""

from dataclasses import replace
import re

import pytest

from repro.core import MachineConfig
from repro.core.diva import SimulationError
from repro.core.pipeline import Processor
from repro.core.stages.base import NEVER
from repro.integration.config import IntegrationConfig
from repro.memsys.hierarchy import MemSysConfig
from repro.obs.cpi import classify_stall
from repro.variants import variant_names
from repro.workloads import build_workload, pointer_chase_memory_bound


def _chase_processor(latency=None, **config_fields):
    config = MachineConfig().with_integration(IntegrationConfig.full())
    if latency is not None:
        config = replace(config, memsys=replace(MemSysConfig(),
                                                memory_latency=latency))
    if config_fields:
        config = replace(config, **config_fields)
    return Processor(pointer_chase_memory_bound(nodes=6, hops=16), config,
                     name="horizon")


def _step_until(proc, predicate, limit=20_000):
    while not predicate(proc):
        assert proc.cycle < limit, "state never reached"
        proc.step()


class TestStageHorizons:
    def test_front_end_waits_for_its_resume_cycle(self):
        proc = _chase_processor()
        front_end = proc.front_end
        assert front_end.horizon(0) == 0
        front_end.fetch_resume_cycle = 5
        assert front_end.horizon(0) == 5
        assert front_end.horizon(7) == 7

    def test_front_end_halted_or_full_waits_for_another_stage(self):
        proc = _chase_processor()
        front_end = proc.front_end
        front_end.fetch_halted = True
        assert front_end.horizon(0) == NEVER
        front_end.fetch_halted = False
        for _ in range(proc.config.fetch_queue_size):
            front_end.fetch_queue.append((None, 0))
        assert front_end.horizon(0) == NEVER

    def test_rename_waits_for_the_head_to_decode(self):
        proc = _chase_processor()
        rename = proc.rename_integrate
        assert rename.horizon(0) == NEVER, "empty queue"
        proc.front_end.tick()
        _, ready_cycle = proc.fetch_queue[0]
        assert ready_cycle > 0
        assert rename.horizon(0) == ready_cycle
        assert rename.horizon(ready_cycle) == ready_cycle

    def test_rename_blocked_by_a_full_rob_waits_for_retirement(
            self, monkeypatch):
        proc = _chase_processor()
        proc.front_end.tick()
        _, ready_cycle = proc.fetch_queue[0]
        monkeypatch.setattr(type(proc.rob), "full", property(lambda _: True))
        assert proc.rename_integrate.horizon(ready_cycle) == NEVER

    def test_issue_reports_the_next_scheduled_event(self):
        proc = _chase_processor()
        issue = proc.issue_execute
        assert issue.horizon(0) == NEVER
        issue._schedule_complete(object(), 10)
        assert issue.horizon(0) == 10
        assert issue.horizon(10) == 10
        issue.complete_events.pop(10)
        assert issue.horizon(11) == NEVER
        assert issue.event_cycles == [], "past events are pruned"

    def test_commit_waits_for_the_head_to_complete_and_age(self):
        proc = _chase_processor()
        commit = proc.commit_diva
        assert commit.horizon(0) == NEVER, "empty ROB"
        _step_until(proc, lambda p: p.rob.head() is not None
                    and not p.rob.head().integrated
                    and not p.rob.head().completed)
        head = proc.rob.head()
        assert commit.horizon(proc.cycle) == NEVER
        head.completed = True
        assert commit.horizon(head.rename_cycle) == head.rename_cycle + 2
        assert commit.horizon(head.rename_cycle + 5) == head.rename_cycle + 5


def _quiescent_fingerprint(proc):
    """Everything a stage could change, and the per-cycle CPI blame.

    Leaves out the clock and the per-cycle samples (``cycles``,
    ``cycles_elided``, ``rs_occupancy_*``, ``cpi_stack``), which a
    quiescent cycle advances by design.
    """
    state = proc.state
    fields = state.stats.to_dict()
    for name in ("cycles", "cycles_elided", "rs_occupancy_sum",
                 "rs_occupancy_samples", "cpi_stack"):
        fields.pop(name)
    front_end = proc.front_end
    issue = proc.issue_execute
    return (fields, len(state.rob), state.rs.occupancy,
            len(front_end.fetch_queue), front_end.fetch_pc,
            front_end.fetch_halted, sorted(issue.wakeup_events),
            sorted(issue.complete_events), state.last_retire_cycle,
            state.stall_cause, classify_stall(state))


def _check_horizons_by_stepping(proc, max_cycles=60_000):
    """Step every cycle; across each span the horizons call quiescent,
    assert that nothing but the clock moves.  Returns the cycles covered
    by such spans."""
    stages = proc.stages
    quiet = 0
    while not proc.state.arch.halted:
        cycle = proc.cycle
        assert cycle < max_cycles, "stepped run hung"
        target = min(stage.horizon(cycle) for stage in stages)
        if target <= cycle:
            proc.step()
            continue
        assert target != NEVER, f"every stage idle forever at {cycle}"
        before = _quiescent_fingerprint(proc)
        occupancy = proc.state.rs.occupancy
        while proc.cycle < target:
            proc.step()
            assert _quiescent_fingerprint(proc) == before, (
                f"span {cycle}..{target} was not quiescent at {proc.cycle}")
        assert proc.state.rs.occupancy == occupancy
        quiet += target - cycle
    return quiet


_PROGRAMS = {
    "chase-dram": lambda: pointer_chase_memory_bound(nodes=6, hops=24),
    "chase-l2": lambda: pointer_chase_memory_bound(nodes=6, hops=24,
                                                   stride=4096),
    "chase-l1": lambda: pointer_chase_memory_bound(nodes=6, hops=24,
                                                   stride=16),
    "crafty": lambda: build_workload("crafty", scale=0.02),
    "mcf": lambda: build_workload("mcf", scale=0.02),
}


class TestHorizonsByExecution:
    @pytest.mark.parametrize("program", sorted(_PROGRAMS))
    def test_quiescent_spans_change_nothing(self, program):
        config = MachineConfig().with_integration(IntegrationConfig.full())
        proc = Processor(_PROGRAMS[program](), config, name=program)
        assert _check_horizons_by_stepping(proc) > 0, \
            "no quiescent span; the check is vacuous"

    @pytest.mark.parametrize("variant", variant_names())
    def test_quiescent_spans_change_nothing_on_every_variant(self, variant):
        config = (MachineConfig()
                  .with_integration(IntegrationConfig.full())
                  .with_variant(variant))
        proc = Processor(pointer_chase_memory_bound(nodes=6, hops=24),
                         config, name=f"horizon-{variant}")
        assert _check_horizons_by_stepping(proc) > 0


class TestJumps:
    def test_jump_adds_the_span_of_every_per_cycle_sample(self):
        proc = _chase_processor()
        _step_until(proc, lambda p: p.state.rs.occupancy > 0)
        state = proc.state
        stats = state.stats
        before = (stats.rs_occupancy_sum, stats.rs_occupancy_samples,
                  stats.cycles_elided)
        blame = classify_stall(state)
        blamed = stats.cpi_stack[blame]
        start, occupancy = state.cycle, state.rs.occupancy
        proc._jump(start + 7)
        assert state.cycle == start + 7
        assert stats.rs_occupancy_sum == before[0] + 7 * occupancy
        assert stats.rs_occupancy_samples == before[1] + 7
        assert stats.cycles_elided == before[2] + 6
        assert stats.cpi_stack[blame] == blamed + 7

    def test_jump_stops_exactly_at_max_cycles(self):
        proc = _chase_processor(latency=400, max_cycles=3000)
        with pytest.raises(SimulationError, match="exceeded 3000 cycles"):
            proc.run()
        assert proc.cycle == 3000
        assert proc.stats.cycles_elided > 0

    def test_jump_stops_exactly_at_the_deadlock_deadline(self):
        """The deadlock error fires on the same cycle as stepping would."""
        deadlock = 100
        jumped = _chase_processor(latency=400, deadlock_cycles=deadlock)
        with pytest.raises(SimulationError) as raised:
            jumped.run()
        assert jumped.stats.cycles_elided > 0
        at = int(re.search(r"at cycle (\d+)", str(raised.value)).group(1))
        assert at == jumped.cycle
        assert at == jumped.state.last_retire_cycle + deadlock + 1

        stepped = _chase_processor(latency=400, deadlock_cycles=deadlock)
        _step_until(stepped, lambda p: (p.cycle - p.state.last_retire_cycle
                                        > deadlock))
        assert stepped.cycle == at
        assert (stepped.state.stats.to_dict()
                == {**jumped.state.stats.to_dict(), "cycles_elided": 0})

    def test_busy_cycle_asks_only_the_issue_stage(self, monkeypatch):
        """The issue stage is asked first; when it would act now, no other
        stage is asked."""
        proc = _chase_processor()
        asked = []
        for stage in (proc.commit_diva, proc.rename_integrate,
                      proc.front_end):
            original = stage.horizon
            monkeypatch.setattr(stage, "horizon",
                                lambda cycle, o=original, s=stage:
                                asked.append(s.name) or o(cycle))
        monkeypatch.setattr(proc.issue_execute, "horizon", lambda cycle: cycle)
        proc.run(max_instructions=50)
        assert proc.stats.retired == 50
        assert asked == []
