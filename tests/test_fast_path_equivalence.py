"""The run loop vs the per-cycle ``Processor.step()`` reference.

:func:`repro.core.simulate` runs :meth:`Processor.step` on every cycle in
which some stage could act and jumps the clock across the quiescent spans
in between (each stage reports its ``horizon``).  The jumps must be
invisible: every ``SimStats`` field except the driver-mechanics
``cycles_elided`` is bit-identical to stepping every cycle -- same cycle
count, same per-cycle RS occupancy samples, same squash/recovery
behaviour, same integration statistics and CPI stack -- on arbitrary
programs and on every registered machine variant.

The workload-based cases are chosen so mid-run recovery actually happens
(mispredicted branches and memory-order violations both squash), and the
memory-bound cases so long spans are actually jumped; the tests assert
both rather than assume them.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.core import MachineConfig, simulate
from repro.integration.config import IntegrationConfig
from repro.isa import ProgramBuilder
from repro.variants import variant_names
from repro.workloads import build_workload, pointer_chase_memory_bound

from stepping import simulate_stepped


def _comparable(stats):
    """Every ``SimStats`` field but the driver-mechanics ``cycles_elided``."""
    fields = stats.to_dict()
    fields.pop("cycles_elided")
    return fields


def _run_both(program, config, name="equiv"):
    """Simulate once with the run loop and once stepping every cycle."""
    jumped = simulate(program, config, name=name)
    stepped = simulate_stepped(program, config, name=name)
    assert stepped.cycles_elided == 0
    return jumped, stepped


@st.composite
def branchy_programs(draw):
    """Random programs with data-dependent branches and aliasing memory.

    Conditional branches over skipped filler give the predictor real
    mispredictions (squash + recovery at execute); loads and stores share a
    small window of ``gp``-relative slots so store-load ordering logic is
    exercised too.  All branches are forward, so every program terminates.
    """
    builder = ProgramBuilder(name="random-branchy")
    regs = ["t0", "t1", "t2", "t3", "s0", "s1"]
    builder.label("main")
    for reg in regs:
        builder.li(reg, draw(st.integers(min_value=0, max_value=255)))
    blocks = draw(st.integers(min_value=2, max_value=5))
    for block in range(blocks):
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            kind = draw(st.integers(min_value=0, max_value=3))
            rd = draw(st.sampled_from(regs))
            ra = draw(st.sampled_from(regs))
            if kind == 0:
                op = draw(st.sampled_from(["addq", "subq", "xor", "and",
                                           "or", "cmplt"]))
                builder.rr(op, rd, ra, draw(st.sampled_from(regs)))
            elif kind == 1:
                op = draw(st.sampled_from(["addqi", "subqi", "xori", "slli"]))
                builder.ri(op, rd, ra, draw(st.integers(min_value=1,
                                                        max_value=15)))
            elif kind == 2:
                offset = 8 * draw(st.integers(min_value=0, max_value=7))
                builder.stq(ra, offset, "gp")
            else:
                offset = 8 * draw(st.integers(min_value=0, max_value=7))
                builder.load("ldq", rd, offset, "gp")
        op = draw(st.sampled_from(["beq", "bne", "blt", "bge"]))
        builder.cbr(op, draw(st.sampled_from(regs)), f"join{block}")
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            builder.ri("addqi", draw(st.sampled_from(regs)),
                       draw(st.sampled_from(regs)), 1)
        builder.label(f"join{block}")
    builder.mov("a0", draw(st.sampled_from(regs)))
    builder.syscall(0)
    return builder.build(entry="main")


class TestFastPathEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=branchy_programs())
    def test_random_programs_match_cycle_for_cycle(self, program):
        config = MachineConfig().with_integration(IntegrationConfig.full())
        jumped, stepped = _run_both(program, config)
        assert _comparable(jumped) == _comparable(stepped)

    @pytest.mark.parametrize("variant", variant_names())
    def test_every_variant_matches_on_real_workload(self, variant):
        program = build_workload("gzip", scale=0.05)
        config = (MachineConfig()
                  .with_integration(IntegrationConfig.full())
                  .with_variant(variant))
        jumped, stepped = _run_both(program, config,
                                    name=f"equiv-{variant}")
        assert _comparable(jumped) == _comparable(stepped)

    def test_equivalence_covers_midrun_recovery(self):
        """The workload comparison is only meaningful if recovery fires."""
        program = build_workload("crafty", scale=0.05)
        config = MachineConfig().with_integration(IntegrationConfig.full())
        jumped, stepped = _run_both(program, config,
                                    name="equiv-recovery")
        assert jumped.squashed > 0, "no mid-run squash exercised"
        assert jumped.retired_mispredicted_branches > 0
        assert _comparable(jumped) == _comparable(stepped)

    def test_integration_disabled_matches_too(self):
        program = build_workload("mcf", scale=0.05)
        config = MachineConfig().with_integration(
            IntegrationConfig.disabled())
        jumped, stepped = _run_both(program, config,
                                    name="equiv-none")
        assert _comparable(jumped) == _comparable(stepped)

    def test_retire_budget_stops_both_on_the_same_boundary(self):
        program = build_workload("gzip", scale=0.05)
        config = MachineConfig().with_integration(IntegrationConfig.full())
        jumped = simulate(program, config, name="equiv-budget",
                          max_instructions=1500)
        stepped = simulate_stepped(program, config, name="equiv-budget",
                                   max_instructions=1500)
        assert jumped.retired == 1500
        assert _comparable(jumped) == _comparable(stepped)


@st.composite
def memory_stall_programs(draw):
    """Pointer chases tuned to stall: conflict-missing rings of drawn shape.

    Drawn strides cover the full range of behaviours the stage horizons
    must survive: 512KB (every hop a main-memory miss -- maximal quiescent
    spans), 4KB (L2 hits after warmup -- short spans), and 16 bytes
    (cache-resident -- jumps almost never fire, exercising the paths where
    some stage acts now instead).
    """
    nodes = draw(st.integers(min_value=5, max_value=10))
    hops = draw(st.integers(min_value=16, max_value=48))
    stride = draw(st.sampled_from([512 * 1024, 4096, 16]))
    return pointer_chase_memory_bound(nodes=nodes, hops=hops, stride=stride)


class TestElisionEquivalence:
    """Horizon jumps on memory-bound programs, where most cycles are jumped.

    The jumped run must report ``cycles_elided > 0`` (the comparison is
    not vacuous) and the stepped reference ``0``.
    """

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=memory_stall_programs())
    def test_random_memory_stall_programs_match(self, program):
        config = MachineConfig().with_integration(IntegrationConfig.full())
        jumped, stepped = _run_both(program, config, name="elide")
        assert _comparable(jumped) == _comparable(stepped)

    @pytest.mark.parametrize("variant", variant_names())
    def test_every_variant_matches(self, variant):
        program = pointer_chase_memory_bound(nodes=6, hops=64)
        config = (MachineConfig()
                  .with_integration(IntegrationConfig.full())
                  .with_variant(variant))
        jumped, stepped = _run_both(program, config,
                                    name=f"elide-{variant}")
        assert _comparable(jumped) == _comparable(stepped)
        assert jumped.cycles_elided > 0, \
            "no span was jumped; the comparison is vacuous"

    def test_branchy_recovery_still_matches(self):
        """Squash/recovery interleaved with stalls doesn't break jumps."""
        program = build_workload("mcf", scale=0.05)
        config = MachineConfig().with_integration(IntegrationConfig.full())
        jumped, stepped = _run_both(program, config, name="elide-recovery")
        assert jumped.squashed > 0, "no mid-run squash exercised"
        assert jumped.cycles_elided > 0
        assert _comparable(jumped) == _comparable(stepped)

    def test_jump_accumulates_stats_exactly(self):
        """A jump's arithmetic accumulation equals the per-cycle loop.

        The run loop accumulates ``rs_occupancy_sum`` and
        ``rs_occupancy_samples`` arithmetically (``span * occupancy``)
        instead of sampling each jumped cycle; this pins the exact
        equality of those two paths on a run with long jumps.
        """
        program = pointer_chase_memory_bound(nodes=8, hops=128)
        jumped, stepped = _run_both(program, MachineConfig(),
                                    name="elide-stats")
        assert jumped.cycles_elided > 0
        assert jumped.cycles == stepped.cycles
        assert jumped.rs_occupancy_sum == stepped.rs_occupancy_sum
        assert jumped.rs_occupancy_samples == stepped.rs_occupancy_samples
