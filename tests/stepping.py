"""The per-cycle reference the run loop is checked against."""

from repro.core.pipeline import Processor


def simulate_stepped(program, config, name=None, max_instructions=None,
                     tracer=None):
    """Like :func:`repro.core.simulate`, but call ``Processor.step()`` on
    every cycle (no horizon jumps) under the same exact retire budget."""
    proc = Processor(program, config, name=name, tracer=tracer)
    state = proc.state
    state.retire_budget = max_instructions
    while not state.arch.halted and (
            max_instructions is None
            or state.stats.retired < max_instructions):
        assert state.cycle < proc.config.max_cycles, "stepped run hung"
        proc.step()
    stats = state.stats
    stats.cycles = state.cycle
    stats.cht_hits = state.cht.hits
    stats.cht_trainings = state.cht.trainings
    return stats
