"""DIVA-style in-order checker.

Immediately before retirement every instruction is re-executed, in program
order, against precise architectural state.  Any disagreement between the
value the out-of-order engine produced (or the value an integrating
instruction *reused*) and the architecturally correct value is a fault; for
integrating instructions this is exactly how mis-integrations are detected
(paper Section 2.1).  The checker also *is* the commit point: its
architectural state is the reference state of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.functional.executor import execute_step
from repro.functional.state import ArchState
from repro.isa.instruction import DynInst
from repro.isa.opcodes import (
    CHECK_NONE,
    CHECK_STORE,
    CHECK_TAKEN,
    CHECK_VALUE,
)


class SimulationError(RuntimeError):
    """An internal inconsistency that is not a modelled fault (a bug)."""


@dataclass
class DivaFault:
    """A value/control disagreement detected by the checker."""

    dyn: DynInst
    kind: str                      # "value", "branch", "store"
    correct_value: Optional[object] = None
    observed_value: Optional[object] = None
    correct_next_pc: Optional[int] = None


class DivaChecker:
    """Re-executes retiring instructions against architectural state."""

    def __init__(self, arch: ArchState):
        self.arch = arch

    def check_and_commit(self, dyn: DynInst, observed) -> tuple:
        """Re-execute ``dyn`` on architectural state and compare.

        ``observed`` is what the timing core produced for the datum the
        instruction's retire plan checks (``StaticInst.diva_check``): the
        destination register's value, the store data, the branch direction
        or the indirect target.  Returns ``(step_result, fault_or_None)``.
        The architectural state is always advanced with the *correct*
        values, so recovery after a fault simply re-fetches from
        ``arch.pc``.
        """
        inst = dyn.inst
        arch = self.arch
        if arch.pc != inst.pc:
            raise SimulationError(
                f"retirement stream diverged: architectural PC "
                f"{arch.pc:#x} but retiring {inst.pc:#x} (seq {dyn.seq})")
        step = execute_step(arch, inst)
        check = inst.diva_check
        if check == CHECK_VALUE:
            if observed is None or step.dest_value != observed:
                fault = DivaFault(dyn, "value", step.dest_value, observed,
                                  step.next_pc)
            else:
                return step, None
        elif check == CHECK_NONE or observed is None:
            return step, None
        elif check == CHECK_TAKEN:
            if observed == step.taken:
                return step, None
            fault = DivaFault(dyn, "branch", step.taken, observed,
                              step.next_pc)
        elif check == CHECK_STORE:
            if step.store_value == observed:
                return step, None
            fault = DivaFault(dyn, "store", step.store_value, observed,
                              step.next_pc)
        else:                                   # CHECK_NEXT_PC
            if observed == step.next_pc:
                return step, None
            fault = DivaFault(dyn, "branch", None, None, step.next_pc)
        return step, fault
