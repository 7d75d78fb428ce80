"""Single-instruction architectural execution.

:func:`execute_step` applies one :class:`StaticInst` to an
:class:`ArchState`.  It is the single source of truth for instruction
behaviour used by the functional emulator and, instruction-by-instruction, by
the DIVA checker stage of the timing core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.functional.state import ArchState
from repro.isa.instruction import StaticInst
from repro.isa.opcodes import OpClass
from repro.isa.program import INST_SIZE
from repro.isa import semantics
from repro.isa.registers import RETURN_VALUE_REG, ARG_REGS

# System-call service codes.
SYS_EXIT = 0
SYS_PUTINT = 1
SYS_BRK = 2


@dataclass(slots=True)
class StepResult:
    """What one architectural step did (used by DIVA and by tests)."""

    inst: StaticInst
    next_pc: int
    dest_value: Optional[object] = None
    eff_addr: Optional[int] = None
    store_value: Optional[object] = None
    taken: Optional[bool] = None
    halted: bool = False


_MASK64 = semantics.MASK64
_MASK32 = semantics.MASK32


def execute_step(state: ArchState, inst: StaticInst) -> StepResult:
    """Execute ``inst`` against ``state`` and advance the PC.

    Dispatches through the per-opcode handlers precomputed on ``OpInfo``
    (the same functions ``semantics.evaluate`` consults) so the per-step
    cost is an attribute read instead of an enum-keyed dict probe.
    Register results go to ``inst.mapped_dest``, which is ``None`` for the
    hard-wired zero registers (writes to them are discarded).
    """
    info = inst.info
    cls = info.cls
    fallthrough = inst.pc + INST_SIZE
    next_pc = fallthrough
    dest_value = None
    eff_addr = None
    store_value = None
    taken = None
    halted = False

    regs = state.regs
    if info.is_alu:
        a = regs[inst.ra] if inst.ra is not None else 0
        b = regs[inst.rb] if inst.rb is not None else 0
        if info.eval_is_fp:
            dest_value = info.eval_fn(a, b, inst.imm)
        else:
            # Same wrong-path float->int coercion semantics.evaluate applies.
            if type(a) is float:
                a = int(a)
            if type(b) is float:
                b = int(b)
            dest_value = info.eval_fn(a, b, inst.imm)
        if inst.mapped_dest is not None:
            regs[inst.mapped_dest] = dest_value
    elif cls is OpClass.LOAD:
        base = regs[inst.ra]
        eff_addr = (int(base) + inst.imm) & _MASK64
        dest_value = state.memory.read(eff_addr)
        if info.is_ldl:
            dest_value = semantics.to_unsigned(
                semantics.to_signed(int(dest_value) & _MASK32, 32))
        if inst.mapped_dest is not None:
            regs[inst.mapped_dest] = dest_value
    elif cls is OpClass.STORE:
        data = regs[inst.ra]
        base = regs[inst.rb]
        eff_addr = (int(base) + inst.imm) & _MASK64
        store_value = int(data) & _MASK32 if info.is_stl else data
        state.memory.write(eff_addr, store_value)
    elif cls is OpClass.COND_BRANCH:
        cond = regs[inst.ra]
        taken = info.branch_fn(semantics.to_signed(int(cond)))
        next_pc = inst.target if taken else fallthrough
    elif cls is OpClass.DIRECT_JUMP:
        taken = True
        next_pc = inst.target
    elif cls is OpClass.CALL_DIRECT:
        taken = True
        dest_value = fallthrough
        state.write_reg(inst.rd, dest_value)
        next_pc = inst.target
    elif cls is OpClass.CALL_INDIRECT:
        taken = True
        dest_value = fallthrough
        target = int(state.read_reg(inst.ra))
        state.write_reg(inst.rd, dest_value)
        next_pc = target
    elif cls is OpClass.INDIRECT_JUMP:
        taken = True
        next_pc = int(state.read_reg(inst.ra))
    elif cls is OpClass.RETURN:
        taken = True
        next_pc = int(state.read_reg(inst.ra))
    elif cls is OpClass.SYSCALL:
        halted = _do_syscall(state, inst.imm or 0)
    elif cls is OpClass.NOP:
        pass
    else:  # pragma: no cover - every class is handled above
        raise ValueError(f"unhandled opcode class {cls}")

    state.pc = next_pc
    state.inst_count += 1
    if halted:
        state.halted = True
    return StepResult(inst, next_pc, dest_value, eff_addr, store_value,
                      taken, halted)


def _do_syscall(state: ArchState, code: int) -> bool:
    """Execute a system call; returns True if the program halted."""
    if code == SYS_EXIT:
        state.exit_code = int(state.read_reg(ARG_REGS[0]))
        return True
    if code == SYS_PUTINT:
        state.output.append(int(state.read_reg(ARG_REGS[0])))
        return False
    if code == SYS_BRK:
        # Trivial brk: return the requested break in v0.
        state.write_reg(RETURN_VALUE_REG, state.read_reg(ARG_REGS[0]))
        return False
    raise ValueError(f"unknown syscall code {code}")
