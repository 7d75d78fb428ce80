"""Static and dynamic instruction records.

:class:`StaticInst` is the immutable program-level instruction (one per PC);
:class:`DynInst` is a single dynamic instance flowing through the pipeline,
carrying renamed registers, values and per-stage timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.isa.opcodes import (
    CHECK_NONE,
    CHECK_VALUE,
    IntegrationType,
    OpClass,
    Opcode,
    OPINFO,
    is_store,
    load_counterpart,
    signature_of,
)
from repro.isa.registers import REG_FZERO, REG_SP, REG_ZERO, reg_name


@dataclass(frozen=True)
class StaticInst:
    """One static (program) instruction.

    Operand conventions (unified register indices, ``None`` when absent):

    * ALU reg-reg:   ``rd = ra <op> rb``
    * ALU reg-imm:   ``rd = ra <op> imm``           (includes ``lda``)
    * load:          ``rd = mem[ra + imm]``
    * store:         ``mem[rb + imm] = ra``          (``ra`` is the data reg)
    * cond branch:   test ``ra`` against zero, branch to ``target``
    * ``br``/``bsr``: direct jump/call to ``target`` (``bsr`` writes ``rd``)
    * ``jsr``/``jmp``/``ret``: indirect control through ``ra``
    * ``syscall``:   service selected by ``imm``
    """

    pc: int
    op: Opcode
    rd: Optional[int] = None
    ra: Optional[int] = None
    rb: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[int] = None
    label: Optional[str] = None

    # ``info``, ``cls``, the operand views and the rename/retire plans are
    # precomputed per static instruction: the per-cycle pipeline loops read
    # them constantly, and an instance-attribute read is far cheaper than an
    # OPINFO lookup (which hashes the opcode enum) on every access.
    def __post_init__(self):
        info = OPINFO[self.op]
        setattr_ = object.__setattr__      # the class is frozen
        setattr_(self, "info", info)
        setattr_(self, "cls", info.cls)
        srcs = []
        if self.ra is not None:
            srcs.append(self.ra)
        if self.rb is not None:
            srcs.append(self.rb)
        setattr_(self, "srcs", tuple(srcs))
        dest = self.rd if info.writes_dest else None
        setattr_(self, "dest", dest)
        #: The logical destination the rename map tracks (``None`` when
        #: there is none or it is a hard-wired zero register).
        setattr_(self, "mapped_dest",
                 None if dest == REG_ZERO or dest == REG_FZERO else dest)
        # Integration-table signatures (repro.integration.table): the
        # instruction's own, and that of the inverse operation a reverse
        # entry describes (extension 3) -- the complementary load of a
        # store, the opposite adjustment of a stack-pointer ``lda``.
        imm = self.imm
        setattr_(self, "it_sig", signature_of(info.opcode_id, imm))
        reverse_sig = None
        if info.is_store:
            reverse_sig = signature_of(
                OPINFO[load_counterpart(self.op)].opcode_id, imm)
        elif (self.op is Opcode.LDA and self.rd == REG_SP
                and self.ra == REG_SP):
            reverse_sig = signature_of(info.opcode_id, -(imm or 0))
        setattr_(self, "it_reverse_sig", reverse_sig)
        # The retire plan: what DIVA compares (nothing without a
        # destination register) and the Fig. 5 type (stack loads apart).
        check = info.diva_check
        setattr_(self, "diva_check",
                 CHECK_NONE if check == CHECK_VALUE and dest is None
                 else check)
        setattr_(self, "itype",
                 IntegrationType.LOAD_SP if info.is_load and self.ra == REG_SP
                 else info.itype)

    def src_regs(self) -> Tuple[int, ...]:
        """Logical source registers actually read by this instruction."""
        return self.srcs

    def dest_reg(self) -> Optional[int]:
        """Logical destination register, or ``None``."""
        return self.dest

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        info = self.info
        parts = [self.op.value]
        ops = []
        if info.writes_dest and self.rd is not None:
            ops.append(reg_name(self.rd))
        if info.cls is OpClass.LOAD:
            ops.append(f"{self.imm}({reg_name(self.ra)})")
        elif is_store(self.op):
            ops = [reg_name(self.ra), f"{self.imm}({reg_name(self.rb)})"]
        elif info.cls is OpClass.COND_BRANCH:
            ops = [reg_name(self.ra), f"@{self.target:#x}"]
        elif info.cls in (OpClass.DIRECT_JUMP, OpClass.CALL_DIRECT):
            ops.append(f"@{self.target:#x}")
        elif info.cls in (OpClass.CALL_INDIRECT, OpClass.INDIRECT_JUMP,
                          OpClass.RETURN):
            ops.append(f"({reg_name(self.ra)})")
        else:
            if self.ra is not None:
                ops.append(reg_name(self.ra))
            if self.rb is not None:
                ops.append(reg_name(self.rb))
            if info.has_imm and self.imm is not None:
                ops.append(str(self.imm))
        return f"{self.pc:#06x}: {parts[0]} " + ", ".join(ops)


class DynInst:
    """A dynamic instruction instance in flight in the timing model.

    The out-of-order core attaches renamed register identifiers, operand and
    result values, integration metadata and per-stage cycle timestamps.  The
    class uses ``__slots__`` because simulations create one object per
    dynamic instruction.
    """

    __slots__ = (
        "seq", "inst", "op", "cls", "info",
        "pc", "next_pc", "call_depth", "prediction",
        # renaming
        "src_pregs", "src_gens", "dest_preg", "dest_gen", "old_dest_preg",
        "old_dest_gen",
        "map_checkpoint",
        # integration
        "integrated", "reverse_integrated", "integration_distance",
        "integration_status", "integration_refcount", "it_entry",
        # execution state
        "eff_addr", "store_value", "forward_store",
        "issued", "completed", "squashed",
        "branch_taken", "branch_mispredicted", "mem_mispeculated",
        "mis_integrated",
        # timing
        "fetch_cycle", "rename_cycle", "dispatch_cycle", "complete_cycle",
        "retire_cycle",
        # resources
        "rs_pending", "in_lsq", "lsq_addr", "cht_counted",
    )

    def __init__(self, seq: int, inst: StaticInst):
        self.seq = seq
        self.inst = inst
        self.op = inst.op
        self.cls = inst.cls
        self.info = inst.info
        self.pc = inst.pc
        self.next_pc = None
        self.call_depth = 0
        #: The front end's branch prediction (control flow only).
        self.prediction = None
        self.src_pregs: Sequence[int] = ()
        self.src_gens: Sequence[int] = ()
        self.dest_preg: Optional[int] = None
        self.dest_gen: int = 0
        self.old_dest_preg: Optional[int] = None
        self.old_dest_gen: int = 0
        self.map_checkpoint = None
        self.integrated = False
        self.reverse_integrated = False
        self.integration_distance = 0
        self.integration_status = None
        self.integration_refcount = 0
        self.it_entry = None
        self.eff_addr = None
        self.store_value = None
        #: The older store a load forwards from, found by the issue probe.
        self.forward_store = None
        self.issued = False
        self.completed = False
        self.squashed = False
        self.branch_taken = False
        self.branch_mispredicted = False
        self.mem_mispeculated = False
        self.mis_integrated = False
        self.fetch_cycle = -1
        self.rename_cycle = -1
        self.dispatch_cycle = -1
        self.complete_cycle = -1
        self.retire_cycle = -1
        #: Source operands still awaited while waiting in the scheduler.
        self.rs_pending = 0
        #: Honest load/store-queue membership flag (set/cleared by the LSQ).
        self.in_lsq = False
        #: Word-aligned address the LSQ indexes this entry under (``None``
        #: while a store is unresolved or a load has not executed).
        self.lsq_addr = None
        #: The CHT hit statistic already counted this dynamic load.
        self.cht_counted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.integrated:
            flags.append("INT")
        if self.reverse_integrated:
            flags.append("REV")
        if self.squashed:
            flags.append("SQ")
        return f"<DynInst #{self.seq} {self.inst} {' '.join(flags)}>"
