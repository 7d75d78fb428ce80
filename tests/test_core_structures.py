"""Unit tests for the out-of-order core structures: ROB, reservation
stations, load/store queue and collision history table, and the DIVA
checker."""

import pytest

from repro.core import (
    CollisionHistoryTable,
    DivaChecker,
    IssuePortConfig,
    LoadStoreQueue,
    ReorderBuffer,
)
from repro.core.config import MachineConfig
from repro.core.diva import SimulationError
from repro.functional import ArchState
from repro.isa import Opcode, StaticInst
from repro.isa.instruction import DynInst
from test_lsq_scheduler_edge_cases import _wire


def dyn(seq, op=Opcode.ADDQ, **kwargs):
    defaults = dict(pc=seq * 4, rd=1, ra=2, rb=3)
    defaults.update(kwargs)
    return DynInst(seq, StaticInst(op=op, **defaults))


class TestReorderBuffer:
    def test_fifo_order_and_capacity(self):
        rob = ReorderBuffer(4)
        for seq in range(1, 5):
            rob.push(dyn(seq))
        assert rob.full
        with pytest.raises(RuntimeError):
            rob.push(dyn(5))
        assert rob.head().seq == 1
        assert rob.pop_head().seq == 1
        assert len(rob) == 3

    def test_squash_younger_than(self):
        rob = ReorderBuffer(8)
        for seq in range(1, 7):
            rob.push(dyn(seq))
        squashed = rob.squash_younger_than(3)
        assert [d.seq for d in squashed] == [6, 5, 4]   # youngest first
        assert [d.seq for d in rob] == [1, 2, 3]

    def test_squash_all(self):
        rob = ReorderBuffer(8)
        for seq in range(1, 4):
            rob.push(dyn(seq))
        squashed = rob.squash_all()
        assert [d.seq for d in squashed] == [3, 2, 1]
        assert rob.empty


class TestReservationStations:
    def always_ready(self, _):
        return True

    def test_capacity(self):
        _, rs = _wire(2)
        rs.insert(dyn(1))
        rs.insert(dyn(2))
        assert not rs.has_space()
        with pytest.raises(RuntimeError):
            rs.insert(dyn(3))

    def test_port_limits_respected(self):
        ports = IssuePortConfig(issue_width=4, simple_int=2, complex_fp=2,
                                loads=1, stores=1)
        _, rs = _wire(16, ports)
        for seq in range(1, 7):
            rs.insert(dyn(seq, op=Opcode.ADDQ))
        selected = rs.select(self.always_ready)
        assert len(selected) == 2              # simple-int port limit

    def test_total_issue_width(self):
        ports = IssuePortConfig(issue_width=3, simple_int=2, complex_fp=2,
                                loads=1, stores=1)
        _, rs = _wire(16, ports)
        rs.insert(dyn(1, op=Opcode.ADDQ))
        rs.insert(dyn(2, op=Opcode.MULT, rd=33, ra=34, rb=35))
        rs.insert(dyn(3, op=Opcode.LDQ, rd=1, ra=2, rb=None, imm=0))
        rs.insert(dyn(4, op=Opcode.STQ, rd=None, ra=1, rb=2, imm=0))
        selected = rs.select(self.always_ready)
        assert len(selected) == 3

    def test_priority_classes_first_then_age(self):
        _, rs = _wire(16)
        old_alu = dyn(1, op=Opcode.ADDQ)
        young_load = dyn(2, op=Opcode.LDQ, rd=1, ra=2, rb=None, imm=0)
        rs.insert(old_alu)
        rs.insert(young_load)
        selected = rs.select(self.always_ready)
        assert selected[0] is young_load       # loads have priority

    def test_combined_load_store_port(self):
        _, rs = _wire(16, combined_ldst_port=True)
        rs.insert(dyn(1, op=Opcode.LDQ, rd=1, ra=2, rb=None, imm=0))
        rs.insert(dyn(2, op=Opcode.STQ, rd=None, ra=1, rb=2, imm=0))
        selected = rs.select(self.always_ready)
        mem_ops = [d for d in selected if d.op in (Opcode.LDQ, Opcode.STQ)]
        assert len(mem_ops) == 1

    def test_not_ready_instructions_stay(self):
        prf, rs = _wire(16)
        waiting = dyn(1)
        waiting.src_pregs = (prf.allocate(),)  # its producer has not run
        rs.insert(waiting)
        selected = rs.select(self.always_ready)
        assert selected == []
        assert rs.occupancy == 1

    def test_squash_removes_entries(self):
        _, rs = _wire(16)
        a, b = dyn(1), dyn(2)
        rs.insert(a)
        rs.insert(b)
        assert rs.squash({2}) == 1
        assert rs.occupancy == 1


def load(seq, addr_reg=2, imm=0):
    return DynInst(seq, StaticInst(pc=seq * 4, op=Opcode.LDQ, rd=1,
                                   ra=addr_reg, imm=imm))


def store(seq, imm=0):
    return DynInst(seq, StaticInst(pc=seq * 4, op=Opcode.STQ, ra=1, rb=2,
                                   imm=imm))


class TestLoadStoreQueue:
    def test_forwarding_from_youngest_older_store(self):
        lsq = LoadStoreQueue(8)
        st1, st2, ld = store(1), store(2), load(3)
        for d in (st1, st2, ld):
            lsq.insert(d)
        st1.store_value = 10
        st2.store_value = 20
        lsq.resolve_store(st1, 0x100)
        lsq.resolve_store(st2, 0x100)
        assert lsq.forward_from(ld, 0x100) is st2

    def test_no_forwarding_from_younger_store(self):
        lsq = LoadStoreQueue(8)
        ld, st = load(1), store(2)
        lsq.insert(ld)
        lsq.insert(st)
        lsq.resolve_store(st, 0x100)
        assert lsq.forward_from(ld, 0x100) is None

    def test_violation_detection(self):
        lsq = LoadStoreQueue(8)
        st, ld = store(1), load(2)
        lsq.insert(st)
        lsq.insert(ld)
        lsq.record_load(ld, 0x200)            # load executed first
        violations = lsq.resolve_store(st, 0x200)
        assert violations == [ld]
        # A store to a different word does not flag the load.
        lsq2 = LoadStoreQueue(8)
        st2, ld2 = store(1), load(2)
        lsq2.insert(st2)
        lsq2.insert(ld2)
        lsq2.record_load(ld2, 0x200)
        assert lsq2.resolve_store(st2, 0x300) == []

    def test_older_unresolved_store_tracking(self):
        lsq = LoadStoreQueue(8)
        st, ld = store(1), load(2)
        lsq.insert(st)
        lsq.insert(ld)
        assert lsq.older_stores_unresolved(ld)
        lsq.resolve_store(st, 0x500)
        assert not lsq.older_stores_unresolved(ld)

    def test_capacity_and_squash(self):
        lsq = LoadStoreQueue(2)
        lsq.insert(load(1))
        lsq.insert(store(2))
        assert not lsq.has_space()
        assert lsq.squash({2}) == 1
        assert lsq.has_space()


class TestCollisionHistoryTable:
    def test_train_and_predict(self):
        cht = CollisionHistoryTable(16)
        assert not cht.predicts_collision(0x40)
        cht.train(0x40)
        assert cht.predicts_collision(0x40)
        # Direct-mapped: a conflicting PC evicts the old entry.
        cht.train(0x40 + 16 * 4)
        assert not cht.predicts_collision(0x40)


class TestDivaChecker:
    def test_detects_wrong_value(self):
        arch = ArchState(pc=0)
        checker = DivaChecker(arch)
        inst = StaticInst(pc=0, op=Opcode.ADDQI, rd=1, ra=31, imm=5)
        d = DynInst(1, inst)
        step, fault = checker.check_and_commit(d, observed=99)
        assert fault is not None and fault.kind == "value"
        assert step.dest_value == 5
        assert arch.read_reg(1) == 5           # architectural state corrected

    def test_accepts_correct_value_and_advances_pc(self):
        arch = ArchState(pc=0)
        checker = DivaChecker(arch)
        inst = StaticInst(pc=0, op=Opcode.ADDQI, rd=1, ra=31, imm=5)
        _, fault = checker.check_and_commit(DynInst(1, inst), 5)
        assert fault is None
        assert arch.pc == 4

    def test_detects_wrong_branch_direction(self):
        arch = ArchState(pc=0)
        checker = DivaChecker(arch)
        inst = StaticInst(pc=0, op=Opcode.BEQ, ra=31, imm=16, target=20)
        _, fault = checker.check_and_commit(DynInst(1, inst),
                                            observed=False)
        assert fault is not None and fault.kind == "branch"
        assert fault.correct_next_pc == 20

    def test_pc_divergence_is_a_simulator_bug(self):
        arch = ArchState(pc=100)
        checker = DivaChecker(arch)
        inst = StaticInst(pc=0, op=Opcode.NOP)
        with pytest.raises(SimulationError):
            checker.check_and_commit(DynInst(1, inst), None)


class TestMachineConfigPresets:
    def test_pipeline_depth_is_thirteen_stages(self):
        assert MachineConfig().pipeline_depth == 13

    def test_figure7_variants(self):
        base = MachineConfig()
        assert base.reduced_rs().rs_entries == 20
        iw = base.reduced_issue_width()
        assert iw.ports.issue_width == 3
        assert iw.combined_ldst_port
        both = base.reduced_both()
        assert both.rs_entries == 20 and both.ports.issue_width == 3
