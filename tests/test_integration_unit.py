"""Unit tests for the integration machinery: the integration table, the
LISP, and the rename-time integration logic (paper Section 2)."""

import pytest

from repro.integration import (
    IndexScheme,
    IntegrationConfig,
    IntegrationLogic,
    IntegrationTable,
    ITEntry,
    LispMode,
    LoadIntegrationSuppressionPredictor,
)
from repro.isa import Opcode, StaticInst
from repro.isa.opcodes import it_signature
from repro.isa.instruction import DynInst
from repro.isa.registers import REG_SP
from repro.rename import PhysicalRegisterFile


def entry(opcode=Opcode.ADDQI, imm=1, pc=0x100, in1=5, gen1=0, out=9,
          out_gen=0, **kwargs):
    return ITEntry(pc=pc, sig=it_signature(opcode, imm), ins=(in1, gen1),
                   out=out, out_gen=out_gen, **kwargs)


class TestIntegrationTable:
    def test_insert_and_lookup_opcode_scheme(self):
        table = IntegrationTable(64, 4, IndexScheme.OPCODE_IMM_CALLDEPTH)
        e = entry()
        table.insert(e, call_depth=2)
        found = table.lookup(0x999, Opcode.ADDQI, 1, call_depth=2)
        assert e in found

    def test_pc_scheme_requires_same_pc(self):
        table = IntegrationTable(64, 4, IndexScheme.PC)
        e = entry(pc=0x100)
        table.insert(e, call_depth=0)
        assert table.lookup(0x100, Opcode.ADDQI, 1, 0) == [e]
        assert table.lookup(0x104, Opcode.ADDQI, 1, 0) == []

    def test_opcode_scheme_matches_across_pcs(self):
        table = IntegrationTable(64, 4, IndexScheme.OPCODE_IMM)
        e = entry(pc=0x100)
        table.insert(e, call_depth=0)
        assert table.lookup(0x2000, Opcode.ADDQI, 1, 0) == [e]
        # Different immediate: different tag.
        assert table.lookup(0x2000, Opcode.ADDQI, 2, 0) == []

    def test_call_depth_changes_index_but_not_tag(self):
        table = IntegrationTable(64, 4, IndexScheme.OPCODE_IMM_CALLDEPTH)
        e = entry()
        table.insert(e, call_depth=3)
        # Lookup at the same depth finds it; at another depth it may land in
        # a different set (and therefore not be found).
        assert e in table.lookup(0x0, Opcode.ADDQI, 1, 3)
        other = table.lookup(0x0, Opcode.ADDQI, 1, 4)
        assert e not in other

    def test_lru_replacement_within_set(self):
        table = IntegrationTable(8, 2, IndexScheme.PC)
        # PCs 0x0, 0x10, 0x20 all map to set 0 (4 sets, pc/4 % 4).
        first = entry(pc=0x00)
        second = entry(pc=0x10)
        table.insert(first, 0)
        table.insert(second, 0)
        table.touch(first)                    # make `second` the LRU entry
        third = entry(pc=0x20)
        table.insert(third, 0)
        assert table.lookup(0x00, Opcode.ADDQI, 1, 0) == [first]
        assert table.lookup(0x10, Opcode.ADDQI, 1, 0) == []
        assert table.stats.evictions == 1

    def test_fully_associative(self):
        table = IntegrationTable(16, 0, IndexScheme.OPCODE_IMM)
        assert table.num_sets == 1
        for i in range(16):
            table.insert(entry(imm=i, pc=i * 4), 0)
        assert table.occupancy() == 16
        table.insert(entry(imm=99, pc=0x999), 0)
        assert table.occupancy() == 16        # LRU victim replaced

    def test_inputs_match_requires_generations(self):
        e = entry(in1=5, gen1=2)
        assert e.inputs_match([5], [2])
        assert not e.inputs_match([5], [3])
        assert not e.inputs_match([6], [2])

    def test_invalidate_output(self):
        table = IntegrationTable(16, 4, IndexScheme.OPCODE_IMM)
        table.insert(entry(out=7), 0)
        table.insert(entry(imm=2, out=8), 0)
        assert table.invalidate_output(7) == 1
        assert table.occupancy() == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            IntegrationTable(10, 4)
        with pytest.raises(ValueError):
            IntegrationTable(0, 1)


class TestLisp:
    def test_suppression_after_training(self):
        lisp = LoadIntegrationSuppressionPredictor(entries=64, assoc=2)
        assert not lisp.suppresses(0x40)
        lisp.train(0x40)
        assert lisp.suppresses(0x40)
        assert lisp.stats.suppressions == 1

    def test_capacity_is_bounded(self):
        lisp = LoadIntegrationSuppressionPredictor(entries=2, assoc=2)
        lisp.train(0x0)
        lisp.train(0x8)
        lisp.train(0x10)                       # evicts the LRU PC
        suppressed = [pc for pc in (0x0, 0x8, 0x10) if lisp.suppresses(pc)]
        assert len(suppressed) == 2


def make_logic(config=None, num_pregs=128):
    config = config or IntegrationConfig.full()
    prf = PhysicalRegisterFile(num_pregs=num_pregs,
                               gen_bits=config.generation_bits,
                               refcount_bits=config.refcount_bits)
    return IntegrationLogic(config, prf), prf


def dyn_addqi(seq, pc, rd, ra, imm, src_preg, src_gen=None, prf=None):
    dyn = DynInst(seq, StaticInst(pc=pc, op=Opcode.ADDQI, rd=rd, ra=ra,
                                  imm=imm))
    dyn.src_pregs = [src_preg]
    dyn.src_gens = [prf.gen[src_preg] if src_gen is None else src_gen]
    return dyn


class TestIntegrationLogic:
    def test_direct_integration_round_trip(self):
        logic, prf = make_logic()
        producer_out = prf.allocate()
        src = prf.allocate()
        producer = dyn_addqi(1, 0x100, rd=1, ra=2, imm=4, src_preg=src,
                             prf=prf)
        producer.dest_preg = producer_out
        producer.dest_gen = prf.gen[producer_out]
        logic.create_entries(producer, call_depth=0)

        consumer = dyn_addqi(2, 0x200, rd=3, ra=2, imm=4, src_preg=src,
                             prf=prf)
        decision = logic.consider(consumer, call_depth=0)
        assert decision.integrate
        assert decision.entry.out == producer_out

    def test_generation_mismatch_blocks_stale_entry(self):
        logic, prf = make_logic()
        out = prf.allocate()
        src = prf.allocate()
        producer = dyn_addqi(1, 0x100, rd=1, ra=2, imm=4, src_preg=src,
                             prf=prf)
        producer.dest_preg = out
        producer.dest_gen = prf.gen[out]
        logic.create_entries(producer, call_depth=0)
        # Reallocate the source register: its generation changes, so the
        # stale entry must not match a new instruction using the new mapping.
        prf.set_value(src, 1)
        prf.release(src)
        while True:
            reallocated = prf.allocate()
            if reallocated == src:
                break
            prf.release(reallocated)
        consumer = dyn_addqi(2, 0x200, rd=3, ra=2, imm=4, src_preg=src,
                             prf=prf)
        decision = logic.consider(consumer, call_depth=0)
        assert not decision.integrate

    def test_squash_only_mode_rejects_active_registers(self):
        config = IntegrationConfig.squash()
        logic, prf = make_logic(config)
        out = prf.allocate()             # active (refcount 1)
        prf.set_value(out, 5)
        src = prf.allocate()
        producer = DynInst(1, StaticInst(pc=0x50, op=Opcode.ADDQI, rd=1,
                                         ra=2, imm=4))
        producer.src_pregs, producer.src_gens = [src], [prf.gen[src]]
        producer.dest_preg, producer.dest_gen = out, prf.gen[out]
        logic.create_entries(producer, call_depth=0)
        consumer = DynInst(2, StaticInst(pc=0x50, op=Opcode.ADDQI, rd=1,
                                         ra=2, imm=4))
        consumer.src_pregs, consumer.src_gens = [src], [prf.gen[src]]
        assert not logic.consider(consumer, call_depth=0).integrate
        # After the register is freed by a squash it becomes eligible.
        prf.release(out, via_squash=True)
        assert logic.consider(consumer, call_depth=0).integrate

    def test_lisp_suppresses_load_integration(self):
        logic, prf = make_logic(IntegrationConfig.full())
        base = prf.allocate()
        data = prf.allocate()
        prf.set_value(data, 7)
        store = DynInst(1, StaticInst(pc=0x10, op=Opcode.STQ, ra=4, rb=REG_SP,
                                      imm=8))
        store.src_pregs = [data, base]
        store.src_gens = [prf.gen[data], prf.gen[base]]
        logic.create_entries(store, call_depth=1)

        load = DynInst(2, StaticInst(pc=0x40, op=Opcode.LDQ, rd=5, ra=REG_SP,
                                     imm=8))
        load.src_pregs, load.src_gens = [base], [prf.gen[base]]
        decision = logic.consider(load, call_depth=1)
        assert decision.integrate and decision.is_reverse

        logic.train_lisp(0x40)
        suppressed = logic.consider(load, call_depth=1)
        assert not suppressed.integrate
        assert suppressed.suppressed_by_lisp

    def test_store_reverse_entry_requires_sp_base_by_default(self):
        logic, prf = make_logic(IntegrationConfig.full())
        data = prf.allocate()
        base = prf.allocate()
        store = DynInst(1, StaticInst(pc=0x10, op=Opcode.STQ, ra=4, rb=3,
                                      imm=8))
        store.src_pregs, store.src_gens = [data, base], [prf.gen[data],
                                                         prf.gen[base]]
        logic.create_entries(store, call_depth=0)
        assert logic.table.occupancy() == 0
        # With reverse_sp_only disabled, the entry is created.
        logic2, prf2 = make_logic(IntegrationConfig.full(reverse_sp_only=False))
        data2, base2 = prf2.allocate(), prf2.allocate()
        store2 = DynInst(1, StaticInst(pc=0x10, op=Opcode.STQ, ra=4, rb=3,
                                       imm=8))
        store2.src_pregs = [data2, base2]
        store2.src_gens = [prf2.gen[data2], prf2.gen[base2]]
        logic2.create_entries(store2, call_depth=0)
        assert logic2.table.occupancy() == 1

    def test_sp_adjust_creates_inverse_entry(self):
        logic, prf = make_logic()
        old_sp = prf.allocate()
        new_sp = prf.allocate()
        dec = DynInst(1, StaticInst(pc=0x20, op=Opcode.LDA, rd=REG_SP,
                                    ra=REG_SP, imm=-32))
        dec.src_pregs, dec.src_gens = [old_sp], [prf.gen[old_sp]]
        dec.dest_preg, dec.dest_gen = new_sp, prf.gen[new_sp]
        logic.create_entries(dec, call_depth=1)
        # The inverse increment (lda sp, 32(sp)) applied to the *new* sp
        # must integrate back to the old sp register.
        inc = DynInst(2, StaticInst(pc=0x90, op=Opcode.LDA, rd=REG_SP,
                                    ra=REG_SP, imm=32))
        inc.src_pregs, inc.src_gens = [new_sp], [prf.gen[new_sp]]
        decision = logic.consider(inc, call_depth=1)
        assert decision.integrate
        assert decision.entry.is_reverse
        assert decision.entry.out == old_sp

    def test_branch_entries_need_resolved_outcome(self):
        logic, prf = make_logic()
        cond = prf.allocate()
        prf.set_value(cond, 0)
        branch = DynInst(1, StaticInst(pc=0x30, op=Opcode.BEQ, ra=1, imm=16,
                                       target=0x50))
        branch.src_pregs, branch.src_gens = [cond], [prf.gen[cond]]
        logic.create_entries(branch, call_depth=0)
        twin = DynInst(2, StaticInst(pc=0x30, op=Opcode.BEQ, ra=1, imm=16,
                                     target=0x50))
        twin.src_pregs, twin.src_gens = [cond], [prf.gen[cond]]
        # Not integrable until the creating branch's outcome is recorded.
        assert not logic.consider(twin, call_depth=0).integrate
        logic.record_branch_outcome(branch, taken=True)
        decision = logic.consider(twin, call_depth=0)
        assert decision.integrate
        assert decision.entry.branch_outcome is True

    def test_disabled_configuration_never_integrates(self):
        logic, prf = make_logic(IntegrationConfig.disabled())
        src = prf.allocate()
        dyn = dyn_addqi(1, 0x0, rd=1, ra=2, imm=3, src_preg=src, prf=prf)
        dyn.dest_preg, dyn.dest_gen = prf.allocate(), 0
        logic.create_entries(dyn, 0)
        assert logic.table.occupancy() == 0
        assert not logic.consider(dyn, 0).integrate


class TestIntegrationConfig:
    def test_presets_match_paper_bars(self):
        squash = IntegrationConfig.squash()
        assert not squash.general_reuse
        assert squash.index_scheme is IndexScheme.PC
        assert not squash.reverse
        general = IntegrationConfig.general()
        assert general.general_reuse and not general.reverse
        opcode = IntegrationConfig.opcode()
        assert opcode.index_scheme is IndexScheme.OPCODE_IMM_CALLDEPTH
        full = IntegrationConfig.full()
        assert full.reverse and full.general_reuse

    def test_describe_mentions_key_features(self):
        text = IntegrationConfig.full().describe()
        assert "reverse" in text
        assert "IT=1024" in text
        assert IntegrationConfig.disabled().describe() == "no-integration"
