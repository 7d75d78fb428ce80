"""Property-based tests (hypothesis) on the core data structures and
invariants: ISA semantics, the reference-counted physical register file, the
integration table, the LISP, caches, and end-to-end architectural
equivalence of the timing core for randomly generated straight-line
programs."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import MachineConfig, simulate
from repro.functional import Emulator
from repro.integration import (
    IndexScheme,
    IntegrationConfig,
    IntegrationTable,
    ITEntry,
    LoadIntegrationSuppressionPredictor,
)
from repro.isa import Opcode, ProgramBuilder, StaticInst
from repro.isa.opcodes import it_signature
from repro.isa import semantics
from repro.memsys import Cache, CacheConfig
from repro.rename import PhysicalRegisterFile, ZERO_PREG

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
imm16 = st.integers(min_value=-32768, max_value=32767)

INT_RR_OPS = [Opcode.ADDQ, Opcode.SUBQ, Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.CMPEQ, Opcode.CMPLT,
              Opcode.CMPLE, Opcode.CMPULT, Opcode.MULQ]
INT_RI_OPS = [Opcode.ADDQI, Opcode.SUBQI, Opcode.ANDI, Opcode.ORI,
              Opcode.XORI, Opcode.SLLI, Opcode.SRLI, Opcode.SRAI,
              Opcode.CMPEQI, Opcode.CMPLTI, Opcode.CMPLEI, Opcode.LDA,
              Opcode.MULQI]


class TestSemanticsProperties:
    @given(op=st.sampled_from(INT_RR_OPS), a=u64, b=u64)
    def test_integer_results_stay_in_64_bits(self, op, a, b):
        result = semantics.evaluate(op, a, b, None)
        assert 0 <= result < (1 << 64)

    @given(op=st.sampled_from(INT_RI_OPS), a=u64, imm=imm16)
    def test_immediate_results_stay_in_64_bits(self, op, a, imm):
        result = semantics.evaluate(op, a, None, imm)
        assert 0 <= result < (1 << 64)

    @given(a=u64, b=u64)
    def test_add_sub_inverse(self, a, b):
        added = semantics.evaluate(Opcode.ADDQ, a, b, None)
        assert semantics.evaluate(Opcode.SUBQ, added, b, None) == a

    @given(a=u64, imm=imm16)
    def test_lda_inverse_pairs(self, a, imm):
        """The stack-adjustment idiom reverse integration relies on:
        lda rd, imm(ra) followed by lda ra', -imm(rd) restores the value."""
        down = semantics.evaluate(Opcode.LDA, a, None, imm)
        up = semantics.evaluate(Opcode.LDA, down, None, -imm)
        assert up == a

    @given(value=st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    def test_signed_unsigned_round_trip(self, value):
        assert semantics.to_signed(semantics.to_unsigned(value)) == value

    @given(a=u64)
    def test_compare_results_are_boolean(self, a):
        for op in (Opcode.CMPEQ, Opcode.CMPLT, Opcode.CMPULT):
            assert semantics.evaluate(op, a, a, None) in (0, 1)

    @given(a=u64)
    def test_branch_direction_consistency(self, a):
        """Exactly one of beq/bne is taken, and blt/bge partition the space."""
        assert semantics.branch_taken(Opcode.BEQ, a) != \
            semantics.branch_taken(Opcode.BNE, a)
        assert semantics.branch_taken(Opcode.BLT, a) != \
            semantics.branch_taken(Opcode.BGE, a)


class TestPhysicalRegisterFileProperties:
    @given(ops=st.lists(st.sampled_from(["alloc", "ref", "release",
                                         "release_squash"]),
                        min_size=1, max_size=200))
    def test_reference_counts_never_negative_and_never_leak(self, ops):
        """Under arbitrary allocate/add_ref/release sequences the reference
        counts stay consistent: never negative, zero-count registers are
        exactly the free ones, and the zero register is untouched."""
        prf = PhysicalRegisterFile(num_pregs=80, refcount_bits=4)
        live = []           # (preg, outstanding_refs)
        for action in ops:
            if action == "alloc":
                preg = prf.allocate()
                if preg is not None:
                    live.append([preg, 1])
            elif action == "ref" and live:
                preg, refs = live[-1]
                if prf.add_ref(preg):
                    live[-1][1] += 1
            elif action in ("release", "release_squash") and live:
                preg, refs = live[-1]
                prf.release(preg, via_squash=(action == "release_squash"))
                live[-1][1] -= 1
                if live[-1][1] == 0:
                    live.pop()
            # Invariants after every step.
            assert all(count >= 0 for count in prf.refcount)
            expected = sum(refs for _, refs in live)
            assert prf.total_references() == expected
        assert prf.refcount[ZERO_PREG] == 1

    @given(width=st.integers(min_value=1, max_value=6))
    def test_refcount_saturation_respects_width(self, width):
        prf = PhysicalRegisterFile(num_pregs=70, refcount_bits=width)
        preg = prf.allocate()
        added = 0
        while prf.add_ref(preg):
            added += 1
            assert added < 200
        assert prf.refcount[preg] == prf.max_refcount == (1 << width) - 1


_OPCODE_POSITION = {op: i for i, op in enumerate(Opcode)}


class _LinearScanIT:
    """Reference LRU integration table: every entry carries a use
    timestamp; a query scans its set for tag (and input) matches and sorts
    them most recent first; the victim is the entry with the oldest
    stamp."""

    def __init__(self, entries, assoc, scheme):
        if assoc == 0 or assoc >= entries:
            assoc = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.scheme = scheme
        self.sets = [[] for _ in range(self.num_sets)]
        self.fields = {}      # entry -> (pc, opcode, imm, pregs, gens, out)
        self.stamp = {}
        self.clock = 0
        self.evictions = 0

    def _index(self, pc, opcode, imm, depth):
        if self.scheme is IndexScheme.PC:
            key = pc // 4
        else:
            key = _OPCODE_POSITION[opcode] ^ ((imm or 0) & 0xFFFF)
            if self.scheme is IndexScheme.OPCODE_IMM_CALLDEPTH:
                key ^= depth
        return key % self.num_sets

    def _tag_match(self, entry, pc, opcode, imm):
        e_pc, e_op, e_imm = self.fields[entry][:3]
        if self.scheme is IndexScheme.PC:
            return e_pc == pc
        return e_op is opcode and e_imm == imm

    def _recent_first(self, entries):
        return sorted(entries, key=self.stamp.__getitem__, reverse=True)

    def insert(self, entry, fields, depth):
        cache_set = self.sets[self._index(*fields[:3], depth)]
        self.fields[entry] = fields
        self.touch(entry)
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=self.stamp.__getitem__)
            cache_set.remove(victim)
            self.evictions += 1
        cache_set.append(entry)

    def touch(self, entry):
        self.clock += 1
        self.stamp[entry] = self.clock

    def tag_matches(self, pc, opcode, imm, depth):
        cache_set = self.sets[self._index(pc, opcode, imm, depth)]
        return self._recent_first(
            e for e in cache_set if self._tag_match(e, pc, opcode, imm))

    def candidates(self, pc, opcode, imm, pregs, gens, depth):
        return [e for e in self.tag_matches(pc, opcode, imm, depth)
                if self.fields[e][3:5] == (pregs, gens)]

    def invalidate(self, out):
        removed = 0
        for cache_set in self.sets:
            for entry in [e for e in cache_set if self.fields[e][5] == out]:
                cache_set.remove(entry)
                removed += 1
        return removed

    def sets_mru_first(self):
        return [self._recent_first(cache_set) for cache_set in self.sets]


# Small pools, so entries often share a set, a tag or a whole key.
_it_pcs = st.sampled_from([0x0, 0x10])
_it_opcodes = st.sampled_from([Opcode.ADDQI, Opcode.LDA])
_it_imms = st.sampled_from([0, 8])
_it_inputs = st.sampled_from([((5,), (0,)), ((5, 6), (0, 1)), ((), ())])
_it_outs = st.integers(min_value=7, max_value=9)
_it_depths = st.integers(min_value=0, max_value=1)
_it_insert = st.tuples(st.just("insert"), _it_pcs, _it_opcodes, _it_imms,
                       _it_inputs, _it_outs, _it_depths)
_it_probe = st.tuples(st.just("probe"), _it_pcs, _it_opcodes, _it_imms,
                      _it_inputs, _it_depths, st.frozensets(_it_outs))
_it_ops = st.one_of(_it_insert, _it_probe, _it_insert, _it_probe,
                    st.tuples(st.just("invalidate"), _it_outs))


class TestIntegrationTableProperties:
    @given(entries=st.integers(min_value=1, max_value=60),
           assoc=st.sampled_from([1, 2, 4, 0]),
           scheme=st.sampled_from(list(IndexScheme)))
    def test_occupancy_never_exceeds_capacity(self, entries, assoc, scheme):
        size = 64
        table = IntegrationTable(size, assoc, scheme)
        for i in range(entries * 4):
            entry = ITEntry(pc=4 * i, sig=it_signature(Opcode.ADDQI, i % 7),
                            ins=(i % 30, 0), out=i % 50, out_gen=0)
            table.insert(entry, call_depth=i % 5)
        assert table.occupancy() <= size
        for cache_set in table._sets:
            assert len(cache_set) <= table.assoc

    @settings(max_examples=200, deadline=None)
    @given(entries=st.sampled_from([4, 8, 16]),
           assoc=st.sampled_from([1, 2, 4, 0]),
           scheme=st.sampled_from(list(IndexScheme)),
           ops=st.lists(_it_ops, min_size=1, max_size=60))
    # Refreshing the older of two same-key entries must reorder its bucket.
    @example(entries=4, assoc=0, scheme=IndexScheme.OPCODE_IMM, ops=[
        ("insert", 0x0, Opcode.ADDQI, 8, ((5,), (0,)), 7, 0),
        ("insert", 0x4, Opcode.ADDQI, 8, ((5,), (0,)), 8, 0),
        ("probe", 0x0, Opcode.ADDQI, 8, ((5,), (0,)), 0, frozenset({7})),
        ("probe", 0x0, Opcode.ADDQI, 8, ((5,), (0,)), 0, frozenset())])
    def test_table_matches_linear_scan_lru_model(self, entries, assoc,
                                                 scheme, ops):
        """The keyed, MRU-ordered table gives the same candidates in the
        same order, the same winners and the same evictions as a plain
        per-entry-timestamp LRU table that scans and sorts its sets."""
        table = IntegrationTable(entries, assoc, scheme)
        model = _LinearScanIT(entries, assoc, scheme)
        for op in ops:
            kind = op[0]
            if kind == "insert":
                _, pc, opcode, imm, (pregs, gens), out, depth = op
                entry = ITEntry(pc, it_signature(opcode, imm),
                                (*pregs, *gens), out, 0)
                table.insert(entry, depth)
                model.insert(entry, (pc, opcode, imm, pregs, gens, out),
                             depth)
            elif kind == "probe":
                _, pc, opcode, imm, (pregs, gens), depth, eligible = op
                inst = StaticInst(pc=pc, op=opcode, rd=1, ra=2, imm=imm)
                found = table.probe(inst, depth, (*pregs, *gens)) or []
                expected = model.candidates(pc, opcode, imm, pregs, gens,
                                            depth)
                assert found == expected
                # The integration logic's winner: the first candidate whose
                # result is still eligible, refreshed on use.
                winner = next((e for e in found if e.out in eligible), None)
                if winner is not None:
                    table.touch(winner)
                    model.touch(winner)
                assert (table.lookup(pc, opcode, imm, depth)
                        == model.tag_matches(pc, opcode, imm, depth))
            else:
                _, out = op
                assert table.invalidate_output(out) == model.invalidate(out)
            assert table.stats.evictions == model.evictions
            assert [list(s) for s in table._sets] == model.sets_mru_first()
        assert table.occupancy() == sum(map(len, model.sets))

    @given(pcs=st.lists(st.integers(min_value=0, max_value=4000).map(
        lambda x: x * 4), min_size=1, max_size=50))
    def test_lisp_always_suppresses_most_recent_training(self, pcs):
        lisp = LoadIntegrationSuppressionPredictor(entries=16, assoc=2)
        for pc in pcs:
            lisp.train(pc)
            assert lisp.suppresses(pc)


class TestCacheProperties:
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20),
                              min_size=1, max_size=100))
    def test_latency_bounds_and_hit_rate_sanity(self, addresses):
        cache = Cache(CacheConfig("c", size_bytes=2048, line_bytes=32,
                                  associativity=2, hit_latency=2))
        for cycle, addr in enumerate(addresses * 2):
            latency, hit = cache.access(addr, cycle * 10, fill_latency=50)
            assert latency >= cache.config.hit_latency
            assert latency <= 2 + 50 + 52          # hit + fill + mshr wait
        assert cache.stats.accesses == 2 * len(addresses)
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses


@st.composite
def straight_line_programs(draw):
    """Random straight-line integer programs ending in an exit syscall."""
    builder = ProgramBuilder(name="random")
    regs = ["t0", "t1", "t2", "t3", "s0", "s1"]
    builder.label("main")
    for reg in regs:
        builder.li(reg, draw(st.integers(min_value=0, max_value=1000)))
    num_insts = draw(st.integers(min_value=1, max_value=40))
    for _ in range(num_insts):
        kind = draw(st.integers(min_value=0, max_value=3))
        rd = draw(st.sampled_from(regs))
        ra = draw(st.sampled_from(regs))
        if kind == 0:
            rb = draw(st.sampled_from(regs))
            op = draw(st.sampled_from(["addq", "subq", "xor", "and", "or",
                                       "cmplt"]))
            builder.rr(op, rd, ra, rb)
        elif kind == 1:
            op = draw(st.sampled_from(["addqi", "subqi", "xori", "slli"]))
            imm = draw(st.integers(min_value=1, max_value=15))
            builder.ri(op, rd, ra, imm)
        elif kind == 2:
            offset = 8 * draw(st.integers(min_value=0, max_value=15))
            builder.stq(ra, offset, "gp")
        else:
            offset = 8 * draw(st.integers(min_value=0, max_value=15))
            builder.load("ldq", rd, offset, "gp")
    builder.mov("a0", draw(st.sampled_from(regs)))
    builder.syscall(0)
    program = builder.build(entry="main")
    return program


class TestEndToEndEquivalence:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=straight_line_programs())
    def test_timing_core_matches_functional_emulator(self, program):
        """For arbitrary straight-line programs the timing core with full
        integration produces exactly the architectural result."""
        reference = Emulator(program).run()
        cfg = MachineConfig().with_integration(
            IntegrationConfig.full(num_physical_regs=256))
        from repro.core import Processor
        proc = Processor(program, cfg)
        stats = proc.run()
        assert stats.retired == reference.instructions
        assert proc.arch.exit_code == reference.state.exit_code
        assert proc.arch.memory.snapshot() == reference.state.memory.snapshot()
