"""The rename stage, where register integration happens.

:class:`RenameIntegrate` pulls decoded instructions from the front-end
queue, renames their sources, consults the integration table and either
points the instruction at an existing physical register (integration: the
instruction leaves the pipeline here, never issuing) or allocates a fresh
destination and dispatches it to the out-of-order engine.

The per-instruction work is written flat in :meth:`RenameIntegrate.tick`:
source lookup and the destination's map-table update read and write the
map-table arrays directly, the integration preconditions (enabled,
integrable opcode) are tested before calling into the integration logic,
and the common negative decision is recognised by identity.  Only an
instruction with a non-trivial decision leaves the loop body, for
:meth:`RenameIntegrate._integrate`.  All decisions and statistics
are identical to the layered :class:`~repro.rename.renamer.Renamer`
operations the unit tests exercise.
"""

from __future__ import annotations

from repro.core.stages.base import NEVER, PipelineState, RecoveryController
from repro.core.stages.frontend import FrontEnd
from repro.core.stats import ResultStatus
from repro.integration.config import LispMode
from repro.integration.logic import NO_INTEGRATION
from repro.isa import semantics
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass
from repro.isa.program import INST_SIZE


class RenameIntegrate:
    """Rename + integration: the paper's modified register-rename stage."""

    name = "rename"

    def __init__(self, state: PipelineState, frontend: FrontEnd,
                 recovery: RecoveryController):
        self.state = state
        self.frontend = frontend
        self.recovery = recovery
        icfg = state.config.integration
        # Hoisted integration preconditions (the config is immutable).
        self._int_enabled = icfg.enabled
        self._oracle_loads = icfg.lisp_mode is LispMode.ORACLE

    # ------------------------------------------------------------------
    def tick(self) -> None:
        state = self.state
        fetch_queue = self.frontend.fetch_queue
        cycle = state.cycle
        if not fetch_queue or fetch_queue[0][1] > cycle:
            return
        rob_entries = state.rob._entries
        rob_start = len(rob_entries)
        # Each renamed instruction enters the ROB, so the group ends at the
        # rename width or when the ROB fills, whichever comes first.
        group = state.rob.size - rob_start
        if group > state.config.rename_width:
            group = state.config.rename_width
        popleft = fetch_queue.popleft
        rs = state.rs
        rs_waiting = rs._waiting
        rs_entries = rs.entries
        lsq = state.lsq
        map_table = state.map_table
        mt_pregs = map_table._pregs
        mt_gens = map_table._gens
        prf = state.prf
        prf_gen = prf.gen
        allocate = prf.allocate
        preg_producer = state.preg_producer
        integration = state.integration if self._int_enabled else None
        tracer = state.tracer
        for _ in range(group):
            if not fetch_queue:
                break
            # Remove the instruction from the front-end queue before renaming
            # it: an integrated branch that redirects fetch flushes the queue
            # and must not flush itself.
            dyn, ready_cycle = popleft()
            info = dyn.info
            if (ready_cycle > cycle
                    or info.needs_rs and len(rs_waiting) >= rs_entries
                    or info.is_mem and len(lsq._by_seq) >= lsq.size):
                fetch_queue.appendleft((dyn, ready_cycle))
                break
            inst = dyn.inst

            # Source lookup.  The zero registers are never renamed: they
            # map to ZERO_PREG at generation 0 for the whole run, so every
            # source can read the map.
            srcs = inst.srcs
            if len(srcs) == 2:
                a, b = srcs
                dyn.src_pregs = (mt_pregs[a], mt_pregs[b])
                dyn.src_gens = (mt_gens[a], mt_gens[b])
            elif srcs:
                a = srcs[0]
                dyn.src_pregs = (mt_pregs[a],)
                dyn.src_gens = (mt_gens[a],)

            if integration is not None and info.integrable:
                decision = integration.consider(
                    dyn, dyn.call_depth,
                    self._oracle_allow if self._oracle_loads and info.is_load
                    else None)
                if decision is not NO_INTEGRATION \
                        and self._integrate(dyn, decision):
                    dyn.rename_cycle = cycle
                    rob_entries.append(dyn)
                    if tracer is not None:
                        tracer.on_rename(dyn, cycle)
                    if dyn.branch_mispredicted:
                        # The branch redirected fetch: everything behind
                        # it in the queue was flushed.
                        break
                    continue

            # Conventional rename: claim a fresh destination register.
            dest = inst.mapped_dest
            if dest is not None:
                preg = allocate()
                if preg is None:
                    fetch_queue.appendleft((dyn, ready_cycle))
                    break
                dyn.old_dest_preg = mt_pregs[dest]
                dyn.old_dest_gen = mt_gens[dest]
                gen = prf_gen[preg]
                dyn.dest_preg = preg
                dyn.dest_gen = gen
                mt_pregs[dest] = preg
                mt_gens[dest] = gen
                preg_producer[preg] = dyn
            if integration is not None:
                integration.create_entries(dyn, dyn.call_depth)
            if info.needs_rs:
                rs.insert(dyn)
                if info.is_mem:
                    lsq.insert(dyn)
                dyn.dispatch_cycle = cycle
            else:
                if dyn.cls is OpClass.CALL_DIRECT \
                        and dyn.dest_preg is not None:
                    prf.set_value(dyn.dest_preg, inst.pc + INST_SIZE)
                dyn.completed = True
                dyn.complete_cycle = cycle
            dyn.rename_cycle = cycle
            rob_entries.append(dyn)
            if tracer is not None:
                tracer.on_rename(dyn, cycle)
        state.stats.renamed += len(rob_entries) - rob_start

    def horizon(self, cycle: int) -> int:
        """Rename waits for the queue head to decode, then for ROB, RS and
        LSQ space (freed only by other stages).  An unblocked head is
        attempted now: the attempt's integration-table probe is not
        idempotent, so it is never skipped."""
        fetch_queue = self.frontend.fetch_queue
        if not fetch_queue:
            return NEVER
        head, ready_cycle = fetch_queue[0]
        if ready_cycle > cycle:
            return ready_cycle
        state = self.state
        info = head.info
        if (state.rob.full
                or info.needs_rs and not state.rs.has_space()
                or info.is_mem and not state.lsq.has_space()):
            return NEVER
        return cycle

    def flush(self, redirect_pc: int) -> None:
        """Rename holds no inter-cycle state; nothing to discard."""

    # ------------------------------------------------------------------
    def _integrate(self, dyn: DynInst, decision) -> bool:
        """Count a non-trivial integration decision and apply it: point
        the instruction at the matched IT entry's result.  False means
        rename conventionally (no match, or the result's reference counter
        is saturated)."""
        state = self.state
        stats = state.stats
        if decision.suppressed_by_lisp or decision.suppressed_by_oracle:
            stats.lisp_suppressed += 1
        if not decision.integrate:
            return False
        entry = decision.entry
        if dyn.info.is_cond_branch:
            self._integrate_branch(dyn, entry)
            return True
        out = entry.out
        status = self._result_status(out)
        if not state.renamer.integrate_dest(dyn, out, entry.out_gen):
            stats.refcount_saturation_failures += 1
            return False
        dyn.integrated = True
        dyn.reverse_integrated = entry.is_reverse
        dyn.integration_distance = max(0, dyn.seq - entry.creator_seq)
        dyn.integration_status = status
        dyn.integration_refcount = state.prf.refcount[out]
        dyn.completed = True
        dyn.complete_cycle = state.cycle
        return True

    def _integrate_branch(self, dyn: DynInst, entry) -> None:
        """An integrating conditional branch resolves at rename."""
        state = self.state
        inst = dyn.inst
        outcome = bool(entry.branch_outcome)
        dyn.integrated = True
        dyn.reverse_integrated = entry.is_reverse
        dyn.integration_distance = max(0, dyn.seq - entry.creator_seq)
        dyn.branch_taken = outcome
        dyn.next_pc = inst.target if outcome else inst.pc + INST_SIZE
        dyn.completed = True
        dyn.complete_cycle = state.cycle
        prediction = dyn.prediction
        if prediction is None:
            return
        mispredicted = state.predictor.resolve(inst, prediction, outcome,
                                               dyn.next_pc)
        if mispredicted:
            # Early resolution at rename: nothing younger has been renamed
            # yet, so only the front-end queues need flushing.
            dyn.branch_mispredicted = True
            self.frontend.flush(dyn.next_pc)
            self.recovery.recover_predictor_after(dyn, outcome, dyn.next_pc)

    def _result_status(self, preg: int) -> ResultStatus:
        """State of the to-be-integrated result (Figure 5 Status breakdown)."""
        state = self.state
        if state.prf.refcount[preg] == 0:
            return ResultStatus.SHADOW_SQUASH
        producer = state.preg_producer.get(preg)
        if producer is None or producer.retire_cycle >= 0:
            return ResultStatus.RETIRE
        if producer.issued or producer.completed:
            return ResultStatus.ISSUE
        return ResultStatus.RENAME

    def _oracle_allow(self, dyn: DynInst, entry) -> bool:
        """Approximate oracle load-suppression: allow the integration only if
        the value it would reuse matches the best currently-knowable value of
        the load (store-queue forwarding or committed memory)."""
        state = self.state
        if entry.out is None or not state.prf.ready[entry.out]:
            return True
        base_preg = dyn.src_pregs[0]
        if not state.prf.ready[base_preg]:
            return True
        addr = semantics.effective_address(state.prf.value(base_preg),
                                           dyn.inst.imm)
        store = state.lsq.forward_from(dyn, addr)
        if store is not None:
            expected = store.store_value
        else:
            expected = state.arch.memory.read(addr)
        expected = semantics.narrow_load_value(dyn.op, expected)
        return expected == state.prf.value(entry.out)
