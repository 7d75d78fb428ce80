"""The in-order back end: the DIVA checker and retirement.

:class:`CommitDiva` drains the head of the reorder buffer, re-executes every
instruction on the architectural state through the DIVA checker, recovers
from mis-integrations (modelled as a full pipeline flush plus a destination
repair), and maintains the retirement-side statistics that the paper's
evaluation is built on.
"""

from __future__ import annotations

from repro.core.diva import DivaFault, SimulationError
from repro.core.stages.base import NEVER, PipelineState, RecoveryController
from repro.core.stats import distance_bucket
from repro.isa.instruction import DynInst
from repro.isa.opcodes import (
    CHECK_NEXT_PC,
    CHECK_STORE,
    CHECK_TAKEN,
    CHECK_VALUE,
)
from repro.obs.cpi import CPI_INTEGRATION_REPLAY


class CommitDiva:
    """DIVA check + in-order retirement (the commit point)."""

    name = "commit"

    def __init__(self, state: PipelineState, recovery: RecoveryController):
        self.state = state
        self.recovery = recovery

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Retire up to ``retire_width`` instructions from the ROB head.

        Each instruction's static retire plan (``StaticInst.diva_check``
        and ``StaticInst.itype``) says where its observed result lives,
        what DIVA compares and which Figure 5 type it counts as.
        """
        state = self.state
        rob_entries = state.rob._entries
        if not rob_entries:
            return
        stats = state.stats
        group = state.config.retire_width
        budget = state.retire_budget
        if budget is not None and budget - stats.retired < group:
            # Exact slice boundary: never retire past the budget, so a
            # resumed run stops on a precise instruction boundary.
            group = budget - stats.retired
        cycle = state.cycle
        prf = state.prf
        prf_ready = prf.ready
        prf_values = prf.values
        release = prf.release
        diva = state.diva
        arch = state.arch
        tracer = state.tracer
        retired = 0
        while retired < group and rob_entries:
            dyn = rob_entries[0]
            if cycle <= dyn.rename_cycle + 1:
                break
            if dyn.integrated:
                dest = dyn.dest_preg
                if dest is not None and not prf_ready[dest]:
                    break
            elif not dyn.completed:
                break
            inst = dyn.inst
            check = inst.diva_check
            if check == CHECK_VALUE:
                dest = dyn.dest_preg
                observed = None if dest is None else prf_values[dest]
            elif check == CHECK_STORE:
                stall, accepted = state.mem.store(dyn.eff_addr or 0, cycle)
                if not accepted:
                    break
                observed = dyn.store_value
            elif check == CHECK_TAKEN:
                observed = dyn.branch_taken
            elif check == CHECK_NEXT_PC:
                observed = dyn.next_pc
            else:
                observed = None
            step, fault = diva.check_and_commit(dyn, observed)
            if fault is not None:
                self._handle_diva_fault(dyn, step, fault)

            # Retire: leave the ROB; the previous (shadowed) mapping of the
            # destination drops its reference (Renamer.commit).
            rob_entries.popleft()
            old = dyn.old_dest_preg
            if old is not None:
                release(old)
            if dyn.in_lsq:
                state.lsq.remove(dyn)
            dyn.retire_cycle = cycle
            retired += 1
            if dyn.mis_integrated:
                # The refill after the mis-integration flush is replay work;
                # do_squash already blamed it on squash_recovery, override.
                state.stall_cause = CPI_INTEGRATION_REPLAY
            elif not (dyn.branch_mispredicted or dyn.mem_mispeculated):
                # An innocent retirement ends the recovery window: later
                # empty-ROB cycles are ordinary front-end supply again.
                state.stall_cause = None
            if tracer is not None:
                tracer.on_retire(dyn, cycle)

            itype = inst.itype
            if itype is not None:
                stats.retired_by_type[itype] += 1
            if dyn.info.is_cond_branch:
                stats.retired_branches += 1
                if dyn.branch_mispredicted or dyn.mis_integrated:
                    stats.retired_mispredicted_branches += 1
                    stats.branch_resolution_latency_sum += max(
                        0, dyn.complete_cycle - dyn.fetch_cycle)
            if dyn.integrated and not dyn.mis_integrated:
                self._count_integration(dyn, itype)
            if fault is not None or arch.halted:
                break
        if retired:
            stats.retired += retired
            state.last_retire_cycle = cycle

    def horizon(self, cycle: int) -> int:
        """Retirement waits for the ROB head to finish (an event the
        execution stage schedules), then for its minimum rename-to-retire
        age.  A retirable head retires, or probes store-port acceptance,
        now."""
        head = self.state.rob.head()
        if head is None:
            return NEVER
        if head.integrated:
            dest = head.dest_preg
            if dest is not None and not self.state.prf.ready[dest]:
                return NEVER
        elif not head.completed:
            return NEVER
        earliest = head.rename_cycle + 2
        return earliest if earliest > cycle else cycle

    def flush(self, redirect_pc: int) -> None:
        """Retirement is in-order and architectural; nothing speculative to
        discard."""

    # ------------------------------------------------------------------
    def _count_integration(self, dyn: DynInst, itype) -> None:
        """Figure 5 statistics of a retired (correctly) integrated
        instruction."""
        stats = self.state.stats
        if dyn.reverse_integrated:
            stats.integrated_reverse += 1
            if itype is not None:
                stats.reverse_by_type[itype] += 1
        else:
            stats.integrated_direct += 1
        if itype is not None:
            stats.integration_by_type[itype] += 1
        stats.integration_distance[
            distance_bucket(dyn.integration_distance)] += 1
        if dyn.integration_status is not None:
            stats.integration_status[dyn.integration_status] += 1
        if dyn.integration_refcount:
            stats.integration_refcount[dyn.integration_refcount] += 1

    def _handle_diva_fault(self, dyn: DynInst, step,
                           fault: DivaFault) -> None:
        """Recover from a mis-integration (or other value fault).

        The paper models recovery as a complete pipeline flush.  We squash
        every younger instruction, repair the faulting instruction's
        destination mapping with a freshly allocated register holding the
        architecturally correct value, and restart fetch at the correct
        next PC.
        """
        state = self.state
        if not dyn.integrated:
            raise SimulationError(
                f"DIVA fault on non-integrated instruction {dyn} "
                f"({fault.kind}): timing core produced "
                f"{fault.observed_value!r}, expected {fault.correct_value!r}")
        dyn.mis_integrated = True
        state.stats.mis_integrations += 1
        if dyn.info.is_load:
            state.stats.load_mis_integrations += 1
            state.integration.train_lisp(dyn.inst.pc)
        else:
            state.stats.register_mis_integrations += 1

        squashed = state.rob.squash_younger_than(dyn.seq)
        self.recovery.do_squash(squashed, redirect_pc=step.next_pc)
        self.recovery.recover_predictor_after(dyn,
                                              taken=bool(step.taken),
                                              target=step.next_pc)
        # Repair the destination mapping with the correct value.
        dest = dyn.inst.dest_reg()
        if (dest is not None and dyn.dest_preg is not None
                and fault.kind == "value"):
            state.prf.release(dyn.dest_preg)
            fresh = state.prf.allocate(ready=True, value=step.dest_value)
            if fresh is None:
                raise SimulationError("no physical register available for "
                                      "mis-integration repair")
            state.map_table.set(dest, fresh, state.prf.gen[fresh])
            dyn.dest_preg = fresh
            dyn.dest_gen = state.prf.gen[fresh]
            state.preg_producer[fresh] = dyn
