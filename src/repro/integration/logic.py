"""Rename-time integration logic.

For every instruction being renamed the logic performs the operational
equivalence test against the integration table: same operation (PC or
opcode/immediate depending on the index scheme) applied to the same physical
input registers at the same generations, with an integration-eligible output
register.  On success the instruction *integrates*: its destination logical
register is simply pointed at the existing physical register and the
instruction bypasses the out-of-order execution engine.  On failure the
instruction is renamed conventionally and new IT entries are created --
including *reverse* entries for stack stores and stack-pointer adjustments
(extension 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.integration.config import IntegrationConfig, IndexScheme, LispMode
from repro.integration.lisp import LoadIntegrationSuppressionPredictor
from repro.integration.table import IntegrationTable, ITEntry
from repro.isa.instruction import DynInst
from repro.isa.registers import REG_SP
from repro.rename.physical import PhysicalRegisterFile

# Callback used to approximate oracle load-mis-integration suppression: given
# the dynamic load and the candidate entry, return True to allow integration.
OracleCheck = Callable[[DynInst, ITEntry], bool]


@dataclass(slots=True)
class IntegrationDecision:
    """Result of the rename-time integration test for one instruction.

    The negative outcomes are shared constants (:data:`NO_INTEGRATION`,
    :data:`LISP_SUPPRESSED`, :data:`ORACLE_SUPPRESSED`); never mutate a
    decision.
    """

    integrate: bool
    entry: Optional[ITEntry] = None
    suppressed_by_lisp: bool = False
    suppressed_by_oracle: bool = False

    @property
    def is_reverse(self) -> bool:
        return bool(self.entry is not None and self.entry.is_reverse)


NO_INTEGRATION = IntegrationDecision(integrate=False)
LISP_SUPPRESSED = IntegrationDecision(integrate=False, suppressed_by_lisp=True)
ORACLE_SUPPRESSED = IntegrationDecision(integrate=False,
                                        suppressed_by_oracle=True)


class IntegrationLogic:
    """The integration test plus IT entry creation."""

    def __init__(self, config: IntegrationConfig, prf: PhysicalRegisterFile,
                 table: Optional[IntegrationTable] = None,
                 lisp: Optional[LoadIntegrationSuppressionPredictor] = None):
        self.config = config
        self.prf = prf
        self.table = table or IntegrationTable(config.it_entries,
                                               config.it_assoc,
                                               config.index_scheme)
        if lisp is None and config.lisp_mode is LispMode.REALISTIC:
            lisp = LoadIntegrationSuppressionPredictor(config.lisp_entries,
                                                       config.lisp_assoc)
        self.lisp = lisp
        # Config-derived constants hoisted out of the per-rename path (the
        # config is immutable for the lifetime of the logic).
        self._enabled = config.enabled
        self._lisp_realistic = (config.lisp_mode is LispMode.REALISTIC
                                and lisp is not None)
        self._squash_only = not config.general_reuse
        self._oracle_loads = config.lisp_mode is LispMode.ORACLE
        self._reverse = config.reverse
        self._reverse_sp_only = config.reverse_sp_only

    # ------------------------------------------------------------------
    # the integration test
    # ------------------------------------------------------------------
    def consider(self, dyn: DynInst, call_depth: int,
                 oracle_allow: Optional[OracleCheck] = None
                 ) -> IntegrationDecision:
        """Decide whether ``dyn`` can integrate an existing result.

        ``dyn`` must already have its source physical registers looked up
        (``src_pregs``/``src_gens``).  ``oracle_allow`` implements oracle
        load-suppression when the configuration asks for it.

        One IT probe yields exactly the operationally equivalent entries,
        most recently used first; the first whose result is still
        integrable (a resolved branch outcome, or an eligible output
        register that oracle suppression does not veto) wins.
        """
        if not self._enabled:
            return NO_INTEGRATION
        info = dyn.info
        if not info.integrable:
            return NO_INTEGRATION
        inst = dyn.inst
        is_load_op = info.is_load
        if is_load_op and self._lisp_realistic \
                and self.lisp.suppresses(inst.pc):
            return LISP_SUPPRESSED
        table = self.table
        matches = table.probe(inst, call_depth,
                              (*dyn.src_pregs, *dyn.src_gens))
        if matches is None:
            return NO_INTEGRATION

        if info.is_cond_branch:
            for entry in matches:
                if entry.branch_outcome is not None:
                    table.touch(entry)
                    return IntegrationDecision(True, entry)
            return NO_INTEGRATION

        eligible = self.prf.integration_eligible
        squash_only = self._squash_only
        check_oracle = (is_load_op and self._oracle_loads
                        and oracle_allow is not None)
        oracle_suppressed = False
        for entry in matches:
            out = entry.out
            if out is None or not eligible(out, entry.out_gen, squash_only):
                continue
            if check_oracle and not oracle_allow(dyn, entry):
                oracle_suppressed = True
                continue
            table.touch(entry)
            return IntegrationDecision(True, entry, False, oracle_suppressed)
        return ORACLE_SUPPRESSED if oracle_suppressed else NO_INTEGRATION

    # ------------------------------------------------------------------
    # entry creation (integration failed, or store reverse entries)
    # ------------------------------------------------------------------
    def create_entries(self, dyn: DynInst, call_depth: int) -> None:
        """Create IT entries for an instruction that did not integrate.

        Direct entries describe the instruction itself; reverse entries
        describe its inverse (extension 3): a store creates the
        complementary load entry, a stack-pointer ``lda`` creates the entry
        for the opposite adjustment.
        """
        if not self._enabled:
            return
        info = dyn.info
        if info.is_store:
            self._maybe_create_store_reverse(dyn, call_depth)
            return
        if not info.integrable:
            return
        is_branch = info.is_cond_branch
        out = dyn.dest_preg
        if out is None and not is_branch:
            return
        inst = dyn.inst
        ins = (*dyn.src_pregs, *dyn.src_gens)
        insert = self.table.insert
        if is_branch:
            dyn.it_entry = insert(
                ITEntry(inst.pc, inst.it_sig, ins, None, 0, False, dyn.seq),
                call_depth)
            return
        dyn.it_entry = insert(
            ITEntry(inst.pc, inst.it_sig, ins, out, dyn.dest_gen, False,
                    dyn.seq),
            call_depth)

        # Reverse entry for stack-pointer adjustments: lda sp, imm(sp)
        # creates <lda/-imm, new_sp, -, old_sp>.
        reverse_sig = inst.it_reverse_sig
        if reverse_sig is not None and self._reverse:
            insert(ITEntry(inst.pc, reverse_sig, (out, dyn.dest_gen),
                           dyn.src_pregs[0], dyn.src_gens[0], True, dyn.seq),
                   call_depth)

    def _maybe_create_store_reverse(self, dyn: DynInst,
                                    call_depth: int) -> None:
        """Create the complementary-load entry for a (stack) store."""
        if not self._reverse:
            return
        inst = dyn.inst
        if self._reverse_sp_only and inst.rb != REG_SP:
            return
        # Store sources are [data, base]; the reverse load reads the base and
        # produces the data register.
        pregs = dyn.src_pregs
        gens = dyn.src_gens
        self.table.insert(ITEntry(inst.pc, inst.it_reverse_sig,
                                  (pregs[1], gens[1]), pregs[0], gens[0],
                                  True, dyn.seq),
                          call_depth)

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def record_branch_outcome(self, dyn: DynInst, taken: bool) -> None:
        """Fill in the resolved direction of a branch's IT entry so younger
        instances can integrate (bypass execution and resolve early)."""
        entry = dyn.it_entry
        if entry is not None and entry.out is None:
            entry.branch_outcome = taken

    def train_lisp(self, pc: int) -> None:
        """Record a load mis-integration detected by DIVA."""
        if self.lisp is not None:
            self.lisp.train(pc)
