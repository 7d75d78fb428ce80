"""Reservation stations and the issue (select) stage.

The scheduler buffers renamed, non-integrated instructions until their
source physical registers are ready and an issue port of the right class is
free.  Selection follows the paper: loads, branches and floating-point
operations have priority, with instruction age as the tie-breaker, subject
to the per-class port limits and the total issue width.

Operand readiness is tracked by events, not by scanning: the pipeline wires
``prf.on_ready -> rs.wakeup``, every inserted instruction counts its
not-yet-ready sources once (``DynInst.rs_pending``), registers itself as a
watcher of those registers, and moves to the ready pool when the last
wakeup arrives.  ``select`` then considers only the ready pool instead of
re-evaluating the operands of every waiting instruction every cycle.

The ready pool is keyed by each instruction's sort key
``OpInfo.sort_bias | seq`` (see :mod:`repro.isa.opcodes`), so sorting the
pool's plain-int keys yields the (priority, age) selection order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import IssuePortConfig
from repro.isa.instruction import DynInst
from repro.isa.opcodes import PORT_LOAD, PORT_STORE
from repro.rename.physical import PhysicalRegisterFile

__all__ = ["ReservationStations", "IssuePortConfig"]


class ReservationStations:
    """A pool of reservation stations with port-constrained selection."""

    def __init__(self, entries: int, ports: Optional[IssuePortConfig] = None,
                 combined_ldst_port: bool = False, *,
                 prf: PhysicalRegisterFile):
        self.entries = entries
        self.ports = ports or IssuePortConfig()
        self.combined_ldst_port = combined_ldst_port
        #: Port limits indexed by ``OpInfo.port_code``.
        self._limits = [self.ports.simple_int, self.ports.complex_fp,
                        self.ports.loads, self.ports.stores]
        #: seq -> waiting instruction (insertion order = age order).
        self._waiting: Dict[int, DynInst] = {}
        self._prf = prf
        #: sort key -> instruction whose operands are all ready.
        self._ready: Dict[int, DynInst] = {}
        #: preg -> seqs waiting on it (may hold stale watchers for
        #: instructions that already issued or squashed; they are skipped
        #: on wakeup via the ``_waiting`` membership test).
        self._watchers: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._waiting)

    @property
    def occupancy(self) -> int:
        return len(self._waiting)

    def has_space(self, count: int = 1) -> bool:
        return len(self._waiting) + count <= self.entries

    def may_select(self) -> bool:
        """Whether :meth:`select` could pick anything now: the ready pool
        is non-empty."""
        return bool(self._ready)

    def insert(self, dyn: DynInst) -> None:
        waiting = self._waiting
        if len(waiting) >= self.entries:
            raise RuntimeError("reservation station overflow")
        seq = dyn.seq
        waiting[seq] = dyn
        ready = self._prf.ready
        pending = 0
        watchers = self._watchers
        for preg in dyn.src_pregs:
            if not ready[preg]:
                pending += 1
                bucket = watchers.get(preg)
                if bucket is None:
                    watchers[preg] = [seq]
                else:
                    bucket.append(seq)
        dyn.rs_pending = pending
        if pending == 0:
            self._ready[dyn.info.sort_bias | seq] = dyn

    def wakeup(self, preg: int) -> None:
        """A physical register became ready: promote its watchers.

        Wired to :attr:`PhysicalRegisterFile.on_ready` by the pipeline.
        Duplicate sources register (and wake) once per occurrence, so the
        pending count stays balanced.
        """
        watchers = self._watchers.pop(preg, None)
        if not watchers:
            return
        waiting = self._waiting
        ready = self._ready
        for seq in watchers:
            dyn = waiting.get(seq)
            if dyn is not None:
                left = dyn.rs_pending - 1
                dyn.rs_pending = left
                if left == 0:
                    ready[dyn.info.sort_bias | seq] = dyn

    def squash(self, squashed_seqs: set) -> int:
        """Drop entries belonging to squashed instructions; returns count."""
        waiting = self._waiting
        doomed = [seq for seq in waiting if seq in squashed_seqs]
        for seq in doomed:
            self._remove(waiting[seq])
        return len(doomed)

    def _remove(self, dyn: DynInst) -> None:
        seq = dyn.seq
        del self._waiting[seq]
        if dyn.rs_pending == 0:
            del self._ready[dyn.info.sort_bias | seq]

    # ------------------------------------------------------------------
    def select(self, load_can_issue: Callable[[DynInst], bool]
               ) -> List[DynInst]:
        """Pick this cycle's issue group from the ready pool.

        ``load_can_issue`` applies the memory-ordering constraints (the
        collision history table) to a ready load; it is called on every
        load in the cycle that load is selected.  Selected instructions
        are removed from the pool.
        """
        ready = self._ready
        if not ready:
            return []
        limits = self._limits
        counts = [0, 0, 0, 0]
        width = self.ports.issue_width
        combined = self.combined_ldst_port
        selected: List[DynInst] = []
        for key in sorted(ready):
            if len(selected) >= width:
                break
            dyn = ready[key]
            code = dyn.info.port_code
            if code == PORT_LOAD and not load_can_issue(dyn):
                continue
            if (combined and code >= PORT_LOAD
                    and counts[PORT_LOAD] + counts[PORT_STORE] >= 1):
                continue
            if counts[code] >= limits[code]:
                continue
            counts[code] += 1
            selected.append(dyn)
        for dyn in selected:
            self._remove(dyn)
        return selected
