"""The integration table (IT).

The IT stores operation descriptor tuples of recently renamed instructions::

    <operation (opcode/immediate or PC), in1 (+gen), in2 (+gen), out (+gen)>

The instruction's index fields hash it to a set (paper Section 2.3).  Within
a set, the operational-equivalence test -- same operation applied to the
same physical input registers at the same generations -- is an exact match
on the entry's *key*::

    (set index, tag, inputs)

where the tag is the full PC under PC indexing and the ``(it_key, opcode
id, immediate)`` signature otherwise (the call depth only augments the
index, so instructions from different depths can still match within a
set), and ``inputs`` is ``(in1, in2, gen1, gen2)`` restricted to the inputs
the operation reads.  The table keeps a dict from key to the entries
carrying it, so the rename-time test is one dict probe (:meth:`probe`)
instead of a scan and sort of the set.

Replacement within a set is LRU.  Every set and every key's bucket is kept
most-recently-used first: insertion and :meth:`touch` move an entry to the
front, and the victim is the set's last entry, which is also the last
entry of its bucket.  Together with FIFO physical-register reclamation this
approximates the joint IT/state-vector management of the original
squash-reuse design (paper Section 2.2, implementation issues).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.integration.config import IndexScheme
from repro.isa.opcodes import Opcode, it_signature
from repro.isa.program import INST_SIZE


class ITEntry:
    """One integration-table entry: ``<operation, inputs, out (+gen)>``.

    ``sig`` names the operation by its ``(it_key, opcode id, immediate)``
    signature (see :func:`repro.isa.opcodes.it_signature`; static
    instructions precompute theirs).  ``ins`` holds the inputs in the form
    a renamed instruction presents them: its source physical registers,
    then their generations -- ``(in1, gen1)`` for one input,
    ``(in1, in2, gen1, gen2)`` for two.  ``out`` is ``None`` for a branch
    entry, whose result is ``branch_outcome`` once resolved.  ``key`` is
    assigned by :meth:`IntegrationTable.insert`.
    """

    __slots__ = ("pc", "sig", "ins", "out", "out_gen", "branch_outcome",
                 "is_reverse", "creator_seq", "key")

    def __init__(self, pc: int, sig: tuple, ins: tuple, out: Optional[int],
                 out_gen: int, is_reverse: bool = False,
                 creator_seq: int = 0):
        self.pc = pc
        self.sig = sig
        self.ins = ins
        self.out = out
        self.out_gen = out_gen
        self.branch_outcome: Optional[bool] = None
        self.is_reverse = is_reverse
        self.creator_seq = creator_seq
        self.key: Optional[tuple] = None

    def inputs_match(self, pregs: Sequence[int], gens: Sequence[int]) -> bool:
        """Operational-equivalence test on the input physical registers.

        Both the register numbers and their generation counters must match
        (the generation comparison is what suppresses register
        mis-integrations after a register has been reallocated).
        """
        return self.ins == (*pregs, *gens)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "rev" if self.is_reverse else "dir"
        return (f"<ITEntry {kind} op#{self.sig[1]}/{self.sig[2]} "
                f"in={self.ins} out={self.out}>")


@dataclass
class ITStats:
    evictions: int = 0


class IntegrationTable:
    """Set-associative, LRU-replaced integration table."""

    def __init__(self, entries: int = 1024, assoc: int = 4,
                 scheme: IndexScheme = IndexScheme.OPCODE_IMM_CALLDEPTH):
        if entries <= 0:
            raise ValueError("IT needs at least one entry")
        if assoc == 0 or assoc >= entries:
            assoc = entries          # fully associative
        if entries % assoc:
            raise ValueError("IT entry count must be a multiple of the "
                             "associativity")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.scheme = scheme
        # Scheme flags hoisted out of the per-probe path.
        self._pc_scheme = scheme is IndexScheme.PC
        self._depth_in_index = scheme is IndexScheme.OPCODE_IMM_CALLDEPTH
        #: Each set's entries, most recently used first.
        self._sets: List[List[ITEntry]] = [[] for _ in range(self.num_sets)]
        #: key -> the entries carrying it, most recently used first.
        self._exact: Dict[tuple, List[ITEntry]] = {}
        self.stats = ITStats()

    # ------------------------------------------------------------------
    # index and tag functions (paper Section 2.3)
    # ------------------------------------------------------------------
    def _key(self, pc: int, sig: tuple, call_depth: int, ins: tuple) -> tuple:
        """The exact key ``(set index, tag, inputs)`` of an operation."""
        if self._pc_scheme:
            return (pc // INST_SIZE) % self.num_sets, pc, ins
        index = sig[0]
        if self._depth_in_index:
            index ^= call_depth
        return index % self.num_sets, sig, ins

    # ------------------------------------------------------------------
    # the rename-time test
    # ------------------------------------------------------------------
    def probe(self, inst, call_depth: int,
              ins: tuple) -> Optional[List[ITEntry]]:
        """The entries operationally equivalent to static instruction
        ``inst`` renamed at ``call_depth`` with inputs ``ins`` (source
        physical registers, then their generations), most recently used
        first; ``None`` when there are none.  The caller must not mutate
        the returned list."""
        return self._exact.get(self._key(inst.pc, inst.it_sig, call_depth,
                                         ins))

    def lookup(self, pc: int, opcode: Opcode, imm: Optional[int],
               call_depth: int) -> List[ITEntry]:
        """Return the entries whose tag matches, most recently used first,
        whatever their inputs (a tag-level query for tests and tools)."""
        index, tag, _ = self._key(pc, it_signature(opcode, imm), call_depth,
                                  ())
        if self._pc_scheme:
            return [entry for entry in self._sets[index] if entry.pc == tag]
        return [entry for entry in self._sets[index] if entry.sig == tag]

    def touch(self, entry: ITEntry) -> None:
        """Make ``entry`` its set's most recently used entry (called on
        successful integration)."""
        key = entry.key
        cache_set = self._sets[key[0]]
        if cache_set[0] is not entry:
            cache_set.remove(entry)
            cache_set.insert(0, entry)
            bucket = self._exact[key]
            if bucket[0] is not entry:
                bucket.remove(entry)
                bucket.insert(0, entry)

    def insert(self, entry: ITEntry, call_depth: int) -> ITEntry:
        """Insert ``entry``, evicting the LRU entry of its set if full."""
        key = entry.key = self._key(entry.pc, entry.sig, call_depth,
                                    entry.ins)
        exact = self._exact
        cache_set = self._sets[key[0]]
        if len(cache_set) >= self.assoc:
            victim = cache_set.pop()
            # The set's LRU entry is also the LRU entry of its bucket.
            victim_key = victim.key
            bucket = exact[victim_key]
            bucket.pop()
            if not bucket:
                del exact[victim_key]
            self.stats.evictions += 1
        cache_set.insert(0, entry)
        bucket = exact.get(key)
        if bucket is None:
            exact[key] = [entry]
        else:
            bucket.insert(0, entry)
        return entry

    def invalidate_output(self, preg: int) -> int:
        """Drop every entry whose output is ``preg``.

        The paper notes this 'complete solution' to register mis-integration
        is too expensive in hardware (associative search); it is provided
        here for tests and the generation-counter ablation.
        """
        removed = 0
        exact = self._exact
        for cache_set in self._sets:
            for entry in [entry for entry in cache_set if entry.out == preg]:
                cache_set.remove(entry)
                bucket = exact[entry.key]
                bucket.remove(entry)
                if not bucket:
                    del exact[entry.key]
                removed += 1
        return removed

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def __iter__(self):
        for cache_set in self._sets:
            yield from cache_set
