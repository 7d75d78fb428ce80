"""In-memory span recording for traced runs.

A span is one timed call: name, start, end (``perf_counter_ns``), the index
of the enclosing span and an operation id shared by every span of one
simulation.  Spans come from wrappers installed around the simulator's
public methods -- as instance attributes on a freshly built ``Processor``'s
stage and substrate objects (``type()`` is unchanged, so the fused driver
stays eligible), or on classes and modules for the sweep layers, restored
afterwards.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (object, attribute) -> span name, for a built Processor.  The stage
#: wrappers see the calls the pipeline driver makes; the substrate
#: wrappers see the calls the stages make.
PROCESSOR_SPANS = (
    ("front_end", "tick", "stages.fetch"),
    ("rename_integrate", "tick", "stages.rename"),
    ("issue_execute", "tick", "stages.issue"),
    ("issue_execute", "writeback", "stages.writeback"),
    ("commit_diva", "tick", "stages.commit"),
    ("integration", "consider", "integration.consider"),
    ("integration", "create_entries", "integration.create_entries"),
    ("diva", "check_and_commit", "diva.check_and_commit"),
    ("mem", "ifetch", "memsys.ifetch"),
    ("mem", "load", "memsys.load"),
    ("mem", "store", "memsys.store"),
)

ROOT_SPAN = "simulate"

#: (name, start ns, end ns, parent index or -1)
Row = Tuple[str, int, int, int]


class SpanRecorder:
    """Collects spans of this process; aggregates them per name."""

    def __init__(self) -> None:
        self.rows: List[Optional[Row]] = []
        #: row index of each root span -> its operation id.
        self.ops: Dict[int, str] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object, bool]] = []
        self._pid = os.getpid()
        #: name -> [calls, inclusive ns, self ns], over every flush.
        self.totals: Dict[str, List[int]] = {}
        #: Spans kept for :meth:`write`: (name, start, end, parent, op).
        self.kept: List[Tuple[str, int, int, int, str]] = []

    # ------------------------------------------------------------------
    def timed(self, fn: Callable, name: str,
              hook: Optional[Callable[[object], None]] = None,
              forks: bool = False) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``hook`` sees every call's result.  With ``forks`` the wrapper may
        also run in forked pool children: there it records nothing (the
        spans would die with the child) and only calls ``hook``.
        """
        rows, stack = self.rows, self._stack
        rows_append, stack_append, stack_pop = (rows.append, stack.append,
                                                stack.pop)
        clock = time.perf_counter_ns

        if hook is None and not forks:
            # The hot path: one call per stage tick and substrate call.
            def wrapper(*args, **kwargs):
                index = len(rows)
                rows_append(None)
                stack_append(index)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack_pop()
                    rows[index] = (name, start, end,
                                   stack[-1] if stack else -1)
            return wrapper

        pid = self._pid

        def observed(*args, **kwargs):
            if forks and os.getpid() != pid:
                result = fn(*args, **kwargs)
            else:
                index = len(rows)
                rows_append(None)
                stack_append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack_pop()
                    rows[index] = (name, start, end,
                                   stack[-1] if stack else -1)
            if hook is not None:
                hook(result)
            return result
        return observed

    def wrap(self, owner: object, attr: str, name: str,
             hook: Optional[Callable[[object], None]] = None,
             forks: bool = False) -> None:
        """Replace ``owner.attr`` by a timed version until :meth:`restore`."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        self._undo.append((owner, attr, original, had_own))
        setattr(owner, attr,
                self.timed(getattr(owner, attr), name, hook, forks))

    def wrap_processor(self, processor) -> None:
        state = processor.state
        owners = {
            "front_end": processor.front_end,
            "rename_integrate": processor.rename_integrate,
            "issue_execute": processor.issue_execute,
            "commit_diva": processor.commit_diva,
            "integration": state.integration,
            "diva": state.diva,
            "mem": state.mem,
        }
        for owner, attr, name in PROCESSOR_SPANS:
            self.wrap(owners[owner], attr, name)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[None]:
        """A span around a block; a root span carries the operation id."""
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self.ops[index] = op
        self.rows.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.rows[index] = (name, start, end, parent)

    # ------------------------------------------------------------------
    def flush(self, keep: bool = False) -> Dict[str, List[int]]:
        """Fold the recorded spans into per-name ``[calls, inclusive ns,
        self ns]`` (returned, and added to :attr:`totals`); then forget
        them, unless ``keep`` sets them aside for :meth:`write`.  Call only
        with no span open."""
        rows = self.rows
        child = [0] * len(rows)
        for name, start, end, parent in rows:
            if parent >= 0:
                child[parent] += end - start
        batch: Dict[str, List[int]] = {}
        for index, (name, start, end, _) in enumerate(rows):
            entry = batch.get(name)
            if entry is None:
                entry = batch[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[index]
        for name, (calls, incl, own) in batch.items():
            total = self.totals.setdefault(name, [0, 0, 0])
            total[0] += calls
            total[1] += incl
            total[2] += own
        if keep:
            self._keep()
        self.clear()
        return batch

    def _keep(self) -> None:
        base = len(self.kept)
        ops: List[str] = []
        for index, (name, start, end, parent) in enumerate(self.rows):
            op = self.ops.get(index, "") if parent < 0 else ops[parent]
            ops.append(op)
            self.kept.append((name, start, end,
                              parent + base if parent >= 0 else -1, op))

    def clear(self) -> None:
        self.rows.clear()
        self.ops.clear()

    def write(self, path: Path) -> int:
        """Write the kept spans as gzipped JSON lines
        ``[name, start_ns, end_ns, parent index, op id]``; returns count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for row in self.kept:
                out.write(json.dumps(row) + "\n")
        return len(self.kept)
