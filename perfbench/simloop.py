"""``hotpath``: direct ``Processor`` runs, then reruns.

A cold pass builds and runs a ``Processor`` for every point (the work of
``repro.core.simulate``), timed per simulation; each result is checked
against the functional emulator and against this run's earlier results.
The first pass's results are then stored in a fresh ``ResultCache``, and
warm passes -- fresh rerun processes paced over the rest of the run -- read
them back through ``result_key`` + ``ResultCache.load``.

The traced run alternates untraced and traced cold passes (their ratio is
``trace.overhead``, and every traced ``SimStats`` must equal its untraced
twin bit for bit), then reads the results back in this process with the
cache methods wrapped.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import resource
import subprocess
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from perfbench import inputs
from perfbench.inputs import Point
from perfbench.spans import ROOT_SPAN, SpanRecorder
from perfbench.summary import Outcome, Paced, median

#: Warm passes per untraced run.  Each is a fresh process (~0.2 s): an
#: in-process read-back takes ~1.5 ms, and samples that short swing 2x
#: with the host's speed, which no median over a run smooths.  24 make
#: the tail the p58.
WARM_PASSES = 24
#: In-process read-backs of the traced run, for the cache layer's timing.
TRACED_READ_BACKS = 240

STAGES = ("fetch", "rename", "issue", "writeback", "commit")
CPI_BUCKETS = ("retired", "frontend_empty", "rename_stall",
               "waiting_operands", "memory", "integration_replay",
               "squash_recovery")


class Reference(NamedTuple):
    instructions: int
    exit_code: Optional[int]
    output: List[int]


class Run(NamedTuple):
    stats: object        # SimStats
    processor: object    # Processor
    wall: float
    cpu: float


def digest(stats) -> str:
    """A short hash of every ``SimStats`` field (bit-identity check)."""
    blob = json.dumps(stats.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def references(points: List[Point]) -> Dict[str, Reference]:
    """The functional emulator's result for every distinct program."""
    from repro.functional.emulator import run_program

    out: Dict[str, Reference] = {}
    for point in points:
        if point.name not in out:
            result = run_program(point.program)
            out[point.name] = Reference(result.instructions,
                                        result.exit_code,
                                        list(result.output))
    return out


def simulate(point: Point, recorder: Optional[SpanRecorder] = None) -> Run:
    """Build and run one ``Processor``; with a recorder, wrap its stages
    and substrates first and record the whole call as the root span."""
    from repro.core import Processor

    cpu0 = time.process_time()
    start = time.perf_counter()
    if recorder is None:
        processor = Processor(point.program, point.config, name=point.name)
        stats = processor.run()
    else:
        with recorder.span(ROOT_SPAN, point.op_id):
            processor = Processor(point.program, point.config,
                                  name=point.name)
            recorder.wrap_processor(processor)
            stats = processor.run()
        recorder.restore()
    wall = time.perf_counter() - start
    return Run(stats, processor, wall, time.process_time() - cpu0)


class ColdLoop:
    """Runs cold passes and checks every simulation."""

    def __init__(self, points: List[Point], outcome: Outcome,
                 keep_processors: bool = False):
        self.points = points
        self.outcome = outcome
        self.keep_processors = keep_processors
        self.refs = references(points)
        #: op id -> SimStats digest of the first good run.
        self.digests: Dict[str, str] = {}
        #: op id -> first good run (its Processor only if kept).
        self.first: Dict[str, Run] = {}

    def run_pass(self, index: int,
                 recorder: Optional[SpanRecorder] = None) -> List[Run]:
        from repro.core.diva import SimulationError

        runs = []
        for point in inputs.pass_order(self.points, index):
            try:
                run = simulate(point, recorder)
            except SimulationError as exc:
                if recorder is not None:
                    recorder.restore()
                    recorder.clear()
                self.outcome.attempt(False, f"{point.op_id}: {exc}")
                continue
            if recorder is not None:
                recorder.flush(keep=not recorder.kept)
            if self.check(point, run):
                if not self.keep_processors:
                    run = run._replace(processor=None)
                runs.append(run)
                self.first.setdefault(point.op_id, run)
        # Free the passes' machines now, so the collector's work on the
        # harness's garbage does not land inside a later timed region.
        gc.collect()
        return runs

    def check(self, point: Point, run: Run) -> bool:
        """One operation: the emulator's retired count, exit code and
        output, and the same ``SimStats`` as this point's earlier runs."""
        ref = self.refs[point.name]
        arch = run.processor.arch
        got = Reference(run.stats.retired, arch.exit_code, list(arch.output))
        if got != ref:
            return self.outcome.attempt(
                False, f"{point.op_id}: simulated {got} but the functional "
                f"emulator gives {ref}")
        mark = digest(run.stats)
        expected = self.digests.setdefault(point.op_id, mark)
        return self.outcome.attempt(
            mark == expected, f"{point.op_id}: SimStats digest {mark} "
            f"differs from this run's earlier {expected}")


class ReadBack:
    """A warm pass: every point's result read back from the disk cache."""

    def __init__(self, points: List[Point], first: Dict[str, Run],
                 cache_root: Path, outcome: Outcome):
        """Store the first pass's results (not timed)."""
        from repro.experiments.cache import ResultCache, result_key

        self.points = points
        self.outcome = outcome
        self.cache = ResultCache(cache_root)
        self.result_key = result_key
        self.digests = {}
        for point in points:
            stats = first[point.op_id].stats
            outcome.attempt(
                self.cache.store(self.key(point), stats),
                f"{point.op_id}: cache store failed")
            self.digests[point.op_id] = digest(stats)
        self.walls: List[float] = []

    def key(self, point: Point) -> str:
        return self.result_key(point.name, point.scale, point.config)

    def run_in_child(self, argv: List[str], env: Dict[str, str]) -> None:
        """One warm pass as a user's rerun: a fresh process (``argv``, see
        ``run.py --read-back``) imports the simulator, hashes the code
        version and loads every point's result, printing their digests."""
        start = time.perf_counter()
        # No timeout: with one, subprocess polls for the exit in sleeps of
        # up to 50 ms, which would quantize the measured time.
        proc = subprocess.run(argv, env=dict(env, REPRO_CACHE_DIR=str(
            self.cache.root)), stdout=subprocess.PIPE, text=True)
        self.walls.append(time.perf_counter() - start)
        lines = proc.stdout.splitlines()
        got = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        self.outcome.attempt(
            got == self.digests, f"rerun process read back {got}, expected "
                                 f"{self.digests}")

    def run_pass(self) -> None:
        """One timed warm pass in this process, then its check."""
        start = time.perf_counter()
        loaded = [self.cache.load(self.key(point)) for point in self.points]
        self.walls.append(time.perf_counter() - start)
        got = {point.op_id: None if stats is None else digest(stats)
               for point, stats in zip(self.points, loaded)}
        self.outcome.attempt(
            got == self.digests, f"read back {got}, expected {self.digests}")


def peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _deadline_passes(seconds: float):
    """Pass indices until ``seconds`` have elapsed (at least one pass)."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        yield index
        index += 1


def measure(points: List[Point], seconds: float, cache_root: Path,
            outcome: Outcome, env: Dict[str, str], rerun_argv: List[str],
            between: Callable[[], None] = lambda: None) -> None:
    """The untraced run: every end-to-end metric but ``setup_s``.

    After the first cold pass stores its results, :data:`WARM_PASSES`
    rerun processes (``rerun_argv``) are paced over the rest of the run;
    ``between`` is called after every cold pass.  Side measurements so
    sample the same spells of host speed as the cold passes.
    """
    loop = ColdLoop(points, outcome)
    per_inst: List[float] = []
    walls: List[float] = []
    cpus: List[float] = []
    kips: List[float] = []
    reader: Optional[ReadBack] = None
    warm: Optional[Paced] = None
    deadline = time.perf_counter() + seconds
    for index in _deadline_passes(seconds):
        runs = loop.run_pass(index)
        if len(runs) == len(points):
            per_inst.extend(run.wall * 1e6 / run.stats.retired
                            for run in runs)
            wall = sum(run.wall for run in runs)
            walls.append(wall)
            cpus.append(sum(run.cpu for run in runs))
            kips.append(sum(run.stats.retired for run in runs) / wall / 1e3)
        if reader is None and len(loop.first) == len(points):
            reader = ReadBack(points, loop.first, cache_root, outcome)
            warm = Paced(lambda: reader.run_in_child(rerun_argv, env),
                         WARM_PASSES, deadline - time.perf_counter())
        if warm is not None:
            warm.catch_up()
        between()
    if not walls or reader is None:
        return
    warm.finish()
    outcome.put("kips", median(kips), "kinst/s", f"n={len(kips)} passes")
    outcome.put_timing("sim_us_per_inst", per_inst, "us")
    outcome.put("sweep_cold_s", median(walls), "s", f"n={len(walls)}")
    outcome.put("sweep_cpu_s", median(cpus), "s", f"n={len(cpus)}")
    outcome.put_timing("sweep_warm_s", reader.walls, "s")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.info["digests"] = loop.digests


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def put_core(outcome: Outcome, stats_list: List[object],
             integrated_stats: List[object]) -> None:
    """The simulated diagnostics of one pass (sums over its points)."""
    cycles = sum(s.cycles for s in stats_list)
    retired = sum(s.retired for s in stats_list)
    outcome.put("core.cycles", cycles, "count")
    outcome.put("core.retired", retired, "count")
    outcome.put("core.ipc", retired / cycles, "fraction")
    outcome.put("core.elided_fraction",
                sum(s.cycles_elided for s in stats_list) / cycles, "fraction")
    for bucket in CPI_BUCKETS:
        outcome.put(f"core.cpi.{bucket}",
                    sum(s.cpi_stack.get(bucket, 0) for s in stats_list)
                    / retired, "fraction")
    int_retired = sum(s.retired for s in integrated_stats)
    outcome.put("integration.rate",
                sum(s.integrated for s in integrated_stats) / int_retired
                if int_retired else 0.0, "fraction")
    outcome.put("integration.mis_per_million",
                sum(s.mis_integrations for s in integrated_stats) * 1e6
                / int_retired if int_retired else 0.0, "count")


def put_stage_layers(outcome: Outcome, totals: Dict[str, List[int]],
                     passes: int, retired_per_pass: int) -> None:
    """Stage, driver and substrate metrics from aggregated spans."""
    insts = retired_per_pass * passes
    root_ns = totals[ROOT_SPAN][1]
    stage_ns = 0
    for stage in STAGES:
        calls, incl, _ = totals.get(f"stages.{stage}", (0, 0, 0))
        stage_ns += incl
        outcome.put(f"stages.{stage}.us_per_inst", incl / 1e3 / insts, "us")
        outcome.put(f"stages.{stage}.calls", calls / passes, "count")
        outcome.put(f"stages.{stage}.self_share", incl / root_ns, "fraction")
    driver_ns = totals[ROOT_SPAN][2]
    outcome.put("pipeline.driver.us_per_inst", driver_ns / 1e3 / insts, "us")
    outcome.put("pipeline.driver.self_share", driver_ns / root_ns,
                "fraction")
    share_sum = (stage_ns + driver_ns) / root_ns
    outcome.attempt(abs(share_sum - 1.0) < 1e-9,
                    f"stage shares plus driver sum to {share_sum!r}, not 1")
    for layer in ("integration.consider", "integration.create_entries",
                  "diva.check_and_commit", "memsys.ifetch", "memsys.load",
                  "memsys.store"):
        calls, incl, _ = totals.get(layer, (0, 0, 0))
        outcome.put(f"{layer}.us_per_call", incl / 1e3 / calls if calls
                    else 0.0, "us")
        outcome.put(f"{layer}.calls", calls / passes, "count")


def put_miss_ratios(outcome: Outcome, processors: List[object]) -> None:
    for level in ("dl1", "l2"):
        hits = sum(getattr(p.mem, level).stats.hits for p in processors)
        misses = sum(getattr(p.mem, level).stats.misses for p in processors)
        outcome.put(f"memsys.{level}.miss_ratio",
                    misses / (hits + misses) if hits + misses else 0.0,
                    "fraction")


class CacheCounter:
    """``ResultCache`` calls and hits, counted by wrapper hooks in shared
    memory so that forked pool children count too."""

    def __init__(self) -> None:
        self._cells = multiprocessing.get_context("fork").Array("q", 3)

    def _bump(self, index: int) -> None:
        with self._cells.get_lock():
            self._cells[index] += 1

    def on_load(self, result) -> None:
        self._bump(0)
        if result is not None:
            self._bump(1)

    def on_store(self, _published) -> None:
        self._bump(2)

    loads = property(lambda self: self._cells[0])
    hits = property(lambda self: self._cells[1])
    stores = property(lambda self: self._cells[2])


def put_cache_layers(outcome: Outcome, recorder: SpanRecorder,
                     counter: CacheCounter, cache_root: Path) -> None:
    from repro.experiments.cache import ResultCache

    calls, incl, _ = recorder.totals.get("cache.load", (0, 0, 0))
    outcome.put("cache.load.us_per_call",
                incl / 1e3 / calls if calls else 0.0, "us")
    outcome.put("cache.load.calls", counter.loads, "count")
    outcome.put("cache.store.calls", counter.stores, "count")
    outcome.put("cache.hit_ratio",
                counter.hits / counter.loads if counter.loads else 0.0,
                "fraction")
    outcome.put("cache.bytes", ResultCache(cache_root).info()["bytes"],
                "count")


def wrap_cache(recorder: SpanRecorder, counter: CacheCounter,
               forks: bool = False) -> None:
    from repro.experiments.cache import ResultCache

    recorder.wrap(ResultCache, "load", "cache.load", counter.on_load, forks)
    recorder.wrap(ResultCache, "store", "cache.store", counter.on_store,
                  forks)


def trace_simulations(points: List[Point], seconds: float,
                      outcome: Outcome, spans_path: Path) -> ColdLoop:
    """Alternate untraced and traced cold passes for ``seconds``: the
    stage and substrate layers, ``trace.overhead`` and the miss ratios.
    Writes the first traced simulation's spans to ``spans_path``."""
    loop = ColdLoop(points, outcome, keep_processors=True)
    recorder = SpanRecorder()
    walls: Dict[bool, List[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    half = 0
    # Untraced, traced, traced, untraced, ...: each side goes first in
    # every other pair, so drift hits both alike.  At least one of each.
    while half < 2 or time.perf_counter() < deadline:
        traced = half % 4 in (1, 2)
        runs = loop.run_pass(half // 2, recorder if traced else None)
        if len(runs) == len(points):
            walls[traced].append(sum(run.wall for run in runs))
        half += 1
    if not walls[True] or not walls[False]:
        return loop
    first = [loop.first[point.op_id] for point in points]
    put_stage_layers(outcome, recorder.totals, len(walls[True]),
                     sum(run.stats.retired for run in first))
    put_miss_ratios(outcome, [run.processor for run in first])
    outcome.put("trace.overhead", median(walls[True]) / median(walls[False]),
                "fraction", f"n={len(walls[True])}+{len(walls[False])}")
    recorder.write(spans_path)
    return loop


def measure_traced(points: List[Point], seconds: float, cache_root: Path,
                   outcome: Outcome, spans_path: Path) -> None:
    """The traced run: every per-layer metric but the setup layers."""
    loop = trace_simulations(points, seconds, outcome, spans_path)
    if len(loop.first) != len(points):
        return
    stats = [loop.first[point.op_id].stats for point in points]
    put_core(outcome, stats, [s for point, s in zip(points, stats)
                              if point.integration_enabled])
    recorder = SpanRecorder()
    counter = CacheCounter()
    wrap_cache(recorder, counter)
    try:
        warm = ReadBack(points, loop.first, cache_root, outcome)
        for _ in range(TRACED_READ_BACKS):
            warm.run_pass()
    finally:
        recorder.restore()
    recorder.flush()
    put_cache_layers(outcome, recorder, counter, cache_root)
    # The runner and its pool are not on this workload's path.
    for name in ("runner.plan_suite_s", "runner.execute_s",
                 "runner.finish_suite_s"):
        outcome.put(name, 0.0, "s")
    outcome.put("backend.pool_utilisation", 0.0, "fraction")
    outcome.info["digests"] = loop.digests
