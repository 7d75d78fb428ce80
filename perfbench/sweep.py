"""``fig4_sweep``: ``repro figures --figures 4`` as users run it.

Untraced, each cycle starts the CLI as a child process against a fresh,
empty ``REPRO_CACHE_DIR`` (the cold pass: 27 simulations in a two-process
pool), then reruns it against the filled cache (warm passes: process start,
``code_version`` hashing and 27 disk loads).  Checks: every run exits 0;
every warm report is byte-identical to the cold one; the provenance line
says 27 simulations cold and 0 warm; and the same sweep run in this process
from the filled cache simulates nothing, renders the identical report and
retires exactly the functional emulator's instruction count at every point.

Traced, the same sweep runs in this process with the runner, pool backend
and result cache wrapped, cold and then warm; a warm CLI run must print the
in-process report.  The stage layers come from direct traced simulations of
the sweep's programs under the baseline and ``+reverse`` configurations.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from perfbench import inputs, simloop
from perfbench.inputs import Point
from perfbench.spans import SpanRecorder
from perfbench.summary import Outcome, median

#: Warm passes after each cold pass.
WARM_PER_CYCLE = 10
#: The ``repro figures`` provenance line.
_SIMULATIONS = re.compile(r"^(\d+) simulations\b")


class CliRun(NamedTuple):
    wall: float
    cpu: float           # this child and its pool children
    returncode: int
    report: str          # stdout before the provenance line, less the
                         # blank lines separating them
    simulations: Optional[int]
    stderr: str


def run_cli(argv: List[str], env: Mapping[str, str], cwd: Path) -> CliRun:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(argv, env=dict(env), cwd=str(cwd),
                          capture_output=True, text=True, timeout=150)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = ((after.ru_utime + after.ru_stime)
           - (before.ru_utime + before.ru_stime))
    lines = proc.stdout.splitlines(keepends=True)
    footer = lines[-1] if lines else ""
    match = _SIMULATIONS.match(footer)
    return CliRun(wall, cpu, proc.returncode,
                  "".join(lines[:-1]).rstrip("\n"),
                  int(match.group(1)) if match else None, proc.stderr)


def expected_retired(benchmarks: List[str]) -> Dict[str, int]:
    from repro.functional.emulator import run_program
    from repro.workloads import build_workload

    return {name: run_program(build_workload(
        name, scale=inputs.SWEEP_SCALE)).instructions
        for name in benchmarks}


def run_in_process(benchmarks: List[str], cache_dir: Path, jobs: int):
    """``figure4.run`` in this process against ``cache_dir``; returns
    ``(result, report text, simulations run)``."""
    from repro.experiments import figure4, runner

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    runner.clear_cache()
    before = runner.telemetry.simulations
    result = figure4.run(benchmarks=benchmarks, scale=inputs.SWEEP_SCALE,
                         jobs=jobs)
    return (result, figure4.report(result).rstrip("\n"),
            runner.telemetry.simulations - before)


def sweep_results(result) -> List[object]:
    """Every ``SimStats`` of a Figure 4 result, baseline first."""
    out = [result.baseline[name] for name in result.benchmarks]
    for by_lisp in result.results.values():
        for runs in by_lisp.values():
            out.extend(runs[name] for name in result.benchmarks)
    return out


def wrong_retired(result, retired: Dict[str, int]) -> List[str]:
    """Points whose retired count differs from the functional emulator's."""
    return [f"{stats.benchmark}/{stats.config_name} retired {stats.retired}"
            f", the functional emulator {retired[stats.benchmark]}"
            for stats in sweep_results(result)
            if stats.retired != retired[stats.benchmark]]


class Sweep:
    """One workload instance: its CLI command and expected outputs."""

    def __init__(self, seed: int, root: Path, env: Mapping[str, str],
                 work_dir: Path, outcome: Outcome):
        _, self.benchmarks = inputs.sweep_benchmarks(seed)
        self.argv = [sys.executable, "-m", "repro", *inputs.sweep_argv(seed)]
        self.root = root
        self.env = dict(env)
        self.work_dir = work_dir
        self.outcome = outcome
        self.retired = expected_retired(self.benchmarks)
        self.points = 9 * len(self.benchmarks)
        self.instructions = 9 * sum(self.retired.values())
        self._cycle = 0

    def fresh_cache(self) -> Path:
        self._cycle += 1
        path = self.work_dir / f"sweep-cache-{self._cycle}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def cli(self, cache_dir: Path, cold: bool,
            report: Optional[str] = None) -> Optional[CliRun]:
        """One CLI run, checked: exit code, simulation count and, given a
        reference ``report``, a byte-identical report."""
        env = dict(self.env, REPRO_CACHE_DIR=str(cache_dir))
        run = run_cli(self.argv, env, self.root)
        kind = "cold" if cold else "warm"
        want = self.points if cold else 0
        problem = None
        if run.returncode != 0:
            problem = f"exited {run.returncode}: {run.stderr[-500:]}"
        elif run.simulations != want:
            problem = f"reported {run.simulations} simulations, not {want}"
        elif report is not None and run.report != report:
            problem = "printed a report that differs from the reference"
        ok = self.outcome.attempt(problem is None,
                                  f"{kind} CLI run {problem}")
        return run if ok else None

    def check_in_process(self, cache_dir: Path, report: str) -> None:
        """One operation: the same sweep in this process from the filled
        cache simulates nothing, renders ``report`` and retires the
        emulator's instruction counts."""
        result, text, simulated = run_in_process(self.benchmarks, cache_dir,
                                                 jobs=1)
        problems = wrong_retired(result, self.retired)
        if simulated:
            problems.append(f"simulated {simulated} points the cold CLI run "
                            f"left uncached")
        if text != report:
            problems.append("figure4.report differs from the CLI report")
        self.outcome.attempt(not problems, f"in-process rerun: {problems}")


def measure(seed: int, seconds: float, root: Path, env: Mapping[str, str],
            work_dir: Path, outcome: Outcome,
            between: Callable[[], None] = lambda: None) -> None:
    """The untraced run: every end-to-end metric but ``setup_s``.

    Cycles of one cold pass and :data:`WARM_PER_CYCLE` warm passes repeat
    while another whole cycle fits before the deadline; warm passes fill
    the rest.  ``between`` is called after every pass.
    """
    sweep = Sweep(seed, root, env, work_dir, outcome)
    deadline = time.perf_counter() + seconds
    cold_walls: List[float] = []
    cold_cpus: List[float] = []
    warm_walls: List[float] = []
    while True:
        cycle_start = time.perf_counter()
        cache_dir = sweep.fresh_cache()
        cold = sweep.cli(cache_dir, cold=True)
        if cold is None:
            shutil.rmtree(cache_dir, ignore_errors=True)
            break
        cold_walls.append(cold.wall)
        cold_cpus.append(cold.cpu)
        sweep.check_in_process(cache_dir, cold.report)
        between()
        count = 0
        warm: Optional[CliRun] = cold
        while warm is not None and count < WARM_PER_CYCLE:
            warm = sweep.cli(cache_dir, cold=False, report=cold.report)
            if warm is not None:
                warm_walls.append(warm.wall)
                count += 1
            between()
        cycle = time.perf_counter() - cycle_start
        last = warm is None or time.perf_counter() + cycle > deadline
        while warm is not None and last and time.perf_counter() < deadline:
            warm = sweep.cli(cache_dir, cold=False, report=cold.report)
            if warm is not None:
                warm_walls.append(warm.wall)
            between()
        shutil.rmtree(cache_dir, ignore_errors=True)
        if last:
            break
    if not cold_walls or not warm_walls:
        return
    outcome.put("kips", median([sweep.instructions / wall / 1e3
                                for wall in cold_walls]), "kinst/s",
                f"n={len(cold_walls)} cold passes")
    outcome.put_timing("sim_us_per_inst",
                       [wall * 1e6 / sweep.instructions
                        for wall in cold_walls], "us")
    outcome.put("sweep_cold_s", median(cold_walls), "s",
                f"n={len(cold_walls)}")
    outcome.put("sweep_cpu_s", median(cold_cpus), "s",
                f"n={len(cold_cpus)}")
    outcome.put_timing("sweep_warm_s", warm_walls, "s")
    outcome.put("peak_rss_mb", simloop.peak_rss_mb(), "MB")


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def sweep_points(benchmarks: List[str]) -> List[Point]:
    """The sweep's programs under its baseline and ``+reverse`` configs."""
    from repro.core import MachineConfig
    from repro.experiments import figure4
    from repro.integration.config import IntegrationConfig, LispMode
    from repro.workloads import build_workload

    configs = (
        ("+reverse/realistic", figure4.integration_config_for(
            "+reverse", LispMode.REALISTIC)),
        ("baseline", IntegrationConfig.disabled()),
    )
    points = []
    for name in benchmarks:
        program = build_workload(name, scale=inputs.SWEEP_SCALE)
        for config_name, integration in configs:
            points.append(Point(name, config_name, program,
                                MachineConfig().with_integration(integration),
                                inputs.SWEEP_SCALE))
    return points


def _traced_sweep(sweep: Sweep, recorder: SpanRecorder,
                  counter: simloop.CacheCounter, outcome: Outcome
                  ) -> Tuple[Dict[str, List[int]], float, object, Path]:
    """Cold then warm in-process sweep with the sweep layers wrapped."""
    from repro.distrib.backend import PoolBackend
    from repro.experiments import runner

    recorder.wrap(runner, "plan_suite", "runner.plan_suite")
    recorder.wrap(runner, "finish_suite", "runner.finish_suite")
    recorder.wrap(PoolBackend, "execute", "runner.execute")
    simloop.wrap_cache(recorder, counter, forks=True)
    cache_dir = sweep.fresh_cache()
    try:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        result, report, simulated = run_in_process(
            sweep.benchmarks, cache_dir, jobs=inputs.SWEEP_JOBS)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cold = recorder.flush()
        problems = wrong_retired(result, sweep.retired)
        if simulated != sweep.points:
            problems.append(f"simulated {simulated} points, not "
                            f"{sweep.points}")
        outcome.attempt(not problems, f"in-process cold sweep: {problems}")
        _, warm_report, simulated = run_in_process(
            sweep.benchmarks, cache_dir, jobs=inputs.SWEEP_JOBS)
        outcome.attempt(
            simulated == 0 and warm_report == report,
            f"in-process warm sweep simulated {simulated} points or "
            f"rendered a report that differs from the cold one")
    finally:
        recorder.restore()
    recorder.flush()
    sweep.cli(cache_dir, cold=False, report=report)
    child_cpu = ((after.ru_utime + after.ru_stime)
                 - (before.ru_utime + before.ru_stime))
    return cold, child_cpu, result, cache_dir


def measure_traced(seed: int, seconds: float, root: Path,
                   env: Mapping[str, str], work_dir: Path, outcome: Outcome,
                   spans_path: Path) -> None:
    """The traced run: every per-layer metric but the setup layers."""
    start = time.perf_counter()
    sweep = Sweep(seed, root, env, work_dir, outcome)
    recorder = SpanRecorder()
    counter = simloop.CacheCounter()
    cold, child_cpu, result, cache_dir = _traced_sweep(
        sweep, recorder, counter, outcome)

    for name, span in (("runner.plan_suite_s", "runner.plan_suite"),
                       ("runner.execute_s", "runner.execute"),
                       ("runner.finish_suite_s", "runner.finish_suite")):
        outcome.put(name, cold.get(span, (0, 0, 0))[1] / 1e9, "s")
    execute_s = cold.get("runner.execute", (0, 0, 0))[1] / 1e9
    outcome.put("backend.pool_utilisation",
                child_cpu / (inputs.SWEEP_JOBS * execute_s)
                if execute_s else 0.0, "fraction")
    simloop.put_cache_layers(outcome, recorder, counter, cache_dir)
    shutil.rmtree(cache_dir, ignore_errors=True)

    # Stage layers: direct simulations of the sweep's programs.
    remaining = max(0.0, seconds - (time.perf_counter() - start))
    simloop.trace_simulations(sweep_points(sweep.benchmarks), remaining,
                              outcome, spans_path)
    stats = sweep_results(result)
    simloop.put_core(outcome, stats, stats[len(sweep.benchmarks):])
    outcome.info["digests"] = {
        f"{s.benchmark}/{s.config_name}": simloop.digest(s) for s in stats}
