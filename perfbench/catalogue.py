"""What every benchmark metric means, and which metric each layer moves.

``BENCHMARK.json`` carries only names, units, directions and bounds; this
module holds the definitions behind them, and the run prints them next to
the numbers.  The self-tests hold the two in step.

Every workload is a set of *points* (simulations).  A *pass* runs every
point once.  A *cold* pass simulates every point; a *warm* pass is a
user's rerun: a fresh process that answers every point from the filled
result cache.

* ``hotpath`` -- six direct ``Processor`` runs per cold pass; a warm pass
  is ``run.py --read-back``, which imports the simulator, hashes the code
  version and loads the six results through ``ResultCache.load``;
* ``fig4_sweep`` -- one ``repro figures`` child process per pass, 27
  simulations in a two-process pool when cold, 27 disk loads when warm.
  The simulations run inside pool children, so per-simulation host time
  is not visible from outside: its ``sim_us_per_inst_*`` samples are whole
  cold passes (wall time per simulated instruction).

All times are host wall time unless a definition says otherwise.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

#: The end-to-end metrics, reported by every untraced run.
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    # name: (unit, better, definition)
    "kips": ("kinst/s", "higher",
             "retired kilo-instructions simulated per host second; the "
             "median over cold passes of (instructions / pass wall time)"),
    "sim_us_per_inst_p50": ("us", "lower",
                            "median host microseconds per retired "
                            "instruction, one sample per simulation"),
    "sim_us_per_inst_tail": ("us", "lower",
                             "highest percentile of the same samples with "
                             "at least 10 samples beyond it, or the median "
                             "when that percentile would fall below it"),
    "sweep_cold_s": ("s", "lower",
                     "median wall seconds of one cold pass"),
    "sweep_cpu_s": ("s", "lower",
                    "median CPU seconds of one cold pass, child processes "
                    "included"),
    "sweep_warm_s_p50": ("s", "lower",
                         "median wall seconds of one warm pass"),
    "sweep_warm_s_tail": ("s", "lower",
                          "highest percentile of the warm-pass samples with "
                          "at least 10 samples beyond it, or the median "
                          "when that percentile would fall below it"),
    "setup_s": ("s", "lower",
                "median, over fresh processes, of importing the simulator, "
                "building the workload's programs and the first "
                "code_version() hash"),
    "peak_rss_mb": ("MB", "lower",
                    "peak resident set of this process or any child"),
}


class Layer(NamedTuple):
    unit: str
    better: str
    definition: str
    #: End-to-end metrics (and workloads) this metric should move.
    moves: str


_STAGE_MOVES = ("kips and sim_us_per_inst_* on hotpath (rename+integrate "
                "and commit+DIVA dominate) and sweep_cold_s on fig4_sweep")
_STAGES = {
    "fetch": "FrontEnd.tick",
    "rename": "RenameIntegrate.tick (integration calls included)",
    "issue": "IssueExecute.tick (data-side memsys calls included)",
    "writeback": "IssueExecute.writeback",
    "commit": "CommitDiva.tick (DIVA and store calls included)",
}


def _stage_layers() -> Dict[str, Layer]:
    out: Dict[str, Layer] = {}
    for stage, where in _STAGES.items():
        out[f"stages.{stage}.us_per_inst"] = Layer(
            "us", "lower", f"host us per retired instruction in {where}",
            _STAGE_MOVES)
        out[f"stages.{stage}.calls"] = Layer(
            "count", "lower", f"calls of {where} per traced pass",
            _STAGE_MOVES)
        out[f"stages.{stage}.self_share"] = Layer(
            "fraction", "lower",
            f"share of simulate time spent in {where}; the five stage "
            f"shares plus pipeline.driver.self_share sum to 1",
            _STAGE_MOVES)
    return out


def _call_layer(name: str, what: str, moves: str) -> Dict[str, Layer]:
    return {
        f"{name}.us_per_call": Layer("us", "lower",
                                     f"host us per call of {what}", moves),
        f"{name}.calls": Layer("count", "lower",
                               f"calls of {what} per traced pass", moves),
    }


_MEMSYS_MOVES = "kips on hotpath"
_SWEEP_MOVES = "sweep_cold_s on fig4_sweep; sweep_cpu_s stays flat"
_WARM_MOVES = "sweep_warm_s_* on every workload"

#: The per-layer metrics, reported by every traced run.  A layer the
#: workload never enters reads 0 (with its ``.calls`` at 0).
PER_LAYER: Dict[str, Layer] = {
    **_stage_layers(),
    "pipeline.driver.us_per_inst": Layer(
        "us", "lower",
        "simulate time outside the five stages (clock, elision, stall "
        "accounting, machine construction) per retired instruction",
        "kips of memory-bound programs (the clocking/driver change); "
        "nearly flat on hotpath, where ~15% of cycles are jumped"),
    "pipeline.driver.self_share": Layer(
        "fraction", "lower", "share of simulate time outside the stages",
        "as pipeline.driver.us_per_inst"),
    "core.elided_fraction": Layer(
        "fraction", "higher", "simulated cycles the pipeline driver jumped",
        "kips of memory-bound programs"),
    **_call_layer("integration.consider", "IntegrationLogic.consider",
                  "kips on hotpath, on the full points only"),
    **_call_layer("integration.create_entries",
                  "IntegrationLogic.create_entries",
                  "kips on hotpath, on the full points only"),
    "integration.rate": Layer(
        "fraction", "higher",
        "integrated / retired over the points with integration enabled",
        "none (simulated count; a change here changes the model)"),
    "integration.mis_per_million": Layer(
        "count", "lower",
        "mis-integrations per million retired instructions, same points",
        "none (simulated count)"),
    **_call_layer("diva.check_and_commit", "DivaChecker.check_and_commit",
                  "kips on hotpath"),
    **_call_layer("memsys.ifetch", "MemoryHierarchy.ifetch", _MEMSYS_MOVES),
    **_call_layer("memsys.load", "MemoryHierarchy.load", _MEMSYS_MOVES),
    **_call_layer("memsys.store", "MemoryHierarchy.store", _MEMSYS_MOVES),
    "memsys.dl1.miss_ratio": Layer(
        "fraction", "lower", "DL1 misses / accesses over one pass",
        "none (simulated count)"),
    "memsys.l2.miss_ratio": Layer(
        "fraction", "lower", "L2 misses / accesses over one pass",
        "none (simulated count)"),
    "core.cycles": Layer("count", "lower", "simulated cycles of one pass",
                         "none (bit-identity diagnostic)"),
    "core.retired": Layer("count", "higher",
                          "retired instructions of one pass",
                          "none (bit-identity diagnostic)"),
    "core.ipc": Layer("fraction", "higher", "retired / cycles of one pass",
                      "none (bit-identity diagnostic)"),
    **{f"core.cpi.{bucket}": Layer(
        "fraction", "lower",
        f"cycles blamed on the {bucket} CPI bucket per retired instruction",
        "none (bit-identity diagnostic)")
       for bucket in ("retired", "frontend_empty", "rename_stall",
                      "waiting_operands", "memory", "integration_replay",
                      "squash_recovery")},
    "workloads.build_s": Layer(
        "s", "lower", "seconds to build the workload's programs",
        "setup_s"),
    "cache.code_version_s": Layer(
        "s", "lower", "seconds of the first code_version() hash",
        "setup_s and sweep_warm_s_*"),
    "runner.plan_suite_s": Layer(
        "s", "lower", "seconds in runner.plan_suite per cold sweep",
        _SWEEP_MOVES),
    "runner.execute_s": Layer(
        "s", "lower", "seconds in PoolBackend.execute per cold sweep",
        _SWEEP_MOVES),
    "runner.finish_suite_s": Layer(
        "s", "lower", "seconds in runner.finish_suite per cold sweep",
        _SWEEP_MOVES),
    "backend.pool_utilisation": Layer(
        "fraction", "higher",
        "pool children's CPU / (jobs x execute wall time)", _SWEEP_MOVES),
    "cache.load.us_per_call": Layer(
        "us", "lower", "host us per ResultCache.load in this process",
        _WARM_MOVES),
    "cache.load.calls": Layer(
        "count", "lower",
        "ResultCache.load calls of the traced run's cache work (fig4_sweep: "
        "one cold and one warm in-process sweep; otherwise 240 in-process "
        "read-backs), pool children included", _WARM_MOVES),
    "cache.store.calls": Layer(
        "count", "lower", "ResultCache.store calls of the same work",
        "sweep_cold_s on fig4_sweep"),
    "cache.hit_ratio": Layer(
        "fraction", "higher", "ResultCache.load hits / calls",
        _WARM_MOVES),
    "cache.bytes": Layer("count", "lower",
                         "bytes of result entries on disk after a cold pass",
                         _WARM_MOVES),
    "trace.overhead": Layer(
        "fraction", "lower",
        "traced wall / untraced wall of the same simulations",
        "none (cost of the measurement itself)"),
    "error_rate": Layer(
        "fraction", "lower", "failed / attempted operations; 0 when correct",
        "every metric: a failed operation fails the run"),
}

#: Layers this benchmark deliberately does not measure, and why.
UNMEASURED: Dict[str, str] = {
    "experiments.sharding": "the benchmark runs unsharded, the default",
    "distrib.queue / distrib.worker": "fleet paths; the pool is the "
                                      "backend users run on one machine",
    "reliability": "fault injection and retries are off by default",
    "obs": "pipeline tracing (REPRO_TRACE) is off by default",
    "lint": "a static analyser, not on any simulation path",
}
