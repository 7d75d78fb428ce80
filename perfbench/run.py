"""Run one benchmark workload and print its result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload hotpath --seed 0 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing; ``--trace 1`` is the separate traced run that gives the
per-layer metrics.  Both check every output.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report
(sample counts, tail percentiles, digests, failures) and, for traced runs,
the gzipped spans of the first traced simulation are written under
``.perfbench/``.  The exit code is 0 when every check passed, 1 when one
failed and 2 when the simulator sources are missing.

The environment is pinned: every ``REPRO_*`` variable is cleared and
``REPRO_CACHE_DIR`` points at a temporary directory under ``.perfbench/``
that is deleted afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("hotpath", "fig4_sweep")
#: Fresh-process set-ups timed per run for ``setup_s``, paced over the
#: run (after one untimed probe that leaves the bytecode caches warm).
SETUP_PROBES = 10


def pin_environment(work_dir: Path) -> Dict[str, str]:
    """Clear every ``REPRO_*`` knob in this process and return the
    environment for child processes (same, plus ``PYTHONPATH``)."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(work_dir / "cache")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment_info() -> Dict[str, object]:
    info: Dict[str, object] = {
        "python": platform.python_version(),
        "kernel_so_present": any(SRC.glob("repro/core/_kernel*.so")),
    }
    try:
        from repro.core import kernel
    except ImportError:
        info["kernel_backend"] = "none"
    else:
        info["kernel_backend"] = kernel.backend_name()
    return info


def build_inputs(workload: str, seed: int):
    """The workload's programs (what ``setup_s`` and ``workloads.build_s``
    time): points for the simulation workloads, programs for the sweep."""
    from perfbench import inputs

    if workload == "hotpath":
        return inputs.hotpath_points(seed)
    from repro.workloads import build_workload

    _, benchmarks = inputs.sweep_benchmarks(seed)
    return [build_workload(name, scale=inputs.SWEEP_SCALE)
            for name in benchmarks]


def setup_probe(workload: str, seed: int) -> None:
    """The set-up a fresh process pays: imports, programs, first hash."""
    import repro.core  # noqa: F401
    import repro.experiments.runner  # noqa: F401
    from repro.experiments.cache import code_version

    if workload == "fig4_sweep":
        import repro.__main__  # noqa: F401
        import repro.experiments.figure4  # noqa: F401
    build_inputs(workload, seed)
    code_version()


def read_back(seed: int) -> None:
    """A rerun of ``hotpath``: print the digest of every point's result in
    the cache (``null`` for a miss), one JSON object."""
    from perfbench import inputs, simloop
    from repro.experiments.cache import ResultCache, result_key

    cache = ResultCache()
    found = {}
    for point in inputs.hotpath_keys(seed):
        stats = cache.load(result_key(point.name, point.scale, point.config))
        found[point.op_id] = None if stats is None else simloop.digest(stats)
    print(json.dumps(found))


class SetupProbes:
    """Times :func:`setup_probe` in fresh processes (``argv``)."""

    def __init__(self, argv: List[str], env: Dict[str, str]):
        self.argv = argv
        self.env = env
        self.walls: List[float] = []
        self.probe()            # leaves the bytecode caches warm
        self.walls.clear()

    def probe(self) -> None:
        # No timeout: with one, subprocess polls for the exit with sleeps
        # of up to 50 ms, which would quantize the measured time.
        start = time.perf_counter()
        subprocess.run(self.argv, env=self.env, cwd=str(ROOT), check=True,
                       stdout=subprocess.DEVNULL)
        self.walls.append(time.perf_counter() - start)


def self_argv(args: argparse.Namespace, mode: str) -> List[str]:
    """This script, for the same workload and seed, in a child ``mode``."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), mode]


def measure_untraced(args: argparse.Namespace, work_dir: Path,
                     env: Dict[str, str]):
    """Every end-to-end metric; the set-up probes are paced over the run."""
    from perfbench import inputs, simloop, sweep
    from perfbench.summary import Outcome, Paced, median

    outcome = Outcome()
    built = build_inputs(args.workload, args.seed)
    setup = SetupProbes(self_argv(args, "--setup-probe"), env)
    paced = Paced(setup.probe, SETUP_PROBES, args.seconds)
    if args.workload == "fig4_sweep":
        outcome.info["inputs"] = inputs.sweep_argv(args.seed)
        sweep.measure(args.seed, args.seconds, ROOT, env, work_dir, outcome,
                      paced.catch_up)
    else:
        outcome.info["inputs"] = [point.op_id for point in built]
        simloop.measure(built, args.seconds, work_dir / "cache", outcome,
                        env, self_argv(args, "--read-back"), paced.catch_up)
    paced.finish()
    outcome.put("setup_s", median(setup.walls), "s", f"n={len(setup.walls)}")
    return outcome


def measure_traced(args: argparse.Namespace, work_dir: Path,
                   env: Dict[str, str]):
    """Every per-layer metric."""
    from perfbench import inputs, simloop, sweep
    from perfbench.summary import Outcome, median
    from repro.experiments.cache import code_version

    outcome = Outcome()
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    start = time.perf_counter()
    code_version()
    outcome.put("cache.code_version_s", time.perf_counter() - start, "s")
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        built = build_inputs(args.workload, args.seed)
        builds.append(time.perf_counter() - start)
    outcome.put("workloads.build_s", median(builds), "s", "n=3")
    if args.workload == "fig4_sweep":
        outcome.info["inputs"] = inputs.sweep_argv(args.seed)
        sweep.measure_traced(args.seed, args.seconds, ROOT, env, work_dir,
                             outcome, spans_path)
    else:
        outcome.info["inputs"] = [point.op_id for point in built]
        simloop.measure_traced(built, args.seconds, work_dir / "cache",
                               outcome, spans_path)
    outcome.put("error_rate", outcome.failed / max(1, outcome.attempted),
                "fraction", f"{outcome.failed} failed of {outcome.attempted}")
    return outcome


def report(args: argparse.Namespace, outcome, names: List[str]) -> Dict:
    """Print the human-readable table, write the full report, and return
    the result line."""
    from perfbench import catalogue

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in outcome.info.items():
        if key != "digests":
            print(f"  {key}: {value}")
    for name in names:
        if name not in outcome.metrics:
            outcome.attempt(False, f"metric {name} was not measured")
            continue
        value, unit = outcome.metrics[name]
        samples = outcome.samples.get(name, "")
        layer = catalogue.PER_LAYER.get(name)
        moves = f"  -> {layer.moves}" if layer else ""
        print(f"  {name:34s} {value:14.6g} {unit:8s} {samples}{moves}")
    print(f"  error_rate {outcome.failed}/{outcome.attempted}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    if args.trace:
        print("  not measured: " + "; ".join(
            f"{layer} ({why})" for layer, why in
            catalogue.UNMEASURED.items()))
    line = outcome.result_line([n for n in names if n in outcome.metrics])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    full = dict(line, samples=outcome.samples, failures=outcome.failures,
                info=outcome.info)
    path = OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                      f"trace{args.trace}.json")
    path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    return line


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the registered "
                             "programs (default: 0)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measurement time (default: 55)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced per-layer run (default: 0)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--read-back", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}; nothing to "
              f"measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.read_back:
        read_back(args.seed)
        return 0

    from perfbench import catalogue

    work_dir = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        env = pin_environment(work_dir)
        outcome = (measure_traced if args.trace else measure_untraced)(
            args, work_dir, env)
        outcome.info.update(environment_info())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    names = list(catalogue.PER_LAYER if args.trace
                 else catalogue.END_TO_END)
    line = report(args, outcome, names)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
