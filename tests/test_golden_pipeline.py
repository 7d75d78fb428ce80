"""Golden end-to-end regression for the stage-decomposed pipeline.

These exact counter values were recorded from the seed (pre-refactor)
monolithic ``Processor`` on the ``SMOKE_BENCHMARKS`` set at scale 0.2.  The
stage refactor is required to be cycle-identical: any drift in these numbers
means the decomposition changed machine behaviour, not just code structure.
"""

import hashlib
import json

import pytest

from repro.core import MachineConfig, simulate
from repro.experiments.figure4 import EXTENSION_CONFIGS, integration_config_for
from repro.experiments.runner import SMOKE_BENCHMARKS
from repro.integration.config import IntegrationConfig, LispMode
from repro.workloads import build_workload

GOLDEN_SCALE = 0.2

#: Seed-recorded counters: (benchmark, integration config) -> stats.
GOLDEN = {
    ("gzip", "full"): dict(cycles=5315, retired=7774, fetched=8376,
                           issued=7316, integrated_direct=485,
                           integrated_reverse=47, mis_integrations=2,
                           squashed=524),
    ("crafty", "full"): dict(cycles=8455, retired=11812, fetched=13516,
                             issued=10207, integrated_direct=1385,
                             integrated_reverse=483, mis_integrations=5,
                             squashed=1609),
    ("mcf", "full"): dict(cycles=5328, retired=6888, fetched=7784,
                          issued=6842, integrated_direct=135,
                          integrated_reverse=20, mis_integrations=4,
                          squashed=793),
    ("gzip", "none"): dict(cycles=5361, retired=7774, fetched=8230,
                           issued=7825, integrated_direct=0,
                           integrated_reverse=0, mis_integrations=0,
                           squashed=378),
    ("crafty", "none"): dict(cycles=8619, retired=11812, fetched=13247,
                             issued=12092, integrated_direct=0,
                             integrated_reverse=0, mis_integrations=0,
                             squashed=1344),
    ("mcf", "none"): dict(cycles=5317, retired=6888, fetched=7578,
                          issued=6945, integrated_direct=0,
                          integrated_reverse=0, mis_integrations=0,
                          squashed=593),
}

CONFIGS = {
    "full": IntegrationConfig.full(),
    "none": IntegrationConfig.disabled(),
}


def test_golden_covers_smoke_benchmarks():
    assert {bench for bench, _ in GOLDEN} == set(SMOKE_BENCHMARKS)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("bench_name", sorted(SMOKE_BENCHMARKS))
def test_stage_pipeline_matches_seed_goldens(bench_name, config_name):
    """The refactored Processor is cycle-identical to the seed monolith."""
    config = MachineConfig().with_integration(CONFIGS[config_name])
    program = build_workload(bench_name, scale=GOLDEN_SCALE)
    stats = simulate(program, config, name=bench_name)
    expected = GOLDEN[(bench_name, config_name)]
    observed = {name: getattr(stats, name) for name in expected}
    assert observed == expected


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("bench_name", sorted(SMOKE_BENCHMARKS))
def test_run_suite_baseline_variant_matches_seed_goldens(bench_name,
                                                         config_name):
    """``run_suite(variant="baseline")`` is the same bit-exact machine: the
    builder/variant subsystem must not perturb the default path (PR-4
    acceptance criterion)."""
    from repro.experiments import runner

    config = MachineConfig().with_integration(CONFIGS[config_name])
    results = runner.run_suite([bench_name], {config_name: config},
                               scale=GOLDEN_SCALE, jobs=1, shards=1,
                               use_cache=False, variant="baseline")
    stats = results[config_name][bench_name]
    expected = GOLDEN[(bench_name, config_name)]
    observed = {name: getattr(stats, name) for name in expected}
    assert observed == expected


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("bench_name", sorted(SMOKE_BENCHMARKS))
def test_shards1_engine_matches_seed_goldens(bench_name, config_name):
    """``shards=1`` through the experiment engine is the same bit-exact
    machine: the checkpointed-slice subsystem must not perturb the default
    path (PR-3 acceptance criterion)."""
    from repro.experiments import runner

    config = MachineConfig().with_integration(CONFIGS[config_name])
    results = runner.run_suite([bench_name], {config_name: config},
                               scale=GOLDEN_SCALE, jobs=1, shards=1,
                               use_cache=False)
    stats = results[config_name][bench_name]
    expected = GOLDEN[(bench_name, config_name)]
    observed = {name: getattr(stats, name) for name in expected}
    assert observed == expected


# ----------------------------------------------------------------------
# Whole-SimStats digests
# ----------------------------------------------------------------------
#: sha256 of ``json.dumps(SimStats.to_dict(), sort_keys=True)`` for every
#: smoke benchmark at ``GOLDEN_SCALE`` under no integration and each
#: Figure 4 extension with a realistic and an oracle LISP.  Unlike the
#: counters above, these pin every field -- the Figure 5 breakdowns and
#: the CPI stack included -- so any drift in machine behaviour fails here.
#: The one exception is ``cycles_elided``, a driver-mechanics counter (the
#: cycles the run loop jumped rather than stepped) that is zero when every
#: cycle is stepped with ``Processor.step()``.  Regenerate (only for an
#: intended behaviour change) by printing ``stats_digest(simulate(...))``
#: for each key.
DIGESTS = {
    ("gzip", "none"):
        "39a739b41b1092021b4d665e773e66d7438b531adb9024997e97bf46b0c9c565",
    ("gzip", "squash/realistic"):
        "5d060d2143260a1db429ea12a79d647c8bfe22881544b2c1555c001ee864f471",
    ("gzip", "squash/oracle"):
        "8a5273f3bad281d84c471f8ebec77a8e18f201a6c077d23a2a2f51c22f7f16fe",
    ("gzip", "+general/realistic"):
        "aec7927eef328a7673ee46b082b740eda40fcce497b3e9d67f35e8351e5be5e9",
    ("gzip", "+general/oracle"):
        "7dfd9a0e92da1cab01749c74e08e6cc8d3ad388c9a5eb4128a8e3862ef3c3566",
    ("gzip", "+opcode/realistic"):
        "4dd4df544990292d912413e9bc3cfe137da57da5d60217530507fe672a89a05d",
    ("gzip", "+opcode/oracle"):
        "cfbbb5f89f72f72505ed5b869adf5c8199c2aebebe3bf01fa50d0206b03741de",
    ("gzip", "+reverse/realistic"):
        "bfe7edb80af416abe4f0bc4a1d782e373008234f84ae651fca5e8da95f3c723c",
    ("gzip", "+reverse/oracle"):
        "84b4feebe6fea4d3b22560f5b3bcd66477a961ba907d146932f74a1be77b7396",
    ("crafty", "none"):
        "d4e4d8c767b95b9601cd4d14c9cdec61ef0aa373a2120eca362502f6d1ca4669",
    ("crafty", "squash/realistic"):
        "0cd6ef82ad1d9cdd26391370aa308f197aca69e7d2df74376cbefe5e03940d6f",
    ("crafty", "squash/oracle"):
        "85bff5a0bc939de8b92cf42bed2784bf442627835d4daa087cd07f139b0cba65",
    ("crafty", "+general/realistic"):
        "382b578345a699e61aea7825095af6878433d7f27086ac5c37c9f518e738fe65",
    ("crafty", "+general/oracle"):
        "c960c0d6036db54201547d7e65f8164ef4e8250aef175c96a398c653fb74b8f3",
    ("crafty", "+opcode/realistic"):
        "a9401944e3ffc26cbd8b29d953a2572dd36e0b58ce5ad3b50b6fdaacaae21ca3",
    ("crafty", "+opcode/oracle"):
        "0fcc8a0619ef6e12f7f9a98073aa452b137272af6c6cc78dcb49e531fe7797bf",
    ("crafty", "+reverse/realistic"):
        "c06d9668e91ed44699cc61645f67bddf38374eb73888da0c3f127d9c89a2fa07",
    ("crafty", "+reverse/oracle"):
        "37d3665f920df6e71f89210ba82d93a3ced9daf7c52ecd74e85fb60a868661fb",
    ("mcf", "none"):
        "e88c67842c1a24ac6fef9f2165d3d37e2651c80baec8a45cf38a6f377ecc663a",
    ("mcf", "squash/realistic"):
        "f6cc46ce4606a1490cd1ee8981f6ae344464043b8dbabb5d66cd038e5c85f266",
    ("mcf", "squash/oracle"):
        "f594f7f777df706e2d8fce028138b463ddbd2dbc40c7e307dc7b334ff4f133ed",
    ("mcf", "+general/realistic"):
        "32766d4c83d4917cb52fc7e48b85ffb0566198b4794f1c9d7890236264fe6183",
    ("mcf", "+general/oracle"):
        "9cf1dab76d3969f53a9b917a0c29fadbcd7994f11acf8b7f98e1d09476147f99",
    ("mcf", "+opcode/realistic"):
        "9f55bfe12c48252b6cc0e787522611f93c2ce034bc3d4350918d83dd59d82834",
    ("mcf", "+opcode/oracle"):
        "4e4175d2ec23fe0bd2315b90f9a78cc9dff0122b40b89bb3cfc41450f6749e76",
    ("mcf", "+reverse/realistic"):
        "c150e8c5580bbb7b2e95a7bdf4bb8a392f781912872dd74fe0cb529ff993f15f",
    ("mcf", "+reverse/oracle"):
        "f87ae42db320b2503d820683d92e089352b749323cb37639cd9a91b3612d6bba",
}


def stats_digest(stats) -> str:
    fields = stats.to_dict()
    del fields["cycles_elided"]
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _digest_config(name: str) -> IntegrationConfig:
    if name == "none":
        return IntegrationConfig.disabled()
    extension, lisp = name.split("/")
    return integration_config_for(extension, LispMode(lisp))


def test_digests_cover_figure4_matrix():
    names = {"none"} | {f"{ext}/{lisp.value}" for ext in EXTENSION_CONFIGS
                        for lisp in (LispMode.REALISTIC, LispMode.ORACLE)}
    assert set(DIGESTS) == {(bench, name) for bench in SMOKE_BENCHMARKS
                            for name in names}


@pytest.mark.parametrize("bench_name,config_name", sorted(DIGESTS))
def test_simstats_digest_matches_golden(bench_name, config_name):
    """Every ``SimStats`` field is bit-identical to the recorded run."""
    config = MachineConfig().with_integration(_digest_config(config_name))
    program = build_workload(bench_name, scale=GOLDEN_SCALE)
    stats = simulate(program, config, name=bench_name)
    assert stats_digest(stats) == DIGESTS[(bench_name, config_name)]
