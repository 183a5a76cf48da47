"""Golden mission outputs: short missions must reproduce pinned bytes.

Each ``GOLDEN`` case runs one trial through ``bench.run_trial`` at a 120 s
simulated budget and compares the sha256 of its deterministic artifacts,
``metrics.json`` and ``detections.jsonl``, with digests pinned here; each
``BENCHMARK_WORKLOADS`` case runs one of the benchmark's missions at its
own, longer budget and compares ``metrics.json``.  A
change that is meant to be a pure refactor or speed-up must keep every
digest; a change that alters behaviour on purpose must update the digests
and say why.

The digests were recorded when the body's and the camera's solver became
single shooting (``solver``), which changed every mission, on linux x86-64
with numpy 2.4.6 and scipy-openblas, BLAS on one thread.  Within 120 s,
bl-eto on seed 3 and the random camera on seed 4 detect rocks and so
exercise the map updates; the other runs see none, so the fixed camera's
image logs, and bl-eto's on seed 1, do not depend on the seed.
"""

import hashlib

import pytest

from bleto.bench import ExperimentConfig, run_trial
from bleto.planner import BiLevelConfig

GOLDEN_BUDGET_S = 120.0

GOLDEN = {
    ("bl-eto", 1): {
        "metrics.json": "8272870a710f71572dcb423da11cdabcb7f6bdc1062bb4ee54734d3cf17ce8b9",
        "detections.jsonl": "5a9734e17e349c56c697ea1e9cdd0b402e9a1c77fde11efdb44f9f147f9df0cd",
    },
    ("bl-eto", 3): {
        "metrics.json": "70b10f8e7c926904c40821b8fda8b562adbb2cb0b12261ffbf06fbc66dcc558f",
        "detections.jsonl": "5b4d20a1ad4d729c339b7b5502a832e45ac5120237c8965fe64e9964b8f23cf7",
    },
    ("eto-fixed-camera", 1): {
        "metrics.json": "107ac2ec41c6cf51bd713548b433058fa129a218bb21d34cdb7fd931d25db05d",
        "detections.jsonl": "8442f94b12e3a025776cbe7fde0b45ea21ed3f9d92d32f7b68f002e8264a61ab",
    },
    ("eto-fixed-camera", 2): {
        "metrics.json": "8a030c818b6bde739126f2354bea6cffa917ba3940806bf474a6c677436dbc73",
        "detections.jsonl": "8442f94b12e3a025776cbe7fde0b45ea21ed3f9d92d32f7b68f002e8264a61ab",
    },
    ("eto-random-camera", 1): {
        "metrics.json": "6535f63eea144d79f5b32cd00068b69c54f1118e4b20b19af27fd2dce2beb187",
        "detections.jsonl": "01b6428a2bf0c2ba904333069044650e28588ee5a4d16f4b20d87311ad43fa53",
    },
    ("eto-random-camera", 4): {
        "metrics.json": "30df59de4aaeb0b1448c9fa7aa2e229ad472e73aa938f6d95f0d2e27726e61d5",
        "detections.jsonl": "1c39a51406ceeec8579a015238d99ffe7535e3af5a51ffbfaad38af6c112d2d9",
    },
}


# The seed-1 missions of the benchmark's three workloads at its own budgets,
# configured as perfbench/workloads.py configures them, with their
# metrics.json digests.  These were recorded with the single-shooting
# solver; the digests in perfbench/baseline.json are older and no longer
# match.  The open-loop mission covers the cold solve, many fine solves and
# replans after an exhausted plan, and makes 3 detections; the receding
# and fixed-camera ones make none.
BENCHMARK_WORKLOADS = {
    "receding": ("bl-eto", 300.0, False,
                 "e7765e760afaf7bf47f2d9def45f9629d752660d3a9947edbe1f7cb3ad7f4e1a"),
    "open-loop": ("bl-eto", 2700.0, True,
                  "bebf3cd1ea2c099c2f820fb492d40083fbd97773761e737ae2c7554b66bd3c4d"),
    "fixed-camera": ("eto-fixed-camera", 300.0, False,
                     "166d4143479b969c68186c28f76e76330f78a4b2383c1beed068e8a3fcee05c7"),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_WORKLOADS))
def test_benchmark_workload_matches_baseline_digest(workload, tmp_path):
    method, budget, open_loop, digest = BENCHMARK_WORKLOADS[workload]
    mission = BiLevelConfig(time_budget=budget)
    if open_loop:  # the body replans only on detections or an exhausted plan
        mission = mission.replaced(replan_interval=mission.coarse_horizon)
    run_trial(ExperimentConfig(mission=mission).for_method(method), 1, out_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "metrics.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("method,seed", sorted(GOLDEN))
def test_trial_artifacts_match_golden_digests(method, seed, tmp_path):
    config = ExperimentConfig(
        mission=BiLevelConfig(time_budget=GOLDEN_BUDGET_S)).for_method(method)
    run_trial(config, seed, out_dir=tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[(method, seed)]}
    assert digests == GOLDEN[(method, seed)]
