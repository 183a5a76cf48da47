"""Golden mission outputs: short missions must reproduce pinned bytes.

Each ``GOLDEN`` case runs one trial through ``bench.run_trial`` at a 120 s
simulated budget and compares the sha256 of its deterministic artifacts,
``metrics.json`` and ``detections.jsonl``, with digests pinned here; each
``BENCHMARK_WORKLOADS`` case runs one of the benchmark's missions at its
own, longer budget and compares ``metrics.json``.  A
change that is meant to be a pure refactor or speed-up must keep every
digest; a change that alters behaviour on purpose must update the digests
and say why.

The digests were recorded after the per-step position cap left the solver,
which changed its barrier and so the bits of every mission, and after
``bench.score`` began crediting each detection's nearest rock only, on
linux x86-64 with numpy 2.4.6 and scipy-openblas, BLAS on one thread.  The
fixed-camera runs see no detection within 120 s, so their image logs do
not depend on the seed; bl-eto on seed 1 detects a rock and so exercises
the map updates.  The random camera's seed-1 run detects a rock, its
seed-2 run does not.
"""

import hashlib

import pytest

from bleto.bench import ExperimentConfig, run_trial
from bleto.planner import BiLevelConfig

GOLDEN_BUDGET_S = 120.0

GOLDEN = {
    ("bl-eto", 1): {
        "metrics.json": "ab5a9c8df9272b14d7604ebb53f2d737ea9c4d64f6b7d7eab063462893379f45",
        "detections.jsonl": "87fc36e78bd6f945f713c37e7bbe4d7c2b0d2f3aa16a00afdd1054b7101b1838",
    },
    ("bl-eto", 2): {
        "metrics.json": "95917b72e365fbc04c6da9823f102a43e3fa212fe1bbb8978064de61cec60ad3",
        "detections.jsonl": "790d76890e6efb734889e74f5edc30c65dc37cc9a6bd92f2a8183bb2c0cb02b4",
    },
    ("eto-fixed-camera", 1): {
        "metrics.json": "d2cd93f735f5114beef3cdf6ff1a1587b260a821e4ae5d2758f4bbfb646bb78e",
        "detections.jsonl": "e5908220325bc71bfbe5decd56cfe96abd37e4e74015f08be9d3e0df030f8660",
    },
    ("eto-fixed-camera", 2): {
        "metrics.json": "99c21fcdc6104a655633ebb3c50728dc47ce94a0b5e3f1f5e50ad3439828cbb0",
        "detections.jsonl": "e5908220325bc71bfbe5decd56cfe96abd37e4e74015f08be9d3e0df030f8660",
    },
    ("eto-random-camera", 1): {
        "metrics.json": "a78193c66c3f0fdbd17d59a3ac2d32a20b9679a21cd3fac2a8678659e7e9d72a",
        "detections.jsonl": "d8b06339fb04922f404d3dc6e933798c563e7a9c90806cfbc3c3d35213b8004a",
    },
    ("eto-random-camera", 2): {
        "metrics.json": "e030137f0101b8a82cd805c2b3169249d7f5e8d90431b3efd3c9dcc763405904",
        "detections.jsonl": "c91bbb69479ec2873b23d156fc7431196ff036fe0b22202ecf468336d5311ded",
    },
}


# The seed-1 missions of the benchmark's three workloads at its own budgets,
# configured as perfbench/workloads.py configures them, with their
# metrics.json digests.  These were recorded without the per-step position
# cap; the digests in perfbench/baseline.json are older and no longer
# match.  The open-loop mission covers the cold solve, many fine solves and
# replans after an exhausted plan, and makes 13 detections; the receding
# one makes 7.
BENCHMARK_WORKLOADS = {
    "receding": ("bl-eto", 300.0, False,
                 "dc86d3870aa4e5127e93fcbe50b17383f4723f89fe277e2bf725ec1f88596f6f"),
    "open-loop": ("bl-eto", 2700.0, True,
                  "183c7f1fd2032097f6bb1e39fa3ece9f2506e0232e189b2b209171360044dfb7"),
    "fixed-camera": ("eto-fixed-camera", 300.0, False,
                     "68b57ca0690b4e0178d316bdd0ff566f48180a9aa4eddeb7631fb12ea3a796e4"),
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
