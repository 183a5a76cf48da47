"""Golden mission outputs: short missions must reproduce pinned bytes.

Each ``GOLDEN`` case runs one trial through ``bench.run_trial`` at a 120 s
simulated budget and compares the sha256 of its deterministic artifacts,
``metrics.json`` and ``detections.jsonl``, with digests pinned here; each
``BENCHMARK_WORKLOADS`` case runs one of the benchmark's missions at its
own, longer budget and compares ``metrics.json``, and
``OPEN_LOOP_DETECTING`` pins one open-loop mission that detects rocks.  A
change that is meant to be a pure refactor or speed-up must keep every
digest; a change that alters behaviour on purpose must update the digests
and say why.

The digests were recorded when the body's turn box became half a turn
per step (``BiLevelConfig.body_bounds``), which changed every mission, on
linux x86-64 with numpy 2.4.6 and scipy-openblas, BLAS on one thread.
Within 120 s, bl-eto on seed 4 and the random camera on seed 8 detect
rocks and so exercise the map updates; the other runs see none, so the
fixed camera's image logs, and bl-eto's on seed 1, do not depend on the
seed.
"""

import hashlib

import pytest

from bleto.bench import ExperimentConfig, run_trial
from bleto.planner import BiLevelConfig

GOLDEN_BUDGET_S = 120.0

GOLDEN = {
    ("bl-eto", 1): {
        "metrics.json": "07b619981d22d662fe823e43b250d64354f5cb5463eae178fa23189ce0506a5c",
        "detections.jsonl": "2b8957475cfc79e8468320f7f73e42213513acee38c86851861367425a1e6f95",
    },
    ("bl-eto", 4): {
        "metrics.json": "502348bef9c9abbb5988907209bcca0ec41549ecc5f386199cb5e32a2fe111c5",
        "detections.jsonl": "245b3c3c22a23c659c603ea00c1c697ee14c845257a284edebba6e95bcf3e0a4",
    },
    ("eto-fixed-camera", 1): {
        "metrics.json": "a4467f93802c7a5d6b01666ce68ecfc92718d5036a12666e859a240d5d9be454",
        "detections.jsonl": "22dab80d510c8e0d11238541e3de7320006d5d730c5ecd74910f32011abe0b36",
    },
    ("eto-fixed-camera", 2): {
        "metrics.json": "6d85fcbffbc9b84999e2486600a011e91034a8d7fce9f83c6aabd37b592b5861",
        "detections.jsonl": "22dab80d510c8e0d11238541e3de7320006d5d730c5ecd74910f32011abe0b36",
    },
    ("eto-random-camera", 1): {
        "metrics.json": "a5eef110a7a987128ac4431d7a8c54423243cecaeaeafac7acdf49db80714cdb",
        "detections.jsonl": "e24126de09266c879f145123c7a261b243d30b41ffd1a606c2786ecf9ac458ac",
    },
    ("eto-random-camera", 8): {
        "metrics.json": "35921479e9604001ce8fb268f8b11a2dd094c372d488b8780c58b94a978e00ac",
        "detections.jsonl": "a08de0dc5c3b4af44b354c3e98d9995ae1ad8b5ccfe8a0e257ad9a3948e7eeac",
    },
}


# The seed-1 missions of the benchmark's three workloads at its own budgets,
# configured as perfbench/workloads.py configures them, with their
# metrics.json digests.  These were recorded with the half-turn turn box;
# the digests in perfbench/baseline.json are older and no longer match.
# The open-loop mission covers the cold solve, many fine solves and replans
# after an exhausted plan; none of the three makes a detection, so
# ``OPEN_LOOP_DETECTING`` pins one that does.
BENCHMARK_WORKLOADS = {
    "receding": ("bl-eto", 300.0, False,
                 "bfd4bf0f7fa66be650fc7b80e5c7c0fa42426b6a655024d3f1252a5a4b2e0b7f"),
    "open-loop": ("bl-eto", 2700.0, True,
                  "4a84f8a0a15e42976e41027f3f2ad315eeda00de1d4aa384961af700f20da29d"),
    "fixed-camera": ("eto-fixed-camera", 300.0, False,
                     "551cb8510d45b582698a293b78efaa10f5a094b893e72b85bfe709d8493f1d98"),
}


# An open-loop mission at that workload's config that detects rocks (six
# times), so replans after a detection, with their map updates, stay pinned
# at the config where the body replans only then or on an exhausted plan.
# Seed 4 was picked only to keep that path covered.
OPEN_LOOP_DETECTING = (4, {
    "metrics.json": "15129459452acec640adea8309382802d51534b038e3b5bec0e28bc8e8a57fb5",
    "detections.jsonl": "6e21fa564b594961111a08bf09ea5535a7de60bc988ae8b8a14f26a619d79714",
})


def _workload_config(method, budget, open_loop):
    mission = BiLevelConfig(time_budget=budget)
    if open_loop:  # the body replans only on detections or an exhausted plan
        mission = mission.replaced(replan_interval=mission.coarse_horizon)
    return ExperimentConfig(mission=mission).for_method(method)


@pytest.mark.parametrize("workload", sorted(BENCHMARK_WORKLOADS))
def test_benchmark_workload_matches_baseline_digest(workload, tmp_path):
    method, budget, open_loop, digest = BENCHMARK_WORKLOADS[workload]
    run_trial(_workload_config(method, budget, open_loop), 1, out_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "metrics.json").read_bytes()).hexdigest() == digest


def test_open_loop_mission_with_detections_matches_digests(tmp_path):
    seed, golden = OPEN_LOOP_DETECTING
    _, budget, open_loop, _ = BENCHMARK_WORKLOADS["open-loop"]
    metrics = run_trial(_workload_config("bl-eto", budget, open_loop), seed, out_dir=tmp_path)
    assert metrics.detections > 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in golden}
    assert digests == golden


@pytest.mark.parametrize("method,seed", sorted(GOLDEN))
def test_trial_artifacts_match_golden_digests(method, seed, tmp_path):
    config = ExperimentConfig(
        mission=BiLevelConfig(time_budget=GOLDEN_BUDGET_S)).for_method(method)
    run_trial(config, seed, out_dir=tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[(method, seed)]}
    assert digests == GOLDEN[(method, seed)]
