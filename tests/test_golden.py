"""Golden mission outputs: short missions must reproduce pinned bytes.

Each ``GOLDEN`` case runs one trial through ``bench.run_trial`` at a 120 s
simulated budget and compares the sha256 of its deterministic artifacts,
``metrics.json`` and ``detections.jsonl``, with digests pinned here; each
``BENCHMARK_WORKLOADS`` case runs one of the benchmark's missions at its
own, longer budget and compares ``metrics.json``.  A
change that is meant to be a pure refactor or speed-up must keep every
digest; a change that alters behaviour on purpose must update the digests
and say why.

The digests were recorded after the solver's L-BFGS two-loop recursion
gave way to its compact matrix form, which changed the last bits of every
solve and so every mission, on linux x86-64 with numpy 2.4.6 and
scipy-openblas, BLAS on one thread.  The
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
        "metrics.json": "5de1fc40739bcbbb0f8de7f2301aed4ccac9c789b6a9b5df6940bcee7eb460e0",
        "detections.jsonl": "62678df33798f3400a0ae463a1d304b7fd0dc5efb2a3478eeadf40d84338678f",
    },
    ("bl-eto", 2): {
        "metrics.json": "4f81befe392d32b6320aad8d206dfce17278b9c9ced4bf2e9f33897ae10e308f",
        "detections.jsonl": "d4e98ebf533c0faffac388525f20bb3b6c94cf20ae680d2c5d470e740e88004b",
    },
    ("eto-fixed-camera", 1): {
        "metrics.json": "cec21f2ac7b8440c7743f97a9e869d46429b7eaca266c6b2ab43b32e39fdac64",
        "detections.jsonl": "c38c1cfbd4f7f291585f0afbef500152565d162a1d483b01b57d89ea0df8ee7f",
    },
    ("eto-fixed-camera", 2): {
        "metrics.json": "54b42ad4d5d3fb97c83fc4dd89b6c0a5f90c93ab16214e2a0d932dd81a455722",
        "detections.jsonl": "c38c1cfbd4f7f291585f0afbef500152565d162a1d483b01b57d89ea0df8ee7f",
    },
    ("eto-random-camera", 1): {
        "metrics.json": "1b6307391b083d8ccdbeb7ec35d3ab8ccef87dfac97fe87461f084024e2e0d0f",
        "detections.jsonl": "bef049cfffcb6a0a2dae23204b3743be9596c2c8679adaae08538499338b88a8",
    },
    ("eto-random-camera", 2): {
        "metrics.json": "00fd2459a6dd0ffb5d2e4d882c5a993e50e94fcef1397e760ec046282460a89f",
        "detections.jsonl": "6035ea79a2e04e5382e8b7f561059d1bda4071dad99dbaa1ebdd82e3f380ef16",
    },
}


# The seed-1 missions of the benchmark's three workloads at its own budgets,
# configured as perfbench/workloads.py configures them, with their
# metrics.json digests.  These were recorded with the compact L-BFGS
# product; the digests in perfbench/baseline.json are older and no longer
# match.  The open-loop mission covers the cold solve, many fine solves and
# replans after an exhausted plan, and makes 12 detections; the receding
# one makes 7.
BENCHMARK_WORKLOADS = {
    "receding": ("bl-eto", 300.0, False,
                 "f7b0ee63b7726de4d109ddce010ea9df209c9d8e3c4ebabb6ac2a154a6f0b0e3"),
    "open-loop": ("bl-eto", 2700.0, True,
                  "d011b2acc1256e80abb23340fbf25dfe7c4c7999844a6a8785bb2f37c5801c72"),
    "fixed-camera": ("eto-fixed-camera", 300.0, False,
                     "d4cf16c42a2b8c9866a0370e0680bfce76c8ac7fb861ae228e5ba35cabce76aa"),
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
