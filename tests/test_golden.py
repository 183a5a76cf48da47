"""Golden mission outputs: short missions must reproduce pinned bytes.

Each ``GOLDEN`` case runs one trial through ``bench.run_trial`` at a 120 s
simulated budget and compares the sha256 of its deterministic artifacts,
``metrics.json`` and ``detections.jsonl``, with digests pinned here; each
``BENCHMARK_WORKLOADS`` case runs one of the benchmark's missions at its
own, longer budget and compares ``metrics.json``.  A
change that is meant to be a pure refactor or speed-up must keep every
digest; a change that alters behaviour on purpose must update the digests
and say why.

The digests were recorded with the product-form basis kernel
(``prod_i cos(omega_{k,i} w_i)`` over every mode, point and axis, at commit
9c045c1), before the separable per-axis kernel replaced it, on linux
x86-64 with numpy 2.4.6 and scipy-openblas.  The fixed-camera runs see no
detection within 120 s, so their image logs do not depend on the seed;
bl-eto on seed 1 detects a rock and so exercises the map updates.  The
eto-random-camera digests were recorded later, at commit dc748b1, before
the solver's line search kept each trial's merit evaluation; its seed-1
run detects a rock, its seed-2 run does not.
"""

import hashlib

import pytest

from bleto.bench import ExperimentConfig, run_trial
from bleto.planner import BiLevelConfig

GOLDEN_BUDGET_S = 120.0

GOLDEN = {
    ("bl-eto", 1): {
        "metrics.json": "b9695847df48a73f7ebab79e744abd47ea7784b059a7e7f7e01068786f3a1ba8",
        "detections.jsonl": "d8225b5b1ac598f53610c683b224848c6374a7ed6a67f7a82078d35383b00a86",
    },
    ("bl-eto", 2): {
        "metrics.json": "025543d6327ed93847629b749589ca5d4dc8c10471d3417d32ead14d4c847997",
        "detections.jsonl": "0daf66f91deccc030fa54d9a2fbd6752790a4f5ded9c6b13d2e4c973cf771c00",
    },
    ("eto-fixed-camera", 1): {
        "metrics.json": "35dfa9f9585c64a3010db035b7a398d2af7a82ad800e59aea2b95afdee394f40",
        "detections.jsonl": "ab982b9a3c3b67ad60bc2b94945cb2c65e02fcc4e10b9d5bd9e6c8a9ceabbeb9",
    },
    ("eto-fixed-camera", 2): {
        "metrics.json": "7b8af64dd57155e819fc5fb058860f45561c30139d423f743f247db833f2f46b",
        "detections.jsonl": "ab982b9a3c3b67ad60bc2b94945cb2c65e02fcc4e10b9d5bd9e6c8a9ceabbeb9",
    },
    ("eto-random-camera", 1): {
        "metrics.json": "ef6f55409bbe1172fd04cdbcc3bb78a5b8e39e1b03dbd7dae1938f1bb05be956",
        "detections.jsonl": "1ec15b5e5ea5bf0d96f7a0bb89354fa53b63f7f2f56472cef7411071ae638849",
    },
    ("eto-random-camera", 2): {
        "metrics.json": "457917157fd1867fca7f0485a176cdf81709d182e2f967d4af40af89ff18dc64",
        "detections.jsonl": "8ddcb7f5727c75c05bb6e8e3ccee4fe7c084a558e29bc25b5c0713f2b986aaea",
    },
}


# The seed-1 missions of the benchmark's three workloads at its own budgets,
# configured as perfbench/workloads.py configures them, with the metrics.json
# digests of perfbench/baseline.json (recorded at commit d490cd6).  The
# receding mission makes 12 detections; the open-loop one covers the cold
# solve, many fine solves and replans after an exhausted plan.
BENCHMARK_WORKLOADS = {
    "receding": ("bl-eto", 300.0, False,
                 "ff2218f9e4ec4d21306e118caea34df362ddc5727fe7074e3af257fd9fd6187e"),
    "open-loop": ("bl-eto", 2700.0, True,
                  "e4fa91d5cc3cdb2eec3af334e5d56942a4523946c6b9e32296ac68d60ecac9d4"),
    "fixed-camera": ("eto-fixed-camera", 300.0, False,
                     "aed3ba6068146f551bc573bd08468356d462878e17acaf9106879f786ca7b61f"),
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
