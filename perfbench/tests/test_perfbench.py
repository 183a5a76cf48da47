"""Tests of the benchmark itself: arithmetic, output checks and a smoke run.

Run with:  python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bleto.bench
import bleto.ergodic
import bleto.planner
import bootstrap
import run
from checks import check_trial
from spans import Span, Tracer, percentile, self_times, tail_percentile
from workloads import WORKLOADS

TINY_BUDGET = 40.0  # simulated seconds: two body steps of the receding workload


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 16):
        xs = list(rng.random(n))
        for q in (0.0, 25.0, 50.0, 90.0, 95.0, 100.0):
            assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-15)
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize("n, expected", [
    (0, None), (5, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_self_time_subtracts_direct_children_only():
    spans = [Span("root", 0.0, 10.0, -1, 1),
             Span("a", 1.0, 4.0, 0, 1),
             Span("b", 5.0, 9.0, 0, 1),
             Span("b.child", 6.0, 7.0, 2, 1)]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_tracer_restores_every_patched_attribute():
    before = (bleto.bench.run_trial, bleto.planner.solve,
              bleto.planner.map_coefficients,
              vars(bleto.ergodic.FourierBasis)["eval_points"])
    with Tracer().installed():
        assert bleto.planner.solve is not before[1]
    after = (bleto.bench.run_trial, bleto.planner.solve,
             bleto.planner.map_coefficients,
             vars(bleto.ergodic.FourierBasis)["eval_points"])
    assert after == before


@pytest.fixture(scope="module")
def trial(tmp_path_factory):
    """A real trial directory of a tiny receding mission, and its inputs."""
    workload = dataclasses.replace(WORKLOADS["receding"], time_budget=TINY_BUDGET)
    config = workload.config()
    out = tmp_path_factory.mktemp("trial")
    bleto.bench.run_trial(config, 1, out)
    return out, config, run.paired_scenario_hash(1)


_DROP = object()


def _tamper_metrics(**changes):
    def edit(trial_dir):
        path = trial_dir / "metrics.json"
        data = json.loads(path.read_text())
        for key, value in changes.items():
            if value is _DROP:
                del data[key]
            else:
                data[key] = value(data[key]) if callable(value) else value
        path.write_text(json.dumps(data))
    return edit


def _tamper_trajectory(trial_dir):
    path = trial_dir / "trajectory.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = "-5.0"  # x left of the workspace
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _tamper_scenario(trial_dir):
    path = trial_dir / "scenario.json"
    path.write_text(path.read_text().replace('"seed": 1', '"seed": 2'))


def _drop_event(trial_dir):
    path = trial_dir / "detections.jsonl"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))


def test_untouched_trial_passes(trial):
    trial_dir, config, scenario_hash = trial
    assert check_trial(trial_dir, config, 1, scenario_hash) == []


@pytest.mark.parametrize("tamper", [
    _tamper_metrics(seed=2),
    _tamper_metrics(method="eto-fixed-camera"),
    _tamper_metrics(path_length_m=_DROP),
    _tamper_metrics(sim_time_s=lambda t: t + 16.0),
    _tamper_metrics(sim_time_s=lambda t: TINY_BUDGET - 1.0),
    _tamper_metrics(images=lambda n: 100 * n),
    _tamper_metrics(rocks_found=lambda n: n + 1),
    _tamper_trajectory,
    _tamper_scenario,
    _drop_event,
], ids=["seed", "method", "missing-key", "overshoot", "undershoot", "images",
        "rocks", "trajectory", "scenario", "events"])
def test_tampered_trial_is_rejected(trial, tmp_path, tamper):
    trial_dir, config, scenario_hash = trial
    copy = tmp_path / "trial"
    shutil.copytree(trial_dir, copy)
    tamper(copy)
    assert check_trial(copy, config, 1, scenario_hash)


def _benchmark_units(kind):
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_scenario_seeds_start_with_the_run_seed_and_are_reproducible():
    assert run.scenario_seed(5, 0) == 5
    derived = [run.scenario_seed(5, i) for i in range(1, 6)]
    assert derived == [run.scenario_seed(5, i) for i in range(1, 6)]
    assert len(set(derived)) == 5 and 5 not in derived
    assert derived != [run.scenario_seed(6, i) for i in range(1, 6)]


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_smoke_run_on_a_tiny_budget(tmp_path, trace, kind):
    workload = dataclasses.replace(WORKLOADS["receding"], time_budget=TINY_BUDGET)
    metrics, correct, missions = run.measure(workload, 1, 0.01, trace, tmp_path)
    assert correct
    assert missions.failed == 0 and missions.attempted >= 2
    assert len(missions.digests[1]) >= 2 and len(set(missions.digests[1])) == 1
    assert {name: unit for name, (_, unit, _) in metrics.items()} == _benchmark_units(kind)
    assert all(np.isfinite(value) for value, _, _ in metrics.values())
    if trace:
        assert metrics["planner.coarse_plans"][0] >= 2
        assert metrics["world.images"][0] >= 1


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "receding", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
