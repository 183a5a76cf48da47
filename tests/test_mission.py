"""The mission executive, the experiment harness and the CLI.

Short missions (30–300 s of simulated time) check the invariants the
docstrings of ``planner``, ``bench`` and ``cli`` promise: the clock is the
sum of its charges, sweeps take ``fine_horizon`` images, the first charge
at or after the budget ends the mission whichever action it pays for, each
coarse map is transformed once, comparisons stay paired and write a
scorecard that agrees with their trials, bad input exits with status 2,
``run --out`` writes the solver trace of the mission's own first coarse
plan, a process solves that plan once yet writes each trial's bytes, and
the body turns at most half a turn per step.
"""

import functools
import hashlib
import json
import math

import numpy as np
import pytest

import bleto.bench
import bleto.infomap
import bleto.planner
import bleto.solver
from bleto.bench import ExperimentConfig, build_scenario, compare
from bleto.cli import EXIT_CONFIG, EXIT_OK, main
from bleto.dynamics import UnicycleModel
from bleto.ergodic import FourierBasis, Workspace
from bleto.infomap import DetectionEvent
from bleto.planner import BiLevelConfig, CoverageMemory, Mission, MissionLog
from bleto.world import Rock, Scenario, scenario_to_json

SWEEP_BUDGET_S = 120.0
# the seed whose bl-eto mission detects rocks earliest: its first detection
# comes at 24 s, and a repeat sighting near it follows within 300 s
ROCK_SEED = 4


def run_mission(method, seed, **mission_kw):
    """One mission as ``bench.run_trial`` runs it, returning its log."""
    config = ExperimentConfig(mission=BiLevelConfig(**mission_kw)).for_method(method)
    mission = Mission(config.mission, build_scenario(config, seed), seed,
                      camera_model=config.camera)
    return mission.run()


# the charge each action books before it starts: (kind, config field)
ACTIONS = {
    "coarse plan": ("planning", "coarse_plan_time"),
    "fine plan": ("planning", "fine_plan_time"),
    "slew": ("camera", "fine_dt"),
    "image": ("images", "image_time"),
    "body step": ("body", "coarse_dt"),
}
CLOCK_CASES = [(method, action) for method in sorted(bleto.bench.METHODS)
               for action in ACTIONS
               if not (action == "fine plan" and method != "bl-eto")
               and not (action == "slew" and method == "eto-fixed-camera")]


class BookingMission(Mission):
    """A mission that records each charge it books as (kind, amount, start)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.booked = []

    def _charge(self, kind, amount):
        start = self.log.sim_time
        super()._charge(kind, amount)
        self.booked.append((kind, amount, start))


def booked_run(method, budget):
    """(charges booked, log) of a seed-1 mission at ``budget``."""
    config = ExperimentConfig(mission=BiLevelConfig(time_budget=budget)).for_method(method)
    mission = BookingMission(config.mission, build_scenario(config, 1), 1,
                             camera_model=config.camera)
    log = mission.run()
    return mission.booked, log


@functools.lru_cache(maxsize=None)
def reference_bookings(method):
    return booked_run(method, 60.0)[0]


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module", params=sorted(bleto.bench.METHODS))
def sweep_case(request):
    """(method, log) of a seed-1 mission."""
    method = request.param
    return method, run_mission(method, 1, time_budget=SWEEP_BUDGET_S)


class TestMissionInvariants:
    def test_sim_time_is_the_sum_of_charges(self, sweep_case):
        _, log = sweep_case
        assert log.sim_time >= SWEEP_BUDGET_S
        # the clock and the charges add the same amounts in different orders
        assert log.sim_time == pytest.approx(sum(log.charges.values()), rel=1e-12)

    def test_every_sweep_takes_a_full_set_of_images(self, sweep_case):
        method, log = sweep_case
        per_sweep = 1 if method == "eto-fixed-camera" else BiLevelConfig().fine_horizon
        # a sweep's images fall between the body-state rows around it
        ends = np.searchsorted([e.time for e in log.events],
                               [row[0] for row in log.body_states], side="right")
        assert len(ends) > 1 and ends[0] == 0
        assert all(np.diff(ends) == per_sweep)
        # only the final sweep, cut short by the clock, has no body step
        assert 0 <= len(log.events) - ends[-1] <= per_sweep

    def test_every_move_stays_inside_its_control_box(self, sweep_case):
        # the control boxes are the only step limits: a body step is at most
        # coarse_dt * body_speed_max long, and the optimized camera moves at
        # most fine_dt * camera_rate_max per axis between images (the random
        # camera jumps by design, the fixed one stays)
        method, log = sweep_case
        cfg = BiLevelConfig()
        steps = np.diff(np.array(log.body_states)[:, 1:3], axis=0)
        assert len(steps) > 1
        assert np.hypot(*steps.T).max() <= cfg.coarse_dt * cfg.body_speed_max * (1 + 1e-9)
        if method != "eto-random-camera":
            moves = np.abs(np.diff([e.camera_angles for e in log.events], axis=0))
            most = cfg.fine_dt * cfg.camera_rate_max if method == "bl-eto" else 0.0
            assert moves.max() <= most * (1 + 1e-9)

    @pytest.mark.parametrize("method,action", CLOCK_CASES)
    def test_the_budget_ends_the_mission_within_any_action(self, method, action):
        # a budget halfway through the last such charge of a 60 s mission
        # replays that mission up to the charge, which must then be its last
        cfg = BiLevelConfig()
        kind, name = ACTIONS[action]
        amount = getattr(cfg, name)
        start = [s for k, a, s in reference_bookings(method) if (k, a) == (kind, amount)][-1]
        budget = start + 0.5 * amount
        booked, log = booked_run(method, budget)
        assert booked[-1] == (kind, amount, start)
        largest = max(getattr(cfg, field) for _, field in ACTIONS.values())
        assert budget <= log.sim_time < budget + largest
        assert all(e.time - cfg.image_time < budget for e in log.events)
        per_sweep = 1 if method == "eto-fixed-camera" else cfg.fine_horizon
        unstepped = len(log.events) - per_sweep * (len(log.body_states) - 1)
        assert 0 <= unstepped <= per_sweep

    @pytest.mark.parametrize("method", sorted(bleto.bench.METHODS))
    def test_no_image_starts_after_the_budget(self, method):
        # at 100 s the random camera's last slew on seed 1 used to run out the
        # clock and still be followed by an image, started at 100.092 s
        budget = 100.0
        log = run_mission(method, 1, time_budget=budget)
        image_time = BiLevelConfig().image_time
        assert log.events
        assert all(e.time - image_time < budget for e in log.events)

    def test_each_coarse_map_is_transformed_once(self, monkeypatch):
        # a receding bl-eto mission that detects a rock: every coarse plan
        # chases the coefficients of the map current at that plan, and no
        # coarse map object is transformed twice
        real_coefficients = bleto.planner.map_coefficients
        real_planner = bleto.planner.ergodic_coarse_planner
        transformed = []
        plans = []

        def recording_coefficients(basis, grid_map):
            if grid_map.shape == mission.coarse_map.shape:
                transformed.append(grid_map)
            return real_coefficients(basis, grid_map)

        def checking_planner(pose, phi, basis, config, **kw):
            plans.append(mission.coarse_map)
            assert np.array_equal(phi, real_coefficients(basis, mission.coarse_map))
            return real_planner(pose, phi, basis, config, **kw)

        monkeypatch.setattr(bleto.planner, "map_coefficients", recording_coefficients)
        monkeypatch.setattr(bleto.planner, "ergodic_coarse_planner", checking_planner)
        config = ExperimentConfig(
            mission=BiLevelConfig(time_budget=SWEEP_BUDGET_S)).for_method("bl-eto")
        mission = Mission(config.mission, build_scenario(config, ROCK_SEED), ROCK_SEED,
                          camera_model=config.camera)
        log = mission.run()
        assert log.detections() and "receding" in log.coarse_replan_reasons
        assert len({id(m) for m in transformed}) == len(transformed)
        assert [id(m) for m in transformed] == list(dict.fromkeys(id(m) for m in plans))
        assert len(transformed) < len(plans) == len(log.coarse_replan_reasons)

    def test_trial_is_deterministic_and_inside(self, tmp_path):
        # a bl-eto mission that detects rocks: a rerun writes the same bytes,
        # the track and every detection stay inside the workspace, and the
        # coverage metric of the body's memory is reported
        config = ExperimentConfig.from_dict({"mission": {"time_budget": 300.0}})
        first, second = tmp_path / "first", tmp_path / "second"
        metrics = bleto.bench.run_trial(config, ROCK_SEED, first)
        assert bleto.bench.run_trial(config, ROCK_SEED, second) == metrics
        for path in first.iterdir():
            if path.name != "timing.txt":
                assert path.read_bytes() == (second / path.name).read_bytes(), path.name

        workspace = config.mission.coarse_workspace()
        rows = (first / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == metrics.body_steps + 1
        assert all(workspace.contains([float(v) for v in row.split(",")[1:3]])
                   for row in rows)
        events = [json.loads(line) for line in
                  (first / "detections.jsonl").read_text().splitlines()]
        hits = [e["world_point"] for e in events if e["label"] != "background"]
        assert len(hits) == metrics.detections > 0
        assert all(workspace.contains(point) for point in hits)
        recorded = json.loads((first / "metrics.json").read_text())
        assert recorded["final_ergodic_metric"] is not None


def count_cold_body_solves(monkeypatch, owner, attr):
    """Wrap ``owner.attr``, a solve function, to count its cold solves of
    the body (unicycle) problem; returns the one-entry count list."""
    count = [0]
    real = getattr(owner, attr)

    def counting(problem, warm_start=None):
        if warm_start is None and isinstance(problem.model, UnicycleModel):
            count[0] += 1
        return real(problem, warm_start)

    monkeypatch.setattr(owner, attr, counting)
    return count


class TestColdPlanMemo:
    """A process solves a mission's opening body plan once (the cold-solve
    memo of ``solver``); every trial still writes its own bytes."""

    def test_a_memo_hit_writes_the_bytes_of_a_miss(self, tmp_path, monkeypatch):
        config = ExperimentConfig.from_dict({"mission": {"time_budget": 60.0}})
        bleto.solver._cold_memo.clear()
        bleto.bench.run_trial(config.for_method("eto-fixed-camera"), 2)
        runs = count_cold_body_solves(monkeypatch, bleto.solver, "_solve_uncached")
        hit, miss = tmp_path / "hit", tmp_path / "miss"
        bleto.bench.run_trial(config, 1, hit)
        assert runs == [0]
        bleto.solver._cold_memo.clear()
        bleto.bench.run_trial(config, 1, miss)
        assert runs == [1]
        names = sorted(path.name for path in hit.iterdir())
        assert names == sorted(path.name for path in miss.iterdir())
        for name in names:
            if name != "timing.txt":
                assert (hit / name).read_bytes() == (miss / name).read_bytes(), name

    def test_compare_solves_the_opening_plan_once(self, monkeypatch):
        bleto.solver._cold_memo.clear()
        runs = count_cold_body_solves(monkeypatch, bleto.solver, "_solve_uncached")
        plans = count_cold_body_solves(monkeypatch, bleto.planner, "solve")
        seeds = (1, 2)
        config = ExperimentConfig(mission=BiLevelConfig(time_budget=30.0), seeds=seeds)
        compare(config)
        assert runs == [1]
        assert plans == [len(seeds) * len(bleto.bench.METHODS)]


class TestRepeatSightings:
    """A map bump near an earlier hit on the same map is scaled by
    ``_CLIP_FACTOR``: on the coarse map, any earlier detection of the
    mission; on the fine map, an earlier hit since the last projection."""

    def test_coarse_factor_reads_the_missions_detections(self, monkeypatch):
        real = bleto.infomap.register_detection
        calls = []

        def spy(imap, event, **kw):
            calls.append((event.world_point, kw["factor"]))
            return real(imap, event, **kw)

        monkeypatch.setattr(bleto.infomap, "register_detection", spy)
        run_mission("bl-eto", ROCK_SEED, time_budget=300.0)
        clip = bleto.planner._CLIP_FACTOR
        for i, (point, factor) in enumerate(calls):
            near = any(math.dist(point, earlier) <= bleto.planner._COARSE_CLIP_RADIUS
                       for earlier, _ in calls[:i])
            assert factor == (clip if near else 1.0)
        assert {factor for _, factor in calls} == {clip, 1.0}

    def test_fine_factor_reads_the_current_fine_maps_hits(self, monkeypatch):
        real_update = bleto.infomap.update_fine
        real_project = bleto.infomap.project_to_fine
        hits, checked = [], []

        def project(*args, **kw):
            hits.clear()
            return real_project(*args, **kw)

        def update(imap, angles, detected, **kw):
            if detected:
                near = any(math.dist(angles, hit) <= bleto.planner._FINE_CLIP_RADIUS
                           for hit in hits)
                checked.append((near, kw["factor"]))
                hits.append(angles)
            return real_update(imap, angles, detected, **kw)

        monkeypatch.setattr(bleto.infomap, "project_to_fine", project)
        monkeypatch.setattr(bleto.infomap, "update_fine", update)
        for seed in (1, 2, 3):
            run_mission("bl-eto", seed, time_budget=900.0)
        clip = bleto.planner._CLIP_FACTOR
        assert all(factor == (clip if near else 1.0) for near, factor in checked)
        assert {near for near, _ in checked} == {True, False}


class TestTurnBox:
    """The body plans with a turn box of at most half a turn per step
    (``BiLevelConfig.body_bounds``): heading enters a step only through its
    sine and cosine, so a wider box holds several copies of each heading."""

    @pytest.mark.parametrize("turn_max,box", [(BiLevelConfig().body_turn_max, math.pi / 15.0),
                                              (0.1, 0.1)], ids=["default", "narrow"])
    def test_coarse_problem_turns_at_most_half_a_turn_per_step(self, monkeypatch,
                                                               turn_max, box):
        problems = []
        monkeypatch.setattr(bleto.planner, "solve",
                            lambda problem, warm_start=None: problems.append(problem))
        config = BiLevelConfig(body_turn_max=turn_max)
        assert config.coarse_dt == 15.0
        basis = FourierBasis(config.coarse_workspace(), 4)
        bleto.planner.ergodic_coarse_planner(
            config.start_pose, np.ones(len(basis)), basis, config,
            memory=CoverageMemory(basis, [config.start_pose[:2]]))
        (problem,) = problems
        speed = config.body_speed_max
        assert problem.bounds.lower.tolist() == [-speed, -box]
        assert problem.bounds.upper.tolist() == [speed, box]

    @pytest.mark.parametrize("method", sorted(bleto.bench.METHODS))
    def test_no_body_step_turns_past_half_a_turn(self, tmp_path, method):
        config = ExperimentConfig(
            mission=BiLevelConfig(time_budget=300.0)).for_method(method)
        bleto.bench.run_trial(config, 1, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        headings = np.array([float(line.split(",")[3]) for line in lines[1:]])
        turns = np.abs(np.diff(headings))
        assert len(turns) >= 10 and turns.max() > 0.0
        assert turns.max() <= math.pi * (1.0 + 1e-12)


class TestTrajectoryCsv:
    @pytest.mark.parametrize("method,mission_kw", [
        ("bl-eto", {}),
        ("eto-fixed-camera", {}),
        ("eto-random-camera", {}),
        # each sweep's first random aim costs no time; without a coarse
        # replan between the body step and that aim they share a timestamp,
        # and the aim must not show on the body step's row
        ("eto-random-camera", {"replan_interval": BiLevelConfig().coarse_horizon}),
    ], ids=["bl-eto", "fixed", "random", "random-open-loop"])
    def test_rows_hold_the_angles_of_the_last_image(self, tmp_path, method, mission_kw):
        config = ExperimentConfig(
            mission=BiLevelConfig(time_budget=SWEEP_BUDGET_S, **mission_kw)
        ).for_method(method)
        metrics = bleto.bench.run_trial(config, 1, tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,heading,yaw,pitch"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == metrics.body_steps + 1
        events = [json.loads(line) for line in
                  (tmp_path / "detections.jsonl").read_text().splitlines()]
        assert len(events) == metrics.images

        mission = config.mission
        start = ((0.0, mission.fixed_pitch) if mission.camera_mode == "fixed"
                 else tuple(mission.camera_start))
        assert tuple(rows[0][4:]) == start
        for t, *_, yaw, pitch in rows[1:]:
            last = [e["camera_angles"] for e in events if e["time"] < t][-1]
            assert [yaw, pitch] == last


class TestCompare:
    def test_unpaired_scenarios_raise(self, monkeypatch):
        monkeypatch.setattr(bleto.bench, "_scenario_hash",
                            lambda config, seed: config.method)
        config = ExperimentConfig(mission=BiLevelConfig(time_budget=20.0), seeds=(1,))
        with pytest.raises(AssertionError, match="differs across methods"):
            compare(config)


class TestScorecard:
    def test_compare_writes_a_paired_scorecard(self, tmp_path, capsys):
        seeds = (ROCK_SEED, ROCK_SEED + 1)
        config = ExperimentConfig(mission=BiLevelConfig(time_budget=SWEEP_BUDGET_S),
                                  seeds=seeds)
        compare(config, out_dir=tmp_path)
        card = json.loads((tmp_path / "scorecard.json").read_text())
        assert card["seeds"] == list(seeds) and card["placement"] == "uniform"
        for method in bleto.bench.METHODS:
            rows = card["rows"][method]
            assert [row["seed"] for row in rows] == list(seeds)
            for row in rows:
                metrics = json.loads(
                    (tmp_path / method / f"seed_{row['seed']}" / "metrics.json").read_text())
                assert row["found"] == metrics["rocks_found"]
                assert 0 <= row["imaged"] <= metrics["detections"]
                # every image sees at most the frustum's 12.5 m^2 of ground
                assert 0.0 <= row["ground_m2"] <= 12.5 * metrics["images"]
                if row["ground_m2"]:
                    assert 1.0 <= row["images_per_ground"] <= metrics["images"]
                assert 0.0 <= row["lock_on_share"] <= 1.0
                assert 0.0 <= row["parked_share"] <= 1.0
        assert sorted(card["paired"]) == ["bl-eto - eto-fixed-camera",
                                          "bl-eto - eto-random-camera"]
        for baseline, pair in card["paired"].items():
            other = baseline.split(" - ")[1]
            for key in ("found", "imaged", "ground_m2"):
                assert sum(pair[key].values()) == len(seeds)
                assert [d[key] for d in pair["per_seed"]] == [
                    ours[key] - theirs[key]
                    for ours, theirs in zip(card["rows"]["bl-eto"], card["rows"][other])]
        # the fixed camera sees no rock in 120 s, so both seeds run one path
        paths = {method: len({hashlib.sha256(
                     (tmp_path / method / f"seed_{seed}" / "trajectory.csv").read_bytes()
                 ).hexdigest() for seed in seeds}) for method in bleto.bench.METHODS}
        assert card["distinct_paths"] == paths and paths["eto-fixed-camera"] == 1
        # bl-eto's first trial detects a rock, which inspect names
        capsys.readouterr()
        assert main(["inspect", "--log",
                     str(tmp_path / "bl-eto" / f"seed_{ROCK_SEED}")]) == EXIT_OK
        assert "nearest rock" in capsys.readouterr().out

    def test_row_counts_the_rock_each_detection_images(self):
        scenario = Scenario(Workspace((100.0, 100.0)),
                            (Rock(10.0, 10.0, "igneous"), Rock(13.0, 10.0, "igneous"),
                             Rock(80.0, 80.0, "sedimentary")))

        def event(point):
            return DetectionEvent(0.0, (0.0, 0.0, 0.0), (0.0, 0.0),
                                  "background" if point is None else "igneous", point)

        log = MissionLog(
            body_states=[(0.0, 50.0, 50.0, 0.0, 0.0, 0.0), (15.0, 50.05, 50.0, 0.0, 0.0, 0.0),
                         (30.0, 53.0, 54.0, 0.0, 0.0, 0.0)],
            events=[event((10.0, 10.0))] * 3 + [event((80.0, 80.0)), event(None)],
            path_length=5.05)
        metrics = bleto.bench.score(log, scenario, 5.0, "bl-eto", 1)
        row = bleto.bench.scorecard_row(metrics, log, scenario, ExperimentConfig())
        # each detection credits only its nearest rock, not the second one
        # 3 m from the first
        assert (metrics.rocks_found, row["imaged"]) == (2, 2)
        assert row["path_per_imaged_m"] == pytest.approx(5.05 / 2)
        assert row["lock_on_share"] == 0.75
        assert row["parked_share"] == 0.5

    def test_a_detection_credits_only_its_nearest_rock(self):
        # one detection on a rock, 4.5 m from another rock that lies within
        # the identification radius of it too
        scenario = Scenario(Workspace((100.0, 100.0)),
                            (Rock(20.0, 20.0, "igneous"), Rock(24.5, 20.0, "sedimentary")))
        log = MissionLog(
            body_states=[(0.0, 20.0, 18.0, 0.0, 0.0, 0.0)],
            events=[DetectionEvent(0.0, (20.0, 18.0, 0.0), (0.0, 0.0), "igneous",
                                   (20.0, 20.0))])
        metrics = bleto.bench.score(log, scenario, 5.0, "bl-eto", 1)
        assert metrics.rocks_found == 1
        assert bleto.bench.scorecard_row(metrics, log, scenario,
                                         ExperimentConfig())["imaged"] == 1

    def test_ground_is_the_frustums_footprint_counted_once(self):
        # the default camera at pitch -20 deg from a 1 m mast sees the ground
        # from 1/tan(42.5 deg) = 1.09 m out to the 5 m range, over its 60 deg
        # field of view: (1/6) pi (5^2 - 1.09^2) = 12.47 m^2; the same image
        # twice sees that ground twice, and a third image turned by 180 deg
        # looks into the occlusion sector and sees none
        config = ExperimentConfig()
        scenario = Scenario(Workspace((100.0, 100.0)), ())
        pitch = math.radians(-20.0)

        def image(yaw):
            return DetectionEvent(0.0, (50.0, 50.0, 0.0), (yaw, pitch), "background", None)

        log = MissionLog(body_states=[(0.0, 50.0, 50.0, 0.0, 0.0, pitch)],
                         events=[image(0.0), image(0.0), image(math.pi)])
        metrics = bleto.bench.score(log, scenario, 5.0, "bl-eto", 1)
        row = bleto.bench.scorecard_row(metrics, log, scenario, config)
        footprint = math.pi / 6.0 * (5.0 ** 2 - (1.0 / math.tan(math.radians(42.5))) ** 2)
        assert row["ground_m2"] == pytest.approx(footprint, rel=0.05)
        assert row["images_per_ground"] == 2.0

    def test_ground_stops_at_the_workspace(self):
        # from a corner, facing out of the workspace, no cell is seen; facing
        # along an edge, half of the frustum's ground lies inside
        config = ExperimentConfig()
        scenario = Scenario(Workspace((100.0, 100.0)), ())
        pitch = math.radians(-20.0)
        rows = []
        for heading in (math.radians(225.0), 0.0):
            log = MissionLog(body_states=[(0.0, 0.0, 0.0, heading, 0.0, pitch)],
                             events=[DetectionEvent(0.0, (0.0, 0.0, heading), (0.0, pitch),
                                                    "background", None)])
            metrics = bleto.bench.score(log, scenario, 5.0, "bl-eto", 1)
            rows.append(bleto.bench.scorecard_row(metrics, log, scenario, config))
        assert (rows[0]["ground_m2"], rows[0]["images_per_ground"]) == (0.0, None)
        assert rows[1]["ground_m2"] == pytest.approx(12.47 / 2, rel=0.1)


class TestCli:
    def test_run_inspect_and_compare(self, tmp_path, capsys):
        config = write_config(tmp_path, {"mission": {"time_budget": 30.0},
                                         "seeds": [2]})
        trial = tmp_path / "trial"
        assert main(["run", "--config", config, "--out", str(trial)]) == EXIT_OK
        metrics = json.loads((trial / "metrics.json").read_text())
        assert metrics["seed"] == 2 and metrics["method"] == "bl-eto"
        capsys.readouterr()

        assert main(["inspect", "--log", str(trial)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert f"events: {metrics['images']} images, {metrics['detections']} detections" \
            in printed

        table = tmp_path / "table"
        assert main(["compare", "--config", config, "--out", str(table)]) == EXIT_OK
        rows = json.loads((table / "table.json").read_text())
        assert rows["seeds"] == [2]
        assert sorted(rows["methods"]) == sorted(bleto.bench.METHODS)

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("text,message", [
        ("{not json", "cannot read config"),
        (json.dumps({"mission": {"time_budget": 30.0}, "colour": 1}), "colour"),
        (None, "cannot read config"),
        # exited 1 with a UnicodeDecodeError traceback
        (b"\xff\xfe{}", "cannot read config"),
    ], ids=["malformed", "unknown-key", "missing-file", "not-utf8"])
    def test_bad_config_exits_with_config_status(self, tmp_path, capsys,
                                                 command, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["metrics.json", "detections.jsonl"])
    def test_inspect_of_a_file_that_is_no_json_exits_with_config_status(
            self, tmp_path, capsys, name):
        # exited 1 with a JSONDecodeError traceback
        (tmp_path / "metrics.json").write_text("{}")
        (tmp_path / name).write_text("{not json\n")
        assert main(["inspect", "--log", str(tmp_path)]) == EXIT_CONFIG
        assert f"cannot read {tmp_path / name}" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"time": 1},
        [1, 2],
        {"time": 1.0, "body_pose": [50, 50, 0], "camera_angles": [0, 0],
         "label": "igneous", "world_point": [10.0]},
    ], ids=["missing-keys", "not-an-object", "short-world-point"])
    def test_inspect_of_a_record_that_is_no_detection_exits_with_config_status(
            self, tmp_path, capsys, record):
        # the first exited 1 with a KeyError traceback
        (tmp_path / "metrics.json").write_text("{}")
        (tmp_path / "detections.jsonl").write_text(json.dumps(record) + "\n")
        assert main(["inspect", "--log", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read {tmp_path / 'detections.jsonl'}" in err
        assert "not a detection event" in err

    def test_inspect_names_the_nearest_rock(self, tmp_path, capsys):
        # each printed detection names the rock of scenario.json nearest it,
        # by index, class and distance
        scenario = Scenario(Workspace((100.0, 100.0)),
                            (Rock(80.0, 80.0, "igneous"), Rock(20.0, 20.0, "sedimentary")))
        (tmp_path / "scenario.json").write_text(scenario_to_json(scenario))
        (tmp_path / "metrics.json").write_text("{}")
        event = DetectionEvent(3.0, (20.0, 17.0, 0.0), (0.0, 0.0), "sedimentary",
                               (20.0, 20.25))
        (tmp_path / "detections.jsonl").write_text(json.dumps(event.to_json_dict()) + "\n")
        assert main(["inspect", "--log", str(tmp_path)]) == EXIT_OK
        assert ("sedimentary  at (20.00, 20.25)  nearest rock 1 (sedimentary) at 0.25 m"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"rocks": []}',
                                      '{"workspace": {"lengths": [1, 1], "lows": [0, 0]}, '
                                      '"rocks": [{"x": 0.5, "y": 0.5, "class": "basalt"}]}'],
                             ids=["not-json", "not-an-object", "no-workspace", "bad-class"])
    def test_inspect_of_an_unreadable_scenario_exits_with_config_status(
            self, tmp_path, capsys, text):
        (tmp_path / "metrics.json").write_text("{}")
        (tmp_path / "scenario.json").write_text(text)
        assert main(["inspect", "--log", str(tmp_path)]) == EXIT_CONFIG
        assert f"cannot read {tmp_path / 'scenario.json'}" in capsys.readouterr().err

    def test_inspect_rejects_a_negative_head(self, tmp_path, capsys):
        # printed every detection but the last
        (tmp_path / "metrics.json").write_text("{}")
        with pytest.raises(SystemExit) as exit_:
            main(["inspect", "--log", str(tmp_path), "--head", "-1"])
        assert exit_.value.code == EXIT_CONFIG
        assert "--head: must be a nonnegative integer, not '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_negative_seed_exits_with_config_status(self, tmp_path, capsys, command):
        # a negative seed used to exit 1 with numpy's "expected non-negative
        # integer" from the scenario's generator
        out = tmp_path / "out"
        assert main([command, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
        assert "seeds must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_is_the_missions_first_coarse_plan(self, tmp_path, monkeypatch):
        # record every solve of the mission; its first is the initial coarse
        # plan, and no other solve starts the body cold
        solves = []
        real_solve = bleto.planner.solve

        def recording_solve(problem, warm_start=None):
            solves.append((problem, warm_start, real_solve(problem, warm_start=warm_start)))
            return solves[-1][2]

        monkeypatch.setattr(bleto.planner, "solve", recording_solve)
        config = write_config(tmp_path, {"mission": {"time_budget": 30.0}})
        trial = tmp_path / "trial"
        assert main(["run", "--config", config, "--out", str(trial)]) == EXIT_OK
        cold_coarse = [s for s in solves
                       if s[1] is None and isinstance(s[0].model, UnicycleModel)]
        assert len(cold_coarse) == 1 and cold_coarse[0] is solves[0]

        lines = (trial / "solver_trace.csv").read_text().splitlines()
        assert lines[0] == "iter,J,E,grad_norm"
        first = solves[0][2].diagnostics.trace
        assert lines[1:] == [",".join(repr(v) for v in row) for row in first]
        problem = solves[0][0]
        assert 0 < len(first) <= problem.iteration_cap + 1

        # the trace comes with every trial; the old flag is an unknown option
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--config", config, "--trace"])
        assert exit_.value.code == EXIT_CONFIG
