import json
import math

import numpy as np
import pytest

from bleto.bench import ExperimentConfig, build_scenario
from bleto.ergodic import Workspace
from bleto.planner import BiLevelConfig
from bleto.world import (CameraModel, Rock, Scenario, classify_view, generate_scenario,
                         project_detection, scenario_from_json, scenario_to_json, sees)
from oracles import reference_sees


# the mission's occlusion sector, which it passes to the oracle
YAW_LIMIT = BiLevelConfig.yaw_limit
# the default coarse workspace, which holds every scenario's rocks
SQUARE = Workspace((100.0, 100.0))


def deg(a):
    return math.radians(a)


@pytest.fixture
def camera():
    return CameraModel(true_positive_rate=1.0)


class TestGenerateScenario:
    def test_same_seed_identical(self):
        # the JSON form holds the seed, the workspace and every rock; its
        # digest is what pairs the methods' scenarios in ``bench.compare``
        a = generate_scenario(42, 21, "uniform", SQUARE, ())
        b = generate_scenario(42, 21, "uniform", SQUARE, ())
        assert scenario_to_json(a) == scenario_to_json(b)

    def test_zero_rocks(self):
        s = generate_scenario(1, 0, "uniform", SQUARE, ())
        assert s.rocks == ()

    def test_default_count(self):
        assert len(build_scenario(ExperimentConfig(), 3).rocks) == 21

    def test_quadrant_counts_uniform(self):
        # chi-square style check: each quadrant within 3 sigma of 25%
        s = generate_scenario(123, 100_000, "uniform", SQUARE, ())
        pos = np.array([[r.x, r.y] for r in s.rocks])
        n = pos.shape[0]
        p = 0.25
        sigma = math.sqrt(n * p * (1 - p))
        for qx in (0, 1):
            for qy in (0, 1):
                count = np.sum((pos[:, 0] >= 50 * qx) & (pos[:, 0] < 50 * (qx + 1))
                               & (pos[:, 1] >= 50 * qy) & (pos[:, 1] < 50 * (qy + 1)))
                assert abs(count - n * p) < 3 * sigma

    def test_classes_fair(self):
        s = generate_scenario(7, 10_000, "uniform", SQUARE, ())
        igneous = sum(1 for r in s.rocks if r.kind == "igneous")
        assert abs(igneous - 5000) < 3 * math.sqrt(10_000 * 0.25)

    def test_epicenter_bias_mode(self):
        rects = [((20.0, 60.0, 15.0, 20.0), 5.0)]
        s = generate_scenario(5, 4000, "epicenter-biased", SQUARE, rects)
        inside = sum(1 for r in s.rocks
                     if 20 <= r.x <= 35 and 60 <= r.y <= 80)
        # about half biased into 3% of the area plus the uniform share
        assert inside > 1800

    def test_json_round_trip(self):
        s = generate_scenario(11, 5, "uniform", SQUARE, ())
        again = scenario_from_json(scenario_to_json(s))
        assert again.rocks == s.rocks
        assert again.seed == s.seed

    def test_json_with_three_axes_rejected(self):
        d = json.loads(scenario_to_json(generate_scenario(11, 0, "uniform", SQUARE, ())))
        d["workspace"] = {"lengths": [100.0, 100.0, 10.0], "lows": [0.0, 0.0, 0.0]}
        with pytest.raises(ValueError, match="workspace is planar"):
            scenario_from_json(json.dumps(d))


class TestClassifyView:
    def test_rock_ahead_in_frustum(self, camera):
        ws = Workspace((100.0, 100.0))
        scenario = Scenario(ws, (Rock(54.0, 50.0, "sedimentary"),))
        rng = np.random.default_rng(0)
        # depression of a rock 4 m ahead from 1 m mast: atan(1/4) ~ 14.0 deg
        label, offset = classify_view(scenario, camera, (50.0, 50.0, 0.0),
                                      (0.0, deg(-14.0)), YAW_LIMIT, rng)
        assert label == "sedimentary"
        d_az, d_el = offset
        assert abs(d_az) < 1e-12
        assert abs(d_el - (deg(-14.036) - deg(-14.0))) < 1e-3

    def test_rock_beyond_range_is_background(self, camera):
        ws = Workspace((100.0, 100.0))
        scenario = Scenario(ws, (Rock(56.0, 50.0, "igneous"),))
        rng = np.random.default_rng(0)
        label, offset = classify_view(scenario, camera, (50.0, 50.0, 0.0),
                                      (0.0, deg(-10.0)), YAW_LIMIT, rng)
        assert label == "background"
        assert offset is None

    def test_rock_behind_occlusion_unreachable(self, camera):
        ws = Workspace((100.0, 100.0))
        bearing = deg(140.0)
        rock = Rock(50.0 + 3.0 * math.cos(bearing), 50.0 + 3.0 * math.sin(bearing),
                    "igneous")
        scenario = Scenario(ws, (rock,))
        rng = np.random.default_rng(0)
        # even with the camera at its yaw limit the body blocks the ray
        label, _ = classify_view(scenario, camera, (50.0, 50.0, 0.0),
                                 (deg(134.0), deg(-18.0)), YAW_LIMIT, rng)
        assert label == "background"

    def test_nearest_rock_wins(self, camera):
        ws = Workspace((100.0, 100.0))
        scenario = Scenario(ws, (Rock(53.0, 50.0, "igneous"),
                                 Rock(54.5, 50.0, "sedimentary")))
        rng = np.random.default_rng(0)
        label, _ = classify_view(scenario, camera, (50.0, 50.0, 0.0),
                                 (0.0, deg(-20.0)), YAW_LIMIT, rng)
        assert label == "igneous"

    def test_true_positive_rate_statistics(self):
        ws = Workspace((100.0, 100.0))
        scenario = Scenario(ws, (Rock(53.0, 50.0, "igneous"),))
        cam = CameraModel(true_positive_rate=0.973)
        rng = np.random.default_rng(9)
        hits = sum(
            classify_view(scenario, cam, (50.0, 50.0, 0.0),
                          (0.0, deg(-18.4)), YAW_LIMIT, rng)[0] != "background"
            for _ in range(20_000))
        assert abs(hits / 20_000 - 0.973) < 0.005

    def test_seeded_determinism(self):
        ws = Workspace((100.0, 100.0))
        scenario = Scenario(ws, (Rock(53.0, 50.0, "igneous"),))
        cam = CameraModel()
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            outs.append([classify_view(scenario, cam, (50.0, 50.0, 0.0),
                                       (0.0, deg(-18.4)), YAW_LIMIT, rng)
                         for _ in range(50)])
        assert outs[0] == outs[1]


class TestSees:
    def test_matches_the_scalar_test_point_by_point(self):
        # random poses, aims and points within 6 m, so that every clause of
        # the test (range, occlusion, azimuth, elevation) decides some points
        rng = np.random.default_rng(9)
        camera = CameraModel()
        checked = 0
        for _ in range(200):
            pose = (*rng.uniform(0.0, 100.0, 2), rng.uniform(-10.0, 10.0))
            angles = (rng.uniform(-YAW_LIMIT, YAW_LIMIT), rng.uniform(deg(-90.0), deg(30.0)))
            points = np.array(pose[:2]) + rng.uniform(-6.0, 6.0, (50, 2))
            got = sees(camera, pose, angles, YAW_LIMIT, points)
            assert got.tolist() == [reference_sees(camera, pose, angles, YAW_LIMIT, p)
                                    for p in points]
            checked += int(got.sum())
        assert 0 < checked < 200 * 50


class TestProjectDetection:
    def test_forty_five_down_lands_one_meter_out(self, camera):
        pt = project_detection((10.0, 20.0, 0.0), (0.0, deg(-45.0)), camera,
                               (0.0, 0.0), SQUARE)
        assert pt[0] == pytest.approx(11.0, abs=1e-12)
        assert pt[1] == pytest.approx(20.0, abs=1e-12)

    def test_shallow_ray_lands_four_meters_out(self, camera):
        pt = project_detection((10.0, 20.0, 0.0), (0.0, deg(-14.036)), camera,
                               (0.0, 0.0), SQUARE)
        assert pt[0] == pytest.approx(14.0, abs=1e-3)

    def test_upward_ray_rejected(self, camera):
        with pytest.raises(ValueError):
            project_detection((0.0, 0.0, 0.0), (0.0, deg(5.0)), camera,
                              (0.0, 0.0), SQUARE)

    def test_round_trip_localizes_rocks(self, camera):
        # classify then project: the recovered point must sit on the rock
        ws = Workspace((100.0, 100.0))
        rng = np.random.default_rng(13)
        for _ in range(200):
            body = (*rng.uniform(20, 80, 2), rng.uniform(-math.pi, math.pi))
            bearing = rng.uniform(-deg(120), deg(120))
            dist = rng.uniform(1.0, 4.9)
            rock = Rock(body[0] + dist * math.cos(body[2] + bearing),
                        body[1] + dist * math.sin(body[2] + bearing), "igneous")
            scenario = Scenario(ws, (rock,))
            angles = (bearing + rng.uniform(-deg(10), deg(10)),
                      -math.atan2(1.0, dist) + rng.uniform(-deg(8), deg(8)))
            label, offset = classify_view(scenario, camera, body, angles, YAW_LIMIT, rng)
            if label == "background":
                continue
            pt = project_detection(body, angles, camera, offset, workspace=ws)
            assert math.hypot(pt[0] - rock.x, pt[1] - rock.y) < 0.5
            assert math.hypot(pt[0] - body[0], pt[1] - body[1]) <= 5.5


class TestCameraModel:
    def test_fov_validation(self):
        with pytest.raises(ValueError):
            CameraModel(hfov=0.0)
        with pytest.raises(ValueError):
            CameraModel(max_range=-1.0)

    def test_rock_class_validation(self):
        with pytest.raises(ValueError):
            Rock(1.0, 2.0, "granite")

    def test_rock_outside_workspace_rejected(self):
        ws = Workspace((100.0, 100.0))
        with pytest.raises(ValueError):
            Scenario(ws, (Rock(101.0, 5.0, "igneous"),))
