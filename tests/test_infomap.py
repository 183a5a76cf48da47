import math

import numpy as np
import pytest

from bleto.ergodic import FourierBasis, Workspace, map_coefficients
from bleto.infomap import (DetectionEvent, InfoMap, init_coarse,
                           load_detections_jsonl, project_to_fine,
                           register_detection, save_csv, save_detections_jsonl,
                           save_pgm, update_fine)
from bleto.world import CameraModel


@pytest.fixture
def ws():
    return Workspace((100.0, 100.0))


@pytest.fixture
def fine_ws():
    return Workspace((math.radians(270.0), math.radians(120.0)),
                     (math.radians(-135.0), math.radians(-90.0)))


def detection(x, y, label="igneous", t=0.0):
    return DetectionEvent(time=t, body_pose=(x, y, 0.0), camera_angles=(0.0, -0.4),
                          label=label, world_point=(x, y))


def background(t=0.0):
    return DetectionEvent(time=t, body_pose=(0.0, 0.0, 0.0),
                          camera_angles=(0.0, -0.4), label="background",
                          world_point=None)


class TestDetectionEvent:
    def test_background_must_lack_point(self):
        with pytest.raises(ValueError):
            DetectionEvent(0.0, (0, 0, 0), (0, 0), "background", (1.0, 2.0))

    def test_detection_must_have_point(self):
        with pytest.raises(ValueError):
            DetectionEvent(0.0, (0, 0, 0), (0, 0), "igneous", None)

    def test_jsonl_round_trip(self, tmp_path):
        events = [detection(30.0, 40.0, t=1.5), background(t=2.0)]
        path = tmp_path / "events.jsonl"
        save_detections_jsonl(events, path)
        loaded = load_detections_jsonl(path)
        assert loaded == events


class TestInitCoarse:
    def test_uniform_density_level(self, ws):
        imap = init_coarse(ws, (100, 100))
        assert np.allclose(imap.density, 1e-4, rtol=1e-9)
        assert abs(imap.integral() - 1.0) < 1e-9

    def test_whole_workspace_epicenter_cancels(self, ws):
        flat = init_coarse(ws, (50, 50))
        scaled = init_coarse(ws, (50, 50), [((0.0, 0.0, 100.0, 100.0), 5.0)])
        assert np.allclose(flat.density, scaled.density, rtol=1e-12)

    def test_epicenter_mass_fraction(self, ws):
        rects = [((20.0, 60.0, 20.0, 15.0), 5.0), ((70.0, 25.0, 20.0, 15.0), 5.0)]
        imap = init_coarse(ws, (100, 100), rects)
        centers = imap.axis_centers()
        mass = 0.0
        for (x0, y0, w, h), _m in rects:
            in_x = (centers[0] >= x0) & (centers[0] <= x0 + w)
            in_y = (centers[1] >= y0) & (centers[1] <= y0 + h)
            mass += imap.density[np.ix_(in_x, in_y)].sum() * imap.cell_area
        a_rect = 2 * 20.0 * 15.0
        expect = 5.0 * a_rect / (5.0 * a_rect + (1e4 - a_rect))
        assert mass == pytest.approx(expect, rel=1e-4)

    def test_rectangle_outside_rejected(self, ws):
        with pytest.raises(ValueError):
            init_coarse(ws, (10, 10), [((95.0, 95.0, 10.0, 10.0), 2.0)])


class TestRegisterDetection:
    def test_background_is_identity(self, ws):
        imap = init_coarse(ws, (100, 100))
        out = register_detection(imap, background())
        assert out is imap

    def test_first_detection_peaks_at_point(self, ws):
        imap = init_coarse(ws, (100, 100),
                           [((20.0, 60.0, 15.0, 20.0), 5.0)])
        out = register_detection(imap, detection(30.0, 40.0), amplitude=50.0,
                                 sigma=1.5)
        idx = np.unravel_index(np.argmax(out.density), out.shape)
        centers = out.axis_centers()
        assert abs(centers[0][idx[0]] - 30.0) <= 1.0
        assert abs(centers[1][idx[1]] - 40.0) <= 1.0
        assert abs(out.integral() - 1.0) < 1e-9

    def test_second_nearby_detection_clipped(self, ws):
        imap = init_coarse(ws, (100, 100))
        one = register_detection(imap, detection(30.0, 40.0))
        two = register_detection(one, detection(30.2, 40.1), amplitude=50.0,
                                 sigma=1.5, factor=0.1)
        # bump added on top of `one` is everywhere at most ~0.1 * 50 * uniform
        diff = two.density * (1.0 + 0.0) - one.density
        # account for renormalization: compare against a generous cap
        cap = 0.1 * 50.0 * imap.uniform_level() * 1.05
        assert diff.max() <= cap
        assert abs(two.integral() - 1.0) < 1e-9

    def test_far_detection_not_clipped(self, ws):
        imap = init_coarse(ws, (100, 100))
        one = register_detection(imap, detection(30.0, 40.0))
        two = register_detection(one, detection(70.0, 80.0))
        diff = two.density - one.density
        assert diff.max() > 0.5 * 50.0 * imap.uniform_level()


class TestFloorAndNormalization:
    def test_floor_holds_after_many_updates(self, ws):
        imap = init_coarse(ws, (50, 50))
        rng = np.random.default_rng(1)
        for i in range(30):
            x, y = rng.uniform(5, 95, 2)
            imap = register_detection(imap, detection(x, y, t=float(i)))
            imap.check_invariants()
            assert imap.density.min() >= imap.floor_level()

    def test_check_rejects_non_finite_density(self, ws):
        # a NaN used to pass both checks: every comparison with NaN is false
        values = np.ones((10, 10))
        values[3, 4] = math.nan
        with pytest.raises(AssertionError, match="not finite"):
            InfoMap(ws, values).check_invariants()

    def test_density_forbidden_to_mutate(self, ws):
        imap = init_coarse(ws, (10, 10))
        with pytest.raises(ValueError):
            imap.density[0, 0] = 3.0


class TestUpdateFine:
    def test_discount_halves_viewed_window(self, fine_ws):
        imap = InfoMap(fine_ws, np.ones((54, 24)))
        out = update_fine(imap, (0.0, math.radians(-30.0)), detected=False,
                          discount=0.5)
        ratio = out.density / imap.density
        # viewed cells dropped relative to the rest, mass renormalized to 1
        # (the positivity floor mixes in ~2e-6 of uniform, hence the slack)
        assert ratio.min() == pytest.approx(0.5 * ratio.max(), rel=1e-5)
        assert abs(out.integral() - 1.0) < 1e-9

    def test_detection_bump_is_argmax(self, fine_ws):
        imap = InfoMap(fine_ws, np.ones((54, 24)))
        angles = (0.0, math.radians(-20.0))
        out = update_fine(imap, angles, detected=True)
        idx = np.unravel_index(np.argmax(out.density), out.shape)
        centers = out.axis_centers()
        assert abs(centers[0][idx[0]] - angles[0]) <= math.radians(5.0)
        assert abs(centers[1][idx[1]] - angles[1]) <= math.radians(5.0)

    def test_repeat_detection_clipped(self, fine_ws):
        imap = InfoMap(fine_ws, np.ones((54, 24)))
        angles = (0.3, math.radians(-25.0))
        one = update_fine(imap, angles, detected=True)
        two = update_fine(one, angles, detected=True, factor=0.1)
        gain_one = one.density.max() - imap.density.max()
        gain_two = two.density.max() - one.density.max()
        assert gain_two <= 0.15 * gain_one


class TestProjectToFine:
    def test_uniform_coarse_gives_uniform_ground_cells(self, ws, fine_ws):
        coarse = init_coarse(ws, (100, 100))
        cam = CameraModel(mount_height=1.0)
        fine = project_to_fine(coarse, (50.0, 50.0, 0.0), cam, fine_ws, (54, 24))
        centers = fine.axis_centers()
        down = centers[1] < 0.0
        ground = fine.density[:, down]
        sky = fine.density[:, ~down]
        # rays from the middle of a 100 m box all land inside for |pitch|>1.1deg
        interior = ground[:, np.abs(np.degrees(centers[1][down])) > 2.0]
        assert interior.std() / interior.mean() < 1e-6
        assert sky.max() < 0.01 * interior.mean()
        assert abs(fine.integral() - 1.0) < 1e-9

    def test_horizon_row_gets_floor(self, ws):
        fine_ws = Workspace((math.radians(270.0), math.radians(120.0)),
                            (math.radians(-135.0), math.radians(-90.0)))
        coarse = init_coarse(ws, (100, 100))
        cam = CameraModel(mount_height=1.0)
        # 30 pitch cells of 4 deg: one row center sits exactly at pitch 0
        fine = project_to_fine(coarse, (50.0, 50.0, 0.0), cam, fine_ws, (27, 30))
        centers = fine.axis_centers()
        row = int(np.argmin(np.abs(centers[1])))
        assert abs(centers[1][row]) < 1e-12
        assert np.allclose(fine.density[:, row], fine.density.min())

    def test_view_with_no_ground_in_the_workspace_is_uniform(self, ws, fine_ws):
        # from a 2000 m mast every downward ray lands more than 87 m out, so
        # every cell gets only the floor; this raised "map has no mass"
        coarse = init_coarse(ws, (100, 100))
        cam = CameraModel(mount_height=2000.0)
        fine = project_to_fine(coarse, (50.0, 50.0, 0.0), cam, fine_ws, (54, 24))
        assert np.all(fine.density == fine.density[0, 0])
        assert abs(fine.integral() - 1.0) < 1e-9

    def test_bump_ahead_lands_at_expected_pitch(self, ws, fine_ws):
        coarse = init_coarse(ws, (100, 100))
        pose = (49.5, 49.5, 0.0)
        bump_at = (52.5, 49.5)  # a cell center 3 m in front of the rover
        coarse = register_detection(coarse, detection(*bump_at), amplitude=80.0,
                                    sigma=0.8)
        cam = CameraModel(mount_height=1.0)
        fine = project_to_fine(coarse, pose, cam, fine_ws, (108, 96))
        idx = np.unravel_index(np.argmax(fine.density), fine.shape)
        centers = fine.axis_centers()
        yaw = centers[0][idx[0]]
        pitch = centers[1][idx[1]]
        # the brightest viewing direction must look straight at the bump:
        # its ray lands on the bump cell, at depression atan(1/3) ~ 18.4 deg
        dist = cam.mount_height / math.tan(-pitch)
        hit = (pose[0] + dist * math.cos(yaw), pose[1] + dist * math.sin(yaw))
        assert math.hypot(hit[0] - bump_at[0], hit[1] - bump_at[1]) <= 0.8
        assert abs(pitch - (-math.atan2(1.0, 3.0))) <= math.radians(5.0)
        assert abs(yaw) <= math.radians(10.0)
        # the nominal direction itself carries the peak value
        eyaw = int(np.argmin(np.abs(centers[0])))
        epitch = int(np.argmin(np.abs(centers[1] - (-math.atan2(1.0, 3.0)))))
        assert fine.density[eyaw, epitch] == pytest.approx(fine.density.max(),
                                                           rel=1e-9)

    def test_rays_outside_workspace_get_floor(self, ws, fine_ws):
        coarse = init_coarse(ws, (100, 100))
        cam = CameraModel(mount_height=1.0)
        # rover at the west edge looking west: shallow rays exit the workspace
        fine = project_to_fine(coarse, (0.5, 50.0, math.pi), cam, fine_ws, (54, 24))
        centers = fine.axis_centers()
        shallow = int(np.argmin(np.abs(np.degrees(centers[1]) + 3.0)))
        ahead = int(np.argmin(np.abs(centers[0])))
        assert fine.density[ahead, shallow] == pytest.approx(fine.density.min())


class TestExports:
    def test_pgm_round_trip_shape(self, ws, tmp_path):
        imap = init_coarse(ws, (40, 30))
        path = tmp_path / "m.pgm"
        save_pgm(imap, path)
        raw = path.read_bytes()
        header, rest = raw.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        w, h = (int(t) for t in dims.split())
        assert (w, h) == (40, 30)
        maxv, pixels = rest.split(b"\n", 1)
        assert maxv == b"255"
        assert len(pixels) == 40 * 30

    def test_csv_preserves_densities(self, ws, tmp_path):
        imap = init_coarse(ws, (20, 20))
        imap = register_detection(imap, detection(40.0, 40.0))
        path = tmp_path / "m.csv"
        save_csv(imap, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.allclose(back, imap.density, rtol=1e-12)
