"""Property tests: the coverage-memory identity, the map invariants and the
detection round trip.

Example counts are capped so that the module costs a few seconds.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bleto.ergodic import (CoverageCost, FourierBasis, OutsideWorkspaceError, Workspace,
                           ergodic_metric)
from bleto.infomap import (DetectionEvent, InfoMap, init_coarse,
                           register_detection, update_fine)
from bleto.planner import DEFAULT_EPICENTERS, BiLevelConfig, CoverageMemory
from bleto.world import (ROCK_CLASSES, CameraModel, Rock, Scenario,
                         classify_view, project_detection)
from oracles import reference_memory_add, trajectory_coefficients

COARSE = Workspace((100.0, 100.0))
FINE = Workspace((math.radians(270.0), math.radians(120.0)),
                 (math.radians(-135.0), math.radians(-90.0)))
BASIS = FourierBasis(COARSE, 10)
FINE_BASIS = FourierBasis(FINE, 8)

unit = st.floats(0.0, 1.0, allow_nan=False)


def points(n):
    """n points of the coarse workspace, as (n, 2) arrays."""
    return arrays(np.float64, (n, 2), elements=unit).map(lambda a: a * COARSE.lengths)


@st.composite
def history_and_plan(draw):
    past = draw(st.integers(1, 60).flatmap(points))
    plan = draw(st.integers(2, 48).flatmap(points))
    phi = draw(arrays(np.float64, len(BASIS),
                      elements=st.floats(-0.02, 0.02, allow_subnormal=False)))
    return past, plan, phi


class TestCoverageMemoryIdentity:
    @settings(max_examples=60, deadline=None)
    @given(history_and_plan())
    def test_residual_target_scores_the_concatenated_trajectory(self, case):
        # N past points averaging h and a T-point plan with coefficients c:
        # the metric of the whole (N + T)-point trajectory against phi is
        # (T / (N + T))^2 times the plan's metric against the residual target
        past, plan, phi = case
        N, T = past.shape[0], plan.shape[0]
        memory = CoverageMemory(BASIS, past)
        whole = (N * memory.average() + T * trajectory_coefficients(BASIS, plan)) / (N + T)
        direct = ergodic_metric(BASIS, whole, phi)
        folded = CoverageCost(BASIS, plan, memory.residual_target(phi, T)).cost
        assert math.isclose(direct, (T / (N + T)) ** 2 * folded, rel_tol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["coarse", "fine"]),
           st.lists(st.tuples(unit, unit), min_size=1, max_size=30))
    def test_one_point_add_matches_the_many_point_path(self, level, samples):
        # the body's and the camera's memories, one sample after another;
        # unit offsets 0 and 1 put samples on the workspace faces
        ws, basis = (COARSE, BASIS) if level == "coarse" else (FINE, FINE_BASIS)
        start = ws.lows + 0.5 * ws.lengths
        memory, reference = CoverageMemory(basis, [start]), CoverageMemory(basis, [start])
        for a, b in samples:
            point = tuple(ws.lows + np.array([a, b]) * ws.lengths)
            memory.add(point)
            reference_memory_add(reference, [point])
            assert memory.count == reference.count
            assert np.array_equal(memory._fsum.view(np.int64), reference._fsum.view(np.int64))
        outside = ws.highs + (0.0, 1e-6)
        with pytest.raises(OutsideWorkspaceError):
            memory.add(outside)
        with pytest.raises(OutsideWorkspaceError):
            reference_memory_add(reference, [outside])


coarse_update = st.tuples(st.just("coarse"), unit, unit, st.booleans())
fine_update = st.tuples(st.just("fine"), unit, unit, st.booleans())
# the mission's map updates: a coarse bump, and a fine bump or view discount
COARSE_BUMP = dict(amplitude=50.0, sigma=1.5, factor=1.0)
FINE_UPDATE = dict(amplitude=20.0, sigma=math.radians(5.0), factor=1.0, discount=0.5,
                   view_half_widths=(math.radians(30.0), math.radians(22.5)))


class TestMapInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(coarse_update, fine_update), min_size=1, max_size=25))
    def test_mass_and_floor_hold_after_any_update_sequence(self, updates):
        coarse = init_coarse(COARSE, (100, 100), DEFAULT_EPICENTERS)
        fine = InfoMap(FINE, np.ones((54, 24)))
        for level, a, b, detected in updates:
            if level == "coarse":
                point = tuple(COARSE.lows + np.array([a, b]) * COARSE.lengths)
                label = "igneous" if detected else "background"
                event = DetectionEvent(0.0, (50.0, 50.0, 0.0), (0.0, -0.4), label,
                                       point if detected else None)
                before = coarse.density.copy()
                updated = register_detection(coarse, event, **COARSE_BUMP)
                assert np.array_equal(coarse.density, before)
                coarse = updated
            else:
                angles = tuple(FINE.lows + np.array([a, b]) * FINE.lengths)
                fine = update_fine(fine, angles, detected, **FINE_UPDATE)
            coarse.check_invariants()
            fine.check_invariants()


# a noise-free camera that classifies every rock it sees, and the mission's
# occlusion sector
CAMERA = CameraModel(true_positive_rate=1.0)
YAW_LIMIT = BiLevelConfig.yaw_limit


@st.composite
def rock_views(draw):
    """A body pose, one to four rocks within range of it, and camera angles
    that hold the first rock inside the frustum."""
    x, y, heading = (draw(st.floats(10.0, 90.0)), draw(st.floats(10.0, 90.0)),
                     draw(st.floats(-math.pi, math.pi)))
    polar = draw(st.lists(st.tuples(st.floats(0.05, 0.999 * CAMERA.max_range),
                                    st.floats(-0.95, 0.95).map(lambda f: f * YAW_LIMIT),
                                    st.sampled_from(ROCK_CLASSES)),
                          min_size=1, max_size=4))
    rocks = tuple(Rock(x + dist * math.cos(heading + bearing),
                       y + dist * math.sin(heading + bearing), kind)
                  for dist, bearing, kind in polar)
    dist, bearing, _ = polar[0]
    yaw = bearing + draw(st.floats(-0.45, 0.45)) * CAMERA.hfov
    pitch = (math.atan2(-CAMERA.mount_height, dist)
             + draw(st.floats(-0.45, 0.45)) * CAMERA.vfov)
    return Scenario(COARSE, rocks), (x, y, heading), (yaw, pitch)


class TestDetectionRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(rock_views())
    # two rocks of different classes at one point: no distance tie may
    # decide which class the detection has to match
    @example((Scenario(COARSE, (Rock(11.0, 10.0, "sedimentary"),
                                Rock(11.0, 10.0, "igneous"))),
              (10.0, 10.0, 0.0), (0.0, -math.pi / 4)))
    def test_projected_detection_lands_on_the_classified_rock(self, view):
        scenario, body, angles = view
        label, offset = classify_view(scenario, CAMERA, body, angles, YAW_LIMIT,
                                      np.random.default_rng(0))
        assert label != "background"
        x, y = project_detection(body, angles, CAMERA, offset, workspace=COARSE)
        assert any(math.hypot(x - r.x, y - r.y) <= 1e-9 and r.kind == label
                   for r in scenario.rocks)
