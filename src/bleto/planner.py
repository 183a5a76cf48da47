"""Bi-level mission executive: coarse body planning, fine camera planning,
imaging, and detection-driven map updates.

The loop structure: plan a body trajectory against the coarse map, then for
each body step run one camera sweep and step the body.  The three methods
share that loop and the sweep; they differ only in the sweep's aim step
before each image.  The optimized camera slews to the next state of a
short camera plan against the fine map, replanning first when the last
image was a detection; the random camera points at a uniform draw over
its workspace; the fixed camera does not move and takes one image per
sweep.  Each image updates the maps.  A sweep that identified at least
one rock triggers a body replan once it completes; an exhausted body plan
is replaced as well.  The simulated clock is charged for body motion,
camera slews, image inference, and planning, so methods that image more
drive less within the same mission budget.  One clock rule holds for every
method: every action charges the clock before it acts, and the first charge
made at or after the budget ends the mission, so no action starts after it.

Coverage memory: every ergodic plan, the body's and the optimized camera's,
aims the metric at the time-averaged statistics of the path already taken
plus the plan, not the plan's in isolation.  The body's memory spans the
mission; the camera's restarts with each fine-map projection.  This is
folded into a residual coefficient target so the solver itself stays
history-free: with N past samples averaging h_k over the executed path, a
horizon-T plan minimizing the metric of the concatenated trajectory
equivalently minimizes the plain metric against  phi_k + (N/T) (phi_k - h_k)
up to a positive constant factor.

The mission loop is single-threaded and deterministic for a given seed;
run independent missions concurrently if you need parallelism.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from . import infomap as im
from . import world as ws
from .dynamics import ControlBounds, SingleIntegratorModel, UnicycleModel
from .ergodic import FourierBasis, Workspace, ergodic_metric, map_coefficients
from .solver import ErgodicProblem, _least_step_cap, shift_warm_start, solve

__all__ = [
    "BiLevelConfig",
    "CoverageMemory",
    "MissionLog",
    "Mission",
    "ergodic_coarse_planner",
    "ergodic_fine_planner",
]

DEFAULT_EPICENTERS = (((20.0, 60.0, 15.0, 20.0), 5.0),
                      ((70.0, 25.0, 15.0, 20.0), 5.0))
# the planner's tuning: grids, modes, control weights, solver effort, map updates
_COARSE_RESOLUTION = (100, 100)
_FINE_RESOLUTION = (54, 24)
_COARSE_MODES = 10
_FINE_MODES = 8
_COARSE_CONTROL_WEIGHT = 1e-6
_FINE_CONTROL_WEIGHT = 1e-2
# per-replan solver effort: a cold plan runs at the full caps; inside a
# mission, replans are warm-started and polish is wasted time
_COARSE_INNER_CAP = 150
_COARSE_OUTER_ROUNDS = 6
_COARSE_OPTIMALITY_TOL = 1e-2
_COARSE_WARM_INNER_CAP = 60
_COARSE_WARM_OUTER_ROUNDS = 2
_FINE_INNER_CAP = 40
_FINE_OUTER_ROUNDS = 3
_FINE_OPTIMALITY_TOL = 5e-2
_COARSE_BUMP_AMPLITUDE = 50.0
_COARSE_BUMP_SIGMA = 1.5
_COARSE_CLIP_RADIUS = 2.0
_FINE_BUMP_AMPLITUDE = 20.0
_FINE_BUMP_SIGMA = math.radians(5.0)
_FINE_CLIP_RADIUS = math.radians(10.0)
_CLIP_FACTOR = 0.1
_VIEW_DISCOUNT = 0.5


@dataclass
class BiLevelConfig:
    """The problem a mission solves: the workspaces, the robot's limits,
    the clocks and the mission itself; defaults are the desk-scale
    scenario.  The planner's tuning is the ``_``-constants beside it.

    Each field holds a value of its annotation, every number finite
    (``world.check_fields``); this class checks only values and relations,
    a message naming each field of a broken relation, so that a config
    that constructs runs its mission to the end."""

    # workspaces
    coarse_lengths: Tuple[float, float] = (100.0, 100.0)
    coarse_lows: Tuple[float, float] = (0.0, 0.0)
    epicenters: Tuple[Tuple[Tuple[float, float, float, float], float], ...] = DEFAULT_EPICENTERS
    # half-width of the camera's yaw range and of the unoccluded sector the
    # detection oracle sees through: the body blocks the bearings beyond it
    yaw_limit: float = math.radians(135.0)
    pitch_bounds: Tuple[float, float] = (math.radians(-90.0), math.radians(30.0))
    # horizons and step times
    coarse_horizon: int = 48
    fine_horizon: int = 5
    coarse_dt: float = 15.0
    fine_dt: float = 0.4
    # actuation limits
    body_speed_max: float = 0.3
    body_turn_max: float = 0.5
    body_step_cap: float = 6.75
    camera_rate_max: float = 0.6
    camera_step_cap: float = 0.36
    # body steps between receding coarse replans
    replan_interval: int = 1
    # simulated-time charges
    coarse_plan_time: float = 2.0
    fine_plan_time: float = 0.5
    image_time: float = 0.139
    # mission
    time_budget: float = 5400.0
    start_pose: Tuple[float, float, float] = (50.0, 50.0, 0.0)
    camera_start: Tuple[float, float] = (0.0, math.radians(-20.0))
    camera_mode: str = "optimized"  # optimized | fixed | random
    fixed_pitch: float = math.radians(-55.0)

    def __post_init__(self):
        ws.check_fields(self)
        if self.camera_mode not in ("optimized", "fixed", "random"):
            raise ValueError(f"unknown camera mode {self.camera_mode!r}")
        if self.coarse_horizon < 2 or self.fine_horizon < 2:
            raise ValueError("horizons must be at least 2 steps")
        if self.replan_interval < 1:
            raise ValueError("replan_interval must be at least 1")
        for name in ("coarse_dt", "fine_dt", "time_budget", "body_speed_max", "body_turn_max",
                     "camera_rate_max", "body_step_cap", "camera_step_cap", "yaw_limit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("coarse_plan_time", "fine_plan_time", "image_time"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not self.yaw_limit <= math.pi:
            raise ValueError("yaw_limit must lie in (0, pi]")
        if not all(v > 0 for v in self.coarse_lengths):
            raise ValueError("coarse_lengths must be positive")
        pitch_lo, pitch_hi = self.pitch_bounds
        if not pitch_lo < pitch_hi:
            raise ValueError("pitch_bounds must be increasing")
        if not pitch_lo <= self.fixed_pitch <= pitch_hi:
            raise ValueError("fixed_pitch lies outside pitch_bounds")
        # the lengths, yaw and pitch checks above let both workspaces build
        coarse, fine = self.coarse_workspace(), self.fine_workspace()
        if not coarse.contains(self.start_pose[:2]):
            raise ValueError("start_pose lies outside the coarse workspace "
                             "of coarse_lows and coarse_lengths")
        if not fine.contains(self.camera_start):
            raise ValueError("camera_start lies outside the fine workspace "
                             "of yaw_limit and pitch_bounds")
        # a cap that an initial guess of the solver can step past leaves it
        # no feasible start (``solver._least_step_cap``); a cap longer than
        # its workspace's diagonal never binds
        body_longest = self.coarse_dt * self.body_speed_max
        camera_longest = self.fine_dt * math.hypot(self.camera_rate_max, self.camera_rate_max)
        for name, longest, lengths, inputs in (
                ("body_step_cap", body_longest, coarse.lengths,
                 "coarse_dt, body_speed_max and coarse_lengths"),
                ("camera_step_cap", camera_longest, fine.lengths,
                 "fine_dt, camera_rate_max, yaw_limit and pitch_bounds")):
            cap, diagonal = getattr(self, name), math.hypot(*lengths)
            least = _least_step_cap(longest, lengths)
            if not cap >= least:
                raise ValueError(f"{name} must be at least {least!r}: the longest step of "
                                 f"the control box plus the solver's guess offsets ({inputs})")
            if not cap <= diagonal:
                raise ValueError(f"{name} must be at most {diagonal!r}, "
                                 "the diagonal of its workspace")
        for rect, multiplier in self.epicenters:
            x0, y0, w, h = rect
            if not (w > 0 and h > 0):
                raise ValueError(f"epicenters: {list(rect)} needs a positive width and height")
            if not coarse.contains([(x0, y0), (x0 + w, y0 + h)]).all():
                raise ValueError(f"epicenters: {list(rect)} lies outside the coarse workspace")
            if not multiplier >= 1:
                raise ValueError("epicenters: multipliers must be at least 1")

    # derived objects ------------------------------------------------------

    def coarse_workspace(self):
        return Workspace(self.coarse_lengths, self.coarse_lows)

    def fine_workspace(self):
        pitch_lo, pitch_hi = self.pitch_bounds
        return Workspace((2.0 * self.yaw_limit, pitch_hi - pitch_lo),
                         (-self.yaw_limit, pitch_lo))

    def coarse_basis(self):
        return FourierBasis(self.coarse_workspace(), _COARSE_MODES)

    def fine_basis(self):
        return FourierBasis(self.fine_workspace(), _FINE_MODES)

    def body_bounds(self):
        return ControlBounds((-self.body_speed_max, -self.body_turn_max),
                             (self.body_speed_max, self.body_turn_max),
                             self.body_step_cap)

    def camera_bounds(self):
        r = self.camera_rate_max
        return ControlBounds((-r, -r), (r, r), self.camera_step_cap)

    def initial_coarse_map(self):
        return im.init_coarse(self.coarse_workspace(), _COARSE_RESOLUTION,
                              self.epicenters)

    def replaced(self, **kw):
        return replace(self, **kw)


class CoverageMemory:
    """Running basis statistics of the executed trajectory.

    ``residual_target`` turns a density's coefficients into the target a
    fresh horizon-T plan should chase so that the *concatenated* mission
    trajectory, past plus plan, drives the ergodic metric down.
    """

    def __init__(self, basis):
        self.basis = basis
        self.count = 0
        self._fsum = np.zeros(len(basis))

    def add(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self._fsum += self.basis.eval_points(pts).sum(axis=1)
        self.count += pts.shape[0]

    def average(self):
        if self.count == 0:
            raise ValueError("no samples recorded")
        return self._fsum / self.count

    def residual_target(self, target_coefficients, horizon):
        if self.count == 0:
            return np.asarray(target_coefficients, dtype=float)
        phi = np.asarray(target_coefficients, dtype=float)
        return phi + (self.count / float(horizon)) * (phi - self.average())

    def metric_against(self, target_coefficients):
        """Ergodic metric of the executed time-average vs. a target."""
        return ergodic_metric(self.basis, self.average(), target_coefficients)


@dataclass
class MissionLog:
    """Everything a mission did, each fact kept once: ``body_states``, one
    ``(t, x, y, heading, yaw, pitch)`` row at the start and after each body
    step, with the camera angles held during the step; ``events``, one per
    image, a full sweep's worth between consecutive rows; ``final_metric``,
    the coverage metric after the latest body step (``None`` before the
    first); ``coarse_replan_reasons``, one per coarse plan; the first
    coarse plan's solver trace; the path length, the clock and the charges
    summing to it."""

    body_states: List[Tuple[float, ...]] = field(default_factory=list)
    events: List[im.DetectionEvent] = field(default_factory=list)
    final_metric: Optional[float] = None
    coarse_replan_reasons: List[str] = field(default_factory=list)
    first_coarse_trace: list = field(default_factory=list)  # initial plan's solver trace
    path_length: float = 0.0
    sim_time: float = 0.0
    charges: dict = field(default_factory=lambda: {
        "body": 0.0, "camera": 0.0, "images": 0.0, "planning": 0.0})

    def detections(self):
        return [e for e in self.events if e.is_detection]


def ergodic_coarse_planner(body_pose, phi, basis, config, memory, warm_start=None):
    """Plan a body trajectory from ``body_pose`` toward the coarse map's
    coefficients ``phi`` in ``basis``; the target is the residual that the
    body's coverage ``memory`` makes of them.  A warm-started replan runs at
    the ``_COARSE_WARM_*`` effort, a cold plan at the full coarse caps.
    """
    if warm_start is None:
        inner_cap, outer_rounds = _COARSE_INNER_CAP, _COARSE_OUTER_ROUNDS
    else:
        inner_cap, outer_rounds = _COARSE_WARM_INNER_CAP, _COARSE_WARM_OUTER_ROUNDS
    problem = ErgodicProblem(
        basis=basis, target_coefficients=memory.residual_target(phi, config.coarse_horizon),
        model=UnicycleModel(), initial_state=body_pose, horizon=config.coarse_horizon,
        dt=config.coarse_dt, control_weight=_COARSE_CONTROL_WEIGHT, bounds=config.body_bounds(),
        inner_cap=inner_cap, outer_rounds=outer_rounds, optimality_tol=_COARSE_OPTIMALITY_TOL)
    return solve(problem, warm_start=warm_start)


def ergodic_fine_planner(camera_angles, phi, basis, config, memory, warm_start=None):
    """Plan a camera trajectory from ``camera_angles`` toward the fine map's
    coefficients ``phi`` in ``basis``.

    The caller transforms a snapshot of the fine map, so updates to the live
    map during the sweep never leak into a solve in progress.  The target is
    the residual that drives the concatenated viewing history in ``memory``
    (the camera's own visitation statistics) toward the map, which is what
    makes consecutive sweeps pan instead of re-imaging the same directions.
    """
    problem = ErgodicProblem(
        basis=basis, target_coefficients=memory.residual_target(phi, config.fine_horizon),
        model=SingleIntegratorModel(), initial_state=camera_angles, horizon=config.fine_horizon,
        dt=config.fine_dt, control_weight=_FINE_CONTROL_WEIGHT, bounds=config.camera_bounds(),
        inner_cap=_FINE_INNER_CAP, outer_rounds=_FINE_OUTER_ROUNDS,
        optimality_tol=_FINE_OPTIMALITY_TOL)
    return solve(problem, warm_start=warm_start)


def _repeat_factor(point, earlier, radius):
    """``_CLIP_FACTOR`` if an ``earlier`` hit lies within ``radius`` of
    ``point``, else 1.0: a repeat sighting must not re-spike a map."""
    point = np.asarray(point, dtype=float)
    if any(np.linalg.norm(point - np.asarray(p)) <= radius for p in earlier):
        return _CLIP_FACTOR
    return 1.0


class _BudgetSpent(Exception):
    """The clock reached the mission budget before an action could start."""


class Mission:
    """One simulated exploration run; deterministic for a given seed."""

    def __init__(self, config, scenario, seed, camera_model=None):
        self.config = config
        self.scenario = scenario
        self.camera_model = camera_model or ws.CameraModel()
        self.rng = np.random.default_rng(seed)

        self.coarse_basis = config.coarse_basis()
        self.fine_basis = config.fine_basis()
        self.body_model = UnicycleModel()

        self.coarse_map = config.initial_coarse_map()
        self.fine_map = None
        self.memory = CoverageMemory(self.coarse_basis)
        self.fine_memory = None

        self.pose = tuple(config.start_pose)   # (x, y, heading)
        if config.camera_mode == "fixed":
            self.angles = (0.0, config.fixed_pitch)
        else:
            self.angles = tuple(config.camera_start)   # (yaw, pitch)

        self.log = MissionLog()
        self.coarse_plan = None
        self.fine_plan = None
        self.step_index = 0       # transition index within the active coarse plan
        self.coarse_phi = None    # coefficients the active coarse plan chases
        self._phi_map = None      # the coarse map coarse_phi was computed from

    # ---- clock ----

    def _charge(self, kind, amount):
        """Book ``amount`` seconds of ``kind`` for the action about to start,
        or end the mission if the clock has reached the budget."""
        if self.log.sim_time >= self.config.time_budget:
            raise _BudgetSpent
        self.log.charges[kind] += amount
        self.log.sim_time += amount

    # ---- planning ----

    def _plan_coarse(self, reason):
        """Plan the body, warm from the active plan if there is one, and
        project the new plan's map into the camera's workspace."""
        cfg = self.config
        self._charge("planning", cfg.coarse_plan_time)
        # maps are immutable and the coarse map changes only on a detection,
        # so most replans chase the coefficients of the plan before
        if self.coarse_map is not self._phi_map:
            self._phi_map = self.coarse_map
            self.coarse_phi = map_coefficients(self.coarse_basis, self.coarse_map)
        warm = self.coarse_plan and shift_warm_start(self.coarse_plan)
        self.coarse_plan = ergodic_coarse_planner(self.pose, self.coarse_phi,
                                                  self.coarse_basis, cfg,
                                                  memory=self.memory, warm_start=warm)
        self.log.coarse_replan_reasons.append(reason)
        self.step_index = 0
        if cfg.camera_mode != "optimized":
            return
        self.fine_map = im.project_to_fine(self.coarse_map, self.pose, self.camera_model,
                                           self.fine_basis.workspace, _FINE_RESOLUTION)
        # the camera's pan memory refers to body-relative directions, which a
        # fresh projection re-anchors; restart it together with the map
        self.fine_memory = CoverageMemory(self.fine_basis)
        self.fine_memory.add([self.angles])

    def _plan_fine(self):
        """Plan the camera against the fine map as it is now, warm from the
        last camera plan if there is one."""
        self._charge("planning", self.config.fine_plan_time)
        phi = map_coefficients(self.fine_basis, self.fine_map)
        warm = self.fine_plan and shift_warm_start(self.fine_plan)
        self.fine_plan = ergodic_fine_planner(self.angles, phi, self.fine_basis,
                                              self.config, memory=self.fine_memory,
                                              warm_start=warm)

    # ---- sensing ----

    def _take_image(self):
        self._charge("images", self.config.image_time)
        label, offset = ws.classify_view(self.scenario, self.camera_model, self.pose,
                                         self.angles, self.config.yaw_limit, self.rng)
        if self.fine_memory is not None:
            self.fine_memory.add([self.angles])
        point = None
        if label != "background":
            point = ws.project_detection(self.pose, self.angles, self.camera_model,
                                         offset, workspace=self.scenario.workspace)
        event = im.DetectionEvent(self.log.sim_time, self.pose, self.angles,
                                  label, point)
        self.log.events.append(event)
        return event

    def _update_maps(self, event, hits):
        """Fold one image into the maps and check each map it changed: a
        detection bumps the coarse map, and the fine map (when the camera
        plans against one) takes a bump or a discount of the imaged view.
        A bump near an earlier hit on its map is scaled by ``_CLIP_FACTOR``.
        The coarse map's earlier hits are the mission's detections; the fine
        map's are ``hits``, this sweep's, since a sweep with a hit ends in a
        replan that projects a fresh fine map."""
        if event.is_detection:
            earlier = (e.world_point for e in self.log.detections()[:-1])
            self.coarse_map = im.register_detection(
                self.coarse_map, event, amplitude=_COARSE_BUMP_AMPLITUDE,
                sigma=_COARSE_BUMP_SIGMA,
                factor=_repeat_factor(event.world_point, earlier, _COARSE_CLIP_RADIUS))
            self.coarse_map.check_invariants()
        if self.fine_map is not None:
            self.fine_map = im.update_fine(
                self.fine_map, self.angles, event.is_detection,
                amplitude=_FINE_BUMP_AMPLITUDE, sigma=_FINE_BUMP_SIGMA,
                factor=_repeat_factor(self.angles, hits, _FINE_CLIP_RADIUS),
                discount=_VIEW_DISCOUNT,
                view_half_widths=(0.5 * self.camera_model.hfov,
                                  0.5 * self.camera_model.vfov))
            self.fine_map.check_invariants()

    def _slew_camera(self, target_state, duration):
        self._charge("camera", duration)
        self.angles = tuple(target_state.tolist())

    # ---- main loop ----

    def _sweep(self):
        """One camera sweep: ``fine_horizon`` images (one for the fixed
        camera), each after the method's aim step; only the clock cuts it
        short.  The optimized camera slews along a sweep plan, replanned
        after each detection; the random camera slews to a uniform draw, the
        first of a sweep placed free of charge; the fixed camera stays.
        Returns the number of detections."""
        cfg = self.config
        mode = cfg.camera_mode
        if mode == "optimized":
            self._plan_fine()
            next_state = 1   # plan state the next slew targets
        hits = []   # camera angles of this sweep's detections
        for shot in range(1 if mode == "fixed" else cfg.fine_horizon):
            if mode == "random":
                fine_ws = self.fine_basis.workspace
                self._slew_camera(fine_ws.lows + self.rng.random(2) * fine_ws.lengths,
                                  cfg.fine_dt if shot else 0.0)
            elif mode == "optimized" and shot:
                if event.is_detection:
                    self._plan_fine()
                    next_state = 1
                self._slew_camera(self.fine_plan.states[next_state], cfg.fine_dt)
                next_state += 1
            event = self._take_image()
            self._update_maps(event, hits)
            if event.is_detection:
                hits.append(event.camera_angles)
        return len(hits)

    def run(self):
        cfg = self.config
        self.log.body_states.append((self.log.sim_time, *self.pose, *self.angles))
        self.memory.add([self.pose[:2]])
        try:
            self._plan_coarse("initial")
            self.log.first_coarse_trace = self.coarse_plan.diagnostics.trace
            while True:
                detections = self._sweep()
                self._charge("body", cfg.coarse_dt)
                control = self.coarse_plan.controls[self.step_index]
                nxt = self.body_model.step(self.pose, control, cfg.coarse_dt)
                nxt[:2] = self.coarse_basis.workspace.clamp(nxt[:2])
                self.pose = tuple(nxt.tolist())
                self.log.path_length += abs(float(control[0])) * cfg.coarse_dt
                self.step_index += 1
                self.log.body_states.append((self.log.sim_time, *self.pose, *self.angles))
                self.memory.add([self.pose[:2]])
                self.log.final_metric = self.memory.metric_against(self.coarse_phi)
                if detections:
                    self._plan_coarse("detections")
                elif self.step_index >= cfg.coarse_horizon - 1:
                    self._plan_coarse("exhausted")
                elif self.step_index % cfg.replan_interval == 0:
                    self._plan_coarse("receding")
        except _BudgetSpent:
            pass
        return self.log
