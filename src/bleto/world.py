"""Simulated rock field, pinhole camera geometry, and the detection oracle.

The trained image classifier of the real system is replaced by a geometric
oracle: a rock is classifiable when it is close enough to the body, inside
the camera frustum, and not hidden behind the body's own occlusion sector;
classification then succeeds with a configurable true-positive rate.  A
miss is the oracle's one error: it reports no rock where there is none, and
a detection's image offset is the rock's exact projection.  The inverse map
localizes a detection by intersecting the pinhole ray through the
detection's image offset with the flat ground plane.

Scenario and CameraModel are immutable after construction; the rng used by
``classify_view`` must be owned by one mission at a time.
"""

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Optional, Tuple, get_args, get_origin

import numpy as np

from .ergodic import Workspace

__all__ = [
    "ROCK_CLASSES",
    "PLACEMENTS",
    "Rock",
    "check_fields",
    "CameraModel",
    "Scenario",
    "generate_scenario",
    "classify_view",
    "project_detection",
    "scenario_to_json",
    "scenario_from_json",
]

ROCK_CLASSES = ("igneous", "sedimentary")
PLACEMENTS = ("uniform", "epicenter-biased")


def check_fields(config):
    """Require each field of the dataclass ``config`` to hold a value of its
    annotation: the one rule of a well-formed field in every config section.
    An ``int`` is an integer and a ``float`` a finite real, neither a bool
    (JSON's ``true`` is no count or length, and no clock, map or plan
    survives a NaN or an infinity); a ``Tuple[X, Y]`` is a list of one such
    entry per member, a ``Tuple[X, ...]`` a list of any number; any other
    annotation is a class of the value.  Raises a ``ValueError`` naming the
    first field that breaks the rule."""
    for f in fields(config):
        if not _conforms(getattr(config, f.name), f.type):
            form = _form(f.type)
            article = ("a list of the form" if form[0] == "[" else
                       "an" if form[0] in "aeiou" else "a")
            raise ValueError(f"{f.name} must be {article} {form}")


def _conforms(value, kind):
    if get_origin(kind) is tuple:
        if not isinstance(value, (tuple, list)):
            return False
        kinds = get_args(kind)
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(value)
        return len(value) == len(kinds) and all(map(_conforms, value, kinds))
    if isinstance(value, bool):
        return False
    if kind is float:
        # an integer too large for a float fails here, where math.isfinite raises
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Integral if kind is int else kind)


def _form(kind):
    """``kind`` as a config message names it: a list by the form of its entries."""
    if get_origin(kind) is tuple:
        entries = ("..." if k is Ellipsis else _form(k) for k in get_args(kind))
        return "[" + ", ".join(entries) + "]"
    return {int: "integer", float: "finite number", str: "string"}.get(kind, kind.__name__)


@dataclass(frozen=True)
class Rock:
    x: float
    y: float
    kind: str

    def __post_init__(self):
        if self.kind not in ROCK_CLASSES:
            raise ValueError(f"unknown rock class {self.kind!r}")


@dataclass(frozen=True)
class CameraModel:
    """Mast camera: geometry plus the oracle's true-positive rate, the
    chance that a classifiable rock is not missed; angles are radians.  The
    occlusion sector is the mission's ``yaw_limit``, which also bounds where
    the camera planner may aim.  Each field is a finite number
    (``check_fields``); this class checks their ranges."""

    mount_height: float = 1.0
    hfov: float = math.radians(60.0)
    vfov: float = math.radians(45.0)
    max_range: float = 5.0
    true_positive_rate: float = 0.973

    def __post_init__(self):
        check_fields(self)
        for name in ("hfov", "vfov"):
            if not 0.0 < getattr(self, name) < math.pi:
                raise ValueError(f"{name} must lie in (0, pi)")
        for name in ("mount_height", "max_range"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.true_positive_rate <= 1.0:
            raise ValueError("true_positive_rate must lie in [0, 1]")


@dataclass(frozen=True)
class Scenario:
    """Rock field over a rectangular exploration area."""

    workspace: Workspace
    rocks: Tuple[Rock, ...]
    seed: Optional[int] = None

    def __post_init__(self):
        for rock in self.rocks:
            self.workspace.require_inside((rock.x, rock.y), what="rock")


def generate_scenario(seed, rock_count=21, placement="uniform", workspace=None,
                      epicenters=(), epicenter_fraction=0.5):
    """Seeded random rock field.

    ``uniform`` placement samples positions i.i.d. over the workspace;
    ``epicenter-biased`` sends an expected ``epicenter_fraction`` of rocks
    into uniformly chosen epicenter rectangles instead.  Classes are fair
    i.i.d. draws between the two rock types.
    """
    if rock_count < 0:
        raise ValueError("rock_count must be nonnegative")
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement mode {placement!r}")
    if workspace is None:
        workspace = Workspace((100.0, 100.0))
    rng = np.random.default_rng(seed)
    rocks = []
    rects = [tuple(float(v) for v in rect) for rect, _mult in epicenters]
    for _ in range(rock_count):
        if placement == "epicenter-biased" and rects and rng.random() < epicenter_fraction:
            x0, y0, w, h = rects[rng.integers(len(rects))]
            pos = np.array([x0, y0]) + rng.random(2) * np.array([w, h])
        else:
            pos = workspace.lows + rng.random(2) * workspace.lengths
        kind = ROCK_CLASSES[int(rng.integers(2))]
        rocks.append(Rock(float(pos[0]), float(pos[1]), kind))
    return Scenario(workspace=workspace, rocks=tuple(rocks), seed=seed)


def _wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def classify_view(scenario, camera_model, body_pose, camera_angles, yaw_limit, rng):
    """Label the current image; geometric stand-in for the learned classifier.

    Returns (label, image_offset).  The offset is the (azimuth, elevation)
    angle of the detected rock relative to the camera axis, i.e. the
    perspective projection of the rock center; it is None for background.
    The nearest rock that is within range, inside the frustum, and outside
    the body's occlusion sector (body-relative bearings of ``yaw_limit`` or
    more, where the robot itself blocks the sight line) is the candidate;
    classification then succeeds with the true-positive rate.
    """
    x, y, heading = body_pose
    cam_yaw, cam_pitch = camera_angles
    best = None
    for rock in scenario.rocks:
        dx, dy = rock.x - x, rock.y - y
        dist = math.hypot(dx, dy)
        if dist > camera_model.max_range or dist < 1e-9:
            continue
        bearing = _wrap_angle(math.atan2(dy, dx) - heading)
        if abs(bearing) >= yaw_limit:
            continue  # hidden behind the body
        d_az = _wrap_angle(bearing - cam_yaw)
        if abs(d_az) > 0.5 * camera_model.hfov:
            continue
        depression = math.atan2(-camera_model.mount_height, dist)
        d_el = depression - cam_pitch
        if abs(d_el) > 0.5 * camera_model.vfov:
            continue
        if best is None or dist < best[0]:
            best = (dist, rock, d_az, d_el)

    if best is not None and rng.random() < camera_model.true_positive_rate:
        _, rock, d_az, d_el = best
        return rock.kind, (d_az, d_el)
    return "background", None


def project_detection(body_pose, camera_angles, camera_model, image_offset,
                      workspace=None):
    """Localize a detection: intersect its pinhole ray with the ground plane.

    The ray leaves the mast at the mount height along the camera axis
    rotated by the image offset; it must point below the horizon to hit
    the ground.  The hit point is clamped into the workspace when one is
    given.
    """
    x, y, heading = body_pose
    cam_yaw, cam_pitch = camera_angles
    d_az, d_el = image_offset
    pitch_eff = cam_pitch + d_el
    if pitch_eff >= 0.0:
        raise ValueError("detection ray does not intersect the ground plane")
    bearing = heading + cam_yaw + d_az
    ground_dist = camera_model.mount_height / math.tan(-pitch_eff)
    point = np.array([x + ground_dist * math.cos(bearing),
                      y + ground_dist * math.sin(bearing)])
    if workspace is not None:
        point = workspace.clamp(point)
    return float(point[0]), float(point[1])


# ---- serialization ----

def scenario_to_json(scenario):
    return json.dumps(
        {
            "seed": scenario.seed,
            "workspace": {
                "lengths": scenario.workspace.lengths.tolist(),
                "lows": scenario.workspace.lows.tolist(),
            },
            "rocks": [{"x": r.x, "y": r.y, "class": r.kind} for r in scenario.rocks],
        },
        sort_keys=True,
        indent=2,
    )


def scenario_from_json(text):
    d = json.loads(text)
    ws = Workspace(d["workspace"]["lengths"], d["workspace"]["lows"])
    rocks = tuple(Rock(float(r["x"]), float(r["y"]), str(r["class"])) for r in d["rocks"])
    return Scenario(workspace=ws, rocks=rocks, seed=d.get("seed"))
