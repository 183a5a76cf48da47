"""Occupancy-grid information maps and their detection-driven updates.

A map is a strictly positive density over a planar rectangular workspace,
discretized on a regular grid and normalized to unit mass.  The coarse map
lives on the planar body workspace (meters); the fine map lives on the
camera's angular workspace (yaw, pitch in radians).  Updates are
value-semantic: every operation returns a new map and never mutates its
input, so a planner can hand snapshots around freely.  Maps hold no
history: a map is its density and nothing else, and whoever keeps the
record of past detections (the mission) decides each bump's weight.

Normalization discipline: after every mutation the density is renormalized
and then mixed with a small uniform component so that the total mass is one
(to 1e-9 or better) and no cell ever falls below the positivity floor.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "FLOOR_FRACTION",
    "DetectionEvent",
    "InfoMap",
    "init_coarse",
    "register_detection",
    "update_fine",
    "project_to_fine",
    "save_pgm",
    "save_csv",
    "save_detections_jsonl",
    "load_detections_jsonl",
]

# Positivity floor, as a fraction of the uniform density level.
FLOOR_FRACTION = 1e-6
# Uniform mass fraction mixed in on every renormalization; twice the floor
# so the minimum stays above FLOOR_FRACTION after the final exact rescale.
_MIX_FRACTION = 2e-6
_MASS_TOL = 1e-9  # largest mass error ``check_invariants`` accepts
_TRUNCATE_SIGMAS = 3.0  # a bump's radius of support, in sigmas

LABELS = ("igneous", "sedimentary", "background")


@dataclass(frozen=True)
class DetectionEvent:
    """One classified image: pose, label, and the localized world point.

    ``world_point`` is present exactly when the label is not background.
    """

    time: float
    body_pose: Tuple[float, float, float]
    camera_angles: Tuple[float, float]
    label: str
    world_point: Optional[Tuple[float, float]]

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        if (self.world_point is None) != (self.label == "background"):
            raise ValueError("world_point must be present iff label is not background")

    @property
    def is_detection(self):
        return self.label != "background"

    def to_json_dict(self):
        return {
            "time": self.time,
            "body_pose": list(self.body_pose),
            "camera_angles": list(self.camera_angles),
            "label": self.label,
            "world_point": None if self.world_point is None else list(self.world_point),
        }

    @classmethod
    def from_json_dict(cls, d):
        wp = d["world_point"]
        return cls(
            time=float(d["time"]),
            body_pose=tuple(float(x) for x in d["body_pose"]),
            camera_angles=tuple(float(x) for x in d["camera_angles"]),
            label=str(d["label"]),
            world_point=None if wp is None else tuple(float(x) for x in wp),
        )


class InfoMap:
    """Normalized, strictly positive density on a regular planar grid."""

    def __init__(self, workspace, density):
        self.workspace = workspace
        density = np.asarray(density, dtype=float)
        if density.ndim != 2:
            raise ValueError("a map is a planar density")
        self.density = _normalize(workspace, density)
        self.density.flags.writeable = False

    # ---- geometry ----

    @property
    def shape(self):
        return self.density.shape

    @property
    def cell_sizes(self):
        return self.workspace.lengths / np.asarray(self.shape, dtype=float)

    @property
    def cell_area(self):
        return float(np.prod(self.cell_sizes))

    def axis_centers(self):
        """Cell-center coordinate per axis (workspace coordinates)."""
        return _axis_centers(self.workspace, self.shape)

    def cell_index(self, points):
        """Nearest-cell index per point, clipped to the grid."""
        rel = self.workspace.to_local(points)
        idx = np.floor(rel / self.cell_sizes).astype(int)
        return np.clip(idx, 0, np.asarray(self.shape) - 1)

    def sample(self, points):
        """Nearest-cell density at each point."""
        idx = self.cell_index(np.atleast_2d(points))
        return self.density[tuple(idx.T)]

    # ---- invariants ----

    def integral(self):
        return float(self.density.sum() * self.cell_area)

    def uniform_level(self):
        return self.workspace.uniform_level()

    def floor_level(self):
        return FLOOR_FRACTION * self.uniform_level()

    def check_invariants(self):
        err = abs(self.integral() - 1.0)
        if not math.isfinite(err):
            raise AssertionError("map density is not finite")
        if err > _MASS_TOL:
            raise AssertionError(f"map mass off by {err:.3e}")
        if float(self.density.min()) < self.floor_level():
            raise AssertionError("map density fell below the positivity floor")

    # ---- derived maps ----

    def add_bump(self, center, amplitude, sigma, factor=1.0):
        """Add a Gaussian bump, truncated at ``_TRUNCATE_SIGMAS`` sigmas, whose
        peak is ``amplitude`` times the uniform level times ``factor``."""
        center = np.asarray(center, dtype=float)
        self.workspace.require_inside(center, what="bump center")
        peak = amplitude * self.uniform_level() * factor
        half = _TRUNCATE_SIGMAS * sigma
        lows, sizes = self.workspace.lows, self.cell_sizes
        lo = np.clip(np.floor((center - half - lows) / sizes), 0, self.shape).astype(int)
        hi = np.clip(np.ceil((center + half - lows) / sizes) + 1, 0, self.shape).astype(int)
        cx, cy = self.axis_centers()
        dx_sq = (cx[lo[0]:hi[0]] - center[0]) ** 2
        dy_sq = (cy[lo[1]:hi[1]] - center[1]) ** 2
        dist_sq = dx_sq[:, None] + dy_sq[None, :]
        bump = peak * np.exp(-0.5 * dist_sq / sigma**2)
        bump[dist_sq > half**2] = 0.0
        values = np.array(self.density)
        values[lo[0]:hi[0], lo[1]:hi[1]] += bump
        return InfoMap(self.workspace, values)

    def discount_window(self, center, half_widths, factor):
        """Scale a rectangular neighborhood of cells by ``factor``."""
        cx, cy = self.axis_centers()
        values = np.array(self.density)
        values[np.ix_(np.abs(cx - center[0]) <= half_widths[0],
                      np.abs(cy - center[1]) <= half_widths[1])] *= factor
        return InfoMap(self.workspace, values)


def _shape(workspace, resolution):
    shape = tuple(int(n) for n in resolution)
    if len(shape) != 2 or any(n < 1 for n in shape):
        raise ValueError("resolution needs one positive cell count per axis")
    return shape


def _axis_centers(workspace, shape):
    """Cell-center coordinate per axis of a ``shape`` grid on ``workspace``."""
    sizes = workspace.lengths / np.asarray(shape, dtype=float)
    return [workspace.lows[i] + (np.arange(n) + 0.5) * sizes[i]
            for i, n in enumerate(shape)]


def _normalize(workspace, values):
    """Clip, normalize, floor-mix, renormalize; returns a fresh array."""
    values = np.maximum(np.asarray(values, dtype=float), 0.0)
    cell_area = workspace.area() / values.size
    total = values.sum() * cell_area
    if total <= 0.0:
        raise ValueError("map has no mass")
    values = values / total
    values = (1.0 - _MIX_FRACTION) * values + _MIX_FRACTION * workspace.uniform_level()
    values /= values.sum() * cell_area
    return values


def init_coarse(workspace, resolution, epicenters=()):
    """Uniform map with rectangular regions of elevated prior information.

    ``epicenters`` is a sequence of ((x_low, y_low, width, height), multiplier)
    entries; cells whose centers fall inside a rectangle are scaled by its
    multiplier before renormalization.
    """
    shape = _shape(workspace, resolution)
    values = np.ones(shape)
    centers = _axis_centers(workspace, shape)
    for rect, multiplier in epicenters:
        x0, y0, w, h = (float(v) for v in rect)
        if multiplier < 1.0:
            raise ValueError("epicenter multiplier must be >= 1")
        workspace.require_inside((x0, y0), what="epicenter corner")
        workspace.require_inside((x0 + w, y0 + h), what="epicenter corner")
        in_x = (centers[0] >= x0) & (centers[0] <= x0 + w)
        in_y = (centers[1] >= y0) & (centers[1] <= y0 + h)
        values[np.ix_(in_x, in_y)] *= float(multiplier)
    return InfoMap(workspace, values)


def register_detection(imap, event, amplitude=50.0, sigma=1.5, factor=1.0):
    """Fold one detection into the coarse map.

    Background events are a no-op and return the input map unchanged.  A
    detection adds a truncated Gaussian bump at the projected world point,
    its peak scaled by ``factor``.
    """
    if not event.is_detection:
        return imap
    return imap.add_bump(event.world_point, amplitude, sigma, factor)


def update_fine(imap, camera_angles, detected, amplitude=20.0,
                sigma=math.radians(5.0), factor=1.0, discount=0.5,
                view_half_widths=(math.radians(30.0), math.radians(22.5))):
    """Per-image update of the camera's angular map.

    On a detection, add an angular bump at the viewing direction, its peak
    scaled by ``factor``; on background, discount the one-field-of-view
    neighborhood that was just imaged so the camera prefers directions it
    has not yet inspected.
    """
    if detected:
        return imap.add_bump(camera_angles, amplitude, sigma, factor)
    return imap.discount_window(camera_angles, view_half_widths, discount)


def project_to_fine(coarse, body_pose, camera_model, fine_workspace, fine_resolution):
    """Project the planar map into the camera's (yaw, pitch) workspace.

    For every downward-looking cell the camera ray from the mount height is
    intersected with the flat ground plane and the coarse density is sampled
    at the hit point.  Cells looking at or above the horizon, and cells whose
    rays land outside the coarse workspace, receive only the positivity
    floor, so a view whose rays all miss the workspace is uniform.  Yaw is
    measured from the body heading.
    """
    shape = _shape(fine_workspace, fine_resolution)
    yaw_c, pitch_c = _axis_centers(fine_workspace, shape)
    yaw_grid, pitch_grid = np.meshgrid(yaw_c, pitch_c, indexing="ij")
    values = np.zeros(shape)
    down = pitch_grid < 0.0
    if np.any(down):
        x, y, heading = body_pose
        dist = camera_model.mount_height / np.tan(-pitch_grid[down])
        bearing = heading + yaw_grid[down]
        pts = np.stack([x + dist * np.cos(bearing), y + dist * np.sin(bearing)], axis=1)
        inside = coarse.workspace.contains(pts)
        sampled = np.zeros(pts.shape[0])
        if np.any(inside):
            sampled[inside] = coarse.sample(pts[inside])
        values[down] = sampled
    return InfoMap(fine_workspace, values if values.any() else np.ones(shape))


# ---- serialization ----

def save_pgm(imap, path):
    """8-bit binary PGM, max-scaled; columns follow axis 0, top row is the
    largest axis-1 coordinate."""
    dens = imap.density
    img = np.flip(dens.T, axis=0)
    peak = img.max()
    scaled = np.zeros(img.shape, dtype=np.uint8) if peak <= 0 else (
        np.round(255.0 * img / peak).astype(np.uint8))
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        f.write(scaled.tobytes())


def save_csv(imap, path):
    """Raw densities, one row per axis-0 index."""
    np.savetxt(path, imap.density, delimiter=",", fmt="%.17g")


def save_detections_jsonl(events, path):
    with open(path, "w", encoding="utf-8") as f:
        for ev in events:
            f.write(json.dumps(ev.to_json_dict(), sort_keys=True) + "\n")


def load_detections_jsonl(path):
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(DetectionEvent.from_json_dict(json.loads(line)))
    return events
