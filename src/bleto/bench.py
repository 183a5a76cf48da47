"""Experiment harness: paired trials, scoring, and method comparison.

Each trial seeds both the rock field and the mission from the same integer,
so the three camera policies face identical worlds seed for seed.  The
simulated clock is decoupled from the wall clock: a 90-minute mission runs
in seconds to minutes of real time.

Per-trial outputs: ``trajectory.csv`` (a row at the start and after each
body step: the pose at time ``t`` and the camera angles held during the
step), ``detections.jsonl``, ``metrics.json`` (deterministic; byte-identical
across reruns of the same seed), ``scenario.json``,
``map_final.pgm``/``map_final.csv``, ``solver_trace.csv`` (one row per
solver iteration of the mission's first coarse plan) and ``timing.txt``
(wall-clock, deliberately kept out of metrics.json).  Comparisons add
``table.json``, ``table.txt`` and ``scorecard.json`` (``scorecard``: per-seed
rows, the number of distinct paths per method and the paired differences
of bl-eto against each baseline).
"""

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import infomap as im
from . import world as ws
from .planner import BiLevelConfig, Mission

__all__ = [
    "METHODS",
    "ConfigError",
    "TrialMetrics",
    "ExperimentConfig",
    "build_scenario",
    "score",
    "run_trial",
    "compare",
    "scorecard",
    "scorecard_row",
    "metrics_json_dict",
]

METHODS = {
    "bl-eto": "optimized",
    "eto-fixed-camera": "fixed",
    "eto-random-camera": "random",
}


_PARKED_STEP_M = 0.1  # a body step shorter than this leaves the rover parked
_GROUND_CELL_M = 0.25  # side of the square ground cells the scorecard counts


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exits with status 2)."""


@dataclass
class TrialMetrics:
    """One trial's scores; its fields are the metrics.json schema.

    The field set is exactly the schema the benchmark enforces
    (``perfbench/checks.py::METRICS_KEYS``): a new key in metrics.json fails
    every benchmark mission, so further per-trial figures belong in a file
    of their own.
    """

    method: str
    seed: int
    rocks_total: int
    rocks_found: int
    fraction_found: float
    detections: int
    path_length_m: float
    final_ergodic_metric: Optional[float]
    sim_time_s: float
    body_steps: int
    images: int


@dataclass
class ExperimentConfig:
    """An experiment's sections, method, paired seeds and rocks.  Each field
    holds a value of its annotation, every number finite
    (``world.check_fields``); this class checks only values."""

    mission: BiLevelConfig = field(default_factory=BiLevelConfig)
    camera: ws.CameraModel = field(default_factory=ws.CameraModel)
    method: str = "bl-eto"
    seeds: Tuple[int, ...] = (1, 2, 3, 4, 5)
    rock_count: int = 21
    placement: str = "uniform"
    identification_radius: float = 5.0

    def __post_init__(self):
        ws.check_fields(self)
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; "
                              f"choose from {sorted(METHODS)}")
        # a negative seed is no seed of numpy's generator, and a repeated
        # one would run its scenario twice and overwrite its own trial
        if not (self.seeds and min(self.seeds) >= 0
                and len(set(self.seeds)) == len(self.seeds)):
            raise ConfigError("seeds must be nonnegative and nonempty, "
                              "with no seed repeated")
        self.seeds = tuple(self.seeds)
        if self.rock_count < 0:
            raise ConfigError("rock_count must be nonnegative")
        if self.placement not in ws.PLACEMENTS:
            raise ConfigError(f"unknown placement {self.placement!r}; "
                              f"choose from {list(ws.PLACEMENTS)}")
        if self.identification_radius < 0:
            raise ConfigError("identification_radius must be nonnegative")
        # the method decides where the mast camera points
        self.mission = self.mission.replaced(camera_mode=METHODS[self.method])

    @classmethod
    def from_dict(cls, d):
        d = dict(_json_object(d, "the config"))
        mission = _json_object(d.pop("mission", {}), "mission")
        camera = _json_object(d.pop("camera", {}), "camera")
        if "camera_mode" in mission:
            raise ConfigError("mission.camera_mode is chosen by method; "
                              "set method instead")
        _check_keys("config", d, cls)
        _check_keys("mission", mission, BiLevelConfig)
        _check_keys("camera", camera, ws.CameraModel)
        try:
            return cls(mission=BiLevelConfig(**mission),
                       camera=ws.CameraModel(**camera), **d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def for_method(self, method):
        return replace(self, method=method)


def _json_object(value, name):
    """``value`` if it is a JSON object (a dict), else a ``ConfigError``
    naming the part of the config that is not one."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return value


def _check_keys(section, value, kind):
    """A ``ConfigError`` naming each key of the ``section`` object ``value``
    that is no field of the dataclass ``kind``."""
    unknown = sorted(set(value) - {f.name for f in fields(kind)})
    if unknown:
        raise ConfigError(f"unknown {section} keys: {unknown}")


def build_scenario(config, seed):
    return ws.generate_scenario(
        seed, rock_count=config.rock_count, placement=config.placement,
        workspace=config.mission.coarse_workspace(),
        epicenters=config.mission.epicenters)


def score(log, scenario, identification_radius, method, seed):
    """Count a rock as found iff it is the nearest rock to some detection's
    projected world point and lies within the identification radius of it:
    each detection credits at most one rock."""
    detections = log.detections()
    for ev in detections:
        if not scenario.workspace.contains(ev.world_point):
            raise ValueError("detection outside the scenario workspace: "
                             "log and ground truth do not match")
    nearest, dist = ws.nearest_rocks(scenario, [ev.world_point for ev in detections])
    found = len(set(nearest[dist <= identification_radius].tolist()))
    total = len(scenario.rocks)
    return TrialMetrics(
        method=method,
        seed=seed,
        rocks_total=total,
        rocks_found=found,
        fraction_found=(found / total) if total else 0.0,
        detections=len(detections),
        path_length_m=log.path_length,
        final_ergodic_metric=log.final_metric,
        sim_time_s=log.sim_time,
        body_steps=len(log.body_states) - 1,
        images=len(log.events),
    )


def metrics_json_dict(metrics):
    """The documented, deterministic metrics schema (no wall-clock)."""
    return asdict(metrics)


def _write_csv(path, header, rows):
    """A header line, then one line per row with each value as its ``repr``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(repr(v) for v in row) + "\n")


def _imaged_ground(log, workspace, camera_model, yaw_limit):
    """(distinct, summed) area in m² of the ``_GROUND_CELL_M`` cells of
    ``workspace`` whose centres some image of ``log`` sees
    (``world.sees``): the first counts each cell once, the second once per
    image that sees it."""
    side = _GROUND_CELL_M
    shape = np.ceil(workspace.lengths / side).astype(int)
    seen = np.zeros(shape, dtype=bool)
    reach = camera_model.max_range
    summed = 0
    for event in log.events:
        # only cells within the classifier's range of the body can be seen
        pos = np.asarray(event.body_pose[:2]) - workspace.lows
        lo = np.clip(np.floor((pos - reach) / side).astype(int), 0, shape)
        hi = np.clip(np.ceil((pos + reach) / side).astype(int), 0, shape)
        ix, iy = np.meshgrid(np.arange(lo[0], hi[0]), np.arange(lo[1], hi[1]),
                             indexing="ij")
        centres = workspace.lows + (np.stack((ix.ravel(), iy.ravel()), axis=1) + 0.5) * side
        hit = ws.sees(camera_model, event.body_pose, event.camera_angles, yaw_limit, centres)
        seen[ix.ravel()[hit], iy.ravel()[hit]] = True
        summed += int(np.count_nonzero(hit))
    return int(np.count_nonzero(seen)) * side * side, summed * side * side


def scorecard_row(metrics, log, scenario, config):
    """One trial's scorecard row: what the mission imaged and how it moved.

    ``imaged`` counts the distinct rocks nearest some detection's world
    point (``world.nearest_rocks``; localization is exact, so that rock is
    the one imaged), and ``path_per_imaged_m`` is the path length over it
    (``None`` when nothing was imaged).  ``ground_m2`` is the distinct
    ground the images saw, counted on ``_GROUND_CELL_M`` cells under the
    test a rock must pass to be classified (``world.sees``), and
    ``images_per_ground`` the seen area summed over images over it
    (``None`` when nothing was seen): how often the mission saw each
    square metre it saw.  ``lock_on_share`` is the share of
    detections on the most-detected rock (0 without a detection),
    ``parked_share`` the share of body steps shorter than
    ``_PARKED_STEP_M`` (0 without a step).  ``config`` is the trial's
    ``ExperimentConfig``, whose camera and occlusion sector the ground
    count uses.
    """
    nearest, _ = ws.nearest_rocks(scenario, [ev.world_point for ev in log.detections()])
    per_rock = np.bincount(nearest[nearest >= 0])
    imaged = int(np.count_nonzero(per_rock))
    ground, summed = _imaged_ground(log, scenario.workspace, config.camera,
                                    config.mission.yaw_limit)
    steps = np.linalg.norm(np.diff(np.array(log.body_states)[:, 1:3], axis=0), axis=1)
    return {
        "method": metrics.method,
        "seed": metrics.seed,
        "found": metrics.rocks_found,
        "imaged": imaged,
        "ground_m2": ground,
        "images_per_ground": summed / ground if ground else None,
        "path_per_imaged_m": metrics.path_length_m / imaged if imaged else None,
        "lock_on_share": float(per_rock.max() / len(nearest)) if per_rock.size else 0.0,
        "parked_share": float(np.mean(steps < _PARKED_STEP_M)) if steps.size else 0.0,
    }


_PAIRED_KEYS = ("found", "imaged", "ground_m2")  # the columns paired and totalled


def _win_tie_loss(diffs):
    return {"wins": sum(d > 0 for d in diffs), "ties": sum(d == 0 for d in diffs),
            "losses": sum(d < 0 for d in diffs)}


def scorecard(config, rows, trajectories):
    """The paired-seed scorecard of one comparison.

    ``rows`` maps each method to its ``scorecard_row`` per seed, in the
    order of ``config.seeds``, and ``trajectories`` maps it to each seed's
    ``MissionLog.body_states``.  ``distinct_paths`` counts the distinct
    paths per method: a mission that sees no rock does not depend on its
    seed, so seeds can repeat one path.  Per baseline, ``paired`` holds the
    per-seed differences bl-eto minus that baseline in found and imaged
    rocks and in imaged ground, and their win/tie/loss counts for bl-eto;
    ``totals`` sums the same three columns per method.
    """
    paired = {}
    for baseline in ("eto-fixed-camera", "eto-random-camera"):
        per_seed = [{"seed": ours["seed"],
                     **{key: ours[key] - theirs[key] for key in _PAIRED_KEYS}}
                    for ours, theirs in zip(rows["bl-eto"], rows[baseline])]
        paired[f"bl-eto - {baseline}"] = {
            "per_seed": per_seed,
            **{key: _win_tie_loss([d[key] for d in per_seed]) for key in _PAIRED_KEYS},
        }
    return {
        "placement": config.placement,
        "seeds": list(config.seeds),
        "time_budget_s": config.mission.time_budget,
        "rows": rows,
        "distinct_paths": {method: len(set(map(tuple, paths)))
                           for method, paths in trajectories.items()},
        "totals": {method: {key: sum(row[key] for row in method_rows)
                            for key in _PAIRED_KEYS}
                   for method, method_rows in rows.items()},
        "paired": paired,
    }


def run_trial(config, seed, out_dir=None):
    """Run one mission with the configured method on the seeded scenario."""
    return _run_trial(config, seed, out_dir)[0]


def _run_trial(config, seed, out_dir):
    """``run_trial``, returning the trial's metrics, log and scenario."""
    scenario = build_scenario(config, seed)
    started = time.perf_counter()
    mission = Mission(config.mission, scenario, seed, camera_model=config.camera)
    log = mission.run()
    runtime = time.perf_counter() - started
    metrics = score(log, scenario, config.identification_radius,
                    method=config.method, seed=seed)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "trajectory.csv", "t,x,y,heading,yaw,pitch", log.body_states)
        im.save_detections_jsonl(log.events, out / "detections.jsonl")
        (out / "metrics.json").write_text(
            json.dumps(metrics_json_dict(metrics), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        (out / "scenario.json").write_text(ws.scenario_to_json(scenario) + "\n",
                                           encoding="utf-8")
        im.save_pgm(mission.coarse_map, out / "map_final.pgm")
        im.save_csv(mission.coarse_map, out / "map_final.csv")
        _write_csv(out / "solver_trace.csv", "iter,J,E,grad_norm",
                   log.first_coarse_trace)
        (out / "timing.txt").write_text(f"wall_clock_s={runtime:.3f}\n",
                                        encoding="utf-8")
    return metrics, log, scenario


def _scenario_hash(config, seed):
    return hashlib.sha256(ws.scenario_to_json(build_scenario(config, seed))
                          .encode("utf-8")).hexdigest()


def compare(config, out_dir=None):
    """Run every method over the same seeds and tabulate the results.

    The scenario hash is recorded per (method, seed) and must agree across
    methods — the comparison is meaningless unless the worlds are paired.
    """
    results = {}
    rows = {}
    trajectories = {}
    hashes = {}
    for method in METHODS:
        cfg = config.for_method(method)
        results[method], rows[method], trajectories[method] = [], [], []
        for seed in config.seeds:
            trial_dir = None
            if out_dir is not None:
                trial_dir = Path(out_dir) / method / f"seed_{seed}"
            metrics, log, scenario = _run_trial(cfg, seed, trial_dir)
            results[method].append(metrics)
            rows[method].append(scorecard_row(metrics, log, scenario, cfg))
            trajectories[method].append(log.body_states)
            hashes.setdefault(seed, set()).add(_scenario_hash(cfg, seed))
    for seed, digests in hashes.items():
        if len(digests) != 1:
            raise AssertionError(f"scenario for seed {seed} differs across methods")

    table = {"seeds": list(config.seeds), "methods": {}}
    for method, trials in results.items():
        fracs = np.array([t.fraction_found for t in trials])
        paths = np.array([t.path_length_m for t in trials])
        table["methods"][method] = {
            "fraction_found_mean": float(fracs.mean()),
            "fraction_found_std": float(fracs.std(ddof=1)) if len(fracs) > 1 else 0.0,
            "path_length_mean_m": float(paths.mean()),
            "detections_mean": float(np.mean([t.detections for t in trials])),
            "images_mean": float(np.mean([t.images for t in trials])),
            "trials": [metrics_json_dict(t) for t in trials],
        }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "table.json").write_text(
            json.dumps(table, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        (out / "table.txt").write_text(format_table(table), encoding="utf-8")
        (out / "scorecard.json").write_text(
            json.dumps(scorecard(config, rows, trajectories), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    return table


def format_table(table):
    header = f"{'method':<22} {'found_mean':>10} {'found_std':>10} {'path_m':>10} {'images':>8}"
    lines = [header, "-" * len(header)]
    for method, row in table["methods"].items():
        lines.append(
            f"{method:<22} {row['fraction_found_mean']:>10.4f} "
            f"{row['fraction_found_std']:>10.4f} {row['path_length_mean_m']:>10.1f} "
            f"{row['images_mean']:>8.0f}")
    return "\n".join(lines) + "\n"
