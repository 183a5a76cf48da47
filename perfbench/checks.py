"""Output checks on one trial directory written by ``bleto.bench.run_trial``."""

import csv
import hashlib
import json
from pathlib import Path

# The documented metrics.json schema (bleto.bench.metrics_json_dict).
METRICS_KEYS = frozenset({
    "method", "seed", "rocks_total", "rocks_found", "fraction_found",
    "detections", "path_length_m", "final_ergodic_metric", "sim_time_s",
    "body_steps", "images",
})


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def scenario_digest(scenario_json_text):
    """The digest ``bleto.bench.compare`` uses to pair scenarios."""
    return hashlib.sha256(scenario_json_text.encode("utf-8")).hexdigest()


def check_trial(trial_dir, config, seed, scenario_hash):
    """Return the list of problems found in a trial directory (empty if fine)."""
    trial = Path(trial_dir)
    try:
        metrics = json.loads((trial / "metrics.json").read_text(encoding="utf-8"))
        with open(trial / "trajectory.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        events = [json.loads(line) for line in
                  (trial / "detections.jsonl").read_text(encoding="utf-8").splitlines()
                  if line.strip()]
        scenario_text = (trial / "scenario.json").read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        return [f"unreadable trial directory: {exc}"]

    if set(metrics) != METRICS_KEYS:
        odd = sorted(set(metrics) ^ METRICS_KEYS)
        return [f"metrics.json keys differ from the schema: {odd}"]
    problems = []
    if metrics["method"] != config.method:
        problems.append(f"method {metrics['method']!r}, requested {config.method!r}")
    if metrics["seed"] != seed:
        problems.append(f"seed {metrics['seed']!r}, requested {seed!r}")

    mission = config.mission
    largest_charge = max(mission.coarse_dt, mission.fine_dt, mission.image_time,
                         mission.coarse_plan_time, mission.fine_plan_time)
    sim_time = metrics["sim_time_s"]
    if not mission.time_budget <= sim_time <= mission.time_budget + largest_charge:
        problems.append(f"sim_time_s {sim_time!r} outside [budget, budget + "
                        f"{largest_charge}] for budget {mission.time_budget}")

    steps = metrics["body_steps"]
    if len(rows) != steps + 1:
        problems.append(f"trajectory.csv has {len(rows)} rows for {steps} body steps")
    workspace = mission.coarse_workspace()
    for row in rows:
        if not workspace.contains((float(row["x"]), float(row["y"]))):
            problems.append(f"trajectory leaves the workspace at t={row['t']}")
            break

    images = metrics["images"]
    if mission.camera_mode == "fixed":
        most = steps + 1  # one image per body step, plus the final sweep
    else:
        most = mission.fine_horizon * (steps + 1)
    if not steps <= images <= most:
        problems.append(f"{images} images for {steps} body steps (allowed "
                        f"{steps}..{most})")
    if len(events) != images:
        problems.append(f"detections.jsonl has {len(events)} events for {images} images")
    hits = sum(e["label"] != "background" for e in events)
    if hits != metrics["detections"]:
        problems.append(f"detections.jsonl has {hits} detections, metrics.json "
                        f"{metrics['detections']}")

    total, found = metrics["rocks_total"], metrics["rocks_found"]
    fraction = found / total if total else 0.0
    if not 0 <= found <= total or metrics["fraction_found"] != fraction:
        problems.append(f"rocks_found {found} of {total} inconsistent with "
                        f"fraction_found {metrics['fraction_found']!r}")
    if scenario_digest(scenario_text.rstrip("\n")) != scenario_hash:
        problems.append("scenario.json differs from the paired scenario for this seed")
    return problems
