"""Command-line interface for running and comparing exploration missions.

Subcommands: ``run`` (one method; with ``--out`` it writes the trial files
``bench`` lists, ``solver_trace.csv`` of the first coarse plan among them),
``compare`` (all three methods on paired seeds; with ``--out`` it writes
each trial, ``table.json`` and ``scorecard.json``), ``inspect`` (summarize a
trial directory, naming the rock of ``scenario.json`` nearest each
detection it prints).  Exit code 0 on success, 2 on a bad config, option or
trial file.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (METHODS, ConfigError, ExperimentConfig, compare,
                    format_table, metrics_json_dict, run_trial)
from .infomap import load_detections_jsonl
from .world import nearest_rocks, scenario_from_json

EXIT_OK = 0
EXIT_CONFIG = 2


def _load_config(path):
    if path is None:
        return ExperimentConfig()
    try:
        return ExperimentConfig.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _load_trial_file(path, load):
    """``load(path)``, or a ``ConfigError`` naming ``path`` if ``load``
    finds no JSON or a record it cannot read there (a ``ValueError``)."""
    try:
        return load(path)
    except ValueError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _nonnegative(text):
    """``text`` as a nonnegative integer, the type of a count option."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, not {text!r}")
    return int(text)


def _cmd_run(args):
    config = _load_config(args.config)
    if args.method:
        config = config.for_method(args.method)
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    metrics = run_trial(config, config.seeds[0], out_dir=args.out or None)
    print(json.dumps(metrics_json_dict(metrics), sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_compare(args):
    config = _load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    table = compare(config, out_dir=args.out)
    print(format_table(table), end="")
    return EXIT_OK


def _cmd_inspect(args):
    trial = Path(args.log)
    metrics_path = trial / "metrics.json"
    if not metrics_path.exists():
        raise ConfigError(f"no metrics.json under {trial}")
    metrics = _load_trial_file(metrics_path,
                               lambda p: json.loads(p.read_text(encoding="utf-8")))
    print(json.dumps(metrics, sort_keys=True, indent=2))
    scenario_path = trial / "scenario.json"
    scenario = scenario_path.exists() and _load_trial_file(
        scenario_path, lambda p: scenario_from_json(p.read_text(encoding="utf-8")))
    detections_path = trial / "detections.jsonl"
    if detections_path.exists():
        events = _load_trial_file(detections_path, load_detections_jsonl)
        hits = [e for e in events if e.is_detection]
        print(f"events: {len(events)} images, {len(hits)} detections")
        shown = hits[: args.head]
        rocks = [""] * len(shown)
        if scenario and scenario.rocks:
            rocks = [f"  nearest rock {i} ({scenario.rocks[i].kind}) at {d:.2f} m"
                     for i, d in zip(*nearest_rocks(scenario, [e.world_point for e in shown]))]
        for e, rock in zip(shown, rocks):
            print(f"  t={e.time:9.2f}  {e.label:<12} at "
                  f"({e.world_point[0]:.2f}, {e.world_point[1]:.2f}){rock}")
    for name in ("trajectory.csv", "map_final.pgm", "solver_trace.csv", "table.json"):
        p = trial / name
        if p.exists():
            print(f"artifact: {p}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bleto",
        description="Bi-level ergodic exploration missions and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one mission")
    p_run.add_argument("--config", help="experiment config JSON")
    p_run.add_argument("--method", choices=sorted(METHODS))
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="trial output directory")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run all three methods, paired seeds")
    p_cmp.add_argument("--config", help="experiment config JSON")
    p_cmp.add_argument("--seed", type=int, help="restrict to a single seed")
    p_cmp.add_argument("--out", help="comparison output directory")
    p_cmp.set_defaults(func=_cmd_compare)

    p_ins = sub.add_parser("inspect", help="summarize a trial directory")
    p_ins.add_argument("--log", required=True, help="trial directory")
    p_ins.add_argument("--head", type=_nonnegative, default=10,
                       help="detections to print")
    p_ins.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
