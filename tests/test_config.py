"""Configuration validation: a config that passes construction must not
fail mid-mission, and the CLI turns a rejected config into exit status 2."""

import json
import math
import re
from dataclasses import asdict, fields

import pytest

from bleto import planner
from bleto.bench import ConfigError, ExperimentConfig, run_trial
from bleto.cli import EXIT_CONFIG, EXIT_OK, main
from bleto.planner import BiLevelConfig
from bleto.world import CameraModel

# the diagonals of the default coarse and fine workspaces: no step of the
# body or the camera can be longer
BODY_DIAGONAL = math.hypot(*BiLevelConfig.coarse_lengths)
CAMERA_DIAGONAL = math.hypot(2.0 * BiLevelConfig.yaw_limit,
                             BiLevelConfig.pitch_bounds[1] - BiLevelConfig.pitch_bounds[0])


class TestHorizons:
    @pytest.mark.parametrize("field", ["coarse_horizon", "fine_horizon"])
    @pytest.mark.parametrize("value", [0, 1])
    def test_horizon_below_two_rejected(self, field, value):
        with pytest.raises(ValueError, match="at least 2 steps"):
            BiLevelConfig(**{field: value})

    def test_shortest_horizons_accepted(self):
        cfg = BiLevelConfig(coarse_horizon=2, fine_horizon=2)
        assert (cfg.coarse_horizon, cfg.fine_horizon) == (2, 2)

    def test_experiment_config_reports_config_error(self):
        with pytest.raises(ConfigError, match="at least 2 steps"):
            ExperimentConfig.from_dict({"mission": {"fine_horizon": 1}})

    def test_cli_run_exits_with_config_status(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mission": {"fine_horizon": 1}}))
        out = tmp_path / "trial"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "at least 2 steps" in capsys.readouterr().err
        assert not out.exists()


# one bad value per field; each used to pass construction and then stop the
# mission with a ValueError traceback and exit status 1, or, for the budget
# and the charges, keep it running forever (a replan interval below 1 was
# read as 1)
BAD_FIELDS = [
    ("coarse_dt", 0.0, "coarse_dt must be positive"),
    ("fine_dt", -0.4, "fine_dt must be positive"),
    pytest.param("time_budget", float("nan"), "time_budget must be a finite number",
                 id="time_budget-nan-time_budget must be finite and positive"),
    pytest.param("time_budget", float("inf"), "time_budget must be a finite number",
                 id="time_budget-inf-time_budget must be finite and positive"),
    ("coarse_plan_time", -2.0, "coarse_plan_time must be nonnegative"),
    ("fine_plan_time", -0.5, "fine_plan_time must be nonnegative"),
    pytest.param("image_time", float("nan"), "image_time must be a finite number",
                 id="image_time-nan-image_time must be nonnegative"),
    ("image_time", -0.139, "image_time must be nonnegative"),
    ("replan_interval", 0, "replan_interval must be at least 1"),
    pytest.param("coarse_dt", float("inf"), "coarse_dt must be a finite number",
                 id="coarse_dt-inf-coarse_dt must be positive and finite"),
    pytest.param("fine_dt", float("inf"), "fine_dt must be a finite number",
                 id="fine_dt-inf-fine_dt must be positive and finite"),
    # a bool read as a number ran with exit status 0
    pytest.param("coarse_dt", True, "coarse_dt must be a finite number",
                 id="coarse_dt-True-coarse_dt must be a number"),
]


class TestMethod:
    def test_method_sets_the_camera_mode(self):
        config = ExperimentConfig.from_dict({"method": "eto-fixed-camera"})
        assert config.mission.camera_mode == "fixed"
        assert config.for_method("eto-random-camera").mission.camera_mode == "random"
        assert ExperimentConfig().mission.camera_mode == "optimized"


class TestFieldValidation:
    @pytest.mark.parametrize("field,value,message", BAD_FIELDS)
    def test_constructor_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            BiLevelConfig(**{field: value})
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"mission": {field: value}})

    @pytest.mark.parametrize("field,value,message", BAD_FIELDS)
    def test_cli_run_exits_with_config_status(self, field, value, message,
                                              tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mission": {field: value}}))
        out = tmp_path / "trial"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


# mission geometry and actuation limits: each bad value used to pass
# construction and then stop the mission at its first map, plan or bound
# with a traceback and exit status 1
BAD_GEOMETRY = [
    pytest.param("start_pose", [150.0, 50.0, 0.0],
                 "start_pose lies outside the coarse workspace", id="start_pose"),
    pytest.param("epicenters", [[[90.0, 90.0, 20.0, 20.0], 5.0]],
                 "lies outside the coarse workspace", id="epicenter_rectangle"),
    pytest.param("epicenters", [[[10.0, 10.0, 5.0, 5.0], 0.5]],
                 "multipliers must be at least 1", id="epicenter_multiplier"),
    pytest.param("coarse_lengths", [100.0, 0.0], "coarse_lengths must be positive",
                 id="coarse_lengths"),
    pytest.param("body_speed_max", 0.0, "body_speed_max must be positive",
                 id="body_speed_max"),
    pytest.param("body_turn_max", 0.0, "body_turn_max must be positive",
                 id="body_turn_max"),
    pytest.param("body_step_cap", -1.0, "body_step_cap must be positive",
                 id="body_step_cap"),
    pytest.param("camera_rate_max", 0.0, "camera_rate_max must be positive",
                 id="camera_rate_max"),
    pytest.param("camera_step_cap", 0.0, "camera_step_cap must be positive",
                 id="camera_step_cap"),
    pytest.param("pitch_bounds", [0.5, -1.5], "pitch_bounds must be increasing",
                 id="pitch_bounds"),
    pytest.param("camera_start", [3.0, 0.0],
                 "camera_start lies outside the fine workspace", id="camera_start"),
    pytest.param("yaw_limit", 0.0, "yaw_limit must be positive", id="yaw_limit"),
    # these two ran with exit status 0: a flat prior map with rocks drawn in
    # the empty rectangle, and a fixed camera looking above the horizon
    pytest.param("epicenters", [[[30.0, 30.0, -10.0, -10.0], 5.0]],
                 "needs a positive width and height", id="epicenter_size"),
    pytest.param("fixed_pitch", 2.0, "fixed_pitch lies outside pitch_bounds",
                 id="fixed_pitch"),
    # a non-finite length, low or limit was accepted, or rejected under the
    # name of another field: a start pose outside the workspace or a step
    # cap of at least inf; an infinite step cap stopped the mission's first
    # solve, and an infinite turn rate ran on through NaN arithmetic
    pytest.param("coarse_lengths", [100.0, float("nan")],
                 "coarse_lengths must be a list of the form", id="coarse_lengths_nan"),
    pytest.param("coarse_lengths", [100.0, float("inf")],
                 "coarse_lengths must be a list of the form", id="coarse_lengths_infinite"),
    pytest.param("coarse_lows", [float("nan"), 0.0], "coarse_lows must be a list of the form",
                 id="coarse_lows_nan"),
    pytest.param("pitch_bounds", [float("-inf"), 0.5],
                 "pitch_bounds must be a list of the form", id="pitch_bounds_infinite"),
    pytest.param("body_speed_max", float("inf"), "body_speed_max must be a finite number",
                 id="body_speed_max_infinite"),
    pytest.param("camera_rate_max", float("inf"),
                 "camera_rate_max must be a finite number", id="camera_rate_max_infinite"),
    pytest.param("body_step_cap", float("inf"), "body_step_cap must be a finite number",
                 id="body_step_cap_infinite"),
    pytest.param("camera_step_cap", float("inf"),
                 "camera_step_cap must be a finite number", id="camera_step_cap_infinite"),
    pytest.param("body_turn_max", float("inf"), "body_turn_max must be a finite number",
                 id="body_turn_max_infinite"),
]


class TestGeometryValidation:
    @pytest.mark.parametrize("field,value,message", BAD_GEOMETRY)
    def test_constructor_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            BiLevelConfig(**{field: value})
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"mission": {field: value}})

    @pytest.mark.parametrize("field,value,message", BAD_GEOMETRY)
    def test_cli_run_exits_with_config_status(self, field, value, message,
                                              tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mission": {field: value}}))
        out = tmp_path / "trial"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_boundary_values_accepted(self):
        cfg = BiLevelConfig(start_pose=(100.0, 0.0, 1.0),
                            camera_start=(-BiLevelConfig.yaw_limit, 0.5),
                            epicenters=(((0.0, 0.0, 100.0, 100.0), 1.0),))
        assert cfg.replaced(replan_interval=48).start_pose == (100.0, 0.0, 1.0)


# configs that passed validation and then stopped with a traceback and exit
# status 1: a wrong type or vector length, or a step cap below the longest
# step of the solver's initial guess ("initial iterate infeasible for the
# barrier"); from the bool rows on, configs that ran with exit status 0 on a
# wrong value; each row is (section, field, value, message)
CRASHING_CONFIGS = [
    pytest.param(None, "rock_count", 1.5, "rock_count must be an integer", id="rock_count"),
    pytest.param(None, "placement", "clustered", "unknown placement 'clustered'",
                 id="placement"),
    pytest.param(None, "identification_radius", "5",
                 "identification_radius must be a finite number", id="identification_radius"),
    pytest.param("camera", "true_positive_rate", "x",
                 "true_positive_rate must be a finite number", id="true_positive_rate"),
    pytest.param("mission", "start_pose", [50, 50],
                 "start_pose must be a list of the form", id="start_pose"),
    pytest.param("mission", "camera_start", [0.0],
                 "camera_start must be a list of the form", id="camera_start"),
    pytest.param("mission", "coarse_lows", [0], "coarse_lows must be a list of the form",
                 id="coarse_lows"),
    pytest.param("mission", "coarse_horizon", 2.5, "coarse_horizon must be an integer",
                 id="coarse_horizon"),
    pytest.param("mission", "body_step_cap", 4.0, "body_step_cap must be at least",
                 id="body_step_cap"),
    pytest.param("mission", "camera_step_cap", 0.2, "camera_step_cap must be at least",
                 id="camera_step_cap"),
    pytest.param(None, "rock_count", True, "rock_count must be an integer",
                 id="rock_count_bool"),
    pytest.param(None, "identification_radius", True,
                 "identification_radius must be a finite number",
                 id="identification_radius_bool"),
    # a NaN range saw rocks at any distance, an infinite identification
    # radius credited every rock to the first detection, and a yaw limit
    # wider than half a turn let the camera plan over more than a full turn
    pytest.param("camera", "max_range", float("nan"), "max_range must be a finite number",
                 id="camera_max_range"),
    pytest.param("camera", "hfov", True, "hfov must be a finite number", id="camera_hfov"),
    pytest.param("camera", "mount_height", True, "mount_height must be a finite number",
                 id="camera_mount_height"),
    pytest.param("camera", "true_positive_rate", 2.0, "true_positive_rate must lie in",
                 id="camera_true_positive_rate"),
    pytest.param(None, "identification_radius", float("inf"),
                 "identification_radius must be a finite number",
                 id="identification_radius_infinite"),
    pytest.param("mission", "yaw_limit", 4.0, "yaw_limit must lie in", id="mission_yaw_limit"),
    # a NaN or infinite heading stopped the first coarse solve outside its
    # workspace, an infinite epicenter multiplier left the solver no feasible
    # start, and an infinite charge ran with exit status 0 and wrote
    # Infinity, which is no JSON, into metrics.json
    pytest.param("mission", "start_pose", [50.0, 50.0, float("nan")],
                 "start_pose must be a list of the form", id="start_pose_nan_heading"),
    pytest.param("mission", "start_pose", [50.0, 50.0, float("-inf")],
                 "start_pose must be a list of the form", id="start_pose_infinite_heading"),
    pytest.param("mission", "epicenters", [[[10.0, 10.0, 5.0, 5.0], float("inf")]],
                 "epicenters must be a list of the form", id="epicenter_multiplier_infinite"),
    pytest.param("mission", "coarse_plan_time", float("inf"),
                 "coarse_plan_time must be a finite number", id="coarse_plan_time_infinite"),
    pytest.param("mission", "fine_plan_time", float("inf"),
                 "fine_plan_time must be a finite number", id="fine_plan_time_infinite"),
    pytest.param("mission", "image_time", float("inf"),
                 "image_time must be a finite number", id="image_time_infinite"),
    # a step cap longer than its workspace's diagonal never binds; at 1e300
    # the first solve overflowed squaring it
    pytest.param("mission", "body_step_cap", 1e300, "body_step_cap must be at most",
                 id="body_step_cap_huge"),
    pytest.param("mission", "camera_step_cap", 1e300, "camera_step_cap must be at most",
                 id="camera_step_cap_huge"),
    pytest.param("mission", "body_step_cap", math.nextafter(BODY_DIAGONAL, math.inf),
                 "body_step_cap must be at most", id="body_step_cap_past_diagonal"),
    pytest.param("mission", "camera_step_cap", math.nextafter(CAMERA_DIAGONAL, math.inf),
                 "camera_step_cap must be at most", id="camera_step_cap_past_diagonal"),
]
CONSTRUCTORS = {None: ExperimentConfig, "camera": CameraModel, "mission": BiLevelConfig}


def nested(section, field, value):
    return {field: value} if section is None else {section: {field: value}}


class TestCrashingConfigs:
    @pytest.mark.parametrize("section,field,value,message", CRASHING_CONFIGS)
    def test_constructor_rejects(self, section, field, value, message):
        with pytest.raises(ValueError, match=message):
            CONSTRUCTORS[section](**{field: value})
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(nested(section, field, value))

    @pytest.mark.parametrize("section,field,value,message", CRASHING_CONFIGS)
    def test_cli_run_exits_with_config_status(self, section, field, value, message,
                                              tmp_path, capsys):
        config = nested(section, field, value)
        config.setdefault("mission", {})["time_budget"] = 300.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "trial"
        assert main(["run", "--config", str(path), "--seed", "1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


# configs that ran with a value silently rewritten and exit status 0 (a
# float or bool seed became seed 1, a mission camera mode gave way to the
# method's), or exited 2 with a conversion or unpack error that named no
# field; each row is (config, message)
UNNAMED_FIELDS = [
    pytest.param({"seeds": [1.5]}, "seeds must be a list of the form [integer, ...]",
                 id="seeds_float"),
    pytest.param({"seeds": [True]}, "seeds must be a list of the form [integer, ...]",
                 id="seeds_bool"),
    pytest.param({"seeds": ["x"]}, "seeds must be a list of the form [integer, ...]",
                 id="seeds_string"),
    pytest.param({"seeds": 3}, "seeds must be a list of the form [integer, ...]",
                 id="seeds_scalar"),
    # a negative seed exited 1 with numpy's "expected non-negative integer"
    pytest.param({"seeds": [-1]}, "seeds must be nonnegative", id="seeds_negative"),
    pytest.param({"seeds": []}, "seeds must be nonnegative and nonempty", id="seeds_empty"),
    # a list exited 2 with "unhashable type: 'list'"
    pytest.param({"method": [1]}, "method must be a string", id="method_list"),
    pytest.param({"mission": {"epicenters": [[1, 2]]}}, "epicenters must be a list of",
                 id="epicenter_numbers"),
    pytest.param({"mission": {"epicenters": [[[10, 10, 5, 5]]]}},
                 "epicenters must be a list of", id="epicenter_without_multiplier"),
    pytest.param({"mission": {"camera_mode": "fixed"}},
                 "mission.camera_mode is chosen by method", id="camera_mode"),
    # a list, string, number or null at the top exited 1 with a traceback,
    # an empty list ran a full default mission, and a scalar section or an
    # unknown top-level or camera key exited 2 with a message of Python's
    # own; the camera's occlusion sector is the mission's, so a camera key
    # for it is unknown, and the planner's tuning is no mission key
    pytest.param([1], "the config must be a JSON object", id="top_list"),
    pytest.param([], "the config must be a JSON object", id="top_empty_list"),
    pytest.param("x", "the config must be a JSON object", id="top_string"),
    pytest.param(5, "the config must be a JSON object", id="top_number"),
    pytest.param(None, "the config must be a JSON object", id="top_null"),
    pytest.param({"mission": 5}, "mission must be a JSON object", id="mission_scalar"),
    pytest.param({"camera": [1]}, "camera must be a JSON object", id="camera_list"),
    pytest.param({"colour": 1}, "unknown config keys: ['colour']", id="top_unknown"),
    pytest.param({"camera": {"yaw_limit": 0.5}}, "unknown camera keys: ['yaw_limit']",
                 id="camera_yaw_limit"),
    pytest.param({"mission": {"clip_factor": 0.1}}, "unknown mission keys: ['clip_factor']",
                 id="mission_tuning"),
]


class TestUnnamedFields:
    @pytest.mark.parametrize("config,message", UNNAMED_FIELDS)
    def test_from_dict_rejects(self, config, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict(config)

    @pytest.mark.parametrize("config,message", UNNAMED_FIELDS)
    def test_cli_run_exits_with_config_status(self, config, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "trial"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


# the planner's tuning, once mission fields, with the defaults they had; each
# is now a module constant of that value, and a config key for it is unknown
REMOVED_TUNING = [
    ("coarse_resolution", (100, 100)),
    ("fine_resolution", (54, 24)),
    ("coarse_modes", 10),
    ("fine_modes", 8),
    ("coarse_control_weight", 1e-6),
    ("fine_control_weight", 1e-2),
    ("coarse_inner_cap", 150),
    ("coarse_outer_rounds", 6),
    ("coarse_optimality_tol", 1e-2),
    ("coarse_warm_inner_cap", 60),
    ("coarse_warm_outer_rounds", 2),
    ("fine_inner_cap", 40),
    ("fine_outer_rounds", 3),
    ("fine_optimality_tol", 5e-2),
    ("coarse_bump_amplitude", 50.0),
    ("coarse_bump_sigma", 1.5),
    ("coarse_clip_radius", 2.0),
    ("fine_bump_amplitude", 20.0),
    ("fine_bump_sigma", math.radians(5.0)),
    ("fine_clip_radius", math.radians(10.0)),
    ("clip_factor", 0.1),
    ("view_discount", 0.5),
]


class TestRemovedTuning:
    @pytest.mark.parametrize("name,default", REMOVED_TUNING)
    def test_constant_keeps_its_old_default(self, name, default):
        assert name not in BiLevelConfig.__dataclass_fields__
        assert getattr(planner, "_" + name.upper()) == default

    @pytest.mark.parametrize("name,default", REMOVED_TUNING)
    def test_from_dict_names_the_key(self, name, default):
        with pytest.raises(ConfigError, match=re.escape(f"unknown mission keys: ['{name}']")):
            ExperimentConfig.from_dict({"mission": {name: default}})

    @pytest.mark.parametrize("name,default", REMOVED_TUNING)
    def test_cli_run_exits_with_config_status(self, name, default, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mission": {name: default}}))
        out = tmp_path / "trial"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not out.exists()


# switches that only their own tests set, with the defaults they had; each
# default is now the only behaviour, and a config key for it is unknown
REMOVED_SWITCHES = [
    ("mission", "use_memory", True),
    ("mission", "track_noise", 0.0),
    ("camera", "offset_noise", 0.0),
    ("camera", "false_positive_rate", 0.0),
]


class TestRemovedSwitches:
    @pytest.mark.parametrize("section,name,default", REMOVED_SWITCHES)
    def test_field_is_gone(self, section, name, default):
        assert name not in CONSTRUCTORS[section].__dataclass_fields__

    @pytest.mark.parametrize("section,name,default", REMOVED_SWITCHES)
    def test_from_dict_names_the_key(self, section, name, default):
        with pytest.raises(ConfigError, match=re.escape(f"unknown {section} keys: ['{name}']")):
            ExperimentConfig.from_dict({section: {name: default}})

    @pytest.mark.parametrize("section,name,default", REMOVED_SWITCHES)
    def test_cli_run_exits_with_config_status(self, section, name, default, tmp_path,
                                              capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {name: default}}))
        out = tmp_path / "trial"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not out.exists()


def strict_json(text):
    """``json.loads``, except that NaN and Infinity, which are no JSON, fail."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def run_cli(config, tmp_path):
    """Run seed 1 of ``config`` through the CLI into ``tmp_path / "trial"``;
    returns the exit status."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["run", "--config", str(path), "--seed", "1",
                 "--out", str(tmp_path / "trial")])


class TestViewWithoutGround:
    def test_mast_too_high_for_any_ray_to_land_runs(self, tmp_path):
        # every ray of a 2000 m mast lands more than 87 m out, outside the
        # workspace from anywhere in it; the first fine projection raised
        # "map has no mass"
        config = {"mission": {"time_budget": 60.0}, "camera": {"mount_height": 2000.0}}
        assert run_cli(config, tmp_path) == EXIT_OK
        metrics = strict_json((tmp_path / "trial" / "metrics.json").read_text())
        assert metrics["sim_time_s"] >= 60.0


# NaN, both infinities and both signs of a huge magnitude; a horizon, a
# replan interval or a budget of such a magnitude is left out, since it asks
# for a plan or a mission of that size by design
EXTREMES = (math.nan, math.inf, -math.inf, 1e300, -1e300)


def numeric_entries():
    """(section, field, path to a number in the field's value, whether its
    magnitude sizes a plan or the mission) for every number a config file
    sets: each number of each mission field, every epicenter number among
    them, each camera field and the identification radius."""
    def numbers_in(value, path=()):
        if isinstance(value, (tuple, list)):
            for i, entry in enumerate(value):
                yield from numbers_in(entry, path + (i,))
        elif isinstance(value, (int, float)):
            yield path, isinstance(value, int)
    for section, default in (("mission", BiLevelConfig()), ("camera", CameraModel())):
        for f in fields(default):
            for path, is_int in numbers_in(getattr(default, f.name)):
                yield section, f.name, path, is_int or f.name == "time_budget"
    yield None, "identification_radius", (), False


def with_entry(value, path, entry):
    """``value`` with the number at ``path`` replaced by ``entry``."""
    if not path:
        return entry
    value = list(value)
    value[path[0]] = with_entry(value[path[0]], path[1:], entry)
    return value


EXTREME_ENTRIES = [
    pytest.param(section, name, path, extreme,
                 id=f"{name}{''.join(f'[{i}]' for i in path)}={extreme!r}")
    for section, name, path, sized in numeric_entries()
    for extreme in EXTREMES if not (sized and math.isfinite(extreme))]


class TestExtremeNumbers:
    @pytest.mark.parametrize("section,name,path,extreme", EXTREME_ENTRIES)
    def test_rejected_by_name_or_runs_to_a_clean_end(self, section, name, path, extreme,
                                                      tmp_path, capsys):
        # a config that passes validation runs a 20 s bl-eto mission to exit
        # status 0 and strict-JSON metrics; one that does not exits 2 and
        # names the field, also where a huge magnitude breaks a relation to
        # another field (a 1e300 coarse_dt makes body_step_cap too short)
        value = with_entry(getattr(CONSTRUCTORS[section](), name), path, extreme)
        config = {"mission": {"time_budget": 20.0}}
        (config if section is None else config.setdefault(section, {}))[name] = value
        status = run_cli(config, tmp_path)
        err = capsys.readouterr().err
        if status == EXIT_CONFIG:
            assert err.startswith("config error: ")
            assert name in err
            assert not (tmp_path / "trial").exists()
        else:
            assert status == EXIT_OK
            strict_json((tmp_path / "trial" / "metrics.json").read_text())


class TestJsonForm:
    def test_every_field_survives_its_json_form(self, tmp_path):
        # a config file that spells out every field at its default runs the
        # same mission as one that leaves them out
        full = asdict(ExperimentConfig(mission=BiLevelConfig(time_budget=120.0)))
        del full["mission"]["camera_mode"]
        trials = []
        for name, config in (("full", full), ("short", {"mission": {"time_budget": 120}})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / name
            assert main(["run", "--config", str(path), "--seed", "1",
                         "--out", str(out)]) == EXIT_OK
            trials.append({f.name: f.read_bytes() for f in out.iterdir()
                           if f.name != "timing.txt"})
        assert len(trials[0]) > 1 and trials[0] == trials[1]


class TestStepCaps:
    """The least accepted caps: the longest step of the control box (the
    body's speed limit over ``coarse_dt``, the camera's rate box diagonal
    over ``fine_dt``), plus the cold guess's wiggle of 1 mm per axis twice,
    plus the interior nudge, 1e-3 of the workspace diagonal."""

    @staticmethod
    def least_caps():
        cfg = BiLevelConfig()
        fine_lengths = (2.0 * cfg.yaw_limit, cfg.pitch_bounds[1] - cfg.pitch_bounds[0])
        body = (cfg.coarse_dt * cfg.body_speed_max + 2.0 * 1e-3 * math.sqrt(2)
                + 1e-3 * math.hypot(*cfg.coarse_lengths))
        camera = (cfg.fine_dt * math.hypot(cfg.camera_rate_max, cfg.camera_rate_max)
                  + 2.0 * 1e-3 * math.sqrt(2) + 1e-3 * math.hypot(*fine_lengths))
        return body, camera

    def test_least_caps_are_the_boundary(self):
        body, camera = self.least_caps()
        assert 4.5 < body < BiLevelConfig.body_step_cap
        assert 0.6 * 0.4 * math.sqrt(2) < camera < BiLevelConfig.camera_step_cap
        BiLevelConfig(body_step_cap=body, camera_step_cap=camera)
        for field, cap in (("body_step_cap", body), ("camera_step_cap", camera)):
            with pytest.raises(ValueError, match=f"{field} must be at least"):
                BiLevelConfig(**{field: math.nextafter(cap, 0.0)})

    def test_greatest_caps_are_the_diagonals(self):
        BiLevelConfig(body_step_cap=BODY_DIAGONAL, camera_step_cap=CAMERA_DIAGONAL)

    def test_mission_at_the_least_caps_completes(self):
        # from corners of both workspaces, where the nudge moves the first
        # free position of every guess the most
        body, camera = self.least_caps()
        mission = BiLevelConfig(time_budget=120.0, body_step_cap=body,
                                camera_step_cap=camera, start_pose=(100.0, 0.0, 0.0),
                                camera_start=(-BiLevelConfig.yaw_limit,
                                              BiLevelConfig.pitch_bounds[0]))
        metrics = run_trial(ExperimentConfig(mission=mission), 1)
        assert metrics.sim_time_s >= 120.0 and metrics.body_steps > 0
