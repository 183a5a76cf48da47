"""Configuration validation: a config that passes construction must not
fail mid-mission, and the CLI turns a rejected config into exit status 2."""

import json

import pytest

from bleto.bench import ConfigError, ExperimentConfig
from bleto.cli import EXIT_CONFIG, main
from bleto.planner import BiLevelConfig


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
    ("coarse_modes", 0, "coarse_modes must be at least 1"),
    ("fine_modes", 0, "fine_modes must be at least 1"),
    ("coarse_resolution", [100, 0], "coarse_resolution needs at least one cell"),
    ("fine_resolution", [0, 24], "fine_resolution needs at least one cell"),
    ("time_budget", float("nan"), "time_budget must be finite and positive"),
    ("time_budget", float("inf"), "time_budget must be finite and positive"),
    ("coarse_plan_time", -2.0, "coarse_plan_time must be nonnegative"),
    ("fine_plan_time", -0.5, "fine_plan_time must be nonnegative"),
    ("image_time", float("nan"), "image_time must be nonnegative"),
    ("image_time", -0.139, "image_time must be nonnegative"),
    ("replan_interval", 0, "replan_interval must be at least 1"),
    ("coarse_dt", float("inf"), "coarse_dt must be positive and finite"),
    ("fine_dt", float("inf"), "fine_dt must be positive and finite"),
    ("coarse_control_weight", float("nan"),
     "coarse_control_weight must be finite and nonnegative"),
    ("fine_control_weight", -1.0, "fine_control_weight must be finite and nonnegative"),
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
        assert cfg.replaced(coarse_inner_cap=60).start_pose == (100.0, 0.0, 1.0)
