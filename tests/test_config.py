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
