"""Bi-level ergodic trajectory optimization for image-guided exploration.

A spectral coverage metric with a constrained trajectory optimizer, coarse
(body) and fine (camera) planners coupled through detection-driven
occupancy information maps, and a deterministic simulator plus benchmark
harness for comparing fixed-, random-, and optimized-camera exploration.
"""

from .dynamics import (ControlBounds, SingleIntegratorModel, UnicycleModel,
                       rollout)
from .ergodic import (CoverageCost, FourierBasis, OutsideWorkspaceError,
                      Workspace, ergodic_metric, map_coefficients)
from .infomap import (DetectionEvent, InfoMap, init_coarse, project_to_fine,
                      register_detection, update_fine)
from .planner import (BiLevelConfig, CoverageMemory, Mission, MissionLog,
                      ergodic_coarse_planner, ergodic_fine_planner)
from .solver import ErgodicProblem, Trajectory, shift_warm_start, solve
from .world import (CameraModel, Rock, Scenario, classify_view,
                    generate_scenario, project_detection)

__version__ = "0.1.0"
