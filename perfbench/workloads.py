"""The benchmark's workloads: one mission configuration each.

Every workload builds its scenario with ``bleto.bench.build_scenario`` from
the same seed, so a seed gives the same rock field in every workload and the
workloads differ only in how the rover and its camera plan.  Simulated
budgets are chosen so that one mission takes a few seconds of wall time on
a 2-core x86 machine, which lets one timed run hold several missions.
"""

from dataclasses import dataclass

from bleto.bench import ExperimentConfig
from bleto.planner import BiLevelConfig


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    time_budget: float  # simulated seconds per mission
    open_loop: bool = False  # body replans only on detections or an exhausted plan

    def config(self):
        mission = BiLevelConfig(time_budget=self.time_budget)
        if self.open_loop:
            mission = mission.replaced(replan_interval=mission.coarse_horizon)
        return ExperimentConfig(mission=mission).for_method(self.method)


WORKLOADS = {w.name: w for w in (
    # The paper's method as the repo runs it: a warm coarse replan every body
    # step, so the ergodic kernel and the coarse solver take most of the time.
    Workload("receding", "bl-eto", 300.0),
    # The body replans only after a detection or when its plan runs out: the
    # only workload where the fine planner, fine-map updates, the cold solve
    # and the trial's file writes carry a visible share.
    Workload("open-loop", "bl-eto", 2700.0, open_loop=True),
    # The fixed-mast baseline: no fine planner and no fine map, one image per
    # body step.  A camera-side change should leave it unchanged.
    Workload("fixed-camera", "eto-fixed-camera", 300.0),
)}
