"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is importing bleto, building the workload's config, generating the
scenario and constructing the first Mission.  ``run.py`` starts this script
after each untraced mission and reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import bootstrap


def main(workload, seed):
    start = time.perf_counter()
    from bleto.bench import build_scenario
    from bleto.planner import Mission

    from workloads import WORKLOADS

    config = WORKLOADS[workload].config()
    scenario = build_scenario(config, seed)
    Mission(config.mission, scenario, seed, camera_model=config.camera)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    bootstrap.pin()
    main(sys.argv[1], int(sys.argv[2]))
