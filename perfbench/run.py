"""Mission benchmark for bleto: wall time per simulated mission, per layer.

One process runs one mission at a time, closed loop, through the public
``bleto.bench.run_trial``, exactly as ``bleto run`` does, and checks every
trial directory it writes.  Workloads are defined in ``workloads.py``.

    python3 perfbench/run.py --workload receding --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With ``--trace 0`` a run reports the end-to-end metrics: ``setup_s``
(median of fresh-interpreter set-ups, one after each mission), ``mission_s``
(median wall time of ``run_trial``) and ``peak_rss_mb``.  With ``--trace 1``
it spends half its time untraced and half traced, and reports per-layer
metrics from spans recorded around the public functions the mission calls
(see ``spans.py``), per traced mission, plus the tracing overhead.

Missions run on many scenarios: the run's own seed (twice, as a determinism
check) and then seeds derived from it, so that one unusual rock field does
not set a run's median.

Both modes also print, as comment lines, the deterministic mission outcomes
(``fraction_found``, ``coverage_metric``, ``failed_share``), the metrics.json
digest and the environment.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  All files go under
``.perfbench/`` in the checkout; the spans of a traced run are written there
as CSV when it ends.
"""

import bootstrap

bootstrap.pin()  # before anything imports numpy

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bleto.bench  # noqa: E402
import bleto.world  # noqa: E402
from checks import check_trial, scenario_digest, sha256_file  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = bootstrap.ROOT / ".perfbench"
SETUP_TIMEOUT_S = 60
DEFAULT_SECONDS = 36


def median(values):
    return percentile(values, 50.0)


def mean(values):
    return float(np.mean(values)) if values else 0.0


def scenario_seed(seed, index):
    """Scenario of a run's ``index``-th distinct mission: the run's own seed
    first, then seeds derived from it.  Timing many scenarios per run keeps
    one unusual rock field from setting a run's median."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def paired_scenario_hash(seed):
    """Scenario digest for ``seed``, or None if the workloads disagree on it."""
    digests = {scenario_digest(bleto.world.scenario_to_json(
        bleto.bench.build_scenario(w.config(), seed))) for w in WORKLOADS.values()}
    return digests.pop() if len(digests) == 1 else None


class Missions:
    """Missions of one workload over a run's scenarios, with output checks."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.config = workload.config()
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # scenario seed -> metrics.json digest of every repeat
        self.outcomes = []  # metrics.json of every mission that passed its checks
        self.artifact_bytes = []

    def run_one(self, seed, tracer=None):
        """Run, time and check one mission; return (wall seconds, passed)."""
        trial = Path(tempfile.mkdtemp(prefix="trial-", dir=self.workdir))
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.mission(seed) if tracer else nullcontext():
                bleto.bench.run_trial(self.config, seed, trial)
            wall = time.perf_counter() - start
            scenario_hash = paired_scenario_hash(seed)
            problems = check_trial(trial, self.config, seed, scenario_hash)
            if scenario_hash is None:
                problems.append("the workloads see different scenarios")
            repeats = self.digests.setdefault(seed, [])
            repeats.append(sha256_file(trial / "metrics.json"))
            if repeats[-1] != repeats[0]:
                problems.append("metrics.json differs from an earlier repeat")
            if not problems:
                self.outcomes.append(json.loads((trial / "metrics.json").read_text()))
                self.artifact_bytes.append(
                    sum(p.stat().st_size for p in trial.iterdir()))
        except Exception:  # a failing mission is counted, and the run goes on
            traceback.print_exc()
            wall = time.perf_counter() - start
            problems = ["mission raised"]
        finally:
            shutil.rmtree(trial, ignore_errors=True)
        for problem in problems:
            print(f"# FAILED {self.workload.name} scenario seed {seed}: {problem}",
                  file=sys.stderr)
        self.failed += bool(problems)
        return wall, not problems

    def timed(self, seconds, seeds, min_missions, tracer=None, between=None):
        """[(scenario seed, wall seconds)] of passing missions run back to
        back over ``seeds`` for ``seconds``, calling ``between()`` after each.

        Once ``min_missions`` have run, no mission starts that the previous
        one's time says would end past the deadline.
        """
        times = []
        start = time.perf_counter()
        for n, seed in enumerate(seeds, 1):
            wall, passed = self.run_one(seed, tracer)
            if passed:
                times.append((seed, wall))
            if between is not None:
                between()
            if n >= min_missions and time.perf_counter() - start + wall > seconds:
                break
        return times

    def scenario_seeds(self):
        """The run's own scenario twice (a determinism check), then the rest."""
        yield self.seed
        for index in itertools.count():
            yield scenario_seed(self.seed, index)

    def outcome_metrics(self):
        fractions = [m["fraction_found"] for m in self.outcomes]
        coverage = [m["final_ergodic_metric"] for m in self.outcomes]
        n = len(self.outcomes)
        return {
            "mission.fraction_found": (mean(fractions), "ratio", f"mean of {n}"),
            "mission.coverage_metric": (mean(coverage), "1", f"mean of {n}"),
            "mission.failed_share": (self.failed / self.attempted, "ratio",
                                     f"{self.failed} of {self.attempted}"),
        }


def setup_sample(workload, seed):
    """Seconds of one set-up in a fresh interpreter (see setup_probe.py)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout.split()[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mission_note(times):
    scenarios = len({s for s, _ in times})
    note = f"median of {len(times)} missions on {scenarios} scenarios"
    q = tail_percentile(len(times))
    if q is None:
        return note + "; no tail percentile (needs 10 samples beyond it)"
    return note + f"; p{q:g} {percentile([t for _, t in times], q):.6g} s"


def print_times(label, times):
    print(f"#   {label} wall times (s): "
          + " ".join(f"{t:.4f}[{s}]" for s, t in times))


def end_to_end(missions, seconds):
    # one set-up after each mission, so the samples spread over the run
    setup = []
    times = missions.timed(
        seconds, missions.scenario_seeds(), min_missions=2,
        between=lambda: setup.append(setup_sample(missions.workload, missions.seed)))
    print_times("mission", times)
    walls = [t for _, t in times]
    return {
        "setup_s": (median(setup), "s", f"median of {len(setup)}"),
        "mission_s": (median(walls) if walls else 0.0, "s", mission_note(times)),
        "peak_rss_mb": (peak_rss_mb(), "MB", "process peak"),
    }


def per_layer(missions, seconds, spans_path):
    """Untraced missions for half the time, then the same scenarios traced."""
    untraced = missions.timed(seconds / 2.0, missions.scenario_seeds(), min_missions=2)
    tracer = Tracer()
    with tracer.installed():
        traced = missions.timed(seconds / 2.0, (s for s, _ in untraced[1:]),
                                min_missions=1, tracer=tracer)
    tracer.write_csv(spans_path)
    print_times("untraced", untraced)
    print_times("traced", traced)
    layers = layer_metrics(
        tracer, sum(s.name == "bench.run_trial" for s in tracer.spans))
    untraced_wall = dict(untraced[1:])
    traced_mean = mean([t for _, t in traced])
    layers.update({
        "bench.artifact_bytes": mean(missions.artifact_bytes),
        "trace.mission_s": traced_mean,
        "trace.overhead_s": mean([t - untraced_wall[s] for s, t in traced]),
    })
    out = {name: (value, _unit(name), f"{len(traced)} traced missions")
           for name, value in layers.items()}
    busy = sum(layers[f"{layer}.self_s"] for layer in LAYERS if layer != "bench")
    busy += layers["bench.trial_overhead_s"]
    return out, busy <= traced_mean + 1e-9


def _unit(name):
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit():
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return "unknown"
    except OSError:
        return "none (not a git checkout)"


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(bootstrap.SRC.rglob("*.py")):
        h.update(str(path.relative_to(bootstrap.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(workload, seed, seconds, trace, workdir):
    """One benchmark run: (metrics {name: (value, unit, note)}, correct, missions)."""
    missions = Missions(workload, seed, workdir)
    correct = True
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv"
        metrics, correct = per_layer(missions, seconds, spans_path)
        if not correct:
            print("# FAILED layer self times exceed the traced mission time",
                  file=sys.stderr)
    else:
        metrics = end_to_end(missions, seconds)
    outcomes = missions.outcome_metrics()
    correct = correct and missions.failed == 0 and bool(missions.outcomes)
    print(f"# {workload.name} seed {seed} ({workload.method}, "
          f"{workload.time_budget:g} s budget), trace {int(trace)}: "
          f"{missions.attempted} missions, {missions.failed} failed")
    for name, (value, unit, note) in {**metrics, **outcomes}.items():
        print(f"#   {name:<34} {value:>14.6g} {unit:<6} {note}")
    own = missions.digests.get(seed, [])
    print(f"#   metrics.json sha256 of seed {seed}: {', '.join(sorted(set(own)))} "
          f"({len(own)} repeats)")
    if trace:
        metrics.update(outcomes)
    return metrics, correct, missions


SUMMARY = ("setup_s", "mission_s", "peak_rss_mb", "mission.fraction_found",
           "mission.coverage_metric", "mission.failed_share")


def print_summary(combined):
    """One row per workload: the end-to-end metrics and mission outcomes."""
    first = next(iter(WORKLOADS))
    print("# summary: " + ", ".join(
        f"{name} [{combined[f'{first}/{name}'][1]}]" for name in SUMMARY))
    for workload in WORKLOADS:
        print(f"#   {workload:<13}" + "".join(
            f" {combined[f'{workload}/{name}'][0]:>12.5g}" for name in SUMMARY))


def result(metrics, correct, attempted, failed):
    return json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    print("# env " + json.dumps(environment(), sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.workload != "all":
            metrics, correct, missions = measure(
                WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                workdir)
            print(result(metrics, correct, missions.attempted, missions.failed))
            return 0
        # every workload in this one process, untraced then traced
        combined, all_correct, attempted, failed = {}, True, 0, 0
        for workload in WORKLOADS.values():
            for trace in (False, True):
                metrics, correct, missions = measure(
                    workload, args.seed, args.seconds, trace, workdir)
                combined.update({f"{workload.name}/{k}": v for k, v in metrics.items()})
                all_correct = all_correct and correct
                attempted += missions.attempted
                failed += missions.failed
        print_summary(combined)
        print(result(combined, all_correct, attempted, failed))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
