"""Spans recorded from outside the program, plus the arithmetic on them.

``Tracer.installed()`` replaces the public functions a mission calls with
wrappers that record one span per call: name, start, end, parent span and
the mission (trace id) it belongs to.  The mission reaches every wrapped
function through a module or class attribute, so patching the attribute
sees every call.  Spans stay in memory until ``write_csv``.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so the children cover
disjoint parts of the parent's interval.
"""

import contextlib
import functools
import math
import time

import bleto.bench
import bleto.dynamics
import bleto.ergodic
import bleto.infomap
import bleto.planner
import bleto.solver
import bleto.world

LAYERS = ("ergodic", "solver", "dynamics", "planner", "infomap", "world", "bench")


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, candidates=(99.0, 95.0, 90.0, 75.0)):
    """Highest candidate percentile with at least ten of n samples beyond it."""
    for q in candidates:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q
    return None


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id")

    def __init__(self, name, start, end, parent, trace_id):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace_id = trace_id


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.trace_id = 0
        self.active = False
        self.facts = {}  # span index -> what the hook kept from the call
        self._stack = []
        self._t0 = time.perf_counter()

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.trace_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                tracer.facts[index] = hook(args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, hook) for every traced call site."""
        b, d, e, i, p, s, w = (bleto.bench, bleto.dynamics, bleto.ergodic,
                               bleto.infomap, bleto.planner, bleto.solver,
                               bleto.world)
        targets = [
            (b, "run_trial", "bench.run_trial", None),
            (p.Mission, "run", "planner.Mission.run", None),
            (p, "ergodic_coarse_planner", "planner.coarse_plan", None),
            (p, "ergodic_fine_planner", "planner.fine_plan", None),
            (p, "solve", "solver.solve", _solve_facts),
            # planner imported map_coefficients by name: patch both bindings
            (p, "map_coefficients", "ergodic.map_coefficients", None),
            (e, "map_coefficients", "ergodic.map_coefficients", None),
            (e.FourierBasis, "eval_points", "ergodic.eval_points", _mode_points),
            (e.FourierBasis, "eval_points_with_gradient",
             "ergodic.eval_points_with_gradient", _mode_points),
            (s, "rollout", "dynamics.rollout", None),
            (i, "register_detection", "infomap.register_detection", None),
            (i, "update_fine", "infomap.update_fine", None),
            (i, "project_to_fine", "infomap.project_to_fine", None),
            (i.InfoMap, "check_invariants", "infomap.check_invariants", None),
            (w, "classify_view", "world.classify_view", _is_detection),
            (w, "project_detection", "world.project_detection", None),
        ]
        for model in (d.UnicycleModel, d.SingleIntegratorModel):
            targets.append((model, "step_batch", "dynamics.step_batch", None))
            targets.append((model, "jacobians", "dynamics.jacobians", None))
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced call site; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, hook in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def mission(self, trace_id):
        """Record spans under ``trace_id`` while the block runs."""
        self.trace_id = trace_id
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("trace_id,span_id,parent_id,name,start_s,end_s\n")
            for index, s in enumerate(self.spans):
                f.write(f"{s.trace_id},{index},{s.parent},{s.name},"
                        f"{s.start - self._t0!r},{s.end - self._t0!r}\n")


# Hooks: what a wrapped call's arguments and result leave in Tracer.facts.

def _mode_points(args, kwargs, result):
    values = result[0] if isinstance(result, tuple) else result
    return values.size  # modes x points evaluated


def _is_detection(args, kwargs, result):
    return result[0] != "background"


def _solve_facts(args, kwargs, result):
    problem = args[0]
    warm = kwargs.get("warm_start", args[1] if len(args) > 1 else None)
    return problem, warm, result


def solve_outcomes(problem, warm_start, trajectory):
    """(iterations, outer rounds, line-search failures, fallback, zero_iter).

    ``fallback``: the solver ran at least one iteration and still returned
    controls bit-equal to its clipped initial guess.
    """
    diag = trajectory.diagnostics
    if warm_start is not None:
        guess = warm_start.controls
    else:
        guess = bleto.solver.default_initial_guess(problem)[1]
    guess = problem.bounds.clip(guess)
    fallback = diag.iterations >= 1 and (
        trajectory.controls.shape == guess.shape
        and bool((trajectory.controls == guess).all()))
    return (diag.iterations, diag.outer_rounds, diag.line_search_failures,
            fallback, diag.iterations == 0)


def layer_metrics(tracer, missions):
    """Per-layer metrics, per traced mission (means over ``missions``).

    Must run with the tracer inactive: classifying a cold solve's fallback
    re-computes its initial guess through the wrapped ``rollout``.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls, busy, durations = {}, {}, {}
    for index, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + own[index]
        durations.setdefault(s.name, []).append(s.end - s.start)

    def per(x):
        return x / missions if missions else 0.0

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return busy.get(name, 0.0)

    def layer_self(layer):
        return sum(v for k, v in busy.items() if k.startswith(layer + "."))

    def ms(name, q):
        xs = durations.get(name)
        return 1e3 * percentile(xs, q) if xs else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    work = {name: 0 for name in ("ergodic.eval_points",
                                 "ergodic.eval_points_with_gradient")}
    images = detections = 0
    solves = {"coarse": [], "fine": []}
    cold_ms = []
    for index, fact in tracer.facts.items():
        name = spans[index].name
        if name in work:
            work[name] += fact
        elif name == "world.classify_view":
            images += 1
            detections += bool(fact)
        elif name == "solver.solve":
            problem, warm, trajectory = fact
            parent = spans[index].parent
            level = ("coarse" if parent >= 0
                     and spans[parent].name == "planner.coarse_plan" else "fine")
            solves[level].append(solve_outcomes(problem, warm, trajectory))
            if level == "coarse" and warm is None:
                cold_ms.append(1e3 * (spans[parent].end - spans[parent].start))

    def mean_of(level, field):
        rows = solves[level]
        return ratio(sum(r[field] for r in rows), len(rows))

    all_solves = solves["coarse"] + solves["fine"]
    metrics = {
        "ergodic.basis_grad_calls": per(c("ergodic.eval_points_with_gradient")),
        "ergodic.basis_grad_s": per(t("ergodic.eval_points_with_gradient")),
        "ergodic.basis_eval_calls": per(c("ergodic.eval_points")),
        "ergodic.basis_eval_s": per(t("ergodic.eval_points")),
        "ergodic.mode_points": per(sum(work.values())),
        "ergodic.map_coefficients_calls": per(c("ergodic.map_coefficients")),
        "ergodic.map_coefficients_s": per(t("ergodic.map_coefficients")),
        "solver.coarse_iterations": mean_of("coarse", 0),
        "solver.fine_iterations": mean_of("fine", 0),
        "solver.coarse_outer_rounds": mean_of("coarse", 1),
        "solver.line_search_failures": per(sum(r[2] for r in all_solves)),
        "solver.coarse_fallback_ratio": mean_of("coarse", 3),
        "solver.fine_fallback_ratio": mean_of("fine", 3),
        "solver.fine_zero_iter_ratio": mean_of("fine", 4),
        "dynamics.rollout_calls": per(c("dynamics.rollout")),
        "dynamics.rollout_s": per(t("dynamics.rollout")),
        "dynamics.step_batch_s": per(t("dynamics.step_batch")),
        "dynamics.jacobians_s": per(t("dynamics.jacobians")),
        "planner.coarse_plans": per(c("planner.coarse_plan")),
        "planner.coarse_plan_ms.p50": ms("planner.coarse_plan", 50.0),
        "planner.coarse_plan_ms.p95": ms("planner.coarse_plan", 95.0),
        "planner.coarse_cold_ms": percentile(cold_ms, 50.0) if cold_ms else 0.0,
        "planner.fine_plans": per(c("planner.fine_plan")),
        "planner.fine_plan_ms.p50": ms("planner.fine_plan", 50.0),
        "planner.fine_plan_ms.p95": ms("planner.fine_plan", 95.0),
        "infomap.update_fine_calls": per(c("infomap.update_fine")),
        "infomap.update_fine_s": per(t("infomap.update_fine")),
        "infomap.register_detection_calls": per(c("infomap.register_detection")),
        "infomap.register_detection_s": per(t("infomap.register_detection")),
        "infomap.project_to_fine_s": per(t("infomap.project_to_fine")),
        "infomap.check_invariants_s": per(t("infomap.check_invariants")),
        "world.images": per(images),
        "world.classify_view_s": per(t("world.classify_view")),
        "world.detection_ratio": ratio(detections, images),
        "bench.trial_overhead_s": per(t("bench.run_trial")),
    }
    for layer in LAYERS:
        if layer != "bench":  # bench's only span is run_trial: trial_overhead_s
            metrics[f"{layer}.self_s"] = per(layer_self(layer))
    return metrics
