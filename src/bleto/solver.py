"""Single-shooting trajectory optimizer.

The decision variables are the controls u_0..u_{T-1} alone; the states
x_0..x_{T-1} are their rollout from the pinned x_0 (``dynamics.rollout``),
so the dynamics hold by construction.  A state's first two coordinates
are its position in the planar workspace (``states[:, :2]``).  The cost is
their coverage metric (``ergodic.CoverageCost``) plus w·Σ|u_t|², w the
scalar ``control_weight``.  Two kinds of constraint remain, each with one
mechanism:

* control boxes, by projection inside the quasi-Newton iteration;
* workspace containment of the rolled-out positions, by an exterior
  quadratic penalty ``_WALL_WEIGHT``·Σ((p − clamp(p))/L)², zero inside the
  workspace.  The coverage cost is read at the raw positions: each cosine
  mode is even about each face, so the cost stays smooth across it.

A box on the controls bounds each step of a plan, since every returned
plan is the rollout of its clipped controls; there is no separate limit on
how far a position moves per step.

Each point is evaluated once (``_Objective``, which takes what a solve
holds fixed once): a rollout, the coverage cost and the penalty.  The
line search reads only the value; an accepted trial's record finishes the
gradient in one adjoint pass (``control_gradient``), on the cos h, sin h
and dt·v of the rollout.  The guess and the returned plan are evaluated
points too, with their own states and costs wherever the positions lie
inside the workspace.  The quasi-Newton direction is zeroed on controls
held at a bound that the gradient pushes against, and each line search
starts from the step that moves no control by more than its box width.

Bit-for-bit rule.  A solve spends its time in per-call numpy overhead, not
in arithmetic, so the inner loop is written for few numpy calls, but every
float it produces comes from one fixed ufunc or BLAS call, on fixed
operands, in a fixed order: 1-D dot products call ``ndarray.dot`` (the
BLAS ddot that ``@`` reaches too), norms call ``_norm`` (numpy's own
definition of ``np.linalg.norm`` for a 1-D vector) and projections call
``ndarray.clip`` (the ufunc behind ``np.clip``).  Three forms are the
reference for what they compute:

* the coverage sums are per-axis matrix products of the basis tables
  (``ergodic.CoverageCost``);
* the quasi-Newton direction is the compact L-BFGS product of
  ``_CompactLbfgs``: matrix–vector products with the pairs' rows and the
  kept R⁻¹, not the two-loop recursion's sequential dots;
* the states are each model's closed-form ``rollout`` and the gradient
  each model's ``control_gradient``, running sums (``cumsum``) rather than
  a loop over time.

A rewrite that changes the bits changes every mission, so it is a
behaviour change, not a speed-up:

* reassociating a sum or a product, the per-axis contraction and the
  running sums included (going back to one entry per mode and point,
  contracting the axes in another order, or summing a costate by a loop);
* folding a divisor such as ``1/h_k`` into other factors, or multiplying
  by a reciprocal where the code divides;
* merging separate ``.sum()`` calls;
* replacing an ``einsum`` or a matrix product with another contraction,
  such as the compact L-BFGS product with the two-loop recursion, or
  updating R⁻¹ in another way.

Such a change re-records the pins and shows the paired-seed scorecard
(``bench.scorecard``) before and after it.
``tests/test_solver.py::TestByteIdentity`` pins the outputs of three
solves, and the golden mission digests pin whole missions.

An ``ErgodicProblem`` sets only the optimality tolerance and the iteration
cap.  Everything else is a module constant, the same for every problem:
``_WALL_WEIGHT`` 1e4, ``_ARMIJO`` 1e-4, ``_LS_FAIL_LIMIT`` 3 and
``_LBFGS_MEMORY`` 15.

A solve owns its problem data exclusively and uses no randomness, so
identical inputs produce bit-identical outputs; independent solves can run
in parallel.

Cold-solve memo.  That contract is what lets ``solve`` keep the results of
cold solves (``warm_start is None``) and return a kept one when the same
problem comes again: a mission's opening body plan depends only on the
prior map, the start pose and the planner's constants, so it is the same
solve for every seed and every method of a process.  The key holds the
exact bytes of every ``ErgodicProblem`` field, built by walking
``dataclasses.fields``: the basis's workspace lengths, lows and modes, the
target coefficients, the model's type, the initial state, the control
bounds, the horizon, ``dt``, the control weight, the tolerance and the
cap.  A field value of a type the key builder does not know raises
``TypeError`` rather than risk a false hit.  A hit returns a copy: fresh
states and controls, and a new trace list sharing the kept (immutable)
trace rows, so no caller can change what the next hit returns.  At most
``_COLD_MEMO_SIZE`` (four) solves are kept, the oldest evicted first;
threads share them under one lock.  Warm solves are never kept: before a
mission's first detection they repeat across seeds too, so keeping them
would turn whole missions into lookups, and a long mission would pin
thousands of trajectories.
"""

import dataclasses
import math
import struct
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import ControlBounds, SingleIntegratorModel, UnicycleModel, rollout
from .ergodic import CoverageCost, FourierBasis

__all__ = [
    "ErgodicProblem",
    "SolveDiagnostics",
    "Trajectory",
    "default_initial_guess",
    "solve",
    "shift_warm_start",
]

_GUESS_WIGGLE = 1e-3     # alternating offset of the cold guess's controls, per half-range
_WALL_WEIGHT = 1e4       # exterior workspace penalty per squared axis length
_ARMIJO = 1e-4           # sufficient-decrease constant of the line search
_LS_FAIL_LIMIT = 3       # consecutive line-search failures that end a solve
_LBFGS_MEMORY = 15       # curvature pairs kept by the quasi-Newton update
_COLD_MEMO_SIZE = 4      # cold solves kept by ``solve``, oldest evicted first


@dataclass
class ErgodicProblem:
    """One coverage trajectory optimization instance.

    ``target_coefficients`` are the basis coefficients the trajectory's
    time-averaged statistics should match; the workspace is the basis's.
    """

    basis: object
    target_coefficients: np.ndarray
    model: object
    initial_state: np.ndarray
    horizon: int
    dt: float
    control_weight: float
    bounds: ControlBounds
    optimality_tol: float
    iteration_cap: int

    def __post_init__(self):
        self.target_coefficients = np.asarray(self.target_coefficients, dtype=float)
        self.initial_state = np.asarray(self.initial_state, dtype=float)
        self.control_weight = float(self.control_weight)
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 steps")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.target_coefficients.shape != (len(self.basis),):
            raise ValueError("target coefficient length must match the basis")
        if not (math.isfinite(self.control_weight) and self.control_weight >= 0):
            raise ValueError("control weight must be finite and nonnegative")
        if self.initial_state.shape != (self.model.state_dim,):
            raise ValueError("initial state does not match the model")
        if not self.workspace.contains(self.initial_state[:2], slack=1e-9):
            raise ValueError("initial state lies outside the workspace")

    @property
    def workspace(self):
        return self.basis.workspace


@dataclass
class SolveDiagnostics:
    iterations: int = 0
    # one optimization pass per solve; the benchmark reads this field
    outer_rounds: int = 1
    converged: bool = False
    optimality_norm: float = float("inf")
    line_search_failures: int = 0
    initial_cost: float = float("nan")
    # one (iteration, objective J, coverage cost E, projected-gradient norm)
    # row per step
    trace: list = field(default_factory=list)


@dataclass
class Trajectory:
    """Planned states/controls plus the cost breakdown and solver report."""

    states: np.ndarray
    controls: np.ndarray
    ergodic_cost: float = float("nan")
    control_cost: float = float("nan")
    diagnostics: Optional[SolveDiagnostics] = None

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=float))
        if self.states.shape[0] != self.controls.shape[0]:
            raise ValueError("states and controls must have equal length")

    @property
    def horizon(self):
        return self.states.shape[0]


def _objective_scale(problem):
    """Intrinsic objective normalization.

    The metric's natural magnitude is the weighted power of the target
    coefficients themselves (that is what the cost of a badly mismatched
    trajectory looks like), so dividing by it makes the scaled initial cost
    O(1) for any workspace size and keeps the fixed projected-gradient
    tolerance meaningful across problems.
    """
    phi = problem.target_coefficients
    power = float(np.sum(problem.basis.weights * phi * phi))
    return 1.0 / max(power, 1e-12)


@dataclass(eq=False, slots=True)
class _Point:
    """What one ``_Objective.evaluate`` computed at the controls ``us``:
    their rollout ``states`` and the model's ``terms`` of it, the
    ``CoverageCost`` of its positions, ``outside``, each position's
    distance past the workspace faces over the axis lengths (zero inside),
    and the control cost ``ctrl`` = w·Σ|u|²."""

    us: np.ndarray
    states: np.ndarray
    terms: tuple
    cost: CoverageCost
    outside: np.ndarray
    ctrl: float


class _Objective:
    """The objective of one solve at the controls ``us``, (T, m): ``scale``
    times the coverage and control costs plus the workspace penalty, and
    its gradient.  What stays fixed during the solve is taken once: the
    model's ``rollout`` starts from the initial state that ``problem``
    checked, and the coefficient divisors h_k·T and the gradient's scalar
    factors are computed here."""

    def __init__(self, problem):
        self.problem, self._workspace = problem, problem.workspace
        self.scale = _objective_scale(problem)
        self._divisors = problem.basis.normalizers * problem.horizon
        self._wall_gain = 2.0 * _WALL_WEIGHT
        self._control_gain = self.scale * 2.0 * problem.control_weight

    def evaluate(self, us):
        """The value at ``us`` and the ``_Point`` that finishes its
        gradient on demand."""
        p = self.problem
        states, terms = p.model.rollout(p.initial_state, us[:-1], p.dt)
        pts = states[:, :2]
        cost = CoverageCost(p.basis, pts, p.target_coefficients, check=False,
                            divisors=self._divisors)
        ws = self._workspace
        outside = (pts - pts.clip(ws.lows, ws.highs)) / ws.lengths
        ctrl = float((us * (us * p.control_weight)).sum())
        value = (self.scale * (cost.cost + ctrl)
                 + _WALL_WEIGHT * float((outside * outside).sum()))
        return value, _Point(us, states, terms, cost, outside, ctrl)

    def gradient(self, point):
        """The gradient at ``point``, flat over the controls: the state
        gradient pulled back through the rollout by one adjoint pass
        (``control_gradient``), plus the control cost's."""
        p = self.problem
        g_states = np.zeros(point.states.shape)
        g_pts = point.cost.gradient(self.scale)
        g_pts += self._wall_gain * point.outside / self._workspace.lengths
        g_states[:, :2] = g_pts
        g = p.model.control_gradient(point.terms, point.us, p.dt, g_states)
        g += self._control_gain * point.us
        return g.ravel()


def _norm(x):
    """Euclidean norm of a 1-D float vector: numpy's own definition of
    ``np.linalg.norm`` for one, without that function's dispatch."""
    return math.sqrt(x.dot(x))


class _CompactLbfgs:
    """The limited-memory BFGS inverse Hessian H of the newest ``memory``
    curvature pairs (s, y), in the compact form of Byrd, Nocedal & Schnabel
    ("Representations of quasi-Newton matrices and their use in limited
    memory methods", 1994).

    With S and Y the pairs as rows, R the upper triangle of SYᵀ, D its
    diagonal (the sᵀy) and γ = sᵀy/yᵀy of the newest pair,

        H g = γ q + Sᵀ R⁻ᵀ (D u − γ Y q),   u = R⁻¹ S g,  q = g − Yᵀ u.

    u and q are the two-loop recursion's first-loop multipliers and vector,
    here from matrix–vector products; Y q is taken from q itself rather
    than as γYYᵀu − γYg, whose terms cancel as q shrinks.  The rows live in
    a 2·``memory``-row window, so the kept pairs are always one contiguous
    slice and dropping the oldest moves nothing.  R⁻¹ is kept beside them:
    the inverse of R's trailing block is the trailing block of R⁻¹, and a
    new pair adds the column −R⁻¹(S y)/sᵀy and the diagonal 1/sᵀy.  Entries
    below the diagonal are never written, so they stay zero.
    """

    def __init__(self, n, memory):
        self._memory = memory
        self._s = np.zeros((2 * memory, n))
        self._y = np.zeros((2 * memory, n))
        self._sy = np.zeros(2 * memory)
        self._r_inv = np.zeros((2 * memory, 2 * memory))
        self._lo = self._hi = 0  # the kept pairs are rows lo..hi-1
        self._gamma = 1.0

    def clear(self):
        self._lo = self._hi = 0

    def append(self, s, y, sy):
        """Keep the pair (s, y) with sᵀy = ``sy`` > 0, dropping the oldest
        pair when ``memory`` are kept."""
        lo, hi, m = self._lo, self._hi, self._memory
        if hi - lo == m:
            lo += 1
        if hi == 2 * m:  # the window is at the end of its rows: move it to the start
            k = hi - lo
            for buf in (self._s, self._y, self._sy):
                buf[:k] = buf[lo:hi]
            self._r_inv[:k, :k] = self._r_inv[lo:hi, lo:hi]
            lo, hi = 0, k
        self._s[hi] = s
        self._y[hi] = y
        self._sy[hi] = sy
        r_inv = self._r_inv
        r_inv[lo:hi, hi] = r_inv[lo:hi, lo:hi].dot(self._s[lo:hi].dot(y)) * (-1.0 / sy)
        r_inv[hi, hi] = 1.0 / sy
        self._lo, self._hi = lo, hi + 1
        self._gamma = sy / y.dot(y)

    def apply(self, g):
        """H g; g itself while no pair is kept."""
        lo, hi = self._lo, self._hi
        if lo == hi:
            return g.copy()
        S, Y, r_inv = self._s[lo:hi], self._y[lo:hi], self._r_inv[lo:hi, lo:hi]
        u = r_inv.dot(S.dot(g))
        q = g - u.dot(Y)
        w = self._sy[lo:hi] * u
        w -= self._gamma * Y.dot(q)
        q *= self._gamma
        q += w.dot(r_inv).dot(S)
        return q


def default_initial_guess(problem):
    """Constant-control rollout used when no warm start is available.

    Unicycle-style models get half forward speed and zero turn rate
    (a straight line); first-order models start from zero controls.  Each
    control channel carries an alternating offset of ``_GUESS_WIGGLE``
    times its half-range: a perfectly straight line on a symmetric target
    is a saddle point of the metric, and the descent method needs the
    symmetry broken.  Returns the guess's rollout and its controls.
    """
    controls = _guess_controls(problem)
    return rollout(problem.model, problem.initial_state, controls, problem.dt), controls


def _guess_controls(problem):
    """The controls of ``default_initial_guess``, without their rollout."""
    u0 = np.zeros(problem.model.control_dim)
    if problem.model.state_dim > 2:
        u0[0] = 0.5 * problem.bounds.upper[0]
    half_range = 0.5 * (problem.bounds.upper - problem.bounds.lower)
    wiggle = _GUESS_WIGGLE * np.where(np.arange(problem.horizon) % 2 == 0, 1.0, -1.0)
    return u0 + wiggle[:, None] * half_range


def _plan(problem, point):
    """The states and ``CoverageCost`` that ``solve`` returns for the
    evaluated ``point``, and whether its positions lie inside the
    workspace: ``point``'s own if they do, else a copy of its rollout with
    the positions clamped back, and the cost of those."""
    ws = problem.workspace
    if np.all(ws.contains(point.states[:, :2])):
        return point.states, point.cost, True
    states = point.states.copy()
    states[:, :2] = ws.clamp(states[:, :2])
    return states, CoverageCost(problem.basis, states[:, :2], problem.target_coefficients), False


_cold_memo = {}  # cold-problem key -> the Trajectory its solve returned
_cold_memo_lock = threading.Lock()


def _key_part(value):
    """The exact, hashable form of one problem input: its type and its
    bytes.  ``TypeError`` for a type this does not know, never a guess."""
    if type(value) is np.ndarray and not value.dtype.hasobject:
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.generic) and not value.dtype.hasobject:
        return ("scalar", value.dtype.str, value.tobytes())
    if type(value) in (bool, int):
        return (type(value), value)
    if type(value) is float:
        return (float, struct.pack("<d", value))
    if type(value) is FourierBasis:
        return ("basis", _key_part(value.workspace.lengths), _key_part(value.workspace.lows),
                value.modes_per_axis)
    if type(value) is ControlBounds:
        return ("bounds", _key_part(value.lower), _key_part(value.upper))
    if type(value) in (UnicycleModel, SingleIntegratorModel):
        return ("model", type(value))
    raise TypeError(f"cold-solve memo: no exact key for a {type(value).__name__}")


def _cold_key(problem):
    """The memo key of a cold solve of ``problem``: every field, exactly."""
    return tuple((f.name, _key_part(getattr(problem, f.name)))
                 for f in dataclasses.fields(problem))


def _copy_trajectory(traj):
    """A trajectory no caller shares with ``traj``: copied arrays and a new
    trace list; the trace rows are tuples of numbers, so they are shared."""
    diag = dataclasses.replace(traj.diagnostics, trace=list(traj.diagnostics.trace))
    return dataclasses.replace(traj, states=traj.states.copy(),
                               controls=traj.controls.copy(), diagnostics=diag)


def solve(problem, warm_start=None):
    """Minimize the coverage objective subject to dynamics and bounds.

    Returns a feasible trajectory: the final controls lie in their boxes,
    the states are their rollout, and positions the penalty left outside
    the workspace are clamped back, which flags the solve
    ``converged=False``.  If optimization fails to beat the initial guess
    the guess itself is returned, flagged the same way.
    The diagnostics record every inner step in ``trace``.

    A cold solve (no ``warm_start``) of a problem solved before in this
    process returns a copy of the kept result (the module docstring's
    cold-solve memo), bit-identical to a new solve.
    """
    if warm_start is not None:
        return _solve_uncached(problem, warm_start)
    key = _cold_key(problem)
    with _cold_memo_lock:
        kept = _cold_memo.get(key)
    if kept is None:
        kept = _solve_uncached(problem, None)
        with _cold_memo_lock:
            if key not in _cold_memo:  # another thread may have kept it meanwhile
                while len(_cold_memo) >= _COLD_MEMO_SIZE:
                    del _cold_memo[next(iter(_cold_memo))]
                _cold_memo[key] = kept
    return _copy_trajectory(kept)


def _solve_uncached(problem, warm_start):
    """``solve`` without the memo: the optimization itself."""
    if warm_start is not None:
        if warm_start.horizon != problem.horizon:
            raise ValueError("warm start horizon mismatch")
        if warm_start.controls.shape[1] != problem.model.control_dim:
            raise ValueError("warm start control dimension mismatch")
        guess = warm_start.controls
    else:
        guess = _guess_controls(problem)
    objective = _Objective(problem)
    f, point = objective.evaluate(problem.bounds.clip(guess))
    guess_point, guess_plan = point, _plan(problem, point)
    diag = SolveDiagnostics()
    diag.initial_cost = init_objective = guess_plan[1].cost + point.ctrl

    T, m = problem.horizon, problem.model.control_dim
    lower = np.tile(problem.bounds.lower, T)
    upper = np.tile(problem.bounds.upper, T)
    # controls in units of their half-range, which brings the objective's
    # curvature into comparable units across channels
    precond = 0.5 * (upper - lower)
    lbfgs = _CompactLbfgs(T * m, _LBFGS_MEMORY)

    z = point.us.ravel()
    g = objective.gradient(point)
    fails = 0  # consecutive line-search failures
    it = 0
    while True:
        # projected gradient in the preconditioned frame
        g_w = precond * g
        pg_norm = _norm((z - (z - precond * g_w).clip(lower, upper)) / precond)
        diag.trace.append((it, f, point.cost.cost, pg_norm))
        if pg_norm <= problem.optimality_tol or it >= problem.iteration_cap:
            break
        # a control held at a bound that the gradient pushes against stays
        held = ((z <= lower) & (g > 0.0)) | ((z >= upper) & (g < 0.0))
        direction = -lbfgs.apply(g_w)
        direction[held] = 0.0
        if direction.dot(g_w) >= 0.0:
            direction = -g_w
            direction[held] = 0.0
            lbfgs.clear()
        # the first trial moves no control by more than its box width, 2 in
        # the preconditioned frame
        alpha = 2.0 / max(2.0, float(np.abs(direction).max()))
        step_z = precond * direction
        accepted = None
        for _ in range(30):
            z_new = (z + alpha * step_z).clip(lower, upper)
            step = z_new - z
            if not step.any():
                break
            f_new, trial = objective.evaluate(z_new.reshape(T, m))
            if f_new <= f + _ARMIJO * min(0.0, float(g.dot(step))):
                accepted = trial
                break
            alpha *= 0.5
        it += 1
        if accepted is None:
            fails += 1
            diag.line_search_failures += 1
            lbfgs.clear()
            if fails >= _LS_FAIL_LIMIT:
                break
            continue
        fails = 0
        g_new = objective.gradient(accepted)
        s_w = step / precond
        y_w = precond * (g_new - g)
        sy = float(s_w.dot(y_w))
        if sy > 1e-8 * (_norm(s_w) * _norm(y_w)):
            lbfgs.append(s_w, y_w, sy)
        z, f, g, point = z_new, f_new, g_new, accepted
    diag.iterations = it
    diag.optimality_norm = pg_norm
    diag.converged = pg_norm <= problem.optimality_tol

    # The plan is the last point's rollout from its clipped controls, so
    # dynamics hold exactly on return; fall back to the initial guess if
    # that does not beat it.
    states, cost, inside = guess_plan if point is guess_point else _plan(problem, point)
    diag.converged = diag.converged and inside
    if cost.cost + point.ctrl > init_objective + 1e-12:
        point, (states, cost, _) = guess_point, guess_plan
        diag.converged = False
    return Trajectory(states=states, controls=point.us,
                      ergodic_cost=cost.cost, control_cost=point.ctrl, diagnostics=diag)


def shift_warm_start(prev):
    """Receding-horizon reuse: drop step 0, duplicate the final pair.

    The result keeps the horizon length and is meant as a warm start for
    the next replan, not as an executable plan (its tail transition is not
    dynamically consistent).
    """
    if prev.horizon < 2:
        raise ValueError("need a horizon of at least 2 to shift")
    states = np.vstack([prev.states[1:], prev.states[-1:]])
    controls = np.vstack([prev.controls[1:], prev.controls[-1:]])
    return Trajectory(states=states, controls=controls)
