"""Transcription-based constrained trajectory optimizer.

The decision vector stacks the free states x_1..x_{T-1} and all controls
u_0..u_{T-1}; x_0 is pinned.  A state's first two coordinates are its
position in the planar workspace (``states[:, :2]``).  The cost is their
coverage metric (``ergodic.CoverageCost``) plus w·Σ|u_t|², w the scalar
``control_weight``.
Three kinds of constraint remain, each with one mechanism:

* dynamics, as equality constraints handled by an augmented Lagrangian
  (penalty growing tenfold per outer round);
* control boxes, by projection inside the quasi-Newton iteration;
* workspace containment of every free position, by a logarithmic barrier
  whose coefficient is driven from 1 down to 1e-4 across the outer rounds.

A box on the controls bounds each step of a plan, since every returned
plan is re-rolled from its clipped controls; there is no separate limit on
how far a position moves per step.

The inner loop evaluates the merit once per trial point.  ``_merit`` returns
the value of a trial together with a record of what it computed (coverage
cost and its basis tables, defects, barrier margins); the line search
reads only the value, and when it accepts a trial, that trial's record
finishes the gradient and hands its margins to the next step's
fraction-to-boundary rule.  Nothing is evaluated twice at the same point,
except at the start of an outer round, whose new multipliers, penalty and
barrier weight change the merit itself.

Bit-for-bit rule.  A solve spends its time in per-call numpy overhead, not
in arithmetic, so the inner loop is written for few numpy calls, but every
float it produces comes from one fixed ufunc or BLAS call, on fixed
operands, in a fixed order: 1-D dot products call ``ndarray.dot`` (the
BLAS ddot that ``@`` reaches too), norms call ``_norm`` (numpy's own
definition of ``np.linalg.norm`` for a 1-D vector), projections call
``ndarray.clip`` (the ufunc behind ``np.clip``), and ``_merit`` and
``_max_feasible_alpha`` slice ``z`` by its fixed layout instead of going
through ``ErgodicProblem.split``.  Three forms are the reference for what
they compute:

* the coverage sums are per-axis matrix products of the basis tables
  (``ergodic.CoverageCost``);
* the quasi-Newton direction is the compact L-BFGS product of
  ``_CompactLbfgs``: matrix–vector products with the pairs' rows and the
  kept R⁻¹, not the two-loop recursion's sequential dots;
* the dynamics term of the gradient is each model's ``vjp``, written out
  per entry rather than contracted from its ``jacobians``.

A rewrite that changes the bits changes every mission, so it is a
behaviour change, not a speed-up:

* reassociating a sum or a product, the per-axis contraction included
  (going back to one entry per mode and point, or contracting the axes in
  another order);
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
caps.  Everything else is a module constant, the same for every problem:
``_DEFECT_TOL`` 1e-5, ``_PENALTY_INIT`` 10, ``_PENALTY_GROWTH`` 10,
``_BARRIER_INIT`` 1, ``_BARRIER_FINAL`` 1e-4, ``_ARMIJO`` 1e-4,
``_LS_FAIL_LIMIT`` 20 and ``_LBFGS_MEMORY`` 15.

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
bounds, the horizon, ``dt``, the control weight, the tolerance and both
caps.  A field value of a type the key builder does not know raises
``TypeError`` rather than risk a false hit.  A hit returns a copy: fresh
states, controls and multipliers, and a new trace list sharing the kept
(immutable) trace rows, so no caller can change what the next hit
returns.  At most ``_COLD_MEMO_SIZE`` (four) solves are kept, the oldest
evicted first; threads share them under one lock.  Warm solves are never
kept: before a mission's first detection they repeat across seeds too, so
keeping them would turn whole missions into lookups, and a long mission
would pin thousands of trajectories.
"""

import dataclasses
import math
import struct
import threading
from collections import deque
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

_INTERIOR_MARGIN = 1e-3  # fraction of each axis length used to nudge guesses inside
_GUESS_WIGGLE = 1e-3     # alternating offset of the cold guess's positions, per axis
_DEFECT_TOL = 1e-5       # largest raw dynamics defect of a converged solve
_PENALTY_INIT = 10.0     # augmented-Lagrangian penalty of the first round
_PENALTY_GROWTH = 10.0   # penalty factor when a round leaves the defect high
_BARRIER_INIT = 1.0      # barrier weight of a cold solve's first round
_BARRIER_FINAL = 1e-4    # barrier weight floor, and a warm solve's weight
_ARMIJO = 1e-4           # sufficient-decrease constant of the line search
_LS_FAIL_LIMIT = 20      # consecutive line-search failures that abort a solve
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
    inner_cap: int
    outer_rounds: int

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

    # decision-vector layout -------------------------------------------------

    @property
    def n_state_vars(self):
        return (self.horizon - 1) * self.model.state_dim

    def split(self, z):
        n, m, T = self.model.state_dim, self.model.control_dim, self.horizon
        if z.shape != (self.n_state_vars + T * m,):
            raise ValueError("decision vector dimension mismatch")
        xs = z[: self.n_state_vars].reshape(T - 1, n)
        us = z[self.n_state_vars:].reshape(T, m)
        return xs, us

    def join(self, states_tail, controls):
        return np.concatenate([np.asarray(states_tail, dtype=float).ravel(),
                               np.asarray(controls, dtype=float).ravel()])

    def decision_bounds(self):
        """Per-entry bounds of the decision vector: the control boxes on the
        controls, -inf/+inf on the states.  Clipping to them projects onto
        the feasible control set."""
        free = np.full(self.n_state_vars, np.inf)
        lower = np.concatenate([-free, np.tile(self.bounds.lower, self.horizon)])
        upper = np.concatenate([free, np.tile(self.bounds.upper, self.horizon)])
        return lower, upper


@dataclass
class SolveDiagnostics:
    iterations: int = 0
    outer_rounds: int = 0
    converged: bool = False
    defect_inf: float = float("inf")
    optimality_norm: float = float("inf")
    line_search_failures: int = 0
    initial_cost: float = float("nan")
    merit_rounds: list = field(default_factory=list)  # (start, end) per outer round
    multipliers: Optional[np.ndarray] = None  # final defect multipliers
    # one (iteration, merit J, coverage cost E, defect_inf, projected-gradient
    # norm) row per inner step
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


def _defects(problem, states, controls):
    pred = problem.model.step_batch(states[:-1], controls[:-1], problem.dt)
    return states[1:] - pred


def _costs(problem, states, controls):
    """The ``CoverageCost`` of a state sequence and the control cost w·Σ|u|².

    ``solve`` calls it for the objective of its initial guess and for the
    cost breakdown of the trajectory it returns; the merit (``_merit``)
    builds the same two terms inline for every trial point.
    """
    cost = CoverageCost(problem.basis, states[:, :2], problem.target_coefficients)
    return cost, float(np.sum(controls * (controls * problem.control_weight)))


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


def _wavelength_scales(problem):
    """Per-coordinate state scales: positions by the shortest basis
    wavelength L_i / (pi m_i), any other coordinate (e.g. heading) by one.

    Defects are measured against these so the penalty curvature is uniform
    in the preconditioned frame, and the preconditioner scales states by
    them.  Computed once per solve.
    """
    sig = np.ones(problem.model.state_dim)
    sig[:2] = problem.workspace.lengths / (
        np.pi * np.asarray(problem.basis.modes_per_axis, dtype=float))
    return sig


def _merit(problem, z, lam, rho, mu, scale, sig):
    """Augmented-Lagrangian + barrier merit; +inf outside the barrier domain.

    The smooth objective part is multiplied by ``scale`` (see
    ``_objective_scale``); multipliers act on defects divided by the state
    scales ``sig`` (see ``_wavelength_scales``).
    Returns (value, aux, point) with aux = (unscaled E, raw defect_inf) and
    ``point`` the ``_MeritPoint`` that finishes the gradient at ``z`` on
    demand; outside the domain (inf, (nan, nan), None).

    Single-evaluation contract: this is the only place the merit is
    evaluated, once per trial point.  The line search needs the value of
    every trial but the gradient only of the one it accepts, so the
    gradient is not formed here.
    """
    model, ws = problem.model, problem.workspace
    k = problem.n_state_vars
    states = np.concatenate([problem.initial_state[None, :],
                             z[:k].reshape(problem.horizon - 1, model.state_dim)])
    us = z[k:].reshape(problem.horizon, model.control_dim)
    pts = states[:, :2]

    rel = pts[1:] - ws.lows
    m_hi = ws.lengths - rel
    if min(rel.min(), m_hi.min()) <= 0.0:
        return np.inf, (np.nan, np.nan), None

    kappa = mu / (rel.size + m_hi.size)

    cost = CoverageCost(problem.basis, pts, problem.target_coefficients, check=False)
    Ru = us * problem.control_weight
    ctrl = float((us * Ru).sum())

    d_raw = _defects(problem, states, us)
    d = d_raw / sig
    al = float((lam * d).sum() + 0.5 * rho * (d * d).sum())
    bar = -kappa * float(np.log(rel).sum() + np.log(m_hi).sum())
    J = scale * (cost.cost + ctrl) + al + bar
    aux = (cost.cost, float(np.abs(d_raw).max()))
    point = _MeritPoint(problem, lam, rho, scale, sig, kappa, states, us,
                        cost, Ru, d, rel, m_hi)
    return J, aux, point


@dataclass(eq=False, slots=True)
class _MeritPoint:
    """What one ``_merit`` evaluation computed at a strictly interior point.

    It finishes the merit gradient at that point (``gradient``) from the
    coverage cost, defects and barrier margins the evaluation already
    built, and it carries the barrier margins the fraction-to-boundary rule
    (``_max_feasible_alpha``) needs for a step from that point.  Records live only as long as the solve that made
    them.

    Fields: the merit's parameters (``lam`` to ``sig`` as passed to
    ``_merit``, ``kappa`` the barrier weight per margin); the point's
    ``states`` and controls ``us``; the ``CoverageCost`` of its positions,
    ``Ru`` = w us and the scaled defects ``d``; and the barrier margins
    ``m_lo`` and ``m_hi``, the distances of every free position to the low
    and high workspace faces.
    """

    problem: ErgodicProblem
    lam: np.ndarray
    rho: float
    scale: float
    sig: np.ndarray
    kappa: float
    states: np.ndarray
    us: np.ndarray
    cost: CoverageCost
    Ru: np.ndarray
    d: np.ndarray
    m_lo: np.ndarray
    m_hi: np.ndarray

    def gradient(self):
        """Merit gradient with respect to the decision vector."""
        problem, model = self.problem, self.problem.model
        kappa, states, us = self.kappa, self.states, self.us
        g_pts = self.cost.gradient(self.scale)
        g_pts[1:] += kappa * (1.0 / self.m_hi - 1.0 / self.m_lo)

        g_states = np.zeros(states.shape)
        g_states[:, :2] = g_pts
        g_us = self.scale * 2.0 * self.Ru
        r = (self.lam + self.rho * self.d) / self.sig
        g_states[1:] += r
        r_x, r_u = model.vjp(states[:-1], us[:-1], problem.dt, r)
        g_states[:-1] -= r_x
        g_us[:-1] -= r_u
        return problem.join(g_states[1:], g_us)


def _max_feasible_alpha(problem, point, step_z):
    """Largest step multiple keeping every workspace margin positive
    (fraction-to-boundary rule) for a step ``step_z`` from the point whose
    merit evaluation is ``point``; its finite merit means it is strictly
    interior.  The margins are the ones the merit already computed."""
    dxs = step_z[: problem.n_state_vars].reshape(problem.horizon - 1, -1)
    dpts = dxs[:, :2]
    with np.errstate(divide="ignore"):
        # distance to the face each coordinate moves toward, over its speed
        gap = np.where(dpts < 0.0, point.m_lo, point.m_hi)
        alpha = (gap / np.abs(dpts)).min(initial=np.inf, where=dpts != 0.0)
    return float(alpha) if math.isfinite(alpha) else 1.0


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
    (a straight line); first-order models start from zero controls.  The
    guess states carry a millimeter-scale alternating lateral offset:
    a perfectly straight line on a symmetric target is a saddle point of
    the metric, and the descent method needs the symmetry broken.
    """
    u0 = np.zeros(problem.model.control_dim)
    if problem.model.state_dim > 2:
        u0[0] = 0.5 * problem.bounds.upper[0]
    controls = np.tile(u0, (problem.horizon, 1))
    states = rollout(problem.model, problem.initial_state, controls, problem.dt)
    wiggle = _GUESS_WIGGLE * np.where(np.arange(problem.horizon) % 2 == 0, 1.0, -1.0)
    states[1:, :2] += wiggle[1:, None]
    return states, controls


def _preconditioner(problem, state_sig):
    """Per-component variable scales for the quasi-Newton inner loop.

    States are scaled by ``state_sig`` (see ``_wavelength_scales``),
    controls by their half-range, which brings the merit's curvature into
    comparable units across blocks.
    """
    u_sig = 0.5 * (problem.bounds.upper - problem.bounds.lower)
    return np.concatenate([
        np.tile(state_sig, problem.horizon - 1),
        np.tile(u_sig, problem.horizon),
    ])


def _nudge_interior(problem, states):
    """Clamp free-state positions strictly inside the workspace."""
    ws = problem.workspace
    margin = _INTERIOR_MARGIN * ws.lengths
    out = np.array(states)
    out[1:, :2] = np.clip(out[1:, :2], ws.lows + margin, ws.highs - margin)
    return out


def _reroll(problem, controls, diag):
    """Clip ``controls`` to their boxes and roll them out from the initial
    state, so dynamics hold exactly.  Positions the rollout carries outside
    the workspace are clamped back, which marks the solve unconverged;
    ``diag.defect_inf`` records the defect left."""
    controls = problem.bounds.clip(controls)
    states = rollout(problem.model, problem.initial_state, controls, problem.dt)
    if not np.all(problem.workspace.contains(states[:, :2])):
        states[:, :2] = problem.workspace.clamp(states[:, :2])
        diag.converged = False
    diag.defect_inf = float(np.abs(_defects(problem, states, controls)).max())
    return states, controls


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
    """A trajectory no caller shares with ``traj``: copied arrays and new
    lists; the trace rows and round pairs are tuples of floats, so they
    are shared."""
    d = traj.diagnostics
    diag = dataclasses.replace(d, merit_rounds=list(d.merit_rounds),
                               multipliers=d.multipliers.copy(), trace=list(d.trace))
    return dataclasses.replace(traj, states=traj.states.copy(),
                               controls=traj.controls.copy(), diagnostics=diag)


def solve(problem, warm_start=None):
    """Minimize the coverage objective subject to dynamics and bounds.

    Returns a feasible trajectory: the final controls are clipped to their
    boxes and re-rolled through the dynamics, so defects vanish to machine
    precision, and the barrier keeps every free state inside the workspace.
    If optimization fails to beat the initial guess the guess itself is
    returned flagged ``converged=False``.
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
        guess_controls = problem.bounds.clip(warm_start.controls)
        guess_states = rollout(problem.model, problem.initial_state,
                               guess_controls, problem.dt)
    else:
        guess_states, guess_controls = default_initial_guess(problem)

    guess_states = _nudge_interior(problem, guess_states)
    lower, upper = problem.decision_bounds()
    z = np.clip(problem.join(guess_states[1:], guess_controls), lower, upper)
    cost, ctrl = _costs(problem, guess_states, guess_controls)
    init_objective = cost.cost + ctrl

    # a warm start is already interior and near-optimal: rerunning the full
    # barrier continuation would drag it away before polishing it back, and
    # its shifted multipliers spare most of the defect rounds
    lam = np.zeros((problem.horizon - 1, problem.model.state_dim))
    mu = _BARRIER_INIT
    if warm_start is not None:
        mu = _BARRIER_FINAL
        carried = warm_start.diagnostics and warm_start.diagnostics.multipliers
        if carried is not None and np.shape(carried) == lam.shape:
            lam = np.array(carried)
    rho = _PENALTY_INIT
    scale = _objective_scale(problem)
    sig = _wavelength_scales(problem)
    precond = _preconditioner(problem, sig)
    lbfgs = _CompactLbfgs(z.size, _LBFGS_MEMORY)

    diag = SolveDiagnostics(initial_cost=init_objective)
    aborted = False

    fails = 0  # consecutive line-search failures, across rounds
    prev_defect = np.inf
    for _ in range(problem.outer_rounds):
        diag.outer_rounds += 1
        f, aux, point = _merit(problem, z, lam, rho, mu, scale, sig)
        if not np.isfinite(f):
            raise RuntimeError("initial iterate infeasible for the barrier")
        g = point.gradient()
        round_start = f
        # while the barrier is still strong there is no point polishing
        inner_tol = max(problem.optimality_tol, 1e-2 * mu)
        lbfgs.clear()
        it = 0
        round_fails = 0
        pg_norm = np.inf
        window = deque(maxlen=15)
        while it < problem.inner_cap:
            # projected gradient in the preconditioned frame
            g_w = precond * g
            pg_norm = _norm((z - (z - precond * g_w).clip(lower, upper)) / precond)
            diag.trace.append((diag.iterations + it, f, aux[0], aux[1], pg_norm))
            if pg_norm <= inner_tol:
                break
            window.append(f)
            if len(window) == window.maxlen and window[0] - f <= 1e-9 * (1.0 + abs(f)):
                break  # this round has flattened out; let the multipliers move
            direction = -lbfgs.apply(g_w)
            if direction.dot(g_w) >= 0.0:
                direction = -g_w
                lbfgs.clear()
            step_z = precond * direction
            alpha = min(1.0, 0.95 * _max_feasible_alpha(problem, point, step_z))
            accepted = None
            for _ in range(30):
                z_new = (z + alpha * step_z).clip(lower, upper)
                step = z_new - z
                if not step.any():
                    break
                f_new, aux_new, trial = _merit(problem, z_new, lam, rho, mu, scale, sig)
                if f_new <= f + _ARMIJO * min(0.0, float(g.dot(step))):
                    accepted = trial
                    break
                alpha *= 0.5
            it += 1
            if accepted is None:
                fails += 1
                round_fails += 1
                diag.line_search_failures += 1
                lbfgs.clear()
                if fails >= _LS_FAIL_LIMIT:
                    aborted = True
                    break
                if round_fails >= 3:
                    break  # stuck at this round's numerical floor
                continue
            round_fails = 0
            fails = 0
            g_new = accepted.gradient()
            s_w = step / precond
            y_w = precond * (g_new - g)
            sy = float(s_w.dot(y_w))
            if sy > 1e-8 * (_norm(s_w) * _norm(y_w)):
                lbfgs.append(s_w, y_w, sy)
            z, f, g, aux, point = z_new, f_new, g_new, aux_new, accepted
        diag.iterations += it
        diag.merit_rounds.append((round_start, f))
        diag.optimality_norm = pg_norm
        # the merit evaluation of z already holds its defects
        defect_inf = aux[1]
        diag.defect_inf = defect_inf
        if aborted:
            break
        if (defect_inf <= 0.1 * _DEFECT_TOL
                and pg_norm <= problem.optimality_tol
                and mu <= _BARRIER_FINAL):
            break
        lam = lam + rho * point.d
        if defect_inf > 0.25 * prev_defect:
            rho = min(rho * _PENALTY_GROWTH, 1e8)
        prev_defect = defect_inf
        mu = max(0.1 * mu, _BARRIER_FINAL)

    diag.converged = (not aborted
                      and diag.defect_inf <= _DEFECT_TOL
                      and diag.optimality_norm <= problem.optimality_tol)
    diag.multipliers = np.array(lam)

    # Re-roll the clipped controls so dynamics hold exactly on return; fall
    # back to the initial guess if that does not beat it.
    _, us = problem.split(z)
    final_states, final_controls = _reroll(problem, us, diag)
    cost, ctrl = _costs(problem, final_states, final_controls)
    if cost.cost + ctrl > init_objective + 1e-12:
        final_states, final_controls = _reroll(problem, guess_controls, diag)
        diag.converged = False
        cost, ctrl = _costs(problem, final_states, final_controls)
    return Trajectory(states=final_states, controls=final_controls,
                      ergodic_cost=cost.cost, control_cost=ctrl, diagnostics=diag)


def shift_warm_start(prev):
    """Receding-horizon reuse: drop step 0, duplicate the final pair.

    The result keeps the horizon length and is meant as a warm start for
    the next replan, not as an executable plan (its tail transition is not
    dynamically consistent).  Defect multipliers, when present, are shifted
    along so the next solve starts with useful dual information.
    """
    if prev.horizon < 2:
        raise ValueError("need a horizon of at least 2 to shift")
    states = np.vstack([prev.states[1:], prev.states[-1:]])
    controls = np.vstack([prev.controls[1:], prev.controls[-1:]])
    diag = None
    if prev.diagnostics is not None and prev.diagnostics.multipliers is not None:
        lam = prev.diagnostics.multipliers
        diag = SolveDiagnostics(multipliers=np.vstack([lam[1:], lam[-1:]]))
    return Trajectory(states=states, controls=controls, diagnostics=diag)
