"""Transcription-based constrained trajectory optimizer.

The decision vector stacks the free states x_1..x_{T-1} and all controls
u_0..u_{T-1}; x_0 is pinned.  The cost is the coverage metric of the state
trajectory plus a quadratic control penalty.  Dynamics enter as equality
constraints handled by an augmented Lagrangian (penalty growing tenfold per
outer round), control boxes are enforced by projection inside the
quasi-Newton iteration, and the per-step position cap plus workspace
containment are enforced by a logarithmic barrier whose coefficient is
driven from 1 down to 1e-4 across the outer rounds.

A solve owns its problem data exclusively and uses no randomness, so
identical inputs produce bit-identical outputs; independent solves can run
in parallel.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import ControlBounds, rollout
from .ergodic import ergodic_metric, trajectory_coefficients

__all__ = [
    "ErgodicProblem",
    "SolveDiagnostics",
    "Trajectory",
    "objective_and_gradient",
    "default_initial_guess",
    "solve",
    "shift_warm_start",
]

_INTERIOR_MARGIN = 1e-3  # fraction of each axis length used to nudge guesses inside


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
    control_weight: np.ndarray
    bounds: ControlBounds
    defect_tol: float = 1e-5
    optimality_tol: float = 1e-3
    inner_cap: int = 500
    outer_rounds: int = 8
    penalty_init: float = 10.0
    penalty_growth: float = 10.0
    barrier_init: float = 1.0
    barrier_final: float = 1e-4
    armijo: float = 1e-4
    ls_fail_limit: int = 20
    lbfgs_memory: int = 15

    def __post_init__(self):
        self.target_coefficients = np.asarray(self.target_coefficients, dtype=float)
        self.initial_state = np.asarray(self.initial_state, dtype=float)
        self.control_weight = np.asarray(self.control_weight, dtype=float)
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2 steps")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.target_coefficients.shape != (len(self.basis),):
            raise ValueError("target coefficient length must match the basis")
        R = self.control_weight
        if R.shape != (self.model.control_dim,) * 2 or not np.allclose(R, R.T, atol=1e-12):
            raise ValueError("control weight must be a symmetric matrix")
        if np.min(np.linalg.eigvalsh(R)) < -1e-10:
            raise ValueError("control weight must be positive semidefinite")
        if self.initial_state.shape != (self.model.state_dim,):
            raise ValueError("initial state does not match the model")
        start = self.model.workspace_points(self.initial_state[None, :])[0]
        if not self.workspace.contains(start, slack=1e-9):
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

    def project(self, z):
        out = np.array(z)
        us = out[self.n_state_vars:].reshape(self.horizon, self.model.control_dim)
        np.clip(us, self.bounds.lower, self.bounds.upper, out=us)
        return out


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

    @property
    def total_cost(self):
        return self.ergodic_cost + self.control_cost


def _batched_step(model, states, controls, dt):
    return model.step_batch(np.atleast_2d(states), np.atleast_2d(controls), dt)


def _defects(problem, states, controls):
    pred = _batched_step(problem.model, states[:-1], controls[:-1], problem.dt)
    return states[1:] - pred


def objective_and_gradient(problem, z):
    """Cost and gradient of the unconstrained objective E + sum u'Ru.

    This is the public surface checked against finite differences; the
    solver adds multiplier and barrier terms on top of it internally.
    """
    z = np.asarray(z, dtype=float)
    xs, us = problem.split(z)
    states = np.vstack([problem.initial_state, xs])
    pts = problem.model.workspace_points(states)
    values, gradF = problem.basis.eval_points_with_gradient(pts)
    c = values.mean(axis=1)
    diff = c - problem.target_coefficients
    E = float(np.sum(problem.basis.weights * diff * diff))
    Ru = us @ problem.control_weight
    ctrl = float(np.sum(us * Ru))

    scale = 2.0 * problem.basis.weights * diff / problem.horizon
    g_pts = np.einsum("k,ktv->tv", scale, gradF)
    g_states = np.zeros_like(states)
    g_states[:, : problem.model.workspace_dims] = g_pts
    grad = problem.join(g_states[1:], 2.0 * Ru)
    return E + ctrl, grad


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
    sig[: problem.model.workspace_dims] = problem.workspace.lengths / (
        np.pi * np.asarray(problem.basis.modes_per_axis, dtype=float))
    return sig


def _merit(problem, z, lam, rho, mu, scale, sig, want_grad=True):
    """Augmented-Lagrangian + barrier merit; +inf outside the barrier domain.

    The smooth objective part is multiplied by ``scale`` (see
    ``_objective_scale``); multipliers act on defects divided by the state
    scales ``sig`` (see ``_wavelength_scales``).
    Returns (value, gradient_or_None, aux) with aux = (unscaled E,
    raw defect_inf).
    """
    model, ws = problem.model, problem.workspace
    v = model.workspace_dims
    xs, us = problem.split(z)
    states = np.vstack([problem.initial_state, xs])
    pts = model.workspace_points(states)

    rel = pts[1:] - ws.lows
    m_lo = rel
    m_hi = ws.lengths - rel
    diffs = pts[1:] - pts[:-1]
    slack = problem.bounds.max_step**2 - np.sum(diffs * diffs, axis=1)
    least = min(m_lo.min(), m_hi.min(), slack.min())
    if least <= 0.0:
        return np.inf, None, (np.nan, np.nan)

    n_barrier = m_lo.size + m_hi.size + slack.size
    kappa = mu / n_barrier

    if want_grad:
        values, gradF = problem.basis.eval_points_with_gradient(pts, check=False)
    else:
        values = problem.basis.eval_points(pts, check=False)
    c = values.mean(axis=1)
    cdiff = c - problem.target_coefficients
    E = float(np.sum(problem.basis.weights * cdiff * cdiff))
    Ru = us @ problem.control_weight
    ctrl = float(np.sum(us * Ru))

    d_raw = _defects(problem, states, us)
    d = d_raw / sig
    al = float(np.sum(lam * d) + 0.5 * rho * np.sum(d * d))
    bar = -kappa * float(np.log(m_lo).sum() + np.log(m_hi).sum() + np.log(slack).sum())
    J = scale * (E + ctrl) + al + bar
    aux = (E, float(np.abs(d_raw).max()))
    if not want_grad:
        return J, None, aux

    coeff = scale * 2.0 * problem.basis.weights * cdiff / problem.horizon
    g_pts = np.einsum("k,ktv->tv", coeff, gradF)
    g_pts[1:] += kappa * (1.0 / m_hi - 1.0 / m_lo)
    g_step = kappa * 2.0 * diffs / slack[:, None]
    g_pts[1:] += g_step
    g_pts[:-1] -= g_step

    g_states = np.zeros_like(states)
    g_states[:, :v] = g_pts
    g_us = scale * 2.0 * Ru
    A, B = model.jacobians(states[:-1], us[:-1], problem.dt)
    r = (lam + rho * d) / sig
    g_states[1:] += r
    g_states[:-1] -= np.einsum("tij,ti->tj", A, r)
    g_us[:-1] -= np.einsum("tij,ti->tj", B, r)
    return J, problem.join(g_states[1:], g_us), aux


def _max_feasible_alpha(problem, z, step_z):
    """Largest step multiple keeping every barrier margin positive
    (fraction-to-boundary rule: linear containment margins plus the
    quadratic per-step position-change slack).  ``z`` must be strictly
    interior, as every iterate with a finite merit is."""
    xs, _ = problem.split(z)
    dxs, _ = problem.split(step_z)
    v = problem.model.workspace_dims
    ws = problem.workspace
    pts = xs[:, :v]
    dpts = dxs[:, :v]
    rel = pts - ws.lows
    with np.errstate(divide="ignore", invalid="ignore"):
        # distance to the face each coordinate moves toward, over its speed
        gap = np.where(dpts < 0.0, rel, ws.lengths - rel)
        alpha = np.min(gap / np.abs(dpts), initial=np.inf, where=dpts != 0.0)

        # step-cap slack: |diff + a*ddiff|^2 reaches max_step^2 at the root of
        # |ddiff|^2 a^2 + 2 (diff.ddiff) a + (|diff|^2 - max_step^2) = 0;
        # the first point is pinned, so its step is zero
        diff = np.diff(pts, axis=0, prepend=problem.initial_state[None, :v])
        ddiff = np.diff(dpts, axis=0, prepend=np.zeros((1, v)))
        a = np.sum(ddiff * ddiff, axis=1)
        b = 2.0 * np.sum(diff * ddiff, axis=1)
        c = np.sum(diff * diff, axis=1) - problem.bounds.max_step**2
        disc = np.sqrt(np.maximum(b ** 2 - 4.0 * a * c, 0.0))
        roots = (-b + disc) / (2.0 * a)
        alpha = np.min(roots, initial=alpha, where=(a > 0.0) & (roots > 0.0))
    return float(alpha) if np.isfinite(alpha) else 1.0


def _two_loop(g, pairs):
    q = np.array(g)
    alphas = []
    for s, y, rho_i in reversed(pairs):
        a = rho_i * (s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho_i), a in zip(pairs, reversed(alphas)):
        b = rho_i * (y @ q)
        q += (a - b) * s
    return q


def default_initial_guess(problem):
    """Constant-control rollout used when no warm start is available.

    Unicycle-style models get half forward speed and zero turn rate
    (a straight line); first-order models start from zero controls.  The
    guess states carry a millimeter-scale alternating lateral offset:
    a perfectly straight line on a symmetric target is a saddle point of
    the metric, and the descent method needs the symmetry broken.
    """
    m = problem.model.control_dim
    u0 = np.zeros(m)
    if problem.model.state_dim > problem.model.workspace_dims:
        u0[0] = 0.5 * problem.bounds.upper[0]
    controls = np.tile(u0, (problem.horizon, 1))
    states = rollout(problem.model, problem.initial_state, controls, problem.dt)
    wiggle = 1e-3 * np.where(np.arange(problem.horizon) % 2 == 0, 1.0, -1.0)
    states = np.array(states)
    states[1:, : problem.model.workspace_dims] += wiggle[1:, None]
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
    v = problem.model.workspace_dims
    margin = _INTERIOR_MARGIN * ws.lengths
    out = np.array(states)
    out[1:, :v] = np.clip(out[1:, :v], ws.lows + margin, ws.highs - margin)
    return out


def solve(problem, warm_start=None, trace_path=None):
    """Minimize the coverage objective subject to dynamics and bounds.

    Returns a feasible trajectory: the final controls are clipped to their
    boxes and re-rolled through the dynamics, so defects vanish to machine
    precision; the barrier keeps every free state inside the workspace and
    every position step below the cap.  If optimization fails to beat the
    initial guess the guess itself is returned flagged ``converged=False``.
    """
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
    z = problem.project(problem.join(guess_states[1:], guess_controls))
    z_init = np.array(z)
    init_objective, _ = objective_and_gradient(problem, z_init)

    # a warm start is already interior and near-optimal: rerunning the full
    # barrier continuation would drag it away before polishing it back, and
    # its shifted multipliers spare most of the defect rounds
    lam = np.zeros((problem.horizon - 1, problem.model.state_dim))
    mu = problem.barrier_init
    if warm_start is not None:
        mu = problem.barrier_final
        carried = warm_start.diagnostics and warm_start.diagnostics.multipliers
        if carried is not None and np.shape(carried) == lam.shape:
            lam = np.array(carried)
    rho = problem.penalty_init
    scale = _objective_scale(problem)
    sig = _wavelength_scales(problem)
    precond = _preconditioner(problem, sig)

    diag = SolveDiagnostics(initial_cost=init_objective)
    trace_rows = [] if trace_path else None
    aborted = False

    fails = 0  # consecutive line-search failures, across rounds
    prev_defect = np.inf
    for _ in range(problem.outer_rounds):
        diag.outer_rounds += 1
        f, g, aux = _merit(problem, z, lam, rho, mu, scale, sig)
        if not np.isfinite(f):
            raise RuntimeError("initial iterate infeasible for the barrier")
        round_start = f
        # while the barrier is still strong there is no point polishing
        inner_tol = max(problem.optimality_tol, 1e-2 * mu)
        pairs = deque(maxlen=problem.lbfgs_memory)
        it = 0
        round_fails = 0
        pg_norm = np.inf
        window = deque(maxlen=15)
        while it < problem.inner_cap:
            # projected gradient in the preconditioned frame
            g_w = precond * g
            pg_norm = float(np.linalg.norm(
                (z - problem.project(z - precond * g_w)) / precond))
            if trace_rows is not None:
                trace_rows.append((diag.iterations + it, f, aux[0], aux[1], pg_norm))
            if pg_norm <= inner_tol:
                break
            window.append(f)
            if len(window) == window.maxlen and window[0] - f <= 1e-9 * (1.0 + abs(f)):
                break  # this round has flattened out; let the multipliers move
            direction = -_two_loop(g_w, pairs)
            if direction @ g_w >= 0.0:
                direction = -g_w
                pairs.clear()
            step_z = precond * direction
            alpha = min(1.0, 0.95 * _max_feasible_alpha(problem, z, step_z))
            accepted = None
            for _ in range(30):
                z_new = problem.project(z + alpha * step_z)
                step = z_new - z
                if float(np.linalg.norm(step)) == 0.0:
                    break
                f_new, _, _ = _merit(problem, z_new, lam, rho, mu, scale, sig,
                                     want_grad=False)
                if f_new <= f + problem.armijo * min(0.0, float(g @ step)):
                    accepted = z_new
                    break
                alpha *= 0.5
            it += 1
            if accepted is None:
                fails += 1
                round_fails += 1
                diag.line_search_failures += 1
                pairs.clear()
                if fails >= problem.ls_fail_limit:
                    aborted = True
                    break
                if round_fails >= 3:
                    break  # stuck at this round's numerical floor
                continue
            round_fails = 0
            f_new, g_new, aux = _merit(problem, accepted, lam, rho, mu, scale, sig)
            fails = 0
            s_w = (accepted - z) / precond
            y_w = precond * (g_new - g)
            sy = float(s_w @ y_w)
            if sy > 1e-8 * float(np.linalg.norm(s_w) * np.linalg.norm(y_w)):
                pairs.append((s_w, y_w, 1.0 / sy))
            z, f, g = accepted, f_new, g_new
        diag.iterations += it
        diag.merit_rounds.append((round_start, f))
        diag.optimality_norm = pg_norm
        xs, us = problem.split(z)
        states = np.vstack([problem.initial_state, xs])
        d_raw = _defects(problem, states, us)
        defect_inf = float(np.abs(d_raw).max())
        diag.defect_inf = defect_inf
        if aborted:
            break
        if (defect_inf <= 0.1 * problem.defect_tol
                and pg_norm <= problem.optimality_tol
                and mu <= problem.barrier_final):
            break
        lam = lam + rho * (d_raw / sig)
        if defect_inf > 0.25 * prev_defect:
            rho = min(rho * problem.penalty_growth, 1e8)
        prev_defect = defect_inf
        mu = max(0.1 * mu, problem.barrier_final)

    diag.converged = (not aborted
                      and diag.defect_inf <= problem.defect_tol
                      and diag.optimality_norm <= problem.optimality_tol)
    diag.multipliers = np.array(lam)

    # Re-roll the clipped controls so dynamics hold exactly on return.
    xs, us = problem.split(z)
    final_controls = problem.bounds.clip(us)
    final_states = rollout(problem.model, problem.initial_state,
                           final_controls, problem.dt)
    pts = problem.model.workspace_points(final_states)
    if not np.all(problem.workspace.contains(pts)):
        v = problem.model.workspace_dims
        final_states = np.array(final_states)
        final_states[:, :v] = problem.workspace.clamp(final_states[:, :v])
        diag.converged = False
    diag.defect_inf = float(np.abs(
        _defects(problem, final_states, final_controls)).max())

    z_final = problem.join(final_states[1:], final_controls)
    final_objective, _ = objective_and_gradient(problem, z_final)
    if final_objective > init_objective + 1e-12:
        final_controls = problem.bounds.clip(guess_controls)
        final_states = rollout(problem.model, problem.initial_state,
                               final_controls, problem.dt)
        pts = problem.model.workspace_points(final_states)
        if not np.all(problem.workspace.contains(pts)):
            v = problem.model.workspace_dims
            final_states[:, :v] = problem.workspace.clamp(final_states[:, :v])
        diag.defect_inf = float(np.abs(
            _defects(problem, final_states, final_controls)).max())
        diag.converged = False

    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as f_out:
            f_out.write("iter,J,E,defect_inf,grad_norm\n")
            for row in trace_rows:
                f_out.write(",".join(repr(x) for x in row) + "\n")

    pts = problem.model.workspace_points(final_states)
    c = trajectory_coefficients(problem.basis, pts)
    E = ergodic_metric(problem.basis, c, problem.target_coefficients)
    Ru = final_controls @ problem.control_weight
    ctrl = float(np.sum(final_controls * Ru))
    return Trajectory(states=final_states, controls=final_controls,
                      ergodic_cost=E, control_cost=ctrl, diagnostics=diag)


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
