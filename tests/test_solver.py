import copy
import dataclasses
import hashlib
import math
import struct
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import bleto.solver
from bleto.dynamics import ControlBounds, SingleIntegratorModel, UnicycleModel
from bleto.ergodic import FourierBasis, Workspace, ergodic_metric, map_coefficients
from bleto.infomap import InfoMap, init_coarse
from bleto.solver import (ErgodicProblem, Trajectory, default_initial_guess,
                          shift_warm_start, solve)
from bleto.solver import (_COLD_MEMO_SIZE, _LBFGS_MEMORY, _CompactLbfgs, _cold_key,
                          _costs, _max_feasible_alpha, _merit, _norm,
                          _objective_scale, _preconditioner, _wavelength_scales)
from oracles import reference_two_loop, trajectory_coefficients


# the solver effort of a problem that sets none: a tight tolerance and
# generous caps, beyond any planner's
EFFORT = dict(optimality_tol=1e-3, inner_cap=500, outer_rounds=8)


def coarse_problem(x0=(50.0, 50.0, 0.0), horizon=48, modes=10, dt=5.0,
                   phi=None, weight=1e-6, **kw):
    ws = Workspace((100.0, 100.0))
    basis = FourierBasis(ws, modes)
    if phi is None:
        phi = map_coefficients(basis, init_coarse(ws, (100, 100)))
    return ErgodicProblem(
        basis=basis, target_coefficients=phi, model=UnicycleModel(),
        initial_state=np.asarray(x0, dtype=float), horizon=horizon, dt=dt,
        control_weight=weight,
        bounds=ControlBounds((-0.3, -0.5), (0.3, 0.5)), **{**EFFORT, **kw})


def fine_problem(x0=(0.0, -0.35), horizon=5, modes=8, **kw):
    ws = Workspace((math.radians(270.0), math.radians(120.0)),
                   (math.radians(-135.0), math.radians(-90.0)))
    basis = FourierBasis(ws, modes)
    phi = map_coefficients(basis, InfoMap(ws, np.ones((54, 24))))
    return ErgodicProblem(
        basis=basis, target_coefficients=phi, model=SingleIntegratorModel(),
        initial_state=np.asarray(x0, dtype=float), horizon=horizon, dt=0.4,
        control_weight=1e-2,
        bounds=ControlBounds((-0.6, -0.6), (0.6, 0.6)), **{**EFFORT, **kw})


def longest_step(problem):
    """The longest position step of the control box over one ``dt``: the
    speed limit of a unicycle, the diagonal of a single integrator's rate
    box."""
    reach = problem.dt * np.maximum(-problem.bounds.lower, problem.bounds.upper)
    return float(reach[0] if isinstance(problem.model, UnicycleModel) else np.hypot(*reach))


def random_feasible_z(problem, rng):
    """A decision vector with interior states and in-box controls."""
    T, n, m = problem.horizon, problem.model.state_dim, problem.model.control_dim
    ws = problem.workspace
    v = 2
    xs = np.zeros((T - 1, n))
    xs[:, :v] = ws.lows + rng.uniform(0.05, 0.95, (T - 1, v)) * ws.lengths
    if n > v:
        xs[:, v:] = rng.uniform(-math.pi, math.pi, (T - 1, n - v))
    us = rng.uniform(problem.bounds.lower, problem.bounds.upper, (T, m))
    return problem.join(xs, us)


class TestProblemValidation:
    def test_horizon_too_short(self):
        with pytest.raises(ValueError):
            coarse_problem(horizon=1)

    def test_initial_state_outside_workspace(self):
        with pytest.raises(ValueError):
            coarse_problem(x0=(120.0, 50.0, 0.0))

    @pytest.mark.parametrize("dt", [0.0, -0.4, math.inf, math.nan])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            dataclasses.replace(fine_problem(), dt=dt)

    @pytest.mark.parametrize("weight", [-1e-3, math.nan, math.inf])
    def test_bad_control_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="control weight must be finite and nonnegative"):
            dataclasses.replace(fine_problem(), control_weight=weight)

    def test_boundary_start_allowed(self):
        prob = coarse_problem(x0=(0.0, 50.0, 0.0), horizon=8)
        traj = solve(prob)
        pts = traj.states[:, :2]
        assert prob.workspace.contains(pts).all()


def random_walk_z(problem, rng):
    """Decision vector whose states form a bounded random walk in steps
    the control box could take, strictly inside the workspace."""
    T, n, m = problem.horizon, problem.model.state_dim, problem.model.control_dim
    v = 2
    ws = problem.workspace
    xs = np.zeros((T - 1, n))
    pos = ws.lows + 0.5 * ws.lengths
    for t in range(T - 1):
        pos = np.clip(pos + rng.uniform(-0.5, 0.5, v) * longest_step(problem),
                      ws.lows + 0.02 * ws.lengths, ws.highs - 0.02 * ws.lengths)
        xs[t, :v] = pos
        if n > v:
            xs[t, v:] = rng.uniform(-math.pi, math.pi, n - v)
    us = rng.uniform(problem.bounds.lower, problem.bounds.upper, (T, m))
    return problem.join(xs, us)


class TestObjectiveAndGradient:
    """The objective E + sum u'Ru as ``solve`` reports it (``_costs``), and
    the gradient of the merit built on it (``_merit``, ``point.gradient``)."""

    def test_zero_weight_leaves_pure_metric(self):
        prob = coarse_problem(horizon=12, modes=6, weight=0.0)
        rng = np.random.default_rng(0)
        z = random_feasible_z(prob, rng)
        xs, us = prob.split(z)
        states = np.vstack([prob.initial_state, xs])
        cost, ctrl = _costs(prob, states, us)
        c = trajectory_coefficients(prob.basis, states[:, :2])
        E = ergodic_metric(prob.basis, c, prob.target_coefficients)
        assert ctrl == 0.0
        assert cost.cost + ctrl == pytest.approx(E, rel=1e-12)

    def test_zero_controls_zero_control_term(self):
        prob = coarse_problem(horizon=10, modes=5, weight=3.0)
        rng = np.random.default_rng(1)
        z = random_feasible_z(prob, rng)
        xs, us = prob.split(z)
        xs_only = np.vstack([prob.initial_state, xs])
        cost, ctrl = _costs(prob, xs_only, np.zeros_like(us))
        c = trajectory_coefficients(prob.basis, xs_only[:, :2])
        assert ctrl == 0.0
        assert cost.cost + ctrl == pytest.approx(
            ergodic_metric(prob.basis, c, prob.target_coefficients), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        prob = coarse_problem(horizon=10, modes=5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            prob.split(np.zeros(7))

    @pytest.mark.parametrize("make,seed", [("coarse", 3), ("coarse", 4),
                                           ("fine", 5)])
    def test_gradient_matches_central_differences(self, make, seed):
        # the coarse problem steps a unicycle, the fine one a single integrator
        rng = np.random.default_rng(seed)
        if make == "coarse":
            prob = coarse_problem(horizon=int(rng.integers(10, 20)),
                                  modes=int(rng.integers(4, 8)))
        else:
            prob = fine_problem(horizon=6)
        z = random_walk_z(prob, rng)
        lam = rng.normal(size=(prob.horizon - 1, prob.model.state_dim))
        args = (lam, 25.0, 0.3, _objective_scale(prob), _wavelength_scales(prob))
        f, _, point = _merit(prob, z, *args)
        assert math.isfinite(f)
        g = point.gradient()
        eps = 1e-6
        fd = np.zeros_like(z)
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            fd[i] = (_merit(prob, zp, *args)[0] - _merit(prob, zm, *args)[0]) / (2 * eps)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4


class TestMeritGradient:
    def test_merit_gradient_matches_central_differences(self):
        rng = np.random.default_rng(8)
        prob = coarse_problem(horizon=10, modes=5)
        z = random_walk_z(prob, rng)
        lam = rng.normal(size=(prob.horizon - 1, 3))
        scale = _objective_scale(prob)
        sig = _wavelength_scales(prob)
        f, _, point = _merit(prob, z, lam, 25.0, 0.3, scale, sig)
        g = point.gradient()
        eps = 1e-6
        fd = np.zeros_like(z)
        for i in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            fp, _, _ = _merit(prob, zp, lam, 25.0, 0.3, scale, sig)
            fm, _, _ = _merit(prob, zm, lam, 25.0, 0.3, scale, sig)
            fd[i] = (fp - fm) / (2 * eps)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4


class TestSolve:
    def test_stay_put_when_target_is_here(self):
        # concentrated target at the start position, heavy control penalty
        ws = Workspace((100.0, 100.0))
        basis = FourierBasis(ws, 10)
        cx, cy = np.meshgrid(np.arange(100) + 0.5, np.arange(100) + 0.5,
                             indexing="ij")
        vals = np.exp(-0.5 * ((cx - 40.0) ** 2 + (cy - 60.0) ** 2) / 2.0**2)
        phi = map_coefficients(basis, InfoMap(ws, vals))
        prob = coarse_problem(x0=(40.0, 60.0, 0.5), dt=1.0, phi=phi, weight=10.0)
        traj = solve(prob)
        stay = np.tile([40.0, 60.0], (48, 1))
        E_stay = ergodic_metric(basis, trajectory_coefficients(basis, stay), phi)
        assert abs(traj.ergodic_cost - E_stay) <= 0.05 * E_stay
        assert np.max(np.abs(traj.controls)) < 1e-3

    def test_uniform_map_halves_initial_metric(self):
        prob = coarse_problem(x0=(30.0, 70.0, 1.0))
        traj = solve(prob)
        assert traj.ergodic_cost <= 0.5 * traj.diagnostics.initial_cost
        assert traj.diagnostics.defect_inf < 1e-5

    def test_feasibility_of_returned_plan(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            x0 = (*rng.uniform(10, 90, 2), rng.uniform(-3, 3))
            prob = coarse_problem(x0=x0, horizon=24, modes=6)
            traj = solve(prob)
            d = traj.diagnostics
            assert d.defect_inf < 1e-5
            assert np.all(traj.controls >= prob.bounds.lower - 1e-12)
            assert np.all(traj.controls <= prob.bounds.upper + 1e-12)
            steps = np.linalg.norm(np.diff(traj.states[:, :2], axis=0), axis=1)
            assert steps.max() <= longest_step(prob) * (1.0 + 1e-9)
            assert prob.workspace.contains(traj.states[:, :2]).all()

    def test_deterministic_to_the_bit(self):
        prob_a = coarse_problem(x0=(20.0, 30.0, 0.3), horizon=16, modes=5)
        prob_b = coarse_problem(x0=(20.0, 30.0, 0.3), horizon=16, modes=5)
        ta = solve(prob_a)
        bleto.solver._cold_memo.clear()  # the second solve runs, too
        tb = solve(prob_b)
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.controls, tb.controls)
        assert ta.ergodic_cost == tb.ergodic_cost

    def test_cost_dominance_over_corpus(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            x0 = (*rng.uniform(5, 95, 2), rng.uniform(-3, 3))
            prob = coarse_problem(x0=x0, horizon=20, modes=6,
                                  inner_cap=60, outer_rounds=4)
            traj = solve(prob)
            total = traj.ergodic_cost + traj.control_cost
            assert total <= traj.diagnostics.initial_cost + 1e-12

    def test_monotone_merit_within_rounds(self):
        prob = coarse_problem(x0=(25.0, 40.0, -1.0), horizon=24, modes=6)
        traj = solve(prob)
        for start, end in traj.diagnostics.merit_rounds:
            assert end <= start + 1e-10

    def test_stationarity_on_well_conditioned_problem(self):
        prob = fine_problem()
        traj = solve(prob)
        assert traj.diagnostics.converged
        assert traj.diagnostics.optimality_norm < 1e-3

    def test_trace_written(self):
        prob = coarse_problem(horizon=12, modes=5, inner_cap=40, outer_rounds=3)
        diag = solve(prob).diagnostics
        rows = diag.trace
        assert len(rows) > 3
        assert all(len(row) == 5 for row in rows)
        # one row per inner step, numbered across rounds, plus at most one
        # per round for the check that ended it without a step
        assert len(rows) <= diag.iterations + diag.outer_rounds
        iters = [row[0] for row in rows]
        assert iters[0] == 0 and iters == sorted(iters)
        assert iters[-1] <= diag.iterations
        assert np.all(np.isfinite(rows))


class TestWarmStart:
    def test_shift_drops_first_duplicates_last(self):
        states = np.arange(12, dtype=float).reshape(4, 3)
        controls = np.arange(8, dtype=float).reshape(4, 2)
        traj = Trajectory(states=states, controls=controls)
        shifted = shift_warm_start(traj)
        assert shifted.horizon == 4
        assert np.allclose(shifted.states[:3], states[1:])
        assert np.allclose(shifted.states[3], states[3])
        assert np.allclose(shifted.controls[:3], controls[1:])
        assert np.allclose(shifted.controls[3], controls[3])

    def test_lengths_preserved(self):
        traj = Trajectory(states=np.zeros((7, 2)), controls=np.ones((7, 2)))
        assert shift_warm_start(traj).horizon == 7

    def test_warm_start_cuts_iterations(self):
        # paired benchmark: warm solves after a one-step shift converge in
        # at most half the cold-start iterations (median over 20 seeds);
        # the configuration is one where solves terminate by tolerance, so
        # the comparison measures convergence work rather than cap clipping
        rng = np.random.default_rng(31)
        ratios = []
        kw = dict(horizon=32, modes=6, optimality_tol=1e-2,
                  inner_cap=300, outer_rounds=6)
        for _ in range(20):
            x0 = (*rng.uniform(15, 85, 2), rng.uniform(-3, 3))
            prob = coarse_problem(x0=x0, **kw)
            cold = solve(prob)
            step1 = prob.model.step(np.asarray(x0, dtype=float),
                                    cold.controls[0], prob.dt)
            warm = solve(coarse_problem(x0=step1, **kw),
                         warm_start=shift_warm_start(cold))
            cold2 = solve(coarse_problem(x0=step1, **kw))
            ratios.append(warm.diagnostics.iterations
                          / max(cold2.diagnostics.iterations, 1))
        assert np.median(ratios) <= 0.5

    def test_warm_start_horizon_mismatch(self):
        prob = coarse_problem(horizon=10, modes=5)
        bad = Trajectory(states=np.zeros((7, 3)), controls=np.zeros((7, 2)))
        with pytest.raises(ValueError):
            solve(prob, warm_start=bad)


class TestDefaultGuess:
    def test_coarse_guess_moves_forward(self):
        prob = coarse_problem(horizon=10)
        states, controls = default_initial_guess(prob)
        assert np.all(controls[:, 0] == 0.15)
        assert np.all(controls[:, 1] == 0.0)
        assert states[-1, 0] > states[0, 0]

    def test_fine_guess_is_still(self):
        prob = fine_problem()
        states, controls = default_initial_guess(prob)
        assert np.all(controls == 0.0)


class TestPreconditioner:
    def test_shapes_and_positivity(self):
        prob = coarse_problem(horizon=9, modes=5)
        d = _preconditioner(prob, _wavelength_scales(prob))
        assert d.shape == (8 * 3 + 9 * 2,)
        assert np.all(d > 0)


def solve_digest(traj):
    """sha256 over everything a solve returns: states, controls, costs,
    diagnostics and the final multipliers, as raw float64/int64 bytes."""
    d = traj.diagnostics
    h = hashlib.sha256()
    for arr in (traj.states, traj.controls, d.multipliers):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    scalars = [traj.ergodic_cost, traj.control_cost, d.initial_cost,
               d.defect_inf, d.optimality_norm]
    for start, end in d.merit_rounds:
        scalars += [start, end]
    h.update(struct.pack(f"<{len(scalars)}d", *scalars))
    h.update(struct.pack("<4q", d.iterations, d.outer_rounds,
                         d.line_search_failures, int(d.converged)))
    return h.hexdigest()


def count_uncached_solves(monkeypatch):
    """Wrap the solver's uncached path; returns the list of the warm starts
    it is called with, one entry per solve that runs."""
    runs = []
    real = bleto.solver._solve_uncached

    def counting(problem, warm_start):
        runs.append(warm_start)
        return real(problem, warm_start)

    monkeypatch.setattr(bleto.solver, "_solve_uncached", counting)
    return runs


def one_ulp_up(values, index):
    out = np.array(values, dtype=float)
    out[index] = np.nextafter(out[index], np.inf)
    return out


def memo_problem(**kw):
    """A cold coarse problem small and cheap enough to solve many times."""
    return coarse_problem(**{**dict(horizon=8, modes=4, inner_cap=6, outer_rounds=2), **kw})


def with_basis(problem, lengths=(100.0, 100.0), lows=(0.0, 0.0), modes=4, **kw):
    return dataclasses.replace(problem, basis=FourierBasis(Workspace(lengths, lows), modes),
                               **kw)


def with_bound(problem, side, index):
    lower, upper = problem.bounds.lower, problem.bounds.upper
    if side == "lower":
        lower = one_ulp_up(lower, index)
    else:
        upper = one_ulp_up(upper, index)
    return dataclasses.replace(problem, bounds=ControlBounds(lower, upper))


# problems that differ from ``memo_problem()`` in one input, named by the
# ErgodicProblem field it belongs to; the basis's modes and the model fix
# the shapes of the target and of the initial state, so those two cases
# change the dependent field as well
MEMO_VARIANTS = {
    ("basis", "lengths"): lambda p: with_basis(p, lengths=(100.0, np.nextafter(100.0, 200.0))),
    ("basis", "lows"): lambda p: with_basis(p, lows=(0.0, -0.5)),
    ("basis", "modes"): lambda p: with_basis(
        p, modes=5, target_coefficients=np.resize(p.target_coefficients, 25)),
    ("target_coefficients", "one ulp"): lambda p: dataclasses.replace(
        p, target_coefficients=one_ulp_up(p.target_coefficients, 3)),
    ("model", "type"): lambda p: dataclasses.replace(
        p, model=SingleIntegratorModel(), initial_state=p.initial_state[:2]),
    ("initial_state", "one ulp"): lambda p: dataclasses.replace(
        p, initial_state=one_ulp_up(p.initial_state, 1)),
    ("horizon", "+1"): lambda p: dataclasses.replace(p, horizon=p.horizon + 1),
    ("dt", "one ulp"): lambda p: dataclasses.replace(p, dt=float(np.nextafter(p.dt, np.inf))),
    ("control_weight", "one ulp"): lambda p: dataclasses.replace(
        p, control_weight=float(np.nextafter(p.control_weight, 1.0))),
    ("bounds", "lower speed"): lambda p: with_bound(p, "lower", 0),
    ("bounds", "lower turn"): lambda p: with_bound(p, "lower", 1),
    ("bounds", "upper speed"): lambda p: with_bound(p, "upper", 0),
    ("bounds", "upper turn"): lambda p: with_bound(p, "upper", 1),
    ("optimality_tol", "one ulp"): lambda p: dataclasses.replace(
        p, optimality_tol=float(np.nextafter(p.optimality_tol, 1.0))),
    ("inner_cap", "+1"): lambda p: dataclasses.replace(p, inner_cap=p.inner_cap + 1),
    ("outer_rounds", "+1"): lambda p: dataclasses.replace(p, outer_rounds=p.outer_rounds + 1),
}


class YieldingDict(dict):
    """A dict that gives other threads the interpreter after each lookup
    and size check, so that an unlocked check-then-act on it interleaves
    between the check and the act."""

    def __contains__(self, key):
        found = super().__contains__(key)
        time.sleep(0)
        return found

    def __len__(self):
        size = super().__len__()
        time.sleep(0)
        return size

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


class TestColdMemo:
    """``solve`` keeps its cold solves (the ``solver`` module docstring's
    memo): a repeat is a copy of the first, bit for bit; a problem that
    differs in any input runs; warm solves always run; the memo never
    holds more than ``_COLD_MEMO_SIZE`` solves."""

    @pytest.fixture(autouse=True)
    def runs(self, monkeypatch):
        bleto.solver._cold_memo.clear()
        return count_uncached_solves(monkeypatch)

    def test_hit_returns_the_miss(self, runs):
        miss = solve(memo_problem())
        hit = solve(memo_problem())
        assert runs == [None]
        assert solve_digest(hit) == solve_digest(miss)
        assert hit.diagnostics.trace == miss.diagnostics.trace
        assert hit.diagnostics.trace is not miss.diagnostics.trace

    def test_variants_cover_every_field(self):
        names = {f.name for f in dataclasses.fields(ErgodicProblem)}
        assert {name for name, _ in MEMO_VARIANTS} == names

    @pytest.mark.parametrize("variant", list(MEMO_VARIANTS),
                             ids=[" ".join(v) for v in MEMO_VARIANTS])
    def test_any_changed_input_misses(self, runs, variant):
        base = memo_problem()
        other = MEMO_VARIANTS[variant](base)
        name = variant[0]
        # the key sees the named field alone change
        alone = copy.copy(base)
        setattr(alone, name, getattr(other, name))
        assert _cold_key(alone) != _cold_key(base)
        first = solve(base)
        solve(other)
        assert runs == [None, None]
        assert solve_digest(solve(base)) == solve_digest(first)
        assert len(runs) == 2

    def test_a_type_the_key_does_not_know_raises(self, runs):
        class Unicycle(UnicycleModel):
            pass

        with pytest.raises(TypeError, match="no exact key"):
            solve(dataclasses.replace(memo_problem(), model=Unicycle()))
        assert runs == []

    def test_mutating_a_result_leaves_the_next_hit_alone(self, runs):
        miss = solve(memo_problem())
        digest, trace = solve_digest(miss), list(miss.diagnostics.trace)
        hit = solve(memo_problem())
        for traj in (miss, hit):
            d = traj.diagnostics
            for arr in (traj.states, traj.controls, d.multipliers):
                arr[...] = np.nan
            d.trace.append((0, 0.0, 0.0, 0.0, 0.0))
            del d.trace[0]
            d.merit_rounds.clear()
        again = solve(memo_problem())
        assert runs == [None]
        assert solve_digest(again) == digest
        assert again.diagnostics.trace == trace

    def test_warm_solves_always_run(self, runs):
        cold = solve(memo_problem())
        warm_problem = memo_problem(x0=cold.states[1])
        warm = [solve(warm_problem, warm_start=shift_warm_start(cold)) for _ in range(2)]
        assert len(runs) == 3 and runs[1] is not None and runs[2] is not None
        assert solve_digest(warm[0]) == solve_digest(warm[1])
        assert len(bleto.solver._cold_memo) == 1

    def test_memo_is_capped_and_evicts_the_oldest(self, runs):
        starts = [(10.0 + 5.0 * k, 50.0, 0.0) for k in range(3 * _COLD_MEMO_SIZE)]
        for x0 in starts:
            solve(memo_problem(x0=x0))
            assert len(bleto.solver._cold_memo) <= _COLD_MEMO_SIZE
        assert len(runs) == len(starts)
        solve(memo_problem(x0=starts[-1]))  # among the newest: kept
        assert len(runs) == len(starts)
        solve(memo_problem(x0=starts[0]))  # the oldest: evicted
        assert len(runs) == len(starts) + 1

    def test_threads_share_the_memo_safely(self, monkeypatch):
        # more threads than cores, switching often, against a stub solve so
        # that the threads spend their time inserting and evicting, and a
        # memo that lets another thread run inside each of its checks: no
        # thread raises, each gets its own problem's trajectory, and the
        # memo stays within its cap
        problems = [memo_problem(x0=(10.0 + k, 40.0, 0.0)) for k in range(4 * _COLD_MEMO_SIZE)]
        solved = {id(p): solve(p) for p in problems}
        monkeypatch.setattr(bleto.solver, "_solve_uncached",
                            lambda problem, warm_start: solved[id(problem)])
        monkeypatch.setattr(bleto.solver, "_cold_memo", YieldingDict())

        def work(offset):
            for k in range(300):
                problem = problems[(offset + k) % len(problems)]
                traj = solve(problem)
                assert np.array_equal(traj.states, solved[id(problem)].states)
                assert len(bleto.solver._cold_memo) <= _COLD_MEMO_SIZE

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, offset) for offset in range(8)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(bleto.solver._cold_memo) <= _COLD_MEMO_SIZE


def reference_max_feasible_alpha(problem, z, step_z):
    """The fraction-to-boundary rule computed from ``z`` itself, as the
    solver did before it read the margins of the iterate's merit
    evaluation; kept as the reference for ``_max_feasible_alpha``.  The
    workspace faces are the only boundary."""
    xs, _ = problem.split(z)
    dxs, _ = problem.split(step_z)
    v = 2
    ws = problem.workspace
    pts = xs[:, :v]
    dpts = dxs[:, :v]
    rel = pts - ws.lows
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.where(dpts < 0.0, rel, ws.lengths - rel)
        alpha = np.min(gap / np.abs(dpts), initial=np.inf, where=dpts != 0.0)
    return float(alpha) if np.isfinite(alpha) else 1.0


def interior_walks(problem, rng, n):
    """n decision vectors whose positions walk from the initial state in
    steps of at most 0.71 of the control box's longest step and stay 2%
    inside the workspace, so every one is strictly interior for the
    barrier."""
    T, nx, m = problem.horizon, problem.model.state_dim, problem.model.control_dim
    v = 2
    ws = problem.workspace
    lo, hi = ws.lows + 0.02 * ws.lengths, ws.highs - 0.02 * ws.lengths
    pos = np.tile(problem.initial_state[:v], (n, 1))
    xs = np.zeros((n, T - 1, nx))
    for t in range(T - 1):
        step = rng.uniform(-0.5, 0.5, (n, v)) * longest_step(problem)
        pos = np.clip(pos + step, lo, hi)
        xs[:, t, :v] = pos
    xs[:, :, v:] = rng.uniform(-math.pi, math.pi, (n, T - 1, nx - v))
    us = rng.uniform(problem.bounds.lower, problem.bounds.upper, (n, T, m))
    return [problem.join(x, u) for x, u in zip(xs, us)]


class TestByteIdentity:
    """The solver's output is pinned to the byte.

    The digests were recorded after the L-BFGS two-loop recursion gave way
    to its compact matrix form (``_CompactLbfgs``), which changed every
    solve's iterates in their last bits, on linux x86-64 with numpy 2.4.6
    and scipy-openblas, BLAS on one thread.  A change meant as a pure
    speed-up must keep them; one that alters the solver or its arithmetic
    on purpose must update them and say why.  The settings are the
    mission's: a cold coarse replan, a warm one, and a fine (camera) solve.

    The warm case is a link of the chain cold → warm₁ → warm₂ → …, each
    link the replan from its predecessor's state 1 through
    ``shift_warm_start``: the first link whose line search fails at least
    once, so that the pinned warm solve takes the failure path.
    """

    COARSE = dict(dt=15.0, inner_cap=150, outer_rounds=6, optimality_tol=1e-2)
    WARM_LINK = 3
    DIGESTS = {
        "cold": "8a2dae2936791c72541d7433910bdef64527e360bd3c841fe7a9d50c5b3c20be",
        "warm": "ab80fb21b8199a8de1f42dc5b2e03385f40bfc5927ddca3c362b2dfa1e8f59c1",
        "fine": "f48a99b784df10df5856585ef42008e9297fec0e9f65641bafc9158f051c0cb1",
    }

    def test_solves_match_pinned_digests(self, monkeypatch):
        # the pins are taken from solves that run (memo misses), then a memo
        # hit of each cold case is checked against the same pin
        bleto.solver._cold_memo.clear()
        runs = count_uncached_solves(monkeypatch)
        cold = solve(coarse_problem(x0=(30.0, 70.0, 1.0), **self.COARSE))
        warm_kw = dict(self.COARSE, inner_cap=60, outer_rounds=2)
        warm = cold
        for _ in range(self.WARM_LINK):
            warm = solve(coarse_problem(x0=warm.states[1], **warm_kw),
                         warm_start=shift_warm_start(warm))
        fine = solve(fine_problem())
        digests = {"cold": solve_digest(cold), "warm": solve_digest(warm),
                   "fine": solve_digest(fine)}
        assert digests == self.DIGESTS
        assert len(runs) == self.WARM_LINK + 2
        # every case runs the line search, failures included
        for traj in (cold, warm, fine):
            assert traj.diagnostics.iterations > 0
            assert traj.diagnostics.line_search_failures > 0
        hits = {"cold": solve(coarse_problem(x0=(30.0, 70.0, 1.0), **self.COARSE)),
                "fine": solve(fine_problem())}
        assert len(runs) == self.WARM_LINK + 2
        assert {name: solve_digest(t) for name, t in hits.items()} == {
            name: self.DIGESTS[name] for name in hits}

    @pytest.mark.parametrize("make", ["coarse", "fine"])
    def test_cached_margins_match_reference_rule(self, make):
        # starts near a corner, so the walks reach the workspace faces
        if make == "coarse":
            prob = coarse_problem(x0=(4.0, 96.0, 0.3), dt=15.0)
        else:
            prob = fine_problem(x0=(-2.2, 0.42))
        rng = np.random.default_rng(41 if make == "coarse" else 42)
        scale, sig = _objective_scale(prob), _wavelength_scales(prob)
        precond = _preconditioner(prob, sig)
        lam = np.zeros((prob.horizon - 1, prob.model.state_dim))
        v = 2
        n = 5000
        checked = 0
        for k, z in enumerate(interior_walks(prob, rng, n)):
            f, _, point = _merit(prob, z, lam, 10.0, 0.1, scale, sig)
            assert np.isfinite(f)
            step_z = precond * rng.normal(size=z.size) * 10.0 ** rng.uniform(-2, 1)
            if k % 100 == 0:
                step_z[: prob.n_state_vars] = 0.0  # no position moves: alpha is 1
            elif k % 2:  # every position shifts alike: the workspace faces bind
                dxs, _ = prob.split(step_z)
                dxs[:, :v] = dxs[0, :v]
            else:  # some coordinates stand still
                step_z[rng.random(z.size) < 0.2] = 0.0
            assert (_max_feasible_alpha(prob, point, step_z)
                    == reference_max_feasible_alpha(prob, z, step_z))
            checked += 1
        assert checked == n


def curvature_pairs(rng, n, count):
    """``count`` random (s, y, sᵀy) with sᵀy > 0: steps of scales from 1e-4
    to 1e2 and gradient changes through a positive diagonal curvature of
    spread 100, plus noise."""
    pairs = []
    while len(pairs) < count:
        s = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 2)
        y = s * rng.uniform(0.1, 10.0, n) + 1e-3 * rng.normal(size=n)
        sy = float(s.dot(y))
        if sy > 0.0:
            pairs.append((s, y, sy))
    return pairs


class TestCompactLbfgs:
    """``_CompactLbfgs`` forms the two-loop recursion's product
    (``oracles.reference_two_loop``) in matrix form: equal in exact
    arithmetic, within 1e-12 relative in floats, on random pairs of the
    solver's sizes (18 entries for the default fine problem, 237 for the
    default coarse one)."""

    SIZES = (1, 2, 18, 33, 237, 400)

    @staticmethod
    def assert_matches(lbfgs, kept, rng, n):
        pairs = [(s, y, 1.0 / sy) for s, y, sy in kept]
        for _ in range(3):
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3)
            got, expect = lbfgs.apply(g), reference_two_loop(g, pairs)
            assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    # 0, 1 and a full memory of pairs, and more than two memories' worth,
    # which moves the window back to the start of its rows
    @pytest.mark.parametrize("n_pairs", [0, 1, _LBFGS_MEMORY, 2 * _LBFGS_MEMORY + 7])
    def test_matches_two_loop(self, n_pairs):
        rng = np.random.default_rng(60 + n_pairs)
        for n in self.SIZES:
            for _ in range(20):
                lbfgs = _CompactLbfgs(n, _LBFGS_MEMORY)
                kept = deque(maxlen=_LBFGS_MEMORY)
                for pair in curvature_pairs(rng, n, n_pairs):
                    lbfgs.append(*pair)
                    kept.append(pair)
                self.assert_matches(lbfgs, kept, rng, n)

    def test_matches_after_every_append_and_clear(self):
        # the fine problem's size, 18 variables, with the solver's 15 pairs
        rng = np.random.default_rng(63)
        lbfgs = _CompactLbfgs(18, _LBFGS_MEMORY)
        kept = deque(maxlen=_LBFGS_MEMORY)
        for k, pair in enumerate(curvature_pairs(rng, 18, 200)):
            if k % 37 == 36:
                lbfgs.clear()
                kept.clear()
                self.assert_matches(lbfgs, kept, rng, 18)
            lbfgs.append(*pair)
            kept.append(pair)
            self.assert_matches(lbfgs, kept, rng, 18)


class TestLeanForms:
    """The inner loop's call-saving forms give the floats of the forms
    they replaced, on random inputs of the solver's sizes (18 entries for
    the default fine problem, 237 for the default coarse one)."""

    SIZES = (1, 2, 18, 33, 237, 400)

    def test_norm_matches_numpy(self):
        rng = np.random.default_rng(61)
        for n in self.SIZES:
            for _ in range(200):
                x = rng.normal(size=n) * 10.0 ** rng.uniform(-160, 150, n)
                x[rng.random(n) < 0.1] = 0.0
                assert _norm(x) == float(np.linalg.norm(x))
            # zero, and entries whose squares underflow: both read zero
            for x in (np.zeros(n), np.full(n, 1e-170), np.full(n, -0.0)):
                assert _norm(x) == float(np.linalg.norm(x)) == 0.0

    def test_clip_form_matches_np_clip(self):
        # the solver's bounds: -inf/+inf on the states, the boxes on the
        # controls; a speed box starting at zero makes signed-zero ties
        prob = dataclasses.replace(
            coarse_problem(horizon=12, modes=4),
            bounds=ControlBounds((0.0, -0.5), (0.3, 0.5)))
        lower, upper = prob.decision_bounds()
        rng = np.random.default_rng(62)
        special = np.array([0.0, -0.0, 0.3, -0.5, 0.5, np.inf, -np.inf, np.nan])
        for _ in range(500):
            x = rng.normal(size=lower.size) * 10.0 ** rng.uniform(-3, 1)
            pick = rng.random(x.size) < 0.3
            x[pick] = rng.choice(special, pick.sum())
            got, expect = x.clip(lower, upper), np.clip(x, lower, upper)
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))
