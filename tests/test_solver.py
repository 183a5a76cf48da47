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
from bleto.dynamics import ControlBounds, SingleIntegratorModel, UnicycleModel, rollout
from bleto.ergodic import FourierBasis, Workspace, ergodic_metric, map_coefficients
from bleto.infomap import InfoMap, init_coarse
from bleto.planner import BiLevelConfig
from bleto.solver import (ErgodicProblem, Trajectory, default_initial_guess,
                          shift_warm_start, solve)
from bleto.solver import (_COLD_MEMO_SIZE, _LBFGS_MEMORY, _CompactLbfgs, _cold_key,
                          _Objective, _norm)
from oracles import reference_two_loop, trajectory_coefficients


# the solver effort of a problem that sets none: a tight tolerance and a
# generous cap, beyond any planner's
EFFORT = dict(optimality_tol=1e-3, iteration_cap=2000)


def coarse_problem(x0=(50.0, 50.0, 0.0), horizon=48, modes=10, dt=5.0,
                   phi=None, weight=1e-6, bounds=None, **kw):
    ws = Workspace((100.0, 100.0))
    basis = FourierBasis(ws, modes)
    if phi is None:
        phi = map_coefficients(basis, init_coarse(ws, (100, 100)))
    return ErgodicProblem(
        basis=basis, target_coefficients=phi, model=UnicycleModel(),
        initial_state=np.asarray(x0, dtype=float), horizon=horizon, dt=dt,
        control_weight=weight,
        bounds=bounds or ControlBounds((-0.3, -0.5), (0.3, 0.5)), **{**EFFORT, **kw})


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


def random_states(problem, rng):
    """States from the initial one through random positions inside the
    workspace (and random headings), with in-box controls: inputs of the
    reported costs, which need no dynamics."""
    T, n, m = problem.horizon, problem.model.state_dim, problem.model.control_dim
    ws = problem.workspace
    states = np.zeros((T, n))
    states[0] = problem.initial_state
    states[1:, :2] = ws.lows + rng.uniform(0.05, 0.95, (T - 1, 2)) * ws.lengths
    states[1:, 2:] = rng.uniform(-math.pi, math.pi, (T - 1, n - 2))
    return states, rng.uniform(problem.bounds.lower, problem.bounds.upper, (T, m))


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


class TestObjectiveAndGradient:
    """The objective E + sum u'Ru of an evaluated point as ``solve``
    reports it (``_Point.cost`` and ``ctrl``), and the gradient of the
    shooting objective built on it (``_Objective``)."""

    def test_zero_weight_leaves_pure_metric(self):
        prob = coarse_problem(horizon=12, modes=6, weight=0.0)
        _, us = random_states(prob, np.random.default_rng(0))
        objective = _Objective(prob)
        f, point = objective.evaluate(us)
        c = trajectory_coefficients(prob.basis, point.states[:, :2])
        E = ergodic_metric(prob.basis, c, prob.target_coefficients)
        assert point.ctrl == 0.0 and not point.outside.any()
        assert point.cost.cost + point.ctrl == pytest.approx(E, rel=1e-12)
        assert f == objective.scale * point.cost.cost

    def test_zero_controls_zero_control_term(self):
        prob = coarse_problem(horizon=10, modes=5, weight=3.0)
        _, us = random_states(prob, np.random.default_rng(1))
        point = _Objective(prob).evaluate(np.zeros_like(us))[1]
        c = trajectory_coefficients(prob.basis, point.states[:, :2])
        assert point.ctrl == 0.0
        assert point.cost.cost + point.ctrl == pytest.approx(
            ergodic_metric(prob.basis, c, prob.target_coefficients), rel=1e-12)

    @pytest.mark.parametrize("make,seed", [("coarse", 3), ("coarse", 4), ("coarse-corner", 5),
                                           ("fine", 6), ("fine-corner", 7)])
    def test_gradient_matches_central_differences(self, make, seed):
        # the coarse problems roll out a unicycle, the fine ones a single
        # integrator; from a corner, random controls carry some positions
        # past the workspace faces, where the penalty acts
        rng = np.random.default_rng(seed)
        if make.startswith("coarse"):
            x0 = (3.0, 96.0, 2.0) if make == "coarse-corner" else (50.0, 50.0, 0.3)
            prob = coarse_problem(x0=x0, horizon=int(rng.integers(10, 20)),
                                  modes=int(rng.integers(4, 8)), dt=15.0, weight=1e-3)
        else:
            x0 = (-2.3, 0.45) if make == "fine-corner" else (0.0, -0.35)
            prob = fine_problem(x0=x0, horizon=6)
        T, m = prob.horizon, prob.model.control_dim
        us = rng.uniform(prob.bounds.lower, prob.bounds.upper, (T, m))
        objective = _Objective(prob)
        f, point = objective.evaluate(us)
        assert math.isfinite(f)
        crossed = np.abs(point.outside).max() > 0
        assert crossed == make.endswith("corner")
        g = objective.gradient(point)
        eps = 1e-6
        fd = np.zeros(us.size)
        for i in range(us.size):
            up, um = us.ravel().copy(), us.ravel().copy()
            up[i] += eps
            um[i] -= eps
            fd[i] = (objective.evaluate(up.reshape(T, m))[0]
                     - objective.evaluate(um.reshape(T, m))[0]) / (2 * eps)
        # the last control moves no state: only the control cost sees it
        assert np.array_equal(g[-m:], (objective.scale * 2.0 * prob.control_weight) * us[-1])
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-6


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
        assert np.array_equal(traj.states, rollout(prob.model, prob.initial_state,
                                                   traj.controls, prob.dt))

    def test_feasibility_of_returned_plan(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            x0 = (*rng.uniform(10, 90, 2), rng.uniform(-3, 3))
            prob = coarse_problem(x0=x0, horizon=24, modes=6)
            traj = solve(prob)
            assert np.array_equal(traj.states, rollout(prob.model, prob.initial_state,
                                                       traj.controls, prob.dt))
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
                                  iteration_cap=240)
            traj = solve(prob)
            total = traj.ergodic_cost + traj.control_cost
            assert total <= traj.diagnostics.initial_cost + 1e-12

    def test_objective_never_rises(self):
        # every accepted step passes the Armijo test, so the objective of
        # each traced iterate is at most the one before
        prob = coarse_problem(x0=(25.0, 40.0, -1.0), horizon=24, modes=6)
        objective = [row[1] for row in solve(prob).diagnostics.trace]
        assert len(objective) > 10
        assert all(b <= a for a, b in zip(objective, objective[1:]))

    def test_stationarity_on_well_conditioned_problem(self):
        # solved to a tolerance a hundred times below the bound, so that the
        # check does not sit on the stopping rule's own threshold; from 80
        # random starts of this problem every solve reaches 1e-5
        prob = fine_problem(optimality_tol=1e-5)
        traj = solve(prob)
        assert traj.diagnostics.converged
        assert traj.diagnostics.optimality_norm < 1e-3

    @pytest.mark.parametrize("make", ["fine", "coarse"])
    def test_an_unmeetable_tolerance_runs_to_the_cap(self, make):
        # the one stall stop is three failed line searches in a row
        # (TestLineSearchFailure), and at tolerance 0 these problems descend
        # to their cap without a failed search
        prob = (fine_problem(optimality_tol=0.0, iteration_cap=300) if make == "fine"
                else coarse_problem(horizon=12, modes=5, optimality_tol=0.0,
                                    iteration_cap=300))
        d = bleto.solver._solve_uncached(prob, None).diagnostics
        assert (d.iterations, d.line_search_failures, d.converged) == (300, 0, False)

    def test_trace_written(self):
        prob = coarse_problem(horizon=12, modes=5, iteration_cap=40)
        diag = solve(prob).diagnostics
        rows = diag.trace
        assert len(rows) > 3
        assert all(len(row) == 4 for row in rows)
        # one row per iterate: the start and each step after it
        assert [row[0] for row in rows] == list(range(diag.iterations + 1))
        assert rows[-1][3] == diag.optimality_norm
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
                  iteration_cap=1800)
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
    """The cold guess: half speed and no turn for the unicycle, no motion
    for the single integrator, each channel wiggled by 1e-3 of its
    half-range, alternating in sign from step to step; its states are the
    controls' rollout."""

    @pytest.mark.parametrize("make", ["coarse", "fine"])
    def test_guess_is_a_wiggled_constant_control(self, make):
        prob = coarse_problem(horizon=10) if make == "coarse" else fine_problem()
        states, controls = default_initial_guess(prob)
        base = np.array([0.15, 0.0]) if make == "coarse" else np.zeros(2)
        half_range = 0.5 * (prob.bounds.upper - prob.bounds.lower)
        sign = np.where(np.arange(prob.horizon) % 2 == 0, 1.0, -1.0)[:, None]
        assert np.allclose(controls, base + sign * 1e-3 * half_range, rtol=0.0, atol=1e-15)
        assert np.array_equal(states, rollout(prob.model, prob.initial_state,
                                              controls, prob.dt))

    def test_coarse_guess_moves_forward(self):
        states, _ = default_initial_guess(coarse_problem(horizon=10))
        assert states[-1, 0] > states[0, 0] + 0.9 * 9 * 5.0 * 0.15


def solve_digest(traj):
    """sha256 over everything a solve returns: states, controls, costs and
    diagnostics, as raw float64/int64 bytes."""
    d = traj.diagnostics
    h = hashlib.sha256()
    for arr in (traj.states, traj.controls):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    scalars = [traj.ergodic_cost, traj.control_cost, d.initial_cost, d.optimality_norm]
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
    return coarse_problem(**{**dict(horizon=8, modes=4, iteration_cap=12), **kw})


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
    ("iteration_cap", "+1"): lambda p: dataclasses.replace(p, iteration_cap=p.iteration_cap + 1),
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
            for arr in (traj.states, traj.controls):
                arr[...] = np.nan
            d.trace.append((0, 0.0, 0.0, 0.0))
            del d.trace[0]
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


class TestByteIdentity:
    """The solver's output is pinned to the byte.

    The digests were recorded when the body's turn box became half a turn
    per step (``BiLevelConfig.body_bounds``), on linux x86-64 with numpy
    2.4.6 and scipy-openblas, BLAS on one thread.  A change meant as a pure
    speed-up must keep them; one that alters the solver or its arithmetic
    on purpose must update them and say why.  The settings are the
    mission's: a cold coarse replan, a warm one, and a fine (camera) solve.

    The cold case converges, at under 5% of its guess's cost.  The warm
    case is a link of the chain cold → warm₁ → warm₂ → …, each link the
    replan from its predecessor's state 1 through ``shift_warm_start``: the
    second, which stops at its cap.  No solve of the chain fails a line
    search; ``TestLineSearchFailure`` takes that path.
    """

    COARSE = dict(dt=15.0, iteration_cap=900, optimality_tol=1e-2,
                  bounds=BiLevelConfig().body_bounds())
    WARM_LINK = 2
    DIGESTS = {
        "cold": "d8affbc09fcfa4fb02d09bdc5ffe364073ba3e94b0193f2e46f2127a86a7e342",
        "warm": "db64cd7a9b0160b26f57d66e0f3c00bb8040adbf8ca9d0bc8402dd6fe4f74fa9",
        "fine": "722eb722f92aedc336c2513a56fdb863b4f18fab42cd7745a7a66b6912bb9c72",
        "settled": "fdbc780ff7edd6b25d75675c2d08c1fd8eae3060c7a03356e5f088ef54967eb4",
        "clamped": "8f78e71fa71d00db74821eea572eaae01c00a79507de1305d60785a95a0e9a4d",
        "returned": "4c5d20542dc482651525007199fe568dd8d24b24f1cb3da317bec254410987d0",
    }

    def test_solves_match_pinned_digests(self, monkeypatch):
        # the pins are taken from solves that run (memo misses), then a memo
        # hit of each cold case is checked against the same pin
        bleto.solver._cold_memo.clear()
        runs = count_uncached_solves(monkeypatch)
        cold = solve(coarse_problem(x0=(30.0, 70.0, 1.0), **self.COARSE))
        warm_kw = dict(self.COARSE, iteration_cap=60)
        warm = cold
        for _ in range(self.WARM_LINK):
            warm = solve(coarse_problem(x0=warm.states[1], **warm_kw),
                         warm_start=shift_warm_start(warm))
        fine = solve(fine_problem())
        digests = {"cold": solve_digest(cold), "warm": solve_digest(warm),
                   "fine": solve_digest(fine)}
        assert digests == {name: self.DIGESTS[name] for name in digests}
        assert len(runs) == self.WARM_LINK + 2
        # every case runs the line search
        for traj in (cold, warm, fine):
            assert traj.diagnostics.iterations > 0
            assert traj.diagnostics.line_search_failures == 0
        assert cold.diagnostics.converged
        assert cold.ergodic_cost < 0.05 * cold.diagnostics.initial_cost
        assert warm.diagnostics.iterations == warm_kw["iteration_cap"]
        hits = {"cold": solve(coarse_problem(x0=(30.0, 70.0, 1.0), **self.COARSE)),
                "fine": solve(fine_problem())}
        assert len(runs) == self.WARM_LINK + 2
        assert {name: solve_digest(t) for name, t in hits.items()} == {
            name: self.DIGESTS[name] for name in hits}

    def test_solves_that_reuse_their_evaluations_match_pinned_digests(self):
        # a converged plan re-solved from itself stops before its first step
        problem = coarse_problem(x0=(30.0, 70.0, 1.0), **self.COARSE)
        settled = solve(problem, warm_start=solve(problem))
        assert settled.diagnostics.iterations == 0 and settled.diagnostics.converged
        # from a corner, the cold guess and the plan after 5 steps both
        # leave the workspace, and both are clamped back
        corner = coarse_problem(x0=(1.0, 1.0, -2.3), **dict(self.COARSE, iteration_cap=5))
        clamped = solve(corner)
        guess_states, guess_controls = default_initial_guess(corner)
        assert not corner.workspace.contains(guess_states[:, :2]).all()
        assert corner.workspace.contains(clamped.states[:, :2]).all()
        assert not np.array_equal(clamped.controls, guess_controls)
        assert not clamped.diagnostics.converged
        # a warm start that drives out of the workspace, read at its clamped
        # states, beats the plan that 10 steps pull back inside
        wall = coarse_problem(x0=(5.0, 25.0, 2.9), **dict(self.COARSE, iteration_cap=10))
        warm = Trajectory(states=np.zeros((wall.horizon, 3)),
                          controls=np.tile((0.08, 0.0), (wall.horizon, 1)))
        returned = solve(wall, warm_start=warm)
        assert returned.diagnostics.iterations == 10
        assert np.array_equal(returned.controls, warm.controls)
        assert not wall.workspace.contains(
            rollout(wall.model, wall.initial_state, warm.controls, wall.dt)[:, :2]).all()
        assert not returned.diagnostics.converged
        digests = {"settled": solve_digest(settled), "clamped": solve_digest(clamped),
                   "returned": solve_digest(returned)}
        assert digests == {name: self.DIGESTS[name] for name in digests}

    def test_a_solve_that_takes_no_step_rolls_out_and_costs_once(self, monkeypatch):
        calls = {"rollout": 0, "cost": 0}
        real_rollout, real_cost = UnicycleModel.rollout, bleto.solver.CoverageCost

        def counting_rollout(model, *args):
            calls["rollout"] += 1
            return real_rollout(model, *args)

        def counting_cost(*args, **kwargs):
            calls["cost"] += 1
            return real_cost(*args, **kwargs)

        problem = coarse_problem(x0=(30.0, 70.0, 1.0), **self.COARSE)
        cold = solve(problem)
        monkeypatch.setattr(UnicycleModel, "rollout", counting_rollout)
        monkeypatch.setattr(bleto.solver, "CoverageCost", counting_cost)
        settled = solve(problem, warm_start=cold)
        assert settled.diagnostics.iterations == 0
        assert calls == {"rollout": 1, "cost": 1}


class TestLineSearchFailure:
    def test_failed_searches_end_the_solve_and_return_the_guess(self, monkeypatch):
        # a sufficient-decrease constant no trial can meet: every line search
        # fails, the third in a row ends the solve, and the untouched guess
        # is returned unconverged
        monkeypatch.setattr(bleto.solver, "_ARMIJO", 1e12)
        prob = fine_problem()
        traj = bleto.solver._solve_uncached(prob, None)
        d = traj.diagnostics
        assert (d.iterations, d.line_search_failures, d.converged) == (3, 3, False)
        guess_states, guess_controls = default_initial_guess(prob)
        assert np.array_equal(traj.controls, guess_controls)
        assert np.array_equal(traj.states, guess_states)


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
    solver's sizes (10 entries for the default fine problem, 96 for the
    default coarse one)."""

    SIZES = (1, 2, 10, 33, 96, 400)

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
        # the fine problem's size, 10 variables, with the solver's 15 pairs
        rng = np.random.default_rng(63)
        lbfgs = _CompactLbfgs(10, _LBFGS_MEMORY)
        kept = deque(maxlen=_LBFGS_MEMORY)
        for k, pair in enumerate(curvature_pairs(rng, 10, 200)):
            if k % 37 == 36:
                lbfgs.clear()
                kept.clear()
                self.assert_matches(lbfgs, kept, rng, 10)
            lbfgs.append(*pair)
            kept.append(pair)
            self.assert_matches(lbfgs, kept, rng, 10)


class TestLeanForms:
    """The inner loop's call-saving forms give the floats of the forms
    they replaced, on random inputs of the solver's sizes (10 entries for
    the default fine problem, 96 for the default coarse one)."""

    SIZES = (1, 2, 10, 33, 96, 400)

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
        # the solver's bounds: the control boxes, once per step; a speed box
        # starting at zero makes signed-zero ties
        bounds = ControlBounds((0.0, -0.5), (0.3, 0.5))
        lower, upper = np.tile(bounds.lower, 12), np.tile(bounds.upper, 12)
        rng = np.random.default_rng(62)
        special = np.array([0.0, -0.0, 0.3, -0.5, 0.5, np.inf, -np.inf, np.nan])
        for _ in range(500):
            x = rng.normal(size=lower.size) * 10.0 ** rng.uniform(-3, 1)
            pick = rng.random(x.size) < 0.3
            x[pick] = rng.choice(special, pick.sum())
            got, expect = x.clip(lower, upper), np.clip(x, lower, upper)
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))
