import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bleto.dynamics import (ControlBounds, SingleIntegratorModel,
                            UnicycleModel, rollout)
from oracles import reference_rollout


class TestUnicycleStep:
    # the mission steps its pose, a plain (x, y, heading) tuple
    def test_zero_control_fixed_point(self):
        s = (3.0, 4.0, 0.7)
        assert np.array_equal(UnicycleModel().step(s, (0.0, 0.0), 0.5), s)

    def test_straight_line(self):
        s = UnicycleModel().step((0.0, 0.0, 0.0), (1.0, 0.0), 0.5)
        assert np.array_equal(s, (0.5, 0.0, 0.0))

    def test_constant_turn_traces_circle(self):
        # closed form of the Euler polygon: partial geometric sums of
        # dt*v*exp(i*w*dt*t); its vertices lie on a circle of radius
        # dt*v / (2 sin(w dt / 2)) ~ v/w, here 10.0000417 m
        dt, v, w = 0.1, 1.0, 0.1
        model = UnicycleModel()
        states = rollout(model, np.zeros(3), np.tile([v, w], (101, 1)), dt)
        n = 100
        rot = np.exp(1j * w * dt * np.arange(n))
        expect = dt * v * np.cumsum(rot)
        assert abs(complex(states[-1, 0], states[-1, 1]) - expect[-1]) < 1e-9
        radius = dt * v / (2 * np.sin(w * dt / 2))
        center = -dt * v / (np.exp(1j * w * dt) - 1.0)
        dist = abs(complex(states[-1, 0], states[-1, 1]) - center)
        assert abs(dist - radius) < 1e-9
        assert abs(radius - 10.0) < 1e-2

    def test_euler_first_order_against_rk4(self):
        # endpoint error vs an RK4 oracle halves with dt (order one)
        def rk4_endpoint(dt, steps, v=1.0, w=0.4):
            def f(s):
                return np.array([v * np.cos(s[2]), v * np.sin(s[2]), w])
            s = np.zeros(3)
            for _ in range(steps):
                k1 = f(s)
                k2 = f(s + dt / 2 * k1)
                k3 = f(s + dt / 2 * k2)
                k4 = f(s + dt * k3)
                s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            return s

        model = UnicycleModel()
        errs = []
        for dt, steps in ((0.2, 50), (0.1, 100), (0.05, 200)):
            states = rollout(model, np.zeros(3),
                             np.tile([1.0, 0.4], (steps + 1, 1)), dt)
            euler_end = model.step(states[-1], [1.0, 0.4], dt)
            oracle = rk4_endpoint(dt, steps + 1)
            errs.append(np.linalg.norm(euler_end[:2] - oracle[:2]))
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.12)
        assert errs[2] / errs[1] == pytest.approx(0.5, abs=0.12)


class TestIntegratorStep:
    def test_zero_control(self):
        s = (0.4, -0.2)
        assert np.array_equal(SingleIntegratorModel().step(s, (0.0, 0.0), 1.0), s)

    def test_single_step(self):
        s = SingleIntegratorModel().step((0.0, 0.0), (0.2, -0.1), 1.0)
        assert np.array_equal(s, (0.2, -0.1))


class TestRollout:
    def test_first_state_is_initial(self):
        model = SingleIntegratorModel()
        states = rollout(model, np.array([1.0, 2.0]), np.ones((5, 2)), 0.5)
        assert np.allclose(states[0], [1.0, 2.0])
        assert states.shape == (5, 2)

    def test_recursive_application(self):
        model = UnicycleModel()
        rng = np.random.default_rng(0)
        controls = rng.uniform(-0.3, 0.3, (8, 2))
        states = rollout(model, np.array([5.0, 6.0, 0.3]), controls, 1.0)
        for t in range(7):
            assert np.allclose(states[t + 1],
                               model.step(states[t], controls[t], 1.0))

    def test_last_control_unused(self):
        model = SingleIntegratorModel()
        controls = np.ones((4, 2))
        controls[-1] = 1e9  # must not affect anything visible
        states = rollout(model, np.zeros(2), controls, 1.0)
        assert np.allclose(states[-1], [3.0, 3.0])


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def rollout_case(draw):
    """(model, start, controls, dt): random starts, controls of 1 to 60
    steps and step times, each entry from zero and tiny to 1e6."""
    model = draw(st.sampled_from([UnicycleModel(), SingleIntegratorModel()]))
    value = st.floats(-1e6, 1e6, allow_nan=False)
    start = draw(arrays(np.float64, model.state_dim, elements=value))
    steps = draw(st.integers(1, 60))
    controls = draw(arrays(np.float64, (steps, model.control_dim), elements=value))
    dt = draw(st.floats(1e-6, 1e3))
    return model, start, controls, dt


class TestClosedFormRollout:
    """Each model's loop-free ``rollout`` gives the bits of stepping
    ``step`` once per transition (``oracles.reference_rollout``)."""

    @settings(max_examples=300, deadline=None)
    @given(rollout_case())
    def test_bit_equal_to_the_step_loop(self, case):
        model, start, controls, dt = case
        got = rollout(model, start, controls, dt)
        assert np.array_equal(bits(got), bits(reference_rollout(model, start, controls, dt)))

    @pytest.mark.parametrize("model", [UnicycleModel(), SingleIntegratorModel()],
                             ids=["unicycle", "integrator"])
    def test_bit_equal_at_the_planners_sizes(self, model):
        # the body's 48-step plans at 15 s, the camera's 5-step sweeps at 0.4 s
        rng = np.random.default_rng(70)
        for steps, dt, box in ((48, 15.0, (0.3, 0.5)), (5, 0.4, (0.6, 0.6))):
            for _ in range(200):
                start = rng.uniform(-3.0, 100.0, model.state_dim)
                controls = rng.uniform(-1.0, 1.0, (steps, model.control_dim)) * box
                got = rollout(model, start, controls, dt)
                assert np.array_equal(
                    bits(got), bits(reference_rollout(model, start, controls, dt)))


class TestVjp:
    """Each model's vector–Jacobian product gives the floats of the
    ``einsum`` over its ``jacobians``, signed zeros aside."""

    @pytest.mark.parametrize("model", [UnicycleModel(), SingleIntegratorModel()],
                             ids=["unicycle", "integrator"])
    def test_vjp_matches_einsum_over_jacobians(self, model):
        rng = np.random.default_rng(8)
        zeros = np.array([0.0, -0.0])
        for T in (1, 4, 47):
            for _ in range(200):
                # views of larger arrays, as the solver passes them, with
                # a share of entries +0 or -0 in states, controls and r
                states = rng.normal(size=(T + 1, model.state_dim)) * 10.0
                controls = rng.normal(size=(T + 1, model.control_dim))
                r = rng.normal(size=(T, model.state_dim)) * 10.0 ** rng.uniform(-5, 3)
                for a in (states, controls, r):
                    pick = rng.random(a.shape) < 0.3
                    a[pick] = rng.choice(zeros, pick.sum())
                dt = float(10.0 ** rng.uniform(-2, 2))
                A, B = model.jacobians(states[:-1], controls[:-1], dt)
                got = model.vjp(states[:-1], controls[:-1], dt, r)
                expect = (np.einsum("tij,ti->tj", A, r), np.einsum("tij,ti->tj", B, r))
                for g, e in zip(got, expect):
                    assert np.array_equal(g, e)


class TestControlBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlBounds((0.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            ControlBounds((-1.0,), (1.0, 1.0))

    def test_clip(self):
        b = ControlBounds((-0.3, -0.5), (0.3, 0.5))
        u = np.array([[1.0, -2.0], [0.1, 0.2]])
        out = b.clip(u)
        assert np.allclose(out, [[0.3, -0.5], [0.1, 0.2]])


class TestWorkspaceMaps:
    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for model in (UnicycleModel(), SingleIntegratorModel()):
            n, m = model.state_dim, model.control_dim
            x = rng.normal(size=n)
            u = rng.normal(size=m)
            A, B = model.jacobians(x[None, :], u[None, :], 0.7)
            eps = 1e-7
            for i in range(n):
                dx = np.zeros(n)
                dx[i] = eps
                fd = (model.step(x + dx, u, 0.7) - model.step(x - dx, u, 0.7)) / (2 * eps)
                assert np.allclose(A[0][:, i], fd, atol=1e-6)
            for i in range(m):
                du = np.zeros(m)
                du[i] = eps
                fd = (model.step(x, u + du, 0.7) - model.step(x, u - du, 0.7)) / (2 * eps)
                assert np.allclose(B[0][:, i], fd, atol=1e-6)


def reference_unicycle_jacobians(states, controls, dt):
    """``UnicycleModel.jacobians`` as it was: sin and cos of the heading
    taken twice each, the identity broadcast from ``np.eye``."""
    states = np.atleast_2d(states)
    controls = np.atleast_2d(controls)
    T = states.shape[0]
    h = states[:, 2]
    v = controls[:, 0]
    A = np.empty((T, 3, 3))
    A[:] = np.eye(3)
    A[:, 0, 2] = -dt * v * np.sin(h)
    A[:, 1, 2] = dt * v * np.cos(h)
    B = np.zeros((T, 3, 2))
    B[:, 0, 0] = dt * np.cos(h)
    B[:, 1, 0] = dt * np.sin(h)
    B[:, 2, 1] = dt
    return A, B


def reference_unicycle_step_batch(states, controls, dt):
    """``UnicycleModel.step_batch`` as it was: ``dt * v`` formed twice."""
    h = states[:, 2]
    v = controls[:, 0]
    out = np.empty_like(states)
    out[:, 0] = states[:, 0] + dt * v * np.cos(h)
    out[:, 1] = states[:, 1] + dt * v * np.sin(h)
    out[:, 2] = h + dt * controls[:, 1]
    return out


def reference_integrator_jacobians(states, controls, dt):
    """``SingleIntegratorModel.jacobians`` as it was, from ``np.eye``."""
    T = np.atleast_2d(states).shape[0]
    A = np.empty((T, 2, 2))
    A[:] = np.eye(2)
    B = np.empty((T, 2, 2))
    B[:] = dt * np.eye(2)
    return A, B


class TestBatchedForms:
    """The models' batched steps and Jacobians match their earlier forms
    to the bit."""

    def test_unicycle_step_batch_matches_reference(self):
        rng = np.random.default_rng(6)
        model = UnicycleModel()
        for T in (1, 4, 47):
            for _ in range(100):
                states = rng.normal(size=(T + 1, 3)) * 10.0
                controls = rng.normal(size=(T + 1, 2))
                dt = float(10.0 ** rng.uniform(-2, 2))
                got = model.step_batch(states[:-1], controls[:-1], dt)
                expect = reference_unicycle_step_batch(states[:-1], controls[:-1], dt)
                assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    @pytest.mark.parametrize("model,reference", [
        (UnicycleModel(), reference_unicycle_jacobians),
        (SingleIntegratorModel(), reference_integrator_jacobians),
    ])
    def test_jacobians_match_reference(self, model, reference):
        rng = np.random.default_rng(5)
        for T in (1, 4, 47):
            for _ in range(100):
                # views of a larger array, as the solver passes them
                states = rng.normal(size=(T + 1, model.state_dim)) * 10.0
                controls = rng.normal(size=(T + 1, model.control_dim))
                dt = float(10.0 ** rng.uniform(-2, 2))
                got = model.jacobians(states[:-1], controls[:-1], dt)
                expect = reference(states[:-1], controls[:-1], dt)
                for g, e in zip(got, expect):
                    assert np.array_equal(g.view(np.int64), e.view(np.int64))
        # one state given as a 1-D vector
        x, u = states[0], controls[0]
        for g, e in zip(model.jacobians(x, u, dt), reference(x, u, dt)):
            assert np.array_equal(g, e)
