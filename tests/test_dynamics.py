import numpy as np
import pytest

from bleto.dynamics import (ControlBounds, SingleIntegratorModel,
                            UnicycleModel, rollout)


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


class TestControlBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlBounds((0.0, 0.0), (0.0, 1.0), 0.5)
        with pytest.raises(ValueError):
            ControlBounds((-1.0,), (1.0,), 0.0)

    def test_clip(self):
        b = ControlBounds((-0.3, -0.5), (0.3, 0.5), 0.45)
        u = np.array([[1.0, -2.0], [0.1, 0.2]])
        out = b.clip(u)
        assert np.allclose(out, [[0.3, -0.5], [0.1, 0.2]])


class TestWorkspaceMaps:
    def test_unicycle_projects_position(self):
        model = UnicycleModel()
        states = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, -1.0]])
        assert np.allclose(model.workspace_points(states), [[1, 2], [3, 4]])

    def test_integrator_is_identity(self):
        model = SingleIntegratorModel()
        states = np.array([[0.3, -0.2]])
        assert np.allclose(model.workspace_points(states), states)

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
