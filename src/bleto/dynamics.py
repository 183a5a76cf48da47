"""Motion models for the body (unicycle) and the camera (single integrator).

Models operate on plain state vectors (numpy arrays or tuples) so the
trajectory optimizer and the mission loop can use them directly; a state's
first two coordinates are its position.  All functions are pure and
thread-safe.
"""

import numpy as np

__all__ = [
    "ControlBounds",
    "UnicycleModel",
    "SingleIntegratorModel",
    "rollout",
]


class ControlBounds:
    """Per-channel control box."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape or np.any(self.lower >= self.upper):
            raise ValueError("need lower < upper per control channel")

    def clip(self, controls):
        return np.clip(controls, self.lower, self.upper)


class UnicycleModel:
    """Planar unicycle; state (x, y, heading), control (v, omega).

    One step is the exact Euler map of the continuous kinematics:
    x' = x + dt v cos(h), y' = y + dt v sin(h), h' = h + dt w.
    """

    state_dim = 3
    control_dim = 2

    def step(self, state, control, dt):
        x, y, h = state
        v, w = control
        return np.array([x + dt * v * np.cos(h), y + dt * v * np.sin(h), h + dt * w])

    def step_batch(self, states, controls, dt):
        h = states[:, 2]
        v = controls[:, 0]
        dt_v = dt * v
        out = np.empty_like(states)
        out[:, 0] = states[:, 0] + dt_v * np.cos(h)
        out[:, 1] = states[:, 1] + dt_v * np.sin(h)
        out[:, 2] = h + dt * controls[:, 1]
        return out

    def jacobians(self, states, controls, dt):
        """Batched d(step)/dx and d(step)/du, shapes (T, 3, 3) and (T, 3, 2)."""
        states = np.atleast_2d(states)
        controls = np.atleast_2d(controls)
        T = states.shape[0]
        h = states[:, 2]
        v = controls[:, 0]
        sin_h, cos_h = np.sin(h), np.cos(h)
        A = np.zeros((T, 3, 3))
        A.reshape(T, 9)[:, ::4] = 1.0  # the identity: entries (0,0), (1,1), (2,2)
        A[:, 0, 2] = -dt * v * sin_h
        A[:, 1, 2] = dt * v * cos_h
        B = np.zeros((T, 3, 2))
        B[:, 0, 0] = dt * cos_h
        B[:, 1, 0] = dt * sin_h
        B[:, 2, 1] = dt
        return A, B

    def vjp(self, states, controls, dt, r):
        """(Aᵀr, Bᵀr) for the Jacobians A, B of ``jacobians`` and one
        cotangent row r_t per step, without forming A or B."""
        h = states[:, 2]
        sin_h, cos_h = np.sin(h), np.cos(h)
        dt_v = dt * controls[:, 0]
        g_x = r.copy()
        g_x[:, 2] += dt_v * cos_h * r[:, 1] - dt_v * sin_h * r[:, 0]
        g_u = np.stack((dt * cos_h * r[:, 0] + dt * sin_h * r[:, 1], dt * r[:, 2]), axis=1)
        return g_x, g_u

    def rollout(self, first, controls, dt):
        """States x_0..x_T from x_0 = ``first`` through the T ``controls``.
        Each coordinate of ``step`` is a running sum, so each is one
        ``cumsum`` of the same terms in the same order: the headings of
        h_0 and dt·w, then the positions of x_0 and (dt·v)·cos h, y_0 and
        (dt·v)·sin h."""
        heading = np.cumsum(np.concatenate(([first[2]], dt * controls[:, 1])))
        h = heading[:-1]
        dt_v = dt * controls[:, 0]
        states = np.empty((heading.size, 3))
        states[:, 0] = np.cumsum(np.concatenate(([first[0]], dt_v * np.cos(h))))
        states[:, 1] = np.cumsum(np.concatenate(([first[1]], dt_v * np.sin(h))))
        states[:, 2] = heading
        return states


class SingleIntegratorModel:
    """First-order point; state and control share the workspace coordinates."""

    state_dim = 2
    control_dim = 2

    def step(self, state, control, dt):
        return np.asarray(state, dtype=float) + dt * np.asarray(control, dtype=float)

    def step_batch(self, states, controls, dt):
        return states + dt * controls

    def jacobians(self, states, controls, dt):
        T = np.atleast_2d(states).shape[0]
        A = np.zeros((T, 2, 2))
        A.reshape(T, 4)[:, ::3] = 1.0  # entries (0,0) and (1,1)
        B = np.zeros((T, 2, 2))
        B.reshape(T, 4)[:, ::3] = dt
        return A, B

    def vjp(self, states, controls, dt, r):
        """(Aᵀr, Bᵀr) with A = I and B = dt I."""
        return r.copy(), dt * r

    def rollout(self, first, controls, dt):
        """States x_0..x_T from x_0 = ``first`` through the T ``controls``:
        the running sums of x_0 and dt·u, added in ``step``'s order."""
        return np.cumsum(np.concatenate((first[None], dt * controls)), axis=0)


def rollout(model, initial_state, controls, dt):
    """States x_0..x_{T-1} from x_0 = initial_state and x_{t+1} = f(x_t, u_t).

    Returns exactly T = len(controls) states, so the final control only
    enters through the control cost, never through a visible transition.
    Each model's ``rollout`` forms them without a loop, bit for bit the
    states of stepping ``step`` T - 1 times.
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if controls.shape[0] < 1:
        raise ValueError("need at least one control")
    first = np.empty(model.state_dim)
    first[:] = np.asarray(initial_state, dtype=float)
    return model.rollout(first, controls[:-1], dt)
