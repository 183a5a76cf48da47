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

    def control_gradient(self, terms, controls, dt, g):
        """The gradient of Σ_t g_t·x_t with respect to every control, for
        the states x_0..x_{T-1} that ``rollout`` forms from ``controls``
        u_0..u_{T-1}, the (T, 3) ``g`` the gradient with respect to each
        state and ``terms`` the (cos h, sin h, dt·v) of the steps that the
        model's ``rollout`` returns beside the states.  One adjoint pass:
        with the costates λ_t = g_t + A_tᵀλ_{t+1} of the Jacobians A, B of
        ``jacobians``, the row for u_t is B_tᵀλ_{t+1}, and the last row, of
        a control that moves no state, is zero.  The position costates are
        running sums of g from the end, and the heading's a running sum of
        g's heading entries plus each step's turn of the position costates,
        so no loop runs over time."""
        cos_h, sin_h, dt_v = terms
        # λ_{t+1} of the positions, for t = 0..T-2
        lam = np.cumsum(g[:0:-1, :2], axis=0)[::-1]
        turn = g[1:, 2].copy()
        turn[:-1] += dt_v[1:] * (cos_h[1:] * lam[1:, 1] - sin_h[1:] * lam[1:, 0])
        out = np.zeros(controls.shape)
        out[:-1, 0] = dt * (cos_h * lam[:, 0] + sin_h * lam[:, 1])
        out[:-1, 1] = dt * np.cumsum(turn[::-1])[::-1]
        return out

    def rollout(self, first, controls, dt):
        """States x_0..x_T from x_0 = ``first`` through the T ``controls``,
        and the (cos h, sin h, dt·v) of each step, which
        ``control_gradient`` reads.  Each coordinate of ``step`` is a
        running sum, so each is one ``cumsum`` of the same terms in the same
        order: the headings of h_0 and dt·w, then the positions of x_0 and
        (dt·v)·cos h, y_0 and (dt·v)·sin h."""
        heading = np.cumsum(np.concatenate(([first[2]], dt * controls[:, 1])))
        h = heading[:-1]
        cos_h, sin_h, dt_v = np.cos(h), np.sin(h), dt * controls[:, 0]
        states = np.empty((heading.size, 3))
        states[:, 0] = np.cumsum(np.concatenate(([first[0]], dt_v * cos_h)))
        states[:, 1] = np.cumsum(np.concatenate(([first[1]], dt_v * sin_h)))
        states[:, 2] = heading
        return states, (cos_h, sin_h, dt_v)


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

    def control_gradient(self, terms, controls, dt, g):
        """The gradient of Σ_t g_t·x_t with respect to every control, as
        ``UnicycleModel.control_gradient``: with A = I and B = dt I, the
        row for u_t is dt times the running sum of g_{t+1}..g_{T-1}, and
        the last row is zero; the rollout's ``terms`` are none."""
        out = np.zeros(controls.shape)
        out[:-1] = dt * np.cumsum(g[:0:-1], axis=0)[::-1]
        return out

    def rollout(self, first, controls, dt):
        """States x_0..x_T from x_0 = ``first`` through the T ``controls``,
        the running sums of x_0 and dt·u added in ``step``'s order, and no
        terms for ``control_gradient``."""
        return np.cumsum(np.concatenate((first[None], dt * controls)), axis=0), ()


def rollout(model, initial_state, controls, dt):
    """States x_0..x_{T-1} from x_0 = initial_state and x_{t+1} = f(x_t, u_t).

    Returns exactly T = len(controls) states, so the final control only
    enters through the control cost, never through a visible transition.
    Each model's ``rollout`` forms them without a loop, bit for bit the
    states of stepping ``step`` T - 1 times.  The solver calls the model's
    ``rollout`` itself, with the checks and the copy of x_0 done once per
    solve, and keeps its terms for the gradient.
    """
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if controls.shape[0] < 1:
        raise ValueError("need at least one control")
    first = np.empty(model.state_dim)
    first[:] = np.asarray(initial_state, dtype=float)
    return model.rollout(first, controls[:-1], dt)[0]
