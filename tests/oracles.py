"""Reference implementations the tests compare the library against.

They are written for clarity, not speed, and nothing in ``src/`` calls
them.
"""

import numpy as np


def trajectory_coefficients(basis, points):
    """Time-averaged basis values c_k = (1/T) sum_t F_k(w_t)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("trajectory must contain at least one point")
    return basis.eval_points(pts).mean(axis=1)


def mode_index(basis, k):
    """Flat index of an integer mode vector (row-major in the basis's
    mode grid)."""
    k = tuple(int(i) for i in np.atleast_1d(k))
    idx = 0
    for ki, mi in zip(k, basis.modes_per_axis):
        if not 0 <= ki < mi:
            raise ValueError(f"mode {k} not in basis")
        idx = idx * mi + ki
    return idx


def frequencies(basis):
    """omega_{k,i} = k_i pi / L_i, one (nK, 2) row per mode."""
    return basis.modes * np.pi / basis.workspace.lengths


def product_form_values(basis, points):
    """prod_i cos(omega_{k,i} w_i) / h_k over every (mode, point, axis)."""
    rel = np.atleast_2d(points) - basis.workspace.lows
    phases = frequencies(basis)[:, None, :] * rel[None, :, :]
    return np.prod(np.cos(phases), axis=2) / basis.normalizers[:, None]


def product_form_gradients(basis, points):
    """Spatial gradients: -omega_i sin_i times the other axes' cosines."""
    omega = frequencies(basis)
    rel = np.atleast_2d(points) - basis.workspace.lows
    phases = omega[:, None, :] * rel[None, :, :]
    cos = np.cos(phases)
    sin = np.sin(phases)
    grads = np.empty(cos.shape)
    for i in range(2):
        others = np.prod(np.delete(cos, i, axis=2), axis=2)
        grads[:, :, i] = -omega[:, i:i + 1] * sin[:, :, i] * others
    grads /= basis.normalizers[:, None, None]
    return grads


def product_form_coverage(basis, points, target_coefficients, weight=1.0):
    """Coefficients, cost and ``weight`` times the cost gradient of a point
    sequence, summed over the full (mode, point) product-form arrays."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    T = pts.shape[0]
    c = product_form_values(basis, pts).sum(axis=1) / T
    r = c - target_coefficients
    coeff = weight * 2.0 * basis.weights * r / T
    grad = np.einsum("k,ktv->tv", coeff, product_form_gradients(basis, pts))
    return c, float(np.sum(basis.weights * r * r)), grad


def reference_two_loop(g, pairs):
    """The L-BFGS inverse-Hessian product H g by the two-loop recursion
    over ``pairs`` of (s, y, 1/sᵀy), oldest first, with the scaling
    γ = sᵀy/yᵀy of the newest pair; g itself when there is no pair."""
    q = np.array(g)
    alphas = []
    for s, y, rho_i in reversed(pairs):
        a = rho_i * s.dot(q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= s.dot(y) / y.dot(y)
    for (s, y, rho_i), a in zip(pairs, reversed(alphas)):
        b = rho_i * y.dot(q)
        q += (a - b) * s
    return q


def reference_rollout(model, initial_state, controls, dt):
    """States x_0..x_{T-1} of T controls by stepping ``model.step`` once
    per transition: the loop ``dynamics.rollout`` replaced."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    states = np.empty((controls.shape[0], model.state_dim))
    states[0] = np.asarray(initial_state, dtype=float)
    for t in range(controls.shape[0] - 1):
        states[t + 1] = model.step(states[t], controls[t], dt)
    return states
