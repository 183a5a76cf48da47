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
