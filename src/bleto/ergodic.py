"""Cosine-basis spectral machinery for coverage objectives.

The coverage error of a trajectory against a target density is measured in
a truncated cosine Fourier basis over a planar rectangular workspace: the basis is
unit-normalized in L2, every mode carries a Sobolev-style weight, and the
metric is the weighted squared distance between the trajectory's
time-averaged basis values and the density's basis coefficients.  Because
the basis is smooth, the metric is differentiable with respect to the
trajectory, which is what the trajectory optimizer needs.

``CoverageCost`` is the one place that turns trajectory points into that
cost: it builds the per-axis basis tables of the points once, contracts
them into the trajectory's coefficients, and from the same tables finishes
the gradient with respect to every point on demand.  The solver's
objective (``solver._Objective``) and the costs a solve reports both go
through it.

Everything in this module is a pure function of immutable inputs and is
safe to call concurrently from multiple threads.
"""

import numpy as np

__all__ = [
    "OutsideWorkspaceError",
    "Workspace",
    "FourierBasis",
    "map_coefficients",
    "ergodic_metric",
    "CoverageCost",
]

_NORMALIZATION_TOL = 1e-6  # largest |mass - 1| of a map ``map_coefficients`` takes
_INSIDE_SLACK = 1e-12  # rounding past a bound that ``require_inside`` forgives


class OutsideWorkspaceError(ValueError):
    """A query point lies outside the rectangular exploration domain."""


class Workspace:
    """Axis-aligned rectangle: a point w is inside iff 0 <= w_i - low_i <= L_i.

    Both levels plan on a plane, the body's (x, y) and the camera's (yaw,
    pitch), so this is the one place that requires exactly two axes.  The
    per-axis offset ``lows`` lets angular domains with negative bounds
    (e.g. yaw in [-135 deg, +135 deg]) reuse the cosine basis, which is
    defined on [0, L_i] in internal coordinates.
    """

    def __init__(self, lengths, lows=None):
        self.lengths = np.array(lengths, dtype=float)
        if self.lengths.shape != (2,):
            raise ValueError("a workspace is planar: lengths needs exactly two axes")
        if not np.all(np.isfinite(self.lengths) & (self.lengths > 0.0)):
            raise ValueError("every axis length must be positive and finite")
        self.lows = np.zeros(2) if lows is None else np.array(lows, dtype=float)
        if self.lows.shape != (2,):
            raise ValueError("lows must match lengths per axis")
        if not np.all(np.isfinite(self.lows)):
            raise ValueError("every axis low must be finite")
        self.highs = self.lows + self.lengths
        for arr in (self.lengths, self.lows, self.highs):
            arr.flags.writeable = False

    def area(self):
        return float(np.prod(self.lengths))

    def uniform_level(self):
        """Density of the uniform unit-mass distribution on the box."""
        return 1.0 / self.area()

    def to_local(self, points):
        return np.asarray(points, dtype=float) - self.lows

    def contains(self, points, slack=0.0):
        rel = self.to_local(points)
        return np.all((rel >= -slack) & (rel <= self.lengths + slack), axis=-1)

    def require_inside(self, points, what="point"):
        if not np.all(self.contains(points, slack=_INSIDE_SLACK)):
            raise OutsideWorkspaceError(
                f"{what} outside workspace (lows={self.lows.tolist()}, "
                f"lengths={self.lengths.tolist()})"
            )

    def clamp(self, points):
        pts = np.asarray(points, dtype=float)
        return np.clip(pts, self.lows, self.highs)

    def __repr__(self):
        return f"Workspace(lengths={self.lengths.tolist()}, lows={self.lows.tolist()})"


class FourierBasis:
    """All integer modes (k_0, k_1) with 0 <= k_i < ``modes`` on a planar
    workspace: the body's (x, y) or the mast camera's (yaw, pitch).  Both
    axes take the same number of modes; ``modes_per_axis`` is that number
    once per axis.

    Per mode the basis function, its weight and its normalizer are

        F_k(w)   = cos(ω_{k,0} (w_0 - low_0)) cos(ω_{k,1} (w_1 - low_1)) / h_k
        ω_{k,i}  = k_i pi / L_i
        weight_k = (1 + k_0^2 + k_1^2) ** (-3/2)
        h_k      = sqrt(l_0 l_1),  l_i = L_i if k_i == 0 else L_i / 2

    so that the L2 norm of every F_k over the workspace is exactly one.
    Mode order is row-major in (k_0, k_1).

    Every F_k is a product of one cosine per axis, so the reference form of
    anything summed over modes and points is a per-axis contraction:
    ``point_tables`` takes (m_0 + m_1)·T cosines, the two axes' (m, T)
    tables stacked as one (2, m, T) array, so that one call builds each
    table for both axes; ``CoverageCost`` and ``map_coefficients`` contract
    the per-axis tables with matrix products, never forming one entry per
    mode and point.  Reassociating any of those sums changes the bits of every
    mission (``solver``'s bit-for-bit rule).  ``eval_points`` and
    ``eval_points_with_gradient`` still form each value or gradient entry
    as one product of two table entries divided by h_k last, the
    floating-point order of the product above.
    """

    def __init__(self, workspace, modes):
        self.workspace = workspace
        if modes < 1:
            raise ValueError("modes must be at least 1")
        self.modes_per_axis = (int(modes),) * 2

        self.modes = np.indices(self.modes_per_axis).reshape(2, -1).T  # (nK, 2)
        ksq = np.sum(self.modes**2, axis=1)
        self.weights = (1.0 + ksq) ** -1.5
        ell = np.where(self.modes == 0, workspace.lengths, workspace.lengths / 2.0)
        self.normalizers = np.sqrt(np.prod(ell, axis=1))
        # what the table paths would otherwise rebuild on every call: the
        # frequencies ω_{k,i} and their negatives as a (2, m, 1) stack of
        # one (m, 1) column per axis, the axis lows as a (2, 1) column, and
        # the normalizers as divisors of the (nK, T) values and (nK, T, 2)
        # gradients of the ``eval_points`` paths
        omega = np.arange(self.modes_per_axis[0]) * np.pi / workspace.lengths[:, None]
        self._frequencies = omega[:, :, None]
        self._neg_frequencies = -self._frequencies
        self._lows = workspace.lows[:, None]
        self._value_normalizers = self.normalizers[:, None]
        self._gradient_normalizers = self.normalizers[:, None, None]
        # weight_k / h_k on the (m_0, m_1) mode grid: the per-mode factor of
        # the coverage gradient (``CoverageCost.gradient``)
        self._mode_gains = (self.weights / self.normalizers).reshape(self.modes_per_axis)
        for arr in (self.modes, self.weights, self.normalizers, self._mode_gains,
                    self._frequencies, self._neg_frequencies):
            arr.flags.writeable = False

    def __len__(self):
        return self.modes.shape[0]

    # ---- vectorized paths used by the metric and the solver ----

    def point_tables(self, points, check=True):
        """The phase tables ω_{k,i} (w_i - low_i) of many points and their
        cosines, each a (2, m, T) stack of one (m, T) table per axis: the
        input of ``CoverageCost`` and of the ``eval_points`` paths.

        ``check=False`` skips the conversion and the containment test for
        callers that pass a (T, 2) float array; its points may lie outside
        the workspace, where the tables extend each cosine evenly about
        each face.
        """
        if check:
            points = np.atleast_2d(np.asarray(points, dtype=float))
            self.workspace.require_inside(points, what="trajectory point")
        phases = self._frequencies * (points.T - self._lows)[:, None]
        return phases, np.cos(phases)

    def _values(self, cx, cy):
        return (cx[:, None] * cy[None]).reshape(len(self), -1) / self._value_normalizers

    def eval_points(self, points):
        """Basis values at many points, shape (n_modes, n_points)."""
        return self._values(*self.point_tables(points)[1])

    def eval_points_with_gradient(self, points):
        """Values and spatial gradients, shapes (nK, T) and (nK, T, 2).

        dF_k/dw_0 = (-ω_{k,0} sin(ω_{k,0} w_0)) cos(ω_{k,1} w_1) / h_k, and
        dF_k/dw_1 = (-ω_{k,1} sin(ω_{k,1} w_1)) cos(ω_{k,0} w_0) / h_k
        """
        phases, (cx, cy) = self.point_tables(points)
        sx, sy = self._neg_frequencies * np.sin(phases)
        T = cx.shape[1]
        grads = np.empty(self.modes_per_axis + (T, 2))
        np.multiply(sx[:, None], cy[None], out=grads[..., 0])
        np.multiply(sy[None], cx[:, None], out=grads[..., 1])
        grads = grads.reshape(-1, T, 2)
        grads /= self._gradient_normalizers
        return self._values(cx, cy), grads

    def axis_cosines(self, axis_points):
        """Per-axis cosine tables for separable grid quadrature.

        axis_points is one 1-D array of workspace coordinates per axis;
        the result is one (modes_per_axis[i], len(axis_points[i])) table
        per axis, *without* the 1/h_k normalization (applied by callers).
        """
        return [np.cos(omega * (np.asarray(p, dtype=float) - low))
                for omega, p, low in zip(self._frequencies, axis_points, self.workspace.lows)]


def map_coefficients(basis, grid_map):
    """Basis coefficients of a normalized grid density via midpoint quadrature.

    Uses the map's own cells as quadrature nodes; separable cosine tables
    keep this cheap even for fine grids.
    """
    integral = grid_map.integral()
    if abs(integral - 1.0) > _NORMALIZATION_TOL:
        raise ValueError(f"map is not normalized (integral {integral!r})")
    cx, cy = basis.axis_cosines(grid_map.axis_centers())
    weighted = grid_map.density * grid_map.cell_area
    return (cx @ weighted @ cy.T).ravel() / basis.normalizers


def ergodic_metric(basis, coefficients, target_coefficients):
    """Weighted squared coefficient distance; zero iff the vectors agree."""
    c = np.asarray(coefficients, dtype=float)
    p = np.asarray(target_coefficients, dtype=float)
    if c.shape != (len(basis),) or p.shape != (len(basis),):
        raise ValueError("coefficient vectors must match the basis mode count")
    d = c - p
    return float(np.sum(basis.weights * d * d))


class CoverageCost:
    """Coverage cost of a point sequence against target coefficients.

        c_k = (1/T) sum_t F_k(w_t)         ``coefficients``
        r_k = c_k - phi_k                  ``residual``
        E   = sum_k weight_k r_k^2         ``cost``

    Every sum over modes and points is a per-axis contraction of the
    points' cosine and sine tables, the (m_0, T) and (m_1, T) arrays C_x,
    C_y, S_x, S_y; each pair is one (2, m, T) stack, the cosines from
    ``FourierBasis.point_tables`` and the sines from one ``np.sin`` of its
    phases in ``gradient``.  With modes on their
    (m_0, m_1) grid, c = (C_x C_y^T) / (h T), and ``gradient`` contracts
    the weighted residual W_ab = weight_ab r_ab / h_ab once per axis,

        dE/dx_t = (2/T) sum_a (-ω_a S_x[a, t]) (W C_y)[a, t]
        dE/dy_t = (2/T) sum_b (-ω_b S_y[b, t]) (W^T C_x)[b, t]

    so no (n_modes, T) value or (n_modes, T, 2) gradient array is formed.
    Construction builds the tables and the cost; ``gradient`` finishes
    dE/dw_t from them only when asked, as the solver's line search needs.
    ``check=False`` skips the conversion, the length check and the
    containment test for callers that pass a nonempty (T, 2) float array.
    Its points may lie outside the workspace: every mode is a product of
    cosines, even about each face, so the basis extends evenly beyond it
    and the cost and its gradient stay smooth across the faces (the
    solver's rolled-out trials cross them under its workspace penalty).
    ``divisors``, the h_k·T of ``coefficients``, lets a caller that builds
    many costs of one length pass them in, computed once.
    """

    __slots__ = ("basis", "horizon", "tables", "coefficients", "residual", "cost")

    def __init__(self, basis, points, target_coefficients, check=True, divisors=None):
        if check:
            points = np.atleast_2d(np.asarray(points, dtype=float))
            if points.shape[0] < 1:
                raise ValueError("trajectory must contain at least one point")
        self.basis = basis
        self.horizon = points.shape[0]
        self.tables = basis.point_tables(points, check)
        if divisors is None:
            divisors = basis.normalizers * self.horizon
        cx, cy = self.tables[1]
        self.coefficients = (cx @ cy.T).ravel() / divisors
        self.residual = self.coefficients - target_coefficients
        r = self.residual
        self.cost = float((basis.weights * r * r).sum())

    def gradient(self, weight=1.0):
        """``weight`` times dE/dw_t for every point, shape (T, 2)."""
        basis = self.basis
        phases, (cx, cy) = self.tables
        sx, sy = basis._neg_frequencies * np.sin(phases)
        W = (weight * 2.0 / self.horizon) * (
            basis._mode_gains * self.residual.reshape(basis.modes_per_axis))
        g = np.empty((self.horizon, 2))
        g[:, 0] = (sx * (W @ cy)).sum(axis=0)
        g[:, 1] = (sy * (W.T @ cx)).sum(axis=0)
        return g
