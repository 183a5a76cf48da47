import math

import numpy as np
import pytest

from bleto.ergodic import (CoverageCost, FourierBasis, OutsideWorkspaceError,
                           Workspace, ergodic_metric, map_coefficients)
from bleto.infomap import InfoMap, init_coarse
from oracles import (frequencies, mode_index, product_form_coverage,
                     product_form_gradients, product_form_values,
                     trajectory_coefficients)


def basis_value(basis, k_index, point):
    """Oracle: F_k at a single point (raises if the point is outside)."""
    basis.workspace.require_inside(point)
    rel = basis.workspace.to_local(point)
    om = frequencies(basis)[k_index]
    return float(np.prod(np.cos(om * rel)) / basis.normalizers[k_index])


def basis_gradient(basis, k_index, point):
    """Oracle: analytic spatial gradient of F_k at a single point."""
    basis.workspace.require_inside(point)
    rel = basis.workspace.to_local(point)
    om = frequencies(basis)[k_index]
    c = np.cos(om * rel)
    s = np.sin(om * rel)
    v = 2
    grad = np.empty(v)
    for i in range(v):
        others = np.prod(np.delete(c, i))
        grad[i] = -om[i] * s[i] * others / basis.normalizers[k_index]
    return grad


def assert_close(got, want):
    """Equal to rounding: every entry to 1e-12 relative, or to 1e-14 of the
    largest entry where a sum cancels to near zero.  The library's per-axis
    contractions reassociate the oracles' sums, so the bits differ."""
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


def simpson_weights(n_nodes, length):
    """Composite Simpson weights on n_nodes equispaced nodes (n_nodes odd)."""
    assert n_nodes % 2 == 1
    h = length / (n_nodes - 1)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def simpson_mode_integrals(basis, f_grid, n_nodes):
    """Oracle: integral of f(w) F_k(w) dw for every mode via 2-D Simpson.

    ``f_grid`` is f evaluated on the (n_nodes, n_nodes) Simpson grid.
    """
    ws = basis.workspace
    xs = [np.linspace(ws.lows[i], ws.highs[i], n_nodes) for i in range(2)]
    wts = [simpson_weights(n_nodes, ws.lengths[i]) for i in range(2)]
    tables = basis.axis_cosines(xs)
    out = np.einsum("ai,bj,ij->ab", tables[0] * wts[0], tables[1] * wts[1], f_grid)
    return out.ravel() / basis.normalizers


@pytest.fixture(scope="module")
def square100():
    return Workspace((100.0, 100.0))


@pytest.fixture(scope="module")
def basis8(square100):
    return FourierBasis(square100, 8)


class TestWorkspace:
    def test_containment_uses_offsets(self):
        ws = Workspace((2.0, 3.0), lows=(-1.0, -1.5))
        assert ws.contains((0.0, 0.0))
        assert ws.contains((-1.0, 1.5))  # corners count as inside
        assert not ws.contains((1.2, 0.0))

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            Workspace((1.0, 0.0))

    def test_rejects_non_finite_lengths_and_lows(self):
        # a NaN length used to construct a workspace that contains no point
        for lengths, lows in (((1.0, np.nan), None), ((np.inf, 1.0), None),
                              ((1.0, 1.0), (np.nan, 0.0)), ((1.0, 1.0), (0.0, -np.inf))):
            with pytest.raises(ValueError, match="finite"):
                Workspace(lengths, lows)

    def test_uniform_level(self, square100):
        assert square100.uniform_level() == pytest.approx(1e-4)

    def test_rejects_non_planar_workspace(self):
        for lengths, lows in (((7.0,), (1.5,)), ((3.0, 5.0, 2.0), (-1.0, 0.5, 2.0))):
            with pytest.raises(ValueError, match="workspace is planar"):
                Workspace(lengths, lows)


class TestBasisValue:
    def test_constant_mode_value(self, basis8, square100):
        # k = 0 basis is constant 1/h_0, h_0 = sqrt(100*100)
        idx = mode_index(basis8, (0, 0))
        assert basis_value(basis8, idx, (12.3, 98.2)) == pytest.approx(0.01)

    def test_cosine_zero_crossing(self, basis8):
        idx = mode_index(basis8, (1, 0))
        assert basis_value(basis8, idx, (50.0, 37.2)) == pytest.approx(0.0, abs=1e-15)

    def test_outside_point_raises(self, basis8):
        with pytest.raises(OutsideWorkspaceError):
            basis_value(basis8, 0, (101.0, 3.0))

    def test_unit_norm_by_quadrature(self, basis8):
        # composite-Simpson oracle on a 401x401 grid, every mode
        n = 401
        ws = basis8.workspace
        xs = [np.linspace(0.0, ws.lengths[i], n) for i in range(2)]
        wts = [simpson_weights(n, ws.lengths[i]) for i in range(2)]
        tables = basis8.axis_cosines(xs)
        sq = [t * t for t in tables]
        for flat in range(len(basis8)):
            kx, ky = basis8.modes[flat]
            val = (sq[0][kx] @ wts[0]) * (sq[1][ky] @ wts[1])
            val /= basis8.normalizers[flat] ** 2
            assert abs(val - 1.0) < 1e-6

    def test_orthogonality_by_quadrature(self, basis8):
        n = 401
        ws = basis8.workspace
        xs = [np.linspace(0.0, ws.lengths[i], n) for i in range(2)]
        wts = [simpson_weights(n, ws.lengths[i]) for i in range(2)]
        tables = basis8.axis_cosines(xs)
        rng = np.random.default_rng(7)
        pairs = {tuple(rng.integers(0, len(basis8), 2)) for _ in range(40)}
        for a, b in pairs:
            if a == b:
                continue
            kxa, kya = basis8.modes[a]
            kxb, kyb = basis8.modes[b]
            ix = (tables[0][kxa] * tables[0][kxb]) @ wts[0]
            iy = (tables[1][kya] * tables[1][kyb]) @ wts[1]
            val = ix * iy / (basis8.normalizers[a] * basis8.normalizers[b])
            assert abs(val) < 1e-6

    def test_weights_follow_sobolev_rule(self, basis8):
        idx = mode_index(basis8, (1, 0))
        assert basis8.weights[idx] == pytest.approx(2.0 ** -1.5)
        idx = mode_index(basis8, (3, 4))
        assert basis8.weights[idx] == pytest.approx((1 + 25.0) ** -1.5)


class TestBasisGradient:
    def test_constant_mode_gradient_zero(self, basis8):
        g = basis_gradient(basis8, mode_index(basis8, (0, 0)), (33.0, 44.0))
        assert np.allclose(g, 0.0)

    def test_gradient_zero_at_origin(self, basis8):
        g = basis_gradient(basis8, mode_index(basis8, (1, 0)), (0.0, 0.0))
        assert np.allclose(g, 0.0)

    def test_matches_central_differences(self, basis8):
        rng = np.random.default_rng(3)
        eps = 1e-6
        for _ in range(25):
            flat = int(rng.integers(len(basis8)))
            w = rng.uniform(5.0, 95.0, 2)
            g = basis_gradient(basis8, flat, w)
            fd = np.zeros(2)
            for i in range(2):
                wp, wm = w.copy(), w.copy()
                wp[i] += eps
                wm[i] -= eps
                fd[i] = (basis_value(basis8, flat, wp)
                         - basis_value(basis8, flat, wm)) / (2 * eps)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-9)


SEPARABLE_CASES = {
    "coarse-10x10": (Workspace((100.0, 100.0)), 10),
    "fine-8x8": (Workspace((2.0 * math.radians(135.0), math.radians(120.0)),
                           (-math.radians(135.0), math.radians(-90.0))), 8),
}


class TestSeparableKernel:
    """The per-axis table kernel is bit-identical to the product form."""

    @pytest.fixture(params=sorted(SEPARABLE_CASES))
    def basis(self, request):
        workspace, modes = SEPARABLE_CASES[request.param]
        return FourierBasis(workspace, modes)

    def assert_identical(self, basis, pts):
        values = basis.eval_points(pts)
        values_g, grads = basis.eval_points_with_gradient(pts)
        assert grads.shape == (len(basis), pts.shape[0], 2)
        assert np.array_equal(values, product_form_values(basis, pts))
        assert np.array_equal(values_g, values)
        assert np.array_equal(grads, product_form_gradients(basis, pts))

    def test_random_points(self, basis):
        ws = basis.workspace
        rng = np.random.default_rng(17)
        for T in (2, 5, 48, 97):
            pts = ws.lows + rng.random((T, 2)) * ws.lengths
            self.assert_identical(basis, pts)

    def test_points_on_the_boundary(self, basis):
        ws = basis.workspace
        corners = np.array(np.meshgrid(*zip(ws.lows, ws.highs), indexing="ij"))
        pts = corners.reshape(2, -1).T
        self.assert_identical(basis, np.vstack([ws.lows, ws.highs, pts]))

    def test_single_point(self, basis):
        ws = basis.workspace
        pts = (ws.lows + 0.37 * ws.lengths)[None, :]
        self.assert_identical(basis, pts)

    def test_outside_point_raises(self, basis):
        ws = basis.workspace
        pts = np.vstack([ws.lows + 0.5 * ws.lengths, ws.highs + 1e-6])
        with pytest.raises(OutsideWorkspaceError):
            basis.eval_points(pts)
        with pytest.raises(OutsideWorkspaceError):
            basis.eval_points_with_gradient(pts)

    def test_tables_match_reference_forms(self, basis):
        # the solver's unchecked path against the table code as it was
        # before the basis kept its per-call constants
        ws = basis.workspace
        rng = np.random.default_rng(29)
        for T in (1, 2, 5, 48):
            states = rng.random((T, 3))
            states[:, :2] = ws.lows + states[:, :2] * ws.lengths
            pts = states[:, :2]  # a strided view, as the solver passes
            tables = basis.point_tables(pts, check=False)
            expect = reference_point_tables(basis, pts)
            for got, ref in zip(tables, expect):
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def reference_axis_frequencies(basis):
    """Per-axis (m_i, 1) frequency columns, built as the basis builds them."""
    return [(np.arange(m) * np.pi / basis.workspace.lengths[i])[:, None]
            for i, m in enumerate(basis.modes_per_axis)]


def reference_point_tables(basis, points):
    """``FourierBasis.point_tables`` as it was: every axis converted and
    offset by the workspace's own lows on each call."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    phases = [omega * (np.asarray(pts_i, dtype=float) - low)
              for omega, pts_i, low in zip(reference_axis_frequencies(basis), pts.T,
                                           basis.workspace.lows)]
    return phases, [np.cos(p) for p in phases]


class TestTrajectoryCoefficients:
    def test_stationary_point(self, basis8):
        w0 = np.array([62.0, 17.0])
        pts = np.tile(w0, (9, 1))
        c = trajectory_coefficients(basis8, pts)
        direct = np.array([basis_value(basis8, k, w0) for k in range(len(basis8))])
        assert np.allclose(c, direct, atol=1e-14)

    def test_two_point_average(self, basis8):
        w1, w2 = np.array([10.0, 20.0]), np.array([80.0, 55.0])
        c = trajectory_coefficients(basis8, [w1, w2])
        for k in range(len(basis8)):
            expect = 0.5 * (basis_value(basis8, k, w1) + basis_value(basis8, k, w2))
            assert c[k] == pytest.approx(expect, abs=1e-14)

    def test_dense_sweep_approaches_uniform_density(self, basis8):
        # midpoint lattice visits: time-average -> coefficients of uniform
        n = 200
        ax = (np.arange(n) + 0.5) * (100.0 / n)
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], 1)
        c = trajectory_coefficients(basis8, pts)
        uniform = np.zeros(len(basis8))
        uniform[0] = 0.01
        assert np.max(np.abs(c - uniform)) < 1e-3

    def test_empty_rejected(self, basis8):
        with pytest.raises(ValueError):
            trajectory_coefficients(basis8, np.zeros((0, 2)))


class TestMapCoefficients:
    def test_uniform_map(self, basis8, square100):
        imap = InfoMap(square100, np.ones((100, 100)))
        phi = map_coefficients(basis8, imap)
        assert phi[0] == pytest.approx(0.01, abs=1e-12)
        assert np.max(np.abs(phi[1:])) < 1e-12

    def test_gaussian_bump_against_simpson_oracle(self, basis8, square100):
        sigma, center = 5.0, np.array([50.0, 50.0])

        def density(x, y):
            return np.exp(-0.5 * ((x - center[0]) ** 2 + (y - center[1]) ** 2)
                          / sigma**2) / (2 * np.pi * sigma**2)

        ax = (np.arange(100) + 0.5) * 1.0
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        imap = InfoMap(square100, density(gx, gy))
        phi = map_coefficients(basis8, imap)

        n = 1001
        xs = np.linspace(0.0, 100.0, n)
        ggx, ggy = np.meshgrid(xs, xs, indexing="ij")
        f = density(ggx, ggy)
        f /= (simpson_weights(n, 100.0)[None, :] * simpson_weights(n, 100.0)[:, None] * f).sum()
        oracle = simpson_mode_integrals(basis8, f, n)
        assert np.max(np.abs(phi - oracle)) < 1e-5

    def test_single_cell_mass(self, square100):
        basis = FourierBasis(square100, 5)
        vals = np.zeros((100, 100))
        vals[30, 70] = 1.0
        imap = InfoMap(square100, vals)
        phi = map_coefficients(basis, imap)
        center = (30.5, 70.5)
        direct = np.array([basis_value(basis, k, center) for k in range(len(basis))])
        # floor mixing adds ~2e-6 of the uniform map's coefficients
        assert np.max(np.abs(phi - direct)) < 1e-4

    def test_matches_the_cell_sum_of_basis_values(self, basis8, square100):
        # the per-axis contraction against sum_cells F_k(center) density area
        rng = np.random.default_rng(41)
        imap = InfoMap(square100, rng.random((40, 25)))
        gx, gy = np.meshgrid(*imap.axis_centers(), indexing="ij")
        centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
        mass = imap.density.ravel() * imap.cell_area
        expect = product_form_values(basis8, centers) @ mass
        assert_close(map_coefficients(basis8, imap), expect)

    def test_unnormalized_map_rejected(self, basis8, square100):
        imap = InfoMap(square100, np.ones((50, 50)))
        broken = object.__new__(InfoMap)
        broken.workspace = square100
        broken.density = imap.density * 2.0
        with pytest.raises(ValueError):
            map_coefficients(basis8, broken)


class TestErgodicMetric:
    def test_zero_at_equality(self, basis8):
        rng = np.random.default_rng(0)
        c = rng.normal(size=len(basis8))
        assert ergodic_metric(basis8, c, c) == 0.0

    def test_single_mode_arithmetic(self, basis8):
        c = np.zeros(len(basis8))
        p = np.zeros(len(basis8))
        c[mode_index(basis8, (1, 0))] = 0.1
        expect = (2.0 ** -1.5) * 0.01
        assert ergodic_metric(basis8, c, p) == pytest.approx(expect, rel=1e-12)

    def test_matches_direct_summation(self, basis8, square100):
        imap = InfoMap(square100, np.ones((100, 100)))
        phi = map_coefficients(basis8, imap)
        pts = np.tile([25.0, 25.0], (12, 1))
        c = trajectory_coefficients(basis8, pts)
        direct = float(np.sum(basis8.weights * (c - phi) ** 2))
        assert ergodic_metric(basis8, c, phi) == pytest.approx(direct, abs=1e-12)

    def test_length_mismatch_rejected(self, basis8):
        with pytest.raises(ValueError):
            ergodic_metric(basis8, np.zeros(3), np.zeros(len(basis8)))

    def test_nonnegative(self, basis8):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.normal(size=len(basis8))
            p = rng.normal(size=len(basis8))
            assert ergodic_metric(basis8, c, p) >= 0.0


class TestMetricGradient:
    """dE/dw_t from ``CoverageCost.gradient``."""

    def test_zero_gradient_at_match(self, basis8):
        pts = np.tile([40.0, 60.0], (7, 1))
        phi = trajectory_coefficients(basis8, pts)
        g = CoverageCost(basis8, pts, phi).gradient()
        assert np.max(np.abs(g)) < 1e-14

    def test_matches_central_differences(self, basis8, square100):
        rng = np.random.default_rng(11)
        imap = InfoMap(square100, np.ones((50, 50)))
        phi = map_coefficients(basis8, imap)
        eps = 1e-6
        pts = rng.uniform(10.0, 90.0, (10, 2))
        g = CoverageCost(basis8, pts, phi).gradient()
        fd = np.zeros_like(pts)
        for t in range(pts.shape[0]):
            for i in range(2):
                pp, pm = pts.copy(), pts.copy()
                pp[t, i] += eps
                pm[t, i] -= eps
                ep = ergodic_metric(basis8, trajectory_coefficients(basis8, pp), phi)
                em = ergodic_metric(basis8, trajectory_coefficients(basis8, pm), phi)
                fd[t, i] = (ep - em) / (2 * eps)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4

    def test_duplicating_points_halves_rows(self, basis8, square100):
        imap = InfoMap(square100, np.ones((50, 50)))
        phi = map_coefficients(basis8, imap)
        rng = np.random.default_rng(2)
        pts = rng.uniform(5.0, 95.0, (6, 2))
        g1 = CoverageCost(basis8, pts, phi).gradient()
        doubled = np.vstack([pts, pts])
        g2 = CoverageCost(basis8, doubled, phi).gradient()
        assert np.allclose(g2[:6], 0.5 * g1, atol=1e-14)
        assert np.allclose(g2[6:], 0.5 * g1, atol=1e-14)


class TestCoverageCost:
    """The per-axis contraction agrees with the product-form sums to
    rounding: it reassociates them, so the bits differ."""

    @pytest.fixture
    def case(self, basis8, square100):
        rng = np.random.default_rng(23)
        phi = map_coefficients(basis8, init_coarse(square100, (100, 100),
                                                   (((20.0, 60.0, 15.0, 20.0), 5.0),)))
        return basis8, rng.uniform(0.0, 100.0, (48, 2)), phi

    def test_cost_equals_metric_of_coefficients(self, case):
        basis, pts, phi = case
        cost = CoverageCost(basis, pts, phi)
        c, E, _ = product_form_coverage(basis, pts, phi)
        assert_close(cost.coefficients, c)
        assert_close(cost.residual, c - phi)
        assert cost.cost == ergodic_metric(basis, cost.coefficients, phi)
        assert cost.cost == pytest.approx(E, rel=1e-12)

    @pytest.mark.parametrize("weight", [1.0, 0.37, 1234.5])
    def test_gradient_matches_reference_expression(self, case, weight):
        basis, pts, phi = case
        _, _, expect = product_form_coverage(basis, pts, phi, weight)
        assert_close(CoverageCost(basis, pts, phi).gradient(weight), expect)

    def test_fine_basis_and_short_horizon(self):
        # the camera's offset, non-square workspace at a sweep's horizon
        workspace, modes = SEPARABLE_CASES["fine-8x8"]
        basis = FourierBasis(workspace, modes)
        rng = np.random.default_rng(31)
        phi = rng.normal(scale=0.1, size=len(basis))
        for T in (1, 5):
            pts = workspace.lows + rng.random((T, 2)) * workspace.lengths
            cost = CoverageCost(basis, pts, phi)
            c, E, grad = product_form_coverage(basis, pts, phi, 0.37)
            assert_close(cost.coefficients, c)
            assert cost.cost == pytest.approx(E, rel=1e-12)
            assert_close(cost.gradient(0.37), grad)

    def test_unchecked_cost_matches_checked(self, case):
        basis, pts, phi = case
        checked = CoverageCost(basis, pts, phi)
        unchecked = CoverageCost(basis, pts, phi, check=False)
        assert np.array_equal(unchecked.coefficients, checked.coefficients)
        assert unchecked.cost == checked.cost
        assert np.array_equal(unchecked.gradient(0.37), checked.gradient(0.37))

    def test_rejects_empty_and_outside_points(self, basis8):
        phi = np.zeros(len(basis8))
        with pytest.raises(ValueError):
            CoverageCost(basis8, np.zeros((0, 2)), phi)
        with pytest.raises(OutsideWorkspaceError):
            CoverageCost(basis8, [[50.0, 50.0], [100.5, 3.0]], phi)


class TestTranslationInvariance:
    def test_metric_unchanged_under_joint_shift(self):
        shift = np.array([-17.0, 4.0])
        ws_a = Workspace((100.0, 100.0))
        ws_b = Workspace((100.0, 100.0), lows=shift)
        basis_a = FourierBasis(ws_a, 6)
        basis_b = FourierBasis(ws_b, 6)
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 100.0, (20, 2))
        phi = np.zeros(len(basis_a))
        phi[0] = 0.01
        ca = trajectory_coefficients(basis_a, pts)
        cb = trajectory_coefficients(basis_b, pts + shift)
        ea = ergodic_metric(basis_a, ca, phi)
        eb = ergodic_metric(basis_b, cb, phi)
        assert abs(ea - eb) < 1e-12
