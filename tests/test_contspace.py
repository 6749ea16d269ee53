import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cqi_sim import contspace as cs
from cqi_sim.contspace import (
    Grid,
    GridFunction,
    PropagatorKernel,
    collapse_to_slice,
    gaussian_packet,
    physical_inner_product,
    project,
    propagate_point,
    spectral_evolve,
)
from cqi_sim.errors import NumericalValidationError

from oracles import evolved_gaussian, propagate_longdouble

K = PropagatorKernel()


def default_grid(nt=81, t_max=4.0):
    return Grid(-20.0, 20.0, 512, 0.0, t_max, nt)


def sampled(grid, f):
    """GridFunction of f(x, t) on the grid's nodes."""
    return GridFunction(grid, f(*np.meshgrid(grid.x, grid.t, indexing="ij")))


def l2_diff(a, b, dx):
    return np.sqrt(np.sum(np.abs(a - b) ** 2) * dx)


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0, 1, 1, 0, 1, 4)
        with pytest.raises(ValueError):
            Grid(1, 0, 8, 0, 1, 4)

    def test_spacing(self):
        g = Grid(-1, 1, 5, 0, 2, 3)
        assert g.dx == pytest.approx(0.5)
        assert g.dt == pytest.approx(1.0)


class TestGridFunction:
    def test_shape_checked(self):
        g = default_grid()
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros((3, 3)))

    def test_single_slice_delta_weight(self):
        g = default_grid()
        gf = GridFunction.on_slice(g, gaussian_packet(g.x, 0, 1), 5)
        w = gf.time_weights()
        assert w[5] == 1.0
        assert np.sum(w > 0) == 1

    def test_band_weights_sum_to_extent(self):
        g = default_grid()
        vals = np.zeros((g.nx, g.nt), dtype=complex)
        vals[:, 10:21] = 1.0
        w = GridFunction(g, vals).time_weights()
        assert np.sum(w) == pytest.approx(g.t[20] - g.t[10], abs=1e-12)

    def test_empty_support_rejected(self):
        g = default_grid()
        gf = GridFunction(g, np.zeros((g.nx, g.nt)))
        one = GridFunction.on_slice(g, gaussian_packet(g.x, 0, 1), 5)
        for method in ("slice", "direct"):
            for a, b in [(gf, gf), (gf, one), (one, gf)]:
                with pytest.raises(NumericalValidationError, match="empty support"):
                    physical_inner_product(a, b, K, method=method)
        for route in (project, collapse_to_slice):
            with pytest.raises(NumericalValidationError, match="empty support"):
                route(gf, K, 1.0)

    def test_support_is_the_rows_and_column_range_above_eps(self):
        g = default_grid()
        vals = np.zeros((g.nx, g.nt), dtype=complex)
        vals[40:60, 7] = 1.0
        vals[100, 12] = 2 * cs.SUPPORT_EPS
        vals[300, 20] = cs.SUPPORT_EPS  # at the threshold: no support
        rows, cols = GridFunction(g, vals).support()
        assert_array_equal(rows, [7, 12])
        assert (cols.start, cols.stop, cols.step) == (40, 101, None)


class TestPropagatePoint:
    def test_equal_time_rejected(self):
        with pytest.raises(NumericalValidationError):
            propagate_point(K, 0.0, 1.0, 0.5, 1.0)

    def test_delta_limit_on_wide_gaussian(self):
        # a wide packet barely moves over times short against m a^2 / hbar:
        # the quadrature must track the closed form to 1e-6 while the
        # distance to the initial packet shrinks linearly with t
        g = default_grid()
        a = 4.0
        psi = gaussian_packet(g.x, 0.0, a)
        gf = GridFunction.on_slice(g, psi, 0)
        dists = []
        for t in (2.0, 1.0):
            out = project(gf, K, t)
            expect = evolved_gaussian(g.x, t, 0.0, a)
            assert l2_diff(out, expect, g.dx) < 1e-6
            dists.append(l2_diff(out, psi, g.dx))
        assert dists[1] / dists[0] == pytest.approx(0.5, abs=0.05)
        assert dists[1] < 0.05

    def test_composition_semigroup(self):
        # complex-time splitting: W_eta/2 o W_eta/2 = W_eta
        eta = 0.05
        k_half = PropagatorKernel(regularization_eta=eta / 2)
        k_full = PropagatorKernel(regularization_eta=eta)
        y = np.linspace(-30, 30, 1501)
        dy = y[1] - y[0]
        x, t2, xp, t0, t1 = 1.3, 2.0, -0.7, 0.0, 0.9
        lhs = 0.0
        vals_right = np.array([propagate_point(k_half, yi, t1, xp, t0) for yi in y])
        vals_left = np.array([propagate_point(k_half, x, t2, yi, t1) for yi in y])
        w = np.full(y.size, dy)
        w[0] = w[-1] = dy / 2
        lhs = np.sum(w * vals_left * vals_right)
        rhs = propagate_point(k_full, x, t2, xp, t0)
        assert abs(lhs - rhs) / abs(rhs) < 1e-4

    def test_gaussian_spreading_law(self):
        g = default_grid()
        a = 1.0
        gf = GridFunction.on_slice(g, gaussian_packet(g.x, 0.0, a), 0)
        for t in (1.0, 2.5):
            out = project(gf, K, t)
            p = np.abs(out) ** 2
            p /= np.sum(p) * g.dx
            mean = np.sum(g.x * p) * g.dx
            var = np.sum((g.x - mean) ** 2 * p) * g.dx
            width2 = 2 * var
            expect = a**2 + (K.hbar * t / (K.mass * a)) ** 2
            assert abs(width2 / expect - 1) < 1e-4


class TestProject:
    def test_single_slice_is_ordinary_propagation(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5.0, 1.0)
        gf = GridFunction.on_slice(g, psi, 0)
        out = project(gf, K, 3.0)
        ref = spectral_evolve(psi, g.dx, K, 3.0)
        assert l2_diff(out, ref, g.dx) < 1e-4

    def test_delta_channel_identity(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5.0, 1.0)
        gf = GridFunction.on_slice(g, psi, 0)
        assert_allclose(project(gf, K, 0.0), psi, atol=1e-14)

    def test_smeared_gaussian_b_to_zero(self):
        # 2-d localized state converges to its single-slice limit as the
        # time width shrinks
        g = Grid(-20, 20, 512, 0.0, 1.0, 201)
        x0, t0, a = -2.0, 0.5, 1.0
        slice_gf = GridFunction.on_slice(
            g, np.exp(-((g.x - x0) ** 2) / a**2) + 0j, 100
        )
        ref = project(slice_gf, K, 2.0)
        ref /= np.sqrt(np.sum(np.abs(ref) ** 2) * g.dx)
        errs = []
        for b in (0.2, 0.1, 0.05):
            gf = sampled(
                g,
                lambda x, t: np.exp(-((x - x0) ** 2) / a**2 - ((t - t0) ** 2) / b**2)
                / (2 * np.pi * a * b),
            )
            out = project(gf, K, 2.0)
            out /= np.sqrt(np.sum(np.abs(out) ** 2) * g.dx)
            errs.append(l2_diff(out, ref, g.dx))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 5e-3

    def test_projection_solves_schrodinger(self):
        # spectral split-step integration from the initial slice agrees
        g = default_grid()
        rng = np.random.default_rng(0)
        psi = gaussian_packet(g.x, -4.0, 1.5, momentum=0.8)
        psi += 0.3 * gaussian_packet(g.x, -6.0, 0.8, momentum=-0.2)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * g.dx)
        gf = GridFunction.on_slice(g, psi, 0)
        for t_out in (1.0, 2.0):
            direct = project(gf, K, t_out)
            oracle = spectral_evolve(psi, g.dx, K, t_out, n_steps=64)
            assert l2_diff(direct, oracle, g.dx) < 1e-4

    def test_support_slices_reach_the_kernel_as_one_block(self, monkeypatch):
        # three support slices, one on t_out (the delta channel): the other two reach the
        # chirp-z sum as one (2, columns) block over the support's x range, the values at or
        # below SUPPORT_EPS weighing 0, and agree with the dense sum over the support points
        g = default_grid()
        psi = gaussian_packet(g.x, -5.0, 1.0)
        vals = np.zeros((g.nx, g.nt), dtype=complex)
        vals[:, 3], vals[:, 9], vals[:, 20] = psi, 0.5 * psi[::-1], 0.25j * psi
        gf = GridFunction(g, vals)
        on = np.abs(vals[:, [3, 9]]) > cs.SUPPORT_EPS
        lo, hi = np.flatnonzero(on.any(axis=1))[[0, -1]]
        assert 0 < lo and hi < g.nx - 1
        calls, real = [], cs._kernels._chirp_rows
        monkeypatch.setattr(cs._kernels, "_chirp_rows", lambda *a: calls.append(a) or real(*a))
        out = project(gf, K, g.t[20])
        ((_, t_out, y0, d, t_rows, amp, _, _),) = calls
        assert t_out == g.t[20]
        assert_array_equal(y0, [g.x[lo]] * 2)
        assert_array_equal(t_rows, g.t[[3, 9]])
        assert_allclose(d, g.dx, rtol=1e-12)
        tw = gf.time_weights()
        want = vals[:, [3, 9]].T * (gf.x_weights() * tw[[3, 9], None])
        assert_array_equal(amp, np.where(on.T, want, 0)[:, lo : hi + 1])
        x, t = np.meshgrid(g.x, g.t[[3, 9]], indexing="ij")
        v = (vals[:, [3, 9]] * gf.x_weights()[:, None] * tw[[3, 9]])[on]
        ref = cs._kernels.propagate_numpy(g.x, g.t[20], x[on], t[on], v, 1.0, 1.0, 0.0)
        ref += vals[:, 20] * tw[20]
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_narrow_packet_matches_long_double_sum(self):
        # a packet at -5 on one slice of a 512-point grid over [-20, 20], projected to t = 3:
        # the chirp-z sum over the support's columns keeps its phases, and its rounding, small
        g = default_grid()
        gf = GridFunction.on_slice(g, gaussian_packet(g.x, -5.0, 1.0), 0)
        ref = propagate_longdouble(g.x, 3.0, g.x, np.zeros(g.nx), gf.amplitudes()[0])
        out = project(gf, K, 3.0)
        assert np.max(np.abs(out - ref)) <= 2.5e-14 * np.max(np.abs(ref))

    def test_unitarity_of_propagation(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5.0, 1.0)
        gf = GridFunction.on_slice(g, psi, 0)
        norms = []
        for t in (0.5, 1.5, 3.0):
            out = project(gf, K, t)
            norms.append(np.sqrt(np.sum(np.abs(out) ** 2) * g.dx))
        assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-6


def _band_solution(grid, psi0, t_indices):
    """Kinematical representative of a solution smeared over a band."""
    vals = np.zeros((grid.nx, grid.nt), dtype=complex)
    t_lo, t_hi = grid.t[t_indices[0]], grid.t[t_indices[-1]]
    g = 1.0 / (t_hi - t_lo)
    for j in t_indices:
        vals[:, j] = spectral_evolve(psi0, grid.dx, K, grid.t[j]) * g
    return GridFunction(grid, vals)


class TestPhysicalInnerProduct:
    def test_same_slice_reduces_to_l2(self):
        g = default_grid()
        a = gaussian_packet(g.x, -5, 1.0)
        b = gaussian_packet(g.x, -4, 2.0)
        ga = GridFunction.on_slice(g, a, 3)
        gb = GridFunction.on_slice(g, b, 3)
        w = ga.x_weights()
        expect = np.sum(w * np.conj(a) * b)
        assert abs(physical_inner_product(ga, gb, K) - expect) < 1e-12

    def test_slice_invariance(self):
        # the same physical state prepared on two different slices
        g = default_grid()
        psi = gaussian_packet(g.x, -5, 1.0)
        ga = GridFunction.on_slice(g, psi, 0)
        gb = GridFunction.on_slice(g, spectral_evolve(psi, g.dx, K, 1.5), 30)
        ip = physical_inner_product(ga, gb, K)
        assert abs(ip - 1.0) < 1e-6

    def test_normalized_smeared_state(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5, 1.0)
        gf = _band_solution(g, psi, list(range(40, 61)))
        assert np.sqrt(physical_inner_product(gf, gf, K).real) == pytest.approx(1.0, abs=1e-6)

    def test_smeared_against_slice(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5, 1.0)
        band = _band_solution(g, psi, list(range(40, 61)))
        single = GridFunction.on_slice(g, psi, 0)
        assert abs(physical_inner_product(band, single, K) - 1.0) < 1e-6

    def test_direct_method_agrees_disjoint(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5, 1.0)
        ga = GridFunction.on_slice(g, psi, 0)
        gb = GridFunction.on_slice(g, spectral_evolve(psi, g.dx, K, 1.5), 30)
        for eta in (None, 0.0):  # disjoint supports need no damping
            direct = physical_inner_product(ga, gb, K, method="direct", eta=eta)
            assert abs(direct - 1.0) < 1e-4

    def test_direct_method_hands_each_state_its_support_block(self, monkeypatch):
        # two disjoint slices arrive as (1, columns) blocks over their own x ranges; the band
        # against itself as two equal blocks, which take the lag convolution (one dense call,
        # the lag table from a single source)
        g = default_grid()
        psi = gaussian_packet(g.x, -5, 1.0)
        ga = GridFunction.on_slice(g, psi, 0)
        gb = GridFunction.on_slice(g, spectral_evolve(psi, g.dx, K, 1.5), 30)
        band = _band_solution(g, psi, list(range(40, 53)))
        calls, real = [], cs._kernels.double_quad
        monkeypatch.setattr(cs._kernels, "double_quad", lambda *a: calls.append(a) or real(*a))
        dense, real_dense = [], cs._kernels.propagate_numpy
        monkeypatch.setattr(
            cs._kernels, "propagate_numpy", lambda *a: dense.append(a) or real_dense(*a)
        )
        for eta in (None, 0.0):
            physical_inner_product(ga, gb, K, method="direct", eta=eta)
            (args,) = calls
            for f, (x, t, amp) in zip((ga, gb), (args[:3], args[3:6])):
                rows, cols = f.support()
                n = cols.stop - cols.start
                assert x.shape == t.shape == amp.shape == (1, n) and n < g.nx
                assert_array_equal(x[0], g.x[cols])
                assert_array_equal(amp, f.amplitudes()[rows, cols])
            calls.clear()
        dense.clear()
        physical_inner_product(band, band, K, method="direct", eta=0.01)
        ((x_a, t_a, amp_a, x_b, t_b, amp_b, *_),) = calls
        rows, cols = band.support()
        assert_array_equal(amp_a, band.amplitudes()[rows, cols])
        assert_array_equal(x_a, x_b)
        assert_array_equal(t_a, t_b)
        assert_array_equal(amp_a, amp_b)
        assert [c[2].size for c in dense] == [1]

    def test_direct_method_needs_one_grid(self):
        # the same x sampling, but slices of different times
        g, h = default_grid(), default_grid(nt=41)
        psi = gaussian_packet(g.x, -5, 1.0)
        ga, gb = GridFunction.on_slice(g, psi, 0), GridFunction.on_slice(h, psi, 30)
        assert physical_inner_product(ga, gb, K) != 0
        with pytest.raises(NumericalValidationError, match="one grid"):
            physical_inner_product(ga, gb, K, method="direct")

    def test_direct_method_eta_halving_converges(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5, 1.0)
        band = _band_solution(g, psi, list(range(40, 53)))
        errs = []
        for eta in (0.04, 0.02, 0.01):
            val = physical_inner_product(band, band, K, method="direct", eta=eta)
            errs.append(abs(val - 1.0))
        assert errs[2] < errs[1] < errs[0]

    def test_direct_overlapping_requires_eta(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5, 1.0)
        band = _band_solution(g, psi, list(range(40, 45)))
        with pytest.raises(NumericalValidationError):
            physical_inner_product(band, band, K, method="direct", eta=0.0)

    def test_collapse_matches_project_far_from_support(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -5, 1.0)
        gf = GridFunction.on_slice(g, psi, 0)
        a = project(gf, K, 2.0)
        b = collapse_to_slice(gf, K, 2.0)
        assert l2_diff(a, b, g.dx) < 1e-4


class TestSpectralEvolve:
    def test_free_norm_preserved(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -3, 1.0, momentum=1.0)
        out = spectral_evolve(psi, g.dx, K, 2.0)
        assert np.sum(np.abs(out) ** 2) * g.dx == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self):
        g = default_grid()
        psi = gaussian_packet(g.x, -3, 1.2, momentum=0.7)
        out = spectral_evolve(psi, g.dx, K, 1.7)
        expect = evolved_gaussian(g.x, 1.7, -3, 1.2, momentum=0.7)
        assert l2_diff(out, expect, g.dx) < 1e-10

    @pytest.mark.parametrize("nx", [1, 2, 3, 4, 7, 8, 255, 512, 1025])
    def test_mirrored_phase_table_is_exact(self, nx):
        # the table is built on the nx // 2 + 1 distinct |k| and mirrored; fftfreq's
        # +-k square to the same float, so it equals one exp per wavenumber bit for bit
        k = PropagatorKernel(mass=1.3, hbar=0.7)
        t = np.array([[0.0, 0.37], [-1.9, 12.5]])
        kvec = 2.0 * np.pi * np.fft.fftfreq(nx, d=0.083)
        direct = np.exp(-1j * k.hbar * kvec**2 * t[..., None] / (2.0 * k.mass))
        table = cs._kinetic_phase(nx, 0.083, k, t)
        assert table.shape == (2, 2, nx)
        assert np.array_equal(table, direct)


class TestSpectralCollapse:
    @staticmethod
    def per_slice(values, dx, k, lags, weights):
        """sum_t weights[t] spectral_evolve(values[..., t, :], lags[t]), one slice at a time."""
        return sum(
            w * spectral_evolve(values[..., j, :], dx, k, lag)
            for j, (lag, w) in enumerate(zip(lags, weights))
        )

    @pytest.mark.parametrize("shape", [(1, 64), (9, 64), (3, 9, 65), (2, 1, 128), (2, 18, 1024)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_slice_evolution(self, shape, seed):
        # random states: several slices share one collapse, or a single slice
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        nt = shape[-2]
        lags = np.sort(rng.uniform(0.0, 2.0, nt))[::-1]
        weights = rng.uniform(0.1, 1.0, nt)
        k = PropagatorKernel(mass=rng.uniform(0.5, 2.0), hbar=rng.uniform(0.5, 2.0))
        phase = cs._kinetic_phase(shape[-1], 0.05, k, lags)
        got = np.fft.ifft(cs.spectral_collapse_k(np.fft.fft(values), phase, weights))
        ref = self.per_slice(values, 0.05, k, lags, weights)
        assert got.shape == shape[:-2] + shape[-1:]
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_collapse_to_slice_sums_the_weighted_slices(self):
        g = default_grid(nt=41)
        gf = sampled(
            g, lambda x, t: gaussian_packet(x, -3.0, 1.0, 0.5) * ((t > 1.0) & (t < 2.0))
        )
        tw = gf.time_weights()
        cols = np.flatnonzero(tw > 0)
        ref = self.per_slice(gf.values[:, cols].T, g.dx, K, 3.0 - g.t[cols], tw[cols])
        got = collapse_to_slice(gf, K, 3.0)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
