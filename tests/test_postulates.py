import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cqi_sim import hilbert, postulates as ps
from cqi_sim.contspace import GridFunction, PropagatorKernel, spectral_evolve
from cqi_sim.errors import NumericalValidationError
from cqi_sim.postulates import (
    BandRegion,
    JointState,
    Rect,
    SliceRegion,
    benchmark_experiment,
    born_probability,
    born_probability_detail,
    covariant_partial_trace,
    cqi_probability,
    cqi_probability_detail,
    evolved_wavefunction,
    first_order_amplitude,
    rr_probability,
    two_point_experiment,
    two_point_report,
)
from cqi_sim.utils import trapezoid_weights

from oracles import (
    born_double_region_filon_pairwise,
    born_double_region_pairwise,
    born_double_region_trapezoid,
    covariant_partial_trace_schmidt,
    evolved_by_quadrature,
    evolved_gaussian,
)

BENCH = benchmark_experiment()


def shifted(exp, s):
    """The experiment with preparation, region, readout and band all
    moved later by s."""
    return replace(
        exp,
        t0=exp.t0 + s,
        region=tuple(Rect(r.x_lo, r.x_hi, r.t_lo + s, r.t_hi + s) for r in exp.region),
        readout_time=exp.readout_time + s,
        band=(exp.band[0] + s, exp.band[1] + s),
    )


class TestExperimentValidation:
    def test_region_must_follow_preparation(self):
        with pytest.raises(NumericalValidationError):
            benchmark_experiment(t0=3.1)

    def test_readout_after_region(self):
        with pytest.raises(NumericalValidationError):
            benchmark_experiment(readout_time=3.1)

    def test_band_after_region(self):
        with pytest.raises(NumericalValidationError):
            benchmark_experiment(band=(3.0, 3.4))

    def test_perturbativity_guard(self):
        exp = benchmark_experiment(coupling_alpha=2.0)
        with pytest.raises(NumericalValidationError):
            born_probability(exp)


class TestEvolvedWavefunction:
    def test_initial_slice_identity(self):
        x = BENCH.x()
        assert_allclose(
            evolved_wavefunction(BENCH, x, BENCH.t0), ps.psi0_values(BENCH), atol=1e-15
        )

    def test_gaussian_closed_form(self):
        x = np.linspace(-8, 4, 200)
        for t in (1.0, 3.1):
            got = evolved_wavefunction(BENCH, x, t)
            expect = evolved_gaussian(x, t, -5.0, 1.0)
            assert np.max(np.abs(got - expect)) < 1e-8

    def test_against_split_step(self):
        exp = benchmark_experiment(packet_momentum=0.6)
        x = exp.x()
        got = evolved_wavefunction(exp, x, 2.0)
        oracle = spectral_evolve(ps.psi0_values(exp), exp.dx, exp.kernel, 2.0, n_steps=32)
        err = np.sqrt(np.sum(np.abs(got - oracle) ** 2) * exp.dx)
        assert err < 1e-4

    def test_before_preparation_rejected(self):
        with pytest.raises(NumericalValidationError):
            evolved_wavefunction(BENCH, np.array([0.0]), -1.0)

    @pytest.mark.parametrize(
        "exp",
        [
            BENCH,
            benchmark_experiment(1),
            two_point_experiment(),
            benchmark_experiment(packet_momentum=0.6),
            benchmark_experiment(kernel=PropagatorKernel(regularization_eta=1e-3)),
            shifted(BENCH, 50.0),
        ],
        ids=["refine0", "refine1", "two-point", "momentum", "eta", "shifted"],
    )
    def test_matches_kernel_quadrature(self, exp):
        x = np.linspace(-10, 4, 301)
        times = exp.t0 + np.array([0.0, 0.5, 2.0, 3.1, 3.7, 4.2])
        ref = evolved_by_quadrature(exp, x, times)
        got = evolved_wavefunction(exp, x, times)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        scalar = evolved_wavefunction(exp, x, float(times[3]))
        assert np.max(np.abs(scalar - ref[3])) <= 1e-12 * np.max(np.abs(ref))

    def test_closed_form_needs_no_kernel_sum(self, monkeypatch):
        def fail(*args):
            raise AssertionError("kernel sum called")

        monkeypatch.setattr(ps._kernels, "propagate", fail)
        monkeypatch.setattr(ps._kernels, "propagate_numpy", fail)
        eta = benchmark_experiment(kernel=PropagatorKernel(regularization_eta=1e-3))
        for exp in (BENCH, eta):
            evolved_wavefunction(exp, exp.x(), 3.1)
            evolved_wavefunction(exp, exp.x(), np.array([exp.t0, 1.0, 3.1]))

    @pytest.mark.parametrize(
        "exp, x",
        [
            (BENCH, np.linspace(-8, 4, 200)),
            (
                benchmark_experiment(kernel=PropagatorKernel(regularization_eta=1e-3)),
                np.linspace(-8, 4, 200),
            ),
            (BENCH, np.linspace(-2, 2, 90) ** 3 - 5.0),  # non-uniform outputs
            (BENCH, np.array([-4.7])),  # single output
        ],
        ids=["uniform", "eta", "nonuniform", "single"],
    )
    def test_batched_times_match_scalar_calls(self, exp, x):
        times = np.array([exp.t0, 0.7, 3.1, 3.1, 2.0])
        got = evolved_wavefunction(exp, x, times)
        ref = np.stack([evolved_wavefunction(exp, x, float(t)) for t in times])
        assert got.shape == (times.size, x.size)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_batched_time_before_preparation_rejected(self):
        with pytest.raises(NumericalValidationError):
            evolved_wavefunction(BENCH, np.array([0.0, 1.0]), np.array([1.0, -0.5, 2.0]))


class TestFirstOrderAmplitude:
    def test_zero_coupling(self):
        exp = benchmark_experiment(coupling_alpha=0.0)
        out = first_order_amplitude(exp, exp.x(), 4.0)
        assert np.all(out == 0)

    def test_readout_inside_region_rejected(self):
        with pytest.raises(NumericalValidationError):
            first_order_amplitude(BENCH, np.array([0.0]), 3.1)

    def test_disjoint_slabs_add(self):
        r1 = Rect(-0.5, 0.0, 3.0, 3.2)
        r2 = Rect(0.2, 0.7, 3.0, 3.2)
        exp12 = benchmark_experiment(region=(r1, r2))
        exp1 = benchmark_experiment(region=(r1,))
        exp2 = benchmark_experiment(region=(r2,))
        x = np.linspace(-12, 12, 120)
        total = first_order_amplitude(exp12, x, 4.2)
        parts = first_order_amplitude(exp1, x, 4.2) + first_order_amplitude(exp2, x, 4.2)
        assert np.max(np.abs(total - parts)) < 1e-13

    def test_quadrature_refinement_agreement(self):
        # thin slab with nearly constant amplitude: refining the grids
        # must leave the answer stable at the percent level and converge
        x = np.linspace(-10, 6, 160)
        vals = []
        for r in (0, 1):
            exp = benchmark_experiment(refine=r)
            vals.append(first_order_amplitude(exp, x, 4.2))
        scale = np.max(np.abs(vals[0]))
        assert np.max(np.abs(vals[1] - vals[0])) / scale < 1e-2


class TestBornProbability:
    def test_zero_coupling(self):
        exp = benchmark_experiment(coupling_alpha=0.0)
        assert born_probability(exp) == 0.0

    def test_routes_agree_on_benchmark(self):
        detail = born_probability_detail(BENCH)
        assert detail.rel_diff <= 1e-3

    def test_alpha_squared_scaling(self):
        p1 = born_probability(BENCH)
        p2 = born_probability(benchmark_experiment(coupling_alpha=2 * BENCH.coupling_alpha))
        assert p2 / p1 == pytest.approx(4.0, rel=1e-6)

    def test_stable_under_refinement(self):
        p0 = born_probability(BENCH)
        p1 = born_probability(benchmark_experiment(refine=1))
        assert abs(p1 / p0 - 1) < 1e-3

    def test_coarse_grid_failure_names_fine_step(self):
        # at nx = 128 the double-region fine step sits at 1/16 of the slab
        with pytest.raises(NumericalValidationError, match=r"dxf = 0\.0625\b"):
            born_probability(benchmark_experiment(nx=128))

    def test_no_double_region_without_xcheck(self, monkeypatch):
        p_slice = born_probability_detail(BENCH).p_slice

        def fail(exp):
            raise AssertionError("double-region cross-check computed")

        monkeypatch.setattr(ps, "_born_double_region", fail)
        assert born_probability(BENCH, xcheck=False) == p_slice


SUM_CASES = [
    (BENCH, 1),
    (BENCH, 2),
    (benchmark_experiment(1), 1),
    (two_point_experiment(), 1),
    (two_point_experiment(), 2),
    (shifted(BENCH, 50.0), 1),
]
SUM_IDS = ["bench-1", "bench-2", "bench-refine1-1", "two-point-1", "two-point-2", "shifted-1"]
LADDER_CASES = [(two_point_experiment(), 4), (BENCH, 4), (BENCH, 8)]
LADDER_IDS = ["two-point-4", "bench-4", "bench-8"]


def gauss_legendre(f, lo, hi, panels=400, nodes=20):
    """Composite Gauss-Legendre quadrature of f over [lo, hi]."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    pts = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * s
    return np.sum(half * w * f(pts))


class TestDoubleRegion:
    @pytest.mark.parametrize("exp, density", SUM_CASES, ids=SUM_IDS)
    def test_factorized_sum_matches_pairwise(self, exp, density):
        got = born_double_region_trapezoid(exp, density)
        assert got == pytest.approx(born_double_region_pairwise(exp, density), rel=1e-10)

    @pytest.mark.parametrize(
        "exp, density", SUM_CASES + LADDER_CASES, ids=SUM_IDS + LADDER_IDS
    )
    def test_filon_sum_matches_pairwise(self, exp, density):
        got = ps._born_double_region_raw(exp, density)
        assert got == pytest.approx(born_double_region_filon_pairwise(exp, density), rel=1e-10)

    @pytest.mark.parametrize(
        "exp",
        [BENCH, benchmark_experiment(1), two_point_experiment(), two_point_experiment(refine=1)],
        ids=["bench", "bench-refine1", "two-point", "two-point-refine1"],
    )
    def test_filon_density_1_matches_dense_trapezoid(self, exp):
        ref = born_double_region_trapezoid(exp, 16)
        assert ps._born_double_region(exp) == pytest.approx(ref, rel=1e-5)

    @pytest.mark.parametrize("theta", [0.0, 1e-8, 1e-4, 1e-2, 0.1, 1.0, 1e3])
    def test_filon_weights_match_gauss_legendre(self, theta):
        def phase(s):
            return np.exp(1j * theta * s)

        first = gauss_legendre(lambda s: (1 - s) * phase(s), 0.0, 1.0)
        last = gauss_legendre(lambda s: (1 + s) * phase(s), -1.0, 0.0)
        got = ps._filon_weights(np.array([theta]))[:, 0]
        assert_allclose(got, [first, first + last, last], rtol=0, atol=1e-12)


class TestDoubleRegionLadder:
    """The trapezoid oracle at ladder densities, and the slices and edge
    cases of the Filon sum."""

    @staticmethod
    def spy_slices(monkeypatch):
        """Record (x points, t) of every slice handed to evolved_wavefunction."""
        seen = []
        real = ps.evolved_wavefunction

        def spy(exp, x, t):
            seen.extend((tuple(np.atleast_1d(x)), float(s)) for s in np.atleast_1d(t))
            return real(exp, x, t)

        monkeypatch.setattr(ps, "evolved_wavefunction", spy)
        return seen

    def test_each_slice_evolved_once(self, monkeypatch):
        seen = self.spy_slices(monkeypatch)
        exp = two_point_experiment()
        ps._born_double_region(exp)
        # one time density: the 33 slices of each square, each evolved once
        assert len(seen) == 2 * 33
        assert len(set(seen)) == 2 * 33

    @pytest.mark.parametrize("exp, density", LADDER_CASES, ids=LADDER_IDS)
    def test_nested_ladder_matches_pairwise(self, exp, density):
        got = born_double_region_trapezoid(exp, density)
        assert got == pytest.approx(born_double_region_pairwise(exp, density), rel=1e-10)

    def test_one_slice_rectangle(self, monkeypatch):
        real = ps._rect_subgrid

        def first_slice(exp, rect, t_density=1):
            xq, tq, wx, wt = real(exp, rect, t_density)
            return xq, tq[:1], wx, np.ones(1)

        # the oracle imports _rect_subgrid from postulates when called
        monkeypatch.setattr(ps, "_rect_subgrid", first_slice)
        exp = benchmark_experiment()
        got = ps._born_double_region_raw(exp, 1)
        assert got == pytest.approx(born_double_region_filon_pairwise(exp, 1), rel=1e-10)

    def test_single_live_point(self, monkeypatch):
        # a rectangle hanging over the grid edge covers only the last fine point
        seen = self.spy_slices(monkeypatch)
        exp = benchmark_experiment(packet_center=15.0, region=(Rect(19.99, 20.5, 3.0, 3.2),))
        got = ps._born_double_region_raw(exp, 2)
        assert {x for x, _ in seen} == {(20.0,)}
        assert got == pytest.approx(born_double_region_filon_pairwise(exp, 2), rel=1e-10)


class TestRrProbability:
    def test_alpha_independent(self):
        p1 = rr_probability(BENCH)
        p2 = rr_probability(benchmark_experiment(coupling_alpha=2 * BENCH.coupling_alpha))
        assert p2 == pytest.approx(p1, rel=1e-12)

    def test_small_region_value(self):
        # tiny region: |int Psi|^2 / meas ~ |Psi(center)|^2 * meas
        rect = Rect(-0.05, 0.05, 3.0, 3.01)
        exp = benchmark_experiment(region=(rect,), band=(3.3, 3.7))
        p = rr_probability(exp)
        psi_c = evolved_gaussian(0.0, 3.005, -5.0, 1.0)
        # finite-size corrections of the box enter at (h d(ln psi)/dx)^2
        assert p == pytest.approx(abs(psi_c) ** 2 * rect.measure, rel=5e-3)


def _joint_state_on_slice(exp, t):
    x = exp.x()
    psi = evolved_wavefunction(exp, x, t)
    phi = first_order_amplitude(exp, x, t)
    vals = np.zeros((exp.nx, 1, 4), dtype=complex)
    vals[:, 0, 0] = psi
    vals[:, 0, 3] = phi
    return JointState(x, np.array([t]), vals, (2, 2))


def _joint_state_on_band(exp, band=None):
    band = band or exp.band
    grid, psi_vals, phi_vals = ps._branch_functions(exp, band)
    vals = np.zeros((exp.nx, exp.band_slices, 4), dtype=complex)
    vals[:, :, 0] = psi_vals
    vals[:, :, 3] = phi_vals
    return JointState(grid.x, grid.t, vals, (2, 2))


class TestCovariantPartialTrace:
    def test_slice_region_reduces_to_ordinary_trace(self):
        joint = _joint_state_on_slice(BENCH, 3.6)
        red = covariant_partial_trace(joint, BENCH.kernel, SliceRegion(3.6))
        w = np.sqrt(trapezoid_weights(BENCH.nx, BENCH.dx))
        amps = (joint.values[:, 0, :] * w[:, None]).reshape(-1)
        amps = amps / np.linalg.norm(amps)
        oracle = hilbert.reduced_state(hilbert.Ket(amps, (BENCH.nx, 2, 2)), {1, 2})
        assert np.max(np.abs(red.rho.matrix - oracle.matrix)) < 1e-10

    def test_separable_state_is_pure(self):
        x = BENCH.x()
        psi = evolved_wavefunction(BENCH, x, 3.6)
        vals = np.zeros((BENCH.nx, 1, 2), dtype=complex)
        vals[:, 0, 0] = psi
        joint = JointState(x, np.array([3.6]), vals, (2,))
        red = covariant_partial_trace(joint, BENCH.kernel, SliceRegion(3.6))
        assert red.schmidt_rank == 1
        assert hilbert.von_neumann_entropy(red.rho) == pytest.approx(0.0, abs=1e-9)

    def test_band_matches_slice(self):
        joint_b = _joint_state_on_band(BENCH)
        red_b = covariant_partial_trace(joint_b, BENCH.kernel, BandRegion(*BENCH.band))
        joint_s = _joint_state_on_slice(BENCH, BENCH.band[0])
        red_s = covariant_partial_trace(joint_s, BENCH.kernel, SliceRegion(BENCH.band[0]))
        assert hilbert.trace_distance(red_b.rho, red_s.rho) < 1e-4

    def test_gram_assembly_matches_pairwise_products(self):
        # oracle: rho[a, b] = <Phi_b | P | Phi_a> from the branch functions
        # directly, without any Schmidt decomposition
        from cqi_sim.contspace import Grid, physical_inner_product

        exp = BENCH
        joint = _joint_state_on_band(exp)
        red = covariant_partial_trace(joint, exp.kernel, BandRegion(*exp.band))
        grid = Grid(exp.x_min, exp.x_max, exp.nx, exp.band[0], exp.band[1], exp.band_slices)
        rho_oracle = np.zeros((4, 4), dtype=complex)
        branches = [GridFunction(grid, joint.values[:, :, a]) for a in range(4)]
        live = [a for a in range(4) if np.max(np.abs(joint.values[:, :, a])) > 0]
        for a in live:
            for b in live:
                rho_oracle[a, b] = physical_inner_product(
                    branches[b], branches[a], exp.kernel
                )
        rho_oracle /= np.trace(rho_oracle).real
        assert np.max(np.abs(red.rho.matrix - rho_oracle)) < 1e-10

    def test_support_leak_rejected(self):
        joint = _joint_state_on_slice(BENCH, 3.6)
        with pytest.raises(NumericalValidationError):
            covariant_partial_trace(joint, BENCH.kernel, SliceRegion(3.7))

    def test_normalization_failure_rejected(self):
        joint = _joint_state_on_slice(BENCH, 3.6)
        bad = JointState(joint.x, joint.t, joint.values * 2.0, joint.obs_dims)
        with pytest.raises(NumericalValidationError):
            covariant_partial_trace(bad, BENCH.kernel, SliceRegion(3.6))

    @pytest.mark.parametrize("axis", ["x", "t"])
    def test_nonuniform_sampling_rejected(self, axis):
        joint = _joint_state_on_band(BENCH)
        samples = {"x": joint.x.copy(), "t": joint.t.copy()}
        a = samples[axis]
        a[1] += 0.1 * (a[2] - a[1])
        with pytest.raises(ValueError, match=f"^{axis} sampling must be uniform"):
            JointState(samples["x"], samples["t"], joint.values, joint.obs_dims)

    @pytest.mark.parametrize("touched", [False, True])
    def test_identically_zero_components_skipped(self, monkeypatch, touched):
        # the band state's components 1 and 2 are identically zero: only the
        # others are evolved, and their rows and columns of rho stay exactly 0;
        # one nonzero sample is enough for a component to be evolved
        joint = _joint_state_on_band(BENCH)
        if touched:
            vals = joint.values.copy()
            vals[BENCH.nx // 2, 0, 2] = 1e-30
            joint = JointState(joint.x, joint.t, vals, joint.obs_dims)
        shapes = []
        evolve = ps.spectral_evolve
        monkeypatch.setattr(
            ps, "spectral_evolve", lambda v, *a: shapes.append(v.shape) or evolve(v, *a)
        )
        red = covariant_partial_trace(joint, BENCH.kernel, BandRegion(*BENCH.band))
        live = [0, 2, 3] if touched else [0, 3]
        assert shapes == [(len(live), BENCH.band_slices, BENCH.nx)]
        dead = [a for a in range(4) if a not in live]
        assert np.all(red.rho.matrix[dead, :] == 0) and np.all(red.rho.matrix[:, dead] == 0)
        rho_raw, rank = covariant_partial_trace_schmidt(joint, BENCH.kernel)
        assert red.schmidt_rank == rank
        assert abs(red.trace_raw - np.trace(rho_raw).real) <= 1e-13

    @pytest.mark.parametrize("case", ["r0", "r1", "two-point", "slice"])
    def test_matches_schmidt_oracle(self, case):
        exp = {"r1": benchmark_experiment(1), "two-point": two_point_experiment()}.get(case, BENCH)
        if case == "slice":
            joint, region = _joint_state_on_slice(exp, 3.6), SliceRegion(3.6)
        else:
            joint, region = _joint_state_on_band(exp), BandRegion(*exp.band)
        red = covariant_partial_trace(joint, exp.kernel, region)
        rho_raw, rank = covariant_partial_trace_schmidt(joint, exp.kernel)
        trace_raw = np.trace(rho_raw).real
        rho = 0.5 * (rho_raw + rho_raw.conj().T) / trace_raw
        assert np.max(np.abs(red.rho.matrix - rho)) <= 1e-12
        assert abs(red.trace_raw - trace_raw) <= 1e-13
        assert red.schmidt_rank == rank


@pytest.fixture(scope="module")
def mixture_basis():
    """Band branch functions of BENCH, each of unit kinematical norm."""
    grid, psi, phi = ps._branch_functions(BENCH, BENCH.band)
    w = np.outer(trapezoid_weights(grid.nx, grid.dx), trapezoid_weights(grid.nt, grid.dt))
    return grid, [f / np.sqrt(np.sum(w * np.abs(f) ** 2)) for f in (psi, phi)]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([2, 4]),
    st.booleans(),
    st.floats(min_value=0.5, max_value=2.0),
    st.integers(min_value=0, max_value=BENCH.band_slices - 1),
)
def test_covariant_trace_invariants_hypothesis(mixture_basis, seed, d, dependent, q, j):
    # components are random mixtures of the two branches and a modulated
    # copy of the |0> branch; a dependent last component leaves rank d - 1,
    # which the kinematical Gram matrix's eigenvalues would miss
    grid, (psi, phi) = mixture_basis
    basis = np.stack([psi, phi, psi * np.exp(1j * q * grid.x)[:, None]])
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    if dependent:
        mix = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        coef[-1] = mix @ coef[:-1]
    joint = JointState(grid.x, grid.t, np.einsum("ab,bxt->xta", coef, basis), (d,))
    red = covariant_partial_trace(joint, BENCH.kernel, BandRegion(*BENCH.band), norm_tol=np.inf)
    m = red.rho.matrix
    assert abs(np.trace(m).real - 1.0) < 1e-12
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
    assert red.schmidt_rank == covariant_partial_trace_schmidt(joint, BENCH.kernel)[1]
    assert red.schmidt_rank == min(d - dependent, 3)

    vals = joint.values[:, j : j + 1, :]
    on_slice = JointState(grid.x, grid.t[j : j + 1], vals, (d,))
    red_s = covariant_partial_trace(on_slice, BENCH.kernel, SliceRegion(grid.t[j]), norm_tol=np.inf)
    amps = (vals[:, 0, :] * np.sqrt(trapezoid_weights(grid.nx, grid.dx))[:, None]).reshape(-1)
    oracle = hilbert.reduced_state(hilbert.Ket(amps / np.linalg.norm(amps), (grid.nx, d)), {1})
    assert np.max(np.abs(red_s.rho.matrix - oracle.matrix)) < 1e-12


class TestCqiProbability:
    def test_agrees_with_born(self):
        res = cqi_probability_detail(BENCH)
        p_born = born_probability(BENCH)
        assert abs(res.p_cqi / p_born - 1) <= 1e-3

    def test_physical_norm_route_agrees(self):
        res = cqi_probability_detail(BENCH)
        assert res.p_physical_norm == pytest.approx(res.p_cqi, rel=1e-9)

    def test_observer_state_properties(self):
        res = cqi_probability_detail(BENCH)
        m = res.rho_observer.matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(m)) > -1e-12
        assert res.schmidt_rank == 2

    def test_normalization_deficit_is_perturbative(self):
        # the deficit is the |1>-branch weight up to the packet's grid tail
        res = cqi_probability_detail(BENCH)
        assert res.normalization_deficit == pytest.approx(
            born_probability(BENCH), rel=0.1
        )
        assert res.normalization_deficit < BENCH.pert_tol

    def test_band_invariance(self):
        vals = ps.band_invariance_sweep(BENCH, shifts=(0.0, 0.3, 0.8))
        spread = (max(vals) - min(vals)) / vals[0]
        assert spread < 1e-4

    def test_alpha_squared_scaling(self):
        p1 = cqi_probability(BENCH)
        p2 = cqi_probability(benchmark_experiment(coupling_alpha=2 * BENCH.coupling_alpha))
        assert p2 / p1 == pytest.approx(4.0, rel=1e-6)

    def test_band_must_follow_region(self):
        with pytest.raises(NumericalValidationError):
            cqi_probability(BENCH, band=(3.0, 3.3))

    @pytest.mark.parametrize("exp", [BENCH, benchmark_experiment(packet_momentum=0.6)])
    def test_batched_band_steps_equal_per_slice_evolution(self, exp):
        band = (exp.band[0] + 0.3, exp.band[1] + 0.3)
        grid, psi_vals, phi_vals = ps._branch_functions(exp, band)
        g = 1.0 / (band[1] - band[0])
        for vals, seed in (
            (psi_vals, evolved_wavefunction(exp, exp.x(), band[0])),
            (phi_vals, first_order_amplitude(exp, exp.x(), band[0])),
        ):
            ref = [spectral_evolve(seed, grid.dx, exp.kernel, float(t - band[0])) for t in grid.t]
            assert_array_equal(vals, np.stack(ref, axis=1) * g)


class TestTwoPoint:
    def test_symmetric_configuration(self):
        rep = two_point_report(two_point_experiment())
        assert 1.99 <= rep.ratio_rr_born <= 2.01
        assert abs(rep.cross_born) < 5e-3
        assert abs(rep.cqi_born_ratio - 1) <= 1e-3
        assert rep.cross_rr_measured == pytest.approx(rep.cross_rr_predicted, rel=1e-3)

    def test_asymmetric_cross_term(self):
        rep = two_point_report(two_point_experiment(packet_momentum=0.15))
        assert abs(rep.cross_rr_measured) < 1.0
        assert rep.cross_rr_measured == pytest.approx(rep.cross_rr_predicted, rel=1e-3)

    def test_kernel_between_points_negligible(self):
        rep = two_point_report(two_point_experiment())
        assert abs(rep.cross_born) < abs(rep.cross_rr_measured) / 100

    def test_needs_two_rectangles(self):
        with pytest.raises(NumericalValidationError):
            two_point_report(BENCH)


class TestShrinkingRegion:
    def test_compensated_ratio_converges(self):
        rows = ps.shrinking_region_sweep(BENCH, steps=5)
        ratios = [r["ratio"] for r in rows]
        diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_raw_ratio_diverges(self):
        rows = ps.shrinking_region_sweep(BENCH, steps=3)
        raw = [r["ratio_raw"] for r in rows]
        assert raw[2] > raw[1] > raw[0]
