import csv
import json
import tracemalloc

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, asdict, fields, replace
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cqi_sim import cli, hilbert, postulates as ps
from cqi_sim.contspace import GridFunction, PropagatorKernel, spectral_evolve
from cqi_sim.errors import InvariantViolation, NumericalValidationError
from cqi_sim.postulates import (
    JointState,
    Rect,
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
    CONTINUUM_BORN,
    CONTINUUM_RR,
    born_double_region_gauss,
    carrier_rate_readout_grid,
    covariant_partial_trace_schmidt,
    evolved_by_quadrature,
    evolved_gaussian,
    readout_norms,
    rr_probability_continuum,
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

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_packet_width_must_be_positive(self, width):
        with pytest.raises(NumericalValidationError, match="packet_width"):
            benchmark_experiment(packet_width=width)
        with pytest.raises(NumericalValidationError, match="packet_width"):
            two_point_experiment(packet_width=width)

    @pytest.mark.parametrize(
        "region",
        [
            (Rect(-0.5, 0.5, 3.0, 3.2), Rect(-0.5, 0.5, 3.0, 3.2)),
            (Rect(-0.5, 0.5, 3.0, 3.2), Rect(0.0, 1.0, 3.1, 3.3)),
            (Rect(-1.0, 1.0, 3.0, 3.3), Rect(-0.1, 0.1, 3.1, 3.2)),
            (Rect(2.0, 3.0, 3.0, 3.2), Rect(-0.5, 0.5, 3.0, 3.2), Rect(0.4, 0.6, 3.1, 3.15)),
        ],
        ids=["twice", "partial", "inside", "third"],
    )
    def test_overlapping_rectangles_rejected(self, region):
        # an overlap would count the common part twice on every route
        last = len(region) - 1
        with pytest.raises(NumericalValidationError, match=f"{last - 1} and {last} overlap"):
            benchmark_experiment(region=region)

    @pytest.mark.parametrize(
        "region",
        [
            (Rect(-0.5, 0.5, 3.0, 3.2), Rect(0.5, 1.0, 3.0, 3.2)),
            (Rect(-0.5, 0.5, 3.0, 3.2), Rect(-0.5, 0.5, 3.2, 3.3)),
            (Rect(-0.5, 0.5, 3.0, 3.2), Rect(0.5, 1.0, 3.2, 3.3)),
        ],
        ids=["x-edge", "t-edge", "corner"],
    )
    def test_edge_sharing_rectangles_accepted(self, region):
        assert benchmark_experiment(region=region).region == region

    def test_coincident_two_point_squares_rejected(self):
        with pytest.raises(NumericalValidationError, match="overlap"):
            two_point_experiment(separation=0.0)
        eps = 2.0 * BENCH.dx
        with pytest.raises(NumericalValidationError, match="overlap"):
            two_point_experiment(separation=0.49 * eps)
        assert len(two_point_experiment(separation=0.5 * eps).region) == 2  # they share an edge


class TestDetectorInputs:
    """Each input stated once: the squares by ``eps_pt``, the band slices by
    the refine level."""

    @pytest.mark.parametrize(
        "grid",
        [{"nx": 64}, {"nx": 256}, {"nx": 512}, {"nx": 1024}, {"x_min": -30.0, "x_max": 25.0}],
        ids=["nx64", "nx256", "nx512", "nx1024", "x-range"],
    )
    def test_two_point_squares_independent_of_grid(self, grid):
        want = two_point_experiment()
        exp = two_point_experiment(**grid)
        assert exp.region == want.region
        assert (exp.readout_time, exp.band) == (want.readout_time, want.band)
        for r in exp.region:  # two steps of the default grid
            assert r.x_hi - r.x_lo == pytest.approx(80.0 / 511, rel=1e-12, abs=0)

    def test_explicit_eps_pt_honoured(self):
        exp = two_point_experiment(eps_pt=0.15, t1=3.0, nx=1024)
        for r in exp.region:
            assert r.x_hi - r.x_lo == pytest.approx(0.15, rel=1e-12, abs=0)
            assert (r.t_lo, r.t_hi) == (3.0, 3.15)
        assert exp.readout_time == 3.0 + 0.15 + 0.8
        assert exp.band == (3.0 + 0.15 + 0.3, 3.0 + 0.15 + 0.7)

    @pytest.mark.parametrize("r", range(4))
    def test_band_slices_follow_refine(self, r):
        assert benchmark_experiment(r).band_slices == 9 * 2**r
        assert two_point_experiment(refine=r).band_slices == 9 * 2**r
        assert BENCH.refined(r).band_slices == 9 * 2**r

    def test_band_slices_not_settable(self):
        with pytest.raises(TypeError):
            replace(BENCH, band_slices=18)


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

    @pytest.mark.parametrize(
        "name, make, bounds",
        [
            ("slab", benchmark_experiment, (3e-4, 1e-4, 2.5e-5)),
            ("two-point", lambda r: two_point_experiment(refine=r), (3e-4, 2.5e-4, 7e-5)),
        ],
    )
    def test_error_against_continuum(self, name, make, bounds):
        # the slice route's true error, measured -2.81e-4, -9.25e-5, -2.34e-5 (slab)
        # and -2.82e-4, -2.28e-4, -6.21e-5 (two-point) at refine 0-2; the slab's falls
        # 3.0x then 4.0x per refine, the two-point's only 1.2x from refine 0 to 1 (there
        # _t_density_for leaves the source times under-resolved), so none is asserted there
        err = [born_probability(make(r)) / CONTINUUM_BORN[name] - 1.0 for r in range(3)]
        assert all(e < 0 for e in err)
        assert all(abs(e) <= b for e, b in zip(err, bounds))
        falls = [coarse / fine for coarse, fine in zip(err, err[1:])]
        if name == "slab":
            assert all(2.9 <= f <= 4.2 for f in falls)
        else:
            assert 3.0 <= falls[1] <= 4.2

    def test_cross_check_failure_names_both_values(self, monkeypatch):
        p_slice = ps._born_slice_norm(BENCH)
        monkeypatch.setattr(
            ps, "_born_double_region", lambda exp: p_slice * (1 + 2 * exp.xcheck_tol)
        )
        with pytest.raises(NumericalValidationError) as err:
            born_probability(BENCH)
        msg = str(err.value)
        assert "Born cross-check failed at refine level 0" in msg
        assert f"{p_slice:.6g}" in msg and f"{p_slice * 1.002:.6g}" in msg
        assert "tolerance 0.001" in msg

    def test_no_double_region_without_xcheck(self, monkeypatch):
        p_slice = born_probability_detail(BENCH).p_slice

        def fail(exp):
            raise AssertionError("double-region cross-check computed")

        monkeypatch.setattr(ps, "_born_double_region", fail)
        assert ps._born_slice_norm(BENCH) == p_slice
        ps.shrinking_region_sweep(BENCH, steps=2)

    def test_lone_rectangle_makes_the_union_kernel_call(self, monkeypatch):
        calls = []
        real = ps._kernels.propagate
        monkeypatch.setattr(ps._kernels, "propagate", lambda *a: calls.append(a) or real(*a))
        w, phis = ps._readout_branches(BENCH)
        t = BENCH.readout_time
        ((x, t_out, *sources, mass, hbar, eta),) = calls
        assert_array_equal(x, ps._readout_grid(BENCH))
        assert t_out == t
        for got, want in zip(sources, ps._region_sources(BENCH, ps._t_density_for(BENCH, t))):
            assert_array_equal(got, want)
        k = BENCH.kernel
        assert (mass, hbar, eta) == (k.mass, k.hbar, k.regularization_eta)
        assert_array_equal(phis[0], first_order_amplitude(BENCH, x, t))
        assert_array_equal(w, trapezoid_weights(x.size, x[1] - x[0]))

    @pytest.mark.parametrize("exp", [BENCH, two_point_experiment()], ids=["slab", "two-point"])
    def test_readout_edge_margin(self, exp):
        xr = ps._readout_grid(exp)
        amp = np.abs(first_order_amplitude(exp, xr, exp.readout_time))
        detail = born_probability_detail(exp)
        want = max(amp[0], amp[-1]) / amp.max()
        assert detail.readout_edge_rel == pytest.approx(want, rel=1e-12, abs=0)
        assert 0 < detail.readout_edge_rel < 1e-3

    def test_zero_coupling_detail(self):
        detail = born_probability_detail(two_point_experiment(coupling_alpha=0.0))
        assert (detail.p_slice, detail.p_slice_rects, detail.readout_edge_rel) == (0, (0, 0), 0)
        assert detail.readout_points == 0  # nothing summed


READOUT_CASES = {
    **{f"slab-refine{r}": benchmark_experiment(r) for r in range(3)},
    **{f"two-point-refine{r}": two_point_experiment(refine=r) for r in range(3)},
    "slab-momentum": benchmark_experiment(packet_momentum=0.15),
    "two-point-momentum": two_point_experiment(packet_momentum=0.15),
    "slab-nx64": benchmark_experiment(nx=64),
    "two-point-separation4": two_point_experiment(separation=4.0),
}


class TestReadoutGrid:
    """The readout slice samples |phi|^2, of bandwidth 2 x 2.5 k_phys, at steps of
    pi / (2.5 k_phys); the carrier-rate slice, which resolves phi itself at about
    twice the points, is the oracle, with the same kernel sums on it."""

    @pytest.mark.parametrize("exp", READOUT_CASES.values(), ids=READOUT_CASES.keys())
    def test_norms_match_carrier_rate_grid(self, exp):
        # measured: at most 2.4e-9 relative, on a two-point square at refine 2
        xr, fine = ps._readout_grid(exp), carrier_rate_readout_grid(exp)
        assert fine.size >= 1.9 * xr.size
        p, rects = readout_norms(exp, xr)
        p_ref, rects_ref = readout_norms(exp, fine)
        assert p == pytest.approx(p_ref, rel=1e-8, abs=0)
        assert rects == pytest.approx(rects_ref, rel=1e-8, abs=0)
        detail = born_probability_detail(exp)
        got = (detail.p_slice, *detail.p_slice_rects)
        assert got == pytest.approx((p, *rects), rel=1e-14, abs=0)
        assert detail.readout_points == xr.size

    @pytest.mark.parametrize("exp", READOUT_CASES.values(), ids=READOUT_CASES.keys())
    def test_step_resolves_the_norm(self, exp):
        xr = ps._readout_grid(exp)
        assert_allclose(np.diff(xr), xr[1] - xr[0], rtol=1e-9)
        assert xr[1] - xr[0] <= np.pi / (2.5 * exp.resolution.physical_k)

    @pytest.mark.parametrize(
        "build",
        [benchmark_experiment, lambda **kw: two_point_experiment(eps_pt=0.15, **kw)],
        ids=["slab", "two-point"],
    )
    def test_independent_of_nx_and_refine(self, build):
        want = ps._readout_grid(build())
        for nx in (64, 128, 1024):
            assert_array_equal(ps._readout_grid(build(nx=nx)), want)
        for r in (1, 2):
            assert_array_equal(ps._readout_grid(build(refine=r)), want)


def run_detector(tmp_path, kind, refine=0, grid=None):
    """(JSON diagnostics levels, CSV rows) of a detector config run through ``cli.run``."""
    cfg = {"kind": kind, "output": {"path": "o"}, **({"grid": grid} if grid else {})}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    cli.run(path, refine=refine, out_dir=tmp_path)
    levels = json.loads((tmp_path / "o.json").read_text())["diagnostics"]["levels"]
    lines = (tmp_path / "o.csv").read_text().splitlines()
    return levels, list(csv.DictReader(line for line in lines if not line.startswith("#")))


TWO_POINT_FAR = two_point_experiment(separation=4.0)  # read at time density 3


class TestResolution:
    """``resolve`` makes every discretization choice of an experiment once; each stage
    reads its sizes from that record, and each detector level's JSON reports it."""

    @pytest.mark.parametrize(
        "kind, build, grid",
        [
            ("detector-compare", benchmark_experiment, {}),
            ("two-point", two_point_experiment, {}),
            ("detector-compare", benchmark_experiment, {"nx": 64}),
            ("detector-compare", benchmark_experiment, {"nx": 128}),
        ],
        ids=["slab", "two-point", "slab-nx64", "slab-nx128"],
    )
    def test_json_records_each_level(self, tmp_path, kind, build, grid):
        levels, _ = run_detector(tmp_path, kind, refine=2, grid=grid)
        assert [lv["refine"] for lv in levels] == [0, 1, 2]
        for lv in levels:
            record = build(refine=lv["refine"], **grid).resolution
            assert lv["resolution"] == json.loads(json.dumps(asdict(record)))

    @pytest.mark.parametrize(
        "exp",
        [BENCH, benchmark_experiment(1), two_point_experiment(), TWO_POINT_FAR],
        ids=["slab", "slab-refine1", "two-point", "two-point-separation4"],
    )
    def test_stage_sizes_follow_the_record(self, monkeypatch, exp):
        res = exp.resolution
        xr = ps._readout_grid(exp)
        assert (xr[0], xr[-1], xr.size) == res.readout
        for density in {1, 3, res.t_density}:
            x, t, amp = ps._region_sources(exp, density)
            want = sum(nqx * ((nqt - 1) * density + 1) for nqx, nqt in res.sources)
            assert x.size == t.size == amp.size == want
        for i, nodes in enumerate(res.sources):
            assert tuple(a.size for a in ps._rect_subgrid(exp, i)[:2]) == nodes
        assert ps._spectral_k(exp)[0].size == res.spectral_n
        seen = []  # the x then t nodes of each rectangle, as the Filon weights get them
        real = ps._filon_simpson

        def filon_simpson(kappa, y, y_ref):
            seen.append(y.size)
            return real(kappa, y, y_ref)

        monkeypatch.setattr(ps, "_filon_simpson", filon_simpson)
        ps._region_spectrum(exp, 2)
        assert seen == [n for nfx, nft in res.filon for n in (nfx, 2 * (nft - 1) + 1)]

    def test_resolved_once_per_experiment(self, monkeypatch):
        calls = []
        real = ps.resolve
        monkeypatch.setattr(ps, "resolve", lambda exp: calls.append(exp) or real(exp))
        exps = [benchmark_experiment(), benchmark_experiment(1), two_point_experiment()]
        for exp in exps[:2]:
            born_probability_detail(exp)
            cqi_probability_detail(exp)
            rr_probability(exp)
        two_point_report(exps[2])
        assert [id(exp) for exp in calls] == [id(exp) for exp in exps]
        assert exps[0].resolution is exps[0].resolution
        assert "resolution" not in {f.name for f in fields(exps[0])}
        with pytest.raises(FrozenInstanceError):
            exps[0].resolution = exps[1].resolution

    def test_coarse_nx_changes_neither_born_nor_rr(self, tmp_path):
        # below nx = 322 the slab's sources sit on the 33-node floor on both axes and the
        # readout slice follows no grid, so grid.nx moves p_cqi alone
        values = []
        for nx in (64, 128):
            (level,), (row,) = run_detector(tmp_path, "detector-compare", grid={"nx": nx})
            assert level["resolution"]["sources"] == [[33, 33]]
            values.append((row["p_born"], row["p_rr"]))
        assert values[0] == values[1]
        want = (2.2806340793912244e-07, 0.0027674956693593323)
        assert tuple(map(float, values[0])) == pytest.approx(want, rel=1e-12, abs=0)


TWO_GRIDS = benchmark_experiment(
    region=(Rect(-0.5, 0.5, 3.0, 3.2), Rect(1.0, 1.5, 3.3, 3.6)), band=(3.7, 3.95)
)
ORACLE_CASES = {
    **{f"slab-refine{r}": benchmark_experiment(r) for r in range(3)},
    **{f"two-point-refine{r}": two_point_experiment(refine=r) for r in range(3)},
    "slab-momentum": benchmark_experiment(packet_momentum=0.6),
    "two-point-momentum": two_point_experiment(packet_momentum=0.15),
    "two-grids": TWO_GRIDS,
    "shifted": shifted(BENCH, 50.0),
}
# at nx 64, 128 and 322 the wavenumbers run on past the grid's Nyquist, up to
# the readout slice's, so the value does not depend on nx
CONTINUUM_CASES = {
    **{f"slab-refine{r}": ("slab", benchmark_experiment(r)) for r in range(3)},
    **{f"two-point-refine{r}": ("two-point", two_point_experiment(refine=r)) for r in range(3)},
    **{f"slab-nx{n}": ("slab", benchmark_experiment(nx=n)) for n in (64, 128, 322)},
}


def gauss_legendre(f, lo, hi, panels=400, nodes=20):
    """Composite Gauss-Legendre quadrature of f over [lo, hi]."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    pts = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * s
    return np.sum(half * w * f(pts))


class TestDoubleRegion:
    """The Filon-Simpson double-region sum against composite Gauss-Legendre
    quadrature of the same S(k), and against the continuum values."""

    @pytest.mark.parametrize(
        "theta",
        [0.0, 1e-8, -1e-8, 1e-4, -1e-4, 1e-2, -1e-2, 0.1, 0.5, -0.5, 1.0, -1.0, 1e3, -1e3],
    )
    def test_filon_weights_match_gauss_legendre(self, theta):
        # |theta| = 1 is where the moments switch from their Taylor series
        quadratics = [
            lambda s: (s - 1) * (s - 2) / 2,
            lambda s: s * (2 - s),
            lambda s: s * (s - 1) / 2,
        ]
        want = [
            gauss_legendre(lambda s: q(s) * np.exp(1j * theta * s), 0.0, 2.0) for q in quadratics
        ]
        assert_allclose(ps._filon_panel(np.array([theta]))[:, 0], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exp", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_gauss_legendre_oracle(self, exp):
        k, length = ps._spectral_k(exp)
        want = born_double_region_gauss(exp, k, length)
        assert ps._born_double_region(exp) == pytest.approx(want, rel=1e-5, abs=0)

    @pytest.mark.parametrize(
        "name, exp",
        [("slab", BENCH), ("two-point", two_point_experiment(refine=1))],
        ids=["slab", "two-point"],
    )
    def test_oracle_reaches_continuum(self, name, exp):
        # twice the grid's wavenumber range and period: |k| <= 80 and 160
        k = 2.0 * np.pi * np.fft.fftfreq(4 * exp.nx, exp.dx / 2)
        got = born_double_region_gauss(exp, k, 2 * exp.nx * exp.dx)
        assert got == pytest.approx(CONTINUUM_BORN[name], rel=1e-8, abs=0)

    @pytest.mark.parametrize(
        "name, exp", CONTINUUM_CASES.values(), ids=CONTINUUM_CASES.keys()
    )
    def test_near_continuum(self, name, exp):
        assert ps._born_double_region(exp) == pytest.approx(
            CONTINUUM_BORN[name], rel=1e-5, abs=0
        )

    @pytest.mark.parametrize("exp", [BENCH, two_point_experiment()], ids=["slab", "two-point"])
    def test_node_doubling(self, exp):
        got = ps._born_double_region_raw(exp, 2)
        assert got == pytest.approx(ps._born_double_region_raw(exp, 1), rel=1e-5, abs=0)

    def test_memory_grows_linearly_with_the_grid(self):
        # one (wavenumbers x nodes) weight array per rectangle: a grid-wide
        # rectangle may need 4x the memory at 4x the grid, not 16x
        peaks = []
        for r in (0, 2):
            exp = benchmark_experiment(r, region=(Rect(-19, 19, 3.0, 3.2),))
            tracemalloc.start()
            try:
                ps._born_double_region(exp)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] / peaks[0] <= 5.0


class TestDoubleRegionLadder:
    """The slices of the Filon-Simpson sum."""

    def test_each_slice_evolved_once(self, monkeypatch):
        seen = []
        real = ps.evolved_wavefunction

        def spy(exp, x, t):
            seen.extend((tuple(np.atleast_1d(x)), float(s)) for s in np.atleast_1d(t))
            return real(exp, x, t)

        monkeypatch.setattr(ps, "evolved_wavefunction", spy)
        exp = two_point_experiment()
        ps._born_double_region(exp)
        assert len(seen) == len(set(seen)) == 2 * 7  # the 7 t nodes of each square, once


class TestRrProbability:
    def test_alpha_independent(self):
        p1 = rr_probability(BENCH)
        p2 = rr_probability(benchmark_experiment(coupling_alpha=2 * BENCH.coupling_alpha))
        assert p2 == pytest.approx(p1, rel=1e-12, abs=0)

    def test_small_region_value(self):
        # tiny region: |int Psi|^2 / meas ~ |Psi(center)|^2 * meas
        rect = Rect(-0.05, 0.05, 3.0, 3.01)
        exp = benchmark_experiment(region=(rect,), band=(3.3, 3.7))
        p = rr_probability(exp)
        psi_c = evolved_gaussian(0.0, 3.005, -5.0, 1.0)
        # finite-size corrections of the box enter at (h d(ln psi)/dx)^2
        assert p == pytest.approx(abs(psi_c) ** 2 * rect.measure, rel=5e-3)

    @pytest.mark.parametrize(
        "name, exp",
        [
            ("slab", BENCH),
            ("two-point", two_point_experiment()),
            ("two-point-p", two_point_experiment(packet_momentum=0.15)),
        ],
    )
    def test_continuum_oracle(self, name, exp):
        # closed-form x integral, Gauss-Legendre in t: node doubling changes nothing
        p32, p64 = rr_probability_continuum(exp), rr_probability_continuum(exp, nodes=64)
        assert p64 == pytest.approx(p32, rel=2e-15, abs=0)
        assert p32 == pytest.approx(CONTINUUM_RR[name], rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "name, make, bound",
        [
            ("slab", benchmark_experiment, 1.5e-4),
            ("two-point", lambda r: two_point_experiment(refine=r), 2.5e-6),
            (
                "two-point-p",
                lambda r: two_point_experiment(refine=r, packet_momentum=0.15),
                2.5e-6,
            ),
        ],
    )
    def test_second_order_against_continuum(self, name, make, bound):
        # the tensor trapezoid sum errs at O(h^2): measured -1.25e-4, -3.06e-5,
        # -7.57e-6 (slab) and -2.00e-6, -4.84e-7, -1.19e-7 (two-point) at refine 0-2
        ref = CONTINUUM_RR[name]
        err = [rr_probability(make(r)) / ref - 1.0 for r in range(3)]
        assert all(e < 0 for e in err) and abs(err[0]) <= bound
        for coarse, fine in zip(err, err[1:]):
            assert 3.8 <= coarse / fine <= 4.3


def _joint_state_on_slice(exp, t):
    x = exp.x()
    psi = evolved_wavefunction(exp, x, t)
    phi = first_order_amplitude(exp, x, t)
    vals = np.zeros((exp.nx, 1, 4), dtype=complex)
    vals[:, 0, 0] = psi
    vals[:, 0, 3] = phi
    return JointState(x, np.array([t]), vals, (2, 2))


def _joint_state_on_band(exp):
    grid, psi_vals, phi_vals = ps._branch_functions(exp)
    vals = np.zeros((exp.nx, exp.band_slices, 4), dtype=complex)
    vals[:, :, 0] = psi_vals
    vals[:, :, 3] = phi_vals
    return JointState(grid.x, grid.t, vals, (2, 2))


class TestCovariantPartialTrace:
    def test_slice_region_reduces_to_ordinary_trace(self):
        joint = _joint_state_on_slice(BENCH, 3.6)
        red = covariant_partial_trace(joint, BENCH.kernel)
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
        red = covariant_partial_trace(joint, BENCH.kernel)
        assert red.schmidt_rank == 1
        assert hilbert.von_neumann_entropy(red.rho) == pytest.approx(0.0, abs=1e-9)

    def test_band_matches_slice(self):
        joint_b = _joint_state_on_band(BENCH)
        red_b = covariant_partial_trace(joint_b, BENCH.kernel)
        joint_s = _joint_state_on_slice(BENCH, BENCH.band[0])
        red_s = covariant_partial_trace(joint_s, BENCH.kernel)
        assert hilbert.trace_distance(red_b.rho, red_s.rho) < 1e-4

    def test_gram_assembly_matches_pairwise_products(self):
        # oracle: rho[a, b] = <Phi_b | P | Phi_a> from the branch functions
        # directly, without any Schmidt decomposition
        from cqi_sim.contspace import Grid, physical_inner_product

        exp = BENCH
        joint = _joint_state_on_band(exp)
        red = covariant_partial_trace(joint, exp.kernel)
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

    def test_normalization_failure_rejected(self):
        joint = _joint_state_on_slice(BENCH, 3.6)
        bad = JointState(joint.x, joint.t, joint.values * 2.0, joint.obs_dims)
        with pytest.raises(NumericalValidationError):
            covariant_partial_trace(bad, BENCH.kernel)

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
        collapse = ps.spectral_collapse
        monkeypatch.setattr(
            ps, "spectral_collapse", lambda v, *a: shapes.append(v.shape) or collapse(v, *a)
        )
        red = covariant_partial_trace(joint, BENCH.kernel)
        live = [0, 2, 3] if touched else [0, 3]
        assert shapes == [(len(live), BENCH.band_slices, BENCH.nx)]
        dead = [a for a in range(4) if a not in live]
        assert np.all(red.rho.matrix[dead, :] == 0) and np.all(red.rho.matrix[:, dead] == 0)
        rho_raw, rank = covariant_partial_trace_schmidt(joint, BENCH.kernel)
        assert red.schmidt_rank == rank
        assert abs(red.trace_raw - np.trace(rho_raw).real) <= 1e-13

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_from_r_factor_equals_svd_rank(self, rank, seed):
        # four components mixed from `rank` random functions: the singular values of
        # the d x d R factor are those of the wide weighted matrix
        rng = np.random.default_rng(seed)
        nx, nt = 96, 7
        basis = rng.standard_normal((rank, nx, nt)) + 1j * rng.standard_normal((rank, nx, nt))
        coef = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        values = np.einsum("ar,rxt->xta", coef, basis)
        joint = JointState(np.linspace(-3.0, 3.0, nx), np.linspace(4.0, 4.6, nt), values, (4,))
        red = covariant_partial_trace(joint, BENCH.kernel, norm_tol=np.inf)
        sqw = np.sqrt(np.outer(joint.x_weights(), joint.t_weights())).reshape(-1)
        s = np.linalg.svd(values.reshape(nx * nt, 4).T * sqw, compute_uv=False)
        assert red.schmidt_rank == int(np.sum(s > 1e-12 * s[0])) == rank

    @pytest.mark.parametrize("case", ["r0", "r1", "two-point", "slice"])
    def test_matches_schmidt_oracle(self, case):
        exp = {"r1": benchmark_experiment(1), "two-point": two_point_experiment()}.get(case, BENCH)
        if case == "slice":
            joint = _joint_state_on_slice(exp, 3.6)
        else:
            joint = _joint_state_on_band(exp)
        red = covariant_partial_trace(joint, exp.kernel)
        rho_raw, rank = covariant_partial_trace_schmidt(joint, exp.kernel)
        trace_raw = np.trace(rho_raw).real
        rho = 0.5 * (rho_raw + rho_raw.conj().T) / trace_raw
        assert np.max(np.abs(red.rho.matrix - rho)) <= 1e-12
        assert abs(red.trace_raw - trace_raw) <= 1e-13
        assert red.schmidt_rank == rank


@pytest.fixture(scope="module")
def mixture_basis():
    """Band branch functions of BENCH, each of unit kinematical norm."""
    grid, psi, phi = ps._branch_functions(BENCH)
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
    red = covariant_partial_trace(joint, BENCH.kernel, norm_tol=np.inf)
    m = red.rho.matrix
    assert abs(np.trace(m).real - 1.0) < 1e-12
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-12
    assert red.schmidt_rank == covariant_partial_trace_schmidt(joint, BENCH.kernel)[1]
    assert red.schmidt_rank == min(d - dependent, 3)

    vals = joint.values[:, j : j + 1, :]
    on_slice = JointState(grid.x, grid.t[j : j + 1], vals, (d,))
    red_s = covariant_partial_trace(on_slice, BENCH.kernel, norm_tol=np.inf)
    amps = (vals[:, 0, :] * np.sqrt(trapezoid_weights(grid.nx, grid.dx))[:, None]).reshape(-1)
    oracle = hilbert.reduced_state(hilbert.Ket(amps / np.linalg.norm(amps), (grid.nx, d)), {1})
    assert np.max(np.abs(red_s.rho.matrix - oracle.matrix)) < 1e-12


class TestCqiProbability:
    def test_agrees_with_born(self):
        res = cqi_probability_detail(BENCH)
        p_born = born_probability(BENCH)
        assert abs(res.p_cqi / p_born - 1) <= 1e-3

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

    def test_band_invariance_sweep_shifts_the_experiment(self):
        shifts = (0.0, 0.3, 0.8)
        b0, b1 = BENCH.band
        want = [cqi_probability(replace(BENCH, band=(b0 + s, b1 + s))) for s in shifts]
        assert ps.band_invariance_sweep(BENCH, shifts) == want

    def test_alpha_squared_scaling(self):
        p1 = cqi_probability(BENCH)
        p2 = cqi_probability(benchmark_experiment(coupling_alpha=2 * BENCH.coupling_alpha))
        assert p2 / p1 == pytest.approx(4.0, rel=1e-6)

    def test_band_must_follow_region(self):
        with pytest.raises(NumericalValidationError):
            cqi_probability(replace(BENCH, band=(3.0, 3.3)))

    @pytest.mark.parametrize(
        "exp", [BENCH, two_point_experiment(packet_momentum=0.15)], ids=["slab", "two-point"]
    )
    def test_observer_off_diagonals_exactly_zero(self, exp):
        m = cqi_probability_detail(exp).rho_observer.matrix
        assert m[0, 1] == m[1, 0] == 0

    def test_nonzero_observer_off_diagonal_raises(self, monkeypatch):
        real = hilbert.partial_trace

        def leaky(rho, keep):
            out = real(rho, keep)
            leak = 1e-12 * np.array([[0, 1], [1, 0]])
            return hilbert.DensityOp(out.matrix + leak, out.factor_dims)

        monkeypatch.setattr(ps.hilbert, "partial_trace", leaky)
        with pytest.raises(InvariantViolation, match="off-diagonal"):
            cqi_probability_detail(BENCH)

    @pytest.mark.parametrize("exp", [BENCH, benchmark_experiment(packet_momentum=0.6)])
    def test_batched_band_steps_equal_per_slice_evolution(self, exp):
        band = (exp.band[0] + 0.3, exp.band[1] + 0.3)
        exp = replace(exp, band=band)
        grid, psi_vals, phi_vals = ps._branch_functions(exp)
        g = 1.0 / (band[1] - band[0])
        for vals, seed in (
            (psi_vals, evolved_wavefunction(exp, exp.x(), band[0])),
            (phi_vals, ps._spectral_branch(exp, band[0])),
        ):
            ref = [spectral_evolve(seed, grid.dx, exp.kernel, float(t - band[0])) for t in grid.t]
            assert_array_equal(vals, np.stack(ref, axis=1) * g)

    @pytest.mark.parametrize(
        "exp, tol",
        [
            (BENCH, 1e-3),
            (benchmark_experiment(1), 1e-3),
            (benchmark_experiment(2), 1e-3),
            (benchmark_experiment(packet_momentum=0.6), 1e-3),
            (benchmark_experiment(nx=64), 1e-3),
            (benchmark_experiment(nx=128), 1e-3),
            (benchmark_experiment(kernel=PropagatorKernel(regularization_eta=1e-3)), 1e-3),
            (two_point_experiment(), 5e-3),
            (two_point_experiment(packet_momentum=0.15), 5e-3),
        ],
        ids=["r0", "r1", "r2", "momentum", "nx64", "nx128", "eta", "two-point", "two-point-p"],
    )
    def test_spectral_seed_matches_kernel_sum(self, exp, tol):
        # the band seed from S(k) against the x-space kernel sum at band[0];
        # nx 64 and 128 fold wavenumbers past the grid's Nyquist, eta > 0
        # takes the dense sum and the damping factor exp(-omega eta)
        seed = ps._spectral_branch(exp, exp.band[0])
        ref = first_order_amplitude(exp, exp.x(), exp.band[0])
        assert np.linalg.norm(seed - ref) <= tol * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "name, exp, tol",
        [
            *(("slab", benchmark_experiment(r), 1e-5) for r in range(3)),
            *(("two-point", two_point_experiment(refine=r), 5e-5) for r in range(3)),
            ("slab", benchmark_experiment(nx=64), 1e-4),
            ("slab", benchmark_experiment(nx=128), 1e-4),
        ],
        ids=["slab-r0", "slab-r1", "slab-r2", "two-r0", "two-r1", "two-r2", "nx64", "nx128"],
    )
    def test_near_continuum(self, name, exp, tol):
        # trace_raw = |psi|^2 + |phi|^2 normalizes p_cqi: its continuum value is p / (1 + p)
        p = CONTINUUM_BORN[name]
        assert cqi_probability(exp) == pytest.approx(p / (1.0 + p), rel=tol, abs=0)

    def test_one_region_spectrum_per_experiment(self):
        # the double-region check and the band seed share one cached S(k); the
        # cache is keyed by the experiment object, so an equal copy misses once
        for exp in (BENCH, two_point_experiment(), replace(BENCH)):
            born_probability_detail(exp)
            cqi_probability_detail(exp)
        info = ps._region_spectrum.cache_info()
        assert (info.misses, info.hits) == (3, 6)

    def test_cached_spectrum_is_read_only(self):
        k, spec, _ = ps._region_spectrum(BENCH, 1)
        for a in (k, spec):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @pytest.mark.parametrize("nx", [48, 64, 128, 512])
    def test_band_fold_rel(self, nx):
        # share of sum |S|^2 past the band grid's Nyquist pi / dx; reads 0.11, 0.026,
        # 3.5e-4 and 2.5e-7 on the slab
        exp = benchmark_experiment(nx=nx)
        k, spec, _ = ps._region_spectrum(exp, 1)
        power = np.abs(spec) ** 2
        ref = power[np.abs(k) > np.pi / exp.dx * (1 + 1e-12)].sum() / power.sum()
        got = cqi_probability_detail(exp).band_fold_rel
        assert got == pytest.approx(ref, rel=1e-12, abs=0) and got <= exp.fold_tol
        assert cqi_probability_detail(benchmark_experiment(1)).band_fold_rel == 0.0

    @pytest.mark.parametrize("nx", [16, 24, 32])
    def test_coarse_band_grid_raises(self, nx):
        # p_cqi would err by -9.6e-2, +2.5e-2 and -3.7e-3 here
        with pytest.raises(NumericalValidationError, match=f"nx = {nx} folds 0.[3-6]"):
            cqi_probability_detail(benchmark_experiment(nx=nx))

    def test_no_kernel_sum(self, monkeypatch):
        def fail(*args):
            raise AssertionError("kernel sum called")

        monkeypatch.setattr(ps._kernels, "propagate", fail)
        monkeypatch.setattr(ps._kernels, "propagate_numpy", fail)
        for exp in (BENCH, two_point_experiment()):
            cqi_probability_detail(exp)


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

    @pytest.mark.parametrize("separation", [2.0, 4.0])
    def test_rect_branches_add_to_union_amplitude(self, separation):
        exp = two_point_experiment(separation=separation)
        _, phis = ps._readout_branches(exp)
        t, k = exp.readout_time, exp.kernel
        union = ps._kernels.propagate(
            ps._readout_grid(exp),
            t,
            *ps._region_sources(exp, ps._t_density_for(exp, t)),
            k.mass,
            k.hbar,
            k.regularization_eta,
        ) * (exp.coupling_alpha / (1j * k.hbar))
        assert phis.shape == (2, union.size)
        scale = np.max(np.abs(union))
        assert np.max(np.abs(phis.sum(axis=0) - union)) <= 1e-13 * scale

    def test_union_time_density_differs_from_a_lone_square(self):
        # why each square is summed at the union's density: alone it would
        # take a coarser one, and the branches would not add to the union's
        exp = two_point_experiment(separation=4.0)
        t = exp.readout_time
        assert ps._t_density_for(exp, t) == 3
        for rect in exp.region:
            assert ps._t_density_for(replace(exp, region=(rect,)), t) == 2

    def test_cross_born_from_branches(self):
        exp = two_point_experiment()
        w, (phi_a, phi_b) = ps._readout_branches(exp)
        n_a, n_b = np.sum(w * np.abs(phi_a) ** 2), np.sum(w * np.abs(phi_b) ** 2)
        cross = 2.0 * np.sum(w * np.conj(phi_a) * phi_b).real / (n_a + n_b)
        assert abs(two_point_report(exp).cross_born - cross) <= 1e-12

    def test_p_born_is_slice_norm(self):
        exp = two_point_experiment()
        assert two_point_report(exp).p_born == pytest.approx(ps._born_slice_norm(exp), rel=1e-14, abs=0)

    def test_one_kernel_sum_per_rectangle(self, monkeypatch):
        # two readout sums, one per square; the union's readout is their
        # sum, not a third readout, and the band seed takes none
        calls = []
        real = ps._kernels.propagate
        monkeypatch.setattr(ps._kernels, "propagate", lambda *a: calls.append(a) or real(*a))
        two_point_report(two_point_experiment())
        assert len(calls) == 2


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
