"""Benchmark the propagator kernels: chirp-z slice transform vs dense sum.

Run:  python benchmarks/bench_kernels.py

``propagate`` is timed against the dense ``propagate_numpy`` on two
shapes of the detector pipeline: the Born readout (682 outputs x 60
uniform source slices of 66 points) and one evolved-wavefunction call
(61 outputs x one prepared slice of 1024 points).  The sources go in as
a (rows, n) block, the one form that reaches the chirp-z sum, and the
dense sum gets the same points flattened.  Each line reports the best of
three timings of both paths and their max relative deviation.  The
script exits 1 when a chirp-z line did not run ``_kernels._chirp_rows``,
since that line would then time the dense sum against itself.
The readout's convolution chirp exp(i r q^2) spans the FFT length, from
lag q = -(n - 1) (60 rows x 750 lags), and is timed as one complex
``np.exp`` per element against the recurrence of ``_kernels._chirp``, with
their max deviation; at these arguments (up to 400 rad) that is mostly the
rounding of the exp arguments.  ``double_quad`` is timed on a 3919 x 3919
pair sum of scattered points (the dense sum), and on the band of
``tests/test_contspace.py``'s eta-halving test (its support block of
``GridFunction.amplitudes``, rows x columns from ``GridFunction.support``,
as the direct physical inner product hands it over, eta = 0.01) by both
paths: the dense sum of the block's points flattened and the lag
convolution of the block, with their relative deviation.  The script
exits 1 when the block did not take the lag convolution (one
``propagate_numpy`` call from a single source, the lag table).  The
direct physical inner product itself is timed on the two single slices
30 steps apart of ``test_direct_method_agrees_disjoint``, at the default
eta (1e-3 dt) and at eta = 0, where each state reaches ``double_quad`` as
its own (1, columns) support block.

The Born readout itself, the kernel sums of ``postulates._readout_branches``
(one per rectangle) and the slice norm p_slice, by ``readout_norms`` of
``tests/oracles.py``, is timed on the slab at refine 0, 1 and 2 and on
two-point at refine 0, on its own grid (steps pi / (2.5 k_phys), which
resolve |phi|^2) and on the carrier-rate grid of ``tests/oracles.py``
(steps min(pi / (5 k_phys), dx), which resolve phi), with both point
counts and the relative difference of p_slice.

The Born double-region sum ``postulates._born_double_region_raw``
(Filon-Simpson, density 1) is timed on ``two_point_experiment()`` and on
``benchmark_experiment`` at refine 1 and 2, with its (x nodes x t nodes)
per rectangle (``Resolution.filon``), its wavenumber count and its
relative deviation from the composite Gauss-Legendre oracle of
``tests/oracles.py`` on the same wavenumbers (about 0.5 s at refine 2);
each timing builds S(k) afresh.

The region spectrum S(k) itself, cold (``postulates._region_spectrum``
with its cache cleared), is timed on the slab at refine 0 and 1 and on
two-point against ``region_spectrum_full`` of ``tests/oracles.py``, which
builds the Filon-Simpson tables on every wavenumber instead of on the
n // 2 + 1 bins k >= 0 and mirroring them; the max |deviation| must be 0.

The band's two seeds ``postulates._band_seeds``, the Fourier coefficients
of both branches at band[0] (warm, with S(k) cached from the
double-region sum, as in a detector pass), on the slab at refine 0 and 1
and on two-point, on S(k)'s grid of ``Resolution.spectral_n`` points,
with the L2 relative distance of the |1> seed (taken to x) to the
kernel-sum seed ``first_order_amplitude(exp, grid.x, band[0])`` and that
kernel sum's own time.

On ``two_point_experiment()``, the prepared state on the region slices
(``Resolution.sources``) at time density 8 by kernel quadrature of psi0
(one ``propagate`` call per region slice, psi0 as a one-row block, so
the chirp-z sum; the script exits 1 if it is not) against the closed
form of ``evolved_wavefunction``.

Last, the covariant partial trace of the band joint state of
``benchmark_experiment(refine)`` at refine 0, 1 and 2: the Schmidt
decomposition with per-slice collapse of ``tests/oracles.py`` against
the d x d physical Gram matrix of ``postulates.covariant_partial_trace``,
with the max deviation of the normalized density matrices; then the x
route (the band's x view by ``_branch_functions``, then that trace)
against the whole of ``cqi_probability_detail``, the seed route, which
traces the two seeds at band[0] as one slice (P collapses the free band
onto it), with its guards and observer algebra.
The collapse inside it is timed on its own at refine 1 and 3: every band
slice of both branches evolved to the last slice (one batched
``spectral_evolve``) and summed with the trapezoid weights, against
``contspace.spectral_collapse_k`` between one FFT and one inverse FFT per
branch, which sums the weighted slices in k-space, with their max
relative deviation.

Finally the finite suite's sample sweeps, per-sample loops of
``tests/oracles.py`` against the batched paths: the EPR no-communication
check over 500 Haar unitaries (``configs/epr.json``) and the general
interaction probe over 50 cases (``configs/chain.json``), each with its
max deviation.
"""

import sys
import time

import numpy as np

sys.path.insert(0, "src")
sys.path.insert(0, "tests")

from cqi_sim import _kernels, chain, contspace, epr, postulates  # noqa: E402
from cqi_sim.utils import haar_unitary, trapezoid_weights  # noqa: E402
from oracles import (  # noqa: E402
    born_double_region_gauss,
    carrier_rate_readout_grid,
    covariant_partial_trace_schmidt,
    general_interaction_probe_loop,
    no_communication_loop,
    readout_norms,
    region_spectrum_full,
)


def timed(fn, *args, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def spied(name, fn, *args):
    """The argument tuples of the ``_kernels.<name>`` calls made by one run of fn(*args)."""
    real, calls = getattr(_kernels, name), []
    setattr(_kernels, name, lambda *a: calls.append(a) or real(*a))
    try:
        fn(*args)
    finally:
        setattr(_kernels, name, real)
    return calls


def reaches_chirp_rows(fn, *args):
    """Run fn(*args) once; exit 1 if it did not run ``_kernels._chirp_rows``."""
    if not spied("_chirp_rows", fn, *args):
        sys.exit(f"{fn.__name__}: the chirp-z sum _kernels._chirp_rows did not run")


def slices(rng, n_slices, n, t_lo, t_hi):
    """A (n_slices, n) block: uniform x over [-0.5, 0.5] at n_slices times in [t_lo, t_hi]."""
    x = np.tile(np.linspace(-0.5, 0.5, n), (n_slices, 1))
    t = np.repeat(np.linspace(t_lo, t_hi, n_slices)[:, None], n, axis=1)
    amp = (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)) * 1e-3
    return x, t, amp


def compare(label, args):
    """``propagate`` on the (rows, n) source block of args against the dense sum of its points."""
    n_out, n_src = args[0].size, args[2].size
    print(f"propagate, {label}: {n_out} outputs x {n_src} sources")
    reaches_chirp_rows(_kernels.propagate, *args)
    flat = (*args[:2], *(a.ravel() for a in args[2:5]), *args[5:])
    ref, t_dense = timed(_kernels.propagate_numpy, *flat)
    out, t_czt = timed(_kernels.propagate, *args)
    err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
    print(f"  dense sum : {t_dense * 1e3:9.2f} ms")
    print(f"  chirp-z   : {t_czt * 1e3:9.2f} ms   speedup {t_dense / t_czt:.1f}x"
          f"   max rel deviation {err:.1e}")


def compare_chirp(x_out, t_out, x_src, t_src):
    """The convolution chirp exp(i r q^2) of ``compare``'s readout call over its FFT
    length from q = -(n - 1), one row per source slice of n points, r = D d / (2 (t_out
    - t)) at m = hbar = 1."""
    r = 0.5 / (t_out - t_src[:, :1]) * (x_out[1] - x_out[0]) * (x_src[:, 1:2] - x_src[:, :1])
    n = x_src.shape[1]
    size = _kernels._fast_len(x_out.size + n - 1)
    print(f"chirp, readout convolution: {r.size} rows x {size} lags")
    q = np.arange(size) - (n - 1)
    ref, t_exp = timed(lambda: np.exp(1j * r * (q * q)))
    got, t_rec = timed(_kernels._chirp, r * (n - 1) ** 2, -2.0 * (n - 1) * r, r, size)
    print(f"  np.exp    : {t_exp * 1e3:9.2f} ms")
    print(f"  recurrence: {t_rec * 1e3:9.2f} ms   speedup {t_exp / t_rec:.1f}x"
          f"   max |deviation| {np.max(np.abs(got - ref)):.1e}")


def compare_double_quad(rng):
    n_a = n_b = 3919
    xa, ta = rng.uniform(-1, 1, n_a), rng.uniform(3.0, 3.2, n_a)
    aa = rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
    xb, tb = rng.uniform(-1, 1, n_b), rng.uniform(4.0, 4.2, n_b)
    ab = rng.standard_normal(n_b) + 1j * rng.standard_normal(n_b)
    print(f"double_quad, scattered: {n_a} x {n_b} pairs")
    _, t_dq = timed(_kernels.double_quad, xa, ta, aa, xb, tb, ab, 1.0, 1.0, 1e-4)
    print(f"  dense sum : {t_dq:.3f} s")

    # the eta-halving band: a packet smeared over slices 40 .. 52 of a 512 x 81 grid
    kern = contspace.PropagatorKernel()
    grid = contspace.Grid(-20.0, 20.0, 512, 0.0, 4.0, 81)
    psi0 = contspace.gaussian_packet(grid.x, -5, 1.0)
    values = np.zeros((grid.nx, grid.nt), dtype=complex)
    for j in range(40, 53):  # uniform smearing, integral one
        values[:, j] = contspace.spectral_evolve(psi0, grid.dx, kern, grid.t[j])
    values /= grid.t[52] - grid.t[40]
    band = contspace.GridFunction(grid, values)
    rows, cols = band.support()
    x, t = np.broadcast_arrays(grid.x[cols], grid.t[rows, None])
    amp = band.amplitudes()[rows, cols]
    args = (x, t, amp, x, t, amp, kern.mass, kern.hbar, 0.01)
    print(f"double_quad, eta-halving band: a {x.shape} block, {x.size} x {x.size} pairs, eta 0.01")
    if [c[2].size for c in spied("propagate_numpy", _kernels.double_quad, *args)] != [1]:
        sys.exit("double_quad, eta-halving band: the block did not take the lag convolution")
    flat = [a.ravel() for a in args[:6]]
    ref, t_dense = timed(_kernels.double_quad, *flat, *args[6:], repeat=1)
    got, t_lag = timed(_kernels.double_quad, *args)
    print(f"  dense sum  : {t_dense * 1e3:9.2f} ms")
    print(f"  lag convol.: {t_lag * 1e3:9.2f} ms   speedup {t_dense / t_lag:.0f}x"
          f"   rel deviation {abs(got - ref) / abs(ref):.1e}")

    # the direct physical inner product of two single slices 30 steps apart
    a = contspace.GridFunction.on_slice(grid, psi0, 0)
    psi1 = contspace.spectral_evolve(psi0, grid.dx, kern, 1.5)
    b = contspace.GridFunction.on_slice(grid, psi1, 30)
    print("physical inner product, direct, two single slices 30 steps apart:")
    for eta in (None, 0.0):
        val, t_ip = timed(contspace.physical_inner_product, a, b, kern, "direct", eta)
        label = "eta 1e-3 dt" if eta is None else f"eta {eta:g}"
        print(f"  {label:<11}: {t_ip * 1e3:9.2f} ms   |<a|P|b> - 1| {abs(val - 1.0):.1e}")


def compare_readout():
    cases = [(f"slab, refine {r}", postulates.benchmark_experiment(r)) for r in range(3)]
    cases.append(("two-point, refine 0", postulates.two_point_experiment()))
    print("Born readout slice: |phi|^2-rate grid against the carrier-rate grid")
    for label, exp in cases:
        new, carrier = postulates._readout_grid(exp), carrier_rate_readout_grid(exp)
        (p_new, _), t_new = timed(readout_norms, exp, new)
        (p_carrier, _), t_carrier = timed(readout_norms, exp, carrier)
        print(f"  {label:<19}: carrier rate {carrier.size:5d} points {t_carrier * 1e3:7.2f} ms"
              f"   |phi|^2 rate {new.size:5d} points {t_new * 1e3:7.2f} ms"
              f"   p_slice rel difference {p_new / p_carrier - 1.0:+.1e}")


def uncached(fn, *args):
    """fn(*args) with the region-spectrum cache cleared first, so S(k) is built."""
    postulates._region_spectrum.cache_clear()
    return fn(*args)


def time_double_region():
    cases = [
        ("two-point, refine 0", postulates.two_point_experiment()),
        ("slab, refine 1", postulates.benchmark_experiment(1)),
        ("slab, refine 2", postulates.benchmark_experiment(2)),
    ]
    print("double-region sum, Filon-Simpson at density 1, against the Gauss-Legendre oracle")
    for label, exp in cases:
        k, length = postulates._spectral_k(exp)
        got, t_sum = timed(uncached, postulates._born_double_region_raw, exp, 1)
        ref = born_double_region_gauss(exp, k, length)
        shape = " + ".join(f"{nx} x {nt}" for nx, nt in exp.resolution.filon)
        print(f"  {label:<19}: {t_sum * 1e3:9.2f} ms   nodes {shape}, {k.size} k"
              f"   rel deviation {(got - ref) / ref:+.1e}")


def compare_region_spectrum():
    cases = [
        ("slab, refine 0", postulates.benchmark_experiment()),
        ("slab, refine 1", postulates.benchmark_experiment(1)),
        ("two-point, refine 0", postulates.two_point_experiment()),
    ]
    print("region spectrum S(k), cold: Filon tables on every k against the k >= 0 half")
    for label, exp in cases:
        ref, t_full = timed(region_spectrum_full, exp)
        (_, got, _), t_half = timed(uncached, postulates._region_spectrum, exp, 1)
        print(f"  {label:<19}: {got.size:4d} k   full {t_full * 1e3:7.2f} ms"
              f"   half {t_half * 1e3:7.2f} ms   speedup {t_full / t_half:.2f}x"
              f"   max |deviation| {np.max(np.abs(got - ref)):.1e}")


def time_band_seed():
    cases = [
        ("slab, refine 0", postulates.benchmark_experiment()),
        ("slab, refine 1", postulates.benchmark_experiment(1)),
        ("two-point, refine 0", postulates.two_point_experiment()),
    ]
    print("band seeds, |1> seed from S(k), against the kernel-sum seed")
    for label, exp in cases:
        (grid, seeds), t_band = timed(postulates._band_seeds, exp)
        seed = np.fft.ifft(seeds[1])
        ref, t_sum = timed(postulates.first_order_amplitude, exp, grid.x, exp.band[0])
        rel = np.linalg.norm(seed - ref) / np.linalg.norm(ref)
        print(f"  {label:<19}: {t_band * 1e3:9.2f} ms   {grid.nx} points   kernel-sum seed"
              f" {t_sum * 1e3:.2f} ms   L2 rel distance {rel:.1e}")


def compare_prepared_state(density=8):
    exp = postulates.two_point_experiment()
    k = exp.kernel
    amp = postulates.psi0_values(exp) * trapezoid_weights(exp.nx, exp.dx)
    src = (exp.x()[None], np.full((1, exp.nx), exp.t0), amp[None], k.mass, k.hbar,
           k.regularization_eta)
    slices = [
        (np.linspace(r.x_lo, r.x_hi, nqx), np.linspace(r.t_lo, r.t_hi, (nqt - 1) * density + 1))
        for r, (nqx, nqt) in zip(exp.region, exp.resolution.sources)
    ]
    n_slices = sum(tq.size for _, tq in slices)
    print(f"prepared state, two-point at time density {density}: {n_slices} slices of"
          f" {slices[0][0].size} points")
    reaches_chirp_rows(_kernels.propagate, slices[0][0], slices[0][1][0], *src)
    ref, t_quad = timed(
        lambda: [np.stack([_kernels.propagate(xq, t, *src) for t in tq]) for xq, tq in slices]
    )
    got, t_closed = timed(
        lambda: [postulates.evolved_wavefunction(exp, xq, tq) for xq, tq in slices]
    )
    err = max(np.max(np.abs(g - r)) / np.max(np.abs(r)) for g, r in zip(got, ref))
    print(f"  quadrature: {t_quad * 1e3:9.2f} ms")
    print(f"  closed    : {t_closed * 1e3:9.2f} ms   speedup {t_quad / t_closed:.1f}x"
          f"   max rel deviation {err:.1e}")


def compare_partial_trace(refines=(0, 1, 2)):
    for r in refines:
        exp = postulates.benchmark_experiment(r)
        (grid, psi, phi), t_branch = timed(postulates._branch_functions, exp)
        values = np.zeros((grid.nx, exp.band_slices, 4), dtype=complex)
        values[:, :, 0], values[:, :, 3] = psi, phi
        joint = postulates.JointState(grid.x, grid.t, values, (2, 2))
        print(f"covariant partial trace, refine {r}: {grid.nx} x {exp.band_slices} x 4")
        (rho_raw, _), t_schmidt = timed(covariant_partial_trace_schmidt, joint, exp.kernel)
        red, t_gram = timed(postulates.covariant_partial_trace, joint, exp.kernel)
        ref = 0.5 * (rho_raw + rho_raw.conj().T) / np.trace(rho_raw).real
        err = np.max(np.abs(red.rho.matrix - ref))
        _, t_detail = timed(postulates.cqi_probability_detail, exp)
        print(f"  schmidt   : {t_schmidt * 1e3:9.2f} ms")
        print(f"  gram      : {t_gram * 1e3:9.2f} ms   speedup {t_schmidt / t_gram:.1f}x"
              f"   max |drho| {err:.1e}")
        print(f"  x route   : {(t_branch + t_gram) * 1e3:9.2f} ms   (branch functions + gram)")
        print(f"  seed route: {t_detail * 1e3:9.2f} ms   (all of cqi_probability_detail)")


def compare_collapse(refines=(1, 3)):
    for r in refines:
        exp = postulates.benchmark_experiment(r)
        grid, psi, phi = postulates._branch_functions(exp)
        comps = np.ascontiguousarray(np.stack([psi, phi]).transpose(0, 2, 1))  # (2, nt, nx)
        tw, lags = trapezoid_weights(grid.nt, grid.dt), grid.t[-1] - grid.t
        args = (comps, grid.dx, exp.kernel, lags)
        print(f"band collapse, refine {r}: 2 x {grid.nt} slices x {grid.nx}")
        ref, t_slices = timed(lambda: tw @ contspace.spectral_evolve(*args))

        def kspace():  # the phase table of the lags, then the k-space sum
            phase = contspace._kinetic_phase(grid.nx, grid.dx, exp.kernel, lags)
            return np.fft.ifft(contspace.spectral_collapse_k(np.fft.fft(comps), phase, tw))

        got, t_kspace = timed(kspace)
        err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        print(f"  per slice : {t_slices * 1e3:9.2f} ms")
        print(f"  k-space   : {t_kspace * 1e3:9.2f} ms   speedup {t_slices / t_kspace:.1f}x"
              f"   max rel deviation {err:.1e}")


def compare_finite_suite(n_unitaries=500, n_cases=50):
    us = haar_unitary(np.random.default_rng(0), 2, (n_unitaries,))
    print(f"epr no-communication check: {n_unitaries} Haar unitaries")
    ref, t_loop = timed(no_communication_loop, 0.6, 0.8, us)
    got, t_batch = timed(epr.no_communication_check, epr.EprConfig(0.6, 0.8, us))
    print(f"  loop      : {t_loop * 1e3:9.2f} ms")
    print(f"  batched   : {t_batch * 1e3:9.2f} ms   speedup {t_loop / t_batch:.1f}x"
          f"   max |ddist| {np.max(np.abs(got - ref)):.1e}")

    print(f"general interaction probe: {n_cases} cases")
    ref, t_loop = timed(general_interaction_probe_loop, 0, n_cases)
    got, t_batch = timed(chain.general_interaction_probe, 0, n_cases)
    dev = abs(got["worst_entropy_drop_bits"] - ref["worst_entropy_drop_bits"])
    same = all(got[k] == ref[k] for k in ("cases", "monotone", "violations"))
    print(f"  loop      : {t_loop * 1e3:9.2f} ms")
    print(f"  batched   : {t_batch * 1e3:9.2f} ms   speedup {t_loop / t_batch:.1f}x"
          f"   counts equal {same}   |dworst| {dev:.1e}")


def main():
    rng = np.random.default_rng(0)
    x_src, t_src, amp = slices(rng, 60, 66, 3.0, 3.2)
    x_out = np.linspace(-38.0, 38.0, 682)
    compare("readout", (x_out, 4.2, x_src, t_src, amp, 1.0, 1.0, 0.0))
    compare_chirp(x_out, 4.2, x_src, t_src)
    x_src = np.linspace(-20.0, 20.0, 1024)[None]
    amp = (rng.standard_normal(x_src.shape) + 1j * rng.standard_normal(x_src.shape)) * 1e-3
    compare("single slice", (np.linspace(-0.5, 0.5, 61), 3.1, x_src, np.zeros(x_src.shape),
                             amp, 1.0, 1.0, 0.0))

    compare_double_quad(rng)
    compare_readout()
    time_double_region()
    compare_region_spectrum()
    time_band_seed()
    compare_prepared_state()
    compare_partial_trace()
    compare_collapse()
    compare_finite_suite()


if __name__ == "__main__":
    main()
