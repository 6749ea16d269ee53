"""Benchmark the propagator kernels: chirp-z slice transform vs dense sum.

Run:  python benchmarks/bench_kernels.py

``propagate`` is timed against the dense ``propagate_numpy`` on two
shapes of the detector pipeline: the Born readout (682 outputs x 60
uniform source slices of 66 points) and one evolved-wavefunction call
(61 outputs x one prepared slice of 1024 points).  Each line reports the
best of three timings of both paths and their max relative deviation.
The readout's convolution chirp exp(i r q^2) (60 runs x 682 lags) is
timed as one complex ``np.exp`` per element against the recurrence of
``_kernels._chirp``, with their max deviation; at these arguments (up to
400 rad) that is mostly the rounding of the exp arguments.
``double_quad`` (dense only) is timed on a 3919 x 3919 pair sum.

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

The band branch functions ``postulates._branch_functions`` (warm, with
S(k) cached from the double-region sum, as in a detector pass) on the
slab at refine 0 and 1 and on two-point, with the L2 relative distance
of their |1> seed from the region spectrum S(k) (``_spectral_branch``)
to the kernel-sum seed ``first_order_amplitude(exp, exp.x(), band[0])``
and that kernel sum's own time.

On ``two_point_experiment()``, the prepared state on the region slices
(``Resolution.sources``) at time density 8 by kernel quadrature of psi0
(one ``propagate`` call per region slice) against the closed form of
``evolved_wavefunction``.

Last, the covariant partial trace of the band joint state of
``benchmark_experiment(refine)`` at refine 0, 1 and 2: the Schmidt
decomposition with per-slice collapse of ``tests/oracles.py`` against
the d x d physical Gram matrix of ``postulates`` (one batched spectral
evolution), with the max deviation of the normalized density matrices.
The collapse inside it is timed on its own at refine 1 and 3: every band
slice of both branches evolved to the last slice (one batched
``spectral_evolve``) and summed with the trapezoid weights, against
``contspace.spectral_collapse``, which sums the weighted slices in
k-space and takes one inverse FFT per branch, with their max relative
deviation.

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
)


def timed(fn, *args, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def slices(rng, n_slices, n, t_lo, t_hi):
    """Uniform x slices over [-0.5, 0.5] at n_slices times in [t_lo, t_hi]."""
    x = np.tile(np.linspace(-0.5, 0.5, n), n_slices)
    t = np.repeat(np.linspace(t_lo, t_hi, n_slices), n)
    amp = (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)) * 1e-3
    return x, t, amp


def compare(label, args):
    n_out, n_src = args[0].size, args[2].size
    print(f"propagate, {label}: {n_out} outputs x {n_src} sources")
    ref, t_dense = timed(_kernels.propagate_numpy, *args)
    out, t_czt = timed(_kernels.propagate, *args)
    err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
    print(f"  dense sum : {t_dense * 1e3:9.2f} ms")
    print(f"  chirp-z   : {t_czt * 1e3:9.2f} ms   speedup {t_dense / t_czt:.1f}x"
          f"   max rel deviation {err:.1e}")


def compare_chirp(x_out, t_out, x_src, t_src):
    """The convolution chirp exp(i r q^2) of ``compare``'s readout call, one
    row per source slice, r = D d / (2 (t_out - t)) at m = hbar = 1."""
    r = 0.5 / (t_out - np.unique(t_src)[:, None]) * (x_out[1] - x_out[0]) * (x_src[1] - x_src[0])
    lags = x_out.size
    print(f"chirp, readout convolution: {r.size} runs x {lags} lags")
    q = np.arange(lags)
    ref, t_exp = timed(lambda: np.exp(1j * r * (q * q)))
    got, t_rec = timed(_kernels._chirp, 0.0, 0.0, r, lags)
    print(f"  np.exp    : {t_exp * 1e3:9.2f} ms")
    print(f"  recurrence: {t_rec * 1e3:9.2f} ms   speedup {t_exp / t_rec:.1f}x"
          f"   max |deviation| {np.max(np.abs(got - ref)):.1e}")


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


def time_band_seed():
    cases = [
        ("slab, refine 0", postulates.benchmark_experiment()),
        ("slab, refine 1", postulates.benchmark_experiment(1)),
        ("two-point, refine 0", postulates.two_point_experiment()),
    ]
    print("band branch functions, |1> seed from S(k), against the kernel-sum seed")
    for label, exp in cases:
        _, t_branch = timed(postulates._branch_functions, exp)
        seed = postulates._spectral_branch(exp, exp.band[0])
        ref, t_sum = timed(postulates.first_order_amplitude, exp, exp.x(), exp.band[0])
        rel = np.linalg.norm(seed - ref) / np.linalg.norm(ref)
        print(f"  {label:<19}: {t_branch * 1e3:9.2f} ms   kernel-sum seed {t_sum * 1e3:.2f} ms"
              f"   L2 rel distance {rel:.1e}")


def compare_prepared_state(density=8):
    exp = postulates.two_point_experiment()
    k = exp.kernel
    amp = postulates.psi0_values(exp) * trapezoid_weights(exp.nx, exp.dx)
    src = (exp.x(), np.full(exp.nx, exp.t0), amp, k.mass, k.hbar, k.regularization_eta)
    slices = [
        (np.linspace(r.x_lo, r.x_hi, nqx), np.linspace(r.t_lo, r.t_hi, (nqt - 1) * density + 1))
        for r, (nqx, nqt) in zip(exp.region, exp.resolution.sources)
    ]
    n_slices = sum(tq.size for _, tq in slices)
    print(f"prepared state, two-point at time density {density}: {n_slices} slices of"
          f" {slices[0][0].size} points")
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
        grid, psi, phi = postulates._branch_functions(exp)
        values = np.zeros((exp.nx, exp.band_slices, 4), dtype=complex)
        values[:, :, 0], values[:, :, 3] = psi, phi
        joint = postulates.JointState(grid.x, grid.t, values, (2, 2))
        print(f"covariant partial trace, refine {r}: {exp.nx} x {exp.band_slices} x 4")
        (rho_raw, _), t_schmidt = timed(covariant_partial_trace_schmidt, joint, exp.kernel)
        red, t_gram = timed(postulates.covariant_partial_trace, joint, exp.kernel)
        ref = 0.5 * (rho_raw + rho_raw.conj().T) / np.trace(rho_raw).real
        err = np.max(np.abs(red.rho.matrix - ref))
        print(f"  schmidt   : {t_schmidt * 1e3:9.2f} ms")
        print(f"  gram      : {t_gram * 1e3:9.2f} ms   speedup {t_schmidt / t_gram:.1f}x"
              f"   max |drho| {err:.1e}")


def compare_collapse(refines=(1, 3)):
    for r in refines:
        exp = postulates.benchmark_experiment(r)
        grid, psi, phi = postulates._branch_functions(exp)
        comps = np.ascontiguousarray(np.stack([psi, phi]).transpose(0, 2, 1))  # (2, nt, nx)
        tw, lags = trapezoid_weights(grid.nt, grid.dt), grid.t[-1] - grid.t
        args = (comps, grid.dx, exp.kernel, lags)
        print(f"band collapse, refine {r}: 2 x {grid.nt} slices x {grid.nx}")
        ref, t_slices = timed(lambda: tw @ contspace.spectral_evolve(*args))
        got, t_kspace = timed(contspace.spectral_collapse, *args, tw)
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
    x_src = np.linspace(-20.0, 20.0, 1024)
    amp = (rng.standard_normal(x_src.size) + 1j * rng.standard_normal(x_src.size)) * 1e-3
    compare("single slice", (np.linspace(-0.5, 0.5, 61), 3.1, x_src, np.zeros(x_src.size),
                             amp, 1.0, 1.0, 0.0))

    n_a = n_b = 3919
    xa = rng.uniform(-1, 1, n_a)
    ta = rng.uniform(3.0, 3.2, n_a)
    aa = rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
    xb = rng.uniform(-1, 1, n_b)
    tb = rng.uniform(4.0, 4.2, n_b)
    ab = rng.standard_normal(n_b) + 1j * rng.standard_normal(n_b)
    print(f"double_quad: {n_a} x {n_b} pairs")
    _, t_dq = timed(_kernels.double_quad, xa, ta, aa, xb, tb, ab, 1.0, 1.0, 1e-4)
    print(f"  dense sum : {t_dq:.3f} s")

    compare_readout()
    time_double_region()
    time_band_seed()
    compare_prepared_state()
    compare_partial_trace()
    compare_collapse()
    compare_finite_suite()


if __name__ == "__main__":
    main()
