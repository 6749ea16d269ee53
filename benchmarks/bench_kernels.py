"""Benchmark the propagator kernels: chirp-z slice transform vs dense sum.

Run:  python benchmarks/bench_kernels.py

``propagate`` is timed against the dense ``propagate_numpy`` on two
shapes of the detector pipeline: the Born readout (3905 outputs x 60
uniform source slices of 66 points) and one evolved-wavefunction call
(61 outputs x one prepared slice of 1024 points).  Each line reports the
best of three timings of both paths and their max relative deviation.
``double_quad`` (dense only) is timed on a 3919 x 3919 pair sum.

On ``two_point_experiment()``, two more comparisons: the Born
double-region cross-check as the trapezoid sums of ``tests/oracles.py``
over the Richardson ladder that the Filon weights replaced (time
densities 1, 2, 4, 8, then the h^{3/2} extrapolation) against
``postulates._born_double_region`` (Filon time weights, density 1), each
value with its relative deviation from the trapezoid sum at density 16;
and the prepared state on the region slices at time density 8 by kernel
quadrature of psi0 (one batched ``propagate`` call per rectangle)
against the closed form of ``evolved_wavefunction``.

Last, the covariant partial trace of the band joint state of
``benchmark_experiment(refine)`` at refine 0, 1 and 2: the Schmidt
decomposition with per-slice collapse of ``tests/oracles.py`` against
the d x d physical Gram matrix of ``postulates`` (one batched spectral
evolution), with the max deviation of the normalized density matrices.

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

from cqi_sim import _kernels, chain, epr, postulates  # noqa: E402
from cqi_sim.utils import haar_unitary, trapezoid_weights  # noqa: E402
from oracles import (  # noqa: E402
    born_double_region_trapezoid,
    covariant_partial_trace_schmidt,
    general_interaction_probe_loop,
    no_communication_loop,
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


def compare_two_point(densities=(1, 2, 4, 8)):
    print(f"double-region cross-check, two-point: trapezoid ladder {densities} vs Filon")
    exp = postulates.two_point_experiment()
    ref = born_double_region_trapezoid(exp, 16)

    def ladder():
        vals = [born_double_region_trapezoid(exp, densities[0])]
        for density in densities[1:]:
            vals.append(born_double_region_trapezoid(exp, density))
            if abs(vals[-1] - vals[-2]) <= 0.3 * exp.xcheck_tol * abs(vals[-1]):
                break
        prev, cur = vals[-2:]
        return cur + (cur - prev) / (2.0**1.5 - 1.0)

    p_ladder, t_ladder = timed(ladder)
    p_filon, t_filon = timed(postulates._born_double_region, exp)
    print(f"  ladder    : {t_ladder * 1e3:9.2f} ms   rel deviation from density 16"
          f" {(p_ladder - ref) / ref:+.1e}")
    print(f"  filon     : {t_filon * 1e3:9.2f} ms   speedup {t_ladder / t_filon:.1f}x"
          f"   rel deviation from density 16 {(p_filon - ref) / ref:+.1e}")


def compare_prepared_state(density=8):
    exp = postulates.two_point_experiment()
    k = exp.kernel
    amp = postulates.psi0_values(exp) * trapezoid_weights(exp.nx, exp.dx)
    src = (exp.x(), np.full(exp.nx, exp.t0), amp, k.mass, k.hbar, k.regularization_eta)
    slices = [postulates._rect_subgrid(exp, rect, density)[:2] for rect in exp.region]
    n_slices = sum(tq.size for _, tq in slices)
    print(f"prepared state, two-point at time density {density}: {n_slices} slices of"
          f" {slices[0][0].size} points")
    ref, t_quad = timed(lambda: [_kernels.propagate(xq, tq, *src) for xq, tq in slices])
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
        grid, psi, phi = postulates._branch_functions(exp, exp.band)
        values = np.zeros((exp.nx, exp.band_slices, 4), dtype=complex)
        values[:, :, 0], values[:, :, 3] = psi, phi
        joint = postulates.JointState(grid.x, grid.t, values, (2, 2))
        print(f"covariant partial trace, refine {r}: {exp.nx} x {exp.band_slices} x 4")
        (rho_raw, _), t_schmidt = timed(covariant_partial_trace_schmidt, joint, exp.kernel)
        red, t_gram = timed(
            postulates.covariant_partial_trace, joint, exp.kernel, postulates.BandRegion(*exp.band)
        )
        ref = 0.5 * (rho_raw + rho_raw.conj().T) / np.trace(rho_raw).real
        err = np.max(np.abs(red.rho.matrix - ref))
        print(f"  schmidt   : {t_schmidt * 1e3:9.2f} ms")
        print(f"  gram      : {t_gram * 1e3:9.2f} ms   speedup {t_schmidt / t_gram:.1f}x"
              f"   max |drho| {err:.1e}")


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
    compare("readout", (np.linspace(-38.0, 38.0, 3905), 4.2, x_src, t_src, amp,
                        1.0, 1.0, 0.0))
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

    compare_two_point()
    compare_prepared_state()
    compare_partial_trace()
    compare_finite_suite()


if __name__ == "__main__":
    main()
