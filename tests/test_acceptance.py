"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantity next to its tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from cqi_sim import chain, cli, epr, hilbert, postulates as ps, zeno
from cqi_sim.chain import ChainSpec, run_chain
from cqi_sim.contspace import (
    Grid,
    GridFunction,
    PropagatorKernel,
    gaussian_packet,
    project,
    propagate_point,
    spectral_evolve,
)
from cqi_sim.epr import EprConfig
from cqi_sim.utils import haar_unitary, trapezoid_weights
from cqi_sim.zeno import ZenoConfig

from oracles import chain_distribution_exhaustive

K = PropagatorKernel()


def report(num, desc, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {desc}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_born_cqi_correspondence():
    t0 = time.monotonic()
    exp0 = ps.benchmark_experiment()
    dev0 = abs(ps.cqi_probability(exp0) / ps.born_probability(exp0) - 1.0)
    exp2 = ps.benchmark_experiment(refine=2)
    dev2 = abs(ps.cqi_probability(exp2) / ps.born_probability(exp2) - 1.0)
    elapsed = time.monotonic() - t0
    ok = dev0 <= 1e-3 and dev2 < dev0 and elapsed <= 120.0
    report(
        1,
        "born-cqi correspondence",
        ok,
        f"|ratio-1| = {dev0:.2e} at default (tol 1e-3), {dev2:.2e} refined, "
        f"runtime {elapsed:.0f}s (limit 120s)",
    )


def test_criterion_02_two_point_divergence():
    rep_sym = ps.two_point_report(ps.two_point_experiment())
    rep_asym = ps.two_point_report(ps.two_point_experiment(packet_momentum=0.15))
    cross_dev = abs(rep_asym.cross_rr_measured / rep_asym.cross_rr_predicted - 1.0)
    ok = cross_dev <= 1e-3 and 1.99 <= rep_sym.ratio_rr_born <= 2.01
    report(
        2,
        "two-point overlap-rule divergence",
        ok,
        f"cross-term dev {cross_dev:.2e} (tol 1e-3), "
        f"equal-amplitude ratio {rep_sym.ratio_rr_born:.4f} (range [1.99, 2.01])",
    )


def test_criterion_03_small_region_proportionality():
    rows = ps.shrinking_region_sweep(ps.benchmark_experiment(), steps=5)
    ratios = [r["ratio"] for r in rows]
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    ok = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    report(
        3,
        "small-region proportionality",
        ok,
        f"compensated ratios {['%.4f' % r for r in ratios]}, "
        f"successive diffs {['%.1e' % d for d in diffs]} monotone",
    )


def test_criterion_04_zeno_halving():
    p_plain, p_zeno = zeno.zeno_pair(ZenoConfig(omega=1.0, epsilon=0.05))
    dev_plain = abs(p_plain - np.sin(0.1) ** 2)
    dev_zeno = abs(p_zeno - 2 * np.cos(0.05) ** 2 * np.sin(0.05) ** 2)
    ratios = []
    for k in range(5):
        a, b = zeno.zeno_pair(ZenoConfig(omega=1.0, epsilon=0.05 / 2**k))
        ratios.append(b / a)
    devs = [abs(r - 0.5) for r in ratios]
    monotone = all(d2 <= d1 + 1e-15 for d1, d2 in zip(devs, devs[1:]))
    ok = (
        dev_plain <= 1e-12
        and dev_zeno <= 1e-12
        and 0.5 <= ratios[0] + 1e-15
        and ratios[0] <= 0.5125
        and monotone
    )
    report(
        4,
        "zeno halving",
        ok,
        f"closed-form devs ({dev_plain:.1e}, {dev_zeno:.1e}) <= 1e-12, "
        f"ratio {ratios[0]:.6f} in [0.5, 0.5125], halving monotone {monotone}",
    )


def test_criterion_05_time_reversed_shift():
    omega = 1.7
    worst = 0.0
    for theta in np.linspace(-np.pi / 4, np.pi / 4, 50):
        res = zeno.time_reversed_zeno(ZenoConfig(omega, 0.01, theta=float(theta)))
        worst = max(worst, abs(res.delta_t - theta / omega))
    ok = worst <= 1e-10
    report(5, "time-reversed evolution shift", ok, f"max |dt - theta/omega| = {worst:.1e} (tol 1e-10)")


def _random_spec(rng):
    d = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    amps /= np.linalg.norm(amps)
    return ChainSpec(amps, tuple(haar_unitary(rng, d) for _ in range(n - 1)))


def test_criterion_06_entropy_arrow():
    rng = np.random.default_rng(202608)
    violations = 0
    worst_sq = 0.0
    for _ in range(1000):
        spec = _random_spec(rng)
        res = run_chain(spec)
        ents = res.entropies
        if any(ents[i + 1] < ents[i] - 1e-9 for i in range(len(ents) - 1)):
            violations += 1
        worst_sq = max(worst_sq, abs(chain.system_entropy(res) - ents[-1]))
    ok = violations == 0 and worst_sq <= 1e-9
    report(
        6,
        "entropy arrow",
        ok,
        f"{violations}/1000 monotonicity violations, max |S(Q) - S(last)| = {worst_sq:.1e}",
    )


def test_criterion_07_probability_chain_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        spec = _random_spec(rng)
        res = run_chain(spec)
        for n in range(spec.n_observers):
            oracle = chain_distribution_exhaustive(spec.initial, spec.overlaps, n + 1)
            worst = max(worst, np.max(np.abs(res.distributions[n].probs - oracle)))
    ok = worst <= 1e-10
    report(7, "probability chain equivalence", ok, f"max deviation {worst:.1e} (tol 1e-10)")


def test_criterion_08_covariant_trace_reduction():
    exp = ps.benchmark_experiment()
    x = exp.x()
    t_s = 3.6
    psi = ps.evolved_wavefunction(exp, x, t_s)
    phi = ps.first_order_amplitude(exp, x, t_s)
    vals = np.zeros((exp.nx, 1, 4), dtype=complex)
    vals[:, 0, 0] = psi
    vals[:, 0, 3] = phi
    joint = ps.JointState(x, np.array([t_s]), vals, (2, 2))
    red = ps.covariant_partial_trace(joint, exp.kernel)
    w = np.sqrt(trapezoid_weights(exp.nx, exp.dx))
    amps = (vals[:, 0, :] * w[:, None]).reshape(-1)
    ket = hilbert.Ket(amps / np.linalg.norm(amps), (exp.nx, 2, 2))
    ordinary = hilbert.reduced_state(ket, {1, 2})
    slice_dev = float(np.max(np.abs(red.rho.matrix - ordinary.matrix)))

    grid, psi_v, phi_v = ps._branch_functions(exp)
    vals_b = np.zeros((grid.nx, exp.band_slices, 4), dtype=complex)
    vals_b[:, :, 0] = psi_v
    vals_b[:, :, 3] = phi_v
    joint_b = ps.JointState(grid.x, grid.t, vals_b, (2, 2))
    red_b = ps.covariant_partial_trace(joint_b, exp.kernel)
    vals_s = np.zeros((exp.nx, 1, 4), dtype=complex)
    vals_s[:, 0, 0] = ps.evolved_wavefunction(exp, x, exp.band[0])
    vals_s[:, 0, 3] = ps.first_order_amplitude(exp, x, exp.band[0])
    joint_s = ps.JointState(x, np.array([exp.band[0]]), vals_s, (2, 2))
    red_s = ps.covariant_partial_trace(joint_s, exp.kernel)
    band_dev = hilbert.trace_distance(red_b.rho, red_s.rho)

    ok = slice_dev <= 1e-10 and band_dev <= 1e-4
    report(
        8,
        "covariant trace reduction",
        ok,
        f"slice vs ordinary {slice_dev:.1e} (tol 1e-10), smeared vs slice {band_dev:.1e} (tol 1e-4)",
    )


def test_criterion_09_epr_suite():
    rng = np.random.default_rng(999)
    worst_cond = 0.0
    worst_dist = 0.0
    for _ in range(500):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        cfg = EprConfig(v[0], v[1], haar_unitary(rng, 2))
        _, _, rho_ab = epr.epr_reduced(EprConfig(v[0], v[1]))
        worst_cond = max(worst_cond, abs(hilbert.conditional_entropy(rho_ab)))
        worst_dist = max(worst_dist, epr.no_communication_check(cfg))
    ok = worst_cond <= 1e-9 and worst_dist <= 1e-12
    report(
        9,
        "epr suite",
        ok,
        f"max |S(A|B)| = {worst_cond:.1e} (tol 1e-9), "
        f"max no-communication distance {worst_dist:.1e} (tol 1e-12) over 500 unitaries",
    )


def test_criterion_10_propagator_oracles():
    # composition through an intermediate slice (complex-time semigroup)
    eta = 0.05
    k_half = PropagatorKernel(regularization_eta=eta / 2)
    k_full = PropagatorKernel(regularization_eta=eta)
    y = np.linspace(-30, 30, 1501)
    w = trapezoid_weights(y.size, y[1] - y[0])
    left = np.array([propagate_point(k_half, 1.3, 2.0, yi, 0.9) for yi in y])
    right = np.array([propagate_point(k_half, yi, 0.9, -0.7, 0.0) for yi in y])
    lhs = np.sum(w * left * right)
    rhs = propagate_point(k_full, 1.3, 2.0, -0.7, 0.0)
    comp_dev = abs(lhs - rhs) / abs(rhs)

    # gaussian spreading law
    g = Grid(-20.0, 20.0, 512, 0.0, 4.0, 81)
    gf = GridFunction.on_slice(g, gaussian_packet(g.x, 0.0, 1.0), 0)
    out = project(gf, K, 2.5)
    p = np.abs(out) ** 2
    p /= np.sum(p) * g.dx
    var = np.sum((g.x - np.sum(g.x * p) * g.dx) ** 2 * p) * g.dx
    spread_dev = abs(2 * var / (1.0 + 2.5**2) - 1.0)

    # projection against split-step integration
    psi = gaussian_packet(g.x, -4.0, 1.5, momentum=0.8)
    psi += 0.3 * gaussian_packet(g.x, -6.0, 0.8, momentum=-0.2)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * g.dx)
    gf2 = GridFunction.on_slice(g, psi, 0)
    direct = project(gf2, K, 2.0)
    oracle = spectral_evolve(psi, g.dx, K, 2.0, n_steps=64)
    l2_dev = float(np.sqrt(np.sum(np.abs(direct - oracle) ** 2) * g.dx))

    ok = comp_dev <= 1e-4 and spread_dev <= 1e-4 and l2_dev <= 1e-4
    report(
        10,
        "propagator oracles",
        ok,
        f"composition {comp_dev:.1e}, spreading {spread_dev:.1e}, "
        f"split-step L2 {l2_dev:.1e} (tol 1e-4 each)",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "kind": "epr",
        "seed": 42,
        "params": {"alpha": 0.6, "beta": 0.8, "n_random_unitaries": 20},
        "output": {"path": "det", "format": "csv"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cli.run(cfg_path, out_dir=out)
        csv_text = "\n".join(
            l for l in (out / "det.csv").read_text().splitlines()
            if not l.startswith("# timestamp:")
        )
        rep = json.loads((out / "det.json").read_text())
        rep.pop("timestamp")
        payloads.append((csv_text, json.dumps(rep, sort_keys=True)))
    ok = payloads[0] == payloads[1]
    report(11, "determinism", ok, "payloads bit-identical across repeated runs")
