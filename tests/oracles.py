"""Independent reference computations used as test oracles.

Everything here is derived by a different route than the code under
test: closed forms, exhaustive sums, or third-party integrators.
"""

from __future__ import annotations

import itertools

import numpy as np


def evolved_gaussian(x, t, center, width, momentum=0.0, mass=1.0, hbar=1.0):
    """Closed-form free evolution of the normalized Gaussian packet.

    psi0(x) = (pi a^2)^(-1/4) exp(-(x-c)^2/(2 a^2) + i k (x-c)); standard
    Fourier-transform result for quadratic dispersion.
    """
    a = width
    tau = hbar * t / mass
    zeta = 1.0 + 1j * tau / a**2
    drift = x - center - tau * momentum
    return (
        (np.pi * a**2) ** -0.25
        / np.sqrt(zeta)
        * np.exp(
            -(drift**2) / (2.0 * a**2 * zeta)
            + 1j * momentum * (x - center)
            - 0.5j * tau * momentum**2
        )
    )


def double_quad_pairs(x_a, t_a, amp_a, x_b, t_b, amp_b, mass, hbar, eta):
    """sum_ij conj(amp_a[i]) W(x_a[i], t_a[i]; x_b[j], t_b[j]) amp_b[j] as
    an explicit loop over row blocks of the (a, b) pair matrix; the
    reference for the vdot form of ``_kernels.double_quad``."""
    acc = 0.0 + 0.0j
    chunk = max(1, 4_000_000 // max(x_b.size, 1))
    for s in range(0, x_a.size, chunk):
        dt = t_a[s : s + chunk, None] - t_b[None, :]
        pref = np.sqrt(mass / (2.0 * np.pi * hbar * (eta + 1j * dt)))
        dx = x_a[s : s + chunk, None] - x_b[None, :]
        w = pref * np.exp((1j * mass / (2.0 * hbar)) * dx * dx / (dt - 1j * eta))
        acc += np.conj(amp_a[s : s + chunk]) @ w @ amp_b
    return acc


def evolved_by_quadrature(exp, x, times):
    """Prepared packet of a detector experiment at each of ``times``, by
    the dense trapezoid sum of the kernel over psi0 on the x grid (psi0
    itself at t0); the reference for the closed form in ``postulates``."""
    from cqi_sim import _kernels
    from cqi_sim.postulates import psi0_values
    from cqi_sim.utils import trapezoid_weights

    k = exp.kernel
    amp = psi0_values(exp) * trapezoid_weights(exp.nx, exp.dx)
    src = (exp.x(), np.full(exp.nx, exp.t0), amp, k.mass, k.hbar, k.regularization_eta)
    return np.stack(
        [
            psi0_values(exp, x) if t == exp.t0 else _kernels.propagate_numpy(x, t, *src)
            for t in times
        ]
    )


# Continuum values of the Born probability (the double-region integral over
# all k) of benchmark_experiment() and two_point_experiment(): the x integral
# of each time slice in closed form (an erf difference), Filon-trapezoid
# weights in t at time densities 1 to 8 (successive differences shrink by
# 4.000) and Richardson's rule; converged in k at |k| <= 80 (slab) and 160
# (two-point), and the same to 1e-9 for periods L = 40 and 80.
CONTINUUM_BORN = {"slab": 2.2822066008e-7, "two-point": 1.0557377829e-7}


def _gauss_legendre_nodes(lo, hi, panels, nodes=16):
    """Nodes and weights of composite Gauss-Legendre quadrature over [lo, hi]."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (0.5 * (edges[:-1] + edges[1:])[:, None] + half * s).ravel(), (half * w).ravel()


def born_double_region_gauss(exp, k, length, block=64):
    """Double-region kernel integral (alpha V / hbar)^2 sum_k |S(k)|^2 / length
    of a detector experiment (eta = 0), with

        S(k) = sum over rectangles of int int exp(i omega (t - t_ref))
               Psi(x, t) exp(-i k x) dx dt,   omega = hbar k^2 / 2m,

    t_ref the earliest region time and Psi from ``evolved_gaussian``.  Both
    integrals are composite 16-point Gauss-Legendre sums, taken for blocks of
    ``block`` wavenumbers of increasing |k|: every panel spans at most 16 rad
    of the block's largest phase, |k| + k_psi in x and hbar (k^2 + k_psi^2) / 2m
    in t, with k_psi = |p0| + max |x - center| / width^2 the packet's largest
    wavenumber over the rectangle.  The reference for the Filon-Simpson sum
    of ``postulates._born_double_region_raw``.
    """
    hb, m = exp.kernel.hbar, exp.kernel.mass
    a, c, p = exp.packet_width, exp.packet_center, exp.packet_momentum
    t_ref = min(r.t_lo for r in exp.region)
    order = np.argsort(np.abs(k), kind="stable")
    spec = np.zeros(k.size, dtype=complex)
    for rect in exp.region:
        k_psi = abs(p) + max(abs(rect.x_lo - c), abs(rect.x_hi - c)) / a**2
        for idx in np.array_split(order, -(-k.size // block)):
            kb = k[idx]
            k_top = np.abs(kb).max()
            x_panels = (k_top + k_psi) * (rect.x_hi - rect.x_lo) / 16.0
            t_panels = 0.5 * hb / m * (k_top**2 + k_psi**2) * (rect.t_hi - rect.t_lo) / 16.0
            x, wx = _gauss_legendre_nodes(rect.x_lo, rect.x_hi, int(np.ceil(x_panels)))
            t, wt = _gauss_legendre_nodes(rect.t_lo, rect.t_hi, int(np.ceil(t_panels)))
            psi = evolved_gaussian(x, t[:, None] - exp.t0, c, a, p, m, hb)
            f = (psi * wx) @ np.exp(-1j * np.outer(x, kb))  # (t, k)
            spec[idx] += wt @ (np.exp(0.5j * hb / m * np.outer(t - t_ref, kb**2)) * f)
    pref = (exp.coupling_alpha * exp.potential_v / hb) ** 2
    return float(pref * np.vdot(spec, spec).real / length)


def carrier_rate_readout_grid(exp):
    """The Born readout slice by the rule that resolves phi itself, not |phi|^2:
    the ends of ``postulates._readout_grid`` at steps min(pi / (5 k_phys), dx),
    the packet carrier's rate or the x grid's step where that is finer."""
    from cqi_sim.postulates import _readout_grid

    xr = _readout_grid(exp)
    step = min(np.pi / (5.0 * exp.resolution.physical_k), exp.dx)
    return np.linspace(xr[0], xr[-1], int(np.ceil((xr[-1] - xr[0]) / step)) + 1)


def readout_norms(exp, x):
    """(p_slice, p_slice_rects) on the readout points ``x``: the trapezoid
    norms of the kernel sums ``postulates._rect_amplitudes`` and of their sum."""
    from cqi_sim.postulates import _rect_amplitudes
    from cqi_sim.utils import trapezoid_weights

    w = trapezoid_weights(x.size, float(x[1] - x[0]))
    phis = _rect_amplitudes(exp, x, float(exp.readout_time))
    norms = [float(np.sum(w * np.abs(phi) ** 2)) for phi in (phis.sum(axis=0), *phis)]
    return norms[0], tuple(norms[1:])


# Overlap-rule values |int_R Psi|^2 / measure(R) of the default slab, the
# default two-point region, and that region at packet momentum 0.15, by
# ``rr_probability_continuum`` (32 and 64 nodes agree within 7.6e-16).
CONTINUUM_RR = {
    "slab": 2.768374597226e-3,
    "two-point": 5.826765682867e-3,
    "two-point-p": 5.749160301815e-3,
}


def rr_probability_continuum(exp, nodes=32):
    """|int_R Psi dx dt|^2 / measure(R) of a detector experiment (eta = 0) with
    the x integral in closed form and ``nodes`` Gauss-Legendre nodes in t per
    rectangle.  Psi = N zeta^(-1/2) exp(-A v^2 + i p v + i tau p^2 / 2) with
    v = x - c - tau p, A = 1 / (2 a^2 zeta) and zeta = 1 + i tau / a^2, so
    completing the square about v0 = i p / 2A gives, over v in [v_lo, v_hi],
    exp(i tau p^2 / 2 - p^2 / 4A) sqrt(pi / A) / 2 (erf(sqrt(A) (v_hi - v0))
    - erf(sqrt(A) (v_lo - v0))).  The reference for the tensor trapezoid
    sum of ``postulates.rr_probability``."""
    from scipy.special import erf  # test-only dependency

    a, c, p = exp.packet_width, exp.packet_center, exp.packet_momentum
    total = 0.0j
    for rect in exp.region:
        t, wt = _gauss_legendre_nodes(rect.t_lo, rect.t_hi, 1, nodes)
        tau = exp.kernel.hbar * (t - exp.t0) / exp.kernel.mass
        zeta = 1.0 + 1j * tau / a**2
        big_a = 1.0 / (2.0 * a**2 * zeta)
        root, v0 = np.sqrt(big_a), 0.5j * p / big_a
        v_lo, v_hi = rect.x_lo - c - tau * p, rect.x_hi - c - tau * p
        box = 0.5 * np.sqrt(np.pi / big_a) * (erf(root * (v_hi - v0)) - erf(root * (v_lo - v0)))
        f = np.exp(0.5j * tau * p**2 - p**2 / (4 * big_a)) / np.sqrt(zeta)
        total += np.sum(wt * f * box) * (np.pi * a**2) ** -0.25
    return float(abs(total) ** 2 / sum(r.measure for r in exp.region))


def covariant_partial_trace_schmidt(joint, k):
    """Unnormalized observer state and Schmidt rank of a joint state, by
    Schmidt decomposition.

    The joint values are Schmidt-decomposed across the system/observer
    cut in the kinematical measure; each system-side Schmidt function is
    collapsed to the last slice one slice at a time, and the observer
    operator is assembled from the pairwise physical inner products of
    those functions (the identity on a single slice).  Returns
    (rho_raw, rank); the reference for the d x d physical Gram matrix
    of ``postulates.covariant_partial_trace``.
    """
    from cqi_sim.contspace import spectral_evolve

    nx, nt, d = joint.values.shape
    xw, tw = joint.x_weights(), joint.t_weights()
    sqw = np.sqrt(np.outer(xw, tw).reshape(-1))
    u, s, vh = np.linalg.svd(joint.values.reshape(nx * nt, d) * sqw[:, None], full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0]))
    s, u, vh = s[:rank], u[:, :rank], vh[:rank]
    if nt == 1:
        gram = np.eye(rank, dtype=complex)
    else:
        dx = float(joint.x[1] - joint.x[0])
        cols = np.zeros((rank, nx), dtype=complex)
        for si in range(rank):
            f = (u[:, si] / sqw).reshape(nx, nt)
            for j in range(nt):
                cols[si] += tw[j] * spectral_evolve(f[:, j], dx, k, joint.t[-1] - joint.t[j])
        gram = np.einsum("i,si,ti->st", xw, np.conj(cols), cols)
    c = (s[:, None] * vh).T  # c[a, s] = s_s * vh[s, a]
    return c @ np.conj(gram) @ c.conj().T, rank


def haar_unitary_single(rng, d):
    """One Haar-random d x d unitary: QR of a complex Ginibre matrix drawn
    as a real then an imaginary (d, d) block, phases of R moved into Q."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def no_communication_loop(alpha, beta, unitaries):
    """Trace distance of Bob's state with and without each of Alice's
    unitaries, one unitary at a time: the unitary is applied to factor A
    of the global state by ``tensordot`` and each state is reduced with
    ``hilbert.reduced_state``; the reference for the batched
    ``epr.no_communication_check``."""
    from cqi_sim import hilbert
    from cqi_sim.epr import A, B, EprConfig, epr_final_state
    from cqi_sim.hilbert import Ket

    plain = epr_final_state(EprConfig(alpha, beta))
    out = []
    for u in unitaries:
        state = plain.amplitudes.reshape(2, 2, 2, 2)
        state = np.moveaxis(np.tensordot(u, state, axes=(1, A)), 0, A)
        rho_rotated = hilbert.reduced_state(Ket(state.reshape(-1), (2, 2, 2, 2)), {B})
        rho_plain = hilbert.reduced_state(plain, {B})
        out.append(hilbert.trace_distance(rho_plain, rho_rotated))
    return np.array(out)


def general_interaction_probe_loop(seed, n_cases=50, d=2):
    """``chain.general_interaction_probe`` one case at a time: per case
    draw the amplitudes (real, imag) and two Haar unitaries, apply them to
    (Q, O1) and (Q, O2) and compare the observers' entropies."""
    from cqi_sim import hilbert
    from cqi_sim.hilbert import Ket

    rng = np.random.default_rng(seed)
    ready = np.zeros(d, dtype=complex)
    ready[0] = 1.0
    monotone = 0
    worst = 0.0
    for _ in range(n_cases):
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amps /= np.linalg.norm(amps)
        v = np.kron(np.kron(amps, ready), ready).reshape(d, d, d)
        u1 = haar_unitary_single(rng, d * d)
        v = (u1 @ v.reshape(d * d, d)).reshape(d, d, d)  # joint unitary on (Q, O1)
        u2 = haar_unitary_single(rng, d * d)
        v = np.moveaxis(v, 1, 2)  # bring (Q, O2) together
        v = (u2 @ v.reshape(d * d, d)).reshape(d, d, d)
        v = np.moveaxis(v, 2, 1)
        ket = Ket(v.reshape(-1), (d, d, d))
        s1 = hilbert.von_neumann_entropy(hilbert.reduced_state(ket, {1}))
        s2 = hilbert.von_neumann_entropy(hilbert.reduced_state(ket, {2}))
        if s2 >= s1 - 1e-9:
            monotone += 1
        worst = min(worst, s2 - s1)
    return {
        "cases": n_cases,
        "monotone": monotone,
        "violations": n_cases - monotone,
        "worst_entropy_drop_bits": -worst,
    }


def zeno_cancellation_loop(cfg, n_samples=17):
    """``zeno.zeno_cancellation`` one sample time at a time: each evolved
    pair is reduced with ``hilbert.reduced_state`` and compared with the
    density operator of the freely evolved qubit."""
    from cqi_sim import hilbert, zeno
    from cqi_sim.hilbert import Ket

    def cnot(qa):  # system (row) controls the ancilla (column)
        out = qa.copy()
        out[1] = qa[1, ::-1]
        return out

    w, eps = cfg.omega, cfg.epsilon
    qa = np.zeros((2, 2), dtype=complex)  # (Q, A)
    qa[:, 0] = zeno.free_evolution_matrix(eps, w)[:, 0]
    qa = cnot(cnot(qa))
    worst = 0.0
    for t in np.linspace(0.0, np.pi / w, n_samples):
        evolved = zeno.free_evolution_matrix(t, w) @ qa
        rho_q = hilbert.reduced_state(Ket(evolved.reshape(-1), (2, 2)), {0})
        free = hilbert.density(zeno.free_qubit(eps + t, w))
        worst = max(worst, hilbert.trace_distance(rho_q, free))
    return worst


def time_reversed_zeno_loop(omega, thetas, epsilon=1e-3):
    """``zeno.time_reversed_zeno`` on an array of thetas, one scalar call
    per theta: the (delta_t list, q_states stack) the batched call must
    reproduce bit for bit."""
    from cqi_sim import zeno

    results = [
        zeno.time_reversed_zeno(zeno.ZenoConfig(omega=omega, epsilon=epsilon, theta=float(th)))
        for th in thetas
    ]
    return [r.delta_t for r in results], np.array([r.q_states for r in results])


def jsonschema_best_match(instance, schema):
    """(absolute path, keyword) of the error that jsonschema's ``best_match``
    picks for ``instance`` under ``schema``, or None if it is valid; the
    reference for ``cli._best_error``.  Like the CLI it skips the metaschema
    check, which ``test_schemas_match_metaschema`` makes once."""
    import jsonschema

    err = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(instance)
    )
    return None if err is None else (tuple(err.absolute_path), err.validator)


def chain_distribution_exhaustive(initial, overlaps, observer):
    """Outcome distribution of one observer by brute-force index summation.

    Sums p1(i) p2(i j) ... over every index tuple ending at the given
    observer (1-based).
    """
    d = len(initial)
    n_stages = observer
    probs = np.zeros(d)
    for path in itertools.product(range(d), repeat=n_stages):
        w = abs(initial[path[0]]) ** 2
        for stage in range(1, n_stages):
            u = overlaps[stage - 1]
            w *= abs(u[path[stage - 1]][path[stage]]) ** 2
        probs[path[-1]] += w
    return probs


def zeno_pair_explicit(omega, epsilon):
    """(p_plain, p_zeno) with the two cases written out one by one: free
    evolution for 2*epsilon, or an ancilla CNOT at epsilon in between,
    then the observer CNOT and a partial trace onto the observer."""
    from cqi_sim import hilbert
    from cqi_sim.hilbert import cnot
    from cqi_sim.zeno import _evolve_factor0, free_evolution_matrix

    u = free_evolution_matrix(epsilon, omega)
    qb = np.zeros((2, 2), dtype=complex)
    qb[:, 0] = free_evolution_matrix(2 * epsilon, omega)[:, 0]
    qb = cnot(qb, 0, 1)
    p_plain = hilbert.reduced_state(hilbert.Ket(qb.reshape(-1), (2, 2)), {1}).matrix[1, 1]

    qab = np.zeros((2, 2, 2), dtype=complex)
    qab[:, 0, 0] = u[:, 0]
    qab = cnot(qab, 0, 1)
    qab = _evolve_factor0(qab, u)
    qab = cnot(qab, 0, 2)
    p_zeno = hilbert.reduced_state(hilbert.Ket(qab.reshape(-1), (2, 2, 2)), {2}).matrix[1, 1]
    return float(p_plain.real), float(p_zeno.real)


def iterated_zeno_markov(omega, epsilon, n_ancillas):
    """Transition probability of the dephased chain as a classical
    two-state Markov walk: p = (1 - cos^(n+1)(2 w tau)) / 2."""
    tau = 2.0 * epsilon / (n_ancillas + 1)
    return 0.5 * (1.0 - np.cos(2.0 * omega * tau) ** (n_ancillas + 1))


def qubit_evolution_expm(t, omega):
    """Free qubit evolution operator from the matrix exponential."""
    from scipy.linalg import expm

    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = -omega * sx  # hbar = 1
    return expm(-1j * h * t)


def random_ket(rng, dims):
    n = int(np.prod(dims))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def partial_trace_indexsum(psi, dims, keep):
    """Reduced density matrix by explicit index summation over the
    traced factors (no reshaping tricks)."""
    dims = list(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[k] for k in keep]))
    rho = np.zeros((d_keep, d_keep), dtype=complex)
    psi = np.asarray(psi).reshape(dims)

    keep_ranges = [range(dims[k]) for k in keep]
    traced_ranges = [range(dims[k]) for k in traced]
    for row in itertools.product(*keep_ranges):
        for col in itertools.product(*keep_ranges):
            acc = 0.0 + 0.0j
            for tr in itertools.product(*traced_ranges):
                idx_row = [0] * len(dims)
                idx_col = [0] * len(dims)
                for k, v in zip(keep, row):
                    idx_row[k] = v
                for k, v in zip(keep, col):
                    idx_col[k] = v
                for k, v in zip(traced, tr):
                    idx_row[k] = v
                    idx_col[k] = v
                acc += psi[tuple(idx_row)] * np.conj(psi[tuple(idx_col)])
            i = np.ravel_multi_index(row, [dims[k] for k in keep]) if keep else 0
            j = np.ravel_multi_index(col, [dims[k] for k in keep]) if keep else 0
            rho[i, j] = acc
    return rho


def realism_scenario_loop(alpha, beta):
    """The three slices of ``epr.realism_scenario`` one at a time: a Ket per
    slice, a DensityOp per reduced state and ``conditional_entropy``'s own
    partial trace, as the scenario was first computed."""
    from cqi_sim import hilbert

    v = np.zeros((2, 2, 2), dtype=complex)  # (Q, B, A)
    v[:, 0, 0] = alpha, beta
    v1 = hilbert.cnot(v, 0, 1)
    v2 = hilbert.cnot(v1, 1, 2)
    slices = []
    for label, amps in (("t0", v), ("t1", v1), ("t2", v2)):
        ket = hilbert.Ket(amps, (2, 2, 2))
        rho_ab = hilbert.reduced_state(ket, {1, 2})
        slices.append(
            {
                "slice": label,
                "entropy_alice_bits": hilbert.von_neumann_entropy(hilbert.reduced_state(ket, {2})),
                "entropy_bob_bits": hilbert.von_neumann_entropy(hilbert.reduced_state(ket, {1})),
                "conditional_entropy_bits": hilbert.conditional_entropy(rho_ab, 0),
            }
        )
    return {"slices": slices}
