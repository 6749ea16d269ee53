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


def _region_slice_ffts(exp, t_density):
    """Fine grid step and, per rectangle, the times, trapezoid weights and
    FFTs of its region slices (the slice restricted to the rectangle with
    fractional cell coverage) at a time density."""
    from cqi_sim.postulates import _rect_subgrid, evolved_wavefunction

    min_extent = min(r.x_hi - r.x_lo for r in exp.region)
    dxf = min(exp.dx / 2.0, min_extent / 16.0)
    nf = int(np.ceil((exp.x_max - exp.x_min) / dxf)) + 1
    xf = np.linspace(exp.x_min, exp.x_max, nf)
    dxf = float(xf[1] - xf[0])
    rects = []
    for rect in exp.region:
        _, tq, _, wt = _rect_subgrid(exp, rect, t_density)
        cover = np.clip(
            (np.minimum(xf + dxf / 2, rect.x_hi) - np.maximum(xf - dxf / 2, rect.x_lo))
            / dxf,
            0.0,
            1.0,
        )
        live = cover > 0
        ffts = []
        for t in tq:
            vals = np.zeros(nf, dtype=complex)
            vals[live] = cover[live] * evolved_wavefunction(exp, xf[live], float(t))
            ffts.append(np.fft.fft(vals))
        rects.append((tq, wt, ffts))
    return dxf, rects


def _pairwise_sum(exp, dxf, times, weights, ffts):
    """sum_ij <w_i F_i, P(t_i - t_j) w_j F_j> * dxf / nf times the
    coupling prefactor, with P the free propagator in momentum space and
    each w_i a scalar or a per-k vector."""
    m, hb = exp.kernel.mass, exp.kernel.hbar
    nf = ffts[0].size
    kvec = 2.0 * np.pi * np.fft.fftfreq(nf, d=dxf)
    wf = [w * f for w, f in zip(weights, ffts)]
    n = len(times)
    phase_cache: dict[float, np.ndarray] = {}
    acc = 0.0
    for i in range(n):
        # diagonal term, then twice the real part of the upper triangle
        acc += np.vdot(wf[i], wf[i]).real
        for j in range(i + 1, n):
            dt = round(times[i] - times[j], 12)
            phase = phase_cache.get(dt)
            if phase is None:
                phase = np.exp(-1j * hb * kvec**2 * dt / (2.0 * m))
                phase_cache[dt] = phase
            acc += 2.0 * np.vdot(wf[i], phase * wf[j]).real
    acc *= dxf / nf
    pref = (exp.coupling_alpha * exp.potential_v / hb) ** 2
    return float(pref * acc)


def born_double_region_pairwise(exp, t_density):
    """Double-region kernel integral of a detector experiment as the
    explicit sum over every pair of region slices.

    Each pair (i, j) contributes w_i w_j <F_i, P(t_i - t_j) F_j> with F
    the FFT of slice i, w the trapezoid time weights and P the free
    propagator in momentum space; the O(n^2) reference for the
    factorized sum ``born_double_region_trapezoid``.
    """
    dxf, rects = _region_slice_ffts(exp, t_density)
    times = [float(t) for tq, _, _ in rects for t in tq]
    weights = [w for _, wt, _ in rects for w in wt]
    return _pairwise_sum(exp, dxf, times, weights, [f for _, _, ffts in rects for f in ffts])


def filon_first_weight(theta):
    """int_0^1 (1 - s) exp(i theta s) ds = (e^z - 1 - z) / z^2 with z = i theta,
    by complex expm1 (its Taylor polynomial below |z| = 1e-3)."""
    z = 1j * np.asarray(theta, dtype=float)
    small = np.abs(z) < 1e-3
    zs = np.where(small, 1.0, z)
    return np.where(small, 0.5 + z / 6 + z**2 / 24 + z**3 / 120, (np.expm1(zs) - zs) / zs**2)


def born_double_region_filon_pairwise(exp, t_density):
    """``born_double_region_pairwise`` with per-k Filon-trapezoid time
    weights in place of the trapezoid weights.

    With theta = hbar k^2 h / 2m for slice step h, the first slice of a
    rectangle weighs h f(theta), f = ``filon_first_weight``, the last
    h conj(f(theta)) and every other h (f + conj f) (its hat function
    is the two halves); a one-slice rectangle keeps its trapezoid weight.
    """
    m, hb = exp.kernel.mass, exp.kernel.hbar
    dxf, rects = _region_slice_ffts(exp, t_density)
    kvec = 2.0 * np.pi * np.fft.fftfreq(rects[0][2][0].size, d=dxf)
    times, weights, ffts = [], [], []
    for tq, wt, slice_ffts in rects:
        if tq.size == 1:
            weights.append(wt[0])
        else:
            h = float(tq[1] - tq[0])
            f = h * filon_first_weight(hb * kvec**2 * h / (2.0 * m))
            weights += [f] + [f + f.conj()] * (tq.size - 2) + [f.conj()]
        times += [float(t) for t in tq]
        ffts += slice_ffts
    return _pairwise_sum(exp, dxf, times, weights, ffts)


def born_double_region_trapezoid(exp, t_density):
    """Double-region kernel integral with trapezoid time weights, as the
    squared norm of one spectral vector S = sum_i w_i G_i, G_i the FFT of
    slice i evolved to the earliest region time.

    Per rectangle A = E @ (w cover psi) on the live fine points idx, with
    E built per |k| bin (bins j and nf - j share k^2) by recurrence in t;
    bin j sums A[j] exp(-2 pi i j idx / nf).  Its time error at high k
    needs dense slices: the reference for the Filon weights of
    ``postulates._born_double_region_raw`` at high density.
    """
    from cqi_sim.postulates import _rect_subgrid, evolved_wavefunction

    min_extent = min(r.x_hi - r.x_lo for r in exp.region)
    dxf = min(exp.dx / 2.0, min_extent / 16.0)
    nf = int(np.ceil((exp.x_max - exp.x_min) / dxf)) + 1
    xf = np.linspace(exp.x_min, exp.x_max, nf)
    dxf = float(xf[1] - xf[0])
    kb = np.arange(nf // 2 + 1)  # |k| bins
    c = (0.5j * exp.kernel.hbar / exp.kernel.mass) * (2.0 * np.pi * kb / (nf * dxf)) ** 2
    t_ref = min(r.t_lo for r in exp.region)
    total = np.zeros(nf, dtype=complex)
    chunk = max(1, 4_000_000 // (16 * nf))  # slices per (bins, chunk) temporary
    for rect in exp.region:
        _, tq, _, wt = _rect_subgrid(exp, rect, t_density)
        lo, hi = np.maximum(xf - dxf / 2, rect.x_lo), np.minimum(xf + dxf / 2, rect.x_hi)
        cover = np.clip((hi - lo) / dxf, 0.0, 1.0)
        idx = np.flatnonzero(cover > 0)
        step = np.exp(c[:, None] * (tq[1:2] - tq[0]))
        a = np.zeros((kb.size, idx.size), dtype=complex)
        for s in range(0, tq.size, chunk):
            ts = tq[s : s + chunk]
            e = np.empty((kb.size, ts.size), dtype=complex)
            e[:, :1] = np.exp(c[:, None] * (ts[0] - t_ref))
            e[:, 1:] = step
            a += np.cumprod(e, axis=1, out=e) @ (
                (wt[s : s + chunk, None] * cover[idx]) * evolved_wavefunction(exp, xf[idx], ts)
            )
        dft = np.exp(-2j * np.pi * (np.outer(kb, idx) % nf) / nf)
        total[: kb.size] += np.einsum("jl,jl->j", a, dft)
        total[kb.size :] += np.einsum("jl,jl->j", a, dft.conj())[(nf - 1) // 2 : 0 : -1]
    pref = (exp.coupling_alpha * exp.potential_v / exp.kernel.hbar) ** 2
    return float(pref * np.vdot(total, total).real * dxf / nf)


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


def zeno_cancellation_loop(cfg, inverse_delay=0.0, n_samples=17):
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
    qa = cnot(qa)
    if inverse_delay:
        qa = zeno.free_evolution_matrix(inverse_delay, w) @ qa
    qa = cnot(qa)
    worst = 0.0
    for t in np.linspace(0.0, np.pi / w, n_samples):
        evolved = zeno.free_evolution_matrix(t, w) @ qa
        rho_q = hilbert.reduced_state(Ket(evolved.reshape(-1), (2, 2)), {0})
        free = hilbert.density(zeno.free_qubit(eps + inverse_delay + t, w))
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
    from cqi_sim.zeno import _cnot_from_q, _evolve_factor0, free_evolution_matrix

    u = free_evolution_matrix(epsilon, omega)
    qb = np.zeros((2, 2), dtype=complex)
    qb[:, 0] = free_evolution_matrix(2 * epsilon, omega)[:, 0]
    qb = _cnot_from_q(qb, 1)
    p_plain = hilbert.reduced_state(hilbert.Ket(qb.reshape(-1), (2, 2)), {1}).matrix[1, 1]

    qab = np.zeros((2, 2, 2), dtype=complex)
    qab[:, 0, 0] = u[:, 0]
    qab = _cnot_from_q(qab, 1)
    qab = _evolve_factor0(qab, u)
    qab = _cnot_from_q(qab, 2)
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
