"""Hot numerical kernels: free-propagator sums over source points.

The kernel is the normalized free-particle amplitude

    W(x,t; x',t') = sqrt(m / (2 pi i hbar (dt - i eta)))
                    * exp(i m (x-x')^2 / (2 hbar (dt - i eta)))

with dt = t - t' and an optional damping parameter eta >= 0 that
rotates the time difference slightly into the complex plane.  Callers
must keep dt != 0 whenever eta == 0.

With eta == 0, ``propagate`` sums each run of uniformly spaced sources
at one time onto uniform outputs as a chirp-z transform, by Bluestein's
FFT convolution in O((n + m) log(n + m)) (Rabiner, Schafer & Rader, IEEE
Trans. Audio Electroacoust. 17(2), 1969; Bluestein, ibid. 18(4), 1970).
All other sources take the dense O(n * m) sum ``propagate_numpy``,
which the tests keep as the reference.  The double quadrature
``double_quad`` is a vdot against that same dense sum.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi
_CHUNK = 4_000_000  # elements per (outputs x sources) temporary of a dense sum


def propagate_numpy(x_out, t_out, x_src, t_src, amp, mass, hbar, eta):
    """out[j] = sum_i W(x_out[j], t_out[j]; x_src[i], t_src[i]) * amp[i].

    ``t_out`` is one time or one time per output point; ``amp`` carries
    the quadrature weights of the source points.
    """
    out = np.zeros(x_out.size, dtype=np.complex128)
    if x_src.size == 0:
        return out
    t_out = np.asarray(t_out)[..., None]
    # chunk the source axis to bound the (n_out, chunk) temporaries
    chunk = max(1, int(_CHUNK // max(x_out.size, 1)))
    for s in range(0, x_src.size, chunk):
        dt = t_out - t_src[s : s + chunk]
        pref = np.sqrt(mass / (_TWO_PI * hbar * (eta + 1j * dt)))
        dx = x_out[:, None] - x_src[None, s : s + chunk]
        w = pref * np.exp((1j * mass / (2.0 * hbar)) * dx * dx / (dt - 1j * eta))
        out += w @ amp[s : s + chunk]
    return out


def double_quad(x_a, t_a, amp_a, x_b, t_b, amp_b, mass, hbar, eta):
    """sum_ij conj(amp_a[i]) W(p_a[i]; p_b[j]) amp_b[j] (weights folded in)."""
    return np.vdot(amp_a, propagate_numpy(x_a, t_a, x_b, t_b, amp_b, mass, hbar, eta))


def _uniform_runs(x, starts) -> np.ndarray:
    """For each run x[starts[r] : starts[r + 1]] (the last to the end):
    at least two points, equally spaced up to 1e-13 of the run's max |x|."""
    size = np.diff(starts, append=x.size)
    run = np.repeat(np.arange(starts.size), size)
    first, last = x[starts], x[starts + size - 1]
    step = (last - first) / np.maximum(size - 1, 1)
    grid = first[run] + step[run] * (np.arange(x.size) - starts[run])
    dev = np.maximum.reduceat(np.abs(x - grid), starts)
    return (size >= 2) & (dev <= 1e-13 * np.maximum.reduceat(np.abs(x), starts))


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: an FFT length numpy transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp_runs(x_out, t_out, x_src, t_src, amp, runs, mass, hbar):
    """Sum of the eta = 0 kernel over the uniform source runs [s, e) onto
    the uniform outputs at the time ``t_out``; each run is one row of a
    batched 2-D FFT.

    With Y_i = y0 + i d on a run, X_j = x0 + j D and k = m / (2 hbar dt),
    k (X_j - Y_i)^2 = [k Y_i^2 - 2 k x0 Y_i - r i^2]
                    + [k X_j^2 - 2 k D y0 j - r j^2] + r (j - i)^2
    with r = k D d: a pre-chirp on the sources, a post-chirp on the outputs
    and a linear convolution with h_q = exp(i r q^2), q = -(n-1) .. m-1.
    """
    m, n = x_out.size, max(e - s for s, e in runs)
    size = _fast_len(m + n - 1)
    q = np.arange(size)
    q = np.where(q < m, q, q - size)  # lag held by each FFT bin
    j, i = np.arange(m), np.arange(n)
    x0, d_out = x_out[0], (x_out[-1] - x_out[0]) / (m - 1)
    out = np.zeros(m, dtype=np.complex128)
    batch = max(1, _CHUNK // (4 * size))  # six (batch, size) temporaries at most
    for b in range(0, len(runs), batch):
        part = runs[b : b + batch]
        y = np.zeros((len(part), n))
        a = np.zeros((len(part), n), dtype=np.complex128)
        for row, (s, e) in enumerate(part):
            y[row, : e - s] = x_src[s:e]
            a[row, : e - s] = amp[s:e]
        d = np.array([(x_src[e - 1] - x_src[s]) / (e - s - 1) for s, e in part])
        dt = t_out - t_src[[s for s, _ in part]]
        kap = (mass / (2.0 * hbar)) / dt[:, None]
        r = kap * d_out * d[:, None]
        a *= np.sqrt(mass / (_TWO_PI * hbar * 1j * dt))[:, None]
        a *= np.exp(1j * (kap * y * (y - 2.0 * x0) - r * i * i))
        h = np.exp(1j * r * (q * q))
        conv = np.fft.fft(a, size, axis=1)
        conv *= np.fft.fft(h, axis=1)
        conv = np.fft.ifft(conv, axis=1)
        post = np.exp(1j * (kap * (x_out * x_out - 2.0 * d_out * y[:, :1] * j) - r * j * j))
        out += np.sum(post * conv[:, :m], axis=0)
    return out


def propagate(x_out, t_out, x_src, t_src, amp, mass, hbar, eta):
    """Same sum as ``propagate_numpy`` at the scalar output time ``t_out``.
    When eta == 0 and x_out is uniform, each run of at least two uniformly
    spaced sources at one time takes the chirp-z transform; every other
    source takes the dense sum."""
    runs = []
    dense = np.ones(x_src.size, dtype=bool)
    uniform_out = min(x_out.size, x_src.size) >= 2 and _uniform_runs(x_out, np.array([0]))[0]
    if eta == 0 and uniform_out:
        starts = np.r_[0, np.flatnonzero(np.diff(t_src)) + 1]
        ok = _uniform_runs(x_src, starts)
        ends = np.append(starts[1:], x_src.size)
        dense = ~np.repeat(ok, ends - starts)
        runs = list(zip(starts[ok].tolist(), ends[ok].tolist()))
    out = propagate_numpy(x_out, t_out, x_src[dense], t_src[dense], amp[dense], mass, hbar, eta)
    if runs:
        out += _chirp_runs(x_out, t_out, x_src, t_src, amp, runs, mass, hbar)
    return out


def backend() -> str:
    """Kernel backend: always "numpy" (the chirp-z path uses numpy.fft)."""
    return "numpy"
