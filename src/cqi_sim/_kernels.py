"""Hot numerical kernels: free-propagator sums over source points.

The kernel is the normalized free-particle amplitude

    W(x,t; x',t') = sqrt(m / (2 pi i hbar (dt - i eta)))
                    * exp(i m (x-x')^2 / (2 hbar (dt - i eta)))

with dt = t - t' and an optional damping parameter eta >= 0 that
rotates the time difference slightly into the complex plane.  Callers
must keep dt != 0 whenever eta == 0.

With eta == 0, ``propagate`` sums a (rows, n) block of sources, each row n >= 2 uniformly
spaced points at one time, onto uniform outputs as a chirp-z transform: Bluestein's FFT
convolution in O((n + m) log(n + m)) (Rabiner, Schafer & Rader, IEEE Trans. Audio
Electroacoust. 17(2), 1969; Bluestein, ibid. 18(4), 1970).  The caller, which knows its
lattice, builds the block.  A flat point cloud, or a block failing any of these conditions,
takes the dense O(n * m) sum ``propagate_numpy``, which the tests keep as the reference.
The double quadrature ``double_quad`` takes points or (rows, n) blocks too, and has two
paths: with eta > 0 and both sides on one block of equal uniform x rows at uniform row
times, one 2-D FFT convolution over the block's lags; otherwise a vdot against that same
dense sum.

Every chirp of that transform is exp(i (alpha + beta j + gamma j^2)) per
row, and ``_chirp`` builds it by a two-level recurrence instead of one
complex exp per element: with j = p q + s and q about sqrt(n), block p
is block p-1 times two unit factors, exp(i q (beta + gamma q (2p - 1)))
and exp(2 i gamma q s).  Each block adds a few roundings, so after the
about sqrt(n) blocks the error is O(sqrt(n) u), u = 1.1e-16: at most
about 2.5e-13 at n = 2^17, 2.2e-14 measured there against np.exp at
exact (dyadic) arguments.  An exact exp errs already by about
u |alpha + beta j + gamma j^2| from rounding its argument.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_PI = 2.0 * math.pi
_CHUNK = 4_000_000  # elements per (outputs x sources) temporary of a dense sum
_MIN_SLAB = 256  # least elements per _chirp block: below it numpy's call overhead dominates


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
    """sum_ij conj(amp_a[i]) W(p_a[i]; p_b[j]) amp_b[j] (weights folded in), from points or
    (rows, n) blocks.  With eta > 0 and both sides on one block, its rows the same uniform x
    points at one time each and its row times uniform, W depends on the lag alone: amp_b
    takes one 2-D FFT convolution with W on the block's lags.  All else is the dense sum."""
    block = eta > 0 and x_a.ndim == 2 and min(x_a.shape) >= 2
    block = block and np.array_equal(x_a, x_b) and np.array_equal(t_a, t_b)
    block = block and np.all(x_a == x_a[0]) and np.all(t_a == t_a[:, :1])
    if not (block and _uniform(x_a[0]) and _uniform(t_a[:, 0])):
        flat = (x_a.ravel(), t_a.ravel(), x_b.ravel(), t_b.ravel(), amp_b.ravel())
        return np.vdot(amp_a, propagate_numpy(*flat, mass, hbar, eta))
    rows, n = x_a.shape
    shape = (_fast_len(2 * rows - 1), _fast_len(2 * n - 1))  # no lag wraps
    steps = ((t_a[-1, 0] - t_a[0, 0]) / (rows - 1), (x_a[0, -1] - x_a[0, 0]) / (n - 1))
    lt, lx = (np.fft.fftfreq(s, 1.0 / s) * h for s, h in zip(shape, steps))
    z = np.zeros(1)
    w = propagate_numpy(np.tile(lx, lt.size), np.repeat(lt, lx.size), z, z, z + 1, mass, hbar, eta)
    conv = np.fft.ifft2(np.fft.fft2(amp_b, shape) * np.fft.fft2(w.reshape(shape)))
    return np.vdot(amp_a, conv[:rows, :n])


def _uniform(x) -> np.ndarray:
    """For each row of the (..., n) array x, n >= 2: equally spaced up to 1e-13 of its max |x|."""
    grid = x[..., :1] + (x[..., -1:] - x[..., :1]) / (x.shape[-1] - 1) * np.arange(x.shape[-1])
    return np.max(np.abs(x - grid), axis=-1) <= 1e-13 * np.max(np.abs(x), axis=-1)


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


def _chirp(alpha, beta, gamma, n):
    """exp(i (alpha + beta j + gamma j^2)) for j = 0 .. n-1, one row per
    entry of the (rows, 1) coefficient columns (a scalar broadcasts).

    With j = p q + s, 0 <= s < q, block 0 is an exact exp and block p is
    block p-1 times exp(i q (beta + gamma q (2p - 1))) exp(2 i gamma q s):
    about 2q + n/q exps and 2n complex products per row, the products one
    in-place multiply of a (rows, q) slab per block.  q = ceil(sqrt(n)),
    raised to give each slab at least _MIN_SLAB elements.
    """
    rows = np.broadcast(alpha, beta, gamma).shape[0]
    q = min(n, max(math.isqrt(n - 1) + 1, -(-_MIN_SLAB // rows)))
    blocks = -(-n // q)
    s = np.arange(q)
    out = np.empty((blocks, rows, q), dtype=np.complex128)
    out[0] = np.exp(1j * (alpha + (beta + gamma * s) * s))
    if blocks > 1:
        step = np.exp((2j * q) * gamma * s)
        jump = np.exp((1j * q) * (beta + (gamma * q) * np.arange(1, 2 * blocks - 1, 2)))
        for p in range(1, blocks):
            np.multiply(out[p - 1], step, out=out[p])
            out[p] *= jump[:, p - 1 : p]
    return out.transpose(1, 0, 2).reshape(rows, -1)[:, :n]


def _chirp_rows(x_out, t_out, y0, d, t_src, a, mass, hbar):
    """Sum of the eta = 0 kernel from the (rows, n) sources a, row r at y0[r] + d[r] i and
    time t_src[r], onto the uniform outputs at the time ``t_out``: one batched 2-D FFT.

    With Y_i = y0 + i d on a row, X_j = x0 + j D and k = m / (2 hbar dt),
    k (X_j - Y_i)^2 = [k y0 (y0 - 2 x0) + 2 k d (y0 - x0) i + (k d^2 - r) i^2]
                    + [k x0^2 + 2 k D (x0 - y0) j + (k D^2 - r) j^2] + r (j - i)^2
    with r = k D d: a pre-chirp on the sources, a post-chirp on the outputs and a linear
    convolution with h_q = exp(i r q^2), q = -(n-1) .. m-1, held in FFT bin q + n - 1.
    """
    m, n = x_out.size, a.shape[1]
    size = _fast_len(m + n - 1)
    x0, d_out = x_out[0], (x_out[-1] - x_out[0]) / (m - 1)
    out = np.zeros(m, dtype=np.complex128)
    batch = max(1, _CHUNK // (4 * size))  # six (batch, size) temporaries at most
    for b in range(0, a.shape[0], batch):
        y, dy = y0[b : b + batch, None], d[b : b + batch, None]
        dt = t_out - t_src[b : b + batch]
        kap = (mass / (2.0 * hbar)) / dt[:, None]
        r = kap * d_out * dy
        rows = a[b : b + batch] * np.sqrt(mass / (_TWO_PI * hbar * 1j * dt))[:, None]
        rows *= _chirp(kap * y * (y - 2.0 * x0), 2.0 * kap * dy * (y - x0), kap * dy * dy - r, n)
        conv = np.fft.fft(rows, size, axis=1)
        conv *= np.fft.fft(_chirp(r * (n - 1) ** 2, -2.0 * (n - 1) * r, r, size), axis=1)
        conv = np.fft.ifft(conv, axis=1)
        post = _chirp(kap * x0 * x0, 2.0 * kap * d_out * (x0 - y), kap * d_out * d_out - r, m)
        post *= conv[:, n - 1 : n - 1 + m]
        out += post.sum(axis=0)
    return out


def propagate(x_out, t_out, x_src, t_src, amp, mass, hbar, eta):
    """Same sum as ``propagate_numpy`` at the scalar output time ``t_out``, from points or
    (rows, n) blocks.  With eta == 0 and uniform x_out, a block whose rows each hold two or
    more uniform points at one time takes the chirp-z transform; all else the dense sum."""
    block = x_src.ndim == 2 and eta == 0 and min(x_out.size, x_src.shape[1]) >= 2
    if block and _uniform(x_out) and np.all(t_src == t_src[:, :1]) and np.all(_uniform(x_src)):
        d = (x_src[:, -1] - x_src[:, 0]) / (x_src.shape[1] - 1)
        return _chirp_rows(x_out, t_out, x_src[:, 0], d, t_src[:, 0], amp, mass, hbar)
    return propagate_numpy(x_out, t_out, x_src.ravel(), t_src.ravel(), amp.ravel(), mass, hbar, eta)


def backend() -> str:
    """Kernel backend: always "numpy" (the chirp-z path uses numpy.fft)."""
    return "numpy"
