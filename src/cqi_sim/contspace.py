"""Discretized extended configuration space (x, t) for a free particle.

Kinematical data are complex amplitudes sampled on a rectangular grid.
The physical content of such data is obtained through the normalized
free Schroedinger kernel

    W(x,t; x',t') = sqrt(m/(2 pi i hbar (t-t'))) exp(i m (x-x')^2 / (2 hbar (t-t')))

which acts as the projector onto solutions: projecting a kinematical
function and evaluating on a constant-time slice gives the wavefunction
there, and the physical inner product of two kinematical functions
equals the ordinary L2 product of their projections on any common
slice.

Time-measure convention: a GridFunction whose support occupies a single
time slice is interpreted as carrying a delta factor in time (weight 1,
the Schroedinger-picture limit); genuinely smeared supports use the
plain dx dt Lebesgue measure with per-band trapezoid weights.

A state's support is its time slices and the contiguous x range holding
any value above SUPPORT_EPS (``GridFunction.support``, which rejects an
empty state); every kernel sum runs over that block of its amplitudes.

Equal-time kernel evaluations are the delta channel and are handled
explicitly; direct double quadrature across coincident slices therefore
requires a positive damping parameter eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalValidationError
from .utils import trapezoid_weights

SUPPORT_EPS = 1e-14

__all__ = [
    "Grid",
    "GridFunction",
    "PropagatorKernel",
    "propagate_point",
    "project",
    "collapse_to_slice",
    "physical_inner_product",
    "spectral_evolve",
    "spectral_collapse_k",
    "gaussian_packet",
]


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular sampling of the (x, t) plane."""

    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        if self.nx < 2 or self.nt < 2:
            raise ValueError("grids need at least two points per axis")
        if self.x_max <= self.x_min or self.t_max <= self.t_min:
            raise ValueError("grid extents must be positive")

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.nt - 1)


@dataclass(frozen=True, eq=False)
class PropagatorKernel:
    """Free-particle kernel parameters; eta damps oscillatory quadrature."""

    mass: float = 1.0
    hbar: float = 1.0
    regularization_eta: float = 0.0

    def __post_init__(self):
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if self.regularization_eta < 0:
            raise ValueError("regularization_eta must be nonnegative")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Sampled kinematical amplitude on a Grid, shape (nx, nt)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.nx, self.grid.nt):
            raise ValueError(
                f"values shape {v.shape} does not match grid ({self.grid.nx}, {self.grid.nt})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def on_slice(cls, grid: Grid, values_x: np.ndarray, t_index: int) -> "GridFunction":
        v = np.zeros((grid.nx, grid.nt), dtype=complex)
        v[:, t_index] = values_x
        return cls(grid, v)

    def support(self) -> tuple[np.ndarray, slice]:
        """Support slices (rows) and the contiguous x range (columns) holding any amplitude
        above SUPPORT_EPS; the block of ``amplitudes()`` every kernel sum runs over."""
        on = np.abs(self.values) > SUPPORT_EPS
        rows, cols = np.flatnonzero(on.any(axis=0)), np.flatnonzero(on.any(axis=1))
        if rows.size == 0:
            raise NumericalValidationError("grid function has empty support")
        return rows, slice(cols[0], cols[-1] + 1)

    def time_weights(self) -> np.ndarray:
        """Quadrature weight per time slice.

        A single-slice support is delta-normalized in time (weight 1);
        otherwise each contiguous support run gets local trapezoid
        weights dt * [1/2, 1, ..., 1, 1/2].
        """
        w = np.zeros(self.grid.nt)
        sup = self.support()[0]
        if sup.size == 1:
            w[sup[0]] = 1.0
            return w
        dt = self.grid.dt
        runs = np.split(sup, np.flatnonzero(np.diff(sup) > 1) + 1)
        for run in runs:
            w[run] = trapezoid_weights(run.size, dt) if run.size > 1 else dt
        return w

    def x_weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid.nx, self.grid.dx)

    def amplitudes(self) -> np.ndarray:
        """Values times their x and time weights as an (nt, nx) block, values at or below
        SUPPORT_EPS weighing 0: the kernel sums' source amplitudes."""
        v, w = self.values.T, np.outer(self.time_weights(), self.x_weights())
        return np.where(np.abs(v) > SUPPORT_EPS, v, 0) * w


def propagate_point(
    k: PropagatorKernel, x: float, t: float, xp: float, tp: float
) -> complex:
    """W(x,t; x',t') for t != t' (coincident times are the delta channel)."""
    if t == tp:
        raise NumericalValidationError("propagate_point requires t != t'")
    out = _kernels.propagate(
        np.array([float(x)]),
        float(t),
        np.array([float(xp)]),
        np.array([float(tp)]),
        np.array([1.0 + 0.0j]),
        k.mass,
        k.hbar,
        k.regularization_eta,
    )
    return complex(out[0])


def project(psi: GridFunction, k: PropagatorKernel, t_out: float) -> np.ndarray:
    """Evaluate the projected (physical) state on the grid's x sampling at
    the slice t = t_out.

    Trapezoid quadrature of the kernel against the support of ``psi``,
    handed to the kernel sum as one (slices, columns) block of
    ``psi.amplitudes()`` over its support's x range; a support slice lying
    exactly on t_out contributes through the delta channel (its weighted
    values are added directly).
    """
    grid, tw = psi.grid, psi.time_weights()
    rows, cols = psi.support()
    on_slice = np.isclose(grid.t[rows], t_out, rtol=0.0, atol=1e-12 * max(1.0, abs(t_out)))
    out = np.zeros(grid.nx, dtype=complex)
    if np.any(on_slice):
        j = int(np.argmin(np.abs(grid.t - t_out)))
        out += psi.values[:, j] * tw[j]
    off = rows[~on_slice]
    if off.size:
        src = (*np.broadcast_arrays(grid.x[cols], grid.t[off, None]), psi.amplitudes()[off, cols])
        out += _kernels.propagate(grid.x, float(t_out), *src, k.mass, k.hbar, k.regularization_eta)
    return out


def collapse_to_slice(
    psi: GridFunction, k: PropagatorKernel, t_ref: float
) -> np.ndarray:
    """Projected state on the slice t_ref by batched spectral evolution.

    All support slices are transformed once at full width (the FFT is
    periodic), evolved to t_ref and summed with their time-quadrature
    weights in k-space by ``spectral_collapse_k``, then take one inverse
    FFT.  Numerically robust for arbitrarily small time offsets (the
    kernel quadrature of ``project`` chirps too fast to sample at short
    offsets); used by the slice route of the physical inner product.
    """
    grid, tw = psi.grid, psi.time_weights()
    rows = psi.support()[0]
    phase = _kinetic_phase(grid.nx, grid.dx, k, t_ref - grid.t[rows])
    return np.fft.ifft(spectral_collapse_k(np.fft.fft(psi.values[:, rows].T), phase, tw[rows]))


def physical_inner_product(
    psi: GridFunction,
    phi: GridFunction,
    k: PropagatorKernel,
    method: str = "slice",
    eta: float | None = None,
) -> complex:
    """<psi | P | phi>: double kernel quadrature over both supports.

    method "slice" (default) exploits the identity that the product
    equals the ordinary L2 product of the two projections on any common
    reference slice (unitarity of the kernel); the collapse to the
    latest support time is done spectrally, which stays accurate at
    arbitrarily small time offsets.  method "direct" performs the raw
    double quadrature with the kernel itself, each state's support block
    of ``amplitudes()`` against the other's; it needs a positive ``eta``
    whenever the supports share time slices.  Two single-slice states on
    a common slice reduce to the plain L2 product (the delta channel).
    """
    if psi.grid.nx != phi.grid.nx or not np.allclose(psi.grid.x, phi.grid.x):
        raise NumericalValidationError("states must share the same x sampling")
    sup = psi.support(), phi.support()
    (ra, _), (rb, _) = sup
    ta, tb = psi.grid.t[ra], phi.grid.t[rb]
    if ra.size == rb.size == 1 and abs(ta[0] - tb[0]) < 1e-12:
        a, b = psi.values[:, ra[0]], phi.values[:, rb[0]]
        return complex(np.sum(psi.x_weights() * np.conj(a) * b))

    if method == "slice":
        t_ref = float(max(ta[-1], tb[-1]))
        a = collapse_to_slice(psi, k, t_ref)
        b = collapse_to_slice(phi, k, t_ref)
        return complex(np.sum(psi.x_weights() * np.conj(a) * b))

    if method == "direct":
        if psi.grid != phi.grid:
            raise NumericalValidationError("direct double quadrature needs both states on one grid")
        if eta is None:
            eta = k.regularization_eta or 1e-3 * psi.grid.dt
        if eta <= 0 and np.intersect1d(ra, rb).size:
            raise NumericalValidationError(
                "direct double quadrature across shared time slices needs eta > 0"
            )
        x, t = np.broadcast_arrays(psi.grid.x, psi.grid.t[:, None])
        a, b = ((x[r, c], t[r, c], f.amplitudes()[r, c]) for (r, c), f in zip(sup, (psi, phi)))
        return complex(_kernels.double_quad(*a, *b, k.mass, k.hbar, eta))
    raise ValueError(f"unknown method {method!r}")


def spectral_evolve(
    values_x: np.ndarray,
    dx: float,
    k: PropagatorKernel,
    t_total: float | np.ndarray,
    n_steps: int = 1,
) -> np.ndarray:
    """Free evolution of x-sampled states by the exact Fourier propagator.

    ``values_x`` is (..., nx) with x last; ``t_total`` is a scalar or
    broadcasts against ``values_x.shape[:-1]``.  Each of the ``n_steps``
    equal steps transforms every row forward and back once; a single
    step is already exact up to the grid's momentum cutoff.  Periodic
    boundary conditions apply, so states must stay away from the grid
    edges.  This integrator is independent of the kernel quadrature path
    and serves as its cross-check.
    """
    psi = np.asarray(values_x, dtype=complex).copy()
    exp_kin = _kinetic_phase(psi.shape[-1], dx, k, np.asarray(t_total, dtype=float) / n_steps)
    for _ in range(n_steps):
        psi = np.fft.ifft(exp_kin * np.fft.fft(psi))
    return psi


def spectral_collapse_k(coefs, phase, weights) -> np.ndarray:
    """sum_t weights[t] coefs[..., t, :] phase[t] for the FFT coefficients (..., nt, nx) of
    slices and the ``_kinetic_phase`` (nt, nx) of their lags: the k-space coefficients
    (..., nx) of the slices evolved by their lags and summed with their weights, the
    collapse of ``collapse_to_slice`` and of the covariant trace."""
    return np.einsum("...tk,tk->...k", coefs, np.asarray(weights)[:, None] * phase)


def _kinetic_phase(nx: int, dx: float, k: PropagatorKernel, t: np.ndarray) -> np.ndarray:
    """exp(-i hbar k^2 t / 2m) on the FFT wavenumbers, shape t.shape + (nx,): built on the
    nx // 2 + 1 distinct |k| and mirrored (fftfreq's +-k square to the same float)."""
    kvec = 2.0 * np.pi * np.fft.fftfreq(nx, d=dx)[: nx // 2 + 1]
    half = np.exp(-1j * k.hbar * kvec**2 * np.asarray(t)[..., None] / (2.0 * k.mass))
    return np.concatenate([half, half[..., (nx - 1) // 2 : 0 : -1]], axis=-1)


def gaussian_packet(
    x: np.ndarray, center: float, width: float, momentum: float = 0.0, tau=0.0
) -> np.ndarray:
    """L2-normalized Gaussian (pi a^2)^(-1/4) exp(-(x-c)^2/(2a^2) + i k (x-c)).

    ``width`` is the amplitude width a; the density |psi|^2 then has
    variance a^2/2 and spreads as a^2 -> a^2 + (hbar t / (m a))^2.  With
    ``tau`` = hbar (t - i eta) / m (scalar, or broadcasting against x) it
    is the packet evolved for time t by the kernel with damping eta.
    """
    a = float(width)
    zeta = 1.0 + 1j * tau / a**2
    drift = x - center - tau * momentum
    return (np.pi * a**2) ** -0.25 / np.sqrt(zeta) * np.exp(
        -(drift**2) / (2.0 * a**2) * (1.0 / zeta)
        + 1j * momentum * (x - center - 0.5 * tau * momentum)
    )
