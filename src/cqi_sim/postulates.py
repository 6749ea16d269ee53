"""Weakly coupled two-state detector for a free particle, three ways.

A detector sits in a spacetime region R and flips |0> -> |1> with
first-order amplitude proportional to the coupling.  The activation
probability is computed by

* the Born route: squared norm of the |1>-branch wavefunction on a late
  constant-time slice, cross-checked against the equivalent double
  integral of the kernel over R x R (evaluated spectrally);
* the kinematical-overlap route (rr): squared modulus of the plain L2
  overlap of the evolved wavefunction with the normalized indicator of
  R, which carries no kernel factor and therefore disagrees with the
  Born value for extended regions;
* the covariant route (cqi): reduced density operator of the detector
  and observer on an interaction-free readout region, the Gram matrix of
  physical inner products of the observer-conditioned system components.

Units follow the kernel (default hbar = m = 1).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from . import _kernels, hilbert
from .contspace import Grid, PropagatorKernel, _kinetic_phase, gaussian_packet, spectral_collapse_k
from .errors import InvariantViolation, NumericalValidationError
from .hilbert import DensityOp
from .utils import trapezoid_weights

__all__ = [
    "Rect",
    "JointState",
    "CovariantReducedState",
    "DetectorExperiment",
    "Resolution",
    "resolve",
    "BornDetail",
    "CqiResult",
    "TwoPointReport",
    "benchmark_experiment",
    "two_point_experiment",
    "evolved_wavefunction",
    "first_order_amplitude",
    "born_probability",
    "born_probability_detail",
    "rr_probability",
    "covariant_partial_trace",
    "cqi_probability",
    "cqi_probability_detail",
    "two_point_report",
    "shrinking_region_sweep",
]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned interaction rectangle in the (x, t) plane."""

    x_lo: float
    x_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        for axis, lo, hi in (("x", self.x_lo, self.x_hi), ("t", self.t_lo, self.t_hi)):
            if hi <= lo:
                raise NumericalValidationError(f"rectangle {axis} extent must be positive", axis)

    @property
    def measure(self) -> float:
        return (self.x_hi - self.x_lo) * (self.t_hi - self.t_lo)


def overlapping_pair(boxes) -> tuple[int, int] | None:
    """First (i, j), i < j, of rectangles (x_lo, x_hi, t_lo, t_hi) whose interiors meet;
    a common edge or corner is no overlap."""
    for j, b in enumerate(boxes):
        for i, a in enumerate(boxes[:j]):
            if max(a[0], b[0]) < min(a[1], b[1]) and max(a[2], b[2]) < min(a[3], b[3]):
                return i, j
    return None


@dataclass(frozen=True, eq=False)
class JointState:
    """Kinematical state of system x observer factors on a readout region.

    ``values`` has shape (nx, nt, d_obs) over the x sampling and the
    slice times; ``obs_dims`` records the tensor structure of the
    observer side.  The x grid is periodic, with equal weights dx.  A
    single slice (nt == 1) is delta-normalized in time, a band uses
    trapezoid weights (any smearing profile is folded into the values).
    Both axes must be uniformly sampled.
    """

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray
    obs_dims: tuple[int, ...]

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        t = np.atleast_1d(np.asarray(self.t, dtype=float))
        v = np.asarray(self.values, dtype=complex)
        d = math.prod(self.obs_dims)
        if v.shape != (x.size, t.size, d):
            raise ValueError(f"values shape {v.shape} != {(x.size, t.size, d)}")
        for name, a in (("x", x), ("t", t)):
            if a.size > 2 and not np.allclose(np.diff(a), a[1] - a[0], rtol=1e-9, atol=0.0):
                raise ValueError(f"{name} sampling must be uniform")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)

    def x_weights(self) -> np.ndarray:
        return np.full(self.x.size, float(self.x[1] - self.x[0]))

    def t_weights(self) -> np.ndarray:
        if self.t.size == 1:
            return np.array([1.0])
        return trapezoid_weights(self.t.size, float(self.t[1] - self.t[0]))


@dataclass(frozen=True, eq=False)
class CovariantReducedState:
    rho: DensityOp
    schmidt_rank: int
    trace_raw: float  # physical norm squared of the input before normalization


@dataclass(frozen=True, eq=False)
class DetectorExperiment:
    """Full specification of one detector run.

    The region rectangles must sit strictly between the preparation
    time and both readouts (the Born slice and the covariant band).
    """

    packet_center: float
    packet_width: float
    packet_momentum: float
    t0: float
    region: tuple[Rect, ...]
    coupling_alpha: float
    potential_v: float
    readout_time: float
    band: tuple[float, float]
    x_min: float = -20.0
    x_max: float = 20.0
    nx: int = 512
    kernel: PropagatorKernel = PropagatorKernel()
    refine_level: int = 0
    pert_tol: ClassVar[float] = 0.05
    xcheck_tol: ClassVar[float] = 1e-3

    def __post_init__(self):
        if self.coupling_alpha < 0:
            raise NumericalValidationError("coupling_alpha must be nonnegative", "coupling_alpha")
        if self.packet_width <= 0:
            raise NumericalValidationError("packet_width must be positive", "packet_width")
        if not self.region:
            raise NumericalValidationError("at least one interaction rectangle required", "region")
        if pair := overlapping_pair([astuple(r) for r in self.region]):
            msg = "region rectangles {} and {} overlap".format(*pair)
            raise NumericalValidationError(msg, "region")
        span = self.span
        if span.t_lo <= self.t0:
            raise NumericalValidationError("region must start after the preparation slice", "t0")
        if self.readout_time <= span.t_hi:
            raise NumericalValidationError("readout_time must lie after the region", "readout_time")
        if self.band[0] <= span.t_hi or self.band[1] <= self.band[0]:
            msg = "band must be a future, interaction-free interval"
            raise NumericalValidationError(msg, "band")

    @property
    def span(self) -> Rect:
        """Bounding rectangle of the region."""
        r = self.region
        x_lo, x_hi = min(q.x_lo for q in r), max(q.x_hi for q in r)
        return Rect(x_lo, x_hi, min(q.t_lo for q in r), max(q.t_hi for q in r))

    @property
    def band_slices(self) -> int:
        return 9 * 2**self.refine_level

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @cached_property
    def resolution(self) -> "Resolution":
        """Every discretization choice of this experiment, made once by ``resolve``."""
        return resolve(self)

    def refined(self, k: int = 1) -> "DetectorExperiment":
        """Same experiment with nx, band_slices and the source quadrature doubled k times."""
        return replace(self, nx=self.nx * 2**k, refine_level=self.refine_level + k)

    def validate_perturbative(self) -> float:
        """The crude second-to-first-order amplitude ratio r of the coupling;
        fails unless it is within ``pert_tol``."""
        t_extent = sum(r.t_hi - r.t_lo for r in self.region)
        r = 0.5 * self.coupling_alpha * abs(self.potential_v) * t_extent / self.kernel.hbar
        if r > self.pert_tol:
            raise NumericalValidationError(
                f"perturbation ratio {r:.3g} exceeds tolerance {self.pert_tol}"
            )
        return r


# packet and coupling shared by the slab and the two-point experiments
_DETECTOR_DEFAULTS = dict(
    packet_center=-5.0,
    packet_width=1.0,
    packet_momentum=0.0,
    t0=0.0,
    coupling_alpha=0.02,
    potential_v=1.0,
)


def benchmark_experiment(refine: int = 0, **overrides) -> DetectorExperiment:
    """Default slab experiment: a spreading packet probed by a thin slab."""
    params = {
        **_DETECTOR_DEFAULTS,
        "region": (Rect(-0.5, 0.5, 3.0, 3.2),),
        "readout_time": 4.2,
        "band": (3.5, 3.9),
        **overrides,
    }
    exp = DetectorExperiment(**params)
    return exp.refined(refine) if refine else exp


def two_point_experiment(
    separation: float = 2.0,
    eps_pt: float = 80.0 / 511,  # two steps of the default grid, whatever grid is passed
    t1: float = 3.0,
    refine: int = 0,
    **overrides,
) -> DetectorExperiment:
    """Region made of two small squares placed symmetrically about the
    packet center, so the evolved wavefunction takes equal values on
    both (the maximal-interference configuration)."""
    base = dict(_DETECTOR_DEFAULTS, **overrides)
    a = base["packet_center"] - separation
    b = base["packet_center"] + separation
    base.setdefault("readout_time", t1 + eps_pt + 0.8)
    base.setdefault("band", (t1 + eps_pt + 0.3, t1 + eps_pt + 0.7))
    base["region"] = (
        Rect(a - eps_pt / 2, a + eps_pt / 2, t1, t1 + eps_pt),
        Rect(b - eps_pt / 2, b + eps_pt / 2, t1, t1 + eps_pt),
    )
    exp = DetectorExperiment(**base)
    return exp.refined(refine) if refine else exp


@dataclass(frozen=True)
class Resolution:
    """Every discretization choice of one detector experiment, made by ``resolve``."""

    packet_k: float  # wavenumber scale of the prepared packet over the region
    physical_k: float  # that of the |1>-branch: packet_k + sqrt(2 pi m / hbar tau_min)
    sources: tuple[tuple[int, int], ...]  # (x, t) trapezoid source nodes per rectangle;
    # at time density d a rectangle has (n_t - 1) d + 1 slices, here and in ``filon``
    readout: tuple[float, float, int]  # Born readout slice: its ends and points
    filon: tuple[tuple[int, int], ...]  # (x, t) Filon-Simpson nodes of S(k) per rectangle
    spectral_n: int  # wavenumbers of S(k), and points of the covariant band's x grid
    t_density: int  # source time density at the readout; the node counts above are at 1


def resolve(exp: DetectorExperiment) -> Resolution:
    """The discretization of ``exp``, by its every rule; read it as ``exp.resolution``."""
    m, hb, span = exp.kernel.mass, exp.kernel.hbar, exp.span
    # the packet: its momentum, the chirp of its spreading across the region, its envelope
    t = 0.5 * (span.t_lo + span.t_hi) - exp.t0  # from the preparation to the region's middle
    chirp = t * m / hb / (t**2 + (m * exp.packet_width**2 / hb) ** 2)
    x_far = max(abs(span.x_lo - exp.packet_center), abs(span.x_hi - exp.packet_center))
    packet_k = abs(exp.packet_momentum) + chirp * x_far + 4.0 / exp.packet_width
    tau_min = min(r.t_hi - r.t_lo for r in exp.region)
    physical_k = packet_k + math.sqrt(2.0 * math.pi * m / (hb * tau_min))
    # sources: a quarter of the unrefined grid step, at least 33 nodes, then 2^refine finer
    scale = 2**exp.refine_level
    step = 0.25 * (exp.dx * scale)
    sides = [(r.x_hi - r.x_lo, r.t_hi - r.t_lo) for r in exp.region]
    sources = tuple(tuple(max(33, int(np.ceil(s / step)) + 1) * scale for s in xt) for xt in sides)
    # the readout slice holds the ballistic reach of `reach` k_phys, and samples |phi|^2,
    # of twice that band, exactly up to aliasing at pi / (reach k_phys), whatever nx
    reach = 2.5
    pad = reach * hb * physical_k * (exp.readout_time - span.t_lo) / m + 4.0
    lo, hi = span.x_lo - pad, span.x_hi + pad
    readout = (lo, hi, int(np.ceil((hi - lo) * reach * physical_k / np.pi)) + 1)
    # Filon nodes keep the packet's phase within 0.35 rad per step (0.7 per panel), in x and t
    rates = (packet_k, 0.5 * hb * packet_k**2 / m)
    filon = tuple(tuple(2 * math.ceil(s * q / 0.7) + 1 for s, q in zip(xt, rates)) for xt in sides)
    # S(k) on the FFT wavenumbers of the period nx dx, past a coarse grid's Nyquist up to
    # 2 reach k_phys; the covariant band samples that period at as many points
    spectral_n = max(exp.nx, math.ceil(2 * reach * physical_k * (exp.nx * exp.dx) / np.pi))
    t_density = _t_density(exp, exp.readout_time, physical_k, sources)
    return Resolution(packet_k, physical_k, sources, readout, filon, spectral_n, t_density)


# --------------------------------------------------------------------------
# wavefunction and first-order amplitude


def psi0_values(exp: DetectorExperiment, x: np.ndarray | None = None) -> np.ndarray:
    if x is None:
        x = exp.x()
    return gaussian_packet(x, exp.packet_center, exp.packet_width, exp.packet_momentum)


def evolved_wavefunction(
    exp: DetectorExperiment, x: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """Freely evolved prepared state at (x, t), in closed form.

    The kernel (with its damping eta) carries the prepared Gaussian to
    the Gaussian at complex time tau = hbar (t - t0 - i eta) / m.  A 1-D
    array ``t`` gives shape (len(t), len(x)), one row per time.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(times < exp.t0):
        raise NumericalValidationError("evolved_wavefunction requires t >= t0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    late = times > exp.t0
    out = np.empty((times.size, x.size), dtype=complex)
    if not late.all():
        out[~late] = psi0_values(exp, x)
    if late.any():
        k = exp.kernel
        tau = k.hbar * (times[late, None] - exp.t0 - 1j * k.regularization_eta) / k.mass
        out[late] = gaussian_packet(
            x, exp.packet_center, exp.packet_width, exp.packet_momentum, tau
        )
    return out if np.ndim(t) else out[0]


def _rect_subgrid(exp: DetectorExperiment, i: int, t_density: int = 1):
    """Tensor trapezoid sub-quadrature (xq, tq, wx, wt) on rectangle i's recorded nodes."""
    rect, (nqx, nqt) = exp.region[i], exp.resolution.sources[i]
    xq = np.linspace(rect.x_lo, rect.x_hi, nqx)
    tq = np.linspace(rect.t_lo, rect.t_hi, (nqt - 1) * t_density + 1)
    wx, wt = (trapezoid_weights(a.size, a[1] - a[0]) for a in (xq, tq))
    return xq, tq, wx, wt


@lru_cache(maxsize=64)
def _region_sources(exp: DetectorExperiment, t_density: int = 1):
    """Per rectangle, its ``_rect_subgrid`` (xq, tq, wx, wt) and Psi on the tq x xq lattice:
    the readout's sources, and every t_density-th row the overlap rule's."""
    table = []
    for i in range(len(exp.region)):
        xq, tq, wx, wt = _rect_subgrid(exp, i, t_density)
        table.append((xq, tq, wx, wt, evolved_wavefunction(exp, xq, tq)))
    return tuple(table)


def _t_density_for(exp: DetectorExperiment, t: float) -> int:
    """Source time-density needed to resolve the kernel chirp at readout t."""
    return _t_density(exp, t, exp.resolution.physical_k, exp.resolution.sources)


def _t_density(exp: DetectorExperiment, t: float, physical_k: float, sources) -> int:
    """The density rule of ``_t_density_for``, given ``Resolution.physical_k`` and ``sources``.

    The kernel phase rate in the source time is m * D^2 / (2 hbar dT^2)
    with D the amplitude-carrying distance from the region; close
    readouts (small dT) therefore need denser source slices.
    """
    m, hb, span = exp.kernel.mass, exp.kernel.hbar, exp.span
    d_t = max(t - span.t_hi, 1e-12)
    reach = 1.5 * hb * physical_k * (t - span.t_lo) / m + (span.x_hi - span.x_lo) + 2.0
    rate = m * reach**2 / (2.0 * hb * d_t**2)
    density = 1
    for rect, (_, nqt) in zip(exp.region, sources):
        dt_sub = (rect.t_hi - rect.t_lo) / (nqt - 1)
        density = max(density, int(np.ceil(dt_sub * rate / (np.pi / 3.0))))
    return min(density, 8)


def _rect_amplitudes(exp: DetectorExperiment, x: np.ndarray, t: float) -> np.ndarray:
    """Each rectangle's |1>-branch amplitude at (x, t), one kernel sum per row, all at
    the union's time density: by linearity the rows add to the union's amplitude."""
    density, k = _t_density_for(exp, t), exp.kernel
    kern = (k.mass, k.hbar, k.regularization_eta)
    rows = []
    for xq, tq, wx, wt, psi in _region_sources(exp, density):
        block = np.broadcast_to(xq, psi.shape), np.broadcast_to(tq[:, None], psi.shape)
        amp = exp.potential_v * psi * wx * wt[:, None]
        rows.append(_kernels.propagate(x, t, *block, amp, *kern))
    return np.array(rows) * (exp.coupling_alpha / (1j * k.hbar))


def first_order_amplitude(exp: DetectorExperiment, x: np.ndarray, t: float) -> np.ndarray:
    """|1>-branch amplitude (alpha / i hbar) * int_R W V Psi at (x, t) by double
    trapezoid quadrature: linear in the region, the sum of ``_rect_amplitudes``."""
    if t <= exp.span.t_hi:
        raise NumericalValidationError("readout must lie after the interaction region")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _rect_amplitudes(exp, x, float(t)).sum(axis=0)


def _readout_grid(exp: DetectorExperiment) -> np.ndarray:
    """Born readout slice, independent of nx: ``Resolution.readout``."""
    return np.linspace(*exp.resolution.readout)


# --------------------------------------------------------------------------
# the three probabilities


@dataclass(frozen=True)
class BornDetail:
    p_slice: float  # |1>-branch norm on the readout slice
    p_double_region: float  # kernel double integral over R x R
    rel_diff: float
    p_slice_rects: tuple[float, ...]  # each rectangle's branch alone, same grid and density
    readout_edge_rel: float  # larger |phi| at the readout grid's ends over max |phi|
    readout_points: int  # size of the readout grid, 0 when nothing is summed


def _filon_panel(theta: np.ndarray) -> np.ndarray:
    """Filon-Simpson panel weights int_0^2 L_j(s) exp(i theta s) ds of the
    quadratics L_j through s = 0, 1, 2, from mu_m = int_0^2 s^m exp(i theta s) ds:
    mu_0 = (e^{2 i theta} - 1) / (i theta), mu_m = (2^m e^{2 i theta} - m mu_{m-1})
    / (i theta), or below |theta| = 1, where that cancels, the Taylor series
    sum_n (i theta)^n 2^{m+n+1} / ((m + n + 1) n!)."""
    small = np.abs(theta) < 1.0
    z = 1j * np.where(small, 1.0, theta)
    e2 = np.exp(2.0 * z)
    mu = [(e2 - 1.0) / z]
    for m in (1, 2):
        mu.append((2.0**m * e2 - m * mu[-1]) / z)
    mu = np.array(mu)
    m, n = np.arange(3), np.arange(26)[:, None]  # 26 terms: 2^26 / 26! < 1e-18
    series = 2.0 ** (m + n + 1) / ((m + n + 1) * np.cumprod(np.maximum(n, 1), axis=0))
    z, acc = 1j * theta[small], series[-1][:, None] + np.zeros(small.sum(), dtype=complex)
    for c in series[-2::-1]:  # Horner steps in place
        np.add(c[:, None], np.multiply(acc, z, out=acc), out=acc)
    mu[:, small] = acc
    mu0, mu1, mu2 = mu
    return np.array([(mu2 - 3.0 * mu1 + 2.0 * mu0) / 2.0, 2.0 * mu1 - mu2, (mu2 - mu1) / 2.0])


def _filon_simpson(kappa: np.ndarray, y: np.ndarray, y_ref: float, out=None) -> np.ndarray:
    """W[j, i] with sum_i W[j, i] f(y_i) = int f exp(i kappa_j (y - y_ref)) dy for the
    piecewise quadratic through f on odd uniform nodes: panel p (nodes 2p to 2p + 2)
    adds h exp(i kappa (y_2p - y_ref)) times its panel weights at theta = kappa h; into out."""
    h = y[1] - y[0]
    w0, w1, w2 = h * _filon_panel(kappa * h)
    back = np.exp(-1j * kappa * h)  # from a node's own phase to its panel's first node
    c = np.empty((kappa.size, y.size), dtype=complex) if out is None else out
    c[:, 0] = np.exp(1j * kappa * (y[0] - y_ref))
    c[:, 1:] = back.conj()[:, None]
    np.cumprod(c, axis=1, out=c)
    c[:, 2:-1:2] *= (w0 + back**2 * w2)[:, None]  # shared by two panels
    c[:, 1::2] *= (back * w1)[:, None]
    c[:, 0] *= w0
    c[:, -1] *= back**2 * w2
    return c


def _spectral_k(exp: DetectorExperiment) -> tuple[np.ndarray, float]:
    """``Resolution.spectral_n`` FFT wavenumbers 2 pi j / L of the period L = nx dx, and L."""
    length, n = exp.nx * exp.dx, exp.resolution.spectral_n
    return 2.0 * np.pi * np.fft.fftfreq(n, length / n), length


@lru_cache(maxsize=4)  # the double-region check and the band seed share one S(k)
def _region_spectrum(
    exp: DetectorExperiment, t_density: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """(k, S, L): S(k) = int_R exp(i omega (t - t_ref)) Psi exp(-i k x) dx dt, omega =
    hbar k^2 / 2m and t_ref the earliest region time, at ``_spectral_k``'s k and period
    L.  Each rectangle adds sum Wt[k, t] Psi(x, t) Wx[k, x] on its Filon-Simpson nodes
    (``Resolution.filon``), whatever nx; rectangles with one time extent share Wt.  Both are
    built on k[:h] alone: fftfreq's k[h:] are -k[back], Wx rows conjugate, Wt rows equal."""
    m, hb = exp.kernel.mass, exp.kernel.hbar
    k, length = _spectral_k(exp)
    h, back = k.size // 2 + 1, slice((k.size - 1) // 2, 0, -1)
    spec = np.zeros(k.size, dtype=complex)
    wts = {}
    for rect, (nfx, nft) in zip(exp.region, exp.resolution.filon):
        x = np.linspace(rect.x_lo, rect.x_hi, nfx)
        t = np.linspace(rect.t_lo, rect.t_hi, (nft - 1) * t_density + 1)
        wx = np.empty((k.size, nfx), dtype=complex)
        np.conj(_filon_simpson(-k[:h], x, 0.0, wx[:h])[back], out=wx[h:])
        f = evolved_wavefunction(exp, x, t) @ wx.T  # (t, k)
        if (key := (rect.t_lo, rect.t_hi, t.size)) not in wts:
            wt = wts[key] = np.empty((k.size, t.size), dtype=complex)
            wt[h:] = _filon_simpson(0.5 * hb * k[:h] ** 2 / m, t, exp.span.t_lo, wt[:h])[back]
        spec += np.einsum("kt,tk->k", wts[key], f)
    k.flags.writeable = spec.flags.writeable = False
    return k, spec, length


def _born_double_region_raw(exp: DetectorExperiment, t_density: int) -> float:
    """Double integral of conj(Psi) W Psi over R x R, evaluated spectrally: the
    kernel phase splits per region time (the paper's slice independence), so it
    is (alpha V / hbar)^2 sum |S(k)|^2 / L with ``_region_spectrum``."""
    _, spec, length = _region_spectrum(exp, t_density)
    pref = (exp.coupling_alpha * exp.potential_v / exp.kernel.hbar) ** 2
    return float(pref * np.vdot(spec, spec).real / length)


def _born_double_region(exp: DetectorExperiment) -> float:
    """Double-region integral at time density 1."""
    return _born_double_region_raw(exp, 1)


def _readout_branches(exp: DetectorExperiment) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid weights of the readout slice and ``_rect_amplitudes`` on it."""
    xr = _readout_grid(exp)
    w = trapezoid_weights(xr.size, float(xr[1] - xr[0]))
    return w, _rect_amplitudes(exp, xr, float(exp.readout_time))


def _born_slice_norm(exp: DetectorExperiment) -> float:
    """Norm of the first-order |1>-branch on the readout slice."""
    w, phis = _readout_branches(exp)
    return float(np.sum(w * np.abs(phis.sum(axis=0)) ** 2))


def born_probability_detail(exp: DetectorExperiment) -> BornDetail:
    """Both Born routes; a difference over ``xcheck_tol`` fails, naming both values.

    The slice route also gives each rectangle's norm alone (same grid and
    time density as the union) and the readout-edge margin.
    """
    exp.validate_perturbative()
    if exp.coupling_alpha == 0.0:
        return BornDetail(0.0, 0.0, 0.0, (0.0,) * len(exp.region), 0.0, 0)
    w, phis = _readout_branches(exp)
    amp = np.abs(phis.sum(axis=0))
    p_a = float(np.sum(w * amp**2))
    p_rects = tuple(float(np.sum(w * np.abs(phi) ** 2)) for phi in phis)
    edge = float(max(amp[0], amp[-1]) / max(amp.max(), 1e-300))
    p_b = _born_double_region(exp)
    rel = abs(p_a - p_b) / max(abs(p_a), 1e-300)
    if rel > exp.xcheck_tol:
        raise NumericalValidationError(
            f"Born cross-check failed at refine level {exp.refine_level}: readout slice "
            f"{p_a:.6g} and double region {p_b:.6g} differ by {rel:.3g} "
            f"(tolerance {exp.xcheck_tol})"
        )
    return BornDetail(p_a, p_b, rel, p_rects, edge, w.size)


def born_probability(exp: DetectorExperiment) -> float:
    """Detector activation probability by the Born route.

    Computed as the readout-slice norm of the first-order branch and
    cross-checked against the independent double-region kernel integral.
    """
    return born_probability_detail(exp).p_slice


def _rect_overlap(exp: DetectorExperiment, i: int) -> complex:
    """int Psi dx dt over rectangle i by the tensor trapezoid rule, Psi read off every
    t_density-th row of the readout's ``_region_sources`` (its density-1 nodes)."""
    _, _, wx, wt = _rect_subgrid(exp, i)
    psi = _region_sources(exp, exp.resolution.t_density)[i][-1][:: exp.resolution.t_density]
    return complex(sum(wt * np.sum(wx * psi, axis=1)))


def rr_probability(exp: DetectorExperiment) -> float:
    """Squared overlap of the evolved wavefunction with the normalized
    indicator of the region: |int_R Psi|^2 / measure(R).

    Carries no kernel factor and no coupling constant; comparisons with
    the Born value therefore go through normalized ratios.
    """
    total = sum(_rect_overlap(exp, i) for i in range(len(exp.region)))
    meas = sum(rect.measure for rect in exp.region)
    if meas <= 0:
        raise NumericalValidationError("region has zero measure")
    return float(abs(total) ** 2 / meas)


# --------------------------------------------------------------------------
# covariant partial trace and the cqi probability


def _covariant_trace(
    coefs, live, obs_dims, phase, tw, dx: float, norm_tol: float = 1e-3
) -> CovariantReducedState:
    """The covariant partial trace on the FFT coefficients (n, nt, nx) of a joint state's
    components ``live`` (the others are identically zero: their rho rows stay 0), time weights
    tw, equal x weights dx and ``phase`` (nt, nx) the kinetic phases of the lags to the last
    slice.  Each x sum is a Parseval sum on the periodic grid, sum_x dx f* g = (dx / nx) sum_k F* G.
    The Schmidt rank counts singular values of the t-weighted n x (nt nx) coefficients
    above 1e-12 of the largest, from their n x n R factor (the kinematical Gram matrix
    would square their condition number).  rho_raw = (dx / nx) C C^H, with C the
    components collapsed to the last slice by one ``spectral_collapse_k``."""
    n, nt, nx = coefs.shape
    r = np.linalg.qr((coefs * np.sqrt(tw)[:, None]).reshape(n, nt * nx).T, mode="r")
    s = np.linalg.svd(r, compute_uv=False)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size else 0
    if rank == 0:
        raise NumericalValidationError("joint state is numerically zero")

    cols = np.zeros((math.prod(obs_dims), nx), dtype=complex)  # d x d, one summation order
    cols[live] = spectral_collapse_k(coefs, phase, tw)
    rho_raw = (dx / nx) * (cols @ cols.conj().T)
    trace_raw = float(np.trace(rho_raw).real)
    if abs(trace_raw - 1.0) > norm_tol:
        raise NumericalValidationError(
            f"joint state is not normalized under the physical inner product "
            f"(trace {trace_raw:.6g})"
        )
    rho = 0.5 * (rho_raw + rho_raw.conj().T) / trace_raw
    return CovariantReducedState(DensityOp(rho, obs_dims), rank, trace_raw)


def covariant_partial_trace(
    joint: JointState, k: PropagatorKernel, norm_tol: float = 1e-3
) -> CovariantReducedState:
    """Observer reduced state from a joint kinematical state on its region, the
    slices ``joint.t`` over the x sampling ``joint.x``.

    rho[a, b] = <P Psi_b, P Psi_a> for the observer-conditioned system
    components Psi_a = ``values[:, :, a]``, all collapsed to the last
    slice; on a single slice this is the ordinary partial trace.  The
    components that are not identically zero are transformed once, as
    (n, nt, nx), and handed to ``_covariant_trace``.
    """
    live = np.flatnonzero(np.any(joint.values, axis=(0, 1)))
    coefs = np.fft.fft(joint.values[:, :, live].transpose(2, 1, 0))
    dx, tw = float(joint.x[1] - joint.x[0]), joint.t_weights()
    phase = _kinetic_phase(joint.x.size, dx, k, joint.t[-1] - joint.t)
    return _covariant_trace(coefs, live, joint.obs_dims, phase, tw, dx, norm_tol)


@dataclass(frozen=True, eq=False)
class CqiResult:
    p_cqi: float  # activation probability from the observer's preferred basis
    rho_observer: DensityOp
    schmidt_rank: int
    normalization_deficit: float


def _band_seeds(exp: DetectorExperiment) -> tuple[Grid, np.ndarray]:
    """FFT coefficients (2, n) of the |0>- and |1>-branch at band[0], on the band's grid:
    S(k)'s, n = ``Resolution.spectral_n`` points over the period L = nx dx.  The closed-form
    Psi through one FFT, and n (alpha V / i hbar L) S(k) exp(i k x_min - i omega
    (band[0] - t_ref) - omega eta)."""
    (k, spec, length), kern, band = _region_spectrum(exp, 1), exp.kernel, exp.band
    n = k.size
    grid = Grid(exp.x_min, exp.x_min + (n - 1) * length / n, n, band[0], band[1], exp.band_slices)
    lag = 1j * (band[0] - exp.span.t_lo) + kern.regularization_eta
    pref = n * exp.coupling_alpha * exp.potential_v / (1j * kern.hbar * length)
    phi = pref * spec * np.exp(1j * k * exp.x_min - 0.5 * kern.hbar * k**2 / kern.mass * lag)
    return grid, np.array([np.fft.fft(evolved_wavefunction(exp, grid.x, band[0])), phi])


def _branch_functions(exp: DetectorExperiment) -> tuple[Grid, np.ndarray, np.ndarray]:
    """Evolved |0>- and |1>-branch amplitudes (n, nt) on the band grid's x and the slices
    of ``exp.band``, times the uniform smearing profile (integral one): ``_band_seeds``
    stepped to every slice by one kinetic-phase table, then one inverse FFT."""
    grid, seeds = _band_seeds(exp)
    # spectral_evolve's operand order: numpy's complex multiply is not bitwise commutative
    coefs = _kinetic_phase(grid.nx, grid.dx, exp.kernel, grid.t - exp.band[0]) * seeds[:, None]
    g = 1.0 / (exp.band[1] - exp.band[0])
    psi_vals, phi_vals = np.fft.ifft(coefs).transpose(0, 2, 1) * g
    return grid, psi_vals, phi_vals


def cqi_probability_detail(exp: DetectorExperiment) -> CqiResult:
    """Covariant-route activation probability on the readout band ``exp.band``.

    Builds the joint kinematical state of system, detector and observer
    (the detector is kept as its own perfectly correlated factor, which
    removes the observer's off-diagonal terms exactly), applies the
    covariant partial trace over the system, traces out the detector,
    and reads the probability from the observer's preferred basis.
    The band is a free solution with a profile of integral one, so P collapses it onto
    band[0] exactly: the trace runs on the two seeds there, one slice (the ordinary trace).
    """
    exp.validate_perturbative()
    grid, seeds = _band_seeds(exp)
    # components 0 (detector |0>, observer |0>) and 3 (|1>, |1>) of the joint state
    one = np.ones((1, grid.nx))
    reduced = _covariant_trace(seeds[:, None], [0, 3], (2, 2), one, one[:, 0], grid.dx)
    m = hilbert.partial_trace(reduced.rho, {1}).matrix
    if m[0, 1] != 0 or m[1, 0] != 0:  # the kept detector factor makes them exactly 0
        raise InvariantViolation(f"observer state has an off-diagonal entry {abs(m[0, 1]):.3g}")
    rho_obs = DensityOp(m / np.trace(m).real, (2,))
    pb = hilbert.preferred_basis(rho_obs)
    # identify the activation outcome as the eigenvector aligned with |1>
    weights_on_1 = np.abs(pb.basis[1, :]) ** 2
    p_cqi = float(pb.dist.probs[int(np.argmax(weights_on_1))])

    return CqiResult(p_cqi, rho_obs, reduced.schmidt_rank, reduced.trace_raw - 1.0)


def cqi_probability(exp: DetectorExperiment) -> float:
    return cqi_probability_detail(exp).p_cqi


# --------------------------------------------------------------------------
# two-point counterexample and shrinking-region sweep


@dataclass(frozen=True, eq=False)
class TwoPointReport:
    p_rr: float
    p_born: float
    p_cqi: float
    cross_rr_measured: float  # interference term relative to the incoherent sum
    cross_rr_predicted: float  # same, from point values of Psi
    cross_born: float  # Born interference term (~0): three norms, one grid and time density
    ratio_rr_born: float  # normalized ratio, -> 2 for equal real amplitudes
    cqi_born_ratio: float
    born: BornDetail  # both Born routes: the cross-check margin


def two_point_report(exp: DetectorExperiment) -> TwoPointReport:
    """Interference bookkeeping for a two-square region.

    The kinematical-overlap rule keeps the cross term between the two
    squares; the Born and covariant routes suppress it through the
    kernel (the squares are far enough apart that the kernel between
    them is negligible).  Both rules are normalized by their own
    incoherent two-square sums, which removes all apparatus prefactors.
    The Born union and single-square norms come from one kernel sum per
    square, all on the union's readout grid and time density.
    """
    if len(exp.region) != 2:
        raise NumericalValidationError("two_point_report needs exactly two rectangles")
    if zero := [f for f in ("coupling_alpha", "potential_v") if getattr(exp, f) == 0.0]:
        raise NumericalValidationError(f"two_point_report needs a nonzero {zero[0]}")
    r_a, r_b = exp.region

    j_a, j_b = (_rect_overlap(exp, i) for i in (0, 1))
    meas = r_a.measure + r_b.measure
    p_rr = abs(j_a + j_b) ** 2 / meas
    incoherent = abs(j_a) ** 2 + abs(j_b) ** 2
    cross_rr = 2.0 * (np.conj(j_a) * j_b).real / incoherent

    psi_a, psi_b = (
        complex(evolved_wavefunction(exp, [0.5 * (r.x_lo + r.x_hi)], 0.5 * (r.t_lo + r.t_hi))[0])
        for r in (r_a, r_b)
    )
    cross_pred = 2.0 * (np.conj(psi_a) * psi_b).real / (abs(psi_a) ** 2 + abs(psi_b) ** 2)

    born = born_probability_detail(exp)
    cross_born = born.p_slice / sum(born.p_slice_rects) - 1.0

    cqi = cqi_probability_detail(exp)
    ratio = (1.0 + cross_rr) / (1.0 + cross_born)
    return TwoPointReport(
        p_rr=float(p_rr),
        p_born=born.p_slice,
        p_cqi=cqi.p_cqi,
        cross_rr_measured=float(cross_rr),
        cross_rr_predicted=float(cross_pred),
        cross_born=float(cross_born),
        ratio_rr_born=float(ratio),
        cqi_born_ratio=float(cqi.p_cqi / born.p_slice),
        born=born,
    )


def shrinking_region_sweep(
    exp: DetectorExperiment, steps: int = 5, factor: float = 0.5
) -> list[dict]:
    """Shrink the region's time extent geometrically and compare the
    kinematical-overlap and Born probabilities.

    The raw ratio diverges like 1/measure(R) by construction (the two
    rules differ by the apparatus factor (alpha V / hbar)^2 measure(R)),
    so the row field ``ratio`` reports the compensated quantity

        p_rr * measure(R) * (alpha V / hbar)^2 / p_born,

    which converges as the region shrinks; its successive differences
    shrink by about sqrt(factor) per step.
    """
    if len(exp.region) != 1:
        raise NumericalValidationError("sweep expects a single rectangle")
    rect = exp.region[0]
    apparatus = (exp.coupling_alpha * exp.potential_v / exp.kernel.hbar) ** 2
    rows = []
    for kstep in range(steps):
        tau = (rect.t_hi - rect.t_lo) * factor**kstep
        shrunk = replace(
            exp, region=(Rect(rect.x_lo, rect.x_hi, rect.t_lo, rect.t_lo + tau),)
        )
        shrunk.validate_perturbative()
        p_b = _born_slice_norm(shrunk)
        p_r = rr_probability(shrunk)
        meas = shrunk.region[0].measure
        rows.append({"step": kstep, "t_extent": tau, "p_rr": p_r, "p_born": p_b,
                     "ratio_raw": p_r / p_b, "ratio": p_r * meas * apparatus / p_b})
    return rows
