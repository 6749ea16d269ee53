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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import _kernels, hilbert
from .contspace import (
    Grid,
    PropagatorKernel,
    gaussian_packet,
    spectral_evolve,
)
from .errors import NumericalValidationError
from .hilbert import DensityOp
from .utils import trapezoid_weights

PERT_TOL = 0.05
XCHECK_TOL = 1e-3
OFFDIAG_TOL = 1e-8

__all__ = [
    "Rect",
    "SliceRegion",
    "BandRegion",
    "JointState",
    "CovariantReducedState",
    "DetectorExperiment",
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
    "band_invariance_sweep",
]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned interaction rectangle in the (x, t) plane."""

    x_lo: float
    x_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if self.x_hi <= self.x_lo or self.t_hi <= self.t_lo:
            raise NumericalValidationError("rectangle extents must be positive")

    @property
    def measure(self) -> float:
        return (self.x_hi - self.x_lo) * (self.t_hi - self.t_lo)


@dataclass(frozen=True)
class SliceRegion:
    t: float


@dataclass(frozen=True)
class BandRegion:
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if self.t_hi <= self.t_lo:
            raise NumericalValidationError("band extent must be positive")


@dataclass(frozen=True, eq=False)
class JointState:
    """Kinematical state of system x observer factors on a readout region.

    ``values`` has shape (nx, nt, d_obs) over the x sampling and the
    slice times; ``obs_dims`` records the tensor structure of the
    observer side.  A single slice (nt == 1) is delta-normalized in
    time, a band uses trapezoid weights (any smearing profile is folded
    into the values).  Both axes must be uniformly sampled.
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
        return trapezoid_weights(self.x.size, float(self.x[1] - self.x[0]))

    def t_weights(self) -> np.ndarray:
        if self.t.size == 1:
            return np.array([1.0])
        return trapezoid_weights(self.t.size, float(self.t[1] - self.t[0]))


@dataclass(frozen=True, eq=False)
class CovariantReducedState:
    rho: DensityOp
    region: SliceRegion | BandRegion
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
    band_slices: int = 9
    kernel: PropagatorKernel = PropagatorKernel()
    pert_tol: float = PERT_TOL
    xcheck_tol: float = XCHECK_TOL
    refine_level: int = 0

    def __post_init__(self):
        if self.coupling_alpha < 0:
            raise NumericalValidationError("coupling_alpha must be nonnegative")
        if not self.region:
            raise NumericalValidationError("at least one interaction rectangle required")
        t_hi = max(r.t_hi for r in self.region)
        t_lo = min(r.t_lo for r in self.region)
        if t_lo <= self.t0:
            raise NumericalValidationError("region must start after the preparation slice")
        if self.readout_time <= t_hi:
            raise NumericalValidationError("readout_time must lie after the region")
        if self.band[0] <= t_hi or self.band[1] <= self.band[0]:
            raise NumericalValidationError("band must be a future, interaction-free interval")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def refined(self, k: int = 1) -> "DetectorExperiment":
        """Same experiment with every discretization parameter doubled k times."""
        f = 2**k
        return replace(
            self,
            nx=self.nx * f,
            band_slices=self.band_slices * f,
            refine_level=self.refine_level + k,
        )

    def perturbation_ratio(self) -> float:
        """Crude second-to-first-order amplitude ratio for the coupling."""
        t_extent = sum(r.t_hi - r.t_lo for r in self.region)
        return (
            0.5
            * self.coupling_alpha
            * abs(self.potential_v)
            * t_extent
            / self.kernel.hbar
        )

    def validate_perturbative(self) -> None:
        r = self.perturbation_ratio()
        if r > self.pert_tol:
            raise NumericalValidationError(
                f"perturbation ratio {r:.3g} exceeds tolerance {self.pert_tol}"
            )


def benchmark_experiment(refine: int = 0, **overrides) -> DetectorExperiment:
    """Default slab experiment: a spreading packet probed by a thin slab."""
    params = dict(
        packet_center=-5.0,
        packet_width=1.0,
        packet_momentum=0.0,
        t0=0.0,
        region=(Rect(-0.5, 0.5, 3.0, 3.2),),
        coupling_alpha=0.02,
        potential_v=1.0,
        readout_time=4.2,
        band=(3.5, 3.9),
    )
    params.update(overrides)
    exp = DetectorExperiment(**params)
    return exp.refined(refine) if refine else exp


def two_point_experiment(
    separation: float = 2.0,
    eps_pt: float | None = None,
    t1: float = 3.0,
    refine: int = 0,
    **overrides,
) -> DetectorExperiment:
    """Region made of two small squares placed symmetrically about the
    packet center, so the evolved wavefunction takes equal values on
    both (the maximal-interference configuration)."""
    base = dict(
        packet_center=-5.0,
        packet_width=1.0,
        packet_momentum=0.0,
        t0=0.0,
        coupling_alpha=0.02,
        potential_v=1.0,
    )
    base.update(overrides)
    center = base["packet_center"]
    nx = base.get("nx", 512)
    x_min, x_max = base.get("x_min", -20.0), base.get("x_max", 20.0)
    if eps_pt is None:
        eps_pt = 2.0 * (x_max - x_min) / (nx - 1)
    a = center - separation
    b = center + separation
    base.setdefault("readout_time", t1 + eps_pt + 0.8)
    base.setdefault("band", (t1 + eps_pt + 0.3, t1 + eps_pt + 0.7))
    base["region"] = (
        Rect(a - eps_pt / 2, a + eps_pt / 2, t1, t1 + eps_pt),
        Rect(b - eps_pt / 2, b + eps_pt / 2, t1, t1 + eps_pt),
    )
    exp = DetectorExperiment(**base)
    return exp.refined(refine) if refine else exp


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
    out[~late] = psi0_values(exp, x)
    if late.any():
        k = exp.kernel
        tau = k.hbar * (times[late, None] - exp.t0 - 1j * k.regularization_eta) / k.mass
        out[late] = gaussian_packet(
            x, exp.packet_center, exp.packet_width, exp.packet_momentum, tau
        )
    return out if np.ndim(t) else out[0]


def _rect_subgrid(exp: DetectorExperiment, rect: Rect, t_density: int = 1):
    """Tensor trapezoid sub-quadrature (xq, tq, wx, wt) for one rectangle."""
    scale = 2**exp.refine_level
    base_dx = exp.dx * scale
    nqx = max(33, int(np.ceil((rect.x_hi - rect.x_lo) / (0.25 * base_dx))) + 1) * scale
    nqt = max(33, int(np.ceil((rect.t_hi - rect.t_lo) / (0.25 * base_dx))) + 1) * scale
    nqt = (nqt - 1) * t_density + 1
    xq = np.linspace(rect.x_lo, rect.x_hi, nqx)
    tq = np.linspace(rect.t_lo, rect.t_hi, nqt)
    wx = trapezoid_weights(nqx, xq[1] - xq[0])
    wt = trapezoid_weights(nqt, tq[1] - tq[0])
    return xq, tq, wx, wt


@lru_cache(maxsize=64)
def _region_sources(exp: DetectorExperiment, t_density: int = 1):
    """Flattened (x, t, V * Psi * weight) source points over all rectangles."""
    xs, ts, amps = [], [], []
    for rect in exp.region:
        xq, tq, wx, wt = _rect_subgrid(exp, rect, t_density)
        psi = evolved_wavefunction(exp, xq, tq)
        xs.append(np.tile(xq, tq.size))
        ts.append(np.repeat(tq, xq.size))
        amps.append((exp.potential_v * psi * wx * wt[:, None]).reshape(-1))
    return np.concatenate(xs), np.concatenate(ts), np.concatenate(amps)


def _t_density_for(exp: DetectorExperiment, t: float) -> int:
    """Source time-density needed to resolve the kernel chirp at readout t.

    The kernel phase rate in the source time is m * D^2 / (2 hbar dT^2)
    with D the amplitude-carrying distance from the region; close
    readouts (small dT) therefore need denser source slices.
    """
    m, hb = exp.kernel.mass, exp.kernel.hbar
    t_hi = max(r.t_hi for r in exp.region)
    t_lo = min(r.t_lo for r in exp.region)
    d_t = max(t - t_hi, 1e-12)
    x_extent = max(r.x_hi for r in exp.region) - min(r.x_lo for r in exp.region)
    reach = 1.5 * hb * _physical_k(exp) * (t - t_lo) / m + x_extent + 2.0
    rate = m * reach**2 / (2.0 * hb * d_t**2)
    density = 1
    for rect in exp.region:
        _, tq, _, _ = _rect_subgrid(exp, rect)
        dt_sub = (rect.t_hi - rect.t_lo) / (tq.size - 1)
        density = max(density, int(np.ceil(dt_sub * rate / (np.pi / 3.0))))
    return min(density, 8)


def first_order_amplitude(
    exp: DetectorExperiment, x: np.ndarray, t: float, t_density: int | None = None
) -> np.ndarray:
    """|1>-branch amplitude (alpha / i hbar) * int_R W V Psi at (x, t).

    Double trapezoid quadrature over the interaction rectangles; linear
    in the region, so disjoint rectangles simply add.
    """
    t_hi = max(r.t_hi for r in exp.region)
    if t <= t_hi:
        raise NumericalValidationError("readout must lie after the interaction region")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if exp.coupling_alpha == 0.0:
        return np.zeros(x.size, dtype=complex)
    if t_density is None:
        t_density = _t_density_for(exp, t)
    xs, ts, amps = _region_sources(exp, t_density)
    out = _kernels.propagate(
        x,
        float(t),
        xs,
        ts,
        amps,
        exp.kernel.mass,
        exp.kernel.hbar,
        exp.kernel.regularization_eta,
    )
    return out * (exp.coupling_alpha / (1j * exp.kernel.hbar))


# --------------------------------------------------------------------------
# readout grid heuristics


def _physical_k(exp: DetectorExperiment) -> float:
    """Wavenumber scale actually populated by the |1>-branch."""
    m, hb = exp.kernel.mass, exp.kernel.hbar
    tau_min = min(r.t_hi - r.t_lo for r in exp.region)
    k_time = math.sqrt(2.0 * math.pi * m / (hb * tau_min))
    # chirp of the spreading packet across the region, plus its envelope
    t_mid = 0.5 * (min(r.t_lo for r in exp.region) + max(r.t_hi for r in exp.region))
    a2 = exp.packet_width**2
    chirp = (t_mid - exp.t0) * m / hb / ((t_mid - exp.t0) ** 2 + (m * a2 / hb) ** 2)
    x_far = max(
        max(abs(r.x_lo - exp.packet_center), abs(r.x_hi - exp.packet_center))
        for r in exp.region
    )
    k_packet = abs(exp.packet_momentum) + chirp * x_far + 4.0 / exp.packet_width
    return k_packet + k_time


def _readout_grid(exp: DetectorExperiment) -> np.ndarray:
    """x sampling for the Born readout slice, wide and fine enough for
    the transported branch amplitude."""
    m, hb = exp.kernel.mass, exp.kernel.hbar
    k_phys = _physical_k(exp)
    dt_max = exp.readout_time - min(r.t_lo for r in exp.region)
    pad = 2.5 * hb * k_phys * dt_max / m + 4.0
    lo = min(r.x_lo for r in exp.region) - pad
    hi = max(r.x_hi for r in exp.region) + pad
    dxr = min(np.pi / (5.0 * k_phys), exp.dx)
    n = int(np.ceil((hi - lo) / dxr)) + 1
    return np.linspace(lo, hi, n)


# --------------------------------------------------------------------------
# the three probabilities


@dataclass(frozen=True)
class BornDetail:
    p_slice: float  # |1>-branch norm on the readout slice
    p_double_region: float  # kernel double integral over R x R
    rel_diff: float


def _fine_grid(exp: DetectorExperiment) -> np.ndarray:
    """x grid of the double-region sum, step about min(dx/2, extent/16)."""
    dxf = min(exp.dx / 2.0, min(r.x_hi - r.x_lo for r in exp.region) / 16.0)
    return np.linspace(exp.x_min, exp.x_max, int(np.ceil((exp.x_max - exp.x_min) / dxf)) + 1)


def _filon_weights(theta: np.ndarray) -> np.ndarray:
    """Filon-trapezoid weights (first, interior, last slice) per unit step for
    exp(i theta s), theta >= 0: the first is int_0^1 (1 - s) exp(i theta s) ds
    = sinc^2(theta/2)/2 + i (theta - sin theta)/theta^2 (a Taylor series below
    theta = 0.1, free of cancellation), the last its conjugate."""
    interior = np.sinc(theta / (2.0 * np.pi)) ** 2
    t2, big = theta**2, np.where(theta < 0.1, 1.0, theta)
    series = theta / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0 * (1.0 - t2 / 72.0)))
    first = 0.5 * interior + 1j * np.where(theta < 0.1, series, (big - np.sin(big)) / big**2)
    return np.array([first, interior, first.conj()])


def _born_double_region_raw(exp: DetectorExperiment, t_density: int) -> float:
    """Double integral of conj(Psi) W Psi over R x R, evaluated spectrally.

    Each region slice is restricted to its rectangle (with fractional
    cell coverage at the edges) on a fine FFT grid; the kernel between
    two slices is applied exactly in momentum space, so the coincident-
    time delta channel needs no regularization.  The kernel phase splits
    per slice (the paper's slice independence), so the integral is ||S||^2,
    S(k) = int dt exp(i hbar k^2 (t - t_ref) / 2m) FFT(slice_t)(k) with t_ref
    the earliest region time.  Per-|k| Filon weights make the t integral
    exact in that phase for the linear interpolant of the slices (a lone
    slice keeps its ``_rect_subgrid`` weight).  Per rectangle A = E @
    (cover psi) on the live fine points idx, E the weighted phases per |k|
    bin (bins j, nf - j share k^2) by recurrence in t; bin j sums A[j]
    exp(-2 pi i j idx / nf).
    """
    xf = _fine_grid(exp)
    nf, dxf = xf.size, float(xf[1] - xf[0])
    kb = np.arange(nf // 2 + 1)  # |k| bins
    c = (0.5j * exp.kernel.hbar / exp.kernel.mass) * (2.0 * np.pi * kb / (nf * dxf)) ** 2
    t_ref = min(r.t_lo for r in exp.region)
    total = np.zeros(nf, dtype=complex)
    chunk = max(1, _kernels._CHUNK // (16 * nf))  # slices per (bins, chunk) temporary
    for rect in exp.region:
        _, tq, _, wt = _rect_subgrid(exp, rect, t_density)
        h = tq[1] - tq[0] if tq.size > 1 else 0.0
        wk = h * _filon_weights(c.imag * h).T if h else np.full((kb.size, 3), wt[0])
        role = np.ones(tq.size, dtype=int)
        role[0], role[-1] = 0, 2
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
            np.cumprod(e, axis=1, out=e)
            e *= wk[:, role[s : s + chunk]]
            a += e @ (cover[idx] * evolved_wavefunction(exp, xf[idx], ts))
        dft = np.exp(-2j * np.pi * (np.outer(kb, idx) % nf) / nf)
        total[: kb.size] += np.einsum("jl,jl->j", a, dft)
        total[kb.size :] += np.einsum("jl,jl->j", a, dft.conj())[(nf - 1) // 2 : 0 : -1]
    pref = (exp.coupling_alpha * exp.potential_v / exp.kernel.hbar) ** 2
    return float(pref * np.vdot(total, total).real * dxf / nf)


def _born_double_region(exp: DetectorExperiment) -> float:
    """Double-region integral at time density 1, enough with Filon weights."""
    return _born_double_region_raw(exp, 1)


def _born_slice_norm(exp: DetectorExperiment) -> float:
    """Norm of the first-order |1>-branch on the readout slice."""
    xr = _readout_grid(exp)
    phi = first_order_amplitude(exp, xr, exp.readout_time)
    w = trapezoid_weights(xr.size, float(xr[1] - xr[0]))
    return float(np.sum(w * np.abs(phi) ** 2))


def born_probability_detail(exp: DetectorExperiment) -> BornDetail:
    """Both Born routes; a difference over ``xcheck_tol`` fails, naming dxf."""
    exp.validate_perturbative()
    if exp.coupling_alpha == 0.0:
        return BornDetail(0.0, 0.0, 0.0)
    p_a = _born_slice_norm(exp)
    p_b = _born_double_region(exp)
    rel = abs(p_a - p_b) / max(abs(p_a), 1e-300)
    if rel > exp.xcheck_tol:
        xf = _fine_grid(exp)
        raise NumericalValidationError(
            f"Born cross-check failed at refine level {exp.refine_level}: routes differ by "
            f"{rel:.3g} (tolerance {exp.xcheck_tol}); double-region fine step dxf = "
            f"{xf[1] - xf[0]:.4g} = min(dx/2 = {exp.dx / 2:.4g}, narrowest rectangle / 16)"
        )
    return BornDetail(p_a, p_b, rel)


def born_probability(exp: DetectorExperiment, xcheck: bool = True) -> float:
    """Detector activation probability by the Born route.

    Computed as the readout-slice norm of the first-order branch and,
    with ``xcheck``, cross-checked against the independent double-region
    kernel integral.
    """
    if not xcheck:
        exp.validate_perturbative()
        return _born_slice_norm(exp)
    return born_probability_detail(exp).p_slice


def _rect_overlap(exp: DetectorExperiment, rect: Rect) -> complex:
    """int_rect Psi dx dt by the tensor trapezoid rule."""
    xq, tq, wx, wt = _rect_subgrid(exp, rect)
    return complex(sum(wt * np.sum(wx * evolved_wavefunction(exp, xq, tq), axis=1)))


def rr_probability(exp: DetectorExperiment) -> float:
    """Squared overlap of the evolved wavefunction with the normalized
    indicator of the region: |int_R Psi|^2 / measure(R).

    Carries no kernel factor and no coupling constant; comparisons with
    the Born value therefore go through normalized ratios.
    """
    total = sum(_rect_overlap(exp, rect) for rect in exp.region)
    meas = sum(rect.measure for rect in exp.region)
    if meas <= 0:
        raise NumericalValidationError("region has zero measure")
    return float(abs(total) ** 2 / meas)


# --------------------------------------------------------------------------
# covariant partial trace and the cqi probability


def covariant_partial_trace(
    joint: JointState,
    k: PropagatorKernel,
    region: SliceRegion | BandRegion,
    norm_tol: float = 1e-3,
) -> CovariantReducedState:
    """Observer reduced state from a joint kinematical state on a region.

    rho[a, b] = <P Psi_b, P Psi_a> for the observer-conditioned system
    components Psi_a = ``values[:, :, a]``, all collapsed to the last
    slice by one batched spectral evolution; on a single slice this is
    the ordinary partial trace.  The Schmidt rank counts singular values
    of the weighted d x (nt nx) matrix above 1e-12 of the largest (the
    d x d kinematical Gram matrix would square their condition number).
    Identically zero components are skipped: their rho rows stay zero.
    """
    if isinstance(region, SliceRegion):
        inside = np.isclose(joint.t, region.t, rtol=0, atol=1e-9)
    else:
        inside = (joint.t >= region.t_lo - 1e-9) & (joint.t <= region.t_hi + 1e-9)
    if not np.all(inside):
        raise NumericalValidationError("joint state support leaks outside the region")

    nx, nt, d = joint.values.shape
    comps = np.ascontiguousarray(joint.values.transpose(2, 1, 0))  # (d, nt, nx)
    live = np.flatnonzero(np.any(comps.reshape(d, -1), axis=1))
    comps = comps[live]
    xw, tw = joint.x_weights(), joint.t_weights()
    sqw = np.sqrt(np.outer(tw, xw)).reshape(-1)
    s = np.linalg.svd(comps.reshape(live.size, nt * nx) * sqw, compute_uv=False)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size else 0
    if rank == 0:
        raise NumericalValidationError("joint state is numerically zero")

    dx = float(joint.x[1] - joint.x[0])
    cols = np.zeros((d, nx), dtype=complex)  # the d x d product keeps its summation order
    cols[live] = tw @ spectral_evolve(comps, dx, k, joint.t[-1] - joint.t)
    rho_raw = (cols * xw) @ cols.conj().T
    trace_raw = float(np.trace(rho_raw).real)
    if abs(trace_raw - 1.0) > norm_tol:
        raise NumericalValidationError(
            f"joint state is not normalized under the physical inner product "
            f"(trace {trace_raw:.6g})"
        )
    rho = 0.5 * (rho_raw + rho_raw.conj().T) / trace_raw
    return CovariantReducedState(DensityOp(rho, joint.obs_dims), region, rank, trace_raw)


@dataclass(frozen=True, eq=False)
class CqiResult:
    p_cqi: float  # activation probability from the observer's preferred basis
    p_physical_norm: float  # rho[3, 3]: physical norm of the |1>-branch over trace_raw
    rho_observer: DensityOp
    schmidt_rank: int
    normalization_deficit: float
    band: tuple[float, float]


def _branch_functions(
    exp: DetectorExperiment, band: tuple[float, float]
) -> tuple[Grid, np.ndarray, np.ndarray]:
    """Evolved |0>- and |1>-branch amplitudes on the band slices,
    multiplied by the uniform smearing profile (integral one).

    The branches are free solutions throughout the band, so each is
    seeded on the first slice, transformed once and stepped to every
    slice spectrally by one batched inverse FFT.
    """
    n = exp.band_slices
    grid = Grid(exp.x_min, exp.x_max, exp.nx, band[0], band[1], n)
    g = 1.0 / (band[1] - band[0])
    xg = exp.x()
    seeds = np.array(
        [evolved_wavefunction(exp, xg, band[0]), first_order_amplitude(exp, xg, band[0])]
    )
    steps = spectral_evolve(seeds[:, None, :], grid.dx, exp.kernel, grid.t - band[0])
    psi_vals, phi_vals = steps.transpose(0, 2, 1) * g
    return grid, psi_vals, phi_vals


def cqi_probability_detail(
    exp: DetectorExperiment, band: tuple[float, float] | None = None
) -> CqiResult:
    """Covariant-route activation probability on a readout band.

    Builds the joint kinematical state of system, detector and observer
    (the detector is kept as its own perfectly correlated factor, which
    removes the observer's off-diagonal terms exactly), applies the
    covariant partial trace over the system, traces out the detector,
    and reads the probability from the observer's preferred basis.
    """
    exp.validate_perturbative()
    if band is None:
        band = exp.band
    t_hi = max(r.t_hi for r in exp.region)
    if band[0] <= t_hi:
        raise NumericalValidationError("readout band must lie after the region")
    grid, psi_vals, phi_vals = _branch_functions(exp, band)

    values = np.zeros((exp.nx, exp.band_slices, 4), dtype=complex)
    values[:, :, 0] = psi_vals  # detector |0>, observer |0>
    values[:, :, 3] = phi_vals  # detector |1>, observer |1>
    joint = JointState(grid.x, grid.t, values, (2, 2))
    reduced = covariant_partial_trace(
        joint, exp.kernel, BandRegion(band[0], band[1])
    )
    rho_obs = hilbert.partial_trace(reduced.rho, {1})
    m = rho_obs.matrix.copy()
    m[np.abs(m) < OFFDIAG_TOL] = 0.0
    m /= np.trace(m).real
    rho_obs = DensityOp(m, (2,))
    pb = hilbert.preferred_basis(rho_obs)
    # identify the activation outcome as the eigenvector aligned with |1>
    weights_on_1 = np.abs(pb.basis[1, :]) ** 2
    p_cqi = float(pb.dist.probs[int(np.argmax(weights_on_1))])

    return CqiResult(
        p_cqi=p_cqi,
        p_physical_norm=float(reduced.rho.matrix[3, 3].real),
        rho_observer=rho_obs,
        schmidt_rank=reduced.schmidt_rank,
        normalization_deficit=reduced.trace_raw - 1.0,
        band=tuple(band),
    )


def cqi_probability(exp: DetectorExperiment, band: tuple[float, float] | None = None) -> float:
    return cqi_probability_detail(exp, band).p_cqi


def band_invariance_sweep(
    exp: DetectorExperiment, shifts: tuple[float, ...] = (0.0, 0.3, 0.8)
) -> list[float]:
    """cqi probability recomputed on time-shifted readout bands."""
    out = []
    for s in shifts:
        out.append(cqi_probability(exp, (exp.band[0] + s, exp.band[1] + s)))
    return out


# --------------------------------------------------------------------------
# two-point counterexample and shrinking-region sweep


@dataclass(frozen=True, eq=False)
class TwoPointReport:
    p_rr: float
    p_born: float
    p_cqi: float
    cross_rr_measured: float  # interference term relative to the incoherent sum
    cross_rr_predicted: float  # same, from point values of Psi
    cross_born: float  # Born-route interference term (should be ~0)
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
    """
    if len(exp.region) != 2:
        raise NumericalValidationError("two_point_report needs exactly two rectangles")
    r_a, r_b = exp.region

    j_a, j_b = (_rect_overlap(exp, rect) for rect in (r_a, r_b))
    meas = r_a.measure + r_b.measure
    p_rr = abs(j_a + j_b) ** 2 / meas
    incoherent = abs(j_a) ** 2 + abs(j_b) ** 2
    cross_rr = 2.0 * (np.conj(j_a) * j_b).real / incoherent

    centers = []
    for rect in (r_a, r_b):
        xc = 0.5 * (rect.x_lo + rect.x_hi)
        tc = 0.5 * (rect.t_lo + rect.t_hi)
        centers.append(complex(evolved_wavefunction(exp, np.array([xc]), tc)[0]))
    psi_a, psi_b = centers
    cross_pred = 2.0 * (np.conj(psi_a) * psi_b).real / (abs(psi_a) ** 2 + abs(psi_b) ** 2)

    born = born_probability_detail(exp)
    borns = [
        born_probability(replace(exp, region=(rect,)), xcheck=False)
        for rect in (r_a, r_b)
    ]
    cross_born = born.p_slice / sum(borns) - 1.0

    p_cqi = cqi_probability(exp)
    ratio = (1.0 + cross_rr) / (1.0 + cross_born)
    return TwoPointReport(
        p_rr=float(p_rr),
        p_born=born.p_slice,
        p_cqi=p_cqi,
        cross_rr_measured=float(cross_rr),
        cross_rr_predicted=float(cross_pred),
        cross_born=float(cross_born),
        ratio_rr_born=float(ratio),
        cqi_born_ratio=float(p_cqi / born.p_slice),
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
        p_b = born_probability(shrunk, xcheck=False)
        p_r = rr_probability(shrunk)
        meas = shrunk.region[0].measure
        rows.append(
            {
                "step": kstep,
                "t_extent": tau,
                "p_rr": p_r,
                "p_born": p_b,
                "ratio_raw": p_r / p_b,
                "ratio": p_r * meas * apparatus / p_b,
            }
        )
    return rows
