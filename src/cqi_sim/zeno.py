"""Zeno slowdown and its time reverse on a freely precessing qubit.

The system qubit evolves as |Q(t)> = cos(wt)|0> + i sin(wt)|1>, i.e.
under U(t) = exp(i w t sigma_x), whose energy eigenstates are
(|0> +- |1>)/sqrt(2).  Measurement-like interactions are CNOTs with the
system as control.  Everything here is computed by explicit state
evolution; closed forms are reserved for the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import NumericalValidationError
from .hilbert import Ket

__all__ = [
    "ZenoConfig",
    "TrajectoryResult",
    "free_qubit",
    "free_evolution_matrix",
    "zeno_pair",
    "time_reversed_zeno",
    "zeno_cancellation",
    "iterated_zeno",
]

MAX_ANCILLAS = 20


@dataclass(frozen=True, eq=False)
class ZenoConfig:
    omega: float
    epsilon: float | np.ndarray  # an array batches zeno_pair and iterated_zeno
    theta: float | np.ndarray = 0.0  # an array batches time_reversed_zeno
    n_ancillas: int = 0

    def __post_init__(self):
        if self.omega <= 0 or np.any(np.asarray(self.epsilon) < 0):
            raise NumericalValidationError("omega must be positive and epsilon nonnegative")
        if self.n_ancillas < 0:
            raise NumericalValidationError("n_ancillas must be nonnegative")
        if np.any(self.omega * np.asarray(self.epsilon) > 0.3):
            warnings.warn(
                "omega*epsilon > 0.3: leading-order Zeno statements degrade",
                stacklevel=2,
            )


def free_evolution_matrix(t: float | np.ndarray, omega: float) -> np.ndarray:
    """U(t) = exp(i w t sigma_x) on the system qubit; (..., 2, 2) for an array of times."""
    c, s = np.cos(omega * np.asarray(t)), np.sin(omega * np.asarray(t))
    return np.moveaxis(np.array([[c, 1j * s], [1j * s, c]]), (0, 1), (-2, -1))


def free_qubit(t: float, omega: float) -> Ket:
    """State of the undisturbed qubit started in |0> at t = 0."""
    return Ket(free_evolution_matrix(t, omega)[:, 0], (2,))


def _evolve_factor0(state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply a 2x2 unitary to the first factor of a multi-qubit state; a
    (..., 2, 2) stack of unitaries acts on the same leading batch axes of the state."""
    lead = state.shape[: u.ndim - 2]
    return (u @ state.reshape(lead + (2, -1))).reshape(state.shape)


def zeno_pair(cfg: ZenoConfig) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Transition probability seen by the final observer, without and with
    an intermediate entangling CNOT at t = epsilon.

    Both values come from explicit evolution of the full state vector
    followed by a partial trace onto the observer: they are the iterated
    case with n = 0 and n = 1 ancillas.  An array ``cfg.epsilon`` is
    evolved as one batch, with the scalar arithmetic, and gives two arrays.
    """
    return _transition(cfg.omega, cfg.epsilon, 0), _transition(cfg.omega, cfg.epsilon, 1)


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    times: np.ndarray
    q_states: np.ndarray  # (*theta, len(times), 2) system amplitudes after the CNOT
    delta_t: float | np.ndarray  # one per theta


def time_reversed_zeno(cfg: ZenoConfig) -> TrajectoryResult:
    """Disentangle a qubit from its ancilla and measure the evolution shift.

    The input is the entangled pair trajectory that an entangling CNOT
    would produce from a freely evolved qubit with phase parameter
    theta, i.e. at t = 0 the pair is cos(theta)|00> + i sin(theta)|11>.
    Undoing the CNOT at t = 0 leaves the qubit in the pure state
    |Q(theta/omega)>, so its subsequent free evolution runs ahead of an
    undisturbed clock by delta_t = theta/omega (behind it for negative
    theta).

    The shift is recovered from the trajectory by exact algebraic
    inversion at two sample times, not by fitting.  ``cfg.theta`` may be
    an array: each theta is then evolved and checked on its own, with
    the same arithmetic as a scalar theta, and ``delta_t`` is an array.
    """
    w, th = cfg.omega, np.asarray(cfg.theta, dtype=float)
    pair = np.zeros((2, 2) + th.shape, dtype=complex)  # (system, ancilla, *theta)
    pair[0, 0] = np.cos(th)
    pair[1, 1] = 1j * np.sin(th)
    pair = hilbert.cnot(pair, 0, 1)
    if np.any(np.linalg.norm(pair[:, 1], axis=0) > 1e-12):
        raise NumericalValidationError("CNOT failed to disentangle the ancilla")
    anc = np.moveaxis(pair[:, 0], 0, -1)  # (*theta, 2)

    times = np.linspace(0.0, np.pi / w, 33)
    states = (free_evolution_matrix(times, w) @ anc[..., None, :, None])[..., 0]

    phase = np.arctan2(states[..., 1].imag, states[..., 0].real) - w * times
    d1, d2 = phase[..., 0], phase[..., times.size // 4]
    d2 = d2 - 2 * np.pi * np.round((d2 - d1) / (2 * np.pi))
    if np.any(np.abs(d1 - d2) > 1e-10):
        raise NumericalValidationError("trajectory is not a shifted free evolution")
    return TrajectoryResult(times, states, d1 / w if th.ndim else float(d1 / w))


def zeno_cancellation(cfg: ZenoConfig) -> float:
    """Entangling CNOT followed by its inverse: distance from free evolution.

    With the inverse applied on the same slice the pair of CNOTs is the
    identity and the returned maximal trace distance is numerically
    zero.
    """
    w, eps = cfg.omega, cfg.epsilon
    qa = np.zeros((2, 2), dtype=complex)
    qa[:, 0] = free_evolution_matrix(eps, w)[:, 0]
    qa = hilbert.cnot(hilbert.cnot(qa, 0, 1), 0, 1)

    times = np.linspace(0.0, np.pi / w, 17)
    rho_q = hilbert.reduced_matrix(free_evolution_matrix(times, w) @ qa, {0}, 2)  # per sample
    q = free_evolution_matrix(eps + times, w)[..., 0]
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    free = q[..., :, None] * q.conj()[..., None, :]
    hilbert.check_density(np.stack([rho_q, free]))
    return float(np.max(hilbert.trace_distance(rho_q, free), initial=0.0))


def iterated_zeno(cfg: ZenoConfig) -> float | np.ndarray:
    """Transition probability with n fresh ancillas at equal spacing.

    Total evolution time is fixed at 2*epsilon; the n ancilla CNOTs act
    at k * 2*epsilon/(n+1) and the observer CNOT at the end.  n = 0
    reproduces the plain case and n = 1 the single-ancilla Zeno case.
    """
    n = cfg.n_ancillas
    if n > MAX_ANCILLAS:
        raise NumericalValidationError(
            f"n_ancillas = {n} exceeds the dense-simulation guard ({MAX_ANCILLAS})"
        )
    return _transition(cfg.omega, cfg.epsilon, n)


def _transition(omega: float, epsilon: float | np.ndarray, n: int) -> float | np.ndarray:
    """Observer's transition probability after 2*epsilon with n ancilla CNOTs
    on the way; the epsilon axes lead the state's n + 2 qubit axes."""
    eps = np.asarray(epsilon, dtype=float)
    b = eps.ndim  # batch axes
    seg = free_evolution_matrix(2 * eps / (n + 1), omega)
    state = np.zeros(eps.shape + (2,) * (n + 2), dtype=complex)
    state[(...,) + (0,) * (n + 2)] = 1.0
    for k in range(n):
        state = _evolve_factor0(state, seg)
        state = hilbert.cnot(state, b, b + 1 + k)
    state = _evolve_factor0(state, seg)
    state = hilbert.cnot(state, b, b + n + 1)
    rho_b = hilbert.reduced_matrix(state, {n + 1}, n + 2)
    hilbert.check_density(rho_b)
    p = rho_b[..., 1, 1].real
    return float(p) if b == 0 else p
