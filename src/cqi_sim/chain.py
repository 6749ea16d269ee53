"""Sequential measurements as unitary entanglement with quantized observers.

A chain of N incompatible measurements on a d-outcome system is modeled
by rotating the system into each stage's eigenbasis and copying the
outcome index onto a fresh d-dimensional observer (a generalized CNOT).
The global state stays pure; each observer's statistics live in its
reduced density operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import NumericalValidationError
from .hilbert import DensityOp, Ket, ProbDist
from .utils import complex_of, ginibre_unitary, is_unitary

UNITARY_TOL = 1e-10

__all__ = [
    "ChainSpec",
    "ChainResult",
    "run_chain",
    "unmeasured_comparison",
    "system_entropy",
    "inefficient_detector",
    "general_interaction_probe",
    "spec_from_dict",
]


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Initial amplitudes over d outcomes plus the stage-overlap unitaries.

    ``overlaps[n]`` has entries U_ij = <b_j|a_i> relating the bases of
    stage n+1 and stage n+2; a chain with N observers carries N-1 of
    them (the first stage measures in the basis the amplitudes are
    written in).
    """

    initial: np.ndarray
    overlaps: tuple[np.ndarray, ...]

    def __post_init__(self):
        a = np.asarray(self.initial, dtype=complex).reshape(-1)
        if abs(np.linalg.norm(a) - 1.0) > 1e-10:
            raise NumericalValidationError("initial amplitude vector is not normalized")
        ov = tuple(np.asarray(u, dtype=complex) for u in self.overlaps)
        for n, u in enumerate(ov):
            if u.shape != (a.size, a.size):
                raise NumericalValidationError(
                    f"overlap matrix {n} has shape {u.shape}, expected {(a.size, a.size)}"
                )
            if not is_unitary(u, UNITARY_TOL):
                raise NumericalValidationError(f"overlap matrix {n} is not unitary")
        object.__setattr__(self, "initial", a)
        object.__setattr__(self, "overlaps", ov)

    @property
    def d(self) -> int:
        return self.initial.size

    @property
    def n_observers(self) -> int:
        return len(self.overlaps) + 1


@dataclass(frozen=True, eq=False)
class ChainResult:
    global_state: Ket
    observer_states: tuple[DensityOp, ...]
    distributions: tuple[ProbDist, ...]
    entropies: tuple[float, ...]


def run_chain(spec: ChainSpec) -> ChainResult:
    """Build the global entangled state for the whole chain and reduce it.

    Stage n first re-expresses the system in the stage's measured basis
    (amplitude map c -> U^T c) and then entangles a fresh observer via
    the copy interaction, so the system index and the new observer index
    coincide afterwards.
    """
    d = spec.d
    n_obs = spec.n_observers
    state = spec.initial.copy()  # axis 0 = system, in current measured basis
    for n in range(n_obs):
        if n > 0:
            state = np.tensordot(spec.overlaps[n - 1].T, state, axes=(1, 0))
        new = np.zeros(state.shape + (d,), dtype=complex)
        for i in range(d):
            new[i, ..., i] = state[i, ...]
        state = new
    # axes are (system, observer_1, ..., observer_N)
    ket = Ket(state.reshape(-1), (d,) * (n_obs + 1))
    observer_states = tuple(
        hilbert.reduced_state(ket, {k}) for k in range(1, n_obs + 1)
    )
    distributions = tuple(
        ProbDist(np.clip(np.diag(r.matrix).real, 0.0, 1.0)) for r in observer_states
    )
    entropies = tuple(hilbert.von_neumann_entropy(r) for r in observer_states)
    return ChainResult(ket, observer_states, distributions, entropies)


def unmeasured_comparison(spec: ChainSpec) -> ProbDist:
    """Second observer's distribution if the first measurement never happens.

    Without the first entangling interaction the amplitudes interfere:
    p(j) = |sum_i alpha_i U_ij|^2, to be compared against the chain's
    incoherent sum from ``run_chain``.
    """
    if spec.n_observers < 2:
        raise NumericalValidationError("comparison needs at least two observers")
    amps = spec.overlaps[0].T @ spec.initial
    return ProbDist(np.abs(amps) ** 2)


def system_entropy(result: ChainResult) -> float:
    """Entropy of the measured system itself after the full chain."""
    return hilbert.von_neumann_entropy(hilbert.reduced_state(result.global_state, {0}))


def inefficient_detector(
    alpha: complex, gamma: complex, delta: complex
) -> tuple[DensityOp, DensityOp]:
    """Observer reduced states for an unreliable detector, two ways.

    The two-factor model entangles the observer directly with the system
    and leaves off-diagonal terms in the observer basis whenever the
    detector can miss (gamma != 0).  Inserting the detector as its own
    factor, perfectly correlated with the observer, restores a diagonal
    observer state: p(0) = |alpha|^2 + |gamma|^2, p(1) = |delta|^2.

    Returns (two-factor observer state, three-factor observer state).
    """
    if abs(abs(alpha) ** 2 + abs(gamma) ** 2 + abs(delta) ** 2 - 1.0) > 1e-10:
        raise NumericalValidationError("amplitudes must satisfy |a|^2+|g|^2+|d|^2 = 1")
    qa = np.zeros(4, dtype=complex)  # factors (Q, A)
    qa[0b00] = alpha
    qa[0b10] = gamma
    qa[0b11] = delta
    rho_qa = hilbert.reduced_state(Ket(qa, (2, 2)), {1})

    qda = np.zeros(8, dtype=complex)  # factors (Q, D, A)
    qda[0b000] = alpha
    qda[0b100] = gamma
    qda[0b111] = delta
    rho_qda = hilbert.reduced_state(Ket(qda, (2, 2, 2)), {2})
    return rho_qa, rho_qda


def general_interaction_probe(seed: int, n_cases: int = 50, d: int = 2) -> dict:
    """Exploratory check: does observer entropy still grow monotonically
    when the copy interaction is replaced by a random joint unitary?

    Not an invariant of the formalism; results are reported, not asserted.
    """
    # per case, in draw order: amplitudes (real, imag), then u1 and u2 as Ginibre pairs
    g = np.random.default_rng(seed).standard_normal((n_cases, 2 * d + 4 * d**4))
    amps = g[:, :d] + 1j * g[:, d : 2 * d]
    re, im = amps.real, amps.imag  # row norms summed as the 1-D np.linalg.norm does
    amps /= np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    u = ginibre_unitary(g[:, 2 * d :].reshape(n_cases, 2, 2, d * d, d * d))
    v = np.zeros((n_cases, d, d, d), dtype=complex)  # (case, Q, O1, O2), observers ready
    v[:, :, 0, 0] = amps
    v = (u[:, 0] @ v.reshape(n_cases, d * d, d)).reshape(v.shape)  # joint unitary on (Q, O1)
    v = v.swapaxes(2, 3)  # bring (Q, O2) together
    v = (u[:, 1] @ v.reshape(n_cases, d * d, d)).reshape(v.shape).swapaxes(2, 3)
    rho = np.stack([hilbert.reduced_matrix(v, {k}, 3) for k in (1, 2)])  # O1, O2 per case
    s1, s2 = hilbert.spectral_entropy(hilbert.check_density(rho))
    monotone = int(np.count_nonzero(s2 >= s1 - 1e-9))
    worst = float(np.min(s2 - s1, initial=0.0))
    return {
        "cases": n_cases,
        "monotone": monotone,
        "violations": n_cases - monotone,
        "worst_entropy_drop_bits": -worst,
    }


def spec_from_dict(data: dict) -> ChainSpec:
    initial = np.array([complex_of(z) for z in data["initial"]])
    overlaps = tuple(
        np.array([[complex_of(z) for z in row] for row in u]) for u in data.get("overlaps", [])
    )
    return ChainSpec(initial, overlaps)
