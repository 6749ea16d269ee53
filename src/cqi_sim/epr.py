"""EPR pair with quantized observers: correlations without collapse.

Both halves of an entangled pair are measured by local CNOT-style
interactions with observer qubits.  All statistics, including the
perfect cross correlations, come from reduced states of the single
global pure state; nothing nonlocal ever happens to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import InvariantViolation, NumericalValidationError
from .hilbert import DensityOp, Ket
from .utils import is_unitary

__all__ = [
    "EprConfig",
    "epr_final_state",
    "epr_reduced",
    "no_communication_check",
    "realism_scenario",
]

# factor order of the global state
Q1, A, Q2, B = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class EprConfig:
    alpha: complex
    beta: complex
    alice_unitary: np.ndarray | None = None

    def __post_init__(self):
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > 1e-10:
            raise NumericalValidationError("pair amplitudes must satisfy |a|^2+|b|^2 = 1")
        if self.alice_unitary is not None:
            u = np.asarray(self.alice_unitary, dtype=complex)
            if u.shape[-2:] != (2, 2) or not is_unitary(u, 1e-10):
                raise NumericalValidationError("alice_unitary must be 2x2 unitary (or a stack)")
            object.__setattr__(self, "alice_unitary", u)


def epr_final_state(cfg: EprConfig, order: tuple[int, int] = (0, 1)) -> Ket:
    """Global state after both local measurements, factors (Q1, A, Q2, B).

    ``order`` selects which measurement is applied first; the two local
    interactions commute, so the result is order-independent.
    """
    state = np.zeros((2, 2, 2, 2), dtype=complex)
    state[0, 0, 0, 0] = cfg.alpha
    state[1, 0, 1, 0] = cfg.beta
    steps = [(Q1, A), (Q2, B)]
    for who in order:
        state = hilbert.cnot(state, *steps[who])
    if cfg.alice_unitary is not None:
        state = np.einsum("ij,qjrb->qirb", cfg.alice_unitary, state)  # U on factor A
    return Ket(state.reshape(-1), (2, 2, 2, 2))


def epr_reduced(cfg: EprConfig) -> tuple[DensityOp, DensityOp, DensityOp]:
    """(rho_A, rho_B, rho_AB) for the two observers."""
    ket = epr_final_state(cfg)
    rho_a = hilbert.reduced_state(ket, {A})
    rho_b = hilbert.reduced_state(ket, {B})
    rho_ab = hilbert.reduced_state(ket, {A, B})
    return rho_a, rho_b, rho_ab


def no_communication_check(cfg: EprConfig) -> float | np.ndarray:
    """Trace distance of Bob's state with and without Alice's local unitary.

    Zero (to rounding) for every unitary: local operations on Alice's
    side never move information to Bob.  A (..., 2, 2) stack of unitaries
    is applied and reduced in one batch and gives an array of distances.
    """
    if cfg.alice_unitary is None:
        raise NumericalValidationError("no_communication_check needs alice_unitary")
    ket = epr_final_state(EprConfig(cfg.alpha, cfg.beta))
    rotated = np.einsum("...ij,qjrb->...qirb", cfg.alice_unitary, ket.amplitudes.reshape((2,) * 4))
    rho_b_rotated = hilbert.reduced_matrix(rotated, {B}, 4)
    hilbert.check_density(rho_b_rotated)
    return hilbert.trace_distance(hilbert.reduced_state(ket, {B}), rho_b_rotated)


def realism_scenario(alpha: complex, beta: complex) -> dict:
    """Observer-observed sequence from one global state, on three slices.

    Bob measures the system at t1 while Alice waits; Alice learns the
    outcome at t2.  On the t1 slice Alice's reduced state is still pure
    while Bob's is already the outcome mixture; on the t2 slice both are
    mixed but perfectly correlated (zero conditional entropy).
    """
    a, b = complex(alpha), complex(beta)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-10:
        raise NumericalValidationError("alpha, beta must satisfy |a|^2+|b|^2 = 1")
    v = np.zeros((2, 2, 2), dtype=complex)  # (Q, B, A); t0: nothing measured yet
    v[:, 0, 0] = a, b
    v1 = hilbert.cnot(v, 0, 1)  # t1: Bob's copy interaction
    v2 = hilbert.cnot(v1, 1, 2)  # t2: Alice correlates with Bob
    slices = np.stack([v, v1, v2])  # (slice, Q, B, A)

    rho_ab = hilbert.reduced_matrix(slices, {1, 2}, 3)
    stacks = [hilbert.reduced_matrix(slices, {2}, 3), hilbert.reduced_matrix(slices, {1}, 3)]
    # S(A|B) = S(AB) - S(B), B traced out of rho_ab as conditional_entropy does
    stacks += [rho_ab, np.trace(rho_ab.reshape(3, 2, 2, 2, 2), axis1=2, axis2=4)]
    for rho in stacks:
        hilbert.check_density(rho)
    s_a, s_b, s_ab, s_ab_b = (hilbert.von_neumann_entropy(rho) for rho in stacks)
    report = {"slices": [
        {"slice": label, "entropy_alice_bits": float(s_a[i]), "entropy_bob_bits": float(s_b[i]),
         "conditional_entropy_bits": float(s_ab[i] - s_ab_b[i])}
        for i, label in enumerate(("t0", "t1", "t2"))
    ]}
    t1 = report["slices"][1]
    t2 = report["slices"][2]
    if t1["entropy_alice_bits"] > 1e-9:
        raise InvariantViolation("Alice's state is not pure before she interacts")
    if abs(t2["conditional_entropy_bits"]) > 1e-9:
        raise InvariantViolation("outcomes at t2 are not perfectly correlated")
    return report
