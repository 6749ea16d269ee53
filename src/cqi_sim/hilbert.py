"""Finite-dimensional Hilbert-space algebra for observer-model measurements.

States carry an explicit tensor-factor structure so that reduced density
operators of individual observers can be extracted by partial tracing.
Entropies are reported in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
DEGENERACY_TOL = 1e-9

__all__ = [
    "Ket",
    "DensityOp",
    "ProbDist",
    "check_density",
    "PreferredBasis",
    "tensor",
    "density",
    "partial_trace",
    "cnot",
    "reduced_matrix",
    "reduced_state",
    "schmidt_decompose",
    "von_neumann_entropy",
    "conditional_entropy",
    "mutual_information",
    "preferred_basis",
    "trace_distance",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Ket:
    """Pure state: complex amplitude vector plus its tensor-factor dimensions."""

    amplitudes: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.factor_dims)
        if any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive")
        if math.prod(dims) != amps.size:
            raise ValueError(
                f"product of factor_dims {dims} != amplitude count {amps.size}"
            )
        object.__setattr__(self, "amplitudes", _freeze(amps))
        object.__setattr__(self, "factor_dims", dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "Ket":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Ket(self.amplitudes / n, self.factor_dims)

    def require_normalized(self, tol: float = NORM_TOL) -> None:
        if abs(self.norm() - 1.0) > tol:
            raise ValueError(f"state norm {self.norm()} deviates from 1 beyond {tol}")


def check_density(m: np.ndarray) -> np.ndarray:
    """Raise ValueError unless each matrix of the (..., d, d) stack m is a density matrix.

    Returns the stack's (..., d) eigenvalues, ascending, computed for the test."""
    if abs(m - m.conj().swapaxes(-1, -2)).max(initial=0.0) > HERM_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    tr = m.trace(axis1=-2, axis2=-1)
    bad = np.maximum(abs(tr.real - 1.0), abs(tr.imag)) > TRACE_TOL
    if bad.any():
        raise ValueError(f"trace {tr[bad][0]} deviates from 1 beyond tolerance")
    lam = np.linalg.eigvalsh(m)
    if lam.min(initial=np.inf) < -PSD_TOL:
        raise ValueError("matrix has an eigenvalue below -psd_tol")
    return lam


@dataclass(frozen=True, eq=False)
class DensityOp:
    """Hermitian, unit-trace operator with tensor-factor structure; read-only
    ``eigenvalues`` (ascending) come from the check that admits ``matrix``."""

    matrix: np.ndarray
    factor_dims: tuple[int, ...]
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.factor_dims)
        d = math.prod(dims)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} incompatible with dims {dims}")
        object.__setattr__(self, "eigenvalues", _freeze(check_density(m)))
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "factor_dims", dims)


@dataclass(frozen=True, eq=False)
class ProbDist:
    """Classical outcome distribution over the outcomes 0, 1, ..., n - 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "probs", _freeze(np.clip(p, 0.0, 1.0)))


@dataclass(frozen=True, eq=False)
class PreferredBasis:
    """Diagonal orthogonal representation of a density operator.

    ``basis`` holds eigenvectors as columns, ordered to match ``dist``
    (eigenvalues descending).  ``degenerate`` is set when any eigenvalue
    gap falls below the degeneracy tolerance; the basis inside such a
    subspace is then fixed only up to the deterministic tie-break.
    """

    dist: ProbDist
    basis: np.ndarray
    degenerate: bool


def tensor(a: Ket, b: Ket) -> Ket:
    """Kronecker product of two pure states; factor structures concatenate."""
    return Ket(np.kron(a.amplitudes, b.amplitudes), a.factor_dims + b.factor_dims)


def density(psi: Ket) -> DensityOp:
    """|psi><psi| as a DensityOp (psi is normalized first)."""
    v = psi.normalized().amplitudes
    return DensityOp(np.outer(v, v.conj()), psi.factor_dims)


def _resolve_keep(dims: Sequence[int], keep: Iterable[int]) -> list[int]:
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one factor")
    for k in keep:
        if k < 0 or k >= len(dims):
            raise ValueError(f"invalid factor index {k} for {len(dims)} factors")
    return keep


def partial_trace(rho: DensityOp, keep: Iterable[int]) -> DensityOp:
    """Trace out every factor not listed in ``keep``.

    The returned operator keeps the retained factors in ascending index
    order and preserves the trace.
    """
    dims = rho.factor_dims
    keep = _resolve_keep(dims, keep)
    n = len(dims)
    m = rho.matrix.reshape(dims + dims)
    # contract bra/ket axes of each traced factor, highest axis first
    traced = [i for i in range(n) if i not in keep]
    for cnt, i in enumerate(sorted(traced, reverse=True)):
        live = n - cnt
        m = np.trace(m, axis1=i, axis2=live + i)
    d_keep = math.prod(dims[k] for k in keep)
    return DensityOp(m.reshape(d_keep, d_keep), tuple(dims[k] for k in keep))


def cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    """Copy interaction on amplitudes with one axis per qubit factor (any
    further axes are a batch): flip ``target`` where ``control`` is 1."""
    out = state.copy()
    sel = [slice(None)] * state.ndim
    sel[control] = 1
    out[tuple(sel)] = np.flip(state, axis=target)[tuple(sel)]
    return out


def reduced_matrix(amps: np.ndarray, keep: Iterable[int], n_factors: int) -> np.ndarray:
    """Reduced density matrices (..., d_keep, d_keep) of a stack of pure states.

    The last ``n_factors`` axes of ``amps`` are the tensor factors, any
    leading axes a batch; the kept factors are taken in ascending order.
    """
    lead, dims = amps.ndim - n_factors, amps.shape[amps.ndim - n_factors :]
    keep = _resolve_keep(dims, keep)
    rest = [i for i in range(n_factors) if i not in keep]
    a = amps.transpose(list(range(lead)) + [lead + i for i in keep + rest])
    d_keep = math.prod(dims[k] for k in keep)
    a = a.reshape(amps.shape[:lead] + (d_keep, math.prod(dims) // d_keep))
    return a @ a.conj().swapaxes(-1, -2)


def reduced_state(psi: Ket, keep: Iterable[int]) -> DensityOp:
    """Reduced density operator of a pure state, without forming the full matrix."""
    dims = psi.factor_dims
    keep = _resolve_keep(dims, keep)
    m = reduced_matrix(psi.amplitudes.reshape(dims), keep, len(dims))
    return DensityOp(m, tuple(dims[k] for k in keep))


def schmidt_decompose(
    psi: Ket, cut: Iterable[int]
) -> list[tuple[float, Ket, Ket]]:
    """Schmidt decomposition across the bipartition (cut | complement).

    Returns ``(coefficient, left, right)`` triples with coefficients
    descending; obtained from the singular values of the amplitude array
    reshaped to the bipartition.
    """
    psi.require_normalized(1e-9)
    dims = psi.factor_dims
    left = _resolve_keep(dims, cut)
    right = [i for i in range(len(dims)) if i not in left]
    if not right:
        raise ValueError("cut must leave a nonempty complement")
    d_l = math.prod(dims[i] for i in left)
    d_r = math.prod(dims[i] for i in right)
    a = psi.amplitudes.reshape(dims).transpose(left + right).reshape(d_l, d_r)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    out = []
    ldims = tuple(dims[i] for i in left)
    rdims = tuple(dims[i] for i in right)
    for k in range(s.size):
        if s[k] < 1e-14:
            break
        out.append((float(s[k]), Ket(u[:, k], ldims), Ket(vh[k, :], rdims)))
    return out


def von_neumann_entropy(rho: DensityOp | np.ndarray) -> float | np.ndarray:
    """-sum(p log2 p) over the eigenvalues (a DensityOp's stored ones), 0 log 0 = 0,
    in bits; also of a (..., d, d) stack."""
    lam = rho.eigenvalues if isinstance(rho, DensityOp) else np.linalg.eigvalsh(np.asarray(rho))
    lam = np.clip(lam, 0.0, 1.0)
    log = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    s = -np.sum(lam * log, axis=-1) + 0.0
    return float(s) if s.ndim == 0 else s


def conditional_entropy(rho_ab: DensityOp, conditioning: int = 1) -> float:
    """S(A|B) = S(AB) - S(B) for a bipartite operator; B is ``conditioning``.

    May be negative for entangled states.
    """
    if len(rho_ab.factor_dims) != 2:
        raise ValueError("conditional_entropy expects a bipartite factor structure")
    if conditioning not in (0, 1):
        raise ValueError("conditioning factor must be 0 or 1")
    s_ab = von_neumann_entropy(rho_ab)
    s_b = von_neumann_entropy(partial_trace(rho_ab, {conditioning}))
    return s_ab - s_b


def mutual_information(rho_ab: DensityOp) -> float:
    """S(A) + S(B) - S(AB) for a bipartite operator, in bits."""
    if len(rho_ab.factor_dims) != 2:
        raise ValueError("mutual_information expects a bipartite factor structure")
    s_a = von_neumann_entropy(partial_trace(rho_ab, {0}))
    s_b = von_neumann_entropy(partial_trace(rho_ab, {1}))
    return s_a + s_b - von_neumann_entropy(rho_ab)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the first component of significant magnitude real and positive."""
    idx = np.flatnonzero(np.abs(v) > 1e-12)
    if idx.size == 0:
        return v
    ph = v[idx[0]] / abs(v[idx[0]])
    return v / ph


def preferred_basis(rho: DensityOp) -> PreferredBasis:
    """Unique diagonal orthogonal representation of a density operator.

    Eigenvalues are sorted descending and become the outcome
    probabilities.  Exact or near degeneracy (gap below
    ``DEGENERACY_TOL``) is flagged rather than treated as an error; the
    eigenvectors are then fixed by a deterministic phase and ordering
    convention so repeated runs agree.
    """
    lam, vec = np.linalg.eigh(rho.matrix)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vec = vec[:, order]
    gaps = np.abs(np.diff(lam))
    degenerate = bool(np.any(gaps < DEGENERACY_TOL))
    for k in range(vec.shape[1]):
        vec[:, k] = _fix_phase(vec[:, k])
    if degenerate:
        # stable order inside a degenerate block: lexicographic on rounded entries
        k = 0
        while k < lam.size:
            j = k
            while j + 1 < lam.size and lam[j + 1] > lam[k] - DEGENERACY_TOL:
                j += 1
            if j > k:
                block = vec[:, k : j + 1]
                keys = [
                    tuple(np.round(block[:, c], 9).view(float))
                    for c in range(block.shape[1])
                ]
                order_block = sorted(range(block.shape[1]), key=lambda c: keys[c])
                vec[:, k : j + 1] = block[:, order_block]
            k = j + 1
    lam = np.clip(lam, 0.0, 1.0)
    lam = lam / lam.sum()
    return PreferredBasis(ProbDist(lam), vec, degenerate)


def trace_distance(a: DensityOp | np.ndarray, b: DensityOp | np.ndarray) -> float | np.ndarray:
    """(1/2) * trace norm of (a - b); (..., d, d) stacks broadcast to an array."""
    ma = a.matrix if isinstance(a, DensityOp) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityOp) else np.asarray(b)
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(ma - mb)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
