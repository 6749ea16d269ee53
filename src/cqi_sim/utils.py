"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def complex_of(v) -> complex:
    """A complex number from a JSON number or a [re, im] pair."""
    return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)


def ginibre_unitary(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries by QR of the Ginibre matrices g[..., 0, :, :] + 1j g[..., 1, :, :]."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(rng: np.random.Generator, d: int, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-random d x d unitary, or a ``batch`` stack; each draws its real, then imaginary part."""
    return ginibre_unitary(rng.standard_normal(tuple(batch) + (2, d, d)))


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    """True if u, or every member of a (..., n, n) stack, is unitary within tol."""
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        return False
    return bool(np.all(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])) <= tol))


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights for n uniformly spaced points."""
    if n == 1:
        return np.array([1.0])
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w
