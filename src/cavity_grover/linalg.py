"""Dense complex linear algebra for small Hilbert spaces.

States are 1-d complex numpy arrays, operators are square complex
matrices. Every space in this package has at most a few tens of
dimensions, so propagators are computed by full Hermitian
eigendecomposition: the Hamiltonian is constant within each segment,
which makes this exact up to floating point with no integrator
tolerance to tune.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10


class NumericalError(RuntimeError):
    """A numerical guarantee was violated (non-finite operator entries,
    failed eigendecomposition, or a propagator that is not unitary)."""


def tensor(a, b):
    """Kronecker product with factors ordered left to right."""
    return np.kron(np.asarray(a), np.asarray(b))


def is_hermitian(h, tol=HERMITIAN_TOL):
    h = np.asarray(h)
    return bool(np.all(np.abs(h - h.conj().T) <= tol))


def is_unitary(u, tol=UNITARY_TOL):
    u = np.asarray(u)
    return bool(np.all(np.abs(u.conj().T @ u - np.eye(u.shape[0])) <= tol))


def propagator(h, t):
    """exp(-i h t) for a Hermitian matrix h and a duration t >= 0 (s).

    Raises ValueError for a non-Hermitian input and NumericalError when
    the entries or the phases w*t are not finite, or the result fails its
    unitarity check.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"propagator needs a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(float))):
        raise NumericalError("Hamiltonian entries are not finite")
    if not is_hermitian(h):
        raise ValueError("propagator needs a Hermitian matrix")
    if t < 0:
        raise ValueError("propagator needs t >= 0")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        phase = -1j * w * t
    if not np.all(np.isfinite(phase)):
        raise NumericalError(f"propagator phases overflow at t = {t}")
    u = (v * np.exp(phase)) @ v.conj().T
    if not is_unitary(u):
        raise NumericalError("propagator failed its unitarity check")
    return u


def apply(u, s):
    """Apply an operator to a state vector."""
    u = np.asarray(u)
    s = np.asarray(s)
    if u.ndim != 2 or u.shape[1] != s.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator {u.shape} on state of length {s.shape[0]}"
        )
    return u @ s


def embed(u, subsystem_dims, which):
    """Lift u acting on subsystem `which` to I x ... x u x ... x I."""
    u = np.asarray(u, dtype=complex)
    if not 0 <= which < len(subsystem_dims):
        raise IndexError(f"subsystem index {which} out of range for {subsystem_dims}")
    d = subsystem_dims[which]
    if u.shape != (d, d):
        raise ValueError(f"operator shape {u.shape} does not match subsystem dim {d}")
    out = np.eye(1, dtype=complex)
    for k, dim in enumerate(subsystem_dims):
        out = np.kron(out, u if k == which else np.eye(dim, dtype=complex))
    return out
