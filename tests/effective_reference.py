"""Test-side full-space references.

The effective-collision references share no code with the package.

hamiltonian_effective builds the dispersive generator

    H_eff = lam (|e1><e1| + |e2><e2| + S1+ S2- + S1- S2+)

from single-atom operators, with the field carrying the identity, in
the package's product order (atom 1 {g, e}) x (atom 2 {g, i, e}) x
(Fock 0..n_max). effective_collision evolves it with scipy.linalg.expm
for t = pi/lam, the duration of every collision.

full_space_pulse lifts the package's one-atom pulse unitary to the
full space with linalg.embed, the form every full-space replay of a run
applies.
"""

import numpy as np
from scipy.linalg import expm

from cavity_grover.experiment import pulse_unitary
from cavity_grover.linalg import embed


def full_space_pulse(step, basis):
    """A pulse step (atom, u2) as a full-space matrix over basis."""
    return embed(pulse_unitary(step), [2, 3, basis.n_fock], step[0] - 1)


def hamiltonian_effective(lam, n_max):
    """H_eff on the full product space with Fock cutoff n_max."""
    e1 = np.diag([0.0, 1.0])
    e2 = np.diag([0.0, 0.0, 1.0])
    s1_plus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e1><g1|
    s2_plus = np.zeros((3, 3))
    s2_plus[2, 0] = 1.0  # |e2><g2|
    atomic = lam * (
        np.kron(e1, np.eye(3))
        + np.kron(np.eye(2), e2)
        + np.kron(s1_plus, s2_plus.T)
        + np.kron(s1_plus.T, s2_plus)
    )
    return np.kron(atomic, np.eye(n_max + 1))


def effective_collision(lam, n_max):
    """expm(-i H_eff pi/lam) on the full product space."""
    return expm(-1j * hamiltonian_effective(lam, n_max) * (np.pi / lam))


def equal_up_to_global_phase(a, b, tol=1e-10):
    """True when a equals e^{i phi} b for one phase phi, entrywise within tol.

    The phase is read off the first entry of b whose modulus exceeds tol,
    so "equal up to a global phase" stays an explicit, testable claim
    rather than something hidden inside a normalization step.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    fa = a.ravel()
    fb = b.ravel()
    anchors = np.flatnonzero(np.abs(fb) > tol)
    if anchors.size == 0:
        return bool(np.all(np.abs(fa) <= tol))
    k = anchors[0]
    if abs(fa[k]) <= tol:
        return False
    phase = (fa[k] / abs(fa[k])) * (abs(fb[k]) / fb[k])
    return bool(np.all(np.abs(fa - phase * fb) <= tol))
