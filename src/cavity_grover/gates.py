"""Ideal logical layer for the two-qubit search.

Qubit 1 lives on atom 1 (e = logical 1, g = logical 0), qubit 2 on
atom 2 (i = logical 1, g = logical 0). Two-qubit matrices put qubit 1
in the left tensor slot, so rows and columns run over |00>, |01>,
|10>, |11>.

Single-qubit conventions, chosen so the decomposition identities below
hold exactly:

    hadamard()    (1/sqrt 2) [[1, 1], [1, -1]]
    x_rot(t)      [[cos(t/2),  i sin(t/2)], [i sin(t/2), cos(t/2)]]
    y_rot(t)      [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]
    z_rot(t)      diag(e^{-i t/2}, e^{+i t/2})

    z_rot(+-t) == hadamard() @ x_rot(-+t) @ hadamard()
    p_gate(t)  == z_rot(t) @ hadamard() == hadamard() @ x_rot(-t)
    s_gate()   == x_rot(-pi) @ hadamard()

A search for target tau runs the five-step sequence P, QPG, H, QPG, S
(applied in that order to |00>): P prepares the superposition carrying
the oracle phases, the first phase gate completes the oracle
reflection, and H, QPG, S together invert about the mean. For two
qubits a single iteration is exact.
"""

from __future__ import annotations

import numpy as np

from .linalg import apply, tensor

#: Oracle rotation angles (theta1, theta2) per target item. Together
#: with the phase gate they produce the reflection about |target>.
ORACLE_ANGLES = {
    0: (np.pi, np.pi),
    1: (0.0, np.pi),
    2: (np.pi, 0.0),
    3: (0.0, 0.0),
}


def hadamard():
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def x_rot(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, 1j * s], [1j * s, c]])


def y_rot(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def z_rot(theta):
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex
    )


def s_gate():
    """Final rotation of the inversion step, x_rot(-pi) @ hadamard()."""
    return np.array([[-1j, 1j], [-1j, -1j]], dtype=complex) / np.sqrt(2)


def p_gate(theta):
    """Preparation pulse z_rot(theta) @ hadamard(); p_gate(0) is hadamard()."""
    return z_rot(theta) @ hadamard()


def i_qpg():
    """Two-qubit phase gate diag(1, 1, 1, -1): flips the sign of |11> only."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def oracle_angles(target):
    """(theta1, theta2) such that Z1(theta1) Z2(theta2) I_QPG reflects
    about |target>, up to a global phase."""
    try:
        return ORACLE_ANGLES[target]
    except KeyError:
        raise ValueError(f"target must be one of 0, 1, 2, 3, got {target!r}") from None


def grover_sequence(target):
    """The five-step search sequence for one target, first step first,
    as (name, 4x4 matrix) pairs.

    Steps are P (oracle-phased preparation on both qubits), QPG, H on
    both qubits, QPG, S on both qubits.
    """
    theta1, theta2 = oracle_angles(target)
    h2 = tensor(hadamard(), hadamard())
    return [
        ("P", tensor(p_gate(theta1), p_gate(theta2))),
        ("QPG", i_qpg()),
        ("H", h2),
        ("QPG", i_qpg()),
        ("S", tensor(s_gate(), s_gate())),
    ]


def run_ideal(target):
    """Run the ideal sequence on |00> and return the 4 final amplitudes."""
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    for _, matrix in grover_sequence(target):
        state = apply(matrix, state)
    return state
