"""Physical layer: two Rydberg atoms exchanging energy through one
detuned cavity mode.

Atom 1 keeps two circular levels {g, e}; atom 2 keeps three {g, i, e}.
The second logical level of atom 2 is i, whose transition lies far
from the mode frequency, so i is a pure spectator during collisions.
Only the e <-> g transition of each atom couples to the field.

In the frame rotating at the cavity frequency the coupling is time
independent and the model Hamiltonian reads

    H = delta (|e1><e1| + |e2><e2|)
        + (omega/2) (a^dag S1- + a S1+ + a^dag S2- + a S2+)

with omega the vacuum Rabi angular frequency, delta = omega_atom -
omega_cavity > 0 the detuning, and Sj+ = |ej><gj|. H commutes with the
excitation number N = a^dag a + |e1><e1| + |e2><e2|.

For delta well above omega the cavity is only virtually populated and
the collision reduces to the zero-photon effective generator

    H_eff = lam (|e1><e1| + |e2><e2| + S1+ S2- + S1- S2+),
    lam = omega^2 / (4 delta),

a cavity Lamb shift on each excited atom plus an excitation exchange
between them. Every collision lasts t = pi/lam, where exp(-i H_eff t) is
the identity but for one pi phase on e1 i2: the quantum phase gate
diag(1, 1, 1, -1) on the logical states. The effective collision is that
sign flip at every photon number (phase_gate_signs), not an evolution.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalError, propagator, tensor

# Level indices within each atom.
A1_G, A1_E = 0, 1
A2_G, A2_I, A2_E = 0, 1, 2


@dataclass
class PhysicalBasis:
    """Product basis (atom 1) x (atom 2) x (Fock space up to n_max).

    Index layout is row-major over the factors:
    index = a1 * (3 * (n_max + 1)) + a2 * (n_max + 1) + n.
    """

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")

    @property
    def n_fock(self):
        return self.n_max + 1

    @property
    def dim(self):
        return 2 * 3 * self.n_fock

    def index(self, a1, a2, n):
        if not (0 <= a1 < 2 and 0 <= a2 < 3 and 0 <= n < self.n_fock):
            raise IndexError(f"level indices ({a1}, {a2}, {n}) out of range")
        return a1 * (3 * self.n_fock) + a2 * self.n_fock + n


@dataclass
class PhysicalState:
    """Normalized amplitude vector over a PhysicalBasis."""

    amplitudes: np.ndarray
    basis: PhysicalBasis

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.shape} does not "
                f"match basis dimension {self.basis.dim}"
            )
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} is not 1 within 1e-10")


def basis_state(basis, a1, a2, n):
    """The basis vector |a1, a2, n> as a PhysicalState."""
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index(a1, a2, n)] = 1.0
    return PhysicalState(amps, basis)


@dataclass
class CouplingParams:
    """Atom-cavity coupling working point.

    omega: vacuum Rabi angular frequency (rad/s)
    delta: atom-cavity detuning (rad/s), positive
    lam:   derived collision rate omega^2 / (4 delta) (rad/s)

    The constructor enforces delta/omega >= 1 and warns below 4, where
    the dispersive picture behind the effective collision degrades.
    omega^2 or lam outside the normal floats (overflow, or underflow to a
    subnormal or zero) raises NumericalError, so t = pi/lam is finite.
    """

    omega: float  # rad/s
    delta: float  # rad/s
    lam: float = field(init=False)

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        ratio = self.delta / self.omega
        if not ratio >= 1:
            raise ValueError(
                f"delta/omega must be at least 1, got {ratio} "
                f"(delta={self.delta}, omega={self.omega})"
            )
        if ratio < 4:
            warnings.warn(
                f"dispersive ratio delta/omega = {ratio:g} is below 4; "
                "the effective collision picture degrades this close to resonance",
                stacklevel=3,
            )
        try:
            omega_sq = self.omega**2
        except OverflowError:
            raise NumericalError(f"omega^2 overflows at omega = {self.omega}") from None
        self.lam = omega_sq / (4.0 * self.delta)
        for name, value in (("omega^2", omega_sq), ("lam", self.lam)):
            if not sys.float_info.min <= value < math.inf:
                raise NumericalError(f"{name} = {value} is not a normal float at omega = {self.omega}, delta = {self.delta}")

    @classmethod
    def from_ratio(cls, omega_over_2pi, delta_over_omega):
        """Build from an ordinary frequency (Hz) and the ratio delta/omega."""
        omega = 2.0 * np.pi * omega_over_2pi
        delta = delta_over_omega * omega
        if not (np.isfinite(omega) and np.isfinite(delta)):
            raise NumericalError(f"coupling frequencies overflow: omega = {omega}, delta = {delta}")
        return cls(omega=omega, delta=delta)


def _ket_bra(dim, row, col):
    """|row><col| on a single atom of the given dimension."""
    s = np.zeros((dim, dim), dtype=complex)
    s[row, col] = 1.0
    return s


def hamiltonian_exact(params, basis):
    """The rotating-frame coupling Hamiltonian on the full product space.

    Matrix elements: <g1 g2, n+1| H |e1 g2, n> = (omega/2) sqrt(n+1) and
    likewise for atom 2's e <-> g transition; every |e_j> carries the
    bare detuning energy delta; atom 2's i level is fully decoupled at
    zero energy.
    """
    nf = basis.n_fock
    eye1 = np.eye(2, dtype=complex)
    eye2 = np.eye(3, dtype=complex)
    eyef = np.eye(nf, dtype=complex)

    a = np.diag(np.sqrt(np.arange(1, nf, dtype=float)), k=1).astype(complex)
    adag = a.conj().T

    e1 = _ket_bra(2, A1_E, A1_E)
    e2 = _ket_bra(3, A2_E, A2_E)
    s1_minus = _ket_bra(2, A1_G, A1_E)
    s2_minus = _ket_bra(3, A2_G, A2_E)

    h = params.delta * (tensor(tensor(e1, eye2), eyef) + tensor(tensor(eye1, e2), eyef))
    g = params.omega / 2.0
    h += g * tensor(tensor(s1_minus, eye2), adag)
    h += g * tensor(tensor(s1_minus.conj().T, eye2), a)
    h += g * tensor(tensor(eye1, s2_minus), adag)
    h += g * tensor(tensor(eye1, s2_minus.conj().T), a)
    return h


def excitation_number(basis):
    """N = a^dag a + |e1><e1| + |e2><e2| on the full product space."""
    nf = basis.n_fock
    n = np.zeros((basis.dim, basis.dim), dtype=complex)
    for a1 in range(2):
        for a2 in range(3):
            for k in range(nf):
                idx = basis.index(a1, a2, k)
                n[idx, idx] = k + (a1 == A1_E) + (a2 == A2_E)
    return n


def qpg_gate_time(params):
    """Collision duration pi/lam = 4 pi delta / omega^2 realizing the
    phase gate; finite, since CouplingParams keeps lam a normal float."""
    return np.pi / params.lam


def phase_gate_signs(basis):
    """The effective collision, exp(-i H_eff pi/lam), as the diagonal of
    the full-space unitary: -1 on |e1 i2, n> for every n, +1 elsewhere."""
    signs = np.ones((2, 3, basis.n_fock))
    signs[A1_E, A2_I] = -1.0
    return signs.ravel()


def evolve_collision(state, params, t):
    """Evolve a physical state through one exact collision of duration
    t (s): hamiltonian_exact in a single eigendecomposition step, in the
    frame rotating at the cavity frequency."""
    u = propagator(hamiltonian_exact(params, state.basis), t)
    return PhysicalState(u @ state.amplitudes, state.basis)


def atomic_marginal(state):
    """Probability table over (atom 1 level, atom 2 level), photon
    number traced out. Shape (2, 3), rows g1/e1, columns g2/i2/e2."""
    nf = state.basis.n_fock
    probs = np.abs(state.amplitudes) ** 2
    return probs.reshape(2, 3, nf).sum(axis=2)
