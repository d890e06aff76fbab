"""End-to-end physical runs of the search sequence.

A run starts from both atoms in g with the cavity in vacuum, applies
the compiled steps, and reads the atomic populations at the end. A
step is plain data: (atom, u2), an instantaneous 2x2 pulse on atom 1
or 2, or None, a collision lasting pi/lam. Fidelity is the marginal
probability of finding the atoms in the target level pair, photon
number traced out.

Pulse compilation decomposes each logical gate into what the classical
sources actually drive, dropping global phases:

    S_j        R_y(pi/2)
    H_j        Z_j(pi) after R_y(-pi/2)
    P_j(theta) Z_j(theta + pi) after R_y(-pi/2)

where R_y (gates.y_rot) is a resonant Rabi rotation and Z_j a Stark phase.
A fractional pulse-duration error epsilon scales every Rabi angle by
(1 + epsilon); the "all_angles" error model scales the Stark angles
too. Collision durations are never scaled: they are set by the atoms'
flight through the mode, not by the pulse clock.

Frames: the exact collision propagator U is generated in the frame
rotating at the cavity frequency, where the coupling is time
independent, while the pulse rotations are written in the frame of the
atomic transitions. After each exact-model collision a diagonal phase
exp(i delta t N) converts between the two. At the default working
point delta*t is a multiple of 2 pi and the correction is the
identity; at other detunings it keeps interleaved pulses and
collisions phase-consistent. Both are built once per working point
(omega, delta, n_max), so once per run and once per error sweep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .cavity import (
    A1_G,
    A2_G,
    CouplingParams,
    PhysicalBasis,
    PhysicalState,
    atomic_marginal,
    basis_state,
    collision_unitary,
    evolve_collision,
    excitation_number,
    phase_gate_signs,
    qpg_gate_time,
)
from .gates import oracle_angles, y_rot, z_rot
from .linalg import NumericalError, apply, embed  # apply, embed, evolve_collision: unused, kept for perfbench's tracer

#: Marginal-table label of each target item, indexed by target.
TARGET_LABELS = ("g1g2", "g1i2", "e1g2", "e1i2")

#: Label of each atomic level pair, in atomic_marginal's row-major order.
POPULATION_LABELS = ("g1g2", "g1i2", "g1e2", "e1g2", "e1i2", "e1e2")

COLLISION_MODELS = ("exact", "effective")
ERROR_MODELS = ("rabi_only", "all_angles")

#: Largest Fock cutoff a run accepts: the dynamics reach at most two
#: photons, while the exact collision's cost grows as n_max^3.
N_MAX_LIMIT = 100


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


def _check_kind(kind, **values):
    """Refuse, by name, any bool and any input not of numbers.`kind`."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{name} must be {'an integer' if kind is numbers.Integral else 'a real number'}, got {value!r}")


def _check_positive_finite(**values):
    """Refuse, by name, any physical input that is not a positive finite real."""
    _check_kind(numbers.Real, **values)
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass
class ExperimentConfig:
    omega_over_2pi: float = 5.0e4  # vacuum Rabi frequency / 2 pi, Hz
    delta_over_omega: float = 4.0  # detuning in units of omega
    target: int = 3  # searched item, 0..3
    epsilon: float = 0.0  # fractional pulse-duration error
    n_max: int = 2  # Fock cutoff
    collision_model: str = "exact"
    error_model: str = "rabi_only"

    def __post_init__(self):
        _check_kind(numbers.Integral, target=self.target, n_max=self.n_max)
        _check_kind(numbers.Real, delta_over_omega=self.delta_over_omega, epsilon=self.epsilon)
        _check_positive_finite(omega_over_2pi=self.omega_over_2pi)
        if not 1 <= self.delta_over_omega < math.inf:
            raise ConfigError(f"delta_over_omega must be finite and at least 1, got {self.delta_over_omega}")
        if self.target not in (0, 1, 2, 3):
            raise ConfigError(f"target must be one of 0, 1, 2, 3, got {self.target!r}")
        if not abs(self.epsilon) <= 0.5:
            raise ConfigError(f"epsilon must satisfy |epsilon| <= 0.5, got {self.epsilon}")
        if not 1 <= self.n_max <= N_MAX_LIMIT:
            raise ConfigError(f"n_max must be between 1 and {N_MAX_LIMIT}, got {self.n_max}")
        if self.collision_model not in COLLISION_MODELS:
            raise ConfigError(f"collision_model must be one of {COLLISION_MODELS}, got {self.collision_model!r}")
        if self.error_model not in ERROR_MODELS:
            raise ConfigError(f"error_model must be one of {ERROR_MODELS}, got {self.error_model!r}")


def compile_pulses(target, epsilon, error_model):
    """The steps of one search: P on both atoms, collision, H on both
    atoms, collision, S on both atoms. A pulse is (atom, y_rot or z_rot
    matrix), a collision None. Rabi angles are scaled by (1 + epsilon);
    Stark angles only under error_model "all_angles"; collisions never.
    """
    theta1, theta2 = oracle_angles(target)
    rabi_scale = 1.0 + epsilon
    stark_scale = 1.0 + epsilon if error_model == "all_angles" else 1.0

    steps = []
    for atom, theta in ((1, theta1), (2, theta2)):
        steps.append((atom, y_rot(-np.pi / 2 * rabi_scale)))
        steps.append((atom, z_rot((theta + np.pi) * stark_scale)))
    steps.append(None)
    for atom in (1, 2):
        steps.append((atom, y_rot(-np.pi / 2 * rabi_scale)))
        steps.append((atom, z_rot(np.pi * stark_scale)))
    steps.append(None)
    for atom in (1, 2):
        steps.append((atom, y_rot(np.pi / 2 * rabi_scale)))
    return steps


def pulse_unitary(step):
    """The unitary of a pulse step (atom, u2) on the atom it drives: u2
    itself on atom 1's {g, e}; on atom 2, u2 on its {g, i} logical pair
    padded to 3x3, leaving e untouched, since the pulse frequencies
    address the g <-> i transition only.
    """
    atom, u2 = step
    u = np.eye(2 if atom == 1 else 3, dtype=complex)
    u[:2, :2] = u2
    return u


@dataclass
class RunResult:
    fidelity: float
    populations: dict  # label -> probability, all six atomic level pairs
    leaked_photon_probability: float
    gate_time_s: float  # each of the two collisions
    total_time_s: float  # both collisions; pulses are instantaneous


def _working_point(config):
    """What every run at the config's (omega, delta, n_max, collision
    model) shares: (basis, gate time, start amplitudes, u, diag). A
    collision maps amps to diag * (u @ amps), or to diag * amps when u
    is None (the effective model)."""
    params = CouplingParams.from_ratio(config.omega_over_2pi, config.delta_over_omega)
    basis = PhysicalBasis(config.n_max)
    t_gate = qpg_gate_time(params)
    start = basis_state(basis, A1_G, A2_G, 0).amplitudes
    if config.collision_model == "effective":
        return basis, t_gate, start, None, phase_gate_signs(basis)
    u = collision_unitary(params, basis, t_gate)
    # cavity frame -> atomic frame, where the pulses are defined;
    # delta*t is finite here, as the propagator refuses it otherwise
    frame = np.exp(1j * params.delta * t_gate * excitation_number(basis))
    return basis, t_gate, start, u, frame


def _run(config, point):
    """Run the config's steps from a working point of its own (omega,
    delta, n_max, collision model)."""
    basis, t_gate, amps, u, diag = point
    for step in compile_pulses(config.target, config.epsilon, config.error_model):
        if step is None:
            amps = diag * (amps if u is None else u @ amps)
        else:
            # contract the driven atom's axis of the (a1, a2, n) grid
            subscripts = "ab,bjn->ajn" if step[0] == 1 else "ab,ibn->ian"
            amps = np.einsum(subscripts, pulse_unitary(step), amps.reshape(2, 3, basis.n_fock)).ravel()

    state = PhysicalState(amps, basis)
    table = atomic_marginal(state)
    populations = {label: float(p) for label, p in zip(POPULATION_LABELS, table.ravel())}
    probs = np.abs(state.amplitudes) ** 2
    leaked = float(probs.reshape(2, 3, basis.n_fock)[:, :, 1:].sum())
    return RunResult(
        fidelity=populations[TARGET_LABELS[config.target]],
        populations=populations,
        leaked_photon_probability=leaked,
        gate_time_s=t_gate,
        total_time_s=float(2 * t_gate),
    )


def run_physical(config):
    """Run the full physical sequence for one configuration."""
    return _run(config, _working_point(config))


def _sweep_configs(config, field, values, **fixed):
    """One validated config per value of `field`, `fixed` overriding."""
    if len(values) == 0:
        raise ConfigError(f"sweep over {field} needs at least one point")
    return [replace(config, **fixed, **{field: float(value)}) for value in values]


def sweep_error(config, epsilons):
    """Fidelity versus epsilon, everything else fixed, so every point
    shares one working point. Returns [(epsilon, fidelity), ...] in
    input order."""
    runs = _sweep_configs(config, "epsilon", epsilons)
    point = _working_point(runs[0])
    return [(run.epsilon, _run(run, point).fidelity) for run in runs]


def sweep_detuning(config, ratios):
    """Fidelity versus delta/omega at epsilon 0 under the exact model,
    the convergence study behind the default working point; one run per
    ratio. Returns [(ratio, fidelity), ...] in input order."""
    runs = _sweep_configs(config, "delta_over_omega", ratios, epsilon=0.0, collision_model="exact")
    return [(run.delta_over_omega, run_physical(run).fidelity) for run in runs]


@dataclass
class FeasibilityReport:
    omega_over_2pi_hz: float
    delta_over_omega: float
    lambda_over_2pi_hz: float
    gate_time_s: float
    two_gate_time_s: float
    total_time_s: float
    interaction_length_m: float
    velocity_m_per_s: float
    photon_lifetime_s: float
    lifetime_ratio: float
    flag: str
    note: str


def feasibility_report(
    omega_over_2pi,
    delta_over_omega=4.0,
    interaction_length_m=0.01,
    photon_lifetime_s=1e-3,
    total_time_override_s=None,
):
    """Timing budget of the two-collision sequence.

    All times follow from the lambda*t = pi condition. The atoms must
    cross the interaction region within the total time, which sets the
    velocity; the total time over the photon lifetime gives the
    pass/warn flag (warn at 0.5 and above). total_time_override_s
    substitutes an externally imposed budget for the derived two-gate
    time in the velocity and lifetime figures. Raises NumericalError
    when a derived figure is not finite.
    """
    _check_positive_finite(
        omega_over_2pi=omega_over_2pi,
        delta_over_omega=delta_over_omega,
        interaction_length_m=interaction_length_m,
        photon_lifetime_s=photon_lifetime_s,
    )
    if total_time_override_s is not None:
        _check_positive_finite(total_time_override_s=total_time_override_s)

    params = CouplingParams.from_ratio(omega_over_2pi, delta_over_omega)
    gate_time = qpg_gate_time(params)
    two_gate = 2.0 * gate_time
    total = two_gate if total_time_override_s is None else float(total_time_override_s)
    velocity = interaction_length_m / total
    ratio = total / photon_lifetime_s
    note = (
        f"collision timing follows lambda*t = pi: {gate_time:.6e} s per gate, "
        f"{two_gate:.6e} s for two; the often quoted budgets of 2.5e-04 s for "
        "two gates and 120 us of total interaction are inconsistent with that "
        "arithmetic and are listed for comparison only"
    )
    report = FeasibilityReport(
        omega_over_2pi_hz=float(omega_over_2pi),
        delta_over_omega=float(delta_over_omega),
        lambda_over_2pi_hz=params.lam / (2.0 * np.pi),
        gate_time_s=gate_time,
        two_gate_time_s=two_gate,
        total_time_s=total,
        interaction_length_m=float(interaction_length_m),
        velocity_m_per_s=velocity,
        photon_lifetime_s=float(photon_lifetime_s),
        lifetime_ratio=ratio,
        flag="pass" if ratio < 0.5 else "warn",
        note=note,
    )
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalError(f"{f.name} is not finite ({value})")
    return report
