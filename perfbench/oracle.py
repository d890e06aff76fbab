"""Independent reference for the benchmark's correctness gate.

It shares no code with cavity_grover. The Hamiltonians and the pulse
rotations are built here from the model as README.md states it and
exponentiated with scipy.linalg.expm:

- exact collision, written directly in the atomic frame (the frame the
  pulses are defined in): H = -delta a^dag a + (omega/2) sum_j
  (S_j+ a + S_j- a^dag). This equals the cavity-frame evolution
  followed by the exp(i delta t N) frame change, because the
  cavity-frame Hamiltonian commutes with N.
- effective collision: lam (|e1><e1| + |e2><e2| + S1+ S2- + S1- S2+)
  on the atoms, identity on the field, lam = omega^2 / (4 delta).
- pulses: R_y(a) = expm(-i a/2 sigma_y) and Z(a) = expm(-i a/2
  sigma_z), on atom 1's {g, e} or atom 2's {g, i}.

Both Hamiltonians conserve N = a^dag a + |e1><e1| + |e2><e2|, so the
collision unitary is exponentiated one N sector at a time: the same
matrix as a full expm, at a fraction of the cost and with each block's
norm set by its own photon number rather than by n_max. Only sectors
the state occupies are exponentiated; a run reaches N <= 4.

check(op, output) lists every way an op's output misses the reference.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

#: Agreement required between the program and the reference.
FIDELITY_TOL = 1e-9
#: Agreement required of a probability sum with 1.
NORM_TOL = 1e-10

LOGICAL_LABELS = ("g1g2", "g1i2", "e1g2", "e1i2")
#: (atom 1 level, atom 2 level) of each logical state; atom 1 is {g, e},
#: atom 2 is {g, i, e}.
LOGICAL_LEVELS = ((0, 0), (0, 1), (1, 0), (1, 1))
#: Oracle phases (theta1, theta2) of the paper's table, per target.
ORACLE_PHASES = {0: (math.pi, math.pi), 1: (0.0, math.pi), 2: (math.pi, 0.0), 3: (0.0, 0.0)}

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

FEASIBILITY_KEYS = (
    "omega_over_2pi_hz", "delta_over_omega", "lambda_over_2pi_hz", "gate_time_s",
    "two_gate_time_s", "total_time_s", "interaction_length_m", "velocity_m_per_s",
    "photon_lifetime_s", "lifetime_ratio",
)


def _kron3(a1, a2, field):
    return np.kron(np.kron(a1, a2), field)


def _flip(dim, upper, lower):
    """|upper><lower| on a space of the given dimension."""
    m = np.zeros((dim, dim), dtype=complex)
    m[upper, lower] = 1.0
    return m


def gate_time(omega_over_2pi, delta_over_omega):
    """pi / lam with lam = omega^2 / (4 delta)."""
    omega = 2 * math.pi * omega_over_2pi
    return math.pi / (omega / (4 * delta_over_omega))


def collision_hamiltonian(omega_over_2pi, delta_over_omega, n_max, model):
    """(H, N diagonal) on atom 1 x atom 2 x Fock(0..n_max), atomic frame."""
    nf = n_max + 1
    omega = 2 * math.pi * omega_over_2pi
    delta = delta_over_omega * omega
    i2, i3, i_f = np.eye(2), np.eye(3), np.eye(nf)
    up1, up2 = _flip(2, 1, 0), _flip(3, 2, 0)
    e1, e2 = _flip(2, 1, 1), _flip(3, 2, 2)
    a = np.diag(np.sqrt(np.arange(1.0, nf)), 1).astype(complex)
    photons = a.conj().T @ a
    if model == "exact":
        couple = _kron3(up1, i3, a) + _kron3(i2, up2, a)
        h = -delta * _kron3(i2, i3, photons) + omega / 2 * (couple + couple.conj().T)
    elif model == "effective":
        lam = omega**2 / (4 * delta)
        exchange = np.kron(up1, up2.conj().T)
        atoms = np.kron(e1, i3) + np.kron(i2, e2) + exchange + exchange.conj().T
        h = lam * np.kron(atoms, i_f)
    else:
        raise ValueError(f"unknown collision model {model!r}")
    n = np.real(np.diag(_kron3(i2, i3, photons) + _kron3(e1, i3, i_f) + _kron3(i2, e2, i_f)))
    return h, np.rint(n).astype(int)


class Collision:
    """expm(-i h t) for an h that conserves the integer diagonal n,
    applied one N sector at a time. A sector's block is exponentiated the
    first time a state has amplitude in it; sectors a state leaves empty
    contribute exact zeros either way."""

    def __init__(self, h, n, t):
        if np.any(h[n[:, None] != n[None, :]]):
            raise ValueError("Hamiltonian couples different excitation numbers")
        self.h, self.n, self.t = h, n, t
        self._blocks = {}

    def block(self, k):
        if k not in self._blocks:
            idx = np.flatnonzero(self.n == k)
            self._blocks[k] = idx, expm(-1j * self.t * self.h[np.ix_(idx, idx)])
        return self._blocks[k]

    def apply(self, psi):
        out = np.zeros_like(psi)
        for k in np.unique(self.n[psi != 0]):
            idx, block = self.block(k)
            out[idx] = block @ psi[idx]
        return out


def pulse_angles(target, epsilon, error_model):
    """The documented pulse program: (kind, atom, angle) or "collision"."""
    theta1, theta2 = ORACLE_PHASES[target]
    rabi = 1.0 + epsilon
    stark = 1.0 + epsilon if error_model == "all_angles" else 1.0
    steps = []
    for atom, theta in ((1, theta1), (2, theta2)):
        steps += [("y", atom, -math.pi / 2 * rabi), ("z", atom, (theta + math.pi) * stark)]
    steps.append("collision")
    for atom in (1, 2):
        steps += [("y", atom, -math.pi / 2 * rabi), ("z", atom, math.pi * stark)]
    steps.append("collision")
    steps += [("y", 1, math.pi / 2 * rabi), ("y", 2, math.pi / 2 * rabi)]
    return steps


class Reference:
    """Final states of the physical sequence. Collision unitaries are kept
    per (omega, delta/omega, n_max, model) and results per config, since
    a traced run checks every op twice."""

    def __init__(self):
        self._collisions = {}
        self._runs = {}

    def collision(self, omega_over_2pi, delta_over_omega, n_max, model):
        key = (omega_over_2pi, delta_over_omega, n_max, model)
        if key not in self._collisions:
            h, n = collision_hamiltonian(omega_over_2pi, delta_over_omega, n_max, model)
            self._collisions[key] = Collision(h, n, gate_time(omega_over_2pi, delta_over_omega))
        return self._collisions[key]

    def run(self, cfg):
        """Populations of a run: (2, 3) atomic marginals and the photon
        leakage, for a config dict with the ExperimentConfig fields."""
        key = tuple(sorted(cfg.items()))
        if key not in self._runs:
            self._runs[key] = self._run(cfg)
        return self._runs[key]

    def _run(self, cfg):
        nf = cfg["n_max"] + 1
        u = self.collision(cfg["omega_over_2pi"], cfg["delta_over_omega"], cfg["n_max"],
                           cfg["collision_model"])
        steps = pulse_angles(cfg["target"], cfg["epsilon"], cfg["error_model"])
        pulses = [s for s in steps if s != "collision"]
        gens = np.array([(_SIGMA_Y if kind == "y" else _SIGMA_Z) * (-0.5j * angle)
                         for kind, _, angle in pulses])
        rotations = iter(zip(pulses, expm(gens)))
        psi = np.zeros((2, 3, nf), dtype=complex)
        psi[0, 0, 0] = 1.0
        for step in steps:
            if step == "collision":
                psi = u.apply(psi.ravel()).reshape(2, 3, nf)
                continue
            (_, atom, _), r = next(rotations)
            if atom == 1:
                psi = np.einsum("ab,bjn->ajn", r, psi)
            else:
                r3 = np.eye(3, dtype=complex)
                r3[:2, :2] = r
                psi = np.einsum("ab,ibn->ian", r3, psi)
        probs = np.abs(psi) ** 2
        if abs(probs.sum() - 1.0) > NORM_TOL:
            raise ArithmeticError(f"reference state norm {probs.sum()} drifted from 1")
        return probs.sum(axis=2), float(probs[:, :, 1:].sum())

    def fidelity(self, cfg):
        marginals, _ = self.run(cfg)
        return float(marginals[LOGICAL_LEVELS[cfg["target"]]])


def _close(value, ref):
    """Within FIDELITY_TOL, relative for numbers above 1 in size."""
    return abs(value - ref) <= FIDELITY_TOL * max(1.0, abs(ref))


def _compare(problems, label, value, ref):
    if not isinstance(value, (int, float)) or not _close(value, ref):
        problems.append(f"{label}: got {value!r}, reference {ref!r}")


def _check_rows(problems, ref, call, cfg, points, rows):
    if len(rows) != len(points):
        problems.append(f"{len(rows)} rows for {len(points)} points")
        return
    for point, (param, fid) in zip(points, rows):
        run_cfg = dict(cfg, epsilon=point) if call == "sweep_error" else dict(
            cfg, delta_over_omega=point, epsilon=0.0, collision_model="exact")
        _compare(problems, f"param {point!r}", param, point)
        _compare(problems, f"fidelity at {point!r}", fid, ref.fidelity(run_cfg))


def _parse_csv(text):
    lines = text.splitlines()
    if not lines or lines[0] != "param,fidelity":
        raise ValueError(f"bad csv header {lines[:1]!r}")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def _check_simulate(problems, ref, cfg, record):
    marginals, leaked = ref.run(cfg)
    t = gate_time(cfg["omega_over_2pi"], cfg["delta_over_omega"])
    if record.get("target") != cfg["target"]:
        problems.append(f"target {record.get('target')!r}, expected {cfg['target']}")
    _compare(problems, "fidelity", record.get("fidelity"),
             float(marginals[LOGICAL_LEVELS[cfg["target"]]]))
    pops = record.get("populations", {})
    for label, levels in zip(LOGICAL_LABELS, LOGICAL_LEVELS):
        _compare(problems, f"population {label}", pops.get(label), float(marginals[levels]))
    _compare(problems, "leaked_photon_probability", record.get("leaked_photon_probability"), leaked)
    _compare(problems, "gate_time_s", record.get("gate_time_s"), t)
    _compare(problems, "total_time_s", record.get("total_time_s"), 2 * t)
    # The printed logical populations plus the reference's non-logical
    # ones (g1e2, e1e2) must account for all probability.
    non_logical = float(marginals.sum() - sum(marginals[lv] for lv in LOGICAL_LEVELS))
    total = sum(v for v in pops.values() if isinstance(v, float)) + non_logical
    if abs(total - 1.0) > NORM_TOL:
        problems.append(f"populations sum to {total!r}, not 1")


def feasibility_reference(params):
    f, r = params["omega_over_2pi"], params["delta_over_omega"]
    t = gate_time(f, r)
    total = 2 * t if params["total_time"] is None else params["total_time"]
    ratio = total / params["photon_lifetime"]
    values = (f, r, f / (4 * r), t, 2 * t, total, params["interaction_length"],
              params["interaction_length"] / total, params["photon_lifetime"], ratio)
    return dict(zip(FEASIBILITY_KEYS, values)), "pass" if ratio < 0.5 else "warn"


def _check_feasibility(problems, expect, text):
    values, flag = feasibility_reference(expect["params"])
    if expect["format"] == "json":
        record = json.loads(text)
        got = {key: record.get(key) for key in FEASIBILITY_KEYS}
        got_flag = record.get("flag")
    else:
        lines = text.splitlines()
        got = {key: float(line.rsplit(None, 1)[-1]) for key, line in zip(FEASIBILITY_KEYS, lines)}
        got_flag = lines[len(FEASIBILITY_KEYS)].rsplit(None, 1)[-1]
    for key, ref in values.items():
        _compare(problems, key, got.get(key), ref)
    if got_flag != flag:
        problems.append(f"flag {got_flag!r}, expected {flag!r}")


def _check_cli(problems, ref, op, output):
    expect = op["expect"]
    if output.get("code") != 0:
        problems.append(f"exit code {output.get('code')!r}")
    if output.get("stderr"):
        problems.append(f"stderr: {output['stderr'][:200]!r}")
    text = output.get("stdout", "")
    if op["output"] is not None:
        if text:
            problems.append(f"stdout not empty with --output: {text[:200]!r}")
        text = output.get("file") or ""
    kind = expect["kind"]
    if kind == "ideal":
        record = json.loads(text)
        probs = record.get("probabilities", [])
        if record.get("target") != expect["target"] or len(probs) != 4:
            problems.append(f"unexpected record {text[:200]!r}")
            return
        for k, p in enumerate(probs):
            _compare(problems, f"probability {k}", p, 1.0 if k == expect["target"] else 0.0)
        if abs(sum(probs) - 1.0) > NORM_TOL:
            problems.append(f"probabilities sum to {sum(probs)!r}, not 1")
    elif kind == "simulate":
        _check_simulate(problems, ref, expect["config"], json.loads(text))
    elif kind in ("sweep_error", "sweep_detuning"):
        _check_rows(problems, ref, kind, expect["config"], expect["points"], _parse_csv(text))
    elif kind == "feasibility":
        _check_feasibility(problems, expect, text)
    else:
        raise ValueError(f"unknown expectation {kind!r}")


def check(ref, op, output):
    """Every way the output of one op misses the reference; empty when
    the op is correct. `output` is what the workload process recorded:
    the returned rows for a library call, the exit code, stdout, stderr
    and output file for a CLI call, or {"error": ...} if it raised."""
    problems = []
    if isinstance(output, dict) and "error" in output:
        return [f"raised {output['error']}"]
    try:
        if op["call"] == "cli":
            _check_cli(problems, ref, op, output)
        else:
            _check_rows(problems, ref, op["call"], op["config"], op["points"], output)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        # json.JSONDecodeError is a ValueError: malformed output fails the op.
        problems.append(f"unreadable output: {exc!r}")
    return problems
