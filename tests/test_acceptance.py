"""Acceptance gate: one test per advertised behavior of the package.

Each test prints a single `criterion N PASS/FAIL` line with the
measured numbers before asserting, so a verbose run reads as a
checklist. Tolerances are part of the contract and are not to be
loosened to make a line turn green.
"""

import numpy as np
from effective_reference import effective_collision, equal_up_to_global_phase, full_space_pulse

from cavity_grover.cavity import (
    CouplingParams,
    PhysicalBasis,
    PhysicalState,
    basis_state,
    evolve_collision,
    excitation_number,
    phase_gate_signs,
    qpg_gate_time,
)
from cavity_grover.experiment import (
    ExperimentConfig,
    compile_pulses,
    feasibility_report,
    run_physical,
    sweep_detuning,
    sweep_error,
)
from cavity_grover.gates import hadamard, i_qpg, p_gate, run_ideal, s_gate, x_rot, z_rot
from cavity_grover.linalg import apply, tensor

OMEGA_OVER_2PI = 5.0e4
THETA_GRID = np.linspace(-2 * np.pi, 2 * np.pi, 64)


def report(n, ok, detail):
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_ideal_search_is_deterministic():
    worst = max(
        abs(abs(run_ideal(target)[target]) ** 2 - 1.0) for target in range(4)
    )
    ok = worst <= 1e-10
    assert report(1, ok, f"worst |p(target) - 1| = {worst:.3e}, tolerance 1e-10"), (
        f"ideal search deviates from certainty by {worst:.3e}"
    )


def test_criterion_2_ideal_pulse_fidelity_anchor():
    config = ExperimentConfig(
        omega_over_2pi=OMEGA_OVER_2PI,
        delta_over_omega=4.0,
        epsilon=0.0,
        target=3,
        collision_model="exact",
    )
    fidelity = run_physical(config).fidelity
    ok = abs(fidelity - 0.94) <= 0.03
    assert report(
        2, ok, f"exact-model ideal-pulse fidelity {fidelity:.6f}, window 0.94 +/- 0.03"
    ), (
        f"fidelity {fidelity:.6f} falls outside 0.94 +/- 0.03 at the stated "
        f"working point delta = 4 omega"
    )


def test_criterion_3_pulse_error_fidelity_anchor():
    fids = {}
    for model in ("rabi_only", "all_angles"):
        config = ExperimentConfig(
            omega_over_2pi=OMEGA_OVER_2PI,
            delta_over_omega=4.0,
            epsilon=0.05,
            target=3,
            collision_model="exact",
            error_model=model,
        )
        fids[model] = run_physical(config).fidelity
    matches = [m for m, f in fids.items() if abs(f - 0.85) <= 0.03]
    detail = (
        f"rabi_only {fids['rabi_only']:.6f}, all_angles {fids['all_angles']:.6f}, "
        f"window 0.85 +/- 0.03, matching model: {matches[0] if matches else 'none'}"
    )
    assert report(3, bool(matches), detail), (
        f"neither error model lands in 0.85 +/- 0.03 at epsilon = 0.05 "
        f"(rabi_only {fids['rabi_only']:.6f}, all_angles {fids['all_angles']:.6f})"
    )


def test_criterion_4_error_curve_shape():
    epsilons = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
    fids = [f for _, f in sweep_error(ExperimentConfig(), epsilons)]
    monotone = all(b <= a for a, b in zip(fids, fids[1:]))
    interior = fids[0] > fids[3] > fids[5]
    ok = monotone and interior
    assert report(
        4,
        ok,
        f"fidelities {', '.join(f'{f:.6f}' for f in fids)}; "
        f"non-increasing {monotone}, midpoint strictly interior {interior}",
    )


def test_criterion_5_gate_identities():
    h = hadamard()
    deviations = {
        "h_squared": np.max(np.abs(h @ h - np.eye(2))),
        "s_factorization": np.max(np.abs(s_gate() - x_rot(-np.pi) @ h)),
        "z_conjugation": max(
            np.max(np.abs(z_rot(t) - h @ x_rot(-t) @ h)) for t in THETA_GRID
        ),
        "p_factorization": max(
            np.max(np.abs(p_gate(t) - h @ x_rot(-t))) for t in THETA_GRID
        ),
    }
    pair_worst = 0.0
    for t1 in THETA_GRID[::9]:
        for t2 in THETA_GRID[::9]:
            product = tensor(z_rot(t1), z_rot(t2)) @ i_qpg()
            expected = np.diag(
                [
                    np.exp(-0.5j * (t1 + t2)),
                    np.exp(-0.5j * (t1 - t2)),
                    np.exp(+0.5j * (t1 - t2)),
                    -np.exp(+0.5j * (t1 + t2)),
                ]
            )
            pair_worst = max(pair_worst, np.max(np.abs(product - expected)))
    deviations["z_pair_product"] = pair_worst
    worst = max(deviations.values())
    ok = worst <= 1e-12
    assert report(
        5,
        ok,
        "worst deviation "
        + ", ".join(f"{k} {v:.2e}" for k, v in deviations.items())
        + ", tolerance 1e-12",
    )


def test_criterion_6_effective_collision_is_the_phase_gate():
    # expm(-i H_eff pi/lam) of the reference generator: its logical block
    # is the phase gate, and all of it is the sign diagonal the package
    # applies
    params = CouplingParams.from_ratio(OMEGA_OVER_2PI, 4.0)
    basis = PhysicalBasis(n_max=2)
    u = effective_collision(params.lam, basis.n_max)
    logical = [basis.index(a1, a2, 0) for a1, a2 in ((0, 0), (0, 1), (1, 0), (1, 1))]
    gate_ok = equal_up_to_global_phase(u[np.ix_(logical, logical)], i_qpg(), tol=1e-10)
    lifted_ok = bool(np.max(np.abs(u - np.diag(phase_gate_signs(basis)))) <= 1e-10)
    worst_fid = min(
        run_physical(
            ExperimentConfig(target=target, collision_model="effective")
        ).fidelity
        for target in range(4)
    )
    fid_ok = abs(worst_fid - 1.0) <= 1e-9
    ok = gate_ok and lifted_ok and fid_ok
    assert report(
        6,
        ok,
        f"logical block is diag(1,1,1,-1) up to phase: {gate_ok}; "
        f"package collision matches it on the full space: {lifted_ok}; "
        f"worst effective-model fidelity {worst_fid:.12f}, tolerance 1e-9",
    )


def test_criterion_7_dispersive_convergence():
    ratios = (4.0, 8.0, 12.0, 16.0, 20.0)
    fids = [f for _, f in sweep_detuning(ExperimentConfig(), ratios)]
    increasing = all(b > a for a, b in zip(fids, fids[1:]))
    converged = fids[-1] > 0.99
    ok = increasing and converged
    assert report(
        7,
        ok,
        f"fidelities {', '.join(f'{f:.6f}' for f in fids)}; "
        f"strictly increasing {increasing}, final > 0.99 {converged}",
    )


def test_criterion_8_excitation_number_and_truncation():
    params = CouplingParams.from_ratio(OMEGA_OVER_2PI, 4.0)
    basis = PhysicalBasis(n_max=2)
    t = qpg_gate_time(params)
    n_op = np.diag(excitation_number(basis))

    starts = [
        basis_state(basis, a1, a2, 0) for a1 in range(2) for a2 in (0, 1)
    ]
    prepared = basis_state(basis, 0, 0, 0)
    for op in compile_pulses(3, 0.0, "rabi_only")[:4]:
        prepared = PhysicalState(
            apply(full_space_pulse(op, basis), prepared.amplitudes), basis
        )
    starts.append(prepared)

    drift = 0.0
    for state in starts:
        before = np.vdot(state.amplitudes, n_op @ state.amplitudes).real
        for frac in (0.25, 0.5, 0.75, 1.0):
            evolved = evolve_collision(state, params, frac * t)
            after = np.vdot(evolved.amplitudes, n_op @ evolved.amplitudes).real
            drift = max(drift, abs(after - before))
    drift_ok = drift <= 1e-9

    truncation = max(
        abs(
            run_physical(ExperimentConfig(target=target, n_max=3)).fidelity
            - run_physical(ExperimentConfig(target=target, n_max=2)).fidelity
        )
        for target in range(4)
    )
    truncation_ok = truncation <= 1e-6
    ok = drift_ok and truncation_ok
    assert report(
        8,
        ok,
        f"worst <N> drift {drift:.3e} (tolerance 1e-9), "
        f"worst n_max 2 vs 3 fidelity shift {truncation:.3e} (tolerance 1e-6)",
    )


def test_criterion_9_timing_budget():
    budget = feasibility_report(OMEGA_OVER_2PI)
    checks = {
        "lambda_3125_hz": abs(budget.lambda_over_2pi_hz - 3125.0) <= 3125.0 * 1e-12,
        "gate_time_160_us": abs(budget.gate_time_s - 1.6e-4) <= 1.6e-4 * 1e-9,
        "note_flags_quoted_budgets": "2.5e-04" in budget.note and "120 us" in budget.note,
        "two_gates_within_lifetime": budget.two_gate_time_s < 1e-3,
        "flag_pass": budget.flag == "pass",
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    assert report(
        9,
        ok,
        f"lambda/2pi {budget.lambda_over_2pi_hz:.6f} Hz, gate {budget.gate_time_s:.6e} s, "
        f"two gates {budget.two_gate_time_s:.6e} s, flag {budget.flag}"
        + (f"; failed: {', '.join(failed)}" if failed else ""),
    )
