import warnings
from pathlib import Path

import numpy as np
import pytest
from effective_reference import effective_collision, equal_up_to_global_phase, hamiltonian_effective

from cavity_grover.cavity import (
    CouplingParams,
    PhysicalBasis,
    PhysicalState,
    atomic_marginal,
    basis_state,
    evolve_collision,
    excitation_number,
    hamiltonian_exact,
    phase_gate_signs,
    qpg_gate_time,
)
from cavity_grover.experiment import ExperimentConfig, compile_pulses, pulse_unitary, run_physical
from cavity_grover.gates import i_qpg
from cavity_grover.linalg import is_hermitian

OMEGA_OVER_2PI = 5.0e4  # Hz

# Collision amplitudes at the default working point (delta = 4 omega,
# t = pi/lam = 1.6e-4 s), evaluated from the detuned Rabi closed forms
# rather than the eigendecomposition the package uses:
#
#   e1i2,0 couples only to g1i2,1 (atom 2 spectates), a two-level block
#   with splitting sqrt(delta^2 + omega^2); e1g2,0 couples to g1g2,1
#   and through it to g1e2,0, and splits into a dark antisymmetric
#   combination plus a symmetric one driven at omega*sqrt(2).
#
# Frozen here as oracles for the evolution tests.
A_EI_SURVIVE = -9.988668189364e-01 - 4.617183279840e-02j  # e1i2,0 -> itself
A_EI_LEAK = -1.154295819960e-02j  # e1i2,0 -> g1i2,1
A_EG_SURVIVE = 9.914718308638e-01 + 8.669455688372e-02j  # e1g2,0 -> itself
A_EG_EXCHANGE = -8.528169136238e-03 + 8.669455688372e-02j  # e1g2,0 -> g1e2,0
A_EG_PHOTON = 4.334727844186e-02j  # e1g2,0 -> g1g2,1


def default_params():
    return CouplingParams.from_ratio(OMEGA_OVER_2PI, 4.0)


class TestPhysicalBasis:
    def test_dimensions(self):
        basis = PhysicalBasis(n_max=2)
        assert basis.n_fock == 3
        assert basis.dim == 18

    def test_index_layout(self):
        basis = PhysicalBasis(n_max=2)
        assert basis.index(0, 0, 0) == 0
        assert basis.index(0, 0, 1) == 1
        assert basis.index(0, 1, 0) == 3
        assert basis.index(0, 2, 0) == 6
        assert basis.index(1, 0, 0) == 9
        assert basis.index(1, 2, 2) == 17

    def test_index_covers_every_slot_once(self):
        basis = PhysicalBasis(n_max=3)
        seen = {
            basis.index(a1, a2, n)
            for a1 in range(2)
            for a2 in range(3)
            for n in range(basis.n_fock)
        }
        assert seen == set(range(basis.dim))

    @pytest.mark.parametrize("triple", [(2, 0, 0), (0, 3, 0), (0, 0, 3), (-1, 0, 0)])
    def test_index_out_of_range(self, triple):
        basis = PhysicalBasis(n_max=2)
        with pytest.raises(IndexError):
            basis.index(*triple)

    def test_rejects_fockless_truncation(self):
        with pytest.raises(ValueError, match="n_max"):
            PhysicalBasis(n_max=0)


class TestPhysicalState:
    def test_basis_state_places_amplitude(self):
        basis = PhysicalBasis(n_max=2)
        state = basis_state(basis, 1, 1, 0)
        assert state.amplitudes[basis.index(1, 1, 0)] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_rejects_wrong_length(self):
        basis = PhysicalBasis(n_max=2)
        with pytest.raises(ValueError, match="dimension"):
            PhysicalState(np.zeros(17, dtype=complex), basis)

    def test_rejects_unnormalized(self):
        basis = PhysicalBasis(n_max=2)
        amps = np.zeros(18, dtype=complex)
        amps[0] = 0.7
        with pytest.raises(ValueError, match="norm"):
            PhysicalState(amps, basis)


class TestCouplingParams:
    def test_collision_rate(self):
        params = CouplingParams(omega=2.0, delta=8.0)
        assert params.lam == 4.0 / 32.0

    def test_from_ratio_default_point(self):
        params = default_params()
        assert params.omega == pytest.approx(2 * np.pi * 5.0e4, rel=1e-15)
        assert params.delta == pytest.approx(8 * np.pi * 5.0e4, rel=1e-15)
        # omega^2 / (4 * 4 omega) = omega / 16: 3125 Hz on the nose
        assert params.lam / (2 * np.pi) == pytest.approx(3125.0, rel=1e-12)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            CouplingParams(omega=2.0, delta=1.0)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError, match="omega"):
            CouplingParams(omega=0.0, delta=1.0)

    def test_warns_between_one_and_four(self):
        with pytest.warns(UserWarning, match="below 4") as record:
            CouplingParams.from_ratio(OMEGA_OVER_2PI, 2.0)
        # the warning points at the line that built the params, not at
        # the dataclass-generated __init__ ("<string>")
        source = Path(record[0].filename)
        assert source.is_file()
        assert source.name == "cavity.py"

    def test_silent_at_four(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CouplingParams.from_ratio(OMEGA_OVER_2PI, 4.0)


class TestHamiltonianExact:
    def setup_method(self):
        self.basis = PhysicalBasis(n_max=2)
        self.params = default_params()
        self.h = hamiltonian_exact(self.params, self.basis)

    def test_hermitian(self):
        assert is_hermitian(self.h)

    def test_coupling_elements(self):
        g = self.params.omega / 2.0
        idx = self.basis.index
        assert self.h[idx(0, 0, 1), idx(1, 0, 0)] == g
        assert self.h[idx(0, 0, 1), idx(0, 2, 0)] == g
        assert self.h[idx(0, 1, 1), idx(1, 1, 0)] == g

    def test_photon_ladder_scaling(self):
        g = self.params.omega / 2.0
        idx = self.basis.index
        assert self.h[idx(0, 0, 2), idx(1, 0, 1)] == pytest.approx(
            g * np.sqrt(2), rel=1e-15
        )

    def test_detuning_on_diagonal(self):
        idx = self.basis.index
        delta = self.params.delta
        assert self.h[idx(1, 1, 0), idx(1, 1, 0)] == delta
        assert self.h[idx(1, 0, 0), idx(1, 0, 0)] == delta
        assert self.h[idx(0, 2, 0), idx(0, 2, 0)] == delta
        assert self.h[idx(1, 2, 0), idx(1, 2, 0)] == 2 * delta
        assert self.h[idx(0, 0, 0), idx(0, 0, 0)] == 0.0
        assert self.h[idx(0, 1, 2), idx(0, 1, 2)] == 0.0

    def test_atoms_enter_symmetrically(self):
        # the two e <-> g transitions see the same field, element by element
        idx = self.basis.index
        for n in range(self.basis.n_fock - 1):
            via_atom1 = self.h[idx(0, 0, n + 1), idx(1, 0, n)]
            via_atom2 = self.h[idx(0, 0, n + 1), idx(0, 2, n)]
            assert via_atom1 == via_atom2

    def test_spectator_level_never_rotates(self):
        # atom 2 in i: every element that would change its level vanishes
        idx = self.basis.index
        for a1 in range(2):
            for n in range(self.basis.n_fock):
                row = idx(a1, 1, n)
                for b1 in range(2):
                    for b2 in (0, 2):
                        for m in range(self.basis.n_fock):
                            assert self.h[row, idx(b1, b2, m)] == 0.0

    def test_commutes_with_excitation_number(self):
        # N is diagonal with small integer entries, so the commutator
        # is not just small, it is exactly zero in floating point
        n = excitation_number(self.basis)
        comm = self.h @ n - n @ self.h
        assert np.array_equal(comm, np.zeros_like(comm))


class TestExcitationNumber:
    def test_diagonal_values(self):
        basis = PhysicalBasis(n_max=2)
        n = excitation_number(basis)
        idx = basis.index
        assert n[idx(0, 0, 0), idx(0, 0, 0)] == 0
        assert n[idx(1, 1, 0), idx(1, 1, 0)] == 1
        assert n[idx(0, 1, 1), idx(0, 1, 1)] == 1
        assert n[idx(1, 2, 2), idx(1, 2, 2)] == 4
        assert np.array_equal(n, np.diag(np.diag(n)))


class TestExactCollision:
    def setup_method(self):
        self.basis = PhysicalBasis(n_max=2)
        self.params = default_params()
        self.t = qpg_gate_time(self.params)

    def evolve(self, a1, a2, n, model="exact"):
        state = basis_state(self.basis, a1, a2, n)
        if model == "exact":
            return evolve_collision(state, self.params, self.t)
        # the effective collision is the sign diagonal run_physical
        # applies; it must match the expm of the reference generator
        out = phase_gate_signs(self.basis) * state.amplitudes
        ref = effective_collision(self.params.lam, self.basis.n_max) @ state.amplitudes
        assert np.max(np.abs(out - ref)) <= 1e-12
        return PhysicalState(out, self.basis)

    def test_spectator_branch_amplitudes(self):
        out = self.evolve(1, 1, 0).amplitudes
        idx = self.basis.index
        assert out[idx(1, 1, 0)] == pytest.approx(A_EI_SURVIVE, abs=1e-9)
        assert out[idx(0, 1, 1)] == pytest.approx(A_EI_LEAK, abs=1e-9)
        others = np.delete(out, [idx(1, 1, 0), idx(0, 1, 1)])
        assert np.max(np.abs(others)) < 1e-12

    def test_spectator_branch_leakage_is_small(self):
        out = self.evolve(1, 1, 0).amplitudes
        leak = abs(out[self.basis.index(0, 1, 1)]) ** 2
        assert leak == pytest.approx(1.332399e-04, rel=1e-4)
        # well inside the dispersive (omega / 2 delta)^2 scale
        assert leak < 2e-2

    def test_exchange_branch_amplitudes(self):
        out = self.evolve(1, 0, 0).amplitudes
        idx = self.basis.index
        assert out[idx(1, 0, 0)] == pytest.approx(A_EG_SURVIVE, abs=1e-9)
        assert out[idx(0, 2, 0)] == pytest.approx(A_EG_EXCHANGE, abs=1e-9)
        assert out[idx(0, 0, 1)] == pytest.approx(A_EG_PHOTON, abs=1e-9)
        others = np.delete(out, [idx(1, 0, 0), idx(0, 2, 0), idx(0, 0, 1)])
        assert np.max(np.abs(others)) < 1e-12

    @pytest.mark.parametrize("model", ["exact", "effective"])
    @pytest.mark.parametrize("levels", [(0, 0), (0, 1)])
    def test_dark_states_idle(self, model, levels):
        a1, a2 = levels
        out = self.evolve(a1, a2, 0, model=model).amplitudes
        expected = np.zeros_like(out)
        expected[self.basis.index(a1, a2, 0)] = 1.0
        assert np.allclose(out, expected, atol=1e-12)

    def test_effective_model_phases_double_excitation(self):
        out = self.evolve(1, 1, 0, model="effective").amplitudes
        assert out[self.basis.index(1, 1, 0)] == pytest.approx(-1.0, abs=1e-9)

    def test_effective_model_returns_exchange(self):
        out = self.evolve(1, 0, 0, model="effective").amplitudes
        assert out[self.basis.index(1, 0, 0)] == pytest.approx(1.0, abs=1e-9)

    def test_truncation_insensitive(self):
        # single-excitation dynamics never reach the n = 2 rung, so a
        # deeper Fock cut must not move the amplitudes
        out2 = self.evolve(1, 0, 0).amplitudes
        basis3 = PhysicalBasis(n_max=3)
        out3 = evolve_collision(
            basis_state(basis3, 1, 0, 0), self.params, self.t
        ).amplitudes
        for a1 in range(2):
            for a2 in range(3):
                for n in range(3):
                    assert out3[basis3.index(a1, a2, n)] == pytest.approx(
                        out2[self.basis.index(a1, a2, n)], abs=1e-9
                    )

    def test_mean_excitation_conserved(self):
        n_op = excitation_number(self.basis)
        amps = np.zeros(self.basis.dim, dtype=complex)
        amps[self.basis.index(1, 0, 0)] = 0.5
        amps[self.basis.index(1, 1, 0)] = 0.5
        amps[self.basis.index(0, 0, 1)] = 0.5
        amps[self.basis.index(0, 1, 0)] = 0.5
        state = PhysicalState(amps, self.basis)
        before = np.vdot(state.amplitudes, n_op @ state.amplitudes).real
        for frac in (0.25, 0.5, 1.0):
            evolved = evolve_collision(state, self.params, frac * self.t)
            after = np.vdot(evolved.amplitudes, n_op @ evolved.amplitudes).real
            assert after == pytest.approx(before, abs=1e-9)


#: (atom 1, atom 2) levels of the logical states |00>, |01>, |10>, |11>.
LOGICAL_LEVELS = ((0, 0), (0, 1), (1, 0), (1, 1))


class TestEffectiveGenerator:
    def test_matrix_layout(self):
        # the reference generator, read through the package's basis
        # index: lam on each excited e, 2 lam on e1e2, exchange lam
        # between e1g2 and g1e2, the field untouched
        params = CouplingParams(omega=2.0, delta=8.0)
        lam = params.lam
        basis = PhysicalBasis(n_max=2)
        idx = basis.index
        h = hamiltonian_effective(lam, basis.n_max)
        expected = np.zeros((basis.dim, basis.dim))
        for n in range(basis.n_fock):
            for a1, a2, energy in ((1, 0, lam), (0, 2, lam), (1, 1, lam), (1, 2, 2 * lam)):
                expected[idx(a1, a2, n), idx(a1, a2, n)] = energy
            expected[idx(1, 0, n), idx(0, 2, n)] = lam
            expected[idx(0, 2, n), idx(1, 0, n)] = lam
        assert np.array_equal(h, expected)

    def test_gate_time_default_point(self):
        t = qpg_gate_time(default_params())
        assert t == pytest.approx(1.6e-4, rel=1e-9)

    def test_gate_time_scales_with_detuning(self):
        omega = 2 * np.pi * 5.0e4
        t4 = qpg_gate_time(CouplingParams(omega=omega, delta=4 * omega))
        t8 = qpg_gate_time(CouplingParams(omega=omega, delta=8 * omega))
        assert t8 == pytest.approx(2 * t4, rel=1e-12)

    def test_phase_advance_is_pi(self):
        params = default_params()
        assert params.lam * qpg_gate_time(params) == pytest.approx(np.pi, rel=1e-12)

    def test_qpg_unitary_literal(self):
        expected = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert np.array_equal(i_qpg(), expected)

    def test_generator_realizes_qpg_on_logical_states(self):
        basis = PhysicalBasis(n_max=2)
        u = effective_collision(default_params().lam, basis.n_max)
        logical = [basis.index(a1, a2, 0) for a1, a2 in LOGICAL_LEVELS]
        assert equal_up_to_global_phase(u[np.ix_(logical, logical)], i_qpg(), tol=1e-10)
        # nothing persists on the exchange partner g1e2
        for k in logical:
            assert abs(u[basis.index(0, 2, 0), k]) < 1e-10

    def test_lifted_generator_matches_on_physical_space(self):
        # the package's sign diagonal is the phase gate, exactly, at
        # every photon number, and equals the reference evolution
        basis = PhysicalBasis(n_max=2)
        signs = phase_gate_signs(basis)
        for n in range(basis.n_fock):
            logical = [basis.index(a1, a2, n) for a1, a2 in LOGICAL_LEVELS]
            assert np.array_equal(np.diag(signs[logical]), i_qpg())
        u = effective_collision(default_params().lam, basis.n_max)
        assert np.max(np.abs(u - np.diag(signs))) <= 1e-12


class TestEffectiveCollisionOracle:
    @pytest.mark.parametrize("n_max", [1, 2, 5])
    @pytest.mark.parametrize("ratio", [1.0, 4.0, 7.3, 20.0, 1234.5, 1e8])
    def test_run_physical_collision_is_expm_of_generator(self, ratio, n_max):
        # run_physical's effective collision, against expm(-i H_eff pi/lam)
        # lifted to the full space: directly, and through a whole run
        # replayed with the reference unitary in place of each collision
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            params = CouplingParams.from_ratio(OMEGA_OVER_2PI, ratio)
            config = ExperimentConfig(
                delta_over_omega=ratio, target=1, epsilon=0.03, n_max=n_max,
                collision_model="effective", error_model="all_angles",
            )
            result = run_physical(config)
        basis = PhysicalBasis(n_max)
        u = effective_collision(params.lam, n_max)
        assert np.max(np.abs(u - np.diag(phase_gate_signs(basis)))) <= 1e-12
        amps = basis_state(basis, 0, 0, 0).amplitudes
        for step in compile_pulses(config.target, config.epsilon, config.error_model):
            amps = (u if step is None else pulse_unitary(step, basis)) @ amps
        want = atomic_marginal(PhysicalState(amps, basis)).ravel()
        got = np.array(list(result.populations.values()))
        assert np.max(np.abs(got - want)) <= 1e-12


class TestDispersiveConvergence:
    RATIOS = (4.0, 8.0, 12.0, 16.0, 20.0)

    def survival(self, a1, a2, ratio):
        params = CouplingParams.from_ratio(OMEGA_OVER_2PI, ratio)
        basis = PhysicalBasis(n_max=2)
        state = basis_state(basis, a1, a2, 0)
        out = evolve_collision(state, params, qpg_gate_time(params))
        return abs(out.amplitudes[basis.index(a1, a2, 0)]) ** 2

    @pytest.mark.parametrize("levels", [(1, 0), (1, 1)])
    def test_excited_states_converge_monotonically(self, levels):
        curve = [self.survival(*levels, ratio) for ratio in self.RATIOS]
        assert all(b > a for a, b in zip(curve, curve[1:]))
        assert curve[-1] > 0.99

    @pytest.mark.parametrize("levels", [(0, 0), (0, 1)])
    def test_dark_states_pinned_at_one(self, levels):
        for ratio in self.RATIOS:
            assert self.survival(*levels, ratio) == pytest.approx(1.0, abs=1e-12)


class TestAtomicMarginal:
    def test_single_basis_state(self):
        basis = PhysicalBasis(n_max=2)
        marginal = atomic_marginal(basis_state(basis, 1, 0, 1))
        assert marginal.shape == (2, 3)
        assert marginal[1, 0] == 1.0
        assert marginal.sum() == pytest.approx(1.0, abs=1e-15)

    def test_traces_out_photons(self):
        basis = PhysicalBasis(n_max=2)
        amps = np.zeros(basis.dim, dtype=complex)
        amps[basis.index(0, 0, 0)] = np.sqrt(0.5)
        amps[basis.index(0, 0, 2)] = np.sqrt(0.3)
        amps[basis.index(1, 1, 0)] = np.sqrt(0.2) * 1j
        marginal = atomic_marginal(PhysicalState(amps, basis))
        assert marginal[0, 0] == pytest.approx(0.8, abs=1e-12)
        assert marginal[1, 1] == pytest.approx(0.2, abs=1e-12)
