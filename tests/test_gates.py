import numpy as np
import pytest

from effective_reference import equal_up_to_global_phase

from cavity_grover.gates import (
    ORACLE_ANGLES,
    grover_sequence,
    hadamard,
    i_qpg,
    oracle_angles,
    p_gate,
    run_ideal,
    s_gate,
    x_rot,
    y_rot,
    z_rot,
)
from cavity_grover.linalg import apply, is_unitary, tensor

THETA_GRID = np.linspace(-2 * np.pi, 2 * np.pi, 64)


def basis4(k):
    v = np.zeros(4, dtype=complex)
    v[k] = 1.0
    return v


class TestSingleQubitGates:
    def test_hadamard_matrix(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(hadamard(), expected, atol=1e-15)

    def test_hadamard_columns(self):
        h = hadamard()
        assert np.allclose(h @ [1, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-12)
        assert np.allclose(h @ [0, 1], np.array([1, -1]) / np.sqrt(2), atol=1e-12)

    def test_hadamard_involution(self):
        assert np.allclose(hadamard() @ hadamard(), np.eye(2), atol=1e-12)

    def test_x_rot_zero(self):
        assert np.allclose(x_rot(0), np.eye(2), atol=1e-15)

    def test_x_rot_pi_on_zero(self):
        assert np.allclose(x_rot(np.pi) @ [1, 0], [0, 1j], atol=1e-12)

    def test_y_rot_is_a_real_rotation(self):
        theta = 0.73
        expected = np.array(
            [
                [np.cos(theta / 2), -np.sin(theta / 2)],
                [np.sin(theta / 2), np.cos(theta / 2)],
            ],
            dtype=complex,
        )
        assert np.allclose(y_rot(theta), expected, atol=1e-15)

    def test_y_rot_is_unitary(self):
        u = y_rot(0.4)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_z_rot_zero(self):
        assert np.allclose(z_rot(0), np.eye(2), atol=1e-15)

    def test_z_rot_pi(self):
        assert np.allclose(z_rot(np.pi), np.diag([-1j, 1j]), atol=1e-15)

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_hadamard_turns_x_into_z(self, theta):
        h = hadamard()
        assert np.allclose(z_rot(theta), h @ x_rot(-theta) @ h, atol=1e-12)
        assert np.allclose(z_rot(-theta), h @ x_rot(theta) @ h, atol=1e-12)

    def test_s_gate_matrix(self):
        expected = np.array([[-1j, 1j], [-1j, -1j]]) / np.sqrt(2)
        assert np.allclose(s_gate(), expected, atol=1e-15)

    def test_s_gate_is_x_rot_after_hadamard(self):
        assert np.allclose(s_gate(), x_rot(-np.pi) @ hadamard(), atol=1e-12)

    def test_s_gate_is_phased_y_rotation(self):
        alpha = np.pi / 2
        r_y = np.array(
            [[np.cos(alpha / 2), -np.sin(alpha / 2)], [np.sin(alpha / 2), np.cos(alpha / 2)]]
        )
        assert np.allclose(s_gate(), np.exp(-0.5j * np.pi) * r_y, atol=1e-12)

    def test_p_gate_at_zero_is_hadamard(self):
        assert np.allclose(p_gate(0), hadamard(), atol=1e-15)

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_p_gate_factorizations(self, theta):
        assert np.allclose(p_gate(theta), hadamard() @ x_rot(-theta), atol=1e-12)
        assert np.allclose(p_gate(theta), z_rot(theta) @ hadamard(), atol=1e-12)


class TestPhaseGate:
    def test_matrix(self):
        assert np.array_equal(i_qpg(), np.diag([1, 1, 1, -1]).astype(complex))

    def test_flips_11_only(self):
        q = i_qpg()
        assert np.array_equal(q @ basis4(3), -basis4(3))
        assert np.array_equal(q @ basis4(0), basis4(0))

    def test_involution(self):
        assert np.array_equal(i_qpg() @ i_qpg(), np.eye(4))

    @pytest.mark.parametrize("theta1,theta2", [(0.7, -1.3), (np.pi, np.pi), (0.0, np.pi)])
    def test_z_pair_product_matrix(self, theta1, theta2):
        # the combined phase operation is diagonal with phases
        # -(t1+t2)/2, -(t1-t2)/2, +(t1-t2)/2 and pi+(t1+t2)/2
        product = tensor(z_rot(theta1), z_rot(theta2)) @ i_qpg()
        expected = np.diag(
            [
                np.exp(-0.5j * (theta1 + theta2)),
                np.exp(-0.5j * (theta1 - theta2)),
                np.exp(0.5j * (theta1 - theta2)),
                -np.exp(0.5j * (theta1 + theta2)),
            ]
        )
        assert np.allclose(product, expected, atol=1e-12)

    def test_z_pair_commutes_with_phase_gate(self):
        zz = tensor(z_rot(0.9), z_rot(-2.1))
        q = i_qpg()
        assert np.array_equal(zz @ q, q @ zz)


class TestOracle:
    def test_angle_table(self):
        assert ORACLE_ANGLES == {
            0: (np.pi, np.pi),
            1: (0.0, np.pi),
            2: (np.pi, 0.0),
            3: (0.0, 0.0),
        }
        assert oracle_angles(0) == (np.pi, np.pi)
        assert oracle_angles(3) == (0.0, 0.0)

    def test_invalid_target(self):
        with pytest.raises(ValueError, match="target"):
            oracle_angles(4)

    def test_target_zero_reflection_matrix(self):
        theta1, theta2 = oracle_angles(0)
        product = tensor(z_rot(theta1), z_rot(theta2)) @ i_qpg()
        assert np.allclose(product, np.diag([-1, 1, 1, 1]), atol=1e-12)

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_marks_target_with_reflection(self, target):
        theta1, theta2 = oracle_angles(target)
        product = tensor(z_rot(theta1), z_rot(theta2)) @ i_qpg()
        reflection = np.eye(4, dtype=complex)
        reflection[target, target] = -1.0
        assert equal_up_to_global_phase(product, reflection, tol=1e-10)


class TestSequence:
    def test_five_steps_in_order(self):
        steps = grover_sequence(1)
        assert [name for name, _ in steps] == ["P", "QPG", "H", "QPG", "S"]

    def test_first_step_for_target_three_is_hadamard_pair(self):
        _, matrix = grover_sequence(3)[0]
        assert np.allclose(matrix, tensor(hadamard(), hadamard()), atol=1e-15)

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_composition_is_unitary_and_maps_00_to_target(self, target):
        u = np.eye(4, dtype=complex)
        for _, matrix in grover_sequence(target):
            u = matrix @ u
        assert is_unitary(u)
        assert abs(abs(u[target, 0]) ** 2 - 1) < 1e-10

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_run_ideal_probability_one(self, target):
        probs = np.abs(run_ideal(target)) ** 2
        assert abs(probs[target] - 1) < 1e-10
        assert int(np.argmax(probs)) == target

    def test_state_after_oracle_for_target_three(self):
        # P then QPG leaves the equal superposition with the marked
        # item's sign flipped
        steps = grover_sequence(3)
        state = basis4(0)
        for _, matrix in steps[:2]:
            state = apply(matrix, state)
        assert np.allclose(state, np.array([1, 1, 1, -1]) / 2, atol=1e-12)

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_matches_reflection_built_search(self, target):
        # independent construction: prepare the equal superposition,
        # reflect about |target>, then invert about the mean
        h2 = tensor(hadamard(), hadamard())
        oracle = np.eye(4, dtype=complex)
        oracle[target, target] = -1.0
        about_zero = np.eye(4, dtype=complex)
        about_zero[0, 0] = -1.0
        expected = h2 @ about_zero @ h2 @ oracle @ h2 @ basis4(0)
        assert np.allclose(np.abs(expected) ** 2, np.abs(run_ideal(target)) ** 2, atol=1e-10)

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_iteration_on_equal_superposition(self, target):
        # one full iteration (gate-built oracle, then inversion about
        # the mean) lands the equal superposition exactly on the target
        theta1, theta2 = oracle_angles(target)
        oracle = tensor(z_rot(theta1), z_rot(theta2)) @ i_qpg()
        h2 = tensor(hadamard(), hadamard())
        about_zero = np.diag([-1.0, 1, 1, 1]).astype(complex)
        iteration = h2 @ about_zero @ h2 @ oracle
        assert is_unitary(iteration)
        out = iteration @ np.full(4, 0.5, dtype=complex)
        assert abs(out[target]) == pytest.approx(1.0, abs=1e-10)
