import numpy as np
import pytest
from effective_reference import equal_up_to_global_phase

from cavity_grover.linalg import (
    NumericalError,
    apply,
    embed,
    is_unitary,
    propagator,
    tensor,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_hermitian(dim, seed):
    rs = np.random.RandomState(seed)
    m = rs.randn(dim, dim) + 1j * rs.randn(dim, dim)
    return m + m.conj().T


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_case(self):
        out = tensor(np.diag([1.0, -1.0]), np.eye(2))
        assert np.array_equal(out, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_hadamard_pair_builds_equal_superposition(self):
        state = apply(tensor(H, H), np.array([1, 0, 0, 0], dtype=complex))
        assert np.allclose(state, np.full(4, 0.5), atol=1e-12)

    def test_associativity(self):
        # associative up to the last bit of each complex multiplication;
        # (a*b)*c and a*(b*c) differ by ~1e-16 in floats
        z = np.diag([np.exp(-0.5j * 0.7), np.exp(0.5j * 0.7)])
        x = np.array([[np.cos(0.65), 1j * np.sin(0.65)], [1j * np.sin(0.65), np.cos(0.65)]])
        left = tensor(tensor(H, z), x)
        right = tensor(H, tensor(z, x))
        assert np.max(np.abs(left - right)) <= 1e-15


class TestPropagator:
    def test_zero_hamiltonian_gives_identity(self):
        assert np.allclose(propagator(np.zeros((3, 3)), 2.5), np.eye(3), atol=1e-14)

    def test_diagonal_level_picks_up_minus_one(self):
        lam = 1.3e4
        u = propagator(np.diag([lam, 0.0]).astype(complex), np.pi / lam)
        assert np.allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)

    def test_exchange_block_returns_to_identity(self):
        # eigenvalues 0 and 2*lam, so t = pi/lam advances the bright
        # state by exactly 2*pi
        lam = 2.0e4
        h = lam * np.array([[1, 1], [1, 1]], dtype=complex)
        assert np.allclose(propagator(h, np.pi / lam), np.eye(2), atol=1e-10)

    def test_composition_over_time(self):
        h = random_hermitian(6, seed=3)
        u = propagator(h, 0.4) @ propagator(h, 1.1)
        assert np.allclose(u, propagator(h, 1.5), atol=1e-9)

    def test_output_is_unitary(self):
        assert is_unitary(propagator(random_hermitian(8, seed=5), 0.7))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            propagator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="t >= 0"):
            propagator(np.eye(2, dtype=complex), -1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            propagator(np.zeros((2, 3)), 1.0)

    def test_nonfinite_entries_are_a_numerical_error(self):
        h = np.diag([np.inf, 0.0]).astype(complex)
        with pytest.raises(NumericalError, match="finite"):
            propagator(h, 1.0)

    def test_overflowing_phase_is_a_numerical_error(self):
        # finite entries and duration whose product w*t overflows: refused
        # before exp, so numpy warns about nothing
        h = np.diag([1e300, 0.0]).astype(complex)
        with np.errstate(all="raise"), pytest.raises(NumericalError, match="overflow"):
            propagator(h, 1e10)


class TestApply:
    def test_identity(self):
        s = np.array([0.6, 0.8j])
        assert np.array_equal(apply(np.eye(2), s), s)

    def test_hadamard_on_zero(self):
        out = apply(H, np.array([1, 0], dtype=complex))
        assert np.allclose(out, np.array([1, 1]) / np.sqrt(2), atol=1e-12)

    def test_unitary_roundtrip(self):
        u = propagator(random_hermitian(5, seed=11), 0.9)
        s = np.zeros(5, dtype=complex)
        s[2] = 1.0
        assert np.allclose(apply(u, apply(u.conj().T, s)), s, atol=1e-10)

    def test_norm_preserved(self):
        u = propagator(random_hermitian(7, seed=13), 1.7)
        rs = np.random.RandomState(0)
        s = rs.randn(7) + 1j * rs.randn(7)
        s /= np.linalg.norm(s)
        assert abs(np.linalg.norm(apply(u, s)) - 1) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply(np.eye(3), np.zeros(2))


class TestEmbed:
    def test_identity_subsystem(self):
        assert np.array_equal(embed(np.eye(2), [2, 2], 0), np.eye(4))

    def test_z_on_second_qubit_phases_01(self):
        z_pi = np.diag([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)])
        state01 = np.array([0, 1, 0, 0], dtype=complex)
        out = apply(embed(z_pi, [2, 2], 1), state01)
        assert np.allclose(out, np.exp(0.5j * np.pi) * state01, atol=1e-12)

    def test_shape_in_three_factor_space(self):
        assert embed(H, [2, 3, 2], 0).shape == (12, 12)

    def test_middle_factor_placement(self):
        u = np.diag([1.0, -1.0, 1j]).astype(complex)
        out = embed(u, [2, 3, 2], 1)
        expected = np.kron(np.eye(2), np.kron(u, np.eye(2)))
        assert np.array_equal(out, expected)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            embed(np.eye(2), [2, 2], 2)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="subsystem dim"):
            embed(np.eye(3), [2, 2], 0)


class TestEqualUpToGlobalPhase:
    def test_phase_rotated_copy(self):
        s = np.array([0.5, 0.5j, -0.5, 0.5])
        assert equal_up_to_global_phase(np.exp(1j * 1.2) * s, s)

    def test_distinct_states(self):
        assert not equal_up_to_global_phase(np.array([1.0, 0]), np.array([0, 1.0]))

    def test_modulus_mismatch_rejected(self):
        s = np.array([1.0, 0.0])
        assert not equal_up_to_global_phase(0.5 * s, s)

    def test_relative_phase_rejected(self):
        a = np.array([1, 1]) / np.sqrt(2)
        b = np.array([1, -1]) / np.sqrt(2)
        assert not equal_up_to_global_phase(a, b)

    def test_both_zero(self):
        assert equal_up_to_global_phase(np.zeros(3), np.zeros(3))

    def test_zero_against_nonzero(self):
        assert not equal_up_to_global_phase(np.zeros(2), np.array([1.0, 0.0]))

    def test_matrices(self):
        m = np.array([[1, 1j], [0, 1]], dtype=complex)
        assert equal_up_to_global_phase(-1j * m, m)
