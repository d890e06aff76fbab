import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from effective_reference import equal_up_to_global_phase
from hypothesis import strategies as st

from cavity_grover.experiment import (
    ERROR_MODELS,
    TARGET_LABELS,
    ConfigError,
    ExperimentConfig,
    compile_pulses,
    feasibility_report,
    pulse_unitary,
    run_physical,
    sweep_detuning,
    sweep_error,
)
from cavity_grover.gates import hadamard, oracle_angles, p_gate, s_gate, y_rot, z_rot
from cavity_grover.cavity import PhysicalBasis

GATE_TIME = 1.6e-4  # s, pi/lam at the default working point

# Fidelity pins for the default working point, first computed with an
# independently written evolution script and matched by this package to
# 1e-13. They guard against silent drift in the sequence or the frames.
PIN_EXACT_IDEAL = 0.994743883635
PIN_EXACT_LEAKED = 1.15391253583e-03
PIN_EXACT_RABI_005 = 0.975580448597
PIN_EXACT_ALL_005 = 0.916583390807
PIN_RATIO2_IDEAL = 0.938799112621
PIN_RATIO2_ALL_005 = 0.831000529022
PIN_ERROR_CURVE = (0.994744, 0.993924, 0.991610, 0.987787, 0.982446, 0.975580)
PIN_DETUNING_CURVE = (0.994744, 0.999636, 0.999927, 0.999977, 0.999990)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.omega_over_2pi == 5.0e4
        assert config.delta_over_omega == 4.0
        assert config.target == 3
        assert config.epsilon == 0.0
        assert config.n_max == 2
        assert config.collision_model == "exact"
        assert config.error_model == "rabi_only"

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"omega_over_2pi": 0.0}, "omega_over_2pi"),
            ({"omega_over_2pi": -5.0e4}, "omega_over_2pi"),
            ({"delta_over_omega": 0.5}, "delta_over_omega"),
            ({"target": 4}, "target"),
            ({"target": -1}, "target"),
            ({"epsilon": 0.6}, "epsilon"),
            ({"epsilon": -0.6}, "epsilon"),
            ({"epsilon": float("nan")}, "epsilon"),
            ({"n_max": 0}, "n_max"),
            ({"collision_model": "dispersive"}, "collision_model"),
            ({"error_model": "detuning"}, "error_model"),
            ({"omega_over_2pi": float("inf")}, "omega_over_2pi"),
            ({"delta_over_omega": float("inf")}, "delta_over_omega"),
            ({"n_max": 101}, "n_max"),
        ],
    )
    def test_rejects_bad_field(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ExperimentConfig(**overrides)


#: Positions of the two collisions (None) in the compiled steps, and of
#: the Rabi (y_rot) and Stark (z_rot) pulses around them.
COLLISIONS = (4, 9)
RABI = (0, 2, 5, 7, 10, 11)
STARK = (1, 3, 6, 8)


def rabi_angle(u):
    return 2 * np.arctan2(u[1, 0], u[0, 0])


def stark_angle(u):
    return 2 * np.angle(u[1, 1])


class TestCompilePulses:
    def test_sequence_shape(self):
        steps = compile_pulses(3, 0.0, "rabi_only")
        assert len(steps) == 12
        assert [k for k, step in enumerate(steps) if step is None] == list(COLLISIONS)
        atoms = [step[0] for step in steps if step is not None]
        assert atoms == [1, 1, 2, 2, 1, 1, 2, 2, 1, 2]
        for k in RABI:
            u = steps[k][1]
            assert np.isrealobj(u)
            assert np.allclose(u, y_rot(rabi_angle(u)), rtol=0, atol=1e-15)
        for k in STARK:
            u = steps[k][1]
            assert u[0, 1] == u[1, 0] == 0
            assert np.isclose(u[0, 0], np.conj(u[1, 1]), rtol=0, atol=1e-15)

    def composed(self, steps, atom):
        u = np.eye(2, dtype=complex)
        for step in steps:
            if step is not None and step[0] == atom:
                u = step[1] @ u
        return u

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    @pytest.mark.parametrize("atom", [1, 2])
    def test_ideal_pulses_build_the_gates(self, target, atom):
        steps = compile_pulses(target, 0.0, "rabi_only")
        theta = oracle_angles(target)[atom - 1]
        first, second, third = steps[:4], steps[5:9], steps[10:]
        assert equal_up_to_global_phase(
            self.composed(first, atom), p_gate(theta), tol=1e-12
        )
        assert equal_up_to_global_phase(
            self.composed(second, atom), hadamard(), tol=1e-12
        )
        assert equal_up_to_global_phase(
            self.composed(third, atom), s_gate(), tol=1e-12
        )

    def test_rabi_angles_scale_with_epsilon(self):
        ideal = compile_pulses(3, 0.0, "rabi_only")
        skewed = compile_pulses(3, 0.05, "rabi_only")
        for k in RABI:
            want = y_rot(1.05 * rabi_angle(ideal[k][1]))
            assert np.allclose(skewed[k][1], want, rtol=0, atol=1e-15)

    def test_stark_angles_fixed_under_rabi_only(self):
        ideal = compile_pulses(3, 0.0, "rabi_only")
        skewed = compile_pulses(3, 0.05, "rabi_only")
        for k in STARK:
            assert np.array_equal(skewed[k][1], ideal[k][1])

    def test_stark_angles_scale_under_all_angles(self):
        ideal = compile_pulses(1, 0.0, "all_angles")
        skewed = compile_pulses(1, 0.05, "all_angles")
        for k in STARK:
            want = z_rot(1.05 * stark_angle(ideal[k][1]))
            assert np.allclose(skewed[k][1], want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("error_model", ["rabi_only", "all_angles"])
    def test_collisions_never_scaled(self, error_model):
        # collisions carry no duration: every one lasts pi/lam
        steps = compile_pulses(3, 0.05, error_model)
        assert [steps[k] for k in COLLISIONS] == [None, None]
        config = ExperimentConfig(epsilon=0.05, error_model=error_model)
        result = run_physical(config)
        assert (result.gate_time_s, result.total_time_s) == (GATE_TIME, 2 * GATE_TIME)


class TestPulseUnitaries:
    def test_atom2_pulse_spares_e(self):
        # atom 2's drive addresses g <-> i; its e level must ride along
        basis = PhysicalBasis(n_max=1)
        u = pulse_unitary((2, y_rot(np.pi / 2)), basis)
        for a1 in range(2):
            for n in range(2):
                k = basis.index(a1, 2, n)
                col = u[:, k]
                assert col[k] == 1.0
                assert np.count_nonzero(col) == 1

    def test_atom1_pulse_ignores_atom2_and_field(self):
        basis = PhysicalBasis(n_max=1)
        u = pulse_unitary((1, z_rot(0.9)), basis)
        expected = np.kron(z_rot(0.9), np.eye(6, dtype=complex))
        assert np.allclose(u, expected, atol=1e-15)


class TestRunPhysical:
    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_effective_model_is_lossless(self, target):
        config = ExperimentConfig(target=target, collision_model="effective")
        result = run_physical(config)
        assert result.fidelity == pytest.approx(1.0, abs=1e-9)
        assert result.leaked_photon_probability == pytest.approx(0.0, abs=1e-12)
        for label, p in result.populations.items():
            want = 1.0 if label == TARGET_LABELS[target] else 0.0
            assert p == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("target", [0, 1, 2, 3])
    def test_exact_model_finds_every_target(self, target):
        result = run_physical(ExperimentConfig(target=target))
        assert result.fidelity > 0.97
        best = max(result.populations, key=result.populations.get)
        assert best == TARGET_LABELS[target]

    def test_default_run_pins(self):
        result = run_physical(ExperimentConfig())
        assert result.fidelity == pytest.approx(PIN_EXACT_IDEAL, abs=1e-9)
        assert result.leaked_photon_probability == pytest.approx(
            PIN_EXACT_LEAKED, rel=1e-6
        )

    def test_rabi_error_pin(self):
        result = run_physical(ExperimentConfig(epsilon=0.05))
        assert result.fidelity == pytest.approx(PIN_EXACT_RABI_005, abs=1e-9)

    def test_all_angles_error_pin(self):
        result = run_physical(
            ExperimentConfig(epsilon=0.05, error_model="all_angles")
        )
        assert result.fidelity == pytest.approx(PIN_EXACT_ALL_005, abs=1e-9)

    def test_near_resonant_pins(self):
        # delta = 2 omega sits below the dispersive regime and warns;
        # the sequence still runs and lands near the textbook numbers
        with pytest.warns(UserWarning, match="below 4"):
            ideal = run_physical(ExperimentConfig(delta_over_omega=2.0))
        assert ideal.fidelity == pytest.approx(PIN_RATIO2_IDEAL, abs=1e-9)
        with pytest.warns(UserWarning, match="below 4"):
            skewed = run_physical(
                ExperimentConfig(
                    delta_over_omega=2.0, epsilon=0.05, error_model="all_angles"
                )
            )
        assert skewed.fidelity == pytest.approx(PIN_RATIO2_ALL_005, abs=1e-9)

    def test_populations_are_a_distribution(self):
        result = run_physical(ExperimentConfig(epsilon=0.03))
        assert set(result.populations) == {
            "g1g2", "g1i2", "g1e2", "e1g2", "e1i2", "e1e2",
        }
        assert all(p >= 0 for p in result.populations.values())
        assert sum(result.populations.values()) == pytest.approx(1.0, abs=1e-9)

    def test_timing(self):
        result = run_physical(ExperimentConfig())
        assert result.gate_time_s == GATE_TIME
        assert result.total_time_s == pytest.approx(3.2e-4, rel=1e-9)

    def test_deterministic(self):
        first = run_physical(ExperimentConfig(epsilon=0.02))
        second = run_physical(ExperimentConfig(epsilon=0.02))
        assert first.fidelity == second.fidelity
        assert first.populations == second.populations

    def test_only_the_ratio_matters(self):
        # scaling omega and delta together rescales H and t inversely,
        # leaving the collision unitary and the frame phases unchanged
        slow = run_physical(ExperimentConfig(omega_over_2pi=5.0e4))
        fast = run_physical(ExperimentConfig(omega_over_2pi=2.0e5))
        assert fast.fidelity == pytest.approx(slow.fidelity, abs=1e-9)

    def test_truncation_already_converged(self):
        shallow = run_physical(ExperimentConfig(n_max=2))
        deep = run_physical(ExperimentConfig(n_max=3))
        assert deep.fidelity == pytest.approx(shallow.fidelity, abs=1e-6)


class TestSweeps:
    EPSILONS = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)

    def test_error_sweep_order_and_pins(self):
        curve = sweep_error(ExperimentConfig(), self.EPSILONS)
        assert [eps for eps, _ in curve] == list(self.EPSILONS)
        for (_, fid), pin in zip(curve, PIN_ERROR_CURVE):
            assert fid == pytest.approx(pin, abs=1e-5)

    def test_error_sweep_monotone(self):
        curve = sweep_error(ExperimentConfig(), self.EPSILONS)
        fids = [fid for _, fid in curve]
        assert all(b <= a for a, b in zip(fids, fids[1:]))
        assert fids[-1] < fids[3] < fids[0]

    def test_error_sweep_matches_single_runs(self):
        from dataclasses import replace

        config = ExperimentConfig(error_model="all_angles")
        ((_, swept),) = sweep_error(config, [0.04])
        direct = run_physical(replace(config, epsilon=0.04)).fidelity
        assert swept == direct

    def test_detuning_sweep_pins_and_monotone(self):
        curve = sweep_detuning(ExperimentConfig(), (4.0, 8.0, 12.0, 16.0, 20.0))
        fids = [fid for _, fid in curve]
        for fid, pin in zip(fids, PIN_DETUNING_CURVE):
            assert fid == pytest.approx(pin, abs=1e-5)
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.99

    def test_detuning_sweep_pins_epsilon_and_model(self):
        # the convergence study is defined at ideal pulses under the
        # exact model, whatever the incoming config says
        config = ExperimentConfig(epsilon=0.05, collision_model="effective")
        ((_, fid),) = sweep_detuning(config, [4.0])
        assert fid == pytest.approx(PIN_EXACT_IDEAL, abs=1e-9)

    def test_empty_sweeps_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            sweep_error(ExperimentConfig(), [])
        with pytest.raises(ConfigError, match="at least one"):
            sweep_detuning(ExperimentConfig(), [])


@st.composite
def configs(draw, n_max=st.sampled_from([1, 2, 3, 5])):
    """Random configurations over both models, delta/omega from 1 to 100
    and |epsilon| <= 0.5."""
    return ExperimentConfig(
        omega_over_2pi=draw(st.floats(1e3, 1e6)),
        delta_over_omega=draw(st.floats(1.0, 100.0)),
        target=draw(st.sampled_from([0, 1, 2, 3])),
        epsilon=draw(st.floats(-0.5, 0.5)),
        n_max=draw(n_max),
        collision_model=draw(st.sampled_from(["exact", "effective"])),
        error_model=draw(st.sampled_from(ERROR_MODELS)),
    )


def quiet_run(config):
    """run_physical without the below-4 dispersive-ratio warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run_physical(config)


class TestRunInvariants:
    """What the per-step state checks used to guard, asserted on whole
    runs: the sequence is unitary, the Fock cutoff is converged, and a
    sweep is nothing but repeated runs."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(config=configs())
    def test_populations_sum_to_one(self, config):
        result = quiet_run(config)
        assert abs(sum(result.populations.values()) - 1.0) <= 1e-12

    @settings(max_examples=30, deadline=None, database=None)
    @given(config=configs(n_max=st.just(2)), n_max=st.sampled_from([3, 5, 8]))
    def test_fock_cutoff_two_is_converged(self, config, n_max):
        # only N <= 2 is reachable before the last collision
        shallow = quiet_run(config)
        deep = quiet_run(replace(config, n_max=n_max))
        for label, p in shallow.populations.items():
            assert abs(deep.populations[label] - p) <= 1e-9
        assert abs(deep.leaked_photon_probability - shallow.leaked_photon_probability) <= 1e-9

    @settings(max_examples=20, deadline=None, database=None)
    @given(config=configs(), epsilons=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4))
    def test_error_sweep_is_a_loop_of_runs(self, config, epsilons):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            curve = sweep_error(config, epsilons)
        direct = [quiet_run(replace(config, epsilon=eps)).fidelity for eps in epsilons]
        assert curve == list(zip(epsilons, direct))


class TestFeasibilityReport:
    def test_default_budget(self):
        report = feasibility_report(5.0e4)
        assert report.lambda_over_2pi_hz == pytest.approx(3125.0, rel=1e-12)
        assert report.gate_time_s == pytest.approx(1.6e-4, rel=1e-9)
        assert report.two_gate_time_s == pytest.approx(3.2e-4, rel=1e-9)
        assert report.total_time_s == report.two_gate_time_s
        assert report.velocity_m_per_s == pytest.approx(31.25, rel=1e-9)
        assert report.lifetime_ratio == pytest.approx(0.32, rel=1e-9)
        assert report.flag == "pass"

    def test_total_time_override(self):
        report = feasibility_report(5.0e4, total_time_override_s=2.5e-4)
        assert report.total_time_s == 2.5e-4
        assert report.velocity_m_per_s == pytest.approx(40.0, rel=1e-12)
        assert report.gate_time_s == pytest.approx(1.6e-4, rel=1e-9)
        assert report.flag == "pass"

    def test_note_carries_the_conflicting_budgets(self):
        note = feasibility_report(5.0e4).note
        assert "lambda*t = pi" in note
        assert "2.5e-04 s" in note
        assert "120 us" in note

    def test_warn_when_lifetime_is_tight(self):
        report = feasibility_report(5.0e4, photon_lifetime_s=6.0e-4)
        assert report.lifetime_ratio >= 0.5
        assert report.flag == "warn"

    def test_faster_coupling_shortens_gates(self):
        report = feasibility_report(1.0e5)
        assert report.lambda_over_2pi_hz == pytest.approx(6250.0, rel=1e-12)
        assert report.gate_time_s == pytest.approx(8.0e-5, rel=1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega_over_2pi": 0.0},
            {"omega_over_2pi": 5.0e4, "delta_over_omega": -4.0},
            {"omega_over_2pi": 5.0e4, "interaction_length_m": 0.0},
            {"omega_over_2pi": 5.0e4, "photon_lifetime_s": 0.0},
            {"omega_over_2pi": 5.0e4, "total_time_override_s": -1.0},
        ],
    )
    def test_rejects_nonpositive_inputs(self, kwargs):
        with pytest.raises(ConfigError, match="positive"):
            feasibility_report(**kwargs)
