import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from collisim import (
    DerivedRates,
    LindbladGenerator,
    ModelParams,
    QUTRIT_SPACE,
    density_operator,
    derive_rates,
    generator_effective_qubit,
    generator_qutrit_two_bath,
    integrate,
    rhs,
    steady_residual,
    steady_state_qubit,
    transition,
)
from collisim.lindblad import DT_MARGIN, generator_superoperator
from collisim.scenarios import me_substep_count


def rates_for(x_s=0.0, gamma=0.5):
    return DerivedRates(alpha=0.1, capital_gamma=gamma, x_s=x_s)


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


QUBIT_GROUND = density_operator(np.diag([1.0, 0.0]).astype(complex), (("S", 2),))


class TestGeneratorConstruction:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LindbladGenerator(np.zeros((2, 2)), ((transition(2, 0, 1), -0.1),))

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladGenerator(np.array([[0, 1], [0, 0]], dtype=complex), ())

    def test_rejects_mismatched_jump_operator(self):
        with pytest.raises(ValueError, match="shape"):
            LindbladGenerator(np.zeros((2, 2)), ((np.eye(3), 0.5),))


class TestEffectiveQubitGenerator:
    def test_symmetric_rates_at_zero_exponent(self):
        gen = generator_effective_qubit(rates_for(x_s=0.0, gamma=0.3))
        assert len(gen.dissipators) == 2
        assert gen.dissipators[0][1] == pytest.approx(0.3)
        assert gen.dissipators[1][1] == pytest.approx(0.3)
        assert np.all(gen.hamiltonian_part == 0)

    @pytest.mark.parametrize("x_s", [-2.0, -1.0, 0.4, 3.0])
    def test_detailed_balance_ratio(self, x_s):
        gen = generator_effective_qubit(rates_for(x_s=x_s))
        (lower_op, lower_rate), (raise_op, raise_rate) = gen.dissipators
        assert_allclose(lower_op, transition(2, 0, 1))
        assert_allclose(raise_op, transition(2, 1, 0))
        assert_allclose(lower_rate / raise_rate, math.exp(x_s), rtol=1e-12)

    def test_regime_b_rates(self):
        r = derive_rates(ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0))
        gen = generator_effective_qubit(r)
        for _, rate in gen.dissipators:
            assert_allclose(rate, 3.75e-4, rtol=1e-3)


class TestQutritTwoBathGenerator:
    def test_zero_detuning_reduces_to_two_bath(self):
        gen = generator_qutrit_two_bath(ModelParams(delta=0.0, x1=1.0, x2=1.0, tau=0.05))
        assert np.all(gen.hamiltonian_part == 0)
        assert len(gen.dissipators) == 4

    def test_dephasing_present_at_finite_detuning(self):
        p = ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05)
        gen = generator_qutrit_two_bath(p)
        assert len(gen.dissipators) == 5
        deph_op, deph_rate = gen.dissipators[0]
        assert_allclose(deph_op, transition(3, 2, 2))
        assert_allclose(deph_rate, 0.05 * 4.0, rtol=1e-14)
        assert_allclose(gen.hamiltonian_part, 2.0 * transition(3, 2, 2))

    def test_thermal_rates(self):
        p = ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05)
        gen = generator_qutrit_two_bath(p)
        gamma1 = 0.05 / (1 + math.e)
        gamma2 = 0.05 / (1 + math.e**2)
        rates = {tuple(np.argwhere(op)[0]): rate for op, rate in gen.dissipators[1:]}
        assert_allclose(rates[(0, 2)], gamma1 * math.e, rtol=1e-14)
        assert_allclose(rates[(2, 0)], gamma1, rtol=1e-14)
        assert_allclose(rates[(1, 2)], gamma2 * math.e**2, rtol=1e-14)
        assert_allclose(rates[(2, 1)], gamma2, rtol=1e-14)

    @pytest.mark.parametrize("x1,x2", [(-3.0, 2.0), (0.0, 0.0), (5.0, -5.0)])
    def test_rates_nonnegative(self, x1, x2):
        gen = generator_qutrit_two_bath(ModelParams(delta=1.0, x1=x1, x2=x2, tau=0.1))
        assert all(rate >= 0 for _, rate in gen.dissipators)


class TestRhsProperties:
    def test_trace_zero_on_random_states(self):
        rng = np.random.default_rng(31)
        gens = [
            generator_effective_qubit(rates_for(x_s=-1.0)),
            generator_qutrit_two_bath(ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05)),
        ]
        for gen in gens:
            for _ in range(100):
                rho = random_state(rng, gen.dim)
                assert abs(np.trace(rhs(gen, rho))) <= 1e-13

    def test_hermiticity_preserving(self):
        rng = np.random.default_rng(37)
        gens = [
            generator_effective_qubit(rates_for(x_s=0.7)),
            generator_qutrit_two_bath(ModelParams(delta=3.0, x1=0.5, x2=-0.5, tau=0.02)),
        ]
        for gen in gens:
            for _ in range(100):
                out = rhs(gen, random_hermitian(rng, gen.dim))
                assert np.max(np.abs(out - out.conj().T)) <= 1e-13

    def test_superoperator_matches_rhs(self):
        rng = np.random.default_rng(41)
        gen = generator_qutrit_two_bath(ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05))
        g = generator_superoperator(gen)
        rho = random_state(rng, 3)
        assert_allclose((g @ rho.reshape(9)).reshape(3, 3), rhs(gen, rho), atol=1e-14)

    def test_dim_mismatch(self):
        gen = generator_effective_qubit(rates_for())
        with pytest.raises(ValueError, match="dim"):
            rhs(gen, np.eye(3))


class TestIntegrate:
    def test_null_generator_is_constant(self):
        gen = LindbladGenerator(np.zeros((2, 2)), ())
        traj = integrate(gen, QUBIT_GROUND, 5.0, 0.5)
        assert np.all(traj.populations == traj.populations[0])

    def test_fixed_point_stays_fixed(self):
        x_s = -1.0
        gen = generator_effective_qubit(rates_for(x_s=x_s))
        rho0 = steady_state_qubit(x_s)
        traj = integrate(gen, rho0, 20.0, 0.05)
        dev = np.max(np.abs(traj.populations - traj.populations[0]))
        assert dev <= 1e-10

    def test_closed_form_relaxation(self):
        # x_s = 0: p1(t) = (1 - exp(-2 Gamma t)) / 2
        gamma = 0.5
        gen = generator_effective_qubit(rates_for(x_s=0.0, gamma=gamma))
        traj = integrate(gen, QUBIT_GROUND, 4.0, 0.05)
        exact = 0.5 * (1.0 - np.exp(-2.0 * gamma * traj.times))
        assert np.max(np.abs(traj.populations[:, 1] - exact)) <= 1e-7

    def test_fourth_order_convergence(self):
        gamma = 0.5
        gen = generator_effective_qubit(rates_for(x_s=0.0, gamma=gamma))

        def global_error(dt):
            traj = integrate(gen, QUBIT_GROUND, 4.0, dt)
            exact = 0.5 * (1.0 - np.exp(-2.0 * gamma * traj.times))
            return np.max(np.abs(traj.populations[:, 1] - exact))

        ratio = global_error(0.05) / global_error(0.025)
        assert 13.0 <= ratio <= 19.0

    def test_stability_guard(self):
        gen = generator_effective_qubit(rates_for(x_s=0.0, gamma=10.0))
        with pytest.raises(ValueError, match="stability guard"):
            integrate(gen, QUBIT_GROUND, 5.0, 0.5)

    def test_dt_bounds(self):
        gen = generator_effective_qubit(rates_for())
        with pytest.raises(ValueError, match="dt"):
            integrate(gen, QUBIT_GROUND, 1.0, 2.0)
        with pytest.raises(ValueError, match="dt"):
            integrate(gen, QUBIT_GROUND, 1.0, 0.0)

    def test_me_substep_count_satisfies_guard(self):
        for tau, gen in itertools.product((0.05, 1.0, 60.0), (
            generator_effective_qubit(rates_for(x_s=2.0, gamma=3.0)),
            generator_qutrit_two_bath(ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05)),
        )):
            dt = tau / me_substep_count(tau, gen)
            assert dt * gen.rate_scale <= DT_MARGIN
            integrate(gen, density_operator(np.eye(gen.dim, dtype=complex) / gen.dim,
                                            QUTRIT_SPACE if gen.dim == 3 else (("S", 2),)),
                      tau, dt, snapshot_stride=0)

    def test_qubit_populations_zero_padded(self):
        gen = generator_effective_qubit(rates_for())
        traj = integrate(gen, QUBIT_GROUND, 2.0, 0.1)
        assert traj.populations.shape[1] == 3
        assert np.all(traj.populations[:, 2] == 0.0)


class TestSteadyResidual:
    def test_analytic_steady_state(self):
        for x_s in (-1.0, 0.0, 2.0):
            gen = generator_effective_qubit(rates_for(x_s=x_s, gamma=0.25))
            assert steady_residual(gen, steady_state_qubit(x_s)) <= 1e-14

    def test_detailed_balance_of_steady_state(self):
        x_s = -1.0
        pops = steady_state_qubit(x_s).populations
        assert_allclose(pops[1] / pops[0], math.exp(-x_s), rtol=1e-12)

    def test_mixed_state_not_stationary_generically(self):
        gen = generator_qutrit_two_bath(ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05))
        mixed = density_operator(np.eye(3, dtype=complex) / 3, QUTRIT_SPACE)
        assert steady_residual(gen, mixed) > 1e-4

    def test_two_bath_analytic_steady_state(self):
        # delta = 0, x1 = x2 = x: balance gives p0 = p1 and p2 = e^-x p0.
        x = 1.0
        gen = generator_qutrit_two_bath(ModelParams(delta=0.0, x1=x, x2=x, tau=0.05))
        p0 = 1.0 / (2.0 + math.exp(-x))
        analytic = np.diag([p0, p0, math.exp(-x) * p0]).astype(complex)
        assert steady_residual(gen, analytic) <= 1e-12

    def test_dim_mismatch(self):
        gen = generator_effective_qubit(rates_for())
        with pytest.raises(ValueError, match="dim"):
            steady_residual(gen, np.eye(3) / 3)
