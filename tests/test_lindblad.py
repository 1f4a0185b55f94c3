import itertools
import math
import re

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from collisim import (
    DerivedRates,
    InvariantViolation,
    LindbladGenerator,
    ModelParams,
    NumericError,
    QUTRIT_SPACE,
    ScenarioConfig,
    density_operator,
    derive_rates,
    generator_effective_qubit,
    generator_qutrit_two_bath,
    integrate,
    steady_residual,
    thermal_qubit,
    transition,
)
from collisim import lindblad, scenarios
from collisim.lindblad import MAX_SQUARINGS, exp_step_map, generator_superoperator


def rates_for(x_s=0.0, gamma=0.5):
    """Effective-qubit rates: raising at ``gamma``, lowering at ``gamma e^x_s``."""
    return DerivedRates(alpha=0.1, capital_gamma=gamma, lowering_rate=gamma * math.exp(x_s),
                        x_s=x_s)


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def reference_rhs(gen, rho):
    """The GKSL right-hand side ``-i[H, rho] + sum_k r_k (L rho L+ - {L+L, rho} / 2)``,
    written out: an oracle independent of `generator_superoperator`."""
    h = gen.hamiltonian_part
    out = -1j * (h @ rho - rho @ h)
    for op, rate in gen.dissipators:
        opd = op.conj().T
        out = out + rate * (op @ rho @ opd - 0.5 * (opd @ op @ rho + rho @ opd @ op))
    return out


def apply_generator(gen, rho):
    """``generator_superoperator(gen)`` applied to ``rho``, as a matrix."""
    return (generator_superoperator(gen) @ rho.reshape(gen.dim**2)).reshape(gen.dim, gen.dim)


QUBIT_GROUND = density_operator(np.diag([1.0, 0.0]).astype(complex), (("S", 2),))


class TestGeneratorConstruction:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LindbladGenerator(np.zeros((2, 2)), ((transition(2, 0, 1), -0.1),))

    def test_rejects_nan_rate(self):
        # rate < 0 is False for NaN: the generator was built and the run failed at step 1
        with pytest.raises(ValueError, match="^dissipator rate must be nonnegative, got nan$"):
            LindbladGenerator(np.zeros((2, 2)), ((transition(2, 0, 1), math.nan),))

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match=r"^generator is not Hermitian \(max deviation "
                                             r"1\.000e\+00 > 1e-12\)$"):
            LindbladGenerator(np.array([[0, 1], [0, 0]], dtype=complex), ())
        # HAMILTONIAN_HERMITICITY_TOL, not require_hermitian's default 1e-10
        with pytest.raises(ValueError, match=r"max deviation 1\.000e-11 > 1e-12"):
            LindbladGenerator(np.array([[0, 1e-11], [0, 0]], dtype=complex), ())
        LindbladGenerator(np.array([[0, 1e-12], [0, 0]], dtype=complex), ())

    def test_leaves_the_callers_arrays_writable(self):
        h = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
        op = transition(2, 0, 1)
        gen = LindbladGenerator(h, ((op, 0.3),))
        h[0, 0], op[0, 1] = 7.0, 2.0  # raised ValueError while the arrays were shared
        assert gen.hamiltonian_part[0, 0] == 1.0 and gen.dissipators[0][0][0, 1] == 1.0
        assert not gen.hamiltonian_part.flags.writeable
        assert not gen.dissipators[0][0].flags.writeable

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
        gen = generator_effective_qubit(derive_rates(ModelParams(delta=200.0, x1=x_s / 2,
                                                                 x2=-x_s / 2, tau=60.0)))
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

    def test_dephasing_rate_past_the_float_range_fails_in_integrate(self):
        # delta^2 raised a bare OverflowError, "(34, 'Numerical result out of range')";
        # the rate is now inf, and the step map's range check names it
        gen = generator_qutrit_two_bath(ModelParams(delta=1e200, x1=1.0, x2=2.0, tau=1e10))
        assert gen.dissipators[0][1] == math.inf
        with pytest.raises(NumericError, match=r"^master-equation step map exp\(G dt\): "
                                               r"\|G dt\|_1 = nan is not finite"):
            integrate(gen, np.diag([1.0, 0.0, 0.0]), 2e10, 1e10)


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
                assert abs(np.trace(apply_generator(gen, rho))) <= 1e-13

    def test_hermiticity_preserving(self):
        rng = np.random.default_rng(37)
        gens = [
            generator_effective_qubit(rates_for(x_s=0.7)),
            generator_qutrit_two_bath(ModelParams(delta=3.0, x1=0.5, x2=-0.5, tau=0.02)),
        ]
        for gen in gens:
            for _ in range(100):
                out = apply_generator(gen, random_hermitian(rng, gen.dim))
                assert np.max(np.abs(out - out.conj().T)) <= 1e-13

    def test_superoperator_matches_rhs(self):
        rng = np.random.default_rng(41)
        gen = generator_qutrit_two_bath(ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05))
        g = generator_superoperator(gen)
        rho = random_state(rng, 3)
        assert_allclose((g @ rho.reshape(9)).reshape(3, 3), reference_rhs(gen, rho), atol=1e-14)

    def test_dim_mismatch(self):
        gen = generator_effective_qubit(rates_for())
        with pytest.raises(ValueError, match=r"^state shape \(3, 3\) != generator dim 2$"):
            steady_residual(gen, np.eye(3))

    def test_a_rate_past_the_float_range_gives_a_nan_residual(self):
        # delta = 1e-200 makes Gamma inf in a negative-temperature run; its residual check fails
        gen = generator_effective_qubit(rates_for(gamma=math.inf))
        assert math.isnan(steady_residual(gen, np.diag([0.5, 0.5])))


class TestIntegrate:
    def test_null_generator_is_constant(self):
        gen = LindbladGenerator(np.zeros((2, 2)), ())
        traj = integrate(gen, QUBIT_GROUND, 5.0, 0.5)
        assert np.all(traj.populations == traj.populations[0])

    def test_fixed_point_stays_fixed(self):
        x_s = -1.0
        gen = generator_effective_qubit(rates_for(x_s=x_s))
        rho0 = thermal_qubit(x_s)
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

    def test_one_step_spans_the_relaxation(self):
        # the step map is exp(G dt), not a truncation of it: one step of the whole span is exact
        gamma = 0.5
        gen = generator_effective_qubit(rates_for(x_s=0.0, gamma=gamma))
        traj = integrate(gen, QUBIT_GROUND, 4.0, 4.0)
        assert traj.times.tolist() == [0.0, 4.0]
        assert abs(traj.populations[1, 1] - 0.5 * (1.0 - math.exp(-4.0))) <= 1e-16

    def test_an_infinite_rate_is_numeric_error(self):
        # Gamma = inf makes inf * 0 entries in G: NaN with no RuntimeWarning
        gen = generator_effective_qubit(rates_for(gamma=math.inf))
        with pytest.raises(NumericError, match=r"^master-equation step map exp\(G dt\): "
                                               r"\|G dt\|_1 = nan is not finite"):
            integrate(gen, QUBIT_GROUND, 1.0, 0.5)

    def test_dt_bounds(self):
        gen = generator_effective_qubit(rates_for())
        with pytest.raises(ValueError, match="dt"):
            integrate(gen, QUBIT_GROUND, 1.0, 2.0)
        with pytest.raises(ValueError, match="dt"):
            integrate(gen, QUBIT_GROUND, 1.0, 0.0)

    @pytest.mark.parametrize("t_end, dt", [(math.nan, 0.1), (1.0, math.nan), (math.inf, 0.1)])
    def test_rejects_nan_or_infinite_times(self, t_end, dt):
        # these ended in numpy's NaN-to-integer error or an OverflowError
        gen = generator_effective_qubit(rates_for())
        with pytest.raises(ValueError, match=r"^need 0 < dt <= t_end < inf, got dt=\S+, t_end=\S+$"):
            integrate(gen, QUBIT_GROUND, t_end, dt)

    @pytest.fixture
    def asked_steps(self, monkeypatch):
        """The step count each `propagate` call is asked for; the call then
        raises `StopIteration`, so no step is taken."""
        asked = []

        def record(step, mat, n, *args, **kwargs):
            asked.append(n)
            raise StopIteration

        monkeypatch.setattr(lindblad, "propagate", record)
        return asked

    @pytest.mark.parametrize("t_end, dt, steps", [
        (1.0, 0.3, 4),
        (60 * 0.3, 0.3, 60),
        (1000.0000005, 1.0, 1000),  # a relative 5e-10 over a whole count
        (1000.000002, 1.0, 1001),  # a relative 2e-9 over: one more step
        # t_end / dt = 31857799 + 3.7e-9: an absolute 1e-9 slack asked for one step too many
        (31857799 * 0.05, 0.05, 31857799),
    ])
    def test_step_count(self, asked_steps, t_end, dt, steps):
        with pytest.raises(StopIteration):
            integrate(LindbladGenerator(np.zeros((2, 2)), ()), QUBIT_GROUND, t_end, dt)
        assert asked_steps == [steps]

    def test_step_count_of_a_long_master_equation_run(self, asked_steps, monkeypatch):
        # the master equation takes one step per collision; the collision run is skipped
        cfg = ScenarioConfig("collision-vs-me", delta=200.0, x1=0.0, x2=0.0, tau=0.05,
                             n_steps=31857799)
        monkeypatch.setattr(scenarios, "run_collisions", lambda *args, **kwargs: None)
        with pytest.raises(StopIteration):
            scenarios.run_collision_vs_me(cfg)
        assert asked_steps == [cfg.n_steps]

    def test_qubit_populations_zero_padded(self):
        gen = generator_effective_qubit(rates_for())
        traj = integrate(gen, QUBIT_GROUND, 2.0, 0.1)
        assert traj.populations.shape[1] == 3
        assert np.all(traj.populations[:, 2] == 0.0)

    @pytest.mark.parametrize("rho0, error, message", [
        (np.diag([0.6, 0.6]), InvariantViolation, r"^trace 1.200000000000 != 1 at start state 0$"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), InvariantViolation,
         r"^Hermiticity defect 5.000e-01 at start state 0$"),
        (np.eye(3) / 3, ValueError,
         r"^matrix shape \(3, 3\) does not match space \(\('S', 2\),\) \(total dim 2\)$"),
    ], ids=["trace", "non_hermitian", "wrong_dim"])
    def test_checks_the_start_state_before_any_step(self, monkeypatch, rho0, error, message):
        def no_step(*args, **kwargs):
            raise AssertionError("an unchecked start state reached the stepping engine")

        monkeypatch.setattr(lindblad, "propagate", no_step)
        gen = generator_effective_qubit(rates_for())
        with pytest.raises(error, match=message):
            integrate(gen, rho0, 1.0, 0.05)


def mp_expm(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` from mpmath at 40 digits: the reference for `exp_step_map`."""
    with mp.workdps(40):
        return np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=complex)


# The generators the workloads run, in the regimes their configs draw from
WORKLOAD_GENERATORS = [
    *(pytest.param(generator_effective_qubit(derive_rates(p)), p.tau,
                   id=f"qubit-delta{p.delta:g}-tau{p.tau:g}-x{p.x1:g}")
      for delta, tau, (x1, x2) in itertools.product((150.0, 200.0, 250.0), (0.5, 5.0, 80.0),
                                                     ((1e-4, 1e-4), (2.0, -1.0)))
      for p in [ModelParams(delta=delta, x1=x1, x2=x2, tau=tau)]),
    *(pytest.param(generator_qutrit_two_bath(p), p.tau,
                   id=f"two-bath-delta{p.delta:g}-tau{p.tau:g}-x{p.x1:g}")
      for delta, tau, (x1, x2) in itertools.product((0.5, 2.0, 4.0), (0.01, 0.05, 0.1),
                                                     ((1.0, 2.0), (0.5, -0.5)))
      for p in [ModelParams(delta=delta, x1=x1, x2=x2, tau=tau)]),
]


class TestExpStepMap:
    @pytest.mark.parametrize("gen, tau", WORKLOAD_GENERATORS)
    def test_matches_the_exponential_in_the_workload_regimes(self, gen, tau):
        g = generator_superoperator(gen)
        assert np.max(np.abs(exp_step_map(g, tau) - mp_expm(g * tau))) <= 2.3e-16

    @pytest.mark.parametrize("delta, tau, squarings, bound", [
        (250.0, 80.0, 28, 2e-13),  # the stiff corner its docstring states: 1.1e-13
        (1000.0, 80.0, MAX_SQUARINGS, 5e-13),  # the range's end
    ])
    def test_stiff_two_bath_generators(self, delta, tau, squarings, bound):
        # dephasing at rate tau delta^2 next to slow population transfer
        g = generator_superoperator(generator_qutrit_two_bath(
            ModelParams(delta=delta, x1=1.0, x2=2.0, tau=tau)))
        assert math.frexp(np.max(np.sum(np.abs(g * tau), axis=0)))[1] == squarings
        assert np.max(np.abs(exp_step_map(g, tau) - mp_expm(g * tau))) <= bound

    def test_range_edge(self):
        # |g dt|_1 just below 2^MAX_SQUARINGS takes MAX_SQUARINGS squarings; 2^MAX_SQUARINGS raises
        g = generator_superoperator(generator_effective_qubit(rates_for(x_s=-1.0)))
        edge = 2.0**MAX_SQUARINGS / np.max(np.sum(np.abs(g), axis=0))
        dt = edge * (1 - 1e-15)
        assert math.frexp(np.max(np.sum(np.abs(g * dt), axis=0)))[1] == MAX_SQUARINGS
        assert np.max(np.abs(exp_step_map(g, dt) - mp_expm(g * dt))) <= 2.3e-16
        with pytest.raises(NumericError, match=rf"\|G dt\|_1 = 4\.295e\+09 is not finite or not "
                                               rf"below 2\^{MAX_SQUARINGS}, "):
            exp_step_map(g, edge)

    @pytest.mark.parametrize("gamma, dt, norm", [
        (0.5, math.inf, "nan"), (0.5, math.nan, "nan"), (0.5, 1e300, "1.000e+300"),
        (1e10, 1e300, "inf"),
    ])
    def test_a_norm_past_the_range_is_numeric_error(self, gamma, dt, norm):
        # pyproject.toml makes a RuntimeWarning an error, so none escapes here
        g = generator_superoperator(generator_effective_qubit(rates_for(gamma=gamma)))
        with pytest.raises(NumericError, match=rf"^master-equation step map exp\(G dt\): \|G dt\|_1 = "
                                               rf"{re.escape(norm)} is not finite or not below 2\^"):
            exp_step_map(g, dt)


class TestSteadyResidual:
    def test_analytic_steady_state(self):
        for x_s in (-1.0, 0.0, 2.0):
            gen = generator_effective_qubit(rates_for(x_s=x_s, gamma=0.25))
            assert steady_residual(gen, thermal_qubit(x_s)) <= 1e-14

    def test_matches_the_gksl_formula(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            x1, x2, delta = rng.uniform(-3, 3, size=3)
            for gen in (generator_effective_qubit(rates_for(x_s=x1 - x2, gamma=rng.uniform(0, 2))),
                        generator_qutrit_two_bath(ModelParams(delta=delta, x1=x1, x2=x2, tau=0.05))):
                rho = random_state(rng, gen.dim)
                expected = float(np.max(np.abs(reference_rhs(gen, rho))))
                assert steady_residual(gen, rho) == pytest.approx(expected, rel=0, abs=1e-14)

    def test_detailed_balance_of_steady_state(self):
        x_s = -1.0
        pops = thermal_qubit(x_s).diagonal().real
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
