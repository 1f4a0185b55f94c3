import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from collisim import (
    ModelParams,
    ancilla_pair,
    basis_index,
    build_h_eff,
    build_h_prime,
    build_v,
    closed_evolution,
    compute_alpha,
    derive_rates,
    steady_state_qubit,
)
from collisim.model import bath_rate


def fig2_initial():
    """Joint basis state |1_A1, 0_A2, 0_S>."""
    psi = np.zeros(12, dtype=complex)
    psi[basis_index(1, 0, 0)] = 1.0
    return psi


class TestModelParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ModelParams(delta=50.0, g=-1.0)
        with pytest.raises(ValueError):
            ModelParams(delta=50.0, tau=-2.0)
        with pytest.raises(ValueError):
            ModelParams(delta=50.0, n_steps=0)
        with pytest.raises(ValueError):
            ModelParams(delta=float("nan"))

    def test_far_off_flag(self):
        assert ModelParams(delta=20.0).far_off_resonant
        assert ModelParams(delta=200.0).far_off_resonant
        assert not ModelParams(delta=19.9).far_off_resonant
        # threshold scales with the coupling
        assert not ModelParams(delta=30.0, g=2.0).far_off_resonant


class TestComputeAlpha:
    def test_symmetric_channels(self):
        assert_allclose(compute_alpha(1.0, 1.0, 50.0, 50.0), 0.02, rtol=1e-15)

    def test_asymmetric_channels(self):
        assert_allclose(compute_alpha(1.0, 2.0, 10.0, 20.0), 0.15, rtol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            gm, gn = rng.uniform(0.1, 3, size=2)
            dm, dn = rng.uniform(5, 300, size=2)
            assert compute_alpha(gm, gn, dm, dn) == compute_alpha(gn, gm, dn, dm)

    def test_zero_detuning(self):
        with pytest.raises(ValueError, match="singular"):
            compute_alpha(1.0, 1.0, 0.0, 50.0)


class TestHPrime:
    def test_no_interaction_limit(self):
        h = build_h_prime(ModelParams(delta=0.0, g=0.0))
        assert_allclose(h, np.zeros((12, 12)))

    def test_hermitian(self):
        h = build_h_prime(ModelParams(delta=50.0))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14

    def test_coupling_element(self):
        p = ModelParams(delta=50.0, g=1.3)
        h = build_h_prime(p)
        assert h[basis_index(1, 0, 0), basis_index(0, 0, 2)] == pytest.approx(1.3)
        assert h[basis_index(0, 1, 1), basis_index(0, 0, 2)] == pytest.approx(1.3)
        assert h[basis_index(0, 0, 2), basis_index(0, 0, 2)] == pytest.approx(50.0)

    def test_support_pattern(self):
        # Nonzero elements only where a channel transition or the
        # top-level shift allows them.
        p = ModelParams(delta=50.0)
        h = build_h_prime(p)
        allowed = set()
        for a2 in (0, 1):
            allowed.add((basis_index(1, a2, 0), basis_index(0, a2, 2)))
        for a1 in (0, 1):
            allowed.add((basis_index(a1, 1, 1), basis_index(a1, 0, 2)))
        allowed |= {(j, i) for i, j in allowed}
        for a1 in (0, 1):
            for a2 in (0, 1):
                i = basis_index(a1, a2, 2)
                allowed.add((i, i))
        for i in range(12):
            for j in range(12):
                if abs(h[i, j]) > 0:
                    assert (i, j) in allowed

    def test_eigenvalues_match_invariant_subspaces(self):
        # Brute-force eigensolve against the hand-identified block structure:
        # four uncoupled states at 0, one top-level state at delta, a 3-dim
        # exchange block, and two 2-dim single-channel blocks.
        g, delta = 1.0, 50.0
        h = build_h_prime(ModelParams(delta=delta, g=g))
        brute = np.sort(np.linalg.eigvalsh(h))
        three_block = [0.0,
                       (delta - math.sqrt(delta**2 + 8 * g**2)) / 2,
                       (delta + math.sqrt(delta**2 + 8 * g**2)) / 2]
        two_block = [(delta - math.sqrt(delta**2 + 4 * g**2)) / 2,
                     (delta + math.sqrt(delta**2 + 4 * g**2)) / 2]
        expected = np.sort([0.0] * 4 + [delta] + three_block + two_block * 2)
        assert_allclose(brute, expected, atol=1e-12)


class TestHEff:
    def test_exchange_element(self):
        p = ModelParams(delta=50.0)
        h = build_h_eff(p)
        alpha = compute_alpha(p.g, p.g, p.delta, p.delta)
        assert h[basis_index(0, 1, 1), basis_index(1, 0, 0)] == pytest.approx(-alpha)
        assert h[basis_index(1, 0, 0), basis_index(0, 1, 1)] == pytest.approx(-alpha)

    def test_shift_elements_single_weight(self):
        p = ModelParams(delta=50.0)
        h = build_h_eff(p)
        alpha = 0.02
        assert h[basis_index(1, 0, 0), basis_index(1, 0, 0)] == pytest.approx(-alpha)
        assert h[basis_index(1, 1, 0), basis_index(1, 1, 0)] == pytest.approx(-alpha)
        assert h[basis_index(0, 1, 1), basis_index(0, 1, 1)] == pytest.approx(-alpha)
        # the two shifts address different system levels, so no basis
        # state collects both
        assert h[basis_index(1, 1, 1), basis_index(1, 1, 1)] == pytest.approx(-alpha)
        assert h[basis_index(0, 0, 0), basis_index(0, 0, 0)] == 0.0

    def test_level2_rows_are_zero(self):
        h = build_h_eff(ModelParams(delta=50.0))
        for a1 in (0, 1):
            for a2 in (0, 1):
                i = basis_index(a1, a2, 2)
                assert np.all(h[i, :] == 0) and np.all(h[:, i] == 0)

    def test_hermitian(self):
        h = build_h_eff(ModelParams(delta=50.0))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14

    def test_zero_detuning_raises(self):
        with pytest.raises(ValueError, match="singular"):
            build_h_eff(ModelParams(delta=0.0))

    @pytest.mark.parametrize("builder", [build_h_eff, build_v])
    def test_warns_once_at_the_caller_when_not_far_off(self, builder):
        with pytest.warns(UserWarning, match="far-off-resonant") as record:
            builder(ModelParams(delta=5.0))
        assert [w.filename for w in record] == [__file__]

    def test_shift_weight_regression(self):
        # Permanent selection check for the level-shift weight: the shipped
        # single-weight variant reproduces the low-lying spectrum of the
        # exchange block of the original Hamiltonian to O(alpha g^2/delta^2);
        # the doubled-shift variant misses by a full alpha.
        g, delta = 1.0, 50.0
        p = ModelParams(delta=delta, g=g)
        alpha = g**2 / delta
        sub3 = [basis_index(1, 0, 0), basis_index(0, 1, 1), basis_index(0, 0, 2)]
        low_prime = np.sort(np.linalg.eigvalsh(build_h_prime(p)[np.ix_(sub3, sub3)]))[:2]
        sub2 = [basis_index(1, 0, 0), basis_index(0, 1, 1)]
        single = np.sort(np.linalg.eigvalsh(build_h_eff(p)[np.ix_(sub2, sub2)]))
        doubled_h = 2 * build_h_eff(p) - build_v(p)
        doubled = np.sort(np.linalg.eigvalsh(doubled_h[np.ix_(sub2, sub2)]))
        assert np.max(np.abs(single - low_prime)) < 1e-2 * alpha
        assert np.max(np.abs(doubled - low_prime)) > 0.4 * alpha

    def test_closed_dynamics_match_original(self):
        # Populations from the effective Hamiltonian track the original
        # Hamiltonian on the uncollided two-ancilla protocol.
        p = ModelParams(delta=50.0)
        alpha = 0.02
        t_grid = np.linspace(0.0, 5.0 / alpha, 501)
        psi0 = fig2_initial()
        orig = closed_evolution(psi0, build_h_prime(p), t_grid)
        eff = closed_evolution(psi0, build_h_eff(p), t_grid)
        dev = np.max(np.abs(orig.populations[:, :2] - eff.populations[:, :2]))
        assert dev <= 0.02

    def test_populations_match_rotating_frame_variant(self):
        # The frame rotation between the shifted and unshifted effective
        # Hamiltonians is diagonal, so populations agree for a product-basis
        # initial state.
        p = ModelParams(delta=50.0)
        t_grid = np.linspace(0.0, 120.0, 241)
        psi0 = fig2_initial()
        eff = closed_evolution(psi0, build_h_eff(p), t_grid)
        rot = closed_evolution(psi0, build_v(p), t_grid)
        assert np.max(np.abs(eff.populations - rot.populations)) <= 1e-10


class TestBuildV:
    def test_support_is_exchange_pair(self):
        p = ModelParams(delta=50.0)
        v = build_v(p)
        alpha = 0.02
        i, j = basis_index(0, 1, 1), basis_index(1, 0, 0)
        assert v[i, j] == pytest.approx(-alpha)
        assert v[j, i] == pytest.approx(-alpha)
        assert np.count_nonzero(v) == 2
        assert np.max(np.abs(v)) == pytest.approx(alpha)

    def test_rabi_oscillation(self):
        # The exchange pair is a closed two-level system: survival
        # probability cos^2(alpha t).
        p = ModelParams(delta=50.0)
        v = build_v(p)
        alpha = 0.02
        idx = basis_index(1, 0, 0)
        evals, vecs = np.linalg.eigh(v)
        for t in (0.3, 7.0, np.pi / (2 * alpha)):
            u = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
            assert_allclose(abs(u[idx, idx]) ** 2, np.cos(alpha * t) ** 2, atol=1e-12)


class TestDeriveRates:
    def test_symmetric_exponents_give_zero_xs(self):
        r = derive_rates(ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0))
        assert r.x_s == 0.0

    def test_negative_temperature_exponent(self):
        r = derive_rates(ModelParams(delta=200.0, x1=0.5, x2=1.5, tau=60.0))
        assert r.x_s == -1.0

    def test_gamma_value(self):
        # g=1, delta=200, tau=60 (alpha tau = 0.3), x1=x2=1e-4
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0)
        r = derive_rates(p)
        expected = (1 / 200.0) ** 2 * 60.0 / ((1 + math.exp(1e-4)) * (1 + math.exp(-1e-4)))
        assert_allclose(r.capital_gamma, expected, rtol=1e-14)
        assert_allclose(r.capital_gamma, 3.75e-4, rtol=1e-6)

    def test_alpha_and_ratio(self):
        # alpha = g R with the ratio R = g / delta
        p = ModelParams(delta=50.0)
        assert_allclose(derive_rates(p).alpha, 0.02, rtol=1e-15)
        assert_allclose(derive_rates(p).alpha, p.g * (p.g / p.delta), rtol=1e-15)

    def test_bath_rates(self):
        p = ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05)
        assert_allclose(bath_rate(p, p.x1), 0.05 / (1 + math.e), rtol=1e-14)
        assert_allclose(bath_rate(p, p.x2), 0.05 / (1 + math.e**2), rtol=1e-14)

    def test_gamma_quadratic_in_inverse_detuning(self):
        base = ModelParams(delta=100.0, x1=0.2, x2=0.4, tau=10.0)
        doubled = ModelParams(delta=200.0, x1=0.2, x2=0.4, tau=10.0)
        assert_allclose(derive_rates(doubled).capital_gamma,
                        derive_rates(base).capital_gamma / 4, rtol=1e-13)

    def test_xs_sign_flips_on_swap(self):
        a = derive_rates(ModelParams(delta=100.0, x1=0.3, x2=0.9, omega_a1=7.0, omega_a2=3.0))
        b = derive_rates(ModelParams(delta=100.0, x1=0.9, x2=0.3, omega_a1=7.0, omega_a2=3.0))
        assert a.x_s == -b.x_s
        assert a.beta_s == -b.beta_s

    def test_beta_s(self):
        r = derive_rates(ModelParams(delta=100.0, x1=0.5, x2=1.5, omega_a1=5.0, omega_a2=3.0))
        assert_allclose(r.beta_s, -0.5, rtol=1e-15)

    def test_beta_s_absent_without_frequencies(self):
        assert derive_rates(ModelParams(delta=100.0)).beta_s is None

    def test_degenerate_frequencies_raise(self):
        with pytest.raises(ValueError, match="degenerate"):
            derive_rates(ModelParams(delta=100.0, omega_a1=4.0, omega_a2=4.0))

    def test_zero_detuning_raises(self):
        with pytest.raises(ValueError, match="singular"):
            derive_rates(ModelParams(delta=0.0))


class TestSteadyStateQubit:
    def test_symmetric(self):
        assert_allclose(steady_state_qubit(0.0).matrix, np.diag([0.5, 0.5]))

    def test_inverted(self):
        pops = steady_state_qubit(-1.0).populations
        assert_allclose(pops[1], 0.7310585786300049, rtol=1e-12)
        assert pops[1] > pops[0]

    def test_zero_temperature_limit(self):
        assert_allclose(steady_state_qubit(50.0).matrix, np.diag([1.0, 0.0]), atol=1e-15)


class TestAncillaPair:
    def test_near_infinite_temperature(self):
        eta1, eta2 = ancilla_pair(ModelParams(delta=200.0, x1=1e-4, x2=1e-4))
        expected = math.exp(1e-4) / (1 + math.exp(1e-4))
        for eta in (eta1, eta2):
            assert_allclose(eta.populations, [expected, 1 - expected], rtol=1e-14)
            assert_allclose(eta.populations, [0.500025, 0.499975], atol=1e-6)

    def test_cold_bath(self):
        eta1, _ = ancilla_pair(ModelParams(delta=100.0, x1=50.0, x2=0.0))
        assert_allclose(eta1.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_inverted_bath(self):
        eta1, _ = ancilla_pair(ModelParams(delta=100.0, x1=-50.0, x2=0.0))
        assert_allclose(eta1.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_labels(self):
        eta1, eta2 = ancilla_pair(ModelParams(delta=100.0))
        assert eta1.space == (("A1", 2),)
        assert eta2.space == (("A2", 2),)
