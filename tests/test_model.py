import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
)
from collisim.lindblad import generator_effective_qubit, steady_residual
from collisim.model import bath_rates
from collisim.operators import thermal_populations, thermal_qubit


def fig2_initial():
    """Joint basis state |1_A1, 0_A2, 0_S>."""
    psi = np.zeros(12, dtype=complex)
    psi[basis_index(1, 0, 0)] = 1.0
    return psi


class TestModelParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ModelParams(delta=50.0, tau=-2.0)
        with pytest.raises(ValueError):
            ModelParams(delta=50.0, n_steps=0)
        for n_steps in (2.5, True, 3.0):
            with pytest.raises(ValueError, match=f"^n_steps must be an integer, got {n_steps!r}$"):
                ModelParams(delta=50.0, n_steps=n_steps)
        assert ModelParams(delta=50.0, n_steps=np.int64(3)).n_steps == 3
        with pytest.raises(ValueError):
            ModelParams(delta=float("nan"))

    @pytest.mark.parametrize("delta, far_off", [
        (20.0, True), (200.0, True), (19.9, False), (0.0, False),
        # the detuning's size sets the regime, not its sign
        (-20.0, True), (-200.0, True), (-19.9, False)])
    def test_far_off_flag(self, delta, far_off):
        assert ModelParams(delta=delta).far_off_resonant is far_off


class TestComputeAlpha:
    def test_value(self):
        assert_allclose(compute_alpha(50.0), 0.02, rtol=1e-15)
        assert_allclose(compute_alpha(-30.0), -1 / 30, rtol=1e-15)

    def test_sums_the_two_channels(self):
        # 1/delta is finite here, and the two channels' sum 2/delta is past the float range
        delta = 2.0**-1023
        assert 1.0 / delta == 2.0**1023
        assert compute_alpha(delta) == math.inf

    def test_zero_detuning(self):
        with pytest.raises(ValueError, match="singular"):
            compute_alpha(0.0)


class TestHPrime:
    def test_hermitian(self):
        h = build_h_prime(ModelParams(delta=50.0))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14

    def test_coupling_element(self):
        # the coupling is the unit
        p = ModelParams(delta=50.0)
        h = build_h_prime(p)
        assert h[basis_index(1, 0, 0), basis_index(0, 0, 2)] == 1.0
        assert h[basis_index(0, 1, 1), basis_index(0, 0, 2)] == 1.0
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
        delta = 50.0
        h = build_h_prime(ModelParams(delta=delta))
        brute = np.sort(np.linalg.eigvalsh(h))
        three_block = [0.0,
                       (delta - math.sqrt(delta**2 + 8)) / 2,
                       (delta + math.sqrt(delta**2 + 8)) / 2]
        two_block = [(delta - math.sqrt(delta**2 + 4)) / 2,
                     (delta + math.sqrt(delta**2 + 4)) / 2]
        expected = np.sort([0.0] * 4 + [delta] + three_block + two_block * 2)
        assert_allclose(brute, expected, atol=1e-12)


class TestHEff:
    def test_exchange_element(self):
        p = ModelParams(delta=50.0)
        h = build_h_eff(p)
        alpha = compute_alpha(p.delta)
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

    def test_warning_quotes_the_detuning_in_units_of_g(self):
        with pytest.warns(UserWarning, match=r"^delta = 10\.0g is below the far-off-resonant "
                                             r"threshold \(20\.0g\)"):
            build_h_eff(ModelParams(delta=10.0))
        with pytest.warns(UserWarning, match=r"^delta = -10\.0g is below"):
            build_v(ModelParams(delta=-10))

    @pytest.mark.parametrize("builder", [build_h_eff, build_v])
    def test_no_warning_at_a_large_negative_detuning(self, builder):
        # delta = -200 is as far off resonance as +200: its me5.csv is byte-identical
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            builder(ModelParams(delta=-200.0))

    def test_shift_weight_regression(self):
        # Permanent selection check for the level-shift weight: the shipped
        # single-weight variant reproduces the low-lying spectrum of the
        # exchange block of the original Hamiltonian to O(alpha / delta^2);
        # the doubled-shift variant misses by a full alpha.
        delta = 50.0
        p = ModelParams(delta=delta)
        alpha = 1 / delta
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


@pytest.mark.parametrize("delta", [50.0, 200.0, -30.0, 1e3])
class TestExactEntries:
    """Each builder, entry by entry from `basis_index` and the elements its docstring states."""

    def test_h_prime(self, delta):
        expected = np.zeros((12, 12), dtype=complex)
        for a in (0, 1):
            # bath 1 drives 0 <-> 2 of the system, bath 2 drives 1 <-> 2
            for i, j in ((basis_index(1, a, 0), basis_index(0, a, 2)),
                         (basis_index(a, 1, 1), basis_index(a, 0, 2))):
                expected[i, j] = expected[j, i] = 1.0
            for a2 in (0, 1):
                expected[basis_index(a, a2, 2), basis_index(a, a2, 2)] = delta
        assert np.array_equal(build_h_prime(ModelParams(delta=delta)), expected)

    def test_v_and_h_eff(self, delta):
        p = ModelParams(delta=delta)
        alpha = compute_alpha(delta)
        v = np.zeros((12, 12), dtype=complex)
        i, j = basis_index(0, 1, 1), basis_index(1, 0, 0)
        v[i, j] = v[j, i] = -alpha
        assert np.array_equal(build_v(p), v)
        h_eff = v.copy()
        for a in (0, 1):
            # ancilla 1 excited shifts system level 0, ancilla 2 excited level 1
            for k in (basis_index(1, a, 0), basis_index(a, 1, 1)):
                h_eff[k, k] = -alpha
        assert np.array_equal(build_h_eff(p), h_eff)


class TestDeriveRates:
    def test_symmetric_exponents_give_zero_xs(self):
        r = derive_rates(ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0))
        assert r.x_s == 0.0

    def test_negative_temperature_exponent(self):
        r = derive_rates(ModelParams(delta=200.0, x1=0.5, x2=1.5, tau=60.0))
        assert r.x_s == -1.0

    def test_gamma_value(self):
        # delta=200, tau=60 (alpha tau = 0.3), x1=x2=1e-4
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0)
        r = derive_rates(p)
        expected = (1 / 200.0) ** 2 * 60.0 / ((1 + math.exp(1e-4)) * (1 + math.exp(-1e-4)))
        assert_allclose(r.capital_gamma, expected, rtol=1e-14)
        assert_allclose(r.capital_gamma, 3.75e-4, rtol=1e-6)

    def test_alpha_and_ratio(self):
        p = ModelParams(delta=50.0)
        assert_allclose(derive_rates(p).alpha, 0.02, rtol=1e-15)
        assert_allclose(derive_rates(p).alpha, 1 / p.delta, rtol=1e-15)

    def test_bath_rates(self):
        # (lowering, raising) = tau (e^x, 1) / (1 + e^x)
        p = ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05)
        assert_allclose(bath_rates(p, p.x1), (0.05 * math.e / (1 + math.e), 0.05 / (1 + math.e)),
                        rtol=1e-14)
        assert_allclose(bath_rates(p, p.x2),
                        (0.05 * math.e**2 / (1 + math.e**2), 0.05 / (1 + math.e**2)), rtol=1e-14)

    # (30, -30) needs p0(-30) ~ 9.4e-14 accurate to its own size, which 1 - p1 misses by 1e-3
    @pytest.mark.parametrize("x1, x2", [(0.5, 1.5), (1.0, -1.0), (1e-4, 1e-4), (3.0, -2.0),
                                        (30.0, -30.0)])
    def test_lowering_rate_is_gamma_times_e_to_the_x_s(self, x1, x2):
        # detailed balance; the cases measured within 1.44 epsilon on x86-64
        r = derive_rates(ModelParams(delta=200.0, x1=x1, x2=x2, tau=60.0))
        assert_allclose(r.lowering_rate, r.capital_gamma * math.exp(x1 - x2),
                        rtol=4 * sys.float_info.epsilon)

    @pytest.mark.parametrize("delta, tau, eff_scale", [
        (200.0, 1.0, 1.0 / 200.0**2),
        # past the float range a rate is inf, and an empty level's rate 0, not inf * 0 = NaN
        (1e-300, 1.0, math.inf),  # 1 / delta is past the float range
        (1e-10, 1e300, math.inf),  # tau / delta^2 is
    ])
    def test_rates_at_exponents_past_the_exp_range(self, delta, tau, eff_scale):
        # exp(800) raised "math range error" in each rate's closed form
        p = ModelParams(delta=delta, x1=800.0, x2=-800.0, tau=tau)
        scale = tau
        r = derive_rates(p)
        assert (r.capital_gamma, r.lowering_rate) == (0.0, eff_scale)
        assert bath_rates(p, p.x1) == (scale, 0.0)
        assert bath_rates(p, p.x2) == (0.0, scale)

    @pytest.mark.parametrize("delta", [1e-300, 200.0])
    def test_rates_vanish_at_zero_duration(self, delta):
        # 1 / delta^2 is inf at delta 1e-300, and inf * 0 gave NaN rates
        r = derive_rates(ModelParams(delta=delta, x1=0.5, x2=1.5, tau=0.0))
        assert (r.capital_gamma, r.lowering_rate) == (0.0, 0.0)

    def test_gamma_quadratic_in_inverse_detuning(self):
        base = ModelParams(delta=100.0, x1=0.2, x2=0.4, tau=10.0)
        doubled = ModelParams(delta=200.0, x1=0.2, x2=0.4, tau=10.0)
        assert_allclose(derive_rates(doubled).capital_gamma,
                        derive_rates(base).capital_gamma / 4, rtol=1e-13)

    def test_xs_sign_flips_on_swap(self):
        a = derive_rates(ModelParams(delta=100.0, x1=0.3, x2=0.9))
        b = derive_rates(ModelParams(delta=100.0, x1=0.9, x2=0.3))
        assert a.x_s == -b.x_s

    def test_zero_detuning_raises(self):
        with pytest.raises(ValueError, match="singular"):
            derive_rates(ModelParams(delta=0.0))


# Finite thermal exponents, with the ends of the exp range and the float range
EXPONENTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([800.0, -800.0, 709.8, -709.8, 1e308, -1e308, 0.0]))


def reference_populations(x):
    """``(p0, p1)`` of thermal exponent ``x`` at the working precision of mpmath,
    each in its logistic form, so neither cancels."""
    return 1 / (mp.exp(-mp.mpf(x)) + 1), 1 / (mp.exp(mp.mpf(x)) + 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=EXPONENTS)
@example(x=-30.0)
def test_thermal_populations_are_accurate_to_their_own_size(x):
    """Each population is within 3 ulp of itself of a 40-digit reference at every finite
    ``x`` (2.01 ulp was the largest in 10^5 random exponents on x86-64); ``1 - p1``
    misses ``p0(-30)`` by 1e-3 of itself and gives 0 for ``p0(-709.8)``."""
    with mp.workdps(40):
        reference = [float(r) for r in reference_populations(x)]
    for pop, ref in zip(thermal_populations(x), reference):
        assert abs(pop - ref) <= 3 * math.ulp(ref), (pop, ref)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x1=EXPONENTS, x2=EXPONENTS, delta=st.sampled_from([200.0, 2.0, -7.0]))
def test_rates_are_finite_nonnegative_and_match_their_closed_forms(x1, x2, delta):
    """Every bath and effective rate is finite and >= 0 at finite exponents, and within
    4 ulp of its scale (``tau``, or ``tau / delta^2``) of a 40-digit reference: an
    absolute bound, since a product of populations may pass below the normal range.
    Where the closed forms the rates replaced stay normal, they agree to the same bound.
    The effective qubit's residual at its analytic fixed point is <= 1e-12."""
    p = ModelParams(delta=delta, x1=x1, x2=x2, tau=0.7)
    r = derive_rates(p)
    with mp.workdps(40):
        scale = mp.mpf(p.tau)
        eff_scale = scale / mp.mpf(p.delta) ** 2
        (a0, a1), (b0, b1) = reference_populations(x1), reference_populations(x2)
        pairs = [(r.capital_gamma, eff_scale * a1 * b0, eff_scale),
                 (r.lowering_rate, eff_scale * a0 * b1, eff_scale),
                 *zip(bath_rates(p, x1), (scale * a0, scale * a1), (scale, scale)),
                 *zip(bath_rates(p, x2), (scale * b0, scale * b1), (scale, scale))]
    for rate, reference, unit in pairs:
        assert math.isfinite(rate) and rate >= 0
        assert abs(rate - float(reference)) <= 4 * math.ulp(float(unit))

    # the closed forms, where finite and normal; Gamma e^x_s is left out: its
    # e^(x1 - x2) multiplies the rounding of x1 - x2, up to 400 ulp of the scale
    scale, eff_scale = p.tau, p.tau / p.delta**2
    closed = []
    if abs(x1) < 700 and abs(x2) < 700:
        closed.append((r.capital_gamma,
                       eff_scale / ((1.0 + math.exp(x1)) * (1.0 + math.exp(-x2))), eff_scale))
    for x in (x1, x2):
        if abs(x) < 700:
            up = scale / (1.0 + math.exp(x))
            closed += zip(bath_rates(p, x), (up * math.exp(x), up), (scale, scale))
    for rate, old, unit in closed:
        if old >= sys.float_info.min:
            assert abs(rate - old) <= 4 * math.ulp(unit)

    if math.isfinite(r.x_s):
        assert steady_residual(generator_effective_qubit(r), thermal_qubit(r.x_s)) <= 1e-12


class TestAncillaPair:
    def test_near_infinite_temperature(self):
        eta1, eta2 = ancilla_pair(ModelParams(delta=200.0, x1=1e-4, x2=1e-4))
        expected = math.exp(1e-4) / (1 + math.exp(1e-4))
        for eta in (eta1, eta2):
            assert_allclose(eta.diagonal().real, [expected, 1 - expected], rtol=1e-14)
            assert_allclose(eta.diagonal().real, [0.500025, 0.499975], atol=1e-6)

    def test_cold_bath(self):
        eta1, _ = ancilla_pair(ModelParams(delta=100.0, x1=50.0, x2=0.0))
        assert_allclose(eta1, np.diag([1.0, 0.0]), atol=1e-15)

    def test_inverted_bath(self):
        eta1, _ = ancilla_pair(ModelParams(delta=100.0, x1=-50.0, x2=0.0))
        assert_allclose(eta1, np.diag([0.0, 1.0]), atol=1e-15)
