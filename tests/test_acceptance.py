"""Acceptance suite: one test per shipped-behavior criterion.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (run with ``-s``
to see them for passing tests) and asserts the criterion at its stated
tolerance, including the runtime budget.

Criterion 6 asserts the externally stated 8x defect-shrink ratio for the
second-order collision map.  The measured ratio is 16x and provably so:
odd orders of the collision duration vanish under the ancilla trace for
diagonal (thermal) ancillas, making the expansion defect fourth order.
The test is kept faithful to its stated tolerance and fails; the
verified fourth-order scaling has its own regression test in
test_collision.py.
"""

import math
import time

import numpy as np

from collisim import (
    DensityOperator,
    ModelParams,
    PropagatorChoice,
    QUTRIT_SPACE,
    ancilla_pair,
    basis_index,
    build_h_eff,
    build_h_prime,
    build_v,
    closed_evolution,
    collision_superoperator,
    density_operator,
    derive_rates,
    generator_effective_qubit,
    generator_qutrit_two_bath,
    integrate,
    rhs,
    run_collisions,
    second_order_map,
    steady_residual,
    steady_state_qubit,
)

GROUND_QUTRIT = density_operator(np.diag([1.0, 0.0, 0.0]).astype(complex), QUTRIT_SPACE)
GROUND_QUBIT = density_operator(np.diag([1.0, 0.0]).astype(complex), (("S", 2),))


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def fig2_joint_state():
    """Start amplitudes of the joint basis state |1_A1, 0_A2, 0_S>."""
    psi = np.zeros(12, dtype=complex)
    psi[basis_index(1, 0, 0)] = 1.0
    return psi


def elimination_deviation(delta: float, n_grid: int = 2000):
    """Max |p_k^eff - p_k^orig| over k in {0,1} for the closed protocol."""
    p = ModelParams(delta=delta)
    alpha = derive_rates(p).alpha
    t_grid = np.linspace(0.0, 5.0 / alpha, n_grid)
    joint = fig2_joint_state()
    orig = closed_evolution(joint, build_h_prime(p), t_grid)
    eff = closed_evolution(joint, build_h_eff(p), t_grid)
    dev = float(np.max(np.abs(orig.populations[:, :2] - eff.populations[:, :2])))
    max_p2 = float(np.max(orig.populations[:, 2]))
    cos_defect = float(np.max(np.abs(eff.populations[:, 0] - np.cos(alpha * t_grid) ** 2)))
    return dev, max_p2, cos_defect


def regime_run(alpha_tau: float, x1: float, x2: float, n_steps: int | None = None,
               prop: PropagatorChoice = PropagatorChoice(), snapshot_stride: int = 0):
    """Collision run + matching effective-qubit master equation, delta=200g."""
    delta = 200.0
    tau = alpha_tau * delta
    p = ModelParams(delta=delta, x1=x1, x2=x2, tau=tau, n_steps=1)
    rates = derive_rates(p)
    if n_steps is None:
        n_steps = max(300, math.ceil(5.0 / (rates.capital_gamma * tau)))
    p = ModelParams(delta=delta, x1=x1, x2=x2, tau=tau, n_steps=n_steps)
    exact = run_collisions(GROUND_QUTRIT, p, "original", prop, snapshot_stride=snapshot_stride)
    gen = generator_effective_qubit(rates)
    k = max(1, math.ceil(tau * gen.rate_scale / 0.02))
    me = integrate(gen, GROUND_QUBIT, n_steps * tau, tau / k, snapshot_stride=0)
    return p, exact, me.populations[::k]


def test_criterion_1_adiabatic_elimination_validity():
    t0 = time.time()
    dev, max_p2, cos_defect = elimination_deviation(50.0)
    elapsed = time.time() - t0
    ok = dev <= 0.02 and max_p2 <= 2.4e-3 and cos_defect <= 1e-9 and elapsed < 2.0
    report(1, ok, f"dev={dev:.3e} p2max={max_p2:.3e} cos_defect={cos_defect:.1e} "
                  f"runtime={elapsed:.2f}s")
    assert dev <= 0.02
    assert max_p2 <= 2.4e-3
    assert cos_defect <= 1e-9
    assert elapsed < 2.0


def test_criterion_2_elimination_error_scaling():
    t0 = time.time()
    devs = [elimination_deviation(delta)[0] for delta in (25.0, 50.0, 100.0)]
    elapsed = time.time() - t0
    ok = devs[0] > devs[1] > devs[2] and elapsed < 5.0
    report(2, ok, "devs=" + "/".join(f"{d:.3e}" for d in devs) + f" runtime={elapsed:.2f}s")
    assert devs[0] > devs[1] > devs[2]
    assert elapsed < 5.0


def test_criterion_3_regime_b_agreement():
    t0 = time.time()
    p, exact, me_pops = regime_run(alpha_tau=0.3, x1=1e-4, x2=1e-4, n_steps=300)
    dev = float(np.max(np.abs(exact.populations - me_pops)))
    window = max(1, len(exact) // 10)
    final_exact = exact.populations[-window:].mean(axis=0)
    final_me = me_pops[-window:].mean(axis=0)
    max_p2 = float(np.max(exact.populations[:, 2]))
    elapsed = time.time() - t0

    half = all(abs(v - 0.5) <= 0.02 for v in
               (final_exact[0], final_exact[1], final_me[0], final_me[1]))
    ok = dev <= 0.05 and half and max_p2 <= 0.02 and elapsed < 10.0
    report(3, ok, f"dev={dev:.3e} final={final_exact[0]:.3f}/{final_exact[1]:.3f} "
                  f"p2max={max_p2:.3e} runtime={elapsed:.2f}s")
    assert dev <= 0.05
    assert half
    assert max_p2 <= 0.02
    assert elapsed < 10.0


def test_criterion_4_regime_a_breakdown():
    t0 = time.time()
    p, exact, me_pops = regime_run(alpha_tau=0.01, x1=1e-4, x2=1e-4)
    dev = float(np.max(np.abs(exact.populations - me_pops)))
    skip = len(exact) // 10
    overlap = float(np.max(np.abs(exact.populations[skip:, 2] - exact.populations[skip:, 1])))
    elapsed = time.time() - t0

    ok = overlap <= 0.05 and dev >= 0.1 and elapsed < 10.0
    report(4, ok, f"n={p.n_steps} |p2-p1|max={overlap:.3e} me_dev={dev:.3f} "
                  f"runtime={elapsed:.2f}s")
    assert overlap <= 0.05, "top level must track level 1 in the developed dynamics"
    assert dev >= 0.1, "the effective-qubit equation must fail qualitatively here"
    assert elapsed < 10.0


def test_criterion_5_negative_temperature_steady_state():
    t0 = time.time()
    delta, alpha_tau = 200.0, 0.3
    tau = alpha_tau * delta
    p = ModelParams(delta=delta, x1=0.5, x2=1.5, tau=tau, n_steps=300)
    rates = derive_rates(p)
    assert rates.x_s == -1.0
    exact = run_collisions(GROUND_QUTRIT, p, "original")
    final = exact.final_window_mean()
    analytic = steady_state_qubit(rates.x_s)
    residual = steady_residual(generator_effective_qubit(rates), analytic)
    elapsed = time.time() - t0

    p1_err = abs(final[1] - 0.731)
    inverted = final[1] > final[0]
    ok = p1_err <= 0.02 and residual <= 1e-12 and inverted and elapsed < 10.0
    report(5, ok, f"p1={final[1]:.4f} (target 0.731) residual={residual:.1e} "
                  f"inverted={inverted} runtime={elapsed:.2f}s")
    assert p1_err <= 0.02
    assert residual <= 1e-12
    assert inverted
    assert elapsed < 10.0


def test_criterion_6_second_order_map_defect_ratio():
    t0 = time.time()
    delta = 100.0
    alpha = 1.0 / delta
    rho = density_operator(
        np.array([[0.5, 0.3, 0.0], [0.3, 0.3, 0.0], [0.0, 0.0, 0.2]], dtype=complex),
        QUTRIT_SPACE,
    )

    def defect(alpha_tau):
        p = ModelParams(delta=delta, x1=0.3, x2=0.8, tau=alpha_tau / alpha)
        eta1, eta2 = ancilla_pair(p)
        m = collision_superoperator(build_v(p), eta1.matrix, eta2.matrix, p.tau,
                                    PropagatorChoice())
        exact = (m @ rho.matrix.reshape(9)).reshape(3, 3) - rho.matrix
        return float(np.max(np.abs(exact - second_order_map(rho, p))))

    ratio = defect(0.1) / defect(0.05)
    elapsed = time.time() - t0
    ok = abs(ratio - 8.0) <= 0.12 * 8.0 and elapsed < 1.0
    report(6, ok, f"ratio={ratio:.3f} (stated 8 +- 12%; measured scaling is fourth order) "
                  f"runtime={elapsed:.2f}s")
    assert abs(ratio - 8.0) <= 0.12 * 8.0, (
        f"defect ratio {ratio:.3f} is outside 8 +- 12%: odd orders of the collision "
        "duration cancel under the ancilla trace for diagonal thermal ancillas, so the "
        "defect is fourth order (ratio 16) rather than third order (ratio 8)"
    )
    assert elapsed < 1.0


def test_criterion_7_propagator_equivalence():
    t0 = time.time()
    delta, tau = 200.0, 60.0
    p = ModelParams(delta=delta, x1=1e-4, x2=1e-4, tau=tau, n_steps=300)
    spectral = run_collisions(GROUND_QUTRIT, p, "original", PropagatorChoice("spectral"),
                              snapshot_stride=50)
    rk4 = run_collisions(GROUND_QUTRIT, p, "original", PropagatorChoice("runge_kutta"),
                         snapshot_stride=50)
    pop_dev = float(np.max(np.abs(spectral.populations - rk4.populations)))
    state_dev = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(spectral.snapshot_states, rk4.snapshot_states)
    )
    elapsed = time.time() - t0

    ok = pop_dev <= 1e-7 and state_dev <= 1e-7 and elapsed < 20.0
    report(7, ok, f"pop_dev={pop_dev:.2e} state_dev={state_dev:.2e} runtime={elapsed:.2f}s")
    assert pop_dev <= 1e-7
    assert state_dev <= 1e-7
    assert elapsed < 20.0


def test_criterion_8_beyond_far_off_regime():
    t0 = time.time()
    p = ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05, n_steps=400)
    exact = run_collisions(GROUND_QUTRIT, p, "original")
    gen = generator_qutrit_two_bath(p)
    k = max(1, math.ceil(p.tau * gen.rate_scale / 0.02))
    me = integrate(gen, GROUND_QUTRIT, 400 * p.tau, p.tau / k, snapshot_stride=0)
    dev = float(np.max(np.abs(exact.populations - me.populations[::k])))

    # delta = 0 reduction: equal bath exponents give p0 = p1, p2/p0 = e^-x
    p0_params = ModelParams(delta=0.0, x1=1.0, x2=1.0, tau=0.05, n_steps=1)
    gen0 = generator_qutrit_two_bath(p0_params)
    mixed = density_operator(np.eye(3, dtype=complex) / 3.0, QUTRIT_SPACE)
    steady = integrate(gen0, mixed, 1500.0, 0.5, snapshot_stride=0).populations[-1]
    balance_err = max(abs(steady[0] - steady[1]), abs(steady[2] / steady[0] - math.exp(-1.0)))
    elapsed = time.time() - t0

    ok = dev <= 0.05 and balance_err <= 1e-3 and elapsed < 20.0
    report(8, ok, f"dev={dev:.3e} balance_err={balance_err:.2e} runtime={elapsed:.2f}s")
    assert dev <= 0.05
    assert balance_err <= 1e-3
    assert elapsed < 20.0


def test_criterion_9_invariant_suite():
    t0 = time.time()

    # Every retained state from representative runs passes the
    # density-operator invariants (the engines also enforce these per
    # step and abort on violation).
    p_b = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0, n_steps=300)
    p_hot = ModelParams(delta=200.0, x1=0.5, x2=1.5, tau=60.0, n_steps=300)
    collision_runs = [run_collisions(GROUND_QUTRIT, p, "original", snapshot_stride=1)
                      for p in (p_b, p_hot)]

    p_fig2 = ModelParams(delta=50.0)
    t_grid = np.linspace(0.0, 5.0 / 0.02, 500)
    closed = closed_evolution(fig2_joint_state(), build_h_prime(p_fig2), t_grid,
                              snapshot_stride=1)

    rates = derive_rates(p_hot)
    gen_q = generator_effective_qubit(rates)
    me = integrate(gen_q, GROUND_QUBIT, 18000.0, 60.0, snapshot_stride=1)

    checked = 0
    for traj in collision_runs + [closed, me]:
        for step, state in zip(traj.snapshot_steps, traj.snapshot_states):
            space = (("S", state.shape[0]),)
            DensityOperator(space, state).validate(context=f"snapshot step {step}")
            checked += 1

    # GKSL structure: trace-zero and Hermiticity-preserving right-hand
    # side on 100 random states each.
    rng = np.random.default_rng(2024)
    gen_3 = generator_qutrit_two_bath(ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05))
    worst_trace, worst_herm = 0.0, 0.0
    for gen in (gen_q, gen_3):
        for _ in range(100):
            a = rng.normal(size=(gen.dim, gen.dim)) + 1j * rng.normal(size=(gen.dim, gen.dim))
            state = a @ a.conj().T
            state /= np.trace(state)
            worst_trace = max(worst_trace, abs(np.trace(rhs(gen, state))))
            herm_in = a + a.conj().T
            out = rhs(gen, herm_in)
            worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))
    elapsed = time.time() - t0

    ok = worst_trace <= 1e-13 and worst_herm <= 1e-13
    report(9, ok, f"states_checked={checked} rhs_trace={worst_trace:.1e} "
                  f"rhs_herm={worst_herm:.1e} runtime={elapsed:.2f}s")
    assert checked > 1000
    assert worst_trace <= 1e-13
    assert worst_herm <= 1e-13
