import numpy as np
import pytest
from numpy.testing import assert_allclose

from collisim import (
    InvariantViolation,
    ModelParams,
    PropagatorChoice,
    QUTRIT_SPACE,
    TRIPARTITE_SPACE,
    Trajectory,
    ancilla_pair,
    basis_index,
    build_h_prime,
    build_v,
    closed_evolution,
    collision_step,
    collision_superoperator,
    default_substeps,
    density_operator,
    run_collisions,
    second_order_map,
    trace_distance,
)
from collisim.collision import STEP_TOLERANCES
from collisim.operators import batch_check_states


def qutrit_state(p0, p1, p2, coherence01=0.0):
    mat = np.diag([p0, p1, p2]).astype(complex)
    mat[0, 1] = mat[1, 0] = coherence01
    return density_operator(mat, QUTRIT_SPACE)


def joint_basis_state(a1, a2, s):
    idx = basis_index(a1, a2, s)
    mat = np.zeros((12, 12), dtype=complex)
    mat[idx, idx] = 1.0
    return density_operator(mat, TRIPARTITE_SPACE)


GROUND = qutrit_state(1.0, 0.0, 0.0)


class TestPropagatorChoice:
    def test_defaults(self):
        prop = PropagatorChoice()
        assert prop.variant == "spectral"
        assert prop.substeps is None

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            PropagatorChoice("euler")

    def test_rejects_bad_substeps(self):
        with pytest.raises(ValueError, match="substeps"):
            PropagatorChoice("runge_kutta", substeps=0)

    def test_default_substeps_resolves_fast_scale(self):
        p = ModelParams(delta=200.0, tau=60.0)
        h = build_h_prime(p)
        n = default_substeps(h, p.tau)
        radius = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        assert radius * (p.tau / n) <= 1 / 30 + 1e-12
        assert default_substeps(np.zeros((3, 3)), 5.0) == 1


class TestCollisionStep:
    def test_no_interaction_is_identity(self):
        p = ModelParams(delta=0.0, g=0.0, tau=3.0)
        rho = qutrit_state(0.5, 0.3, 0.2, coherence01=0.1)
        out = collision_step(rho, p, build_h_prime(p))
        assert_allclose(out.matrix, rho.matrix)

    def test_zero_duration_is_identity(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=1e-12)
        rho = qutrit_state(0.6, 0.4, 0.0, coherence01=0.2)
        out = collision_step(rho, p, build_h_prime(p))
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-10

    def test_preserves_trace(self):
        p = ModelParams(delta=200.0, x1=0.3, x2=0.8, tau=60.0)
        out = collision_step(qutrit_state(0.5, 0.3, 0.2), p, build_h_prime(p))
        assert abs(out.trace() - 1.0) <= 1e-10

    def test_accepts_embedded_qubit(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0)
        rho2 = density_operator(np.diag([1.0, 0.0]).astype(complex), (("S", 2),))
        out = collision_step(rho2, p, build_v(p))
        assert out.dim == 3
        assert out.populations[2] == 0.0

    def test_spectral_matches_runge_kutta(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0)
        h = build_h_prime(p)
        rho = qutrit_state(0.5, 0.3, 0.2, coherence01=0.15)
        a = collision_step(rho, p, h, PropagatorChoice("spectral"))
        b = collision_step(rho, p, h, PropagatorChoice("runge_kutta"))
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-7

    def test_rejects_wrong_hamiltonian_shape(self):
        p = ModelParams(delta=50.0)
        with pytest.raises(ValueError, match="12x12"):
            collision_step(GROUND, p, np.eye(3))


class TestRunCollisions:
    def test_entry_count_and_times(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0, n_steps=20)
        traj = run_collisions(GROUND, p, "original")
        assert len(traj) == 21
        assert_allclose(traj.times, np.arange(21) * 60.0)
        assert traj.steps[-1] == 20

    def test_effective_mode_never_touches_level2(self):
        p = ModelParams(delta=100.0, x1=0.2, x2=0.6, tau=30.0, n_steps=50)
        traj = run_collisions(GROUND, p, "effective")
        assert np.all(traj.populations[:, 2] == 0.0)

    def test_rejects_unknown_mode(self):
        p = ModelParams(delta=50.0)
        with pytest.raises(ValueError, match="mode"):
            run_collisions(GROUND, p, "exact")

    def test_snapshot_stride(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0, n_steps=20)
        traj = run_collisions(GROUND, p, "original", snapshot_stride=5)
        assert [s for s, _ in traj.snapshots] == [0, 5, 10, 15, 20]
        traj = run_collisions(GROUND, p, "original", snapshot_stride=0)
        assert traj.snapshots == ()

    def test_deterministic(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0, n_steps=30)
        a = run_collisions(GROUND, p, "original")
        b = run_collisions(GROUND, p, "original")
        assert np.array_equal(a.populations, b.populations)

    def test_every_state_is_valid(self):
        p = ModelParams(delta=200.0, x1=0.5, x2=1.5, tau=60.0, n_steps=40)
        traj = run_collisions(GROUND, p, "original", snapshot_stride=1)
        for step, snap in traj.snapshots:
            snap.validate(context=f"step {step}")

    def test_effective_converges_to_maximally_mixed_qubit(self):
        # x_s = 0: monotone trace-distance decrease to diag(1/2, 1/2, 0)
        # after the first few steps.
        p = ModelParams(delta=100.0, x1=0.3, x2=0.3, tau=30.0, n_steps=60)
        traj = run_collisions(GROUND, p, "effective", snapshot_stride=1)
        target = np.diag([0.5, 0.5, 0.0]).astype(complex)
        dists = [trace_distance(s.matrix, target) for _, s in traj.snapshots]
        diffs = np.diff(dists[5:])
        assert np.all(diffs <= 1e-12)
        assert dists[-1] < 0.05


def check_one(state, step, prev_trace=1.0, **kwargs):
    """Run the batch checker on one state at the collision tolerances."""
    return batch_check_states(state[None], step, prev_trace, **STEP_TOLERANCES, **kwargs)


class TestStepChecker:
    def test_reports_step_index(self):
        bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation, match="step 17"):
            check_one(bad, step=17)

    def test_detects_trace_drift(self):
        drifted = np.diag([0.7, 0.3, 0.0]).astype(complex) * 1.001
        with pytest.raises(InvariantViolation, match="trace"):
            check_one(drifted, step=3)

    def test_detects_non_hermitian(self):
        bad = np.diag([0.7, 0.3, 0.0]).astype(complex)
        bad = bad + np.array([[0, 1e-6, 0], [-1e-6, 0, 0], [0, 0, 0]])
        with pytest.raises(InvariantViolation, match="Hermiticity"):
            check_one(bad, step=5)

    def test_names_context_for_qubit_state(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvariantViolation, match="at integrator step 9$"):
            check_one(bad, step=9, context="integrator step")

    def test_returns_last_trace(self):
        assert check_one(np.diag([0.7, 0.3, 0.0]).astype(complex), step=1) == pytest.approx(1.0)


class TestClosedEvolution:
    def test_rabi_transfer_at_quarter_period(self):
        p = ModelParams(delta=50.0)
        alpha = 0.02
        sigma0 = joint_basis_state(1, 0, 0)
        traj = closed_evolution(sigma0, build_v(p), [0.0, np.pi / (2 * alpha)])
        assert traj.populations[-1, 0] <= 1e-10
        assert_allclose(traj.populations[-1, 1], 1.0, atol=1e-10)

    def test_rabi_oracle_full_grid(self):
        p = ModelParams(delta=50.0)
        alpha = 0.02
        t = np.linspace(0.0, 4.0 / alpha, 301)
        traj = closed_evolution(joint_basis_state(1, 0, 0), build_v(p), t)
        assert_allclose(traj.populations[:, 0], np.cos(alpha * t) ** 2, atol=1e-12)

    def test_perturbative_level2_bound(self):
        # Leakage to the eliminated level stays below 4 (g/delta)^2 * 1.5.
        p = ModelParams(delta=50.0)
        t = np.linspace(0.0, 5.0 / 0.02, 1001)
        traj = closed_evolution(joint_basis_state(1, 0, 0), build_h_prime(p), t)
        assert np.max(traj.populations[:, 2]) <= 4 * (1 / 50.0) ** 2 * 1.5

    def test_zero_hamiltonian_is_constant(self):
        sigma0 = joint_basis_state(1, 0, 0)
        traj = closed_evolution(sigma0, np.zeros((12, 12)), np.linspace(0, 10, 11))
        assert np.all(traj.populations == traj.populations[0])

    def test_grid_validation(self):
        sigma0 = joint_basis_state(0, 0, 0)
        h = np.zeros((12, 12))
        with pytest.raises(ValueError, match="nonnegative"):
            closed_evolution(sigma0, h, [-1.0, 0.0])
        with pytest.raises(ValueError, match="increasing"):
            closed_evolution(sigma0, h, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="nonempty"):
            closed_evolution(sigma0, h, [])

    def test_snapshots_are_reduced_states(self):
        p = ModelParams(delta=50.0)
        traj = closed_evolution(joint_basis_state(1, 0, 0), build_h_prime(p),
                                np.linspace(0, 20, 21), snapshot_stride=10)
        assert [s for s, _ in traj.snapshots] == [0, 10, 20]
        for _, snap in traj.snapshots:
            assert snap.dim == 3
            snap.validate()


class TestSecondOrderMap:
    def test_zero_duration_gives_zero(self):
        p = ModelParams(delta=100.0, x1=0.3, x2=0.8, tau=0.0)
        assert_allclose(second_order_map(GROUND, p), np.zeros((3, 3)))

    def test_traceless(self):
        p = ModelParams(delta=100.0, x1=0.3, x2=0.8, tau=10.0)
        rho = qutrit_state(0.5, 0.3, 0.2, coherence01=0.2)
        delta_rho = second_order_map(rho, p)
        assert abs(np.trace(delta_rho)) <= 1e-12
        assert np.max(np.abs(delta_rho - delta_rho.conj().T)) <= 1e-14

    def test_fixed_point_of_symmetric_baths(self):
        # Maximally mixed embedded qubit is stationary when both baths
        # share one temperature.
        p = ModelParams(delta=100.0, x1=0.7, x2=0.7, tau=10.0)
        rho = qutrit_state(0.5, 0.5, 0.0)
        delta_rho = second_order_map(rho, p)
        assert np.max(np.abs(delta_rho[:2, :2])) <= 1e-12

    def test_defect_is_fourth_order(self):
        # Against the exact collision map the expansion misses only even
        # orders: odd powers of the duration vanish under the ancilla trace
        # for diagonal ancillas, so halving the duration shrinks the defect
        # by 16x (not the generic 8x of a second-order scheme).
        rho = qutrit_state(0.5, 0.3, 0.2, coherence01=0.3)

        def defect(alpha_tau):
            p = ModelParams(delta=100.0, x1=0.3, x2=0.8, tau=alpha_tau * 100.0)
            eta1, eta2 = ancilla_pair(p)
            m = collision_superoperator(build_v(p), eta1.matrix, eta2.matrix,
                                        p.tau, PropagatorChoice())
            exact = (m @ rho.matrix.reshape(9)).reshape(3, 3) - rho.matrix
            return np.max(np.abs(exact - second_order_map(rho, p)))

        ratio = defect(0.1) / defect(0.05)
        assert 15.0 <= ratio <= 16.5


def test_trajectory_validation():
    good = Trajectory(steps=[0, 1], times=[0.0, 1.0],
                      populations=[[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    good.validate()
    bad_sum = Trajectory(steps=[0], times=[0.0], populations=[[0.6, 0.3, 0.0]])
    with pytest.raises(InvariantViolation, match="sum"):
        bad_sum.validate()
    bad_time = Trajectory(steps=[0, 1], times=[1.0, 1.0],
                          populations=[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(InvariantViolation, match="increasing"):
        bad_time.validate()
    with pytest.raises(ValueError, match="shape"):
        Trajectory(steps=[0], times=[0.0], populations=[[0.5, 0.5]])


def test_trajectory_validation_rejects_nan_population():
    nan_pops = Trajectory(steps=[0, 1, 2], times=[0.0, 1.0, 2.0],
                          populations=[[1.0, 0.0, 0.0], [np.nan, 0.5, 0.0], [0.5, 0.5, 0.0]])
    with pytest.raises(InvariantViolation, match="non-finite populations at entry 1"):
        nan_pops.validate()


def test_trajectory_validation_rejects_nan_time():
    nan_time = Trajectory(steps=[0, 1, 2], times=[0.0, 1.0, np.nan],
                          populations=[[1.0, 0.0, 0.0]] * 3)
    with pytest.raises(InvariantViolation, match="non-finite times at entry 2"):
        nan_time.validate()


def test_trajectory_final_window():
    pops = np.column_stack([np.linspace(1, 0, 50), np.linspace(0, 1, 50), np.zeros(50)])
    traj = Trajectory(steps=np.arange(50), times=np.arange(50.0), populations=pops)
    window = traj.final_window_mean(0.1)
    assert window[1] > 0.9
