from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from collisim import (
    DensityOperator,
    InvariantViolation,
    ModelParams,
    NumericError,
    PropagatorChoice,
    QUTRIT_SPACE,
    Trajectory,
    ancilla_pair,
    basis_index,
    build_h_eff,
    build_h_prime,
    build_v,
    closed_evolution,
    collision_superoperator,
    default_substeps,
    density_operator,
    derive_rates,
    generator_effective_qubit,
    load_config,
    run_collisions,
    second_order_map,
    trace_distance,
)
from collisim.cli import main
from collisim.collision import (CHECK_BLOCK, CUMULATIVE_TRACE_TOL, GRID_BLOCK, STEP_BLOCK,
                                STEP_TOLERANCES, propagate)
from collisim.lindblad import (HERMITICITY_DRIFT_TOL, TRACE_DRIFT_TOL, generator_superoperator,
                               rk4_step_matrix)
from collisim.operators import MIN_EIGENVALUE, batch_check_states, partial_trace_matrix
from collisim.scenarios import initial_system_state, me_substep_count, model_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def qutrit_state(p0, p1, p2, coherence01=0.0):
    mat = np.diag([p0, p1, p2]).astype(complex)
    mat[0, 1] = mat[1, 0] = coherence01
    return density_operator(mat, QUTRIT_SPACE)


def joint_basis_state(a1, a2, s):
    """Start amplitudes of the joint basis state |a1, a2, s>."""
    psi = np.zeros(12, dtype=complex)
    psi[basis_index(a1, a2, s)] = 1.0
    return psi


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


def one_collision(rho, p, mode, prop=PropagatorChoice()):
    """The state after one collision (``p.n_steps`` is 1), checked like every step."""
    return run_collisions(rho, p, mode, prop, snapshot_stride=1).snapshot_states[1]


class TestCollisionStep:
    def test_no_interaction_is_identity(self):
        p = ModelParams(delta=0.0, g=0.0, tau=3.0)
        rho = qutrit_state(0.5, 0.3, 0.2, coherence01=0.1)
        out = one_collision(rho, p, "original")
        assert_allclose(out, rho.matrix)

    def test_zero_duration_is_identity(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=1e-12)
        rho = qutrit_state(0.6, 0.4, 0.0, coherence01=0.2)
        out = one_collision(rho, p, "original")
        assert np.max(np.abs(out - rho.matrix)) <= 1e-10

    def test_preserves_trace(self):
        p = ModelParams(delta=200.0, x1=0.3, x2=0.8, tau=60.0)
        out = one_collision(qutrit_state(0.5, 0.3, 0.2), p, "original")
        assert abs(np.real(np.trace(out)) - 1.0) <= 1e-10

    def test_accepts_embedded_qubit(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0)
        rho2 = density_operator(np.diag([1.0, 0.0]).astype(complex), (("S", 2),))
        out = one_collision(rho2, p, "effective")
        assert out.shape == (3, 3)
        assert out[2, 2] == 0.0

    def test_spectral_matches_runge_kutta(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0)
        rho = qutrit_state(0.5, 0.3, 0.2, coherence01=0.15)
        a = one_collision(rho, p, "original", PropagatorChoice("spectral"))
        b = one_collision(rho, p, "original", PropagatorChoice("runge_kutta"))
        assert np.max(np.abs(a - b)) <= 1e-7

    def test_rejects_wrong_hamiltonian_shape(self):
        eta1, eta2 = ancilla_pair(ModelParams(delta=50.0))
        with pytest.raises(ValueError, match="12x12"):
            collision_superoperator(np.eye(3), eta1.matrix, eta2.matrix, 1.0, PropagatorChoice())


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

    def test_zero_duration_is_an_invariant_violation(self):
        # Every collision of a zero-duration run would sit at t = 0, so the
        # input is rejected before the map is built.
        p = ModelParams(delta=50.0, x1=0.3, x2=0.8, tau=0.0, n_steps=3)
        with pytest.raises(ValueError, match="positive, finite tau, got 0.0"):
            run_collisions(GROUND, p, "original")

    def test_snapshot_stride(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0, n_steps=20)
        traj = run_collisions(GROUND, p, "original", snapshot_stride=5)
        assert traj.snapshot_steps.tolist() == [0, 5, 10, 15, 20]
        assert traj.snapshot_states.shape == (5, 3, 3)
        traj = run_collisions(GROUND, p, "original", snapshot_stride=0)
        assert traj.snapshot_steps.size == 0
        assert traj.snapshot_states.size == 0

    def test_deterministic(self):
        p = ModelParams(delta=200.0, x1=1e-4, x2=1e-4, tau=60.0, n_steps=30)
        a = run_collisions(GROUND, p, "original")
        b = run_collisions(GROUND, p, "original")
        assert np.array_equal(a.populations, b.populations)

    def test_every_state_is_valid(self):
        p = ModelParams(delta=200.0, x1=0.5, x2=1.5, tau=60.0, n_steps=40)
        traj = run_collisions(GROUND, p, "original", snapshot_stride=1)
        for step, state in zip(traj.snapshot_steps, traj.snapshot_states):
            DensityOperator(QUTRIT_SPACE, state).validate(context=f"step {step}")

    def test_effective_converges_to_maximally_mixed_qubit(self):
        # x_s = 0: monotone trace-distance decrease to diag(1/2, 1/2, 0)
        # after the first few steps.
        p = ModelParams(delta=100.0, x1=0.3, x2=0.3, tau=30.0, n_steps=60)
        traj = run_collisions(GROUND, p, "effective", snapshot_stride=1)
        target = np.diag([0.5, 0.5, 0.0]).astype(complex)
        dists = trace_distance(traj.snapshot_states, target)
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

    def test_nan_coherence_fails_at_its_step(self):
        bad = np.diag([0.7, 0.3, 0.0]).astype(complex)
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(InvariantViolation, match="non-finite entry at step 4$"):
            check_one(bad, step=4)

    def test_non_finite_state_is_reported_at_its_own_step(self):
        good = np.diag([0.7, 0.3, 0.0]).astype(complex)
        block = np.stack([good, good, good, good])
        block[2, 2, 2] = np.inf
        block[3] = np.nan
        with pytest.raises(InvariantViolation, match="non-finite entry at step 12$"):
            batch_check_states(block, 10, 1.0, **STEP_TOLERANCES)

    def test_failure_before_a_non_finite_state_wins(self):
        good = np.diag([0.7, 0.3, 0.0]).astype(complex)
        block = np.stack([good, np.diag([1.2, -0.2, 0.0]).astype(complex), good * np.nan])
        with pytest.raises(InvariantViolation, match="min eigenvalue .* at step 2$"):
            batch_check_states(block, 1, 1.0, **STEP_TOLERANCES)


def eigvalsh_check_states(states, first_step, prev_trace, *, step_trace_tol,
                          cumulative_trace_tol, hermiticity_tol, context="step"):
    """The checker that ran `eigvalsh` on every state, kept as the certificate's oracle."""
    with np.errstate(over="ignore", invalid="ignore"):
        traces = np.real(np.einsum("nii->n", states))
        prev = np.concatenate(([prev_trace], traces[:-1]))
        drift = np.abs(traces - prev)
        trace_err = np.abs(traces - 1.0)
        herm = np.max(np.abs(states - states.conj().transpose(0, 2, 1)), axis=(1, 2))
    bad = (
        ~(drift <= step_trace_tol)
        | ~(trace_err <= cumulative_trace_tol)
        | ~(herm <= hermiticity_tol)
    )
    n_ok = int(np.argmax(bad)) if np.any(bad) else len(states)
    min_eigs = np.linalg.eigvalsh(states[:n_ok])[:, 0]
    not_positive = ~(min_eigs >= MIN_EIGENVALUE)
    if np.any(not_positive):
        i = int(np.argmax(not_positive))
        raise InvariantViolation(f"min eigenvalue {min_eigs[i]:.3e} at {context} {first_step + i}")
    if n_ok < len(states):
        i, step = n_ok, first_step + n_ok
        if not np.all(np.isfinite(states[i])):
            raise InvariantViolation(f"non-finite entry at {context} {step}")
        if not drift[i] <= step_trace_tol:
            raise InvariantViolation(f"trace drifted by {traces[i] - prev[i]:.3e} at {context} {step}")
        if not trace_err[i] <= cumulative_trace_tol:
            raise InvariantViolation(f"trace {traces[i]:.12f} != 1 at {context} {step}")
        raise InvariantViolation(f"Hermiticity defect {herm[i]:.3e} at {context} {step}")
    return float(traces[-1])


def check_outcome(check, states, **kwargs):
    """The trace ``check`` returns for ``states`` from step 1, or its error message."""
    try:
        return check(states, 1, 1.0, **{**STEP_TOLERANCES, **kwargs})
    except InvariantViolation as err:
        return str(err)


def rotated_state(rng, eigenvalues, angle=1.0):
    """``U diag(eigenvalues) U^+``, Hermitian to the last bit, for ``U = exp(i angle G)``
    with a random Hermitian ``G`` of spectral radius pi; a small ``angle`` leaves
    small coherences."""
    d = len(eigenvalues)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w, v = np.linalg.eigh(g + g.conj().T)
    u = (v * np.exp(1j * angle * np.pi * w / np.max(np.abs(w)))) @ v.conj().T
    mat = (u * np.asarray(eigenvalues)) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


def count_eigvalsh_stacks(monkeypatch):
    """Record the stack size of every `eigvalsh` call on a stack of matrices."""
    stacks = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return stacks


class TestPositivityCertificate:
    """`batch_check_states` gives the outcome of the eigvalsh-only checker on every input."""

    def assert_same_outcome(self, states, **kwargs):
        expected = check_outcome(eigvalsh_check_states, states, **kwargs)
        assert check_outcome(batch_check_states, states, **kwargs) == expected
        return expected

    def test_uncertified_pure_state_passes(self, monkeypatch):
        # Every Gershgorin disc of |+><+| reaches 1/3 - 2/3 < 0, yet it is PSD.
        plus = np.full((3, 3), 1 / 3, dtype=complex)
        stacks = count_eigvalsh_stacks(monkeypatch)
        assert self.assert_same_outcome(plus[None]) == pytest.approx(1.0)
        assert stacks[-1] == 1

    @pytest.mark.parametrize("offset", [-1e-13, 0.0, 1e-13, 2e-12])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_smallest_eigenvalue_at_the_bound(self, offset, rotated):
        rng = np.random.default_rng(7)
        low = MIN_EIGENVALUE + offset
        eigenvalues = [0.7 - low, 0.3, low]
        states = np.stack([rotated_state(rng, eigenvalues) if rotated
                           else np.diag(eigenvalues).astype(complex) for _ in range(5)])
        outcome = self.assert_same_outcome(states)
        if offset < 0:
            assert outcome.endswith("at step 1")

    def test_bound_reads_the_triangle_eigvalsh_reads(self):
        # Within the Hermiticity tolerance the upper coherence is 3e-11
        # smaller: its discs would clear the bound, the lower ones do not.
        lower = 0.5 + 1.01e-9
        state = np.array([[0.5, lower - 3e-11], [lower, 0.5]], dtype=complex)
        assert self.assert_same_outcome(state[None]) == "min eigenvalue -1.010e-09 at step 1"

    def test_rounding_at_a_tight_bound_goes_to_eigvalsh(self):
        # |c| = 0.5 + 1e-9 to rounding, so the discs are tight: the computed
        # bound clears -1e-9 while `eigvalsh` can return just below it.
        c = -0.2872877789594982 + 0.4092257727227336j
        state = np.array([[0.5, np.conj(c)], [c, 0.5]])
        self.assert_same_outcome(state[None])

    def test_first_failure_after_certified_and_uncertified_states(self, monkeypatch):
        good = np.diag([0.6, 0.3, 0.1]).astype(complex)
        block = np.stack([good] * 12)
        block[3] = np.full((3, 3), 1 / 3)
        block[7] = np.diag([1.2, -0.2, 0.0])
        block[9] = np.diag([1.5, -0.5, 0.0])
        stacks = count_eigvalsh_stacks(monkeypatch)
        assert self.assert_same_outcome(block) == "min eigenvalue -2.000e-01 at step 8"
        assert stacks[-1] == 3  # the pure state and the two non-positive ones

    def test_qubit_block_in_integrator_context(self):
        rng = np.random.default_rng(3)
        block = np.stack([rotated_state(rng, [0.8, 0.2]) for _ in range(6)])
        block[4] = rotated_state(rng, [1 - MIN_EIGENVALUE + 1e-12, MIN_EIGENVALUE - 1e-12])
        outcome = self.assert_same_outcome(block, context="integrator step")
        assert outcome.endswith("at integrator step 5")

    def test_nan_coherence(self):
        bad = np.diag([0.7, 0.3, 0.0]).astype(complex)
        bad[0, 1] = bad[1, 0] = np.nan
        assert self.assert_same_outcome(bad[None]) == "non-finite entry at step 1"

    def test_non_finite_states(self):
        good = np.diag([0.7, 0.3, 0.0]).astype(complex)
        block = np.stack([good, good, good, good])
        block[2, 2, 2] = np.inf
        block[3] = np.nan
        assert self.assert_same_outcome(block) == "non-finite entry at step 3"

    @pytest.mark.parametrize("mode", ["original", "effective"])
    def test_relaxation_states_never_reach_eigvalsh(self, monkeypatch, mode):
        # Coherences stay at rounding level in these runs, so the discs
        # certify every state and the checker makes no eigensolve.
        cfg = load_config(CONFIG_DIR / "collision_vs_me_short.cfg")
        stacks = count_eigvalsh_stacks(monkeypatch)
        traj = run_collisions(initial_system_state(cfg), model_params(cfg, n_steps=3000), mode,
                              snapshot_stride=1)
        assert stacks == []
        monkeypatch.undo()
        assert check_outcome(eigvalsh_check_states, traj.snapshot_states[1:]) == pytest.approx(1.0)

    def test_master_equation_states_never_reach_eigvalsh(self, monkeypatch):
        step_map, rho0, dt, tolerances = short_collision_maps()[1].values
        stacks = count_eigvalsh_stacks(monkeypatch)
        propagate(step_map, rho0, 3000, dt, snapshot_stride=0, context="integrator step",
                  **tolerances)
        assert stacks == []


@st.composite
def near_boundary_stacks(draw):
    """Stacks of 2x2 or 3x3 unit-trace states with eigenvalues across
    [-2e-9, 1], rotated by random unitaries from the identity (which the
    discs certify or reject exactly) to far from it, plus anti-Hermitian
    noise below 1e-10."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = st.floats(-2e-9, 2e-9)
    states = []
    for _ in range(n):
        low = draw(st.lists(st.one_of(small, st.floats(0.0, 1.0)), min_size=d - 1, max_size=d - 1))
        angle = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-8), st.floats(0.0, 1.0)))
        noise = draw(st.floats(0.0, 1e-10)) * (rng.standard_normal((d, d))
                                               + 1j * rng.standard_normal((d, d))) / 4
        state = rotated_state(rng, [1.0 - sum(low)] + low, angle)
        states.append(state + (noise - noise.conj().T))
    return np.stack(states)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_boundary_stacks())
def test_certificate_matches_eigvalsh_checker(states):
    expected = check_outcome(eigvalsh_check_states, states)
    assert check_outcome(batch_check_states, states) == expected


def matrix_power_map(h, eta12, tau, substeps, dtype=complex):
    """The runge_kutta collision map built as a 144x144 RK4 step raised to ``substeps``.

    This is the construction the eigenbasis form replaced, kept as its
    oracle; ``dtype=np.clongdouble`` evaluates it in extended precision.
    """
    h = np.asarray(h, dtype=dtype)
    eye = np.eye(12, dtype=dtype)
    liouvillian = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    dt = np.asarray(tau, dtype=dtype).real / substeps
    step = np.eye(144, dtype=dtype)
    term = np.eye(144, dtype=dtype)
    for k in range(1, 5):
        term = term @ liouvillian * (dt / k)
        step = step + term
    full = np.linalg.matrix_power(step, substeps)
    p8 = full.reshape((4, 3) * 4)
    return np.einsum("aiajckdl,cd->ijkl", p8, np.asarray(eta12, dtype=dtype)).reshape(9, 9)


def map_inputs(builder, delta, tau, x1=0.3, x2=-0.2, g=1.0):
    p = ModelParams(delta=delta, x1=x1, x2=x2, tau=tau, g=g)
    eta1, eta2 = ancilla_pair(p)
    return builder(p), eta1.matrix, eta2.matrix


def choi(m):
    """Choi matrix ``sum_kl |k><l| (x) M(|k><l|)`` of a 9x9 map on row-major 3x3 states."""
    return m.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)


class TestRungeKuttaMap:
    @pytest.mark.parametrize("builder, delta, tau, substeps", [
        (build_h_prime, 200.0, 0.5, 100),
        (build_h_prime, 50.0, 2.0, 300),
        (build_h_prime, 2.0, 3.0, 5),
        (build_h_prime, 0.0, 3.0, 7),  # degenerate spectrum
        (build_v, 200.0, 60.0, 10),  # ten-fold zero eigenvalue
    ])
    def test_matches_matrix_power(self, builder, delta, tau, substeps):
        h, eta1, eta2 = map_inputs(builder, delta, tau)
        m = collision_superoperator(h, eta1, eta2, tau, PropagatorChoice("runge_kutta", substeps))
        oracle = matrix_power_map(h, np.kron(eta1, eta2), tau, substeps)
        assert np.max(np.abs(m - oracle)) <= 1e-13

    def test_extended_precision_reference(self):
        # alpha_tau = 0.01 at delta = 200: tau = 2, and the default rule gives 12001 substeps.
        tau = 2.0
        h, eta1, eta2 = map_inputs(build_h_prime, 200.0, tau)
        substeps = default_substeps(h, tau)
        assert substeps == 12001
        m = collision_superoperator(h, eta1, eta2, tau, PropagatorChoice("runge_kutta"))
        reference = matrix_power_map(h, np.kron(eta1, eta2), tau, substeps, dtype=np.clongdouble)
        assert float(np.max(np.abs(m - reference))) <= 1e-12

    @pytest.mark.parametrize("variant", ["spectral", "runge_kutta"])
    @pytest.mark.parametrize("builder, delta, tau", [
        (build_h_prime, 200.0, 60.0),
        (build_h_prime, 0.0, 3.0),
        (build_v, 200.0, 60.0),
    ])
    def test_choi_matrix_is_psd_with_trace_3(self, variant, builder, delta, tau):
        h, eta1, eta2 = map_inputs(builder, delta, tau)
        c = choi(collision_superoperator(h, eta1, eta2, tau, PropagatorChoice(variant)))
        assert np.max(np.abs(c - c.conj().T)) <= 1e-12
        assert abs(np.trace(c) - 3.0) <= 1e-12
        assert np.linalg.eigvalsh(c)[0] >= -1e-12

    @pytest.mark.parametrize("variant", ["spectral", "runge_kutta"])
    def test_rejects_non_hermitian_hamiltonian(self, variant):
        h, eta1, eta2 = map_inputs(build_h_prime, 200.0, 2.0)
        h[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            collision_superoperator(h, eta1, eta2, 2.0, PropagatorChoice(variant))

    def test_unstable_substeps_are_a_numeric_error(self):
        # 1000 substeps of a tau = 60 collision at delta = 200 leave the RK4 stability region.
        h, eta1, eta2 = map_inputs(build_h_prime, 200.0, 60.0)
        with pytest.raises(NumericError, match="not finite"):
            collision_superoperator(h, eta1, eta2, 60.0, PropagatorChoice("runge_kutta", 1000))

    def test_finite_unstable_substeps_name_the_stability_bound(self):
        # One substep of a tau = 60 collision at delta = 200: |theta| reaches about
        # 24 000, far past 2 sqrt(2), yet T4(-i theta) is finite.
        h, eta1, eta2 = map_inputs(build_h_prime, 200.0, 60.0)
        with pytest.raises(NumericError, match=r"^1 runge_kutta substeps are unstable .* "
                                               r"stability bound 2\*sqrt\(2\) = 2.828$"):
            collision_superoperator(h, eta1, eta2, 60.0, PropagatorChoice("runge_kutta", 1))

    def test_default_substeps_share_one_eigendecomposition(self, monkeypatch):
        h, eta1, eta2 = map_inputs(build_h_prime, 200.0, 2.0)
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        m = collision_superoperator(h, eta1, eta2, 2.0, PropagatorChoice("runge_kutta"))
        assert calls == ["eigh"]
        monkeypatch.undo()
        explicit = collision_superoperator(h, eta1, eta2, 2.0,
                                           PropagatorChoice("runge_kutta", default_substeps(h, 2.0)))
        assert np.array_equal(m, explicit)


def mp_collision_map(h, eta12, tau, dps=40):
    """The spectral collision map from a ``dps``-digit `mp.expm` of ``-i h tau`` and the ancilla trace.

    Each double entry of ``h``, ``eta12`` and ``tau`` is taken exactly.  The
    thermal ``eta12`` is diagonal, so ``M[ij, kl] = sum_{a, c} eta_c
    U[ai, ck] U*[aj, cl]`` with ``a`` and ``c`` the joint ancilla index.
    """
    assert np.array_equal(eta12, np.diag(np.diag(eta12)))
    with mp.workdps(dps):
        u = mp.expm(mp.matrix([[mp.mpc(0, -1) * mp.mpc(complex(x)) * mp.mpf(float(tau)) for x in row]
                               for row in h]))
        eta = [mp.mpf(float(x.real)) for x in np.diag(eta12)]
        m = np.empty((3, 3, 3, 3), dtype=complex)
        for i, j, k, l in np.ndindex(3, 3, 3, 3):
            m[i, j, k, l] = complex(mp.fsum(eta[c] * u[3 * a + i, 3 * c + k]
                                            * mp.conj(u[3 * a + j, 3 * c + l])
                                            for a in range(4) for c in range(4)))
    return m.reshape(9, 9)


def reference_map_cases():
    """The four shipped collision configs, the small_batch corners, zero detuning and V."""
    cases = []
    for name in ("collision_vs_me_short", "collision_vs_me_long", "negative_temperature",
                 "beyond_far_off"):
        p = model_params(load_config(CONFIG_DIR / f"{name}.cfg"))
        cases.append(pytest.param(build_h_prime, p, id=name))
    for delta in (150.0, 250.0):
        for alpha_tau in (0.3, 0.01):
            cases.append(pytest.param(build_h_prime, ModelParams(delta, 0.3, -0.2, alpha_tau * delta),
                                      id=f"delta{delta:g}-alpha_tau{alpha_tau:g}"))
    for delta in (0.5, 4.0):
        cases.append(pytest.param(build_h_prime, ModelParams(delta, 0.3, -0.2, 0.05),
                                  id=f"delta{delta:g}-tau0.05"))
    cases.append(pytest.param(build_h_prime, ModelParams(0.0, 0.3, -0.2, 3.0), id="delta0"))
    cases.append(pytest.param(build_v, ModelParams(200.0, 0.3, -0.2, 60.0), id="v-delta200"))
    return cases


@pytest.mark.parametrize("builder, p", reference_map_cases())
def test_spectral_map_matches_extended_precision(builder, p):
    # The map's entries are O(1); the double eigensolve leaves phase errors
    # of about |e| tau * 1e-16, so the longest collisions sit near 1e-12.
    h = builder(p)
    eta1, eta2 = ancilla_pair(p)
    m = collision_superoperator(h, eta1.matrix, eta2.matrix, p.tau, PropagatorChoice())
    reference = mp_collision_map(h, np.kron(eta1.matrix, eta2.matrix), p.tau)
    assert float(np.max(np.abs(m - reference))) <= 2e-12


def map_for(variant, delta, tau, x1, x2, g=1.0, substeps=None):
    h, eta1, eta2 = map_inputs(build_h_prime, delta, tau, x1, x2, g)
    return collision_superoperator(h, eta1, eta2, tau, PropagatorChoice(variant, substeps))


VARIANTS = st.sampled_from(["spectral", "runge_kutta"])
MAP_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@MAP_PROPERTY
@given(delta=st.floats(0.0, 250.0), g=st.floats(0.25, 4.0))
def test_h_prime_conserves_both_charges(delta, g):
    # Q1 = n_A1 - |0><0|_S and Q2 = n_A2 - |1><1|_S are diagonal.  Each bath
    # channel moves one excitation between its ancilla and the system level
    # it addresses, so both charges commute with H' exactly.
    a1, a2, s = np.unravel_index(np.arange(12), (2, 2, 3))
    h = build_h_prime(ModelParams(delta=delta, g=g))
    for q in (a1 - (s == 0), a2 - (s == 1)):
        charge = np.diag(q).astype(complex)
        assert not np.any(h @ charge - charge @ h)


@MAP_PROPERTY
@given(variant=VARIANTS, delta=st.floats(0.0, 250.0), tau=st.floats(0.05, 75.0),
       x1=st.floats(-3.0, 3.0), x2=st.floats(-3.0, 3.0))
def test_collision_map_bath_swap(variant, delta, tau, x1, x2):
    # Swapping the ancillas and relabelling system levels 0 <-> 1 maps H' to
    # itself, so swapping x1 and x2 conjugates the map by that relabelling.
    relabel = np.array([3 * i + j for i in (1, 0, 2) for j in (1, 0, 2)])
    direct = map_for(variant, delta, tau, x1, x2)
    swapped = map_for(variant, delta, tau, x2, x1)
    assert np.max(np.abs(swapped[np.ix_(relabel, relabel)] - direct)) <= 1e-14


@MAP_PROPERTY
@given(variant=VARIANTS, delta=st.floats(0.0, 250.0), g=st.floats(0.25, 4.0),
       c=st.floats(0.25, 4.0), tau=st.floats(0.05, 75.0), x1=st.floats(-3.0, 3.0),
       x2=st.floats(-3.0, 3.0))
def test_collision_map_units_covariance(variant, delta, g, c, tau, x1, x2):
    # H'(c g, c delta) = c H'(g, delta): a collision of tau / c under the
    # scaled Hamiltonian is the same map.  runge_kutta keeps its substep count.
    substeps = default_substeps(build_h_prime(ModelParams(delta=delta, g=g)), tau)
    base = map_for(variant, delta, tau, x1, x2, g, substeps)
    scaled = map_for(variant, c * delta, tau / c, x1, x2, c * g, substeps)
    assert np.max(np.abs(scaled - base)) <= 1e-11


@MAP_PROPERTY
@given(variant=VARIANTS, delta=st.floats(0.0, 250.0), tau=st.floats(0.05, 75.0),
       x1=st.floats(-3.0, 3.0), x2=st.floats(-3.0, 3.0))
def test_collision_map_keeps_the_charge_gibbs_state(variant, delta, tau, x1, x2):
    # eta1 (x) eta2 (x) diag(e^x1, e^x2, 1) is proportional to exp(-x1 Q1 - x2 Q2),
    # which commutes with H', so its system part is a fixed point of the map.
    fixed = np.diag([np.exp(x1), np.exp(x2), 1.0]).astype(complex)
    fixed /= np.trace(fixed)
    m = map_for(variant, delta, tau, x1, x2)
    assert np.max(np.abs(m @ fixed.reshape(9) - fixed.reshape(9))) <= 1e-14


@MAP_PROPERTY
@given(variant=VARIANTS, delta=st.floats(0.0, 250.0), tau=st.floats(0.05, 75.0),
       x1=st.floats(-3.0, 3.0), x2=st.floats(-3.0, 3.0))
def test_collision_map_is_completely_positive_and_trace_preserving(variant, delta, tau, x1, x2):
    c = choi(map_for(variant, delta, tau, x1, x2))
    assert np.max(np.abs(c - c.conj().T)) <= 1e-12
    assert abs(np.trace(c) - 3.0) <= 1e-12
    assert np.linalg.eigvalsh(c)[0] >= -1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(delta=st.floats(20.0, 250.0), alpha_tau=st.floats(0.01, 0.3), x1=st.floats(-3.0, 3.0),
       x2=st.floats(-3.0, 3.0))
def test_spectral_and_runge_kutta_populations_agree(delta, alpha_tau, x1, x2):
    # With the default substep rule, RK4's truncation error over 300
    # collisions stays well inside 1e-5 in the populations.
    p = ModelParams(delta=delta, x1=x1, x2=x2, tau=alpha_tau * delta, n_steps=300)
    runs = [run_collisions(GROUND, p, "original", PropagatorChoice(variant), snapshot_stride=0)
            for variant in ("spectral", "runge_kutta")]
    assert np.max(np.abs(runs[0].populations - runs[1].populations)) <= 1e-5


def extended_iterates(step_map, vec0, n):
    """``vec0, M vec0, ..., M^n vec0`` for the double ``step_map`` iterated in ``np.clongdouble``."""
    m = np.asarray(step_map, dtype=np.clongdouble)
    vec = np.asarray(vec0, dtype=np.clongdouble)
    out = np.empty((n + 1, vec.size), dtype=np.clongdouble)
    out[0] = vec
    for i in range(1, n + 1):
        vec = m @ vec
        out[i] = vec
    return out


def short_collision_maps():
    """The collision map of ``collision_vs_me_short.cfg`` and its effective-qubit ME step map."""
    cfg = load_config(CONFIG_DIR / "collision_vs_me_short.cfg")
    p = model_params(cfg)
    eta1, eta2 = ancilla_pair(p)
    collision_map = collision_superoperator(build_h_prime(p), eta1.matrix, eta2.matrix,
                                            p.tau, PropagatorChoice())
    gen = generator_effective_qubit(derive_rates(p))
    dt = p.tau / me_substep_count(p.tau, gen)
    me_map = rk4_step_matrix(generator_superoperator(gen), dt)
    rho0 = initial_system_state(cfg).matrix
    me_tolerances = dict(step_trace_tol=np.inf, cumulative_trace_tol=TRACE_DRIFT_TOL,
                         hermiticity_tol=HERMITICITY_DRIFT_TOL)
    return [pytest.param(collision_map, rho0, p.tau, STEP_TOLERANCES, id="collision"),
            pytest.param(me_map, np.array(rho0[:2, :2]), dt, me_tolerances, id="master_equation")]


class TestPropagateAccuracy:
    @pytest.mark.parametrize("step_map, rho0, dt, tolerances", short_collision_maps())
    def test_matches_extended_precision_iteration(self, step_map, rho0, dt, tolerances):
        # Repeated products of one map accumulate rounding coherently; every
        # state of a 50 000-step run stays within 1e-13 of the same double
        # map iterated in extended precision.
        n = 50_000
        traj = propagate(step_map, rho0, n, dt, snapshot_stride=1, context="step", **tolerances)
        states = traj.snapshot_states
        reference = extended_iterates(step_map, rho0.reshape(-1), n)
        err = float(np.max(np.abs(states.reshape(n + 1, -1) - reference)))
        assert err <= 1e-13


def loop_propagate(step_map, mat0, n, **tolerances):
    """The per-step loop that block stepping replaced, kept as its oracle.

    Returns every state as an ``(n + 1, d, d)`` stack and checks them
    ``CHECK_BLOCK`` at a time, as the loop did.
    """
    d = mat0.shape[0]
    states = np.empty((n + 1, d * d), dtype=complex)
    states[0] = vec = mat0.reshape(d * d)
    trace = float(np.real(np.trace(mat0)))
    for done in range(0, n, CHECK_BLOCK):
        block = min(CHECK_BLOCK, n - done)
        for i in range(done + 1, done + 1 + block):
            vec = step_map @ vec
            states[i] = vec
        trace = batch_check_states(states[done + 1:done + 1 + block].reshape(block, d, d),
                                   done + 1, trace, **tolerances)
    return states.reshape(n + 1, d, d)


class TestPropagateBlocks:
    @pytest.mark.parametrize("n", [1, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1,
                                   CHECK_BLOCK + 1, 5 * STEP_BLOCK + 77])
    @pytest.mark.parametrize("step_map, rho0, dt, tolerances", short_collision_maps())
    def test_matches_per_step_loop(self, n, step_map, rho0, dt, tolerances):
        traj = propagate(step_map, rho0, n, dt, snapshot_stride=1, context="step", **tolerances)
        expected = loop_propagate(step_map, rho0, n, **tolerances)
        assert traj.snapshot_steps.tolist() == list(range(n + 1))
        assert np.max(np.abs(traj.snapshot_states - expected)) <= 1e-14
        assert np.array_equal(traj.snapshot_states[1].reshape(-1), step_map @ rho0.reshape(-1))
        d = rho0.shape[0]
        assert np.array_equal(traj.populations[:, :d],
                              np.real(np.einsum("nii->ni", traj.snapshot_states)))

    @pytest.mark.parametrize("stride", [1, 7, STEP_BLOCK - 1, STEP_BLOCK + 1, 1000])
    def test_snapshot_steps_across_block_edges(self, stride):
        step_map, rho0, dt, tolerances = short_collision_maps()[0].values
        n = CHECK_BLOCK + 300
        traj = propagate(step_map, rho0, n, dt, snapshot_stride=stride, context="step",
                         **tolerances)
        expected_steps = np.arange(0, n + 1, stride)
        assert np.array_equal(traj.snapshot_steps, expected_steps)
        expected = loop_propagate(step_map, rho0, n, **tolerances)[expected_steps]
        assert np.max(np.abs(traj.snapshot_states - expected)) <= 1e-14

    @pytest.mark.parametrize("fail_step", [STEP_BLOCK, STEP_BLOCK + 1])
    def test_trace_growth_fails_at_the_same_step_as_the_loop(self, fail_step):
        # (1 + eps) I grows the trace by about eps per step, past the
        # cumulative bound 1e-8 first at `fail_step`: the hop state, or the
        # first state computed from it.
        step_map = (1 + CUMULATIVE_TRACE_TOL / (fail_step - 0.5)) * np.eye(9)
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation) as from_loop:
            loop_propagate(step_map, rho0, 2 * STEP_BLOCK, **STEP_TOLERANCES)
        with pytest.raises(InvariantViolation) as from_blocks:
            propagate(step_map, rho0, 2 * STEP_BLOCK, 1.0, snapshot_stride=0, context="step",
                      **STEP_TOLERANCES)
        assert str(from_loop.value).endswith(f"!= 1 at step {fail_step}")
        assert str(from_blocks.value) == str(from_loop.value)


class TestClosedEvolution:
    def test_rabi_transfer_at_quarter_period(self):
        p = ModelParams(delta=50.0)
        alpha = 0.02
        psi0 = joint_basis_state(1, 0, 0)
        traj = closed_evolution(psi0, build_v(p), [0.0, np.pi / (2 * alpha)])
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
        psi0 = joint_basis_state(1, 0, 0)
        traj = closed_evolution(psi0, np.zeros((12, 12)), np.linspace(0, 10, 11))
        assert np.all(traj.populations == traj.populations[0])

    def test_grid_validation(self):
        psi0 = joint_basis_state(0, 0, 0)
        h = np.zeros((12, 12))
        with pytest.raises(ValueError, match="nonnegative"):
            closed_evolution(psi0, h, [-1.0, 0.0])
        with pytest.raises(ValueError, match="increasing"):
            closed_evolution(psi0, h, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="nonempty"):
            closed_evolution(psi0, h, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            closed_evolution(joint_basis_state(1, 0, 0), build_h_prime(ModelParams(delta=50.0)),
                             [0.0, bad])

    @pytest.mark.parametrize("psi0, message", [
        (joint_basis_state(1, 0, 0)[:9], "need 12 start amplitudes"),
        (np.diag(joint_basis_state(1, 0, 0)), "need 12 start amplitudes"),
        (np.sqrt(1 + 2e-10) * joint_basis_state(1, 0, 0), "must have unit norm"),
        (np.sqrt(1 - 2e-10) * joint_basis_state(1, 0, 0), "must have unit norm"),
        (np.r_[np.nan, joint_basis_state(1, 0, 0)[1:]], "must have unit norm"),
    ], ids=["nine-amplitudes", "density-matrix", "norm-high", "norm-low", "nan"])
    def test_rejects_bad_start_amplitudes(self, psi0, message):
        with pytest.raises(ValueError, match=message):
            closed_evolution(psi0, build_h_prime(ModelParams(delta=50.0)), [0.0, 1.0])

    def test_accepts_a_norm_within_the_trace_tolerance(self):
        psi0 = np.sqrt(1 + 5e-11) * joint_basis_state(1, 0, 0)
        traj = closed_evolution(psi0, build_h_prime(ModelParams(delta=50.0)), [0.0, 1.0])
        assert_allclose(traj.populations.sum(axis=1), 1 + 5e-11, rtol=0, atol=1e-15)

    def test_snapshots_are_reduced_states(self):
        p = ModelParams(delta=50.0)
        traj = closed_evolution(joint_basis_state(1, 0, 0), build_h_prime(p),
                                np.linspace(0, 20, 21), snapshot_stride=10)
        assert traj.snapshot_steps.tolist() == [0, 10, 20]
        assert traj.snapshot_states.shape == (3, 3, 3)
        for state in traj.snapshot_states:
            density_operator(state, QUTRIT_SPACE)


@pytest.fixture
def failing_eigh(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)


class TestEigensolveFailure:
    @pytest.mark.parametrize("variant", ["spectral", "runge_kutta"])
    def test_collision_map(self, failing_eigh, variant):
        h, eta1, eta2 = map_inputs(build_h_prime, 200.0, 60.0)
        with pytest.raises(NumericError) as info:
            collision_superoperator(h, eta1, eta2, 60.0, PropagatorChoice(variant))
        assert str(info.value) == "collision propagator failed: Eigenvalues did not converge"

    def test_closed_evolution(self, failing_eigh):
        with pytest.raises(NumericError) as info:
            closed_evolution(joint_basis_state(1, 0, 0), build_h_prime(ModelParams(delta=50.0)),
                             [0.0, 1.0])
        assert str(info.value) == "eigensolve failed: Eigenvalues did not converge"

    @pytest.mark.parametrize("text, message", [
        ("scenario = collision-vs-me\ndelta = 200\nx1 = 0\nx2 = 0\nalpha_tau = 0.3\n",
         "collision propagator failed"),
        ("scenario = collision-vs-me\ndelta = 200\nx1 = 0\nx2 = 0\nalpha_tau = 0.3\n"
         "propagator = runge_kutta\n", "collision propagator failed"),
        ("scenario = verify-elimination\ndelta = 50\n", "eigensolve failed"),
    ], ids=["spectral", "runge_kutta", "closed-evolution"])
    def test_cli_exits_3(self, failing_eigh, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"numeric error: {message}: Eigenvalues did not converge\n"
        assert captured.out == ""


def superposition_state():
    """Start amplitudes of a pure state that is not a basis state, with complex amplitudes."""
    psi = np.zeros(12, dtype=complex)
    psi[basis_index(1, 0, 0)] = 0.6
    psi[basis_index(0, 1, 1)] = 0.8j
    return psi


def full_support_state():
    """Random start amplitudes that overlap every eigenvector of any 12x12 Hamiltonian."""
    rng = np.random.default_rng(17)
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    return psi / np.linalg.norm(psi)


def loop_closed_evolution(psi0, h, t, snapshot_stride):
    """The per-grid-point loop that grid blocks replaced, kept as their oracle.

    It evolves the joint density matrix ``|psi0><psi0|`` and traces the
    ancillas out, independently of the amplitude form.  Returns the
    populations, snapshot steps and snapshot states; the purity check and
    the grid validation are left out.
    """
    evals, q = np.linalg.eigh(h)
    sig0 = q.conj().T @ np.outer(psi0, psi0.conj()) @ q
    pops = np.zeros((len(t), 3))
    snapshot_steps = np.arange(0, len(t), snapshot_stride) if snapshot_stride else np.zeros(0, int)
    snapshot_states = np.empty((len(snapshot_steps), 3, 3), dtype=complex)
    for i, ti in enumerate(t):
        phases = np.exp(-1j * evals * ti)
        sig_t = (phases[:, None] * phases.conj()[None, :]) * sig0
        full = q @ sig_t @ q.conj().T
        reduced = partial_trace_matrix(full, (2, 2, 3), (2,))
        pops[i] = np.real(np.diag(reduced))
        if snapshot_stride and i % snapshot_stride == 0:
            snapshot_states[i // snapshot_stride] = reduced
    return pops, snapshot_steps, snapshot_states


class TestClosedEvolutionBlocks:
    # 63, 64, 65, 129 and stride 64 are the edges of the earlier 64-point blocks.
    @pytest.mark.parametrize("stride", [0, 1, 7, 64, GRID_BLOCK, 100])
    @pytest.mark.parametrize("n_grid", [1, 63, 64, 65, 129, GRID_BLOCK - 1, GRID_BLOCK,
                                        GRID_BLOCK + 1, 2 * GRID_BLOCK + 1, 2000])
    @pytest.mark.parametrize("builder", [build_h_prime, build_h_eff])
    def test_matches_per_point_loop(self, builder, n_grid, stride):
        h = builder(ModelParams(delta=50.0))
        t = np.linspace(0.0, 5.0 / 0.02, n_grid)
        psi0 = joint_basis_state(1, 0, 0)
        traj = closed_evolution(psi0, h, t, snapshot_stride=stride)
        pops, snapshot_steps, snapshot_states = loop_closed_evolution(psi0, h, t, stride)
        assert np.max(np.abs(traj.populations - pops)) <= 1e-15
        assert np.array_equal(traj.snapshot_steps, snapshot_steps)
        assert np.max(np.abs(traj.snapshot_states - snapshot_states), initial=0.0) <= 1e-15

    def test_superposition_matches_per_point_loop(self):
        psi0 = superposition_state()
        h = build_h_prime(ModelParams(delta=50.0))
        t = np.linspace(0.0, 5.0 / 0.02, 2 * GRID_BLOCK + 1)
        traj = closed_evolution(psi0, h, t, snapshot_stride=7)
        pops, _, snapshot_states = loop_closed_evolution(psi0, h, t, 7)
        assert np.max(np.abs(traj.populations - pops)) <= 1e-15
        assert np.max(np.abs(traj.snapshot_states - snapshot_states)) <= 1e-15

    @pytest.mark.parametrize("gamma, first_bad", [(1e-10 / (4 * 99.5), 100), (np.nan, 0)])
    def test_purity_drift_names_first_bad_point(self, monkeypatch, gamma, first_bad):
        # Eigenvalues e - i gamma scale the pure state's purity by exp(-4 gamma t),
        # so on integer times it first leaves 1e-10 at t = 100, inside the first
        # block; the next test places the first bad point in a later block.
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: (real_eigh(a)[0] - 1j * gamma, real_eigh(a)[1]))
        with pytest.raises(InvariantViolation, match=f"at grid point {first_bad}$"):
            closed_evolution(joint_basis_state(1, 0, 0), build_h_prime(ModelParams(delta=50.0)),
                             np.arange(2 * GRID_BLOCK + 1.0))

    def test_purity_drift_past_the_first_block_names_its_grid_point(self, monkeypatch):
        # As above, with the first drift past 1e-10 in the middle of the second block.
        first_bad = GRID_BLOCK + GRID_BLOCK // 2
        gamma = 1e-10 / (4 * (first_bad - 0.5))
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: (real_eigh(a)[0] - 1j * gamma, real_eigh(a)[1]))
        with pytest.raises(InvariantViolation, match=f"at grid point {first_bad}$"):
            closed_evolution(joint_basis_state(1, 0, 0), build_h_prime(ModelParams(delta=50.0)),
                             np.arange(2 * GRID_BLOCK + 1.0))


def full_spectrum_closed_evolution(psi0, h, t, snapshot_stride):
    """`closed_evolution`'s formula over all 12 eigencomponents and the whole
    grid in one product, kept as the bitwise oracle for skipping the ones the
    start state does not occupy and for evaluating the grid in blocks.

    Returns the populations and snapshot states; the purity check and the
    grid validation are left out.
    """
    evals, q = np.linalg.eigh(np.asarray(h, dtype=complex))
    c0 = q.conj().T @ psi0
    psi = ((np.exp(-1j * evals * t[:, None]) * c0) @ q.T).reshape(len(t), 4, 3)
    pops = np.sum(psi.real**2 + psi.imag**2, axis=1)
    kept = psi[::snapshot_stride] if snapshot_stride else psi[:0]
    return pops, np.einsum("nas,nat->nst", kept, kept.conj())


def assert_matches_full_spectrum(psi0, h, t, snapshot_stride=7):
    traj = closed_evolution(psi0, h, t, snapshot_stride=snapshot_stride)
    pops, snapshot_states = full_spectrum_closed_evolution(psi0, h, t, snapshot_stride)
    if len(t) == 1:
        # A one-point grid is a vector-matrix product, which BLAS may sum in
        # an order set by the number of terms, so it agrees to a rounding unit.
        eps = np.finfo(float).eps
        assert np.max(np.abs(traj.populations - pops)) <= eps
        assert np.max(np.abs(traj.snapshot_states - snapshot_states)) <= eps
    else:
        assert np.array_equal(traj.populations, pops)
        assert np.array_equal(traj.snapshot_states, snapshot_states)


CLOSED_STARTS = {
    "basis-100": lambda: joint_basis_state(1, 0, 0),
    "basis-010": lambda: joint_basis_state(0, 1, 0),
    "basis-002": lambda: joint_basis_state(0, 0, 2),
    "superposition": superposition_state,
    "full-support": full_support_state,
}


class TestClosedEvolutionOccupiedComponents:
    @pytest.mark.parametrize("n_grid", [1, GRID_BLOCK - 1, GRID_BLOCK + 1, 2 * GRID_BLOCK + 1, 2000])
    @pytest.mark.parametrize("builder", [build_h_prime, build_h_eff])
    @pytest.mark.parametrize("start", CLOSED_STARTS)
    def test_matches_full_spectrum(self, start, builder, n_grid):
        h = builder(ModelParams(delta=50.0))
        assert_matches_full_spectrum(CLOSED_STARTS[start](), h, np.linspace(0.0, 5.0 / 0.02, n_grid))

    @pytest.mark.parametrize("prefix", [2, GRID_BLOCK + 1, 2 * GRID_BLOCK + 1])
    @pytest.mark.parametrize("builder", [build_h_prime, build_h_eff])
    @pytest.mark.parametrize("start", CLOSED_STARTS)
    def test_grid_prefix_matches_the_full_grid(self, start, builder, prefix):
        # No block of a grid of 2 or more points holds a lone point, so a
        # point's results do not depend on how many points follow it.
        psi0, h = CLOSED_STARTS[start](), builder(ModelParams(delta=50.0))
        t = np.linspace(0.0, 5.0 / 0.02, 2000)
        full = closed_evolution(psi0, h, t, snapshot_stride=7)
        part = closed_evolution(psi0, h, t[:prefix], snapshot_stride=7)
        assert np.array_equal(part.populations, full.populations[:prefix])
        assert np.array_equal(part.snapshot_states, full.snapshot_states[:len(part.snapshot_steps)])

    @pytest.mark.filterwarnings("ignore:delta = .* far-off-resonant:UserWarning")
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(delta=st.floats(2.0, 300.0), g=st.floats(0.2, 3.0),
           builder=st.sampled_from([build_h_prime, build_h_eff]),
           start=st.sampled_from(sorted(CLOSED_STARTS)))
    def test_matches_full_spectrum_over_parameters(self, delta, g, builder, start):
        h = builder(ModelParams(delta=delta, g=g))
        t = np.linspace(0.0, 5.0 * delta / g**2, GRID_BLOCK + 100)
        assert_matches_full_spectrum(CLOSED_STARTS[start](), h, t)

    @pytest.mark.parametrize("builder, start, width", [
        (build_h_prime, "basis-100", 4), (build_h_eff, "basis-100", 2),
        (build_h_prime, "full-support", 12)])
    def test_phases_only_the_occupied_eigencomponents(self, monkeypatch, builder, start, width):
        # The exchange protocol conserves two charges, so a basis start state
        # overlaps 4 eigenvectors of H' and 2 of H_eff; the phase array has a
        # column for each occupied eigenvector and no others.
        psi0, h = CLOSED_STARTS[start](), builder(ModelParams(delta=50.0))
        shapes = []
        real_exp = np.exp

        def recording_exp(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return real_exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", recording_exp)
        closed_evolution(psi0, h, np.linspace(0.0, 100.0, 10))
        assert shapes == [(10, width)]


def mp_closed_populations(h, t, start_index, dps=30):
    """System populations of ``exp(-i h t) |start_index>`` from a ``dps``-digit `mp.eigsy` of ``h``.

    ``h`` is the real symmetric 12x12 joint Hamiltonian in A1 (x) A2 (x) S
    order; each double entry of ``h`` and ``t`` is taken exactly.
    """
    with mp.workdps(dps):
        e, q = mp.eigsy(mp.matrix(h.real.tolist()))
        pops = np.zeros((len(t), 3))
        for n, tn in enumerate(t):
            c = [mp.expj(-e[j] * mp.mpf(float(tn))) * q[start_index, j] for j in range(12)]
            weights = [abs(mp.fsum(q[i, j] * c[j] for j in range(12))) ** 2 for i in range(12)]
            pops[n] = [float(mp.fsum(weights[s::3])) for s in range(3)]
    return pops


class TestClosedEvolutionReference:
    @pytest.mark.parametrize("delta", [25.0, 50.0, 100.0])
    @pytest.mark.parametrize("builder", [build_h_prime, build_h_eff])
    def test_populations_match_extended_precision(self, builder, delta):
        # The verify-elimination grid, 2000 points up to alpha t = 5, read at
        # every 50th point against a 30-digit eigendecomposition.
        p = ModelParams(delta=delta)
        h = builder(p)
        t = np.linspace(0.0, 5.0 / derive_rates(p).alpha, 2000)
        traj = closed_evolution(joint_basis_state(1, 0, 0), h, t)
        reference = mp_closed_populations(h, t[::50], basis_index(1, 0, 0))
        assert np.max(np.abs(traj.populations[::50] - reference)) <= 2e-15


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(delta=st.floats(2.0, 100.0), g=st.floats(0.25, 4.0), c=st.floats(0.25, 4.0),
       t_max=st.floats(1.0, 300.0))
def test_closed_evolution_units_covariance(delta, g, c, t_max):
    # H'(c g, c delta) = c H'(g, delta), so time t / c under the scaled
    # Hamiltonian is time t under the original one.
    t = np.linspace(0.0, t_max, 50)
    start = joint_basis_state(1, 0, 0)
    base = closed_evolution(start, build_h_prime(ModelParams(delta=delta, g=g)), t)
    scaled = closed_evolution(start, build_h_prime(ModelParams(delta=c * delta, g=c * g)), t / c)
    assert np.max(np.abs(scaled.populations - base.populations)) <= 1e-11


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(delta=st.floats(2.0, 100.0), g=st.floats(0.25, 4.0), t_max=st.floats(1.0, 300.0))
def test_closed_evolution_bath_swap(delta, g, t_max):
    # Swapping the ancillas and relabelling system levels 0 <-> 1 maps H' to
    # itself and |1,0,0> to |0,1,1>, so the two runs swap p0 and p1.
    t = np.linspace(0.0, t_max, 50)
    h = build_h_prime(ModelParams(delta=delta, g=g))
    direct = closed_evolution(joint_basis_state(1, 0, 0), h, t).populations
    swapped = closed_evolution(joint_basis_state(0, 1, 1), h, t).populations
    assert np.max(np.abs(swapped - direct[:, [1, 0, 2]])) <= 1e-14


def test_partial_trace_matrix_stack_matches_each_matrix():
    # `each` is the per-matrix contraction that the stacked form replaced.
    dims = (2, 2, 3)
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(5, 12, 12)) + 1j * rng.normal(size=(5, 12, 12))
    for keep in [(2,), (0,), (0, 2)]:
        ket = [i + 3 if i in keep else i for i in range(3)]
        kept = int(np.prod([dims[i] for i in keep]))
        each = np.stack([np.einsum(m.reshape(dims + dims), [0, 1, 2] + ket).reshape(kept, kept)
                         for m in stack])
        assert np.array_equal(partial_trace_matrix(stack, dims, keep), each)
        assert np.array_equal(partial_trace_matrix(stack[0], dims, keep), each[0])


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


def test_trajectory_equality_is_identity():
    entries = dict(steps=[0, 1], times=[0.0, 1.0], populations=[[1.0, 0.0, 0.0]] * 2)
    a, b = Trajectory(**entries), Trajectory(**entries)
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b}) == 2


def test_trajectory_final_window():
    pops = np.column_stack([np.linspace(1, 0, 50), np.linspace(0, 1, 50), np.zeros(50)])
    traj = Trajectory(steps=np.arange(50), times=np.arange(50.0), populations=pops)
    window = traj.final_window_mean(0.1)
    assert window[1] > 0.9
