import numpy as np
import pytest
from numpy.testing import assert_allclose

from collisim import (
    DensityOperator,
    InvariantViolation,
    anticommutator,
    commutator,
    density_operator,
    expm_hermitian_propagator,
    is_hermitian,
    is_unitary,
    kron,
    partial_trace,
    thermal_qubit,
    trace_distance,
    transition,
)
from collisim.collision import as_qutrit_matrix
from collisim.operators import hermiticity_defect

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_oracle(a, b):
    """Index-by-index tensor product, independent of np.kron."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    out[i * db + j, k * db + l] = a[i, k] * b[j, l]
    return out


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestKron:
    def test_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        # |1><1| (x) |0><0| sits at flat index 2 = binary 10
        out = kron(transition(2, 1, 1), transition(2, 0, 0))
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert_allclose(out, expected)

    def test_pauli_x_z(self):
        out = kron(SIGMA_X, SIGMA_Z)
        assert_allclose(out, kron_oracle(SIGMA_X, SIGMA_Z))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = 1
        expected[1, 3] = -1
        expected[2, 0] = 1
        expected[3, 1] = -1
        assert_allclose(out, expected)

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert_allclose(kron(a, b), kron_oracle(a, b), atol=1e-14)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12 * (
                1 + abs(np.trace(a) * np.trace(b))
            )


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        rho_a = random_state(rng, 2)
        rho_b = random_state(rng, 3)
        joint = density_operator(kron(rho_a, rho_b), (("A", 2), ("B", 3)))
        assert_allclose(partial_trace(joint, {"A"}).matrix, rho_a, atol=1e-14)
        assert_allclose(partial_trace(joint, {"B"}).matrix, rho_b, atol=1e-14)

    def test_bell_state_reduces_to_mixed(self):
        # (|00> + |11>)/sqrt(2): either reduced qubit is I/2 (hand computation)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        bell = density_operator(np.outer(psi, psi.conj()), (("A", 2), ("B", 2)))
        for label in ("A", "B"):
            assert_allclose(partial_trace(bell, {label}).matrix, np.eye(2) / 2, atol=1e-15)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        joint = density_operator(random_state(rng, 12), (("A1", 2), ("A2", 2), ("S", 3)))
        out = partial_trace(joint, {"A1", "A2", "S"})
        assert_allclose(out.matrix, joint.matrix)
        assert out.space == joint.space

    def test_composes(self):
        rng = np.random.default_rng(9)
        joint = density_operator(random_state(rng, 12), (("A1", 2), ("A2", 2), ("S", 3)))
        one_by_one = partial_trace(partial_trace(joint, {"A2", "S"}), {"S"})
        at_once = partial_trace(joint, {"S"})
        assert_allclose(one_by_one.matrix, at_once.matrix, atol=1e-12)

    def test_preserves_trace(self):
        rng = np.random.default_rng(13)
        joint = density_operator(random_state(rng, 12), (("A1", 2), ("A2", 2), ("S", 3)))
        reduced = partial_trace(joint, {"A2"})
        assert abs(reduced.trace() - 1.0) < 1e-12

    def test_unknown_label_raises(self):
        rho = thermal_qubit(0.5)
        with pytest.raises(ValueError, match="unknown subsystem label"):
            partial_trace(rho, {"B"})

    def test_empty_keep_raises(self):
        rho = thermal_qubit(0.5)
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(rho, set())


class TestPropagator:
    def test_zero_generator_is_identity(self):
        assert_allclose(expm_hermitian_propagator(np.zeros((3, 3)), 2.5), np.eye(3))

    def test_pauli_rotation(self):
        # exp(-i sx t) = cos(t) I - i sin(t) sx; at t = pi/2 this is -i sx
        u = expm_hermitian_propagator(SIGMA_X, np.pi / 2)
        assert_allclose(u, -1j * SIGMA_X, atol=1e-14)
        t = 0.37
        assert_allclose(
            expm_hermitian_propagator(SIGMA_X, t),
            np.cos(t) * np.eye(2) - 1j * np.sin(t) * SIGMA_X,
            atol=1e-14,
        )

    def test_unitarity_on_random_hermitian(self):
        rng = np.random.default_rng(21)
        for dim in (2, 3, 6, 12):
            for _ in range(10):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                h = a + a.conj().T
                t = rng.uniform(-5, 5)
                u = expm_hermitian_propagator(h, t)
                assert is_unitary(u, 1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            expm_hermitian_propagator(bad, 1.0)


class TestThermalQubit:
    def test_infinite_temperature(self):
        assert_allclose(thermal_qubit(0.0).matrix, np.diag([0.5, 0.5]))

    def test_ground_state_limit(self):
        assert_allclose(thermal_qubit(50.0).matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_inverted_limit(self):
        assert_allclose(thermal_qubit(-50.0).matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_unit_exponent(self):
        # excited population 1/(e + 1)
        pops = thermal_qubit(1.0).populations
        assert_allclose(pops[1], 1.0 / (np.e + 1.0), rtol=1e-15)
        assert_allclose(pops[1], 0.2689414213699951, rtol=1e-12)

    @pytest.mark.parametrize("x", [-3.0, -0.1, 1e-4, 0.7, 5.0, 700.0, -700.0])
    def test_population_ratio(self, x):
        pops = thermal_qubit(x).populations
        if pops[0] > 0 and pops[1] > 0:
            assert_allclose(pops[1] / pops[0], np.exp(-x), rtol=1e-12)
        assert abs(pops.sum() - 1.0) < 1e-15

    def test_rejects_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                thermal_qubit(bad)


class TestCommutators:
    def test_pauli_algebra(self):
        assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=1e-15)

    def test_anticommutator_with_self(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert_allclose(anticommutator(a, a), 2 * a @ a, atol=1e-14)

    def test_identity_commutes(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        assert_allclose(commutator(np.eye(4), a), np.zeros((4, 4)), atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="mismatch"):
            anticommutator(np.eye(2), np.eye(3))


class TestDensityOperator:
    def test_validates_good_state(self):
        rho = density_operator(np.diag([0.25, 0.75]).astype(complex), (("S", 2),))
        assert rho.dim == 2
        assert_allclose(rho.populations, [0.25, 0.75])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            DensityOperator(space=(("S", 3),), matrix=np.eye(2))

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation, match="Hermitian"):
            density_operator(bad, (("S", 2),))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolation, match=r"^state trace 1.200000000000 != 1$"):
            density_operator(np.diag([0.6, 0.6]).astype(complex), (("S", 2),))

    def test_rejects_negative_state(self):
        with pytest.raises(InvariantViolation, match="positive"):
            density_operator(np.diag([1.1, -0.1]).astype(complex), (("S", 2),))

    def test_rejects_nan_coherence(self):
        bad = np.diag([0.6, 0.4]).astype(complex)
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(InvariantViolation, match="Hermitian"):
            density_operator(bad, (("S", 2),))

    def test_rejects_infinite_population(self):
        with pytest.raises(InvariantViolation, match="Hermitian"):
            density_operator(np.diag([np.inf, 0.0]).astype(complex), (("S", 2),))

    def test_tolerates_1e9_negativity(self):
        mat = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        density_operator(mat, (("S", 2),))

    def test_uncertified_pure_state_passes(self):
        # Large coherences put every Gershgorin disc below zero; `eigvalsh` decides.
        psi = np.full(12, 1 / np.sqrt(12), dtype=complex)
        density_operator(np.outer(psi, psi.conj()), (("A1", 2), ("A2", 2), ("S", 3)))

    @pytest.mark.parametrize("offset", [-1e-13, 1e-13])
    def test_positivity_verdict_is_eigvalsh_at_the_bound(self, offset):
        u = expm_hermitian_propagator(SIGMA_X + 0.3 * SIGMA_Z, 0.4)
        low = -1e-9 + offset
        mat = (u * [1.0 - low, low]) @ u.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        min_eig = np.linalg.eigvalsh(mat)[0]
        if min_eig >= -1e-9:
            density_operator(mat, (("S", 2),))
        else:
            with pytest.raises(InvariantViolation) as err:
                density_operator(mat, (("S", 2),))
            assert str(err.value) == f"state not positive: min eigenvalue {min_eig:.3e}"
        assert (min_eig >= -1e-9) == (offset > 0)

    def test_matrix_is_read_only(self):
        rho = thermal_qubit(1.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_hermiticity_unitarity_predicates(self):
        assert is_hermitian(SIGMA_Y, 1e-15)
        assert not is_hermitian(1j * SIGMA_X + np.eye(2), 1e-10)
        assert is_unitary(SIGMA_X, 1e-15)
        assert not is_unitary(2 * np.eye(2), 1e-10)


def full_matrix_defect(a):
    """``max |a - a^H|`` over every entry: the oracle for `hermiticity_defect`."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(a - np.swapaxes(a, -1, -2).conj()), axis=(-2, -1))


SPECIAL_ENTRIES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])


@pytest.mark.parametrize("d", [1, 2, 3, 12])
def test_hermiticity_defect_equals_full_matrix_defect(d):
    rng = np.random.default_rng(d)
    for trial in range(60):
        a = rng.normal(size=(50, d, d)) + 1j * rng.normal(size=(50, d, d))
        if trial % 3:  # Hermitian, or Hermitian up to a small defect
            a = 0.5 * (a + np.swapaxes(a, -1, -2).conj()) + (trial % 3 - 1) * 1e-12 * a
        for part in (a.real, a.imag):
            hit = rng.random(a.shape) < 0.1
            part[hit] = rng.choice(SPECIAL_ENTRIES, hit.sum())
        defect = hermiticity_defect(a)
        assert defect.shape == (50,)
        assert np.array_equal(defect, full_matrix_defect(a), equal_nan=True)
        assert np.array_equal(hermiticity_defect(a.reshape(5, 10, d, d)),
                              full_matrix_defect(a).reshape(5, 10), equal_nan=True)
        assert np.array_equal(hermiticity_defect(a[0]), full_matrix_defect(a[0]), equal_nan=True)


def test_hermiticity_defect_of_a_real_infinite_diagonal_is_nan():
    # |a_ii - conj(a_ii)| = |inf - inf|; 2 |Im a_ii| would read 0 and pass.
    assert np.isnan(hermiticity_defect(np.diag([np.inf, 0.5]).astype(complex)))


def test_trace_distance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.5, 0.5]).astype(complex)
    assert_allclose(trace_distance(a, b), 0.5, atol=1e-14)
    assert trace_distance(a, a) == 0.0


def random_states(rng, n, d):
    x = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    rho = x @ x.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def test_trace_distance_batched_equals_pairwise():
    rng = np.random.default_rng(5)
    a, b = random_states(rng, 40, 3), random_states(rng, 40, 3)
    batched = trace_distance(a, b)
    assert batched.shape == (40,)
    assert batched.tolist() == [trace_distance(x, y) for x, y in zip(a, b)]
    # one matrix broadcast against the whole stack
    assert trace_distance(a, b[0]).tolist() == [trace_distance(x, b[0]) for x in a]


def test_trace_distance_batched_padded_qubits():
    rng = np.random.default_rng(6)
    a, q = random_states(rng, 40, 3), random_states(rng, 40, 2)
    padded = as_qutrit_matrix(q)
    assert padded.shape == (40, 3, 3)
    assert np.all(padded[:, 2, :] == 0) and np.all(padded[:, :, 2] == 0)
    expected = [trace_distance(x, as_qutrit_matrix(y)) for x, y in zip(a, q)]
    assert trace_distance(a, padded).tolist() == expected


def test_trace_distance_single_pair_is_float():
    rng = np.random.default_rng(7)
    a, b = random_states(rng, 2, 3)
    assert type(trace_distance(a, b)) is float
