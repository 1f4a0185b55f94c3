import importlib
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from collisim import (
    InvariantViolation,
    ModelParams,
    ancilla_pair,
    density_operator,
    kron,
    thermal_qubit,
    trace_distance,
    transition,
)
import collisim
from collisim import errors, operators
from collisim.collision import as_qutrit_matrix
from collisim.errors import CERT_SLACK, COLLISION_BOUNDS, INTEGRATOR_BOUNDS, MIN_EIGENVALUE
from collisim.operators import (_disc_layout, batch_check_states, fold, hermiticity_defect,
                                partial_trace_matrix, require_hermitian)

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


def np_kron_chain(*ops):
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def special_operand(rng, dim, dtype=complex):
    """A random dim x dim operand salted with NaN, signed zeros, infinities and subnormals."""
    special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2e-310, 1e-300, -3.5])
    if dtype is float:
        return rng.choice(special, (dim, dim))
    z = np.empty((dim, dim), dtype=complex)
    z.real, z.imag = rng.choice(special, (2, dim, dim))
    return z


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


class TestKronBits:
    """`kron` gives the bits of numpy's ``np.kron``, whatever the entries."""

    @pytest.fixture(autouse=True)
    def quiet_special_values(self):
        with np.errstate(all="ignore"):  # inf * 0 and friends are the point here
            yield

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 2, 3, 2)])
    def test_factor_chains(self, dims):
        rng = np.random.default_rng(len(dims))
        for _ in range(20):
            ops = [special_operand(rng, d) for d in dims]
            assert same_bits(kron(*ops), np_kron_chain(*ops))
            ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims]
            assert same_bits(kron(*ops), np_kron_chain(*ops))

    @pytest.mark.parametrize("first, second", [(complex, float), (float, complex)])
    def test_complex_times_real(self, first, second):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = special_operand(rng, 3, first), special_operand(rng, 2, second)
            assert same_bits(kron(a, b), np.kron(a, b))

    def test_transposed_operands(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, g = special_operand(rng, 3), special_operand(rng, 2)
            assert not h.T.flags.c_contiguous
            assert same_bits(kron(h.T, g.T), np.kron(h.T, g.T))
            assert same_bits(kron(g, h.T, g.conj()), np_kron_chain(g, h.T, g.conj()))


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
        joint = kron(rho_a, rho_b)
        assert_allclose(partial_trace_matrix(joint, (2, 3), (0,)), rho_a, atol=1e-14)
        assert_allclose(partial_trace_matrix(joint, (2, 3), (1,)), rho_b, atol=1e-14)

    def test_bell_state_reduces_to_mixed(self):
        # (|00> + |11>)/sqrt(2): either reduced qubit is I/2 (hand computation)
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        bell = np.outer(psi, psi.conj())
        for keep in (0, 1):
            assert_allclose(partial_trace_matrix(bell, (2, 2), (keep,)), np.eye(2) / 2, atol=1e-15)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        joint = random_state(rng, 12)
        assert_allclose(partial_trace_matrix(joint, (2, 2, 3), (0, 1, 2)), joint)

    def test_composes(self):
        rng = np.random.default_rng(9)
        joint = random_state(rng, 12)
        one_by_one = partial_trace_matrix(partial_trace_matrix(joint, (2, 2, 3), (1, 2)), (2, 3), (1,))
        at_once = partial_trace_matrix(joint, (2, 2, 3), (2,))
        assert_allclose(one_by_one, at_once, atol=1e-12)

    def test_preserves_trace(self):
        rng = np.random.default_rng(13)
        joint = random_state(rng, 12)
        reduced = partial_trace_matrix(joint, (2, 2, 3), (1,))
        assert abs(np.trace(reduced) - 1.0) < 1e-12


class TestThermalQubit:
    def test_infinite_temperature(self):
        assert_allclose(thermal_qubit(0.0), np.diag([0.5, 0.5]))

    def test_ground_state_limit(self):
        assert_allclose(thermal_qubit(50.0), np.diag([1.0, 0.0]), atol=1e-15)

    def test_inverted_limit(self):
        assert_allclose(thermal_qubit(-50.0), np.diag([0.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("x, p1", [(1.0, 0.2689414213699951), (-1.0, 0.7310585786300049)])
    def test_unit_exponent(self, x, p1):
        # excited population 1/(e^x + 1), inverted for x < 0
        pops = thermal_qubit(x).diagonal().real
        assert_allclose(pops[1], 1.0 / (np.exp(x) + 1.0), rtol=1e-15)
        assert_allclose(pops[1], p1, rtol=1e-12)
        assert (pops[1] > pops[0]) == (x < 0)

    @pytest.mark.parametrize("x", [-3.0, -0.1, 1e-4, 0.7, 5.0, 700.0, -700.0])
    def test_population_ratio(self, x):
        pops = thermal_qubit(x).diagonal().real
        if pops[0] > 0 and pops[1] > 0:
            assert_allclose(pops[1] / pops[0], np.exp(-x), rtol=1e-12)
        assert abs(pops.sum() - 1.0) < 1e-15

    def test_rejects_non_finite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                thermal_qubit(bad)


class TestDensityOperator:
    def test_validates_good_state(self):
        mat = np.diag([0.25, 0.75])
        rho = density_operator(mat, (("S", 2),))
        assert rho.dtype == complex and rho.shape == (2, 2)
        assert_allclose(rho.diagonal().real, [0.25, 0.75])
        mat[0, 0] = 0.5
        assert rho[0, 0] == 0.25  # a copy, not a view

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^matrix shape \(2, 2\) does not match space "
                                             r"\(\('S', 3\),\) \(total dim 3\)$"):
            density_operator(np.eye(2) / 2, (("S", 3),))

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation, match=r"^Hermiticity defect 5.000e-01 at start state 0$"):
            density_operator(bad, (("S", 2),))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolation, match=r"^trace 1.200000000000 != 1 at start state 0$"):
            density_operator(np.diag([0.6, 0.6]).astype(complex), (("S", 2),))

    def test_reports_trace_before_hermiticity(self):
        bad = np.array([[0.6, 0.5], [0.0, 0.6]], dtype=complex)
        with pytest.raises(InvariantViolation, match=r"^trace 1.200000000000 != 1 at start state 0$"):
            density_operator(bad, (("S", 2),))

    def test_rejects_negative_state(self):
        with pytest.raises(InvariantViolation, match=r"^min eigenvalue -1.000e-01 at start state 0$"):
            density_operator(np.diag([1.1, -0.1]).astype(complex), (("S", 2),))

    def test_rejects_nan_coherence(self):
        bad = np.diag([0.6, 0.4]).astype(complex)
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(InvariantViolation, match=r"^non-finite entry at start state 0$"):
            density_operator(bad, (("S", 2),))

    def test_rejects_infinite_population(self):
        with pytest.raises(InvariantViolation, match=r"^non-finite entry at start state 0$"):
            density_operator(np.diag([np.inf, 0.0]).astype(complex), (("S", 2),))

    @pytest.mark.parametrize("offset", [-1.1e-10, -0.9e-10, 0.9e-10, 1.1e-10])
    def test_trace_bound_is_1e10(self, offset):
        mat = np.diag([0.5, 0.5 + offset]).astype(complex)
        if abs(offset) < 1e-10:
            density_operator(mat, (("S", 2),))
        else:
            with pytest.raises(InvariantViolation) as err:
                density_operator(mat, (("S", 2),))
            assert str(err.value) == f"trace {1 + offset:.12f} != 1 at start state 0"

    @pytest.mark.parametrize("defect", [0.9e-10, 1.1e-10])
    def test_hermiticity_bound_is_1e10(self, defect):
        mat = np.array([[0.5, 0.0], [defect, 0.5]], dtype=complex)
        if defect < 1e-10:
            density_operator(mat, (("S", 2),))
        else:
            with pytest.raises(InvariantViolation,
                               match=r"^Hermiticity defect 1.100e-10 at start state 0$"):
                density_operator(mat, (("S", 2),))

    def test_checks_through_the_batch_checker(self, monkeypatch):
        calls = []
        monkeypatch.setattr(operators, "batch_check_states", lambda *args: calls.append(args))
        density_operator(np.diag([0.25, 0.75]), (("S", 2),))
        (states, first_step, prev_trace, bounds), = calls
        assert states.shape == (1, 2, 2) and (first_step, prev_trace) == (0, 1.0)
        assert bounds is errors.START_BOUNDS

    def test_tolerates_1e9_negativity(self):
        mat = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        density_operator(mat, (("S", 2),))

    def test_uncertified_pure_state_passes(self):
        # Large coherences put every Gershgorin disc below zero; `eigvalsh` decides.
        psi = np.full(12, 1 / np.sqrt(12), dtype=complex)
        density_operator(np.outer(psi, psi.conj()), (("A1", 2), ("A2", 2), ("S", 3)))

    @pytest.mark.parametrize("offset", [-1e-13, 1e-13])
    def test_positivity_verdict_is_eigvalsh_at_the_bound(self, offset):
        evals, vecs = np.linalg.eigh(SIGMA_X + 0.3 * SIGMA_Z)
        u = (vecs * np.exp(-1j * evals * 0.4)) @ vecs.conj().T  # exp(-0.4i (sx + 0.3 sz))
        low = -1e-9 + offset
        mat = (u * [1.0 - low, low]) @ u.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        min_eig = np.linalg.eigvalsh(mat)[0]
        if min_eig >= -1e-9:
            density_operator(mat, (("S", 2),))
        else:
            with pytest.raises(InvariantViolation) as err:
                density_operator(mat, (("S", 2),))
            assert str(err.value) == f"min eigenvalue {min_eig:.3e} at start state 0"
        assert (min_eig >= -1e-9) == (offset > 0)

    def test_matrix_is_read_only(self):
        checked = density_operator(np.diag([0.25, 0.75]), (("S", 2),))
        for rho in (thermal_qubit(1.0), *ancilla_pair(ModelParams(delta=50.0, x1=1.0)), checked):
            with pytest.raises(ValueError, match="read-only"):
                rho[0, 0] = 2.0

    def test_hermiticity_predicate(self):
        assert require_hermitian(SIGMA_Y, 1e-15) is SIGMA_Y
        with pytest.raises(ValueError, match=r"^generator is not Hermitian \(max deviation "
                                             r"2\.000e\+00 > 1e-10\)$"):
            require_hermitian(1j * SIGMA_X + np.eye(2), 1e-10)


class TestBounds:
    def test_records_keep_the_values_of_the_constants_they_replace(self):
        # collision: STEP_TRACE_TOL, CUMULATIVE_TRACE_TOL, STEP_HERMITICITY_TOL;
        # integrator: an unbounded step, TRACE_DRIFT_TOL, HERMITICITY_DRIFT_TOL
        # start state: an unbounded step, TRACE_TOL, HERMITICITY_TOL
        c, m, s = errors.COLLISION_BOUNDS, errors.INTEGRATOR_BOUNDS, errors.START_BOUNDS
        assert (c.step_trace, c.cumulative_trace, c.hermiticity, c.context) == (
            1e-10, 1e-8, 1e-10, "step")
        assert (m.step_trace, m.cumulative_trace, m.hermiticity, m.context) == (
            math.inf, 1e-9, 1e-12, "integrator step")
        assert (s.step_trace, s.cumulative_trace, s.hermiticity, s.context) == (
            math.inf, 1e-10, 1e-10, "start state")
        assert errors.Bounds._fields == ("step_trace", "cumulative_trace", "hermiticity", "context")
        assert (errors.TRACE_TOL, errors.HERMITICITY_TOL, errors.MIN_EIGENVALUE, errors.CERT_SLACK,
                errors.PURITY_DRIFT_TOL, errors.HAMILTONIAN_HERMITICITY_TOL) == (
            1e-10, 1e-10, -1e-9, 1e-12, 1e-10, 1e-12)

    def test_every_bound_is_the_one_defined_in_errors(self):
        # trajectory.POPULATION_SUM_TOL goes with Trajectory.validate, which no run calls
        elsewhere = {("trajectory", "POPULATION_SUM_TOL")}
        bound = re.compile(r"_TOL(ERANCES)?$|^MIN_EIGENVALUE$|^CERT_SLACK$")
        seen = set()
        for info in pkgutil.iter_modules(collisim.__path__):
            module = importlib.import_module(f"collisim.{info.name}")
            for name, value in vars(module).items():
                if (bound.search(name) or isinstance(value, errors.Bounds)) and (
                        info.name, name) not in elsewhere:
                    assert value is getattr(errors, name, None), f"{info.name}.{name}"
                    seen.add((info.name, name))
        assert {("collision", "COLLISION_BOUNDS"), ("lindblad", "INTEGRATOR_BOUNDS"),
                ("operators", "MIN_EIGENVALUE"), ("config", "TRACE_TOL")} <= seen


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
        one = hermiticity_defect(a[:1])  # a stack of one takes the 2-D path's gathered max
        assert one.shape == (1,) and np.array_equal(one, full_matrix_defect(a[:1]), equal_nan=True)


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


# ---------------------------------------------------------------------------
# `fold` and the reductions it replaced

FOLD_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                     2.2e-308, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def nan_blind_bits(x):
    """The bits of ``x`` with every NaN made the same NaN: the sign of a zero
    and where NaNs sit count, a NaN's sign bit does not."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


@st.composite
def fold_operands(draw):
    """A stack whose last axis is one of the lengths `fold` serves, or 1-D."""
    n = draw(st.integers(1, 20))
    shape = draw(st.sampled_from([(n, k) for k in range(1, 7)] + [(n, 4, 3), (n,)]))
    a = draw(hnp.arrays(np.float64, shape, elements=FOLD_ENTRIES))
    return np.moveaxis(a, 1, -1) if a.ndim == 3 else a  # the ancilla sum of closed evolution


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(ufunc=st.sampled_from([np.maximum, np.minimum, np.add]), a=fold_operands())
def test_fold_has_the_bits_of_reduce(ufunc, a):
    with np.errstate(all="ignore"):
        folded, reduced = fold(ufunc, a), ufunc.reduce(a, axis=-1)
    assert folded.shape == reduced.shape
    if a.ndim == 1:  # one reduce call: every bit, a NaN's sign included
        assert np.float64(folded).view(np.uint64) == np.float64(reduced).view(np.uint64)
    else:
        assert np.array_equal(nan_blind_bits(folded), nan_blind_bits(reduced))


def test_fold_keeps_the_zero_sign_of_a_sum():
    # numpy sums from the identity +0, so -0 + -0 is +0; min and max keep -0
    zeros = np.full((3, 4), -0.0)
    assert not np.signbit(fold(np.add, zeros)).any()
    assert np.signbit(fold(np.maximum, zeros)).all() and np.signbit(fold(np.minimum, zeros)).all()


@pytest.mark.parametrize("k", [8, 12])
def test_fold_sums_long_rows_as_numpy_does(k):
    # numpy sums 8 or more entries pairwise, not in index order
    a = np.random.default_rng(k).normal(size=(500, k)) * 10.0 ** np.arange(-k, k, 2)
    assert same_bits(fold(np.add, a), np.sum(a, axis=-1))


def head_hermiticity_defect(a):
    """`hermiticity_defect` as one gathered ``np.max(axis=-1)``: its oracle."""
    d = a.shape[-1]
    read, mirror, _ = _disc_layout(d)
    flat = a.reshape(a.shape[:-2] + (d * d,))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(flat[..., read] - flat[..., mirror].conj()), axis=-1)


def head_trace_distance(a, b):
    """`trace_distance` with an ``np.sum(axis=-1)`` over the eigenvalues: its oracle."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    evals = np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, -1, -2).conj()))
    dist = 0.5 * np.sum(np.abs(evals), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


@pytest.mark.parametrize("d", [2, 3])
def test_hermiticity_defect_has_the_bits_of_one_gathered_max(d):
    rng = np.random.default_rng(10 + d)
    for trial in range(40):
        a = rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d))
        a = 0.5 * (a + np.swapaxes(a, -1, -2).conj()) + (trial % 3) * 1e-10 * a
        for part in (a.real, a.imag):
            hit = rng.random(a.shape) < 0.05 * (trial % 2)
            part[hit] = rng.choice(SPECIAL_ENTRIES, hit.sum())
        assert same_bits(hermiticity_defect(a), head_hermiticity_defect(a))
        assert same_bits(np.float64(hermiticity_defect(a[0])), np.float64(head_hermiticity_defect(a[0])))


@pytest.mark.parametrize("d", [2, 3])
def test_trace_distance_has_the_bits_of_one_sum(d):
    rng = np.random.default_rng(20 + d)
    a, b = random_states(rng, 200, d), random_states(rng, 200, d)
    assert same_bits(trace_distance(a, b), head_trace_distance(a, b))
    assert same_bits(trace_distance(a, b[0]), head_trace_distance(a, b[0]))
    for x, y in zip(a[:20], b[:20]):
        assert trace_distance(x, y) == head_trace_distance(x, y)


def head_reduce(ufunc, a):
    """The expressions `fold` replaced in the checks: ``np.min(axis=1)`` for the
    Gershgorin bound, ``np.max(axis=-1)`` and ``np.sum(axis=-1)`` elsewhere."""
    if ufunc is np.minimum:
        return np.min(a, axis=1)
    return (np.max if ufunc is np.maximum else np.sum)(a, axis=-1)


def check_result(states, bounds):
    """The trace `batch_check_states` returns from step 1, or its error message."""
    try:
        return batch_check_states(states, 1, 1.0, bounds)
    except InvariantViolation as err:
        return str(err)


def head_check_result(states, bounds):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(operators, "fold", head_reduce)
        m.setattr(operators, "hermiticity_defect", head_hermiticity_defect)
        return check_result(states, bounds)


def ulps_around(x, k=2):
    """``x`` and its ``k`` nearest floats on each side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def states_at_the_bounds(d):
    """d x d states at, and one and two ulps either side of, each bound the
    checks test; states with non-finite entries; and pure states, whose
    Gershgorin discs fail, so that they reach `eigvalsh`."""
    def state(*diag):
        return np.diag(list(diag) + [0.0] * (d - len(diag))).astype(complex)

    out = []
    for tol in (COLLISION_BOUNDS.step_trace, INTEGRATOR_BOUNDS.cumulative_trace,
                COLLISION_BOUNDS.cumulative_trace):
        out += [state(tr) for tr in ulps_around(1.0 + tol) + ulps_around(1.0 - tol)]  # exact traces
    for tol in (COLLISION_BOUNDS.hermiticity, INTEGRATOR_BOUNDS.hermiticity):
        for t in ulps_around(tol):
            off, diag = state(0.6, 0.4), state(0.6, 0.4)
            off[0, 1] = t  # defect |t - conj(0)|
            diag[1, 1] += 0.5j * t  # defect |2i Im|
            out += [off, diag]
    c = 2.0**-10  # row 0 of [[p, c], [c, 1 - p]] has the bound p - c, exact near c
    for p in ulps_around(c + (MIN_EIGENVALUE + CERT_SLACK)):
        rho = state(p, 1.0 - p)
        rho[0, 1] = rho[1, 0] = c
        out.append(rho)
    out += [state(1.0 - e, e) for e in ulps_around(MIN_EIGENVALUE)]
    for bad in (np.nan, np.inf, -np.inf):
        coherence, population = state(0.6, 0.4), state(0.6, 0.4)
        coherence[0, 1] = coherence[1, 0] = bad
        population[d - 1, d - 1] = bad
        out += [coherence, population, np.full((d, d), bad, dtype=complex)]
    rng = np.random.default_rng(d)
    for _ in range(8):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        out.append(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    return out


@pytest.mark.parametrize("bounds", [
    COLLISION_BOUNDS,
    COLLISION_BOUNDS._replace(step_trace=np.inf),  # reaches the cumulative bound
    INTEGRATOR_BOUNDS,
], ids=["collision", "collision-cumulative", "integrator"])
@pytest.mark.parametrize("d", [2, 3])
def test_checks_give_the_results_of_one_reduction_per_axis(d, bounds):
    good = np.diag([0.6, 0.4] + [0.0] * (d - 2)).astype(complex)
    results = set()
    for rho in states_at_the_bounds(d):
        for states in (rho[None], np.stack([good, good, rho, good])):
            result = check_result(states, bounds)
            assert result == head_check_result(states, bounds)
            results.add(type(result))
    assert results == {str, float}  # both verdicts occur
