"""Unit tests for the complex-matrix kernel."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from slhnet import matkit, network

from support import haar_unitary, random_hermitian


def _complex_matrices(n):
    reals = arrays(np.float64, (n, n), elements=st.floats(-10, 10))
    return st.tuples(reals, reals).map(lambda ab: ab[0] + 1j * ab[1])


def _csc(m) -> matkit._Compressed:
    """The CSC of the nonzero entries of a dense m, as ``sparse.csc_array(m)`` holds them."""
    m = np.asarray(m, dtype=complex)
    rows, cols = np.nonzero(m)
    return matkit._Compressed.of_entries("csc", rows, cols, m[rows, cols], m.shape)


class TestSolve:
    def test_identity(self):
        rhs = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.array_equal(matkit.solve(np.eye(2), rhs), rhs)

    def test_scalar(self):
        assert matkit.solve(np.array([[2.0]]), np.array([[1.0]]))[0, 0] == 0.5

    def test_zero_pivot_raises(self):
        with pytest.raises(matkit.SingularMatrix):
            matkit.solve(np.array([[0.0]]), np.array([[1.0]]))

    def test_rank_deficient_raises(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(matkit.SingularMatrix):
            matkit.solve(m, np.eye(2))

    def test_empty_system(self):
        out = matkit.solve(np.zeros((0, 0)), np.zeros((0, 3)))
        assert out.shape == (0, 3)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            matkit.solve(np.zeros((2, 3)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            matkit.solve(np.eye(2), np.zeros((3, 1)))

    def test_residual_well_conditioned(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = haar_unitary(rng, n) + 0.1 * random_hermitian(rng, n)
            residual = matkit.max_abs(m @ matkit.solve(m, np.eye(n)) - np.eye(n))
            assert residual <= 1e-10


def _random_system(rng, n, nrhs, scale):
    m = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rhs = rng.standard_normal((n, nrhs)) + 1j * rng.standard_normal((n, nrhs))
    return m, rhs


class TestFactor:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), nrhs=st.integers(0, 6),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), vector=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_solve_matches_scipy_bit_for_bit(self, seed, n, nrhs, scale, vector):
        m, rhs = _random_system(np.random.default_rng(seed), n, nrhs, scale)
        if vector and nrhs:
            rhs = rhs[:, 0]
        got = matkit.solve(m, rhs)
        want = lu_solve(lu_factor(m), rhs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), nrhs=st.integers(0, 6),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), vector=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_transposed_solve_on_both_backends(self, seed, n, nrhs, scale, vector):
        rng = np.random.default_rng(seed)
        m, rhs = _random_system(rng, n, nrhs, scale)
        m[rng.random((n, n)) < 0.5] = 0.0
        m[np.arange(n), np.arange(n)] += 3 * scale * n    # nonsingular, half of it zeros
        if vector and nrhs:
            rhs = rhs[:, 0]
        dense = matkit.factor(m).solve(rhs, trans=1)
        assert dense.tobytes() == lu_solve(lu_factor(m), rhs, trans=1).tobytes()
        split = matkit.factor(_csc(m)).solve(rhs, trans=1)
        want = np.linalg.solve(m.T, rhs)
        bound = 1e-12 * np.linalg.cond(m, 1) * max(1.0, matkit.max_abs(want))
        for got in (dense, split):
            assert got.shape == rhs.shape and matkit.max_abs(got - want) <= bound

    def test_transposed_solve_of_empty_right_hand_side(self):
        m = np.array([[2.0, 1j], [0.0, 1.0]])
        for given_m in (m, _csc(m)):
            lu = matkit.factor(given_m)
            assert lu.solve(np.zeros((2, 0)), trans=1).shape == (2, 0)
            # Mᵀ, not M†, which would give [1, 2i]
            assert np.array_equal(lu.solve(np.array([2.0, 1j]), trans=1), [1.0, 0.0])
        assert matkit.solve(np.zeros((0, 0)), np.zeros((0, 3)), trans=1).shape == (0, 3)

    def test_one_factor_serves_many_solves(self):
        m, rhs = _random_system(np.random.default_rng(3), 6, 4, 1.0)
        lu = matkit.factor(m)
        assert lu.solve(rhs).tobytes() == matkit.solve(m, rhs).tobytes()
        assert lu.solve(rhs[:, 1:3]).tobytes() == matkit.solve(m, rhs[:, 1:3]).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_input_raises_value_error(self, bad):
        m, rhs = _random_system(np.random.default_rng(5), 3, 2, 1.0)
        m_bad, rhs_bad = m.copy(), rhs.copy()
        m_bad[1, 2] = bad
        rhs_bad[2, 1] = bad
        for args in ((m_bad, rhs), (m, rhs_bad)):
            with pytest.raises(ValueError) as info:
                matkit.solve(*args)
            assert not isinstance(info.value, matkit.SingularMatrix)

    @pytest.mark.parametrize("m", [np.zeros((1, 1)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                                   np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])])
    def test_rank_deficient_raises(self, m):
        with pytest.raises(matkit.SingularMatrix):
            matkit.factor(m)

    def test_empty_matrix(self):
        lu = matkit.factor(np.zeros((0, 0)))
        assert lu.rcond() == 1.0
        assert lu.solve(np.zeros((0, 2))).shape == (0, 2)

    def test_pivot_rule_carries_infinite_condition(self):
        with pytest.raises(matkit.SingularMatrix) as info:
            matkit.factor(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert info.value.condition == np.inf

    def test_condition_gate_rejects_unit_pivots(self):
        # unit upper triangular with −1 above the diagonal: every pivot is 1,
        # but ‖M⁻¹‖₁ = 2^(n−1), so κ₁ = n·2^(n−1) ≈ 4e13 at n = 40
        n = 40
        m = np.eye(n) - np.triu(np.ones((n, n)), 1)
        with pytest.raises(matkit.SingularMatrix) as info:
            matkit.factor(m)
        assert info.value.condition == pytest.approx(n * 2.0 ** (n - 1), rel=1e-6)
        accepted = matkit.factor(m[:30, :30])   # κ₁ = 30·2^29 ≈ 1.6e10
        assert accepted.rcond() == pytest.approx(1 / (30 * 2.0 ** 29), rel=1e-6)

    def test_inverse_norm(self):
        assert matkit.factor(np.diag([1.0, 2.0, 4.0])).inverse_norm() == 1.0
        assert matkit.factor(np.zeros((0, 0))).inverse_norm() == 0.0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           log_cond=st.floats(0.0, 11.0))
    @settings(max_examples=100, deadline=None)
    def test_rcond_within_factor_n_of_exact(self, seed, n, log_cond):
        rng = np.random.default_rng(seed)
        m = haar_unitary(rng, n) @ np.diag(np.logspace(0, -log_cond, n)) @ haar_unitary(rng, n)
        exact = 1.0 / np.linalg.cond(m, 1)
        estimate = matkit.factor(m).rcond()
        # the estimator's ‖M⁻¹‖₁ is a lower bound, so rcond is never under-reported
        assert exact * (1 - 1e-6) <= estimate <= exact * n * (1 + 1e-6)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_left_unchanged(self, order):
        m, _ = _random_system(np.random.default_rng(9), 4, 0, 1.0)
        kept = np.array(m, order=order)
        lu = matkit.factor(kept)
        assert np.array_equal(kept, m) and not np.shares_memory(lu.lu, kept)


class TestSparseFactor:
    """factor() of a _Compressed CSC: SuperLU behind the same gate."""

    @pytest.mark.parametrize("m", [np.zeros((1, 1)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                                   np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]),
                                   np.array([[1.0, 0.0], [3.0, 0.0]]), np.zeros((3, 3))])
    def test_singular_raises_on_both_backends(self, m):
        for given_m in (m, _csc(m)):
            with pytest.raises(matkit.SingularMatrix):
                matkit.factor(given_m)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), nrhs=st.integers(0, 4),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), log_cond=st.floats(0.0, 8.0))
    @settings(max_examples=100, deadline=None)
    # onenormest alone stops at ‖M⁻¹e₁‖₁ = 1000 of ‖M⁻¹‖₁ = 2015.6, over the factor n = 2
    @example(seed=589, n=2, nrhs=0, scale=1e-3, log_cond=1.0)
    def test_agrees_with_dense_backend(self, seed, n, nrhs, scale, log_cond):
        rng = np.random.default_rng(seed)
        m = scale * (haar_unitary(rng, n) @ np.diag(np.logspace(0, -log_cond, n))
                     @ haar_unitary(rng, n))
        m[rng.random((n, n)) < 0.5] = 0.0
        m[np.arange(n), np.arange(n)] += scale   # a sparse, nonsingular matrix
        rhs = rng.normal(size=(n, nrhs)) + 1j * rng.normal(size=(n, nrhs))
        try:
            dense = matkit.factor(m)
        except matkit.SingularMatrix:
            return
        lu = matkit.factor(_csc(m))
        assert lu.anorm == pytest.approx(dense.anorm, rel=1e-14)
        # both estimates of ‖M⁻¹‖₁ are lower bounds, within a factor n of it
        exact = 1.0 / np.linalg.cond(m, 1)
        assert exact * (1 - 1e-6) <= lu.rcond() <= exact * n * (1 + 1e-6)
        x = dense.solve(rhs)
        assert matkit.max_abs(lu.solve(rhs) - x) <= 1e-12 * np.linalg.cond(m, 1) * max(
            1.0, matkit.max_abs(x))

    def test_condition_gate_matches_dense_estimate(self):
        for n, accepted in ((30, True), (35, True), (36, False), (40, False)):
            m = _csc(np.eye(n) - np.triu(np.ones((n, n)), 1))
            if accepted:
                assert matkit.factor(m).rcond() == pytest.approx(1 / (n * 2.0 ** (n - 1)))
            else:
                with pytest.raises(matkit.SingularMatrix) as info:
                    matkit.factor(m)
                assert info.value.condition == pytest.approx(n * 2.0 ** (n - 1))

    def test_draws_no_random_numbers(self):
        state = np.random.get_state()
        m = np.eye(60, dtype=complex) - 0.5 * np.eye(60, k=1) + 0.25j * np.eye(60, k=-7)
        matkit.factor(_csc(m))
        after = np.random.get_state()
        assert state[0] == after[0] and np.array_equal(state[1], after[1])
        assert state[2:] == after[2:]

    def test_duplicate_entries_are_summed(self):
        rows, cols = np.array([0, 1, 1, 0]), np.array([0, 1, 1, 1])
        values = np.array([2.0, 1.0, 3.0, 1.0], dtype=complex)
        lu = matkit.factor(matkit._Compressed.of_entries("csc", rows, cols, values, (2, 2)))
        assert np.array_equal(values, [2.0, 1.0, 3.0, 1.0])
        assert np.allclose(lu.solve(np.array([3.0, 4.0])), [1.0, 1.0])
        assert lu.anorm == 5.0

    def test_shape_and_finiteness_checks(self):
        with pytest.raises(ValueError, match="square"):
            matkit.factor(_csc(np.ones((2, 3))))
        bad = _csc(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ValueError) as info:
            matkit.factor(bad)
        assert not isinstance(info.value, matkit.SingularMatrix)
        lu = matkit.factor(_csc(np.zeros((0, 0))))
        assert lu.rcond() == 1.0 and lu.inverse_norm() == 0.0
        assert lu.solve(np.zeros((0, 2))).shape == (0, 2)


def _loop_entries(seed: int, k: int, delta: float | None):
    """(rows, cols, values) of η − S, η a random k×k permutation and S about three random
    entries a column, η's entries first.  With ``delta``, row 0 of S holds 1 − δ at η's
    entry and nothing else, so the loop is δ from singular, as a splitter loop that
    returns almost all of its light."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(k)
    rows, cols = np.divmod(np.unique(rng.integers(0, k * k, 3 * k)), k)
    values = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    if delta is not None:
        kept = rows != 0
        rows, cols = np.r_[0, rows[kept]], np.r_[perm[0], cols[kept]]
        values = np.r_[1 - delta, values[kept]]
    return np.r_[np.arange(k), rows], np.r_[perm, cols], np.r_[np.ones(k), -values]


def _reference_sparse_factor(m, rhs):
    """The verdict of SuperLU through SciPy's Python layers (splu, onenormest over a
    LinearOperator, U.diagonal()) on a csc_array M, gated as matkit.factor gates: the
    condition it is rejected with, or ‖M‖₁, rcond, ‖M⁻¹‖₁ and the bytes of M⁻¹RHS and M⁻ᵀRHS."""
    n = m.shape[0]
    anorm = float(abs(m).sum(axis=0).max())
    try:
        lu = splu(m)
    except RuntimeError:
        return "singular", np.inf
    if np.abs(lu.U.diagonal()).min() <= matkit.PIVOT_REL * anorm:
        return "singular", np.inf
    inverse = LinearOperator((n, n), matvec=lu.solve, matmat=lu.solve, dtype=complex,
                             rmatvec=lambda x: lu.solve(x, "H"),
                             rmatmat=lambda x: lu.solve(x, "H"))
    alternating = np.linspace(1, 2, n, dtype=complex) * (-1) ** np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        est = float(np.max([onenormest(inverse, t=1),
                            2 * np.abs(lu.solve(alternating)).sum() / (3 * n)]))
    rcond = 1 / (anorm * est) if est < np.inf else 0.0
    if not rcond > matkit.PIVOT_REL:
        return "singular", 1 / rcond if rcond else np.inf
    return (anorm, rcond, 1 / (rcond * anorm), lu.solve(rhs).tobytes(),
            lu.solve(rhs, "T").tobytes())


def _verdict(m, rhs):
    """matkit.factor's verdict on M in the terms of _reference_sparse_factor."""
    try:
        lu = matkit.factor(m)
    except matkit.SingularMatrix as exc:
        return "singular", exc.condition
    return (lu.anorm, lu.rcond(), lu.inverse_norm(), lu.solve(rhs).tobytes(),
            lu.solve(rhs, 1).tobytes())


class TestSparseBackendEquivalence:
    """The internal CSC, SuperLU called directly and the ported 1-norm estimate give
    SciPy's arrays, solves, estimates and decisions bit for bit."""

    NEAR_SINGULAR = st.none() | st.sampled_from([1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9])

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300), delta=NEAR_SINGULAR)
    @settings(max_examples=150, deadline=None)
    def test_factor_matches_scipy_python_layers(self, seed, k, delta):
        rows, cols, values = _loop_entries(seed, k, delta)
        ours = matkit._Compressed.of_entries("csc", rows, cols, values, (k, k))
        theirs = sparse.csc_array((values, (rows, cols)), shape=(k, k))
        assert ours.data.tobytes() == theirs.data.tobytes()
        assert ours.indices.dtype == ours.indptr.dtype == np.intc
        assert np.array_equal(ours.indices, theirs.indices)
        assert np.array_equal(ours.indptr, theirs.indptr)
        rhs = np.random.default_rng(seed).normal(size=(k, 2)) + 0j
        want = _reference_sparse_factor(theirs, rhs)
        assert _verdict(ours, rhs) == want
        if want[0] == "singular":
            message = f"(eta - S_ii) is singular (condition estimate {want[1]:.3e})"
            S = -sparse.csc_array((values[k:], (rows[k:], cols[k:])), shape=(k, k)).toarray()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(matkit, "SPARSE_MIN", 1)
                mp.setattr(matkit, "SPARSE_FILL", 1.0)
                with pytest.raises(network.AlgebraicLoop) as info:
                    network._eliminate(S, np.zeros((k, 1), dtype=complex), np.zeros((1, 1)),
                                       np.arange(k), np.arange(k), cols[:k],
                                       np.arange(0), np.arange(0))
            assert str(info.value) == message

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300), delta=NEAR_SINGULAR)
    @settings(max_examples=100, deadline=None)
    def test_estimate_is_onenormest(self, seed, k, delta):
        rows, cols, values = _loop_entries(seed, k, delta)
        try:
            lu = splu(sparse.csc_array((values, (rows, cols)), shape=(k, k)))
        except RuntimeError:    # exactly singular
            return
        inverse = LinearOperator((k, k), matvec=lu.solve, matmat=lu.solve, dtype=complex,
                                 rmatvec=lambda x: lu.solve(x, "H"),
                                 rmatmat=lambda x: lu.solve(x, "H"))
        with np.errstate(over="ignore", invalid="ignore"):
            ported = matkit._onenormest(lu.solve, k)
            want = onenormest(inverse, t=1)
        assert np.float64(ported).tobytes() == np.float64(want).tobytes()

    # integer operators, found by a random search: on the first the column to try next
    # is tied (SciPy takes the last of the largest), on the second the estimate falls on
    # the second product (SciPy keeps the first, 5.000000000000001), on the third the
    # signs repeat; on the others it takes 4, 5 and 6 products with A (6 is onenormest's
    # limit), where random operators take 2 or 3
    @pytest.mark.parametrize("a, products", [
        ([[-3, 3, -2, -1, -1], [0, -1, 1, -1, 2], [3, -2, -3, -2, -2], [2, 2, 0, 3, 3],
          [3, 0, 0, -1, -2]], 2),
        ([[-3, -3, -1], [3, 0, 3], [-1, 2, 1]], 2),
        ([[1, 2, 3, -1], [0, 0, 3, -2], [0, -3, -1, 3], [1, -1, 3, 1]], 2),
        ([[-5, 9, -2], [-9, 8, -7], [-4, 0, 7]], 4),
        ([[6j, -4 + 1j, -4 - 3j], [-8 + 9j, 6 - 8j, 8 - 9j], [9 + 3j, -1 + 5j, -6 + 1j]], 4),
        ([[0, 1, -4, -7], [9, -9, 8, 0], [-3, -7, -2, 4], [3, 0, 0, -5]], 5),
        ([[-2 + 4j, -1 - 3j, -9, 9 - 8j], [8 + 4j, -4 - 3j, -7 + 4j, -2 - 5j],
          [-8 - 1j, 1 - 1j, 6 - 5j, -1 + 5j], [-3 + 3j, 8 - 4j, -7, 6 - 4j]], 5),
        ([[3, -7, 1, -3, 8], [-9, -7, -1, 8, 3], [1, 6, -9, 1, -7], [7, -9, 0, -6, 7],
          [0, -6, -6, -9, 9]], 6)])
    def test_estimate_is_onenormest_where_it_iterates(self, a, products):
        # the same products with A and A† in the same order, and the same estimate
        a = np.array(a, dtype=complex)
        ours, theirs = [], []

        def solve(x, trans="N"):
            ours.append(trans)
            return a @ x if trans == "N" else a.conj().T @ x

        operator = LinearOperator(a.shape, dtype=complex, matvec=lambda x: a @ x,
                                  matmat=lambda x: theirs.append("N") or a @ x,
                                  rmatmat=lambda x: theirs.append("H") or a.conj().T @ x)
        assert np.float64(matkit._onenormest(solve, len(a))).tobytes() == np.float64(
            onenormest(operator, t=1)).tobytes()
        assert ours == theirs and ours.count("N") == products

    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(0, 40), st.integers(0, 40)), n_vecs=st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_products_match_scipy(self, seed, shape, n_vecs):
        # entries over 400 decades, so that some products overflow, and signed zeros
        rng = np.random.default_rng(seed)
        flat = rng.choice(shape[0] * shape[1], size=min(2 * shape[0], shape[0] * shape[1]),
                          replace=False)
        rows, cols = np.divmod(flat, max(shape[1], 1))
        values = (rng.normal(size=len(flat)) + 1j * rng.normal(size=len(flat))) * 10.0 ** (
            rng.integers(-200, 200, len(flat)))
        values[rng.random(len(flat)) < 0.2] = -0.0
        ours = matkit._Compressed.of_entries("csr", rows, cols, values, shape)
        theirs = sparse.csr_array((values, (rows, cols)), shape=shape)
        assert ours.data.tobytes() == theirs.data.tobytes()
        assert np.array_equal(ours.indices, theirs.indices)
        assert np.array_equal(ours.indptr, theirs.indptr)
        ours_h = matkit._Compressed.of_entries("csc", cols, rows, values.conj(), shape[::-1])
        for a, b in ((ours, theirs), (ours_h, theirs.conj().T)):
            y = rng.normal(size=(a.shape[1], n_vecs)) + 1j * rng.normal(size=(a.shape[1], n_vecs))
            y[rng.random(y.shape) < 0.2] = -0.0
            with np.errstate(over="ignore", invalid="ignore"):
                assert (a @ y).tobytes() == (b @ y).tobytes()


class TestEigHermitian:
    def test_diagonal(self):
        values, projs = matkit.eig_hermitian(np.diag([1.0, 3.0]).astype(complex))
        assert np.allclose(values, [1.0, 3.0])
        assert np.allclose(projs[0], np.diag([1.0, 0.0]))
        assert np.allclose(projs[1], np.diag([0.0, 1.0]))

    def test_pauli_x(self):
        values, projs = matkit.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(values, [-1.0, 1.0])
        assert np.allclose(projs[0], 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-12)
        assert np.allclose(projs[1], 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-12)

    def test_degenerate_merge(self):
        values, projs = matkit.eig_hermitian(np.eye(2, dtype=complex))
        assert len(values) == 1 and len(projs) == 1
        assert np.allclose(values, [1.0])
        assert np.allclose(projs[0], np.eye(2))

    def test_reconstruction_and_projector_algebra(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = random_hermitian(rng, n)
            values, projs = matkit.eig_hermitian(m)
            recon = sum(v * p for v, p in zip(values, projs))
            assert matkit.max_abs(recon - m) <= 1e-10
            total = sum(projs)
            assert matkit.max_abs(total - np.eye(n)) <= 1e-10
            for j, pj in enumerate(projs):
                for k, pk in enumerate(projs):
                    expected = pk if j == k else np.zeros((n, n))
                    assert matkit.max_abs(pj @ pk - expected) <= 1e-10


def _hermiticity_residual(m) -> float:
    m = np.asarray(m, dtype=complex)
    return matkit.max_abs(m - m.conj().T)


class TestPredicates:
    def test_identity_unitary(self):
        assert matkit.unitarity_residual(np.eye(3)) <= 1e-9

    def test_real_mixing_matrix_unitary(self):
        t = np.array([[0.6, 0.8], [0.8, -0.6]])
        assert matkit.unitarity_residual(t) <= 1e-9

    def test_scaled_not_unitary(self):
        assert matkit.unitarity_residual(np.array([[2.0]])) == 3.0

    def test_unitary_product_closure(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            u, v = haar_unitary(rng, 4), haar_unitary(rng, 4)
            assert matkit.unitarity_residual(u @ v) <= 10 * 1e-9

    def test_hermitian_cases(self):
        assert _hermiticity_residual(np.array([[0.0, 1j], [-1j, 0.0]])) <= 1e-9
        assert _hermiticity_residual(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0
        assert _hermiticity_residual(np.zeros((2, 2))) == 0.0


class TestHermParts:
    @given(_complex_matrices(3))
    @settings(max_examples=50, deadline=None)
    def test_decomposition(self, m):
        re, im = matkit.herm_real(m), matkit.herm_imag(m)
        assert _hermiticity_residual(re) <= 1e-9
        assert _hermiticity_residual(im) <= 1e-9
        assert matkit.max_abs(re + 1j * im - m) <= 1e-12 * max(1.0, matkit.max_abs(m))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        matkit.as_matrix([[np.inf]])
    with pytest.raises(ValueError):
        matkit.as_matrix([[complex(0, np.nan)]])


@pytest.mark.parametrize("value, kwargs, message", [
    ([1.0, 2.0], {}, "matrix must be 2-D, got shape (2,)"),
    (np.zeros((2, 3)), {"rows": 2, "cols": 2, "name": "C"}, "C must have 2 columns, got 3"),
])
def test_as_matrix_shape_messages(value, kwargs, message):
    with pytest.raises(ValueError) as info:
        matkit.as_matrix(value, **kwargs)
    assert str(info.value) == message


def test_max_abs_empty_is_zero():
    assert matkit.max_abs(np.zeros((0, 2))) == 0.0


def test_pivot_rule_scale_does_not_overflow():
    # the column scale is the 1-norm: no entry is squared, so no overflow
    m = np.array([[1e300, 1.0], [1.0, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = matkit.solve(m, np.eye(2))
        rcond = matkit.factor(m).rcond()
    assert matkit.max_abs(x * 1e300 - np.eye(2)) <= 1e-15
    assert rcond == pytest.approx(1.0, rel=1e-12)


def test_unitarity_residual_overflow_is_inf_in_either_orientation():
    # Xi of a 1e300-scaled S at s = i: the diagonal of M†M and MM† is inf + (inf − inf)i,
    # whose modulus numpy returns as nan
    z = 0.6 + 0.8j
    m = np.array([[1e300 * z, z], [1.0, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matkit.unitarity_residual(m) == np.inf
        assert matkit.unitarity_residual(m.T) == np.inf
