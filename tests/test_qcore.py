import numpy as np
import pytest

from pubpriv.errors import CapacityError, DimensionError, ValidationError
from pubpriv.qcore import (
    DensityOperator,
    maximally_correlated_state,
    partial_trace,
    tensor,
    trace_norm_distance,
    validate_probabilities,
    validate_states,
    von_neumann_entropy,
)

from conftest import rand_density

# -0.25*log2(0.25) - 0.75*log2(0.75), evaluated independently at 30 digits
BINARY_ENTROPY_025 = 0.81127812445913286391


def ket(k, d):
    return DensityOperator.basis_state(k, d)


def naive_partial_trace(m, dims, keep):
    """Index-summation oracle, independent of the reshape/trace implementation."""
    n = len(dims)
    drop = [i for i in range(n) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[i] != col[i] for i in drop):
                continue
            r = c = 0
            for i in keep:
                r = r * dims[i] + row[i]
                c = c * dims[i] + col[i]
            ri = int(np.ravel_multi_index(row, dims))
            ci = int(np.ravel_multi_index(col, dims))
            out[r, c] += m[ri, ci]
    return out


class TestDensityOperator:
    def test_validates_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_validates_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityOperator(np.eye(2))

    def test_validates_psd(self):
        with pytest.raises(ValidationError, match="PSD"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_escape_hatch_skips_validation(self):
        op = DensityOperator(np.eye(2), validate=False)  # trace 2, intentionally
        assert op.dim == 2

    def test_matrix_is_frozen(self):
        op = ket(0, 2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            DensityOperator(np.ones((2, 3)))


class TestValidateStates:
    """One bad matrix in a (..., d, d) stack of good ones fails it, with DensityOperator's messages."""

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "Hermitian"),
        (np.eye(2), "trace"),
        (np.diag([1.5, -0.5]), "PSD"),
    ])
    def test_one_bad_matrix_fails_the_stack(self, rng, bad, message):
        stack = np.array([rand_density(rng, 2).matrix for _ in range(12)]).reshape(3, 4, 2, 2)
        validate_states(stack)
        stack[2, 1] = bad
        with pytest.raises(ValidationError, match=message):
            validate_states(stack)
        with pytest.raises(ValidationError, match=message):
            DensityOperator(bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_fails(self, entry):
        """Every comparison with NaN is false, so the checks are phrased to fail on it."""
        for idx in ((0, 0), (0, 1)):
            m = np.eye(2, dtype=complex) / 2
            m[idx] = entry
            with pytest.raises(ValidationError, match="non-finite"):
                with np.errstate(invalid="ignore"):
                    validate_states(m[None])
        with pytest.raises(ValidationError, match="non-finite"):
            DensityOperator(np.full((2, 2), np.nan))

    def test_tolerance_is_validation_tol(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        validate_states(m[None])
        with pytest.raises(ValidationError, match="PSD"):
            validate_states(np.diag([1.0 + 5e-10, -5e-10])[None])


class TestValidateProbabilities:
    """The one probability-table check: the last axis holds vectors with entries >= -1e-12 summing to 1 within
    1e-12, and no separate finiteness pass is needed for NaN or ±inf to fail it."""

    @pytest.mark.parametrize("table", [
        [[np.nan, 1.0], [0.5, 0.5]],
        [[0.5, 0.5], [np.inf, 0.0]],
        [[0.5, 0.5], [-np.inf, 1.0]],
        [[-1e-11, 1.0 + 1e-11], [0.5, 0.5]],
        [[0.5, 0.5 + 1e-11], [0.5, 0.5]],
        [[], []],
    ])
    def test_rejects(self, table):
        with pytest.raises(ValidationError, match="finite probability vectors"):
            validate_probabilities(table, "the table")

    def test_tiny_negative_entry_is_stored_as_zero_in_a_read_only_copy(self):
        table = np.array([[-1e-13, 1.0 + 1e-13], [0.25, 0.75]])
        t = validate_probabilities(table, "the table")
        assert t[0, 0] == 0.0 and t[0, 1] == table[0, 1] and np.array_equal(t[1], table[1])
        assert table[0, 0] == -1e-13
        with pytest.raises(ValueError):
            t[0, 0] = 0.5


class TestTensor:
    def test_basis(self):
        out = tensor(ket(0, 2), ket(0, 2))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(out.matrix, expected)

    def test_maximally_mixed(self):
        out = tensor(DensityOperator.maximally_mixed(2), DensityOperator.maximally_mixed(2))
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_diagonal(self):
        out = tensor(DensityOperator.diagonal([1, 0]), DensityOperator.diagonal([0.3, 0.7]))
        assert np.allclose(np.diag(out.matrix).real, [0.3, 0.7, 0, 0])

    def test_capacity_ceiling(self):
        big = DensityOperator.maximally_mixed(70)
        with pytest.raises(CapacityError):
            tensor(big, big)


class TestPartialTrace:
    def test_keep_second_of_product(self):
        out = partial_trace(tensor(ket(0, 2), ket(0, 2)), keep=[1], dims=[2, 2])
        assert np.allclose(out.matrix, ket(0, 2).matrix)

    def test_ebit_marginal_is_maximally_mixed(self):
        ebit = DensityOperator.pure([1, 0, 0, 1])
        out = partial_trace(ebit, keep=[0], dims=[2, 2])
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_against_index_summation_oracle(self, rng):
        for _ in range(50):
            da, db = rng.integers(2, 4), rng.integers(2, 4)
            a, b = rand_density(rng, da), rand_density(rng, db)
            joint = tensor(a, b)
            got = partial_trace(joint, keep=[0], dims=[da, db]).matrix
            want = naive_partial_trace(joint.matrix, [da, db], [0])
            assert np.max(np.abs(got - want)) < 1e-12
            assert np.max(np.abs(got - a.matrix)) < 1e-12

    def test_three_party_oracle(self, rng):
        dims = [2, 3, 2]
        rho = rand_density(rng, int(np.prod(dims)))
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            got = partial_trace(rho, keep=keep, dims=dims).matrix
            want = naive_partial_trace(rho.matrix, dims, keep)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_trace_preserved(self, rng):
        rho = rand_density(rng, 6)
        out = partial_trace(rho, keep=[0], dims=[2, 3])
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_commutes_with_convex_mixing(self, rng):
        for _ in range(20):
            a, b = rand_density(rng, 4), rand_density(rng, 4)
            lam = rng.random()
            mix = DensityOperator(lam * a.matrix + (1 - lam) * b.matrix)
            lhs = partial_trace(mix, keep=[0], dims=[2, 2]).matrix
            rhs = lam * partial_trace(a, keep=[0], dims=[2, 2]).matrix \
                + (1 - lam) * partial_trace(b, keep=[0], dims=[2, 2]).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(DimensionError):
            partial_trace(DensityOperator.maximally_mixed(4), keep=[0], dims=[2, 3])


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(ket(0, 2)) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(DensityOperator.maximally_mixed(2)) - 1.0) < 1e-12

    def test_binary_entropy_closed_form(self):
        got = von_neumann_entropy(DensityOperator.diagonal([0.25, 0.75]))
        assert abs(got - BINARY_ENTROPY_025) < 1e-12

    def test_bounds(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 5))
            s = von_neumann_entropy(rand_density(rng, d))
            assert 0.0 <= s <= np.log2(d) + 1e-9

    def test_additive_on_products(self, rng):
        for _ in range(100):
            da, db = rng.integers(2, 5), rng.integers(2, 5)
            a, b = rand_density(rng, da), rand_density(rng, db)
            lhs = von_neumann_entropy(tensor(a, b))
            rhs = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert abs(lhs - rhs) < 1e-9

    def test_rejects_non_hermitian(self):
        bad = DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]), validate=False)
        with pytest.raises(ValidationError):
            von_neumann_entropy(bad)

    def test_rejects_a_non_finite_entry_in_a_stack(self, rng):
        stack = np.array([rand_density(rng, 2).matrix for _ in range(3)])
        stack[1, 1, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            von_neumann_entropy(stack)


class TestTraceNormDistance:
    def test_identical_states(self, rng):
        rho = rand_density(rng, 3)
        assert trace_norm_distance(rho, rho) == 0.0

    def test_orthogonal_states(self):
        assert abs(trace_norm_distance(ket(0, 2), ket(1, 2)) - 2.0) < 1e-12

    def test_mixed_vs_pure_via_svd_oracle(self):
        a = DensityOperator.maximally_mixed(2)
        b = ket(0, 2)
        got = trace_norm_distance(a, b)
        want = np.linalg.svd(a.matrix - b.matrix, compute_uv=False).sum()
        assert abs(got - 1.0) < 1e-12
        assert abs(got - want) < 1e-12

    def test_symmetry(self, rng):
        a, b = rand_density(rng, 3), rand_density(rng, 3)
        assert trace_norm_distance(a, b) == trace_norm_distance(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            a, b, c = (rand_density(rng, 3) for _ in range(3))
            assert trace_norm_distance(a, c) <= trace_norm_distance(a, b) + trace_norm_distance(b, c) + 1e-9

    def test_range(self, rng):
        for _ in range(20):
            a, b = rand_density(rng, 4), rand_density(rng, 4)
            assert 0.0 <= trace_norm_distance(a, b) <= 2.0 + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            trace_norm_distance(ket(0, 2), ket(0, 3))


class TestMaximallyCorrelated:
    def test_qubit_case(self):
        got = maximally_correlated_state(2).matrix
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 3] = 0.5
        assert np.allclose(got, want)

    def test_scalar_case(self):
        assert np.allclose(maximally_correlated_state(1).matrix, [[1.0]])

    def test_uniform_marginals(self):
        rho = maximally_correlated_state(3)
        for side in (0, 1):
            marg = partial_trace(rho, keep=[side], dims=[3, 3])
            assert np.allclose(marg.matrix, np.eye(3) / 3, atol=1e-12)

    def test_entropy_is_log_d(self):
        assert abs(von_neumann_entropy(maximally_correlated_state(4)) - 2.0) < 1e-12
