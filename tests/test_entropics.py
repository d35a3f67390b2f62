import json

import numpy as np
import pytest

from pubpriv import entropics
from pubpriv.channels import (
    QuantumChannel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    isometric_extension,
)
from pubpriv.entropics import (
    InputEnsemble,
    build_cq_state,
    cond_mutual_info_YB_given_X,
    cq_marginals,
    cond_mutual_info_YE_given_X,
    mutual_info_XB,
    mutual_info_XE,
    mutual_info_XYB,
    mutual_info_XYE,
)
from pubpriv.errors import DimensionError, ValidationError
from pubpriv.region import skp_constraints
from pubpriv.qcore import DensityOperator, partial_trace, von_neumann_entropy
from pubpriv.serialize import ensemble_from_json, ensemble_to_json

from conftest import over_x, rand_channel, rand_density, rand_ensemble, rand_simplex


def ket(k, d=2):
    return DensityOperator.basis_state(k, d)


def basis_ensemble_over_x(probs, d=2):
    return over_x(probs, [ket(i % d, d) for i in range(len(probs))])


class TestBuildCqState:
    def test_single_block(self, rng):
        ens = over_x([1.0], [rand_density(rng, 2)])
        s = build_cq_state(ens, isometric_extension(identity_channel(2)))
        assert s.weights.shape == (1, 1)
        assert abs(s.weights.sum() - 1.0) < 1e-12

    def test_identity_two_blocks(self):
        ens = basis_ensemble_over_x([0.5, 0.5])
        iso = isometric_extension(identity_channel(2))
        s = build_cq_state(ens, iso)
        assert iso.dim_E == 1
        joint = iso.evolve(ens.states)
        assert np.allclose(joint[0, 0], ket(0).matrix)
        assert np.allclose(joint[1, 0], ket(1).matrix)

    def test_weights_sum_on_random_ensembles(self, rng):
        for _ in range(10):
            ens = rand_ensemble(rng, 3, 2, 2)
            s = build_cq_state(ens, isometric_extension(dephasing_channel(0.5)))
            assert abs(s.weights.sum() - 1.0) < 1e-10

    def test_dim_mismatch(self, rng):
        ens = rand_ensemble(rng, 2, 2, 3)
        with pytest.raises(DimensionError):
            build_cq_state(ens, isometric_extension(identity_channel(2)))


class TestHolevoQuantity:
    def test_identity_orthogonal_inputs(self):
        s = build_cq_state(basis_ensemble_over_x([0.5, 0.5]), isometric_extension(identity_channel(2)))
        assert abs(mutual_info_XB(s) - 1.0) < 1e-12

    def test_completely_depolarizing_kills_information(self, rng):
        iso = isometric_extension(depolarizing_channel(1.0))
        s = build_cq_state(rand_ensemble(rng, 3, 2, 2), iso)
        assert mutual_info_XB(s) < 1e-9

    def test_trivial_x_is_exactly_zero(self, rng):
        ens = over_x([1.0], [rand_density(rng, 2)])
        s = build_cq_state(ens, isometric_extension(identity_channel(2)))
        assert mutual_info_XB(s) == 0.0


class TestConditionalQuantities:
    def test_identity_trivial_x(self):
        ens = InputEnsemble.over_y([0.5, 0.5], [ket(0), ket(1)])
        s = build_cq_state(ens, isometric_extension(identity_channel(2)))
        assert abs(cond_mutual_info_YB_given_X(s) - 1.0) < 1e-12
        assert cond_mutual_info_YE_given_X(s) == 0.0  # dim_E = 1

    def test_trivial_y_is_exactly_zero(self, rng):
        ens = over_x([0.3, 0.7], [rand_density(rng, 2), rand_density(rng, 2)])
        s = build_cq_state(ens, isometric_extension(dephasing_channel(0.4)))
        assert cond_mutual_info_YB_given_X(s) == 0.0
        assert cond_mutual_info_YE_given_X(s) == 0.0

    def test_completely_dephasing_copies_to_eve(self):
        """Eve's register holds the basis value, so I(Y;E|X) matches I(Y;B|X)."""
        iso = isometric_extension(dephasing_channel(1.0))
        ens = InputEnsemble.over_y([0.5, 0.5], [ket(0), ket(1)])
        s = build_cq_state(ens, iso)
        assert abs(cond_mutual_info_YB_given_X(s) - 1.0) < 1e-12
        assert abs(cond_mutual_info_YE_given_X(s) - 1.0) < 1e-12
        # oracle: construct Eve's per-y marginals explicitly and take entropies
        e0 = iso.complementary_apply(ket(0))
        e1 = iso.complementary_apply(ket(1))
        avg = DensityOperator(0.5 * e0.matrix + 0.5 * e1.matrix)
        holevo = von_neumann_entropy(avg) - 0.5 * von_neumann_entropy(e0) - 0.5 * von_neumann_entropy(e1)
        assert abs(cond_mutual_info_YE_given_X(s) - holevo) < 1e-12


class TestJointQuantity:
    def test_two_bit_encoding_over_two_qubits(self):
        states = tuple(
            tuple(DensityOperator.basis_state(2 * x + y, 4) for y in range(2)) for x in range(2)
        )
        ens = InputEnsemble(p_x=[0.5, 0.5], p_y_given_x=np.full((2, 2), 0.5), rho_xy=states)
        s = build_cq_state(ens, isometric_extension(identity_channel(4)))
        assert abs(mutual_info_XYB(s) - 2.0) < 1e-12

    def test_trivial_alphabets(self, rng):
        ens = over_x([1.0], [rand_density(rng, 2)])
        s = build_cq_state(ens, isometric_extension(identity_channel(2)))
        assert mutual_info_XYB(s) == 0.0


class TestChainRule:
    def test_chain_rule_holds_on_random_ensembles(self, rng):
        for _ in range(100):
            nx, ny = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            d_in, d_out = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            ch = rand_channel(rng, d_in, d_out, int(rng.integers(1, 4)))
            s = build_cq_state(rand_ensemble(rng, nx, ny, d_in), isometric_extension(ch))
            gap_b = mutual_info_XYB(s) - mutual_info_XB(s) - cond_mutual_info_YB_given_X(s)
            gap_e = mutual_info_XYE(s) - mutual_info_XE(s) - cond_mutual_info_YE_given_X(s)
            assert abs(gap_b) < 1e-9
            assert abs(gap_e) < 1e-9


class TestDataProcessing:
    def test_post_processing_never_helps(self, rng):
        for _ in range(15):
            ch = rand_channel(rng, 2, 2, 2)
            post = rand_channel(rng, 2, 2, 2)
            ens = rand_ensemble(rng, 3, 1, 2)
            before = mutual_info_XB(build_cq_state(ens, isometric_extension(ch)))
            composed = QuantumChannel([a @ b for a in post.kraus for b in ch.kraus])  # post ∘ ch
            after = mutual_info_XB(build_cq_state(ens, isometric_extension(composed)))
            assert after <= before + 1e-9


class TestBounds:
    def test_holevo_bounded_by_input_entropy_and_output_dim(self, rng):
        for _ in range(25):
            p = rand_simplex(rng, 3)
            ens = over_x(p, [rand_density(rng, 2) for _ in range(3)])
            s = build_cq_state(ens, isometric_extension(identity_channel(2)))
            h_p = float(-(p * np.log2(p)).sum())
            assert mutual_info_XB(s) <= min(h_p, 1.0) + 1e-9

    def test_nonnegativity(self, rng):
        for _ in range(30):
            ch = rand_channel(rng, 2, 3, 2)
            s = build_cq_state(rand_ensemble(rng, 2, 2, 2), isometric_extension(ch))
            for f in (mutual_info_XB, mutual_info_XE, cond_mutual_info_YB_given_X,
                      cond_mutual_info_YE_given_X, mutual_info_XYB, mutual_info_XYE):
                assert f(s) >= 0.0


def reference_infos(ens, iso):
    """The six quantities block by block, through the single-matrix qcore primitives."""
    dims = [iso.dim_B, iso.dim_E]
    out = []
    for keep in (0, 1):
        d = dims[keep]
        s_xy = np.zeros((ens.size_x, ens.size_y))
        s_x = np.zeros(ens.size_x)
        sigma = np.zeros((d, d), dtype=complex)
        for x in range(ens.size_x):
            sigma_x = np.zeros((d, d), dtype=complex)
            for y in range(ens.size_y):
                if ens.p_x[x] * ens.p_y_given_x[x, y] > 0.0:
                    m = partial_trace(iso.evolve(DensityOperator(ens.states[x, y])), keep=[keep], dims=dims)
                    s_xy[x, y] = von_neumann_entropy(m)
                    sigma_x += ens.p_y_given_x[x, y] * m.matrix
            if ens.p_x[x] > 0.0:
                s_x[x] = von_neumann_entropy(DensityOperator(sigma_x, validate=False))
                sigma += ens.p_x[x] * sigma_x
        s_all = von_neumann_entropy(DensityOperator(sigma, validate=False))
        holevo = s_all - sum(ens.p_x[x] * s_x[x] for x in range(ens.size_x))
        cond = sum(ens.p_x[x] * (s_x[x] - sum(ens.p_y_given_x[x, y] * s_xy[x, y] for y in range(ens.size_y)))
                   for x in range(ens.size_x))
        joint = s_all - sum(ens.p_x[x] * ens.p_y_given_x[x, y] * s_xy[x, y]
                            for x in range(ens.size_x) for y in range(ens.size_y))
        out.append((holevo, cond, joint))
    (xb, yb, xyb), (xe, ye, xye) = out
    return [max(0.0, v) for v in (xb, xe, yb, ye, xyb, xye)]


SIX = (mutual_info_XB, mutual_info_XE, cond_mutual_info_YB_given_X,
       cond_mutual_info_YE_given_X, mutual_info_XYB, mutual_info_XYE)


class TestStackedKernel:
    def test_matches_blockwise_reference_with_zero_weights(self, rng):
        for _ in range(30):
            nx, ny, d_in = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
            ens = rand_ensemble(rng, nx, ny, d_in)
            p_x = ens.p_x.copy()
            p_x[0], p_x[1] = 0.0, p_x[1] + p_x[0]  # a zero-weight x row
            pyx = ens.p_y_given_x.copy()
            pyx[1, 0], pyx[1, 1] = 0.0, pyx[1, 1] + pyx[1, 0]  # a zero-weight (x, y) entry
            ens = InputEnsemble(p_x=p_x, p_y_given_x=pyx, rho_xy=ens.states)
            ch = rand_channel(rng, d_in, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            iso = isometric_extension(ch)
            s = build_cq_state(ens, iso)
            assert s.weights[0, 0] == 0.0 and s.weights[1, 0] == 0.0
            got = [f(s) for f in SIX]
            want = reference_infos(ens, iso)
            assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12

    def test_pure_inputs_joint_info_gap_is_output_entropy_gap(self, rng):
        """S(B_xy) = S(E_xy) for pure inputs, so I(XY;B) - I(XY;E) = S(σ_B) - S(σ_E)."""
        for _ in range(20):
            d_in = int(rng.integers(2, 4))
            ens = rand_ensemble(rng, 3, 2, d_in, pure=True)
            iso = isometric_extension(rand_channel(rng, d_in, int(rng.integers(2, 4)), int(rng.integers(2, 4))))
            s = build_cq_state(ens, iso)
            avg = DensityOperator(sum(ens.p_x[x] * ens.p_y_given_x[x, y] * ens.states[x, y]
                                      for x in range(3) for y in range(2)), validate=False)
            want = von_neumann_entropy(iso.apply(avg)) - von_neumann_entropy(iso.complementary_apply(avg))
            assert abs(mutual_info_XYB(s) - mutual_info_XYE(s) - want) < 1e-12

    def test_stacked_primitives_match_single_matrices(self, rng):
        stack = np.array([rand_density(rng, 6).matrix for _ in range(5)]).reshape(5, 1, 6, 6)
        ents = von_neumann_entropy(stack)
        marg = partial_trace(stack, keep=[1], dims=[2, 3])
        assert ents.shape == (5, 1) and marg.shape == (5, 1, 3, 3)
        for i in range(5):
            rho = DensityOperator(stack[i, 0])
            assert abs(ents[i, 0] - von_neumann_entropy(rho)) < 1e-12
            assert np.array_equal(marg[i, 0], partial_trace(rho, keep=[1], dims=[2, 3]).matrix)

    def test_non_hermitian_stack_rejected(self, rng):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        stack = np.array([rand_density(rng, 2).matrix, bad])
        with pytest.raises(ValidationError):
            von_neumann_entropy(stack)


def one_stack_entropies(ens, iso):
    """The entropy table from one eigensolve per system over [σ_{x,y}; σ_x; σ], as the kernel computed it
    before it split into a state stage and a law stage."""
    joint = iso.evolve(ens.states)
    nx, ny = ens.p_y_given_x.shape
    table = {}
    for keep, name in enumerate("BE"):
        sigma_xy = partial_trace(joint, keep=[keep], dims=[iso.dim_B, iso.dim_E])
        sigma_x = np.einsum("xy,xyij->xij", ens.p_y_given_x, sigma_xy)
        sigma = np.einsum("x,xij->ij", ens.p_x, sigma_x)
        ent = von_neumann_entropy(np.concatenate([sigma_xy.reshape(nx * ny, *sigma.shape), sigma_x, sigma[None]]))
        table[name] = (ent[: nx * ny].reshape(nx, ny), ent[nx * ny:-1], float(ent[-1]))
    return table


def table_bytes(entropies):
    return {k: (s_xy.tobytes(), s_x.tobytes(), np.float64(s).tobytes()) for k, (s_xy, s_x, s) in entropies.items()}


class TestTwoStages:
    """A state stage passed in, even one computed under other laws, gives the one-eigensolve table to the byte, and so
    does a conditional stage kept from a build under another p(x)."""

    @pytest.mark.parametrize("nx", [1, 2, 5])
    @pytest.mark.parametrize("pure", [True, False])
    def test_passed_state_stage_gives_the_one_stack_table(self, rng, nx, pure):
        for _ in range(4):
            d_in = int(rng.integers(2, 4))
            ens = rand_ensemble(rng, nx, 3, d_in, pure=pure)
            iso = isometric_extension(rand_channel(rng, d_in, int(rng.integers(2, 4)), int(rng.integers(1, 4))))
            marginals = cq_marginals(ens.states, iso)
            other = InputEnsemble(p_x=rand_simplex(rng, nx), p_y_given_x=[rand_simplex(rng, 3) for _ in range(nx)],
                                  rho_xy=ens.states)
            for e in (ens, other):
                want = table_bytes(one_stack_entropies(e, iso))
                assert table_bytes(build_cq_state(e, iso, marginals).entropies) == want
                assert table_bytes(build_cq_state(e, iso).entropies) == want

    @pytest.mark.parametrize("nx", [1, 2, 5])
    @pytest.mark.parametrize("pure", [True, False])
    def test_kept_conditional_stage_gives_the_one_stack_table(self, rng, nx, pure):
        for _ in range(4):
            d_in = int(rng.integers(2, 4))
            ens = rand_ensemble(rng, nx, 3, d_in, pure=pure)
            iso = isometric_extension(rand_channel(rng, d_in, int(rng.integers(2, 4)), int(rng.integers(1, 4))))
            marginals, conditionals = cq_marginals(ens.states, iso), {}
            first = build_cq_state(ens, iso, marginals, conditionals)
            assert first.conditionals is conditionals and set(conditionals) == {"B", "E"}
            other = InputEnsemble(p_x=rand_simplex(rng, nx), p_y_given_x=ens.p_y_given_x, rho_xy=ens.states)
            for e in (ens, other):
                kept, fresh = build_cq_state(e, iso, marginals, conditionals), build_cq_state(e, iso)
                assert [f(kept).hex() for f in SIX] == [f(fresh).hex() for f in SIX]
                assert table_bytes(kept.entropies) == table_bytes(one_stack_entropies(e, iso))

    def test_marginal_stage_is_computed_when_a_quantity_reads_it(self, rng, monkeypatch):
        """With the state and conditional stages given, a build runs no eigensolve; I(X;B) runs one, for S(σ^B),
        the conditional informations none, and each S(σ) is computed once."""
        ens = rand_ensemble(rng, 3, 2, 2)
        iso = isometric_extension(depolarizing_channel(0.3))
        marginals, conditionals = cq_marginals(ens.states, iso), {}
        entropy, solves = entropics.von_neumann_entropy, []
        monkeypatch.setattr(entropics, "von_neumann_entropy", lambda m: solves.append(m.shape) or entropy(m))
        build_cq_state(ens, iso, marginals, conditionals)
        assert solves == [(4, 2, 2), (4, 4, 4)]  # [σ_x; σ] per system: d_B = 2, d_E = 4
        s = build_cq_state(ens, iso, marginals, conditionals)
        after = []
        for f in (cond_mutual_info_YB_given_X, cond_mutual_info_YE_given_X, mutual_info_XB, mutual_info_XYB,
                  mutual_info_XE, mutual_info_XYE):
            f(s)
            after.append(len(solves) - 2)
        assert after == [0, 0, 1, 1, 2, 2] and solves[2:] == [(2, 2), (4, 4)]
        s.entropies
        assert len(solves) == 4

    @pytest.mark.parametrize("pure", [True, False])
    def test_flipped_skp_path(self, rng, pure):
        ens = rand_ensemble(rng, 1, 4, 2, pure=pure)
        iso = isometric_extension(dephasing_channel(0.3))
        flipped = InputEnsemble(p_x=ens.p_y_given_x[0], p_y_given_x=np.ones((4, 1)), rho_xy=ens.states[0, :, None])
        s = build_cq_state(flipped, iso, cq_marginals(flipped.states, iso))
        assert table_bytes(s.entropies) == table_bytes(one_stack_entropies(flipped, iso))
        assert skp_constraints(ens, iso) == (mutual_info_XB(s), mutual_info_XE(s))


class TestEnsembleValidation:
    def test_bad_p_x(self, rng):
        with pytest.raises(ValidationError):
            over_x([0.5, 0.6], [rand_density(rng, 2), rand_density(rng, 2)])

    def test_bad_rows(self, rng):
        with pytest.raises(ValidationError):
            InputEnsemble(p_x=[1.0], p_y_given_x=[[0.5, 0.6]],
                          rho_xy=((rand_density(rng, 2), rand_density(rng, 2)),))

    @pytest.mark.parametrize("p_x, p_y_given_x", [([np.nan, 1.0], [[1.0], [1.0]]),
                                                  ([0.5, 0.5], [[1.0], [np.nan]])])
    def test_nan_laws_are_rejected(self, rng, p_x, p_y_given_x):
        with pytest.raises(ValidationError, match="finite"):
            InputEnsemble(p_x=p_x, p_y_given_x=p_y_given_x, rho_xy=((ket(0),), (ket(1),)))

    def test_ragged_states(self, rng):
        with pytest.raises(DimensionError):
            InputEnsemble(p_x=[0.5, 0.5], p_y_given_x=[[1.0], [1.0]],
                          rho_xy=((rand_density(rng, 2),), (rand_density(rng, 3),)))

    def test_array_and_nested_states_give_the_same_infos(self, rng):
        for nx, ny, d_in in ((3, 2, 2), (1, 4, 3), (2, 3, 4)):
            nested = rand_ensemble(rng, nx, ny, d_in)
            stacked = InputEnsemble(p_x=nested.p_x, p_y_given_x=nested.p_y_given_x,
                                    rho_xy=nested.states.copy())
            assert np.array_equal(stacked.states, nested.states)
            iso = isometric_extension(rand_channel(rng, d_in, 2, 2))
            got = [f(build_cq_state(stacked, iso)) for f in SIX]
            want = [f(build_cq_state(nested, iso)) for f in SIX]
            assert got == want

    def test_rho_xy_reads_the_stored_stack(self, rng):
        ens = rand_ensemble(rng, 2, 3, 2)
        assert ens.states.shape == (2, 3, 2, 2) and ens.states.dtype == np.complex128
        assert ens.dim_in == 2
        with pytest.raises(ValueError):
            ens.states[0, 0, 0, 0] = 1.0

    def test_stack_is_copied_and_validated(self, rng):
        stack = np.array([[rand_density(rng, 2).matrix, rand_density(rng, 2).matrix]])
        ens = InputEnsemble(p_x=[1.0], p_y_given_x=[[0.5, 0.5]], rho_xy=stack)
        stack[0, 0] = np.eye(2)
        assert not np.array_equal(ens.states[0, 0], stack[0, 0])
        with pytest.raises(ValidationError, match="trace"):
            InputEnsemble(p_x=[1.0], p_y_given_x=[[0.5, 0.5]], rho_xy=stack)

    @pytest.mark.parametrize("shape", [(1, 3, 2, 2), (2, 2, 2, 2), (1, 2, 2, 3), (1, 2, 4)])
    def test_stack_shape_must_match(self, shape):
        with pytest.raises(DimensionError):
            InputEnsemble(p_x=[1.0], p_y_given_x=[[0.5, 0.5]], rho_xy=np.zeros(shape))

    def test_json_round_trip(self, rng):
        ens = rand_ensemble(rng, 2, 3, 2)
        back = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(ens))))
        assert np.allclose(back.p_x, ens.p_x)
        assert np.allclose(back.p_y_given_x, ens.p_y_given_x)
        for x in range(2):
            for y in range(3):
                assert np.max(np.abs(back.states[x, y] - ens.states[x, y])) < 1e-15
