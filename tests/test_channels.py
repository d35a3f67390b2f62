import json

import numpy as np
import pytest

from pubpriv.channels import (
    IsometricExtension,
    QuantumChannel,
    cq_embedding_channel,
    dephasing_channel,
    depolarizing_channel,
    erasure_channel,
    identity_channel,
    isometric_extension,
    zoo,
)
from pubpriv.errors import DimensionError, ValidationError
from pubpriv.qcore import DensityOperator
from pubpriv.serialize import channel_from_json, matrix_to_json

from conftest import rand_channel, rand_density

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)

ZOO_SAMPLES = [
    identity_channel(2),
    identity_channel(3),
    dephasing_channel(0.3),
    dephasing_channel(1.0),
    depolarizing_channel(0.5),
    depolarizing_channel(1.0),
    erasure_channel(0.25),
    erasure_channel(1.0),
    cq_embedding_channel([[0.7, 0.3], [0.2, 0.8]]),
]


def plus_state():
    return DensityOperator.pure([1, 1])


class TestFromKraus:
    def test_identity(self):
        ch = QuantumChannel([np.eye(2)])
        assert ch.dim_in == ch.dim_out == 2

    def test_completely_dephasing_family(self):
        ch = QuantumChannel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert len(ch.kraus) == 2

    def test_pauli_depolarizing_family_completeness(self):
        # {sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z} is complete for any p
        for p in (0.1, 0.5, 0.9):
            ops = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p / 3) * X, np.sqrt(p / 3) * Y, np.sqrt(p / 3) * Z]
            ch = QuantumChannel(ops)
            acc = sum(k.conj().T @ k for k in ch.kraus)
            assert np.max(np.abs(acc - np.eye(2))) < 1e-12

    def test_completeness_violation_reports_residual(self):
        with pytest.raises(ValidationError, match="completeness"):
            QuantumChannel([0.5 * np.eye(2)])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_kraus_entry_is_rejected(self, entry):
        k = np.eye(2, dtype=complex)
        k[0, 1] = entry
        with pytest.raises(ValidationError, match="non-finite Kraus entry"):
            with np.errstate(invalid="ignore"):
                QuantumChannel([k])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            QuantumChannel([np.eye(2), np.eye(3)])


class TestIsometricExtension:
    def test_identity_channel(self):
        iso = isometric_extension(identity_channel(2))
        assert iso.dim_E == 1
        assert np.allclose(iso.isometry, np.eye(2))

    def test_completely_dephasing(self):
        iso = isometric_extension(dephasing_channel(1.0))
        assert iso.dim_E == 2
        # direct matrix evaluation: V|+> = (|00> + |11>)/sqrt(2), so Tr_B = I/2
        eve = iso.complementary_apply(plus_state())
        assert np.allclose(eve.matrix, np.eye(2) / 2, atol=1e-12)

    def test_isometry_property(self, rng):
        for ch in ZOO_SAMPLES:
            v = isometric_extension(ch).isometry
            assert np.max(np.abs(v.conj().T @ v - np.eye(ch.dim_in))) < 1e-10

    def test_random_channel_matches_kraus_sum(self, rng):
        ch = rand_channel(rng, 2, 2, 3)
        iso = isometric_extension(ch)
        assert iso.dim_E == 3
        for _ in range(20):
            rho = rand_density(rng, 2)
            via_iso = iso.apply(rho).matrix
            via_kraus = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus)
            assert np.max(np.abs(via_iso - via_kraus)) < 1e-10


class TestApply:
    def test_identity(self, rng):
        rho = rand_density(rng, 2)
        assert np.allclose(identity_channel(2).apply(rho).matrix, rho.matrix)

    def test_completely_depolarizing(self, rng):
        ch = depolarizing_channel(1.0)
        for _ in range(5):
            out = ch.apply(rand_density(rng, 2))
            assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-12

    def test_dephasing_kills_coherence(self):
        out = dephasing_channel(1.0).apply(plus_state())
        assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            identity_channel(2).apply(DensityOperator.maximally_mixed(3))


class TestComplementary:
    def test_identity_gives_scalar(self):
        iso = isometric_extension(identity_channel(2))
        out = iso.complementary_apply(DensityOperator.maximally_mixed(2))
        assert out.dim == 1
        assert np.allclose(out.matrix, [[1.0]])

    def test_dephasing_copies_basis(self):
        iso = isometric_extension(dephasing_channel(1.0))
        e0 = iso.complementary_apply(DensityOperator.basis_state(0, 2))
        assert np.allclose(e0.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        em = iso.complementary_apply(DensityOperator.maximally_mixed(2))
        assert np.allclose(em.matrix, np.eye(2) / 2, atol=1e-12)

    def test_unit_trace(self, rng):
        for ch in ZOO_SAMPLES:
            iso = isometric_extension(ch)
            rho = rand_density(rng, ch.dim_in)
            assert abs(np.trace(iso.complementary_apply(rho).matrix) - 1.0) < 1e-10


class TestZoo:
    def test_dephasing_zero_is_identity(self, rng):
        ch = dephasing_channel(0.0)
        for _ in range(10):
            rho = rand_density(rng, 2)
            assert np.max(np.abs(ch.apply(rho).matrix - rho.matrix)) < 1e-12

    def test_erasure_one_is_constant(self, rng):
        ch = erasure_channel(1.0)
        for _ in range(5):
            out = ch.apply(rand_density(rng, 2))
            want = np.zeros((3, 3))
            want[2, 2] = 1.0
            assert np.max(np.abs(out.matrix - want)) < 1e-12

    def test_erasure_mixes_flag(self, rng):
        ch = erasure_channel(0.25)
        rho = rand_density(rng, 2)
        out = ch.apply(rho).matrix
        assert abs(out[2, 2].real - 0.25) < 1e-12

    def test_cq_identity_permutation_dephases_diagonals(self):
        ch = cq_embedding_channel(np.eye(2))
        deph = dephasing_channel(1.0)
        for probs in ([1.0, 0.0], [0.25, 0.75], [0.5, 0.5]):
            rho = DensityOperator.diagonal(probs)
            assert np.max(np.abs(ch.apply(rho).matrix - deph.apply(rho).matrix)) < 1e-12

    def test_cq_embedding_statistics(self, rng):
        table = np.array([[0.7, 0.3], [0.2, 0.8]])
        ch = cq_embedding_channel(table)
        out = ch.apply(DensityOperator.diagonal([0.4, 0.6])).matrix
        want = 0.4 * table[0] + 0.6 * table[1]
        assert np.allclose(np.diag(out).real, want, atol=1e-12)

    def test_trace_preservation_across_zoo(self, rng):
        for ch in ZOO_SAMPLES:
            for _ in range(12):
                out = ch.apply(rand_density(rng, ch.dim_in))
                assert abs(np.trace(out.matrix) - 1.0) < 1e-10

    def test_stinespring_consistency_across_zoo(self, rng):
        for ch in ZOO_SAMPLES:
            iso = isometric_extension(ch)
            for _ in range(5):
                rho = rand_density(rng, ch.dim_in)
                assert np.max(np.abs(iso.apply(rho).matrix - ch.apply(rho).matrix)) < 1e-9

    def test_zoo_dispatcher(self):
        assert zoo("identity", d=3).dim_in == 3
        assert len(zoo("dephasing", p=1.0).kraus) == 2
        with pytest.raises(ValidationError):
            zoo("warp", p=0.1)
        with pytest.raises(ValidationError):
            zoo("dephasing", p=1.5)

    @pytest.mark.parametrize("name, params, named", [("identity", {"p": 0.1}, "'p'"),
                                                     ("dephasing", {"p": 0.5, "d": 3}, "'d'")],
                             ids=["p-on-identity", "d-on-dephasing"])
    def test_parameter_the_builder_does_not_take_is_named(self, name, params, named):
        with pytest.raises(ValidationError, match=named):
            zoo(name, **params)

    def test_out_of_range_params(self):
        for build in (dephasing_channel, depolarizing_channel, erasure_channel):
            with pytest.raises(ValidationError):
                build(-0.1)
            with pytest.raises(ValidationError):
                build(1.1)


def _channel_doc(ch) -> dict:
    """A channel JSON document in the layout ``channel_from_json`` reads (the CLI's channel files)."""
    return {"dim_in": ch.dim_in, "dim_out": ch.dim_out, "kraus": [matrix_to_json(k) for k in ch.kraus]}


class TestChannelJson:
    def test_round_trip(self, rng):
        ch = rand_channel(rng, 2, 3, 2)
        doc = json.loads(json.dumps(_channel_doc(ch)))
        back = channel_from_json(doc)
        assert back.dim_in == ch.dim_in and back.dim_out == ch.dim_out
        for a, b in zip(ch.kraus, back.kraus):
            assert np.max(np.abs(a - b)) < 1e-15

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            channel_from_json({"kraus": [[[1.0, 0.0], [0.0, 1.0]]]})  # pairs missing

    def test_dim_contradiction_rejected(self, rng):
        ch = rand_channel(rng, 2, 2, 2)
        doc = _channel_doc(ch)
        doc["dim_in"] = 5
        with pytest.raises(ValidationError):
            channel_from_json(doc)
