import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pubpriv import entropics, region
from pubpriv.channels import (
    IsometricExtension,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    isometric_extension,
)
from pubpriv.entropics import InputEnsemble
from pubpriv.errors import DimensionError, ValidationError
from pubpriv.qcore import DensityOperator, validate_probabilities, validate_states
from pubpriv.region import (
    PARETO_CSV_COLUMNS,
    OptimizerConfig,
    RateTriple,
    RegionConstraints,
    _Parametrization,
    is_in_one_shot_region,
    one_shot_constraints,
    optimize_region,
    pareto_csv_rows,
    pareto_surface,
    skp_constraints,
)

from conftest import over_x, rand_ensemble


def ket(k, d=2):
    return DensityOperator.basis_state(k, d)


ISO_ID = isometric_extension(identity_channel(2))
ISO_DEPH = isometric_extension(dephasing_channel(1.0))
ISO_DEPH_HALF = isometric_extension(dephasing_channel(0.5))
ISO_DEPOL_03 = isometric_extension(depolarizing_channel(0.3))
ISO_DEPOL = isometric_extension(depolarizing_channel(1.0))

FAST_CFG = OptimizerConfig(restarts=2, max_iters=120, seed=7, alphabet_x=2, alphabet_y=2)


def grid_oracle_best_holevo(probs_grid):
    """Independent capacity oracle for basis ensembles through a noiseless channel.

    Basis states stay perfectly distinguishable, so the Holevo quantity of a
    basis ensemble is just the Shannon entropy of its weights; the best grid
    value lower-bounds the public rate the optimizer should reach.
    """
    best = 0.0
    for p in probs_grid:
        p = np.asarray(p)
        nz = p[p > 0]
        best = max(best, float(-(nz * np.log2(nz)).sum()))
    return best


class TestConstraints:
    def test_identity_public_only(self):
        ens = over_x([0.5, 0.5], [ket(0), ket(1)])
        rc = one_shot_constraints(ens, ISO_ID)
        assert abs(rc.a - 1.0) < 1e-12 and rc.b == 0.0 and rc.c == 0.0

    def test_identity_private_only(self):
        ens = InputEnsemble.over_y([0.5, 0.5], [ket(0), ket(1)])
        rc = one_shot_constraints(ens, ISO_ID)
        assert rc.a == 0.0 and abs(rc.b - 1.0) < 1e-12 and rc.c == 0.0

    def test_depolarizing_rates_vanish(self, rng):
        # Bob's output is constant, so a = b = 0 and no rate is achievable;
        # c stays positive (the complementary channel hands Eve the purification).
        rc = one_shot_constraints(rand_ensemble(rng, 2, 2, 2), ISO_DEPOL)
        assert max(rc.a, rc.b) < 1e-9
        triple = RateTriple(R=rc.a, P=max(0.0, min(rc.b, rc.b - rc.c)), R_S=0.0)
        assert max(triple.R, triple.P) < 1e-6

    def test_provenance_carried(self, rng):
        ens = rand_ensemble(rng, 2, 1, 2)
        assert one_shot_constraints(ens, ISO_ID).ensemble is ens


class TestMembership:
    def test_boundary_point(self):
        assert is_in_one_shot_region(RateTriple(1, 0, 0), RegionConstraints(1, 0, 0))

    def test_private_needs_key_when_leaky(self):
        rc = RegionConstraints(a=0, b=1, c=1)
        assert not is_in_one_shot_region(RateTriple(0, 1, 0), rc)
        assert is_in_one_shot_region(RateTriple(0, 1, 1), rc)

    def test_monotone_in_key(self, rng):
        for _ in range(50):
            rc = RegionConstraints(*rng.random(3))
            r, p, rs = rng.random(3)
            extra = rng.random()
            if is_in_one_shot_region(RateTriple(r, p, rs), rc):
                assert is_in_one_shot_region(RateTriple(r, p, rs + extra), rc)

    def test_key_saturation(self, rng):
        # once R_S >= c the private ceiling P <= b is the binding constraint
        for _ in range(50):
            a, b, c = rng.random(3)
            rc = RegionConstraints(a, b, c)
            r_s = c + rng.random()
            assert is_in_one_shot_region(RateTriple(0, b, r_s), rc)
            assert not is_in_one_shot_region(RateTriple(0, b + 1e-6, r_s), rc)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValidationError):
            RateTriple(-0.5, 0, 0)

    def test_nan_rates_and_constraints_rejected(self):
        with pytest.raises(ValidationError):
            RateTriple(0, np.nan, 0)
        with pytest.raises(ValidationError):
            RegionConstraints(0, 0, np.nan)


class TestSkpReduction:
    def test_identity(self):
        ens = InputEnsemble.over_y([0.5, 0.5], [ket(0), ket(1)])
        pair = skp_constraints(ens, ISO_ID)
        assert abs(pair.i_yb - 1.0) < 1e-12 and pair.i_ye == 0.0

    def test_dephasing_needs_full_key(self):
        ens = InputEnsemble.over_y([0.5, 0.5], [ket(0), ket(1)])
        pair = skp_constraints(ens, ISO_DEPH)
        assert abs(pair.i_yb - 1.0) < 1e-12
        assert abs(pair.i_ye - 1.0) < 1e-12

    def test_matches_one_shot_with_trivial_x(self, rng):
        for _ in range(50):
            ens = rand_ensemble(rng, 1, int(rng.integers(1, 4)), 2)
            pair = skp_constraints(ens, ISO_DEPH)
            rc = one_shot_constraints(ens, ISO_DEPH)
            assert abs(pair.i_yb - rc.b) < 1e-12
            assert abs(pair.i_ye - rc.c) < 1e-12

    def test_requires_trivial_x(self, rng):
        with pytest.raises(DimensionError):
            skp_constraints(rand_ensemble(rng, 2, 2, 2), ISO_ID)


class TestOptimizer:
    def test_identity_public_capacity(self):
        res = optimize_region(ISO_ID, 0.0, (1.0, 0.0), FAST_CFG)
        oracle = grid_oracle_best_holevo([[q, 1 - q] for q in np.linspace(0, 1, 21)])
        assert abs(res.achieved.R - oracle) < 1e-3
        assert abs(res.achieved.R - 1.0) < 1e-3

    def test_identity_private_capacity(self):
        res = optimize_region(ISO_ID, 0.0, (0.0, 1.0), FAST_CFG)
        assert abs(res.achieved.P - 1.0) < 1e-3

    def test_depolarizing_is_useless(self):
        res = optimize_region(ISO_DEPOL, 0.0, (1.0, 1.0),
                              OptimizerConfig(restarts=1, max_iters=40, seed=1, alphabet_x=2, alphabet_y=1))
        assert res.objective < 1e-6

    @pytest.mark.parametrize("weights", [(np.nan, 1.0), (np.inf, 1.0)])
    def test_non_finite_weights_are_rejected(self, weights):
        with pytest.raises(ValidationError, match="weights"):
            optimize_region(ISO_DEPH, 0.0, weights, FAST_CFG)

    def test_deterministic_given_seed(self):
        a = optimize_region(ISO_DEPH, 0.5, (0.0, 1.0), FAST_CFG)
        b = optimize_region(ISO_DEPH, 0.5, (0.0, 1.0), FAST_CFG)
        assert a.achieved == b.achieved
        assert a.objective == b.objective
        assert np.array_equal(a.ensemble.p_x, b.ensemble.p_x)
        assert np.array_equal(a.ensemble.p_y_given_x, b.ensemble.p_y_given_x)
        assert np.array_equal(a.ensemble.states, b.ensemble.states)

    def test_achievability_certificate(self, rng):
        res = optimize_region(ISO_DEPH, 0.5, (0.5, 0.5), FAST_CFG)
        rc = one_shot_constraints(res.ensemble, ISO_DEPH)
        assert is_in_one_shot_region(res.achieved, rc, tol=1e-9)

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            optimize_region(ISO_ID, 0.0, (0.0, 0.0), FAST_CFG)
        with pytest.raises(ValidationError):
            optimize_region(ISO_ID, -1.0, (1.0, 0.0), FAST_CFG)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(restarts=0)

    def test_negative_seed_rejected(self):
        # np.random.SeedSequence would raise a bare ValueError at the first random restart
        with pytest.raises(ValidationError):
            OptimizerConfig(seed=-1)

    def test_converged_reports_the_winning_restart(self):
        """Restart 0 (the structured start) converges at a ≈ 0 on dephasing(0.5);
        restart 1 beats it but runs out of its 10 iterations."""
        iso = isometric_extension(dephasing_channel(0.5))
        kw = dict(max_iters=10, seed=1, alphabet_x=2, alphabet_y=2)
        first = optimize_region(iso, 0.0, (1.0, 0.0), OptimizerConfig(restarts=1, **kw))
        both = optimize_region(iso, 0.0, (1.0, 0.0), OptimizerConfig(restarts=2, **kw))
        assert first.converged
        assert both.objective > first.objective + 1e-3
        assert not both.converged

    def test_default_alphabet_ceiling(self):
        nx, ny = OptimizerConfig().resolve_alphabets(ISO_ID)
        assert nx == min(2, 2) ** 2 + 1
        assert ny == 4


    @pytest.mark.parametrize("field", ["restarts", "max_iters", "seed", "alphabet_x", "alphabet_y"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(ValidationError, match=field):
            OptimizerConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        cfg = OptimizerConfig(restarts=np.int64(2), max_iters=np.int32(5), seed=np.uint8(3), alphabet_x=np.int64(2))
        assert cfg.resolve_alphabets(ISO_ID) == (2, 4)

    @pytest.mark.parametrize("kw", [dict(max_iters=8), dict(max_iters=40, alphabet_x=1, alphabet_y=2)])
    def test_state_stage_is_reused_while_the_states_stay(self, monkeypatch, kw):
        """Every evaluation scores its candidate as a from-scratch build does, and the states are evolved once per
        distinct state block of θ, plus once per witness check: the probability blocks reuse the state stage of
        the block they hold fixed. At 8 iterations no state block run starts, so each restart scores one block;
        at 40 the state block moves too."""
        evolve, decode_states = IsometricExtension.evolve, _Parametrization.decode_states
        evolved, state_blocks = [], []
        monkeypatch.setattr(IsometricExtension, "evolve", lambda iso, rho: evolved.append(1) or evolve(iso, rho))
        monkeypatch.setattr(_Parametrization, "decode_states",
                            lambda par, theta: state_blocks.append(theta[par.sl_states].tobytes())
                            or decode_states(par, theta))
        score = region.one_shot_constraints
        scored = []

        def recorded(*args):
            rc = score(*args)
            scored.append((args, rc))
            return rc

        monkeypatch.setattr(region, "one_shot_constraints", recorded)
        res = optimize_region(ISO_DEPH_HALF, 0.0, (1.0, 1.0), OptimizerConfig(restarts=2, seed=7, **kw))
        n_evolved = len(evolved)
        candidates = [(args[0], rc) for args, rc in scored if len(args) == 4]
        witnesses = len(scored) - len(candidates)
        assert witnesses == (2 if res.ensemble.size_y == 1 < ISO_DEPH_HALF.dim_in ** 2 else 1)
        distinct = len(set(state_blocks))
        assert n_evolved - witnesses == distinct and len(candidates) > 4 * distinct
        assert distinct == 2 if kw["max_iters"] == 8 else distinct > 2
        for cand, rc in candidates:
            fresh = score(SimpleNamespace(p_x=cand.p_x, p_y_given_x=cand.p_y_given_x, states=cand.states),
                          ISO_DEPH_HALF)
            assert (rc.a, rc.b, rc.c) == (fresh.a, fresh.b, fresh.c)

    @pytest.mark.parametrize("iso, kw", [
        (ISO_DEPOL_03, dict(alphabet_x=2, alphabet_y=2)),  # d_B = 2, d_E = 4
        (ISO_DEPH_HALF, dict(alphabet_x=2, alphabet_y=2, pure_states_only=False)),
        (ISO_DEPOL_03, dict(alphabet_x=1, alphabet_y=3)),
    ])
    def test_every_block_move_scores_as_a_fresh_build(self, monkeypatch, iso, kw):
        """Each candidate is scored from the stages the optimizer kept: a p(x) move keeps the conditional stage and
        runs one eigensolve, S(σ^B); a p(y|x) move keeps the state stage, and a state move keeps nothing, each
        with one eigensolve of [σ_x; σ] per system. Every score equals a from-scratch build to the bit."""
        entropy, score = entropics.von_neumann_entropy, region.one_shot_constraints
        solves, scored = [], []
        monkeypatch.setattr(entropics, "von_neumann_entropy", lambda m: solves.append(1) or entropy(m))

        def recorded(ens, iso_, marginals=None, conditionals=None):
            kept, before = bool(conditionals), len(solves)
            rc = score(ens, iso_, marginals, conditionals)
            if marginals is not None:
                move = "p_x" if kept else "p_y_given_x" if scored and scored[-1][1] is marginals else "states"
                scored.append((move, marginals, ens, rc, len(solves) - before))
            return rc

        monkeypatch.setattr(region, "one_shot_constraints", recorded)
        optimize_region(iso, 0.5, (1.0, 1.0), OptimizerConfig(restarts=2, max_iters=200, seed=5, **kw))
        moves = [move for move, *_ in scored]
        assert all(moves.count(move) > 2 for move in ("p_x", "p_y_given_x", "states"))
        for move, _, ens, rc, n_solves in scored:
            assert n_solves == (1 if move == "p_x" else 2)
            fresh = score(SimpleNamespace(p_x=ens.p_x, p_y_given_x=ens.p_y_given_x, states=ens.states), iso)
            assert [v.hex() for v in (rc.a, rc.b, rc.c)] == [v.hex() for v in (fresh.a, fresh.b, fresh.c)]

    @pytest.mark.xfail(strict=True, reason="the probability blocks use up the default iteration budget")
    def test_default_budget_reaches_the_state_block(self, monkeypatch):
        """At the default config every restart spends its whole budget on the p(x) and p(y|x) blocks, so the
        only state blocks decoded are the restarts' starts (and the witness's, again)."""
        decode_states, blocks = _Parametrization.decode_states, []
        monkeypatch.setattr(_Parametrization, "decode_states",
                            lambda par, theta: blocks.append(theta[par.sl_states].tobytes())
                            or decode_states(par, theta))
        cfg = OptimizerConfig()
        optimize_region(ISO_DEPH_HALF, 0.0, (1.0, 0.0), cfg)
        assert len(set(blocks)) > cfg.restarts


class TestParetoSurface:
    def test_dephasing_key_tradeoff(self):
        samples = pareto_surface(ISO_DEPH, [0.0, 0.5, 1.0], [(0.0, 1.0)], FAST_CFG)
        got = [s.result.achieved.P for s in samples]
        # oracle: every ensemble sees b == c on this channel (Eve holds a copy
        # of Bob's basis value), so P = min(b, R_S) <= min(1, R_S), with
        # equality reachable by uniform basis inputs.
        assert np.allclose(got, [0.0, 0.5, 1.0], atol=1e-2)

    def test_monotone_in_key(self):
        samples = pareto_surface(ISO_DEPH, [0.0, 0.25, 0.5, 0.75, 1.0], [(0.0, 1.0)], FAST_CFG)
        ps = [s.result.achieved.P for s in samples]
        for lo, hi in zip(ps, ps[1:]):
            assert hi >= lo - 1e-3

    def test_identity_key_independent(self):
        samples = pareto_surface(ISO_ID, [0.0, 1.0], [(0.0, 1.0)], FAST_CFG)
        ps = [s.result.achieved.P for s in samples]
        assert abs(ps[0] - ps[1]) < 1e-3

    def test_empty_weight_grid(self):
        assert pareto_surface(ISO_ID, [0.0], [], FAST_CFG) == []

    def test_csv_rows_shape(self):
        samples = pareto_surface(ISO_ID, [0.0], [(1.0, 0.0)], FAST_CFG)
        rows = pareto_csv_rows(samples, FAST_CFG)
        assert len(rows) == 1 and len(rows[0]) == len(PARETO_CSV_COLUMNS) == 11
        assert rows[0][8] == FAST_CFG.seed
        assert PARETO_CSV_COLUMNS[-1] == "converged"
        assert rows[0][10] == int(samples[0].result.converged)


def _hex_and_digest(res):
    ens = res.ensemble
    digest = hashlib.sha256(ens.p_x.tobytes() + ens.p_y_given_x.tobytes() + ens.states.tobytes()).hexdigest()
    abc = (res.constraints.a, res.constraints.b, res.constraints.c, res.objective)
    return tuple(float(v).hex() for v in abc), digest[:16]


class TestBitIdentity:
    """(a, b, c, objective) and a digest of the witness, recorded with the per-state decoder
    that built one DensityOperator per (x, y); Nelder-Mead's path turns on the last bit."""

    @pytest.mark.parametrize("seed, want", [
        (1, (("0x1.4e03227391d16p-4", "0x1.25ea6fe4ce379p-2", "0x1.25f106f18e8d2p-3", "0x1.cce56a11d6cabp-3"),
             "199e13e680cf6ad6")),
        (7, (("0x1.92b968d6a0fc0p-4", "0x1.c20ceaaf9edfcp-3", "0x1.c277342b255b0p-4", "0x1.aa2e05055cb04p-3"),
             "4d167421af06a156")),
    ])
    def test_default_alphabets(self, seed, want):
        res = optimize_region(ISO_DEPH_HALF, 0.0, (1.0, 1.0), OptimizerConfig(restarts=2, max_iters=8, seed=seed))
        assert res.ensemble.states.shape == (5, 4, 2, 2)
        assert _hex_and_digest(res) == want

    def test_trivial_x(self):
        res = optimize_region(ISO_DEPOL_03, 0.5, (0.0, 1.0),
                              OptimizerConfig(restarts=2, max_iters=25, seed=1, alphabet_x=1))
        assert _hex_and_digest(res) == (
            ("0x0.0p+0", "0x1.8f7e91fe16196p-2", "0x1.082902882f1d3p-1", "0x1.7f2c8cedb7df0p-2"), "f09ea91156efdd07")

    def test_mixed_states(self):
        cfg = OptimizerConfig(restarts=2, max_iters=20, seed=3, alphabet_x=2, alphabet_y=2, pure_states_only=False)
        res = optimize_region(ISO_DEPH_HALF, 0.5, (1.0, 1.0), cfg)
        assert _hex_and_digest(res) == (
            ("0x1.8345410000000p-29", "0x1.ffffffe1be931p-1", "0x1.9f5fd8901853fp-1", "0x1.60a02769da932p-1"),
            "6dd3f479b3fee37a")


def _constant(x):
    return 0.0


def _quadratic(x):
    v = x.tolist()
    return sum((i + 1) * (a - 0.25 * i) ** 2 for i, a in enumerate(v)) + 0.5 * sum(a * b for a, b in zip(v, v[1:]))


def _rosenbrock(x):
    v = x.tolist()
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(v, v[1:]))


def _terraced(x):
    return float(math.floor(4.0 * sum(a * a for a in x.tolist())))


def _coupled(x):
    v = x.tolist()
    return sum((1 + i % 3) * (a - i / 8) ** 2 for i, a in enumerate(v)) + 0.1 * sum(a * b for a, b in zip(v, v[1:]))


# scipy.optimize.minimize(f, x0, method="Nelder-Mead", options={"maxiter": maxiter, "xatol": 1e-7, "fatol": 1e-8,
# "adaptive": True}) (scipy 1.17.1), recorded so that this module needs no scipy. The objectives are plain Python, so
# the values do not depend on numpy's SIMD kernels. name: (f, x0, maxiter, res.x, res.fun, res.nit, res.nfev)
NELDER_MEAD_SCIPY = {
    # skp's p(x) block: |X| = 1, so the softmax is constant; N = 1 gives σ = 0
    "n1_constant": (_constant, [0.0], 40, ["0x0.0p+0"], "0x0.0p+0", 2, 5),
    "zero_coordinates": (
        _quadratic, [0.0, 0.5, 0.0, -1.25, 0.0], 1000,
        ["-0x1.9f73565cf2138p-5", "0x1.9f736bd72b33cp-3", "0x1.b620c52fdc102p-2", "0x1.535e788208908p-1",
         "0x1.ef0812e4251c8p-1"], "0x1.1e3531b1f8b41p-1", 689, 1178),
    "stops_at_maxiter": (
        _rosenbrock, [-1.2, 1.0, -1.2, 1.0], 30,
        ["-0x1.cb30d986d5a90p-2", "0x1.05308605c3300p-5", "-0x1.1a36b636379b3p+0", "0x1.db1bc6dcd2df8p+0"],
        "0x1.5a37cbcade064p+7", 30, 51),
    # 39 of its 57 iterations shrink, and 53 of their 57 sorts see tied values
    "shrinks_on_ties": (
        _terraced, [1.5, 0.0, -2.0], 200,
        ["0x1.f2fc673da6c10p-1", "0x1.047474a7eca78p-9", "-0x1.2cf6c80d5b21ap-3"], "0x1.8000000000000p+1", 58, 230),
    "n16": (
        _coupled, [(i % 5 - 2) / 4 for i in range(16)], 640,
        ["0x1.43e2cb4657614p-3", "-0x1.a816d14ba2850p-4", "-0x1.11362e8a96addp-8", "0x1.c565611579462p-1",
         "0x1.a30268ca94aecp-2", "0x1.21507ba7f22a1p-1", "-0x1.746cb581b6f24p-3", "0x1.a6286d638c112p-9",
         "0x1.f4db90cc41a08p-1", "0x1.45729ea9d8323p+0", "0x1.3893872bb64dep+0", "0x1.2ab8b67e1ec68p+0",
         "0x1.3d4b4a5c30b33p-9", "0x1.a6f9ed71716f5p+0", "0x1.91571e003b4a9p+0", "0x1.e69f5bfe24e4cp+0"],
        "0x1.a1a4d82448a9ep+2", 640, 969),
}


class TestNelderMead:
    """The optimizer's Nelder-Mead is scipy's adaptive one to the bit: the same x, fun, iteration and call count."""

    @pytest.mark.parametrize("name", NELDER_MEAD_SCIPY)
    def test_equals_scipy(self, name):
        f, x0, maxiter, want_x, want_fun, want_nit, want_calls = NELDER_MEAD_SCIPY[name]
        calls = []
        x0 = np.array(x0)
        x, fun, nit = region._nelder_mead(lambda v: calls.append(v.copy()) or f(v), x0, maxiter)
        assert ([v.hex() for v in x.tolist()], float(fun).hex(), nit, len(calls)) == (
            want_x, want_fun, want_nit, want_calls)
        assert x0.tolist() == NELDER_MEAD_SCIPY[name][1]  # the start is left as it was

    def test_equals_scipy_when_argsort_reverses_ties(self, monkeypatch):
        """Sorts of up to 8 values keep the order of ties, longer ones may not. With an argsort that puts tied
        values in descending index order, scipy 1.17.1 (run with the same argsort) gives another path on the
        terraced objective, and the port gives scipy's: every sort scipy makes, it makes too."""
        argsort = np.argsort

        def reversed_ties(a, *args, **kwargs):
            return argsort(a, *args, **kwargs) if args or kwargs else len(a) - 1 - argsort(a[::-1], kind="stable")

        monkeypatch.setattr(np, "argsort", reversed_ties)
        x, fun, nit = region._nelder_mead(_terraced, np.array([1.5, 0.0, -2.0]), 200)
        assert ([v.hex() for v in x.tolist()], float(fun).hex(), nit) == (
            ["0x1.7b2dad6303a91p+0", "0x1.ac863e03ba0e4p-9", "0x1.97a7dbe58b490p-4"], "0x1.0000000000000p+3", 57)


def reference_state(raw, d, pure):
    """One input state from its raw block, one state at a time, as the decoder did before it
    worked on the whole stack."""
    if pure:
        v = raw[:d] + 1j * raw[d:]
        if np.linalg.norm(v) < 1e-9:
            v = np.eye(d)[0]
        return DensityOperator.pure(v).matrix
    a = (raw[: d * d] + 1j * raw[d * d:]).reshape(d, d)
    m = a @ a.conj().T
    tr = float(np.trace(m).real)
    return DensityOperator.maximally_mixed(d).matrix if tr < 1e-12 else DensityOperator(m / tr).matrix


class TestDecode:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("pure", [True, False])
    def test_matches_the_per_state_reference(self, d, pure):
        rng = np.random.default_rng(11)
        par = _Parametrization(5, 4, d, pure)
        for scale in (1e-3, 1.0, 30.0):
            theta = par.random_start(rng) * scale
            raw = theta[par.sl_states].reshape(5, 4, par.state_len)
            raw[3, 1] = 0.0
            theta[par.sl_states] = raw.reshape(-1)
            want = [[reference_state(raw[x, y], d, pure) for y in range(4)] for x in range(5)]
            assert np.array_equal(par.decode_states(theta), np.array(want))

    @pytest.mark.parametrize("pure", [True, False])
    def test_all_zero_state_block(self, pure):
        par = _Parametrization(2, 3, 2, pure)
        theta = par.random_start(np.random.default_rng(4))
        raw = theta[par.sl_states].reshape(2, 3, par.state_len)
        raw[1, 2] = 0.0
        theta[par.sl_states] = raw.reshape(-1)
        states = par.decode_states(theta)
        want = np.diag([1.0, 0.0]) if pure else np.eye(2) / 2
        assert np.array_equal(states[1, 2], want)
        assert not np.array_equal(states[0, 0], want)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("pure", [True, False])
    def test_candidates_are_valid_ensembles(self, d, pure):
        """The decoders run no check, so their candidates are checked here, for random and all-zero thetas:
        they pass both checks unchanged, so the witness built from one holds the same arrays."""
        rng = np.random.default_rng(9)
        par = _Parametrization(5, 4, d, pure)
        for theta in [np.zeros(par.total)] + [par.random_start(rng) * scale for scale in (1e-3, 1.0, 30.0)]:
            p_x, p_y_given_x, states = par.decode_p_x(theta), par.decode_p_y_given_x(theta), par.decode_states(theta)
            assert np.array_equal(validate_probabilities(p_x, "p_x"), p_x)
            assert np.array_equal(validate_probabilities(p_y_given_x, "p_y_given_x"), p_y_given_x)
            assert states.shape == (5, 4, d, d) and states.dtype == np.complex128
            validate_states(states)

    def test_rows_of_p_y_given_x_are_softmaxes(self):
        par = _Parametrization(3, 4, 2, True)
        theta = par.random_start(np.random.default_rng(5))
        p_y_given_x = par.decode_p_y_given_x(theta)
        for x, z in enumerate(theta[par.sl_py].reshape(3, 4)):
            e = np.exp(z - z.max())
            assert np.array_equal(p_y_given_x[x], e / e.sum())


class TestCertificates:
    """Every emitted row is a member of the one-shot region of its own witness."""

    @pytest.mark.parametrize("iso", [ISO_DEPOL_03, ISO_DEPH_HALF])
    @pytest.mark.parametrize("cfg, r_s_list, weights", [
        (OptimizerConfig(restarts=2, max_iters=8, seed=1), [0.0, 0.5], [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
        (OptimizerConfig(restarts=2, max_iters=25, seed=1, alphabet_x=1), [0.0, 0.5, 1.0], [(0.0, 1.0)]),
    ])
    def test_rows_are_members(self, iso, cfg, r_s_list, weights):
        samples = pareto_surface(iso, r_s_list, weights, cfg)
        for s, row in zip(samples, pareto_csv_rows(samples, cfg)):
            res = s.result
            rc = one_shot_constraints(res.ensemble, iso)
            assert (rc.a, rc.b, rc.c) == (res.constraints.a, res.constraints.b, res.constraints.c)
            assert is_in_one_shot_region(res.achieved, rc)
            assert row[3:8] == (res.achieved.R, res.achieved.P, rc.a, rc.b, rc.c)

    def test_skp_without_key_on_a_leaky_channel(self):
        """b - c < 0 for every witness here, so P = 0 is certified by the Y-collapsed witness."""
        res = optimize_region(ISO_DEPOL_03, 0.0, (0.0, 1.0),
                              OptimizerConfig(restarts=2, max_iters=25, seed=1, alphabet_x=1))
        assert res.ensemble.states.shape == (1, 1, 2, 2)
        assert (res.constraints.b, res.constraints.c, res.achieved.P) == (0.0, 0.0, 0.0)
        assert is_in_one_shot_region(res.achieved, res.constraints, tol=0.0)

    def test_collapse_keeps_the_public_rate(self):
        res = optimize_region(ISO_DEPOL_03, 0.0, (1.0, 0.0), OptimizerConfig(restarts=2, max_iters=8, seed=1))
        assert res.ensemble.states.shape == (5, 1, 2, 2)
        assert (res.constraints.b, res.constraints.c) == (0.0, 0.0)
        assert res.objective > 0.05
        assert abs(res.constraints.a - res.objective) < 1e-12


class TestChecksAtTheBoundary:
    """An ensemble is checked where it enters or leaves the library, not once per candidate."""

    @staticmethod
    def _checked_shapes(monkeypatch):
        """The shape of every stack `validate_states` checks from now on."""
        shapes = []
        check = entropics.validate_states

        def counted(m):
            shapes.append(m.shape)
            check(m)

        monkeypatch.setattr(entropics, "validate_states", counted)
        return shapes

    def test_optimizer_checks_only_its_witness(self, monkeypatch):
        shapes = self._checked_shapes(monkeypatch)
        evals = []
        score = region.one_shot_constraints

        def counted(*args):
            evals.append(args)
            return score(*args)

        monkeypatch.setattr(region, "one_shot_constraints", counted)
        cfg = OptimizerConfig(restarts=1, max_iters=20, alphabet_x=2, alphabet_y=2)
        res = optimize_region(ISO_DEPH_HALF, 0.0, (1.0, 0.0), cfg)
        assert len(evals) > 1
        assert shapes == [(2, 2, 2, 2)]
        assert isinstance(res.ensemble, InputEnsemble) and res.constraints.ensemble is res.ensemble

    def test_y_collapse_checks_both_witnesses(self, monkeypatch):
        shapes = self._checked_shapes(monkeypatch)
        res = optimize_region(ISO_DEPOL_03, 0.0, (0.0, 1.0),
                              OptimizerConfig(restarts=2, max_iters=25, seed=1, alphabet_x=1))
        assert shapes == [(1, 4, 2, 2), (1, 1, 2, 2)]
        assert isinstance(res.ensemble, InputEnsemble)

    def test_skp_constraints_checks_nothing(self, monkeypatch):
        ens = InputEnsemble.over_y([0.25, 0.75], [ket(0), ket(1)])
        shapes = self._checked_shapes(monkeypatch)
        pair = skp_constraints(ens, ISO_ID)
        assert shapes == []
        assert abs(pair.i_yb - 0.8112781244591328) < 1e-12 and pair.i_ye == 0.0
