"""Tests for the finite-alphabet least-squares solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from hybridprec import detect
from hybridprec.alphabets import (
    make_analog_alphabet, make_digital_alphabet, make_switch_alphabet,
)
from hybridprec.detect import (
    EPNumericalError, SearchSpaceError, SingularGramError, TriangularSystem,
    brute_force_ml, ep_solve, prepare_triangular, realify, residual_norm_sq,
    sesd_solve,
)

RNG_SEED = 31


def random_instance(rng, m, n, analog_bits=None, levels=None, delta=1.0):
    """One least-squares instance with lattice structure plus residual."""
    if analog_bits is not None:
        alphabet = make_analog_alphabet(analog_bits)
        g = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    else:
        alphabet = make_digital_alphabet(levels, delta, kind="digital-real")
        g = rng.standard_normal((n, m))
        noise = rng.standard_normal(n)
    z_true = rng.choice(alphabet.labels, size=m)
    c = g @ z_true + 0.5 * noise
    return c, g, alphabet


class TestPrepareTriangular:
    def test_orthonormal_columns(self):
        """Orthonormal columns reduce to the identity factor."""
        q, _ = np.linalg.qr(np.random.default_rng(RNG_SEED).standard_normal((5, 3))
                            + 1j * np.random.default_rng(RNG_SEED + 1).standard_normal((5, 3)))
        c = np.arange(1, 6).astype(complex)
        system = prepare_triangular(q, c)
        np.testing.assert_allclose(system.r, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(system.d, q.conj().T @ c, atol=1e-12)

    def test_objective_identity(self):
        """||c - G z||^2 equals ||d - R z||^2 + offset for any z."""
        rng = np.random.default_rng(RNG_SEED)
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        system = prepare_triangular(g, c)
        for _ in range(20):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            direct = residual_norm_sq(c, g, z)
            reduced = residual_norm_sq(system.d, system.r, z) + system.constant_offset
            assert direct == pytest.approx(reduced, abs=1e-9)

    def test_rank_deficient_with_ridge(self):
        g = np.ones((4, 3), dtype=complex)  # rank one
        system = prepare_triangular(g, np.ones(4, dtype=complex), ridge=1e-8)
        assert np.all(np.real(np.diag(system.r)) > 0)

    def test_singular_without_ridge_signals_retry(self):
        g = np.ones((4, 3), dtype=complex)
        with pytest.raises(SingularGramError) as err:
            prepare_triangular(g, np.ones(4, dtype=complex))
        assert err.value.suggested_ridge > 0

    def test_positive_real_diagonal(self):
        rng = np.random.default_rng(RNG_SEED)
        g = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        system = prepare_triangular(g, rng.standard_normal(5).astype(complex))
        diag = np.diag(system.r)
        assert np.all(diag.real > 0)
        np.testing.assert_allclose(diag.imag, 0.0, atol=1e-14)
        np.testing.assert_allclose(system.r.conj().T @ system.r, g.conj().T @ g, rtol=1e-10)


class TestRealify:
    def test_pure_real_is_block_diagonal(self):
        d = np.array([1.0, 2.0], dtype=complex)
        r = np.array([[2.0, 1.0], [0.0, 3.0]], dtype=complex)
        d_r, r_r = realify(d, r)
        np.testing.assert_array_equal(d_r, [1, 2, 0, 0])
        np.testing.assert_array_equal(r_r[:2, 2:], 0.0)
        np.testing.assert_array_equal(r_r[2:, :2], 0.0)

    @given(st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_norm_preserved(self, m, seed):
        """The stacked real form preserves squared residual norms."""
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        r = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        d_r, r_r = realify(d, r)
        z_r = np.concatenate([z.real, z.imag])
        assert residual_norm_sq(d, r, z) == pytest.approx(
            float(np.sum((d_r - r_r @ z_r) ** 2)), abs=1e-12 * (1 + np.sum(d_r**2)))

    def test_complex_and_real_routes_agree(self):
        """Brute force over the complex grid matches brute force over the
        stacked real form with the per-dimension labels (M <= 3)."""
        rng = np.random.default_rng(RNG_SEED)
        for m in (1, 2, 3):
            g = rng.standard_normal((m + 1, m)) + 1j * rng.standard_normal((m + 1, m))
            c = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
            complex_alpha = make_digital_alphabet(2, 0.8)
            real_alpha = make_digital_alphabet(2, 0.8, kind="digital-real")
            direct = brute_force_ml(c, g, complex_alpha)
            c_r = np.concatenate([c.real, c.imag])
            g_r = np.block([[g.real, -g.imag], [g.imag, g.real]])
            stacked = brute_force_ml(c_r, g_r, real_alpha)
            assert direct.objective == pytest.approx(stacked.objective, abs=1e-10)


class TestBruteForce:
    def test_scalar_equals_projection_rounding(self):
        """M=1 reduces to rounding the scalar least-squares solution."""
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_digital_alphabet(4, 1.0, kind="digital-real")
        g = rng.standard_normal((5, 1))
        c = rng.standard_normal(5)
        res = brute_force_ml(c, g, alphabet)
        proj = float(g[:, 0] @ c / (g[:, 0] @ g[:, 0]))
        by_hand = min(alphabet.labels, key=lambda lab: abs(proj - lab))
        assert res.z[0] == by_hand

    def test_identity_matrix_rounds_per_entry(self):
        alphabet = make_digital_alphabet(2, 1.0, kind="digital-real")
        c = np.array([0.9, -1.2, 0.1])
        res = brute_force_ml(c, np.eye(3), alphabet)
        np.testing.assert_array_equal(res.z, [0.5, -0.5, 0.5])

    def test_guard_refuses_large_spaces(self):
        alphabet = make_analog_alphabet(8)
        with pytest.raises(SearchSpaceError):
            brute_force_ml(np.zeros(4, dtype=complex),
                           np.zeros((4, 4), dtype=complex), alphabet)

    def test_tie_breaks_lexicographically(self):
        """With a zero system every candidate ties; the first index vector wins."""
        alphabet = make_digital_alphabet(2, 1.0, kind="digital-real")
        res = brute_force_ml(np.zeros(2), np.zeros((2, 2)), alphabet)
        np.testing.assert_array_equal(res.z, [alphabet.labels[0]] * 2)


class TestSphereDecoder:
    def test_identity_system_signs(self):
        alphabet = make_digital_alphabet(2, 2.0, kind="digital-real")  # {-1, +1}
        system = TriangularSystem(r=np.eye(2), d=np.array([0.9, -1.2]), constant_offset=0.0)
        res = sesd_solve(system, alphabet)
        np.testing.assert_array_equal(res.z, [1.0, -1.0])

    def test_matches_brute_force(self):
        """Exact oracle agreement across alphabets and sizes (subset of the
        acceptance sweep)."""
        rng = np.random.default_rng(RNG_SEED)
        for i in range(100):
            m = int(rng.integers(2, 5))
            n = m + int(rng.integers(0, 3))
            if i % 2 == 0:
                c, g, alphabet = random_instance(rng, m, n, analog_bits=int(rng.choice([1, 2])))
            else:
                c, g, alphabet = random_instance(rng, m, n, levels=int(rng.choice([2, 4])),
                                                 delta=float(rng.uniform(0.5, 2.0)))
            exact = brute_force_ml(c, g, alphabet)
            decoded = sesd_solve(prepare_triangular(g, c), alphabet)
            assert residual_norm_sq(c, g, decoded.z) == pytest.approx(exact.objective, abs=1e-10)

    def test_visits_fewer_nodes_than_enumeration(self):
        """Warm incumbents prune: node count is at most, and usually below,
        the full tree size."""
        rng = np.random.default_rng(RNG_SEED)
        strictly_fewer = 0
        n_inst = 50
        for _ in range(n_inst):
            m = 4
            c, g, alphabet = random_instance(rng, m, m + 2, levels=2)
            res = sesd_solve(prepare_triangular(g, c), alphabet)
            full_tree = sum(len(alphabet) ** i for i in range(1, m + 1))
            assert res.nodes_visited <= full_tree
            if res.nodes_visited < full_tree:
                strictly_fewer += 1
        assert strictly_fewer >= 0.9 * n_inst

    def test_scale_invariance_of_argmin(self):
        """Scaling c and G by the same power of two leaves the chosen labels
        bit-identical (costs scale exactly)."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            c, g, alphabet = random_instance(rng, 3, 5, analog_bits=2)
            base = sesd_solve(prepare_triangular(g, c), alphabet)
            scaled = sesd_solve(prepare_triangular(4.0 * g, 4.0 * c), alphabet)
            np.testing.assert_array_equal(base.z, scaled.z)

    def test_alphabet_membership(self):
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 4, 6, analog_bits=2)
        res = sesd_solve(prepare_triangular(g, c), alphabet)
        assert all(z in alphabet.labels for z in res.z)

    def test_objective_includes_offset(self):
        """The reported objective is the original-space residual."""
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 3, 6, levels=4)
        res = sesd_solve(prepare_triangular(g, c), alphabet)
        assert res.objective == pytest.approx(residual_norm_sq(c, g, res.z), abs=1e-10)


ALPHABETS = {
    "phase-1bit": (lambda: make_analog_alphabet(1), True),
    "phase-2bit": (lambda: make_analog_alphabet(2), True),
    "real-2level": (lambda: make_digital_alphabet(2, 0.8, kind="digital-real"), False),
    "real-8level": (lambda: make_digital_alphabet(8, 0.4, kind="digital-real"), False),
    "switch": (make_switch_alphabet, True),
}


def batch_instance(rng, kind, m, extra_rows, n_targets, rank_deficient, zero_targets):
    """P targets over one shared G: (C, G, alphabet, ridge)."""
    make, complex_valued = ALPHABETS[kind]
    n = m + extra_rows
    shape_g, shape_c = (n, m), (n, n_targets)
    g = rng.standard_normal(shape_g)
    c = rng.standard_normal(shape_c)
    if complex_valued:
        g = g + 1j * rng.standard_normal(shape_g)
        c = c + 1j * rng.standard_normal(shape_c)
    if rank_deficient and m > 1:
        g[:, -1] = g[:, 0]
    if zero_targets:
        c[:] = 0.0
    ridge = 0.0
    try:
        prepare_triangular(g, c[:, 0])
    except SingularGramError as exc:
        ridge = exc.suggested_ridge
    return c, g, make(), ridge


def batch_system(g, c, ridge):
    """The columns of c as targets of one shared triangular factor."""
    parts = [prepare_triangular(g, col, ridge) for col in c.T]
    return TriangularSystem(
        r=parts[0].r, d=np.stack([p.d for p in parts], axis=1),
        constant_offset=np.array([p.constant_offset for p in parts]), ridge=ridge)


def depth_first_sd(system, alphabet, warm=None):
    """Reference single-target Schnorr-Euchner search, recursive and depth-first:
    the incumbent is replaced only by a strictly cheaper leaf."""
    labels = alphabet.labels.astype(np.result_type(system.r, system.d, alphabet.labels))
    r, d = system.r.astype(labels.dtype), system.d.astype(labels.dtype)
    unconstrained = solve_triangular(r, d, lower=False)
    z = labels[np.argmin(np.abs(unconstrained[:, None] - labels), axis=1)]
    best = {"cost": residual_norm_sq(d, r, z), "z": z}
    if warm is not None and residual_norm_sq(d, r, warm) < best["cost"]:
        best = {"cost": residual_norm_sq(d, r, warm), "z": warm.astype(labels.dtype)}
    path = np.zeros(len(d), dtype=labels.dtype)

    def descend(level, y, cost):
        increments = np.abs(y[level] - np.real(r[level, level]) * labels) ** 2
        for k in np.argsort(increments, kind="stable"):
            child = cost + increments[k]
            if child >= best["cost"]:
                return
            path[level] = labels[k]
            if level == 0:
                best.update(cost=child, z=path.copy())
            else:
                descend(level - 1, y[:level] - r[:level, level] * labels[k], child)

    descend(len(d) - 1, d.copy(), 0.0)
    return best["z"]


batch_cases = st.tuples(
    st.integers(0, 2**31 - 1), st.sampled_from(sorted(ALPHABETS)),
    st.integers(1, 4), st.integers(0, 2), st.integers(1, 6),
    st.booleans(), st.booleans(),
)


class TestBatchedSphereDecoder:
    @given(batch_cases)
    @settings(max_examples=150, deadline=None)
    def test_every_target_matches_enumeration(self, case):
        """Each target's objective equals exhaustive enumeration's, ridge included."""
        seed, kind, m, extra, n_targets, deficient, zeros = case
        rng = np.random.default_rng(seed)
        c, g, alphabet, ridge = batch_instance(rng, kind, m, extra, n_targets, deficient, zeros)
        res = sesd_solve(batch_system(g, c, ridge), alphabet)
        assert res.z.shape == (n_targets, m)
        assert res.diagnostics["peak_frontier"] <= detect.SD_BLOCK * len(alphabet)
        # a ridge adds ridge*||z||^2: enumerate over G stacked on sqrt(ridge) I
        g_aug = np.vstack([g, np.sqrt(ridge) * np.eye(m)])
        for j in range(n_targets):
            c_aug = np.concatenate([c[:, j], np.zeros(m)])
            exact = brute_force_ml(c_aug, g_aug, alphabet)
            assert all(z in alphabet.labels for z in res.z[j])
            assert residual_norm_sq(c_aug, g_aug, res.z[j]) == pytest.approx(
                exact.objective, abs=1e-10)
            assert res.objective[j] == pytest.approx(exact.objective, abs=1e-10)

    @given(batch_cases, st.integers(1, 5), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_single_solves(self, case, block, warm):
        """A batch returns byte-identical labels to its targets solved one at a
        time, also when a tiny block splits the frontier into many blocks."""
        seed, kind, m, extra, n_targets, deficient, zeros = case
        rng = np.random.default_rng(seed)
        c, g, alphabet, ridge = batch_instance(rng, kind, m, extra, n_targets, deficient, zeros)
        system = batch_system(g, c, ridge)
        warm_starts = rng.choice(alphabet.labels, size=(n_targets, m)) if warm else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "SD_BLOCK", block)
            res = sesd_solve(system, alphabet, warm_starts=warm_starts)
            assert res.diagnostics["peak_frontier"] <= block * len(alphabet)
        for j in range(n_targets):
            single = sesd_solve(
                TriangularSystem(r=system.r, d=system.d[:, j],
                                 constant_offset=float(system.constant_offset[j]), ridge=ridge),
                alphabet, warm_starts=None if warm_starts is None else warm_starts[j])
            np.testing.assert_array_equal(res.z[j], single.z)
            assert res.objective[j] == single.objective

    @given(batch_cases, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_depth_first_reference(self, case, warm):
        """Ties resolve as in a depth-first search: incumbents keep their place,
        then the first minimum-cost leaf in Schnorr-Euchner order wins."""
        seed, kind, m, extra, n_targets, deficient, zeros = case
        rng = np.random.default_rng(seed)
        c, g, alphabet, ridge = batch_instance(rng, kind, m, extra, n_targets, deficient, zeros)
        system = batch_system(g, c, ridge)
        warm_starts = rng.choice(alphabet.labels, size=(n_targets, m)) if warm else None
        res = sesd_solve(system, alphabet, warm_starts=warm_starts)
        for j in range(n_targets):
            single = TriangularSystem(r=system.r, d=system.d[:, j], constant_offset=0.0)
            expected = depth_first_sd(single, alphabet,
                                      None if warm_starts is None else warm_starts[j])
            np.testing.assert_array_equal(res.z[j], expected)

    def test_large_batch_spans_blocks(self):
        """Over SD_BLOCK targets at the default block size: the roots alone fill
        two blocks, every expansion stays within SD_BLOCK times the label count,
        and the labels equal one-at-a-time solves."""
        rng = np.random.default_rng(RNG_SEED)
        n_targets = detect.SD_BLOCK + 300
        c, g, alphabet, ridge = batch_instance(rng, "phase-2bit", 4, 1, n_targets, False, False)
        system = batch_system(g, c, ridge)
        res = sesd_solve(system, alphabet)
        assert detect.SD_BLOCK < res.diagnostics["peak_frontier"] <= detect.SD_BLOCK * len(alphabet)
        for j in range(0, n_targets, 7):
            single = sesd_solve(
                TriangularSystem(r=system.r, d=system.d[:, j],
                                 constant_offset=float(system.constant_offset[j])), alphabet)
            np.testing.assert_array_equal(res.z[j], single.z)

    def test_full_tie_keeps_the_incumbent(self):
        """With an identity factor and zero targets every label vector ties;
        the rounded incumbent (first label everywhere) keeps its place."""
        alphabet = make_digital_alphabet(2, 1.0, kind="digital-real")
        system = batch_system(np.eye(4), np.zeros((4, 3)), 0.0)
        res = sesd_solve(system, alphabet)
        np.testing.assert_array_equal(res.z, np.full((3, 4), alphabet.labels[0]))


class TestExpectationPropagation:
    def test_decoupled_system_rounds_entries(self):
        """With an identity system and well-separated labels the first
        iteration already returns the entrywise nearest labels."""
        alphabet = make_digital_alphabet(2, 2.0, kind="digital-real")
        c = np.array([0.9, -1.1, 0.4])
        res = ep_solve(c, np.eye(3), alphabet, max_iter=1)
        np.testing.assert_array_equal(res.z, [1.0, -1.0, 1.0])

    def test_full_damping_freezes_factors(self):
        """damping=1 keeps the factor parameters at their initialization, so
        the output is the rounded ridge-regularized least-squares mean."""
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 3, 5, levels=4)
        res = ep_solve(c, g, alphabet, damping=1.0, max_iter=1)
        state = res.diagnostics["state"]
        np.testing.assert_array_equal(state.lambda_diag, np.ones(3))
        np.testing.assert_array_equal(state.gamma, np.zeros(3))
        mean = np.linalg.solve(g.T @ g + np.eye(3), g.T @ c)
        expected = alphabet.labels[np.argmin(np.abs(mean[:, None] - alphabet.labels), axis=1)]
        np.testing.assert_array_equal(res.z, expected)

    def test_near_optimal_against_sphere_decoder(self):
        """Within 5% of the exact objective on at least 90% of instances."""
        rng = np.random.default_rng(RNG_SEED)
        hits = 0
        n_inst = 60
        for i in range(n_inst):
            if i % 2 == 0:
                c, g, alphabet = random_instance(rng, 4, 6, analog_bits=int(rng.choice([1, 2])))
            else:
                c, g, alphabet = random_instance(rng, 4, 6, levels=int(rng.choice([2, 4])))
            exact = sesd_solve(prepare_triangular(g, c), alphabet)
            approx = ep_solve(c, g, alphabet)
            assert approx.iterations <= 30
            if approx.objective <= 1.05 * exact.objective + 1e-12:
                hits += 1
        assert hits >= 0.9 * n_inst

    def test_membership_and_bounded_iterations(self):
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 4, 6, analog_bits=2)
        res = ep_solve(c, g, alphabet, max_iter=12)
        assert res.iterations <= 12
        assert all(z in alphabet.labels for z in res.z)

    def test_returned_objective_not_worse_than_final_mean(self):
        """The best-iterate objective is at least as good as rounding the
        final posterior mean."""
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 4, 6, levels=4)
        res = ep_solve(c, g, alphabet)
        mu = res.diagnostics["state"].mu
        final = alphabet.labels[np.argmin(np.abs(mu[:, None] - alphabet.labels), axis=1)]
        assert res.objective <= residual_norm_sq(c, g, final) + 1e-12

    def test_nonfinite_input_aborts_with_iteration(self):
        alphabet = make_digital_alphabet(2, 1.0, kind="digital-real")
        c = np.array([np.inf, 0.0])
        with pytest.raises(EPNumericalError) as err:
            ep_solve(c, np.eye(2), alphabet)
        assert err.value.iteration >= 1

    def test_rejects_bad_damping(self):
        alphabet = make_digital_alphabet(2, 1.0, kind="digital-real")
        with pytest.raises(ValueError):
            ep_solve(np.ones(2), np.eye(2), alphabet, damping=1.5)
