"""Tests for the finite-alphabet least-squares solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridprec import detect
from hybridprec.alphabets import (
    Alphabet, make_analog_alphabet, make_digital_alphabet, make_switch_alphabet,
)
from hybridprec.detect import (
    EPNumericalError, SearchSpaceError, TriangularSystem,
    brute_force_ml, ep_solve, prepare_triangular, realify,
    residual_norm_sq, sesd_solve,
)

RNG_SEED = 31
PHASE = make_analog_alphabet(2)  # complex labels centred on 0


def random_instance(rng, m, n, analog_bits=None, levels=None, delta=1.0):
    """One least-squares instance with lattice structure plus residual."""
    if analog_bits is not None:
        alphabet = make_analog_alphabet(analog_bits)
        g = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    else:
        alphabet = make_digital_alphabet(levels, delta)
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
        system = prepare_triangular(q, c, PHASE)
        np.testing.assert_allclose(system.r, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(system.d, (q.conj().T @ c)[system.order], atol=1e-12)

    def test_objective_identity(self):
        """||c - G z||^2 equals ||d - R z||^2 + offset for any z."""
        rng = np.random.default_rng(RNG_SEED)
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        system = prepare_triangular(g, c, PHASE)
        for _ in range(20):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            direct = residual_norm_sq(c, g, z)
            reduced = residual_norm_sq(system.d, system.r, z[system.order]) + system.constant_offset
            assert direct == pytest.approx(reduced, abs=1e-9)

    def test_rank_deficient_with_ridge(self):
        """A singular Gram matrix is factored ridge-loaded: ||c - G z||^2 +
        ridge ||z||^2 equals ||d - R z||^2 + offset."""
        g = np.ones((4, 3), dtype=complex)  # rank one
        c = np.arange(1, 5).astype(complex)
        system = prepare_triangular(g, c, PHASE)
        assert system.ridge > 0
        assert np.all(np.real(np.diag(system.r)) > 0)
        z = np.array([1.0, -1.0, 1j])
        direct = residual_norm_sq(c, g, z) + system.ridge * np.linalg.norm(z) ** 2
        reduced = residual_norm_sq(system.d, system.r, z[system.order]) + system.constant_offset
        assert direct == pytest.approx(reduced, abs=1e-9)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_one_ridge_orders_and_loads(self, complex_valued):
        """A rank-deficient G is factored with the load that chose its column
        order, rho = 1e-10 * trace(G^H G) / m: R^H R is the permuted loaded Gram."""
        rng = np.random.default_rng(RNG_SEED)
        g = rng.standard_normal((6, 4)) + (1j * rng.standard_normal((6, 4)) if complex_valued else 0)
        g[:, 2] = g[:, 0]
        gram = g.conj().T @ g
        system = prepare_triangular(g, rng.standard_normal(6), PHASE)
        assert system.ridge == 1e-10 * float(gram.trace().real) / 4
        loaded = (gram + system.ridge * np.eye(4))[np.ix_(system.order, system.order)]
        np.testing.assert_allclose(system.r.conj().T @ system.r, loaded, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_many_targets_equal_per_column_builds(self, rank_deficient):
        """Targets as columns share one factor, ordered by the whole batch; each
        column states the same objective as a build of that column alone, in
        its own order. A zero column makes G rank deficient without amplifying
        rounding in d."""
        rng = np.random.default_rng(RNG_SEED)
        g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        if rank_deficient:
            g[:, 1] = 0.0
        c = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        system = prepare_triangular(g, c, PHASE)
        assert (system.ridge > 0) == rank_deficient
        assert sorted(system.order) == [0, 1, 2]
        for j, col in enumerate(c.T):
            single = prepare_triangular(g, col, PHASE)
            assert single.ridge == pytest.approx(system.ridge, rel=1e-12)
            for _ in range(5):
                z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                batch_cost = (residual_norm_sq(system.d[:, j], system.r, z[system.order])
                              + system.constant_offset[j])
                single_cost = (residual_norm_sq(single.d, single.r, z[single.order])
                               + single.constant_offset)
                assert batch_cost == pytest.approx(single_cost, abs=1e-10)

    def test_positive_real_diagonal(self):
        rng = np.random.default_rng(RNG_SEED)
        g = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        system = prepare_triangular(g, rng.standard_normal(5).astype(complex), PHASE)
        diag = np.diag(system.r)
        assert np.all(diag.real > 0)
        np.testing.assert_allclose(diag.imag, 0.0, atol=1e-14)
        permuted = g[:, system.order]
        np.testing.assert_allclose(system.r.conj().T @ system.r, permuted.conj().T @ permuted,
                                   rtol=1e-10)


class TestForwardSolve:
    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("rhs", [None, 1, 16])
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_matches_scipy_solve_triangular(self, m, rhs, complex_valued):
        """The forward solve of ``prepare_triangular``, R^H d = (G^H c)[order],
        agrees with scipy's triangular solve, the test-only oracle."""
        from scipy.linalg import solve_triangular
        rng = np.random.default_rng(RNG_SEED + m)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if complex_valued else x
        g = draw(m + 3, m)
        c = draw(m + 3) if rhs is None else draw(m + 3, rhs)
        system = prepare_triangular(g, c, PHASE if complex_valued else make_digital_alphabet(4, 1.0))
        assert system.ridge == 0.0
        proj = (g.conj().T @ c)[system.order]
        assert system.d.shape == proj.shape and system.d.dtype == proj.dtype
        np.testing.assert_allclose(system.d, solve_triangular(system.r.conj().T, proj, lower=True),
                                   rtol=1e-12)


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
            real_alpha = make_digital_alphabet(2, 0.8)
            real = real_alpha.labels
            complex_alpha = Alphabet(labels=(real[:, None] + 1j * real[None, :]).ravel())
            direct = brute_force_ml(c, g, complex_alpha)
            c_r = np.concatenate([c.real, c.imag])
            g_r = np.block([[g.real, -g.imag], [g.imag, g.real]])
            stacked = brute_force_ml(c_r, g_r, real_alpha)
            assert direct.objective == pytest.approx(stacked.objective, abs=1e-10)


class TestBruteForce:
    def test_scalar_equals_projection_rounding(self):
        """M=1 reduces to rounding the scalar least-squares solution."""
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_digital_alphabet(4, 1.0)
        g = rng.standard_normal((5, 1))
        c = rng.standard_normal(5)
        res = brute_force_ml(c, g, alphabet)
        proj = float(g[:, 0] @ c / (g[:, 0] @ g[:, 0]))
        by_hand = min(alphabet.labels, key=lambda lab: abs(proj - lab))
        assert res.z[0] == by_hand

    def test_identity_matrix_rounds_per_entry(self):
        alphabet = make_digital_alphabet(2, 1.0)
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
        alphabet = make_digital_alphabet(2, 1.0)
        res = brute_force_ml(np.zeros(2), np.zeros((2, 2)), alphabet)
        np.testing.assert_array_equal(res.z, [alphabet.labels[0]] * 2)


class TestSphereDecoder:
    def test_identity_system_signs(self):
        alphabet = make_digital_alphabet(2, 2.0)  # {-1, +1}
        system = TriangularSystem(r=np.eye(2), d=np.array([0.9, -1.2]), constant_offset=0.0,
                                  order=np.arange(2))
        res = sesd_solve(system, alphabet)
        np.testing.assert_array_equal(res.z, [1.0, -1.0])

    def test_empty_system_rejected(self):
        system = TriangularSystem(r=np.zeros((0, 0)), d=np.zeros(0), constant_offset=0.0,
                                  order=np.arange(0))
        with pytest.raises(ValueError, match="empty system"):
            sesd_solve(system, make_digital_alphabet(2, 2.0))

    @pytest.mark.parametrize("where", ["r", "d"])
    def test_nonfinite_system_rejected(self, where):
        r, d = np.eye(2), np.array([0.9, -1.2])
        {"r": r, "d": d}[where][1] = np.nan
        system = TriangularSystem(r=r, d=d, constant_offset=0.0, order=np.arange(2))
        with pytest.raises(ValueError, match="non-finite"):
            sesd_solve(system, make_digital_alphabet(2, 2.0))

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
            decoded = sesd_solve(prepare_triangular(g, c, alphabet), alphabet)
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
            res = sesd_solve(prepare_triangular(g, c, alphabet), alphabet)
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
            base = sesd_solve(prepare_triangular(g, c, alphabet), alphabet)
            scaled = sesd_solve(prepare_triangular(4.0 * g, 4.0 * c, alphabet), alphabet)
            np.testing.assert_array_equal(base.z, scaled.z)

    def test_alphabet_membership(self):
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 4, 6, analog_bits=2)
        res = sesd_solve(prepare_triangular(g, c, alphabet), alphabet)
        assert all(z in alphabet.labels for z in res.z)

    def test_objective_includes_offset(self):
        """The reported objective is the original-space residual."""
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 3, 6, levels=4)
        res = sesd_solve(prepare_triangular(g, c, alphabet), alphabet)
        assert res.objective == pytest.approx(residual_norm_sq(c, g, res.z), abs=1e-10)


ALPHABETS = {
    "phase-1bit": (lambda: make_analog_alphabet(1), True),
    "phase-2bit": (lambda: make_analog_alphabet(2), True),
    "real-2level": (lambda: make_digital_alphabet(2, 0.8), False),
    "real-8level": (lambda: make_digital_alphabet(8, 0.4), False),
    "switch": (make_switch_alphabet, True),
}


def batch_instance(rng, kind, m, extra_rows, n_targets, rank_deficient, zero_targets,
                   outside_box=False):
    """P targets over one shared G: (C, G, alphabet). A repeated column makes G
    rank deficient; ``outside_box`` scales the targets so the unconstrained
    solutions lie mostly outside the label box."""
    make, complex_valued = ALPHABETS[kind]
    alphabet = make()
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
    if outside_box:
        c *= 4.0 * np.max(np.abs(alphabet.labels)) * np.sqrt(n)
    return c, g, alphabet


def depth_first_sd(system, alphabet, warm=None):
    """Reference single-target Schnorr-Euchner search, recursive and depth-first
    over the system's column order, from the warm start (or from +inf without
    one): the incumbent is replaced only by a strictly cheaper leaf. ``warm``
    and the result are in natural order."""
    labels = alphabet.labels.astype(np.result_type(system.r, system.d, alphabet.labels))
    r, d = system.r.astype(labels.dtype), system.d.astype(labels.dtype)
    best = {"cost": np.inf, "z": None}
    if warm is not None:
        best = {"cost": residual_norm_sq(d, r, warm[system.order]),
                "z": warm[system.order].astype(labels.dtype)}
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
    z = np.empty_like(best["z"])
    z[system.order] = best["z"]
    return z


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
        c, g, alphabet = batch_instance(rng, kind, m, extra, n_targets, deficient, zeros)
        system = prepare_triangular(g, c, alphabet)
        res = sesd_solve(system, alphabet)
        assert res.z.shape == (n_targets, m)
        assert res.diagnostics["peak_frontier"] <= detect.SD_BLOCK * len(alphabet)
        # a ridge adds ridge*||z||^2: enumerate over G stacked on sqrt(ridge) I
        g_aug = np.vstack([g, np.sqrt(system.ridge) * np.eye(m)])
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
        time over the same factor and order, also when a tiny block splits the
        frontier into many blocks."""
        seed, kind, m, extra, n_targets, deficient, zeros = case
        rng = np.random.default_rng(seed)
        c, g, alphabet = batch_instance(rng, kind, m, extra, n_targets, deficient, zeros)
        system = prepare_triangular(g, c, alphabet)
        warm_starts = rng.choice(alphabet.labels, size=(n_targets, m)) if warm else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "SD_BLOCK", block)
            res = sesd_solve(system, alphabet, warm_starts=warm_starts)
            assert res.diagnostics["peak_frontier"] <= block * len(alphabet)
        for j in range(n_targets):
            single = sesd_solve(
                TriangularSystem(r=system.r, d=system.d[:, j],
                                 constant_offset=float(system.constant_offset[j]),
                                 order=system.order, ridge=system.ridge),
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
        c, g, alphabet = batch_instance(rng, kind, m, extra, n_targets, deficient, zeros)
        system = prepare_triangular(g, c, alphabet)
        warm_starts = rng.choice(alphabet.labels, size=(n_targets, m)) if warm else None
        res = sesd_solve(system, alphabet, warm_starts=warm_starts)
        for j in range(n_targets):
            single = TriangularSystem(r=system.r, d=system.d[:, j], constant_offset=0.0,
                                      order=system.order)
            expected = depth_first_sd(single, alphabet,
                                      None if warm_starts is None else warm_starts[j])
            np.testing.assert_array_equal(res.z[j], expected)

    def test_large_batch_spans_blocks(self):
        """Over SD_BLOCK targets at the default block size: the roots alone fill
        two blocks, every expansion stays within SD_BLOCK times the label count,
        and the labels equal one-at-a-time solves."""
        rng = np.random.default_rng(RNG_SEED)
        n_targets = detect.SD_BLOCK + 300
        c, g, alphabet = batch_instance(rng, "phase-2bit", 4, 1, n_targets, False, False)
        system = prepare_triangular(g, c, alphabet)
        res = sesd_solve(system, alphabet)
        assert detect.SD_BLOCK < res.diagnostics["peak_frontier"] <= detect.SD_BLOCK * len(alphabet)
        for j in range(0, n_targets, 7):
            single = sesd_solve(
                TriangularSystem(r=system.r, d=system.d[:, j],
                                 constant_offset=float(system.constant_offset[j]),
                                 order=system.order), alphabet)
            np.testing.assert_array_equal(res.z[j], single.z)

    def test_full_tie_keeps_the_incumbent(self):
        """With an identity factor and zero targets every label vector ties;
        the Babai point (first label everywhere), which is the first leaf of
        the depth-first search, keeps its place."""
        alphabet = make_digital_alphabet(2, 1.0)
        system = prepare_triangular(np.eye(4), np.zeros((4, 3)), alphabet)
        res = sesd_solve(system, alphabet)
        np.testing.assert_array_equal(res.z, np.full((3, 4), alphabet.labels[0]))


def digital_instance(rng, m_rf, extra_rows, levels, n_targets, duplicate):
    """Real-form digital subproblem over a 1-bit analog matrix, optionally with a
    repeated (sign-flipped) column: (C_r, G_r, alphabet)."""
    n_t = m_rf + extra_rows
    f_rf = rng.choice(make_analog_alphabet(1).labels, size=(n_t, m_rf))
    if duplicate and m_rf > 1:
        f_rf[:, -1] = rng.choice([-1.0, 1.0]) * f_rf[:, 0]
    c = rng.standard_normal((n_t, n_targets)) + 1j * rng.standard_normal((n_t, n_targets))
    alphabet = make_digital_alphabet(levels, float(rng.uniform(0.3, 2.0)))
    c_r, g_r = realify(c, f_rf)
    return c_r, g_r, alphabet


class TestOrderedSphereDecoder:
    @given(batch_cases, st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_every_target_matches_enumeration(self, case, outside_box, single, warm):
        """Phase, real digital and {0, 1} switch labels, targets inside and
        outside the label box, repeated columns of G (a ridge-loaded factor):
        each target's labels reach the enumerated optimum of ||c - G z||^2, to
        1e-10 * max(1, ||c||^2), single targets and batches alike, with warm
        starts given in natural order."""
        seed, kind, m, extra, n_targets, deficient, zeros = case
        rng = np.random.default_rng(seed)
        n_targets = 1 if single else n_targets
        c, g, alphabet = batch_instance(rng, kind, m, extra, n_targets, deficient, zeros,
                                        outside_box)
        system = prepare_triangular(g, c[:, 0] if single else c, alphabet)
        assert sorted(system.order) == list(range(m))
        warm_starts = None
        if warm:
            warm_starts = rng.choice(alphabet.labels, size=(m,) if single else (n_targets, m))
        res = sesd_solve(system, alphabet, warm_starts=warm_starts)
        assert res.z.shape == ((m,) if single else (n_targets, m))
        for j, z in enumerate(res.z[None] if single else res.z):
            exact = brute_force_ml(c[:, j], g, alphabet)
            assert all(label in alphabet.labels for label in z)
            scale = max(1.0, float(np.real(np.vdot(c[:, j], c[:, j]))))
            assert residual_norm_sq(c[:, j], g, z) == pytest.approx(
                exact.objective, abs=1e-10 * scale)

    def test_repeated_column_takes_the_ridge_path(self):
        """A repeated analog column makes the real Gram singular: the order
        stays finite, the factor is ridge-loaded, and the solve stays exact."""
        rng = np.random.default_rng(RNG_SEED)
        c_r, g_r, alphabet = digital_instance(rng, 3, 2, 4, 3, True)
        system = prepare_triangular(g_r, c_r, alphabet)
        assert system.ridge > 0
        res = sesd_solve(system, alphabet)
        for j in range(3):
            exact = brute_force_ml(c_r[:, j], g_r, alphabet)
            assert residual_norm_sq(c_r[:, j], g_r, res.z[j]) == pytest.approx(
                exact.objective, abs=1e-10)

    @given(st.integers(0, 2**31 - 1), st.booleans(), st.integers(2, 4), st.integers(0, 2),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_ridge_moves_the_objective_by_at_most_its_bound(self, seed, switch, m, extra,
                                                           outside_box):
        """A repeated column of G makes the Gram singular, and most such factors
        are ridge-loaded: the search then minimizes ||c - G z||^2 + ridge ||z||^2
        exactly. For {0, 1} switch and 4-level digital labels ||z||^2 varies, so
        the argmin may move, but its objective on the unloaded problem stays
        within ridge * max ||z||^2 of the enumerated optimum. (A Gram that
        factors with a rounding-sized pivot has ridge 0: the bound is exactness.)"""
        rng = np.random.default_rng(seed)
        n = m + extra
        if switch:
            alphabet = make_switch_alphabet()
            g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:
            alphabet = make_digital_alphabet(4, float(rng.uniform(0.3, 2.0)))
            g, c = rng.standard_normal((n, m)), rng.standard_normal(n)
        if outside_box:
            c *= 4.0 * np.max(np.abs(alphabet.labels)) * np.sqrt(n)
        g[:, -1] = g[:, 0]
        system = prepare_triangular(g, c, alphabet)
        found = residual_norm_sq(c, g, sesd_solve(system, alphabet).z)
        optimum = brute_force_ml(c, g, alphabet).objective
        bound = system.ridge * m * np.max(np.abs(alphabet.labels)) ** 2
        rounding = 1e-10 * max(1.0, float(np.real(np.vdot(c, c))))
        assert optimum - rounding <= found <= optimum + bound + rounding

    def test_same_search_as_the_permuted_problem(self):
        """An ordered system searches exactly as its factor in natural order
        would, given the warm starts permuted by hand: same labels (permuted
        back), same node count."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            c_r, g_r, alphabet = digital_instance(rng, 3, 1, 4, 3, False)
            system = prepare_triangular(g_r, c_r, alphabet)
            order = system.order
            warm = np.stack([brute_force_ml(c_r[:, j], g_r, alphabet).z for j in range(3)])
            res = sesd_solve(system, alphabet, warm_starts=warm)
            plain = sesd_solve(TriangularSystem(r=system.r, d=system.d, constant_offset=0.0,
                                                order=np.arange(len(order))),
                               alphabet, warm_starts=warm[:, order])
            np.testing.assert_array_equal(res.z[:, order], plain.z)
            assert res.nodes_visited == plain.nodes_visited

    def test_labels_and_warm_starts_in_natural_order(self):
        """Increasing |unconstrained solution - 0| puts the entries furthest out
        of the label box last (they are searched first), equal keys in natural
        order; the permuted factor still returns z in the natural order, and
        takes a natural-order warm start."""
        alphabet = make_digital_alphabet(4, 1.0)
        g = np.diag([1.0, 4.0, 2.0])
        z_true = alphabet.labels[[0, 3, 1]]  # -1.5, 1.5, -0.5
        system = prepare_triangular(g, g @ z_true, alphabet)
        np.testing.assert_array_equal(system.order, [2, 0, 1])
        res = sesd_solve(system, alphabet, warm_starts=z_true)
        np.testing.assert_array_equal(res.z, z_true)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_switch_order_centres_on_one_half(self):
        """The {0, 1} labels centre on 0.5: an entry at 0.5 is searched last,
        one at -1 first, where a centre of 0 would reverse the last two."""
        system = prepare_triangular(np.eye(3), np.array([0.5, -1.0, 1.25]),
                                    make_switch_alphabet())
        np.testing.assert_array_equal(system.order, [0, 2, 1])


class TestExpectationPropagation:
    def test_decoupled_system_rounds_entries(self):
        """With an identity system and well-separated labels the first
        iteration already returns the entrywise nearest labels."""
        alphabet = make_digital_alphabet(2, 2.0)
        c = np.array([0.9, -1.1, 0.4])
        res = ep_solve(c, np.eye(3), alphabet, max_iter=1)
        np.testing.assert_array_equal(res.z, [1.0, -1.0, 1.0])

    def test_full_damping_freezes_factors(self):
        """damping=1 keeps the factor parameters at their initialization, so
        the output is the rounded ridge-regularized least-squares mean."""
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 3, 5, levels=4)
        res = ep_solve(c, g, alphabet, damping=1.0, max_iter=1)
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
            exact = sesd_solve(prepare_triangular(g, c, alphabet), alphabet)
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

    def test_nonfinite_input_aborts_with_iteration(self):
        alphabet = make_digital_alphabet(2, 1.0)
        c = np.array([np.inf, 0.0])
        with pytest.raises(EPNumericalError) as err:
            ep_solve(c, np.eye(2), alphabet)
        assert err.value.iteration >= 1

    def test_rejects_bad_damping(self):
        alphabet = make_digital_alphabet(2, 1.0)
        with pytest.raises(ValueError):
            ep_solve(np.ones(2), np.eye(2), alphabet, damping=1.5)

    def test_last_pass_skips_the_update(self, monkeypatch):
        """No pass reads the moment update of the last one, so one pass computes
        the residual of its decision only, not the error variance's."""
        calls = []
        residuals = detect._residuals
        monkeypatch.setattr(detect, "_residuals", lambda *a: calls.append(a) or residuals(*a))
        c, g, alphabet = random_instance(np.random.default_rng(RNG_SEED), 3, 5, levels=4)
        ep_solve(c, g, alphabet, max_iter=1)
        assert len(calls) == 1


ep_cases = st.tuples(
    st.integers(0, 2**31 - 1), st.sampled_from(sorted(ALPHABETS)),
    st.integers(1, 5), st.integers(0, 3), st.integers(1, 8), st.booleans(),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(1, 30),
    st.sampled_from([1e-2, 1e-4, 1e-8]),
)


def assert_matches_single_solves(res, c, g, alphabet, **kwargs):
    """Every target of a batched EP result equals a solve of that column alone:
    labels, objective, iteration count and found-at iteration, byte for byte."""
    singles = [ep_solve(c[:, j], g, alphabet, **kwargs) for j in range(c.shape[1])]
    iterations = res.diagnostics["iterations"]
    assert res.z.shape == (c.shape[1], g.shape[1])
    assert iterations.shape == (c.shape[1],)
    for j, single in enumerate(singles):
        np.testing.assert_array_equal(res.z[j], single.z)
        assert res.z[j].dtype == single.z.dtype
        assert res.objective[j] == single.objective
        assert iterations[j] == single.iterations == single.diagnostics["iterations"][0]
        assert res.diagnostics["found"][j] == single.diagnostics["found"][0]
        assert single.truncated in (0, 1)
    assert res.iterations == sum(s.iterations for s in singles)
    assert res.truncated == sum(s.truncated for s in singles)
    return singles


def jittered_inverse(a):
    """np.linalg.inv, retried with a growing relative diagonal jitter."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        pass
    scale = float(np.abs(np.diagonal(a)).max()) or 1.0
    jitter = 1e-14 * scale
    while jitter <= 1e-3 * scale:
        try:
            return np.linalg.inv(a + jitter * np.eye(len(a)))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    raise np.linalg.LinAlgError("no jitter restores the inverse")


def reference_ep(c, g, alphabet, damping, max_iter, tol):
    """Single-target EP loop, one numpy call per step, as ep_solve ran before
    it was batched: (z, objective, iterations, truncated)."""
    dtype = np.complex128 if np.iscomplexobj(g) or np.iscomplexobj(alphabet.labels) else np.float64
    c, g, labels = c.astype(dtype), g.astype(dtype), alphabet.labels.astype(dtype)
    m = g.shape[1]
    gram, gc = g.conj().T @ g, g.conj().T @ c
    lam, gam, sigma2 = np.ones(m), np.zeros(m, dtype=dtype), 1.0
    z_best, best, mu_prev, var_prev = None, np.inf, None, None
    for iteration in range(1, max_iter + 1):
        cov = jittered_inverse(gram / sigma2 + lam * np.eye(m))
        mu = cov @ (gc / sigma2 + gam)
        var = np.real(np.diag(cov))
        z = labels[np.argmin(np.abs(mu[:, None] - labels[None, :]), axis=1)]
        obj = residual_norm_sq(c, g, z)
        if obj < best:
            best, z_best = obj, z
        if mu_prev is not None:
            dm = np.linalg.norm(mu - mu_prev) / max(np.linalg.norm(mu_prev), 1e-30)
            dv = np.linalg.norm(var - var_prev) / max(np.linalg.norm(var_prev), 1e-30)
            if dm < tol and dv < tol:
                return z_best, best, iteration, 0
        mu_prev, var_prev = mu, var
        zeta = np.maximum(var / np.maximum(1.0 - var * lam, 1e-12), 1e-300)
        nu = zeta * (mu / var - gam)
        sq = np.abs(labels[None, :] - nu[:, None]) ** 2
        sq -= sq.min(axis=1, keepdims=True)
        w = np.exp(-sq / (zeta[:, None] if dtype == np.complex128 else 2.0 * zeta[:, None]))
        w /= w.sum(axis=1, keepdims=True)
        rho = w @ labels
        omega = np.maximum(np.sum(w * np.abs(labels[None, :] - rho[:, None]) ** 2, axis=1),
                           detect.OMEGA_FLOOR)
        lam_new, gam_new = 1.0 / omega - 1.0 / zeta, rho / omega - nu / zeta
        bad = lam_new <= detect.LAMBDA_FLOOR
        lam_new, gam_new = np.where(bad, detect.LAMBDA_FLOOR, lam_new), np.where(bad, gam, gam_new)
        lam = (1.0 - damping) * lam_new + damping * lam
        gam = (1.0 - damping) * gam_new + damping * gam
        sigma2 = max(residual_norm_sq(c, g, rho) / m, detect.SIGMA2_FLOOR)
    return z_best, best, max_iter, 1


def inverse_calls(monkeypatch):
    """Record (stack size, raised) for every np.linalg.inv call."""
    calls = []
    real_inv = np.linalg.inv

    def spy(a):
        try:
            out = real_inv(a)
        except np.linalg.LinAlgError:
            calls.append((len(a), True))
            raise
        calls.append((len(a), False))
        return out

    monkeypatch.setattr(np.linalg, "inv", spy)
    return calls


class TestBatchedExpectationPropagation:
    @given(ep_cases)
    @settings(max_examples=150, deadline=None)
    def test_every_target_equals_single_solve(self, case):
        """Labels, objective, iteration count, truncation and final moments of
        each target are byte-identical to solving that target alone, and to
        the single-target reference loop, over real and complex alphabets,
        rank-deficient G and all-zero targets."""
        seed, kind, m, extra, n_targets, deficient, damping, max_iter, tol = case
        rng = np.random.default_rng(seed)
        c, g, alphabet = batch_instance(rng, kind, m, extra, n_targets, deficient, False)
        c[:, rng.random(n_targets) < 0.3] = 0.0
        kwargs = dict(damping=damping, max_iter=max_iter, tol=tol)
        res = ep_solve(c, g, alphabet, **kwargs)
        assert_matches_single_solves(res, c, g, alphabet, **kwargs)
        for j in range(n_targets):
            z, objective, iterations, truncated = reference_ep(c[:, j].copy(), g, alphabet, **kwargs)
            np.testing.assert_array_equal(res.z[j], z)
            assert (res.objective[j], res.diagnostics["iterations"][j]) == (objective, iterations)

    @given(ep_cases)
    @settings(max_examples=40, deadline=None)
    def test_found_iteration_returns_the_same_decision(self, case):
        """Re-running a batch with max_iter set to a target's found-at
        iteration returns that target's labels and objective unchanged, and
        found never exceeds the target's iteration count."""
        seed, kind, m, extra, n_targets, deficient, damping, max_iter, tol = case
        rng = np.random.default_rng(seed)
        c, g, alphabet = batch_instance(rng, kind, m, extra, n_targets, deficient, False)
        res = ep_solve(c, g, alphabet, damping=damping, max_iter=max_iter, tol=tol)
        found = res.diagnostics["found"]
        assert found.shape == (n_targets,)
        assert (1 <= found).all() and (found <= res.diagnostics["iterations"]).all()
        for j in range(n_targets):
            cut = ep_solve(c, g, alphabet, damping=damping, max_iter=int(found[j]), tol=tol)
            np.testing.assert_array_equal(cut.z[j], res.z[j])
            assert cut.objective[j] == res.objective[j]

    def test_targets_leave_the_batch_at_their_own_iteration(self):
        """A batch whose targets converge at different iterations, some at
        max_iter without converging, one all-zero: each leaves at its own
        iteration with the result of its own solve."""
        rng = np.random.default_rng(3)
        alphabet = make_digital_alphabet(4, 1.0)
        g = rng.standard_normal((6, 4))
        c = g @ rng.choice(alphabet.labels, size=(4, 6)) + 0.3 * rng.standard_normal((6, 6))
        c[:, 2] = 0.0
        res = ep_solve(c, g, alphabet, max_iter=12)
        iterations = res.diagnostics["iterations"]
        assert len(set(iterations.tolist())) >= 4
        assert 0 < res.truncated < c.shape[1]
        assert_matches_single_solves(res, c, g, alphabet, max_iter=12)

    def test_jittered_member_leaves_the_others_unchanged(self, monkeypatch):
        """With G rank one at a large scale, the all-zero target's error
        variance collapses and its posterior precision turns exactly singular:
        only that member is inverted with jitter, and every member still
        equals its single solve."""
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_digital_alphabet(2, 1.0)
        g = 1000.0 * rng.standard_normal((4, 2))
        g[:, 1] = g[:, 0]
        c = 10.0 * rng.standard_normal((4, 3))
        c[:, 1] = 0.0
        calls = inverse_calls(monkeypatch)
        needs_jitter = []
        for j in range(3):
            calls.clear()
            ep_solve(c[:, j], g, alphabet, damping=1.0)
            needs_jitter.append(any(raised for _, raised in calls))
        assert needs_jitter == [False, True, False]
        calls.clear()
        res = ep_solve(c, g, alphabet, damping=1.0)
        # iteration 2: the stack is singular, so its members are inverted one at
        # a time, and only the zero target's inverse is retried with jitter
        assert calls[1:6] == [(3, True), (1, False), (1, True), (1, False), (1, False)]
        assert_matches_single_solves(res, c, g, alphabet, damping=1.0)
        for j in range(3):
            z, objective, _, _ = reference_ep(c[:, j].copy(), g, alphabet, 1.0, 30, 1e-4)
            np.testing.assert_array_equal(res.z[j], z)
            assert res.objective[j] == objective

    def test_singular_precision_raises_once_the_jitter_reaches_its_cap(self, monkeypatch):
        """When no jitter restores the inverse, the jitter grows 100x per retry
        up to 1e-3 of the largest diagonal entry, then the solve raises naming
        the iteration and the target."""
        tried = []

        def singular(a):
            tried.append(a.copy())
            raise np.linalg.LinAlgError("singular matrix")
        monkeypatch.setattr(np.linalg, "inv", singular)
        # the first posterior precision is 2 I
        with pytest.raises(EPNumericalError,
                           match="posterior covariance at iteration 1 for target 0"):
            ep_solve(np.ones(3), np.eye(3), make_digital_alphabet(2, 1.0))
        jitters = [np.diagonal(a[0] - tried[0][0]) for a in tried[1:]]
        expected = 2.0 * 10.0 ** np.arange(-14.0, -3.0, 2.0)
        np.testing.assert_allclose(jitters, np.repeat(expected[:, None], 3, axis=1), rtol=0.05)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_factor_rejected(self, value):
        g = np.eye(3)
        g[1, 2] = value
        with pytest.raises(EPNumericalError, match="non-finite inputs at iteration 1"):
            ep_solve(np.ones(3), g, make_digital_alphabet(2, 1.0))

    @pytest.mark.parametrize("bad", [0, 3, 4])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_column_names_its_index(self, bad, value):
        rng = np.random.default_rng(RNG_SEED)
        c, g, alphabet = random_instance(rng, 3, 5, analog_bits=1)
        c = np.tile(c[:, None], (1, 5))
        c[1, bad] = value
        if bad < 4:
            c[0, 4] = value  # a later non-finite column does not mask the first
        with pytest.raises(EPNumericalError) as err:
            ep_solve(c, g, alphabet)
        assert err.value.index == bad
        assert err.value.iteration == 1
