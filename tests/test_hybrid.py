"""Tests for the alternating hybrid precoder design and its subproblems."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hybridprec

from hybridprec.alphabets import (
    choose_delta, make_analog_alphabet, make_digital_alphabet, make_switch_alphabet,
    nearest_labels,
)
from hybridprec.channel import SystemConfig, draw_channel, noise_power_mw, per_subcarrier_power_mw
from hybridprec.detect import (
    SolveResult, _sq_norms, brute_force_ml, ep_solve, realify, residual_norm_sq, sesd_solve,
)
from hybridprec.harness import ALTERNATE_SCHEMES, DESK_SMALL_CONFIG
from hybridprec import baselines, hybrid
from hybridprec.hybrid import (
    DYNAMIC_CONNECTED, FULLY_CONNECTED, AnalogSolveError, InfeasiblePowerError, _offending_columns,
    SolverStats, _power_per_subcarrier, alternate, init_analog_svd, optimize_analog,
    optimize_digital, optimize_phase_diag, optimize_switch, rescale_to_budget,
)
from hybridprec.wmmse import FullyDigitalPrecoder, mse_to_target, wmmse_fully_digital

from membership import is_member

RNG_SEED = 55


@pytest.fixture
def small_config():
    return SystemConfig(n_tx=8, m_rf=3, n_users=2, n_subcarriers=2,
                        total_power_dbm=10.0, seed=RNG_SEED)


def random_target(rng, n_tx, ks, scale=1.0):
    return scale * (rng.standard_normal((n_tx, ks)) + 1j * rng.standard_normal((n_tx, ks)))


def random_phase_init(n_tx, m_rf, rng):
    """Uniform random phases: the initialization the SVD one is compared against."""
    return np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n_tx, m_rf)))


class TestSvdInit:
    def test_rank_one_target(self):
        """A rank-one target yields the leading phase pattern, up to the
        global phase ambiguity of the singular vector."""
        rng = np.random.default_rng(RNG_SEED)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        init = init_analog_svd(np.outer(u, v), m_rf=2)
        ratio = init[:, 0] / np.exp(1j * np.angle(u))
        np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-10)
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-8)

    def test_unit_modulus(self):
        rng = np.random.default_rng(RNG_SEED)
        init = init_analog_svd(random_target(rng, 8, 6), m_rf=3)
        np.testing.assert_allclose(np.abs(init), 1.0, atol=1e-12)

    def test_oversized_rf_request(self):
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(ValueError):
            init_analog_svd(random_target(rng, 8, 2), m_rf=3)

    def test_svd_failure_propagates(self, monkeypatch):
        """A failed SVD raises, as the SVD of the dynamic-connected start does."""
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(np.linalg.LinAlgError):
            init_analog_svd(random_target(np.random.default_rng(RNG_SEED), 8, 6), m_rf=3)

    def test_beats_random_init_on_most_seeds(self):
        """The singular-pair initialization reaches a final objective at least
        as low as random phases on a majority of seeds."""
        wins = 0
        n_seeds = 20
        cfg = SystemConfig(n_tx=8, m_rf=2, n_users=2, n_subcarriers=2,
                           total_power_dbm=10.0)
        for seed in range(n_seeds):
            rng = np.random.default_rng(seed)
            ch = draw_channel(cfg.with_updates(seed=seed))
            target, _ = wmmse_fully_digital(
                ch, per_subcarrier_power_mw(cfg), noise_power_mw(cfg))
            svd_prec, _ = alternate(target, cfg.with_updates(seed=seed), "sesd")
            import hybridprec.hybrid as hybrid_mod
            original = hybrid_mod.init_analog_svd
            hybrid_mod.init_analog_svd = lambda t, m: random_phase_init(
                t.shape[0] if not hasattr(t, "f_fd") else t.f_fd.shape[0], m, rng)
            try:
                rand_prec, _ = alternate(target, cfg.with_updates(seed=seed), "sesd")
            finally:
                hybrid_mod.init_analog_svd = original
            svd_obj = mse_to_target(target, svd_prec.f_rf, svd_prec.f_bb)
            rand_obj = mse_to_target(target, rand_prec.f_rf, rand_prec.f_bb)
            if svd_obj <= rand_obj + 1e-9:
                wins += 1
        assert wins > n_seeds // 2


class TestOptimizeAnalog:
    def test_exact_factorization_recovered(self):
        """A target that factors exactly over the alphabet reaches objective 0."""
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(2)
        f_rf_true = rng.choice(alphabet.labels, size=(6, 2))
        f_bb = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        target = f_rf_true @ f_bb
        f_rf = optimize_analog(target, f_bb, "sesd", alphabet, SolverStats())
        assert mse_to_target(target, f_rf, f_bb) == pytest.approx(0.0, abs=1e-18)

    def test_matches_brute_force_per_antenna(self):
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(1)
        target = random_target(rng, 8, 4)
        f_bb = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        f_rf = optimize_analog(target, f_bb, "sesd", alphabet, SolverStats())
        b = f_bb.T
        for n in range(8):
            exact = brute_force_ml(target.T[:, n], b, alphabet)
            ours = residual_norm_sq(target.T[:, n], b, f_rf[n])
            assert ours == pytest.approx(exact.objective, abs=1e-10)

    def test_single_chain_sign_choice(self):
        """With one RF chain and one-bit phases the optimum is the correlation sign."""
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(1)
        target = random_target(rng, 5, 3)
        f_bb = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        f_rf = optimize_analog(target, f_bb, "sesd", alphabet, SolverStats())
        b = f_bb.T
        for n in range(5):
            exact = brute_force_ml(target.T[:, n], b, alphabet)
            assert f_rf[n, 0] == exact.z[0]

    def test_solver_error_carries_antenna_index(self):
        alphabet = make_analog_alphabet(1)
        target = np.full((3, 4), np.nan, dtype=complex)
        f_bb = np.eye(2, 4).astype(complex)
        with pytest.raises(RuntimeError, match="antenna 0"):
            optimize_analog(target, f_bb, "ep", alphabet, SolverStats())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_solver_error_names_the_first_failing_antenna(self):
        rng = np.random.default_rng(RNG_SEED)
        target = random_target(rng, 5, 4)
        target[2, 1] = np.nan
        target[4, 0] = np.inf
        f_bb = np.eye(2, 4).astype(complex)
        with pytest.raises(AnalogSolveError, match=re.escape(
                "analog subproblem failed at antenna 2: EPNumericalError: EP produced "
                "non-finite inputs at iteration 1 for target 2") + "$"):
            optimize_analog(target, f_bb, "ep", make_analog_alphabet(1), SolverStats())

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown FALS solver 'x'"):
            optimize_analog(np.ones((3, 2), dtype=complex), np.eye(2, dtype=complex), "x",
                            make_analog_alphabet(1), SolverStats())

    def test_ep_rows_equal_per_antenna_solves(self):
        """One batched EP call gives each antenna the row a solve of that
        antenna alone gives."""
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(2)
        target = random_target(rng, 6, 4)
        f_bb = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        stats = SolverStats()
        f_rf = optimize_analog(target, f_bb, "ep", alphabet, stats)
        singles = [ep_solve(target[n], f_bb.T, alphabet) for n in range(6)]
        for n, single in enumerate(singles):
            np.testing.assert_array_equal(f_rf[n], single.z)
        assert stats.solves == 6
        assert stats.iterations == sum(s.iterations for s in singles)


class TestRealFormSearch:
    """SD searches 1-bit phases and {0, 1} switches, real labels of a complex
    system, on the stacked real pair; every row must still be an exact minimizer
    of the complex objective, and the labels the alphabet's own values."""

    @staticmethod
    def tie_rich_case(seed, m_rf, extra, repeat, negate):
        """A complex target and a 2-level quantized digital precoder, optionally
        with a repeated and a negated row: rank-deficient, ridge-loaded factors
        with exactly tied label vectors."""
        rng = np.random.default_rng(seed)
        ks = m_rf + extra
        target = random_target(rng, 7, ks)
        f_bb = rng.choice([-1.0, 1.0], (m_rf, ks)) + 1j * rng.choice([-1.0, 1.0], (m_rf, ks))
        if repeat and m_rf > 1:
            f_bb[1] = f_bb[0]
        if negate and m_rf > 2:
            f_bb[2] = -f_bb[0]
        return rng, target, f_bb

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(0, 3), st.booleans(),
           st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_one_bit_analog_rows_match_enumeration(self, seed, m_rf, extra, repeat, negate, warm):
        rng, target, f_bb = self.tie_rich_case(seed, m_rf, extra, repeat, negate)
        alphabet = make_analog_alphabet(1)
        start = rng.choice(alphabet.labels, size=(7, m_rf)) if warm else None
        f_rf = optimize_analog(target, f_bb, "sesd", alphabet, SolverStats(), warm=start)
        assert f_rf.dtype == np.complex128 and is_member(f_rf, alphabet)
        for n in range(7):
            exact = brute_force_ml(target[n], f_bb.T, alphabet)
            ours = residual_norm_sq(target[n], f_bb.T, f_rf[n])
            assert ours == pytest.approx(exact.objective, rel=1e-10)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(0, 3), st.booleans(),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_switch_rows_match_enumeration(self, seed, m_rf, extra, repeat, negate):
        """The switch solve before ``_repair_switch``."""
        rng, target, f_bb = self.tie_rich_case(seed, m_rf, extra, repeat, negate)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 7))
        solved = []
        original = hybrid._repair_switch
        hybrid._repair_switch = lambda z, a, b: solved.append(z) or z
        try:
            optimize_switch(target, phase, f_bb, SolverStats())
        finally:
            hybrid._repair_switch = original
        alphabet = make_switch_alphabet()
        (switch,) = solved
        assert switch.dtype == np.float64 and is_member(switch, alphabet)
        rotated = np.conj(phase)[:, None] * target
        for n in range(7):
            exact = brute_force_ml(rotated[n], f_bb.T, alphabet)
            ours = residual_norm_sq(rotated[n], f_bb.T, switch[n])
            assert ours == pytest.approx(exact.objective, rel=1e-10)

    @pytest.mark.parametrize("step, bits, dtype", [
        ("analog", 1, np.float64), ("switch", 1, np.float64), ("digital", 1, np.float64),
        ("analog", 2, np.complex128)], ids=["analog-1-bit", "switch", "digital", "analog-2-bit"])
    def test_sd_system_dtype(self, step, bits, dtype, monkeypatch):
        """Real labels of a complex system are searched in real arithmetic; 2-bit
        phases keep the complex search, and the digital step is real already."""
        seen = []

        def recording(system, alphabet, warm_starts=None):
            seen.append((system.r.dtype, alphabet.labels.dtype))
            return sesd_solve(system, alphabet, warm_starts)

        monkeypatch.setattr(hybrid, "sesd_solve", recording)
        rng, target, f_bb = self.tie_rich_case(RNG_SEED, 3, 2, False, False)
        alphabet = make_analog_alphabet(bits)
        if step == "analog":
            optimize_analog(target, f_bb, "sesd", alphabet, SolverStats())
        elif step == "switch":
            optimize_switch(target, np.ones(7, dtype=complex), f_bb, SolverStats())
        else:
            f_rf = rng.choice(alphabet.labels, size=(7, 3))
            optimize_digital(target, f_rf, p_s=1e9, solver="sesd", levels=2, n_users=1,
                             stats=SolverStats())
        assert seen == [(dtype, dtype)]


class TestOptimizeDigital:
    def test_inactive_constraint_exits_at_zero(self):
        """A generous budget leaves every multiplier at zero."""
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(2)
        f_rf = rng.choice(alphabet.labels, size=(8, 3))
        target = random_target(rng, 8, 4, scale=0.5)
        f_bb, delta, mu, iters = optimize_digital(
            target, f_rf, p_s=1e9, solver="sesd", levels=2, n_users=2, stats=SolverStats())
        np.testing.assert_array_equal(mu, 0.0)
        np.testing.assert_array_equal(iters, 1)

    def test_power_nonincreasing_in_multiplier(self):
        """The realized transmit power is non-increasing along a multiplier grid."""
        from scipy.linalg import solve_triangular
        from hybridprec.detect import TriangularSystem, sesd_solve
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(1)
        f_rf = rng.choice(alphabet.labels, size=(6, 2))
        a = (rng.standard_normal(6) + 1j * rng.standard_normal(6))
        gram = f_rf.conj().T @ f_rf
        gram_r = np.block([[gram.real, -gram.imag], [gram.imag, gram.real]])
        r20 = np.linalg.cholesky(gram_r).T
        proj = f_rf.conj().T @ a
        d2 = solve_triangular(r20.T, np.concatenate([proj.real, proj.imag]), lower=True)
        labels = make_digital_alphabet(2, 1.0)
        powers = []
        for mu in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
            scale = np.sqrt(mu + 1.0)
            res = sesd_solve(TriangularSystem(r=scale * r20, d=d2 / scale,
                                              constant_offset=0.0, order=np.arange(4)), labels)
            b = res.z[:2] + 1j * res.z[2:]
            powers.append(float(np.real(np.vdot(f_rf @ b, f_rf @ b))))
        assert all(p1 >= p2 - 1e-12 for p1, p2 in zip(powers, powers[1:]))

    def test_matches_brute_force_per_user(self):
        """The sphere-decoded digital block is the exact finite-alphabet
        minimizer of the per-user Lagrangian subproblem."""
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(2)
        f_rf = rng.choice(alphabet.labels, size=(8, 3))
        target = random_target(rng, 8, 4, scale=0.4)
        f_bb, delta, mu, _ = optimize_digital(
            target, f_rf, p_s=1e9, solver="sesd", levels=2, n_users=2, stats=SolverStats())
        real_alpha = make_digital_alphabet(2, delta)
        g_r = np.block([[f_rf.real, -f_rf.imag], [f_rf.imag, f_rf.real]])
        for col in range(4):
            c_r = np.concatenate([target[:, col].real, target[:, col].imag])
            exact = brute_force_ml(c_r, g_r, real_alpha)
            ours = residual_norm_sq(
                c_r, g_r, np.concatenate([f_bb[:, col].real, f_bb[:, col].imag]))
            assert ours == pytest.approx(exact.objective, abs=1e-9)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(0, 2),
           st.sampled_from([4, 8]), st.integers(1, 2), st.integers(1, 2),
           st.floats(0.4, 0.9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_binding_multiplier_matches_brute_force(self, seed, m_rf, extra, levels,
                                                    n_users, s_count, fraction, duplicate):
        """With a budget that binds (mu > 0), each sphere-decoded column is an
        exact minimizer of the scaled subproblem ||c_r / sqrt(mu+1) -
        sqrt(mu+1) G_r z||^2 over the returned step's labels, also with one
        target far outside the label box and a repeated analog column (a
        ridge-loaded factor)."""
        rng = np.random.default_rng(seed)
        n_tx = m_rf + extra
        f_rf = rng.choice(make_analog_alphabet(1).labels, size=(n_tx, m_rf))
        if duplicate and m_rf > 1:
            f_rf[:, -1] = rng.choice([-1.0, 1.0]) * f_rf[:, 0]
        target = random_target(rng, n_tx, n_users * s_count)
        target[:, 0] *= 8.0  # its unconstrained solution lies outside the label box
        free, *_ = optimize_digital(target, f_rf, p_s=1e9, solver="sesd",
                                    levels=levels, n_users=n_users, stats=SolverStats())
        p_s = fraction * float(_power_per_subcarrier(f_rf, free, n_users).max())
        f_bb, delta, mu, _ = optimize_digital(
            target, f_rf, p_s=p_s, solver="sesd", levels=levels, n_users=n_users,
            stats=SolverStats())
        assume(np.any(mu > 0))  # else only step halvings met the budget
        labels = make_digital_alphabet(levels, delta)
        c_r, g_r = realify(target, f_rf)
        for col in range(f_bb.shape[1]):
            scale = np.sqrt(mu[col % s_count] + 1.0)
            c, g = c_r[:, col] / scale, scale * g_r
            exact = brute_force_ml(c, g, labels)
            ours = residual_norm_sq(c, g, np.concatenate([f_bb[:, col].real,
                                                          f_bb[:, col].imag]))
            assert ours == pytest.approx(exact.objective, abs=1e-9 * max(1.0, c @ c))

    def test_power_feasible_when_constraint_binds(self):
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_analog_alphabet(1)
        f_rf = rng.choice(alphabet.labels, size=(8, 3))
        target = random_target(rng, 8, 4, scale=3.0)
        p_s = 5.0
        f_bb, delta, mu, _ = optimize_digital(
            target, f_rf, p_s=p_s, solver="sesd", levels=2, n_users=2, stats=SolverStats())
        eff = f_rf @ f_bb
        for s in range(2):
            power = sum(np.linalg.norm(eff[:, k * 2 + s]) ** 2 for k in range(2))
            assert power <= p_s * (1 + 1e-2) + 1e-12

    @staticmethod
    def _binding_setup():
        rng = np.random.default_rng(RNG_SEED)
        f_rf = rng.choice(make_analog_alphabet(1).labels, size=(8, 3))
        return f_rf, random_target(rng, 8, 4, scale=3.0)

    @pytest.mark.parametrize("solver", ["sesd", "ep"])
    def test_tight_budget_shrinks_step_and_stays_feasible(self, solver):
        """A budget below the smallest power at the fitted step halves the step
        (the multiplier search cannot meet it) until the bisection can meet it;
        the halvings are counted."""
        f_rf, target = self._binding_setup()
        p_s = 1e-3
        stats = SolverStats()
        f_bb, delta, mu, iters = optimize_digital(
            target, f_rf, p_s=p_s, solver=solver, levels=2, n_users=2, stats=stats)
        fitted = choose_delta(np.linalg.lstsq(f_rf, target, rcond=None)[0], 2)
        assert delta < fitted
        assert stats.shrinks > 0 and delta == fitted / 2 ** stats.shrinks
        labels = make_digital_alphabet(2, delta)
        assert is_member(f_bb.real, labels) and is_member(f_bb.imag, labels)
        eff = f_rf @ f_bb
        for s in range(2):
            power = sum(np.linalg.norm(eff[:, k * 2 + s]) ** 2 for k in range(2))
            assert power <= p_s * (1 + 1e-2) + 1e-12
        assert np.all(iters > 1) and np.all(mu > 0)

    def test_nearest_point_halvings_counted(self):
        """Nearest-point quantization under a budget first met at the second
        halving of the fitted step returns that quantization, and counts both
        halvings as step shrinks."""
        f_rf, target = self._binding_setup()
        ls_digital = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        fitted = choose_delta(ls_digital, 2)
        labels = make_digital_alphabet(2, fitted / 4)
        quarter = (nearest_labels(ls_digital.real, labels)
                   + 1j * nearest_labels(ls_digital.imag, labels))
        p_s = float(_power_per_subcarrier(f_rf, quarter, 2).max())
        stats = SolverStats()
        f_bb, delta, mu, iters = optimize_digital(
            target, f_rf, p_s=p_s, solver="np", levels=2, n_users=2, stats=stats)
        assert delta == fitted / 4 and stats.shrinks == 2
        np.testing.assert_array_equal(f_bb, quarter)
        assert np.all(mu == 0) and np.all(iters == 0)

    def test_inexact_zero_target_solve_does_not_shrink_ep_step(self):
        """EP on a zero target can exceed a budget that exact labels meet; the
        EP step must still stay at the fitted value when the multiplier search
        meets the budget, as the exact solver's does."""
        rng = np.random.default_rng(0)
        f_rf = rng.choice(make_analog_alphabet(1).labels, size=(8, 3))
        target = random_target(rng, 8, 4)
        p_s = 15.0
        fitted = choose_delta(np.linalg.lstsq(f_rf, target, rcond=None)[0], 2)
        labels = make_digital_alphabet(2, fitted)
        zero = ep_solve(*realify(np.zeros(8), f_rf), labels).z
        b = zero[:3] + 1j * zero[3:]
        assert 2 * np.linalg.norm(f_rf @ b) ** 2 > p_s * (1 + 1e-2)  # EP's smallest power
        for solver in ("ep", "sesd"):
            stats = SolverStats()
            f_bb, delta, _, _ = optimize_digital(
                target, f_rf, p_s=p_s, solver=solver, levels=2, n_users=2, stats=stats)
            assert delta == fitted and stats.shrinks == 0
            eff = f_rf @ f_bb
            for s in range(2):
                assert sum(np.linalg.norm(eff[:, k * 2 + s]) ** 2 for k in range(2)) \
                    <= p_s * (1 + 1e-2)

    def test_bisection_stops_when_no_float_is_left_between_its_ends(self):
        """A power that drops from over the budget to far under it at mu = 1e12,
        where adjacent floats lie 1.2e-4 apart, never lands within the
        tolerance: the bisection returns the float mu at which it drops."""
        calls = []

        def solve(cols, mu=0.0, warm=None):  # one user, one sub-carrier, one chain
            calls.append(mu)
            assert len(calls) < 1000, "the bisection does not stop"
            return np.array([[1.0 if mu < 1e12 else 0.0, 0.0]])
        f_bb, mu, iters = hybrid._solve_all_subcarriers(solve, np.eye(1), 0.5, 1, 1)
        assert mu[0] == 1e12 and iters[0] == len(calls) and f_bb[0, 0] == 0.0

    @pytest.mark.parametrize("solver", ["sesd", "ep", "np"])
    def test_unreachable_budget_raises(self, solver):
        """Every quantized digital step halves the one way and says so when it gives up."""
        f_rf, target = self._binding_setup()
        with pytest.raises(InfeasiblePowerError, match="after 8 step shrinks$"):
            optimize_digital(target, f_rf, p_s=1e-9, solver=solver, levels=2, n_users=2,
                             stats=SolverStats())


class TestSubcarrierPower:
    """Column k * S + s of the digital precoder is user k on sub-carrier s."""

    @staticmethod
    def loop_powers(f_rf, f_bb, n_users):
        s_count = f_bb.shape[1] // n_users
        eff = f_rf @ f_bb
        return np.array([sum(np.linalg.norm(eff[:, k * s_count + s]) ** 2
                             for k in range(n_users)) for s in range(s_count)])

    @pytest.mark.parametrize("n_users", [1, 2, 3])
    def test_power_and_rescale_match_a_column_loop(self, n_users):
        rng = np.random.default_rng(RNG_SEED + n_users)
        s_count, m_rf = 4, 3
        f_rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (6, m_rf)))
        f_bb = (rng.standard_normal((m_rf, n_users * s_count))
                + 1j * rng.standard_normal((m_rf, n_users * s_count)))
        f_bb[:, 0::s_count] *= 100.0  # sub-carrier 0 over the budget below
        f_bb[:, 1::s_count] = 0.0  # sub-carrier 1 at zero power
        f_bb[:, 3::s_count] *= 0.01  # sub-carrier 3 under it
        powers = _power_per_subcarrier(f_rf, f_bb, n_users)
        np.testing.assert_allclose(powers, self.loop_powers(f_rf, f_bb, n_users), rtol=1e-12)
        p_s = powers[2]  # sub-carrier 2 exactly at budget
        scaled = rescale_to_budget(f_rf, f_bb, p_s, n_users)
        for s in range(s_count):
            cols = np.arange(s, n_users * s_count, s_count)
            if powers[s] <= p_s:
                assert scaled[:, cols].tobytes() == f_bb[:, cols].tobytes()
            else:
                np.testing.assert_allclose(scaled[:, cols],
                                           np.sqrt(p_s / powers[s]) * f_bb[:, cols], rtol=1e-12)
        assert np.all(self.loop_powers(f_rf, scaled, n_users) <= p_s * (1 + 1e-12))
        assert powers[0] > p_s > powers[3]


class TestAlternate:
    def test_rejects_degenerate_dimensions(self):
        cfg = SystemConfig(n_tx=8, m_rf=4, n_users=1, n_subcarriers=2)
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(ValueError, match="rank deficient"):
            alternate(random_target(rng, 8, 2), cfg, "sesd")

    def test_unknown_solver_rejected(self, small_config):
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(ValueError):
            alternate(random_target(rng, 8, 4), small_config, "annealing")

    def test_unknown_mode_rejected(self, small_config):
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(ValueError, match="mode must be"):
            alternate(random_target(rng, 8, 4), small_config, "sesd", mode="dynamic")

    def test_dynamic_mode_takes_no_analog_method(self, small_config):
        """The dynamic-connected analog step is always the SD switch with
        nearest-label phases, so an analog method there is an error."""
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(ValueError, match="analog_method"):
            alternate(random_target(rng, 8, 4), small_config, "ep", mode=DYNAMIC_CONNECTED,
                      analog_method="np")

    def test_invariants_hold_at_every_iteration(self, small_config):
        """Alphabet membership and power feasibility hold for every recorded
        iterate, not only at exit."""
        ch = draw_channel(small_config)
        p_s = per_subcarrier_power_mw(small_config)
        target, _ = wmmse_fully_digital(ch, p_s, noise_power_mw(small_config))
        precoder, trace = alternate(target, small_config, "sesd", record_iterates=True)
        analog_alpha = make_analog_alphabet(small_config.analog_bits)
        assert trace.iterates
        for snap in trace.iterates:
            assert is_member(snap["f_rf"], analog_alpha)
            real_alpha = make_digital_alphabet(
                small_config.quant_levels, snap["delta"])
            assert is_member(snap["f_bb"].real, real_alpha)
            assert is_member(snap["f_bb"].imag, real_alpha)
            eff = snap["f_rf"] @ snap["f_bb"]
            s_count = small_config.n_subcarriers
            for s in range(s_count):
                power = sum(np.linalg.norm(eff[:, k * s_count + s]) ** 2
                            for k in range(small_config.n_users))
                assert power <= p_s * (1 + small_config.bisection_tol) + 1e-12

    def test_exact_solver_trace_nonincreasing(self, small_config):
        ch = draw_channel(small_config)
        target, _ = wmmse_fully_digital(
            ch, per_subcarrier_power_mw(small_config), noise_power_mw(small_config))
        _, trace = alternate(target, small_config, "sesd")
        objectives = trace.objective_per_outer_iter
        assert all(a >= b - 1e-6 for a, b in zip(objectives, objectives[1:]))

    def test_step_shrinks_counted(self):
        """The trace sums the digital step halvings of every outer iteration:
        some under a budget far below the target's power, none on reference
        trial 1, where at every fitted step some multiplier meets the budget."""
        tight = SystemConfig(n_tx=8, m_rf=3, n_users=2, n_subcarriers=2,
                             total_power_dbm=-20.0, seed=RNG_SEED)
        target = random_target(np.random.default_rng(RNG_SEED), 8, 4, scale=3.0)
        _, trace = alternate(target, tight, "sesd")
        assert trace.solver_stats.shrinks >= trace.n_outer > 0

        cfg = SystemConfig()
        target, _ = wmmse_fully_digital(
            draw_channel(cfg, 1), per_subcarrier_power_mw(cfg), noise_power_mw(cfg),
            tol=cfg.wmmse_tol, max_iter=cfg.wmmse_max_iter)
        _, trace = alternate(target, cfg, "sesd")
        assert trace.solver_stats.shrinks == 0
        assert trace.solver_stats.nodes > 0

    def test_best_iterate_returned(self, small_config):
        ch = draw_channel(small_config)
        target, _ = wmmse_fully_digital(
            ch, per_subcarrier_power_mw(small_config), noise_power_mw(small_config))
        precoder, trace = alternate(target, small_config, "ep")
        returned = mse_to_target(target, precoder.f_rf, precoder.f_bb)
        assert returned == pytest.approx(min(trace.objective_per_outer_iter), abs=1e-9)

    def test_mixed_methods_run(self, small_config):
        ch = draw_channel(small_config)
        target, _ = wmmse_fully_digital(
            ch, per_subcarrier_power_mw(small_config), noise_power_mw(small_config))
        precoder, _ = alternate(target, small_config, "ep",
                                analog_method="np", digital_method="ep")
        analog_alpha = make_analog_alphabet(small_config.analog_bits)
        assert is_member(precoder.f_rf, analog_alpha)

    def test_iteration_cap_is_reported(self, small_config, monkeypatch):
        monkeypatch.setattr(hybridprec.hybrid, "OUTER_MAX_ITER", 1)
        _, trace = alternate(random_target(np.random.default_rng(RNG_SEED), 8, 4),
                             small_config, "sesd")
        assert (trace.stop, trace.truncated, trace.n_outer) == ("max-iter", True, 1)


class TestTargetUnwrapping:
    """The entry points take the WMMSE result or its matrix and design the same."""

    @pytest.mark.parametrize("design", ["sesd", "ep", "dynamic-ep", "altmin1", "altmin2"])
    def test_result_and_matrix_give_identical_designs(self, small_config, design):
        target, _ = wmmse_fully_digital(draw_channel(small_config),
                                        per_subcarrier_power_mw(small_config),
                                        noise_power_mw(small_config))

        def run(f_fd) -> list:
            if design.startswith("altmin"):
                f_rf, f_bb, trace = getattr(baselines, design)(f_fd, small_config)
                return [f_rf.tobytes(), f_bb.tobytes(),
                        np.array(trace.objective_per_outer_iter).tobytes()]
            mode = DYNAMIC_CONNECTED if design.startswith("dynamic") else FULLY_CONNECTED
            precoder, trace = alternate(f_fd, small_config, design.removeprefix("dynamic-"),
                                        mode=mode)
            return _iterate_bytes(precoder.f_rf, precoder.f_bb, precoder.delta, precoder.switch,
                                  precoder.phase_diag) + [
                np.array(trace.objective_per_outer_iter).tobytes()]

        assert run(target) == run(target.f_fd)

    def test_mse_to_target_of_result_and_matrix(self):
        rng = np.random.default_rng(RNG_SEED)
        target = random_target(rng, 8, 4)
        f_rf, f_bb = random_target(rng, 8, 3), random_target(rng, 3, 4)
        mse = mse_to_target(FullyDigitalPrecoder(f_fd=target), f_rf, f_bb)
        assert np.float64(mse).tobytes() == np.float64(mse_to_target(target, f_rf, f_bb)).tobytes()


def _iterate_bytes(f_rf, f_bb, delta, switch, phase_diag) -> list:
    return [None if a is None else (a.dtype, a.shape, a.tobytes())
            for a in (f_rf, f_bb, np.float64(delta), switch, phase_diag)]


class TestFixedPointStop:
    @pytest.mark.parametrize("levels", [2, 8])
    def test_one_more_iteration_repeats_the_last(self, levels):
        """Desk-small designs of every scheme that designs through `alternate`:
        where the loop stopped at a fixed point, one more digital step and
        analog (or switch and phase) step from the last iterate reproduce that
        iterate byte for byte, so the iterations cut would only repeat it."""
        cfg = SystemConfig(**DESK_SMALL_CONFIG).with_updates(quant_levels=levels, seed=1)
        p_s = per_subcarrier_power_mw(cfg)
        alphabet = make_analog_alphabet(cfg.analog_bits)
        stops = []
        for trial in range(2):
            target, _ = wmmse_fully_digital(draw_channel(cfg, trial), p_s, noise_power_mw(cfg),
                                            tol=cfg.wmmse_tol, max_iter=cfg.wmmse_max_iter)
            target = target.f_fd
            for solver, mode, analog, digital in ALTERNATE_SCHEMES.values():
                precoder, trace = alternate(target, cfg, solver, mode=mode, analog_method=analog,
                                            digital_method=digital, record_iterates=True)
                stops.append(trace.stop)
                assert trace.truncated == (trace.stop == "max-iter")
                assert len(trace.iterates) == trace.n_outer == len(trace.objective_per_outer_iter)
                if trace.stop != "fixed-point":
                    continue
                last, before = trace.iterates[-1], trace.iterates[-2]
                state = ("switch", "phase_diag") if mode == DYNAMIC_CONNECTED else ("f_rf",)
                assert all(last[k].tobytes() == before[k].tobytes() for k in state)
                stats = SolverStats()
                f_bb, delta, *_ = optimize_digital(
                    target, last["f_rf"], p_s, digital or solver, levels, cfg.n_users, stats)
                switch = phase_diag = None
                if mode == DYNAMIC_CONNECTED:
                    switch = optimize_switch(target, last["phase_diag"], f_bb, stats)
                    phase_diag = optimize_phase_diag(target, switch, f_bb, alphabet)
                    f_rf = phase_diag[:, None] * switch
                else:
                    method = analog or solver
                    f_rf = optimize_analog(target, f_bb, method, alphabet, stats,
                                           warm=last["f_rf"] if method == "sesd" else None)
                assert _iterate_bytes(f_rf, f_bb, delta, switch, phase_diag) == _iterate_bytes(
                    last["f_rf"], last["f_bb"], last["delta"], last["switch"],
                    last["phase_diag"])
                best = min(trace.objective_per_outer_iter)
                assert mse_to_target(target, precoder.f_rf, precoder.f_bb) == best
        assert stops.count("fixed-point") > 0 and set(stops) <= {"fixed-point", "tolerance"}


class TestSphereDecoderCost:
    def test_sixteen_level_three_bit_design_stays_small(self):
        """16 antennas, 8 RF chains, 2 users, 8 sub-carriers, 16 levels, 3-bit
        phases, seed 1, trial 0: the SD design visits fewer than 1 M nodes
        (about 34 k with the box-aware column order, 186.6 M with the earlier
        inverse-Gram order)."""
        cfg = SystemConfig(n_tx=16, m_rf=8, n_users=2, n_subcarriers=8, quant_levels=16,
                           analog_bits=3, seed=1)
        target, _ = wmmse_fully_digital(draw_channel(cfg, 0), per_subcarrier_power_mw(cfg),
                                        noise_power_mw(cfg), tol=cfg.wmmse_tol,
                                        max_iter=cfg.wmmse_max_iter)
        _, trace = alternate(target.f_fd, cfg, "sesd")
        assert trace.solver_stats.nodes < 1_000_000


class TestSolverStats:
    def test_ep_truncations_summed(self, monkeypatch):
        """`truncated` sums the EP targets that stopped at max_iter over every call."""
        seen = []

        def spy(*args, **kwargs):
            result = ep_solve(*args, **kwargs)
            seen.append(result.truncated)
            return result
        monkeypatch.setattr(hybridprec.hybrid, "ep_solve", spy)
        cfg = SystemConfig(**DESK_SMALL_CONFIG).with_updates(seed=1)
        target, _ = wmmse_fully_digital(draw_channel(cfg, 0), per_subcarrier_power_mw(cfg),
                                        noise_power_mw(cfg), tol=cfg.wmmse_tol,
                                        max_iter=cfg.wmmse_max_iter)
        _, trace = alternate(target, cfg, "ep")
        assert trace.solver_stats.truncated == sum(seen) > 0

    def test_ep_found_iterations_summed(self, monkeypatch):
        """`found` sums, over every EP call of a design, the iteration at which
        each target's returned decision was found; it is at most `iterations`."""
        seen = []

        def spy(*args, **kwargs):
            result = ep_solve(*args, **kwargs)
            seen.append(int(result.diagnostics["found"].sum()))
            return result
        monkeypatch.setattr(hybridprec.hybrid, "ep_solve", spy)
        cfg = SystemConfig(**DESK_SMALL_CONFIG).with_updates(seed=1)
        target, _ = wmmse_fully_digital(draw_channel(cfg, 0), per_subcarrier_power_mw(cfg),
                                        noise_power_mw(cfg), tol=cfg.wmmse_tol,
                                        max_iter=cfg.wmmse_max_iter)
        _, trace = alternate(target, cfg, "ep")
        stats = trace.solver_stats
        assert stats.found == sum(seen) > 0
        assert stats.solves <= stats.found < stats.iterations
        _, sd_trace = alternate(target, cfg, "sesd")
        assert sd_trace.solver_stats.found == 0

    def test_peak_frontier_is_a_maximum(self, monkeypatch):
        """`peak_frontier` is the largest SD block of any call, not a sum, and
        `absorb` keeps the maximum while it sums every other count."""
        seen = []

        def spy(*args, **kwargs):
            result = sesd_solve(*args, **kwargs)
            seen.append(result.diagnostics["peak_frontier"])
            return result
        monkeypatch.setattr(hybridprec.hybrid, "sesd_solve", spy)
        cfg = SystemConfig(**DESK_SMALL_CONFIG).with_updates(seed=1)
        target, _ = wmmse_fully_digital(draw_channel(cfg, 0), per_subcarrier_power_mw(cfg),
                                        noise_power_mw(cfg), tol=cfg.wmmse_tol,
                                        max_iter=cfg.wmmse_max_iter)
        _, trace = alternate(target, cfg, "sesd")
        assert len(seen) > 1 and sum(seen) > max(seen) > 0
        assert trace.solver_stats.peak_frontier == max(seen)

        total = SolverStats(solves=2, nodes=1, peak_frontier=7)
        total.absorb(SolveResult(z=np.zeros((3, 2)), objective=0.0, nodes_visited=4,
                                 diagnostics={"peak_frontier": 5}))
        assert (total.solves, total.nodes, total.peak_frontier) == (5, 5, 7)
        total.absorb(SolveResult(z=np.zeros((1, 2)), objective=0.0, nodes_visited=2,
                                 diagnostics={"peak_frontier": 9}))
        assert (total.solves, total.nodes, total.peak_frontier) == (6, 7, 9)
        total.absorb(SolveResult(z=np.zeros((1, 2)), objective=0.0,
                                 diagnostics={"iterations": np.ones(1)}))
        assert total.peak_frontier == 9

    @pytest.mark.parametrize("scheme", ["sd-hybrid", "ep-hybrid", "dynamic-ep"])
    def test_counts_sum_over_solver_calls(self, scheme, monkeypatch):
        """Every step adds to the design's one account: each count a solver call
        returns sums over all of the design's SD and EP calls (``dynamic-ep``
        makes both), and ``peak_frontier`` is their maximum."""
        results = []

        def recording(solve):
            def spy(*args, **kwargs):
                results.append(solve(*args, **kwargs))
                return results[-1]
            return spy
        monkeypatch.setattr(hybridprec.hybrid, "sesd_solve", recording(sesd_solve))
        monkeypatch.setattr(hybridprec.hybrid, "ep_solve", recording(ep_solve))
        cfg = SystemConfig(**DESK_SMALL_CONFIG).with_updates(seed=1)
        target, _ = wmmse_fully_digital(draw_channel(cfg, 0), per_subcarrier_power_mw(cfg),
                                        noise_power_mw(cfg), tol=cfg.wmmse_tol,
                                        max_iter=cfg.wmmse_max_iter)
        solver, mode, analog, digital = ALTERNATE_SCHEMES[scheme]
        _, trace = alternate(target, cfg, solver, mode=mode, analog_method=analog,
                             digital_method=digital)
        stats = trace.solver_stats
        diagnostics = [r.diagnostics or {} for r in results]
        assert len(results) > trace.n_outer > 0
        assert (stats.solves, stats.nodes, stats.iterations, stats.found, stats.truncated) == (
            sum(len(r.z) for r in results), sum(r.nodes_visited for r in results),
            sum(r.iterations for r in results),
            sum(int(np.sum(d.get("found", 0))) for d in diagnostics),
            sum(r.truncated for r in results))
        assert stats.peak_frontier == max(d.get("peak_frontier", 0) for d in diagnostics)
        assert stats.nodes > 0 if solver == "sesd" else stats.iterations > 0

    def test_reference_trial_zero_ridged(self):
        """Reference trial 0 drops the analog Gram below full rank, so some SD
        factors of its design are ridge-loaded."""
        cfg = SystemConfig()
        target, _ = wmmse_fully_digital(draw_channel(cfg, 0), per_subcarrier_power_mw(cfg),
                                        noise_power_mw(cfg), tol=cfg.wmmse_tol,
                                        max_iter=cfg.wmmse_max_iter)
        _, trace = alternate(target, cfg, "sesd")
        assert trace.solver_stats.ridged >= 1


class TestSwitchNetwork:
    def test_single_chain_residual_comparison(self):
        """With one RF chain each antenna independently picks 0 or 1."""
        rng = np.random.default_rng(RNG_SEED)
        target = random_target(rng, 5, 3)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        f_bb = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        switch = optimize_switch(target, phase, f_bb, SolverStats())
        rotated = np.conj(phase)[:, None] * target
        for n in range(5):
            r_off = np.linalg.norm(rotated[n]) ** 2
            r_on = np.linalg.norm(rotated[n] - f_bb[0]) ** 2
            # repair may override ties/zeros, so only check clear winners
            if abs(r_on - r_off) > 1e-9 and switch[:, 0].sum() > 1:
                assert switch[n, 0] == (1.0 if r_on < r_off else 0.0)

    def test_matches_brute_force(self):
        """Recovers a planted switch exactly and matches per-antenna
        enumeration when the enumerated optimum needs no repair."""
        from hybridprec.alphabets import make_switch_alphabet
        rng = np.random.default_rng(RNG_SEED)
        alphabet = make_switch_alphabet()
        true_switch = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                [1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=float)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        f_bb = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        target = (phase[:, None] * true_switch) @ f_bb
        switch = optimize_switch(target, phase, f_bb, SolverStats())
        np.testing.assert_array_equal(switch, true_switch)
        rotated = (np.conj(phase)[:, None] * target).T
        for n in range(6):
            exact = brute_force_ml(rotated[:, n], f_bb.T, alphabet)
            np.testing.assert_array_equal(switch[n], np.real(exact.z))

    def test_zero_digital_precoder_triggers_repair(self):
        """An all-zero digital precoder makes every switch optimal; the
        tie-break picks zeros and the repair then restores validity."""
        rng = np.random.default_rng(RNG_SEED)
        target = random_target(rng, 5, 3)
        phase = np.ones(5, dtype=complex)
        f_bb = np.zeros((2, 3), dtype=complex)
        switch = optimize_switch(target, phase, f_bb, SolverStats())
        assert switch.shape == (5, 2)
        assert all(switch[:, m].any() for m in range(2))
        assert not np.array_equal(switch[:, 0], switch[:, 1])

    @pytest.mark.parametrize("columns, bad", [
        ([[1, 0, 0], [0, 1, 0], [1, 1, 1]], set()),
        ([[1, 0, 0], [0, 0, 0], [0, 1, 1]], {1}),
        ([[1, 0, 1], [0, 1, 0], [1, 0, 1]], {2}),
        ([[1, 1, 0], [0, 0, 1], [1, 1, 0], [1, 1, 0]], {2, 3}),
        ([[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 1, 0]], {0, 3}),
        ([[0, 0, 0], [0, 0, 0]], {0, 1}),
    ], ids=["valid", "zero", "repeat", "repeats-of-first", "zero-and-repeat", "all-zero"])
    def test_offending_columns(self, columns, bad):
        """Zero columns and every repeat after a column's first copy offend;
        the first copy does not."""
        switch = np.array(columns, dtype=float).T  # each listed row is one RF chain
        assert _offending_columns(switch) == bad

    def test_repair_fails_when_no_flip_helps(self):
        """One antenna cannot give two RF chains distinct nonzero columns: every
        single flip leaves one chain offending, so the repair raises."""
        with pytest.raises(RuntimeError, match=r"switch repair failed; offending RF chains: \[1\]"):
            optimize_switch(np.ones((1, 2), dtype=complex), np.ones(1, dtype=complex),
                            np.eye(2, dtype=complex), SolverStats())

    def test_rejects_non_unit_phases(self):
        with pytest.raises(ValueError):
            optimize_switch(np.ones((3, 2), dtype=complex), np.full(3, 2.0 + 0j),
                            np.ones((2, 2), dtype=complex), SolverStats())


class TestPhaseDiag:
    @pytest.mark.parametrize("seed", [RNG_SEED, RNG_SEED + 1, RNG_SEED + 2])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_matches_scalar_brute_force(self, bits, seed):
        rng = np.random.default_rng(seed)
        alphabet = make_analog_alphabet(bits)
        target = random_target(rng, 5, 3)
        switch = np.zeros((5, 2))
        switch[np.arange(5), np.arange(5) % 2] = 1.0
        f_bb = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        phases = optimize_phase_diag(target, switch, f_bb, alphabet)
        bt = f_bb.T @ switch.T
        for n in range(5):
            exact = brute_force_ml(target[n, :], bt[:, n:n + 1], alphabet)
            assert phases[n] == exact.z[0]

    def test_zero_row_ties_to_first_label(self):
        alphabet = make_analog_alphabet(1)
        target = np.ones((3, 2), dtype=complex)
        switch = np.zeros((3, 2))
        switch[0, 0] = switch[1, 1] = switch[2, 0] = 1.0
        f_bb = np.zeros((2, 2), dtype=complex)  # makes every row of B zero
        phases = optimize_phase_diag(target, switch, f_bb, alphabet)
        np.testing.assert_array_equal(phases, alphabet.labels[0])

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_matches_label_cost_scan(self, bits):
        """The nearest label to the phase of each correlation is the argmin of
        the per-antenna label cost |l|²‖r_n‖² − 2Re(l̄·c_n), also on zero rows
        (where every label costs 0 and the scan takes label 0)."""
        rng = np.random.default_rng(RNG_SEED + bits)
        alphabet = make_analog_alphabet(bits)
        for _ in range(20):
            target = random_target(rng, 12, 6)
            switch = rng.integers(0, 2, size=(12, 3)).astype(float)
            switch[:3] = 0.0  # antennas on no RF chain: zero rows
            f_bb = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
            rows = np.ascontiguousarray((f_bb.T @ switch.T).T)
            cross = (rows.conj()[:, None, :] @ target[:, :, None])[:, 0, 0]
            labels = alphabet.labels
            costs = (-2.0 * np.real(np.conj(labels) * cross[:, None])
                     + np.abs(labels) ** 2 * _sq_norms(rows)[:, None])
            scan = labels[np.argmin(costs, axis=1)]
            np.testing.assert_array_equal(
                optimize_phase_diag(target, switch, f_bb, alphabet), scan)


class TestDynamicConnected:
    def test_factorization_structure(self, small_config):
        """The dynamic analog matrix is exactly diag(phases) @ switch."""
        ch = draw_channel(small_config)
        target, _ = wmmse_fully_digital(
            ch, per_subcarrier_power_mw(small_config), noise_power_mw(small_config))
        precoder, _ = alternate(target, small_config, "sesd", mode=DYNAMIC_CONNECTED)
        assert precoder.switch is not None and precoder.phase_diag is not None
        rebuilt = precoder.phase_diag[:, None] * precoder.switch
        np.testing.assert_array_equal(precoder.f_rf, rebuilt)
        analog_alpha = make_analog_alphabet(small_config.analog_bits)
        assert is_member(precoder.phase_diag, analog_alpha)
        assert set(np.unique(precoder.switch)) <= {0.0, 1.0}

    def test_switch_columns_valid(self, small_config):
        ch = draw_channel(small_config)
        target, _ = wmmse_fully_digital(
            ch, per_subcarrier_power_mw(small_config), noise_power_mw(small_config))
        precoder, _ = alternate(target, small_config, "sesd", mode=DYNAMIC_CONNECTED)
        switch = precoder.switch
        m_rf = switch.shape[1]
        for m in range(m_rf):
            assert switch[:, m].any()
        keys = {switch[:, m].tobytes() for m in range(m_rf)}
        assert len(keys) == m_rf


# One EP and one SD design at harness.DESK_CONFIG (trial 0); prints a hash of
# F_RF and F_BB per solver.
DESIGN_HASHES = """
import hashlib
from hybridprec import channel, harness, hybrid, wmmse
cfg = channel.SystemConfig(**harness.DESK_CONFIG)
ch = channel.draw_channel(cfg, 0)
target, _ = wmmse.wmmse_fully_digital(
    ch, channel.per_subcarrier_power_mw(cfg), channel.noise_power_mw(cfg),
    tol=cfg.wmmse_tol, max_iter=cfg.wmmse_max_iter)
for solver in ("ep", "sesd"):
    precoder, _ = hybrid.alternate(target, cfg, solver)
    digest = hashlib.sha256(precoder.f_rf.tobytes() + precoder.f_bb.tobytes())
    print(solver, digest.hexdigest())
"""


# Tiny SD, EP and dynamic-connected designs, one nearest-point quantization and
# one manifest in a fresh interpreter; prints every scipy module then loaded.
COLD_IMPORTS = """
import sys, tempfile
from pathlib import Path
from hybridprec import channel, harness, hybrid, wmmse
cfg = channel.SystemConfig(n_tx=8, m_rf=3, n_users=2, n_subcarriers=2)
ch = channel.draw_channel(cfg, 0)
p_s = channel.per_subcarrier_power_mw(cfg)
target, _ = wmmse.wmmse_fully_digital(ch, p_s, channel.noise_power_mw(cfg))
for solver in ("sesd", "ep"):
    precoder, _ = hybrid.alternate(target, cfg, solver)
hybrid.alternate(target, cfg, "sesd", mode=hybrid.DYNAMIC_CONNECTED)
hybrid.nearest_quantize_digital(target.f_fd[:3], precoder.f_rf, p_s, 4, cfg.n_users)
spec = harness.ExperimentSpec(name="cold", base=cfg, schemes=["sd-hybrid"])
with tempfile.TemporaryDirectory() as out:
    harness.write_manifest(spec, Path(out) / "cold.manifest.json", 0.0)
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def run_fresh(script: str, **env: str) -> str:
    """Stdout of ``script`` in a new interpreter that imports this checkout."""
    src = str(Path(hybridprec.__file__).resolve().parent.parent)
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


class TestBlasThreadDeterminism:
    def test_designs_identical_at_one_and_two_blas_threads(self):
        """F_RF and F_BB do not depend on the OpenBLAS thread count."""
        outputs = [run_fresh(DESIGN_HASHES, OPENBLAS_NUM_THREADS=threads)
                   for threads in ("1", "2")]
        assert [line.split()[0] for line in outputs[0].splitlines()] == ["ep", "sesd"]
        assert outputs[0] == outputs[1]


class TestColdImport:
    def test_designs_load_no_scipy(self):
        """Importing, designing and writing a manifest load no scipy module; a
        fresh interpreter is needed because other tests import scipy as an oracle."""
        assert run_fresh(COLD_IMPORTS).strip() == ""
