"""Tests for the fully-digital precoding target and the rate metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridprec.channel import (
    SystemConfig, draw_channel, noise_power_mw, per_subcarrier_power_mw,
)
from hybridprec.wmmse import _precoder_update, mse_to_target, sum_rate, wmmse_fully_digital

RNG_SEED = 77


def random_channel(rng, n_tx, k, s):
    return (rng.standard_normal((n_tx, k * s)) + 1j * rng.standard_normal((n_tx, k * s))) / np.sqrt(2)


class TestSinr:
    """The SINR inside `sum_rate`'s per-user rates log2(1 + SINR)."""

    def test_single_user_no_interference(self):
        rng = np.random.default_rng(RNG_SEED)
        h = random_channel(rng, 4, 1, 1)
        f = random_channel(rng, 4, 1, 1)
        expected = abs(h[:, 0] @ f[:, 0]) ** 2 / 0.3
        rate = sum_rate(h, f, 0.3, 1, 1).per_user_per_subcarrier[0, 0]
        assert rate == pytest.approx(np.log2(1.0 + expected), rel=1e-12)

    def test_zero_numerator(self):
        """A precoder orthogonal to the conjugate channel carries no signal."""
        h = np.array([[1.0 + 0j], [1j]])
        f = np.array([[1.0 + 0j], [1j]])  # h^T f = 1 + j^2 = 0
        assert sum_rate(h, f, 1.0, 1, 1).per_user_per_subcarrier[0, 0] == 0.0

    def test_matches_direct_recomputation(self):
        """Agrees with an independent loop over the defining formula."""
        rng = np.random.default_rng(RNG_SEED)
        k, s_count = 3, 2
        h = random_channel(rng, 5, k, s_count)
        f = random_channel(rng, 5, k, s_count)
        n0 = 0.7
        rates = sum_rate(h, f, n0, k, s_count).per_user_per_subcarrier
        for k_idx in range(k):
            for s in range(s_count):
                hk = h[:, k_idx * s_count + s]
                num = abs(np.sum(hk * f[:, k_idx * s_count + s])) ** 2
                den = n0
                for i in range(k):
                    if i != k_idx:
                        den += abs(np.sum(hk * f[:, i * s_count + s])) ** 2
                assert rates[k_idx, s] == pytest.approx(math.log2(1.0 + num / den), rel=1e-12)


class TestSumRate:
    def test_zero_precoder(self):
        h = np.ones((3, 2), dtype=complex)
        report = sum_rate(h, np.zeros_like(h), 1.0, 2, 1)
        assert report.total_sum_rate == 0.0
        np.testing.assert_array_equal(report.per_user_per_subcarrier, 0.0)

    def test_matched_filter_closed_form(self):
        """Single-user MRT at power p_s achieves log2(1 + p_s ||h||^2 / n0)."""
        rng = np.random.default_rng(RNG_SEED)
        h = random_channel(rng, 6, 1, 1)
        p_s, n0 = 3.0, 0.2
        f = np.sqrt(p_s) * h.conj() / np.linalg.norm(h)
        report = sum_rate(h, f, n0, 1, 1)
        expected = np.log2(1 + p_s * np.linalg.norm(h) ** 2 / n0)
        assert report.total_sum_rate == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n0", [0.0, -1.0, float("inf"), float("nan")])
    def test_noise_power_not_positive_and_finite_rejected(self, n0):
        """A zero noise power gave NaN rates and a negative one a finite rate."""
        h = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="noise power must be positive and finite"):
            sum_rate(h, h, n0, 2, 1)

    def test_aggregates_consistent(self):
        rng = np.random.default_rng(RNG_SEED)
        h = random_channel(rng, 4, 2, 3)
        f = random_channel(rng, 4, 2, 3)
        report = sum_rate(h, f, 0.5, 2, 3)
        assert report.total_sum_rate == pytest.approx(report.per_user_per_subcarrier.sum())
        assert report.sum_rate_per_subcarrier_avg == pytest.approx(report.total_sum_rate / 3)


class TestMseToTarget:
    def test_exact_factorization(self):
        rng = np.random.default_rng(RNG_SEED)
        f_rf = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        f_bb = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        assert mse_to_target(f_rf @ f_bb, f_rf, f_bb) == pytest.approx(0.0, abs=1e-20)

    def test_zero_digital(self):
        rng = np.random.default_rng(RNG_SEED)
        target = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        value = mse_to_target(target, np.ones((4, 2), dtype=complex), np.zeros((2, 6), dtype=complex))
        assert value == pytest.approx(np.linalg.norm(target) ** 2, rel=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(RNG_SEED)
        target = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        f_rf = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        f_bb = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        diff = target - f_rf @ f_bb
        manual = 0.0
        for i in range(3):
            for j in range(4):
                manual += abs(diff[i, j]) ** 2
        assert mse_to_target(target, f_rf, f_bb) == pytest.approx(manual, rel=1e-12)


class TestWmmse:
    def test_single_user_single_subcarrier_is_mrt(self):
        """The K=1, S=1 optimum is the matched filter at full power."""
        rng = np.random.default_rng(RNG_SEED)
        h = random_channel(rng, 8, 1, 1)
        p_s, n0 = 2.0, 0.4
        precoder, _ = wmmse_fully_digital(h, p_s, n0, n_users=1, n_subcarriers=1)
        achieved = sum_rate(h, precoder.f_fd, n0, 1, 1).total_sum_rate
        closed_form = np.log2(1 + p_s * np.linalg.norm(h) ** 2 / n0)
        assert achieved == pytest.approx(closed_form, rel=1e-6)

    def test_utility_trace_monotone(self):
        """The per-sub-carrier utility never decreases across iterations."""
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            h = random_channel(rng, 4, 2, 1)
            _, trace = wmmse_fully_digital(h, 1.5, 0.1, n_users=2, n_subcarriers=1)
            for u in trace.utilities:
                rel_floor = -1e-9 * np.maximum(np.abs(u[:-1]), 1.0)
                assert np.all(np.diff(u) >= rel_floor)

    def test_zero_channel_user_gets_zero_column(self):
        rng = np.random.default_rng(RNG_SEED)
        h = random_channel(rng, 4, 2, 1)
        h[:, 1] = 0.0
        precoder, _ = wmmse_fully_digital(h, 1.0, 0.1, n_users=2, n_subcarriers=1)
        np.testing.assert_array_equal(precoder.f_fd[:, 1], 0.0)

    def test_power_constraint(self):
        cfg = SystemConfig(n_tx=8, m_rf=4, n_users=2, n_subcarriers=4, seed=3)
        ch = draw_channel(cfg)
        p_s = per_subcarrier_power_mw(cfg)
        precoder, _ = wmmse_fully_digital(ch, p_s, noise_power_mw(cfg))
        for s in range(4):
            cols = [k * 4 + s for k in range(2)]
            power = np.sum(np.abs(precoder.f_fd[:, cols]) ** 2)
            assert power <= p_s * (1 + 1e-6)

    def test_beats_matched_filter_on_most_instances(self):
        """At least 95% of random two-user instances improve on the
        equal-power matched-filter baseline."""
        rng = np.random.default_rng(RNG_SEED)
        p_s, n0 = 2.0, 0.1
        wins = 0
        n_inst = 200
        for _ in range(n_inst):
            h = random_channel(rng, 4, 2, 1)
            precoder, _ = wmmse_fully_digital(h, p_s, n0, n_users=2, n_subcarriers=1)
            mf = np.zeros_like(h)
            for k in range(2):
                mf[:, k] = np.sqrt(p_s / 2) * h[:, k].conj() / np.linalg.norm(h[:, k])
            ours = sum_rate(h, precoder.f_fd, n0, 2, 1).total_sum_rate
            baseline = sum_rate(h, mf, n0, 2, 1).total_sum_rate
            if ours >= baseline - 1e-9:
                wins += 1
        assert wins >= 0.95 * n_inst

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            wmmse_fully_digital(np.ones((2, 1), dtype=complex), 0.0, 1.0,
                                n_users=1, n_subcarriers=1)


class TestChannelDims:
    """An ndarray channel needs both counts, and they must match its columns."""

    @pytest.mark.parametrize("counts", [{}, {"n_subcarriers": 3}, {"n_users": 4, "n_subcarriers": 2}])
    def test_sum_rate(self, counts):
        h = np.ones((4, 6), dtype=complex)
        with pytest.raises(ValueError, match=r"\(4, 6\)"):
            sum_rate(h, h, 1.0, **counts)

    @pytest.mark.parametrize("counts", [{}, {"n_users": 3}, {"n_users": 1, "n_subcarriers": 5}])
    def test_wmmse_fully_digital(self, counts):
        with pytest.raises(ValueError, match=r"\(4, 6\)"):
            wmmse_fully_digital(np.ones((4, 6), dtype=complex), 1.0, 1.0, **counts)


def channel_with_silent_user():
    """8 antennas, 2 users, 2 sub-carriers; user 1 is silent on sub-carrier 0."""
    h = random_channel(np.random.default_rng(RNG_SEED), 8, 2, 2)
    h[:, 1 * 2 + 0] = 0.0
    return h


class TestSilentUser:
    """A user with an all-zero channel column gets a zero precoder, and the
    matched-filter start gives its share of the budget to the active users."""

    def test_active_user_spends_the_budget(self):
        """At high SNR the start at half the budget left the one active user's
        updates under it: sub-carrier 0 ended at 0.5005 of p_s and 11.91 bit/s/Hz."""
        h = channel_with_silent_user()
        precoder, _ = wmmse_fully_digital(h, 1.0, 1e-3, n_users=2, n_subcarriers=2)
        np.testing.assert_array_equal(precoder.f_fd[:, 1 * 2 + 0], 0.0)
        for s in range(2):
            assert power(precoder.f_fd[:, s::2]) == pytest.approx(1.0, rel=1e-12)
        rates = sum_rate(h, precoder.f_fd, 1e-3, 2, 2).per_user_per_subcarrier
        assert rates[:, 0].sum() > 12.9


class TestFadingUser:
    """A user whose receive scalar fades towards 0 over a long run (3 users on 3
    antennas, p_s 100, n0 1, tol 1e-8) leaves the system instead of overflowing
    the update through 1 / u_k: the mu = 0 pre-solve returned an all-zero target
    with rate 0 after 131-197 iterations."""

    @pytest.mark.parametrize("seed", [10, 14, 17, 19])
    def test_target_spends_budget_and_keeps_rate(self, seed):
        h = random_channel(np.random.default_rng(seed), 3, 3, 1)
        precoder, _ = wmmse_fully_digital(h, 100.0, 1.0, tol=1e-8, max_iter=200,
                                          n_users=3, n_subcarriers=1)
        assert np.all(np.isfinite(precoder.f_fd))
        assert abs(power(precoder.f_fd) - 100.0) <= 1e-9 * 100.0
        loose, _ = wmmse_fully_digital(h, 100.0, 1.0, n_users=3, n_subcarriers=1)
        rate = sum_rate(h, precoder.f_fd, 1.0, 3, 1).total_sum_rate
        assert rate >= sum_rate(h, loose.f_fd, 1.0, 3, 1).total_sum_rate > 0.0


class TestPrecoderUpdate:
    def test_mu_stays_zero_where_the_budget_is_met(self):
        """Newton from mu = 0 does not move where the mu = 0 solve meets the budget:
        that sub-carrier's rows equal a plain mu = 0 solve bit for bit, while a
        sub-carrier of the same stack whose mu = 0 solve overshoots spends p_s."""
        rng = np.random.default_rng(RNG_SEED)
        ht = random_channel(rng, 2, 3, 4).reshape(2, 3, 4)  # (P, K, n_t) rows h_k^T
        w = rng.uniform(1.0, 3.0, (2, 3))
        u = random_channel(rng, 2, 3, 1).reshape(2, 3)
        hct = ht.conj().transpose(0, 2, 1)
        inner = ht @ hct
        rhs = np.zeros(inner.shape, dtype=complex)
        rhs[:, range(3), range(3)] = w * np.conj(u)
        plain = (hct @ np.linalg.solve((w * np.abs(u) ** 2)[:, :, None] * inner, rhs)
                 ).transpose(0, 2, 1)
        loose, tight = sorted([0, 1], key=lambda s: power(plain[s]))
        p_s = math.sqrt(power(plain[0]) * power(plain[1]))
        ft = _precoder_update(ht, w, u, p_s)
        assert ft[loose].tobytes() == plain[loose].tobytes()
        assert power(ft[tight]) == pytest.approx(p_s, rel=1e-12)


# --- reference: the per-sub-carrier loop the lockstep iteration replaced ---

def update_system(hc, w, u):
    """Active-user mask and the solve at multiplier mu of one sub-carrier's update."""
    active = np.abs(u) > 0
    ha = hc[:, active]
    d = (w * np.abs(u) ** 2)[active]
    inner = ha.conj().T @ ha
    coeff = (w * np.conj(u))[active]

    def solve(mu):
        f_s = np.zeros_like(hc)
        core = np.linalg.solve(mu * np.eye(len(d)) + d[:, None] * inner, np.diag(coeff))
        f_s[:, active] = ha @ core
        return f_s
    return active, d, inner, solve


def power(f_s):
    return float(np.real(np.sum(f_s * f_s.conj())))


def loop_precoder_update(hc, w, u, p_s):
    """One sub-carrier's update: a user whose w_k |u_k|^2 ||h_k||^2 is below the
    smallest normal float gets an identity row and a zero right-hand side, and mu
    comes from Newton on the closed-form power from 0. Returns (f_s, 1, whether
    mu = 0 met the budget, condition number of the active users' D^1/2 A D^1/2),
    or 0 solves and condition number 1 where every user is silent."""
    inner = hc.conj().T @ hc
    d = w * np.abs(u) ** 2
    silent = d * np.diag(inner).real < np.finfo(float).tiny
    if silent.all():
        return np.zeros_like(hc), 0, False, 1.0
    d[silent] = 0.0
    w = np.where(silent, 0.0, w)
    root = np.sqrt(d)
    scaled = root[:, None] * inner * root[None, :]
    lam = np.linalg.eigvalsh(scaled[np.ix_(~silent, ~silent)])
    cond = lam[-1] / lam[0] if lam[0] > 0 else np.inf
    lam, vec = np.linalg.eigh(scaled)
    lam = np.maximum(lam, 0.0)
    c = lam * (np.abs(vec) ** 2 * w[:, None]).sum(axis=0)
    lam = np.where(c > 0, lam, np.inf)
    mu = 0.0
    for _ in range(100 if (c > 0).any() else 0):
        x = mu + lam
        low = x.min()
        r = low / x
        a2 = (c * r ** 2).sum()
        step = a2 / (c * r ** 3).sum() * (np.sqrt(a2 / p_s) - low)
        if not mu + step > mu:
            break
        mu += step
    eye = np.eye(len(d))
    system = np.where(silent[:, None], eye, mu * eye + d[:, None] * inner)
    f_s = hc @ np.linalg.solve(system, np.diag(w * np.conj(u)))
    if power(f_s) > p_s * (1 + 1e-9):
        f_s *= math.sqrt(p_s / power(f_s))
    return f_s, 1, mu == 0.0, cond


def bisect_precoder_update(hc, w, u, p_s):
    """Independent reference: mu bisected on the exact power of full solves,
    doubling out of [0, 1], then halving until the bracket stops shrinking;
    returns None for the solve count."""
    active, _, _, solve = update_system(hc, w, u)
    if not active.any():
        return np.zeros_like(hc), 0, False, 1.0
    f0 = solve(0.0)
    if power(f0) <= p_s:
        return f0, 1, True, 1.0
    lo, hi = 0.0, 1.0
    while power(solve(hi)) > p_s:
        lo, hi = hi, hi * 2.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if power(solve(mid)) > p_s:
            lo = mid
        else:
            hi = mid
    f_s = solve(hi)
    if power(f_s) > p_s * (1 + 1e-9):
        f_s *= math.sqrt(p_s / power(f_s))
    return f_s, None, False, np.nan


def loop_wmmse(hm, p_s, n0, tol, max_iter, k_count, s_count, update=loop_precoder_update):
    """Returns (f, utilities, iterations, truncated, whether mu = 0 met the budget
    in each update with an active user, largest condition number of an update)."""
    n_t = hm.shape[0]
    f = np.zeros((n_t, k_count * s_count), dtype=complex)
    utilities, iterations, feasible = [], [], []
    truncated = False
    worst_cond = 1.0
    for s in range(s_count):
        cols = [k * s_count + s for k in range(k_count)]
        h_s = hm[:, cols]
        hc = h_s.conj()
        norms = np.linalg.norm(h_s, axis=0)
        f_s = np.zeros((n_t, k_count), dtype=complex)
        nz = norms > 0
        f_s[:, nz] = math.sqrt(p_s / max(nz.sum(), 1)) * hc[:, nz] / norms[nz]
        util_hist = []
        prev = None
        for _ in range(1, max_iter + 1):
            e = h_s.T @ f_s
            p = np.abs(e) ** 2
            denom = p.sum(axis=1) + n0
            u = np.conj(np.diag(e)) / denom
            mmse = 1.0 - np.abs(np.diag(e)) ** 2 / denom
            w = 1.0 / np.maximum(mmse, 1e-15)
            f_s, count, loose, cond = update(hc, w, u, p_s)
            if count != 0:
                feasible.append(loose)
            worst_cond = max(worst_cond, cond)
            e = h_s.T @ f_s
            p = np.abs(e) ** 2
            signal = np.diag(p)
            util = float(np.sum(np.log2(1.0 + signal / (p.sum(axis=1) - signal + n0))))
            util_hist.append(util)
            if prev is not None and abs(util - prev) <= tol * max(abs(prev), 1.0):
                break
            prev = util
        else:
            truncated = True
        f[:, cols] = f_s
        utilities.append(np.array(util_hist))
        iterations.append(len(util_hist))
    return f, utilities, iterations, truncated, feasible, worst_cond


def loop_sum_rate(hm, f, n0, k_count, s_count):
    rates = np.zeros((k_count, s_count))
    for s in range(s_count):
        cols = [k * s_count + s for k in range(k_count)]
        p = np.abs(hm[:, cols].T @ f[:, cols]) ** 2
        signal = np.diag(p)
        rates[:, s] = np.log2(1.0 + signal / (p.sum(axis=1) - signal + n0))
    return rates, float(rates.sum())


# eigh resolves the eigenvalues of D^1/2 A D^1/2 to about eps * largest, so the
# Newton multiplier is as accurate as the bisected one where the condition number
# stays below this (largest target error 1.8e-13 over 3,000 random draws; 6.3e-12
# at 6.3e5); beyond it the update is held only to the 1e-9 budget guard.
WELL_CONDITIONED = 1e4


def assert_matches_loop(hm, p_s, n0, tol, max_iter, k_count, s_count):
    """Lockstep target equals the loop's byte for byte, is finite, and spends the
    budget on each sub-carrier with a nonzero channel: within the 1e-9 budget guard
    and 1e-6 below it (1.2e-10 at most in 9,500 random draws), and where every
    update is well conditioned to 1e-12, with the target equal to the bisection
    reference to 1e-12 relative in the same iterations. Returns the
    trace, whether mu = 0 met the budget in each of the loop's updates, and the
    largest condition number of an update."""
    f, utilities, iterations, truncated, feasible, cond = loop_wmmse(
        hm, p_s, n0, tol, max_iter, k_count, s_count)
    precoder, trace = wmmse_fully_digital(hm, p_s, n0, tol=tol, max_iter=max_iter,
                                          n_users=k_count, n_subcarriers=s_count)
    assert precoder.f_fd.tobytes() == f.tobytes()
    assert trace.iterations == iterations
    assert [u.tobytes() for u in trace.utilities] == [u.tobytes() for u in utilities]
    assert trace.truncated == truncated
    assert np.all(np.isfinite(precoder.f_fd))
    spent = [power(precoder.f_fd[:, s::s_count]) for s in range(s_count)
             if hm[:, s::s_count].any()]
    well = cond <= WELL_CONDITIONED
    below, above = (1e-12, 1e-12) if well else (1e-6, 1e-9)
    assert all(-below <= p / p_s - 1 <= above for p in spent)
    if not well:
        return trace, feasible, cond
    f_ref, _, iterations_ref, *_ = loop_wmmse(hm, p_s, n0, tol, max_iter, k_count, s_count,
                                              update=bisect_precoder_update)
    assert trace.iterations == iterations_ref
    assert np.linalg.norm(precoder.f_fd - f_ref) <= 1e-12 * np.linalg.norm(f_ref)
    return trace, feasible, cond


class TestLockstepMatchesLoop:
    def test_property(self):
        seen = set()
        conds = []

        @settings(max_examples=200, deadline=None)
        @given(k_count=st.integers(1, 3), s_count=st.integers(1, 6),
               n_t=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
               silent=st.floats(0.0, 0.5), snr_db=st.floats(-20.0, 40.0),
               max_iter=st.sampled_from([1, 2, 3, 200]),
               tol=st.sampled_from([1e-2, 1e-4, 1e-8]))
        def check(k_count, s_count, n_t, seed, silent, snr_db, max_iter, tol):
            rng = np.random.default_rng(seed)
            hm = random_channel(rng, n_t, k_count, s_count)
            hm[:, rng.random(k_count * s_count) < silent] = 0.0  # silent users
            p_s, n0 = float(rng.uniform(0.1, 10.0)), 1.0
            p_s *= 10 ** (snr_db / 10)
            if k_count > n_t:
                with pytest.raises(ValueError, match=rf"{k_count} users .* shape \({n_t}, "):
                    wmmse_fully_digital(hm, p_s, n0, tol=tol, max_iter=max_iter,
                                        n_users=k_count, n_subcarriers=s_count)
                return
            with np.errstate(all="ignore"):
                try:
                    trace, feasible, cond = assert_matches_loop(
                        hm, p_s, n0, tol, max_iter, k_count, s_count)
                except np.linalg.LinAlgError:
                    with pytest.raises(np.linalg.LinAlgError):
                        loop_wmmse(hm, p_s, n0, tol, max_iter, k_count, s_count)
                    return
                rates, total = loop_sum_rate(hm, hm.conj(), n0, k_count, s_count)
                report = sum_rate(hm, hm.conj(), n0, k_count, s_count)
            assert report.per_user_per_subcarrier.tobytes() == rates.tobytes()
            assert report.total_sum_rate == total
            users = hm.reshape(n_t, k_count, s_count).any(axis=0)
            seen.update({"silent"} if (users.any(axis=0) & ~users.all(axis=0)).any() else set())
            seen.update({"binding"} if not all(feasible) else set())
            seen.update({"truncated"} if trace.truncated else set())
            seen.update({"staggered"} if len(set(trace.iterations)) > 1 else set())
            conds.append(cond)

        check()
        assert seen == {"silent", "binding", "truncated", "staggered"}
        # most draws are also checked against the bisection reference
        assert np.mean(np.array(conds) <= WELL_CONDITIONED) >= 0.8

    def test_extreme_budget(self):
        """At p_s = 1e-20 and n0 = 1e-100 the first update's multiplier lies near 2e19,
        past the 1e18 cap where the doubling of the replaced bisection stopped;
        Newton reaches it within budget."""
        hm = random_channel(np.random.default_rng(RNG_SEED), 4, 1, 2)
        p_s = 1e-20
        with np.errstate(all="ignore"):
            precoder, _ = wmmse_fully_digital(hm, p_s, 1e-100, max_iter=5,
                                              n_users=1, n_subcarriers=2)
            _, feasible, cond = assert_matches_loop(hm, p_s, 1e-100, 1e-4, 5, 1, 2)
        assert not all(feasible) and cond <= WELL_CONDITIONED
        for s in range(2):
            assert power(precoder.f_fd[:, s]) <= p_s * (1 + 1e-12)

    def test_reference_trial(self):
        """Reference scale (64 x 64, trials 0-7) against the loop and the bisection
        reference."""
        config = SystemConfig()
        for trial in range(8):
            ch = draw_channel(config, trial)
            _, _, cond = assert_matches_loop(ch.h, per_subcarrier_power_mw(config),
                                             noise_power_mw(config), config.wmmse_tol,
                                             config.wmmse_max_iter, config.n_users,
                                             config.n_subcarriers)
            assert cond <= WELL_CONDITIONED
