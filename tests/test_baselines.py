"""Tests for the alternating-minimization baselines and nearest-point quantization."""

import numpy as np
import pytest

from hybridprec import baselines
from hybridprec.alphabets import (
    choose_delta, make_analog_alphabet, make_digital_alphabet, nearest_labels,
)
from hybridprec.baselines import (
    altmin1, altmin2, quantize_baseline, retract, tangent_project, unit_modulus_gradient,
)
from hybridprec.channel import SystemConfig, draw_channel, noise_power_mw, per_subcarrier_power_mw
from hybridprec.hybrid import (
    MAX_STEP_HALVINGS, OUTER_MAX_ITER, OUTER_TOL, InfeasiblePowerError, SolverStats,
    _power_per_subcarrier, nearest_quantize_digital,
)
from hybridprec.wmmse import mse_to_target, sum_rate, wmmse_fully_digital

from membership import is_member

RNG_SEED = 91


@pytest.fixture
def small_config():
    return SystemConfig(n_tx=8, m_rf=3, n_users=2, n_subcarriers=2,
                        total_power_dbm=10.0, seed=RNG_SEED)


class TestAltmin2:
    def test_factorizable_target_reaches_zero(self, small_config):
        rng = np.random.default_rng(RNG_SEED)
        f_rf_true = np.exp(1j * rng.uniform(0, 2 * np.pi, (8, 3)))
        f_bb_true = 0.1 * (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        target = f_rf_true @ f_bb_true
        f_rf, f_bb, trace = altmin2(target, small_config)
        assert trace.objective_per_outer_iter[-1] < 5e-3 * np.linalg.norm(target) ** 2

    def test_unit_modulus_analog(self, small_config):
        rng = np.random.default_rng(RNG_SEED)
        target = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        f_rf, _, _ = altmin2(target, small_config)
        np.testing.assert_allclose(np.abs(f_rf), 1.0, atol=1e-12)

    def test_final_power_within_budget(self, small_config):
        ch = draw_channel(small_config)
        p_s = per_subcarrier_power_mw(small_config)
        target, _ = wmmse_fully_digital(ch, p_s, noise_power_mw(small_config))
        f_rf, f_bb, _ = altmin2(target, small_config)
        powers = _power_per_subcarrier(f_rf, f_bb, small_config.n_users)
        assert np.all(powers <= p_s * (1 + 1e-9))


@pytest.mark.parametrize("altmin", [altmin1, altmin2])
def test_more_rf_chains_than_target_columns_rejected(altmin):
    config = SystemConfig(n_tx=8, m_rf=4, n_users=1, n_subcarriers=2)
    with pytest.raises(ValueError, match="exceeds min\\(n_tx, K\\*S\\)"):
        altmin(np.ones((8, 2), dtype=complex), config)


class TestAltmin1:
    def test_projected_gradient_matches_finite_differences(self):
        """Directional derivatives along random tangents agree with central
        differences of the retracted objective to 1e-5 relative."""
        rng = np.random.default_rng(RNG_SEED)
        target = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        f_bb = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        f_rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 2)))
        grad = tangent_project(unit_modulus_gradient(target, f_rf, f_bb), f_rf)
        h = 1e-5
        for _ in range(5):
            direction = tangent_project(
                rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)), f_rf)
            analytic = float(np.real(np.sum(grad * np.conj(direction))))
            plus = mse_to_target(target, retract(f_rf + h * direction), f_bb)
            minus = mse_to_target(target, retract(f_rf - h * direction), f_bb)
            numeric = (plus - minus) / (2 * h)
            assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-8)

    def test_failed_line_search_stops_the_descent(self, monkeypatch):
        """A retraction that returns the current point makes no step meet the
        Armijo condition: the descent stops there and counts one failure."""
        rng = np.random.default_rng(RNG_SEED)
        target = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        f_bb = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        f_rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 2)))
        monkeypatch.setattr(baselines, "retract", lambda point: f_rf)
        stats = SolverStats()
        assert baselines._manifold_descent(target, f_rf, f_bb, stats) is f_rf
        assert stats.line_search_failures == 1

    def test_converged_design_stops_on_tolerance(self, small_config):
        """A design whose objective settles says so, and its outer count is the
        length of its objective list."""
        target, _ = wmmse_fully_digital(draw_channel(small_config, 0),
                                        per_subcarrier_power_mw(small_config),
                                        noise_power_mw(small_config))
        _, _, trace = altmin1(target, small_config)
        objectives = trace.objective_per_outer_iter
        assert (trace.stop, trace.truncated) == ("tolerance", False)
        assert trace.n_outer == len(objectives) < OUTER_MAX_ITER
        assert abs(objectives[-2] - objectives[-1]) <= OUTER_TOL * objectives[-2]

    def test_capped_design_stops_on_max_iter(self):
        """Desk trial 0 (16x8, 8 sub-carriers) runs to the iteration cap."""
        cfg = SystemConfig(n_tx=16, m_rf=8, n_users=2, n_subcarriers=8)
        target, _ = wmmse_fully_digital(draw_channel(cfg, 0), per_subcarrier_power_mw(cfg),
                                        noise_power_mw(cfg))
        _, _, trace = altmin1(target, cfg)
        assert (trace.stop, trace.truncated) == ("max-iter", True)
        assert trace.n_outer == len(trace.objective_per_outer_iter) == OUTER_MAX_ITER
        assert trace.solver_stats == SolverStats()  # no Armijo search gave up

    def test_tangent_has_no_radial_component(self):
        rng = np.random.default_rng(RNG_SEED)
        point = np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 2)))
        vec = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        tangent = tangent_project(vec, point)
        np.testing.assert_allclose(np.real(tangent * np.conj(point)), 0.0, atol=1e-12)

    def test_unit_modulus_preserved(self, small_config):
        rng = np.random.default_rng(RNG_SEED)
        target = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        f_rf, _, _ = altmin1(target, small_config)
        np.testing.assert_allclose(np.abs(f_rf), 1.0, atol=1e-12)

    def test_objective_improves_from_start(self, small_config):
        ch = draw_channel(small_config)
        target, _ = wmmse_fully_digital(
            ch, per_subcarrier_power_mw(small_config), noise_power_mw(small_config))
        _, _, trace = altmin1(target, small_config)
        assert trace.objective_per_outer_iter[-1] <= trace.objective_per_outer_iter[0] + 1e-12

    def test_at_least_as_good_as_phase_projection_usually(self, small_config):
        """Manifold descent beats plain phase projection on most targets."""
        wins = 0
        n_trials = 20
        for trial in range(n_trials):
            ch = draw_channel(small_config, trial)
            target, _ = wmmse_fully_digital(
                ch, per_subcarrier_power_mw(small_config), noise_power_mw(small_config))
            _, _, t1 = altmin1(target, small_config)
            _, _, t2 = altmin2(target, small_config)
            if t1.objective_per_outer_iter[-1] <= t2.objective_per_outer_iter[-1] * (1 + 1e-9):
                wins += 1
        assert wins >= 0.7 * n_trials


class TestQuantizeBaseline:
    def test_identity_on_alphabet_points(self):
        rng = np.random.default_rng(RNG_SEED)
        analog = make_analog_alphabet(2)
        digital = make_digital_alphabet(2, 1.0)
        f_rf = rng.choice(analog.labels, size=(6, 2))
        f_bb = rng.choice(digital.labels, size=(2, 4))
        fixed_delta_sigma = np.std(np.concatenate([f_bb.real.ravel(), f_bb.imag.ravel()]))
        quantized = quantize_baseline(f_rf, f_bb, analog, 2, p_s=1e9, n_users=2)
        # analog entries survive untouched; digital entries land on a grid of
        # the refit step
        np.testing.assert_array_equal(quantized.f_rf, f_rf)
        assert quantized.delta > 0
        assert fixed_delta_sigma > 0

    def test_step_halves_at_most_eight_times(self):
        """A budget first met at the 8th halving of the step is met; half of
        it, which only a 9th halving could meet, raises, and so does a budget
        that no halving reaches."""
        assert MAX_STEP_HALVINGS == 8
        rng = np.random.default_rng(RNG_SEED)
        analog = make_analog_alphabet(1)
        f_rf = rng.choice(analog.labels, size=(6, 2))
        f_bb = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        fitted = choose_delta(f_bb, 2)
        labels = make_digital_alphabet(2, fitted / 2.0 ** 8)
        last = nearest_labels(f_bb.real, labels) + 1j * nearest_labels(f_bb.imag, labels)
        p_last = _power_per_subcarrier(f_rf, last, 2).max()
        _, delta, halvings = nearest_quantize_digital(f_bb, f_rf, p_last, 2, 2)
        assert delta == fitted / 2.0 ** 8 and halvings == 8
        with pytest.raises(InfeasiblePowerError, match="after 8 step shrinks"):
            nearest_quantize_digital(f_bb, f_rf, p_last / 2, 2, 2)
        with pytest.raises(InfeasiblePowerError):
            quantize_baseline(f_rf, f_bb, analog, 2, p_s=1e-300, n_users=2)

    @pytest.mark.parametrize("levels", [2, 3, 4, 8])
    def test_per_axis_matches_complex_grid_scan(self, levels):
        """Quantizing the real and imaginary parts alike picks the nearest
        point of the L x L complex grid, exact midpoints (zero parts at even L)
        going to the lowest grid index, as an exhaustive scan does."""
        rng = np.random.default_rng(RNG_SEED + levels)
        f_rf = rng.choice(make_analog_alphabet(2).labels, size=(6, 3))
        f_cont = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        f_cont[0, :3] = [0.0, 1.5, 1.5j]  # zero real, imaginary or both parts
        q, delta, _ = nearest_quantize_digital(f_cont, f_rf, p_s=1e9, levels=levels, n_users=2)
        assert delta == choose_delta(f_cont, levels)
        real = make_digital_alphabet(levels, delta).labels
        grid = (real[:, None] + 1j * real[None, :]).ravel()  # real part major
        scan = grid[np.argmin(np.abs(f_cont[..., None] - grid), axis=-1)]
        np.testing.assert_array_equal(q, scan)
        if levels % 2 == 0:  # zero is the midpoint of the two central labels
            low = real[levels // 2 - 1]
            assert q[0, 0] == low + 1j * low
            assert q[0, 1].imag == low and q[0, 2].real == low

    def test_membership_and_power(self, small_config):
        ch = draw_channel(small_config)
        p_s = per_subcarrier_power_mw(small_config)
        target, _ = wmmse_fully_digital(ch, p_s, noise_power_mw(small_config))
        f_rf, f_bb, _ = altmin2(target, small_config)
        analog = make_analog_alphabet(small_config.analog_bits)
        quantized = quantize_baseline(f_rf, f_bb, analog, small_config.quant_levels,
                                      p_s, small_config.n_users)
        assert is_member(quantized.f_rf, analog)
        real_alpha = make_digital_alphabet(small_config.quant_levels,
                                           quantized.delta)
        assert is_member(quantized.f_bb.real, real_alpha)
        assert is_member(quantized.f_bb.imag, real_alpha)
        powers = _power_per_subcarrier(quantized.f_rf, quantized.f_bb,
                                       small_config.n_users)
        assert np.all(powers <= p_s * (1 + 1e-9))

    def test_high_resolution_approaches_unquantized(self, small_config):
        """Generous resolutions reproduce the unquantized sum rate within 1%."""
        cfg = small_config.with_updates(analog_bits=10, quant_levels=64)
        ch = draw_channel(cfg)
        p_s = per_subcarrier_power_mw(cfg)
        n0 = noise_power_mw(cfg)
        target, _ = wmmse_fully_digital(ch, p_s, n0)
        f_rf, f_bb, _ = altmin2(target, cfg)
        unquantized = sum_rate(ch, f_rf @ f_bb, n0).sum_rate_per_subcarrier_avg
        analog = make_analog_alphabet(cfg.analog_bits)
        quantized = quantize_baseline(f_rf, f_bb, analog, cfg.quant_levels, p_s, cfg.n_users)
        achieved = sum_rate(ch, quantized.effective(), n0).sum_rate_per_subcarrier_avg
        assert achieved == pytest.approx(unquantized, rel=0.01)

    def test_rate_improves_with_resolution_on_average(self, small_config):
        """Mean sum rate is non-decreasing in both resolutions (one-SE slack)."""
        n_trials = 10
        n0 = noise_power_mw(small_config)
        p_s = per_subcarrier_power_mw(small_config)

        def mean_rate(bits, levels):
            rates = []
            cfg = small_config.with_updates(analog_bits=bits, quant_levels=levels)
            analog = make_analog_alphabet(bits)
            for trial in range(n_trials):
                ch = draw_channel(cfg, trial)
                target, _ = wmmse_fully_digital(ch, p_s, n0)
                f_rf, f_bb, _ = altmin2(target, cfg)
                q = quantize_baseline(f_rf, f_bb, analog, levels, p_s, cfg.n_users)
                rates.append(sum_rate(ch, q.effective(), n0).sum_rate_per_subcarrier_avg)
            return np.mean(rates), np.std(rates) / np.sqrt(n_trials)

        r_low, se_low = mean_rate(1, 2)
        r_mid, se_mid = mean_rate(1, 8)
        r_hi, se_hi = mean_rate(3, 8)
        assert r_mid >= r_low - (se_low + se_mid)
        assert r_hi >= r_mid - (se_mid + se_hi)

    def test_rejects_non_finite(self):
        analog = make_analog_alphabet(1)
        with pytest.raises(ValueError):
            quantize_baseline(np.array([[np.nan + 0j]]), np.ones((1, 1), dtype=complex),
                              analog, 2, 1.0, 1)

    def test_quantized_altmin_no_better_than_exact_design(self, small_config):
        """Paired over 20 trials at matching resolutions, the quantized
        baseline's distance to the target is no smaller than the exact
        sphere-decoded design's."""
        from hybridprec.hybrid import alternate
        analog = make_analog_alphabet(small_config.analog_bits)
        p_s = per_subcarrier_power_mw(small_config)
        n0 = noise_power_mw(small_config)
        wins = 0
        n_trials = 20
        for trial in range(n_trials):
            ch = draw_channel(small_config, trial)
            target, _ = wmmse_fully_digital(ch, p_s, n0)
            precoder, _ = alternate(target, small_config, "sesd")
            exact_obj = mse_to_target(target, precoder.f_rf, precoder.f_bb)
            f_rf, f_bb, _ = altmin2(target, small_config)
            q = quantize_baseline(f_rf, f_bb, analog, small_config.quant_levels,
                                  p_s, small_config.n_users)
            baseline_obj = mse_to_target(target, q.f_rf, q.f_bb)
            if baseline_obj >= exact_obj - 1e-9:
                wins += 1
        assert wins >= 0.9 * n_trials


class TestAltminExitInvariant:
    def test_exit_objective_no_worse_than_first_iterate(self, small_config):
        for trial in range(5):
            ch = draw_channel(small_config, trial)
            target, _ = wmmse_fully_digital(
                ch, per_subcarrier_power_mw(small_config), noise_power_mw(small_config))
            for fn in (altmin1, altmin2):
                _, _, trace = fn(target, small_config)
                assert trace.objective_per_outer_iter[-1] <= trace.objective_per_outer_iter[0] * (1 + 1e-9)
