"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities.

Criteria pinned here (tolerances included):
  1  sphere decoder exactly matches enumeration on 500 instances, < 60 s
  2  EP within 5% of the exact objective on >= 90% of 200 instances
  3  reference-scale convergence in <= 25 outer iterations, monotone exact
     trace, exact final MSE below message-passing final MSE
  4  mean sum-rate ordering SD > EP > both quantized AltMin baselines; at
     reference scale the exact design with ideal digital resolution lands
     within 20% of the 18.40 bps/Hz level
  5  fronthaul accounting reproduces 14.63 / 526.63 / 541.26 / 6144 and the
     supported-level breakpoints L=2 at 15 and L=4 at 30 bits/symbol
  6  path loss 104.8 +/- 0.1 dB at (150 m, 28 GHz); noise power -94 dBm exact
  7  exact-solver time grows >= 5x from 4 to 8 RF chains; message-passing
     time varies <= 2x across {4, 6, 8}
  8  single-user WMMSE matches the matched-filter rate to 1e-6; utility
     trace monotone on 100 instances
  9  invariant suite: label membership, per-sub-carrier power, stacked-real
     norm preservation (1e-12), manifold gradient check (1e-5), byte-identical
     replay at any parallelism
 10  mean rate non-decreasing in quantizer levels (b=1) and phase bits
     (L=32) within one standard error; nearest-point analog within 5% of the
     message-passing design at b=2, L=32 at reference scale
"""

import time

import numpy as np

from hybridprec.alphabets import (
    make_analog_alphabet, make_digital_alphabet,
)
from hybridprec.baselines import (
    altmin1, altmin2, quantize_baseline, retract, tangent_project,
    unit_modulus_gradient,
)
from hybridprec.channel import (
    ChannelSet, SystemConfig, draw_channel, fronthaul_accounting, noise_power_dbm,
    noise_power_mw, path_loss_db, per_subcarrier_power_mw,
)
from hybridprec.detect import (
    brute_force_ml, ep_solve, prepare_triangular, realify, residual_norm_sq,
    sesd_solve,
)
from hybridprec.harness import (
    DESK_CONFIG, ExperimentSpec, emit_csv, run_experiment, runtime_benchmark,
)
from hybridprec.hybrid import alternate
from hybridprec.wmmse import mse_to_target, sum_rate, wmmse_fully_digital

from membership import is_member

PAPER_CONFIG = SystemConfig()  # 64 antennas, 8 chains, 2 users, 64 sub-carriers


def _report(criterion, passed, detail):
    print(f"\n{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, detail


def _mixed_instance(rng, index, m):
    """Lattice point plus residual at one of four noise scales."""
    sigma = (0.25, 0.5, 1.0, 1.5)[index % 4]
    n = m + 2
    if index % 2 == 0:
        alphabet = make_analog_alphabet(int(rng.choice([1, 2])))
        g = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    else:
        alphabet = make_digital_alphabet(int(rng.choice([2, 4])),
                                         float(rng.uniform(0.5, 2.0)))
        g = rng.standard_normal((n, m))
        noise = rng.standard_normal(n)
    z_true = rng.choice(alphabet.labels, size=m)
    return g @ z_true + sigma * noise, g, alphabet


class TestCriterion1OracleExactness:
    def test_sphere_decoder_equals_enumeration(self):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        worst = 0.0
        for i in range(500):
            m = int(rng.integers(2, 5))
            c, g, alphabet = _mixed_instance(rng, i, m)
            exact = brute_force_ml(c, g, alphabet)
            decoded = sesd_solve(prepare_triangular(g, c, alphabet), alphabet)
            worst = max(worst, abs(residual_norm_sq(c, g, decoded.z) - exact.objective))
        elapsed = time.perf_counter() - t0
        _report(1, worst <= 1e-10 and elapsed < 60.0,
                f"500 instances, worst objective gap {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2EpNearOptimality:
    def test_ep_within_five_percent(self):
        rng = np.random.default_rng(1002)
        hits = 0
        for i in range(200):
            c, g, alphabet = _mixed_instance(rng, i, m=4)
            exact = sesd_solve(prepare_triangular(g, c, alphabet), alphabet)
            approx = ep_solve(c, g, alphabet)
            if approx.objective <= 1.05 * exact.objective + 1e-12:
                hits += 1
        _report(2, hits >= 180, f"EP within 5% of exact on {hits}/200 instances")


class TestCriterion3Convergence:
    def test_reference_scale_single_draw(self):
        channel = draw_channel(PAPER_CONFIG, 0)
        p_s = per_subcarrier_power_mw(PAPER_CONFIG)
        n0 = noise_power_mw(PAPER_CONFIG)
        target, _ = wmmse_fully_digital(channel, p_s, n0)
        _, sd_trace = alternate(target, PAPER_CONFIG, "sesd")
        _, ep_trace = alternate(target, PAPER_CONFIG, "ep")
        sd_obj = sd_trace.objective_per_outer_iter
        ep_obj = ep_trace.objective_per_outer_iter
        monotone = all(a >= b - 1e-6 for a, b in zip(sd_obj, sd_obj[1:]))
        ok = (not sd_trace.truncated and not ep_trace.truncated
              and len(sd_obj) <= 25 and len(ep_obj) <= 25
              and monotone and sd_obj[-1] < ep_obj[-1])
        _report(3, ok,
                f"SD {len(sd_obj)} iters (MSE {sd_obj[-1]:.2f}), "
                f"EP {len(ep_obj)} iters (MSE {ep_obj[-1]:.2f}), "
                f"SD trace monotone: {monotone}")


class TestCriterion4SumRateOrdering:
    def test_desk_scale_ordering(self):
        """Desk preset at 50 dBm, ordering of trial means (20 trials)."""
        config = SystemConfig(**DESK_CONFIG).with_updates(total_power_dbm=50.0, seed=42)
        n0 = noise_power_mw(config)
        p_s = per_subcarrier_power_mw(config)
        analog = make_analog_alphabet(config.analog_bits)
        rates = {"sd": [], "ep": [], "am1q": [], "am2q": []}
        for trial in range(20):
            channel = draw_channel(config, trial)
            target, _ = wmmse_fully_digital(channel, p_s, n0)
            for key, solver in (("sd", "sesd"), ("ep", "ep")):
                precoder, _ = alternate(target, config, solver)
                rates[key].append(
                    sum_rate(channel, precoder.effective(), n0).sum_rate_per_subcarrier_avg)
            for key, fn in (("am1q", altmin1), ("am2q", altmin2)):
                f_rf, f_bb, _ = fn(target, config)
                quantized = quantize_baseline(f_rf, f_bb, analog, config.quant_levels,
                                              p_s, config.n_users)
                rates[key].append(
                    sum_rate(channel, quantized.effective(), n0).sum_rate_per_subcarrier_avg)
        means = {k: float(np.mean(v)) for k, v in rates.items()}
        ok = (means["sd"] > means["ep"]
              and means["ep"] > means["am2q"] and means["ep"] > means["am1q"])
        _report(4, ok,
                "mean rates (bps/Hz): "
                + ", ".join(f"{k}={v:.2f}" for k, v in means.items()))

    def test_reference_scale_level(self):
        """Reference scale at 50 dBm: the exact design with one-bit phases and
        ideal digital resolution lands within 20% of 18.40 bps/Hz (20 trials)."""
        config = PAPER_CONFIG.with_updates(total_power_dbm=50.0, seed=7)
        n0 = noise_power_mw(config)
        p_s = per_subcarrier_power_mw(config)
        rates = []
        for trial in range(20):
            channel = draw_channel(config, trial)
            target, _ = wmmse_fully_digital(channel, p_s, n0)
            precoder, _ = alternate(target, config, "sesd", digital_method="ls")
            rates.append(
                sum_rate(channel, precoder.effective(), n0).sum_rate_per_subcarrier_avg)
        mean = float(np.mean(rates))
        ok = 0.8 * 18.40 <= mean <= 1.2 * 18.40
        _report(4, ok, f"reference-scale mean {mean:.2f} bps/Hz "
                       f"(band [{0.8 * 18.40:.2f}, {1.2 * 18.40:.2f}])")


class TestCriterion5FronthaulAccounting:
    def test_reported_values(self):
        # 140 symbols per precoder update, 15 or 30 fronthaul bits per symbol
        budget2 = fronthaul_accounting(PAPER_CONFIG, modulation_order=16, iq_bits=12, n_sym=140,
                                       fronthaul_budget_bits_per_symbol=15.0)
        budget4 = fronthaul_accounting(PAPER_CONFIG.with_updates(quant_levels=4), 16, 12, 140, 15.0)
        levels15 = budget2.supported_levels
        levels30 = fronthaul_accounting(PAPER_CONFIG, 16, 12, 140, 30.0).supported_levels
        checks = {
            "R_update=14.63": round(budget2.precoder_update_bits_per_symbol, 2) == 14.63,
            "B_prop(L=2)=526.63": round(budget2.proposed_total, 2) == 526.63,
            "B_prop(L=4)=541.26": round(budget4.proposed_total, 2) == 541.26,
            "B_conv=6144": round(budget2.conventional_total, 2) == 6144.0,
            "L=2 at 15 b/sym": levels15 == 2,
            "L=4 at 30 b/sym": levels30 == 4,
        }
        _report(5, all(checks.values()),
                "; ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()))


class TestCriterion6LinkBudgetConstants:
    def test_path_loss_and_noise(self):
        pl = path_loss_db(150.0, 28.0)
        noise = noise_power_dbm(PAPER_CONFIG)
        ok = abs(pl - 104.8) <= 0.1 and noise == -94.0
        _report(6, ok, f"path loss {pl:.3f} dB, noise power {noise:.1f} dBm")


class TestCriterion7RuntimeTrend:
    def test_runtime_scaling(self):
        table = runtime_benchmark([4, 6, 8], SystemConfig(**DESK_CONFIG), n_trials=20)
        times = {(r["scheme"], r["m_rf"]): r["mean_seconds"] for r in table}
        sd_ratio = times[("sd-hybrid", 8)] / times[("sd-hybrid", 4)]
        ep_times = [times[("ep-hybrid", m)] for m in (4, 6, 8)]
        ep_spread = max(ep_times) / min(ep_times)
        ok = sd_ratio >= 5.0 and ep_spread <= 2.0
        _report(7, ok,
                f"SD time ratio 8/4 = {sd_ratio:.1f} (need >= 5), "
                f"EP spread = {ep_spread:.2f} (need <= 2)")


class TestCriterion8WmmseSanity:
    def test_matched_filter_and_monotonicity(self):
        rng = np.random.default_rng(1008)
        h = (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))) / np.sqrt(2)
        p_s, n0 = 2.0, 0.4
        precoder, _ = wmmse_fully_digital(ChannelSet(h, 1, 1), p_s, n0)
        achieved = sum_rate(ChannelSet(h, 1, 1), precoder.f_fd, n0).total_sum_rate
        closed_form = float(np.log2(1 + p_s * np.linalg.norm(h) ** 2 / n0))
        mrt_ok = abs(achieved - closed_form) <= 1e-6 * closed_form
        monotone = True
        for _ in range(100):
            hk = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
            _, trace = wmmse_fully_digital(ChannelSet(hk, 2, 1), 1.5, 0.1)
            for u in trace.utilities:
                if not np.all(np.diff(u) >= -1e-9 * np.maximum(np.abs(u[:-1]), 1.0)):
                    monotone = False
        _report(8, mrt_ok and monotone,
                f"MRT gap {abs(achieved - closed_form):.2e} (rate {achieved:.4f}), "
                f"100-instance monotone: {monotone}")


class TestCriterion9InvariantSuite:
    def test_all_structural_invariants(self, tmp_path):
        config = SystemConfig(n_tx=8, m_rf=3, n_users=2, n_subcarriers=2,
                              total_power_dbm=10.0, seed=9)
        channel = draw_channel(config)
        p_s = per_subcarrier_power_mw(config)
        target, _ = wmmse_fully_digital(channel, p_s, noise_power_mw(config))
        checks = {}

        precoder, trace = alternate(target, config, "sesd", record_iterates=True)
        analog = make_analog_alphabet(config.analog_bits)
        member_ok = power_ok = True
        for snap in trace.iterates:
            real_alpha = make_digital_alphabet(config.quant_levels, snap["delta"])
            member_ok &= is_member(snap["f_rf"], analog)
            member_ok &= is_member(snap["f_bb"].real, real_alpha)
            member_ok &= is_member(snap["f_bb"].imag, real_alpha)
            eff = snap["f_rf"] @ snap["f_bb"]
            for s in range(config.n_subcarriers):
                power = sum(np.linalg.norm(eff[:, k * 2 + s]) ** 2 for k in range(2))
                power_ok &= power <= p_s * (1 + config.bisection_tol) + 1e-12
        checks["membership"] = member_ok
        checks["power"] = power_ok

        rng = np.random.default_rng(1009)
        norm_ok = True
        for _ in range(50):
            d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            d_r, r_r = realify(d, r)
            z_r = np.concatenate([z.real, z.imag])
            gap = abs(residual_norm_sq(d, r, z) - float(np.sum((d_r - r_r @ z_r) ** 2)))
            norm_ok &= gap <= 1e-12 * max(residual_norm_sq(d, r, z), 1.0)
        checks["realify-norm"] = norm_ok

        grad_ok = True
        t4 = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        f_bb4 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f_rf4 = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 2)))
        grad = tangent_project(unit_modulus_gradient(t4, f_rf4, f_bb4), f_rf4)
        h = 1e-5
        for _ in range(5):
            direction = tangent_project(
                rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)), f_rf4)
            analytic = float(np.real(np.sum(grad * np.conj(direction))))
            plus = mse_to_target(t4, retract(f_rf4 + h * direction), f_bb4)
            minus = mse_to_target(t4, retract(f_rf4 - h * direction), f_bb4)
            numeric = (plus - minus) / (2 * h)
            grad_ok &= abs(numeric - analytic) <= 1e-5 * max(abs(analytic), 1e-3)
        checks["gradient"] = grad_ok

        spec = ExperimentSpec(
            name="replay", base=config, schemes=["ep-hybrid", "fully-digital"],
            n_trials=2, seed=13, outputs=["sum_rate_avg", "mse"],
        )
        p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit_csv(run_experiment(spec, parallelism=1, record_timing=False), p1)
        emit_csv(run_experiment(spec, parallelism=3, record_timing=False), p2)
        checks["replay"] = p1.read_bytes() == p2.read_bytes()

        _report(9, all(checks.values()),
                "; ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()))


class TestSupplementarySweepTrends:
    """Trend-only checks for the RF-chain and sub-carrier sweeps (the spec
    ties no point values to these figures)."""

    def test_rate_grows_with_rf_chains(self):
        base = SystemConfig(n_tx=16, m_rf=4, n_users=2, n_subcarriers=4, seed=0)
        stats = []
        for m_rf in (4, 6, 8):
            cfg = base.with_updates(m_rf=m_rf)
            n0 = noise_power_mw(cfg)
            p_s = per_subcarrier_power_mw(cfg)
            rates = []
            for trial in range(10):
                channel = draw_channel(cfg, trial)
                target, _ = wmmse_fully_digital(channel, p_s, n0)
                precoder, _ = alternate(target, cfg, "ep")
                rates.append(
                    sum_rate(channel, precoder.effective(), n0).sum_rate_per_subcarrier_avg)
            stats.append((float(np.mean(rates)), float(np.std(rates) / np.sqrt(10))))
        ok = all(b >= a - (sa + sb) for (a, sa), (b, sb) in zip(stats, stats[1:]))
        print(f"\nrf-chain sweep means: {[round(m, 2) for m, _ in stats]}")
        assert ok

    def test_per_subcarrier_rate_falls_with_more_subcarriers(self):
        """With a fixed total power, the per-sub-carrier rate drops across the
        sweep while the summed rate keeps growing."""
        base = SystemConfig(n_tx=16, m_rf=4, n_users=2, n_subcarriers=4, seed=0)
        avg_stats, tot_means = [], []
        for s in (2, 4, 8):
            cfg = base.with_updates(n_subcarriers=s)
            n0 = noise_power_mw(cfg)
            p_s = per_subcarrier_power_mw(cfg)
            avg, tot = [], []
            for trial in range(10):
                channel = draw_channel(cfg, trial)
                target, _ = wmmse_fully_digital(channel, p_s, n0)
                precoder, _ = alternate(target, cfg, "ep")
                report = sum_rate(channel, precoder.effective(), n0)
                avg.append(report.sum_rate_per_subcarrier_avg)
                tot.append(report.total_sum_rate)
            avg_stats.append((float(np.mean(avg)), float(np.std(avg) / np.sqrt(10))))
            tot_means.append(float(np.mean(tot)))
        (first, se_first), (last, se_last) = avg_stats[0], avg_stats[-1]
        print(f"\nsub-carrier sweep: avg {[round(m, 2) for m, _ in avg_stats]}, "
              f"total {[round(t, 1) for t in tot_means]}")
        assert last <= first + (se_first + se_last)
        assert all(b > a for a, b in zip(tot_means, tot_means[1:]))


class TestCriterion10ResolutionTrends:
    def test_rate_trends_and_nearest_point_gap(self):
        small = SystemConfig(n_tx=16, m_rf=4, n_users=2, n_subcarriers=4, seed=0)
        n_trials = 20

        def mean_rate(bits, levels):
            cfg = small.with_updates(analog_bits=bits, quant_levels=levels)
            n0 = noise_power_mw(cfg)
            p_s = per_subcarrier_power_mw(cfg)
            rates = []
            for trial in range(n_trials):
                channel = draw_channel(cfg, trial)
                target, _ = wmmse_fully_digital(channel, p_s, n0)
                precoder, _ = alternate(target, cfg, "ep")
                rates.append(
                    sum_rate(channel, precoder.effective(), n0).sum_rate_per_subcarrier_avg)
            return float(np.mean(rates)), float(np.std(rates) / np.sqrt(n_trials))

        level_stats = [mean_rate(1, levels) for levels in (2, 4, 8, 32)]
        levels_ok = all(b_mean >= a_mean - (a_se + b_se)
                        for (a_mean, a_se), (b_mean, b_se) in zip(level_stats, level_stats[1:]))
        bit_stats = [mean_rate(bits, 32) for bits in (1, 2, 3)]
        bits_ok = all(b_mean >= a_mean - (a_se + b_se)
                      for (a_mean, a_se), (b_mean, b_se) in zip(bit_stats, bit_stats[1:]))

        # nearest-point analog vs message-passing analog at high digital
        # resolution, reference geometry
        ref = PAPER_CONFIG.with_updates(analog_bits=2, quant_levels=32)
        n0 = noise_power_mw(ref)
        p_s = per_subcarrier_power_mw(ref)
        ep_rates, np_rates = [], []
        for trial in range(20):
            channel = draw_channel(ref, trial)
            target, _ = wmmse_fully_digital(channel, p_s, n0)
            full_ep, _ = alternate(target, ref, "ep")
            ep_rates.append(
                sum_rate(channel, full_ep.effective(), n0).sum_rate_per_subcarrier_avg)
            np_analog, _ = alternate(target, ref, "ep", analog_method="np",
                                     digital_method="ep")
            np_rates.append(
                sum_rate(channel, np_analog.effective(), n0).sum_rate_per_subcarrier_avg)
        ep_mean, np_mean = float(np.mean(ep_rates)), float(np.mean(np_rates))
        gap = abs(ep_mean - np_mean) / ep_mean
        gap_ok = gap <= 0.05

        _report(10, levels_ok and bits_ok and gap_ok,
                f"level means {[round(m, 2) for m, _ in level_stats]}, "
                f"bit means {[round(m, 2) for m, _ in bit_stats]}, "
                f"NP-analog gap at b=2/L=32: {100 * gap:.1f}% (need <= 5%)")
