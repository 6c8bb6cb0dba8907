"""Tests for scenario configuration, channel generation, and link budgets."""

import sys

import numpy as np
import pytest

from hybridprec.channel import (
    SystemConfig, array_response, draw_channel, fronthaul_accounting, mw_from_dbm,
    noise_power_dbm, path_loss_db, per_subcarrier_power_mw, rng_stream, taps_to_frequency,
)


CHANNEL_CONSTANTS = ("carrier_ghz", "noise_figure_db", "subcarrier_bandwidth_hz", "rician_k_db",
                     "n_taps_minus_one", "distance_range_m", "angle_range_rad")


@pytest.fixture
def paper_config():
    return SystemConfig()


class TestArrayResponse:
    def test_broadside(self):
        np.testing.assert_array_equal(array_response(0.0, 4), np.ones(4, dtype=complex))

    def test_endfire(self):
        """sin(pi/2) = 1 gives alternating signs for two antennas."""
        np.testing.assert_allclose(array_response(np.pi / 2, 2), [1, -1], atol=1e-12)

    def test_unit_norm_squared(self):
        rng = np.random.default_rng(0)
        for angle in rng.uniform(-np.pi / 2, np.pi / 2, size=10):
            v = array_response(angle, 16)
            assert np.linalg.norm(v) ** 2 == pytest.approx(16.0)

    def test_needs_antenna(self):
        with pytest.raises(ValueError):
            array_response(0.0, 0)


class TestPathLoss:
    def test_reference_cell_edge(self):
        """150 m at 28 GHz is about 105 dB."""
        assert path_loss_db(150.0, 28.0) == pytest.approx(104.8, abs=0.1)

    def test_unit_distance_unit_carrier(self):
        assert path_loss_db(1.0, 1.0) == 28.0

    def test_formula_value(self):
        assert path_loss_db(100.0, 28.0) == pytest.approx(100.9431606, abs=1e-5)

    @pytest.mark.parametrize("d,f", [(0.0, 28.0), (-5.0, 28.0), (100.0, 0.0)])
    def test_nonpositive_inputs(self, d, f):
        with pytest.raises(ValueError):
            path_loss_db(d, f)


class TestNoisePower:
    def test_default_scenario(self, paper_config):
        """10 MHz with a 10 dB noise figure lands exactly at -94 dBm."""
        assert noise_power_dbm(paper_config) == -94.0

    def test_unit_bandwidth_no_figure(self, monkeypatch):
        monkeypatch.setattr(SystemConfig, "subcarrier_bandwidth_hz", 1.0)
        monkeypatch.setattr(SystemConfig, "noise_figure_db", 0.0)
        assert noise_power_dbm(SystemConfig()) == -174.0

    def test_twenty_megahertz(self, monkeypatch):
        monkeypatch.setattr(SystemConfig, "subcarrier_bandwidth_hz", 20e6)
        assert noise_power_dbm(SystemConfig()) == pytest.approx(-90.98970004, abs=1e-6)


class TestSystemConfig:
    def test_rf_chain_ordering_enforced(self):
        with pytest.raises(ValueError):
            SystemConfig(n_tx=8, m_rf=8)
        with pytest.raises(ValueError):
            SystemConfig(n_users=9, m_rf=8)

    @pytest.mark.parametrize("setting, message", [
        ({"n_subcarriers": 0}, "sub-carrier"),
        ({"n_users": 0}, "n_users must be in"),
        ({"n_users": -1}, "n_users must be in"),
        ({"quant_levels": 1}, "quant_levels must be in"),
        ({"analog_bits": 0}, "analog_bits must be in"),
        ({"analog_bits": 17}, "analog_bits must be in"),
        ({"seed": -3}, "seed must be in"),
    ], ids=lambda v: "-".join((*v, *(str(v[k]) for k in ("analog_bits", "n_users") if k in v)))
        if isinstance(v, dict) else None)
    def test_out_of_range_setting_rejected(self, setting, message):
        with pytest.raises(ValueError, match=message):
            SystemConfig(**setting)

    @pytest.mark.parametrize("setting", [
        {"quant_levels": 2, "analog_bits": 1, "seed": 0},
        {"analog_bits": 16, "n_users": 1},
    ], ids=["low-ends", "high-ends-and-zeros"])
    def test_range_ends_accepted(self, setting):
        """Each range is closed: its ends, and a zero seed, are valid."""
        config = SystemConfig(**setting)
        assert all(getattr(config, name) == value for name, value in setting.items())

    @pytest.mark.parametrize("setting", [
        {"n_tx": 8.0}, {"m_rf": True}, {"n_subcarriers": np.float64(4.0)},
        {"total_power_dbm": "35"}, {"total_power_dbm": True},
    ], ids=["n_tx-float", "m_rf-bool", "n_subcarriers-numpy-float", "power-string",
            "power-bool"])
    def test_setting_of_wrong_type_rejected(self, setting):
        """An int setting takes integers and a float setting any real number; a
        bool is never accepted."""
        with pytest.raises(ValueError, match=f"{next(iter(setting))} is not a valid"):
            SystemConfig(**setting)

    @pytest.mark.parametrize("setting", [
        {"total_power_dbm": float("nan")}, {"total_power_dbm": float("inf")},
        {"total_power_dbm": -float("inf")}, {"total_power_dbm": 10**400},
        {"total_power_dbm": np.float32("nan")},
    ], ids=["nan", "inf", "minus-inf", "int-past-float", "numpy-nan"])
    def test_non_finite_float_setting_rejected(self, setting):
        """A float setting is a finite real; an integer too large for a float is
        a ValueError too, not an OverflowError."""
        with pytest.raises(ValueError, match=f"{next(iter(setting))} is not a valid"):
            SystemConfig(**setting)

    @pytest.mark.parametrize("removed", ["ep_damping", "ep_max_iter", "ep_tol", "outer_tol",
                                         "outer_max_iter", "bisection_tol", "wmmse_tol",
                                         "wmmse_max_iter", *CHANNEL_CONSTANTS, "n_sym",
                                         "fronthaul_budget_bits_per_symbol"])
    def test_solver_constants_are_not_settings(self, removed):
        """EP's, the alternation's, the μ bisection's and the WMMSE target's tuning
        values, and the channel model, are constants of the code that reads them;
        the update interval and the fronthaul budget, which no design reads, are
        arguments of fronthaul_accounting."""
        with pytest.raises(TypeError, match=removed):
            SystemConfig(**{removed: 0.3})
        with pytest.raises(TypeError, match=removed):
            SystemConfig().with_updates(**{removed: 0.3})

    def test_tolerance_constants_read_on_instances(self):
        """The μ bisection's and the WMMSE target's constants read on the class
        and on every instance."""
        for config in (SystemConfig, SystemConfig()):
            assert (config.bisection_tol, config.wmmse_tol, config.wmmse_max_iter) == (
                1e-2, 1e-4, 200)

    def test_channel_constants_read_on_instances(self):
        """The channel model is fixed: 28 GHz, a 10 dB noise figure, 10 MHz
        sub-carriers, Rician K 10 dB, 4 taps, users at 100-200 m within ±60°."""
        for config in (SystemConfig, SystemConfig()):
            assert tuple(getattr(config, name) for name in CHANNEL_CONSTANTS) == (
                28.0, 10.0, 10e6, 10.0, 3, (100.0, 200.0), (-np.pi / 3, np.pi / 3))

    def test_numpy_integers_and_integer_power_accepted(self):
        cfg = SystemConfig(n_tx=np.int64(16), m_rf=np.int32(4), n_users=np.int64(2),
                           n_subcarriers=np.uint8(4), total_power_dbm=30)
        assert (cfg.n_tx, cfg.m_rf, cfg.total_power_dbm) == (16, 4, 30)
        assert draw_channel(cfg).h.shape == (16, 8)
        assert cfg.with_updates(total_power_dbm=np.float32(20.5)).total_power_dbm == 20.5

    def test_power_split_equally_over_subcarriers(self, paper_config):
        assert per_subcarrier_power_mw(paper_config) == mw_from_dbm(35.0) / 64

    def test_with_updates(self, paper_config):
        updated = paper_config.with_updates(total_power_dbm=50.0)
        assert updated.total_power_dbm == 50.0
        assert paper_config.total_power_dbm == 35.0


class TestDrawChannel:
    def test_reproducible(self):
        cfg = SystemConfig(n_tx=8, m_rf=4, n_users=2, n_subcarriers=4, seed=7)
        a = draw_channel(cfg, trial=3)
        b = draw_channel(cfg, trial=3)
        np.testing.assert_array_equal(a.h, b.h)
        assert not np.array_equal(a.h, draw_channel(cfg, trial=4).h)

    def test_los_dominates_at_large_rician_factor(self, monkeypatch):
        """With a huge Rician factor every column aligns with the array response
        at the user's angle, drawn from its stream after its distance."""
        monkeypatch.setattr(SystemConfig, "rician_k_db", 160.0)
        cfg = SystemConfig(n_tx=8, m_rf=4, n_users=1, n_subcarriers=4, seed=1)
        ch = draw_channel(cfg, trial=0)
        rng = rng_stream(cfg.seed, 0, 0)
        rng.uniform(*cfg.distance_range_m)
        steer = array_response(rng.uniform(*cfg.angle_range_rad), 8)
        for s in range(4):
            col = ch.h[:, s]
            corr = abs(np.vdot(steer, col)) / (np.linalg.norm(steer) * np.linalg.norm(col))
            assert corr > 1 - 1e-6

    def test_single_subcarrier_sums_taps(self):
        """With S=1 the frequency response is the plain tap sum."""
        rng = np.random.default_rng(0)
        taps = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        combined = taps_to_frequency(taps, 1)
        np.testing.assert_allclose(combined[:, 0], taps.sum(axis=0), atol=1e-12)

    def test_frequency_conversion_linear(self):
        rng = np.random.default_rng(1)
        taps = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        np.testing.assert_allclose(
            taps_to_frequency(2.5 * taps, 8), 2.5 * taps_to_frequency(taps, 8), atol=1e-12)

    def test_mean_column_energy(self, monkeypatch):
        """Sample mean of ||H_k[:,s]||^2 matches N_T * beta * (kappa+T)/(kappa+1)
        over many draws (Monte Carlo oracle of the generative model)."""
        monkeypatch.setattr(SystemConfig, "distance_range_m", (150.0, 150.0))
        cfg = SystemConfig(n_tx=8, m_rf=4, n_users=1, n_subcarriers=1, seed=11)
        kappa = 10.0 ** (cfg.rician_k_db / 10.0)
        beta = 10.0 ** (-path_loss_db(150.0, cfg.carrier_ghz) / 10.0)
        expected = cfg.n_tx * beta * (kappa + cfg.n_taps_minus_one) / (kappa + 1)
        total = 0.0
        n_draws = 10_000
        for trial in range(n_draws):
            ch = draw_channel(cfg, trial)
            total += np.linalg.norm(ch.h[:, 0]) ** 2
        assert total / n_draws == pytest.approx(expected, rel=0.03)


# the paper's update interval (symbols) and fronthaul budget (bits per symbol)
N_SYM, BUDGET = 140, 15.0


class TestFronthaulAccounting:
    def test_update_rate(self, paper_config):
        budget = fronthaul_accounting(paper_config, modulation_order=16, iq_bits=12, n_sym=N_SYM,
                                      fronthaul_budget_bits_per_symbol=BUDGET)
        assert budget.precoder_update_bits_per_symbol == pytest.approx(14.63, abs=0.005)

    def test_totals_for_both_level_counts(self, paper_config):
        b2 = fronthaul_accounting(paper_config, 16, 12, N_SYM, BUDGET)
        assert b2.proposed_total == pytest.approx(526.63, abs=0.005)
        b4 = fronthaul_accounting(paper_config.with_updates(quant_levels=4), 16, 12, N_SYM, BUDGET)
        assert b4.proposed_total == pytest.approx(541.26, abs=0.005)

    def test_conventional_load(self, paper_config):
        budget = fronthaul_accounting(paper_config, 16, 12, N_SYM, BUDGET)
        assert budget.conventional_total == 6144.0

    def test_supported_levels_at_budget_breakpoints(self, paper_config):
        def levels(budget):
            return fronthaul_accounting(paper_config, 16, 12, N_SYM, budget).supported_levels
        assert levels(15.0) == 2
        assert levels(30.0) == 4
        # under one bit per real dimension, a zero budget too: a single label
        assert levels(5.0) == levels(0.0) == 1

    @pytest.mark.parametrize("modulation_order, iq_bits", [(1, 12), (16, 0)])
    def test_rejects_bad_signalling_arguments(self, paper_config, modulation_order, iq_bits):
        with pytest.raises(ValueError, match="modulation order"):
            fronthaul_accounting(paper_config, modulation_order, iq_bits, N_SYM, BUDGET)

    @pytest.mark.parametrize("n_sym, budget, message", [
        (0, BUDGET, "n_sym must be in"),
        (-3, BUDGET, "n_sym must be in"),
        (10**400, BUDGET, "n_sym must be in"),
        (N_SYM, -5.0, "fronthaul_budget_bits_per_symbol must be in"),
        (N_SYM, float("nan"), "fronthaul_budget_bits_per_symbol must be in"),
        (N_SYM, float("inf"), "fronthaul_budget_bits_per_symbol must be in"),
        (N_SYM, -float("inf"), "fronthaul_budget_bits_per_symbol must be in"),
        # 2e4 bits per symbol allow 2^1367 labels, more than a float holds
        (N_SYM, 2e4, "max_levels_log2 in \\[0, 1024\\)"),
    ], ids=["n_sym-0", "n_sym-negative", "n_sym-past-float", "budget-negative", "budget-nan", "budget-inf",
            "budget-minus-inf", "budget-past-float"])
    def test_out_of_range_argument_rejected(self, paper_config, n_sym, budget, message):
        with pytest.raises(ValueError, match=message):
            fronthaul_accounting(paper_config, 16, 12, n_sym, budget)

    def test_level_exponent_just_below_float_range_accepted(self, paper_config):
        """The largest level count has fewer digits than Python prints by default."""
        dims = 2.0 * 8 * 2 * 64
        budget = fronthaul_accounting(paper_config, 16, 12, N_SYM,
                                      (sys.float_info.max_exp - 0.5) * dims / N_SYM)
        assert budget.supported_levels == 2 ** (sys.float_info.max_exp - 1)
        assert len(str(budget.supported_levels)) < 4300

    @pytest.mark.parametrize("levels", [2, 4, 8])
    def test_budget_constraint_iff(self, paper_config, levels):
        """log2(L) fits the per-entry budget exactly when the update rate fits
        the fronthaul budget."""
        cfg = paper_config.with_updates(quant_levels=levels)
        budget = fronthaul_accounting(cfg, 16, 12, N_SYM, BUDGET)
        fits_levels = np.log2(levels) <= budget.max_levels_log2
        fits_rate = budget.precoder_update_bits_per_symbol <= BUDGET
        assert fits_levels == fits_rate

    def test_budget_boundary_equality(self):
        """At the exact boundary both sides of the equivalence agree."""
        cfg = SystemConfig(m_rf=8, n_users=2, n_subcarriers=64)
        budget = fronthaul_accounting(cfg, 16, 12, n_sym=128, fronthaul_budget_bits_per_symbol=16.0)
        # 2*log2(2)*8*2*64/128 = 16 exactly
        assert budget.precoder_update_bits_per_symbol == 16.0
        assert budget.max_levels_log2 == 1.0
