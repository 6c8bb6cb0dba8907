"""Scenario configuration, multi-tap Rician channel generation, and link budgets."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np


def has_setting_type(kind: str, value) -> bool:
    """Whether ``value`` is of a setting's declared type, the annotation's string: "int"
    takes an integer (numpy's too), "float" any real a float holds finitely (no NaN, no
    infinity, no integer past the float range) and "tuple" a pair of those; no bool."""
    if kind == "tuple":
        return (isinstance(value, tuple) and len(value) == 2
                and all(has_setting_type("float", v) for v in value))
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind == "int" else numbers.Real):
        return False
    try:  # math.isfinite overflows on an integer past the float range
        return kind == "int" or math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class SystemConfig:
    """All scenario constants for one simulated downlink."""

    n_tx: int = 64
    m_rf: int = 8
    n_users: int = 2
    n_subcarriers: int = 64
    analog_bits: int = 1
    quant_levels: int = 2
    total_power_dbm: float = 35.0
    carrier_ghz: float = 28.0
    noise_figure_db: float = 10.0
    subcarrier_bandwidth_hz: float = 10e6
    rician_k_db: float = 10.0
    n_taps_minus_one: int = 3
    distance_range_m: tuple = (100.0, 200.0)
    angle_range_rad: tuple = (-np.pi / 3, np.pi / 3)
    n_sym: int = 140
    fronthaul_budget_bits_per_symbol: float = 15.0
    bisection_tol: float = 1e-2
    wmmse_tol: float = 1e-4
    wmmse_max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if not has_setting_type(f.type, getattr(self, f.name)):
                raise ValueError(f"{f.name} is not a valid {f.type} setting: {getattr(self, f.name)!r}")
        if not self.n_users <= self.m_rf < self.n_tx:
            raise ValueError(
                f"need n_users <= m_rf < n_tx, got K={self.n_users}, "
                f"M_T={self.m_rf}, N_T={self.n_tx}"
            )
        if self.n_subcarriers < 1:
            raise ValueError("need at least one sub-carrier")
        if self.subcarrier_bandwidth_hz <= 0 or self.carrier_ghz <= 0:
            raise ValueError("bandwidth and carrier frequency must be positive")
        if self.n_taps_minus_one < 0:
            raise ValueError("tap count cannot be negative")
        if self.wmmse_max_iter < 1:
            raise ValueError("iteration caps must be at least 1")
        # the linear values of the dB quantities the channel and the designs use
        near_gain, far_gain = (mw_from_dbm(-path_loss_db(d, self.carrier_ghz))
                               for d in (min(self.distance_range_m), max(self.distance_range_m)))
        for what, value, positive in (
                ("total power (total_power_dbm)", per_subcarrier_power_mw(self), True),
                ("noise power (noise_figure_db, subcarrier_bandwidth_hz)", noise_power_mw(self), True),
                ("Rician K (rician_k_db)", mw_from_dbm(self.rician_k_db), False),
                ("path gain at the near end of distance_range_m", near_gain, False),
                ("path gain at the far end of distance_range_m", far_gain, True)):
            if not math.isfinite(value) or (positive and value <= 0):
                raise ValueError(f"{what} is {value:g} in linear units, out of range")

    def with_updates(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)


@dataclass
class ChannelSet:
    """Frequency-domain channel H of shape (n_tx, n_users * n_subcarriers)."""

    h: np.ndarray
    user_angles_rad: np.ndarray
    n_users: int
    n_subcarriers: int


@dataclass(frozen=True)
class LinkBudget:
    data_bits_per_symbol: float
    precoder_update_bits_per_symbol: float
    proposed_total: float
    conventional_total: float
    max_levels_log2: float


def mw_from_dbm(dbm: float) -> float:
    """10^(dbm/10); infinite where that overflows a float."""
    try:
        return 10.0 ** (dbm / 10.0)
    except OverflowError:
        return math.inf


def per_subcarrier_power_mw(config: SystemConfig) -> float:
    """Per-sub-carrier transmit budget in mW: the total split equally over the sub-carriers."""
    return mw_from_dbm(config.total_power_dbm) / config.n_subcarriers


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, *path).

    The same key always yields the same stream, so draws are reproducible
    regardless of which worker executes them.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def array_response(angle: float, n: int) -> np.ndarray:
    """Uniform-linear-array response at half-wavelength spacing."""
    if n < 1:
        raise ValueError("need at least one antenna")
    return np.exp(1j * np.pi * np.arange(n) * np.sin(angle))


def path_loss_db(distance_m: float, carrier_ghz: float) -> float:
    """Urban micro path loss: 22 log10(d/1m) + 28 + 20 log10(f_c/1GHz)."""
    if distance_m <= 0 or carrier_ghz <= 0:
        raise ValueError("distance and carrier frequency must be positive")
    return 22.0 * math.log10(distance_m) + 28.0 + 20.0 * math.log10(carrier_ghz)


def noise_power_dbm(config: SystemConfig) -> float:
    """Thermal noise per sub-carrier: -174 dBm/Hz + bandwidth + noise figure."""
    return -174.0 + 10.0 * math.log10(config.subcarrier_bandwidth_hz) + config.noise_figure_db


def noise_power_mw(config: SystemConfig) -> float:
    return mw_from_dbm(noise_power_dbm(config))


def taps_to_frequency(taps: np.ndarray, n_subcarriers: int) -> np.ndarray:
    """Combine time-domain taps (n_taps, n) into per-sub-carrier columns (n, S).

    Column s is sum_l taps[l] * exp(-2j*pi*l*s/S); linear in the taps.
    """
    taps = np.asarray(taps)
    n_taps = taps.shape[0]
    ell = np.arange(n_taps)[:, None]
    s = np.arange(n_subcarriers)[None, :]
    twiddle = np.exp(-2j * np.pi * ell * s / n_subcarriers)
    return taps.T @ twiddle


def draw_channel(config: SystemConfig, trial: int = 0) -> ChannelSet:
    """Draw one multi-user frequency-selective Rician channel.

    Per user: LoS tap along the array response, plus i.i.d. Rayleigh excess
    taps, all scaled by the linear path gain. Each (trial, user) pair gets
    its own stream, so results do not depend on evaluation order.
    """
    kappa = 10.0 ** (config.rician_k_db / 10.0)
    n_t, s_count = config.n_tx, config.n_subcarriers
    t_taps = config.n_taps_minus_one
    h = np.empty((n_t, config.n_users * s_count), dtype=complex)
    angles = np.empty(config.n_users)
    for k in range(config.n_users):
        rng = rng_stream(config.seed, trial, k)
        d = rng.uniform(*config.distance_range_m)
        phi = rng.uniform(*config.angle_range_rad)
        beta = 10.0 ** (-path_loss_db(d, config.carrier_ghz) / 10.0)
        taps = np.empty((t_taps + 1, n_t), dtype=complex)
        taps[0] = math.sqrt(kappa / (kappa + 1)) * math.sqrt(beta) * array_response(phi, n_t)
        if t_taps:
            iid = (rng.standard_normal((t_taps, n_t)) + 1j * rng.standard_normal((t_taps, n_t))) / np.sqrt(2)
            taps[1:] = math.sqrt(beta / (kappa + 1)) * iid
        h[:, k * s_count:(k + 1) * s_count] = taps_to_frequency(taps, s_count)
        angles[k] = phi
    return ChannelSet(h=h, user_angles_rad=angles, n_users=config.n_users,
                      n_subcarriers=s_count)


def fronthaul_accounting(config: SystemConfig, modulation_order: int, iq_bits: int) -> LinkBudget:
    """Fronthaul load of precoder-plus-data signaling versus precoded streams.

    The per-symbol precoder update cost spreads 2 log2(L) bits per digital
    entry over n_sym symbols; the conventional alternative ships quantized
    I/Q samples of every precoded stream.
    """
    if modulation_order < 2 or iq_bits < 1:
        raise ValueError("modulation order and I/Q resolution must be positive")
    m_rf, k, s = config.m_rf, config.n_users, config.n_subcarriers
    update = 2.0 * math.log2(config.quant_levels) * m_rf * k * s / config.n_sym
    data = k * s * math.log2(modulation_order)
    max_levels_log2 = config.fronthaul_budget_bits_per_symbol * config.n_sym / (2.0 * m_rf * k * s)
    return LinkBudget(
        data_bits_per_symbol=data,
        precoder_update_bits_per_symbol=update,
        proposed_total=data + update,
        conventional_total=float(s * m_rf * iq_bits),
        max_levels_log2=max_levels_log2,
    )


def supported_levels(config: SystemConfig) -> int:
    """Largest power-of-two label count per real dimension within the budget."""
    budget = fronthaul_accounting(config, modulation_order=4, iq_bits=12).max_levels_log2
    if budget < 1:
        return 1
    return 2 ** int(math.floor(budget))
