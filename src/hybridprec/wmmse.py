"""Fully-digital sum-rate precoding target and performance metrics.

The factorization target is the classical weighted-MMSE precoder: per
sub-carrier, alternate MMSE receive scalars, rate-optimal error weights,
and a power-constrained precoder update until the achievable sum rate
stops improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import ChannelSet


@dataclass
class FullyDigitalPrecoder:
    """Unquantized precoder of shape (n_tx, n_users * n_subcarriers)."""

    f_fd: np.ndarray
    n_users: int
    n_subcarriers: int


@dataclass
class RateReport:
    per_user_per_subcarrier: np.ndarray  # (K, S) in bits/s/Hz
    sum_rate_per_subcarrier_avg: float
    total_sum_rate: float


@dataclass
class WmmseTrace:
    """Per-sub-carrier utility (sum rate) after each alternation step."""

    utilities: list
    iterations: list
    truncated: bool


def _channel_matrix(h: Union[ChannelSet, np.ndarray]) -> np.ndarray:
    return h.h if isinstance(h, ChannelSet) else np.asarray(h)


def _gains(h_s: np.ndarray, f_s: np.ndarray) -> np.ndarray:
    """E[k, i] = h_k^T f_i for one sub-carrier (transpose application)."""
    return h_s.T @ f_s


def sinr(h: Union[ChannelSet, np.ndarray], f: np.ndarray, k: int, s: int,
         n0: float, n_users: int = None, n_subcarriers: int = None) -> float:
    """Signal-to-interference-plus-noise ratio of user k on sub-carrier s."""
    if n0 <= 0:
        raise ValueError("noise power must be positive")
    hm = _channel_matrix(h)
    if isinstance(h, ChannelSet):
        n_users, n_subcarriers = h.n_users, h.n_subcarriers
    hk = hm[:, k * n_subcarriers + s]
    gains = np.array([hk @ f[:, i * n_subcarriers + s] for i in range(n_users)])
    signal = abs(gains[k]) ** 2
    interference = float(np.sum(np.abs(gains) ** 2) - signal)
    return signal / (interference + n0)


def sum_rate(h: Union[ChannelSet, np.ndarray], f: np.ndarray, n0: float,
             n_users: int = None, n_subcarriers: int = None) -> RateReport:
    """Achievable rates log2(1 + SINR), aggregated per sub-carrier and in total."""
    hm = _channel_matrix(h)
    if isinstance(h, ChannelSet):
        n_users, n_subcarriers = h.n_users, h.n_subcarriers
    k_count, s_count = n_users, n_subcarriers
    rates = np.zeros((k_count, s_count))
    for s in range(s_count):
        cols = [k * s_count + s for k in range(k_count)]
        h_s = hm[:, cols]
        f_s = f[:, cols]
        e = _gains(h_s, f_s)
        p = np.abs(e) ** 2
        signal = np.diag(p)
        interference = p.sum(axis=1) - signal
        rates[:, s] = np.log2(1.0 + signal / (interference + n0))
    total = float(rates.sum())
    return RateReport(
        per_user_per_subcarrier=rates,
        sum_rate_per_subcarrier_avg=total / s_count,
        total_sum_rate=total,
    )


def mse_to_target(f_fd: Union[FullyDigitalPrecoder, np.ndarray],
                  f_rf: np.ndarray, f_bb: np.ndarray) -> float:
    """Squared Frobenius distance between the target and the hybrid product."""
    target = f_fd.f_fd if isinstance(f_fd, FullyDigitalPrecoder) else np.asarray(f_fd)
    diff = target - f_rf @ f_bb
    return float(np.real(np.sum(diff * diff.conj())))


def _precoder_update(hc: np.ndarray, w: np.ndarray, u: np.ndarray,
                     p_s: float) -> tuple[np.ndarray, float]:
    """Power-constrained precoder block for one sub-carrier.

    Solves f_k = (sum_i w_i |u_i|^2 hc_i hc_i^H + mu I)^-1 w_k u_k^* hc_k with
    the multiplier bisected so the power budget holds; the low-rank identity
    (mu I + Hc D Hc^H)^-1 Hc = Hc (mu I + D Hc^H Hc)^-1 keeps it K x K.
    """
    k_count = hc.shape[1]
    active = np.abs(u) > 0  # silent users decouple and keep a zero column
    ha = hc[:, active]
    d = (w * np.abs(u) ** 2)[active]
    inner = ha.conj().T @ ha
    coeff = (w * np.conj(u))[active]
    n_active = int(active.sum())

    def solve(mu: float) -> np.ndarray:
        f_s = np.zeros_like(hc)
        core = np.linalg.solve(mu * np.eye(n_active) + d[:, None] * inner, np.diag(coeff))
        f_s[:, active] = ha @ core
        return f_s

    def power(f_s: np.ndarray) -> float:
        return float(np.real(np.sum(f_s * f_s.conj())))

    if n_active == 0:
        return np.zeros_like(hc), 0.0
    f0 = solve(0.0)
    if power(f0) <= p_s:
        return f0, 0.0
    lo, hi = 0.0, 1.0
    while power(solve(hi)) > p_s:
        lo, hi = hi, hi * 2.0
        if hi > 1e18:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if power(solve(mid)) > p_s:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(hi, 1.0):
            break
    f_s = solve(hi)
    if power(f_s) > p_s * (1 + 1e-9):
        f_s *= math.sqrt(p_s / power(f_s))
    return f_s, hi


def wmmse_fully_digital(h: Union[ChannelSet, np.ndarray], p_s: float, n0: float,
                        tol: float = 1e-4, max_iter: int = 200,
                        n_users: int = None, n_subcarriers: int = None
                        ) -> tuple[FullyDigitalPrecoder, WmmseTrace]:
    """Sum-rate precoder via weighted-MMSE alternation, per sub-carrier.

    Initialized from the matched filter at full power; stops when the
    relative utility change drops below ``tol``. Utility is the achievable
    sum rate, which is non-decreasing across full iterations.
    """
    if p_s <= 0:
        raise ValueError("per-sub-carrier power must be positive")
    hm = _channel_matrix(h)
    if isinstance(h, ChannelSet):
        n_users, n_subcarriers = h.n_users, h.n_subcarriers
    k_count, s_count = n_users, n_subcarriers
    n_t = hm.shape[0]
    f = np.zeros((n_t, k_count * s_count), dtype=complex)
    utilities = []
    iterations = []
    truncated = False
    for s in range(s_count):
        cols = [k * s_count + s for k in range(k_count)]
        h_s = hm[:, cols]
        hc = h_s.conj()
        norms = np.linalg.norm(h_s, axis=0)
        f_s = np.zeros((n_t, k_count), dtype=complex)
        nz = norms > 0
        f_s[:, nz] = math.sqrt(p_s / k_count) * hc[:, nz] / norms[nz]
        util_hist = []
        prev = None
        for it in range(1, max_iter + 1):
            e = _gains(h_s, f_s)
            p = np.abs(e) ** 2
            denom = p.sum(axis=1) + n0
            u = np.conj(np.diag(e)) / denom
            mmse = 1.0 - np.abs(np.diag(e)) ** 2 / denom
            w = 1.0 / np.maximum(mmse, 1e-15)
            f_s, _ = _precoder_update(hc, w, u, p_s)
            e = _gains(h_s, f_s)
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
    precoder = FullyDigitalPrecoder(f_fd=f, n_users=k_count, n_subcarriers=s_count)
    return precoder, WmmseTrace(utilities=utilities, iterations=iterations, truncated=truncated)
