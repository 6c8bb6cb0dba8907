"""Fully-digital sum-rate precoding target and performance metrics.

The factorization target is the classical weighted-MMSE precoder: per
sub-carrier, alternate MMSE receive scalars, rate-optimal error weights,
and a power-constrained precoder update until the achievable sum rate
stops improving. All sub-carriers run in lockstep on (S, K, n_t) stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .channel import ChannelSet, SystemConfig


@dataclass
class FullyDigitalPrecoder:
    """Unquantized precoder of shape (n_tx, n_users * n_subcarriers)."""

    f_fd: np.ndarray


def as_matrix(f_fd: Union[FullyDigitalPrecoder, np.ndarray]) -> np.ndarray:
    """The matrix of a WMMSE result; an array passes through as an array."""
    return f_fd.f_fd if isinstance(f_fd, FullyDigitalPrecoder) else np.asarray(f_fd)


@dataclass
class RateReport:
    per_user_per_subcarrier: np.ndarray  # (K, S) in bits/s/Hz
    sum_rate_per_subcarrier_avg: float
    total_sum_rate: float


@dataclass
class WmmseTrace:
    """Per-sub-carrier utility (sum rate) after each alternation step; a
    sub-carrier's step count is the length of its array."""

    utilities: list
    truncated: bool


def _stack(m: np.ndarray, k_count: int, s_count: int) -> np.ndarray:
    """C-contiguous (S, K, n) stack whose [s, k] row is column k * S + s of m.

    Products take these rows as they are (h_k^T) or as transposed views
    (columns f_k), so every stack member reaches BLAS with the strides of
    the column blocks m[:, cols] a per-sub-carrier product would use.
    """
    return np.ascontiguousarray(m.reshape(m.shape[0], k_count, s_count).transpose(2, 1, 0))


def _rates(e: np.ndarray, n0: float) -> np.ndarray:
    """(S, K) rates log2(1 + SINR) of the (S, K, K) gains E[s, k, i] = h_k^T f_i."""
    p = np.abs(e) ** 2
    signal = np.diagonal(p, axis1=1, axis2=2)
    return np.log2(1.0 + signal / (p.sum(axis=2) - signal + n0))


def sum_rate(h: ChannelSet, f: np.ndarray, n0: float) -> RateReport:
    """Achievable rates log2(1 + SINR), aggregated per sub-carrier and in total."""
    if not (math.isfinite(n0) and n0 > 0):
        raise ValueError(f"noise power must be positive and finite, got {n0!r}")
    k_count, s_count = h.n_users, h.n_subcarriers
    e = _stack(h.h, k_count, s_count) @ _stack(f, k_count, s_count).transpose(0, 2, 1)
    rates = np.ascontiguousarray(_rates(e, n0).T)
    total = float(rates.sum())
    return RateReport(
        per_user_per_subcarrier=rates,
        sum_rate_per_subcarrier_avg=total / s_count,
        total_sum_rate=total,
    )


def mse_to_target(f_fd: Union[FullyDigitalPrecoder, np.ndarray],
                  f_rf: np.ndarray, f_bb: np.ndarray) -> float:
    """Squared Frobenius distance between the target and the hybrid product."""
    diff = as_matrix(f_fd) - f_rf @ f_bb
    return float(np.real(np.sum(diff * diff.conj())))


def _precoder_update(ht: np.ndarray, w: np.ndarray, u: np.ndarray,
                     p_s: float) -> np.ndarray:
    """Power-constrained precoder rows f_k^T of a (P, K, n_t) stack of sub-carriers.

    Per sub-carrier solves f_k = (sum_i w_i |u_i|^2 hc_i hc_i^H + mu I)^-1 w_k u_k^* hc_k
    with the smallest mu >= 0 that meets the power budget; the low-rank identity
    (mu I + Hc D Hc^H)^-1 Hc = Hc (mu I + D Hc^H Hc)^-1 keeps it K x K. The eigenpairs
    U diag(lam) U^H of D^1/2 A D^1/2 (A = Hc^H Hc) give the power in closed form,
    P(mu) = sum_j c_j / (mu + lam_j)^2 with c_j = lam_j sum_k |U_kj|^2 w_k, and
    Newton on the concave P^-1/2 - p_s^-1/2 climbs from mu = 0 to the root without
    overshooting (Moré & Sorensen 1983); it stops once a step no longer raises mu,
    at once where mu = 0 meets the budget. One stacked solve at that mu gives the
    precoder. A silent user, whose w_k |u_k|^2 ||h_k||^2 is below the smallest
    normal float (a zero channel column, or a user fading out), gets an identity
    row with a zero right-hand side, so its precoder is zero and the others solve
    the system of the active users.
    """
    hct = ht.conj().transpose(0, 2, 1)
    inner = ht @ hct
    d = w * np.abs(u) ** 2
    silent = d * np.diagonal(inner, axis1=1, axis2=2).real < np.finfo(float).tiny
    d[silent] = 0.0
    w = np.where(silent, 0.0, w)
    rhs = np.zeros(inner.shape, dtype=complex)
    diag = np.arange(ht.shape[1])
    rhs[:, diag, diag] = w * np.conj(u)
    mu = np.zeros(len(ht))
    root = np.sqrt(d)
    lam, vec = np.linalg.eigh(root[:, :, None] * inner * root[:, None, :])
    lam = np.maximum(lam, 0.0)
    c = lam * (np.abs(vec) ** 2 * w[:, :, None]).sum(axis=1)
    lam = np.where(c > 0, lam, np.inf)  # c_j = 0 terms vanish at every mu
    pend = np.flatnonzero((c > 0).any(axis=1))
    for _ in range(100):  # a guard: 15 steps at most in 2,000 random draws
        if not pend.size:
            break
        # Newton's step is P / Q * (sqrt(P / p_s) - 1) with Q = sum c / x^3,
        # x = mu + lam; scaled by m = min(x) as a_2 / a_3 * (sqrt(a_2 / p_s) - m),
        # a_n = sum c (m / x)^n, it stays finite where a user fading out
        # (u_k -> 0) leaves a tiny lam
        x = mu[pend, None] + lam[pend]
        low = x.min(axis=1)
        r = low[:, None] / x
        a2 = (c[pend] * r ** 2).sum(axis=1)
        step = a2 / (c[pend] * r ** 3).sum(axis=1) * (np.sqrt(a2 / p_s) - low)
        up = mu[pend] + step > mu[pend]
        pend = pend[up]
        mu[pend] += step[up]
    eye = np.eye(ht.shape[1])
    system = np.where(silent[:, :, None], eye, mu[:, None, None] * eye + d[:, :, None] * inner)
    ft = (hct @ np.linalg.solve(system, rhs)).transpose(0, 2, 1)
    power = (ft * ft.conj()).reshape(len(ft), -1).sum(axis=1).real
    big = power > p_s * (1 + 1e-9)
    ft[big] *= np.sqrt(p_s / power[big])[:, None, None]
    return ft


def wmmse_fully_digital(h: ChannelSet, p_s: float, n0: float, tol: float = SystemConfig.wmmse_tol,
                        max_iter: int = SystemConfig.wmmse_max_iter
                        ) -> tuple[FullyDigitalPrecoder, WmmseTrace]:
    """Sum-rate precoder via weighted-MMSE alternation, per sub-carrier.

    Initialized from the matched filter at full power, shared equally by
    the users with a nonzero channel on each sub-carrier. All sub-carriers
    alternate in lockstep; each leaves the batch once its relative utility
    change drops below ``tol`` or at ``max_iter``. Utility is the achievable
    sum rate, which is non-decreasing across full iterations.
    """
    if p_s <= 0:
        raise ValueError("per-sub-carrier power must be positive")
    k_count, s_count = h.n_users, h.n_subcarriers
    n_t = h.h.shape[0]
    if k_count > n_t:  # the K x K precoder systems would be singular
        raise ValueError(f"WMMSE needs n_users <= n_tx, got {k_count} users on a channel "
                         f"of shape {h.h.shape}")
    ht = _stack(h.h, k_count, s_count)
    norms = np.linalg.norm(ht, axis=2)
    ft = np.zeros(ht.shape, dtype=complex)  # rows f_k^T
    nz = norms > 0
    share = np.sqrt(p_s / nz.sum(axis=1)[np.nonzero(nz)[0]])  # p_s / active users
    ft[nz] = share[:, None] * ht.conj()[nz] / norms[nz][:, None]
    # Gains E[s, k, i] = h_k^T f_i. The first product takes the matched filter
    # as C-ordered (n_t, K) blocks, as it is built per sub-carrier.
    gains = ht @ np.ascontiguousarray(ft.transpose(0, 2, 1))
    utilities = [[] for _ in range(s_count)]
    prev = np.full(s_count, np.nan)
    run = np.arange(s_count)
    for _ in range(max_iter):
        e = gains[run]
        p = np.abs(e) ** 2
        denom = p.sum(axis=2) + n0
        diag = np.diagonal(e, axis1=1, axis2=2)
        u = np.conj(diag) / denom
        mmse = 1.0 - np.abs(diag) ** 2 / denom
        ft[run] = _precoder_update(ht[run], 1.0 / np.maximum(mmse, 1e-15), u, p_s)
        gains[run] = e = ht[run] @ ft[run].transpose(0, 2, 1)
        util = np.sum(_rates(e, n0), axis=1)
        for s, value in zip(run, util):
            utilities[s].append(float(value))
        done = np.abs(util - prev[run]) <= tol * np.maximum(np.abs(prev[run]), 1.0)
        prev[run] = util
        run = run[~done]
        if not run.size:
            break
    f = ft.transpose(2, 1, 0).reshape(n_t, k_count * s_count)
    return FullyDigitalPrecoder(f_fd=f), WmmseTrace(
        utilities=[np.array(v) for v in utilities], truncated=bool(run.size))
