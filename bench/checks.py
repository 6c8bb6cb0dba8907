"""Output checks made apart from the package.

Each check recomputes what it needs from the design's matrices with its own
code (label sets, power, Frobenius distance, rates, row optima) and raises
CheckFailed on a violation; none compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

LABEL_TOL = 1e-9        # distance of a label index from an integer
MATCH_RTOL = 1e-9       # own recomputation against the package's value
ROW_GAP_TOL = 1e-9      # relative gap an exact analog row may show
ENUMERATION_GUARD = 1 << 16


class CheckFailed(Exception):
    """A design output violates a constraint or disagrees with its own report."""


@dataclass
class Design:
    """One hybrid design and what it was asked to meet."""

    target: Optional[np.ndarray]  # F_FD, (n_tx, K*S); None when not given to the design
    f_rf: np.ndarray
    f_bb: np.ndarray
    delta: float                # NaN for a continuous digital precoder
    analog_bits: int
    levels: int
    n_users: int
    p_s: float
    bisection_tol: float
    analog_method: str          # method that produced F_RF: "sesd", "ep" or "np"
    dynamic: bool = False
    switch: Optional[np.ndarray] = None
    objectives: Optional[list] = None   # AlternateTrace.objective_per_outer_iter


def _close(a: float, b: float, rtol: float = MATCH_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_analog(f_rf: np.ndarray, bits: int, dynamic: bool = False,
                 switch: Optional[np.ndarray] = None) -> None:
    """Unit-modulus entries at multiples of 2*pi/2^bits (or 0 for a dynamic design)."""
    entries = np.asarray(f_rf).ravel()
    on = entries != 0 if dynamic else np.ones(entries.shape, dtype=bool)
    if not np.all(np.isfinite(entries)):
        raise CheckFailed("analog precoder has non-finite entries")
    mod_err = np.abs(np.abs(entries[on]) - 1.0)
    if mod_err.size and mod_err.max() > LABEL_TOL:
        raise CheckFailed(f"analog entry off the unit circle by {mod_err.max():.3e}")
    steps = np.angle(entries[on]) * (2 ** bits) / (2 * math.pi)
    step_err = np.abs(steps - np.round(steps))
    if step_err.size and step_err.max() > LABEL_TOL:
        raise CheckFailed(f"analog phase off the {bits}-bit grid by {step_err.max():.3e} steps")
    if not dynamic:
        return
    if switch is None:
        raise CheckFailed("dynamic design without a switch matrix")
    if not np.all((switch == 0) | (switch == 1)):
        raise CheckFailed("switch entries outside {0, 1}")
    if not np.array_equal(switch != 0, np.asarray(f_rf) != 0):
        raise CheckFailed("analog support differs from the switch matrix")
    columns = [tuple(col) for col in switch.T]
    if any(not any(col) for col in columns):
        raise CheckFailed("switch has an all-zero column")
    if len(set(columns)) != len(columns):
        raise CheckFailed("switch has repeated columns")


def check_digital_grid(f_bb: np.ndarray, levels: int, delta: float) -> None:
    """Real and imaginary parts on delta * (i - (L-1)/2), i = 0..L-1."""
    if not delta > 0:
        raise CheckFailed(f"digital step must be positive, got {delta!r}")
    parts = np.concatenate([np.real(f_bb).ravel(), np.imag(f_bb).ravel()])
    index = parts / delta + (levels - 1) / 2.0
    nearest = np.round(index)
    err = np.abs(index - nearest)
    if err.max() > LABEL_TOL:
        raise CheckFailed(f"digital entry off the {levels}-level grid by {err.max():.3e} steps")
    if nearest.min() < 0 or nearest.max() > levels - 1:
        raise CheckFailed(f"digital entry outside the {levels}-level grid")


def subcarrier_powers(f_rf: np.ndarray, f_bb: np.ndarray, n_users: int) -> np.ndarray:
    eff = f_rf @ f_bb
    n_tx, ks = eff.shape
    blocks = eff.reshape(n_tx, n_users, ks // n_users)
    return np.sum(np.abs(blocks) ** 2, axis=(0, 1))


def check_power(f_rf: np.ndarray, f_bb: np.ndarray, n_users: int, p_s: float,
                tol: float) -> None:
    """Every per-sub-carrier power at most p_s * (1 + tol)."""
    powers = subcarrier_powers(f_rf, f_bb, n_users)
    limit = p_s * (1.0 + tol) * (1.0 + 1e-12)
    worst = int(np.argmax(powers))
    if powers[worst] > limit:
        raise CheckFailed(
            f"sub-carrier {worst} power {powers[worst]:.6e} exceeds {p_s:.6e}*(1+{tol:g})")


def energy(x: np.ndarray) -> float:
    flat = np.asarray(x).ravel()
    return float(np.dot(flat.real, flat.real) + np.dot(flat.imag, flat.imag))


def frobenius_sq(target: np.ndarray, f_rf: np.ndarray, f_bb: np.ndarray) -> float:
    return energy(target - f_rf @ f_bb)


def check_objective(design: Design) -> float:
    """Own ||F_FD - F_RF F_BB||^2 equals the best objective the trace reports."""
    own = frobenius_sq(design.target, design.f_rf, design.f_bb)
    if design.objectives is not None:
        reported = min(design.objectives)
        if not _close(own, reported):
            raise CheckFailed(f"own objective {own:.12e} != trace minimum {reported:.12e}")
    return own


def own_sum_rate(h: np.ndarray, f: np.ndarray, n_users: int, n0: float) -> float:
    """Per-sub-carrier average of sum_k log2(1 + SINR_k), with gains h_k^T f_i."""
    n_tx, ks = h.shape
    s_count = ks // n_users
    hb = h.reshape(n_tx, n_users, s_count)
    fb = f.reshape(n_tx, n_users, s_count)
    gains = np.abs(np.einsum("nks,nis->ski", hb, fb)) ** 2  # [s, receiver, stream]
    signal = np.einsum("skk->sk", gains)
    interference = gains.sum(axis=2) - signal
    return float(np.log2(1.0 + signal / (interference + n0)).sum() / s_count)


def check_rate(h: np.ndarray, f: np.ndarray, n_users: int, n0: float,
               reported: float, rtol: float = MATCH_RTOL) -> float:
    """Own sum rate equals the package's report; returns the own value."""
    own = own_sum_rate(h, f, n_users, n0)
    if not _close(own, reported, rtol):
        raise CheckFailed(f"own sum rate {own:.12e} != reported {reported:.12e}")
    return own


def analog_row_gaps(target: np.ndarray, f_rf: np.ndarray, f_bb: np.ndarray,
                    bits: int) -> np.ndarray:
    """Relative gap of each analog row to the best of all label vectors.

    Row n minimises ||F_FD[n] - x F_BB||^2 over x in the 2^bits phases per
    RF chain; the optimum is found by enumerating every label vector.
    """
    m_rf = f_bb.shape[0]
    phases = np.exp(2j * math.pi * np.arange(2 ** bits) / 2 ** bits)
    if len(phases) ** m_rf > ENUMERATION_GUARD:
        raise ValueError(f"{len(phases)}^{m_rf} label vectors exceed the enumeration guard")
    candidates = np.array(list(itertools.product(phases, repeat=m_rf)))
    products = candidates @ f_bb  # (C, K*S)
    gaps = np.empty(target.shape[0])
    for n, row in enumerate(target):
        resid = row[None, :] - products
        best = float(np.min(np.sum(np.abs(resid) ** 2, axis=1)))
        diff = row - f_rf[n] @ f_bb
        own = float(np.real(np.vdot(diff, diff)))
        gaps[n] = (own - best) / max(best, 1e-300)
    return gaps


def check_sd_rows(design: Design) -> None:
    """Every analog row of an exact design is optimal for the returned F_BB."""
    gaps = analog_row_gaps(design.target, design.f_rf, design.f_bb, design.analog_bits)
    worst = int(np.argmax(gaps))
    if gaps[worst] > ROW_GAP_TOL:
        raise CheckFailed(f"analog row {worst} is {gaps[worst]:.3e} above the enumerated optimum")


def check_design(design: Design) -> Optional[float]:
    """All constraint checks on one design; returns the own Frobenius objective."""
    check_analog(design.f_rf, design.analog_bits, design.dynamic, design.switch)
    if not math.isnan(design.delta):
        check_digital_grid(design.f_bb, design.levels, design.delta)
    check_power(design.f_rf, design.f_bb, design.n_users, design.p_s, design.bisection_tol)
    if design.target is None:
        return None
    own = check_objective(design)
    if design.analog_method == "sesd" and not design.dynamic:
        check_sd_rows(design)
    return own
