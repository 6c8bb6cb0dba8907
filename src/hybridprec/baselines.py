"""Reference hybrid precoders: alternating minimization with unconstrained
entries, quantized afterwards by nearest-point mapping.

Two variants differ only in the analog step: one projects the least-squares
solution onto unit modulus by keeping its phase, the other runs Riemannian
gradient descent on the product of unit circles.
"""

from __future__ import annotations

from typing import Union

import numpy as np

# choose_delta and make_digital_alphabet are unused here but stay importable:
# bench/tracing.py wraps them under this module's name
from .alphabets import (  # noqa: F401
    Alphabet, choose_delta, make_digital_alphabet, nearest_labels,
)
from .channel import SystemConfig, per_subcarrier_power_mw
from .hybrid import (
    FULLY_CONNECTED, OUTER_MAX_ITER, OUTER_TOL, AlternateTrace, HybridPrecoder, SolverStats,
    init_analog_svd, nearest_quantize_digital, phase_projection, rescale_to_budget,
)
from .wmmse import FullyDigitalPrecoder, as_matrix, mse_to_target

MANIFOLD_MAX_STEPS = 100
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4


def _altmin(f_fd: Union[FullyDigitalPrecoder, np.ndarray], config: SystemConfig,
            analog_step) -> tuple[np.ndarray, np.ndarray, AlternateTrace]:
    """Alternating minimization from the SVD initialization: least-squares
    digital updates and ``analog_step(target, f_rf, f_bb, stats)`` analog
    updates until the objective settles (``trace.stop`` is "tolerance") or
    ``OUTER_MAX_ITER`` iterations ran ("max-iter"). The digital precoder is
    refit and rescaled to the budget at exit."""
    target = as_matrix(f_fd)
    p_s = per_subcarrier_power_mw(config)
    f_rf = init_analog_svd(target, config.m_rf)
    trace = AlternateTrace()
    prev = None
    for _ in range(OUTER_MAX_ITER):
        f_bb = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        f_rf = analog_step(target, f_rf, f_bb, trace.solver_stats)
        obj = mse_to_target(target, f_rf, f_bb)
        trace.objective_per_outer_iter.append(obj)
        if prev is not None and abs(prev - obj) <= OUTER_TOL * max(prev, 1e-30):
            trace.stop = "tolerance"
            break
        prev = obj
    f_bb = np.linalg.lstsq(f_rf, target, rcond=None)[0]
    f_bb = rescale_to_budget(f_rf, f_bb, p_s, config.n_users)
    return f_rf, f_bb, trace


def altmin2(f_fd: Union[FullyDigitalPrecoder, np.ndarray], config: SystemConfig
            ) -> tuple[np.ndarray, np.ndarray, AlternateTrace]:
    """Alternating least squares with phase projection for the analog step.

    The phase projection breaks monotonicity, so the trace is recorded but
    not asserted anywhere.
    """
    return _altmin(f_fd, config, lambda target, f_rf, f_bb, stats: phase_projection(target, f_bb))


def unit_modulus_gradient(target: np.ndarray, f_rf: np.ndarray, f_bb: np.ndarray) -> np.ndarray:
    """Euclidean gradient of ||target - F_RF F_BB||_F^2 w.r.t. F_RF (Wirtinger, conjugate)."""
    return -2.0 * (target - f_rf @ f_bb) @ f_bb.conj().T


def tangent_project(grad: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Remove the radial component entrywise on the product of unit circles."""
    return grad - np.real(grad * np.conj(point)) * point


def retract(point: np.ndarray) -> np.ndarray:
    """Entrywise renormalization to unit modulus."""
    mag = np.abs(point)
    mag = np.where(mag > 0, mag, 1.0)
    return point / mag


def _manifold_descent(target: np.ndarray, f_rf: np.ndarray, f_bb: np.ndarray,
                      stats: SolverStats) -> np.ndarray:
    """Riemannian gradient descent with Armijo backtracking on the analog entries;
    a search that gives up ends the update and counts in ``stats.line_search_failures``."""
    def cost(x):
        return mse_to_target(target, x, f_bb)

    current = cost(f_rf)
    step = 1.0
    for _ in range(MANIFOLD_MAX_STEPS):
        grad = unit_modulus_gradient(target, f_rf, f_bb)
        direction = -tangent_project(grad, f_rf)
        slope = float(np.real(np.sum(grad * np.conj(direction))))  # = -||direction||^2
        if -slope < 1e-12 * max(current, 1.0):
            break
        accepted = False
        tau = step
        for _ in range(40):
            trial = retract(f_rf + tau * direction)
            trial_cost = cost(trial)
            if trial_cost <= current + ARMIJO_SLOPE * tau * slope:
                accepted = True
                break
            tau *= ARMIJO_SHRINK
        if not accepted:
            stats.line_search_failures += 1
            break
        f_rf = trial
        current = trial_cost
        step = min(tau / ARMIJO_SHRINK, 1e3)  # mild growth for the next step
    return f_rf


def altmin1(f_fd: Union[FullyDigitalPrecoder, np.ndarray], config: SystemConfig
            ) -> tuple[np.ndarray, np.ndarray, AlternateTrace]:
    """Alternating minimization with a manifold-optimized analog precoder."""
    return _altmin(f_fd, config, _manifold_descent)


def quantize_baseline(f_rf: np.ndarray, f_bb: np.ndarray, analog_alphabet: Alphabet,
                      levels: int, p_s: float, n_users: int) -> HybridPrecoder:
    """Nearest-point mapping of a continuous hybrid pair onto the label sets.

    The digital step is fit to the continuous entries by ``choose_delta`` and
    halved until every sub-carrier meets the power budget (power evaluated
    with the quantized analog matrix); ``InfeasiblePowerError`` after
    ``MAX_STEP_HALVINGS`` halvings.
    """
    if not (np.all(np.isfinite(f_rf)) and np.all(np.isfinite(f_bb))):
        raise ValueError("precoders must be finite")
    q_rf = nearest_labels(f_rf, analog_alphabet)
    q_bb, delta, _ = nearest_quantize_digital(f_bb, q_rf, p_s, levels, n_users)
    return HybridPrecoder(f_rf=q_rf, f_bb=q_bb, delta=delta, mode=FULLY_CONNECTED)
