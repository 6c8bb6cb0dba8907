"""Alternating design of limited-resolution hybrid precoders.

Each outer iteration solves the digital subproblem (per sub-carrier, per
user, with a bisected power multiplier) and then the analog subproblem
(per antenna), both as finite-alphabet least squares through the chosen
solver. A dynamic-connected variant factors the analog network into a
per-antenna phase diagonal and a binary switch matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .alphabets import (
    Alphabet, DeltaRule, DIGITAL_REAL,
    choose_delta, make_analog_alphabet, make_digital_alphabet,
    make_switch_alphabet, nearest_labels,
)
from .channel import SystemConfig, per_subcarrier_power_mw
from .detect import (
    EPNumericalError, SolveResult, TriangularSystem, cholesky_with_retry, ep_solve,
    forward_solve, ordered_triangular, realify, sesd_solve,
)
from .wmmse import FullyDigitalPrecoder, mse_to_target

FULLY_CONNECTED = "fully-connected"
DYNAMIC_CONNECTED = "dynamic-connected"

SOLVERS = ("sesd", "ep", "np")


class InfeasiblePowerError(RuntimeError):
    """No discrete digital precoder meets the power budget at the current step."""


class AnalogSolveError(RuntimeError):
    """A solver failed inside the analog subproblem."""


@dataclass
class HybridPrecoder:
    f_rf: np.ndarray
    f_bb: np.ndarray
    delta: float
    mode: str = FULLY_CONNECTED
    switch: Optional[np.ndarray] = None
    phase_diag: Optional[np.ndarray] = None
    n_users: int = 1
    n_subcarriers: int = 1

    def effective(self) -> np.ndarray:
        return self.f_rf @ self.f_bb


@dataclass
class SolverStats:
    solves: int = 0
    nodes: int = 0
    iterations: int = 0
    shrinks: int = 0  # digital step halvings

    def absorb(self, result: SolveResult) -> None:
        self.solves += len(result.z) if result.z.ndim == 2 else 1
        self.nodes += result.nodes_visited
        self.iterations += result.iterations


@dataclass
class AlternateTrace:
    objective_per_outer_iter: list = field(default_factory=list)
    delta_per_outer_iter: list = field(default_factory=list)
    mu_per_subcarrier: Optional[np.ndarray] = None
    inner_bisection_iters: Optional[list] = None
    solver_stats: SolverStats = field(default_factory=SolverStats)
    wall_times: dict = field(default_factory=dict)
    truncated: bool = False
    n_outer: int = 0
    best_iteration: int = 0
    iterates: Optional[list] = None


def _as_matrix(f_fd: Union[FullyDigitalPrecoder, np.ndarray]) -> np.ndarray:
    return f_fd.f_fd if isinstance(f_fd, FullyDigitalPrecoder) else np.asarray(f_fd)


def init_analog_svd(f_fd: Union[FullyDigitalPrecoder, np.ndarray], m_rf: int,
                    fallback_rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Phase pattern of the top singular pairs of the fully-digital target.

    Entries are continuous unit-modulus values; label quantization happens
    in the first analog solve. Falls back to random phases if the SVD fails.
    """
    target = _as_matrix(f_fd)
    n_t, ks = target.shape
    if m_rf > min(n_t, ks):
        raise ValueError(f"m_rf={m_rf} exceeds min(n_tx, K*S)={min(n_t, ks)}")
    try:
        u, sv, _ = np.linalg.svd(target, full_matrices=False)
    except np.linalg.LinAlgError:
        rng = fallback_rng or np.random.default_rng(0)
        return np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n_t, m_rf)))
    return np.exp(1j * np.angle(u[:, :m_rf] * sv[None, :m_rf]))


def optimize_analog(f_fd: Union[FullyDigitalPrecoder, np.ndarray], f_bb: np.ndarray,
                    solver: str, alphabet: Alphabet,
                    config: Optional[SystemConfig] = None,
                    warm: Optional[np.ndarray] = None) -> tuple[np.ndarray, SolverStats]:
    """Best analog matrix for a fixed digital precoder.

    The Frobenius objective decouples into one finite-alphabet least-squares
    problem per transmit antenna, all sharing the digital Gram factor.
    """
    target = _as_matrix(f_fd)
    b = f_bb.T  # (K*S, M_T)
    a = target.T  # (K*S, N_T)
    stats = SolverStats()
    if solver == "np":
        x_ls, *_ = np.linalg.lstsq(b, a, rcond=None)
        f_rf = nearest_labels(np.exp(1j * np.angle(x_ls.T)), alphabet)
        stats.solves += target.shape[0]
        return f_rf, stats

    if solver not in ("sesd", "ep"):
        raise ValueError(f"unknown analog solver {solver!r}")
    cfg = config or SystemConfig()
    try:
        if solver == "sesd":
            res = sesd_solve(_antenna_system(b, a), alphabet, warm_starts=warm)
        else:
            res = ep_solve(a, b, alphabet, damping=cfg.ep_damping,
                           max_iter=cfg.ep_max_iter, tol=cfg.ep_tol)
    except Exception as exc:
        where = f" at antenna {exc.index}" if isinstance(exc, EPNumericalError) else ""
        raise AnalogSolveError("analog subproblem failed" + where) from exc
    stats.absorb(res)
    return res.z, stats


def _antenna_system(b: np.ndarray, a: np.ndarray) -> TriangularSystem:
    """All per-antenna problems min ||a_n - B x||^2 over one shared factor of B."""
    r, ridge = cholesky_with_retry(b.conj().T @ b)
    targets = forward_solve(r, b.conj().T @ a)  # d_n columns
    offsets = np.sum(np.abs(a) ** 2, axis=0) - np.sum(np.abs(targets) ** 2, axis=0)
    return TriangularSystem(r=r, d=targets, constant_offset=offsets, ridge=ridge)


def _power_per_subcarrier(f_rf: np.ndarray, f_bb: np.ndarray, n_users: int) -> np.ndarray:
    """Transmit power on each sub-carrier for the assembled hybrid pair."""
    eff = f_rf @ f_bb
    s_count = f_bb.shape[1] // n_users
    powers = np.zeros(s_count)
    for k in range(n_users):
        block = eff[:, k * s_count:(k + 1) * s_count]
        powers += np.sum(np.abs(block) ** 2, axis=0)
    return powers


def rescale_to_budget(f_rf: np.ndarray, f_bb: np.ndarray, p_s: float,
                      n_users: int) -> np.ndarray:
    """Scale each sub-carrier's digital block down to the power budget."""
    f_bb = f_bb.copy()
    s_count = f_bb.shape[1] // n_users
    powers = _power_per_subcarrier(f_rf, f_bb, n_users)
    for s in range(s_count):
        if powers[s] > p_s:
            scale = math.sqrt(p_s / powers[s])
            for k in range(n_users):
                f_bb[:, k * s_count + s] *= scale
    return f_bb


def nearest_quantize_digital(f_cont: np.ndarray, f_rf: np.ndarray, p_s: float,
                             levels: int, n_users: int,
                             rule: Optional[DeltaRule] = None,
                             max_shrinks: int = 60) -> tuple[np.ndarray, float]:
    """Entrywise nearest-label quantization of a continuous digital precoder.

    The step is fit to the continuous entries, then halved (re-quantizing)
    until every sub-carrier meets the power budget; after ``max_shrinks``
    halvings ``InfeasiblePowerError``. Returns (f_bb, delta).
    """
    delta = choose_delta(f_cont, levels, rule)
    for _ in range(max_shrinks + 1):
        alphabet = make_digital_alphabet(levels, delta)
        f_bb = nearest_labels(f_cont, alphabet)
        if np.all(_power_per_subcarrier(f_rf, f_bb, n_users) <= p_s * (1 + 1e-9)):
            return f_bb, delta
        delta /= 2.0
    raise InfeasiblePowerError("quantized digital precoder cannot meet the power budget")


def optimize_digital(f_fd: Union[FullyDigitalPrecoder, np.ndarray], f_rf: np.ndarray,
                     p_s: float, solver: str, levels: int, n_users: int,
                     delta_rule: Optional[DeltaRule] = None,
                     config: Optional[SystemConfig] = None,
                     bisection_tol: float = 1e-2,
                     ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, SolverStats]:
    """Best quantized digital precoder for a fixed analog matrix.

    Per sub-carrier, a non-negative multiplier scales the Gram factor so the
    power constraint holds; for each candidate multiplier the K per-user
    problems are solved independently in stacked real form. The multiplier
    is bisected from an infeasible lower end to a feasible upper end and the
    feasible-side solution is returned (immediately, when the unconstrained
    solution already fits). The step is halved while some sub-carrier cannot
    meet the budget at any multiplier; ``stats.shrinks`` counts the halvings.
    Returns (f_bb, delta, mu, bisection_iters, stats).
    """
    cfg = config or SystemConfig()
    target = _as_matrix(f_fd)
    ks = target.shape[1]
    s_count = ks // n_users
    stats = SolverStats()

    # min-norm least squares keeps the reference entries bounded even when the
    # quantized analog matrix is rank deficient
    ls_digital = np.linalg.lstsq(f_rf, target, rcond=None)[0]

    if solver == "ls":
        # unquantized digital entries: the ideal-resolution reference case
        f_bb = rescale_to_budget(f_rf, ls_digital, p_s, n_users)
        stats.solves += ks
        return f_bb, float("nan"), np.zeros(s_count), np.zeros(s_count, dtype=int), stats
    if solver == "np":
        f_bb, delta = nearest_quantize_digital(ls_digital, f_rf, p_s, levels, n_users, delta_rule)
        stats.solves += ks
        return f_bb, delta, np.zeros(s_count), np.zeros(s_count, dtype=int), stats
    if solver not in ("sesd", "ep"):
        raise ValueError(f"unknown digital solver {solver!r}")

    delta = choose_delta(ls_digital, levels, delta_rule)
    if solver == "sesd":
        # one column order for every multiplier: mu only scales the factor
        proj_r, gram_r = realify(f_rf.conj().T @ target, f_rf.conj().T @ f_rf)
        base = ordered_triangular(gram_r, proj_r)
    else:
        target_r, f_rf_r = realify(target, f_rf)  # (2N_T, K*S), (2N_T, 2M_T)

    def solve(cols, mu: float, warm: Optional[np.ndarray] = None) -> np.ndarray:
        """Stacked real solutions (one row per column) at multiplier mu, over
        the labels of the current step.

        mu enters only as a scale: R(mu) = sqrt(mu+1) R0, d(mu) = d0 / sqrt(mu+1).
        """
        scale = math.sqrt(mu + 1.0)
        if solver == "sesd":
            system = replace(base, r=scale * base.r, d=base.d[:, cols] / scale)
            res = sesd_solve(system, alphabet, warm_starts=warm)
        else:
            res = ep_solve(target_r[:, cols] / scale, scale * f_rf_r, alphabet,
                           damping=cfg.ep_damping, max_iter=cfg.ep_max_iter, tol=cfg.ep_tol)
        stats.absorb(res)
        return res.z

    while True:
        alphabet = make_digital_alphabet(levels, delta, kind=DIGITAL_REAL)
        try:
            f_bb, mu, iters = _solve_all_subcarriers(solve, f_rf, p_s, s_count, n_users,
                                                     bisection_tol)
            return f_bb, delta, mu, iters, stats
        except InfeasiblePowerError as exc:
            if stats.shrinks == 8:
                raise InfeasiblePowerError(f"{exc} after 8 step shrinks") from exc
        stats.shrinks += 1
        delta /= 2.0


def _power(f_rf: np.ndarray, sols: np.ndarray) -> float:
    """Summed transmit power of stacked real digital columns (one per row)."""
    m_rf = f_rf.shape[1]
    return float(sum(np.real(np.vdot(f_rf @ b, f_rf @ b))
                     for b in sols[:, :m_rf] + 1j * sols[:, m_rf:]))


def _solve_all_subcarriers(solve, f_rf, p_s, s_count, n_users,
                           bisection_tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m_rf = f_rf.shape[1]
    ks = s_count * n_users
    at_zero = solve(np.arange(ks), 0.0)
    f_bb = np.ascontiguousarray(at_zero[:, :m_rf].T + 1j * at_zero[:, m_rf:].T)
    mu_out = np.zeros(s_count)
    iters_out = np.ones(s_count, dtype=int)

    over = _power_per_subcarrier(f_rf, f_bb, n_users) - p_s > bisection_tol * p_s
    for s in np.flatnonzero(over):
        cols = np.arange(s, ks, s_count)  # column k * s_count + s of user k
        # each candidate multiplier is warm-started from the previous one
        lo, hi = 0.0, 1.0
        warm = solve(cols, hi, at_zero[cols])
        n_evals = 2
        doublings = 0
        while _power(f_rf, warm) > p_s * (1 + bisection_tol):
            lo, hi = hi, hi * 2.0
            doublings += 1
            if doublings > 60:
                raise InfeasiblePowerError(
                    f"sub-carrier {s}: smallest discrete power exceeds the budget"
                )
            warm = solve(cols, hi, warm)
            n_evals += 1
        mu_s, sols = hi, warm
        while hi - lo >= 1e-8:
            mid = 0.5 * (lo + hi)
            warm = solve(cols, mid, warm)
            n_evals += 1
            power_mid = _power(f_rf, warm)
            if abs(power_mid - p_s) <= bisection_tol * p_s:
                mu_s, sols = mid, warm
                break
            if power_mid > p_s:
                lo = mid
            else:
                hi, mu_s, sols = mid, mid, warm
        f_bb[:, cols] = sols[:, :m_rf].T + 1j * sols[:, m_rf:].T
        mu_out[s] = mu_s
        iters_out[s] = n_evals
    return f_bb, mu_out, iters_out


def optimize_switch(f_fd: Union[FullyDigitalPrecoder, np.ndarray], phase_diag: np.ndarray,
                    f_bb: np.ndarray, solver: str = "sesd") -> tuple[np.ndarray, SolverStats]:
    """Best binary RF-chain/antenna switch matrix for fixed phases and digital precoder.

    Rotating the target by the conjugate phases decouples the problem per
    antenna over {0,1}^M. The result is repaired, if necessary, so columns
    are distinct and nonzero (entry flips with least residual increase).
    """
    target = _as_matrix(f_fd)
    if not np.allclose(np.abs(phase_diag), 1.0, atol=1e-9):
        raise ValueError("phase_diag entries must be unit modulus")
    rotated = (np.conj(phase_diag)[:, None] * target)  # diag(phase)^H F_FD
    b = f_bb.T
    stats = SolverStats()
    res = sesd_solve(_antenna_system(b, rotated.T), make_switch_alphabet())
    stats.absorb(res)
    switch = _repair_switch(res.z.real.copy(), rotated.T, b)
    return switch, stats


def _row_residual(a_col: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    diff = a_col - b @ x
    return float(np.real(np.vdot(diff, diff)))


def _repair_switch(switch: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flip single entries until all columns are distinct and nonzero."""
    n_t, m_rf = switch.shape
    for _ in range(n_t * m_rf):
        bad = _offending_columns(switch)
        if not bad:
            return switch
        best = None
        for m in bad:
            for n in range(n_t):
                trial = switch[n].copy()
                trial[m] = 1.0 - trial[m]
                delta_res = _row_residual(a[:, n], b, trial) - _row_residual(a[:, n], b, switch[n])
                candidate = switch.copy()
                candidate[n] = trial
                if len(_offending_columns(candidate)) < len(bad) and (
                        best is None or delta_res < best[0]):
                    best = (delta_res, n, m)
        if best is None:
            raise RuntimeError(f"switch repair failed; offending RF chains: {sorted(bad)}")
        _, n, m = best
        switch[n, m] = 1.0 - switch[n, m]
    bad = _offending_columns(switch)
    if bad:
        raise RuntimeError(f"switch repair failed; offending RF chains: {sorted(bad)}")
    return switch


def _offending_columns(switch: np.ndarray) -> set:
    bad = set()
    m_rf = switch.shape[1]
    for m in range(m_rf):
        if not switch[:, m].any():
            bad.add(m)
    seen = {}
    for m in range(m_rf):
        key = switch[:, m].tobytes()
        if key in seen:
            bad.add(m)
        else:
            seen[key] = m
    return bad


def optimize_phase_diag(f_fd: Union[FullyDigitalPrecoder, np.ndarray], switch: np.ndarray,
                        f_bb: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """Per-antenna phase labels by exhaustive scan over the analog alphabet."""
    target = _as_matrix(f_fd)
    n_t = target.shape[0]
    bt = f_bb.T @ switch.T  # (K*S, N_T)
    labels = alphabet.labels
    phases = np.empty(n_t, dtype=complex)
    for n in range(n_t):
        v = bt[:, n]
        cross = np.vdot(v, target[n, :])  # v^H a_n
        costs = -2.0 * np.real(np.conj(labels) * cross) + np.abs(labels) ** 2 * float(
            np.real(np.vdot(v, v)))
        phases[n] = labels[int(np.argmin(costs))]
    return phases


def _initial_switch(n_tx: int, m_rf: int) -> np.ndarray:
    """Round-robin assignment: distinct, nonzero columns by construction."""
    switch = np.zeros((n_tx, m_rf))
    switch[np.arange(n_tx), np.arange(n_tx) % m_rf] = 1.0
    return switch


def alternate(f_fd: Union[FullyDigitalPrecoder, np.ndarray], config: SystemConfig,
              solver: str, mode: str = FULLY_CONNECTED,
              analog_method: Optional[str] = None, digital_method: Optional[str] = None,
              delta_rule: Optional[DeltaRule] = None,
              record_iterates: bool = False) -> tuple[HybridPrecoder, AlternateTrace]:
    """Alternating digital/analog optimization of the hybrid precoder.

    Runs digital-then-analog updates until the relative objective change
    drops below ``config.outer_tol`` or the iteration cap is reached, and
    returns the best-objective iterate seen. ``analog_method`` and
    ``digital_method`` override the solver per subproblem (e.g. to mix
    nearest-point quantization with message passing); ``digital_method="ls"``
    keeps the digital entries continuous (ideal resolution, power-rescaled),
    in which case the returned step is NaN.
    """
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    analog_method = analog_method or solver
    digital_method = digital_method or solver
    target = _as_matrix(f_fd)
    n_t, ks = target.shape
    k_count = config.n_users
    s_count = ks // k_count
    if config.m_rf > ks:
        raise ValueError(
            f"m_rf={config.m_rf} exceeds K*S={ks}; digital subproblems would be rank deficient"
        )
    p_s = per_subcarrier_power_mw(config)
    analog_alphabet = make_analog_alphabet(config.analog_bits)
    trace = AlternateTrace(iterates=[] if record_iterates else None)

    dynamic = mode == DYNAMIC_CONNECTED
    if dynamic:
        u, sv, _ = np.linalg.svd(target, full_matrices=False)
        phase_diag = nearest_labels(np.exp(1j * np.angle(u[:, 0])), analog_alphabet)
        switch = _initial_switch(n_t, config.m_rf)
        f_rf = phase_diag[:, None] * switch
    else:
        phase_diag = None
        switch = None
        f_rf = init_analog_svd(target, config.m_rf)

    best = None
    prev_obj = None
    for it in range(1, config.outer_max_iter + 1):
        t0 = time.perf_counter()
        f_bb, delta, mu, bis_iters, dstats = optimize_digital(
            target, f_rf, p_s, digital_method, config.quant_levels, k_count,
            delta_rule=delta_rule, config=config, bisection_tol=config.bisection_tol,
        )
        t1 = time.perf_counter()
        if dynamic:
            switch, astats = optimize_switch(target, phase_diag, f_bb)
            phase_diag = optimize_phase_diag(target, switch, f_bb, analog_alphabet)
            f_rf = phase_diag[:, None] * switch
        else:
            f_rf, astats = optimize_analog(target, f_bb, analog_method, analog_alphabet,
                                           config=config, warm=f_rf if analog_method == "sesd" and it > 1 else None)
        t2 = time.perf_counter()

        obj = mse_to_target(target, f_rf, f_bb)
        trace.objective_per_outer_iter.append(obj)
        trace.delta_per_outer_iter.append(delta)
        trace.solver_stats.solves += dstats.solves + astats.solves
        trace.solver_stats.nodes += dstats.nodes + astats.nodes
        trace.solver_stats.iterations += dstats.iterations + astats.iterations
        trace.solver_stats.shrinks += dstats.shrinks
        trace.wall_times["digital_s"] = trace.wall_times.get("digital_s", 0.0) + (t1 - t0)
        trace.wall_times["analog_s"] = trace.wall_times.get("analog_s", 0.0) + (t2 - t1)
        if record_iterates:
            trace.iterates.append({
                "f_rf": f_rf.copy(), "f_bb": f_bb.copy(), "delta": delta,
                "switch": None if switch is None else switch.copy(),
                "phase_diag": None if phase_diag is None else phase_diag.copy(),
            })

        if best is None or obj < best["objective"]:
            best = {
                "objective": obj, "f_rf": f_rf.copy(), "f_bb": f_bb.copy(),
                "delta": delta, "mu": mu.copy(), "bis_iters": bis_iters.copy(),
                "iteration": it,
                "switch": None if switch is None else switch.copy(),
                "phase_diag": None if phase_diag is None else phase_diag.copy(),
            }
        if prev_obj is not None and abs(prev_obj - obj) <= config.outer_tol * max(prev_obj, 1e-30):
            break
        prev_obj = obj
    else:
        trace.truncated = True

    trace.n_outer = len(trace.objective_per_outer_iter)
    trace.best_iteration = best["iteration"]
    trace.mu_per_subcarrier = best["mu"]
    trace.inner_bisection_iters = list(best["bis_iters"])
    precoder = HybridPrecoder(
        f_rf=best["f_rf"], f_bb=best["f_bb"], delta=best["delta"], mode=mode,
        switch=best["switch"], phase_diag=best["phase_diag"],
        n_users=k_count, n_subcarriers=s_count,
    )
    return precoder, trace
