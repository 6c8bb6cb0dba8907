"""Alternating design of limited-resolution hybrid precoders.

Each outer iteration solves the digital subproblem (per sub-carrier, per
user, with a bisected power multiplier) and then the analog subproblem
(per antenna), both as finite-alphabet least squares through the chosen
solver. A dynamic-connected variant factors the analog network into a
per-antenna phase diagonal and a binary switch matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .alphabets import (
    Alphabet, _nearest, choose_delta, make_analog_alphabet, make_digital_alphabet,
    make_switch_alphabet, nearest_labels,
)
from .channel import SystemConfig, per_subcarrier_power_mw
from .detect import (
    EPNumericalError, SolveResult, ep_solve, prepare_triangular, realify,
    residual_norm_sq, sesd_solve,
)
from .wmmse import FullyDigitalPrecoder, as_matrix, mse_to_target

FULLY_CONNECTED = "fully-connected"
DYNAMIC_CONNECTED = "dynamic-connected"

SOLVERS = ("sesd", "ep", "np")
# the alternation stops at this relative objective change, or after OUTER_MAX_ITER iterations
OUTER_TOL = 0.01
OUTER_MAX_ITER = 50
# the quantized digital step size is halved at most this often to meet the power budget
MAX_STEP_HALVINGS = 8


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

    def effective(self) -> np.ndarray:
        return self.f_rf @ self.f_bb


@dataclass
class SolverStats:
    solves: int = 0
    nodes: int = 0
    iterations: int = 0
    found: int = 0  # EP iterations up to each target's returned decision
    truncated: int = 0  # EP targets stopped at max_iter
    ridged: int = 0  # SD systems built on a ridge-loaded Gram factor
    shrinks: int = 0  # digital step halvings
    line_search_failures: int = 0  # AltMin manifold updates whose Armijo search gave up
    peak_frontier: int = 0  # most children one SD block expansion kept; a maximum, not a sum

    def absorb(self, result: SolveResult) -> None:
        """Add one solver call's counts; the only merge rule of a design's account."""
        self.solves += len(result.z)
        self.nodes += result.nodes_visited
        self.iterations += result.iterations
        self.truncated += result.truncated
        diagnostics = result.diagnostics or {}
        self.found += int(np.sum(diagnostics.get("found", 0)))
        self.peak_frontier = max(self.peak_frontier, diagnostics.get("peak_frontier", 0))


@dataclass
class AlternateTrace:
    """One design's account, from ``alternate`` and the AltMin baselines alike."""

    objective_per_outer_iter: list = field(default_factory=list)
    solver_stats: SolverStats = field(default_factory=SolverStats)
    stop: str = "max-iter"  # or "tolerance", or "fixed-point": an iterate repeated its input
    iterates: Optional[list] = None

    @property
    def n_outer(self) -> int:
        return len(self.objective_per_outer_iter)

    @property
    def truncated(self) -> bool:
        return self.stop == "max-iter"


def init_analog_svd(target: np.ndarray, m_rf: int) -> np.ndarray:
    """Phase pattern of the top singular pairs of the fully-digital target.

    Entries are continuous unit-modulus values; label quantization happens
    in the first analog solve.
    """
    n_t, ks = target.shape
    if m_rf > min(n_t, ks):
        raise ValueError(f"m_rf={m_rf} exceeds min(n_tx, K*S)={min(n_t, ks)}")
    u, sv, _ = np.linalg.svd(target, full_matrices=False)
    return np.exp(1j * np.angle(u[:, :m_rf] * sv[None, :m_rf]))


def _fals(g: np.ndarray, c: np.ndarray, solver: str, alphabet: Alphabet, stats: SolverStats):
    """The one finite-alphabet least-squares path for the columns c_p of ``c``
    by ``solver``, the SD factor built once. Returns ``solve(cols, mu=0.0,
    warm=None)``: the labels (one row per column in ``cols``) of
    min ||c_p - G z||^2 + mu ||G z||^2 over ``alphabet``, which is
    min ||c_p / s - s G z||^2 with s = sqrt(mu + 1); EP runs at ``ep_solve``'s
    defaults, and every call is added to ``stats``. SD searches real labels of
    a complex system (1-bit phases, switches) on the stacked real pair
    [Re G; Im G], [Re c; Im c], since ||c - G z||^2 = ||Re c - Re G z||^2
    + ||Im c - Im G z||^2 for real z, and maps them back to the alphabet's values."""
    if solver not in ("sesd", "ep"):
        raise ValueError(f"unknown FALS solver {solver!r}")
    if solver == "sesd":
        real_form = (np.iscomplexobj(g) or np.iscomplexobj(c)) and not np.any(alphabet.labels.imag)
        if real_form:
            g, c = np.concatenate([g.real, g.imag]), np.concatenate([c.real, c.imag])
        search = Alphabet(alphabet.labels.real) if real_form else alphabet
        base = prepare_triangular(g, c, search)
        stats.ridged += base.ridge > 0

    def solve(cols, mu: float = 0.0, warm: Optional[np.ndarray] = None) -> np.ndarray:
        s = math.sqrt(mu + 1.0)
        if solver == "ep":
            # complex division turns an infinite target into nan (and warns) before
            # ep_solve can reject it, so mu = 0 passes the inputs as they are
            targets, g_s = (c[:, cols], g) if mu == 0 else (c[:, cols] / s, s * g)
            res = ep_solve(targets, g_s, alphabet)
        else:
            system = replace(base, r=s * base.r, d=base.d[:, cols] / s,
                             constant_offset=base.constant_offset[cols] / s**2)
            res = sesd_solve(system, search,
                             warm_starts=warm.real if real_form and warm is not None else warm)
            if real_form:
                res.z = _nearest(res.z, alphabet.labels)  # the alphabet's own values, bit for bit
        stats.absorb(res)
        return res.z

    return solve


def phase_projection(target: np.ndarray, f_bb: np.ndarray) -> np.ndarray:
    """Phases of the least-squares analog matrix for the fixed digital precoder."""
    x_ls = np.linalg.lstsq(f_bb.T, target.T, rcond=None)[0]
    return np.exp(1j * np.angle(x_ls.T))


def optimize_analog(target: np.ndarray, f_bb: np.ndarray, solver: str, alphabet: Alphabet,
                    stats: SolverStats, warm: Optional[np.ndarray] = None) -> np.ndarray:
    """Best analog matrix for a fixed digital precoder; the solver counts go to ``stats``.

    The Frobenius objective decouples into one finite-alphabet least-squares
    problem per transmit antenna, all sharing the digital Gram factor.
    """
    if solver == "np":
        stats.solves += target.shape[0]
        return nearest_labels(phase_projection(target, f_bb), alphabet)

    solve = _fals(f_bb.T, target.T, solver, alphabet, stats)  # (K*S, M_T), (K*S, N_T)
    try:
        return solve(slice(None), warm=warm)
    except Exception as exc:
        where = f" at antenna {exc.index}" if isinstance(exc, EPNumericalError) else ""
        raise AnalogSolveError(f"analog subproblem failed{where}: {type(exc).__name__}: {exc}") from exc


def _power_per_subcarrier(f_rf: np.ndarray, f_bb: np.ndarray, n_users: int) -> np.ndarray:
    """Transmit power on each sub-carrier; column k*S + s is user k on sub-carrier s."""
    return np.sum(np.abs(f_rf @ f_bb) ** 2, axis=0).reshape(n_users, -1).sum(axis=0)


def rescale_to_budget(f_rf: np.ndarray, f_bb: np.ndarray, p_s: float,
                      n_users: int) -> np.ndarray:
    """Scale each sub-carrier's digital block down to the power budget."""
    powers = np.tile(_power_per_subcarrier(f_rf, f_bb, n_users), n_users)
    return np.where(powers > p_s, f_bb * np.sqrt(p_s / np.maximum(powers, p_s)), f_bb)


def _fit_step(quantize, reference: np.ndarray, levels: int):
    """``quantize(alphabet)`` at the step fit to ``reference``, halved while it raises
    ``InfeasiblePowerError`` (``MAX_STEP_HALVINGS`` times at most): (result, delta, halvings)."""
    delta = choose_delta(reference, levels)
    for halvings in range(MAX_STEP_HALVINGS + 1):
        try:
            return quantize(make_digital_alphabet(levels, delta)), delta, halvings
        except InfeasiblePowerError as exc:
            if halvings == MAX_STEP_HALVINGS:
                raise InfeasiblePowerError(f"{exc} after {halvings} step shrinks") from exc
        delta /= 2.0


def nearest_quantize_digital(f_cont: np.ndarray, f_rf: np.ndarray, p_s: float,
                             levels: int, n_users: int) -> tuple[np.ndarray, float, int]:
    """Nearest-label quantization of the real and imaginary parts of a continuous digital
    precoder, at the step ``_fit_step`` fits to the power budget: (f_bb, delta, halvings)."""
    def quantize(alphabet: Alphabet) -> np.ndarray:
        f_bb = nearest_labels(f_cont.real, alphabet) + 1j * nearest_labels(f_cont.imag, alphabet)
        if not np.all(_power_per_subcarrier(f_rf, f_bb, n_users) <= p_s * (1 + 1e-9)):
            raise InfeasiblePowerError("quantized digital precoder cannot meet the power budget")
        return f_bb

    return _fit_step(quantize, f_cont, levels)


def optimize_digital(target: np.ndarray, f_rf: np.ndarray, p_s: float, solver: str,
                     levels: int, n_users: int, stats: SolverStats
                     ) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Best quantized digital precoder for a fixed analog matrix.

    Per sub-carrier, a non-negative multiplier scales the Gram factor so the
    power constraint holds; for each candidate multiplier the K per-user
    problems are solved independently in stacked real form. The multiplier
    is bisected, to ``SystemConfig.bisection_tol``, from an infeasible lower end to a
    feasible upper end and the feasible-side solution is returned
    (immediately, when the unconstrained solution already fits). ``_fit_step``
    halves the step, with a new FALS kernel each time, while some sub-carrier
    cannot meet the budget at any multiplier (``solver="np"``: until the
    quantized entries meet it). The solver counts and the halvings go to ``stats``.
    Returns (f_bb, delta, mu, bisection_iters).
    """
    ks = target.shape[1]
    s_count = ks // n_users

    # min-norm least squares keeps the reference entries bounded even when the
    # quantized analog matrix is rank deficient
    ls_digital = np.linalg.lstsq(f_rf, target, rcond=None)[0]

    if solver in ("ls", "np"):
        # "ls" keeps the digital entries unquantized: the ideal-resolution reference case
        f_bb, delta, halvings = (
            (rescale_to_budget(f_rf, ls_digital, p_s, n_users), float("nan"), 0)
            if solver == "ls" else
            nearest_quantize_digital(ls_digital, f_rf, p_s, levels, n_users))
        stats.solves += ks
        stats.shrinks += halvings
        return f_bb, delta, np.zeros(s_count), np.zeros(s_count, dtype=int)

    target_r, f_rf_r = realify(target, f_rf)  # (2N_T, K*S), (2N_T, 2M_T)

    def quantize(alphabet: Alphabet):
        solve = _fals(f_rf_r, target_r, solver, alphabet, stats)
        return _solve_all_subcarriers(solve, f_rf, p_s, s_count, n_users)

    (f_bb, mu, iters), delta, halvings = _fit_step(quantize, ls_digital, levels)
    stats.shrinks += halvings
    return f_bb, delta, mu, iters


def _columns(sols: np.ndarray, m_rf: int) -> np.ndarray:
    """Complex digital columns of stacked real solutions (one per row)."""
    return np.ascontiguousarray(sols[:, :m_rf].T + 1j * sols[:, m_rf:].T)


def _solve_all_subcarriers(solve, f_rf, p_s, s_count, n_users
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m_rf = f_rf.shape[1]
    slack = SystemConfig.bisection_tol * p_s
    ks = s_count * n_users
    at_zero = solve(np.arange(ks), 0.0)
    f_bb = _columns(at_zero, m_rf)
    mu_out = np.zeros(s_count)
    iters_out = np.ones(s_count, dtype=int)

    def over(power):  # above the budget by more than the tolerance
        return power - p_s > slack

    for s in np.flatnonzero(over(_power_per_subcarrier(f_rf, f_bb, n_users))):
        cols = np.arange(s, ks, s_count)  # column k * s_count + s of user k
        # each candidate multiplier is warm-started from the previous one
        lo, hi = 0.0, 1.0
        warm = solve(cols, hi, at_zero[cols])
        n_evals = 2
        while over(_power_per_subcarrier(f_rf, _columns(warm, m_rf), n_users)[0]):
            lo, hi = hi, hi * 2.0
            if hi > 2**60:
                raise InfeasiblePowerError(
                    f"sub-carrier {s}: smallest discrete power exceeds the budget"
                )
            warm = solve(cols, hi, warm)
            n_evals += 1
        sols = warm  # the solution at hi, the feasible end
        # above 2**26 adjacent floats lie 1e-8 or more apart: stop when no float is left between
        while hi - lo >= 1e-8 and (mid := 0.5 * (lo + hi)) not in (lo, hi):
            warm = solve(cols, mid, warm)
            n_evals += 1
            power_mid = _power_per_subcarrier(f_rf, _columns(warm, m_rf), n_users)[0]
            if over(power_mid):
                lo = mid
                continue
            hi, sols = mid, warm
            if p_s - power_mid <= slack:  # within the tolerance below too
                break
        f_bb[:, cols] = _columns(sols, m_rf)
        mu_out[s] = hi
        iters_out[s] = n_evals
    return f_bb, mu_out, iters_out


def optimize_switch(target: np.ndarray, phase_diag: np.ndarray, f_bb: np.ndarray,
                    stats: SolverStats) -> np.ndarray:
    """Best binary RF-chain/antenna switch matrix for fixed phases and digital precoder.

    Rotating the target by the conjugate phases decouples the problem per
    antenna over {0,1}^M, always solved exactly by the sphere decoder (for
    ``dynamic-ep`` too). The result is repaired, if necessary, so columns
    are distinct and nonzero (entry flips with least residual increase). The
    solver counts go to ``stats``.
    """
    if not np.allclose(np.abs(phase_diag), 1.0, atol=1e-9):
        raise ValueError("phase_diag entries must be unit modulus")
    rotated = (np.conj(phase_diag)[:, None] * target)  # diag(phase)^H F_FD
    b = f_bb.T
    z = _fals(b, rotated.T, "sesd", make_switch_alphabet(), stats)(slice(None))
    return _repair_switch(z, rotated.T, b)


def _repair_switch(switch: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flip single entries until all columns are distinct and nonzero."""
    while True:  # each flip shrinks the offending set; raises once no single flip does
        bad = _offending_columns(switch)
        if not bad:
            return switch
        best = None
        for m in bad:
            for n in range(len(switch)):
                trial = switch[n].copy()
                trial[m] = 1.0 - trial[m]
                delta_res = (residual_norm_sq(a[:, n], b, trial)
                             - residual_norm_sq(a[:, n], b, switch[n]))
                candidate = switch.copy()
                candidate[n] = trial
                if len(_offending_columns(candidate)) < len(bad) and (
                        best is None or delta_res < best[0]):
                    best = (delta_res, n, m)
        if best is None:
            raise RuntimeError(f"switch repair failed; offending RF chains: {sorted(bad)}")
        _, n, m = best
        switch[n, m] = 1.0 - switch[n, m]


def _offending_columns(switch: np.ndarray) -> set:
    """RF chains whose switch column is zero or repeats an earlier column."""
    _, first = np.unique(switch.T, axis=0, return_index=True)
    repeated = np.ones(switch.shape[1], dtype=bool)
    repeated[first] = False
    return set(np.flatnonzero(repeated | ~switch.any(axis=0)).tolist())


def optimize_phase_diag(target: np.ndarray, switch: np.ndarray, f_bb: np.ndarray,
                        alphabet: Alphabet) -> np.ndarray:
    """Per-antenna phase labels for a fixed switch and digital precoder: with
    r_n the row phase n multiplies and c_n = r_nᴴ·(target row n), the unit-modulus
    label l nearest the phase of c_n minimizes |l|²‖r_n‖² − 2Re(l̄·c_n) (label 0
    on a zero row)."""
    rows = np.ascontiguousarray((f_bb.T @ switch.T).T)  # row n multiplies phase n
    cross = (rows.conj()[:, None, :] @ target[:, :, None])[:, 0, 0]  # rounded as np.vdot
    return nearest_labels(np.exp(1j * np.angle(cross)), alphabet)


def _initial_switch(n_tx: int, m_rf: int) -> np.ndarray:
    """Round-robin assignment: distinct, nonzero columns by construction."""
    switch = np.zeros((n_tx, m_rf))
    switch[np.arange(n_tx), np.arange(n_tx) % m_rf] = 1.0
    return switch


def alternate(f_fd: Union[FullyDigitalPrecoder, np.ndarray], config: SystemConfig,
              solver: str, mode: str = FULLY_CONNECTED,
              analog_method: Optional[str] = None, digital_method: Optional[str] = None,
              record_iterates: bool = False) -> tuple[HybridPrecoder, AlternateTrace]:
    """Alternating digital/analog optimization of the hybrid precoder.

    Runs digital-then-analog updates until the relative objective change
    drops below ``OUTER_TOL``, the analog state (``f_rf``, or switch
    and phases) repeats byte for byte, so every later iteration would repeat
    this one, or ``OUTER_MAX_ITER`` iterations ran (``trace.stop`` says which),
    and returns the best-objective iterate seen. ``analog_method`` (not in the
    dynamic-connected mode, whose analog step is always the SD switch with
    nearest-label phases) and ``digital_method`` override the solver per
    subproblem (e.g. to mix nearest-point quantization with message passing);
    ``digital_method="ls"`` keeps the digital entries continuous (ideal
    resolution, power-rescaled), in which case the returned step is NaN.
    """
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    dynamic = mode == DYNAMIC_CONNECTED
    if not dynamic and mode != FULLY_CONNECTED:
        raise ValueError(f"mode must be {FULLY_CONNECTED!r} or {DYNAMIC_CONNECTED!r}, got {mode!r}")
    if dynamic and analog_method is not None:
        raise ValueError(f"mode {DYNAMIC_CONNECTED!r} takes no analog_method")
    analog_method = analog_method or solver
    digital_method = digital_method or solver
    target = as_matrix(f_fd)
    n_t, ks = target.shape
    if config.m_rf > ks:
        raise ValueError(
            f"m_rf={config.m_rf} exceeds K*S={ks}; digital subproblems would be rank deficient"
        )
    p_s = per_subcarrier_power_mw(config)
    analog_alphabet = make_analog_alphabet(config.analog_bits)
    trace = AlternateTrace(iterates=[] if record_iterates else None)

    if dynamic:
        phase_diag = nearest_labels(init_analog_svd(target, 1)[:, 0], analog_alphabet)
        switch = _initial_switch(n_t, config.m_rf)
        f_rf = phase_diag[:, None] * switch
    else:
        phase_diag = None
        switch = None
        f_rf = init_analog_svd(target, config.m_rf)

    best = best_obj = None
    prev_obj = prev_state = None
    stats = trace.solver_stats
    for it in range(1, OUTER_MAX_ITER + 1):
        f_bb, delta, _, _ = optimize_digital(
            target, f_rf, p_s, digital_method, config.quant_levels, config.n_users, stats)
        if dynamic:
            switch = optimize_switch(target, phase_diag, f_bb, stats)
            phase_diag = optimize_phase_diag(target, switch, f_bb, analog_alphabet)
            f_rf = phase_diag[:, None] * switch
        else:
            f_rf = optimize_analog(target, f_bb, analog_method, analog_alphabet, stats,
                                   warm=f_rf if analog_method == "sesd" and it > 1 else None)

        obj = mse_to_target(target, f_rf, f_bb)
        trace.objective_per_outer_iter.append(obj)
        # every step returns new arrays, so the record holds them without copies
        snapshot = {"f_rf": f_rf, "f_bb": f_bb, "delta": delta, "switch": switch,
                    "phase_diag": phase_diag}
        if record_iterates:
            trace.iterates.append(snapshot)
        if best is None or obj < best_obj:
            best, best_obj = snapshot, obj
        # what the next iteration reads; the SD warm start is f_rf itself
        state = (switch.tobytes() + phase_diag.tobytes()) if dynamic else f_rf.tobytes()
        if prev_obj is not None and abs(prev_obj - obj) <= OUTER_TOL * max(prev_obj, 1e-30):
            trace.stop = "tolerance"
            break
        if state == prev_state:
            trace.stop = "fixed-point"
            break
        prev_obj, prev_state = obj, state

    return HybridPrecoder(**best, mode=mode), trace
