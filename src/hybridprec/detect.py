"""Exact and approximate finite-alphabet least-squares solvers.

Three routes to min ||c - G z||^2 with z restricted entrywise to a finite
label set: exhaustive enumeration (the oracle), Schnorr-Euchner sphere
decoding over a triangularized system (exact, usually far cheaper), and
expectation propagation (near-optimal, polynomial cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs, solve_triangular

from .alphabets import Alphabet

BRUTE_FORCE_GUARD = 2**24

LAMBDA_FLOOR = 1e-8      # moment-matched precisions are clamped here
OMEGA_FLOOR = 1e-12      # tilted variances are floored to avoid blow-up
SIGMA2_FLOOR = 1e-12     # error-variance estimate kept away from zero

# Sphere-decoder nodes expanded together. A search holds at most SD_BLOCK
# children per expansion and (labels - 1) pending blocks per level.
SD_BLOCK = 1024


class SingularGramError(np.linalg.LinAlgError):
    """Gram matrix not factorizable; carries a suggested diagonal loading."""

    def __init__(self, suggested_ridge: float):
        self.suggested_ridge = suggested_ridge
        super().__init__(
            f"Gram matrix numerically singular; retry with ridge={suggested_ridge:g}"
        )


class SearchSpaceError(ValueError):
    """Exhaustive enumeration refused: label count ** dimension over guard."""


class EPNumericalError(RuntimeError):
    """Non-finite intermediate inside the EP loop; ``index`` is the target."""

    def __init__(self, iteration: int, what: str, index: int = 0):
        self.iteration = iteration
        self.index = index
        super().__init__(f"EP produced non-finite {what} at iteration {iteration} for target {index}")


@dataclass
class TriangularSystem:
    """min ||c - G z||^2 rewritten as min ||d - R z||^2 + constant_offset;
    with ``order``, column j of R is entry ``order[j]`` of z."""

    r: np.ndarray
    d: np.ndarray
    constant_offset: float
    ridge: float = 0.0
    order: Optional[np.ndarray] = None


@dataclass
class SolveResult:
    """A solve's result; counts, EP targets ``truncated`` at max_iter included, sum over targets."""

    z: np.ndarray
    objective: float
    nodes_visited: int = 0
    iterations: int = 0
    wall_time_s: float = 0.0
    truncated: int = 0
    diagnostics: Optional[dict] = None


@dataclass
class EPState:
    """EP factors and moments at each target's last iteration; a batch adds a leading target axis."""

    lambda_diag: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray
    sigma_diag: np.ndarray
    sigma2_hat: Union[float, np.ndarray]
    cavity_var: np.ndarray
    cavity_mean: np.ndarray
    tilted_mean: np.ndarray
    tilted_var: np.ndarray
    iteration: Union[int, np.ndarray]


def suggested_ridge(gram: np.ndarray) -> float:
    """Default diagonal loading when a Gram factorization fails."""
    base = 1e-10 * float(np.real(np.trace(gram))) / max(gram.shape[0], 1)
    return base if base > 0 else 1e-12


def cholesky_with_retry(gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Upper-triangular factor of the Gram matrix, diagonally loaded if needed."""
    try:
        return np.linalg.cholesky(gram).conj().T, 0.0
    except np.linalg.LinAlgError:
        ridge = suggested_ridge(gram)
        loaded = gram + ridge * np.eye(gram.shape[0], dtype=gram.dtype)
        return np.linalg.cholesky(loaded).conj().T, ridge


def forward_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """R^H x = b for upper-triangular R: the trsm call of ``solve_triangular(r.conj().T,
    b, lower=True)``, without its checks and the thread dispatch of LAPACK trtrs, which
    dominate at these sizes and stall when the other cores are busy."""
    trsm, = get_blas_funcs(("trsm",), (r, b))
    return trsm(1.0, r.conj(), b, lower=0, trans_a=1)


def ordered_triangular(gram: np.ndarray, proj: np.ndarray) -> TriangularSystem:
    """Column-ordered system for min ||c - G z||^2 from gram = G^H G and
    proj = G^H c (one target or one per column), with constant_offset 0.

    Columns go by decreasing diagonal of the inverse Gram, loaded with
    ``suggested_ridge`` to stay finite when columns repeat, so the search
    assigns first the entry of largest post-detection gain. The load picks
    the order only: the factor is of the permuted Gram, ridge-loaded only if
    its factorization fails. A permutation keeps the box alphabet, so the
    search stays exact.
    """
    loaded = gram + suggested_ridge(gram) * np.eye(gram.shape[0], dtype=gram.dtype)
    order = np.argsort(-np.real(np.diagonal(np.linalg.inv(loaded))), kind="stable")
    r, ridge = cholesky_with_retry(gram[np.ix_(order, order)])
    d = forward_solve(r, proj[order])
    return TriangularSystem(r=r, d=d, constant_offset=0.0, ridge=ridge, order=order)


def prepare_triangular(g: np.ndarray, c: np.ndarray, ridge: float = 0.0) -> TriangularSystem:
    """Cholesky reduction of ||c - G z||^2 to an upper-triangular system.

    With ridge = 0 the two objectives agree up to ``constant_offset``;
    a positive ridge regularizes the Gram matrix (adds ridge*||z||^2).
    Raises SingularGramError with a suggested ridge when factorization fails.
    """
    g = np.asarray(g)
    c = np.asarray(c)
    gram = g.conj().T @ g
    if ridge > 0:
        gram = gram + ridge * np.eye(gram.shape[0], dtype=gram.dtype)
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise SingularGramError(suggested_ridge(gram)) from None
    r = lower.conj().T
    d = solve_triangular(lower, g.conj().T @ c, lower=True)
    offset = float(np.real(np.vdot(c, c) - np.vdot(d, d)))
    return TriangularSystem(r=r, d=d, constant_offset=offset, ridge=ridge)


def realify(d: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked real form of a complex system; squared norms are preserved.

    Returns ([Re d; Im d], [[Re r, -Im r], [Im r, Re r]]).
    """
    d = np.asarray(d)
    r = np.asarray(r)
    d_r = np.concatenate([d.real, d.imag])
    rows, cols = r.shape
    r_r = np.empty((2 * rows, 2 * cols), dtype=r.real.dtype)
    r_r[:rows, :cols] = r_r[rows:, cols:] = r.real
    r_r[:rows, cols:], r_r[rows:, :cols] = -r.imag, r.imag
    return d_r, r_r


def residual_norm_sq(c: np.ndarray, g: np.ndarray, z: np.ndarray) -> float:
    diff = c - g @ z
    return float(np.real(np.vdot(diff, diff)))


def brute_force_ml(c: np.ndarray, g: np.ndarray, alphabet: Alphabet,
                   guard: int = BRUTE_FORCE_GUARD) -> SolveResult:
    """Global minimizer of ||c - G z||^2 by full enumeration.

    Ties resolve to the lexicographically smallest label-index vector.
    Refuses when |alphabet|^M exceeds ``guard``.
    """
    t0 = time.perf_counter()
    c = np.asarray(c)
    g = np.asarray(g)
    labels = alphabet.labels
    m = g.shape[1]
    n_cand = len(labels) ** m
    if n_cand > guard:
        raise SearchSpaceError(
            f"{len(labels)}^{m} = {n_cand} candidates exceeds guard {guard}"
        )
    best_obj = np.inf
    best_idx: Optional[np.ndarray] = None
    shape = (len(labels),) * m
    chunk = 1 << 16
    for start in range(0, n_cand, chunk):
        flat = np.arange(start, min(start + chunk, n_cand))
        idx = np.stack(np.unravel_index(flat, shape), axis=1)
        zc = labels[idx]
        resid = c[None, :] - zc @ g.T
        obj = np.einsum("ij,ij->i", resid, resid.conj()).real
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_idx = idx[j].copy()
    z = labels[best_idx]
    return SolveResult(
        z=z,
        objective=residual_norm_sq(c, g, z),
        nodes_visited=n_cand,
        wall_time_s=time.perf_counter() - t0,
    )


def sesd_solve(system: TriangularSystem, alphabet: Alphabet,
               warm_starts: Optional[np.ndarray] = None) -> SolveResult:
    """Schnorr-Euchner sphere decoder: exact minimizers of ||d_p - R z||^2.

    ``system.d`` is one target ``(m,)`` or ``P`` targets stacked as columns
    ``(m, P)``, all sharing the factor R; ``constant_offset`` is a scalar or
    one value per target, and ``warm_starts`` an optional ``(m,)`` or
    ``(P, m)`` array of alphabet-member vectors, in natural order when the
    system carries an ``order``. Each problem's incumbent is
    the nearest-label rounding of its unconstrained triangular solve, then its
    warm start and its Babai point (first child at every level), each only if
    strictly better.

    The search runs breadth-first within blocks of at most ``SD_BLOCK`` nodes
    and depth-first across blocks. A block is expanded one level at once;
    each node's children are taken in stable Schnorr-Euchner order (increasing
    increment), a child survives only if its partial cost is strictly below
    its own problem's incumbent, and the survivors are split into blocks
    pushed so the earliest is expanded first. Leaves therefore appear in
    depth-first visit order, and the first leaf strictly below a problem's
    incumbent replaces it: ties go to the incumbent, then to the first
    minimum-cost leaf. Incumbents affect speed only, never optimality.

    Returns ``z`` of shape ``(m,)`` or ``(P, m)``, the objective (scalar or
    per target), ``nodes_visited`` summed over the batch (search nodes kept;
    the Babai pass is not counted), and in ``diagnostics`` the largest number
    of children one block expansion kept (``peak_frontier``).
    """
    t0 = time.perf_counter()
    labels = alphabet.labels
    d = np.asarray(system.d)
    single = d.ndim == 1
    targets = d[:, None] if single else d
    m, n_prob = targets.shape
    if m == 0:
        raise ValueError("empty system")
    dtype = np.result_type(system.r.dtype, d.dtype, labels.dtype)
    r = system.r.astype(dtype, copy=False)
    targets = targets.astype(dtype, copy=False)
    labels = labels.astype(dtype, copy=False)
    warm = None if warm_starts is None else np.array(warm_starts, dtype=dtype).reshape(n_prob, m)
    if warm is not None and system.order is not None:
        warm = warm[:, system.order]
    if not (np.isfinite(r).all() and np.isfinite(targets).all()):
        raise ValueError("triangular system has non-finite entries")

    # Per-target incumbents, with the arithmetic of a single-target solve: a
    # many-column triangular solve or residual rounds differently, and the
    # incumbent decides near-ties. This is the LAPACK call solve_triangular
    # makes, without its per-call validation.
    trtrs, = get_lapack_funcs(("trtrs",), (r,))
    a, lower, trans = (r, False, 0) if r.flags.f_contiguous else (r.T, True, 1)
    unconstrained = np.empty((n_prob, m), dtype=dtype)
    for j in range(n_prob):
        unconstrained[j], info = trtrs(a, targets[:, j], lower=lower, trans=trans)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular factor: zero diagonal at {info - 1}")
    z_best = labels[np.argmin(np.abs(unconstrained[:, :, None] - labels), axis=2)]
    roots = np.ascontiguousarray(targets.T)
    best = _residuals(roots, r, z_best)

    def offer(cost: np.ndarray, z: np.ndarray) -> None:
        better = cost < best
        best[better] = cost[better]
        z_best[better] = z[better]

    if warm is not None:
        offer(_residuals(roots, r, warm), warm)
    scaled = np.real(np.diag(r))[:, None] * labels  # R_ii times every label
    cols = [r[:i, i].copy() for i in range(m)]
    index_type = np.min_scalar_type(len(labels) - 1)
    # the Babai point is the first leaf a depth-first search reaches, so
    # taking it first keeps the tie rule and tightens every incumbent early
    y, cost, every = roots, np.zeros(n_prob), np.arange(n_prob)
    path = np.empty((n_prob, m), dtype=index_type)
    for level in range(m - 1, -1, -1):
        increments = np.abs(y[:, level, None] - scaled[level]) ** 2
        k = increments.argmin(axis=1)
        cost = cost + increments[every, k]
        path[:, level] = k
        y = y[:, :level] - cols[level] * labels[k][:, None]
    offer(cost, labels[path])
    # a block: (level to assign, problem ids, residual prefixes, partial costs, label-index paths)
    stack: list = []
    _push_blocks(stack, m - 1, every, roots, np.zeros(n_prob),
                 np.zeros((n_prob, m), dtype=index_type))
    nodes = 0
    peak = 0
    while stack:
        level, prob, y, cost, path = stack.pop()
        increments = np.abs(y[:, level, None] - scaled[level]) ** 2
        order = increments.argsort(axis=1, kind="stable")
        child = cost[:, None] + increments
        child.sort(axis=1)  # the same values as cost + sorted increments
        rows, ranks = (child < best[prob][:, None]).nonzero()
        if len(rows) == 0:
            continue
        nodes += len(rows)
        peak = max(peak, len(rows))
        k = order[rows, ranks]
        cost, prob, path = child[rows, ranks], prob[rows], path[rows]
        path[:, level] = k
        if level == 0:
            # first minimum-cost leaf of each problem in visit order (lexsort is stable)
            first = np.lexsort((cost, prob))
            ordered = prob[first]
            head = first[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            best[prob[head]] = cost[head]
            z_best[prob[head]] = labels[path[head]]
        else:
            y = y[rows, :level] - cols[level] * labels[k][:, None]
            _push_blocks(stack, level - 1, prob, y, cost, path)

    objective = best + system.constant_offset
    if system.order is not None:
        z_best[:, system.order] = z_best.copy()
    return SolveResult(
        z=z_best[0] if single else z_best,
        objective=float(objective[0]) if single else objective,
        nodes_visited=nodes,
        wall_time_s=time.perf_counter() - t0,
        diagnostics={"peak_frontier": peak},
    )


def _push_blocks(stack: list, level: int, prob: np.ndarray, y: np.ndarray,
                 cost: np.ndarray, path: np.ndarray) -> None:
    """Push nodes in blocks of at most SD_BLOCK, the earliest block on top."""
    if len(prob) <= SD_BLOCK:
        stack.append((level, prob, y, cost, path))
        return
    for start in reversed(range(0, len(prob), SD_BLOCK)):
        part = slice(start, start + SD_BLOCK)
        stack.append((level, prob[part], y[part], cost[part], path[part]))


def _robust_inverse(a: np.ndarray, iteration: int, index: np.ndarray) -> np.ndarray:
    """Inverse of each member of a (P, m, m) stack; ``index`` numbers them.

    The likelihood precision can dwarf the factor precisions by enough that
    their diagonal contribution is absorbed in floating point, leaving an
    exactly singular matrix; a tiny relative jitter restores it. Only the
    singular members of a stack are retried with jitter.
    """
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise EPNumericalError(iteration, "posterior precision", int(index[np.argmin(finite)]))
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        if len(a) > 1:
            return np.concatenate([_robust_inverse(a[j:j + 1], iteration, index[j:j + 1])
                                   for j in range(len(a))])
    scale = float(np.abs(np.diagonal(a[0])).max()) or 1.0
    jitter = 1e-14 * scale
    eye = np.eye(a.shape[1])
    while jitter <= 1e-3 * scale:
        try:
            return np.linalg.inv(a + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 100.0
    raise EPNumericalError(iteration, "posterior covariance", int(index[0]))


def _sq_norms(x: np.ndarray, conj: bool = True) -> np.ndarray:
    """Squared norm of each row by one BLAS dot: a row rounds as np.vdot(row,
    row) does, or with ``conj=False`` as np.linalg.norm(row) ** 2 (real and
    imaginary parts dotted apart), whatever the other rows hold."""
    if np.iscomplexobj(x) and not conj:
        return _sq_norms(x.real) + _sq_norms(x.imag)
    return (x.conj()[:, None, :] @ x[:, :, None])[:, 0, 0].real


def _residuals(targets: np.ndarray, g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||t_p - G z_p||^2 for rows t_p and z_p, rounded as residual_norm_sq."""
    return _sq_norms(targets - (g @ z[:, :, None])[:, :, 0])


def _relative_change(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """||new_p - old_p|| / max(||old_p||, 1e-30) per row, rounded as np.linalg.norm."""
    return np.sqrt(_sq_norms(new - old, conj=False)) / np.maximum(
        np.sqrt(_sq_norms(old, conj=False)), 1e-30)


def ep_solve(c: np.ndarray, g: np.ndarray, alphabet: Alphabet,
             damping: float = 0.2, max_iter: int = 30, tol: float = 1e-4) -> SolveResult:
    """Expectation propagation for min ||c - G z||^2 over a finite alphabet.

    Iterates the Gaussian approximation of the discrete posterior: global
    moments, per-entry cavity moments, tilted moments over the labels,
    damped moment matching, and a residual-based refresh of the error
    variance. Runs complex-valued when inputs are complex, real-valued
    otherwise. Returns the best hard decision (entrywise nearest label to
    the posterior mean) observed across iterations.

    ``c`` is one target ``(n,)`` or ``P`` targets as columns ``(n, P)`` sharing
    ``G``. Each target leaves the batch when it converges, so it gets the result
    of a solve of it alone; ``iterations`` is summed over targets and
    ``truncated`` counts those that reached ``max_iter``.
    """
    t0 = time.perf_counter()
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    c = np.asarray(c)
    g = np.asarray(g)
    labels = alphabet.labels
    complex_mode = np.iscomplexobj(g) or np.iscomplexobj(c) or np.iscomplexobj(labels)
    dtype = np.complex128 if complex_mode else np.float64
    single = c.ndim == 1
    targets = np.ascontiguousarray((c[:, None] if single else c).T, dtype=dtype)  # (P, n)
    g = g.astype(dtype, copy=False)
    labels = labels.astype(dtype, copy=False)
    n_prob, m = targets.shape[0], g.shape[1]
    finite = np.isfinite(targets).all(axis=1) & np.isfinite(g).all()
    if not finite.all():
        raise EPNumericalError(1, "inputs", int(np.argmin(finite)))

    gram = g.conj().T @ g
    gc = (g.conj().T @ targets[:, :, None])[:, :, 0]  # one gemv per target
    eye = np.eye(m)

    # state of the targets still iterating, numbered by `active`
    active = np.arange(n_prob)
    lam = np.ones((n_prob, m))
    gam = np.zeros((n_prob, m), dtype=dtype)
    sigma2 = np.ones(n_prob)
    z_best = np.full((n_prob, m), labels[0])
    best = np.full(n_prob, np.inf)
    mu_prev = var_prev = zeta = nu = rho = omega = None
    final: dict = {}  # EPState fields, z and objective of every target

    def finish(done: np.ndarray, iteration: int) -> None:
        fields = dict(z=z_best, objective=best, lambda_diag=lam, gamma=gam, mu=mu,
                      sigma_diag=var, sigma2_hat=sigma2, cavity_var=zeta, cavity_mean=nu,
                      tilted_mean=rho, tilted_var=omega,
                      iteration=np.full(len(active), iteration))
        for name, value in fields.items():
            final.setdefault(name, np.empty((n_prob,) + value.shape[1:], value.dtype))
            final[name][active[done]] = value[done]

    for iteration in range(1, max_iter + 1):
        cov = _robust_inverse(gram / sigma2[:, None, None] + lam[:, None, :] * eye,
                              iteration, active)
        mu = (cov @ (gc / sigma2[:, None] + gam)[:, :, None])[:, :, 0]
        var = np.diagonal(cov, axis1=1, axis2=2).real
        finite = np.isfinite(mu).all(axis=1) & np.isfinite(var).all(axis=1)
        if not finite.all():
            raise EPNumericalError(iteration, "posterior moments", int(active[np.argmin(finite)]))

        z = labels[np.argmin(np.abs(mu[:, :, None] - labels), axis=2)]
        obj = _residuals(targets, g, z)
        better = obj < best
        best[better] = obj[better]
        z_best[better] = z[better]

        if mu_prev is not None:
            done = (_relative_change(mu, mu_prev) < tol) & (_relative_change(var, var_prev) < tol)
            if done.any():
                finish(done, iteration)
                keep = ~done
                active, targets, gc, lam, gam, sigma2, z_best, best, mu, var = (
                    a[keep] for a in (active, targets, gc, lam, gam, sigma2, z_best, best, mu, var))
                if not len(active):
                    break
        mu_prev, var_prev = mu, var

        zeta = np.maximum(var / np.maximum(1.0 - var * lam, 1e-12), 1e-300)
        nu = zeta * (mu / var - gam)

        # subtract the per-row minimum before scaling so the best label sits at
        # log-weight 0 even when the cavity variance has collapsed
        sq = np.abs(labels - nu[:, :, None]) ** 2
        sq -= sq.min(axis=2, keepdims=True)
        w = np.exp(-sq / (zeta[:, :, None] if complex_mode else 2.0 * zeta[:, :, None]))
        w /= w.sum(axis=2, keepdims=True)
        rho = w @ labels
        omega = np.maximum(np.sum(w * np.abs(labels - rho[:, :, None]) ** 2, axis=2), OMEGA_FLOOR)

        lam_new = 1.0 / omega - 1.0 / zeta
        gam_new = rho / omega - nu / zeta
        bad = lam_new <= LAMBDA_FLOOR
        lam_new = np.where(bad, LAMBDA_FLOOR, lam_new)
        gam_new = np.where(bad, gam, gam_new)
        lam = (1.0 - damping) * lam_new + damping * lam
        gam = (1.0 - damping) * gam_new + damping * gam

        sigma2 = np.maximum(_residuals(targets, g, rho) / m, SIGMA2_FLOOR)
        finite = np.isfinite(sigma2)
        if not finite.all():
            raise EPNumericalError(iteration, "error variance", int(active[np.argmin(finite)]))
    truncated = len(active)
    finish(np.ones(truncated, dtype=bool), max_iter)

    final = {name: value[0] if single else value for name, value in final.items()}
    z, objective = final.pop("z"), final.pop("objective")
    return SolveResult(
        z=z,
        objective=float(objective) if single else objective,
        iterations=int(np.sum(final["iteration"])),
        wall_time_s=time.perf_counter() - t0,
        truncated=truncated,
        diagnostics={"state": EPState(**final)},
    )
