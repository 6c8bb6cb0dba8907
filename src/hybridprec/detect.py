"""Exact and approximate finite-alphabet least-squares solvers.

Three routes to min ||c - G z||^2 with z restricted entrywise to a finite
label set: exhaustive enumeration (the oracle), Schnorr-Euchner sphere
decoding over a triangularized system (exact, usually far cheaper), and
expectation propagation (near-optimal, polynomial cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .alphabets import Alphabet, _nearest

BRUTE_FORCE_GUARD = 2**24

LAMBDA_FLOOR = 1e-8      # moment-matched precisions are clamped here
OMEGA_FLOOR = 1e-12      # tilted variances are floored to avoid blow-up
SIGMA2_FLOOR = 1e-12     # error-variance estimate kept away from zero

# Sphere-decoder nodes expanded together. A search holds at most SD_BLOCK
# children per expansion and (labels - 1) pending blocks per level.
SD_BLOCK = 1024


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
    """min ||c - G z||^2 rewritten as min ||d - R z[order]||^2 + constant_offset:
    column j of R is entry ``order[j]`` of z."""

    r: np.ndarray
    d: np.ndarray
    constant_offset: float  # or one value per target
    order: np.ndarray
    ridge: float = 0.0


@dataclass
class SolveResult:
    """A solve's result; counts, EP targets ``truncated`` at max_iter included, sum over targets."""

    z: np.ndarray
    objective: float
    nodes_visited: int = 0
    iterations: int = 0
    truncated: int = 0
    diagnostics: Optional[dict] = None


def prepare_triangular(g: np.ndarray, c: np.ndarray, alphabet: Alphabet) -> TriangularSystem:
    """Column-ordered Cholesky reduction of ||c - G z||^2 over ``alphabet``.

    ``c`` is one target ``(n,)`` or ``P`` targets as columns ``(n, P)``, all
    sharing one factor; ``constant_offset`` is ``||c||^2 - ||d||^2`` per target.
    Columns go by increasing batch mean of |x - mean label|, x the solution of
    the Gram loaded with rho = 1e-10 * trace(G^H G) / m (Chang & Han, IEEE TWC
    2008), so the search assigns the entries furthest outside the label box
    first. A Gram that does not factor is factored so loaded (``ridge`` = rho;
    adds rho*||z||^2). The search stays exact. Tie rule: equal keys keep the
    natural order, and of several exactly tied minimizers ``sesd_solve``
    returns the first in its search over the permuted columns, so the order
    decides only which one.
    """
    g, c = np.asarray(g), np.asarray(c)
    g_h = g.conj().T
    gram, proj = g_h @ g, g_h @ c
    m = len(gram)
    rho = 1e-10 * float(gram.trace().real) / max(m, 1) or 1e-12  # 1e-12: an all-zero Gram
    loaded = gram + rho * np.eye(m)
    # positive definite once loaded: a LinAlgError here means a non-finite Gram
    x = np.linalg.solve(loaded, proj)
    spread = np.abs(x - alphabet.labels.sum() / len(alphabet.labels))
    order = spread.reshape(m, -1).sum(axis=1).argsort(kind="stable")  # as the mean
    try:
        r, ridge = np.linalg.cholesky(gram.take(order, 0).take(order, 1)).conj().T, 0.0
    except np.linalg.LinAlgError:
        r, ridge = np.linalg.cholesky(loaded.take(order, 0).take(order, 1)).conj().T, rho
    # R^H d = proj[order] as its row- and column-reversed system, upper triangular:
    # LU with partial pivoting leaves it unpivoted, so the solve is one back substitution
    d = np.linalg.solve(r[::-1, ::-1].conj().T, proj.take(order, 0)[::-1])[::-1]
    offsets = (np.abs(c) ** 2).sum(axis=0) - (np.abs(d) ** 2).sum(axis=0)
    return TriangularSystem(r=r, d=d, constant_offset=offsets, order=order, ridge=ridge)


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


def brute_force_ml(c: np.ndarray, g: np.ndarray, alphabet: Alphabet) -> SolveResult:
    """Global minimizer of ||c - G z||^2 by full enumeration.

    Ties resolve to the lexicographically smallest label-index vector.
    Refuses when |alphabet|^M exceeds ``BRUTE_FORCE_GUARD``.
    """
    c = np.asarray(c)
    g = np.asarray(g)
    labels = alphabet.labels
    m = g.shape[1]
    n_cand = len(labels) ** m
    if n_cand > BRUTE_FORCE_GUARD:
        raise SearchSpaceError(
            f"{len(labels)}^{m} = {n_cand} candidates exceeds guard {BRUTE_FORCE_GUARD}"
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
    )


def sesd_solve(system: TriangularSystem, alphabet: Alphabet,
               warm_starts: Optional[np.ndarray] = None) -> SolveResult:
    """Schnorr-Euchner sphere decoder: exact minimizers of ||d_p - R z||^2.

    ``system.d`` is one target ``(m,)`` or ``P`` targets stacked as columns
    ``(m, P)``, all sharing the factor R; ``constant_offset`` is a scalar or
    one value per target, and ``warm_starts`` an optional ``(m,)`` or
    ``(P, m)`` array of alphabet-member vectors in natural order; ``z`` comes
    back in natural order too. Each problem's incumbent is its warm start, if
    given, then its Babai point (the nearest label at every level, the first
    leaf of a depth-first Schnorr-Euchner search) if strictly better.

    The search runs breadth-first within blocks of at most ``SD_BLOCK`` nodes
    and depth-first across blocks. A block is expanded one level at once;
    each node's children are taken in stable Schnorr-Euchner order (increasing
    increment), a child survives only if its partial cost is strictly below
    its own problem's incumbent, and the survivors are split into blocks
    pushed so the earliest is expanded first. Leaves therefore appear in
    depth-first visit order, and the first leaf strictly below a problem's
    incumbent replaces it. Tie rule: the warm start if it ties the optimum,
    else the first minimum-cost leaf in depth-first Schnorr-Euchner order.
    Incumbents affect speed only, never optimality.

    Returns ``z`` of shape ``(m,)`` or ``(P, m)``, the objective (scalar or
    per target), ``nodes_visited`` summed over the batch (search nodes kept;
    the Babai pass is not counted), and in ``diagnostics`` the largest number
    of children one block expansion kept (``peak_frontier``).
    """
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
    warm = None if warm_starts is None else (  # in the search order
        np.array(warm_starts, dtype=dtype).reshape(n_prob, m)[:, system.order])
    if not (np.isfinite(r).all() and np.isfinite(targets).all()):
        raise ValueError("triangular system has non-finite entries")

    roots = np.ascontiguousarray(targets.T)
    scaled = np.real(np.diag(r))[:, None] * labels  # R_ii times every label
    cols = [r[:i, i].copy() for i in range(m)]
    index_type = np.min_scalar_type(len(labels) - 1)
    # the Babai point is the first leaf a depth-first search reaches, so
    # taking it first keeps the tie rule and tightens every incumbent early
    y, best, every = roots, np.zeros(n_prob), np.arange(n_prob)
    path = np.empty((n_prob, m), dtype=index_type)
    for level in range(m - 1, -1, -1):
        increments = np.abs(y[:, level, None] - scaled[level]) ** 2
        k = increments.argmin(axis=1)
        best = best + increments[every, k]
        path[:, level] = k
        y = y[:, :level] - cols[level] * labels[k][:, None]
    z_best = labels[path]
    if warm is not None:
        warm_cost = _residuals(roots, r, warm)
        kept = warm_cost <= best
        best[kept] = warm_cost[kept]
        z_best[kept] = warm[kept]
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
    z_best[:, system.order] = z_best.copy()
    return SolveResult(
        z=z_best[0] if single else z_best,
        objective=float(objective[0]) if single else objective,
        nodes_visited=nodes,
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
    _check_finite(iteration, "posterior precision", index, a)
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


def _check_finite(iteration: int, what: str, index: np.ndarray, a: np.ndarray) -> None:
    """One test of all entries; the first bad row is looked up, by ``index``, on failure only."""
    if not np.isfinite(a).all():
        finite = np.isfinite(a).reshape(len(a), -1).all(axis=1)
        raise EPNumericalError(iteration, what, int(index[np.argmin(finite)]))


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row by one BLAS dot: a row rounds as np.vdot(row,
    row) does (for real rows, as np.linalg.norm(row) ** 2), whatever the other
    rows hold."""
    return (x.conj()[:, None, :] @ x[:, :, None])[:, 0, 0].real


def _residuals(targets: np.ndarray, g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||t_p - G z_p||^2 for rows t_p and z_p, rounded as residual_norm_sq."""
    return _sq_norms(targets - (g @ z[:, :, None])[:, :, 0])


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
    of a solve of it alone. ``iterations`` is summed over targets,
    ``diagnostics["iterations"]`` holds each target's own, shape ``(P,)`` or
    ``(1,)``, ``diagnostics["found"]`` the iteration whose decision it returns,
    and ``truncated`` counts the targets that reached ``max_iter``.
    """
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
    if not np.isfinite(g).all():
        raise EPNumericalError(1, "inputs", 0)
    _check_finite(1, "inputs", np.arange(n_prob), targets)

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
    found = np.zeros(n_prob, int)  # the iteration of each z_best
    prev = None
    # labels, objective, iteration count and found-at iteration of every target, filled as it leaves
    z_out, obj_out = np.empty_like(z_best), np.empty(n_prob)
    iters_out, found_out = np.empty(n_prob, int), np.empty(n_prob, int)

    def finish(idx: np.ndarray, iteration: int) -> None:
        ids = active[idx]
        z_out[ids], obj_out[ids], iters_out[ids] = z_best[idx], best[idx], iteration
        found_out[ids] = found[idx]

    for iteration in range(1, max_iter + 1):
        cov = _robust_inverse(gram / sigma2[:, None, None] + lam[:, None, :] * eye,
                              iteration, active)
        mu = (cov @ (gc / sigma2[:, None] + gam)[:, :, None])[:, :, 0]
        var = np.diagonal(cov, axis1=1, axis2=2).real
        # per target, the real rows (Re mu, Im mu, var), or (mu, var), end to end
        state = np.concatenate((mu.real, mu.imag, var) if complex_mode else (mu, var), axis=1)
        _check_finite(iteration, "posterior moments", active, state)

        z = _nearest(mu, labels)
        obj = _residuals(targets, g, z)
        better = obj < best
        np.copyto(best, obj, where=better)
        np.copyto(z_best, z, where=better[:, None])
        found[better] = iteration

        if prev is not None:
            # ||change|| / max(||previous||, 1e-30) of mu and var as np.linalg.norm rounds it
            rows = np.concatenate((state - prev, prev), axis=1).reshape(-1, m)
            sq = (rows[:, None, :] @ rows[:, :, None]).reshape(len(state), -1)  # a dot per row
            norms = np.sqrt(np.add.reduceat(sq, [0, 2, 3, 5], axis=1) if complex_mode else sq)
            done = (norms[:, :2] / np.maximum(norms[:, 2:], 1e-30) < tol).all(axis=1)
            if done.any():
                finish(np.flatnonzero(done), iteration)
                keep = np.flatnonzero(~done)
                active, targets, gc, lam, gam, sigma2, z_best, best, found, mu, var, state = (
                    a[keep] for a in (active, targets, gc, lam, gam, sigma2, z_best, best, found,
                                      mu, var, state))
                if not len(active):
                    break
        prev = state

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
        _check_finite(iteration, "error variance", active, sigma2)
    truncated = len(active)
    finish(np.arange(truncated), max_iter)

    return SolveResult(
        z=z_out[0] if single else z_out,
        objective=float(obj_out[0]) if single else obj_out,
        iterations=int(np.sum(iters_out)),
        truncated=truncated,
        diagnostics={"iterations": iters_out, "found": found_out},
    )
