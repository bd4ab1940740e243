"""Independent reference implementations used to check production code.

Everything here is deliberately written the slow, literal way (explicit
loops, exhaustive enumeration) so a test failure points at the production
code rather than at a shared shortcut.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_ASSIGNMENTS: dict[int, list[tuple[int, ...]]] = {}


def _assignments(n: int) -> list[tuple[int, ...]]:
    """All ways to pin each variable to {lower, upper, free}, most-free
    first (the unconstrained-interior optimum is the common case)."""
    if n not in _ASSIGNMENTS:
        rows = list(itertools.product((0, 1, 2), repeat=n))
        rows.sort(key=lambda a: -sum(1 for v in a if v == 2))
        _ASSIGNMENTS[n] = rows
    return _ASSIGNMENTS[n]


def qp_minimum(q: np.ndarray, y: np.ndarray, c: float, tol: float = 1e-8):
    """Global minimum of 1/2 a'Qa - 1'a over {a'y = 0, 0 <= a <= c}.

    Enumerates active sets: each variable is pinned at 0, pinned at c, or
    free; the free block is solved through the equality-constrained
    stationarity system. Q is PSD, so the problem is convex and any
    assignment yielding a feasible KKT point is globally optimal.
    Returns (alpha, objective).
    """
    q = np.asarray(q, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    for assign in _assignments(n):
        alpha = np.array([0.0 if a == 0 else c if a == 1 else 0.0 for a in assign])
        free = np.array([a == 2 for a in assign])
        bound = ~free
        if not free.any():
            if abs(float(y @ alpha)) > tol:
                continue
            grad = q @ alpha - 1.0
            ok, _ = _multiplier_interval(grad, y, alpha, c, tol)
            if not ok:
                continue
        else:
            nf = int(free.sum())
            a_mat = np.zeros((nf + 1, nf + 1))
            a_mat[:nf, :nf] = q[np.ix_(free, free)]
            a_mat[:nf, nf] = y[free]
            a_mat[nf, :nf] = y[free]
            rhs = np.concatenate(
                [1.0 - q[np.ix_(free, bound)] @ alpha[bound], [-float(y[bound] @ alpha[bound])]]
            )
            sol, _, _, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
            if np.linalg.norm(a_mat @ sol - rhs) > tol * max(1.0, np.linalg.norm(rhs)):
                continue
            a_free, nu = sol[:nf], float(sol[nf])
            if a_free.min() < -tol or a_free.max() > c + tol:
                continue
            alpha = alpha.copy()
            alpha[free] = np.clip(a_free, 0.0, c)
            grad = q @ alpha - 1.0
            if not _signs_ok(grad, y, alpha, c, nu, tol):
                continue
        obj = 0.5 * float(alpha @ q @ alpha) - float(alpha.sum())
        return alpha, obj
    raise AssertionError("no KKT point found; oracle tolerance too tight")


def _multiplier_interval(grad, y, alpha, c, tol):
    """Feasible interval for the equality multiplier when no variable is
    free. Returns (nonempty, midpoint)."""
    lo, hi = -math.inf, math.inf
    for i in range(y.size):
        g, yi = float(grad[i]), float(y[i])
        if alpha[i] <= tol:  # at lower bound: g + nu*y >= 0
            if yi > 0:
                lo = max(lo, -g)
            else:
                hi = min(hi, g)
        else:  # at upper bound: g + nu*y <= 0
            if yi > 0:
                hi = min(hi, -g)
            else:
                lo = max(lo, g)
    return lo <= hi + tol, min(max(0.0, lo), hi) if lo <= hi else 0.0


def _signs_ok(grad, y, alpha, c, nu, tol):
    for i in range(y.size):
        mu = float(grad[i] + nu * y[i])
        if alpha[i] <= tol and mu < -tol:
            return False
        if alpha[i] >= c - tol and alpha[i] > tol and mu > tol:
            return False
    return True


def kkt_residual(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray,
                 bias: float, c: float) -> float:
    """Worst complementary-slackness violation of an SVM dual solution.

    kernel is the effective (ridge-included) kernel matrix. For free
    alphas the margin must be 1; at the bounds it is one-sided.
    """
    f = kernel @ (alpha * y) + bias
    worst = 0.0
    for i in range(y.size):
        m = float(y[i] * f[i])
        if alpha[i] < 1e-8:
            worst = max(worst, max(0.0, 1.0 - m))
        elif alpha[i] > c - 1e-8:
            worst = max(worst, max(0.0, m - 1.0))
        else:
            worst = max(worst, abs(m - 1.0))
    return worst


def kde_triple_loop(features: dict[str, np.ndarray], sigma: dict[str, float]):
    """Literal evaluation of the pool-confidence formula: for each member
    i, (1/(M*N)) * sum over members j and channels m of
    exp(-||f_m^i - f_m^j||^2 / sigma_m^2)."""
    channels = sorted(features)
    n = features[channels[0]].shape[0]
    m = len(channels)
    out = []
    for i in range(n):
        acc = 0.0
        for j in range(n):
            for ch in channels:
                diff = features[ch][i] - features[ch][j]
                d2 = float(np.dot(diff, diff))
                acc += math.exp(-d2 / (sigma[ch] * sigma[ch]))
        out.append(acc / (m * n))
    return np.array(out)


def ap_precision_at_k(ordering, relevance) -> float:
    """AP as the mean of precision@k over ranks of relevant items, with
    each precision@k recounted from scratch."""
    total = sum(1 for item in ordering if relevance[item])
    if total == 0:
        raise ValueError("no relevant items")
    acc = 0.0
    for k in range(1, len(ordering) + 1):
        if relevance[ordering[k - 1]]:
            hits = sum(1 for item in ordering[:k] if relevance[item])
            acc += hits / k
    return acc / total


def fusion_formula(orderings: list[list[str]]):
    """Literal normalized rank fusion: R(i) = (1/d) * sum_j (1 - r_j/n).

    Returns (scores, fused ordering) with ties broken by video id.
    """
    d = len(orderings)
    videos = sorted(orderings[0])
    n = len(videos)
    scores = {}
    for v in videos:
        acc = 0.0
        for ordering in orderings:
            acc += 1.0 - (ordering.index(v) + 1) / n
        scores[v] = acc / d
    fused = sorted(videos, key=lambda v: (-scores[v], v))
    return scores, fused


def smo(q, y, c, tol, alpha0=None, *, concept_id="", max_iter=None):
    """Minimize 1/2 a'Qa - 1'a subject to a'y = 0, 0 <= a <= C on one dual
    by detect's pair updates (detect._smo_steps) on a second-order working
    set: i is the maximal violator, j the partner with the largest
    guaranteed decrease. Stops when the maximal violation drops below
    tol > 0, or warns after max_iter updates (default max(20000, 50 n)).
    Returns (alpha, bias, objective). It is the one-dual reference that
    detect._smo_lockstep must match bit for bit."""
    from conceptbank import detect
    from conceptbank.errors import PreconditionError

    if not tol > 0:
        raise PreconditionError(f"SMO tolerance must be > 0, got {tol}")
    n = y.size
    alpha = np.zeros(n) if alpha0 is None else alpha0.copy()
    grad = q @ alpha - 1.0 if alpha0 is not None else -np.ones(n)
    pos = y > 0
    # up / low: who may move up / down along y; only alpha[i], alpha[j] change per update
    up = (pos & (alpha < c - detect._TAU)) | (~pos & (alpha > detect._TAU))
    low = (~pos & (alpha < c - detect._TAU)) | (pos & (alpha > detect._TAU))
    steps = max(20_000, 50 * n) if max_iter is None else max_iter
    return detect._smo_steps(q, y, c, tol, alpha, grad, up, low, steps, concept_id)


def mkl_by_smo(problem, tol=1e-4, max_alternations=20, concept_id=""):
    """train_mklsvm one problem at a time, each inner solve of its MKL
    loop (detect._mkl_steps) answered by smo alone. Returns the model,
    with its support features, and the number of inner solves."""
    from conceptbank import detect

    steps, y, c, _, meta = detect._mkl_run(problem, concept_id, tol, max_alternations)
    fit, solves = None, 0
    while True:
        try:
            q, warm = steps.send(fit)
        except StopIteration as done:
            model = detect._model(concept_id, y, done.value, *meta)
            return detect.with_support(model, problem.features or {}), solves
        fit = smo(q, y, c, tol, warm, concept_id=concept_id)
        solves += 1


def visualness_cv_ap(positives, negative_pool, seed, C=1.0, gamma=0.01, tol=1e-4) -> float:
    """verify_visualness's mean 2-fold AP, computed one fold at a time:
    the whole pool is stacked, the sampled negatives taken from it, and
    each fold's detector trained alone by mkl_by_smo on its own rows."""
    from conceptbank.detect import DetectorTrainingProblem, KernelSpec, compute_kernel
    from conceptbank.metrics import ap_from_arrays

    channels = list(positives)
    n_pos = positives[channels[0]].shape[0]
    rng = np.random.default_rng(seed)
    neg_rows = np.sort(rng.choice(negative_pool[channels[0]].shape[0], size=n_pos, replace=False))
    feats = {c: np.vstack([positives[c], negative_pool[c][neg_rows]]) for c in channels}
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_pos)])
    pos_order = rng.permutation(n_pos)
    neg_order = n_pos + rng.permutation(n_pos)
    half = n_pos // 2
    fold_a = np.concatenate([pos_order[:half], neg_order[:half]])
    fold_b = np.concatenate([pos_order[half:], neg_order[half:]])
    aps = []
    for train_idx, test_idx in ((fold_a, fold_b), (fold_b, fold_a)):
        tr = {c: feats[c][train_idx] for c in channels}
        kernels = {c: KernelSpec("linear") for c in channels}
        problem = DetectorTrainingProblem(
            gram=[compute_kernel(tr[c], tr[c], kernels[c]) for c in channels],
            labels=labels[train_idx], C=C, gamma=gamma,
            channels=channels, features=tr, kernels=kernels,
        )
        model, _ = mkl_by_smo(problem, tol=tol)
        raw = model.raw_score_matrix({c: feats[c][test_idx] for c in channels})
        aps.append(ap_from_arrays(raw, labels[test_idx] > 0))
    return float(np.mean(aps))


def pyramid_loop(positions, idx, weights, size, grids, k):
    """One image's pyramid, bin by bin: patches taken in (y, x) order (ties
    in input order), each adding its soft weights to the one block per
    level whose cell holds its center, with plain float additions; then
    each block's K-bin sub-histogram divided by its sum. A non-positive
    extent puts every patch in the first cell. idx and weights are the
    patches' soft assignments, in input order."""
    extent = [e if e > 0 else math.inf for e in size]
    blocks = sum(r * c for r, c in grids)
    hist = np.zeros((blocks, k))
    for p in sorted(range(len(positions)), key=lambda p: (positions[p][1], positions[p][0])):
        x, y = float(positions[p][0]), float(positions[p][1])
        offset = 0
        for rows, cols in grids:
            r = min(max(math.floor(y * rows / extent[1]), 0), rows - 1)
            c = min(max(math.floor(x * cols / extent[0]), 0), cols - 1)
            for j, w in zip(idx[p], weights[p]):
                hist[offset + r * cols + c, j] += float(w)
            offset += rows * cols
    sums = hist.sum(axis=1, keepdims=True)
    np.divide(hist, sums, out=hist, where=sums > 0)
    return hist.ravel()
