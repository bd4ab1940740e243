"""Multiple-kernel SVM concept detectors.

Training alternates two steps on the dual

    min_beta  max_alpha  1'a - 1/2 a' (sum_m beta_m Q_m + gamma I) a
    s.t. a'y = 0, 0 <= a <= C, beta on the simplex

with Q_m the label-signed Gram matrix (y y') o K_m. The inner problem is
a standard SVM dual solved by pairwise coordinate (SMO) updates with
LIBSVM's second-order working-set selection (Fan, Chen & Lin, "Working
set selection using second order information for training support
vector machines", JMLR 6, 2005; Chang & Lin, ACM TIST 2011): the first
index is the maximal violator, the second the partner whose pair update
gives the largest lower bound on the decrease, -b^2/a, with b the
violation and a the pair curvature. It needs far fewer iterations than
pairing the two maximal violators; the stopping rule is still the
maximal violation, so the KKT tolerance is unchanged. The outer step
moves beta along the reduced gradient and projects back onto the
simplex, accepting only steps that lower the inner optimum. The tracked
objective is therefore non-increasing.

Training solves with _smo_lockstep: a stack of independent duals, one
pair step per running problem per round, so a batch of small solves
pays NumPy's call overhead once per round, not once per problem. Duals
of different sizes share a stack by zero padding: a padded entry has a
zero row and column in Q and is in neither working set, and each result
is read off the problem's unpadded slice, so it is bit for bit that of
_smo_steps, the same pair updates on one dual, cold or warm-started;
the tests check it against tests/oracles.py's smo, which runs
_smo_steps on one dual. The MKL loop is one resumable step sequence,
_mkl_steps, with one driver: train_mklsvm_lockstep answers the k-th
solves of all its runs still in progress with one _smo_lockstep call
(runs are grouped so that the Grams and duals held in flight stay
bounded), and train_mklsvm is its one-problem case.

Raw margins are mapped to probabilities by a Platt sigmoid fitted on
held-out scores. A linear detector folds into one primal weight vector
per channel; a DetectorBank stacks those of many concepts, so one
product per channel scores them all. Only the chi2 event detector still
scores through its support vectors. verify_visualness() runs the 2-fold
cross-validation gate that weeds out concepts whose images are not
visually coherent; verify_concepts() runs it for many candidates
through one train_mklsvm_lockstep call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import PreconditionError
from .metrics import ap_from_arrays

_TAU = 1e-12
# signed Grams and padded duals (float64 values, 16 MB) at which a lockstep
# MKL pass closes; at codebook_k = 64 (ROADMAP's paper-like probe) neither
# verify nor train then peaks above training one problem at a time
_LOCKSTEP_DOUBLES = 2_000_000


@dataclass
class KernelSpec:
    kind: str = "linear"  # "linear" or "chi2"
    bandwidth: float | None = None  # chi2 normalizer A


def chi2_distances(x: np.ndarray, z: np.ndarray, eps: float = 1e-10) -> np.ndarray:
    """Pairwise chi-square distances sum (x-z)^2 / (x+z+eps), chunked over
    rows of z so each of the two (n, block, d) intermediates holds ~64k
    doubles (at least one row of z) and is updated in place: 0.5 MB
    blocks stay in cache and add little to a stage's peak memory. Every
    entry sums its own contiguous row of d terms, so it does not depend on
    the block size or on the other rows: a sub-block of the result equals
    the distances of those rows alone."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n, d = x.shape
    out = np.empty((n, z.shape[0]), dtype=np.float64)
    block = max(1, int(64_000 // max(1, n * d)))
    for start in range(0, z.shape[0], block):
        zb = z[start : start + block]
        diff = x[:, None, :] - zb[None, :, :]
        denom = x[:, None, :] + zb[None, :, :]
        denom += eps
        diff *= diff
        diff /= denom
        out[:, start : start + block] = diff.sum(axis=2)
    return out


def mean_chi2_bandwidth(dist: np.ndarray) -> float:
    """Mean chi-square distance over distinct training pairs, from the
    (n, n) matrix chi2_distances(x, x); degenerate data (a single point,
    or all points equal) falls back to 1.0."""
    n = dist.shape[0]
    if n < 2:
        return 1.0
    mean = float(dist[np.triu_indices(n, k=1)].mean())
    return mean if mean > 0 else 1.0


def compute_kernel(x: np.ndarray, z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The (len(x), len(z)) kernel matrix. For a linear Gram, pass one array
    object as both x and z: NumPy then takes BLAS's symmetric product
    (SYRK), whose bits differ from x @ z.T on an equal copy z, so the
    same rows gathered twice give a different Gram."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if spec.kind == "linear":
        return x @ z.T
    if spec.kind == "chi2":
        a = spec.bandwidth
        if a is None or a <= 0:
            raise PreconditionError("chi2 kernel needs a positive bandwidth")
        return np.exp(-chi2_distances(x, z) / a)
    raise PreconditionError(f"unknown kernel kind: {spec.kind}")


@dataclass
class DetectorTrainingProblem:
    gram: list[np.ndarray]  # M kernel matrices, (n, n)
    labels: np.ndarray  # in {-1, +1}
    C: float = 1.0
    gamma: float = 0.01
    # optional metadata carried through to the trained model
    channels: list[str] | None = None
    image_ids: list[str] | None = None
    features: dict[str, np.ndarray] | None = None
    kernels: dict[str, KernelSpec] | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64).ravel()
        n = self.labels.size
        if not self.gram:
            raise PreconditionError("no kernel matrices")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise PreconditionError("labels must be -1 or +1")
        if not (np.any(self.labels > 0) and np.any(self.labels < 0)):
            raise PreconditionError("labels must contain both classes")
        if self.C <= 0:
            raise PreconditionError("C must be positive")
        if self.gamma < 0:
            raise PreconditionError("gamma must be non-negative")
        checked = []
        for m, k in enumerate(self.gram):
            k = np.asarray(k, dtype=np.float64)
            if k.shape != (n, n):
                raise PreconditionError(f"kernel {m} shape {k.shape} != ({n}, {n})")
            if not np.allclose(k, k.T, atol=1e-8):
                raise PreconditionError(f"kernel {m} is not symmetric")
            k = 0.5 * (k + k.T)
            jitter = 1e-8 * (1.0 + float(np.abs(np.diag(k)).max()))
            try:
                np.linalg.cholesky(k + jitter * np.eye(n))
            except np.linalg.LinAlgError:
                raise PreconditionError(
                    f"kernel {m} is not positive semidefinite within tolerance"
                ) from None
            checked.append(k)
        self.gram = checked

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def m(self) -> int:
        return len(self.gram)


@dataclass
class DetectorModel:
    concept_id: str
    channels: list[str]
    beta: np.ndarray
    alpha: np.ndarray  # dual coefficients of the support set (0 < a <= C)
    support_labels: np.ndarray
    bias: float
    support_ids: list[str]
    support_features: dict[str, np.ndarray]
    kernels: dict[str, KernelSpec]
    platt: tuple[float, float] = (-1.0, 0.0)
    objective: float = field(default=0.0, compare=False)
    history: list[float] = field(default_factory=list, compare=False)
    # positions of the support set among the training rows; not stored
    support_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, np.intp), compare=False)

    def weights(self) -> dict[str, np.ndarray]:
        """A linear model folded into one primal weight vector per channel,
        w_m = beta_m X_sv,m' (alpha o y)."""
        if any(self.kernels[c].kind != "linear" for c in self.channels):
            raise PreconditionError(f"{self.concept_id}: only linear kernels fold into weights")
        coef = self.alpha * self.support_labels
        return {
            c: b * (self.support_features[c].T @ coef) for b, c in zip(self.beta, self.channels)
        }

    def raw_score_matrix(self, features: dict[str, np.ndarray]) -> np.ndarray:
        """Uncalibrated margins for a batch; features maps channel ->
        (n, d_m) matrix in model channel order. A linear model scores
        through its folded weights; others expand over support vectors."""
        if all(self.kernels[c].kind == "linear" for c in self.channels):
            return _linear_scores(features, self.weights(), self.bias)
        _check_channels(features, self.channels)
        n = next(iter(features.values())).shape[0]
        mixed = np.zeros((n, self.alpha.size), dtype=np.float64)
        for w, channel in zip(self.beta, self.channels):
            if w == 0.0:
                continue
            k = compute_kernel(
                features[channel], self.support_features[channel], self.kernels[channel]
            )
            mixed += w * k
        return mixed @ (self.alpha * self.support_labels) + self.bias

    def calibrated(self, raw: np.ndarray | float) -> np.ndarray | float:
        a, b = self.platt
        return 1.0 / (1.0 + np.exp(a * np.asarray(raw, dtype=np.float64) + b))


def _check_channels(features: dict[str, np.ndarray], channels) -> None:
    missing = [c for c in channels if c not in features]
    if missing:
        raise PreconditionError(f"missing channels for scoring: {missing}")


def _linear_scores(
    features: dict[str, np.ndarray], weights: dict[str, np.ndarray], bias
) -> np.ndarray:
    """sum_m features[m] @ weights[m] + bias: the margins of linear
    detectors folded into weights, a (d_m,) vector per channel for one
    detector or a (d_m, concepts) matrix for a bank."""
    _check_channels(features, weights)
    return sum(features[c] @ w for c, w in weights.items()) + bias


@dataclass
class DetectorBank:
    """Linear concept detectors as one weight matrix per channel: column k
    of weights[m] is concept k's w_m, rounded through f32 (the stored
    precision), so a batch of n rows scores all concepts with one
    (n, d_m) @ (d_m, concepts) product per channel."""

    concept_ids: list[str]
    weights: dict[str, np.ndarray]  # channel -> (d_m, concepts)
    bias: np.ndarray  # (concepts,)
    platt: np.ndarray  # (2, concepts): Platt A and B

    @classmethod
    def fold(cls, model: DetectorModel) -> "DetectorBank":
        """One linear model as a one-concept bank."""
        return cls(
            concept_ids=[model.concept_id],
            weights={
                c: w.astype(np.float32).astype(np.float64)[:, None]
                for c, w in model.weights().items()
            },
            bias=np.array([model.bias], dtype=np.float64),
            platt=np.array(model.platt, dtype=np.float64).reshape(2, 1),
        )

    @classmethod
    def concat(cls, banks: Sequence["DetectorBank"]) -> "DetectorBank":
        return cls(
            concept_ids=[cid for b in banks for cid in b.concept_ids],
            weights={
                c: np.concatenate([b.weights[c] for b in banks], axis=1) for c in banks[0].weights
            },
            bias=np.concatenate([b.bias for b in banks]),
            platt=np.concatenate([b.platt for b in banks], axis=1),
        )

    def raw_scores(self, features: dict[str, np.ndarray]) -> np.ndarray:
        """(n, concepts) margins for n rows of features."""
        return _linear_scores(features, self.weights, self.bias)

    def calibrated(self, raw: np.ndarray) -> np.ndarray:
        """Each column's Platt sigmoid, as DetectorModel.calibrated."""
        return 1.0 / (1.0 + np.exp(self.platt[0] * raw + self.platt[1]))


@dataclass
class VisualnessReport:
    concept_id: str
    cv_ap: float
    training_image_count: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "concept_id": self.concept_id,
            "cv_ap": self.cv_ap,
            "training_image_count": self.training_image_count,
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VisualnessReport":
        return cls(
            concept_id=d["concept_id"],
            cv_ap=float(d["cv_ap"]),
            training_image_count=int(d["training_image_count"]),
            passed=bool(d["passed"]),
        )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {b : b_m >= 0, sum b = 1}."""
    v = np.asarray(v, dtype=np.float64).ravel()
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / k > 0)[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _pair_step(opposite, old_i, old_j, g_i, g_j, q_ii, q_jj, q_ij, c):
    """New (alpha_i, alpha_j) after the pair update along a'y = 0, for
    labels of opposite or equal sign, clipped to the box [0, C]."""
    if opposite:
        quad = q_ii + q_jj + 2.0 * q_ij
        if quad <= 0:
            quad = _TAU
        delta = (-g_i - g_j) / quad
        diff = old_i - old_j
        ai, aj = old_i + delta, old_j + delta
        if diff > 0:
            if aj < 0:
                aj, ai = 0.0, diff
            if ai > c:
                ai, aj = c, c - diff
        else:
            if ai < 0:
                ai, aj = 0.0, -diff
            if aj > c:
                aj, ai = c, c + diff
    else:
        quad = q_ii + q_jj - 2.0 * q_ij
        if quad <= 0:
            quad = _TAU
        delta = (g_i - g_j) / quad
        total = old_i + old_j
        ai, aj = old_i - delta, old_j + delta
        if total > c:
            if ai > c:
                ai, aj = c, total - c
            if aj > c:
                aj, ai = c, total - c
        else:
            if aj < 0:
                aj, ai = 0.0, total
            if ai < 0:
                ai, aj = 0.0, total
    return ai, aj


def _smo_result(alpha, grad, y, c, up, low) -> tuple[np.ndarray, float, float]:
    """(alpha, bias, objective) of one solved dual: the bias averages the
    free alphas' -y grad (or the midpoint of the violating range)."""
    vals = -y * grad
    free = (alpha > _TAU) & (alpha < c - _TAU)
    if free.any():
        bias = float(vals[free].mean())
    else:
        hi = vals[up].max() if up.any() else 0.0
        lo = vals[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    objective = 0.5 * float(alpha @ grad - alpha.sum())
    return alpha, bias, objective


def _cap_warning(concept_id: str) -> str:
    return f"SMO iteration cap reached before KKT tolerance ({concept_id or 'unnamed'})"


def _smo_steps(q, y, c, tol, alpha, grad, up, low, steps, concept_id):
    """Pair updates on one dual from the state (alpha, grad, up, low), which
    they change in place, until the maximal violation drops below tol: at
    most `steps` of them, then a cap warning. Returns (alpha, bias, objective)."""
    pos = y > 0
    diag = np.diag(q).copy()
    for _ in range(steps):
        vals = -y * grad
        if not up.any() or not low.any():
            break
        vi = np.where(up, vals, -np.inf)
        i = int(np.argmax(vi))
        if vi[i] - vals[low].min() < tol:
            break
        b = vi[i] - vals
        a = np.maximum(diag[i] + diag - 2.0 * y[i] * y * q[i], _TAU)
        j = int(np.argmin(np.where(low & (b > 0), -b * b / a, np.inf)))
        old_i, old_j = alpha[i], alpha[j]
        ai, aj = _pair_step(
            y[i] != y[j], old_i, old_j, grad[i], grad[j], q[i, i], q[j, j], q[i, j], c
        )
        alpha[i], alpha[j] = ai, aj
        for k in (i, j):
            below_c, above_0 = alpha[k] < c - _TAU, alpha[k] > _TAU
            up[k], low[k] = (below_c, above_0) if pos[k] else (above_0, below_c)
        grad += q[:, i] * (ai - old_i) + q[:, j] * (aj - old_j)
    else:
        warnings.warn(_cap_warning(concept_id), RuntimeWarning, stacklevel=3)
    return _smo_result(alpha, grad, y, c, up, low)


def _smo_lockstep(
    qs: np.ndarray,
    ys: Sequence[np.ndarray],
    cs: Sequence[float],
    tol: float,
    ids: Sequence[str],
    max_iter: int | None = None,
    *,
    duals: Sequence[int] | None = None,
    starts: Sequence[tuple[np.ndarray, np.ndarray] | None] | None = None,
) -> list[tuple[np.ndarray, float, float]]:
    """Minimize 1/2 a'Qa - 1'a subject to a'y = 0, 0 <= a <= C by pairwise
    updates, for each of a stack of independent duals: qs is (s, N, N), each
    Q symmetric as train_mklsvm forms it and zero-padded past its own n;
    ys holds each problem's (n,) labels, cs and ids one entry per problem,
    duals the index in qs of each problem's Q (default: its own). A start
    (alpha0, grad0) warm-starts a problem, with grad0 = Q @ alpha0 - 1
    computed on the problem's own contiguous Q, as oracles.smo computes it.

    Each round makes one pair step on every problem still running, with
    _smo_steps's working-set choice (same first-index ties), clipping and
    gradient update row by row, so every (alpha, bias, objective) is bit
    for bit that of the one-dual oracle (tests/oracles.py's smo) on the
    problem alone. A problem leaves the round when it meets tol, or after
    max_iter steps (default max(20000, 50 n), of its own n) with a
    warning naming its id. The last problem left goes on in _smo_steps
    from the same state.
    """
    if not tol > 0:
        raise PreconditionError(f"SMO tolerance must be > 0, got {tol}")
    p = len(ys)
    if not p:
        return []
    n_max = qs.shape[1]
    sizes = np.array([len(yk) for yk in ys])
    out: list = [None] * p
    y, alpha, grad = np.zeros((p, n_max)), np.zeros((p, n_max)), -np.ones((p, n_max))
    for k, yk in enumerate(ys):
        y[k, : sizes[k]] = yk
        if starts is not None and starts[k] is not None:
            alpha[k, : sizes[k]], grad[k, : sizes[k]] = starts[k]
    cap = np.maximum(20_000, 50 * sizes) if max_iter is None else np.full(p, max_iter)
    # one row per running problem; rows leave as their problems finish
    live = np.arange(p)  # stack position of each row
    dual = np.arange(p) if duals is None else np.asarray(duals)
    neg_y, c = -y, np.asarray(cs, dtype=np.float64)
    pos = y > 0
    valid = np.arange(n_max) < sizes[:, None]
    diag = qs[:, np.arange(n_max), np.arange(n_max)][dual]
    up = valid & ((pos & (alpha < (c - _TAU)[:, None])) | (~pos & (alpha > _TAU)))
    low = valid & ((~pos & (alpha < (c - _TAU)[:, None])) | (pos & (alpha > _TAU)))
    # flat offset of each row, its C minus _TAU (twice, for the i and j
    # entries) and the first step count at which some row reaches its cap
    at, c_tau = np.arange(p) * n_max, np.tile(c - _TAU, 2)
    steps, next_cap = 0, cap.min()
    while live.size:
        if live.size == 1:  # a lone problem goes on in _smo_steps, whose steps cost less
            n, k = sizes[0], live[0]
            out[k] = _smo_steps(
                qs[dual[0], :n, :n], y[0, :n], float(c[0]), tol, alpha[0, :n].copy(),
                grad[0, :n].copy(), up[0, :n].copy(), low[0, :n].copy(), cap[0] - steps, ids[k],
            )
            break
        vals = neg_y * grad
        vi = np.where(up, vals, -np.inf)
        i = vi.argmax(axis=1)
        fi = at + i
        top = vi.take(fi)
        gap = top - np.where(low, vals, np.inf).min(axis=1)
        stop = gap < tol
        if steps == next_cap:
            capped = cap == steps
            for k in live[capped]:
                warnings.warn(_cap_warning(ids[k]), RuntimeWarning, stacklevel=2)
            stop |= capped
        # an empty up or low set gives gap -inf, or NaN with infinite values
        if np.isnan(gap).any():
            stop |= ~(up.any(axis=1) & low.any(axis=1))
        if stop.any():
            for row in np.flatnonzero(stop):
                n = sizes[row]
                out[live[row]] = _smo_result(
                    alpha[row, :n].copy(), grad[row, :n].copy(), y[row, :n], c[row],
                    up[row, :n], low[row, :n],
                )
            keep = ~stop
            live, dual, sizes, cap, c = live[keep], dual[keep], sizes[keep], cap[keep], c[keep]
            y, neg_y, pos, diag = y[keep], neg_y[keep], pos[keep], diag[keep]
            alpha, grad, up, low = alpha[keep], grad[keep], up[keep], low[keep]
            at, c_tau = np.arange(live.size) * n_max, np.tile(c - _TAU, 2)
            next_cap = cap.min() if live.size else 0
            continue  # the same round for the problems still running
        b = top[:, None] - vals
        q_i = qs[dual, i]  # row i, which is column i
        y_i = y.take(fi)
        a = np.maximum(diag.take(fi)[:, None] + diag - 2.0 * y_i[:, None] * y * q_i, _TAU)
        j = np.where(low & (b > 0), -b * b / a, np.inf).argmin(axis=1)
        fj = at + j
        q_j = qs[dual, j]
        old_i, old_j = alpha.take(fi), alpha.take(fj)
        ai, aj = np.array([
            _pair_step(*args)
            for args in zip(
                (y_i != y.take(fj)).tolist(), old_i.tolist(), old_j.tolist(),
                grad.take(fi).tolist(), grad.take(fj).tolist(),
                q_i.take(fi).tolist(), q_j.take(fj).tolist(), q_i.take(fj).tolist(), c.tolist(),
            )
        ]).T
        alpha.put(fi, ai)
        alpha.put(fj, aj)
        fij = np.concatenate((fi, fj))
        moved, pos_ij = alpha.take(fij), pos.take(fij)
        below_c, above_0 = moved < c_tau, moved > _TAU
        up.put(fij, np.where(pos_ij, below_c, above_0))
        low.put(fij, np.where(pos_ij, above_0, below_c))
        grad += q_i * (ai - old_i)[:, None] + q_j * (aj - old_j)[:, None]
        steps += 1
    return out


def _mkl_steps(signed: list[np.ndarray], gamma: float, tol: float, max_alternations: int):
    """The MKL alternation over the label-signed Grams, as a resumable
    step sequence: yields (q, warm_alpha) for each inner SMO solve, is
    sent back its (alpha, bias, f_min), and returns (beta, alpha, bias,
    objective, history)."""
    n, m = signed[0].shape[0], len(signed)

    def dual(b: np.ndarray) -> np.ndarray:
        return sum(w * s for w, s in zip(b, signed)) + gamma * np.eye(n)

    beta = np.full(m, 1.0 / m)
    alpha, bias, f_min = yield dual(beta), None
    best = -f_min  # dual maximum value
    history = [best]
    if m > 1:
        for _ in range(max_alternations):
            grad = np.array([-0.5 * float(alpha @ (s @ alpha)) for s in signed])
            improved = False
            step = 1.0
            while step >= 1e-8:
                cand = project_simplex(beta - step * grad)
                if np.abs(cand - beta).max() < 1e-14:
                    break
                a2, b2, f2 = yield dual(cand), alpha
                if -f2 <= best - 1e-12:
                    beta, alpha, bias, best = cand, a2, b2, -f2
                    history.append(best)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            if len(history) >= 2 and history[-2] - history[-1] < tol:
                break
    return beta, alpha, bias, best, history


def _model(concept_id, y, fit, ids, channels, kernels):
    """The DetectorModel of one finished _mkl_steps run on labels y, with
    no support features (with_support attaches them)."""
    beta, alpha, bias, objective, history = fit
    sv = alpha > 1e-8
    rows = np.nonzero(sv)[0]
    ids = ids or [f"x{k:06d}" for k in range(y.size)]
    return DetectorModel(
        concept_id=concept_id,
        channels=channels or [f"ch{m}" for m in range(beta.size)],
        beta=beta,
        alpha=alpha[sv],
        support_labels=y[sv],
        bias=bias,
        support_ids=[ids[k] for k in rows],
        support_features={},
        kernels=kernels or {},
        objective=objective,
        history=history,
        support_rows=rows,
    )


def with_support(model: DetectorModel, features: dict[str, np.ndarray]) -> DetectorModel:
    """A copy of model whose support features are taken, by support_rows,
    from its training rows' features {channel: (n, d) matrix}."""
    return replace(
        model,
        support_features={c: np.asarray(f)[model.support_rows] for c, f in features.items()},
    )


def linear_problem(
    features: dict[str, np.ndarray], labels: np.ndarray, C: float, gamma: float, image_ids=None
) -> DetectorTrainingProblem:
    """A training problem with one linear Gram per channel of features,
    each compute_kernel(x, x) on one array (the symmetric product)."""
    kernels = {c: KernelSpec("linear") for c in features}
    return DetectorTrainingProblem(
        gram=[compute_kernel(x, x, kernels[c]) for c, x in features.items()],
        labels=labels, C=C, gamma=gamma, channels=list(features), image_ids=image_ids,
        kernels=kernels,
    )


def train_mklsvm(
    problem: DetectorTrainingProblem,
    tol: float = 1e-4,
    max_alternations: int = 20,
    concept_id: str = "",
) -> DetectorModel:
    """Alternating SMO / reduced-gradient optimization of the dual: the
    one-problem case of train_mklsvm_lockstep, whose lone run takes
    _smo_steps's steps, with the problem's support features attached."""
    (model,) = train_mklsvm_lockstep([problem], [concept_id], tol, max_alternations)
    return with_support(model, problem.features or {})


def train_mklsvm_lockstep(
    problems: Iterable[DetectorTrainingProblem],
    concept_ids: Sequence[str],
    tol: float = 1e-4,
    max_alternations: int = 20,
) -> list[DetectorModel]:
    """The MKL training of each problem, with the k-th inner solves of all
    runs still in progress solved as one _smo_lockstep stack. A run in
    flight holds only its label-signed Grams and labels, so problems may
    come from a lazy iterator, and the models carry no support features
    (with_support attaches them). Problems are taken in order into a
    pass until its signed Grams and zero-padded duals reach
    _LOCKSTEP_DOUBLES values; the pass then runs before the next problem
    is drawn, so no problem waits in flight."""
    models, runs, held, n_max = [], [], 0, 0
    for problem in problems:  # not zip(): its reused result tuple would keep the problem alive
        held, n_max = held + problem.m * problem.n**2, max(n_max, problem.n)
        runs.append(_mkl_run(problem, concept_ids[len(models) + len(runs)], tol, max_alternations))
        del problem  # the run holds its own signed Grams
        # the stack holds a padded slot per run, plus the dual being copied in
        if held + (len(runs) + 1) * n_max**2 >= _LOCKSTEP_DOUBLES:
            models += _lockstep_pass(runs, tol)
            runs, held, n_max = [], 0, 0
    return models + _lockstep_pass(runs, tol) if runs else models


def _lockstep_pass(runs: list, tol: float) -> list[DetectorModel]:
    """One lockstep pass over _mkl_run tuples. Each generation's duals
    are written, zero-padded, into one buffer that every later
    generation reuses."""
    state = [None] * len(runs)  # each run's last inner result, then its fit
    live = list(range(len(runs)))
    buf = np.empty(len(runs) * max((r[1].size for r in runs), default=0) ** 2)
    while live:
        n_max = max(runs[k][1].size for k in live)
        stack = buf[: len(live) * n_max**2].reshape(len(live), n_max, n_max)
        pending, starts = [], []
        for k in live:
            try:
                q, warm = runs[k][0].send(state[k])
            except StopIteration as done:
                state[k] = done.value
                continue
            n = q.shape[0]
            slot = stack[len(pending)]
            slot[:n, :n], slot[:n, n:], slot[n:] = q, 0.0, 0.0
            starts.append(None if warm is None else (warm, q @ warm - 1.0))
            pending.append(k)
        solved = _smo_lockstep(
            stack[: len(pending)], [runs[k][1] for k in pending], [runs[k][2] for k in pending],
            tol, [runs[k][3] for k in pending], starts=starts,
        )
        for k, fit in zip(pending, solved):
            state[k] = fit
        live = pending
    return [_model(cid, y, fit, *meta) for (_, y, _, cid, meta), fit in zip(runs, state)]


def _mkl_run(problem: DetectorTrainingProblem, concept_id: str, tol, max_alternations):
    """(_mkl_steps generator, labels, C, concept id, model metadata) of one
    problem; it keeps no reference to the problem's Grams or features."""
    y = problem.labels
    steps = _mkl_steps(
        [np.outer(y, y) * k for k in problem.gram], problem.gamma, tol, max_alternations
    )
    return steps, y, problem.C, concept_id, (problem.image_ids, problem.channels, problem.kernels)


def fit_platt(
    scores: np.ndarray, labels: np.ndarray, max_iter: int = 100
) -> tuple[float, float]:
    """Fit sigmoid p = 1/(1+exp(A f + B)) by regularized maximum
    likelihood (Newton iterations on smoothed targets)."""
    f = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    n_pos = int((y > 0).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise PreconditionError("calibration needs both classes in the held-out set")
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y > 0, hi, lo)

    a, b = 0.0, float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    eps = 1e-12

    def nll(av, bv):
        z = av * f + bv
        # cross-entropy of targets t against p = 1/(1+exp(z)), written
        # as the stable form log(1+exp(z)) - (1-t) z
        return float(np.sum(np.logaddexp(0.0, z) - (1.0 - t) * z))

    cur = nll(a, b)
    for _ in range(max_iter):
        z = a * f + b
        p = 1.0 / (1.0 + np.exp(z))
        d1 = t - p
        d2 = p * (1.0 - p)
        g_a = float(np.sum(d1 * f))
        g_b = float(np.sum(d1))
        h_aa = float(np.sum(d2 * f * f)) + eps
        h_ab = float(np.sum(d2 * f))
        h_bb = float(np.sum(d2)) + eps
        det = h_aa * h_bb - h_ab * h_ab
        if abs(det) < 1e-300 or max(abs(g_a), abs(g_b)) < 1e-9:
            break
        da = -(h_bb * g_a - h_ab * g_b) / det
        db = -(-h_ab * g_a + h_aa * g_b) / det
        step = 1.0
        while step >= 1e-10:
            na, nb = a + step * da, b + step * db
            new = nll(na, nb)
            if new < cur + 1e-12:
                a, b, cur = na, nb, new
                break
            step *= 0.5
        else:
            break
    return a, b


def verify_visualness(
    concept_id: str,
    positives: dict[str, np.ndarray],
    negative_pool: dict[str, np.ndarray],
    seed: int,
    C: float = 1.0,
    gamma: float = 0.01,
    ap_threshold: float = 0.8,
    min_training_images: int = 100,
    tol: float = 1e-4,
) -> VisualnessReport:
    """2-fold cross-validation gate for a candidate concept.

    positives / negative_pool map channel -> (n, d) feature matrices; a
    balanced problem is built by sampling as many negatives as there are
    positives (seeded, without replacement). Each fold trains a
    linear-kernel detector on the other fold and is scored by AP; the
    concept passes when the mean AP clears ap_threshold and the positive
    count clears min_training_images. It is verify_concepts on one
    candidate.
    """
    channels = list(positives)
    if not channels:
        raise PreconditionError("no feature channels for verification")
    n_pos, n_neg = positives[channels[0]].shape[0], negative_pool[channels[0]].shape[0]

    def rows(neg_rows: np.ndarray) -> dict[str, np.ndarray]:
        return {
            c: np.vstack([np.asarray(positives[c]), np.asarray(negative_pool[c])[neg_rows]])
            for c in channels
        }

    (report,) = verify_concepts(
        [(concept_id, n_pos, n_neg, seed, rows)], C, gamma, ap_threshold, min_training_images, tol
    )
    return report


def verify_concepts(
    candidates: Sequence[tuple[str, int, int, int, Callable[[np.ndarray], dict[str, np.ndarray]]]],
    C: float = 1.0,
    gamma: float = 0.01,
    ap_threshold: float = 0.8,
    min_training_images: int = 100,
    tol: float = 1e-4,
) -> list[VisualnessReport]:
    """verify_visualness on each candidate (concept id, positive count,
    negative pool size, seed, rows), with every fold problem trained in
    one train_mklsvm_lockstep call. rows(neg_rows) gives the candidate's
    positives, then its pool rows neg_rows, as {channel: matrix}. It is
    called again after the solves to score the held-out folds, so no
    features are held while problems are in flight."""
    splits = []  # (negative rows, labels, (train, test) folds) per candidate
    for concept_id, n_pos, n_neg_avail, seed, _ in candidates:
        if n_pos < 2:
            raise PreconditionError(f"{concept_id}: need at least 2 images to verify")
        if n_neg_avail < n_pos:
            raise PreconditionError(
                f"{concept_id}: {n_neg_avail} negatives available, {n_pos} needed"
            )
        # the negatives are drawn from the pool size first, so only they are gathered
        rng = np.random.default_rng(seed)
        neg_rows = np.sort(rng.choice(n_neg_avail, size=n_pos, replace=False))
        # stratified halves keep both classes in each fold
        pos_order = rng.permutation(n_pos)
        neg_order = n_pos + rng.permutation(n_pos)
        half = n_pos // 2
        fold_a = np.concatenate([pos_order[:half], neg_order[:half]])
        fold_b = np.concatenate([pos_order[half:], neg_order[half:]])
        labels = np.concatenate([np.ones(n_pos), -np.ones(n_pos)])
        splits.append((neg_rows, labels, ((fold_a, fold_b), (fold_b, fold_a))))

    def problems():
        for cand, (neg_rows, labels, folds) in zip(candidates, splits):
            feats = cand[4](neg_rows)
            for train_idx, _ in folds:
                yield linear_problem(
                    {c: f[train_idx] for c, f in feats.items()}, labels[train_idx], C, gamma
                )

    ids = [cand[0] for cand in candidates for _ in range(2)]
    models = iter(train_mklsvm_lockstep(problems(), ids, tol=tol))
    reports = []
    for (concept_id, n_pos, _, _, rows), (neg_rows, labels, folds) in zip(candidates, splits):
        feats = rows(neg_rows)
        aps = []
        for (train_idx, test_idx), model in zip(folds, models):
            model = with_support(model, {c: f[train_idx] for c, f in feats.items()})
            raw = model.raw_score_matrix({c: f[test_idx] for c, f in feats.items()})
            aps.append(ap_from_arrays(raw, labels[test_idx] > 0))
        cv_ap = float(np.mean(aps))
        passed = (cv_ap > ap_threshold) and (n_pos >= min_training_images)
        reports.append(VisualnessReport(concept_id, cv_ap, n_pos, passed))
    return reports
