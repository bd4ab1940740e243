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

Raw margins are mapped to probabilities by a Platt sigmoid fitted on
held-out scores. verify_visualness() runs the 2-fold cross-validation
gate that weeds out concepts whose images are not visually coherent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .metrics import ap_from_arrays

_TAU = 1e-12


@dataclass
class KernelSpec:
    kind: str = "linear"  # "linear" or "chi2"
    bandwidth: float | None = None  # chi2 normalizer A

    def to_dict(self) -> dict:
        return {"kind": self.kind, "bandwidth": self.bandwidth}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        bw = d.get("bandwidth")
        return cls(kind=d["kind"], bandwidth=None if bw is None else float(bw))


def chi2_distances(x: np.ndarray, z: np.ndarray, eps: float = 1e-10) -> np.ndarray:
    """Pairwise chi-square distances sum (x-z)^2 / (x+z+eps), chunked so
    the (n, m, d) intermediate never exceeds ~10M doubles."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n, d = x.shape
    out = np.empty((n, z.shape[0]), dtype=np.float64)
    block = max(1, int(10_000_000 // max(1, n * d)))
    for start in range(0, z.shape[0], block):
        zb = z[start : start + block]
        diff = x[:, None, :] - zb[None, :, :]
        denom = x[:, None, :] + zb[None, :, :] + eps
        out[:, start : start + block] = (diff * diff / denom).sum(axis=2)
    return out


def mean_chi2_bandwidth(x: np.ndarray) -> float:
    """Mean chi-square distance over distinct training pairs; degenerate
    data (a single point, or all points equal) falls back to 1.0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        return 1.0
    d = chi2_distances(x, x)
    iu = np.triu_indices(x.shape[0], k=1)
    mean = float(d[iu].mean())
    return mean if mean > 0 else 1.0


def compute_kernel(x: np.ndarray, z: np.ndarray, spec: KernelSpec) -> np.ndarray:
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

    def raw_score_matrix(self, features: dict[str, np.ndarray]) -> np.ndarray:
        """Uncalibrated margins for a batch; features maps channel ->
        (n, d_m) matrix in model channel order."""
        missing = [c for c in self.channels if c not in features]
        if missing:
            raise PreconditionError(f"missing channels for scoring: {missing}")
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


def _smo(
    q: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float,
    alpha0: np.ndarray | None = None,
    *,
    concept_id: str = "",
    max_iter: int | None = None,
) -> tuple[np.ndarray, float, float]:
    """Minimize 1/2 a'Qa - 1'a subject to a'y = 0, 0 <= a <= C by
    pairwise updates on a second-order working set: i is the maximal
    violator, j the partner with the largest guaranteed decrease.
    Stops when the maximal violation drops below tol > 0, or warns after
    max_iter updates (default max(20000, 50 n)). Returns (alpha, bias, objective)."""
    if not tol > 0:
        raise PreconditionError(f"SMO tolerance must be > 0, got {tol}")
    n = y.size
    alpha = np.zeros(n) if alpha0 is None else alpha0.copy()
    grad = q @ alpha - 1.0 if alpha0 is not None else -np.ones(n)
    pos = y > 0
    diag = np.diag(q).copy()
    for _ in range(max(20_000, 50 * n) if max_iter is None else max_iter):
        vals = -y * grad
        up = (pos & (alpha < c - _TAU)) | (~pos & (alpha > _TAU))
        low = (~pos & (alpha < c - _TAU)) | (pos & (alpha > _TAU))
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
        if y[i] != y[j]:
            quad = q[i, i] + q[j, j] + 2.0 * q[i, j]
            if quad <= 0:
                quad = _TAU
            delta = (-grad[i] - grad[j]) / quad
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
            quad = q[i, i] + q[j, j] - 2.0 * q[i, j]
            if quad <= 0:
                quad = _TAU
            delta = (grad[i] - grad[j]) / quad
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
        alpha[i], alpha[j] = ai, aj
        grad += q[:, i] * (ai - old_i) + q[:, j] * (aj - old_j)
    else:
        warnings.warn(
            f"SMO iteration cap reached before KKT tolerance ({concept_id or 'unnamed'})",
            RuntimeWarning, stacklevel=2,
        )

    vals = -y * grad
    free = (alpha > _TAU) & (alpha < c - _TAU)
    if free.any():
        bias = float(vals[free].mean())
    else:
        up = (pos & (alpha < c - _TAU)) | (~pos & (alpha > _TAU))
        low = (~pos & (alpha < c - _TAU)) | (pos & (alpha > _TAU))
        hi = vals[up].max() if up.any() else 0.0
        lo = vals[low].min() if low.any() else 0.0
        bias = float((hi + lo) / 2.0)
    objective = 0.5 * float(alpha @ grad - alpha.sum())
    return alpha, bias, objective


def train_mklsvm(
    problem: DetectorTrainingProblem,
    tol: float = 1e-4,
    max_alternations: int = 20,
    concept_id: str = "",
) -> DetectorModel:
    """Alternating SMO / reduced-gradient optimization of the dual."""
    y = problem.labels
    n = problem.n
    signed = [np.outer(y, y) * k for k in problem.gram]
    ridge = problem.gamma * np.eye(n)
    beta = np.full(problem.m, 1.0 / problem.m)

    def inner(b: np.ndarray, warm: np.ndarray | None):
        q = sum(w * s for w, s in zip(b, signed)) + ridge
        alpha, bias, f_min = _smo(q, y, problem.C, tol, warm, concept_id=concept_id)
        return alpha, bias, -f_min  # dual maximum value

    alpha, bias, best = inner(beta, None)
    history = [best]
    if problem.m > 1:
        for _ in range(max_alternations):
            grad = np.array([-0.5 * float(alpha @ (s @ alpha)) for s in signed])
            improved = False
            step = 1.0
            while step >= 1e-8:
                cand = project_simplex(beta - step * grad)
                if np.abs(cand - beta).max() < 1e-14:
                    break
                a2, b2, j2 = inner(cand, alpha)
                if j2 <= best - 1e-12:
                    beta, alpha, bias, best = cand, a2, b2, j2
                    history.append(best)
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            if len(history) >= 2 and history[-2] - history[-1] < tol:
                break

    sv = alpha > 1e-8
    ids = problem.image_ids or [f"x{k:06d}" for k in range(n)]
    channels = problem.channels or [f"ch{m}" for m in range(problem.m)]
    features = problem.features or {}
    kernels = problem.kernels or {}
    return DetectorModel(
        concept_id=concept_id,
        channels=channels,
        beta=beta,
        alpha=alpha[sv],
        support_labels=y[sv],
        bias=bias,
        support_ids=[ids[k] for k in np.nonzero(sv)[0]],
        support_features={c: np.asarray(f)[sv] for c, f in features.items()},
        kernels=kernels,
        objective=best,
        history=history,
    )


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


def calibrate(
    model: DetectorModel, scores: np.ndarray, labels: np.ndarray
) -> DetectorModel:
    """Fit Platt parameters on held-out (raw score, label) pairs and
    attach them to the model in place."""
    model.platt = fit_platt(scores, labels)
    return model


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
    count clears min_training_images.
    """
    channels = list(positives)
    if not channels:
        raise PreconditionError("no feature channels for verification")
    n_pos = positives[channels[0]].shape[0]
    if n_pos < 2:
        raise PreconditionError(f"{concept_id}: need at least 2 images to verify")
    n_neg_avail = negative_pool[channels[0]].shape[0]
    if n_neg_avail < n_pos:
        raise PreconditionError(
            f"{concept_id}: {n_neg_avail} negatives available, {n_pos} needed"
        )
    kernels = {c: KernelSpec("linear") for c in channels}

    rng = np.random.default_rng(seed)
    neg_rows = np.sort(rng.choice(n_neg_avail, size=n_pos, replace=False))
    feats = {
        c: np.vstack([np.asarray(positives[c]), np.asarray(negative_pool[c])[neg_rows]])
        for c in channels
    }
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_pos)])
    # stratified halves keep both classes in each fold
    pos_order = rng.permutation(n_pos)
    neg_order = n_pos + rng.permutation(n_pos)
    half = n_pos // 2
    fold_a = np.concatenate([pos_order[:half], neg_order[:half]])
    fold_b = np.concatenate([pos_order[half:], neg_order[half:]])
    folds = (fold_a, fold_b)

    aps = []
    for train_idx, test_idx in (folds, folds[::-1]):
        tr_y = labels[train_idx]
        if not (np.any(tr_y > 0) and np.any(tr_y < 0)):
            raise PreconditionError(f"{concept_id}: fold lost one class")
        tr = {c: feats[c][train_idx] for c in channels}
        gram = [compute_kernel(tr[c], tr[c], kernels[c]) for c in channels]
        problem = DetectorTrainingProblem(
            gram=gram, labels=tr_y, C=C, gamma=gamma,
            channels=channels, features=tr, kernels=kernels,
        )
        model = train_mklsvm(problem, tol=tol, concept_id=concept_id)
        te = {c: feats[c][test_idx] for c in channels}
        raw = model.raw_score_matrix(te)
        aps.append(ap_from_arrays(raw, labels[test_idx] > 0))
    cv_ap = float(np.mean(aps))
    passed = (cv_ap > ap_threshold) and (n_pos >= min_training_images)
    return VisualnessReport(
        concept_id=concept_id,
        cv_ap=cv_ap,
        training_image_count=n_pos,
        passed=passed,
    )
