"""Zero-shot event retrieval and supervised event detection.

Zero-shot: the query's top concepts each rank the test videos by their
representation scores; the per-concept rank lists are fused by the
normalized rank average R(i) = (1/d) * sum_j (1 - r_j/n). Only ranks
enter the fusion, so any monotone rescaling of concept scores leaves the
result unchanged. The zero-shot path takes nothing but the query's
concept plan and unlabeled test representations, so it cannot touch
training labels by construction.

Supervised: a one-vs-all SVM with chi-square kernel over concatenated
plan representations, hyperparameters picked by seeded 2-fold
cross-validation on AP, probabilities calibrated on the held-out fold
scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .detect import (
    DetectorTrainingProblem,
    DetectorModel,
    KernelSpec,
    compute_kernel,
    fit_platt,
    mean_chi2_bandwidth,
    train_mklsvm,
)
from .errors import PreconditionError
from .metrics import ap_from_arrays
from .semmatch import QueryPlan
from .videorep import VideoRepresentation

CV_C_GRID = (0.1, 1.0, 10.0, 100.0)
CV_BANDWIDTH_SCALES = (0.5, 1.0, 2.0)


@dataclass
class RankList:
    concept_id: str
    ordering: list[str]  # video ids, best first
    scores: dict[str, float] = field(default_factory=dict)  # audit only

    def __post_init__(self):
        if len(set(self.ordering)) != len(self.ordering):
            raise PreconditionError(
                f"rank list {self.concept_id} has duplicate video ids"
            )


@dataclass
class FusionResult:
    ordering: list[str]
    scores: dict[str, float]  # video id -> R(i)
    d: int
    n: int
    ranks: dict[str, list[int]] = field(default_factory=dict)  # audit
    concept_ids: list[str] = field(default_factory=list)  # fused lists, in order


def rank_list_from_scores(
    concept_id: str, scores: Mapping[str, float]
) -> RankList:
    """Order videos by score desc; equal scores break by video id."""
    if not scores:
        raise PreconditionError(f"no scores to rank for {concept_id}")
    ordering = sorted(scores, key=lambda v: (-scores[v], v))
    return RankList(
        concept_id=concept_id,
        ordering=ordering,
        scores={v: float(s) for v, s in scores.items()},
    )


def fuse(lists: Sequence[RankList]) -> FusionResult:
    """Normalized rank fusion over d lists covering the same n videos."""
    if not lists:
        raise PreconditionError("fusion needs at least one rank list")
    videos = sorted(lists[0].ordering)
    n = len(videos)
    vset = set(videos)
    d = len(lists)
    acc = {v: 0.0 for v in videos}
    ranks = {v: [] for v in videos}
    for rl in lists:
        if set(rl.ordering) != vset:
            raise PreconditionError(
                f"rank list {rl.concept_id} covers a different video set"
            )
        for pos, v in enumerate(rl.ordering, start=1):
            acc[v] += 1.0 - pos / n
            ranks[v].append(pos)
    scores = {v: acc[v] / d for v in videos}
    ordering = sorted(videos, key=lambda v: (-scores[v], v))
    return FusionResult(
        ordering=ordering, scores=scores, d=d, n=n, ranks=ranks,
        concept_ids=[rl.concept_id for rl in lists],
    )


def zero_shot_retrieve(
    plan: QueryPlan, reps: Sequence[VideoRepresentation]
) -> FusionResult:
    """Rank unlabeled test videos for an event query's concept plan.

    Drops zero-similarity selections, forms one rank list per surviving
    concept from the representation scores, and fuses. Raises when no
    concept of the plan matches the query at all.
    """
    if not reps:
        raise PreconditionError("no test representations")
    selected = [(cid, s) for cid, s in plan.selections if s > 0.0]
    if not selected:
        raise PreconditionError(
            f"query unmatched: no concept relates to {plan.query!r}"
        )

    layout = reps[0].concept_ids
    index = {cid: k for k, cid in enumerate(layout)}
    lists = []
    for cid, _score in selected:
        col = index.get(cid)
        if col is None:
            raise PreconditionError(f"representations lack concept {cid}")
        per_video = {}
        for rep in reps:
            if rep.concept_ids != layout:
                raise PreconditionError(
                    f"representation layout mismatch at {rep.video_id}"
                )
            per_video[rep.video_id] = float(rep.scores[col])
        lists.append(rank_list_from_scores(cid, per_video))
    return fuse(lists)


@dataclass
class EventDetector:
    event_id: str
    concept_ids: list[str]  # representation layout
    model: DetectorModel  # single channel "rep", chi2 kernel
    C: float
    bandwidth: float
    bandwidth_scale: float
    cv_ap: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise PreconditionError("chi2 bandwidth must be positive")

    def confidences(self, reps: Sequence[VideoRepresentation]) -> dict[str, float]:
        x = _stack_reps(reps, self.concept_ids)
        raw = self.model.raw_score_matrix({"rep": x})
        cal = self.model.calibrated(raw)
        return {rep.video_id: float(c) for rep, c in zip(reps, cal)}


def _stack_reps(
    reps: Sequence[VideoRepresentation], layout: list[str]
) -> np.ndarray:
    rows = []
    for rep in reps:
        if rep.concept_ids != layout:
            raise PreconditionError(
                f"representation layout mismatch at {rep.video_id}"
            )
        rows.append(rep.scores)
    return np.stack(rows)


def _stratified_folds(
    labels: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two seeded folds with both classes in each (given >= 2 per class)."""
    rng = np.random.default_rng(seed)
    fold = np.zeros(labels.size, dtype=np.intp)
    for cls in (1, -1):
        idx = np.nonzero(labels == cls)[0]
        idx = idx[rng.permutation(idx.size)]
        fold[idx[1::2]] = 1
    return np.nonzero(fold == 0)[0], np.nonzero(fold == 1)[0]


def train_event_detector(
    event_id: str,
    reps: Sequence[VideoRepresentation],
    positive_video_ids: set[str],
    seed: int = 0,
    C_grid: Sequence[float] = CV_C_GRID,
    bandwidth_scales: Sequence[float] = CV_BANDWIDTH_SCALES,
    gamma: float = 0.0,
    tol: float = 1e-4,
) -> EventDetector:
    """One-vs-all chi-square SVM over video representations.

    (C, bandwidth scale) are picked by 2-fold CV maximizing AP (ties go
    to the earlier grid entry); the final model is refit on all videos
    and calibrated on the concatenated held-out fold scores.
    """
    if not reps:
        raise PreconditionError("no training representations")
    layout = reps[0].concept_ids
    x = _stack_reps(reps, layout)
    y = np.array(
        [1.0 if rep.video_id in positive_video_ids else -1.0 for rep in reps]
    )
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise PreconditionError(f"event {event_id}: one-class training set")

    base_bw = mean_chi2_bandwidth(x)
    can_cv = n_pos >= 2 and n_neg >= 2
    if can_cv:
        fold_a, fold_b = _stratified_folds(y, seed)
        best = None  # (ap, -grid_pos) maximized
        best_params = (1.0, 1.0)
        best_cv = (np.zeros(0), np.zeros(0))
        grid_pos = 0
        for c in C_grid:
            for scale in bandwidth_scales:
                spec = KernelSpec("chi2", bandwidth=base_bw * scale)
                cv_scores = np.empty(y.size)
                ok = True
                for tr_idx, te_idx in ((fold_a, fold_b), (fold_b, fold_a)):
                    tr_y = y[tr_idx]
                    if not (np.any(tr_y > 0) and np.any(tr_y < 0)):
                        ok = False
                        break
                    gram = compute_kernel(x[tr_idx], x[tr_idx], spec)
                    problem = DetectorTrainingProblem(
                        gram=[gram], labels=tr_y, C=c, gamma=gamma,
                        channels=["rep"], features={"rep": x[tr_idx]},
                        kernels={"rep": spec},
                    )
                    model = train_mklsvm(problem, tol=tol, concept_id=event_id)
                    cv_scores[te_idx] = model.raw_score_matrix({"rep": x[te_idx]})
                if not ok:
                    grid_pos += 1
                    continue
                ap = ap_from_arrays(cv_scores, y > 0)
                key = (ap, -grid_pos)
                if best is None or key > best:
                    best = key
                    best_params = (c, scale)
                    best_cv = (cv_scores.copy(), y.copy())
                grid_pos += 1
        c_sel, scale_sel = best_params
        cv_ap = best[0] if best is not None else 0.0
    else:
        c_sel, scale_sel = 1.0, 1.0
        cv_ap = 0.0
        best_cv = (None, None)

    spec = KernelSpec("chi2", bandwidth=base_bw * scale_sel)
    gram = compute_kernel(x, x, spec)
    problem = DetectorTrainingProblem(
        gram=[gram], labels=y, C=c_sel, gamma=gamma,
        channels=["rep"], features={"rep": x},
        kernels={"rep": spec},
        image_ids=[rep.video_id for rep in reps],
    )
    model = train_mklsvm(problem, tol=tol, concept_id=event_id)
    if best_cv[0] is not None:
        model.platt = fit_platt(best_cv[0], best_cv[1])
    else:
        model.platt = fit_platt(model.raw_score_matrix({"rep": x}), y)
    return EventDetector(
        event_id=event_id,
        concept_ids=list(layout),
        model=model,
        C=c_sel,
        bandwidth=spec.bandwidth,
        bandwidth_scale=scale_sel,
        cv_ap=float(cv_ap),
    )


def detect_events(
    detectors: Sequence[EventDetector], reps: Sequence[VideoRepresentation]
) -> dict[str, list[tuple[str, float]]]:
    """Per event, (video_id, confidence) ordered by confidence desc."""
    if not reps:
        raise PreconditionError("no test representations")
    out: dict[str, list[tuple[str, float]]] = {}
    for det in detectors:
        conf = det.confidences(reps)
        out[det.event_id] = sorted(conf.items(), key=lambda kv: (-kv[1], kv[0]))
    return out
