"""Zero-shot event retrieval and supervised event detection.

Zero-shot: the query's top concepts each rank the test videos by their
representation scores; the per-concept rank lists are fused by the
normalized rank average R(i) = (1/d) * sum_j (1 - r_j/n). Only ranks
enter the fusion, so any monotone rescaling of concept scores leaves the
result unchanged. The zero-shot path takes nothing but the query's
concept plan and unlabeled test representations, so it cannot touch
training labels by construction.

A split's representations arrive as one RepresentationTable, one column
per bank concept; its columns method is the one place that maps concept
ids to those columns.

Supervised: a one-vs-all SVM with chi-square kernel over the columns of
the concatenated query plans, hyperparameters picked by seeded 2-fold
cross-validation on AP, probabilities calibrated on the held-out fold
scores. Every event trains on the same videos, so train_event_detectors
computes their chi-square distances once per call; the bandwidth, every
fold's Gram, every held-out kernel and every refit's Gram are taken from
that one matrix. Each distance depends on its own pair of rows alone, so
these equal the kernels computed on the fold's rows, bit for bit. An
event's grid problems (grid points x 2 folds) share one dual per
(bandwidth, fold) and are solved in one detect._smo_lockstep call, with
the same alphas as one train_mklsvm per problem; the refits of all
events on all videos are trained in one train_mklsvm_lockstep pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .detect import (
    DetectorTrainingProblem,
    DetectorModel,
    KernelSpec,
    _smo_lockstep,
    chi2_distances,
    compute_kernel,  # unused here; bench/tests/test_tracer.py checks that retrieve binds it
    fit_platt,
    mean_chi2_bandwidth,
    train_mklsvm_lockstep,
    with_support,
)
from .errors import PreconditionError
from .metrics import ap_from_arrays
from .semmatch import QueryPlan
from .videorep import RepresentationTable

CV_C_GRID = (0.1, 1.0, 10.0, 100.0)
CV_BANDWIDTH_SCALES = (0.5, 1.0, 2.0)


@dataclass
class RankList:
    concept_id: str
    ordering: list[str]  # video ids, best first

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
    return RankList(concept_id, sorted(scores, key=lambda v: (-scores[v], v)))


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


def zero_shot_retrieve(plan: QueryPlan, table: RepresentationTable) -> FusionResult:
    """Rank unlabeled test videos for an event query's concept plan.

    Drops zero-similarity selections, forms one rank list per surviving
    concept from the representation scores, and fuses. Raises when no
    concept of the plan matches the query at all.
    """
    if not table.video_ids:
        raise PreconditionError("no test representations")
    selected = [(cid, s) for cid, s in plan.selections if s > 0.0]
    if not selected:
        raise PreconditionError(
            f"query unmatched: no concept relates to {plan.query!r}"
        )

    x = table.columns([cid for cid, _ in selected])
    return fuse([
        rank_list_from_scores(cid, dict(zip(table.video_ids, column.tolist())))
        for (cid, _), column in zip(selected, x.T)
    ])


@dataclass
class EventDetector:
    event_id: str
    concept_ids: list[str]  # the representation columns it was trained on
    model: DetectorModel  # single channel "rep", chi2 kernel
    C: float
    bandwidth: float
    bandwidth_scale: float
    cv_ap: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise PreconditionError("chi2 bandwidth must be positive")

    def confidences(self, table: RepresentationTable) -> dict[str, float]:
        raw = self.model.raw_score_matrix({"rep": table.columns(self.concept_ids)})
        return dict(zip(table.video_ids, self.model.calibrated(raw).tolist()))


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


def _cv_grid(
    dist: np.ndarray,
    y: np.ndarray,
    folds: tuple[np.ndarray, np.ndarray],
    params: Sequence[tuple[float, float]],
    gamma: float,
    tol: float,
    event_id: str,
) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """For each (C, bandwidth) in params and each (train, test) split of
    folds, in that order: the dual alpha over the train rows, the bias
    and the raw scores of the test rows, equal to train_mklsvm on the
    train rows' chi2 Gram and raw_score_matrix on the test rows. Both
    kernels come from dist = chi2_distances(x, x). The dual depends on
    the bandwidth and the fold, not on C, so each distinct one is built
    once into a zero-padded stack, and all problems are solved in one
    _smo_lockstep call that indexes it."""
    if any(c <= 0 for c, _ in params):
        raise PreconditionError("C must be positive")
    splits = (folds, folds[::-1])
    jobs = [(c, bw, f) for c, bw in params for f in range(2)]
    duals: dict[tuple[float, int], int] = {}  # (bandwidth, split) -> position in the stack
    for _, bw, f in jobs:
        duals.setdefault((bw, f), len(duals))
    n_max = max(tr.size for tr, _ in splits)
    qs = np.zeros((len(duals), n_max, n_max))
    for (bw, f), k in duals.items():
        tr = splits[f][0]
        gram = np.exp(-dist[np.ix_(tr, tr)] / bw)
        problem = DetectorTrainingProblem(gram=[gram], labels=y[tr], gamma=gamma)
        # train_mklsvm's dual (y y' o K) + gamma I, written into the stack
        q = qs[k, : tr.size, : tr.size]
        np.multiply(np.outer(problem.labels, problem.labels), problem.gram[0], out=q)
        q += gamma * np.eye(tr.size)
    solved = _smo_lockstep(
        qs, [y[splits[f][0]] for _, _, f in jobs], [c for c, _, _ in jobs], tol,
        [event_id] * len(jobs), duals=[duals[bw, f] for _, bw, f in jobs],
    )
    fits = []
    for (_, bw, f), (alpha, bias, _) in zip(jobs, solved):
        tr, te = splits[f]
        sv = alpha > 1e-8
        kernel = np.exp(-dist[np.ix_(te, tr[sv])] / bw)
        fits.append((alpha, bias, kernel @ (alpha[sv] * y[tr][sv]) + bias))
    return fits


def train_event_detector(
    event_id: str,
    table: RepresentationTable,
    positive_video_ids: set[str],
    concept_ids: Sequence[str],
    seed: int = 0,
    C_grid: Sequence[float] = CV_C_GRID,
    bandwidth_scales: Sequence[float] = CV_BANDWIDTH_SCALES,
    gamma: float = 0.0,
    tol: float = 1e-4,
) -> EventDetector:
    """One-vs-all chi-square SVM over video representations: the
    one-event case of train_event_detectors."""
    (det,) = train_event_detectors(
        [(event_id, positive_video_ids, seed)], table, concept_ids, C_grid, bandwidth_scales,
        gamma, tol,
    )
    return det


def train_event_detectors(
    events: Sequence[tuple[str, set[str], int]],
    table: RepresentationTable,
    concept_ids: Sequence[str],
    C_grid: Sequence[float] = CV_C_GRID,
    bandwidth_scales: Sequence[float] = CV_BANDWIDTH_SCALES,
    gamma: float = 0.0,
    tol: float = 1e-4,
) -> list[EventDetector]:
    """One detector per (event id, positive video ids, seed) of events,
    all trained on the videos of table, on their columns of concept_ids
    (which may name a concept more than once).

    Per event, (C, bandwidth scale) are picked by 2-fold CV maximizing AP
    (ties go to the earlier grid entry); the final model is refit on all
    videos and calibrated on the concatenated held-out fold scores. The
    refits are trained in one train_mklsvm_lockstep call, their Grams
    drawn one at a time from the shared distance matrix.
    """
    if not table.video_ids:
        raise PreconditionError("no training representations")
    x = table.columns(concept_ids)
    ids = table.video_ids
    labels = []
    for event_id, positives, _ in events:
        y = np.array([1.0 if vid in positives else -1.0 for vid in ids])
        if np.all(y > 0) or np.all(y < 0):
            raise PreconditionError(f"event {event_id}: one-class training set")
        labels.append(y)

    dist = chi2_distances(x, x)
    base_bw = mean_chi2_bandwidth(dist)
    grid = list(itertools.product(C_grid, bandwidth_scales))
    picks = [  # (C, bandwidth scale, CV AP, held-out scores or None) per event
        _cv_pick(dist, y, seed, grid, base_bw, gamma, tol, event_id)
        for (event_id, _, seed), y in zip(events, labels)
    ]

    def problems():
        for (c, scale, _, _), y in zip(picks, labels):
            spec = KernelSpec("chi2", bandwidth=base_bw * scale)
            # the Gram compute_kernel(x, x, spec) gives, from dist
            yield DetectorTrainingProblem(
                gram=[np.exp(-dist / spec.bandwidth)], labels=y, C=c, gamma=gamma,
                channels=["rep"], kernels={"rep": spec}, image_ids=ids,
            )

    models = train_mklsvm_lockstep(problems(), [event_id for event_id, _, _ in events], tol)
    detectors = []
    for (event_id, _, _), y, (c, scale, cv_ap, cv_scores), model in zip(events, labels, picks, models):
        model = with_support(model, {"rep": x})
        if cv_scores is None:
            cv_scores = model.raw_score_matrix({"rep": x})
        model.platt = fit_platt(cv_scores, y)
        detectors.append(EventDetector(
            event_id=event_id, concept_ids=list(concept_ids), model=model, C=c,
            bandwidth=base_bw * scale, bandwidth_scale=scale, cv_ap=float(cv_ap),
        ))
    return detectors


def _cv_pick(
    dist: np.ndarray, y: np.ndarray, seed: int, grid: Sequence[tuple[float, float]],
    base_bw: float, gamma: float, tol: float, event_id: str,
) -> tuple[float, float, float, np.ndarray | None]:
    """(C, bandwidth scale, CV AP, held-out scores) of the grid entry with
    the best 2-fold CV AP; with fewer than 2 videos of a class, CV is
    impossible and the defaults (1.0, 1.0, 0.0, None) are used."""
    picked = (1.0, 1.0, 0.0, None)
    if min((y > 0).sum(), (y < 0).sum()) < 2:
        return picked
    folds = _stratified_folds(y, seed)
    fits = _cv_grid(
        dist, y, folds, [(c, base_bw * scale) for c, scale in grid], gamma, tol, event_id
    )
    for grid_pos, (c, scale) in enumerate(grid):
        cv_scores = np.empty(y.size)
        for (_, te_idx), fit in zip((folds, folds[::-1]), fits[2 * grid_pos : 2 * grid_pos + 2]):
            cv_scores[te_idx] = fit[2]
        ap = ap_from_arrays(cv_scores, y > 0)
        if grid_pos == 0 or ap > picked[2]:  # ties go to the earlier entry
            picked = (c, scale, ap, cv_scores)
    return picked


def detect_events(
    detectors: Sequence[EventDetector], table: RepresentationTable
) -> dict[str, list[tuple[str, float]]]:
    """Per event, (video_id, confidence) ordered by confidence desc."""
    if not table.video_ids:
        raise PreconditionError("no test representations")
    out: dict[str, list[tuple[str, float]]] = {}
    for det in detectors:
        conf = det.confidences(table)
        out[det.event_id] = sorted(conf.items(), key=lambda kv: (-kv[1], kv[0]))
    return out
