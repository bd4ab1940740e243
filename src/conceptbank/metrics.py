"""Average Precision for ranked retrieval lists.

AP here is the non-interpolated mean of precision@k taken at the ranks of
the relevant items (TRECVID convention). It is used in three places:
the concept visualness gate, cross-validated model selection, and the
final event-detection evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import PreconditionError


@dataclass(frozen=True)
class LabeledRanking:
    """A ranked list of item ids (best first) with binary relevance."""

    ordering: tuple[str, ...]
    relevance: Mapping[str, int]

    def __post_init__(self):
        missing = [i for i in self.ordering if i not in self.relevance]
        if missing:
            raise PreconditionError(
                f"items without relevance labels: {missing[:5]}"
            )


def average_precision(ranking: LabeledRanking) -> float:
    """AP of a ranked list with binary relevance.

    Raises PreconditionError when the list contains no relevant item
    (AP is undefined there; the caller decides how to treat it).
    """
    return _ap_in_rank_order(
        np.array([bool(ranking.relevance[i]) for i in ranking.ordering], dtype=bool)
    )


def _ap_in_rank_order(relevant: np.ndarray) -> float:
    """AP of a boolean relevance vector listed best first."""
    if not relevant.any():
        raise PreconditionError("average precision undefined: no relevant items")
    hits = np.cumsum(relevant)[relevant]
    ranks = np.flatnonzero(relevant) + 1
    # added one rank at a time, so the value does not depend on numpy's
    # pairwise summation and matches the precision@k definition exactly
    return sum((hits / ranks).tolist()) / hits.size


def ap_from_arrays(scores: Sequence[float], labels: Sequence[int]) -> float:
    """AP for parallel score/label arrays; ties broken by position."""
    if len(scores) != len(labels):
        raise PreconditionError("scores and labels differ in length")
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return _ap_in_rank_order((np.asarray(labels) != 0)[order])
