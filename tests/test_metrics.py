from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conceptbank.errors import PreconditionError
from conceptbank.metrics import (
    LabeledRanking,
    ap_from_arrays,
    ap_from_scores,
    average_precision,
    mean_average_precision,
)

from oracles import ap_precision_at_k


def ranking(labels):
    ids = [f"v{i}" for i in range(len(labels))]
    return LabeledRanking(tuple(ids), dict(zip(ids, labels)))


def test_hand_computed_ap_values():
    assert average_precision(ranking([1, 0, 1])) == pytest.approx(0.5 * (1 + 2 / 3))
    assert average_precision(ranking([0, 1, 1])) == pytest.approx(0.5 * (0.5 + 2 / 3))
    assert average_precision(ranking([1, 1, 0])) == 1.0


def test_perfect_and_worst_rankings():
    assert average_precision(ranking([1, 1, 0, 0])) == 1.0
    # single relevant item at the bottom of n
    assert average_precision(ranking([0, 0, 0, 1])) == pytest.approx(1 / 4)


def test_ranking_requires_complete_labels_and_a_positive():
    with pytest.raises(PreconditionError):
        LabeledRanking(("a", "b"), {"a": 1})
    with pytest.raises(PreconditionError):
        average_precision(ranking([0, 0]))


def test_map_is_the_mean():
    rs = [ranking([1, 0]), ranking([0, 1])]
    assert mean_average_precision(rs) == pytest.approx((1.0 + 0.5) / 2)
    with pytest.raises(PreconditionError):
        mean_average_precision([])


def test_scores_rank_descending_with_id_ties():
    scores = {"a": 0.2, "b": 0.9, "c": 0.2}
    # b first, then the 0.2 tie resolves alphabetically: a before c
    assert ap_from_scores(scores, {"a": 0, "b": 1, "c": 1}) == pytest.approx(
        0.5 * (1.0 + 2 / 3)
    )


def test_array_form_matches_mapping_form():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, size=30)
    labels[0] = 1
    ids = [f"i{k:06d}" for k in range(30)]
    want = ap_from_scores(dict(zip(ids, scores)), dict(zip(ids, labels)))
    assert ap_from_arrays(scores, labels) == pytest.approx(want, abs=0)


@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 1)), min_size=1, max_size=60
    ).filter(lambda rows: any(lab for _, lab in rows))
)
def test_array_form_ties_by_position_match_oracle_exactly(rows):
    scores = [float(s) for s, _ in rows]
    labels = [lab for _, lab in rows]
    # the oracle's ranking: score descending, equal scores in input order
    order = sorted(range(len(rows)), key=lambda k: -scores[k])
    want = ap_precision_at_k(order, dict(enumerate(labels)))
    assert ap_from_arrays(np.array(scores), np.array(labels) > 0) == want


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=40).filter(lambda ls: any(ls))
)
def test_matches_precision_at_k_oracle(labels):
    r = ranking(labels)
    assert average_precision(r) == ap_precision_at_k(r.ordering, r.relevance)


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=20).filter(lambda ls: any(ls)),
    st.lists(st.integers(0, 0), max_size=10),
)
def test_trailing_negatives_never_change_ap(labels, tail):
    assert average_precision(ranking(labels + tail)) == pytest.approx(
        average_precision(ranking(labels)), abs=0
    )


@given(st.lists(st.integers(0, 1), min_size=2, max_size=25).filter(lambda ls: any(ls)))
def test_promoting_a_relevant_item_never_hurts(labels):
    base = average_precision(ranking(labels))
    for i in range(len(labels) - 1):
        if labels[i] == 0 and labels[i + 1] == 1:
            swapped = list(labels)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert average_precision(ranking(swapped)) >= base
