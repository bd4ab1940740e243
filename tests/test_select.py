from __future__ import annotations

import numpy as np
import pytest

from conceptbank.errors import DegenerateSigmaWarning, PreconditionError
from conceptbank.select import (
    ConceptImagePool,
    SelectionResult,
    compute_sigma,
    kde_confidences,
    sample_negatives,
    select_training_set,
)

from oracles import kde_triple_loop


def pool_1d(values, concept_id="con", prefix="con"):
    ids = [f"{prefix}-{i:03d}" for i in range(len(values))]
    return ConceptImagePool(concept_id, ids, {"f": np.reshape(values, (-1, 1))})


def test_sigma_is_mean_pairwise_distance():
    assert compute_sigma(pool_1d([0, 4]))["f"] == pytest.approx(4.0)
    # pairs (0,0), (0,10), (0,10): mean 20/3
    assert compute_sigma(pool_1d([0, 0, 10]))["f"] == pytest.approx(20 / 3)


def test_sigma_degenerate_cases_warn_and_fall_back():
    with pytest.warns(DegenerateSigmaWarning):
        assert compute_sigma(pool_1d([3]))["f"] == 1.0
    with pytest.warns(DegenerateSigmaWarning):
        assert compute_sigma(pool_1d([2, 2, 2]))["f"] == 1.0


def test_worked_confidence_example():
    scores = kde_confidences(pool_1d([0, 0, 10]))
    assert scores[0] == pytest.approx(0.7018, abs=5e-5)
    assert scores[1] == pytest.approx(0.7018, abs=5e-5)
    assert scores[2] == pytest.approx(0.4036, abs=5e-5)


def test_confidences_match_literal_triple_loop():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        features = {ch: rng.normal(size=(n, d)) for ch, d in (("a", 3), ("b", 2), ("c", 4))}
        pool = ConceptImagePool("con", [f"im-{i}" for i in range(n)], features)
        got = kde_confidences(pool)
        want = kde_triple_loop(features, pool.sigma)
        assert np.allclose(got, want, atol=1e-12)


def test_confidence_bounds_and_identical_members():
    scores = kde_confidences(pool_1d([1, 5, 9, 2]))
    assert np.all(scores > 0) and np.all(scores <= 1)
    with pytest.warns(DegenerateSigmaWarning):
        assert kde_confidences(pool_1d([7, 7, 7])) == pytest.approx([1.0] * 3)
    with pytest.warns(DegenerateSigmaWarning):
        assert kde_confidences(pool_1d([3])).tolist() == [1.0]


def test_duplicating_a_member_raises_its_confidence_rank():
    lone = kde_confidences(pool_1d([0, 10, 20]))
    dup = kde_confidences(pool_1d([0, 0, 10, 20]))
    # member at 0 moves from sharing the top to clearly densest
    assert lone.argmax() == 1
    assert dup.argmax() in (0, 1)
    assert dup[0] > lone[0]


def test_ranking_is_scale_invariant():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=8)
    a = kde_confidences(pool_1d(vals))
    b = kde_confidences(pool_1d(vals * 37.0))
    assert np.array_equal(np.argsort(a), np.argsort(b))
    assert np.allclose(a, b, atol=1e-12)  # sigma rescales with the data


def other(concept_id, ids):
    return ConceptImagePool(concept_id, ids, {"f": np.zeros((len(ids), 1))})


def test_selection_orders_by_confidence_then_id():
    pool = pool_1d([0, 0, 10])
    res = select_training_set(pool, [other("z", ["n1", "n2"])], s=2, t=2, seed=0)
    assert [i for i, _ in res.positives] == ["con-000", "con-001"]
    assert res.positives[0][1] == pytest.approx(0.7018, abs=5e-5)
    assert res.negatives == [("n1", "z"), ("n2", "z")]


def test_selection_caps_at_pool_size_and_round_trips():
    pool = pool_1d([0, 1, 2])
    res = select_training_set(pool, [other("z", ["n1", "n2", "n3"])], s=50, t=3)
    assert len(res.positives) == 3
    clone = SelectionResult.from_dict(res.to_dict())
    assert clone == res


def test_negative_sampling_rules():
    pool = pool_1d([0, 1])
    others = [
        other("b", ["x", "con-000"]),  # con-000 is in the pool: excluded
        other("a", ["x", "y"]),  # "x" in both: source is "a" (lexicographic)
        other("con", ["w"]),  # the pool's own concept id: ignored entirely
    ]
    got = sample_negatives(pool, others, t=2, seed=3)
    assert got == [("x", "a"), ("y", "a")]


def test_negative_sampling_is_seeded_and_guards_shortfall():
    pool = pool_1d([0])
    others = [other("z", [f"n{i}" for i in range(20)])]
    with pytest.warns(DegenerateSigmaWarning):
        a = select_training_set(pool, others, s=1, t=5, seed=9)
        b = select_training_set(pool, others, s=1, t=5, seed=9)
        c = select_training_set(pool, others, s=1, t=5, seed=10)
    assert a.negatives == b.negatives
    assert a.negatives != c.negatives
    with pytest.raises(PreconditionError, match="negative candidates"):
        sample_negatives(pool, others, t=100, seed=0)
    assert len(sample_negatives(pool, others, t=100, seed=0, allow_fewer=True)) == 20


def test_pool_guards():
    with pytest.raises(PreconditionError, match="empty pool"):
        ConceptImagePool("c", [], {"f": np.zeros((0, 1))})
    for bad in (np.zeros((3, 1)), np.zeros(2), np.zeros((2, 1, 1))):
        with pytest.raises(PreconditionError, match="pool c: channel g is"):
            ConceptImagePool("c", ["a", "b"], {"f": np.zeros((2, 1)), "g": bad})
