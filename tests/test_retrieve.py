from __future__ import annotations

import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conceptbank.cli import main
from conceptbank.detect import (
    DetectorTrainingProblem,
    KernelSpec,
    chi2_distances,
    compute_kernel,
    mean_chi2_bandwidth,
    train_mklsvm,
)
from conceptbank.errors import DataFormatError, PreconditionError
from conceptbank.pipeline import run_stage
from conceptbank.retrieve import (
    CV_BANDWIDTH_SCALES,
    CV_C_GRID,
    RankList,
    _stratified_folds,
    _train_fold,
    detect_events,
    fuse,
    rank_list_from_scores,
    train_event_detector,
    zero_shot_retrieve,
)
from conceptbank.semmatch import SimilarityProvider, select_concepts
from conceptbank.store import ModelStore
from conceptbank.videorep import VideoRepresentation

from conftest import small_tree
from oracles import fusion_formula


def rl(concept_id, ordering):
    return RankList(concept_id, list(ordering))


def test_single_list_fusion_scores():
    result = fuse([rl("c", "abcd")])
    # R = 1 - r/n for n = 4: 0.75, 0.5, 0.25, 0
    assert result.ordering == list("abcd")
    assert [result.scores[v] for v in "abcd"] == pytest.approx(
        [0.75, 0.5, 0.25, 0.0]
    )
    assert result.d == 1 and result.n == 4
    assert result.ranks["a"] == [1]


def test_opposed_lists_tie_and_break_by_id():
    result = fuse([rl("c1", "abc"), rl("c2", "cba")])
    assert [result.scores[v] for v in "abc"] == pytest.approx([1 / 3] * 3)
    assert result.ordering == ["a", "b", "c"]


def test_fusion_hand_example():
    result = fuse([rl("c1", "ab"), rl("c2", "ab"), rl("c3", "ba")])
    # a: (0.5 + 0.5 + 0) / 3, b: (0 + 0 + 0.5) / 3
    assert result.scores["a"] == pytest.approx(1 / 3)
    assert result.scores["b"] == pytest.approx(1 / 6)
    assert result.ordering == ["a", "b"]


def test_fusion_validates_input():
    with pytest.raises(PreconditionError, match="at least one"):
        fuse([])
    with pytest.raises(PreconditionError, match="different video set"):
        fuse([rl("c1", "ab"), rl("c2", "ax")])
    with pytest.raises(PreconditionError, match="duplicate video ids"):
        RankList("c", ["a", "a"])


def test_fusion_matches_literal_formula_and_bounds():
    rng = np.random.default_rng(3)
    videos = [f"v{i}" for i in range(8)]
    for _ in range(25):
        d = int(rng.integers(1, 5))
        orderings = [list(rng.permutation(videos)) for _ in range(d)]
        want_scores, want_order = fusion_formula(orderings)
        got = fuse([rl(f"c{j}", o) for j, o in enumerate(orderings)])
        assert got.ordering == want_order
        for v in videos:
            assert got.scores[v] == pytest.approx(want_scores[v], abs=1e-12)
            assert 0.0 <= got.scores[v] <= 1.0 - 1.0 / len(videos)


def test_first_everywhere_gets_the_maximum_score():
    result = fuse([rl("c1", "xab"), rl("c2", "xba")])
    assert result.scores["x"] == pytest.approx(1.0 - 1.0 / 3.0)
    assert result.ordering[0] == "x"


def test_rank_list_from_scores_breaks_ties_by_id():
    scores = {"b": 0.5, "a": 0.5, "c": 0.9}
    assert rank_list_from_scores("c", scores).ordering == ["c", "a", "b"]
    with pytest.raises(PreconditionError, match="no scores"):
        rank_list_from_scores("c", {})


def rep(video_id, ids, scores):
    return VideoRepresentation(video_id, list(ids), np.asarray(scores, float), 1)


def retrieval_setup():
    tree = small_tree(
        events=["dog grooming"], concepts={"dog grooming": ["brush", "towel"]}
    )
    leaves = {c.name: c.id for c in tree.concept_leaves()}
    provider = SimilarityProvider(
        word_pairs={
            ("brush", "wash"): 0.9,
            ("towel", "wash"): 0.0,
            ("groom", "wash"): 1.0,
            ("grooming", "wash"): 1.0,
            ("dog", "wash"): 1.0,
            ("animal", "wash"): 1.0,
            ("care", "wash"): 1.0,
            ("pets", "wash"): 1.0,
            ("animals", "wash"): 1.0,
        }
    )
    return tree, leaves, provider


def test_zero_shot_uses_only_matching_concepts():
    tree, leaves, provider = retrieval_setup()
    layout = [leaves["brush"], leaves["towel"]]
    reps = [
        rep("v0", layout, [0.9, 0.0]),
        rep("v1", layout, [0.5, 0.9]),
        rep("v2", layout, [0.1, 0.9]),
    ]
    plan = select_concepts("wash", tree, provider)
    result = zero_shot_retrieve(plan, reps)
    # towel has similarity 0, so only the brush column drives the ranking
    assert result.d == 1
    assert result.concept_ids == [leaves["brush"]]
    assert result.ordering == ["v0", "v1", "v2"]
    assert plan.concept_ids[0] == leaves["brush"]


def test_zero_shot_rejects_unmatched_queries_and_bad_layouts():
    tree, leaves, provider = retrieval_setup()
    layout = [leaves["brush"], leaves["towel"]]
    reps = [rep("v0", layout, [0.9, 0.0])]
    unmatched = select_concepts("xylophone", tree, provider)
    with pytest.raises(PreconditionError, match="query unmatched.*xylophone"):
        zero_shot_retrieve(unmatched, reps)
    plan = select_concepts("wash", tree, provider)
    with pytest.raises(PreconditionError, match="no test representations"):
        zero_shot_retrieve(plan, [])
    missing = [rep("v0", [leaves["towel"]], [0.4])]
    with pytest.raises(PreconditionError, match="lack concept"):
        zero_shot_retrieve(plan, missing)
    ragged = [
        rep("v0", layout, [0.9, 0.0]),
        rep("v1", [leaves["towel"], leaves["brush"]], [0.9, 0.0]),
    ]
    with pytest.raises(PreconditionError, match="layout mismatch"):
        zero_shot_retrieve(plan, ragged)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_zero_shot_invariant_to_monotone_score_rescaling(seed):
    tree, leaves, provider = retrieval_setup()
    layout = [leaves["brush"], leaves["towel"]]
    rng = np.random.default_rng(seed)
    scores = rng.random((6, 2))
    reps = [rep(f"v{i}", layout, s) for i, s in enumerate(scores)]
    warped = [
        rep(f"v{i}", layout, np.exp(3.0 * s) - 0.5) for i, s in enumerate(scores)
    ]
    plan = select_concepts("wash", tree, provider)
    a = zero_shot_retrieve(plan, reps)
    b = zero_shot_retrieve(plan, warped)
    assert a.ordering == b.ordering
    assert a.scores == b.scores


def test_retrieve_stage_ranks_with_the_stored_plan(full_store, corpus_config, tmp_path):
    store = ModelStore(tmp_path / "store")
    shutil.copytree(full_store.root, store.root)
    event_id = sorted(store.path("plans").glob("*.json"))[0].stem
    plan = store.read_json(f"plans/{event_id}.json")
    first = plan["selections"][0]
    assert first["score"] > 0.0
    plan["selections"] = [first]
    store.write_json(f"plans/{event_id}.json", plan)
    run_stage("retrieve", corpus_config, store.root)
    report = store.read_json(f"reports/retrieval/{event_id}.json")
    assert report["concepts_used"] == [first["concept_id"]]
    assert report["d"] == 1


def test_retrieve_stage_rejects_a_plan_without_n(
    full_store, corpus_config, corpus_dir, tmp_path, capsys
):
    store = ModelStore(tmp_path / "store")
    shutil.copytree(full_store.root, store.root)
    path = sorted(store.path("plans").glob("*.json"))[0]
    plan = store.read_json(f"plans/{path.name}")
    del plan["n"]
    store.write_json(f"plans/{path.name}", plan)
    with pytest.raises(DataFormatError, match=re.escape(f"malformed query plan {path}")):
        run_stage("retrieve", corpus_config, store.root)
    config = corpus_dir[0] / "config.json"
    assert main(["retrieve", "--store", str(store.root), "--config", str(config)]) == 3
    assert str(path) in capsys.readouterr().err


def event_reps(seed=0, n_per=12):
    """Two separable groups of 3-concept representations."""
    rng = np.random.default_rng(seed)
    layout = ["con-a", "con-b", "con-c"]
    reps, positives = [], set()
    for i in range(n_per):
        reps.append(
            rep(f"pos-{i:02d}", layout, np.clip([0.8, 0.7, 0.1] + 0.05 * rng.normal(size=3), 0, 1))
        )
        positives.add(f"pos-{i:02d}")
        reps.append(
            rep(f"neg-{i:02d}", layout, np.clip([0.1, 0.2, 0.8] + 0.05 * rng.normal(size=3), 0, 1))
        )
    return reps, positives


def test_event_detector_learns_a_separable_split():
    reps, positives = event_reps()
    det = train_event_detector("evt-0000", reps, positives, seed=0)
    assert det.cv_ap > 0.9
    assert det.bandwidth > 0
    conf = det.confidences(reps)
    pos_mean = np.mean([conf[v] for v in conf if v.startswith("pos")])
    neg_mean = np.mean([conf[v] for v in conf if v.startswith("neg")])
    assert pos_mean > neg_mean
    ranked = detect_events([det], reps)["evt-0000"]
    assert {v for v, _ in ranked[:12]} == positives
    assert [c for _, c in ranked] == sorted((c for _, c in ranked), reverse=True)


def test_event_detector_is_seeded_and_guards_one_class():
    reps, positives = event_reps()
    a = train_event_detector("evt-0000", reps, positives, seed=5)
    b = train_event_detector("evt-0000", reps, positives, seed=5)
    assert a.C == b.C and a.bandwidth == b.bandwidth and a.cv_ap == b.cv_ap
    with pytest.raises(PreconditionError, match="one-class"):
        train_event_detector("evt-0000", reps, set())
    with pytest.raises(PreconditionError, match="no training representations"):
        train_event_detector("evt-0000", [], positives)
    with pytest.raises(PreconditionError, match="no test representations"):
        detect_events([a], [])


def test_tiny_event_training_skips_cross_validation():
    reps, _ = event_reps(n_per=1)
    det = train_event_detector("evt-0000", reps, {"pos-00"}, seed=0)
    assert det.cv_ap == 0.0  # one positive: CV is impossible, defaults used
    assert det.C == 1.0 and det.bandwidth_scale == 1.0


def test_cv_folds_from_the_shared_distance_matrix_are_exact():
    # 48 concept scores per video, as on the benchmark's video-index run
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=(60, 48))
    y = np.where(x[:, 0] + 0.3 * rng.normal(size=60) > 0.5, 1.0, -1.0)
    dist = chi2_distances(x, x)
    base_bw = mean_chi2_bandwidth(dist)
    folds = _stratified_folds(y, seed=4)
    for c in CV_C_GRID:
        for scale in CV_BANDWIDTH_SCALES:
            spec = KernelSpec("chi2", bandwidth=base_bw * scale)
            for tr, te in (folds, folds[::-1]):
                shared, scores = _train_fold(dist, y, tr, te, c, spec.bandwidth, 0.0, 1e-4, "e")
                problem = DetectorTrainingProblem(
                    gram=[compute_kernel(x[tr], x[tr], spec)], labels=y[tr], C=c, gamma=0.0,
                    channels=["rep"], features={"rep": x[tr]}, kernels={"rep": spec},
                )
                direct = train_mklsvm(problem, tol=1e-4, concept_id="e")
                assert np.array_equal(shared.alpha, direct.alpha)
                assert shared.bias == direct.bias
                assert np.array_equal(scores, direct.raw_score_matrix({"rep": x[te]}))
