from __future__ import annotations

import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conceptbank import detect, pipeline, retrieve
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
from conceptbank.formats import read_cbvr
from conceptbank.pipeline import run_stage
from conceptbank.retrieve import (
    CV_BANDWIDTH_SCALES,
    CV_C_GRID,
    RankList,
    _stratified_folds,
    _cv_grid,
    detect_events,
    fuse,
    rank_list_from_scores,
    train_event_detector,
    train_event_detectors,
    zero_shot_retrieve,
)
from conceptbank.semmatch import SimilarityProvider, select_concepts
from conceptbank.store import ModelStore
from conceptbank.videorep import RepresentationTable

from conftest import small_tree
from oracles import fusion_formula, mkl_by_smo


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


def table(video_ids, layout, scores):
    """A representation table, one frame per video."""
    return RepresentationTable(
        list(video_ids), list(layout), np.asarray(scores, float), [1] * len(video_ids)
    )


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
    reps = table(["v0", "v1", "v2"], layout, [[0.9, 0.0], [0.5, 0.9], [0.1, 0.9]])
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
    reps = table(["v0"], layout, [[0.9, 0.0]])
    unmatched = select_concepts("xylophone", tree, provider)
    with pytest.raises(PreconditionError, match="query unmatched.*xylophone"):
        zero_shot_retrieve(unmatched, reps)
    plan = select_concepts("wash", tree, provider)
    with pytest.raises(PreconditionError, match="no test representations"):
        zero_shot_retrieve(plan, table([], layout, np.zeros((0, 2))))
    missing = table(["v0"], [leaves["towel"]], [[0.4]])
    with pytest.raises(PreconditionError, match="lack concept"):
        zero_shot_retrieve(plan, missing)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_zero_shot_invariant_to_monotone_score_rescaling(seed):
    tree, leaves, provider = retrieval_setup()
    layout = [leaves["brush"], leaves["towel"]]
    rng = np.random.default_rng(seed)
    scores = rng.random((6, 2))
    ids = [f"v{i}" for i in range(6)]
    reps = table(ids, layout, scores)
    warped = table(ids, layout, np.exp(3.0 * scores) - 0.5)
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


LAYOUT = ["con-a", "con-b", "con-c"]


def event_reps(seed=0, n_per=12):
    """Two separable groups of 3-concept representations."""
    rng = np.random.default_rng(seed)
    ids, rows = [], []
    for i in range(n_per):
        for group, center in (("pos", [0.8, 0.7, 0.1]), ("neg", [0.1, 0.2, 0.8])):
            ids.append(f"{group}-{i:02d}")
            rows.append(np.clip(center + 0.05 * rng.normal(size=3), 0, 1))
    return table(ids, LAYOUT, rows), {v for v in ids if v.startswith("pos")}


def test_event_detector_learns_a_separable_split():
    reps, positives = event_reps()
    det = train_event_detector("evt-0000", reps, positives, LAYOUT, seed=0)
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
    a = train_event_detector("evt-0000", reps, positives, LAYOUT, seed=5)
    b = train_event_detector("evt-0000", reps, positives, LAYOUT, seed=5)
    assert a.C == b.C and a.bandwidth == b.bandwidth and a.cv_ap == b.cv_ap
    with pytest.raises(PreconditionError, match="one-class"):
        train_event_detector("evt-0000", reps, set(), LAYOUT)
    with pytest.raises(PreconditionError, match="no training representations"):
        train_event_detector("evt-0000", table([], LAYOUT, np.zeros((0, 3))), positives, LAYOUT)
    with pytest.raises(PreconditionError, match="no test representations"):
        detect_events([a], table([], LAYOUT, np.zeros((0, 3))))


def test_event_detectors_train_on_the_columns_their_layout_names():
    # a layout may name a concept twice (one slot per plan that uses it)
    # and leave one out; the detector equals one trained on reps whose
    # columns are exactly that layout
    reps, positives = event_reps()
    layout = ["con-c", "con-a", "con-c"]
    gathered = table(reps.video_ids, layout, reps.scores[:, [2, 0, 2]])
    got = train_event_detector("evt-0000", reps, positives, layout, seed=1)
    want = train_event_detector("evt-0000", gathered, positives, layout, seed=1)
    assert got.concept_ids == layout
    assert np.array_equal(got.model.alpha, want.model.alpha) and got.model.bias == want.model.bias
    assert np.array_equal(got.model.support_features["rep"], want.model.support_features["rep"])
    assert got.confidences(reps) == want.confidences(gathered)
    with pytest.raises(PreconditionError, match="representations lack concept con-z"):
        train_event_detector("evt-0000", reps, positives, ["con-a", "con-z"])
    with pytest.raises(PreconditionError, match="representations lack concept con-a"):
        got.confidences(table(reps.video_ids, ["con-b", "con-c"], reps.scores[:, [1, 2]]))


def test_tiny_event_training_skips_cross_validation():
    reps, _ = event_reps(n_per=1)
    det = train_event_detector("evt-0000", reps, {"pos-00"}, LAYOUT, seed=0)
    assert det.cv_ap == 0.0  # one positive: CV is impossible, defaults used
    assert det.C == 1.0 and det.bandwidth_scale == 1.0


def test_cv_folds_from_the_shared_distance_matrix_are_exact():
    # 48 concept scores per video, as on the benchmark's video-index run
    rng = np.random.default_rng(3)
    # even class counts give equal folds (one lockstep stack); 31 positives
    # give folds of 31 and 30 rows, solved as two stacks, here with a ridge
    for n_pos, n_neg, gamma in ((30, 30, 0.0), (31, 30, 0.01)):
        y = rng.permutation(np.concatenate([np.ones(n_pos), -np.ones(n_neg)]))
        x = rng.uniform(0.0, 1.0, size=(y.size, 48))
        x[:, 0] += 0.3 * (y > 0) + 0.2 * rng.normal(size=y.size)
        x = np.abs(x)
        dist = chi2_distances(x, x)
        base_bw = mean_chi2_bandwidth(dist)
        folds = _stratified_folds(y, seed=4)
        assert (folds[0].size == folds[1].size) == (n_pos % 2 == 0)
        params = [(c, base_bw * scale) for c in CV_C_GRID for scale in CV_BANDWIDTH_SCALES]
        fits = iter(_cv_grid(dist, y, folds, params, gamma, 1e-4, "e"))
        for c, bandwidth in params:
            spec = KernelSpec("chi2", bandwidth=bandwidth)
            for tr, te in (folds, folds[::-1]):
                alpha, bias, scores = next(fits)
                problem = DetectorTrainingProblem(
                    gram=[compute_kernel(x[tr], x[tr], spec)], labels=y[tr], C=c, gamma=gamma,
                    channels=["rep"], features={"rep": x[tr]}, kernels={"rep": spec},
                )
                direct = train_mklsvm(problem, tol=1e-4, concept_id="e")
                assert alpha.shape == (tr.size,)
                assert np.array_equal(np.flatnonzero(alpha > 1e-8), direct.support_rows)
                assert np.array_equal(alpha[alpha > 1e-8], direct.alpha)
                assert bias == direct.bias
                assert np.array_equal(scores, direct.raw_score_matrix({"rep": x[te]}))
        assert next(fits, None) is None


def three_events(seed=0):
    """36 videos in three groups of 12, and three events on them: two
    with a group each as positives, one with a single positive video
    (too few to cross-validate)."""
    rng = np.random.default_rng(seed)
    layout = ["con-a", "con-b", "con-c", "con-d"]
    centers = ([0.8, 0.2, 0.1, 0.3], [0.1, 0.8, 0.2, 0.3], [0.2, 0.1, 0.8, 0.3])
    reps = table(
        [f"g{g}-{i:02d}" for i in range(12) for g in range(3)],
        layout,
        [np.clip(np.array(c) + 0.1 * rng.normal(size=4), 0, 1) for _ in range(12) for c in centers],
    )
    events = [
        ("evt-0000", {f"g0-{i:02d}" for i in range(12)}, 3),
        ("evt-0001", {f"g1-{i:02d}" for i in range(12)}, 4),
        ("evt-0002", {"g2-05"}, 5),
    ]
    return reps, events


def test_a_batch_of_events_equals_one_detector_per_event():
    reps, events = three_events()
    batch = train_event_detectors(events, reps, reps.concept_ids)
    assert [det.event_id for det in batch] == [event_id for event_id, _, _ in events]
    for (event_id, positives, seed), det in zip(events, batch):
        alone = train_event_detector(event_id, reps, positives, reps.concept_ids, seed=seed)
        got, want = det.model, alone.model
        assert np.array_equal(got.alpha, want.alpha) and got.bias == want.bias
        assert got.support_ids == want.support_ids and got.platt == want.platt
        assert np.array_equal(got.support_features["rep"], want.support_features["rep"])
        assert (det.C, det.bandwidth, det.bandwidth_scale, det.cv_ap) == (
            alone.C, alone.bandwidth, alone.bandwidth_scale, alone.cv_ap
        )
    assert batch[0].cv_ap > 0.9 and batch[2].cv_ap == 0.0


def test_each_event_refit_equals_the_one_dual_reference():
    reps, events = three_events(seed=1)
    x, ids = reps.scores, reps.video_ids
    base_bw = mean_chi2_bandwidth(chi2_distances(x, x))
    for (event_id, positives, _), det in zip(events, train_event_detectors(events, reps, reps.concept_ids)):
        assert det.bandwidth == base_bw * det.bandwidth_scale
        spec = KernelSpec("chi2", bandwidth=det.bandwidth)
        problem = DetectorTrainingProblem(
            gram=[compute_kernel(x, x, spec)],
            labels=[1.0 if vid in positives else -1.0 for vid in ids], C=det.C, gamma=0.0,
            channels=["rep"], features={"rep": x}, kernels={"rep": spec}, image_ids=ids,
        )
        want, _ = mkl_by_smo(problem, concept_id=event_id)
        got = det.model
        assert np.array_equal(got.alpha, want.alpha) and got.bias == want.bias
        assert got.support_ids == want.support_ids
        assert np.array_equal(got.support_features["rep"], want.support_features["rep"])


def test_a_one_class_event_in_a_batch_is_named():
    reps, events = three_events()
    everyone = set(reps.video_ids)
    for bad in (("evt-none", set(), 1), ("evt-all", everyone, 1)):
        with pytest.raises(PreconditionError, match=f"event {bad[0]}: one-class"):
            train_event_detectors([events[0], bad, events[1]], reps, reps.concept_ids)


def test_detect_stage_computes_the_training_distances_once(
    full_store, corpus_config, tmp_path, monkeypatch
):
    store = ModelStore(tmp_path / "store")
    shutil.copytree(full_store.root, store.root)
    # the event SVMs train on the concatenated plans' columns of train.cbvr
    header, scores = read_cbvr(store.path("representations", "train.cbvr"))
    layout = pipeline._layout(store, pipeline._tree(store))
    assert len(layout) > len(set(layout))  # every plan holds every concept
    train = scores[:, [header["concept_ids"].index(cid) for cid in layout]]
    original, calls, c_order = detect.chi2_distances, [], []

    def counted(x, z, *args, **kwargs):
        calls.append(np.array_equal(x, train) and np.array_equal(z, train))
        c_order.append(x.flags.c_contiguous and z.flags.c_contiguous)
        return original(x, z, *args, **kwargs)

    monkeypatch.setattr(detect, "chi2_distances", counted)
    monkeypatch.setattr(retrieve, "chi2_distances", counted)
    run_stage("detect", corpus_config, store.root)
    assert calls.count(True) == 1 and len(calls) > 1  # the rest score test videos
    assert all(c_order)  # the distances' last bits depend on the memory order
