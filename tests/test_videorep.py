from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conceptbank.detect import DetectorTrainingProblem, KernelSpec, train_mklsvm
from conceptbank.encode import PYRAMID_BLOCKS, Codebook, encode_paths
from conceptbank.errors import DataFormatError, PreconditionError
from conceptbank.formats import write_cbfv
from conceptbank.videorep import (
    VideoManifestEntry,
    VideoRepresentation,
    load_video_manifest,
    recount,
    represent,
    sample_frames,
)


def test_sampling_short_videos_keeps_everything():
    assert sample_frames([1, 2, 3], m=20) == [1, 2, 3]
    assert sample_frames(list(range(5)), m=5) == list(range(5))
    assert sample_frames([7], m=1) == [7]


def test_sampling_is_even_with_pinned_endpoints():
    assert sample_frames(list(range(39)), m=20) == list(range(0, 39, 2))
    assert sample_frames(list(range(100)), m=2) == [0, 99]
    assert sample_frames(list(range(10)), m=1) == [0]


def test_sampling_guards():
    with pytest.raises(PreconditionError):
        sample_frames([], m=3)
    with pytest.raises(PreconditionError):
        sample_frames([1, 2], m=0)


@given(st.integers(1, 200), st.integers(2, 50))
def test_sampling_endpoints_and_monotonicity(f, m):
    picked = sample_frames(list(range(f)), m=m)
    assert len(picked) == min(f, m)
    assert picked[0] == 0 and picked[-1] == f - 1
    assert all(a < b for a, b in zip(picked, picked[1:]))


def trained_detector(direction, concept_id):
    """Linear detector whose raw score grows along the given 2-d axis."""
    x = np.array([[1.0, 0.0], [0.8, 0.2], [-1.0, 0.0], [-0.8, -0.2]])
    x = x @ np.array([direction, [-direction[1], direction[0]]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    problem = DetectorTrainingProblem(
        gram=[x @ x.T],
        labels=y,
        C=10.0,
        gamma=0.01,
        channels=["f"],
        features={"f": x},
        kernels={"f": KernelSpec("linear")},
    )
    return train_mklsvm(problem, tol=1e-8, concept_id=concept_id)


def frame_encoder(table):
    """Batch encoder over a {frame: 2-d feature} table; unknown frames
    are skipped with a DataFormatError, as encode.encode_paths does."""

    def encode(paths):
        kept = [p for p in paths if p in table]
        skipped = [(p, DataFormatError(f"no frame at {p}")) for p in paths if p not in table]
        rows = np.array([table[p] for p in kept], dtype=np.float64).reshape(len(kept), 2)
        return kept, skipped, {"f": rows}

    return encode


def test_represent_pools_calibrated_scores_over_frames():
    det = {
        "con-a": trained_detector(np.array([1.0, 0.0]), "con-a"),
        "con-b": trained_detector(np.array([0.0, 1.0]), "con-b"),
    }
    table = {"f0": [2.0, 0.0], "f1": [0.0, 2.0]}
    entry = VideoManifestEntry("vid-0", ["f0", "f1"])
    rep = represent(entry, ["con-a", "con-b"], det, frame_encoder(table), m=4)
    assert rep.concept_ids == ["con-a", "con-b"]
    assert rep.frames_used == 2
    assert np.all(rep.scores > 0) and np.all(rep.scores < 1)
    hand = [
        np.mean([
            det[c].calibrated(det[c].raw_score_matrix({"f": np.array([v], float)}))
            for v in table.values()
        ])
        for c in ("con-a", "con-b")
    ]
    assert np.allclose(rep.scores, hand, atol=1e-12)


def test_represent_repeated_layout_slots_match_per_slot_scoring():
    det = {
        "con-a": trained_detector(np.array([1.0, 0.0]), "con-a"),
        "con-b": trained_detector(np.array([0.6, 0.8]), "con-b"),
    }
    table = {"f0": [2.0, 0.0], "f1": [0.3, 1.7], "f2": [-1.0, 0.5]}
    entry = VideoManifestEntry("vid-r", list(table))
    layout = ["con-b", "con-a", "con-b", "con-b", "con-a"]
    rep = represent(entry, layout, det, frame_encoder(table), m=3)
    frames = {"f": np.array(list(table.values()))}
    per_slot = np.array([
        det[c].calibrated(det[c].raw_score_matrix(frames)).mean() for c in layout
    ])
    assert rep.concept_ids == layout
    assert np.array_equal(rep.scores, per_slot)


def test_represent_skips_bad_frames_but_needs_one():
    det = {"con-a": trained_detector(np.array([1.0, 0.0]), "con-a")}
    table = {"good": [1.0, 0.0]}
    entry = VideoManifestEntry("vid-1", ["bad", "good"])
    with pytest.warns(UserWarning, match="skipping frame"):
        rep = represent(entry, ["con-a"], det, frame_encoder(table), m=4)
    assert rep.frames_used == 1
    entry = VideoManifestEntry("vid-2", ["bad"])
    with pytest.warns(UserWarning):
        with pytest.raises(DataFormatError, match="no usable frames"):
            represent(entry, ["con-a"], det, frame_encoder(table), m=4)


def test_represent_skips_a_bad_middle_frame(tmp_path):
    rng = np.random.default_rng(7)
    books = {"f": Codebook("f", rng.normal(size=(2, 3)), train_seed=0, soft_sigma=0.5)}
    frames = [tmp_path / f"frame-{i}" for i in range(3)]
    for stem in frames:
        write_cbfv(f"{stem}.f.cbfv", rng.uniform(5, 35, size=(9, 2)), rng.normal(size=(9, 3)))
    (tmp_path / "frame-1.f.cbfv").write_bytes(b"CBFV")  # truncated
    x = rng.uniform(size=(4, PYRAMID_BLOCKS * 2))
    problem = DetectorTrainingProblem(
        gram=[x @ x.T],
        labels=np.array([1.0, 1.0, -1.0, -1.0]),
        channels=["f"],
        features={"f": x},
        kernels={"f": KernelSpec("linear")},
    )
    det = {"con-a": train_mklsvm(problem, concept_id="con-a")}

    def encoder(paths):
        return encode_paths(paths, books)

    with pytest.warns(UserWarning, match="vid-m: skipping frame .*frame-1"):
        rep = represent(VideoManifestEntry("vid-m", frames), ["con-a"], det, encoder, m=3)
    good = VideoManifestEntry("vid-m", [frames[0], frames[2]])
    alone = represent(good, ["con-a"], det, encoder, m=3)
    assert rep.frames_used == alone.frames_used == 2
    assert np.array_equal(rep.scores, alone.scores)


def test_represent_requires_detectors_for_the_plan():
    entry = VideoManifestEntry("vid-3", ["f0"])
    with pytest.raises(PreconditionError, match="no trained detector"):
        represent(entry, ["con-z"], {}, frame_encoder({}), m=1)


def rep_of(ids, scores):
    return VideoRepresentation("vid", list(ids), np.asarray(scores, float), 1)


def test_recount_orders_and_names():
    rep = rep_of(["c1", "c2", "c3"], [0.2, 0.9, 0.5])
    names = {"c1": "brush", "c2": "towel", "c3": "rope"}
    assert recount(rep, names, k=2) == [("towel", 0.9), ("rope", 0.5)]
    assert recount(rep, names, k=10) == [
        ("towel", 0.9),
        ("rope", 0.5),
        ("brush", 0.2),
    ]
    # unnamed ids fall back to the id itself
    assert recount(rep_of(["cx"], [0.1]), {}, k=1) == [("cx", 0.1)]


def test_recount_ties_break_alphabetically():
    rep = rep_of(["c1", "c2"], [0.4, 0.4])
    assert recount(rep, {"c1": "zeta", "c2": "alpha"}, k=2) == [
        ("alpha", 0.4),
        ("zeta", 0.4),
    ]


def test_recount_merges_repeated_concept_ids():
    rep = rep_of(["c1", "c2", "c1"], [0.3, 0.5, 0.7])
    assert recount(rep, {"c1": "brush", "c2": "towel"}, k=5) == [
        ("brush", 0.7),
        ("towel", 0.5),
    ]


def test_recount_guards():
    with pytest.raises(PreconditionError, match="empty representation"):
        recount(rep_of([], []), {}, k=3)
    assert recount(rep_of(["c1"], [0.5]), {}, k=0) == []


def test_representation_shape_guard():
    with pytest.raises(PreconditionError, match="2 scores for 1"):
        VideoRepresentation("vid", ["c1"], np.array([0.1, 0.2]), 1)


def test_video_manifest_parsing(tmp_path):
    frames = tmp_path / "vid-a"
    frames.mkdir()
    (frames / "frame-000.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    (frames / "frame-001.ppm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    manifest = tmp_path / "videos.tsv"
    manifest.write_text(
        "# header comment\n"
        "vid-a\tevt-0001\tvid-a\n"
        "vid-b\t-\tx.ppm;y.ppm\n",
        encoding="utf-8",
    )
    entries = load_video_manifest(manifest)
    assert [e.video_id for e in entries] == ["vid-a", "vid-b"]
    assert entries[0].label == "evt-0001"
    assert [p.name for p in entries[0].frame_paths] == [
        "frame-000.ppm",
        "frame-001.ppm",
    ]
    assert entries[1].label is None
    assert [p.name for p in entries[1].frame_paths] == ["x.ppm", "y.ppm"]


def test_video_manifest_descriptor_stems(tmp_path):
    frames = tmp_path / "vid-c"
    frames.mkdir()
    (frames / "frame-000.syn-a.cbfv").write_bytes(b"")
    (frames / "frame-000.syn-b.cbfv").write_bytes(b"")
    (frames / "frame-001.syn-a.cbfv").write_bytes(b"")
    manifest = tmp_path / "videos.tsv"
    manifest.write_text("vid-c\t-\tvid-c\n", encoding="utf-8")
    entries = load_video_manifest(manifest)
    assert [p.name for p in entries[0].frame_paths] == ["frame-000", "frame-001"]


def test_video_manifest_errors(tmp_path):
    manifest = tmp_path / "videos.tsv"
    manifest.write_text("vid-a\tevt-0001\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="3 tab-separated"):
        load_video_manifest(manifest)
    manifest.write_text("vid-a\t-\ta.ppm\nvid-a\t-\tb.ppm\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="duplicate video id"):
        load_video_manifest(manifest)
    empty = tmp_path / "empty-dir"
    empty.mkdir()
    manifest.write_text("vid-a\t-\tempty-dir\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="no frames found"):
        load_video_manifest(manifest)
    with pytest.raises(DataFormatError, match="cannot read"):
        load_video_manifest(tmp_path / "absent.tsv")
    with pytest.raises(PreconditionError, match="no frames"):
        VideoManifestEntry("vid-x", [])
