from __future__ import annotations

import re
import shutil

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conceptbank import pipeline
from conceptbank.cli import main
from conceptbank.config import PipelineConfig
from conceptbank.detect import DetectorBank, DetectorTrainingProblem, KernelSpec, train_mklsvm
from conceptbank.encode import PYRAMID_BLOCKS, Codebook, encode_paths
from conceptbank.errors import DataFormatError, PreconditionError
from conceptbank.formats import read_cbvr, write_cbfv
from conceptbank.videorep import (
    RepresentationTable,
    VideoManifestEntry,
    load_video_manifest,
    recount,
    represent,
    sample_frames,
    video_manifest_rows,
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


def bank_of(*models):
    return DetectorBank.concat([DetectorBank.fold(m) for m in models])


def stored_scores(model, frames):
    """A linear model's calibrated scores through its weights as the
    detector table stores them, rounded to f32."""
    w = model.weights()["f"].astype(np.float32).astype(np.float64)
    return model.calibrated(np.asarray(frames, dtype=np.float64) @ w + model.bias)


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
    bank = bank_of(*det.values())
    rep = represent(entry, bank, frame_encoder(table), m=4)
    assert rep.frames_used == 2
    assert np.all(rep.scores > 0) and np.all(rep.scores < 1)
    hand = [
        np.mean([stored_scores(det[c], [v]) for v in table.values()])
        for c in ("con-a", "con-b")
    ]
    assert np.allclose(rep.scores, hand, atol=1e-12)
    # f32 weights stay within f32 rounding of the f64 model's scores
    exact = [
        np.mean([det[c].calibrated(det[c].raw_score_matrix({"f": np.array([v], float)}))
                 for v in table.values()])
        for c in ("con-a", "con-b")
    ]
    assert np.allclose(rep.scores, exact, atol=1e-6)


def test_represent_skips_bad_frames_but_needs_one():
    det = bank_of(trained_detector(np.array([1.0, 0.0]), "con-a"))
    table = {"good": [1.0, 0.0]}
    entry = VideoManifestEntry("vid-1", ["bad", "good"])
    with pytest.warns(UserWarning, match="skipping frame"):
        rep = represent(entry, det, frame_encoder(table), m=4)
    assert rep.frames_used == 1
    entry = VideoManifestEntry("vid-2", ["bad"])
    with pytest.warns(UserWarning):
        with pytest.raises(DataFormatError, match="no usable frames"):
            represent(entry, det, frame_encoder(table), m=4)


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
    det = DetectorBank.fold(train_mklsvm(problem, concept_id="con-a"))

    def encoder(paths):
        return encode_paths(paths, books)

    with pytest.warns(UserWarning, match="vid-m: skipping frame .*frame-1"):
        rep = represent(VideoManifestEntry("vid-m", frames), det, encoder, m=3)
    good = VideoManifestEntry("vid-m", [frames[0], frames[2]])
    alone = represent(good, det, encoder, m=3)
    assert rep.frames_used == alone.frames_used == 2
    assert np.array_equal(rep.scores, alone.scores)


def store_copy(full_store, corpus_dir, tmp_path):
    corpus, store = tmp_path / "corpus", tmp_path / "store"
    shutil.copytree(corpus_dir[0], corpus)
    shutil.copytree(full_store.root, store)
    return corpus, store, PipelineConfig.from_file(corpus / "config.json")


def test_represent_stage_bytes_do_not_depend_on_the_chunk_size(
    full_store, corpus_dir, tmp_path, monkeypatch
):
    corpus, store, config = store_copy(full_store, corpus_dir, tmp_path)
    a, b = "videos/vid-e0-te-020/f00", "videos/vid-e0-te-021/f01"
    with config.path("video_manifest_test").open("a", encoding="utf-8") as fh:
        for video_id, frames in (("vid-x-a", [a]), ("vid-x-ab", [a, b]), ("vid-x-aba", [a, b, a])):
            fh.write(f"{video_id}\t-\t{';'.join(frames)}\n")
    tables = []
    for frames in (1, 10**6):  # one video per chunk, one chunk per split
        monkeypatch.setattr(pipeline, "REPRESENT_CHUNK", frames)
        pipeline.run_stage("represent", config, store)
        tables.append({p.name: p.read_bytes() for p in (store / "representations").iterdir()})
    assert sorted(tables[0]) == ["test.cbvr", "train.cbvr"]
    assert tables[0] == tables[1]
    header, scores = read_cbvr(store / "representations" / "test.cbvr")
    row = {vid: i for i, vid in enumerate(header["video_ids"])}
    one, pair, twice = (row[v] for v in ("vid-x-a", "vid-x-ab", "vid-x-aba"))
    # the repeated frame keeps both of its rows: mean(a, b, a) = (a + 2 mean(a, b)) / 3
    assert [header["frames_used"][i] for i in (one, pair, twice)] == [1, 2, 3]
    assert np.allclose(scores[twice], (scores[one] + 2 * scores[pair]) / 3, atol=1e-6)
    assert not np.allclose(scores[twice], scores[pair], atol=1e-6)


def test_a_bad_frame_inside_a_chunk_shifts_no_other_video(
    full_store, corpus_dir, tmp_path, capsys, monkeypatch
):
    corpus, store, config = store_copy(full_store, corpus_dir, tmp_path)
    clean_header, clean = read_cbvr(store / "representations" / "test.cbvr")
    ids = clean_header["video_ids"]
    # chunks of three videos; the fifth video of the manifest is the middle of the second
    monkeypatch.setattr(pipeline, "REPRESENT_CHUNK", 3 * config.m_frames)
    rows = video_manifest_rows(config.path("video_manifest_test"))
    middle = ids.index(rows[4][0])
    victim = corpus / rows[4][2]
    assert len(list(victim.glob("f*.cbfv"))) == len(config.channels) * config.m_frames
    (victim / f"f01.{config.channels[0]}.cbfv").write_bytes(b"CBFV")  # truncated
    frame = re.escape(str(victim / "f01"))
    with pytest.warns(UserWarning, match=f"video {ids[middle]}: skipping frame {frame}"):
        pipeline.run_stage("represent", config, store)
    header, scores = read_cbvr(store / "representations" / "test.cbvr")
    assert header["video_ids"] == ids
    assert header["frames_used"][middle] == clean_header["frames_used"][middle] - 1
    others = [i for i in range(len(ids)) if i != middle]
    assert np.array_equal(scores[others], clean[others])
    assert [header["frames_used"][i] for i in others] == [clean_header["frames_used"][i] for i in others]
    assert not np.array_equal(scores[middle], clean[middle])

    for path in victim.glob("*.cbfv"):
        path.write_bytes(b"CBFV")
    argv = ["represent", "--store", str(store), "--config", str(corpus / "config.json")]
    with pytest.warns(UserWarning, match="skipping frame"):
        assert main(argv) == 3
    assert f"video {ids[middle]}: no usable frames" in capsys.readouterr().err


def table_of(concept_ids, rows, video_ids=None):
    """A representation table, videos vid-0, vid-1, ... unless named."""
    video_ids = video_ids or [f"vid-{i}" for i in range(len(rows))]
    scores = np.asarray(rows, float).reshape(len(video_ids), len(concept_ids))
    return RepresentationTable(video_ids, list(concept_ids), scores, [1] * len(video_ids))


def test_recount_orders_and_names():
    table = table_of(["c1", "c2", "c3"], [[0.2, 0.9, 0.5], [0.7, 0.1, 0.3]])
    names = {"c1": "brush", "c2": "towel", "c3": "rope"}
    assert recount(table, names, k=2) == {
        "vid-0": [("towel", 0.9), ("rope", 0.5)],
        "vid-1": [("brush", 0.7), ("rope", 0.3)],
    }
    assert recount(table, names, k=10)["vid-0"] == [
        ("towel", 0.9),
        ("rope", 0.5),
        ("brush", 0.2),
    ]
    # unnamed ids fall back to the id itself
    assert recount(table_of(["cx"], [[0.1]]), {}, k=1) == {"vid-0": [("cx", 0.1)]}


def test_recount_ties_break_alphabetically():
    table = table_of(["c1", "c2", "c3"], [[0.4, 0.4, 0.4]])
    assert recount(table, {"c1": "zeta", "c2": "alpha", "c3": "mid"}, k=3) == {
        "vid-0": [("alpha", 0.4), ("mid", 0.4), ("zeta", 0.4)],
    }


def test_recount_guards():
    with pytest.raises(PreconditionError, match="empty representation"):
        recount(table_of([], [[]]), {}, k=3)
    assert recount(table_of(["c1"], [[0.5]]), {}, k=0) == {"vid-0": []}


def test_representation_shape_guard():
    with pytest.raises(PreconditionError, match=re.escape("(2, 1) scores for 2 videos x 2 concepts")):
        RepresentationTable(["v0", "v1"], ["c1", "c2"], np.zeros((2, 1)), [1, 1])
    with pytest.raises(PreconditionError, match=re.escape("(2,) scores for 1 videos x 2 concepts")):
        RepresentationTable(["v0"], ["c1", "c2"], np.array([0.1, 0.2]), [1])


def test_table_columns_gather_in_the_asked_order():
    table = table_of(["c1", "c2", "c3"], [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    got = table.columns(["c3", "c1", "c3"])  # reordered, one id twice, c2 left out
    assert np.array_equal(got, [[0.3, 0.1, 0.3], [0.6, 0.4, 0.6]])
    # C order: chi2_distances' sums give other last bits on an F-ordered matrix
    assert got.flags.c_contiguous
    assert table.columns([]).shape == (2, 0)
    with pytest.raises(PreconditionError, match="representations lack concept c9"):
        table.columns(["c1", "c9"])


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
    assert entries[0].frame_paths == [
        str(frames / "frame-000.ppm"),
        str(frames / "frame-001.ppm"),
    ]
    assert entries[1].label is None
    assert entries[1].frame_paths == [str(tmp_path / "x.ppm"), str(tmp_path / "y.ppm")]


def test_video_manifest_descriptor_stems(tmp_path):
    frames = tmp_path / "vid-c"
    frames.mkdir()
    (frames / "frame-000.syn-a.cbfv").write_bytes(b"")
    (frames / "frame-000.syn-b.cbfv").write_bytes(b"")
    (frames / "frame-001.syn-a.cbfv").write_bytes(b"")
    manifest = tmp_path / "videos.tsv"
    manifest.write_text("vid-c\t-\tvid-c\n", encoding="utf-8")
    entries = load_video_manifest(manifest)
    assert entries[0].frame_paths == [str(frames / "frame-000"), str(frames / "frame-001")]


def test_video_manifest_frame_listing_keeps_only_frame_files(tmp_path):
    frames = tmp_path / "vid-d"
    frames.mkdir()
    for name in (
        "frame-10.ppm", "frame-2.ppm", "a.ppm",  # sorted by name, not number
        "b.syn-a.cbfv", "b.syn-b.cbfv", "a.ppm.syn-a.cbfv",  # channels share a stem
        ".ppm", "x.cbfv", "notes.txt", "c.ppm.bak",  # no frame
    ):
        (frames / name).write_bytes(b"")
    (frames / "sub.ppm").mkdir()
    (frames / "d.syn-a.cbfv").mkdir()
    manifest = tmp_path / "videos.tsv"
    manifest.write_text("vid-d\t-\tvid-d\n", encoding="utf-8")
    (entry,) = load_video_manifest(manifest)
    names = ["a.ppm", "b", "frame-10.ppm", "frame-2.ppm"]
    # locators are strings, spelled as pathlib would join them
    assert entry.frame_paths == [str(frames / name) for name in names]


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
