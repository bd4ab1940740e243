from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conceptbank.config import PipelineConfig
from conceptbank.detect import DetectorModel, KernelSpec
from conceptbank.errors import DataFormatError, PreconditionError
from conceptbank.retrieve import EventDetector
from conceptbank.store import ModelStore
from conceptbank.videorep import RepresentationTable


def test_config_defaults_match_operating_point():
    cfg = PipelineConfig()
    assert (cfg.s, cfg.t) == (100, 1000)
    assert (cfg.gamma, cfg.C) == (0.01, 1.0)
    assert cfg.n_concepts == 100
    assert cfg.m_frames == 20
    assert cfg.codebook_k == 1000
    assert cfg.cv_ap_threshold == 0.8
    assert cfg.min_training_images == 100
    assert cfg.channels == ["gray-patch", "color-hist"]


def test_config_validation():
    with pytest.raises(PreconditionError):
        PipelineConfig(s=0)
    with pytest.raises(PreconditionError):
        PipelineConfig(selection_mode="sorted")
    with pytest.raises(PreconditionError):
        PipelineConfig(calibration_holdout=1.0)
    with pytest.raises(PreconditionError):
        PipelineConfig(channels=[])
    with pytest.raises(PreconditionError):
        PipelineConfig(base_seed=-1)


def test_seed_derivation():
    cfg = PipelineConfig(base_seed=7)
    seeds = {p: cfg.seed_for(p) for p in
             ("fixture", "codebook", "selection", "verify", "train", "event")}
    assert seeds["fixture"] == 7000
    assert len(set(seeds.values())) == 6  # purposes never collide
    assert PipelineConfig(base_seed=8).seed_for("fixture") == 8000
    with pytest.raises(PreconditionError):
        cfg.seed_for("lottery")


def test_hash_ignores_root_but_tracks_parameters(tmp_path):
    a = PipelineConfig()
    b = PipelineConfig(root=tmp_path)
    assert a.config_hash == b.config_hash
    assert a.config_hash != PipelineConfig(s=99).config_hash
    assert a.config_hash != PipelineConfig(base_seed=1).config_hash


def test_config_file_round_trip(tmp_path):
    cfg = PipelineConfig(s=20, t=60, base_seed=3)
    path = tmp_path / "config.json"
    cfg.save(path)
    loaded = PipelineConfig.from_file(path)
    assert loaded.root == tmp_path
    assert loaded.config_hash == cfg.config_hash
    assert loaded.path("hierarchy") == tmp_path / "hierarchy.json"
    assert dataclasses.replace(loaded, root=cfg.root) == cfg


def test_config_file_rejects_unknown_keys_and_bad_json(tmp_path):
    path = tmp_path / "config.json"
    for key in ("mystery", "concept_kernel", "negative_scope"):
        path.write_text(json.dumps({"s": 10, key: "linear"}), encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"unknown keys.*{key}"):
            PipelineConfig.from_file(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        PipelineConfig.from_file(path)
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(DataFormatError, match="JSON object"):
        PipelineConfig.from_file(path)
    with pytest.raises(DataFormatError, match="cannot read"):
        PipelineConfig.from_file(tmp_path / "absent.json")
    with pytest.raises(PreconditionError, match="not set"):
        PipelineConfig().path("embeddings")


def test_store_initialize_and_stage_tracking(tmp_path):
    store = ModelStore(tmp_path / "store")
    store.initialize("hash-a")
    assert store.read_manifest()["stages"] == {}
    for d in ("codebooks", "event_detectors", "reports"):
        assert store.path(d).is_dir()

    store.mark_stage("ingest", "hash-a")
    assert store.read_manifest()["stages"] == {"ingest": {"config_hash": "hash-a"}}
    store.require_upstream(["ingest"], "hash-a")
    with pytest.raises(PreconditionError, match="missing upstream: encode"):
        store.require_upstream(["ingest", "encode"], "hash-a")
    with pytest.raises(PreconditionError, match="config-hash mismatch"):
        store.require_upstream(["ingest"], "hash-b")
    store.require_upstream(["ingest"], "hash-b", force=True)

    # re-initializing under a different config needs force
    with pytest.raises(PreconditionError, match="use --force"):
        store.initialize("hash-b")
    store.initialize("hash-b", force=True)
    assert store.read_manifest()["config_hash"] == "hash-b"
    assert store.read_manifest()["stages"] == {}


def test_store_json_io(tmp_path):
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    store.write_json("reports/thing.json", {"b": 1, "a": [1, 2]})
    assert store.read_json("reports/thing.json") == {"a": [1, 2], "b": 1}
    text = store.path("reports", "thing.json").read_text(encoding="utf-8")
    assert text.startswith('{\n  "a"')  # sorted keys, stable layout
    assert text.endswith("\n")
    with pytest.raises(PreconditionError, match="missing store artifact"):
        store.read_json("reports/absent.json")
    store.path("reports", "bad.json").write_text("{", encoding="utf-8")
    with pytest.raises(DataFormatError, match="corrupt store artifact"):
        store.read_json("reports/bad.json")
    with pytest.raises(PreconditionError, match="no model store"):
        ModelStore(tmp_path / "elsewhere").read_manifest()


def sample_event_detector(event_id="evt-0002"):
    """A chi2 event detector whose support set is three videos of a
    five-video representation table, and that table."""
    rng = np.random.default_rng(0)
    table = RepresentationTable(
        [f"vid-{k}" for k in range(5)], ["con-1", "con-2", "con-3"], rng.random((5, 3)), [4] * 5
    )
    concept_ids = ["con-3", "con-1", "con-3"]  # a layout may name a concept twice
    model = DetectorModel(
        concept_id=event_id,
        channels=["rep"],
        beta=np.array([1.0]),
        alpha=np.array([0.1 + 0.2, 1.0 / 3.0, 0.25]),  # the first two are not f32 values
        support_labels=np.array([1.0, -1.0, 1.0]),
        bias=0.125,
        support_ids=["vid-3", "vid-0", "vid-4"],
        support_features={"rep": table.columns(concept_ids)[[3, 0, 4]]},
        kernels={"rep": KernelSpec("chi2", 0.5)},
        platt=(-1.5, 0.1),
    )
    det = EventDetector(
        event_id=event_id, concept_ids=concept_ids, model=model, C=10.0, bandwidth=0.5,
        bandwidth_scale=2.0, cv_ap=0.9375,
    )
    return det, table


def assert_same_detector(a: EventDetector, b: EventDetector):
    assert (a.event_id, a.concept_ids, a.C, a.bandwidth, a.bandwidth_scale, a.cv_ap) == (
        b.event_id, b.concept_ids, b.C, b.bandwidth, b.bandwidth_scale, b.cv_ap
    )
    ma, mb = a.model, b.model
    assert (ma.concept_id, ma.channels, ma.kernels) == (mb.concept_id, mb.channels, mb.kernels)
    assert (ma.bias, ma.platt, ma.support_ids) == (mb.bias, mb.platt, mb.support_ids)
    for x, y in ((ma.beta, mb.beta), (ma.alpha, mb.alpha), (ma.support_labels, mb.support_labels)):
        assert np.array_equal(x, y)
    assert set(ma.support_features) == set(mb.support_features) == {"rep"}
    assert np.array_equal(ma.support_features["rep"], mb.support_features["rep"])


def test_detector_round_trip(tmp_path):
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    det, table = sample_event_detector()
    store.save_detector(det)
    clone = store.load_detector("evt-0002", table)
    assert_same_detector(clone, det)
    assert clone.model.support_features["rep"].flags.c_contiguous  # as chi2_distances needs
    assert clone.confidences(table) == det.confidences(table)


def test_event_detector_round_trip(tmp_path):
    """One JSON per model, every float written exactly, the support set
    as [video id, alpha, label] rows in trained order."""
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    det, _ = sample_event_detector()
    store.save_detector(det)
    assert [p.name for p in store.path("event_detectors").iterdir()] == ["evt-0002.json"]
    doc = store.read_json("event_detectors/evt-0002.json")
    assert doc == {
        "event_id": "evt-0002",
        "concept_ids": ["con-3", "con-1", "con-3"],
        "C": 10.0,
        "bandwidth": 0.5,
        "bandwidth_scale": 2.0,
        "cv_ap": 0.9375,
        "bias": 0.125,
        "platt": {"a": -1.5, "b": 0.1},
        "support": [["vid-3", 0.1 + 0.2, 1.0], ["vid-0", 1.0 / 3.0, -1.0], ["vid-4", 0.25, 1.0]],
    }


def _support_row(doc, k, row):
    return {**doc, "support": doc["support"][:k] + [row] + doc["support"][k + 1 :]}


DETECTOR_CORRUPTIONS = [  # (case, message, stored doc -> corrupted doc)
    ("key missing", "wrong-typed key", lambda d: {k: v for k, v in d.items() if k != "bias"}),
    ("key null", "wrong-typed key", lambda d: {**d, "bandwidth": None}),
    ("key a string", "wrong-typed key", lambda d: {**d, "C": "10"}),
    ("int alpha", "wrong-typed key", lambda d: _support_row(d, 0, ["vid-3", 1, 1.0])),
    ("short support row", "wrong-typed key", lambda d: _support_row(d, 0, ["vid-3", 0.5])),
    ("platt half", "wrong-typed key", lambda d: {**d, "platt": {"a": -1.5}}),
    ("list root", "wrong-typed key", lambda d: [d]),
    ("another event", "holds event 'evt-9'", lambda d: {**d, "event_id": "evt-9"}),
    ("zero bandwidth", "bandwidth must be positive", lambda d: {**d, "bandwidth": 0.0}),
    ("support id not a row", "support video 'vid-9'",
     lambda d: _support_row(d, 1, ["vid-9", *d["support"][1][1:]])),
    ("concept id not a column", "lack concept con-9",
     lambda d: {**d, "concept_ids": d["concept_ids"] + ["con-9"]}),
]


@pytest.mark.parametrize(
    "message,corrupt", [c[1:] for c in DETECTOR_CORRUPTIONS],
    ids=[c[0] for c in DETECTOR_CORRUPTIONS],
)
def test_detector_loader_rejects_malformed_files(tmp_path, message, corrupt):
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    det, table = sample_event_detector()
    store.save_detector(det)
    path = store.path("event_detectors", "evt-0002.json")
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(corrupt(doc)), encoding="utf-8")
    with pytest.raises(DataFormatError, match=message) as info:
        store.load_detector("evt-0002", table)
    assert str(path) in str(info.value)


def test_detector_loader_rejects_unreadable_files(tmp_path):
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    det, table = sample_event_detector()
    store.save_detector(det)
    path = store.path("event_detectors", "evt-0002.json")
    for raw in (b"\xff\xfe{}", b"{"):
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match="corrupt store artifact") as info:
            store.load_detector("evt-0002", table)
        assert str(path) in str(info.value)
    with pytest.raises(PreconditionError, match="missing store artifact"):
        store.load_detector("evt-unknown", table)


def test_stage_marks_do_not_disturb_other_stages(tmp_path):
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    store.mark_stage("ingest", "h")
    store.mark_stage("encode", "h")
    store.mark_stage("ingest", "h2")
    manifest = store.read_manifest()
    assert manifest["stages"]["encode"] == {"config_hash": "h"}
    assert manifest["stages"]["ingest"] == {"config_hash": "h2"}
    raw = json.loads(store.manifest_path.read_text(encoding="utf-8"))
    assert raw["version"] == 1
