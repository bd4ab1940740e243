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


def sample_detector(concept_id="con-7"):
    rng = np.random.default_rng(0)
    return DetectorModel(
        concept_id=concept_id,
        channels=["syn-a", "syn-b"],
        beta=np.array([0.75, 0.25]),
        alpha=np.array([0.5, 1.0, 0.25]),
        support_labels=np.array([1.0, -1.0, 1.0]),
        bias=0.125,
        support_ids=["im-1", "im-2", "im-3"],
        support_features={
            "syn-a": rng.random((3, 4)).astype(np.float32).astype(np.float64),
            "syn-b": rng.random((3, 2)).astype(np.float32).astype(np.float64),
        },
        kernels={"syn-a": KernelSpec("linear"), "syn-b": KernelSpec("chi2", 2.0)},
        platt=(-1.5, 0.25),
        objective=0.875,
    )


def assert_same_detector(a: DetectorModel, b: DetectorModel):
    assert a.concept_id == b.concept_id
    assert a.channels == b.channels
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.support_labels, b.support_labels)
    assert a.bias == b.bias
    assert a.support_ids == b.support_ids
    assert set(a.support_features) == set(b.support_features)
    for c in a.support_features:
        assert np.array_equal(a.support_features[c], b.support_features[c])
    assert a.kernels == b.kernels
    assert a.platt == b.platt
    assert a.objective == b.objective


def test_detector_round_trip(tmp_path):
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    model = sample_detector()
    store.save_detector(model)
    # float32 storage is exact because the sample values are f32-representable
    assert_same_detector(store.load_detector("con-7"), model)


def test_detector_blob_guards(tmp_path):
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    model = sample_detector()
    store.save_detector(model)
    bin_path = store.path("event_detectors", "con-7.bin")
    whole = bin_path.read_bytes()
    bin_path.write_bytes(whole + b"\x00\x00\x00\x00")
    with pytest.raises(DataFormatError, match="trailing data"):
        store.load_detector("con-7")
    bin_path.write_bytes(whole[:-4])
    with pytest.raises(DataFormatError, match="truncated"):
        store.load_detector("con-7")
    bin_path.unlink()
    with pytest.raises(PreconditionError, match="missing detector data"):
        store.load_detector("con-7")
    with pytest.raises(PreconditionError, match="missing store artifact"):
        store.load_detector("con-unknown")


def test_event_detector_round_trip(tmp_path):
    store = ModelStore(tmp_path / "store")
    store.initialize("h")
    inner = sample_detector("evt-0002")
    inner.channels = ["rep"]
    inner.beta = np.array([1.0])
    inner.support_features = {"rep": np.eye(3)}
    inner.kernels = {"rep": KernelSpec("chi2", 0.5)}
    det = EventDetector(
        event_id="evt-0002",
        concept_ids=["con-1", "con-2"],
        model=inner,
        C=10.0,
        bandwidth=0.5,
        bandwidth_scale=2.0,
        cv_ap=0.9375,
    )
    store.save_event_detector(det)
    meta = store.read_json("event_detectors/evt-0002.meta.json")
    assert (meta["event_id"], meta["concept_ids"]) == ("evt-0002", ["con-1", "con-2"])
    assert (meta["C"], meta["bandwidth"], meta["bandwidth_scale"]) == (10.0, 0.5, 2.0)
    assert meta["cv_ap"] == 0.9375
    clone = store.load_detector(meta["model"])
    assert_same_detector(clone, inner)


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
