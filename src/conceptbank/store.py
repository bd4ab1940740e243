"""Model store: a relocatable directory of stage artifacts.

Layout under the root:

    manifest.json          version, config hash, completed stages
    ontology.json          tree with attached (and later pruned) leaves
    candidates.json        discovered candidate concepts
    codebooks/             one CBCB file per channel
    features/              one CBFH file per manifest image
    selections/            per-concept training-set choices (JSON)
    detectors/             concept detectors (JSON header + f32 .bin)
    event_detectors/       supervised event models, same scheme
    plans/                 per-event query plans (JSON)
    representations/       per-split CBVR files
    reports/               visualness, retrieval, detection, eval, recount

Every artifact is written deterministically (sorted JSON keys, trailing
newline, little-endian arrays, no timestamps), so re-running a stage with
unchanged inputs rewrites identical bytes. The manifest records the
config hash each stage completed under; stages refuse to build on
upstream artifacts from a different configuration unless forced.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .detect import DetectorModel, KernelSpec
from .errors import DataFormatError, PreconditionError
from .retrieve import EventDetector

STORE_VERSION = 1
_DIRS = (
    "codebooks",
    "features",
    "selections",
    "detectors",
    "event_detectors",
    "plans",
    "representations",
    "reports",
)


class ModelStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- manifest / stage bookkeeping ----------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def initialize(self, config_hash: str, force: bool = False) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for d in _DIRS:
            (self.root / d).mkdir(exist_ok=True)
        if self.manifest_path.exists() and not force:
            manifest = self.read_manifest()
            if manifest.get("config_hash") != config_hash:
                raise PreconditionError(
                    f"store at {self.root} was built under config "
                    f"{manifest.get('config_hash')}, current is {config_hash}; "
                    "use --force to rebuild"
                )
            return
        self._write_manifest(
            {"version": STORE_VERSION, "config_hash": config_hash, "stages": {}}
        )

    def read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            raise PreconditionError(f"no model store at {self.root}")
        try:
            return json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"corrupt store manifest: {exc}") from exc

    def _write_manifest(self, manifest: dict) -> None:
        self.write_json("manifest.json", manifest)

    def mark_stage(self, stage: str, config_hash: str) -> None:
        manifest = self.read_manifest()
        manifest["stages"][stage] = {"config_hash": config_hash}
        self._write_manifest(manifest)

    def require_upstream(
        self, stages, config_hash: str, force: bool = False
    ) -> None:
        manifest = self.read_manifest()
        done = manifest["stages"]
        for stage in stages:
            record = done.get(stage)
            if record is None:
                raise PreconditionError(f"missing upstream: {stage}")
            if record["config_hash"] != config_hash and not force:
                raise PreconditionError(
                    f"config-hash mismatch at stage {stage}: built under "
                    f"{record['config_hash']}, current {config_hash}"
                )

    # -- generic io -----------------------------------------------------

    def path(self, *parts: str) -> Path:
        return self.root.joinpath(*parts)

    def write_json(self, relpath: str, obj) -> Path:
        p = self.root / relpath
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(
            json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        return p

    def read_json(self, relpath: str):
        p = self.root / relpath
        try:
            return json.loads(p.read_text(encoding="utf-8"))
        except OSError as exc:
            raise PreconditionError(f"missing store artifact {relpath}") from exc
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"corrupt store artifact {relpath}: {exc}") from exc

    # -- detector persistence -------------------------------------------

    def save_detector(self, model: DetectorModel, kind: str = "detectors") -> None:
        dims = {c: int(model.support_features[c].shape[1]) for c in model.channels}
        header = {
            "concept_id": model.concept_id,
            "channels": list(model.channels),
            "beta": [float(b) for b in model.beta],
            "bias": float(model.bias),
            "platt": [float(model.platt[0]), float(model.platt[1])],
            "support_ids": list(model.support_ids),
            "kernels": {c: model.kernels[c].to_dict() for c in model.channels},
            "objective": float(model.objective),
            "dims": dims,
            "count": int(model.alpha.size),
        }
        self.write_json(f"{kind}/{model.concept_id}.json", header)
        blobs = [
            model.alpha.astype("<f4").tobytes(),
            model.support_labels.astype("<f4").tobytes(),
        ]
        for c in model.channels:
            blobs.append(np.ascontiguousarray(
                model.support_features[c], dtype="<f4").tobytes())
        self.path(kind, f"{model.concept_id}.bin").write_bytes(b"".join(blobs))

    def load_detector(self, concept_id: str, kind: str = "detectors") -> DetectorModel:
        header = self.read_json(f"{kind}/{concept_id}.json")
        bin_path = self.path(kind, f"{concept_id}.bin")
        try:
            raw = np.frombuffer(bin_path.read_bytes(), dtype="<f4").astype(np.float64)
        except OSError as exc:
            raise PreconditionError(f"missing detector data for {concept_id}") from exc
        n = int(header["count"])
        alpha, cursor = raw[:n], n
        labels, cursor = raw[cursor : cursor + n], cursor + n
        feats: dict[str, np.ndarray] = {}
        for c in header["channels"]:
            d = int(header["dims"][c])
            if cursor + n * d > raw.size:
                raise DataFormatError(f"detector blob for {concept_id} is truncated")
            feats[c] = raw[cursor : cursor + n * d].reshape(n, d)
            cursor += n * d
        if cursor != raw.size:
            raise DataFormatError(f"detector blob for {concept_id} has trailing data")
        return DetectorModel(
            concept_id=header["concept_id"],
            channels=list(header["channels"]),
            beta=np.array(header["beta"], dtype=np.float64),
            alpha=alpha,
            support_labels=labels,
            bias=float(header["bias"]),
            support_ids=list(header["support_ids"]),
            support_features=feats,
            kernels={
                c: KernelSpec.from_dict(header["kernels"][c])
                for c in header["channels"]
            },
            platt=(float(header["platt"][0]), float(header["platt"][1])),
            objective=float(header["objective"]),
        )

    def save_event_detector(self, det: EventDetector) -> None:
        self.save_detector(det.model, kind="event_detectors")
        header = {
            "event_id": det.event_id,
            "concept_ids": list(det.concept_ids),
            "C": float(det.C),
            "bandwidth": float(det.bandwidth),
            "bandwidth_scale": float(det.bandwidth_scale),
            "cv_ap": float(det.cv_ap),
            "model": det.model.concept_id,
        }
        self.write_json(f"event_detectors/{det.event_id}.meta.json", header)
