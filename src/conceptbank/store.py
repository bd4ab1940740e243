"""Model store: a relocatable directory of stage artifacts.

Layout under the root:

    manifest.json          version, config hash, completed stages
    ontology.json          the event hierarchy, written once (no concepts)
    candidates.json        discovered candidate concepts, with their ids
    codebooks/             one CBCB file per channel
    features.cbfh          every manifest image's encoded features
    selections/            per-concept training-set choices (JSON)
    detectors.cbdt         every concept detector, folded into weights
    event_detectors/       one JSON per supervised event model: its alpha,
                           bias, Platt pair, bandwidth and support video ids
                           (the support rows are read from train.cbvr)
    plans/                 per-event query plans (JSON)
    representations/       one CBVR file per split, one column per concept
                           of detectors.cbdt (plans are applied at query time)
    reports/               visualness, retrieval, detection, eval, recount

Each file has one writing stage. The concept bank is not a file: it is
candidates.json minus the concepts reports/visualness.json rejects, under
the ontology.json hierarchy. Every artifact is written deterministically
(sorted JSON keys, trailing newline, little-endian arrays, no timestamps),
so re-running a stage with unchanged inputs rewrites identical bytes. The
manifest records the config hash each stage completed under; stages refuse
to build on upstream artifacts from a different configuration unless forced.
Forcing a store built under another config resets its stage ledger; under
the same config the ledger stays.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .detect import DetectorModel, KernelSpec
from .errors import DataFormatError, PreconditionError
from .retrieve import EventDetector
from .videorep import RepresentationTable

STORE_VERSION = 1
_EVENT_DIR = "event_detectors"
_DIRS = (
    "codebooks",
    "selections",
    _EVENT_DIR,
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
        if self.manifest_path.exists():
            built = self.read_manifest()["config_hash"]
            if built == config_hash:
                return
            if not force:
                raise PreconditionError(
                    f"store at {self.root} was built under config "
                    f"{built}, current is {config_hash}; use --force to rebuild"
                )
        self.write_json(
            "manifest.json",
            {"version": STORE_VERSION, "config_hash": config_hash, "stages": {}},
        )

    def read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            raise PreconditionError(f"no model store at {self.root}")
        try:
            doc = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"corrupt store manifest {self.manifest_path}: {exc}") from exc
        keys = {"version": int, "config_hash": str, "stages": dict}
        (manifest,) = self.checked("manifest.json", [doc], keys)
        self.checked("manifest.json", list(manifest["stages"].values()), {"config_hash": str})
        return manifest

    def mark_stage(self, stage: str, config_hash: str) -> None:
        manifest = self.read_manifest()
        manifest["stages"][stage] = {"config_hash": config_hash}
        self.write_json("manifest.json", manifest)

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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"corrupt store artifact {p}: {exc}") from exc

    def checked(self, relpath: str, entries, keys: dict) -> list[dict]:
        """entries, if it is a list of dicts whose keys have exactly these
        types, where list means a list of strings and a tuple of types a
        list of rows holding those types; else DataFormatError naming the
        file."""
        if type(entries) is not list or not all(
            isinstance(e, dict) and all(_fits(e.get(k), t) for k, t in keys.items())
            for e in entries
        ):
            raise DataFormatError(f"malformed {self.path(relpath)}: missing or wrong-typed key")
        return entries

    # -- event detector persistence -------------------------------------

    def save_detector(self, det: EventDetector) -> None:
        """event_detectors/<event>.json: the detector's fields, its model's
        bias and Platt pair, and its support set as [video id, alpha,
        label] rows in trained order. json writes every float exactly;
        the support features are rows of the train representations."""
        m = det.model
        self.write_json(f"{_EVENT_DIR}/{det.event_id}.json", {
            "event_id": det.event_id,
            "concept_ids": list(det.concept_ids),
            "C": float(det.C),
            "bandwidth": float(det.bandwidth),
            "bandwidth_scale": float(det.bandwidth_scale),
            "cv_ap": float(det.cv_ap),
            "bias": float(m.bias),
            "platt": {"a": float(m.platt[0]), "b": float(m.platt[1])},
            "support": [
                list(row)
                for row in zip(m.support_ids, m.alpha.tolist(), m.support_labels.tolist())
            ],
        })

    def load_detector(self, event_id: str, table: RepresentationTable) -> EventDetector:
        """The chi2 event detector save_detector wrote, its support
        features taken by video id from table, the train representations;
        DataFormatError naming the file if it is malformed or does not
        fit table."""
        relpath = f"{_EVENT_DIR}/{event_id}.json"
        (doc,) = self.checked(relpath, [self.read_json(relpath)], _EVENT_KEYS)
        (platt,) = self.checked(relpath, [doc["platt"]], {"a": float, "b": float})
        if doc["event_id"] != event_id:
            raise DataFormatError(f"{self.path(relpath)} holds event {doc['event_id']!r}")
        ids = [vid for vid, _, _ in doc["support"]]
        row = {vid: k for k, vid in enumerate(table.video_ids)}
        try:
            features = table.columns(doc["concept_ids"])[[row[vid] for vid in ids]]
            model = DetectorModel(
                concept_id=event_id,
                channels=["rep"],
                beta=np.array([1.0]),
                alpha=np.array([a for _, a, _ in doc["support"]]),
                support_labels=np.array([y for _, _, y in doc["support"]]),
                bias=doc["bias"],
                support_ids=ids,
                support_features={"rep": features},
                kernels={"rep": KernelSpec("chi2", bandwidth=doc["bandwidth"])},
                platt=(platt["a"], platt["b"]),
            )
            return EventDetector(
                event_id=event_id, concept_ids=doc["concept_ids"], model=model, C=doc["C"],
                bandwidth=doc["bandwidth"], bandwidth_scale=doc["bandwidth_scale"],
                cv_ap=doc["cv_ap"],
            )
        except KeyError as exc:
            raise DataFormatError(
                f"malformed {self.path(relpath)}: support video {exc.args[0]!r} "
                "is not a row of the train representations"
            ) from None
        except PreconditionError as exc:
            raise DataFormatError(f"malformed {self.path(relpath)}: {exc}") from None


_EVENT_KEYS = {
    "event_id": str,
    "concept_ids": list,
    "C": float,
    "bandwidth": float,
    "bandwidth_scale": float,
    "cv_ap": float,
    "bias": float,
    "platt": dict,
    "support": (str, float, float),
}


def _fits(value, kind) -> bool:
    if kind is list:
        return type(value) is list and all(type(x) is str for x in value)
    if type(kind) is tuple:
        return type(value) is list and all(
            type(row) is list and len(row) == len(kind)
            and all(type(x) is t for x, t in zip(row, kind))
            for row in value
        )
    return type(value) is kind
