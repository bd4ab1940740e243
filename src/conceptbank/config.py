"""Pipeline configuration.

One flat record drives every stage. Defaults follow the reference
operating point: s=100 positives / t=1000 negatives per concept
detector, ridge gamma=0.01 with box C=1, n=100 concepts per query plan,
m=20 sampled frames, 1000-word codebooks, the 0.8 cross-validation AP
gate and the 100-image floor.

All randomness flows from base_seed through named per-purpose seeds;
nothing reads ambient entropy. The config hash covers every field except
the filesystem root, so two stores built from identical inputs in
different locations hash identically, while changing any parameter
invalidates downstream stage artifacts. from_file checks each field's
JSON type against its annotation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import DataFormatError, PreconditionError

_SEED_OFFSETS = {
    "fixture": 0,
    "codebook": 1,
    "selection": 2,
    "verify": 3,
    "train": 4,
    "event": 5,
}


@dataclass
class PipelineConfig:
    s: int = 100
    t: int = 1000
    gamma: float = 0.01
    C: float = 1.0
    n_concepts: int = 100
    m_frames: int = 20
    top_k_tags: int = 100
    cv_ap_threshold: float = 0.8
    min_training_images: int = 100
    codebook_k: int = 1000
    soft_k: int = 5
    channels: list[str] = field(default_factory=lambda: ["gray-patch", "color-hist"])
    selection_mode: str = "kde"  # kde | random (ablation switch)
    calibration_holdout: float = 0.2
    max_codebook_descriptors: int = 100000
    base_seed: int = 0
    # input locations, relative to the config file (or a given root)
    hierarchy: str = "hierarchy.json"
    lexicon_dir: str = "lexicon"
    image_manifest: str = "images.tsv"
    video_manifest_train: str = "videos_train.tsv"
    video_manifest_test: str = "videos_test.tsv"
    word_pairs: str = "word_pairs.tsv"
    embeddings: str | None = None
    # resolved at load time; not part of the hash
    root: Path = field(default_factory=Path, compare=False)

    def __post_init__(self):
        if self.s < 1 or self.t < 0:
            raise PreconditionError("s must be >= 1 and t >= 0")
        if self.selection_mode not in ("kde", "random"):
            raise PreconditionError(f"unknown selection_mode {self.selection_mode}")
        if not 0.0 < self.calibration_holdout < 1.0:
            raise PreconditionError("calibration_holdout must be in (0, 1)")
        if not self.channels:
            raise PreconditionError("at least one feature channel required")
        if self.base_seed < 0:
            raise PreconditionError("base_seed must be non-negative")

    def seed_for(self, purpose: str) -> int:
        if purpose not in _SEED_OFFSETS:
            raise PreconditionError(f"unknown seed purpose {purpose}")
        return self.base_seed * 1000 + _SEED_OFFSETS[purpose]

    def to_dict(self) -> dict:
        d = asdict(self)
        d.pop("root")
        return d

    @property
    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def path(self, name: str) -> Path:
        """Resolve a configured input location against the config root."""
        value = getattr(self, name)
        if value is None:
            raise PreconditionError(f"config field {name} is not set")
        return self.root / value

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataFormatError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataFormatError(f"config {path} must be a JSON object")
        known = {f.name for f in fields(cls)} - {"root"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise DataFormatError(f"config {path}: unknown keys {unknown}")
        hints = get_type_hints(cls)
        for key, value in sorted(raw.items()):
            kind = hints[key]
            if not _fits(value, kind):
                name = kind.__name__ if isinstance(kind, type) else kind
                raise DataFormatError(f"config {path}: {key} must be {name}, got {value!r}")
        cfg = cls(**raw)
        cfg.root = path.parent
        return cfg

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )


def _fits(value, kind) -> bool:
    """value's JSON type matches the field annotation kind: a list of the
    item type, one member of a union, or an int where a float is due."""
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return type(value) is list and all(type(v) is item for v in value)
    kinds = get_args(kind) or (kind,)
    return type(value) in kinds or (float in kinds and type(value) is int)
