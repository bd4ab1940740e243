"""Video-level concept representations and recounting.

A video arrives as pre-extracted frames. m frames are sampled at even
temporal spacing, each is encoded and scored by the selected concept
detectors, and the per-concept calibrated scores are average-pooled over
frames. The pooled vector, aligned with the concept ids of the plan that
produced it, is the video's representation for retrieval and event
detection. Recounting is simply the top-k concepts of that vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .detect import DetectorModel
from .errors import DataFormatError, PreconditionError


@dataclass
class VideoManifestEntry:
    video_id: str
    frame_paths: list[Path]
    label: str | None = None  # event id for supervised splits

    def __post_init__(self):
        if not self.frame_paths:
            raise PreconditionError(f"video {self.video_id} has no frames")


@dataclass
class VideoRepresentation:
    video_id: str
    concept_ids: list[str]
    scores: np.ndarray
    frames_used: int

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).ravel()
        if self.scores.size != len(self.concept_ids):
            raise PreconditionError(
                f"video {self.video_id}: {self.scores.size} scores for "
                f"{len(self.concept_ids)} concepts"
            )

    def header(self) -> dict:
        return {
            "video_id": self.video_id,
            "concept_ids": list(self.concept_ids),
            "frames_used": self.frames_used,
        }


def sample_frames(frames: Sequence, m: int = 20) -> list:
    """Evenly sample m of F frames, endpoints pinned to the first and
    last frame; videos shorter than m keep all frames, unrepeated."""
    if m < 1:
        raise PreconditionError("frame sample size must be >= 1")
    f = len(frames)
    if f == 0:
        raise PreconditionError("cannot sample from zero frames")
    if f <= m:
        return list(frames)
    if m == 1:
        return [frames[0]]
    idx = [math.floor(j * (f - 1) / (m - 1) + 0.5) for j in range(m)]
    return [frames[i] for i in idx]


def represent(
    entry: VideoManifestEntry,
    concept_ids: Sequence[str],
    detectors: Mapping[str, DetectorModel],
    encoder: Callable[[list[Path]], tuple[list, list, dict[str, np.ndarray]]],
    m: int = 20,
) -> VideoRepresentation:
    """Average-pooled calibrated concept scores over m sampled frames.

    encoder batch-encodes the sampled frames like encode.encode_paths.
    Frames it skips are warned about; the video errors out only when no
    frame survives.
    """
    missing = [c for c in concept_ids if c not in detectors]
    if missing:
        raise PreconditionError(f"no trained detector for: {missing[:5]}")
    kept, skipped, stacked = encoder(sample_frames(entry.frame_paths, m))
    for path, exc in skipped:
        warnings.warn(f"video {entry.video_id}: skipping frame {path}: {exc}", stacklevel=2)
    if not kept:
        raise DataFormatError(f"video {entry.video_id}: no usable frames")

    # a layout may repeat a concept (one slot per plan); score each once
    unique = {cid: row for row, cid in enumerate(dict.fromkeys(concept_ids))}
    per_concept = np.empty((len(unique), len(kept)), dtype=np.float64)
    for cid, row in unique.items():
        model = detectors[cid]
        feats = {ch: stacked[ch] for ch in model.channels}
        per_concept[row] = model.calibrated(model.raw_score_matrix(feats))
    pooled = per_concept.mean(axis=1)
    return VideoRepresentation(
        video_id=entry.video_id,
        concept_ids=list(concept_ids),
        scores=pooled[[unique[cid] for cid in concept_ids]],
        frames_used=len(kept),
    )


def recount(
    rep: VideoRepresentation, names: Mapping[str, str], k: int = 5
) -> list[tuple[str, float]]:
    """Top-k (concept name, score), score desc, ties by name.

    A layout may repeat a concept id (one slot per query plan that uses
    it); each concept still contributes a single entry.
    """
    if rep.scores.size == 0:
        raise PreconditionError("empty representation")
    best: dict[str, float] = {}
    for cid, s in zip(rep.concept_ids, rep.scores):
        s = float(s)
        if cid not in best or s > best[cid]:
            best[cid] = s
    pairs = [(names.get(cid, cid), s) for cid, s in best.items()]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs[: max(0, k)]


def load_video_manifest(path: str | Path) -> list[VideoManifestEntry]:
    """TSV rows: video_id, event label or '-', frame directory or a
    ';'-separated frame list. Paths resolve relative to the manifest."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read video manifest {path}: {exc}") from exc
    base = path.parent
    entries: list[VideoManifestEntry] = []
    seen: set[str] = set()
    for ln, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise DataFormatError(
                f"{path}:{ln}: expected 3 tab-separated fields, got {len(parts)}"
            )
        video_id, label, frames_field = (p.strip() for p in parts)
        if not video_id:
            raise DataFormatError(f"{path}:{ln}: empty video id")
        if video_id in seen:
            raise DataFormatError(f"{path}:{ln}: duplicate video id {video_id}")
        seen.add(video_id)
        if ";" in frames_field:
            frame_paths = [base / p for p in frames_field.split(";") if p]
        else:
            target = base / frames_field
            if target.is_dir():
                frame_paths = _frames_in_dir(target)
            else:
                frame_paths = [target]
        entries.append(
            VideoManifestEntry(
                video_id=video_id,
                frame_paths=frame_paths,
                label=None if label in ("", "-") else label,
            )
        )
    return entries


def _frames_in_dir(directory: Path) -> list[Path]:
    """Frame locators in a directory: .ppm rasters as-is, descriptor
    files collapsed to their stem (name before .<channel>.cbfv)."""
    stems: set[Path] = set()
    for f in sorted(directory.iterdir()):
        if not f.is_file():
            continue
        if f.suffix == ".ppm":
            stems.add(f)
        elif f.suffix == ".cbfv":
            base = f.name[: -len(".cbfv")]
            stem, _, _channel = base.rpartition(".")
            if stem:
                stems.add(directory / stem)
    if not stems:
        raise DataFormatError(f"no frames found in {directory}")
    return sorted(stems)
