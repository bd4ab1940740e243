"""Video-level concept representations and recounting.

A video arrives as pre-extracted frames. m frames are sampled at even
temporal spacing, each is encoded and scored by the selected concept
detectors (one product per channel scores every concept), and the
per-concept calibrated scores are average-pooled over frames. The pooled
vector, one score per concept of the bank in the bank's order, is the
video's representation. A split's representations form one
RepresentationTable, a row per video and a column per concept, and
RepresentationTable.columns is the one map from concept ids to columns:
retrieval and event detection gather the columns of the concepts their
plans name. Recounting is simply the top-k concepts of each row.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import _text_lines
from .detect import DetectorBank
from .errors import DataFormatError, PreconditionError


@dataclass
class VideoManifestEntry:
    video_id: str
    frame_paths: list[str]
    label: str | None = None  # event id for supervised splits

    def __post_init__(self):
        if not self.frame_paths:
            raise PreconditionError(f"video {self.video_id} has no frames")


@dataclass
class VideoRepresentation:
    video_id: str
    scores: np.ndarray  # one per bank concept, in the bank's order
    frames_used: int


@dataclass
class RepresentationTable:
    """One split's representations: row i holds video_ids[i]'s scores,
    column k concept_ids[k]'s."""

    video_ids: list[str]
    concept_ids: list[str]
    scores: np.ndarray  # (videos x concepts) float64
    frames_used: list[int]

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        shape = (len(self.video_ids), len(self.concept_ids))
        if self.scores.shape != shape:
            raise PreconditionError(
                f"{self.scores.shape} scores for {shape[0]} videos x {shape[1]} concepts"
            )

    def columns(self, concept_ids: Sequence[str]) -> np.ndarray:
        """The (videos x len(concept_ids)) scores, column k holding
        concept_ids[k]'s; an id may repeat."""
        col = {cid: k for k, cid in enumerate(self.concept_ids)}
        try:
            index = [col[cid] for cid in concept_ids]
        except KeyError as exc:
            raise PreconditionError(f"representations lack concept {exc.args[0]}") from None
        # np.take returns C order, unlike [:, index]; chi2_distances' sums, and
        # with them the event detectors, change in their last bits in F order
        return np.take(self.scores, index, axis=1)


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
    bank: DetectorBank,
    encoder: Callable[[list[str]], tuple[list, list, dict[str, np.ndarray]]],
    m: int = 20,
) -> VideoRepresentation:
    """Average-pooled calibrated scores of every concept of bank, in its
    order, over m sampled frames.

    encoder gets the sampled frames and returns, like encode.encode_paths,
    the frames it kept, (frame, error) pairs for those it skipped and one
    (kept frames x dim) matrix per channel; the represent stage's encoder
    returns the video's share of one encode.encode_path_groups pass over
    a chunk of videos. Skipped frames are warned about; the video errors
    out only when no frame survives.
    """
    kept, skipped, stacked = encoder(sample_frames(entry.frame_paths, m))
    for path, exc in skipped:
        warnings.warn(f"video {entry.video_id}: skipping frame {path}: {exc}", stacklevel=2)
    if not kept:
        raise DataFormatError(f"video {entry.video_id}: no usable frames")
    return VideoRepresentation(
        video_id=entry.video_id,
        scores=bank.calibrated(bank.raw_scores(stacked)).mean(axis=0),
        frames_used=len(kept),
    )


def recount(
    table: RepresentationTable, names: Mapping[str, str], k: int = 5
) -> dict[str, list[tuple[str, float]]]:
    """Per video, its top-k (concept name, score), score desc, ties by name."""
    if not table.concept_ids:
        raise PreconditionError("empty representation")
    labels = [names.get(cid, cid) for cid in table.concept_ids]
    by_label = np.array(sorted(range(len(labels)), key=labels.__getitem__), dtype=np.intp)
    out = {}
    for video_id, row in zip(table.video_ids, table.scores):
        row = row[by_label]
        # a stable sort by score desc keeps equal scores in label order
        top = np.argsort(-row, kind="stable")[: max(0, k)]
        out[video_id] = [(labels[by_label[j]], float(row[j])) for j in top]
    return out


def video_manifest_rows(path: str | Path) -> list[tuple[str, str | None, str]]:
    """(video_id, event label or None, frames field) per TSV row of a
    video manifest, with the field count and video ids checked; the
    frames field is not resolved."""
    rows = []
    seen: set[str] = set()
    for ln, line in enumerate(_text_lines(path, "video manifest"), start=1):
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
        rows.append((video_id, None if label in ("", "-") else label, frames_field))
    if not rows:
        raise DataFormatError(f"video manifest {path} has no video rows")
    return rows


def load_video_manifest(path: str | Path) -> list[VideoManifestEntry]:
    """TSV rows: video_id, event label or '-', frame directory or a
    ';'-separated frame list. Paths resolve relative to the manifest;
    frame locators are strings, as encode.load_descriptors takes them."""
    base = os.path.dirname(str(Path(path)))  # '' for a bare name, as pathlib joins it
    entries: list[VideoManifestEntry] = []
    for video_id, label, frames_field in video_manifest_rows(path):
        if ";" in frames_field:
            frame_paths = [os.path.join(base, p) for p in frames_field.split(";") if p]
        else:
            target = os.path.join(base, frames_field)
            if os.path.isdir(target):
                frame_paths = _frames_in_dir(target)
            else:
                frame_paths = [target]
        entries.append(VideoManifestEntry(video_id, frame_paths, label))
    return entries


def _frames_in_dir(directory: str) -> list[str]:
    """Frame locators in a directory, sorted by name: .ppm rasters as-is,
    descriptor files collapsed to their stem (name before .<channel>.cbfv)."""
    stems: set[str] = set()
    with os.scandir(directory) as entries:
        for entry in entries:
            name = entry.name
            if len(name) > 4 and name.endswith(".ppm") and entry.is_file():
                stems.add(name)
            elif len(name) > 5 and name.endswith(".cbfv") and entry.is_file():
                stem, _, _channel = name[: -len(".cbfv")].rpartition(".")
                if stem:
                    stems.add(stem)
    if not stems:
        raise DataFormatError(f"no frames found in {directory}")
    return [os.path.join(directory, stem) for stem in sorted(stems)]
