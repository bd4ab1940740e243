"""Synthetic fixture: a desk-scale corpus the whole pipeline can run on.

The generator plants a small two-category hierarchy (4 events, 3 concepts
each), one Gaussian descriptor cluster per (event, concept) instance,
tagged web-style images with seeded noise and a fraction of outliers
(images carrying a concept's tag but drawn from one fixed foreign
cluster, so sloppy training-image selection pollutes a detector in a
consistent direction), and videos whose frames show two of the event's
three concepts plus backdrop, so any single concept covers only part of
its event's videos and fusing more concepts genuinely helps. Two events
per category share one concept name, exercising duplicate leaves; the
two instances draw from separate clusters, so sharing a name does not
make sibling events look alike. A word-pair table aligned with the
hierarchy gives every event name a graded similarity path to its own
concepts and zero similarity to everything else.

Everything is derived from a single seed; regeneration is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import PreconditionError
from .formats import write_cbfv

CHANNELS = (("syn-a", 6), ("syn-b", 5))
BACKDROP = "backdrop"
NOISE_WORDS = ("sunny", "travel")

HIERARCHY = [
    ("pets and animals", [
        ("animal care", [
            ("dog grooming", ("brush", "leash", "towel")),
            ("cat feeding", ("bowl", "kibble", "towel")),
        ]),
    ]),
    ("sports", [
        ("outdoor adventure", [
            ("rock climbing", ("rope", "helmet", "chalk")),
            ("river kayaking", ("paddle", "helmet", "vest")),
        ]),
    ]),
]

WORD_PAIRS = [
    # event words vs. ancestor-layer words
    ("dog", "animal", 0.9), ("cat", "animal", 0.9),
    ("dog", "pet", 0.9), ("cat", "pet", 0.9),
    ("rock", "sport", 0.9), ("river", "sport", 0.9),
    ("climb", "outdoor", 0.9), ("kayak", "outdoor", 0.9),
    # event words vs. their own concepts
    ("groom", "brush", 0.9), ("dog", "leash", 0.85), ("groom", "towel", 0.8),
    ("feed", "bowl", 0.9), ("cat", "kibble", 0.85), ("feed", "towel", 0.8),
    ("climb", "rope", 0.9), ("rock", "chalk", 0.85), ("climb", "helmet", 0.8),
    ("kayak", "paddle", 0.9), ("river", "vest", 0.85), ("kayak", "helmet", 0.8),
]

STOPWORDS = ("a", "an", "and", "of", "on", "in", "the", "with")
MEANINGLESS = ("dsc", "img", "photo")
LEMMAS = [
    ("grooming", "groom"), ("feeding", "feed"), ("climbing", "climb"),
    ("kayaking", "kayak"), ("pets", "pet"), ("animals", "animal"),
    ("sports", "sport"), ("dogs", "dog"), ("cats", "cat"),
]
VOCABULARY = (
    "dog", "groom", "cat", "feed", "rock", "climb", "river", "kayak",
    "pet", "animal", "care", "sport", "outdoor", "adventure",
    "brush", "leash", "towel", "bowl", "kibble", "rope", "helmet",
    "chalk", "paddle", "vest",
) + NOISE_WORDS

_PATCH_GRID = 3  # 3x3 dense patches of a nominal 40x40 raster
_PATCH_CENTERS = [
    (10.0 + 10.0 * cx, 10.0 + 10.0 * cy)
    for cy in range(_PATCH_GRID)
    for cx in range(_PATCH_GRID)
]


def fixture_config(seed: int = 0) -> PipelineConfig:
    """The scaled-down operating point the fixture corpus is sized for."""
    return PipelineConfig(
        s=20,
        t=60,
        gamma=0.01,
        C=1.0,
        n_concepts=100,
        m_frames=4,
        top_k_tags=100,
        cv_ap_threshold=0.8,
        min_training_images=20,
        codebook_k=16,
        soft_k=5,
        channels=[name for name, _ in CHANNELS],
        selection_mode="kde",
        calibration_holdout=0.2,
        max_codebook_descriptors=5000,
        base_seed=seed,
    )


def generate_fixture(
    out_dir: str | Path,
    seed: int = 0,
    images_per_concept: int = 30,
    outlier_fraction: float = 0.25,
    videos_per_event: int = 40,
    frames_per_video: int = 4,
    train_fraction: float = 0.5,
) -> dict:
    """Write the synthetic corpus under out_dir and return its truth record."""
    root = Path(out_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PreconditionError(f"cannot create fixture directory: {exc}") from exc
    rng = np.random.default_rng(seed)

    _write_hierarchy(root)
    _write_lexicon(root)
    _write_word_pairs(root)

    events = [
        (evt, concepts)
        for _, subs in HIERARCHY
        for _, evts in subs
        for evt, concepts in evts
    ]
    cluster_names = [
        f"e{ei}:{c}" for ei, (_, cs) in enumerate(events) for c in cs
    ] + [BACKDROP]
    centers = {
        name: {ch: rng.normal(0.0, 1.0, dim) * 3.0 for ch, dim in CHANNELS}
        for name in sorted(cluster_names)
    }

    truth: dict = {
        "seed": seed,
        "channels": {ch: dim for ch, dim in CHANNELS},
        "clusters": cluster_names,
        "concepts": [],
        "videos": {"train": {}, "test": {}},
        "noise_words": list(NOISE_WORDS),
        "queries": [evt for evt, _ in events],
    }

    (root / "images").mkdir(exist_ok=True)
    manifest_rows = []
    n_out = int(round(images_per_concept * outlier_fraction))
    for ei, (event, concepts) in enumerate(events):
        event_word = event.split()[0]
        pei = (ei + 2) % len(events)
        partner = events[pei][1]
        for ci, concept in enumerate(concepts):
            outlier_cluster = f"e{pei}:{_outlier_cluster(ci, concepts, partner)}"
            image_ids, outlier_ids = [], []
            outlier_slots = set(
                rng.choice(images_per_concept, size=n_out, replace=False).tolist()
            )
            for k in range(images_per_concept):
                image_id = f"im-e{ei}-{concept}-{k:03d}"
                image_ids.append(image_id)
                if k in outlier_slots:
                    source = outlier_cluster
                    outlier_ids.append(image_id)
                else:
                    source = f"e{ei}:{concept}"
                _write_sample(root / "images" / image_id, centers[source], rng)
                tags = [f"the {concept}" if rng.random() < 0.25 else concept]
                # rare enough that the event-word tag's image pool stays
                # under the training-image floor and the gate prunes it
                if rng.random() < 0.1:
                    tags.append(event_word)
                for w in NOISE_WORDS:
                    if rng.random() < 0.15:
                        tags.append(w)
                if rng.random() < 0.2:
                    tags.append("dsc")
                if rng.random() < 0.1:
                    tags.append("the")
                manifest_rows.append(
                    f"{image_id}\t{event}\timages/{image_id}\t{','.join(tags)}"
                )
            truth["concepts"].append(
                {
                    "event": event,
                    "name": concept,
                    "cluster": f"e{ei}:{concept}",
                    "outlier_cluster": outlier_cluster,
                    "images": image_ids,
                    "outliers": outlier_ids,
                }
            )
    (root / "images.tsv").write_text("\n".join(manifest_rows) + "\n", encoding="utf-8")

    n_train = int(round(videos_per_event * train_fraction))
    rows = {"train": [], "test": []}
    for ei, (event, concepts) in enumerate(events):
        distinct = list(dict.fromkeys(concepts))
        for v in range(videos_per_event):
            split = "train" if v < n_train else "test"
            video_id = f"vid-e{ei}-{'tr' if split == 'train' else 'te'}-{v:03d}"
            vdir = root / "videos" / video_id
            vdir.mkdir(parents=True, exist_ok=True)
            # each video shows only part of its event's concept set, so a
            # single concept's rank list covers a fraction of the event's
            # videos and fusing more lists adds real coverage
            n_show = min(2, len(distinct), frames_per_video)
            shown = sorted(
                rng.choice(len(distinct), size=n_show, replace=False).tolist()
            )
            sources = [f"e{ei}:{distinct[i]}" for i in shown]
            sources += [BACKDROP] * (frames_per_video - len(sources))
            sources = [sources[i] for i in rng.permutation(len(sources))]
            for fi, source in enumerate(sources):
                _write_sample(vdir / f"f{fi:02d}", centers[source], rng)
            rows[split].append(f"{video_id}\t{event}\tvideos/{video_id}")
            truth["videos"][split][video_id] = event
    (root / "videos_train.tsv").write_text(
        "\n".join(rows["train"]) + "\n", encoding="utf-8"
    )
    (root / "videos_test.tsv").write_text(
        "\n".join(rows["test"]) + "\n", encoding="utf-8"
    )

    fixture_config(seed).save(root / "config.json")
    (root / "truth.json").write_text(
        json.dumps(truth, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return truth


def _outlier_cluster(slot: int, own: tuple, partner: tuple) -> str:
    """Fixed foreign cluster feeding a concept's mistagged images.

    Taken from the partner event (two positions over in the event list),
    preferring the same concept slot, so each concept's contamination is
    concentrated in one cluster instead of diluted over many.
    """
    ordered = [partner[(slot + j) % len(partner)] for j in range(len(partner))]
    for name in ordered:
        if name not in own:
            return name
    raise PreconditionError("no foreign cluster available for outliers")


def _write_sample(stem: Path, channel_centers: dict, rng: np.random.Generator) -> None:
    """One synthetic image/frame: per channel, 9 patch descriptors around
    a sample-level mean drawn near the cluster center."""
    positions = np.array(_PATCH_CENTERS, dtype=np.float64)
    for ch, dim in CHANNELS:
        mean = channel_centers[ch] + rng.normal(0.0, 0.4, dim)
        vectors = mean[None, :] + rng.normal(0.0, 0.3, (len(_PATCH_CENTERS), dim))
        write_cbfv(f"{stem}.{ch}.cbfv", positions, vectors)


def _write_hierarchy(root: Path) -> None:
    doc = {
        "categories": [
            {
                "name": cat,
                "subcategories": [
                    {
                        "name": sub,
                        "events": [
                            {
                                "name": evt,
                                "visually_detectable": True,
                                "article_names": [evt],
                            }
                            for evt, _ in evts
                        ],
                    }
                    for sub, evts in subs
                ],
            }
            for cat, subs in HIERARCHY
        ]
    }
    (root / "hierarchy.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _write_lexicon(root: Path) -> None:
    lex = root / "lexicon"
    lex.mkdir(exist_ok=True)
    (lex / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
    (lex / "meaningless.txt").write_text("\n".join(MEANINGLESS) + "\n", encoding="utf-8")
    (lex / "vocabulary.txt").write_text(
        "\n".join(sorted(set(VOCABULARY))) + "\n", encoding="utf-8"
    )
    (lex / "lemma.tsv").write_text(
        "\n".join(f"{a}\t{b}" for a, b in LEMMAS) + "\n", encoding="utf-8"
    )


def _write_word_pairs(root: Path) -> None:
    lines = [f"{a}\t{b}\t{s}" for a, b, s in WORD_PAIRS]
    (root / "word_pairs.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
