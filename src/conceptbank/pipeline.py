"""Stage-oriented pipeline runner.

Stage order: ontology -> discover -> codebook -> encode -> select ->
verify -> train -> match -> represent -> {retrieve | detect} -> eval ->
recount; _STAGE_TABLE pairs each stage with its upstream stages. Each
stage reads upstream artifacts from the model store, refuses to run
when an upstream stage is missing or was built under a different config
hash, writes only files that no other stage writes, and rewrites
byte-identical outputs when re-run on unchanged inputs. So ontology.json
stays the bare hierarchy, and _concept_tree derives the verified concept
bank from it, candidates.json and reports/visualness.json for the
stages that need concepts. Independent per-concept / per-event / per-image
work, and the represent stage's chunks of videos, are sharded over a
thread pool. Chunks have a fixed size, a batch encodes each image bit
for bit as if alone, every merge happens in a fixed order and every
random draw uses a seed derived from the config, so the store's bytes
do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import corpus, detect, encode, select, semmatch, videorep
from .config import PipelineConfig
from .errors import ConceptBankError, DataFormatError, PreconditionError
from .formats import (
    read_cbcb, read_cbdt, read_cbfh, read_cbvr, write_cbcb, write_cbdt, write_cbfh, write_cbvr,
)
from .metrics import LabeledRanking, average_precision
from .ontology import ConceptBankTree, load_hierarchy
from .retrieve import detect_events, train_event_detector, zero_shot_retrieve
from .store import ModelStore

ENCODE_CHUNK = 64  # images per encode batch; fixed, so batches never depend on workers
REPRESENT_CHUNK = 256  # sampled frames per represent batch, in whole videos; fixed likewise


def _pmap(fn: Callable, items: Iterable, workers: int) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# -- shared loaders -----------------------------------------------------


def _tree(store: ModelStore) -> ConceptBankTree:
    path = store.path("ontology.json")
    if not path.exists():
        raise PreconditionError("store has no ontology.json")
    tree = ConceptBankTree.from_json(path.read_text(encoding="utf-8"))
    if tree.concept_leaves():  # written by an older version; re-run ontology
        raise DataFormatError(f"{path} holds concept leaves, not the bare hierarchy")
    return tree


def _lexicon(config: PipelineConfig) -> corpus.Lexicon:
    return corpus.load_lexicon(config.path("lexicon_dir"))


def _provider(config: PipelineConfig, lexicon: corpus.Lexicon) -> semmatch.SimilarityProvider:
    pairs = semmatch.load_word_pairs(config.path("word_pairs"))
    embeddings = (
        semmatch.load_embeddings(config.path("embeddings"))
        if config.embeddings
        else {}
    )
    return semmatch.SimilarityProvider(
        word_pairs=pairs, embeddings=embeddings, lexicon=lexicon
    )


def _records(
    config: PipelineConfig, tree: ConceptBankTree, lexicon: corpus.Lexicon
) -> list[corpus.ImageRecord]:
    return corpus.load_manifest(
        config.path("image_manifest"), tree, lexicon=lexicon, channels=config.channels
    )


def _codebooks(store: ModelStore, config: PipelineConfig) -> dict[str, encode.Codebook]:
    books = {}
    for ch in config.channels:
        path = store.path("codebooks", f"{ch}.cbcb")
        if not path.exists():
            raise PreconditionError(f"no codebook for channel {ch}")
        name, centers, seed, sigma = read_cbcb(path)
        books[name] = encode.Codebook(
            channel=name, centers=centers, train_seed=seed, soft_sigma=sigma
        )
    return books


def _features(store: ModelStore) -> Callable[[Sequence[str]], dict[str, np.ndarray]]:
    """Reads features.cbfh once; returns the map from image ids to their
    stacked rows, {channel: (ids x dim)}."""
    path = store.path("features.cbfh")
    ids, channels = read_cbfh(path)
    row = {image_id: r for r, image_id in enumerate(ids)}

    def rows(image_ids: Sequence[str]) -> dict[str, np.ndarray]:
        try:
            index = [row[i] for i in image_ids]
        except KeyError as exc:
            raise DataFormatError(f"{path} has no features for image {exc}") from None
        return {ch: m[index] for ch, m in channels.items()}

    return rows


def _plan(store: ModelStore, event_id: str) -> semmatch.QueryPlan:
    relpath = f"plans/{event_id}.json"
    return semmatch.plan_from_dict(store.read_json(relpath), source=str(store.path(relpath)))


def _candidates(store: ModelStore) -> list[dict]:
    doc = store.read_json("candidates.json")
    entries = doc.get("candidates") if isinstance(doc, dict) else None
    keys = {"concept_id": str, "event_id": str, "name": str, "frequency": int, "image_ids": list}
    return store.checked("candidates.json", entries, keys)


def _concept_tree(store: ModelStore) -> ConceptBankTree:
    """The verified concept bank: the ontology's hierarchy with every candidate
    re-attached under its stored id, minus those reports/visualness.json rejects."""
    tree, candidates = _tree(store), _candidates(store)
    relpath = "reports/visualness.json"
    verdicts = store.read_json(relpath)
    keys = {"concept_id": str, "cv_ap": float, "training_image_count": int, "passed": bool}
    store.checked(relpath, list(verdicts.values()) if isinstance(verdicts, dict) else None, keys)
    pairs = sorted((cid, v["concept_id"]) for cid, v in verdicts.items())
    if pairs != [(c, c) for c in sorted(c["concept_id"] for c in candidates)]:
        raise DataFormatError(
            f"{store.path(relpath)} does not match candidates.json; re-run verify"
        )
    for cand in candidates:
        try:
            ids = tree.attach_concepts(cand["event_id"], [cand["name"]])
        except PreconditionError as exc:
            ids = str(exc)
        if ids != [cand["concept_id"]]:
            raise DataFormatError(
                f"{store.path('candidates.json')}: {cand['concept_id']} re-attaches as {ids}"
            )
        if not verdicts[cand["concept_id"]]["passed"]:
            tree.prune_concept(cand["concept_id"])
    return tree


def _selection(store: ModelStore, concept_id: str) -> select.SelectionResult:
    relpath = f"selections/{concept_id}.json"
    keys = {"concept_id": str, "positives": (str, float), "negatives": (str, str), "seed": int}
    (doc,) = store.checked(relpath, [store.read_json(relpath)], keys)
    return select.SelectionResult.from_dict(doc)


def _detector_bank(store: ModelStore, books: dict[str, encode.Codebook]) -> detect.DetectorBank:
    """detectors.cbdt, whose channels must be the codebooks' feature dims."""
    path = store.path("detectors.cbdt")
    header, weights = read_cbdt(path)
    dims = {ch: encode.PYRAMID_BLOCKS * book.k for ch, book in books.items()}
    if {ch: w.shape[1] for ch, w in weights.items()} != dims:
        raise DataFormatError(f"{path} has channels {header['channels']}, the codebooks give {dims}")
    return detect.DetectorBank(
        concept_ids=header["concept_ids"],
        weights={ch: w.T for ch, w in weights.items()},
        bias=np.array(header["bias"], dtype=np.float64),
        platt=np.array(header["platt"], dtype=np.float64).reshape(-1, 2).T,
    )


def _load_reps(store: ModelStore, split: str) -> list[videorep.VideoRepresentation]:
    path = store.path("representations", f"{split}.cbvr")
    header, scores = read_cbvr(path) if path.exists() else ({"video_ids": []}, None)
    if not header["video_ids"]:
        raise PreconditionError(f"no representations for split {split}")
    return [
        videorep.VideoRepresentation(video_id, header["concept_ids"], row, frames)
        for video_id, row, frames in zip(header["video_ids"], scores, header["frames_used"])
    ]


def _video_labels(
    config: PipelineConfig, tree: ConceptBankTree, split_path: Path
) -> dict[str, str]:
    """video id -> event id, from a manifest's label column; the frame
    directories are not listed again (represent already did)."""
    return {
        video_id: tree.event_by_name(label).id
        for video_id, label, _frames in videorep.video_manifest_rows(split_path)
        if label is not None
    }


def _sorted_events(tree: ConceptBankTree):
    return sorted(tree.events(detectable_only=True), key=lambda n: n.id)


# -- stages -------------------------------------------------------------


def _stage_ontology(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = load_hierarchy(config.path("hierarchy"))
    store.path("ontology.json").write_text(tree.to_json(), encoding="utf-8")
    return {"layer_counts": tree.layer_counts()}


def _stage_discover(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    lexicon = _lexicon(config)
    records = _records(config, tree, lexicon)
    by_event: dict[str, list[corpus.ImageRecord]] = {}
    for r in records:
        by_event.setdefault(r.event_id, []).append(r)

    out = []
    for event in _sorted_events(tree):
        recs = by_event.get(event.id)
        if not recs:
            continue
        found = corpus.discover_candidates(recs, lexicon, top_k=config.top_k_tags)
        ids = tree.attach_concepts(event.id, [c.name for c in found])
        out.extend({"concept_id": cid, **asdict(cand)} for cid, cand in zip(ids, found))
    store.write_json("candidates.json", {"candidates": out})
    return {
        "candidates": len(out),
        "events_with_images": len(by_event),
        "images": len(records),
    }


def _stage_codebook(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    lexicon = _lexicon(config)
    records = _records(config, tree, lexicon)
    report = {}
    seed0 = config.seed_for("codebook")
    for ci, channel in enumerate(config.channels):
        blocks = _pmap(
            lambda r, ch=channel: encode.load_descriptors(r.image_path, ch),
            records,
            workers,
        )
        dims = [b.vectors.shape[1] for b in blocks]
        for record, dim in zip(records, dims):
            if dim != dims[0]:
                raise DataFormatError(
                    f"{record.image_path}.{channel}.cbfv: descriptor dim {dim}, "
                    f"but {records[0].image_path}.{channel}.cbfv has {dims[0]}"
                )
        data = np.vstack([b.vectors for b in blocks])
        if data.shape[0] > config.max_codebook_descriptors:
            rng = np.random.default_rng(seed0 + ci)
            keep = np.sort(
                rng.choice(
                    data.shape[0], size=config.max_codebook_descriptors, replace=False
                )
            )
            data = data[keep]
        book = encode.train_codebook(
            data, k=config.codebook_k, seed=seed0 + ci, channel=channel
        )
        write_cbcb(
            store.path("codebooks", f"{channel}.cbcb"),
            channel,
            book.centers,
            book.train_seed,
            book.soft_sigma,
        )
        report[channel] = {
            "k": book.k,
            "descriptors": int(data.shape[0]),
            "soft_sigma": book.soft_sigma,
            "inertia": book.inertia,
        }
    return {"channels": report}


def _stage_encode(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    lexicon = _lexicon(config)
    records = _records(config, tree, lexicon)
    books = _codebooks(store, config)

    def job(chunk: list[corpus.ImageRecord]) -> dict[str, np.ndarray]:
        _, bad, mats = encode.encode_paths([r.image_path for r in chunk], books, config.soft_k)
        if bad:
            raise bad[0][1]  # a bad corpus image fails the stage
        return mats

    chunks = [records[i : i + ENCODE_CHUNK] for i in range(0, len(records), ENCODE_CHUNK)]
    parts = _pmap(job, chunks, workers)
    mats = {ch: np.concatenate([part[ch] for part in parts]) for ch in books}
    write_cbfh(store.path("features.cbfh"), [r.image_id for r in records], mats)
    return {"images": len(records), "dims_per_channel": next(iter(mats.values())).shape[1]}


def _stage_select(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    candidates = sorted(_candidates(store), key=lambda c: c["concept_id"])
    features = _features(store)
    # every job gets all pools; sampling negatives skips a pool's own concept
    pools = [
        select.ConceptImagePool(c["concept_id"], c["image_ids"], features(c["image_ids"]))
        for c in candidates
    ]
    del features  # the pools hold copies of their rows; free the table before the jobs
    seed0 = config.seed_for("selection")

    def job(item: tuple[int, select.ConceptImagePool]) -> tuple[str, int]:
        idx, pool = item
        cid = pool.concept_id
        seed = seed0 + idx
        if config.selection_mode == "kde":
            result = select.select_training_set(
                pool,
                pools,
                s=config.s,
                t=config.t,
                seed=seed,
                allow_fewer_negatives=True,
            )
        else:
            rng = np.random.default_rng(seed)
            ids = sorted(pool.image_ids)
            take = min(config.s, len(ids))
            picked = sorted(rng.choice(len(ids), size=take, replace=False).tolist())
            result = select.SelectionResult(
                concept_id=cid,
                positives=[(ids[j], 0.0) for j in picked],
                negatives=select.sample_negatives(
                    pool, pools, config.t, seed, allow_fewer=True
                ),
                seed=seed,
            )
        store.write_json(f"selections/{cid}.json", result.to_dict())
        return cid, len(result.positives)

    done = _pmap(job, list(enumerate(pools)), workers)
    return {"selections": {cid: n for cid, n in done}, "mode": config.selection_mode}


def _stage_verify(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    lexicon = _lexicon(config)
    records = _records(config, tree, lexicon)
    candidates = sorted(_candidates(store), key=lambda c: c["concept_id"])
    features = _features(store)
    seed0 = config.seed_for("verify")

    def job(item: tuple[int, dict]) -> detect.VisualnessReport:
        idx, cand = item
        cid, name = cand["concept_id"], cand["name"]
        pos_ids = cand["image_ids"]
        pos = set(pos_ids)
        neg_ids = [
            r.image_id
            for r in records
            if name not in r.canonical_tags() and r.image_id not in pos
        ]
        if len(pos_ids) < 2 or len(neg_ids) < len(pos_ids):
            return detect.VisualnessReport(
                concept_id=cid,
                cv_ap=0.0,
                training_image_count=len(pos_ids),
                passed=False,
            )
        return detect.verify_visualness(
            cid,
            features(pos_ids),
            features(neg_ids),
            seed=seed0 + idx,
            C=config.C,
            gamma=config.gamma,
            ap_threshold=config.cv_ap_threshold,
            min_training_images=config.min_training_images,
        )

    reports = _pmap(job, list(enumerate(candidates)), workers)
    doc = {r.concept_id: r.to_dict() for r in reports}
    store.write_json("reports/visualness.json", doc)
    passed = sorted(r.concept_id for r in reports if r.passed)
    return {
        "verified": len(passed),
        "rejected": len(reports) - len(passed),
        "passed_ids": passed,
    }


def _stage_train(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    leaves = sorted(_concept_tree(store).concept_leaves(), key=lambda n: n.id)
    features = _features(store)
    seed0 = config.seed_for("train")

    def job(item: tuple[int, object]) -> tuple[detect.DetectorBank, dict]:
        idx, leaf = item
        sel = _selection(store, leaf.id)
        pos_ids = [i for i, _ in sel.positives]
        neg_ids = [i for i, _ in sel.negatives]
        if len(pos_ids) < 2 or len(neg_ids) < 2:
            raise PreconditionError(
                f"concept {leaf.id} has too few training images "
                f"({len(pos_ids)} pos / {len(neg_ids)} neg)"
            )
        rng = np.random.default_rng(seed0 + idx)
        tr_p, ho_p = _holdout_split(pos_ids, config.calibration_holdout, rng)
        tr_n, ho_n = _holdout_split(neg_ids, config.calibration_holdout, rng)
        train_ids = tr_p + tr_n
        labels = np.array([1.0] * len(tr_p) + [-1.0] * len(tr_n))
        feats = features(train_ids)
        kernels = {ch: detect.KernelSpec("linear") for ch in config.channels}
        gram = [
            detect.compute_kernel(feats[ch], feats[ch], kernels[ch])
            for ch in config.channels
        ]
        problem = detect.DetectorTrainingProblem(
            gram=gram,
            labels=labels,
            C=config.C,
            gamma=config.gamma,
            channels=list(config.channels),
            image_ids=train_ids,
            features=feats,
            kernels=kernels,
        )
        model = detect.train_mklsvm(problem, concept_id=leaf.id)
        ho_ids = ho_p + ho_n
        ho_labels = np.array([1.0] * len(ho_p) + [-1.0] * len(ho_n))
        # calibrate the weights as stored: folded, then rounded to f32
        bank = detect.DetectorBank.fold(model)
        bank.platt[:, 0] = detect.fit_platt(bank.raw_scores(features(ho_ids))[:, 0], ho_labels)
        return bank, {
            "support_vectors": int(model.alpha.size),
            "beta": [float(b) for b in model.beta],
            "objective": model.objective,
        }

    if not leaves:
        raise PreconditionError("no verified concepts to train")
    done = _pmap(job, list(enumerate(leaves)), workers)
    bank = detect.DetectorBank.concat([b for b, _ in done])
    header = {
        "concept_ids": bank.concept_ids,
        "bias": bank.bias.tolist(),
        "platt": bank.platt.T.tolist(),
        "beta": [r["beta"] for _, r in done],
    }
    write_cbdt(store.path("detectors.cbdt"), header, {ch: w.T for ch, w in bank.weights.items()})
    return {"trained": len(done), "detectors": {b.concept_ids[0]: r for b, r in done}}


def _holdout_split(
    ids: list[str], fraction: float, rng: np.random.Generator
) -> tuple[list[str], list[str]]:
    """Split ids into (train, holdout); at least one id on each side."""
    ids = sorted(ids)
    n_hold = min(len(ids) - 1, max(1, int(round(len(ids) * fraction))))
    picked = set(rng.choice(len(ids), size=n_hold, replace=False).tolist())
    hold = [x for j, x in enumerate(ids) if j in picked]
    train = [x for j, x in enumerate(ids) if j not in picked]
    return train, hold


def _stage_match(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _concept_tree(store)
    provider = _provider(config, _lexicon(config))
    report = {}
    for event in _sorted_events(tree):
        plan = semmatch.select_concepts(
            event.name, tree, provider, n=config.n_concepts
        )
        doc = semmatch.plan_to_dict(plan)
        doc["event_id"] = event.id
        store.write_json(f"plans/{event.id}.json", doc)
        report[event.id] = len(plan.selections)
    return {"plans": report}


def _layout(store: ModelStore, tree: ConceptBankTree) -> list[str]:
    """Concatenated per-event plan concept ids, event-id order."""
    layout = []
    for event in _sorted_events(tree):
        layout.extend(_plan(store, event.id).concept_ids)
    if not layout:
        raise PreconditionError("no plans in store")
    return layout


def _stage_represent(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    layout = _layout(store, tree)
    books = _codebooks(store, config)
    bank = _detector_bank(store, books).take(list(dict.fromkeys(layout)))
    m = config.m_frames

    def job(chunk: list[videorep.VideoManifestEntry]) -> list[videorep.VideoRepresentation]:
        # one encode pass over the chunk's sampled frames; each video's
        # encoder returns its own share of it
        samples = [videorep.sample_frames(entry.frame_paths, m) for entry in chunk]
        parts = encode.encode_path_groups(samples, books, config.soft_k)
        return [
            videorep.represent(entry, layout, bank, lambda _frames, part=part: part, m=m)
            for entry, part in zip(chunk, parts)
        ]

    report = {}
    for split, field in (("train", "video_manifest_train"), ("test", "video_manifest_test")):
        manifest = config.path(field)
        if not manifest.exists():
            report[split] = 0
            continue
        chunks, filled = [], REPRESENT_CHUNK
        for entry in videorep.load_video_manifest(manifest):
            if filled >= REPRESENT_CHUNK:
                chunks.append([])
                filled = 0
            chunks[-1].append(entry)
            filled += min(len(entry.frame_paths), m)  # as many as sample_frames keeps
        reps = [rep for part in _pmap(job, chunks, workers) for rep in part]
        reps.sort(key=lambda rep: rep.video_id)
        ids, frames = [rep.video_id for rep in reps], [rep.frames_used for rep in reps]
        header = {"split": split, "video_ids": ids, "concept_ids": layout, "frames_used": frames}
        scores = np.array([rep.scores for rep in reps])
        write_cbvr(store.path("representations", f"{split}.cbvr"), header, scores)
        report[split] = len(reps)
    if not any(report.values()):
        raise PreconditionError("no video manifests found to represent")
    return {"videos": report, "layout_len": len(layout)}


def _stage_retrieve(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    reps = _load_reps(store, "test")
    report = {}
    for event in _sorted_events(tree):
        plan = _plan(store, event.id)
        fusion = zero_shot_retrieve(plan, reps)
        store.write_json(
            f"reports/retrieval/{event.id}.json",
            {
                "event_id": event.id,
                "query": plan.query,
                "concepts_used": fusion.concept_ids,
                "ordering": fusion.ordering,
                "fusion_scores": fusion.scores,
                "ranks": fusion.ranks,
                "n": fusion.n,
                "d": fusion.d,
            },
        )
        report[event.id] = fusion.d
    return {"queries": report, "videos": len(reps)}


def _stage_detect(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    train_reps = _load_reps(store, "train")
    test_reps = _load_reps(store, "test")
    labels = _video_labels(config, tree, config.path("video_manifest_train"))
    events = _sorted_events(tree)
    seed0 = config.seed_for("event")

    def job(item: tuple[int, object]) -> tuple[str, dict]:
        idx, event = item
        positives = {vid for vid, eid in labels.items() if eid == event.id}
        det = train_event_detector(
            event.id, train_reps, positives, seed=seed0 + idx
        )
        store.save_event_detector(det)
        ranking = detect_events([det], test_reps)[event.id]
        store.write_json(
            f"reports/detection/{event.id}.json",
            {
                "event_id": event.id,
                "ranking": [[vid, score] for vid, score in ranking],
                "cv_ap": det.cv_ap,
                "C": det.C,
                "bandwidth_scale": det.bandwidth_scale,
            },
        )
        return event.id, {"cv_ap": det.cv_ap, "C": det.C}

    done = _pmap(job, list(enumerate(events)), workers)
    return {"events": dict(done)}


def _stage_eval(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    manifest = store.read_manifest()["stages"]
    if "retrieve" not in manifest and "detect" not in manifest:
        raise PreconditionError("missing upstream: retrieve or detect")
    truth = _video_labels(config, tree, config.path("video_manifest_test"))
    out: dict = {}
    for side, stage, report_dir, key in (
        ("zero_shot", "retrieve", "retrieval", "ordering"),
        ("supervised", "detect", "detection", "ranking"),
    ):
        if stage not in manifest:
            continue
        per_event = {}
        for event in _sorted_events(tree):
            doc = store.read_json(f"reports/{report_dir}/{event.id}.json")
            ordering = [
                row[0] if isinstance(row, list) else row for row in doc[key]
            ]
            relevance = {vid: int(truth.get(vid) == event.id) for vid in ordering}
            per_event[event.id] = average_precision(
                LabeledRanking(tuple(ordering), relevance)
            )
        out[side] = {
            "per_event_ap": per_event,
            "map": sum(per_event.values()) / len(per_event),
        }
    store.write_json("reports/eval.json", out)
    return out


def _stage_recount(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    names = {leaf.id: leaf.name for leaf in _concept_tree(store).concept_leaves()}
    reps = _load_reps(store, "test")
    doc = {
        rep.video_id: [[name, score] for name, score in videorep.recount(rep, names)]
        for rep in reps
    }
    store.write_json("reports/recount.json", doc)
    return {"videos": len(doc)}


# name -> (function, upstream stages), in pipeline order.
_STAGE_TABLE: dict[str, tuple[Callable[..., dict], tuple[str, ...]]] = {
    "ontology": (_stage_ontology, ()),
    "discover": (_stage_discover, ("ontology",)),
    "codebook": (_stage_codebook, ("discover",)),
    "encode": (_stage_encode, ("codebook",)),
    "select": (_stage_select, ("encode",)),
    "verify": (_stage_verify, ("select",)),
    "train": (_stage_train, ("verify",)),
    "match": (_stage_match, ("train",)),
    "represent": (_stage_represent, ("match",)),
    "retrieve": (_stage_retrieve, ("represent",)),
    "detect": (_stage_detect, ("represent",)),
    "eval": (_stage_eval, ("represent",)),
    "recount": (_stage_recount, ("eval",)),
}
STAGES = tuple(_STAGE_TABLE)


# -- runner -------------------------------------------------------------


def run_stage(
    stage: str,
    config: PipelineConfig,
    store_root: str | Path,
    workers: int = 1,
    force: bool = False,
) -> dict:
    """Run one pipeline stage against the store; returns its report."""
    if stage not in STAGES:
        raise PreconditionError(f"unknown stage {stage!r}; known: {', '.join(STAGES)}")
    store = ModelStore(store_root)
    store.initialize(config.config_hash, force=force)
    runner, upstream = _STAGE_TABLE[stage]
    store.require_upstream(upstream, config.config_hash, force=force)
    try:
        report = runner(config, store, workers)
    except ConceptBankError as exc:
        raise type(exc)(f"[stage {stage}] {exc}") from exc
    store.mark_stage(stage, config.config_hash)
    return {"stage": stage, **report}


def run_all(
    config: PipelineConfig,
    store_root: str | Path,
    workers: int = 1,
    force: bool = False,
    stages: Sequence[str] = STAGES,
) -> list[dict]:
    return [run_stage(s, config, store_root, workers, force) for s in stages]
