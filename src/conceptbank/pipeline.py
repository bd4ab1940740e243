"""Stage-oriented pipeline runner.

Stage order: ontology -> discover -> codebook -> encode -> select ->
verify -> train -> match -> represent -> {retrieve | detect} -> eval ->
recount. Each stage reads upstream artifacts from the model store,
refuses to run when an upstream stage is missing or was built under a
different config hash, and rewrites byte-identical outputs when re-run
on unchanged inputs. Independent per-concept / per-image / per-video
work is sharded over a thread pool; every merge happens in a fixed
order and every random draw uses a seed derived from the config, so the
store's bytes do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import corpus, detect, encode, select, semmatch, videorep
from .config import PipelineConfig
from .errors import ConceptBankError, PreconditionError
from .formats import read_cbcb, read_cbfh, read_cbvr, write_cbcb, write_cbfh, write_cbvr
from .metrics import LabeledRanking, average_precision
from .ontology import ConceptBankTree, load_hierarchy
from .retrieve import detect_events, train_event_detector, zero_shot_retrieve
from .store import ModelStore

STAGES = (
    "ontology",
    "discover",
    "codebook",
    "encode",
    "select",
    "verify",
    "train",
    "match",
    "represent",
    "retrieve",
    "detect",
    "eval",
    "recount",
)

_DEPS: dict[str, tuple[str, ...]] = {
    "ontology": (),
    "discover": ("ontology",),
    "codebook": ("discover",),
    "encode": ("codebook",),
    "select": ("encode",),
    "verify": ("select",),
    "train": ("verify",),
    "match": ("train",),
    "represent": ("match",),
    "retrieve": ("represent",),
    "detect": ("represent",),
    "eval": ("represent",),
    "recount": ("eval",),
}

ENCODE_CHUNK = 64  # images per encode batch; fixed, so batches never depend on workers


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
    store.require_upstream(_DEPS[stage], config.config_hash, force=force)
    if stage == "eval":
        manifest = store.read_manifest()["stages"]
        if "retrieve" not in manifest and "detect" not in manifest:
            raise PreconditionError("missing upstream: retrieve or detect")
    runner = _STAGE_FNS[stage]
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
    return ConceptBankTree.from_json(path.read_text(encoding="utf-8"))


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


def _feature_set(store: ModelStore, image_id: str) -> encode.FeatureSet:
    path = store.path("features", f"{image_id}.cbfh")
    if not path.exists():
        raise PreconditionError(f"image {image_id} not encoded yet")
    return encode.FeatureSet(vectors=read_cbfh(path))


def _plan(store: ModelStore, event_id: str) -> semmatch.QueryPlan:
    relpath = f"plans/{event_id}.json"
    return semmatch.plan_from_dict(store.read_json(relpath), source=str(store.path(relpath)))


def _candidates(store: ModelStore) -> list[dict]:
    return store.read_json("candidates.json")["candidates"]


def _load_reps(store: ModelStore, split: str) -> list[videorep.VideoRepresentation]:
    root = store.path("representations", split)
    if not root.is_dir():
        raise PreconditionError(f"no representations for split {split}")
    reps = []
    for path in sorted(root.glob("*.cbvr")):
        header, scores = read_cbvr(path)
        reps.append(
            videorep.VideoRepresentation(
                video_id=header["video_id"],
                concept_ids=list(header["concept_ids"]),
                scores=scores,
                frames_used=int(header["frames_used"]),
            )
        )
    if not reps:
        raise PreconditionError(f"no representations for split {split}")
    return reps


def _video_labels(
    config: PipelineConfig, tree: ConceptBankTree, split_path: Path
) -> dict[str, str]:
    """video id -> event id, from a manifest's label column."""
    labels = {}
    for entry in videorep.load_video_manifest(split_path):
        if entry.label is None:
            continue
        labels[entry.video_id] = tree.event_by_name(entry.label).id
    return labels


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
        for cid, cand in zip(ids, found):
            out.append(
                {
                    "concept_id": cid,
                    "event_id": cand.event_id,
                    "name": cand.name,
                    "frequency": cand.frequency,
                    "image_ids": cand.image_ids,
                }
            )
    store.write_json("candidates.json", {"candidates": out})
    store.path("ontology.json").write_text(tree.to_json(), encoding="utf-8")
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

    def job(chunk: list[corpus.ImageRecord]) -> int:
        _, bad, mats = encode.encode_paths([r.image_path for r in chunk], books, config.soft_k)
        if bad:
            raise bad[0][1]  # a bad corpus image fails the stage
        for i, record in enumerate(chunk):
            write_cbfh(store.path("features", f"{record.image_id}.cbfh"), {c: m[i] for c, m in mats.items()})
        return next(iter(mats.values())).shape[1]

    chunks = [records[i : i + ENCODE_CHUNK] for i in range(0, len(records), ENCODE_CHUNK)]
    dims = _pmap(job, chunks, workers)
    return {"images": len(records), "dims_per_channel": dims[0] if dims else 0}


def _build_pools(
    candidates: list[dict], features: dict[str, encode.FeatureSet]
) -> dict[str, select.ConceptImagePool]:
    pools = {}
    for cand in candidates:
        pools[cand["concept_id"]] = select.ConceptImagePool(
            concept_id=cand["concept_id"],
            members=[(i, features[i]) for i in cand["image_ids"]],
        )
    return pools


def _stage_select(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    candidates = sorted(_candidates(store), key=lambda c: c["concept_id"])
    image_ids = sorted({i for c in candidates for i in c["image_ids"]})
    features = {i: _feature_set(store, i) for i in image_ids}
    pools = _build_pools(candidates, features)
    seed0 = config.seed_for("selection")

    def job(item: tuple[int, dict]) -> tuple[str, int]:
        idx, cand = item
        cid = cand["concept_id"]
        pool = pools[cid]
        others = [p for k, p in sorted(pools.items()) if k != cid]
        seed = seed0 + idx
        if config.selection_mode == "kde":
            result = select.select_training_set(
                pool,
                others,
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
                    pool, others, config.t, seed, allow_fewer=True
                ),
                seed=seed,
            )
        store.write_json(f"selections/{cid}.json", result.to_dict())
        return cid, len(result.positives)

    done = _pmap(job, list(enumerate(candidates)), workers)
    return {"selections": {cid: n for cid, n in done}, "mode": config.selection_mode}


def _stage_verify(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    lexicon = _lexicon(config)
    records = _records(config, tree, lexicon)
    candidates = sorted(_candidates(store), key=lambda c: c["concept_id"])
    features = {r.image_id: _feature_set(store, r.image_id) for r in records}
    by_id = {r.image_id: r for r in records}
    seed0 = config.seed_for("verify")

    def matrices(ids: list[str]) -> dict[str, np.ndarray]:
        return {
            ch: np.stack([features[i].vectors[ch] for i in ids])
            for ch in config.channels
        }

    def job(item: tuple[int, dict]) -> detect.VisualnessReport:
        idx, cand = item
        cid, name = cand["concept_id"], cand["name"]
        pos_ids = cand["image_ids"]
        neg_ids = [
            r.image_id
            for r in records
            if name not in r.canonical_tags() and r.image_id not in set(pos_ids)
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
            matrices(pos_ids),
            matrices(neg_ids),
            seed=seed0 + idx,
            C=config.C,
            gamma=config.gamma,
            ap_threshold=config.cv_ap_threshold,
            min_training_images=config.min_training_images,
        )

    reports = _pmap(job, list(enumerate(candidates)), workers)
    doc = {r.concept_id: r.to_dict() for r in reports}
    store.write_json("reports/visualness.json", doc)
    for r in reports:
        if not r.passed:
            tree.prune_concept(r.concept_id)
    store.path("ontology.json").write_text(tree.to_json(), encoding="utf-8")
    passed = sorted(r.concept_id for r in reports if r.passed)
    return {
        "verified": len(passed),
        "rejected": len(reports) - len(passed),
        "passed_ids": passed,
    }


def _stage_train(config: PipelineConfig, store: ModelStore, workers: int) -> dict:
    tree = _tree(store)
    leaves = sorted(tree.concept_leaves(), key=lambda n: n.id)
    seed0 = config.seed_for("train")

    def job(item: tuple[int, object]) -> tuple[str, dict]:
        idx, leaf = item
        sel = select.SelectionResult.from_dict(
            store.read_json(f"selections/{leaf.id}.json")
        )
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
        feats = {
            ch: np.stack([_feature_set(store, i).vectors[ch] for i in train_ids])
            for ch in config.channels
        }
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
        ho_feats = {
            ch: np.stack([_feature_set(store, i).vectors[ch] for i in ho_ids])
            for ch in config.channels
        }
        detect.calibrate(model, model.raw_score_matrix(ho_feats), ho_labels)
        store.save_detector(model)
        return leaf.id, {
            "support_vectors": int(model.alpha.size),
            "beta": [float(b) for b in model.beta],
            "objective": model.objective,
        }

    done = _pmap(job, list(enumerate(leaves)), workers)
    return {"trained": len(done), "detectors": dict(done)}


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
    tree = _tree(store)
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
    detectors = {cid: store.load_detector(cid) for cid in sorted(set(layout))}
    books = _codebooks(store, config)

    def encoder(paths: list[Path]) -> tuple[list, list, dict[str, np.ndarray]]:
        return encode.encode_paths(paths, books, soft_k=config.soft_k)

    report = {}
    for split, field in (("train", "video_manifest_train"), ("test", "video_manifest_test")):
        manifest = config.path(field)
        if not manifest.exists():
            report[split] = 0
            continue
        entries = videorep.load_video_manifest(manifest)
        out_dir = store.path("representations", split)
        out_dir.mkdir(parents=True, exist_ok=True)

        def job(entry: videorep.VideoManifestEntry, split=split) -> str:
            rep = videorep.represent(
                entry, layout, detectors, encoder, m=config.m_frames
            )
            header = rep.header()
            header["split"] = split
            write_cbvr(
                store.path("representations", split, f"{rep.video_id}.cbvr"),
                header,
                rep.scores,
            )
            return rep.video_id

        done = _pmap(job, entries, workers)
        report[split] = len(done)
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
    truth = _video_labels(config, tree, config.path("video_manifest_test"))
    manifest = store.read_manifest()["stages"]
    out: dict = {}
    for side, report_dir, key in (
        ("zero_shot", "retrieval", "ordering"),
        ("supervised", "detection", "ranking"),
    ):
        stage = "retrieve" if side == "zero_shot" else "detect"
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
    tree = _tree(store)
    names = {leaf.id: leaf.name for leaf in tree.concept_leaves()}
    reps = _load_reps(store, "test")
    doc = {
        rep.video_id: [[name, score] for name, score in videorep.recount(rep, names)]
        for rep in reps
    }
    store.write_json("reports/recount.json", doc)
    return {"videos": len(doc)}


_STAGE_FNS: dict[str, Callable[[PipelineConfig, ModelStore, int], dict]] = {
    "ontology": _stage_ontology,
    "discover": _stage_discover,
    "codebook": _stage_codebook,
    "encode": _stage_encode,
    "select": _stage_select,
    "verify": _stage_verify,
    "train": _stage_train,
    "match": _stage_match,
    "represent": _stage_represent,
    "retrieve": _stage_retrieve,
    "detect": _stage_detect,
    "eval": _stage_eval,
    "recount": _stage_recount,
}
