from __future__ import annotations

import dataclasses
import json
import shutil
from fnmatch import fnmatchcase

import numpy as np
import pytest

from conceptbank.cli import main
from conceptbank.errors import PreconditionError
from conceptbank.formats import read_cbdt, read_cbfh, read_cbvr, write_cbdt, write_cbfh, write_cbvr
from conceptbank.pipeline import STAGES, _load_reps, _sorted_events, _tree, run_all, run_stage
from conceptbank.retrieve import detect_events


def test_stage_order_is_gated_by_upstream(corpus_config, tmp_path):
    store_root = tmp_path / "store"
    report = run_stage("ontology", corpus_config, store_root)
    assert report["stage"] == "ontology"
    assert report["layer_counts"]["event"] == 4
    with pytest.raises(PreconditionError, match="missing upstream: discover"):
        run_stage("codebook", corpus_config, store_root)
    with pytest.raises(PreconditionError, match="unknown stage"):
        run_stage("polish", corpus_config, store_root)


def test_eval_needs_a_ranking_stage(corpus_config, tmp_path):
    store_root = tmp_path / "store"
    run_all(corpus_config, store_root, stages=STAGES[: STAGES.index("represent") + 1])
    with pytest.raises(PreconditionError, match="retrieve or detect"):
        run_stage("eval", corpus_config, store_root)


def test_represent_needs_no_plans_and_the_plan_stages_need_match(
    full_store, corpus_dir, tmp_path, capsys
):
    config = corpus_dir[0] / "config.json"
    store = tmp_path / "store"
    shutil.copytree(full_store.root, store)
    tables = {p.name: p.read_bytes() for p in (store / "representations").iterdir()}
    for path in (store / "representations").iterdir():
        path.unlink()
    shutil.rmtree(store / "plans")
    (store / "ontology.json").unlink()
    manifest = json.loads((store / "manifest.json").read_text())
    del manifest["stages"]["match"]
    (store / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("represent", "--store", store, "--config", config) == 0
    assert {p.name: p.read_bytes() for p in (store / "representations").iterdir()} == tables
    capsys.readouterr()
    for stage in ("retrieve", "detect"):
        assert run_cli(stage, "--store", store, "--config", config) == 2, stage
        assert "missing upstream: match" in capsys.readouterr().err, stage


def test_store_refuses_a_different_config(corpus_config, tmp_path):
    store_root = tmp_path / "store"
    run_stage("ontology", corpus_config, store_root)
    other = dataclasses.replace(corpus_config, base_seed=99)
    with pytest.raises(PreconditionError, match="use --force"):
        run_stage("ontology", other, store_root)
    report = run_stage("ontology", other, store_root, force=True)
    assert report["stage"] == "ontology"
    # the force rebuild reset the stage ledger under the new hash
    with pytest.raises(PreconditionError, match="missing upstream"):
        run_stage("codebook", other, store_root)


def _snapshot(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _changed(before: dict[str, bytes], after: dict[str, bytes]) -> set[str]:
    return {rel for rel in before.keys() | after.keys() if before.get(rel) != after.get(rel)}


def test_rerunning_a_stage_rewrites_identical_bytes(full_store, corpus_config, tmp_path):
    store_root = tmp_path / "store"
    shutil.copytree(full_store.root, store_root)
    before = _snapshot(store_root)
    for stage in STAGES:
        run_stage(stage, corpus_config, store_root)
        assert not _changed(before, _snapshot(store_root)), stage


# The files each stage alone writes, manifest.json aside.
OWNED = {
    "ontology": ("ontology.json",),
    "discover": ("candidates.json",),
    "codebook": ("codebooks/*.cbcb",),
    "encode": ("features.cbfh",),
    "select": ("selections/*.json",),
    "verify": ("reports/visualness.json",),
    "train": ("detectors.cbdt",),
    "match": ("plans/*.json",),
    "represent": ("representations/*.cbvr",),
    "retrieve": ("reports/retrieval/*.json",),
    "detect": ("event_detectors/*.json", "reports/detection/*.json"),
    "eval": ("reports/eval.json",),
    "recount": ("reports/recount.json",),
}


def test_each_stage_writes_only_the_files_it_owns(corpus_config, tmp_path):
    store_root = tmp_path / "store"
    before: dict[str, bytes] = {}
    for stage in STAGES:
        run_stage(stage, corpus_config, store_root)
        after = _snapshot(store_root)
        changed = _changed(before, after) - {"manifest.json"}
        strays = sorted(r for r in changed if not any(fnmatchcase(r, g) for g in OWNED[stage]))
        assert changed and not strays, (stage, strays)
        before = after
    for rel in set(before) - {"manifest.json"}:
        owners = [s for s, globs in OWNED.items() if any(fnmatchcase(rel, g) for g in globs)]
        assert len(owners) == 1, (rel, owners)


def test_a_stored_event_model_reproduces_its_detection_report(full_store):
    """detect leaves one model file per detectable event; each, rebuilt on
    the train representations, ranks the test videos exactly as its
    report does."""
    events = [event.id for event in _sorted_events(_tree(full_store))]
    assert sorted(p.name for p in full_store.path("event_detectors").iterdir()) == [
        f"{event}.json" for event in events
    ]
    train, test = _load_reps(full_store, "train"), _load_reps(full_store, "test")
    for event in events:
        ranking = detect_events([full_store.load_detector(event, train)], test)[event]
        report = full_store.read_json(f"reports/detection/{event}.json")
        assert [[vid, conf] for vid, conf in ranking] == report["ranking"], event


def _add_a_concept_leaf(tree_doc: dict) -> None:
    """Make ontology.json look as discover and verify used to leave it."""
    event = next(n for n in tree_doc["nodes"] if n["layer"] == "event")
    event["children"].append("con-00000")
    leaf = {"id": "con-00000", "name": "brush", "layer": "concept", "parent": event["id"]}
    tree_doc["nodes"].append({**leaf, "children": []})


def test_concept_bank_loaders_reject_malformed_json(full_store, corpus_dir, tmp_path, capsys):
    config = corpus_dir[0] / "config.json"
    cases = [  # (stage, file, corruption), each on a fresh copy of the full store
        ("select", "candidates.json", lambda d: d["candidates"][0].pop("image_ids")),
        ("train", "candidates.json", lambda d: d.pop("candidates")),
        ("train", "candidates.json", lambda d: d["candidates"][0].update(frequency="3")),
        ("match", "candidates.json", lambda d: d["candidates"][0]["image_ids"].append(7)),
        ("match", "candidates.json", lambda d: d["candidates"].reverse()),
        ("recount", "candidates.json", lambda d: d["candidates"][0].update(event_id="evt-9")),
        ("recount", "reports/visualness.json", lambda d: d.pop(min(d))),
        ("recount", "reports/visualness.json", lambda d: d.update({"con-9": d.pop(min(d))})),
        ("train", "reports/visualness.json", lambda d: d[min(d)].update(concept_id="con-9")),
        ("train", "reports/visualness.json", lambda d: d[min(d)].update(passed="yes")),
        ("match", "ontology.json", _add_a_concept_leaf),
    ]
    for i, (stage, relpath, corrupt) in enumerate(cases):
        store = tmp_path / f"store-{i}"
        shutil.copytree(full_store.root, store)
        doc = json.loads((store / relpath).read_text())
        corrupt(doc)
        (store / relpath).write_text(json.dumps(doc))
        assert run_cli(stage, "--store", store, "--config", config) == 3, i
        assert str(store / relpath) in capsys.readouterr().err, i


def _drop_the_last_image(path) -> None:
    ids, channels = read_cbfh(path)
    write_cbfh(path, ids[:-1], {ch: m[:-1] for ch, m in channels.items()})


def test_feature_table_loader_rejects_a_corrupt_features_file(full_store, corpus_dir, tmp_path, capsys):
    config = corpus_dir[0] / "config.json"
    cases = [  # each on a fresh copy of the full store
        lambda p: p.write_bytes(p.read_bytes()[:-4]),
        lambda p: p.write_bytes(p.read_bytes().replace(b'"image_ids"', b'"image_idz"', 1)),
        _drop_the_last_image,  # a selected or verified image without features
    ]
    for i, corrupt in enumerate(cases):
        store = tmp_path / f"store-{i}"
        shutil.copytree(full_store.root, store)
        corrupt(store / "features.cbfh")
        assert run_cli("verify", "--store", store, "--config", config) == 3, i
        assert str(store / "features.cbfh") in capsys.readouterr().err, i


def test_an_image_manifest_without_rows_exits_3_naming_it(full_store, corpus_dir, tmp_path, capsys):
    corpus, store = tmp_path / "corpus", tmp_path / "store"
    shutil.copytree(corpus_dir[0], corpus)
    shutil.copytree(full_store.root, store)
    (corpus / "images.tsv").write_text("# image_id\tevent\tpath\ttags\n", encoding="utf-8")
    config = corpus / "config.json"
    assert run_cli("run", "--store", tmp_path / "fresh", "--config", config) == 3
    assert str(corpus / "images.tsv") in capsys.readouterr().err
    assert run_cli("encode", "--store", store, "--config", config) == 3
    assert str(corpus / "images.tsv") in capsys.readouterr().err


def _not_utf8(path) -> None:
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


def _no_rows(path) -> None:
    path.write_text("# video_id\tlabel\tframes\n", encoding="utf-8")


def test_undecodable_or_empty_inputs_exit_3_naming_the_file(full_store, corpus_dir, tmp_path, capsys):
    corpus, store = tmp_path / "corpus", tmp_path / "store"
    shutil.copytree(corpus_dir[0], corpus)
    shutil.copytree(full_store.root, store)
    config = corpus / "config.json"
    concept = min(p.stem for p in (store / "selections").glob("*.json"))
    event = min(p.stem for p in (store / "plans").glob("*.json"))
    cases = [  # (stage, file, corruption); each file is restored after its case
        ("discover", corpus / "images.tsv", _not_utf8),
        *(("discover", corpus / "lexicon" / name, _not_utf8)
          for name in ("lemma.tsv", "stopwords.txt", "meaningless.txt", "vocabulary.txt")),
        ("represent", corpus / "videos_train.tsv", _not_utf8),
        ("represent", corpus / "videos_test.tsv", _not_utf8),
        ("represent", corpus / "videos_train.tsv", _no_rows),
        ("detect", corpus / "videos_train.tsv", _no_rows),
        ("select", store / "candidates.json", _not_utf8),
        ("train", store / "selections" / f"{concept}.json", _not_utf8),
        ("train", store / "reports" / "visualness.json", _not_utf8),
        ("retrieve", store / "plans" / f"{event}.json", _not_utf8),
        ("eval", store / "manifest.json", _not_utf8),
    ]
    for stage, path, corrupt in cases:
        original = path.read_bytes()
        corrupt(path)
        assert run_cli(stage, "--store", store, "--config", config) == 3, (stage, path.name)
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err, (stage, path.name)
        path.write_bytes(original)
    assert run_cli("represent", "--store", store, "--config", config) == 0


def _json_edit(change):
    def corrupt(path):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))

    return corrupt


def _drop_a_weight_column(path) -> None:
    header, weights = read_cbdt(path)
    header.pop("channels")
    write_cbdt(path, header, {ch: w[:, :-1] for ch, w in weights.items()})


def _repeat_every_concept(path) -> None:
    """Every concept twice, as in the one-column-per-plan-slot tables of older stores."""
    header, scores = read_cbvr(path)
    write_cbvr(path, dict(header, concept_ids=header["concept_ids"] * 2), np.hstack([scores, scores]))


def test_store_loaders_reject_malformed_files(full_store, corpus_dir, tmp_path, capsys):
    config = corpus_dir[0] / "config.json"
    verdicts = full_store.read_json("reports/visualness.json")
    selection = f"selections/{min(c for c, v in verdicts.items() if v['passed'])}.json"
    cases = [  # (stage, file, corruption), each on a fresh copy of the full store
        ("train", selection, _json_edit(lambda d: d.pop("negatives"))),
        ("train", selection, _json_edit(lambda d: d["positives"][0].__setitem__(1, "0.5"))),
        ("train", selection, _json_edit(lambda d: d["negatives"].append(["im-x"]))),
        ("eval", "manifest.json", _json_edit(lambda d: d.pop("stages"))),
        ("eval", "manifest.json", _json_edit(lambda d: d["stages"]["ontology"].update(config_hash=3))),
        ("eval", "manifest.json", _json_edit(lambda d: d.update(stages=[]))),
        ("represent", "detectors.cbdt", lambda p: p.write_bytes(p.read_bytes()[:-4])),
        ("represent", "detectors.cbdt", lambda p: p.write_bytes(p.read_bytes().replace(b'"bias"', b'"bia"', 1))),
        ("represent", "detectors.cbdt", _drop_a_weight_column),  # dims differ from the codebooks'
        ("detect", "representations/train.cbvr", _repeat_every_concept),
        ("retrieve", "representations/test.cbvr", _repeat_every_concept),
    ]
    for i, (stage, relpath, corrupt) in enumerate(cases):
        store = tmp_path / f"store-{i}"
        shutil.copytree(full_store.root, store)
        corrupt(store / relpath)
        assert run_cli(stage, "--store", store, "--config", config) == 3, i
        assert str(store / relpath) in capsys.readouterr().err, i


def test_eval_rejects_malformed_ranking_reports(full_store, corpus_dir, tmp_path, capsys):
    config = corpus_dir[0] / "config.json"
    store = tmp_path / "store"
    shutil.copytree(full_store.root, store)
    event = min(p.stem for p in (store / "reports" / "detection").glob("*.json"))
    mutations = [  # (name, report doc and its ranking key -> corrupted doc)
        ("list root", lambda d, k: []),
        ("null root", lambda d, k: None),
        ("key missing", lambda d, k: {x: v for x, v in d.items() if x != k}),
        ("key null", lambda d, k: {**d, k: None}),
        ("key a string", lambda d, k: {**d, k: "abc"}),
        ("wrong-typed rows", lambda d, k: {**d, k: [[1]]}),
        # well-typed, but not each test video once
        ("cut list", lambda d, k: {**d, k: d[k][:3]}),
        ("repeated id", lambda d, k: {**d, k: d[k][:1] + d[k][:-1]}),
        ("unknown id", lambda d, k: {**d, k: [_renamed(d[k][0])] + d[k][1:]}),
    ]
    for report_dir, key in (("retrieval", "ordering"), ("detection", "ranking")):
        path = store / "reports" / report_dir / f"{event}.json"
        original = path.read_text()
        for name, mutate in mutations:
            path.write_text(json.dumps(mutate(json.loads(original), key)))
            assert run_cli("eval", "--store", store, "--config", config) == 3, (report_dir, name)
            err = capsys.readouterr().err
            assert str(path) in err and "Traceback" not in err, (report_dir, name)
        path.write_text(original)
    assert run_cli("eval", "--store", store, "--config", config) == 0


def _renamed(entry):
    """A ranking entry (an id, or an [id, score] row) naming no video."""
    return "vid-unknown" if isinstance(entry, str) else ["vid-unknown", *entry[1:]]


def test_a_malformed_ontology_manifest_exits_3_naming_it(full_store, corpus_dir, tmp_path, capsys):
    config = corpus_dir[0] / "config.json"
    store = tmp_path / "store"
    shutil.copytree(full_store.root, store)
    path = store / "ontology.json"
    original = path.read_text()
    doc = json.loads(original)
    mutations = {
        "truncated": original[: len(original) // 2],
        "empty": "",
        "not UTF-8": b"\xff\xfe{",
        "list root": [],
        "null root": None,
        "no nodes": {k: v for k, v in doc.items() if k != "nodes"},
        "no root_id": {k: v for k, v in doc.items() if k != "root_id"},
        "nodes null": {**doc, "nodes": None},
        "nodes a string": {**doc, "nodes": "abc"},
        "concept_counter null": {**doc, "concept_counter": None},
        "concept_counter a string": {**doc, "concept_counter": "abc"},
        "root_id null": {**doc, "root_id": None},
        "root_id unknown": {**doc, "root_id": "abc"},
        "a node not an object": {**doc, "nodes": doc["nodes"] + [1]},
        "a node's layer unknown": {**doc, "nodes": [{**doc["nodes"][0], "layer": "x"}] + doc["nodes"][1:]},
        "a node's children null": {**doc, "nodes": [{**doc["nodes"][0], "children": None}] + doc["nodes"][1:]},
    }
    for name, bad in mutations.items():
        if isinstance(bad, bytes):
            path.write_bytes(bad)
        else:
            path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        assert run_cli("discover", "--store", store, "--config", config) == 3, name
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err, name
    path.write_text(original)
    assert run_cli("discover", "--store", store, "--config", config) == 0


def _ontology_inputs(corpus_dir, tmp_path):
    """A corpus holding only what the ontology stage reads."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("config.json", "hierarchy.json"):
        shutil.copy(corpus_dir[0] / name, corpus)
    return corpus / "config.json", corpus / "hierarchy.json"


def test_a_malformed_hierarchy_exits_3_naming_it(corpus_dir, tmp_path, capsys):
    config, path = _ontology_inputs(corpus_dir, tmp_path)
    original = path.read_text()

    def edit(change):
        doc = json.loads(original)
        change(doc["categories"][0], doc["categories"][0]["subcategories"][0])
        return doc

    mutations = {
        "truncated": original[: len(original) // 2],
        "empty": "",
        "list root": [],
        "null root": None,
        "no categories": {},
        "categories null": {"categories": None},
        "a category not an object": {"categories": [1]},
        "a category name null": edit(lambda cat, sub: cat.update(name=None)),
        "subcategories null": edit(lambda cat, sub: cat.update(subcategories=None)),
        "events a string": edit(lambda cat, sub: sub.update(events="abc")),
        "an event not an object": edit(lambda cat, sub: sub["events"].append(1)),
        "article_names a string": edit(lambda cat, sub: sub["events"][0].update(article_names="abc")),
        "visually_detectable null": edit(lambda cat, sub: sub["events"][0].update(visually_detectable=None)),
    }
    for name, bad in mutations.items():
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        assert run_cli("ontology", "--store", tmp_path / "store", "--config", config) == 3, name
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err, name
    path.write_text(original)
    assert run_cli("ontology", "--store", tmp_path / "store", "--config", config) == 0


def test_a_config_field_of_the_wrong_type_exits_3_naming_it(corpus_dir, tmp_path, capsys):
    path, _ = _ontology_inputs(corpus_dir, tmp_path)
    original = json.loads(path.read_text())
    for key, value in (
        ("s", "x"), ("s", True), ("channels", "abc"), ("channels", ["gray-patch", 2]),
        ("codebook_k", "64"), ("base_seed", 1.5), ("gamma", "0.1"), ("embeddings", 3),
    ):
        path.write_text(json.dumps({**original, key: value}))
        assert run_cli("ontology", "--store", tmp_path / "store", "--config", path) == 3, key
        err = capsys.readouterr().err
        assert f"{path}: {key} must be" in err, key
    path.write_text(json.dumps({**original, "gamma": 1, "embeddings": None}))  # an int for a float
    assert run_cli("ontology", "--store", tmp_path / "store", "--config", path) == 0


def test_a_selection_naming_another_concept_exits_3(full_store, corpus_dir, tmp_path, capsys):
    config = corpus_dir[0] / "config.json"
    verdicts = full_store.read_json("reports/visualness.json")
    first, second = sorted(c for c, v in verdicts.items() if v["passed"])[:2]
    store = tmp_path / "store"
    shutil.copytree(full_store.root, store)
    # a well-formed selection, filed under the wrong concept
    shutil.copyfile(store / f"selections/{second}.json", store / f"selections/{first}.json")
    assert run_cli("train", "--store", store, "--config", config) == 3
    err = capsys.readouterr().err
    assert str(store / f"selections/{first}.json") in err and second in err


def test_forcing_a_stage_under_the_same_config_keeps_the_ledger(
    full_store, corpus_dir, tmp_path, capsys
):
    store = tmp_path / "store"
    shutil.copytree(full_store.root, store)
    before = _snapshot(store)
    config = corpus_dir[0] / "config.json"
    assert run_cli("recount", "--store", store, "--config", config, "--force") == 0
    assert not _changed(before, _snapshot(store))


def test_full_run_marks_every_stage(full_store, corpus_config):
    manifest = full_store.read_manifest()
    assert set(manifest["stages"]) == set(STAGES)
    for record in manifest["stages"].values():
        assert record["config_hash"] == corpus_config.config_hash


def test_discovery_found_the_planted_concepts(full_store, corpus_dir):
    _, truth = corpus_dir
    doc = full_store.read_json("candidates.json")
    names = {c["name"] for c in doc["candidates"]}
    planted = {c["name"] for c in truth["concepts"]}
    assert planted <= names
    # noise words are either cleansed away or too rare to pass the gate later
    assert "dsc" not in names
    assert "the" not in names


def test_eval_report_structure(full_store):
    doc = full_store.read_json("reports/eval.json")
    assert set(doc) == {"zero_shot", "supervised"}
    for side in doc.values():
        aps = side["per_event_ap"]
        assert len(aps) == 4
        for ap in aps.values():
            assert 0.0 <= ap <= 1.0
        assert side["map"] == pytest.approx(sum(aps.values()) / len(aps))


def test_retrieval_reports_cover_the_test_split(full_store, corpus_dir):
    _, truth = corpus_dir
    test_videos = set(truth["videos"]["test"])
    manifest = full_store.read_manifest()["stages"]
    assert "retrieve" in manifest
    tree_doc = json.loads(full_store.path("ontology.json").read_text())
    event_ids = sorted(
        n["id"] for n in tree_doc["nodes"] if n["layer"] == "event"
    )
    for event_id in event_ids:
        doc = full_store.read_json(f"reports/retrieval/{event_id}.json")
        assert set(doc["ordering"]) == test_videos
        assert doc["n"] == len(test_videos)
        assert doc["d"] == len(doc["concepts_used"]) > 0


def test_recount_report_names_top_concepts(full_store, corpus_dir):
    _, truth = corpus_dir
    doc = full_store.read_json("reports/recount.json")
    assert set(doc) == set(truth["videos"]["test"])
    concept_names = {c["name"] for c in truth["concepts"]}
    for rows in doc.values():
        assert 0 < len(rows) <= 5
        scores = [s for _, s in rows]
        assert scores == sorted(scores, reverse=True)
        for name, _ in rows:
            assert name in concept_names


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_cli_fixture_and_stage_subset(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run_cli("fixture", "--out", out, "--seed", "1") == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted["queries"] and emitted["train_videos"] == 80

    store = tmp_path / "store"
    code = run_cli(
        "run",
        "--store", store,
        "--config", out / "config.json",
        "--stages", "discover,ontology",
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.index('"stage": "ontology"') < stdout.index('"stage": "discover"')
    manifest = json.loads((store / "manifest.json").read_text())
    assert set(manifest["stages"]) == {"ontology", "discover"}


def test_cli_error_exit_codes(tmp_path, capsys):
    out = tmp_path / "corpus"
    run_cli("fixture", "--out", out)
    capsys.readouterr()
    store = tmp_path / "store"
    config = out / "config.json"

    # precondition failure: stage run before its upstream
    assert run_cli("train", "--store", store, "--config", config) == 2
    assert "missing upstream" in capsys.readouterr().err

    # precondition failure: unknown stage name in a run subset
    code = run_cli(
        "run", "--store", store, "--config", config, "--stages", "ontology,polish"
    )
    assert code == 2
    assert "unknown stages" in capsys.readouterr().err

    # malformed data
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert run_cli("ontology", "--store", store, "--config", bad) == 3
    assert "error" in capsys.readouterr().err


def test_cli_seed_override_changes_the_hash(tmp_path, capsys):
    out = tmp_path / "corpus"
    run_cli("fixture", "--out", out)
    store = tmp_path / "store"
    config = out / "config.json"
    assert run_cli("ontology", "--store", store, "--config", config) == 0
    assert (
        run_cli("ontology", "--store", store, "--config", config, "--seed", "5") == 2
    )
    err = capsys.readouterr().err
    assert "use --force" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_a_worker_count_below_one_is_rejected(corpus_config, tmp_path, capsys, count):
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exit_info:
        run_cli("run", "--store", store, "--config", "unused.json", "--workers", count)
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err
    with pytest.raises(PreconditionError, match="workers must be at least 1"):
        run_stage("ontology", corpus_config, store, workers=int(count))
    with pytest.raises(PreconditionError, match="workers must be at least 1"):
        run_all(corpus_config, store, workers=int(count))
    assert not store.exists()
