"""Shared fixtures: one synthetic corpus and one fully-run model store,
built once per session, plus small builders used across test files."""

from __future__ import annotations

import pytest

from conceptbank.config import PipelineConfig
from conceptbank.fixture import generate_fixture
from conceptbank.ontology import ConceptBankTree, load_hierarchy
from conceptbank.pipeline import run_all
from conceptbank.store import ModelStore


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    truth = generate_fixture(root, seed=0)
    return root, truth


@pytest.fixture(scope="session")
def corpus_config(corpus_dir) -> PipelineConfig:
    root, _ = corpus_dir
    return PipelineConfig.from_file(root / "config.json")


@pytest.fixture(scope="session")
def full_store(corpus_config, tmp_path_factory) -> ModelStore:
    """The whole pipeline run once on the session corpus."""
    store_root = tmp_path_factory.mktemp("store")
    run_all(corpus_config, store_root)
    return ModelStore(store_root)


def small_tree(events=None, concepts=None) -> ConceptBankTree:
    """A one-category tree with optional concepts attached per event.

    events: list of (event name, detectable) or plain names; concepts:
    mapping event name -> list of concept names.
    """
    events = events or [("dog grooming", True)]
    entries = []
    for entry in events:
        name, detectable = entry if isinstance(entry, tuple) else (entry, True)
        entries.append(
            {"name": name, "visually_detectable": detectable, "article_names": [name]}
        )
    tree = load_hierarchy(
        {
            "categories": [
                {
                    "name": "pets and animals",
                    "subcategories": [{"name": "animal care", "events": entries}],
                }
            ]
        }
    )
    for event_name, names in (concepts or {}).items():
        tree.attach_concepts(tree.event_by_name(event_name).id, names)
    return tree
