"""Five-layer tree ontology: root, category, subcategory, event, concept.

The first four layers come from a hierarchy document (UTF-8 JSON); they are
all that a store's ontology.json holds. Concept leaves are attached per event
in memory: tag discovery attaches candidates to number them, and the pipeline
re-attaches them under those ids and prunes those verification rejected.
Events carry a visually_detectable flag that gates concept discovery and a
list of article names used as corpus query keys.

A tree is immutable once built; reads need no locking. Attaching/pruning
concepts is single-writer.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataFormatError, PreconditionError

LAYERS = ("root", "category", "subcategory", "event", "concept")
LAYER_DEPTH = {name: depth for depth, name in enumerate(LAYERS)}


@dataclass
class OntologyNode:
    id: str
    name: str
    layer: str
    parent: str | None = None
    children: list[str] = field(default_factory=list)
    # Only meaningful at the event layer:
    visually_detectable: bool = True
    article_names: list[str] = field(default_factory=list)


class ConceptBankTree:
    """Id-indexed node collection rooted at a single root node.

    Children are kept in input order and every iteration follows stored
    order, so identical documents always produce identical trees.
    """

    def __init__(self):
        self.nodes: dict[str, OntologyNode] = {}
        self.root_id = "root"
        self._concept_counter = 0
        root = OntologyNode(id="root", name="root", layer="root")
        self.nodes["root"] = root

    # -- basic access -----------------------------------------------------

    def node(self, node_id: str) -> OntologyNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise PreconditionError(f"node not found: {node_id}") from None

    def iter_layer(self, layer: str) -> Iterator[OntologyNode]:
        if layer not in LAYER_DEPTH:
            raise PreconditionError(f"unknown layer: {layer}")
        for node in self.nodes.values():
            if node.layer == layer:
                yield node

    def layer_counts(self) -> dict[str, int]:
        counts = {layer: 0 for layer in LAYERS}
        for node in self.nodes.values():
            counts[node.layer] += 1
        return counts

    def events(self, detectable_only: bool = False) -> list[OntologyNode]:
        nodes = self.iter_layer("event")
        return [n for n in nodes if n.visually_detectable or not detectable_only]

    def event_by_name(self, name: str) -> OntologyNode:
        for node in self.iter_layer("event"):
            if node.name == name:
                return node
        raise PreconditionError(f"unknown event: {name}")

    def concept_leaves(self) -> list[OntologyNode]:
        return list(self.iter_layer("concept"))

    # -- construction -----------------------------------------------------

    def _add(self, node: OntologyNode) -> None:
        if node.id in self.nodes:
            raise DataFormatError(f"duplicate node id: {node.id}")
        parent = self.node(node.parent)
        if LAYER_DEPTH[node.layer] != LAYER_DEPTH[parent.layer] + 1:
            raise DataFormatError(
                f"child layer {node.layer} not parent layer {parent.layer} + 1"
            )
        self.nodes[node.id] = node
        parent.children.append(node.id)

    def attach_concepts(self, event_id: str, concepts: Iterable[str]) -> list[str]:
        """Attach one concept leaf per new name under an event.

        Names are deduplicated within the event (existing leaves included);
        the same name under a different event makes a distinct leaf. Returns
        the ids of leaves created, in input order.
        """
        event = self.node(event_id)
        if event.layer != "event":
            raise PreconditionError(
                f"attach target {event_id} is at layer {event.layer}, not event"
            )
        if not event.visually_detectable:
            raise PreconditionError(
                f"event {event.name!r} is excluded from concept discovery"
            )
        existing = {self.nodes[c].name for c in event.children}
        created = []
        for name in concepts:
            if name in existing:
                continue
            existing.add(name)
            node_id = f"con-{self._concept_counter:05d}"
            self._concept_counter += 1
            leaf = OntologyNode(id=node_id, name=name, layer="concept", parent=event_id)
            self.nodes[node_id] = leaf
            event.children.append(node_id)
            created.append(node_id)
        return created

    def prune_concept(self, concept_id: str) -> None:
        """Remove a concept leaf (used when visualness verification fails)."""
        node = self.node(concept_id)
        if node.layer != "concept":
            raise PreconditionError(f"node not at concept layer: {concept_id}")
        self.nodes[node.parent].children.remove(concept_id)
        del self.nodes[concept_id]

    # -- queries ----------------------------------------------------------

    def ancestors(self, concept_id: str) -> tuple[OntologyNode, OntologyNode, OntologyNode]:
        """The (event, subcategory, category) chain above a concept leaf."""
        node = self.node(concept_id)
        if node.layer != "concept":
            raise PreconditionError(f"node not at concept layer: {concept_id}")
        event = self.node(node.parent)
        subcategory = self.node(event.parent)
        category = self.node(subcategory.parent)
        return event, subcategory, category

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        nodes = []
        for node in self.nodes.values():
            entry = {
                "id": node.id,
                "name": node.name,
                "layer": node.layer,
                "parent": node.parent,
                "children": node.children,
            }
            if node.layer == "event":
                entry["visually_detectable"] = node.visually_detectable
                entry["article_names"] = node.article_names
            nodes.append(entry)
        doc = {
            "root_id": self.root_id,
            "concept_counter": self._concept_counter,
            "nodes": nodes,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ConceptBankTree":
        tree = cls.__new__(cls)
        try:
            doc = json.loads(text)
            if type(doc) is not dict:
                raise TypeError("not a JSON object")
            tree.root_id = doc["root_id"]
            tree._concept_counter = doc.get("concept_counter", 0)
            if type(tree.root_id) is not str or type(tree._concept_counter) is not int:
                raise TypeError("root_id must be a str and concept_counter an int")
            if type(doc["nodes"]) is not list:
                raise TypeError("nodes must be a list")
            tree.nodes = {node.id: node for node in map(_node_from_json, doc["nodes"])}
        except KeyError as exc:
            raise DataFormatError(f"bad tree manifest, no key {exc}") from None
        except (TypeError, ValueError) as exc:  # ValueError covers bad JSON
            raise DataFormatError(f"bad tree manifest, {exc}") from None
        if tree.root_id not in tree.nodes:
            raise DataFormatError("tree manifest missing root node")
        tree.validate()
        return tree

    def validate(self) -> None:
        """Check the structural invariants; raise DataFormatError on breakage."""
        root = self.nodes.get(self.root_id)
        if root is None or root.parent is not None or root.layer != "root":
            raise DataFormatError("malformed root node")
        seen = set()
        stack = [self.root_id]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise DataFormatError(f"cycle or duplicate reachability at {nid}")
            seen.add(nid)
            node = self.nodes.get(nid)
            if node is None:
                raise DataFormatError(f"dangling child reference: {nid}")
            for child_id in node.children:
                child = self.nodes.get(child_id)
                if child is None:
                    raise DataFormatError(f"dangling child reference: {child_id}")
                if child.parent != nid:
                    raise DataFormatError(f"parent mismatch at {child_id}")
                if LAYER_DEPTH[child.layer] != LAYER_DEPTH[node.layer] + 1:
                    raise DataFormatError(
                        f"child layer {child.layer} not parent layer {node.layer} + 1"
                    )
                stack.append(child_id)
        if seen != set(self.nodes):
            unreachable = sorted(set(self.nodes) - seen)
            raise DataFormatError(f"unreachable nodes: {unreachable[:5]}")
        for node in self.nodes.values():
            if node.layer == "concept" and node.children:
                raise DataFormatError(f"concept leaf {node.id} has children")


def _node_from_json(entry: dict) -> OntologyNode:
    node = OntologyNode(
        id=entry["id"],
        name=entry["name"],
        layer=entry["layer"],
        parent=entry["parent"],
        children=entry["children"],
        visually_detectable=entry.get("visually_detectable", True),
        article_names=entry.get("article_names", []),
    )
    if not (
        type(node.children) is list and type(node.article_names) is list
        and all(type(s) is str for s in (node.id, node.name, *node.children, *node.article_names))
        and node.layer in LAYERS and isinstance(node.parent, (str, type(None)))
        and type(node.visually_detectable) is bool
    ):
        raise TypeError(f"malformed node {node.id!r}")
    return node


def load_hierarchy(source: str | Path | dict) -> ConceptBankTree:
    """Build layers 0-3 of the tree from a hierarchy document.

    The document is JSON of the shape
    {"categories": [{"name", "subcategories": [{"name", "events":
    [{"name", "visually_detectable", "article_names": [...]}]}]}]},
    names non-empty strings, visually_detectable a bool and
    article_names a non-empty list of strings. Event names are treated as
    unique keys; duplicates are rejected. A document that breaks this
    raises DataFormatError, prefixed with the file's path when read from
    one.
    """
    if not isinstance(source, (str, Path)):
        return _hierarchy(source)
    try:
        return _hierarchy(json.loads(Path(source).read_text(encoding="utf-8")))
    except OSError as exc:
        raise DataFormatError(f"cannot read hierarchy document {source}: {exc}") from exc
    except (DataFormatError, ValueError) as exc:  # ValueError covers bad JSON and UTF-8
        raise DataFormatError(f"{source}: {exc}") from None


def _hierarchy(doc) -> ConceptBankTree:
    if not isinstance(doc, dict) or "categories" not in doc:
        raise DataFormatError("hierarchy document missing 'categories'")
    tree = ConceptBankTree()
    categories: set[str] = set()
    events: set[str] = set()
    sub_ids = itertools.count()
    for cat in _entries(doc, "categories", "hierarchy document"):
        cat_name = _require(cat, "name", "category")
        if cat_name in categories:
            raise DataFormatError(f"duplicate category name: {cat_name!r}")
        cat_id = f"cat-{len(categories):03d}"
        categories.add(cat_name)
        tree._add(OntologyNode(id=cat_id, name=cat_name, layer="category", parent="root"))
        subs: set[str] = set()
        for sub in _entries(cat, "subcategories", f"category {cat_name!r}"):
            sub_name = _require(sub, "name", "subcategory")
            if sub_name in subs:
                raise DataFormatError(f"duplicate subcategory {sub_name!r} under {cat_name!r}")
            subs.add(sub_name)
            sub_id = f"sub-{next(sub_ids):04d}"
            tree._add(OntologyNode(id=sub_id, name=sub_name, layer="subcategory", parent=cat_id))
            for evt in _entries(sub, "events", f"subcategory {sub_name!r}"):
                evt_name = _require(evt, "name", "event")
                if evt_name in events:
                    raise DataFormatError(f"duplicate event name: {evt_name!r}")
                detectable, articles = evt.get("visually_detectable"), evt.get("article_names")
                if type(detectable) is not bool:
                    raise DataFormatError(f"event {evt_name!r} needs a bool visually_detectable flag")
                if type(articles) is not list or not articles or any(type(a) is not str for a in articles):
                    raise DataFormatError(f"event {evt_name!r} has no list of article names")
                tree._add(OntologyNode(
                    id=f"evt-{len(events):04d}", name=evt_name, layer="event", parent=sub_id,
                    visually_detectable=detectable, article_names=list(articles),
                ))
                events.add(evt_name)
    tree.validate()
    return tree


def _entries(entry: dict, key: str, what: str) -> list[dict]:
    """entry[key], a list of objects; an absent key reads as no entries."""
    value = entry.get(key, [])
    if type(value) is not list or not all(isinstance(e, dict) for e in value):
        raise DataFormatError(f"{what}: {key} must be a list of objects")
    return value


def _require(entry: dict, key: str, what: str) -> str:
    value = entry.get(key)
    if not value or not isinstance(value, str):
        raise DataFormatError(f"{what} entry missing {key!r}")
    return value
