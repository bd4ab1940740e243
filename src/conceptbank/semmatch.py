"""Query-to-concept semantic matching through the ontology hierarchy.

A concept's relevance to an event query is the product of phrase
similarities between the query and the concept name plus its three
ancestors (event, subcategory, category). The product rewards concepts
whose whole ancestor chain is coherent with the query, which is what
disambiguates "brush" under "dog grooming" from "brush" under
"personal makeup".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Lexicon, _text_lines
from .errors import DataFormatError, PreconditionError
from .ontology import ConceptBankTree


@dataclass
class SimilarityProvider:
    """Word-pair similarity lookup with an optional embedding fallback.

    Lookup order per (lemmatized) word pair: identical words are 1.0, then
    the symmetric pair table, then cosine similarity of embeddings clamped
    to [0, 1]; anything else is 0. Phrases are normalized with the same
    tokenizer/lemma table as corpus tags.
    """

    word_pairs: dict[tuple[str, str], float] = field(default_factory=dict)
    embeddings: dict[str, np.ndarray] = field(default_factory=dict)
    lexicon: Lexicon = field(default_factory=Lexicon)

    def __post_init__(self):
        normalized = {}
        for (a, b), value in self.word_pairs.items():
            key = (a, b) if a <= b else (b, a)
            normalized[key] = min(1.0, max(0.0, float(value)))
        self.word_pairs = normalized

    def word_sim(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        key = (a, b) if a <= b else (b, a)
        if key in self.word_pairs:
            return self.word_pairs[key]
        va = self.embeddings.get(a)
        vb = self.embeddings.get(b)
        if va is not None and vb is not None:
            na = float(np.linalg.norm(va))
            nb = float(np.linalg.norm(vb))
            if na > 0 and nb > 0:
                cos = float(np.dot(va, vb)) / (na * nb)
                return min(1.0, max(0.0, cos))
        return 0.0

    def phrase_tokens(self, phrase: str) -> list[str]:
        return self.lexicon.content_tokens(phrase)


def phrase_sim(a: str, b: str, provider: SimilarityProvider) -> float:
    """Maximum word-pair similarity over the cross product of the two
    phrases' content tokens."""
    tokens_a = provider.phrase_tokens(a)
    tokens_b = provider.phrase_tokens(b)
    if not tokens_a or not tokens_b:
        raise PreconditionError(
            f"phrase has no content tokens: {(a if not tokens_a else b)!r}"
        )
    return max(provider.word_sim(ta, tb) for ta in tokens_a for tb in tokens_b)


def hierarchical_sim(
    event_text: str,
    concept_id: str,
    tree: ConceptBankTree,
    provider: SimilarityProvider,
) -> float:
    """Product of phrase similarities between the query and the concept
    plus its (event, subcategory, category) ancestors."""
    concept = tree.node(concept_id)
    if concept.layer != "concept":
        raise PreconditionError(f"node not at concept layer: {concept_id}")
    event, subcategory, category = tree.ancestors(concept_id)
    score = 1.0
    for node in (concept, event, subcategory, category):
        score *= phrase_sim(event_text, node.name, provider)
        if score == 0.0:
            return 0.0
    return score


@dataclass
class QueryPlan:
    """Ranked relevant concepts for one event query."""

    query: str
    selections: list[tuple[str, float]]
    n: int

    @property
    def concept_ids(self) -> list[str]:
        return [cid for cid, _ in self.selections]


def select_concepts(
    event_text: str,
    tree: ConceptBankTree,
    provider: SimilarityProvider,
    n: int = 100,
) -> QueryPlan:
    """Score every concept leaf and keep the n most relevant.

    Ties break on (event name, concept name) so the selection is a total
    order. Duplicate concept names under different events stay distinct:
    their ancestor chains differ, and so may their scores.
    """
    leaves = tree.concept_leaves()
    if not leaves:
        raise PreconditionError("tree has no concept leaves")
    scored = []
    for leaf in leaves:
        s = hierarchical_sim(event_text, leaf.id, tree, provider)
        event_name = tree.node(leaf.parent).name
        scored.append((-s, event_name, leaf.name, leaf.id, s))
    scored.sort(key=lambda row: row[:4])
    selections = [(leaf_id, s) for _, _, _, leaf_id, s in scored[:n]]
    return QueryPlan(query=event_text, selections=selections, n=n)


def plan_to_dict(plan: QueryPlan) -> dict:
    return {
        "query": plan.query,
        "n": plan.n,
        "selections": [
            {"concept_id": cid, "score": float(s)} for cid, s in plan.selections
        ],
    }


def plan_from_dict(doc: dict, source: str = "plan") -> QueryPlan:
    """Inverse of plan_to_dict; DataFormatError naming source if malformed."""
    try:
        sel = [(e["concept_id"], e["score"]) for e in doc["selections"]]
        ok = isinstance(doc["query"], str) and type(doc["n"]) is int
        ok = ok and all(isinstance(c, str) and type(s) in (int, float) for c, s in sel)
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise DataFormatError(f"malformed query plan {source}: missing or wrong-typed key")
    return QueryPlan(query=doc["query"], selections=[(c, float(s)) for c, s in sel], n=doc["n"])


def load_word_pairs(path: str | Path) -> dict[tuple[str, str], float]:
    """Word-pair table: TSV rows of word<TAB>word<TAB>similarity."""
    pairs: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(_text_lines(path, "word-pair table"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(f"word pairs {path} line {lineno}: expected 3 columns")
        try:
            value = float(parts[2])
        except ValueError:
            raise DataFormatError(
                f"word pairs {path} line {lineno}: bad similarity {parts[2]!r}"
            ) from None
        if math.isnan(value):
            raise DataFormatError(f"word pairs {path} line {lineno}: NaN similarity")
        pairs[(parts[0], parts[1])] = value
    return pairs


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Embedding table: one line per word, word then float components."""
    table: dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(_text_lines(path, "embedding table"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 2:
            raise DataFormatError(f"embeddings {path} line {lineno}: word plus components")
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise DataFormatError(f"embeddings {path} line {lineno}: bad component") from None
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DataFormatError(
                f"embeddings {path} line {lineno}: dimension {vec.size} != {dim}"
            )
        table[parts[0]] = vec
    return table
