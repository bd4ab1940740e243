from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conceptbank.corpus import Lexicon
from conceptbank.errors import DataFormatError, PreconditionError
from conceptbank.semmatch import (
    QueryPlan,
    SimilarityProvider,
    hierarchical_sim,
    load_embeddings,
    load_word_pairs,
    phrase_sim,
    plan_from_dict,
    plan_to_dict,
    select_concepts,
)

from conftest import small_tree

LEX = Lexicon(stopwords=frozenset({"a", "the"}), lemma_map={"grooming": "groom"})


def provider(pairs=None, embeddings=None):
    return SimilarityProvider(
        word_pairs=pairs or {}, embeddings=embeddings or {}, lexicon=LEX
    )


def test_word_similarity_lookup_order():
    p = provider(
        pairs={("dog", "cat"): 0.6, ("zebra", "ant"): 1.7, ("neg", "pair"): -0.5},
        embeddings={"sun": np.array([1.0, 0.0]), "moon": np.array([1.0, 1.0])},
    )
    assert p.word_sim("anything", "anything") == 1.0
    assert p.word_sim("dog", "cat") == 0.6
    assert p.word_sim("cat", "dog") == 0.6  # symmetric key normalization
    assert p.word_sim("ant", "zebra") == 1.0  # clamped into [0, 1]
    assert p.word_sim("pair", "neg") == 0.0
    assert p.word_sim("sun", "moon") == pytest.approx(np.sqrt(0.5))
    assert p.word_sim("sun", "unseen") == 0.0


def test_embedding_cosine_is_clamped():
    p = provider(
        embeddings={"up": np.array([0.0, 1.0]), "down": np.array([0.0, -1.0])}
    )
    assert p.word_sim("up", "down") == 0.0
    zero = provider(embeddings={"a0": np.zeros(2), "b0": np.ones(2)})
    assert zero.word_sim("a0", "b0") == 0.0


def test_phrase_similarity_takes_best_token_pair():
    p = provider(pairs={("brush", "groom"): 0.7, ("brush", "dog"): 0.4})
    assert phrase_sim("grooming a dog", "brush", p) == 0.7
    assert phrase_sim("the dog", "brush", p) == 0.4
    with pytest.raises(PreconditionError, match="no content tokens"):
        phrase_sim("the a", "brush", p)


def chain_tree():
    return small_tree(
        events=["dog grooming"], concepts={"dog grooming": ["brush"]}
    )


def chain_provider(concept_s, event_s, sub_s, cat_s):
    # one similarity knob per ancestor-chain level for the query "wash"
    return provider(
        pairs={
            ("brush", "wash"): concept_s,
            ("grooming", "wash"): event_s,  # "dog grooming" lemmatizes dog, groom
            ("dog", "wash"): 0.0,
            ("groom", "wash"): event_s,
            ("animal", "wash"): sub_s,
            ("care", "wash"): 0.0,
            ("pets", "wash"): cat_s,
            ("animals", "wash"): 0.0,
        }
    )


def concept_of(tree, name="brush"):
    return next(c for c in tree.concept_leaves() if c.name == name)


def test_hierarchical_similarity_is_the_chain_product():
    tree = chain_tree()
    cid = concept_of(tree).id
    s = hierarchical_sim("wash", cid, tree, chain_provider(0.8, 1.0, 1.0, 0.7))
    assert s == 0.8 * 1.0 * 1.0 * 0.7
    s = hierarchical_sim("wash", cid, tree, chain_provider(0.5, 0.5, 0.5, 0.5))
    assert s == pytest.approx(0.0625)


def test_zero_anywhere_in_the_chain_annihilates():
    tree = chain_tree()
    cid = concept_of(tree).id
    for level in range(4):
        knobs = [0.9, 0.9, 0.9, 0.9]
        knobs[level] = 0.0
        assert hierarchical_sim("wash", cid, tree, chain_provider(*knobs)) == 0.0


def test_hierarchical_sim_rejects_non_concept_nodes():
    tree = chain_tree()
    event = tree.event_by_name("dog grooming")
    with pytest.raises(PreconditionError, match="concept layer"):
        hierarchical_sim("wash", event.id, tree, provider())


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_chain_score_bounded_by_weakest_link(a, b, c):
    tree = chain_tree()
    cid = concept_of(tree).id
    s = hierarchical_sim("wash", cid, tree, chain_provider(a, b, c, 1.0))
    assert s <= min(a, b, c) + 1e-12
    assert 0.0 <= s <= 1.0


def test_select_concepts_ranks_and_truncates():
    tree = small_tree(
        events=["dog grooming", "cat feeding"],
        concepts={"dog grooming": ["brush", "towel"], "cat feeding": ["towel"]},
    )
    # same-name "towel" leaves under the two events score differently
    p = provider(
        pairs={
            ("brush", "wash"): 0.9,
            ("towel", "wash"): 0.8,
            ("groom", "wash"): 1.0,
            ("grooming", "wash"): 1.0,
            ("dog", "wash"): 1.0,
            ("cat", "wash"): 0.5,
            ("feeding", "wash"): 0.5,
            ("animal", "wash"): 1.0,
            ("care", "wash"): 1.0,
            ("pets", "wash"): 1.0,
            ("animals", "wash"): 1.0,
        }
    )
    plan = select_concepts("wash", tree, p, n=10)
    names = [tree.node(cid).name for cid in plan.concept_ids]
    scores = [s for _, s in plan.selections]
    assert names == ["brush", "towel", "towel"]
    assert scores == pytest.approx([0.9, 0.8, 0.4])
    assert tree.node(plan.concept_ids[1]).parent == tree.event_by_name("dog grooming").id

    top = select_concepts("wash", tree, p, n=2)
    assert top.concept_ids == plan.concept_ids[:2]
    assert top.n == 2


def test_select_concepts_all_zero_still_totally_ordered():
    tree = small_tree(
        events=["cat feeding", "dog grooming"],
        concepts={"dog grooming": ["brush"], "cat feeding": ["bowl"]},
    )
    plan = select_concepts("wash", tree, provider(), n=5)
    assert [s for _, s in plan.selections] == [0.0, 0.0]
    names = [tree.node(cid).name for cid in plan.concept_ids]
    assert names == ["bowl", "brush"]  # event-name order breaks the tie


def test_select_concepts_requires_leaves():
    with pytest.raises(PreconditionError, match="no concept leaves"):
        select_concepts("wash", small_tree(), provider())


def test_scaling_every_pair_preserves_the_ranking():
    tree = small_tree(
        events=["dog grooming"], concepts={"dog grooming": ["brush", "towel", "rope"]}
    )
    base = {
        ("brush", "wash"): 0.9,
        ("towel", "wash"): 0.6,
        ("rope", "wash"): 0.3,
        ("groom", "wash"): 0.8,
        ("grooming", "wash"): 0.8,
        ("dog", "wash"): 0.1,
        ("animal", "wash"): 0.7,
        ("care", "wash"): 0.2,
        ("pets", "wash"): 0.5,
        ("animals", "wash"): 0.1,
    }
    half = {k: v * 0.5 for k, v in base.items()}
    a = select_concepts("wash", tree, provider(pairs=base))
    b = select_concepts("wash", tree, provider(pairs=half))
    assert a.concept_ids == b.concept_ids


def test_plan_round_trip():
    plan = QueryPlan(query="wash", selections=[("con-1", 0.5), ("con-0", 0.25)], n=7)
    clone = plan_from_dict(plan_to_dict(plan))
    assert clone == plan
    assert clone.concept_ids == ["con-1", "con-0"]


def _without_n(doc):
    del doc["n"]


@pytest.mark.parametrize(
    "edit",
    [
        _without_n,
        lambda doc: doc.update(query=7),
        lambda doc: doc.update(n="7"),
        lambda doc: doc.update(n=7.0),
        lambda doc: doc.update(n=True),
        lambda doc: doc.update(selections=3),
        lambda doc: doc.update(selections={"con-1": 0.5}),
        lambda doc: doc.update(selections=[["con-1", 0.5]]),
        lambda doc: doc["selections"][0].update(concept_id=1),
        lambda doc: doc["selections"][0].update(score="0.5"),
        lambda doc: doc["selections"][0].pop("score"),
    ],
)
def test_plan_loader_rejects_missing_or_mistyped_keys(edit):
    doc = plan_to_dict(QueryPlan(query="wash", selections=[("con-1", 0.5)], n=7))
    edit(doc)
    with pytest.raises(DataFormatError, match="malformed query plan plans/evt.json"):
        plan_from_dict(doc, source="plans/evt.json")
    with pytest.raises(DataFormatError, match="malformed query plan"):
        plan_from_dict([doc])


def test_word_pair_table_parsing(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("# comment\ndog\tcat\t0.6\n\nsun\tmoon\t0.25\n", encoding="utf-8")
    assert load_word_pairs(path) == {("dog", "cat"): 0.6, ("sun", "moon"): 0.25}
    path.write_text("dog\tcat\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="3 columns"):
        load_word_pairs(path)
    path.write_text("dog\tcat\tnot-a-float\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="bad similarity"):
        load_word_pairs(path)
    with pytest.raises(DataFormatError, match="cannot read"):
        load_word_pairs(tmp_path / "absent.tsv")


def test_embedding_table_parsing(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("dog 1.0 0.0\ncat 0.5 0.5\n", encoding="utf-8")
    table = load_embeddings(path)
    assert set(table) == {"dog", "cat"}
    assert np.array_equal(table["dog"], [1.0, 0.0])
    path.write_text("dog 1.0 0.0\ncat 0.5\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="dimension"):
        load_embeddings(path)
    path.write_text("dog x y\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="bad component"):
        load_embeddings(path)
