"""End-to-end acceptance gates.

Every test prints one scorecard line (criterion N: pass/FAIL plus the
measured numbers) so a plain pytest run shows the acceptance status at a
glance. Tolerances and budgets are stated inline next to each assertion.
"""

from __future__ import annotations

import dataclasses
import filecmp
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conceptbank.config import PipelineConfig
from conceptbank.corpus import Lexicon
from conceptbank.detect import DetectorTrainingProblem, train_mklsvm, verify_visualness
from conceptbank.encode import (
    PYRAMID_BLOCKS,
    Codebook,
    DescriptorBlock,
    encode_image,
)
from conceptbank.fixture import generate_fixture
from conceptbank.formats import read_cbvr
from conceptbank.metrics import LabeledRanking, average_precision
from conceptbank.ontology import load_hierarchy
from conceptbank.pipeline import STAGES, run_all
from conceptbank.retrieve import RankList, fuse, rank_list_from_scores
from conceptbank.select import ConceptImagePool, kde_confidences
from conceptbank.semmatch import SimilarityProvider, hierarchical_sim

from oracles import ap_precision_at_k, fusion_formula, kde_triple_loop, kkt_residual, qp_minimum


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number:2d}: {'pass' if ok else 'FAIL'} - {detail}")


# -- 1: detector solver against an exhaustive QP oracle ------------------


def test_criterion_01_solver_matches_exhaustive_qp(capsys):
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_obj = 0.0
    worst_kkt = 0.0
    solved = 0
    while solved < 200:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y == y[0]):
            continue
        grams = []
        for _ in range(m):
            x = rng.normal(size=(n, int(rng.integers(1, 5))))
            grams.append(x @ x.T)
        beta = rng.dirichlet(np.ones(m))
        combined = sum(w * g for w, g in zip(beta, grams))
        c = float(rng.choice([0.5, 1.0, 10.0]))
        gamma = float(rng.choice([0.0, 0.01, 0.1]))
        problem = DetectorTrainingProblem(
            gram=[combined], labels=y, C=c, gamma=gamma
        )
        model = train_mklsvm(problem, tol=1e-8)

        q = np.outer(y, y) * problem.gram[0] + gamma * np.eye(n)
        _, f_min = qp_minimum(q, y, c)
        worst_obj = max(worst_obj, abs(model.objective - (-f_min)))

        alpha = np.zeros(n)
        for row, sid in enumerate(model.support_ids):
            alpha[int(sid[1:])] = model.alpha[row]
        effective_kernel = problem.gram[0] + gamma * np.eye(n)
        worst_kkt = max(
            worst_kkt, kkt_residual(effective_kernel, y, alpha, model.bias, c)
        )
        solved += 1
    elapsed = time.perf_counter() - start
    ok = worst_obj <= 1e-6 and worst_kkt <= 1e-4 and elapsed < 30.0
    announce(
        capsys, 1, ok,
        f"200 problems, max objective gap {worst_obj:.2e} (<=1e-6), "
        f"max KKT residual {worst_kkt:.2e} (<=1e-4), {elapsed:.1f}s (<30s)",
    )
    assert worst_obj <= 1e-6
    assert worst_kkt <= 1e-4
    assert elapsed < 30.0


# -- 2: two-point problem closed form -------------------------------------


def test_criterion_02_two_point_closed_form(capsys):
    gram = [np.array([[1.0, -1.0], [-1.0, 1.0]])]
    labels = np.array([1.0, -1.0])
    results = {}
    for gamma in (0.0, 0.01):
        problem = DetectorTrainingProblem(gram=gram, labels=labels, C=10.0, gamma=gamma)
        model = train_mklsvm(problem, tol=1e-8)
        expect = 1.0 / (2.0 + gamma)
        results[gamma] = (
            float(np.abs(model.alpha - expect).max()),
            abs(model.bias),
            model.alpha.size,
        )
    ok = all(
        alpha_err <= 1e-4 and bias_err <= 1e-4 and count == 2
        for alpha_err, bias_err, count in results.values()
    )
    announce(
        capsys, 2, ok,
        "alpha gap {:.1e} (ridge off) / {:.1e} (ridge 0.01), both <=1e-4".format(
            results[0.0][0], results[0.01][0]
        ),
    )
    for gamma, (alpha_err, bias_err, count) in results.items():
        assert count == 2, f"gamma={gamma}: expected both points as support vectors"
        assert alpha_err <= 1e-4, f"gamma={gamma}"
        assert bias_err <= 1e-4, f"gamma={gamma}"


# -- 3: density confidences against a literal triple loop -----------------


def test_criterion_03_density_confidence_equivalence(capsys):
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        channels = {
            f"ch{j}": rng.normal(size=(n, int(rng.integers(1, 6)))) * 5.0
            for j in range(m)
        }
        pool = ConceptImagePool("con", [f"im-{i}" for i in range(n)], channels)
        got = kde_confidences(pool)
        want = kde_triple_loop(channels, pool.sigma)
        worst = max(worst, float(np.abs(got - want).max()))

    worked = kde_confidences(
        ConceptImagePool("con", ["im-0", "im-1", "im-2"], {"f": np.array([[0.0], [0.0], [10.0]])})
    )
    worked_ok = (
        round(worked[0], 4) == 0.7018
        and round(worked[1], 4) == 0.7018
        and round(worked[2], 4) == 0.4036
    )
    ok = worst <= 1e-9 and worked_ok
    announce(
        capsys, 3, ok,
        f"100 pools, max deviation {worst:.2e} (<=1e-9); "
        f"worked example {worked[0]:.4f}/{worked[2]:.4f} (0.7018/0.4036)",
    )
    assert worst <= 1e-9
    assert worked_ok


# -- 4: ancestor-chain similarity product ----------------------------------


def test_criterion_04_similarity_chain_product(capsys):
    tree = load_hierarchy(
        {
            "categories": [
                {
                    "name": "pets and animals",
                    "subcategories": [
                        {
                            "name": "animal care",
                            "events": [
                                {
                                    "name": "dog grooming",
                                    "visually_detectable": True,
                                    "article_names": ["dog grooming"],
                                }
                            ],
                        }
                    ],
                }
            ]
        }
    )
    event = tree.event_by_name("dog grooming")
    (cid,) = tree.attach_concepts(event.id, ["brush"])
    provider = SimilarityProvider(
        word_pairs={
            ("brush", "wash"): 0.8,
            ("grooming", "wash"): 1.0,
            ("dog", "wash"): 0.0,
            ("animal", "wash"): 1.0,
            ("care", "wash"): 0.0,
            ("pets", "wash"): 0.7,
            ("and", "wash"): 0.0,
            ("animals", "wash"): 0.0,
        },
        lexicon=Lexicon(),
    )
    s = hierarchical_sim("wash", cid, tree, provider)
    expected = 0.8 * 1.0 * 1.0 * 0.7
    ok = s == expected and abs(s - 0.56) <= 2e-16
    announce(
        capsys, 4, ok,
        f"chain 0.8*1*1*0.7 -> {s!r}, equals the float product exactly, "
        f"|S-0.56| = {abs(s - 0.56):.2e} (<=2e-16)",
    )
    assert s == expected
    assert abs(s - 0.56) <= 2e-16


# -- 5: rank fusion formula -------------------------------------------------


def _fusion_exact(orderings) -> bool:
    want_scores, want_order = fusion_formula([list(o) for o in orderings])
    got = fuse([RankList(f"c{j}", list(o)) for j, o in enumerate(orderings)])
    return got.ordering == want_order and all(
        got.scores[v] == want_scores[v] for v in want_scores
    )


def test_criterion_05_rank_fusion_formula(capsys):
    videos = "abcdefgh"
    checked = 0
    all_exact = True

    # exhaustive: every single list up to n=6
    for n in range(1, 7):
        for perm in itertools.permutations(videos[:n]):
            all_exact &= _fusion_exact([perm])
            checked += 1
    # exhaustive: every pair of lists up to n=4
    for n in range(2, 5):
        perms = list(itertools.permutations(videos[:n]))
        for pair in itertools.product(perms, repeat=2):
            all_exact &= _fusion_exact(pair)
            checked += 1
    # exhaustive: every 3- and 4-list combination at n=3
    perms3 = list(itertools.permutations(videos[:3]))
    for d in (3, 4):
        for combo in itertools.product(perms3, repeat=d):
            all_exact &= _fusion_exact(combo)
            checked += 1
    # seeded random cases at larger sizes
    rng = np.random.default_rng(5005)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        vids = list(videos[:n])
        all_exact &= _fusion_exact(
            [list(rng.permutation(vids)) for _ in range(d)]
        )
        checked += 1

    # ranks are all that matter: any strictly increasing transform of the
    # per-concept scores leaves the fused result untouched
    invariant = True
    for case in range(100):
        case_rng = np.random.default_rng(5100 + case)
        n = int(case_rng.integers(2, 10))
        d = int(case_rng.integers(1, 5))
        vids = [f"v{i}" for i in range(n)]
        score_sets = [
            {v: float(case_rng.normal()) for v in vids} for _ in range(d)
        ]
        transform = [
            lambda s: 3.0 * s + 1.0,
            lambda s: math.exp(s),
            lambda s: math.atan(s),
        ][case % 3]
        base = fuse(
            [rank_list_from_scores(f"c{j}", ss) for j, ss in enumerate(score_sets)]
        )
        warped = fuse(
            [
                rank_list_from_scores(
                    f"c{j}", {v: transform(s) for v, s in ss.items()}
                )
                for j, ss in enumerate(score_sets)
            ]
        )
        invariant &= base.ordering == warped.ordering and base.scores == warped.scores

    ok = all_exact and invariant
    announce(
        capsys, 5, ok,
        f"{checked} fusion cases exact to the formula; "
        f"monotone-transform invariance on 100 cases",
    )
    assert all_exact
    assert invariant


# -- 6: average precision ----------------------------------------------------


def test_criterion_06_average_precision(capsys):
    rng = np.random.default_rng(6006)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 61))
        labels = (rng.random(n) < 0.4).astype(int)
        if not labels.any():
            labels[int(rng.integers(n))] = 1
        ids = tuple(f"v{i}" for i in range(n))
        ranking = LabeledRanking(ids, {v: int(x) for v, x in zip(ids, labels)})
        exact &= average_precision(ranking) == ap_precision_at_k(
            ranking.ordering, ranking.relevance
        )

    labels = np.zeros(400, dtype=int)
    labels[:120] = 1  # prevalence 0.3
    ids = tuple(f"v{i}" for i in range(400))
    aps = []
    for _ in range(1000):
        rng.shuffle(labels)
        relevance = {v: int(x) for v, x in zip(ids, labels)}
        aps.append(average_precision(LabeledRanking(ids, relevance)))
    mean_ap = float(np.mean(aps))
    ok = exact and abs(mean_ap - 0.3) <= 0.02
    announce(
        capsys, 6, ok,
        f"1000 rankings match the precision@k oracle exactly; random-order "
        f"mean AP {mean_ap:.4f} within 0.02 of prevalence 0.3",
    )
    assert exact
    assert abs(mean_ap - 0.3) <= 0.02


# -- 7: the visualness gate ----------------------------------------------------


def _blob_data(rng, n_pos, separation):
    pos = {"f": rng.normal(size=(n_pos, 6)) + separation}
    neg = {"f": rng.normal(size=(3 * n_pos, 6))}
    return pos, neg


def test_criterion_07_visualness_gate(capsys):
    rng = np.random.default_rng(7007)
    pos, neg = _blob_data(rng, 120, separation=3.0)
    separable = verify_visualness("con-sep", pos, neg, seed=0)
    separable_ok = separable.passed and separable.cv_ap > 0.8

    rejected = 0
    for seed in range(50):
        srng = np.random.default_rng(7100 + seed)
        pos, neg = _blob_data(srng, 120, separation=3.0)
        stacked = np.vstack([pos["f"], neg["f"]])
        perm = srng.permutation(stacked.shape[0])
        report = verify_visualness(
            "con-shuffled",
            {"f": stacked[perm[:120]]},
            {"f": stacked[perm[120:]]},
            seed=seed,
        )
        rejected += not report.passed
    shuffle_ok = rejected >= 48  # >= 95% of 50

    rng = np.random.default_rng(7008)
    pos, neg = _blob_data(rng, 99, separation=3.0)
    small = verify_visualness("con-small", pos, neg, seed=0)
    small_ok = (not small.passed) and small.cv_ap > 0.8

    ok = separable_ok and shuffle_ok and small_ok
    announce(
        capsys, 7, ok,
        f"separable concept passes (cv AP {separable.cv_ap:.3f}); "
        f"label-shuffled copies rejected {rejected}/50 (>=48); "
        f"99-image concept blocked by the 100-image floor (cv AP {small.cv_ap:.3f})",
    )
    assert separable_ok
    assert shuffle_ok
    assert small_ok


# -- 8: end-to-end retrieval quality on the synthetic corpus -----------------


def _test_reps(store_root: Path):
    header, scores = read_cbvr(store_root / "representations" / "test.cbvr")
    reps = [(vid, list(header["concept_ids"]), row) for vid, row in zip(header["video_ids"], scores)]
    assert reps, f"no test representations under {store_root}"
    return reps


def _retrieval_docs(store_root: Path):
    docs = []
    for path in sorted((store_root / "reports" / "retrieval").glob("*.json")):
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    assert docs, f"no retrieval reports under {store_root}"
    return docs


def _ap_of_ordering(ordering, positives) -> float:
    relevance = {v: int(v in positives) for v in ordering}
    return average_precision(LabeledRanking(tuple(ordering), relevance))


def _fused_ap(reps, columns, positives) -> float:
    lists = []
    for j in columns:
        scores = {vid: float(vec[j]) for vid, _, vec in reps}
        lists.append(rank_list_from_scores(f"slot-{j}", scores))
    return _ap_of_ordering(fuse(lists).ordering, positives)


def _event_positives(truth, query) -> set:
    return {v for v, name in truth["videos"]["test"].items() if name == query}


@pytest.fixture(scope="module")
def retrieval_benchmark(tmp_path_factory):
    """Ten seeded corpora, each run through retrieval twice: once with
    density-ranked training images and once with random ones."""
    base = tmp_path_factory.mktemp("bench")
    through_retrieve = STAGES[: STAGES.index("retrieve") + 1]
    through_eval = STAGES[: STAGES.index("eval") + 1]
    start = time.perf_counter()
    per_seed = []
    seed0_eval = None
    truth0 = None
    for seed in range(10):
        corpus = base / f"corpus-{seed:02d}"
        truth = generate_fixture(corpus, seed=seed)
        if seed == 0:
            truth0 = truth
        config = PipelineConfig.from_file(corpus / "config.json")

        kde_store = base / f"store-kde-{seed:02d}"
        run_all(
            config, kde_store,
            stages=through_eval if seed == 0 else through_retrieve,
        )
        if seed == 0:
            seed0_eval = json.loads(
                (kde_store / "reports" / "eval.json").read_text(encoding="utf-8")
            )

        random_config = dataclasses.replace(config, selection_mode="random")
        random_store = base / f"store-rand-{seed:02d}"
        run_all(random_config, random_store, stages=through_retrieve)

        reps = _test_reps(kde_store)
        layout = reps[0][1]
        docs = _retrieval_docs(kde_store)
        draw = np.random.default_rng(8000 + seed)

        kde_aps, random_concept_aps, random_image_aps = [], [], []
        sweep_aps = {size: [] for size in (2, 4, 8, 12)}
        for doc in docs:
            positives = _event_positives(truth, doc["query"])
            kde_aps.append(_ap_of_ordering(doc["ordering"], positives))

            used = doc["concepts_used"]
            arbitrary = draw.choice(len(layout), size=len(used), replace=False)
            random_concept_aps.append(_fused_ap(reps, arbitrary, positives))

            for size in sweep_aps:
                cols = [layout.index(cid) for cid in used[:size]]
                sweep_aps[size].append(_fused_ap(reps, cols, positives))

        for doc in _retrieval_docs(random_store):
            positives = _event_positives(truth, doc["query"])
            random_image_aps.append(_ap_of_ordering(doc["ordering"], positives))

        per_seed.append(
            {
                "kde_map": float(np.mean(kde_aps)),
                "random_concept_map": float(np.mean(random_concept_aps)),
                "random_image_map": float(np.mean(random_image_aps)),
                "sweep": {s: float(np.mean(v)) for s, v in sweep_aps.items()},
            }
        )
    return {
        "elapsed": time.perf_counter() - start,
        "per_seed": per_seed,
        "seed0_eval": seed0_eval,
        "truth0": truth0,
    }


def test_criterion_08_end_to_end_retrieval(capsys, retrieval_benchmark):
    bench = retrieval_benchmark
    truth = bench["truth0"]
    assert len(truth["queries"]) == 4
    assert len(truth["concepts"]) == 12
    videos_per_event = {}
    for split in ("train", "test"):
        for event in truth["videos"][split].values():
            videos_per_event[event] = videos_per_event.get(event, 0) + 1
    assert set(videos_per_event.values()) == {40}

    zs_map = bench["seed0_eval"]["zero_shot"]["map"]
    sup_map = bench["seed0_eval"]["supervised"]["map"]
    a_ok = zs_map >= 0.75
    b_ok = sup_map >= zs_map

    seeds = bench["per_seed"]
    concept_wins = sum(s["kde_map"] > s["random_concept_map"] for s in seeds)
    image_wins = sum(s["kde_map"] > s["random_image_map"] for s in seeds)
    c_ok = concept_wins >= 9
    d_ok = image_wins >= 8

    sizes = (2, 4, 8, 12)
    means = [float(np.mean([s["sweep"][n] for s in seeds])) for n in sizes]
    e_ok = all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    elapsed = bench["elapsed"]
    time_ok = elapsed < 300.0
    ok = a_ok and b_ok and c_ok and d_ok and e_ok and time_ok
    announce(
        capsys, 8, ok,
        f"zero-shot mAP {zs_map:.3f} (>=0.75), supervised {sup_map:.3f} (>=zs), "
        f"matched concepts beat arbitrary ones {concept_wins}/10 (>=9), "
        f"density-picked positives beat random {image_wins}/10 (>=8), "
        f"mAP over plan sizes {sizes} = "
        f"{'/'.join(f'{m:.3f}' for m in means)} non-decreasing, "
        f"{elapsed:.0f}s (<300s)",
    )
    assert a_ok, f"zero-shot mAP {zs_map}"
    assert b_ok, f"supervised {sup_map} < zero-shot {zs_map}"
    assert c_ok, f"semantic selection won only {concept_wins}/10"
    assert d_ok, f"density selection won only {image_wins}/10"
    assert e_ok, f"plan-size sweep decreased: {dict(zip(sizes, means))}"
    assert time_ok, f"benchmark took {elapsed:.0f}s"


# -- 9: determinism across reruns and worker counts ---------------------------


def test_criterion_09_deterministic_stores(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    generate_fixture(corpus, seed=0)
    config = PipelineConfig.from_file(corpus / "config.json")
    roots = []
    for name, workers in (("serial-a", 1), ("serial-b", 1), ("threaded", 4)):
        store_root = tmp_path / f"store-{name}"
        run_all(config, store_root, workers=workers)
        roots.append(store_root)

    reference = {
        p.relative_to(roots[0]) for p in roots[0].rglob("*") if p.is_file()
    }
    identical = True
    compared = 0
    for other in roots[1:]:
        files = {p.relative_to(other) for p in other.rglob("*") if p.is_file()}
        identical &= files == reference
        for rel in reference & files:
            identical &= filecmp.cmp(roots[0] / rel, other / rel, shallow=False)
            compared += 1
    announce(
        capsys, 9, identical,
        f"{len(reference)} artifacts byte-identical across two serial runs "
        f"and a 4-worker run ({compared} comparisons)",
    )
    assert identical


# -- 10: spatial pyramid dimensions and normalization -------------------------


def test_criterion_10_pyramid_dimensions(capsys):
    rng = np.random.default_rng(1010)
    k = 1000
    codebook = Codebook(
        channel="t",
        centers=rng.normal(size=(k, 5)),
        train_seed=0,
        soft_sigma=1.0,
    )
    dense = DescriptorBlock(
        "t", rng.uniform(0.0, 40.0, size=(200, 2)), rng.normal(size=(200, 5))
    )
    vector = encode_image({"t": dense}, {"t": codebook}, image_size=(40, 40))["t"]
    dim_ok = vector.shape == (8000,) and PYRAMID_BLOCKS == 8
    hist = vector.reshape(PYRAMID_BLOCKS, k)
    sums = hist.sum(axis=1)
    dense_ok = np.all(np.abs(sums - 1.0) <= 1e-9)

    sparse = DescriptorBlock("t", np.array([[5.0, 5.0]]), rng.normal(size=(1, 5)))
    vector2 = encode_image({"t": sparse}, {"t": codebook}, image_size=(40, 40))["t"]
    hist2 = vector2.reshape(PYRAMID_BLOCKS, k)
    sums2 = hist2.sum(axis=1)
    occupied = sums2 > 0
    sparse_ok = (
        int(occupied.sum()) == 3  # one block per pyramid level
        and np.all(np.abs(sums2[occupied] - 1.0) <= 1e-9)
        and np.all(hist2[~occupied] == 0.0)
    )
    ok = dim_ok and dense_ok and sparse_ok
    announce(
        capsys, 10, ok,
        f"1000-word codebook -> {vector.size} dims over {PYRAMID_BLOCKS} blocks; "
        f"occupied blocks L1-normalized within 1e-9, empty blocks all zero",
    )
    assert dim_ok
    assert dense_ok
    assert sparse_ok
