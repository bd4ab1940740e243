from __future__ import annotations

import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conceptbank import encode
from conceptbank.cli import main
from conceptbank.config import PipelineConfig
from conceptbank.encode import (
    ASSIGN_ROWS,
    PYRAMID_BLOCKS,
    PYRAMID_GRIDS,
    Codebook,
    DescriptorBlock,
    builtin_descriptors,
    encode_from_path,
    encode_image,
    encode_images,
    encode_path_groups,
    encode_paths,
    infer_image_sizes,
    load_descriptors,
    soft_assign,
    train_codebook,
)
from conceptbank.errors import DataFormatError, PreconditionError
from conceptbank.formats import read_cbfv, read_ppm, write_cbfv, write_ppm
from conceptbank.pipeline import run_stage
from oracles import pyramid_loop


def test_codebook_recovers_separated_clusters():
    rng = np.random.default_rng(0)
    truth = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts = np.vstack([t + rng.normal(0, 0.05, (40, 2)) for t in truth])
    cb = train_codebook(pts, k=3, seed=1)
    d2 = ((truth[:, None, :] - cb.centers[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    assert sorted(nearest.tolist()) == [0, 1, 2]  # one found center per cluster
    assert np.allclose(cb.centers[nearest], truth, atol=0.1)
    assert 0 < cb.soft_sigma < 0.2


def test_codebook_fixed_point_when_points_are_centers():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    cb = train_codebook(pts, k=4, seed=0)
    assert sorted(cb.centers.ravel().tolist()) == [0.0, 1.0, 2.0, 3.0]
    assert cb.inertia == 0.0


def test_codebook_beats_random_centers():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 4))
    cb = train_codebook(pts, k=8, seed=3)
    rand = pts[rng.choice(200, size=8, replace=False)]
    d2 = ((pts[:, None, :] - rand[None, :, :]) ** 2).sum(axis=2)
    assert cb.inertia <= d2.min(axis=1).sum()


def test_codebook_is_deterministic_and_guards_k():
    pts = np.random.default_rng(5).normal(size=(50, 3))
    a = train_codebook(pts, k=6, seed=9)
    b = train_codebook(pts, k=6, seed=9)
    assert np.array_equal(a.centers, b.centers)
    with pytest.raises(PreconditionError):
        train_codebook(np.zeros((50, 3)), k=2, seed=0)


def unit_codebook(centers, sigma=1.0):
    return Codebook(
        channel="t", centers=np.asarray(centers, float), train_seed=0, soft_sigma=sigma
    )


def test_soft_assign_weights_sum_to_one_and_rank_by_distance():
    cb = unit_codebook([[0.0], [1.0], [4.0]])
    idx, w = soft_assign(np.array([[0.2], [3.5]]), cb, soft_k=3)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert idx[0, 0] == 0 and idx[1, 0] == 2
    assert np.all(np.diff(w, axis=1) <= 1e-12)


def test_soft_assign_equidistant_centers_split_mass():
    cb = unit_codebook([[0.0], [2.0]])
    _, w = soft_assign(np.array([[1.0]]), cb, soft_k=2)
    assert np.allclose(w, [[0.5, 0.5]])


def test_soft_assign_zero_sigma_is_hard():
    cb = unit_codebook([[0.0], [0.5]], sigma=0.0)
    idx, w = soft_assign(np.array([[0.1]]), cb, soft_k=2)
    assert w[0, 0] == 1.0 and w[0, 1] == 0.0 and idx[0, 0] == 0


def stable_sort_soft_assign(vectors, codebook, soft_k):
    """soft_assign as a full stable sort of each row picks its codewords."""
    d2 = encode._sq_dists(vectors, codebook.centers)
    idx = np.argsort(d2, axis=-1, kind="stable")[..., :soft_k]
    near = np.take_along_axis(d2, idx, axis=-1)
    sigma = codebook.soft_sigma
    if sigma > 0:
        w = np.exp(-(near - near[..., :1]) / (2.0 * sigma * sigma))
    else:
        w = np.zeros_like(near)
        w[..., 0] = 1.0
    return idx, w / w.sum(axis=-1, keepdims=True)


def test_soft_assign_matches_a_stable_sort_across_planted_ties():
    # integer centers and vectors on a small grid tie distances often,
    # also across the soft_k cut
    rng = np.random.default_rng(23)
    cut_ties = 0
    for case in range(300):
        k, dim = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        centers = rng.integers(-2, 3, size=(k, dim)).astype(float)
        shape = (int(rng.integers(1, 30)), dim) if case % 2 else (3, int(rng.integers(1, 10)), dim)
        vectors = rng.integers(-2, 3, size=shape).astype(float)
        soft_k = int(rng.integers(1, k + 3))  # soft_k >= k in about a quarter of cases
        book = Codebook("t", centers, 0, float(rng.choice([1.0, 0.3, 0.0, -1.0])))
        idx, w = soft_assign(vectors, book, soft_k)
        ref_idx, ref_w = stable_sort_soft_assign(vectors, book, min(soft_k, k))
        assert idx.shape == ref_idx.shape and np.array_equal(idx, ref_idx)
        assert np.array_equal(w, ref_w)
        if soft_k < k:
            d2 = np.sort(encode._sq_dists(vectors, centers), axis=-1)
            cut_ties += int(np.count_nonzero(d2[..., soft_k - 1] == d2[..., soft_k]))
    assert cut_ties > 500  # rows whose soft_k-th and next distances tie
    # a NaN distance sorts last, as in the stable sort
    vectors = rng.normal(size=(4, 3))
    vectors[1, 0] = np.nan
    book = Codebook("t", rng.normal(size=(6, 3)), 0, 1.0)
    with np.errstate(invalid="ignore"):
        idx, w = soft_assign(vectors, book, 2)
        ref_idx, ref_w = stable_sort_soft_assign(vectors, book, 2)
    assert np.array_equal(idx, ref_idx) and np.array_equal(w, ref_w, equal_nan=True)


def one_patch_block(x, y, vec):
    return DescriptorBlock("t", np.array([[x, y]], float), np.array([vec], float))


def brute_force_blocks(x, y, width, height):
    """Pyramid block indices containing a patch center, first level first."""
    hits = []
    offset = 0
    for rows, cols in PYRAMID_GRIDS:
        r = min(int(y * rows // height), rows - 1)
        c = min(int(x * cols // width), cols - 1)
        hits.append(offset + r * cols + c)
        offset += rows * cols
    return hits


def test_single_patch_hits_one_block_per_level():
    cb = unit_codebook([[0.0], [1.0]])
    for x, y in [(5, 5), (95, 5), (5, 95), (95, 95), (50, 50), (5, 34)]:
        fs = encode_image(
            {"t": one_patch_block(x, y, [0.0])}, {"t": cb}, image_size=(100, 100)
        )
        v = fs["t"].reshape(PYRAMID_BLOCKS, 2)
        expect = np.zeros((PYRAMID_BLOCKS, 2))
        for b in brute_force_blocks(x, y, 100, 100):
            expect[b, 0] = 1.0  # nearest codeword of [0] is center 0
        # equidistant soft assignment never happens here: [0] is closer to 0
        assert np.allclose(v[:, 0] + v[:, 1], expect[:, 0] + expect[:, 1])
        assert np.argmax(v.sum(axis=0)) == 0


def test_dimension_and_block_normalization():
    rng = np.random.default_rng(11)
    n = 60
    block = DescriptorBlock(
        "t", rng.uniform(0, 100, size=(n, 2)), rng.normal(size=(n, 3))
    )
    cb = unit_codebook(rng.normal(size=(4, 3)))
    fs = encode_image({"t": block}, {"t": cb}, image_size=(100, 100))
    assert fs["t"].shape == (PYRAMID_BLOCKS * 4,)
    per_block = fs["t"].reshape(PYRAMID_BLOCKS, 4).sum(axis=1)
    for s in per_block:
        assert s == pytest.approx(1.0, abs=1e-9) or s == 0.0


def test_encoding_ignores_patch_order():
    rng = np.random.default_rng(13)
    pos = rng.uniform(0, 100, size=(30, 2))
    vec = rng.normal(size=(30, 3))
    cb = unit_codebook(rng.normal(size=(5, 3)))
    a = encode_image(
        {"t": DescriptorBlock("t", pos, vec)}, {"t": cb}, image_size=(100, 100)
    )
    perm = rng.permutation(30)
    b = encode_image(
        {"t": DescriptorBlock("t", pos[perm], vec[perm])},
        {"t": cb},
        image_size=(100, 100),
    )
    assert np.array_equal(a["t"], b["t"])


def test_encode_rejects_empty_blocks_and_unknown_channels():
    cb = unit_codebook([[0.0]])
    empty = DescriptorBlock("t", np.empty((0, 2)), np.empty((0, 1)))
    with pytest.raises(PreconditionError, match="zero patches"):
        encode_image({"t": empty}, {"t": cb}, image_size=(10, 10))
    with pytest.raises(PreconditionError, match="without codebook"):
        encode_image({"u": one_patch_block(1, 1, [0.0])}, {"t": cb}, (10, 10))


def random_image(rng, n, width, height, dims):
    """One image's blocks: n patches at distinct centers inside the image."""
    cells = rng.choice(int(width) * int(height), size=n, replace=False)
    pos = np.stack([cells % int(width), cells // int(width)], axis=1) + 0.5
    return {
        ch: DescriptorBlock(ch, pos, rng.normal(size=(n, d))) for ch, d in dims.items()
    }


def shuffled(blocks, rng):
    perm = rng.permutation(next(iter(blocks.values())).vectors.shape[0])
    return {
        ch: DescriptorBlock(ch, b.grid_positions[perm], b.vectors[perm])
        for ch, b in blocks.items()
    }


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    k=st.integers(1, 8),
    soft_k=st.integers(1, 10),
    zero_sigma=st.booleans(),
)
def test_batch_encoding_matches_encoding_each_image_alone(seed, counts, k, soft_k, zero_sigma):
    rng = np.random.default_rng(seed)
    dims = {"b": int(rng.integers(1, 5)), "a": int(rng.integers(2, 40))}
    books = {
        ch: Codebook(ch, rng.normal(size=(k, d)), 0, 0.0 if zero_sigma else rng.uniform(0.1, 3))
        for ch, d in dims.items()
    }
    sizes = [(float(rng.integers(4, 60)), float(rng.integers(4, 60))) for _ in counts]
    images = [random_image(rng, n, w, h, dims) for n, (w, h) in zip(counts, sizes)]
    # the batch sees each image's patches in another order than the single encode
    batch = encode_images([shuffled(b, rng) for b in images], books, sizes, soft_k)
    assert list(batch) == ["b", "a"]
    assert [m.shape for m in batch.values()] == [(len(counts), PYRAMID_BLOCKS * k)] * 2
    for i, (blocks, size) in enumerate(zip(images, sizes)):
        alone = encode_image(blocks, books, size, soft_k)
        assert list(alone) == ["b", "a"]
        for ch, matrix in batch.items():
            assert np.array_equal(matrix[i], alone[ch])


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    k=st.integers(1, 8),
    soft_k=st.integers(1, 10),
)
def test_batch_pyramids_equal_a_patch_by_patch_sum(seed, counts, k, soft_k):
    rng = np.random.default_rng(seed)
    books = {"t": Codebook("t", rng.normal(size=(k, 3)), 0, rng.uniform(0.1, 3))}
    sizes = [(float(rng.integers(-1, 60)), float(rng.integers(4, 60))) for _ in counts]
    # centers on a coarse grid, so several patches share one
    images = [
        {"t": DescriptorBlock("t", rng.integers(0, 6, size=(n, 2)) * 10.0, rng.normal(size=(n, 3)))}
        for n in counts
    ]
    batch = encode_images(images, books, sizes, soft_k)["t"]
    for row, blocks, size in zip(batch, images, sizes):
        block = blocks["t"]
        idx, w = soft_assign(block.vectors[None], books["t"], soft_k)
        expect = pyramid_loop(block.grid_positions, idx[0], w[0], size, PYRAMID_GRIDS, k)
        assert np.array_equal(row, expect)


def test_batch_encoding_splits_rows_into_bounded_soft_assign_calls(monkeypatch):
    rng = np.random.default_rng(17)
    third = ASSIGN_ROWS // 3 + 1
    counts = [third] * 4 + [ASSIGN_ROWS + 5, 3, 3]
    books = {"t": Codebook("t", rng.normal(size=(16, 4)), 0, 1.0)}
    images = [random_image(rng, n, 200, 200, {"t": 4}) for n in counts]
    rows_per_call = []

    def counting(vectors, codebook, soft_k=5):
        rows_per_call.append(vectors.shape[0] * vectors.shape[1])
        return soft_assign(vectors, codebook, soft_k)

    monkeypatch.setattr(encode, "soft_assign", counting)
    batch = encode_images(images, books, [(200.0, 200.0)] * len(counts), 5)
    # two calls for the four equal images, one for the oversized one, one for the pair
    assert sorted(rows_per_call) == [6, 2 * third, 2 * third, ASSIGN_ROWS + 5]
    monkeypatch.undo()
    for row, blocks in zip(batch["t"], images):
        alone = encode_image(blocks, books, (200.0, 200.0))
        assert np.array_equal(row, alone["t"])


def test_batch_encoding_of_no_images_is_empty():
    empty = encode_images([], {"t": unit_codebook([[0.0], [1.0]])}, [])
    assert list(empty) == ["t"] and empty["t"].shape == (0, PYRAMID_BLOCKS * 2)


def test_missing_descriptor_file_names_the_file(tmp_path):
    rng = np.random.default_rng(4)
    stem = tmp_path / "frame-001"
    write_cbfv(f"{stem}.syn-a.cbfv", rng.uniform(5, 35, size=(7, 2)), rng.normal(size=(7, 3)))
    blocks = [load_descriptors(path, "syn-a") for path in (stem, str(stem))]
    assert blocks[0].vectors.shape == (7, 3)
    for field in ("grid_positions", "vectors"):
        assert np.array_equal(getattr(blocks[0], field), getattr(blocks[1], field))
    missing = tmp_path / "frame-000.syn-a.cbfv"
    for path in (tmp_path / "frame-000", str(tmp_path / "frame-000")):
        with pytest.raises(DataFormatError, match=re.escape(str(missing))):
            load_descriptors(path, "syn-a")


def test_encode_paths_skips_unloadable_images(tmp_path):
    rng = np.random.default_rng(5)
    books = {"g": Codebook("g", rng.normal(size=(4, 3)), 0, 1.0)}
    paths = [tmp_path / f"im-{i}" for i in range(5)]
    for path in paths:
        write_cbfv(f"{path}.g.cbfv", rng.uniform(5, 35, size=(9, 2)), rng.normal(size=(9, 3)))
    (tmp_path / "im-1.g.cbfv").unlink()
    (tmp_path / "im-2.g.cbfv").write_bytes(b"CBFV")
    (tmp_path / "im-3.g.cbfv").write_bytes(b"not a descriptor file")
    kept, skipped, matrices = encode_paths(paths, books)
    assert kept == [paths[0], paths[4]]
    assert [p for p, _ in skipped] == paths[1:4]
    for path, exc in skipped:
        assert isinstance(exc, DataFormatError) and path.name in str(exc)
    assert matrices["g"].shape == (2, PYRAMID_BLOCKS * 4)
    for row, path in zip(matrices["g"], kept):
        assert np.array_equal(row, encode_from_path(path, books)["g"])
    kept, skipped, matrices = encode_paths(paths[1:2], books)
    assert kept == [] and len(skipped) == 1
    assert matrices["g"].shape == (0, PYRAMID_BLOCKS * 4)


def test_encode_paths_reports_empty_or_wrong_dim_descriptor_files(tmp_path):
    rng = np.random.default_rng(6)
    books = {"g": Codebook("g", rng.normal(size=(4, 3)), 0, 1.0)}
    paths = [tmp_path / f"im-{i}" for i in range(3)]
    write_cbfv(f"{paths[0]}.g.cbfv", rng.uniform(5, 35, size=(9, 2)), rng.normal(size=(9, 3)))
    write_cbfv(f"{paths[1]}.g.cbfv", np.zeros((0, 2)), np.zeros((0, 3)))
    write_cbfv(f"{paths[2]}.g.cbfv", rng.uniform(5, 35, size=(9, 2)), rng.normal(size=(9, 5)))
    kept, skipped, matrices = encode_paths(paths, books)
    assert kept == paths[:1]
    assert [p for p, _ in skipped] == paths[1:]
    for path, exc in skipped:
        assert isinstance(exc, DataFormatError) and f"{path}.g.cbfv" in str(exc)
    assert matrices["g"].shape == (1, PYRAMID_BLOCKS * 4)


def loaded_alone(paths, books, soft_k=5):
    """encode_images of each path's descriptors, loaded one file at a time."""
    blocks = [{ch: load_descriptors(path, ch) for ch in books} for path in paths]
    sizes = [
        (float(b.grid_positions[:, 0].max()) + 10.0, float(b.grid_positions[:, 1].max()) + 10.0)
        for b in (next(iter(image.values())) for image in blocks)
    ]
    return encode_images(blocks, books, sizes, soft_k)


@pytest.mark.parametrize("seed", range(4))
def test_decoded_descriptor_files_encode_as_files_loaded_alone(tmp_path, seed):
    rng = np.random.default_rng(seed)
    dims = {"b": 2, "a": 6}
    books = {ch: Codebook(ch, rng.normal(size=(5, d)), 0, rng.uniform(0.5, 2)) for ch, d in dims.items()}
    groups = []
    for g in range(3):
        groups.append([])
        for i in range(int(rng.integers(0, 6))):
            stem = tmp_path / f"im-{g}-{i}"
            n = int(rng.choice([1, 4, 9, 9, 13]))
            image = random_image(rng, n, 40, 30, dims)
            for ch, block in shuffled(image, rng).items():  # files hold patches in any order
                write_cbfv(f"{stem}.{ch}.cbfv", block.grid_positions, block.vectors)
            groups[-1].append(stem if i % 2 else str(stem))
    parts = encode_path_groups(groups, books, soft_k=3)
    for paths, (kept, bad, matrices) in zip(groups, parts):
        assert kept == paths and bad == []
        alone = loaded_alone(paths, books, soft_k=3)
        assert list(matrices) == list(books)
        for ch in books:
            assert matrices[ch].shape == alone[ch].shape
            assert matrices[ch].tobytes() == alone[ch].tobytes()


def _spoil(path, data):
    if data is None:
        path.unlink()
    else:
        path.write_bytes(data)


@pytest.mark.parametrize("case, channel, spoil", [
    ("missing", "a", lambda p, d: _spoil(p, None)),
    ("empty", "a", lambda p, d: _spoil(p, b"")),
    ("short header", "a", lambda p, d: _spoil(p, d[:10])),
    ("truncated", "a", lambda p, d: _spoil(p, d[:-4])),
    ("one record too many", "a", lambda p, d: _spoil(p, d + d[16:48])),
    ("bad magic", "a", lambda p, d: _spoil(p, b"XBFV" + d[4:])),
    ("bad version", "a", lambda p, d: _spoil(p, d[:4] + (2).to_bytes(4, "little") + d[8:])),
    ("zero patches", "a", lambda p, d: write_cbfv(p, np.zeros((0, 2)), np.zeros((0, 6)))),
    ("wrong dim", "a", lambda p, d: write_cbfv(p, np.full((4, 2), 15.0), np.zeros((4, 5)))),
    ("second channel bad", "b", lambda p, d: _spoil(p, d[:-4])),
    ("second channel wrong dim", "b", lambda p, d: write_cbfv(p, np.full((8, 2), 15.0), np.zeros((8, 6)))),
])
def test_a_bad_descriptor_file_is_skipped_as_a_lone_read_skips_it(tmp_path, case, channel, spoil):
    rng = np.random.default_rng(8)
    dims = {"a": 6, "b": 2}
    books = {ch: Codebook(ch, rng.normal(size=(4, d)), 0, 1.0) for ch, d in dims.items()}
    paths = [tmp_path / f"im-{i}" for i in range(5)]
    for path in paths:
        for ch, block in random_image(rng, 8, 40, 40, dims).items():
            write_cbfv(f"{path}.{ch}.cbfv", block.grid_positions, block.vectors)
    bad = tmp_path / f"im-2.{channel}.cbfv"
    spoil(bad, bad.read_bytes())
    try:
        _, vectors = read_cbfv(bad)
        n, dim = vectors.shape
        expected = f"{bad}: {n} patches of dim {dim}, codebook dim {dims[channel]}"
    except DataFormatError as exc:  # as load_descriptors would raise it
        expected = str(exc)
    groups = [paths[:1], paths[1:4], paths[4:]]
    parts = encode_path_groups(groups, books)
    assert [kept for kept, _, _ in parts] == [paths[:1], [paths[1], paths[3]], paths[4:]]
    assert [[p for p, _ in skipped] for _, skipped, _ in parts] == [[], [paths[2]], []]
    ((_, exc),) = parts[1][1]
    assert isinstance(exc, DataFormatError) and str(exc) == expected
    clean = [p for p in paths if p != paths[2]]
    alone = loaded_alone(clean, books)
    for ch in books:
        batch = np.concatenate([matrices[ch] for _, _, matrices in parts])
        assert batch.tobytes() == alone[ch].tobytes()


def test_ppm_images_encode_as_their_builtin_descriptors(tmp_path):
    rng = np.random.default_rng(9)
    books = {
        ch: Codebook(ch, rng.uniform(0, 1, size=(4, d)), 0, 0.3)
        for ch, d in (("gray-patch", 400), ("color-hist", 64))
    }
    shapes = [(40, 50, 3), (30, 30, 3), (10, 10, 3), (35, 42)]  # the third is too small
    paths = []
    for i, shape in enumerate(shapes):
        paths.append(tmp_path / f"im-{i}.ppm")
        write_ppm(paths[-1], rng.integers(0, 256, size=shape, dtype=np.uint8))
    # a descriptor-file image between them, under the same channels
    stem = tmp_path / "im-cbfv"
    for ch, block in random_image(rng, 6, 40, 40, {"gray-patch": 400, "color-hist": 64}).items():
        write_cbfv(f"{stem}.{ch}.cbfv", block.grid_positions, block.vectors)
    paths.insert(1, stem)
    kept, skipped, matrices = encode_paths(paths, books)
    assert kept == [paths[0], paths[1], paths[2], paths[4]]
    ((path, exc),) = skipped
    assert path == paths[3] and isinstance(exc, PreconditionError) and "smaller than patch" in str(exc)
    # load_descriptors computes a .ppm image's float64 builtin descriptors
    alone = loaded_alone(kept, books)
    for ch in books:
        assert matrices[ch].tobytes() == alone[ch].tobytes()


def test_malformed_descriptor_files_fail_encode_and_are_skipped_by_represent(
    full_store, corpus_dir, tmp_path, capsys
):
    corpus, store = tmp_path / "corpus", tmp_path / "store"
    shutil.copytree(corpus_dir[0], corpus)
    shutil.copytree(full_store.root, store)
    config = PipelineConfig.from_file(corpus / "config.json")
    channel = config.channels[0]
    image = corpus / (corpus / "images.tsv").read_text().splitlines()[0].split("\t")[2]
    frame = sorted((corpus / "videos").glob(f"*/f00.{channel}.cbfv"))[0]
    dim = load_descriptors(image, channel).vectors.shape[1]
    for n, d in ((0, dim), (9, dim + 1)):
        for path in (f"{image}.{channel}.cbfv", str(frame)):
            write_cbfv(path, np.full((n, 2), 15.0), np.zeros((n, d)))
        argv = ["encode", "--store", str(store), "--config", str(corpus / "config.json")]
        assert main(argv) == 3
        assert f"{image}.{channel}.cbfv" in capsys.readouterr().err
        with pytest.warns(UserWarning, match=f"skipping frame .*{re.escape(str(frame))}"):
            run_stage("represent", config, store)


def test_codebook_stage_rejects_a_descriptor_dim_mismatch(full_store, corpus_dir, tmp_path, capsys):
    corpus, store = tmp_path / "corpus", tmp_path / "store"
    shutil.copytree(corpus_dir[0], corpus)
    shutil.copytree(full_store.root, store)
    rows = (corpus / "images.tsv").read_text().splitlines()
    image = corpus / rows[len(rows) // 2].split("\t")[2]
    write_cbfv(f"{image}.syn-a.cbfv", np.full((9, 2), 15.0), np.zeros((9, 7)))
    argv = ["codebook", "--store", str(store), "--config", str(corpus / "config.json")]
    assert main(argv) == 3
    assert f"{image}.syn-a.cbfv" in capsys.readouterr().err


def test_builtin_descriptor_grid_counts():
    img = np.zeros((20, 20, 3), dtype=np.uint8)
    assert builtin_descriptors(img, "gray-patch").vectors.shape == (1, 400)
    img = np.zeros((30, 30, 3), dtype=np.uint8)
    block = builtin_descriptors(img, "color-hist")
    assert block.vectors.shape == (4, 64)
    assert infer_image_sizes(block.grid_positions, [4]).tolist() == [[30.0, 30.0]]


def test_builtin_descriptor_values_on_constant_color():
    img = np.full((20, 20, 3), 200, dtype=np.uint8)
    gp = builtin_descriptors(img, "gray-patch")
    assert np.allclose(gp.vectors, 0.0)  # mean-subtracted constant patch
    ch = builtin_descriptors(img, "color-hist")
    assert ch.vectors[0].sum() == pytest.approx(1.0)
    assert ch.vectors[0, (200 // 64) * 16 + (200 // 64) * 4 + 200 // 64] == 1.0
    with pytest.raises(PreconditionError):
        builtin_descriptors(np.zeros((10, 10, 3), np.uint8), "gray-patch")
    with pytest.raises(PreconditionError):
        builtin_descriptors(img, "no-such-channel")
