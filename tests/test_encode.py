from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conceptbank import encode
from conceptbank.encode import (
    ASSIGN_ROWS,
    PYRAMID_BLOCKS,
    PYRAMID_GRIDS,
    Codebook,
    DescriptorBlock,
    FeatureSet,
    builtin_descriptors,
    encode_from_path,
    encode_image,
    encode_images,
    encode_paths,
    infer_image_size,
    load_descriptors,
    soft_assign,
    train_codebook,
)
from conceptbank.errors import DataFormatError, PreconditionError
from conceptbank.formats import write_cbfv


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
        v = fs.vectors["t"].reshape(PYRAMID_BLOCKS, 2)
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
    assert fs.dim("t") == PYRAMID_BLOCKS * 4
    per_block = fs.vectors["t"].reshape(PYRAMID_BLOCKS, 4).sum(axis=1)
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
    assert np.array_equal(a.vectors["t"], b.vectors["t"])


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
    for fs, blocks, size in zip(batch, images, sizes):
        alone = encode_image(blocks, books, size, soft_k)
        assert fs.channels == alone.channels == ["b", "a"]
        for ch in fs.channels:
            assert np.array_equal(fs.vectors[ch], alone.vectors[ch])


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
    for fs, blocks in zip(batch, images):
        alone = encode_image(blocks, books, (200.0, 200.0))
        assert np.array_equal(fs.vectors["t"], alone.vectors["t"])


def test_batch_encoding_of_no_images_is_empty():
    assert encode_images([], {"t": unit_codebook([[0.0]])}, []) == []


def test_missing_descriptor_file_names_the_file(tmp_path):
    missing = tmp_path / "frame-000.syn-a.cbfv"
    with pytest.raises(DataFormatError, match=re.escape(str(missing))):
        load_descriptors(tmp_path / "frame-000", "syn-a")


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
        assert np.array_equal(row, encode_from_path(path, books).vectors["g"])
    kept, skipped, matrices = encode_paths(paths[1:2], books)
    assert kept == [] and len(skipped) == 1 and matrices["g"].size == 0


def test_builtin_descriptor_grid_counts():
    img = np.zeros((20, 20, 3), dtype=np.uint8)
    assert builtin_descriptors(img, "gray-patch").vectors.shape == (1, 400)
    img = np.zeros((30, 30, 3), dtype=np.uint8)
    block = builtin_descriptors(img, "color-hist")
    assert block.vectors.shape == (4, 64)
    assert infer_image_size(block.grid_positions) == (30.0, 30.0)


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


def test_feature_set_accessors():
    fs = FeatureSet({"a": np.zeros(8), "b": np.ones(16)})
    assert fs.channels == ["a", "b"]
    assert fs.dim("b") == 16
