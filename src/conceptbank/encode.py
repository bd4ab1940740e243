"""Descriptor encoding: codebooks, soft quantization, spatial pyramid.

Each feature channel gets its own codebook (seeded k-means). An image's
raw per-patch descriptors are soft-assigned to the soft_k nearest
codewords with Gaussian weights summing to one per patch, and the mass is
accumulated into every spatial pyramid block (1x1 + 2x2 + 3x1 = 8 blocks)
containing the patch center. Each block's K-bin sub-histogram is
L1-normalized, so a K=1,000 codebook yields the 8,000-dim channel vector.
Features stay in one format from here to training: a batch of images
encodes to {channel: (images x 8K)}, one row per image.

A batch of image paths is loaded as one stack per channel: every
descriptor file is read whole with plain system calls and all are
checked and converted in one array pass (formats.decode_cbfv), giving
one (patches x (2 + dim)) record array and per-image patch counts. The
encoder takes that stack directly and builds a batch's pyramids with one
np.bincount. A file that fails the check is loaded alone
(load_descriptors), so the error that skips its image names it; .ppm
images are loaded alone too, their builtin descriptors in float64.

Two built-in descriptors (gray-patch, color-hist) over dense 20x20
patches with 50% overlap keep the whole pipeline testable without any
external feature extractor; production channels arrive as CBFV files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, PreconditionError
from .formats import decode_cbfv, read_cbfv, read_ppm

PATCH_SIZE = 20
PATCH_STRIDE = 10  # 50% overlap
PYRAMID_GRIDS = ((1, 1), (2, 2), (3, 1))  # (rows, cols) per level
PYRAMID_BLOCKS = sum(r * c for r, c in PYRAMID_GRIDS)  # 8
BUILTIN_CHANNELS = ("gray-patch", "color-hist")
# Rows per soft_assign call: 4096 x 1000 float64 distances are 32 MB.
ASSIGN_ROWS = 4096
_READ_SIZE = 1 << 16  # bytes per os.read of a descriptor file


@dataclass
class DescriptorBlock:
    """Raw dense descriptors for one image and one channel."""

    channel: str
    grid_positions: np.ndarray  # (n, 2) patch centers as (x, y)
    vectors: np.ndarray  # (n, dim)

    def __post_init__(self):
        self.grid_positions = np.asarray(self.grid_positions, dtype=np.float64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.grid_positions.shape[0] != self.vectors.shape[0]:
            raise PreconditionError(
                f"channel {self.channel}: {self.grid_positions.shape[0]} positions "
                f"vs {self.vectors.shape[0]} vectors"
            )


@dataclass
class Codebook:
    channel: str
    centers: np.ndarray  # (k, dim)
    train_seed: int
    soft_sigma: float = 1.0
    inertia: float = field(default=0.0, compare=False)

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def train_codebook(
    descriptors: np.ndarray, k: int, seed: int, channel: str = ""
) -> Codebook:
    """Seeded k-means (k-means++ init, Lloyd iterations).

    Stops after 100 iterations or when the relative inertia change drops
    below 1e-4; deterministic given (input order, seed). soft_sigma is the
    mean distance of the training descriptors to their nearest center,
    used later as the soft-assignment bandwidth.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.ndim != 2:
        raise PreconditionError("descriptors must be a 2-d array")
    distinct = np.unique(descriptors, axis=0).shape[0]
    if distinct < k:
        raise PreconditionError(
            f"need >= {k} distinct vectors to train a {k}-word codebook, "
            f"got {distinct}"
        )
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(descriptors, k, rng)

    inertia = np.inf
    for _ in range(100):
        d2 = _sq_dists(descriptors, centers)
        assign = np.argmin(d2, axis=1)
        new_inertia = float(d2[np.arange(len(descriptors)), assign].sum())
        for j in range(k):
            mask = assign == j
            if mask.any():
                centers[j] = descriptors[mask].mean(axis=0)
            else:
                # re-seed dead cluster at the worst-served point
                worst = int(np.argmax(d2[np.arange(len(descriptors)), assign]))
                centers[j] = descriptors[worst]
        if np.isfinite(inertia) and inertia > 0:
            if (inertia - new_inertia) / inertia < 1e-4:
                inertia = new_inertia
                break
        if new_inertia == 0.0:
            inertia = 0.0
            break
        inertia = new_inertia

    d = np.sqrt(np.maximum(_sq_dists(descriptors, centers), 0.0))
    soft_sigma = float(d.min(axis=1).mean())
    return Codebook(
        channel=channel,
        centers=centers,
        train_seed=seed,
        soft_sigma=soft_sigma,
        inertia=float(inertia),
    )


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = _sq_dists(x, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass on already-chosen points; pick unseen ones
            centers[j] = x[rng.integers(n)]
            continue
        probs = d2 / total
        idx = rng.choice(n, p=probs)
        centers[j] = x[idx]
        d2 = np.minimum(d2, _sq_dists(x, centers[j : j + 1]).ravel())
    return centers


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared euclidean distances, (..., len(a), len(b))."""
    aa = np.sum(a * a, axis=-1)[..., None]
    bb = np.sum(b * b, axis=1)
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def soft_assign(
    vectors: np.ndarray, codebook: Codebook, soft_k: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Distribute each patch's unit mass over its soft_k nearest codewords.

    vectors is (n, dim) or a stack (images, n, dim). Returns (indices
    (..., k'), weights (..., k')) with weight rows summing to 1. Weights
    are Gaussian in distance with the codebook's soft_sigma; a
    non-positive sigma degrades to hard assignment. Codewords are ranked
    by (distance, index), exactly as a stable sort of each row ranks them.
    """
    k_eff = min(soft_k, codebook.k)
    d2 = _sq_dists(vectors, codebook.centers)
    pick = np.argpartition(d2, k_eff - 1, axis=-1)[..., :k_eff]
    near = np.take_along_axis(d2, pick, axis=-1)
    idx = np.take_along_axis(pick, np.lexsort((pick, near), axis=-1), axis=-1)
    # The pick holds every distance below the k-th one, but which of the
    # distances equal to it is arbitrary. Rows whose k-th distance recurs
    # past the cut (or is NaN) take the first k of a stable sort instead.
    cut = np.count_nonzero(d2 <= near.max(axis=-1, keepdims=True), axis=-1) != k_eff
    if cut.any():
        idx[cut] = np.argsort(d2[cut], axis=-1, kind="stable")[:, :k_eff]
    near = np.take_along_axis(d2, idx, axis=-1)
    sigma = codebook.soft_sigma
    if sigma > 0:
        # shift by the per-row minimum: same normalized weights, no underflow
        w = np.exp(-(near - near[..., :1]) / (2.0 * sigma * sigma))
    else:
        w = np.zeros_like(near)
        w[..., 0] = 1.0
    w /= w.sum(axis=-1, keepdims=True)
    return idx, w


def encode_image(
    blocks: dict[str, DescriptorBlock],
    codebooks: dict[str, Codebook],
    image_size: tuple[float, float],
    soft_k: int = 5,
) -> dict[str, np.ndarray]:
    """One image's {channel: vector}; see encode_images. Nothing in the
    package calls it; the benchmark's per-layer list names it until its
    encode probes move to encode_images (ROADMAP item 7)."""
    matrices = encode_images([blocks], codebooks, [image_size], soft_k)
    return {ch: m[0] for ch, m in matrices.items()}


def encode_images(
    blocks_list: list[dict[str, DescriptorBlock]],
    codebooks: dict[str, Codebook],
    sizes: list[tuple[float, float]],
    soft_k: int = 5,
) -> dict[str, np.ndarray]:
    """Encode images that share their channels into pyramid histograms,
    {channel: (images x PYRAMID_BLOCKS * k)}, each row bit for bit as if
    its image were alone. sizes[i] is image i's (width, height). The
    blocks are stacked into _encode_stacked's form."""
    channels = list(blocks_list[0]) if blocks_list else list(codebooks)
    stacked = {ch: _stack([blocks[ch] for blocks in blocks_list]) for ch in channels}
    return _encode_stacked(stacked, codebooks, np.asarray(sizes, dtype=np.float64), soft_k)


def _stack(blocks: list[DescriptorBlock]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not blocks:
        return np.empty((0, 2)), np.empty((0, 0)), np.empty(0, dtype=np.intp)
    return (
        np.concatenate([b.grid_positions for b in blocks]),
        np.concatenate([b.vectors for b in blocks]),
        np.array([b.vectors.shape[0] for b in blocks]),
    )


def _encode_stacked(
    stacked: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
    codebooks: dict[str, Codebook],
    sizes: np.ndarray,
    soft_k: int,
) -> dict[str, np.ndarray]:
    """encode_images of descriptors stacked per channel as (positions
    (patches x 2), vectors (patches x dim), counts (images,)): image i's
    patches are the counts[i] rows after those of images 0 .. i-1.
    sizes is (images x 2) widths and heights; a patch adds to the one
    block per level that contains its center. Patches are sorted per
    image, so their order does not matter. BLAS rounds a product row
    differently next to other rows, so distances are taken per stack of
    images with equal patch counts. A pyramid sums each bin's weights in
    patch order, as one np.bincount over (image, block, codeword) bins.
    No images give a (0, dim) matrix per channel."""
    # a non-positive extent puts every patch in the first cell
    extents = sizes.reshape(-1, 2)
    extents = np.where(extents > 0, extents, np.inf)
    out = {}
    for channel, (positions, vectors, counts) in stacked.items():
        codebook = codebooks.get(channel)
        if codebook is None:
            raise PreconditionError(f"channel without codebook: {channel}")
        if not counts.all():
            raise PreconditionError(f"channel {channel}: zero patches")
        k = codebook.k
        out[channel] = np.empty((len(counts), PYRAMID_BLOCKS * k))
        starts = np.cumsum(counts) - counts
        for n in np.unique(counts):
            group = np.flatnonzero(counts == n)
            at = starts[group, None] + np.arange(n)
            pos = positions[at]
            at = np.take_along_axis(at, np.lexsort((pos[..., 0], pos[..., 1])), 1)  # per image
            pos, vec = positions[at], vectors[at]
            step = max(1, ASSIGN_ROWS // n)
            parts = [soft_assign(vec[s : s + step], codebook, soft_k)
                     for s in range(0, len(group), step)]
            idx, w = (np.concatenate(a) for a in zip(*parts))

            image, size, offset = np.arange(len(group))[:, None], extents[group], 0
            bins = np.empty((len(PYRAMID_GRIDS), *idx.shape), dtype=np.intp)
            for level, (rows, cols) in enumerate(PYRAMID_GRIDS):
                r = _grid_index(pos[..., 1], size[:, 1:], rows)
                c = _grid_index(pos[..., 0], size[:, :1], cols)
                block = image * PYRAMID_BLOCKS + offset + r * cols + c
                np.add((block * k)[..., None], idx, out=bins[level])
                offset += rows * cols
            hist = np.bincount(
                bins.ravel(), np.tile(w.ravel(), len(PYRAMID_GRIDS)),
                minlength=len(group) * PYRAMID_BLOCKS * k,
            ).reshape(len(group), PYRAMID_BLOCKS, k)
            sums = hist.sum(axis=2, keepdims=True)
            np.divide(hist, sums, out=hist, where=sums > 0)
            out[channel][group] = hist.reshape(len(group), -1)
    return out


def _grid_index(coords: np.ndarray, extent: np.ndarray, cells: int) -> np.ndarray:
    idx = np.floor(coords * cells / extent).astype(np.intp)
    return np.clip(idx, 0, cells - 1)


def infer_image_sizes(positions: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Nominal (width, height) rows from dense-grid patch centers, image i
    owning the counts[i] rows after those of images 0 .. i-1: the last
    center sits half a patch from the image edge."""
    if not len(counts):
        return np.empty((0, 2))
    return np.maximum.reduceat(positions, np.cumsum(counts) - counts) + PATCH_SIZE / 2.0


def builtin_descriptors(pixels: np.ndarray, channel: str) -> DescriptorBlock:
    """Dense 20x20/stride-10 patches of a raster.

    gray-patch: mean-subtracted flattened grayscale patch (400-dim).
    color-hist: L1-normalized 4x4x4 RGB histogram of the patch (64-dim).
    """
    if channel not in BUILTIN_CHANNELS:
        raise PreconditionError(f"unknown builtin descriptor channel: {channel}")
    pixels = np.asarray(pixels)
    h, w = pixels.shape[:2]
    if h < PATCH_SIZE or w < PATCH_SIZE:
        raise PreconditionError(
            f"image {w}x{h} smaller than patch size {PATCH_SIZE}"
        )
    if pixels.ndim == 2:
        rgb = np.repeat(pixels[:, :, None], 3, axis=2)
    else:
        rgb = pixels
    gray = (
        0.299 * rgb[:, :, 0].astype(np.float64)
        + 0.587 * rgb[:, :, 1].astype(np.float64)
        + 0.114 * rgb[:, :, 2].astype(np.float64)
    )

    xs = range(0, w - PATCH_SIZE + 1, PATCH_STRIDE)
    ys = range(0, h - PATCH_SIZE + 1, PATCH_STRIDE)
    positions = []
    vectors = []
    half = PATCH_SIZE // 2
    for y0 in ys:
        for x0 in xs:
            positions.append((x0 + half, y0 + half))
            if channel == "gray-patch":
                patch = gray[y0 : y0 + PATCH_SIZE, x0 : x0 + PATCH_SIZE].ravel()
                vectors.append(patch - patch.mean())
            else:
                patch = rgb[y0 : y0 + PATCH_SIZE, x0 : x0 + PATCH_SIZE]
                bins = (patch.astype(np.intp) // 64).reshape(-1, 3)
                flat = bins[:, 0] * 16 + bins[:, 1] * 4 + bins[:, 2]
                hist = np.bincount(flat, minlength=64).astype(np.float64)
                vectors.append(hist / hist.sum())
    return DescriptorBlock(
        channel=channel,
        grid_positions=np.array(positions, dtype=np.float64),
        vectors=np.array(vectors, dtype=np.float64),
    )


def load_descriptors(image_path: str | Path, channel: str) -> DescriptorBlock:
    """Descriptors for one image and channel: computed from a .ppm raster
    for builtin channels, otherwise read from <stem>.<channel>.cbfv."""
    image_path = os.fspath(image_path)  # a str: no Path parse per frame
    if os.path.splitext(image_path)[1] == ".ppm":
        return builtin_descriptors(read_ppm(image_path), channel)
    positions, vectors = read_cbfv(f"{image_path}.{channel}.cbfv")
    return DescriptorBlock(channel=channel, grid_positions=positions, vectors=vectors)


def encode_from_path(
    image_path: str | Path,
    codebooks: dict[str, Codebook],
    soft_k: int = 5,
) -> dict[str, np.ndarray]:
    """One image file's {channel: vector}; see encode_paths. Nothing in
    the package calls it; the benchmark's per-layer list names it until
    its encode probes move to encode_paths (ROADMAP item 7)."""
    _, bad, matrices = encode_paths([image_path], codebooks, soft_k)
    if bad:
        raise bad[0][1]
    return {ch: m[0] for ch, m in matrices.items()}


def encode_paths(
    paths: list, codebooks: dict[str, Codebook], soft_k: int = 5
) -> tuple[list, list[tuple[object, Exception]], dict[str, np.ndarray]]:
    """Encode the images at paths in one encode_images batch.

    Returns (kept paths, (path, error) for each image whose descriptors
    failed to load or have no patches or another dim than the codebook's,
    {channel: (kept images x dim) histograms}).
    """
    (part,) = encode_path_groups([paths], codebooks, soft_k)
    return part


def encode_path_groups(
    groups: list[list], codebooks: dict[str, Codebook], soft_k: int = 5
) -> list[tuple[list, list[tuple[object, Exception]], dict[str, np.ndarray]]]:
    """encode_paths for each group of paths, all in one batch loaded as
    the module docstring says. A group's matrices are views of the
    batch's rows, which are bit for bit those of encoding the group
    alone; a path named twice is loaded and encoded twice."""
    if not codebooks:
        raise PreconditionError("no channels configured")
    paths = [path for group in groups for path in group]
    errors, stacked = _load_stacked(paths, codebooks)
    positions, _, counts = stacked[next(iter(codebooks))]
    matrices = _encode_stacked(stacked, codebooks, infer_image_sizes(positions, counts), soft_k)
    out, i, row = [], 0, 0
    for group in groups:
        kept, bad = [], []
        for path in group:
            if i in errors:
                bad.append((path, errors[i]))
            else:
                kept.append(path)
            i += 1
        out.append((kept, bad, {ch: m[row : row + len(kept)] for ch, m in matrices.items()}))
        row += len(kept)
    return out


def _load_stacked(
    paths: list, codebooks: dict[str, Codebook]
) -> tuple[dict[int, Exception], dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """({index: error} of the paths that cannot be encoded, the other
    paths' descriptors in _encode_stacked's form, in path order)."""
    names = [os.fspath(path) for path in paths]
    cbfv = [i for i, name in enumerate(names) if os.path.splitext(name)[1] != ".ppm"]
    decoded = {
        ch: decode_cbfv([_read_whole(f"{names[i]}.{ch}.cbfv") for i in cbfv], book.centers.shape[1])
        for ch, book in codebooks.items()
    }
    good = np.logical_and.reduce([ok for ok, _, _ in decoded.values()])
    stacked = {}
    for ch, (ok, records, counts) in decoded.items():
        if not good.all():  # drop the rows of images another channel failed
            keep = good[ok]
            records, counts = records[np.repeat(keep, counts)], counts[keep]
        stacked[ch] = (records[:, :2], records[:, 2:], counts)
    fast = np.zeros(len(paths), dtype=bool)
    fast[cbfv] = good
    errors, slow = {}, {}
    for i in np.flatnonzero(~fast).tolist():  # load alone: names a bad file
        try:
            blocks = {ch: load_descriptors(paths[i], ch) for ch in codebooks}
            for ch, block in blocks.items():
                (n, dim), want = block.vectors.shape, codebooks[ch].centers.shape[1]
                if not n or dim != want:
                    raise DataFormatError(
                        f"{paths[i]}.{ch}.cbfv: {n} patches of dim {dim}, codebook dim {want}"
                    )
        except (DataFormatError, PreconditionError) as exc:
            errors[i] = exc
        else:
            slow[i] = blocks
    if slow:  # .ppm images, or a file that changed between two reads
        pieces = {
            ch: zip(np.split(p, np.cumsum(c)[:-1]), np.split(v, np.cumsum(c)[:-1]))
            for ch, (p, v, c) in stacked.items()
        }
        blocks = [
            slow[i] if i in slow else {ch: DescriptorBlock(ch, *next(pieces[ch])) for ch in codebooks}
            for i in range(len(paths)) if i not in errors
        ]
        stacked = {ch: _stack([b[ch] for b in blocks]) for ch in codebooks}
    return errors, stacked


def _read_whole(path: str) -> bytes:
    """A file's bytes by plain system calls; b"" if it cannot be read."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            parts = [os.read(fd, _READ_SIZE)]
            while len(parts[-1]) == _READ_SIZE:
                parts.append(os.read(fd, _READ_SIZE))
        finally:
            os.close(fd)
    except OSError:
        return b""
    return b"".join(parts)
