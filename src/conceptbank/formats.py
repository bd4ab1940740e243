"""Binary file formats used by the model store and data exchange.

All multi-byte values are little-endian. Formats:

  CBFV  per-image, per-channel raw descriptors
        "CBFV" u32 version, u32 patch_count, u32 dim,
        then patch_count * (f32 x, f32 y, f32[dim])
  CBFH  every image's encoded features, a table whose header lists
        image_ids and [channel, dim] pairs; one (images x dim) block per
        channel
  CBCB  trained codebook
        "CBCB" u32 version, u32 name_len, name bytes, u32 k, u32 dim,
        u64 train_seed, f64 soft_sigma, f32[k*dim] centers
  CBVR  one split's video representations, a table whose header lists
        split, video_ids, concept_ids and frames_used; (videos x concepts)
  CBDT  the linear concept detectors folded into weights, a table whose
        header lists sorted concept_ids, [channel, dim] pairs and, per
        concept, bias, platt [A, B] and beta (one weight per channel); one
        (concepts x dim) block per channel

A table is the magic, u32 header_len, a sorted-key JSON header, then the
f32 payload; its reader checks the header's keys and types, that its ids
are distinct and that the payload has exactly the size the header implies.

PPM images (binary P6 RGB / P5 gray, maxval 255) are the only natively
decoded raster format; everything else enters via CBFV files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataFormatError

CBFV_VERSION = 1
CBCB_VERSION = 1


def write_cbfv(path: str | Path, positions: np.ndarray, vectors: np.ndarray) -> None:
    positions = np.asarray(positions, dtype=np.float32)
    vectors = np.asarray(vectors, dtype=np.float32)
    if positions.shape[0] != vectors.shape[0]:
        raise DataFormatError("positions/vectors row count mismatch")
    count, dim = vectors.shape
    records = np.concatenate([positions.reshape(count, 2), vectors], axis=1)
    with open(path, "wb") as fh:
        fh.write(b"CBFV")
        fh.write(struct.pack("<III", CBFV_VERSION, count, dim))
        fh.write(records.astype("<f4").tobytes())


def read_cbfv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (positions (n,2) float64, vectors (n,dim) float64), column
    views of one converted array."""
    data = _read_bytes(path)
    if data[:4] != b"CBFV" or len(data) < 16:
        raise DataFormatError(f"not a CBFV file: {path}")
    version, count, dim = struct.unpack_from("<III", data, 4)
    if version != CBFV_VERSION:
        raise DataFormatError(f"unsupported CBFV version {version}: {path}")
    expected = 16 + count * (2 + dim) * 4
    if len(data) != expected:
        raise DataFormatError(f"truncated CBFV file: {path}")
    records = np.frombuffer(data, dtype="<f4", offset=16).astype(np.float64)
    records = records.reshape(count, 2 + dim)
    return records[:, :2], records[:, 2:]


def write_cbfh(path: str | Path, image_ids: list[str], channels: dict[str, np.ndarray]) -> None:
    """channels maps each channel to its (images x dim) rows, in image_ids order."""
    dims = [[c, m.shape[1]] for c, m in channels.items()]
    _write_table(path, b"CBFH", {"image_ids": list(image_ids), "channels": dims}, channels.values())


def read_cbfh(path: str | Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Returns (image ids, {channel: (images x dim) float64}), in file order."""
    header, values = _read_table(path, b"CBFH", _cbfh_size)
    return header["image_ids"], _channel_blocks(header, values, len(header["image_ids"]))


def _cbfh_size(header: dict) -> int:
    ids = _listed(header["image_ids"], str, "image_ids", distinct=True)
    return len(ids) * sum(_channel_dims(header))


def _channel_blocks(header: dict, values: np.ndarray, rows: int) -> dict[str, np.ndarray]:
    """The payload split into one (rows x dim) block per header channel."""
    blocks, offset = {}, 0
    for name, dim in header["channels"]:
        blocks[name] = values[offset : offset + rows * dim].reshape(rows, dim)
        offset += rows * dim
    return blocks


def _channel_dims(header: dict) -> list[int]:
    channels = _listed(header["channels"], list, "channels")
    if not all(len(c) == 2 and type(c[1]) is int and c[1] >= 0 for c in channels):
        raise TypeError("channels must be [name, dim] pairs")
    _listed([c[0] for c in channels], str, "channel names", distinct=True)
    return [dim for _, dim in channels]


def write_cbdt(path: str | Path, header: dict, weights: dict[str, np.ndarray]) -> None:
    """header holds concept_ids, bias, platt and beta; weights maps each
    channel to its (concepts x dim) rows, in concept_ids order."""
    dims = [[c, w.shape[1]] for c, w in weights.items()]
    _write_table(path, b"CBDT", {**header, "channels": dims}, weights.values())


def read_cbdt(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (header, {channel: (concepts x dim) float64}), in file order."""
    header, values = _read_table(path, b"CBDT", _cbdt_size)
    return header, _channel_blocks(header, values, len(header["concept_ids"]))


def _cbdt_size(header: dict) -> int:
    n = len(_listed(header["concept_ids"], str, "concept_ids", distinct=True))
    dims = _channel_dims(header)
    per_concept = {"bias": _listed(header["bias"], float, "bias")}
    for key, width in (("platt", 2), ("beta", len(dims))):
        per_concept[key] = _listed(header[key], list, key)
        if not all(len(_listed(row, float, key)) == width for row in per_concept[key]):
            raise ValueError(f"{key} rows must hold {width} floats")
    for key, values in per_concept.items():
        if len(values) != n:
            raise ValueError(f"{len(values)} {key} entries for {n} concepts")
    return n * sum(dims)


def write_cbcb(
    path: str | Path,
    channel: str,
    centers: np.ndarray,
    train_seed: int,
    soft_sigma: float,
) -> None:
    centers = np.asarray(centers, dtype="<f4")
    k, dim = centers.shape
    raw = channel.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"CBCB")
        fh.write(struct.pack("<II", CBCB_VERSION, len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<IIQd", k, dim, train_seed, float(soft_sigma)))
        fh.write(centers.tobytes())


def read_cbcb(path: str | Path) -> tuple[str, np.ndarray, int, float]:
    """Returns (channel name, centers (k,dim) float64, train_seed, soft_sigma)."""
    data = _read_bytes(path)
    if data[:4] != b"CBCB" or len(data) < 12:
        raise DataFormatError(f"not a CBCB file: {path}")
    version, name_len = struct.unpack_from("<II", data, 4)
    if version != CBCB_VERSION:
        raise DataFormatError(f"unsupported CBCB version {version}: {path}")
    offset = 12 + name_len
    if len(data) < offset + 24:
        raise DataFormatError(f"truncated CBCB file: {path}")
    k, dim, seed, sigma = struct.unpack_from("<IIQd", data, offset)
    if len(data) != offset + 24 + 4 * k * dim:
        raise DataFormatError(f"CBCB file is not {k}x{dim} centers: {path}")
    try:
        name = data[12:offset].decode("utf-8")
    except UnicodeDecodeError:
        raise DataFormatError(f"bad channel name in CBCB file: {path}") from None
    centers = np.frombuffer(data, dtype="<f4", offset=offset + 24)
    return name, centers.reshape(k, dim).astype(np.float64), seed, sigma


def write_cbvr(path: str | Path, header: dict, scores: np.ndarray) -> None:
    """scores is (videos x concepts), as header's video_ids and concept_ids."""
    _write_table(path, b"CBVR", header, [scores])


def read_cbvr(path: str | Path) -> tuple[dict, np.ndarray]:
    """Returns (header, (videos x concepts) float64 scores)."""
    header, values = _read_table(path, b"CBVR", _cbvr_size)
    return header, values.reshape(len(header["video_ids"]), len(header["concept_ids"]))


def _cbvr_size(header: dict) -> int:
    videos = _listed(header["video_ids"], str, "video_ids", distinct=True)
    frames = _listed(header["frames_used"], int, "frames_used")
    if type(header["split"]) is not str:
        raise TypeError("split must be a str")
    if len(frames) != len(videos):
        raise ValueError(f"{len(frames)} frames_used for {len(videos)} videos")
    return len(videos) * len(_listed(header["concept_ids"], str, "concept_ids"))


def _listed(value, kind: type, key: str, distinct: bool = False) -> list:
    if type(value) is not list or not all(type(v) is kind for v in value):
        raise TypeError(f"{key} must be a list of {kind.__name__}")
    if distinct and len(set(value)) != len(value):
        raise ValueError(f"repeated id in {key}")
    return value


def _write_table(path: str | Path, magic: bytes, header: dict, blocks) -> None:
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [magic, struct.pack("<I", len(raw)), raw]
    parts += [np.asarray(b, dtype="<f4").tobytes() for b in blocks]
    Path(path).write_bytes(b"".join(parts))


def _read_table(
    path: str | Path, magic: bytes, size: Callable[[dict], int]
) -> tuple[dict, np.ndarray]:
    """(header, float64 payload) of a table file. size(header) checks the
    header, raising KeyError, TypeError or ValueError, and returns the
    payload's value count."""
    data, kind = _read_bytes(path), magic.decode()
    if data[:4] != magic or len(data) < 8:
        raise DataFormatError(f"not a {kind} file: {path}")
    (header_len,) = struct.unpack_from("<I", data, 4)
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
        if type(header) is not dict:
            raise TypeError("not a JSON object")
        n = size(header)
    except KeyError as exc:
        raise DataFormatError(f"bad {kind} header, no key {exc}: {path}") from None
    except (TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise DataFormatError(f"bad {kind} header, {exc}: {path}") from None
    if len(data) != 8 + header_len + 4 * n:
        raise DataFormatError(f"{kind} file is not {n} values: {path}")
    return header, np.frombuffer(data, dtype="<f4", offset=8 + header_len).astype(np.float64)


def write_ppm(path: str | Path, pixels: np.ndarray) -> None:
    """Write uint8 pixels as binary PPM: (h,w,3) -> P6, (h,w) -> P5."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
    elif pixels.ndim == 2:
        magic = b"P5"
    else:
        raise DataFormatError(f"unsupported pixel shape {pixels.shape}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM/PGM (maxval 255). Returns (h,w,3) or (h,w) uint8."""
    data = _read_bytes(path)
    magic = data[:2]
    if magic not in (b"P6", b"P5"):
        raise DataFormatError(f"undecodable image (expected binary PPM/PGM): {path}")
    fields: list[int] = []
    offset = 2
    while len(fields) < 3:
        while offset < len(data) and data[offset : offset + 1].isspace():
            offset += 1
        if data[offset : offset + 1] == b"#":
            while offset < len(data) and data[offset] != 0x0A:
                offset += 1
            continue
        start = offset
        while offset < len(data) and not data[offset : offset + 1].isspace():
            offset += 1
        try:
            fields.append(int(data[start:offset]))
        except ValueError:
            raise DataFormatError(f"bad PPM header: {path}") from None
    offset += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise DataFormatError(f"unsupported PPM maxval {maxval}: {path}")
    depth = 3 if magic == b"P6" else 1
    expected = w * h * depth
    if len(data) - offset < expected:
        raise DataFormatError(f"truncated PPM raster: {path}")
    raster = np.frombuffer(data, dtype=np.uint8, count=expected, offset=offset)
    if depth == 3:
        return raster.reshape(h, w, 3).copy()
    return raster.reshape(h, w).copy()


def _read_bytes(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
