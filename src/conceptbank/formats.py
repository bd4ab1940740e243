"""Binary file formats used by the model store and data exchange.

All multi-byte values are little-endian. Formats:

  CBFV  per-image, per-channel raw descriptors
        "CBFV" u32 version, u32 patch_count, u32 dim,
        then patch_count * (f32 x, f32 y, f32[dim])
  CBFH  encoded multi-channel feature set
        "CBFH" u32 channel_count, per channel:
        u32 name_len, name bytes (utf-8), u32 dim, f32[dim]
  CBCB  trained codebook
        "CBCB" u32 version, u32 name_len, name bytes, u32 k, u32 dim,
        u64 train_seed, f64 soft_sigma, f32[k*dim] centers
  CBVR  video representation
        "CBVR" u32 header_len, JSON header bytes, f32[n] scores

PPM images (binary P6 RGB / P5 gray, maxval 255) are the only natively
decoded raster format; everything else enters via CBFV files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

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
    """Returns (positions (n,2) float64, vectors (n,dim) float64)."""
    data = _read_bytes(path)
    if data[:4] != b"CBFV" or len(data) < 16:
        raise DataFormatError(f"not a CBFV file: {path}")
    version, count, dim = struct.unpack_from("<III", data, 4)
    if version != CBFV_VERSION:
        raise DataFormatError(f"unsupported CBFV version {version}: {path}")
    expected = 16 + count * (2 + dim) * 4
    if len(data) != expected:
        raise DataFormatError(f"truncated CBFV file: {path}")
    records = np.frombuffer(data, dtype="<f4", offset=16).reshape(count, 2 + dim)
    return records[:, :2].astype(np.float64), records[:, 2:].astype(np.float64)


def write_cbfh(path: str | Path, channels: dict[str, np.ndarray]) -> None:
    parts = [b"CBFH", struct.pack("<I", len(channels))]
    for name, vec in channels.items():
        raw = name.encode("utf-8")
        vec = np.asarray(vec, dtype="<f4").ravel()
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", vec.size))
        parts.append(vec.tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_cbfh(path: str | Path) -> dict[str, np.ndarray]:
    data = _read_bytes(path)
    if data[:4] != b"CBFH" or len(data) < 8:
        raise DataFormatError(f"not a CBFH file: {path}")
    (channel_count,) = struct.unpack_from("<I", data, 4)
    offset = 8
    channels: dict[str, np.ndarray] = {}
    try:
        for _ in range(channel_count):
            (name_len,) = struct.unpack_from("<I", data, offset)
            offset += 4
            name = data[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (dim,) = struct.unpack_from("<I", data, offset)
            offset += 4
            vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
            offset += dim * 4
            channels[name] = vec.astype(np.float64)
    except (struct.error, ValueError):  # ValueError covers bad utf-8
        raise DataFormatError(f"truncated or corrupt CBFH file: {path}") from None
    if offset != len(data):
        raise DataFormatError(f"trailing bytes in CBFH file: {path}")
    return channels


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
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"CBVR")
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(np.asarray(scores, dtype="<f4").ravel().tobytes())


def read_cbvr(path: str | Path) -> tuple[dict, np.ndarray]:
    data = _read_bytes(path)
    if data[:4] != b"CBVR" or len(data) < 8:
        raise DataFormatError(f"not a CBVR file: {path}")
    (header_len,) = struct.unpack_from("<I", data, 4)
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
        n = len(header["concept_ids"])
    except (ValueError, KeyError, TypeError):  # ValueError covers bad JSON
        raise DataFormatError(f"bad CBVR header: {path}") from None
    if len(data) != 8 + header_len + 4 * n:
        raise DataFormatError(f"CBVR file is not {n} scores: {path}")
    scores = np.frombuffer(data, dtype="<f4", offset=8 + header_len)
    return header, scores.astype(np.float64)


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
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
