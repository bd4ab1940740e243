from __future__ import annotations

import numpy as np
import pytest

from conceptbank.errors import DataFormatError
from conceptbank.formats import (
    read_cbcb,
    read_cbfh,
    read_cbfv,
    read_cbvr,
    read_ppm,
    write_cbcb,
    write_cbfh,
    write_cbfv,
    write_cbvr,
    write_ppm,
)


def test_descriptor_file_round_trip(tmp_path):
    path = tmp_path / "img.g.cbfv"
    positions = np.array([[10.0, 10.0], [20.0, 10.0]])
    vectors = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    write_cbfv(path, positions, vectors)
    got_pos, got_vec = read_cbfv(path)
    assert got_pos.dtype == np.float64 and got_vec.dtype == np.float64
    assert np.array_equal(got_pos, positions)
    assert np.array_equal(got_vec, vectors)


def test_descriptor_file_zero_patches(tmp_path):
    path = tmp_path / "empty.g.cbfv"
    write_cbfv(path, np.empty((0, 2)), np.empty((0, 4)))
    pos, vec = read_cbfv(path)
    assert pos.shape == (0, 2) and vec.shape == (0, 4)


def test_descriptor_file_errors(tmp_path):
    path = tmp_path / "bad.cbfv"
    with pytest.raises(DataFormatError, match="row count"):
        write_cbfv(path, np.zeros((2, 2)), np.zeros((3, 4)))
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DataFormatError, match="not a CBFV"):
        read_cbfv(path)
    write_cbfv(path, np.zeros((2, 2)), np.zeros((2, 4)))
    whole = path.read_bytes()
    path.write_bytes(whole[:-3])
    with pytest.raises(DataFormatError, match="truncated"):
        read_cbfv(path)
    path.write_bytes(b"CBFV" + bytes(12)[:1] + b"\x00\x00\x00" + whole[8:])
    with pytest.raises(DataFormatError, match="version"):
        read_cbfv(path)
    with pytest.raises(DataFormatError, match="cannot read"):
        read_cbfv(tmp_path / "absent.cbfv")


def test_feature_set_file_round_trip(tmp_path):
    path = tmp_path / "img.cbfh"
    channels = {
        "syn-a": np.linspace(0.0, 1.0, 16, dtype=np.float32).astype(np.float64),
        "syn-b": np.zeros(8),
    }
    write_cbfh(path, channels)
    got = read_cbfh(path)
    assert list(got) == ["syn-a", "syn-b"]  # insertion order preserved
    for name in channels:
        assert np.array_equal(got[name], channels[name])


def test_feature_set_file_errors(tmp_path):
    path = tmp_path / "bad.cbfh"
    path.write_bytes(b"XXXX\x00\x00\x00\x00")
    with pytest.raises(DataFormatError, match="not a CBFH"):
        read_cbfh(path)
    write_cbfh(path, {"a": np.zeros(4)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError, match="trailing bytes"):
        read_cbfh(path)


def test_codebook_file_round_trip(tmp_path):
    path = tmp_path / "syn-a.cbcb"
    centers = np.arange(12, dtype=np.float32).reshape(4, 3).astype(np.float64)
    write_cbcb(path, "syn-a", centers, train_seed=42, soft_sigma=0.75)
    name, got, seed, sigma = read_cbcb(path)
    assert name == "syn-a"
    assert np.array_equal(got, centers)
    assert seed == 42
    assert sigma == 0.75


def test_codebook_file_errors(tmp_path):
    path = tmp_path / "bad.cbcb"
    path.write_bytes(b"WRNG")
    with pytest.raises(DataFormatError, match="not a CBCB"):
        read_cbcb(path)
    write_cbcb(path, "c", np.zeros((2, 2)), 0, 1.0)
    data = bytearray(path.read_bytes())
    data[4] = 99  # version byte
    path.write_bytes(bytes(data))
    with pytest.raises(DataFormatError, match="version"):
        read_cbcb(path)


def test_video_representation_round_trip(tmp_path):
    path = tmp_path / "vid.cbvr"
    header = {"video_id": "vid-7", "concept_ids": ["c2", "c1"], "frames_used": 3}
    scores = np.array([0.25, 0.5], dtype=np.float32).astype(np.float64)
    write_cbvr(path, header, scores)
    got_header, got_scores = read_cbvr(path)
    assert got_header == header
    assert np.array_equal(got_scores, scores)
    path.write_bytes(b"VRRR")
    with pytest.raises(DataFormatError, match="not a CBVR"):
        read_cbvr(path)


WRITERS = {
    "cbfv": (
        lambda p: write_cbfv(p, np.zeros((2, 2)), np.ones((2, 3))), read_cbfv
    ),
    "cbfh": (
        lambda p: write_cbfh(p, {"syn-a": np.ones(3), "syn-b": np.zeros(2)}),
        read_cbfh,
    ),
    "cbcb": (lambda p: write_cbcb(p, "syn-a", np.ones((2, 3)), 7, 0.5), read_cbcb),
    "cbvr": (
        lambda p: write_cbvr(p, {"concept_ids": ["c1", "c2"]}, np.ones(2)),
        read_cbvr,
    ),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_truncated_or_padded_binary_files_are_rejected(tmp_path, kind):
    write, read = WRITERS[kind]
    path = tmp_path / f"file.{kind}"
    write(path)
    whole = path.read_bytes()
    read(path)
    for blob in [whole[:cut] for cut in range(len(whole))] + [whole + bytes(4)]:
        path.write_bytes(blob)
        with pytest.raises(DataFormatError, match=f"file.{kind}"):
            read(path)


def test_ppm_round_trip_color_and_gray(tmp_path):
    rgb = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    assert np.array_equal(read_ppm(path), rgb)
    gray = np.arange(8, dtype=np.uint8).reshape(2, 4)
    write_ppm(path, gray)
    assert np.array_equal(read_ppm(path), gray)


def test_ppm_header_comments_and_errors(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
    assert read_ppm(path).shape == (1, 2, 3)
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(DataFormatError, match="undecodable image"):
        read_ppm(path)
    path.write_bytes(b"P6\n2 1\n65535\n" + bytes(12))
    with pytest.raises(DataFormatError, match="maxval"):
        read_ppm(path)
    path.write_bytes(b"P6\n2 1\n255\n\x00")
    with pytest.raises(DataFormatError, match="truncated"):
        read_ppm(path)
    with pytest.raises(DataFormatError, match="unsupported pixel shape"):
        write_ppm(path, np.zeros((2, 2, 4), dtype=np.uint8))
