from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from conceptbank.errors import DataFormatError
from conceptbank.formats import (
    decode_cbfv,
    read_cbcb,
    read_cbdt,
    read_cbfh,
    read_cbfv,
    read_cbvr,
    read_ppm,
    write_cbcb,
    write_cbdt,
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


def test_many_descriptor_files_decode_at_once(tmp_path):
    rng = np.random.default_rng(3)
    blobs, expect = [], []
    for n in (3, 1, 5):
        path = tmp_path / f"{n}.cbfv"
        write_cbfv(path, rng.uniform(0, 50, size=(n, 2)), rng.normal(size=(n, 4)))
        blobs.append(path.read_bytes())
        expect.append(np.hstack(read_cbfv(path)))
    write_cbfv(tmp_path / "none.cbfv", np.empty((0, 2)), np.empty((0, 4)))
    write_cbfv(tmp_path / "dim.cbfv", np.zeros((2, 2)), np.zeros((2, 3)))
    spoiled = [
        b"", b"CBF", blobs[0][:-1], blobs[0] + bytes(24), b"XBFV" + blobs[0][4:],
        blobs[0][:4] + struct.pack("<I", 2) + blobs[0][8:],
        (tmp_path / "none.cbfv").read_bytes(), (tmp_path / "dim.cbfv").read_bytes(),
    ]
    # each spoiled file between two good ones
    ok, records, counts = decode_cbfv([blobs[0], *spoiled, blobs[1], blobs[2]], dim=4)
    assert ok.tolist() == [True] + [False] * len(spoiled) + [True, True]
    assert counts.tolist() == [3, 1, 5]
    assert records.dtype == np.float64 and np.array_equal(records, np.vstack(expect))
    ok, records, counts = decode_cbfv([], dim=4)
    assert ok.shape == (0,) and records.shape == (0, 6) and counts.shape == (0,)


def test_feature_set_file_round_trip(tmp_path):
    path = tmp_path / "features.cbfh"
    ids = ["img-2", "img-10", "img-1"]
    channels = {
        "syn-b": np.linspace(0.0, 1.0, 12, dtype=np.float32).astype(np.float64).reshape(3, 4),
        "syn-a": np.zeros((3, 2)),
    }
    write_cbfh(path, ids, channels)
    got_ids, got = read_cbfh(path)
    assert got_ids == ids  # row order kept, not sorted
    assert list(got) == ["syn-b", "syn-a"]  # channel order kept
    for name in channels:
        assert got[name].dtype == np.float64
        assert np.array_equal(got[name], channels[name])
    write_cbfh(path, [], {"syn-a": np.zeros((0, 3))})
    got_ids, got = read_cbfh(path)
    assert got_ids == [] and got["syn-a"].shape == (0, 3)


def _table(magic: bytes, header) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<I", len(raw)) + raw


def test_feature_set_file_errors(tmp_path):
    path = tmp_path / "bad.cbfh"
    path.write_bytes(b"XXXX\x00\x00\x00\x00")
    with pytest.raises(DataFormatError, match="not a CBFH"):
        read_cbfh(path)
    write_cbfh(path, ["i1"], {"a": np.zeros((1, 4))})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError, match="not 4 values"):
        read_cbfh(path)
    good = {"image_ids": ["i1", "i2"], "channels": [["a", 1], ["b", 2]]}
    cases = [  # (header change, message)
        (lambda h: h.pop("image_ids"), "no key 'image_ids'"),
        (lambda h: h.pop("channels"), "no key 'channels'"),
        (lambda h: h.update(image_ids="i1"), "image_ids must be a list of str"),
        (lambda h: h.update(image_ids=["i1", 2]), "image_ids must be a list of str"),
        (lambda h: h.update(image_ids=["i1", "i1"]), "repeated id in image_ids"),
        (lambda h: h.update(channels={"a": 1}), "channels must be a list of list"),
        (lambda h: h.update(channels=[["a", 1, 2]]), "channels must be \\[name, dim\\] pairs"),
        (lambda h: h.update(channels=[["a", "1"]]), "channels must be \\[name, dim\\] pairs"),
        (lambda h: h.update(channels=[["a", -1], ["b", 2]]), "channels must be \\[name, dim\\] pairs"),
        (lambda h: h.update(channels=[["a", True]]), "channels must be \\[name, dim\\] pairs"),
        (lambda h: h.update(channels=[[1, 1]]), "channel names must be a list of str"),
        (lambda h: h.update(channels=[["a", 1], ["a", 2]]), "repeated id in channel names"),
    ]
    for change, message in cases:
        header = json.loads(json.dumps(good))
        change(header)
        path.write_bytes(_table(b"CBFH", header) + bytes(4 * 6))
        with pytest.raises(DataFormatError, match=f"{message}.*bad.cbfh"):
            read_cbfh(path)
    for header in ([], "x", 3):
        path.write_bytes(_table(b"CBFH", header))
        with pytest.raises(DataFormatError, match="not a JSON object"):
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
    path = tmp_path / "test.cbvr"
    header = {
        "split": "test",
        "video_ids": ["vid-1", "vid-7", "vid-9"],
        "concept_ids": ["c2", "c1", "c3"],
        "frames_used": [3, 4, 1],
    }
    scores = np.arange(9, dtype=np.float32).reshape(3, 3).astype(np.float64) / 8
    write_cbvr(path, header, scores)
    got_header, got_scores = read_cbvr(path)
    assert got_header == header
    assert got_scores.dtype == np.float64
    assert np.array_equal(got_scores, scores)
    write_cbvr(path, dict(header, video_ids=[], frames_used=[]), np.zeros((0, 3)))
    assert read_cbvr(path)[1].shape == (0, 3)
    path.write_bytes(b"VRRR")
    with pytest.raises(DataFormatError, match="not a CBVR"):
        read_cbvr(path)


def test_video_representation_header_errors(tmp_path):
    path = tmp_path / "bad.cbvr"
    good = {"split": "test", "video_ids": ["v1", "v2"], "concept_ids": ["c1"], "frames_used": [2, 2]}
    cases = [  # (header change, message)
        (lambda h: h.pop("split"), "no key 'split'"),
        (lambda h: h.pop("video_ids"), "no key 'video_ids'"),
        (lambda h: h.pop("concept_ids"), "no key 'concept_ids'"),
        (lambda h: h.pop("frames_used"), "no key 'frames_used'"),
        (lambda h: h.update(split=1), "split must be a str"),
        (lambda h: h.update(video_ids=["v1", None]), "video_ids must be a list of str"),
        (lambda h: h.update(video_ids=["v1", "v1"]), "repeated id in video_ids"),
        (lambda h: h.update(concept_ids="c1"), "concept_ids must be a list of str"),
        (lambda h: h.update(concept_ids=["c1", "c1"]), "repeated id in concept_ids"),
        (lambda h: h.update(frames_used=2), "frames_used must be a list of int"),
        (lambda h: h.update(frames_used=[2, 2.0]), "frames_used must be a list of int"),
        (lambda h: h.update(frames_used=[2]), "1 frames_used for 2 videos"),
        (lambda h: h.update(frames_used=[2, 2, 2]), "3 frames_used for 2 videos"),
    ]
    for change, message in cases:
        header = json.loads(json.dumps(good))
        change(header)
        path.write_bytes(_table(b"CBVR", header) + bytes(4 * 2))
        with pytest.raises(DataFormatError, match=f"{message}.*bad.cbvr"):
            read_cbvr(path)


DETECTOR_HEADER = {
    "concept_ids": ["c1", "c2"],
    "bias": [0.5, -0.25],
    "platt": [[-1.5, 0.125], [-2.0, 0.0]],
    "beta": [[1.0, 0.0], [0.375, 0.625]],
}


def test_detector_table_round_trip(tmp_path):
    path = tmp_path / "detectors.cbdt"
    weights = {
        "syn-b": np.linspace(-1.0, 1.0, 8, dtype=np.float32).astype(np.float64).reshape(2, 4),
        "syn-a": np.zeros((2, 3)),
    }
    write_cbdt(path, DETECTOR_HEADER, weights)
    header, got = read_cbdt(path)
    assert header == {**DETECTOR_HEADER, "channels": [["syn-b", 4], ["syn-a", 3]]}
    assert list(got) == ["syn-b", "syn-a"]  # channel order kept
    for name in weights:
        assert got[name].dtype == np.float64
        assert np.array_equal(got[name], weights[name])
    empty = {"concept_ids": [], "bias": [], "platt": [], "beta": []}
    write_cbdt(path, empty, {"syn-a": np.zeros((0, 3))})
    assert read_cbdt(path)[1]["syn-a"].shape == (0, 3)
    path.write_bytes(b"CBDX")
    with pytest.raises(DataFormatError, match="not a CBDT"):
        read_cbdt(path)


def test_detector_table_header_errors(tmp_path):
    path = tmp_path / "bad.cbdt"
    good = {**DETECTOR_HEADER, "channels": [["a", 1], ["b", 2]]}
    cases = [  # (header change, message)
        (lambda h: h.pop("concept_ids"), "no key 'concept_ids'"),
        (lambda h: h.pop("channels"), "no key 'channels'"),
        (lambda h: h.pop("bias"), "no key 'bias'"),
        (lambda h: h.pop("platt"), "no key 'platt'"),
        (lambda h: h.pop("beta"), "no key 'beta'"),
        (lambda h: h.update(concept_ids=["c1", "c1"]), "repeated id in concept_ids"),
        (lambda h: h.update(concept_ids=["c1", 2]), "concept_ids must be a list of str"),
        (lambda h: h.update(channels=[["a", 1], ["a", 2]]), "repeated id in channel names"),
        (lambda h: h.update(channels=[["a", -3]]), "channels must be \\[name, dim\\] pairs"),
        (lambda h: h.update(bias=[0.5, 1]), "bias must be a list of float"),
        (lambda h: h.update(bias=[0.5]), "1 bias entries for 2 concepts"),
        (lambda h: h.update(platt=[[-1.0, 0.0]]), "1 platt entries for 2 concepts"),
        (lambda h: h.update(platt=[[-1.0], [-1.0]]), "platt rows must hold 2 floats"),
        (lambda h: h.update(platt=[[-1.0, "0"], [-1.0, 0.0]]), "platt must be a list of float"),
        (lambda h: h.update(platt="x"), "platt must be a list of list"),
        (lambda h: h.update(beta=[[1.0, 0.0]] * 3), "3 beta entries for 2 concepts"),
        (lambda h: h.update(beta=[[1.0], [1.0]]), "beta rows must hold 2 floats"),
        (lambda h: h.update(beta=[[1.0, 0], [1.0, 0.0]]), "beta must be a list of float"),
    ]
    for change, message in cases:
        header = json.loads(json.dumps(good))
        change(header)
        path.write_bytes(_table(b"CBDT", header) + bytes(4 * 6))
        with pytest.raises(DataFormatError, match=f"{message}.*bad.cbdt"):
            read_cbdt(path)
    for header in ([], "x", 3):
        path.write_bytes(_table(b"CBDT", header))
        with pytest.raises(DataFormatError, match="not a JSON object"):
            read_cbdt(path)
    path.write_bytes(_table(b"CBDT", good) + bytes(4 * 5))
    with pytest.raises(DataFormatError, match="not 6 values.*bad.cbdt"):
        read_cbdt(path)


WRITERS = {
    "cbfv": (
        lambda p: write_cbfv(p, np.zeros((2, 2)), np.ones((2, 3))), read_cbfv
    ),
    "cbfh": (
        lambda p: write_cbfh(p, ["i1", "i2"], {"syn-a": np.ones((2, 3)), "syn-b": np.zeros((2, 2))}),
        read_cbfh,
    ),
    "cbcb": (lambda p: write_cbcb(p, "syn-a", np.ones((2, 3)), 7, 0.5), read_cbcb),
    "cbdt": (
        lambda p: write_cbdt(p, DETECTOR_HEADER, {"syn-a": np.ones((2, 3)), "syn-b": np.zeros((2, 2))}),
        read_cbdt,
    ),
    "cbvr": (
        lambda p: write_cbvr(
            p,
            {"split": "test", "video_ids": ["v1", "v2"], "concept_ids": ["c1", "c2"], "frames_used": [1, 2]},
            np.ones((2, 2)),
        ),
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
