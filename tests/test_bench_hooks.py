"""The benchmark's span tracer (bench/tracer.py) patches the methods its
METHODS table names, and every public function of the package; its
per-layer metrics (BENCHMARK.json) read those spans by name. A method or
function renamed or removed here makes every traced benchmark run fail,
so this checks each name against the program."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _traced_methods(monkeypatch) -> tuple:
    return _tracer(monkeypatch).METHODS


def test_every_traced_method_exists_on_its_class(monkeypatch):
    methods = _traced_methods(monkeypatch)
    assert methods
    for module_name, class_name, method, _span in methods:
        cls = getattr(importlib.import_module(f"conceptbank.{module_name}"), class_name)
        assert method in cls.__dict__, f"{module_name}.{class_name}.{method}"


def test_every_per_layer_span_name_exists_in_the_package(monkeypatch):
    spans = {span for *_, span in _traced_methods(monkeypatch)}
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked = 0
    for metric in metrics:
        parts = metric.split(".")
        if len(parts) != 3 or parts[2] not in ("calls", "self_s"):
            continue
        module_name, name, _field = parts
        if importlib.util.find_spec(f"conceptbank.{module_name}") is None:
            continue
        if f"{module_name}.{name}" in spans:
            checked += 1
            continue
        module = importlib.import_module(f"conceptbank.{module_name}")
        fn = getattr(module, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), metric
        assert fn.__module__ == module.__name__, metric
        checked += 1
    assert checked


def test_retrieve_still_binds_compute_kernel():
    # bench/tests/test_tracer.py checks that the tracer wraps compute_kernel
    # under both module names, though retrieve no longer calls it
    from conceptbank import detect, retrieve

    assert retrieve.compute_kernel is detect.compute_kernel


def test_every_formats_reader_and_writer_takes_a_path_first():
    # the tracer's read and write probes os.stat the first argument of
    # every public formats.read_* and formats.write_* function
    from conceptbank import formats

    checked = 0
    for name, fn in vars(formats).items():
        if name.startswith(("read_", "write_")) and inspect.isfunction(fn):
            assert next(iter(inspect.signature(fn).parameters)) == "path", name
            checked += 1
    assert checked


def test_the_represent_and_fuse_probes_read_real_results(monkeypatch):
    # a probe reads a call's arguments and result; one that no longer fits
    # them fails only inside a traced benchmark run, so run each on a real call
    from conceptbank import detect, retrieve, videorep

    probes = _tracer(monkeypatch).PROBES
    bank = detect.DetectorBank(
        concept_ids=["c1", "c2"], weights={"f": np.eye(2)}, bias=np.zeros(2),
        platt=np.array([[-1.0, -1.0], [0.0, 0.0]]),
    )
    args = (
        videorep.VideoManifestEntry("vid", ["f0", "f1", "f2"]),
        bank,
        lambda frames: (frames, [], {"f": np.ones((len(frames), 2))}),
    )
    rep = videorep.represent(*args, m=2)
    assert probes["videorep.represent"](args, {"m": 2}, rep) == {"videorep.frames_scored": 2}

    lists = [
        retrieve.rank_list_from_scores(cid, {"a": s, "b": 1.0 - s, "c": 0.5})
        for cid, s in (("c1", 0.9), ("c2", 0.1))
    ]
    fused = retrieve.fuse(lists)
    assert probes["retrieve.fuse"]((lists,), {}, fused) == {"retrieve.fuse.entries": 2 * 3}
