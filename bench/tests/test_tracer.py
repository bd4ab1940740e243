"""Self-tests of the benchmark's tracer and its metric lists.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import threading
import types

import pytest

import run
from tracer import Span, Tracer, layer_value, self_times, span_table

ROOT = run.ROOT


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "a", 0.0, 10.0, None, 1),
        Span(1, "b", 1.0, 4.0, 0, 1),
        Span(2, "c", 2.0, 3.0, 1, 1),
        Span(3, "b", 5.0, 9.0, 0, 1),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    table = span_table(spans)
    assert table["b"] == {"calls": 2, "self_s": 6.0, "total_s": 7.0}


def test_self_time_of_overlapping_children_on_two_threads():
    # Two worker-thread children overlap on [3, 5]: the parent is covered
    # by their union [1, 8], not by the sum of their durations.
    spans = [
        Span(0, "stage", 0.0, 10.0, None, 1),
        Span(1, "job", 1.0, 5.0, 0, 2),
        Span(2, "job", 3.0, 8.0, 0, 3),
        Span(3, "leaf", 4.0, 4.5, 2, 3),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(4.5)


TOY = """
from concurrent.futures import ThreadPoolExecutor

def leaf(x):
    return x * 2

def stage():
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(leaf, range(6)))
"""


def test_worker_thread_spans_take_the_waiting_span_as_parent(monkeypatch):
    toy = types.ModuleType("toy")
    exec(TOY, toy.__dict__)
    monkeypatch.setitem(sys.modules, "toy", toy)
    original = toy.leaf
    with Tracer(package="toy", methods=()) as tracer:
        assert toy.stage() == [0, 2, 4, 6, 8, 10]
    assert toy.leaf is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (stage_span,) = by_name["toy.stage"]
    assert len(by_name["toy.leaf"]) == 6
    assert {s.parent for s in by_name["toy.leaf"]} == {stage_span.sid}
    assert threading.get_ident() not in {s.thread for s in by_name["toy.leaf"]}


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every conceptbank module and class, by identity."""
    import conceptbank.pipeline  # noqa: F401  (imports every layer)

    out = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("conceptbank"):
            continue
        for attr, obj in vars(module).items():
            out[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for meth, raw in vars(obj).items():
                    out[(f"{name}.{attr}", meth)] = raw
    return out


def test_every_wrapped_name_is_restored_after_a_traced_run(tmp_path):
    from conceptbank import detect, pipeline, retrieve
    from conceptbank.config import PipelineConfig
    from conceptbank.fixture import generate_fixture

    generate_fixture(tmp_path / "corpus", seed=0, images_per_concept=20, videos_per_event=6)
    config = PipelineConfig.from_file(tmp_path / "corpus" / "config.json")
    before = _bindings()
    original_kernel = detect.compute_kernel
    tracer = Tracer()
    with tracer:
        # one function bound under several modules is wrapped in each
        assert detect.compute_kernel is retrieve.compute_kernel
        assert detect.compute_kernel is not original_kernel
        assert pipeline.read_cbfh.__wrapped__.__module__ == "conceptbank.formats"
        for stage in pipeline.STAGES:
            pipeline.run_stage(stage, config, tmp_path / "store")
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    names = {s.name for s in tracer.spans}
    assert {f"pipeline.stage.{s}" for s in pipeline.STAGES} <= names
    assert "detect.problem_check" in names and "store.write_json" in names


def test_layer_value_rejects_names_nothing_records():
    table = {"detect.fit_platt": {"calls": 2, "self_s": 0.5, "total_s": 0.5}}
    known = {"detect.fit_platt", "detect.compute_kernel"}
    assert layer_value("detect.fit_platt.self_s", table, {}, known) == 0.5
    assert layer_value("detect.compute_kernel.calls", table, {}, known) == 0
    assert layer_value("detect.calls", table, {}, known) == 2
    assert layer_value("detect.support_vectors", table, {}, known) == 0
    with pytest.raises(KeyError):
        layer_value("detect.fit_plat.self_s", table, {}, known)


def test_benchmark_json_lists_the_metrics_the_command_prints():
    from conceptbank.pipeline import STAGES

    assert run._STAGES == STAGES
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    for stage in run._STAGES:
        assert result["metrics"][f"pipeline.stage.{stage}_s"]["value"] > 0
