"""The benchmark's span tracer (bench/tracer.py) patches the methods its
METHODS table names. A method renamed or removed here makes every traced
benchmark run fail, so this checks each name against the program."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_method_exists_on_its_class(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    methods = module.METHODS
    assert methods
    for module_name, class_name, method, _span in methods:
        cls = getattr(importlib.import_module(f"conceptbank.{module_name}"), class_name)
        assert method in cls.__dict__, f"{module_name}.{class_name}.{method}"
