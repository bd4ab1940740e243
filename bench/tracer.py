"""Span tracer that wraps conceptbank's public functions from outside.

The program carries no tracing of its own. `Tracer.install()` replaces
each public function of every `conceptbank` module, plus a few methods
listed in `METHODS`, with a wrapper that records a span: name, start,
end, parent span and thread. A function is replaced under every module
name that binds it (`compute_kernel` lives in `detect` and is bound in
`retrieve` too), and `uninstall()` puts every original back.

A span's self time is its duration minus the part of its interval that
its child spans cover. Children that ran on worker threads can overlap,
so the covered part is the union of their intervals, not their sum. A
span opened on a thread that has no open span of its own (a pool worker)
takes as parent the innermost open span of the thread that installed
the tracer, which is the pipeline stage waiting on the pool.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    ids = {s.sid for s in spans}
    for s in spans:
        if s.parent in ids:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Probes turn a call's arguments and result into counters. Each returns
# {counter name: increment}.
def _probe_train(args, kwargs, result):
    return {
        "detect.train_mklsvm.n_total": _arg(args, kwargs, 0, "problem").n,
        "detect.train_mklsvm.alternations": len(result.history),
        "detect.support_vectors": int(result.alpha.size),
    }


def _probe_kernel(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    z = _arg(args, kwargs, 1, "z")
    kind = _arg(args, kwargs, 2, "spec").kind
    per_entry = 2 if kind == "linear" else 4
    flop = per_entry * len(x) * len(z) * (x.shape[1] if x.ndim > 1 else 1)
    return {"detect.compute_kernel.mflop_computed": flop / 1e6}


def _probe_score(args, kwargs, result):
    return {"detect.raw_score_matrix.rows": len(result)}


def _probe_encode(args, kwargs, result):
    blocks = _arg(args, kwargs, 0, "blocks")
    return {"encode.patches": sum(b.vectors.shape[0] for b in blocks.values())}


def _probe_represent(args, kwargs, result):
    return {"videorep.frames_scored": result.frames_used}


def _probe_fuse(args, kwargs, result):
    return {"retrieve.fuse.entries": result.d * result.n}


def _probe_read(args, kwargs, result):
    return {"formats.read_bytes": os.stat(_arg(args, kwargs, 0, "path")).st_size}


def _probe_write(args, kwargs, result):
    return {"formats.write_bytes": os.stat(_arg(args, kwargs, 0, "path")).st_size}


# Every counter a probe can emit, so an uncalled function reads as 0.
COUNTERS = (
    "detect.train_mklsvm.n_total",
    "detect.train_mklsvm.alternations",
    "detect.support_vectors",
    "detect.compute_kernel.mflop_computed",
    "detect.raw_score_matrix.rows",
    "encode.patches",
    "videorep.frames_scored",
    "retrieve.fuse.entries",
    "formats.read_bytes",
    "formats.write_bytes",
)

PROBES: dict[str, Callable] = {
    "detect.train_mklsvm": _probe_train,
    "detect.compute_kernel": _probe_kernel,
    "detect.raw_score_matrix": _probe_score,
    "encode.encode_image": _probe_encode,
    "videorep.represent": _probe_represent,
    "retrieve.fuse": _probe_fuse,
}


def _probe(name: str) -> Callable | None:
    if name.startswith("formats.read_"):
        return _probe_read
    if name.startswith("formats.write_"):
        return _probe_write
    return PROBES.get(name)


# Methods traced alongside the module functions: (module, class,
# method, span name).
METHODS = (
    ("detect", "DetectorModel", "raw_score_matrix", "detect.raw_score_matrix"),
    ("detect", "DetectorTrainingProblem", "__post_init__", "detect.problem_check"),
    ("store", "ModelStore", "read_json", "store.read_json"),
    ("store", "ModelStore", "write_json", "store.write_json"),
    ("store", "ModelStore", "save_detector", "store.save_detector"),
    ("store", "ModelStore", "load_detector", "store.load_detector"),
    ("ontology", "ConceptBankTree", "from_json", "ontology.from_json"),
    ("ontology", "ConceptBankTree", "to_json", "ontology.to_json"),
)


class Tracer:
    """Records spans of wrapped conceptbank calls while installed."""

    def __init__(self, package: str = "conceptbank", methods=METHODS):
        self.package = package
        self.methods = methods
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.span_names: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counter_lock = threading.Lock()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str | Callable, probe: Callable | None = None):
        """Return fn wrapped to record one span per call. name is the span
        name, or a function of the call's arguments that returns it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                tracer.spans.append(
                    Span(sid, label, start, end, parent, threading.get_ident())
                )
            if probe is not None:
                tracer.count(probe(args, kwargs, result))
            return result

        return traced

    def count(self, increments: dict[str, float]) -> None:
        with self._counter_lock:
            for key, value in increments.items():
                self.counters[key] = self.counters.get(key, 0) + value

    # -- patching -------------------------------------------------------

    def _modules(self) -> list:
        return sorted(
            (m for n, m in list(sys.modules.items())
             if m is not None and (n == self.package or n.startswith(self.package + "."))),
            key=lambda m: m.__name__,
        )

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._home_stack
        modules = self._modules()
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.span_names.add(name)
                wrapped = self.wrap(
                    fn, _stage_name if name == "pipeline.run_stage" else name, _probe(name)
                )
                for other in modules:
                    for other_attr, obj in list(vars(other).items()):
                        if obj is fn:
                            self._patch(other, other_attr, wrapped)
        for mod_name, cls_name, meth, name in self.methods:
            cls = getattr(sys.modules[f"{self.package}.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, _probe(name)))
            else:
                wrapped = self.wrap(raw, name, _probe(name))
            self._patch(cls, meth, wrapped)
            self.span_names.add(name)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _stage_name(args: tuple, kwargs: dict) -> str:
    return "pipeline.stage." + _arg(args, kwargs, 0, "stage")


# -- per-layer metrics ----------------------------------------------------


def span_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Span name -> {calls, self_s, total_s}."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.sid]
        row["total_s"] += s.end - s.start
    return table


def layer_value(metric: str, table: dict, counters: dict, known: set[str]) -> float:
    """Value of one per-layer metric from a span table and counters.

    Forms: `<span>.calls`, `<span>.self_s`, `<layer>.calls`,
    `<layer>.self_s` (summed over the layer's spans), `pipeline.stage.<s>_s`
    (the wall time of a stage that ran), `formats.{read,write}_{calls,s}` (summed
    over the formats readers or writers), `detect.problem_check_s`, and
    any counter. A name that none of these forms covers raises KeyError,
    so a typo in the metric list cannot read as zero.
    """
    if metric in counters or metric in COUNTERS:
        return counters.get(metric, 0)
    if metric.startswith("pipeline.stage.") and metric.endswith("_s"):
        return table[metric[: -len("_s")]]["total_s"]
    if metric == "detect.problem_check_s":
        return table.get("detect.problem_check", {}).get("self_s", 0.0)
    for io in ("read", "write"):
        for suffix, field in (("calls", "calls"), ("s", "self_s")):
            if metric == f"formats.{io}_{suffix}":
                return sum(
                    row[field] for n, row in table.items()
                    if n.startswith(f"formats.{io}_")
                )
    base, _, field = metric.rpartition(".")
    if field in ("calls", "self_s"):
        if base in known:
            return table.get(base, {}).get(field, 0)
        if "." not in base and any(n.startswith(base + ".") for n in known):
            return sum(
                row[field] for n, row in table.items()
                if n.partition(".")[0] == base
            )
    raise KeyError(f"per-layer metric {metric!r} matches no traced name or counter")
