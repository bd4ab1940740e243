"""One step of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py SPEC_JSON

`run.py` writes SPEC_JSON and starts this script. With `"prepare": true`
it generates the workload's fixture corpus and writes the workload's
config overrides into the corpus's config.json. Otherwise it is one
run: it loads that config, runs the 13 pipeline stages in order on an
empty store, checks the outputs, and prints one JSON line with
timings, sizes, check results and, when the spec asks for a trace, the
per-layer metrics. The BLAS thread count comes from the environment
that run.py sets before this interpreter starts.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import re
import resource
import sys
import time
import warnings
from pathlib import Path


def store_digest(root: Path) -> tuple[str, int, int]:
    """(sha256 over sorted relative paths and bytes, total bytes, files)."""
    h = hashlib.sha256()
    total = files = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        rel = path.relative_to(root).as_posix().encode("utf-8")
        h.update(len(rel).to_bytes(8, "little") + rel)
        h.update(len(data).to_bytes(8, "little") + data)
        total += len(data)
        files += 1
    return h.hexdigest(), total, files


def check_eval(doc: dict, n_events: int) -> list[str]:
    """Problems with reports/eval.json: both routes, every per-event AP
    finite and in [0, 1]."""
    problems = []
    for side in ("zero_shot", "supervised"):
        route = doc.get(side)
        if route is None:
            problems.append(f"eval.json lacks {side}")
            continue
        aps = route.get("per_event_ap", {})
        if len(aps) != n_events:
            problems.append(f"{side}: {len(aps)} event APs, expected {n_events}")
        for event, ap in sorted(aps.items()) + [("map", route.get("map"))]:
            if not isinstance(ap, (int, float)) or not math.isfinite(ap) or not 0 <= ap <= 1:
                problems.append(f"{side} {event}: AP {ap!r} not finite in [0, 1]")
    return problems


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library this process loaded,
    or None when it cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib_path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_program(root: Path) -> None:
    """Import conceptbank from root/src, and from nowhere else."""
    sys.path.insert(0, str(root / "src"))
    import conceptbank

    if Path(conceptbank.__file__).resolve().parent != (root / "src" / "conceptbank").resolve():
        raise RuntimeError(f"imported conceptbank from {conceptbank.__file__}, not {root}/src")


def prepare(spec: dict) -> dict:
    import_program(Path(spec["root"]))
    from conceptbank.fixture import generate_fixture

    corpus = Path(spec["corpus"])
    generate_fixture(corpus, seed=spec["seed"], **spec["fixture"])
    config_path = corpus / "config.json"
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc.update(spec["config"], base_seed=spec["seed"])
    config_path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return {"problems": []}


def run(spec: dict) -> dict:
    import numpy  # noqa: F401  (loads BLAS before the thread query)

    import_program(Path(spec["root"]))
    from conceptbank import pipeline
    from conceptbank.config import PipelineConfig
    from conceptbank.errors import DegenerateSigmaWarning

    corpus, store = Path(spec["corpus"]), Path(spec["store"])
    config = PipelineConfig.from_file(corpus / "config.json")
    workers = spec["workers"]

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    stage_s: dict[str, float] = {}
    reports: dict[str, dict] = {}
    with warnings.catch_warnings(record=True) as caught, tracer or contextlib.nullcontext():
        warnings.simplefilter("always")
        setup_s = time.monotonic() - spec["spawned"]
        first = time.perf_counter()
        for stage in pipeline.STAGES:
            t0 = time.perf_counter()
            reports[stage] = pipeline.run_stage(stage, config, store, workers=workers)
            stage_s[stage] = time.perf_counter() - t0
        pipeline_s = time.perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    truth = json.loads((corpus / "truth.json").read_text(encoding="utf-8"))
    problems = [
        f"stage {s} returned {r.get('stage')!r}"
        for s, r in reports.items() if r.get("stage") != s
    ]
    n_videos = len(truth["videos"]["train"]) + len(truth["videos"]["test"])
    represented = sum(reports["represent"]["videos"].values())
    if represented != n_videos:
        problems.append(f"represent wrote {represented} videos, fixture has {n_videos}")
    eval_doc = json.loads((store / "reports" / "eval.json").read_text(encoding="utf-8"))
    problems += check_eval(eval_doc, len(truth["queries"]))
    digest, store_bytes, store_files = store_digest(store)

    smo_cap = sum(
        1 for w in caught
        if issubclass(w.category, RuntimeWarning) and "SMO iteration cap" in str(w.message)
    )
    degenerate = sum(1 for w in caught if issubclass(w.category, DegenerateSigmaWarning))
    result = {
        "problems": problems,
        "digest": digest,
        "workers": workers,
        "blas_threads": blas_threads(),
        "config": config.to_dict(),
        "fixture_counts": {
            "images": sum(len(c["images"]) for c in truth["concepts"]),
            "train_videos": len(truth["videos"]["train"]),
            "test_videos": len(truth["videos"]["test"]),
        },
        "stage_s": stage_s,
        "warnings": {"smo_cap": smo_cap, "degenerate_sigma": degenerate, "total": len(caught)},
        "end_to_end": {
            "pipeline_s": pipeline_s,
            "bank_build_s": sum(stage_s[s] for s in pipeline.STAGES[: pipeline.STAGES.index("train") + 1]),
            "index_videos_per_s": represented / stage_s["represent"],
            "search_s": sum(stage_s[s] for s in ("match", "retrieve", "detect", "eval", "recount")),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "store_mb": store_bytes / 1e6,
            "store_files": store_files,
            "zero_shot_map": eval_doc["zero_shot"]["map"],
            "supervised_map": eval_doc["supervised"]["map"],
        },
    }
    if tracer is not None:
        from tracer import layer_value, span_table

        table = span_table(tracer.spans)
        counters = dict(
            tracer.counters,
            **{"detect.smo_cap_warnings": smo_cap, "select.degenerate_sigma_warnings": degenerate},
        )
        result["spans"] = table
        result["layers"] = {
            name: layer_value(name, table, counters, tracer.span_names)
            for name in spec["layer_metrics"]
        }
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(prepare(spec) if spec["prepare"] else run(spec)))
