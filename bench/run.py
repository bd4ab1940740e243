"""conceptbank benchmark: two pipeline workloads, end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree (one that holds `src/conceptbank`).
Each run of a workload is one full `ontology` .. `recount` sequence of
`conceptbank.pipeline.run_stage` calls in a fresh child process
(`bench/child.py`) on an empty store. Its inputs are made beforehand,
by another child, with `conceptbank.fixture.generate_fixture(seed=C,
...)` and the config overrides written into the corpus's config.json;
the corpus seed C is also the config's `base_seed`. `setup_s` is the
time from starting a run's child to its first stage: interpreter
start, conceptbank import and config load. Every run is checked: all
stages return, `reports/eval.json` holds both routes with finite APs
in [0, 1], and runs of one corpus seed with one BLAS thread count
leave stores with the same digest. A run that fails a check counts as
failed.

How long the pipeline takes, and how good its results are, depends on
the corpus: on about one seed in six the event SVMs of `detect` take
four times as long. So one invocation with `--seed N` runs a workload
on `corpora` corpus seeds, N*corpora .. N*corpora+corpora-1, in rounds
until `--seconds` is spent (at least one round), and `--trace 0`
reports each end-to-end metric as the median over corpus seeds of the
median over that seed's runs.

`--trace 1` works on corpus seed N*corpora alone: one untraced run at
the workload's worker count, one at the other worker count (1 or 2,
for `pipeline.workers_speedup`), one traced run (`bench/tracer.py`
wraps the public functions of every conceptbank module from outside)
and further untraced runs while time remains; it reports the
per-layer metrics of the traced run. The last line of stdout is the
result JSON; the first records the environment, the inputs and every
run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_TIMEOUT_S = 150

# The two workloads stress different layers; each run is a full
# 13-stage sequence. small-bank is the README quick-start point: bank
# building dominates, SMO solves are many and small, and fixed per-stage
# overhead (re-loads, JSON, file I/O) is a large share. video-index is
# the indexing side: a small bank applied to 400 twenty-frame videos, so
# frame encoding and detector scoring dominate; it is the only workload
# run with a thread pool. `corpora` is sized so that one round over the
# corpus seeds takes about 50 s on 2 cores.
WORKLOADS = {
    "small-bank": {"fixture": {}, "config": {}, "workers": 1, "corpora": 8},
    "video-index": {
        "fixture": {"videos_per_event": 100, "frames_per_video": 20},
        "config": {"codebook_k": 64, "m_frames": 20},
        "workers": 2,
        "corpora": 5,
    },
}

END_TO_END = {
    "pipeline_s": "s",
    "bank_build_s": "s",
    "index_videos_per_s": "videos/s",
    "search_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "store_files": "files",
    "zero_shot_map": "AP",
    "supervised_map": "AP",
}

_STAGES = (
    "ontology", "discover", "codebook", "encode", "select", "verify", "train",
    "match", "represent", "retrieve", "detect", "eval", "recount",
)


def _layer_units() -> dict[str, str]:
    units = {f"pipeline.stage.{s}_s": "s" for s in _STAGES}
    units["pipeline.self_s"] = "s"
    units["pipeline.workers_speedup"] = "ratio"

    def add(name: str, *fields: str) -> None:
        for f in fields:
            units[f"{name}.{f}"] = "s" if f == "self_s" else "count"

    add("detect.train_mklsvm", "calls", "self_s", "n_total", "alternations")
    units["detect.support_vectors"] = "count"
    units["detect.smo_cap_warnings"] = "count"
    add("detect.verify_visualness", "calls", "self_s")
    add("detect.compute_kernel", "calls", "self_s")
    units["detect.compute_kernel.mflop_computed"] = "MFLOP"
    add("detect.raw_score_matrix", "calls", "self_s", "rows")
    add("detect.fit_platt", "self_s")
    units["detect.problem_check_s"] = "s"
    add("encode.train_codebook", "self_s")
    add("encode.encode_from_path", "calls", "self_s")
    for name in ("load_descriptors", "encode_image", "soft_assign"):
        add(f"encode.{name}", "self_s")
    units["encode.patches"] = "count"
    add("select.kde_confidences", "calls", "self_s")
    add("select.select_training_set", "self_s")
    add("select.sample_negatives", "self_s")
    units["select.degenerate_sigma_warnings"] = "count"
    add("videorep.represent", "calls", "self_s")
    units["videorep.frames_scored"] = "count"
    add("videorep.recount", "self_s")
    add("videorep.load_video_manifest", "self_s")
    add("retrieve.zero_shot_retrieve", "self_s")
    add("retrieve.fuse", "calls", "self_s", "entries")
    add("retrieve.train_event_detector", "calls", "self_s")
    add("retrieve.detect_events", "self_s")
    add("semmatch.select_concepts", "calls", "self_s")
    add("semmatch.hierarchical_sim", "calls")
    add("metrics.ap_from_arrays", "calls", "self_s")
    add("metrics.average_precision", "self_s")
    units.update({
        "formats.read_calls": "count",
        "formats.read_s": "s",
        "formats.read_bytes": "bytes",
        "formats.write_calls": "count",
        "formats.write_s": "s",
        "formats.write_bytes": "bytes",
        "formats.read_cbfh.calls": "count",
        "formats.read_cbfv.calls": "count",
    })
    add("store.read_json", "calls", "self_s")
    add("store.write_json", "calls", "self_s")
    add("store.save_detector", "self_s")
    add("store.load_detector", "self_s")
    add("corpus.load_manifest", "calls", "self_s")
    add("corpus.discover_candidates", "self_s")
    add("corpus.load_lexicon", "calls")
    add("ontology", "calls", "self_s")
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _layer_units()
# Per-layer metrics computed here from several runs, not in the traced child.
_RUN_LEVEL = ("pipeline.workers_speedup", "trace.overhead_s")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads_for(workers: int) -> int:
    return max(1, nproc() // workers)


def other_workers(workers: int) -> int:
    """The worker count a traced invocation compares against (1 <-> 2)."""
    return 2 if workers == 1 else 1


def corpus_seeds(workload: str, seed: int) -> list[int]:
    k = WORKLOADS[workload]["corpora"]
    return [seed * k + j for j in range(k)]


def environment(seed: int) -> dict:
    import numpy

    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = None  # ROOT sits inside some other repository
    except (OSError, subprocess.SubprocessError, ValueError):
        sha = None  # not a git checkout
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": nproc(),
        "seed": seed,
    }


class Runner:
    """Starts child runs of one workload in one work directory, which
    holds one fixture corpus at a time and the store of the current run."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.corpus = work / "corpus"
        self.corpus_seed: int | None = None
        self.runs: list[dict] = []

    def _child(self, spec: dict, workers: int) -> dict:
        """Run bench/child.py on spec; its result, or its problems."""
        env = dict(os.environ)
        threads = str(blas_threads_for(workers))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        env.pop("PYTHONPATH", None)
        spec = dict(spec, root=str(ROOT), spawned=time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"problems": [f"child exceeded {CHILD_TIMEOUT_S} s"]}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"problems": [f"exit {proc.returncode}: {tail[0]}"]}
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self, seed: int, workers: int, trace: bool) -> dict:
        workload = WORKLOADS[self.workload]
        record = {
            "seed": seed, "workers": workers, "trace": trace,
            "blas_threads_set": blas_threads_for(workers),
        }
        if self.corpus_seed != seed:
            # The corpus is made outside the timed run: writing its
            # thousands of files takes 0.3 s or 3.5 s depending on what
            # else the disk is doing.
            shutil.rmtree(self.corpus, ignore_errors=True)
            self.corpus_seed = None
            made = self._child({
                "prepare": True, "seed": seed, "corpus": str(self.corpus),
                "fixture": workload["fixture"], "config": workload["config"],
            }, workers)
            if made["problems"]:
                record["problems"] = [f"fixture: {p}" for p in made["problems"]]
                self.runs.append(record)
                return record
            self.corpus_seed = seed
        store = self.work / "store"
        shutil.rmtree(store, ignore_errors=True)
        record.update(self._child({
            "prepare": False, "corpus": str(self.corpus), "store": str(store),
            "workers": workers, "trace": trace,
            "layer_metrics": [m for m in PER_LAYER if m not in _RUN_LEVEL] if trace else [],
        }, workers))
        # The BLAS thread count changes the rounding of large matrix
        # products, so only runs with the same count must agree.
        first = next(
            (r for r in self.runs if "digest" in r and r["seed"] == seed
             and r["blas_threads_set"] == record["blas_threads_set"]),
            None,
        )
        if "digest" in record and first is not None and record["digest"] != first["digest"]:
            record["problems"].append(
                f"store digest {record['digest'][:12]} differs from "
                f"{first['digest'][:12]} of an earlier run"
            )
        self.runs.append(record)
        return record

    @property
    def good(self) -> list[dict]:
        return [r for r in self.runs if not r["problems"]]


def measure(runner: Runner, seeds: list[int], workers: int, seconds: float) -> None:
    """Untraced rounds over `seeds` until the next would end past `seconds`."""
    start = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        for seed in seeds:
            runner.run(seed, workers, trace=False)
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return


def end_to_end(runner: Runner) -> dict:
    """Median over corpus seeds of the median over each seed's runs."""
    per_seed: dict[int, list[dict]] = {}
    for r in runner.good:
        per_seed.setdefault(r["seed"], []).append(r["end_to_end"])
    if not per_seed:
        return {}
    return {
        name: {
            "value": statistics.median(
                statistics.median(e[name] for e in runs) for runs in per_seed.values()
            ),
            "unit": unit,
        }
        for name, unit in END_TO_END.items()
    }


def per_layer(runner: Runner, workers: int) -> dict:
    traced = next((r for r in runner.good if r["trace"]), None)
    main = [r["end_to_end"]["pipeline_s"] for r in runner.good
            if not r["trace"] and r["workers"] == workers]
    alt = [r["end_to_end"]["pipeline_s"] for r in runner.good
           if not r["trace"] and r["workers"] != workers]
    if traced is None or not main or not alt:
        return {}
    values = dict(traced["layers"])
    at = {workers: statistics.median(main), other_workers(workers): statistics.median(alt)}
    values["pipeline.workers_speedup"] = at[1] / at[2]
    values["trace.overhead_s"] = traced["end_to_end"]["pipeline_s"] - at[workers]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "conceptbank" / "__init__.py").is_file():
        print(f"no conceptbank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so the running child is killed and
    # waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workers = WORKLOADS[args.workload]["workers"]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    seeds = corpus_seeds(args.workload, args.seed)
    runner = Runner(args.workload, work)
    try:
        if args.trace:
            start = time.monotonic()
            runner.run(seeds[0], workers, trace=False)
            once = time.monotonic() - start
            runner.run(seeds[0], other_workers(workers), trace=False)
            runner.run(seeds[0], workers, trace=True)
            while time.monotonic() - start + once <= args.seconds:
                runner.run(seeds[0], workers, trace=False)
            metrics = per_layer(runner, workers)
        else:
            measure(runner, seeds, workers, args.seconds)
            metrics = end_to_end(runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is using it

    failed = len(runner.runs) - len(runner.good)
    detail = {
        "environment": environment(args.seed),
        "workload": dict(WORKLOADS[args.workload], name=args.workload, corpus_seeds=seeds),
        "runs": [
            {k: v for k, v in r.items() if k not in ("layers", "config")}
            for r in runner.runs
        ],
        "config": next((r["config"] for r in runner.runs if "config" in r), None),
    }
    print(json.dumps(detail, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runner.runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
