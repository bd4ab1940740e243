"""Command-line interface.

One verb per pipeline stage, plus two conveniences:

    cb fixture --out DIR        generate a synthetic end-to-end corpus
    cb run --store S --config C run stages in pipeline order

Stage verbs share the flags --store, --config, --seed (overrides the
config's base seed and therefore its hash), --workers, and --force.
Exit codes: 0 success, 2 precondition failure (missing upstream stage,
stale store, bad arguments), 3 malformed data.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import PipelineConfig
from .errors import DataFormatError, PreconditionError
from .fixture import generate_fixture
from .pipeline import STAGES, run_stage


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    return config


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


def _stage_cmd(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_stage(
        args.stage, config, args.store, workers=args.workers, force=args.force
    )
    _emit(report)
    return 0


def _run_cmd(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.stages:
        wanted = [s.strip() for s in args.stages.split(",") if s.strip()]
        unknown = [s for s in wanted if s not in STAGES]
        if unknown:
            raise PreconditionError(f"unknown stages: {', '.join(unknown)}")
        stages = [s for s in STAGES if s in set(wanted)]
    else:
        stages = list(STAGES)
    for stage in stages:
        report = run_stage(
            stage, config, args.store, workers=args.workers, force=args.force
        )
        _emit(report)
    return 0


def _fixture_cmd(args: argparse.Namespace) -> int:
    truth = generate_fixture(
        args.out,
        seed=args.seed,
        images_per_concept=args.images_per_concept,
        outlier_fraction=args.outlier_fraction,
        videos_per_event=args.videos_per_event,
        frames_per_video=args.frames_per_video,
    )
    _emit(
        {
            "out": str(args.out),
            "seed": args.seed,
            "queries": truth["queries"],
            "concepts": sorted(c["name"] for c in truth["concepts"]),
            "train_videos": len(truth["videos"]["train"]),
            "test_videos": len(truth["videos"]["test"]),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cb",
        description=(
            "Concept bank pipeline: discover event-specific concepts from "
            "tagged images, train detectors, and rank videos for textual "
            "event queries."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--store", required=True, help="model store directory")
        sp.add_argument("--config", required=True, help="pipeline config JSON file")
        sp.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override the config base seed (changes the config hash)",
        )
        sp.add_argument(
            "--workers", type=_worker_count, default=1, help="parallel worker threads (>= 1)"
        )
        sp.add_argument(
            "--force",
            action="store_true",
            help="build on a store whose config hash differs",
        )

    for stage in STAGES:
        sp = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(sp)
        sp.set_defaults(func=_stage_cmd, stage=stage)

    sp = sub.add_parser("run", help="run stages in pipeline order")
    add_common(sp)
    sp.add_argument(
        "--stages",
        default=None,
        help="comma-separated subset to run (still in pipeline order)",
    )
    sp.set_defaults(func=_run_cmd)

    sp = sub.add_parser("fixture", help="generate a synthetic corpus")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--images-per-concept", type=int, default=30)
    sp.add_argument("--videos-per-event", type=int, default=40)
    sp.add_argument("--frames-per-video", type=int, default=4)
    sp.add_argument("--outlier-fraction", type=float, default=0.25)
    sp.set_defaults(func=_fixture_cmd)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
