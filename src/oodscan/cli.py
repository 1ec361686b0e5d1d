"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 2 config error, 3 data error, 4 internal invariant
violation. Stage failures print one machine-readable line to stderr:
``error stage=<name> ...``.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config, replace_cohorts
from .errors import ConfigError, DataError, InternalError
from .pipeline import (
    PIPELINE_STAGES,
    StageError,
    run_ablate,
    run_explain,
    run_pipeline,
    run_stage,
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodscan",
        description="Out-of-distribution detection pipeline for volumetric "
                    "segmentation at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--threads", type=int, default=None,
                       help="parallelism cap; never changes outputs")
        p.add_argument("--seed", type=int, default=None,
                       help="override protocol.base_seed")
        p.add_argument("--workdir", default=None,
                       help="override the configured work_dir")
        return p

    gen = add("gen", "generate synthetic cohorts and a manifest")
    gen.add_argument("--cohorts", default=None,
                     help="standalone JSON array of cohort specs "
                          "(overrides the config's cohorts)")
    add("encode", "build feature pyramids for every scan")
    add("extract", "write deep and radiomics feature tables")
    add("score", "compute confidence-score baselines")
    add("train", "fit forests on the full cohorts and save model files")
    add("eval", "run the repeated-split protocol and write metric tables")
    add("report", "render the summary table from per-seed metrics")
    add("ablate", "evaluate rf_deep per encoder stage")
    explain = add("explain", "write exact per-feature attributions")
    explain.add_argument("--kind", choices=("deep", "radiomics"), default="deep")
    explain.add_argument("--limit", type=int, default=None,
                         help="explain only the first N feature rows")
    pipeline = add("pipeline", "run all stages in order, skipping fresh ones")
    pipeline.add_argument("--force", action="store_true",
                          help="re-run stages even when stamps are fresh")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          workdir_override=args.workdir,
                          threads_override=args.threads)
        if getattr(args, "cohorts", None):
            cfg = replace_cohorts(cfg, args.cohorts)
    except ConfigError as exc:
        print(f"error stage=config {exc}", file=sys.stderr)
        return 2

    try:
        if args.command in PIPELINE_STAGES:
            run_stage(cfg, args.command)
        elif args.command == "ablate":
            path = run_ablate(cfg)
            print(f"ablation table written to {path}")
        elif args.command == "explain":
            path = run_explain(cfg, kind=args.kind, limit=args.limit)
            print(f"attributions written to {path}")
        elif args.command == "pipeline":
            ran = run_pipeline(cfg, force=args.force)
            skipped = [s for s in PIPELINE_STAGES if s not in ran]
            if ran:
                print(f"ran: {' '.join(ran)}")
            if skipped:
                print(f"skipped (up to date): {' '.join(skipped)}")
        return 0
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        cause = exc.cause
        if isinstance(cause, ConfigError):
            return 2
        if isinstance(cause, DataError):
            return 3
        return 4
    except ConfigError as exc:
        print(f"error stage={args.command} {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error stage={args.command} {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"error stage={args.command} internal invariant violated: {exc}",
              file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
