"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 2 config error, 3 data error, 4 anything else (an
internal invariant violation). Every failure ends in one machine-readable
line on stderr: ``error stage=<name> <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .config import load_config, replace_cohorts
from .errors import ConfigError, DataError
from .pipeline import (
    PIPELINE_STAGES,
    STAGES,
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

    for stage in STAGES:
        p = add(stage.name, stage.help)
        if stage.name == "gen":
            p.add_argument("--cohorts", default=None,
                           help="standalone JSON array of cohort specs "
                                "(overrides the config's cohorts)")
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
    stage = "config"
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          workdir_override=args.workdir,
                          threads_override=args.threads)
        if getattr(args, "cohorts", None):
            cfg = replace_cohorts(cfg, args.cohorts)
        stage = args.command
        if args.command in PIPELINE_STAGES:
            run_stage(cfg, STAGES[PIPELINE_STAGES.index(args.command)])
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
    except Exception as exc:
        if isinstance(exc, StageError):
            stage, exc = exc.stage, exc.cause
        code = 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DataError) else 4
        if code == 4:  # a defect, not bad input: keep the traceback
            traceback.print_exception(exc)
        print(f"error stage={stage} {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
