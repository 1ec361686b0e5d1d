"""Command-line interface: a subcommand for each of ``COMMANDS``, and `pipeline`.

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
from .pipeline import COMMANDS, STAGES, StageError, run_pipeline, run_stage

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
                       help="worker threads for gen and encode; "
                            "never changes outputs")
        p.add_argument("--seed", type=int, default=None,
                       help="override protocol.base_seed")
        p.add_argument("--workdir", default=None,
                       help="override the configured work_dir")
        return p

    for command in COMMANDS:
        p = add(command.name, command.help)
        p.set_defaults(stage=command)
        for name, kwargs in command.options:
            p.add_argument(f"--{name}", **kwargs)
    # a config override, not an option: a bad file is a config error
    sub.choices["gen"].add_argument("--cohorts", default=None,
                                    help="standalone JSON array of cohort specs "
                                         "(overrides the config's cohorts)")
    pipeline = add("pipeline", "run all stages in order, skipping fresh ones")
    pipeline.add_argument("--force", action="store_true",
                          help="re-run stages even when stamps are fresh")
    return parser


def main(argv=None) -> int:
    try:
        # inside the try: a bad option value is a ConfigError, too
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, seed_override=args.seed,
                          workdir_override=args.workdir,
                          threads_override=args.threads)
        if getattr(args, "cohorts", None):
            cfg = replace_cohorts(cfg, args.cohorts)
        if args.command == "pipeline":
            ran = run_pipeline(cfg, force=args.force)
            skipped = [s.name for s in STAGES if s.name not in ran]
            if ran:
                print(f"ran: {' '.join(ran)}")
            if skipped:
                print(f"skipped (up to date): {' '.join(skipped)}")
        else:
            run_stage(cfg, args.stage, **{name: getattr(args, name)
                                          for name, _ in args.stage.options})
        return 0
    except Exception as exc:
        stage, exc = (exc.stage, exc.cause) if isinstance(exc, StageError) else ("config", exc)
        code = 2 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DataError) else 4
        if code == 4:  # a defect, not bad input: keep the traceback
            traceback.print_exception(exc)
        print(f"error stage={stage} {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
