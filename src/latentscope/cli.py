"""Command-line entry point.

Subcommands mirror the pipeline stages; every run is fully determined by the
config file plus the global seed. Exit codes: 0 success, 2 configuration
error, 3 missing, stale or malformed artifact, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from .config import PipelineConfig, load_config
from .errors import (ConfigError, DegenerateInputError, DependencyError,
                     FormatError, NumericError, ShapeError)
from .pipeline import STAGE_RUNNERS, STAGES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_NUMERIC = 4

# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentscope",
        description="Latent-space analysis pipeline for volumetric cohorts.")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        p.add_argument("--config", metavar="PATH",
                       help="key=value config file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override the global seed")
        p.add_argument("--out", metavar="DIR",
                       help="override the output directory")
        p.add_argument("--stage-force", action="store_true",
                       help="run even when predecessor config hashes mismatch")
    return parser


def _resolve_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    return config


def keep_freed_memory() -> None:
    """Fix glibc malloc's thresholds, so a stage's memory use does not
    depend on which sizes happen to be freed earlier in the process.

    By default glibc maps a block on its own when it is above a threshold,
    and returns a free heap top above twice that threshold to the system.
    The threshold starts at 128 KiB and rises, up to 32 MiB, when a larger
    mapped block is freed. Here the mmap threshold is fixed at 8 MiB and the
    trim threshold at 64 MiB. Blocks below 8 MiB (every array of a 16^3 or
    32^3 training step but the largest) reuse the heap step after step. A
    block of 8 MiB or more is mapped afresh and handed back when freed. On
    the heap it would leave a hole that stays resident: at 64^3 such holes
    held some 40 MiB beside a step's live arrays, which set the train
    stage's peak. A no-op off Linux or where the C library has no mallopt.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 8 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    keep_freed_memory()
    try:
        config = _resolve_config(args)
        STAGE_RUNNERS[args.stage](config, config.out_dir, force=args.stage_force)
    except ConfigError as exc:
        print(f"latentscope: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DependencyError, FormatError) as exc:
        print(f"latentscope: dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except (NumericError, DegenerateInputError, ShapeError) as exc:
        print(f"latentscope: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"latentscope: {args.stage} complete -> {config.out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
