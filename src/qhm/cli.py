"""Command-line entry point: run one job file and write its reports.

Usage: ``qhm <jobfile.json> [--assert] [--out DIR] [--refine 129,257,513]``.

Exit codes: 0 success (or PASS), 1 verdict FAIL under ``--assert``,
2 configuration error, 3 runtime/numeric error (out of memory included),
4 I/O error.  The ``QHM_LOG`` environment variable (error, info, debug) sets
log verbosity.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .gridops import NumericGuardError
from .jobs import ConfigError, parse_config, run_job, serialize_report, with_refinement

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUN_ERROR = 3
EXIT_IO_ERROR = 4

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    name = os.environ.get("QHM_LOG", "error").strip().lower()
    level = _LOG_LEVELS.get(name, logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("qhm").setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhm",
        description="Run a verification job file and write report.json/tables.csv.",
    )
    parser.add_argument("jobfile", help="path to the JSON job description")
    parser.add_argument(
        "--assert",
        dest="assert_",
        action="store_true",
        help="exit 1 when the overall verdict is FAIL",
    )
    parser.add_argument("--out", metavar="DIR", help="output directory for reports")
    parser.add_argument(
        "--refine",
        metavar="N1,N2,...",
        help="comma-separated strictly increasing odd grid sizes",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)

    try:
        with open(args.jobfile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read job file: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except UnicodeDecodeError as exc:
        print(f"config error: job file is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        cfg = parse_config(text)
        if args.refine:
            cfg = with_refinement(cfg, args.refine)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        doc = run_job(cfg)
    except (NumericGuardError, ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"run error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUN_ERROR

    out_dir = args.out or cfg.out_dir or "."
    try:
        report_path, csv_path = serialize_report(doc, out_dir)
    except OSError as exc:
        print(f"error: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    overall = doc["verdicts"]["overall"]
    print(f"{cfg.job}: {overall}  ({report_path}, {csv_path})")
    if args.assert_ and overall == "FAIL":
        return EXIT_FAIL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
