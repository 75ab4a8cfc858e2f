"""Command-line entry point: ``proxkit run <config> [--out DIR] [--jobs N]``.

Exit codes: 0 success, 2 invalid config or PROXKIT_SEED_OFFSET, 3 a run
raised, whatever the exception (partial outputs retained, failures listed
in the MANIFEST).
"""

from __future__ import annotations

import argparse
import sys

from .bench import list_problems, list_solvers, load_config, run_experiment
from .errors import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxkit")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("config", nargs="?", help="path to a flat key-value config file")
    run.add_argument("--out", default="proxkit-out", help="output directory")
    run.add_argument("--jobs", type=int, default=1, help="worker pool size for seeds")
    run.add_argument("--list-problems", action="store_true",
                     help="list problem generators and exit")
    run.add_argument("--list-solvers", action="store_true",
                     help="list solvers and exit")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_problems:
        print("\n".join(list_problems()))
        return 0
    if args.list_solvers:
        print("\n".join(list_solvers()))
        return 0
    if args.config is None:
        print("error: missing config path", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    try:
        config = load_config(args.config)
    except FileNotFoundError:
        print("error: config file not found: %s" % args.config, file=sys.stderr)
        return 2
    except ConfigError as exc:
        print("error: %s: %s" % (args.config, exc), file=sys.stderr)
        return 2

    try:
        manifest = run_experiment(config, args.out, jobs=args.jobs)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if manifest["failures"]:
        for fail in manifest["failures"]:
            if "traceback" in fail:
                print(fail["traceback"], end="", file=sys.stderr)
            print("solver failure (%s, seed %d): %s"
                  % (fail["solver"], fail["seed"], fail["error"]), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
