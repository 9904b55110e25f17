"""Command-line front end: solve one instance, run the benchmark suite, or
query the exhaustive oracle.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
files, oracle size refusal).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

from . import bench as bench_mod
from .ga import _CONFIG_FIELDS, GaConfig, config_from_text, run
from .instance import QapError, parse_qaplib, read_number
from .oracle import DEFAULT_LIMIT, exhaustive_optimum


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _reader(kind: type):
    read = partial(read_number, kind)
    read.__name__ = kind.__name__  # so argparse still says "invalid int value: 'x'"
    return read


def _add_ga_flags(p: argparse.ArgumentParser, skip=()):
    p.add_argument("--config", type=Path, default=None,
                   help="flat key = value config file; explicit flags override it")
    for f in fields(GaConfig):
        if f.name not in skip:
            # absent unless given, so _config_from can tell explicit flags apart
            p.add_argument(f.metadata["flag"], dest=f.name, type=_reader(_CONFIG_FIELDS[f.name]),
                           default=argparse.SUPPRESS, help=f.metadata["help"])


def _build_parser() -> _Parser:
    parser = _Parser(prog="qapga", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="run the GA on one instance")
    solve.add_argument("instance", type=Path)
    _add_ga_flags(solve)

    bench = sub.add_parser("bench", help="run the benchmark suite")
    bench.add_argument("--dir", type=Path, required=True,
                       help="directory of QAPLIB .dat files")
    bench.add_argument("--baselines", type=Path, required=True,
                       help="best-known values CSV (name,best_known,source)")
    bench.add_argument("--seeds", type=str, default="1..10",
                       help="seed list: comma-separated or a..b range")
    _add_ga_flags(bench, skip=("rng_seed",))
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    bench.add_argument("--out", type=Path, default=None,
                       help="write the report here instead of stdout")
    bench.add_argument("--jobs", type=_reader(int), default=1,
                       help="parallel (instance, seed) runs")

    oracle = sub.add_parser("oracle", help="exhaustive optimum for small n")
    oracle.add_argument("instance", type=Path)
    oracle.add_argument("--limit", type=_reader(int), default=DEFAULT_LIMIT)

    return parser


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(read_number(int, lo.strip()), read_number(int, hi.strip()) + 1))
    else:
        seeds = [read_number(int, s.strip()) for s in text.split(",") if s.strip()]
    if not seeds:
        raise ValueError("empty seed list")
    return seeds


def _config_from(args) -> GaConfig:
    """GaConfig defaults, then the --config file, then the explicit flags."""
    cfg = GaConfig()
    if args.config is not None:
        try:
            text = args.config.read_text()
        except OSError as e:
            raise QapError(f"cannot read {args.config}: {e}") from None
        try:
            cfg = config_from_text(text)
        except ValueError as e:
            raise QapError(f"bad config file {args.config}: {e}") from None
    return replace(cfg, **{name: getattr(args, name) for name in _CONFIG_FIELDS
                           if hasattr(args, name)})


def _load_instance(path: Path):
    try:
        data = path.read_bytes()
    except OSError as e:
        raise QapError(f"cannot read {path}: {e}") from None
    return parse_qaplib(data, name=path.stem)


def _cmd_solve(args, out) -> int:
    cfg = _config_from(args)
    inst = _load_instance(args.instance)
    result = run(inst, cfg)
    perm_1based = " ".join(str(v + 1) for v in result.best.perm)
    print(f"instance: {inst.name} (n={inst.n})", file=out)
    print(f"best permutation: {perm_1based}", file=out)
    print(f"cost: {result.best.cost}", file=out)
    print(f"generations: {result.generations_run}", file=out)
    print(f"evaluations: {result.evaluations}", file=out)
    print(f"time_s: {result.wall_time_s:.3f}", file=out)
    return 0


def _writable(path: Path) -> bool:
    """Whether a report can be written to path; checked before the suite runs,
    without opening path, so an existing report is left as it is."""
    if path.exists():
        return not path.is_dir() and os.access(path, os.W_OK)
    return path.parent.is_dir() and os.access(path.parent, os.W_OK)


def _cmd_bench(args, out) -> int:
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError as e:
        raise _UsageError(f"bad --seeds value {args.seeds!r}: {e}") from None
    if args.jobs < 1:
        raise _UsageError(f"bad --jobs value {args.jobs}: must be >= 1")
    if args.out is not None and not _writable(args.out):
        raise QapError(f"cannot write {args.out}: not a writable file in an existing directory")
    cfg = _config_from(args)
    try:
        baseline_text = args.baselines.read_text()
    except OSError as e:
        raise QapError(f"cannot read {args.baselines}: {e}") from None
    baselines = bench_mod.load_baselines(baseline_text)
    paths = sorted(args.dir.glob("*.dat"))
    if not paths:
        raise QapError(f"no .dat files found in {args.dir}")
    instances = [_load_instance(p) for p in paths]
    rows = bench_mod.run_suite(instances, baselines, cfg, seeds,
                               jobs=args.jobs)
    report = bench_mod.emit_report(rows, args.format)
    if args.out is not None:
        try:
            args.out.write_text(report)
        except OSError as e:
            raise QapError(f"cannot write {args.out}: {e}") from None
    else:
        out.write(report)
    return 0


def _cmd_oracle(args, out) -> int:
    if args.limit < 1:
        raise _UsageError(f"bad --limit value {args.limit}: must be >= 1")
    inst = _load_instance(args.instance)
    result = exhaustive_optimum(inst, limit=args.limit)
    perm_1based = " ".join(str(v + 1) for v in result.argmin)
    print(f"instance: {inst.name} (n={inst.n})", file=out)
    print(f"optimum: {result.optimum}", file=out)
    print(f"argmin: {perm_1based}", file=out)
    print(f"explored: {result.explored}", file=out)
    return 0


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(e, file=err)
        return 1
    try:
        if args.subcommand == "solve":
            return _cmd_solve(args, out)
        if args.subcommand == "bench":
            return _cmd_bench(args, out)
        return _cmd_oracle(args, out)
    except _UsageError as e:
        print(e, file=err)
        return 1
    except (QapError, ValueError) as e:
        print(f"error: {e}", file=err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
