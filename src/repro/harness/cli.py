"""``repro-figure`` — run paper experiments from the command line.

Examples::

    repro-figure --list
    repro-figure fig3
    repro-figure all --jobs 4 --timings
    repro-figure all --jobs 1 --no-cache   # the strictly sequential path

Figures are executed as a deduplicated cell sweep
(:mod:`repro.harness.runner`): by default cells fan out over
``os.cpu_count()`` worker processes and completed cells are cached under
``.repro-cache/``, so an interrupted ``all`` resumes where it stopped.
Output is merged in spec order and is byte-identical whatever ``--jobs``
is. ``--profile-engine`` takes the classic sequential in-process path —
the engine profiler is a per-process singleton, so it cannot span a pool.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .figures import FIGURES, figure_ids, run_figure
from .modes import add_mode_arguments, parse_modes
from .runner import DEFAULT_CACHE_DIR, run_sweep

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-figure",
        description=(
            "Reproduce the evaluation of 'To Infinity and Beyond: "
            "Time-Warped Network Emulation' (NSDI 2006)."
        ),
    )
    parser.add_argument(
        "figures",
        nargs="*",
        help="experiment ids to run (e.g. fig3 table1), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each experiment's table to DIR/<id>.csv",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes for the cell sweep (default: cpu count; "
             "1 = run every cell in-process, no pool)",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print a per-cell wall-clock / peak-RSS / engine-event table "
             "after the sweep",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"content-addressed result cache (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--profile-engine",
        action="store_true",
        help="append an event-engine profile (events/sec, heap stats, "
             "per-component histogram) to each experiment's report; "
             "implies the sequential in-process path",
    )
    parser.add_argument(
        "--impair",
        metavar="SPEC",
        help="impairment spec for experiments with an impairment axis "
             "(e.g. ext4): kind[:key=value,...] — "
             "'bernoulli:rate=0.01,seed=7', 'gilbert:rate=0.01,burst=4', "
             "'reorder:rate=0.05,hold=0.002', 'duplicate:rate=0.01', "
             "'corrupt:rate=0.01', 'flap:windows=1.0-1.5/3.0-3.2'",
    )
    parser.add_argument(
        "--trace",
        metavar="SPEC",
        help="attach a flight recorder to every traceable cell: "
             "point[:key=value,...] with point one of bottleneck/reverse/"
             "receiver — e.g. 'bottleneck:kinds=tx+rx+drop,tcp=1,"
             "capacity=65536'; recordings land in --trace-dir as one "
             "JSONL per figure",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default="traces",
        help="directory for --trace recordings (default: traces)",
    )
    add_mode_arguments(parser)
    return parser


def _run_profiled(requested: List[str], args: argparse.Namespace) -> int:
    """The classic sequential path: one profiled figure at a time."""
    failures = 0
    for figure_id in requested:
        started = time.time()
        try:
            result = run_figure(figure_id, profile_engine=True,
                                impair=args.impair)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        elapsed = time.time() - started
        print(result.render())
        print(f"  ({elapsed:.1f} s wall)")
        if args.csv:
            import os

            os.makedirs(args.csv, exist_ok=True)
            path = result.write_csv(args.csv)
            print(f"  csv: {path}")
        print()
        if not result.all_passed:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing checks", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list or not args.figures:
        print("available experiments:")
        for figure_id in figure_ids():
            doc = (FIGURES[figure_id].__doc__ or "").strip().splitlines()[0]
            print(f"  {figure_id:10s} {doc}")
        return 0
    requested = figure_ids() if args.figures == ["all"] else args.figures
    for figure_id in requested:
        if figure_id not in FIGURES:
            print(f"unknown figure {figure_id!r}; use --list", file=sys.stderr)
            return 2
    try:
        modes = parse_modes(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.profile_engine and modes:
        flags = " and ".join(f"--{axis}" for axis in modes)
        print(f"{flags} cannot be combined with --profile-engine "
              "(the profiled path bypasses the cell sweep)", file=sys.stderr)
        return 2
    if args.profile_engine:
        return _run_profiled(requested, args)
    cache_dir = None if args.no_cache else args.cache_dir
    try:
        outcome = run_sweep(
            requested,
            jobs=args.jobs,
            impair=args.impair,
            cache_dir=cache_dir,
            collect_timings=args.timings,
            **modes,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    failures = 0
    for result in outcome.figures:
        print(result.render())
        if args.csv:
            import os

            os.makedirs(args.csv, exist_ok=True)
            path = result.write_csv(args.csv)
            print(f"  csv: {path}")
        print()
        if not result.all_passed:
            failures += 1
    if "trace" in modes:
        import os

        from ..trace.events import save_jsonl

        os.makedirs(args.trace_dir, exist_ok=True)
        by_figure: dict = {}
        for figure_id, key, events in outcome.traces:
            by_figure.setdefault(figure_id, []).append((key, events))
        for figure_id, cells in by_figure.items():
            path = os.path.join(args.trace_dir, f"{figure_id}.jsonl")
            merged = [event for _, cell_events in cells
                      for event in cell_events]
            extra = [{"cell": key} for key, cell_events in cells
                     for _ in cell_events]
            save_jsonl(merged, path, extra=extra)
            print(f"  trace: {path} ({len(merged)} events, "
                  f"{len(cells)} cell(s))")
    # Deliberately free of wall time and job count: stdout is byte-identical
    # for any --jobs value (those diagnostics live in the --timings table).
    print(outcome.cache_summary())
    if args.timings:
        print()
        print(outcome.timings_table())
    if failures:
        print(f"{failures} experiment(s) had failing checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
