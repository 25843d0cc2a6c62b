"""``repro-trace`` — capture, export, diff, and summarize flight recordings.

Examples::

    repro-trace capture fig3 --cells rtt40-tdf1,rtt40-tdf10 --out traces
    repro-trace export traces/fig3-rtt40-tdf10.jsonl --time-base virtual
    repro-trace diff traces/fig3-rtt40-tdf10.jsonl traces/fig3-rtt40-tdf1.jsonl
    repro-trace summarize traces/fig3-rtt40-tdf1.jsonl

``capture`` runs a figure's traceable cells (in-process, deterministic)
with a flight recorder attached and writes one JSONL recording per cell.
``diff`` aligns two recordings by flow and packet sequence and reports
the first divergent event with context; it exits 1 when the recordings
diverge, which is how the CI trace tier pins dilation equivalence at the
per-packet level.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional

from ..harness.modes import (
    AXES,
    accepts,
    add_mode_arguments,
    apply_modes,
    capable_runners,
    parse_modes,
)
from .diff import DEFAULT_TIME_TOLERANCE, diff_traces, summarize_events
from .events import load_jsonl, save_jsonl
from .pcap import export_pcap

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Flight-recorder tooling: capture, export, diff, "
                    "summarize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    capture = sub.add_parser(
        "capture", help="run a figure's traceable cells with a recorder "
                        "attached; one JSONL per cell",
    )
    capture.add_argument("figure", help="experiment id (e.g. fig3)")
    capture.add_argument(
        "--cells", metavar="KEYS",
        help="comma-separated cell keys to run (default: every traceable "
             "cell of the figure)",
    )
    capture.add_argument(
        "--spec", metavar="SPEC", default="bottleneck", dest="trace",
        help="trace spec, point[:key=value,...] (default: bottleneck)",
    )
    capture.add_argument(
        "--out", metavar="DIR", default="traces",
        help="output directory (default: traces)",
    )
    add_mode_arguments(capture)
    capture.add_argument(
        "--salt", type=float, default=None, metavar="S",
        help="explicit delay_salt for swarm cells (run_bittorrent only). "
             "--shards 2+ salts swarm cells automatically; pass the same "
             "value here on the --shards 1 baseline so both recordings "
             "trace the identical salted simulation",
    )

    export = sub.add_parser(
        "export", help="synthesize a pcap from a JSONL recording",
    )
    export.add_argument("recording", help="JSONL recording to export")
    export.add_argument(
        "-o", "--output", metavar="PCAP",
        help="output path (default: recording with .pcap suffix)",
    )
    export.add_argument(
        "--kinds", metavar="KINDS", default="tx+rx",
        help="packet kinds to include, +-separated (default: tx+rx)",
    )
    export.add_argument(
        "--time-base", choices=("physical", "virtual"), default="physical",
        help="timestamp axis; 'virtual' uses the virtual time the "
             "recorder's clock stamped at capture",
    )

    diff = sub.add_parser(
        "diff", help="align two recordings and report the first divergence",
    )
    diff.add_argument("a", help="first recording (e.g. the dilated run)")
    diff.add_argument("b", help="second recording (e.g. the baseline)")
    diff.add_argument(
        "--tolerance", type=float, default=DEFAULT_TIME_TOLERANCE,
        metavar="S",
        help=f"absolute time tolerance in seconds "
             f"(default: {DEFAULT_TIME_TOLERANCE})",
    )
    diff.add_argument(
        "--ignore-time", action="store_true",
        help="compare event content only, not timestamps",
    )
    diff.add_argument(
        "--context", type=int, default=3, metavar="N",
        help="events of context around the first divergence (default: 3)",
    )

    summarize = sub.add_parser(
        "summarize", help="one-screen summary of a recording",
    )
    summarize.add_argument("recording", help="JSONL recording to summarize")
    return parser


def _cmd_capture(args: argparse.Namespace) -> int:
    from ..harness.figures import CELL_MODEL
    from ..harness.runner import execute_cell

    try:
        model = CELL_MODEL[args.figure]
    except KeyError:
        print(f"unknown figure {args.figure!r}; known: "
              + ", ".join(CELL_MODEL), file=sys.stderr)
        return 2
    try:
        modes = parse_modes(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    cells = [spec for spec in model.cells(None)
             if accepts(spec.runner, "trace")]
    if not cells:
        print(f"figure {args.figure!r} has no traceable cells "
              f"(traceable runners: {capable_runners('trace')})",
              file=sys.stderr)
        return 2
    if args.cells:
        wanted = [key.strip() for key in args.cells.split(",") if key.strip()]
        by_key = {spec.key: spec for spec in cells}
        missing = [key for key in wanted if key not in by_key]
        if missing:
            print(f"unknown cell key(s): {', '.join(missing)}; "
                  f"known: {', '.join(by_key)}", file=sys.stderr)
            return 2
        cells = [by_key[key] for key in wanted]
    if args.salt is not None:
        unsaltable = [s.key for s in cells
                      if not accepts(s.runner, "delay_salt")]
        if unsaltable:
            print(f"--salt only applies to swarm cells; not saltable: "
                  f"{', '.join(unsaltable)}", file=sys.stderr)
            return 2
        cells = [replace(s, kwargs=dict(s.kwargs, delay_salt=args.salt))
                 for s in cells]
    cells, refused = apply_modes(cells, modes)
    for axis, keys in refused.items():
        if keys:
            print(f"cell(s) not {AXES[axis]}: {', '.join(keys)} "
                  f"({AXES[axis]} runners: {capable_runners(axis)})",
                  file=sys.stderr)
            return 2
    os.makedirs(args.out, exist_ok=True)
    for spec in cells:
        result, _ = execute_cell(spec)
        events = getattr(result, "trace_events", []) or []
        path = os.path.join(args.out, f"{spec.figure_id}-{spec.key}.jsonl")
        save_jsonl(events, path)
        print(f"{path}: {len(events)} events")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    output = args.output
    if output is None:
        stem, _ = os.path.splitext(args.recording)
        output = stem + ".pcap"
    try:
        events = load_jsonl(args.recording)
        count = export_pcap(
            events, output,
            kinds=tuple(args.kinds.split("+")),
            time_base=args.time_base,
        )
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"{output}: {count} packets ({args.time_base} time)")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        events_a = load_jsonl(args.a)
        events_b = load_jsonl(args.b)
    except OSError as error:
        print(str(error), file=sys.stderr)
        return 2
    result = diff_traces(
        events_a, events_b,
        time_tolerance=args.tolerance,
        compare_time=not args.ignore_time,
        context=args.context,
    )
    label_a = os.path.basename(args.a)
    label_b = os.path.basename(args.b)
    print(result.render(context=args.context,
                        label_a=label_a, label_b=label_b))
    return 0 if result.identical else 1


def _cmd_summarize(args: argparse.Namespace) -> int:
    from ..stats.summary import describe

    try:
        events = load_jsonl(args.recording)
    except OSError as error:
        print(str(error), file=sys.stderr)
        return 2
    summary = summarize_events(events)
    print(f"{args.recording}: {summary['events']} events, "
          f"{len(summary['flows'])} flow(s), "
          f"{summary['packet_bytes']} packet bytes, "
          f"{summary['span_physical_s']:.6f} s physical span")
    for kind, count in sorted(summary["by_kind"].items()):
        print(f"  {kind}: {count}")
    if summary["drops_by_reason"]:
        print("  drops by reason:")
        for reason, count in sorted(summary["drops_by_reason"].items()):
            print(f"    {reason}: {count}")
    stamps = [event.physical_time for event in events]
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    print(f"  inter-event gaps: {describe(gaps, unit='s')}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "capture": _cmd_capture,
        "export": _cmd_export,
        "diff": _cmd_diff,
        "summarize": _cmd_summarize,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
